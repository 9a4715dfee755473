//! Machine-speed calibration.
//!
//! Wall-clock time on a shared virtual machine drifts with its neighbours'
//! load: the same pass can take 1.6x longer for minutes at a time.
//! Before each timed pass (and each set-up) the benchmark runs a fixed
//! kernel of its own — integer mixing, data-dependent branches and a
//! 16 KiB table — and scales the pass's times by
//! `(REFERENCE_SECS / kernel time) ^ ELASTICITY`. The kernel never calls
//! the repository's code, so a change to the repository cannot move it.
//!
//! The kernel runs in the benchmark's own process, so a thread of the
//! program that kept working while it ran (a server worker, a background
//! flush, a busy-poll) would slow it and credit that work back to the
//! pass. Before each calibration the process must therefore run exactly
//! the threads the workload expects, none of them runnable but the
//! caller; otherwise the calibration fails, and with it the operation.
//! The scaling can then only correct for load from outside the process.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time, in seconds, on an uncontended 2-vCPU Xeon guest:
/// the machine speed the reported times are scaled to.
pub const REFERENCE_SECS: f64 = 0.0135;

/// How much more the simulator slows than the kernel, in log terms:
/// fitted over two 10-seed sets of all four workloads, one taken while
/// the kernel ran at 0.8-1.0 of reference speed and one at 0.7-0.8. With
/// 1 the second set's `acc_per_s` medians read 21-22% lower on the STeMS
/// workloads; with 1.5 they agree within 11%, and set-up and wire times
/// (which slow less) within 6%.
pub const ELASTICITY: f64 = 1.5;

fn kernel_secs() -> f64 {
    let mut table = [0u64; 2048];
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..1 << 21 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        if x & 1 == 0 {
            table[i] = table[i].wrapping_add(x);
        } else {
            acc = acc.wrapping_mul(31) ^ table[(i * 7) & mask];
        }
    }
    black_box((acc, &table));
    start.elapsed().as_secs_f64()
}

/// How long [`speed`] waits for the process to go quiet: a thread that
/// has just answered a request, or has just been joined, settles within
/// milliseconds.
const QUIET_WAIT: Duration = Duration::from_secs(1);

/// The process's threads: how many there are, and how many of them other
/// than the calling thread are runnable (state `R` in `/proc`).
fn threads_and_runnable() -> std::io::Result<(usize, usize)> {
    let me = std::fs::read_link("/proc/thread-self")?;
    let me = me.file_name().unwrap_or_default();
    let (mut threads, mut runnable) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task")? {
        let task = task?;
        threads += 1;
        if task.file_name() == me {
            continue;
        }
        // A thread that exited since the listing is not runnable.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) {
            if stat_state(&stat) == Some('R') {
                runnable += 1;
            }
        }
    }
    Ok((threads, runnable))
}

/// The state letter of a `/proc/<pid>/task/<tid>/stat` line: the first
/// field after the command name, which is in parentheses and may itself
/// hold spaces and parentheses.
fn stat_state(stat: &str) -> Option<char> {
    let (_, rest) = stat.rsplit_once(')')?;
    rest.trim_start().chars().next()
}

/// Waits until the process runs exactly `expect_threads` threads and none
/// but the caller is runnable; an error names what was still there after
/// [`QUIET_WAIT`].
fn wait_quiet(expect_threads: usize) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let (threads, runnable) =
            threads_and_runnable().map_err(|e| format!("calibration: read /proc: {e}"))?;
        if threads == expect_threads && runnable == 0 {
            return Ok(());
        }
        if start.elapsed() >= QUIET_WAIT {
            return Err(format!(
                "calibration: the process runs {threads} threads ({runnable} runnable besides \
                 the caller), expected {expect_threads} and none runnable"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The factor that scales a time measured now to the reference machine:
/// `REFERENCE_SECS` over the kernel's time, run at once on `threads`
/// threads (the workload's busy threads) and averaged, raised to
/// [`ELASTICITY`]. Below 1 when the machine runs slower than the
/// reference. Fails when the process does not first settle to
/// `expect_threads` threads with none but the caller runnable.
pub fn speed(threads: usize, expect_threads: usize) -> Result<f64, String> {
    wait_quiet(expect_threads)?;
    let secs = if threads <= 1 {
        kernel_secs()
    } else {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads).map(|_| s.spawn(kernel_secs)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("calibration thread panicked"))
                .sum::<f64>()
                / threads as f64
        })
    };
    Ok((REFERENCE_SECS / secs).powf(ELASTICITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_state_skips_the_command_name() {
        assert_eq!(stat_state("41 (perfbench) S 1 41 0"), Some('S'));
        assert_eq!(stat_state("42 (a) R (b)) R 1 42 0"), Some('R'));
        assert_eq!(stat_state("43 (x)"), None);
        assert_eq!(stat_state("garbled"), None);
    }

    #[test]
    fn a_spinning_thread_is_runnable_and_fails_the_calibration() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            let (threads, runnable) = threads_and_runnable().expect("read /proc");
            assert!(
                threads >= 2 && runnable >= 1,
                "{threads} threads, {runnable} runnable"
            );
            // The spinner never settles, whatever the expected count.
            assert!(speed(1, threads).is_err());
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn speed_is_positive_and_finite_on_a_quiet_process() {
        // The test harness runs other tests on threads of its own; wait
        // for whatever count it settles to, with none of them runnable.
        for threads in [1, 2] {
            let s = (0..100)
                .find_map(|_| {
                    let (n, _) = threads_and_runnable().ok()?;
                    speed(threads, n).ok()
                })
                .expect("the process settles");
            assert!(s.is_finite() && s > 0.0, "{threads} threads: {s}");
        }
    }
}
