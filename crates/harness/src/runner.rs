//! Experiment plumbing: session construction and per-workload runs.

use std::path::Path;

use stems_core::engine::Counters;
use stems_core::{PrefetchConfig, Session, SessionBuilder};
use stems_memsim::SystemConfig;
use stems_timing::{SessionTiming, TimingParams, TimingReport};
use stems_trace::{Trace, TraceReader, TraceStoreError};
use stems_workloads::Workload;

// The predictor registry lives in the core session API now; re-exported
// so harness callers keep their `runner::Predictor` path.
pub use stems_core::session::Predictor;

/// Scale/seed/parallelism settings shared by every experiment (parsed
/// from argv).
///
/// Cheap to clone: the only non-`Copy` field is the shared `Arc<str>`
/// behind `--trace-dir` (which used to be a `Box::leak`'d
/// `&'static str` to keep `Settings: Copy`; repeated parsing no longer
/// leaks).
#[derive(Clone, Debug, PartialEq)]
pub struct Settings {
    /// Footprint scale (1.0 = evaluation size).
    pub scale: f64,
    /// Workload generator seed.
    pub seed: u64,
    /// Worker threads for sharding experiment cells (0 = all cores).
    pub threads: usize,
    /// When set, workload traces are replayed from captured store files
    /// in this directory (`<dir>/<workload>.stems`, as written by
    /// `tracegen capture-all`) instead of being regenerated.
    pub trace_dir: Option<std::sync::Arc<str>>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            scale: 1.0,
            seed: 2009,
            threads: 0,
            trace_dir: None,
        }
    }
}

impl Settings {
    /// Parses `--scale <f>`, `--seed <n>`, `--threads <n>`, and
    /// `--trace-dir <dir>` from an argument list. A flag whose value is
    /// missing or malformed is an error naming it (`--scale` must be a
    /// positive finite number); other arguments are ignored, because the
    /// binaries layer their own flags on top.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
            let v = v
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        let mut s = Settings::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => {
                    s.scale = value(&flag, args.next())?;
                    if !(s.scale.is_finite() && s.scale > 0.0) {
                        return Err(format!("--scale must be positive, got {}", s.scale));
                    }
                }
                "--seed" => s.seed = value(&flag, args.next())?,
                "--threads" => s.threads = value(&flag, args.next())?,
                "--trace-dir" => {
                    let dir: String = value(&flag, args.next())?;
                    s.trace_dir = Some(std::sync::Arc::from(dir));
                }
                _ => {}
            }
        }
        Ok(s)
    }

    /// Parses from the process arguments; a missing or malformed value
    /// is reported on stderr and exits the process with status 2.
    pub fn from_env() -> Self {
        Settings::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// The worker count to actually use: `threads`, or every available
    /// core when `threads` is 0.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Maps `f` over `items` on `threads` workers, returning results in input
/// order regardless of which worker computed what.
///
/// Work distribution is a single shared atomic cursor — no queues, no
/// work stealing — so cells are claimed in index order and the only
/// nondeterminism is *where* a cell runs, never its input or its slot in
/// the output. Each worker buffers `(index, result)` locally; the caller
/// reassembles by index, so outputs are byte-identical to a serial run.
pub fn parallel_map<I: Sync, T: Send>(
    items: &[I],
    threads: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, t) in h.join().expect("worker thread panicked") {
                slots[i] = Some(t);
            }
        }
    });
    slots
        .into_iter()
        .map(|x| x.expect("cursor visits every index"))
        .collect()
}

/// The system configuration for an experiment scale: the L2 shrinks with
/// the workload footprints so the footprint-to-cache ratio — which decides
/// whether repeated traversals still miss off chip — matches the paper's
/// 8MB L2 against its full-size working sets.
pub fn system_config(scale: f64) -> SystemConfig {
    let mut sys = SystemConfig::default();
    if scale < 1.0 {
        let target = (sys.l2.size_bytes as f64 * scale) as u64;
        let mut size = sys.l2.size_bytes;
        while size / 2 >= target.max(64 * 1024) {
            size /= 2;
        }
        sys.l2.size_bytes = size;
        // Keep the L1 no larger than half the L2.
        while sys.l1.size_bytes * 2 > sys.l2.size_bytes {
            sys.l1.size_bytes /= 2;
        }
    }
    sys
}

/// The prefetcher configuration a workload uses (Section 4.3: lookahead 8
/// commercial / 12 scientific).
pub fn prefetch_config(workload: Workload) -> PrefetchConfig {
    if workload.is_scientific() {
        PrefetchConfig::scientific()
    } else {
        PrefetchConfig::commercial()
    }
}

/// The standard per-workload session: the workload's prefetch
/// configuration and coherence-invalidation injection, with `predictor`
/// selected via the core factory. Every experiment that doesn't sweep a
/// knob starts from this builder.
pub fn session_builder(
    workload: Workload,
    predictor: Predictor,
    sys: &SystemConfig,
) -> SessionBuilder {
    Session::builder(sys)
        .prefetch(&prefetch_config(workload))
        .predictor(predictor)
        .invalidations(
            workload.invalidation_rate(),
            0xC0FFEE ^ workload.name().len() as u64,
        )
}

/// The remote twin of [`session_builder`]: the `OpenRequest` that makes
/// a `stems-server` tenant session configured identically to the local
/// one, so streamed counters are comparable byte-for-byte. Kept next to
/// `session_builder` so the two configurations cannot drift apart.
pub fn remote_open_request(
    workload: Workload,
    predictor: Predictor,
    sys: &SystemConfig,
) -> stems_core::protocol::OpenRequest {
    stems_core::protocol::OpenRequest {
        system: sys.clone(),
        prefetch: prefetch_config(workload),
        predictor,
        invalidations: Some((
            workload.invalidation_rate(),
            0xC0FFEE ^ workload.name().len() as u64,
        )),
    }
}

/// Runs `predictor` over `trace` and returns the coverage counters, with
/// the workload's coherence-invalidation injection enabled.
pub fn run_coverage(
    workload: Workload,
    predictor: Predictor,
    trace: &Trace,
    sys: &SystemConfig,
) -> Counters {
    session_builder(workload, predictor, sys).run(trace)
}

/// Runs `predictor` over `trace` with timing and returns the report.
pub fn run_timing(
    workload: Workload,
    predictor: Predictor,
    trace: &Trace,
    sys: &SystemConfig,
) -> TimingReport {
    session_builder(workload, predictor, sys)
        .timing(&TimingParams::from_system(sys))
        .run(trace)
}

/// Loads one workload's trace for `settings`: from the captured store
/// file under `--trace-dir` when set (see `tracegen capture-all`),
/// otherwise by running the generator. Figure code needs random access
/// to the whole trace, so store files are materialized here; streaming
/// replay for coverage runs is [`replay_coverage`].
pub fn load_trace(workload: Workload, settings: &Settings) -> Trace {
    match settings.trace_dir.as_deref() {
        Some(dir) => {
            let path = Path::new(dir).join(stems_workloads::trace_file_name(workload));
            TraceReader::open(&path)
                .and_then(TraceReader::read_to_trace)
                .unwrap_or_else(|e| {
                    panic!(
                        "cannot replay {workload} from {}: {e}\n\
                         (capture the corpus first: tracegen capture-all {dir} \
                         --scale {} --seed {})",
                        path.display(),
                        settings.scale,
                        settings.seed
                    )
                })
        }
        None => workload.generate_scaled(settings.scale, settings.seed),
    }
}

/// Generates (or, under `--trace-dir`, replays) every workload's trace
/// in parallel, preserving order.
pub fn generate_traces(settings: Settings) -> Vec<(Workload, Trace)> {
    let workloads = Workload::all();
    let traces = parallel_map(&workloads, settings.effective_threads(), |w| {
        load_trace(*w, &settings)
    });
    workloads.into_iter().zip(traces).collect()
}

/// Streams a captured trace store through `predictor` with `workload`'s
/// standard session (config + invalidation injection) and returns the
/// finalized counters plus the number of accesses replayed. Memory
/// stays O(frame): the file is never materialized.
pub fn replay_coverage<P: AsRef<Path>>(
    workload: Workload,
    predictor: Predictor,
    path: P,
    sys: &SystemConfig,
) -> Result<(Counters, u64), TraceStoreError> {
    let mut reader = TraceReader::open(path)?;
    let mut session = session_builder(workload, predictor, sys).build();
    let fed = session.replay(&mut reader)?;
    Ok((session.finalize(), fed))
}

/// Runs `f` for every workload in parallel, preserving order.
pub fn per_workload<T: Send>(
    settings: Settings,
    f: impl Fn(Workload, &Trace) -> T + Sync,
) -> Vec<(Workload, T)> {
    let threads = settings.effective_threads();
    let cells = generate_traces(settings);
    let results = parallel_map(&cells, threads, |(w, trace)| f(*w, trace));
    cells.into_iter().map(|(w, _)| w).zip(results).collect()
}

/// Runs every workload × predictor cell in parallel, returning, per
/// workload, the results in `predictors` order.
///
/// This is the finest-grained sharding the figures support: a slow cell
/// (say STeMS on tpcc) no longer serializes behind its workload's other
/// predictors, so the harness scales past `min(cores, 10)`.
pub fn per_workload_predictor<T: Send>(
    settings: Settings,
    predictors: &[Predictor],
    f: impl Fn(Workload, &Trace, Predictor) -> T + Sync,
) -> Vec<(Workload, Vec<T>)> {
    let threads = settings.effective_threads();
    let traces = generate_traces(settings);
    let cells: Vec<(usize, Predictor)> = (0..traces.len())
        .flat_map(|wi| predictors.iter().map(move |&p| (wi, p)))
        .collect();
    let flat = parallel_map(&cells, threads, |&(wi, p)| {
        let (w, trace) = &traces[wi];
        f(*w, trace, p)
    });
    let mut flat = flat.into_iter();
    traces
        .into_iter()
        .map(|(w, _)| (w, flat.by_ref().take(predictors.len()).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_parse() {
        let parse = |args: &[&str]| Settings::from_args(args.iter().map(|s| s.to_string()));
        let accepted: [(&[&str], Settings); 5] = [
            (&[], Settings::default()),
            (
                &["--scale", "0.25", "--seed", "7", "--threads", "3", "--junk"],
                Settings {
                    scale: 0.25,
                    seed: 7,
                    threads: 3,
                    trace_dir: None,
                },
            ),
            (
                &["--trace-dir", "/tmp/corpus", "--threads", "0"],
                Settings {
                    trace_dir: Some("/tmp/corpus".into()),
                    ..Settings::default()
                },
            ),
            // Unknown flags and their values are skipped, wherever they sit.
            (
                &["--window", "8", "--seed", "1", "positional", "--retry"],
                Settings {
                    seed: 1,
                    ..Settings::default()
                },
            ),
            (
                &["--scale", "1e-3"],
                Settings {
                    scale: 0.001,
                    ..Settings::default()
                },
            ),
        ];
        for (args, want) in accepted {
            assert_eq!(parse(args), Ok(want), "{args:?}");
        }
        let rejected: [&[&str]; 12] = [
            &["--scale", "banana"],
            &["--scale"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "nan"],
            &["--scale", "inf"],
            &["--seed", "-3"],
            &["--seed", "7.5"],
            &["--threads", "two"],
            &["--threads", "--seed", "7"],
            &["--trace-dir"],
            &["--seed", "1", "--trace-dir", "--scale", "0.1"],
        ];
        for args in rejected {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.starts_with("--"), "error names the flag: {err}");
        }
        assert_eq!(parse(&["--threads", "3"]).unwrap().effective_threads(), 3);
        assert!(Settings::default().effective_threads() >= 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = parallel_map(&items, 1, |&x| x * x);
        for threads in [2, 3, 8, 64] {
            let parallel = parallel_map(&items, threads, |&x| x * x);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        let empty: Vec<u64> = parallel_map(&[] as &[u64], 4, |&x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn per_workload_predictor_groups_in_order() {
        let settings = Settings {
            scale: 0.002,
            seed: 1,
            threads: 4,
            ..Settings::default()
        };
        let predictors = [Predictor::None, Predictor::Stride];
        let results = per_workload_predictor(settings, &predictors, |_, trace, p| (p, trace.len()));
        assert_eq!(results.len(), 10);
        for (_, cells) in &results {
            assert_eq!(cells.len(), 2);
            assert_eq!(cells[0].0, Predictor::None);
            assert_eq!(cells[1].0, Predictor::Stride);
            assert!(cells[0].1 > 0);
        }
    }

    #[test]
    fn config_selection_follows_category() {
        assert_eq!(prefetch_config(Workload::Em3d).lookahead, 12);
        assert_eq!(prefetch_config(Workload::Db2).lookahead, 8);
    }

    #[test]
    fn per_workload_runs_all_in_order() {
        let settings = Settings {
            scale: 0.002,
            seed: 1,
            threads: 0,
            ..Settings::default()
        };
        let results = per_workload(settings, |_, trace| trace.len());
        assert_eq!(results.len(), 10);
        assert_eq!(results[0].0, Workload::Apache);
        assert!(results.iter().all(|(_, len)| *len > 0));
    }
}
