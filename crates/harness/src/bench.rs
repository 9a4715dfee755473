//! Self-timing throughput harness behind `--bin bench_harness`.
//!
//! Measures the things future PRs need a trajectory for:
//!
//! * **per-access step throughput** — how fast the scalar
//!   `Session::step` wrapper drives each predictor through a trace
//!   (accesses/second, single thread);
//! * **batched throughput** — the same trace delivered through
//!   `Session::run_chunk`, the primary entry point, so every report
//!   carries a same-boot batch-vs-scalar A/B;
//! * **per-figure wall-clock** — end-to-end time of every reproduced
//!   table/figure, serial and parallel;
//! * **observation cost** — the batched run with and without a
//!   `SessionObs` hook attached, reported as a `hooked/plain` ratio so
//!   the observability layer's hot-path cost has a trajectory too
//!   (`docs/OBSERVABILITY.md` documents the ≤2% same-boot target).
//!
//! The report is written as `BENCH_harness.json` so successive PRs can
//! diff machine-readable numbers instead of re-reading logs. Peak memory
//! is a proxy read from `/proc/self/status` (`VmHWM`); the row is omitted
//! where that probe is unavailable (non-Linux or restricted sandboxes).

use std::sync::Arc;
use std::time::Instant;

use stems_obs::{MetricsRegistry, SessionObs};
use stems_trace::{SyncPolicy, Trace};
use stems_types::clock::MonotonicClock;
use stems_workloads::Workload;

use crate::figs;
use crate::runner::{
    replay_coverage, run_coverage, session_builder, system_config, Predictor, Settings,
};

/// One measured quantity in the report.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Metric name (e.g. `step_throughput/db2/stems`).
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit label (`accesses_per_sec`, `seconds`, `kb`, `x`).
    pub unit: &'static str,
}

/// Peak resident set size in KB (Linux `VmHWM`), or `None` when the
/// probe is unavailable — `/proc/self/status` unreadable (non-Linux,
/// restricted sandboxes) or the `VmHWM` line absent/unparseable. Callers
/// must omit the row rather than report a fake `0`: a zero in the
/// trajectory would read as a regression fix on the next PR's diff.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches(" kB").trim().parse().ok()
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times `predictor` over `trace` access-by-access through the scalar
/// [`stems_core::Session::step`] wrapper, returning accesses per second
/// (single-threaded, best of `reps` runs to shed first-touch noise).
pub fn step_throughput(
    workload: Workload,
    predictor: Predictor,
    trace: &Trace,
    settings: &Settings,
    reps: usize,
) -> f64 {
    let sys = system_config(settings.scale);
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let (_, secs) = time(|| {
            let mut session = session_builder(workload, predictor, &sys).build();
            for access in trace.iter() {
                session.step(access);
            }
            session.finalize()
        });
        best = best.min(secs);
    }
    trace.len() as f64 / best
}

/// Times `predictor` over `trace` through the batched
/// [`stems_core::Session::run_chunk`] path (whole trace in one chunk) —
/// the scalar row's same-boot A/B partner.
pub fn batch_throughput(
    workload: Workload,
    predictor: Predictor,
    trace: &Trace,
    settings: &Settings,
    reps: usize,
) -> f64 {
    let sys = system_config(settings.scale);
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let (_, secs) = time(|| run_coverage(workload, predictor, trace, &sys));
        best = best.min(secs);
    }
    trace.len() as f64 / best
}

/// Times streaming replay of `workload`'s persisted store through the
/// no-op predictor (so the number isolates decode + cache simulation,
/// not predictor work), returning accesses per second. The store is
/// written to a temp file for the measurement and removed afterwards.
pub fn trace_replay_throughput(
    workload: Workload,
    trace: &Trace,
    settings: &Settings,
    reps: usize,
) -> f64 {
    let sys = system_config(settings.scale);
    let path = std::env::temp_dir().join(format!(
        "stems_bench_{}_{}.stems",
        std::process::id(),
        workload.name().to_ascii_lowercase()
    ));
    let mut writer = stems_trace::TraceWriter::create(&path)
        .expect("create bench store in temp dir")
        .with_sync_policy(SyncPolicy::Never);
    writer
        .write_accesses(trace.as_slice())
        .and_then(|_| writer.finish())
        .expect("persist bench trace");
    drop(writer);
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let (result, secs) = time(|| replay_coverage(workload, Predictor::None, &path, &sys));
        let (_, fed) = result.expect("replay the store just written");
        assert_eq!(fed, trace.len() as u64, "replay must feed the whole trace");
        best = best.min(secs);
    }
    let _ = std::fs::remove_file(&path);
    trace.len() as f64 / best
}

/// Times streaming replay of `workload`'s trace over a **loopback TCP
/// connection** to an in-process `stems-server`, through the no-op
/// predictor — [`trace_replay_throughput`]'s wire twin. The delta
/// between the two rows isolates framing + checksum + socket cost from
/// store decode + cache simulation, so a protocol regression shows up
/// here without moving the on-disk replay row.
pub fn wire_replay_throughput(
    workload: Workload,
    trace: &Trace,
    settings: &Settings,
    reps: usize,
) -> f64 {
    let sys = system_config(settings.scale);
    let mut store = Vec::new();
    let mut writer = stems_trace::TraceWriter::new(&mut store).expect("in-memory bench store");
    writer
        .write_accesses(trace.as_slice())
        .and_then(|_| writer.finish())
        .expect("encode bench trace");
    drop(writer);

    let server = stems_server::Server::bind("127.0.0.1:0", stems_server::ServerConfig::default())
        .expect("bind loopback bench server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut best = f64::MAX;
    {
        // A bench fault is a failed run, not something to heal.
        let policy = stems_client::RetryPolicy {
            max_retries: 0,
            ..stems_client::RetryPolicy::default()
        };
        let mut client = stems_client::ResilientClient::new(addr.to_string(), policy);
        let open = crate::runner::remote_open_request(workload, Predictor::None, &sys);
        for _ in 0..reps.max(1) {
            let (fed, secs) = time(|| {
                let session = client.open(&open).expect("open bench session");
                let mut reader =
                    stems_trace::TraceReader::new(store.as_slice()).expect("read bench store");
                let (fed, _) = client
                    .stream(session, &mut reader, 4)
                    .expect("stream bench trace");
                client.close(session).expect("close bench session");
                fed
            });
            assert_eq!(fed, trace.len() as u64, "stream must feed the whole trace");
            best = best.min(secs);
        }
        // The streaming connection closes here, before the server joins
        // its workers.
        drop(client);
        stems_client::Client::connect(addr)
            .and_then(|mut admin| admin.shutdown_server())
            .expect("drain bench server");
    }
    handle
        .join()
        .expect("join bench server")
        .expect("server run");
    trace.len() as f64 / best
}

/// Measures the observability hook's same-boot cost on the batched hot
/// path: the whole trace fed in 4096-access chunks through a plain
/// `Session`, then again through one carrying a [`SessionObs`] hook,
/// interleaved across `reps` and best-of each. Returns `hooked / plain`
/// seconds — ~1.0 when the hook is cheap, >1 when it costs time. When
/// `registry` is given the hooked runs also fan out into it, so the
/// caller can dump exactly what the hook recorded
/// (`bench_harness --obs-json`).
pub fn obs_overhead(
    workload: Workload,
    predictor: Predictor,
    trace: &Trace,
    settings: &Settings,
    reps: usize,
    registry: Option<&MetricsRegistry>,
) -> f64 {
    const CHUNK: usize = 4096;
    let sys = system_config(settings.scale);
    // Always register into a scratch registry so the hooked arm pays
    // the real atomic-update cost even when the caller keeps no copy.
    let scratch = MetricsRegistry::new();
    let mut builder = SessionObs::builder(Arc::new(MonotonicClock::new())).registry(&scratch);
    if let Some(extra) = registry {
        builder = builder.registry(extra);
    }
    let hook = builder.build();
    let feed = |obs: Option<SessionObs>| {
        let mut session = session_builder(workload, predictor, &sys).build();
        if let Some(hook) = obs {
            session.set_obs(hook);
        }
        for chunk in trace.as_slice().chunks(CHUNK) {
            session.run_chunk(chunk);
        }
        session.finalize()
    };
    let mut plain_best = f64::MAX;
    let mut hooked_best = f64::MAX;
    for _ in 0..reps.max(1) {
        let (_, secs) = time(|| feed(None));
        plain_best = plain_best.min(secs);
        let (_, secs) = time(|| feed(Some(hook.clone())));
        hooked_best = hooked_best.min(secs);
    }
    hooked_best / plain_best.max(f64::MIN_POSITIVE)
}

/// Runs the full self-timing suite and returns the measurements.
pub fn run(settings: Settings) -> Vec<Measurement> {
    run_with_obs(settings, None)
}

/// [`run`] with an optional metrics registry: when given, the
/// observation-cost A/B's hooked runs record into it, so the caller
/// can write the hook's own view of the bench next to the report.
pub fn run_with_obs(settings: Settings, registry: Option<&MetricsRegistry>) -> Vec<Measurement> {
    let mut out = Vec::new();
    let reps = 3;
    // One commercial and one scientific workload bound the predictors'
    // behavior; measuring all ten would just repeat these two regimes.
    for w in [Workload::Db2, Workload::Em3d] {
        let (trace, gen_secs) = time(|| w.generate_scaled(settings.scale, settings.seed));
        out.push(Measurement {
            name: format!("tracegen/{}/wall", w.name()),
            value: gen_secs,
            unit: "seconds",
        });
        out.push(Measurement {
            name: format!("tracegen/{}/accesses", w.name()),
            value: trace.len() as f64,
            unit: "accesses",
        });
        for p in Predictor::all() {
            let rate = step_throughput(w, p, &trace, &settings, reps);
            out.push(Measurement {
                name: format!("step_throughput/{}/{}", w.name(), p.name()),
                value: rate,
                unit: "accesses_per_sec",
            });
            let rate = batch_throughput(w, p, &trace, &settings, reps);
            out.push(Measurement {
                name: format!("batch_throughput/{}/{}", w.name(), p.name()),
                value: rate,
                unit: "accesses_per_sec",
            });
        }
        // Streaming replay from the persisted store (PR 7): the same
        // trace decoded frame-by-frame from disk, so the trajectory
        // catches codec regressions separately from predictor ones.
        let rate = trace_replay_throughput(w, &trace, &settings, reps);
        out.push(Measurement {
            name: format!("trace_replay_throughput/{}", w.name()),
            value: rate,
            unit: "accesses_per_sec",
        });
        // The same trace pushed through the session service over
        // loopback TCP (PR 8): decode + framing + checksums + sockets.
        let rate = wire_replay_throughput(w, &trace, &settings, reps);
        out.push(Measurement {
            name: format!("wire_replay_throughput/{}", w.name()),
            value: rate,
            unit: "accesses_per_sec",
        });
        // Observation cost (PR 9): the same batched STeMS run with and
        // without a `SessionObs` hook attached, as a hooked/plain
        // wall-clock ratio. The design target is ≤2% same-boot overhead
        // (docs/OBSERVABILITY.md); `bench_check` gates the row loosely
        // (`--obs-max-overhead`, default 1.5) because a ratio of two
        // noisy CI timings is itself noisy. Unit `x`: like the probe
        // row below it never enters the throughput gate.
        let ratio = obs_overhead(w, Predictor::Stems, &trace, &settings, reps, registry);
        out.push(Measurement {
            name: format!("obs_overhead/{}", w.name()),
            value: ratio,
            unit: "x",
        });
        // PST probe pressure (PR 6): one deterministic STeMS run per
        // workload, reporting key probes issued against the pattern
        // sequence table per simulated access — the hot-path quantity
        // the open-addressed PST targets. Not a throughput row:
        // `bench_check` must skip it (unit gating), never gate on it.
        let sys = system_config(settings.scale);
        let mut session = session_builder(w, Predictor::Stems, &sys).build();
        session.run(&trace);
        let probes = session
            .pst_probes()
            .expect("a STeMS session reports PST probes");
        out.push(Measurement {
            name: format!("pst_probes_per_access/{}", w.name()),
            value: probes as f64 / trace.len().max(1) as f64,
            unit: "probes_per_access",
        });
    }
    for (name, f) in [
        ("table1", figs::table1 as fn(Settings) -> String),
        ("fig6", figs::fig6),
        ("fig7", figs::fig7),
        ("fig8", figs::fig8),
        ("fig9", figs::fig9),
        ("fig10", figs::fig10),
        ("naive_hybrid", figs::naive_hybrid),
        ("recon_stats", figs::recon_stats),
    ] {
        let (_, secs) = time(|| f(settings.clone()));
        out.push(Measurement {
            name: format!("figure/{name}/wall"),
            value: secs,
            unit: "seconds",
        });
    }
    // Emitted only where the probe works: an absent row means "not
    // measurable here", never a zero that would pollute the trajectory.
    if let Some(kb) = peak_rss_kb() {
        out.push(Measurement {
            name: "peak_rss".to_string(),
            value: kb as f64,
            unit: "kb",
        });
    }
    out
}

/// Renders measurements as the `BENCH_harness.json` document.
pub fn to_json(settings: Settings, measurements: &[Measurement]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"scale\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \"measurements\": [\n",
        settings.scale,
        settings.seed,
        settings.effective_threads()
    ));
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {:.3}, \"unit\": \"{}\"}}{comma}\n",
            m.name, m.value, m.unit
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses a report written by [`to_json`] back into `(name, value)`
/// pairs. This is a line-oriented reader of our own fixed writer format,
/// not a general JSON parser — each measurement sits on one line as
/// `{"name": "...", "value": N, "unit": "..."}`.
pub fn parse_report(json: &str) -> Vec<(String, f64)> {
    parse_report_units(json)
        .into_iter()
        .map(|(name, value, _)| (name, value))
        .collect()
}

/// [`parse_report`] keeping each row's unit label, so a gate can decide
/// what a number *is* (a throughput, a wall-clock, a diagnostic ratio)
/// instead of guessing from its name. Rows without a parseable unit
/// report an empty label rather than being dropped.
pub fn parse_report_units(json: &str) -> Vec<(String, f64, String)> {
    fn quoted_after<'a>(line: &'a str, field: &str) -> Option<&'a str> {
        let rest = &line[line.find(field)? + field.len()..];
        let open = rest.find('"')?;
        let close = rest[open + 1..].find('"')?;
        Some(&rest[open + 1..open + 1 + close])
    }
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = quoted_after(line, "\"name\":") else {
            continue;
        };
        let Some(value_at) = line.find("\"value\":") else {
            continue;
        };
        let value_str: String = line[value_at + 8..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        let Ok(value) = value_str.parse::<f64>() else {
            continue;
        };
        let unit = quoted_after(line, "\"unit\":").unwrap_or("");
        out.push((name.to_string(), value, unit.to_string()));
    }
    out
}

/// Keeps only rows measured in `accesses_per_sec`: the regression gate's
/// input filter. Diagnostic rows (`pst_probes_per_access/...`, figure
/// wall-clocks, `peak_rss`) are skipped here rather than erroring inside
/// the gate — lower-is-better units would read a *win* as a regression.
pub fn throughput_rows(rows: &[(String, f64, String)]) -> Vec<(String, f64)> {
    rows.iter()
        .filter(|(_, _, unit)| unit == "accesses_per_sec")
        .map(|(name, value, _)| (name.clone(), *value))
        .collect()
}

/// Keeps only the `obs_overhead/...` ratio rows (unit `x`): the input
/// to `bench_check`'s absolute observability-overhead gate. Ratio rows
/// never pass [`throughput_rows`]'s unit filter — a slowdown ratio of a
/// ratio would be meaningless — so the gate extracts them separately
/// and compares each against a fixed ceiling instead of a baseline.
pub fn overhead_rows(rows: &[(String, f64, String)]) -> Vec<(String, f64)> {
    rows.iter()
        .filter(|(name, _, unit)| unit == "x" && name.starts_with("obs_overhead/"))
        .map(|(name, value, _)| (name.clone(), *value))
        .collect()
}

/// One step-throughput comparison between a baseline report and a fresh
/// run (see [`check_regressions`]).
#[derive(Clone, Debug)]
pub struct RegressionLine {
    /// Metric name (`step_throughput/...` or `batch_throughput/...`).
    pub name: String,
    /// Baseline accesses/second.
    pub baseline: f64,
    /// Current accesses/second.
    pub current: f64,
    /// `baseline / current` (>1 means slower than baseline).
    pub slowdown: f64,
    /// Whether the slowdown exceeds the allowed factor.
    pub failed: bool,
}

/// Compares every `step_throughput/` and `batch_throughput/` metric
/// present in both reports. A metric fails when the current run is more
/// than `max_slowdown`× slower than baseline — the tolerance is
/// deliberately generous (CI VMs are ±30% noisy run-to-run); the gate
/// exists to catch gross hot-path regressions, not to benchmark.
pub fn check_regressions(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    max_slowdown: f64,
) -> Vec<RegressionLine> {
    check_regressions_with(baseline, current, max_slowdown, max_slowdown)
}

/// [`check_regressions`] with an explicit (usually tighter) tolerance
/// for the STeMS rows: STeMS is the paper's headline predictor and the
/// repeated target of hot-path PRs, so its throughput gets a narrower
/// gate than the blanket order-of-magnitude tripwire — a regression that
/// quietly gives back the reconstruction-window or LRU wins should fail
/// CI even when it stays under the generic tolerance.
pub fn check_regressions_with(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    max_slowdown: f64,
    stems_max_slowdown: f64,
) -> Vec<RegressionLine> {
    let mut out = Vec::new();
    for (name, base) in baseline {
        let gated = name.starts_with("step_throughput/")
            || name.starts_with("batch_throughput/")
            || name.starts_with("trace_replay_throughput/")
            || name.starts_with("wire_replay_throughput/");
        if !gated || *base <= 0.0 {
            continue;
        }
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let allowed = if name.ends_with("/STeMS") {
            stems_max_slowdown
        } else {
            max_slowdown
        };
        let slowdown = base / cur.max(f64::MIN_POSITIVE);
        out.push(RegressionLine {
            name: name.clone(),
            baseline: *base,
            current: *cur,
            slowdown,
            failed: slowdown > allowed,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_wellformed_json_shape() {
        let settings = Settings {
            scale: 0.002,
            seed: 1,
            ..Settings::default()
        };
        let ms = vec![
            Measurement {
                name: "a/b".into(),
                value: 1.5,
                unit: "seconds",
            },
            Measurement {
                name: "c".into(),
                value: 2.0,
                unit: "kb",
            },
        ];
        let json = to_json(settings, &ms);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(!json.contains(",\n  ]"), "no trailing comma before ]");
    }

    #[test]
    fn throughput_measurement_is_positive() {
        let settings = Settings {
            scale: 0.002,
            seed: 1,
            ..Settings::default()
        };
        let trace = Workload::Db2.generate_scaled(settings.scale, settings.seed);
        let rate = step_throughput(Workload::Db2, Predictor::None, &trace, &settings, 1);
        assert!(rate > 0.0);
        let batch = batch_throughput(Workload::Db2, Predictor::None, &trace, &settings, 1);
        assert!(batch > 0.0);
    }

    #[test]
    fn peak_rss_is_absent_or_positive() {
        // The probe either works (on Linux with /proc, VmHWM is a real
        // nonzero high-water mark) or reports None; it never fabricates
        // a zero row.
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0, "VmHWM parsed as 0");
        }
    }

    #[test]
    fn parse_report_round_trips_to_json() {
        let settings = Settings {
            scale: 0.01,
            seed: 1,
            ..Settings::default()
        };
        let ms = vec![
            Measurement {
                name: "step_throughput/DB2/STeMS".into(),
                value: 1234567.891,
                unit: "accesses_per_sec",
            },
            Measurement {
                name: "figure/fig9/wall".into(),
                value: 0.25,
                unit: "seconds",
            },
        ];
        let parsed = parse_report(&to_json(settings, &ms));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "step_throughput/DB2/STeMS");
        assert!((parsed[0].1 - 1234567.891).abs() < 1e-6);
        assert!((parsed[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn non_throughput_units_are_skipped_not_gated() {
        let settings = Settings {
            scale: 0.01,
            seed: 1,
            ..Settings::default()
        };
        let ms = vec![
            Measurement {
                name: "step_throughput/DB2/STeMS".into(),
                value: 1000.0,
                unit: "accesses_per_sec",
            },
            Measurement {
                name: "pst_probes_per_access/em3d".into(),
                value: 1.75,
                unit: "probes_per_access",
            },
            Measurement {
                name: "figure/fig9/wall".into(),
                value: 0.25,
                unit: "seconds",
            },
        ];
        let rows = parse_report_units(&to_json(settings, &ms));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].2, "probes_per_access");
        let gated = throughput_rows(&rows);
        assert_eq!(gated.len(), 1, "only the throughput row survives");
        assert_eq!(gated[0].0, "step_throughput/DB2/STeMS");
        // A probe-count *improvement* (fewer probes) must never read as
        // a throughput regression: the row does not reach the gate.
        let current = vec![
            ("step_throughput/DB2/STeMS".to_string(), 900.0),
            ("pst_probes_per_access/em3d".to_string(), 1.40),
        ];
        let lines = check_regressions(&gated, &current, 2.0);
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].failed);
    }

    #[test]
    fn regression_check_flags_only_gross_slowdowns() {
        let baseline = vec![
            ("step_throughput/DB2/STeMS".to_string(), 1000.0),
            ("step_throughput/DB2/TMS".to_string(), 1000.0),
            ("batch_throughput/DB2/TMS".to_string(), 1000.0),
            ("figure/fig9/wall".to_string(), 1.0), // not a throughput: ignored
        ];
        let current = vec![
            ("step_throughput/DB2/STeMS".to_string(), 500.0), // 2.0x: within tolerance
            ("step_throughput/DB2/TMS".to_string(), 300.0),   // 3.3x: regression
            ("batch_throughput/DB2/TMS".to_string(), 200.0),  // 5x: batch rows gated too
        ];
        let lines = check_regressions(&baseline, &current, 2.5);
        assert_eq!(lines.len(), 3);
        assert!(!lines[0].failed);
        assert!(lines[1].failed);
        assert!((lines[1].slowdown - 1000.0 / 300.0).abs() < 1e-9);
        assert!(lines[2].failed, "batch_throughput rows must be gated");
    }

    #[test]
    fn trace_replay_rows_are_gated() {
        let baseline = vec![("trace_replay_throughput/DB2".to_string(), 1000.0)];
        let slow = vec![("trace_replay_throughput/DB2".to_string(), 200.0)];
        let lines = check_regressions(&baseline, &slow, 2.5);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].failed, "a 5x replay slowdown must trip the gate");
    }

    #[test]
    fn wire_replay_rows_are_gated() {
        let baseline = vec![("wire_replay_throughput/DB2".to_string(), 1000.0)];
        let slow = vec![("wire_replay_throughput/DB2".to_string(), 200.0)];
        let lines = check_regressions(&baseline, &slow, 2.5);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].failed, "a 5x wire slowdown must trip the gate");
    }

    #[test]
    fn wire_replay_throughput_round_trips_over_loopback() {
        let settings = Settings {
            scale: 0.002,
            seed: 1,
            ..Settings::default()
        };
        let trace = Workload::Db2.generate_scaled(settings.scale, settings.seed);
        let rate = wire_replay_throughput(Workload::Db2, &trace, &settings, 1);
        assert!(rate > 0.0);
    }

    #[test]
    fn trace_replay_throughput_round_trips_and_cleans_up() {
        let settings = Settings {
            scale: 0.002,
            seed: 1,
            ..Settings::default()
        };
        let trace = Workload::Db2.generate_scaled(settings.scale, settings.seed);
        let rate = trace_replay_throughput(Workload::Db2, &trace, &settings, 1);
        assert!(rate > 0.0);
        let leftover =
            std::env::temp_dir().join(format!("stems_bench_{}_db2.stems", std::process::id()));
        assert!(!leftover.exists(), "bench must remove its temp store");
    }

    #[test]
    fn stems_rows_are_gated_tighter() {
        let baseline = vec![
            ("step_throughput/DB2/STeMS".to_string(), 1000.0),
            ("batch_throughput/em3d/STeMS".to_string(), 1000.0),
            ("step_throughput/DB2/TMS".to_string(), 1000.0),
        ];
        let current = vec![
            ("step_throughput/DB2/STeMS".to_string(), 450.0), // 2.2x
            ("batch_throughput/em3d/STeMS".to_string(), 600.0), // 1.7x
            ("step_throughput/DB2/TMS".to_string(), 450.0),   // 2.2x
        ];
        // Generic tolerance 2.5x passes TMS; the 2.0x STeMS tolerance
        // fails the step row but not the batch row.
        let lines = check_regressions_with(&baseline, &current, 2.5, 2.0);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].failed, "STeMS step row must use the tight gate");
        assert!(!lines[1].failed, "1.7x is within the STeMS gate");
        assert!(!lines[2].failed, "TMS keeps the generic tolerance");
        // The uniform entry point remains a blanket gate.
        assert!(check_regressions(&baseline, &current, 2.5)
            .iter()
            .all(|l| !l.failed));
    }

    #[test]
    fn obs_overhead_is_a_positive_ratio_and_feeds_the_registry() {
        let settings = Settings {
            scale: 0.002,
            seed: 1,
            ..Settings::default()
        };
        let trace = Workload::Db2.generate_scaled(settings.scale, settings.seed);
        let registry = MetricsRegistry::new();
        let ratio = obs_overhead(
            Workload::Db2,
            Predictor::None,
            &trace,
            &settings,
            1,
            Some(&registry),
        );
        assert!(ratio.is_finite() && ratio > 0.0);
        // One rep = one hooked run: the caller's registry saw exactly
        // the trace once, proving the A/B's hooked arm really observes.
        assert_eq!(
            registry.counter("stems_accesses_total").get(),
            trace.len() as u64
        );
        assert!(registry.counter("stems_chunks_total").get() > 0);
    }

    #[test]
    fn overhead_rows_are_extracted_and_never_enter_the_throughput_gate() {
        let settings = Settings {
            scale: 0.01,
            seed: 1,
            ..Settings::default()
        };
        let ms = vec![
            Measurement {
                name: "obs_overhead/DB2".into(),
                value: 1.02,
                unit: "x",
            },
            Measurement {
                name: "step_throughput/DB2/STeMS".into(),
                value: 1000.0,
                unit: "accesses_per_sec",
            },
        ];
        let rows = parse_report_units(&to_json(settings, &ms));
        let gated = throughput_rows(&rows);
        assert_eq!(gated.len(), 1, "the ratio row must stay out of the gate");
        let overhead = overhead_rows(&rows);
        assert_eq!(overhead.len(), 1);
        assert_eq!(overhead[0].0, "obs_overhead/DB2");
        assert!((overhead[0].1 - 1.02).abs() < 1e-9);
    }

    #[test]
    fn regression_check_skips_metrics_missing_from_current() {
        let baseline = vec![("step_throughput/DB2/SMS".to_string(), 1000.0)];
        let lines = check_regressions(&baseline, &[], 2.5);
        assert!(lines.is_empty());
    }
}
