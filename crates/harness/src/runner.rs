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
    /// The flags every experiment binary takes, each followed by a value.
    const FLAGS: [Flag; 4] = [
        Flag::Value("--scale"),
        Flag::Value("--seed"),
        Flag::Value("--threads"),
        Flag::Value("--trace-dir"),
    ];

    /// Parses the process arguments against the four shared flags with
    /// [`Args::parse`]; an unknown flag, a stray argument, or a missing or
    /// malformed value is reported on stderr and exits the process with
    /// status 2.
    pub fn from_env() -> Self {
        Args::parse(std::env::args().skip(1), &Settings::FLAGS)
            .map(|args| args.settings)
            .unwrap_or_else(|e| {
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

/// One flag a binary accepts: a `Value` flag takes the next argument as
/// its value, a `Switch` stands alone.
#[derive(Clone, Copy, Debug)]
pub enum Flag {
    /// `--name <value>`.
    Value(&'static str),
    /// `--name`.
    Switch(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Value(name) | Flag::Switch(name) => name,
        }
    }
}

/// An argument list parsed against a binary's flag table: the shared
/// [`Settings`] and the caller's own flags, as given.
#[derive(Debug)]
pub struct Args {
    /// `--scale`, `--seed`, `--threads` and `--trace-dir` where the table
    /// lists them; the defaults otherwise.
    pub settings: Settings,
    /// Every other flag given, in order, with its value (`None` for a
    /// switch).
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `args` against `flags`, every flag the caller accepts. Each
    /// argument must be a flag of the table, and a `Value` flag must be
    /// followed by a value that is not itself a flag. An unknown flag, a
    /// stray argument, a missing value, or a malformed shared setting
    /// (`--scale` must be a positive finite number) is an error naming it,
    /// so a typo'd flag never runs with the default. The caller reads its
    /// own flags with [`Args::value`] and [`Args::switch`].
    pub fn parse(args: impl IntoIterator<Item = String>, flags: &[Flag]) -> Result<Args, String> {
        let mut parsed = Args {
            settings: Settings::default(),
            given: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&flag) = flags.iter().find(|f| f.name() == arg) else {
                return Err(if !arg.starts_with("--") {
                    format!("unexpected argument {arg:?}")
                } else if flags.is_empty() {
                    format!("{arg}: unknown flag (this command takes none)")
                } else {
                    let known: Vec<&str> = flags.iter().map(|f| f.name()).collect();
                    format!("{arg}: unknown flag (expected one of {})", known.join(", "))
                });
            };
            let Flag::Value(name) = flag else {
                parsed.given.push((flag.name(), None));
                continue;
            };
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{name} needs a value"))?;
            let s = &mut parsed.settings;
            match name {
                "--scale" => {
                    s.scale = parse_value(name, &value)?;
                    if !(s.scale.is_finite() && s.scale > 0.0) {
                        return Err(format!("--scale must be positive, got {}", s.scale));
                    }
                }
                "--seed" => s.seed = parse_value(name, &value)?,
                "--threads" => s.threads = parse_value(name, &value)?,
                "--trace-dir" => s.trace_dir = Some(std::sync::Arc::from(value)),
                _ => parsed.given.push((name, Some(value))),
            }
        }
        Ok(parsed)
    }

    /// The value given for `flag` (the last one, if repeated) parsed as
    /// `T`, or `None` when it was not given; a value that does not parse
    /// is an error naming the flag.
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.given
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| value.as_deref())
            .map(|value| parse_value(flag, value))
            .transpose()
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
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
fn generate_traces(settings: Settings) -> Vec<(Workload, Trace)> {
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

    /// Parses a space-separated argument line against `flags`.
    fn parse(line: &str, flags: &[Flag]) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from), flags)
    }

    /// Each line must be rejected with an error naming what is wrong.
    fn assert_rejected(flags: &[Flag], rejected: &[(&str, &str)]) {
        for (line, named) in rejected {
            let err = parse(line, flags).expect_err(&format!("{line} must be rejected"));
            assert!(err.contains(named), "{line}: error names {named}: {err}");
        }
    }

    #[test]
    fn settings_parse() {
        let settings = |scale, seed, threads, dir: Option<&str>| Settings {
            scale,
            seed,
            threads,
            trace_dir: dir.map(Into::into),
        };
        let accepted = [
            ("", Settings::default()),
            (
                "--scale 0.25 --seed 7 --threads 3 --trace-dir corpus",
                settings(0.25, 7, 3, Some("corpus")),
            ),
            (
                "--trace-dir /tmp/corpus --threads 0",
                settings(1.0, 2009, 0, Some("/tmp/corpus")),
            ),
            ("--scale 1e-3", settings(0.001, 2009, 0, None)),
            // The last of a repeated flag wins.
            ("--seed 1 --seed 2", settings(1.0, 2, 0, None)),
        ];
        for (line, want) in accepted {
            assert_eq!(
                parse(line, &Settings::FLAGS).map(|a| a.settings),
                Ok(want),
                "{line}"
            );
        }
        // Each rejection names the flag or argument at fault, so a typo
        // never runs with the default.
        assert_rejected(
            &Settings::FLAGS,
            &[
                ("--scale banana", "--scale"),
                ("--scale", "--scale"),
                ("--scale 0", "--scale"),
                ("--scale -1", "--scale"),
                ("--scale nan", "--scale"),
                ("--scale inf", "--scale"),
                ("--seed -3", "--seed"),
                ("--seed 7.5", "--seed"),
                ("--threads two", "--threads"),
                ("--threads --seed 7", "--threads"),
                ("--trace-dir", "--trace-dir"),
                ("--seed 1 --trace-dir --scale 0.1", "--trace-dir"),
                ("--scale banana --scale 0.1", "--scale"),
                ("--scale 0.05 --junk", "--junk"),
                ("--scale 0.25 --seed 7 --threads 3 --junk", "--junk"),
                ("--window 8 --seed 1 positional --retry", "--window"),
                ("--sacle 0.05", "--sacle"),
                ("--help", "--help"),
                ("--seeds 3", "--seeds"),
                ("0.05", "\"0.05\""),
                ("--scale 0.05 stray", "\"stray\""),
            ],
        );
        let three = parse("--threads 3", &Settings::FLAGS).unwrap().settings;
        assert_eq!(three.effective_threads(), 3);
        assert!(Settings::default().effective_threads() >= 1);
    }

    #[test]
    fn args_read_the_callers_own_flags() {
        // The shared flags plus the caller's own, as `fig10_ci` passes them.
        let extra = [Flag::Value("--seeds"), Flag::Switch("--retry")];
        let flags = [Settings::FLAGS.as_slice(), &extra].concat();
        let args = parse("--seeds 5 --seed 1 --retry --seeds 6", &flags).unwrap();
        assert_eq!((args.settings.seed, args.settings.scale), (1, 1.0));
        assert_eq!(args.value::<usize>("--seeds"), Ok(Some(6)));
        assert!(args.switch("--retry"));
        let none = parse("", &flags).unwrap();
        assert_eq!(none.value::<usize>("--seeds"), Ok(None));
        assert!(!none.switch("--retry"));
        // The caller checks its own flags' values.
        let banana = parse("--seeds banana", &flags).unwrap();
        assert_eq!(banana.settings, Settings::default());
        let err = banana.value::<usize>("--seeds").unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        assert_rejected(
            &flags,
            &[
                ("--seeds", "--seeds"),
                ("--seeds --scale 0.1", "--seeds"),
                // A switch takes no value.
                ("--retry 5", "\"5\""),
            ],
        );
        // A table that leaves the shared flags out rejects them, as
        // `tracegen metrics`'s does; an empty table rejects every flag.
        assert_rejected(
            &[Flag::Value("--remote"), Flag::Switch("--events")],
            &[
                ("--scale 1", "--scale"),
                ("--seed 1", "--seed"),
                ("--threads 1", "--threads"),
                ("--trace-dir d", "--trace-dir"),
            ],
        );
        assert_rejected(&[], &[("--events", "--events")]);
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
    fn replay_coverage_matches_the_in_memory_run() {
        let trace = Workload::Db2.generate_scaled(0.002, 1);
        let sys = system_config(0.002);
        let path =
            std::env::temp_dir().join(format!("stems_runner_{}_db2.stems", std::process::id()));
        let mut writer = stems_trace::TraceWriter::create(&path).expect("create temp store");
        writer
            .write_accesses(trace.as_slice())
            .and_then(|_| writer.finish())
            .expect("write temp store");
        drop(writer);
        for p in Predictor::all() {
            let (replayed, fed) =
                replay_coverage(Workload::Db2, p, &path, &sys).expect("replay temp store");
            assert_eq!(fed, trace.len() as u64, "{p} replay feeds the whole trace");
            assert_eq!(
                replayed,
                run_coverage(Workload::Db2, p, &trace, &sys),
                "{p} replayed counters equal the in-memory run's"
            );
        }
        std::fs::remove_file(&path).expect("remove temp store");
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
