//! Ablation studies over STeMS's design parameters (the "Ablation:"
//! sections of `EXPERIMENTS.md`).
//!
//! The paper fixes one hardware point (Section 4.3); these sweeps show
//! *why* that point was chosen by varying one knob at a time on an OLTP
//! workload (temporal+spatial mix) and a DSS workload (compulsory scans):
//!
//! * **lookahead** — timeliness vs overfetch at stream ends;
//! * **stream queues** — thrash when concurrent streams contend;
//! * **SVB capacity** — how long predictions survive until consumption;
//! * **reconstruction window and ±search** — placement success vs drops;
//! * **spatial-only streams** — the only source of compulsory coverage.

use stems_core::engine::Counters;
use stems_core::{PrefetchConfig, Session};
use stems_trace::Trace;
use stems_workloads::Workload;

use crate::render::{pct, Table};
use crate::runner::{
    load_trace, parallel_map, prefetch_config, system_config, Predictor, Settings,
};

fn run_stems(
    workload: Workload,
    cfg: &PrefetchConfig,
    trace: &Trace,
    settings: &Settings,
) -> (Counters, stems_core::stems::ReconStats) {
    let mut session = Session::builder(&system_config(settings.scale))
        .prefetch(cfg)
        .predictor(Predictor::Stems)
        .invalidations(workload.invalidation_rate(), 7)
        .build();
    let counters = session.run(trace);
    let stats = session.recon_stats().expect("a STeMS session has stats");
    (counters, stats)
}

fn baseline(workload: Workload, trace: &Trace, settings: &Settings) -> u64 {
    Session::builder(&system_config(settings.scale))
        .prefetch(&prefetch_config(workload))
        .invalidations(workload.invalidation_rate(), 7)
        .run(trace)
        .uncovered
}

/// Runs every ablation sweep and renders the tables.
///
/// Every workload x config cell is independent, so they are all sharded
/// across the runner's worker threads in one flat batch; rendering then
/// consumes the results in deterministic cell order.
pub fn ablations(settings: Settings) -> String {
    const LOOKAHEADS: [usize; 4] = [2, 4, 8, 16];
    const QUEUES: [usize; 4] = [1, 2, 8, 16];
    const SVBS: [usize; 3] = [16, 64, 256];
    const RECONS: [(usize, usize); 5] = [(64, 2), (256, 0), (256, 2), (256, 4), (1024, 2)];
    const SPATIAL: [bool; 2] = [true, false];

    let workloads = [Workload::Db2, Workload::Qry2];
    let threads = settings.effective_threads();
    let traces = parallel_map(&workloads, threads, |w| load_trace(*w, &settings));
    let bases: Vec<u64> = parallel_map(&workloads, threads, |w| {
        let wi = workloads.iter().position(|x| x == w).expect("member");
        baseline(*w, &traces[wi], &settings)
    });

    // One flat cell list per (workload, sweep variant), in render order.
    let mut cells: Vec<(usize, PrefetchConfig)> = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let stock = prefetch_config(*w);
        for lookahead in LOOKAHEADS {
            cells.push((
                wi,
                PrefetchConfig {
                    lookahead,
                    ..stock.clone()
                },
            ));
        }
        for stream_queues in QUEUES {
            cells.push((
                wi,
                PrefetchConfig {
                    stream_queues,
                    ..stock.clone()
                },
            ));
        }
        for svb_entries in SVBS {
            cells.push((
                wi,
                PrefetchConfig {
                    svb_entries,
                    ..stock.clone()
                },
            ));
        }
        for (recon_entries, recon_search) in RECONS {
            cells.push((
                wi,
                PrefetchConfig {
                    recon_entries,
                    recon_search,
                    ..stock.clone()
                },
            ));
        }
        for spatial_only_streams in SPATIAL {
            cells.push((
                wi,
                PrefetchConfig {
                    spatial_only_streams,
                    ..stock.clone()
                },
            ));
        }
    }
    let results = parallel_map(&cells, threads, |(wi, cfg)| {
        run_stems(workloads[*wi], cfg, &traces[*wi], &settings)
    });
    let mut results = results.into_iter();

    let mut out = String::new();
    for (wi, workload) in workloads.iter().enumerate() {
        let base = bases[wi];

        let mut t = Table::new(
            &format!("Ablation: stream lookahead ({workload})"),
            &["lookahead", "coverage", "overprediction"],
        );
        for lookahead in LOOKAHEADS {
            let (c, _) = results.next().expect("cell order matches build order");
            t.row(vec![
                lookahead.to_string(),
                pct(c.coverage_vs(base)),
                pct(c.overprediction_vs(base)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = Table::new(
            &format!("Ablation: stream queues ({workload})"),
            &["queues", "coverage", "overprediction"],
        );
        for queues in QUEUES {
            let (c, _) = results.next().expect("cell order matches build order");
            t.row(vec![
                queues.to_string(),
                pct(c.coverage_vs(base)),
                pct(c.overprediction_vs(base)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = Table::new(
            &format!("Ablation: SVB entries ({workload})"),
            &["svb", "coverage", "overprediction"],
        );
        for svb in SVBS {
            let (c, _) = results.next().expect("cell order matches build order");
            t.row(vec![
                svb.to_string(),
                pct(c.coverage_vs(base)),
                pct(c.overprediction_vs(base)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = Table::new(
            &format!("Ablation: reconstruction window / search ({workload})"),
            &[
                "window",
                "search",
                "coverage",
                "exact placed",
                "placed <=|s|",
            ],
        );
        for (window, search) in RECONS {
            let (c, stats) = results.next().expect("cell order matches build order");
            t.row(vec![
                window.to_string(),
                search.to_string(),
                pct(c.coverage_vs(base)),
                pct(stats.exact_fraction()),
                pct(stats.placed_fraction()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = Table::new(
            &format!("Ablation: spatial-only streams ({workload})"),
            &["spatial-only", "coverage", "overprediction"],
        );
        for enabled in SPATIAL {
            let (c, _) = results.next().expect("cell order matches build order");
            t.row(vec![
                if enabled { "on" } else { "off" }.to_string(),
                pct(c.coverage_vs(base)),
                pct(c.overprediction_vs(base)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "spatial-only streams are the only source of compulsory coverage: turning them \
         off should collapse DSS coverage while barely moving OLTP's temporal part.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_trace::store::SyncPolicy;

    #[test]
    fn spatial_only_ablation_collapses_dss_coverage() {
        let settings = Settings {
            scale: 0.03,
            seed: 5,
            threads: 0,
            ..Settings::default()
        };
        let w = Workload::Qry2;
        let trace = w.generate_scaled(settings.scale, settings.seed);
        let base = baseline(w, &trace, &settings);
        let stock = prefetch_config(w);
        let (on, _) = run_stems(w, &stock, &trace, &settings);
        let off_cfg = PrefetchConfig {
            spatial_only_streams: false,
            ..stock
        };
        let (off, _) = run_stems(w, &off_cfg, &trace, &settings);
        assert!(
            off.coverage_vs(base) < 0.5 * on.coverage_vs(base),
            "DSS coverage must come from spatial-only streams: on {:.2} off {:.2}",
            on.coverage_vs(base),
            off.coverage_vs(base)
        );
    }

    #[test]
    fn zero_search_hurts_placement() {
        let settings = Settings {
            scale: 0.03,
            seed: 5,
            threads: 0,
            ..Settings::default()
        };
        let w = Workload::Db2;
        let trace = w.generate_scaled(settings.scale, settings.seed);
        let stock = prefetch_config(w);
        let (_, with_search) = run_stems(w, &stock, &trace, &settings);
        let cfg0 = PrefetchConfig {
            recon_search: 0,
            ..stock
        };
        let (_, no_search) = run_stems(w, &cfg0, &trace, &settings);
        assert!(
            with_search.placed_fraction() > no_search.placed_fraction(),
            "±2 search must place more addresses: {:.2} vs {:.2}",
            with_search.placed_fraction(),
            no_search.placed_fraction()
        );
    }

    /// `--trace-dir` replays the corpus instead of generating: over a
    /// corpus captured at seed 7, a run whose own seed is 2009 prints
    /// what a generating run at seed 7 prints.
    #[test]
    fn trace_dir_replays_the_captured_corpus() {
        let (scale, seed) = (0.002, 7);
        let dir = std::env::temp_dir().join(format!("stems_ablate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for w in [Workload::Db2, Workload::Qry2] {
            let path = dir.join(stems_workloads::trace_file_name(w));
            stems_workloads::capture_to_path(w, scale, seed, path, SyncPolicy::Never)
                .expect("capture");
        }
        let generated = ablations(Settings {
            scale,
            seed,
            ..Settings::default()
        });
        let replayed = ablations(Settings {
            scale,
            seed: 2009,
            trace_dir: Some(dir.to_string_lossy().into()),
            ..Settings::default()
        });
        std::fs::remove_dir_all(&dir).expect("remove corpus dir");
        assert_eq!(replayed, generated);
    }
}
