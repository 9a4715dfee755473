//! Capture path: generate a workload trace and persist it to the
//! chunked trace store (`stems_trace::store`).
//!
//! The paper's methodology is capture-once, analyze-many (Section 5.1):
//! FLEXUS collects each application's access trace once and every
//! predictor study replays it. This module is our equivalent for the
//! synthetic generators — `tracegen capture` persists a workload at a
//! chosen scale/seed, and the harness replays the file instead of
//! regenerating, so figure runs are decoupled from generator cost and a
//! captured corpus doubles as a regression fixture.

use std::path::Path;

use stems_trace::store::{StoreSink, StoreSummary, SyncPolicy, TraceStoreError, TraceWriter};

use crate::Workload;

/// Canonical file name for a workload's captured trace inside a corpus
/// directory: the lower-cased display name with a `.stems` extension
/// (`db2.stems`, `qry16.stems`, ...). `tracegen capture-all` writes
/// these names and the harness's `--trace-dir` replay looks them up.
pub fn trace_file_name(workload: Workload) -> String {
    format!("{}.stems", workload.name().to_ascii_lowercase())
}

/// Generates `workload` at `(scale, seed)` and streams it into an
/// already-configured [`TraceWriter`] in frame-sized chunks. The writer
/// is *not* finished — callers batch several captures into one sink or
/// apply their own [`SyncPolicy`] before finishing.
pub fn capture_into<W: StoreSink>(
    workload: Workload,
    scale: f64,
    seed: u64,
    writer: &mut TraceWriter<W>,
) -> Result<u64, TraceStoreError> {
    let trace = workload.generate_scaled(scale, seed);
    writer.write_accesses(trace.as_slice())?;
    Ok(trace.len() as u64)
}

/// Generates `workload` at `(scale, seed)` and persists it to `path`
/// with `sync` durability, returning the store totals.
pub fn capture_to_path<P: AsRef<Path>>(
    workload: Workload,
    scale: f64,
    seed: u64,
    path: P,
    sync: SyncPolicy,
) -> Result<StoreSummary, TraceStoreError> {
    let mut writer = TraceWriter::create(path)?.with_sync_policy(sync);
    capture_into(workload, scale, seed, &mut writer)?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_trace::store::{read_store, TraceWriter};

    #[test]
    fn capture_round_trips_the_generated_trace() {
        let w = Workload::Qry2;
        let expected = w.generate_scaled(0.004, 11);
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap().with_frame_capacity(256);
        let n = capture_into(w, 0.004, 11, &mut writer).unwrap();
        let summary = writer.finish().unwrap();
        drop(writer);
        assert_eq!(n, expected.len() as u64);
        assert_eq!(summary.records, n);
        assert_eq!(read_store(buf.as_slice()).unwrap(), expected);
    }

    #[test]
    fn file_names_are_stable_and_collision_free() {
        let names: std::collections::HashSet<String> =
            Workload::all().into_iter().map(trace_file_name).collect();
        assert_eq!(names.len(), Workload::all().len());
        assert!(names.contains("db2.stems"));
        assert!(names.contains("qry16.stems"));
    }
}
