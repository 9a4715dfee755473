//! Shared building blocks for the synthetic workload generators.
//!
//! All generators express their memory behaviour as a stream of *visits*
//! — one spatial-region episode each (a page touched by a transaction
//! step, a grid tile of a sweep, a graph node...). A [`Visits`] batch
//! holds them back to back, each visit a span of one access array. The
//! [`Interleaver`] drains a batch into a single global access order with
//! bounded overlap, reproducing the paper's observation that several
//! spatial generations are live at once with their accesses interleaved
//! (Section 3.1). A drained batch keeps its capacity for the generator's
//! next execution or sweep, so synthesis allocates nothing per visit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stems_trace::{Access, AccessKind, Dependence, Trace};
use stems_types::hash::splitmix64;
use stems_types::{Addr, BlockOffset, Pc, RegionAddr};

/// One access within a visit.
#[derive(Clone, Copy, Debug)]
pub struct VisitAccess {
    /// Block offset within the visit's region.
    pub offset: u8,
    /// PC of the access instruction.
    pub pc: u64,
    /// Store instead of load.
    pub write: bool,
    /// Non-memory instructions preceding this access.
    pub work: u16,
}

/// One visit of a [`Visits`] batch: its region and its accesses'
/// positions in the batch's access array. A live visit in the
/// [`Interleaver`] is the span of its accesses not yet emitted.
#[derive(Clone, Copy, Debug)]
struct Span {
    region: RegionAddr,
    start: usize,
    end: usize,
    /// Whether the span's first access depends on the previous access.
    dependent: bool,
}

/// A batch of visits in intended order, stored as spans of one shared
/// access array. [`Interleaver::drain`] empties it and keeps its
/// capacity, so a generator reuses one batch for every execution or
/// sweep.
#[derive(Clone, Debug, Default)]
pub struct Visits {
    accesses: Vec<VisitAccess>,
    spans: Vec<Span>,
}

impl Visits {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Visits::default()
    }

    /// Creates an empty batch with room for `visits` visits of
    /// `accesses` accesses in all.
    pub fn with_capacity(visits: usize, accesses: usize) -> Self {
        Visits {
            accesses: Vec::with_capacity(accesses),
            spans: Vec::with_capacity(visits),
        }
    }

    /// Appends a visit to `region` whose accesses come in intended order
    /// (offsets may repeat blocks). A `dependent` visit's first access
    /// depends on the previous access (pointer chase: the region's
    /// address was loaded from memory).
    pub fn push(
        &mut self,
        region: RegionAddr,
        dependent: bool,
        accesses: impl IntoIterator<Item = VisitAccess>,
    ) {
        let start = self.accesses.len();
        self.accesses.extend(accesses);
        self.spans.push(Span {
            region,
            start,
            end: self.accesses.len(),
            dependent,
        });
    }
}

/// Deterministically scatters an index over a region space of
/// `space_regions`, so logically consecutive entities live at unrelated
/// physical regions (buffer-pool page placement, Section 3).
pub fn scatter(index: u64, salt: u64, space_regions: u64) -> RegionAddr {
    RegionAddr::new(splitmix64(index.wrapping_add(salt.wrapping_mul(0x9E37_79B9))) % space_regions)
}

/// Merges a visit batch into a trace with up to `window` visits live at
/// once. Each step, the front visit continues with probability
/// `1 - mix`; otherwise a later live visit advances, interleaving the
/// generations. `window == 1` preserves visit order exactly.
pub struct Interleaver {
    window: usize,
    /// Probability of deferring to a later live visit at each step.
    mix: f64,
    /// The live visits, oldest first. Empty between calls; kept so its
    /// capacity is reused.
    live: Vec<Span>,
}

impl Interleaver {
    /// Creates an interleaver with `window` live visits and `mix`
    /// interleave probability.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize, mix: f64) -> Self {
        assert!(window > 0, "interleave window must be nonzero");
        Interleaver {
            window,
            mix,
            live: Vec::with_capacity(window),
        }
    }

    /// Emits every visit of `visits` into `trace`, in order with up to
    /// `window` of them live at once, and leaves `visits` empty.
    pub fn drain(&mut self, visits: &mut Visits, rng: &mut StdRng, trace: &mut Trace) {
        let mut source = visits.spans.iter();
        loop {
            while self.live.len() < self.window {
                match source.next() {
                    Some(&s) if s.start < s.end => self.live.push(s),
                    Some(_) => continue,
                    None => break,
                }
            }
            if self.live.is_empty() {
                break;
            }
            // Pick which live visit advances: geometric preference for the
            // oldest so global order roughly follows visit order.
            let mut idx = 0;
            while idx + 1 < self.live.len() && rng.gen_bool(self.mix) {
                idx += 1;
            }
            let visit = &mut self.live[idx];
            let acc = visits.accesses[visit.start];
            let dep = if visit.dependent {
                Dependence::OnPrevAccess
            } else {
                Dependence::Independent
            };
            let addr = Addr::new(
                visit
                    .region
                    .block_at(BlockOffset::new(acc.offset))
                    .base()
                    .get(),
            );
            trace.push(Access {
                pc: Pc::new(acc.pc),
                addr,
                kind: if acc.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                dep,
                work_before: acc.work,
            });
            visit.dependent = false;
            visit.start += 1;
            if visit.start == visit.end {
                self.live.remove(idx);
            }
        }
        visits.accesses.clear();
        visits.spans.clear();
    }
}

/// Creates the deterministic RNG used by every generator.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(visits: &mut Visits, region: u64, n: u8, dependent: bool) {
        visits.push(
            RegionAddr::new(region),
            dependent,
            (0..n).map(|o| VisitAccess {
                offset: o,
                pc: 0x400 + o as u64,
                write: false,
                work: 3,
            }),
        );
    }

    #[test]
    fn window_one_preserves_order() {
        let mut t = Trace::new();
        let mut r = rng(1);
        let mut visits = Visits::new();
        visit(&mut visits, 1, 3, false);
        visit(&mut visits, 2, 2, false);
        let mut interleaver = Interleaver::new(1, 0.5);
        interleaver.drain(&mut visits, &mut r, &mut t);
        let regions: Vec<u64> = t.iter().map(|a| a.addr.region().get()).collect();
        assert_eq!(regions, [1, 1, 1, 2, 2]);
        // The batch is empty afterwards: draining it again emits nothing.
        interleaver.drain(&mut visits, &mut r, &mut t);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn interleaving_mixes_but_preserves_within_region_order() {
        let mut t = Trace::new();
        let mut r = rng(7);
        let mut visits = Visits::new();
        for i in 0..20 {
            visit(&mut visits, i, 4, false);
        }
        Interleaver::new(3, 0.5).drain(&mut visits, &mut r, &mut t);
        assert_eq!(t.len(), 80);
        // Within each region the offsets must appear in order.
        use std::collections::HashMap;
        let mut last: HashMap<u64, u64> = HashMap::new();
        let mut interleaved = false;
        let mut prev_region = u64::MAX;
        for a in t.iter() {
            let region = a.addr.region().get();
            let off = a.addr.block().offset_in_region().get() as u64;
            if let Some(&l) = last.get(&region) {
                assert!(off > l, "within-visit order violated");
            }
            last.insert(region, off);
            if prev_region != u64::MAX && region != prev_region && last.contains_key(&region) {
                interleaved = true;
            }
            prev_region = region;
        }
        assert!(interleaved, "expected some interleaving at window 3");
    }

    #[test]
    fn dependence_marks_only_first_access_of_chained_visit() {
        let mut t = Trace::new();
        let mut r = rng(3);
        let mut visits = Visits::new();
        visit(&mut visits, 5, 3, true);
        Interleaver::new(1, 0.0).drain(&mut visits, &mut r, &mut t);
        let deps: Vec<Dependence> = t.iter().map(|a| a.dep).collect();
        assert_eq!(
            deps,
            [
                Dependence::OnPrevAccess,
                Dependence::Independent,
                Dependence::Independent
            ]
        );
    }

    #[test]
    fn scatter_is_deterministic_and_in_range() {
        let a = scatter(42, 7, 1000);
        let b = scatter(42, 7, 1000);
        assert_eq!(a, b);
        for i in 0..100 {
            assert!(scatter(i, 3, 64).get() < 64);
        }
    }

    #[test]
    fn empty_visits_are_skipped() {
        let mut t = Trace::new();
        let mut r = rng(1);
        let mut visits = Visits::new();
        visit(&mut visits, 1, 0, true);
        visit(&mut visits, 2, 2, false);
        Interleaver::new(2, 0.3).drain(&mut visits, &mut r, &mut t);
        assert_eq!(t.len(), 2);
        assert_eq!(t.as_slice()[0].dep, Dependence::Independent);
    }
}
