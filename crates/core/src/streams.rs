//! Stream queues: the throttled streaming engine shared by TMS and STeMS.
//!
//! Section 4.3: eight stream queues, victimized LRU-by-activity when a new
//! stream is allocated; per-stream *lookahead* bounds the number of blocks
//! kept fetched in the SVB ahead of consumption; "to reduce erroneously
//! fetched blocks due to invalid streams, only a single block is fetched at
//! the beginning of a new stream" — once that block is consumed, the stream
//! is confirmed and streams at full lookahead. When a queue's pending
//! addresses run low, the prefetcher's history source is asked to produce
//! more (further CMOB entries for TMS, resumed reconstruction for STeMS).

use std::collections::VecDeque;

use stems_types::BlockAddr;

use crate::engine::{PrefetchSink, StreamTag};
use crate::PrefetchConfig;

/// Refill callback: asked to append up to `n` more predicted addresses
/// from the stream's history source directly onto the queue's pending
/// deque (no intermediate allocation); returning 0 marks the source
/// exhausted. A refill must only *append* — the queues maintain an
/// incremental membership summary over pending blocks and account for
/// exactly the tail the callback added.
pub type RefillFn<'a, S> = &'a mut dyn FnMut(&mut S, usize, &mut VecDeque<BlockAddr>) -> usize;

/// Number of counting buckets in a [`Membership`] summary. 64 buckets
/// fit the reject test in one `u64` bit mask.
const FILTER_BUCKETS: usize = 64;

/// A compact counting fingerprint over a queue's pending blocks.
///
/// `catch_up` runs on every off-chip miss from both TMS and STeMS; most
/// queues cannot contain the missed block, so a one-word bit test filters
/// them out before the bounded linear scan. Counts (rather than bare
/// bits) make removal exact under pops and drains, so the summary never
/// goes stale: a clear bucket bit *proves* absence, while a set bit only
/// means "maybe present" (hash collisions, or entries beyond the scan
/// depth) and falls through to the scan — behavior is byte-identical to
/// the unfiltered search.
#[derive(Clone, Debug)]
struct Membership {
    counts: [u32; FILTER_BUCKETS],
    /// Bit `b` set iff `counts[b] > 0`.
    bits: u64,
}

impl Default for Membership {
    fn default() -> Self {
        Membership {
            counts: [0; FILTER_BUCKETS],
            bits: 0,
        }
    }
}

impl Membership {
    /// Fibonacci-hash bucket: the top 6 bits of a golden-ratio multiply
    /// spread sequential block addresses across buckets.
    fn bucket(block: BlockAddr) -> usize {
        (block.get().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
    }

    fn add(&mut self, block: BlockAddr) {
        let b = Self::bucket(block);
        self.counts[b] += 1;
        self.bits |= 1 << b;
    }

    fn remove(&mut self, block: BlockAddr) {
        let b = Self::bucket(block);
        debug_assert!(self.counts[b] > 0, "membership filter underflow");
        self.counts[b] -= 1;
        if self.counts[b] == 0 {
            self.bits &= !(1 << b);
        }
    }

    fn clear(&mut self) {
        self.counts = [0; FILTER_BUCKETS];
        self.bits = 0;
    }

    /// The one-bit test mask for `block`'s bucket: `bits & mask != 0`
    /// means the block *may* be among the summarized pending entries, a
    /// zero result is definitive absence. The hash-and-shift is a
    /// function of the block alone, so a caller testing the same block
    /// against several queues' summaries ([`StreamQueues::catch_up`])
    /// computes it once and tests one AND per queue.
    fn bucket_mask(block: BlockAddr) -> u64 {
        1 << Self::bucket(block)
    }
}

#[derive(Clone, Debug)]
struct Queue<S> {
    source: Option<S>,
    pending: VecDeque<BlockAddr>,
    /// Incremental summary of `pending` (see [`Membership`]).
    filter: Membership,
    inflight: usize,
    confirmed: bool,
    exhausted: bool,
    last_active: u64,
}

impl<S> Default for Queue<S> {
    fn default() -> Self {
        Queue {
            source: None,
            pending: VecDeque::new(),
            filter: Membership::default(),
            inflight: 0,
            confirmed: false,
            exhausted: true,
            last_active: 0,
        }
    }
}

impl<S> Queue<S> {
    /// Runs `refill` on this queue's pending deque and accounts the
    /// appended tail into the membership summary.
    fn refill_pending(&mut self, refill: RefillFn<'_, S>, n: usize) -> usize {
        let Some(source) = self.source.as_mut() else {
            return 0;
        };
        let before = self.pending.len();
        let appended = refill(source, n, &mut self.pending);
        debug_assert!(
            self.pending.len() == before + appended,
            "refill must only append to the pending deque"
        );
        for i in before..self.pending.len() {
            self.filter.add(self.pending[i]);
        }
        appended
    }

    /// Pops the front pending block, keeping the summary in sync.
    fn pop_pending(&mut self) -> Option<BlockAddr> {
        let block = self.pending.pop_front()?;
        self.filter.remove(block);
        Some(block)
    }
}

/// The set of stream queues, generic over the history-source state `S`
/// carried per stream.
#[derive(Clone, Debug)]
pub struct StreamQueues<S> {
    queues: Vec<Queue<S>>,
    lookahead: usize,
    refill_threshold: usize,
    refill_chunk: usize,
    clock: u64,
    streams_started: u64,
}

impl<S> StreamQueues<S> {
    /// Creates the queues from the prefetcher configuration.
    pub fn new(cfg: &PrefetchConfig) -> Self {
        assert!(cfg.stream_queues > 0, "need at least one stream queue");
        StreamQueues {
            queues: (0..cfg.stream_queues).map(|_| Queue::default()).collect(),
            lookahead: cfg.lookahead,
            refill_threshold: cfg.refill_threshold,
            refill_chunk: cfg.refill_chunk,
            clock: 0,
            streams_started: 0,
        }
    }

    /// Total streams ever allocated.
    pub fn streams_started(&self) -> u64 {
        self.streams_started
    }

    /// Number of queues currently holding a live stream.
    pub fn active_streams(&self) -> usize {
        self.queues
            .iter()
            .filter(|q| q.source.is_some() || !q.pending.is_empty() || q.inflight > 0)
            .count()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The bounded linear scan `catch_up` falls back to once the
    /// membership filter admits a queue: position of `block` within the
    /// first [`Self::SEARCH_DEPTH`] pending entries, scanning the deque's
    /// two contiguous halves directly — slice scans of u64 newtypes
    /// vectorize where the VecDeque iterator does not.
    fn scan_pending(pending: &VecDeque<BlockAddr>, block: BlockAddr) -> Option<usize> {
        let (front, back) = pending.as_slices();
        let front_take = front.len().min(Self::SEARCH_DEPTH);
        front[..front_take]
            .iter()
            .position(|&b| b == block)
            .or_else(|| {
                let back_take = back.len().min(Self::SEARCH_DEPTH - front_take);
                back[..back_take]
                    .iter()
                    .position(|&b| b == block)
                    .map(|k| front_take + k)
            })
    }

    /// How deep into each queue's pending entries `catch_up` searches.
    const SEARCH_DEPTH: usize = 64;

    fn victim(&self) -> usize {
        // Prefer a fully idle queue; otherwise LRU by activity.
        self.queues
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| {
                let idle = q.source.is_none() && q.pending.is_empty() && q.inflight == 0;
                (!idle as u64, q.last_active)
            })
            .map(|(i, _)| i)
            .expect("at least one queue")
    }

    /// Allocates a queue for a new stream with history source `source`,
    /// flushing the victim queue's unconsumed SVB blocks. Fetches a single
    /// block (new streams are unconfirmed).
    ///
    /// Returns the tag and the victim queue's retired source (if it still
    /// had one), so the caller can recycle its allocations — STeMS pools
    /// `Reconstructor` buffers across stream starts this way.
    pub fn start(
        &mut self,
        source: S,
        sink: &mut dyn PrefetchSink,
        refill: RefillFn<'_, S>,
    ) -> (StreamTag, Option<S>) {
        let idx = self.victim();
        let tag = StreamTag(idx as u8);
        sink.flush_stream(tag);
        let now = self.tick();
        // Reset the victim queue in place: `pending` keeps its buffer, so
        // steady-state stream churn performs no allocation.
        let q = &mut self.queues[idx];
        let retired = q.source.replace(source);
        q.pending.clear();
        q.filter.clear();
        q.inflight = 0;
        q.confirmed = false;
        q.exhausted = false;
        q.last_active = now;
        self.streams_started += 1;
        self.pump(tag, sink, refill);
        (tag, retired)
    }

    /// Notification that a block of stream `tag` was consumed from the SVB:
    /// confirms the stream and streams further blocks up to the lookahead.
    pub fn on_consumed(
        &mut self,
        tag: StreamTag,
        sink: &mut dyn PrefetchSink,
        refill: RefillFn<'_, S>,
    ) {
        let Some(q) = self.queues.get_mut(tag.0 as usize) else {
            return;
        };
        q.inflight = q.inflight.saturating_sub(1);
        q.confirmed = true;
        let now = self.tick();
        self.queues[tag.0 as usize].last_active = now;
        self.pump(tag, sink, refill);
    }

    /// If `block` is among the upcoming pending addresses of a live
    /// stream, the demand stream caught up with (or slightly overran) the
    /// prediction: fast-forward that stream past the block, confirm it,
    /// and pump. Returns the stream's tag, or `None` if no stream had the
    /// block queued — avoiding the flush-and-restart thrash of
    /// re-initiating a stream that is already being followed.
    pub fn catch_up(
        &mut self,
        block: BlockAddr,
        sink: &mut dyn PrefetchSink,
        refill: RefillFn<'_, S>,
    ) -> Option<StreamTag> {
        // Cost model: this runs on every off-chip miss from TMS and
        // STeMS, over Q queues (8 at paper scale). The filter mask below
        // is a function of the block alone — loop-invariant across the
        // queues — so the hash-and-shift is hoisted out and each queue
        // pays one AND-test word load. Only queues whose summary admits
        // the block (hash collisions included) fall through to the
        // bounded SEARCH_DEPTH-entry scan, so the expected per-miss cost
        // is Q bit tests plus at most a handful of short slice scans,
        // never Q full scans.
        let mask = Membership::bucket_mask(block);
        let mut found = None;
        for (i, q) in self.queues.iter().enumerate() {
            // One-word reject: most queues provably do not hold the block,
            // so the bounded scan below runs only on candidate queues.
            if q.filter.bits & mask == 0 {
                continue;
            }
            if let Some(k) = Self::scan_pending(&q.pending, block) {
                found = Some((i, k));
                break;
            }
        }
        let (i, k) = found?;
        let q = &mut self.queues[i];
        {
            let Queue {
                pending, filter, ..
            } = q;
            for b in pending.drain(..=k) {
                filter.remove(b);
            }
        }
        q.confirmed = true;
        let now = self.tick();
        self.queues[i].last_active = now;
        let tag = StreamTag(i as u8);
        self.pump(tag, sink, refill);
        Some(tag)
    }

    /// Notification that a block of stream `tag` left the SVB unconsumed.
    pub fn on_svb_evicted(&mut self, tag: StreamTag) {
        if let Some(q) = self.queues.get_mut(tag.0 as usize) {
            q.inflight = q.inflight.saturating_sub(1);
        }
    }

    /// Issues fetches for `tag` until its in-SVB depth reaches the target
    /// (1 unconfirmed / lookahead confirmed), pulling more addresses from
    /// the source as pending runs low. Bounded work per call.
    fn pump(&mut self, tag: StreamTag, sink: &mut dyn PrefetchSink, refill: RefillFn<'_, S>) {
        let idx = tag.0 as usize;
        let target = {
            let q = &self.queues[idx];
            if q.confirmed {
                self.lookahead
            } else {
                1
            }
        };
        let mut attempts = self.lookahead * 4 + 8;
        loop {
            let q = &mut self.queues[idx];
            if q.inflight >= target || attempts == 0 {
                break;
            }
            if q.pending.is_empty() {
                if q.exhausted || q.source.is_none() {
                    break;
                }
                if q.refill_pending(refill, self.refill_chunk) == 0 {
                    q.exhausted = true;
                    break;
                }
            }
            let block = q.pop_pending().expect("pending nonempty");
            attempts -= 1;
            if sink.fetch_svb(block, tag) {
                q.inflight += 1;
            }
        }
        // Top up pending so the next consumption can stream immediately.
        let q = &mut self.queues[idx];
        if !q.exhausted
            && q.source.is_some()
            && q.pending.len() < self.refill_threshold
            && q.refill_pending(refill, self.refill_chunk) == 0
        {
            q.exhausted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A sink that accepts every fetch and records it.
    #[derive(Default)]
    struct RecordingSink {
        fetched: Vec<(BlockAddr, StreamTag)>,
        flushed: Vec<StreamTag>,
        resident: HashSet<u64>,
    }

    impl PrefetchSink for RecordingSink {
        fn fetch_svb(&mut self, block: BlockAddr, tag: StreamTag) -> bool {
            if self.resident.contains(&block.get()) {
                return false;
            }
            self.fetched.push((block, tag));
            true
        }
        fn fetch_l1(&mut self, _block: BlockAddr) -> bool {
            true
        }
        fn flush_stream(&mut self, tag: StreamTag) {
            self.flushed.push(tag);
        }
    }

    /// Source producing blocks `start..start+len`.
    struct Counting {
        next: u64,
        end: u64,
    }

    fn refill(c: &mut Counting, n: usize, out: &mut VecDeque<BlockAddr>) -> usize {
        let mut appended = 0;
        while c.next < c.end && appended < n {
            out.push_back(BlockAddr::new(c.next));
            c.next += 1;
            appended += 1;
        }
        appended
    }

    fn cfg() -> PrefetchConfig {
        PrefetchConfig {
            stream_queues: 2,
            lookahead: 4,
            refill_threshold: 2,
            refill_chunk: 4,
            ..PrefetchConfig::small()
        }
    }

    #[test]
    fn new_stream_fetches_single_block() {
        let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg());
        let mut sink = RecordingSink::default();
        qs.start(Counting { next: 0, end: 100 }, &mut sink, &mut refill);
        assert_eq!(sink.fetched.len(), 1);
        assert_eq!(sink.fetched[0].0, BlockAddr::new(0));
    }

    #[test]
    fn confirmation_opens_lookahead() {
        let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg());
        let mut sink = RecordingSink::default();
        let tag = qs
            .start(Counting { next: 0, end: 100 }, &mut sink, &mut refill)
            .0;
        qs.on_consumed(tag, &mut sink, &mut refill);
        // After consuming the probe block, the stream fills to lookahead=4.
        assert_eq!(sink.fetched.len(), 1 + 4);
    }

    #[test]
    fn exhausted_source_stops_stream() {
        let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg());
        let mut sink = RecordingSink::default();
        let tag = qs
            .start(Counting { next: 0, end: 2 }, &mut sink, &mut refill)
            .0;
        qs.on_consumed(tag, &mut sink, &mut refill);
        qs.on_consumed(tag, &mut sink, &mut refill);
        qs.on_consumed(tag, &mut sink, &mut refill);
        assert_eq!(sink.fetched.len(), 2); // only two addresses existed
    }

    #[test]
    fn victim_is_lru_and_flushed() {
        let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg());
        let mut sink = RecordingSink::default();
        let t0 = qs
            .start(Counting { next: 0, end: 10 }, &mut sink, &mut refill)
            .0;
        let t1 = qs
            .start(
                Counting {
                    next: 100,
                    end: 110,
                },
                &mut sink,
                &mut refill,
            )
            .0;
        assert_ne!(t0, t1);
        // Touch t0 so t1 becomes LRU.
        qs.on_consumed(t0, &mut sink, &mut refill);
        sink.flushed.clear();
        let (t2, retired) = qs.start(
            Counting {
                next: 200,
                end: 210,
            },
            &mut sink,
            &mut refill,
        );
        assert_eq!(t2, t1, "LRU stream should be victimized");
        assert!(retired.is_some(), "victim's source is handed back");
        assert_eq!(sink.flushed, vec![t1]);
    }

    #[test]
    fn refused_fetches_do_not_count_inflight() {
        let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg());
        let mut sink = RecordingSink::default();
        sink.resident.insert(0); // block 0 already resident -> refused
        let tag = qs
            .start(Counting { next: 0, end: 100 }, &mut sink, &mut refill)
            .0;
        // Probe skipped block 0 and fetched block 1 instead.
        assert_eq!(sink.fetched, vec![(BlockAddr::new(1), tag)]);
    }

    #[test]
    fn svb_eviction_reduces_inflight_and_allows_refetch() {
        let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg());
        let mut sink = RecordingSink::default();
        let tag = qs
            .start(Counting { next: 0, end: 100 }, &mut sink, &mut refill)
            .0;
        qs.on_consumed(tag, &mut sink, &mut refill); // inflight = 4
        qs.on_svb_evicted(tag); // inflight = 3
        let before = sink.fetched.len();
        qs.on_consumed(tag, &mut sink, &mut refill); // inflight 2 -> fill to 4
        assert_eq!(sink.fetched.len(), before + 2);
    }

    /// Recomputes every queue's membership summary from scratch and
    /// asserts the incrementally maintained one matches exactly.
    fn assert_filters_consistent(qs: &StreamQueues<Counting>) {
        for (i, q) in qs.queues.iter().enumerate() {
            let mut counts = [0u32; FILTER_BUCKETS];
            for &b in &q.pending {
                counts[Membership::bucket(b)] += 1;
            }
            assert_eq!(
                counts, q.filter.counts,
                "queue {i}: filter counts drifted from pending contents"
            );
            let bits = counts
                .iter()
                .enumerate()
                .fold(0u64, |acc, (b, &c)| if c > 0 { acc | 1 << b } else { acc });
            assert_eq!(bits, q.filter.bits, "queue {i}: filter bit mask stale");
        }
    }

    /// What an unfiltered `catch_up` would find: the first queue (in
    /// index order) whose bounded scan locates `block`.
    fn oracle_catch_up(qs: &StreamQueues<Counting>, block: BlockAddr) -> Option<StreamTag> {
        qs.queues
            .iter()
            .position(|q| StreamQueues::<Counting>::scan_pending(&q.pending, block).is_some())
            .map(|i| StreamTag(i as u8))
    }

    /// Property test: under random start / pump / consume / evict / reset
    /// sequences, the membership filter returns exactly what a
    /// linear-scan oracle returns, and never goes stale.
    #[test]
    fn catch_up_filter_matches_linear_scan_oracle() {
        use crate::util::XorShift64;

        for seed in 0..12u64 {
            let mut rng = XorShift64::new(0xF117E12 ^ seed);
            let cfg = PrefetchConfig {
                stream_queues: 1 + (seed as usize % 4),
                lookahead: 4,
                refill_threshold: 2,
                refill_chunk: 4,
                ..PrefetchConfig::small()
            };
            let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg);
            let mut sink = RecordingSink::default();
            for _step in 0..2500u32 {
                let tag = StreamTag(rng.below(cfg.stream_queues as u64) as u8);
                match rng.below(10) {
                    0..=2 => {
                        // Start (resets the victim queue and its filter).
                        let next = rng.below(40);
                        let end = next + 1 + rng.below(16);
                        qs.start(Counting { next, end }, &mut sink, &mut refill);
                    }
                    3..=5 => {
                        // Consumption pumps (pops + refills) a queue.
                        qs.on_consumed(tag, &mut sink, &mut refill);
                    }
                    6..=8 => {
                        let block = BlockAddr::new(rng.below(48));
                        let expect = oracle_catch_up(&qs, block);
                        let got = qs.catch_up(block, &mut sink, &mut refill);
                        assert_eq!(
                            got, expect,
                            "catch_up({block:?}) diverged from the scan oracle (seed {seed})"
                        );
                    }
                    _ => {
                        qs.on_svb_evicted(tag);
                    }
                }
                assert_filters_consistent(&qs);
            }
        }
    }

    #[test]
    fn stream_counters() {
        let mut qs: StreamQueues<Counting> = StreamQueues::new(&cfg());
        let mut sink = RecordingSink::default();
        qs.start(Counting { next: 0, end: 10 }, &mut sink, &mut refill);
        qs.start(Counting { next: 0, end: 10 }, &mut sink, &mut refill);
        assert_eq!(qs.streams_started(), 2);
        assert_eq!(qs.active_streams(), 2);
    }
}
