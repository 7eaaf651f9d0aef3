//! The engine's event store: a ladder/calendar queue over a slab arena.
//!
//! A discrete-event sweep pushes and pops one event per packet hop, so
//! this structure is the single hottest data structure in the workspace.
//! The previous engine used `BinaryHeap<HeapEntry>`: every operation paid
//! `O(log n)` sift comparisons over the *whole* pending set and moved
//! 64-byte entries (the `Packet` payload rode inside the heap nodes)
//! through the heap array.
//!
//! This queue is a three-tier time ladder over compact 32-byte keys
//! (`(time, seq)` order, target/kind metadata, and a timer tag or packet
//! slot inline):
//!
//! * **near** — the currently active time window, a *small* binary heap
//!   sized around [`TARGET_BATCH`] events. It lives in L1 cache, so its
//!   `O(log B)` operations touch a dozen hot bytes per level.
//! * **rungs** — one or more nested *levels* of [`N_BUCKETS`] consecutive
//!   buckets after the near window (the calendar/timing-wheel tier).
//!   Insertion is an index computation plus a `Vec::push` — no
//!   comparisons.
//! * **far** — everything beyond the outermost level, completely
//!   unsorted: insertion is a bare `Vec::push`.
//!
//! When `near` drains, the innermost level's next non-empty bucket —
//! found with one `trailing_zeros` over the level's 64-bit occupancy
//! mask, never a scan over empty buckets — is heapified into it (`O(B)`).
//! When every level is drained, one sequential sweep of `far` re-bases
//! the ladder at the minimum pending time and scatters the next
//! `N_BUCKETS × width` of events into a fresh outer level; `width` is
//! re-estimated from the observed event density so a bucket holds
//! roughly [`TARGET_BATCH`] events. A far event is therefore rescanned
//! about once per `N_BUCKETS` batches, so per-event ordering cost stays
//! flat as the pending set grows — instead of the global `O(log n)` the
//! old heap paid on every single push and pop.
//!
//! **Window bound.** A re-base sizes its width from whatever `far` holds,
//! and a handful of early timers spread over a long interval yield a
//! width far wider than the dense traffic that follows: the first bucket
//! then swallows the whole pending set and the near heap grows to it.
//! So the near window bounds itself. When it overflows [`SPLIT_AT`] keys
//! (on a push, or when an overfull bucket is loaded), its keys are
//! re-bucketed into a finer level spawned over `[near min, horizon]`
//! with a width sized from their spread, and the window shrinks to that
//! level's first bucket — nesting again while the first bucket is still
//! overfull. This is the rung spawning of the Ladder Queue (Tang, Goh &
//! Thng, ACM TOMACS 2005). The width comes from the lower half of the
//! keys, so a few far-out timers do not widen every bucket, and a
//! spawned level absorbs any drained inner levels, so the nesting stays
//! shallow. When more than [`SPLIT_AT`] keys share the earliest or the
//! median instant, no width can bring the new window under the bound;
//! that pass spawns nothing and disarms splitting until the next
//! window is loaded, so a same-instant cluster (synchronized ticks)
//! costs one split pass, not a re-bucketing loop. Every decision is a
//! function of key times and counts only, so the geometry — and the
//! store counters — replay identically.
//!
//! Timer events live entirely inside their key; delivery payloads live
//! in a **slab arena** (`slots` + an intrusive free list). The ordering
//! tiers therefore move only small keys, packets are written exactly
//! once, and no per-event allocation happens after the arena and rungs
//! warm up.
//!
//! **Determinism.** Pop order is exactly ascending `(time, seq)` — the
//! same total order the old heap produced. `seq` values are unique (the
//! engine's scheduling counter), so keys never compare equal and FIFO
//! tie-breaking at equal timestamps is preserved bit-for-bit. The
//! property tests in `tests/determinism.rs` pin this against a
//! `BinaryHeap` reference model.

use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// What an event does when it fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a packet to the target node.
    Deliver(Packet),
    /// Fire a timer on the target node with the given tag.
    Timer(u64),
}

/// A scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Global scheduling sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// Index of the node the event targets.
    pub target: usize,
    /// The action.
    pub kind: EventKind,
}

/// Self-contained sort key; what the ladder tiers hold.
///
/// Timer events live *entirely* in the key (`payload` = tag), so the
/// majority of events never touch the slab at all; deliveries keep their
/// `Packet` in the arena and carry its slot index in `payload`.
///
/// `Ord` is **reversed** (greater = earlier) so `BinaryHeap<Key>`, a
/// max-heap, pops the earliest `(time, seq)` first.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: u64,
    seq: u64,
    /// Bit 31: timer flag; bits 0..31: target node index.
    meta: u32,
    /// Timer tag, or slab slot of the `Packet`.
    payload: u64,
}

const TIMER_FLAG: u32 = 1 << 31;

impl Key {
    #[inline]
    fn order(&self) -> (u64, u64) {
        (self.time, self.seq)
    }

    #[inline]
    fn target(&self) -> usize {
        (self.meta & !TIMER_FLAG) as usize
    }

    #[inline]
    fn is_timer(&self) -> bool {
        self.meta & TIMER_FLAG != 0
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}
impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.order().cmp(&self.order())
    }
}
impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Arena slot: a delivery's packet, or a link in the free list.
#[derive(Debug)]
enum Slot {
    Full(Packet),
    /// Free; holds the next free slot index (`u32::MAX` = end of list).
    Free(u32),
}

/// Buckets and the near window adapt toward this many events each:
/// large enough to amortize tier moves, small enough that the near heap
/// stays in L1 cache.
const TARGET_BATCH: usize = 512;

/// Near-window size at which the window splits into a finer level.
/// Well above [`TARGET_BATCH`], so ordinary density swings never split;
/// only a window whose width is off by an order of magnitude does.
const SPLIT_AT: usize = 8 * TARGET_BATCH;

/// Deepest level nesting a split may build; a window that would need
/// more counts as unsplittable. Each nested window holds at most half
/// the keys of the one it splits (or one instant), so real schedules
/// stay far shallower; the cap bounds the allocations levels keep.
const MAX_LEVELS: usize = 8;

/// Buckets per level — one bit each in the level's occupancy mask. A
/// `far` event is rescanned roughly once per `N_BUCKETS` refills,
/// bounding the re-sweep cost per event.
const N_BUCKETS: usize = 64;

/// Initial bucket width in nanoseconds (~1 ms, the order of the paper's
/// timer periods); every re-base re-estimates it from the observed
/// event density.
const INITIAL_WIDTH: u64 = 1 << 20;

/// One level of the calendar tier: bucket `i` holds events in
/// `[base + i*width, base + (i+1)*width)`, unsorted, except that the
/// last bucket extends through `last`.
#[derive(Debug)]
struct Level {
    base: u64,
    width: u64,
    /// Inclusive upper time bound of the level.
    last: u64,
    /// Bit `i` is set iff `buckets[i]` is non-empty. Buckets at or below
    /// the one last loaded are always empty, so the lowest set bit is
    /// the next bucket to load.
    occupied: u64,
    buckets: Vec<Vec<Key>>,
}

impl Level {
    fn new(base: u64, width: u64, last: u64) -> Self {
        Self {
            base,
            width,
            last,
            occupied: 0,
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
        }
    }

    /// Re-aim an empty level at a new range, keeping its allocations.
    fn reset(&mut self, base: u64, width: u64, last: u64) {
        debug_assert_eq!(self.occupied, 0);
        self.base = base;
        self.width = width;
        self.last = last;
    }

    /// Bucket of time `t` (`base <= t <= last`). The `min` binds for the
    /// last bucket, which runs through `last`.
    #[inline]
    fn index(&self, t: u64) -> usize {
        (((t - self.base) / self.width) as usize).min(N_BUCKETS - 1)
    }

    #[inline]
    fn push(&mut self, key: Key) {
        let i = self.index(key.time);
        self.occupied |= 1 << i;
        self.buckets[i].push(key);
    }

    /// Inclusive upper time bound of bucket `i`.
    fn bucket_last(&self, i: usize) -> u64 {
        if i + 1 == N_BUCKETS {
            self.last
        } else {
            self.base
                .saturating_add(self.width.saturating_mul(i as u64 + 1))
                .saturating_sub(1)
                .min(self.last)
        }
    }

    /// Take the lowest non-empty bucket: its index, with its keys moved
    /// into the empty buffer `out`. The bucket keeps `out`'s old buffer
    /// for its next fill unless that is more than twice the load just
    /// taken (and than [`TARGET_BATCH`]): buffers circulate between
    /// buckets and the near window without allocating, while a one-off
    /// peak — a same-instant cluster, a split's whole window, a bucket
    /// sized before the pending set ramped up — is freed instead of
    /// staying resident in every bucket it passes through.
    fn take_next(&mut self, out: &mut Vec<Key>) -> Option<usize> {
        if self.occupied == 0 {
            return None;
        }
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= self.occupied - 1;
        debug_assert!(out.is_empty());
        let old = std::mem::replace(out, std::mem::take(&mut self.buckets[i]));
        if old.capacity() <= 2 * out.len().max(TARGET_BATCH) {
            self.buckets[i] = old;
        }
        Some(i)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
    }
}

/// Ladder/calendar event queue with slab-arena storage.
///
/// Pops events in ascending `(time, seq)` order, identically to a
/// min-heap over the same keys.
#[derive(Debug)]
pub struct EventQueue {
    slots: Vec<Slot>,
    /// Head of the intrusive free list (`u32::MAX` = empty).
    free_head: u32,
    /// Min-heap (via reversed `Ord`) over the active window:
    /// events with `time <= horizon`.
    near: BinaryHeap<Key>,
    /// The calendar tier, outermost level first. Only `levels[..depth]`
    /// are active; each nests inside the bucket of its outer level that
    /// the window was loaded from, and ends where that bucket ends.
    /// Inactive levels are kept empty for their allocations.
    levels: Vec<Level>,
    depth: usize,
    /// Events beyond `span_last`, unsorted.
    far: Vec<Key>,
    /// Inclusive upper time bound of the near window.
    horizon: u64,
    /// Inclusive upper time bound of the outermost level (its `last`);
    /// below every pending time when no cycle is active.
    span_last: u64,
    /// Near length that triggers a split: [`SPLIT_AT`], or `usize::MAX`
    /// once a split pass found the window unsplittable, until the next
    /// window is loaded.
    split_at: usize,
    len: usize,
    diag: Diag,
    /// Provenance hook for causal tracing: `Some` only while the engine
    /// records a trace, so the plain path pays one predictable
    /// `is-none` branch per push and nothing else.
    births: Option<Box<TraceBirths>>,
}

/// Scheduler-side provenance state for causal tracing: which event is
/// currently being dispatched (`current`), and the log of
/// `(child seq, parent seq)` pairs for every event scheduled since the
/// engine last drained it into the trace recorder.
#[derive(Debug)]
pub(crate) struct TraceBirths {
    /// Seq of the event whose handler is running, or
    /// [`NO_PARENT_SEQ`] outside any dispatch (`on_start`, pre-run).
    pub(crate) current: u64,
    /// `(child seq, parent seq)` pairs pending drain by the engine.
    pub(crate) log: Vec<(u64, u64)>,
}

/// The "no parent" sentinel threaded to the trace recorder — matches
/// `linkpad_obs::trace::NO_PARENT` (asserted in the engine's tests).
pub(crate) const NO_PARENT_SEQ: u64 = u64::MAX;

/// Cheap internal op counters (a few `u64` increments on cold paths),
/// exposed for perf diagnosis and regression hunting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Diag {
    /// Pushes routed to the near heap.
    pub push_near: u64,
    /// Pushes routed to a calendar rung.
    pub push_rung: u64,
    /// Pushes routed to the far tier.
    pub push_far: u64,
    /// Rung-to-near refills.
    pub refills: u64,
    /// Ladder re-bases (full `far` sweeps).
    pub rebases: u64,
    /// Total keys examined by re-base sweeps.
    pub rebase_scanned: u64,
    /// Total keys moved into rungs by re-bases.
    pub rebase_moved: u64,
    /// Near-window split passes: each examines an overfull window's
    /// keys once and either re-buckets them into a finer level or finds
    /// a same-instant cluster that no width can split.
    pub splits: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with `cap` slab slots pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free_head: u32::MAX,
            near: BinaryHeap::with_capacity(TARGET_BATCH * 2),
            levels: vec![Level::new(0, INITIAL_WIDTH, 0)],
            depth: 1,
            far: Vec::with_capacity(cap),
            horizon: 0,
            span_last: 0,
            split_at: SPLIT_AT,
            len: 0,
            diag: Diag::default(),
            births: None,
        }
    }

    /// Arm the provenance hook: every subsequent [`EventQueue::push`]
    /// logs a `(child, parent)` pair until [`EventQueue::trace_disarm`].
    /// Idempotent; arming resets the current-parent to "no parent".
    pub(crate) fn trace_arm(&mut self) {
        match &mut self.births {
            Some(b) => {
                b.current = NO_PARENT_SEQ;
                b.log.clear();
            }
            None => {
                self.births = Some(Box::new(TraceBirths {
                    current: NO_PARENT_SEQ,
                    log: Vec::new(),
                }));
            }
        }
    }

    /// Disarm the provenance hook and drop its log.
    pub(crate) fn trace_disarm(&mut self) {
        self.births = None;
    }

    /// Set the parent attributed to events scheduled from now on — the
    /// engine calls this with the seq of each event it dispatches while
    /// tracing.
    pub(crate) fn trace_set_current(&mut self, seq: u64) {
        if let Some(b) = &mut self.births {
            b.current = seq;
        }
    }

    /// The pending birth log, for the engine to drain into the trace
    /// recorder. `None` when tracing is disarmed.
    pub(crate) fn trace_births_mut(&mut self) -> Option<&mut Vec<(u64, u64)>> {
        self.births.as_mut().map(|b| &mut b.log)
    }

    /// Internal op counters since construction.
    pub fn diag(&self) -> Diag {
        self.diag
    }

    /// Snapshot of tier occupancy and window geometry:
    /// `(width, horizon, span_last, near_len, rung_len, far_len)`, where
    /// `width` is the innermost level's bucket width and `rung_len`
    /// sums every level.
    pub fn tier_state(&self) -> (u64, u64, u64, usize, usize, usize) {
        (
            self.levels[self.depth - 1].width,
            self.horizon,
            self.span_last,
            self.near.len(),
            self.active_levels().iter().map(Level::len).sum(),
            self.far.len(),
        )
    }

    /// Per-bucket occupancy of the calendar tier: [`N_BUCKETS`] entries
    /// per active level, outermost level first, lowest bucket first —
    /// the per-rung view behind engine-profile depth samples (the
    /// summed total is in [`EventQueue::tier_state`]).
    pub fn rung_lens(&self) -> Vec<usize> {
        self.active_levels()
            .iter()
            .flat_map(|l| l.buckets.iter().map(Vec::len))
            .collect()
    }

    fn active_levels(&self) -> &[Level] {
        &self.levels[..self.depth]
    }

    /// Drop every pending event and reset the ladder geometry, keeping
    /// every allocation — the slab's packet slots, the near heap's
    /// buffer, every level's bucket vectors and the far tier are all
    /// reused by the next simulation run. This is the scenario-reset
    /// fast path: a cleared queue schedules its first post-reset events
    /// without a single new allocation. Diagnostic counters are
    /// cumulative and survive the clear.
    pub fn clear(&mut self) {
        // `Vec::clear` keeps capacity; freed `Packet` slots are reused
        // across runs exactly like they are reused across hops.
        self.slots.clear();
        self.free_head = u32::MAX;
        self.near.clear();
        for level in &mut self.levels[..self.depth] {
            level.clear();
        }
        self.depth = 1;
        self.levels[0].reset(0, INITIAL_WIDTH, 0);
        self.far.clear();
        self.horizon = 0;
        self.span_last = 0;
        self.split_at = SPLIT_AT;
        self.len = 0;
        // Tracing (when armed) starts the next run with no provenance
        // carried over, exactly like a freshly armed queue — the hook
        // itself stays armed across `reset(seed)` replays.
        if let Some(b) = &mut self.births {
            b.current = NO_PARENT_SEQ;
            b.log.clear();
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule an event. `seq` values must be unique and increase with
    /// scheduling order (the engine's global counter guarantees both).
    pub fn push(&mut self, time: SimTime, seq: u64, target: usize, kind: EventKind) {
        // Hard assert (not debug): an index at or above TIMER_FLAG would
        // silently decode as a timer for the wrong node in release too.
        assert!(target < TIMER_FLAG as usize, "node index fits 31 bits");
        let meta = target as u32;
        let (meta, payload) = match kind {
            EventKind::Timer(tag) => (meta | TIMER_FLAG, tag),
            EventKind::Deliver(pkt) => (meta, self.alloc(pkt) as u64),
        };
        let key = Key {
            time: time.as_nanos(),
            seq,
            meta,
            payload,
        };
        if let Some(b) = &mut self.births {
            b.log.push((seq, b.current));
        }
        self.len += 1;
        if key.time <= self.horizon {
            // Active window: O(log B) push into the small L1 heap.
            self.diag.push_near += 1;
            self.near.push(key);
            if self.near.len() > self.split_at {
                self.split_near();
            }
        } else if key.time <= self.span_last {
            // Calendar tier: O(1) indexed append into the innermost
            // level that reaches `time`. `time > horizon` guarantees the
            // bucket lies after every bucket already loaded.
            self.diag.push_rung += 1;
            let mut d = self.depth - 1;
            while d > 0 && key.time > self.levels[d].last {
                d -= 1;
            }
            self.levels[d].push(key);
        } else {
            // Beyond the ladder: O(1) append, rescanned at re-base.
            self.diag.push_far += 1;
            self.far.push(key);
        }
    }

    /// Key of the next event to fire, without removing it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.near.is_empty() {
            self.refill();
        }
        self.near
            .peek()
            .map(|k| (SimTime::from_nanos(k.time), k.seq))
    }

    /// Remove and return the earliest event (ties broken by `seq`), but
    /// only if it fires at or before `until` — the engine's fused
    /// peek-and-pop for bounded runs (one window check instead of two).
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<Event> {
        if self.near.is_empty() {
            self.refill();
        }
        if self.near.peek()?.time > until.as_nanos() {
            return None;
        }
        self.pop_unchecked()
    }

    /// Remove and return the earliest event (ties broken by `seq`).
    pub fn pop(&mut self) -> Option<Event> {
        if self.near.is_empty() {
            self.refill();
        }
        self.pop_unchecked()
    }

    #[inline]
    fn pop_unchecked(&mut self) -> Option<Event> {
        let key = self.near.pop()?;
        self.len -= 1;
        let kind = if key.is_timer() {
            EventKind::Timer(key.payload)
        } else {
            EventKind::Deliver(self.dealloc(key.payload as u32))
        };
        Some(Event {
            time: SimTime::from_nanos(key.time),
            seq: key.seq,
            target: key.target(),
            kind,
        })
    }

    /// Pop the next event only if it is a `Deliver` at exactly `time`
    /// targeting `target` — the engine's same-instant batching probe.
    /// Never refills: batching across a window boundary is legal but not
    /// worth the sweep.
    pub fn pop_deliver_if(&mut self, time: SimTime, target: usize) -> Option<Packet> {
        let key = *self.near.peek()?;
        if key.time != time.as_nanos() || key.is_timer() || key.target() != target {
            return None;
        }
        self.near.pop();
        self.len -= 1;
        Some(self.dealloc(key.payload as u32))
    }

    /// [`EventQueue::pop_deliver_if`], also returning the popped
    /// event's sequence number. The traced dispatch path's batching
    /// probe: the recorder needs each batched event's seq to retire its
    /// provenance entry. Kept separate so the hot untraced probe's
    /// signature (and codegen) is untouched.
    pub(crate) fn pop_deliver_if_keyed(
        &mut self,
        time: SimTime,
        target: usize,
    ) -> Option<(u64, Packet)> {
        let key = *self.near.peek()?;
        if key.time != time.as_nanos() || key.is_timer() || key.target() != target {
            return None;
        }
        self.near.pop();
        self.len -= 1;
        Some((key.seq, self.dealloc(key.payload as u32)))
    }

    fn alloc(&mut self, pkt: Packet) -> u32 {
        if self.free_head != u32::MAX {
            let idx = self.free_head;
            match std::mem::replace(&mut self.slots[idx as usize], Slot::Full(pkt)) {
                Slot::Free(next) => self.free_head = next,
                Slot::Full(_) => unreachable!("free list points at a full slot"),
            }
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab fits u32 indices");
            self.slots.push(Slot::Full(pkt));
            idx
        }
    }

    fn dealloc(&mut self, slot: u32) -> Packet {
        let taken = std::mem::replace(&mut self.slots[slot as usize], Slot::Free(self.free_head));
        self.free_head = slot;
        match taken {
            Slot::Full(pkt) => pkt,
            Slot::Free(_) => unreachable!("popped key points at a free slot"),
        }
    }

    /// Load the next non-empty bucket of the innermost level into
    /// `near`, retiring drained levels and re-basing the ladder from
    /// `far` when the cycle is exhausted.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty());
        // The near heap's spent buffer goes back to the loaded bucket and
        // the bucket's buffer becomes the heap: O(B) heapify, no copy.
        let mut buf = std::mem::take(&mut self.near).into_vec();
        buf.clear();
        loop {
            let level = &mut self.levels[self.depth - 1];
            if let Some(i) = level.take_next(&mut buf) {
                // The near window now covers this bucket and every
                // empty bucket before it — later pushes inside it go to
                // `near`.
                self.horizon = level.bucket_last(i);
                self.diag.refills += 1;
                self.split_at = SPLIT_AT;
                if buf.len() > SPLIT_AT {
                    self.split(buf);
                } else {
                    self.near = BinaryHeap::from(buf);
                }
                return;
            }
            // Drained: the window covers the whole level.
            self.horizon = level.last;
            if self.depth > 1 {
                self.depth -= 1;
            } else if self.far.is_empty() {
                self.near = BinaryHeap::from(buf);
                return;
            } else {
                self.rebase();
            }
        }
    }

    /// Start a new ladder cycle at the minimum pending `far` time.
    fn rebase(&mut self) {
        debug_assert!(self.depth == 1 && self.levels[0].occupied == 0);
        let (mut tmin, mut tmax) = (u64::MAX, 0u64);
        for k in &self.far {
            tmin = tmin.min(k.time);
            tmax = tmax.max(k.time);
        }
        // Width so a bucket holds ~TARGET_BATCH events at the observed
        // density, assuming roughly even spread. A far tier that is
        // sparse now but dense later makes the first buckets too wide;
        // the near window splits those (see `split`).
        let width = spread_width(tmax - tmin, self.far.len());
        self.span_last = tmin
            .saturating_add(width.saturating_mul(N_BUCKETS as u64))
            .saturating_sub(1);
        let level = &mut self.levels[0];
        level.reset(tmin, width, self.span_last);
        // `horizon` stays behind `base` until the first bucket is loaded.
        self.horizon = tmin.saturating_sub(1);

        let mut moved = 0usize;
        let mut i = 0;
        while i < self.far.len() {
            if self.far[i].time <= self.span_last {
                level.push(self.far.swap_remove(i));
                moved += 1;
            } else {
                i += 1;
            }
        }
        debug_assert!(moved > 0, "tmin is inside the level by construction");
        self.diag.rebases += 1;
        self.diag.rebase_scanned += (self.far.len() + moved) as u64;
        self.diag.rebase_moved += moved as u64;
    }

    /// The near heap outgrew [`SPLIT_AT`] on a push: split its keys.
    #[cold]
    #[inline(never)]
    fn split_near(&mut self) {
        let buf = std::mem::take(&mut self.near).into_vec();
        self.split(buf);
    }

    /// Re-bucket the overfull window `keys` (every key `<= horizon`)
    /// into a finer level over `[min key, horizon]`, shrink the window
    /// to that level's first bucket, and nest again while that bucket
    /// is still overfull. Leaves the window's keys in `near`.
    fn split(&mut self, mut keys: Vec<Key>) {
        while keys.len() > SPLIT_AT {
            self.diag.splits += 1;
            // Size the width from the lower half of the keys: the front
            // of the window is what the next buckets serve, and a few
            // far-out timers would otherwise widen every bucket.
            let mid = keys.len() / 2;
            let median = keys.select_nth_unstable_by_key(mid, |k| k.time).1.time;
            let (mut lo, mut at_lo, mut at_median) = (median, 0usize, 0usize);
            for k in &keys {
                if k.time < lo {
                    (lo, at_lo) = (k.time, 0);
                }
                at_lo += usize::from(k.time == lo);
                at_median += usize::from(k.time == median);
            }
            if at_lo.max(at_median) > SPLIT_AT {
                // More keys share one instant than a window should hold,
                // and that instant would end up in the new window: no
                // width brings it under the bound, so stop trying until
                // the next window is loaded.
                self.split_at = usize::MAX;
                break;
            }
            // Drained inner levels hold nothing between the window and
            // their end, so the new level takes over their range.
            let mut last = self.horizon;
            while self.depth > 1 && self.levels[self.depth - 1].occupied == 0 {
                self.depth -= 1;
                last = self.levels[self.depth].last;
            }
            if self.depth == MAX_LEVELS {
                self.split_at = usize::MAX;
                break;
            }
            let width = spread_width(median - lo, mid);
            if self.depth == self.levels.len() {
                self.levels.push(Level::new(lo, width, last));
            } else {
                self.levels[self.depth].reset(lo, width, last);
            }
            let level = &mut self.levels[self.depth];
            self.depth += 1;
            for k in keys.drain(..) {
                level.push(k);
            }
            if let Some(i) = level.take_next(&mut keys) {
                self.horizon = level.bucket_last(i);
            }
        }
        self.near = BinaryHeap::from(keys);
    }
}

/// Bucket width that spreads `n` keys over `span` ns at about
/// [`TARGET_BATCH`] keys per bucket.
fn spread_width(span: u64, n: usize) -> u64 {
    (span / (n / TARGET_BATCH + 1) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind};

    fn timer_at(q: &mut EventQueue, t: u64, seq: u64, target: usize, tag: u64) {
        q.push(SimTime::from_nanos(t), seq, target, EventKind::Timer(tag));
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 500, 0, 0, 10);
        timer_at(&mut q, 500, 1, 0, 11);
        timer_at(&mut q, 100, 2, 0, 12);
        timer_at(&mut q, 500, 3, 0, 13);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![2, 0, 1, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 10, 0, 0, 0);
        timer_at(&mut q, 30, 1, 0, 0);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 10);
        // Push into the active window after a refill happened.
        timer_at(&mut q, 20, 2, 0, 0);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 20);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            timer_at(&mut q, round, round, 0, 0);
            assert_eq!(q.pop().unwrap().seq, round);
        }
        // One live event at a time → the arena never grew past the first
        // few slots.
        assert!(q.slots.len() <= 2, "slab grew to {}", q.slots.len());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 42, 7, 3, 0);
        timer_at(&mut q, 41, 8, 3, 0);
        let (t, seq) = q.peek_key().unwrap();
        let e = q.pop().unwrap();
        assert_eq!((t, seq), (e.time, e.seq));
        assert_eq!(e.time.as_nanos(), 41);
    }

    #[test]
    fn deliver_batch_probe_matches_only_same_time_and_target() {
        let mut q = EventQueue::new();
        let pkt = |id| Packet::new(id, FlowId::PADDED, PacketKind::Dummy, 1, SimTime::ZERO);
        q.push(SimTime::from_nanos(5), 0, 1, EventKind::Deliver(pkt(0)));
        q.push(SimTime::from_nanos(5), 1, 1, EventKind::Deliver(pkt(1)));
        q.push(SimTime::from_nanos(5), 2, 2, EventKind::Deliver(pkt(2)));
        q.push(SimTime::from_nanos(5), 3, 1, EventKind::Timer(0));

        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Deliver(p) if p.id == 0));
        // Same time + target + kind → batched.
        assert_eq!(q.pop_deliver_if(first.time, 1).unwrap().id, 1);
        // Next is a Deliver for a *different* target.
        assert!(q.pop_deliver_if(first.time, 1).is_none());
        assert_eq!(q.pop().unwrap().target, 2);
        // Then a Timer for target 1 — not batchable.
        assert!(q.pop_deliver_if(first.time, 1).is_none());
        assert!(matches!(q.pop().unwrap().kind, EventKind::Timer(0)));
    }

    #[test]
    fn clear_reuses_allocations_and_restores_order() {
        let mut q = EventQueue::new();
        let pkt = |id| Packet::new(id, FlowId::PADDED, PacketKind::Dummy, 1, SimTime::ZERO);
        // Populate every tier: near (after a pop), rungs, far.
        for seq in 0..4096u64 {
            let t = seq * 777_777; // spans several ladder windows
            if seq.is_multiple_of(3) {
                q.push(SimTime::from_nanos(t), seq, 0, EventKind::Deliver(pkt(seq)));
            } else {
                timer_at(&mut q, t, seq, 0, 0);
            }
        }
        q.pop().unwrap();
        let slab_cap = q.slots.capacity();
        let far_cap = q.far.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(q.slots.capacity(), slab_cap, "slab allocation retained");
        assert_eq!(q.far.capacity(), far_cap, "far allocation retained");
        // A cleared queue must order a fresh schedule exactly like a new
        // one — including times earlier than anything the first run saw.
        timer_at(&mut q, 500, 0, 0, 10);
        q.push(SimTime::from_nanos(100), 1, 0, EventKind::Deliver(pkt(99)));
        timer_at(&mut q, 500, 2, 0, 11);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 0, 2]);
        assert!(q.slots.len() <= slab_cap, "packet slots reused, not grown");
    }

    #[test]
    fn birth_log_records_provenance_and_survives_clear_armed() {
        let mut q = EventQueue::new();
        // Disarmed: no log at all.
        timer_at(&mut q, 10, 0, 0, 0);
        assert!(q.trace_births_mut().is_none());
        q.trace_arm();
        timer_at(&mut q, 20, 1, 0, 0); // scheduled outside any dispatch
        q.trace_set_current(1);
        timer_at(&mut q, 30, 2, 0, 0); // scheduled "by" event 1
        assert_eq!(
            q.trace_births_mut().unwrap().as_slice(),
            &[(1, NO_PARENT_SEQ), (2, 1)]
        );
        q.trace_births_mut().unwrap().clear();
        // clear() keeps the hook armed but zeroes its state.
        q.trace_set_current(2);
        timer_at(&mut q, 40, 3, 0, 0);
        q.clear();
        assert!(q.trace_births_mut().unwrap().is_empty());
        timer_at(&mut q, 5, 0, 0, 0);
        assert_eq!(
            q.trace_births_mut().unwrap().as_slice(),
            &[(0, NO_PARENT_SEQ)],
            "post-clear parent is back to the root sentinel"
        );
        q.trace_disarm();
        timer_at(&mut q, 6, 1, 0, 0);
        assert!(q.trace_births_mut().is_none());
    }

    #[test]
    fn wide_time_spread_still_orders() {
        // Times spanning ns to hours stress the adaptive width and
        // multiple re-base cycles.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) % 3_600_000_000_000)
            .collect();
        for (seq, &t) in times.iter().enumerate() {
            timer_at(&mut q, t, seq as u64, 0, 0);
        }
        let mut sorted: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        sorted.sort();
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_nanos(), e.seq))
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn pushes_into_rungs_and_far_during_drain_stay_ordered() {
        // Steady-state shape: while draining, re-arm events one period
        // ahead (hits near, rung, and far tiers depending on phase).
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for i in 0..256u64 {
            timer_at(&mut q, 1_000 + i * 977, seq, 0, 0);
            seq += 1;
        }
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        let total = 4096;
        while popped < total {
            let e = q.pop().unwrap();
            let key = (e.time.as_nanos(), e.seq);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
            popped += 1;
            if popped + q.len() < total {
                // Re-arm far ahead, stressing tier routing.
                timer_at(
                    &mut q,
                    e.time.as_nanos() + 1 + (e.seq % 3) * 500_000,
                    seq,
                    0,
                    0,
                );
                seq += 1;
            }
        }
    }

    const MS: u64 = 1_000_000;

    /// Pop everything still pending, asserting strictly ascending keys
    /// after `last`; returns how many events popped.
    fn drain_ordered(q: &mut EventQueue, mut last: (u64, u64)) -> usize {
        let mut n = 0;
        while let Some(e) = q.pop() {
            let key = (e.time.as_nanos(), e.seq);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
            n += 1;
        }
        n
    }

    /// ~30 timers over 10–100 ms size the first re-base (a 90 ms
    /// bucket), then a dense stream re-arms itself one 5 ms period ahead
    /// with 12 k pending. Runs `pops` pops; returns the near lengths
    /// seen after the stream's first period, the deepest level nesting
    /// seen, and the last popped key.
    fn sparse_start_stream(q: &mut EventQueue, pops: usize) -> (Vec<usize>, usize, (u64, u64)) {
        const PENDING: u64 = 12_000;
        const PERIOD: u64 = 5 * MS;
        let mut seq = 0u64;
        for i in 0..30u64 {
            timer_at(q, 10 * MS + i * 3 * MS, seq, 0, 0);
            seq += 1;
        }
        let first = q.pop().unwrap();
        let mut last = (first.time.as_nanos(), first.seq);
        for k in 0..PENDING {
            timer_at(q, last.0 + 1 + k * PERIOD / PENDING, seq, 1, 0);
            seq += 1;
        }
        let (mut near, mut depth) = (Vec::new(), 0);
        for n in 0..pops {
            let e = q.pop().unwrap();
            let key = (e.time.as_nanos(), e.seq);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
            if e.target == 1 {
                timer_at(q, key.0 + PERIOD, seq, 1, 0);
                seq += 1;
            }
            if n >= PENDING as usize {
                near.push(q.near.len());
            }
            depth = depth.max(q.depth);
        }
        (near, depth, last)
    }

    #[test]
    fn sparse_start_then_dense_stream_keeps_the_window_bounded() {
        let mut q = EventQueue::new();
        // 400 k pops run the stream past the first 90 ms bucket, so the
        // next one loads overfull and splits on load, not on a push.
        let (near, depth, last) = sparse_start_stream(&mut q, 400_000);
        let max = near.iter().copied().max().unwrap();
        let mean = near.iter().sum::<usize>() / near.len();
        assert!(max <= SPLIT_AT, "near window grew to {max}");
        assert!(mean <= 2 * TARGET_BATCH, "mean near window {mean}");
        assert!(q.diag().splits >= 2, "{:?}", q.diag());
        assert!(last.0 > 100 * MS, "stream crossed the first bucket");
        // Each re-spawn takes over its drained predecessor, so nesting
        // stays at the outer cycle plus about one level.
        assert!(depth <= 3, "levels nested {depth} deep");
        assert_eq!(
            drain_ordered(&mut q, last),
            12_000,
            "only the stream is left"
        );
    }

    #[test]
    fn same_instant_cluster_costs_one_split_pass() {
        // Synchronized ticks: 10^4 keys at one instant, each re-armed
        // one period later, for five periods. No width splits them.
        const N: u64 = 10_000;
        const PERIOD: u64 = MS;
        const CLUSTERS: u64 = 5;
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for _ in 0..N {
            timer_at(&mut q, PERIOD, seq, 0, 0);
            seq += 1;
        }
        let mut last = (0, 0);
        let mut popped = 0;
        while let Some(e) = q.pop() {
            let key = (e.time.as_nanos(), e.seq);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
            popped += 1;
            assert!(q.near.len() <= N as usize);
            if key.0 < CLUSTERS * PERIOD {
                timer_at(&mut q, key.0 + PERIOD, seq, 0, 0);
                seq += 1;
            }
        }
        assert_eq!(popped, N * CLUSTERS);
        assert_eq!(q.diag().splits, CLUSTERS, "one pass per cluster");

        // A cluster pushed into an already active, wide window: one pass
        // finds it unsplittable and the rest of the cluster is not
        // retried.
        let mut q = EventQueue::new();
        timer_at(&mut q, 1, 0, 0, 0);
        timer_at(&mut q, 100 * MS, 1, 0, 0);
        q.pop().unwrap();
        assert!(
            q.horizon > 50 * MS,
            "the window spans the cluster's instant"
        );
        for s in 2..N + 2 {
            timer_at(&mut q, 50 * MS, s, 0, 0);
        }
        assert_eq!(q.diag().splits, 1);
        assert_eq!(drain_ordered(&mut q, (0, 0)), N as usize + 1);
    }

    #[test]
    fn bursts_straddling_spawned_bucket_boundaries_stay_ordered() {
        let mut q = EventQueue::new();
        let (_, _, mut last) = sparse_start_stream(&mut q, 20_000);
        assert!(q.depth > 1, "the stream spawned a finer level");
        let mut seq = 1 << 40;
        let mut pushed = 0usize;
        for round in 0..200u64 {
            // Bursts on both sides of the next few bucket boundaries of
            // the innermost level, and of the window's own end.
            let level = &q.levels[q.depth - 1];
            let (base, width, end) = (level.base, level.width, level.last);
            let mut edges = vec![q.horizon, q.horizon + 1];
            for i in 1..4u64 {
                let edge = base + (q.horizon - base) / width * width + i * width;
                edges.extend([edge - 1, edge, edge + 1]);
            }
            for t in edges {
                if t < last.0 || t > end {
                    continue;
                }
                for _ in 0..1 + round % 7 {
                    timer_at(&mut q, t, seq, 2, 0);
                    seq += 1;
                    pushed += 1;
                }
            }
            for _ in 0..50 {
                let e = q.pop().unwrap();
                let key = (e.time.as_nanos(), e.seq);
                assert!(key > last, "out of order: {key:?} after {last:?}");
                last = key;
            }
        }
        assert!(pushed > 1_000, "bursts landed inside the level: {pushed}");
        drain_ordered(&mut q, last);
    }

    #[test]
    fn clear_restores_a_fresh_geometry() {
        let counters = |d: Diag| {
            [
                d.push_near,
                d.push_rung,
                d.push_far,
                d.refills,
                d.rebases,
                d.rebase_scanned,
                d.rebase_moved,
                d.splits,
            ]
        };
        // A queue that split and nested, then cleared mid-run, must
        // replay a split-heavy schedule exactly like a fresh queue:
        // same pops, same geometry after every pop, same counter deltas.
        let mut used = EventQueue::new();
        sparse_start_stream(&mut used, 50_000);
        assert!(used.depth > 1 && used.diag().splits > 0);
        used.clear();
        assert_eq!(used.depth, 1);
        let base = counters(used.diag());
        let mut fresh = EventQueue::new();
        let run = |q: &mut EventQueue| {
            let mut states = Vec::new();
            sparse_start_stream(q, 30_000);
            for _ in 0..5_000 {
                let e = q.pop().unwrap();
                states.push((e.time.as_nanos(), e.seq, q.tier_state(), q.rung_lens()));
            }
            states
        };
        assert_eq!(run(&mut used), run(&mut fresh));
        let delta: Vec<u64> = counters(used.diag())
            .iter()
            .zip(base)
            .map(|(now, was)| now - was)
            .collect();
        assert_eq!(delta, counters(fresh.diag()).to_vec());
    }
}
