//! Determinism guards for the engine rewrite.
//!
//! 1. A property test that the ladder-queue event store pops events in
//!    exactly the `(time, seq)` order a reference `BinaryHeap` model
//!    produces, under randomized interleaved push/pop schedules and
//!    under the shapes that make the store split its near window: a
//!    sparse start followed by a dense stream, same-instant clusters,
//!    and bursts straddling spawned bucket boundaries.
//! 2. Replay tests: the same `MasterSeed` yields a bit-identical capture
//!    trace across two runs, and different seeds diverge.

use linkpad_sim::engine::SimBuilder;
use linkpad_sim::equeue::{EventKind, EventQueue};
use linkpad_sim::packet::{FlowId, PacketKind};
use linkpad_sim::sink::Sink;
use linkpad_sim::source::DistSource;
use linkpad_sim::tap::Tap;
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::dist::Exponential;
use linkpad_stats::rng::{MasterSeed, Xoshiro256StarStar};
use rand_core::RngCore;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a model run schedules its pushes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Random batches within `spread` ns of the current time, up to
    /// `burst` events each, a quarter of them sharing one timestamp.
    Random { spread: u64, burst: u64 },
    /// ~30 timers spread over 10–100 ms size the first ladder cycle,
    /// then a dense stream keeps ~12 k events pending by re-arming each
    /// popped event one 5 ms period ahead (cohort shard 0's shape).
    SparseStart,
    /// 10⁴ events at one instant, each re-armed one period ahead — the
    /// synchronized ticks of an aggregate trunk, which no width splits.
    SameInstant,
    /// The sparse-start stream plus bursts on both sides of the
    /// innermost level's bucket boundaries, read from `tier_state`.
    BoundaryBursts,
}

const MS: u64 = 1_000_000;

/// Near-window length at which the store splits its window
/// (8 × its target batch of 512).
const SPLIT_AT: usize = 4_096;

/// The ladder queue and a `BinaryHeap` reference model, fed identical
/// pushes; every pop must agree.
struct Mirror {
    queue: EventQueue,
    model: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
    now: u64,
    popped: u64,
}

impl Mirror {
    fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            model: BinaryHeap::new(),
            seq: 0,
            now: 0,
            popped: 0,
        }
    }

    fn push(&mut self, t: u64, target: usize, deliver: bool) {
        let kind = if deliver {
            EventKind::Deliver(linkpad_sim::packet::Packet::new(
                self.seq,
                FlowId::PADDED,
                PacketKind::Dummy,
                500,
                SimTime::from_nanos(t),
            ))
        } else {
            EventKind::Timer(self.seq)
        };
        self.queue
            .push(SimTime::from_nanos(t), self.seq, target, kind);
        self.model.push(Reverse((t, self.seq)));
        self.seq += 1;
    }

    /// Pop from both; `None` when both are empty.
    fn pop(&mut self, seed: u64) -> Option<(u64, u64, usize)> {
        let got = self.queue.pop();
        let want = self.model.pop().map(|Reverse(k)| k);
        let got_key = got.as_ref().map(|e| (e.time.as_nanos(), e.seq));
        assert_eq!(
            got_key, want,
            "pop {} diverged from the model (seed {seed})",
            self.popped
        );
        let e = got?;
        self.now = e.time.as_nanos();
        self.popped += 1;
        Some((self.now, e.seq, e.target))
    }

    fn drain(&mut self, seed: u64) {
        while self.pop(seed).is_some() {}
    }
}

/// Drive the ladder queue and a `BinaryHeap` reference model through an
/// identical schedule of the given shape for `ops` operations; their pop
/// sequences must be identical. Returns the mirror, drained.
fn check_against_model(seed: u64, ops: usize, shape: Shape) -> Mirror {
    let mut rng = Xoshiro256StarStar::from_u64(seed);
    let mut m = Mirror::new();
    match shape {
        Shape::Random { spread, burst } => {
            for _ in 0..ops {
                let action = rng.next_u64() % 100;
                if action < 55 || m.model.is_empty() {
                    // Push a batch of events at or after `now`.
                    // Occasional same-timestamp bursts exercise FIFO
                    // tie-breaking.
                    let n = 1 + rng.next_u64() % burst;
                    let base = m.now + rng.next_u64() % spread;
                    for _ in 0..n {
                        let t = if rng.next_u64().is_multiple_of(4) {
                            base // deliberate timestamp collision
                        } else {
                            m.now + rng.next_u64() % spread
                        };
                        let target = (rng.next_u64() % 7) as usize;
                        m.push(t, target, rng.next_u64().is_multiple_of(2));
                    }
                } else {
                    m.pop(seed);
                }
            }
        }
        Shape::SparseStart | Shape::BoundaryBursts => {
            const PENDING: u64 = 12_000;
            const PERIOD: u64 = 5 * MS;
            for _ in 0..30 {
                m.push(10 * MS + rng.next_u64() % (90 * MS), 0, false);
            }
            m.pop(seed);
            for k in 0..PENDING {
                let t = m.now + 1 + k * PERIOD / PENDING + rng.next_u64() % 1_000;
                m.push(t, 1, k % 3 == 0);
            }
            for n in 0..ops {
                let Some((t, _, target)) = m.pop(seed) else {
                    break;
                };
                if target == 1 {
                    m.push(t + PERIOD - rng.next_u64() % 1_000, 1, n % 3 == 0);
                }
                if n > PENDING as usize {
                    let (width, horizon, _, near, _, _) = m.queue.tier_state();
                    assert!(near <= SPLIT_AT, "near window of {near} (seed {seed})");
                    if matches!(shape, Shape::BoundaryBursts) && n % 64 == 0 {
                        // Both sides of the window's end and of the next
                        // bucket boundaries of the innermost level.
                        for b in 0..4 {
                            let edge = horizon + b * width;
                            for t in [edge, edge + 1, edge + 2] {
                                for _ in 0..1 + rng.next_u64() % 8 {
                                    m.push(t, 2, rng.next_u64().is_multiple_of(2));
                                }
                            }
                        }
                    }
                }
            }
        }
        Shape::SameInstant => {
            const N: u64 = 10_000;
            const PERIOD: u64 = MS;
            let clusters = (ops as u64 / N).max(1);
            for k in 0..N {
                m.push(PERIOD, (k % 7) as usize, k % 2 == 0);
            }
            // A few stragglers between the instants.
            for _ in 0..100 {
                m.push(rng.next_u64() % (clusters * PERIOD), 6, false);
            }
            while let Some((t, _, target)) = m.pop(seed) {
                if t % PERIOD == 0 && t < clusters * PERIOD {
                    m.push(t + PERIOD, target, target % 2 == 0);
                }
            }
            assert!(
                m.queue.diag().splits <= clusters,
                "{} split passes for {clusters} same-instant clusters (seed {seed})",
                m.queue.diag().splits
            );
        }
    }
    m.drain(seed);
    assert!(m.queue.is_empty(), "queue must drain with the model");
    m
}

#[test]
fn ladder_queue_matches_heap_model_across_schedules() {
    // Many seeds × several workload shapes: narrow/wide time spreads and
    // small/large same-instant bursts.
    for seed in 0..24u64 {
        for (spread, burst) in [(1_000, 4), (50_000_000, 8), (10, 32)] {
            let ops = if burst == 32 { 800 } else { 2_000 };
            check_against_model(seed, ops, Shape::Random { spread, burst });
        }
    }
}

#[test]
fn ladder_queue_model_agreement_at_scale() {
    // One deep run with a large resident set (forces many re-bases).
    check_against_model(
        99,
        60_000,
        Shape::Random {
            spread: 5_000_000,
            burst: 16,
        },
    );
}

#[test]
fn sparse_start_splits_the_window_and_matches_the_model() {
    for seed in 0..3u64 {
        let m = check_against_model(seed, 150_000, Shape::SparseStart);
        assert!(m.queue.diag().splits > 0, "the wide first window split");
    }
}

#[test]
fn same_instant_clusters_match_the_model_without_a_split_loop() {
    for seed in 0..2u64 {
        check_against_model(seed, 40_000, Shape::SameInstant);
    }
}

#[test]
fn bursts_across_spawned_bucket_boundaries_match_the_model() {
    for seed in 0..3u64 {
        check_against_model(seed, 100_000, Shape::BoundaryBursts);
    }
}

/// Build a jittered source → tap → sink sim and capture its trace.
fn capture_trace(seed: u64, secs: f64) -> Vec<u64> {
    let mut b = SimBuilder::new(MasterSeed::new(seed));
    let (_sink_handle, sink) = Sink::new();
    let sink_id = b.add_node(Box::new(sink));
    let (tap_handle, tap) = Tap::new(None, Some(sink_id));
    let tap_id = b.add_node(Box::new(tap));
    // Exponential inter-arrivals drive the per-node RNG stream, so any
    // engine-level reordering would desynchronize draws and show up in
    // the timestamps.
    b.add_node(Box::new(DistSource::new(
        tap_id,
        FlowId::PADDED,
        PacketKind::Payload,
        Box::new(Exponential::new(0.001).unwrap()),
        Box::new(Exponential::new(500.0).unwrap()),
    )));
    let mut sim = b.build().unwrap();
    sim.run_until(SimTime::from_secs_f64(secs));
    // Interleave a resumed segment to cover run_until boundaries.
    sim.run_for(SimDuration::from_secs_f64(secs));
    tap_handle.with_timestamps(|ts| ts.iter().map(|t| t.as_nanos()).collect())
}

#[test]
fn same_master_seed_replays_bit_identical_traces() {
    let a = capture_trace(0xDEAD_BEEF, 2.0);
    let b = capture_trace(0xDEAD_BEEF, 2.0);
    assert!(a.len() > 1_000, "trace long enough to be meaningful");
    assert_eq!(a, b, "identical MasterSeed must replay bit-for-bit");
}

#[test]
fn different_master_seeds_diverge() {
    let a = capture_trace(1, 1.0);
    let b = capture_trace(2, 1.0);
    assert_ne!(a, b);
}
