//! Flow cohorts: K padded flows superposed in one node.
//!
//! The aggregate scenario family models every padded flow as its own
//! sender/receiver gateway pair — faithful, but ~10 boxed nodes and one
//! armed timer per flow, which walls the family at ~10⁴ flows. The key
//! structural fact of CIT padding unlocks the next two orders of
//! magnitude: a CIT gateway's wire output is a **deterministic comb**.
//! Flow k with start phase φₖ emits exactly one fixed-size packet at
//! every nominal instant `φₖ + j·τ` (j ≥ 1), each transmission shifted
//! by an independent per-tick disturbance δ — and nothing else about the
//! flow (payload content, queue state) is visible on the wire. The
//! superposition of K such flows is therefore itself a deterministic
//! comb: the multiset union `⋃ₖ {φₖ + j·τ}`, one iid δ per emission.
//!
//! [`FlowCohort`] simulates that union directly: one node holds the
//! sorted per-cohort **phase vector** (collapsed to unique phases with
//! multiplicities) and keeps exactly **one pending timer event** for the
//! next emission instant, re-arming along the phase cycle. A cohort of
//! K = 1024 flows costs the event store the same as one gateway; a
//! million flows fit in ~10³ nodes. See `DESIGN.md` ("cohort
//! superposition") for the exactness argument and the places the
//! identity would break — VIT schedules (per-flow clock drift), the
//! `Relative` timer discipline (δ feeds back into the period), and
//! payload overload (queue dynamics coupling ticks) — all of which this
//! node deliberately refuses to model.
//!
//! The per-tick disturbance is reproduced by [`CohortJitter`], mirroring
//! `GatewayJitterModel` (that type lives upstream in `linkpad-core`,
//! which depends on this crate): a zero-mean baseline normal plus an
//! interrupt-blocking exponential triggered with the per-tick payload
//! arrival probability `p = rate·τ`, behind the same 6σ causality
//! offset. With jitter disabled the cohort makes **zero RNG draws** and
//! its emission times are bit-exact nominal instants — the regime the
//! exactness tests compare against real `SenderGateway`s.
//!
//! # Stochastic cohorts
//!
//! The comb above is exact only for deterministic schedules (CIT,
//! constant-rate). Stochastic defences — VIT interval laws, adaptive
//! padding — give each member its own random clock, so the cohort
//! carries **per-member next-fire state** instead: a small in-node
//! binary heap of `(next nominal fire time, member index)` pairs, one
//! entry per member, driven by a [`MemberSchedule`] (an interval *law*
//! shared iid across members, or per-member machines like adaptive
//! padding). The engine still sees **one pending timer event per
//! cohort** — the heap minimum — so a stochastic cohort costs the event
//! store the same as a deterministic one and `ShardedAggregate` scales
//! every defence to 10⁶ flows. Determinism: the heap pops in the total
//! order `(time, member)`, and all draws come off the cohort node's
//! single RNG stream, so runs replay bit-identically under
//! `reset(seed)`.
//!
//! Both paths draw per emission in one order — jitter δ, then wire size,
//! then (heap only) the member's next interval — the same order as the
//! sender gateway's tick. A `Deterministic(τ)` member schedule therefore
//! drives the heap bit-exactly along the comb, jitter and size law
//! included. What the heap does *not* preserve is the
//! gateway fan-in's *stream interleaving*: K real gateways draw from K
//! independent RNG streams, the cohort from one, so stochastic-regime
//! equivalence is distributional (window count/byte moments), not
//! bit-exact — see `defense_equivalence.rs` and DESIGN.md.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::{FlowId, PacketKind};
use crate::time::{SimDuration, SimTime};
use linkpad_stats::dist::{ContinuousDist, Exponential};
use linkpad_stats::normal::Normal;
use linkpad_stats::rng::Xoshiro256StarStar;
use rand_core::RngCore;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Conventional wire flow id for cohort-generated traffic. Cohort
/// members are indistinguishable on the wire (constant size, encrypted),
/// so they share one id; scenario demuxes absorb it instead of fanning
/// out per-flow branches.
pub const COHORT_FLOW: FlowId = FlowId(u32::MAX);

const TICK: u64 = 0;

/// Per-member interval source of a stochastic cohort: `member` is the
/// within-cohort index (position in the sorted phase vector). Called
/// once per emission in the deterministic heap pop order, plus once per
/// member (in member order) at start to seed the heap.
pub trait MemberSchedule: std::fmt::Debug {
    /// Draw member `member`'s next inter-emission interval, seconds.
    /// Must be positive (the cohort floors to 1 ns defensively).
    fn next_interval_secs(&mut self, member: u32, rng: &mut dyn RngCore) -> f64;

    /// Return any machine state to its initial value (the next
    /// `on_start` re-seeds the heap from a fresh RNG stream).
    fn reset(&mut self);
}

/// A [`MemberSchedule`] where every member draws iid intervals from one
/// shared law — the stochastic-cohort form of the VIT families (each
/// member's clock is an independent renewal process of the same law).
#[derive(Debug)]
pub struct LawSchedule {
    law: Box<dyn ContinuousDist>,
}

impl LawSchedule {
    /// Wrap an interval law (mean must be positive; the caller
    /// validates, as `PaddingSchedule` constructors already do).
    pub fn new(law: Box<dyn ContinuousDist>) -> Self {
        Self { law }
    }
}

impl MemberSchedule for LawSchedule {
    fn next_interval_secs(&mut self, _member: u32, rng: &mut dyn RngCore) -> f64 {
        self.law.sample(rng).max(1e-6)
    }

    fn reset(&mut self) {}
}

/// Per-emission disturbance model of a cohort member, mirroring the
/// sender gateway's δ_gw: baseline OS jitter plus payload-arrival
/// interrupt blocking (see `linkpad-core`'s `GatewayJitterModel`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortJitter {
    /// Baseline zero-mean normal jitter σ_base, seconds.
    pub base_sigma: f64,
    /// Mean of the interrupt-blocking delay per payload arrival, seconds.
    pub blocking_mean: f64,
    /// Probability that a payload packet arrived during the tick period
    /// (`p = payload_rate · τ`, clamped to [0, 1] — the Bernoulli
    /// arrival regime of all the paper's experiments).
    pub arrival_prob: f64,
}

/// Materialized samplers for [`CohortJitter`] (built once per cohort so
/// the per-emission path allocates nothing).
#[derive(Debug)]
struct JitterSamplers {
    base: Option<Normal>,
    blocking: Option<Exponential>,
    arrival_prob: f64,
    /// Constant causality offset (6σ_base), as in the gateway.
    pipeline_offset: f64,
}

impl JitterSamplers {
    fn new(j: CohortJitter) -> Self {
        assert!(
            j.base_sigma.is_finite() && j.base_sigma >= 0.0,
            "cohort jitter base_sigma must be finite and non-negative"
        );
        assert!(
            j.blocking_mean.is_finite() && j.blocking_mean >= 0.0,
            "cohort jitter blocking_mean must be finite and non-negative"
        );
        assert!(
            j.arrival_prob.is_finite() && (0.0..=1.0).contains(&j.arrival_prob),
            "cohort jitter arrival_prob must be in [0, 1]"
        );
        Self {
            base: (j.base_sigma > 0.0)
                .then(|| Normal::new(0.0, j.base_sigma).expect("validated sigma")),
            blocking: (j.blocking_mean > 0.0 && j.arrival_prob > 0.0)
                .then(|| Exponential::new(j.blocking_mean).expect("validated mean")),
            arrival_prob: j.arrival_prob,
            pipeline_offset: 6.0 * j.base_sigma,
        }
    }

    /// One member flow's send delay for this tick (non-negative).
    #[inline]
    fn sample_send_delay(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        let mut delay = match &self.base {
            Some(n) => n.sample(rng),
            None => 0.0,
        };
        if let Some(blk) = &self.blocking {
            if rng.next_f64() < self.arrival_prob {
                delay += blk.sample(rng);
            }
        }
        (self.pipeline_offset + delay).max(0.0)
    }
}

#[derive(Debug, Default)]
struct CohortStats {
    emitted: u64,
}

/// Read handle for cohort instrumentation (single-threaded shared state,
/// like the gateway handles).
#[derive(Debug, Clone)]
pub struct CohortHandle {
    stats: Rc<RefCell<CohortStats>>,
    flows: u32,
}

impl CohortHandle {
    /// Packets emitted so far (over all member flows).
    pub fn emitted(&self) -> u64 {
        self.stats.borrow().emitted
    }

    /// Number of member flows this cohort superposes.
    pub fn flows(&self) -> u32 {
        self.flows
    }
}

/// Per-member next-fire state of a stochastic cohort (heap mode).
#[derive(Debug)]
struct MemberState {
    sched: Box<dyn MemberSchedule>,
    /// Member `m`'s clock start offset (sorted ascending; the member
    /// index is the position in this vector).
    phases: Vec<SimDuration>,
    /// `(next nominal fire time, member)` — `Reverse` turns the std
    /// max-heap into a min-heap popping in `(time, member)` order.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
}

/// A node emitting the superposed arrival process of K padded flows:
/// an exact comb for deterministic schedules, a per-member next-fire
/// heap for stochastic ones (see the module docs).
pub struct FlowCohort {
    /// Unique nominal phases (offset from each period start, `< τ`),
    /// sorted ascending, with the number of member flows at each.
    schedule: Vec<(SimDuration, u32)>,
    tau: SimDuration,
    next: NodeId,
    flow: FlowId,
    packet_size: u32,
    /// Wire-size law for variable-payload defences (`None` → every
    /// packet is exactly `packet_size`, zero RNG draws).
    size_law: Option<Box<dyn ContinuousDist>>,
    jitter: Option<JitterSamplers>,
    /// Per-member state when a [`MemberSchedule`] is installed
    /// (stochastic mode); `None` runs the exact comb.
    member: Option<MemberState>,
    /// Index into `schedule` of the next emission.
    idx: usize,
    /// Nominal start of the current period cycle (`j·τ`; emissions of
    /// cycle `j` fire at `j·τ + phase`).
    cycle_base: SimTime,
    stats: Rc<RefCell<CohortStats>>,
    label: String,
}

impl FlowCohort {
    /// A cohort of `phases.len()` flows with period `tau`, sending every
    /// emission to `next`. `phases[k]` is flow k's clock start offset;
    /// flow k emits at `phases[k] + j·τ` for `j ≥ 1`, matching a
    /// `SenderGateway` built `with_start_phase(phases[k])`.
    ///
    /// # Panics
    /// Panics if `tau` is zero, `phases` is empty, or any phase is
    /// `≥ tau` (phases are per-period offsets; configuration constants).
    pub fn new(
        next: NodeId,
        tau: SimDuration,
        phases: &[SimDuration],
        packet_size: u32,
    ) -> (CohortHandle, Self) {
        assert!(tau > SimDuration::ZERO, "cohort period must be positive");
        assert!(!phases.is_empty(), "cohort needs at least one flow");
        assert!(
            phases.iter().all(|&p| p < tau),
            "cohort phases must lie within one period"
        );
        let mut sorted: Vec<SimDuration> = phases.to_vec();
        sorted.sort_unstable();
        let mut schedule: Vec<(SimDuration, u32)> = Vec::new();
        for p in sorted {
            match schedule.last_mut() {
                Some((q, count)) if *q == p => *count += 1,
                _ => schedule.push((p, 1)),
            }
        }
        let flows = phases.len() as u32;
        let stats = Rc::new(RefCell::new(CohortStats::default()));
        (
            CohortHandle {
                stats: Rc::clone(&stats),
                flows,
            },
            Self {
                schedule,
                tau,
                next,
                flow: COHORT_FLOW,
                packet_size,
                size_law: None,
                jitter: None,
                member: None,
                idx: 0,
                cycle_base: SimTime::ZERO,
                stats,
                label: "cohort".to_string(),
            },
        )
    }

    /// Emit under a specific wire flow id (default [`COHORT_FLOW`]).
    pub fn with_flow(mut self, flow: FlowId) -> Self {
        self.flow = flow;
        self
    }

    /// Enable the per-emission disturbance model (default: none — exact
    /// nominal combs, zero RNG draws).
    pub fn with_jitter(mut self, jitter: CohortJitter) -> Self {
        self.jitter = Some(JitterSamplers::new(jitter));
        self
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Install a per-member interval source, switching the cohort from
    /// the exact comb to the stochastic heap (see the module docs).
    /// Member `m` is the m-th entry of the sorted phase vector; its
    /// first emission lands at `phase_m + T₁(m)` where `T₁` is the
    /// member's first interval draw, matching a gateway's first tick at
    /// `start_phase + T₁`.
    pub fn with_member_schedule(mut self, sched: Box<dyn MemberSchedule>) -> Self {
        let mut phases = Vec::new();
        for &(p, count) in &self.schedule {
            for _ in 0..count {
                phases.push(p);
            }
        }
        let heap = BinaryHeap::with_capacity(phases.len());
        self.member = Some(MemberState {
            sched,
            phases,
            heap,
        });
        self
    }

    /// Install a wire-size law for variable-payload defences: each
    /// emission samples its size (floored to whole bytes, min 1).
    /// Deterministic laws make zero RNG draws, preserving bit-exactness.
    pub fn with_packet_size_law(mut self, law: Box<dyn ContinuousDist>) -> Self {
        self.size_law = Some(law);
        self
    }

    /// Wire size of one emission (a draw under a size law, else the
    /// fixed configured size).
    #[inline]
    fn sample_size(&self, rng: &mut Xoshiro256StarStar) -> u32 {
        match &self.size_law {
            Some(law) => law.sample(rng).floor().max(1.0) as u32,
            None => self.packet_size,
        }
    }

    /// Nominal absolute time of the emission at `self.idx`.
    #[inline]
    fn next_nominal(&self) -> SimTime {
        self.cycle_base + self.schedule[self.idx].0
    }

    /// Floor an interval draw to a nonzero duration so the re-armed
    /// timer always advances sim time (no same-instant livelock).
    #[inline]
    fn interval_duration(secs: f64) -> SimDuration {
        let d = SimDuration::from_secs_f64(secs);
        SimDuration::from_nanos(d.as_nanos().max(1))
    }

    /// Stochastic-mode tick: pop every member due now (in `(time,
    /// member)` order), emit one packet each — per-emission draw order
    /// is jitter δ, wire size, next interval — and re-arm one timer at
    /// the new heap minimum.
    fn on_timer_member(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let Some(ms) = self.member.as_mut() else {
            return;
        };
        let mut emitted = 0u64;
        while let Some(&Reverse((t, m))) = ms.heap.peek() {
            if t > now {
                break;
            }
            ms.heap.pop();
            let delay = self.jitter.as_ref().map(|j| j.sample_send_delay(ctx.rng));
            let size = match &self.size_law {
                Some(law) => law.sample(ctx.rng).floor().max(1.0) as u32,
                None => self.packet_size,
            };
            let pkt = ctx.spawn_packet(self.flow, PacketKind::Dummy, size);
            match delay {
                Some(d) => ctx.send_after(SimDuration::from_secs_f64(d), self.next, pkt),
                None => ctx.send_now(self.next, pkt),
            }
            let interval = ms.sched.next_interval_secs(m, ctx.rng);
            ms.heap
                .push(Reverse((t + Self::interval_duration(interval), m)));
            emitted += 1;
        }
        self.stats.borrow_mut().emitted += emitted;
        if let Some(&Reverse((t, _))) = ms.heap.peek() {
            ctx.schedule_timer(t.saturating_since(now), TICK);
        }
    }
}

impl Node for FlowCohort {
    fn on_packet(&mut self, _packet: crate::packet::Packet, _ctx: &mut Context<'_>) {
        debug_assert!(false, "cohorts generate traffic; nothing routes to them");
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(ms) = self.member.as_mut() {
            // Stochastic mode: seed every member's next-fire time in
            // member order (one interval draw each), then arm one timer
            // at the heap minimum.
            ms.heap.clear();
            for (m, &phase) in ms.phases.iter().enumerate() {
                let m = m as u32;
                let first = ms.sched.next_interval_secs(m, ctx.rng);
                let t = SimTime::ZERO + phase + Self::interval_duration(first);
                ms.heap.push(Reverse((t, m)));
            }
            if let Some(&Reverse((t, _))) = ms.heap.peek() {
                ctx.schedule_timer(t.saturating_since(ctx.now()), TICK);
            }
            return;
        }
        // First emissions land at phase + τ, one period after each
        // member's clock start — as a real gateway's first tick does.
        self.idx = 0;
        self.cycle_base = SimTime::ZERO + self.tau;
        let first = self.next_nominal();
        ctx.schedule_timer(first.saturating_since(ctx.now()), TICK);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(tag, TICK);
        if self.member.is_some() {
            self.on_timer_member(ctx);
            return;
        }
        let (_, count) = self.schedule[self.idx];
        self.stats.borrow_mut().emitted += count as u64;
        for _ in 0..count {
            // Per-emission draw order, as in the heap path and the
            // gateway: the member's jitter δ (one independent δ per
            // member flow, as each gateway's tick draws its own), then
            // wire size (variable-payload defences).
            let delay = self.jitter.as_ref().map(|j| j.sample_send_delay(ctx.rng));
            let size = self.sample_size(ctx.rng);
            let pkt = ctx.spawn_packet(self.flow, PacketKind::Dummy, size);
            match delay {
                Some(d) => ctx.send_after(SimDuration::from_secs_f64(d), self.next, pkt),
                None => ctx.send_now(self.next, pkt),
            }
        }
        // Advance along the phase cycle; wrap into the next period.
        self.idx += 1;
        if self.idx == self.schedule.len() {
            self.idx = 0;
            self.cycle_base += self.tau;
        }
        let next = self.next_nominal();
        ctx.schedule_timer(next.saturating_since(ctx.now()), TICK);
    }

    fn reset(&mut self) {
        self.idx = 0;
        self.cycle_base = SimTime::ZERO;
        if let Some(ms) = self.member.as_mut() {
            ms.heap.clear();
            ms.sched.reset();
        }
        *self.stats.borrow_mut() = CohortStats::default();
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::observer::WindowedObserver;
    use crate::tap::Tap;
    use linkpad_stats::rng::MasterSeed;

    const TAU: SimDuration = SimDuration::from_nanos(10_000_000); // 10 ms

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x)
    }

    #[test]
    fn comb_times_are_exact_nominal_instants() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let (handle, cohort) = FlowCohort::new(tap_id, TAU, &[ms(0.0), ms(2.0), ms(5.0)], 500);
        b.add_node(Box::new(cohort));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.0255));
        // Flows at phases {0, 2, 5} ms: emissions at 10, 12, 15, 20, 22,
        // 25 ms — exactly, to the nanosecond (no jitter → no RNG).
        let nanos: Vec<u64> = tap.timestamps().iter().map(|t| t.as_nanos()).collect();
        assert_eq!(
            nanos,
            vec![10_000_000, 12_000_000, 15_000_000, 20_000_000, 22_000_000, 25_000_000]
        );
        assert_eq!(handle.emitted(), 6);
        assert_eq!(handle.flows(), 3);
    }

    #[test]
    fn synchronized_phases_collapse_into_bursts() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let (handle, cohort) = FlowCohort::new(tap_id, TAU, &[SimDuration::ZERO; 64], 500);
        assert_eq!(cohort.schedule.len(), 1, "one unique phase");
        b.add_node(Box::new(cohort));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.05));
        // 5 periods × 64 flows, all at exact multiples of τ.
        assert_eq!(handle.emitted(), 5 * 64);
        assert_eq!(tap.count(), 5 * 64);
        tap.with_timestamps(|ts| {
            assert!(ts.iter().all(|t| t.as_nanos() % TAU.as_nanos() == 0));
        });
    }

    #[test]
    fn window_counts_match_flows_times_windows_over_tau() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (obs, node) = WindowedObserver::new(ms(100.0), None);
        let obs_id = b.add_node(Box::new(node));
        let phases: Vec<SimDuration> = (0..40).map(|k| ms(0.25 * k as f64)).collect();
        let (_, cohort) = FlowCohort::new(obs_id, TAU, &phases, 500);
        b.add_node(Box::new(cohort));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        // Full windows hold flows × W/τ = 40 × 10 arrivals.
        let counts = obs.counts();
        assert!(counts.len() >= 9);
        for &c in &counts[1..8] {
            assert_eq!(c, 400.0, "{counts:?}");
        }
    }

    #[test]
    fn jitter_shifts_sends_without_changing_counts() {
        let run = |jitter: Option<CohortJitter>| {
            let mut b = SimBuilder::new(MasterSeed::new(4));
            let (tap, node) = Tap::new(None, None);
            let tap_id = b.add_node(Box::new(node));
            let (_, mut cohort) = FlowCohort::new(tap_id, TAU, &[ms(0.0), ms(4.0)], 500);
            if let Some(j) = jitter {
                cohort = cohort.with_jitter(j);
            }
            b.add_node(Box::new(cohort));
            let mut sim = b.build().unwrap();
            // Stop mid-period so a µs jitter shift cannot push the last
            // emission past the run bound.
            sim.run_until(SimTime::from_secs_f64(0.9995));
            tap.timestamps()
        };
        let exact = run(None);
        let jittered = run(Some(CohortJitter {
            base_sigma: 6e-6,
            blocking_mean: 6e-6,
            arrival_prob: 0.1,
        }));
        assert_eq!(exact.len(), jittered.len(), "jitter never drops a tick");
        for (e, j) in exact.iter().zip(&jittered) {
            let shift = j.saturating_since(*e).as_secs_f64();
            assert!(
                (0.0..100e-6).contains(&shift),
                "µs-scale causal shift, got {shift}"
            );
        }
    }

    #[test]
    fn reset_replays_bit_identically() {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let (handle, cohort) = FlowCohort::new(tap_id, TAU, &[ms(1.0), ms(7.0)], 500);
        b.add_node(Box::new(cohort.with_jitter(CohortJitter {
            base_sigma: 6e-6,
            blocking_mean: 6e-6,
            arrival_prob: 0.4,
        })));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.5));
        let first = tap.timestamps();
        assert!(handle.emitted() > 0);
        sim.reset(MasterSeed::new(5));
        assert_eq!(handle.emitted(), 0, "reset clears instrumentation");
        sim.run_until(SimTime::from_secs_f64(0.5));
        assert_eq!(tap.timestamps(), first);
    }

    #[test]
    #[should_panic(expected = "phases must lie within one period")]
    fn phase_beyond_period_panics() {
        let mut b = SimBuilder::new(MasterSeed::new(6));
        let id = b.reserve();
        let _ = FlowCohort::new(id, TAU, &[TAU], 500);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_cohort_panics() {
        let mut b = SimBuilder::new(MasterSeed::new(7));
        let id = b.reserve();
        let _ = FlowCohort::new(id, TAU, &[], 500);
    }

    #[test]
    fn deterministic_law_heap_matches_the_comb_bit_exactly() {
        // A Deterministic(τ) member schedule drives the heap along the
        // same nominal grid the comb walks, with zero interval draws —
        // the two modes must agree to the nanosecond, also when both
        // draw jitter δ and a wire size per emission (same draw order).
        let jitter = CohortJitter {
            base_sigma: 20e-6,
            blocking_mean: 50e-6,
            arrival_prob: 0.4,
        };
        let run = |member: bool, jitter: Option<CohortJitter>, size_law: bool| {
            let mut b = SimBuilder::new(MasterSeed::new(11));
            let (tap, node) = Tap::new(None, None);
            let tap_id = b.add_node(Box::new(node));
            let (_, mut cohort) =
                FlowCohort::new(tap_id, TAU, &[ms(0.0), ms(2.0), ms(5.0), ms(5.0)], 500);
            if member {
                let law = Box::new(linkpad_stats::dist::Deterministic::new(0.010).unwrap());
                cohort = cohort.with_member_schedule(Box::new(LawSchedule::new(law)));
            }
            if let Some(j) = jitter {
                cohort = cohort.with_jitter(j);
            }
            if size_law {
                let law = Box::new(linkpad_stats::dist::Uniform::new(300.0, 901.0).unwrap());
                cohort = cohort.with_packet_size_law(law);
            }
            b.add_node(Box::new(cohort));
            let mut sim = b.build().unwrap();
            sim.run_until(SimTime::from_secs_f64(0.2005));
            tap.timestamps()
        };
        for (jitter, size_law) in [(None, false), (Some(jitter), false), (Some(jitter), true)] {
            let comb = run(false, jitter, size_law);
            let heap = run(true, jitter, size_law);
            assert!(!comb.is_empty());
            assert_eq!(comb, heap, "jitter {jitter:?}, size law {size_law}");
        }
    }

    #[test]
    fn stochastic_heap_replays_bit_identically_after_reset() {
        let mut b = SimBuilder::new(MasterSeed::new(12));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let phases: Vec<SimDuration> = (0..16).map(|k| ms(0.5 * k as f64)).collect();
        let (handle, cohort) = FlowCohort::new(tap_id, TAU, &phases, 500);
        let law = Box::new(Exponential::new(0.010).unwrap());
        b.add_node(Box::new(
            cohort.with_member_schedule(Box::new(LawSchedule::new(law))),
        ));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.5));
        let first = tap.timestamps();
        assert!(handle.emitted() > 0);
        sim.reset(MasterSeed::new(12));
        assert_eq!(handle.emitted(), 0);
        sim.run_until(SimTime::from_secs_f64(0.5));
        assert_eq!(tap.timestamps(), first);
    }

    #[test]
    fn stochastic_heap_rate_matches_the_law_mean() {
        // 32 members with exponential interval law of mean τ emit at
        // ~32/τ packets per second in steady state.
        let mut b = SimBuilder::new(MasterSeed::new(13));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let phases: Vec<SimDuration> = (0..32).map(|k| ms(0.25 * k as f64)).collect();
        let (_, cohort) = FlowCohort::new(tap_id, TAU, &phases, 500);
        let law = Box::new(Exponential::new(0.010).unwrap());
        b.add_node(Box::new(
            cohort.with_member_schedule(Box::new(LawSchedule::new(law))),
        ));
        let mut sim = b.build().unwrap();
        let secs = 20.0;
        sim.run_until(SimTime::from_secs_f64(secs));
        let expected = 32.0 * secs / 0.010;
        let got = tap.count() as f64;
        assert!(
            (got - expected).abs() / expected < 0.03,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn size_law_draws_variable_wire_sizes() {
        let mut b = SimBuilder::new(MasterSeed::new(14));
        let (obs, node) = WindowedObserver::new(ms(100.0), None);
        let obs_id = b.add_node(Box::new(node));
        let (_, cohort) = FlowCohort::new(obs_id, TAU, &[ms(0.0), ms(3.0)], 500);
        let law = Box::new(linkpad_stats::dist::Uniform::new(300.0, 901.0).unwrap());
        b.add_node(Box::new(cohort.with_packet_size_law(law)));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(2.0));
        let series = obs.window_series();
        let (count, bytes) = series
            .iter()
            .fold((0u64, 0u64), |(c, by), w| (c + w.count, by + w.bytes));
        assert!(count > 100);
        let mean = bytes as f64 / count as f64;
        // U[300, 901) floored to whole bytes has mean ≈ 600.
        assert!((mean - 600.0).abs() < 25.0, "mean wire size {mean}");
    }
}
