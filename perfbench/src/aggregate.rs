//! `aggregate_trunk`: 10⁴ padded gateway pairs on one long-haul trunk.
//!
//! `ScenarioBuilder::aggregate(seed, 10_000).with_trunk(10e9, 0.1)
//! .with_trunk_observer(0.2)`, unsharded and single-threaded. With a
//! 100 ms trunk about 130 k events are pending at any instant, so the
//! event store and the boxed node dispatch carry the work. Each
//! iteration builds the topology, warms it until the trunk is full, then
//! times a fixed span of simulated steady state and reads the trunk
//! observer's windows with the rate-law flow-count estimator.
//!
//! The traced iteration also turns on the engine profile for the timed
//! span, resets the topology, and replays the warm-up and a shorter span
//! under the sampled wall-time attribution.

use crate::digest::Digest;
use crate::layers::{ratio, AttrTotals, EngineTotals, Layers};
use crate::spans::Spans;
use crate::{Iteration, Workload};
use linkpad_adversary::aggregate::estimate_flow_count;
use linkpad_sim::time::SimDuration;
use linkpad_sim::AttributionSampler;
use linkpad_workloads::scenario::{AggregateHandles, BuiltScenario, ScenarioBuilder};
use std::time::Instant;

/// Gateway pairs on the trunk.
pub const FLOWS: usize = 10_000;
/// Trunk propagation delay, seconds.
const TRUNK_PROPAGATION: f64 = 0.1;
/// Observer window, seconds (20 padding periods).
const WINDOW: f64 = 0.2;
/// Simulated warm-up, seconds: fills the trunk and skips the first,
/// partly empty, windows.
const WARMUP: f64 = 0.4;
/// Simulated steady state timed per iteration, seconds.
const MEASURED: f64 = 1.0;
/// Simulated span of the attribution replay after the warm-up.
const ATTRIBUTED: f64 = 0.2;
/// Sample every n-th dispatch in the attribution replay.
const ATTR_EVERY: u64 = 64;
/// The rate-law estimate must land within this share of the truth.
const MAX_FLOW_COUNT_ERR: f64 = 0.10;

/// The workload.
pub struct AggregateTrunk {
    builder: ScenarioBuilder,
}

impl AggregateTrunk {
    /// The workload for seed `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            builder: ScenarioBuilder::aggregate(seed, FLOWS)
                .with_trunk(10e9, TRUNK_PROPAGATION)
                .with_trunk_observer(WINDOW),
        }
    }
}

fn handles(s: &BuiltScenario) -> Result<&AggregateHandles, String> {
    s.aggregate
        .as_ref()
        .ok_or_else(|| "aggregate scenario without aggregate handles".to_string())
}

/// Packets all sender gateways have handed to the trunk.
fn offered(h: &AggregateHandles) -> u64 {
    h.gateways
        .iter()
        .map(|g| g.payload_sent() + g.dummy_sent())
        .sum()
}

impl Workload for AggregateTrunk {
    /// Every iteration builds and warms its own topology and reports
    /// that as its set-up sample.
    fn setup_samples(&mut self) -> Result<Vec<f64>, String> {
        Ok(Vec::new())
    }

    fn iterate(&mut self, spans: &mut Spans) -> Result<Iteration, String> {
        let traced = spans.is_enabled();
        let mark = spans.spans().len();
        let start = Instant::now();
        let mut s = spans
            .time("scenario.build", |_| self.builder.build())
            .map_err(|e| e.to_string())?;
        spans.time("scenario.warmup", |_| s.run_for_secs(WARMUP));
        let setup_s = start.elapsed().as_secs_f64();
        let observer = handles(&s)?
            .trunk_observer
            .clone()
            .ok_or("trunk observer missing")?;
        let (events0, arrivals0) = (s.sim.events_processed(), observer.arrivals());
        if traced {
            s.sim.enable_profiling();
        }
        // Traced runs pause one propagation delay (plus half a padding
        // period, clear of the synchronized tick bursts) before the end
        // to read what the gateways have offered the trunk by then: all
        // of it has reached the observer by the end unless the trunk
        // dropped it.
        let tau = self.builder.defaults.tau;
        let measured_ns = SimDuration::from_secs_f64(MEASURED).as_nanos();
        let tail_ns = SimDuration::from_secs_f64(TRUNK_PROPAGATION + tau / 2.0).as_nanos();
        let mut offered_early = 0;
        let run_start = Instant::now();
        spans.time("engine.run", |_| {
            if traced {
                s.sim
                    .run_for(SimDuration::from_nanos(measured_ns - tail_ns));
                offered_early = handles(&s).map_or(0, offered);
                s.sim.run_for(SimDuration::from_nanos(tail_ns));
            } else {
                s.sim.run_for(SimDuration::from_nanos(measured_ns));
            }
        });
        let run_s = run_start.elapsed().as_secs_f64();
        let events = s.sim.events_processed() - events0;
        let arrivals = observer.arrivals() - arrivals0;
        let windows = observer.window_series();
        let skip = (WARMUP / WINDOW).round() as usize;
        let measured = (MEASURED / WINDOW).round() as usize;
        let estimate = spans.time("adversary.estimate", |_| {
            let counts: Vec<f64> = windows.iter().map(|w| w.count as f64).collect();
            counts
                .get(skip..skip + measured)
                .ok_or_else(|| format!("only {} trunk windows", counts.len()))
                .and_then(|c| estimate_flow_count(c, WINDOW / tau).map_err(|e| e.to_string()))
        })?;
        let wall_s = start.elapsed().as_secs_f64();

        let mut digest = Digest::new();
        digest.windows(&windows);
        digest.u64(events);
        let err_pct = estimate.relative_error(FLOWS) * 100.0;
        let mut it = Iteration {
            digest: digest.finish(),
            wall_s,
            rate_s: run_s,
            setup_s: Some(setup_s),
            events: events as f64,
            piats: arrivals as f64,
            ..Iteration::default()
        };
        if err_pct > MAX_FLOW_COUNT_ERR * 100.0 {
            it.failures.push(format!(
                "count-channel flow-count error {err_pct:.2} % > 10 %"
            ));
        }
        if traced {
            let mut out = Layers::new();
            let profile = s.sim.profile_report().ok_or("profile missing")?;
            let mut engine = EngineTotals::default();
            engine.add(&profile, events, run_s);
            if !engine.events_balance() {
                it.failures
                    .push("engine events differ from timer plus deliver events".into());
            }
            engine.emit(&mut out);
            let h = handles(&s)?;
            let ticks: u64 = h.gateways.iter().map(|g| g.ticks()).sum();
            let dummies: u64 = h.gateways.iter().map(|g| g.dummy_sent()).sum();
            out.insert("scenario.nodes", s.sim.node_count() as f64);
            out.insert("gateway.ticks", ticks as f64);
            out.insert(
                "gateway.dummy_frac",
                ratio(dummies as f64, offered(h) as f64),
            );
            out.insert("router.forwarded", observer.arrivals() as f64);
            out.insert(
                "router.drops",
                offered_early.saturating_sub(observer.arrivals()) as f64,
            );
            out.insert("observer.arrivals", observer.arrivals() as f64);
            out.insert("observer.windows", observer.windows() as f64);
            out.insert("adversary.flow_count_err_pct", err_pct);

            let seed = self.builder.seed();
            spans.time("scenario.reset", |_| s.reset(seed));
            s.sim.disable_profiling();
            s.run_for_secs(WARMUP);
            let mut sampler = AttributionSampler::new(ATTR_EVERY);
            let until = s.sim.now() + SimDuration::from_secs_f64(ATTRIBUTED);
            spans.time("engine.attributed", |_| {
                s.sim.run_until_attributed(until, &mut sampler)
            });
            let mut attr = AttrTotals::default();
            attr.add(&sampler.report());
            attr.emit(&mut out);
            out.insert("scenario.build_s", spans.self_secs(mark, "scenario.build"));
            out.insert("scenario.reset_s", spans.self_secs(mark, "scenario.reset"));
            out.insert(
                "adversary.estimate_s",
                spans.self_secs(mark, "adversary.estimate"),
            );
            it.layers = out;
        }
        Ok(it)
    }
}
