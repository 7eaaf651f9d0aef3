//! `cohort_shards`: 5·10⁴ flows as 1 024-flow cohorts on 2 shards.
//!
//! Two `defense_grid` rows run back to back through
//! `ShardedAggregate` on two threads, uniform clock phases, 20τ
//! observer windows: `cit`, which the cohort simulates as an exact comb,
//! and non-reactive `adaptive` padding, which it simulates with a
//! per-member next-fire heap. Both adversary channels (window counts and
//! window bytes) must recover the flow count.
//!
//! The traced iteration also drives every shard itself, one after the
//! other, from `ShardedAggregate::shard_builder`: profiled, then reset
//! and replayed under the sampled attribution. Merging those shards'
//! windows must give the fan-out's merged series exactly.

use crate::digest::Digest;
use crate::layers::{ratio, AttrTotals, EngineTotals, Layers};
use crate::spans::Spans;
use crate::{Iteration, Workload};
use linkpad_adversary::aggregate::{estimate_flow_count, estimate_flow_count_from_bytes};
use linkpad_bench::perf::{defense_grid, provisioned_trunk_bps};
use linkpad_sim::observer::{merge_window_series, WindowStats};
use linkpad_sim::AttributionSampler;
use linkpad_stats::rng::splitmix64_mix;
use linkpad_workloads::aggregate::PhaseSpec;
use linkpad_workloads::scenario::ScenarioBuilder;
use linkpad_workloads::shard::{ShardedAggregate, ShardedRun};
use linkpad_workloads::spec::{PayloadModel, ScheduleSpec};
use std::time::Instant;

/// Flows in the aggregate.
pub const FLOWS: usize = 50_000;
/// Flows per cohort node.
const COHORT: usize = 1_024;
/// Shards, and worker threads for the fan-out.
const SHARDS: usize = 2;
/// Observer window in padding periods.
const WINDOW_OVER_TAU: f64 = 20.0;
/// Leading windows skipped by the estimators (clock phase-in).
const SKIP: usize = 1;
/// Windows the estimators read; the run ends with the last of them.
const MEASURED: usize = 2;
/// The `defense_grid` rows this workload runs.
const ROWS: [&str; 2] = ["cit", "adaptive"];
/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 25;
/// Run slices per shard, as the fan-out runs them.
const SLICES: usize = 8;
/// Sample every n-th dispatch in the attribution replay.
const ATTR_EVERY: u64 = 64;
/// Both channels' estimates must land within this share of the truth.
const MAX_FLOW_COUNT_ERR: f64 = 0.10;

struct Row {
    label: &'static str,
    schedule: ScheduleSpec,
    payload: PayloadModel,
    sharded: ShardedAggregate,
}

/// The workload.
pub struct CohortShards {
    rows: Vec<Row>,
    window: f64,
    sim_secs: f64,
    tau: f64,
    packet_size: u32,
}

impl CohortShards {
    /// The workload for seed `seed`.
    pub fn new(seed: u64) -> Self {
        let defaults = ScenarioBuilder::aggregate(seed, FLOWS).defaults;
        let tau = defaults.tau;
        let window = WINDOW_OVER_TAU * tau;
        let rows = defense_grid()
            .into_iter()
            .filter(|(label, _, _)| ROWS.contains(label))
            .enumerate()
            .map(|(i, (label, schedule, payload))| {
                let builder =
                    ScenarioBuilder::aggregate(splitmix64_mix(seed ^ (i as u64 + 1)), FLOWS)
                        .with_payload_rate(10.0)
                        .with_trunk(provisioned_trunk_bps(FLOWS), 5e-3)
                        .with_trunk_observer(window)
                        .with_cohorts(COHORT)
                        .with_shards(SHARDS)
                        .with_phases(PhaseSpec::Uniform {
                            seed: splitmix64_mix(seed.wrapping_add(0x5eed)),
                        })
                        .with_schedule(schedule)
                        .with_payload_model(payload);
                Row {
                    label,
                    schedule,
                    payload,
                    sharded: ShardedAggregate::new(builder).expect("valid sharded configuration"),
                }
            })
            .collect();
        Self {
            rows,
            window,
            sim_secs: window * (SKIP + MEASURED) as f64,
            tau,
            packet_size: defaults.packet_size,
        }
    }

    /// Flow-count error (%) of the count and the byte channel over the
    /// steady-state windows.
    fn errors(&self, row: &Row, windows: &[WindowStats]) -> Result<(f64, f64), String> {
        let span = SKIP..SKIP + MEASURED;
        if windows.len() < span.end {
            return Err(format!("{}: only {} windows", row.label, windows.len()));
        }
        let interval = row.schedule.mean_interval(self.tau);
        let counts: Vec<f64> = windows[span.clone()]
            .iter()
            .map(|w| w.count as f64)
            .collect();
        let rates: Vec<f64> = windows[span]
            .iter()
            .map(|w| w.bytes as f64 / self.window)
            .collect();
        let count_est =
            estimate_flow_count(&counts, self.window / interval).map_err(|e| e.to_string())?;
        let byte_est = estimate_flow_count_from_bytes(
            &rates,
            self.window,
            row.payload.mean_bytes(self.packet_size),
            self.window / interval,
        )
        .map_err(|e| e.to_string())?;
        Ok((
            count_est.relative_error(FLOWS) * 100.0,
            byte_est.relative_error(FLOWS) * 100.0,
        ))
    }
}

impl Workload for CohortShards {
    /// Build every shard topology of both rows, as the fan-out does.
    fn setup_samples(&mut self) -> Result<Vec<f64>, String> {
        let mut samples = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            for row in &self.rows {
                for s in 0..row.sharded.shards() {
                    drop(
                        row.sharded
                            .shard_builder(s)
                            .build()
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
            samples.push(t.elapsed().as_secs_f64());
        }
        Ok(samples)
    }

    fn iterate(&mut self, spans: &mut Spans) -> Result<Iteration, String> {
        let mark = spans.spans().len();
        let start = Instant::now();
        let mut runs: Vec<ShardedRun> = Vec::new();
        let mut fanout_s = 0.0;
        for row in &self.rows {
            let t = Instant::now();
            let run = spans
                .time("shard.fanout", |_| {
                    row.sharded.run_for_secs_with_threads(self.sim_secs, SHARDS)
                })
                .map_err(|e| format!("{}: {e}", row.label))?;
            fanout_s += t.elapsed().as_secs_f64();
            runs.push(run);
        }
        let mut errors = Vec::new();
        spans.time("adversary.estimate", |_| -> Result<(), String> {
            for (row, run) in self.rows.iter().zip(&runs) {
                errors.push(self.errors(row, &run.windows)?);
            }
            Ok(())
        })?;
        let wall_s = start.elapsed().as_secs_f64();

        let mut digest = Digest::new();
        for run in &runs {
            digest.windows(&run.windows);
            for shard in &run.shards {
                digest.u64(shard.events);
                digest.u64(shard.arrivals);
            }
        }
        let mut it = Iteration {
            digest: digest.finish(),
            wall_s,
            rate_s: fanout_s,
            events: runs.iter().map(|r| r.events() as f64).sum(),
            piats: runs.iter().map(|r| r.arrivals() as f64).sum(),
            ..Iteration::default()
        };
        for (row, (count_err, byte_err)) in self.rows.iter().zip(&errors) {
            for (channel, err) in [("count", count_err), ("byte", byte_err)] {
                if *err > MAX_FLOW_COUNT_ERR * 100.0 {
                    it.failures.push(format!(
                        "{}: {channel}-channel flow-count error {err:.2} % > 10 %",
                        row.label
                    ));
                }
            }
        }
        if spans.is_enabled() {
            it.layers = self.drive_shards(&runs, fanout_s, mark, spans, &mut it.failures)?;
            let worst = errors.iter().map(|&(c, b)| c.max(b)).fold(0.0, f64::max);
            it.layers.insert("adversary.flow_count_err_pct", worst);
        }
        Ok(it)
    }
}

impl CohortShards {
    /// Drive every shard of every row sequentially with the engine
    /// profile on, then reset it and replay it under the attribution
    /// sampler; merge the shards' windows and compare with the fan-out.
    fn drive_shards(
        &self,
        runs: &[ShardedRun],
        fanout_s: f64,
        iteration_mark: usize,
        spans: &mut Spans,
        failures: &mut Vec<String>,
    ) -> Result<Layers, String> {
        let mark = spans.spans().len();
        let mut engine = EngineTotals::default();
        let mut attr_all = AttrTotals::default();
        let mut out = Layers::new();
        let (mut emitted, mut ticks, mut arrivals) = (0u64, 0u64, 0u64);
        let (mut windows_total, mut nodes) = (0usize, 0usize);
        // (slowest, mean) shard run time per row: the slowest shard
        // sets each fan-out's wall time.
        let mut row_times = Vec::new();
        for (row, run) in self.rows.iter().zip(runs) {
            let mut per_shard = Vec::new();
            let mut shard_run_s = Vec::new();
            let mut attr = AttrTotals::default();
            for s in 0..row.sharded.shards() {
                let mut sc = spans
                    .time("shard.build", |_| row.sharded.shard_builder(s).build())
                    .map_err(|e| e.to_string())?;
                nodes += sc.sim.node_count();
                sc.sim.enable_profiling();
                let t = Instant::now();
                spans.time("shard.run", |_| {
                    for _ in 0..SLICES {
                        sc.run_for_secs(self.sim_secs / SLICES as f64);
                    }
                });
                let run_s = t.elapsed().as_secs_f64();
                shard_run_s.push(run_s);
                let profile = sc.sim.profile_report().ok_or("profile missing")?;
                engine.add(&profile, sc.sim.events_processed(), run_s);
                let h = sc
                    .aggregate
                    .as_ref()
                    .ok_or("shard without aggregate handles")?;
                let observer = h
                    .trunk_observer
                    .as_ref()
                    .ok_or("shard without trunk observer")?;
                emitted += h.cohorts.iter().map(|c| c.emitted()).sum::<u64>();
                ticks += h.gateways.iter().map(|g| g.ticks()).sum::<u64>();
                arrivals += observer.arrivals();
                windows_total += observer.windows();
                per_shard.push(observer.window_series());
                let end = sc.sim.now();
                let seed = row.sharded.shard_seed(s);
                spans.time("scenario.reset", |_| sc.reset(seed));
                sc.sim.disable_profiling();
                let mut sampler = AttributionSampler::new(ATTR_EVERY);
                spans.time("engine.attributed", |_| {
                    sc.sim.run_until_attributed(end, &mut sampler)
                });
                let report = sampler.report();
                attr.add(&report);
                attr_all.add(&report);
            }
            let merged = spans.time("shard.merge", |_| {
                let mut merged = Vec::new();
                for w in &per_shard {
                    merge_window_series(&mut merged, w);
                }
                merged
            });
            if merged != run.windows {
                failures.push(format!(
                    "{}: merging the sequentially driven shards differs from the fan-out",
                    row.label
                ));
            }
            let slowest = shard_run_s.iter().copied().fold(0.0, f64::max);
            let mean = ratio(shard_run_s.iter().sum(), shard_run_s.len() as f64);
            row_times.push((slowest, mean));
            let key = match row.label {
                "cit" => "cohort.cit.ns_per_event",
                _ => "cohort.adaptive.ns_per_event",
            };
            out.insert(key, attr.ns_per_dispatch("cohort"));
        }
        if !engine.events_balance() {
            failures.push("engine events differ from timer plus deliver events".into());
        }
        engine.emit(&mut out);
        attr_all.emit(&mut out);
        let slowest: f64 = row_times.iter().map(|t| t.0).sum();
        let mean: f64 = row_times.iter().map(|t| t.1).sum();
        out.insert("scenario.nodes", nodes as f64);
        out.insert("scenario.reset_s", spans.self_secs(mark, "scenario.reset"));
        out.insert("cohort.emitted", emitted as f64);
        out.insert("gateway.ticks", ticks as f64);
        // The trunk router forwards every arrival the observer sees.
        out.insert("router.forwarded", arrivals as f64);
        out.insert("observer.arrivals", arrivals as f64);
        out.insert("observer.windows", windows_total as f64);
        out.insert("shard.build_s", spans.self_secs(mark, "shard.build"));
        out.insert("shard.run_max_s", slowest);
        out.insert("shard.imbalance", ratio(slowest, mean));
        out.insert("shard.merge_s", spans.self_secs(mark, "shard.merge"));
        // Summed shard run times over (threads × fan-out wall): with one
        // shard per thread that is the mean shard time over the fan-out.
        out.insert("shard.parallel_eff", ratio(mean, fanout_s));
        out.insert(
            "adversary.estimate_s",
            spans.self_secs(iteration_mark, "adversary.estimate"),
        );
        Ok(out)
    }
}
