//! Shard balance of the event store, gated on deterministic work
//! counters instead of wall time.
//!
//! Shard 0 of a sharded cohort aggregate also carries the target flow's
//! gateway scaffold: a few sparse early timers that once sized shard
//! 0's first ladder cycle so wide that its near heap held the whole
//! pending set, while shard 1 ran small windows over the same event
//! count — and a fan-out waits for its slowest shard. The store now
//! splits an overfull near window, so both shards must run comparable
//! windows, and the split geometry must replay exactly across reset and
//! rebuild. Depth samples are keyed to simulation time and bit-exact
//! per seed, so the gate can be tight without timing noise.

use linkpad_obs::ProfileReport;
use linkpad_workloads::aggregate::PhaseSpec;
use linkpad_workloads::scenario::{BuiltScenario, ScenarioBuilder};
use linkpad_workloads::shard::ShardedAggregate;

const FLOWS: usize = 20_000;
const COHORT: usize = 1_024;
const SIM_SECS: f64 = 0.3;

/// The uniform-phase cohort aggregate, two shards, target on shard 0.
fn sharded() -> ShardedAggregate {
    let tau = ScenarioBuilder::aggregate(7, FLOWS).defaults.tau;
    let builder = ScenarioBuilder::aggregate(7, FLOWS)
        .with_payload_rate(10.0)
        .with_trunk((FLOWS as f64 * 1e6).max(10e9), 5e-3)
        .with_trunk_observer(20.0 * tau)
        .with_cohorts(COHORT)
        .with_shards(2)
        .with_phases(PhaseSpec::Uniform { seed: 11 });
    ShardedAggregate::new(builder).expect("valid sharded configuration")
}

/// Build shard `s` and run it profiled.
fn profiled_shard(sharded: &ShardedAggregate, s: usize) -> (BuiltScenario, ProfileReport) {
    let mut sc = sharded.shard_builder(s).build().expect("shard builds");
    sc.sim.enable_profiling();
    sc.run_for_secs(SIM_SECS);
    let profile = sc.sim.profile_report().expect("profiling is on");
    (sc, profile)
}

/// Mean sampled near-window depth of a profiled run.
fn mean_near_depth(profile: &ProfileReport) -> f64 {
    assert!(profile.depth.len() > 100, "enough depth samples");
    let total: u64 = profile.depth.iter().map(|d| d.near).sum();
    total as f64 / profile.depth.len() as f64
}

#[test]
fn target_shard_runs_near_windows_like_its_sibling() {
    let sharded = sharded();
    let target = mean_near_depth(&profiled_shard(&sharded, 0).1);
    let sibling = mean_near_depth(&profiled_shard(&sharded, 1).1);
    assert!(
        target <= 2.0 * sibling && sibling <= 2.0 * target,
        "mean near depth: target shard {target:.0}, sibling shard {sibling:.0}"
    );
}

#[test]
fn split_windows_replay_across_reset_and_rebuild() {
    let sharded = sharded();
    let (mut sc, first) = profiled_shard(&sharded, 0);
    assert!(first.store.splits > 0, "the target shard split its window");
    sc.reset(sharded.shard_seed(0));
    sc.run_for_secs(SIM_SECS);
    let replay = sc.sim.profile_report().expect("profiling survives reset");
    assert_eq!(replay, first, "reset replays the store geometry exactly");
    let (_, rebuilt) = profiled_shard(&sharded, 0);
    assert_eq!(rebuilt, first, "a rebuild replays it too");
}
