//! Deterministic run telemetry for the linkpad workspace.
//!
//! Everything the stack can observe about a run — engine self-profiling,
//! workload counters, harness lifecycle events, machine-readable run
//! manifests — flows through this crate. It is deliberately
//! **dependency-free** and split along the determinism boundary:
//!
//! * [`metrics`] and [`profile`] are the deterministic core. Values are
//!   integers, sim-time-stamped (`u64` nanoseconds of *simulated* time),
//!   and snapshots merge with the same discipline as the observer's
//!   window series (counters superpose, gauges take peaks, histograms
//!   pool bucket-wise) — so a snapshot is a pure function of
//!   `(spec, seed)` and is compared bit-for-bit by the determinism
//!   tests. No wall clock exists in these modules; `linkpad-lint`'s
//!   DET_WALLCLOCK rule enforces that.
//! * [`trace`] extends the deterministic core with *causality*: an
//!   opt-in bounded recorder whose records carry the **parent event
//!   id** threaded through the engine's scheduler, plus Perfetto /
//!   flamegraph exporters. Traces replay bit-for-bit like snapshots.
//! * [`events`] and [`manifest`] are the harness boundary. Lifecycle
//!   events carry wall-clock stamps (a shard retry *is* a wall-clock
//!   phenomenon) and manifests record wall time measured by the caller;
//!   both serialize to JSON for CI artifacts and downstream tooling.
//!   The one `Instant` lives in [`events`] behind an individually
//!   justified lint allowlist entry.
//!
//! The zero-cost contract: a simulation that never installs a profile
//! or sink pays one predictable branch per run call and nothing per
//! event: with nothing armed, `Sim::run_until` takes the plain loop
//! (pinned by the engine's profiled/traced-vs-plain tests). See
//! DESIGN.md §Observability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use events::{EventLog, HarnessEvent};
pub use manifest::{RunManifest, ShardManifest, Truncation};
pub use metrics::{CounterId, GaugeId, HistId, Histogram, MetricValue, Registry, Snapshot};
pub use profile::{DepthSample, EngineProfile, ProfileReport, StoreCounters};
pub use trace::{TraceEventKind, TraceRecord, TraceRecorder, TraceReport, NO_PARENT};

/// FNV-1a 64-bit hash — the spec-digest primitive for run manifests.
/// Stable across platforms and releases (it is pure arithmetic), so two
/// manifests with equal digests ran byte-identical specs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
