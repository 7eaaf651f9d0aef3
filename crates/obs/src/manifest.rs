//! Machine-readable run manifests.
//!
//! A manifest is the one-file answer to "what did this run do": seed,
//! spec digest, totals, per-shard breakdown, the merged metric
//! snapshot, and — crucially — an explicit `interrupted` flag with the
//! truncation point when a watchdog cut the run short. Before this
//! existed, a truncated sharded run looked exactly like a complete one
//! unless the caller thought to check `ShardedRun::interrupted()`;
//! the manifest makes partial results impossible to mistake for full
//! ones.
//!
//! Schema is versioned (`linkpad-run-manifest-v1`) and rendered with
//! the same hand-rolled JSON writer as everything else in this crate,
//! so `linkpad_bench::json` can read it back.

use crate::json::{escape, num};
use crate::metrics::Snapshot;
use crate::profile::ProfileReport;

/// Schema tag embedded in every manifest.
pub const MANIFEST_SCHEMA: &str = "linkpad-run-manifest-v1";

/// Where a watchdog-truncated run was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// Complete merged windows retained.
    pub complete_windows: usize,
    /// Lowest-indexed shard whose watchdog tripped.
    pub first_tripped_shard: usize,
    /// Sim time (nanoseconds) that shard had reached when it tripped.
    pub sim_nanos: u64,
}

/// Per-shard slice of a run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Shard index.
    pub shard: usize,
    /// First flow id owned by this shard.
    pub flow_start: usize,
    /// Number of flows owned by this shard.
    pub flow_count: usize,
    /// Events this shard's sim processed.
    pub events: u64,
    /// Arrivals this shard's observer recorded.
    pub arrivals: u64,
    /// Complete observer windows this shard produced.
    pub windows: usize,
    /// Peak pending events sampled in this shard's sim.
    pub pending_peak: usize,
    /// Whether this shard's watchdog tripped.
    pub interrupted: bool,
    /// Engine self-profile, when the run enabled profiling.
    pub profile: Option<ProfileReport>,
}

impl ShardManifest {
    fn to_json(&self) -> String {
        let profile = match &self.profile {
            Some(p) => format!(",\"profile\":{}", p.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"shard\":{},\"flow_start\":{},\"flow_count\":{},\"events\":{},\
             \"arrivals\":{},\"windows\":{},\"pending_peak\":{},\"interrupted\":{}{}}}",
            self.shard,
            self.flow_start,
            self.flow_count,
            self.events,
            self.arrivals,
            self.windows,
            self.pending_peak,
            self.interrupted,
            profile,
        )
    }
}

/// Machine-readable summary of one run, written next to figures and CI
/// artifacts via `--report <path>`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Binary (or scenario) that produced the run, e.g. `fig_million_flows`.
    pub bin: String,
    /// Base seed of the run.
    pub seed: u64,
    /// FNV-1a digest of the scenario spec, formatted `fnv1a:<hex>`.
    pub spec_digest: String,
    /// Whether any shard was watchdog-interrupted — if `true`, every
    /// aggregate below is a **prefix**, not a full-run total.
    pub interrupted: bool,
    /// Truncation point when `interrupted`.
    pub truncation: Option<Truncation>,
    /// Wall-clock duration of the run, measured by the harness.
    pub wall_secs: f64,
    /// Total events across all shard sims.
    pub events: u64,
    /// Total observed arrivals.
    pub arrivals: u64,
    /// Complete merged windows.
    pub windows: usize,
    /// Maximum per-shard pending peak.
    pub peak_pending: usize,
    /// Per-shard breakdown.
    pub shards: Vec<ShardManifest>,
    /// Merged metric snapshot (counters superposed across shards).
    pub metrics: Snapshot,
}

impl RunManifest {
    /// Render the manifest as a JSON object.
    pub fn to_json(&self) -> String {
        let truncation = match &self.truncation {
            Some(t) => format!(
                "{{\"complete_windows\":{},\"first_tripped_shard\":{},\"sim_nanos\":{}}}",
                t.complete_windows, t.first_tripped_shard, t.sim_nanos
            ),
            None => "null".to_string(),
        };
        let shards: Vec<String> = self.shards.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"bin\": \"{}\",\n  \"seed\": {},\n  \
             \"spec_digest\": \"{}\",\n  \"interrupted\": {},\n  \"truncation\": {},\n  \
             \"wall_secs\": {},\n  \"events\": {},\n  \"arrivals\": {},\n  \
             \"windows\": {},\n  \"peak_pending\": {},\n  \"shards\": [{}],\n  \
             \"metrics\": {}\n}}\n",
            MANIFEST_SCHEMA,
            escape(&self.bin),
            self.seed,
            escape(&self.spec_digest),
            self.interrupted,
            truncation,
            num(self.wall_secs),
            self.events,
            self.arrivals,
            self.windows,
            self.peak_pending,
            shards.join(","),
            self.metrics.to_json(),
        )
    }

    /// Write the manifest to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> RunManifest {
        let mut reg = Registry::new();
        let c = reg.counter("trunk.arrivals");
        reg.add(c, 42);
        RunManifest {
            bin: "fig_test".to_string(),
            seed: 977,
            spec_digest: format!("fnv1a:{:016x}", crate::fnv1a(b"spec")),
            interrupted: false,
            truncation: None,
            wall_secs: 1.25,
            events: 100,
            arrivals: 42,
            windows: 5,
            peak_pending: 7,
            shards: vec![ShardManifest {
                shard: 0,
                flow_start: 0,
                flow_count: 10,
                events: 100,
                arrivals: 42,
                windows: 5,
                pending_peak: 7,
                interrupted: false,
                profile: None,
            }],
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn manifest_renders_schema_and_totals() {
        let j = sample().to_json();
        assert!(j.contains("\"schema\": \"linkpad-run-manifest-v1\""));
        assert!(j.contains("\"seed\": 977"));
        assert!(j.contains("\"interrupted\": false"));
        assert!(j.contains("\"truncation\": null"));
        assert!(j.contains("\"trunk.arrivals\""));
        assert!(j.contains("\"shard\":0"));
    }

    #[test]
    fn truncated_manifest_carries_the_cut_point() {
        let mut m = sample();
        m.interrupted = true;
        m.truncation = Some(Truncation {
            complete_windows: 3,
            first_tripped_shard: 1,
            sim_nanos: 600_000_000,
        });
        let j = m.to_json();
        assert!(j.contains("\"interrupted\": true"));
        assert!(j.contains("\"complete_windows\":3"));
        assert!(j.contains("\"sim_nanos\":600000000"));
    }

    #[test]
    fn manifest_roundtrips_through_a_file() {
        let dir = std::env::temp_dir().join("linkpad-obs-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = sample();
        m.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, m.to_json());
        let _ = std::fs::remove_file(&path);
    }
}
