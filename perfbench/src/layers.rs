//! Per-layer counters read from the program's public reports.
//!
//! The traced run turns on the engine's own self-profile
//! ([`Sim::enable_profiling`](linkpad_sim::Sim::enable_profiling)) and
//! its sampled wall-time attribution
//! ([`Sim::run_until_attributed`](linkpad_sim::Sim::run_until_attributed))
//! and folds what they report into the benchmark's per-layer metric
//! names. This module only sums and divides; it measures nothing itself.

use linkpad_obs::ProfileReport;
use linkpad_sim::AttributionReport;
use std::collections::BTreeMap;

/// Per-layer metrics of one traced iteration, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Engine and event-store counters summed over profiled runs.
#[derive(Debug, Default, Clone)]
pub struct EngineTotals {
    run_s: f64,
    events: u64,
    timer: u64,
    deliver: u64,
    batches: u64,
    pending_peak: u64,
    push_near: u64,
    push_rung: u64,
    push_far: u64,
    refills: u64,
    rebases: u64,
    rebase_moved: u64,
}

impl EngineTotals {
    /// Fold one profiled run: its profile, the events the engine says
    /// it dispatched, and the host seconds it took.
    pub fn add(&mut self, profile: &ProfileReport, events: u64, run_s: f64) {
        self.run_s += run_s;
        self.events += events;
        self.timer += profile.timer_events;
        self.deliver += profile.deliver_events;
        self.batches += profile.deliver_batches;
        self.pending_peak = self.pending_peak.max(profile.depth_peak);
        let s = &profile.store;
        self.push_near += s.push_near;
        self.push_rung += s.push_rung;
        self.push_far += s.push_far;
        self.refills += s.refills;
        self.rebases += s.rebases;
        self.rebase_moved += s.rebase_moved;
    }

    /// Does every profiled event show up as a timer or a delivery?
    pub fn events_balance(&self) -> bool {
        self.events == self.timer + self.deliver
    }

    /// Write the `engine.*` and `equeue.*` metrics.
    pub fn emit(&self, out: &mut Layers) {
        let events = self.events as f64;
        out.insert("engine.run_s", self.run_s);
        out.insert("engine.events", events);
        out.insert("engine.ns_per_event", ratio(self.run_s * 1e9, events));
        out.insert("engine.timer_events", self.timer as f64);
        out.insert("engine.deliver_events", self.deliver as f64);
        out.insert(
            "engine.mean_batch",
            ratio(self.deliver as f64, self.batches as f64),
        );
        out.insert("equeue.pending_peak", self.pending_peak as f64);
        out.insert("equeue.push_near", self.push_near as f64);
        out.insert("equeue.push_rung", self.push_rung as f64);
        out.insert("equeue.push_far", self.push_far as f64);
        out.insert("equeue.refills", self.refills as f64);
        out.insert("equeue.rebases", self.rebases as f64);
        let ops =
            self.push_near + self.push_rung + self.push_far + self.refills + self.rebase_moved;
        out.insert("equeue.ops_per_event", ratio(ops as f64, events));
    }
}

/// The node types the attribution metrics report, with the label
/// prefixes (after the engine strips numeric instance suffixes) that
/// belong to each.
pub const NODE_TYPES: &[(&str, &[&str])] = &[
    ("gateway", &["gw1", "gw2"]),
    ("trunk", &["trunk"]),
    ("trunk-demux", &["trunk-demux"]),
    ("tap", &["tap@"]),
    ("observer", &["observer@"]),
    ("cohort", &["cohort"]),
];

/// Attribution rows summed over sampled runs, per node type.
#[derive(Debug, Default, Clone)]
pub struct AttrTotals {
    store_ns: u64,
    context_ns: u64,
    dispatch_ns: u64,
    /// (samples, handler ns) per entry of [`NODE_TYPES`].
    by_type: Vec<(u64, u64)>,
}

impl AttrTotals {
    /// Fold one attribution report.
    pub fn add(&mut self, report: &AttributionReport) {
        self.by_type.resize(NODE_TYPES.len(), (0, 0));
        for row in &report.rows {
            self.store_ns += row.store_ns;
            self.context_ns += row.context_ns;
            self.dispatch_ns += row.dispatch_ns;
            if let Some(i) = node_type(&row.label) {
                self.by_type[i].0 += row.samples;
                self.by_type[i].1 += row.dispatch_ns;
            }
        }
    }

    /// Handler ns per sampled dispatch of node type `name`, 0 when the
    /// type never ran.
    pub fn ns_per_dispatch(&self, name: &str) -> f64 {
        NODE_TYPES
            .iter()
            .position(|(n, _)| *n == name)
            .and_then(|i| self.by_type.get(i))
            .map_or(0.0, |&(samples, ns)| ratio(ns as f64, samples as f64))
    }

    /// Write the `attr.*` metrics.
    pub fn emit(&self, out: &mut Layers) {
        let total = (self.store_ns + self.context_ns + self.dispatch_ns) as f64;
        out.insert("attr.store_frac", ratio(self.store_ns as f64, total));
        out.insert("attr.context_frac", ratio(self.context_ns as f64, total));
        out.insert("attr.dispatch_frac", ratio(self.dispatch_ns as f64, total));
        for (i, (name, _)) in NODE_TYPES.iter().enumerate() {
            let (samples, ns) = self.by_type.get(i).copied().unwrap_or((0, 0));
            out.insert(attr_metric(name), ratio(ns as f64, samples as f64));
        }
    }
}

fn node_type(label: &str) -> Option<usize> {
    NODE_TYPES.iter().position(|(_, prefixes)| {
        prefixes
            .iter()
            .any(|p| label == *p || (p.ends_with('@') && label.starts_with(p)))
    })
}

/// The metric name of node type `name`'s handler cost.
fn attr_metric(name: &str) -> &'static str {
    match name {
        "gateway" => "attr.gateway.ns_per_dispatch",
        "trunk" => "attr.trunk.ns_per_dispatch",
        "trunk-demux" => "attr.trunk-demux.ns_per_dispatch",
        "tap" => "attr.tap.ns_per_dispatch",
        "observer" => "attr.observer.ns_per_dispatch",
        _ => "attr.cohort.ns_per_dispatch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_sim::AttributionRow;

    #[test]
    fn node_types_match_engine_labels() {
        assert_eq!(node_type("gw1"), Some(0));
        assert_eq!(node_type("gw2"), Some(0));
        assert_eq!(node_type("trunk"), Some(1));
        assert_eq!(node_type("trunk-demux"), Some(2));
        assert_eq!(node_type("tap@gw1"), Some(3));
        assert_eq!(node_type("observer@trunk"), Some(4));
        assert_eq!(node_type("cohort"), Some(5));
        assert_eq!(node_type("source"), None);
        assert_eq!(node_type("router"), None);
    }

    #[test]
    fn attribution_fractions_and_handler_cost() {
        let row = |label: &str, samples, store_ns, context_ns, dispatch_ns| AttributionRow {
            label: label.to_string(),
            samples,
            store_ns,
            context_ns,
            dispatch_ns,
        };
        let report = AttributionReport {
            rows: vec![row("gw1", 4, 100, 20, 80), row("source", 1, 0, 0, 100)],
            sample_every: 1,
            dispatches_seen: 5,
        };
        let mut totals = AttrTotals::default();
        totals.add(&report);
        let mut out = Layers::new();
        totals.emit(&mut out);
        assert!((out["attr.store_frac"] - 100.0 / 300.0).abs() < 1e-12);
        assert!((out["attr.dispatch_frac"] - 180.0 / 300.0).abs() < 1e-12);
        assert_eq!(out["attr.gateway.ns_per_dispatch"], 20.0);
        assert_eq!(out["attr.cohort.ns_per_dispatch"], 0.0);
        assert_eq!(totals.ns_per_dispatch("gateway"), 20.0);
    }
}
