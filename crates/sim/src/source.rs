//! Distribution-driven traffic source.
//!
//! [`DistSource`] emits packets whose inter-arrival times and sizes come
//! from pluggable `linkpad-stats` distributions. This covers CBR payload
//! (deterministic intervals), Poisson cross traffic (exponential
//! intervals, categorical sizes) and Poisson payload.
//! Richer behaviours (rate switching, diurnal modulation) live in
//! `linkpad-workloads` as their own nodes.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::{FlowId, PacketKind};
use crate::time::SimDuration;
use linkpad_stats::dist::ContinuousDist;

/// A source emitting packets toward `dst`.
pub struct DistSource {
    dst: NodeId,
    flow: FlowId,
    kind: PacketKind,
    interval: Box<dyn ContinuousDist>,
    size: Box<dyn ContinuousDist>,
    label: String,
}

impl DistSource {
    /// New source: inter-arrival times from `interval` (seconds), sizes
    /// from `size` (bytes, rounded and clamped to at least 1).
    pub fn new(
        dst: NodeId,
        flow: FlowId,
        kind: PacketKind,
        interval: Box<dyn ContinuousDist>,
        size: Box<dyn ContinuousDist>,
    ) -> Self {
        Self {
            dst,
            flow,
            kind,
            interval,
            size,
            label: "source".to_string(),
        }
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    fn arm_next(&mut self, ctx: &mut Context<'_>) {
        let gap = self.interval.sample(ctx.rng).max(0.0);
        ctx.schedule_timer(SimDuration::from_secs_f64(gap), 0);
    }
}

impl Node for DistSource {
    fn on_packet(&mut self, _packet: crate::packet::Packet, _ctx: &mut Context<'_>) {
        // Sources ignore inbound traffic.
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.arm_next(ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
        let size = self.size.sample(ctx.rng).round().max(1.0) as u32;
        let pkt = ctx.spawn_packet(self.flow, self.kind, size);
        ctx.send_now(self.dst, pkt);
        self.arm_next(ctx);
    }

    /// A source keeps no per-run state: its timers live in the engine.
    fn reset(&mut self) {}

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::sink::Sink;
    use crate::time::SimTime;
    use linkpad_stats::dist::{Deterministic, Exponential};
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn cbr_source_emits_at_fixed_rate() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (handle, sink) = Sink::new();
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(DistSource::new(
            sink_id,
            FlowId::PADDED,
            PacketKind::Payload,
            Box::new(Deterministic::new(0.1).unwrap()),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.05));
        assert_eq!(handle.count(), 10);
        let times = handle.arrival_times();
        for (i, t) in times.iter().enumerate() {
            assert_eq!(t.as_nanos(), (i as u64 + 1) * 100_000_000);
        }
    }

    #[test]
    fn poisson_source_rate_is_right_on_average() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (handle, sink) = Sink::new();
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(DistSource::new(
            sink_id,
            FlowId::CROSS,
            PacketKind::Cross,
            Box::new(Exponential::with_rate(200.0).unwrap()),
            Box::new(Deterministic::new(1500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(50.0));
        let rate = handle.count() as f64 / 50.0;
        assert!((rate - 200.0).abs() < 10.0, "rate = {rate}");
    }

    #[test]
    fn sizes_are_clamped_to_at_least_one_byte() {
        let mut b = SimBuilder::new(MasterSeed::new(6));
        let (handle, sink) = Sink::new();
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(DistSource::new(
            sink_id,
            FlowId::PADDED,
            PacketKind::Payload,
            Box::new(Deterministic::new(0.01).unwrap()),
            Box::new(Deterministic::new(-5.0).unwrap()), // degenerate size law
        )));
        let mut sim = b.build().unwrap();
        // Emissions at 10, 20 and 30 ms fall before the horizon.
        sim.run_until(SimTime::from_secs_f64(0.035));
        assert_eq!(handle.count(), 3);
        assert_eq!(handle.bytes(), 3); // clamped to 1 byte each
    }
}
