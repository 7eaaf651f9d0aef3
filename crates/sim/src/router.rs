//! FIFO output-queued router.
//!
//! The router is the physical origin of the paper's `δ_net` disturbance
//! (eq. 10): the padded flow shares the router's egress link with cross
//! traffic, so padded packets are delayed by the *residual service time
//! and queue backlog* left by cross-traffic packets. As the shared-link
//! utilization grows, the variance of that delay grows, `r → 1`, and the
//! detection rate falls — the mechanism behind Fig. 6 and Fig. 8.
//!
//! Model: single egress with service rate `bits_per_sec`; all arrivals
//! (any input) join one unbounded FIFO queue; fixed egress propagation
//! delay.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::Packet;
use crate::time::SimDuration;
use std::collections::VecDeque;

/// Timer tag used for service completions.
const SERVICE_DONE: u64 = 0;

/// A store-and-forward router with one egress.
#[derive(Debug)]
pub struct Router {
    next: NodeId,
    bits_per_sec: f64,
    propagation: SimDuration,
    queue: VecDeque<Packet>,
    /// Packet currently in service, if any.
    in_service: Option<Packet>,
    label: String,
}

impl Router {
    /// A router forwarding to `next` over an egress of `bits_per_sec`,
    /// with the given propagation delay to the next hop.
    ///
    /// # Panics
    /// Panics on a non-positive bandwidth (topology constant).
    pub fn new(next: NodeId, bits_per_sec: f64, propagation: SimDuration) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec > 0.0,
            "router bandwidth must be positive, got {bits_per_sec}"
        );
        Self {
            next,
            bits_per_sec,
            propagation,
            queue: VecDeque::new(),
            in_service: None,
            label: "router".to_string(),
        }
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    fn start_service(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let tx = SimDuration::from_secs_f64(packet.tx_time_secs(self.bits_per_sec));
        self.in_service = Some(packet);
        ctx.schedule_timer(tx, SERVICE_DONE);
    }
}

impl Node for Router {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if self.in_service.is_none() {
            self.start_service(packet, ctx);
        } else {
            self.queue.push_back(packet);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(tag, SERVICE_DONE);
        let packet = self
            .in_service
            .take()
            .expect("service completion without a packet in service");
        ctx.send_after(self.propagation, self.next, packet);
        if let Some(next_pkt) = self.queue.pop_front() {
            self.start_service(next_pkt, ctx);
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.in_service = None;
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::packet::{FlowId, PacketKind};
    use crate::sink::Sink;
    use crate::time::SimTime;
    use linkpad_stats::rng::MasterSeed;

    /// Pushes `n` packets into `dst` back-to-back at t = 0.
    struct Blaster {
        dst: NodeId,
        n: usize,
        size: u32,
    }
    impl Node for Blaster {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Payload, self.size);
                ctx.send_now(self.dst, pkt);
            }
        }
    }

    #[test]
    fn fifo_service_spaces_departures() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (handle, sink) = Sink::new();
        let sink_id = b.add_node(Box::new(sink));
        // 100 Mb/s: 500 B → 40 µs service.
        let r = b.add_node(Box::new(Router::new(sink_id, 100e6, SimDuration::ZERO)));
        b.add_node(Box::new(Blaster {
            dst: r,
            n: 3,
            size: 500,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        let ns: Vec<u64> = handle
            .arrival_times()
            .iter()
            .map(|t| t.as_nanos())
            .collect();
        assert_eq!(ns, vec![40_000, 80_000, 120_000]);
    }

    #[test]
    fn label_defaults_and_overrides() {
        let mut router = Router::new(NodeId(0), 100e6, SimDuration::ZERO);
        assert_eq!(router.label(), "router");
        router = router.with_label("esr-5000");
        assert_eq!(router.label(), "esr-5000");
    }

    #[test]
    fn cross_traffic_perturbs_padded_flow_timing() {
        // A padded CBR flow shares the router with a bursty cross flow;
        // padded inter-arrival variance at the sink must exceed the
        // no-cross-traffic case. This is δ_net in miniature.
        fn piat_variance(with_cross: bool) -> f64 {
            let mut b = SimBuilder::new(MasterSeed::new(42));
            let (handle, sink) = Sink::new();
            let sink_id = b.add_node(Box::new(sink));
            let r = b.add_node(Box::new(Router::new(sink_id, 10e6, SimDuration::ZERO)));

            /// CBR source, 1 kHz, 500 B, padded flow.
            struct Cbr {
                dst: NodeId,
            }
            impl Node for Cbr {
                fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
                }
                fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
                    let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
                    ctx.send_now(self.dst, pkt);
                    ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
                }
            }
            /// Poisson-ish cross source using the node RNG.
            struct Cross {
                dst: NodeId,
            }
            impl Node for Cross {
                fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    ctx.schedule_timer(SimDuration::from_micros_f64(700.0), 0);
                }
                fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
                    let pkt = ctx.spawn_packet(FlowId::CROSS, PacketKind::Cross, 1500);
                    ctx.send_now(self.dst, pkt);
                    let u = ctx.rng.next_f64();
                    let gap = -700.0 * (1.0 - u).ln();
                    ctx.schedule_timer(SimDuration::from_micros_f64(gap.max(1.0)), 0);
                }
            }
            b.add_node(Box::new(Cbr { dst: r }));
            if with_cross {
                b.add_node(Box::new(Cross { dst: r }));
            }
            let mut sim = b.build().unwrap();
            sim.run_until(SimTime::from_secs_f64(20.0));
            let times = handle.arrival_times_for_flow(FlowId::PADDED);
            let piats: Vec<f64> = times
                .windows(2)
                .map(|w| (w[1].saturating_since(w[0])).as_secs_f64())
                .collect();
            linkpad_stats::moments::sample_variance(&piats).unwrap()
        }
        let quiet = piat_variance(false);
        let noisy = piat_variance(true);
        assert!(
            noisy > quiet * 10.0,
            "cross traffic must inflate PIAT variance: quiet={quiet:e}, noisy={noisy:e}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn bad_bandwidth_panics() {
        let _ = Router::new(NodeId(0), -1.0, SimDuration::ZERO);
    }
}
