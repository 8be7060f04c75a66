//! Engine attachment: the controller as a passive external device.

use crate::controller::Controller;
use agile_sim::Cycles;
use gpu_sim::ExternalDevice;
use std::sync::Arc;

/// Bridges a [`Controller`] into the engine's scheduling loop, exactly like
/// the metrics `MetricsBridge`: it never requests a wakeup, so
/// installing it cannot perturb event timing by itself — any
/// behaviour change comes from the knobs the controller turns, which is the
/// point. Polling every few rounds keeps the per-round cost to a counter
/// increment while window boundaries are still picked up promptly.
pub struct ControlBridge {
    controller: Arc<Controller>,
    rounds: u32,
}

impl ControlBridge {
    /// Scheduling rounds between controller polls (matches the metrics
    /// bridge's cadence so the two observe the same boundaries).
    const POLL_EVERY: u32 = 32;

    /// A bridge driving `controller`.
    pub fn new(controller: Arc<Controller>) -> Self {
        ControlBridge {
            controller,
            rounds: 0,
        }
    }
}

impl ExternalDevice for ControlBridge {
    fn advance_to(&mut self, now: Cycles) {
        self.rounds += 1;
        if self.rounds.is_multiple_of(Self::POLL_EVERY) {
            self.controller.poll(now.raw());
        }
    }
    fn next_event_time(&mut self) -> Option<Cycles> {
        None
    }
}
