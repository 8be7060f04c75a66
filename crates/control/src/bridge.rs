//! Engine attachment: the controller as a passive external device.

use crate::controller::Controller;
use agile_sim::Cycles;
use gpu_sim::ExternalDevice;
use std::sync::Arc;

/// Bridges a [`Controller`] into the engine's scheduling loop, exactly like
/// the metrics `MetricsBridge`: its one event is the next window boundary of
/// the controller's sampler, so the controller runs on each window the
/// moment it closes and its decisions are a function of simulated time
/// alone — not of how many rounds the scheduler happened to run. The round
/// at a boundary steps no warp; any behaviour change comes from the knobs
/// the controller turns, which is the point.
pub struct ControlBridge {
    controller: Arc<Controller>,
    /// The boundary this bridge polls at next. Kept here because the metrics
    /// bridge, advanced first, has already moved the sampler past it by the
    /// time this bridge sees the same round.
    due: u64,
}

impl ControlBridge {
    /// A bridge driving `controller`.
    pub fn new(controller: Arc<Controller>) -> Self {
        let due = controller.next_window_boundary();
        ControlBridge { controller, due }
    }
}

impl ExternalDevice for ControlBridge {
    fn advance_to(&mut self, now: Cycles) {
        if now.raw() >= self.due {
            self.controller.poll(now.raw());
            self.due = self.controller.next_window_boundary();
        }
    }
    fn next_event_time(&mut self) -> Option<Cycles> {
        Some(Cycles(self.due))
    }
}
