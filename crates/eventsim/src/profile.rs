//! Per-component evaluation timing for the event kernel.
//!
//! [`EvalTimer`] is a [`KernelHook`] that opts into the kernel's
//! per-evaluation timing (`KernelHook::wants_evals`) and accumulates
//! `(evals, nanos)` per component locally, merging into a shared
//! [`EvalProfile`] handle at run end — the flow installs the hook,
//! runs, and harvests the handle afterwards without owning the
//! simulator. Timing only observes: kernel counters, scheduling, and
//! results are bit-identical with or without the hook installed.

use crate::component::ComponentId;
use crate::kernel::{KernelHook, RunSummary};
use std::sync::{Arc, Mutex};

/// Accumulated per-component evaluation timing.
#[derive(Debug, Clone, Default)]
pub struct EvalProfile {
    /// `(evals, nanos)` indexed by component id; components never
    /// evaluated keep `(0, 0)`.
    pub components: Vec<(u64, u64)>,
}

impl EvalProfile {
    /// Total timed evaluations across all components.
    pub fn total_evals(&self) -> u64 {
        self.components.iter().map(|(evals, _)| evals).sum()
    }
}

/// The shared handle [`EvalTimer::new`] returns alongside the hook.
pub type EvalProfileHandle = Arc<Mutex<EvalProfile>>;

/// A [`KernelHook`] timing every ungated component evaluation.
#[derive(Debug)]
pub struct EvalTimer {
    shared: EvalProfileHandle,
    local: Vec<(u64, u64)>,
}

impl EvalTimer {
    /// Creates the hook plus the handle its totals are merged into at
    /// each run end.
    pub fn new() -> (EvalTimer, EvalProfileHandle) {
        let shared: EvalProfileHandle = Arc::default();
        (
            EvalTimer {
                shared: Arc::clone(&shared),
                local: Vec::new(),
            },
            shared,
        )
    }
}

impl KernelHook for EvalTimer {
    fn wants_evals(&self) -> bool {
        true
    }

    fn on_eval(&mut self, component: ComponentId, nanos: u64) {
        if component.0 >= self.local.len() {
            self.local.resize(component.0 + 1, (0, 0));
        }
        let slot = &mut self.local[component.0];
        slot.0 += 1;
        slot.1 += nanos;
    }

    fn on_run_end(&mut self, _summary: &RunSummary) {
        let mut shared = self
            .shared
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if shared.components.len() < self.local.len() {
            shared.components.resize(self.local.len(), (0, 0));
        }
        for (index, (evals, nanos)) in self.local.iter().enumerate() {
            shared.components[index].0 += evals;
            shared.components[index].1 += nanos;
        }
        self.local.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Clock, Counter};
    use crate::{SimTime, Simulator};

    fn counter_sim() -> Simulator {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let count = sim.add_signal("count", 8);
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(Counter::new("cnt0", clk, count));
        sim
    }

    #[test]
    fn timer_accumulates_and_counters_stay_identical() {
        let mut plain = counter_sim();
        plain.run(SimTime(100)).unwrap();

        let mut timed = counter_sim();
        let (timer, handle) = EvalTimer::new();
        timed.set_hook(Box::new(timer));
        timed.run(SimTime(100)).unwrap();

        assert_eq!(plain.stats(), timed.stats(), "profiling changed counters");
        let profile = handle.lock().unwrap();
        assert!(profile.total_evals() > 0, "no evaluations were timed");
        // Gated no-op activations count in the histogram but are never
        // dispatched, hence never timed.
        assert!(
            profile.total_evals() <= timed.activation_counts().iter().sum::<u64>(),
            "timed more evaluations than activations"
        );
    }
}
