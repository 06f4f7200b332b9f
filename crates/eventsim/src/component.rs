//! The component model: identifiers and the [`Component`] trait.

use crate::kernel::Context;
use std::fmt;

/// Identifier of a signal within one [`Simulator`](crate::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) usize);

impl SignalId {
    /// The underlying index (stable for the lifetime of the simulator).
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a component within one [`Simulator`](crate::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) usize);

impl ComponentId {
    /// Rebuilds an id from a raw index — only meaningful against the
    /// simulator whose tables produced that index (e.g. profile rows).
    pub fn from_index(index: usize) -> ComponentId {
        ComponentId(index)
    }

    /// The underlying index (stable for the lifetime of the simulator).
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// When a sensitivity entry triggers evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Every value change.
    Any,
    /// Only changes *to* a true (non-zero) value — for 1-bit signals,
    /// the rising edge. Edge-triggered components (registers, control
    /// units) use this so the falling clock edge costs nothing. A rising
    /// entry must be its component's only entry: the kernel schedules a
    /// signal's rising-edge sinks together, as one edge group.
    Rising,
}

/// One sensitivity-list entry: a signal and when it triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sensitivity {
    /// The watched signal.
    pub signal: SignalId,
    /// The triggering condition.
    pub sense: Sense,
}

impl Sensitivity {
    /// Trigger on every change.
    pub fn any(signal: SignalId) -> Self {
        Sensitivity {
            signal,
            sense: Sense::Any,
        }
    }

    /// Trigger only on changes to non-zero (rising edge for 1-bit
    /// signals).
    pub fn rising(signal: SignalId) -> Self {
        Sensitivity {
            signal,
            sense: Sense::Rising,
        }
    }
}

impl From<SignalId> for Sensitivity {
    fn from(signal: SignalId) -> Self {
        Sensitivity::any(signal)
    }
}

/// A simulation model reacting to events on its input signals.
///
/// Components are the unit of behaviour in the event kernel, playing the
/// role of Hades' simulation objects: the operator library, registers,
/// memories, clock generators, probes, and the behavioral control units
/// translated from the FSM XML all implement this trait.
///
/// The kernel calls [`init`](Component::init) once when simulation starts
/// and [`react`](Component::react) whenever any signal in
/// [`inputs`](Component::inputs) changes (or a self-scheduled wake-up
/// fires). All scheduling happens through the [`Context`].
pub trait Component {
    /// Instance name used in diagnostics, waveforms, and reports.
    fn name(&self) -> &str;

    /// Sensitivity list: the signals whose updates trigger
    /// [`react`](Component::react). Queried once at registration.
    ///
    /// A rising-edge entry (`Sensitivity::rising(clk)`) must be the only
    /// entry; registration panics otherwise. Such a component may treat
    /// every `react` call that is not a self-scheduled wake-up as a
    /// rising clock edge.
    fn inputs(&self) -> Vec<Sensitivity>;

    /// Called once at simulation start, before any event is processed. Use
    /// it to drive initial values or schedule the first self wake-up.
    fn init(&mut self, _ctx: &mut Context<'_>) {}

    /// Called whenever an input changed or a wake-up fired.
    fn react(&mut self, ctx: &mut Context<'_>);

    /// An optional evaluation gate, the kernel-level analogue of a clock
    /// enable. Returning `Some(signal)` promises that whenever `signal`
    /// is not currently true (zero or `X`), [`react`](Component::react)
    /// is a no-op: it reads nothing else and schedules nothing.
    ///
    /// The gate matters only for a rising-edge sink: its signal's edge
    /// group keeps the sink armed while the gate is true, and a rising
    /// edge calls `react` on armed sinks only, while still counting every
    /// sink's evaluation. That makes the pervasive "disabled register on
    /// a clock edge" case nearly free. Any other component, and any
    /// self-scheduled wake-up, is always dispatched.
    ///
    /// Queried once at registration, like [`inputs`](Component::inputs).
    /// The default (`None`) never skips.
    fn eval_gate(&self) -> Option<SignalId> {
        None
    }
}
