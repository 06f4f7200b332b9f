//! # eventsim — an event-driven functional logic simulator
//!
//! The simulation engine of the fpgatest infrastructure, playing the role
//! Hades plays in the DATE'05 paper: an event-based simulator whose
//! components can be structural (the operator library instantiated from
//! datapath netlists) or behavioral (control units interpreted from FSM
//! tables), with the observation and control features the paper lists as
//! requirements — probes, assertions, watchpoints/stop mechanisms, and
//! waveform (VCD) dumping.
//!
//! ## Layers
//!
//! * [`Simulator`]/[`Context`] — the delta-cycle event kernel.
//! * [`ops`] — the operator library: functional units, muxes, registers,
//!   clock/reset generators, and the behavioral [`ops::ControlUnit`].
//! * [`MemHandle`]/[`Sram`] — SRAM models with shared contents.
//! * [`probe`] — probes, watchpoints, assertions.
//! * [`netlist`] / [`hds`] — declarative structural netlists and the
//!   `.hds` text format the XML datapaths are translated into.
//! * [`vcd`] — waveform export.
//! * [`cyclesim`] — a naive evaluate-everything-per-cycle baseline used by
//!   the kernel-vs-baseline ablation benchmark, and the independent
//!   reference the bytecode engine is checked against.
//! * [`batchsim`] — the compiled engine: levelizes the combinational
//!   netlist once into a bytecode program (`BatchProgram`), and walks it
//!   with a dirty bitset over `W` stimulus lanes of per-walk state.
//!   `BatchSim<1>` is the level engine, `BatchSim<LANES>` the 64-lane
//!   batch engine.
//! * [`profile`] — opt-in per-component evaluation timing through
//!   [`KernelHook`]; strictly zero cost unless installed.
//!
//! ## Example
//!
//! ```
//! use eventsim::{Simulator, SimTime, Value, ops::{ConstDriver, BinOp, OpKind}};
//!
//! # fn main() -> Result<(), eventsim::SimError> {
//! let mut sim = Simulator::new();
//! let a = sim.add_signal("a", 16);
//! let b = sim.add_signal("b", 16);
//! let y = sim.add_signal("y", 16);
//! sim.add_component(ConstDriver::new("ca", a, Value::known(16, 40)));
//! sim.add_component(ConstDriver::new("cb", b, Value::known(16, 2)));
//! sim.add_component(BinOp::new("add0", OpKind::Add, a, b, y, 16));
//! sim.run(SimTime(10))?;
//! assert_eq!(sim.value(y).as_i64(), 42);
//! # Ok(())
//! # }
//! ```

mod component;
pub mod batchsim;
pub mod cyclesim;
pub mod cpu;
pub mod faults;
pub mod hds;
mod kernel;
#[cfg(test)]
mod levelsim;
mod memory;
pub mod netlist;
pub mod ops;
pub mod probe;
pub mod profile;
mod simmodel;
mod value;
pub mod vcd;

pub use component::{Component, ComponentId, Sensitivity, SignalId};
pub use kernel::{
    Change, Context, KernelHook, KernelStats, RunOutcome, RunSummary, SimError, SimTime, Simulator,
};
pub use memory::{MemHandle, Sram};
pub use value::{mask, sign_extend, Value, MAX_WIDTH};
