//! A deliberately naive cycle-based reference simulator.
//!
//! The paper motivates its event-driven Java simulation by noting that
//! software RTL simulation "can be faster than commercial HDL simulators".
//! To make that claim measurable without a commercial tool, this module
//! provides the slow comparator: a simulator that, every clock cycle,
//! re-evaluates **every** combinational instance in repeated sweeps until
//! the netlist settles — no event queue, no activity tracking. The
//! `ablation_kernel` bench and the `ablation_bench` bin compare it against
//! the event kernel and the compiled bytecode engine on the same netlists.
//!
//! It interprets the same [`Netlist`] (plus behavioral FSM tables) as
//! [`Netlist::elaborate`], so all engines can run identical designs and
//! their final memory contents can be compared word for word. The model
//! construction in `crate::simmodel` is shared with
//! [`crate::batchsim`], but evaluation and the edge commit are not, so
//! this engine is an independent reference for the bytecode.

use crate::memory::MemHandle;
use crate::netlist::Netlist;
use crate::ops::FsmTable;
use crate::simmodel::{eval_comb, FlatModel};
use crate::value::Value;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// How many unstable/involved instances an error message spells out before
/// eliding the rest.
const REPORT_CAP: usize = 8;

pub(crate) fn write_instance_report(
    f: &mut fmt::Formatter<'_>,
    items: &[(String, String)],
) -> fmt::Result {
    for (i, (name, detail)) in items.iter().take(REPORT_CAP).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(f, "{sep}{name} ({detail})")?;
    }
    if items.len() > REPORT_CAP {
        write!(f, ", … {} more", items.len() - REPORT_CAP)?;
    }
    Ok(())
}

/// Errors raised while building or running a [`CycleSim`] or a
/// [`BatchSim`](crate::batchsim::BatchSim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleSimError {
    /// The netlist references something the cycle engine cannot model.
    Build(String),
    /// Combinational logic failed to settle within the sweep budget.
    NoFixpoint {
        /// The cycle during which settling failed.
        cycle: u64,
        /// Instances still toggling in the last sweep, as
        /// `(instance name, "output = value")` pairs.
        unstable: Vec<(String, String)>,
    },
    /// The netlist contains a true combinational cycle — reported at build
    /// time by the levelizing bytecode engine instead of burning a sweep
    /// budget.
    CombinationalCycle {
        /// Instances on one concrete cycle, in dependency order.
        instances: Vec<String>,
    },
    /// The design failed (division by zero, bad memory access, X
    /// condition).
    Failed(String),
}

impl fmt::Display for CycleSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleSimError::Build(m) => write!(f, "cannot build cycle model: {m}"),
            CycleSimError::NoFixpoint { cycle, unstable } => {
                write!(f, "combinational logic did not settle in cycle {cycle}")?;
                if !unstable.is_empty() {
                    write!(f, "; still toggling: ")?;
                    write_instance_report(f, unstable)?;
                }
                Ok(())
            }
            CycleSimError::CombinationalCycle { instances } => {
                write!(f, "combinational cycle: ")?;
                for (i, name) in instances.iter().take(REPORT_CAP).enumerate() {
                    let sep = if i == 0 { "" } else { " -> " };
                    write!(f, "{sep}{name}")?;
                }
                if instances.len() > REPORT_CAP {
                    write!(f, " -> … {} more", instances.len() - REPORT_CAP)?;
                }
                match instances.first() {
                    Some(first) if instances.len() <= REPORT_CAP => {
                        write!(f, " -> {first}")
                    }
                    _ => Ok(()),
                }
            }
            CycleSimError::Failed(m) => write!(f, "design failure: {m}"),
        }
    }
}

impl Error for CycleSimError {}

/// Outcome of [`CycleSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleOutcome {
    /// A control unit reached its terminal state.
    Done,
    /// The cycle budget was exhausted first.
    CycleLimit,
    /// A watchpoint matched.
    Watchpoint(String),
}

/// Summary statistics of a [`CycleSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSummary {
    /// How the run ended.
    pub outcome: CycleOutcome,
    /// Clock cycles executed.
    pub cycles: u64,
    /// Total combinational evaluations performed (the naive-cost metric;
    /// compare with the event kernel's `evals`).
    pub comb_evals: u64,
}

/// The cycle-based engine. See the [module docs](self).
pub struct CycleSim {
    model: FlatModel,
    sweep_limit: u32,
    cycles: u64,
    comb_evals: u64,
    unstable_scratch: Vec<usize>,
    /// Opt-in per-phase timing. `None` (the default) costs two
    /// `is_some` branches per clock cycle — nothing per evaluation.
    profile: Option<Box<CycleProfile>>,
}

/// Per-phase timing of the cycle engine's step loop, collected when
/// [`CycleSim::enable_profile`] was called.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleProfile {
    /// Clock cycles profiled.
    pub cycles: u64,
    /// Monotonic nanoseconds spent in the settle phase (the
    /// sweep-to-fixpoint over every combinational instance).
    pub settle_nanos: u64,
    /// Monotonic nanoseconds spent committing the rising edge
    /// (registers, SRAM writes, FSM transitions).
    pub commit_nanos: u64,
}

impl CycleSim {
    /// Builds a cycle model from a structural netlist.
    ///
    /// `clock` instances are absorbed into the cycle abstraction; `reset`
    /// instances assert during cycle 0 only.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] for kinds or parameters the cycle
    /// engine cannot model (the supported set matches
    /// [`Netlist::elaborate`]).
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, CycleSimError> {
        Ok(CycleSim {
            model: FlatModel::from_netlist(netlist)?,
            sweep_limit: 1000,
            cycles: 0,
            comb_evals: 0,
            unstable_scratch: Vec::new(),
            profile: None,
        })
    }

    /// Turns on per-phase timing. Profiling only observes: cycle and
    /// evaluation counters, values, and outcomes are bit-identical with
    /// it on or off.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The accumulated profile, when [`enable_profile`](Self::enable_profile)
    /// was called.
    pub fn profile(&self) -> Option<&CycleProfile> {
        self.profile.as_deref()
    }

    /// Attaches a behavioral control unit (same table as
    /// [`crate::ops::ControlUnit`]).
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when a referenced signal does not
    /// exist or counts disagree with the table.
    pub fn add_control_unit(
        &mut self,
        name: impl Into<String>,
        conditions: &[&str],
        outputs: &[(&str, u32)],
        table: FsmTable,
    ) -> Result<(), CycleSimError> {
        self.model
            .add_control_unit(name.into(), conditions, outputs, table)
    }

    /// Content handle of an SRAM instance.
    pub fn mem(&self, name: &str) -> Option<&MemHandle> {
        self.model.mem(name)
    }

    /// Current value of a named signal.
    pub fn value(&self, name: &str) -> Option<Value> {
        self.model.value(name)
    }

    /// Injects a stuck-at fault on one bit of a named signal: every write
    /// to the signal is clamped, so the bit holds `value` for the rest of
    /// the run. Returns `false` (without injecting) when the signal does
    /// not exist in this model.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when `bit` is out of range for
    /// the signal's width.
    pub fn inject_stuck_at(
        &mut self,
        signal: &str,
        bit: u32,
        value: bool,
    ) -> Result<bool, CycleSimError> {
        Ok(self.model.inject_stuck(signal, bit, value)?.is_some())
    }

    /// Injects a transient single-bit flip (an SEU) on a named signal at
    /// clock cycle `cycle`: the bit is inverted just before that cycle's
    /// settle, so downstream logic and the edge commit observe the faulty
    /// value, and normal operation restores it afterwards. Returns
    /// `false` (without injecting) when the signal does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when `bit` is out of range.
    pub fn inject_transient_flip(
        &mut self,
        signal: &str,
        bit: u32,
        cycle: u64,
    ) -> Result<bool, CycleSimError> {
        Ok(self.model.inject_flip(signal, bit, cycle)?.is_some())
    }

    /// Cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Combinational evaluations performed so far.
    pub fn comb_evals(&self) -> u64 {
        self.comb_evals
    }

    fn settle(&mut self) -> Result<(), CycleSimError> {
        // Track which instances changed during the most recent sweep so a
        // blown budget can name the culprits instead of just a cycle count.
        // The scratch vector lives on the struct so the per-cycle hot path
        // never allocates.
        let mut last_changed = std::mem::take(&mut self.unstable_scratch);
        for _sweep in 0..self.sweep_limit {
            last_changed.clear();
            for index in 0..self.model.combs.len() {
                self.comb_evals += 1;
                let (y, value) =
                    eval_comb(&self.model.combs[index], &self.model.values, &self.model.mems)?;
                let value = self.model.clamp_value(y, value);
                if self.model.values[y] != value {
                    self.model.values[y] = value;
                    last_changed.push(index);
                }
            }
            if last_changed.is_empty() {
                self.unstable_scratch = last_changed;
                return Ok(());
            }
        }
        Err(CycleSimError::NoFixpoint {
            cycle: self.cycles,
            unstable: self.model.describe_combs(&last_changed),
        })
    }

    /// Executes one clock cycle: settle combinational logic, then commit
    /// every sequential element on the implicit rising edge.
    ///
    /// Returns `Ok(None)` while running, or the terminating outcome.
    ///
    /// # Errors
    ///
    /// Propagates settling failures and design failures.
    pub fn step(&mut self) -> Result<Option<CycleOutcome>, CycleSimError> {
        // Transient fault flips scheduled for this cycle apply before the
        // settle, so the faulty value propagates through combinational
        // logic and is sampled by the edge commit — mirroring the event
        // kernel's flip-just-before-the-edge timing. A flip on a
        // comb-driven slot is recomputed away by the sweep; flips are
        // meaningful on sequential outputs (registers, FSM outputs).
        if !self.model.fault_flips.is_empty() {
            for i in 0..self.model.fault_flips.len() {
                let (cycle, slot, mask) = self.model.fault_flips[i];
                if cycle == self.cycles {
                    let v = self.model.values[slot];
                    if let Some(bits) = v.try_u64() {
                        self.model.values[slot] = Value::known(v.width(), (bits ^ mask) as i64);
                    }
                }
            }
        }

        // Reset generators assert during cycle 0.
        let reset_active = self.cycles == 0;
        for i in 0..self.model.reset_signals.len() {
            let y = self.model.reset_signals[i];
            let value = self.model.clamp_value(y, Value::bit(reset_active));
            self.model.values[y] = value;
        }

        let settle_started = self.profile.is_some().then(Instant::now);
        self.settle()?;
        if let (Some(profile), Some(started)) = (self.profile.as_mut(), settle_started) {
            profile.settle_nanos += started.elapsed().as_nanos() as u64;
        }

        let commit_started = self.profile.is_some().then(Instant::now);
        let effects = self.model.commit_edge()?;
        if let (Some(profile), Some(started)) = (self.profile.as_mut(), commit_started) {
            profile.commit_nanos += started.elapsed().as_nanos() as u64;
            profile.cycles += 1;
        }

        self.cycles += 1;

        if let Some(name) = effects.watch {
            return Ok(Some(CycleOutcome::Watchpoint(name)));
        }
        if effects.done {
            return Ok(Some(CycleOutcome::Done));
        }
        Ok(None)
    }

    /// Runs until a control unit finishes, a watchpoint matches, or
    /// `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Propagates [`CycleSimError`] from [`step`](Self::step).
    pub fn run(&mut self, max_cycles: u64) -> Result<CycleSummary, CycleSimError> {
        let start_cycles = self.cycles;
        let start_evals = self.comb_evals;
        let outcome = loop {
            if self.cycles - start_cycles >= max_cycles {
                break CycleOutcome::CycleLimit;
            }
            if let Some(outcome) = self.step()? {
                break outcome;
            }
        };
        Ok(CycleSummary {
            outcome,
            cycles: self.cycles - start_cycles,
            comb_evals: self.comb_evals - start_evals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Instance, Netlist};
    use crate::ops::{FsmState, FsmTransition};

    fn const_netlist() -> Netlist {
        let mut nl = Netlist::new("t");
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("y", 8);
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 3).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("cb", "const")
                .with_param("width", 8).with_param("value", 4).with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("add0", "add")
                .with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "b").with_conn("y", "y"),
        );
        nl
    }

    #[test]
    fn settles_combinational_logic() {
        let mut sim = CycleSim::from_netlist(&const_netlist()).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.value("y").unwrap().as_u64(), 7);
        assert!(sim.comb_evals >= 2, "at least two sweeps (change + fixpoint)");
    }

    #[test]
    fn register_pipeline_advances_per_cycle() {
        let mut nl = Netlist::new("pipe");
        nl.add_signal("clk", 1);
        nl.add_signal("a", 8);
        nl.add_signal("q1", 8);
        nl.add_signal("q2", 8);
        nl.add_instance(Instance::new("clock0", "clock").with_conn("y", "clk"));
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 9).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("r1", "reg").with_param("width", 8)
                .with_conn("clk", "clk").with_conn("d", "a").with_conn("q", "q1"),
        );
        nl.add_instance(
            Instance::new("r2", "reg").with_param("width", 8)
                .with_conn("clk", "clk").with_conn("d", "q1").with_conn("q", "q2"),
        );
        let mut sim = CycleSim::from_netlist(&nl).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.value("q1").unwrap().as_u64(), 9);
        assert!(sim.value("q2").unwrap().is_x(), "NBA: q2 sees pre-edge q1");
        sim.step().unwrap();
        assert_eq!(sim.value("q2").unwrap().as_u64(), 9);
    }

    #[test]
    fn fsm_done_terminates_run() {
        let mut nl = Netlist::new("f");
        nl.add_signal("ctl", 8);
        let mut sim = {
            let s = CycleSim::from_netlist(&nl);
            s.unwrap()
        };
        let table = FsmTable::new(
            vec![
                FsmState {
                    name: "s0".into(),
                    outputs: vec![(0, 5)],
                    transitions: vec![FsmTransition { condition: None, target: 1 }],
                    terminal: false,
                },
                FsmState { name: "end".into(), terminal: true, ..Default::default() },
            ],
            0,
            1,
        )
        .unwrap();
        sim.add_control_unit("fsm0", &[], &[("ctl", 8)], table).unwrap();
        assert_eq!(sim.value("ctl").unwrap().as_u64(), 5);
        let summary = sim.run(100).unwrap();
        assert_eq!(summary.outcome, CycleOutcome::Done);
        assert_eq!(summary.cycles, 1);
        assert_eq!(sim.value("ctl").unwrap().as_u64(), 0);
    }

    #[test]
    fn cycle_limit_reported() {
        let mut sim = CycleSim::from_netlist(&const_netlist()).unwrap();
        let summary = sim.run(5).unwrap();
        assert_eq!(summary.outcome, CycleOutcome::CycleLimit);
        assert_eq!(summary.cycles, 5);
    }

    #[test]
    fn sram_write_then_read() {
        let mut nl = Netlist::new("m");
        nl.add_signal("clk", 1);
        nl.add_signal("en", 1);
        nl.add_signal("we", 1);
        nl.add_signal("addr", 8);
        nl.add_signal("din", 8);
        nl.add_signal("dout", 8);
        nl.add_instance(Instance::new("clock0", "clock").with_conn("y", "clk"));
        for (name, sig, value) in [
            ("ce", "en", 1i64),
            ("ca", "addr", 2),
            ("cd", "din", 0x77),
        ] {
            nl.add_instance(
                Instance::new(name, "const")
                    .with_param("width", if sig == "en" { 1 } else { 8 })
                    .with_param("value", value)
                    .with_conn("y", sig),
            );
        }
        // we is driven high for the test via const too.
        nl.add_instance(
            Instance::new("cw", "const")
                .with_param("width", 1).with_param("value", 1).with_conn("y", "we"),
        );
        nl.add_instance(
            Instance::new("m0", "sram")
                .with_param("width", 8).with_param("size", 4)
                .with_conn("clk", "clk").with_conn("en", "en").with_conn("we", "we")
                .with_conn("addr", "addr").with_conn("din", "din").with_conn("dout", "dout"),
        );
        let mut sim = CycleSim::from_netlist(&nl).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.mem("m0").unwrap().load(2), Some(0x77));
    }

    #[test]
    fn unsupported_kind_rejected() {
        let mut nl = Netlist::new("c");
        nl.add_signal("clk", 1);
        nl.add_signal("q", 8);
        nl.add_instance(
            Instance::new("c0", "counter")
                .with_conn("clk", "clk").with_conn("q", "q"),
        );
        assert!(matches!(
            CycleSim::from_netlist(&nl),
            Err(CycleSimError::Build(_))
        ));
    }

    #[test]
    fn division_by_zero_is_a_design_failure() {
        let mut nl = Netlist::new("d");
        nl.add_signal("a", 8);
        nl.add_signal("z", 8);
        nl.add_signal("y", 8);
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 6).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("cz", "const")
                .with_param("width", 8).with_param("value", 0).with_conn("y", "z"),
        );
        nl.add_instance(
            Instance::new("d0", "div")
                .with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "z").with_conn("y", "y"),
        );
        let mut sim = CycleSim::from_netlist(&nl).unwrap();
        assert!(matches!(sim.step(), Err(CycleSimError::Failed(_))));
    }

    #[test]
    fn no_fixpoint_names_the_toggling_instances() {
        // A ring oscillator: y = not y, seeded to a known value by a const
        // driver (an all-X loop would settle at X), plus an innocent
        // bystander.
        let mut nl = Netlist::new("osc");
        nl.add_signal("y", 1);
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_instance(
            Instance::new("cy", "const")
                .with_param("width", 1).with_param("value", 0).with_conn("y", "y"),
        );
        nl.add_instance(
            Instance::new("osc0", "not")
                .with_param("width", 1)
                .with_conn("a", "y").with_conn("y", "y"),
        );
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 1).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("inc0", "add")
                .with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "a").with_conn("y", "b"),
        );
        let mut sim = CycleSim::from_netlist(&nl).unwrap();
        match sim.step() {
            Err(CycleSimError::NoFixpoint { cycle, unstable }) => {
                assert_eq!(cycle, 0);
                assert_eq!(unstable.len(), 1, "only the oscillator is unstable");
                assert_eq!(unstable[0].0, "osc0");
                let rendered = CycleSimError::NoFixpoint { cycle, unstable }.to_string();
                assert!(rendered.contains("osc0"), "message names the instance: {rendered}");
            }
            other => panic!("expected NoFixpoint, got {other:?}"),
        }
    }
}
