//! Elaboration: turning a configuration's XML into a live simulation, in
//! two steps.
//!
//! [`ConfigParts::parse`] follows the paper's arrows literally: the
//! datapath XML is translated by the `datapath→hds` stylesheet into
//! `.hds` text, which the simulator's netlist loader parses (the
//! structural path), and the FSM XML becomes a behavioral control table
//! (the behavioral path; the paper's generated Java). The flow parses
//! each configuration once per prepared design.
//!
//! [`ConfigParts::build`] elaborates the event kernel from those parts:
//! the netlist's instances, then an [`eventsim::ops::ControlUnit`]
//! executing the table. The compiled engines build from the same netlist
//! and attach the same table ([`ConfigParts::attach`]); the bytecode
//! engines share one program per configuration
//! ([`ConfigParts::program`]), compiled on first use.

use eventsim::batchsim::BatchProgram;
use eventsim::cyclesim::CycleSimError;
use eventsim::netlist::Netlist;
use eventsim::ops::{ControlUnit, FsmCoverageHandle, FsmState, FsmTable, FsmTransition};
use eventsim::{MemHandle, SignalId, Simulator};
use nenya::fsm::Fsm;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};
use xmlite::Document;

/// Errors raised while elaborating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateConfigError {
    /// The datapath/fsm XML did not match its dialect.
    Dialect(String),
    /// The stylesheet failed (internal error — stock sheets always apply).
    Stylesheet(String),
    /// The generated `.hds` text failed to parse.
    Hds(String),
    /// The netlist failed to elaborate.
    Netlist(String),
    /// The FSM references signals the datapath does not provide, or is
    /// structurally invalid.
    Fsm(String),
}

impl fmt::Display for ElaborateConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateConfigError::Dialect(m) => write!(f, "dialect error: {m}"),
            ElaborateConfigError::Stylesheet(m) => write!(f, "stylesheet error: {m}"),
            ElaborateConfigError::Hds(m) => write!(f, "hds error: {m}"),
            ElaborateConfigError::Netlist(m) => write!(f, "netlist error: {m}"),
            ElaborateConfigError::Fsm(m) => write!(f, "fsm binding error: {m}"),
        }
    }
}

impl Error for ElaborateConfigError {}

/// A configuration built on the event kernel, ready to run.
pub struct ConfigSim {
    /// The simulator holding the structural datapath plus the behavioral
    /// control unit.
    pub sim: Simulator,
    /// SRAM content handles by memory (instance) name.
    pub mems: HashMap<String, MemHandle>,
    /// The `done` flag signal.
    pub done: SignalId,
    /// The clock signal.
    pub clk: SignalId,
}

/// One configuration's parsed parts: what every engine builds from.
#[derive(Debug)]
pub struct ConfigParts {
    /// The datapath's `.hds` netlist.
    pub netlist: Netlist,
    /// The control table, initial state first.
    pub(crate) table: FsmTable,
    /// The control unit's name.
    fsm_name: String,
    /// Condition signal names, in table order.
    conditions: Vec<String>,
    /// `(output name, width)` pairs, in table order.
    outputs: Vec<(String, u32)>,
    /// The clock signal's name.
    clock: String,
    /// The bytecode program with the control unit attached, compiled on
    /// first use: every level and batch walk of this configuration
    /// instantiates it, and event or cycle runs never build it.
    program: OnceLock<Result<Arc<BatchProgram>, ElaborateConfigError>>,
}

impl ConfigParts {
    /// Parses one configuration from its two XML documents: the datapath
    /// through the `datapath→hds` stylesheet into a netlist, the FSM into
    /// its control table.
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateConfigError`] when the stylesheet, the `.hds`
    /// parser, the FSM dialect or the table conversion rejects them.
    pub fn parse(
        dp_doc: &Document,
        fsm_doc: &Document,
    ) -> Result<ConfigParts, ElaborateConfigError> {
        let hds = xform::apply(xform::stylesheets::datapath_to_hds(), dp_doc.root())
            .map_err(|e| ElaborateConfigError::Stylesheet(e.to_string()))?;
        let netlist =
            eventsim::hds::parse(&hds).map_err(|e| ElaborateConfigError::Hds(e.to_string()))?;
        let fsm = nenya::xml::parse_fsm(fsm_doc)
            .map_err(|e| ElaborateConfigError::Dialect(e.to_string()))?;
        let clock = dp_doc.root().attr("clock").ok_or_else(|| {
            ElaborateConfigError::Dialect("datapath lacks clock attribute".into())
        })?;
        let (table, conditions, outputs) = fsm_to_table(&fsm)?;
        Ok(ConfigParts {
            netlist,
            table,
            fsm_name: fsm.name,
            conditions,
            outputs,
            clock: clock.to_string(),
            program: OnceLock::new(),
        })
    }

    /// Builds the event kernel: the netlist's instances, then the
    /// [`ControlUnit`] executing the table. With `stop_when_done` false
    /// another component (e.g. a CPU) owns the end of simulation; a
    /// `coverage` handle records the control unit's states and
    /// transitions.
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateConfigError::Netlist`] when the netlist does not
    /// elaborate, and [`ElaborateConfigError::Fsm`] when the control unit
    /// names a signal the datapath lacks.
    pub fn build(
        &self,
        stop_when_done: bool,
        coverage: Option<FsmCoverageHandle>,
    ) -> Result<ConfigSim, ElaborateConfigError> {
        let mut sim = Simulator::new();
        let map = self
            .netlist
            .elaborate(&mut sim)
            .map_err(|e| ElaborateConfigError::Netlist(e.to_string()))?;
        let lookup = |name: &str| {
            map.signal(name)
                .map_err(|e| ElaborateConfigError::Fsm(e.to_string()))
        };
        let clk = lookup(&self.clock)?;
        let done = lookup("done")?;
        let conditions = self
            .conditions
            .iter()
            .map(|name| lookup(name))
            .collect::<Result<_, _>>()?;
        let outputs = self
            .outputs
            .iter()
            .map(|(name, _)| lookup(name))
            .collect::<Result<_, _>>()?;
        let widths = self.outputs.iter().map(|&(_, width)| width).collect();
        let mut unit = ControlUnit::new(
            self.fsm_name.clone(),
            clk,
            conditions,
            outputs,
            widths,
            self.table.clone(),
        )
        .with_stop_when_done(stop_when_done);
        if let Some(handle) = coverage {
            unit = unit.with_coverage(handle);
        }
        sim.add_component(unit);
        Ok(ConfigSim {
            sim,
            mems: map.mems,
            done,
            clk,
        })
    }

    /// Attaches the control unit through a compiled engine's
    /// `add_control_unit` (`add`).
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateConfigError::Netlist`] when the engine rejects
    /// the control unit.
    pub fn attach(
        &self,
        add: impl FnOnce(&str, &[&str], &[(&str, u32)], FsmTable) -> Result<(), CycleSimError>,
    ) -> Result<(), ElaborateConfigError> {
        let conditions: Vec<&str> = self.conditions.iter().map(String::as_str).collect();
        let outputs: Vec<(&str, u32)> =
            self.outputs.iter().map(|(n, w)| (n.as_str(), *w)).collect();
        add(&self.fsm_name, &conditions, &outputs, self.table.clone())
            .map_err(|e| ElaborateConfigError::Netlist(e.to_string()))
    }

    /// The bytecode program of this configuration with its control unit
    /// attached, compiled on the first call and shared by every later
    /// one (concurrent first calls wait for one compile).
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateConfigError::Netlist`] when the compiled
    /// engines reject the netlist or the control unit, on every call.
    pub fn program(&self) -> Result<Arc<BatchProgram>, ElaborateConfigError> {
        self.program
            .get_or_init(|| {
                let mut program = BatchProgram::compile(&self.netlist)
                    .map_err(|e| ElaborateConfigError::Netlist(e.to_string()))?;
                self.attach(|n, c, o, t| program.add_control_unit(n, c, o, t))?;
                Ok(Arc::new(program))
            })
            .clone()
    }

    /// The program if [`program`](Self::program) has built it.
    #[cfg(test)]
    pub(crate) fn built_program(&self) -> Option<&Arc<BatchProgram>> {
        self.program.get()?.as_ref().ok()
    }
}

/// Converts a name-based FSM description into an index-based
/// [`FsmTable`], returning the table plus the condition and output signal
/// names in table order. Dangling state references and inconsistent
/// tables are [`ElaborateConfigError::Fsm`].
#[allow(clippy::type_complexity)] // (table, condition names, output names)
fn fsm_to_table(
    fsm: &Fsm,
) -> Result<(FsmTable, Vec<String>, Vec<(String, u32)>), ElaborateConfigError> {
    // Order states with the initial state first (the kernel's FsmTable
    // starts in state 0), preserving relative order otherwise.
    let initial_index = fsm
        .states
        .iter()
        .position(|s| s.name == fsm.initial)
        .ok_or_else(|| {
            ElaborateConfigError::Fsm(format!("initial state '{}' missing", fsm.initial))
        })?;
    let mut order: Vec<usize> = (0..fsm.states.len()).collect();
    order.swap(0, initial_index);
    let index_of: HashMap<&str, usize> = order
        .iter()
        .enumerate()
        .map(|(new, &old)| (fsm.states[old].name.as_str(), new))
        .collect();

    let output_index: HashMap<&str, usize> = fsm
        .outputs
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.as_str(), i))
        .collect();
    let cond_index: HashMap<&str, usize> = fsm
        .inputs
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i))
        .collect();

    let mut states = Vec::with_capacity(fsm.states.len());
    for &old in &order {
        let desc = &fsm.states[old];
        let mut outputs = Vec::with_capacity(desc.asserts.len());
        for (signal, value) in &desc.asserts {
            let index = *output_index.get(signal.as_str()).ok_or_else(|| {
                ElaborateConfigError::Fsm(format!(
                    "state '{}' asserts undeclared output '{}'",
                    desc.name, signal
                ))
            })?;
            outputs.push((index, *value));
        }
        let mut transitions = Vec::with_capacity(desc.transitions.len());
        for t in &desc.transitions {
            let target = *index_of.get(t.target.as_str()).ok_or_else(|| {
                ElaborateConfigError::Fsm(format!(
                    "state '{}' transitions to missing state '{}'",
                    desc.name, t.target
                ))
            })?;
            let condition = match &t.cond {
                None => None,
                Some((signal, when)) => {
                    let index = *cond_index.get(signal.as_str()).ok_or_else(|| {
                        ElaborateConfigError::Fsm(format!(
                            "state '{}' tests undeclared condition '{}'",
                            desc.name, signal
                        ))
                    })?;
                    Some((index, *when))
                }
            };
            transitions.push(FsmTransition { condition, target });
        }
        states.push(FsmState {
            name: desc.name.clone(),
            outputs,
            transitions,
            terminal: desc.terminal,
        });
    }

    let table = FsmTable::new(states, fsm.inputs.len(), fsm.outputs.len())
        .map_err(|e| ElaborateConfigError::Fsm(e.to_string()))?;
    Ok((table, fsm.inputs.clone(), fsm.outputs.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::{RunOutcome, SimTime};
    use nenya::{compile, CompileOptions};

    fn parse_config(config: &nenya::Configuration) -> Result<ConfigParts, ElaborateConfigError> {
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
        ConfigParts::parse(&dp_doc, &fsm_doc)
    }

    fn elaborate_source(src: &str) -> ConfigSim {
        let design = compile("t", src, &CompileOptions::default()).unwrap();
        let parts = parse_config(&design.configs[0]).unwrap();
        parts.build(true, None).unwrap()
    }

    #[test]
    fn trivial_design_runs_to_done() {
        let mut cs = elaborate_source("mem out[4]; void main() { out[1] = 42; }");
        let summary = cs.sim.run(SimTime(100_000)).unwrap();
        assert!(
            matches!(summary.outcome, RunOutcome::Stopped(ref m) if m.contains("done")),
            "{:?}",
            summary.outcome
        );
        assert_eq!(cs.mems["out"].load(1), Some(42));
        assert!(cs.sim.value(cs.done).is_true());
    }

    #[test]
    fn loop_design_computes_squares() {
        let mut cs = elaborate_source(
            "mem out[8]; void main() { int i; for (i = 0; i < 8; i = i + 1) { out[i] = i * i; } }",
        );
        let summary = cs.sim.run(SimTime(1_000_000)).unwrap();
        assert!(summary.outcome.is_ok());
        let got: Vec<Option<i64>> = cs.mems["out"].snapshot();
        assert_eq!(
            got,
            (0..8).map(|i| Some(i * i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parse_step_holds_the_netlist_and_control_table() {
        let source = "mem out[4]; void main() { out[0] = 1; }";
        let design = compile("t", source, &CompileOptions::default()).unwrap();
        let config = &design.configs[0];
        let parts = parse_config(config).unwrap();
        assert_eq!(parts.netlist.name, "t");
        assert!(parts
            .netlist
            .instances()
            .iter()
            .any(|i| i.kind == "sram" && i.name == "out"));
        assert_eq!(parts.table.states().len(), config.fsm.state_count());
        assert_eq!(parts.table.states()[0].name, config.fsm.initial);
    }

    #[test]
    fn broken_fsm_reference_is_reported() {
        let design = compile("t", "mem out[4]; void main() { out[0] = 1; }", &CompileOptions::default())
            .unwrap();
        let config = &design.configs[0];
        let mut broken = config.clone();
        broken.fsm.outputs.push(("phantom_signal".to_string(), 1));
        let parts = parse_config(&broken).expect("the table itself is consistent");
        let err = match parts.build(true, None) {
            Ok(_) => panic!("expected elaboration to fail"),
            Err(e) => e,
        };
        assert!(matches!(err, ElaborateConfigError::Fsm(_)), "{err}");
    }

    #[test]
    fn fsm_table_reorders_initial_state_first() {
        use nenya::fsm::{Fsm, FsmStateDesc, FsmTransitionDesc};
        // Initial state declared *last*: conversion must still start there.
        let fsm = Fsm {
            name: "ctrl".into(),
            inputs: vec![],
            outputs: vec![("o".into(), 8)],
            initial: "start".into(),
            states: vec![
                FsmStateDesc {
                    name: "end".into(),
                    asserts: vec![("o".into(), 9)],
                    transitions: vec![],
                    terminal: true,
                },
                FsmStateDesc {
                    name: "start".into(),
                    asserts: vec![("o".into(), 5)],
                    transitions: vec![FsmTransitionDesc {
                        cond: None,
                        target: "end".into(),
                    }],
                    terminal: false,
                },
            ],
        };
        let (table, conds, outs) = fsm_to_table(&fsm).unwrap();
        assert!(conds.is_empty());
        assert_eq!(outs, vec![("o".to_string(), 8)]);
        assert_eq!(table.states()[0].name, "start");
        assert_eq!(table.states()[0].outputs, vec![(0, 5)]);
        assert_eq!(table.states()[0].transitions[0].target, 1);
        assert!(table.states()[1].terminal);
    }

    #[test]
    fn conditional_design_follows_data() {
        let mut cs = elaborate_source(
            "mem out[2]; void main() { int a = 3; if (a > 2) { out[0] = 1; } else { out[0] = 2; } }",
        );
        cs.sim.run(SimTime(100_000)).unwrap();
        assert_eq!(cs.mems["out"].load(0), Some(1));
    }
}
