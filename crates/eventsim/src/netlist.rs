//! Declarative structural netlists and their elaboration into a live
//! [`Simulator`].
//!
//! A [`Netlist`] is the in-memory form of the `.hds` structural format (see
//! [`crate::hds`]) that the datapath XML is translated into. Elaboration
//! instantiates the operator library: every component kind the compiler can
//! emit is recognized here.

use crate::component::SignalId;
use crate::kernel::Simulator;
use crate::memory::{MemHandle, Sram};
use crate::ops::{BinOp, Clock, ConstDriver, Counter, Mux, OpKind, Register, ResetGen, UnOp};
use crate::probe::Watchpoint;
use crate::value::Value;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A signal declaration in a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalDecl {
    /// Net name, unique within the netlist.
    pub name: String,
    /// Width in bits.
    pub width: u32,
}

/// One component instantiation: a kind, free-form parameters, and
/// port-to-signal connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// Component kind (`add`, `mux`, `reg`, `sram`, `clock`, …).
    pub kind: String,
    params: Vec<(String, String)>,
    conns: Vec<(String, String)>,
}

impl Instance {
    /// Creates an instance of `kind`.
    pub fn new(name: impl Into<String>, kind: impl Into<String>) -> Self {
        Instance {
            name: name.into(),
            kind: kind.into(),
            params: Vec::new(),
            conns: Vec::new(),
        }
    }

    /// Builder-style parameter.
    pub fn with_param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Builder-style port connection.
    pub fn with_conn(mut self, port: impl Into<String>, signal: impl Into<String>) -> Self {
        self.conns.push((port.into(), signal.into()));
        self
    }

    /// Parameters in declaration order.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Connections in declaration order.
    pub fn conns(&self) -> impl Iterator<Item = (&str, &str)> {
        self.conns.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Looks up a parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a connection.
    pub fn conn(&self, port: &str) -> Option<&str> {
        self.conns
            .iter()
            .find(|(k, _)| k == port)
            .map(|(_, v)| v.as_str())
    }
}

/// A structural netlist: named signals plus component instances.
///
/// ```
/// use eventsim::netlist::{Netlist, Instance};
/// let mut nl = Netlist::new("adder");
/// nl.add_signal("a", 8);
/// nl.add_signal("b", 8);
/// nl.add_signal("y", 8);
/// nl.add_instance(
///     Instance::new("add0", "add")
///         .with_param("width", 8)
///         .with_conn("a", "a").with_conn("b", "b").with_conn("y", "y"));
/// assert_eq!(nl.operator_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    signals: Vec<SignalDecl>,
    instances: Vec<Instance>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            signals: Vec::new(),
            instances: Vec::new(),
        }
    }

    /// Declares a signal.
    pub fn add_signal(&mut self, name: impl Into<String>, width: u32) {
        self.signals.push(SignalDecl {
            name: name.into(),
            width,
        });
    }

    /// Adds a component instance.
    pub fn add_instance(&mut self, instance: Instance) {
        self.instances.push(instance);
    }

    /// Declared signals.
    pub fn signals(&self) -> &[SignalDecl] {
        &self.signals
    }

    /// Component instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Number of instances that are datapath functional units (the
    /// "operators" column of Table I): arithmetic/logic/comparison kinds.
    pub fn operator_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.kind.parse::<OpKind>().is_ok())
            .count()
    }

    /// Elaborates the netlist into `sim`.
    ///
    /// Returns the mapping from declared names to simulator ids, plus a
    /// [`MemHandle`] per `sram` instance for loading stimulus and reading
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateError`] for duplicate names, unknown kinds,
    /// missing or dangling connections, and malformed parameters.
    pub fn elaborate(&self, sim: &mut Simulator) -> Result<ElabMap, ElaborateError> {
        let mut map = ElabMap {
            signals: HashMap::new(),
            mems: HashMap::new(),
        };
        for decl in &self.signals {
            if map.signals.contains_key(&decl.name) {
                return Err(ElaborateError::DuplicateSignal(decl.name.clone()));
            }
            if decl.width == 0 || decl.width > crate::value::MAX_WIDTH {
                return Err(ElaborateError::BadParam {
                    instance: decl.name.clone(),
                    message: format!("signal width {} out of range", decl.width),
                });
            }
            let id = sim.add_signal(&decl.name, decl.width);
            map.signals.insert(decl.name.clone(), id);
        }
        let mut seen = std::collections::HashSet::new();
        for instance in &self.instances {
            if !seen.insert(&instance.name) {
                return Err(ElaborateError::DuplicateInstance(instance.name.clone()));
            }
            elaborate_instance(instance, sim, &mut map)?;
        }
        // Elaboration registers every sink this netlist will ever have;
        // sealing here builds the flat sink table up front instead of on
        // the first `run`.
        sim.seal();
        Ok(map)
    }
}

/// Name-to-id mapping produced by [`Netlist::elaborate`].
#[derive(Debug, Clone)]
pub struct ElabMap {
    /// Signal name → simulator signal id.
    pub signals: HashMap<String, SignalId>,
    /// SRAM instance name → content handle.
    pub mems: HashMap<String, MemHandle>,
}

impl ElabMap {
    /// Looks up a signal id by name.
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateError::UnknownSignal`] when absent.
    pub fn signal(&self, name: &str) -> Result<SignalId, ElaborateError> {
        self.signals
            .get(name)
            .copied()
            .ok_or_else(|| ElaborateError::UnknownSignal(name.to_string()))
    }
}

/// Errors produced while elaborating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateError {
    /// Two signals share a name.
    DuplicateSignal(String),
    /// Two instances share a name.
    DuplicateInstance(String),
    /// An instance references an undeclared signal.
    UnknownSignal(String),
    /// An instance has an unrecognized kind.
    UnknownKind {
        /// Instance name.
        instance: String,
        /// The unrecognized kind string.
        kind: String,
    },
    /// A required port is unconnected.
    MissingConn {
        /// Instance name.
        instance: String,
        /// The missing port.
        port: String,
    },
    /// A parameter is missing or malformed.
    BadParam {
        /// Instance (or signal) name.
        instance: String,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateError::DuplicateSignal(name) => write!(f, "duplicate signal '{name}'"),
            ElaborateError::DuplicateInstance(name) => write!(f, "duplicate instance '{name}'"),
            ElaborateError::UnknownSignal(name) => write!(f, "reference to unknown signal '{name}'"),
            ElaborateError::UnknownKind { instance, kind } => {
                write!(f, "instance '{instance}' has unknown kind '{kind}'")
            }
            ElaborateError::MissingConn { instance, port } => {
                write!(f, "instance '{instance}' leaves port '{port}' unconnected")
            }
            ElaborateError::BadParam { instance, message } => {
                write!(f, "instance '{instance}': {message}")
            }
        }
    }
}

impl Error for ElaborateError {}

fn conn_signal(
    instance: &Instance,
    map: &ElabMap,
    port: &str,
) -> Result<SignalId, ElaborateError> {
    let name = instance
        .conn(port)
        .ok_or_else(|| ElaborateError::MissingConn {
            instance: instance.name.clone(),
            port: port.to_string(),
        })?;
    map.signal(name)
}

fn param_parse<T: std::str::FromStr>(
    instance: &Instance,
    key: &str,
    default: Option<T>,
) -> Result<T, ElaborateError> {
    match instance.param(key) {
        Some(raw) => raw.parse().map_err(|_| ElaborateError::BadParam {
            instance: instance.name.clone(),
            message: format!("parameter '{key}' has unparseable value '{raw}'"),
        }),
        None => default.ok_or_else(|| ElaborateError::BadParam {
            instance: instance.name.clone(),
            message: format!("missing parameter '{key}'"),
        }),
    }
}

fn elaborate_instance(
    instance: &Instance,
    sim: &mut Simulator,
    map: &mut ElabMap,
) -> Result<(), ElaborateError> {
    let name = instance.name.clone();
    if let Ok(kind) = instance.kind.parse::<OpKind>() {
        let width: u32 = param_parse(instance, "width", None)?;
        let delay: u64 = param_parse(instance, "delay", Some(0))?;
        let y = conn_signal(instance, map, "y")?;
        let a = conn_signal(instance, map, "a")?;
        if kind.is_unary() {
            sim.add_component(UnOp::new(name, kind, a, y, width).with_delay(delay));
        } else {
            let b = conn_signal(instance, map, "b")?;
            sim.add_component(BinOp::new(name, kind, a, b, y, width).with_delay(delay));
        }
        return Ok(());
    }
    match instance.kind.as_str() {
        "mux" => {
            let width: u32 = param_parse(instance, "width", None)?;
            let n: usize = param_parse(instance, "inputs", None)?;
            if n == 0 {
                return Err(ElaborateError::BadParam {
                    instance: name,
                    message: "mux needs at least one input".to_string(),
                });
            }
            let sel = conn_signal(instance, map, "sel")?;
            let y = conn_signal(instance, map, "y")?;
            let mut inputs = Vec::with_capacity(n);
            for i in 0..n {
                inputs.push(conn_signal(instance, map, &format!("i{i}"))?);
            }
            sim.add_component(Mux::new(name, sel, inputs, y, width));
        }
        "const" => {
            let width: u32 = param_parse(instance, "width", None)?;
            let value: i64 = param_parse(instance, "value", None)?;
            let y = conn_signal(instance, map, "y")?;
            sim.add_component(ConstDriver::new(name, y, Value::known(width, value)));
        }
        "reg" => {
            let width: u32 = param_parse(instance, "width", None)?;
            let clk = conn_signal(instance, map, "clk")?;
            let d = conn_signal(instance, map, "d")?;
            let q = conn_signal(instance, map, "q")?;
            let mut reg = Register::new(name, clk, d, q, width);
            if instance.conn("en").is_some() {
                reg = reg.with_enable(conn_signal(instance, map, "en")?);
            }
            if instance.conn("rst").is_some() {
                reg = reg.with_reset(conn_signal(instance, map, "rst")?);
            }
            sim.add_component(reg);
        }
        "counter" => {
            let width: u32 = param_parse(instance, "width", Some(8))?;
            let clk = conn_signal(instance, map, "clk")?;
            let q = conn_signal(instance, map, "q")?;
            sim.add_component(Counter::new(name, clk, q).with_width(width));
        }
        "clock" => {
            let period: u64 = param_parse(instance, "period", Some(10))?;
            let y = conn_signal(instance, map, "y")?;
            sim.add_component(Clock::new(name, y, period));
        }
        "reset" => {
            let ticks: u64 = param_parse(instance, "ticks", Some(2))?;
            let y = conn_signal(instance, map, "y")?;
            sim.add_component(ResetGen::new(name, y, ticks));
        }
        "sram" => {
            let width: u32 = param_parse(instance, "width", None)?;
            let size: usize = param_parse(instance, "size", None)?;
            let clk = conn_signal(instance, map, "clk")?;
            let en = conn_signal(instance, map, "en")?;
            let we = conn_signal(instance, map, "we")?;
            let addr = conn_signal(instance, map, "addr")?;
            let din = conn_signal(instance, map, "din")?;
            let dout = conn_signal(instance, map, "dout")?;
            let mem = MemHandle::new(&name, size, width);
            map.mems.insert(name.clone(), mem.clone());
            sim.add_component(Sram::new(name, clk, en, we, addr, din, dout, mem));
        }
        "watchpoint" => {
            let value: i64 = param_parse(instance, "value", None)?;
            let sig = conn_signal(instance, map, "sig")?;
            sim.add_component(Watchpoint::new(name, sig, value));
        }
        other => {
            return Err(ElaborateError::UnknownKind {
                instance: name,
                kind: other.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{SimTime, Simulator};

    fn adder_netlist() -> Netlist {
        let mut nl = Netlist::new("t");
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("y", 8);
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8)
                .with_param("value", 3)
                .with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("cb", "const")
                .with_param("width", 8)
                .with_param("value", 4)
                .with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("add0", "add")
                .with_param("width", 8)
                .with_conn("a", "a")
                .with_conn("b", "b")
                .with_conn("y", "y"),
        );
        nl
    }

    #[test]
    fn elaborates_and_simulates_adder() {
        let nl = adder_netlist();
        let mut sim = Simulator::new();
        let map = nl.elaborate(&mut sim).unwrap();
        sim.run(SimTime(10)).unwrap();
        assert_eq!(sim.value(map.signal("y").unwrap()).as_u64(), 7);
        assert_eq!(nl.operator_count(), 1);
    }

    #[test]
    fn full_kind_coverage_elaborates() {
        let mut nl = Netlist::new("all");
        for s in ["clk", "rst", "en", "we", "sel"] {
            nl.add_signal(s, 1);
        }
        for s in ["a", "b", "y0", "y1", "y2", "y3", "q", "addr", "din", "dout", "cnt"] {
            nl.add_signal(s, 8);
        }
        nl.add_instance(Instance::new("clock0", "clock").with_param("period", 10).with_conn("y", "clk"));
        nl.add_instance(Instance::new("reset0", "reset").with_param("ticks", 3).with_conn("y", "rst"));
        nl.add_instance(
            Instance::new("mul0", "mul")
                .with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "b").with_conn("y", "y0"),
        );
        nl.add_instance(
            Instance::new("neg0", "neg")
                .with_param("width", 8)
                .with_conn("a", "a").with_conn("y", "y1"),
        );
        nl.add_instance(
            Instance::new("mux0", "mux")
                .with_param("width", 8)
                .with_param("inputs", 2)
                .with_conn("sel", "sel").with_conn("i0", "a").with_conn("i1", "b").with_conn("y", "y2"),
        );
        nl.add_instance(
            Instance::new("r0", "reg")
                .with_param("width", 8)
                .with_conn("clk", "clk").with_conn("d", "y0").with_conn("q", "q")
                .with_conn("en", "en").with_conn("rst", "rst"),
        );
        nl.add_instance(
            Instance::new("cnt0", "counter")
                .with_param("width", 8)
                .with_conn("clk", "clk").with_conn("q", "cnt"),
        );
        nl.add_instance(
            Instance::new("m0", "sram")
                .with_param("width", 8).with_param("size", 16)
                .with_conn("clk", "clk").with_conn("en", "en").with_conn("we", "we")
                .with_conn("addr", "addr").with_conn("din", "din").with_conn("dout", "dout"),
        );
        nl.add_instance(
            Instance::new("w0", "watchpoint")
                .with_param("value", 200)
                .with_conn("sig", "cnt"),
        );
        nl.add_instance(
            Instance::new("c0", "const")
                .with_param("width", 8).with_param("value", 5)
                .with_conn("y", "y3"),
        );
        let mut sim = Simulator::new();
        let map = nl.elaborate(&mut sim).unwrap();
        assert!(map.mems.contains_key("m0"));
        assert_eq!(sim.component_count(), 10);
        sim.run(SimTime(50)).unwrap();
    }

    #[test]
    fn duplicate_signal_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_signal("a", 8);
        nl.add_signal("a", 8);
        let err = nl.elaborate(&mut Simulator::new()).unwrap_err();
        assert_eq!(err, ElaborateError::DuplicateSignal("a".into()));
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut nl = adder_netlist();
        nl.add_instance(
            Instance::new("add0", "add")
                .with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "b").with_conn("y", "y"),
        );
        let err = nl.elaborate(&mut Simulator::new()).unwrap_err();
        assert_eq!(err, ElaborateError::DuplicateInstance("add0".into()));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_signal("y", 8);
        nl.add_instance(Instance::new("z", "frobnicator").with_conn("y", "y"));
        let err = nl.elaborate(&mut Simulator::new()).unwrap_err();
        assert!(matches!(err, ElaborateError::UnknownKind { .. }));
    }

    #[test]
    fn dangling_connection_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_signal("y", 8);
        nl.add_instance(
            Instance::new("add0", "add")
                .with_param("width", 8)
                .with_conn("a", "nothere").with_conn("b", "y").with_conn("y", "y"),
        );
        let err = nl.elaborate(&mut Simulator::new()).unwrap_err();
        assert_eq!(err, ElaborateError::UnknownSignal("nothere".into()));
    }

    #[test]
    fn missing_port_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_signal("y", 8);
        nl.add_instance(
            Instance::new("add0", "add")
                .with_param("width", 8)
                .with_conn("y", "y"),
        );
        let err = nl.elaborate(&mut Simulator::new()).unwrap_err();
        assert!(matches!(err, ElaborateError::MissingConn { ref port, .. } if port == "a"));
    }

    #[test]
    fn bad_param_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_signal("y", 8);
        nl.add_instance(
            Instance::new("c0", "const")
                .with_param("width", "eight")
                .with_param("value", 0)
                .with_conn("y", "y"),
        );
        let err = nl.elaborate(&mut Simulator::new()).unwrap_err();
        assert!(matches!(err, ElaborateError::BadParam { .. }));
        assert!(err.to_string().contains("width"));
    }

    #[test]
    fn zero_width_signal_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_signal("a", 0);
        assert!(nl.elaborate(&mut Simulator::new()).is_err());
    }
}
