//! Flat signal/instance model shared by the compiled (non-event) engines.
//!
//! [`crate::cyclesim::CycleSim`] interprets the same
//! [`Netlist`](crate::netlist::Netlist) vocabulary as
//! [`Netlist::elaborate`](crate::netlist::Netlist::elaborate), but against a
//! dense in-memory model: every signal and memory name is interned into a
//! slot index at construction time, so the per-cycle paths touch only flat
//! `Vec`s. The `HashMap` name tables survive solely for the public
//! `value()`/`mem()` accessors and for build-time wiring.
//!
//! [`crate::batchsim::BatchSim`] builds the same model, ranks its
//! combinational instances with [`FlatModel::levelize`], and compiles the
//! result into bytecode; it shares no evaluator code with the sweep
//! engine, which is what makes the sweep engine an independent reference.

use crate::cyclesim::CycleSimError;
use crate::memory::MemHandle;
use crate::netlist::{Instance, Netlist};
use crate::ops::{eval_binop, eval_unop, FsmTable, OpKind};
use crate::value::Value;
use std::collections::HashMap;

/// A combinational instance, with all ports resolved to value slots.
pub(crate) enum Comb {
    Bin {
        kind: OpKind,
        a: usize,
        b: usize,
        y: usize,
        width: u32,
        name: String,
    },
    Un {
        kind: OpKind,
        a: usize,
        y: usize,
        width: u32,
        name: String,
    },
    Mux {
        sel: usize,
        inputs: Vec<usize>,
        y: usize,
        width: u32,
        name: String,
    },
    /// SRAM asynchronous read path.
    SramRead {
        mem: usize,
        en: usize,
        we: usize,
        addr: usize,
        dout: usize,
        name: String,
    },
}

impl Comb {
    pub(crate) fn name(&self) -> &str {
        match self {
            Comb::Bin { name, .. }
            | Comb::Un { name, .. }
            | Comb::Mux { name, .. }
            | Comb::SramRead { name, .. } => name,
        }
    }

    /// The output slot this instance drives.
    pub(crate) fn y(&self) -> usize {
        match self {
            Comb::Bin { y, .. } | Comb::Un { y, .. } | Comb::Mux { y, .. } => *y,
            Comb::SramRead { dout, .. } => *dout,
        }
    }

    /// Appends every input slot (duplicates possible) to `out`.
    pub(crate) fn inputs(&self, out: &mut Vec<usize>) {
        match self {
            Comb::Bin { a, b, .. } => out.extend([*a, *b]),
            Comb::Un { a, .. } => out.push(*a),
            Comb::Mux { sel, inputs, .. } => {
                out.push(*sel);
                out.extend(inputs.iter().copied());
            }
            Comb::SramRead { en, we, addr, .. } => out.extend([*en, *we, *addr]),
        }
    }
}

pub(crate) struct RegModel {
    pub d: usize,
    pub q: usize,
    pub en: Option<usize>,
    pub rst: Option<usize>,
    pub width: u32,
}

pub(crate) struct SramModel {
    pub mem: usize,
    pub en: usize,
    pub we: usize,
    pub addr: usize,
    pub din: usize,
    pub name: String,
}

pub(crate) struct FsmModel {
    pub name: String,
    pub table: FsmTable,
    pub conditions: Vec<usize>,
    pub outputs: Vec<usize>,
    /// Dense Moore-output values per state: `state_values[state][i]` is
    /// what output `i` drives there (0 when the state leaves it
    /// unlisted). Precomputed so the per-cycle drive is a flat compare
    /// loop instead of a per-output search of the state's output list.
    pub state_values: Vec<Vec<Value>>,
    pub state: usize,
}

pub(crate) struct WatchModel {
    pub name: String,
    pub sig: usize,
    pub value: i64,
}

/// What a rising edge did, beyond mutating the model.
pub(crate) struct EdgeEffects {
    /// A control unit reached a terminal state.
    pub done: bool,
    /// First watchpoint whose value matched after the commit.
    pub watch: Option<String>,
}

/// The dense model both compiled engines execute against.
pub(crate) struct FlatModel {
    pub names: Vec<String>,
    pub values: Vec<Value>,
    pub combs: Vec<Comb>,
    pub regs: Vec<RegModel>,
    pub srams: Vec<SramModel>,
    pub fsms: Vec<FsmModel>,
    pub watches: Vec<WatchModel>,
    pub mems: Vec<MemHandle>,
    pub mem_names: HashMap<String, usize>,
    pub signal_index: HashMap<String, usize>,
    pub reset_signals: Vec<usize>,
    /// Per-slot stuck-at clamp masks `(and, or)`, applied at every value
    /// write site. Empty (the common case) means no faults are injected
    /// and the hot paths skip clamping entirely.
    pub fault_clamps: Vec<(u64, u64)>,
    /// Pending transient bit flips as `(cycle, slot, xor mask)` — applied
    /// by the sweep engine at the start of the matching cycle. Empty when
    /// no transient faults are injected.
    pub fault_flips: Vec<(u64, usize, u64)>,
    /// Reused by [`FlatModel::commit_edge`] for the sampled
    /// `(register index, next value)` pairs, so the per-cycle hot path
    /// never allocates.
    reg_next: Vec<(usize, Value)>,
}

/// The levelized schedule of a model's combinational instances, from
/// [`FlatModel::levelize`].
pub(crate) struct Levels {
    /// Comb indices in (rank, index) order: the compiled schedule.
    pub order: Vec<u32>,
    /// Rank of each comb, indexed by comb index (0 = fed only by
    /// sequential or constant slots).
    pub ranks: Vec<u32>,
}

impl FlatModel {
    /// Builds the flat model from a structural netlist.
    ///
    /// `clock` instances are absorbed into the cycle abstraction; `reset`
    /// instances assert during cycle 0 only (applied by the engines).
    pub(crate) fn from_netlist(netlist: &Netlist) -> Result<Self, CycleSimError> {
        let mut model = FlatModel {
            names: Vec::new(),
            values: Vec::new(),
            combs: Vec::new(),
            regs: Vec::new(),
            srams: Vec::new(),
            fsms: Vec::new(),
            watches: Vec::new(),
            mems: Vec::new(),
            mem_names: HashMap::new(),
            signal_index: HashMap::new(),
            reset_signals: Vec::new(),
            fault_clamps: Vec::new(),
            fault_flips: Vec::new(),
            reg_next: Vec::new(),
        };
        for decl in netlist.signals() {
            if model.signal_index.contains_key(&decl.name) {
                return Err(CycleSimError::Build(format!(
                    "duplicate signal '{}'",
                    decl.name
                )));
            }
            model
                .signal_index
                .insert(decl.name.clone(), model.values.len());
            model.names.push(decl.name.clone());
            model.values.push(Value::x(decl.width));
        }
        for inst in netlist.instances() {
            model.add_instance(inst)?;
        }
        Ok(model)
    }

    /// Levelizes the combinational instances: Kahn's algorithm over the
    /// comb-to-comb dependency edges gives each instance the length of
    /// its longest path from a sequential or constant source, so rank *r*
    /// reads only sequential outputs, constants, and ranks `< r`, and one
    /// ascending pass settles a clock phase.
    ///
    /// # Errors
    ///
    /// [`CycleSimError::CombinationalCycle`] naming one concrete loop when
    /// the combinational netlist is not a DAG, instead of burning a sweep
    /// budget at runtime.
    pub(crate) fn levelize(&self) -> Result<Levels, CycleSimError> {
        let n = self.combs.len();

        // Producers per value slot (combinational drivers only).
        let mut producers: Vec<Vec<u32>> = vec![Vec::new(); self.values.len()];
        for (i, comb) in self.combs.iter().enumerate() {
            producers[comb.y()].push(i as u32);
        }

        // comb -> combs reading its output, and per-comb in-degree.
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indegree: Vec<u32> = vec![0; n];
        let mut input_slots: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, comb) in self.combs.iter().enumerate() {
            let slots = &mut input_slots[i];
            comb.inputs(slots);
            slots.sort_unstable();
            slots.dedup();
            for &slot in slots.iter() {
                for &p in &producers[slot] {
                    adjacency[p as usize].push(i as u32);
                    indegree[i] += 1;
                }
            }
        }

        let mut ranks: Vec<u32> = vec![0; n];
        let mut processed: Vec<bool> = vec![false; n];
        let mut worklist: Vec<u32> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut head = 0;
        while head < worklist.len() {
            let p = worklist[head] as usize;
            head += 1;
            processed[p] = true;
            for &c in &adjacency[p] {
                let c = c as usize;
                ranks[c] = ranks[c].max(ranks[p] + 1);
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    worklist.push(c as u32);
                }
            }
        }
        if head < n {
            return Err(CycleSimError::CombinationalCycle {
                instances: self.extract_cycle(&input_slots, &producers, &processed),
            });
        }

        // A stable sort keeps instance order within a rank.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| ranks[i as usize]);
        Ok(Levels { order, ranks })
    }

    /// Walks producer edges backward among unprocessed (cycle-involved)
    /// combs until a node repeats, returning one concrete loop in
    /// dependency order.
    fn extract_cycle(
        &self,
        input_slots: &[Vec<usize>],
        producers: &[Vec<u32>],
        processed: &[bool],
    ) -> Vec<String> {
        let start = (0..processed.len())
            .find(|&i| !processed[i])
            .expect("caller guarantees an unprocessed comb");
        let mut path: Vec<usize> = Vec::new();
        let mut pos_in_path: HashMap<usize, usize> = HashMap::new();
        let mut cur = start;
        loop {
            if let Some(&at) = pos_in_path.get(&cur) {
                // path[at..] walked backward along dependencies; reverse
                // it so the report reads source -> sink.
                let mut cycle: Vec<String> = path[at..]
                    .iter()
                    .map(|&i| self.combs[i].name().to_string())
                    .collect();
                cycle.reverse();
                return cycle;
            }
            pos_in_path.insert(cur, path.len());
            path.push(cur);
            cur = input_slots[cur]
                .iter()
                .flat_map(|&slot| producers[slot].iter().copied())
                .map(|p| p as usize)
                .find(|&p| !processed[p])
                .expect("unprocessed combs always have an unprocessed producer");
        }
    }

    fn sig(&self, inst: &Instance, port: &str) -> Result<usize, CycleSimError> {
        let name = inst.conn(port).ok_or_else(|| {
            CycleSimError::Build(format!("instance '{}' misses port '{}'", inst.name, port))
        })?;
        self.signal_index
            .get(name)
            .copied()
            .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{name}'")))
    }

    fn param<T: std::str::FromStr>(
        inst: &Instance,
        key: &str,
        default: Option<T>,
    ) -> Result<T, CycleSimError> {
        match inst.param(key) {
            Some(raw) => raw.parse().map_err(|_| {
                CycleSimError::Build(format!(
                    "instance '{}': bad parameter '{}'='{}'",
                    inst.name, key, raw
                ))
            }),
            None => default.ok_or_else(|| {
                CycleSimError::Build(format!(
                    "instance '{}': missing parameter '{}'",
                    inst.name, key
                ))
            }),
        }
    }

    fn add_instance(&mut self, inst: &Instance) -> Result<(), CycleSimError> {
        if let Ok(kind) = inst.kind.parse::<OpKind>() {
            let width: u32 = Self::param(inst, "width", None)?;
            let y = self.sig(inst, "y")?;
            let a = self.sig(inst, "a")?;
            if kind.is_unary() {
                self.combs.push(Comb::Un {
                    kind,
                    a,
                    y,
                    width,
                    name: inst.name.clone(),
                });
            } else {
                let b = self.sig(inst, "b")?;
                self.combs.push(Comb::Bin {
                    kind,
                    a,
                    b,
                    y,
                    width,
                    name: inst.name.clone(),
                });
            }
            return Ok(());
        }
        match inst.kind.as_str() {
            "clock" => { /* absorbed by the cycle abstraction */ }
            "reset" => {
                let y = self.sig(inst, "y")?;
                self.reset_signals.push(y);
            }
            "const" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let value: i64 = Self::param(inst, "value", None)?;
                let y = self.sig(inst, "y")?;
                self.values[y] = Value::known(width, value);
            }
            "mux" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let n: usize = Self::param(inst, "inputs", None)?;
                let sel = self.sig(inst, "sel")?;
                let y = self.sig(inst, "y")?;
                let mut inputs = Vec::with_capacity(n);
                for i in 0..n {
                    inputs.push(self.sig(inst, &format!("i{i}"))?);
                }
                self.combs.push(Comb::Mux {
                    sel,
                    inputs,
                    y,
                    width,
                    name: inst.name.clone(),
                });
            }
            "reg" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let d = self.sig(inst, "d")?;
                let q = self.sig(inst, "q")?;
                let en = inst.conn("en").map(|_| self.sig(inst, "en")).transpose()?;
                let rst = inst.conn("rst").map(|_| self.sig(inst, "rst")).transpose()?;
                self.regs.push(RegModel {
                    d,
                    q,
                    en,
                    rst,
                    width,
                });
            }
            "counter" => {
                return Err(CycleSimError::Build(
                    "counter is not supported by the cycle engine".to_string(),
                ));
            }
            "sram" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let size: usize = Self::param(inst, "size", None)?;
                let mem = MemHandle::new(&inst.name, size, width);
                let mem_index = self.mems.len();
                self.mems.push(mem);
                self.mem_names.insert(inst.name.clone(), mem_index);
                let en = self.sig(inst, "en")?;
                let we = self.sig(inst, "we")?;
                let addr = self.sig(inst, "addr")?;
                let din = self.sig(inst, "din")?;
                let dout = self.sig(inst, "dout")?;
                self.combs.push(Comb::SramRead {
                    mem: mem_index,
                    en,
                    we,
                    addr,
                    dout,
                    name: inst.name.clone(),
                });
                self.srams.push(SramModel {
                    mem: mem_index,
                    en,
                    we,
                    addr,
                    din,
                    name: inst.name.clone(),
                });
            }
            "watchpoint" => {
                let value: i64 = Self::param(inst, "value", None)?;
                let sig = self.sig(inst, "sig")?;
                self.watches.push(WatchModel {
                    name: inst.name.clone(),
                    sig,
                    value,
                });
            }
            other => {
                return Err(CycleSimError::Build(format!(
                    "instance '{}' has kind '{}' unsupported by the cycle engine",
                    inst.name, other
                )));
            }
        }
        Ok(())
    }

    /// Attaches a behavioral control unit (same table as
    /// [`crate::ops::ControlUnit`]). Initial-state outputs are driven
    /// immediately.
    pub(crate) fn add_control_unit(
        &mut self,
        name: String,
        conditions: &[&str],
        outputs: &[(&str, u32)],
        table: FsmTable,
    ) -> Result<(), CycleSimError> {
        if conditions.len() != table.condition_count() || outputs.len() != table.output_count() {
            return Err(CycleSimError::Build(format!(
                "control unit '{name}': signal count mismatch with table"
            )));
        }
        let mut cond_ids = Vec::new();
        for c in conditions {
            cond_ids.push(
                self.signal_index
                    .get(*c)
                    .copied()
                    .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{c}'")))?,
            );
        }
        let mut out_ids = Vec::new();
        let mut out_widths = Vec::new();
        for (o, w) in outputs {
            out_ids.push(
                self.signal_index
                    .get(*o)
                    .copied()
                    .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{o}'")))?,
            );
            out_widths.push(*w);
        }
        let state_values = table
            .states()
            .iter()
            .map(|state| {
                (0..out_ids.len())
                    .map(|i| {
                        let value = state
                            .outputs
                            .iter()
                            .find(|(out, _)| *out == i)
                            .map(|(_, v)| *v)
                            .unwrap_or(0);
                        Value::known(out_widths[i], value)
                    })
                    .collect()
            })
            .collect();
        let fsm = FsmModel {
            name,
            table,
            conditions: cond_ids,
            outputs: out_ids,
            state_values,
            state: 0,
        };
        drive_fsm_outputs(&fsm, &mut self.values, &self.fault_clamps);
        self.fsms.push(fsm);
        Ok(())
    }

    /// Content handle of an SRAM instance.
    pub(crate) fn mem(&self, name: &str) -> Option<&MemHandle> {
        self.mem_names.get(name).map(|&i| &self.mems[i])
    }

    /// Current value of a named signal.
    pub(crate) fn value(&self, name: &str) -> Option<Value> {
        self.signal_index.get(name).map(|&i| self.values[i])
    }

    /// The rising-edge sample/commit phase: next-state values for
    /// registers are sampled from the settled netlist, SRAM writes
    /// commit, FSMs transition and drive their Moore outputs, and finally
    /// register outputs commit (non-blocking semantics).
    pub(crate) fn commit_edge(&mut self) -> Result<EdgeEffects, CycleSimError> {
        let mut reg_next = std::mem::take(&mut self.reg_next);
        reg_next.clear();
        for (index, reg) in self.regs.iter().enumerate() {
            if let Some(v) = sample_reg(reg, &self.values) {
                reg_next.push((index, v));
            }
        }

        for sram in &self.srams {
            if self.values[sram.en].is_true() && self.values[sram.we].is_true() {
                let addr = self.values[sram.addr]
                    .try_u64()
                    .ok_or_else(|| CycleSimError::Failed(format!("{}: X address", sram.name)))?
                    as usize;
                let mem = &self.mems[sram.mem];
                if addr >= mem.size() {
                    return Err(CycleSimError::Failed(format!(
                        "{}: address {} out of range",
                        sram.name, addr
                    )));
                }
                let din = self.values[sram.din]
                    .try_i64()
                    .ok_or_else(|| CycleSimError::Failed(format!("{}: X write data", sram.name)))?;
                mem.store(addr, din);
            }
        }

        let mut done = false;
        for i in 0..self.fsms.len() {
            let (next_state, failed) = {
                let fsm = &self.fsms[i];
                let current = &fsm.table.states()[fsm.state];
                if current.terminal {
                    (fsm.state, None)
                } else {
                    let mut next = fsm.state;
                    let mut failed = None;
                    for transition in &current.transitions {
                        match transition.condition {
                            None => {
                                next = transition.target;
                                break;
                            }
                            Some((index, expected)) => {
                                let v = self.values[fsm.conditions[index]];
                                if v.is_x() {
                                    failed = Some(format!(
                                        "{}: X condition in state '{}'",
                                        fsm.name, current.name
                                    ));
                                    break;
                                }
                                if v.is_true() == expected {
                                    next = transition.target;
                                    break;
                                }
                            }
                        }
                    }
                    (next, failed)
                }
            };
            if let Some(message) = failed {
                return Err(CycleSimError::Failed(message));
            }
            self.fsms[i].state = next_state;
            let fsm = &self.fsms[i];
            drive_fsm_outputs(fsm, &mut self.values, &self.fault_clamps);
            if fsm.table.states()[next_state].terminal {
                done = true;
            }
        }

        for &(index, v) in &reg_next {
            let q = self.regs[index].q;
            self.values[q] = clamp_with(&self.fault_clamps, q, v);
        }
        self.reg_next = reg_next;

        let watch = self.watches.iter().find_map(|watch| {
            (self.values[watch.sig].try_i64() == Some(watch.value)).then(|| watch.name.clone())
        });
        Ok(EdgeEffects { done, watch })
    }

    /// Registers a stuck-at fault on one bit of a named signal. Returns
    /// the affected slot, or `None` when the signal does not exist in
    /// this model (the fault may live in another configuration). The
    /// current value is clamped immediately so constants and
    /// already-driven FSM outputs — which are never re-evaluated — honor
    /// the fault too.
    pub(crate) fn inject_stuck(
        &mut self,
        signal: &str,
        bit: u32,
        value: bool,
    ) -> Result<Option<usize>, CycleSimError> {
        let Some(&slot) = self.signal_index.get(signal) else {
            return Ok(None);
        };
        let width = self.values[slot].width();
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "stuck-at bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        if self.fault_clamps.is_empty() {
            self.fault_clamps = vec![(u64::MAX, 0); self.values.len()];
        }
        let mask = 1u64 << bit;
        if value {
            self.fault_clamps[slot].1 |= mask;
        } else {
            self.fault_clamps[slot].0 &= !mask;
        }
        self.values[slot] = clamp_with(&self.fault_clamps, slot, self.values[slot]);
        Ok(Some(slot))
    }

    /// Registers a transient single-bit flip on a named signal at a given
    /// clock cycle. Returns the affected slot, or `None` when the signal
    /// does not exist in this model. The engine decides when (and
    /// whether) to apply the pending flip — see the engine docs for the
    /// supported fault classes.
    pub(crate) fn inject_flip(
        &mut self,
        signal: &str,
        bit: u32,
        cycle: u64,
    ) -> Result<Option<usize>, CycleSimError> {
        let Some(&slot) = self.signal_index.get(signal) else {
            return Ok(None);
        };
        let width = self.values[slot].width();
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "bit-flip bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        self.fault_flips.push((cycle, slot, 1u64 << bit));
        Ok(Some(slot))
    }

    /// Applies the stuck-at clamp for `slot` to a value about to be
    /// written there. No-op (and branch-free on the empty check) when no
    /// faults are injected.
    #[inline]
    pub(crate) fn clamp_value(&self, slot: usize, value: Value) -> Value {
        clamp_with(&self.fault_clamps, slot, value)
    }

    /// Renders `(instance name, output value)` pairs for a set of
    /// combinational instances — the actionable part of a
    /// [`CycleSimError::NoFixpoint`] report.
    pub(crate) fn describe_combs(&self, indices: &[usize]) -> Vec<(String, String)> {
        indices
            .iter()
            .map(|&i| {
                let comb = &self.combs[i];
                (
                    comb.name().to_string(),
                    format!("{} = {}", self.names[comb.y()], self.values[comb.y()]),
                )
            })
            .collect()
    }
}

/// Samples one register's next value from the settled netlist: reset wins,
/// then the enable gate; `None` means the register holds its value.
#[inline]
fn sample_reg(reg: &RegModel, values: &[Value]) -> Option<Value> {
    if let Some(rst) = reg.rst {
        if values[rst].is_true() {
            return Some(Value::known(reg.width, 0));
        }
    }
    let enabled = match reg.en {
        Some(en) => values[en].is_true(),
        None => true,
    };
    enabled.then(|| values[reg.d].resize(reg.width))
}

/// Applies the stuck-at clamp for `slot` from a raw clamp table. Whole-
/// value X passes through unchanged (the fault policy forces known bits
/// only once the signal resolves); an empty table means no faults.
#[inline]
pub(crate) fn clamp_with(clamps: &[(u64, u64)], slot: usize, value: Value) -> Value {
    if clamps.is_empty() {
        return value;
    }
    let (and, or) = clamps[slot];
    match value.try_u64() {
        Some(bits) => {
            let clamped = (bits & and) | or;
            if clamped == bits {
                value
            } else {
                Value::known(value.width(), clamped as i64)
            }
        }
        None => value,
    }
}

/// Drives the Moore outputs of `fsm`'s current state. Output values pass
/// through the stuck-at `clamps` table (empty when no faults are
/// injected).
fn drive_fsm_outputs(fsm: &FsmModel, values: &mut [Value], clamps: &[(u64, u64)]) {
    let state_values = &fsm.state_values[fsm.state];
    for (&signal, &value) in fsm.outputs.iter().zip(state_values) {
        values[signal] = clamp_with(clamps, signal, value);
    }
}

/// Evaluates one combinational instance against the current values,
/// returning `(output slot, new value)` without writing it back.
pub(crate) fn eval_comb(
    comb: &Comb,
    values: &[Value],
    mems: &[MemHandle],
) -> Result<(usize, Value), CycleSimError> {
    match comb {
        Comb::Bin {
            kind,
            a,
            b,
            y,
            width,
            name,
        } => {
            let out_width = if kind.is_comparison() { 1 } else { *width };
            let out = match (values[*a].try_i64(), values[*b].try_i64()) {
                (Some(a), Some(b)) => eval_binop(*kind, a, b, *width)
                    .map_err(|m| CycleSimError::Failed(format!("{name}: {m}")))?,
                _ => Value::x(out_width),
            };
            Ok((*y, out))
        }
        Comb::Un {
            kind,
            a,
            y,
            width,
            name,
        } => {
            let out = match values[*a].try_i64() {
                Some(a) => eval_unop(*kind, a, *width)
                    .map_err(|m| CycleSimError::Failed(format!("{name}: {m}")))?,
                None => Value::x(*width),
            };
            Ok((*y, out))
        }
        Comb::Mux {
            sel,
            inputs,
            y,
            width,
            ..
        } => {
            let out = match values[*sel].try_u64() {
                Some(s) => match inputs.get(s as usize) {
                    Some(&i) => values[i].resize(*width),
                    None => Value::x(*width),
                },
                None => Value::x(*width),
            };
            Ok((*y, out))
        }
        Comb::SramRead {
            mem,
            en,
            we,
            addr,
            dout,
            ..
        } => {
            let m = &mems[*mem];
            let width = m.width();
            if !values[*en].is_true() || values[*we].is_true() {
                // dout undefined while disabled; during writes it follows
                // the committed word only after the edge, so leave X within
                // the cycle (registers never sample it mid-write in
                // generated designs).
                return Ok((*dout, Value::x(width)));
            }
            // Bad addresses on the (combinational) read path yield X, as
            // in the event kernel; only committing writes fail.
            let out = match values[*addr].try_u64() {
                Some(a) if (a as usize) < m.size() => match m.load(a as usize) {
                    Some(v) => Value::known(width, v),
                    None => Value::x(width),
                },
                _ => Value::x(width),
            };
            Ok((*dout, out))
        }
    }
}
