//! The bytecode-compiled batch engine: 64 stimulus lanes per walk.
//!
//! [`crate::levelsim::LevelSim`] already pays the levelization cost once
//! at build time, but it still *interprets* the schedule: every step
//! dispatches on the [`crate::simmodel::Comb`] enum per node and chases
//! `Value` boxes. This engine flattens that rank schedule one step
//! further, into a linear bytecode buffer ([`BOp`]) of dense operand
//! slots, and then amortizes each walk over **64 independent stimulus
//! vectors**:
//!
//! * **State is lane-struct-of-arrays.** Every value slot holds
//!   [`LANES`] sign-extended `i64` lanes (`values[slot * LANES + lane]`)
//!   plus one 64-bit known mask per slot; memories hold `size × LANES`
//!   words addr-major. One walk of the bytecode evaluates all 64 lanes.
//! * **The walk is dirty-driven, like the level engine.** A dirty
//!   bitset over op indices is drained in ascending (rank) order; an op
//!   whose output column actually changed marks its reader ops and the
//!   registers that sample it, so a quiescent region of the schedule
//!   costs nothing. Because dirtiness is tracked per *column* (any lane
//!   changing re-evaluates all 64), each lane's evaluation set is a
//!   superset of what the sequential level engine would evaluate for
//!   that lane alone — extra evaluations of unchanged inputs are
//!   observationally idempotent, so per-lane results are unaffected.
//! * **Bitwise ops vectorize across packed lanes; word ops loop the
//!   lane array.** Infallible ops (add/sub/mul/logic/shift/compare)
//!   evaluate all lanes unconditionally in straight-line loops the
//!   compiler can vectorize; fallible or data-dependent ops (div/rem,
//!   mux selection, SRAM reads) take a scalar per-lane path with known
//!   checks.
//! * **Per-lane bit-identity.** Each lane's observable results — signal
//!   values, memory images, cycle counts, failure messages, and
//!   termination outcomes — are bit-identical to running that lane's
//!   stimulus alone through the sequential level engine. Lanes that fail
//!   or finish drop out of the running mask and stop committing state;
//!   the surviving lanes walk on. See `DESIGN.md` ("Batch engine").
//!
//! Faults are per-lane: stuck-at clamps carry a 64-lane AND/OR row per
//! faulted slot, transient flips carry a lane mask, so a fault campaign
//! can pack 64 fault sites into one batch walk.

use crate::cyclesim::{CycleOutcome, CycleSimError, CycleSummary};
use crate::levelsim::LevelSim;
use crate::netlist::Netlist;
use crate::ops::{FsmTable, OpKind};
use crate::simmodel::Comb;
use crate::value::{mask, Value};
use std::collections::HashMap;

/// Stimulus lanes per schedule walk. Matches the machine word so known
/// masks, running masks, and fault lane-masks are single `u64`s.
pub const LANES: usize = 64;

/// One bytecode instruction. Operands are dense value-slot indices;
/// `shift = 64 - output width` canonicalizes raw results into the
/// sign-extended lane representation with one arithmetic shift pair
/// (`(raw << shift) >> shift`), which also maps comparison results
/// (width 1) onto the canonical `-1`/`0`.
#[derive(Debug, Clone, Copy)]
enum BOp {
    Bin {
        kind: OpKind,
        a: u32,
        b: u32,
        y: u32,
        shift: u32,
    },
    Un {
        kind: OpKind,
        a: u32,
        y: u32,
        shift: u32,
    },
    /// `n` input slots live in `BatchSim::mux_pool[lo..lo + n]`.
    Mux {
        sel: u32,
        sel_mask: u64,
        lo: u32,
        n: u32,
        y: u32,
        shift: u32,
    },
    SramRead {
        mem: u32,
        en: u32,
        we: u32,
        addr: u32,
        addr_mask: u64,
        y: u32,
    },
}

/// A register: sampled before the edge, committed after FSMs transition.
#[derive(Debug, Clone, Copy)]
struct BReg {
    d: u32,
    q: u32,
    /// `u32::MAX` = always enabled.
    en: u32,
    /// `u32::MAX` = no reset input.
    rst: u32,
    shift: u32,
}

/// An SRAM write port (the read port compiles into [`BOp::SramRead`]).
#[derive(Debug, Clone)]
struct BSram {
    name: String,
    mem: u32,
    en: u32,
    we: u32,
    addr: u32,
    addr_mask: u64,
    din: u32,
}

/// Lane-parallel memory contents: `data[addr * LANES + lane]` canonical,
/// `known[addr]` a lane mask (bit set = that lane's word is defined).
#[derive(Debug, Clone)]
struct BMem {
    shift: u32,
    size: usize,
    data: Vec<i64>,
    known: Vec<u64>,
}

#[derive(Debug, Clone)]
struct BWatch {
    name: String,
    sig: u32,
    value: i64,
}

/// A control unit, with state values pre-canonicalized per lane use.
#[derive(Debug, Clone)]
struct BFsm {
    name: String,
    table: FsmTable,
    conditions: Vec<u32>,
    outputs: Vec<u32>,
    out_shifts: Vec<u32>,
    /// `state_values[state][output]`, canonical.
    state_values: Vec<Vec<i64>>,
}

/// Per-lane stuck-at clamp row for one faulted slot.
#[derive(Debug, Clone)]
struct ClampRow {
    and: [u64; LANES],
    or: [u64; LANES],
}

/// A scheduled transient flip: XORed into `slot` (known lanes in
/// `lanes` only) at the start of the walk whose cycle matches.
#[derive(Debug, Clone, Copy)]
struct BFlip {
    cycle: u64,
    slot: u32,
    lanes: u64,
    xor: u64,
}

/// How one lane's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneOutcome {
    /// A control unit reached a terminal state.
    Done,
    /// The named watchpoint matched.
    Watchpoint(String),
    /// The lane was still running when the cycle budget ran out.
    CycleLimit,
    /// A design failure — the message the sequential engine would have
    /// raised as [`CycleSimError::Failed`].
    Failed(String),
}

/// One finished lane: its outcome and the cycles it ran (relative to
/// the `run_batch` call, with the sequential engine's conventions —
/// failures count the walk they failed in as not yet elapsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneResult {
    /// Termination outcome.
    pub outcome: LaneOutcome,
    /// Cycles elapsed for this lane.
    pub cycles: u64,
}

/// Result of [`BatchSim::run_batch`]: one entry per lane, `None` for
/// lanes that were not active.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Per-lane results, indexed by lane.
    pub lanes: Vec<Option<LaneResult>>,
}

/// The batch engine. See the [module docs](self).
pub struct BatchSim {
    ops: Vec<BOp>,
    /// Instance name per bytecode op, for failure messages only.
    op_names: Vec<String>,
    mux_pool: Vec<u32>,
    widths: Vec<u32>,
    /// Canonical lane values, `slot * LANES + lane`.
    values: Vec<i64>,
    /// Known lane mask per slot.
    known: Vec<u64>,
    /// Post-construction snapshot per slot (lane-uniform), for
    /// [`reset_state`](Self::reset_state).
    initial_vals: Vec<i64>,
    initial_known: Vec<bool>,
    regs: Vec<BReg>,
    srams: Vec<BSram>,
    mems: Vec<BMem>,
    mem_names: HashMap<String, usize>,
    signal_index: HashMap<String, usize>,
    reset_signals: Vec<u32>,
    watches: Vec<BWatch>,
    fsms: Vec<BFsm>,
    /// Current state per FSM per lane, `fsm * LANES + lane`.
    fsm_state: Vec<u32>,
    /// Clamp row index per slot (`u32::MAX` = unfaulted); empty until
    /// the first stuck-at injection.
    clamp_of: Vec<u32>,
    clamp_rows: Vec<ClampRow>,
    flips: Vec<BFlip>,
    /// Comb readers per value slot: the op indices whose inputs include
    /// the slot. Mirrors the level engine's fanout CSR.
    readers: Vec<Vec<u32>>,
    /// Registers whose `d`/`en`/`rst` read each value slot.
    reg_readers: Vec<Vec<u32>>,
    /// Op producing each value slot (`u32::MAX` for sequential/constant
    /// slots). A transient flip re-dirties the producer so the settle
    /// recomputes it away, matching the sequential engines.
    producer_op: Vec<u32>,
    /// Read-port op per SRAM instance: a committed write dirties the
    /// read path even though no signal changed.
    sram_read_op: Vec<u32>,
    /// Dirty bitset over op indices.
    dirty: Vec<u64>,
    /// Dirty bitset over registers — only these are sampled on the edge
    /// (a register none of whose inputs changed would resample and
    /// commit the same value, so skipping it is unobservable).
    reg_dirty: Vec<u64>,
    /// Registers sampled this edge (drain order), reused across walks.
    edge_regs: Vec<u32>,
    /// Forces the next edge's FSM phase onto the per-lane drive path
    /// (set by transient flips, which must be reverted by a full
    /// change-detected redrive of every Moore output).
    force_fsm_drive: bool,
    /// Register sample scratch, `reg * LANES + lane`.
    reg_vals: Vec<i64>,
    /// Per-register lane masks: which lanes sampled (commit) and which
    /// of those sampled a known value.
    reg_commit: Vec<u64>,
    reg_known: Vec<u64>,
    /// Lanes participating in this run.
    active: u64,
    /// Active lanes that have not yet finished or failed.
    running: u64,
    /// Lanes whose value column was snapshotted at termination. Later
    /// walks keep recomputing every lane's comb slots (the vector loops
    /// are unconditional), so a finished lane's observable values are
    /// served from this freeze-frame — the state a sequential run would
    /// have stopped with. Registers, FSMs, and memories are commit-
    /// masked and need no copy.
    frozen_mask: u64,
    /// Frozen value column per lane, `slot * LANES + lane`; lazily
    /// allocated on the first freeze.
    frozen_vals: Vec<i64>,
    /// Frozen known bit per slot per lane, same lane-mask layout as
    /// `known`.
    frozen_known: Vec<u64>,
    outcomes: Vec<Option<LaneOutcome>>,
    lane_cycles: Vec<u64>,
    cycles: u64,
    comb_evals: u64,
}

/// Canonicalizes a raw result at `shift = 64 - width`.
#[inline(always)]
fn canon(raw: i64, shift: u32) -> i64 {
    (raw << shift) >> shift
}

/// Vectorized binary op over all lanes: compute unconditionally into
/// `out` (frozen or unknown lanes produce garbage that the known and
/// running masks make unobservable), canonicalized. The caller
/// change-detects against the old column before writing back.
#[inline(always)]
fn vec_bin(
    values: &[i64],
    a: usize,
    b: usize,
    shift: u32,
    out: &mut [i64; LANES],
    f: impl Fn(i64, i64) -> i64,
) {
    let va = &values[a * LANES..a * LANES + LANES];
    let vb = &values[b * LANES..b * LANES + LANES];
    for l in 0..LANES {
        out[l] = canon(f(va[l], vb[l]), shift);
    }
}

/// Vectorized unary op over all lanes.
#[inline(always)]
fn vec_un(values: &[i64], a: usize, shift: u32, out: &mut [i64; LANES], f: impl Fn(i64) -> i64) {
    let va = &values[a * LANES..a * LANES + LANES];
    for l in 0..LANES {
        out[l] = canon(f(va[l]), shift);
    }
}

/// Sets the first `n` bits of a dirty bitset.
fn fill_mask(words: &mut [u64], n: usize) {
    for w in words.iter_mut() {
        *w = !0;
    }
    let tail = n % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << tail) - 1;
        }
    }
}

impl BatchSim {
    /// Compiles a netlist: levelizes it through [`LevelSim`] (sharing
    /// its cycle detection and rank order), then flattens the schedule
    /// into bytecode and the model into lane-SoA state.
    ///
    /// # Errors
    ///
    /// Propagates [`CycleSimError::Build`] /
    /// [`CycleSimError::CombinationalCycle`] from levelization.
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, CycleSimError> {
        let (model, order) = LevelSim::from_netlist(netlist)?.into_parts();
        let widths: Vec<u32> = model.values.iter().map(Value::width).collect();

        let mut ops = Vec::with_capacity(order.len());
        let mut op_names = Vec::with_capacity(order.len());
        let mut mux_pool: Vec<u32> = Vec::new();
        for &ci in &order {
            let comb = &model.combs[ci as usize];
            op_names.push(comb.name().to_string());
            ops.push(match comb {
                Comb::Bin {
                    kind,
                    a,
                    b,
                    y,
                    width,
                    ..
                } => {
                    let out_width = if kind.is_comparison() { 1 } else { *width };
                    BOp::Bin {
                        kind: *kind,
                        a: *a as u32,
                        b: *b as u32,
                        y: *y as u32,
                        shift: 64 - out_width,
                    }
                }
                Comb::Un { kind, a, y, width, .. } => BOp::Un {
                    kind: *kind,
                    a: *a as u32,
                    y: *y as u32,
                    shift: 64 - *width,
                },
                Comb::Mux {
                    sel,
                    inputs,
                    y,
                    width,
                    ..
                } => {
                    let lo = mux_pool.len() as u32;
                    mux_pool.extend(inputs.iter().map(|&i| i as u32));
                    BOp::Mux {
                        sel: *sel as u32,
                        sel_mask: mask(widths[*sel]),
                        lo,
                        n: inputs.len() as u32,
                        y: *y as u32,
                        shift: 64 - *width,
                    }
                }
                Comb::SramRead {
                    mem,
                    en,
                    we,
                    addr,
                    dout,
                    ..
                } => BOp::SramRead {
                    mem: *mem as u32,
                    en: *en as u32,
                    we: *we as u32,
                    addr: *addr as u32,
                    addr_mask: mask(widths[*addr]),
                    y: *dout as u32,
                },
            });
        }

        let initial_vals: Vec<i64> = model.values.iter().map(|v| v.try_i64().unwrap_or(0)).collect();
        let initial_known: Vec<bool> = model.values.iter().map(|v| !v.is_x()).collect();

        let regs: Vec<BReg> = model
            .regs
            .iter()
            .map(|r| BReg {
                d: r.d as u32,
                q: r.q as u32,
                en: r.en.map_or(u32::MAX, |s| s as u32),
                rst: r.rst.map_or(u32::MAX, |s| s as u32),
                shift: 64 - r.width,
            })
            .collect();
        let srams: Vec<BSram> = model
            .srams
            .iter()
            .map(|s| BSram {
                name: s.name.clone(),
                mem: s.mem as u32,
                en: s.en as u32,
                we: s.we as u32,
                addr: s.addr as u32,
                addr_mask: mask(widths[s.addr]),
                din: s.din as u32,
            })
            .collect();
        let mems: Vec<BMem> = model
            .mems
            .iter()
            .map(|m| BMem {
                shift: 64 - m.width(),
                size: m.size(),
                data: vec![0; m.size() * LANES],
                known: vec![0; m.size()],
            })
            .collect();
        let watches: Vec<BWatch> = model
            .watches
            .iter()
            .map(|w| BWatch {
                name: w.name.clone(),
                sig: w.sig as u32,
                value: w.value,
            })
            .collect();

        let slots = widths.len();

        // Reader tables, mirroring the level engine's fanout CSRs: which
        // ops re-evaluate and which registers re-sample when a slot's
        // column changes.
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); slots];
        let mut producer_op = vec![u32::MAX; slots];
        for (oi, op) in ops.iter().enumerate() {
            let oi = oi as u32;
            let mut read = |slot: u32| {
                let list = &mut readers[slot as usize];
                if list.last() != Some(&oi) {
                    list.push(oi);
                }
            };
            match *op {
                BOp::Bin { a, b, y, .. } => {
                    read(a);
                    read(b);
                    producer_op[y as usize] = oi;
                }
                BOp::Un { a, y, .. } => {
                    read(a);
                    producer_op[y as usize] = oi;
                }
                BOp::Mux { sel, lo, n, y, .. } => {
                    read(sel);
                    for i in 0..n {
                        read(mux_pool[(lo + i) as usize]);
                    }
                    producer_op[y as usize] = oi;
                }
                BOp::SramRead {
                    en, we, addr, y, ..
                } => {
                    read(en);
                    read(we);
                    read(addr);
                    producer_op[y as usize] = oi;
                }
            }
        }
        let mut reg_readers: Vec<Vec<u32>> = vec![Vec::new(); slots];
        for (r, reg) in regs.iter().enumerate() {
            reg_readers[reg.d as usize].push(r as u32);
            if reg.en != u32::MAX {
                reg_readers[reg.en as usize].push(r as u32);
            }
            if reg.rst != u32::MAX {
                reg_readers[reg.rst as usize].push(r as u32);
            }
        }
        let sram_read_op: Vec<u32> = srams
            .iter()
            .map(|sram| {
                ops.iter()
                    .position(
                        |op| matches!(op, BOp::SramRead { mem, .. } if *mem == sram.mem),
                    )
                    .expect("every sram has a read op") as u32
            })
            .collect();

        let op_words = ops.len().div_ceil(64);
        let reg_words = regs.len().div_ceil(64);
        let mut sim = BatchSim {
            ops,
            op_names,
            mux_pool,
            values: vec![0; slots * LANES],
            known: vec![0; slots],
            initial_vals,
            initial_known,
            widths,
            regs,
            srams,
            mems,
            mem_names: model.mem_names.clone(),
            signal_index: model.signal_index.clone(),
            reset_signals: model.reset_signals.iter().map(|&s| s as u32).collect(),
            watches,
            fsms: Vec::new(),
            fsm_state: Vec::new(),
            clamp_of: Vec::new(),
            clamp_rows: Vec::new(),
            flips: Vec::new(),
            readers,
            reg_readers,
            producer_op,
            sram_read_op,
            dirty: vec![0u64; op_words],
            reg_dirty: vec![0u64; reg_words],
            edge_regs: Vec::new(),
            force_fsm_drive: false,
            reg_vals: vec![0; model.regs.len() * LANES],
            reg_commit: vec![0; model.regs.len()],
            reg_known: vec![0; model.regs.len()],
            active: !0,
            running: !0,
            frozen_mask: 0,
            frozen_vals: Vec::new(),
            frozen_known: Vec::new(),
            outcomes: vec![None; LANES],
            lane_cycles: vec![0; LANES],
            cycles: 0,
            comb_evals: 0,
        };
        sim.broadcast_initials();
        Ok(sim)
    }

    /// Broadcasts the lane-uniform post-construction snapshot into every
    /// lane of every slot, and marks the whole schedule dirty (the first
    /// walk evaluates everything, like the sequential engines).
    fn broadcast_initials(&mut self) {
        for slot in 0..self.widths.len() {
            let v = self.initial_vals[slot];
            let base = slot * LANES;
            self.values[base..base + LANES].fill(v);
            self.known[slot] = if self.initial_known[slot] { !0 } else { 0 };
        }
        self.mark_all();
    }

    /// Marks every op and every register dirty.
    fn mark_all(&mut self) {
        fill_mask(&mut self.dirty, self.ops.len());
        fill_mask(&mut self.reg_dirty, self.regs.len());
    }

    /// Marks one op dirty.
    #[inline]
    fn mark_op(&mut self, op: u32) {
        self.dirty[(op / 64) as usize] |= 1u64 << (op % 64);
    }

    /// Lane mask of nonzero words in a slot's column (a branch-free
    /// column scan the compiler vectorizes to compare-and-movemask).
    #[inline]
    fn nonzero_mask(&self, slot: usize) -> u64 {
        let col = &self.values[slot * LANES..slot * LANES + LANES];
        let mut m = 0u64;
        for (l, &v) in col.iter().enumerate() {
            m |= ((v != 0) as u64) << l;
        }
        m
    }

    /// Marks everything that reads `slot`: the comb ops with it as an
    /// input, and the registers sampling it as `d`/`en`/`rst`. The batch
    /// twin of the level engine's `mark_slot`.
    #[inline]
    fn mark_slot(&mut self, slot: usize) {
        for &op in &self.readers[slot] {
            self.dirty[(op / 64) as usize] |= 1u64 << (op % 64);
        }
        for &r in &self.reg_readers[slot] {
            self.reg_dirty[(r / 64) as usize] |= 1u64 << (r % 64);
        }
    }

    /// Attaches a behavioral control unit (same table vocabulary as the
    /// sequential engines). Initial-state outputs are driven into every
    /// lane immediately.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] on a signal-count mismatch or an
    /// unknown signal, with the sequential engines' messages.
    pub fn add_control_unit(
        &mut self,
        name: impl Into<String>,
        conditions: &[&str],
        outputs: &[(&str, u32)],
        table: FsmTable,
    ) -> Result<(), CycleSimError> {
        let name = name.into();
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
                    .map(|&s| s as u32)
                    .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{c}'")))?,
            );
        }
        let mut out_ids = Vec::new();
        let mut out_shifts = Vec::new();
        let mut out_widths = Vec::new();
        for (o, w) in outputs {
            out_ids.push(
                self.signal_index
                    .get(*o)
                    .map(|&s| s as u32)
                    .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{o}'")))?,
            );
            out_shifts.push(64 - *w);
            out_widths.push(*w);
        }
        let state_values: Vec<Vec<i64>> = table
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
                        Value::known(out_widths[i], value).as_i64()
                    })
                    .collect()
            })
            .collect();
        let fsm = BFsm {
            name,
            table,
            conditions: cond_ids,
            outputs: out_ids,
            out_shifts,
            state_values,
        };
        self.drive_fsm_outputs_all_lanes(&fsm, 0);
        self.fsms.push(fsm);
        self.fsm_state.extend(std::iter::repeat_n(0, LANES));
        Ok(())
    }

    /// Drives `state`'s Moore outputs into every lane (registration and
    /// reset use this; the edge commit drives running lanes). Marks each
    /// driven slot so its readers re-evaluate.
    fn drive_fsm_outputs_all_lanes(&mut self, fsm: &BFsm, state: usize) {
        for (j, &slot) in fsm.outputs.iter().enumerate() {
            let slot = slot as usize;
            let v = fsm.state_values[state][j];
            let base = slot * LANES;
            for l in 0..LANES {
                self.values[base + l] = self.clamp_lane(slot, l, v, fsm.out_shifts[j]);
            }
            self.known[slot] = !0;
            self.mark_slot(slot);
        }
    }

    /// Restricts the next `run_batch` to the lanes in `lane_mask` and
    /// re-arms them (prior outcomes are cleared, so a lane that hit a
    /// watchpoint in one configuration keeps walking in the next, like
    /// the sequential engines' repeated `run` calls). Excluded lanes
    /// keep their state but never commit, fail, or finish — their
    /// summary entry stays `None`.
    pub fn set_active(&mut self, lane_mask: u64) {
        self.active = lane_mask;
        self.running = lane_mask;
        self.frozen_mask &= !lane_mask;
        for o in &mut self.outcomes {
            *o = None;
        }
        // Conservative re-arm: a re-armed lane stopped committing
        // mid-flight, so re-dirty the whole schedule (one full walk's
        // worth of work, once per run) and force a full FSM redrive.
        self.mark_all();
        self.force_fsm_drive = true;
    }

    /// Rewinds to the just-built state (control units stay attached,
    /// lane activity resets to all 64): signal values return to the
    /// post-construction snapshot, FSMs rewind and re-drive initial
    /// outputs, memories clear to X, faults are removed, counters zero.
    /// A reset simulator is bit-identical to a freshly built one.
    pub fn reset_state(&mut self) {
        self.broadcast_initials();
        for mem in &mut self.mems {
            mem.known.iter_mut().for_each(|k| *k = 0);
        }
        self.clamp_of.clear();
        self.clamp_rows.clear();
        self.flips.clear();
        self.fsm_state.iter_mut().for_each(|s| *s = 0);
        let fsms = std::mem::take(&mut self.fsms);
        for fsm in &fsms {
            self.drive_fsm_outputs_all_lanes(fsm, 0);
        }
        self.fsms = fsms;
        self.active = !0;
        self.running = !0;
        self.frozen_mask = 0;
        self.force_fsm_drive = false;
        self.outcomes.iter_mut().for_each(|o| *o = None);
        self.lane_cycles.iter_mut().for_each(|c| *c = 0);
        self.cycles = 0;
        self.comb_evals = 0;
    }

    /// Injects a stuck-at fault on one bit of a named signal, in every
    /// lane. Returns `false` when the signal does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when `bit` is out of range.
    pub fn inject_stuck_at(
        &mut self,
        signal: &str,
        bit: u32,
        value: bool,
    ) -> Result<bool, CycleSimError> {
        self.inject_stuck_masked(signal, bit, value, !0)
    }

    /// [`inject_stuck_at`](Self::inject_stuck_at) restricted to one lane
    /// — the fault-campaign batching hook (64 sites per walk).
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when `bit` is out of range.
    pub fn inject_stuck_at_lane(
        &mut self,
        signal: &str,
        bit: u32,
        value: bool,
        lane: usize,
    ) -> Result<bool, CycleSimError> {
        self.inject_stuck_masked(signal, bit, value, 1u64 << lane)
    }

    fn inject_stuck_masked(
        &mut self,
        signal: &str,
        bit: u32,
        value: bool,
        lanes: u64,
    ) -> Result<bool, CycleSimError> {
        let Some(&slot) = self.signal_index.get(signal) else {
            return Ok(false);
        };
        let width = self.widths[slot];
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "stuck-at bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        if self.clamp_of.is_empty() {
            self.clamp_of = vec![u32::MAX; self.widths.len()];
        }
        let row = if self.clamp_of[slot] == u32::MAX {
            self.clamp_of[slot] = self.clamp_rows.len() as u32;
            self.clamp_rows.push(ClampRow {
                and: [!0; LANES],
                or: [0; LANES],
            });
            self.clamp_rows.len() - 1
        } else {
            self.clamp_of[slot] as usize
        };
        let bit_mask = 1u64 << bit;
        let mut m = lanes;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if value {
                self.clamp_rows[row].or[l] |= bit_mask;
            } else {
                self.clamp_rows[row].and[l] &= !bit_mask;
            }
        }
        // Clamp the current value immediately, so constants and
        // already-driven FSM outputs honor the fault (sequential parity).
        let shift = 64 - width;
        let base = slot * LANES;
        let mut m = lanes & self.known[slot];
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            self.values[base + l] = self.clamp_lane(slot, l, self.values[base + l], shift);
        }
        self.mark_slot(slot);
        Ok(true)
    }

    /// Schedules a one-walk transient flip on every lane, with the
    /// sequential engines' timing (applied before the reset drive and
    /// the settle of the matching cycle). Returns `false` when no such
    /// signal exists.
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
        self.inject_flip_masked(signal, bit, cycle, !0)
    }

    /// [`inject_transient_flip`](Self::inject_transient_flip) restricted
    /// to one lane.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when `bit` is out of range.
    pub fn inject_transient_flip_lane(
        &mut self,
        signal: &str,
        bit: u32,
        cycle: u64,
        lane: usize,
    ) -> Result<bool, CycleSimError> {
        self.inject_flip_masked(signal, bit, cycle, 1u64 << lane)
    }

    fn inject_flip_masked(
        &mut self,
        signal: &str,
        bit: u32,
        cycle: u64,
        lanes: u64,
    ) -> Result<bool, CycleSimError> {
        let Some(&slot) = self.signal_index.get(signal) else {
            return Ok(false);
        };
        let width = self.widths[slot];
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "bit-flip bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        self.flips.push(BFlip {
            cycle,
            slot: slot as u32,
            lanes,
            xor: 1u64 << bit,
        });
        Ok(true)
    }

    /// Number of words in the named SRAM, or `None` if absent.
    pub fn mem_size(&self, name: &str) -> Option<usize> {
        self.mem_names.get(name).map(|&i| self.mems[i].size)
    }

    /// Loads an image (`None` = leave X) into one lane of the named
    /// SRAM. Returns `false` when the memory does not exist. Values
    /// truncate to the memory width, like [`crate::MemHandle::store`].
    pub fn load_mem(&mut self, name: &str, lane: usize, image: &[Option<i64>]) -> bool {
        let Some(&mi) = self.mem_names.get(name) else {
            return false;
        };
        let mem = &mut self.mems[mi];
        let bit = 1u64 << lane;
        for (addr, word) in image.iter().enumerate().take(mem.size) {
            match word {
                Some(v) => {
                    mem.data[addr * LANES + lane] = canon(*v, mem.shift);
                    mem.known[addr] |= bit;
                }
                None => mem.known[addr] &= !bit,
            }
        }
        self.mark_mem_readers(mi);
        true
    }

    /// Dirties the read op of every SRAM backed by memory `mem`, so a
    /// load between runs is observed without any signal changing.
    fn mark_mem_readers(&mut self, mem: usize) {
        for s in 0..self.sram_read_op.len() {
            if self.srams[s].mem as usize == mem {
                let op = self.sram_read_op[s];
                self.mark_op(op);
            }
        }
    }

    /// [`load_mem`](Self::load_mem) into every lane.
    pub fn load_mem_all(&mut self, name: &str, image: &[Option<i64>]) -> bool {
        let Some(&mi) = self.mem_names.get(name) else {
            return false;
        };
        let mem = &mut self.mems[mi];
        for (addr, word) in image.iter().enumerate().take(mem.size) {
            match word {
                Some(v) => {
                    mem.data[addr * LANES..addr * LANES + LANES].fill(canon(*v, mem.shift));
                    mem.known[addr] = !0;
                }
                None => mem.known[addr] = 0,
            }
        }
        self.mark_mem_readers(mi);
        true
    }

    /// Final image of one lane of the named SRAM (`None` entries are
    /// uninitialized words), or `None` if the memory does not exist.
    pub fn snapshot_mem(&self, name: &str, lane: usize) -> Option<Vec<Option<i64>>> {
        let &mi = self.mem_names.get(name)?;
        let mem = &self.mems[mi];
        let bit = 1u64 << lane;
        Some(
            (0..mem.size)
                .map(|addr| (mem.known[addr] & bit != 0).then(|| mem.data[addr * LANES + lane]))
                .collect(),
        )
    }

    /// Current value of a named signal in lane 0.
    pub fn value(&self, name: &str) -> Option<Value> {
        self.value_lane(name, 0)
    }

    /// Current value of a named signal in one lane. A finished lane
    /// reads its termination freeze-frame, not the live (still-walking)
    /// state.
    pub fn value_lane(&self, name: &str, lane: usize) -> Option<Value> {
        let &slot = self.signal_index.get(name)?;
        let width = self.widths[slot];
        let bit = 1u64 << lane;
        let (vals, known) = if self.frozen_mask & bit != 0 {
            (&self.frozen_vals, &self.frozen_known)
        } else {
            (&self.values, &self.known)
        };
        Some(if known[slot] & bit != 0 {
            Value::known(width, vals[slot * LANES + lane])
        } else {
            Value::x(width)
        })
    }

    /// Cycles executed, with the sequential accessor's convention: after
    /// lane 0 fails or finishes, its own cycle count (a failing walk
    /// does not count as elapsed).
    pub fn cycles(&self) -> u64 {
        if self.outcomes[0].is_some() {
            self.lane_cycles[0]
        } else {
            self.cycles
        }
    }

    /// Bytecode evaluations performed: dirty ops drained across all
    /// walks (each evaluation covers all 64 lanes). Comparable in spirit
    /// to the level engine's count, but not numerically identical — a
    /// change in any lane re-evaluates the whole column.
    pub fn comb_evals(&self) -> u64 {
        self.comb_evals
    }

    /// Marks a lane failed at the current (pre-increment) cycle and
    /// drops it from the running mask. First failure wins, matching the
    /// sequential engine's abort-at-first-error.
    fn fail_lane(&mut self, lane: usize, msg: String) {
        if self.outcomes[lane].is_none() {
            self.outcomes[lane] = Some(LaneOutcome::Failed(msg));
            self.lane_cycles[lane] = self.cycles;
            self.running &= !(1u64 << lane);
            self.freeze_lane(lane);
        }
    }

    /// Snapshots one lane's value column so later walks (which keep the
    /// vector loops unconditional) cannot perturb what this lane
    /// observes.
    fn freeze_lane(&mut self, lane: usize) {
        if self.frozen_vals.is_empty() {
            self.frozen_vals = vec![0; self.values.len()];
            self.frozen_known = vec![0; self.known.len()];
        }
        let bit = 1u64 << lane;
        for slot in 0..self.known.len() {
            self.frozen_vals[slot * LANES + lane] = self.values[slot * LANES + lane];
            if self.known[slot] & bit != 0 {
                self.frozen_known[slot] |= bit;
            } else {
                self.frozen_known[slot] &= !bit;
            }
        }
        self.frozen_mask |= bit;
    }

    /// Applies the stuck-at clamp for one lane of `slot` to a canonical
    /// value about to be written there. Branch-free-cheap when no faults
    /// are injected.
    #[inline(always)]
    fn clamp_lane(&self, slot: usize, lane: usize, v: i64, shift: u32) -> i64 {
        if self.clamp_of.is_empty() {
            return v;
        }
        let row = self.clamp_of[slot];
        if row == u32::MAX {
            return v;
        }
        let row = &self.clamp_rows[row as usize];
        let vmask = !0u64 >> shift;
        let bits = ((v as u64) & vmask & row.and[lane]) | row.or[lane];
        canon(bits as i64, shift)
    }

    /// One walk of the bytecode: flips, reset drive, the op loop, the
    /// edge commit, and per-lane termination — the batch twin of the
    /// sequential engines' `step`.
    fn walk(&mut self) {
        // Transient flips scheduled for this cycle, known lanes only.
        if !self.flips.is_empty() {
            for i in 0..self.flips.len() {
                let BFlip {
                    cycle,
                    slot,
                    lanes,
                    xor,
                } = self.flips[i];
                if cycle != self.cycles {
                    continue;
                }
                let slot = slot as usize;
                let shift = 64 - self.widths[slot];
                let vmask = !0u64 >> shift;
                let base = slot * LANES;
                let mut m = lanes & self.known[slot];
                if m == 0 {
                    continue; // whole-X slots are skipped, unmarked
                }
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let bits = ((self.values[base + l] as u64) & vmask) ^ xor;
                    self.values[base + l] = canon(bits as i64, shift);
                }
                // Re-dirty the producer so the settle recomputes the
                // flip away on combinational slots; readers and register
                // samples see the flipped value regardless.
                let p = self.producer_op[slot];
                if p != u32::MAX {
                    self.mark_op(p);
                }
                self.mark_slot(slot);
                // A flipped Moore output must be reverted by the edge's
                // change-detected redrive: force the per-lane path.
                self.force_fsm_drive = true;
            }
        }

        // Reset generators assert during cycle 0; marked only on change
        // (every walk after cycle 1 re-drives the same zero).
        let reset_bit: i64 = if self.cycles == 0 { -1 } else { 0 };
        for i in 0..self.reset_signals.len() {
            let y = self.reset_signals[i] as usize;
            let base = y * LANES;
            let mut out = [reset_bit; LANES];
            if !self.clamp_of.is_empty() && self.clamp_of[y] != u32::MAX {
                for (l, v) in out.iter_mut().enumerate() {
                    *v = self.clamp_lane(y, l, reset_bit, 63);
                }
            }
            if self.known[y] != !0 || self.values[base..base + LANES] != out {
                self.values[base..base + LANES].copy_from_slice(&out);
                self.known[y] = !0;
                self.mark_slot(y);
            }
        }

        self.eval_ops();
        self.commit_edge();
    }

    /// The settle phase: drains the dirty bitset in ascending (rank)
    /// order. Evaluating an op can re-dirty later positions, including
    /// in the word being drained, so each word is re-fetched until it
    /// empties; rank order guarantees no earlier bit ever sets.
    fn eval_ops(&mut self) {
        for word in 0..self.dirty.len() {
            while self.dirty[word] != 0 {
                let bit = self.dirty[word].trailing_zeros() as usize;
                self.dirty[word] &= !(1u64 << bit);
                self.comb_evals += 1;
                self.eval_op(word * 64 + bit);
            }
        }
    }

    /// Evaluates one bytecode op into a scratch column, applies the
    /// fault clamp, and — only when the column or its known mask
    /// actually changed — writes it back and marks the slot's readers.
    fn eval_op(&mut self, oi: usize) {
        let mut out = [0i64; LANES];
        let (y, shift, kout) = match self.ops[oi] {
            BOp::Bin { kind, a, b, y, shift } => {
                let (a, b, y) = (a as usize, b as usize, y as usize);
                let kin = self.known[a] & self.known[b];
                let kout = match kind {
                    OpKind::Add => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| x.wrapping_add(z));
                        kin
                    }
                    OpKind::Sub => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| x.wrapping_sub(z));
                        kin
                    }
                    OpKind::Mul => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| x.wrapping_mul(z));
                        kin
                    }
                    OpKind::And => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| x & z);
                        kin
                    }
                    OpKind::Or => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| x | z);
                        kin
                    }
                    OpKind::Xor => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| x ^ z);
                        kin
                    }
                    OpKind::Shl => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| {
                            x.wrapping_shl((z & 63) as u32)
                        });
                        kin
                    }
                    OpKind::Shr => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| {
                            x.wrapping_shr((z & 63) as u32)
                        });
                        kin
                    }
                    OpKind::Ushr => {
                        let in_mask = !0u64 >> shift;
                        vec_bin(&self.values, a, b, shift, &mut out, move |x, z| {
                            (((x as u64) & in_mask) >> ((z & 63) as u32)) as i64
                        });
                        kin
                    }
                    OpKind::Eq => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| (x == z) as i64);
                        kin
                    }
                    OpKind::Ne => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| (x != z) as i64);
                        kin
                    }
                    OpKind::Lt => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| (x < z) as i64);
                        kin
                    }
                    OpKind::Le => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| (x <= z) as i64);
                        kin
                    }
                    OpKind::Gt => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| (x > z) as i64);
                        kin
                    }
                    OpKind::Ge => {
                        vec_bin(&self.values, a, b, shift, &mut out, |x, z| (x >= z) as i64);
                        kin
                    }
                    OpKind::Div | OpKind::Rem => {
                        // Word op with a failure edge: scalar per-lane
                        // loop, known lanes only — a garbage divisor in
                        // an X lane must not fail the lane. A failing
                        // lane's output keeps its old (garbage) word,
                        // like the sequential engine's aborted eval.
                        out.copy_from_slice(&self.values[y * LANES..y * LANES + LANES]);
                        let (a_base, b_base) = (a * LANES, b * LANES);
                        let mut fail = 0u64;
                        for (l, o) in out.iter_mut().enumerate() {
                            let bit = 1u64 << l;
                            if kin & bit == 0 {
                                continue;
                            }
                            let zb = self.values[b_base + l];
                            if zb == 0 {
                                fail |= bit;
                                continue;
                            }
                            let xa = self.values[a_base + l];
                            let raw = if kind == OpKind::Div {
                                xa.wrapping_div(zb)
                            } else {
                                xa.wrapping_rem(zb)
                            };
                            *o = canon(raw, shift);
                        }
                        let mut failing = fail & self.running;
                        while failing != 0 {
                            let l = failing.trailing_zeros() as usize;
                            failing &= failing - 1;
                            let what = if kind == OpKind::Div {
                                "division"
                            } else {
                                "remainder"
                            };
                            let msg = format!("{}: {what} by zero", self.op_names[oi]);
                            self.fail_lane(l, msg);
                        }
                        kin & !fail
                    }
                    OpKind::Not | OpKind::Neg => {
                        unreachable!("unary kinds never appear as Bin")
                    }
                };
                (y, shift, kout)
            }
            BOp::Un { kind, a, y, shift } => {
                let (a, y) = (a as usize, y as usize);
                match kind {
                    OpKind::Not => vec_un(&self.values, a, shift, &mut out, |x| !x),
                    OpKind::Neg => vec_un(&self.values, a, shift, &mut out, |x| x.wrapping_neg()),
                    _ => unreachable!("binary kinds never appear as Un"),
                }
                (y, shift, self.known[a])
            }
            BOp::Mux {
                sel,
                sel_mask,
                lo,
                n,
                y,
                shift,
            } => {
                let (sel, y) = (sel as usize, y as usize);
                out.copy_from_slice(&self.values[y * LANES..y * LANES + LANES]);
                let sel_base = sel * LANES;
                let ksel = self.known[sel];
                let mut kout = 0u64;
                for (l, o) in out.iter_mut().enumerate() {
                    let bit = 1u64 << l;
                    if ksel & bit == 0 {
                        continue;
                    }
                    let s = ((self.values[sel_base + l] as u64) & sel_mask) as usize;
                    if s >= n as usize {
                        continue; // out-of-range select reads X
                    }
                    let input = self.mux_pool[lo as usize + s] as usize;
                    if self.known[input] & bit == 0 {
                        continue;
                    }
                    *o = canon(self.values[input * LANES + l], shift);
                    kout |= bit;
                }
                (y, shift, kout)
            }
            BOp::SramRead {
                mem,
                en,
                we,
                addr,
                addr_mask,
                y,
            } => {
                let (mem, en, we, addr, y) =
                    (mem as usize, en as usize, we as usize, addr as usize, y as usize);
                out.copy_from_slice(&self.values[y * LANES..y * LANES + LANES]);
                let (en_base, we_base, addr_base) = (en * LANES, we * LANES, addr * LANES);
                let (ken, kwe, kaddr) = (self.known[en], self.known[we], self.known[addr]);
                let shift = self.mems[mem].shift;
                let mut kout = 0u64;
                let mut fast = false;
                // Uniform fast path: every lane read-enabled, none
                // mid-write, all reading the same known address — one
                // contiguous row copy instead of the per-lane gather.
                if ken == !0
                    && kwe == !0
                    && kaddr == !0
                    && self.nonzero_mask(en) == !0
                    && self.nonzero_mask(we) == 0
                {
                    let col = &self.values[addr_base..addr_base + LANES];
                    let a0 = ((col[0] as u64) & addr_mask) as usize;
                    if col.iter().all(|&v| v == col[0]) {
                        fast = true;
                        let m = &self.mems[mem];
                        if a0 < m.size {
                            out.copy_from_slice(&m.data[a0 * LANES..a0 * LANES + LANES]);
                            kout = m.known[a0];
                        }
                    }
                }
                if !fast {
                    for (l, o) in out.iter_mut().enumerate() {
                        let bit = 1u64 << l;
                        let en_true = ken & bit != 0 && self.values[en_base + l] != 0;
                        let we_true = kwe & bit != 0 && self.values[we_base + l] != 0;
                        if !en_true || we_true {
                            // dout undefined while disabled or
                            // mid-write, as in the sequential engines.
                            continue;
                        }
                        if kaddr & bit == 0 {
                            continue; // X address reads X (writes fail)
                        }
                        let a = ((self.values[addr_base + l] as u64) & addr_mask) as usize;
                        let m = &self.mems[mem];
                        if a >= m.size || m.known[a] & bit == 0 {
                            continue;
                        }
                        *o = m.data[a * LANES + l];
                        kout |= bit;
                    }
                }
                (y, shift, kout)
            }
        };

        if !self.clamp_of.is_empty() && self.clamp_of[y] != u32::MAX {
            let mut m = kout;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                out[l] = self.clamp_lane(y, l, out[l], shift);
            }
        }
        let base = y * LANES;
        if self.known[y] != kout || self.values[base..base + LANES] != out {
            self.values[base..base + LANES].copy_from_slice(&out);
            self.known[y] = kout;
            self.mark_slot(y);
        }
    }

    /// Attempts the uniform FSM fast path: every running lane in the
    /// same state, every consulted condition known and agreeing across
    /// them. Returns `false` (having mutated nothing) when the lanes
    /// diverge, so the caller falls back to the per-lane drive.
    ///
    /// Relies on the invariant that each running lane's output columns
    /// hold the (clamped) Moore values of its current state — true
    /// after registration, maintained by every drive path, and restored
    /// after transient flips by the forced per-lane redrive.
    fn fsm_fast_path(&mut self, fi: usize, fsm: &BFsm, done_mask: &mut u64) -> bool {
        let running = self.running;
        if running == 0 {
            return true;
        }
        let first = running.trailing_zeros() as usize;
        let su = self.fsm_state[fi * LANES + first] as usize;
        let mut m = running & (running - 1);
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.fsm_state[fi * LANES + l] as usize != su {
                return false;
            }
        }
        let states = fsm.table.states();
        let current = &states[su];
        if current.terminal {
            *done_mask |= running;
            return true;
        }
        let mut next = su;
        for transition in &current.transitions {
            match transition.condition {
                None => {
                    next = transition.target;
                    break;
                }
                Some((index, expected)) => {
                    let slot = fsm.conditions[index] as usize;
                    if self.known[slot] & running != running {
                        return false; // X somewhere: slow path fails it
                    }
                    let t = self.nonzero_mask(slot) & running;
                    let truth = if t == running {
                        true
                    } else if t == 0 {
                        false
                    } else {
                        return false; // lanes disagree on the condition
                    };
                    if truth == expected {
                        next = transition.target;
                        break;
                    }
                }
            }
        }
        if next != su {
            let mut m = running;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.fsm_state[fi * LANES + l] = next as u32;
            }
            for (j, &slot) in fsm.outputs.iter().enumerate() {
                let vnew = fsm.state_values[next][j];
                if vnew == fsm.state_values[su][j] {
                    continue; // same Moore value in both states
                }
                let slot = slot as usize;
                let shift = fsm.out_shifts[j];
                let base = slot * LANES;
                let mut m = running;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.values[base + l] = self.clamp_lane(slot, l, vnew, shift);
                }
                self.known[slot] |= running;
                self.mark_slot(slot);
            }
        }
        if states[next].terminal {
            *done_mask |= running;
        }
        true
    }

    /// The rising-edge commit, per-lane: register sample, SRAM writes,
    /// FSM transitions + Moore drive, register commit, watchpoint scan —
    /// the same phase order as `FlatModel::commit_edge` — then the cycle
    /// counter and per-lane termination with the sequential `step`'s
    /// watch-beats-done priority.
    fn commit_edge(&mut self) {
        // Phase a: sample the dirty registers into scratch (all lanes;
        // commit is masked later so frozen-lane samples are
        // unobservable). The dirty set is drained fully — a register
        // none of whose inputs changed would resample the same value,
        // so skipping it is unobservable, exactly as in the level
        // engine.
        let mut edge_regs = std::mem::take(&mut self.edge_regs);
        edge_regs.clear();
        for word in 0..self.reg_dirty.len() {
            while self.reg_dirty[word] != 0 {
                let bit = self.reg_dirty[word].trailing_zeros() as usize;
                self.reg_dirty[word] &= !(1u64 << bit);
                edge_regs.push((word * 64 + bit) as u32);
            }
        }
        for &ri in &edge_regs {
            let r = ri as usize;
            let reg = self.regs[r];
            let d = reg.d as usize;
            let d_base = d * LANES;
            let out_base = r * LANES;
            // Column masks first (which lanes reset, which are enabled),
            // then one branch-free canon copy of the whole `d` column —
            // lanes that hold or reset get their scratch overridden or
            // masked out by `reg_commit`, so the copy is unobservable
            // for them.
            let rst_mask = if reg.rst == u32::MAX {
                0
            } else {
                self.known[reg.rst as usize] & self.nonzero_mask(reg.rst as usize)
            };
            let en_mask = if reg.en == u32::MAX {
                !0
            } else {
                self.known[reg.en as usize] & self.nonzero_mask(reg.en as usize)
            };
            if rst_mask | en_mask == 0 {
                // Every lane holds: no sample, no commit.
                self.reg_commit[r] = 0;
                continue;
            }
            let shift = reg.shift;
            {
                let src = &self.values[d_base..d_base + LANES];
                let dst = &mut self.reg_vals[out_base..out_base + LANES];
                for l in 0..LANES {
                    dst[l] = canon(src[l], shift);
                }
            }
            let mut m = rst_mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.reg_vals[out_base + l] = 0;
            }
            self.reg_commit[r] = rst_mask | en_mask;
            self.reg_known[r] = (self.known[d] & en_mask & !rst_mask) | rst_mask;
        }

        // Phase b: SRAM writes, in instance order, running lanes only.
        for s in 0..self.srams.len() {
            let (mem, en, we, addr, din, addr_mask) = {
                let sr = &self.srams[s];
                (
                    sr.mem as usize,
                    sr.en as usize,
                    sr.we as usize,
                    sr.addr as usize,
                    sr.din as usize,
                    sr.addr_mask,
                )
            };
            // Write candidates: running lanes whose en and we are both
            // known-true. Almost every walk this is empty; scanning we
            // first means the common no-write case costs one column
            // scan, not two.
            let we_hot = self.running & self.known[we] & self.nonzero_mask(we);
            if we_hot == 0 {
                continue;
            }
            let candidates = we_hot & self.known[en] & self.nonzero_mask(en);
            if candidates == 0 {
                continue;
            }
            let (kaddr, kdin) = (self.known[addr], self.known[din]);
            let mut wrote = false;
            let mut m = candidates;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let bit = 1u64 << l;
                if kaddr & bit == 0 {
                    let msg = format!("{}: X address", self.srams[s].name);
                    self.fail_lane(l, msg);
                    continue;
                }
                let a = ((self.values[addr * LANES + l] as u64) & addr_mask) as usize;
                if a >= self.mems[mem].size {
                    let msg = format!("{}: address {} out of range", self.srams[s].name, a);
                    self.fail_lane(l, msg);
                    continue;
                }
                if kdin & bit == 0 {
                    let msg = format!("{}: X write data", self.srams[s].name);
                    self.fail_lane(l, msg);
                    continue;
                }
                let shift = self.mems[mem].shift;
                self.mems[mem].data[a * LANES + l] = canon(self.values[din * LANES + l], shift);
                self.mems[mem].known[a] |= bit;
                wrote = true;
            }
            // A committed write dirties the read path even though no
            // signal changed, as in the level engine.
            if wrote {
                let op = self.sram_read_op[s];
                self.mark_op(op);
            }
        }

        // Phase c: FSM transitions + Moore outputs, running lanes only.
        // When every running lane sits in the same state and the
        // consulted conditions resolve identically across them, the
        // transition is computed once and only the outputs whose value
        // differs between the two states are rewritten (and marked) —
        // on a quiet cycle this phase touches nothing. Divergent lanes,
        // X conditions, and flip-forced walks fall back to the per-lane
        // drive with per-write change detection.
        let fsms = std::mem::take(&mut self.fsms);
        let force = std::mem::take(&mut self.force_fsm_drive);
        let mut done_mask = 0u64;
        for (fi, fsm) in fsms.iter().enumerate() {
            if !force && self.fsm_fast_path(fi, fsm, &mut done_mask) {
                continue;
            }
            let states = fsm.table.states();
            let mut m = self.running;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let bit = 1u64 << l;
                let st = self.fsm_state[fi * LANES + l] as usize;
                let current = &states[st];
                let next = if current.terminal {
                    st
                } else {
                    let mut next = st;
                    let mut failed = None;
                    for transition in &current.transitions {
                        match transition.condition {
                            None => {
                                next = transition.target;
                                break;
                            }
                            Some((index, expected)) => {
                                let slot = fsm.conditions[index] as usize;
                                if self.known[slot] & bit == 0 {
                                    failed = Some(format!(
                                        "{}: X condition in state '{}'",
                                        fsm.name, current.name
                                    ));
                                    break;
                                }
                                let truth = self.values[slot * LANES + l] != 0;
                                if truth == expected {
                                    next = transition.target;
                                    break;
                                }
                            }
                        }
                    }
                    if let Some(msg) = failed {
                        self.fail_lane(l, msg);
                        continue;
                    }
                    next
                };
                self.fsm_state[fi * LANES + l] = next as u32;
                for (j, &slot) in fsm.outputs.iter().enumerate() {
                    let slot = slot as usize;
                    let v = self.clamp_lane(
                        slot,
                        l,
                        fsm.state_values[next][j],
                        fsm.out_shifts[j],
                    );
                    let idx = slot * LANES + l;
                    if self.known[slot] & bit == 0 || self.values[idx] != v {
                        self.values[idx] = v;
                        self.known[slot] |= bit;
                        self.mark_slot(slot);
                    }
                }
                if states[next].terminal {
                    done_mask |= bit;
                }
            }
        }
        self.fsms = fsms;

        // Phase d: register commit (non-blocking) for the registers
        // sampled this edge, running lanes only — a lane that failed
        // earlier this walk aborted before this phase in the sequential
        // engine, so it must not commit here either. A `q` whose column
        // actually changed marks its readers for the next settle.
        for &ri in &edge_regs {
            let r = ri as usize;
            let reg = self.regs[r];
            let q = reg.q as usize;
            let q_base = q * LANES;
            let commit = self.reg_commit[r] & self.running;
            if commit == 0 {
                continue;
            }
            // All-lanes unclamped commit (the common case mid-run) is a
            // column compare-and-copy; a lane whose sample was unknown
            // gets its scratch word written too, which is unobservable
            // because its known bit clears.
            let clamped = !self.clamp_of.is_empty() && self.clamp_of[q] != u32::MAX;
            if commit == !0 && !clamped {
                let new_known = self.reg_known[r];
                let src = &self.reg_vals[r * LANES..r * LANES + LANES];
                let dst = &mut self.values[q_base..q_base + LANES];
                if self.known[q] != new_known || dst[..] != src[..] {
                    dst.copy_from_slice(src);
                    self.known[q] = new_known;
                    self.mark_slot(q);
                }
                continue;
            }
            let mut changed = false;
            let mut m = commit;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let bit = 1u64 << l;
                if self.reg_known[r] & bit != 0 {
                    let v = self.clamp_lane(q, l, self.reg_vals[r * LANES + l], reg.shift);
                    if self.known[q] & bit == 0 || self.values[q_base + l] != v {
                        self.values[q_base + l] = v;
                        self.known[q] |= bit;
                        changed = true;
                    }
                } else if self.known[q] & bit != 0 {
                    self.known[q] &= !bit;
                    changed = true;
                }
            }
            if changed {
                self.mark_slot(q);
            }
        }
        self.edge_regs = edge_regs;

        // Phase e: watchpoint scan (first matching watch wins, as in the
        // sequential scan order), running lanes only.
        let mut watch_mask = 0u64;
        let mut watch_hits: Vec<(usize, String)> = Vec::new();
        if !self.watches.is_empty() {
            let mut m = self.running;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let bit = 1u64 << l;
                for w in &self.watches {
                    let slot = w.sig as usize;
                    if self.known[slot] & bit != 0 && self.values[slot * LANES + l] == w.value {
                        watch_mask |= bit;
                        watch_hits.push((l, w.name.clone()));
                        break;
                    }
                }
            }
        }

        self.cycles += 1;

        // Termination: a watchpoint outranks done, as in sequential
        // `step`; both count the walk that fired them as elapsed.
        let mut m = self.running & (watch_mask | done_mask);
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            let bit = 1u64 << l;
            if watch_mask & bit != 0 {
                let name = watch_hits
                    .iter()
                    .find(|(lane, _)| *lane == l)
                    .map(|(_, n)| n.clone())
                    .expect("hit recorded");
                self.outcomes[l] = Some(LaneOutcome::Watchpoint(name));
            } else {
                self.outcomes[l] = Some(LaneOutcome::Done);
            }
            self.lane_cycles[l] = self.cycles;
            self.running &= !bit;
            self.freeze_lane(l);
        }
    }

    /// Walks the schedule until every active lane has finished, failed,
    /// or exhausted `max_cycles`. Returns one result per lane (relative
    /// cycle counts); inactive lanes return `None`.
    pub fn run_batch(&mut self, max_cycles: u64) -> BatchSummary {
        let start = self.cycles;
        loop {
            if self.running == 0 {
                break;
            }
            if self.cycles - start >= max_cycles {
                let mut m = self.running;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.outcomes[l] = Some(LaneOutcome::CycleLimit);
                    self.lane_cycles[l] = self.cycles;
                }
                self.running = 0;
                break;
            }
            self.walk();
        }
        BatchSummary {
            lanes: (0..LANES)
                .map(|l| {
                    if self.active & (1u64 << l) == 0 {
                        return None;
                    }
                    self.outcomes[l].clone().map(|outcome| LaneResult {
                        outcome,
                        cycles: self.lane_cycles[l].saturating_sub(start),
                    })
                })
                .collect(),
        }
    }

    /// Sequential-compatible single-result run: lane 0's outcome in the
    /// [`CycleSummary`] shape, with lane-0 failures surfaced as
    /// [`CycleSimError::Failed`] like the sequential engines.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Failed`] when lane 0 fails.
    pub fn run(&mut self, max_cycles: u64) -> Result<CycleSummary, CycleSimError> {
        let start_evals = self.comb_evals;
        let summary = self.run_batch(max_cycles);
        let lane = summary
            .lanes
            .first()
            .cloned()
            .flatten()
            .expect("lane 0 is active");
        let outcome = match lane.outcome {
            LaneOutcome::Failed(m) => return Err(CycleSimError::Failed(m)),
            LaneOutcome::Done => CycleOutcome::Done,
            LaneOutcome::Watchpoint(name) => CycleOutcome::Watchpoint(name),
            LaneOutcome::CycleLimit => CycleOutcome::CycleLimit,
        };
        Ok(CycleSummary {
            outcome,
            cycles: lane.cycles,
            comb_evals: self.comb_evals - start_evals,
        })
    }
}
