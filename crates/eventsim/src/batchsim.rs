//! The bytecode-compiled engine: `W` stimulus lanes per schedule walk.
//!
//! The engine comes in two parts:
//!
//! * **A compiled program** ([`BatchProgram`]) that does not depend on
//!   the lane width. [`BatchProgram::compile`] levelizes the netlist's
//!   combinational instances (`FlatModel::levelize`: a true combinational
//!   loop is reported here as [`CycleSimError::CombinationalCycle`]) and
//!   flattens the rank schedule into a linear bytecode buffer (`BOp`) of
//!   dense operand slots, with the register, SRAM, watch, reader and
//!   producer tables the walk reads and every slot's value after
//!   construction; [`BatchProgram::add_control_unit`] attaches the
//!   control units.
//! * **Per-walk lane state** ([`BatchSim`]): the values, known masks,
//!   memories, FSM states, faults, dirty sets, outcomes and counters of
//!   `W` lanes. [`BatchSim::new`] creates one from an `Arc` of a program
//!   and only allocates state, so a design compiles each configuration
//!   once and every walk of it shares the program.
//!
//! One walk of the bytecode evaluates `W` independent stimulus vectors,
//! `1 ≤ W ≤ 64`; the caller's engine picks the width. `BatchSim<1>` is
//! the level engine (`--engine level`) and `BatchSim<LANES>` the batch
//! engine (`--engine batch`, fault packs, `run_batch`).
//!
//! * **State is lane-struct-of-arrays.** Every value slot holds `W`
//!   sign-extended `i64` lanes (`values[slot * W + lane]`) plus one lane
//!   mask of known bits per slot; memories hold `size × W` words
//!   addr-major. One walk of the bytecode evaluates all `W` lanes.
//! * **The walk is dirty-driven.** A dirty bitset over op indices is
//!   drained in ascending (rank) order; an op whose output column
//!   actually changed marks its reader ops and the registers that sample
//!   it, so a quiescent region of the schedule costs nothing. Because
//!   dirtiness is tracked per *column* (any lane changing re-evaluates
//!   all `W`), each lane's evaluation set is a superset of what a
//!   one-lane walk would evaluate for that lane alone — extra
//!   evaluations of unchanged inputs are observationally idempotent, so
//!   per-lane results are unaffected.
//! * **Bitwise ops vectorize across packed lanes; word ops loop the
//!   lane array.** Infallible ops (add/sub/mul/logic/shift/compare)
//!   evaluate all lanes unconditionally in straight-line loops the
//!   compiler can vectorize; fallible or data-dependent ops (div/rem,
//!   mux selection, SRAM reads) take a scalar per-lane path with known
//!   checks.
//! * **Control units commit per state group.** At each edge the running
//!   lanes are grouped by FSM state; each group resolves its transition
//!   once over lane masks (splitting where lanes disagree on a
//!   condition) and rewrites only the Moore outputs that differ between
//!   its old and new state, so an edge costs one pass per distinct
//!   state, not per lane. The walk after a transient flip or a re-arm
//!   redrives every output instead.
//! * **A lone lane finishes one lane wide.** When a walk wider than one
//!   lane has exactly one running lane, [`BatchSim::run_batch`] moves
//!   that lane into a one-lane instance of the same program, runs it
//!   there and moves it back, so a pack's long tail costs a level walk
//!   instead of `W` lanes of column work.
//! * **Per-lane bit-identity.** Each lane's observable results — signal
//!   values, memory images, cycle counts, failure messages, and
//!   termination outcomes — are bit-identical to running that lane's
//!   stimulus alone through a one-lane walk, and agree with the sweep
//!   engine ([`crate::cyclesim::CycleSim`]). Lanes that fail or finish
//!   drop out of the running mask and stop committing state; the
//!   surviving lanes walk on. See `DESIGN.md` ("Batch engine").
//! * **One observer per walk.** The walk is generic over a
//!   `WalkObserver`, whose hooks hear that a walk started, an op was
//!   evaluated at its rank, a slot's column changed, or a memory word
//!   was read or written. `()` is the observer of ordinary walks: its
//!   hooks are empty, so its instance of the walk carries no instrument
//!   code. A [`BatchSim`] feeds one instrument at most, and each is an
//!   observer with its own instance of the walk:
//!   * the per-rank profile ([`BatchSim::enable_profile`]) times every
//!     evaluation into its rank's counters;
//!   * the walk record ([`BatchSim::enable_record`]) notes, per signal,
//!     the bits it ever held as known 0 and known 1 (toggle coverage),
//!     and per memory word whether a read or a write touched it first.
//!     Fault campaigns prove sites silent from it.
//!
//! Faults are per-lane: stuck-at clamps carry a `W`-lane AND/OR row per
//! faulted slot, transient flips carry a lane mask, so a fault campaign
//! can pack 64 fault sites into one batch walk.

use crate::cyclesim::{CycleOutcome, CycleSimError, CycleSummary};
use crate::netlist::Netlist;
use crate::ops::{FsmTable, OpKind};
use crate::simmodel::{Comb, FlatModel};
use crate::value::{mask, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Stimulus lanes per walk of the batch engine. Matches the machine word
/// so known masks, running masks, and fault lane-masks are single `u64`s.
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
    /// `n` input slots live in `BatchProgram::mux_pool[lo..lo + n]`.
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

impl BOp {
    /// Calls `read` on every input slot, in operand order (duplicates
    /// possible).
    fn inputs(&self, mux_pool: &[u32], mut read: impl FnMut(u32)) {
        match *self {
            BOp::Bin { a, b, .. } => {
                read(a);
                read(b);
            }
            BOp::Un { a, .. } => read(a),
            BOp::Mux { sel, lo, n, .. } => {
                read(sel);
                mux_pool[lo as usize..(lo + n) as usize]
                    .iter()
                    .for_each(|&i| read(i));
            }
            BOp::SramRead { en, we, addr, .. } => {
                read(en);
                read(we);
                read(addr);
            }
        }
    }

    /// The slot this op writes.
    fn y(&self) -> u32 {
        match *self {
            BOp::Bin { y, .. }
            | BOp::Un { y, .. }
            | BOp::Mux { y, .. }
            | BOp::SramRead { y, .. } => y,
        }
    }
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

/// A memory's shape: `shift = 64 - word width`, and its size in words.
#[derive(Debug, Clone, Copy)]
struct MemShape {
    shift: u32,
    size: usize,
}

/// Lane-parallel memory contents: `data[addr * W + lane]` canonical,
/// `known[addr]` a lane mask (bit set = that lane's word is defined).
#[derive(Debug, Clone)]
struct BMem {
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
    /// `deltas[state][transition]`: the outputs whose value differs
    /// between `state` and that transition's target.
    deltas: Vec<Vec<Vec<u32>>>,
}

/// Per-lane stuck-at clamp row for one faulted slot.
#[derive(Debug, Clone)]
struct ClampRow<const W: usize> {
    and: [u64; W],
    or: [u64; W],
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
    /// A design failure — the message the sweep engine would have raised
    /// as [`CycleSimError::Failed`].
    Failed(String),
}

/// One finished lane: its outcome and the cycles it ran (relative to
/// the `run_batch` call, with the sweep engine's conventions —
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

/// One row of [`BatchProgram::rank_table`]: an instance, its rank, and
/// the combinational producers it reads (with their ranks).
#[derive(Debug, Clone)]
pub struct RankEntry {
    /// Instance name.
    pub instance: String,
    /// Evaluation rank (0 = fed only by sequential/constant slots).
    pub rank: usize,
    /// `(producer instance, producer rank)` for every combinational
    /// instance whose output this one reads.
    pub sources: Vec<(String, usize)>,
}

/// Per-rank walk timing and dirty-bitset effectiveness, collected when
/// [`BatchSim::enable_profile`] was called.
#[derive(Debug, Clone, Default)]
pub struct WalkProfile {
    /// Schedule walks executed (one per clock cycle).
    pub walks: u64,
    /// Number of ops in each rank.
    pub rank_sizes: Vec<u64>,
    /// Accumulated per-rank counters, indexed by rank.
    pub ranks: Vec<RankProfile>,
}

/// One rank's accumulated profile counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankProfile {
    /// Dirty ops of this rank actually evaluated.
    pub evals: u64,
    /// Evaluations whose output column changed.
    pub changes: u64,
    /// Monotonic nanoseconds spent evaluating this rank.
    pub nanos: u64,
}

impl WalkProfile {
    /// Fraction of rank `rank`'s ops the dirty bitset actually evaluated,
    /// across all walks — 1.0 means no savings over evaluate-everything,
    /// small values mean the bitset is doing its job.
    pub fn hit_rate(&self, rank: usize) -> f64 {
        let visited = self.ranks.get(rank).map_or(0, |row| row.evals);
        let possible = self.rank_sizes.get(rank).copied().unwrap_or(0) * self.walks;
        if possible == 0 {
            0.0
        } else {
            visited as f64 / possible as f64
        }
    }
}

/// How a recording walk first touched one memory word (see
/// [`BatchSim::enable_record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstAccess {
    /// Neither read nor written.
    Untouched,
    /// First a read-port evaluation with `en` = 1 and `we` = 0 at this
    /// address, whether or not the word was known. The settle precedes
    /// the edge, so a read and a write in one cycle count as a read.
    Read,
    /// First a committed write.
    Write,
}

/// The bits one signal held during a recording walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignalBits {
    /// The signal's width.
    pub width: u32,
    /// Bits the signal held as known 0 at some point.
    pub ever0: u64,
    /// Bits the signal held as known 1 at some point.
    pub ever1: u64,
}

/// What a recording walk has seen so far: per value slot, the bits ever
/// held known-0 and known-1; per memory, each word's first access.
#[derive(Debug, Clone)]
struct WalkRecord {
    ever0: Vec<u64>,
    ever1: Vec<u64>,
    first: Vec<Vec<FirstAccess>>,
}

/// What a walk tells the instrument it feeds. Every hook defaults to
/// nothing, so an observer overrides only the hooks it reads, and `()`,
/// the observer of ordinary walks, overrides none.
trait WalkObserver {
    /// A walk (one clock cycle) starts.
    fn walk_started(&mut self) {}

    /// An op (the program and its index give its rank) is evaluated by
    /// `f`, which says whether its output column changed; returns that.
    #[inline(always)]
    fn evaluate(&mut self, _: &BatchProgram, _: usize, f: impl FnOnce(&mut Self) -> bool) -> bool {
        f(self)
    }

    /// A slot's column in the lane state changed, or is held when
    /// recording starts.
    fn column_changed<const W: usize>(&mut self, _: &BatchProgram, _: &LaneState<W>, _: usize) {}

    /// A running lane read or wrote word `addr` of memory `mem`.
    fn mem_access(&mut self, _mem: usize, _addr: usize, _access: FirstAccess) {}
}

impl WalkObserver for () {}

/// Times each evaluation into its rank's row.
impl WalkObserver for WalkProfile {
    fn walk_started(&mut self) {
        self.walks += 1;
    }

    fn evaluate(&mut self, p: &BatchProgram, oi: usize, f: impl FnOnce(&mut Self) -> bool) -> bool {
        let started = Instant::now();
        let changed = f(self);
        let nanos = started.elapsed().as_nanos() as u64;
        let row = &mut self.ranks[p.op_ranks[oi] as usize];
        row.evals += 1;
        row.changes += changed as u64;
        row.nanos += nanos;
        changed
    }
}

/// Folds the known running lanes of every changed column into the bits
/// held, and notes each word's first access.
impl WalkObserver for WalkRecord {
    fn column_changed<const W: usize>(&mut self, p: &BatchProgram, s: &LaneState<W>, slot: usize) {
        let vmask = mask(p.widths[slot]);
        let mut m = s.known[slot] & s.running;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            let v = s.values[slot * W + l] as u64 & vmask;
            self.ever1[slot] |= v;
            self.ever0[slot] |= !v & vmask;
        }
    }

    fn mem_access(&mut self, mem: usize, addr: usize, access: FirstAccess) {
        let first = &mut self.first[mem][addr];
        if *first == FirstAccess::Untouched {
            *first = access;
        }
    }
}

/// The instrument a [`BatchSim`]'s walks feed.
enum Instrument {
    Profile(WalkProfile),
    Record(WalkRecord),
}

/// The compiled program: the bytecode and every table a walk reads but
/// never writes, independent of the lane width. Compile it once per
/// netlist, attach its control units, and share it through an `Arc`
/// among the [`BatchSim`] instances that walk it.
#[derive(Debug)]
pub struct BatchProgram {
    ops: Vec<BOp>,
    /// Instance name per bytecode op, for failure messages and the rank
    /// table.
    op_names: Vec<String>,
    /// Levelization rank per bytecode op (non-decreasing: ops are in
    /// rank order).
    op_ranks: Vec<u32>,
    mux_pool: Vec<u32>,
    widths: Vec<u32>,
    regs: Vec<BReg>,
    srams: Vec<BSram>,
    mems: Vec<MemShape>,
    mem_names: HashMap<String, usize>,
    signal_index: HashMap<String, usize>,
    reset_signals: Vec<u32>,
    watches: Vec<BWatch>,
    fsms: Vec<BFsm>,
    /// Comb readers per value slot: the op indices whose inputs include
    /// the slot.
    readers: Vec<Vec<u32>>,
    /// Registers whose `d`/`en`/`rst` read each value slot.
    reg_readers: Vec<Vec<u32>>,
    /// Op producing each value slot (`u32::MAX` for sequential/constant
    /// slots). A transient flip re-dirties the producer so the settle
    /// recomputes it away, matching the sweep engine's fixpoint.
    producer_op: Vec<u32>,
    /// Read-port op per SRAM instance: a committed write dirties the
    /// read path even though no signal changed.
    sram_read_op: Vec<u32>,
    /// Every slot's value after construction (`None` = X): constants
    /// known, control-unit outputs at their initial state's values,
    /// everything else X. Every lane of a new instance starts from it.
    initial: Vec<Option<i64>>,
}

/// The per-walk state of `W` lanes: everything a walk of a
/// [`BatchProgram`] writes.
struct LaneState<const W: usize> {
    /// Canonical lane values, `slot * W + lane`.
    values: Vec<i64>,
    /// Known lane mask per slot.
    known: Vec<u64>,
    mems: Vec<BMem>,
    /// Current state per FSM per lane, `fsm * W + lane`.
    fsm_state: Vec<u32>,
    /// Clamp row index per slot (`u32::MAX` = unfaulted); empty until
    /// the first stuck-at injection.
    clamp_of: Vec<u32>,
    clamp_rows: Vec<ClampRow<W>>,
    flips: Vec<BFlip>,
    /// Dirty bitset over op indices.
    dirty: Vec<u64>,
    /// Dirty bitset over registers — only these are sampled on the edge
    /// (a register none of whose inputs changed would resample and
    /// commit the same value, so skipping it is unobservable).
    reg_dirty: Vec<u64>,
    /// Registers sampled this edge (drain order), reused across walks.
    edge_regs: Vec<u32>,
    /// Makes the next edge redrive every Moore output of every running
    /// lane with change detection, instead of only the outputs a state
    /// change alters (set by transient flips and re-arms, after which an
    /// output column may no longer hold its lane's state values).
    force_fsm_drive: bool,
    /// Register sample scratch, `reg * W + lane`.
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
    /// served from this freeze-frame — the state a one-lane run would
    /// have stopped with. Registers, FSMs, and memories are commit-
    /// masked and need no copy.
    frozen_mask: u64,
    /// Frozen value column per lane, `slot * W + lane`; lazily
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

/// The compiled engine over `W` lanes: a shared [`BatchProgram`] and the
/// lane state its walks write. See the [module docs](self).
pub struct BatchSim<const W: usize> {
    program: Arc<BatchProgram>,
    lanes: LaneState<W>,
    /// The one instrument the walks feed, if any.
    instrument: Option<Instrument>,
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
fn vec_bin<const W: usize>(
    values: &[i64],
    a: usize,
    b: usize,
    shift: u32,
    out: &mut [i64; W],
    f: impl Fn(i64, i64) -> i64,
) {
    let va = &values[a * W..a * W + W];
    let vb = &values[b * W..b * W + W];
    for l in 0..W {
        out[l] = canon(f(va[l], vb[l]), shift);
    }
}

/// Vectorized unary op over all lanes.
#[inline(always)]
fn vec_un<const W: usize>(
    values: &[i64],
    a: usize,
    shift: u32,
    out: &mut [i64; W],
    f: impl Fn(i64) -> i64,
) {
    let va = &values[a * W..a * W + W];
    for l in 0..W {
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

impl BatchProgram {
    /// Compiles a netlist: levelizes it (`FlatModel::levelize`), then
    /// flattens the rank schedule into bytecode and the model into the
    /// tables a walk reads.
    ///
    /// # Errors
    ///
    /// [`CycleSimError::Build`] for constructs outside the compiled
    /// engines' vocabulary, and [`CycleSimError::CombinationalCycle`]
    /// when the combinational netlist is not a DAG (the error names one
    /// concrete loop).
    pub fn compile(netlist: &Netlist) -> Result<Self, CycleSimError> {
        let model = FlatModel::from_netlist(netlist)?;
        let levels = model.levelize()?;
        let order = &levels.order;
        let widths: Vec<u32> = model.values.iter().map(Value::width).collect();

        let mut ops = Vec::with_capacity(order.len());
        let mut op_names = Vec::with_capacity(order.len());
        let mut mux_pool: Vec<u32> = Vec::new();
        for &ci in order {
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
        let op_ranks = order.iter().map(|&ci| levels.ranks[ci as usize]).collect();

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
        let mems = model
            .mems
            .iter()
            .map(|m| MemShape {
                shift: 64 - m.width(),
                size: m.size(),
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

        // Reader tables: which ops re-evaluate and which registers
        // re-sample when a slot's column changes.
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); slots];
        let mut producer_op = vec![u32::MAX; slots];
        for (oi, op) in ops.iter().enumerate() {
            let oi = oi as u32;
            op.inputs(&mux_pool, |slot| {
                let list = &mut readers[slot as usize];
                if list.last() != Some(&oi) {
                    list.push(oi);
                }
            });
            producer_op[op.y() as usize] = oi;
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

        Ok(BatchProgram {
            ops,
            op_names,
            op_ranks,
            mux_pool,
            widths,
            regs,
            srams,
            mems,
            mem_names: model.mem_names,
            signal_index: model.signal_index,
            reset_signals: model.reset_signals.iter().map(|&s| s as u32).collect(),
            watches,
            fsms: Vec::new(),
            readers,
            reg_readers,
            producer_op,
            sram_read_op,
            initial: model.values.iter().map(Value::try_i64).collect(),
        })
    }

    /// Attaches a behavioral control unit (same table vocabulary as the
    /// event kernel and the sweep engine). Instances start with its
    /// initial state's outputs driven into every lane.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] on a signal-count mismatch or an
    /// unknown signal, with the sweep engine's messages.
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
        let deltas = table
            .states()
            .iter()
            .zip(&state_values)
            .map(|(state, from)| {
                state
                    .transitions
                    .iter()
                    .map(|t| {
                        let to = &state_values[t.target];
                        (0..from.len() as u32)
                            .filter(|&j| from[j as usize] != to[j as usize])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for (&slot, &value) in out_ids.iter().zip(&state_values[0]) {
            self.initial[slot as usize] = Some(value);
        }
        self.fsms.push(BFsm {
            name,
            table,
            conditions: cond_ids,
            outputs: out_ids,
            out_shifts,
            state_values,
            deltas,
        });
        Ok(())
    }

    /// Number of levelization ranks in the compiled schedule.
    pub fn rank_count(&self) -> usize {
        self.op_ranks.last().map_or(0, |&r| r as usize + 1)
    }

    /// The levelization result, for inspection and property tests: every
    /// combinational instance, in schedule order, with its rank and its
    /// combinational sources.
    pub fn rank_table(&self) -> Vec<RankEntry> {
        let rank = |op: u32| self.op_ranks[op as usize] as usize;
        let mut slots = Vec::new();
        self.ops
            .iter()
            .enumerate()
            .map(|(oi, op)| {
                slots.clear();
                op.inputs(&self.mux_pool, |slot| slots.push(slot));
                slots.sort_unstable();
                slots.dedup();
                let sources = slots
                    .iter()
                    .map(|&slot| self.producer_op[slot as usize])
                    .filter(|&p| p != u32::MAX)
                    .map(|p| (self.op_names[p as usize].clone(), rank(p)))
                    .collect();
                RankEntry {
                    instance: self.op_names[oi].clone(),
                    rank: rank(oi as u32),
                    sources,
                }
            })
            .collect()
    }
}

impl<const W: usize> BatchSim<W> {
    /// A fresh instance of `program`: every lane at the program's
    /// initial values, memories X, control units in their initial
    /// states, everything dirty. Creating one only allocates lane state.
    pub fn new(program: Arc<BatchProgram>) -> Self {
        let lanes = LaneState::new(&program);
        BatchSim {
            program,
            lanes,
            instrument: None,
        }
    }

    /// Compiles a netlist ([`BatchProgram::compile`]) and instantiates
    /// it.
    ///
    /// # Errors
    ///
    /// As [`BatchProgram::compile`].
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, CycleSimError> {
        Ok(Self::new(Arc::new(BatchProgram::compile(netlist)?)))
    }

    /// The compiled program this instance walks.
    pub fn program(&self) -> &Arc<BatchProgram> {
        &self.program
    }

    /// Restricts the next `run_batch` to the lanes in `lane_mask` and
    /// re-arms them (prior outcomes are cleared, so a lane that hit a
    /// watchpoint in one configuration keeps walking in the next).
    /// Excluded lanes keep their state but never commit, fail, or finish
    /// — their summary entry stays `None`.
    pub fn set_active(&mut self, lane_mask: u64) {
        self.lanes.set_active(&self.program, lane_mask);
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
        let lanes = LaneState::<W>::ALL;
        self.lanes
            .inject_stuck(&self.program, signal, bit, value, lanes)
    }

    /// [`inject_stuck_at`](Self::inject_stuck_at) restricted to one lane
    /// — the fault-campaign batching hook (`W` sites per walk).
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
        self.lanes
            .inject_stuck(&self.program, signal, bit, value, 1u64 << lane)
    }

    /// Schedules a one-walk transient flip on every lane, with the sweep
    /// engine's timing (applied before the reset drive and the settle of
    /// the matching cycle): a flip on a comb-driven slot is recomputed
    /// away, one on a sequential output (register `q`, FSM output,
    /// constant) persists for that walk and propagates. Returns `false`
    /// when no such signal exists.
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
        self.inject_flip_masked(signal, bit, cycle, LaneState::<W>::ALL)
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
        let Some(&slot) = self.program.signal_index.get(signal) else {
            return Ok(false);
        };
        let width = self.program.widths[slot];
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "bit-flip bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        self.lanes.flips.push(BFlip {
            cycle,
            slot: slot as u32,
            lanes,
            xor: 1u64 << bit,
        });
        Ok(true)
    }

    /// Loads an image (`None` = leave X) into one lane of the named
    /// SRAM. Returns `false` when the memory does not exist. Values
    /// truncate to the memory width, like [`crate::MemHandle::store`].
    pub fn load_mem(&mut self, name: &str, lane: usize, image: &[Option<i64>]) -> bool {
        let p = &self.program;
        let Some(&mi) = p.mem_names.get(name) else {
            return false;
        };
        let shape = p.mems[mi];
        let mem = &mut self.lanes.mems[mi];
        let bit = 1u64 << lane;
        for (addr, word) in image.iter().enumerate().take(shape.size) {
            match word {
                Some(v) => {
                    mem.data[addr * W + lane] = canon(*v, shape.shift);
                    mem.known[addr] |= bit;
                }
                None => mem.known[addr] &= !bit,
            }
        }
        self.lanes.mark_mem_readers(p, mi);
        true
    }

    /// [`load_mem`](Self::load_mem) into every lane.
    pub fn load_mem_all(&mut self, name: &str, image: &[Option<i64>]) -> bool {
        (0..W).all(|lane| self.load_mem(name, lane, image))
    }

    /// Final image of one lane of the named SRAM (`None` entries are
    /// uninitialized words), or `None` if the memory does not exist.
    pub fn snapshot_mem(&self, name: &str, lane: usize) -> Option<Vec<Option<i64>>> {
        let &mi = self.program.mem_names.get(name)?;
        let mem = &self.lanes.mems[mi];
        let bit = 1u64 << lane;
        Some(
            (0..self.program.mems[mi].size)
                .map(|addr| (mem.known[addr] & bit != 0).then(|| mem.data[addr * W + lane]))
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
        let &slot = self.program.signal_index.get(name)?;
        let width = self.program.widths[slot];
        let s = &self.lanes;
        let bit = 1u64 << lane;
        let (vals, known) = if s.frozen_mask & bit != 0 {
            (&s.frozen_vals, &s.frozen_known)
        } else {
            (&s.values, &s.known)
        };
        Some(if known[slot] & bit != 0 {
            Value::known(width, vals[slot * W + lane])
        } else {
            Value::x(width)
        })
    }

    /// Cycles executed, with the sweep engine's convention: after lane 0
    /// fails or finishes, its own cycle count (a failing walk does not
    /// count as elapsed).
    pub fn cycles(&self) -> u64 {
        let s = &self.lanes;
        if s.outcomes[0].is_some() {
            s.lane_cycles[0]
        } else {
            s.cycles
        }
    }

    /// Bytecode evaluations performed: dirty ops drained across all
    /// walks (each evaluation covers all `W` lanes, and a change in any
    /// lane re-evaluates the whole column).
    pub fn comb_evals(&self) -> u64 {
        self.lanes.comb_evals
    }

    /// Turns on the per-rank walk profile, in place of a walk record if
    /// one was on (an instance feeds one instrument at most). Profiling
    /// only observes: cycle and evaluation counters, values, and
    /// outcomes are bit-identical with it on or off.
    pub fn enable_profile(&mut self) {
        let mut rank_sizes = vec![0u64; self.program.rank_count()];
        for &rank in &self.program.op_ranks {
            rank_sizes[rank as usize] += 1;
        }
        self.instrument = Some(Instrument::Profile(WalkProfile {
            walks: 0,
            ranks: vec![RankProfile::default(); rank_sizes.len()],
            rank_sizes,
        }));
    }

    /// The accumulated profile, when [`enable_profile`](Self::enable_profile)
    /// was the last instrument turned on.
    pub fn profile(&self) -> Option<&WalkProfile> {
        match &self.instrument {
            Some(Instrument::Profile(profile)) => Some(profile),
            _ => None,
        }
    }

    /// Turns on the walk record, in place of a profile if one was on:
    /// from here on, the known bits every signal takes in a running lane
    /// and the first access to every memory word are noted. Values
    /// already held count at once, so a constant's bits and a control
    /// unit's initial outputs count from construction (call this once
    /// the run is set up). X values set neither mask. Recording only
    /// observes: cycles, evaluation counts, values, memories and outcomes
    /// are bit-identical with it on or off.
    pub fn enable_record(&mut self) {
        let p = &self.program;
        let slots = p.widths.len();
        let first = p.mems.iter().map(|m| vec![FirstAccess::Untouched; m.size]);
        let mut record = WalkRecord {
            ever0: vec![0; slots],
            ever1: vec![0; slots],
            first: first.collect(),
        };
        for slot in 0..slots {
            record.column_changed(p, &self.lanes, slot);
        }
        self.instrument = Some(Instrument::Record(record));
    }

    /// The walk record, when [`enable_record`](Self::enable_record) was
    /// the last instrument turned on.
    fn record(&self) -> Option<&WalkRecord> {
        match &self.instrument {
            Some(Instrument::Record(record)) => Some(record),
            _ => None,
        }
    }

    /// The bits each named signal held while recording (nothing unless
    /// [`enable_record`](Self::enable_record) was the last instrument
    /// turned on).
    pub fn recorded_signals(&self) -> impl Iterator<Item = (&str, SignalBits)> + '_ {
        let record = self.record();
        let p = &self.program;
        p.signal_index.iter().filter_map(move |(name, &slot)| {
            let record = record?;
            let bits = SignalBits {
                width: p.widths[slot],
                ever0: record.ever0[slot],
                ever1: record.ever1[slot],
            };
            Some((name.as_str(), bits))
        })
    }

    /// Each named memory's first access per word while recording
    /// (nothing unless [`enable_record`](Self::enable_record) was the
    /// last instrument turned on).
    pub fn recorded_accesses(&self) -> impl Iterator<Item = (&str, &[FirstAccess])> + '_ {
        let record = self.record();
        self.program
            .mem_names
            .iter()
            .filter_map(move |(name, &mi)| Some((name.as_str(), record?.first[mi].as_slice())))
    }

    /// Walks the schedule until every active lane has finished, failed,
    /// or exhausted `max_cycles`. Returns one result per lane (relative
    /// cycle counts); inactive lanes return `None`. Lanes the previous
    /// call stopped on its cycle budget walk on from where they stopped.
    /// Once a single lane is left running, it finishes one lane wide
    /// (see the [module docs](self)).
    pub fn run_batch(&mut self, max_cycles: u64) -> BatchSummary {
        let (p, lanes) = (&*self.program, &mut self.lanes);
        match &mut self.instrument {
            None => lanes.run_batch(p, max_cycles, &mut ()),
            Some(Instrument::Profile(profile)) => lanes.run_batch(p, max_cycles, profile),
            Some(Instrument::Record(record)) => lanes.run_batch(p, max_cycles, record),
        }
    }

    /// Single-result run: lane 0's outcome in the [`CycleSummary`] shape,
    /// with lane-0 failures surfaced as [`CycleSimError::Failed`] like
    /// the sweep engine. A run that stops on its cycle budget can be
    /// continued by the next call.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Failed`] when lane 0 fails.
    pub fn run(&mut self, max_cycles: u64) -> Result<CycleSummary, CycleSimError> {
        let start_evals = self.lanes.comb_evals;
        let summary = self.run_batch(max_cycles);
        let lane = summary.lanes[0].clone().expect("lane 0 is active");
        let outcome = match lane.outcome {
            LaneOutcome::Failed(m) => return Err(CycleSimError::Failed(m)),
            LaneOutcome::Done => CycleOutcome::Done,
            LaneOutcome::Watchpoint(name) => CycleOutcome::Watchpoint(name),
            LaneOutcome::CycleLimit => CycleOutcome::CycleLimit,
        };
        Ok(CycleSummary {
            outcome,
            cycles: lane.cycles,
            comb_evals: self.lanes.comb_evals - start_evals,
        })
    }
}

impl<const W: usize> LaneState<W> {
    /// The lane mask with every lane set; fails to compile unless
    /// `1 ≤ W ≤ 64`.
    const ALL: u64 = {
        assert!(W >= 1 && W <= 64, "lane width must be 1..=64");
        u64::MAX >> (64 - W)
    };

    /// Every lane at `p`'s initial values, memories X, control units in
    /// their initial states, everything dirty (the first walk evaluates
    /// everything, like the sweep engine).
    fn new(p: &BatchProgram) -> Self {
        let slots = p.widths.len();
        let mut values = vec![0; slots * W];
        let mut known = vec![0; slots];
        for (slot, v) in p.initial.iter().enumerate() {
            if let Some(v) = *v {
                values[slot * W..slot * W + W].fill(v);
                known[slot] = Self::ALL;
            }
        }
        let regs = p.regs.len();
        let mut state = LaneState {
            values,
            known,
            mems: p
                .mems
                .iter()
                .map(|m| BMem {
                    data: vec![0; m.size * W],
                    known: vec![0; m.size],
                })
                .collect(),
            fsm_state: vec![0; p.fsms.len() * W],
            clamp_of: Vec::new(),
            clamp_rows: Vec::new(),
            flips: Vec::new(),
            dirty: vec![0u64; p.ops.len().div_ceil(64)],
            reg_dirty: vec![0u64; regs.div_ceil(64)],
            edge_regs: Vec::new(),
            force_fsm_drive: false,
            reg_vals: vec![0; regs * W],
            reg_commit: vec![0; regs],
            reg_known: vec![0; regs],
            active: Self::ALL,
            running: Self::ALL,
            frozen_mask: 0,
            frozen_vals: Vec::new(),
            frozen_known: Vec::new(),
            outcomes: vec![None; W],
            lane_cycles: vec![0; W],
            cycles: 0,
            comb_evals: 0,
        };
        state.mark_all(p);
        state
    }

    /// Marks every op and every register dirty.
    fn mark_all(&mut self, p: &BatchProgram) {
        fill_mask(&mut self.dirty, p.ops.len());
        fill_mask(&mut self.reg_dirty, p.regs.len());
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
        let col = &self.values[slot * W..slot * W + W];
        let mut m = 0u64;
        for (l, &v) in col.iter().enumerate() {
            m |= ((v != 0) as u64) << l;
        }
        m
    }

    /// Marks everything that reads `slot`: the comb ops with it as an
    /// input, and the registers sampling it as `d`/`en`/`rst`. Every
    /// change of a slot's column passes through here, so this is where
    /// the observer hears of it.
    #[inline]
    fn mark_slot<O: WalkObserver>(&mut self, p: &BatchProgram, slot: usize, obs: &mut O) {
        obs.column_changed(p, self, slot);
        for &op in &p.readers[slot] {
            self.dirty[(op / 64) as usize] |= 1u64 << (op % 64);
        }
        for &r in &p.reg_readers[slot] {
            self.reg_dirty[(r / 64) as usize] |= 1u64 << (r % 64);
        }
    }

    /// See [`BatchSim::set_active`].
    fn set_active(&mut self, p: &BatchProgram, lane_mask: u64) {
        self.active = lane_mask;
        self.running = lane_mask;
        self.frozen_mask &= !lane_mask;
        for o in &mut self.outcomes {
            *o = None;
        }
        // Conservative re-arm: a re-armed lane stopped committing
        // mid-flight, so re-dirty the whole schedule (one full walk's
        // worth of work, once per run) and make the first edge redrive
        // every Moore output rather than only the state deltas.
        self.mark_all(p);
        self.force_fsm_drive = true;
    }

    /// Injects a stuck-at fault on one bit of a named signal in `lanes`.
    /// Returns `false` when the signal does not exist.
    fn inject_stuck(
        &mut self,
        p: &BatchProgram,
        signal: &str,
        bit: u32,
        value: bool,
        lanes: u64,
    ) -> Result<bool, CycleSimError> {
        let Some(&slot) = p.signal_index.get(signal) else {
            return Ok(false);
        };
        let width = p.widths[slot];
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "stuck-at bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        if self.clamp_of.is_empty() {
            self.clamp_of = vec![u32::MAX; p.widths.len()];
        }
        let row = if self.clamp_of[slot] == u32::MAX {
            self.clamp_of[slot] = self.clamp_rows.len() as u32;
            self.clamp_rows.push(ClampRow {
                and: [!0; W],
                or: [0; W],
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
        // already-driven FSM outputs honor the fault.
        let shift = 64 - width;
        let base = slot * W;
        let mut m = lanes & self.known[slot];
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            self.values[base + l] = self.clamp_lane(slot, l, self.values[base + l], shift);
        }
        self.mark_slot(p, slot, &mut ());
        Ok(true)
    }

    /// Dirties the read op of every SRAM backed by memory `mem`, so a
    /// load between runs is observed without any signal changing.
    fn mark_mem_readers(&mut self, p: &BatchProgram, mem: usize) {
        for (sram, &op) in p.srams.iter().zip(&p.sram_read_op) {
            if sram.mem as usize == mem {
                self.mark_op(op);
            }
        }
    }

    /// Marks a lane failed at the current (pre-increment) cycle and
    /// drops it from the running mask. First failure wins, matching the
    /// sweep engine's abort-at-first-error.
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
            self.frozen_vals[slot * W + lane] = self.values[slot * W + lane];
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
    /// edge commit, and per-lane termination — one clock cycle, told to
    /// `obs` as it goes.
    fn walk<O: WalkObserver>(&mut self, p: &BatchProgram, obs: &mut O) {
        obs.walk_started();
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
                let shift = 64 - p.widths[slot];
                let vmask = !0u64 >> shift;
                let base = slot * W;
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
                // flip away on combinational slots, and the register
                // driving a `q` so this edge resamples it as the sweep
                // engine resamples every register (an enabled one then
                // reverts the flip even when its `d` did not change);
                // readers and register samples see the flipped value
                // regardless.
                let producer = p.producer_op[slot];
                if producer != u32::MAX {
                    self.mark_op(producer);
                }
                for (r, reg) in p.regs.iter().enumerate() {
                    if reg.q as usize == slot {
                        self.reg_dirty[r / 64] |= 1u64 << (r % 64);
                    }
                }
                self.mark_slot(p, slot, obs);
                // A flipped Moore output must be reverted by the edge's
                // change-detected redrive of every output.
                self.force_fsm_drive = true;
            }
        }

        // Reset generators assert during cycle 0; marked only on change
        // (every walk after cycle 1 re-drives the same zero).
        let reset_bit: i64 = if self.cycles == 0 { -1 } else { 0 };
        for &y in &p.reset_signals {
            let y = y as usize;
            let base = y * W;
            let mut out = [reset_bit; W];
            if !self.clamp_of.is_empty() && self.clamp_of[y] != u32::MAX {
                for (l, v) in out.iter_mut().enumerate() {
                    *v = self.clamp_lane(y, l, reset_bit, 63);
                }
            }
            if self.known[y] != Self::ALL || self.values[base..base + W] != out {
                self.values[base..base + W].copy_from_slice(&out);
                self.known[y] = Self::ALL;
                self.mark_slot(p, y, obs);
            }
        }

        self.eval_ops(p, obs);
        self.commit_edge(p, obs);
    }

    /// The settle phase: drains the dirty bitset in ascending (rank)
    /// order. Evaluating an op can re-dirty later positions, including
    /// in the word being drained, so each word is re-fetched until it
    /// empties; rank order guarantees no earlier bit ever sets.
    fn eval_ops<O: WalkObserver>(&mut self, p: &BatchProgram, obs: &mut O) {
        for word in 0..self.dirty.len() {
            while self.dirty[word] != 0 {
                let bit = self.dirty[word].trailing_zeros() as usize;
                self.dirty[word] &= !(1u64 << bit);
                self.comb_evals += 1;
                let oi = word * 64 + bit;
                obs.evaluate(p, oi, |obs| self.eval_op(p, oi, obs));
            }
        }
    }

    /// Evaluates one bytecode op into a scratch column, applies the
    /// fault clamp, and — only when the column or its known mask
    /// actually changed — writes it back and marks the slot's readers.
    /// Returns whether it changed. Each read-port evaluation (enabled,
    /// not writing, known in-range address) of a running lane is a read
    /// of that word for the observer, whether or not the word is known.
    #[inline(always)]
    fn eval_op<O: WalkObserver>(&mut self, p: &BatchProgram, oi: usize, obs: &mut O) -> bool {
        let mut out = [0i64; W];
        let (y, shift, kout) = match p.ops[oi] {
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
                        // like the sweep engine's aborted eval.
                        out.copy_from_slice(&self.values[y * W..y * W + W]);
                        let (a_base, b_base) = (a * W, b * W);
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
                            let msg = format!("{}: {what} by zero", p.op_names[oi]);
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
                out.copy_from_slice(&self.values[y * W..y * W + W]);
                let sel_base = sel * W;
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
                    let input = p.mux_pool[lo as usize + s] as usize;
                    if self.known[input] & bit == 0 {
                        continue;
                    }
                    *o = canon(self.values[input * W + l], shift);
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
                out.copy_from_slice(&self.values[y * W..y * W + W]);
                let (en_base, we_base, addr_base) = (en * W, we * W, addr * W);
                let (ken, kwe, kaddr) = (self.known[en], self.known[we], self.known[addr]);
                let MemShape { shift, size } = p.mems[mem];
                let mut kout = 0u64;
                let mut fast = false;
                // Uniform fast path: every lane read-enabled, none
                // mid-write, all reading the same known address — one
                // contiguous row copy instead of the per-lane gather.
                if ken == Self::ALL
                    && kwe == Self::ALL
                    && kaddr == Self::ALL
                    && self.nonzero_mask(en) == Self::ALL
                    && self.nonzero_mask(we) == 0
                {
                    let col = &self.values[addr_base..addr_base + W];
                    let a0 = ((col[0] as u64) & addr_mask) as usize;
                    if col.iter().all(|&v| v == col[0]) {
                        fast = true;
                        let m = &self.mems[mem];
                        if a0 < size {
                            out.copy_from_slice(&m.data[a0 * W..a0 * W + W]);
                            kout = m.known[a0];
                            if self.running != 0 {
                                obs.mem_access(mem, a0, FirstAccess::Read);
                            }
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
                            // mid-write, as in the sweep engine.
                            continue;
                        }
                        if kaddr & bit == 0 {
                            continue; // X address reads X (writes fail)
                        }
                        let a = ((self.values[addr_base + l] as u64) & addr_mask) as usize;
                        if a < size && self.running & bit != 0 {
                            obs.mem_access(mem, a, FirstAccess::Read);
                        }
                        let m = &self.mems[mem];
                        if a >= size || m.known[a] & bit == 0 {
                            continue;
                        }
                        *o = m.data[a * W + l];
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
        let base = y * W;
        if self.known[y] != kout || self.values[base..base + W] != out {
            self.values[base..base + W].copy_from_slice(&out);
            self.known[y] = kout;
            self.mark_slot(p, y, obs);
            return true;
        }
        false
    }

    /// Commits control unit `fi`'s edge for the running lanes, one state
    /// group at a time. The running lanes are grouped by current state;
    /// each group tries its state's transitions once, in table order,
    /// over lane masks: lanes whose condition matches take the target (an
    /// unconditional transition takes every lane still undecided), lanes
    /// whose condition is X fail with the sweep engine's message,
    /// and lanes that match nothing stay. A group whose lanes disagree on
    /// a condition thus splits instead of falling back to a per-lane
    /// walk, and a pack in `k` distinct states costs `k` groups per edge.
    ///
    /// Lanes that move rewrite only the transition's delta outputs,
    /// without a per-lane compare. That rests on the invariant that each
    /// running lane's output columns hold the (clamped) Moore values of
    /// its current state — true after registration and reset, and kept
    /// by every delta. A transient flip or a
    /// [`set_active`](BatchSim::set_active) re-arm breaks it, so the walk
    /// after one is `force`d: every output of every running lane, staying
    /// lanes included, is redriven with per-lane change detection, as the
    /// sweep engine's drive does.
    fn commit_fsm<O: WalkObserver>(
        &mut self,
        p: &BatchProgram,
        fi: usize,
        force: bool,
        done_mask: &mut u64,
        obs: &mut O,
    ) {
        let fsm = &p.fsms[fi];
        let states = fsm.table.states();
        let col = fi * W;
        let mut rest = self.running;
        while rest != 0 {
            let from = self.fsm_state[col + rest.trailing_zeros() as usize];
            let mut group = 0u64;
            for (l, &s) in self.fsm_state[col..col + W].iter().enumerate() {
                group |= ((s == from) as u64) << l;
            }
            group &= rest;
            rest &= !group;
            let from = from as usize;
            let current = &states[from];
            let mut undecided = group;
            if current.terminal {
                *done_mask |= group;
            } else {
                for (ti, transition) in current.transitions.iter().enumerate() {
                    if undecided == 0 {
                        break;
                    }
                    let taken = match transition.condition {
                        None => undecided,
                        Some((index, expected)) => {
                            let slot = fsm.conditions[index] as usize;
                            let mut x = undecided & !self.known[slot];
                            undecided &= !x;
                            while x != 0 {
                                let l = x.trailing_zeros() as usize;
                                x &= x - 1;
                                let msg = format!(
                                    "{}: X condition in state '{}'",
                                    fsm.name, current.name
                                );
                                self.fail_lane(l, msg);
                            }
                            let truth = self.nonzero_mask(slot) & undecided;
                            if expected {
                                truth
                            } else {
                                undecided & !truth
                            }
                        }
                    };
                    if taken == 0 {
                        continue;
                    }
                    undecided &= !taken;
                    let to = transition.target;
                    let mut m = taken;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        self.fsm_state[col + l] = to as u32;
                    }
                    let delta = (!force).then(|| fsm.deltas[from][ti].as_slice());
                    self.drive_outputs(p, fsm, to, delta, taken, obs);
                    if states[to].terminal {
                        *done_mask |= taken;
                    }
                }
            }
            // Lanes that stay put (terminal or unmatched) redrive only on
            // forced walks.
            if force && undecided != 0 {
                self.drive_outputs(p, fsm, from, None, undecided, obs);
            }
        }
    }

    /// Drives `state`'s Moore values into `lanes`, marking each written
    /// slot's readers: the outputs in `delta` (a transition's delta,
    /// indices into the control unit's output list) unconditionally, or,
    /// when forced (`None`), every output where it changes.
    fn drive_outputs<O: WalkObserver>(
        &mut self,
        p: &BatchProgram,
        fsm: &BFsm,
        state: usize,
        delta: Option<&[u32]>,
        lanes: u64,
        obs: &mut O,
    ) {
        let force = delta.is_none();
        let count = delta.map_or(fsm.outputs.len(), <[u32]>::len);
        for j in (0..count).map(|i| delta.map_or(i, |d| d[i] as usize)) {
            let slot = fsm.outputs[j] as usize;
            let v = fsm.state_values[state][j];
            let shift = fsm.out_shifts[j];
            let base = slot * W;
            let mut changed = !force || self.known[slot] & lanes != lanes;
            let mut m = lanes;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let v = self.clamp_lane(slot, l, v, shift);
                changed |= force && self.values[base + l] != v;
                self.values[base + l] = v;
            }
            self.known[slot] |= lanes;
            if changed {
                self.mark_slot(p, slot, obs);
            }
        }
    }

    /// The rising-edge commit, per-lane: register sample, SRAM writes,
    /// FSM transitions + Moore drive, register commit, watchpoint scan —
    /// the same phase order as `FlatModel::commit_edge` — then the cycle
    /// counter and per-lane termination with the sweep engine's
    /// watch-beats-done priority.
    fn commit_edge<O: WalkObserver>(&mut self, p: &BatchProgram, obs: &mut O) {
        // Phase a: sample the dirty registers into scratch (all lanes;
        // commit is masked later so frozen-lane samples are
        // unobservable). The dirty set is drained fully — a register
        // none of whose inputs changed would resample the same value,
        // so skipping it is unobservable.
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
            let reg = p.regs[r];
            let d = reg.d as usize;
            let d_base = d * W;
            let out_base = r * W;
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
                Self::ALL
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
                let src = &self.values[d_base..d_base + W];
                let dst = &mut self.reg_vals[out_base..out_base + W];
                for l in 0..W {
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
        for (s, sram) in p.srams.iter().enumerate() {
            let (mem, en, we, addr, din) = (
                sram.mem as usize,
                sram.en as usize,
                sram.we as usize,
                sram.addr as usize,
                sram.din as usize,
            );
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
            let MemShape { shift, size } = p.mems[mem];
            let (kaddr, kdin) = (self.known[addr], self.known[din]);
            let mut wrote = false;
            let mut m = candidates;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let bit = 1u64 << l;
                if kaddr & bit == 0 {
                    self.fail_lane(l, format!("{}: X address", sram.name));
                    continue;
                }
                let a = ((self.values[addr * W + l] as u64) & sram.addr_mask) as usize;
                if a >= size {
                    self.fail_lane(l, format!("{}: address {} out of range", sram.name, a));
                    continue;
                }
                if kdin & bit == 0 {
                    self.fail_lane(l, format!("{}: X write data", sram.name));
                    continue;
                }
                self.mems[mem].data[a * W + l] = canon(self.values[din * W + l], shift);
                self.mems[mem].known[a] |= bit;
                obs.mem_access(mem, a, FirstAccess::Write);
                wrote = true;
            }
            // A committed write dirties the read path even though no
            // signal changed.
            if wrote {
                self.mark_op(p.sram_read_op[s]);
            }
        }

        // Phase c: FSM transitions + Moore outputs, running lanes only,
        // one state group at a time (see `commit_fsm`).
        let force = std::mem::take(&mut self.force_fsm_drive);
        let mut done_mask = 0u64;
        for fi in 0..p.fsms.len() {
            self.commit_fsm(p, fi, force, &mut done_mask, obs);
        }

        // Phase d: register commit (non-blocking) for the registers
        // sampled this edge, running lanes only — a lane that failed
        // earlier this walk aborted before this phase in the sweep
        // engine, so it must not commit here either. A `q` whose column
        // actually changed marks its readers for the next settle.
        for &ri in &edge_regs {
            let r = ri as usize;
            let reg = p.regs[r];
            let q = reg.q as usize;
            let q_base = q * W;
            let commit = self.reg_commit[r] & self.running;
            if commit == 0 {
                continue;
            }
            // All-lanes unclamped commit (the common case mid-run) is a
            // column compare-and-copy; a lane whose sample was unknown
            // gets its scratch word written too, which is unobservable
            // because its known bit clears.
            let clamped = !self.clamp_of.is_empty() && self.clamp_of[q] != u32::MAX;
            if commit == Self::ALL && !clamped {
                let new_known = self.reg_known[r];
                let src = &self.reg_vals[r * W..r * W + W];
                let dst = &mut self.values[q_base..q_base + W];
                if self.known[q] != new_known || dst[..] != src[..] {
                    dst.copy_from_slice(src);
                    self.known[q] = new_known;
                    self.mark_slot(p, q, obs);
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
                    let v = self.clamp_lane(q, l, self.reg_vals[r * W + l], reg.shift);
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
                self.mark_slot(p, q, obs);
            }
        }
        self.edge_regs = edge_regs;

        // Phase e: watchpoint scan (first matching watch wins, as in the
        // sweep engine's scan order), running lanes only.
        let mut watch_mask = 0u64;
        let mut watch_hits: Vec<(usize, &str)> = Vec::new();
        if !p.watches.is_empty() {
            let mut m = self.running;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let bit = 1u64 << l;
                for w in &p.watches {
                    let slot = w.sig as usize;
                    if self.known[slot] & bit != 0 && self.values[slot * W + l] == w.value {
                        watch_mask |= bit;
                        watch_hits.push((l, &w.name));
                        break;
                    }
                }
            }
        }

        self.cycles += 1;

        // Termination: a watchpoint outranks done, as in the sweep
        // engine; both count the walk that fired them as elapsed.
        let mut m = self.running & (watch_mask | done_mask);
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            let bit = 1u64 << l;
            if watch_mask & bit != 0 {
                let name = watch_hits
                    .iter()
                    .find(|(lane, _)| *lane == l)
                    .map(|(_, n)| n.to_string())
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

    /// See [`BatchSim::run_batch`]; every walk is told to `obs`.
    fn run_batch<O: WalkObserver>(
        &mut self,
        p: &BatchProgram,
        max_cycles: u64,
        obs: &mut O,
    ) -> BatchSummary {
        for l in 0..W {
            if self.outcomes[l] == Some(LaneOutcome::CycleLimit) {
                self.outcomes[l] = None;
                self.running |= 1u64 << l;
            }
        }
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
            if W > 1 && self.running.count_ones() == 1 {
                self.run_lone_lane(p, max_cycles - (self.cycles - start), obs);
            } else {
                self.walk(p, obs);
            }
        }
        BatchSummary {
            lanes: (0..W)
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

    /// Runs the one running lane to its end (or `max_cycles`) in a
    /// one-lane instance of the same program, then moves it back. The
    /// lane's values, known bits, memory words, FSM states, clamp row and
    /// scheduled flips move over, with the cycle counter and the
    /// evaluation count, and `obs` hears the one-lane walks. The one-lane
    /// instance starts with everything dirty and a forced Moore drive,
    /// the re-arm [`set_active`](Self::set_active) makes, and so does
    /// this instance once the lane is back.
    fn run_lone_lane<O: WalkObserver>(&mut self, p: &BatchProgram, max_cycles: u64, obs: &mut O) {
        let lane = self.running.trailing_zeros() as usize;
        let bit = 1u64 << lane;
        let mut one = LaneState::<1>::new(p);
        for (slot, &known) in self.known.iter().enumerate() {
            one.values[slot] = self.values[slot * W + lane];
            one.known[slot] = (known >> lane) & 1;
        }
        for (to, from) in one.mems.iter_mut().zip(&self.mems) {
            for (addr, known) in to.known.iter_mut().enumerate() {
                to.data[addr] = from.data[addr * W + lane];
                *known = (from.known[addr] >> lane) & 1;
            }
        }
        for (fi, state) in one.fsm_state.iter_mut().enumerate() {
            *state = self.fsm_state[fi * W + lane];
        }
        one.clamp_of.clone_from(&self.clamp_of);
        one.clamp_rows = self
            .clamp_rows
            .iter()
            .map(|row| ClampRow {
                and: [row.and[lane]],
                or: [row.or[lane]],
            })
            .collect();
        one.flips = self
            .flips
            .iter()
            .filter(|flip| flip.lanes & bit != 0)
            .map(|flip| BFlip { lanes: 1, ..*flip })
            .collect();
        one.force_fsm_drive = true;
        one.cycles = self.cycles;
        one.comb_evals = self.comb_evals;

        one.run_batch(p, max_cycles, obs);

        // A lane that finished reads its freeze-frame, which may differ
        // from the live column when it failed mid-settle.
        let (values, known) = if one.frozen_mask != 0 {
            (&one.frozen_vals, &one.frozen_known)
        } else {
            (&one.values, &one.known)
        };
        for (slot, k) in self.known.iter_mut().enumerate() {
            self.values[slot * W + lane] = values[slot];
            *k = (*k & !bit) | (known[slot] << lane);
        }
        if one.frozen_mask != 0 {
            self.freeze_lane(lane);
        }
        for (to, from) in self.mems.iter_mut().zip(&one.mems) {
            for (addr, known) in to.known.iter_mut().enumerate() {
                to.data[addr * W + lane] = from.data[addr];
                *known = (*known & !bit) | (from.known[addr] << lane);
            }
        }
        for (fi, &state) in one.fsm_state.iter().enumerate() {
            self.fsm_state[fi * W + lane] = state;
        }
        self.outcomes[lane] = one.outcomes[0].take();
        self.lane_cycles[lane] = one.lane_cycles[0];
        self.running = 0;
        self.cycles = one.cycles;
        self.comb_evals = one.comb_evals;
        self.mark_all(p);
        self.force_fsm_drive = true;
    }
}
