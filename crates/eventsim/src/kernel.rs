//! The discrete-event simulation kernel.
//!
//! Equivalent to the event-based core of Hades: a time-ordered event queue
//! with delta cycles. Signal updates scheduled for the same instant are
//! separated into *delta* steps so that zero-delay combinational logic
//! settles deterministically; a bounded delta count per instant detects
//! zero-delay oscillation (one of the paper's required "stop mechanisms").
//!
//! # Hot-path layout
//!
//! The kernel stores simulation state in a cache-friendly structure-of-
//! arrays form:
//!
//! * Signal values live in one dense `Vec<Value>`; names, widths, and
//!   trace flags are kept in cold side arrays so that the `get`/`set`
//!   traffic of component evaluations stays in a compact working set.
//! * Sink adjacency (which components react to which signal) is a flat
//!   CSR-style arena built by [`Simulator::seal`]: one shared `Vec` of
//!   component indices plus a per-signal range. Within each range the
//!   level-sensitive (`Sense::Any`) sinks come first and the edge-
//!   sensitive (`Sense::Rising`) sinks after a split point, so a
//!   non-rising update (e.g. the falling clock edge) never touches the
//!   edge-triggered sinks at all.
//! * A signal's rising-edge sinks form one *edge group*. The group keeps
//!   a bitset, in registration order, of the sinks that are *armed*: no
//!   [`Component::eval_gate`], or a gate that is currently true. An
//!   update of a gate signal sets or clears its sinks' bits from a
//!   per-gate-signal list of (group, bit) pairs, so a gate is read only
//!   when the groups are built and when it changes. A rising update
//!   queues one `Edge` event per group and delta, in the place its
//!   sinks' evaluations would have held, and running it calls `react`
//!   on the armed sinks only, in registration order. Per-edge cost thus
//!   follows the few sinks that act, not the whole fan-out (on FDCT1
//!   over 90% of the sinks a clock edge reaches are disabled
//!   registers).
//! * The counters still describe one evaluation per sink and edge: an
//!   `Edge` adds its group's size to `events` and `evals`, a per-group
//!   edge count becomes the sinks' activations when [`Simulator::run`]
//!   returns (on every path, `DeltaOverflow` included) or the table is
//!   resealed, and `max_queue_depth` counts a queued group as its size
//!   and a running group's not-yet-run sinks as pending. A group's
//!   sinks were one contiguous run of evaluations with no update
//!   between them, so the armed bits equal the gates each of them would
//!   have read.
//! * Future events are split between a small time wheel for near events
//!   (clock-period-dominated traffic) and a binary heap for far events,
//!   making the common clock tick O(1) instead of O(log n).

use crate::component::{Component, ComponentId, Sense, Sensitivity, SignalId};
use crate::value::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Simulation timestamp in kernel ticks.
///
/// The infrastructure uses a 10-tick clock period by convention (see
/// [`crate::ops::Clock`]); absolute tick meaning is up to the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero timestamp.
    pub const ZERO: SimTime = SimTime(0);

    /// Tick count.
    pub fn ticks(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Why a run returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events remained (every generator went quiet).
    QueueEmpty,
    /// The time limit passed to [`Simulator::run`] was reached.
    TimeLimit,
    /// A component requested a stop (watchpoint hit, done flag, …).
    Stopped(String),
    /// A component reported a failure (assertion violation, bad memory
    /// access, …).
    Failed(String),
}

impl RunOutcome {
    /// Whether the run ended without a reported failure.
    pub fn is_ok(&self) -> bool {
        !matches!(self, RunOutcome::Failed(_))
    }
}

/// Summary statistics of one [`Simulator::run`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Why the run returned.
    pub outcome: RunOutcome,
    /// Final simulation time.
    pub end_time: SimTime,
    /// Number of events dequeued.
    pub events: u64,
    /// Number of effective signal updates (value actually changed).
    pub updates: u64,
    /// Number of component evaluations.
    pub evals: u64,
    /// Number of delta cycles entered (same-instant settle steps).
    pub delta_cycles: u64,
    /// Largest number of pending events observed during the run: the time
    /// wheel plus the far-event heap plus undrained same-instant batches.
    pub max_queue_depth: usize,
    /// Host wall-clock seconds spent inside the kernel loop.
    pub wall_seconds: f64,
}

/// Cumulative kernel counters since the simulator was created, across
/// every [`Simulator::run`] call. One run's deltas are in [`RunSummary`];
/// these absolute values feed the telemetry layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Events dequeued.
    pub events: u64,
    /// Effective signal updates.
    pub updates: u64,
    /// Component evaluations.
    pub evals: u64,
    /// Delta cycles entered.
    pub delta_cycles: u64,
    /// Largest pending-event count ever observed (wheel + heap + delta
    /// batches).
    pub max_queue_depth: usize,
}

/// Kernel-level error: the model itself is broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// More than the configured number of delta cycles elapsed at a single
    /// instant — a zero-delay combinational loop.
    DeltaOverflow {
        /// Instant at which the loop was detected.
        time: SimTime,
        /// The configured limit that was exceeded.
        limit: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeltaOverflow { time, limit } => write!(
                f,
                "zero-delay loop: more than {limit} delta cycles at {time}"
            ),
        }
    }
}

impl Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Update(SignalId, Value),
    Eval(ComponentId),
    /// A rising edge reaching an edge group (an index into
    /// `SinkTable::groups`); only ever queued for the next delta.
    Edge(u32),
}

/// A far-future event held in the heap (near events live in the wheel,
/// same-instant delta events in flat batches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Number of slots in the near-event time wheel. Events scheduled fewer
/// than this many ticks ahead go into the wheel (O(1) insert/extract);
/// farther events fall back to the heap. 64 comfortably covers the
/// conventional 10-tick clock period and every operator delay the
/// compiler emits.
const WHEEL_SLOTS: usize = 64;
const WHEEL_MASK: usize = WHEEL_SLOTS - 1;

/// One recorded waveform change (used by the VCD writer and probes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Change {
    /// Instant of the change.
    pub time: SimTime,
    /// The signal that changed.
    pub signal: SignalId,
    /// The new value.
    pub value: Value,
}

/// CSR-style sink adjacency: for signal `s`, `arena[ranges[s].start..
/// ranges[s].split]` holds the level-sensitive sinks and, when
/// `ranges[s].group` names a group, that group's members follow at
/// `arena[split..]`, both in component registration order.
/// `watchers[ranges[s].watch_start..ranges[s].watch_end]` are the
/// (group, bit) pairs whose armed bit follows `s` as a gate.
#[derive(Debug, Default)]
struct SinkTable {
    arena: Vec<u32>,
    ranges: Vec<SinkRange>,
    groups: Vec<EdgeGroup>,
    /// The armed bits of every group, `words` per group.
    armed: Vec<u64>,
    watchers: Vec<(u32, u32)>,
}

/// `SinkRange::group` of a signal without rising-edge sinks.
const NO_GROUP: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SinkRange {
    start: u32,
    split: u32,
    group: u32,
    watch_start: u32,
    watch_end: u32,
}

/// One signal's rising-edge sinks: `arena[first..first + len]`, armed
/// bit `i` at `armed[words + i / 64]` bit `i % 64`.
#[derive(Debug, Clone, Copy)]
struct EdgeGroup {
    first: u32,
    len: u32,
    words: u32,
    /// The (time, delta) this group was last queued for: one `Edge` per
    /// delta, as one `Eval` per component and delta.
    mark: (u64, u32),
    /// Edges run since the last fold into `Simulator::activations`.
    edges: u64,
}

/// Per-signal sink lists accumulated during component registration, the
/// source from which [`SinkTable`] is (re)built at seal time.
#[derive(Debug, Default, Clone)]
struct SinkBuild {
    any: Vec<u32>,
    rising: Vec<u32>,
}

pub(crate) struct SimCore {
    /// Current signal values, densely packed (the hot array).
    values: Vec<Value>,
    /// Signal widths, parallel to `values`.
    widths: Vec<u32>,
    /// Waveform-recording flags, parallel to `values`.
    traced: Vec<bool>,
    /// Signal names (cold; only read by diagnostics and lookups).
    names: Vec<String>,
    /// Events of the instant currently being processed, drained in order.
    current: Vec<EventKind>,
    cursor: usize,
    /// Pending evaluations and updates of `current`: an `Edge` counts as
    /// its group's size, and while it runs, as its sinks not yet run.
    current_left: usize,
    /// Events scheduled for the next delta cycle of the current instant.
    next_delta: Vec<EventKind>,
    /// `next_delta`'s pending count, an `Edge` counting as its size.
    next_left: usize,
    /// Far-future events (ordered by time, then insertion).
    future: BinaryHeap<Reverse<Event>>,
    /// Near-future events, indexed by `time % WHEEL_SLOTS`. Each slot
    /// holds `(seq, kind)` pairs in insertion order.
    wheel: Vec<Vec<(u64, EventKind)>>,
    /// Total number of events currently in the wheel.
    wheel_len: usize,
    seq: u64,
    now: u64,
    delta: u32,
    stop: Option<RunOutcome>,
    eval_marks: Vec<(u64, u32)>,
    pub(crate) trace: Vec<Change>,
    events: u64,
    updates: u64,
    evals: u64,
    delta_cycles: u64,
    max_queue_depth: usize,
    run_max_queue_depth: usize,
}

impl SimCore {
    fn push_future(&mut self, time: u64, kind: EventKind) {
        debug_assert!(time > self.now);
        let seq = self.seq;
        self.seq += 1;
        let dt = time - self.now;
        if dt < WHEEL_SLOTS as u64 {
            // Near event: O(1) wheel insert. Within the (now, now+64)
            // window each tick maps to a distinct slot, and `now` only
            // ever advances to the earliest pending time, so a slot never
            // mixes events of different instants.
            self.wheel[time as usize & WHEEL_MASK].push((seq, kind));
            self.wheel_len += 1;
        } else {
            self.future.push(Reverse(Event { time, seq, kind }));
        }
        self.note_depth();
    }

    fn push_next_delta(&mut self, kind: EventKind) {
        self.next_delta.push(kind);
        self.next_left += 1;
        self.note_depth();
    }

    /// Schedules an evaluation in the next delta of the current instant,
    /// deduplicated: one evaluation per component per (time, delta) is
    /// enough since react reads whole input state, not individual edges.
    #[inline]
    fn schedule_eval_next(&mut self, component: ComponentId) {
        let mark = (self.now, self.delta + 1);
        if self.eval_marks[component.0] == mark {
            return;
        }
        self.eval_marks[component.0] = mark;
        self.push_next_delta(EventKind::Eval(component));
    }

    /// Schedules edge group `index` in the next delta, once per (time,
    /// delta) like [`schedule_eval_next`](Self::schedule_eval_next): a
    /// rising sink has no other entry, so the group mark dedups exactly
    /// as its sinks' own marks would.
    #[inline]
    fn schedule_edge_next(&mut self, index: u32, group: &mut EdgeGroup) {
        let mark = (self.now, self.delta + 1);
        if group.mark == mark {
            return;
        }
        group.mark = mark;
        self.next_delta.push(EventKind::Edge(index));
        self.next_left += group.len as usize;
        self.note_depth();
    }

    /// Records the current pending-event count: the time wheel plus the
    /// far-event heap plus the undrained part of the current delta batch
    /// plus the next delta batch, each edge group counted as its sinks.
    #[inline]
    fn note_depth(&mut self) {
        let depth = self.future.len() + self.wheel_len + self.next_left + self.current_left;
        if depth > self.max_queue_depth {
            self.max_queue_depth = depth;
        }
        if depth > self.run_max_queue_depth {
            self.run_max_queue_depth = depth;
        }
    }

    /// The instant of the earliest pending future event, across the time
    /// wheel and the far-event heap.
    fn next_event_time(&self) -> Option<u64> {
        let heap_time = self.future.peek().map(|Reverse(event)| event.time);
        if self.wheel_len > 0 {
            for t in self.now + 1..self.now + WHEEL_SLOTS as u64 {
                if !self.wheel[t as usize & WHEEL_MASK].is_empty() {
                    return Some(match heap_time {
                        Some(h) if h < t => h,
                        _ => t,
                    });
                }
            }
            debug_assert!(false, "wheel_len > 0 but no occupied slot in window");
        }
        heap_time
    }

    /// Advances `now` to `t` and gathers every event scheduled for `t`
    /// into the `current` batch, merging the wheel slot with same-time
    /// heap events in global insertion (seq) order.
    fn advance_to(&mut self, t: u64) {
        self.now = t;
        self.delta = 0;
        self.current.clear();
        self.cursor = 0;
        let mut slot = std::mem::take(&mut self.wheel[t as usize & WHEEL_MASK]);
        self.wheel_len -= slot.len();
        let mut i = 0;
        loop {
            let heap_seq = match self.future.peek() {
                Some(Reverse(event)) if event.time == t => Some(event.seq),
                _ => None,
            };
            match (slot.get(i), heap_seq) {
                (Some(&(wheel_seq, _)), Some(heap_seq)) if heap_seq < wheel_seq => {
                    let Reverse(event) = self.future.pop().expect("peeked");
                    self.current.push(event.kind);
                }
                (Some(&(_, kind)), _) => {
                    self.current.push(kind);
                    i += 1;
                }
                (None, Some(_)) => {
                    let Reverse(event) = self.future.pop().expect("peeked");
                    self.current.push(event.kind);
                }
                (None, None) => break,
            }
        }
        // Hand the slot's buffer back so its capacity is reused.
        slot.clear();
        self.wheel[t as usize & WHEEL_MASK] = slot;
        self.current_left = self.current.len();
    }
}

/// Observer of kernel run boundaries, for telemetry layers that want to
/// time or log runs without owning the [`Simulator`]. Installed with
/// [`Simulator::set_hook`]; all methods have empty defaults.
pub trait KernelHook {
    /// Called when [`Simulator::run`] enters its event loop.
    fn on_run_start(&mut self, _now: SimTime) {}

    /// Called when [`Simulator::run`] returns successfully, with the
    /// summary that is about to be handed to the caller.
    fn on_run_end(&mut self, _summary: &RunSummary) {}

    /// Whether the kernel should time each `react` call and report it
    /// via [`on_eval`](Self::on_eval). Sampled once per
    /// [`Simulator::run`], before the event loop starts, so the hot path
    /// pays a single cached-bool branch when this returns `false` (the
    /// default) and nothing at all when no hook is installed.
    fn wants_evals(&self) -> bool {
        false
    }

    /// Called after each `react` call when
    /// [`wants_evals`](Self::wants_evals) returned `true`, with the
    /// monotonic nanoseconds the call took. A rising-edge sink whose
    /// [`eval_gate`](Component::eval_gate) is low is counted as evaluated
    /// but never called, so it is not reported here. Timing only
    /// observes: counters and scheduling are identical either way.
    fn on_eval(&mut self, _component: ComponentId, _nanos: u64) {}
}

/// The event-driven simulator: signals, components, and the event queue.
///
/// Build a model by adding signals and components, then call
/// [`run`](Self::run):
///
/// ```
/// use eventsim::{Simulator, Value, ops::{Clock, Counter}};
///
/// # fn main() -> Result<(), eventsim::SimError> {
/// let mut sim = Simulator::new();
/// let clk = sim.add_signal("clk", 1);
/// let count = sim.add_signal("count", 8);
/// sim.add_component(Clock::new("clk0", clk, 10));
/// sim.add_component(Counter::new("cnt0", clk, count));
/// sim.run(eventsim::SimTime(100))?;
/// assert_eq!(sim.value(count).as_u64(), 10); // ten rising edges in 100 ticks
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    core: SimCore,
    components: Vec<Box<dyn Component>>,
    component_names: Vec<String>,
    /// Per-component reactive evaluation counts (init calls excluded) —
    /// the "hot operator" histogram. Edge-group activations arrive in
    /// bulk from `fold_edges`.
    activations: Vec<u64>,
    /// Per-component evaluation gate ([`Component::eval_gate`]), encoded
    /// as a signal index or `u32::MAX` for "no gate"; read only by
    /// [`seal`](Self::seal) to build the edge groups' armed bits.
    gates: Vec<u32>,
    /// Signal name → id of the *first* signal registered under that name.
    name_index: HashMap<String, SignalId>,
    /// Per-signal sink lists in registration order (seal-time source).
    build_sinks: Vec<SinkBuild>,
    /// Flattened sink adjacency used by the event loop.
    sinks: SinkTable,
    sealed: bool,
    hook: Option<Box<dyn KernelHook>>,
    delta_limit: u32,
    initialized: bool,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator with the default delta limit (4096).
    pub fn new() -> Self {
        Simulator {
            core: SimCore {
                values: Vec::new(),
                widths: Vec::new(),
                traced: Vec::new(),
                names: Vec::new(),
                current: Vec::new(),
                cursor: 0,
                current_left: 0,
                next_delta: Vec::new(),
                next_left: 0,
                future: BinaryHeap::new(),
                wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
                wheel_len: 0,
                seq: 0,
                now: 0,
                delta: 0,
                stop: None,
                eval_marks: Vec::new(),
                trace: Vec::new(),
                events: 0,
                updates: 0,
                evals: 0,
                delta_cycles: 0,
                max_queue_depth: 0,
                run_max_queue_depth: 0,
            },
            components: Vec::new(),
            component_names: Vec::new(),
            activations: Vec::new(),
            gates: Vec::new(),
            name_index: HashMap::new(),
            build_sinks: Vec::new(),
            sinks: SinkTable::default(),
            sealed: false,
            hook: None,
            delta_limit: 4096,
            initialized: false,
        }
    }

    /// Installs a [`KernelHook`] observing run boundaries, replacing any
    /// previous hook.
    pub fn set_hook(&mut self, hook: Box<dyn KernelHook>) {
        self.hook = Some(hook);
    }

    /// Overrides the delta-cycle limit used for zero-delay loop detection.
    pub fn set_delta_limit(&mut self, limit: u32) {
        self.delta_limit = limit.max(1);
    }

    /// Adds a signal and returns its id. Signals start at `X`.
    ///
    /// # Panics
    ///
    /// Panics when `width` is outside `1..=64`.
    pub fn add_signal(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        let id = SignalId(self.core.values.len());
        let name = name.into();
        self.core.values.push(Value::x(width));
        self.core.widths.push(width);
        self.core.traced.push(false);
        self.name_index.entry(name.clone()).or_insert(id);
        self.core.names.push(name);
        self.build_sinks.push(SinkBuild::default());
        id
    }

    /// Registers a component, wiring its sensitivity list, and returns its
    /// id.
    ///
    /// # Panics
    ///
    /// Panics when the sensitivity list holds a rising-edge entry
    /// ([`Sensitivity::rising`]) beside any other entry: a rising-edge
    /// sink is scheduled only with its signal's edge group.
    pub fn add_component(&mut self, component: impl Component + 'static) -> ComponentId {
        self.add_boxed_component(Box::new(component))
    }

    /// [`add_component`](Self::add_component) for already-boxed components
    /// (used by netlist elaboration).
    ///
    /// # Panics
    ///
    /// As for [`add_component`](Self::add_component).
    pub fn add_boxed_component(&mut self, component: Box<dyn Component>) -> ComponentId {
        let id = ComponentId(self.components.len());
        let inputs = component.inputs();
        let rising = |input: &Sensitivity| input.sense == Sense::Rising;
        assert!(
            inputs.len() == 1 || !inputs.iter().any(rising),
            "component '{}': a Sense::Rising entry must be its only sensitivity entry",
            component.name()
        );
        for input in inputs {
            let build = &mut self.build_sinks[input.signal.0];
            match input.sense {
                Sense::Any => build.any.push(id.0 as u32),
                Sense::Rising => build.rising.push(id.0 as u32),
            }
        }
        self.sealed = false;
        self.component_names.push(component.name().to_string());
        self.gates.push(match component.eval_gate() {
            Some(signal) => signal.0 as u32,
            None => u32::MAX,
        });
        self.components.push(component);
        self.activations.push(0);
        self.core.eval_marks.push((u64::MAX, u32::MAX));
        id
    }

    /// Flattens the registered sensitivity lists into the CSR sink arena
    /// the event loop iterates. Called automatically by
    /// [`run`](Self::run); explicit calls are only useful to front-load
    /// the (cheap) rebuild. Adding a component after sealing marks the
    /// table dirty and the next run reseals.
    pub fn seal(&mut self) {
        self.fold_edges();
        let signal_count = self.core.values.len();
        let table = &mut self.sinks;
        table.arena.clear();
        table.ranges.clear();
        table.ranges.reserve(signal_count);
        table.groups.clear();
        table.armed.clear();
        table.watchers.clear();
        let mut watching: Vec<Vec<(u32, u32)>> = vec![Vec::new(); signal_count];
        for build in &self.build_sinks {
            let start = table.arena.len() as u32;
            table.arena.extend_from_slice(&build.any);
            let split = table.arena.len() as u32;
            let mut group = NO_GROUP;
            if !build.rising.is_empty() {
                group = table.groups.len() as u32;
                let words = table.armed.len();
                table
                    .armed
                    .resize(words + build.rising.len().div_ceil(64), 0);
                for (bit, &sink) in build.rising.iter().enumerate() {
                    let gate = self.gates[sink as usize];
                    if gate == u32::MAX || self.core.values[gate as usize].is_true() {
                        table.armed[words + bit / 64] |= 1 << (bit % 64);
                    }
                    if gate != u32::MAX {
                        watching[gate as usize].push((group, bit as u32));
                    }
                }
                table.arena.extend_from_slice(&build.rising);
                table.groups.push(EdgeGroup {
                    first: split,
                    len: build.rising.len() as u32,
                    words: words as u32,
                    mark: (u64::MAX, u32::MAX),
                    edges: 0,
                });
            }
            table.ranges.push(SinkRange {
                start,
                split,
                group,
                watch_start: 0,
                watch_end: 0,
            });
        }
        for (range, watchers) in table.ranges.iter_mut().zip(watching) {
            range.watch_start = table.watchers.len() as u32;
            table.watchers.extend(watchers);
            range.watch_end = table.watchers.len() as u32;
        }
        self.sealed = true;
    }

    /// Folds each edge group's edge count into its sinks' activations:
    /// every sink of a group counts one evaluation per edge, armed or not.
    fn fold_edges(&mut self) {
        for group in &mut self.sinks.groups {
            if group.edges == 0 {
                continue;
            }
            let first = group.first as usize;
            for &sink in &self.sinks.arena[first..first + group.len as usize] {
                self.activations[sink as usize] += group.edges;
            }
            group.edges = 0;
        }
    }

    /// Current value of a signal.
    pub fn value(&self, signal: SignalId) -> Value {
        self.core.values[signal.0]
    }

    /// Name of a signal.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.core.names[signal.0]
    }

    /// Width of a signal.
    pub fn signal_width(&self, signal: SignalId) -> u32 {
        self.core.widths[signal.0]
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.core.values.len()
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Looks a signal up by name through the name index (first signal
    /// registered under the name, O(1)).
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.name_index.get(name).copied()
    }

    /// Name of a component.
    pub fn component_name(&self, component: ComponentId) -> &str {
        &self.component_names[component.0]
    }

    /// Marks a signal for waveform recording (see [`Self::changes`] and
    /// [`crate::vcd`]).
    pub fn trace_signal(&mut self, signal: SignalId) {
        self.core.traced[signal.0] = true;
    }

    /// The recorded changes of all traced signals, in order.
    pub fn changes(&self) -> &[Change] {
        &self.core.trace
    }

    /// The signals currently marked for tracing, in id order.
    pub fn traced_signals(&self) -> Vec<SignalId> {
        self.core
            .traced
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| SignalId(i))
            .collect()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        SimTime(self.core.now)
    }

    /// Runs until the event queue drains, a component stops the run, or
    /// simulation time exceeds `limit`.
    ///
    /// The first call initializes every component. Subsequent calls resume
    /// where the previous run left off, so a test bench can single-step
    /// through interesting windows.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeltaOverflow`] when a zero-delay loop is
    /// detected.
    pub fn run(&mut self, limit: SimTime) -> Result<RunSummary, SimError> {
        let started = Instant::now();
        let events0 = self.core.events;
        let updates0 = self.core.updates;
        let evals0 = self.core.evals;
        let delta_cycles0 = self.core.delta_cycles;
        self.core.run_max_queue_depth = 0;
        self.core.stop = None;
        if !self.sealed {
            self.seal();
        }
        if let Some(mut hook) = self.hook.take() {
            hook.on_run_start(SimTime(self.core.now));
            self.hook = Some(hook);
        }
        // Sampled once per run: dispatch pays one branch on this cached
        // bool, never a virtual call, when timing is off.
        let timed = self.hook.as_ref().is_some_and(|hook| hook.wants_evals());

        if !self.initialized {
            self.initialized = true;
            for i in 0..self.components.len() {
                let mut ctx = Context {
                    core: &mut self.core,
                    id: ComponentId(i),
                };
                self.components[i].init(&mut ctx);
            }
        }

        let outcome = self.event_loop(limit, timed);
        self.fold_edges();
        let summary = RunSummary {
            outcome: outcome?,
            end_time: SimTime(self.core.now),
            events: self.core.events - events0,
            updates: self.core.updates - updates0,
            evals: self.core.evals - evals0,
            delta_cycles: self.core.delta_cycles - delta_cycles0,
            max_queue_depth: self.core.run_max_queue_depth,
            wall_seconds: started.elapsed().as_secs_f64(),
        };
        if let Some(mut hook) = self.hook.take() {
            hook.on_run_end(&summary);
            self.hook = Some(hook);
        }
        Ok(summary)
    }

    /// The body of [`run`](Self::run): drains events until the queue
    /// empties, a component stops the run or time passes `limit`.
    fn event_loop(&mut self, limit: SimTime, timed: bool) -> Result<RunOutcome, SimError> {
        loop {
            // Drain the current delta batch.
            while self.core.cursor < self.core.current.len() {
                let kind = self.core.current[self.core.cursor];
                self.core.cursor += 1;
                match kind {
                    EventKind::Update(signal, value) => {
                        self.core.events += 1;
                        self.core.current_left -= 1;
                        let index = signal.0;
                        debug_assert_eq!(self.core.widths[index], value.width());
                        let old = self.core.values[index];
                        if old == value {
                            continue;
                        }
                        self.core.values[index] = value;
                        self.core.updates += 1;
                        if self.core.traced[index] {
                            self.core.trace.push(Change {
                                time: SimTime(self.core.now),
                                signal,
                                value,
                            });
                        }
                        let range = self.sinks.ranges[index];
                        for i in range.watch_start..range.watch_end {
                            let (group, bit) = self.sinks.watchers[i as usize];
                            let word = self.sinks.groups[group as usize].words + bit / 64;
                            let mask = 1u64 << (bit % 64);
                            if value.is_true() {
                                self.sinks.armed[word as usize] |= mask;
                            } else {
                                self.sinks.armed[word as usize] &= !mask;
                            }
                        }
                        for i in range.start..range.split {
                            let sink = ComponentId(self.sinks.arena[i as usize] as usize);
                            self.core.schedule_eval_next(sink);
                        }
                        // A genuine rising edge: the old value was not
                        // true (0 or X), the new one is. Leaving X for a
                        // true value counts as the first edge; a change
                        // between two non-zero values (1→2 on a multi-bit
                        // net) does not.
                        if range.group != NO_GROUP && value.is_true() && !old.is_true() {
                            let group = &mut self.sinks.groups[range.group as usize];
                            self.core.schedule_edge_next(range.group, group);
                        }
                    }
                    EventKind::Eval(component) => {
                        self.core.events += 1;
                        self.core.current_left -= 1;
                        self.core.evals += 1;
                        self.activations[component.0] += 1;
                        self.dispatch(component, timed);
                    }
                    EventKind::Edge(index) => {
                        let group = &mut self.sinks.groups[index as usize];
                        group.edges += 1;
                        let EdgeGroup {
                            first, len, words, ..
                        } = *group;
                        self.core.events += u64::from(len);
                        self.core.evals += u64::from(len);
                        let rest = self.core.current_left - len as usize;
                        for w in 0..len.div_ceil(64) {
                            let mut bits = self.sinks.armed[(words + w) as usize];
                            while bits != 0 {
                                let bit = w * 64 + bits.trailing_zeros();
                                bits &= bits - 1;
                                // The sinks after this one are still
                                // pending, as their evaluations would be.
                                self.core.current_left = rest + (len - 1 - bit) as usize;
                                let sink = self.sinks.arena[(first + bit) as usize];
                                self.dispatch(ComponentId(sink as usize), timed);
                            }
                        }
                        self.core.current_left = rest;
                    }
                }
            }

            // Advance to the next delta of this instant.
            if !self.core.next_delta.is_empty() {
                self.core.delta += 1;
                self.core.delta_cycles += 1;
                if self.core.delta > self.delta_limit {
                    return Err(SimError::DeltaOverflow {
                        time: SimTime(self.core.now),
                        limit: self.delta_limit,
                    });
                }
                self.core.current.clear();
                self.core.cursor = 0;
                std::mem::swap(&mut self.core.current, &mut self.core.next_delta);
                self.core.current_left = std::mem::take(&mut self.core.next_left);
                continue;
            }

            // The instant has fully settled: a pending stop/fail takes
            // effect now, so the final clock edge's register latches and
            // delta ripples are not lost.
            if let Some(stop) = self.core.stop.take() {
                return Ok(stop);
            }

            // Advance time to the next future batch.
            let Some(t) = self.core.next_event_time() else {
                return Ok(RunOutcome::QueueEmpty);
            };
            if t > limit.0 {
                // A resume may pass a limit below `now`; time never moves
                // backwards (the wheel indexes slots relative to `now`, so
                // rewinding would alias far events into the near window).
                self.core.now = limit.0.max(self.core.now);
                return Ok(RunOutcome::TimeLimit);
            }
            self.core.advance_to(t);
        }
    }

    /// Runs to completion with a generous default limit, failing the run if
    /// the limit is hit (useful for "must finish" tests).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`run`](Self::run).
    pub fn run_to_quiescence(&mut self) -> Result<RunSummary, SimError> {
        self.run(SimTime(u64::MAX / 2))
    }

    /// Cumulative kernel counters since the simulator was created.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            events: self.core.events,
            updates: self.core.updates,
            evals: self.core.evals,
            delta_cycles: self.core.delta_cycles,
            max_queue_depth: self.core.max_queue_depth,
        }
    }

    /// Number of reactive evaluations of one component (init excluded).
    pub fn activation_count(&self, component: ComponentId) -> u64 {
        self.activations[component.0]
    }

    /// Per-component reactive evaluation counts, indexed by component id.
    pub fn activation_counts(&self) -> &[u64] {
        &self.activations
    }

    /// The `top` most-activated components (ties broken by id), skipping
    /// components that never reacted — the "hot operator" histogram.
    pub fn hot_components(&self, top: usize) -> Vec<(ComponentId, u64)> {
        let mut ranked: Vec<(ComponentId, u64)> = self
            .activations
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (ComponentId(i), n))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        ranked.truncate(top);
        ranked
    }

    /// Calls one component's `react`, timing it when `timed`. Components
    /// are dispatched in place: `Context` borrows only `core`, which is
    /// disjoint from the component storage, so no take/restore dance is
    /// needed on the hot path.
    #[inline]
    fn dispatch(&mut self, id: ComponentId, timed: bool) {
        let mut ctx = Context {
            core: &mut self.core,
            id,
        };
        if !timed {
            self.components[id.0].react(&mut ctx);
            return;
        }
        let started = Instant::now();
        self.components[id.0].react(&mut ctx);
        let nanos = started.elapsed().as_nanos() as u64;
        if let Some(hook) = self.hook.as_mut() {
            hook.on_eval(id, nanos);
        }
    }
}

/// Scheduling interface handed to components during
/// [`init`](Component::init) and [`react`](Component::react).
pub struct Context<'a> {
    core: &'a mut SimCore,
    id: ComponentId,
}

impl Context<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        SimTime(self.core.now)
    }

    /// Reads the current value of a signal.
    #[inline]
    pub fn get(&self, signal: SignalId) -> Value {
        self.core.values[signal.0]
    }

    /// Schedules a zero-delay write: the signal takes the value in the next
    /// delta cycle of the current instant.
    ///
    /// # Panics
    ///
    /// Panics when the value width does not match the signal width — that
    /// is an elaboration bug, not a runtime condition.
    #[inline]
    pub fn set(&mut self, signal: SignalId, value: Value) {
        self.check_width(signal, &value);
        self.core.push_next_delta(EventKind::Update(signal, value));
    }

    /// Schedules a write `delay` ticks in the future (delta 0 of that
    /// instant). A `delay` of zero behaves like [`set`](Self::set).
    ///
    /// A delay that would overflow the 64-bit time axis saturates to
    /// `u64::MAX` ticks instead of wrapping into the past; an event that
    /// cannot be placed after the current instant (only possible at the
    /// very end of the time axis) is dropped.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch, as for [`set`](Self::set).
    pub fn set_after(&mut self, signal: SignalId, value: Value, delay: u64) {
        if delay == 0 {
            self.set(signal, value);
            return;
        }
        self.check_width(signal, &value);
        let time = self.core.now.saturating_add(delay);
        if time == self.core.now {
            return;
        }
        self.core.push_future(time, EventKind::Update(signal, value));
    }

    /// Requests a re-evaluation of this component `delay` ticks from now
    /// (self-scheduling, used by generators such as clocks). Overflowing
    /// delays saturate as for [`set_after`](Self::set_after).
    pub fn wake_after(&mut self, delay: u64) {
        let time = self.core.now.saturating_add(delay.max(1));
        if time == self.core.now {
            return;
        }
        let id = self.id;
        self.core.push_future(time, EventKind::Eval(id));
    }

    /// Stops the run after the current delta with [`RunOutcome::Stopped`].
    pub fn stop(&mut self, reason: impl Into<String>) {
        if self.core.stop.is_none() {
            self.core.stop = Some(RunOutcome::Stopped(reason.into()));
        }
    }

    /// Stops the run reporting a failure ([`RunOutcome::Failed`]).
    pub fn fail(&mut self, message: impl Into<String>) {
        // A failure overrides a plain stop recorded in the same delta.
        self.core.stop = Some(RunOutcome::Failed(message.into()));
    }

    #[inline]
    fn check_width(&self, signal: SignalId, value: &Value) {
        let width = self.core.widths[signal.0];
        assert_eq!(
            width,
            value.width(),
            "width mismatch driving signal '{}' ({} bits) with {} ",
            self.core.names[signal.0],
            width,
            value
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;

    /// Drives a constant after an optional delay.
    struct Driver {
        out: SignalId,
        value: Value,
        delay: u64,
    }

    impl Component for Driver {
        fn name(&self) -> &str {
            "driver"
        }
        fn inputs(&self) -> Vec<crate::component::Sensitivity> {
            Vec::new()
        }
        fn init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_after(self.out, self.value, self.delay);
        }
        fn react(&mut self, _ctx: &mut Context<'_>) {}
    }

    /// Inverter with zero (delta) delay.
    struct Not {
        a: SignalId,
        y: SignalId,
    }

    impl Component for Not {
        fn name(&self) -> &str {
            "not"
        }
        fn inputs(&self) -> Vec<crate::component::Sensitivity> {
            vec![crate::component::Sensitivity::any(self.a)]
        }
        fn react(&mut self, ctx: &mut Context<'_>) {
            let a = ctx.get(self.a);
            let out = match a.try_u64() {
                Some(v) => Value::known(1, (v == 0) as i64),
                None => Value::x(1),
            };
            ctx.set(self.y, out);
        }
    }

    /// Counts how often it was evaluated (for edge-sensitivity tests).
    struct EvalCounter {
        watched: SignalId,
        sense: crate::component::Sense,
    }

    impl Component for EvalCounter {
        fn name(&self) -> &str {
            "eval_counter"
        }
        fn inputs(&self) -> Vec<crate::component::Sensitivity> {
            vec![crate::component::Sensitivity {
                signal: self.watched,
                sense: self.sense,
            }]
        }
        fn react(&mut self, _ctx: &mut Context<'_>) {}
    }

    #[test]
    fn empty_simulator_drains_immediately() {
        let mut sim = Simulator::new();
        let summary = sim.run(SimTime(100)).unwrap();
        assert_eq!(summary.outcome, RunOutcome::QueueEmpty);
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn driver_sets_value_at_delay() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 8);
        sim.add_component(Driver {
            out: s,
            value: Value::known(8, 42),
            delay: 7,
        });
        let summary = sim.run(SimTime(100)).unwrap();
        assert_eq!(sim.value(s).as_u64(), 42);
        assert_eq!(summary.end_time, SimTime(7));
        assert_eq!(summary.updates, 1);
    }

    #[test]
    fn far_events_use_the_heap_and_still_fire() {
        let mut sim = Simulator::new();
        let near = sim.add_signal("near", 8);
        let far = sim.add_signal("far", 8);
        sim.add_component(Driver {
            out: near,
            value: Value::known(8, 1),
            delay: 3, // wheel
        });
        sim.add_component(Driver {
            out: far,
            value: Value::known(8, 2),
            delay: 1_000_000, // heap
        });
        let summary = sim.run(SimTime(2_000_000)).unwrap();
        assert_eq!(summary.outcome, RunOutcome::QueueEmpty);
        assert_eq!(sim.value(near).as_u64(), 1);
        assert_eq!(sim.value(far).as_u64(), 2);
        assert_eq!(summary.end_time, SimTime(1_000_000));
    }

    #[test]
    fn same_instant_wheel_and_heap_events_merge_in_schedule_order() {
        // Two writes to the same signal at the same instant: one scheduled
        // far ahead (heap), one scheduled later in wall-clock order but
        // near (wheel). The later-scheduled write must win, exactly as if
        // both had sat in one queue.
        struct TwoPhase {
            out: SignalId,
            phase: u8,
        }
        impl Component for TwoPhase {
            fn name(&self) -> &str {
                "two_phase"
            }
            fn inputs(&self) -> Vec<crate::component::Sensitivity> {
                Vec::new()
            }
            fn init(&mut self, ctx: &mut Context<'_>) {
                // t=100 via the heap (delta 100 >= wheel span).
                ctx.set_after(self.out, Value::known(8, 1), 100);
                ctx.wake_after(90);
            }
            fn react(&mut self, ctx: &mut Context<'_>) {
                if self.phase == 0 {
                    self.phase = 1;
                    // Scheduled at t=90 for t=100: lands in the wheel, and
                    // its seq is later than the heap event's.
                    ctx.set_after(self.out, Value::known(8, 2), 10);
                }
            }
        }
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 8);
        sim.add_component(TwoPhase { out: s, phase: 0 });
        sim.run(SimTime(200)).unwrap();
        assert_eq!(sim.value(s).as_u64(), 2, "later-scheduled write wins");
    }

    #[test]
    fn combinational_chain_settles_in_deltas() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        let c = sim.add_signal("c", 1);
        sim.add_component(Driver {
            out: a,
            value: Value::bit(true),
            delay: 1,
        });
        sim.add_component(Not { a, y: b });
        sim.add_component(Not { a: b, y: c });
        let summary = sim.run(SimTime(10)).unwrap();
        assert!(sim.value(b).is_false());
        assert!(sim.value(c).is_true());
        // Everything happened at t=1 across delta cycles.
        assert_eq!(summary.end_time, SimTime(1));
    }

    #[test]
    fn zero_delay_loop_is_detected() {
        let mut sim = Simulator::new();
        sim.set_delta_limit(64);
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        sim.add_component(Driver {
            out: a,
            value: Value::bit(true),
            delay: 1,
        });
        // a = !a: a combinational loop oscillating at zero delay.
        let _ = b;
        sim.add_component(Not { a, y: a });
        let err = sim.run(SimTime(10)).unwrap_err();
        assert!(matches!(err, SimError::DeltaOverflow { limit: 64, .. }));
    }

    #[test]
    fn time_limit_outcome() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        sim.add_component(Driver {
            out: s,
            value: Value::bit(true),
            delay: 1000,
        });
        let summary = sim.run(SimTime(10)).unwrap();
        assert_eq!(summary.outcome, RunOutcome::TimeLimit);
        assert!(sim.value(s).is_x());
        // Resume past the event.
        let summary = sim.run(SimTime(2000)).unwrap();
        assert_eq!(summary.outcome, RunOutcome::QueueEmpty);
        assert!(sim.value(s).is_true());
    }

    #[test]
    fn redundant_updates_do_not_ripple() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        sim.add_component(Driver {
            out: a,
            value: Value::bit(true),
            delay: 1,
        });
        sim.add_component(Driver {
            out: a,
            value: Value::bit(true),
            delay: 5,
        });
        sim.add_component(Not { a, y: b });
        let summary = sim.run(SimTime(100)).unwrap();
        // The second identical update must not re-evaluate the inverter.
        assert_eq!(summary.updates, 2); // a and b once each
    }

    #[test]
    fn rising_sense_requires_a_genuine_edge() {
        // Regression (pre-overhaul bug): any change *to* a truthy value
        // fired rising-edge sinks, so a 2-bit signal changing 1→2 — or
        // 2→3 — retriggered "edge-triggered" components.
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 2);
        let driver = sim.add_component(Driver {
            out: s,
            value: Value::known(2, 1),
            delay: 1,
        });
        sim.add_component(Driver {
            out: s,
            value: Value::known(2, 2),
            delay: 5,
        });
        sim.add_component(Driver {
            out: s,
            value: Value::known(2, 0),
            delay: 9,
        });
        sim.add_component(Driver {
            out: s,
            value: Value::known(2, 3),
            delay: 13,
        });
        let rising = sim.add_component(EvalCounter {
            watched: s,
            sense: crate::component::Sense::Rising,
        });
        let any = sim.add_component(EvalCounter {
            watched: s,
            sense: crate::component::Sense::Any,
        });
        let _ = driver;
        sim.run(SimTime(100)).unwrap();
        // X→1 (first edge) and 0→3 (second edge) fire; 1→2 must not.
        assert_eq!(sim.activation_count(rising), 2);
        // The Any sink sees all four changes.
        assert_eq!(sim.activation_count(any), 4);
    }

    #[test]
    fn rising_sense_fires_on_x_to_one() {
        // Documented choice: a net leaving X for a true value counts as
        // its first rising edge (a register whose clock is initialized
        // high latches once at start-up instead of missing the edge).
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        sim.add_component(Driver {
            out: s,
            value: Value::bit(true),
            delay: 2,
        });
        let rising = sim.add_component(EvalCounter {
            watched: s,
            sense: crate::component::Sense::Rising,
        });
        sim.run(SimTime(10)).unwrap();
        assert_eq!(sim.activation_count(rising), 1);
    }

    #[test]
    fn overflowing_delay_saturates_instead_of_wrapping() {
        // Regression: `now + delay` used to wrap, tripping the
        // push-future debug assertion (or silently scheduling in the past
        // in release builds). The event now saturates to the end of the
        // time axis and simply never fires within any reachable limit.
        struct HugeDelay {
            out: SignalId,
        }
        impl Component for HugeDelay {
            fn name(&self) -> &str {
                "huge"
            }
            fn inputs(&self) -> Vec<crate::component::Sensitivity> {
                Vec::new()
            }
            fn init(&mut self, ctx: &mut Context<'_>) {
                ctx.set_after(self.out, Value::bit(true), 5);
            }
            fn react(&mut self, _ctx: &mut Context<'_>) {}
        }
        struct WakeForever;
        impl Component for WakeForever {
            fn name(&self) -> &str {
                "wake_forever"
            }
            fn inputs(&self) -> Vec<crate::component::Sensitivity> {
                Vec::new()
            }
            fn init(&mut self, ctx: &mut Context<'_>) {
                ctx.wake_after(1);
            }
            fn react(&mut self, ctx: &mut Context<'_>) {
                // At t=1: both of these used to wrap past u64::MAX.
                ctx.wake_after(u64::MAX);
            }
        }
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        let t = sim.add_signal("t", 1);
        sim.add_component(HugeDelay { out: t });
        sim.add_component(WakeForever);
        // A write scheduled with a delay that overflows the time axis.
        struct OverflowSet {
            out: SignalId,
        }
        impl Component for OverflowSet {
            fn name(&self) -> &str {
                "overflow_set"
            }
            fn inputs(&self) -> Vec<crate::component::Sensitivity> {
                Vec::new()
            }
            fn init(&mut self, ctx: &mut Context<'_>) {
                ctx.wake_after(3);
            }
            fn react(&mut self, ctx: &mut Context<'_>) {
                ctx.set_after(self.out, Value::bit(false), u64::MAX - 1);
            }
        }
        sim.add_component(OverflowSet { out: s });
        let summary = sim.run_to_quiescence().unwrap();
        // The saturated events sit beyond the quiescence limit: the run
        // ends at the limit, not in a panic or a time warp.
        assert_eq!(summary.outcome, RunOutcome::TimeLimit);
        assert!(sim.value(t).is_true());
        assert!(sim.value(s).is_x(), "saturated write never fired");
    }

    #[test]
    fn tracing_records_changes() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 4);
        sim.trace_signal(s);
        sim.add_component(Driver {
            out: s,
            value: Value::known(4, 3),
            delay: 2,
        });
        sim.run(SimTime(10)).unwrap();
        let changes = sim.changes();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].time, SimTime(2));
        assert_eq!(changes[0].value.as_u64(), 3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 4);
        sim.add_component(Driver {
            out: s,
            value: Value::known(8, 1),
            delay: 1,
        });
        let _ = sim.run(SimTime(10));
    }

    #[test]
    fn run_resumes_after_stop() {
        use crate::ops::{Clock, Counter};
        use crate::probe::Watchpoint;
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let q = sim.add_signal("q", 8);
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(Counter::new("cnt", clk, q));
        sim.add_component(Watchpoint::new("w", q, 3));
        let summary = sim.run(SimTime(10_000)).unwrap();
        assert!(matches!(summary.outcome, RunOutcome::Stopped(_)));
        assert_eq!(sim.value(q).as_u64(), 3);
        // Resuming continues from the stop point; the watchpoint only
        // fires on *changes to* its value, so the run proceeds until the
        // time limit.
        let summary = sim.run(SimTime(200)).unwrap();
        assert_eq!(summary.outcome, RunOutcome::TimeLimit);
        assert!(sim.value(q).as_u64() > 3);
    }

    #[test]
    fn components_added_after_a_run_are_wired_in() {
        // Adding a component dirties the sealed sink table; the next run
        // reseals and the new sink sees subsequent updates.
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        sim.add_component(Driver {
            out: a,
            value: Value::bit(true),
            delay: 1,
        });
        sim.add_component(Driver {
            out: a,
            value: Value::bit(false),
            delay: 10,
        });
        sim.run(SimTime(5)).unwrap();
        assert!(sim.value(a).is_true());
        sim.add_component(Not { a, y: b });
        sim.run(SimTime(50)).unwrap();
        assert!(sim.value(a).is_false());
        assert!(sim.value(b).is_true(), "late-added inverter reacted");
    }

    #[test]
    fn counters_track_deltas_depth_and_activations() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        let c = sim.add_signal("c", 1);
        sim.add_component(Driver {
            out: a,
            value: Value::bit(true),
            delay: 1,
        });
        let n1 = sim.add_component(Not { a, y: b });
        let n2 = sim.add_component(Not { a: b, y: c });
        let summary = sim.run(SimTime(10)).unwrap();
        // a flips at t=1, ripples through two inverters: at least one delta
        // cycle per stage of the chain.
        assert!(summary.delta_cycles >= 2, "deltas: {}", summary.delta_cycles);
        assert!(summary.max_queue_depth >= 1);
        let stats = sim.stats();
        assert_eq!(stats.events, summary.events);
        assert_eq!(stats.delta_cycles, summary.delta_cycles);
        assert_eq!(stats.max_queue_depth, summary.max_queue_depth);
        // Each inverter reacted exactly once (dedup holds).
        assert_eq!(sim.activation_count(n1), 1);
        assert_eq!(sim.activation_count(n2), 1);
        let hot = sim.hot_components(10);
        assert_eq!(hot.len(), 2);
        assert!(hot.iter().all(|&(_, n)| n == 1));
    }

    #[test]
    fn run_summary_counters_are_per_run() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        let y = sim.add_signal("y", 1);
        sim.add_component(Driver {
            out: s,
            value: Value::bit(true),
            delay: 5,
        });
        sim.add_component(Not { a: s, y });
        let first = sim.run(SimTime(3)).unwrap();
        assert_eq!(first.outcome, RunOutcome::TimeLimit);
        let second = sim.run(SimTime(100)).unwrap();
        // The delta ripple through the inverter at t=5 belongs to the
        // second run only; cumulative stats cover both runs.
        assert_eq!(first.delta_cycles, 0);
        assert!(second.delta_cycles >= 1);
        assert_eq!(sim.stats().delta_cycles, second.delta_cycles);
        assert_eq!(
            sim.stats().events,
            first.events + second.events
        );
    }

    #[test]
    fn hook_observes_run_boundaries() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Log {
            starts: Vec<SimTime>,
            end_events: Vec<u64>,
        }
        struct Spy(Rc<RefCell<Log>>);
        impl KernelHook for Spy {
            fn on_run_start(&mut self, now: SimTime) {
                self.0.borrow_mut().starts.push(now);
            }
            fn on_run_end(&mut self, summary: &RunSummary) {
                self.0.borrow_mut().end_events.push(summary.events);
            }
        }

        let log = Rc::new(RefCell::new(Log::default()));
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        sim.add_component(Driver {
            out: s,
            value: Value::bit(true),
            delay: 2,
        });
        sim.set_hook(Box::new(Spy(log.clone())));
        let summary = sim.run(SimTime(10)).unwrap();
        let log = log.borrow();
        assert_eq!(log.starts, vec![SimTime(0)]);
        assert_eq!(log.end_events, vec![summary.events]);
    }

    #[test]
    fn find_signal_by_name() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("alpha", 1);
        let _ = sim.add_signal("beta", 1);
        assert_eq!(sim.find_signal("alpha"), Some(a));
        assert_eq!(sim.find_signal("gamma"), None);
        assert_eq!(sim.signal_name(a), "alpha");
        assert_eq!(sim.signal_width(a), 1);
    }

    #[test]
    fn find_signal_does_not_rescan() {
        // Probe wiring resolves every probe name through `find_signal`;
        // with the historical linear scan, N lookups over N signals are
        // quadratic (here: 2.5e9 string compares, tens of seconds in a
        // debug build). Through the name index the whole loop is
        // milliseconds, so the generous bound cleanly separates the two
        // while staying robust to slow CI machines.
        let n = 50_000;
        let mut sim = Simulator::new();
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            ids.push(sim.add_signal(format!("net_{i}"), 8));
        }
        let started = std::time::Instant::now();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(sim.find_signal(&format!("net_{i}")), Some(*id));
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "find_signal rescanned: {n} lookups took {:?}",
            started.elapsed()
        );
    }

    /// A rising-edge sink gated by `en` that counts its `react` calls.
    struct GatedLatch {
        clk: SignalId,
        en: SignalId,
        out: SignalId,
        reacts: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl Component for GatedLatch {
        fn name(&self) -> &str {
            "gated_latch"
        }
        fn inputs(&self) -> Vec<crate::component::Sensitivity> {
            vec![crate::component::Sensitivity::rising(self.clk)]
        }
        fn react(&mut self, ctx: &mut Context<'_>) {
            self.reacts.set(self.reacts.get() + 1);
            if ctx.get(self.en).is_true() {
                ctx.set(self.out, Value::bit(true));
            }
        }
        fn eval_gate(&self) -> Option<SignalId> {
            Some(self.en)
        }
    }

    fn drive(sim: &mut Simulator, out: SignalId, steps: &[(u64, bool)]) {
        for &(delay, level) in steps {
            sim.add_component(Driver {
                out,
                value: Value::bit(level),
                delay,
            });
        }
    }

    #[test]
    fn gated_rising_sink_skips_dispatch_but_keeps_counters() {
        // A rising-edge sink whose gate is low must still be *counted* as
        // evaluated (evals and the activation histogram are part of the
        // kernel's observable contract); only the dispatch is skipped.
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let en = sim.add_signal("en", 1);
        let out = sim.add_signal("out", 1);
        drive(&mut sim, clk, &[(2, true), (6, false), (8, true)]);
        drive(&mut sim, en, &[(1, false), (5, true)]);
        let reacts = std::rc::Rc::default();
        let gated = sim.add_component(GatedLatch {
            clk,
            en,
            out,
            reacts: std::rc::Rc::clone(&reacts),
        });
        sim.run(SimTime(20)).unwrap();
        // Both clock edges count as evaluations; only the second one,
        // with the gate high, dispatched and drove the output.
        assert_eq!(sim.activation_count(gated), 2);
        assert_eq!(sim.stats().evals, 2);
        assert_eq!(reacts.get(), 1);
        assert!(sim.value(out).is_true());
    }

    #[test]
    fn a_clock_rising_twice_in_one_delta_runs_its_group_once() {
        // One wake-up writes clk 1, 0, 1 into the same delta: both rising
        // updates reach the group, which runs once, as each sink's own
        // evaluation was deduplicated once per delta.
        struct Glitch {
            clk: SignalId,
        }
        impl Component for Glitch {
            fn name(&self) -> &str {
                "glitch"
            }
            fn inputs(&self) -> Vec<crate::component::Sensitivity> {
                Vec::new()
            }
            fn init(&mut self, ctx: &mut Context<'_>) {
                ctx.wake_after(3);
            }
            fn react(&mut self, ctx: &mut Context<'_>) {
                for level in [true, false, true] {
                    ctx.set(self.clk, Value::bit(level));
                }
            }
        }
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        sim.add_component(Glitch { clk });
        let rising: Vec<ComponentId> = (0..2)
            .map(|_| {
                sim.add_component(EvalCounter {
                    watched: clk,
                    sense: crate::component::Sense::Rising,
                })
            })
            .collect();
        let any = sim.add_component(EvalCounter {
            watched: clk,
            sense: crate::component::Sense::Any,
        });
        let summary = sim.run(SimTime(10)).unwrap();
        for sink in rising {
            assert_eq!(sim.activation_count(sink), 1);
        }
        assert_eq!(sim.activation_count(any), 1);
        // The wake-up, two rising sinks and one level sink.
        assert_eq!(summary.evals, 4);
        assert_eq!(summary.updates, 3);
        let total: u64 = sim.activation_counts().iter().sum();
        assert_eq!(total, sim.stats().evals);
    }

    #[test]
    fn edge_activations_are_folded_when_a_delta_overflow_ends_the_run() {
        use crate::ops::{Clock, Counter};
        let mut sim = Simulator::new();
        sim.set_delta_limit(16);
        let clk = sim.add_signal("clk", 1);
        let q = sim.add_signal("q", 8);
        let a = sim.add_signal("a", 1);
        sim.add_component(Clock::new("clk0", clk, 10));
        let counter = sim.add_component(Counter::new("cnt", clk, q));
        sim.add_component(Driver {
            out: a,
            value: Value::bit(true),
            delay: 27,
        });
        // a = !a oscillates from t=27, after edges at 5, 15 and 25.
        sim.add_component(Not { a, y: a });
        let err = sim.run(SimTime(100)).unwrap_err();
        assert!(matches!(err, SimError::DeltaOverflow { limit: 16, .. }));
        assert_eq!(sim.activation_count(counter), 3);
        let total: u64 = sim.activation_counts().iter().sum();
        assert_eq!(total, sim.stats().evals);
    }

    #[test]
    fn a_rising_sink_added_between_runs_joins_its_signals_group() {
        use crate::ops::Clock;
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let en = sim.add_signal("en", 1);
        let out = sim.add_signal("out", 1);
        sim.add_component(Clock::new("clk0", clk, 10));
        drive(&mut sim, en, &[(1, true)]);
        let early = sim.add_component(EvalCounter {
            watched: clk,
            sense: crate::component::Sense::Rising,
        });
        sim.run(SimTime(20)).unwrap(); // edges at 5 and 15
        assert_eq!(sim.activation_count(early), 2);
        // The reseal keeps the folded counts, and the new sink's armed bit
        // starts from its gate's current (true) value.
        let reacts = std::rc::Rc::default();
        let late = sim.add_component(GatedLatch {
            clk,
            en,
            out,
            reacts: std::rc::Rc::clone(&reacts),
        });
        sim.run(SimTime(40)).unwrap(); // edges at 25 and 35
        assert_eq!(sim.activation_count(early), 4);
        assert_eq!(sim.activation_count(late), 2);
        assert_eq!(reacts.get(), 2);
        assert!(sim.value(out).is_true());
        let total: u64 = sim.activation_counts().iter().sum();
        assert_eq!(total, sim.stats().evals);
    }

    #[test]
    #[should_panic(expected = "must be its only sensitivity entry")]
    fn a_rising_entry_beside_another_entry_panics() {
        struct Mixed {
            clk: SignalId,
            d: SignalId,
        }
        impl Component for Mixed {
            fn name(&self) -> &str {
                "mixed"
            }
            fn inputs(&self) -> Vec<crate::component::Sensitivity> {
                vec![
                    crate::component::Sensitivity::rising(self.clk),
                    crate::component::Sensitivity::any(self.d),
                ]
            }
            fn react(&mut self, _ctx: &mut Context<'_>) {}
        }
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let d = sim.add_signal("d", 1);
        sim.add_component(Mixed { clk, d });
    }

    #[test]
    fn find_signal_returns_first_registration_for_duplicates() {
        // The name index must preserve the historical linear-scan
        // semantics: the first signal registered under a name wins.
        let mut sim = Simulator::new();
        let first = sim.add_signal("dup", 4);
        let _second = sim.add_signal("dup", 8);
        assert_eq!(sim.find_signal("dup"), Some(first));
        assert_eq!(sim.signal_width(sim.find_signal("dup").unwrap()), 4);
    }
}
