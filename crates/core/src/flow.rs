//! The test flow: the orchestration the paper's ANT build performs.
//!
//! One [`TestFlow::run`] executes the entire Figure 1 pipeline:
//!
//! 1. compile the source program (the compiler-under-test),
//! 2. emit the XML dialects (`datapath.xml`, `fsm.xml`, `rtg.xml`),
//! 3. translate them with the stock stylesheets (`.hds`, behavioral
//!    source, `dot`),
//! 4. execute the golden software reference over the stimulus files,
//! 5. elaborate and simulate every configuration in RTG order, carrying
//!    SRAM contents across reconfigurations,
//! 6. compare final memory contents and produce a [`TestReport`].
//!
//! Step 5 is one RTG walk for every engine: the event, cycle and level
//! engines run it with one lane (one stimulus and fault set), the batch
//! engine with up to 64 ([`PreparedDesign::run_batch`]).
//!
//! Every stage runs under one span, opened and closed by one helper
//! that records it on [`FlowOptions::spans`] (the metrics span tree) and
//! streams `span-start`/`span-end` on [`FlowOptions::events`]. Every entry
//! point records the same way, so campaigns, fuzz legs and served jobs
//! can keep the stage timings that CLI runs keep. Both sinks are disabled
//! by default, and a disabled sink reads no clock and formats no name.
//! A stage that fails is left open: the stream keeps its lone
//! `span-start`, and the caller's enclosing span (a suite's
//! `case.<name>`) closes it in the tree.

use crate::elaborate::{ConfigParts, ConfigSim, ElaborateConfigError};
use crate::events::{Event, EventSink};
use crate::faults::FaultSpec;
use crate::memcmp::{diff_images, render_mismatches, Mismatch};
use crate::metrics::{ConfigMetrics, DesignMetrics};
use crate::stimulus::{MemImage, Stimulus};
use crate::telemetry::{Json, SpanId, SpanSink};
use eventsim::batchsim::{BatchSim, FirstAccess, LaneOutcome, SignalBits, LANES};
use eventsim::cyclesim::{CycleOutcome, CycleSim, CycleSimError};
use eventsim::ops::FsmCoverageHandle;
use eventsim::{KernelStats, MemHandle, RunOutcome, SimError, SimTime};
use nenya::datapath::FU_KINDS;
use nenya::schedule::SchedulePolicy;
use nenya::{compile_program, CompileError, CompileOptions, Design};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Which simulation engine executes the elaborated configurations.
///
/// All four engines interpret the same netlist + FSM-table vocabulary and
/// must produce word-identical final memories (`fpgafuzz` enforces this on
/// every generated program). See DESIGN.md's engine-selection matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The delta-cycle event kernel — full observability (probes, VCD,
    /// coverage) and the paper's reference engine.
    #[default]
    Event,
    /// The naive sweep-until-fixpoint cycle engine — the slow comparator.
    Cycle,
    /// The compiled engine walked one lane wide: the levelized schedule
    /// flattened into bytecode, evaluated with a dirty bitset — fastest
    /// for one stimulus; no probe/trace/coverage support.
    Level,
    /// The same bytecode walked [`LANES`] (64) lanes wide — fastest when
    /// many independent vectors or fault sites share one design. No
    /// probe/trace/coverage support.
    Batch,
}

impl Engine {
    /// All engines, in documentation order.
    pub const ALL: [Engine; 4] = [Engine::Event, Engine::Cycle, Engine::Level, Engine::Batch];
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Event => "event",
            Engine::Cycle => "cycle",
            Engine::Level => "level",
            Engine::Batch => "batch",
        })
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(Engine::Event),
            "cycle" => Ok(Engine::Cycle),
            "level" => Ok(Engine::Level),
            "batch" => Ok(Engine::Batch),
            other => Err(format!(
                "unknown engine '{other}' (expected event, cycle, level, or batch)"
            )),
        }
    }
}

/// Options controlling a test-flow run.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Compiler options (width, scheduling policy, partitions).
    pub compile: CompileOptions,
    /// Simulation engine (see [`Engine`]).
    pub engine: Engine,
    /// Simulation watchdog in kernel ticks per configuration.
    pub max_ticks: u64,
    /// Step budget for the golden reference execution.
    pub golden_step_limit: u64,
    /// Record a VCD of clock/done/conditions per configuration.
    pub trace: bool,
    /// Keep textual artifacts (XML, hds, behavioral source, dot) in the
    /// report. They are rendered when the report is built, so every run
    /// of a [`PreparedDesign`] with this set pays for the rendering.
    pub keep_artifacts: bool,
    /// Datapath signals to record ("access to values on certain
    /// connections"): every change is captured per configuration and
    /// returned in [`ConfigRun::probes`].
    pub probes: Vec<String>,
    /// Collect FSM state/transition and operator-activation coverage per
    /// configuration (see [`ConfigRun::coverage`]).
    pub coverage: bool,
    /// Hardware faults to inject into the simulated design (never the
    /// golden reference). A fault naming a signal or memory absent from
    /// every executed configuration is a [`FlowError::Fault`]; a fault
    /// class the selected engine cannot express is recorded in
    /// [`TestReport::fault_skips`] instead of being silently dropped.
    pub faults: Vec<FaultSpec>,
    /// Wall-clock watchdog in milliseconds, enforced around the whole
    /// case by the suite runner's shield, which `fpgatest test` on a
    /// single source also runs (the flow itself only counts ticks).
    pub wall_timeout_ms: Option<u64>,
    /// Live event stream (`fpgatest-events-v1`): stage span start/end
    /// events are emitted here as they happen. Disabled by default —
    /// see [`crate::events::EventSink`].
    pub events: EventSink,
    /// Span sink: every stage the flow runs records a span here (see
    /// [`TestFlow::run`] for the names), nested under whatever span the
    /// caller holds open. Disabled by default — see
    /// [`crate::telemetry::SpanSink`].
    pub spans: SpanSink,
    /// Collect an engine profile per configuration into
    /// [`ConfigRun::profile`]: per-component-class evaluation timing on
    /// the event kernel, per-rank walk timing and dirty-bitset hit rates
    /// on the level and batch engines, per-phase timing on the cycle
    /// engine.
    /// Profiling only observes — kernel counters, cycle counts, and
    /// verdicts are bit-identical with it on or off — and costs nothing
    /// when off.
    pub profile: bool,
    /// Test hook: panic at the start of the flow, exercising the suite
    /// runner's crash isolation.
    #[doc(hidden)]
    pub planted_panic: bool,
}

/// How many entries [`ConfigRun::hot_components`] keeps.
const HOT_COMPONENT_LIMIT: usize = 10;

/// Kernel ticks per clock cycle: the period of the `clock` cell the
/// datapath generator emits. Every engine converts between the tick
/// watchdog and cycles with it.
pub(crate) const CLOCK_PERIOD: u64 = 10;

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            compile: CompileOptions::default(),
            engine: Engine::default(),
            max_ticks: 2_000_000_000,
            golden_step_limit: 200_000_000,
            trace: false,
            keep_artifacts: true,
            probes: Vec::new(),
            coverage: false,
            faults: Vec::new(),
            wall_timeout_ms: None,
            events: EventSink::disabled(),
            spans: SpanSink::disabled(),
            profile: false,
            planted_panic: false,
        }
    }
}

/// Execution coverage of one configuration: which control-FSM states and
/// transitions ran, and how often each functional-unit kind reacted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConfigCoverage {
    /// Names of FSM states entered at least once, in table order.
    pub visited_states: Vec<String>,
    /// Total number of FSM states in the control table.
    pub state_total: usize,
    /// Number of distinct `(from, to)` transitions taken.
    pub transitions_taken: usize,
    /// Total number of transitions declared in the control table.
    pub transition_total: usize,
    /// Reactive-evaluation counts summed per functional-unit kind
    /// (`add`, `mul`, …). Kinds instantiated in the datapath but never
    /// activated appear with count 0.
    pub operator_activations: BTreeMap<String, u64>,
}

/// Textual artifacts of one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigArtifacts {
    /// Configuration name.
    pub name: String,
    /// `datapath.xml`.
    pub datapath_xml: String,
    /// `fsm.xml`.
    pub fsm_xml: String,
    /// The `.hds` netlist produced by the stylesheet.
    pub hds: String,
    /// The behavioral control-unit source (Java-flavoured).
    pub behavior_src: String,
    /// Graphviz dot of the datapath.
    pub datapath_dot: String,
    /// Graphviz dot of the FSM.
    pub fsm_dot: String,
}

/// Textual artifacts of a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifacts {
    /// `rtg.xml`.
    pub rtg_xml: String,
    /// Graphviz dot of the RTG.
    pub rtg_dot: String,
    /// The reconfiguration-controller source.
    pub controller_src: String,
    /// Per-configuration artifacts in RTG order.
    pub configs: Vec<ConfigArtifacts>,
}

/// Per-component-class evaluation timing on the event kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassProfile {
    /// Component class (functional-unit kind like `add`/`mul`, or the
    /// component name with its instance digits stripped: `reg`, `sram`,
    /// `clock`, ...).
    pub class: String,
    /// Timed reactive evaluations of this class.
    pub evals: u64,
    /// Monotonic nanoseconds spent evaluating this class.
    pub nanos: u64,
}

/// Per-rank walk timing on the level and batch engines.
#[derive(Debug, Clone, PartialEq)]
pub struct RankProfile {
    /// Levelization rank.
    pub rank: usize,
    /// Bytecode ops in this rank.
    pub size: u64,
    /// Dirty ops actually evaluated across all walks.
    pub evals: u64,
    /// Evaluations whose output changed.
    pub changes: u64,
    /// Monotonic nanoseconds spent evaluating this rank.
    pub nanos: u64,
    /// Dirty-bitset hit rate: evaluated fraction of `size × walks`
    /// (1.0 = the bitset saved nothing).
    pub hit_rate: f64,
}

/// Per-phase timing on the cycle engine.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Phase name (`settle`, `commit`).
    pub phase: String,
    /// Monotonic nanoseconds spent in the phase.
    pub nanos: u64,
}

/// Engine profile of one configuration, collected under
/// [`FlowOptions::profile`]. Exactly one section is populated,
/// depending on the engine that ran: `classes` (event kernel), `ranks`
/// (level and batch engines), or `phases` (cycle engine).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigProfile {
    /// Event kernel: per-component-class evaluation timing, descending
    /// by nanoseconds.
    pub classes: Vec<ClassProfile>,
    /// Level and batch engines: per-rank walk timing and dirty-bitset
    /// hit rates, in rank order.
    pub ranks: Vec<RankProfile>,
    /// Cycle engine: per-phase timing.
    pub phases: Vec<PhaseProfile>,
}

/// Result of simulating one configuration.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// Configuration name.
    pub name: String,
    /// Kernel summary.
    pub summary: eventsim::RunSummary,
    /// Cumulative kernel counters of this configuration's simulator.
    pub kernel: KernelStats,
    /// The most-activated components, `(name, reactive evaluations)`
    /// pairs in descending order — the "hot operator" histogram.
    pub hot_components: Vec<(String, u64)>,
    /// The sum of every component's reactive evaluations
    /// (`Simulator::activation_counts`); the event kernel keeps it equal
    /// to `kernel.evals`. Zero on the other engines.
    pub activations: u64,
    /// Clock cycles executed.
    pub cycles: u64,
    /// VCD text when tracing was requested.
    pub vcd: Option<String>,
    /// Recorded `(tick, value)` histories of the probed signals
    /// (`None` = `X`).
    pub probes: BTreeMap<String, Vec<(u64, Option<i64>)>>,
    /// Execution coverage, when [`FlowOptions::coverage`] was set.
    pub coverage: Option<ConfigCoverage>,
    /// Engine profile, when [`FlowOptions::profile`] was set.
    pub profile: Option<ConfigProfile>,
}

/// The outcome of a full test-flow run.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// Design name.
    pub design: String,
    /// Whether simulation completed and every memory word matched.
    pub passed: bool,
    /// A design-level failure (assertion, X condition, bad write) that
    /// aborted simulation, if any.
    pub failure: Option<String>,
    /// Word-level disagreements between golden and simulated memories.
    pub mismatches: Vec<Mismatch>,
    /// Golden execution statistics.
    pub golden: nenya::interp::ExecStats,
    /// Per-configuration simulation results, in RTG order.
    pub runs: Vec<ConfigRun>,
    /// Table I metrics.
    pub metrics: DesignMetrics,
    /// Textual artifacts (when requested).
    pub artifacts: Option<Artifacts>,
    /// Final simulated memory contents.
    pub sim_mems: BTreeMap<String, MemImage>,
    /// Final golden memory contents.
    pub golden_mems: BTreeMap<String, MemImage>,
    /// Requested faults the selected engine could not express, each with
    /// a reason. Non-empty skips mean the verdict does *not* cover those
    /// faults — campaign classification treats them as skipped, never as
    /// a silent pass.
    pub fault_skips: Vec<String>,
}

impl TestReport {
    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "design '{}': {}\n",
            self.design,
            if self.passed { "PASS" } else { "FAIL" }
        ));
        if let Some(failure) = &self.failure {
            out.push_str(&format!("  simulation failure: {failure}\n"));
        }
        for skip in &self.fault_skips {
            out.push_str(&format!("  fault skipped: {skip}\n"));
        }
        if !self.mismatches.is_empty() {
            out.push_str(&format!("  {} memory mismatches:\n", self.mismatches.len()));
            out.push_str(&render_mismatches(&self.mismatches, 10));
        }
        for run in &self.runs {
            out.push_str(&format!(
                "  config '{}': {} cycles, {} events, {:.4}s\n",
                run.name, run.cycles, run.summary.events, run.summary.wall_seconds
            ));
        }
        out.push_str(&format!(
            "  golden: {} instructions, {} stores\n",
            self.golden.instructions, self.golden.stores
        ));
        out
    }
}

/// Errors that prevent the flow from producing a verdict (distinct from a
/// failing verdict, which is a [`TestReport`] with `passed == false`).
#[derive(Debug)]
pub enum FlowError {
    /// The compiler rejected the source.
    Compile(CompileError),
    /// A stimulus did not apply to its memory.
    Stimulus(String),
    /// The golden reference itself failed — the test case (not the
    /// compiler) is broken.
    Golden(String),
    /// Parsing a configuration's XML into its netlist and control table,
    /// or building an engine from them, failed.
    Elaborate(ElaborateConfigError),
    /// The kernel detected a model error (zero-delay loop).
    Kernel(SimError),
    /// A configuration exceeded the tick watchdog.
    Timeout {
        /// Configuration name.
        config: String,
        /// The watchdog value.
        max_ticks: u64,
    },
    /// The RTG was inconsistent.
    Rtg(String),
    /// A probe names a signal the datapath does not have.
    Probe {
        /// Configuration name.
        config: String,
        /// The unknown signal.
        signal: String,
    },
    /// The selected engine cannot honour a requested feature
    /// (probes/trace/coverage need the event kernel).
    Engine {
        /// The selected engine.
        engine: Engine,
        /// What was requested.
        feature: String,
    },
    /// A requested fault injection is unusable: the target signal or
    /// memory exists in no executed configuration, or the bit/address is
    /// out of range.
    Fault(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Compile(e) => write!(f, "compile: {e}"),
            FlowError::Stimulus(m) => write!(f, "stimulus: {m}"),
            FlowError::Golden(m) => write!(f, "golden reference: {m}"),
            FlowError::Elaborate(e) => write!(f, "elaborate: {e}"),
            FlowError::Kernel(e) => write!(f, "kernel: {e}"),
            FlowError::Timeout { config, max_ticks } => {
                write!(f, "configuration '{config}' exceeded {max_ticks} ticks")
            }
            FlowError::Rtg(m) => write!(f, "rtg: {m}"),
            FlowError::Probe { config, signal } => {
                write!(f, "configuration '{config}' has no signal '{signal}' to probe")
            }
            FlowError::Engine { engine, feature } => {
                write!(f, "engine '{engine}' does not support {feature} (use --engine event)")
            }
            FlowError::Fault(m) => write!(f, "fault injection: {m}"),
        }
    }
}

impl Error for FlowError {}

impl From<CompileError> for FlowError {
    fn from(e: CompileError) -> Self {
        FlowError::Compile(e)
    }
}

impl From<ElaborateConfigError> for FlowError {
    fn from(e: ElaborateConfigError) -> Self {
        FlowError::Elaborate(e)
    }
}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        FlowError::Kernel(e)
    }
}

/// Builder for one test-flow run.
///
/// ```
/// use fpgatest::flow::TestFlow;
/// use fpgatest::stimulus::Stimulus;
///
/// # fn main() -> Result<(), fpgatest::flow::FlowError> {
/// let report = TestFlow::new(
///     "double",
///     "mem inp[4]; mem out[4];
///      void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2; } }",
/// )
/// .stimulus("inp", Stimulus::from_values([1, 2, 3, 4]))
/// .run()?;
/// assert!(report.passed);
/// assert_eq!(report.sim_mems["out"][3], Some(8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TestFlow {
    name: String,
    source: String,
    options: FlowOptions,
    stimuli: Vec<(String, Stimulus)>,
}

impl TestFlow {
    /// Creates a flow for a named source program.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        TestFlow {
            name: name.into(),
            source: source.into(),
            options: FlowOptions::default(),
            stimuli: Vec::new(),
        }
    }

    /// Replaces the whole option block.
    pub fn with_options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the number of temporal partitions.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.options.compile.partitions = partitions;
        self
    }

    /// Sets the design data width.
    pub fn with_width(mut self, width: u32) -> Self {
        self.options.compile.width = width;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.options.compile.policy = policy;
        self
    }

    /// Selects the simulation engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.options.engine = engine;
        self
    }

    /// Enables the compiler's TAC optimization passes.
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.options.compile.optimize = optimize;
        self
    }

    /// Enables VCD tracing of clock/done per configuration.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.options.trace = trace;
        self
    }

    /// Enables FSM state/transition and operator-activation coverage
    /// collection per configuration.
    pub fn with_coverage(mut self, coverage: bool) -> Self {
        self.options.coverage = coverage;
        self
    }

    /// Records every change of a datapath signal (by name). Temps live in
    /// registers named `t<N>_q`; memory ports are `<mem>_addr`,
    /// `<mem>_dout`, …; the completion flag is `done`.
    pub fn probe(mut self, signal: impl Into<String>) -> Self {
        self.options.probes.push(signal.into());
        self
    }

    /// Adds initial contents for a memory.
    pub fn stimulus(mut self, mem: impl Into<String>, stimulus: Stimulus) -> Self {
        self.stimuli.push((mem.into(), stimulus));
        self
    }

    /// Records the flow's stage spans into `spans` ([`FlowOptions::spans`]).
    pub fn with_spans(mut self, spans: SpanSink) -> Self {
        self.options.spans = spans;
        self
    }

    /// Runs the full flow. Every pipeline stage records a span on
    /// [`FlowOptions::spans`] and streams `span-start`/`span-end` on
    /// [`FlowOptions::events`]: `flow.parse`, `flow.lower`, `flow.golden`,
    /// `flow.transform`, then `flow.elaborate` and
    /// `flow.simulate.<config>` per configuration, and `flow.compare`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when the flow cannot produce a verdict;
    /// compiler bugs manifest as `Ok(report)` with `passed == false`.
    pub fn run(&self) -> Result<TestReport, FlowError> {
        let stage = Stage::start(&self.options, "flow.parse");
        let program = nenya::lang::parse(&self.source)
            .map_err(|e| FlowError::Compile(CompileError::from(e)))?;
        stage.attr("source_lines", program.source_lines);
        stage.end();

        let stage = Stage::start(&self.options, "flow.lower");
        let design = compile_program(&self.name, &program, &self.options.compile)?;
        stage.attr("configs", design.configs.len());
        stage.attr("operators", design.operator_count());
        stage.end();

        run_design(&design, &self.stimuli, &self.options)
    }
}

/// Runs the verification flow over an already-compiled design.
///
/// # Errors
///
/// See [`TestFlow::run`].
pub fn run_design(
    design: &Design,
    stimuli: &[(String, Stimulus)],
    options: &FlowOptions,
) -> Result<TestReport, FlowError> {
    preflight(options)?;
    let golden = run_golden(design, initial_images(design, stimuli)?, options)?;

    // Artifact generation (XML + stylesheet translations + metrics),
    // plus the engine-independent parse products (netlists, FSM tables)
    // the simulation stage consumes.
    let stage = Stage::start(options, "flow.transform");
    let parts = prepare_parts(design)?;
    stage.attr("configs", design.configs.len());
    stage.end();

    simulate_prepared(design, &parts, golden, options, None)
}

/// One flow stage, open in both of a run's span outputs: the span tree
/// ([`FlowOptions::spans`]) and the event stream
/// ([`FlowOptions::events`]). [`Stage::end`] closes it in both. A stage
/// whose work fails is never ended: the stream keeps its lone
/// `span-start`, and in the tree the span the caller holds open (a
/// suite's `case.<name>`) closes it.
struct Stage<'a> {
    options: &'a FlowOptions,
    span: SpanId,
    /// The name and start of the streamed `span-start`, when the event
    /// stream is enabled.
    event: Option<(String, Instant)>,
}

impl<'a> Stage<'a> {
    fn start(options: &'a FlowOptions, name: impl fmt::Display) -> Self {
        let span = options.spans.start(&name);
        let event = options.events.is_enabled().then(|| {
            let name = name.to_string();
            options.events.emit(&Event::SpanStart { name: name.clone() });
            (name, Instant::now())
        });
        Stage {
            options,
            span,
            event,
        }
    }

    fn attr(&self, key: &str, value: impl Into<Json>) {
        self.options.spans.attr(self.span, key, value);
    }

    fn end(self) {
        self.options.spans.end(self.span);
        if let Some((name, started)) = self.event {
            let wall_seconds = started.elapsed().as_secs_f64();
            self.options.events.emit(&Event::SpanEnd { name, wall_seconds });
        }
    }
}

/// Rejects option combinations the flow cannot honour, and fires the
/// planted-panic test hook.
fn preflight(options: &FlowOptions) -> Result<(), FlowError> {
    if options.planted_panic {
        panic!("planted panic: FlowOptions::planted_panic is set");
    }
    if options.engine != Engine::Event {
        let unsupported = if options.trace {
            Some("VCD tracing")
        } else if !options.probes.is_empty() {
            Some("signal probes")
        } else if options.coverage {
            Some("coverage collection")
        } else {
            None
        };
        if let Some(feature) = unsupported {
            return Err(FlowError::Engine {
                engine: options.engine,
                feature: feature.to_string(),
            });
        }
    }
    Ok(())
}

/// Initial memory images shared by the golden and simulated executions.
fn initial_images(
    design: &Design,
    stimuli: &[(String, Stimulus)],
) -> Result<BTreeMap<String, MemImage>, FlowError> {
    let mut initial = design.blank_images();
    for (mem, stimulus) in stimuli {
        let image = initial
            .get_mut(mem)
            .ok_or_else(|| FlowError::Stimulus(format!("no memory named '{mem}'")))?;
        stimulus
            .apply(image)
            .map_err(|m| FlowError::Stimulus(format!("memory '{mem}': {m}")))?;
    }
    Ok(initial)
}

/// Runs the golden reference from the `initial` images.
fn run_golden(
    design: &Design,
    initial: BTreeMap<String, MemImage>,
    options: &FlowOptions,
) -> Result<PreparedGolden, FlowError> {
    let mut golden_mems = initial.clone();
    let stage = Stage::start(options, "flow.golden");
    let golden_started = Instant::now();
    let stats = design
        .execute_golden(&mut golden_mems, options.golden_step_limit)
        .map_err(FlowError::Golden)?;
    let seconds = golden_started.elapsed().as_secs_f64();
    stage.attr("instructions", stats.instructions);
    stage.end();
    Ok(PreparedGolden {
        initial,
        stats,
        mems: golden_mems,
        seconds,
    })
}

/// The transform-stage products of one design, precomputed once and
/// reusable across runs: XML documents and each configuration's parsed
/// parts. The textual artifacts are not kept: only
/// `keep_artifacts` reports read them, so [`render_artifacts`] derives
/// them from the documents when such a report is built. Everything here
/// is plain data except each configuration's compiled program, which is
/// built once behind a `OnceLock` ([`ConfigParts::program`]), so a
/// `PreparedParts` can be shared across threads.
struct PreparedParts {
    rtg_doc: xmlite::Document,
    /// `(config name, datapath.xml, fsm.xml)` in design order.
    docs: Vec<(String, xmlite::Document, xmlite::Document)>,
    /// Metrics template with the per-run fields (cycles/events/seconds)
    /// zeroed.
    config_metrics: Vec<ConfigMetrics>,
    /// Parsed netlist and control table, one per config: every engine
    /// builds from them, and every engine's SRAM list and sizes come from
    /// the netlists.
    configs: Vec<ConfigParts>,
}

/// Applies one of the transform stylesheets, mapping its failure to the
/// flow's elaboration error.
fn apply_stylesheet(
    sheet: &xform::Stylesheet,
    root: &xmlite::Element,
) -> Result<String, FlowError> {
    xform::apply(sheet, root)
        .map_err(|e| FlowError::Elaborate(ElaborateConfigError::Stylesheet(e.to_string())))
}

fn prepare_parts(design: &Design) -> Result<PreparedParts, FlowError> {
    let rtg_doc = nenya::xml::emit_rtg(&design.rtg);
    let mut config_metrics = Vec::new();
    let mut docs = Vec::new();
    let mut configs = Vec::new();
    for config in &design.configs {
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
        let behavior = apply_stylesheet(xform::stylesheets::fsm_to_behavior(), fsm_doc.root())?;
        configs.push(ConfigParts::parse(&dp_doc, &fsm_doc)?);
        config_metrics.push(ConfigMetrics {
            name: config.name.clone(),
            lo_xml_fsm: xmlite::loc(&fsm_doc),
            lo_xml_datapath: xmlite::loc(&dp_doc),
            lo_behav_fsm: behavior.lines().filter(|l| !l.trim().is_empty()).count(),
            operators: config.datapath.operator_count(),
            fsm_states: config.fsm.state_count(),
            cycles: 0,
            events: 0,
            sim_seconds: 0.0,
        });
        docs.push((config.name.clone(), dp_doc, fsm_doc));
    }
    Ok(PreparedParts {
        rtg_doc,
        docs,
        config_metrics,
        configs,
    })
}

/// Renders a `keep_artifacts` report's textual artifacts from the
/// prepared documents, re-running the stylesheets whose output the
/// transform stage consumed without keeping.
fn render_artifacts(parts: &PreparedParts) -> Result<Artifacts, FlowError> {
    let configs = parts
        .docs
        .iter()
        .map(|(name, dp_doc, fsm_doc)| {
            Ok(ConfigArtifacts {
                name: name.clone(),
                datapath_xml: dp_doc.to_pretty_string(),
                fsm_xml: fsm_doc.to_pretty_string(),
                hds: apply_stylesheet(xform::stylesheets::datapath_to_hds(), dp_doc.root())?,
                behavior_src: apply_stylesheet(
                    xform::stylesheets::fsm_to_behavior(),
                    fsm_doc.root(),
                )?,
                datapath_dot: apply_stylesheet(
                    xform::stylesheets::datapath_to_dot(),
                    dp_doc.root(),
                )?,
                fsm_dot: apply_stylesheet(xform::stylesheets::fsm_to_dot(), fsm_doc.root())?,
            })
        })
        .collect::<Result<_, FlowError>>()?;
    Ok(Artifacts {
        rtg_xml: parts.rtg_doc.to_pretty_string(),
        rtg_dot: xform::apply(xform::stylesheets::rtg_to_dot(), parts.rtg_doc.root())
            .unwrap_or_default(),
        controller_src: xform::apply(
            xform::stylesheets::rtg_to_controller(),
            parts.rtg_doc.root(),
        )
        .unwrap_or_default(),
        configs,
    })
}

/// A compiled design with its transform-stage products precomputed, so
/// many stimulus sets can be simulated without re-running the compiler,
/// the stylesheets, or the netlist/FSM parsers — the compile-once,
/// simulate-many shape the serve subsystem's design cache is built on.
///
/// `PreparedDesign` is `Send + Sync`, unlike the built simulators
/// themselves, so it can live in a cross-thread cache; each run still
/// builds its own engine state from these parts, and level and batch
/// runs share each configuration's compiled bytecode program.
///
/// ```
/// use fpgatest::flow::{prepare_design, FlowOptions};
/// use fpgatest::stimulus::Stimulus;
///
/// # fn main() -> Result<(), fpgatest::flow::FlowError> {
/// let program = nenya::lang::parse(
///     "mem inp[4]; mem out[4];
///      void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2; } }",
/// ).map_err(nenya::CompileError::from)?;
/// let design = nenya::compile_program("double", &program, &Default::default())?;
/// let prepared = prepare_design(design)?;
/// for base in [0, 10] {
///     let stimuli = vec![("inp".to_string(), Stimulus::from_values([base + 1, base + 2, base + 3, base + 4]))];
///     let report = prepared.run(&stimuli, &FlowOptions::default())?;
///     assert!(report.passed);
/// }
/// # Ok(())
/// # }
/// ```
pub struct PreparedDesign {
    design: Design,
    parts: PreparedParts,
}

/// The golden software reference's products for one `(design, stimuli)`
/// pair, captured by [`prepare_golden`] (or the
/// [`PreparedDesign::prepare_golden`] shorthand) and replayed by
/// [`PreparedDesign::run_with_golden`]. Plain data (`Send + Sync`), so a
/// campaign's worker shards can share one.
#[derive(Clone)]
pub struct PreparedGolden {
    initial: BTreeMap<String, MemImage>,
    stats: nenya::interp::ExecStats,
    mems: BTreeMap<String, MemImage>,
    /// Wall-clock seconds the reference took (0 once replayed).
    seconds: f64,
}

impl PreparedDesign {
    /// The compiled design these parts were prepared from.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The design's textual artifacts, as a `keep_artifacts` report
    /// carries them, without running it (`fpgatest compile`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Elaborate`] when a stylesheet rejects the
    /// design's XML.
    pub fn artifacts(&self) -> Result<Artifacts, FlowError> {
        render_artifacts(&self.parts)
    }

    /// Runs the simulation + comparison stages against this prepared
    /// design. Equivalent to [`run_design`] minus the (already done)
    /// transform stage: same verdicts, same errors, same report shape,
    /// and the same stage spans but `flow.transform`.
    ///
    /// # Errors
    ///
    /// See [`TestFlow::run`].
    pub fn run(
        &self,
        stimuli: &[(String, Stimulus)],
        options: &FlowOptions,
    ) -> Result<TestReport, FlowError> {
        preflight(options)?;
        let initial = initial_images(&self.design, stimuli)?;
        let golden = run_golden(&self.design, initial, options)?;
        simulate_prepared(&self.design, &self.parts, golden, options, None)
    }

    /// Runs the golden software reference once for a fixed stimulus set
    /// and captures its products, so many subsequent simulations of the
    /// same prepared design (fault campaigns especially) skip it. The
    /// stimuli are bound in: a [`PreparedGolden`] only ever replays
    /// against the inputs it was computed from.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Stimulus`] for a bad stimulus and
    /// [`FlowError::Golden`] when the reference itself fails.
    pub fn prepare_golden(
        &self,
        stimuli: &[(String, Stimulus)],
        options: &FlowOptions,
    ) -> Result<PreparedGolden, FlowError> {
        prepare_golden(&self.design, stimuli, options)
    }

    /// Runs the simulation + comparison stages against a precomputed
    /// [`PreparedGolden`]: same verdicts, failure strings, and mismatch
    /// reports as [`run`](Self::run), minus the per-run golden
    /// execution. The report's `golden_seconds` is 0 (nothing ran).
    /// Faults in `options.faults` apply normally — SRAM corruptions edit
    /// a private clone of the captured initial images.
    ///
    /// # Errors
    ///
    /// See [`TestFlow::run`].
    pub fn run_with_golden(
        &self,
        golden: &PreparedGolden,
        options: &FlowOptions,
    ) -> Result<TestReport, FlowError> {
        preflight(options)?;
        let golden = PreparedGolden {
            seconds: 0.0,
            ..golden.clone()
        };
        simulate_prepared(&self.design, &self.parts, golden, options, None)
    }

    /// [`run_with_golden`](Self::run_with_golden) on the one-lane
    /// bytecode (`--engine level`, whatever `options.engine` names) and
    /// without a profile (a walk feeds one instrument at most),
    /// recording what the walk saw ([`CleanRecord`]): the bits every
    /// signal held as known 0 and known 1, and whether a read or a write
    /// touched each memory word first. Fault campaigns make this walk
    /// once, on the clean design, and prove sites silent from it.
    ///
    /// # Errors
    ///
    /// See [`TestFlow::run`].
    pub fn record_clean(
        &self,
        golden: &PreparedGolden,
        options: &FlowOptions,
    ) -> Result<(TestReport, CleanRecord), FlowError> {
        let mut options = options.clone();
        options.engine = Engine::Level;
        options.profile = false;
        preflight(&options)?;
        let golden = PreparedGolden {
            seconds: 0.0,
            ..golden.clone()
        };
        let record = RefCell::new(CleanRecord::default());
        let report = simulate_prepared(&self.design, &self.parts, golden, &options, Some(&record))?;
        Ok((report, record.into_inner()))
    }

    /// The parsed `.hds` netlist of every configuration, in design order.
    pub(crate) fn netlists(&self) -> impl Iterator<Item = &eventsim::netlist::Netlist> {
        self.parts.configs.iter().map(|parts| &parts.netlist)
    }

    /// Runs up to [`LANES`] independent lane configurations — each with
    /// its own stimuli and its own fault list — through **one** batch-
    /// engine walk of every configuration, instead of one full flow per
    /// lane. Each lane's verdict, failure strings, cycle counts, and
    /// final memories are bit-identical to running that lane alone with
    /// `--engine level` (the per-lane bit-identity contract; see
    /// DESIGN.md). Golden reference executions are deduplicated across
    /// lanes with equal initial images, so a 64-site fault campaign
    /// pays for one golden run and one schedule walk.
    ///
    /// `options.faults` must be empty — faults are per lane here.
    /// Lane-scoped problems (bad stimulus, fault out of range, timeout,
    /// design failure) land in that lane's [`LaneReport`]; only design-
    /// scoped problems (RTG errors, netlist rejection, feature
    /// preflight) abort the whole call.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for design-scoped problems as above.
    pub fn run_batch(
        &self,
        lanes: &[BatchLaneSpec],
        options: &FlowOptions,
    ) -> Result<BatchRunReport, FlowError> {
        let mut batch_options = options.clone();
        batch_options.engine = Engine::Batch;
        // Golden runs stream their spans; the 64-lane walk does not.
        batch_options.events = EventSink::disabled();
        preflight(&batch_options)?;
        if !options.faults.is_empty() {
            return Err(FlowError::Fault(
                "batch lane runs inject faults per lane; FlowOptions::faults must be empty"
                    .to_string(),
            ));
        }
        if lanes.is_empty() || lanes.len() > LANES {
            return Err(FlowError::Stimulus(format!(
                "batch run needs 1..={LANES} lanes, got {}",
                lanes.len()
            )));
        }
        let design = &self.design;

        // Per-lane initial images and golden runs, one golden run per
        // distinct initial image.
        let mut goldens: Vec<PreparedGolden> = Vec::new();
        let mut golden_of = Vec::with_capacity(lanes.len());
        let mut states = Vec::with_capacity(lanes.len());
        for spec in lanes {
            let golden = initial_images(design, &spec.stimuli).and_then(|initial| {
                if let Some(index) = goldens.iter().position(|g| g.initial == initial) {
                    return Ok((index, initial));
                }
                goldens.push(run_golden(design, initial.clone(), options)?);
                Ok((goldens.len() - 1, initial))
            });
            let mut lane = Lane::new(&spec.faults, BTreeMap::new());
            match golden {
                Ok((index, initial)) => {
                    lane.mems = initial;
                    golden_of.push(Some(index));
                }
                Err(e) => {
                    lane.error = Some(e);
                    golden_of.push(None);
                }
            }
            states.push(lane);
        }

        let ctx = WalkContext {
            design,
            parts: &self.parts,
            options: &batch_options,
            record: None,
        };
        let runs = walk::<BatchSim<LANES>>(&ctx, &mut states)?;
        let reports = states
            .into_iter()
            .zip(golden_of)
            .map(|(lane, golden)| {
                let live = lane.live();
                let mismatches = match golden {
                    Some(golden) if live => compare_mems(&goldens[golden].mems, &lane.mems),
                    _ => Vec::new(),
                };
                let (timed_out, flow_error) = match lane.error {
                    Some(e @ FlowError::Timeout { .. }) => (Some(e.to_string()), None),
                    error => (None, error.map(|e| e.to_string())),
                };
                LaneReport {
                    passed: live && mismatches.is_empty(),
                    failure: lane.failure,
                    timed_out,
                    flow_error,
                    mismatches,
                    sim_mems: lane.mems,
                    cycles: lane.cycles,
                }
            })
            .collect();
        Ok(BatchRunReport {
            lanes: reports,
            sim_wall_seconds: runs.iter().map(|(_, run)| run.summary.wall_seconds).sum(),
        })
    }
}

/// What one recorded walk saw ([`PreparedDesign::record_clean`]), keyed
/// by name across the configurations it executed.
#[derive(Debug, Clone, Default)]
pub struct CleanRecord {
    /// The bits each signal held, ORed over every executed configuration
    /// that has it; the width is the narrowest of them.
    signals: HashMap<String, SignalBits>,
    /// Each memory word's first access over the whole RTG walk.
    mems: HashMap<String, Vec<FirstAccess>>,
}

impl CleanRecord {
    /// The bits `signal` held, or `None` when no executed configuration
    /// has it.
    pub fn signal(&self, signal: &str) -> Option<SignalBits> {
        self.signals.get(signal).copied()
    }

    /// How the walk first touched word `addr` of `mem`
    /// ([`FirstAccess::Untouched`] when no executed configuration has
    /// that word).
    pub fn first_access(&self, mem: &str, addr: usize) -> FirstAccess {
        self.mems
            .get(mem)
            .and_then(|words| words.get(addr).copied())
            .unwrap_or(FirstAccess::Untouched)
    }

    /// Folds one configuration's record in, after those executed before
    /// it: signal bits OR together, and a word's first access stays the
    /// earliest configuration's.
    fn absorb<const W: usize>(&mut self, sim: &BatchSim<W>) {
        for (name, bits) in sim.recorded_signals() {
            self.signals
                .entry(name.to_string())
                .and_modify(|seen| {
                    seen.width = seen.width.min(bits.width);
                    seen.ever0 |= bits.ever0;
                    seen.ever1 |= bits.ever1;
                })
                .or_insert(bits);
        }
        for (name, accesses) in sim.recorded_accesses() {
            let first = self
                .mems
                .entry(name.to_string())
                .or_insert_with(|| vec![FirstAccess::Untouched; accesses.len()]);
            for (word, &access) in first.iter_mut().zip(accesses) {
                if *word == FirstAccess::Untouched {
                    *word = access;
                }
            }
        }
    }
}

/// One lane of a [`PreparedDesign::run_batch`] call: its stimuli and the
/// faults to inject into that lane only.
#[derive(Debug, Clone, Default)]
pub struct BatchLaneSpec {
    /// `(memory name, stimulus)` pairs, as in [`PreparedDesign::run`].
    pub stimuli: Vec<(String, Stimulus)>,
    /// Faults scoped to this lane (any [`FaultSpec`] class).
    pub faults: Vec<FaultSpec>,
}

/// One lane's verdict from [`PreparedDesign::run_batch`], carrying the
/// same strings a sequential [`TestReport`] / [`FlowError`] would.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// Clean completion with golden-identical memories.
    pub passed: bool,
    /// Design failure, as [`TestReport::failure`] would render it.
    pub failure: Option<String>,
    /// Tick-budget exhaustion, as [`FlowError::Timeout`] renders it.
    pub timed_out: Option<String>,
    /// Any other per-lane flow error (bad stimulus, fault out of range,
    /// golden failure, fault matching nothing), rendered via
    /// [`FlowError`]'s `Display`.
    pub flow_error: Option<String>,
    /// Final-memory divergences vs this lane's golden run.
    pub mismatches: Vec<Mismatch>,
    /// Final simulated memories (state before the failing configuration
    /// when the lane failed, like the sequential report).
    pub sim_mems: BTreeMap<String, MemImage>,
    /// Cycles executed, summed across configurations.
    pub cycles: u64,
}

/// Result of [`PreparedDesign::run_batch`]: one report per requested
/// lane, in request order.
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Per-lane verdicts.
    pub lanes: Vec<LaneReport>,
    /// Wall-clock seconds spent inside the batch engine's schedule
    /// walks, summed across configurations — comparable to a sequential
    /// run's `summary.wall_seconds` (golden execution, elaboration, and
    /// comparison are excluded on both sides).
    pub sim_wall_seconds: f64,
}

/// Runs the transform stage (XML emission, stylesheet translation,
/// netlist + FSM-table parsing) once, yielding a [`PreparedDesign`] that
/// can be simulated many times.
///
/// # Errors
///
/// Returns [`FlowError::Elaborate`] when a stylesheet or parser rejects
/// the design's artifacts.
pub fn prepare_design(design: Design) -> Result<PreparedDesign, FlowError> {
    let parts = prepare_parts(&design)?;
    Ok(PreparedDesign { design, parts })
}

/// [`PreparedDesign::prepare_golden`] over a compiled design that has
/// not been through the transform stage yet. Running the golden
/// reference *before* [`prepare_design`] keeps [`run_design`]'s error
/// precedence: a case whose stimulus or golden run fails reports that
/// error even when its transform would fail too.
///
/// # Errors
///
/// As [`PreparedDesign::prepare_golden`].
pub fn prepare_golden(
    design: &Design,
    stimuli: &[(String, Stimulus)],
    options: &FlowOptions,
) -> Result<PreparedGolden, FlowError> {
    run_golden(design, initial_images(design, stimuli)?, options)
}

/// The simulation + comparison stages for one stimulus set, shared by
/// [`run_design`] (which prepares parts inline) and
/// [`PreparedDesign`]'s runs (which reuse cached parts): one lane through
/// [`walk`], then the compare against the golden memories.
fn simulate_prepared(
    design: &Design,
    parts: &PreparedParts,
    golden: PreparedGolden,
    options: &FlowOptions,
    record: Option<&RefCell<CleanRecord>>,
) -> Result<TestReport, FlowError> {
    let ctx = WalkContext {
        design,
        parts,
        options,
        record,
    };
    let mut lanes = [Lane::new(&options.faults, golden.initial)];
    let runs = match options.engine {
        Engine::Event => walk::<EventConfig>(&ctx, &mut lanes)?,
        Engine::Cycle => walk::<CycleSim>(&ctx, &mut lanes)?,
        Engine::Level => walk::<BatchSim<1>>(&ctx, &mut lanes)?,
        Engine::Batch => walk::<BatchSim<LANES>>(&ctx, &mut lanes)?,
    };
    let [lane] = lanes;
    if let Some(e) = lane.error {
        return Err(e);
    }
    let mut config_metrics = parts.config_metrics.clone();
    for (config, run) in &runs {
        let metrics = &mut config_metrics[*config];
        metrics.cycles = run.cycles;
        metrics.events = run.summary.events;
        metrics.sim_seconds = run.summary.wall_seconds;
    }

    // Comparison of data content.
    let stage = Stage::start(options, "flow.compare");
    let mismatches = match lane.failure {
        None => compare_mems(&golden.mems, &lane.mems),
        Some(_) => Vec::new(),
    };
    stage.attr("mismatches", mismatches.len());
    stage.end();

    let artifacts = if options.keep_artifacts {
        Some(render_artifacts(parts)?)
    } else {
        None
    };
    Ok(TestReport {
        design: design.name.clone(),
        passed: lane.failure.is_none() && mismatches.is_empty(),
        failure: lane.failure,
        mismatches,
        golden: golden.stats,
        runs: runs.into_iter().map(|(_, run)| run).collect(),
        metrics: DesignMetrics {
            design: design.name.clone(),
            lo_java: design.source_lines,
            configs: config_metrics,
            golden_seconds: golden.seconds,
        },
        artifacts,
        sim_mems: lane.mems,
        golden_mems: golden.mems,
        // Every engine expresses every fault class; the skip channel
        // stays for future inexpressible classes and for report parity.
        fault_skips: Vec::new(),
    })
}

/// Word-level disagreements between golden and simulated memories.
fn compare_mems(
    golden: &BTreeMap<String, MemImage>,
    sim: &BTreeMap<String, MemImage>,
) -> Vec<Mismatch> {
    golden
        .iter()
        .flat_map(|(name, image)| diff_images(name, image, &sim[name]))
        .collect()
}

/// What every step of a [`walk`] reads.
struct WalkContext<'a> {
    design: &'a Design,
    parts: &'a PreparedParts,
    options: &'a FlowOptions,
    /// Where a recording bytecode walk folds each configuration's
    /// record ([`PreparedDesign::record_clean`]).
    record: Option<&'a RefCell<CleanRecord>>,
}

/// One lane's state across a [`walk`]: its faults, the SRAM contents it
/// carries between configurations, and what stopped it.
#[derive(Default)]
struct Lane<'a> {
    faults: &'a [FaultSpec],
    /// Which of `faults` landed somewhere so far.
    applied: Vec<bool>,
    mems: BTreeMap<String, MemImage>,
    /// Cycles executed, summed across configurations.
    cycles: u64,
    /// A design failure, as [`TestReport::failure`] renders it.
    failure: Option<String>,
    /// A lane-scoped flow error: bad stimulus or fault, golden failure,
    /// or the tick watchdog.
    error: Option<FlowError>,
}

impl<'a> Lane<'a> {
    fn new(faults: &'a [FaultSpec], mems: BTreeMap<String, MemImage>) -> Self {
        Lane {
            faults,
            applied: vec![false; faults.len()],
            mems,
            ..Lane::default()
        }
    }

    /// Whether the lane is still simulating.
    fn live(&self) -> bool {
        self.failure.is_none() && self.error.is_none()
    }
}

/// Each live lane's cycles and outcome from one configuration, indexed by
/// lane (`None` for lanes that did not run).
type LaneRuns = Vec<Option<(u64, RunOutcome)>>;

/// A simulation engine as [`walk`] drives it through the RTG: build a
/// configuration, preload and snapshot a lane's SRAMs, inject a fault
/// into a lane, run the live lanes, and describe the finished
/// configuration. A lane is one independent stimulus and fault set; the
/// event and cycle engines simulate one, the compiled bytecode as many
/// as its width (one for level, [`LANES`] for batch) in one schedule
/// walk. Span attributes go to the span the walk has open on
/// [`FlowOptions::spans`].
trait LaneEngine: Sized {
    /// Builds configuration `config` with the run's observers (VCD trace,
    /// probes) attached.
    fn build(ctx: &WalkContext, config: usize) -> Result<Self, FlowError>;

    /// Preloads the defined words of `image` into `lane`'s SRAM `mem`.
    fn load(&mut self, lane: usize, mem: &str, image: &[Option<i64>]);

    /// `lane`'s contents of SRAM `mem`.
    fn snapshot(&self, lane: usize, mem: &str) -> MemImage;

    /// Injects the `index`th fault of `lane`'s list; `Ok(false)` when the
    /// configuration has no such signal. SRAM corruption never lands
    /// here: [`walk`] edits the initial images instead.
    fn inject(&mut self, lane: usize, index: usize, fault: &FaultSpec) -> Result<bool, FlowError>;

    /// Runs the lanes in the `live` mask under the tick watchdog. Returns
    /// each live lane's result and the configuration's report entry
    /// `name`, which describes the lowest live lane.
    fn simulate(
        &mut self,
        ctx: &WalkContext,
        live: u64,
        name: &str,
    ) -> Result<(LaneRuns, ConfigRun), FlowError>;
}

/// Simulates every configuration in RTG order on engine `E`, all live
/// lanes together, carrying each lane's SRAM contents across
/// reconfigurations. Lane-scoped problems stop only that lane and land in
/// its [`Lane`]; design-scoped ones (RTG, netlist, kernel and probe
/// errors) abort the walk. Returns each executed configuration's index
/// and report entry.
fn walk<E: LaneEngine>(
    ctx: &WalkContext,
    lanes: &mut [Lane],
) -> Result<Vec<(usize, ConfigRun)>, FlowError> {
    let design = ctx.design;
    // SRAM corruption edits the initial images once, before the first
    // configuration preloads them (the flipped word must not re-flip at
    // later reconfigurations).
    for lane in lanes.iter_mut().filter(|lane| lane.live()) {
        for (i, fault) in lane.faults.iter().enumerate() {
            let FaultSpec::SramCorrupt { mem, addr, bit } = fault else {
                continue;
            };
            let Some(image) = lane.mems.get_mut(mem) else {
                continue;
            };
            if *addr >= image.len() || *bit >= design.width {
                lane.error = Some(FlowError::Fault(format!(
                    "{fault}: address or bit out of range for '{mem}' ({} words of width {})",
                    image.len(),
                    design.width
                )));
                break;
            }
            image[*addr] = Some(image[*addr].unwrap_or(0) ^ (1i64 << bit));
            lane.applied[i] = true;
        }
    }

    let order = design
        .rtg
        .execution_order()
        .map_err(|e| FlowError::Rtg(e.to_string()))?;
    let mut runs = Vec::new();
    for node in order {
        if !lanes.iter().any(Lane::live) {
            break;
        }
        let config = design
            .configs
            .iter()
            .position(|c| c.datapath.name == node.datapath)
            .ok_or_else(|| FlowError::Rtg(format!("unknown datapath '{}'", node.datapath)))?;
        let name = &ctx.parts.docs[config].0;
        let netlist = &ctx.parts.configs[config].netlist;

        let stage = Stage::start(ctx.options, "flow.elaborate");
        stage.attr("config", name.as_str());
        let mut engine = E::build(ctx, config)?;
        stage.end();

        // Preload SRAM contents. A size disagreement between the design's
        // memory map and the netlist is itself a compiler bug worth
        // reporting as a failing verdict. (Building the engine validated
        // every size parameter.)
        let srams: Vec<(&str, usize)> = netlist
            .instances()
            .iter()
            .filter(|i| i.kind == "sram")
            .map(|i| {
                (
                    i.name.as_str(),
                    i.param("size").and_then(|s| s.parse().ok()).unwrap_or(0),
                )
            })
            .collect();
        for &(mem, size) in &srams {
            for (l, lane) in lanes.iter_mut().enumerate().filter(|(_, lane)| lane.live()) {
                match lane.mems.get(mem) {
                    None => {
                        let missing = format!("memory '{mem}' missing from design");
                        lane.error = Some(FlowError::Stimulus(missing));
                    }
                    Some(image) if image.len() != size => {
                        lane.failure = Some(format!(
                            "configuration '{name}': memory '{mem}' has {size} words in the netlist but {} in the design",
                            image.len()
                        ));
                    }
                    Some(image) => engine.load(l, mem, image),
                }
            }
        }

        // A signal may exist in several configurations; the fault lands
        // in all of them, like a real manufacturing defect would.
        for (l, lane) in lanes.iter_mut().enumerate().filter(|(_, lane)| lane.live()) {
            for (i, fault) in lane.faults.iter().enumerate() {
                match engine.inject(l, i, fault) {
                    Ok(injected) => lane.applied[i] |= injected,
                    Err(e) => {
                        lane.error = Some(e);
                        break;
                    }
                }
            }
        }
        let live = (0..lanes.len())
            .filter(|&l| lanes[l].live())
            .fold(0u64, |mask, l| mask | 1 << l);
        if live == 0 {
            break;
        }

        let stage = Stage::start(ctx.options, format_args!("flow.simulate.{name}"));
        let (results, run) = engine.simulate(ctx, live, name)?;
        stage.end();
        for (l, (lane, result)) in lanes.iter_mut().zip(results).enumerate() {
            let Some((cycles, outcome)) = result else {
                continue;
            };
            lane.cycles += cycles;
            match outcome {
                // Write back memory contents for the next configuration.
                RunOutcome::Stopped(_) => {
                    for &(mem, _) in &srams {
                        lane.mems.insert(mem.to_string(), engine.snapshot(l, mem));
                    }
                }
                RunOutcome::Failed(message) => {
                    lane.failure = Some(format!("configuration '{name}': {message}"));
                }
                RunOutcome::QueueEmpty => {
                    lane.failure = Some(format!(
                        "configuration '{name}': simulation went quiet before done"
                    ));
                }
                RunOutcome::TimeLimit => {
                    lane.error = Some(FlowError::Timeout {
                        config: name.clone(),
                        max_ticks: ctx.options.max_ticks,
                    });
                }
            }
        }
        runs.push((config, run));
    }

    // A fault that matched nothing anywhere is a campaign bug, not a
    // verdict — but only when every configuration actually ran (an early
    // failure may have skipped the configuration hosting the target).
    for lane in lanes.iter_mut().filter(|lane| lane.live()) {
        if let Some(i) = lane.applied.iter().position(|applied| !applied) {
            lane.error = Some(FlowError::Fault(format!(
                "'{}' matched no signal or memory in any executed configuration",
                lane.faults[i]
            )));
        }
    }
    Ok(runs)
}

/// The event kernel's built configuration: the elaborated simulator, its
/// control unit's coverage handle and the probes attached to it.
struct EventConfig {
    config: usize,
    cs: ConfigSim,
    coverage: Option<FsmCoverageHandle>,
    probes: Vec<(String, eventsim::probe::ProbeHandle)>,
}

impl LaneEngine for EventConfig {
    fn build(ctx: &WalkContext, config: usize) -> Result<Self, FlowError> {
        let name = &ctx.parts.docs[config].0;
        let coverage = ctx.options.coverage.then(FsmCoverageHandle::new);
        let mut cs = ctx.parts.configs[config].build(true, coverage.clone())?;
        let spans = &ctx.options.spans;
        spans.attr_open("signals", cs.sim.signal_count());
        spans.attr_open("components", cs.sim.component_count());
        if ctx.options.trace {
            cs.sim.trace_signal(cs.clk);
            cs.sim.trace_signal(cs.done);
        }
        let mut probes = Vec::new();
        for probe in &ctx.options.probes {
            let signal = cs.sim.find_signal(probe).ok_or_else(|| FlowError::Probe {
                config: name.clone(),
                signal: probe.clone(),
            })?;
            let handle = eventsim::probe::ProbeHandle::new();
            cs.sim.add_component(eventsim::probe::Probe::new(
                format!("probe_{probe}"),
                signal,
                handle.clone(),
            ));
            probes.push((probe.clone(), handle));
        }
        Ok(EventConfig {
            config,
            cs,
            coverage,
            probes,
        })
    }

    fn load(&mut self, _lane: usize, mem: &str, image: &[Option<i64>]) {
        store_image(&self.cs.mems[mem], image);
    }

    fn snapshot(&self, _lane: usize, mem: &str) -> MemImage {
        self.cs.mems[mem].snapshot()
    }

    /// Faults are ordinary kernel components; with none requested nothing
    /// is added and the event schedule (and every kernel counter) is
    /// bit-identical to a clean run.
    fn inject(&mut self, _lane: usize, index: usize, fault: &FaultSpec) -> Result<bool, FlowError> {
        let (signal, bit) = match fault {
            FaultSpec::StuckAt { signal, bit, .. }
            | FaultSpec::BitFlip { signal, bit, .. }
            | FaultSpec::SeuReg { signal, bit, .. } => (signal, *bit),
            FaultSpec::SramCorrupt { .. } => return Ok(false),
        };
        let sim = &mut self.cs.sim;
        let Some(id) = sim.find_signal(signal) else {
            return Ok(false);
        };
        let width = sim.signal_width(id);
        if bit >= width {
            let message = format!("{fault}: bit {bit} out of range for width {width}");
            return Err(FlowError::Fault(message));
        }
        let name = format!("fault{index}");
        match *fault {
            FaultSpec::StuckAt { value, .. } => {
                sim.add_component(eventsim::faults::StuckAtClamp::new(name, id, bit, value));
            }
            FaultSpec::BitFlip { cycle, .. } | FaultSpec::SeuReg { cycle, .. } => {
                // Rising edges land at period/2 + N*period; the flip fires
                // one tick earlier so edge-sampled logic observes the
                // upset value.
                let at = (CLOCK_PERIOD / 2 + cycle * CLOCK_PERIOD).saturating_sub(1);
                sim.add_component(eventsim::faults::TransientFlip::new(name, id, bit, at));
            }
            FaultSpec::SramCorrupt { .. } => {}
        }
        Ok(true)
    }

    fn simulate(
        &mut self,
        ctx: &WalkContext,
        _live: u64,
        name: &str,
    ) -> Result<(LaneRuns, ConfigRun), FlowError> {
        let options = ctx.options;
        let cs = &mut self.cs;
        // The profiler hook is only installed on request; without it the
        // kernel's timing branch stays a single cached bool per run.
        let eval_profile = options.profile.then(|| {
            let (timer, handle) = eventsim::profile::EvalTimer::new();
            cs.sim.set_hook(Box::new(timer));
            handle
        });
        let summary = cs.sim.run(SimTime(options.max_ticks))?;
        options.spans.attr_open("events", summary.events);
        options.spans.attr_open("delta_cycles", summary.delta_cycles);
        options.spans.attr_open("end_time", summary.end_time.ticks());

        let sim = &cs.sim;
        let cycles = summary.end_time.ticks() / CLOCK_PERIOD;
        let kind_of = || fu_kinds(&ctx.design.configs[self.config].datapath);
        let coverage = self.coverage.as_ref().map(|handle| {
            let fsm_cov = handle.snapshot();
            let states = ctx.parts.configs[self.config].table.states();
            let visited_states = states
                .iter()
                .enumerate()
                .filter(|(i, _)| fsm_cov.state_visits.get(*i).copied().unwrap_or(0) > 0)
                .map(|(_, state)| state.name.clone())
                .collect();
            // Sum kernel activations per functional-unit kind; kinds
            // instantiated but never reacted stay at 0 so callers can see
            // unexercised hardware.
            let kind_of = kind_of();
            let mut operator_activations: BTreeMap<String, u64> =
                kind_of.values().map(|kind| (kind.to_string(), 0)).collect();
            for (id, count) in sim.hot_components(usize::MAX) {
                if let Some(kind) = kind_of.get(sim.component_name(id)) {
                    *operator_activations.entry(kind.to_string()).or_insert(0) += count;
                }
            }
            ConfigCoverage {
                visited_states,
                state_total: states.len(),
                transitions_taken: fsm_cov.transitions_taken(),
                transition_total: states.iter().map(|s| s.transitions.len()).sum(),
                operator_activations,
            }
        });
        // Fold per-component evaluation timing into per-class totals:
        // functional units report under their datapath kind, everything
        // else under its name with trailing instance digits stripped.
        let profile = eval_profile.map(|handle| {
            let kind_of = kind_of();
            let timings = handle
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let mut by_class: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for (index, (evals, nanos)) in timings.components.iter().enumerate() {
                if *evals == 0 {
                    continue;
                }
                let name = sim.component_name(eventsim::ComponentId::from_index(index));
                let class = kind_of
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| component_class(name));
                let slot = by_class.entry(class.to_string()).or_insert((0, 0));
                slot.0 += evals;
                slot.1 += nanos;
            }
            let mut classes: Vec<ClassProfile> = by_class
                .into_iter()
                .map(|(class, (evals, nanos))| ClassProfile { class, evals, nanos })
                .collect();
            classes.sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.class.cmp(&b.class)));
            ConfigProfile {
                classes,
                ..ConfigProfile::default()
            }
        });
        let probes = std::mem::take(&mut self.probes)
            .into_iter()
            .map(|(name, handle)| {
                let history = handle
                    .history()
                    .into_iter()
                    .map(|(time, value)| (time.ticks(), value.try_i64()))
                    .collect();
                (name, history)
            })
            .collect();
        let results = vec![Some((cycles, summary.outcome.clone()))];
        let run = ConfigRun {
            name: name.to_string(),
            summary,
            kernel: sim.stats(),
            hot_components: sim
                .hot_components(HOT_COMPONENT_LIMIT)
                .into_iter()
                .map(|(id, count)| (sim.component_name(id).to_string(), count))
                .collect(),
            activations: sim.activation_counts().iter().sum(),
            cycles,
            vcd: options.trace.then(|| eventsim::vcd::render(sim, name)),
            probes,
            coverage,
            profile,
        };
        Ok((results, run))
    }
}

/// Functional-unit cells of a datapath, name → kind.
fn fu_kinds(datapath: &nenya::datapath::Datapath) -> BTreeMap<&str, &str> {
    datapath
        .cells
        .iter()
        .filter(|c| FU_KINDS.contains(&c.kind.as_str()))
        .map(|c| (c.name.as_str(), c.kind.as_str()))
        .collect()
}

/// Stores the defined words of `image` through a memory handle.
fn store_image(handle: &MemHandle, image: &[Option<i64>]) {
    for (addr, word) in image.iter().enumerate() {
        if let Some(v) = word {
            handle.store(addr, *v);
        }
    }
}

/// A netlist the compiled engines reject, as the flow reports it.
fn netlist_error(e: CycleSimError) -> FlowError {
    FlowError::Elaborate(ElaborateConfigError::Netlist(e.to_string()))
}

/// A compiled engine's report entry. These engines keep no event
/// counters: combinational evaluations stand in for `evals`, and the end
/// time is the cycle count in kernel ticks.
fn compiled_run(
    name: &str,
    (cycles, outcome): (u64, RunOutcome),
    comb_evals: u64,
    wall_seconds: f64,
    profile: Option<ConfigProfile>,
) -> ConfigRun {
    ConfigRun {
        name: name.to_string(),
        summary: eventsim::RunSummary {
            outcome,
            end_time: SimTime(cycles * CLOCK_PERIOD),
            events: 0,
            updates: 0,
            evals: comb_evals,
            delta_cycles: 0,
            max_queue_depth: 0,
            wall_seconds,
        },
        kernel: KernelStats {
            evals: comb_evals,
            ..KernelStats::default()
        },
        hot_components: Vec::new(),
        activations: 0,
        cycles,
        vcd: None,
        probes: BTreeMap::new(),
        coverage: None,
        profile,
    }
}

impl LaneEngine for CycleSim {
    fn build(ctx: &WalkContext, config: usize) -> Result<Self, FlowError> {
        let parts = &ctx.parts.configs[config];
        let mut sim = CycleSim::from_netlist(&parts.netlist).map_err(netlist_error)?;
        parts.attach(|n, c, o, t| sim.add_control_unit(n, c, o, t))?;
        if ctx.options.profile {
            sim.enable_profile();
        }
        ctx.options.spans.attr_open("engine", "cycle");
        Ok(sim)
    }

    fn load(&mut self, _lane: usize, mem: &str, image: &[Option<i64>]) {
        store_image(self.mem(mem).expect("sram instances have handles"), image);
    }

    fn snapshot(&self, _lane: usize, mem: &str) -> MemImage {
        self.mem(mem)
            .expect("sram instances have handles")
            .snapshot()
    }

    fn inject(
        &mut self,
        _lane: usize,
        _index: usize,
        fault: &FaultSpec,
    ) -> Result<bool, FlowError> {
        match fault {
            FaultSpec::StuckAt { signal, bit, value } => self.inject_stuck_at(signal, *bit, *value),
            FaultSpec::BitFlip { signal, bit, cycle }
            | FaultSpec::SeuReg { signal, bit, cycle } => {
                self.inject_transient_flip(signal, *bit, *cycle)
            }
            FaultSpec::SramCorrupt { .. } => Ok(false),
        }
        .map_err(|e| FlowError::Fault(format!("{fault}: {e}")))
    }

    fn simulate(
        &mut self,
        ctx: &WalkContext,
        _live: u64,
        name: &str,
    ) -> Result<(LaneRuns, ConfigRun), FlowError> {
        let started = Instant::now();
        let result = self.run(ctx.options.max_ticks / CLOCK_PERIOD);
        let wall_seconds = started.elapsed().as_secs_f64();
        let outcome = match result {
            Ok(summary) => cycle_outcome(summary.outcome),
            Err(e @ (CycleSimError::Failed(_) | CycleSimError::NoFixpoint { .. })) => {
                RunOutcome::Failed(e.to_string())
            }
            // Build/CombinationalCycle cannot occur after construction.
            Err(e) => return Err(netlist_error(e)),
        };
        let result = (self.cycles(), outcome);
        ctx.options.spans.attr_open("cycles", result.0);
        ctx.options.spans.attr_open("comb_evals", self.comb_evals());
        let profile = ctx.options.profile.then(|| cycle_profile(self));
        let run = compiled_run(
            name,
            result.clone(),
            self.comb_evals(),
            wall_seconds,
            profile,
        );
        Ok((vec![Some(result)], run))
    }
}

/// A compiled engine's termination as the event kernel's [`RunOutcome`].
fn cycle_outcome(outcome: CycleOutcome) -> RunOutcome {
    match outcome {
        CycleOutcome::Done => RunOutcome::Stopped("control unit done".into()),
        CycleOutcome::Watchpoint(name) => RunOutcome::Stopped(format!("watchpoint '{name}'")),
        CycleOutcome::CycleLimit => RunOutcome::TimeLimit,
    }
}

/// The cycle engine's per-phase profile.
fn cycle_profile(sim: &CycleSim) -> ConfigProfile {
    let phases = sim
        .profile()
        .map(|p| {
            vec![
                PhaseProfile {
                    phase: "settle".to_string(),
                    nanos: p.settle_nanos,
                },
                PhaseProfile {
                    phase: "commit".to_string(),
                    nanos: p.commit_nanos,
                },
            ]
        })
        .unwrap_or_default();
    ConfigProfile {
        phases,
        ..ConfigProfile::default()
    }
}

/// The compiled engine's per-rank profile.
fn rank_profile<const W: usize>(sim: &BatchSim<W>) -> ConfigProfile {
    let ranks = sim
        .profile()
        .map(|p| {
            p.ranks
                .iter()
                .enumerate()
                .map(|(rank, row)| RankProfile {
                    rank,
                    size: p.rank_sizes[rank],
                    evals: row.evals,
                    changes: row.changes,
                    nanos: row.nanos,
                    hit_rate: p.hit_rate(rank),
                })
                .collect()
        })
        .unwrap_or_default();
    ConfigProfile {
        ranks,
        ..ConfigProfile::default()
    }
}

/// The compiled bytecode, one lane wide for `--engine level` and
/// [`LANES`] wide for `--engine batch` and [`PreparedDesign::run_batch`].
/// Every walk instantiates the configuration's one shared program
/// ([`ConfigParts::program`]).
impl<const W: usize> LaneEngine for BatchSim<W> {
    fn build(ctx: &WalkContext, config: usize) -> Result<Self, FlowError> {
        let mut sim = Self::new(ctx.parts.configs[config].program()?);
        if ctx.options.profile {
            sim.enable_profile();
        }
        ctx.options.spans.attr_open("engine", ctx.options.engine.to_string());
        Ok(sim)
    }

    fn load(&mut self, lane: usize, mem: &str, image: &[Option<i64>]) {
        self.load_mem(mem, lane, image);
    }

    fn snapshot(&self, lane: usize, mem: &str) -> MemImage {
        self.snapshot_mem(mem, lane)
            .expect("sram instances have handles")
    }

    fn inject(&mut self, lane: usize, _index: usize, fault: &FaultSpec) -> Result<bool, FlowError> {
        match fault {
            FaultSpec::StuckAt { signal, bit, value } => {
                self.inject_stuck_at_lane(signal, *bit, *value, lane)
            }
            FaultSpec::BitFlip { signal, bit, cycle }
            | FaultSpec::SeuReg { signal, bit, cycle } => {
                self.inject_transient_flip_lane(signal, *bit, *cycle, lane)
            }
            FaultSpec::SramCorrupt { .. } => Ok(false),
        }
        .map_err(|e| FlowError::Fault(format!("{fault}: {e}")))
    }

    fn simulate(
        &mut self,
        ctx: &WalkContext,
        live: u64,
        name: &str,
    ) -> Result<(LaneRuns, ConfigRun), FlowError> {
        self.set_active(live);
        if ctx.record.is_some() {
            self.enable_record();
        }
        let started = Instant::now();
        let summary = self.run_batch(ctx.options.max_ticks / CLOCK_PERIOD);
        let wall_seconds = started.elapsed().as_secs_f64();
        if let Some(record) = ctx.record {
            record.borrow_mut().absorb(self);
        }
        let results: LaneRuns = summary
            .lanes
            .into_iter()
            .map(|lane| {
                let lane = lane?;
                let outcome = match lane.outcome {
                    LaneOutcome::Done => cycle_outcome(CycleOutcome::Done),
                    LaneOutcome::Watchpoint(name) => cycle_outcome(CycleOutcome::Watchpoint(name)),
                    LaneOutcome::CycleLimit => RunOutcome::TimeLimit,
                    LaneOutcome::Failed(m) => {
                        RunOutcome::Failed(CycleSimError::Failed(m).to_string())
                    }
                };
                Some((lane.cycles, outcome))
            })
            .collect();
        let first = results.iter().flatten().next().cloned();
        let first = first.expect("the walk runs a live lane");
        ctx.options.spans.attr_open("cycles", first.0);
        ctx.options.spans.attr_open("comb_evals", self.comb_evals());
        let profile = ctx.options.profile.then(|| rank_profile(self));
        let run = compiled_run(name, first, self.comb_evals(), wall_seconds, profile);
        Ok((results, run))
    }
}

/// Profile class for components without a datapath kind: the instance
/// name with trailing digits stripped ("mux3" → "mux", "img" → "img").
fn component_class(name: &str) -> &str {
    let stripped = name.trim_end_matches(|c: char| c.is_ascii_digit());
    if stripped.is_empty() {
        name
    } else {
        stripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::batchsim::BatchProgram;
    use std::sync::Arc;

    #[test]
    fn simple_flow_passes() {
        let report = TestFlow::new(
            "sum",
            "mem inp[4]; mem out[1];
             void main() { int s = 0; int i; for (i = 0; i < 4; i = i + 1) { s = s + inp[i]; } out[0] = s; }",
        )
        .stimulus("inp", Stimulus::from_values([10, 20, 30, 40]))
        .run()
        .unwrap();
        assert!(report.passed, "{}", report.render());
        assert_eq!(report.sim_mems["out"][0], Some(100));
        assert_eq!(report.golden_mems["out"][0], Some(100));
        assert!(report.runs[0].cycles > 0);
        assert!(report.metrics.configs[0].operators > 0);
        assert!(report.artifacts.is_some());
    }

    #[test]
    fn partitioned_flow_passes() {
        let report = TestFlow::new(
            "twophase",
            "mem a[8]; mem b[8];
             void main() {
                 int i;
                 for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; }
                 int j;
                 for (j = 0; j < 8; j = j + 1) { b[j] = a[j] + 1; }
             }",
        )
        .with_partitions(2)
        .run()
        .unwrap();
        assert!(report.passed, "{}", report.render());
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.sim_mems["b"][7], Some(22));
    }

    #[test]
    fn golden_failure_is_a_flow_error() {
        let err = TestFlow::new("bad", "mem out[1]; void main() { int z = 0; out[0] = 1 / z; }")
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::Golden(_)), "{err}");
    }

    #[test]
    fn unknown_stimulus_memory_rejected() {
        let err = TestFlow::new("s", "mem out[1]; void main() { out[0] = 1; }")
            .stimulus("nope", Stimulus::from_values([1]))
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::Stimulus(_)));
    }

    #[test]
    fn tracing_produces_vcd() {
        let report = TestFlow::new("t", "mem out[1]; void main() { out[0] = 5; }")
            .with_trace(true)
            .run()
            .unwrap();
        let vcd = report.runs[0].vcd.as_ref().unwrap();
        assert!(vcd.contains("$var wire 1"));
    }

    #[test]
    fn probes_record_signal_histories() {
        let report = TestFlow::new(
            "p",
            "mem out[4]; void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = i; } }",
        )
        .probe("done")
        .probe("out_we")
        .run()
        .unwrap();
        let probes = &report.runs[0].probes;
        // done goes 0 then 1 at the end.
        let done = &probes["done"];
        assert_eq!(done.first().map(|(_, v)| *v), Some(Some(0)));
        assert_eq!(done.last().map(|(_, v)| *v), Some(Some(-1))); // 1-bit true
        // The write enable pulsed once per store.
        let we_rises = probes["out_we"]
            .iter()
            .filter(|(_, v)| *v == Some(-1))
            .count();
        assert_eq!(we_rises, 4);
    }

    #[test]
    fn wiring_many_probes_does_not_rescan() {
        // Each probe resolves its signal through the simulator's name
        // index (O(1)); the wiring loop is linear in the number of
        // probes. 512 probes over this design complete in well under a
        // second — the historical per-probe linear scan made this loop
        // quadratic in generated designs with many probes.
        let mut flow = TestFlow::new(
            "p",
            "mem out[4]; void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = i; } }",
        );
        for _ in 0..256 {
            flow = flow.probe("done").probe("out_we");
        }
        let started = std::time::Instant::now();
        let report = flow.run().unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "probe wiring took {:?}",
            started.elapsed()
        );
        let probes = &report.runs[0].probes;
        assert_eq!(probes["done"].last().map(|(_, v)| *v), Some(Some(-1)));
        assert_eq!(
            probes["out_we"].iter().filter(|(_, v)| *v == Some(-1)).count(),
            4
        );
    }

    #[test]
    fn unknown_probe_signal_is_an_error() {
        let err = TestFlow::new("p", "mem out[1]; void main() { out[0] = 1; }")
            .probe("no_such_signal")
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::Probe { .. }), "{err}");
    }

    #[test]
    fn coverage_reports_states_and_operators() {
        let report = TestFlow::new(
            "cov",
            "mem out[4]; void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = i + 7; } }",
        )
        .with_coverage(true)
        .run()
        .unwrap();
        let cov = report.runs[0].coverage.as_ref().expect("coverage collected");
        // A straight-line run visits every state and takes every transition
        // at least once, except possibly untaken conditional arms.
        assert!(cov.state_total > 0);
        assert_eq!(cov.visited_states.len(), cov.state_total);
        assert!(cov.transitions_taken > 0);
        assert!(cov.transitions_taken <= cov.transition_total);
        // The loop exercises an adder and a comparator.
        assert!(cov.operator_activations.get("add").copied().unwrap_or(0) > 0);
        assert!(cov.operator_activations.get("lt").copied().unwrap_or(0) > 0);
        // Without the option, no coverage is collected.
        let plain = TestFlow::new("nc", "mem out[1]; void main() { out[0] = 1; }")
            .run()
            .unwrap();
        assert!(plain.runs[0].coverage.is_none());
    }

    #[test]
    fn all_engines_agree_on_final_memories() {
        let source = "mem inp[8]; mem out[8];
             void main() { int i; for (i = 0; i < 8; i = i + 1) { out[i] = inp[i] * 3 - 1; } }";
        let stim = Stimulus::from_values([5, 4, 3, 2, 1, 0, -1, -2]);
        let mut reports = Vec::new();
        for engine in Engine::ALL {
            let report = TestFlow::new("tri", source)
                .with_engine(engine)
                .stimulus("inp", stim.clone())
                .run()
                .unwrap();
            assert!(report.passed, "engine {engine}: {}", report.render());
            reports.push((engine, report));
        }
        let (_, reference) = &reports[0];
        for (engine, report) in &reports[1..] {
            assert_eq!(
                report.sim_mems, reference.sim_mems,
                "engine {engine} disagrees with the event kernel"
            );
            // The compiled engines count the cycle-0 reset step; the event
            // path derives cycles from the stop time. At most one apart.
            assert!(
                report.runs[0].cycles.abs_diff(reference.runs[0].cycles) <= 1,
                "engine {engine} cycles {} vs event {}",
                report.runs[0].cycles,
                reference.runs[0].cycles
            );
        }
    }

    #[test]
    fn compiled_engines_work_across_reconfigurations() {
        for engine in [Engine::Cycle, Engine::Level] {
            let report = TestFlow::new(
                "twophase",
                "mem a[8]; mem b[8];
                 void main() {
                     int i;
                     for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; }
                     int j;
                     for (j = 0; j < 8; j = j + 1) { b[j] = a[j] + 1; }
                 }",
            )
            .with_partitions(2)
            .with_engine(engine)
            .run()
            .unwrap();
            assert!(report.passed, "engine {engine}: {}", report.render());
            assert_eq!(report.runs.len(), 2);
            assert_eq!(report.sim_mems["b"][7], Some(22));
        }
    }

    #[test]
    fn compiled_engines_reject_observability_features() {
        let base = || TestFlow::new("e", "mem out[1]; void main() { out[0] = 1; }");
        for engine in [Engine::Cycle, Engine::Level] {
            for flow in [
                base().with_engine(engine).with_trace(true),
                base().with_engine(engine).probe("done"),
                base().with_engine(engine).with_coverage(true),
            ] {
                let err = flow.run().unwrap_err();
                assert!(matches!(err, FlowError::Engine { .. }), "{err}");
            }
        }
    }

    #[test]
    fn engine_parses_and_displays() {
        for engine in Engine::ALL {
            assert_eq!(engine.to_string().parse::<Engine>().unwrap(), engine);
        }
        assert!("verilator".parse::<Engine>().is_err());
    }

    #[test]
    fn report_renders() {
        let report = TestFlow::new("r", "mem out[1]; void main() { out[0] = 1; }")
            .run()
            .unwrap();
        let text = report.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("config"));
    }

    #[test]
    fn both_policies_pass_the_same_program() {
        for policy in [SchedulePolicy::OneOpPerState, SchedulePolicy::List] {
            let report = TestFlow::new(
                "p",
                "mem out[4]; void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = i + 7; } }",
            )
            .with_policy(policy)
            .run()
            .unwrap();
            assert!(report.passed, "policy {policy}: {}", report.render());
        }
    }

    #[test]
    fn uninitialized_input_matches_on_both_sides() {
        // Program copies an uninitialized word: both golden and simulation
        // fail identically (store of X) — so the flow reports the golden
        // failure as a test-case error.
        let err = TestFlow::new("x", "mem a[2]; mem out[2]; void main() { out[0] = a[0]; }")
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::Golden(_)));
    }

    /// A two-configuration design with an input memory, prepared, and
    /// the stimuli that make it pass.
    fn prepared_pipeline() -> (PreparedDesign, Vec<(String, Stimulus)>) {
        let source = "mem inp[4]; mem mid[4]; mem out[4];
             void main() {
                 int i;
                 for (i = 0; i < 4; i = i + 1) { mid[i] = inp[i] * 3; }
                 int j;
                 for (j = 0; j < 4; j = j + 1) { out[j] = mid[j] + 1; }
             }";
        let options = CompileOptions {
            partitions: 2,
            ..CompileOptions::default()
        };
        let design = nenya::compile("pipe", source, &options).unwrap();
        let stimuli = vec![("inp".to_string(), Stimulus::from_values([1, 2, 3, 4]))];
        (prepare_design(design).unwrap(), stimuli)
    }

    /// Level runs, batch runs, `run_batch` and `record_clean` on one
    /// prepared design all walk one program per configuration, compiled
    /// by the first of them; event runs compile none.
    #[test]
    fn compiled_walks_share_one_program_per_configuration() {
        let (prepared, stimuli) = prepared_pipeline();
        let configs = &prepared.parts.configs;
        assert_eq!(configs.len(), 2);
        let event = FlowOptions::default();
        assert!(prepared.run(&stimuli, &event).unwrap().passed);
        assert!(
            configs.iter().all(|c| c.built_program().is_none()),
            "an event run compiles no bytecode"
        );

        let level = FlowOptions {
            engine: Engine::Level,
            ..FlowOptions::default()
        };
        assert!(prepared.run(&stimuli, &level).unwrap().passed);
        let programs: Vec<Arc<BatchProgram>> = configs
            .iter()
            .map(|c| c.built_program().expect("the level run compiled it").clone())
            .collect();

        let batch = FlowOptions {
            engine: Engine::Batch,
            ..FlowOptions::default()
        };
        assert!(prepared.run(&stimuli, &batch).unwrap().passed);
        let golden = prepared.prepare_golden(&stimuli, &event).unwrap();
        assert!(prepared.record_clean(&golden, &event).unwrap().0.passed);
        let lane = BatchLaneSpec {
            stimuli: stimuli.clone(),
            faults: Vec::new(),
        };
        assert!(prepared.run_batch(&[lane], &event).unwrap().lanes[0].passed);

        let record = RefCell::new(CleanRecord::default());
        for (config, program) in programs.iter().enumerate() {
            let cached = configs[config].built_program().expect("still cached");
            assert!(Arc::ptr_eq(cached, program), "config {config} compiled twice");
            for (options, record) in [(&level, None), (&batch, None), (&level, Some(&record))] {
                let ctx = WalkContext {
                    design: &prepared.design,
                    parts: &prepared.parts,
                    options,
                    record,
                };
                let one = <BatchSim<1> as LaneEngine>::build(&ctx, config).unwrap();
                let wide =
                    <BatchSim<LANES> as LaneEngine>::build(&ctx, config).unwrap();
                assert!(Arc::ptr_eq(one.program(), program));
                assert!(Arc::ptr_eq(wide.program(), program));
            }
        }
    }

    /// A netlist the bytecode cannot compile fails level and batch runs
    /// with the cycle engine's `FlowError::Elaborate` text, every time,
    /// while event runs of it still pass.
    #[test]
    fn a_netlist_the_bytecode_rejects_fails_level_and_batch_runs() {
        let (mut prepared, stimuli) = prepared_pipeline();
        let netlist = &mut prepared.parts.configs[1].netlist;
        let clock = netlist
            .instances()
            .iter()
            .find(|i| i.kind == "clock")
            .and_then(|i| i.conn("y"))
            .expect("the datapath has a clock")
            .to_string();
        netlist.add_signal("spare", 8);
        netlist.add_instance(
            eventsim::netlist::Instance::new("spare0", "counter")
                .with_param("width", 8)
                .with_conn("clk", clock)
                .with_conn("q", "spare"),
        );
        let run = |engine| {
            let options = FlowOptions {
                engine,
                ..FlowOptions::default()
            };
            prepared.run(&stimuli, &options)
        };
        let cycle = run(Engine::Cycle).unwrap_err();
        assert!(
            matches!(cycle, FlowError::Elaborate(ElaborateConfigError::Netlist(_))),
            "{cycle}"
        );
        for engine in [Engine::Level, Engine::Batch, Engine::Level] {
            let err = run(engine).unwrap_err();
            assert!(
                matches!(err, FlowError::Elaborate(ElaborateConfigError::Netlist(_))),
                "{engine}: {err}"
            );
            assert_eq!(err.to_string(), cycle.to_string(), "{engine}");
        }
        assert!(run(Engine::Event).unwrap().passed);
    }
}
