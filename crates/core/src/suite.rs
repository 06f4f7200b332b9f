//! The test-suite runner — the role the ANT build plays in the paper:
//! "automation needed to test the results for all the set of test cases
//! used during the test".
//!
//! A suite is a list of named cases, each a complete [`TestFlow`]
//! description. Suites can be built programmatically or loaded from a
//! manifest file:
//!
//! ```text
//! # suite manifest
//! case fdct1
//!   source fdct.src          # path relative to the manifest
//!   stimulus img fdct_img.stim
//!   width 32
//!   partitions 1
//! case hamming
//!   source hamming.src
//!   stimulus code code.stim
//! ```
//!
//! Every case runs behind one shield, which served job attempts share
//! (`fpgatest serve`): a panic becomes a `crash` verdict, and a case with
//! a wall-clock budget runs on a thread of its own that a trip abandons
//! and cuts off the event stream. [`CaseResult`] is the one verdict
//! table: its status word, its own exit code and its detail.
//!
//! Sequential runs, `--jobs N` pools and cases under a wall-clock
//! watchdog record spans the same way: each case records its
//! `case.<name>` span, with the flow's stage spans beneath it, into a
//! span sink of its own, and the suite absorbs the case sinks into its
//! own ([`Suite::set_spans`]) in manifest order. The span tree is
//! therefore the same at every job count.

use crate::events::{CampaignProgress, Event, EventSink};
use crate::faults::FaultSpec;
use crate::flow::{FlowError, FlowOptions, TestFlow, TestReport};
use crate::stimulus::{self, Stimulus};
use crate::telemetry::{SpanId, SpanSink};
use nenya::schedule::SchedulePolicy;
use std::any::Any;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One test case of a suite.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Case name.
    pub name: String,
    /// Source program text.
    pub source: String,
    /// Initial memory contents.
    pub stimuli: Vec<(String, Stimulus)>,
    /// Flow options for this case.
    pub options: FlowOptions,
}

impl TestCase {
    /// Creates a case with default options and no stimuli.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        TestCase {
            name: name.into(),
            source: source.into(),
            stimuli: Vec::new(),
            options: FlowOptions::default(),
        }
    }

    /// Builder-style stimulus.
    pub fn with_stimulus(mut self, mem: impl Into<String>, stimulus: Stimulus) -> Self {
        self.stimuli.push((mem.into(), stimulus));
        self
    }

    /// Builder-style options.
    pub fn with_options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }
}

/// Result of one case.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one value per case; size is irrelevant
pub enum CaseResult {
    /// The flow produced a verdict.
    Finished(TestReport),
    /// The flow could not run (compile error, bad stimulus, …).
    Errored(FlowError),
    /// The flow panicked. The panic was caught; the other cases of the
    /// run are unaffected. Always a harness bug, never a design verdict,
    /// which is why it gets its own exit code (3) instead of folding into
    /// FAIL.
    Crashed(String),
    /// A watchdog tripped before the flow produced a verdict: either the
    /// per-configuration tick budget ([`FlowOptions::max_ticks`]) or the
    /// wall-clock budget ([`FlowOptions::wall_timeout_ms`]).
    TimedOut {
        /// What tripped, e.g. `configuration 'f' exceeded 5000 ticks`.
        reason: String,
    },
}

impl CaseResult {
    /// The verdict of a flow that ran to its end: a report, a tick
    /// watchdog trip ([`FlowError::Timeout`], which becomes
    /// [`CaseResult::TimedOut`]), or any other flow error.
    pub fn from_flow(result: Result<TestReport, FlowError>) -> CaseResult {
        match result {
            Ok(report) => CaseResult::Finished(report),
            Err(e @ FlowError::Timeout { .. }) => CaseResult::TimedOut {
                reason: e.to_string(),
            },
            Err(e) => CaseResult::Errored(e),
        }
    }

    /// Whether the case counts as passing.
    pub fn passed(&self) -> bool {
        matches!(self, CaseResult::Finished(r) if r.passed)
    }

    /// The `status` word used in renders and telemetry: `pass`, `fail`,
    /// `error`, `crash`, or `timeout`.
    pub fn status(&self) -> &'static str {
        match self {
            CaseResult::Finished(r) if r.passed => "pass",
            CaseResult::Finished(_) => "fail",
            CaseResult::Errored(_) => "error",
            CaseResult::Crashed(_) => "crash",
            CaseResult::TimedOut { .. } => "timeout",
        }
    }

    /// The case's own exit code: pass 0, fail 1, error 2, crash 3,
    /// timeout 4. A single design exits with it; a suite folds its
    /// cases' verdicts with [`fold_exit_code`].
    pub fn exit_code(&self) -> i32 {
        match self {
            CaseResult::Finished(r) if r.passed => 0,
            CaseResult::Finished(_) => 1,
            CaseResult::Errored(_) => 2,
            CaseResult::Crashed(_) => 3,
            CaseResult::TimedOut { .. } => 4,
        }
    }

    /// Why the case did not pass (empty for a pass): the failure or the
    /// mismatch count, the flow error, the panic message, or what
    /// tripped.
    pub fn detail(&self) -> String {
        match self {
            CaseResult::Finished(r) if r.passed => String::new(),
            CaseResult::Finished(r) => r
                .failure
                .clone()
                .unwrap_or_else(|| format!("{} memory mismatches", r.mismatches.len())),
            CaseResult::Errored(e) => e.to_string(),
            CaseResult::Crashed(message) => message.clone(),
            CaseResult::TimedOut { reason } => reason.clone(),
        }
    }
}

/// The exit code of a run of several cases, from their verdict words:
/// 3 when any crashed the harness, else 4 when any hit a watchdog, else
/// 1 when any did not pass, else 0. Crashes outrank timeouts because they
/// always indicate a harness bug. Served verdicts fold the same way
/// (`quarantined` and `cancelled` count as not passing).
pub fn fold_exit_code<'a>(verdicts: impl IntoIterator<Item = &'a str>) -> i32 {
    let verdicts: Vec<&str> = verdicts.into_iter().collect();
    if verdicts.contains(&"crash") {
        3
    } else if verdicts.contains(&"timeout") {
        4
    } else {
        i32::from(verdicts.iter().any(|verdict| *verdict != "pass"))
    }
}

/// Aggregated results of a suite run.
#[derive(Debug)]
pub struct SuiteReport {
    /// `(case name, result)` pairs in suite order.
    pub results: Vec<(String, CaseResult)>,
}

impl SuiteReport {
    /// Number of passing cases.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|(_, r)| r.passed()).count()
    }

    /// Number of failing or erroring cases.
    pub fn failed(&self) -> usize {
        self.results.len() - self.passed()
    }

    /// Whether every case passed.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0
    }

    /// Number of cases whose flow panicked.
    pub fn crashed(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, r)| matches!(r, CaseResult::Crashed(_)))
            .count()
    }

    /// Number of cases stopped by a watchdog.
    pub fn timed_out(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, r)| matches!(r, CaseResult::TimedOut { .. }))
            .count()
    }

    /// The process exit code for this run: [`fold_exit_code`] over the
    /// cases' verdicts, so a case's flow error counts as a failure (1).
    pub fn exit_code(&self) -> i32 {
        fold_exit_code(self.results.iter().map(|(_, r)| r.status()))
    }

    /// Renders a one-line-per-case summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, result) in &self.results {
            let status = result.status().to_uppercase();
            if result.passed() {
                out.push_str(&format!("{name:<20} {status}\n"));
            } else {
                out.push_str(&format!("{name:<20} {status} ({})\n", result.detail()));
            }
        }
        out.push_str(&format!(
            "{} passed, {} failed, {} total\n",
            self.passed(),
            self.failed(),
            self.results.len()
        ));
        out
    }
}

/// A collection of test cases run as a unit.
#[derive(Debug, Default)]
pub struct Suite {
    cases: Vec<TestCase>,
    events: EventSink,
    events_key: String,
    spans: SpanSink,
}

impl Suite {
    /// Creates an empty suite.
    pub fn new() -> Self {
        Suite::default()
    }

    /// Adds a case.
    pub fn push(&mut self, case: TestCase) {
        self.cases.push(case);
    }

    /// Builder-style [`push`](Self::push).
    pub fn with_case(mut self, case: TestCase) -> Self {
        self.push(case);
        self
    }

    /// The cases in order.
    pub fn cases(&self) -> &[TestCase] {
        &self.cases
    }

    /// Forces every case onto one simulation engine (the CLI's `--engine`
    /// flag): manifests do not choose engines, the invocation does.
    pub fn set_engine(&mut self, engine: crate::flow::Engine) {
        for case in &mut self.cases {
            case.options.engine = engine;
        }
    }

    /// Enables the engine profiler for every case (the CLI's `--profile`
    /// flag); per-class / per-rank / per-phase timing lands in each
    /// finished report's `profile` block.
    pub fn set_profile(&mut self, enabled: bool) {
        for case in &mut self.cases {
            case.options.profile = enabled;
        }
    }

    /// Streams `fpgatest-events-v1` campaign/case events to `sink` (the
    /// CLI's `--events-out` flag); `key` labels the campaign, typically
    /// the manifest path. Sequential runs also stream the flows' stage
    /// spans; under `run_parallel` only campaign-level events stream, so
    /// event order stays deterministic regardless of worker timing.
    pub fn set_events(&mut self, sink: EventSink, key: impl Into<String>) {
        self.events = sink;
        self.events_key = key.into();
    }

    /// Records every case's spans into `spans` (the CLI's `--metrics-out`
    /// and `--trace-log`): a `case.<name>` span per case with the flow's
    /// stage spans nested beneath it. Each case records into a sink of
    /// its own, absorbed in manifest order, so the tree is the same at
    /// every job count.
    pub fn set_spans(&mut self, spans: SpanSink) {
        self.spans = spans;
    }

    /// Runs every case, never short-circuiting: a broken case must not
    /// hide results of the others.
    pub fn run(&self) -> SuiteReport {
        let total = self.cases.len() as u64;
        let mut progress =
            CampaignProgress::start(self.events.clone(), "suite", &self.events_key, total);
        let mut results = Vec::with_capacity(self.cases.len());
        for (index, case) in self.cases.iter().enumerate() {
            if self.events.is_enabled() {
                self.events.emit(&Event::CaseStarted {
                    case: case.name.clone(),
                    index: index as u64,
                    total,
                });
            }
            let case_started = Instant::now();
            let (result, spans) = run_case(case, self.spans.is_enabled(), &self.events);
            let wall_seconds = case_started.elapsed().as_secs_f64();
            self.spans.absorb(&spans);
            if self.events.is_enabled() {
                self.events.emit(&Event::CaseFinished {
                    case: case.name.clone(),
                    index: index as u64,
                    verdict: result.status().to_string(),
                    wall_seconds,
                });
            }
            progress.unit_done(&case.name, wall_seconds, !result.passed());
            results.push((case.name.clone(), result));
        }
        progress.finish();
        SuiteReport { results }
    }

    /// Runs cases on a pool of `jobs` worker threads. Results (and their
    /// spans, absorbed after every worker finished) are reported in suite
    /// order regardless of which worker finished first, so output is
    /// identical to [`run`](Self::run).
    pub fn run_parallel(&self, jobs: usize) -> SuiteReport {
        let jobs = jobs.max(1).min(self.cases.len().max(1));
        if jobs <= 1 {
            return self.run();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(CaseResult, SpanSink)>>> =
            self.cases.iter().map(|_| Mutex::new(None)).collect();
        // Finished cases stream out in manifest order, not finish order:
        // workers deliver into the reassembly buffer, and whoever holds
        // the lock drains every contiguous case, so the event stream is
        // deterministic while still advancing mid-flight.
        let total = self.cases.len() as u64;
        let ordered = self.events.is_enabled().then(|| {
            Mutex::new(OrderedCaseEvents {
                next_to_emit: 0,
                pending: BTreeMap::new(),
                progress: CampaignProgress::start(
                    self.events.clone(),
                    "suite",
                    &self.events_key,
                    total,
                ),
            })
        });
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(case) = self.cases.get(index) else {
                        break;
                    };
                    // Workers get no flow-level event sink: concurrent
                    // stage spans would interleave nondeterministically.
                    let case_started = Instant::now();
                    let (result, spans) =
                        run_case(case, self.spans.is_enabled(), &EventSink::disabled());
                    let wall_seconds = case_started.elapsed().as_secs_f64();
                    if let Some(ordered) = &ordered {
                        ordered
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .deliver(self, index, result.status(), wall_seconds);
                    }
                    *slots[index].lock().expect("slot poisoned") = Some((result, spans));
                });
            }
        });
        // `scope` re-raises a worker's panic after joining, so every slot
        // holds its case's result here.
        let results = self
            .cases
            .iter()
            .zip(slots)
            .map(|(case, slot)| {
                let (result, spans) = slot
                    .into_inner()
                    .expect("slot poisoned")
                    .expect("every case reported");
                self.spans.absorb(&spans);
                (case.name.clone(), result)
            })
            .collect();
        if let Some(ordered) = ordered {
            ordered
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .progress
                .finish();
        }
        SuiteReport { results }
    }
}

/// Reassembly buffer turning finish-order worker completions into
/// manifest-order event emission (see `run_parallel`).
struct OrderedCaseEvents {
    next_to_emit: usize,
    pending: BTreeMap<usize, (&'static str, f64)>,
    progress: CampaignProgress,
}

impl OrderedCaseEvents {
    fn deliver(&mut self, suite: &Suite, index: usize, verdict: &'static str, wall_seconds: f64) {
        self.pending.insert(index, (verdict, wall_seconds));
        let total = suite.cases.len() as u64;
        while let Some((verdict, wall_seconds)) = self.pending.remove(&self.next_to_emit) {
            let name = &suite.cases[self.next_to_emit].name;
            suite.events.emit(&Event::CaseStarted {
                case: name.clone(),
                index: self.next_to_emit as u64,
                total,
            });
            suite.events.emit(&Event::CaseFinished {
                case: name.clone(),
                index: self.next_to_emit as u64,
                verdict: verdict.to_string(),
                wall_seconds,
            });
            self.progress
                .unit_done(name, wall_seconds, verdict != "pass");
            self.next_to_emit += 1;
        }
    }
}

/// The harness's one shield around a suite case or a served job
/// attempt. `work` runs behind `catch_unwind`, so a panic becomes
/// [`CaseResult::Crashed`].
///
/// Without a wall budget `work` runs in place and streams to `events`.
/// With one it runs on a thread of its own, streaming to a handle of
/// `events` ([`EventSink::handle`]), and the caller waits at most
/// `wall_ms`. The flow holds `Rc`-based memory handles, so it cannot be
/// stopped from outside: on a trip the thread is abandoned (it still
/// counts ticks and stops at its `max_ticks`) and its handle is cut off
/// the stream, so nothing it emits lands after the caller's verdict,
/// [`CaseResult::TimedOut`]. A thread that cannot be spawned is
/// [`CaseResult::Crashed`]. The failure comes boxed: a `CaseResult` is
/// large and the failure path is cold.
pub(crate) fn shield<T: Send + 'static>(
    wall_ms: Option<u64>,
    events: &EventSink,
    work: impl FnOnce(&EventSink) -> T + Send + 'static,
) -> Result<T, Box<CaseResult>> {
    let crashed = |payload: Box<dyn Any + Send>| {
        Box::new(CaseResult::Crashed(crate::faults::panic_message(&*payload)))
    };
    let Some(wall_ms) = wall_ms else {
        return catch_unwind(AssertUnwindSafe(|| work(events))).map_err(crashed);
    };
    let handle = events.handle();
    let worker_events = handle.clone();
    let (sender, receiver) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .spawn(move || {
            let _ = sender.send(catch_unwind(AssertUnwindSafe(|| work(&worker_events))));
        })
        .map_err(|e| {
            Box::new(CaseResult::Crashed(format!(
                "cannot spawn a watchdogged thread: {e}"
            )))
        })?;
    match receiver.recv_timeout(Duration::from_millis(wall_ms)) {
        Ok(outcome) => outcome.map_err(crashed),
        Err(RecvTimeoutError::Timeout) => {
            handle.cut();
            Err(Box::new(CaseResult::TimedOut {
                reason: format!("wall clock exceeded {wall_ms} ms"),
            }))
        }
        Err(RecvTimeoutError::Disconnected) => Err(Box::new(CaseResult::Crashed(
            "watchdogged thread died without reporting".to_string(),
        ))),
    }
}

/// Runs one case behind the [`shield`], under its `case.<name>` span.
/// Returns the result and the case's own span sink (recording when
/// `record`), which the suite absorbs in manifest order.
fn run_case(case: &TestCase, record: bool, events: &EventSink) -> (CaseResult, SpanSink) {
    let fresh_spans = || {
        if record {
            SpanSink::recording()
        } else {
            SpanSink::disabled()
        }
    };
    let spans = fresh_spans();
    let span = spans.start(format_args!("case.{}", case.name));
    let work = {
        let (case, spans) = (case.clone(), spans.clone());
        move |events: &EventSink| run_flow(case, &spans, events)
    };
    match shield(case.options.wall_timeout_ms, events, work).map_err(|failure| *failure) {
        Ok(result) | Err(result @ CaseResult::Crashed(_)) => {
            close_case_span(&spans, span, &result);
            (result, spans)
        }
        Err(tripped) => {
            // The abandoned thread still records into `spans`; the case
            // reports a fresh sink holding its case span alone, so span
            // order still mirrors suite order.
            let spans = fresh_spans();
            let span = spans.start(format_args!("case.{}", case.name));
            close_case_span(&spans, span, &tripped);
            (tripped, spans)
        }
    }
}

/// Runs one case's flow, streaming to `events` and recording its stage
/// spans into `spans`.
fn run_flow(case: TestCase, spans: &SpanSink, events: &EventSink) -> CaseResult {
    let mut options = case.options;
    if events.is_enabled() {
        options.events = events.clone();
    }
    if spans.is_enabled() {
        options.spans = spans.clone();
    }
    let mut flow = TestFlow::new(case.name, case.source).with_options(options);
    for (mem, stimulus) in case.stimuli {
        flow = flow.stimulus(mem, stimulus);
    }
    CaseResult::from_flow(flow.run())
}

/// Annotates the case span with the verdict and closes it; `end` also
/// closes any flow span that a panic or a failing stage left open.
fn close_case_span(spans: &SpanSink, span: SpanId, result: &CaseResult) {
    spans.attr(span, "status", result.status());
    match result {
        CaseResult::Errored(e) => spans.attr(span, "error", e.to_string()),
        CaseResult::Crashed(m) => spans.attr(span, "panic", m.as_str()),
        CaseResult::TimedOut { reason } => spans.attr(span, "timeout", reason.as_str()),
        CaseResult::Finished(_) => {}
    }
    spans.end(span);
}

/// Error produced when loading a suite manifest.
#[derive(Debug)]
pub enum LoadSuiteError {
    /// The manifest or a referenced file could not be read.
    Io(PathBuf, std::io::Error),
    /// The manifest text is malformed.
    Manifest {
        /// 1-based manifest line.
        line: usize,
        /// Problem description.
        message: String,
        /// The offending manifest line, verbatim.
        text: String,
    },
    /// A referenced stimulus file is malformed.
    Stimulus(PathBuf, stimulus::ParseStimulusError),
}

impl fmt::Display for LoadSuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadSuiteError::Io(path, e) => write!(f, "cannot read {}: {e}", path.display()),
            LoadSuiteError::Manifest {
                line,
                message,
                text,
            } => {
                write!(f, "manifest line {line}: {message}\n  {line} | {text}")
            }
            LoadSuiteError::Stimulus(path, e) => {
                write!(f, "stimulus {}: {e}", path.display())
            }
        }
    }
}

impl Error for LoadSuiteError {}

/// Loads a suite from a manifest file; file references resolve relative
/// to the manifest's directory.
///
/// # Errors
///
/// Returns [`LoadSuiteError`] for unreadable or malformed files.
pub fn load_manifest(path: impl AsRef<Path>) -> Result<Suite, LoadSuiteError> {
    let path = path.as_ref();
    let text =
        std::fs::read_to_string(path).map_err(|e| LoadSuiteError::Io(path.to_path_buf(), e))?;
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    parse_manifest(&text, base)
}

/// Parses manifest text with `base` as the directory for file references.
///
/// # Errors
///
/// See [`load_manifest`].
pub fn parse_manifest(text: &str, base: &Path) -> Result<Suite, LoadSuiteError> {
    let mut suite = Suite::new();
    let mut current: Option<TestCase> = None;
    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("non-empty line");
        let manifest_err = |message: String| LoadSuiteError::Manifest {
            line: lineno,
            message,
            text: raw.trim_end().to_string(),
        };
        match keyword {
            "case" => {
                if let Some(done) = current.take() {
                    suite.push(done);
                }
                let name = tokens
                    .next()
                    .ok_or_else(|| manifest_err("'case' needs a name".into()))?;
                current = Some(TestCase::new(name, String::new()));
            }
            _ => {
                let case = current
                    .as_mut()
                    .ok_or_else(|| manifest_err(format!("'{keyword}' before any 'case'")))?;
                match keyword {
                    "source" => {
                        let file = tokens
                            .next()
                            .ok_or_else(|| manifest_err("'source' needs a path".into()))?;
                        let full = base.join(file);
                        case.source = std::fs::read_to_string(&full)
                            .map_err(|e| LoadSuiteError::Io(full.clone(), e))?;
                    }
                    "stimulus" => {
                        let mem = tokens
                            .next()
                            .ok_or_else(|| manifest_err("'stimulus' needs a memory name".into()))?;
                        let file = tokens
                            .next()
                            .ok_or_else(|| manifest_err("'stimulus' needs a path".into()))?;
                        let full = base.join(file);
                        let text = std::fs::read_to_string(&full)
                            .map_err(|e| LoadSuiteError::Io(full.clone(), e))?;
                        let stim = stimulus::parse(&text)
                            .map_err(|e| LoadSuiteError::Stimulus(full.clone(), e))?;
                        case.stimuli.push((mem.to_string(), stim));
                    }
                    "width" => {
                        let w = tokens
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| manifest_err("'width' needs an integer".into()))?;
                        case.options.compile.width = w;
                    }
                    "partitions" => {
                        let k = tokens
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| manifest_err("'partitions' needs an integer".into()))?;
                        case.options.compile.partitions = k;
                    }
                    "optimize" => {
                        case.options.compile.optimize = true;
                    }
                    "max_ticks" => {
                        let n = tokens
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| manifest_err("'max_ticks' needs an integer".into()))?;
                        case.options.max_ticks = n;
                    }
                    "timeout" => {
                        let ms = tokens
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| {
                                manifest_err("'timeout' needs milliseconds".into())
                            })?;
                        case.options.wall_timeout_ms = Some(ms);
                    }
                    "fault" => {
                        let spec = tokens
                            .next()
                            .ok_or_else(|| manifest_err("'fault' needs a spec".into()))?;
                        let fault = FaultSpec::parse(spec).map_err(manifest_err)?;
                        case.options.faults.push(fault);
                    }
                    "policy" => {
                        let p = tokens
                            .next()
                            .ok_or_else(|| manifest_err("'policy' needs a value".into()))?;
                        case.options.compile.policy = match p {
                            "list" => SchedulePolicy::List,
                            "one-op-per-state" => SchedulePolicy::OneOpPerState,
                            other => {
                                return Err(manifest_err(format!("unknown policy '{other}'")))
                            }
                        };
                    }
                    other => {
                        return Err(manifest_err(format!("unknown directive '{other}'")));
                    }
                }
            }
        }
    }
    if let Some(done) = current.take() {
        suite.push(done);
    }
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Json;

    fn passing_case(name: &str) -> TestCase {
        TestCase::new(
            name,
            "mem out[2]; void main() { out[0] = 1; out[1] = 2; }",
        )
    }

    #[test]
    fn suite_runs_all_cases() {
        let report = Suite::new()
            .with_case(passing_case("a"))
            .with_case(TestCase::new("broken", "void main() {")) // parse error
            .with_case(passing_case("b"))
            .run();
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.passed(), 2);
        assert_eq!(report.failed(), 1);
        assert!(!report.all_passed());
        let text = report.render();
        assert!(text.contains("a ") && text.contains("ERROR") && text.contains("2 passed"));
    }

    /// Crashes outrank timeouts, which outrank every other non-pass
    /// verdict, served ones included.
    #[test]
    fn exit_fold_ranks_crash_over_timeout_over_any_non_pass() {
        assert_eq!(fold_exit_code([]), 0);
        assert_eq!(fold_exit_code(["pass", "pass"]), 0);
        assert_eq!(fold_exit_code(["pass", "error"]), 1);
        assert_eq!(fold_exit_code(["cancelled", "quarantined"]), 1);
        assert_eq!(fold_exit_code(["fail", "timeout"]), 4);
        assert_eq!(fold_exit_code(["timeout", "crash", "fail"]), 3);
    }

    #[test]
    fn manifest_parses_inline() {
        let dir = std::env::temp_dir().join("fpgatest_suite_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("p.src"), "mem out[1]; mem inp[1]; void main() { out[0] = inp[0]; }").unwrap();
        std::fs::write(dir.join("inp.stim"), "0: 9\n").unwrap();
        let manifest = "\
# demo suite
case copy
  source p.src
  stimulus inp inp.stim
  width 16
  partitions 1
  policy list
";
        let suite = parse_manifest(manifest, &dir).unwrap();
        assert_eq!(suite.cases().len(), 1);
        let report = suite.run();
        assert!(report.all_passed(), "{}", report.render());
    }

    #[test]
    fn manifest_errors() {
        let base = Path::new(".");
        assert!(matches!(
            parse_manifest("source x.src\n", base),
            Err(LoadSuiteError::Manifest { line: 1, .. })
        ));
        assert!(matches!(
            parse_manifest("case a\n  bogus 1\n", base),
            Err(LoadSuiteError::Manifest { line: 2, .. })
        ));
        assert!(matches!(
            parse_manifest("case a\n  source /no/such/file.src\n", base),
            Err(LoadSuiteError::Io(_, _))
        ));
        assert!(matches!(
            parse_manifest("case a\n  policy turbo\n", base),
            Err(LoadSuiteError::Manifest { .. })
        ));
    }

    #[test]
    fn manifest_errors_carry_the_offending_line() {
        let err = parse_manifest("case a\n  bogus 1  # what\n", Path::new(".")).unwrap_err();
        let LoadSuiteError::Manifest { line, text, .. } = &err else {
            panic!("expected manifest error, got {err}");
        };
        assert_eq!(*line, 2);
        assert_eq!(text, "  bogus 1  # what");
        let rendered = err.to_string();
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("bogus 1  # what"), "{rendered}");
    }

    #[test]
    fn parallel_run_streams_events_in_manifest_order() {
        use crate::events::{CapturedEvents, Event, EventSink};
        let expect = ["a", "broken", "b", "c"];
        let expect_verdicts = ["pass", "error", "pass", "pass"];
        let streams: Vec<CapturedEvents> = [1, 4]
            .iter()
            .map(|&jobs| {
                let (sink, captured) = EventSink::capture();
                let mut suite = Suite::new()
                    .with_case(passing_case("a"))
                    .with_case(TestCase::new("broken", "void main() {"))
                    .with_case(passing_case("b"))
                    .with_case(passing_case("c"));
                suite.set_events(sink, "demo");
                suite.run_parallel(jobs);
                captured
            })
            .collect();
        for (captured, jobs) in streams.iter().zip([1, 4]) {
            // Campaign/case event order must not depend on worker count
            // or finish order; only wall-clock values may differ. Flow
            // stage spans (sequential runs only) are checked separately.
            let events: Vec<Event> = captured
                .events()
                .into_iter()
                .filter(|e| !matches!(e, Event::SpanStart { .. } | Event::SpanEnd { .. }))
                .collect();
            assert!(
                matches!(&events[0], Event::CampaignStarted { kind, key, total }
                    if kind == "suite" && key == "demo" && *total == 4),
                "jobs={jobs}: {:?}",
                events[0]
            );
            let mut at = 1;
            for (index, name) in expect.iter().enumerate() {
                let Event::CaseStarted { case, index: i, total } = &events[at] else {
                    panic!("jobs={jobs}: expected case-started, got {:?}", events[at]);
                };
                assert!(case == name && *i == index as u64 && *total == 4, "jobs={jobs}");
                let Event::CaseFinished { case, verdict, .. } = &events[at + 1] else {
                    panic!("jobs={jobs}: expected case-finished, got {:?}", events[at + 1]);
                };
                assert_eq!(case, name, "jobs={jobs}");
                assert_eq!(verdict, expect_verdicts[index], "jobs={jobs}");
                let Event::Heartbeat { done, total, .. } = &events[at + 2] else {
                    panic!("jobs={jobs}: expected heartbeat, got {:?}", events[at + 2]);
                };
                assert!(*done == index as u64 + 1 && *total == 4, "jobs={jobs}");
                at += 3;
            }
            assert!(
                matches!(&events[at], Event::CampaignFinished { done, failed, .. }
                    if *done == 4 && *failed == 1),
                "jobs={jobs}: {:?}",
                events[at]
            );
        }
        // Sequential streams flow stage spans too; strip them and the
        // two campaign/case streams must agree event for event.
        let kinds = |captured: &CapturedEvents| -> Vec<&'static str> {
            captured
                .events()
                .iter()
                .filter(|e| !matches!(e, Event::SpanStart { .. } | Event::SpanEnd { .. }))
                .map(Event::kind)
                .collect()
        };
        assert_eq!(kinds(&streams[0]), kinds(&streams[1]));
    }

    /// A case whose wall budget trips during its golden run leaves its
    /// thread running on through the flow. The trip cuts that thread off
    /// the event stream, so none of its events land in the next case's
    /// window, which runs well past the end of the abandoned golden run.
    #[test]
    fn a_tripped_cases_thread_cannot_write_after_its_verdict() {
        use crate::events::{Event, EventSink};
        // On a 2-vCPU x86-64 host the golden run took about 0.45 µs per
        // iteration in a debug build and 50 ns in a release build, so A's
        // 5 ms budget trips inside its golden run, and B's golden run,
        // twice as long, ends well after A's would.
        let spin = |name: &str, iterations: u32| {
            let mut case = TestCase::new(
                name,
                format!(
                    "mem out[1]; void main() {{ int i; int s; s = 0; \
                     for (i = 0; i < {iterations}; i = i + 1) {{ s = s + i; }} out[0] = s; }}"
                ),
            );
            case.options.compile.width = 32;
            // Simulation stops at once, so the abandoned thread ends soon.
            case.options.max_ticks = 1_000;
            case
        };
        let mut tripped = spin("A", 1_000_000);
        tripped.options.wall_timeout_ms = Some(5);
        let (sink, captured) = EventSink::capture();
        let mut suite = Suite::new()
            .with_case(tripped)
            .with_case(spin("B", 2_000_000));
        suite.set_events(sink, "trip");
        let report = suite.run();
        let CaseResult::TimedOut { reason } = &report.results[0].1 else {
            panic!("A did not trip: {}", report.render());
        };
        assert_eq!(reason, "wall clock exceeded 5 ms");

        let events = captured.events();
        let at = |wanted: &Event| {
            events
                .iter()
                .position(|event| event == wanted)
                .unwrap_or_else(|| panic!("no {wanted:?}"))
        };
        let started = at(&Event::CaseStarted {
            case: "B".into(),
            index: 1,
            total: 2,
        });
        let finished = started
            + events[started..]
                .iter()
                .position(|event| matches!(event, Event::CaseFinished { case, .. } if case == "B"))
                .expect("B finished");
        let golden_ends = events[started..finished]
            .iter()
            .filter(|event| matches!(event, Event::SpanEnd { name, .. } if name == "flow.golden"))
            .count();
        assert_eq!(golden_ends, 1, "only B's golden run ends in B's window");
        assert!(
            !events.iter().any(|event| matches!(event,
                Event::SpanStart { name } | Event::SpanEnd { name, .. } if name == "flow.simulate.A")),
            "the abandoned thread streamed on"
        );
    }

    #[test]
    fn parallel_run_matches_sequential_order_and_verdicts() {
        // One case runs under a wall-clock budget it meets, so its spans
        // come back from the watchdog's thread.
        let mut watched = passing_case("watched");
        watched.options.wall_timeout_ms = Some(60_000);
        let mut suite = Suite::new()
            .with_case(passing_case("a"))
            .with_case(TestCase::new("broken", "void main() {")) // parse error
            .with_case(watched)
            .with_case(passing_case("b"))
            .with_case(passing_case("c"));
        // Every span's name, depth and attributes in start order; only
        // the times may differ between runs.
        let mut run = |jobs: Option<usize>| {
            let spans = SpanSink::recording();
            suite.set_spans(spans.clone());
            let report = match jobs {
                None => suite.run(),
                Some(jobs) => suite.run_parallel(jobs),
            };
            let forest: Vec<(String, usize, String)> = spans
                .take()
                .spans()
                .iter()
                .map(|s| (s.name.clone(), s.depth, Json::Obj(s.attrs.clone()).emit()))
                .collect();
            (report, forest)
        };
        let (sequential, sequential_forest) = run(None);
        let roots: Vec<&str> = sequential_forest
            .iter()
            .filter(|(_, depth, _)| *depth == 0)
            .map(|(name, ..)| name.as_str())
            .collect();
        assert_eq!(
            roots,
            ["case.a", "case.broken", "case.watched", "case.b", "case.c"]
        );
        let watched_stages: Vec<&str> = sequential_forest
            .iter()
            .skip_while(|(name, ..)| name != "case.watched")
            .skip(1)
            .take_while(|(_, depth, _)| *depth == 1)
            .map(|(name, ..)| name.as_str())
            .collect();
        assert_eq!(
            watched_stages[..4],
            ["flow.parse", "flow.lower", "flow.golden", "flow.transform"],
            "{watched_stages:?}"
        );
        assert_eq!(watched_stages.last(), Some(&"flow.compare"));
        for jobs in [1, 2, 4, 8] {
            let (parallel, forest) = run(Some(jobs));
            let names: Vec<&str> = parallel.results.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["a", "broken", "watched", "b", "c"], "jobs={jobs}");
            assert_eq!(parallel.passed(), sequential.passed(), "jobs={jobs}");
            assert_eq!(parallel.render(), sequential.render(), "jobs={jobs}");
            // Case spans land in suite order regardless of worker timing,
            // each with the same flow spans beneath it.
            assert_eq!(forest, sequential_forest, "jobs={jobs}");
        }
    }
}
