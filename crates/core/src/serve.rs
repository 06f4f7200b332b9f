//! The `fpgatest-serve-v1` campaign daemon and its client.
//!
//! `fpgatest serve` turns the test flow into a long-running service:
//! clients connect over TCP, speak newline-delimited JSON, and submit
//! **test** or **fault-campaign** jobs that execute on a bounded worker
//! pool. The daemon keeps an LRU [`DesignCache`] of prepared designs
//! keyed by source content, so a design submitted many times (CI
//! matrix, fuzz reruns, parameter sweeps) is compiled and transformed
//! **once** and simulated many times.
//!
//! ## Protocol
//!
//! One request per line, one-or-more response lines per request. Every
//! server-originated line is a JSON object with a `schema` field: serve
//! responses carry `fpgatest-serve-v1`, interleaved live events carry
//! `fpgatest-events-v1` (see [`crate::events`]) — clients demultiplex
//! per line.
//!
//! Requests (`type` field): `submit` (with a `job` object), `status`,
//! `result` (replay a finished job's `job-finished` line — how a
//! reconnecting client resumes by id), `cancel`, `stats`, `shutdown`
//! (optionally `"shed":true` to cancel the queue instead of draining
//! it). Responses: `job-accepted`, `job-finished`, `status`, `stats`,
//! `shutdown-ack`, `error` (with a machine-readable `code`:
//! `bad-request`, `draining`, `overloaded`, `frame-too-long`,
//! `deadline`, `unknown-job`).
//!
//! ```text
//! → {"type":"submit","job":{"kind":"test","name":"scale","source":"...","events":true}}
//! ← {"schema":"fpgatest-serve-v1","type":"job-accepted","id":1}
//! ← {"schema":"fpgatest-events-v1","seq":0,"event":"span-start","name":"flow.golden"}
//! ← ...
//! ← {"schema":"fpgatest-events-v1","seq":9,"event":"campaign-finished","kind":"serve",...}
//! ← {"schema":"fpgatest-serve-v1","type":"job-finished","id":1,"verdict":"pass",...}
//! ```
//!
//! ## Job isolation
//!
//! Each attempt of a job runs behind the suite runner's shield (see
//! [`crate::suite`]) on a thread of its own: a panicking flow becomes a
//! `crash` verdict (exit code 3) instead of killing a worker, and a
//! wall-clock budget (`wall_ms`, defaulting to
//! [`ServeOptions::default_wall_ms`]) turns a hung attempt into a
//! `timeout` verdict (exit code 4) while the worker moves on. A trip
//! *abandons* the attempt's thread (it still stops at `max_ticks`) and
//! cuts that thread's event handle off the job's stream, so none of its
//! events land in a later attempt or after the job's `campaign-finished`.
//!
//! A test job's verdict and exit code come from the suite runner's
//! verdict table ([`crate::suite::CaseResult`]): `pass`→0, `fail`→1,
//! `error`→2, `crash`→3, `timeout`→4 (and `cancelled`→2 for jobs
//! cancelled while queued or shed while draining). With retries enabled,
//! a job that exhausts its attempts on `crash`/`timeout` reports the
//! distinct `quarantined` verdict (last failure's exit code) so poison
//! jobs are visible instead of looping.
//!
//! ## Fault tolerance
//!
//! The daemon assumes its parts fail routinely and contains each blast
//! radius. Its contract is that every accepted job reaches exactly one
//! terminal outcome: every outcome, executed, cancelled while queued or
//! shed, goes through one function, and each dequeued job reaches it
//! once. The worker pool is [`ServeOptions::workers`] plain threads.
//! Each attempt runs behind the shield above, and a panic in the retry
//! loop around it is a `crash` outcome too, so no worker dies holding a
//! job.
//!
//! * **retries**: `crash`/`timeout` outcomes rerun up to
//!   [`ServeOptions::retries`] times with bounded exponential backoff
//!   plus deterministic jitter; the attempt count rides on
//!   `job-finished` and the ledger line, and a job that exhausts its
//!   budget is **quarantined** (typed verdict, listed in `stats`);
//! * **backpressure**: the admission queue is bounded
//!   ([`ServeOptions::max_queue`]); beyond it submissions get a typed
//!   `overloaded` rejection immediately instead of queueing without
//!   bound;
//! * **deadlines**: a connection with a half-read request line older
//!   than [`ServeOptions::read_deadline_ms`] gets a typed `deadline`
//!   error and is closed (slow-loris); a line longer than
//!   [`ServeOptions::max_line_len`] gets `frame-too-long` (OOM guard);
//!   a connection idle past [`ServeOptions::idle_ms`] with no pending
//!   jobs is closed silently;
//! * **bounded memory**: only the [`FINISHED_KEPT`] most recently
//!   finished outcomes are kept; `status`, `result` and `cancel` of an
//!   older id answer `unknown-job`, which
//!   [`Client::wait_or_resubmit`] turns into a resubmission.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or SIGINT delivered to the CLI) flips the
//! server into draining mode: new submissions are rejected with a typed
//! `draining` error, queued and in-flight jobs run to completion
//! (bounded by their watchdogs), every event-streaming connection gets
//! its final `campaign-finished`, and only then is `shutdown-ack` sent
//! and the listener closed. `{"type":"shutdown","shed":true}` is the
//! load-shedding variant: queued-but-not-started jobs are *cancelled*
//! (each still gets its terminal `job-finished`, verdict `cancelled`)
//! and only the in-flight remainder is awaited.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::DesignCache;
use crate::events::{Event, EventSink, EVENTS_SCHEMA};
use crate::faults::{campaign_json, CampaignOptions, InjectionOutcome, ShardedCampaignOptions};
use crate::flow::{Engine, FlowOptions, TestFlow, TestReport};
use crate::ledger::{self, LedgerEntry};
use crate::rng::Rng;
use crate::stimulus::Stimulus;
use crate::suite::{self, CaseResult, TestCase};
use crate::telemetry::Json;
use nenya::schedule::SchedulePolicy;

/// Schema tag carried by every serve-protocol line.
pub const SERVE_SCHEMA: &str = "fpgatest-serve-v1";

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// What a job runs: one functional test, or one fault campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Compile (or fetch from cache) and simulate once, compare against
    /// the golden run.
    Test,
    /// A [`crate::faults`] injection campaign over the design.
    Faults,
}

impl JobKind {
    /// The protocol word (`test` / `faults`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Test => "test",
            JobKind::Faults => "faults",
        }
    }

    fn parse(word: &str) -> Result<JobKind, String> {
        match word {
            "test" => Ok(JobKind::Test),
            "faults" => Ok(JobKind::Faults),
            other => Err(format!("unknown job kind '{other}' (want test|faults)")),
        }
    }
}

/// One submitted unit of work, as carried in a `submit` request's `job`
/// object. Everything is plain data so specs cross threads freely.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Test or fault campaign.
    pub kind: JobKind,
    /// Design name (cache key *display* only; the cache keys on
    /// content).
    pub name: String,
    /// Source program text.
    pub source: String,
    /// Initial memory contents, `(memory, stimulus)` pairs.
    pub stimuli: Vec<(String, Stimulus)>,
    /// Compiler datapath width override.
    pub width: Option<u32>,
    /// Temporal-partition count override.
    pub partitions: Option<usize>,
    /// Scheduling policy override (`list` / `one-op-per-state`).
    pub policy: Option<SchedulePolicy>,
    /// Enable the compiler optimizer.
    pub optimize: bool,
    /// Simulation engine.
    pub engine: Engine,
    /// Tick watchdog override per configuration.
    pub max_ticks: Option<u64>,
    /// Wall-clock watchdog override in milliseconds (default:
    /// [`ServeOptions::default_wall_ms`]).
    pub wall_ms: Option<u64>,
    /// Stream `fpgatest-events-v1` lines back on the submitting
    /// connection while the job runs.
    pub events: bool,
    /// Fault campaigns: sampling seed.
    pub seed: u64,
    /// Fault campaigns: number of injections.
    pub sites: usize,
    /// Fault campaigns: worker-shard count (0 counts as 1). Verdicts and
    /// events are bit-identical at any count; the default stays 1
    /// because the daemon's workers already use the cores.
    pub shards: usize,
    /// Test hook: panic inside the flow (exercises crash isolation).
    pub planted_panic: bool,
    /// Bypass the design cache (cold-path; used by benchmarks).
    pub no_cache: bool,
}

impl JobSpec {
    /// A test job over `source` with default options.
    pub fn test(name: &str, source: &str) -> JobSpec {
        JobSpec {
            kind: JobKind::Test,
            name: name.to_string(),
            source: source.to_string(),
            stimuli: Vec::new(),
            width: None,
            partitions: None,
            policy: None,
            optimize: false,
            engine: Engine::default(),
            max_ticks: None,
            wall_ms: None,
            events: false,
            seed: 1,
            sites: 50,
            shards: 0,
            planted_panic: false,
            no_cache: false,
        }
    }

    /// A fault-campaign job over `source`.
    pub fn faults(name: &str, source: &str, seed: u64, sites: usize) -> JobSpec {
        let mut spec = JobSpec::test(name, source);
        spec.kind = JobKind::Faults;
        spec.seed = seed;
        spec.sites = sites;
        spec
    }

    /// A `kind` job running manifest case `case`: its source, stimuli,
    /// compiler options and engine, and a test job also the case's
    /// watchdogs. A campaign's tick budget defaults to five times its
    /// clean run, not to the case's flow budget, so a fault job's
    /// watchdogs come from the submission alone.
    pub fn from_case(kind: JobKind, case: &TestCase) -> JobSpec {
        let options = &case.options;
        let (max_ticks, wall_ms) = match kind {
            JobKind::Test => (Some(options.max_ticks), options.wall_timeout_ms),
            JobKind::Faults => (None, None),
        };
        JobSpec {
            kind,
            stimuli: case.stimuli.clone(),
            width: Some(options.compile.width),
            partitions: Some(options.compile.partitions),
            policy: Some(options.compile.policy),
            optimize: options.compile.optimize,
            engine: options.engine,
            max_ticks,
            wall_ms,
            ..JobSpec::test(&case.name, &case.source)
        }
    }

    /// The flow options the job runs under, the inverse of
    /// [`from_case`](Self::from_case) for everything a job carries
    /// (its wall budget is the shield's, not the flow's). A reply carries
    /// the verdict, never the textual artifacts, so a job does not pay for
    /// rendering them.
    fn flow_options(&self) -> FlowOptions {
        let mut options = FlowOptions {
            keep_artifacts: false,
            engine: self.engine,
            planted_panic: self.planted_panic,
            ..FlowOptions::default()
        };
        let compile = &mut options.compile;
        compile.width = self.width.unwrap_or(compile.width);
        compile.partitions = self.partitions.unwrap_or(compile.partitions);
        compile.policy = self.policy.unwrap_or(compile.policy);
        compile.optimize = self.optimize;
        options.max_ticks = self.max_ticks.unwrap_or(options.max_ticks);
        options
    }

    /// Adds a stimulus, builder-style.
    #[must_use]
    pub fn stimulus(mut self, mem: impl Into<String>, stimulus: Stimulus) -> JobSpec {
        self.stimuli.push((mem.into(), stimulus));
        self
    }

    /// Serializes to the protocol's `job` object.
    pub fn to_json(&self) -> Json {
        let stimuli: Vec<Json> = self
            .stimuli
            .iter()
            .map(|(mem, stimulus)| {
                let words: Vec<Json> = stimulus
                    .words
                    .iter()
                    .map(|(addr, value)| {
                        Json::Arr(vec![Json::from(*addr as u64), Json::from(*value)])
                    })
                    .collect();
                let mut pairs = vec![
                    ("mem", Json::from(mem.as_str())),
                    ("words", Json::Arr(words)),
                ];
                if let Some(size) = stimulus.size {
                    pairs.push(("size", Json::from(size)));
                }
                Json::obj(pairs)
            })
            .collect();
        let mut pairs = vec![
            ("kind", Json::from(self.kind.as_str())),
            ("name", Json::from(self.name.as_str())),
            ("source", Json::from(self.source.as_str())),
            ("stimuli", Json::Arr(stimuli)),
            ("optimize", Json::from(self.optimize)),
            ("engine", Json::from(self.engine.to_string())),
            ("events", Json::from(self.events)),
            ("seed", Json::from(self.seed)),
            ("sites", Json::from(self.sites)),
            ("shards", Json::from(self.shards)),
            ("planted_panic", Json::from(self.planted_panic)),
            ("no_cache", Json::from(self.no_cache)),
        ];
        if let Some(width) = self.width {
            pairs.push(("width", Json::from(u64::from(width))));
        }
        if let Some(partitions) = self.partitions {
            pairs.push(("partitions", Json::from(partitions)));
        }
        if let Some(policy) = self.policy {
            pairs.push(("policy", Json::from(policy.as_str())));
        }
        if let Some(ticks) = self.max_ticks {
            pairs.push(("max_ticks", Json::from(ticks)));
        }
        if let Some(wall) = self.wall_ms {
            pairs.push(("wall_ms", Json::from(wall)));
        }
        Json::obj(pairs)
    }

    /// Parses a `job` object. Only `kind`, `name`, and `source` are
    /// required; everything else defaults.
    pub fn from_json(json: &Json) -> Result<JobSpec, String> {
        let kind = JobKind::parse(require_str(json, "kind")?)?;
        let name = require_str(json, "name")?.to_string();
        let source = require_str(json, "source")?.to_string();
        let mut spec = JobSpec::test(&name, &source);
        spec.kind = kind;
        if let Some(stimuli) = json.get("stimuli") {
            let list = stimuli
                .as_array()
                .ok_or_else(|| "stimuli must be an array".to_string())?;
            for entry in list {
                let mem = require_str(entry, "mem")?.to_string();
                let mut stimulus = Stimulus {
                    mem: None,
                    size: None,
                    words: Vec::new(),
                };
                if let Some(size) = entry.get("size").and_then(Json::as_u64) {
                    stimulus.size = Some(size as usize);
                }
                let words = entry
                    .get("words")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("stimulus '{mem}' needs a words array"))?;
                for pair in words {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("stimulus '{mem}': words are [addr, value] pairs"))?;
                    let addr = pair[0]
                        .as_u64()
                        .ok_or_else(|| format!("stimulus '{mem}': bad address"))?;
                    let value = pair[1]
                        .as_f64()
                        .ok_or_else(|| format!("stimulus '{mem}': bad value"))?;
                    stimulus.words.push((addr as usize, value as i64));
                }
                spec.stimuli.push((mem, stimulus));
            }
        }
        if let Some(width) = json.get("width").and_then(Json::as_u64) {
            spec.width = Some(width as u32);
        }
        if let Some(partitions) = json.get("partitions").and_then(Json::as_u64) {
            spec.partitions = Some(partitions as usize);
        }
        if let Some(policy) = json.get("policy").and_then(Json::as_str) {
            spec.policy = Some(policy.parse()?);
        }
        if let Some(optimize) = json.get("optimize").and_then(Json::as_bool) {
            spec.optimize = optimize;
        }
        if let Some(engine) = json.get("engine").and_then(Json::as_str) {
            spec.engine = engine.parse::<Engine>().map_err(|e| e.to_string())?;
        }
        if let Some(ticks) = json.get("max_ticks").and_then(Json::as_u64) {
            spec.max_ticks = Some(ticks);
        }
        if let Some(wall) = json.get("wall_ms").and_then(Json::as_u64) {
            spec.wall_ms = Some(wall);
        }
        if let Some(events) = json.get("events").and_then(Json::as_bool) {
            spec.events = events;
        }
        if let Some(seed) = json.get("seed").and_then(Json::as_u64) {
            spec.seed = seed;
        }
        if let Some(sites) = json.get("sites").and_then(Json::as_u64) {
            spec.sites = sites as usize;
        }
        if let Some(shards) = json.get("shards").and_then(Json::as_u64) {
            spec.shards = shards as usize;
        }
        if let Some(planted) = json.get("planted_panic").and_then(Json::as_bool) {
            spec.planted_panic = planted;
        }
        if let Some(no_cache) = json.get("no_cache").and_then(Json::as_bool) {
            spec.no_cache = no_cache;
        }
        Ok(spec)
    }
}

fn require_str<'j>(json: &'j Json, key: &str) -> Result<&'j str, String> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

// ---------------------------------------------------------------------------
// Job outcome
// ---------------------------------------------------------------------------

/// The final word on one job, as carried by a `job-finished` line.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub id: u64,
    /// `pass`, `fail`, `error`, `crash`, `timeout`, or `cancelled` —
    /// the same taxonomy the suite runner uses.
    pub verdict: String,
    /// The exit code the in-process runner would have produced for this
    /// job alone: 0/1/2/3/4.
    pub exit_code: i32,
    /// Wall-clock seconds from dequeue to verdict.
    pub wall_seconds: f64,
    /// Executed attempts: 1 for the common case, more when retries
    /// reran it, 0 for jobs that never started (cancelled while queued /
    /// shed).
    pub attempts: u64,
    /// Failure detail (empty on pass).
    pub detail: String,
    /// Job-kind-specific report: a test summary, or the full
    /// `fpgatest-faults-v1` campaign object.
    pub report: Json,
}

impl JobOutcome {
    /// The outcome of job `id`, cancelled before it started.
    fn cancelled(id: u64, detail: &str) -> JobOutcome {
        JobOutcome {
            id,
            verdict: "cancelled".to_string(),
            exit_code: 2,
            wall_seconds: 0.0,
            attempts: 0,
            detail: detail.to_string(),
            report: Json::Null,
        }
    }

    /// Serializes to a `job-finished` response line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("job-finished")),
            ("id", Json::from(self.id)),
            ("verdict", Json::from(self.verdict.as_str())),
            ("exit_code", Json::from(i64::from(self.exit_code))),
            ("wall_seconds", Json::from(self.wall_seconds)),
            ("attempts", Json::from(self.attempts)),
            ("detail", Json::from(self.detail.as_str())),
            ("report", self.report.clone()),
        ])
    }

    /// Parses a `job-finished` line.
    pub fn from_json(json: &Json) -> Result<JobOutcome, String> {
        Ok(JobOutcome {
            id: json
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("job-finished without id")?,
            verdict: require_str(json, "verdict")?.to_string(),
            exit_code: json
                .get("exit_code")
                .and_then(Json::as_f64)
                .ok_or("job-finished without exit_code")? as i32,
            wall_seconds: json
                .get("wall_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            attempts: json.get("attempts").and_then(Json::as_u64).unwrap_or(1),
            detail: json
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            report: json.get("report").cloned().unwrap_or(Json::Null),
        })
    }
}

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

enum Request {
    Submit(Box<JobSpec>),
    Status(u64),
    /// Replay a finished job's `job-finished` line (or its current
    /// status when not finished) — the resume-by-id path a reconnecting
    /// client uses after losing its connection mid-wait.
    Result(u64),
    Cancel(u64),
    Stats,
    Shutdown {
        /// Load-shedding drain: cancel the queue instead of running it.
        shed: bool,
    },
}

fn parse_request(json: &Json) -> Result<Request, String> {
    match require_str(json, "type")? {
        "submit" => {
            let job = json.get("job").ok_or("submit without a job object")?;
            Ok(Request::Submit(Box::new(JobSpec::from_json(job)?)))
        }
        "status" => Ok(Request::Status(request_id(json)?)),
        "result" => Ok(Request::Result(request_id(json)?)),
        "cancel" => Ok(Request::Cancel(request_id(json)?)),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown {
            shed: json.get("shed").and_then(Json::as_bool).unwrap_or(false),
        }),
        other => Err(format!(
            "unknown request type '{other}' (want submit|status|result|cancel|stats|shutdown)"
        )),
    }
}

fn request_id(json: &Json) -> Result<u64, String> {
    json.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing numeric field 'id'".to_string())
}

fn resp_error(code: &str, message: &str) -> Json {
    Json::obj([
        ("schema", Json::from(SERVE_SCHEMA)),
        ("type", Json::from("error")),
        ("code", Json::from(code)),
        ("message", Json::from(message)),
    ])
}

fn resp_status(id: u64, state: &JobState) -> Json {
    let mut pairs = vec![
        ("schema", Json::from(SERVE_SCHEMA)),
        ("type", Json::from("status")),
        ("id", Json::from(id)),
        ("state", Json::from(state.as_str())),
    ];
    if let JobState::Finished { outcome } = state {
        pairs.push(("verdict", Json::from(outcome.verdict.as_str())));
    }
    Json::obj(pairs)
}

// ---------------------------------------------------------------------------
// Connection plumbing
// ---------------------------------------------------------------------------

/// Shared, line-atomic writer onto one client connection. Responses and
/// event lines from several threads interleave *per line*, never
/// mid-line.
#[derive(Clone)]
struct LineSender {
    stream: Arc<Mutex<TcpStream>>,
    /// Set on the first write failure (client hung up / EPIPE). Once
    /// dead, further sends are dropped without touching the socket, so
    /// an event-streaming job whose client vanished finishes normally
    /// instead of burning syscalls per event line.
    dead: Arc<AtomicBool>,
}

impl LineSender {
    fn new(stream: TcpStream) -> LineSender {
        LineSender {
            stream: Arc::new(Mutex::new(stream)),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Writes `line` plus a newline under the connection lock. Errors
    /// are swallowed: a vanished client must never take a worker down.
    fn send_line(&self, line: &[u8]) {
        if self.is_dead() {
            return;
        }
        let mut guard = self.stream.lock().unwrap_or_else(|p| p.into_inner());
        let failed = guard.write_all(line).is_err()
            || guard.write_all(b"\n").is_err()
            || guard.flush().is_err();
        if failed {
            self.dead.store(true, Ordering::SeqCst);
        }
    }

    fn send_json(&self, json: &Json) {
        self.send_line(json.emit().as_bytes());
    }
}

/// `Write` adapter turning an [`EventSink`]'s byte stream back into
/// whole lines sent through a [`LineSender`]. The sink writes one full
/// line + `\n` then flushes, so `flush` always sees complete lines.
struct SinkToConnection {
    sender: LineSender,
    buf: Vec<u8>,
}

impl Write for SinkToConnection {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            self.sender.send_line(&line[..line.len() - 1]);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads executing jobs (min 1).
    pub workers: usize,
    /// LRU capacity of the prepared-design cache.
    pub cache_capacity: usize,
    /// Wall-clock watchdog applied to jobs that do not set `wall_ms`.
    pub default_wall_ms: u64,
    /// Append one `fpgatest-ledger-v1` line per completed job here.
    pub ledger: Option<PathBuf>,
    /// Reruns granted to a job whose attempt ends in `crash` or
    /// `timeout` (0 = report the first failure as-is; N = up to N+1
    /// attempts, then the `quarantined` verdict).
    pub retries: u32,
    /// First retry backoff in milliseconds; doubles per attempt, capped
    /// at [`BACKOFF_CAP_MS`], plus up to 50% deterministic jitter.
    pub backoff_base_ms: u64,
    /// Admission-queue bound: submissions past this many *queued* jobs
    /// get a typed `overloaded` rejection (0 = unbounded).
    pub max_queue: usize,
    /// Longest request line accepted before the typed `frame-too-long`
    /// error closes the connection.
    pub max_line_len: usize,
    /// How long a connection may sit on a *partial* request line before
    /// the typed `deadline` error closes it (slow-loris guard).
    pub read_deadline_ms: u64,
    /// How long a connection with no buffered bytes and no pending jobs
    /// may idle before being closed silently.
    pub idle_ms: u64,
}

/// Retry backoff ceiling — exponential growth stops here.
pub const BACKOFF_CAP_MS: u64 = 2_000;

/// Finished outcomes the daemon keeps for `status` and `result`; the
/// oldest is dropped when another job finishes.
pub const FINISHED_KEPT: usize = 1024;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            cache_capacity: 8,
            default_wall_ms: 120_000,
            ledger: None,
            retries: 0,
            backoff_base_ms: 50,
            max_queue: 1024,
            max_line_len: 8 * 1024 * 1024,
            read_deadline_ms: 10_000,
            idle_ms: 600_000,
        }
    }
}

/// Lifecycle of one job, as reported by `status`. Finished jobs keep
/// their full outcome so a `result` request can replay the
/// `job-finished` line to a client that reconnected.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Cancelled,
    Finished { outcome: Box<JobOutcome> },
}

impl JobState {
    fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Cancelled => "cancelled",
            JobState::Finished { .. } => "finished",
        }
    }
}

/// Every job's state by id. Queued and running jobs stay until they
/// finish; of the finished ones only the newest [`FINISHED_KEPT`] stay.
#[derive(Default)]
struct JobTable {
    states: HashMap<u64, JobState>,
    /// The finished ids kept, oldest first.
    finished: VecDeque<u64>,
}

impl JobTable {
    /// Records `outcome`'s job as finished, dropping the oldest finished
    /// job past [`FINISHED_KEPT`].
    fn finish(&mut self, outcome: JobOutcome) {
        let id = outcome.id;
        self.states.insert(
            id,
            JobState::Finished {
                outcome: Box::new(outcome),
            },
        );
        self.finished.push_back(id);
        if self.finished.len() > FINISHED_KEPT {
            if let Some(oldest) = self.finished.pop_front() {
                self.states.remove(&oldest);
            }
        }
    }
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    sender: LineSender,
    /// The job's event stream onto `sender`, disabled unless the spec
    /// asks for events; the job's terminal `campaign-finished` ends it.
    events: EventSink,
    /// The submitting connection's accepted-but-unfinished job count —
    /// the idle-deadline must not close a connection still owed a
    /// `job-finished` line.
    conn_pending: Arc<AtomicU64>,
}

/// Queue + drain bookkeeping, all transitions under one lock so a
/// `draining` flip and the submissions racing it serialize cleanly.
struct WorkState {
    queue: VecDeque<QueuedJob>,
    /// Accepted jobs not yet finished (queued + running).
    inflight: u64,
    draining: bool,
}

struct ServerState {
    options: ServeOptions,
    addr: SocketAddr,
    cache: DesignCache,
    work: Mutex<WorkState>,
    /// Workers wait here for jobs; shutdown broadcasts the drain.
    queue_signal: Condvar,
    /// Shutdown waits here for `inflight` to reach zero.
    idle: Condvar,
    jobs: Mutex<JobTable>,
    next_id: AtomicU64,
    stopped: AtomicBool,
    submitted: AtomicU64,
    finished: AtomicU64,
    rejected: AtomicU64,
    /// Submissions bounced by the admission-queue bound.
    overloaded: AtomicU64,
    /// Queued jobs cancelled by a shedding shutdown.
    shed: AtomicU64,
    /// Retry attempts executed (not counting each job's first).
    retried: AtomicU64,
    /// `(id, kind:name)` of jobs quarantined after exhausting retries.
    quarantined: Mutex<Vec<(u64, String)>>,
    /// Serializes ledger appends across workers.
    ledger_lock: Mutex<()>,
}

impl ServerState {
    fn lock_work(&self) -> std::sync::MutexGuard<'_, WorkState> {
        self.work.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, JobTable> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_quarantined(&self) -> std::sync::MutexGuard<'_, Vec<(u64, String)>> {
        self.quarantined.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The bound daemon. [`Server::run`] blocks until a shutdown request
/// drains it.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7411`, port 0 for ephemeral) and
    /// starts the worker pool. Jobs flow once [`run`](Server::run) is
    /// called.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or a worker thread that cannot be
    /// spawned (the workers already started then exit).
    pub fn bind(addr: &str, options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServerState {
            cache: DesignCache::new(options.cache_capacity),
            options,
            addr: local,
            work: Mutex::new(WorkState {
                queue: VecDeque::new(),
                inflight: 0,
                draining: false,
            }),
            queue_signal: Condvar::new(),
            idle: Condvar::new(),
            jobs: Mutex::default(),
            next_id: AtomicU64::new(1),
            stopped: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            quarantined: Mutex::new(Vec::new()),
            ledger_lock: Mutex::new(()),
        });
        let mut workers = Vec::new();
        for index in 0..state.options.workers.max(1) {
            let worker = Arc::clone(&state);
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{index}"))
                .spawn(move || worker_loop(&worker));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Nothing is queued yet, so the workers already
                    // started return as soon as the drain begins.
                    drain(&state);
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Asks a running server to drain and stop, from outside a
    /// connection (the CLI's SIGINT hook). Equivalent to a `shutdown`
    /// request, minus the ack line.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until drained by a `shutdown` request (or a
    /// [`ShutdownHandle`]). Every connection gets its own reader
    /// thread; jobs run on the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates listener accept errors other than transient ones.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.state.stopped.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            let _ = std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || handle_connection(&state, stream));
        }
        self.state.queue_signal.notify_all();
        for worker in self.workers {
            worker
                .join()
                .map_err(|_| io::Error::other("a serve worker panicked"))?;
        }
        Ok(())
    }
}

/// Out-of-band drain trigger for [`Server::run`], used by the CLI's
/// SIGINT handling.
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Drains the server: stops accepting, waits for in-flight jobs,
    /// then unblocks the accept loop.
    pub fn shutdown(&self) {
        drain(&self.state);
        finish_stop(&self.state);
    }
}

/// Flips draining on and blocks until every accepted job has finished.
fn drain(state: &ServerState) {
    let mut work = state.lock_work();
    work.draining = true;
    state.queue_signal.notify_all();
    while work.inflight > 0 {
        work = state.idle.wait(work).unwrap_or_else(|p| p.into_inner());
    }
}

/// Marks the server stopped and pokes the accept loop awake.
fn finish_stop(state: &ServerState) {
    state.stopped.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(state.addr);
}

/// Poll interval for the connection read loop — short enough that
/// deadline bookkeeping and the server-stopped check stay responsive,
/// long enough to cost nothing.
const READ_POLL_MS: u64 = 100;

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // The protocol is request/response over tiny lines; Nagle + delayed
    // ACK would add ~40ms to every exchange.
    let _ = stream.set_nodelay(true);
    // Reads poll instead of blocking forever, so a silent client cannot
    // pin this thread past its deadlines (slow-loris guard).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_POLL_MS)));
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let sender = LineSender::new(stream);
    let conn_pending = Arc::new(AtomicU64::new(0));
    let max_len = state.options.max_line_len.max(1);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // When the current (incomplete) request line started arriving.
    let mut partial_since: Option<Instant> = None;
    let mut idle_since = Instant::now();
    'conn: loop {
        if state.stopped.load(Ordering::SeqCst) || sender.is_dead() {
            break;
        }
        match read_half.read(&mut chunk) {
            Ok(0) => break, // client closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle_since = Instant::now();
                if partial_since.is_none() {
                    partial_since = Some(Instant::now());
                }
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    if pos > max_len {
                        sender.send_json(&resp_error(
                            "frame-too-long",
                            &format!("request line exceeds {max_len} bytes"),
                        ));
                        break 'conn;
                    }
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    partial_since = (!buf.is_empty()).then(Instant::now);
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    if line.trim().is_empty() {
                        continue;
                    }
                    if !dispatch_request(state, &line, &sender, &conn_pending) {
                        break 'conn;
                    }
                }
                // No complete line and the buffer already too big: the
                // client is streaming a newline-free frame; refuse it
                // before it grows without bound.
                if buf.len() > max_len {
                    sender.send_json(&resp_error(
                        "frame-too-long",
                        &format!("request line exceeds {max_len} bytes"),
                    ));
                    break;
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    // Fully idle connection: close silently once it has
                    // no pending jobs and outlived the idle deadline.
                    if conn_pending.load(Ordering::SeqCst) == 0
                        && idle_since.elapsed() >= Duration::from_millis(state.options.idle_ms)
                    {
                        break;
                    }
                } else if partial_since.is_some_and(|since| {
                    since.elapsed() >= Duration::from_millis(state.options.read_deadline_ms)
                }) {
                    sender.send_json(&resp_error(
                        "deadline",
                        &format!(
                            "request line stalled past {} ms",
                            state.options.read_deadline_ms
                        ),
                    ));
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Handles one request line; returns `false` when the connection should
/// close (shutdown handled).
fn dispatch_request(
    state: &Arc<ServerState>,
    line: &str,
    sender: &LineSender,
    conn_pending: &Arc<AtomicU64>,
) -> bool {
    let request = match Json::parse(line) {
        Ok(json) => parse_request(&json),
        Err(e) => Err(format!("unparseable request: {e}")),
    };
    match request {
        Err(message) => sender.send_json(&resp_error("bad-request", &message)),
        Ok(Request::Submit(spec)) => submit_job(state, *spec, sender, conn_pending),
        Ok(Request::Status(id)) => {
            let jobs = state.lock_jobs();
            match jobs.states.get(&id) {
                Some(job_state) => sender.send_json(&resp_status(id, job_state)),
                None => sender.send_json(&resp_error("unknown-job", &format!("no job {id}"))),
            }
        }
        Ok(Request::Result(id)) => {
            let jobs = state.lock_jobs();
            match jobs.states.get(&id) {
                // Replay the terminal line; a reconnected client
                // resumes exactly where its old connection died.
                Some(JobState::Finished { outcome }) => {
                    let json = outcome.to_json();
                    drop(jobs);
                    sender.send_json(&json);
                }
                Some(job_state) => sender.send_json(&resp_status(id, job_state)),
                None => sender.send_json(&resp_error("unknown-job", &format!("no job {id}"))),
            }
        }
        Ok(Request::Cancel(id)) => {
            let mut jobs = state.lock_jobs();
            match jobs.states.get_mut(&id) {
                // Only queued jobs can be cancelled; the worker
                // notices the flag at dequeue and reports the
                // `cancelled` verdict. Running/finished jobs just
                // report their current state.
                Some(job_state) => {
                    if matches!(job_state, JobState::Queued) {
                        *job_state = JobState::Cancelled;
                    }
                    let snapshot = job_state.clone();
                    drop(jobs);
                    sender.send_json(&resp_status(id, &snapshot));
                }
                None => sender.send_json(&resp_error("unknown-job", &format!("no job {id}"))),
            }
        }
        Ok(Request::Stats) => sender.send_json(&stats_json(state)),
        Ok(Request::Shutdown { shed }) => {
            if shed {
                shed_queue(state);
            }
            drain(state);
            sender.send_json(&Json::obj([
                ("schema", Json::from(SERVE_SCHEMA)),
                ("type", Json::from("shutdown-ack")),
                ("finished", Json::from(state.finished.load(Ordering::SeqCst))),
                ("rejected", Json::from(state.rejected.load(Ordering::SeqCst))),
                ("shed", Json::from(state.shed.load(Ordering::SeqCst))),
            ]));
            finish_stop(state);
            return false;
        }
    }
    true
}

/// Load-shedding drain: flips draining on and cancels every job still
/// queued (verdict `cancelled`, 0 attempts); in-flight jobs are
/// untouched (the follow-up [`drain`] waits for them).
fn shed_queue(state: &ServerState) {
    let taken: Vec<QueuedJob> = {
        let mut work = state.lock_work();
        work.draining = true;
        work.queue.drain(..).collect()
    };
    for job in taken {
        state.shed.fetch_add(1, Ordering::SeqCst);
        let outcome = JobOutcome::cancelled(job.id, "shed: server draining under load");
        finish_job(state, job, outcome);
    }
}

/// The one terminal path, which every accepted job reaches exactly
/// once: executed, cancelled while queued or shed. An event-streaming
/// job's stream ends with a serve-level `campaign-finished`, whatever
/// the verdict. The job is recorded finished, counted and released from
/// `inflight` *before* its `job-finished` line goes out, so a client
/// reacting instantly to that line (a stats query, a status poll, a
/// shutdown) already sees it so.
fn finish_job(state: &ServerState, job: QueuedJob, outcome: JobOutcome) {
    let key = format!("{}:{}", job.spec.kind.as_str(), job.spec.name);
    let passed = u64::from(outcome.verdict == "pass");
    let failed = u64::from(outcome.exit_code != 0);
    job.events.emit(&Event::CampaignFinished {
        kind: "serve".to_string(),
        key: key.clone(),
        done: passed,
        failed,
        wall_seconds: outcome.wall_seconds,
    });
    let ledger_line = state.options.ledger.as_ref().map(|path| {
        let entry = LedgerEntry {
            engine: job.spec.engine.to_string(),
            wall_seconds: outcome.wall_seconds,
            passed,
            failed,
            detected_fraction: outcome
                .report
                .get("detected_fraction")
                .and_then(Json::as_f64),
            counters: vec![
                ("exit_code".to_string(), f64::from(outcome.exit_code)),
                ("attempts".to_string(), outcome.attempts as f64),
            ],
            ..LedgerEntry::new("serve", &key)
        };
        (path, entry)
    });
    let line = outcome.to_json();
    state.lock_jobs().finish(outcome);
    state.finished.fetch_add(1, Ordering::SeqCst);
    {
        let mut work = state.lock_work();
        work.inflight -= 1;
        if work.inflight == 0 {
            state.idle.notify_all();
        }
    }
    job.sender.send_json(&line);
    job.conn_pending.fetch_sub(1, Ordering::SeqCst);
    if let Some((path, entry)) = ledger_line {
        let _guard = state.ledger_lock.lock().unwrap_or_else(|p| p.into_inner());
        let _ = ledger::append(path, &entry);
    }
}

fn submit_job(
    state: &Arc<ServerState>,
    spec: JobSpec,
    sender: &LineSender,
    conn_pending: &Arc<AtomicU64>,
) {
    let id = {
        let mut work = state.lock_work();
        if work.draining {
            drop(work);
            state.rejected.fetch_add(1, Ordering::SeqCst);
            sender.send_json(&resp_error(
                "draining",
                "server is draining; new submissions are rejected",
            ));
            return;
        }
        // Backpressure: beyond the admission bound the client gets a
        // typed rejection *now* rather than an unbounded queue later.
        if state.options.max_queue > 0 && work.queue.len() >= state.options.max_queue {
            drop(work);
            state.rejected.fetch_add(1, Ordering::SeqCst);
            state.overloaded.fetch_add(1, Ordering::SeqCst);
            sender.send_json(&resp_error(
                "overloaded",
                &format!(
                    "admission queue full ({} jobs queued); retry later",
                    state.options.max_queue
                ),
            ));
            return;
        }
        let id = state.next_id.fetch_add(1, Ordering::SeqCst);
        state.lock_jobs().states.insert(id, JobState::Queued);
        work.inflight += 1;
        conn_pending.fetch_add(1, Ordering::SeqCst);
        let events = if spec.events {
            EventSink::to_writer(Box::new(SinkToConnection {
                sender: sender.clone(),
                buf: Vec::new(),
            }))
        } else {
            EventSink::disabled()
        };
        work.queue.push_back(QueuedJob {
            id,
            spec,
            sender: sender.clone(),
            events,
            conn_pending: Arc::clone(conn_pending),
        });
        state.queue_signal.notify_one();
        id
    };
    state.submitted.fetch_add(1, Ordering::SeqCst);
    sender.send_json(&Json::obj([
        ("schema", Json::from(SERVE_SCHEMA)),
        ("type", Json::from("job-accepted")),
        ("id", Json::from(id)),
    ]));
}

fn stats_json(state: &ServerState) -> Json {
    let cache = state.cache.stats();
    let (queued, inflight, draining) = {
        let work = state.lock_work();
        (work.queue.len(), work.inflight, work.draining)
    };
    let quarantined: Vec<Json> = state
        .lock_quarantined()
        .iter()
        .map(|(id, name)| {
            Json::obj([
                ("id", Json::from(*id)),
                ("job", Json::from(name.as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::from(SERVE_SCHEMA)),
        ("type", Json::from("stats")),
        ("submitted", Json::from(state.submitted.load(Ordering::SeqCst))),
        ("finished", Json::from(state.finished.load(Ordering::SeqCst))),
        ("rejected", Json::from(state.rejected.load(Ordering::SeqCst))),
        ("overloaded", Json::from(state.overloaded.load(Ordering::SeqCst))),
        ("shed", Json::from(state.shed.load(Ordering::SeqCst))),
        ("retried", Json::from(state.retried.load(Ordering::SeqCst))),
        ("quarantined", Json::Arr(quarantined)),
        ("queued", Json::from(queued)),
        ("inflight", Json::from(inflight)),
        ("draining", Json::from(draining)),
        ("workers", Json::from(state.options.workers.max(1))),
        (
            "cache",
            Json::obj([
                ("hits", Json::from(cache.hits)),
                ("misses", Json::from(cache.misses)),
                ("evictions", Json::from(cache.evictions)),
                ("entries", Json::from(cache.entries)),
                ("capacity", Json::from(cache.capacity)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut work = state.lock_work();
            loop {
                if let Some(job) = work.queue.pop_front() {
                    break job;
                }
                if work.draining {
                    return;
                }
                work = state
                    .queue_signal
                    .wait(work)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        run_one_job(state, job);
    }
}

/// Backoff before retry `attempt` (1-based count of attempts already
/// made): exponential from [`ServeOptions::backoff_base_ms`], capped at
/// [`BACKOFF_CAP_MS`], plus up to 50% jitter drawn from the stream
/// [`Rng`] derives for `(job_id, attempt)`, so co-failing jobs decorrelate
/// without the daemon needing a randomness source.
fn backoff_delay(base_ms: u64, attempt: u64, job_id: u64) -> Duration {
    let base = base_ms.max(1);
    let exp = base
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
        .min(BACKOFF_CAP_MS);
    let jitter = Rng::new(job_id).derive(attempt).below(exp / 2 + 1);
    Duration::from_millis(exp + jitter)
}

fn run_one_job(state: &Arc<ServerState>, job: QueuedJob) {
    let cancelled = {
        let mut jobs = state.lock_jobs();
        match jobs.states.get(&job.id) {
            Some(JobState::Cancelled) => true,
            _ => {
                jobs.states.insert(job.id, JobState::Running);
                false
            }
        }
    };
    if cancelled {
        let outcome = JobOutcome::cancelled(job.id, "cancelled while queued");
        return finish_job(state, job, outcome);
    }
    let started = Instant::now();
    let wall_ms = job.spec.wall_ms.unwrap_or(state.options.default_wall_ms);
    let max_attempts = u64::from(state.options.retries) + 1;
    let mut attempts = 0;
    // Each attempt runs behind the shield; a panic in the loop's own
    // bookkeeping is a crash of the job, which still finishes.
    let attempt_loop = catch_unwind(AssertUnwindSafe(|| loop {
        attempts += 1;
        let work = {
            let (state, spec) = (Arc::clone(state), job.spec.clone());
            move |events: &EventSink| execute_job(&state, &spec, events)
        };
        let result = suite::shield(Some(wall_ms), &job.events, work)
            .unwrap_or_else(|failure| case_verdict(&failure));
        let retryable = result.0 == "crash" || result.0 == "timeout";
        if !retryable || attempts >= max_attempts {
            break result;
        }
        state.retried.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(backoff_delay(
            state.options.backoff_base_ms,
            attempts,
            job.id,
        ));
    }));
    let (mut verdict, exit_code, mut detail, report) = attempt_loop.unwrap_or_else(|payload| {
        let message = crate::faults::panic_message(&*payload);
        case_verdict(&CaseResult::Crashed(message))
    });
    if (verdict == "crash" || verdict == "timeout")
        && max_attempts > 1
        && attempts >= max_attempts
    {
        // Retries were granted and all exhausted: poison. The typed
        // verdict keeps it out of pass/fail statistics and the stats
        // listing makes it visible to operators.
        detail = format!("quarantined after {attempts} attempts; last failure: {verdict} ({detail})");
        verdict = "quarantined".to_string();
        state
            .lock_quarantined()
            .push((job.id, format!("{}:{}", job.spec.kind.as_str(), job.spec.name)));
    }
    let outcome = JobOutcome {
        id: job.id,
        verdict,
        exit_code,
        wall_seconds: started.elapsed().as_secs_f64(),
        attempts,
        detail,
        report,
    };
    finish_job(state, job, outcome);
}

fn execute_job(state: &ServerState, spec: &JobSpec, sink: &EventSink) -> (String, i32, String, Json) {
    let mut options = spec.flow_options();
    match spec.kind {
        JobKind::Test => {
            options.events = sink.clone();
            let result = if spec.no_cache {
                // Cold path: full pipeline, nothing shared. Benchmarks
                // use this as the compile-every-time baseline.
                let mut flow = TestFlow::new(&spec.name, &spec.source).with_options(options);
                for (mem, stimulus) in &spec.stimuli {
                    flow = flow.stimulus(mem, stimulus.clone());
                }
                flow.run()
            } else {
                state
                    .cache
                    .get_or_compile(&spec.name, &spec.source, &options.compile)
                    .and_then(|prepared| prepared.run(&spec.stimuli, &options))
            };
            case_verdict(&CaseResult::from_flow(result))
        }
        JobKind::Faults => {
            let case = TestCase {
                name: spec.name.clone(),
                source: spec.source.clone(),
                stimuli: spec.stimuli.clone(),
                options,
            };
            let campaign = CampaignOptions {
                seed: spec.seed,
                sites: spec.sites,
                engine: spec.engine,
                max_ticks: spec.max_ticks,
                events: sink.clone(),
            };
            // The job's own shard count: the daemon's workers already use
            // the cores.
            let result = crate::faults::run_campaign_sharded(
                &case,
                &campaign,
                &ShardedCampaignOptions {
                    shards: spec.shards,
                    ..ShardedCampaignOptions::default()
                },
            )
            .map(|outcome| outcome.report);
            match result {
                Ok(report) => {
                    let crashed = report.count(InjectionOutcome::Crashed);
                    let detail = format!(
                        "{} injections over {} sites, {:.1}% detected",
                        report.injections.len(),
                        report.site_pool,
                        100.0 * report.detected_fraction()
                    );
                    if crashed > 0 {
                        (
                            "crash".to_string(),
                            3,
                            format!("{crashed} injections crashed the harness; {detail}"),
                            campaign_json(&report),
                        )
                    } else {
                        ("pass".to_string(), 0, detail, campaign_json(&report))
                    }
                }
                Err(e) => case_verdict(&CaseResult::from_flow(Err(e))),
            }
        }
    }
}

/// A job verdict, exit code, detail and report from the suite runner's
/// verdict table; only a finished test carries a report.
fn case_verdict(result: &CaseResult) -> (String, i32, String, Json) {
    let report = match result {
        CaseResult::Finished(report) => test_report_json(report),
        _ => Json::Null,
    };
    (
        result.status().to_string(),
        result.exit_code(),
        result.detail(),
        report,
    )
}

fn test_report_json(report: &TestReport) -> Json {
    let configs: Vec<Json> = report
        .runs
        .iter()
        .map(|run| {
            Json::obj([
                ("name", Json::from(run.name.as_str())),
                ("cycles", Json::from(run.cycles)),
            ])
        })
        .collect();
    Json::obj([
        ("design", Json::from(report.design.as_str())),
        ("passed", Json::from(report.passed)),
        ("mismatches", Json::from(report.mismatches.len())),
        ("fault_skips", Json::from(report.fault_skips.len())),
        ("configs", Json::Arr(configs)),
    ])
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket trouble.
    Io(io::Error),
    /// The connection to the daemon was lost (EOF or a mid-read error).
    /// Distinct from [`ClientError::Io`] so resilient callers know a
    /// reconnect-and-resume is worth trying.
    Disconnected(String),
    /// The server sent a line longer than the client's frame cap.
    FrameTooLong {
        /// The cap that was exceeded, in bytes.
        limit: usize,
    },
    /// The server said something the protocol does not allow.
    Protocol(String),
    /// The server answered with a typed `error` line.
    Rejected {
        /// Machine-readable code (`bad-request`, `draining`,
        /// `overloaded`, `frame-too-long`, `deadline`, `unknown-job`).
        code: String,
        /// Human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve i/o error: {e}"),
            ClientError::Disconnected(m) => write!(f, "serve connection lost: {m}"),
            ClientError::FrameTooLong { limit } => {
                write!(f, "server line exceeds the {limit}-byte frame cap")
            }
            ClientError::Protocol(m) => write!(f, "serve protocol error: {m}"),
            ClientError::Rejected { code, message } => {
                write!(f, "server rejected request ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Default client-side frame cap, matching the daemon's default.
const CLIENT_MAX_LINE: usize = 8 * 1024 * 1024;

/// Reconnect attempts [`Client::wait_or_resubmit`] makes before giving
/// up on a lost daemon.
const RECONNECT_ATTEMPTS: u32 = 10;

/// One connection to a serve daemon. Submissions, status polls, and
/// event streams all share the connection; the client demultiplexes
/// per line and buffers `job-finished` responses that arrive while it
/// waits for something else.
pub struct Client {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    finished: HashMap<u64, JobOutcome>,
    event_writer: Option<Box<dyn Write>>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7411`).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            addr: addr.to_string(),
            reader,
            writer,
            finished: HashMap::new(),
            event_writer: None,
        })
    }

    /// Copies every `fpgatest-events-v1` line the server interleaves on
    /// this connection to `writer`, verbatim, as it arrives.
    pub fn stream_events_to(&mut self, writer: Box<dyn Write>) {
        self.event_writer = Some(writer);
    }

    fn send(&mut self, json: &Json) -> Result<(), ClientError> {
        self.writer.write_all(json.emit().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Replaces the dead socket with a fresh connection to the same
    /// address, with bounded exponential backoff. Buffered finished
    /// outcomes survive; the event stream resumes on the new socket.
    ///
    /// # Errors
    ///
    /// The last connect failure once the attempts run out.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let mut delay = Duration::from_millis(50);
        let mut last: Option<io::Error> = None;
        for _ in 0..RECONNECT_ATTEMPTS {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    self.reader = BufReader::new(stream.try_clone()?);
                    self.writer = stream;
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(1_000));
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::ConnectionRefused, "reconnect failed")
        })))
    }

    /// Kills the underlying socket without telling the daemon — the
    /// next read observes a lost connection. A test hook for exercising
    /// the [`reconnect`](Client::reconnect) /
    /// [`wait_or_resubmit`](Client::wait_or_resubmit) recovery paths;
    /// production code has no reason to call it.
    pub fn sever(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }

    /// Reads one newline-terminated line, refusing to buffer more than
    /// [`CLIENT_MAX_LINE`] bytes. Returns `None` on clean EOF.
    fn read_line_capped(&mut self) -> Result<Option<String>, ClientError> {
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let available = self
                .reader
                .fill_buf()
                .map_err(|e| ClientError::Disconnected(e.to_string()))?;
            if available.is_empty() {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(ClientError::Disconnected(
                        "connection closed mid-line".to_string(),
                    ))
                };
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    buf.extend_from_slice(&available[..pos]);
                    self.reader.consume(pos + 1);
                    if buf.len() > CLIENT_MAX_LINE {
                        return Err(ClientError::FrameTooLong {
                            limit: CLIENT_MAX_LINE,
                        });
                    }
                    return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                }
                None => {
                    let n = available.len();
                    buf.extend_from_slice(available);
                    self.reader.consume(n);
                    if buf.len() > CLIENT_MAX_LINE {
                        return Err(ClientError::FrameTooLong {
                            limit: CLIENT_MAX_LINE,
                        });
                    }
                }
            }
        }
    }

    /// Reads the next serve-schema line, routing event lines to the
    /// event writer along the way.
    fn next_response(&mut self) -> Result<Json, ClientError> {
        loop {
            let Some(line) = self.read_line_capped()? else {
                return Err(ClientError::Disconnected(
                    "connection closed by server".to_string(),
                ));
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let json = Json::parse(trimmed)
                .map_err(|e| ClientError::Protocol(format!("bad server line: {e}")))?;
            if json.get("schema").and_then(Json::as_str) == Some(EVENTS_SCHEMA) {
                if let Some(writer) = &mut self.event_writer {
                    let _ = writeln!(writer, "{trimmed}");
                    let _ = writer.flush();
                }
                continue;
            }
            return Ok(json);
        }
    }

    fn take_error(json: &Json) -> ClientError {
        ClientError::Rejected {
            code: json
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            message: json
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        }
    }

    fn buffer_finished(&mut self, json: &Json) -> Result<(), ClientError> {
        let outcome = JobOutcome::from_json(json).map_err(ClientError::Protocol)?;
        self.finished.insert(outcome.id, outcome);
        Ok(())
    }

    /// Reads responses until one of `wanted` arrives, buffering
    /// `job-finished` lines for other jobs and failing on `error`.
    fn response_of_type(&mut self, wanted: &str) -> Result<Json, ClientError> {
        loop {
            let json = self.next_response()?;
            match json.get("type").and_then(Json::as_str) {
                Some(kind) if kind == wanted => return Ok(json),
                Some("job-finished") => self.buffer_finished(&json)?,
                Some("error") => return Err(Self::take_error(&json)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response type {other:?} while waiting for {wanted}"
                    )))
                }
            }
        }
    }

    /// Submits a job; returns the server-assigned id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with code `draining` when the server
    /// is shutting down.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        self.send(&Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("submit")),
            ("job", spec.to_json()),
        ]))?;
        let json = self.response_of_type("job-accepted")?;
        json.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("job-accepted without id".to_string()))
    }

    /// Blocks until job `id` finishes, routing interleaved events.
    ///
    /// # Errors
    ///
    /// Protocol/i-o failures; never an error for a job that *ran* —
    /// failures are in the returned [`JobOutcome`].
    pub fn wait(&mut self, id: u64) -> Result<JobOutcome, ClientError> {
        loop {
            if let Some(outcome) = self.finished.remove(&id) {
                return Ok(outcome);
            }
            let json = self.next_response()?;
            match json.get("type").and_then(Json::as_str) {
                Some("job-finished") => self.buffer_finished(&json)?,
                Some("error") => return Err(Self::take_error(&json)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response type {other:?} while waiting for job {id}"
                    )))
                }
            }
        }
    }

    /// Convenience: submit then wait.
    ///
    /// # Errors
    ///
    /// See [`submit`](Client::submit) and [`wait`](Client::wait).
    pub fn run_job(&mut self, spec: &JobSpec) -> Result<JobOutcome, ClientError> {
        let id = self.submit(spec)?;
        self.wait(id)
    }

    /// Asks the server to replay job `id`'s terminal outcome. Returns
    /// `Ok(Some(outcome))` when finished, `Ok(None)` when the job is
    /// still queued/running.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with code `unknown-job` for an id this
    /// daemon does not know: one it never issued (e.g. it restarted and
    /// lost its state) or one whose outcome it dropped ([`FINISHED_KEPT`]).
    pub fn result(&mut self, id: u64) -> Result<Option<JobOutcome>, ClientError> {
        if let Some(outcome) = self.finished.remove(&id) {
            return Ok(Some(outcome));
        }
        self.send(&Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("result")),
            ("id", Json::from(id)),
        ]))?;
        loop {
            let json = self.next_response()?;
            match json.get("type").and_then(Json::as_str) {
                Some("job-finished") => {
                    let outcome = JobOutcome::from_json(&json).map_err(ClientError::Protocol)?;
                    if outcome.id == id {
                        return Ok(Some(outcome));
                    }
                    self.finished.insert(outcome.id, outcome);
                }
                Some("status") => return Ok(None),
                Some("error") => return Err(Self::take_error(&json)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response type {other:?} while polling result of job {id}"
                    )))
                }
            }
        }
    }

    /// [`wait`](Client::wait), hardened against losing the daemon
    /// mid-stream: on disconnect it reconnects with backoff and resumes
    /// by id via the `result` request; if the daemon no longer knows
    /// the id (`unknown-job`: it restarted, or dropped the outcome, see
    /// [`FINISHED_KEPT`]), the job is resubmitted from `spec`. Interleaved events that were in flight when the
    /// connection died are lost — the terminal outcome is not.
    ///
    /// # Errors
    ///
    /// Non-recoverable failures only: typed rejections other than
    /// `unknown-job`, protocol violations, or running out of reconnect
    /// attempts.
    pub fn wait_or_resubmit(
        &mut self,
        id: u64,
        spec: &JobSpec,
    ) -> Result<JobOutcome, ClientError> {
        let mut id = id;
        'wait: loop {
            match self.wait(id) {
                Ok(outcome) => return Ok(outcome),
                Err(ClientError::Disconnected(_)) => {}
                Err(other) => return Err(other),
            }
            self.reconnect()?;
            loop {
                match self.result(id) {
                    Ok(Some(outcome)) => return Ok(outcome),
                    // Still queued/running. The push notification went
                    // to the connection that died, so a blocking wait
                    // on this one would hang forever: poll instead.
                    Ok(None) => std::thread::sleep(Duration::from_millis(200)),
                    Err(ClientError::Rejected { code, .. }) if code == "unknown-job" => {
                        // The daemon restarted or dropped the outcome.
                        // The spec is idempotent (same design, same seed):
                        // resubmit and wait on the fresh id.
                        id = self.submit(spec)?;
                        continue 'wait;
                    }
                    Err(ClientError::Disconnected(_)) => self.reconnect()?,
                    Err(other) => return Err(other),
                }
            }
        }
    }

    /// Fetches the server's `stats` object (job counters, queue depth,
    /// cache hit/miss/eviction counts).
    ///
    /// # Errors
    ///
    /// Protocol/i-o failures.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.send(&Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("stats")),
        ]))?;
        self.response_of_type("stats")
    }

    /// Polls one job's lifecycle state.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with code `unknown-job` for an id the
    /// server never issued.
    pub fn status(&mut self, id: u64) -> Result<Json, ClientError> {
        self.send(&Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("status")),
            ("id", Json::from(id)),
        ]))?;
        self.response_of_type("status")
    }

    /// Cancels a queued job (running/finished jobs are unaffected);
    /// returns the job's post-request status.
    ///
    /// # Errors
    ///
    /// See [`status`](Client::status).
    pub fn cancel(&mut self, id: u64) -> Result<Json, ClientError> {
        self.send(&Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("cancel")),
            ("id", Json::from(id)),
        ]))?;
        self.response_of_type("status")
    }

    /// Asks the server to drain and stop; blocks until the ack.
    ///
    /// # Errors
    ///
    /// Protocol/i-o failures.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.send(&Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("shutdown")),
        ]))?;
        self.response_of_type("shutdown-ack")
    }

    /// The load-shedding shutdown: queued jobs are cancelled (each
    /// still reported with a terminal `cancelled` outcome), only
    /// in-flight jobs are awaited. Blocks until the ack.
    ///
    /// # Errors
    ///
    /// Protocol/i-o failures.
    pub fn shutdown_shed(&mut self) -> Result<Json, ClientError> {
        self.send(&Json::obj([
            ("schema", Json::from(SERVE_SCHEMA)),
            ("type", Json::from("shutdown")),
            ("shed", Json::from(true)),
        ]))?;
        self.response_of_type("shutdown-ack")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(spec: &JobSpec) -> JobSpec {
        let line = spec.to_json().emit();
        let json = Json::parse(&line).expect("emitted job parses");
        JobSpec::from_json(&json).expect("parsed job converts")
    }

    #[test]
    fn job_spec_round_trips_through_json() {
        let mut spec = JobSpec::faults("fdct", "mem a[4]; void main() { a[0] = 1; }", 7, 25)
            .stimulus("a", Stimulus::from_values([1, 2, 3, 4]));
        spec.width = Some(24);
        spec.partitions = Some(2);
        spec.policy = Some(SchedulePolicy::OneOpPerState);
        spec.optimize = true;
        spec.engine = "level".parse().expect("engine parses");
        spec.max_ticks = Some(9000);
        spec.wall_ms = Some(1234);
        spec.events = true;
        spec.planted_panic = true;
        spec.no_cache = true;
        let back = round_trip(&spec);
        assert_eq!(back.kind, JobKind::Faults);
        assert_eq!(back.name, spec.name);
        assert_eq!(back.source, spec.source);
        assert_eq!(back.stimuli.len(), 1);
        assert_eq!(back.stimuli[0].0, "a");
        assert_eq!(back.stimuli[0].1.words, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(back.width, Some(24));
        assert_eq!(back.partitions, Some(2));
        assert_eq!(back.policy, Some(SchedulePolicy::OneOpPerState));
        assert!(back.optimize);
        assert_eq!(back.engine.to_string(), "level");
        assert_eq!(back.max_ticks, Some(9000));
        assert_eq!(back.wall_ms, Some(1234));
        assert!(back.events);
        assert_eq!(back.seed, 7);
        assert_eq!(back.sites, 25);
        assert!(back.planted_panic);
        assert!(back.no_cache);
    }

    #[test]
    fn minimal_job_gets_defaults() {
        let json = Json::parse(r#"{"kind":"test","name":"n","source":"s"}"#).expect("parses");
        let spec = JobSpec::from_json(&json).expect("minimal job converts");
        assert_eq!(spec.kind, JobKind::Test);
        assert!(spec.stimuli.is_empty());
        assert_eq!(spec.width, None);
        assert_eq!(spec.engine, Engine::default());
        assert!(!spec.events);
        assert!(!spec.no_cache);
    }

    #[test]
    fn bad_jobs_are_rejected_with_reasons() {
        for (text, needle) in [
            (r#"{"name":"n","source":"s"}"#, "kind"),
            (r#"{"kind":"bogus","name":"n","source":"s"}"#, "bogus"),
            (r#"{"kind":"test","source":"s"}"#, "name"),
            (r#"{"kind":"test","name":"n"}"#, "source"),
            (
                r#"{"kind":"test","name":"n","source":"s","policy":"greedy"}"#,
                "greedy",
            ),
        ] {
            let json = Json::parse(text).expect("test input parses");
            let err = JobSpec::from_json(&json).expect_err("must reject");
            assert!(err.contains(needle), "error {err:?} should mention {needle}");
        }
    }

    #[test]
    fn requests_parse_and_reject() {
        let ok = Json::parse(r#"{"type":"stats"}"#).expect("parses");
        assert!(matches!(parse_request(&ok), Ok(Request::Stats)));
        let ok = Json::parse(r#"{"type":"cancel","id":3}"#).expect("parses");
        assert!(matches!(parse_request(&ok), Ok(Request::Cancel(3))));
        let bad = Json::parse(r#"{"type":"noop"}"#).expect("parses");
        assert!(parse_request(&bad).is_err());
        let bad = Json::parse(r#"{"type":"submit"}"#).expect("parses");
        assert!(parse_request(&bad).is_err());
        let bad = Json::parse(r#"{"type":"status"}"#).expect("parses");
        assert!(parse_request(&bad).is_err());
    }

    #[test]
    fn outcome_round_trips() {
        let outcome = JobOutcome {
            id: 12,
            verdict: "timeout".to_string(),
            exit_code: 4,
            wall_seconds: 1.5,
            attempts: 3,
            detail: "wall clock exceeded 10 ms".to_string(),
            report: Json::Null,
        };
        let json = Json::parse(&outcome.to_json().emit()).expect("parses");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(SERVE_SCHEMA)
        );
        let back = JobOutcome::from_json(&json).expect("converts");
        assert_eq!(back.id, 12);
        assert_eq!(back.verdict, "timeout");
        assert_eq!(back.exit_code, 4);
        assert_eq!(back.attempts, 3);
        assert_eq!(back.detail, outcome.detail);
        // Outcomes from older daemons (no attempts field) default to 1.
        let legacy = Json::parse(r#"{"type":"job-finished","id":5,"verdict":"pass","exit_code":0}"#)
            .expect("parses");
        assert_eq!(JobOutcome::from_json(&legacy).expect("converts").attempts, 1);
    }

    #[test]
    fn result_and_shed_requests_parse() {
        let ok = Json::parse(r#"{"type":"result","id":9}"#).expect("parses");
        assert!(matches!(parse_request(&ok), Ok(Request::Result(9))));
        let plain = Json::parse(r#"{"type":"shutdown"}"#).expect("parses");
        assert!(matches!(
            parse_request(&plain),
            Ok(Request::Shutdown { shed: false })
        ));
        let shed = Json::parse(r#"{"type":"shutdown","shed":true}"#).expect("parses");
        assert!(matches!(
            parse_request(&shed),
            Ok(Request::Shutdown { shed: true })
        ));
        let bad = Json::parse(r#"{"type":"result"}"#).expect("parses");
        assert!(parse_request(&bad).is_err());
    }

    #[test]
    fn backoff_grows_exponentially_and_stays_bounded() {
        // Deterministic: same (base, attempt, id) → same delay.
        assert_eq!(backoff_delay(50, 1, 7), backoff_delay(50, 1, 7));
        for attempt in 1..=12u64 {
            for id in [1u64, 2, 99] {
                let delay = backoff_delay(50, attempt, id).as_millis() as u64;
                let exp = 50u64.saturating_mul(1 << (attempt - 1).min(16)).min(BACKOFF_CAP_MS);
                assert!(delay >= exp, "attempt {attempt}: {delay} < floor {exp}");
                assert!(
                    delay <= exp + exp / 2,
                    "attempt {attempt}: {delay} > {exp} + 50% jitter"
                );
                assert!(delay <= BACKOFF_CAP_MS * 3 / 2, "cap holds");
            }
        }
        // Jitter decorrelates different jobs at the same attempt.
        let spread: std::collections::HashSet<u128> = (0..16)
            .map(|id| backoff_delay(50, 4, id).as_millis())
            .collect();
        assert!(spread.len() > 1, "jitter varies by job id");
    }
}
