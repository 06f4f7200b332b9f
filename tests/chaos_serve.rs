//! Fault-injection harness for the fault-tolerance layer: jobs that
//! crash, hang or are cancelled or shed, clients that stall, flood,
//! speak garbage or vanish, queues pushed past their admission bound,
//! finished-job memory pushed past its bound, and checkpoints torn
//! mid-write. The invariants under test:
//!
//! - the daemon stays up through all of it;
//! - every accepted job reaches **exactly one** terminal outcome;
//! - a resumed campaign is byte-identical to an uninterrupted one.

use fpgatest::events::EventSink;
use fpgatest::faults::{run_campaign_sharded, CampaignOptions, ShardedCampaignOptions};
use fpgatest::flow::Engine;
use fpgatest::serve::{Client, ClientError, JobSpec, ServeOptions, Server, FINISHED_KEPT};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::TestCase;
use fpgatest::telemetry::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SCALE_SRC: &str = "mem inp[8]; mem out[8];
     void main() { int i; for (i = 0; i < 8; i = i + 1) { out[i] = inp[i] * 3; } }";

fn scale_job(name: &str) -> JobSpec {
    JobSpec::test(name, SCALE_SRC).stimulus("inp", Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]))
}

/// A job that hangs until its wall-clock watchdog: occupies a worker
/// for ~`wall_ms` and then finishes with the `timeout` verdict, in any
/// build. The loop runs 7 M cycles, which took about 4 s in a release
/// build and 30 s in a debug build on a 2-vCPU x86-64 host.
fn hog_job(wall_ms: u64) -> JobSpec {
    let mut hog = JobSpec::test(
        "spin-hog",
        "mem out[1]; void main() { int i; int s; s = 0; \
         for (i = 0; i < 1000000; i = i + 1) { s = s + i; } out[0] = s; }",
    );
    hog.width = Some(32);
    hog.wall_ms = Some(wall_ms);
    hog
}

fn start_server(options: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", options).expect("bind test daemon");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn stat(stats: &Json, name: &str) -> u64 {
    stats
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats carries {name}: {}", stats.emit()))
}

/// A raw protocol connection, bypassing `Client` so tests can send
/// malformed frames and count response lines without interpretation.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn connect(addr: &str) -> RawConn {
        let writer = TcpStream::connect(addr).expect("raw connect");
        writer.set_nodelay(true).expect("nodelay");
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        RawConn { reader, writer }
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("raw write");
        self.writer.flush().expect("raw flush");
    }

    fn send_json(&mut self, json: &Json) {
        self.send_bytes(format!("{}\n", json.emit()).as_bytes());
    }

    /// Reads one response line; `None` means the server closed the
    /// connection. Panics after 60 s — a wedged daemon IS the failure.
    fn read_line(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).expect("server speaks JSON")),
            Err(e) => panic!("daemon wedged: no response within the read timeout: {e}"),
        }
    }

    /// Asserts the next line is a typed `error` with `code`.
    fn expect_error(&mut self, code: &str) {
        let json = self.read_line().expect("error line before close");
        assert_eq!(json.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(
            json.get("code").and_then(Json::as_str),
            Some(code),
            "typed code: {}",
            json.emit()
        );
    }

    /// Asserts the server closed the connection. A reset counts: the
    /// server closing with unread bytes still in its receive buffer
    /// (a flood it refused to parse) surfaces as RST, not FIN.
    fn expect_eof(&mut self) {
        let mut rest = Vec::new();
        match self.reader.read_to_end(&mut rest) {
            Ok(0) => {}
            Ok(n) => panic!("expected EOF, got {n} more bytes"),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("expected EOF, got error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Exactly-once terminal outcomes
// ---------------------------------------------------------------------------

/// The type of a serve line, or the `event` of an event line.
fn line_type(json: &Json) -> &str {
    json.get("type")
        .or_else(|| json.get("event"))
        .and_then(Json::as_str)
        .unwrap_or("")
}

fn line_id(json: &Json) -> u64 {
    json.get("id").and_then(Json::as_u64).expect("id")
}

fn is_unknown_job<T>(result: Result<T, ClientError>) -> bool {
    matches!(result, Err(ClientError::Rejected { code, .. }) if code == "unknown-job")
}

/// Reads `conn` into `lines` until `done` holds for them.
fn read_until(conn: &mut RawConn, lines: &mut Vec<Json>, done: impl Fn(&[Json]) -> bool) {
    while !done(lines) {
        lines.push(conn.read_line().expect("line before close"));
    }
}

/// Sends `request` on `conn` and reads its one reply.
fn call(conn: &mut RawConn, request: &Json) -> Json {
    conn.send_json(request);
    conn.read_line().expect("reply")
}

/// Every terminal path, counted over the raw wire with events on: a
/// pass, a planted-panic crash, two wall-budget timeouts, a job
/// cancelled while queued, and two jobs shed by a `"shed":true`
/// shutdown. Each accepted id gets exactly one `job-finished`, and its
/// event stream exactly one serve-level `campaign-finished`, which
/// arrives before the `job-finished`. Cancelling a running job answers
/// `running` and the job finishes on its own; an unknown id answers
/// `unknown-job`.
#[test]
fn every_terminal_path_reports_each_job_exactly_once() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    // One worker runs the jobs in order: `blocker` holds `cancelled` in
    // the queue until it is cancelled, and `spin-hog` holds the `shed-*`
    // jobs there until the shed shutdown.
    let mut crash = scale_job("crash");
    crash.planted_panic = true;
    let mut blocker = hog_job(600);
    blocker.name = "blocker".to_string();
    let specs = [
        scale_job("pass"),
        crash,
        blocker,
        scale_job("cancelled"),
        hog_job(600),
        scale_job("shed-1"),
        scale_job("shed-2"),
    ];
    let mut burst = RawConn::connect(&addr);
    for spec in &specs {
        let mut spec = spec.clone();
        spec.events = true;
        burst.send_json(&Json::obj([
            ("type", Json::from("submit")),
            ("job", spec.to_json()),
        ]));
    }
    let mut lines = Vec::new();
    let accepted = |lines: &[Json]| -> Vec<u64> {
        lines
            .iter()
            .filter(|line| line_type(line) == "job-accepted")
            .map(line_id)
            .collect()
    };
    read_until(&mut burst, &mut lines, |lines| {
        accepted(lines).len() == specs.len()
    });
    let ids = accepted(&lines);
    let id_of = |name: &str| ids[specs.iter().position(|spec| spec.name == name).expect(name)];

    let mut control = RawConn::connect(&addr);
    let request = |kind: &str, id: u64| Json::obj([("type", Json::from(kind)), ("id", Json::from(id))]);
    let state = |reply: &Json| reply.get("state").and_then(Json::as_str).map(str::to_string);
    while state(&call(&mut control, &request("status", id_of("blocker")))).as_deref()
        != Some("running")
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let running = call(&mut control, &request("cancel", id_of("blocker")));
    assert_eq!(state(&running).as_deref(), Some("running"), "{}", running.emit());
    let queued = call(&mut control, &request("cancel", id_of("cancelled")));
    assert_eq!(state(&queued).as_deref(), Some("cancelled"), "{}", queued.emit());
    control.send_json(&request("cancel", 1_000_000));
    control.expect_error("unknown-job");

    // Shed the queue once `cancelled` has left it, while the hog runs.
    let finished = |lines: &[Json], id: u64| {
        lines
            .iter()
            .any(|line| line_type(line) == "job-finished" && line_id(line) == id)
    };
    read_until(&mut burst, &mut lines, |lines| {
        finished(lines, id_of("cancelled"))
    });
    let shed = Json::obj([("type", Json::from("shutdown")), ("shed", Json::from(true))]);
    let ack = call(&mut control, &shed);
    assert_eq!(line_type(&ack), "shutdown-ack", "{}", ack.emit());
    assert_eq!(ack.get("shed").and_then(Json::as_u64), Some(2));
    read_until(&mut burst, &mut lines, |lines| {
        ids.iter().all(|&id| finished(lines, id))
    });
    // A second terminal line would follow the first: give it time.
    burst
        .writer
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("read timeout");
    let mut rest = String::new();
    let _ = burst.reader.read_to_string(&mut rest);
    lines.extend(rest.lines().map(|line| Json::parse(line).expect("server speaks JSON")));

    // (job, verdict, a word of its detail)
    let expected = [
        ("pass", "pass", ""),
        ("crash", "crash", "panic"),
        ("blocker", "timeout", "wall clock"),
        ("cancelled", "cancelled", "cancelled while queued"),
        ("spin-hog", "timeout", "wall clock"),
        ("shed-1", "cancelled", "shed"),
        ("shed-2", "cancelled", "shed"),
    ];
    for (name, verdict, detail) in expected {
        let id = id_of(name);
        let terminal: Vec<usize> = (0..lines.len())
            .filter(|&at| line_type(&lines[at]) == "job-finished" && line_id(&lines[at]) == id)
            .collect();
        assert_eq!(terminal.len(), 1, "job {name} got one terminal outcome");
        let outcome = &lines[terminal[0]];
        assert_eq!(
            outcome.get("verdict").and_then(Json::as_str),
            Some(verdict),
            "{}",
            outcome.emit()
        );
        let said = outcome.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(said.contains(detail), "{}", outcome.emit());
        let key = format!("test:{name}");
        let closing: Vec<usize> = (0..lines.len())
            .filter(|&at| {
                let line = &lines[at];
                line_type(line) == "campaign-finished"
                    && line.get("kind").and_then(Json::as_str) == Some("serve")
                    && line.get("key").and_then(Json::as_str) == Some(key.as_str())
            })
            .collect();
        assert_eq!(closing.len(), 1, "job {name}'s stream ends once");
        assert!(
            closing[0] < terminal[0],
            "job {name}'s campaign-finished precedes its job-finished"
        );
    }
    server.join().expect("server thread").expect("server run");
}

/// Only the newest [`FINISHED_KEPT`] finished outcomes stay: after
/// `FINISHED_KEPT + 4` jobs the four oldest ids answer `unknown-job` to
/// `status`, `result` and `cancel`, the newest still replay, and
/// `wait_or_resubmit` on an evicted id passes under a fresh id.
#[test]
fn finished_outcomes_are_bounded_and_evicted_ids_resubmit() {
    const EVICTED: usize = 4;
    // One worker finishes the jobs in submission order; an unbounded
    // queue takes the whole burst.
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        max_queue: 0,
        ..ServeOptions::default()
    });
    let spec = scale_job("bounded");
    let total = FINISHED_KEPT + EVICTED;
    let mut burst = RawConn::connect(&addr);
    for _ in 0..total {
        burst.send_json(&Json::obj([
            ("type", Json::from("submit")),
            ("job", spec.to_json()),
        ]));
    }
    let (mut ids, mut finished) = (Vec::new(), 0);
    while ids.len() < total || finished < total {
        let line = burst.read_line().expect("line before close");
        match line_type(&line) {
            "job-accepted" => ids.push(line_id(&line)),
            "job-finished" => finished += 1,
            other => panic!("unexpected response type {other:?}"),
        }
    }

    let mut client = Client::connect(&addr).expect("connect");
    for &id in &ids[..EVICTED] {
        assert!(is_unknown_job(client.status(id)), "job {id} was evicted");
        assert!(is_unknown_job(client.result(id)), "job {id} was evicted");
        assert!(is_unknown_job(client.cancel(id)), "job {id} was evicted");
    }
    for id in [ids[EVICTED], ids[total - 1]] {
        let replay = client.result(id).expect("replay").expect("finished");
        assert_eq!((replay.id, replay.verdict.as_str()), (id, "pass"));
    }

    client.sever();
    let outcome = client
        .wait_or_resubmit(ids[0], &spec)
        .expect("resubmit on an evicted id");
    assert_eq!(outcome.verdict, "pass");
    assert!(outcome.id > ids[total - 1], "a fresh submission ran");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// A job whose every attempt crashes burns its retry budget and lands
/// in quarantine: typed `quarantined` verdict, the attempt count in the
/// outcome, and a `quarantined` entry in the stats.
#[test]
fn retry_exhaustion_quarantines_the_job() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        retries: 2,
        backoff_base_ms: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    let mut poison = scale_job("poison");
    poison.planted_panic = true;
    let outcome = client.run_job(&poison).expect("quarantine is terminal");
    assert_eq!(outcome.verdict, "quarantined");
    assert_eq!(outcome.exit_code, 3, "keeps the last failure's exit code");
    assert_eq!(outcome.attempts, 3, "retries 2 = three attempts");
    assert!(
        outcome.detail.contains("quarantined after 3 attempts"),
        "detail names the budget: {}",
        outcome.detail
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "retried"), 2);
    let quarantined = match stats.get("quarantined") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("stats carries the quarantined list, got {other:?}"),
    };
    assert_eq!(quarantined.len(), 1);
    assert_eq!(
        quarantined[0].get("id").and_then(Json::as_u64),
        Some(outcome.id)
    );

    // Quarantine poisons the job, not the daemon.
    let ok = client.run_job(&scale_job("after-poison")).expect("healthy job");
    assert_eq!(ok.verdict, "pass");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Hostile clients: deadlines, frame caps, protocol garbage
// ---------------------------------------------------------------------------

/// A client that sends half a request line and stalls gets the typed
/// `deadline` error and its connection closed — it cannot pin a
/// connection thread forever (slow-loris guard).
#[test]
fn stalled_partial_request_line_gets_the_deadline_error() {
    let (addr, server) = start_server(ServeOptions {
        read_deadline_ms: 150,
        ..ServeOptions::default()
    });

    let mut stall = RawConn::connect(&addr);
    stall.send_bytes(b"{\"type\":\"stat"); // no newline, ever
    stall.expect_error("deadline");
    stall.expect_eof();

    // The stall cost the daemon one connection thread, nothing more.
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.run_job(&scale_job("after-stall")).expect("job").verdict, "pass");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// A request line past the frame cap gets the typed `frame-too-long`
/// error and a closed connection — with or without a newline, so a
/// newline-free byte flood cannot grow the buffer without bound.
#[test]
fn oversized_request_lines_get_the_frame_too_long_error() {
    let (addr, server) = start_server(ServeOptions {
        max_line_len: 1024,
        ..ServeOptions::default()
    });

    // Oversized but newline-terminated.
    let mut terminated = RawConn::connect(&addr);
    let mut flood = vec![b'x'; 4096];
    flood.push(b'\n');
    terminated.send_bytes(&flood);
    terminated.expect_error("frame-too-long");
    terminated.expect_eof();

    // A newline-free flood trips the same cap from the buffer side.
    let mut unterminated = RawConn::connect(&addr);
    unterminated.send_bytes(&vec![b'y'; 4096]);
    unterminated.expect_error("frame-too-long");
    unterminated.expect_eof();

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.run_job(&scale_job("after-flood")).expect("job").verdict, "pass");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Malformed JSON, structurally valid but unknown requests, and binary
/// garbage each get a typed `bad-request` error on the same connection,
/// and a well-formed job afterwards still succeeds.
#[test]
fn protocol_garbage_gets_typed_errors_and_the_daemon_keeps_serving() {
    let (addr, server) = start_server(ServeOptions::default());
    let mut conn = RawConn::connect(&addr);

    conn.send_bytes(b"{this is not json\n");
    conn.expect_error("bad-request");

    conn.send_json(&Json::obj([("type", Json::from("frobnicate"))]));
    conn.expect_error("bad-request");

    conn.send_json(&Json::obj([("no-type", Json::from(1u64))]));
    conn.expect_error("bad-request");

    conn.send_bytes(b"\x00\x01\xfe\xff\x80garbage\n");
    conn.expect_error("bad-request");

    // Same connection, well-formed request: still served.
    conn.send_json(&Json::obj([
        ("type", Json::from("submit")),
        ("job", scale_job("after-garbage").to_json()),
    ]));
    let accepted = conn.read_line().expect("accepted");
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("job-accepted")
    );
    let done = conn.read_line().expect("finished");
    assert_eq!(done.get("type").and_then(Json::as_str), Some("job-finished"));
    assert_eq!(done.get("verdict").and_then(Json::as_str), Some("pass"));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Backpressure: bounded admission and load shedding
// ---------------------------------------------------------------------------

/// With one worker occupied and the admission queue full, the next
/// submission gets the typed `overloaded` rejection; the accepted jobs
/// still finish normally.
#[test]
fn full_admission_queue_rejects_with_the_typed_overloaded_error() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        max_queue: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    let hog_id = client.submit(&hog_job(600)).expect("submit hog");
    std::thread::sleep(Duration::from_millis(150)); // worker picks up the hog
    let queued_id = client.submit(&scale_job("queued")).expect("fills the queue");

    match client.submit(&scale_job("rejected")) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "overloaded"),
        other => panic!("full queue must reject, got {other:?}"),
    }

    assert_eq!(client.wait(hog_id).expect("hog").verdict, "timeout");
    assert_eq!(client.wait(queued_id).expect("queued").verdict, "pass");
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "overloaded"), 1);
    assert_eq!(stat(&stats, "finished"), 2);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// The shed shutdown cancels the queue instead of running it: each
/// queued job still gets its terminal `job-finished` line (verdict
/// `cancelled`), the running job drains normally, and the ack reports
/// how many jobs were shed.
#[test]
fn shed_shutdown_cancels_queued_jobs_with_terminal_outcomes() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut submitter = Client::connect(&addr).expect("connect submitter");

    let hog_id = submitter.submit(&hog_job(600)).expect("submit hog");
    std::thread::sleep(Duration::from_millis(150));
    let q1 = submitter.submit(&scale_job("shed-1")).expect("submit shed-1");
    let q2 = submitter.submit(&scale_job("shed-2")).expect("submit shed-2");

    let shedder = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut control = Client::connect(&addr).expect("connect shedder");
            control.shutdown_shed().expect("shed shutdown acknowledges")
        }
    });

    for id in [q1, q2] {
        let outcome = submitter.wait(id).expect("shed outcome");
        assert_eq!(outcome.verdict, "cancelled", "queued job was shed");
        assert_eq!(outcome.exit_code, 2);
        assert!(
            outcome.detail.contains("shed"),
            "detail says why: {}",
            outcome.detail
        );
    }
    assert_eq!(submitter.wait(hog_id).expect("hog").verdict, "timeout");

    let ack = shedder.join().expect("shedder thread");
    assert_eq!(ack.get("shed").and_then(Json::as_u64), Some(2));
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Client-side resilience: disconnects and resume-by-id
// ---------------------------------------------------------------------------

/// A client that vanishes mid-event-stream must not take the job with
/// it: the daemon's writes fail (EPIPE), the sink is muted, and the job
/// still reaches its normal terminal outcome — verdict, ledger line,
/// and stats all unchanged.
#[test]
fn client_disconnect_mid_stream_mutes_events_without_losing_the_job() {
    let dir = std::env::temp_dir().join("fpgatest_chaos_epipe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ledger = dir.join("serve.ledger");

    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        ledger: Some(ledger.clone()),
        ..ServeOptions::default()
    });

    let id = {
        let mut doomed = Client::connect(&addr).expect("connect doomed");
        let mut spec = scale_job("epipe");
        spec.events = true; // stream events at the connection that dies
        doomed.submit(&spec).expect("submit")
        // `doomed` drops here: the socket closes while the job runs.
    };

    // The job still finishes; poll its state from a second connection.
    let mut observer = Client::connect(&addr).expect("connect observer");
    let outcome = loop {
        match observer.result(id).expect("result") {
            Some(outcome) => break outcome,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert_eq!(outcome.verdict, "pass", "orphaned job completes normally");
    assert_eq!(outcome.attempts, 1);

    let stats = observer.stats().expect("stats");
    assert_eq!(stat(&stats, "submitted"), 1);
    assert_eq!(stat(&stats, "finished"), 1);

    // The ledger line is the last step of a job's terminal bookkeeping,
    // after its outcome is replayable: read it once the workers joined.
    observer.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    assert!(
        text.contains("epipe") && text.contains("pass"),
        "ledger records the orphaned job's pass: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Losing the connection does not lose the job: after a severed socket,
/// `wait_or_resubmit` reconnects and recovers the terminal outcome via
/// the `result` replay; for an id the daemon never issued it falls back
/// to resubmitting the spec.
#[test]
fn severed_client_resumes_by_job_id_or_resubmits() {
    let (addr, server) = start_server(ServeOptions::default());
    let spec = scale_job("resume-me");

    // Resume path: the job finishes while the client is gone.
    let mut client = Client::connect(&addr).expect("connect");
    let id = client.submit(&spec).expect("submit");
    let mut observer = Client::connect(&addr).expect("connect observer");
    while observer.result(id).expect("poll").is_none() {
        std::thread::sleep(Duration::from_millis(20));
    }
    client.sever();
    let outcome = client.wait_or_resubmit(id, &spec).expect("resume by id");
    assert_eq!(outcome.id, id, "same job, replayed");
    assert_eq!(outcome.verdict, "pass");

    // Resubmit path: an id from "before the daemon restarted" draws the
    // unknown-job rejection, and the client transparently resubmits.
    client.sever();
    let outcome = client
        .wait_or_resubmit(id + 1_000_000, &spec)
        .expect("resubmit on unknown id");
    assert_eq!(outcome.verdict, "pass");
    assert_ne!(outcome.id, id + 1_000_000, "a fresh submission ran");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Checkpoint chaos: torn files, salvage, byte-identical resume
// ---------------------------------------------------------------------------

const CAMPAIGN_PROGRAM: &str = "mem inp[4]; mem out[4];
void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2 + 1; } }";

fn campaign_case(name: &str) -> TestCase {
    TestCase::new(name, CAMPAIGN_PROGRAM).with_stimulus("inp", Stimulus::from_values([3, 1, 4, 1]))
}

fn campaign_options(sites: usize) -> CampaignOptions {
    CampaignOptions {
        seed: 5,
        sites,
        engine: Engine::Event,
        max_ticks: None,
        events: EventSink::disabled(),
    }
}

/// Records as comparable `(fault, outcome, detail)` strings.
fn record_strings(report: &fpgatest::faults::CampaignReport) -> Vec<(String, String, String)> {
    report
        .injections
        .iter()
        .map(|r| (r.fault.to_string(), r.outcome.to_string(), r.detail.clone()))
        .collect()
}

/// Kill a sharded campaign mid-run, tear its checkpoint (trailing
/// garbage — a torn concurrent write), then `--resume`: the salvage
/// loader recovers the longest valid prefix and the finished campaign
/// is byte-identical to an uninterrupted reference run.
#[test]
fn torn_checkpoint_salvages_and_resumes_byte_identical() {
    let dir = std::env::temp_dir().join("fpgatest_chaos_torn_checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let checkpoint = dir.join("faults.ckpt");

    let case = campaign_case("tornckpt");
    let reference = run_campaign_sharded(
        &case,
        &campaign_options(48),
        &ShardedCampaignOptions {
            shards: 2,
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("reference run");
    assert!(!reference.interrupted);

    // Interrupt mid-campaign via the cooperative stop flag.
    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            stop.store(true, Ordering::SeqCst);
        })
    };
    let first = run_campaign_sharded(
        &case,
        &campaign_options(48),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every: 1,
            stop: Some(stop),
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("interrupted run");
    timer.join().expect("timer thread");

    let final_records = if !first.interrupted {
        // Outran the timer: the run is its own uninterrupted comparison.
        record_strings(&first.report)
    } else {
        // Tear the checkpoint the way a dying writer would: valid JSON
        // followed by garbage bytes. (The interrupt can land before the
        // first save; then there is nothing to tear and the rerun is a
        // plain full campaign.)
        let torn = checkpoint.exists();
        if torn {
            let mut bytes = std::fs::read(&checkpoint).expect("read checkpoint");
            bytes.extend_from_slice(b"\xff\xfe{{{ torn mid-write");
            std::fs::write(&checkpoint, &bytes).expect("tear checkpoint");
        }
        let resumed = run_campaign_sharded(
            &case,
            &campaign_options(48),
            &ShardedCampaignOptions {
                shards: 2,
                resume: torn.then(|| checkpoint.clone()),
                ..ShardedCampaignOptions::default()
            },
        )
        .expect("salvage + resume");
        assert!(!resumed.interrupted);
        if torn {
            assert!(resumed.resumed > 0, "the salvaged prefix was reused");
            assert!(
                resumed.salvage.is_some(),
                "the torn checkpoint was reported as salvaged"
            );
        }
        record_strings(&resumed.report)
    };
    assert_eq!(
        record_strings(&reference.report),
        final_records,
        "resumed campaign is byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncating the primary checkpoint to half its bytes (no garbage, a
/// clean torn tail) falls back to the previous generation and still
/// resumes to the reference bytes.
#[test]
fn truncated_checkpoint_falls_back_to_the_previous_generation() {
    let dir = std::env::temp_dir().join("fpgatest_chaos_truncated_checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let checkpoint = dir.join("faults.ckpt");

    let case = campaign_case("truncckpt");
    let reference = run_campaign_sharded(
        &case,
        &campaign_options(32),
        &ShardedCampaignOptions {
            shards: 2,
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("reference run");

    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            stop.store(true, Ordering::SeqCst);
        })
    };
    let first = run_campaign_sharded(
        &case,
        &campaign_options(32),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every: 1,
            stop: Some(stop),
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("interrupted run");
    timer.join().expect("timer thread");

    let final_records = if !first.interrupted {
        // Outran the timer: the run is its own uninterrupted comparison.
        record_strings(&first.report)
    } else {
        // The save cadence can lag the merge count, so the interrupt
        // may land before a second generation exists; only truncate
        // when there is a `.prev` to fall back to. (The exhaustive
        // every-byte-boundary truncation matrix lives in the campaign
        // unit tests.)
        let torn = checkpoint.with_extension("prev").exists();
        if torn {
            let bytes = std::fs::read(&checkpoint).expect("read checkpoint");
            std::fs::write(&checkpoint, &bytes[..bytes.len() / 2]).expect("truncate");
        }
        let resumed = run_campaign_sharded(
            &case,
            &campaign_options(32),
            &ShardedCampaignOptions {
                shards: 2,
                resume: checkpoint.exists().then(|| checkpoint.clone()),
                ..ShardedCampaignOptions::default()
            },
        )
        .expect("fallback + resume");
        assert!(!resumed.interrupted);
        if torn {
            assert!(
                resumed.salvage.is_some(),
                "the fallback generation was reported"
            );
        }
        record_strings(&resumed.report)
    };
    assert_eq!(record_strings(&reference.report), final_records);
    let _ = std::fs::remove_dir_all(&dir);
}
