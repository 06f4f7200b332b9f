//! Integration tests of the `fpgatest` command-line binary.

use fpgatest::telemetry::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpgatest"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpgatest_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_demo(dir: &Path) {
    std::fs::write(
        dir.join("prog.src"),
        "mem inp[4]; mem out[4];
         void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2; } }",
    )
    .unwrap();
    std::fs::write(dir.join("inp.stim"), "0: 10\n1: 20\n2: 30\n3: 40\n").unwrap();
}

#[test]
fn help_and_figure1() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());

    let out = bin().arg("figure1").output().unwrap();
    assert!(out.status.success());
    let dot = String::from_utf8(out.stdout).unwrap();
    assert!(dot.starts_with("digraph infrastructure"));
}

#[test]
fn test_subcommand_passes_and_writes_artifacts() {
    let dir = workdir("test");
    write_demo(&dir);
    let art = dir.join("art");
    let out = bin()
        .arg("test")
        .arg(dir.join("prog.src"))
        .arg("--stimulus")
        .arg(format!("inp={}", dir.join("inp.stim").display()))
        .arg("--trace")
        .arg("--artifacts")
        .arg(&art)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("PASS"));
    for file in [
        "prog_datapath.xml",
        "prog_fsm.xml",
        "prog.hds",
        "prog_fsm.java",
        "prog.vcd",
        "out.mem",
    ] {
        assert!(art.join(file).exists(), "missing artifact {file}");
    }
    // The dumped result memory parses and holds the doubled inputs.
    let text = std::fs::read_to_string(art.join("out.mem")).unwrap();
    let stim = fpgatest::stimulus::parse(&text).unwrap();
    let mut image = vec![None; 4];
    stim.apply(&mut image).unwrap();
    assert_eq!(image, vec![Some(20), Some(40), Some(60), Some(80)]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_subcommand_reports_suite_verdicts() {
    let dir = workdir("run");
    write_demo(&dir);
    std::fs::write(
        dir.join("suite.manifest"),
        "case double\n  source prog.src\n  stimulus inp inp.stim\n\
         case broken\n  source prog.src\n  stimulus nope inp.stim\n",
    )
    .unwrap();
    let out = bin().arg("run").arg(dir.join("suite.manifest")).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "mixed suite must fail: {stdout}");
    assert!(stdout.contains("double"));
    assert!(stdout.contains("1 passed, 1 failed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compile_subcommand_emits_dialects() {
    let dir = workdir("compile");
    write_demo(&dir);
    let out_dir = dir.join("compiled");
    let out = bin()
        .arg("compile")
        .arg(dir.join("prog.src"))
        .arg("--out")
        .arg(&out_dir)
        .arg("--partitions")
        .arg("2")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(out_dir.join("rtg.xml").exists());
    assert!(out_dir.join("prog_c0_datapath.xml").exists());
    assert!(out_dir.join("prog_c1_fsm.xml").exists());
    // The emitted XML reparses under the dialect loaders.
    let dp_text = std::fs::read_to_string(out_dir.join("prog_c0_datapath.xml")).unwrap();
    let doc = xmlite::Document::parse(&dp_text).unwrap();
    assert!(nenya::xml::parse_datapath(&doc).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_2() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().arg("run").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().arg("test").arg("/no/such/file.src").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// `fpgatest test SOURCE --timeout MS` trips the wall clock the way a
/// manifest's `timeout` directive does: exit 4, the reason on stderr and
/// a `timeout` entry in `--metrics-out`.
#[test]
fn single_source_honours_the_wall_clock_timeout() {
    let dir = workdir("single_timeout");
    // On a 2-vCPU x86-64 host the full flow took about 0.4 s in a
    // release build and 3.5 s in a debug build, far past the budget.
    std::fs::write(
        dir.join("spin.src"),
        "mem out[1]; void main() { int i; int s; s = 0; \
         for (i = 0; i < 100000; i = i + 1) { s = s + i; } out[0] = s; }",
    )
    .unwrap();
    let metrics = dir.join("m.json");
    let out = bin()
        .arg("test")
        .arg(dir.join("spin.src"))
        .args([
            "--width",
            "32",
            "--timeout",
            "50",
            "--max-ticks",
            "4000000000",
        ])
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("timeout: wall clock exceeded 50 ms"),
        "{stderr}"
    );
    let report = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let designs = report
        .get("designs")
        .and_then(Json::as_array)
        .expect("designs");
    assert_eq!(designs.len(), 1);
    assert_eq!(field(&designs[0], "status").as_deref(), Some("timeout"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A single source whose golden run fails keeps its telemetry: exit 2
/// with `flow error: …`, an `error` design entry whose case span holds
/// the stages that ran, a trace log, and an event stream that closes
/// with `campaign-finished`.
#[test]
fn single_source_flow_error_keeps_its_telemetry() {
    let dir = workdir("single_flow_error");
    std::fs::write(
        dir.join("golden_err.src"),
        "mem out[1]; void main() { int x; out[0] = x + 1; }",
    )
    .unwrap();
    let (metrics, trace, events) = (dir.join("m.json"), dir.join("t.jsonl"), dir.join("e.jsonl"));
    let out = bin()
        .arg("test")
        .arg(dir.join("golden_err.src"))
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--trace-log")
        .arg(&trace)
        .arg("--events-out")
        .arg(&events)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("flow error: golden reference: "),
        "{stderr}"
    );

    let report = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let designs = report
        .get("designs")
        .and_then(Json::as_array)
        .expect("designs");
    assert_eq!(designs.len(), 1);
    assert_eq!(field(&designs[0], "design").as_deref(), Some("golden_err"));
    assert_eq!(field(&designs[0], "status").as_deref(), Some("error"));
    let spans = report.get("spans").and_then(Json::as_array).expect("spans");
    assert_eq!(spans.len(), 1, "one case span");
    assert_eq!(field(&spans[0], "name").as_deref(), Some("case.golden_err"));
    let stages: Vec<String> = spans[0]
        .get("children")
        .and_then(Json::as_array)
        .expect("stage spans")
        .iter()
        .filter_map(|span| field(span, "name"))
        .collect();
    assert_eq!(stages, ["flow.parse", "flow.lower", "flow.golden"]);

    assert!(trace.exists(), "no trace log");
    let stream = std::fs::read_to_string(&events).unwrap();
    let last = Json::parse(stream.lines().last().expect("events")).unwrap();
    assert_eq!(field(&last, "event").as_deref(), Some("campaign-finished"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes the pipe before `fpgatest` prints (`fpgatest … |
/// head -0`) gets no panic: the process exits with the run's own code.
#[test]
fn closed_stdout_keeps_the_exit_code() {
    let dir = workdir("closed_stdout");
    write_demo(&dir);
    let test_run = [
        "test".to_string(),
        dir.join("prog.src").display().to_string(),
        "--stimulus".to_string(),
        format!("inp={}", dir.join("inp.stim").display()),
        "--engine".to_string(),
        "level".to_string(),
    ];
    for args in [&test_run[..], &["figure1".to_string()]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = bin().args(args).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A stdout write that fails for any reason other than a closed reader
/// (here a full device) is an error: exit 2 with the cause on stderr,
/// never a panic and never a silent success.
#[cfg(target_os = "linux")]
#[test]
fn failed_stdout_write_exits_two() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let out = bin().arg("figure1").stdout(full).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: writing stdout"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A spawned `fpgatest serve`, killed if a test fails before shutting
/// it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Daemon {
    /// Starts `fpgatest serve --listen 127.0.0.1:0` with `args`. Returns
    /// the daemon, the address it listens on and the rest of its stdout.
    fn start(args: &[&str], stderr: Stdio) -> (Daemon, String, BufReader<ChildStdout>) {
        let mut daemon = Daemon(
            bin()
                .args(["serve", "--listen", "127.0.0.1:0"])
                .args(args)
                .stdout(Stdio::piped())
                .stderr(stderr)
                .spawn()
                .expect("daemon starts"),
        );
        // "fpgatest serve: listening on ADDR (…)" is the first stdout line.
        let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("daemon prints its address");
        let addr = first
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in {first:?}"))
            .to_string();
        (daemon, addr, stdout)
    }
}

/// The example suite manifest.
const SUITE_MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/suite/suite.manifest"
);

/// A string member of a JSON object.
fn field(json: &Json, key: &str) -> Option<String> {
    json.get(key).and_then(Json::as_str).map(str::to_string)
}

/// The served suite's `fpgatest-submit-v1` report has one job per
/// manifest case, each `pass` with exit 0.
fn assert_every_job_passed(report: &Path) {
    let suite = Json::parse(&std::fs::read_to_string(report).unwrap()).unwrap();
    assert_eq!(field(&suite, "schema").as_deref(), Some("fpgatest-submit-v1"));
    let jobs = suite.get("jobs").and_then(Json::as_array).expect("jobs");
    assert_eq!(jobs.len(), 5, "one job per manifest case");
    for job in jobs {
        assert_eq!(field(job, "verdict").as_deref(), Some("pass"), "{}", job.emit());
        assert_eq!(job.get("exit_code").and_then(Json::as_u64), Some(0), "{}", job.emit());
    }
}

/// The example suite submitted to `fpgatest serve` with `--events-out`
/// and `--report`: every event line is `fpgatest-events-v1`, the stream
/// ends with `campaign-finished`, each served job closes with one
/// `kind: serve` `campaign-finished`, and the `fpgatest-submit-v1`
/// report has every job `pass` with exit 0.
#[test]
fn served_suite_events_and_report_hold() {
    let dir = workdir("served_suite");
    let (mut daemon, addr, _) = Daemon::start(&["--workers", "2"], Stdio::null());

    let (events, report) = (dir.join("events.jsonl"), dir.join("submit.json"));
    let submit = bin()
        .args(["submit", SUITE_MANIFEST, "--addr", &addr, "--events-out"])
        .arg(&events)
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    let shutdown = bin()
        .args(["submit", "--addr", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(
        submit.status.success(),
        "{}",
        String::from_utf8_lossy(&submit.stderr)
    );
    assert!(shutdown.status.success());
    assert!(daemon.0.wait().unwrap().success(), "daemon drains cleanly");

    let text = std::fs::read_to_string(&events).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    assert!(!lines.is_empty(), "empty served event stream");
    for (line, event) in text.lines().zip(&lines) {
        assert_eq!(field(event, "schema").as_deref(), Some("fpgatest-events-v1"), "{line}");
    }
    let last = lines.last().expect("nonempty");
    assert_eq!(field(last, "event").as_deref(), Some("campaign-finished"));
    let serve_closures = lines
        .iter()
        .filter(|e| {
            field(e, "event").as_deref() == Some("campaign-finished")
                && field(e, "kind").as_deref() == Some("serve")
        })
        .count();

    assert_every_job_passed(&report);
    assert_eq!(
        serve_closures, 5,
        "one serve-level campaign-finished per served job"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A client connection to a daemon that gives up after 30 s of silence.
fn connect(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect to the daemon");
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    conn
}

/// Reads one reply line and checks it is the typed error `code`.
fn expect_error(reader: &mut impl BufRead, code: &str) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line");
    let reply = Json::parse(line.trim()).unwrap_or_else(|e| panic!("{e}: {line:?}"));
    assert_eq!(field(&reply, "type").as_deref(), Some("error"), "{line}");
    assert_eq!(field(&reply, "code").as_deref(), Some(code), "{line}");
}

/// The daemon under chaos (about a quarter of job dequeues kill the
/// worker mid-job) serves the example suite past its kills and two
/// hostile clients:
/// - a client that stalls half a request line past the read deadline
///   while the suite runs gets the typed `deadline` error;
/// - three garbage frames (malformed JSON, an unknown request type,
///   binary bytes) each get a typed `bad-request` error;
/// - every suite job passes with exit 0, at least one worker was
///   restarted, every submitted job finished, and none is in flight or
///   queued;
/// - the daemon drains on shutdown and leaves its ledger behind.
#[test]
fn chaos_daemon_serves_the_suite_past_kills_and_hostile_clients() {
    let dir = workdir("chaos");
    let ledger = dir.join("ledger.jsonl");
    let serve_err = std::fs::File::create(dir.join("serve.err")).unwrap();
    let (mut daemon, addr, mut stdout) = Daemon::start(
        &[
            "--workers",
            "2",
            "--retries",
            "3",
            "--backoff",
            "5",
            "--read-deadline",
            "1000",
            "--chaos",
            "42",
            "--ledger",
            ledger.to_str().expect("UTF-8 temp path"),
        ],
        serve_err.into(),
    );

    let stall = {
        let mut conn = connect(&addr);
        std::thread::spawn(move || {
            conn.write_all(b"{\"type\":\"stat").unwrap(); // then silence
            expect_error(&mut BufReader::new(conn), "deadline");
        })
    };
    let report = dir.join("submit.json");
    let submit = bin()
        .args(["submit", SUITE_MANIFEST, "--addr", &addr, "--report"])
        .arg(&report)
        .output()
        .unwrap();
    assert!(
        submit.status.success(),
        "{}",
        String::from_utf8_lossy(&submit.stderr)
    );
    stall.join().expect("the stalled client got the deadline error");

    let mut garbage = connect(&addr);
    let mut replies = BufReader::new(garbage.try_clone().unwrap());
    for frame in [
        &b"{not json\n"[..],
        b"{\"type\":\"frobnicate\"}\n",
        b"\x00\x01\xfe\xff garbage\n",
    ] {
        garbage.write_all(frame).unwrap();
        expect_error(&mut replies, "bad-request");
    }
    drop((garbage, replies));

    let stats = bin().args(["submit", "--addr", &addr, "--stats"]).output().unwrap();
    assert!(stats.status.success(), "{}", String::from_utf8_lossy(&stats.stderr));
    let stats = Json::parse(String::from_utf8_lossy(&stats.stdout).trim()).unwrap();
    let count = |key: &str| {
        stats
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no '{key}' in {}", stats.emit()))
    };
    assert_every_job_passed(&report);
    assert!(count("worker_restarts") >= 1, "{}", stats.emit());
    assert_eq!(
        count("finished"),
        count("submitted"),
        "every accepted job reached a terminal outcome"
    );
    assert_eq!((count("inflight"), count("queued")), (0, 0), "{}", stats.emit());

    let shutdown = bin().args(["submit", "--addr", &addr, "--shutdown"]).output().unwrap();
    assert!(shutdown.status.success());
    assert!(daemon.0.wait().unwrap().success(), "daemon drains cleanly");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained and stopped"), "{rest}");
    let serve_err = std::fs::read_to_string(dir.join("serve.err")).unwrap();
    assert!(serve_err.contains("CHAOS MODE"), "{serve_err}");
    assert!(!std::fs::read_to_string(&ledger).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
