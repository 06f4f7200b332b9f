//! Integration tests of the `fpgatest` command-line binary.

use fpgatest::telemetry::Json;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

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

/// The example suite submitted to `fpgatest serve` with `--events-out`
/// and `--report`: every event line is `fpgatest-events-v1`, the stream
/// ends with `campaign-finished`, each served job closes with one
/// `kind: serve` `campaign-finished`, and the `fpgatest-submit-v1`
/// report has every job `pass` with exit 0.
#[test]
fn served_suite_events_and_report_hold() {
    let dir = workdir("served_suite");
    let mut daemon = Daemon(
        bin()
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    // "fpgatest serve: listening on ADDR (…)" is the first stdout line.
    let mut first = String::new();
    std::io::BufReader::new(daemon.0.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("daemon prints its address");
    let addr = first
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {first:?}"))
        .to_string();

    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/suite/suite.manifest"
    );
    let (events, report) = (dir.join("events.jsonl"), dir.join("submit.json"));
    let submit = bin()
        .args(["submit", manifest, "--addr", &addr, "--events-out"])
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

    let field = |json: &Json, key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
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

    let suite = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(field(&suite, "schema").as_deref(), Some("fpgatest-submit-v1"));
    let jobs = suite.get("jobs").and_then(Json::as_array).expect("jobs");
    assert_eq!(jobs.len(), 5, "one job per manifest case");
    for job in jobs {
        assert_eq!(field(job, "verdict").as_deref(), Some("pass"), "{}", job.emit());
        assert_eq!(job.get("exit_code").and_then(Json::as_u64), Some(0), "{}", job.emit());
    }
    assert_eq!(
        serve_closures,
        jobs.len(),
        "one serve-level campaign-finished per served job"
    );
    std::fs::remove_dir_all(&dir).ok();
}
