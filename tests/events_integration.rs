//! End-to-end checks of the live observability layer: the
//! `fpgatest-events-v1` stream written by real runs parses line by line
//! and ends with `campaign-finished`, a killed campaign leaves only
//! whole lines behind, the engine profiler never perturbs kernel
//! counters, report JSON serializes canonically, and the trend ledger
//! gates regressions end to end.

use fpgatest::events::{Event, EventSink};
use fpgatest::flow::{Engine, FlowOptions, TestFlow};
use fpgatest::ledger::{self, LedgerEntry};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::{Suite, TestCase};
use fpgatest::telemetry::{suite_json, Json, Recorder};
use std::path::{Path, PathBuf};
use std::process::Command;

const PROGRAM: &str = "mem inp[4]; mem out[4];
void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2 + 1; } }";

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpgatest_events_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_small_suite(dir: &Path) {
    std::fs::write(dir.join("prog.src"), PROGRAM).unwrap();
    std::fs::write(dir.join("inp.stim"), "0: 3\n1: 1\n2: 4\n3: 1\n").unwrap();
    std::fs::write(
        dir.join("suite.manifest"),
        "case double\n  source prog.src\n  stimulus inp inp.stim\n",
    )
    .unwrap();
}

/// Parses every line of an events file, panicking with the offending
/// line on any malformed entry, and asserts `seq` is 0,1,2,...
fn parse_stream(path: &Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap();
    assert!(
        text.is_empty() || text.ends_with('\n'),
        "stream ends mid-line"
    );
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let json = Json::parse(line)
                .unwrap_or_else(|e| panic!("line {i} unparseable: {e}\n{line}"));
            assert_eq!(
                json.get("seq").and_then(Json::as_u64),
                Some(i as u64),
                "seq not monotonic at line {i}"
            );
            Event::from_json(&json).unwrap_or_else(|e| panic!("line {i} untyped: {e}\n{line}"))
        })
        .collect()
}

#[test]
fn fault_campaign_cli_streams_parseable_jsonl_ending_in_campaign_finished() {
    let dir = workdir("faults_stream");
    write_small_suite(&dir);
    let events_path = dir.join("events.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_fpgatest"))
        .args([
            "faults",
            "suite.manifest",
            "--seed",
            "1",
            "--sites",
            "12",
            "--events-out",
        ])
        .arg(&events_path)
        .current_dir(&dir)
        .output()
        .expect("fpgatest faults runs");
    assert!(
        output.status.code().is_some(),
        "campaign crashed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let events = parse_stream(&events_path);
    assert!(
        matches!(events.first(), Some(Event::CampaignStarted { kind, .. }) if kind == "faults"),
        "stream must open with campaign-started"
    );
    let Some(Event::CampaignFinished { kind, done, .. }) = events.last() else {
        panic!("stream must end with campaign-finished, got {:?}", events.last());
    };
    assert_eq!(kind, "faults");
    assert!(*done > 0, "campaign classified no injections");
    let injected = events
        .iter()
        .filter(|e| matches!(e, Event::FaultInjected { .. }))
        .count();
    let classified = events
        .iter()
        .filter(|e| matches!(e, Event::FaultClassified { .. }))
        .count();
    assert_eq!(injected, classified, "every injection gets a verdict");
    assert_eq!(classified as u64, *done);
}

#[test]
fn killed_campaign_leaves_only_whole_lines() {
    let dir = workdir("killed");
    write_small_suite(&dir);
    let events_path = dir.join("events.jsonl");
    // A site count large enough that the campaign outlives the kill on
    // any machine; if it happens to finish first the check still holds.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fpgatest"))
        .args([
            "faults",
            "suite.manifest",
            "--seed",
            "1",
            "--sites",
            "5000",
            "--events-out",
        ])
        .arg(&events_path)
        .current_dir(&dir)
        .spawn()
        .expect("fpgatest faults spawns");
    // Let it emit a few events, then kill it mid-campaign (SIGKILL: no
    // destructors, no final flush — the per-event flush must be enough).
    std::thread::sleep(std::time::Duration::from_millis(400));
    let _ = child.kill();
    let _ = child.wait();

    let text = std::fs::read_to_string(&events_path).unwrap();
    assert!(!text.is_empty(), "no events were flushed before the kill");
    assert!(
        text.ends_with('\n'),
        "killed stream ends mid-line: ...{:?}",
        &text[text.len().saturating_sub(60)..]
    );
    for (i, line) in text.lines().enumerate() {
        let json =
            Json::parse(line).unwrap_or_else(|e| panic!("line {i} unparseable: {e}\n{line}"));
        Event::from_json(&json).unwrap_or_else(|e| panic!("line {i} untyped: {e}\n{line}"));
    }
}

#[test]
fn suite_run_event_file_round_trips_in_manifest_order() {
    let dir = workdir("suite_stream");
    let events_path = dir.join("events.jsonl");
    let sink = EventSink::to_path(events_path.to_str().unwrap()).unwrap();
    let mut suite = Suite::new()
        .with_case(TestCase::new("a", PROGRAM).with_stimulus("inp", Stimulus::from_values([3, 1, 4, 1])))
        .with_case(TestCase::new("b", PROGRAM).with_stimulus("inp", Stimulus::from_values([2, 7, 1, 8])));
    suite.set_events(sink, "demo");
    let report = suite.run_parallel(2);
    assert!(report.all_passed());

    let events = parse_stream(&events_path);
    let cases: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::CaseFinished { case, verdict, .. } => Some((case.as_str(), verdict.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(
        cases,
        vec![("a", "pass"), ("b", "pass")],
        "case events in manifest order with verdicts"
    );
    assert!(matches!(events.last(), Some(Event::CampaignFinished { failed: 0, .. })));
}

/// On the event kernel and on the compiled bytecode (level and batch),
/// `--profile` changes no counter, and the compiled engines' rank rows
/// account for every combinational evaluation.
#[test]
fn profiler_observes_without_perturbing_kernel_counters() {
    for engine in [Engine::Event, Engine::Level, Engine::Batch] {
        let flow = |profile: bool| {
            TestFlow::new("double", PROGRAM)
                .with_options(FlowOptions {
                    engine,
                    profile,
                    ..FlowOptions::default()
                })
                .stimulus("inp", Stimulus::from_values([3, 1, 4, 1]))
        };
        let plain = flow(false).run().expect("plain flow runs");
        let profiled = flow(true).run().expect("profiled flow runs");
        assert!(plain.passed && profiled.passed);
        assert_eq!(plain.runs.len(), profiled.runs.len());
        for (p, q) in plain.runs.iter().zip(profiled.runs.iter()) {
            assert_eq!(
                p.kernel, q.kernel,
                "{engine}: profiling changed kernel counters"
            );
            assert_eq!(
                p.cycles, q.cycles,
                "{engine}: profiling changed cycle counts"
            );
            assert!(
                p.profile.is_none(),
                "{engine}: profile collected without --profile"
            );
            let profile = q.profile.as_ref().expect("--profile collects a profile");
            if engine == Engine::Event {
                assert!(
                    !profile.classes.is_empty(),
                    "event-kernel profile has per-class timings"
                );
                let evals: u64 = profile.classes.iter().map(|c| c.evals).sum();
                assert!(evals > 0, "profiled classes saw no evaluations");
            } else {
                assert!(
                    !profile.ranks.is_empty(),
                    "{engine}: profile has per-rank rows"
                );
                let evals: u64 = profile.ranks.iter().map(|r| r.evals).sum();
                assert_eq!(
                    evals, q.kernel.evals,
                    "{engine}: rank rows must sum to the configuration's comb_evals"
                );
            }
        }
    }
}

/// A profiled level-engine suite run on two jobs streams a parseable
/// event file that closes with `campaign-finished`, and writes folded
/// stacks with `level;rank N` frames.
#[test]
fn profiled_level_run_cli_streams_events_and_rank_frames() {
    let dir = workdir("level_profile");
    write_small_suite(&dir);
    let (events_path, folded_path) = (dir.join("events.jsonl"), dir.join("stacks.folded"));
    let output = Command::new(env!("CARGO_BIN_EXE_fpgatest"))
        .args([
            "run",
            "suite.manifest",
            "--jobs",
            "2",
            "--engine",
            "level",
            "--events-out",
        ])
        .arg(&events_path)
        .args(["--profile", "--profile-folded"])
        .arg(&folded_path)
        .current_dir(&dir)
        .output()
        .expect("fpgatest run runs");
    assert!(
        output.status.success(),
        "level run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let events = parse_stream(&events_path);
    assert!(
        matches!(
            events.last(),
            Some(Event::CampaignFinished { failed: 0, .. })
        ),
        "stream must end with campaign-finished, got {:?}",
        events.last()
    );
    let folded = std::fs::read_to_string(&folded_path).unwrap();
    assert!(!folded.is_empty(), "no folded stacks written");
    for line in folded.lines() {
        let (stack, micros) = line.rsplit_once(' ').expect("frame count");
        assert!(micros.parse::<u64>().is_ok(), "bad count in {line}");
        let rank = stack.split(';').nth(3).expect("design;config;engine;leaf");
        assert!(
            stack.split(';').nth(2) == Some("level") && rank.starts_with("rank "),
            "not a level;rank N frame: {line}"
        );
    }
}

#[test]
fn report_json_serializes_canonically() {
    let build = || {
        let mut recorder = Recorder::new();
        let flow = TestFlow::new("double", PROGRAM)
            .stimulus("inp", Stimulus::from_values([3, 1, 4, 1]));
        let report = flow.run_recorded(&mut recorder).expect("flow runs");
        let suite = fpgatest::suite::SuiteReport {
            results: vec![(
                "double".to_string(),
                fpgatest::suite::CaseResult::Finished(report),
            )],
        };
        let mut json = suite_json(&suite, &recorder);
        json.sort_keys();
        json.emit_pretty()
    };
    let first = build();
    let second = build();
    // Wall-clock fields differ run to run; structure and key order must
    // not. Compare the key skeletons line by line.
    let keys = |text: &str| -> Vec<String> {
        text.lines()
            .filter_map(|l| {
                let t = l.trim_start();
                t.starts_with('"').then(|| t.split(':').next().unwrap_or(t).to_string())
            })
            .collect()
    };
    assert_eq!(keys(&first), keys(&second), "key order is not canonical");
    // And serializing the *same* report twice is byte-identical.
    assert_eq!(first, build_twice_check(&first));

    fn build_twice_check(first: &str) -> String {
        let json = Json::parse(first).expect("emitted report parses");
        json.emit_pretty()
    }
}

#[test]
fn trend_ledger_gates_regressions_end_to_end() {
    let dir = workdir("trends");
    let path = dir.join("runs.jsonl");
    let fast = LedgerEntry {
        engine: "event".to_string(),
        wall_seconds: 1.0,
        passed: 5,
        failed: 0,
        counters: vec![("cycles".to_string(), 100.0)],
        ..LedgerEntry::new("run", "suite.manifest")
    };
    let slow = LedgerEntry {
        wall_seconds: 2.0,
        ..fast.clone()
    };
    ledger::append(&path, &fast).unwrap();
    ledger::append(&path, &slow).unwrap();

    let entries = ledger::read(&path).unwrap();
    assert_eq!(entries.len(), 2);
    let report = ledger::render_trends(&entries, Some(10.0));
    assert!(
        report.gate_exceeded,
        "a 2x wall-time regression must trip a 10% gate:\n{}",
        report.text
    );
    assert!(report.text.contains('%'), "trends render percent deltas");
    let lenient = ledger::render_trends(&entries, Some(500.0));
    assert!(!lenient.gate_exceeded, "a 500% gate tolerates 2x");

    // The CLI agrees: non-zero exit with the tight gate, zero without.
    let trends = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fpgatest"))
            .arg("trends")
            .arg(&path)
            .args(extra)
            .output()
            .expect("fpgatest trends runs")
    };
    let gated = trends(&["--gate", "10"]);
    assert!(
        !gated.status.success(),
        "trends --gate 10 must fail on a 2x regression:\n{}",
        String::from_utf8_lossy(&gated.stdout)
    );
    let ungated = trends(&[]);
    assert!(
        ungated.status.success(),
        "trends without a gate only reports:\n{}",
        String::from_utf8_lossy(&ungated.stderr)
    );
}
