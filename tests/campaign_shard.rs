//! Property tests of the sharded fault-campaign runtime: at any shard
//! count the merged records and the deterministic event stream are
//! byte-identical, the records match a fresh `run_design` per site, a
//! stop-flag interrupt plus resume reproduces the uninterrupted run
//! exactly, and through the CLI a SIGKILLed, torn checkpoint salvages
//! and resumes to the same records while a several-design manifest
//! shards like a one-design one.

use fpgatest::events::EventSink;
use fpgatest::faults::{
    run_campaign_sharded, CampaignOptions, CampaignReport, FaultSpec, ShardedCampaignOptions,
};
use fpgatest::flow::{run_design, Engine, FlowError, FlowOptions};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::TestCase;
use fpgatest::telemetry::Json;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PROGRAM: &str = "mem inp[4]; mem out[4];
void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2 + 1; } }";

fn passing_case(name: &str) -> TestCase {
    TestCase::new(name, PROGRAM).with_stimulus("inp", Stimulus::from_values([3, 1, 4, 1]))
}

fn campaign(engine: Engine, sites: usize, events: EventSink) -> CampaignOptions {
    CampaignOptions {
        seed: 5,
        sites,
        engine,
        max_ticks: None,
        events,
    }
}

/// One injection as comparable `(fault, outcome, detail)` strings.
type RecordStrings = Vec<(String, String, String)>;

/// Records as comparable `(fault, outcome, detail)` strings.
fn record_strings(report: &CampaignReport) -> RecordStrings {
    report
        .injections
        .iter()
        .map(|r| (r.fault.to_string(), r.outcome.to_string(), r.detail.clone()))
        .collect()
}

/// The records a campaign over `faults` must hold, recomputed the slow
/// way: a fresh `run_design` per site under the default tick budget (5×
/// the clean run, at least 50k), sharing nothing with the sharded runner
/// — no prepared design, no shared golden run, no lane packing.
fn fresh_records(case: &TestCase, engine: Engine, faults: &[FaultSpec]) -> RecordStrings {
    let program = nenya::lang::parse(&case.source).unwrap();
    let design = nenya::compile_program(&case.name, &program, &case.options.compile).unwrap();
    let mut options = FlowOptions {
        engine,
        keep_artifacts: false,
        ..case.options.clone()
    };
    let clean = run_design(&design, &case.stimuli, &options).unwrap();
    let clean_ticks: u64 = clean.runs.iter().map(|r| r.cycles * 10).sum();
    options.max_ticks = (clean_ticks * 5).max(50_000);
    faults
        .iter()
        .map(|fault| {
            options.faults = vec![fault.clone()];
            let (outcome, detail) = match run_design(&design, &case.stimuli, &options) {
                Err(e @ FlowError::Timeout { .. }) => ("hung", e.to_string()),
                Err(e) => ("detected", format!("flow error: {e}")),
                Ok(report) => match (report.failure, report.mismatches.first()) {
                    (Some(failure), _) => ("detected", failure),
                    (None, Some(first)) => (
                        "detected",
                        format!(
                            "{} mismatches, first {}[{}] golden {:?} sim {:?}",
                            report.mismatches.len(),
                            first.mem,
                            first.addr,
                            first.expected,
                            first.got
                        ),
                    ),
                    (None, None) => ("silent", "verdict PASS".to_string()),
                },
            };
            (fault.to_string(), outcome.to_string(), detail)
        })
        .collect()
}

#[test]
fn sharded_records_and_events_are_identical_at_every_shard_count() {
    for engine in [Engine::Event, Engine::Batch] {
        let case = passing_case("shardmerge");
        let mut fresh: Option<RecordStrings> = None;
        let mut reference: Option<(RecordStrings, String)> = None;
        for shards in [1usize, 2, 4] {
            let (sink, captured) = EventSink::capture();
            let outcome = run_campaign_sharded(
                &case,
                &campaign(engine, 40, sink),
                &ShardedCampaignOptions {
                    shards,
                    ..ShardedCampaignOptions::default()
                },
            )
            .unwrap();
            assert!(!outcome.interrupted);
            let faults: Vec<FaultSpec> = outcome
                .report
                .injections
                .iter()
                .map(|r| r.fault.clone())
                .collect();
            let fresh = fresh.get_or_insert_with(|| fresh_records(&case, engine, &faults));
            assert_eq!(
                *fresh,
                record_strings(&outcome.report),
                "{engine:?} at {shards} shards diverges from a fresh flow per site"
            );
            let snapshot = (record_strings(&outcome.report), captured.text());
            match &reference {
                None => reference = Some(snapshot),
                Some(reference) => {
                    assert_eq!(reference.0, snapshot.0, "{engine:?} records differ at {shards}");
                    assert_eq!(reference.1, snapshot.1, "{engine:?} events differ at {shards}");
                }
            }
        }
    }
}

#[test]
fn stop_flag_interrupt_then_resume_matches_the_uninterrupted_campaign() {
    let dir = std::env::temp_dir().join("fpgatest_campaign_shard_resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("faults.ckpt");

    let case = passing_case("shardresume");
    let (sink, reference_events) = EventSink::capture();
    let reference = run_campaign_sharded(
        &case,
        &campaign(Engine::Event, 48, sink),
        &ShardedCampaignOptions {
            shards: 2,
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();
    assert!(!reference.interrupted);

    // The timer's cut point is scheduling-dependent; whatever prefix
    // lands in the checkpoint, resuming must finish to the same bytes.
    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            stop.store(true, Ordering::SeqCst);
        })
    };
    let first = run_campaign_sharded(
        &case,
        &campaign(Engine::Event, 48, EventSink::disabled()),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every: 1,
            stop: Some(stop),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();
    timer.join().unwrap();

    let (final_records, final_events) = if first.interrupted {
        let text = std::fs::read_to_string(&checkpoint).unwrap();
        assert!(
            text.contains("\"schema\": \"fpgatest-checkpoint-v1\"")
                || text.contains("\"schema\":\"fpgatest-checkpoint-v1\""),
            "checkpoint file carries the fpgatest-checkpoint-v1 schema tag:\n{text}"
        );
        let (sink, resumed_events) = EventSink::capture();
        let resumed = run_campaign_sharded(
            &case,
            &campaign(Engine::Event, 48, sink),
            &ShardedCampaignOptions {
                shards: 2,
                resume: Some(checkpoint.clone()),
                ..ShardedCampaignOptions::default()
            },
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert!(resumed.resumed > 0, "checkpoint held completed injections");
        (record_strings(&resumed.report), resumed_events.text())
    } else {
        // Outran the timer: the run is its own uninterrupted comparison.
        (record_strings(&first.report), String::new())
    };
    assert_eq!(record_strings(&reference.report), final_records);
    if !final_events.is_empty() {
        assert_eq!(reference_events.text(), final_events);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_campaign() {
    let dir = std::env::temp_dir().join("fpgatest_campaign_shard_mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("cp.json");

    let case = passing_case("shardid");
    run_campaign_sharded(
        &case,
        &campaign(Engine::Event, 12, EventSink::disabled()),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();

    // Same checkpoint, different design name: the identity check refuses.
    let other = passing_case("shardid-other");
    let err = run_campaign_sharded(
        &other,
        &campaign(Engine::Event, 12, EventSink::disabled()),
        &ShardedCampaignOptions {
            shards: 2,
            resume: Some(checkpoint),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("checkpoint"),
        "mismatch error names the checkpoint: {message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_changed_tick_budget() {
    // A resumed campaign must match an uninterrupted one, and the tick
    // budget decides which sites hang: a checkpoint written under the
    // derived budget cannot finish a `max_ticks: 200` campaign.
    let dir = std::env::temp_dir().join("fpgatest_campaign_shard_ticks");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("c.ckpt");

    let case = passing_case("shardticks");
    run_campaign_sharded(
        &case,
        &campaign(Engine::Level, 16, EventSink::disabled()),
        &ShardedCampaignOptions {
            checkpoint: Some(checkpoint.clone()),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();
    let resume = ShardedCampaignOptions {
        resume: Some(checkpoint),
        ..ShardedCampaignOptions::default()
    };
    let err = run_campaign_sharded(
        &case,
        &CampaignOptions {
            max_ticks: Some(200),
            ..campaign(Engine::Level, 16, EventSink::disabled())
        },
        &resume,
    )
    .unwrap_err();
    assert!(
        err.to_string()
            .contains("max_ticks does not match this campaign"),
        "{err}"
    );
    // The same budget, made explicit, is the same campaign.
    let derived = run_campaign_sharded(
        &case,
        &campaign(Engine::Level, 16, EventSink::disabled()),
        &ShardedCampaignOptions::default(),
    )
    .unwrap();
    let resumed = run_campaign_sharded(
        &case,
        &campaign(Engine::Level, 16, EventSink::disabled()),
        &resume,
    )
    .unwrap();
    assert_eq!(
        record_strings(&derived.report),
        record_strings(&resumed.report)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The example manifest, relative to this crate.
const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/suite/suite.manifest"
);

/// Runs `fpgatest faults MANIFEST <args>`.
fn faults_cli(args: &[&str]) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_fpgatest"))
        .arg("faults")
        .arg(MANIFEST)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("fpgatest faults spawns")
}

/// Fails the test unless the CLI exited 0.
fn succeeded(output: Output) -> Output {
    assert!(
        output.status.success(),
        "fpgatest faults exited {:?}:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// `(design, records)` per campaign of an `fpgatest-faults-v1` report.
fn report_campaigns(path: &Path) -> Vec<(String, Json)> {
    let text = std::fs::read_to_string(path).unwrap();
    let report = Json::parse(&text).unwrap();
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("fpgatest-faults-v1")
    );
    report
        .get("campaigns")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|c| {
            let design = c.get("design").and_then(Json::as_str).unwrap().to_string();
            (design, c.get("records").unwrap().clone())
        })
        .collect()
}

#[test]
fn several_designs_shard_like_one() {
    let dir = std::env::temp_dir().join("fpgatest_campaign_shard_designs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut reports = Vec::new();
    for shards in ["1", "2"] {
        let path = dir.join(format!("r{shards}.json"));
        let args = [
            "--sites", "8", "--engine", "level", "--shards", shards, "--report",
        ];
        let child = faults_cli(
            &args
                .iter()
                .copied()
                .chain([path.to_str().unwrap()])
                .collect::<Vec<_>>(),
        );
        succeeded(child.wait_with_output().unwrap());
        reports.push(report_campaigns(&path));
    }
    let designs: Vec<&str> = reports[1]
        .iter()
        .map(|(design, _)| design.as_str())
        .collect();
    assert_eq!(
        designs,
        ["fdct1", "fdct2", "fdct1_optimized", "hamming", "sort"]
    );
    for ((design, one), (_, two)) in reports[0].iter().zip(&reports[1]) {
        assert_eq!(one.as_array().map(<[Json]>::len), Some(8), "{design}");
        assert_eq!(one, two, "{design}: records differ between 1 and 2 shards");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_faults_cli_resumes_to_identical_records() {
    let dir = std::env::temp_dir().join("fpgatest_campaign_shard_sigkill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("faults.ckpt");
    let reference = dir.join("reference.json");
    let resumed = dir.join("resumed.json");
    let base = [
        "--design", "fdct1", "--seed", "1", "--sites", "64", "--engine", "level",
    ];
    let run = |extra: &[&str]| faults_cli(&base.iter().chain(extra).copied().collect::<Vec<_>>());

    succeeded(
        run(&["--shards", "2", "--report", reference.to_str().unwrap()])
            .wait_with_output()
            .unwrap(),
    );

    // SIGKILL as soon as the first snapshot lands: no signal handler
    // runs, so only the checkpoint discipline protects the campaign.
    let mut victim = run(&[
        "--shards",
        "2",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    loop {
        if checkpoint.is_file() {
            victim.kill().ok();
            break;
        }
        if victim.try_wait().unwrap().is_some() {
            break; // outran the poller: the checkpoint holds every site
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    victim.wait().unwrap();

    // Tear the checkpoint the way a dying writer would.
    let mut torn = std::fs::read(&checkpoint).unwrap();
    torn.extend_from_slice(b"\xff\xfe{{{ torn mid-write");
    std::fs::write(&checkpoint, torn).unwrap();

    let output = succeeded(
        run(&[
            "--shards",
            "2",
            "--resume",
            checkpoint.to_str().unwrap(),
            "--report",
            resumed.to_str().unwrap(),
        ])
        .wait_with_output()
        .unwrap(),
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("salvaged"),
        "no salvage note on stderr:\n{stderr}"
    );
    let (reference, resumed) = (report_campaigns(&reference), report_campaigns(&resumed));
    assert_eq!(reference.len(), 1);
    assert_eq!(reference[0].1.as_array().map(<[Json]>::len), Some(64));
    assert_eq!(
        reference, resumed,
        "kill, tear and resume changed the records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
