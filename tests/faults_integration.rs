//! End-to-end checks of the fault-injection subsystem and the hardened
//! suite runner: a planted panic never takes down a `--jobs` pool, an
//! FSM that can never reach `done` yields a Timeout verdict on all three
//! engines, a seeded campaign classifies every injection without a
//! single harness crash, and the fault machinery is invisible on clean
//! runs.

use fpgatest::faults::{
    run_campaign_sharded, CampaignOptions, CampaignReport, FaultSpec, InjectionOutcome,
    ShardedCampaignOptions,
};
use fpgatest::flow::{Engine, FlowOptions, TestFlow};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::{parse_manifest, CaseResult, Suite, TestCase};

const PROGRAM: &str = "mem inp[4]; mem out[4];
void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2 + 1; } }";

/// A program whose loop body touches no memory: forcing its loop
/// condition keeps the FSM spinning forever without tripping the
/// out-of-range store guard, so the only way out is a watchdog.
const HANG_PROGRAM: &str = "mem out[1];
void main() { int i; int x; x = 0; for (i = 0; i < 4; i = i + 1) { x = x + 2; } out[0] = x; }";

fn stimulus() -> Stimulus {
    Stimulus::from_values([3, 1, 4, 1])
}

fn passing_case(name: &str) -> TestCase {
    TestCase::new(name, PROGRAM).with_stimulus("inp", stimulus())
}

/// A whole fault campaign at the default (one) shard.
fn campaign_report(case: &TestCase, options: &CampaignOptions) -> Result<CampaignReport, String> {
    run_campaign_sharded(case, options, &ShardedCampaignOptions::default())
        .map(|outcome| outcome.report)
        .map_err(|e| e.to_string())
}

/// The signal steering the compiled loop's conditional FSM transition —
/// discovered from the design rather than hard-coded, so the test
/// survives signal-naming changes in the compiler.
fn loop_condition_signal(source: &str) -> String {
    let program = nenya::lang::parse(source).unwrap();
    let design =
        nenya::compile_program("probe", &program, &nenya::CompileOptions::default()).unwrap();
    design
        .configs
        .iter()
        .flat_map(|c| c.fsm.states.iter())
        .flat_map(|s| s.transitions.iter())
        .find_map(|t| t.cond.clone())
        .expect("a loop program compiles to a conditional transition")
        .0
}

/// The stuck-at polarity that traps [`HANG_PROGRAM`]'s FSM in its loop
/// forever. One of the two polarities must hang (the other exits early
/// and merely miscomputes); which one depends on how the compiler
/// phrased the branch, so probe the event engine.
fn hang_fault() -> FaultSpec {
    let signal = loop_condition_signal(HANG_PROGRAM);
    for value in [true, false] {
        let fault = FaultSpec::StuckAt {
            signal: signal.clone(),
            bit: 0,
            value,
        };
        let flow = TestFlow::new("probe", HANG_PROGRAM).with_options(FlowOptions {
            faults: vec![fault.clone()],
            max_ticks: 20_000,
            ..FlowOptions::default()
        });
        if matches!(flow.run(), Err(fpgatest::flow::FlowError::Timeout { .. })) {
            return fault;
        }
    }
    panic!("neither polarity of stuck-at on '{signal}' hangs the FSM");
}

#[test]
fn planted_panic_is_isolated_and_the_parallel_report_is_complete() {
    let mut boom = passing_case("boom");
    boom.options.planted_panic = true;
    let suite = Suite::new()
        .with_case(passing_case("a"))
        .with_case(boom)
        .with_case(passing_case("b"))
        .with_case(passing_case("c"));
    let report = suite.run_parallel(4);

    // Every case reports, in suite order, despite the mid-pool panic.
    let names: Vec<&str> = report.results.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["a", "boom", "b", "c"]);
    assert_eq!(report.passed(), 3, "{}", report.render());
    match &report.results[1].1 {
        CaseResult::Crashed(message) => {
            assert!(message.contains("planted panic"), "{message}");
        }
        other => panic!("expected Crashed, got {other:?}"),
    }
    assert_eq!(report.crashed(), 1);
    assert_eq!(report.exit_code(), 3, "a crash outranks ordinary failure");
    assert!(report.render().contains("CRASH"), "{}", report.render());
}

#[test]
fn hanging_case_in_a_pool_times_out_and_the_report_is_complete() {
    let mut hang = TestCase::new("hang", HANG_PROGRAM);
    hang.options.faults = vec![hang_fault()];
    // A tick budget large enough that the wall clock trips first.
    hang.options.max_ticks = u64::MAX / 16;
    hang.options.wall_timeout_ms = Some(300);
    let suite = Suite::new()
        .with_case(passing_case("a"))
        .with_case(hang)
        .with_case(passing_case("b"));
    let report = suite.run_parallel(3);

    assert_eq!(report.results.len(), 3);
    assert_eq!(report.passed(), 2, "{}", report.render());
    match &report.results[1].1 {
        CaseResult::TimedOut { reason } => {
            assert!(reason.contains("wall clock"), "{reason}");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(report.timed_out(), 1);
    assert_eq!(report.exit_code(), 4);
    assert!(report.render().contains("TIMEOUT"), "{}", report.render());
}

#[test]
fn fsm_never_done_times_out_on_all_three_engines() {
    let fault = hang_fault();
    let dir = std::env::temp_dir().join("fpgatest_faults_never_done");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("p.src"), HANG_PROGRAM).unwrap();
    let manifest =
        format!("case never_done\n  source p.src\n  fault {fault}\n  max_ticks 20000\n");

    for engine in [Engine::Event, Engine::Cycle, Engine::Level] {
        let mut suite = parse_manifest(&manifest, &dir).unwrap();
        suite.set_engine(engine);
        let report = suite.run();
        match &report.results[0].1 {
            CaseResult::TimedOut { reason } => {
                assert!(reason.contains("20000"), "engine {engine}: {reason}");
            }
            other => panic!("engine {engine}: expected TimedOut, got {other:?}"),
        }
        assert_eq!(report.exit_code(), 4, "engine {engine}");
        assert_eq!(report.results[0].1.status(), "timeout", "engine {engine}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn planted_hang_exits_the_cli_with_the_timeout_code() {
    let dir = std::env::temp_dir().join("fpgatest_faults_cli_timeout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("p.src"), HANG_PROGRAM).unwrap();
    let fault = hang_fault();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fpgatest"))
        .args([
            "test",
            "p.src",
            "--fault",
            &fault.to_string(),
            "--max-ticks",
            "20000",
        ])
        .current_dir(&dir)
        .output()
        .expect("fpgatest runs");
    assert_eq!(
        output.status.code(),
        Some(4),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_campaign_classifies_every_injection_without_crashing() {
    let case = passing_case("campaign");
    let options = CampaignOptions {
        seed: 1,
        sites: 200,
        engine: Engine::Event,
        max_ticks: Some(20_000),
        ..CampaignOptions::default()
    };
    let report = campaign_report(&case, &options).expect("campaign runs");

    assert!(
        report.site_pool >= 200,
        "pool of {} sites is too small to sample 200",
        report.site_pool
    );
    assert_eq!(report.injections.len(), 200);
    assert_eq!(
        report.count(InjectionOutcome::Crashed),
        0,
        "harness crashes:\n{}",
        report.render()
    );
    assert!(
        report.count(InjectionOutcome::Detected) > 0,
        "a 200-site campaign must detect something:\n{}",
        report.render()
    );
    assert!(report.detected_fraction() > 0.0);

    // Same seed, same sites: bit-identical log.
    let again = campaign_report(&case, &options).expect("campaign reruns");
    assert_eq!(report.render(), again.render());
}

#[test]
fn batch_campaign_matches_level_campaign_classification() {
    // The batch engine dispatches 64 fault sites per walk; every lane's
    // verdict (outcome and detail string) must be identical to what a
    // level-engine campaign over the same seeded site list produces —
    // on the small loop program, and on the paper's FDCT1 from the
    // example manifest (64 sites under the default tick budget, as
    // `fpgatest faults --design fdct1 --seed 1 --sites 64` runs it).
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/suite/suite.manifest"
    );
    let suite = fpgatest::suite::load_manifest(manifest).expect("example manifest loads");
    let fdct1 = suite
        .cases()
        .iter()
        .find(|case| case.name == "fdct1")
        .expect("the example manifest has fdct1")
        .clone();
    for (case, seed, sites, max_ticks) in [
        (passing_case("batch_parity"), 7, 150, Some(20_000)),
        (fdct1, 1, 64, None),
    ] {
        let mut reports = Vec::new();
        for engine in [Engine::Level, Engine::Batch] {
            let options = CampaignOptions {
                seed,
                sites,
                engine,
                max_ticks,
                ..CampaignOptions::default()
            };
            reports.push(campaign_report(&case, &options).expect("campaign runs"));
        }
        let (level, batch) = (&reports[0], &reports[1]);
        assert_eq!(level.injections.len(), sites, "{}", case.name);
        assert_eq!(level.injections.len(), batch.injections.len());
        for (l, b) in level.injections.iter().zip(&batch.injections) {
            assert_eq!(l.fault, b.fault, "seeded site lists diverged");
            assert_eq!(
                (&l.outcome, &l.detail),
                (&b.outcome, &b.detail),
                "batch lane disagrees with sequential level run on {}",
                l.fault
            );
        }
        for report in [level, batch] {
            assert_eq!(
                report.count(InjectionOutcome::Crashed),
                0,
                "{}",
                report.render()
            );
            assert_eq!(
                report.count(InjectionOutcome::Skipped),
                0,
                "{}",
                report.render()
            );
        }
        assert!(level.count(InjectionOutcome::Detected) > 0);
    }
}

#[test]
fn no_engine_reports_transient_skips() {
    // Transient faults (flip/seu) are now expressible on every engine:
    // a single-fault flow run on the level engine injects instead of
    // skipping, and a full campaign on each engine classifies every
    // transient site as something other than Skipped.
    let case = passing_case("transient_everywhere");
    let flow = TestFlow::new(&case.name, &case.source)
        .stimulus("inp", stimulus())
        .with_options(FlowOptions {
            engine: Engine::Level,
            faults: vec![FaultSpec::BitFlip {
                signal: loop_condition_signal(PROGRAM),
                bit: 0,
                cycle: 2,
            }],
            ..FlowOptions::default()
        });
    let report = flow.run().expect("flow runs");
    assert!(
        report.fault_skips.is_empty(),
        "the level engine must inject transients, not skip them: {:?}",
        report.fault_skips
    );

    for engine in Engine::ALL {
        let options = CampaignOptions {
            seed: 3,
            sites: 120,
            engine,
            max_ticks: Some(20_000),
            ..CampaignOptions::default()
        };
        let campaign = campaign_report(&case, &options).expect("campaign runs");
        assert!(
            campaign.injections.iter().any(|r| r.fault.is_transient()),
            "engine {engine}: the sampled campaign must include transient sites"
        );
        for record in &campaign.injections {
            assert_ne!(
                record.outcome,
                InjectionOutcome::Skipped,
                "engine {engine}: {} must classify, got Skipped: {}",
                record.fault,
                record.detail
            );
        }
    }
}

#[test]
fn transient_faults_agree_across_cycle_and_level_engines() {
    // The same scheduled flip must produce the same verdict and the
    // same final memories on both compiled engines — the level engine's
    // incremental settle reaches the sweeper's fixpoint exactly.
    let signal = loop_condition_signal(PROGRAM);
    for cycle in [1u64, 2, 3, 5, 8] {
        let fault = FaultSpec::BitFlip {
            signal: signal.clone(),
            bit: 0,
            cycle,
        };
        let mut reports = Vec::new();
        for engine in [Engine::Cycle, Engine::Level] {
            let flow = TestFlow::new("transient_xengine", PROGRAM)
                .stimulus("inp", stimulus())
                .with_options(FlowOptions {
                    engine,
                    faults: vec![fault.clone()],
                    max_ticks: 20_000,
                    ..FlowOptions::default()
                });
            match flow.run() {
                Ok(report) => reports.push(Some((report.passed, report.sim_mems))),
                Err(fpgatest::flow::FlowError::Timeout { .. }) => reports.push(None),
                Err(e) => panic!("engine {engine}, cycle {cycle}: unexpected error: {e}"),
            }
        }
        assert_eq!(
            reports[0], reports[1],
            "cycle and level engines disagree on {fault}"
        );
    }
}

#[test]
fn clean_runs_are_untouched_by_the_fault_machinery() {
    let baseline = TestFlow::new("clean", PROGRAM)
        .stimulus("inp", stimulus())
        .run()
        .expect("clean flow");
    assert!(baseline.passed);
    assert!(baseline.fault_skips.is_empty());

    // The wall-clock watchdog path (flow on its own thread) must produce
    // the very same verdict and counters as the direct path.
    let mut watched_case = passing_case("clean");
    watched_case.options.wall_timeout_ms = Some(60_000);
    let report = Suite::new().with_case(watched_case).run();
    let CaseResult::Finished(watched) = &report.results[0].1 else {
        panic!("expected Finished, got {:?}", report.results[0].1);
    };
    assert!(watched.passed);
    assert_eq!(watched.sim_mems, baseline.sim_mems);
    assert_eq!(
        watched.runs.iter().map(|r| r.summary.events).collect::<Vec<_>>(),
        baseline.runs.iter().map(|r| r.summary.events).collect::<Vec<_>>()
    );
    assert_eq!(
        watched.runs.iter().map(|r| r.cycles).collect::<Vec<_>>(),
        baseline.runs.iter().map(|r| r.cycles).collect::<Vec<_>>()
    );
}

#[test]
fn static_faults_inject_on_all_three_engines() {
    // A stuck-at on the loop condition must change behaviour everywhere:
    // each engine either hangs or miscomputes, but never passes clean.
    let fault = hang_fault();
    for engine in [Engine::Event, Engine::Cycle, Engine::Level] {
        let flow = TestFlow::new("static", HANG_PROGRAM).with_options(FlowOptions {
            engine,
            faults: vec![fault.clone()],
            max_ticks: 20_000,
            ..FlowOptions::default()
        });
        match flow.run() {
            Err(fpgatest::flow::FlowError::Timeout { .. }) => {}
            Ok(report) => assert!(
                !report.passed,
                "engine {engine}: stuck loop condition must not pass"
            ),
            Err(e) => panic!("engine {engine}: unexpected flow error: {e}"),
        }
    }
}
