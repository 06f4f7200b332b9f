//! End-to-end checks of the fault-injection subsystem and the hardened
//! suite runner: a planted panic never takes down a `--jobs` pool, an
//! FSM that can never reach `done` yields a Timeout verdict on all three
//! engines, a seeded campaign classifies every injection without a
//! single harness crash, the fault machinery is invisible on clean
//! runs, and every site a campaign proves silent without simulating it
//! is silent when simulated alone.

use fpgatest::faults::{
    run_campaign_sharded, CampaignOptions, CampaignReport, FaultSpec, InjectionOutcome,
    ShardedCampaignOptions, SilentReason,
};
use fpgatest::flow::{
    prepare_design, Engine, FlowError, FlowOptions, PreparedDesign, PreparedGolden, TestFlow,
};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::{parse_manifest, CaseResult, Suite, TestCase};
use std::collections::BTreeMap;

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
    // on the small loop program, on the paper's FDCT1 from the example
    // manifest (64 sites under the default tick budget, as
    // `fpgatest faults --design fdct1 --seed 1 --sites 64` runs it), and
    // on the manifest's data-dependent hamming and sort, whose packs
    // spread across controller states even without a control fault.
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/suite/suite.manifest"
    );
    let suite = fpgatest::suite::load_manifest(manifest).expect("example manifest loads");
    let manifest_case = |name: &str| {
        suite
            .cases()
            .iter()
            .find(|case| case.name == name)
            .unwrap_or_else(|| panic!("the example manifest has {name}"))
            .clone()
    };
    for (case, seed, sites, max_ticks) in [
        (passing_case("batch_parity"), 7, 150, Some(20_000)),
        (manifest_case("fdct1"), 1, 64, None),
        (manifest_case("hamming"), 1, 128, None),
        (manifest_case("sort"), 1, 128, None),
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

/// The example manifest's designs.
const MANIFEST_DESIGNS: [&str; 5] = ["fdct1", "fdct2", "fdct1_optimized", "hamming", "sort"];

/// The example manifest's case `name`.
fn manifest_case(name: &str) -> TestCase {
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/suite/suite.manifest"
    );
    let suite = fpgatest::suite::load_manifest(manifest).expect("example manifest loads");
    suite
        .cases()
        .iter()
        .find(|case| case.name == name)
        .unwrap_or_else(|| panic!("the example manifest has {name}"))
        .clone()
}

/// A campaign over the whole site pool of `case`.
fn full_pool(case: &TestCase, engine: Engine) -> CampaignReport {
    let options = CampaignOptions {
        seed: 1,
        sites: usize::MAX,
        engine,
        ..CampaignOptions::default()
    };
    let shards = ShardedCampaignOptions {
        shards: 2,
        ..ShardedCampaignOptions::default()
    };
    let report = run_campaign_sharded(case, &options, &shards)
        .unwrap_or_else(|e| panic!("{} on {engine}: {e}", case.name))
        .report;
    assert_eq!(report.injections.len(), report.site_pool);
    report
}

/// One design prepared for simulating sites one at a time, sharing
/// nothing with the campaign runner but the public flow.
struct Alone {
    prepared: PreparedDesign,
    golden: PreparedGolden,
    options: FlowOptions,
}

impl Alone {
    /// `case` on `engine` under a campaign's tick budget: `max_ticks`, or
    /// five times the clean run's ticks and at least 50k.
    fn new(case: &TestCase, engine: Engine, max_ticks: Option<u64>) -> Alone {
        let program = nenya::lang::parse(&case.source).unwrap();
        let design = nenya::compile_program(&case.name, &program, &case.options.compile).unwrap();
        let prepared = prepare_design(design).unwrap();
        let mut options = FlowOptions {
            engine,
            keep_artifacts: false,
            ..case.options.clone()
        };
        let golden = prepared.prepare_golden(&case.stimuli, &options).unwrap();
        let clean = prepared.run_with_golden(&golden, &options).unwrap();
        let clean_ticks: u64 = clean.runs.iter().map(|r| r.cycles * 10).sum();
        options.max_ticks = max_ticks.unwrap_or((clean_ticks * 5).max(50_000));
        Alone {
            prepared,
            golden,
            options,
        }
    }

    /// `(outcome, detail)` of `fault` simulated alone, classified as a
    /// campaign classifies it.
    fn classify(&self, fault: &FaultSpec) -> (String, String) {
        let options = FlowOptions {
            faults: vec![fault.clone()],
            ..self.options.clone()
        };
        let (outcome, detail) = match self.prepared.run_with_golden(&self.golden, &options) {
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
        (outcome.to_string(), detail)
    }
}

/// Simulates the sites `report` proved silent without simulation
/// (`unexcited` and `dead-word`) one at a time on `engine`, at most
/// `per_reason` of each reason, and asserts each is silent. Returns how
/// many of each reason it checked.
fn check_proofs(
    case: &TestCase,
    report: &CampaignReport,
    engine: Engine,
    per_reason: usize,
) -> BTreeMap<String, usize> {
    let alone = Alone::new(case, engine, None);
    let mut checked = BTreeMap::new();
    for record in &report.injections {
        let Some(reason @ (SilentReason::Unexcited | SilentReason::DeadWord)) = record.reason else {
            continue;
        };
        assert_eq!(
            (record.outcome, record.detail.as_str()),
            (InjectionOutcome::Silent, "verdict PASS")
        );
        let count = checked.entry(reason.to_string()).or_insert(0);
        if *count == per_reason {
            continue;
        }
        *count += 1;
        assert_eq!(
            alone.classify(&record.fault),
            ("silent".to_string(), "verdict PASS".to_string()),
            "{}: {} was proven {reason} by the {} campaign, yet simulated alone on {engine}",
            case.name,
            record.fault,
            report.engine
        );
    }
    checked
}

/// Every proven site of sort's full pool, on the level and batch
/// campaigns, simulated alone on the campaign's engine.
#[test]
fn proven_sites_of_sorts_full_pool_are_silent_when_simulated_alone() {
    let sort = manifest_case("sort");
    for engine in [Engine::Level, Engine::Batch] {
        let report = full_pool(&sort, engine);
        let checked = check_proofs(&sort, &report, engine, usize::MAX);
        assert!(checked.get("unexcited") > Some(&0), "{engine}: {checked:?}");
        assert!(
            report.count(InjectionOutcome::Detected) > 0,
            "{engine}: the unproven sites were simulated"
        );
    }
}

/// For each manifest design, up to four proven sites of each reason
/// from a level campaign, simulated alone on every engine: the proofs
/// come from the one-lane bytecode whatever the campaign's engine.
#[test]
fn proven_sites_are_silent_on_every_engine() {
    for name in MANIFEST_DESIGNS {
        let case = manifest_case(name);
        let options = CampaignOptions {
            seed: 1,
            sites: 48,
            engine: Engine::Level,
            ..CampaignOptions::default()
        };
        let report = campaign_report(&case, &options).expect("campaign runs");
        for engine in Engine::ALL {
            let checked = check_proofs(&case, &report, engine, 4);
            assert!(checked.get("unexcited") > Some(&0), "{name}: {checked:?}");
        }
    }
}

/// The full pools: all five manifest designs on the batch and level
/// engines, hamming and sort also on the cycle and event engines. Every
/// proven site is simulated alone on the campaign's engine. CI's fault
/// smoke job runs it in release.
#[test]
#[ignore = "full fault pools; run with cargo test --release --test faults_integration -- --ignored"]
fn every_proven_site_of_the_full_pools_is_silent() {
    for name in MANIFEST_DESIGNS {
        let case = manifest_case(name);
        let engines: &[Engine] = if matches!(name, "hamming" | "sort") {
            &Engine::ALL
        } else {
            &[Engine::Batch, Engine::Level]
        };
        for &engine in engines {
            let report = full_pool(&case, engine);
            let checked = check_proofs(&case, &report, engine, usize::MAX);
            eprintln!(
                "{name} on {engine}: {checked:?} proven of {} sites",
                report.site_pool
            );
        }
    }
}

/// A proven site's faulty run is the clean run, so a tick budget the
/// clean run does not fit proves nothing: hamming's clean run needs
/// 2,077 cycles, and 2,000 ticks allow 200. Every record then equals
/// its site simulated alone.
#[test]
fn a_budget_the_clean_run_exceeds_proves_nothing() {
    let case = manifest_case("hamming");
    let options = CampaignOptions {
        seed: 1,
        sites: 200,
        engine: Engine::Batch,
        max_ticks: Some(2000),
        ..CampaignOptions::default()
    };
    let report = campaign_report(&case, &options).expect("campaign runs");
    assert!(report.count(InjectionOutcome::Hung) > 0, "{}", report.render());
    let alone = Alone::new(&case, Engine::Batch, Some(2000));
    for record in &report.injections {
        assert!(
            !matches!(
                record.reason,
                Some(SilentReason::Unexcited | SilentReason::DeadWord)
            ),
            "{} proven under a budget the clean run exceeds",
            record.fault
        );
        assert_eq!(
            (record.outcome.to_string(), record.detail.clone()),
            alone.classify(&record.fault),
            "{}",
            record.fault
        );
    }
}
