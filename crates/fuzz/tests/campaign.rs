//! End-to-end tests of the fuzzing campaign: determinism, the planted
//! branch-polarity bug being caught and shrunk small, corpus
//! persistence, and the checkpoint identity a resume must match.

use fpgafuzz::campaign::{
    run_campaign_sharded, CampaignOptions, CampaignReport, ShardedCampaignOptions,
};
use fpgafuzz::exec::Injection;
use fpgafuzz::shrink::line_count;

fn quick(seed: u64, cases: u64) -> CampaignOptions {
    CampaignOptions {
        seed,
        cases,
        // A small watchdog: the planted bug can loop the FSM forever, and
        // the timeout is then the divergence signal.
        max_ticks: 50_000,
        ..CampaignOptions::default()
    }
}

/// A whole campaign at the default (one) shard.
fn campaign_report(opts: &CampaignOptions) -> std::io::Result<CampaignReport> {
    run_campaign_sharded(opts, &ShardedCampaignOptions::default()).map(|outcome| outcome.report)
}

#[test]
fn fresh_campaigns_are_bit_identical() {
    let opts = quick(7, 40);
    let a = campaign_report(&opts).unwrap();
    let b = campaign_report(&opts).unwrap();
    assert_eq!(a.log, b.log);
    assert_eq!(a.divergences, 0, "clean compiler must not diverge:\n{}", a.log);
    assert_eq!(a.generator_errors, 0, "generator must emit valid cases:\n{}", a.log);
    assert!(a.coverage.len() > 10, "a run this size covers many keys");
}

#[test]
fn injected_branch_polarity_is_caught_and_shrunk() {
    let opts = CampaignOptions {
        injection: Some(Injection::BranchPolarity),
        ..quick(42, 20)
    };
    let report = campaign_report(&opts).unwrap();
    assert!(
        report.divergences > 0,
        "the planted bug must be detected:\n{}",
        report.log
    );
    let smallest = report
        .shrunk
        .iter()
        .map(line_count)
        .min()
        .expect("at least one shrunk case");
    assert!(
        smallest <= 10,
        "expected a shrunk case of <= 10 source lines, got {smallest}:\n{}",
        report.log
    );
}

#[test]
fn injected_signal_fault_is_never_a_clean_pass() {
    use fpgafuzz::exec::{run_case, signal_fault_for, CaseOutcome, ExecOptions};
    use fpgafuzz::gen::{generate_case, Budget};

    let budget = Budget {
        width: 16,
        ..Budget::default()
    };
    let exec = ExecOptions {
        max_ticks: 50_000,
        injection: Some(Injection::SignalFault),
        ..ExecOptions::default()
    };
    let mut faulted = 0;
    for index in 0..8 {
        let case = generate_case(11, index, &budget).expect("generator emits a valid case");
        match run_case(&case, 16, &exec) {
            // A fault-injected run must never come back as Pass; the
            // only clean Pass allowed is a design with nothing to fault.
            CaseOutcome::Pass { .. } => {
                let compile = nenya::CompileOptions {
                    width: 16,
                    ..nenya::CompileOptions::default()
                };
                let name = format!("fuzz_11_{index}");
                let design = nenya::compile_program(&name, &case.program, &compile).unwrap();
                assert!(
                    signal_fault_for(&design, index).is_none(),
                    "case {index} passed despite a faultable memory"
                );
            }
            CaseOutcome::Divergence(_) => faulted += 1,
            CaseOutcome::GeneratorError(e) => panic!("case {index}: generator error: {e}"),
        }
    }
    assert!(
        faulted > 0,
        "at least one case in the batch must carry a detected fault"
    );
}

#[test]
fn corpus_accumulates_coverage_across_runs() {
    let dir = std::env::temp_dir().join("fpgafuzz_campaign_corpus");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        corpus_dir: Some(dir.clone()),
        ..quick(9, 25)
    };
    let first = campaign_report(&opts).unwrap();
    assert!(first.new_keys > 0);
    assert!(dir.join("coverage.txt").is_file());
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_some(),
        "coverage-increasing cases are saved"
    );
    // A second run starts from the saved map. Its generation is biased
    // differently (the missing-operator set shrank), so it may still add
    // the odd key, but coverage only grows and mostly saturates.
    let second = campaign_report(&opts).unwrap();
    assert!(second.new_keys <= first.new_keys / 2);
    assert!(second.coverage.len() >= first.coverage.len());
    assert_eq!(
        std::fs::read_to_string(dir.join("coverage.txt")).unwrap(),
        second.coverage.render()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_changed_tick_or_shrink_budget() {
    // A resumed campaign must match an uninterrupted one, so a checkpoint
    // taken under one watchdog or shrink budget cannot finish a run under
    // another: with `max_ticks: 10` every case would diverge.
    let dir = std::env::temp_dir().join("fpgafuzz_campaign_budget");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("f.ckpt");
    let opts = quick(3, 16);
    let first = run_campaign_sharded(
        &opts,
        &ShardedCampaignOptions {
            checkpoint: Some(checkpoint.clone()),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();
    assert_eq!(first.report.divergences, 0, "{}", first.report.log);
    let resume = ShardedCampaignOptions {
        resume: Some(checkpoint),
        ..ShardedCampaignOptions::default()
    };
    for changed in [
        CampaignOptions {
            max_ticks: 10,
            ..quick(3, 16)
        },
        CampaignOptions {
            max_shrink_evals: 7,
            ..quick(3, 16)
        },
    ] {
        let err = run_campaign_sharded(&changed, &resume).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("does not match this campaign"),
            "{err}"
        );
    }
    // The unchanged campaign still resumes, to the same log.
    let resumed = run_campaign_sharded(&opts, &resume).unwrap();
    assert_eq!(resumed.report.log, first.report.log);
    let _ = std::fs::remove_dir_all(&dir);
}
