//! `fuzz-diff`: differential fuzz campaigns through
//! `fpgafuzz::campaign::run_campaign_sharded` at 2 shards.
//!
//! The window runs back-to-back campaigns ("rounds") of a fixed case
//! count, each seeded from the workload seed and its round number; the
//! latency sample is a round's time to its verdict. `run_case` makes 8
//! `run_design` calls per case on tiny designs, so transform, golden and
//! compile dominate here and the engines barely matter.

use crate::probe::{self, Design};
use crate::trace::Tracer;
use crate::{exact_u64, Config, Measured, SHARDS};
use fpgafuzz::campaign::{run_campaign_sharded, CampaignOptions, ShardedCampaignOptions};
use fpgafuzz::coverage::{missing_ops, CoverageMap};
use fpgafuzz::exec::{run_case, CaseOutcome, ExecOptions};
use fpgafuzz::gen::{generate_case, Budget};
use fpgafuzz::rng::Rng;
use fpgatest::flow::Engine;
use nenya::CompileOptions;
use std::time::Instant;

/// Seed of the set-up's warm-up campaign: fixed, so set-up does the same
/// work at every workload seed.
const WARM_SEED: u64 = 0x5741_524d;

pub struct FuzzDiff {
    config: Config,
    cases: u64,
    next_round: u64,
    /// `(round seed, wall seconds, coverage keys)` of the traced rounds,
    /// replayed case by case in [`Workload::attribute`].
    traced: Vec<(u64, f64, usize)>,
}

/// Round `r`'s seed: round 0 is the workload seed itself.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.rotate_left(32)
}

fn campaign(seed: u64, cases: u64) -> CampaignOptions {
    CampaignOptions {
        seed,
        cases,
        ..CampaignOptions::default()
    }
}

pub fn setup(config: Config) -> Result<FuzzDiff, String> {
    let cases = if config.smoke { 8 } else { 64 };
    // The campaigns generate their own cases from `(seed, index)`, so
    // set-up is a warm-up campaign of half a round. With fewer cases the
    // two shards' split of the work made set-up time bimodal.
    let warm = run_campaign_sharded(
        &campaign(WARM_SEED, cases / 2),
        &ShardedCampaignOptions {
            shards: SHARDS,
            ..ShardedCampaignOptions::default()
        },
    )
    .map_err(|e| format!("warm-up campaign: {e}"))?;
    if warm.report.divergences + warm.report.generator_errors > 0 {
        return Err("warm-up campaign diverged".to_string());
    }
    Ok(FuzzDiff {
        config,
        cases,
        next_round: 0,
        traced: Vec::new(),
    })
}

impl crate::Workload for FuzzDiff {
    fn measure(&mut self, seconds: f64, mut trace: Option<(&mut Tracer, usize)>) -> Measured {
        let mut out = Measured::default();
        if trace.is_some() {
            // The traced window replays the untraced window's rounds, so
            // the tracing overhead compares the same work.
            self.next_round = 0;
        }
        let started = Instant::now();
        while out.latencies_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let round = self.next_round;
            self.next_round += 1;
            let seed = round_seed(self.config.seed, round);
            let span = trace
                .as_mut()
                .map(|(t, root)| t.open("campaign.fuzz", Some(*root), Some(round)));
            let round_started = Instant::now();
            let result = run_campaign_sharded(
                &campaign(seed, self.cases),
                &ShardedCampaignOptions {
                    shards: SHARDS,
                    ..ShardedCampaignOptions::default()
                },
            );
            let wall = round_started.elapsed().as_secs_f64();
            if let (Some((tracer, _)), Some(span)) = (trace.as_mut(), span) {
                tracer.close(span);
            }
            out.attempted += self.cases;
            out.latencies_ms.push(wall * 1e3);
            let report = match result {
                Ok(outcome) => outcome.report,
                Err(e) => {
                    out.failed += self.cases;
                    out.errors
                        .push(format!("round {round}: campaign error: {e}"));
                    continue;
                }
            };
            let bad = (report.divergences + report.generator_errors) as u64;
            out.failed += bad;
            if bad > 0 {
                out.errors.push(format!(
                    "round {round} (seed {seed}): {} divergences, {} generator errors",
                    report.divergences, report.generator_errors
                ));
            }
            if round == 0 {
                out.notes
                    .push(format!("round 0: {} coverage keys", report.coverage.len()));
                if let Some(want) = exact_u64(&self.config, "coverage_keys") {
                    if report.coverage.len() as u64 != want {
                        out.errors.push(format!(
                            "round 0: {} coverage keys, expected {want}",
                            report.coverage.len()
                        ));
                    }
                }
            }
            if trace.is_some() {
                self.traced.push((seed, wall, report.coverage.len()));
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.rate = crate::sequential_rate(self.cases, &out.latencies_ms);
        out.notes.push(format!(
            "{} rounds of {} cases at {SHARDS} shards",
            out.latencies_ms.len(),
            self.cases
        ));
        out
    }

    /// A traced sequential pass over the traced rounds' `(seed, index)`
    /// cases, with the campaign's budget and frozen bias, plus a seeded
    /// 1-in-4 sample probed stage by stage.
    fn attribute(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let budget = Budget {
            op_bias: missing_ops(&CoverageMap::new()),
            ..Budget::default()
        };
        let exec = ExecOptions::default();
        let compile = CompileOptions {
            width: budget.width,
            ..CompileOptions::default()
        };
        let mut busy_ns = 0;
        let mut campaign_wall = 0.0;
        for &(seed, wall, _) in &self.traced {
            campaign_wall += wall;
            for index in 0..self.cases {
                let case_span = tracer.open("fuzz.case", Some(root), Some(index));
                let (_, case) = tracer.timed("fuzz.gen", Some(case_span), Some(index), || {
                    generate_case(seed, index, &budget)
                });
                let case = case?;
                let (_, outcome) = tracer.timed("fuzz.exec", Some(case_span), Some(index), || {
                    run_case(&case, budget.width, &exec)
                });
                tracer.close(case_span);
                busy_ns += tracer.spans()[case_span].duration_ns();
                if !matches!(outcome, CaseOutcome::Pass { .. }) {
                    return Err(format!(
                        "case {index} of seed {seed} did not pass when replayed"
                    ));
                }
                if Rng::new(seed).derive(index).below(4) == 0 {
                    let stimuli: Vec<_> = case
                        .stimuli
                        .iter()
                        .map(|(mem, values)| {
                            (
                                mem.clone(),
                                fpgatest::stimulus::Stimulus::from_values(values.iter().copied()),
                            )
                        })
                        .collect();
                    let design = Design {
                        name: "fuzz",
                        source: &case.source,
                        compile: compile.clone(),
                        stimuli: &stimuli,
                    };
                    let span = tracer.open("fuzz.probe", Some(root), Some(index));
                    probe::probe(tracer, span, Some(index), &design, &Engine::ALL, true)?;
                    tracer.close(span);
                }
            }
        }
        let keys: Vec<f64> = self.traced.iter().map(|&(_, _, k)| k as f64).collect();
        Ok(vec![
            (
                "runtime.utilization",
                busy_ns as f64 / 1e9 / (SHARDS as f64 * campaign_wall),
            ),
            ("fuzz.coverage_keys", crate::stats::median(&keys)),
        ])
    }
}
