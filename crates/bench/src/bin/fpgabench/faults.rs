//! `fault-batch`: fault campaigns on FDCT1 (1,024 px; smoke: 256 px) through
//! `fpgatest::faults::run_campaign_sharded` on the batch engine at 2
//! shards.
//!
//! Transform and golden run once per campaign and the serve cache is not
//! involved, so the batch engine and the campaign runtime dominate. The
//! window runs back-to-back campaigns ("rounds") over one fixed sample of
//! sites; the workload seed picks the stimulus image. The sample is fixed
//! because a hung site holds its 64-lane pack for about 25 times a normal
//! pack's time: with the sample drawn per seed, sites/s swung by 40%
//! between seeds on how many hung sites each drew.

use crate::probe::{self, Design};
use crate::trace::Tracer;
use crate::{exact_u64, seeded_image, Config, Measured, SHARDS};
use fpgatest::events::EventSink;
use fpgatest::faults::{
    run_campaign_sharded, CampaignOptions, CampaignReport, InjectionOutcome, ShardedCampaignOptions,
};
use fpgatest::flow::{BatchLaneSpec, Engine, FlowOptions};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::TestCase;
use fpgatest::workloads;
use std::time::Instant;

const PIXELS: usize = 1024;
const SMOKE_PIXELS: usize = 256;
const LANES: usize = eventsim::batchsim::LANES;
/// Site-sampling seed of every round.
const SAMPLE_SEED: u64 = 5;
const OUTCOMES: [(&str, InjectionOutcome); 5] = [
    ("detected", InjectionOutcome::Detected),
    ("silent", InjectionOutcome::Silent),
    ("hung", InjectionOutcome::Hung),
    ("skipped", InjectionOutcome::Skipped),
    ("crashed", InjectionOutcome::Crashed),
];

pub struct FaultBatch {
    config: Config,
    pixels: usize,
    case: TestCase,
    sites: usize,
    next_round: u64,
    /// Round 0's outcome counts, which every later round must repeat.
    first_counts: Option<Vec<u64>>,
    /// The last traced round, replayed pack by pack in
    /// [`Workload::attribute`].
    traced: Option<(CampaignReport, f64)>,
}

fn campaign(seed: u64, sites: usize) -> CampaignOptions {
    CampaignOptions {
        seed,
        sites,
        engine: Engine::Batch,
        max_ticks: None,
        events: EventSink::disabled(),
    }
}

fn shards() -> ShardedCampaignOptions {
    ShardedCampaignOptions {
        shards: SHARDS,
        ..ShardedCampaignOptions::default()
    }
}

pub fn setup(config: Config) -> Result<FaultBatch, String> {
    let pixels = if config.smoke { SMOKE_PIXELS } else { PIXELS };
    let image = if config.exact.is_some() {
        workloads::test_image(pixels)
    } else {
        seeded_image(config.seed, pixels)
    };
    let mut case = TestCase::new("fdct1", workloads::fdct_source(pixels))
        .with_stimulus("img", Stimulus::from_values(image));
    case.options.compile.width = 32;
    // Warm-up: one pack of sites sampled with a seed no round uses.
    run_campaign_sharded(&case, &campaign(!SAMPLE_SEED, LANES), &shards())
        .map_err(|e| format!("warm-up campaign: {e}"))?;
    Ok(FaultBatch {
        sites: if config.smoke { 2 * LANES } else { 32 * LANES },
        config,
        pixels,
        case,
        next_round: 0,
        first_counts: None,
        traced: None,
    })
}

impl crate::Workload for FaultBatch {
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
            let span = trace
                .as_mut()
                .map(|(t, root)| t.open("campaign.faults", Some(*root), Some(round)));
            let round_started = Instant::now();
            let result =
                run_campaign_sharded(&self.case, &campaign(SAMPLE_SEED, self.sites), &shards());
            let wall = round_started.elapsed().as_secs_f64();
            if let (Some((tracer, _)), Some(span)) = (trace.as_mut(), span) {
                tracer.close(span);
            }
            out.attempted += self.sites as u64;
            out.latencies_ms.push(wall * 1e3);
            let report = match result {
                Ok(outcome) => outcome.report,
                Err(e) => {
                    out.failed += self.sites as u64;
                    out.errors
                        .push(format!("round {round}: campaign error: {e}"));
                    continue;
                }
            };
            let count = |outcome| report.count(outcome) as u64;
            let harness_failures =
                count(InjectionOutcome::Crashed) + count(InjectionOutcome::Skipped);
            out.failed += harness_failures;
            if report.injections.len() != self.sites || harness_failures > 0 {
                out.errors.push(format!(
                    "round {round}: {} of {} sites classified, {} crashed, {} skipped",
                    report.injections.len(),
                    self.sites,
                    count(InjectionOutcome::Crashed),
                    count(InjectionOutcome::Skipped)
                ));
            }
            let counts: Vec<u64> = OUTCOMES
                .iter()
                .map(|&(_, outcome)| count(outcome))
                .collect();
            match &self.first_counts {
                None => {
                    for (&(key, _), &got) in OUTCOMES.iter().zip(&counts) {
                        if let Some(want) = exact_u64(&self.config, key) {
                            if got != want {
                                out.errors
                                    .push(format!("round 0: {got} {key}, expected {want}"));
                            }
                        }
                    }
                    self.first_counts = Some(counts);
                }
                Some(first) if *first != counts => {
                    out.errors.push(format!(
                        "round {round}: outcome counts {counts:?}, round 0 had {first:?}"
                    ));
                }
                Some(_) => {}
            }
            if trace.is_some() {
                self.traced = Some((report, wall));
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.rate = crate::sequential_rate(self.sites as u64, &out.latencies_ms);
        out.notes.push(format!(
            "{} rounds of {} sites on FDCT1 {} px, batch engine, {SHARDS} shards; \
             detected/silent/hung/skipped/crashed {:?}",
            out.latencies_ms.len(),
            self.sites,
            self.pixels,
            self.first_counts.as_deref().unwrap_or_default()
        ));
        out
    }

    /// Probes FDCT1 stage by stage, then replays the traced round's own
    /// fault list through `run_batch` in packs of 64 lanes.
    fn attribute(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let design = Design {
            name: &self.case.name,
            source: &self.case.source,
            compile: self.case.options.compile.clone(),
            stimuli: &self.case.stimuli,
        };
        let span = tracer.open("faults.probe", Some(root), None);
        let (prepared, cycles) = probe::probe(tracer, span, None, &design, &Engine::ALL, true)?;
        tracer.close(span);

        let (report, campaign_wall) = self.traced.take().ok_or("no traced round to replay")?;
        let span = tracer.open("faults.replay", Some(root), None);
        // The campaign's own watchdog: five times the clean run's ticks.
        let batch = Engine::ALL
            .iter()
            .position(|&e| e == Engine::Batch)
            .expect("Engine::ALL lists the batch engine");
        let clean_ticks = cycles[batch] * 10;
        let options = FlowOptions {
            compile: self.case.options.compile.clone(),
            engine: Engine::Batch,
            keep_artifacts: false,
            max_ticks: (clean_ticks * 5).max(50_000),
            ..FlowOptions::default()
        };
        let mut busy_ns = 0;
        for (pack, records) in report.injections.chunks(LANES).enumerate() {
            let lanes: Vec<BatchLaneSpec> = records
                .iter()
                .map(|record| BatchLaneSpec {
                    stimuli: self.case.stimuli.clone(),
                    faults: vec![record.fault.clone()],
                })
                .collect();
            let (id, result) =
                tracer.timed("sim.batch.pack", Some(span), Some(pack as u64), || {
                    prepared.run_batch(&lanes, &options)
                });
            let result = result.map_err(|e| format!("pack {pack}: {e}"))?;
            busy_ns += tracer.spans()[id].duration_ns();
            tracer.attr(id, "lanes", lanes.len() as u64);
            tracer.attr(id, "cycles", result.lanes.iter().map(|l| l.cycles).sum());
            for (lane, record) in result.lanes.iter().zip(records) {
                if lane.timed_out.is_some() != (record.outcome == InjectionOutcome::Hung) {
                    return Err(format!(
                        "pack {pack}: replay of {} disagrees with the campaign",
                        record.fault
                    ));
                }
            }
        }
        tracer.close(span);
        let sites = report.injections.len().max(1) as f64;
        Ok(vec![
            (
                "faults.hung_share",
                report.count(InjectionOutcome::Hung) as f64 / sites,
            ),
            (
                "runtime.utilization",
                busy_ns as f64 / 1e9 / (SHARDS as f64 * campaign_wall),
            ),
        ])
    }
}
