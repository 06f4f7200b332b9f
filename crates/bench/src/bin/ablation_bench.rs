//! Engine-ablation benchmark: event kernel vs cycle sweeper vs the
//! compiled bytecode walked one lane wide (level) and 64 lanes wide
//! (batch) on the paper's FDCT1 workload.
//!
//! Runs FDCT1 at one or more image sizes through all four simulation
//! engines (`fpgatest --engine {event,cycle,level,batch}`) and writes a
//! `fpgatest-metrics-v1` report (default `BENCH_ablation.json`, keys
//! sorted for byte-stable diffs) extended with an `ablation_bench`
//! comparison block: per engine wall-clock, cycles, and evaluation
//! counts, plus the level engine's speedup over the naive cycle sweeper
//! and its ratio to the event kernel.
//!
//! A second batch column measures *effective case-throughput*: 64
//! distinct stimulus images dispatched as lanes of one
//! [`fpgatest::flow::PreparedDesign::run_batch`] call, compared against
//! 64 sequential level-engine runs (priced at the level row's measured
//! per-case sim wall). Since the level row is the same bytecode one lane wide, the
//! ratio prices lane packing alone. Every lane must pass its golden
//! comparison, and lane 0 — which reuses the level row's stimulus — must
//! leave memories word-identical to the level engine's. The effective
//! speedup is gated: at 65,536 pixels the batch engine must clear 4x by
//! default, and `--batch-floor F` applies a custom floor at every size
//! run (CI smoke uses a small size with a CI-safe floor).
//!
//! A control-divergence row runs the example manifest's `hamming` with
//! 64 seeded code-word vectors, whose data-dependent branch spreads the
//! lanes over the controller's states, as one `run_batch` call against
//! 64 sequential level runs. Every lane must pass and match its level
//! run, and the 64-lane walk must not lose to the 64 one-lane walks in
//! sim wall (a fixed 1.0x floor; `--batch-floor` gates only the FDCT
//! column).
//!
//! The run doubles as an equivalence gate: the four engines must leave
//! word-identical final memories, and their cycle counts may differ by
//! at most one (the compiled engines count the cycle-0 reset step; the
//! event path derives cycles from the stop time). Any disagreement exits
//! non-zero — CI runs this at 4,096 pixels as `ablation-smoke`.
//!
//! Usage: `ablation_bench [--pixels N]... [--repeat R] [--batch-floor F]
//! [--metrics-out FILE]` (default sizes 1024, 4096, 16384, 65536; `R`
//! defaults to 2 and the reported wall-clock is the best of the
//! repeats).

use bench::{fdct_flow, run_checked};
use fpgafuzz::rng::Rng;
use fpgatest::flow::{prepare_design, BatchLaneSpec, Engine, FlowOptions, TestReport};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::{load_manifest, CaseResult, SuiteReport};
use fpgatest::telemetry::{self, Json, SpanSink};
use fpgatest::workloads;
use nenya::schedule::SchedulePolicy;
use nenya::CompileOptions;
use std::path::PathBuf;
use std::process::ExitCode;

/// Lanes per batch walk (the batch engine's fixed width).
const BATCH_LANES: usize = 64;

/// Default effective-speedup floor, enforced at [`GATED_PIXELS`] when no
/// `--batch-floor` is given.
const DEFAULT_BATCH_FLOOR: f64 = 4.0;

/// The FDCT1-64k size the default batch gate applies to.
const GATED_PIXELS: usize = 65536;

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/suite/suite.manifest"
);

/// Floor on the control-divergence row's batch-over-level speedup: one
/// 64-lane walk must not lose to 64 one-lane walks.
const DIVERGENCE_FLOOR: f64 = 1.0;

/// Seed of the control-divergence row's code-word vectors.
const DIVERGENCE_SEED: u64 = 7;

struct EngineRow {
    engine: Engine,
    wall_seconds: f64,
    cycles: u64,
    evals: u64,
    report: TestReport,
}

fn main() -> ExitCode {
    let mut pixels: Vec<usize> = Vec::new();
    let mut repeat: usize = 2;
    let mut batch_floor: Option<f64> = None;
    let mut metrics_out = PathBuf::from("BENCH_ablation.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--pixels" => pixels.push(
                value("--pixels")
                    .parse()
                    .expect("--pixels must be an integer"),
            ),
            "--repeat" => {
                repeat = value("--repeat")
                    .parse()
                    .expect("--repeat must be an integer");
                assert!(repeat >= 1, "--repeat must be at least 1");
            }
            "--batch-floor" => {
                batch_floor = Some(
                    value("--batch-floor")
                        .parse()
                        .expect("--batch-floor must be a number"),
                );
            }
            "--metrics-out" => metrics_out = PathBuf::from(value("--metrics-out")),
            other => {
                eprintln!("ablation_bench: unknown argument '{other}'");
                eprintln!(
                    "usage: ablation_bench [--pixels N]... [--repeat R] \
                     [--batch-floor F] [--metrics-out FILE]"
                );
                return ExitCode::from(2);
            }
        }
    }
    if pixels.is_empty() {
        pixels = vec![1024, 4096, 16384, 65536];
    }

    println!("engine ablation (FDCT1): event kernel vs cycle sweeper vs compiled bytecode\n");
    let spans = SpanSink::recording();
    let mut reports = Vec::new();
    let mut comparison_rows = Vec::new();
    let mut disagreement = false;
    for &px in &pixels {
        let mut rows: Vec<EngineRow> = Vec::new();
        for engine in Engine::ALL {
            let label = format!("fdct1_{px}px_{engine}");
            let flow = fdct_flow(px, 1, SchedulePolicy::List)
                .with_engine(engine)
                .with_spans(spans.clone());
            // Best-of-`repeat` wall-clock; counters asserted stable.
            let mut best: Option<(f64, TestReport)> = None;
            for _ in 0..repeat {
                let span = spans.start(format_args!("case.{label}"));
                let report = run_checked(&flow);
                spans.end(span);
                let wall = report.runs[0].summary.wall_seconds;
                if let Some((_, prev)) = &best {
                    assert_eq!(
                        report.runs[0].kernel, prev.runs[0].kernel,
                        "{engine} counters not deterministic across repeats at {px} px"
                    );
                }
                if best.as_ref().is_none_or(|(w, _)| wall < *w) {
                    best = Some((wall, report));
                }
            }
            let (wall_seconds, report) = best.expect("at least one repeat");
            let run = &report.runs[0];
            rows.push(EngineRow {
                engine,
                wall_seconds,
                cycles: run.cycles,
                evals: run.kernel.evals,
                report,
            });
        }

        // Equivalence gate: word-identical memories, cycle counts within
        // one of the event kernel's.
        let event = &rows[0];
        for row in &rows[1..] {
            if row.report.sim_mems != event.report.sim_mems {
                eprintln!(
                    "ablation_bench: ENGINE DISAGREEMENT at {px} px: \
                     '{}' final memories differ from the event kernel",
                    row.engine
                );
                disagreement = true;
            }
            if row.cycles.abs_diff(event.cycles) > 1 {
                eprintln!(
                    "ablation_bench: CYCLE DRIFT at {px} px: '{}' ran {} cycles, \
                     event kernel {} (allowed difference: 1)",
                    row.engine, row.cycles, event.cycles
                );
                disagreement = true;
            }
        }

        let wall_of = |engine: Engine| {
            rows.iter()
                .find(|r| r.engine == engine)
                .expect("all engines ran")
                .wall_seconds
        };
        let level_speedup_vs_cycle = wall_of(Engine::Cycle) / wall_of(Engine::Level);
        let level_ratio_vs_event = wall_of(Engine::Level) / wall_of(Engine::Event);

        // Batch throughput column: 64 distinct stimulus images as lanes
        // of one run_batch call. Lane 0 reuses the sequential rows'
        // stimulus so its final memories can be compared word for word
        // against the level engine's; the other lanes are perturbed
        // images verified against their own golden runs.
        let design = nenya::compile(
            "fdct1",
            &workloads::fdct_source(px),
            &CompileOptions {
                width: 32,
                policy: SchedulePolicy::List,
                partitions: 1,
                ..CompileOptions::default()
            },
        )
        .expect("FDCT compiles");
        let prepared = prepare_design(design).expect("FDCT elaborates");
        let base = workloads::test_image(px);
        let specs: Vec<BatchLaneSpec> = (0..BATCH_LANES)
            .map(|lane| {
                let image: Vec<i64> = if lane == 0 {
                    base.clone()
                } else {
                    base.iter()
                        .enumerate()
                        .map(|(j, &p)| (p + 7 * lane as i64 + (j % 11) as i64) & 0xFF)
                        .collect()
                };
                BatchLaneSpec {
                    stimuli: vec![("img".to_string(), Stimulus::from_values(image))],
                    faults: Vec::new(),
                }
            })
            .collect();
        // Best-of-`repeat` sim wall, like the sequential rows; lane
        // verdicts and memories are identical across repeats.
        let mut batch_report = prepared
            .run_batch(&specs, &FlowOptions::default())
            .unwrap_or_else(|e| panic!("batch run at {px} px: {e}"));
        for _ in 1..repeat {
            let again = prepared
                .run_batch(&specs, &FlowOptions::default())
                .unwrap_or_else(|e| panic!("batch run at {px} px: {e}"));
            if again.sim_wall_seconds < batch_report.sim_wall_seconds {
                batch_report = again;
            }
        }
        for (lane, report) in batch_report.lanes.iter().enumerate() {
            if !report.passed {
                eprintln!(
                    "ablation_bench: BATCH LANE FAILURE at {px} px: lane {lane}: {}",
                    report
                        .failure
                        .as_deref()
                        .or(report.timed_out.as_deref())
                        .or(report.flow_error.as_deref())
                        .unwrap_or("golden mismatch")
                );
                disagreement = true;
            }
        }
        let level_row = rows
            .iter()
            .find(|r| r.engine == Engine::Level)
            .expect("all engines ran");
        if batch_report.lanes[0].sim_mems != level_row.report.sim_mems {
            eprintln!(
                "ablation_bench: ENGINE DISAGREEMENT at {px} px: batch lane 0 \
                 final memories differ from the level engine"
            );
            disagreement = true;
        }
        let batch_sim_wall = batch_report.sim_wall_seconds;
        let batch_effective_speedup =
            BATCH_LANES as f64 * wall_of(Engine::Level) / batch_sim_wall;

        println!("  {px:>7} px:");
        for row in &rows {
            println!(
                "    {:<5} {:>9.3} s   cycles={} evals={}",
                row.engine.to_string(),
                row.wall_seconds,
                row.cycles,
                row.evals
            );
        }
        println!(
            "    level vs cycle: {level_speedup_vs_cycle:.2}x faster;  \
             level/event wall ratio: {level_ratio_vs_event:.2}"
        );
        println!(
            "    batch: {BATCH_LANES} lanes in {batch_sim_wall:.3} s  \
             (effective {batch_effective_speedup:.1}x case-throughput vs level)"
        );
        let floor = match batch_floor {
            Some(f) => Some(f),
            None if px == GATED_PIXELS => Some(DEFAULT_BATCH_FLOOR),
            None => None,
        };
        if let Some(floor) = floor {
            if batch_effective_speedup < floor {
                eprintln!(
                    "ablation_bench: BATCH THROUGHPUT GATE at {px} px: effective \
                     speedup {batch_effective_speedup:.2}x is below the {floor:.2}x floor"
                );
                disagreement = true;
            }
        }

        let engine_rows: Vec<Json> = rows
            .iter()
            .map(|row| {
                Json::obj([
                    ("engine", Json::from(row.engine.to_string())),
                    ("wall_seconds", Json::from(row.wall_seconds)),
                    ("cycles", Json::from(row.cycles as f64)),
                    ("evals", Json::from(row.evals as f64)),
                ])
            })
            .collect();
        comparison_rows.push(Json::obj([
            ("pixels", Json::from(px as f64)),
            ("engines", Json::Arr(engine_rows)),
            ("level_speedup_vs_cycle", Json::from(level_speedup_vs_cycle)),
            ("level_ratio_vs_event", Json::from(level_ratio_vs_event)),
            ("batch_lanes", Json::from(BATCH_LANES as f64)),
            ("batch_sim_wall_seconds", Json::from(batch_sim_wall)),
            (
                "batch_effective_speedup_vs_level",
                Json::from(batch_effective_speedup),
            ),
        ]));
        for row in rows {
            reports.push((format!("fdct1_{px}px_{}", row.engine), row.report));
        }
    }

    let divergence = match control_divergence_row(repeat) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("ablation_bench: {e}");
            disagreement = true;
            Json::Null
        }
    };

    // The standard metrics report plus the comparison block, keys sorted
    // so the file is byte-stable across runs of the same build.
    let suite = SuiteReport {
        results: reports
            .into_iter()
            .map(|(name, report)| (name, CaseResult::Finished(report)))
            .collect(),
    };
    let mut json = telemetry::suite_json(&suite, &spans.take());
    if let Json::Obj(pairs) = &mut json {
        pairs.push((
            "ablation_bench".to_string(),
            Json::obj([
                ("sizes", Json::Arr(comparison_rows)),
                ("control_divergence", divergence),
            ]),
        ));
    }
    json.sort_keys();
    if let Err(e) = std::fs::write(&metrics_out, json.emit_pretty()) {
        eprintln!("ablation_bench: writing {}: {e}", metrics_out.display());
        return ExitCode::from(2);
    }
    println!("\nwrote {}", metrics_out.display());

    if disagreement {
        eprintln!("ablation_bench: engines disagree — the compiled engines are not equivalent");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// The control-divergence row: the manifest's `hamming` with
/// [`BATCH_LANES`] seeded vectors of random 7-bit code words, as one
/// `run_batch` call and as that many sequential level runs (best of
/// `repeat` sim walls each). An error names a lane that failed or
/// differs from its level run, or a speedup below [`DIVERGENCE_FLOOR`].
fn control_divergence_row(repeat: usize) -> Result<Json, String> {
    let suite = load_manifest(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let case = suite.cases().iter().find(|case| case.name == "hamming");
    let case = case.ok_or("the example manifest has no hamming case")?;
    let design = nenya::compile(&case.name, &case.source, &case.options.compile)
        .map_err(|e| format!("hamming: {e}"))?;
    let words = design.blank_images().get("code").map(Vec::len);
    let words = words.ok_or("hamming declares no 'code' memory")?;
    let prepared = prepare_design(design).map_err(|e| format!("hamming: {e}"))?;
    let mut rng = Rng::new(DIVERGENCE_SEED);
    let specs: Vec<BatchLaneSpec> = (0..BATCH_LANES)
        .map(|_| BatchLaneSpec {
            stimuli: vec![(
                "code".to_string(),
                Stimulus::from_values((0..words).map(|_| rng.below(128) as i64)),
            )],
            faults: Vec::new(),
        })
        .collect();
    let level = FlowOptions {
        engine: Engine::Level,
        ..FlowOptions::default()
    };
    let (mut batch_wall, mut level_wall) = (f64::MAX, f64::MAX);
    for _ in 0..repeat {
        let batch = prepared.run_batch(&specs, &FlowOptions::default());
        let batch = batch.map_err(|e| format!("hamming batch run: {e}"))?;
        batch_wall = batch_wall.min(batch.sim_wall_seconds);
        let mut wall = 0.0;
        for (lane, (spec, got)) in specs.iter().zip(&batch.lanes).enumerate() {
            let want = prepared.run(&spec.stimuli, &level);
            let want = want.map_err(|e| format!("hamming level run {lane}: {e}"))?;
            wall += want.runs.iter().map(|r| r.summary.wall_seconds).sum::<f64>();
            let cycles: u64 = want.runs.iter().map(|r| r.cycles).sum();
            if !got.passed || got.sim_mems != want.sim_mems || got.cycles != cycles {
                return Err(format!(
                    "CONTROL DIVERGENCE: hamming lane {lane} failed or differs from its level run"
                ));
            }
        }
        level_wall = level_wall.min(wall);
    }
    let speedup = level_wall / batch_wall;
    println!(
        "  control divergence (hamming, {BATCH_LANES} seeded vectors): batch {batch_wall:.4} s, \
         {BATCH_LANES} level runs {level_wall:.4} s, speedup {speedup:.2}x"
    );
    if speedup < DIVERGENCE_FLOOR {
        return Err(format!(
            "CONTROL DIVERGENCE GATE: hamming batch speedup {speedup:.2}x is below \
             the {DIVERGENCE_FLOOR:.2}x floor"
        ));
    }
    Ok(Json::obj([
        ("batch_sim_wall_seconds", Json::from(batch_wall)),
        ("level_sim_wall_seconds", Json::from(level_wall)),
        ("batch_speedup_vs_level", Json::from(speedup)),
    ]))
}
