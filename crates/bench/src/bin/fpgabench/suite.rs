//! `paper-suite`: the paper's own flow and its scaling point.
//!
//! Each pass runs the `examples/suite` manifest through
//! `Suite::run_parallel(2)` on the event engine, then FDCT1 at 65,536 px
//! through `TestFlow::run` on the event engine and on the level engine.
//! The event kernel and levelsim dominate the 65k runs; the small
//! manifest cases lean on transform. The latency sample is a pass's time
//! to all seven verdicts.

use crate::probe::{self, Design};
use crate::trace::Tracer;
use crate::{exact_u64, seeded_image, Config, Measured, SHARDS};
use fpgatest::flow::{Engine, TestFlow, TestReport};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::{load_manifest, Suite};
use fpgatest::workloads;
use std::time::Instant;

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/suite/suite.manifest"
);
const FDCT_ENGINES: [Engine; 2] = [Engine::Event, Engine::Level];

pub struct PaperSuite {
    config: Config,
    suite: Suite,
    pixels: usize,
    source: String,
    image: Vec<(String, Stimulus)>,
    next_pass: u64,
}

pub fn setup(config: Config) -> Result<PaperSuite, String> {
    let mut suite = load_manifest(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    suite.set_engine(Engine::Event);
    let pixels = if config.smoke { 1024 } else { 65_536 };
    let image = if config.exact.is_some() {
        workloads::test_image(pixels)
    } else {
        seeded_image(config.seed, pixels)
    };
    // Warm-up: one manifest run.
    let report = suite.run_parallel(SHARDS);
    if !report.all_passed() {
        return Err(format!("warm-up suite run failed:\n{}", report.render()));
    }
    Ok(PaperSuite {
        config,
        suite,
        pixels,
        source: workloads::fdct_source(pixels),
        image: vec![("img".to_string(), Stimulus::from_values(image))],
        next_pass: 0,
    })
}

impl PaperSuite {
    fn check_fdct(&self, engine: Engine, report: &TestReport, out: &mut Measured) {
        if !report.passed {
            out.failed += 1;
            out.errors.push(format!(
                "FDCT1 {} px on {engine}: verdict fail",
                self.pixels
            ));
            return;
        }
        let cycles: u64 = report.runs.iter().map(|r| r.cycles).sum();
        let evals: u64 = report.runs.iter().map(|r| r.kernel.evals).sum();
        let note = format!(
            "FDCT1 {} px on {engine}: {cycles} cycles, {evals} evals",
            self.pixels
        );
        if !out.notes.contains(&note) {
            out.notes.push(note);
        }
        for (key, got) in [("cycles", cycles), ("evals", evals)] {
            if let Some(want) = exact_u64(&self.config, &format!("{engine}_{key}")) {
                if got != want {
                    out.errors
                        .push(format!("FDCT1 on {engine}: {got} {key}, expected {want}"));
                }
            }
        }
    }
}

impl crate::Workload for PaperSuite {
    fn measure(&mut self, seconds: f64, mut trace: Option<(&mut Tracer, usize)>) -> Measured {
        let mut out = Measured::default();
        let (mut suite_s, mut fdct_s) = (Vec::new(), [Vec::new(), Vec::new()]);
        let mut cycles = [0u64; 2];
        let started = Instant::now();
        // Passes are long: another starts only when it is expected to end
        // nearer the window's end than stopping now would.
        while out.latencies_ms.is_empty()
            || started.elapsed().as_secs_f64()
                + out.latencies_ms.last().copied().unwrap_or(0.0) / 2e3
                <= seconds
        {
            let pass = self.next_pass;
            self.next_pass += 1;
            let pass_started = Instant::now();
            let pass_span = trace
                .as_mut()
                .map(|(t, root)| t.open("suite.pass", Some(*root), Some(pass)));

            let t0 = Instant::now();
            let report = match trace.as_mut() {
                Some((tracer, _)) => {
                    tracer
                        .timed("suite.run_parallel", pass_span, Some(pass), || {
                            self.suite.run_parallel(SHARDS)
                        })
                        .1
                }
                None => self.suite.run_parallel(SHARDS),
            };
            suite_s.push(t0.elapsed().as_secs_f64());
            out.attempted += report.results.len() as u64;
            out.failed += report.failed() as u64;
            if !report.all_passed() {
                out.errors.push(format!(
                    "pass {pass}: manifest verdicts:\n{}",
                    report.render()
                ));
            }

            for (slot, engine) in FDCT_ENGINES.into_iter().enumerate() {
                let t0 = Instant::now();
                out.attempted += 1;
                match trace.as_mut() {
                    // Traced: the same flow, one public call per layer.
                    Some((tracer, _)) => {
                        let design = Design {
                            name: "fdct1",
                            source: &self.source,
                            compile: nenya::CompileOptions {
                                width: 32,
                                ..nenya::CompileOptions::default()
                            },
                            stimuli: &self.image,
                        };
                        let span = pass_span.expect("traced passes have a span");
                        match probe::probe(tracer, span, Some(pass), &design, &[engine], false) {
                            Ok((_, ran)) => cycles[slot] = ran[0],
                            Err(e) => {
                                out.failed += 1;
                                out.errors.push(format!("pass {pass}: {e}"));
                            }
                        }
                    }
                    None => {
                        let flow = TestFlow::new("fdct1", self.source.as_str())
                            .with_width(32)
                            .with_engine(engine)
                            .stimulus("img", self.image[0].1.clone());
                        match flow.run() {
                            Ok(report) => {
                                cycles[slot] = report.runs.iter().map(|r| r.cycles).sum();
                                self.check_fdct(engine, &report, &mut out);
                            }
                            Err(e) => {
                                out.failed += 1;
                                out.errors
                                    .push(format!("pass {pass}: FDCT1 on {engine}: {e}"));
                            }
                        }
                    }
                }
                fdct_s[slot].push(t0.elapsed().as_secs_f64());
            }
            // The engines count cycles by different conventions, at most
            // one apart (DESIGN.md's engine matrix).
            if cycles[0].abs_diff(cycles[1]) > 1 {
                out.errors.push(format!(
                    "pass {pass}: event ran {} cycles, level {}",
                    cycles[0], cycles[1]
                ));
            }
            if let (Some((tracer, _)), Some(span)) = (trace.as_mut(), pass_span) {
                tracer.close(span);
            }
            out.latencies_ms
                .push(pass_started.elapsed().as_secs_f64() * 1e3);
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.rate = crate::sequential_rate(
            (self.suite.cases().len() + FDCT_ENGINES.len()) as u64,
            &out.latencies_ms,
        );
        let passes = format!("median of {} passes", out.latencies_ms.len());
        let k = self.pixels / 1000;
        for (name, times) in [
            ("suite_s".to_string(), &suite_s),
            (format!("fdct{k}k_event_s"), &fdct_s[0]),
            (format!("fdct{k}k_level_s"), &fdct_s[1]),
        ] {
            out.report(name, crate::stats::median(times), "s", &passes);
        }
        out
    }

    /// Runs the manifest once on one worker, for its sequential work, and
    /// probes every manifest case stage by stage on all four engines.
    fn attribute(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let (id, report) = tracer.timed("suite.run", Some(root), None, || self.suite.run());
        if !report.all_passed() {
            return Err(format!(
                "sequential manifest run failed:\n{}",
                report.render()
            ));
        }
        let sequential = tracer.spans()[id].duration_ns() as f64;
        let mean = |layer: &str| {
            let walls: Vec<f64> = tracer
                .layer(layer)
                .map(|s| s.duration_ns() as f64)
                .collect();
            walls.iter().sum::<f64>() / walls.len().max(1) as f64
        };
        let parallel = mean("suite.run_parallel");
        let fdct = mean("suite.pass") - parallel;

        let span = tracer.open("suite.probe", Some(root), None);
        for case in self.suite.cases() {
            let design = Design {
                name: &case.name,
                source: &case.source,
                compile: case.options.compile.clone(),
                stimuli: &case.stimuli,
            };
            probe::probe(tracer, span, None, &design, &Engine::ALL, true)?;
        }
        tracer.close(span);
        // A pass's work is the manifest's sequential time plus the FDCT
        // flows, which run one at a time.
        Ok(vec![(
            "runtime.utilization",
            (sequential + fdct) / (SHARDS as f64 * (parallel + fdct)),
        )])
    }
}
