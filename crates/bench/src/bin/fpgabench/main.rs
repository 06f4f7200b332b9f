//! `fpgabench`: the repository benchmark.
//!
//! Four workloads, each measured from outside by timing calls into the
//! public functions of the layers it exercises: `fuzz-diff`,
//! `fault-batch`, `serve-mixed` and `paper-suite` (see README.md). One
//! invocation runs one workload, or every workload in its own child
//! process when `--workload` is absent, checks every output for
//! correctness, and prints each metric by name with its unit. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release -p bench --bin fpgabench -- [--workload NAME] [--seed N]
//!     [--seconds S] [--trace 0|1|DIR] [--repeat N] [--smoke]
//! ```

mod faults;
mod fuzz;
mod probe;
mod serve;
mod stats;
mod suite;
mod trace;

use fpgatest::telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Shards, workers and `--jobs` everywhere in the benchmark: fixed, never
/// derived from the host's core count, so numbers from different hosts
/// measure the same work.
pub const SHARDS: usize = 2;
/// Set-ups per run, and per smoke run; `setup_s` is their median.
const SETUPS: usize = 5;
const SMOKE_SETUPS: usize = 2;
const WORKLOADS: [&str; 4] = ["fuzz-diff", "fault-batch", "serve-mixed", "paper-suite"];
const DEFAULT_SECONDS: f64 = 25.0;
const SMOKE_SECONDS: f64 = 1.0;
/// Exact outcomes at each workload's recorded seed.
const EXPECTED: &str = include_str!("expected.json");
/// Prefix of the report-only metric lines `--repeat` collects.
const REPORT: &str = "  report ";

/// The end-to-end metrics, reported by every workload. Request latency
/// and the workload-specific times are report lines: serve latency's
/// run-to-run spread passed the largest bound allowed even over 60 s
/// windows, and the others exist for one workload only (README, "Report
/// lines").
const END_TO_END: [(&str, &str); 3] = [
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics measured as the median call time of a layer's spans.
const TIMED_LAYERS: [&str; 9] = [
    "nenya.parse",
    "nenya.compile",
    "flow.transform",
    "flow.golden",
    "faults.enumerate",
    "sim.event",
    "sim.cycle",
    "sim.level",
    "sim.batch",
];
const ENGINE_LAYERS: [&str; 4] = ["sim.event", "sim.cycle", "sim.level", "sim.batch"];
/// The other per-layer metrics: counts, ratios and request latency, 0
/// where a workload does not use the layer (no cache outside
/// `serve-mixed`, for instance).
const OTHER_LAYERS: [(&str, &str); 12] = [
    ("request.p50_ms", "ms"),
    ("request.tail_ms", "ms"),
    ("runtime.utilization", "ratio"),
    ("faults.hung_share", "ratio"),
    ("fuzz.coverage_keys", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("serve.queue_wait_share", "ratio"),
    ("serve.backlog_end", "count"),
    ("serve.rejected", "count"),
    ("sim.batch.lanes_per_walk", "count"),
];

/// What a workload is set up with.
#[derive(Clone)]
pub struct Config {
    pub seed: u64,
    pub smoke: bool,
    /// Exact expected outcomes, present only at the recorded seed.
    pub exact: Option<Json>,
    /// Length of the first measured window, for inputs made at set-up.
    pub window: f64,
}

/// What one measured window produced.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Verdicts per second. Workloads that run one request after another
    /// divide a request's verdicts by the median request time, so one
    /// stalled request does not move it.
    pub rate: f64,
    /// Time to verdict of each request of the window.
    pub latencies_ms: Vec<f64>,
    /// Report-only metrics: name, value, unit and sample count.
    pub reports: Vec<(String, f64, &'static str, String)>,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// Report lines.
    pub notes: Vec<String>,
}

impl Measured {
    pub fn report(&mut self, name: String, value: f64, unit: &'static str, count: &str) {
        self.reports.push((name, value, unit, count.to_string()));
    }
}

pub trait Workload {
    /// Runs the measured loop for about `seconds`; with a tracer, its
    /// spans go under the given root.
    fn measure(&mut self, seconds: f64, trace: Option<(&mut Tracer, usize)>) -> Measured;
    /// The traced run's attribution passes; returns the workload's own
    /// per-layer values.
    fn attribute(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Vec<(&'static str, f64)>, String>;
    /// Final checks; stops anything the workload started.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// A seeded grayscale image (values `0..=255`).
pub fn seeded_image(seed: u64, pixels: usize) -> Vec<i64> {
    let mut rng = fpgafuzz::rng::Rng::new(seed);
    (0..pixels).map(|_| rng.below(256) as i64).collect()
}

/// `units` verdicts per request over the median request time.
pub fn sequential_rate(units: u64, latencies_ms: &[f64]) -> f64 {
    units as f64 / (stats::median(latencies_ms) / 1e3).max(1e-9)
}

/// An exact expected count, when the run is at the recorded seed.
pub fn exact_u64(config: &Config, key: &str) -> Option<u64> {
    config.exact.as_ref()?.get(key)?.as_u64()
}

fn setup(workload: &str, config: Config) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "fuzz-diff" => Box::new(fuzz::setup(config)?),
        "fault-batch" => Box::new(faults::setup(config)?),
        "serve-mixed" => Box::new(serve::setup(config)?),
        _ => Box::new(suite::setup(config)?),
    })
}

#[derive(Default)]
struct Args {
    workload: Option<&'static str>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<PathBuf>,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(WORKLOADS.into_iter().find(|w| *w == name).ok_or(format!(
                    "unknown workload '{name}' (expected one of {})",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                let seconds = value()?
                    .parse::<f64>()
                    .map_err(|_| "--seconds: not a number")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from("fpgabench-trace")),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|_| "--repeat: not an integer")?)
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fpgabench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    let ok = match (args.repeat, args.workload) {
        (Some(n), _) => repeat(&args, n),
        (None, Some(workload)) => match run_one(workload, &args, &expected) {
            Ok(result) => {
                println!("{}", result.to_json().emit());
                result.correct()
            }
            Err(e) => {
                eprintln!("fpgabench {workload}: set-up failed: {e}");
                false
            }
        },
        (None, None) => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// This invocation's flags, minus the ones a parent sets per child.
fn child_flags(args: &Args) -> Vec<String> {
    let mut flags = Vec::new();
    if let Some(seconds) = args.seconds {
        flags.extend(["--seconds".to_string(), seconds.to_string()]);
    }
    if let Some(dir) = &args.trace {
        flags.extend(["--trace".to_string(), dir.display().to_string()]);
    }
    if args.smoke {
        flags.push("--smoke".to_string());
    }
    flags
}

/// Runs one workload in a child process; returns its stdout and whether
/// it exited cleanly.
fn child(workload: &str, seed: Option<u64>, args: &Args) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(child_flags(args));
    if let Some(seed) = seed {
        command.args(["--seed", &seed.to_string()]);
    }
    let output = command
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok((
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.success(),
    ))
}

fn last_json(stdout: &str) -> Option<Json> {
    Json::parse(stdout.lines().last()?).ok()
}

/// Every workload, each in its own child process so its peak RSS is its
/// own.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        match child(workload, args.seed, args) {
            Ok((stdout, clean)) => {
                print!("{stdout}");
                ok &= clean;
                rows.push((workload, last_json(&stdout)));
            }
            Err(e) => {
                eprintln!("fpgabench: {e}");
                ok = false;
            }
        }
    }
    println!("\nsummary:");
    for (workload, result) in rows {
        let Some(result) = result else {
            println!("  {workload:<12} no result");
            continue;
        };
        let field = |key| result.get(key).and_then(Json::as_u64).unwrap_or(0);
        let metrics = match result.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    format!("{name}={value:.4} {unit}")
                })
                .collect::<Vec<_>>()
                .join(" "),
            _ => String::new(),
        };
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        println!(
            "  {workload:<12} {} ops={} failed={} {metrics}",
            if correct { "ok" } else { "WRONG" },
            field("attempted"),
            field("failed"),
        );
    }
    ok
}

/// A run's metrics: the JSON line's, then its report lines
/// (`  report NAME VALUE UNIT (COUNT)`).
fn run_metrics(stdout: &str) -> Option<Vec<(String, f64, String)>> {
    let Some(Json::Obj(pairs)) = last_json(stdout)?.get("metrics").cloned() else {
        return None;
    };
    let mut metrics: Vec<(String, f64, String)> = pairs
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    for line in stdout.lines() {
        let mut words = line
            .strip_prefix(REPORT)
            .into_iter()
            .flat_map(str::split_whitespace);
        if let (Some(name), Some(Ok(value)), Some(unit)) =
            (words.next(), words.next().map(str::parse), words.next())
        {
            metrics.push((name.to_string(), value, unit.to_string()));
        }
    }
    Some(metrics)
}

/// `--repeat N`: N child runs per workload at seeds `base..base+N`, the
/// way bounds are checked, and each metric's median, quartiles and
/// spread (interquartile range over median), report lines included.
fn repeat(args: &Args, n: usize) -> bool {
    let workloads: Vec<&str> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let base = args.seed.unwrap_or(1);
    let mut ok = true;
    let mut table = Vec::new();
    for workload in workloads {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..n as u64 {
            let metrics = match child(workload, Some(base + i), args) {
                Ok((stdout, clean)) => {
                    ok &= clean;
                    run_metrics(&stdout)
                }
                Err(e) => {
                    eprintln!("fpgabench: {e}");
                    None
                }
            };
            let Some(metrics) = metrics else {
                ok = false;
                continue;
            };
            let line: Vec<String> = metrics
                .iter()
                .map(|(name, value, _)| format!("{name}={value}"))
                .collect();
            println!("  seed {}: {}", base + i, line.join(" "));
            for (name, value, unit) in metrics {
                match values.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, v)) => v.push(value),
                    None => values.push((name, unit, vec![value])),
                }
            }
        }
        println!(
            "{workload} ({n} runs, seeds {base}..{}):",
            base + n as u64 - 1
        );
        let mut rows = Vec::new();
        for (name, unit, v) in values {
            let (q1, median, q3) = stats::quartiles(&v);
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median.abs()
            };
            println!(
                "  {name:<28} median {median:>12.4} {unit:<10} q1 {q1:>12.4} q3 {q3:>12.4} spread {:>6.2}%",
                spread * 100.0
            );
            rows.push(Json::obj([
                ("metric", Json::from(name)),
                ("unit", Json::from(unit)),
                ("median", Json::from(median)),
                ("q1", Json::from(q1)),
                ("q3", Json::from(q3)),
                ("spread", Json::from(spread)),
            ]));
        }
        table.push(Json::obj([
            ("workload", Json::from(workload)),
            ("metrics", Json::Arr(rows)),
        ]));
    }
    println!(
        "{}",
        Json::obj([
            ("runs", Json::from(n)),
            ("first_seed", Json::from(base)),
            (
                "seconds",
                Json::from(args.seconds.unwrap_or(DEFAULT_SECONDS))
            ),
            ("workloads", Json::Arr(table)),
        ])
        .emit()
    );
    ok
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
    )
}

/// One workload run: the fields of its JSON result line.
struct RunResult {
    /// Output-check failures; the run is correct without any.
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Json)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(self.metrics.clone())),
        ])
    }
}

/// Sets up, measures and checks one workload in this process, printing
/// its report; `Err` when a set-up fails.
fn run_one(workload: &'static str, args: &Args, expected: &Json) -> Result<RunResult, String> {
    let recorded = expected.get(workload);
    let recorded_seed = recorded
        .and_then(|r| r.get("seed"))
        .and_then(Json::as_u64)
        .unwrap_or(1);
    let seed = args.seed.unwrap_or(recorded_seed);
    let scale = if args.smoke { "smoke" } else { "full" };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    // A traced run measures an untraced and a traced window, a third of
    // the run each, and leaves the rest to its attribution passes.
    let window = if args.trace.is_some() && !args.smoke {
        seconds / 3.0
    } else {
        seconds
    };
    let config = Config {
        seed,
        smoke: args.smoke,
        exact: (seed == recorded_seed)
            .then(|| recorded.and_then(|r| r.get(scale)).cloned())
            .flatten(),
        window,
    };
    println!(
        "fpgabench {workload}: seed {seed}{}, {scale} scale, {seconds} s",
        if config.exact.is_some() {
            " (recorded: exact checks)"
        } else {
            ""
        }
    );

    let mut errors = Vec::new();
    let mut setup_s = Vec::new();
    let mut bench: Option<Box<dyn Workload>> = None;
    for _ in 0..if args.smoke { SMOKE_SETUPS } else { SETUPS } {
        let started = Instant::now();
        let fresh = match setup(workload, config.clone()) {
            Ok(fresh) => fresh,
            Err(e) => {
                if let Some(mut old) = bench {
                    old.finish();
                }
                return Err(e);
            }
        };
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(mut old) = bench.replace(fresh) {
            errors.extend(old.finish());
        }
    }
    let mut bench: Box<dyn Workload> = bench.expect("at least one set-up");

    let (measured, per_layer) = match &args.trace {
        None => (bench.measure(window, None), None),
        Some(dir) => {
            let untraced = bench.measure(window, None);
            let mut tracer = Tracer::new();
            let root = tracer.open(workload, None, None);
            let traced = bench.measure(window, Some((&mut tracer, root)));
            let extras = bench.attribute(&mut tracer, root);
            tracer.close(root);
            let layers = extras.and_then(|extras| {
                report_trace(workload, &tracer, root, &untraced, &traced, extras, dir)
            });
            let mut both = untraced;
            both.attempted += traced.attempted;
            both.failed += traced.failed;
            both.errors.extend(traced.errors);
            match layers {
                Ok(layers) => (both, Some(layers)),
                Err(e) => {
                    both.errors.push(format!("traced run: {e}"));
                    (both, Some(Vec::new()))
                }
            }
        }
    };
    errors.extend(measured.errors.iter().cloned());
    errors.extend(bench.finish());
    for note in &measured.notes {
        println!("  {note}");
    }
    let metrics: Vec<(String, Json)> = match per_layer {
        Some(layers) => layers,
        None => {
            let lat = &measured.latencies_ms;
            let values = [measured.rate, stats::median(&setup_s), peak_rss_mb()];
            let counts = [
                format!("{} ops in {:.3} s", measured.attempted, measured.wall_s),
                format!("median of {} set-ups", setup_s.len()),
                "VmHWM".to_string(),
            ];
            let rows: Vec<(String, Json)> = END_TO_END
                .iter()
                .zip(values)
                .zip(counts)
                .map(|((&(name, unit), value), count)| {
                    println!("  {name:<16} {value:>14.4} {unit:<4} ({count})");
                    metric(name, value, unit)
                })
                .collect();
            let (label, tail) = stats::tail(lat);
            let samples = format!("{} samples", lat.len());
            let generic = [
                (
                    "request.p50_ms".to_string(),
                    stats::median(lat),
                    "ms",
                    samples.clone(),
                ),
                (
                    "request.tail_ms".to_string(),
                    tail,
                    "ms",
                    format!("{label} of {samples}"),
                ),
            ];
            for (name, value, unit, count) in generic.iter().chain(&measured.reports) {
                println!("{REPORT}{name} {value} {unit} ({count})");
            }
            rows
        }
    };
    println!("  ops {} failed {}", measured.attempted, measured.failed);
    for e in &errors {
        println!("  CHECK FAILED: {e}");
    }
    Ok(RunResult {
        errors,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
    })
}

/// Prints the traced run's layer table and tracing overhead, writes the
/// span file, and returns the per-layer metrics.
fn report_trace(
    workload: &str,
    tracer: &Tracer,
    root: usize,
    untraced: &Measured,
    traced: &Measured,
    extras: Vec<(&'static str, f64)>,
    dir: &Path,
) -> Result<Vec<(String, Json)>, String> {
    let wall = tracer.spans()[root].duration_ns().max(1) as f64;
    let layers = tracer.layers();
    println!("  layer                      calls   per-call us     self ms   share");
    for (name, totals) in &layers {
        println!(
            "  {name:<24} {:>7} {:>13.1} {:>11.3} {:>6.1}%",
            totals.calls,
            totals.total_ns as f64 / totals.calls as f64 / 1e3,
            totals.self_ns as f64 / 1e6,
            100.0 * totals.self_ns as f64 / wall
        );
    }
    let root_self = tracer.self_times()[root] as f64;
    let self_share = 1.0 - root_self / wall;
    println!(
        "  per-layer self time covers {:.1}% of the traced wall",
        100.0 * self_share
    );
    let (plain, spanned) = (untraced.rate, traced.rate);
    println!(
        "  tracing overhead: units_per_s traced {spanned:.3} vs untraced {plain:.3} ({:+.2}%), \
         request p50 traced {:.3} ms vs untraced {:.3} ms",
        100.0 * (plain - spanned) / plain.max(1e-9),
        stats::median(&traced.latencies_ms),
        stats::median(&untraced.latencies_ms),
    );

    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, tracer.to_json(workload).emit())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());

    let mut metrics = Vec::new();
    for layer in TIMED_LAYERS {
        let calls: Vec<f64> = tracer
            .layer(layer)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        if calls.is_empty() {
            return Err(format!("no '{layer}' calls were traced"));
        }
        metrics.push(metric(&format!("{layer}.us"), stats::median(&calls), "us"));
    }
    for layer in ENGINE_LAYERS {
        let (cycles, ns) = tracer.layer(layer).fold((0u64, 0u64), |(c, n), s| {
            (c + s.attr("cycles").unwrap_or(0), n + s.duration_ns())
        });
        metrics.push(metric(
            &format!("{layer}.mcycles_per_s"),
            cycles as f64 / ns.max(1) as f64 * 1e3,
            "Mcycles/s",
        ));
    }
    for layer in ["sim.event", "sim.level"] {
        let evals: Vec<f64> = tracer
            .layer(layer)
            .filter_map(|s| s.attr("evals"))
            .map(|e| e as f64)
            .collect();
        metrics.push(metric(
            &format!("{layer}.evals"),
            stats::median(&evals),
            "count",
        ));
    }
    // Fault campaigns walk packs of lanes; every other workload walks
    // the batch engine one lane at a time.
    let lanes = |layer| -> Vec<f64> {
        tracer
            .layer(layer)
            .filter_map(|s| s.attr("lanes"))
            .map(|l| l as f64)
            .collect()
    };
    let walks = match lanes("sim.batch.pack") {
        packs if packs.is_empty() => lanes("sim.batch"),
        packs => packs,
    };
    let lanes_per_walk = walks.iter().sum::<f64>() / walks.len().max(1) as f64;
    for (name, unit) in OTHER_LAYERS {
        let value = match name {
            "sim.batch.lanes_per_walk" => lanes_per_walk,
            "request.p50_ms" => stats::median(&traced.latencies_ms),
            "request.tail_ms" => stats::tail(&traced.latencies_ms).1,
            _ => extras
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        };
        metrics.push(metric(name, value, unit));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &'static str, trace: Option<PathBuf>, expected: &Json) -> RunResult {
        let args = Args {
            workload: Some(workload),
            trace,
            smoke: true,
            ..Args::default()
        };
        run_one(workload, &args, expected).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn names(result: &RunResult) -> Vec<&str> {
        result
            .metrics
            .iter()
            .map(|(name, _)| name.as_str())
            .collect()
    }

    #[test]
    fn smoke_runs_every_workload_and_checks_its_outputs() {
        let expected = Json::parse(EXPECTED).expect("expected.json");
        for workload in WORKLOADS {
            let result = smoke(workload, None, &expected);
            assert!(result.correct(), "{workload}: {:?}", result.errors);
            assert!(result.attempted > 0 && result.failed == 0, "{workload}");
            let want: Vec<&str> = END_TO_END.iter().map(|&(name, _)| name).collect();
            assert_eq!(names(&result), want, "{workload}");
            for (name, value) in &result.metrics {
                let value = value.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                assert!(value > 0.0, "{workload}: {name} is {value}");
            }
        }
    }

    #[test]
    fn a_traced_smoke_run_writes_one_span_file_per_workload() {
        let expected = Json::parse(EXPECTED).expect("expected.json");
        let dir = std::env::temp_dir().join(format!("fpgabench-trace-{}", std::process::id()));
        for workload in WORKLOADS {
            let result = smoke(workload, Some(dir.clone()), &expected);
            assert!(result.correct(), "{workload}: {:?}", result.errors);
            assert!(names(&result).contains(&"sim.level.us"), "{workload}");
            assert!(names(&result).contains(&"cache.hit_ratio"), "{workload}");
            let file = dir.join(format!("{workload}.trace.json"));
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            assert!(text.contains("\"spans\":[{"), "{workload}: no spans");
        }
        std::fs::remove_dir_all(&dir).expect("remove the span files");
    }

    #[test]
    fn a_wrong_expected_count_fails_the_run() {
        let planted = EXPECTED.replacen("\"detected\": 72", "\"detected\": 73", 1);
        assert_ne!(
            planted, EXPECTED,
            "the smoke fault count to plant is missing"
        );
        let planted = Json::parse(&planted).expect("planted expectations");
        let result = smoke("fault-batch", None, &planted);
        assert_eq!(result.errors, ["round 0: 72 detected, expected 73"]);
        assert!(result.to_json().emit().contains("\"correct\":false"));
    }

    #[test]
    fn arguments_are_checked_before_anything_runs() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let args = parse(&["--workload", "serve-mixed", "--seed", "9", "--trace", "0"])
            .expect("valid flags");
        assert_eq!((args.workload, args.seed), (Some("serve-mixed"), Some(9)));
        assert!(args.trace.is_none());
        assert!(parse(&["--workload", "no-such-workload"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--expected", "file"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn repeat_reads_the_json_metrics_and_the_report_lines() {
        let stdout = format!(
            "fpgabench serve-mixed: seed 1\n{REPORT}p50_ms.heavy 5.25 ms (1875 samples)\n\
             {{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":\
             {{\"units_per_s\":{{\"value\":450.5,\"unit\":\"1/s\"}}}}}}\n"
        );
        let metrics = run_metrics(&stdout).expect("a result line");
        assert_eq!(
            metrics,
            [
                ("units_per_s".to_string(), 450.5, "1/s".to_string()),
                ("p50_ms.heavy".to_string(), 5.25, "ms".to_string()),
            ]
        );
    }
}
