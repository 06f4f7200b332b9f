//! Event-kernel benchmark harness with a counter-drift guard.
//!
//! Runs the paper's FDCT1 workload through the event kernel at one or
//! more image sizes, writes a `fpgatest-metrics-v1` report (default
//! `BENCH_kernel.json`) extended with a `kernel_bench` comparison block,
//! and checks the kernel's `events`/`evals`/`updates` counters against
//! the checked-in baseline (`crates/bench/baselines/kernel_counters.json`).
//!
//! The baseline serves two purposes:
//!
//! * **Correctness ratchet** — the counters are a fingerprint of the
//!   kernel's scheduling semantics. Any drift means simulation behaviour
//!   changed, and the run exits non-zero unless the baseline file is
//!   updated in the same change (CI runs this at 4,096 pixels).
//! * **Performance record** — the baseline's `wall_seconds` are the
//!   pre-overhaul kernel's wall-clock times, so the report shows the
//!   speedup of the current kernel against that fixed reference.
//!
//! Usage: `kernel_bench [--pixels N] [--repeat R] [--metrics-out FILE]
//! [--baseline FILE] [--ledger FILE]` (`--pixels` may repeat; default
//! 4096 and 65536). `--ledger` appends one `fpgatest-ledger-v1` summary
//! line per invocation, for `fpgatest trends`.
//! Each size runs `R` times (default 3): the reported wall-clock is the
//! best of the repeats — the standard estimator under scheduler noise —
//! and the counters are additionally asserted identical across repeats.

use bench::{fdct_flow, run_checked};
use fpgatest::ledger::{self, LedgerEntry};
use fpgatest::suite::{CaseResult, SuiteReport};
use fpgatest::telemetry::{self, Json, SpanSink};
use nenya::schedule::SchedulePolicy;
use std::path::PathBuf;
use std::process::ExitCode;

struct BaselineRow {
    pixels: usize,
    events: u64,
    evals: u64,
    updates: u64,
    wall_seconds: f64,
}

fn load_baseline(path: &PathBuf) -> Result<Vec<BaselineRow>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("baseline {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))?;
    let sizes = json
        .get("sizes")
        .and_then(|s| match s {
            Json::Arr(rows) => Some(rows),
            _ => None,
        })
        .ok_or("baseline: missing 'sizes' array")?;
    let field = |row: &Json, key: &str| -> Result<f64, String> {
        row.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline row: missing numeric '{key}'"))
    };
    sizes
        .iter()
        .map(|row| {
            Ok(BaselineRow {
                pixels: field(row, "pixels")? as usize,
                events: field(row, "events")? as u64,
                evals: field(row, "evals")? as u64,
                updates: field(row, "updates")? as u64,
                wall_seconds: field(row, "wall_seconds")?,
            })
        })
        .collect()
}

/// The checked-in counter baseline.
fn default_baseline() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/kernel_counters.json")
}

fn main() -> ExitCode {
    let mut pixels: Vec<usize> = Vec::new();
    let mut repeat: usize = 3;
    let mut metrics_out = PathBuf::from("BENCH_kernel.json");
    let mut ledger_out: Option<PathBuf> = None;
    let mut baseline_path = default_baseline();
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
            "--metrics-out" => metrics_out = PathBuf::from(value("--metrics-out")),
            "--baseline" => baseline_path = PathBuf::from(value("--baseline")),
            "--ledger" => ledger_out = Some(PathBuf::from(value("--ledger"))),
            other => {
                eprintln!("kernel_bench: unknown argument '{other}'");
                eprintln!(
                    "usage: kernel_bench [--pixels N]... [--metrics-out FILE] [--baseline FILE] [--ledger FILE]"
                );
                return ExitCode::from(2);
            }
        }
    }
    if pixels.is_empty() {
        pixels = vec![4096, 65536];
    }

    let baseline = match load_baseline(&baseline_path) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("kernel_bench: {e}");
            return ExitCode::from(2);
        }
    };

    println!("event-kernel benchmark (FDCT1) vs checked-in baseline\n");
    let spans = SpanSink::recording();
    let mut reports = Vec::new();
    let mut comparison_rows = Vec::new();
    let mut drift = false;
    let mut total_wall = 0.0f64;
    let mut total_events = 0u64;
    let mut total_evals = 0u64;
    let mut passed = 0u64;
    let mut failed = 0u64;
    for &px in &pixels {
        let label = format!("fdct1_{px}px");
        // Best-of-`repeat`: minimum wall-clock, counters asserted stable.
        let mut best: Option<(f64, fpgatest::flow::TestReport)> = None;
        for _ in 0..repeat {
            let span = spans.start(format_args!("case.{label}"));
            let flow = fdct_flow(px, 1, SchedulePolicy::List).with_spans(spans.clone());
            let report = run_checked(&flow);
            spans.end(span);
            let wall = report.runs[0].summary.wall_seconds;
            if let Some((_, prev)) = &best {
                assert_eq!(
                    report.runs[0].kernel, prev.runs[0].kernel,
                    "kernel counters not deterministic across repeats at {px} px"
                );
            }
            if best.as_ref().is_none_or(|(w, _)| wall < *w) {
                best = Some((wall, report));
            }
        }
        let (wall, report) = best.expect("at least one repeat");
        let run = &report.runs[0];
        let stats = run.kernel;
        total_wall += wall;
        total_events += stats.events;
        total_evals += stats.evals;
        if report.passed {
            passed += 1;
        } else {
            failed += 1;
        }
        println!(
            "  {px:>7} px: {wall:>9.3} s   events={} evals={} updates={}",
            stats.events, stats.evals, stats.updates
        );

        let mut row = vec![
            ("pixels", Json::from(px as f64)),
            ("events", Json::from(stats.events as f64)),
            ("evals", Json::from(stats.evals as f64)),
            ("updates", Json::from(stats.updates as f64)),
            ("wall_seconds", Json::from(wall)),
            ("verdict", Json::from(if report.passed { "pass" } else { "fail" })),
        ];
        match baseline.iter().find(|b| b.pixels == px) {
            Some(base) => {
                let speedup = base.wall_seconds / wall;
                println!(
                    "           baseline: {:>9.3} s   speedup {speedup:.2}x",
                    base.wall_seconds
                );
                row.push(("baseline_wall_seconds", Json::from(base.wall_seconds)));
                row.push(("speedup", Json::from(speedup)));
                let mut check = |what: &str, got: u64, want: u64| {
                    if got != want {
                        eprintln!(
                            "kernel_bench: COUNTER DRIFT at {px} px: {what} = {got}, baseline {want}"
                        );
                        drift = true;
                    }
                };
                check("events", stats.events, base.events);
                check("evals", stats.evals, base.evals);
                check("updates", stats.updates, base.updates);
            }
            None => println!("           (no baseline entry for {px} px)"),
        }
        comparison_rows.push(Json::Obj(
            row.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        ));
        reports.push((label, report));
    }

    // The standard metrics report, extended with the comparison block.
    let suite = SuiteReport {
        results: reports
            .into_iter()
            .map(|(name, report)| (name, CaseResult::Finished(report)))
            .collect(),
    };
    let mut json = telemetry::suite_json(&suite, &spans.take());
    if let Json::Obj(pairs) = &mut json {
        pairs.push((
            "kernel_bench".to_string(),
            Json::Obj(vec![
                (
                    "baseline".to_string(),
                    Json::from(baseline_path.display().to_string()),
                ),
                ("sizes".to_string(), Json::Arr(comparison_rows)),
            ]),
        ));
    }
    // Canonical key order, matching every other report writer: the same
    // run serializes to byte-identical bytes every time.
    json.sort_keys();
    if let Err(e) = std::fs::write(&metrics_out, json.emit_pretty()) {
        eprintln!("kernel_bench: writing {}: {e}", metrics_out.display());
        return ExitCode::from(2);
    }
    println!("\nwrote {}", metrics_out.display());

    if let Some(path) = &ledger_out {
        let sizes = pixels
            .iter()
            .map(|px| px.to_string())
            .collect::<Vec<_>>()
            .join("+");
        let entry = LedgerEntry {
            engine: "event".to_string(),
            wall_seconds: total_wall,
            passed,
            failed,
            counters: vec![
                ("events".to_string(), total_events as f64),
                ("evals".to_string(), total_evals as f64),
            ],
            ..LedgerEntry::new("bench", &format!("fdct1_{sizes}"))
        };
        if let Err(e) = ledger::append(path, &entry) {
            eprintln!("kernel_bench: appending ledger {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("appended ledger entry to {}", path.display());
    }

    if drift {
        eprintln!(
            "kernel_bench: counters drifted from {} — a semantic kernel change; \
             update the baseline in the same PR if intentional",
            baseline_path.display()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FDCT1 at the baseline's 1,024 px row: the event kernel's counters
    /// fingerprint its scheduling and the order components register in.
    #[test]
    fn fdct1_counters_match_the_baseline_at_1024_px() {
        let baseline = load_baseline(&default_baseline()).expect("baseline loads");
        let row = baseline
            .iter()
            .find(|row| row.pixels == 1024)
            .expect("the baseline has a 1,024 px row");
        let report = bench::run_checked(&fdct_flow(1024, 1, SchedulePolicy::List));
        let stats = report.runs[0].kernel;
        assert_eq!(
            (stats.events, stats.evals, stats.updates),
            (row.events, row.evals, row.updates)
        );
    }
}
