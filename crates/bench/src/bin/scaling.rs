//! Regenerates the paper's **in-text scaling experiment**: FDCT1
//! simulation time as a function of image size. The paper reports 6.9 s
//! for 4,096 pixels, ~1 min for 65,536, and ~6.5 min for 345,600 —
//! i.e. time grows linearly with pixel count.
//!
//! Usage: `cargo run --release -p bench --bin scaling [--paper]
//! [--metrics-out FILE]`
//!
//! Default sizes are 1,024 / 4,096 / 16,384 / 65,536 pixels; `--paper`
//! additionally runs the full 345,600-pixel image (several minutes).
//! `--metrics-out` writes the `fpgatest-metrics-v1` JSON report with one
//! entry per size (`fdct1_<pixels>px`).

use bench::{
    fdct_flow, render_comparisons, run_checked, take_metrics_out, write_metrics_json, Comparison,
};
use fpgatest::telemetry::SpanSink;
use nenya::schedule::SchedulePolicy;

fn main() {
    let (metrics_out, rest) = take_metrics_out(std::env::args().skip(1).collect());
    let full = rest.iter().any(|a| a == "--paper");
    let mut sizes = vec![1024usize, 4096, 16384, 65536];
    if full {
        sizes.push(345_600);
    }
    // Paper values in seconds, where reported.
    let paper: &[(usize, f64)] = &[(4096, 6.9), (65_536, 60.0), (345_600, 390.0)];

    println!("FDCT1 simulation time vs image size (event-driven kernel)\n");
    let spans = SpanSink::recording();
    let mut reports = Vec::new();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &pixels in &sizes {
        let label = format!("fdct1_{pixels}px");
        let span = spans.start(format_args!("case.{label}"));
        let flow = fdct_flow(pixels, 1, SchedulePolicy::List).with_spans(spans.clone());
        let report = run_checked(&flow);
        spans.end(span);
        let seconds = report.metrics.total_sim_seconds();
        let cycles = report.metrics.total_cycles();
        reports.push((label, report));
        println!(
            "  {:>7} px: {:>9.3} s   {:>10} cycles   {:>7.2} us/pixel",
            pixels,
            seconds,
            cycles,
            seconds * 1e6 / pixels as f64
        );
        points.push((pixels, seconds));
        rows.push(Comparison {
            label: format!("fdct1 sim time @ {pixels} px"),
            paper: paper.iter().find(|(p, _)| *p == pixels).map(|(_, s)| *s),
            measured: seconds,
            unit: "s",
        });
    }
    println!();
    println!("{}", render_comparisons("scaling: paper vs measured", &rows));

    // Shape check: time per pixel must be roughly constant (linear
    // scaling). Allow 2x drift across the sweep.
    let per_pixel: Vec<f64> = points
        .iter()
        .map(|(px, s)| s / *px as f64)
        .collect();
    let min = per_pixel.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_pixel.iter().cloned().fold(0.0, f64::max);
    let linear = max / min < 2.0;
    println!(
        "shape: time scales ~linearly in pixels ({}x spread)   {}",
        max / min,
        if linear { "OK" } else { "VIOLATED" }
    );

    if let Some(path) = metrics_out {
        write_metrics_json(&path, reports, &spans.take())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("metrics written to {}", path.display());
    }

    if !linear {
        std::process::exit(1);
    }
}
