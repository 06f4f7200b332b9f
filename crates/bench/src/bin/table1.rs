//! Regenerates **Table I** of the paper: FDCT1 (one configuration),
//! FDCT2 (two configurations), and the Hamming decoder — reporting
//! `loJava`, `loXML FSM`, `loXML datapath`, `loJava FSM` (behavioral
//! lines), operator counts, and simulation time.
//!
//! Usage: `cargo run --release -p bench --bin table1
//! [pixels] [hamming_words] [--metrics-out FILE]`
//! (defaults: 4096 pixels = the paper's 64 DCT blocks, 64 codewords;
//! `--metrics-out` writes the `fpgatest-metrics-v1` JSON report).

use bench::{
    fdct_flow, hamming_flow, render_comparisons, run_checked, take_metrics_out,
    write_metrics_json, Comparison,
};
use fpgatest::flow::TestFlow;
use fpgatest::metrics::render_table1;
use fpgatest::telemetry::SpanSink;
use nenya::schedule::SchedulePolicy;

fn main() {
    let (metrics_out, rest) = take_metrics_out(std::env::args().skip(1).collect());
    let mut args = rest.into_iter();
    let pixels: usize = args
        .next()
        .map(|a| a.parse().expect("pixels must be an integer"))
        .unwrap_or(fpgatest::workloads::FDCT_BASE_PIXELS);
    let words: usize = args
        .next()
        .map(|a| a.parse().expect("words must be an integer"))
        .unwrap_or(64);

    println!("regenerating Table I (fdct over {pixels} pixels, hamming over {words} words)\n");

    // Each flow's stage spans nest under a `case.<label>` span, as in a
    // manifest run.
    let spans = SpanSink::recording();
    let run = |flow: TestFlow, label: &str| {
        let span = spans.start(format_args!("case.{label}"));
        let report = run_checked(&flow.with_spans(spans.clone()));
        spans.end(span);
        report
    };
    let fdct1 = run(fdct_flow(pixels, 1, SchedulePolicy::List), "fdct1");
    let fdct2 = run(fdct_flow(pixels, 2, SchedulePolicy::List), "fdct2");
    let hamming = run(hamming_flow(words), "hamming");

    println!(
        "{}",
        render_table1(&[
            fdct1.metrics.clone(),
            fdct2.metrics.clone(),
            hamming.metrics.clone()
        ])
    );

    // Paper values (Pentium 4 @ 2.8 GHz, Windows XP, Java/Hades) for
    // shape comparison. Absolute times are expected to differ by orders
    // of magnitude; orderings and rough factors are the reproduction
    // target.
    let rows = vec![
        Comparison {
            label: "fdct1 operators".into(),
            paper: Some(169.0),
            measured: fdct1.metrics.total_operators() as f64,
            unit: "FUs",
        },
        Comparison {
            label: "fdct2 operators (per config avg)".into(),
            paper: Some(90.0),
            measured: fdct2.metrics.total_operators() as f64 / fdct2.metrics.configs.len() as f64,
            unit: "FUs",
        },
        Comparison {
            label: "hamming operators".into(),
            paper: Some(37.0),
            measured: hamming.metrics.total_operators() as f64,
            unit: "FUs",
        },
        Comparison {
            label: "fdct1 sim time".into(),
            paper: Some(6.9),
            measured: fdct1.metrics.total_sim_seconds(),
            unit: "s",
        },
        Comparison {
            label: "fdct2 sim time (total)".into(),
            paper: Some(5.8),
            measured: fdct2.metrics.total_sim_seconds(),
            unit: "s",
        },
        Comparison {
            label: "hamming sim time".into(),
            paper: Some(1.5),
            measured: hamming.metrics.total_sim_seconds(),
            unit: "s",
        },
        Comparison {
            label: "fdct1 loJava".into(),
            paper: Some(138.0),
            measured: fdct1.metrics.lo_java as f64,
            unit: "lines",
        },
        Comparison {
            label: "hamming loJava".into(),
            paper: Some(45.0),
            measured: hamming.metrics.lo_java as f64,
            unit: "lines",
        },
    ];
    println!("{}", render_comparisons("Table I: paper vs measured", &rows));

    // Shape assertions the reproduction must satisfy.
    let t_fdct1 = fdct1.metrics.total_sim_seconds();
    let t_fdct2 = fdct2.metrics.total_sim_seconds();
    let t_ham = hamming.metrics.total_sim_seconds();
    let shape_checks = [
        ("hamming is the cheapest simulation", t_ham < t_fdct1 && t_ham < t_fdct2),
        (
            "each fdct2 configuration is cheaper than fdct1",
            fdct2.metrics.configs.iter().all(|c| c.sim_seconds < t_fdct1),
        ),
        (
            "fdct2 per-config operators ~ half of fdct1",
            {
                let per = fdct2.metrics.total_operators() / 2;
                per * 3 > fdct1.metrics.total_operators()
                    && per * 2 < fdct1.metrics.total_operators() * 3
            },
        ),
        (
            "hamming has far fewer operators than fdct1",
            hamming.metrics.total_operators() * 3 < fdct1.metrics.total_operators(),
        ),
    ];
    let mut ok = true;
    for (what, holds) in shape_checks {
        println!("shape: {:<46} {}", what, if holds { "OK" } else { "VIOLATED" });
        ok &= holds;
    }

    if let Some(path) = metrics_out {
        let reports = vec![
            ("fdct1".to_string(), fdct1),
            ("fdct2".to_string(), fdct2),
            ("hamming".to_string(), hamming),
        ];
        write_metrics_json(&path, reports, &spans.take())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("metrics written to {}", path.display());
    }

    if !ok {
        std::process::exit(1);
    }
}
