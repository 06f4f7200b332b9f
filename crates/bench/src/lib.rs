//! Shared harness code for the benchmark suite: canonical constructions
//! of the paper's workloads and the measurement records the table/figure
//! regenerators print.

use fpgatest::flow::{FlowOptions, TestFlow, TestReport};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::{CaseResult, SuiteReport};
use fpgatest::telemetry::{self, Recorder};
use fpgatest::workloads;
use nenya::schedule::SchedulePolicy;
use nenya::CompileOptions;
use std::path::Path;

/// Builds the FDCT test flow: `pixels` must be a multiple of 64;
/// `partitions == 1` is the paper's FDCT1, `2` is FDCT2.
pub fn fdct_flow(pixels: usize, partitions: usize, policy: SchedulePolicy) -> TestFlow {
    let name = if partitions == 1 { "fdct1" } else { "fdct2" };
    TestFlow::new(name, workloads::fdct_source(pixels))
        .with_options(FlowOptions {
            compile: CompileOptions {
                width: 32,
                policy,
                partitions,
                ..CompileOptions::default()
            },
            ..FlowOptions::default()
        })
        .stimulus("img", Stimulus::from_values(workloads::test_image(pixels)))
}

/// Builds the Hamming-decoder test flow over `words` codewords.
pub fn hamming_flow(words: usize) -> TestFlow {
    TestFlow::new("hamming", workloads::hamming_source(words)).stimulus(
        "code",
        Stimulus::from_values(workloads::hamming_codewords(words)),
    )
}

/// Runs a flow and asserts it passed (benchmarks must never time a
/// failing run).
///
/// # Panics
///
/// Panics when the flow errors or the verdict is FAIL.
pub fn run_checked(flow: &TestFlow) -> TestReport {
    let report = flow.run().unwrap_or_else(|e| panic!("flow error: {e}"));
    assert!(report.passed, "flow failed:\n{}", report.render());
    report
}

/// Pulls a `--metrics-out <path>` pair out of `args`, returning the path
/// (if present) and the remaining arguments.
pub fn take_metrics_out(args: Vec<String>) -> (Option<std::path::PathBuf>, Vec<String>) {
    let mut path = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--metrics-out" {
            path = it.next().map(std::path::PathBuf::from);
        } else {
            rest.push(arg);
        }
    }
    (path, rest)
}

/// Writes the same `fpgatest-metrics-v1` JSON report the CLI's
/// `--metrics-out` produces, so bench results diff against flow runs.
///
/// # Errors
///
/// Returns the I/O error from writing `path`.
pub fn write_metrics_json(
    path: &Path,
    reports: Vec<(String, TestReport)>,
    recorder: &Recorder,
) -> std::io::Result<()> {
    let suite = SuiteReport {
        results: reports
            .into_iter()
            .map(|(name, report)| (name, CaseResult::Finished(report)))
            .collect(),
    };
    // Canonical key order, matching the CLI: the same run serializes to
    // byte-identical bytes every time.
    let mut json = telemetry::suite_json(&suite, recorder);
    json.sort_keys();
    std::fs::write(path, json.emit_pretty())
}

/// A measured row for table/figure output: paper value vs ours.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Row label.
    pub label: String,
    /// The value the paper reports (None when not reported).
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit for display.
    pub unit: &'static str,
}

/// Renders comparisons with paper/measured/ratio columns.
pub fn render_comparisons(title: &str, rows: &[Comparison]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<34} {:>12} {:>12} {:>8}\n",
        "quantity", "paper", "measured", "ratio"
    ));
    for row in rows {
        let (paper, ratio) = match row.paper {
            Some(p) if p != 0.0 => (format!("{p:.4}"), format!("{:.3}", row.measured / p)),
            Some(p) => (format!("{p:.4}"), "-".to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<34} {:>12} {:>12.4} {:>8}  [{}]\n",
            row.label, paper, row.measured, ratio, row.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fdct_flows_pass() {
        for partitions in [1, 2] {
            let report = run_checked(&fdct_flow(64, partitions, SchedulePolicy::List));
            assert_eq!(report.runs.len(), partitions);
        }
    }

    #[test]
    fn hamming_flow_passes() {
        let report = run_checked(&hamming_flow(16));
        assert_eq!(report.sim_mems["data"][0], Some(0));
        assert_eq!(report.sim_mems["data"][5], Some(5));
    }

    #[test]
    fn engines_agree_on_paper_workloads() {
        use fpgatest::flow::Engine;
        let workloads: Vec<(&str, TestFlow)> = vec![
            ("fdct1", fdct_flow(256, 1, SchedulePolicy::List)),
            ("fdct2", fdct_flow(256, 2, SchedulePolicy::List)),
            ("hamming", hamming_flow(16)),
        ];
        for (name, flow) in workloads {
            let event = run_checked(&flow.clone().with_engine(Engine::Event));
            for engine in [Engine::Cycle, Engine::Level, Engine::Batch] {
                let compiled = run_checked(&flow.clone().with_engine(engine));
                assert_eq!(
                    compiled.sim_mems, event.sim_mems,
                    "{name}: {engine} engine memories differ from the event kernel"
                );
            }
        }
    }

    #[test]
    fn comparison_rendering() {
        let text = render_comparisons(
            "demo",
            &[
                Comparison {
                    label: "sim time".into(),
                    paper: Some(6.9),
                    measured: 0.69,
                    unit: "s",
                },
                Comparison {
                    label: "unreported".into(),
                    paper: None,
                    measured: 1.0,
                    unit: "x",
                },
            ],
        );
        assert!(text.contains("0.100"));
        assert!(text.contains('-'));
    }
}
