//! End-to-end integration: the full Figure 1 flow on the paper's two
//! workloads, checking golden-vs-simulated agreement, metrics
//! plausibility, and the observation features (VCD, PGM).

use fpgatest::flow::{FlowOptions, TestFlow};
use fpgatest::stimulus::{self, Stimulus};
use fpgatest::workloads;
use nenya::CompileOptions;

fn fdct_flow(pixels: usize, partitions: usize) -> TestFlow {
    TestFlow::new("fdct", workloads::fdct_source(pixels))
        .with_options(FlowOptions {
            compile: CompileOptions {
                width: 32,
                partitions,
                ..CompileOptions::default()
            },
            ..FlowOptions::default()
        })
        .stimulus("img", Stimulus::from_values(workloads::test_image(pixels)))
}

#[test]
fn fdct_hardware_matches_golden_and_host_reference() {
    let pixels = 128;
    let report = fdct_flow(pixels, 1).run().expect("flow runs");
    assert!(report.passed, "{}", report.render());

    // Golden == simulated is the flow's own check; additionally pin both
    // against the independent host implementation of the same DCT.
    let expected = workloads::fdct_reference(&workloads::test_image(pixels));
    let got: Vec<i64> = report.sim_mems["out"]
        .iter()
        .map(|w| w.expect("every coefficient written"))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn fdct_metrics_have_paper_shape() {
    let report = fdct_flow(128, 1).run().expect("flow runs");
    let m = &report.metrics;
    // Operator count close to the paper's 169 (independent of image size).
    assert!(
        (140..=200).contains(&m.total_operators()),
        "operators = {}",
        m.total_operators()
    );
    // Datapath XML is the largest description, as in Table I.
    let c = &m.configs[0];
    assert!(c.lo_xml_datapath > c.lo_xml_fsm);
    assert!(c.lo_behav_fsm > 100);
    assert!(c.cycles > 0 && c.events > 0);
}

#[test]
fn hamming_decoder_corrects_errors_in_hardware() {
    let words = 32;
    let report = TestFlow::new("hamming", workloads::hamming_source(words))
        .stimulus(
            "code",
            Stimulus::from_values(workloads::hamming_codewords(words)),
        )
        .run()
        .expect("flow runs");
    assert!(report.passed, "{}", report.render());
    let decoded: Vec<i64> = report.sim_mems["data"]
        .iter()
        .map(|w| w.expect("written"))
        .collect();
    assert_eq!(decoded, workloads::hamming_expected(words));
}

#[test]
fn tracing_and_pgm_outputs_work_on_real_designs() {
    let report = fdct_flow(64, 1)
        .with_trace(true)
        .run()
        .expect("flow runs");
    let vcd = report.runs[0].vcd.as_ref().expect("vcd requested");
    assert!(vcd.contains("$enddefinitions"));
    assert!(vcd.matches('#').count() > 10, "clock edges recorded");

    let pgm = stimulus::to_pgm(&report.sim_mems["img"], 8, 255);
    assert!(pgm.starts_with("P2\n8 8\n255\n"));
}

#[test]
fn suite_of_paper_workloads_passes() {
    use fpgatest::suite::{Suite, TestCase};
    let mut fdct_case = TestCase::new("fdct1", workloads::fdct_source(64));
    fdct_case.options.compile.width = 32;
    fdct_case = fdct_case.with_stimulus("img", Stimulus::from_values(workloads::test_image(64)));
    let hamming_case = TestCase::new("hamming", workloads::hamming_source(16)).with_stimulus(
        "code",
        Stimulus::from_values(workloads::hamming_codewords(16)),
    );
    let report = Suite::new()
        .with_case(fdct_case)
        .with_case(hamming_case)
        .run();
    assert!(report.all_passed(), "{}", report.render());
}

#[test]
fn artifacts_are_complete_and_consistent() {
    let report = fdct_flow(64, 1).run().expect("flow runs");
    let artifacts = report.artifacts.expect("kept by default");
    let config = &artifacts.configs[0];
    // XML artifacts reparse.
    assert!(xmlite::Document::parse(&config.datapath_xml).is_ok());
    assert!(xmlite::Document::parse(&config.fsm_xml).is_ok());
    assert!(xmlite::Document::parse(&artifacts.rtg_xml).is_ok());
    // hds reparses into a netlist with the same operator count.
    let netlist = eventsim::hds::parse(&config.hds).expect("hds parses");
    assert_eq!(
        netlist.operator_count(),
        report.metrics.configs[0].operators
    );
    // Behavioral source mentions every FSM state... at least the sizes
    // line up with the metrics.
    assert_eq!(
        config
            .behavior_src
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count(),
        report.metrics.configs[0].lo_behav_fsm
    );
    // Dots are balanced digraphs.
    for dot in [&config.datapath_dot, &config.fsm_dot, &artifacts.rtg_dot] {
        assert!(fpgatest::dot::dot_is_balanced(dot));
    }
}

/// A partitioned run keeps a datapath and an FSM graph per configuration
/// beside the RTG's, and every one is a balanced digraph.
#[test]
fn dot_graphs_cover_all_configs() {
    let report = TestFlow::new(
        "g",
        "mem out[2]; void main() { int a = 1; out[0] = a; out[1] = a + 1; }",
    )
    .with_partitions(2)
    .run()
    .expect("flow runs");
    let artifacts = report.artifacts.expect("kept by default");
    assert_eq!(artifacts.configs.len(), 2);
    let graphs = artifacts
        .configs
        .iter()
        .flat_map(|config| [&config.datapath_dot, &config.fsm_dot])
        .chain([&artifacts.rtg_dot]);
    for dot in graphs {
        assert!(
            fpgatest::dot::dot_is_balanced(dot),
            "graph malformed:\n{dot}"
        );
    }
}

#[test]
fn extended_workloads_pass_in_hardware() {
    // Matrix multiply: triple loop nest, 2-D addressing.
    let n = 3;
    let a: Vec<i64> = (0..(n * n) as i64).collect();
    let b: Vec<i64> = (0..(n * n) as i64).map(|v| v + 1).collect();
    let report = TestFlow::new("matmul", workloads::matmul_source(n))
        .stimulus("a", Stimulus::from_values(a.iter().copied()))
        .stimulus("b", Stimulus::from_values(b.iter().copied()))
        .run()
        .expect("flow runs");
    assert!(report.passed, "{}", report.render());
    let got: Vec<i64> = report.sim_mems["c"].iter().map(|w| w.unwrap()).collect();
    assert_eq!(got, workloads::matmul_reference(&a, &b, n));

    // Bubble sort: data-dependent branches decide swaps in hardware.
    let count = 10;
    let mut values: Vec<i64> = (0..count as i64).map(|v| (v * 31 + 7) % 40 - 15).collect();
    let report = TestFlow::new("sort", workloads::sort_source(count))
        .stimulus("data", Stimulus::from_values(values.iter().copied()))
        .run()
        .expect("flow runs");
    assert!(report.passed, "{}", report.render());
    values.sort_unstable();
    let got: Vec<i64> = report.sim_mems["data"].iter().map(|w| w.unwrap()).collect();
    assert_eq!(got, values);
}

#[test]
fn optimized_compiler_passes_hardware_verification() {
    // The paper's core scenario: the compiler changed (optimizer on) —
    // the infrastructure re-verifies the whole suite.
    for optimize in [false, true] {
        let report = fdct_flow(64, 1)
            .with_optimize(optimize)
            .run()
            .expect("flow runs");
        assert!(report.passed, "optimize={optimize}: {}", report.render());
    }
    // And the optimized design is genuinely different (fewer cycles).
    let plain = fdct_flow(64, 1).run().unwrap();
    let optimized = fdct_flow(64, 1).with_optimize(true).run().unwrap();
    assert!(optimized.metrics.total_cycles() < plain.metrics.total_cycles());
    assert_eq!(plain.sim_mems["out"], optimized.sim_mems["out"]);
}

#[test]
fn designs_verify_across_data_widths() {
    // The same program compiled at different design widths: wrapping
    // behaviour differs, but golden and hardware must agree at every
    // width (both derive their arithmetic from the width).
    let source = "mem out[6]; void main() {
        int i;
        for (i = 0; i < 6; i = i + 1) {
            out[i] = (i + 1) * 3000;
        }
    }";
    let mut per_width = Vec::new();
    for width in [8u32, 16, 24, 48, 64] {
        let report = TestFlow::new("widths", source)
            .with_width(width)
            .run()
            .expect("flow runs");
        assert!(report.passed, "width {width}: {}", report.render());
        per_width.push(report.sim_mems["out"].clone());
    }
    // 8-bit wraps (3000 & 0xFF sign-extended), 16-bit holds 3000..15000
    // but wraps 18000, wide widths hold everything.
    assert_ne!(per_width[0], per_width[1]);
    assert_eq!(per_width[3], per_width[4]);
    assert_eq!(per_width[4][5], Some(18000));
    assert_eq!(per_width[1][5], Some((18000i64 as i16) as i64));
}
