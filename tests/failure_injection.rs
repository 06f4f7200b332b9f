//! Fault injection: the whole point of a *test* infrastructure is that it
//! catches compiler bugs. Each test plants a representative bug in the
//! generated artifacts — a wrong functional unit, a corrupted constant, a
//! mis-wired mux, a broken FSM assert — and checks the flow flags the
//! design instead of passing it.

use fpgatest::elaborate::{ConfigParts, ElaborateConfigError};
use fpgatest::flow::{run_design, FlowOptions};
use fpgatest::stimulus::Stimulus;
use fpgatest::workloads;
use nenya::{compile, CompileOptions, Design};

fn hamming_design() -> (Design, Vec<(String, Stimulus)>) {
    let design = compile(
        "hamming",
        &workloads::hamming_source(8),
        &CompileOptions::default(),
    )
    .expect("compiles");
    let stimuli = vec![(
        "code".to_string(),
        Stimulus::from_values(workloads::hamming_codewords(8)),
    )];
    (design, stimuli)
}

fn expect_caught(design: &Design, stimuli: &[(String, Stimulus)], what: &str) {
    let report = run_design(design, stimuli, &FlowOptions::default())
        .unwrap_or_else(|e| panic!("{what}: flow errored instead of reporting: {e}"));
    assert!(
        !report.passed,
        "{what}: the injected bug was NOT caught\n{}",
        report.render()
    );
    // The verdict explains itself: either a simulation failure or concrete
    // mismatches.
    assert!(
        report.failure.is_some() || !report.mismatches.is_empty(),
        "{what}: failing report lacks a reason"
    );
}

#[test]
fn unmodified_design_passes() {
    let (design, stimuli) = hamming_design();
    let report = run_design(&design, &stimuli, &FlowOptions::default()).expect("runs");
    assert!(report.passed, "{}", report.render());
}

#[test]
fn wrong_functional_unit_kind_is_caught() {
    let (mut design, stimuli) = hamming_design();
    // A classic codegen bug: one adder emitted as a subtractor.
    let cell = design.configs[0]
        .datapath
        .cells
        .iter_mut()
        .find(|c| c.kind == "add")
        .expect("design has an adder");
    cell.kind = "sub".to_string();
    expect_caught(&design, &stimuli, "add→sub substitution");
}

#[test]
fn corrupted_constant_is_caught() {
    let (mut design, stimuli) = hamming_design();
    let cell = design.configs[0]
        .datapath
        .cells
        .iter_mut()
        .find(|c| c.kind == "const" && c.params.iter().any(|(k, v)| k == "value" && v == "1"))
        .expect("design has a const 1");
    for (key, value) in &mut cell.params {
        if key == "value" {
            *value = "2".to_string();
        }
    }
    expect_caught(&design, &stimuli, "constant corruption");
}

#[test]
fn swapped_comparison_is_caught() {
    let (mut design, stimuli) = hamming_design();
    // Loop bound comparison inverted (lt → ge): the loop either exits
    // immediately (wrong outputs) or never runs the body.
    let cell = design.configs[0]
        .datapath
        .cells
        .iter_mut()
        .find(|c| c.kind == "lt")
        .expect("loop comparison exists");
    cell.kind = "ge".to_string();
    expect_caught(&design, &stimuli, "inverted loop comparison");
}

#[test]
fn dropped_fsm_assert_is_caught() {
    let (mut design, stimuli) = hamming_design();
    // The control unit forgets to enable one register: a scheduling bug.
    let state = design.configs[0]
        .fsm
        .states
        .iter_mut()
        .find(|s| s.asserts.iter().any(|(n, v)| n.ends_with("_en") && *v == 1))
        .expect("some state enables a register");
    state
        .asserts
        .retain(|(n, v)| !(n.ends_with("_en") && *v == 1));
    expect_caught(&design, &stimuli, "dropped register enable");
}

#[test]
fn wrong_mux_select_is_caught() {
    let (mut design, stimuli) = hamming_design();
    // Find a state asserting a multi-writer register select and flip it.
    let fsm = &mut design.configs[0].fsm;
    let mut flipped = false;
    for state in &mut fsm.states {
        for (name, value) in &mut state.asserts {
            if name.ends_with("_sel") && *value == 0 {
                *value = 1;
                flipped = true;
                break;
            }
        }
        if flipped {
            break;
        }
    }
    assert!(flipped, "design has a mux select to corrupt");
    expect_caught(&design, &stimuli, "wrong mux select");
}

#[test]
fn wrong_branch_polarity_is_caught() {
    let (mut design, stimuli) = hamming_design();
    let fsm = &mut design.configs[0].fsm;
    let transition = fsm
        .states
        .iter_mut()
        .flat_map(|s| s.transitions.iter_mut())
        .find(|t| t.cond.is_some())
        .expect("fsm has a conditional transition");
    let (signal, when) = transition.cond.clone().expect("conditional");
    transition.cond = Some((signal, !when));
    expect_caught(&design, &stimuli, "inverted branch polarity");
}

#[test]
fn miswired_operand_is_caught() {
    let (mut design, stimuli) = hamming_design();
    // Rewire one FU's 'b' operand to its own 'a' operand signal.
    let cell = design.configs[0]
        .datapath
        .cells
        .iter_mut()
        .find(|c| c.kind == "xor")
        .expect("decoder has xor units");
    let a_signal = cell
        .conns
        .iter()
        .find(|(p, _)| p == "a")
        .map(|(_, s)| s.clone())
        .expect("a connected");
    for (port, signal) in &mut cell.conns {
        if port == "b" {
            *signal = a_signal.clone();
        }
    }
    expect_caught(&design, &stimuli, "miswired operand");
}

#[test]
fn truncated_memory_is_caught_as_failure() {
    let (mut design, stimuli) = hamming_design();
    // The compiler under-sizes an SRAM: the simulation must fail with an
    // out-of-range write rather than silently wrapping.
    for cell in &mut design.configs[0].datapath.cells {
        if cell.kind == "sram" && cell.name == "data" {
            for (key, value) in &mut cell.params {
                if key == "size" {
                    *value = "4".to_string(); // real size is 8
                }
            }
        }
    }
    // Note: the golden reference still uses the correct TAC memories, so
    // only the hardware misbehaves — exactly the asymmetry the flow
    // detects.
    let report = run_design(&design, &stimuli, &FlowOptions::default()).expect("flow runs");
    assert!(!report.passed);
    let failure = report.failure.expect("failure reported");
    assert!(
        failure.contains("out of range") || failure.contains("in the netlist"),
        "unexpected failure message: {failure}"
    );
}

#[test]
fn corrupted_xml_text_is_rejected_not_misread() {
    // Corruption at the *file* level: the dialect loaders must reject
    // malformed documents rather than elaborate something wrong.
    let (design, _) = hamming_design();
    let config = &design.configs[0];
    let dp_text = nenya::xml::emit_datapath(&config.datapath).to_pretty_string();

    // Truncated file.
    let truncated = &dp_text[..dp_text.len() / 2];
    assert!(xmlite::Document::parse(truncated).is_err());

    // Well-formed XML, wrong dialect content: strip a required attribute.
    let stripped = dp_text.replacen(" kind=\"add\"", "", 1);
    if stripped != dp_text {
        let doc = xmlite::Document::parse(&stripped).expect("still well-formed");
        assert!(nenya::xml::parse_datapath(&doc).is_err());
    }

    // Well-formed and dialect-valid, but naming an unknown component
    // kind: elaboration must fail, not guess.
    let retyped = dp_text.replacen("kind=\"add\"", "kind=\"quantum\"", 1);
    let doc = xmlite::Document::parse(&retyped).expect("well-formed");
    let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
    let result = ConfigParts::parse(&doc, &fsm_doc).and_then(|parts| parts.build(true, None));
    assert!(
        matches!(result, Err(ElaborateConfigError::Netlist(_))),
        "unknown kind must be an elaboration error"
    );
}
