//! The XML files are the interchange contract of the infrastructure:
//! everything the flow needs must survive the trip through rendered XML
//! text, exactly as when the compiler and the simulator are separate
//! processes sharing files.

use eventsim::{RunOutcome, SimTime};
use fpgatest::elaborate::ConfigParts;
use fpgatest::workloads;
use nenya::{compile, CompileOptions};
use xmlite::Document;

fn fdct_design() -> nenya::Design {
    compile(
        "fdct",
        &workloads::fdct_source(64),
        &CompileOptions {
            width: 32,
            ..CompileOptions::default()
        },
    )
    .expect("compiles")
}

#[test]
fn dialects_roundtrip_through_text_for_real_designs() {
    let design = fdct_design();
    for config in &design.configs {
        let dp_text = nenya::xml::emit_datapath(&config.datapath).to_pretty_string();
        let dp_back = nenya::xml::parse_datapath(&Document::parse(&dp_text).unwrap()).unwrap();
        assert_eq!(dp_back, config.datapath);

        let fsm_text = nenya::xml::emit_fsm(&config.fsm).to_pretty_string();
        let fsm_back = nenya::xml::parse_fsm(&Document::parse(&fsm_text).unwrap()).unwrap();
        assert_eq!(fsm_back, config.fsm);
    }
    let rtg_text = nenya::xml::emit_rtg(&design.rtg).to_pretty_string();
    let rtg_back = nenya::xml::parse_rtg(&Document::parse(&rtg_text).unwrap()).unwrap();
    assert_eq!(rtg_back, design.rtg);
}

#[test]
fn simulation_from_reserialized_xml_matches_direct_path() {
    let design = fdct_design();
    let config = &design.configs[0];
    let image = workloads::test_image(64);

    // Path A: documents straight from the compiler.
    let dp_doc = nenya::xml::emit_datapath(&config.datapath);
    let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
    // Path B: documents re-parsed from rendered text (the file trip).
    let dp_doc_b = Document::parse(&dp_doc.to_pretty_string()).unwrap();
    let fsm_doc_b = Document::parse(&fsm_doc.to_pretty_string()).unwrap();

    let mut results = Vec::new();
    for (dp, fsm) in [(&dp_doc, &fsm_doc), (&dp_doc_b, &fsm_doc_b)] {
        let parts = ConfigParts::parse(dp, fsm).expect("parses");
        let mut cs = parts.build(true, None).expect("elaborates");
        for (addr, &v) in image.iter().enumerate() {
            cs.mems["img"].store(addr, v);
        }
        let summary = cs.sim.run(SimTime(u64::MAX / 4)).expect("runs");
        assert!(matches!(summary.outcome, RunOutcome::Stopped(_)));
        results.push((cs.mems["out"].snapshot(), summary.events));
    }
    assert_eq!(results[0].0, results[1].0, "memory contents differ");
    assert_eq!(results[0].1, results[1].1, "event counts differ");
}

#[test]
fn loc_metrics_are_stable_across_reserialization() {
    let design = fdct_design();
    let config = &design.configs[0];
    let doc = nenya::xml::emit_datapath(&config.datapath);
    let reparsed = Document::parse(&doc.to_pretty_string()).unwrap();
    assert_eq!(xmlite::loc(&doc), xmlite::loc(&reparsed));
}

#[test]
fn stock_stylesheets_apply_to_all_real_dialect_documents() {
    let design = compile(
        "two",
        "mem a[4]; mem b[4]; void main() { int i; for (i = 0; i < 4; i = i + 1) { a[i] = i; } int j; for (j = 0; j < 4; j = j + 1) { b[j] = a[j]; } }",
        &CompileOptions {
            partitions: 2,
            ..CompileOptions::default()
        },
    )
    .expect("compiles");
    for config in &design.configs {
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
        for sheet in [
            xform::stylesheets::datapath_to_hds(),
            xform::stylesheets::datapath_to_dot(),
        ] {
            let out = xform::apply(sheet, dp_doc.root()).expect("applies");
            assert!(!out.is_empty());
        }
        for sheet in [
            xform::stylesheets::fsm_to_behavior(),
            xform::stylesheets::fsm_to_dot(),
        ] {
            let out = xform::apply(sheet, fsm_doc.root()).expect("applies");
            assert!(!out.is_empty());
        }
    }
    let rtg_doc = nenya::xml::emit_rtg(&design.rtg);
    for sheet in [
        xform::stylesheets::rtg_to_controller(),
        xform::stylesheets::rtg_to_dot(),
    ] {
        let out = xform::apply(sheet, rtg_doc.root()).expect("applies");
        assert!(out.contains("c0") && out.contains("c1"));
    }
}

#[test]
fn hand_authored_xml_is_a_usable_contract() {
    // The XML dialects are a public contract: a design written by hand
    // (or by some other tool) must elaborate and simulate without the
    // compiler being involved at all. This datapath doubles its input
    // register once per control step, three times: 5 -> 40.
    let datapath_xml = r#"
        <datapath name="doubler" width="16" clock="clk">
          <signals>
            <signal name="clk" width="1"/>
            <signal name="done" width="1"/>
            <signal name="acc_q" width="16"/>
            <signal name="acc_en" width="1"/>
            <signal name="acc_sel" width="1"/>
            <signal name="acc_d" width="16"/>
            <signal name="seed" width="16"/>
            <signal name="dbl" width="16"/>
          </signals>
          <cells>
            <cell name="clock0" kind="clock">
              <param key="period" value="10"/>
              <conn port="y" signal="clk"/>
            </cell>
            <cell name="cseed" kind="const">
              <param key="width" value="16"/>
              <param key="value" value="5"/>
              <conn port="y" signal="seed"/>
            </cell>
            <cell name="add0" kind="add">
              <param key="width" value="16"/>
              <conn port="a" signal="acc_q"/>
              <conn port="b" signal="acc_q"/>
              <conn port="y" signal="dbl"/>
            </cell>
            <cell name="mux_acc" kind="mux">
              <param key="width" value="16"/>
              <param key="inputs" value="2"/>
              <conn port="sel" signal="acc_sel"/>
              <conn port="i0" signal="seed"/>
              <conn port="i1" signal="dbl"/>
              <conn port="y" signal="acc_d"/>
            </cell>
            <cell name="acc" kind="reg">
              <param key="width" value="16"/>
              <conn port="clk" signal="clk"/>
              <conn port="d" signal="acc_d"/>
              <conn port="q" signal="acc_q"/>
              <conn port="en" signal="acc_en"/>
            </cell>
          </cells>
          <interface>
            <control signal="acc_en" width="1"/>
            <control signal="acc_sel" width="1"/>
            <control signal="done" width="1"/>
          </interface>
        </datapath>
    "#;
    let fsm_xml = r#"
        <fsm name="doubler_ctrl" initial="load">
          <inputs/>
          <outputs>
            <output signal="acc_en" width="1"/>
            <output signal="acc_sel" width="1"/>
            <output signal="done" width="1"/>
          </outputs>
          <states>
            <state name="load">
              <assert output="acc_en" value="1"/>
              <assert output="acc_sel" value="0"/>
              <transition target="d1"/>
            </state>
            <state name="d1">
              <assert output="acc_en" value="1"/>
              <assert output="acc_sel" value="1"/>
              <transition target="d2"/>
            </state>
            <state name="d2">
              <assert output="acc_en" value="1"/>
              <assert output="acc_sel" value="1"/>
              <transition target="d3"/>
            </state>
            <state name="d3">
              <assert output="acc_en" value="1"/>
              <assert output="acc_sel" value="1"/>
              <transition target="fin"/>
            </state>
            <state name="fin" terminal="true">
              <assert output="done" value="1"/>
            </state>
          </states>
        </fsm>
    "#;
    let dp_doc = Document::parse(datapath_xml).unwrap();
    let fsm_doc = Document::parse(fsm_xml).unwrap();
    let parts = ConfigParts::parse(&dp_doc, &fsm_doc).expect("hand-written design parses");
    let mut cs = parts
        .build(true, None)
        .expect("hand-written design elaborates");
    let summary = cs.sim.run(SimTime(10_000)).unwrap();
    assert!(matches!(summary.outcome, RunOutcome::Stopped(_)));
    let acc = cs.sim.find_signal("acc_q").unwrap();
    assert_eq!(cs.sim.value(acc).as_i64(), 40, "5 doubled three times");
    assert!(cs.sim.value(cs.done).is_true());
}
