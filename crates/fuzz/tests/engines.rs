//! Cross-engine equivalence over the checked-in corpus, plus the
//! levelization-order property.
//!
//! The event kernel is the reference semantics; the compiled cycle,
//! level, and batch engines must leave *word-identical* final memories
//! on every corpus case. A second, structural property checks the level engine's
//! schedule itself: in the rank table of every generated netlist, each
//! combinational instance is ranked strictly after all of its producers,
//! so a single ascending pass per clock phase is sufficient. A third
//! pins the executor's prepare-once shape: replaying one prepared design
//! and golden run must report exactly what a fresh flow reports.

use fpgafuzz::exec::{run_case, signal_fault_for, variants_for, CaseOutcome, ExecOptions};
use fpgafuzz::gen::{generate_case, Budget, Case};
use fpgatest::flow::{
    prepare_design, prepare_golden, run_design, Engine, FlowError, FlowOptions, TestFlow,
    TestReport,
};
use fpgatest::stimulus::Stimulus;
use nenya::{compile_program, CompileOptions};
use proptest::prelude::*;
use std::path::PathBuf;

/// The campaign's default width (matches `tests/replay.rs`).
const WIDTH: u32 = 16;

fn corpus_cases() -> Vec<(u64, u64)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut cases: Vec<(u64, u64)> = std::fs::read_dir(&dir)
        .expect("corpus directory is checked in")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? != "src" {
                return None;
            }
            let stem = path.file_stem()?.to_str()?;
            let rest = stem.strip_prefix("seed")?;
            let (seed, case) = rest.split_once("-case")?;
            Some((seed.parse().ok()?, case.parse().ok()?))
        })
        .collect();
    cases.sort_unstable();
    assert!(!cases.is_empty(), "no .src files in {}", dir.display());
    cases
}

fn regenerate(seed: u64, index: u64) -> Case {
    let budget = Budget {
        width: WIDTH,
        ..Budget::default()
    };
    generate_case(seed, index, &budget).expect("generator emits valid programs")
}

fn flow(case: &Case, engine: Engine) -> TestFlow {
    let mut flow = TestFlow::new("gen", &case.source)
        .with_width(WIDTH)
        .with_engine(engine);
    for (mem, values) in &case.stimuli {
        flow = flow.stimulus(mem, Stimulus::from_values(values.iter().copied()));
    }
    flow
}

/// Every corpus case, replayed on all four engines: all must pass the
/// golden comparison *and* agree with each other word for word.
#[test]
fn corpus_final_memories_identical_across_engines() {
    for (seed, index) in corpus_cases() {
        let case = regenerate(seed, index);
        let event = flow(&case, Engine::Event)
            .run()
            .unwrap_or_else(|e| panic!("case {seed}/{index}: event flow: {e}"));
        assert!(
            event.passed,
            "case {seed}/{index} fails on the event kernel:\n{}",
            event.render()
        );
        for engine in [Engine::Cycle, Engine::Level, Engine::Batch] {
            let compiled = flow(&case, engine)
                .run()
                .unwrap_or_else(|e| panic!("case {seed}/{index}: {engine} flow: {e}"));
            assert!(
                compiled.passed,
                "case {seed}/{index} fails on the {engine} engine:\n{}",
                compiled.render()
            );
            assert_eq!(
                compiled.sim_mems, event.sim_mems,
                "case {seed}/{index}: {engine} engine memories differ from the event kernel"
            );
        }
    }
}

fn stimuli(case: &Case) -> Vec<(String, Stimulus)> {
    case.stimuli
        .iter()
        .map(|(mem, values)| (mem.clone(), Stimulus::from_values(values.iter().copied())))
        .collect()
}

/// The report fields a verdict is made of, with errors as their text.
type Verdict = Result<
    (
        bool,
        Option<String>,
        Vec<fpgatest::memcmp::Mismatch>,
        std::collections::BTreeMap<String, nenya::interp::MemImage>,
        Vec<u64>,
    ),
    String,
>;

fn verdict(result: Result<TestReport, FlowError>) -> Verdict {
    result
        .map(|report| {
            (
                report.passed,
                report.failure,
                report.mismatches,
                report.sim_mems,
                report.runs.iter().map(|run| run.cycles).collect(),
            )
        })
        .map_err(|e| e.to_string())
}

/// For every corpus case and engine, a design run through
/// `prepare_design`, `prepare_golden` and then `run_with_golden` reports
/// the same verdict, failure, mismatches, final memories, and
/// per-configuration cycles as a fresh `run_design`, once clean and once
/// with the executor's stuck-at fault injected.
#[test]
fn prepared_legs_match_fresh_flows() {
    let compile = CompileOptions {
        width: WIDTH,
        ..CompileOptions::default()
    };
    for (seed, index) in corpus_cases() {
        let case = regenerate(seed, index);
        let stimuli = stimuli(&case);
        let design = compile_program("gen", &case.program, &compile)
            .expect("generator emits valid programs");
        let fault = signal_fault_for(&design, index).expect("generated cases write memory");
        let golden = prepare_golden(&design, &stimuli, &FlowOptions::default())
            .unwrap_or_else(|e| panic!("case {seed}/{index}: golden: {e}"));
        let prepared = prepare_design(design.clone())
            .unwrap_or_else(|e| panic!("case {seed}/{index}: prepare: {e}"));
        for faults in [Vec::new(), vec![fault.clone()]] {
            for engine in [Engine::Event, Engine::Cycle, Engine::Level, Engine::Batch] {
                let options = FlowOptions {
                    compile: compile.clone(),
                    engine,
                    faults: faults.clone(),
                    ..FlowOptions::default()
                };
                assert_eq!(
                    verdict(prepared.run_with_golden(&golden, &options)),
                    verdict(run_design(&design, &stimuli, &options)),
                    "case {seed}/{index}, {engine} engine, faults {faults:?}"
                );
            }
        }
    }
}

/// A golden failure comes back from the executor as a generator error
/// with the variant-prefixed text of the fresh flow's error.
#[test]
fn golden_failure_text_matches_the_fresh_flow() {
    let (seed, index) = corpus_cases()[0];
    let case = regenerate(seed, index);
    let opts = ExecOptions {
        golden_step_limit: 1,
        ..ExecOptions::default()
    };
    let variant = variants_for(index)[0];
    let compile = CompileOptions {
        width: WIDTH,
        policy: variant.policy,
        partitions: variant.partitions,
        optimize: false,
    };
    let design = compile_program(&format!("fuzz_{seed}_{index}"), &case.program, &compile)
        .expect("generator emits valid programs");
    let options = FlowOptions {
        compile,
        golden_step_limit: 1,
        coverage: true,
        ..FlowOptions::default()
    };
    let fresh = run_design(&design, &stimuli(&case), &options).expect_err("golden must fail");
    match run_case(&case, WIDTH, &opts) {
        CaseOutcome::GeneratorError(text) => assert_eq!(text, format!("{variant}: {fresh}")),
        other => panic!("expected a generator error, got {other:?}"),
    }
}

/// Levelizes every configuration of a compiled design and returns the
/// rank tables, one per configuration.
fn rank_tables(case: &Case) -> Vec<Vec<eventsim::batchsim::RankEntry>> {
    let options = CompileOptions {
        width: WIDTH,
        ..CompileOptions::default()
    };
    let design =
        compile_program("gen", &case.program, &options).expect("generator emits valid programs");
    design
        .configs
        .iter()
        .map(|config| {
            let dp_doc = nenya::xml::emit_datapath(&config.datapath);
            let hds = xform::apply(xform::stylesheets::datapath_to_hds(), dp_doc.root())
                .expect("datapath stylesheet applies");
            let netlist = eventsim::hds::parse(&hds).expect("stylesheet output parses");
            eventsim::batchsim::BatchProgram::compile(&netlist)
                .expect("generated datapaths are acyclic")
                .rank_table()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In every levelized schedule, each combinational instance ranks
    /// strictly after all of its combinational producers — the property
    /// that makes one ascending sweep per clock phase sufficient.
    #[test]
    fn levelization_ranks_respect_sources(
        seed in any::<u64>(),
        index in 0u64..1024,
    ) {
        let case = regenerate(seed, index);
        for table in rank_tables(&case) {
            prop_assert!(!table.is_empty(), "no combinational instances levelized");
            for entry in &table {
                for (producer, producer_rank) in &entry.sources {
                    prop_assert!(
                        entry.rank > *producer_rank,
                        "'{}' (rank {}) does not come after its producer '{}' (rank {})",
                        entry.instance, entry.rank, producer, producer_rank
                    );
                }
            }
        }
    }
}
