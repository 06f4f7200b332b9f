//! The batch engine's lane-equivalence property, fuzzed.
//!
//! For random generated programs and 64 random stimulus vectors, lane
//! `k` of one [`PreparedDesign::run_batch`] walk must be
//! indistinguishable from fresh sequential runs of vector `k` alone:
//! same verdict, same failure/timeout strings, same final memories, same
//! cycle counts. Two references check every lane: `--engine cycle`, the
//! sweep interpreter, which shares no evaluator code with the bytecode,
//! and `--engine level`, the same bytecode one lane wide. This is the
//! correctness bar of the batch engine — packing 64 stimuli into one
//! schedule walk is an implementation detail no observer may detect.

use fpgafuzz::gen::{generate_case, Budget, Case};
use fpgatest::flow::{
    prepare_design, run_design, BatchLaneSpec, Engine, FlowError, FlowOptions, LaneReport,
};
use fpgatest::memcmp::Mismatch;
use fpgatest::stimulus::{MemImage, Stimulus};
use nenya::{compile_program, CompileOptions, Design};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WIDTH: u32 = 16;
const LANES: usize = 64;

fn regenerate(seed: u64, index: u64) -> Case {
    let budget = Budget {
        width: WIDTH,
        ..Budget::default()
    };
    generate_case(seed, index, &budget).expect("generator emits valid programs")
}

/// Deterministic value stream for lane stimuli (splitmix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64 independent stimulus vectors with the same memory shapes as the
/// generated case, each lane's values drawn from its own seeded stream.
fn lane_stimuli(case: &Case, lane_seed: u64) -> Vec<Vec<(String, Stimulus)>> {
    (0..LANES)
        .map(|lane| {
            let mut state = lane_seed ^ (lane as u64).wrapping_mul(0xa076_1d64_78bd_642f);
            case.stimuli
                .iter()
                .map(|(mem, values)| {
                    let fresh: Vec<i64> = values
                        .iter()
                        .map(|_| (splitmix64(&mut state) & 0xFFFF) as i64)
                        .collect();
                    (mem.clone(), Stimulus::from_values(fresh))
                })
                .collect()
        })
        .collect()
}

/// Everything a lane's verdict is made of.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The run finished: pass/fail, failure string, golden mismatches,
    /// final memories, and cycles summed across configurations.
    Finished {
        passed: bool,
        failure: Option<String>,
        mismatches: Vec<Mismatch>,
        sim_mems: BTreeMap<String, MemImage>,
        cycles: u64,
    },
    /// The tick watchdog fired, with its rendered error.
    TimedOut(String),
    /// Any other flow error, rendered.
    FlowError(String),
}

fn lane_verdict(lane: &LaneReport) -> Verdict {
    if let Some(timeout) = &lane.timed_out {
        return Verdict::TimedOut(timeout.clone());
    }
    if let Some(error) = &lane.flow_error {
        return Verdict::FlowError(error.clone());
    }
    Verdict::Finished {
        passed: lane.passed,
        failure: lane.failure.clone(),
        mismatches: lane.mismatches.clone(),
        sim_mems: lane.sim_mems.clone(),
        cycles: lane.cycles,
    }
}

/// One fresh sequential `run_design` of `stimuli` on `engine`.
fn sequential_verdict(
    design: &Design,
    stimuli: &[(String, Stimulus)],
    options: &FlowOptions,
    engine: Engine,
) -> Verdict {
    let options = FlowOptions {
        engine,
        ..options.clone()
    };
    match run_design(design, stimuli, &options) {
        Ok(report) => Verdict::Finished {
            passed: report.passed,
            failure: report.failure,
            mismatches: report.mismatches,
            sim_mems: report.sim_mems,
            cycles: report.runs.iter().map(|r| r.cycles).sum(),
        },
        Err(e @ FlowError::Timeout { .. }) => Verdict::TimedOut(e.to_string()),
        Err(e) => Verdict::FlowError(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batch lane `k` ≡ fresh sequential cycle and level runs of vector
    /// `k`.
    #[test]
    fn batch_lanes_match_fresh_sequential_level_runs(
        seed in any::<u64>(),
        index in 0u64..1024,
        lane_seed in any::<u64>(),
    ) {
        let case = regenerate(seed, index);
        let options = CompileOptions {
            width: WIDTH,
            ..CompileOptions::default()
        };
        let design = compile_program("gen", &case.program, &options)
            .expect("generator emits valid programs");
        let stimuli = lane_stimuli(&case, lane_seed);

        let flow_options = FlowOptions {
            max_ticks: 200_000,
            ..FlowOptions::default()
        };
        let prepared = prepare_design(design.clone()).expect("prepared design");
        let specs: Vec<BatchLaneSpec> = stimuli
            .iter()
            .map(|lane| BatchLaneSpec {
                stimuli: lane.clone(),
                faults: Vec::new(),
            })
            .collect();
        let batch = prepared
            .run_batch(&specs, &flow_options)
            .expect("batch run on a valid generated design");
        prop_assert_eq!(batch.lanes.len(), LANES);

        for (k, lane) in batch.lanes.iter().enumerate() {
            let got = lane_verdict(lane);
            for engine in [Engine::Cycle, Engine::Level] {
                let want = sequential_verdict(&design, &stimuli[k], &flow_options, engine);
                prop_assert_eq!(&got, &want, "lane {} vs a fresh {} run", k, engine);
            }
        }
    }
}
