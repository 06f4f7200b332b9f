//! Batch-engine lane bit-identity: every lane of a 64-lane `BatchSim`
//! walk must match two fresh runs of that lane's configuration — same
//! signal values, same memory images, same cycle counts, same outcomes
//! and failure messages:
//!
//! * a `CycleSim` run, the sweep-to-fixpoint interpreter, which shares
//!   no evaluator code with the bytecode and so is the independent
//!   reference;
//! * a one-lane `BatchSim<1>` walk (the level engine), which must agree
//!   with the lane on every field.
//!
//! Lanes differ by per-lane fault injections (the fault-campaign
//! batching contract: 64 sites per walk), so the parity check covers
//! clean lanes, stuck-at clamps, transient flips on both sequential and
//! combinational signals, design failures, and cycle-limit exhaustion in
//! one run.

use eventsim::batchsim::{
    BatchProgram, BatchSim, FirstAccess, LaneOutcome, LaneResult, SignalBits, LANES,
};
use eventsim::cyclesim::{CycleOutcome, CycleSim, CycleSimError, CycleSummary};
use eventsim::netlist::{Instance, Netlist};
use eventsim::ops::{FsmState, FsmTable, FsmTransition};
use eventsim::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

const WIDTH: u32 = 16;
const MAX_CYCLES: u64 = 60;

/// Counter, ripple arithmetic, enable-gated register, written SRAM, FSM
/// control unit, watchpoint.
fn build_netlist() -> Netlist {
    let mut nl = Netlist::new("batch");
    for (name, width) in [
        ("clk", 1),
        ("rst", 1),
        ("cnt", WIDTH),
        ("addr", WIDTH),
        ("sum", WIDTH),
        ("prod", WIDTH),
        ("en", 1),
        ("held", WIDTH),
        ("dout", WIDTH),
        ("one", WIDTH),
        ("three", WIDTH),
        ("bit1", 1),
        ("wen", 1),
        ("fsm_out", WIDTH),
    ] {
        nl.add_signal(name, width);
    }
    nl.add_instance(
        Instance::new("clock0", "clock")
            .with_param("period", 10)
            .with_conn("y", "clk"),
    );
    nl.add_instance(
        Instance::new("c1", "const")
            .with_param("width", WIDTH)
            .with_param("value", 1)
            .with_conn("y", "one"),
    );
    nl.add_instance(
        Instance::new("c3", "const")
            .with_param("width", WIDTH)
            .with_param("value", 3)
            .with_conn("y", "three"),
    );
    nl.add_instance(Instance::new("reset0", "reset").with_conn("y", "rst"));
    nl.add_instance(
        Instance::new("cnt0", "reg")
            .with_param("width", WIDTH)
            .with_conn("clk", "clk")
            .with_conn("d", "sum")
            .with_conn("q", "cnt")
            .with_conn("rst", "rst"),
    );
    nl.add_instance(
        Instance::new("mask", "and")
            .with_param("width", WIDTH)
            .with_conn("a", "cnt")
            .with_conn("b", "three")
            .with_conn("y", "addr"),
    );
    nl.add_instance(
        Instance::new("add0", "add")
            .with_param("width", WIDTH)
            .with_conn("a", "cnt")
            .with_conn("b", "one")
            .with_conn("y", "sum"),
    );
    nl.add_instance(
        Instance::new("mul0", "mul")
            .with_param("width", WIDTH)
            .with_conn("a", "sum")
            .with_conn("b", "three")
            .with_conn("y", "prod"),
    );
    nl.add_instance(
        Instance::new("lsb", "and")
            .with_param("width", 1)
            .with_conn("a", "cnt")
            .with_conn("b", "one")
            .with_conn("y", "en"),
    );
    nl.add_instance(
        Instance::new("hold", "reg")
            .with_param("width", WIDTH)
            .with_conn("clk", "clk")
            .with_conn("d", "prod")
            .with_conn("q", "held")
            .with_conn("en", "en"),
    );
    nl.add_instance(
        Instance::new("cb1", "const")
            .with_param("width", 1)
            .with_param("value", 1)
            .with_conn("y", "bit1"),
    );
    nl.add_instance(
        Instance::new("notrst", "xor")
            .with_param("width", 1)
            .with_conn("a", "rst")
            .with_conn("b", "bit1")
            .with_conn("y", "wen"),
    );
    nl.add_instance(
        Instance::new("m0", "sram")
            .with_param("width", WIDTH)
            .with_param("size", 4)
            .with_conn("clk", "clk")
            .with_conn("en", "one")
            .with_conn("we", "wen")
            .with_conn("addr", "addr")
            .with_conn("din", "prod")
            .with_conn("dout", "dout"),
    );
    nl.add_instance(
        Instance::new("stopper", "watchpoint")
            .with_param("value", 12)
            .with_conn("sig", "cnt"),
    );
    nl
}

fn control_table() -> FsmTable {
    let states = vec![
        FsmState {
            name: "idle".to_string(),
            outputs: vec![(0, 5)],
            transitions: vec![
                FsmTransition {
                    condition: Some((0, true)),
                    target: 1,
                },
                FsmTransition {
                    condition: None,
                    target: 0,
                },
            ],
            terminal: false,
        },
        FsmState {
            name: "busy".to_string(),
            outputs: vec![(0, 9)],
            transitions: vec![FsmTransition {
                condition: None,
                target: 0,
            }],
            terminal: false,
        },
    ];
    FsmTable::new(states, 1, 1).expect("table validates")
}

const PROBES: [&str; 10] = [
    "cnt", "addr", "sum", "prod", "en", "held", "dout", "one", "three", "fsm_out",
];

const PRELOAD: [i64; 4] = [7, 11, 13, 17];

/// One lane's fault configuration, appliable to every engine.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    Stuck(&'static str, u32, bool),
    Flip(&'static str, u32, u64),
}

/// The per-lane fault plan: clean lanes, clamps that change control
/// flow, clamps that fail the design, flips on sequential and
/// combinational signals. Lanes past the list run clean.
fn fault_plan() -> Vec<Fault> {
    vec![
        Fault::None,
        // Counter LSB stuck high: cnt can never equal 12, so the
        // watchpoint never fires and the lane exhausts the budget.
        Fault::Stuck("cnt", 0, true),
        // Write-enable stuck high: the cycle-0 write sees the X counter
        // address — a design failure.
        Fault::Stuck("wen", 0, true),
        Fault::Stuck("sum", 1, false),
        // Flip on a register output persists for one walk.
        Fault::Flip("cnt", 2, 3),
        // Flip on a comb output is recomputed away by the settle.
        Fault::Flip("sum", 0, 4),
        Fault::Stuck("fsm_out", 3, true),
        Fault::Stuck("en", 0, false),
        Fault::Stuck("addr", 1, true),
        Fault::Flip("held", 3, 5),
    ]
}

#[derive(Debug, Clone, PartialEq)]
struct LaneSnapshot {
    outcome: LaneOutcome,
    cycles: u64,
    values: BTreeMap<String, Option<Value>>,
    mem: Vec<Option<i64>>,
}

/// A `CycleSim` run's outcome and cycle count in the batch engine's
/// terms (a failing cycle does not count as elapsed).
fn cycle_result(sim: &CycleSim, run: Result<CycleSummary, CycleSimError>) -> (LaneOutcome, u64) {
    match run {
        Ok(summary) => (
            match summary.outcome {
                CycleOutcome::Done => LaneOutcome::Done,
                CycleOutcome::Watchpoint(name) => LaneOutcome::Watchpoint(name),
                CycleOutcome::CycleLimit => LaneOutcome::CycleLimit,
            },
            summary.cycles,
        ),
        Err(CycleSimError::Failed(m)) => (LaneOutcome::Failed(m), sim.cycles()),
        Err(e) => panic!("unexpected cycle-engine error: {e}"),
    }
}

/// Runs one configuration through a fresh cycle engine.
fn cycle_reference(nl: &Netlist, fault: Fault) -> LaneSnapshot {
    let mut sim = CycleSim::from_netlist(nl).expect("netlist builds");
    sim.add_control_unit("ctl", &["wen"], &[("fsm_out", WIDTH)], control_table())
        .expect("control unit attaches");
    match fault {
        Fault::None => {}
        Fault::Stuck(signal, bit, value) => {
            assert!(sim.inject_stuck_at(signal, bit, value).expect("injects"));
        }
        Fault::Flip(signal, bit, cycle) => {
            assert!(sim
                .inject_transient_flip(signal, bit, cycle)
                .expect("injects"));
        }
    }
    sim.mem("m0").expect("sram exists").fill(PRELOAD);
    let run = sim.run(MAX_CYCLES);
    let (outcome, cycles) = cycle_result(&sim, run);
    LaneSnapshot {
        outcome,
        cycles,
        values: PROBES
            .iter()
            .map(|name| (name.to_string(), sim.value(name)))
            .collect(),
        mem: sim.mem("m0").expect("sram exists").snapshot(),
    }
}

/// A fresh instance of `nl`, built the way the flow builds every level
/// and batch walk: compile the program, attach its control units with
/// `attach`, then instantiate it.
fn instance<const W: usize>(
    nl: &Netlist,
    attach: impl FnOnce(&mut BatchProgram) -> Result<(), CycleSimError>,
) -> BatchSim<W> {
    let mut program = BatchProgram::compile(nl).expect("netlist builds");
    attach(&mut program).expect("control unit attaches");
    BatchSim::new(Arc::new(program))
}

/// An instance of the lane-parity netlist with its `ctl` unit.
fn ctl_instance<const W: usize>(nl: &Netlist) -> BatchSim<W> {
    instance(nl, |p| {
        p.add_control_unit("ctl", &["wen"], &[("fsm_out", WIDTH)], control_table())
    })
}

/// Injects `fault` into `lane` of a bytecode engine of any width.
fn inject_lane<const W: usize>(sim: &mut BatchSim<W>, fault: Fault, lane: usize) {
    match fault {
        Fault::None => {}
        Fault::Stuck(signal, bit, value) => {
            assert!(sim
                .inject_stuck_at_lane(signal, bit, value, lane)
                .expect("injects"));
        }
        Fault::Flip(signal, bit, cycle) => {
            assert!(sim
                .inject_transient_flip_lane(signal, bit, cycle, lane)
                .expect("injects"));
        }
    }
}

/// Runs one configuration through a fresh one-lane walk.
fn one_lane_reference(nl: &Netlist, fault: Fault) -> LaneSnapshot {
    let mut sim = ctl_instance::<1>(nl);
    inject_lane(&mut sim, fault, 0);
    let preload: Vec<Option<i64>> = PRELOAD.iter().copied().map(Some).collect();
    assert!(sim.load_mem_all("m0", &preload));
    let summary = sim.run_batch(MAX_CYCLES);
    batch_snapshot(&sim, 0, summary.lanes[0].as_ref().expect("lane is active"))
}

fn batch_snapshot<const W: usize>(
    sim: &BatchSim<W>,
    lane: usize,
    result: &LaneResult,
) -> LaneSnapshot {
    LaneSnapshot {
        outcome: result.outcome.clone(),
        cycles: result.cycles,
        values: PROBES
            .iter()
            .map(|name| (name.to_string(), sim.value_lane(name, lane)))
            .collect(),
        mem: sim.snapshot_mem("m0", lane).expect("sram exists"),
    }
}

/// The headline contract: all 64 lanes of one batch walk, with per-lane
/// faults, against fresh cycle-engine and one-lane runs.
#[test]
fn every_lane_matches_a_fresh_sequential_run() {
    let nl = build_netlist();
    let plan = fault_plan();

    let mut batch = ctl_instance::<LANES>(&nl);
    for lane in 0..LANES {
        inject_lane(
            &mut batch,
            plan.get(lane).copied().unwrap_or(Fault::None),
            lane,
        );
    }
    let preload: Vec<Option<i64>> = PRELOAD.iter().copied().map(Some).collect();
    assert!(batch.load_mem_all("m0", &preload));
    let summary = batch.run_batch(MAX_CYCLES);

    // Clean lanes share one pair of reference runs.
    let clean = (
        cycle_reference(&nl, Fault::None),
        one_lane_reference(&nl, Fault::None),
    );
    for lane in 0..LANES {
        let fault = plan.get(lane).copied().unwrap_or(Fault::None);
        let result = summary.lanes[lane].as_ref().expect("lane is active");
        let got = batch_snapshot(&batch, lane, result);
        let (cycle, one_lane) = match fault {
            Fault::None => clean.clone(),
            _ => (cycle_reference(&nl, fault), one_lane_reference(&nl, fault)),
        };
        assert_eq!(
            got, cycle,
            "lane {lane} (fault {fault:?}) diverges from the cycle engine"
        );
        assert_eq!(
            got, one_lane,
            "lane {lane} (fault {fault:?}) diverges from a one-lane walk"
        );
    }
}

/// Division and remainder by zero must fail the precise lanes at the
/// precise cycle, with the sequential engine's message, while other
/// lanes walk on.
#[test]
fn division_by_zero_fails_per_lane_like_sequential() {
    let mut nl = Netlist::new("divzero");
    for (name, width) in [
        ("clk", 1),
        ("rst", 1),
        ("cnt", 8),
        ("sum", 8),
        ("one", 8),
        ("five", 8),
        ("quot", 8),
    ] {
        nl.add_signal(name, width);
    }
    nl.add_instance(
        Instance::new("clock0", "clock")
            .with_param("period", 10)
            .with_conn("y", "clk"),
    );
    nl.add_instance(Instance::new("reset0", "reset").with_conn("y", "rst"));
    nl.add_instance(
        Instance::new("c1", "const")
            .with_param("width", 8)
            .with_param("value", 1)
            .with_conn("y", "one"),
    );
    nl.add_instance(
        Instance::new("c5", "const")
            .with_param("width", 8)
            .with_param("value", 5)
            .with_conn("y", "five"),
    );
    nl.add_instance(
        Instance::new("cnt0", "reg")
            .with_param("width", 8)
            .with_conn("clk", "clk")
            .with_conn("d", "sum")
            .with_conn("q", "cnt")
            .with_conn("rst", "rst"),
    );
    nl.add_instance(
        Instance::new("add0", "add")
            .with_param("width", 8)
            .with_conn("a", "cnt")
            .with_conn("b", "one")
            .with_conn("y", "sum"),
    );
    // cnt is 0 during cycle 1 (reset commit), so the divide fails then.
    nl.add_instance(
        Instance::new("div0", "div")
            .with_param("width", 8)
            .with_conn("a", "five")
            .with_conn("b", "cnt")
            .with_conn("y", "quot"),
    );

    let mut cycle = CycleSim::from_netlist(&nl).expect("netlist builds");
    let err = cycle.run(10).expect_err("divide by zero fails");
    let CycleSimError::Failed(want_msg) = err else {
        panic!("unexpected error kind: {err}");
    };
    assert_eq!(want_msg, "div0: division by zero");
    let want_cycles = cycle.cycles();

    let mut one_lane = BatchSim::<1>::from_netlist(&nl).expect("netlist builds");
    let one_lane = one_lane.run_batch(10).lanes[0]
        .clone()
        .expect("lane is active");
    let mut batch = BatchSim::<LANES>::from_netlist(&nl).expect("netlist builds");
    let summary = batch.run_batch(10);
    for lane in 0..LANES {
        let result = summary.lanes[lane].as_ref().expect("lane is active");
        assert_eq!(
            result.outcome,
            LaneOutcome::Failed(want_msg.clone()),
            "lane {lane}"
        );
        assert_eq!(result.cycles, want_cycles, "lane {lane}");
        assert_eq!(result, &one_lane, "lane {lane} vs a one-lane walk");
    }
}

/// `set_active` scopes a run to a lane subset: excluded lanes report
/// `None` and never advance.
#[test]
fn inactive_lanes_stay_untouched() {
    let nl = build_netlist();
    let mut batch = BatchSim::<LANES>::from_netlist(&nl).expect("netlist builds");
    batch.set_active(0b101);
    let summary = batch.run_batch(MAX_CYCLES);
    for lane in 0..LANES {
        match lane {
            0 | 2 => assert!(summary.lanes[lane].is_some(), "lane {lane} ran"),
            _ => assert!(summary.lanes[lane].is_none(), "lane {lane} excluded"),
        }
    }
}

/// The single-result `run` wrapper reports lane 0 in the `CycleSummary`
/// shape the cycle engine uses, at every width.
#[test]
fn run_wrapper_matches_level_summary() {
    let nl = build_netlist();
    let mut cycle = CycleSim::from_netlist(&nl).expect("netlist builds");
    let want = cycle.run(MAX_CYCLES).expect("cycle run completes");

    let mut level = BatchSim::<1>::from_netlist(&nl).expect("netlist builds");
    let one_lane = level.run(MAX_CYCLES).expect("level run completes");
    let mut batch = BatchSim::<LANES>::from_netlist(&nl).expect("netlist builds");
    let got = batch.run(MAX_CYCLES).expect("batch run completes");
    assert_eq!(got.outcome, want.outcome);
    assert_eq!(got.cycles, want.cycles);
    assert_eq!(batch.cycles(), cycle.cycles());
    assert_eq!(got, one_lane);
    assert_eq!(batch.cycles(), level.cycles());
}

/// Words per memory of the divergent-control design.
const DIV_WORDS: usize = 8;

/// The divergent-control design: a pointer register walks two
/// per-lane-preloaded memories, `src` and `aux`. Bit 0 of each word read
/// is a control condition (`c0`, `c1`), so lanes with different data
/// take different transitions at the same edge. The controller's
/// `wen`/`mode` outputs write `ptr + mode` into `dst`, so any stale
/// Moore output shows up in memory.
fn divergent_netlist() -> Netlist {
    let mut nl = Netlist::new("divergent");
    for (name, width) in [
        ("clk", 1),
        ("rst", 1),
        ("ptr", 8),
        ("nxt", 8),
        ("one", 8),
        ("hi", 1),
        ("lo", 1),
        ("word", 8),
        ("flag", 8),
        ("c0", 1),
        ("c1", 1),
        ("inc", 1),
        ("wen", 1),
        ("mode", 4),
        ("tag", 8),
        ("dst_out", 8),
    ] {
        nl.add_signal(name, width);
    }
    nl.add_instance(
        Instance::new("clock0", "clock")
            .with_param("period", 10)
            .with_conn("y", "clk"),
    );
    nl.add_instance(Instance::new("reset0", "reset").with_conn("y", "rst"));
    for (name, width, value, y) in [
        ("c_one", 8, 1, "one"),
        ("c_hi", 1, 1, "hi"),
        ("c_lo", 1, 0, "lo"),
    ] {
        nl.add_instance(
            Instance::new(name, "const")
                .with_param("width", width)
                .with_param("value", value)
                .with_conn("y", y),
        );
    }
    nl.add_instance(
        Instance::new("ptr0", "reg")
            .with_param("width", 8)
            .with_conn("clk", "clk")
            .with_conn("d", "nxt")
            .with_conn("q", "ptr")
            .with_conn("en", "inc")
            .with_conn("rst", "rst"),
    );
    for (name, kind, width, a, b, y) in [
        ("step", "add", 8, "ptr", "one", "nxt"),
        ("bit0", "and", 1, "word", "one", "c0"),
        ("bit1", "and", 1, "flag", "one", "c1"),
        ("tagger", "add", 8, "ptr", "mode", "tag"),
    ] {
        nl.add_instance(
            Instance::new(name, kind)
                .with_param("width", width)
                .with_conn("a", a)
                .with_conn("b", b)
                .with_conn("y", y),
        );
    }
    for (name, we, din, dout) in [
        ("src", "lo", "tag", "word"),
        ("aux", "lo", "tag", "flag"),
        ("dst", "wen", "tag", "dst_out"),
    ] {
        nl.add_instance(
            Instance::new(name, "sram")
                .with_param("width", 8)
                .with_param("size", DIV_WORDS as i64)
                .with_conn("clk", "clk")
                .with_conn("en", "hi")
                .with_conn("we", we)
                .with_conn("addr", "ptr")
                .with_conn("din", din)
                .with_conn("dout", dout),
        );
    }
    nl.add_instance(
        Instance::new("stop", "watchpoint")
            .with_param("value", 6)
            .with_conn("sig", "ptr"),
    );
    nl
}

/// Seven states, three outputs (`inc`, `wen`, `mode`), two conditions.
/// `fetch` tries `c0` then `c1` then falls through; `odd` takes two
/// cycles and `skip` one, so lanes drift out of phase; `odd2` waits while
/// `c1` holds; `flagged` ends in the terminal `halt`. `fetch` and `skip`
/// drive the same `wen`, so a flipped `wen` survives a fetch-to-skip
/// move, or a wait in `odd2`, unless it is redriven.
fn divergent_table() -> FsmTable {
    type Transitions = Vec<(Option<(usize, bool)>, usize)>;
    let state = |name: &str, outputs: Vec<(usize, i64)>, transitions: Transitions| FsmState {
        name: name.to_string(),
        outputs,
        transitions: transitions
            .into_iter()
            .map(|(condition, target)| FsmTransition { condition, target })
            .collect(),
        terminal: false,
    };
    let mut states = vec![
        state("boot", vec![], vec![(None, 1)]),
        state(
            "fetch",
            vec![(2, 1)],
            vec![(Some((0, true)), 2), (Some((1, true)), 4), (None, 3)],
        ),
        state("odd", vec![(0, 1), (1, 1), (2, 2)], vec![(None, 6)]),
        state("skip", vec![(0, 1), (2, 1)], vec![(None, 1)]),
        state("flagged", vec![(1, 1), (2, 5)], vec![(None, 5)]),
        state("halt", vec![(2, 7)], vec![]),
        state("odd2", vec![(2, 4)], vec![(Some((1, false)), 1)]),
    ];
    states[5].terminal = true;
    FsmTable::new(states, 2, 3).expect("table validates")
}

const DIV_CONDITIONS: [&str; 2] = ["c0", "c1"];
const DIV_OUTPUTS: [(&str, u32); 3] = [("inc", 1), ("wen", 1), ("mode", 4)];
const DIV_PROBES: [&str; 9] = ["ptr", "word", "flag", "c0", "c1", "inc", "wen", "mode", "tag"];
const DIV_MAX_CYCLES: u64 = 40;

/// One lane of the divergent-control test: its `src` and `aux` images
/// (`None` = an undefined word) and an optional `wen` flip cycle.
#[derive(Debug, Clone)]
struct DivLane {
    src: Vec<Option<i64>>,
    aux: Vec<Option<i64>>,
    flip: Option<u64>,
}

/// Hand-written lanes for each behavior, then seeded ones.
fn divergent_lanes() -> Vec<DivLane> {
    let (zeros, odds) = (vec![Some(0); DIV_WORDS], vec![Some(1); DIV_WORDS]);
    let lane = |src: Vec<Option<i64>>, aux: Vec<Option<i64>>| DivLane { src, aux, flip: None };
    let with = |base: &Vec<Option<i64>>, addr: usize, word: Option<i64>| {
        let mut v = base.clone();
        v[addr] = word;
        v
    };
    let mut lanes = vec![
        // fetch/skip forever, until the watchpoint.
        lane(zeros.clone(), zeros.clone()),
        // fetch/odd/odd2: drifts out of phase with lane 0.
        lane(odds.clone(), zeros.clone()),
        // A flag at word 2 reaches the terminal state while others run.
        lane(zeros.clone(), with(&zeros, 2, Some(1))),
        // X at the very first fetch: fails while its group walks on.
        lane(with(&zeros, 0, None), zeros.clone()),
        // X later, mid-run.
        lane(with(&zeros, 3, None), zeros.clone()),
        // `c1` is X but never reached: `c0` matches first.
        lane(with(&zeros, 1, Some(3)), with(&zeros, 1, None)),
        // `c1` is X and reached: fails in `fetch`.
        lane(zeros.clone(), with(&zeros, 1, None)),
        // A `wen` flip in `fetch` (cycle 3) while others sit elsewhere.
        DivLane {
            flip: Some(3),
            ..lane(zeros.clone(), zeros.clone())
        },
        // A flip at cycle 3, as this lane moves from `odd2` to `fetch`.
        DivLane {
            flip: Some(3),
            ..lane(odds.clone(), zeros.clone())
        },
        // A flip while the lane waits in `odd2` until the cycle limit.
        DivLane {
            flip: Some(6),
            ..lane(odds.clone(), with(&zeros, 1, Some(1)))
        },
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    while lanes.len() < LANES {
        let mut image = |x_odds: u64| -> Vec<Option<i64>> {
            (0..DIV_WORDS)
                .map(|_| (next(x_odds) != 0).then(|| next(4) as i64))
                .collect()
        };
        let src = image(24);
        let aux = image(24);
        let flip = (lanes.len() % 7 == 0).then(|| 1 + lanes.len() as u64 % 9);
        lanes.push(DivLane { src, aux, flip });
    }
    lanes
}

fn divergent_cycle(nl: &Netlist, lane: &DivLane) -> LaneSnapshot {
    let mut sim = CycleSim::from_netlist(nl).expect("netlist builds");
    sim.add_control_unit("ctl", &DIV_CONDITIONS, &DIV_OUTPUTS, divergent_table())
        .expect("control unit attaches");
    if let Some(cycle) = lane.flip {
        assert!(sim.inject_transient_flip("wen", 0, cycle).expect("injects"));
    }
    for (mem, image) in [("src", &lane.src), ("aux", &lane.aux)] {
        let handle = sim.mem(mem).expect("sram exists");
        for (addr, word) in image.iter().enumerate() {
            if let Some(v) = word {
                handle.store(addr, *v);
            }
        }
    }
    let run = sim.run(DIV_MAX_CYCLES);
    let (outcome, cycles) = cycle_result(&sim, run);
    LaneSnapshot {
        outcome,
        cycles,
        values: DIV_PROBES
            .iter()
            .map(|name| (name.to_string(), sim.value(name)))
            .collect(),
        mem: sim.mem("dst").expect("sram exists").snapshot(),
    }
}

/// Loads every lane's images and flip into a divergent-control engine
/// and runs it: lane `l` of the engine gets `lanes[l]`.
fn divergent_batch<const W: usize>(nl: &Netlist, lanes: &[DivLane]) -> Vec<LaneSnapshot> {
    let mut sim = instance::<W>(nl, |p| {
        p.add_control_unit("ctl", &DIV_CONDITIONS, &DIV_OUTPUTS, divergent_table())
    });
    for (l, lane) in lanes.iter().enumerate() {
        if let Some(cycle) = lane.flip {
            assert!(sim
                .inject_transient_flip_lane("wen", 0, cycle, l)
                .expect("injects"));
        }
        assert!(sim.load_mem("src", l, &lane.src));
        assert!(sim.load_mem("aux", l, &lane.aux));
    }
    let summary = sim.run_batch(DIV_MAX_CYCLES);
    (0..lanes.len())
        .map(|l| {
            let result = summary.lanes[l].as_ref().expect("lane is active");
            LaneSnapshot {
                outcome: result.outcome.clone(),
                cycles: result.cycles,
                values: DIV_PROBES
                    .iter()
                    .map(|name| (name.to_string(), sim.value_lane(name, l)))
                    .collect(),
                mem: sim.snapshot_mem("dst", l).expect("sram exists"),
            }
        })
        .collect()
}

/// Control divergence, lane by lane: lanes split across FSM states at
/// the same edge, fail on an X condition while the rest of their state
/// group walks on, finish in a terminal state while others continue, and
/// take a transient flip on a Moore output while others sit in other
/// states. Every lane must equal a fresh cycle-engine run and a fresh
/// one-lane walk.
#[test]
fn divergent_control_matches_level_lane_by_lane() {
    let nl = divergent_netlist();
    let lanes = divergent_lanes();
    let batch = divergent_batch::<LANES>(&nl, &lanes);

    let mut seen = Vec::new();
    for (l, (lane, got)) in lanes.iter().zip(batch).enumerate() {
        let cycle = divergent_cycle(&nl, lane);
        let one_lane = divergent_batch::<1>(&nl, std::slice::from_ref(lane)).remove(0);
        assert_eq!(
            got, cycle,
            "lane {l} ({lane:?}) diverges from the cycle engine"
        );
        assert_eq!(
            got, one_lane,
            "lane {l} ({lane:?}) diverges from a one-lane walk"
        );
        seen.push(cycle.outcome);
    }
    // The hand-written lanes cover what they claim.
    let x_fetch = LaneOutcome::Failed("ctl: X condition in state 'fetch'".to_string());
    assert_eq!(seen[2], LaneOutcome::Done, "flagged lane halts");
    assert_eq!(seen[0], LaneOutcome::Watchpoint("stop".to_string()));
    assert_eq!(seen[3], x_fetch, "X at the first fetch fails");
    assert_eq!(seen[4], x_fetch, "X mid-run fails");
    assert_ne!(seen[5], x_fetch, "an X condition that is never reached is harmless");
    assert_eq!(seen[6], x_fetch, "an X condition that is reached fails");
    assert_eq!(seen[9], LaneOutcome::CycleLimit, "the waiting lane never leaves");
}

/// A constant, a control unit stepping an SRAM through a read of an X
/// word, a write and a read back, and a signal that stays X.
fn record_netlist() -> Netlist {
    let mut nl = Netlist::new("record");
    for (name, width) in [
        ("clk", 1),
        ("k", 4),
        ("fo", 4),
        ("en", 1),
        ("we", 1),
        ("addr", 2),
        ("dout", 4),
        ("xa", 4),
        ("xs", 4),
    ] {
        nl.add_signal(name, width);
    }
    nl.add_instance(
        Instance::new("clock0", "clock")
            .with_param("period", 10)
            .with_conn("y", "clk"),
    );
    nl.add_instance(
        Instance::new("k0", "const")
            .with_param("width", 4)
            .with_param("value", 0b0101)
            .with_conn("y", "k"),
    );
    nl.add_instance(
        Instance::new("undriven", "and")
            .with_param("width", 4)
            .with_conn("a", "xa")
            .with_conn("b", "k")
            .with_conn("y", "xs"),
    );
    nl.add_instance(
        Instance::new("m0", "sram")
            .with_param("width", 4)
            .with_param("size", 4)
            .with_conn("clk", "clk")
            .with_conn("en", "en")
            .with_conn("we", "we")
            .with_conn("addr", "addr")
            .with_conn("din", "k")
            .with_conn("dout", "dout"),
    );
    nl
}

/// Outputs `(fo, en, we, addr)`: read word 1, write word 2, read word 2,
/// halt.
fn record_table() -> FsmTable {
    let step = |name: &str, outputs: [i64; 4], target: usize| FsmState {
        name: name.to_string(),
        outputs: outputs.into_iter().enumerate().collect(),
        transitions: vec![FsmTransition {
            condition: None,
            target,
        }],
        terminal: false,
    };
    let states = vec![
        step("read_x", [0b0011, 1, 0, 1], 1),
        step("write", [0b1100, 1, 1, 2], 2),
        step("read_back", [0b0011, 1, 0, 2], 3),
        FsmState {
            name: "halt".to_string(),
            outputs: vec![(0, 0b0011)],
            transitions: Vec::new(),
            terminal: true,
        },
    ];
    FsmTable::new(states, 0, 4).expect("table validates")
}

fn record_sim<const W: usize>(record: bool) -> BatchSim<W> {
    let mut sim = instance::<W>(&record_netlist(), |p| {
        p.add_control_unit(
            "ctl",
            &[],
            &[("fo", 4), ("en", 1), ("we", 1), ("addr", 2)],
            record_table(),
        )
    });
    if record {
        sim.enable_record();
    }
    sim
}

fn recorded_bits<const W: usize>(sim: &BatchSim<W>, name: &str) -> SignalBits {
    sim.recorded_signals()
        .find(|(signal, _)| *signal == name)
        .unwrap_or_else(|| panic!("'{name}' is recorded"))
        .1
}

fn recorded_words<const W: usize>(sim: &BatchSim<W>) -> Vec<FirstAccess> {
    let (_, words) = sim
        .recorded_accesses()
        .find(|(mem, _)| *mem == "m0")
        .expect("m0 is recorded");
    words.to_vec()
}

/// The walk record: constants count from construction and control-unit
/// outputs from registration, X sets neither mask, a read of an X word
/// is a read, untouched words stay untouched, and a read in the settle
/// comes before a write at the same cycle's edge.
#[test]
fn walk_record_notes_held_bits_and_first_accesses() {
    let bits = |width, ever0, ever1| SignalBits {
        width,
        ever0,
        ever1,
    };
    let mut sim = record_sim::<1>(true);
    assert_eq!(recorded_bits(&sim, "k"), bits(4, 0b1010, 0b0101));
    assert_eq!(recorded_bits(&sim, "fo"), bits(4, 0b1100, 0b0011));
    assert_eq!(recorded_bits(&sim, "xs"), bits(4, 0, 0));
    assert_eq!(recorded_words(&sim), vec![FirstAccess::Untouched; 4]);

    let summary = sim.run_batch(20);
    assert_eq!(summary.lanes[0].as_ref().map(|l| l.cycles), Some(3));
    assert_eq!(recorded_bits(&sim, "fo"), bits(4, 0b1111, 0b1111));
    assert_eq!(recorded_bits(&sim, "we"), bits(1, 1, 1));
    assert_eq!(recorded_bits(&sim, "xa"), bits(4, 0, 0), "X sets neither mask");
    assert_eq!(recorded_bits(&sim, "xs"), bits(4, 0, 0), "X sets neither mask");
    // The X word 1 read by the read port, the word 2 written before it is
    // read back; words 0 and 3 untouched.
    assert_eq!(sim.snapshot_mem("m0", 0).expect("m0")[1], None);
    assert_eq!(
        recorded_words(&sim),
        [
            FirstAccess::Untouched,
            FirstAccess::Read,
            FirstAccess::Write,
            FirstAccess::Untouched
        ]
    );

    // One port cannot read and write in one cycle, but two lanes can: with
    // lane 1's `we` stuck at 1, lane 1 writes word 1 at cycle 0's edge
    // while lane 0 reads it in cycle 0's settle. The read comes first.
    let mut two = record_sim::<2>(true);
    assert_eq!(two.inject_stuck_at_lane("we", 0, true, 1), Ok(true));
    two.run_batch(20);
    assert_eq!(two.snapshot_mem("m0", 1).expect("m0")[1], Some(0b0101));
    assert_eq!(recorded_words(&two)[1], FirstAccess::Read);

    // Without recording there is nothing to read back.
    let plain = record_sim::<1>(false);
    assert_eq!(plain.recorded_signals().count(), 0);
    assert_eq!(plain.recorded_accesses().count(), 0);
}

/// A walk feeds one instrument at most: turning one on replaces the
/// other, whose readers then read nothing.
#[test]
fn turning_on_one_instrument_replaces_the_other() {
    let mut profiled = record_sim::<1>(true);
    profiled.enable_profile();
    assert_eq!(profiled.recorded_signals().count(), 0);
    assert_eq!(profiled.recorded_accesses().count(), 0);
    profiled.run_batch(20);
    assert_eq!(profiled.profile().map(|profile| profile.walks), Some(3));

    let mut recorded = record_sim::<1>(false);
    recorded.enable_profile();
    recorded.enable_record();
    assert!(recorded.profile().is_none());
    recorded.run_batch(20);
    assert!(recorded.profile().is_none());
    assert_eq!(recorded_bits(&recorded, "fo").ever1, 0b1111);
}

/// Recording only observes: on the lane-parity netlist with its fault
/// plan, a recording walk gives the same cycles, evaluation counts,
/// outcomes, values and memories as a plain one, at one lane and at 64.
#[test]
fn recording_changes_no_result() {
    fn run<const W: usize>(record: bool) -> (Vec<LaneSnapshot>, u64) {
        let nl = build_netlist();
        let plan = fault_plan();
        let mut sim = ctl_instance::<W>(&nl);
        for lane in 0..W {
            inject_lane(&mut sim, plan.get(lane).copied().unwrap_or(Fault::None), lane);
        }
        if record {
            sim.enable_record();
        }
        let preload: Vec<Option<i64>> = PRELOAD.iter().copied().map(Some).collect();
        assert!(sim.load_mem_all("m0", &preload));
        let summary = sim.run_batch(MAX_CYCLES);
        let lanes = (0..W)
            .map(|lane| batch_snapshot(&sim, lane, summary.lanes[lane].as_ref().expect("active")))
            .collect();
        (lanes, sim.comb_evals())
    }
    assert_eq!(run::<1>(true), run::<1>(false));
    assert_eq!(run::<LANES>(true), run::<LANES>(false));
}

/// Words in the lone-lane design's `log` memory.
const LOG_WORDS: usize = 8;

/// The lone-lane design: a counter counts up to a per-lane limit read
/// from `limits`, logging `cnt ^ key` into `log` as it goes, then tests
/// bit 0 of the word in `aux` and halts. A lane with a high limit runs
/// long after the rest of the pack has finished, and a lane whose `aux`
/// word is X fails on its X condition at the end.
fn lone_netlist() -> Netlist {
    let mut nl = Netlist::new("lone");
    for (name, width) in [
        ("clk", 1),
        ("rst", 1),
        ("cnt", 16),
        ("nxt", 16),
        ("one", 16),
        ("zero", 16),
        ("seven", 16),
        ("key", 16),
        ("hi", 1),
        ("lo", 1),
        ("lim", 16),
        ("more", 1),
        ("auxw", 16),
        ("tail", 1),
        ("tag", 16),
        ("lowaddr", 16),
        ("inc", 1),
        ("wen", 1),
        ("logout", 16),
        ("unused", 16),
    ] {
        nl.add_signal(name, width);
    }
    nl.add_instance(
        Instance::new("clock0", "clock")
            .with_param("period", 10)
            .with_conn("y", "clk"),
    );
    nl.add_instance(Instance::new("reset0", "reset").with_conn("y", "rst"));
    for (name, width, value, y) in [
        ("c_one", 16, 1, "one"),
        ("c_zero", 16, 0, "zero"),
        ("c_seven", 16, 7, "seven"),
        ("c_key", 16, 0x5A, "key"),
        ("c_hi", 1, 1, "hi"),
        ("c_lo", 1, 0, "lo"),
    ] {
        nl.add_instance(
            Instance::new(name, "const")
                .with_param("width", width)
                .with_param("value", value)
                .with_conn("y", y),
        );
    }
    nl.add_instance(
        Instance::new("cnt0", "reg")
            .with_param("width", 16)
            .with_conn("clk", "clk")
            .with_conn("d", "nxt")
            .with_conn("q", "cnt")
            .with_conn("en", "inc")
            .with_conn("rst", "rst"),
    );
    for (name, kind, width, a, b, y) in [
        ("step", "add", 16, "cnt", "one", "nxt"),
        ("cmp", "lt", 16, "cnt", "lim", "more"),
        ("bit0", "and", 1, "auxw", "one", "tail"),
        ("tagger", "xor", 16, "cnt", "key", "tag"),
        ("lowa", "and", 16, "cnt", "seven", "lowaddr"),
    ] {
        nl.add_instance(
            Instance::new(name, kind)
                .with_param("width", width)
                .with_conn("a", a)
                .with_conn("b", b)
                .with_conn("y", y),
        );
    }
    for (name, size, we, addr, din, dout) in [
        ("limits", 2, "lo", "zero", "zero", "lim"),
        ("aux", 2, "lo", "zero", "zero", "auxw"),
        ("log", LOG_WORDS as i64, "wen", "lowaddr", "tag", "logout"),
    ] {
        nl.add_instance(
            Instance::new(name, "sram")
                .with_param("width", 16)
                .with_param("size", size)
                .with_conn("clk", "clk")
                .with_conn("en", "hi")
                .with_conn("we", we)
                .with_conn("addr", addr)
                .with_conn("din", din)
                .with_conn("dout", dout),
        );
    }
    nl
}

/// `boot` → `count` (while `more`, incrementing and logging) → `check`
/// (tests `tail`, so an X `aux` word fails here) → terminal `halt`.
fn lone_table() -> FsmTable {
    let states = vec![
        FsmState {
            name: "boot".to_string(),
            outputs: vec![],
            transitions: vec![FsmTransition {
                condition: None,
                target: 1,
            }],
            terminal: false,
        },
        FsmState {
            name: "count".to_string(),
            outputs: vec![(0, 1), (1, 1)],
            transitions: vec![
                FsmTransition {
                    condition: Some((0, true)),
                    target: 1,
                },
                FsmTransition {
                    condition: None,
                    target: 2,
                },
            ],
            terminal: false,
        },
        FsmState {
            name: "check".to_string(),
            outputs: vec![],
            transitions: vec![
                FsmTransition {
                    condition: Some((1, true)),
                    target: 3,
                },
                FsmTransition {
                    condition: None,
                    target: 3,
                },
            ],
            terminal: false,
        },
        FsmState {
            name: "halt".to_string(),
            outputs: vec![],
            transitions: vec![],
            terminal: true,
        },
    ];
    FsmTable::new(states, 2, 2).expect("table validates")
}

const LONE_PROBES: [&str; 9] = [
    "cnt", "nxt", "lim", "more", "tail", "tag", "lowaddr", "inc", "wen",
];

/// The lane that runs alone.
const LONE: usize = 37;

/// The lone lane's first budget ends while it runs alone; the second
/// lets it finish.
const LONE_BUDGETS: [u64; 2] = [120, 1000];

/// One lane of the lone-lane test: its limit, its `aux` word, and its
/// faults.
#[derive(Debug, Clone)]
struct LoneLane {
    limit: i64,
    aux: Option<i64>,
    faults: Vec<Fault>,
}

fn lone_lanes() -> Vec<LoneLane> {
    (0..LANES)
        .map(|l| match l {
            // Counts to 200 alone: a stuck-at on the logged tag, flips on
            // the counter in both budgets, then an X condition.
            LONE => LoneLane {
                limit: 200,
                aux: None,
                faults: vec![
                    Fault::Stuck("tag", 9, true),
                    Fault::Flip("cnt", 2, 100),
                    Fault::Flip("cnt", 0, 130),
                ],
            },
            // The same slot clamped the other way in another lane, and
            // an early flip: the lone lane must take only its own rows.
            3 => LoneLane {
                limit: 5,
                aux: Some(1),
                faults: vec![Fault::Stuck("tag", 9, false), Fault::Flip("cnt", 0, 2)],
            },
            _ => LoneLane {
                limit: 3 + (l % 7) as i64,
                aux: Some((l % 2) as i64),
                faults: Vec::new(),
            },
        })
        .collect()
}

/// The lone-lane design with `lanes` injected and loaded (lane `l` of
/// the engine gets `lanes[l]`).
fn lone_sim<const W: usize>(lanes: &[LoneLane]) -> BatchSim<W> {
    let mut sim = instance::<W>(&lone_netlist(), |p| {
        p.add_control_unit(
            "ctl",
            &["more", "tail"],
            &[("inc", 1), ("wen", 1)],
            lone_table(),
        )
    });
    for (l, lane) in lanes.iter().enumerate() {
        for &fault in &lane.faults {
            inject_lane(&mut sim, fault, l);
        }
        assert!(sim.load_mem("limits", l, &[Some(lane.limit), Some(0)]));
        assert!(sim.load_mem("aux", l, &[lane.aux, Some(0)]));
    }
    sim
}

/// Runs `lanes` through the lone-lane design with both budgets,
/// returning every lane's snapshot after each budget and the evaluation
/// count.
fn lone_batch<const W: usize>(
    lanes: &[LoneLane],
    profile: bool,
) -> (Vec<[LaneSnapshot; 2]>, u64, BatchSim<W>) {
    let mut sim = lone_sim::<W>(lanes);
    if profile {
        sim.enable_profile();
    }
    let mut snapshots: Vec<Vec<LaneSnapshot>> = vec![Vec::new(); lanes.len()];
    for budget in LONE_BUDGETS {
        let summary = sim.run_batch(budget);
        for (l, snaps) in snapshots.iter_mut().enumerate() {
            let result = summary.lanes[l].as_ref().expect("lane is active");
            snaps.push(LaneSnapshot {
                outcome: result.outcome.clone(),
                cycles: result.cycles,
                values: LONE_PROBES
                    .iter()
                    .map(|name| (name.to_string(), sim.value_lane(name, l)))
                    .collect(),
                mem: sim.snapshot_mem("log", l).expect("sram exists"),
            });
        }
    }
    let snapshots = snapshots
        .into_iter()
        .map(|s| s.try_into().expect("one snapshot per budget"))
        .collect();
    let evals = sim.comb_evals();
    (snapshots, evals, sim)
}

/// Runs one lone-lane configuration through a fresh cycle engine, with
/// both budgets; a lane that finished in the first keeps its outcome.
fn lone_cycle(lane: &LoneLane) -> [LaneSnapshot; 2] {
    let mut sim = CycleSim::from_netlist(&lone_netlist()).expect("netlist builds");
    sim.add_control_unit(
        "ctl",
        &["more", "tail"],
        &[("inc", 1), ("wen", 1)],
        lone_table(),
    )
    .expect("control unit attaches");
    for &fault in &lane.faults {
        let injected = match fault {
            Fault::None => Ok(true),
            Fault::Stuck(signal, bit, value) => sim.inject_stuck_at(signal, bit, value),
            Fault::Flip(signal, bit, cycle) => sim.inject_transient_flip(signal, bit, cycle),
        };
        assert!(injected.expect("injects"));
    }
    sim.mem("limits").expect("sram exists").fill([lane.limit, 0]);
    let aux = sim.mem("aux").expect("sram exists");
    aux.fill([0, 0]);
    match lane.aux {
        Some(word) => aux.store(0, word),
        None => aux.clear(0),
    }
    let mut finished: Option<LaneOutcome> = None;
    LONE_BUDGETS.map(|budget| {
        let (outcome, cycles) = match &finished {
            Some(outcome) => (outcome.clone(), 0),
            None => {
                let start = sim.cycles();
                match sim.run(budget) {
                    Ok(summary) => (
                        match summary.outcome {
                            CycleOutcome::Done => LaneOutcome::Done,
                            CycleOutcome::Watchpoint(name) => LaneOutcome::Watchpoint(name),
                            CycleOutcome::CycleLimit => LaneOutcome::CycleLimit,
                        },
                        summary.cycles,
                    ),
                    Err(CycleSimError::Failed(m)) => (LaneOutcome::Failed(m), sim.cycles() - start),
                    Err(e) => panic!("unexpected cycle-engine error: {e}"),
                }
            }
        };
        if outcome != LaneOutcome::CycleLimit {
            finished = Some(outcome.clone());
        }
        LaneSnapshot {
            outcome,
            cycles,
            values: LONE_PROBES
                .iter()
                .map(|name| (name.to_string(), sim.value(name)))
                .collect(),
            mem: sim.mem("log").expect("sram exists").snapshot(),
        }
    })
}

/// A pack whose one remaining lane runs alone for most of the run
/// finishes that lane one lane wide. The lone lane carries a stuck-at
/// clamp, transient flips after it was left alone, a budget that ends
/// while it runs alone (and a resumed run), and an X-condition failure
/// at its end. Every lane, after each budget, equals a fresh one-lane
/// run and a fresh cycle-engine run, and profiling changes no evaluation
/// count.
#[test]
fn a_lone_lane_finishes_like_a_fresh_one_lane_run() {
    let lanes = lone_lanes();
    let (batch, evals, _) = lone_batch::<LANES>(&lanes, false);

    for (l, (lane, got)) in lanes.iter().zip(&batch).enumerate() {
        let (one_lane, _, _) = lone_batch::<1>(std::slice::from_ref(lane), false);
        assert_eq!(got, &one_lane[0], "lane {l} ({lane:?}) diverges from a one-lane walk");
        assert_eq!(got, &lone_cycle(lane), "lane {l} ({lane:?}) diverges from the cycle engine");
    }
    // The scenario holds: the rest of the pack finishes early, the lone
    // lane outlives the first budget and fails on its X condition.
    for (l, [first, _]) in batch.iter().enumerate().filter(|(l, _)| *l != LONE) {
        assert_eq!(first.outcome, LaneOutcome::Done, "lane {l}");
        assert!(first.cycles < 20, "lane {l} ends early: {}", first.cycles);
    }
    let [first, second] = &batch[LONE];
    assert_eq!(first.outcome, LaneOutcome::CycleLimit);
    assert_eq!(first.cycles, LONE_BUDGETS[0]);
    assert_eq!(
        second.outcome,
        LaneOutcome::Failed("ctl: X condition in state 'check'".to_string())
    );
    assert!(second.cycles > 50, "the lone lane runs on: {}", second.cycles);

    // Profiling only observes, and the rank rows account for every
    // evaluation, across the narrowing and back.
    let (profiled, profiled_evals, sim) = lone_batch::<LANES>(&lanes, true);
    assert_eq!(profiled, batch);
    assert_eq!(profiled_evals, evals);
    let profile = sim.profile().expect("profiling enabled");
    let rank_evals: u64 = profile.ranks.iter().map(|row| row.evals).sum();
    assert_eq!(rank_evals, evals);
}

/// The walk record of a pack is the union of its lanes' own records, at
/// 64 lanes and across the lone lane's one-lane finish: each signal's
/// bits are the OR of every lane's one-lane record, and a memory word is
/// untouched in the pack exactly when no lane's walk touched it.
#[test]
fn a_packed_record_is_the_union_of_its_lanes_records() {
    /// Each signal's bits, and each memory's words as untouched or not.
    type Record = (BTreeMap<String, SignalBits>, BTreeMap<String, Vec<bool>>);
    fn recorded<const W: usize>(lanes: &[LoneLane]) -> Record {
        let mut sim = lone_sim::<W>(lanes);
        sim.enable_record();
        for budget in LONE_BUDGETS {
            sim.run_batch(budget);
        }
        let signals = sim
            .recorded_signals()
            .map(|(name, bits)| (name.to_string(), bits));
        let words = sim.recorded_accesses().map(|(mem, words)| {
            let untouched = words.iter().map(|&w| w == FirstAccess::Untouched);
            (mem.to_string(), untouched.collect())
        });
        (signals.collect(), words.collect())
    }
    let lanes = lone_lanes();
    let (pack_signals, pack_words) = recorded::<LANES>(&lanes);
    let (mut signals, mut words) = recorded::<1>(&lanes[..1]);
    for lane in &lanes[1..] {
        let (lane_signals, lane_words) = recorded::<1>(std::slice::from_ref(lane));
        for (name, bits) in lane_signals {
            let union = signals
                .get_mut(&name)
                .expect("every lane records every signal");
            union.ever0 |= bits.ever0;
            union.ever1 |= bits.ever1;
        }
        for (mem, lane_words) in lane_words {
            let union = words
                .get_mut(&mem)
                .expect("every lane records every memory");
            for (untouched, lane_untouched) in union.iter_mut().zip(lane_words) {
                *untouched &= lane_untouched;
            }
        }
    }
    assert_eq!((pack_signals.len(), pack_words.len()), (20, 3));
    assert_eq!(pack_signals, signals);
    assert_eq!(pack_words, words);
    // The scenario holds: only the lone lane counts past 127, which it
    // does one lane wide, and no lane reads the second `aux` word.
    assert_ne!(pack_signals["cnt"].ever1 & 0x80, 0);
    assert_eq!(pack_words["aux"], [false, true]);
}
