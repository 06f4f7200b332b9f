//! Property tests over the simulation engines.
//!
//! The key invariant: the event-driven kernel, the naive cycle-based
//! baseline and the compiled bytecode are *independent implementations of
//! the same semantics*, so on any well-formed netlist they must settle to
//! identical values. The bytecode runs one lane wide (the level engine)
//! and [`LANES`] wide (the batch engine), every lane checked. This is the
//! in-repo analogue of cross-simulator validation.

use eventsim::batchsim::{BatchSim, LANES};
use eventsim::netlist::{Instance, Netlist};
use eventsim::ops::{eval_binop, OpKind};
use eventsim::{cyclesim::CycleSim, SimTime, Simulator, Value};
use proptest::prelude::*;

const WIDTH: u32 = 16;

fn arb_safe_kind() -> impl Strategy<Value = OpKind> {
    // div/rem excluded: zero denominators legitimately fail the run, which
    // is covered by dedicated unit tests.
    prop_oneof![
        Just(OpKind::Add),
        Just(OpKind::Sub),
        Just(OpKind::Mul),
        Just(OpKind::And),
        Just(OpKind::Or),
        Just(OpKind::Xor),
        Just(OpKind::Shl),
        Just(OpKind::Shr),
        Just(OpKind::Ushr),
        Just(OpKind::Eq),
        Just(OpKind::Ne),
        Just(OpKind::Lt),
        Just(OpKind::Le),
        Just(OpKind::Gt),
        Just(OpKind::Ge),
    ]
}

/// A random combinational DAG: `n_consts` constant leaves followed by
/// binary nodes whose operands are uniformly chosen among earlier nets.
#[derive(Debug, Clone)]
struct RandomDag {
    consts: Vec<i64>,
    nodes: Vec<(OpKind, usize, usize)>,
}

fn arb_dag() -> impl Strategy<Value = RandomDag> {
    (
        proptest::collection::vec(-1000i64..1000, 1..6),
        proptest::collection::vec((arb_safe_kind(), any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..24),
    )
        .prop_map(|(consts, raw_nodes)| {
            let mut nodes = Vec::new();
            for (kind, ia, ib) in raw_nodes {
                let available = consts.len() + nodes.len();
                nodes.push((kind, ia.index(available), ib.index(available)));
            }
            RandomDag { consts, nodes }
        })
}

fn dag_to_netlist(dag: &RandomDag) -> Netlist {
    let mut nl = Netlist::new("dag");
    for i in 0..dag.consts.len() + dag.nodes.len() {
        // Comparison nodes produce 1-bit nets.
        let width = if i >= dag.consts.len() && dag.nodes[i - dag.consts.len()].0.is_comparison() {
            1
        } else {
            WIDTH
        };
        nl.add_signal(format!("n{i}"), width);
    }
    for (i, value) in dag.consts.iter().enumerate() {
        nl.add_instance(
            Instance::new(format!("c{i}"), "const")
                .with_param("width", WIDTH)
                .with_param("value", *value)
                .with_conn("y", format!("n{i}")),
        );
    }
    for (i, (kind, a, b)) in dag.nodes.iter().enumerate() {
        let out = dag.consts.len() + i;
        nl.add_instance(
            Instance::new(format!("op{i}"), kind.name())
                .with_param("width", WIDTH)
                .with_conn("a", format!("n{a}"))
                .with_conn("b", format!("n{b}"))
                .with_conn("y", format!("n{out}")),
        );
    }
    nl
}

/// Reference evaluation of the DAG with plain host arithmetic.
fn dag_reference(dag: &RandomDag) -> Vec<i64> {
    let mut values: Vec<i64> = dag
        .consts
        .iter()
        .map(|&v| Value::known(WIDTH, v).as_i64())
        .collect();
    for (kind, a, b) in &dag.nodes {
        let v = eval_binop(*kind, values[*a], values[*b], WIDTH)
            .expect("no div/rem in safe kinds")
            .as_i64();
        values.push(v);
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Event kernel result == cycle baseline result == bytecode result
    /// (one lane and every one of [`LANES`] lanes) == host arithmetic, on
    /// every net of a random combinational DAG.
    #[test]
    fn engines_agree_on_combinational_dags(dag in arb_dag()) {
        let nl = dag_to_netlist(&dag);
        let reference = dag_reference(&dag);

        let mut sim = Simulator::new();
        let map = nl.elaborate(&mut sim).unwrap();
        let summary = sim.run(SimTime(1000)).unwrap();
        prop_assert!(summary.outcome.is_ok());

        let mut cyc = CycleSim::from_netlist(&nl).unwrap();
        cyc.step().unwrap();
        let mut level = BatchSim::<1>::from_netlist(&nl).unwrap();
        level.run(1).unwrap();
        let mut batch = BatchSim::<LANES>::from_netlist(&nl).unwrap();
        batch.run(1).unwrap();

        for (i, &expected) in reference.iter().enumerate() {
            let name = format!("n{i}");
            let ev = sim.value(map.signal(&name).unwrap());
            let cv = cyc.value(&name).unwrap();
            let lv = level.value(&name).unwrap();
            prop_assert_eq!(ev.as_i64(), expected, "event kernel, net {}", &name);
            prop_assert_eq!(cv.as_i64(), expected, "cycle baseline, net {}", &name);
            prop_assert_eq!(lv.as_i64(), expected, "one-lane bytecode, net {}", &name);
            for lane in 0..LANES {
                let bv = batch.value_lane(&name, lane).unwrap();
                prop_assert_eq!(bv.as_i64(), expected, "batch lane {}, net {}", lane, &name);
            }
        }
    }

    /// Re-running the same netlist produces identical event statistics —
    /// the kernel is deterministic.
    #[test]
    fn kernel_is_deterministic(dag in arb_dag()) {
        let nl = dag_to_netlist(&dag);
        let mut results = Vec::new();
        for _ in 0..2 {
            let mut sim = Simulator::new();
            nl.elaborate(&mut sim).unwrap();
            let summary = sim.run(SimTime(1000)).unwrap();
            results.push((summary.events, summary.updates, summary.evals));
        }
        prop_assert_eq!(results[0], results[1]);
    }

    /// eval_binop commutes for commutative operators.
    #[test]
    fn commutative_ops_commute(a in -5000i64..5000, b in -5000i64..5000) {
        for kind in [OpKind::Add, OpKind::Mul, OpKind::And, OpKind::Or, OpKind::Xor, OpKind::Eq, OpKind::Ne] {
            let ab = eval_binop(kind, a, b, WIDTH).unwrap();
            let ba = eval_binop(kind, b, a, WIDTH).unwrap();
            prop_assert_eq!(ab, ba, "{}", kind);
        }
    }

    /// Values survive a round trip through their own accessors.
    #[test]
    fn value_roundtrip(raw in any::<i64>(), width in 1u32..=64) {
        let v = Value::known(width, raw);
        prop_assert_eq!(Value::known(width, v.as_i64()), v);
        prop_assert_eq!(v.as_u64(), (raw as u64) & eventsim::mask(width));
    }

    /// Comparison operators are consistent with host comparison.
    #[test]
    fn comparisons_match_host(a in -100i64..100, b in -100i64..100) {
        let cases = [
            (OpKind::Lt, a < b),
            (OpKind::Le, a <= b),
            (OpKind::Gt, a > b),
            (OpKind::Ge, a >= b),
            (OpKind::Eq, a == b),
            (OpKind::Ne, a != b),
        ];
        for (kind, expect) in cases {
            let v = eval_binop(kind, a, b, WIDTH).unwrap();
            prop_assert_eq!(v.is_true(), expect, "{} {} {}", a, kind, b);
        }
    }
}

/// A random *sequential* netlist: constant leaves, combinational binary
/// nodes, and a register after every K-th node — a synchronous pipeline
/// with feedback-free structure clocked for a fixed number of cycles.
#[derive(Debug, Clone)]
struct RandomSeqDesign {
    dag: RandomDag,
    registered: Vec<bool>,
    cycles: u8,
}

fn arb_seq_design() -> impl Strategy<Value = RandomSeqDesign> {
    (
        arb_dag(),
        proptest::collection::vec(any::<bool>(), 24),
        1u8..6,
    )
        .prop_map(|(dag, registered, cycles)| RandomSeqDesign {
            dag,
            registered,
            cycles,
        })
}

fn seq_to_netlist(design: &RandomSeqDesign) -> Netlist {
    let mut nl = dag_to_netlist(&design.dag);
    nl.add_signal("clk", 1);
    nl.add_instance(Instance::new("clock0", "clock").with_param("period", 10).with_conn("y", "clk"));
    // Registered taps: one register per selected node, q exported.
    for (i, _) in design.dag.nodes.iter().enumerate() {
        if !design.registered.get(i).copied().unwrap_or(false) {
            continue;
        }
        let node_signal = format!("n{}", design.dag.consts.len() + i);
        let is_cmp = design.dag.nodes[i].0.is_comparison();
        let width = if is_cmp { 1 } else { WIDTH };
        let q = format!("q{i}");
        nl.add_signal(&q, width);
        nl.add_instance(
            Instance::new(format!("r{i}"), "reg")
                .with_param("width", width)
                .with_conn("clk", "clk")
                .with_conn("d", node_signal)
                .with_conn("q", &q),
        );
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clocked designs: every engine agrees on every register output
    /// after the same number of rising edges.
    #[test]
    fn engines_agree_on_sequential_designs(design in arb_seq_design()) {
        let nl = seq_to_netlist(&design);
        let cycles = design.cycles as u64;

        let mut sim = Simulator::new();
        let map = nl.elaborate(&mut sim).unwrap();
        // Rising edges at t = 5, 15, 25, …: run until just after edge
        // number `cycles`.
        sim.run(SimTime(5 + 10 * (cycles - 1) + 2)).unwrap();

        let mut cyc = CycleSim::from_netlist(&nl).unwrap();
        for _ in 0..cycles {
            cyc.step().unwrap();
        }
        let mut level = BatchSim::<1>::from_netlist(&nl).unwrap();
        prop_assert_eq!(level.run(cycles).unwrap().cycles, cycles);
        let mut batch = BatchSim::<LANES>::from_netlist(&nl).unwrap();
        prop_assert_eq!(batch.run(cycles).unwrap().cycles, cycles);

        for (i, _) in design.dag.nodes.iter().enumerate() {
            if !design.registered.get(i).copied().unwrap_or(false) {
                continue;
            }
            let name = format!("q{i}");
            let ev = sim.value(map.signal(&name).unwrap()).try_i64();
            let cv = cyc.value(&name).unwrap().try_i64();
            let lv = level.value(&name).unwrap().try_i64();
            prop_assert_eq!(ev, cv, "register {} after {} cycles", &name, cycles);
            prop_assert_eq!(lv, cv, "one-lane bytecode, register {} after {} cycles", &name, cycles);
            for lane in 0..LANES {
                let bv = batch.value_lane(&name, lane).unwrap().try_i64();
                prop_assert_eq!(bv, cv, "batch lane {}, register {} after {} cycles", lane, &name, cycles);
            }
        }
    }
}
