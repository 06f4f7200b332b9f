//! Ablation **A3** (DESIGN.md): the event-driven kernel vs the naive
//! evaluate-everything-per-cycle baseline on the *same* design. The paper
//! motivates software event-driven simulation by speed ("RTL simulation
//! based on software languages can be faster than commercial HDL
//! simulators"); the cycle sweeper stands in for the slow comparator and
//! additionally cross-checks results word for word.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eventsim::cyclesim::{CycleOutcome, CycleSim};
use eventsim::{RunOutcome, SimTime};
use fpgatest::elaborate::ConfigParts;
use fpgatest::workloads;
use nenya::{compile, CompileOptions};
use std::hint::black_box;

struct Prepared {
    parts: ConfigParts,
    image: Vec<i64>,
}

fn prepare(pixels: usize) -> Prepared {
    let design = compile(
        "fdct1",
        &workloads::fdct_source(pixels),
        &CompileOptions {
            width: 32,
            ..CompileOptions::default()
        },
    )
    .expect("fdct compiles");
    let config = &design.configs[0];
    let dp_doc = nenya::xml::emit_datapath(&config.datapath);
    let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
    Prepared {
        parts: ConfigParts::parse(&dp_doc, &fsm_doc).expect("configuration parses"),
        image: workloads::test_image(pixels),
    }
}

/// Runs the design on the event kernel; returns the output image.
fn run_event(p: &Prepared) -> Vec<Option<i64>> {
    let mut cs = p.parts.build(true, None).expect("elaborates");
    for (addr, &v) in p.image.iter().enumerate() {
        cs.mems["img"].store(addr, v);
    }
    let summary = cs.sim.run(SimTime(u64::MAX / 4)).expect("no kernel error");
    assert!(matches!(summary.outcome, RunOutcome::Stopped(_)));
    cs.mems["out"].snapshot()
}

/// Runs the same design on the cycle sweeper; returns the output image.
fn run_cycle(p: &Prepared) -> Vec<Option<i64>> {
    let mut sim = CycleSim::from_netlist(&p.parts.netlist).expect("cycle model builds");
    p.parts
        .attach(|n, c, o, t| sim.add_control_unit(n, c, o, t))
        .expect("control unit binds");
    for (addr, &v) in p.image.iter().enumerate() {
        sim.mem("img").expect("img").store(addr, v);
    }
    let summary = sim.run(50_000_000).expect("cycle run");
    assert_eq!(summary.outcome, CycleOutcome::Done);
    sim.mem("out").expect("out").snapshot()
}

fn ablation_kernel(c: &mut Criterion) {
    let prepared = prepare(128);

    // Cross-check once: both engines must agree word for word.
    let ev = run_event(&prepared);
    let cy = run_cycle(&prepared);
    assert_eq!(ev, cy, "engines disagree on the FDCT output image");

    let mut group = c.benchmark_group("ablation_kernel");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("event_kernel", "fdct1_128px"), |b| {
        b.iter(|| black_box(run_event(&prepared)));
    });
    group.bench_function(BenchmarkId::new("cycle_baseline", "fdct1_128px"), |b| {
        b.iter(|| black_box(run_cycle(&prepared)));
    });
    group.finish();
}

criterion_group!(benches, ablation_kernel);
criterion_main!(benches);
