//! Hardware/software co-simulation (the paper's future-work extension):
//! a behavioral CPU and a compiler-generated accelerator in one event
//! kernel, coupled by shared SRAM and the `done` handshake.

use eventsim::cpu::{Cpu, CpuInstr};
use eventsim::{RunOutcome, SimTime};
use fpgatest::elaborate::ConfigParts;
use nenya::{compile, CompileOptions};

fn accel_parts(n: usize) -> ConfigParts {
    let source = format!(
        "mem inp[{n}]; mem out[{n}];
         void main() {{
             int i;
             for (i = 0; i < {n}; i = i + 1) {{ out[i] = inp[i] * 3 + 1; }}
         }}"
    );
    let design = compile("accel", &source, &CompileOptions::default()).expect("compiles");
    let config = &design.configs[0];
    let dp_doc = nenya::xml::emit_datapath(&config.datapath);
    let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
    ConfigParts::parse(&dp_doc, &fsm_doc).expect("parses")
}

#[test]
fn cpu_postprocesses_fabric_results_via_shared_memory() {
    let n = 8;
    let parts = accel_parts(n);
    let mut cs = parts.build(false, None).expect("elaborates");
    for addr in 0..n {
        cs.mems["inp"].store(addr, addr as i64);
    }
    let sum_port = cs.sim.add_signal("sum", 32);
    let program = vec![
        CpuInstr::WaitTrue(0),
        CpuInstr::Ldi(0),
        CpuInstr::SetX(0),
        CpuInstr::AddIdx,
        CpuInstr::AddX(1),
        CpuInstr::JmpIfXNe(n as i64, 3),
        CpuInstr::Out(0),
        CpuInstr::Halt,
    ];
    cs.sim.add_component(
        Cpu::new(
            "cpu0",
            cs.clk,
            program,
            cs.mems["out"].clone(),
            vec![cs.done],
            vec![(sum_port, 32)],
        )
        .with_stop_on_halt(true),
    );
    let summary = cs.sim.run(SimTime(10_000_000)).expect("runs");
    assert!(matches!(summary.outcome, RunOutcome::Stopped(ref m) if m.contains("halt")));
    let expected: i64 = (0..n as i64).map(|v| v * 3 + 1).sum();
    assert_eq!(cs.sim.value(sum_port).as_i64(), expected);
}

#[test]
fn cpu_waits_full_fabric_latency_before_reading() {
    // The CPU must see `done` only after the fabric finished; its halt
    // time therefore exceeds the fabric-only run time.
    let n = 8;
    let parts = accel_parts(n);

    // Fabric-only run time.
    let mut fabric_only = parts.build(true, None).unwrap();
    for addr in 0..n {
        fabric_only.mems["inp"].store(addr, 1);
    }
    let fabric_summary = fabric_only.sim.run(SimTime(10_000_000)).unwrap();
    let fabric_ticks = fabric_summary.end_time.ticks();

    // Co-sim run time.
    let mut cs = parts.build(false, None).unwrap();
    for addr in 0..n {
        cs.mems["inp"].store(addr, 1);
    }
    let port = cs.sim.add_signal("sum", 32);
    cs.sim.add_component(
        Cpu::new(
            "cpu0",
            cs.clk,
            vec![
                CpuInstr::WaitTrue(0),
                CpuInstr::LdMem(0),
                CpuInstr::Out(0),
                CpuInstr::Halt,
            ],
            cs.mems["out"].clone(),
            vec![cs.done],
            vec![(port, 32)],
        )
        .with_stop_on_halt(true),
    );
    let summary = cs.sim.run(SimTime(10_000_000)).unwrap();
    assert!(
        summary.end_time.ticks() > fabric_ticks,
        "cpu halted at {} but fabric needs {}",
        summary.end_time.ticks(),
        fabric_ticks
    );
    assert_eq!(cs.sim.value(port).as_i64(), 4); // out[0] = 1*3+1
}

#[test]
fn cpu_can_feed_inputs_then_read_outputs_across_two_fabric_runs() {
    // Software-in-the-loop across *reconfigurations*: run the fabric once,
    // let the CPU double the outputs back into the input SRAM (shared
    // handles), then run a fresh fabric instance on the new inputs.
    let n = 4;
    let parts = accel_parts(n);

    // First fabric pass.
    let mut pass1 = parts.build(true, None).unwrap();
    for addr in 0..n {
        pass1.mems["inp"].store(addr, addr as i64 + 1);
    }
    pass1.sim.run(SimTime(10_000_000)).unwrap();
    let intermediate: Vec<i64> = pass1.mems["out"]
        .snapshot()
        .into_iter()
        .map(|w| w.expect("written"))
        .collect();

    // Software step between configurations (the role the paper gives the
    // RTG controller, here done by the CPU model over shared memory).
    let mut pass2 = parts.build(true, None).unwrap();
    for (addr, &v) in intermediate.iter().enumerate() {
        pass2.mems["inp"].store(addr, v * 2);
    }
    pass2.sim.run(SimTime(10_000_000)).unwrap();
    for (addr, &v) in intermediate.iter().enumerate() {
        assert_eq!(pass2.mems["out"].load(addr), Some((v * 2) * 3 + 1));
    }
}
