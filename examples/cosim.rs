//! Hardware/software co-simulation — the paper's stated *future work*:
//! "functional simulation of a microprocessor tightly coupled to
//! reconfigurable hardware components".
//!
//! One event kernel runs both sides on the same clock:
//!
//! * the **fabric**: a compiler-generated accelerator (datapath + FSM)
//!   that squares every word of an input SRAM;
//! * the **processor**: a behavioral CPU ([`eventsim::cpu::Cpu`]) that
//!   shares the accelerator's output SRAM, polls the fabric's `done`
//!   flag, then post-processes the results in software (a checksum).
//!
//! Run with: `cargo run --example cosim`

use eventsim::cpu::{Cpu, CpuInstr};
use eventsim::{RunOutcome, SimTime};
use fpgatest::elaborate::ConfigParts;
use nenya::{compile, CompileOptions};

const N: usize = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The accelerator, straight from the compiler under test.
    let source = format!(
        "mem inp[{N}]; mem out[{N}];
         void main() {{
             int i;
             for (i = 0; i < {N}; i = i + 1) {{ out[i] = inp[i] * inp[i]; }}
         }}"
    );
    let design = compile("square_accel", &source, &CompileOptions::default())?;
    let config = &design.configs[0];
    let dp_doc = nenya::xml::emit_datapath(&config.datapath);
    let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
    // stop_when_done = false: the CPU, not the fabric, ends this run.
    let mut cs = ConfigParts::parse(&dp_doc, &fsm_doc)?.build(false, None)?;

    // Stimulus for the fabric.
    let inputs: Vec<i64> = (0..N as i64).map(|i| i + 1).collect();
    for (addr, &v) in inputs.iter().enumerate() {
        cs.mems["inp"].store(addr, v);
    }

    // The processor: waits for `done`, then sums the shared output SRAM
    // and reports the checksum on a port. The output SRAM handle is the
    // *same storage* the fabric writes — shared-memory coupling.
    let checksum_port = cs.sim.add_signal("checksum", 32);
    let program = vec![
        CpuInstr::WaitTrue(0), // poll the fabric's done flag
        CpuInstr::Ldi(0),
        CpuInstr::SetX(0),
        CpuInstr::AddIdx, // 3: acc += out[x]
        CpuInstr::AddX(1),
        CpuInstr::JmpIfXNe(N as i64, 3),
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
            vec![(checksum_port, 32)],
        )
        .with_stop_on_halt(true),
    );

    let summary = cs.sim.run(SimTime(10_000_000))?;
    println!("outcome: {:?}", summary.outcome);

    let expected: i64 = inputs.iter().map(|v| v * v).sum();
    let got = cs.sim.value(checksum_port).as_i64();
    println!("fabric squared {N} words; cpu checksum = {got} (expected {expected})");
    println!(
        "co-simulation: {} kernel events, fabric+cpu on one clock, {} ticks",
        summary.events,
        summary.end_time.ticks()
    );

    assert_eq!(got, expected);
    assert!(matches!(summary.outcome, RunOutcome::Stopped(_)));
    Ok(())
}
