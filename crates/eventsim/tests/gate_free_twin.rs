//! Evaluation gates are invisible: seeded random netlists run the same
//! as built and as a twin whose registers declare no `eval_gate`.
//!
//! Each netlist holds a clock, a counter, comb operators with assorted
//! delays (some land their outputs exactly on clock edges), registers
//! gated by enables those operators compute, ungated and resettable
//! registers, and an SRAM. Both builds must agree on every traced
//! waveform, final value, memory word, per-run summary and activation
//! count, also when a run is split into several resumes.

use eventsim::ops::{BinOp, Clock, ConstDriver, Counter, OpKind, Register, ResetGen};
use eventsim::profile::EvalTimer;
use eventsim::{
    Component, Context, MemHandle, RunSummary, Sensitivity, SignalId, SimTime, Simulator, Sram,
    Value,
};

/// Forwards everything but `eval_gate`, which keeps its default `None`.
struct NoGate(Box<dyn Component>);

impl Component for NoGate {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn inputs(&self) -> Vec<Sensitivity> {
        self.0.inputs()
    }
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.0.init(ctx);
    }
    fn react(&mut self, ctx: &mut Context<'_>) {
        self.0.react(ctx);
    }
}

/// SplitMix64: a small deterministic generator for the netlist shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Operator delays, in ticks of a 10-tick clock whose edges fall at 5,
/// 15, …: 0 settles in later deltas of the edge's own instant, and 10
/// or 20 land a change on a later edge's instant.
const DELAYS: [u64; 6] = [0, 0, 3, 5, 10, 20];

struct Built {
    sim: Simulator,
    signals: Vec<SignalId>,
    mem: MemHandle,
}

fn build(seed: u64, twin: bool) -> Built {
    let mut rng = Rng(seed);
    let mut sim = Simulator::new();
    let mut signals = Vec::new();
    let mut signal = |sim: &mut Simulator, name: String, width: u32| {
        let id = sim.add_signal(name, width);
        sim.trace_signal(id);
        signals.push(id);
        id
    };
    let add_register = |sim: &mut Simulator, register: Register| {
        if twin {
            sim.add_component(NoGate(Box::new(register)));
        } else {
            sim.add_component(register);
        }
    };

    let clk = signal(&mut sim, "clk".into(), 1);
    let rst = signal(&mut sim, "rst".into(), 1);
    let count = signal(&mut sim, "count".into(), 8);
    sim.add_component(Clock::new("clk0", clk, 10));
    sim.add_component(ResetGen::new("rst0", rst, 12));
    sim.add_component(Counter::new("cnt0", clk, count));

    // Data and enables computed from the counter and from each other.
    let mut data = vec![count];
    for i in 0..4 {
        let k = signal(&mut sim, format!("k{i}"), 8);
        sim.add_component(ConstDriver::new(
            format!("kd{i}"),
            k,
            Value::known(8, rng.below(16) as i64),
        ));
        let y = signal(&mut sim, format!("d{i}"), 8);
        let a = rng.pick(&data);
        let kind = rng.pick(&[OpKind::Add, OpKind::Xor, OpKind::Sub, OpKind::And]);
        sim.add_component(
            BinOp::new(format!("op{i}"), kind, a, k, y, 8).with_delay(rng.pick(&DELAYS)),
        );
        data.push(y);
    }
    let mut enables = Vec::new();
    for i in 0..4 {
        let k = signal(&mut sim, format!("ek{i}"), 8);
        sim.add_component(ConstDriver::new(
            format!("ekd{i}"),
            k,
            Value::known(8, rng.below(8) as i64),
        ));
        let en = signal(&mut sim, format!("en{i}"), 1);
        let a = rng.pick(&data);
        let kind = rng.pick(&[OpKind::Lt, OpKind::Gt, OpKind::Eq, OpKind::Ne]);
        sim.add_component(
            BinOp::new(format!("cmp{i}"), kind, a, k, en, 1).with_delay(rng.pick(&DELAYS)),
        );
        enables.push(en);
    }

    // Registers: gated, ungated and resettable, some fed by each other.
    for i in 0..10 {
        let q = signal(&mut sim, format!("q{i}"), 8);
        let d = rng.pick(&data);
        let mut register = Register::new(format!("reg{i}"), clk, d, q, 8);
        match rng.below(4) {
            0 => {}
            1 => register = register.with_reset(rst).with_enable(rng.pick(&enables)),
            _ => register = register.with_enable(rng.pick(&enables)),
        }
        add_register(&mut sim, register);
        data.push(q);
    }

    // An SRAM written under one enable, addressed by the counter's low
    // bits, storing a value derived from the counter (never X).
    let seven = signal(&mut sim, "seven".into(), 8);
    sim.add_component(ConstDriver::new("seven_d", seven, Value::known(8, 7)));
    let addr = signal(&mut sim, "addr".into(), 8);
    sim.add_component(BinOp::new("addr_op", OpKind::And, count, seven, addr, 8));
    let din = signal(&mut sim, "din".into(), 8);
    sim.add_component(BinOp::new("din_op", OpKind::Add, count, seven, din, 8));
    let on = signal(&mut sim, "on".into(), 1);
    sim.add_component(ConstDriver::new("on_d", on, Value::bit(true)));
    let dout = signal(&mut sim, "dout".into(), 8);
    let mem = MemHandle::new("mem", 8, 8);
    let we = rng.pick(&enables);
    sim.add_component(Sram::new(
        "sram0",
        clk,
        on,
        we,
        addr,
        din,
        dout,
        mem.clone(),
    ));
    Built { sim, signals, mem }
}

/// A run summary minus its host wall-clock.
fn masked(summary: RunSummary) -> RunSummary {
    RunSummary {
        wall_seconds: 0.0,
        ..summary
    }
}

/// Runs one build through `limits` and returns everything observable,
/// plus the number of `react` calls the kernel actually made.
fn observe(built: &mut Built, limits: &[u64]) -> (String, u64) {
    let (timer, profile) = EvalTimer::new();
    built.sim.set_hook(Box::new(timer));
    let summaries: Vec<RunSummary> = limits
        .iter()
        .map(|&limit| masked(built.sim.run(SimTime(limit)).expect("no zero-delay loop")))
        .collect();
    let sim = &built.sim;
    let finals: Vec<Value> = built.signals.iter().map(|&s| sim.value(s)).collect();
    let total: u64 = sim.activation_counts().iter().sum();
    assert_eq!(total, sim.stats().evals, "activations lost or doubled");
    let dispatched = profile.lock().expect("profile lock").total_evals();
    let observed = format!(
        "summaries {summaries:?}\nstats {:?}\nactivations {:?}\nfinals {finals:?}\nmem {:?}\nchanges {:?}",
        sim.stats(),
        sim.activation_counts(),
        built.mem.snapshot(),
        sim.changes(),
    );
    (observed, dispatched)
}

#[test]
fn gated_and_gate_free_builds_are_indistinguishable() {
    let mut skipped = 0;
    for seed in 0..24u64 {
        let mut rng = Rng(seed ^ 0xD1CE);
        let mut limits = vec![400];
        for _ in 0..rng.below(4) {
            limits.push(rng.below(400));
        }
        limits.sort_unstable();
        let (gated, gated_dispatched) = observe(&mut build(seed, false), &limits);
        let (twin, twin_dispatched) = observe(&mut build(seed, true), &limits);
        assert_eq!(gated, twin, "seed {seed}, limits {limits:?}");
        assert!(gated_dispatched <= twin_dispatched);
        skipped += twin_dispatched - gated_dispatched;
    }
    assert!(skipped > 0, "no gated register was ever skipped");
}

#[test]
fn split_runs_match_one_run() {
    // Resuming does not change what a run computes: the same build run
    // to 400 in one call and in several agrees on all but the summaries.
    for seed in [3u64, 11, 17] {
        let mut whole = build(seed, false);
        let mut split = build(seed, false);
        whole.sim.run(SimTime(400)).expect("no zero-delay loop");
        for limit in [5, 5, 15, 99, 250, 400] {
            split.sim.run(SimTime(limit)).expect("no zero-delay loop");
        }
        assert_eq!(whole.sim.changes(), split.sim.changes(), "seed {seed}");
        assert_eq!(whole.sim.activation_counts(), split.sim.activation_counts());
        assert_eq!(whole.mem.snapshot(), split.mem.snapshot());
    }
}
