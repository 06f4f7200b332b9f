//! Unit tests of the level engine (`--engine level`), which runs the
//! compiled bytecode one lane wide: [`BatchSim<1>`](crate::batchsim::BatchSim).

#[cfg(test)]
mod tests {
    use crate::batchsim::{BatchProgram, BatchSim};
    use crate::cyclesim::{CycleSim, CycleSimError};
    use crate::netlist::{Instance, Netlist};
    use crate::ops::{FsmState, FsmTable, FsmTransition};
    use std::sync::Arc;

    /// The level engine: the bytecode walked one lane wide.
    type Level = BatchSim<1>;

    /// A level instance of `nl` with one control unit attached to its
    /// program, the way the flow builds every level walk.
    fn with_control_unit(
        nl: &Netlist,
        name: &str,
        outputs: &[(&str, u32)],
        table: FsmTable,
    ) -> Level {
        let mut program = BatchProgram::compile(nl).unwrap();
        program.add_control_unit(name, &[], outputs, table).unwrap();
        Level::new(Arc::new(program))
    }

    /// One clock cycle.
    fn step(sim: &mut Level) {
        sim.run(1).unwrap();
    }

    fn pipeline_netlist() -> Netlist {
        let mut nl = Netlist::new("pipe");
        nl.add_signal("clk", 1);
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("sum", 8);
        nl.add_signal("q1", 8);
        nl.add_signal("q2", 8);
        nl.add_instance(Instance::new("clock0", "clock").with_conn("y", "clk"));
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 3).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("cb", "const")
                .with_param("width", 8).with_param("value", 4).with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("add0", "add").with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "b").with_conn("y", "sum"),
        );
        nl.add_instance(
            Instance::new("r1", "reg").with_param("width", 8)
                .with_conn("clk", "clk").with_conn("d", "sum").with_conn("q", "q1"),
        );
        nl.add_instance(
            Instance::new("r2", "reg").with_param("width", 8)
                .with_conn("clk", "clk").with_conn("d", "q1").with_conn("q", "q2"),
        );
        nl
    }

    #[test]
    fn matches_cycle_sim_on_a_pipeline() {
        let nl = pipeline_netlist();
        let mut level = Level::from_netlist(&nl).unwrap();
        let mut cycle = CycleSim::from_netlist(&nl).unwrap();
        for _ in 0..4 {
            step(&mut level);
            cycle.step().unwrap();
            for sig in ["sum", "q1", "q2"] {
                assert_eq!(level.value(sig), cycle.value(sig), "signal {sig}");
            }
        }
        assert_eq!(level.value("q2").unwrap().as_u64(), 7);
    }

    #[test]
    fn quiescent_netlist_skips_evaluation() {
        let nl = pipeline_netlist();
        let mut level = Level::from_netlist(&nl).unwrap();
        step(&mut level);
        let after_first = level.comb_evals();
        for _ in 0..10 {
            step(&mut level);
        }
        // Constants never change, so the adder settles after the first
        // cycle and is never re-evaluated.
        assert_eq!(level.comb_evals(), after_first, "quiescent region skipped");
    }

    #[test]
    fn ranks_respect_dependencies() {
        let mut nl = Netlist::new("chain");
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("c", 8);
        nl.add_signal("d", 8);
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 1).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("inc1", "add").with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "a").with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("inc2", "add").with_param("width", 8)
                .with_conn("a", "b").with_conn("b", "a").with_conn("y", "c"),
        );
        nl.add_instance(
            Instance::new("inc3", "add").with_param("width", 8)
                .with_conn("a", "c").with_conn("b", "b").with_conn("y", "d"),
        );
        let program = BatchProgram::compile(&nl).unwrap();
        assert_eq!(program.rank_count(), 3);
        for entry in program.rank_table() {
            for (source, source_rank) in &entry.sources {
                assert!(
                    entry.rank > *source_rank,
                    "{} (rank {}) must outrank source {} (rank {})",
                    entry.instance, entry.rank, source, source_rank
                );
            }
        }
    }

    #[test]
    fn combinational_cycle_reported_at_build_time() {
        // a -> inc -> b -> dec -> a: a true combinational loop.
        let mut nl = Netlist::new("loopy");
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("one", 8);
        nl.add_instance(
            Instance::new("c1", "const")
                .with_param("width", 8).with_param("value", 1).with_conn("y", "one"),
        );
        nl.add_instance(
            Instance::new("inc", "add").with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "one").with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("dec", "sub").with_param("width", 8)
                .with_conn("a", "b").with_conn("b", "one").with_conn("y", "a"),
        );
        match Level::from_netlist(&nl).map(|_| ()) {
            Err(CycleSimError::CombinationalCycle { instances }) => {
                assert_eq!(instances.len(), 2);
                assert!(instances.contains(&"inc".to_string()));
                assert!(instances.contains(&"dec".to_string()));
            }
            other => panic!("expected CombinationalCycle, got {other:?}"),
        }
    }

    #[test]
    fn fsm_and_watchpoint_semantics_match_cycle_sim() {
        let mut nl = Netlist::new("f");
        nl.add_signal("ctl", 8);
        let table = || {
            FsmTable::new(
                vec![
                    FsmState {
                        name: "s0".into(),
                        outputs: vec![(0, 5)],
                        transitions: vec![FsmTransition { condition: None, target: 1 }],
                        terminal: false,
                    },
                    FsmState { name: "end".into(), terminal: true, ..Default::default() },
                ],
                0,
                1,
            )
            .unwrap()
        };
        let mut level = with_control_unit(&nl, "fsm0", &[("ctl", 8)], table());
        let mut cycle = CycleSim::from_netlist(&nl).unwrap();
        cycle.add_control_unit("fsm0", &[], &[("ctl", 8)], table()).unwrap();
        let l = level.run(100).unwrap();
        let c = cycle.run(100).unwrap();
        assert_eq!(l.outcome, c.outcome);
        assert_eq!(l.cycles, c.cycles);
        assert_eq!(level.value("ctl"), cycle.value("ctl"));
    }

    #[test]
    fn sram_write_redirties_read_path() {
        // Writes at a fixed address must show up on dout once we is
        // deasserted — even though no *signal* feeding the read changed
        // while the memory contents did.
        let mut nl = Netlist::new("m");
        for (sig, w) in [
            ("clk", 1), ("en", 1), ("we", 1), ("addr", 8), ("din", 8), ("dout", 8),
        ] {
            nl.add_signal(sig, w);
        }
        nl.add_instance(Instance::new("clock0", "clock").with_conn("y", "clk"));
        nl.add_instance(
            Instance::new("m0", "sram")
                .with_param("width", 8).with_param("size", 4)
                .with_conn("clk", "clk").with_conn("en", "en").with_conn("we", "we")
                .with_conn("addr", "addr").with_conn("din", "din").with_conn("dout", "dout"),
        );
        // en/we/addr/din come from an FSM so we can change phases.
        let table = FsmTable::new(
            vec![
                FsmState {
                    name: "write".into(),
                    outputs: vec![(0, 1), (1, 1), (2, 2), (3, 0x55)],
                    transitions: vec![FsmTransition { condition: None, target: 1 }],
                    terminal: false,
                },
                FsmState {
                    name: "read".into(),
                    outputs: vec![(0, 1), (1, 0), (2, 2), (3, 0)],
                    transitions: vec![FsmTransition { condition: None, target: 2 }],
                    terminal: false,
                },
                FsmState { name: "end".into(), terminal: true, ..Default::default() },
            ],
            0,
            4,
        )
        .unwrap();
        let mut level = with_control_unit(
            &nl,
            "ctl0",
            &[("en", 1), ("we", 1), ("addr", 8), ("din", 8)],
            table,
        );
        step(&mut level); // write commits 0x55 @ 2, FSM moves to "read"
        assert_eq!(level.snapshot_mem("m0", 0).unwrap()[2], Some(0x55));
        step(&mut level); // read phase settles with we = 0
        assert_eq!(level.value("dout").unwrap().as_u64(), 0x55);
    }
}
