//! State assignment: mapping TAC instructions onto control-FSM states.
//!
//! The FSMD timing model: every temp lives in a register that latches on
//! the clock edge ending the state that issues its defining instruction.
//! Within one state, reads observe *pre-edge* register values, so the
//! scheduler enforces:
//!
//! * **RAW** — an instruction may not read a temp written in its own state;
//! * **WAW** — two instructions may not write the same temp in one state
//!   (one register, one latch per edge);
//! * **memory port** — at most one access per (single-port) SRAM per state;
//! * **branch timing** — a branch tests a condition *register*, so the
//!   condition must be latched before the state whose edge takes the
//!   branch; if it is computed in a block's final state, an extra state is
//!   appended.
//!
//! Two policies implement the ablation of DESIGN.md experiment A1:
//! [`SchedulePolicy::OneOpPerState`] (the naive baseline) and
//! [`SchedulePolicy::List`] (greedy packing under the rules above).

use crate::tac::{Instr, TacProgram, Temp};
use std::collections::HashSet;
use std::fmt;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// One instruction per state: maximal states, trivially hazard-free.
    OneOpPerState,
    /// Greedy list scheduling: pack independent instructions into the same
    /// state (the compiler "optimization technique" whose effect the test
    /// infrastructure is meant to re-verify).
    #[default]
    List,
}

impl SchedulePolicy {
    /// The policy's word, as manifests, flags and the serve protocol
    /// spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedulePolicy::OneOpPerState => "one-op-per-state",
            SchedulePolicy::List => "list",
        }
    }
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SchedulePolicy {
    type Err = String;

    /// Parses the words [`SchedulePolicy::as_str`] writes.
    fn from_str(word: &str) -> Result<Self, Self::Err> {
        match word {
            "list" => Ok(SchedulePolicy::List),
            "one-op-per-state" => Ok(SchedulePolicy::OneOpPerState),
            other => Err(format!(
                "unknown policy '{other}' (want list|one-op-per-state)"
            )),
        }
    }
}

/// How control leaves a state at its ending clock edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// Unconditionally to another state.
    Goto(usize),
    /// Two-way branch on a condition register.
    Branch {
        /// The 1-bit condition temp (read as a register output).
        cond: Temp,
        /// State when the condition is true.
        if_true: usize,
        /// State when the condition is false.
        if_false: usize,
    },
    /// Computation complete (enter the terminal FSM state).
    Done,
}

/// One control state: the instructions issued during it and its exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledState {
    /// Indices into [`TacProgram::instrs`] of non-terminator instructions
    /// issued (and latched at the ending edge) in this state.
    pub ops: Vec<usize>,
    /// Where control goes at the ending edge.
    pub exit: Exit,
}

/// A complete schedule: state 0 is the initial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Policy used to build the schedule.
    pub policy: SchedulePolicy,
    /// The control states.
    pub states: Vec<ScheduledState>,
}

impl Schedule {
    /// Number of control states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Average instructions issued per state (the packing factor the list
    /// scheduler buys).
    pub fn ops_per_state(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        let ops: usize = self.states.iter().map(|s| s.ops.len()).sum();
        ops as f64 / self.states.len() as f64
    }

    /// Checks the hazard rules documented on the module.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self, prog: &TacProgram) -> Result<(), String> {
        for (index, state) in self.states.iter().enumerate() {
            let mut written: HashSet<Temp> = HashSet::new();
            let mut mems_used: HashSet<usize> = HashSet::new();
            for &op in &state.ops {
                let instr = &prog.instrs[op];
                if instr.is_terminator() {
                    return Err(format!("state {index} issues terminator instruction {op}"));
                }
                for src in instr.sources() {
                    if written.contains(&src) {
                        return Err(format!(
                            "state {index}: RAW hazard on {src} at instruction {op}"
                        ));
                    }
                }
                if let Some(dst) = instr.dst() {
                    if !written.insert(dst) {
                        return Err(format!(
                            "state {index}: WAW hazard on {dst} at instruction {op}"
                        ));
                    }
                }
                if let Some(mem) = instr.mem() {
                    if !mems_used.insert(mem) {
                        return Err(format!(
                            "state {index}: memory port conflict on '{}'",
                            prog.mems[mem].name
                        ));
                    }
                }
            }
            match &state.exit {
                Exit::Goto(t) => {
                    if *t >= self.states.len() {
                        return Err(format!("state {index} exits to missing state {t}"));
                    }
                }
                Exit::Branch {
                    cond,
                    if_true,
                    if_false,
                } => {
                    for t in [if_true, if_false] {
                        if *t >= self.states.len() {
                            return Err(format!("state {index} branches to missing state {t}"));
                        }
                    }
                    if written.contains(cond) {
                        return Err(format!(
                            "state {index}: branch tests {cond} written in the same state"
                        ));
                    }
                    if prog.temp_width(*cond) != 1 {
                        return Err(format!("state {index}: branch condition {cond} is not 1-bit"));
                    }
                }
                Exit::Done => {}
            }
        }
        Ok(())
    }
}

/// Builds a schedule for `prog` under `policy`.
///
/// # Panics
///
/// Panics when `prog` fails [`TacProgram::validate`] — callers lower
/// through this crate, which always produces valid programs.
pub fn schedule(prog: &TacProgram, policy: SchedulePolicy) -> Schedule {
    prog.validate().expect("schedule input must be valid TAC");

    // Basic blocks: leaders are instruction 0, every jump/branch target,
    // and every instruction after a terminator.
    let mut leaders = vec![false; prog.instrs.len()];
    leaders[0] = true;
    for (i, instr) in prog.instrs.iter().enumerate() {
        match instr {
            Instr::Jump { target } => {
                leaders[*target] = true;
                if i + 1 < prog.instrs.len() {
                    leaders[i + 1] = true;
                }
            }
            Instr::Branch {
                if_true, if_false, ..
            } => {
                leaders[*if_true] = true;
                leaders[*if_false] = true;
                if i + 1 < prog.instrs.len() {
                    leaders[i + 1] = true;
                }
            }
            Instr::Halt
                if i + 1 < prog.instrs.len() => {
                    leaders[i + 1] = true;
                }
            _ => {}
        }
    }
    let block_starts: Vec<usize> = (0..prog.instrs.len()).filter(|&i| leaders[i]).collect();
    let block_of = |instr: usize| -> usize {
        match block_starts.binary_search(&instr) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    };

    // Group each block's straight-line instructions into states.
    struct BlockPlan {
        groups: Vec<Vec<usize>>,
        terminator: Option<usize>,
    }
    let mut plans = Vec::with_capacity(block_starts.len());
    for (b, &start) in block_starts.iter().enumerate() {
        let end = block_starts
            .get(b + 1)
            .copied()
            .unwrap_or(prog.instrs.len());
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut terminator = None;
        for i in start..end {
            let instr = &prog.instrs[i];
            if instr.is_terminator() {
                terminator = Some(i);
                break;
            }
            let fits = match policy {
                SchedulePolicy::OneOpPerState => false,
                SchedulePolicy::List => groups.last().is_some_and(|group| {
                    let mut written: HashSet<Temp> = HashSet::new();
                    let mut mems: HashSet<usize> = HashSet::new();
                    for &g in group {
                        if let Some(d) = prog.instrs[g].dst() {
                            written.insert(d);
                        }
                        if let Some(m) = prog.instrs[g].mem() {
                            mems.insert(m);
                        }
                    }
                    let raw = instr.sources().iter().any(|s| written.contains(s));
                    let waw = instr.dst().is_some_and(|d| written.contains(&d));
                    let port = instr.mem().is_some_and(|m| mems.contains(&m));
                    !(raw || waw || port)
                }),
            };
            if fits {
                groups.last_mut().expect("fits implies a group").push(i);
            } else {
                groups.push(vec![i]);
            }
        }
        // Branch timing: the condition must be latched strictly before the
        // state whose edge takes the branch.
        if let Some(t) = terminator {
            if let Instr::Branch { cond, .. } = &prog.instrs[t] {
                let cond_in_last_group = groups
                    .last()
                    .is_some_and(|g| g.iter().any(|&i| prog.instrs[i].dst() == Some(*cond)));
                if cond_in_last_group {
                    groups.push(Vec::new());
                }
            }
        }
        if groups.is_empty() {
            // Every block anchors at least one state so control flow has a
            // target.
            groups.push(Vec::new());
        }
        plans.push(BlockPlan { groups, terminator });
    }

    // Assign global state indices.
    let mut offsets = Vec::with_capacity(plans.len());
    let mut total = 0;
    for plan in &plans {
        offsets.push(total);
        total += plan.groups.len();
    }

    let mut states = Vec::with_capacity(total);
    for (b, plan) in plans.iter().enumerate() {
        let base = offsets[b];
        for (g, group) in plan.groups.iter().enumerate() {
            let is_last = g + 1 == plan.groups.len();
            let exit = if !is_last {
                Exit::Goto(base + g + 1)
            } else {
                match plan.terminator.map(|t| &prog.instrs[t]) {
                    Some(Instr::Jump { target }) => Exit::Goto(offsets[block_of(*target)]),
                    Some(Instr::Branch {
                        cond,
                        if_true,
                        if_false,
                    }) => Exit::Branch {
                        cond: *cond,
                        if_true: offsets[block_of(*if_true)],
                        if_false: offsets[block_of(*if_false)],
                    },
                    Some(Instr::Halt) => Exit::Done,
                    Some(_) => unreachable!("terminator slot holds a terminator"),
                    // Fallthrough into the next block.
                    None => Exit::Goto(offsets.get(b + 1).copied().unwrap_or(base + g)),
                }
            };
            states.push(ScheduledState {
                ops: group.clone(),
                exit,
            });
        }
    }

    let result = Schedule { policy, states };
    debug_assert_eq!(result.validate(prog), Ok(()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse;
    use crate::lower::lower;

    fn prog(src: &str) -> TacProgram {
        lower(&parse(src).unwrap(), "t", 16).unwrap()
    }

    #[test]
    fn policy_words_round_trip() {
        for policy in [SchedulePolicy::List, SchedulePolicy::OneOpPerState] {
            assert_eq!(policy.to_string().parse(), Ok(policy));
        }
        let err = "greedy".parse::<SchedulePolicy>().unwrap_err();
        assert!(err.contains("'greedy'"), "{err}");
    }

    #[test]
    fn one_op_per_state_isolates_every_instruction() {
        let p = prog("mem out[1]; void main() { out[0] = 1 + 2; }");
        let s = schedule(&p, SchedulePolicy::OneOpPerState);
        assert_eq!(s.validate(&p), Ok(()));
        for state in &s.states {
            assert!(state.ops.len() <= 1);
        }
        // const, const, add, store, plus halt handling.
        assert!(s.state_count() >= 4);
    }

    #[test]
    fn list_schedule_packs_independent_ops() {
        let p = prog("mem out[2]; void main() { int a = 1; int b = 2; out[0] = a + a; out[1] = b * b; }");
        let baseline = schedule(&p, SchedulePolicy::OneOpPerState);
        let packed = schedule(&p, SchedulePolicy::List);
        assert_eq!(packed.validate(&p), Ok(()));
        assert!(
            packed.state_count() < baseline.state_count(),
            "list {} vs baseline {}",
            packed.state_count(),
            baseline.state_count()
        );
        assert!(packed.ops_per_state() > 1.0);
    }

    #[test]
    fn memory_port_conflicts_split_states() {
        // Two independent stores to the same memory cannot share a state.
        let p = prog("mem d[4]; void main() { d[0] = 1; d[1] = 2; }");
        let s = schedule(&p, SchedulePolicy::List);
        assert_eq!(s.validate(&p), Ok(()));
        for state in &s.states {
            let stores = state
                .ops
                .iter()
                .filter(|&&i| matches!(p.instrs[i], Instr::Store { .. }))
                .count();
            assert!(stores <= 1);
        }
    }

    #[test]
    fn different_memories_can_share_a_state() {
        // Operands are latched well before the stores, so the two stores
        // (to distinct SRAMs) pack into one state.
        let p = prog(
            "mem a[2]; mem b[2]; void main() { int x = 1; int y = 2; int i = 0; a[i] = x; b[i] = y; }",
        );
        let s = schedule(&p, SchedulePolicy::List);
        let max_stores = s
            .states
            .iter()
            .map(|state| {
                state
                    .ops
                    .iter()
                    .filter(|&&i| matches!(p.instrs[i], Instr::Store { .. }))
                    .count()
            })
            .max()
            .unwrap();
        assert_eq!(max_stores, 2, "independent stores to distinct SRAMs pack");
    }

    #[test]
    fn branch_condition_latched_before_branch_state() {
        let p = prog("void main() { int i = 0; while (i < 5) { i = i + 1; } }");
        for policy in [SchedulePolicy::OneOpPerState, SchedulePolicy::List] {
            let s = schedule(&p, policy);
            assert_eq!(s.validate(&p), Ok(()), "policy {policy}");
            // Find the branching state and check its ops don't write cond.
            let branch_state = s
                .states
                .iter()
                .find(|st| matches!(st.exit, Exit::Branch { .. }))
                .expect("loop has a branch");
            let Exit::Branch { cond, .. } = branch_state.exit else {
                unreachable!()
            };
            for &op in &branch_state.ops {
                assert_ne!(p.instrs[op].dst(), Some(cond));
            }
        }
    }

    #[test]
    fn loops_terminate_in_done() {
        let p = prog("void main() { int i = 0; }");
        let s = schedule(&p, SchedulePolicy::List);
        assert!(matches!(s.states.last().unwrap().exit, Exit::Done));
    }

    #[test]
    fn empty_program_schedules() {
        let p = prog("void main() { }");
        let s = schedule(&p, SchedulePolicy::List);
        assert_eq!(s.validate(&p), Ok(()));
        assert_eq!(s.state_count(), 1);
        assert!(matches!(s.states[0].exit, Exit::Done));
    }

    #[test]
    fn if_else_routes_both_arms() {
        let p = prog("void main() { int x = 0; if (x == 0) { x = 1; } else { x = 2; } x = 3; }");
        let s = schedule(&p, SchedulePolicy::List);
        assert_eq!(s.validate(&p), Ok(()));
        let Exit::Branch {
            if_true, if_false, ..
        } = s
            .states
            .iter()
            .find_map(|st| match st.exit {
                Exit::Branch { .. } => Some(st.exit.clone()),
                _ => None,
            })
            .unwrap()
        else {
            unreachable!()
        };
        assert_ne!(if_true, if_false);
    }

    #[test]
    fn validate_catches_raw_hazard() {
        let p = prog("mem out[1]; void main() { int a = 1; out[0] = a + 1; }");
        let mut s = schedule(&p, SchedulePolicy::OneOpPerState);
        // Merge all ops into state 0 to fabricate hazards.
        let all_ops: Vec<usize> = s.states.iter().flat_map(|st| st.ops.clone()).collect();
        s.states[0].ops = all_ops;
        for st in &mut s.states[1..] {
            st.ops.clear();
        }
        assert!(s.validate(&p).is_err());
    }
}
