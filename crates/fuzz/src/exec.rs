//! The differential executor: golden interpreter vs full flow.
//!
//! The executor drives the flow's oracle across compile variants — both
//! schedule policies and 1 vs 2 temporal partitions. Each variant is
//! compiled and (optionally) injected once, then prepared once: the
//! golden TAC interpreter runs first ([`fpgatest::flow::prepare_golden`]),
//! then the transform stage ([`fpgatest::flow::prepare_design`]). Every
//! engine run of the variant replays that one [`PreparedDesign`] and
//! [`PreparedGolden`] through [`PreparedDesign::run_with_golden`]: the
//! event kernel with coverage on, then — if it passes — the compiled
//! cycle, level, and batch engines, whose final memories must match the
//! event kernel's word for word. Outcomes are classified:
//!
//! * any memory mismatch, simulation failure, elaboration error, or
//!   watchdog timeout is a **divergence** (a compiler bug, or our
//!   injected one);
//! * a compile, stimulus, or golden-reference error is a **generator
//!   error** — the case violated the valid-by-construction contract, so
//!   the generator (not the compiler) is at fault. The golden reference
//!   runs before the transform stage, so a case that breaks both is a
//!   generator error, exactly as in the one-shot flow.

use crate::coverage::{case_coverage, CoverageMap};
use crate::gen::Case;
use fpgatest::faults::FaultSpec;
use fpgatest::flow::{
    prepare_design, prepare_golden, Engine, FlowError, FlowOptions, PreparedDesign, PreparedGolden,
    TestReport,
};
use fpgatest::stimulus::Stimulus;
use nenya::schedule::SchedulePolicy;
use nenya::tac::MemRole;
use nenya::{compile_program, CompileOptions, Design};

/// A deliberately planted compiler bug, for validating that the fuzzer
/// catches what it is supposed to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Flip the polarity of the first conditional FSM transition — the
    /// classic "branch taken the wrong way" lowering bug.
    BranchPolarity,
    /// Inject one hardware fault per case through the flow's fault
    /// machinery: stuck-at-0 on the write-enable of a memory the design
    /// writes, chosen deterministically from the case index. Exercises
    /// the fault path under fuzz-generated designs; a faulted run must
    /// never be classified as a clean pass.
    SignalFault,
}

impl std::str::FromStr for Injection {
    type Err = String;

    /// Parses the `--inject` words.
    fn from_str(word: &str) -> Result<Self, Self::Err> {
        match word {
            "branch-polarity" => Ok(Injection::BranchPolarity),
            "signal-fault" => Ok(Injection::SignalFault),
            other => Err(format!(
                "unknown injection '{other}' (expected branch-polarity or signal-fault)"
            )),
        }
    }
}

impl Injection {
    /// Applies the bug to a compiled design. Returns `false` when the
    /// design has nothing to corrupt (e.g. no conditional transitions),
    /// in which case the case runs unmodified.
    pub fn apply(self, design: &mut Design) -> bool {
        match self {
            Injection::BranchPolarity => {
                for config in &mut design.configs {
                    if let Some(t) = config
                        .fsm
                        .states
                        .iter_mut()
                        .flat_map(|s| s.transitions.iter_mut())
                        .find(|t| t.cond.is_some())
                    {
                        let (signal, when) = t.cond.clone().expect("conditional");
                        t.cond = Some((signal, !when));
                        return true;
                    }
                }
                false
            }
            // SignalFault does not mutate the design; the fault rides in
            // through FlowOptions instead (see `signal_fault_for`).
            Injection::SignalFault => false,
        }
    }
}

/// Picks the fault a [`Injection::SignalFault`] run injects: stuck-at-0
/// on the write-enable of one memory the program writes, rotated by the
/// case index so a campaign spreads faults across the design's
/// memories. `None` when the design writes no memory — the case then
/// runs unfaulted, like a `BranchPolarity` design with no conditionals.
pub fn signal_fault_for(design: &Design, index: u64) -> Option<FaultSpec> {
    let written: Vec<&str> = design
        .mems
        .iter()
        .filter(|m| matches!(m.role, MemRole::Output | MemRole::Intermediate))
        .map(|m| m.name.as_str())
        .collect();
    if written.is_empty() {
        return None;
    }
    let mem = written[(index % written.len() as u64) as usize];
    Some(FaultSpec::StuckAt {
        signal: format!("{mem}_we"),
        bit: 0,
        value: false,
    })
}

/// Executor knobs. The watchdog is far below the flow default because an
/// injected control bug can loop the FSM forever — the timeout then *is*
/// the divergence signal and should fire in milliseconds, not minutes.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Kernel-tick watchdog per configuration.
    pub max_ticks: u64,
    /// Golden-reference step budget.
    pub golden_step_limit: u64,
    /// The planted bug, if any.
    pub injection: Option<Injection>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_ticks: 5_000_000,
            golden_step_limit: 1_000_000,
            injection: None,
        }
    }
}

/// One compile variant of the differential matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Schedule policy under test.
    pub policy: SchedulePolicy,
    /// Temporal partition count.
    pub partitions: usize,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/p{}", self.policy, self.partitions)
    }
}

/// The variants a given case index runs: always the baseline
/// (list schedule, single partition), plus one alternate cycled by index
/// so a whole run covers the full policy × partition matrix.
pub fn variants_for(index: u64) -> Vec<Variant> {
    let baseline = Variant {
        policy: SchedulePolicy::List,
        partitions: 1,
    };
    let alternate = match index % 3 {
        0 => Variant {
            policy: SchedulePolicy::OneOpPerState,
            partitions: 1,
        },
        1 => Variant {
            policy: SchedulePolicy::List,
            partitions: 2,
        },
        _ => Variant {
            policy: SchedulePolicy::OneOpPerState,
            partitions: 2,
        },
    };
    vec![baseline, alternate]
}

/// How a divergence manifested. The shrinker preserves this class, so a
/// memory mismatch cannot shrink into an unrelated infinite loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivKind {
    /// Simulation finished but memory contents disagree with golden.
    Mismatch,
    /// Simulation aborted (X condition, bad store, assertion).
    SimFailure,
    /// The watchdog fired — the hardware never reached `done`.
    Timeout,
    /// The flow itself broke (elaboration, kernel, RTG).
    FlowBroken,
    /// The event kernel passed but a compiled engine (cycle or level)
    /// produced different final memories, failed, or broke — a
    /// simulator-equivalence bug rather than a compiler bug.
    EngineMismatch,
    /// A run with an injected hardware fault still passed the
    /// differential oracle — the fault escaped detection. Reported as a
    /// divergence so a faulted case can never read as a clean pass.
    FaultEscape,
}

/// A detected divergence between the golden reference and the simulated
/// hardware.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The variant that diverged.
    pub variant: Variant,
    /// How it manifested.
    pub kind: DivKind,
    /// What went wrong (mismatch summary, failure message, or timeout).
    pub detail: String,
}

/// Outcome of one case across its variants.
#[derive(Debug)]
pub enum CaseOutcome {
    /// Golden and simulation agreed on every variant.
    Pass {
        /// Coverage observed across all variants.
        coverage: CoverageMap,
    },
    /// At least one variant disagreed — a compiler bug (or the injected
    /// one).
    Divergence(Divergence),
    /// The case itself is invalid (compile/golden error): a generator
    /// bug, not a compiler bug.
    GeneratorError(String),
}

/// Runs one case through every variant, with the given width.
pub fn run_case(case: &Case, width: u32, opts: &ExecOptions) -> CaseOutcome {
    let mut coverage = CoverageMap::new();
    coverage.merge(crate::coverage::program_coverage(&case.program));
    let stimuli: Vec<(String, Stimulus)> = case
        .stimuli
        .iter()
        .map(|(mem, values)| (mem.clone(), Stimulus::from_values(values.iter().copied())))
        .collect();

    for variant in variants_for(case.index) {
        // A 2-partition split needs at least 2 top-level statements; the
        // generator guarantees that, but shrinking can reduce below it —
        // the variant is then skipped rather than misreported.
        if variant.partitions > case.program.body.stmts.len() {
            continue;
        }
        let compile = CompileOptions {
            width,
            policy: variant.policy,
            partitions: variant.partitions,
            optimize: false,
        };
        let name = format!("fuzz_{}_{}", case.seed, case.index);
        let mut design = match compile_program(&name, &case.program, &compile) {
            Ok(design) => design,
            Err(e) => return CaseOutcome::GeneratorError(format!("{variant}: compile: {e}")),
        };
        let mut fault = None;
        match opts.injection {
            Some(Injection::SignalFault) => {
                fault = signal_fault_for(&design, case.index);
            }
            Some(injection) => {
                injection.apply(&mut design);
            }
            None => {}
        }
        let flow_options = FlowOptions {
            compile,
            max_ticks: opts.max_ticks,
            golden_step_limit: opts.golden_step_limit,
            keep_artifacts: false,
            coverage: true,
            faults: fault.iter().cloned().collect(),
            ..FlowOptions::default()
        };
        match event_leg(design, &stimuli, &flow_options) {
            Ok((prepared, golden, report)) if report.passed => {
                // A faulted run that sails through the oracle is a fault
                // escape, never a clean pass.
                if let Some(fault) = &fault {
                    return CaseOutcome::Divergence(Divergence {
                        variant,
                        kind: DivKind::FaultEscape,
                        detail: format!("injected fault '{fault}' went undetected"),
                    });
                }
                coverage.merge(case_coverage(&report));
                coverage.insert(format!("cfg:{variant}"));
                if let Some(divergence) = check_engines(&prepared, &golden, &flow_options, &report)
                {
                    return CaseOutcome::Divergence(Divergence {
                        variant,
                        ..divergence
                    });
                }
            }
            Ok((_, _, report)) => {
                let (kind, detail) = match &report.failure {
                    Some(failure) => (DivKind::SimFailure, failure.clone()),
                    None => (
                        DivKind::Mismatch,
                        format!(
                            "{} memory mismatches (first: {})",
                            report.mismatches.len(),
                            report
                                .mismatches
                                .first()
                                .map(|m| m.to_string())
                                .unwrap_or_default()
                        ),
                    ),
                };
                return CaseOutcome::Divergence(Divergence {
                    variant,
                    kind,
                    detail,
                });
            }
            // The golden side already proved the program meaningful, so a
            // flow that cannot even produce a verdict indicts the
            // compiler/simulator path: count it as a divergence.
            Err(
                e @ (FlowError::Elaborate(_)
                | FlowError::Kernel(_)
                | FlowError::Timeout { .. }
                | FlowError::Rtg(_)
                | FlowError::Probe { .. }),
            ) => {
                let kind = match &e {
                    FlowError::Timeout { .. } => DivKind::Timeout,
                    _ => DivKind::FlowBroken,
                };
                return CaseOutcome::Divergence(Divergence {
                    variant,
                    kind,
                    detail: e.to_string(),
                });
            }
            Err(e) => return CaseOutcome::GeneratorError(format!("{variant}: {e}")),
        }
    }
    CaseOutcome::Pass { coverage }
}

/// The event-kernel leg of one variant, preparing everything the
/// cross-engine leg reuses. The golden reference runs *before* the
/// transform stage, in the one-shot flow's order, so a stimulus
/// or golden error takes precedence over a transform failure: a case
/// that breaks both is a generator error, not a divergence.
fn event_leg(
    design: Design,
    stimuli: &[(String, Stimulus)],
    options: &FlowOptions,
) -> Result<(PreparedDesign, PreparedGolden, TestReport), FlowError> {
    let golden = prepare_golden(&design, stimuli, options)?;
    let prepared = prepare_design(design)?;
    let report = prepared.run_with_golden(&golden, options)?;
    Ok((prepared, golden, report))
}

/// The cross-engine leg of the differential matrix: once the event
/// kernel passes a variant, the same prepared design and golden run
/// replay on the compiled cycle, level, and batch engines, and the final
/// memories must be word-identical to the event kernel's. Coverage stays
/// off on these runs — the compiled engines reject observability
/// features, and the pass-side coverage keys must not change just
/// because extra engines ran. Any disagreement, failure, or flow error
/// comes back as an [`DivKind::EngineMismatch`] divergence (the caller
/// fills in the variant).
fn check_engines(
    prepared: &PreparedDesign,
    golden: &PreparedGolden,
    event_options: &FlowOptions,
    event_report: &TestReport,
) -> Option<Divergence> {
    for engine in [Engine::Cycle, Engine::Level, Engine::Batch] {
        let options = FlowOptions {
            engine,
            coverage: false,
            ..event_options.clone()
        };
        let detail = match prepared.run_with_golden(golden, &options) {
            Ok(report) if report.passed => {
                if report.sim_mems == event_report.sim_mems {
                    continue;
                }
                let first = report
                    .sim_mems
                    .iter()
                    .find_map(|(mem, image)| {
                        (event_report.sim_mems.get(mem) != Some(image)).then(|| mem.clone())
                    })
                    .unwrap_or_else(|| "<memory set>".into());
                format!("engine '{engine}' disagrees with the event kernel on memory '{first}'")
            }
            Ok(report) => match &report.failure {
                Some(failure) => format!("engine '{engine}': {failure}"),
                None => format!(
                    "engine '{engine}': {} memory mismatches vs golden",
                    report.mismatches.len()
                ),
            },
            Err(e) => format!("engine '{engine}': {e}"),
        };
        return Some(Divergence {
            variant: Variant {
                policy: SchedulePolicy::List,
                partitions: 1,
            },
            kind: DivKind::EngineMismatch,
            detail,
        });
    }
    None
}

/// Whether the case still diverges — the shrinker's predicate.
pub fn diverges(case: &Case, width: u32, opts: &ExecOptions) -> bool {
    matches!(run_case(case, width, opts), CaseOutcome::Divergence(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, Budget};

    /// The golden reference runs before the transform stage, so a case
    /// whose golden run fails is a generator error carrying the flow's
    /// `"{variant}: golden reference: …"` text, never a divergence.
    #[test]
    fn golden_failure_is_a_generator_error() {
        let case = generate_case(42, 0, &Budget::default()).expect("valid case");
        let opts = ExecOptions {
            golden_step_limit: 1,
            ..ExecOptions::default()
        };
        match run_case(&case, 16, &opts) {
            CaseOutcome::GeneratorError(text) => {
                assert!(
                    text.starts_with("list/p1: golden reference: configuration '"),
                    "{text}"
                );
                assert!(text.ends_with("': step limit of 1 exhausted"), "{text}");
            }
            other => panic!("expected a generator error, got {other:?}"),
        }
    }
}
