//! The fuzzing campaign: generate → execute → track coverage → shrink.
//!
//! This is the engine behind `fpgafuzz run`, one runner on the sharded
//! work-stealing runtime ([`run_campaign_sharded`]). It lives in the
//! library so integration tests exercise exactly the code the CLI runs.
//! The produced log, corpus and event stream are fully deterministic —
//! no wall-clock, no OS randomness, no hash-order iteration — so two
//! invocations with the same seed and case count emit bit-identical
//! output at any shard count (the repo's reproducibility contract).

use crate::corpus::Corpus;
use crate::coverage::{missing_ops, CoverageMap};
use crate::exec::{run_case, CaseOutcome, ExecOptions, Injection};
use crate::gen::{generate_case, Budget, Case};
use crate::shrink::{line_count, shrink};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

/// Campaign knobs, mirroring the `fpgafuzz run` flags.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Root seed for the whole run.
    pub seed: u64,
    /// Number of cases to generate and execute.
    pub cases: u64,
    /// Design data width.
    pub width: u32,
    /// Where to persist coverage-increasing cases (`None` = in-memory
    /// only).
    pub corpus_dir: Option<PathBuf>,
    /// A deliberately planted bug, for validating the fuzzer itself.
    pub injection: Option<Injection>,
    /// Executor-invocation budget per shrink.
    pub max_shrink_evals: usize,
    /// Kernel-tick watchdog per configuration.
    pub max_ticks: u64,
    /// Live `fpgatest-events-v1` stream (`--events-out`). A separate
    /// channel from the log that never feeds back into it; its
    /// wall-clock fields are zeroed, so it is as deterministic as the
    /// log.
    pub events: fpgatest::events::EventSink,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seed: 0,
            cases: 100,
            width: 16,
            corpus_dir: None,
            injection: None,
            max_shrink_evals: 500,
            max_ticks: 5_000_000,
            events: fpgatest::events::EventSink::disabled(),
        }
    }
}

/// What a campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// The deterministic human-readable log, ready to print.
    pub log: String,
    /// Cases that diverged, already shrunk.
    pub shrunk: Vec<Case>,
    /// Divergence count.
    pub divergences: usize,
    /// Generator-error count (invalid cases: *our* bugs, not the
    /// compiler's).
    pub generator_errors: usize,
    /// Accumulated coverage at the end of the run.
    pub coverage: CoverageMap,
    /// How many coverage keys this run added over the starting map.
    pub new_keys: usize,
}

pub use fpgatest::campaign::ShardedCampaignOptions;

/// What [`run_campaign_sharded`] produced. The log carries the footer
/// lines only for completed campaigns.
pub type ShardedCampaignOutcome = fpgatest::campaign::ShardedCampaignOutcome<CampaignReport>;

/// Everything one executed case contributes to the merge, independent of
/// which shard ran it.
enum ShardCase {
    Pass {
        case: Case,
        seen: CoverageMap,
    },
    Diverged {
        variant: String,
        kind: String,
        detail: String,
        orig_lines: usize,
        evals: usize,
        shrunk: Case,
    },
    GenError {
        message: String,
    },
}

/// Merge-side campaign state, shared by the merge and checkpoint
/// callbacks.
struct MergeState {
    log: String,
    coverage: CoverageMap,
    shrunk: Vec<Case>,
    /// `(index, variant, kind, detail, orig_lines, evals)` per
    /// divergence, parallel to `shrunk` — what the checkpoint needs to
    /// re-merge the prefix.
    divergence_info: Vec<(u64, String, String, String, usize, usize)>,
    divergences: usize,
    generator_errors: usize,
    new_keys: usize,
    saved: usize,
    error: Option<io::Error>,
}

/// Heartbeat cadence in merged cases: fuzz cases are small and fast, so
/// a per-case heartbeat would dominate the stream.
const SHARD_HEARTBEAT: u64 = 25;

/// Runs a campaign across N work-stealing worker shards, with
/// checkpoint/resume.
///
/// Generation bias is **frozen** at campaign start (`missing_ops` of the
/// starting coverage) instead of evolving per case, so case `index` is
/// the same program at any shard count and across a resume — the price
/// of bit-determinism. With that freeze, the log, the merged coverage
/// map, the saved corpus, and the `fpgatest-events-v1` stream (wall-clock
/// fields zeroed) are all byte-identical across `--shards 1..N` and
/// across a killed-then-resumed run.
///
/// # Errors
///
/// Returns the underlying I/O error for corpus or checkpoint trouble; a
/// malformed or mismatched resume checkpoint (seed, cases, width,
/// injection, tick or shrink budget, or divergences and generator errors
/// that do not fit its completed prefix) surfaces as
/// [`io::ErrorKind::InvalidData`]. Execution itself never errors:
/// failures are counted in the report.
pub fn run_campaign_sharded(
    opts: &CampaignOptions,
    shard: &ShardedCampaignOptions,
) -> io::Result<ShardedCampaignOutcome> {
    use crate::coverage::{op_from_kind_name, op_kind_name};
    use crate::gen::stimuli_for;
    use fpgatest::campaign::CampaignId;
    use fpgatest::telemetry::Json;
    use std::cell::RefCell;

    let corpus = match &opts.corpus_dir {
        Some(dir) => Some(Corpus::open(dir.clone())?),
        None => None,
    };
    let start_coverage = match &corpus {
        Some(corpus) => corpus.load_coverage()?,
        None => CoverageMap::new(),
    };
    let exec = ExecOptions {
        max_ticks: opts.max_ticks,
        injection: opts.injection,
        ..ExecOptions::default()
    };
    let key = format!("seed{}", opts.seed);
    let injection_name = match opts.injection {
        Some(Injection::BranchPolarity) => "branch-polarity",
        Some(Injection::SignalFault) => "signal-fault",
        None => "none",
    };
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);

    let mut state = MergeState {
        log: String::new(),
        coverage: start_coverage.clone(),
        shrunk: Vec::new(),
        divergence_info: Vec::new(),
        divergences: 0,
        generator_errors: 0,
        new_keys: 0,
        saved: 0,
        error: None,
    };
    // What a checkpoint of this campaign must match: its seed and case
    // count, and the settings below.
    let id = CampaignId {
        kind: "fuzz",
        key: key.clone(),
        total: opts.cases,
        fields: vec![
            ("seed", Json::from(opts.seed)),
            ("width", u64::from(opts.width).into()),
            ("injection", injection_name.into()),
            ("max_ticks", opts.max_ticks.into()),
            ("max_shrink_evals", opts.max_shrink_evals.into()),
        ],
    };
    let bias;
    let mut resumed = 0;
    let mut salvage = None;
    if let Some(path) = &shard.resume {
        // Salvage tolerates torn writes (falling back to the `.tmp` or
        // `.prev` generation); identity mismatches still refuse.
        let salvaged = id.load_resume(path).map_err(invalid)?;
        let checkpoint = salvaged.checkpoint;
        salvage = salvaged.note;
        let bad = |what: &str| {
            invalid(format!(
                "checkpoint {}: {what} does not match this campaign",
                path.display()
            ))
        };
        let doc = &checkpoint.state;
        let str_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| bad(name))
        };
        let count_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| bad(name))
        };
        bias = str_field("bias")?
            .split_whitespace()
            .map(|kind| op_from_kind_name(kind).ok_or_else(|| bad("bias")))
            .collect::<io::Result<Vec<_>>>()?;
        state.coverage = CoverageMap::parse(str_field("coverage")?);
        state.log = str_field("log")?.to_string();
        state.new_keys = count_field("new_keys")?;
        state.saved = count_field("saved")?;
        state.generator_errors = count_field("generator_errors")?;
        let list = doc
            .get("divergences")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("divergences"))?;
        resumed = checkpoint.completed;
        for entry in list {
            let text = |name: &str| {
                entry
                    .get(name)
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(name))
            };
            let num = |name: &str| {
                entry
                    .get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(name))
            };
            // Divergences are merged in index order, inside the prefix.
            let index = num("index")?;
            if index >= resumed || state.divergence_info.last().is_some_and(|d| d.0 >= index) {
                return Err(bad("divergences"));
            }
            let source = text("source")?.to_string();
            let program = nenya::lang::parse(&source)
                .map_err(|e| invalid(format!("checkpoint shrunk case {index}: {e}")))?;
            let stimuli = stimuli_for(&program.mems, opts.seed, index, opts.width);
            state.divergence_info.push((
                index,
                text("variant")?.to_string(),
                text("kind")?.to_string(),
                text("detail")?.to_string(),
                num("orig_lines")? as usize,
                num("evals")? as usize,
            ));
            state.shrunk.push(Case {
                seed: opts.seed,
                index,
                source,
                program,
                stimuli,
            });
        }
        state.divergences = state.shrunk.len();
        if (state.divergences + state.generator_errors) as u64 > resumed {
            return Err(bad("generator_errors"));
        }
    } else {
        bias = missing_ops(&start_coverage);
        let (seed, cases, width) = (opts.seed, opts.cases, opts.width);
        let _ = write!(
            state.log,
            "fpgafuzz: seed {seed} cases {cases} width {width}"
        );
        if opts.injection.is_some() {
            let _ = write!(state.log, " inject {injection_name}");
        }
        state.log.push('\n');
    }

    // Deterministic event stream: merge order only, wall-clock fields
    // zeroed. On resume the completed prefix is re-emitted first, so the
    // full stream matches an uninterrupted run byte for byte.
    let events = opts.events.clone();
    events.emit(&fpgatest::events::Event::CampaignStarted {
        kind: "fuzz".to_string(),
        key: key.clone(),
        total: opts.cases,
    });
    let emit_divergence = |index: u64, variant: &str, kind: &str, detail: &str| {
        if events.is_enabled() {
            events.emit(&fpgatest::events::Event::FuzzDivergence {
                index,
                variant: variant.to_string(),
                kind: kind.to_string(),
                detail: detail.to_string(),
            });
        }
    };
    let emit_heartbeat = |index: u64| {
        if events.is_enabled() && (index + 1).is_multiple_of(SHARD_HEARTBEAT) {
            events.emit(&fpgatest::events::Event::Heartbeat {
                done: index + 1,
                total: opts.cases,
                rate: 0.0,
                eta_seconds: 0.0,
                slowest: String::new(),
                slowest_seconds: 0.0,
            });
        }
    };
    {
        let mut divs = state.divergence_info.iter().peekable();
        for index in 0..resumed {
            while let Some((i, variant, kind, detail, _, _)) = divs.peek() {
                if *i != index {
                    break;
                }
                emit_divergence(index, variant, kind, detail);
                divs.next();
            }
            emit_heartbeat(index);
        }
    }

    let budget = Budget {
        width: opts.width,
        op_bias: bias.clone(),
        ..Budget::default()
    };
    let budget = &budget;
    let exec = &exec;
    let worker = move |start: u64, end: u64| -> Vec<ShardCase> {
        (start..end)
            .map(|index| match generate_case(opts.seed, index, budget) {
                Err(message) => ShardCase::GenError { message },
                Ok(case) => match run_case(&case, opts.width, exec) {
                    CaseOutcome::Pass { coverage: seen } => ShardCase::Pass { case, seen },
                    CaseOutcome::GeneratorError(message) => ShardCase::GenError { message },
                    CaseOutcome::Divergence(d) => {
                        let report = shrink(&case, opts.width, exec, opts.max_shrink_evals);
                        ShardCase::Diverged {
                            variant: d.variant.to_string(),
                            kind: format!("{:?}", d.kind),
                            detail: d.detail,
                            orig_lines: line_count(&case),
                            evals: report.evals,
                            shrunk: report.case,
                        }
                    }
                },
            })
            .collect()
    };

    let merged = RefCell::new(state);
    let corpus = &corpus;
    let bias_names: Vec<&str> = bias.iter().filter_map(|op| op_kind_name(*op)).collect();
    let bias_names = bias_names.join(" ");
    let interrupted = fpgatest::campaign::run_sharded(
        opts.cases,
        resumed,
        shard,
        8,
        worker,
        |index, result: ShardCase| {
            let mut state = merged.borrow_mut();
            match result {
                ShardCase::GenError { message } => {
                    state.generator_errors += 1;
                    let _ = writeln!(state.log, "case {index}: generator error: {message}");
                }
                ShardCase::Pass { case, seen } => {
                    let fresh: Vec<String> = seen
                        .iter()
                        .filter(|k| !state.coverage.contains(k))
                        .map(String::from)
                        .collect();
                    if !fresh.is_empty() {
                        state.new_keys += fresh.len();
                        state.coverage.merge(seen);
                        if let Some(corpus) = corpus {
                            match corpus.save_case(&case, &fresh) {
                                Ok(_) => state.saved += 1,
                                Err(e) => {
                                    state.error.get_or_insert(e);
                                }
                            }
                        }
                        let _ =
                            writeln!(state.log, "case {index}: +{} coverage keys", fresh.len());
                    }
                }
                ShardCase::Diverged {
                    variant,
                    kind,
                    detail,
                    orig_lines,
                    evals,
                    shrunk,
                } => {
                    state.divergences += 1;
                    emit_divergence(index, &variant, &kind, &detail);
                    let _ = writeln!(
                        state.log,
                        "case {index}: DIVERGENCE [{variant}] {kind}: {detail}"
                    );
                    let _ = writeln!(
                        state.log,
                        "case {index}: shrunk {orig_lines} -> {} lines in {evals} evals:",
                        shrunk.source.lines().count()
                    );
                    for line in shrunk.source.lines() {
                        let _ = writeln!(state.log, "    {line}");
                    }
                    state
                        .divergence_info
                        .push((index, variant, kind, detail, orig_lines, evals));
                    state.shrunk.push(shrunk);
                }
            }
            emit_heartbeat(index);
        },
        |done| {
            let state = merged.borrow();
            let divergences = state.divergence_info.iter().zip(&state.shrunk).map(
                |((index, variant, kind, detail, orig_lines, evals), case)| {
                    Json::obj([
                        ("index", (*index).into()),
                        ("variant", variant.as_str().into()),
                        ("kind", kind.as_str().into()),
                        ("detail", detail.as_str().into()),
                        ("orig_lines", (*orig_lines).into()),
                        ("evals", (*evals).into()),
                        ("source", case.source.as_str().into()),
                    ])
                },
            );
            // The log goes in without its footer, which a resume appends
            // again like any completed run.
            id.snapshot(
                done,
                [
                    ("bias", bias_names.as_str().into()),
                    ("coverage", state.coverage.render().into()),
                    ("log", state.log.as_str().into()),
                    ("new_keys", state.new_keys.into()),
                    ("saved", state.saved.into()),
                    ("generator_errors", state.generator_errors.into()),
                    ("divergences", Json::Arr(divergences.collect())),
                ],
            )
        },
    )
    .map_err(io::Error::other)?;

    let mut state = merged.into_inner();
    if let Some(error) = state.error.take() {
        return Err(error);
    }
    if !interrupted {
        events.emit(&fpgatest::events::Event::CampaignFinished {
            kind: "fuzz".to_string(),
            key: key.clone(),
            done: opts.cases,
            failed: state.divergences as u64,
            wall_seconds: 0.0,
        });
        if let Some(corpus) = corpus {
            corpus.save_coverage(&state.coverage)?;
        }
        let _ = writeln!(
            state.log,
            "coverage: {} keys (+{} new, {} cases saved)",
            state.coverage.len(),
            state.new_keys,
            state.saved
        );
        let _ = writeln!(
            state.log,
            "result: {} divergences, {} generator errors",
            state.divergences, state.generator_errors
        );
    }

    Ok(ShardedCampaignOutcome {
        report: CampaignReport {
            log: state.log,
            shrunk: state.shrunk,
            divergences: state.divergences,
            generator_errors: state.generator_errors,
            coverage: state.coverage,
            new_keys: state.new_keys,
        },
        interrupted,
        resumed,
        salvage,
    })
}
