//! The `fpgafuzz` CLI.
//!
//! ```text
//! fpgafuzz run --seed 42 --cases 500 [--width 16] [--corpus DIR]
//!              [--inject branch-polarity|signal-fault] [--max-shrink-evals 500]
//! fpgafuzz distill --corpus DIR [--out DIR]
//! fpgafuzz gen --seed 42 --index 7 [--width 16]
//! fpgafuzz repro --seed 42 --index 7 [--width 16] [--inject ...]
//! ```
//!
//! (The full flag list is in `USAGE`.) Flags are read by
//! [`fpgatest::flags`], as `fpgatest`'s are: a command rejects a flag
//! it does not take, a missing or bad value and any positional
//! argument, naming it, and the last value of a repeated flag wins.
//!
//! Exit codes: 0 = clean, 1 = at least one divergence, 2 = usage or
//! generator error, or a failed stdout write (a reader that closes the
//! pipe early is not one: see [`fpgatest::stdout::write_stdout`]).
//! Output is deterministic: same seed, same cases, bit-identical bytes
//! at any `--shards` count (default: the machine's available
//! parallelism).

use fpgafuzz::campaign::{run_campaign_sharded, CampaignOptions, ShardedCampaignOptions};
use fpgafuzz::distill::{distill, DistillOptions};
use fpgafuzz::exec::{run_case, CaseOutcome, ExecOptions, Injection};
use fpgafuzz::gen::{generate_case, Budget};
use fpgafuzz::shrink::{line_count, shrink};
use fpgatest::{flags, out, outln};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  fpgafuzz run --seed N --cases K [--width W] [--corpus DIR] \\
               [--inject branch-polarity|signal-fault] [--max-shrink-evals E] [--max-ticks T] \\
               [--events-out FILE|-] [--shards N] [--checkpoint FILE] \\
               [--checkpoint-every K] [--resume FILE] [--ledger FILE]
  fpgafuzz distill --corpus DIR [--width W] [--out DIR] [--max-ticks T]
  fpgafuzz gen --seed N --index I [--width W]
  fpgafuzz repro --seed N --index I [--width W] [--inject branch-polarity|signal-fault] [--max-ticks T]";

/// Why a command failed. Only a usage error (a missing or unknown
/// command, a flag error, a missing required flag) is followed by the
/// usage text.
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Run(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(Failure::Usage(e)) => {
            eprintln!("fpgafuzz: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("fpgafuzz: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, Failure> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| Failure::Usage("missing command".to_string()))?;
    type Command = fn(FuzzArgs) -> Result<ExitCode, Failure>;
    let (run, accepted): (Command, &str) = match command.as_str() {
        "run" => (
            cmd_run,
            "--seed --cases --width --corpus --inject --max-shrink-evals --max-ticks \
             --events-out --shards --checkpoint --checkpoint-every --resume --ledger",
        ),
        "distill" => (cmd_distill, "--corpus --width --out --max-ticks"),
        "gen" => (cmd_gen, "--seed --index --width"),
        "repro" => (cmd_repro, "--seed --index --width --inject --max-ticks"),
        other => return Err(Failure::Usage(format!("unknown command '{other}'"))),
    };
    run(FuzzArgs::read(rest, accepted).map_err(Failure::Usage)?)
}

fn cmd_run(args: FuzzArgs) -> Result<ExitCode, Failure> {
    let events = match &args.events_out {
        None => fpgatest::events::EventSink::disabled(),
        Some(path) => fpgatest::events::EventSink::to_path(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?,
    };
    let opts = CampaignOptions {
        seed: required(args.seed, "--seed")?,
        cases: required(args.cases, "--cases")?,
        width: args.width,
        corpus_dir: args.corpus,
        injection: args.inject,
        max_shrink_evals: args.max_shrink_evals,
        max_ticks: args.max_ticks,
        events,
    };
    let shard = ShardedCampaignOptions {
        shards: args.shards,
        checkpoint: args.checkpoint,
        checkpoint_every: args.checkpoint_every,
        resume: args.resume,
        stop: None,
        sigint: true,
    };
    fpgatest::campaign::install_sigint();
    let started = std::time::Instant::now();
    let outcome = run_campaign_sharded(&opts, &shard).map_err(|e| format!("campaign: {e}"))?;
    if let Some(note) = &outcome.salvage {
        eprintln!("fpgafuzz: {note}");
    }
    let report = outcome.report;
    out!("{}", report.log);
    if outcome.interrupted {
        eprintln!("fpgafuzz: interrupted; checkpoint holds the completed prefix");
        return Ok(ExitCode::from(130));
    }
    if let Some(path) = &args.ledger {
        let wall = started.elapsed().as_secs_f64();
        let cases_per_sec = if wall > 0.0 {
            opts.cases as f64 / wall
        } else {
            0.0
        };
        let entry = fpgatest::ledger::LedgerEntry {
            engine: "fuzz".to_string(),
            wall_seconds: wall,
            passed: opts.cases - report.divergences as u64,
            failed: report.divergences as u64,
            counters: vec![
                ("shards".to_string(), shard.shards.max(1) as f64),
                ("cases_per_sec".to_string(), cases_per_sec),
                ("new_keys".to_string(), report.new_keys as f64),
            ],
            ..fpgatest::ledger::LedgerEntry::new("fuzz", &format!("seed{}", opts.seed))
        };
        fpgatest::ledger::append(path, &entry)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        eprintln!("ledger entry appended to {}", path.display());
    }
    if report.divergences > 0 {
        Ok(ExitCode::from(1))
    } else if report.generator_errors > 0 {
        Ok(ExitCode::from(2))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_distill(args: FuzzArgs) -> Result<ExitCode, Failure> {
    let report = distill(&DistillOptions {
        corpus_dir: required(args.corpus, "--corpus")?,
        width: args.width,
        out_dir: args.out,
        max_ticks: args.max_ticks,
    })
    .map_err(|e| format!("distill: {e}"))?;
    out!("{}", report.log);
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(args: FuzzArgs) -> Result<ExitCode, Failure> {
    let seed = required(args.seed, "--seed")?;
    let index = required(args.index, "--index")?;
    let budget = Budget {
        width: args.width,
        ..Budget::default()
    };
    let case = generate_case(seed, index, &budget)?;
    out!("{}", case.source);
    for (mem, values) in &case.stimuli {
        let rendered: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        outln!("// stimulus {mem}: {}", rendered.join(" "));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_repro(args: FuzzArgs) -> Result<ExitCode, Failure> {
    let seed = required(args.seed, "--seed")?;
    let index = required(args.index, "--index")?;
    let width = args.width;
    let budget = Budget {
        width,
        ..Budget::default()
    };
    let exec = ExecOptions {
        injection: args.inject,
        max_ticks: args.max_ticks,
        ..ExecOptions::default()
    };
    let case = generate_case(seed, index, &budget)?;
    match run_case(&case, width, &exec) {
        CaseOutcome::Pass { coverage } => {
            outln!("case {index}: PASS ({} coverage keys)", coverage.len());
            Ok(ExitCode::SUCCESS)
        }
        CaseOutcome::Divergence(d) => {
            outln!(
                "case {index}: DIVERGENCE [{}] {:?}: {}",
                d.variant, d.kind, d.detail
            );
            let report = shrink(&case, width, &exec, 500);
            outln!(
                "shrunk {} -> {} lines in {} evals:",
                line_count(&case),
                line_count(&report.case),
                report.evals
            );
            out!("{}", report.case.source);
            Ok(ExitCode::from(1))
        }
        CaseOutcome::GeneratorError(e) => {
            outln!("case {index}: generator error: {e}");
            Ok(ExitCode::from(2))
        }
    }
}

/// The `fpgafuzz` flags, typed, with their defaults; each command
/// accepts its own subset.
#[derive(Default)]
struct FuzzArgs {
    seed: Option<u64>,
    cases: Option<u64>,
    index: Option<u64>,
    width: u32,
    corpus: Option<PathBuf>,
    inject: Option<Injection>,
    max_shrink_evals: usize,
    max_ticks: u64,
    events_out: Option<String>,
    shards: usize,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    resume: Option<PathBuf>,
    ledger: Option<PathBuf>,
    out: Option<PathBuf>,
}

impl FuzzArgs {
    /// Reads `args`, rejecting any flag outside the space-separated
    /// `accepted`.
    fn read(args: &[String], accepted: &str) -> Result<FuzzArgs, String> {
        let mut a = FuzzArgs {
            width: 16,
            max_shrink_evals: 500,
            max_ticks: 5_000_000,
            shards: fpgatest::campaign::default_shards(),
            ..FuzzArgs::default()
        };
        flags::read_flags(args, |flag, value| {
            if !accepted.split_whitespace().any(|name| name == flag) {
                return Ok(false);
            }
            match flag {
                "--seed" => a.seed = Some(value.parse()?),
                "--cases" => a.cases = Some(value.parse()?),
                "--index" => a.index = Some(value.parse()?),
                "--width" => a.width = value.parse()?,
                "--corpus" => a.corpus = Some(value.parse()?),
                "--inject" => a.inject = Some(value.parse()?),
                "--max-shrink-evals" => a.max_shrink_evals = value.parse()?,
                "--max-ticks" => a.max_ticks = value.parse()?,
                "--events-out" => a.events_out = Some(value.parse()?),
                "--shards" => a.shards = value.parse()?,
                "--checkpoint" => a.checkpoint = Some(value.parse()?),
                "--checkpoint-every" => a.checkpoint_every = value.parse()?,
                "--resume" => a.resume = Some(value.parse()?),
                "--ledger" => a.ledger = Some(value.parse()?),
                "--out" => a.out = Some(value.parse()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(a)
    }
}

/// A required flag's value.
fn required<T>(value: Option<T>, flag: &str) -> Result<T, Failure> {
    value.ok_or_else(|| Failure::Usage(format!("{flag} is required")))
}
