//! `fpgatest` — the command-line front end of the test infrastructure.
//!
//! ```text
//! fpgatest run <suite.manifest> [--jobs N] run a whole suite (the ANT-build role)
//! fpgatest test <prog.src> [options]       run one program through the flow
//! fpgatest faults <suite.manifest>         run a fault-injection campaign
//! fpgatest serve [--listen ADDR]           long-running job daemon (compile
//!                                          once, simulate many)
//! fpgatest submit <manifest> --addr ADDR   send a suite or campaign to a daemon
//! fpgatest compile <prog.src> --out <dir>  emit XML/hds/dot/behavior artifacts
//! fpgatest figure1                         print the infrastructure diagram (dot)
//! ```
//!
//! `test` options:
//!
//! ```text
//! --stimulus <mem>=<file>   initial memory contents (repeatable)
//! --width <bits>            design data width (default 16)
//! --partitions <k>          temporal partitions (default 1)
//! --policy <list|one-op-per-state>
//! --optimize                enable the compiler's TAC optimizations
//! --trace                   print where the VCD of each configuration went
//! --artifacts <dir>         write XML/hds/dot/behavior/VCD files
//! --engine <event|cycle|level|batch>
//!                           simulation engine (default event; see
//!                           DESIGN.md's engine-selection matrix)
//! ```
//!
//! `run` also accepts `--engine`, which overrides the engine for every
//! case in the manifest.
//!
//! `--jobs N` runs suite cases on `N` worker threads; the report and
//! telemetry keep the manifest's order regardless of completion order.
//!
//! Observability options (`run` and `test`):
//!
//! ```text
//! --metrics-out <file>      write the fpgatest-metrics-v1 JSON report
//! --trace-log <file>        write the span trace as JSONL
//! --baseline <file>         print timing deltas against a previous
//!                           --metrics-out report (verdicts unaffected)
//! --verbose                 print the extended Table I (golden(s),
//!                           cycles, events)
//! --events-out <file|->     stream fpgatest-events-v1 JSONL live
//!                           (tail-able; `-` is stdout)
//! --profile                 collect per-class / per-rank / per-phase
//!                           engine timing into the metrics report
//! --profile-folded <file>   also write flamegraph-compatible folded
//!                           stacks (feed to flamegraph.pl / inferno)
//! --ledger <file>           append one summary line to an append-only
//!                           runs.jsonl for `fpgatest trends`
//! ```
//!
//! `faults` also accepts `--events-out` and `--ledger`; `fpgatest
//! trends <runs.jsonl> [--gate PCT]` renders the ledger's trajectories
//! and exits non-zero when the latest run regresses past the gate.
//!
//! `test` also accepts a `.manifest` path, which runs the whole suite
//! (equivalent to `run`) so the observability flags apply uniformly. A
//! single source runs as a one-case suite: the same watchdogs, the
//! `case.<name>` span over the flow's stages and the suite's event
//! framing, written for every verdict; stdout shows the case's own
//! report.
//!
//! `test` fault/watchdog options (also available as manifest directives
//! `fault`, `max_ticks`, `timeout`):
//!
//! ```text
//! --fault <spec>            inject a hardware fault into the simulated
//!                           design (repeatable): stuck0:SIG.BIT,
//!                           stuck1:SIG.BIT, flip:SIG.BIT@CYCLE,
//!                           seu:SIG.BIT@CYCLE, sram:MEM@ADDR.BIT
//! --max-ticks <n>           per-configuration tick watchdog
//! --timeout <ms>            wall-clock watchdog around each case
//! ```
//!
//! `faults` options:
//!
//! ```text
//! --design <name>           campaign only this case (repeatable)
//! --engine <event|cycle|level|batch>
//! --seed <n>                site-sampling seed (default 1)
//! --sites <n>               injections per case (default 200)
//! --max-ticks <n>           per-injection tick watchdog (default: 5x the
//!                           clean run)
//! --report <file>           write the fpgatest-faults-v1 JSON report
//! --min-detected <f>        fail unless every campaign detects at least
//!                           this fraction
//! --baseline <file>         fail if coverage regressed vs a previous
//!                           --report file
//! --shards <n>              spread injections over N work-stealing
//!                           worker shards (default: the machine's
//!                           available parallelism; reports and events
//!                           are bit-identical at any count)
//! --checkpoint <file>       write fpgatest-checkpoint-v1 snapshots of
//!                           the completed prefix while running (one
//!                           --design at a time, as for --resume)
//! --checkpoint-every <k>    simulated injections between snapshots
//! --resume <file>           skip the ranges a checkpoint already holds
//! ```
//!
//! A campaign interrupted by SIGINT exits 130 after saving a final
//! checkpoint; `--resume` continues it to the same bytes an
//! uninterrupted run produces.
//!
//! Exit codes: 0 = everything passed; 1 = verification failed (or fault
//! coverage below the requested floor/baseline); 2 = usage, manifest or
//! flow error; 3 = a case crashed the harness (caught panic); 4 = a
//! watchdog (tick or wall-clock) tripped. A single design exits with its
//! own case's code, so its flow error exits 2; in a suite (`run`,
//! `submit`) crashes outrank timeouts, and a case's flow error counts as
//! a failure (1).

use fpgatest::events::EventSink;
use fpgatest::faults::{campaign_json, CampaignOptions, FaultSpec, InjectionOutcome};
use fpgatest::flow::{Engine, FlowOptions};
use fpgatest::ledger::{self, LedgerEntry};
use fpgatest::suite::{CaseResult, Suite, SuiteReport, TestCase};
use fpgatest::telemetry::{self, Json, Recorder, SpanSink};
use fpgatest::{metrics, out, outln, stimulus, suite};
use nenya::schedule::SchedulePolicy;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("test") => cmd_test(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("trends") => cmd_trends(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("figure1") => {
            out!("{}", fpgatest::dot::flow_diagram());
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "fpgatest — functional testing of compiler-generated FPGA designs

USAGE:
  fpgatest run <suite.manifest> [--jobs N] [--engine event|cycle|level|batch]
               [--metrics-out FILE] [--trace-log FILE] [--baseline FILE]
               [--verbose] [--events-out FILE|-] [--profile]
               [--profile-folded FILE] [--ledger FILE]
  fpgatest test <prog.src|suite.manifest> [--stimulus mem=file]... [--width N]
                [--partitions K] [--policy list|one-op-per-state]
                [--optimize] [--trace] [--artifacts DIR] [--jobs N]
                [--engine event|cycle|level|batch] [--fault SPEC]...
                [--max-ticks N] [--timeout MS]
                [--metrics-out FILE] [--trace-log FILE] [--baseline FILE]
                [--verbose] [--events-out FILE|-] [--profile]
                [--profile-folded FILE] [--ledger FILE]
  fpgatest faults <suite.manifest> [--design NAME]... [--engine E] [--seed N]
                [--sites N] [--max-ticks N] [--report FILE]
                [--min-detected F] [--baseline FILE]
                [--events-out FILE|-] [--ledger FILE]
                [--shards N] [--checkpoint FILE] [--checkpoint-every K]
                [--resume FILE]
  fpgatest trends <runs.jsonl> [--gate PCT]
  fpgatest serve [--listen ADDR] [--workers N] [--cache N] [--timeout MS]
                [--ledger FILE] [--retries N] [--backoff MS] [--max-queue N]
                [--max-line BYTES] [--read-deadline MS] [--idle-timeout MS]
                [--chaos SEED]
  fpgatest submit <suite.manifest> --addr ADDR [--design NAME]... [--engine E]
                [--faults --seed N --sites N [--shards N]] [--max-ticks N]
                [--timeout MS] [--events-out FILE|-] [--report FILE] [--no-cache]
  fpgatest submit --addr ADDR --stats | --shutdown | --shed
  fpgatest compile <prog.src> --out DIR [--width N] [--partitions K] [--optimize]
  fpgatest figure1 > figure1.dot

exit codes: 0 pass, 1 fail, 2 usage/flow error, 3 harness crash, 4 watchdog
  (a suite counts a case's flow error as a failure, 1)"
    );
}

/// The observability flags shared by `run` and `test`.
#[derive(Default)]
struct TelemetryArgs {
    metrics_out: Option<PathBuf>,
    trace_log: Option<PathBuf>,
    baseline: Option<PathBuf>,
    verbose: bool,
    events_out: Option<String>,
    profile: bool,
    profile_folded: Option<PathBuf>,
    ledger: Option<PathBuf>,
}

impl TelemetryArgs {
    /// Tries to claim one flag; `value` fetches its argument.
    fn accept(
        &mut self,
        arg: &str,
        value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match arg {
            "--metrics-out" => self.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--trace-log" => self.trace_log = Some(PathBuf::from(value("--trace-log")?)),
            "--baseline" => self.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--verbose" => self.verbose = true,
            "--events-out" => self.events_out = Some(value("--events-out")?),
            "--profile" => self.profile = true,
            "--profile-folded" => {
                self.profile_folded = Some(PathBuf::from(value("--profile-folded")?));
                // Folded stacks only exist when timing is collected.
                self.profile = true;
            }
            "--ledger" => self.ledger = Some(PathBuf::from(value("--ledger")?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Opens the `--events-out` sink (disabled when the flag is absent).
    fn event_sink(&self) -> Result<EventSink, String> {
        match &self.events_out {
            None => Ok(EventSink::disabled()),
            Some(path) => {
                EventSink::to_path(path).map_err(|e| format!("cannot open {path}: {e}"))
            }
        }
    }
}

/// Writes `--metrics-out` / `--trace-log` and prints `--baseline` deltas.
/// Never changes the verdict; failures here are their own errors.
fn emit_telemetry(
    report: &SuiteReport,
    recorder: &Recorder,
    args: &TelemetryArgs,
    engine: Engine,
) -> Result<(), String> {
    // Canonical key order: serializing the same run twice (or the same
    // run on two machines) produces byte-identical reports, so metrics
    // files diff cleanly.
    let mut json = telemetry::suite_json(report, recorder);
    json.sort_keys();
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, json.emit_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        outln!("metrics written to {}", path.display());
    }
    if let Some(path) = &args.profile_folded {
        std::fs::write(path, folded_stacks(report, engine))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        outln!("folded stacks written to {}", path.display());
    }
    if let Some(path) = &args.trace_log {
        let write = || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            recorder.write_jsonl(&mut out)?;
            out.flush()
        };
        write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        outln!("trace log written to {}", path.display());
    }
    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let baseline =
            Json::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))?;
        out!("{}", telemetry::render_baseline_deltas(&json, &baseline));
    }
    Ok(())
}

/// Renders every `--profile` block as flamegraph-compatible folded
/// stacks (`frame;frame;frame count`, one line per leaf, counts in
/// microseconds): `design;config;event;<class>`, `…;level;rank N` (or
/// `…;batch;rank N`, after the compiled engine that ran), and
/// `…;cycle;<phase>` frames, ready for flamegraph.pl or inferno.
fn folded_stacks(report: &SuiteReport, engine: Engine) -> String {
    let micros = |nanos: u64| (nanos / 1_000).max(1);
    let mut out = String::new();
    for (name, result) in &report.results {
        let CaseResult::Finished(finished) = result else {
            continue;
        };
        for run in &finished.runs {
            let Some(profile) = &run.profile else { continue };
            for class in &profile.classes {
                out.push_str(&format!(
                    "{name};{};event;{} {}\n",
                    run.name,
                    class.class,
                    micros(class.nanos)
                ));
            }
            for rank in &profile.ranks {
                out.push_str(&format!(
                    "{name};{};{engine};rank {} {}\n",
                    run.name,
                    rank.rank,
                    micros(rank.nanos)
                ));
            }
            for phase in &profile.phases {
                out.push_str(&format!(
                    "{name};{};cycle;{} {}\n",
                    run.name,
                    phase.phase,
                    micros(phase.nanos)
                ));
            }
        }
    }
    out
}

/// Appends one invocation summary to the `--ledger` file.
fn append_ledger(path: &Path, entry: &LedgerEntry) -> Result<(), String> {
    ledger::append(path, entry)
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    outln!("ledger entry appended to {}", path.display());
    Ok(())
}

/// The suite-level counters worth trending: total kernel events and
/// simulated cycles across every finished case.
fn suite_counters(report: &SuiteReport) -> Vec<(String, f64)> {
    let mut events = 0u64;
    let mut cycles = 0u64;
    for (_, result) in &report.results {
        if let CaseResult::Finished(finished) = result {
            for run in &finished.runs {
                events += run.kernel.events;
                cycles += run.cycles;
            }
        }
    }
    vec![
        ("cycles".to_string(), cycles as f64),
        ("events".to_string(), events as f64),
    ]
}

/// Prints the (extended, under `--verbose`) Table I for finished cases.
fn print_metrics(report: &SuiteReport, verbose: bool) {
    let rows: Vec<_> = report
        .results
        .iter()
        .filter_map(|(_, result)| match result {
            CaseResult::Finished(r) => Some(r.metrics.clone()),
            _ => None,
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    if verbose {
        outln!("{}", metrics::render_table1_ext(&rows));
    } else {
        outln!("{}", metrics::render_table1(&rows));
    }
}

/// Runs a manifest's suite: prints its one-line-per-case summary and
/// Table I, and exits with the suite's folded exit code.
fn run_suite(
    manifest: &Path,
    telemetry_args: &TelemetryArgs,
    jobs: usize,
    engine: Option<Engine>,
) -> ExitCode {
    let suite = match suite::load_manifest(manifest) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run_recorded(
        suite,
        manifest,
        "run",
        telemetry_args,
        jobs,
        engine,
        |report| {
            out!("{}", report.render());
            print_metrics(report, telemetry_args.verbose);
            Ok(())
        },
    );
    match report {
        Ok(report) => exit(report.exit_code()),
        Err(code) => code,
    }
}

/// Runs `suite` under the observability flags, its events keyed by `key`
/// and `engine` overriding every case's engine. `print` writes the run's
/// stdout report; the telemetry files and the ledger line (`command`
/// over `key`) follow it, for every verdict. Returns the report, or the
/// exit code of a failure to run or record it.
fn run_recorded(
    mut suite: Suite,
    key: &Path,
    command: &str,
    telemetry_args: &TelemetryArgs,
    jobs: usize,
    engine: Option<Engine>,
    print: impl FnOnce(&SuiteReport) -> Result<(), ExitCode>,
) -> Result<SuiteReport, ExitCode> {
    let fail = |message: String| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    };
    if let Some(engine) = engine {
        suite.set_engine(engine);
    }
    suite.set_events(
        telemetry_args.event_sink().map_err(fail)?,
        key.display().to_string(),
    );
    if telemetry_args.profile {
        suite.set_profile(true);
    }
    let spans = SpanSink::recording();
    suite.set_spans(spans.clone());
    let run_started = Instant::now();
    let report = suite.run_parallel(jobs);
    let wall_seconds = run_started.elapsed().as_secs_f64();
    print(&report)?;
    let engine = engine.unwrap_or_default();
    emit_telemetry(&report, &spans.take(), telemetry_args, engine).map_err(fail)?;
    if let Some(path) = &telemetry_args.ledger {
        let entry = LedgerEntry {
            engine: engine.to_string(),
            wall_seconds,
            passed: report.passed() as u64,
            failed: report.failed() as u64,
            counters: suite_counters(&report),
            ..LedgerEntry::new(command, &key.display().to_string())
        };
        append_ledger(path, &entry).map_err(fail)?;
    }
    Ok(report)
}

/// The process exit code for a run's exit code.
fn exit(code: i32) -> ExitCode {
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut manifest = None;
    let mut telemetry_args = TelemetryArgs::default();
    let mut jobs = 1usize;
    let mut engine = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("'{what}' needs a value"))
        };
        if arg == "--jobs" {
            match value("--jobs").and_then(|v| parse_jobs(&v)) {
                Ok(n) => jobs = n,
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::from(2);
                }
            }
            continue;
        }
        if arg == "--engine" {
            match value("--engine").and_then(|v| v.parse::<Engine>()) {
                Ok(e) => engine = Some(e),
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::from(2);
                }
            }
            continue;
        }
        match telemetry_args.accept(arg, &mut value) {
            Ok(true) => {}
            Ok(false) if manifest.is_none() && !arg.starts_with("--") => {
                manifest = Some(PathBuf::from(arg));
            }
            Ok(false) => {
                eprintln!("error: unexpected argument '{arg}'");
                return ExitCode::from(2);
            }
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(manifest) = manifest else {
        eprintln!("'run' needs a manifest path");
        return ExitCode::from(2);
    };
    run_suite(&manifest, &telemetry_args, jobs, engine)
}

/// `fpgatest faults <suite.manifest>` — run a fault-injection campaign
/// against every case of a manifest (or `--design NAME` only), classify
/// each injection, and optionally gate on a coverage floor or a
/// previously checked-in report.
fn cmd_faults(args: &[String]) -> ExitCode {
    let mut manifest = None;
    let mut engine = Engine::default();
    let mut seed = 1u64;
    let mut sites = 200usize;
    let mut max_ticks = None;
    let mut only: Vec<String> = Vec::new();
    let mut report_out: Option<PathBuf> = None;
    let mut min_detected: Option<f64> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut events_out: Option<String> = None;
    let mut ledger_out: Option<PathBuf> = None;
    let mut shards: Option<usize> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut checkpoint_every = 0u64;
    let mut resume: Option<PathBuf> = None;
    let mut it = args.iter();
    let result = (|| -> Result<(), String> {
        while let Some(arg) = it.next() {
            let mut value = |what: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("'{what}' needs a value"))
            };
            match arg.as_str() {
                "--engine" => engine = value("--engine")?.parse()?,
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an integer".to_string())?;
                }
                "--sites" => {
                    sites = value("--sites")?
                        .parse()
                        .map_err(|_| "--sites needs an integer".to_string())?;
                }
                "--max-ticks" => {
                    max_ticks = Some(
                        value("--max-ticks")?
                            .parse()
                            .map_err(|_| "--max-ticks needs an integer".to_string())?,
                    );
                }
                "--design" => only.push(value("--design")?),
                "--report" => report_out = Some(PathBuf::from(value("--report")?)),
                "--min-detected" => {
                    min_detected = Some(
                        value("--min-detected")?
                            .parse()
                            .map_err(|_| "--min-detected needs a fraction".to_string())?,
                    );
                }
                "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
                "--events-out" => events_out = Some(value("--events-out")?),
                "--ledger" => ledger_out = Some(PathBuf::from(value("--ledger")?)),
                "--shards" => {
                    shards = Some(
                        value("--shards")?
                            .parse()
                            .map_err(|_| "--shards needs an integer".to_string())?,
                    );
                }
                "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
                "--checkpoint-every" => {
                    checkpoint_every = value("--checkpoint-every")?
                        .parse()
                        .map_err(|_| "--checkpoint-every needs an integer".to_string())?;
                }
                "--resume" => resume = Some(PathBuf::from(value("--resume")?)),
                other if manifest.is_none() && !other.starts_with("--") => {
                    manifest = Some(PathBuf::from(other));
                }
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        Ok(())
    })();
    if let Err(message) = result {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }
    let Some(manifest) = manifest else {
        eprintln!("'faults' needs a manifest path");
        return ExitCode::from(2);
    };
    let suite = match suite::load_manifest(&manifest) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cases: Vec<_> = suite
        .cases()
        .iter()
        .filter(|c| only.is_empty() || only.iter().any(|n| n == &c.name))
        .collect();
    if cases.is_empty() {
        eprintln!("error: no matching cases in {}", manifest.display());
        return ExitCode::from(2);
    }

    let sink = match &events_out {
        None => EventSink::disabled(),
        Some(path) => match EventSink::to_path(path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let options = CampaignOptions {
        seed,
        sites,
        engine,
        max_ticks,
        events: sink,
    };
    // A checkpoint's identity is one design.
    if (checkpoint.is_some() || resume.is_some()) && cases.len() != 1 {
        eprintln!(
            "error: --checkpoint and --resume run one design at a time; narrow with --design \
             ({} cases matched)",
            cases.len()
        );
        return ExitCode::from(2);
    }
    fpgatest::campaign::install_sigint();
    let shard = fpgatest::faults::ShardedCampaignOptions {
        shards: shards.unwrap_or_else(fpgatest::campaign::default_shards),
        checkpoint,
        checkpoint_every,
        resume,
        stop: None,
        sigint: true,
    };
    let campaigns_started = Instant::now();
    let mut campaigns = Vec::new();
    for case in cases {
        match fpgatest::faults::run_campaign_sharded(case, &options, &shard) {
            Ok(outcome) => {
                if let Some(note) = &outcome.salvage {
                    eprintln!("fpgatest: {note}");
                }
                if outcome.interrupted {
                    eprintln!("fpgatest: interrupted; checkpoint holds the completed prefix");
                    return ExitCode::from(130);
                }
                out!("{}", outcome.report.render());
                campaigns.push(outcome.report);
            }
            Err(e) => {
                eprintln!("error: campaign '{}': {e}", case.name);
                return ExitCode::from(2);
            }
        }
    }
    let campaigns_seconds = campaigns_started.elapsed().as_secs_f64();

    let mut json = Json::obj([
        ("schema", "fpgatest-faults-v1".into()),
        (
            "campaigns",
            Json::Arr(campaigns.iter().map(campaign_json).collect()),
        ),
    ]);
    json.sort_keys();
    if let Some(path) = &report_out {
        if let Err(e) = std::fs::write(path, json.emit_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        outln!("fault report written to {}", path.display());
    }

    if let Some(path) = &ledger_out {
        let detected: usize = campaigns
            .iter()
            .map(|c| c.count(InjectionOutcome::Detected))
            .sum();
        let silent: usize = campaigns
            .iter()
            .map(|c| c.count(InjectionOutcome::Silent))
            .sum();
        let hung: usize = campaigns.iter().map(|c| c.count(InjectionOutcome::Hung)).sum();
        let injections: usize = campaigns.iter().map(|c| c.injections.len()).sum();
        let denom = detected + silent + hung;
        let counters = vec![
            ("injections".to_string(), injections as f64),
            ("shards".to_string(), shard.shards.max(1) as f64),
            (
                "sites_per_sec".to_string(),
                if campaigns_seconds > 0.0 {
                    injections as f64 / campaigns_seconds
                } else {
                    0.0
                },
            ),
        ];
        let entry = LedgerEntry {
            engine: engine.to_string(),
            wall_seconds: campaigns_seconds,
            passed: detected as u64,
            failed: silent as u64,
            detected_fraction: Some(if denom == 0 {
                0.0
            } else {
                detected as f64 / denom as f64
            }),
            counters,
            ..LedgerEntry::new("faults", &manifest.display().to_string())
        };
        if let Err(message) = append_ledger(path, &entry) {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    }

    // A crashed injection is a harness bug regardless of coverage.
    let crashed: usize = campaigns
        .iter()
        .map(|c| c.count(InjectionOutcome::Crashed))
        .sum();
    if crashed > 0 {
        eprintln!("error: {crashed} injections crashed the harness");
        return ExitCode::from(3);
    }
    if let Some(floor) = min_detected {
        for campaign in &campaigns {
            if campaign.detected_fraction() < floor {
                eprintln!(
                    "error: '{}' detected fraction {:.3} below floor {floor:.3}",
                    campaign.design,
                    campaign.detected_fraction()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &baseline {
        match check_faults_baseline(&campaigns, path) {
            Ok(lines) => out!("{lines}"),
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `fpgatest trends <runs.jsonl> [--gate PCT]` — render wall-time,
/// counter, and detected-fraction trajectories across the ledger's
/// entries; with `--gate`, exit non-zero when the latest run regresses
/// past the threshold against its predecessor.
fn cmd_trends(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut gate = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => gate = Some(pct),
                None => {
                    eprintln!("error: --gate needs a percent");
                    return ExitCode::from(2);
                }
            },
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("error: unexpected argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("'trends' needs a ledger path");
        return ExitCode::from(2);
    };
    let entries = match ledger::read(&path) {
        Ok(entries) => entries,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let report = ledger::render_trends(&entries, gate);
    out!("{}", report.text);
    if report.gate_exceeded {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// SIGINT flag for `serve`: the handler only stores, a watcher thread
/// does the actual drain (signal handlers must not take locks).
static SERVE_SIGINT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn serve_on_sigint(_signum: i32) {
    SERVE_SIGINT.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs the SIGINT hook via libc's `signal` (std links libc; no
/// crate needed). Unix-only; elsewhere `shutdown` requests still work.
#[cfg(unix)]
fn install_serve_sigint() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, serve_on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_serve_sigint() {}

fn cmd_serve(args: &[String]) -> ExitCode {
    use fpgatest::serve::{ServeOptions, Server};
    let mut listen = "127.0.0.1:7411".to_string();
    let mut options = ServeOptions::default();
    let mut it = args.iter();
    let result = (|| -> Result<(), String> {
        while let Some(arg) = it.next() {
            let mut value = |what: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("'{what}' needs a value"))
            };
            match arg.as_str() {
                "--listen" => listen = value("--listen")?,
                "--workers" => {
                    options.workers = value("--workers")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--workers needs an integer >= 1")?;
                }
                "--cache" => {
                    options.cache_capacity = value("--cache")?
                        .parse()
                        .map_err(|_| "--cache needs an integer".to_string())?;
                }
                "--timeout" => {
                    options.default_wall_ms = value("--timeout")?
                        .parse()
                        .map_err(|_| "--timeout needs milliseconds".to_string())?;
                }
                "--ledger" => options.ledger = Some(PathBuf::from(value("--ledger")?)),
                "--retries" => {
                    options.retries = value("--retries")?
                        .parse()
                        .map_err(|_| "--retries needs an integer".to_string())?;
                }
                "--backoff" => {
                    options.backoff_base_ms = value("--backoff")?
                        .parse()
                        .map_err(|_| "--backoff needs milliseconds".to_string())?;
                }
                "--max-queue" => {
                    options.max_queue = value("--max-queue")?
                        .parse()
                        .map_err(|_| "--max-queue needs an integer (0 = unbounded)".to_string())?;
                }
                "--max-line" => {
                    options.max_line_len = value("--max-line")?
                        .parse()
                        .map_err(|_| "--max-line needs bytes".to_string())?;
                }
                "--read-deadline" => {
                    options.read_deadline_ms = value("--read-deadline")?
                        .parse()
                        .map_err(|_| "--read-deadline needs milliseconds".to_string())?;
                }
                "--idle-timeout" => {
                    options.idle_ms = value("--idle-timeout")?
                        .parse()
                        .map_err(|_| "--idle-timeout needs milliseconds".to_string())?;
                }
                "--chaos" => {
                    options.chaos = Some(
                        value("--chaos")?
                            .parse()
                            .map_err(|_| "--chaos needs a seed integer".to_string())?,
                    );
                }
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        Ok(())
    })();
    if let Err(message) = result {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }
    let workers = options.workers;
    let cache = options.cache_capacity;
    let chaos = options.chaos;
    let server = match Server::bind(&listen, options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            return ExitCode::from(2);
        }
    };
    outln!(
        "fpgatest serve: listening on {} ({workers} workers, cache {cache} designs)",
        server.local_addr()
    );
    if let Some(seed) = chaos {
        eprintln!("fpgatest serve: CHAOS MODE — workers will be killed deterministically (seed {seed})");
    }
    let _ = std::io::stdout().flush();
    install_serve_sigint();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if SERVE_SIGINT.load(std::sync::atomic::Ordering::SeqCst) {
            eprintln!("fpgatest serve: SIGINT — draining");
            handle.shutdown();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
    match server.run() {
        Ok(()) => {
            outln!("fpgatest serve: drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Builds the serve job for one manifest case, carrying the case's own
/// compile/engine/watchdog options so served verdicts match in-process
/// runs of the same manifest.
fn job_from_case(
    case: &fpgatest::suite::TestCase,
    engine_override: Option<Engine>,
    events: bool,
    no_cache: bool,
    wall_override: Option<u64>,
) -> fpgatest::serve::JobSpec {
    let mut spec = fpgatest::serve::JobSpec::test(&case.name, &case.source);
    spec.stimuli = case.stimuli.clone();
    spec.width = Some(case.options.compile.width);
    spec.partitions = Some(case.options.compile.partitions);
    spec.policy = Some(case.options.compile.policy);
    spec.optimize = case.options.compile.optimize;
    spec.engine = engine_override.unwrap_or(case.options.engine);
    spec.max_ticks = Some(case.options.max_ticks);
    spec.wall_ms = wall_override.or(case.options.wall_timeout_ms);
    spec.events = events;
    spec.no_cache = no_cache;
    spec
}

fn cmd_submit(args: &[String]) -> ExitCode {
    use fpgatest::serve::Client;
    let mut addr = "127.0.0.1:7411".to_string();
    let mut manifest: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut engine: Option<Engine> = None;
    let mut faults = false;
    let mut seed = 1u64;
    let mut sites = 200usize;
    let mut shards = 0usize;
    let mut max_ticks: Option<u64> = None;
    let mut wall_ms: Option<u64> = None;
    let mut events_out: Option<String> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut stats = false;
    let mut shutdown = false;
    let mut shed = false;
    let mut it = args.iter();
    let result = (|| -> Result<(), String> {
        while let Some(arg) = it.next() {
            let mut value = |what: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("'{what}' needs a value"))
            };
            match arg.as_str() {
                "--addr" => addr = value("--addr")?,
                "--design" => only.push(value("--design")?),
                "--engine" => engine = Some(value("--engine")?.parse()?),
                "--faults" => faults = true,
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an integer".to_string())?;
                }
                "--sites" => {
                    sites = value("--sites")?
                        .parse()
                        .map_err(|_| "--sites needs an integer".to_string())?;
                }
                "--shards" => {
                    shards = value("--shards")?
                        .parse()
                        .map_err(|_| "--shards needs an integer".to_string())?;
                }
                "--max-ticks" => {
                    max_ticks = Some(
                        value("--max-ticks")?
                            .parse()
                            .map_err(|_| "--max-ticks needs an integer".to_string())?,
                    );
                }
                "--timeout" => {
                    wall_ms = Some(
                        value("--timeout")?
                            .parse()
                            .map_err(|_| "--timeout needs milliseconds".to_string())?,
                    );
                }
                "--events-out" => events_out = Some(value("--events-out")?),
                "--report" => report_out = Some(PathBuf::from(value("--report")?)),
                "--no-cache" => no_cache = true,
                "--stats" => stats = true,
                "--shutdown" => shutdown = true,
                "--shed" => shed = true,
                other if manifest.is_none() && !other.starts_with("--") => {
                    manifest = Some(PathBuf::from(other));
                }
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        Ok(())
    })();
    if let Err(message) = result {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }

    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::from(2);
        }
    };

    // Control modes need no manifest.
    if stats || shutdown {
        let response = if stats {
            client.stats()
        } else if shed {
            client.shutdown_shed()
        } else {
            client.shutdown()
        };
        return match response {
            Ok(mut json) => {
                json.sort_keys();
                outln!("{}", json.emit_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let Some(manifest) = manifest else {
        eprintln!("'submit' needs a manifest path (or --stats / --shutdown)");
        return ExitCode::from(2);
    };
    let suite = match suite::load_manifest(&manifest) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cases: Vec<_> = suite
        .cases()
        .iter()
        .filter(|c| only.is_empty() || only.iter().any(|n| n == &c.name))
        .collect();
    if cases.is_empty() {
        eprintln!("error: no matching cases in {}", manifest.display());
        return ExitCode::from(2);
    }
    for case in &cases {
        if !case.options.faults.is_empty() {
            eprintln!(
                "warning: '{}' has fault directives; serve test jobs ignore them \
                 (use --faults for a campaign)",
                case.name
            );
        }
    }

    let events = events_out.is_some();
    if let Some(path) = &events_out {
        let writer: Box<dyn std::io::Write> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            match std::fs::File::create(path) {
                Ok(file) => Box::new(file),
                Err(e) => {
                    eprintln!("error: cannot open {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        };
        client.stream_events_to(writer);
    }

    // Submit everything first so the daemon's worker pool runs cases in
    // parallel, then collect verdicts in manifest order. Specs are kept
    // so a lost daemon can be survived: reconnect, resume by id, or
    // resubmit when the restarted daemon no longer knows the id.
    let mut submitted: Vec<(String, u64, fpgatest::serve::JobSpec)> = Vec::new();
    for case in &cases {
        let spec = if faults {
            let mut spec =
                fpgatest::serve::JobSpec::faults(&case.name, &case.source, seed, sites);
            spec.stimuli = case.stimuli.clone();
            spec.width = Some(case.options.compile.width);
            spec.partitions = Some(case.options.compile.partitions);
            spec.policy = Some(case.options.compile.policy);
            spec.optimize = case.options.compile.optimize;
            spec.engine = engine.unwrap_or(case.options.engine);
            spec.max_ticks = max_ticks;
            spec.wall_ms = wall_ms;
            spec.events = events;
            spec.shards = shards;
            spec
        } else {
            job_from_case(case, engine, events, no_cache, wall_ms)
        };
        match client.submit(&spec) {
            Ok(id) => submitted.push((case.name.clone(), id, spec)),
            Err(e) => {
                eprintln!("error: submitting '{}': {e}", case.name);
                return ExitCode::from(2);
            }
        }
    }

    let mut outcomes = Vec::new();
    for (name, id, spec) in &submitted {
        match client.wait_or_resubmit(*id, spec) {
            Ok(outcome) => {
                let detail = if outcome.detail.is_empty() {
                    String::new()
                } else {
                    format!(" — {}", outcome.detail)
                };
                let attempts = if outcome.attempts > 1 {
                    format!(", {} attempts", outcome.attempts)
                } else {
                    String::new()
                };
                outln!(
                    "{name}: {} ({:.3}s{attempts}){detail}",
                    outcome.verdict, outcome.wall_seconds
                );
                outcomes.push((name.clone(), outcome));
            }
            Err(e) => {
                eprintln!("error: waiting for '{name}': {e}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &report_out {
        let jobs: Vec<Json> = outcomes
            .iter()
            .map(|(name, outcome)| {
                Json::obj([
                    ("name", Json::from(name.as_str())),
                    ("verdict", Json::from(outcome.verdict.as_str())),
                    ("exit_code", Json::from(i64::from(outcome.exit_code))),
                    ("wall_seconds", Json::from(outcome.wall_seconds)),
                    ("attempts", Json::from(outcome.attempts)),
                    ("detail", Json::from(outcome.detail.as_str())),
                    ("report", outcome.report.clone()),
                ])
            })
            .collect();
        let mut json = Json::obj([
            ("schema", Json::from("fpgatest-submit-v1")),
            ("addr", Json::from(addr.as_str())),
            ("jobs", Json::Arr(jobs)),
        ]);
        json.sort_keys();
        if let Err(e) = std::fs::write(path, json.emit_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        outln!("report written to {}", path.display());
    }

    exit(suite::fold_exit_code(
        outcomes.iter().map(|(_, outcome)| outcome.verdict.as_str()),
    ))
}

/// Compares campaign coverage against a checked-in `fpgatest-faults-v1`
/// report: every design present in the baseline must detect at least the
/// baseline's fraction (small float slack for summary rounding).
fn check_faults_baseline(
    campaigns: &[fpgatest::faults::CampaignReport],
    path: &Path,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))?;
    let empty: [Json; 0] = [];
    let entries = json
        .get("campaigns")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let mut out = String::new();
    for campaign in campaigns {
        let Some(entry) = entries
            .iter()
            .find(|e| e.get("design").and_then(Json::as_str) == Some(campaign.design.as_str()))
        else {
            out.push_str(&format!(
                "baseline: no entry for '{}' (new design)\n",
                campaign.design
            ));
            continue;
        };
        let floor = entry
            .get("detected_fraction")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let now = campaign.detected_fraction();
        if now + 1e-9 < floor {
            return Err(format!(
                "'{}' detected fraction regressed: {now:.3} < baseline {floor:.3}",
                campaign.design
            ));
        }
        out.push_str(&format!(
            "baseline: '{}' detected {now:.3} (baseline {floor:.3}) ok\n",
            campaign.design
        ));
    }
    Ok(out)
}

fn parse_jobs(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("--jobs needs an integer >= 1".to_string()),
    }
}

struct TestArgs {
    source: PathBuf,
    stimuli: Vec<(String, PathBuf)>,
    options: FlowOptions,
    artifacts: Option<PathBuf>,
    telemetry: TelemetryArgs,
    jobs: usize,
}

fn parse_test_args(args: &[String]) -> Result<TestArgs, String> {
    let mut source = None;
    let mut stimuli = Vec::new();
    let mut options = FlowOptions::default();
    let mut artifacts = None;
    let mut telemetry_args = TelemetryArgs::default();
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("'{what}' needs a value"))
        };
        if telemetry_args.accept(arg, &mut value)? {
            continue;
        }
        match arg.as_str() {
            "--stimulus" => {
                let v = value("--stimulus")?;
                let (mem, file) = v
                    .split_once('=')
                    .ok_or_else(|| "--stimulus takes mem=file".to_string())?;
                stimuli.push((mem.to_string(), PathBuf::from(file)));
            }
            "--width" => {
                options.compile.width = value("--width")?
                    .parse()
                    .map_err(|_| "--width needs an integer".to_string())?;
            }
            "--partitions" => {
                options.compile.partitions = value("--partitions")?
                    .parse()
                    .map_err(|_| "--partitions needs an integer".to_string())?;
            }
            "--policy" => {
                options.compile.policy = match value("--policy")?.as_str() {
                    "list" => SchedulePolicy::List,
                    "one-op-per-state" => SchedulePolicy::OneOpPerState,
                    other => return Err(format!("unknown policy '{other}'")),
                };
            }
            "--optimize" => options.compile.optimize = true,
            "--engine" => options.engine = value("--engine")?.parse()?,
            "--fault" => options.faults.push(FaultSpec::parse(&value("--fault")?)?),
            "--max-ticks" => {
                options.max_ticks = value("--max-ticks")?
                    .parse()
                    .map_err(|_| "--max-ticks needs an integer".to_string())?;
            }
            "--timeout" => {
                options.wall_timeout_ms = Some(
                    value("--timeout")?
                        .parse()
                        .map_err(|_| "--timeout needs milliseconds".to_string())?,
                );
            }
            "--trace" => options.trace = true,
            "--artifacts" => artifacts = Some(PathBuf::from(value("--artifacts")?)),
            "--jobs" => jobs = parse_jobs(&value("--jobs")?)?,
            other if source.is_none() && !other.starts_with("--") => {
                source = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(TestArgs {
        source: source.ok_or_else(|| "missing source file".to_string())?,
        stimuli,
        options,
        artifacts,
        telemetry: telemetry_args,
        jobs,
    })
}

fn cmd_test(args: &[String]) -> ExitCode {
    let parsed = match parse_test_args(args) {
        Ok(p) => p,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // A manifest runs the whole suite, so the observability flags work
    // uniformly across `run` and `test`.
    if parsed.source.extension().is_some_and(|e| e == "manifest") {
        let engine = (parsed.options.engine != Engine::default()).then_some(parsed.options.engine);
        return run_suite(&parsed.source, &parsed.telemetry, parsed.jobs, engine);
    }
    // One source runs as a one-case suite: the same shield, telemetry and
    // event framing as a manifest, but the case's own report and exit
    // code.
    let case = match load_source_case(&parsed) {
        Ok(case) => case,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let engine = Some(parsed.options.engine);
    let suite = Suite::new().with_case(case);
    let print = |report: &SuiteReport| print_case(&report.results[0].1, &parsed);
    let report = run_recorded(
        suite,
        &parsed.source,
        "test",
        &parsed.telemetry,
        1,
        engine,
        print,
    );
    match report {
        Ok(report) => exit(report.results[0].1.exit_code()),
        Err(code) => code,
    }
}

/// Prints a single design's verdict: a finished case's report and Table
/// I row on stdout (and its `--artifacts`), any other verdict on stderr.
fn print_case(result: &CaseResult, parsed: &TestArgs) -> Result<(), ExitCode> {
    match result {
        CaseResult::Finished(report) => {
            out!("{}", report.render());
            if parsed.telemetry.verbose {
                let rows = std::slice::from_ref(&report.metrics);
                outln!("{}", metrics::render_table1_ext(rows));
            } else {
                outln!("{}", report.metrics);
            }
            if let Some(dir) = &parsed.artifacts {
                if let Err(e) = write_artifacts(dir, report) {
                    eprintln!("cannot write artifacts: {e}");
                    return Err(ExitCode::from(2));
                }
                outln!("artifacts written to {}", dir.display());
            }
        }
        CaseResult::Errored(e) => eprintln!("flow error: {e}"),
        CaseResult::Crashed(message) => eprintln!("crash: {message}"),
        CaseResult::TimedOut { reason } => eprintln!("timeout: {reason}"),
    }
    Ok(())
}

/// Loads `fpgatest test SOURCE` as a case named after the file stem,
/// with its stimuli and flow options.
fn load_source_case(parsed: &TestArgs) -> Result<TestCase, String> {
    let source = std::fs::read_to_string(&parsed.source)
        .map_err(|e| format!("cannot read {}: {e}", parsed.source.display()))?;
    let name = parsed
        .source
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "design".to_string());
    let mut case = TestCase::new(name, source).with_options(parsed.options.clone());
    for (mem, file) in &parsed.stimuli {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let stimulus =
            stimulus::parse(&text).map_err(|e| format!("stimulus {}: {e}", file.display()))?;
        case = case.with_stimulus(mem, stimulus);
    }
    Ok(case)
}

fn write_artifacts(dir: &Path, report: &fpgatest::TestReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if let Some(artifacts) = &report.artifacts {
        std::fs::write(dir.join("rtg.xml"), &artifacts.rtg_xml)?;
        std::fs::write(dir.join("rtg.dot"), &artifacts.rtg_dot)?;
        std::fs::write(dir.join("rtg_controller.java"), &artifacts.controller_src)?;
        for config in &artifacts.configs {
            std::fs::write(dir.join(format!("{}_datapath.xml", config.name)), &config.datapath_xml)?;
            std::fs::write(dir.join(format!("{}_fsm.xml", config.name)), &config.fsm_xml)?;
            std::fs::write(dir.join(format!("{}.hds", config.name)), &config.hds)?;
            std::fs::write(dir.join(format!("{}_fsm.java", config.name)), &config.behavior_src)?;
            std::fs::write(dir.join(format!("{}_datapath.dot", config.name)), &config.datapath_dot)?;
            std::fs::write(dir.join(format!("{}_fsm.dot", config.name)), &config.fsm_dot)?;
        }
    }
    for run in &report.runs {
        if let Some(vcd) = &run.vcd {
            // Traces dominate artifact volume; buffer the write.
            let file = std::fs::File::create(dir.join(format!("{}.vcd", run.name)))?;
            let mut out = std::io::BufWriter::new(file);
            out.write_all(vcd.as_bytes())?;
            out.flush()?;
        }
    }
    for (mem, image) in &report.sim_mems {
        std::fs::write(dir.join(format!("{mem}.mem")), stimulus::emit(mem, image))?;
    }
    Ok(())
}

fn cmd_compile(args: &[String]) -> ExitCode {
    // Reuse the test parser; --out is mandatory and doubles as artifacts.
    let mut rewritten: Vec<String> = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            match it.next() {
                Some(dir) => out = Some(dir.clone()),
                None => {
                    eprintln!("'--out' needs a directory");
                    return ExitCode::from(2);
                }
            }
        } else {
            rewritten.push(arg.clone());
        }
    }
    let Some(out) = out else {
        eprintln!("'compile' needs --out DIR");
        return ExitCode::from(2);
    };
    rewritten.push("--artifacts".to_string());
    rewritten.push(out);

    // Compile-only: run the flow with no stimuli; designs that read
    // uninitialized inputs would fail the golden run, so emit artifacts
    // straight from the compiler instead of the full flow.
    let parsed = match parse_test_args(&rewritten) {
        Ok(p) => p,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&parsed.source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", parsed.source.display());
            return ExitCode::from(2);
        }
    };
    let name = parsed
        .source
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "design".to_string());
    let design = match nenya::compile(&name, &source, &parsed.options.compile) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = parsed.artifacts.expect("--out mapped to artifacts");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let rtg_doc = nenya::xml::emit_rtg(&design.rtg);
    let mut files = vec![("rtg.xml".to_string(), rtg_doc.to_pretty_string())];
    for config in &design.configs {
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
        let hds = xform::apply(xform::stylesheets::datapath_to_hds(), dp_doc.root())
            .unwrap_or_default();
        let behavior = xform::apply(xform::stylesheets::fsm_to_behavior(), fsm_doc.root())
            .unwrap_or_default();
        files.push((format!("{}_datapath.xml", config.name), dp_doc.to_pretty_string()));
        files.push((format!("{}_fsm.xml", config.name), fsm_doc.to_pretty_string()));
        files.push((format!("{}.hds", config.name), hds));
        files.push((format!("{}_fsm.java", config.name), behavior));
        outln!(
            "{}: {} operators, {} states",
            config.name,
            config.datapath.operator_count(),
            config.fsm.state_count()
        );
    }
    for (file, contents) in files {
        if let Err(e) = std::fs::write(dir.join(&file), contents) {
            eprintln!("cannot write {file}: {e}");
            return ExitCode::from(2);
        }
    }
    outln!("artifacts written to {}", dir.display());
    ExitCode::SUCCESS
}
