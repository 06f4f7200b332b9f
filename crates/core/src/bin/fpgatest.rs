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
//! (equivalent to `run`) so the observability flags apply uniformly.
//! Its cases keep the manifest's options, so `test` rejects the case
//! flags, `--stimulus`, `--trace` and `--artifacts` with a manifest, and
//! `--jobs` with one source. A single source runs as a one-case suite:
//! the same watchdogs, the `case.<name>` span over the flow's stages and
//! the suite's event framing, written for every verdict; stdout shows
//! the case's own report.
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
//! --resume <file>           skip the checkpoint's completed prefix
//! ```
//!
//! A campaign interrupted by SIGINT exits 130 after saving a final
//! checkpoint; `--resume` continues it to the same bytes an
//! uninterrupted run produces.
//!
//! `submit` sends each manifest case as a serve job carrying the case's
//! compiler options, engine and watchdogs (`serve::JobSpec::from_case`);
//! `--engine`, `--max-ticks` and `--timeout` override them for every
//! job.
//!
//! `compile` takes `--out DIR` and the compiler's options alone
//! (`--width`, `--partitions`, `--policy`, `--optimize`). It compiles
//! and transforms the design without running it and writes the design
//! files `test --artifacts` writes: `rtg.xml`, `rtg.dot`,
//! `rtg_controller.java` and, per configuration, `<config>_datapath.xml`,
//! `<config>_fsm.xml`, `<config>.hds`, `<config>_fsm.java`,
//! `<config>_datapath.dot` and `<config>_fsm.dot` (`test` adds the VCDs
//! and the final memory images).
//!
//! Every subcommand reads its flags through `fpgatest::flags`: an
//! unknown flag, a missing or bad value and a second positional
//! argument exit 2 with a message naming it, and the last value of a
//! repeated flag wins. The case options (`--width` through `--timeout`)
//! are read by `suite::read_case_flag`, from the table the manifest
//! directives use too.
//!
//! Exit codes: 0 = everything passed; 1 = verification failed (or fault
//! coverage below the requested floor/baseline); 2 = usage, manifest or
//! flow error; 3 = a case crashed the harness (caught panic); 4 = a
//! watchdog (tick or wall-clock) tripped. A single design exits with its
//! own case's code, so its flow error exits 2; in a suite (`run`,
//! `submit`) crashes outrank timeouts, and a case's flow error counts as
//! a failure (1).

use fpgatest::events::EventSink;
use fpgatest::faults::{campaign_json, CampaignOptions, InjectionOutcome, ShardedCampaignOptions};
use fpgatest::flags::{self, Value};
use fpgatest::flow::{Artifacts, Engine, FlowOptions};
use fpgatest::ledger::{self, LedgerEntry};
use fpgatest::serve::{Client, JobKind, JobSpec, ServeOptions, Server};
use fpgatest::suite::{CaseResult, Suite, SuiteReport, TestCase};
use fpgatest::telemetry::{self, Json, Recorder, SpanSink};
use fpgatest::{metrics, out, outln, stimulus, suite};
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// A subcommand: its exit code, or a usage, manifest or I/O error that
/// exits 2.
type Command = fn(&[String]) -> Result<ExitCode, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command: Command = match args.first().map(String::as_str) {
        Some("run") => cmd_run,
        Some("test") => cmd_test,
        Some("faults") => cmd_faults,
        Some("trends") => cmd_trends,
        Some("serve") => cmd_serve,
        Some("submit") => cmd_submit,
        Some("compile") => cmd_compile,
        Some("figure1") => {
            out!("{}", fpgatest::dot::flow_diagram());
            return ExitCode::SUCCESS;
        }
        Some("--help") | Some("-h") | None => {
            usage();
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            usage();
            return ExitCode::from(2);
        }
    };
    command(&args[1..]).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
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
  fpgatest submit <suite.manifest> --addr ADDR [--design NAME]... [--engine E]
                [--faults --seed N --sites N [--shards N]] [--max-ticks N]
                [--timeout MS] [--events-out FILE|-] [--report FILE] [--no-cache]
  fpgatest submit --addr ADDR --stats | --shutdown | --shed
  fpgatest compile <prog.src> --out DIR [--width N] [--partitions K]
                [--policy list|one-op-per-state] [--optimize]
                (writes rtg.xml/.dot, rtg_controller.java and each
                configuration's XML, .hds, _fsm.java and .dot files)
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
    /// Reads one observability flag; `Ok(false)` for any other.
    fn read(&mut self, flag: &str, value: &mut Value) -> Result<bool, String> {
        match flag {
            "--metrics-out" => self.metrics_out = Some(value.parse()?),
            "--trace-log" => self.trace_log = Some(value.parse()?),
            "--baseline" => self.baseline = Some(value.parse()?),
            "--verbose" => self.verbose = true,
            "--events-out" => self.events_out = Some(value.parse()?),
            "--profile" => self.profile = true,
            "--profile-folded" => {
                self.profile_folded = Some(value.parse()?);
                // Folded stacks only exist when timing is collected.
                self.profile = true;
            }
            "--ledger" => self.ledger = Some(value.parse()?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Opens an `--events-out` sink (disabled when the flag is absent).
fn event_sink(path: Option<&str>) -> Result<EventSink, String> {
    match path {
        None => Ok(EventSink::disabled()),
        Some(path) => EventSink::to_path(path).map_err(|e| format!("cannot open {path}: {e}")),
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
) -> Result<ExitCode, String> {
    let suite = suite::load_manifest(manifest).map_err(|e| e.to_string())?;
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
    )?;
    Ok(exit(report.exit_code()))
}

/// Runs `suite` under the observability flags, its events keyed by `key`
/// and `engine` overriding every case's engine. `print` writes the run's
/// stdout report; the telemetry files and the ledger line (`command`
/// over `key`) follow it, for every verdict. Returns the report, or the
/// error that kept it from running or being recorded.
fn run_recorded(
    mut suite: Suite,
    key: &Path,
    command: &str,
    telemetry_args: &TelemetryArgs,
    jobs: usize,
    engine: Option<Engine>,
    print: impl FnOnce(&SuiteReport) -> Result<(), String>,
) -> Result<SuiteReport, String> {
    if let Some(engine) = engine {
        suite.set_engine(engine);
    }
    suite.set_events(
        event_sink(telemetry_args.events_out.as_deref())?,
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
    emit_telemetry(&report, &spans.take(), telemetry_args, engine)?;
    if let Some(path) = &telemetry_args.ledger {
        let entry = LedgerEntry {
            engine: engine.to_string(),
            wall_seconds,
            passed: report.passed() as u64,
            failed: report.failed() as u64,
            counters: suite_counters(&report),
            ..LedgerEntry::new(command, &key.display().to_string())
        };
        append_ledger(path, &entry)?;
    }
    Ok(report)
}

/// The process exit code for a run's exit code.
fn exit(code: i32) -> ExitCode {
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut telemetry_args = TelemetryArgs::default();
    let (mut jobs, mut engine) = (1, None);
    let manifest = flags::read(args, |flag, value| {
        match flag {
            "--jobs" => jobs = value.parse::<NonZeroUsize>()?.get(),
            "--engine" => engine = Some(value.parse()?),
            _ => return telemetry_args.read(flag, value),
        }
        Ok(true)
    })?
    .ok_or("'run' needs a manifest path")?;
    run_suite(Path::new(&manifest), &telemetry_args, jobs, engine)
}

/// The cases of `manifest`, or only those `only` names when it names
/// any.
fn load_cases(manifest: &Path, only: &[String]) -> Result<Vec<TestCase>, String> {
    let suite = suite::load_manifest(manifest).map_err(|e| e.to_string())?;
    let cases: Vec<TestCase> = suite
        .cases()
        .iter()
        .filter(|c| only.is_empty() || only.contains(&c.name))
        .cloned()
        .collect();
    if cases.is_empty() {
        return Err(format!("no matching cases in {}", manifest.display()));
    }
    Ok(cases)
}

/// `fpgatest faults <suite.manifest>` — run a fault-injection campaign
/// against every case of a manifest (or `--design NAME` only), classify
/// each injection, and optionally gate on a coverage floor or a
/// previously checked-in report.
fn cmd_faults(args: &[String]) -> Result<ExitCode, String> {
    let mut options = CampaignOptions::default();
    let mut shard = ShardedCampaignOptions {
        shards: fpgatest::campaign::default_shards(),
        sigint: true,
        ..ShardedCampaignOptions::default()
    };
    let mut only = Vec::new();
    let (mut report_out, mut baseline, mut ledger_out) = (None, None, None);
    let (mut min_detected, mut events_out) = (None, None);
    let manifest = flags::read(args, |flag, value| {
        match flag {
            "--engine" => options.engine = value.parse()?,
            "--seed" => options.seed = value.parse()?,
            "--sites" => options.sites = value.parse()?,
            "--max-ticks" => options.max_ticks = Some(value.parse()?),
            "--design" => only.push(value.parse()?),
            "--report" => report_out = Some(value.parse::<PathBuf>()?),
            "--min-detected" => min_detected = Some(value.parse::<f64>()?),
            "--baseline" => baseline = Some(value.parse::<PathBuf>()?),
            "--events-out" => events_out = Some(value.parse::<String>()?),
            "--ledger" => ledger_out = Some(value.parse::<PathBuf>()?),
            "--shards" => shard.shards = value.parse()?,
            "--checkpoint" => shard.checkpoint = Some(value.parse()?),
            "--checkpoint-every" => shard.checkpoint_every = value.parse()?,
            "--resume" => shard.resume = Some(value.parse()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .ok_or("'faults' needs a manifest path")?;
    let manifest = PathBuf::from(manifest);
    let cases = load_cases(&manifest, &only)?;
    options.events = event_sink(events_out.as_deref())?;
    // A checkpoint's identity is one design.
    if (shard.checkpoint.is_some() || shard.resume.is_some()) && cases.len() != 1 {
        return Err(format!(
            "--checkpoint and --resume run one design at a time; narrow with --design \
             ({} cases matched)",
            cases.len()
        ));
    }
    fpgatest::campaign::install_sigint();
    let campaigns_started = Instant::now();
    let mut campaigns = Vec::new();
    for case in &cases {
        let outcome = fpgatest::faults::run_campaign_sharded(case, &options, &shard)
            .map_err(|e| format!("campaign '{}': {e}", case.name))?;
        if let Some(note) = &outcome.salvage {
            eprintln!("fpgatest: {note}");
        }
        if outcome.interrupted {
            eprintln!("fpgatest: interrupted; checkpoint holds the completed prefix");
            return Ok(ExitCode::from(130));
        }
        out!("{}", outcome.report.render());
        campaigns.push(outcome.report);
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
        std::fs::write(path, json.emit_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
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
            engine: options.engine.to_string(),
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
        append_ledger(path, &entry)?;
    }

    // A crashed injection is a harness bug regardless of coverage.
    let crashed: usize = campaigns
        .iter()
        .map(|c| c.count(InjectionOutcome::Crashed))
        .sum();
    if crashed > 0 {
        eprintln!("error: {crashed} injections crashed the harness");
        return Ok(ExitCode::from(3));
    }
    if let Some(floor) = min_detected {
        for campaign in &campaigns {
            if campaign.detected_fraction() < floor {
                eprintln!(
                    "error: '{}' detected fraction {:.3} below floor {floor:.3}",
                    campaign.design,
                    campaign.detected_fraction()
                );
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if let Some(path) = &baseline {
        match check_faults_baseline(&campaigns, path) {
            Ok(lines) => out!("{lines}"),
            Err(message) => {
                eprintln!("error: {message}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `fpgatest trends <runs.jsonl> [--gate PCT]` — render wall-time,
/// counter, and detected-fraction trajectories across the ledger's
/// entries; with `--gate`, exit non-zero when the latest run regresses
/// past the threshold against its predecessor.
fn cmd_trends(args: &[String]) -> Result<ExitCode, String> {
    let mut gate = None;
    let path = flags::read(args, |flag, value| {
        match flag {
            "--gate" => gate = Some(value.parse()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .ok_or("'trends' needs a ledger path")?;
    let entries = ledger::read(Path::new(&path))?;
    let report = ledger::render_trends(&entries, gate);
    out!("{}", report.text);
    Ok(if report.gate_exceeded {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut listen = "127.0.0.1:7411".to_string();
    let mut options = ServeOptions::default();
    flags::read_flags(args, |flag, value| {
        match flag {
            "--listen" => listen = value.parse()?,
            "--workers" => options.workers = value.parse::<NonZeroUsize>()?.get(),
            "--cache" => options.cache_capacity = value.parse()?,
            "--timeout" => options.default_wall_ms = value.parse()?,
            "--ledger" => options.ledger = Some(value.parse()?),
            "--retries" => options.retries = value.parse()?,
            "--backoff" => options.backoff_base_ms = value.parse()?,
            "--max-queue" => options.max_queue = value.parse()?,
            "--max-line" => options.max_line_len = value.parse()?,
            "--read-deadline" => options.read_deadline_ms = value.parse()?,
            "--idle-timeout" => options.idle_ms = value.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let workers = options.workers;
    let cache = options.cache_capacity;
    let server =
        Server::bind(&listen, options).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    outln!(
        "fpgatest serve: listening on {} ({workers} workers, cache {cache} designs)",
        server.local_addr()
    );
    let _ = std::io::stdout().flush();
    // The handler only sets a flag (signal handlers must not take
    // locks); a watcher thread does the actual drain. Served fault jobs
    // do not stop on it, so a drain lets them finish.
    fpgatest::campaign::install_sigint();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if fpgatest::campaign::sigint_pending() {
            eprintln!("fpgatest serve: SIGINT — draining");
            handle.shutdown();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    outln!("fpgatest serve: drained and stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut only = Vec::new();
    let (mut engine, mut max_ticks, mut wall_ms) = (None, None, None);
    let (mut faults, mut seed, mut sites, mut shards) = (false, 1, 200, 0);
    let (mut events_out, mut report_out) = (None::<String>, None::<PathBuf>);
    let (mut no_cache, mut stats, mut shutdown, mut shed) = (false, false, false, false);
    let manifest = flags::read(args, |flag, value| {
        match flag {
            "--addr" => addr = value.parse()?,
            "--design" => only.push(value.parse()?),
            "--engine" => engine = Some(value.parse()?),
            "--faults" => faults = true,
            "--seed" => seed = value.parse()?,
            "--sites" => sites = value.parse()?,
            "--shards" => shards = value.parse()?,
            "--max-ticks" => max_ticks = Some(value.parse()?),
            "--timeout" => wall_ms = Some(value.parse()?),
            "--events-out" => events_out = Some(value.parse()?),
            "--report" => report_out = Some(value.parse()?),
            "--no-cache" => no_cache = true,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--shed" => shed = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;

    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    // Control modes need no manifest.
    if stats || shutdown {
        let response = if stats {
            client.stats()
        } else if shed {
            client.shutdown_shed()
        } else {
            client.shutdown()
        };
        let mut json = response.map_err(|e| e.to_string())?;
        json.sort_keys();
        outln!("{}", json.emit_pretty());
        return Ok(ExitCode::SUCCESS);
    }

    let manifest =
        PathBuf::from(manifest.ok_or("'submit' needs a manifest path (or --stats / --shutdown)")?);
    let cases = load_cases(&manifest, &only)?;
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
            Box::new(std::fs::File::create(path).map_err(|e| format!("cannot open {path}: {e}"))?)
        };
        client.stream_events_to(writer);
    }

    // Submit everything first so the daemon's worker pool runs cases in
    // parallel, then collect verdicts in manifest order. Specs are kept
    // so a lost daemon can be survived: reconnect, resume by id, or
    // resubmit when the daemon no longer knows the id.
    let kind = if faults {
        JobKind::Faults
    } else {
        JobKind::Test
    };
    let mut submitted: Vec<(String, u64, JobSpec)> = Vec::new();
    for case in &cases {
        let mut spec = JobSpec::from_case(kind, case);
        spec.engine = engine.unwrap_or(spec.engine);
        spec.max_ticks = max_ticks.or(spec.max_ticks);
        spec.wall_ms = wall_ms.or(spec.wall_ms);
        spec.events = events;
        spec.no_cache = no_cache;
        if faults {
            (spec.seed, spec.sites, spec.shards) = (seed, sites, shards);
        }
        let id = client
            .submit(&spec)
            .map_err(|e| format!("submitting '{}': {e}", case.name))?;
        submitted.push((case.name.clone(), id, spec));
    }

    let mut outcomes = Vec::new();
    for (name, id, spec) in &submitted {
        let outcome = client
            .wait_or_resubmit(*id, spec)
            .map_err(|e| format!("waiting for '{name}': {e}"))?;
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
            outcome.verdict,
            outcome.wall_seconds
        );
        outcomes.push((name.clone(), outcome));
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
        std::fs::write(path, json.emit_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        outln!("report written to {}", path.display());
    }

    Ok(exit(suite::fold_exit_code(
        outcomes.iter().map(|(_, outcome)| outcome.verdict.as_str()),
    )))
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

fn cmd_test(args: &[String]) -> Result<ExitCode, String> {
    let mut stimuli = Vec::new();
    let mut options = FlowOptions::default();
    let mut artifacts = None;
    let mut telemetry_args = TelemetryArgs::default();
    let mut jobs = None;
    // The first flag given that only a single source takes.
    let mut source_only = None;
    let source = flags::read(args, |flag, value| {
        match flag {
            "--stimulus" => stimuli.push(value.parse_with(|v| {
                v.split_once('=')
                    .map(|(mem, file)| (mem.to_string(), PathBuf::from(file)))
                    .ok_or("takes mem=file")
            })?),
            "--engine" => options.engine = value.parse()?,
            "--trace" => options.trace = true,
            "--artifacts" => artifacts = Some(value.parse::<PathBuf>()?),
            "--jobs" => jobs = Some(value.parse::<NonZeroUsize>()?.get()),
            _ if telemetry_args.read(flag, value)? => return Ok(true),
            _ if !suite::read_case_flag(&mut options, flag, value, false)? => return Ok(false),
            _ => {}
        }
        if !matches!(flag, "--engine" | "--jobs") {
            source_only.get_or_insert_with(|| flag.to_string());
        }
        Ok(true)
    })?
    .ok_or("missing source file")?;
    let source = PathBuf::from(source);
    // A manifest runs the whole suite, so the observability flags work
    // uniformly across `run` and `test`; its cases keep their own options.
    if source.extension().is_some_and(|e| e == "manifest") {
        if let Some(flag) = source_only {
            return Err(format!("'{flag}' applies to one source, not a manifest"));
        }
        let engine = (options.engine != Engine::default()).then_some(options.engine);
        return run_suite(&source, &telemetry_args, jobs.unwrap_or(1), engine);
    }
    if jobs.is_some() {
        return Err("'--jobs' applies to a manifest, not one source".to_string());
    }
    // One source runs as a one-case suite: the same shield, telemetry and
    // event framing as a manifest, but the case's own report and exit
    // code.
    let engine = Some(options.engine);
    let mut case = TestCase::new(file_stem(&source), read_file(&source)?).with_options(options);
    for (mem, file) in &stimuli {
        let stimulus = stimulus::parse(&read_file(file)?)
            .map_err(|e| format!("stimulus {}: {e}", file.display()))?;
        case = case.with_stimulus(mem, stimulus);
    }
    let print = |report: &SuiteReport| {
        print_case(
            &report.results[0].1,
            telemetry_args.verbose,
            artifacts.as_deref(),
        )
    };
    let report = run_recorded(
        Suite::new().with_case(case),
        &source,
        "test",
        &telemetry_args,
        1,
        engine,
        print,
    )?;
    Ok(exit(report.results[0].1.exit_code()))
}

/// Prints a single design's verdict: a finished case's report and Table
/// I row on stdout (and its `--artifacts`), any other verdict on stderr.
fn print_case(result: &CaseResult, verbose: bool, artifacts: Option<&Path>) -> Result<(), String> {
    match result {
        CaseResult::Finished(report) => {
            out!("{}", report.render());
            if verbose {
                let rows = std::slice::from_ref(&report.metrics);
                outln!("{}", metrics::render_table1_ext(rows));
            } else {
                outln!("{}", report.metrics);
            }
            if let Some(dir) = artifacts {
                write_artifacts(dir, report).map_err(|e| format!("cannot write artifacts: {e}"))?;
                outln!("artifacts written to {}", dir.display());
            }
        }
        CaseResult::Errored(e) => eprintln!("flow error: {e}"),
        CaseResult::Crashed(message) => eprintln!("crash: {message}"),
        CaseResult::TimedOut { reason } => eprintln!("timeout: {reason}"),
    }
    Ok(())
}

/// The text of `path`.
fn read_file(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// A source file's design name: its file stem.
fn file_stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "design".to_string())
}

/// Writes a design's textual artifacts into `dir`: the RTG's XML, dot
/// and controller source, and each configuration's XML, `.hds`,
/// behaviour source and dot files.
fn write_design_artifacts(dir: &Path, artifacts: &Artifacts) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("rtg.xml"), &artifacts.rtg_xml)?;
    std::fs::write(dir.join("rtg.dot"), &artifacts.rtg_dot)?;
    std::fs::write(dir.join("rtg_controller.java"), &artifacts.controller_src)?;
    for config in &artifacts.configs {
        let name = &config.name;
        std::fs::write(
            dir.join(format!("{name}_datapath.xml")),
            &config.datapath_xml,
        )?;
        std::fs::write(dir.join(format!("{name}_fsm.xml")), &config.fsm_xml)?;
        std::fs::write(dir.join(format!("{name}.hds")), &config.hds)?;
        std::fs::write(dir.join(format!("{name}_fsm.java")), &config.behavior_src)?;
        std::fs::write(
            dir.join(format!("{name}_datapath.dot")),
            &config.datapath_dot,
        )?;
        std::fs::write(dir.join(format!("{name}_fsm.dot")), &config.fsm_dot)?;
    }
    Ok(())
}

/// `test --artifacts`: the design's artifacts, each configuration's VCD
/// (under `--trace`) and each simulated memory's final image.
fn write_artifacts(dir: &Path, report: &fpgatest::TestReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if let Some(artifacts) = &report.artifacts {
        write_design_artifacts(dir, artifacts)?;
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

/// `fpgatest compile <prog.src> --out DIR` — compile and transform a
/// design and write its artifacts, without running it: a design that
/// reads uninitialised inputs would fail the golden run.
fn cmd_compile(args: &[String]) -> Result<ExitCode, String> {
    let mut options = FlowOptions::default();
    let mut out = None;
    let source = flags::read(args, |flag, value| {
        match flag {
            "--out" => out = Some(value.parse::<PathBuf>()?),
            _ => return suite::read_case_flag(&mut options, flag, value, true),
        }
        Ok(true)
    })?
    .ok_or("'compile' needs a source file")?;
    let out = out.ok_or("'compile' needs --out DIR")?;
    let source = PathBuf::from(source);
    let design = nenya::compile(&file_stem(&source), &read_file(&source)?, &options.compile)
        .map_err(|e| format!("compile error: {e}"))?;
    for config in &design.configs {
        outln!(
            "{}: {} operators, {} states",
            config.name,
            config.datapath.operator_count(),
            config.fsm.state_count()
        );
    }
    let artifacts = fpgatest::flow::prepare_design(design)
        .and_then(|prepared| prepared.artifacts())
        .map_err(|e| e.to_string())?;
    write_design_artifacts(&out, &artifacts)
        .map_err(|e| format!("cannot write artifacts to {}: {e}", out.display()))?;
    outln!("artifacts written to {}", out.display());
    Ok(ExitCode::SUCCESS)
}
