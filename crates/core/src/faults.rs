//! Fault-injection campaigns: qualifying the memory-diff oracle.
//!
//! The flow's pass/fail verdict is a post-simulation comparison of final
//! memory contents against the golden software execution. This module
//! measures how good that oracle actually is: it enumerates hardware
//! fault sites in a compiled design (stuck-at bits, transient SEUs, SRAM
//! word corruption), injects them one at a time into the *simulated*
//! side only, and classifies each injection:
//!
//! * **Detected** — the memory diff fires (or the design fails outright:
//!   an X condition, a bad write, a design assertion).
//! * **Silent** — the faulty run still passes: the fault escaped the
//!   oracle. A high silent fraction means the test stimuli or the
//!   comparison need strengthening.
//! * **Hung** — the fault made the design spin forever (for example a
//!   stuck loop condition) and the tick watchdog tripped.
//! * **Skipped** — the selected engine cannot express the fault class;
//!   reported with a reason, never counted as a pass.
//! * **Crashed** — the harness itself panicked. Always a harness bug;
//!   campaigns gate on this count being zero.
//!
//! Site enumeration is deterministic, and large pools are reduced by
//! seeded sampling (SplitMix64) so a campaign is reproducible from
//! `(design, engine, seed, sites)` alone. Every campaign runs through
//! [`run_campaign_sharded`]: the design is prepared and its golden run
//! made once, the injections spread over worker shards, and the records
//! merge back in sampled-site order, so no output byte depends on the
//! shard count.

use crate::flow::{Engine, FlowError};
use crate::suite::TestCase;
use crate::telemetry::Json;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One injectable hardware fault, engine-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// One bit of a datapath signal permanently forced to a value.
    StuckAt {
        /// Netlist signal name.
        signal: String,
        /// Bit index within the signal.
        bit: u32,
        /// The forced value.
        value: bool,
    },
    /// One bit of a signal inverted once, at a chosen clock cycle.
    BitFlip {
        /// Netlist signal name.
        signal: String,
        /// Bit index within the signal.
        bit: u32,
        /// Clock cycle (0-based rising edge) at which the flip lands.
        cycle: u64,
    },
    /// A transient SEU on a register output (`*_q`) — mechanically a
    /// [`FaultSpec::BitFlip`], kept as its own class because register
    /// state upsets are the classic radiation fault model.
    SeuReg {
        /// Register output signal name.
        signal: String,
        /// Bit index within the register.
        bit: u32,
        /// Clock cycle at which the upset lands.
        cycle: u64,
    },
    /// One bit of one SRAM word inverted in the preloaded initial image.
    SramCorrupt {
        /// Memory name.
        mem: String,
        /// Word address.
        addr: usize,
        /// Bit index within the word.
        bit: u32,
    },
}

impl FaultSpec {
    /// Whether this fault needs mid-run state (a scheduled flip) rather
    /// than a static clamp or an initial-image edit.
    pub fn is_transient(&self) -> bool {
        matches!(self, FaultSpec::BitFlip { .. } | FaultSpec::SeuReg { .. })
    }

    /// Short class name used in reports (`stuck-at`, `bit-flip`,
    /// `seu-reg`, `sram-corrupt`).
    pub fn class(&self) -> &'static str {
        match self {
            FaultSpec::StuckAt { .. } => "stuck-at",
            FaultSpec::BitFlip { .. } => "bit-flip",
            FaultSpec::SeuReg { .. } => "seu-reg",
            FaultSpec::SramCorrupt { .. } => "sram-corrupt",
        }
    }

    /// Parses the canonical syntax produced by [`fmt::Display`]:
    ///
    /// * `stuck0:SIGNAL.BIT` / `stuck1:SIGNAL.BIT` (`.BIT` defaults to 0)
    /// * `flip:SIGNAL.BIT@CYCLE`
    /// * `seu:SIGNAL.BIT@CYCLE`
    /// * `sram:MEM@ADDR.BIT`
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown classes or malformed
    /// operands.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let (class, rest) = text
            .split_once(':')
            .ok_or_else(|| format!("fault '{text}': expected CLASS:TARGET"))?;
        let bad = |what: &str| format!("fault '{text}': bad {what}");
        let split_bit = |s: &str| -> Result<(String, u32), String> {
            match s.rsplit_once('.') {
                Some((name, bit)) => Ok((name.to_string(), bit.parse().map_err(|_| bad("bit"))?)),
                None => Ok((s.to_string(), 0)),
            }
        };
        match class {
            "stuck0" | "stuck1" => {
                let (signal, bit) = split_bit(rest)?;
                Ok(FaultSpec::StuckAt {
                    signal,
                    bit,
                    value: class == "stuck1",
                })
            }
            "flip" | "seu" => {
                let (target, cycle) = rest
                    .split_once('@')
                    .ok_or_else(|| bad("target (expected SIGNAL.BIT@CYCLE)"))?;
                let (signal, bit) = split_bit(target)?;
                let cycle = cycle.parse().map_err(|_| bad("cycle"))?;
                Ok(if class == "flip" {
                    FaultSpec::BitFlip { signal, bit, cycle }
                } else {
                    FaultSpec::SeuReg { signal, bit, cycle }
                })
            }
            "sram" => {
                let (mem, word) = rest
                    .split_once('@')
                    .ok_or_else(|| bad("target (expected MEM@ADDR.BIT)"))?;
                let (addr, bit) = word
                    .split_once('.')
                    .ok_or_else(|| bad("word (expected ADDR.BIT)"))?;
                Ok(FaultSpec::SramCorrupt {
                    mem: mem.to_string(),
                    addr: addr.parse().map_err(|_| bad("address"))?,
                    bit: bit.parse().map_err(|_| bad("bit"))?,
                })
            }
            other => Err(format!(
                "fault '{text}': unknown class '{other}' (expected stuck0, stuck1, flip, seu, or sram)"
            )),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::StuckAt { signal, bit, value } => {
                write!(f, "stuck{}:{signal}.{bit}", u8::from(*value))
            }
            FaultSpec::BitFlip { signal, bit, cycle } => write!(f, "flip:{signal}.{bit}@{cycle}"),
            FaultSpec::SeuReg { signal, bit, cycle } => write!(f, "seu:{signal}.{bit}@{cycle}"),
            FaultSpec::SramCorrupt { mem, addr, bit } => write!(f, "sram:{mem}@{addr}.{bit}"),
        }
    }
}

/// Classification of one injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionOutcome {
    /// The oracle caught the fault (memory diff or design failure).
    Detected,
    /// The faulty run passed — the fault escaped the oracle.
    Silent,
    /// The tick watchdog tripped.
    Hung,
    /// The engine cannot express this fault class (reason in `detail`).
    Skipped,
    /// The harness panicked — always a harness bug.
    Crashed,
}

impl fmt::Display for InjectionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InjectionOutcome::Detected => "detected",
            InjectionOutcome::Silent => "silent",
            InjectionOutcome::Hung => "hung",
            InjectionOutcome::Skipped => "skipped",
            InjectionOutcome::Crashed => "crashed",
        })
    }
}

impl InjectionOutcome {
    /// Parses the [`fmt::Display`] form back (checkpoint resume).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown outcome name.
    pub fn parse(text: &str) -> Result<InjectionOutcome, String> {
        match text {
            "detected" => Ok(InjectionOutcome::Detected),
            "silent" => Ok(InjectionOutcome::Silent),
            "hung" => Ok(InjectionOutcome::Hung),
            "skipped" => Ok(InjectionOutcome::Skipped),
            "crashed" => Ok(InjectionOutcome::Crashed),
            other => Err(format!("unknown injection outcome '{other}'")),
        }
    }
}

/// One classified injection.
#[derive(Debug, Clone)]
pub struct InjectionRecord {
    /// The injected fault.
    pub fault: FaultSpec,
    /// How the run was classified.
    pub outcome: InjectionOutcome,
    /// Supporting evidence (first mismatch, failure message, skip
    /// reason).
    pub detail: String,
}

/// Options for [`run_campaign_sharded`].
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Seed for site sampling.
    pub seed: u64,
    /// Number of injections to run (the site pool is sampled down to
    /// this).
    pub sites: usize,
    /// Engine executing the faulty runs.
    pub engine: Engine,
    /// Tick watchdog per faulty run; `None` derives a budget from the
    /// clean run (5× its ticks, at least 50k).
    pub max_ticks: Option<u64>,
    /// Live `fpgatest-events-v1` stream: campaign start/finish,
    /// per-injection inject/classify pairs, and heartbeats. Disabled by
    /// default.
    pub events: crate::events::EventSink,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seed: 1,
            sites: 200,
            engine: Engine::default(),
            max_ticks: None,
            events: crate::events::EventSink::disabled(),
        }
    }
}

/// Result of one fault campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// Design name.
    pub design: String,
    /// Engine the faulty runs used.
    pub engine: Engine,
    /// Sampling seed.
    pub seed: u64,
    /// Enumerated site-pool size before sampling.
    pub site_pool: usize,
    /// Cycles of the clean (fault-free) reference run.
    pub clean_cycles: u64,
    /// Every injection, in execution order.
    pub injections: Vec<InjectionRecord>,
}

impl CampaignReport {
    /// Number of injections with the given outcome.
    pub fn count(&self, outcome: InjectionOutcome) -> usize {
        self.injections
            .iter()
            .filter(|r| r.outcome == outcome)
            .count()
    }

    /// Detected / (detected + silent + hung) — the oracle's fault
    /// coverage over the injections the engine could express. 0 when
    /// nothing was expressible.
    pub fn detected_fraction(&self) -> f64 {
        let detected = self.count(InjectionOutcome::Detected);
        let denom = detected + self.count(InjectionOutcome::Silent) + self.count(InjectionOutcome::Hung);
        if denom == 0 {
            0.0
        } else {
            detected as f64 / denom as f64
        }
    }

    /// Renders the deterministic human-readable campaign log.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fault campaign: design {} engine {} seed {} pool {} injections {}\n",
            self.design,
            self.engine,
            self.seed,
            self.site_pool,
            self.injections.len()
        );
        for record in &self.injections {
            out.push_str(&format!(
                "  {:<12} {} — {}\n",
                record.outcome.to_string(),
                record.fault,
                record.detail
            ));
        }
        out.push_str(&format!(
            "  detected {} silent {} hung {} skipped {} crashed {} — coverage {:.3}\n",
            self.count(InjectionOutcome::Detected),
            self.count(InjectionOutcome::Silent),
            self.count(InjectionOutcome::Hung),
            self.count(InjectionOutcome::Skipped),
            self.count(InjectionOutcome::Crashed),
            self.detected_fraction()
        ));
        out
    }
}

/// Serializes a campaign as the `fpgatest-faults-v1` JSON schema.
pub fn campaign_json(report: &CampaignReport) -> Json {
    Json::obj([
        ("schema", "fpgatest-faults-v1".into()),
        ("design", report.design.as_str().into()),
        ("engine", report.engine.to_string().into()),
        ("seed", report.seed.into()),
        ("site_pool", report.site_pool.into()),
        ("clean_cycles", report.clean_cycles.into()),
        ("injections", report.injections.len().into()),
        ("detected", report.count(InjectionOutcome::Detected).into()),
        ("silent", report.count(InjectionOutcome::Silent).into()),
        ("hung", report.count(InjectionOutcome::Hung).into()),
        ("skipped", report.count(InjectionOutcome::Skipped).into()),
        ("crashed", report.count(InjectionOutcome::Crashed).into()),
        ("detected_fraction", report.detected_fraction().into()),
        (
            "records",
            Json::Arr(
                report
                    .injections
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("fault", r.fault.to_string().into()),
                            ("class", r.fault.class().into()),
                            ("outcome", r.outcome.to_string().into()),
                            ("detail", r.detail.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The SplitMix64 generator — the same tiny deterministic PRNG the fuzz
/// crate seeds its campaigns with, re-implemented here so `core` does not
/// depend on `fuzz` (the dependency points the other way).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Enumerates the deterministic fault-site pool of a compiled design:
/// per-bit stuck-at-0/1 on every netlist signal, per-bit corruption of
/// every SRAM word, one SEU site per register bit (cycle seeded), and one
/// bit-flip site per signal (bit and cycle seeded). `clean_cycles` bounds
/// the transient schedule.
///
/// # Errors
///
/// Returns a message when the design's netlists cannot be produced.
pub fn enumerate_sites(
    design: &nenya::Design,
    clean_cycles: u64,
    seed: u64,
) -> Result<Vec<FaultSpec>, String> {
    let mut rng = SplitMix64(seed ^ 0xD1F4_17A8_5EED_5EED);
    let mut sites = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let cycle_span = clean_cycles.max(2);
    for config in &design.configs {
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let hds = xform::apply(&xform::stylesheets::datapath_to_hds(), dp_doc.root())
            .map_err(|e| format!("stylesheet: {e}"))?;
        let netlist = eventsim::hds::parse(&hds).map_err(|e| format!("hds: {e}"))?;
        for decl in netlist.signals() {
            if !seen.insert(decl.name.clone()) {
                continue;
            }
            for bit in 0..decl.width {
                for value in [false, true] {
                    sites.push(FaultSpec::StuckAt {
                        signal: decl.name.clone(),
                        bit,
                        value,
                    });
                }
            }
            let bit = rng.below(decl.width as u64) as u32;
            let cycle = 1 + rng.below(cycle_span - 1);
            if decl.name.ends_with("_q") {
                sites.push(FaultSpec::SeuReg {
                    signal: decl.name.clone(),
                    bit,
                    cycle,
                });
            } else {
                sites.push(FaultSpec::BitFlip {
                    signal: decl.name.clone(),
                    bit,
                    cycle,
                });
            }
        }
    }
    for mem in &design.mems {
        for addr in 0..mem.size {
            for bit in 0..design.width {
                sites.push(FaultSpec::SramCorrupt {
                    mem: mem.name.clone(),
                    addr,
                    bit,
                });
            }
        }
    }
    Ok(sites)
}

pub use crate::campaign::ShardedCampaignOptions;

/// What [`run_campaign_sharded`] produced.
pub type ShardedCampaignOutcome = crate::campaign::ShardedCampaignOutcome<CampaignReport>;

/// Runs a full fault campaign for one test case across N work-stealing
/// worker shards, with checkpoint/resume: compile, clean reference run,
/// site enumeration, seeded sampling, then one faulty run per sampled
/// site, classified. The merged record order is the canonical sampled
/// site order at any shard count.
///
/// Perf shape: the transform stage runs **once** ([`crate::flow::prepare_design`])
/// and the golden reference runs **once**
/// ([`crate::flow::PreparedDesign::prepare_golden`]), then every
/// injection replays only the simulation + comparison stages. The batch
/// engine packs chunks of [`eventsim::batchsim::LANES`] sites into single
/// schedule walks (chunks are cut at absolute 64-site boundaries, so
/// packing is shard-count-independent); a chunk that errors or panics
/// reruns its sites one at a time, so a crash stays attributed to one
/// site.
///
/// The harness never lets an injection escape: panics inside the flow
/// are caught and recorded as [`InjectionOutcome::Crashed`].
///
/// Events: with a live sink, the stream is emitted in merge order with
/// wall-clock fields zeroed (`wall_seconds`, `rate`, `eta_seconds`,
/// `slowest*`), so `--events-out` bytes are identical across
/// `--shards 1..N` and across a killed-then-resumed run (resume
/// re-emits the completed prefix from the checkpoint).
///
/// # Errors
///
/// Returns [`FlowError`] when the *clean* flow cannot produce a verdict
/// (broken test case), or a compile failure. A clean run that fails its
/// own verdict is also an error — fault classification is meaningless on
/// a design that does not pass clean. Checkpoint I/O failures and
/// identity mismatches (design, engine, seed, sites, tick budget) are
/// wrapped as [`FlowError::Fault`].
pub fn run_campaign_sharded(
    case: &TestCase,
    options: &CampaignOptions,
    shard: &ShardedCampaignOptions,
) -> Result<ShardedCampaignOutcome, FlowError> {
    use crate::campaign::{Checkpoint, RangeSet, ShardOptions};
    use std::cell::RefCell;

    let program = nenya::lang::parse(&case.source)
        .map_err(|e| FlowError::Compile(nenya::CompileError::from(e)))?;
    let design = nenya::compile_program(&case.name, &program, &case.options.compile)?;

    let mut clean_options = case.options.clone();
    clean_options.engine = options.engine;
    clean_options.keep_artifacts = false;
    clean_options.faults.clear();
    clean_options.events = crate::events::EventSink::disabled();
    let prepared = crate::flow::prepare_design(design)?;
    let clean = prepared.run(&case.stimuli, &clean_options)?;
    if !clean.passed {
        return Err(FlowError::Fault(format!(
            "clean run of '{}' fails ({}); cannot classify faults",
            case.name,
            clean
                .failure
                .clone()
                .unwrap_or_else(|| format!("{} mismatches", clean.mismatches.len()))
        )));
    }
    let clean_cycles = clean.runs.iter().map(|r| r.cycles).max().unwrap_or(0);
    let clean_ticks: u64 = clean.runs.iter().map(|r| r.cycles * 10).sum();

    let mut sites = enumerate_sites(prepared.design(), clean_cycles, options.seed)
        .map_err(FlowError::Fault)?;
    let site_pool = sites.len();
    let mut rng = SplitMix64(options.seed);
    for i in (1..sites.len()).rev() {
        sites.swap(i, rng.below(i as u64 + 1) as usize);
    }
    sites.truncate(options.sites);
    let total = sites.len() as u64;

    let max_ticks = options.max_ticks.unwrap_or((clean_ticks * 5).max(50_000));
    let mut faulty_options = clean_options.clone();
    faulty_options.max_ticks = max_ticks;
    let golden = prepared.prepare_golden(&case.stimuli, &faulty_options)?;

    // What makes a checkpoint this campaign's beyond its design and site
    // count: checked on resume and written into every snapshot.
    let identity = [
        ("engine", Json::from(options.engine.to_string())),
        ("seed", options.seed.into()),
        ("max_ticks", max_ticks.into()),
    ];

    // Resume: salvage what survives on disk, validate identity, preload
    // the record prefix. Salvage only relaxes *structural* damage (torn
    // writes); an identity mismatch below still refuses outright.
    let mut skip = RangeSet::new();
    let mut records: Vec<InjectionRecord> = Vec::new();
    let mut salvage = None;
    if let Some(path) = &shard.resume {
        let salvaged = Checkpoint::load_resume(path, "faults", &case.name, total, &identity)
            .map_err(FlowError::Fault)?;
        let checkpoint = salvaged.checkpoint;
        salvage = salvaged.note;
        let bad = |what: &str| {
            FlowError::Fault(format!(
                "checkpoint {}: {what} does not match this campaign",
                path.display()
            ))
        };
        let list = checkpoint
            .state
            .get("records")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("records"))?;
        if list.len() as u64 != checkpoint.completed.covered() {
            return Err(bad("record count"));
        }
        for entry in list {
            let get = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(key))
            };
            records.push(InjectionRecord {
                fault: FaultSpec::parse(get("fault")?).map_err(FlowError::Fault)?,
                outcome: InjectionOutcome::parse(get("outcome")?).map_err(FlowError::Fault)?,
                detail: get("detail")?.to_string(),
            });
        }
        // The stored faults must be the ones this invocation sampled.
        for (record, fault) in records.iter().zip(&sites) {
            if record.fault != *fault {
                return Err(bad("sampled site order"));
            }
        }
        skip = checkpoint.completed.clone();
    }
    let resumed = records.len() as u64;

    // Deterministic event stream: indices, outcomes, and order only —
    // wall-clock fields zeroed so shard count and resume cannot leak in.
    let events = options.events.clone();
    let emit_unit = |index: u64, record: &InjectionRecord| {
        if !events.is_enabled() {
            return;
        }
        events.emit(&crate::events::Event::FaultInjected {
            fault: record.fault.to_string(),
            class: record.fault.class().to_string(),
            index,
            total,
        });
        events.emit(&crate::events::Event::FaultClassified {
            fault: record.fault.to_string(),
            outcome: record.outcome.to_string(),
            detail: record.detail.clone(),
            wall_seconds: 0.0,
        });
        events.emit(&crate::events::Event::Heartbeat {
            done: index + 1,
            total,
            rate: 0.0,
            eta_seconds: 0.0,
            slowest: String::new(),
            slowest_seconds: 0.0,
        });
    };
    events.emit(&crate::events::Event::CampaignStarted {
        kind: "faults".to_string(),
        key: case.name.clone(),
        total,
    });
    for (index, record) in records.iter().enumerate() {
        emit_unit(index as u64, record);
    }

    let engine_is_batch = options.engine == Engine::Batch;
    let chunk = if engine_is_batch {
        eventsim::batchsim::LANES as u64
    } else {
        8
    };
    let sites = &sites;
    let prepared = &prepared;
    let golden = &golden;
    let faulty_options = &faulty_options;
    let worker = move |start: u64, end: u64| -> Vec<(InjectionOutcome, String)> {
        let chunk_sites = &sites[start as usize..end as usize];
        if engine_is_batch {
            let specs: Vec<crate::flow::BatchLaneSpec> = chunk_sites
                .iter()
                .map(|fault| crate::flow::BatchLaneSpec {
                    stimuli: case.stimuli.clone(),
                    faults: vec![fault.clone()],
                })
                .collect();
            let result =
                catch_unwind(AssertUnwindSafe(|| prepared.run_batch(&specs, faulty_options)));
            if let Ok(Ok(report)) = result {
                return report.lanes.iter().map(classify_lane).collect();
            }
            // Design-scoped error or panic: rerun the chunk's sites one
            // at a time so a crash stays attributed to one lane.
        }
        (start..end)
            .zip(chunk_sites)
            .map(|(index, fault)| {
                let mut site_options = faulty_options.clone();
                site_options.faults = vec![fault.clone()];
                let result = catch_unwind(AssertUnwindSafe(|| {
                    prepared.run_with_golden(golden, &site_options)
                }));
                classify_with_lane(result, engine_is_batch, index)
            })
            .collect()
    };

    // The checkpoint document: identity (with the effective tick budget,
    // explicit or derived from the clean run) plus the merged records.
    let faults_checkpoint = |completed: &RangeSet, records: &[InjectionRecord]| Checkpoint {
        kind: "faults".to_string(),
        key: case.name.clone(),
        total,
        completed: completed.clone(),
        state: Json::obj(
            identity.iter().cloned().chain([
                ("requested_sites", options.sites.into()),
                ("site_pool", site_pool.into()),
                ("clean_cycles", clean_cycles.into()),
                (
                    "records",
                    Json::Arr(
                        records
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("fault", r.fault.to_string().into()),
                                    ("outcome", r.outcome.to_string().into()),
                                    ("detail", r.detail.as_str().into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    };
    let merged = RefCell::new(records);
    let save_error = RefCell::new(None::<String>);
    let outcome = crate::campaign::run_sharded(
        total,
        &skip,
        &ShardOptions {
            shards: shard.shards.max(1),
            chunk,
            checkpoint_every: if shard.checkpoint.is_some() {
                if shard.checkpoint_every == 0 {
                    chunk
                } else {
                    shard.checkpoint_every
                }
            } else {
                0
            },
            stop: shard.stop.clone(),
            sigint: shard.sigint,
        },
        worker,
        |index, (outcome, detail)| {
            let record = InjectionRecord {
                fault: sites[index as usize].clone(),
                outcome,
                detail,
            };
            emit_unit(index, &record);
            merged.borrow_mut().push(record);
        },
        |completed| {
            let Some(path) = &shard.checkpoint else { return };
            if let Err(e) = faults_checkpoint(completed, &merged.borrow()).save(path) {
                *save_error.borrow_mut() = Some(format!("cannot save {}: {e}", path.display()));
            }
        },
    );
    if let Some(message) = save_error.into_inner() {
        return Err(FlowError::Fault(message));
    }
    let injections = merged.into_inner();

    if !outcome.interrupted {
        let silent = injections
            .iter()
            .filter(|r| r.outcome == InjectionOutcome::Silent)
            .count() as u64;
        events.emit(&crate::events::Event::CampaignFinished {
            kind: "faults".to_string(),
            key: case.name.clone(),
            done: total,
            failed: silent,
            wall_seconds: 0.0,
        });
        if let Some(path) = &shard.checkpoint {
            faults_checkpoint(&outcome.completed, &injections)
                .save(path)
                .map_err(|e| FlowError::Fault(format!("cannot save {}: {e}", path.display())))?;
        }
    }

    Ok(ShardedCampaignOutcome {
        report: CampaignReport {
            design: case.name.clone(),
            engine: options.engine,
            seed: options.seed,
            site_pool,
            clean_cycles,
            injections,
        },
        interrupted: outcome.interrupted,
        resumed,
        salvage,
    })
}

/// [`classify`] for the site at `index`. On the batch engine's
/// one-at-a-time fallback (`batch_fallback`), a site that still crashes
/// carries its lane slot in the detail, so a human can see which lane of
/// the packed walk blew up. The slot is the site's position in a full
/// chunk — `index % LANES` — which is stable across shard counts and
/// resume boundaries.
fn classify_with_lane(
    result: std::thread::Result<Result<crate::flow::TestReport, FlowError>>,
    batch_fallback: bool,
    index: u64,
) -> (InjectionOutcome, String) {
    let (outcome, detail) = classify(result);
    if batch_fallback && outcome == InjectionOutcome::Crashed {
        let lane = index % eventsim::batchsim::LANES as u64;
        (outcome, format!("[lane {lane}] {detail}"))
    } else {
        (outcome, detail)
    }
}

/// Maps one faulty-run result onto an [`InjectionOutcome`].
fn classify(
    result: std::thread::Result<Result<crate::flow::TestReport, FlowError>>,
) -> (InjectionOutcome, String) {
    match result {
        Err(payload) => (InjectionOutcome::Crashed, panic_message(&*payload)),
        Ok(Err(e @ FlowError::Timeout { .. })) => (InjectionOutcome::Hung, e.to_string()),
        Ok(Err(e)) => (InjectionOutcome::Detected, format!("flow error: {e}")),
        Ok(Ok(report)) if !report.fault_skips.is_empty() => {
            (InjectionOutcome::Skipped, report.fault_skips.join("; "))
        }
        Ok(Ok(report)) => classify_verdict(report.failure, &report.mismatches),
    }
}

/// Maps one batch lane's verdict onto an [`InjectionOutcome`], with the
/// same detail strings [`classify`] derives from a one-lane run.
fn classify_lane(lane: &crate::flow::LaneReport) -> (InjectionOutcome, String) {
    if let Some(detail) = &lane.timed_out {
        (InjectionOutcome::Hung, detail.clone())
    } else if let Some(e) = &lane.flow_error {
        (InjectionOutcome::Detected, format!("flow error: {e}"))
    } else {
        classify_verdict(lane.failure.clone(), &lane.mismatches)
    }
}

/// A completed faulty run: detected by a design failure or a memory
/// mismatch, otherwise a silent escape.
fn classify_verdict(
    failure: Option<String>,
    mismatches: &[crate::memcmp::Mismatch],
) -> (InjectionOutcome, String) {
    match (failure, mismatches.first()) {
        (Some(failure), _) => (InjectionOutcome::Detected, failure),
        (None, Some(first)) => (
            InjectionOutcome::Detected,
            format!(
                "{} mismatches, first {}[{}] golden {:?} sim {:?}",
                mismatches.len(),
                first.mem,
                first.addr,
                first.expected,
                first.got
            ),
        ),
        (None, None) => (InjectionOutcome::Silent, "verdict PASS".to_string()),
    }
}

/// Renders a panic payload as text (the suite runner shares this).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_round_trip_through_parse() {
        let specs = [
            FaultSpec::StuckAt {
                signal: "t3_q".into(),
                bit: 7,
                value: true,
            },
            FaultSpec::StuckAt {
                signal: "done".into(),
                bit: 0,
                value: false,
            },
            FaultSpec::BitFlip {
                signal: "out_addr".into(),
                bit: 2,
                cycle: 41,
            },
            FaultSpec::SeuReg {
                signal: "t0_q".into(),
                bit: 15,
                cycle: 9,
            },
            FaultSpec::SramCorrupt {
                mem: "img".into(),
                addr: 63,
                bit: 30,
            },
        ];
        for spec in specs {
            let rendered = spec.to_string();
            assert_eq!(FaultSpec::parse(&rendered).unwrap(), spec, "{rendered}");
        }
        // `.BIT` defaults to 0 for stuck-at.
        assert_eq!(
            FaultSpec::parse("stuck1:done").unwrap(),
            FaultSpec::StuckAt {
                signal: "done".into(),
                bit: 0,
                value: true
            }
        );
        assert!(FaultSpec::parse("melt:everything").is_err());
        assert!(FaultSpec::parse("flip:sig.1").is_err(), "flip needs @cycle");
    }

    #[test]
    fn lane_tag_marks_only_crashes() {
        let crash = || Err(Box::new("boom") as Box<dyn std::any::Any + Send>);
        let tagged = classify_with_lane(crash(), true, 64 + 17);
        assert_eq!(
            tagged,
            (InjectionOutcome::Crashed, "[lane 17] boom".to_string())
        );
        let untagged = classify_with_lane(crash(), false, 17);
        assert_eq!(untagged, (InjectionOutcome::Crashed, "boom".to_string()));
        let timeout = FlowError::Timeout {
            config: "c0".to_string(),
            max_ticks: 9,
        };
        let hung = classify_with_lane(Ok(Err(timeout)), true, 17);
        assert_eq!(
            hung,
            (
                InjectionOutcome::Hung,
                "configuration 'c0' exceeded 9 ticks".to_string()
            )
        );
    }

    #[test]
    fn injection_outcomes_round_trip_through_parse() {
        for outcome in [
            InjectionOutcome::Detected,
            InjectionOutcome::Silent,
            InjectionOutcome::Hung,
            InjectionOutcome::Skipped,
            InjectionOutcome::Crashed,
        ] {
            assert_eq!(
                InjectionOutcome::parse(&outcome.to_string()).unwrap(),
                outcome
            );
        }
        assert!(InjectionOutcome::parse("shrugged").is_err());
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }
}
