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
//!
//! Some sites need no simulation. Each campaign makes one recorded
//! one-lane bytecode walk of the clean design
//! ([`crate::flow::PreparedDesign::record_clean`]): the bits every signal
//! ever held as known 0 and known 1 (the clean run's toggle coverage),
//! and whether a read or a write touched each memory word first. A
//! stuck-at whose bit never held the opposite value, or a corrupted word
//! the design writes before it reads, leaves the faulty run identical to
//! the clean run. Such a site is proven silent from the record
//! ([`SilentReason::Unexcited`], [`SilentReason::DeadWord`]); only the
//! unproven sites are simulated, and a simulated silent site is
//! [`SilentReason::Masked`].

use crate::elaborate::ConfigParts;
use crate::flow::{Engine, FlowError, CLOCK_PERIOD};
use crate::rng::Rng;
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

/// Why a silent injection was silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SilentReason {
    /// Proven without simulation: the clean run never held the stuck bit
    /// at the other value, so the clamp never acts.
    Unexcited,
    /// Proven without simulation: the corrupted word's first access over
    /// the whole RTG walk is a committed write, so the flipped bit is
    /// never read and is overwritten.
    DeadWord,
    /// Simulated: the fault was excited, yet no memory differs.
    Masked,
}

impl fmt::Display for SilentReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SilentReason::Unexcited => "unexcited",
            SilentReason::DeadWord => "dead-word",
            SilentReason::Masked => "masked",
        })
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
    /// Why a silent injection was silent; `None` for every other
    /// outcome.
    pub reason: Option<SilentReason>,
}

impl InjectionRecord {
    /// A record whose reason follows from its outcome: a silent record
    /// is `proof`'s, or [`SilentReason::Masked`] when unproven.
    fn new(
        fault: FaultSpec,
        (outcome, detail): (InjectionOutcome, String),
        proof: Option<SilentReason>,
    ) -> InjectionRecord {
        let reason =
            (outcome == InjectionOutcome::Silent).then(|| proof.unwrap_or(SilentReason::Masked));
        InjectionRecord {
            fault,
            outcome,
            detail,
            reason,
        }
    }
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
            let reason = record
                .reason
                .map(|reason| format!(" ({reason})"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {:<12} {} — {}{reason}\n",
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
                        let reason = r.reason.map(|reason| ("reason", reason.to_string().into()));
                        Json::obj(
                            [
                                ("fault", r.fault.to_string().into()),
                                ("class", r.fault.class().into()),
                                ("outcome", r.outcome.to_string().into()),
                                ("detail", r.detail.as_str().into()),
                            ]
                            .into_iter()
                            .chain(reason),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Enumerates the deterministic fault-site pool of a compiled design:
/// per-bit stuck-at-0/1 on every netlist signal, per-bit corruption of
/// every SRAM word, one SEU site per register bit (cycle seeded), and one
/// bit-flip site per signal (bit and cycle seeded). `clean_cycles` bounds
/// the transient schedule. Campaigns index the same pool without
/// materializing it (`SiteTable`), so this order has one definition.
///
/// # Errors
///
/// Returns a message when the design's netlists cannot be produced.
pub fn enumerate_sites(
    design: &nenya::Design,
    clean_cycles: u64,
    seed: u64,
) -> Result<Vec<FaultSpec>, String> {
    let netlists = design
        .configs
        .iter()
        .map(|config| {
            let dp_doc = nenya::xml::emit_datapath(&config.datapath);
            let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
            ConfigParts::parse(&dp_doc, &fsm_doc).map(|parts| parts.netlist)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let table = SiteTable::new(&netlists, design, clean_cycles, seed);
    Ok((0..table.len).map(|index| table.site(index)).collect())
}

/// The fault-site pool of [`enumerate_sites`], indexed without
/// materializing it. Distinct signals come first, in configuration and
/// declaration order, each owning `2 × width + 1` consecutive sites
/// (stuck-at 0 and 1 per bit, then its transient); the SRAM words follow,
/// `width` sites per word.
struct SiteTable {
    signals: Vec<SignalSites>,
    /// `(memory, words, index of its first site)`.
    mems: Vec<(String, usize, usize)>,
    /// The design's word width.
    width: u32,
    len: usize,
}

/// One signal's run of sites in a [`SiteTable`].
struct SignalSites {
    name: String,
    width: u32,
    /// Index of its first site.
    start: usize,
    /// The seeded bit and cycle of its transient site.
    bit: u32,
    cycle: u64,
}

impl SiteTable {
    fn new<'a>(
        netlists: impl IntoIterator<Item = &'a eventsim::netlist::Netlist>,
        design: &nenya::Design,
        clean_cycles: u64,
        seed: u64,
    ) -> SiteTable {
        let mut rng = Rng::new(seed ^ 0xD1F4_17A8_5EED_5EED);
        let mut seen = std::collections::HashSet::new();
        let cycle_span = clean_cycles.max(2);
        let mut signals = Vec::new();
        let mut len = 0;
        for netlist in netlists {
            for decl in netlist.signals() {
                if !seen.insert(decl.name.as_str()) {
                    continue;
                }
                let bit = rng.below(decl.width as u64) as u32;
                let cycle = 1 + rng.below(cycle_span - 1);
                signals.push(SignalSites {
                    name: decl.name.clone(),
                    width: decl.width,
                    start: len,
                    bit,
                    cycle,
                });
                len += 2 * decl.width as usize + 1;
            }
        }
        let mems = design
            .mems
            .iter()
            .map(|mem| {
                let start = len;
                len += mem.size * design.width as usize;
                (mem.name.clone(), mem.size, start)
            })
            .collect();
        SiteTable {
            signals,
            mems,
            width: design.width,
            len,
        }
    }

    /// The site at `index` (below `len`).
    fn site(&self, index: usize) -> FaultSpec {
        let s = self.signals.partition_point(|s| s.start <= index);
        if let Some(sig) = s.checked_sub(1).map(|s| &self.signals[s]) {
            let offset = index - sig.start;
            let stuck = 2 * sig.width as usize;
            if offset < stuck {
                return FaultSpec::StuckAt {
                    signal: sig.name.clone(),
                    bit: (offset / 2) as u32,
                    value: offset % 2 == 1,
                };
            }
            if offset == stuck {
                let (signal, bit, cycle) = (sig.name.clone(), sig.bit, sig.cycle);
                return if sig.name.ends_with("_q") {
                    FaultSpec::SeuReg { signal, bit, cycle }
                } else {
                    FaultSpec::BitFlip { signal, bit, cycle }
                };
            }
        }
        let m = self.mems.partition_point(|&(_, _, start)| start <= index) - 1;
        let (mem, _, start) = &self.mems[m];
        let offset = index - start;
        FaultSpec::SramCorrupt {
            mem: mem.clone(),
            addr: offset / self.width as usize,
            bit: (offset % self.width as usize) as u32,
        }
    }
}

/// The first `sites` indices of a seeded Fisher–Yates shuffle of
/// `0..pool`, which is the order a shuffle of the sites themselves
/// would give.
fn sample(pool: usize, sites: usize, seed: u64) -> Result<Vec<u32>, FlowError> {
    let pool = u32::try_from(pool).map_err(|_| {
        FlowError::Fault(format!("a pool of {pool} fault sites is too large to sample"))
    })?;
    let mut order: Vec<u32> = (0..pool).collect();
    let mut rng = Rng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order.truncate(sites);
    Ok(order)
}

/// Proves `fault` silent from the clean walk's record alone, or gives
/// `None`. `width` is the design's word width. The caller has checked
/// that the clean run fits the faulty runs' tick budget.
///
/// * A stuck-at on `S.b` at `v` is unexcited when `S` exists in an
///   executed configuration, `b` is in range, and `S` never held a known
///   value whose bit `b` is not `v`: every engine's clamp then leaves
///   every value as it was (X passes through).
/// * An SRAM corruption of `M@a` is a dead word when the word's first
///   access over the whole RTG walk is a committed write.
/// * Transients are never proven.
fn prove(record: &crate::flow::CleanRecord, fault: &FaultSpec, width: u32) -> Option<SilentReason> {
    match fault {
        FaultSpec::StuckAt { signal, bit, value } => {
            let bits = record.signal(signal)?;
            let away = if *value { bits.ever0 } else { bits.ever1 };
            (*bit < bits.width && (away >> bit) & 1 == 0).then_some(SilentReason::Unexcited)
        }
        FaultSpec::SramCorrupt { mem, addr, bit } => (*bit < width
            && record.first_access(mem, *addr) == eventsim::batchsim::FirstAccess::Write)
            .then_some(SilentReason::DeadWord),
        FaultSpec::BitFlip { .. } | FaultSpec::SeuReg { .. } => None,
    }
}

pub use crate::campaign::ShardedCampaignOptions;

/// What [`run_campaign_sharded`] produced.
pub type ShardedCampaignOutcome = crate::campaign::ShardedCampaignOutcome<CampaignReport>;

/// Runs a full fault campaign for one test case across N work-stealing
/// worker shards, with checkpoint/resume: compile, clean reference run,
/// seeded sampling, proof, then one faulty run per unproven sampled
/// site, classified. The merged record order is the canonical sampled
/// site order at any shard count.
///
/// Perf shape: the transform stage runs **once** ([`crate::flow::prepare_design`])
/// and the golden reference runs **once**
/// ([`crate::flow::PreparedDesign::prepare_golden`]). One recorded
/// one-lane bytecode walk of the clean design
/// ([`crate::flow::PreparedDesign::record_clean`]) proves sites silent;
/// on `level` and `batch` it is also the clean reference run, while
/// `event` and `cycle` keep their own. Sampling shuffles indices into a
/// site table built from the prepared netlists, so the pool is never
/// materialized. A proven site's record is written without simulation,
/// but only when the clean run finishes within the faulty runs' tick
/// budget in every configuration (a proven site's faulty run *is* the
/// clean run). Every other site replays only the simulation and
/// comparison stages. The batch engine packs the unproven sites, in
/// sampled order, [`eventsim::batchsim::LANES`] to a walk; packs are
/// cut at absolute 64-site boundaries of the unproven list, so packing
/// is shard-count- and resume-independent. A pack that errors or panics
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
/// re-emits the completed prefix from the checkpoint). A checkpoint's
/// completed prefix counts sampled sites, and it stores no reasons:
/// restored records take theirs from the recomputed proof.
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
    use crate::campaign::CampaignId;
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
    let golden = prepared.prepare_golden(&case.stimuli, &clean_options)?;
    let (clean, record) = if matches!(options.engine, Engine::Level | Engine::Batch) {
        let (clean, record) = prepared.record_clean(&golden, &clean_options)?;
        (clean, Some(record))
    } else {
        (prepared.run_with_golden(&golden, &clean_options)?, None)
    };
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
    // Event and cycle campaigns record a separate walk; one that cannot
    // run or does not pass proves nothing.
    let record = record.or_else(|| {
        let (walk, record) = prepared.record_clean(&golden, &clean_options).ok()?;
        walk.passed.then_some(record)
    });
    let clean_cycles = clean.runs.iter().map(|r| r.cycles).max().unwrap_or(0);
    let clean_ticks: u64 = clean.runs.iter().map(|r| r.cycles * CLOCK_PERIOD).sum();

    let table = SiteTable::new(
        prepared.netlists(),
        prepared.design(),
        clean_cycles,
        options.seed,
    );
    let site_pool = table.len;
    let sites: Vec<FaultSpec> = sample(site_pool, options.sites, options.seed)?
        .into_iter()
        .map(|index| table.site(index as usize))
        .collect();
    let total = sites.len() as u64;

    let max_ticks = options.max_ticks.unwrap_or((clean_ticks * 5).max(50_000));
    let mut faulty_options = clean_options.clone();
    faulty_options.max_ticks = max_ticks;

    // A proven site's faulty run is the clean run, which must finish
    // within the faulty runs' budget in every configuration.
    let fits = clean
        .runs
        .iter()
        .all(|run| run.summary.end_time.ticks() <= max_ticks);
    let record = record.filter(|_| fits);
    let width = prepared.design().width;
    let proofs: Vec<Option<SilentReason>> = sites
        .iter()
        .map(|fault| prove(record.as_ref()?, fault, width))
        .collect();
    // Unit `u` of the sharded run is the sampled site `unproven[u]`.
    let unproven: Vec<u64> = (0..total)
        .filter(|&index| proofs[index as usize].is_none())
        .collect();

    // What a checkpoint of this campaign must match: its design and
    // sampled-site count, and the settings below (the tick budget is the
    // effective one, explicit or derived from the clean run).
    let id = CampaignId {
        kind: "faults",
        key: case.name.clone(),
        total,
        fields: vec![
            ("engine", Json::from(options.engine.to_string())),
            ("seed", options.seed.into()),
            ("max_ticks", max_ticks.into()),
        ],
    };

    // Resume: salvage what survives on disk, validate identity, preload
    // the record prefix. Salvage only relaxes *structural* damage (torn
    // writes); an identity mismatch below still refuses outright.
    let mut records: Vec<InjectionRecord> = Vec::new();
    let mut salvage = None;
    if let Some(path) = &shard.resume {
        let salvaged = id.load_resume(path).map_err(FlowError::Fault)?;
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
        if list.len() as u64 != checkpoint.completed {
            return Err(bad("record count"));
        }
        for (entry, proof) in list
            .iter()
            .zip(proofs.iter().chain(std::iter::repeat(&None)))
        {
            let get = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(key))
            };
            let fault = FaultSpec::parse(get("fault")?).map_err(FlowError::Fault)?;
            let outcome = InjectionOutcome::parse(get("outcome")?).map_err(FlowError::Fault)?;
            records.push(InjectionRecord::new(
                fault,
                (outcome, get("detail")?.to_string()),
                *proof,
            ));
        }
        // The stored faults must be the ones this invocation sampled.
        for (record, fault) in records.iter().zip(&sites) {
            if record.fault != *fault {
                return Err(bad("sampled site order"));
            }
        }
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
    let unproven = &unproven;
    let prepared = &prepared;
    let golden = &golden;
    let faulty_options = &faulty_options;
    let worker = move |start: u64, end: u64| -> Vec<(InjectionOutcome, String)> {
        let pack = &unproven[start as usize..end as usize];
        if engine_is_batch {
            let specs: Vec<crate::flow::BatchLaneSpec> = pack
                .iter()
                .map(|&index| crate::flow::BatchLaneSpec {
                    stimuli: case.stimuli.clone(),
                    faults: vec![sites[index as usize].clone()],
                })
                .collect();
            let result =
                catch_unwind(AssertUnwindSafe(|| prepared.run_batch(&specs, faulty_options)));
            if let Ok(Ok(report)) = result {
                return report.lanes.iter().map(classify_lane).collect();
            }
            // Design-scoped error or panic: rerun the pack's sites one
            // at a time so a crash stays attributed to one lane.
        }
        (start..end)
            .zip(pack)
            .map(|(unit, &index)| {
                let mut site_options = faulty_options.clone();
                site_options.faults = vec![sites[index as usize].clone()];
                let result = catch_unwind(AssertUnwindSafe(|| {
                    prepared.run_with_golden(golden, &site_options)
                }));
                let lane = engine_is_batch.then_some(unit % eventsim::batchsim::LANES as u64);
                classify_with_lane(result, lane)
            })
            .collect()
    };

    let merged = RefCell::new(records);
    // Appends the proven records from the merged prefix's end up to
    // `limit`: every sampled site before the next unproven one.
    let merge_proven = |limit: u64| {
        let mut merged = merged.borrow_mut();
        for index in merged.len() as u64..limit {
            let index = index as usize;
            let record = InjectionRecord::new(
                sites[index].clone(),
                (InjectionOutcome::Silent, "verdict PASS".to_string()),
                proofs[index],
            );
            emit_unit(index as u64, &record);
            merged.push(record);
        }
    };
    let next_unproven = |unit: u64| unproven.get(unit as usize).copied().unwrap_or(total);
    // The checkpoint holds the sampled prefix `[0, resumed)`: every
    // unproven site in it is a completed unit.
    let resumed_units = unproven.partition_point(|&index| index < resumed) as u64;
    merge_proven(next_unproven(resumed_units));
    let interrupted = crate::campaign::run_sharded(
        unproven.len() as u64,
        resumed_units,
        shard,
        chunk,
        worker,
        |unit, result| {
            let index = unproven[unit as usize];
            let record = InjectionRecord::new(sites[index as usize].clone(), result, None);
            emit_unit(index, &record);
            merged.borrow_mut().push(record);
            merge_proven(next_unproven(unit + 1));
        },
        // The merged records always cover a sampled-site prefix, so the
        // document counts sampled sites, not pooled units.
        |_| {
            let records = merged.borrow();
            let records_json = records.iter().map(|r| {
                Json::obj([
                    ("fault", r.fault.to_string().into()),
                    ("outcome", r.outcome.to_string().into()),
                    ("detail", r.detail.as_str().into()),
                ])
            });
            id.snapshot(
                records.len() as u64,
                [
                    ("requested_sites", options.sites.into()),
                    ("site_pool", site_pool.into()),
                    ("clean_cycles", clean_cycles.into()),
                    ("records", Json::Arr(records_json.collect())),
                ],
            )
        },
    )
    .map_err(FlowError::Fault)?;
    let injections = merged.into_inner();

    if !interrupted {
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
        interrupted,
        resumed,
        salvage,
    })
}

/// [`classify`] for a site that held `lane` of a batch pack (`None` off
/// the batch engine). On the one-at-a-time fallback, a site that still
/// crashes carries its lane in the detail, so a human can see which lane
/// of the packed walk blew up. Packs are cut at absolute 64-site
/// boundaries of the unproven sites, so the lane is the site's position
/// among them modulo [`eventsim::batchsim::LANES`], stable across shard
/// counts and resume boundaries.
fn classify_with_lane(
    result: std::thread::Result<Result<crate::flow::TestReport, FlowError>>,
    lane: Option<u64>,
) -> (InjectionOutcome, String) {
    let (outcome, detail) = classify(result);
    match lane {
        Some(lane) if outcome == InjectionOutcome::Crashed => {
            (outcome, format!("[lane {lane}] {detail}"))
        }
        _ => (outcome, detail),
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
        // Packs hold the unproven sites only: the tag names the lane the
        // site held in its pack, not its sampled index.
        let crash = || Err(Box::new("boom") as Box<dyn std::any::Any + Send>);
        let tagged = classify_with_lane(crash(), Some(17));
        assert_eq!(
            tagged,
            (InjectionOutcome::Crashed, "[lane 17] boom".to_string())
        );
        let untagged = classify_with_lane(crash(), None);
        assert_eq!(untagged, (InjectionOutcome::Crashed, "boom".to_string()));
        let timeout = FlowError::Timeout {
            config: "c0".to_string(),
            max_ticks: 9,
        };
        let hung = classify_with_lane(Ok(Err(timeout)), Some(17));
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
}
