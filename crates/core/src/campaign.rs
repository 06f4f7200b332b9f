//! The sharded campaign runtime — the `fpgatest-checkpoint-v1` format.
//!
//! Fuzzing and fault-injection campaigns are embarrassingly parallel at
//! the unit level (a fuzz case is `(seed, index)`, a fault injection is
//! a site index), but the batch engine only parallelizes *within* one
//! schedule walk; everything above it was single-threaded. This module
//! supplies the shared machinery both campaign kinds run on:
//!
//! * [`run_sharded`] — a work-stealing worker pool over the index space
//!   `0..total`. The space is cut into chunks at **absolute** chunk
//!   boundaries (so chunk membership never depends on the shard count),
//!   the chunks are dealt to per-shard deques, and an idle shard steals
//!   from the richest peer's tail. Results come back over a channel and
//!   are merged on the calling thread **in strict index order**, so the
//!   merged output — logs, coverage, records, and the
//!   `fpgatest-events-v1` stream — is bit-identical at any shard count.
//! * [`RangeSet`] — sorted, coalesced half-open index ranges; the
//!   completed-work ledger a checkpoint persists.
//! * [`Checkpoint`] — the `fpgatest-checkpoint-v1` JSON document:
//!   campaign identity, the completed [`RangeSet`], and a
//!   campaign-specific `state` object (merged coverage, records, log).
//!   Saved atomically (write-temp-then-rename) with a one-deep
//!   generation history (generation N on disk, N-1 kept as `.prev`), and
//!   recovered by [`Checkpoint::load_salvage`], which tolerates trailing
//!   garbage and falls back to the `.tmp`/`.prev` generation — so a torn
//!   write costs at most one checkpoint interval, never the campaign.
//!
//! Only the contiguous in-order-merged prefix is ever checkpointed:
//! results a worker produced out of order are discarded on interrupt and
//! recomputed on `--resume`. That costs a little repeated work but keeps
//! the invariant that a checkpoint describes a prefix of the canonical
//! single-shard execution — which is what makes a resumed run's output
//! byte-identical to an uninterrupted one.

use crate::telemetry::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Schema tag of the checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "fpgatest-checkpoint-v1";

/// A set of `u64` indices stored as sorted, coalesced half-open ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// Disjoint `[start, end)` ranges, ascending, never touching.
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// The empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// The ranges, ascending and disjoint.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Inserts one index.
    pub fn insert(&mut self, index: u64) {
        self.insert_range(index, index + 1);
    }

    /// Inserts the half-open range `[start, end)` (no-op when empty),
    /// coalescing with every range it overlaps or touches.
    pub fn insert_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let mut merged = Vec::with_capacity(self.ranges.len() + 1);
        let mut new = (start, end);
        let mut placed = false;
        for &(s, e) in &self.ranges {
            if e < new.0 {
                // Strictly before, not touching.
                merged.push((s, e));
            } else if s > new.1 {
                // Strictly after, not touching.
                if !placed {
                    merged.push(new);
                    placed = true;
                }
                merged.push((s, e));
            } else {
                // Overlapping or adjacent: absorb.
                new.0 = new.0.min(s);
                new.1 = new.1.max(e);
            }
        }
        if !placed {
            merged.push(new);
        }
        self.ranges = merged;
    }

    /// Whether `index` is in the set.
    pub fn contains(&self, index: u64) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if index < s {
                    std::cmp::Ordering::Greater
                } else if index >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Total number of indices covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether the set covers all of `[0, total)`.
    pub fn is_complete(&self, total: u64) -> bool {
        total == 0 || self.ranges == [(0, total)]
    }

    /// The maximal half-open ranges of `[0, total)` **not** in the set —
    /// the work a resumed campaign still owes.
    pub fn gaps(&self, total: u64) -> Vec<(u64, u64)> {
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        for &(s, e) in &self.ranges {
            if s.min(total) > cursor {
                gaps.push((cursor, s.min(total)));
            }
            cursor = cursor.max(e);
            if cursor >= total {
                break;
            }
        }
        if cursor < total {
            gaps.push((cursor, total));
        }
        gaps
    }

    /// Serializes as an array of `[start, end]` pairs.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.ranges
                .iter()
                .map(|&(s, e)| Json::Arr(vec![Json::from(s), Json::from(e)]))
                .collect(),
        )
    }

    /// Parses the [`RangeSet::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed pairs.
    pub fn from_json(json: &Json) -> Result<RangeSet, String> {
        let list = json.as_array().ok_or("ranges must be an array")?;
        let mut set = RangeSet::new();
        for pair in list {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("each range is a [start, end] pair")?;
            let s = pair[0].as_u64().ok_or("range start must be an integer")?;
            let e = pair[1].as_u64().ok_or("range end must be an integer")?;
            set.insert_range(s, e);
        }
        Ok(set)
    }
}

/// One `fpgatest-checkpoint-v1` document: which campaign this is, how
/// much of it is merged, and the campaign-specific merged state.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Campaign kind: `faults` or `fuzz`.
    pub kind: String,
    /// Campaign identity key (design name, `seedN`); a resume refuses a
    /// checkpoint whose key does not match the invocation.
    pub key: String,
    /// Planned number of units.
    pub total: u64,
    /// Units merged so far — always a prefix `[0, k)` as written by
    /// [`run_sharded`], but stored as a general [`RangeSet`].
    pub completed: RangeSet,
    /// Campaign-specific merged state (records, coverage, log text).
    pub state: Json,
}

impl Checkpoint {
    /// Serializes the document.
    pub fn to_json(&self) -> Json {
        let mut json = Json::obj([
            ("schema", Json::from(CHECKPOINT_SCHEMA)),
            ("kind", Json::from(self.kind.as_str())),
            ("key", Json::from(self.key.as_str())),
            ("total", Json::from(self.total)),
            ("completed", self.completed.to_json()),
            ("state", self.state.clone()),
        ]);
        json.sort_keys();
        json
    }

    /// Parses a [`Checkpoint::to_json`] document.
    ///
    /// # Errors
    ///
    /// Returns a message for a wrong schema tag or missing fields.
    pub fn from_json(json: &Json) -> Result<Checkpoint, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(CHECKPOINT_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected checkpoint schema '{other}'")),
            None => return Err("missing 'schema'".to_string()),
        }
        Ok(Checkpoint {
            kind: json
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("missing 'kind'")?
                .to_string(),
            key: json
                .get("key")
                .and_then(Json::as_str)
                .ok_or("missing 'key'")?
                .to_string(),
            total: json.get("total").and_then(Json::as_u64).ok_or("missing 'total'")?,
            completed: RangeSet::from_json(json.get("completed").ok_or("missing 'completed'")?)?,
            state: json.get("state").cloned().unwrap_or(Json::Null),
        })
    }

    /// Writes the checkpoint atomically: serialize to `<path>.tmp`,
    /// demote the current generation to `<path>.prev`, then rename the
    /// temp file over `path` ("write N, keep N-1"). Each rename is
    /// atomic, so a kill at any instant leaves at least one complete
    /// generation on disk for [`Checkpoint::load_salvage`]: the old file,
    /// the new file, or a finished `.tmp` alongside the `.prev`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json().emit_pretty())?;
        if path.exists() {
            let _ = std::fs::rename(path, path.with_extension("prev"));
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads and validates a checkpoint file, strictly: any I/O, JSON,
    /// or schema problem is an error. Resumption paths use
    /// [`Checkpoint::load_salvage`] instead, which degrades gracefully.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O, JSON, or schema problems.
    pub fn load(path: &Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json =
            Json::parse(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        Checkpoint::from_json(&json).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }

    /// Loads the checkpoint a campaign resumes from, salvaging torn
    /// writes ([`load_salvage`](Self::load_salvage)), and refuses one
    /// that another campaign wrote: its `kind`, `key` (design or seed)
    /// and unit `total` must match, every `identity` field must equal the
    /// one in its state, and its completed set must be a prefix.
    ///
    /// # Errors
    ///
    /// The salvage error; `checkpoint P: FIELD does not match this
    /// campaign` for the first mismatch; or a non-prefix completed set.
    pub fn load_resume(
        path: &Path,
        kind: &str,
        key: &str,
        total: u64,
        identity: &[(&str, Json)],
    ) -> Result<SalvagedCheckpoint, String> {
        let salvaged = Checkpoint::load_salvage(path)?;
        let checkpoint = &salvaged.checkpoint;
        let mismatch = if checkpoint.kind != kind {
            Some("kind")
        } else if checkpoint.key != key {
            Some("key")
        } else if checkpoint.total != total {
            Some("total")
        } else {
            identity
                .iter()
                .find(|(field, value)| checkpoint.state.get(field) != Some(value))
                .map(|(field, _)| *field)
        };
        if let Some(field) = mismatch {
            return Err(format!(
                "checkpoint {}: {field} does not match this campaign",
                path.display()
            ));
        }
        let ranges = checkpoint.completed.ranges();
        if ranges.len() > 1 || ranges.first().is_some_and(|&(s, _)| s != 0) {
            return Err(format!(
                "checkpoint {}: completed set is not a prefix",
                path.display()
            ));
        }
        Ok(salvaged)
    }

    /// Loads a checkpoint, salvaging what it can from torn writes.
    ///
    /// Tried in order, best surviving generation wins (most covered
    /// units; ties go to the earlier candidate):
    ///
    /// 1. `path` parsed strictly — the normal case, short-circuits;
    /// 2. `path` parsed tolerantly (first complete JSON value, trailing
    ///    garbage ignored);
    /// 3. `<path>.tmp` — a save killed between write and rename leaves a
    ///    complete *newer* generation here;
    /// 4. `<path>.prev` — the N-1 generation [`Checkpoint::save`] keeps.
    ///
    /// A truncated primary therefore costs at most one checkpoint
    /// interval of repeated work, never the whole campaign. Salvage only
    /// finds a structurally sound document; identity validation is
    /// [`load_resume`](Self::load_resume)'s.
    ///
    /// # Errors
    ///
    /// Returns the strict-load error for `path`, annotated with the
    /// failed fallbacks, when no generation yields a valid document.
    pub fn load_salvage(path: &Path) -> Result<SalvagedCheckpoint, String> {
        let primary_err = match Checkpoint::load(path) {
            Ok(checkpoint) => {
                return Ok(SalvagedCheckpoint {
                    checkpoint,
                    source: SalvageSource::Primary,
                    note: None,
                })
            }
            Err(e) => e,
        };
        let mut candidates: Vec<(Checkpoint, SalvageSource, String)> = Vec::new();
        if let Some(checkpoint) = load_tolerant(path) {
            let note = format!(
                "salvaged {} ({} units) ignoring trailing garbage",
                path.display(),
                checkpoint.completed.covered()
            );
            candidates.push((checkpoint, SalvageSource::TrailingGarbage, note));
        }
        for (extension, source) in [("tmp", SalvageSource::Tmp), ("prev", SalvageSource::Previous)]
        {
            let alt = path.with_extension(extension);
            let loaded = Checkpoint::load(&alt).ok().or_else(|| load_tolerant(&alt));
            if let Some(checkpoint) = loaded {
                let note = format!(
                    "salvaged generation {} ({} units)",
                    alt.display(),
                    checkpoint.completed.covered()
                );
                candidates.push((checkpoint, source, note));
            }
        }
        let mut best: Option<(Checkpoint, SalvageSource, String)> = None;
        for candidate in candidates {
            let better = best
                .as_ref()
                .is_none_or(|(b, _, _)| candidate.0.completed.covered() > b.completed.covered());
            if better {
                best = Some(candidate);
            }
        }
        match best {
            Some((checkpoint, source, note)) => Ok(SalvagedCheckpoint {
                checkpoint,
                source,
                note: Some(note),
            }),
            None => Err(format!("{primary_err}; no salvageable generation found")),
        }
    }
}

/// Which generation [`Checkpoint::load_salvage`] recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageSource {
    /// The primary file, intact — nothing was salvaged.
    Primary,
    /// The primary file, with trailing garbage after the document
    /// ignored.
    TrailingGarbage,
    /// The in-flight `.tmp` file (a save was killed between write and
    /// rename).
    Tmp,
    /// The previous generation kept as `.prev`.
    Previous,
}

/// A checkpoint recovered by [`Checkpoint::load_salvage`], with
/// provenance for operator-facing logs.
#[derive(Debug, Clone)]
pub struct SalvagedCheckpoint {
    /// The recovered document.
    pub checkpoint: Checkpoint,
    /// Which generation it came from.
    pub source: SalvageSource,
    /// Human-readable salvage description; `None` when the primary file
    /// was intact.
    pub note: Option<String>,
}

/// Best-effort tolerant load: first complete JSON value of the file
/// (invalid UTF-8 replaced, trailing bytes ignored), if it is a valid
/// checkpoint document.
fn load_tolerant(path: &Path) -> Option<Checkpoint> {
    let bytes = std::fs::read(path).ok()?;
    let text = String::from_utf8_lossy(&bytes);
    let (json, _consumed) = Json::parse_prefix(&text).ok()?;
    Checkpoint::from_json(&json).ok()
}

/// What a campaign runner takes beyond its own campaign options: the
/// shard count and the checkpoint/resume and stop controls. Both runners
/// — [`crate::faults::run_campaign_sharded`] and the fuzzer's — share it.
#[derive(Debug, Clone, Default)]
pub struct ShardedCampaignOptions {
    /// Worker-shard count (clamped to at least 1).
    pub shards: usize,
    /// Where to write `fpgatest-checkpoint-v1` snapshots (`None` = no
    /// checkpointing).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Merged units between snapshots (0 = every work chunk).
    pub checkpoint_every: u64,
    /// Resume from this checkpoint: its completed prefix is re-merged
    /// (and its events re-emitted) without re-running.
    pub resume: Option<std::path::PathBuf>,
    /// Cooperative stop flag (tests; SIGINT uses [`install_sigint`]).
    pub stop: Option<Arc<AtomicBool>>,
    /// Stop when the process-wide SIGINT flag fires.
    pub sigint: bool,
}

/// What a campaign runner produced, around its campaign `report`.
#[derive(Debug)]
pub struct ShardedCampaignOutcome<R> {
    /// The (possibly partial, when interrupted) campaign report: always
    /// a prefix of the canonical unit order.
    pub report: R,
    /// Whether the run stopped early (stop flag / SIGINT). The
    /// checkpoint file, if any, holds everything merged so far.
    pub interrupted: bool,
    /// Units skipped thanks to the resume checkpoint.
    pub resumed: u64,
    /// When the resume checkpoint was torn and
    /// [`Checkpoint::load_salvage`] fell back to another generation: a
    /// note saying which (for the CLI to surface on stderr).
    pub salvage: Option<String>,
}

/// Knobs for [`run_sharded`].
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Worker-thread count (clamped to at least 1).
    pub shards: usize,
    /// Chunk size in units; `0` picks a default. Chunks are cut at
    /// absolute index boundaries (`k*chunk`), so chunk membership — and
    /// with it anything chunk-scoped, like batch-lane packing — is
    /// independent of the shard count and of where a resume started.
    pub chunk: u64,
    /// Merged units between checkpoint callbacks (`0` = only at the
    /// end / on interrupt).
    pub checkpoint_every: u64,
    /// Cooperative stop flag: set it and workers finish their current
    /// chunk and exit; the merge keeps only the contiguous prefix.
    pub stop: Option<Arc<AtomicBool>>,
    /// Also stop on the process-wide SIGINT flag (see
    /// [`install_sigint`]).
    pub sigint: bool,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            chunk: 0,
            checkpoint_every: 0,
            stop: None,
            sigint: false,
        }
    }
}

/// What [`run_sharded`] did.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Whether the run stopped before merging everything (stop flag or
    /// SIGINT).
    pub interrupted: bool,
    /// Everything merged (including the pre-completed `skip` set);
    /// always a prefix `[0, k)` of the index space.
    pub completed: RangeSet,
}

/// Default chunk size when [`ShardOptions::chunk`] is `0`. Deliberately
/// shard-count-independent: determinism of chunk-scoped behaviour (batch
/// lane packing) must not depend on `--shards`.
const DEFAULT_CHUNK: u64 = 16;

/// Runs `worker` over every index of `[0, total)` not already in
/// `skip`, across [`ShardOptions::shards`] work-stealing worker
/// threads, merging results on the calling thread in ascending index
/// order.
///
/// * `worker(start, end)` computes the results of the chunk
///   `[start, end)` (every index pending) and returns exactly
///   `end - start` results. It runs on a worker thread and must be
///   deterministic per index for the merged output to be
///   shard-count-independent.
/// * `merge(index, result)` is called on the calling thread, in
///   strictly ascending index order over the pending indices.
/// * `checkpoint(&completed)` is called on the calling thread after
///   every [`ShardOptions::checkpoint_every`] merged units, and once
///   more before returning (when interrupted or when anything merged).
///
/// On interrupt only the contiguous in-order prefix is merged; buffered
/// out-of-order results are discarded (a resume recomputes them).
pub fn run_sharded<R, W, M, C>(
    total: u64,
    skip: &RangeSet,
    options: &ShardOptions,
    worker: W,
    mut merge: M,
    mut checkpoint: C,
) -> ShardOutcome
where
    R: Send,
    W: Fn(u64, u64) -> Vec<R> + Sync,
    M: FnMut(u64, R),
    C: FnMut(&RangeSet),
{
    let chunk = if options.chunk == 0 { DEFAULT_CHUNK } else { options.chunk };
    let shards = options.shards.max(1);
    let stopped = || {
        options
            .stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::SeqCst))
            || (options.sigint && sigint_pending())
    };

    // Cut the pending gaps into chunks at absolute `k*chunk` boundaries.
    let mut chunks: Vec<(u64, u64)> = Vec::new();
    for (start, end) in skip.gaps(total) {
        let mut cursor = start;
        while cursor < end {
            let boundary = ((cursor / chunk) + 1) * chunk;
            let stop_at = boundary.min(end);
            chunks.push((cursor, stop_at));
            cursor = stop_at;
        }
    }

    let mut completed = skip.clone();
    // Normalize: completed must describe a prefix for resume semantics;
    // callers hand us checkpoint sets which are prefixes by
    // construction, but a hand-edited file must not break merging.
    let expected: Vec<u64> = chunks.iter().map(|&(s, _)| s).collect();

    // Deal chunks to per-shard deques in contiguous blocks, so shard 0
    // starts at the front of the index space (merging can start
    // immediately) and steals move whole tail chunks.
    let deques: Vec<Mutex<VecDeque<(u64, u64)>>> = {
        let per = chunks.len().div_ceil(shards).max(1);
        let mut deques: Vec<Mutex<VecDeque<(u64, u64)>>> = Vec::new();
        for block in chunks.chunks(per) {
            deques.push(Mutex::new(block.iter().copied().collect()));
        }
        while deques.len() < shards {
            deques.push(Mutex::new(VecDeque::new()));
        }
        deques
    };

    let (tx, rx) = mpsc::channel::<(u64, Vec<R>)>();
    let mut merged_since_checkpoint = 0u64;
    let mut any_merged = false;
    let mut interrupted = false;

    std::thread::scope(|scope| {
        for shard in 0..shards {
            let tx = tx.clone();
            let deques = &deques;
            let worker = &worker;
            let stopped = &stopped;
            scope.spawn(move || loop {
                if stopped() {
                    return;
                }
                // Own queue first (front: lowest indices, the merge's
                // critical path), then steal the richest peer's tail.
                let mut job = deques[shard]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .pop_front();
                if job.is_none() {
                    let richest = (0..deques.len()).filter(|&i| i != shard).max_by_key(|&i| {
                        deques[i]
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .len()
                    });
                    if let Some(victim) = richest {
                        job = deques[victim]
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .pop_back();
                    }
                }
                let Some((start, end)) = job else { return };
                let results = worker(start, end);
                debug_assert_eq!(results.len() as u64, end - start);
                if tx.send((start, results)).is_err() {
                    return;
                }
            });
        }
        drop(tx);

        // In-order merge: buffer out-of-order chunks, advance along the
        // expected chunk-start sequence.
        let mut buffer: BTreeMap<u64, Vec<R>> = BTreeMap::new();
        let mut next = 0usize;
        while let Ok((start, results)) = rx.recv() {
            buffer.insert(start, results);
            while next < expected.len() {
                let Some(results) = buffer.remove(&expected[next]) else {
                    break;
                };
                let start = expected[next];
                let len = results.len() as u64;
                for (offset, result) in results.into_iter().enumerate() {
                    merge(start + offset as u64, result);
                }
                completed.insert_range(start, start + len);
                merged_since_checkpoint += len;
                any_merged = true;
                next += 1;
                if options.checkpoint_every > 0
                    && merged_since_checkpoint >= options.checkpoint_every
                {
                    checkpoint(&completed);
                    merged_since_checkpoint = 0;
                }
            }
        }
        interrupted = next < expected.len();
    });

    if (interrupted || any_merged) && merged_since_checkpoint > 0 {
        checkpoint(&completed);
    }
    ShardOutcome {
        interrupted,
        completed,
    }
}

static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn campaign_on_sigint(_signum: i32) {
    SIGINT_FLAG.store(true, Ordering::SeqCst);
}

/// The shard count a campaign CLI uses when the user names none: the
/// machine's available parallelism (1 when it cannot be determined).
/// Output bytes never depend on it; only wall time does.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Installs a SIGINT handler that sets the process-wide campaign stop
/// flag (checked when [`ShardOptions::sigint`] is on). First Ctrl-C
/// stops workers cooperatively so the campaign can checkpoint and exit
/// 130; the handler stays installed, so a second Ctrl-C also just sets
/// the (already set) flag rather than killing the process mid-save.
#[cfg(unix)]
pub fn install_sigint() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, campaign_on_sigint as *const () as usize);
    }
}

/// No-op off Unix.
#[cfg(not(unix))]
pub fn install_sigint() {}

/// Whether SIGINT fired since [`install_sigint`].
pub fn sigint_pending() -> bool {
    SIGINT_FLAG.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rangeset_coalesces_and_queries() {
        let mut set = RangeSet::new();
        set.insert_range(10, 20);
        set.insert_range(0, 5);
        assert_eq!(set.ranges(), &[(0, 5), (10, 20)]);
        set.insert_range(5, 10); // bridges the gap
        assert_eq!(set.ranges(), &[(0, 20)]);
        set.insert(25);
        set.insert(24);
        assert_eq!(set.ranges(), &[(0, 20), (24, 26)]);
        assert!(set.contains(0) && set.contains(19) && set.contains(25));
        assert!(!set.contains(20) && !set.contains(23) && !set.contains(26));
        assert_eq!(set.covered(), 22);
        assert_eq!(set.gaps(30), vec![(20, 24), (26, 30)]);
        assert!(!set.is_complete(30));
        set.insert_range(0, 30);
        assert!(set.is_complete(30));
        assert_eq!(set.gaps(30), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn rangeset_insert_overlapping_and_contained() {
        let mut set = RangeSet::new();
        set.insert_range(5, 15);
        set.insert_range(0, 20); // superset swallows
        assert_eq!(set.ranges(), &[(0, 20)]);
        set.insert_range(3, 7); // contained: no-op
        assert_eq!(set.ranges(), &[(0, 20)]);
        set.insert_range(30, 40);
        set.insert_range(18, 32); // overlaps both
        assert_eq!(set.ranges(), &[(0, 40)]);
    }

    #[test]
    fn rangeset_round_trips_through_json() {
        let mut set = RangeSet::new();
        set.insert_range(0, 7);
        set.insert_range(64, 128);
        let back = RangeSet::from_json(&set.to_json()).unwrap();
        assert_eq!(back, set);
        assert!(RangeSet::from_json(&Json::from("nope")).is_err());
    }

    #[test]
    fn checkpoint_round_trips_and_saves_atomically() {
        let mut completed = RangeSet::new();
        completed.insert_range(0, 42);
        let checkpoint = Checkpoint {
            kind: "faults".to_string(),
            key: "fdct1".to_string(),
            total: 100,
            completed,
            state: Json::obj([("records", Json::Arr(vec![]))]),
        };
        let back = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(back.kind, "faults");
        assert_eq!(back.key, "fdct1");
        assert_eq!(back.total, 100);
        assert_eq!(back.completed.ranges(), &[(0, 42)]);

        let dir = std::env::temp_dir().join("fpgatest_checkpoint_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.checkpoint");
        checkpoint.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.total, 100);
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        // Wrong schema is rejected.
        std::fs::write(&path, "{\"schema\":\"nope\"}").unwrap();
        assert!(Checkpoint::load(&path).is_err());
    }

    fn checkpoint_covering(units: u64) -> Checkpoint {
        let mut completed = RangeSet::new();
        completed.insert_range(0, units);
        Checkpoint {
            kind: "faults".to_string(),
            key: "fdct1".to_string(),
            total: 100,
            completed,
            state: Json::obj([("records", Json::Arr(vec![Json::from(units)]))]),
        }
    }

    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_keeps_the_previous_generation() {
        let dir = fresh_dir("fpgatest_checkpoint_generations");
        let path = dir.join("campaign.checkpoint");
        checkpoint_covering(10).save(&path).unwrap();
        assert!(!path.with_extension("prev").exists(), "first save has no N-1");
        checkpoint_covering(20).save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "temp renamed away");
        let current = Checkpoint::load(&path).unwrap();
        let previous = Checkpoint::load(&path.with_extension("prev")).unwrap();
        assert_eq!(current.completed.covered(), 20);
        assert_eq!(previous.completed.covered(), 10, ".prev holds generation N-1");
    }

    #[test]
    fn salvage_ignores_trailing_garbage() {
        let dir = fresh_dir("fpgatest_checkpoint_salvage_garbage");
        let path = dir.join("campaign.checkpoint");
        checkpoint_covering(42).save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"\x00\xffgarbage after the document");
        std::fs::write(&path, &bytes).unwrap();
        assert!(Checkpoint::load(&path).is_err(), "strict load refuses");
        let salvaged = Checkpoint::load_salvage(&path).unwrap();
        assert_eq!(salvaged.source, SalvageSource::TrailingGarbage);
        assert_eq!(salvaged.checkpoint.completed.covered(), 42);
        assert!(salvaged.note.is_some());
    }

    #[test]
    fn salvage_falls_back_to_tmp_then_prev() {
        let dir = fresh_dir("fpgatest_checkpoint_salvage_fallback");
        let path = dir.join("campaign.checkpoint");
        // A save killed between write and rename: torn primary, complete
        // newer .tmp, intact .prev.
        checkpoint_covering(10).save(&path).unwrap();
        std::fs::rename(&path, path.with_extension("prev")).unwrap();
        std::fs::write(
            path.with_extension("tmp"),
            checkpoint_covering(30).to_json().emit_pretty(),
        )
        .unwrap();
        std::fs::write(&path, "{\"schema\": \"fpgatest-checkp").unwrap();
        let salvaged = Checkpoint::load_salvage(&path).unwrap();
        assert_eq!(salvaged.source, SalvageSource::Tmp);
        assert_eq!(salvaged.checkpoint.completed.covered(), 30);
        // Without the .tmp, the previous generation wins.
        std::fs::remove_file(path.with_extension("tmp")).unwrap();
        let salvaged = Checkpoint::load_salvage(&path).unwrap();
        assert_eq!(salvaged.source, SalvageSource::Previous);
        assert_eq!(salvaged.checkpoint.completed.covered(), 10);
        // With nothing valid anywhere, salvage reports the strict error.
        std::fs::remove_file(path.with_extension("prev")).unwrap();
        let err = Checkpoint::load_salvage(&path).unwrap_err();
        assert!(err.contains("no salvageable generation"), "{err}");
    }

    #[test]
    fn salvage_survives_truncation_at_every_byte() {
        let dir = fresh_dir("fpgatest_checkpoint_salvage_truncation");
        let path = dir.join("campaign.checkpoint");
        checkpoint_covering(10).save(&path).unwrap();
        checkpoint_covering(20).save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let salvaged = Checkpoint::load_salvage(&path)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            let covered = salvaged.checkpoint.completed.covered();
            // Either the full newest generation (only possible when the
            // document survived the cut) or the intact N-1 fallback —
            // never a refusal, never a bogus document.
            assert!(
                covered == 20 || covered == 10,
                "cut at byte {cut} recovered {covered} units"
            );
            assert!(
                salvaged.checkpoint.completed.ranges().len() == 1
                    && salvaged.checkpoint.completed.ranges()[0].0 == 0,
                "recovered set is a prefix"
            );
            if covered == 10 {
                assert_eq!(salvaged.source, SalvageSource::Previous, "cut {cut}");
            }
        }
    }

    /// The worker squares indices; the merged sequence must be the
    /// ascending squares regardless of shard count or chunk size.
    fn collect_sharded(total: u64, skip: &RangeSet, shards: usize, chunk: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let outcome = run_sharded(
            total,
            skip,
            &ShardOptions {
                shards,
                chunk,
                ..ShardOptions::default()
            },
            |start, end| (start..end).map(|i| i * i).collect::<Vec<u64>>(),
            |index, value| out.push((index, value)),
            |_| {},
        );
        assert!(!outcome.interrupted);
        assert!(outcome.completed.is_complete(total));
        out
    }

    #[test]
    fn sharded_merge_is_index_ordered_at_any_shard_count() {
        let reference = collect_sharded(103, &RangeSet::new(), 1, 7);
        for shards in [2, 3, 7, 16] {
            for chunk in [1, 5, 64] {
                assert_eq!(
                    collect_sharded(103, &RangeSet::new(), shards, chunk),
                    reference,
                    "shards={shards} chunk={chunk}"
                );
            }
        }
        let indices: Vec<u64> = reference.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..103).collect::<Vec<u64>>());
    }

    #[test]
    fn sharded_run_skips_completed_ranges() {
        let mut skip = RangeSet::new();
        skip.insert_range(0, 10);
        skip.insert_range(20, 25);
        let merged = collect_sharded(30, &skip, 3, 4);
        let indices: Vec<u64> = merged.iter().map(|&(i, _)| i).collect();
        let expected: Vec<u64> = (10..20).chain(25..30).collect();
        assert_eq!(indices, expected);
    }

    #[test]
    fn stop_flag_keeps_only_the_contiguous_prefix() {
        let stop = Arc::new(AtomicBool::new(false));
        let mut merged = Vec::new();
        let mut checkpoints = 0usize;
        let outcome = run_sharded(
            1000,
            &RangeSet::new(),
            &ShardOptions {
                shards: 2,
                chunk: 4,
                checkpoint_every: 8,
                stop: Some(stop.clone()),
                sigint: false,
            },
            |start, end| {
                if start >= 100 {
                    stop.store(true, Ordering::SeqCst);
                }
                (start..end).collect::<Vec<u64>>()
            },
            |index, value| {
                assert_eq!(index, value);
                merged.push(index);
            },
            |completed| {
                checkpoints += 1;
                // Every checkpoint set is a prefix.
                assert_eq!(completed.ranges().len(), 1);
                assert_eq!(completed.ranges()[0].0, 0);
            },
        );
        assert!(outcome.interrupted);
        // Merged exactly [0, k) for some k (possibly 0 when the flag won
        // the race before the first chunk).
        let k = merged.len() as u64;
        assert!(k < 1000, "the stop flag cut the campaign short");
        assert_eq!(merged, (0..k).collect::<Vec<u64>>());
        assert_eq!(outcome.completed.gaps(1000), vec![(k, 1000)]);
        if k > 0 {
            assert!(checkpoints >= 1, "final checkpoint fires on interrupt");
        }
    }

    #[test]
    fn resume_completes_what_a_stopped_run_left() {
        // Phase 1: stop after ~half.
        let stop = Arc::new(AtomicBool::new(false));
        let mut first = Vec::new();
        let stop_trigger = stop.clone();
        let outcome = run_sharded(
            200,
            &RangeSet::new(),
            &ShardOptions {
                shards: 3,
                chunk: 8,
                stop: Some(stop),
                ..ShardOptions::default()
            },
            move |start, end| {
                if start >= 64 {
                    stop_trigger.store(true, Ordering::SeqCst);
                }
                (start..end).map(|i| i + 1).collect::<Vec<u64>>()
            },
            |index, value| first.push((index, value)),
            |_| {},
        );
        // Whether (and where) the stop landed depends on scheduling; the
        // property under test is that resume completes the remainder and
        // the concatenation equals the uninterrupted sequence.
        // Phase 2: resume from the completed prefix.
        let mut second = Vec::new();
        let resumed = run_sharded(
            200,
            &outcome.completed,
            &ShardOptions {
                shards: 3,
                chunk: 8,
                ..ShardOptions::default()
            },
            |start, end| (start..end).map(|i| i + 1).collect::<Vec<u64>>(),
            |index, value| second.push((index, value)),
            |_| {},
        );
        assert!(!resumed.interrupted);
        assert!(resumed.completed.is_complete(200));
        let mut all = first;
        all.extend(second);
        let expected: Vec<(u64, u64)> = (0..200).map(|i| (i, i + 1)).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn checkpoint_callback_fires_on_interval() {
        let mut checkpoints: Vec<u64> = Vec::new();
        run_sharded(
            100,
            &RangeSet::new(),
            &ShardOptions {
                shards: 4,
                chunk: 5,
                checkpoint_every: 20,
                ..ShardOptions::default()
            },
            |start, end| (start..end).collect::<Vec<u64>>(),
            |_, _| {},
            |completed| checkpoints.push(completed.covered()),
        );
        assert!(!checkpoints.is_empty());
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoint coverage grows monotonically: {checkpoints:?}"
        );
        assert_eq!(*checkpoints.last().unwrap(), 100);
    }
}
