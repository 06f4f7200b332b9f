//! The sharded campaign runtime — the `fpgatest-checkpoint-v1` format.
//!
//! Fuzzing and fault-injection campaigns are embarrassingly parallel at
//! the unit level (a fuzz case is `(seed, index)`, a fault injection is
//! a site index), but the batch engine only parallelizes *within* one
//! schedule walk; everything above it was single-threaded. This module
//! supplies the shared machinery both campaign kinds run on, and is the
//! only one that knows the checkpoint document and when it is written:
//!
//! * [`run_sharded`] — a work-stealing worker pool over the index space
//!   `0..total`. The space is cut into chunks at **absolute** chunk
//!   boundaries (so chunk membership never depends on the shard count),
//!   the chunks are dealt to per-shard deques, and an idle shard steals
//!   from the richest peer's tail. Results come back over a channel and
//!   are merged on the calling thread **in strict index order**, so the
//!   merged output — logs, coverage, records, and the
//!   `fpgatest-events-v1` stream — is bit-identical at any shard count.
//!   It also paces and saves the campaign's snapshots.
//! * [`CampaignId`] — what a campaign's checkpoints must match (kind,
//!   key, unit total, identity fields), stated once for the resume check
//!   and for every snapshot.
//! * [`Checkpoint`] — the `fpgatest-checkpoint-v1` JSON document:
//!   campaign identity, the length of the completed prefix, and a
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
    /// Length of the completed prefix: units `[0, completed)` are merged.
    /// Written as `[]` or `[[0, completed]]`.
    pub completed: u64,
    /// Campaign-specific merged state (records, coverage, log text).
    pub state: Json,
}

impl Checkpoint {
    /// Serializes the document.
    pub fn to_json(&self) -> Json {
        let prefix = (self.completed > 0)
            .then(|| Json::Arr(vec![Json::from(0u64), Json::from(self.completed)]));
        let mut json = Json::obj([
            ("schema", Json::from(CHECKPOINT_SCHEMA)),
            ("kind", Json::from(self.kind.as_str())),
            ("key", Json::from(self.key.as_str())),
            ("total", Json::from(self.total)),
            ("completed", Json::Arr(prefix.into_iter().collect())),
            ("state", self.state.clone()),
        ]);
        json.sort_keys();
        json
    }

    /// Parses a [`Checkpoint::to_json`] document.
    ///
    /// # Errors
    ///
    /// Returns a message for a wrong schema tag, a missing field, or a
    /// `completed` other than `[]` or `[[0, k]]` with `k <= total`.
    pub fn from_json(json: &Json) -> Result<Checkpoint, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(CHECKPOINT_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected checkpoint schema '{other}'")),
            None => return Err("missing 'schema'".to_string()),
        }
        let total = json
            .get("total")
            .and_then(Json::as_u64)
            .ok_or("missing 'total'")?;
        let malformed = || format!("'completed' must be [] or [[0, k]] with k <= total ({total})");
        let completed = match json
            .get("completed")
            .ok_or("missing 'completed'")?
            .as_array()
        {
            Some([]) => 0,
            Some([prefix]) => match prefix.as_array() {
                Some([start, end]) if start.as_u64() == Some(0) => {
                    end.as_u64().filter(|&k| k <= total).ok_or_else(malformed)?
                }
                _ => return Err(malformed()),
            },
            _ => return Err(malformed()),
        };
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
            total,
            completed,
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

    /// Loads a checkpoint, salvaging what it can from torn writes.
    ///
    /// Tried in order, best surviving generation wins (longest completed
    /// prefix; ties go to the earlier candidate):
    ///
    /// 1. `path` parsed strictly — the normal case, short-circuits;
    /// 2. `path` parsed tolerantly (first complete JSON value, trailing
    ///    garbage ignored);
    /// 3. `<path>.tmp` — a save killed between write and rename leaves a
    ///    complete *newer* generation here;
    /// 4. `<path>.prev` — the N-1 generation [`Checkpoint::save`] keeps.
    ///
    /// A truncated primary therefore costs at most one checkpoint
    /// interval of repeated work, never the whole campaign. A generation
    /// whose `completed` is not a prefix of its `total` is malformed like
    /// a torn one. Salvage only finds a structurally sound document;
    /// identity validation is [`CampaignId::load_resume`]'s.
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
                    note: None,
                })
            }
            Err(e) => e,
        };
        let mut candidates: Vec<(Checkpoint, String)> = Vec::new();
        if let Some(checkpoint) = load_tolerant(path) {
            let note = format!(
                "salvaged {} ({} units) ignoring trailing garbage",
                path.display(),
                checkpoint.completed
            );
            candidates.push((checkpoint, note));
        }
        for extension in ["tmp", "prev"] {
            let alt = path.with_extension(extension);
            let loaded = Checkpoint::load(&alt).ok().or_else(|| load_tolerant(&alt));
            if let Some(checkpoint) = loaded {
                let note = format!(
                    "salvaged generation {} ({} units)",
                    alt.display(),
                    checkpoint.completed
                );
                candidates.push((checkpoint, note));
            }
        }
        let mut best: Option<(Checkpoint, String)> = None;
        for candidate in candidates {
            if best
                .as_ref()
                .is_none_or(|(b, _)| candidate.0.completed > b.completed)
            {
                best = Some(candidate);
            }
        }
        match best {
            Some((checkpoint, note)) => Ok(SalvagedCheckpoint {
                checkpoint,
                note: Some(note),
            }),
            None => Err(format!("{primary_err}; no salvageable generation found")),
        }
    }
}

/// A checkpoint recovered by [`Checkpoint::load_salvage`], with
/// provenance for operator-facing logs.
#[derive(Debug, Clone)]
pub struct SalvagedCheckpoint {
    /// The recovered document.
    pub checkpoint: Checkpoint,
    /// Which generation was salvaged, and how; `None` when the primary
    /// file was intact.
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

/// What a campaign's checkpoints must match, stated once: a resume
/// checks it ([`CampaignId::load_resume`]) and every snapshot carries it
/// ([`CampaignId::snapshot`]).
#[derive(Debug, Clone)]
pub struct CampaignId {
    /// Campaign kind: `faults` or `fuzz`.
    pub kind: &'static str,
    /// Identity key: the design name, or `seedN`.
    pub key: String,
    /// Planned number of units.
    pub total: u64,
    /// Settings that make a checkpoint this campaign's beyond its key and
    /// total (seed, engine, budgets), kept in the snapshot's state.
    pub fields: Vec<(&'static str, Json)>,
}

impl CampaignId {
    /// Loads the checkpoint a campaign resumes from, salvaging torn or
    /// malformed writes ([`Checkpoint::load_salvage`]), and refuses one
    /// that another campaign wrote: its `kind`, `key`, unit `total` and
    /// every identity field must match.
    ///
    /// # Errors
    ///
    /// The salvage error, or `checkpoint P: FIELD does not match this
    /// campaign` for the first mismatch.
    pub fn load_resume(&self, path: &Path) -> Result<SalvagedCheckpoint, String> {
        let salvaged = Checkpoint::load_salvage(path)?;
        let checkpoint = &salvaged.checkpoint;
        let mismatch = if checkpoint.kind != self.kind {
            Some("kind")
        } else if checkpoint.key != self.key {
            Some("key")
        } else if checkpoint.total != self.total {
            Some("total")
        } else {
            self.fields
                .iter()
                .find(|(field, value)| checkpoint.state.get(field) != Some(value))
                .map(|(field, _)| *field)
        };
        match mismatch {
            Some(field) => Err(format!(
                "checkpoint {}: {field} does not match this campaign",
                path.display()
            )),
            None => Ok(salvaged),
        }
    }

    /// This campaign's checkpoint with `completed` units merged and
    /// `state` after the identity fields.
    pub fn snapshot(
        &self,
        completed: u64,
        state: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Checkpoint {
        Checkpoint {
            kind: self.kind.to_string(),
            key: self.key.clone(),
            total: self.total,
            completed,
            state: Json::obj(self.fields.iter().cloned().chain(state)),
        }
    }
}

/// What a campaign runner takes beyond its own campaign options: the
/// shard count and the checkpoint/resume and stop controls. Both runners
/// — [`crate::faults::run_campaign_sharded`] and the fuzzer's — share it,
/// and hand it to [`run_sharded`].
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
    /// Cooperative stop flag: set it and workers finish their current
    /// chunk and exit; the merge keeps only the contiguous prefix (tests;
    /// SIGINT uses [`install_sigint`]).
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

/// Runs `worker` over the units `[resumed, total)` across
/// [`ShardedCampaignOptions::shards`] work-stealing worker threads,
/// merging results on the calling thread in ascending index order, and
/// saves the campaign's snapshots to
/// [`ShardedCampaignOptions::checkpoint`].
///
/// * Units are cut into chunks of `chunk` at absolute `k*chunk`
///   boundaries, so chunk membership — and with it anything
///   chunk-scoped, like batch-lane packing — is independent of the shard
///   count and of where a resume started.
/// * `worker(start, end)` computes the results of the chunk
///   `[start, end)` and returns exactly `end - start` results. It runs
///   on a worker thread and must be deterministic per index for the
///   merged output to be shard-count-independent.
/// * `merge(index, result)` is called on the calling thread, in
///   strictly ascending index order.
/// * `snapshot(done)` builds the checkpoint of everything merged, `done`
///   being the end of the merged unit prefix. It is saved after every
///   [`ShardedCampaignOptions::checkpoint_every`] merged units (0 = every
///   chunk), and once more at the end when anything merged since the
///   last save — or, for a finished run, when nothing was saved yet — so
///   the final snapshot is written exactly once. Without a checkpoint
///   path it is never called.
///
/// On interrupt only the contiguous in-order prefix is merged; buffered
/// out-of-order results are discarded (a resume recomputes them).
/// Returns whether the run was interrupted.
///
/// # Errors
///
/// The first failed save, `cannot save P: …`; the run still goes to its
/// end, and later snapshots are not attempted.
pub fn run_sharded<R, W, M, S>(
    total: u64,
    resumed: u64,
    options: &ShardedCampaignOptions,
    chunk: u64,
    worker: W,
    mut merge: M,
    mut snapshot: S,
) -> Result<bool, String>
where
    R: Send,
    W: Fn(u64, u64) -> Vec<R> + Sync,
    M: FnMut(u64, R),
    S: FnMut(u64) -> Checkpoint,
{
    let chunk = chunk.max(1);
    let shards = options.shards.max(1);
    let every = match options.checkpoint_every {
        0 => chunk,
        every => every,
    };
    let stopped = || {
        options
            .stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::SeqCst))
            || (options.sigint && sigint_pending())
    };

    // Cut the pending units into chunks at absolute `k*chunk` boundaries.
    let mut chunks: Vec<(u64, u64)> = Vec::new();
    let mut cursor = resumed.min(total);
    while cursor < total {
        let end = ((cursor / chunk + 1) * chunk).min(total);
        chunks.push((cursor, end));
        cursor = end;
    }

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

    // Saves one snapshot, keeping the first failure and trying no more.
    let mut save_error = None;
    let mut save = |done: u64| {
        if let (Some(path), None) = (&options.checkpoint, &save_error) {
            if let Err(e) = snapshot(done).save(path) {
                save_error = Some(format!("cannot save {}: {e}", path.display()));
            }
        }
    };

    let (tx, rx) = mpsc::channel::<(u64, Vec<R>)>();
    let mut done = resumed.min(total);
    let mut unsaved = 0u64;
    let mut saved = false;
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

        // In-order merge: buffer out-of-order chunks, merge the one that
        // starts where the merged prefix ends.
        let mut buffer: BTreeMap<u64, Vec<R>> = BTreeMap::new();
        while let Ok((start, results)) = rx.recv() {
            buffer.insert(start, results);
            while let Some(results) = buffer.remove(&done) {
                let start = done;
                done += results.len() as u64;
                unsaved += results.len() as u64;
                for (offset, result) in results.into_iter().enumerate() {
                    merge(start + offset as u64, result);
                }
                if unsaved >= every {
                    save(done);
                    unsaved = 0;
                    saved = true;
                }
            }
        }
        interrupted = done < total;
    });

    if unsaved > 0 || !(interrupted || saved) {
        save(done);
    }
    match save_error {
        Some(message) => Err(message),
        None => Ok(interrupted),
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
/// flag (checked when [`ShardedCampaignOptions::sigint`] is on). First
/// Ctrl-C stops workers cooperatively so the campaign can checkpoint and
/// exit 130; the handler stays installed, so a second Ctrl-C also just
/// sets the (already set) flag rather than killing the process mid-save.
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

    /// A checkpoint of a 100-unit campaign with `units` merged.
    fn checkpoint_covering(units: u64) -> Checkpoint {
        prefix_of(100, units)
    }

    fn prefix_of(total: u64, units: u64) -> Checkpoint {
        Checkpoint {
            kind: "faults".to_string(),
            key: "fdct1".to_string(),
            total,
            completed: units,
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
    fn checkpoint_round_trips_and_saves_atomically() {
        let checkpoint = Checkpoint {
            kind: "faults".to_string(),
            key: "fdct1".to_string(),
            total: 100,
            completed: 42,
            state: Json::obj([("records", Json::Arr(vec![]))]),
        };
        let back = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(back.kind, "faults");
        assert_eq!(back.key, "fdct1");
        assert_eq!(back.total, 100);
        assert_eq!(back.completed, 42);
        assert_eq!(
            checkpoint
                .to_json()
                .get("completed")
                .map(Json::emit)
                .as_deref(),
            Some("[[0,42]]")
        );

        let dir = fresh_dir("fpgatest_checkpoint_test");
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

    /// `completed` is `[]` or `[[0, k]]` with `k <= total`, and nothing
    /// else: a suffix, a gap or a prefix past the total is malformed.
    #[test]
    fn completed_must_be_a_prefix_of_the_total() {
        let with_completed = |completed: &str| {
            let mut json = checkpoint_covering(0).to_json();
            if let Json::Obj(members) = &mut json {
                for (key, value) in members.iter_mut() {
                    if key == "completed" {
                        *value = Json::parse(completed).unwrap();
                    }
                }
            }
            Checkpoint::from_json(&json)
        };
        assert_eq!(with_completed("[]").unwrap().completed, 0);
        assert_eq!(with_completed("[[0, 100]]").unwrap().completed, 100);
        assert_eq!(
            checkpoint_covering(0)
                .to_json()
                .get("completed")
                .map(Json::emit)
                .as_deref(),
            Some("[]")
        );
        for malformed in [
            "[[0, 101]]",
            "[[0, 500]]",
            "[[2, 5]]",
            "[[0, 5], [10, 20]]",
            "[[0, 5, 7]]",
            "[0, 5]",
            "\"all\"",
        ] {
            let err = with_completed(malformed).unwrap_err();
            assert!(err.contains("'completed'"), "{malformed}: {err}");
        }
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
        assert_eq!(current.completed, 20);
        assert_eq!(previous.completed, 10, ".prev holds generation N-1");
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
        assert_eq!(salvaged.checkpoint.completed, 42);
        let note = salvaged.note.expect("a salvage note");
        assert!(note.contains("ignoring trailing garbage"), "{note}");
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
        assert!(salvaged.note.unwrap().contains("campaign.tmp"));
        assert_eq!(salvaged.checkpoint.completed, 30);
        // Without the .tmp, the previous generation wins.
        std::fs::remove_file(path.with_extension("tmp")).unwrap();
        let salvaged = Checkpoint::load_salvage(&path).unwrap();
        assert!(salvaged.note.unwrap().contains("campaign.prev"));
        assert_eq!(salvaged.checkpoint.completed, 10);
        // A primary whose `completed` is not a prefix is malformed like a
        // torn one: the previous generation still wins.
        let mut gap = checkpoint_covering(0).to_json().emit_pretty();
        gap = gap.replace("\"completed\": []", "\"completed\": [[2, 5]]");
        std::fs::write(&path, gap).unwrap();
        let salvaged = Checkpoint::load_salvage(&path).unwrap();
        assert!(salvaged.note.unwrap().contains("campaign.prev"));
        assert_eq!(salvaged.checkpoint.completed, 10);
        // With nothing valid anywhere, salvage reports the strict error.
        std::fs::remove_file(path.with_extension("prev")).unwrap();
        let err = Checkpoint::load_salvage(&path).unwrap_err();
        assert!(err.contains("no salvageable generation"), "{err}");
        assert!(err.contains("'completed'"), "{err}");
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
            let covered = salvaged.checkpoint.completed;
            // Either the full newest generation (only possible when the
            // document survived the cut) or the intact N-1 fallback —
            // never a refusal, never a bogus document.
            assert!(
                covered == 20 || covered == 10,
                "cut at byte {cut} recovered {covered} units"
            );
            if covered == 10 {
                let note = salvaged.note.unwrap_or_default();
                assert!(note.contains("campaign.prev"), "cut {cut}: {note}");
            }
        }
    }

    /// Options that checkpoint to `path` every `every` merged units.
    fn saving(path: &Path, shards: usize, every: u64) -> ShardedCampaignOptions {
        ShardedCampaignOptions {
            shards,
            checkpoint: Some(path.to_path_buf()),
            checkpoint_every: every,
            ..ShardedCampaignOptions::default()
        }
    }

    /// The worker squares indices; the merged sequence must be the
    /// ascending squares regardless of shard count or chunk size.
    fn collect_sharded(total: u64, shards: usize, chunk: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let interrupted = run_sharded(
            total,
            0,
            &ShardedCampaignOptions {
                shards,
                ..ShardedCampaignOptions::default()
            },
            chunk,
            |start, end| (start..end).map(|i| i * i).collect::<Vec<u64>>(),
            |index, value| out.push((index, value)),
            |_| unreachable!("no checkpoint path, no snapshot"),
        )
        .unwrap();
        assert!(!interrupted);
        out
    }

    #[test]
    fn sharded_merge_is_index_ordered_at_any_shard_count() {
        let reference = collect_sharded(103, 1, 7);
        for shards in [2, 3, 7, 16] {
            for chunk in [1, 5, 64] {
                assert_eq!(
                    collect_sharded(103, shards, chunk),
                    reference,
                    "shards={shards} chunk={chunk}"
                );
            }
        }
        let indices: Vec<u64> = reference.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..103).collect::<Vec<u64>>());
    }

    #[test]
    fn stop_flag_keeps_only_the_contiguous_prefix() {
        let dir = fresh_dir("fpgatest_campaign_stop_prefix");
        let path = dir.join("stop.checkpoint");
        let stop = Arc::new(AtomicBool::new(false));
        let mut merged = Vec::new();
        let mut snapshots = Vec::new();
        let interrupted = run_sharded(
            1000,
            0,
            &ShardedCampaignOptions {
                stop: Some(stop.clone()),
                ..saving(&path, 2, 8)
            },
            4,
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
            |done| {
                snapshots.push(done);
                prefix_of(1000, done)
            },
        )
        .unwrap();
        assert!(interrupted);
        // Merged exactly [0, k) for some k (possibly 0 when the flag won
        // the race before the first chunk).
        let k = merged.len() as u64;
        assert!(k < 1000, "the stop flag cut the campaign short");
        assert_eq!(merged, (0..k).collect::<Vec<u64>>());
        if k > 0 {
            assert_eq!(
                snapshots.last(),
                Some(&k),
                "final snapshot fires on interrupt"
            );
            assert_eq!(Checkpoint::load(&path).unwrap().completed, k);
        }
    }

    #[test]
    fn resume_completes_what_a_stopped_run_left() {
        // Phase 1: stop after ~half.
        let stop = Arc::new(AtomicBool::new(false));
        let mut first = Vec::new();
        let stop_trigger = stop.clone();
        run_sharded(
            200,
            0,
            &ShardedCampaignOptions {
                shards: 3,
                stop: Some(stop),
                ..ShardedCampaignOptions::default()
            },
            8,
            move |start, end| {
                if start >= 64 {
                    stop_trigger.store(true, Ordering::SeqCst);
                }
                (start..end).map(|i| i + 1).collect::<Vec<u64>>()
            },
            |index, value| first.push((index, value)),
            |_| unreachable!("no checkpoint path, no snapshot"),
        )
        .unwrap();
        // Whether (and where) the stop landed depends on scheduling; the
        // property under test is that resume completes the remainder and
        // the concatenation equals the uninterrupted sequence.
        // Phase 2: resume from the completed prefix.
        let mut second = Vec::new();
        let interrupted = run_sharded(
            200,
            first.len() as u64,
            &ShardedCampaignOptions {
                shards: 3,
                ..ShardedCampaignOptions::default()
            },
            8,
            |start, end| (start..end).map(|i| i + 1).collect::<Vec<u64>>(),
            |index, value| second.push((index, value)),
            |_| unreachable!("no checkpoint path, no snapshot"),
        )
        .unwrap();
        assert!(!interrupted);
        let mut all = first;
        all.extend(second);
        let expected: Vec<(u64, u64)> = (0..200).map(|i| (i, i + 1)).collect();
        assert_eq!(all, expected);
    }

    /// Snapshots come every `checkpoint_every` merged units, and the
    /// final one is written once: `.prev` keeps the generation before it.
    #[test]
    fn checkpoint_callback_fires_on_interval() {
        let dir = fresh_dir("fpgatest_campaign_interval");
        let path = dir.join("interval.checkpoint");
        let mut snapshots: Vec<u64> = Vec::new();
        run_sharded(
            100,
            0,
            &saving(&path, 4, 20),
            5,
            |start, end| (start..end).collect::<Vec<u64>>(),
            |_, _| {},
            |done| {
                snapshots.push(done);
                checkpoint_covering(done)
            },
        )
        .unwrap();
        assert_eq!(snapshots, [20, 40, 60, 80, 100]);
        assert_eq!(Checkpoint::load(&path).unwrap().completed, 100);
        let previous = Checkpoint::load(&path.with_extension("prev")).unwrap();
        assert_eq!(
            previous.completed, 80,
            ".prev is the generation before the final one"
        );

        // Off the interval, the final snapshot closes the tail; a run with
        // nothing left to merge still writes its final snapshot once; 0
        // means one snapshot per chunk.
        for (resumed, every, expected) in [
            (0, 30, &[30, 60, 90, 100][..]),
            (100, 30, &[100]),
            (80, 0, &[85, 90, 95, 100]),
        ] {
            let mut snapshots: Vec<u64> = Vec::new();
            run_sharded(
                100,
                resumed,
                &saving(&path, 2, every),
                5,
                |start, end| (start..end).collect::<Vec<u64>>(),
                |_, _| {},
                |done| {
                    snapshots.push(done);
                    checkpoint_covering(done)
                },
            )
            .unwrap();
            assert_eq!(snapshots, expected, "resumed {resumed} every {every}");
        }
    }

    /// A failed save is the run's error, and no later snapshot is tried.
    #[test]
    fn first_save_error_is_kept() {
        let dir = fresh_dir("fpgatest_campaign_save_error");
        let path = dir.join("missing").join("run.checkpoint");
        let mut snapshots = 0;
        let err = run_sharded(
            40,
            0,
            &saving(&path, 2, 8),
            8,
            |start, end| (start..end).collect::<Vec<u64>>(),
            |_, _| {},
            |done| {
                snapshots += 1;
                checkpoint_covering(done)
            },
        )
        .unwrap_err();
        assert!(err.starts_with("cannot save "), "{err}");
        assert_eq!(snapshots, 1);
    }
}
