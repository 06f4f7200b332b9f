//! Cross-run trend ledger — the `fpgatest-ledger-v1` format behind
//! `fpgatest trends`.
//!
//! The one-shot `--baseline` comparison answers "is this run slower
//! than that saved one?". The ledger answers the longitudinal question:
//! every `run` / `test` / `faults` / bench invocation can append one
//! summary line to an append-only `runs.jsonl` (`--ledger runs.jsonl`),
//! and `fpgatest trends runs.jsonl` renders wall-time, kernel-counter,
//! and detected-fraction trajectories across those runs with percent
//! deltas — optionally gated (`--gate PCT` exits non-zero when the
//! latest entry regresses beyond the threshold against its
//! predecessor).
//!
//! Timestamps use `SystemTime` (they label entries, nothing is
//! subtracted from them); every *duration* in an entry was measured
//! with monotonic `std::time::Instant` by the code that produced it.

use crate::telemetry::{percent_change, Json};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag carried by every ledger line.
pub const LEDGER_SCHEMA: &str = "fpgatest-ledger-v1";

/// One invocation's summary — one line of `runs.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Which command ran: `run`, `test`, `faults`, or `bench`.
    pub command: String,
    /// What it ran over (manifest path, source file, design name).
    pub key: String,
    /// Simulation engine used.
    pub engine: String,
    /// Wall-clock timestamp (seconds since the Unix epoch); labels the
    /// entry, never used for duration arithmetic.
    pub unix_seconds: f64,
    /// Monotonic wall-clock time of the whole invocation.
    pub wall_seconds: f64,
    /// Passing cases (or non-crashed injections for `faults`).
    pub passed: u64,
    /// Failing cases (or silent faults for `faults`).
    pub failed: u64,
    /// Fault campaigns: the oracle's detected fraction.
    pub detected_fraction: Option<f64>,
    /// Named counters worth trending (kernel events/evals/updates, ...).
    pub counters: Vec<(String, f64)>,
}

impl LedgerEntry {
    /// A blank entry for `command` over `key`, stamped with the current
    /// wall-clock time.
    pub fn new(command: &str, key: &str) -> LedgerEntry {
        LedgerEntry {
            command: command.to_string(),
            key: key.to_string(),
            engine: String::new(),
            unix_seconds: unix_now(),
            wall_seconds: 0.0,
            passed: 0,
            failed: 0,
            detected_fraction: None,
            counters: Vec::new(),
        }
    }

    /// Serializes to one sorted-key JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("schema".to_string(), Json::from(LEDGER_SCHEMA)),
            ("command".to_string(), Json::from(self.command.as_str())),
            ("key".to_string(), Json::from(self.key.as_str())),
            ("engine".to_string(), Json::from(self.engine.as_str())),
            ("unix_seconds".to_string(), Json::from(self.unix_seconds)),
            ("wall_seconds".to_string(), Json::from(self.wall_seconds)),
            ("passed".to_string(), Json::from(self.passed)),
            ("failed".to_string(), Json::from(self.failed)),
        ];
        if let Some(fraction) = self.detected_fraction {
            pairs.push(("detected_fraction".to_string(), Json::from(fraction)));
        }
        if !self.counters.is_empty() {
            pairs.push((
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::from(*value)))
                        .collect(),
                ),
            ));
        }
        let mut json = Json::Obj(pairs);
        json.sort_keys();
        json
    }

    /// Parses a ledger line back into its typed form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing field or wrong schema.
    pub fn from_json(json: &Json) -> Result<LedgerEntry, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(LEDGER_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected schema '{other}'")),
            None => return Err("missing 'schema'".to_string()),
        }
        let s = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("missing string '{key}'"))
        };
        let f = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number '{key}'"))
        };
        let u = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer '{key}'"))
        };
        let mut counters = Vec::new();
        if let Some(Json::Obj(pairs)) = json.get("counters") {
            for (name, value) in pairs {
                let value = value
                    .as_f64()
                    .ok_or_else(|| format!("counter '{name}' is not a number"))?;
                counters.push((name.clone(), value));
            }
        }
        Ok(LedgerEntry {
            command: s("command")?,
            key: s("key")?,
            engine: s("engine")?,
            unix_seconds: f("unix_seconds")?,
            wall_seconds: f("wall_seconds")?,
            passed: u("passed")?,
            failed: u("failed")?,
            detected_fraction: json.get("detected_fraction").and_then(Json::as_f64),
            counters,
        })
    }
}

/// Seconds since the Unix epoch, for entry timestamps.
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Appends one entry to the ledger at `path` (created if absent). The
/// write goes through a [`BufWriter`] flushed before returning, so the
/// entry hits disk at end of run as one whole line.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn append(path: &Path, entry: &LedgerEntry) -> io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(entry.to_json().emit().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Reads every entry of a ledger file, in append order.
///
/// # Errors
///
/// Returns a message naming the offending line number for unreadable
/// files, unparseable lines, or wrong-schema entries.
pub fn read(path: &Path) -> Result<Vec<LedgerEntry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), number + 1))?;
        let entry = LedgerEntry::from_json(&json)
            .map_err(|e| format!("{} line {}: {e}", path.display(), number + 1))?;
        entries.push(entry);
    }
    Ok(entries)
}

/// What [`render_trends`] produced.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// The rendered trajectories, ready to print.
    pub text: String,
    /// Whether any group's latest entry regressed beyond the gate.
    pub gate_exceeded: bool,
}

fn percent_delta(then: f64, now: f64) -> Option<f64> {
    if then <= 0.0 {
        None
    } else {
        Some((now - then) / then * 100.0)
    }
}

/// Renders per-`(command, key)` trajectories of wall time, counters,
/// and detected fraction, each entry with its percent delta against the
/// previous entry of the same group.
///
/// With `gate = Some(pct)`, the latest entry of each group is checked
/// against its predecessor: a wall-time increase beyond `pct` percent
/// or a detected-fraction drop beyond `pct` percent marks the report
/// gate-exceeded (the `trends --gate` exit-code contract). Counters are
/// rendered but never gate — they are fingerprints, not budgets.
pub fn render_trends(entries: &[LedgerEntry], gate: Option<f64>) -> TrendReport {
    let mut groups: Vec<((String, String), Vec<&LedgerEntry>)> = Vec::new();
    for entry in entries {
        let group_key = (entry.command.clone(), entry.key.clone());
        match groups.iter_mut().find(|(key, _)| *key == group_key) {
            Some((_, members)) => members.push(entry),
            None => groups.push((group_key, vec![entry])),
        }
    }

    let mut text = String::new();
    let mut gate_exceeded = false;
    for ((command, key), members) in &groups {
        text.push_str(&format!(
            "== {command} {key} ({} run{}) ==\n",
            members.len(),
            if members.len() == 1 { "" } else { "s" }
        ));
        for (position, entry) in members.iter().enumerate() {
            let previous = position.checked_sub(1).map(|p| members[p]);
            let mut line = format!(
                "  run {:>2}: wall {:.4}s",
                position + 1,
                entry.wall_seconds
            );
            if let Some(prev) = previous {
                line.push_str(&format!(
                    " ({})",
                    percent_change(prev.wall_seconds, entry.wall_seconds)
                ));
            }
            if let Some(fraction) = entry.detected_fraction {
                line.push_str(&format!(", detected {fraction:.3}"));
                if let Some(prev_fraction) =
                    previous.and_then(|prev| prev.detected_fraction)
                {
                    line.push_str(&format!(
                        " ({})",
                        percent_change(prev_fraction, fraction)
                    ));
                }
            }
            line.push_str(&format!(
                ", {} passed / {} failed",
                entry.passed, entry.failed
            ));
            for (name, value) in &entry.counters {
                line.push_str(&format!(", {name} {value}"));
                if let Some(prev_value) = previous.and_then(|prev| {
                    prev.counters
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| *v)
                }) {
                    line.push_str(&format!(" ({})", percent_change(prev_value, *value)));
                }
            }
            text.push_str(&line);
            text.push('\n');
        }
        if let (Some(threshold), [.., prev, last]) = (gate, members.as_slice()) {
            let wall_delta = percent_delta(prev.wall_seconds, last.wall_seconds);
            if let Some(delta) = wall_delta {
                if delta > threshold {
                    gate_exceeded = true;
                    text.push_str(&format!(
                        "  GATE: wall time {:+.1}% exceeds +{threshold:.1}%\n",
                        delta
                    ));
                }
            }
            if let (Some(prev_fraction), Some(last_fraction)) =
                (prev.detected_fraction, last.detected_fraction)
            {
                if let Some(delta) = percent_delta(prev_fraction, last_fraction) {
                    if delta < -threshold {
                        gate_exceeded = true;
                        text.push_str(&format!(
                            "  GATE: detected fraction {delta:+.1}% exceeds -{threshold:.1}%\n",
                        ));
                    }
                }
            }
        }
    }
    if groups.is_empty() {
        text.push_str("ledger is empty\n");
    }
    TrendReport {
        text,
        gate_exceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(command: &str, key: &str, wall: f64, detected: Option<f64>) -> LedgerEntry {
        LedgerEntry {
            engine: "event".to_string(),
            wall_seconds: wall,
            passed: 5,
            failed: 0,
            detected_fraction: detected,
            counters: vec![("events".to_string(), 1000.0)],
            ..LedgerEntry::new(command, key)
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let original = entry("faults", "fdct1", 0.5, Some(0.95));
        let line = original.to_json().emit();
        let parsed = LedgerEntry::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn to_json_is_sorted_and_stable() {
        let e = entry("run", "suite.manifest", 1.0, None);
        assert_eq!(e.to_json().emit(), e.to_json().emit());
        let first = e.to_json().emit();
        let mut sorted = e.to_json();
        sorted.sort_keys();
        assert_eq!(first, sorted.emit(), "already canonical");
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = std::env::temp_dir().join("fpgatest_ledger_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("runs_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let a = entry("run", "m", 1.0, None);
        let b = entry("run", "m", 2.0, None);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        let entries = read(&path).unwrap();
        assert_eq!(entries, vec![a, b]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trends_render_deltas_per_group() {
        let entries = vec![
            entry("run", "m", 1.0, None),
            entry("faults", "fdct1", 0.5, Some(0.9)),
            entry("run", "m", 0.5, None),
        ];
        let report = render_trends(&entries, None);
        assert!(report.text.contains("== run m (2 runs) =="));
        assert!(report.text.contains("(-50.0%)"), "{}", report.text);
        assert!(report.text.contains("== faults fdct1 (1 run) =="));
        assert!(!report.gate_exceeded);
    }

    #[test]
    fn gate_trips_on_wall_regression_and_detected_drop() {
        let slow = vec![
            entry("run", "m", 1.0, None),
            entry("run", "m", 2.0, None),
        ];
        let report = render_trends(&slow, Some(10.0));
        assert!(report.gate_exceeded);
        assert!(report.text.contains("GATE: wall time"), "{}", report.text);

        let weaker_oracle = vec![
            entry("faults", "d", 1.0, Some(0.9)),
            entry("faults", "d", 1.0, Some(0.5)),
        ];
        let report = render_trends(&weaker_oracle, Some(10.0));
        assert!(report.gate_exceeded);
        assert!(
            report.text.contains("GATE: detected fraction"),
            "{}",
            report.text
        );

        let fine = vec![
            entry("run", "m", 1.0, None),
            entry("run", "m", 1.05, None),
        ];
        assert!(!render_trends(&fine, Some(10.0)).gate_exceeded);
    }
}
