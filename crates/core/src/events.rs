//! Live structured event stream — the `fpgatest-events-v1` wire format.
//!
//! Post-hoc metrics JSON (`fpgatest-metrics-v1`) tells you what a run
//! did *after* it exits. Long campaigns — suites under `--jobs`,
//! 200-site fault sweeps, fuzzing runs — need to be observable while
//! they run. This module defines a typed event vocabulary and a
//! line-buffered JSONL sink: each event is one JSON object on one line,
//! flushed as it is emitted, so `tail -f events.jsonl` (or a pipe on
//! `--events-out -`) shows a campaign mid-flight, and a killed process
//! leaves only whole lines behind.
//!
//! The stream is also the wire format a future `fpgatest serve` daemon
//! would speak: every line is self-describing (`schema` + `event` +
//! monotonic `seq`), and [`Event::from_json`] round-trips everything
//! [`Event::to_json`] emits.
//!
//! Ordering contract: event *order* is deterministic for a given
//! invocation (the suite pool serializes per-case events in manifest
//! order regardless of which worker finishes first), while wall-clock
//! *values* (rates, ETAs, span durations) naturally vary run to run.

use crate::telemetry::Json;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag carried by every event line.
pub const EVENTS_SCHEMA: &str = "fpgatest-events-v1";

/// One typed occurrence in a run or campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A flow stage span opened (mirrors the telemetry span tree).
    SpanStart {
        /// Span name, e.g. `flow.simulate.fdct1`.
        name: String,
    },
    /// A flow stage span closed.
    SpanEnd {
        /// Span name, matching the corresponding [`Event::SpanStart`].
        name: String,
        /// Monotonic wall-clock duration of the span.
        wall_seconds: f64,
    },
    /// A campaign (suite / faults / fuzz) began.
    CampaignStarted {
        /// Campaign kind: `suite`, `faults`, or `fuzz`.
        kind: String,
        /// What the campaign runs over (manifest path, design, seed).
        key: String,
        /// Planned number of cases / injections.
        total: u64,
    },
    /// A suite case was picked up.
    CaseStarted {
        /// Case name from the manifest.
        case: String,
        /// Zero-based manifest position.
        index: u64,
        /// Case count in the suite.
        total: u64,
    },
    /// A suite case finished with a verdict.
    CaseFinished {
        /// Case name from the manifest.
        case: String,
        /// Zero-based manifest position.
        index: u64,
        /// `pass` / `fail` / `error` / `crash` / `timeout`.
        verdict: String,
        /// Monotonic wall-clock time the case took.
        wall_seconds: f64,
    },
    /// Periodic campaign progress. Suite runs carry live wall-clock
    /// values; fault and fuzz campaigns zero `rate`, `eta_seconds` and
    /// `slowest*` so their streams are byte-deterministic.
    Heartbeat {
        /// Units of work completed so far.
        done: u64,
        /// Total planned units of work.
        total: u64,
        /// Completion rate in units/second (0 when elapsed is ~0).
        rate: f64,
        /// Estimated seconds remaining at the current rate.
        eta_seconds: f64,
        /// Slowest unit of work seen so far (empty before the first).
        slowest: String,
        /// Wall-clock seconds the slowest unit took.
        slowest_seconds: f64,
    },
    /// A fault was injected into a campaign run.
    FaultInjected {
        /// The fault spec, e.g. `stuck1:acc.3`.
        fault: String,
        /// Fault class: `stuck-at` / `bit-flip` / `seu-reg` / `sram-corrupt`.
        class: String,
        /// Zero-based injection index.
        index: u64,
        /// Sampled site count.
        total: u64,
    },
    /// A fault injection's run completed and was classified.
    FaultClassified {
        /// The fault spec, matching the [`Event::FaultInjected`].
        fault: String,
        /// `detected` / `silent` / `hung` / `skipped` / `crashed`.
        outcome: String,
        /// Classification detail (mismatch summary, skip reason, ...).
        detail: String,
        /// Monotonic wall-clock time the injected run took.
        wall_seconds: f64,
    },
    /// The differential fuzzer found a divergence.
    FuzzDivergence {
        /// Case index within the campaign.
        index: u64,
        /// Which compile variant diverged.
        variant: String,
        /// Divergence kind (`DivKind` debug form).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A campaign finished; always the last event of a campaign stream.
    CampaignFinished {
        /// Campaign kind: `suite`, `faults`, or `fuzz`.
        kind: String,
        /// What the campaign ran over, matching [`Event::CampaignStarted`].
        key: String,
        /// Units of work completed.
        done: u64,
        /// Failures: failed cases, undetected-is-fine — for faults this
        /// counts `silent` outcomes, for fuzz the divergences.
        failed: u64,
        /// Monotonic wall-clock time of the whole campaign.
        wall_seconds: f64,
    },
}

impl Event {
    /// The `event` discriminator string this variant serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanStart { .. } => "span-start",
            Event::SpanEnd { .. } => "span-end",
            Event::CampaignStarted { .. } => "campaign-started",
            Event::CaseStarted { .. } => "case-started",
            Event::CaseFinished { .. } => "case-finished",
            Event::Heartbeat { .. } => "heartbeat",
            Event::FaultInjected { .. } => "fault-injected",
            Event::FaultClassified { .. } => "fault-classified",
            Event::FuzzDivergence { .. } => "fuzz-divergence",
            Event::CampaignFinished { .. } => "campaign-finished",
        }
    }

    /// Serializes to one `fpgatest-events-v1` JSON object carrying the
    /// stream sequence number `seq`.
    pub fn to_json(&self, seq: u64) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("schema".to_string(), Json::from(EVENTS_SCHEMA)),
            ("seq".to_string(), Json::from(seq)),
            ("event".to_string(), Json::from(self.kind())),
        ];
        let mut put = |key: &str, value: Json| pairs.push((key.to_string(), value));
        match self {
            Event::SpanStart { name } => put("name", Json::from(name.as_str())),
            Event::SpanEnd { name, wall_seconds } => {
                put("name", Json::from(name.as_str()));
                put("wall_seconds", Json::from(*wall_seconds));
            }
            Event::CampaignStarted { kind, key, total } => {
                put("kind", Json::from(kind.as_str()));
                put("key", Json::from(key.as_str()));
                put("total", Json::from(*total));
            }
            Event::CaseStarted { case, index, total } => {
                put("case", Json::from(case.as_str()));
                put("index", Json::from(*index));
                put("total", Json::from(*total));
            }
            Event::CaseFinished {
                case,
                index,
                verdict,
                wall_seconds,
            } => {
                put("case", Json::from(case.as_str()));
                put("index", Json::from(*index));
                put("verdict", Json::from(verdict.as_str()));
                put("wall_seconds", Json::from(*wall_seconds));
            }
            Event::Heartbeat {
                done,
                total,
                rate,
                eta_seconds,
                slowest,
                slowest_seconds,
            } => {
                put("done", Json::from(*done));
                put("total", Json::from(*total));
                put("rate", Json::from(*rate));
                put("eta_seconds", Json::from(*eta_seconds));
                put("slowest", Json::from(slowest.as_str()));
                put("slowest_seconds", Json::from(*slowest_seconds));
            }
            Event::FaultInjected {
                fault,
                class,
                index,
                total,
            } => {
                put("fault", Json::from(fault.as_str()));
                put("class", Json::from(class.as_str()));
                put("index", Json::from(*index));
                put("total", Json::from(*total));
            }
            Event::FaultClassified {
                fault,
                outcome,
                detail,
                wall_seconds,
            } => {
                put("fault", Json::from(fault.as_str()));
                put("outcome", Json::from(outcome.as_str()));
                put("detail", Json::from(detail.as_str()));
                put("wall_seconds", Json::from(*wall_seconds));
            }
            Event::FuzzDivergence {
                index,
                variant,
                kind,
                detail,
            } => {
                put("index", Json::from(*index));
                put("variant", Json::from(variant.as_str()));
                put("kind", Json::from(kind.as_str()));
                put("detail", Json::from(detail.as_str()));
            }
            Event::CampaignFinished {
                kind,
                key,
                done,
                failed,
                wall_seconds,
            } => {
                put("kind", Json::from(kind.as_str()));
                put("key", Json::from(key.as_str()));
                put("done", Json::from(*done));
                put("failed", Json::from(*failed));
                put("wall_seconds", Json::from(*wall_seconds));
            }
        }
        Json::Obj(pairs)
    }

    /// Parses an event object back into its typed form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/mistyped field, the wrong
    /// schema tag, or the unknown `event` discriminator.
    pub fn from_json(json: &Json) -> Result<Event, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(EVENTS_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected schema '{other}'")),
            None => return Err("missing 'schema'".to_string()),
        }
        let kind = json
            .get("event")
            .and_then(Json::as_str)
            .ok_or("missing 'event'")?;
        let s = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("{kind}: missing string '{key}'"))
        };
        let u = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind}: missing integer '{key}'"))
        };
        let f = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{kind}: missing number '{key}'"))
        };
        Ok(match kind {
            "span-start" => Event::SpanStart { name: s("name")? },
            "span-end" => Event::SpanEnd {
                name: s("name")?,
                wall_seconds: f("wall_seconds")?,
            },
            "campaign-started" => Event::CampaignStarted {
                kind: s("kind")?,
                key: s("key")?,
                total: u("total")?,
            },
            "case-started" => Event::CaseStarted {
                case: s("case")?,
                index: u("index")?,
                total: u("total")?,
            },
            "case-finished" => Event::CaseFinished {
                case: s("case")?,
                index: u("index")?,
                verdict: s("verdict")?,
                wall_seconds: f("wall_seconds")?,
            },
            "heartbeat" => Event::Heartbeat {
                done: u("done")?,
                total: u("total")?,
                rate: f("rate")?,
                eta_seconds: f("eta_seconds")?,
                slowest: s("slowest")?,
                slowest_seconds: f("slowest_seconds")?,
            },
            "fault-injected" => Event::FaultInjected {
                fault: s("fault")?,
                class: s("class")?,
                index: u("index")?,
                total: u("total")?,
            },
            "fault-classified" => Event::FaultClassified {
                fault: s("fault")?,
                outcome: s("outcome")?,
                detail: s("detail")?,
                wall_seconds: f("wall_seconds")?,
            },
            "fuzz-divergence" => Event::FuzzDivergence {
                index: u("index")?,
                variant: s("variant")?,
                kind: s("kind")?,
                detail: s("detail")?,
            },
            "campaign-finished" => Event::CampaignFinished {
                kind: s("kind")?,
                key: s("key")?,
                done: u("done")?,
                failed: u("failed")?,
                wall_seconds: f("wall_seconds")?,
            },
            other => return Err(format!("unknown event '{other}'")),
        })
    }
}

struct SinkInner {
    writer: Box<dyn Write + Send>,
    seq: u64,
}

/// A shareable, line-buffered destination for [`Event`]s.
///
/// Cloning is cheap (an `Arc`); all clones feed the same stream and the
/// same monotonic sequence counter, so the suite pool, the flow, and a
/// fault campaign can all hold handles to one output. The disabled sink
/// ([`EventSink::disabled`], also `Default`) makes [`EventSink::emit`] a
/// branch on a `None` — callers never pay for serialization when no
/// stream was requested.
///
/// A handle made by [`EventSink::handle`] can be cut off the stream on
/// its own ([`EventSink::cut`]): the harness's shield cuts the handle of
/// a thread it abandons, so nothing that thread emits lands after the
/// verdict.
#[derive(Clone, Default)]
pub struct EventSink {
    inner: Option<Arc<Mutex<SinkInner>>>,
    /// This handle's cut-off switch, shared with its clones; read and
    /// set only under `inner`'s lock.
    cut: Option<Arc<AtomicBool>>,
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSink")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl EventSink {
    /// The no-op sink: [`EventSink::emit`] does nothing.
    pub fn disabled() -> EventSink {
        EventSink::default()
    }

    /// A sink over an arbitrary writer (flushed after every event).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> EventSink {
        EventSink {
            inner: Some(Arc::new(Mutex::new(SinkInner { writer, seq: 0 }))),
            cut: None,
        }
    }

    /// A sink writing to `path`, with `-` meaning stdout. File output
    /// goes through a [`BufWriter`], but every event is explicitly
    /// flushed so the file is tail-able and a killed process leaves
    /// only whole lines.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from creating the file.
    pub fn to_path(path: &str) -> io::Result<EventSink> {
        if path == "-" {
            Ok(EventSink::to_writer(Box::new(io::stdout())))
        } else {
            let file = std::fs::File::create(path)?;
            Ok(EventSink::to_writer(Box::new(BufWriter::new(file))))
        }
    }

    /// A sink capturing into memory, plus the handle tests read back.
    pub fn capture() -> (EventSink, CapturedEvents) {
        let captured = CapturedEvents::default();
        (
            EventSink::to_writer(Box::new(captured.clone())),
            captured,
        )
    }

    /// Whether events will actually be written anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A new handle onto the same stream with a cut-off switch of its
    /// own, shared only with its clones. On the disabled sink it is the
    /// disabled sink.
    pub fn handle(&self) -> EventSink {
        let cut = self.inner.as_ref().map(|_| Arc::default());
        EventSink {
            inner: self.inner.clone(),
            cut,
        }
    }

    /// Cuts this handle and its clones off the stream; every other
    /// handle keeps writing. The switch is set under the stream's lock,
    /// so once `cut` returns no line of this handle is being written
    /// and none will be. A no-op on a handle not made by
    /// [`EventSink::handle`].
    pub fn cut(&self) {
        let (Some(inner), Some(cut)) = (&self.inner, &self.cut) else {
            return;
        };
        // Held, poisoned or not, across the store: the stream's lock
        // orders it before every later emit's load, so the switch needs
        // no ordering of its own.
        let _guard = inner.lock();
        cut.store(true, Ordering::Relaxed);
    }

    /// Emits one event: serialize, write one line, flush. A no-op on
    /// the disabled sink and on a cut handle; write errors are
    /// deliberately swallowed (a full disk must not change a verdict).
    pub fn emit(&self, event: &Event) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if matches!(&self.cut, Some(cut) if cut.load(Ordering::Relaxed)) {
            return;
        }
        let seq = inner.seq;
        inner.seq += 1;
        let line = event.to_json(seq).emit();
        let _ = inner.writer.write_all(line.as_bytes());
        let _ = inner.writer.write_all(b"\n");
        let _ = inner.writer.flush();
    }
}

/// Live campaign bookkeeping for the suite runner: completion/failure
/// counters, rate and ETA, the slowest unit seen — plus the
/// campaign-started, heartbeat, and campaign-finished events. Case
/// verdict events are emitted by the caller alongside. Fault and fuzz
/// campaigns emit the same event kinds from their merge loop instead,
/// with the wall-clock fields zeroed so their streams are deterministic.
#[derive(Debug)]
pub struct CampaignProgress {
    events: EventSink,
    kind: String,
    key: String,
    total: u64,
    started: Instant,
    done: u64,
    failed: u64,
    slowest: String,
    slowest_seconds: f64,
}

impl CampaignProgress {
    /// Opens the campaign: emits [`Event::CampaignStarted`] and anchors
    /// the wall clock.
    pub fn start(events: EventSink, kind: &str, key: &str, total: u64) -> CampaignProgress {
        events.emit(&Event::CampaignStarted {
            kind: kind.to_string(),
            key: key.to_string(),
            total,
        });
        CampaignProgress {
            events,
            kind: kind.to_string(),
            key: key.to_string(),
            total,
            started: Instant::now(),
            done: 0,
            failed: 0,
            slowest: String::new(),
            slowest_seconds: 0.0,
        }
    }

    /// Records one completed unit of work and emits a heartbeat.
    pub fn unit_done(&mut self, name: &str, wall_seconds: f64, failed: bool) {
        self.done += 1;
        if failed {
            self.failed += 1;
        }
        if self.slowest.is_empty() || wall_seconds > self.slowest_seconds {
            self.slowest = name.to_string();
            self.slowest_seconds = wall_seconds;
        }
        if !self.events.is_enabled() {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(self.done);
        let eta_seconds = if rate > 0.0 {
            remaining as f64 / rate
        } else {
            0.0
        };
        self.events.emit(&Event::Heartbeat {
            done: self.done,
            total: self.total,
            rate,
            eta_seconds,
            slowest: self.slowest.clone(),
            slowest_seconds: self.slowest_seconds,
        });
    }

    /// Closes the campaign: emits [`Event::CampaignFinished`], always
    /// the stream's last campaign event.
    pub fn finish(self) {
        self.events.emit(&Event::CampaignFinished {
            kind: self.kind.clone(),
            key: self.key.clone(),
            done: self.done,
            failed: self.failed,
            wall_seconds: self.started.elapsed().as_secs_f64(),
        });
    }
}

/// The in-memory capture buffer behind [`EventSink::capture`].
#[derive(Clone, Default)]
pub struct CapturedEvents(Arc<Mutex<Vec<u8>>>);

impl CapturedEvents {
    /// The raw captured bytes as text.
    pub fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Parses every captured line back into a typed [`Event`].
    ///
    /// # Panics
    ///
    /// Panics when a captured line is not valid `fpgatest-events-v1`
    /// (that is the point: tests call this to assert the stream is).
    pub fn events(&self) -> Vec<Event> {
        self.text()
            .lines()
            .map(|line| {
                let json = Json::parse(line)
                    .unwrap_or_else(|e| panic!("unparseable event line '{line}': {e}"));
                Event::from_json(&json)
                    .unwrap_or_else(|e| panic!("untyped event line '{line}': {e}"))
            })
            .collect()
    }
}

impl Write for CapturedEvents {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every variant, for round-trip coverage.
    fn all_variants() -> Vec<Event> {
        vec![
            Event::SpanStart {
                name: "flow.simulate.fdct1".into(),
            },
            Event::SpanEnd {
                name: "flow.simulate.fdct1".into(),
                wall_seconds: 0.25,
            },
            Event::CampaignStarted {
                kind: "faults".into(),
                key: "fdct1".into(),
                total: 200,
            },
            Event::CaseStarted {
                case: "sort".into(),
                index: 0,
                total: 5,
            },
            Event::CaseFinished {
                case: "sort".into(),
                index: 0,
                verdict: "pass".into(),
                wall_seconds: 0.125,
            },
            Event::Heartbeat {
                done: 3,
                total: 5,
                rate: 2.5,
                eta_seconds: 0.8,
                slowest: "fdct1".into(),
                slowest_seconds: 0.5,
            },
            Event::FaultInjected {
                fault: "stuck1:acc.3".into(),
                class: "stuck-at".into(),
                index: 7,
                total: 200,
            },
            Event::FaultClassified {
                fault: "stuck1:acc.3".into(),
                outcome: "detected".into(),
                detail: "memory mismatch".into(),
                wall_seconds: 0.01,
            },
            Event::FuzzDivergence {
                index: 17,
                variant: "pipelined/2part".into(),
                kind: "MemoryMismatch".into(),
                detail: "out[3] = 9 vs 12".into(),
            },
            Event::CampaignFinished {
                kind: "suite".into(),
                key: "suite.manifest".into(),
                done: 5,
                failed: 0,
                wall_seconds: 1.5,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for (seq, event) in all_variants().into_iter().enumerate() {
            let line = event.to_json(seq as u64).emit();
            let parsed = Json::parse(&line).expect("line parses");
            assert_eq!(
                parsed.get("schema").and_then(Json::as_str),
                Some(EVENTS_SCHEMA)
            );
            assert_eq!(
                parsed.get("seq").and_then(Json::as_u64),
                Some(seq as u64)
            );
            let back = Event::from_json(&parsed).expect("typed parse");
            assert_eq!(back, event, "round trip of {}", event.kind());
        }
    }

    #[test]
    fn sink_assigns_monotonic_seq_and_whole_lines() {
        let (sink, captured) = EventSink::capture();
        let clone = sink.clone();
        sink.emit(&Event::SpanStart { name: "a".into() });
        clone.emit(&Event::SpanStart { name: "b".into() });
        let text = captured.text();
        assert!(text.ends_with('\n'), "stream ends mid-line: {text:?}");
        let seqs: Vec<u64> = text
            .lines()
            .map(|line| {
                Json::parse(line)
                    .expect("parses")
                    .get("seq")
                    .and_then(Json::as_u64)
                    .expect("has seq")
            })
            .collect();
        assert_eq!(seqs, vec![0, 1], "clones share one counter");
        assert_eq!(captured.events().len(), 2);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = EventSink::default();
        assert!(!sink.is_enabled());
        sink.emit(&Event::SpanStart { name: "x".into() });
        let handle = sink.handle();
        assert!(!handle.is_enabled());
        handle.cut();
    }

    /// A cut handle and its clones write nothing, while the sink it came
    /// from and a sibling handle keep writing onto one `seq` counter.
    #[test]
    fn a_cut_handle_writes_nothing_while_other_handles_keep_writing() {
        let (sink, captured) = EventSink::capture();
        let (cut, sibling) = (sink.handle(), sink.handle());
        let cut_clone = cut.clone();
        let span = |name: &str| Event::SpanStart { name: name.into() };
        cut.emit(&span("before"));
        cut.cut();
        cut.emit(&span("cut"));
        cut_clone.emit(&span("cut clone"));
        sibling.emit(&span("sibling"));
        sink.emit(&span("sink"));
        sink.handle().emit(&span("fresh handle"));
        let names: Vec<String> = captured
            .events()
            .into_iter()
            .map(|event| match event {
                Event::SpanStart { name } => name,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(names, ["before", "sibling", "sink", "fresh handle"]);
        let seqs: Vec<u64> = captured
            .text()
            .lines()
            .filter_map(|line| Json::parse(line).ok()?.get("seq")?.as_u64())
            .collect();
        assert_eq!(seqs, [0, 1, 2, 3], "a cut handle takes no sequence number");
    }

    #[test]
    fn from_json_rejects_malformed() {
        let missing = Json::parse(r#"{"schema":"fpgatest-events-v1"}"#).unwrap();
        assert!(Event::from_json(&missing).is_err());
        let unknown =
            Json::parse(r#"{"schema":"fpgatest-events-v1","event":"nope"}"#).unwrap();
        assert!(Event::from_json(&unknown).is_err());
        let wrong_schema = Json::parse(r#"{"schema":"v0","event":"span-start"}"#).unwrap();
        assert!(Event::from_json(&wrong_schema).is_err());
    }
}
