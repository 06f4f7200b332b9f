//! Flow observability: hierarchical tracing spans, a structured JSON
//! metrics report, and baseline timing comparison.
//!
//! The paper's infrastructure reports Table I by hand; this module makes
//! the same numbers (plus kernel counters from [`eventsim`]) machine
//! readable. Three pieces:
//!
//! * [`Json`] — a zero-dependency JSON value with an emitter and parser,
//!   so the report format needs no external crates.
//! * [`Recorder`] — hierarchical wall-clock spans. The flow opens one
//!   span per pipeline stage (`flow.parse`, `flow.lower`,
//!   `flow.transform`, `flow.elaborate`, `flow.simulate.<config>`,
//!   `flow.compare`); suites wrap each case in `case.<name>`.
//! * [`suite_json`] / [`render_baseline_deltas`] — the
//!   `fpgatest-metrics-v1` report (suite verdicts, per-design Table I
//!   fields, kernel stats, hot-component histogram, span tree) and the
//!   timing diff printed by `--baseline`.

use crate::flow::{ConfigProfile, TestReport};
use crate::suite::{CaseResult, SuiteReport};
use std::fmt;
use std::time::Instant;

/// Identifies the report layout; bump when fields change incompatibly.
pub const SCHEMA: &str = "fpgatest-metrics-v1";

// ---------------------------------------------------------------------
// JSON value
// ---------------------------------------------------------------------

/// A JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Recursively sorts every object's members by key (stable, so
    /// duplicate keys keep their relative order). Emitted reports become
    /// byte-stable regardless of construction order — the `BENCH_*.json`
    /// files are canonicalized this way so runs diff cleanly.
    pub fn sort_keys(&mut self) {
        match self {
            Json::Obj(members) => {
                for (_, value) in members.iter_mut() {
                    value.sort_keys();
                }
                members.sort_by(|a, b| a.0.cmp(&b.0));
            }
            Json::Arr(items) => {
                for value in items {
                    value.sort_keys();
                }
            }
            _ => {}
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0).map(|n| n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces per level).
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(n) => (
                "\n",
                " ".repeat(n * level),
                " ".repeat(n * (level + 1)),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonParseError {
                offset: pos,
                message: "trailing characters".into(),
            });
        }
        Ok(value)
    }

    /// Parses the first complete JSON value of `text` and returns it
    /// with the byte offset one past its end, ignoring whatever follows.
    /// This is the trailing-garbage-tolerant entry point checkpoint
    /// salvage uses: a torn write that appended junk after a complete
    /// document still yields the document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] when no complete value starts the text.
    pub fn parse_prefix(text: &str) -> Result<(Json, usize), JsonParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        Ok((value, pos))
    }
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

fn err(offset: usize, message: impl Into<String>) -> JsonParseError {
    JsonParseError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonParseError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{word}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from &str, so
                // boundaries are valid).
                let rest = &bytes[*pos..];
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------

/// Handle to a span opened by [`Recorder::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Span name (`flow.parse`, `flow.simulate.fdct1`, …).
    pub name: String,
    /// Seconds from recorder creation to span start.
    pub start_seconds: f64,
    /// Span duration in seconds (0 until ended).
    pub wall_seconds: f64,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Attached attributes, in insertion order.
    pub attrs: Vec<(String, Json)>,
    parent: Option<usize>,
    children: Vec<usize>,
    started: Instant,
    closed: bool,
}

/// Hierarchical wall-clock span recorder.
///
/// Spans nest by call order: a span started while another is open becomes
/// its child. The recorder serializes to a span-tree [`Json`] forest and
/// to a flat JSONL trace log.
///
/// ```
/// use fpgatest::telemetry::Recorder;
/// let mut rec = Recorder::new();
/// let outer = rec.start("flow.parse");
/// rec.attr(outer, "lines", 12u64);
/// rec.end(outer);
/// assert_eq!(rec.span_names(), ["flow.parse"]);
/// ```
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates an empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn start(&mut self, name: impl Into<String>) -> SpanId {
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let now = Instant::now();
        self.spans.push(Span {
            name: name.into(),
            start_seconds: now.duration_since(self.epoch).as_secs_f64(),
            wall_seconds: 0.0,
            depth: self.stack.len(),
            attrs: Vec::new(),
            parent,
            children: Vec::new(),
            started: now,
            closed: false,
        });
        if let Some(p) = parent {
            self.spans[p].children.push(index);
        }
        self.stack.push(index);
        SpanId(index)
    }

    /// Attaches an attribute to a span (open or closed).
    pub fn attr(&mut self, id: SpanId, key: impl Into<String>, value: impl Into<Json>) {
        self.spans[id.0].attrs.push((key.into(), value.into()));
    }

    /// Attaches an attribute to the innermost open span, if any.
    pub fn attr_open(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        if let Some(&open) = self.stack.last() {
            self.attr(SpanId(open), key, value);
        }
    }

    /// Closes a span, recording its duration. Any children still open are
    /// closed with it (a span cannot outlive its parent).
    pub fn end(&mut self, id: SpanId) {
        let Some(position) = self.stack.iter().rposition(|&i| i == id.0) else {
            return; // already ended
        };
        for &open in self.stack[position..].iter().rev() {
            let span = &mut self.spans[open];
            if !span.closed {
                span.closed = true;
                span.wall_seconds = span.started.elapsed().as_secs_f64();
            }
        }
        self.stack.truncate(position);
    }

    /// All spans in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The first span with the given name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Every span name, in start order.
    pub fn span_names(&self) -> Vec<&str> {
        self.spans.iter().map(|s| s.name.as_str()).collect()
    }

    /// Merges another recorder's spans into this one, preserving their
    /// tree shape. The absorbed spans keep their relative timing but are
    /// rebased onto this recorder's epoch, so a span forest built by
    /// worker threads (each with its own recorder) reads as one coherent
    /// timeline. Absorbed roots stay roots — they do not become children
    /// of any span currently open here.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let offset = other
            .epoch
            .saturating_duration_since(self.epoch)
            .as_secs_f64();
        for mut span in other.spans {
            span.start_seconds += offset;
            span.parent = span.parent.map(|p| p + base);
            for child in &mut span.children {
                *child += base;
            }
            if !span.closed {
                span.closed = true;
                span.wall_seconds = span.started.elapsed().as_secs_f64();
            }
            self.spans.push(span);
        }
    }

    /// The span forest as JSON (one object per root, children nested).
    pub fn to_json(&self) -> Json {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        Json::Arr(roots.iter().map(|&i| self.span_json(i)).collect())
    }

    fn span_json(&self, index: usize) -> Json {
        let span = &self.spans[index];
        let mut members = vec![
            ("name".to_string(), Json::Str(span.name.clone())),
            ("start_seconds".to_string(), Json::Num(span.start_seconds)),
            ("wall_seconds".to_string(), Json::Num(span.wall_seconds)),
        ];
        if !span.attrs.is_empty() {
            members.push(("attrs".to_string(), Json::Obj(span.attrs.clone())));
        }
        if !span.children.is_empty() {
            members.push((
                "children".to_string(),
                Json::Arr(span.children.iter().map(|&c| self.span_json(c)).collect()),
            ));
        }
        Json::Obj(members)
    }

    /// The flat JSONL trace log: one `{"type":"span",...}` object per
    /// line, in start order, with depth instead of nesting.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing JSONL to a Vec cannot fail");
        String::from_utf8(out).expect("JSONL output is UTF-8")
    }

    /// Streams the JSONL trace log into `out`, one span per line.
    ///
    /// Identical output to [`Recorder::to_jsonl`]; wrap `out` in a
    /// [`std::io::BufWriter`] when targeting a file so long traces go
    /// out line by line instead of through one in-memory string.
    pub fn write_jsonl<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        for span in &self.spans {
            let mut members = vec![
                ("type".to_string(), Json::Str("span".into())),
                ("name".to_string(), Json::Str(span.name.clone())),
                ("depth".to_string(), Json::Num(span.depth as f64)),
                ("start_seconds".to_string(), Json::Num(span.start_seconds)),
                ("wall_seconds".to_string(), Json::Num(span.wall_seconds)),
            ];
            if !span.attrs.is_empty() {
                members.push(("attrs".to_string(), Json::Obj(span.attrs.clone())));
            }
            writeln!(out, "{}", Json::Obj(members).emit())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Metrics report
// ---------------------------------------------------------------------

/// The per-design report entry (Table I fields + kernel stats). `name`
/// is the case name, which may differ from the design name when one
/// design is run under several labels (e.g. a scaling sweep).
pub fn design_json(name: &str, result: &CaseResult) -> Json {
    match result {
        CaseResult::Errored(e) => Json::obj([
            ("design", name.into()),
            ("status", "error".into()),
            ("error", e.to_string().into()),
        ]),
        CaseResult::Crashed(message) => Json::obj([
            ("design", name.into()),
            ("status", "crash".into()),
            ("panic", message.as_str().into()),
        ]),
        CaseResult::TimedOut { reason } => Json::obj([
            ("design", name.into()),
            ("status", "timeout".into()),
            ("timeout", reason.as_str().into()),
        ]),
        CaseResult::Finished(report) => finished_design_json(name, report),
    }
}

fn finished_design_json(name: &str, report: &TestReport) -> Json {
    let metrics = &report.metrics;
    let configs: Vec<Json> = metrics
        .configs
        .iter()
        .map(|config| {
            let mut members = vec![
                ("name".to_string(), Json::Str(config.name.clone())),
                ("lo_xml_fsm".to_string(), config.lo_xml_fsm.into()),
                (
                    "lo_xml_datapath".to_string(),
                    config.lo_xml_datapath.into(),
                ),
                ("lo_behav_fsm".to_string(), config.lo_behav_fsm.into()),
                ("operators".to_string(), config.operators.into()),
                ("fsm_states".to_string(), config.fsm_states.into()),
                ("cycles".to_string(), config.cycles.into()),
                ("events".to_string(), config.events.into()),
                ("sim_seconds".to_string(), config.sim_seconds.into()),
            ];
            if let Some(run) = report.runs.iter().find(|r| r.name == config.name) {
                members.push((
                    "kernel".to_string(),
                    Json::obj([
                        ("events", run.kernel.events.into()),
                        ("updates", run.kernel.updates.into()),
                        ("evals", run.kernel.evals.into()),
                        ("delta_cycles", run.kernel.delta_cycles.into()),
                        ("max_queue_depth", run.kernel.max_queue_depth.into()),
                    ]),
                ));
                members.push((
                    "hot_components".to_string(),
                    Json::Arr(
                        run.hot_components
                            .iter()
                            .map(|(name, count)| {
                                Json::obj([
                                    ("name", name.as_str().into()),
                                    ("activations", (*count).into()),
                                ])
                            })
                            .collect(),
                    ),
                ));
                if let Some(profile) = &run.profile {
                    members.push(("profile".to_string(), profile_json(profile)));
                }
                if let Some(cov) = &run.coverage {
                    members.push((
                        "coverage".to_string(),
                        Json::obj([
                            ("states_visited", cov.visited_states.len().into()),
                            ("state_total", cov.state_total.into()),
                            (
                                "visited_states",
                                Json::Arr(
                                    cov.visited_states
                                        .iter()
                                        .map(|s| s.as_str().into())
                                        .collect(),
                                ),
                            ),
                            ("transitions_taken", cov.transitions_taken.into()),
                            ("transition_total", cov.transition_total.into()),
                            (
                                "operator_activations",
                                Json::Obj(
                                    cov.operator_activations
                                        .iter()
                                        .map(|(kind, count)| (kind.clone(), (*count).into()))
                                        .collect(),
                                ),
                            ),
                        ]),
                    ));
                }
            }
            Json::Obj(members)
        })
        .collect();

    Json::obj([
        ("design", name.into()),
        (
            "status",
            if report.passed { "pass" } else { "fail" }.into(),
        ),
        (
            "failure",
            match &report.failure {
                Some(f) => f.as_str().into(),
                None => Json::Null,
            },
        ),
        (
            "fault_skips",
            Json::Arr(report.fault_skips.iter().map(|s| s.as_str().into()).collect()),
        ),
        ("lo_java", metrics.lo_java.into()),
        (
            "golden",
            Json::obj([
                ("seconds", metrics.golden_seconds.into()),
                ("instructions", report.golden.instructions.into()),
                ("loads", report.golden.loads.into()),
                ("stores", report.golden.stores.into()),
                ("branches", report.golden.branches.into()),
            ]),
        ),
        ("total_sim_seconds", metrics.total_sim_seconds().into()),
        ("total_cycles", metrics.total_cycles().into()),
        ("total_operators", metrics.total_operators().into()),
        ("configs", Json::Arr(configs)),
    ])
}

/// The `profile` block of one configuration: only the sections the
/// engine actually filled in are present (classes for the event kernel,
/// ranks for the compiled bytecode at either width, phases for the cycle
/// sweeper).
fn profile_json(profile: &ConfigProfile) -> Json {
    let mut members = Vec::new();
    if !profile.classes.is_empty() {
        members.push((
            "classes".to_string(),
            Json::Arr(
                profile
                    .classes
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("class", c.class.as_str().into()),
                            ("evals", c.evals.into()),
                            ("nanos", c.nanos.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !profile.ranks.is_empty() {
        members.push((
            "ranks".to_string(),
            Json::Arr(
                profile
                    .ranks
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("rank", r.rank.into()),
                            ("size", r.size.into()),
                            ("evals", r.evals.into()),
                            ("changes", r.changes.into()),
                            ("nanos", r.nanos.into()),
                            ("hit_rate", r.hit_rate.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !profile.phases.is_empty() {
        members.push((
            "phases".to_string(),
            Json::Arr(
                profile
                    .phases
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("phase", p.phase.as_str().into()),
                            ("nanos", p.nanos.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(members)
}

/// The full `fpgatest-metrics-v1` report for a suite run: suite verdict
/// counts, per-design entries, and the recorder's span tree.
pub fn suite_json(report: &SuiteReport, recorder: &Recorder) -> Json {
    Json::obj([
        ("schema", SCHEMA.into()),
        (
            "suite",
            Json::obj([
                ("passed", report.passed().into()),
                ("failed", report.failed().into()),
                ("crashed", report.crashed().into()),
                ("timed_out", report.timed_out().into()),
                ("total", report.results.len().into()),
            ]),
        ),
        (
            "designs",
            Json::Arr(
                report
                    .results
                    .iter()
                    .map(|(name, result)| design_json(name, result))
                    .collect(),
            ),
        ),
        ("spans", recorder.to_json()),
    ])
}

/// Renders the timing difference between two metrics reports (current vs
/// a `--baseline` file). Pass/fail verdicts are untouched — only wall
/// times are compared. Designs present on one side only are noted.
pub fn render_baseline_deltas(current: &Json, baseline: &Json) -> String {
    let mut out = String::new();
    out.push_str("timing vs baseline:\n");
    let empty: [Json; 0] = [];
    let current_designs = current
        .get("designs")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let baseline_designs = baseline
        .get("designs")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let find = |designs: &[Json], name: &str| -> Option<Json> {
        designs
            .iter()
            .find(|d| d.get("design").and_then(Json::as_str) == Some(name))
            .cloned()
    };

    let mut total_now = 0.0;
    let mut total_then = 0.0;
    for design in current_designs {
        let Some(name) = design.get("design").and_then(Json::as_str) else {
            continue;
        };
        let now = design
            .get("total_sim_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        match find(baseline_designs, name)
            .as_ref()
            .and_then(|b| b.get("total_sim_seconds"))
            .and_then(Json::as_f64)
        {
            Some(then) => {
                total_now += now;
                total_then += then;
                out.push_str(&format!(
                    "  {:<20} sim {:.4}s -> {:.4}s ({})\n",
                    name,
                    then,
                    now,
                    percent_change(then, now)
                ));
            }
            None => {
                out.push_str(&format!("  {name:<20} not in baseline\n"));
            }
        }
    }
    for design in baseline_designs {
        if let Some(name) = design.get("design").and_then(Json::as_str) {
            if find(current_designs, name).is_none() {
                out.push_str(&format!("  {name:<20} only in baseline\n"));
            }
        }
    }
    out.push_str(&format!(
        "  {:<20} sim {:.4}s -> {:.4}s ({})\n",
        "total",
        total_then,
        total_now,
        percent_change(total_then, total_now)
    ));
    out
}

fn percent_change(then: f64, now: f64) -> String {
    if then <= 0.0 {
        return "n/a".to_string();
    }
    let percent = (now - then) / then * 100.0;
    format!("{percent:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_emit_and_parse_round_trip() {
        let value = Json::obj([
            ("name", "fdct \"1\"\n".into()),
            ("passed", true.into()),
            ("missing", Json::Null),
            ("count", 42u64.into()),
            ("seconds", 0.125f64.into()),
            (
                "items",
                Json::Arr(vec![1u64.into(), "two".into(), Json::Bool(false)]),
            ),
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
        ]);
        for text in [value.emit(), value.emit_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn json_parse_handles_escapes_and_unicode() {
        let parsed = Json::parse(r#"{"s":"aA\n\"é名"}"#).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str().unwrap(), "aA\n\"é名");
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::Num(5.0).emit(), "5");
        assert_eq!(Json::Num(0.5).emit(), "0.5");
        assert_eq!(Json::Num(-3.0).emit(), "-3");
    }

    #[test]
    fn sort_keys_canonicalizes_nested_objects() {
        let mut value = Json::obj([
            ("zebra", 1u64.into()),
            (
                "items",
                Json::Arr(vec![Json::obj([("b", 2u64.into()), ("a", 3u64.into())])]),
            ),
            ("alpha", 4u64.into()),
        ]);
        value.sort_keys();
        assert_eq!(
            value.emit(),
            r#"{"alpha":4,"items":[{"a":3,"b":2}],"zebra":1}"#
        );
    }

    #[test]
    fn spans_nest_by_call_order() {
        let mut rec = Recorder::new();
        let outer = rec.start("flow.lower");
        let inner = rec.start("flow.lower.schedule");
        rec.end(inner);
        let second = rec.start("flow.lower.datapath");
        rec.end(second);
        rec.end(outer);
        let after = rec.start("flow.compare");
        rec.end(after);

        assert_eq!(
            rec.span_names(),
            [
                "flow.lower",
                "flow.lower.schedule",
                "flow.lower.datapath",
                "flow.compare"
            ]
        );
        let spans = rec.spans();
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].depth, 1);
        assert_eq!(spans[3].depth, 0);
        // Tree shape: two roots, the first with two children.
        let tree = rec.to_json();
        let roots = tree.as_array().unwrap();
        assert_eq!(roots.len(), 2);
        let children = roots[0].get("children").unwrap().as_array().unwrap();
        assert_eq!(children.len(), 2);
        assert!(roots[1].get("children").is_none());
    }

    #[test]
    fn ending_parent_closes_open_children() {
        let mut rec = Recorder::new();
        let outer = rec.start("a");
        let _inner = rec.start("b");
        rec.end(outer); // b never explicitly ended
        assert!(rec.spans().iter().all(|s| s.closed));
        let c = rec.start("c");
        rec.end(c);
        assert_eq!(rec.spans()[2].depth, 0); // c is a root, not a child of a
    }

    #[test]
    fn span_attrs_serialize() {
        let mut rec = Recorder::new();
        let span = rec.start("flow.parse");
        rec.attr(span, "lines", 7u64);
        rec.attr(span, "design", "fdct1");
        rec.end(span);
        let tree = rec.to_json();
        let attrs = tree.as_array().unwrap()[0].get("attrs").unwrap();
        assert_eq!(attrs.get("lines").unwrap().as_u64(), Some(7));
        assert_eq!(attrs.get("design").unwrap().as_str(), Some("fdct1"));
        // JSONL round-trips line by line.
        let jsonl = rec.to_jsonl();
        let line = Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(line.get("name").unwrap().as_str(), Some("flow.parse"));
    }

    #[test]
    fn span_durations_are_monotone() {
        let mut rec = Recorder::new();
        let outer = rec.start("outer");
        let inner = rec.start("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(inner);
        rec.end(outer);
        let outer = rec.find("outer").unwrap();
        let inner = rec.find("inner").unwrap();
        assert!(inner.wall_seconds > 0.0);
        assert!(outer.wall_seconds >= inner.wall_seconds);
    }

    #[test]
    fn absorb_merges_span_forests() {
        let mut main = Recorder::new();
        let root = main.start("suite");
        main.end(root);

        let mut worker = Recorder::new();
        let outer = worker.start("case.a");
        let inner = worker.start("flow.parse");
        worker.end(inner);
        worker.end(outer);

        main.absorb(worker);
        assert_eq!(main.span_names(), ["suite", "case.a", "flow.parse"]);
        // The absorbed tree keeps its shape: case.a is a root with one child.
        let tree = main.to_json();
        let roots = tree.as_array().unwrap();
        assert_eq!(roots.len(), 2);
        let children = roots[1].get("children").unwrap().as_array().unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(
            children[0].get("name").unwrap().as_str(),
            Some("flow.parse")
        );
        // Timing is rebased onto the absorbing recorder's epoch.
        assert!(main.find("case.a").unwrap().start_seconds >= 0.0);
    }

    #[test]
    fn baseline_deltas_render() {
        let current = Json::parse(
            r#"{"designs":[{"design":"a","total_sim_seconds":0.5},
                           {"design":"new","total_sim_seconds":0.1}]}"#,
        )
        .unwrap();
        let baseline = Json::parse(
            r#"{"designs":[{"design":"a","total_sim_seconds":1.0},
                           {"design":"gone","total_sim_seconds":0.2}]}"#,
        )
        .unwrap();
        let text = render_baseline_deltas(&current, &baseline);
        assert!(text.contains("a "), "{text}");
        assert!(text.contains("-50.0%"), "{text}");
        assert!(text.contains("new") && text.contains("not in baseline"));
        assert!(text.contains("gone") && text.contains("only in baseline"));
        assert!(text.contains("total"));
    }
}
