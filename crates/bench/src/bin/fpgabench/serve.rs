//! `serve-mixed`: an in-process `fpgatest serve` daemon (2 workers, cache
//! capacity 8) under a mixed load.
//!
//! The window has three steps. The first half is open loop: one generator
//! thread sends raw `fpgatest-serve-v1` submit lines on one connection at
//! seeded Poisson arrival times, a `light` step and then a `heavy` step, a
//! quarter of the window each. Then a `closed`-loop step: the same
//! connection keeps [`IN_FLIGHT`] jobs outstanding, so the completion rate
//! is the daemon's capacity at this mix. 90% of jobs are FDCT1 64 px on
//! the level engine with fresh seeded stimuli (cache hits: the cache keys
//! on source and options, not stimuli); 10% are unique generated programs
//! (a miss, a compile and an insert). Open-loop latency runs from a job's
//! due time to the moment its `job-finished` line is read, so a stall also
//! charges the jobs queued behind it. A second connection asks for
//! `stats`.

use crate::probe::{self, Design};
use crate::trace::Tracer;
use crate::{seeded_image, stats, Config, Measured, SHARDS};
use fpgafuzz::gen::{generate_case, Budget};
use fpgafuzz::rng::Rng;
use fpgatest::flow::Engine;
use fpgatest::serve::{JobOutcome, JobSpec, ServeOptions, Server};
use fpgatest::stimulus::Stimulus;
use fpgatest::telemetry::Json;
use fpgatest::workloads;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PIXELS: usize = 64;
const STEPS: [&str; 3] = ["light", "heavy", "closed"];
const CLOSED: usize = 2;
/// Offered load of the open-loop steps, jobs/s. `heavy` is about 70% of
/// the closed-loop capacity: its medians in the calibration sets of
/// `calibration.json` were 571, 756 and 648 jobs/s.
const RATES: [f64; 2] = [100.0, 440.0];
/// Jobs the closed-loop step keeps outstanding: both workers busy, with a
/// queue behind each.
const IN_FLIGHT: usize = 8;
/// The closed-loop step runs this many jobs per second of half the
/// window, about the capacity recorded in `calibration.json`, so it lasts
/// about half the window. The count is fixed rather than the time because
/// the daemon keeps every finished job: a step that ran more jobs when
/// the daemon got faster would raise its peak RSS.
const CLOSED_RATE: f64 = 700.0;
/// The latency limit each open-loop step is judged against, on its tail.
const LIMIT_MS: f64 = 50.0;
/// Generator lateness beyond which a step's latencies are not trusted.
const LATE_LIMIT_MS: f64 = 5.0;
/// Give up on a reply that takes longer than this.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
const MISS_SALT: u64 = 0x6d69_7373;
const MIX_SALT: u64 = 0x006d_6978;

/// One scheduled submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub step: usize,
    /// Due time, seconds after the window starts.
    pub due: f64,
    pub line: String,
    /// The source and job number of a cache-miss job.
    pub miss: Option<(String, u64)>,
}

/// Job `number` of the mix, as a submit line: one time in ten a unique
/// generated program (a cache miss), otherwise FDCT1 with a fresh seeded
/// image.
fn job(seed: u64, number: u64, fdct: &str) -> Result<(String, Option<(String, u64)>), String> {
    let mut rng = Rng::new(seed ^ MIX_SALT).derive(number);
    let (mut spec, miss) = if rng.below(10) == 0 {
        let case = generate_case(seed ^ MISS_SALT, number, &Budget::default())?;
        let mut spec = JobSpec::test(&format!("gen{number}"), &case.source);
        for (mem, values) in &case.stimuli {
            spec = spec.stimulus(mem, Stimulus::from_values(values.iter().copied()));
        }
        (spec, Some((case.source, number)))
    } else {
        let mut spec = JobSpec::test("fdct1", fdct).stimulus(
            "img",
            Stimulus::from_values(seeded_image(rng.next_u64(), PIXELS)),
        );
        spec.width = Some(32);
        (spec, None)
    };
    spec.engine = Engine::Level;
    let line = Json::obj([("type", Json::from("submit")), ("job", spec.to_json())]).emit();
    Ok((line, miss))
}

/// The open-loop schedule for a `seconds`-long stretch: seeded Poisson
/// arrivals at `rates[step]` in each half, job numbers from `first`.
pub fn schedule(
    seed: u64,
    first: u64,
    seconds: f64,
    rates: [f64; 2],
    fdct: &str,
) -> Result<Vec<Job>, String> {
    let mut rng = Rng::new(seed).derive(first);
    let mut jobs = Vec::new();
    let step_len = seconds / 2.0;
    for (step, rate) in rates.into_iter().enumerate() {
        let mut due = step as f64 * step_len;
        loop {
            let uniform = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            due += -uniform.ln() / rate;
            if due >= (step + 1) as f64 * step_len {
                break;
            }
            let (line, miss) = job(seed, first + jobs.len() as u64, fdct)?;
            jobs.push(Job {
                step,
                due,
                line,
                miss,
            });
        }
    }
    Ok(jobs)
}

/// What happened to one submission.
struct Record {
    step: usize,
    /// Due time (open loop) or send time (closed loop).
    due: Instant,
    id: Option<u64>,
    refused: bool,
    finished: Option<(Instant, JobOutcome)>,
    miss: bool,
}

impl Record {
    fn new(step: usize, due: Instant, miss: bool) -> Record {
        Record {
            step,
            due,
            id: None,
            refused: false,
            finished: None,
            miss,
        }
    }
}

pub struct ServeMixed {
    config: Config,
    rates: [f64; 2],
    fdct: String,
    server: Option<JoinHandle<io::Result<()>>>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    control: Control,
    /// Open-loop schedule made during set-up for the first window.
    pending: Option<Vec<Job>>,
    next_job: u64,
    /// Every miss design sent, with its job number.
    miss_sources: BTreeMap<String, u64>,
    /// The traced window's records, wall and end-of-window backlog.
    traced: Option<(Vec<Record>, f64, u64)>,
}

pub fn setup(config: Config) -> Result<ServeMixed, String> {
    let rates = if config.smoke { [100.0, 200.0] } else { RATES };
    let fdct = workloads::fdct_source(PIXELS);
    let pending = schedule(config.seed, 0, config.window / 2.0, rates, &fdct)?;
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: SHARDS,
            cache_capacity: 8,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let server = std::thread::spawn(move || server.run());
    let (writer, reader) = connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let (control_writer, control_reader) = connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let mut control = Control {
        writer: control_writer,
        reader: control_reader,
    };
    // Cache warm-up: the hit design's one compile.
    let mut warm = JobSpec::test("fdct1", &fdct)
        .stimulus("img", Stimulus::from_values(workloads::test_image(PIXELS)));
    warm.width = Some(32);
    warm.engine = Engine::Level;
    let finished = control.call(
        &Json::obj([("type", Json::from("submit")), ("job", warm.to_json())]),
        "job-finished",
    )?;
    if finished.get("verdict").and_then(Json::as_str) != Some("pass") {
        return Err(format!("warm-up job: {}", finished.emit()));
    }
    Ok(ServeMixed {
        next_job: pending.len() as u64,
        config,
        rates,
        fdct,
        server: Some(server),
        writer,
        reader,
        control,
        pending: Some(pending),
        miss_sources: BTreeMap::new(),
        traced: None,
    })
}

fn connect(addr: &str) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    writer.set_read_timeout(Some(DRAIN_TIMEOUT))?;
    let reader = BufReader::new(writer.try_clone()?);
    Ok((writer, reader))
}

/// The second connection: `stats`, warm-up and `shutdown` requests, each
/// answered by one reply of a known type.
struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    fn call(&mut self, request: &Json, reply: &str) -> Result<Json, String> {
        let mut line = request.emit();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(format!("connection closed before '{reply}'")),
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
            let json = Json::parse(line.trim_end()).map_err(|e| format!("reply: {e}"))?;
            match json.get("type").and_then(Json::as_str) {
                Some(kind) if kind == reply => return Ok(json),
                Some("error") => return Err(format!("error reply: {}", json.emit())),
                _ => {}
            }
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.call(&Json::obj([("type", Json::from("stats"))]), "stats")
    }
}

/// Matches the job connection's reply lines to submissions. Accept and
/// error replies come back in submission order; a job may finish before
/// its accept line is read, so early finishes wait until their id is
/// known.
#[derive(Default)]
struct Replies {
    next: usize,
    by_id: HashMap<u64, usize>,
    early: HashMap<u64, (Instant, JobOutcome)>,
}

impl Replies {
    /// Reads one reply line and applies it; returns the index of the
    /// record it made terminal, if any, or `Err` when the connection
    /// closed or timed out.
    fn read(
        &mut self,
        reader: &mut BufReader<TcpStream>,
        records: &mut [Record],
        errors: &mut Vec<String>,
    ) -> Result<Option<usize>, ()> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return Err(()),
            Ok(_) => {}
        }
        let at = Instant::now();
        Ok(self
            .apply(line.trim_end(), at, records)
            .unwrap_or_else(|e| {
                errors.push(e);
                None
            }))
    }

    fn apply(
        &mut self,
        line: &str,
        at: Instant,
        records: &mut [Record],
    ) -> Result<Option<usize>, String> {
        let json = Json::parse(line).map_err(|_| format!("unparseable reply: {line}"))?;
        let finish = |record: &mut Record, at: Instant, outcome: JobOutcome| {
            if record.finished.is_some() {
                return Err(format!("job {} finished twice", outcome.id));
            }
            record.finished = Some((at, outcome));
            Ok(())
        };
        match json.get("type").and_then(Json::as_str) {
            Some("job-accepted") => {
                let index = self.next;
                self.next += 1;
                let id = json.get("id").and_then(Json::as_u64);
                let (Some(id), Some(record)) = (id, records.get_mut(index)) else {
                    return Err(format!("unexpected accept: {line}"));
                };
                record.id = Some(id);
                self.by_id.insert(id, index);
                match self.early.remove(&id) {
                    Some((at, outcome)) => finish(record, at, outcome).map(|()| Some(index)),
                    None => Ok(None),
                }
            }
            Some("error") => {
                let index = self.next;
                self.next += 1;
                let record = records
                    .get_mut(index)
                    .ok_or(format!("unexpected error reply: {line}"))?;
                record.refused = true;
                Ok(Some(index))
            }
            Some("job-finished") => {
                let outcome = JobOutcome::from_json(&json)
                    .map_err(|e| format!("bad job-finished line: {e}"))?;
                match self.by_id.get(&outcome.id) {
                    Some(&index) => finish(&mut records[index], at, outcome).map(|()| Some(index)),
                    None => match self.early.insert(outcome.id, (at, outcome)) {
                        Some(_) => Err("a job finished twice before its accept".to_string()),
                        None => Ok(None),
                    },
                }
            }
            _ => Ok(None),
        }
    }

    fn check_drained(&self, errors: &mut Vec<String>) {
        if !self.early.is_empty() {
            errors.push(format!(
                "{} finished jobs were never accepted",
                self.early.len()
            ));
        }
    }
}

impl ServeMixed {
    /// Sends `jobs` on schedule from one generator thread while this
    /// thread reads replies, until every submission has its terminal
    /// line. Returns the records, the generator's lateness (ms) and the
    /// backlog when the last job was sent.
    fn open_loop(
        &mut self,
        jobs: &[Job],
        errors: &mut Vec<String>,
    ) -> (Vec<Record>, Vec<f64>, u64) {
        let start = Instant::now() + Duration::from_millis(5);
        let due = |job: &Job| start + Duration::from_secs_f64(job.due);
        let mut records: Vec<Record> = jobs
            .iter()
            .map(|job| Record::new(job.step, due(job), job.miss.is_some()))
            .collect();
        let sends: Vec<(Instant, String)> = jobs
            .iter()
            .map(|job| (due(job), job.line.clone()))
            .collect();
        let mut writer = self.writer.try_clone().expect("clone the job connection");
        let control = &mut self.control;
        let reader = &mut self.reader;
        let (late, backlog) = std::thread::scope(|scope| {
            let generator = scope.spawn(move || {
                let mut late = Vec::with_capacity(sends.len());
                for (due, mut line) in sends {
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    line.push('\n');
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                }
                let backlog = control.stats().ok().map_or(0, |stats| {
                    stats.get("inflight").and_then(Json::as_u64).unwrap_or(0)
                });
                (late, backlog)
            });
            let mut replies = Replies::default();
            let mut open = records.len();
            while open > 0 {
                match replies.read(reader, &mut records, errors) {
                    Ok(Some(_)) => open -= 1,
                    Ok(None) => {}
                    Err(()) => {
                        errors.push(format!("{open} jobs got no terminal reply"));
                        break;
                    }
                }
            }
            replies.check_drained(errors);
            generator.join().expect("generator thread")
        });
        (records, late, backlog)
    }

    /// Runs `jobs` jobs of the mix with [`IN_FLIGHT`] of them outstanding,
    /// sending the next as each one finishes. Returns the records and the
    /// completed jobs per second.
    fn closed_loop(&mut self, jobs: usize, errors: &mut Vec<String>) -> (Vec<Record>, f64) {
        let mut records = Vec::with_capacity(jobs);
        let mut replies = Replies::default();
        let started = Instant::now();
        let mut open = 0;
        let mut last_finish = started;
        loop {
            while open < IN_FLIGHT && records.len() < jobs {
                let number = self.next_job;
                self.next_job += 1;
                let (mut line, miss) = match job(self.config.seed, number, &self.fdct) {
                    Ok(job) => job,
                    Err(e) => {
                        errors.push(e);
                        return (records, 0.0);
                    }
                };
                records.push(Record::new(CLOSED, Instant::now(), miss.is_some()));
                self.miss_sources.extend(miss);
                line.push('\n');
                if let Err(e) = self.writer.write_all(line.as_bytes()) {
                    errors.push(format!("send: {e}"));
                    return (records, 0.0);
                }
                open += 1;
            }
            if open == 0 {
                break;
            }
            match replies.read(&mut self.reader, &mut records, errors) {
                Ok(Some(index)) => {
                    open -= 1;
                    if let Some((at, _)) = &records[index].finished {
                        last_finish = last_finish.max(*at);
                    }
                }
                Ok(None) => {}
                Err(()) => {
                    errors.push(format!("{open} jobs got no terminal reply"));
                    break;
                }
            }
        }
        replies.check_drained(errors);
        let done = records.iter().filter(|r| r.finished.is_some()).count();
        let wall = last_finish.saturating_duration_since(started).as_secs_f64();
        (records, done as f64 / wall.max(1e-9))
    }
}

fn latency_ms(record: &Record) -> Option<f64> {
    let (at, _) = record.finished.as_ref()?;
    Some(at.saturating_duration_since(record.due).as_secs_f64() * 1e3)
}

impl crate::Workload for ServeMixed {
    fn measure(&mut self, seconds: f64, mut trace: Option<(&mut Tracer, usize)>) -> Measured {
        let mut out = Measured::default();
        let jobs = match self.pending.take() {
            Some(jobs) => jobs,
            None => match schedule(
                self.config.seed,
                self.next_job,
                seconds / 2.0,
                self.rates,
                &self.fdct,
            ) {
                Ok(jobs) => jobs,
                Err(e) => {
                    out.errors.push(e);
                    return out;
                }
            },
        };
        self.next_job += jobs.len() as u64;
        self.miss_sources
            .extend(jobs.iter().filter_map(|job| job.miss.clone()));

        let window = trace
            .as_mut()
            .map(|(t, root)| t.open("load.window", Some(*root), None));
        let started = Instant::now();
        let (mut records, late, backlog) = self.open_loop(&jobs, &mut out.errors);
        let closed_jobs = (CLOSED_RATE * seconds / 2.0).ceil() as usize;
        let (closed, rate) = self.closed_loop(closed_jobs, &mut out.errors);
        records.extend(closed);
        out.wall_s = started.elapsed().as_secs_f64();
        if let (Some((tracer, _)), Some(window)) = (trace.as_mut(), window) {
            for record in &records {
                let (Some(id), Some((at, outcome))) = (record.id, &record.finished) else {
                    continue;
                };
                let job = tracer.record("serve.job", Some(window), Some(id), record.due, *at);
                let exec_start = at
                    .checked_sub(Duration::from_secs_f64(outcome.wall_seconds))
                    .unwrap_or(*at)
                    .max(record.due);
                tracer.record(
                    "serve.queue_wait",
                    Some(job),
                    Some(id),
                    record.due,
                    exec_start,
                );
                let exec = if record.miss {
                    "serve.exec.miss"
                } else {
                    "serve.exec.hit"
                };
                tracer.record(exec, Some(job), Some(id), exec_start, *at);
            }
            tracer.close(window);
        }

        for record in &records {
            out.attempted += 1;
            match &record.finished {
                Some((_, outcome)) if outcome.verdict == "pass" => {}
                Some((_, outcome)) => {
                    out.failed += 1;
                    out.errors.push(format!(
                        "job {}: verdict {} ({})",
                        outcome.id, outcome.verdict, outcome.detail
                    ));
                }
                None => out.failed += 1,
            }
        }
        let open: Vec<&Record> = records.iter().filter(|r| r.step != CLOSED).collect();
        out.latencies_ms = open.iter().copied().filter_map(latency_ms).collect();
        out.rate = rate;
        out.notes.push(format!(
            "closed: {closed_jobs} jobs, {IN_FLIGHT} in flight, {rate:.1} jobs/s"
        ));
        for (step, name) in STEPS[..CLOSED].iter().enumerate() {
            let of_step: Vec<&Record> = open.iter().copied().filter(|r| r.step == step).collect();
            let lat: Vec<f64> = of_step.iter().copied().filter_map(latency_ms).collect();
            let refused = of_step.iter().filter(|r| r.refused).count();
            let (label, tail) = stats::tail(&lat);
            let late_p99 = stats::percentile(
                &late
                    .iter()
                    .zip(&jobs)
                    .filter(|(_, j)| j.step == step)
                    .map(|(l, _)| *l)
                    .collect::<Vec<_>>(),
                990,
            );
            let samples = format!("{} samples", lat.len());
            out.report(
                format!("p50_ms.{name}"),
                stats::median(&lat),
                "ms",
                &samples,
            );
            out.report(
                format!("tail_ms.{name}"),
                tail,
                "ms",
                &format!("{label} of {samples}"),
            );
            out.notes.push(format!(
                "{name}: {:.0} jobs/s offered, {} jobs, {refused} refused, \
                 limit {label} <= {LIMIT_MS} ms {}, load.late_ms.p99 {late_p99:.3} ms{}",
                self.rates[step],
                of_step.len(),
                if tail <= LIMIT_MS && refused == 0 {
                    "met"
                } else {
                    "MISSED"
                },
                if late_p99 > LATE_LIMIT_MS {
                    " (generator late: step not valid)"
                } else {
                    ""
                },
            ));
        }
        out.notes.push(format!(
            "backlog when the last open-loop job was sent: {backlog}"
        ));
        if trace.is_some() {
            self.traced = Some((records, out.wall_s, backlog));
        }
        out
    }

    /// Reads the cache counters and probes the hit design and a 1-in-4
    /// sample of the miss designs stage by stage.
    fn attribute(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let (records, wall, backlog) = self.traced.take().ok_or("no traced window")?;
        let stats = self.control.stats()?;
        let count = |path: &[&str]| {
            let mut node = Some(&stats);
            for key in path {
                node = node.and_then(|n| n.get(key));
            }
            node.and_then(Json::as_u64).unwrap_or(0) as f64
        };
        let (hits, misses) = (count(&["cache", "hits"]), count(&["cache", "misses"]));

        let (mut wait, mut total, mut exec) = (0.0, 0.0, 0.0);
        for record in &records {
            let Some((_, outcome)) = &record.finished else {
                continue;
            };
            exec += outcome.wall_seconds;
            if let (true, Some(latency)) = (record.step != CLOSED, latency_ms(record)) {
                total += latency;
                wait += (latency - outcome.wall_seconds * 1e3).max(0.0);
            }
        }

        let span = tracer.open("serve.probe", Some(root), None);
        let image = vec![(
            "img".to_string(),
            Stimulus::from_values(workloads::test_image(PIXELS)),
        )];
        let hit = Design {
            name: "fdct1",
            source: &self.fdct,
            compile: nenya::CompileOptions {
                width: 32,
                ..nenya::CompileOptions::default()
            },
            stimuli: &image,
        };
        probe::probe(tracer, span, None, &hit, &Engine::ALL, true)?;
        let mut rng = Rng::new(self.config.seed);
        for (source, &number) in &self.miss_sources {
            if rng.below(4) != 0 {
                continue;
            }
            let program = nenya::lang::parse(source).map_err(|e| e.to_string())?;
            let stimuli: Vec<(String, Stimulus)> =
                fpgafuzz::gen::stimuli_for(&program.mems, self.config.seed ^ MISS_SALT, number, 16)
                    .into_iter()
                    .map(|(mem, values)| (mem, Stimulus::from_values(values)))
                    .collect();
            let miss = Design {
                name: "gen",
                source,
                compile: nenya::CompileOptions::default(),
                stimuli: &stimuli,
            };
            probe::probe(tracer, span, Some(number), &miss, &Engine::ALL, true)?;
        }
        tracer.close(span);
        Ok(vec![
            ("cache.hit_ratio", hits / (hits + misses).max(1.0)),
            ("cache.misses", misses),
            ("cache.evictions", count(&["cache", "evictions"])),
            (
                "serve.queue_wait_share",
                wait / total.max(f64::MIN_POSITIVE),
            ),
            ("serve.backlog_end", backlog as f64),
            ("serve.rejected", count(&["rejected"])),
            ("runtime.utilization", exec / (SHARDS as f64 * wall)),
        ])
    }

    /// Checks the cache accounting, then drains and stops the daemon.
    fn finish(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        match self.control.stats() {
            Ok(stats) => {
                let misses = stats
                    .get("cache")
                    .and_then(|c| c.get("misses"))
                    .and_then(Json::as_u64);
                // Every miss design is new to the cache; the +1 is the
                // hit design's warm-up compile.
                let want = self.miss_sources.len() as u64 + 1;
                if misses != Some(want) {
                    errors.push(format!(
                        "cache misses {misses:?}, expected {want} (distinct miss designs + 1)"
                    ));
                }
            }
            Err(e) => errors.push(format!("stats: {e}")),
        }
        if let Err(e) = self.control.call(
            &Json::obj([("type", Json::from("shutdown"))]),
            "shutdown-ack",
        ) {
            errors.push(format!("shutdown: {e}"));
        }
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(server) = self.server.take() {
            match server.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("server: {e}")),
                Err(_) => errors.push("server thread panicked".to_string()),
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seeded_poisson_schedule_is_byte_identical_for_the_same_seed() {
        let fdct = workloads::fdct_source(PIXELS);
        let a = schedule(7, 0, 0.5, [100.0, 300.0], &fdct).expect("schedule");
        let b = schedule(7, 0, 0.5, [100.0, 300.0], &fdct).expect("schedule");
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.due.to_bits(), y.due.to_bits());
            assert_eq!(x.line, y.line);
        }
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
        assert!(a.iter().any(|j| j.step == 1));
        let c = schedule(8, 0, 0.5, [100.0, 300.0], &fdct).expect("schedule");
        assert_ne!(a, c);
    }
}
