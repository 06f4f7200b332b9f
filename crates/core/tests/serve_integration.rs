//! End-to-end tests of the `fpgatest serve` daemon over real TCP:
//! crash/hang isolation, design-cache behavior under concurrent
//! clients, graceful drain, the bit-identity contract between
//! cached and freshly compiled designs, and served fault reports equal
//! to in-process campaigns.

use fpgatest::cache::DesignCache;
use fpgatest::events::EventSink;
use fpgatest::faults::{
    campaign_json, run_campaign_sharded, CampaignOptions, ShardedCampaignOptions,
};
use fpgatest::flow::{Engine, FlowOptions, TestFlow};
use fpgatest::serve::{Client, ClientError, JobKind, JobSpec, ServeOptions, Server};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::TestCase;
use fpgatest::telemetry::Json;
use fpgatest::workloads;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SCALE_SRC: &str = "mem inp[8]; mem out[8];
     void main() { int i; for (i = 0; i < 8; i = i + 1) { out[i] = inp[i] * 3; } }";

fn scale_job() -> JobSpec {
    JobSpec::test("scale", SCALE_SRC)
        .stimulus("inp", Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]))
}

fn start_server(options: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", options).expect("bind test daemon");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn cache_counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("cache")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats carries cache.{name}: {}", stats.emit()))
}

/// A panicking job and a wall-clock-hung job get their taxonomy
/// verdicts (crash/3, timeout/4) while the daemon keeps serving other
/// clients' jobs on the remaining workers.
#[test]
fn daemon_survives_crashing_and_hanging_jobs() {
    let (addr, server) = start_server(ServeOptions {
        workers: 3,
        ..ServeOptions::default()
    });

    let mut client = Client::connect(&addr).expect("connect");

    let mut crasher = scale_job();
    crasher.planted_panic = true;
    let crashed = client.run_job(&crasher).expect("crash job completes");
    assert_eq!(crashed.verdict, "crash");
    assert_eq!(crashed.exit_code, 3);
    assert!(
        crashed.detail.contains("planted panic"),
        "panic message survives isolation: {}",
        crashed.detail
    );

    // A big design with a 1 ms wall budget is guaranteed to trip the
    // watchdog; the worker abandons the thread and moves on.
    let mut hog = JobSpec::test("fdct-hog", &workloads::fdct_source(256))
        .stimulus("img", Stimulus::from_values(workloads::test_image(256)));
    hog.width = Some(32);
    hog.wall_ms = Some(1);
    let hung = client.run_job(&hog).expect("hung job completes");
    assert_eq!(hung.verdict, "timeout");
    assert_eq!(hung.exit_code, 4);

    // The daemon is still healthy: a normal job passes afterwards.
    let ok = client.run_job(&scale_job()).expect("healthy job completes");
    assert_eq!(ok.verdict, "pass");
    assert_eq!(ok.exit_code, 0);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Re-submitting the example manifest's five cases, as `fpgatest submit`
/// sends them, hits the cache for every case: the miss count (compiles)
/// stays put, the hit count rises by one per case, and every job passes.
#[test]
fn second_submission_skips_the_compile() {
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/suite/suite.manifest"
    );
    let suite = fpgatest::suite::load_manifest(manifest).expect("example manifest loads");
    let jobs: Vec<JobSpec> = suite
        .cases()
        .iter()
        .map(|case| JobSpec::from_case(JobKind::Test, case))
        .collect();
    assert_eq!(jobs.len(), 5);
    let (addr, server) = start_server(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");

    // Submit every case first, then collect the verdicts in manifest
    // order; return the cache counters after.
    let submit = |client: &mut Client| {
        let ids: Vec<u64> = jobs
            .iter()
            .map(|job| client.submit(job).expect("submitted"))
            .collect();
        for (job, id) in jobs.iter().zip(ids) {
            let outcome = client.wait_or_resubmit(id, job).expect("job completes");
            assert_eq!(outcome.verdict, "pass", "{}: {}", job.name, outcome.detail);
        }
        let stats = client.stats().expect("stats");
        (
            cache_counter(&stats, "misses"),
            cache_counter(&stats, "hits"),
        )
    };
    let (cold_misses, cold_hits) = submit(&mut client);
    let (warm_misses, warm_hits) = submit(&mut client);
    assert_eq!(warm_misses, cold_misses, "the resubmission recompiled");
    assert_eq!(
        warm_hits,
        cold_hits + 5,
        "every resubmitted case is a cache hit"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Two clients racing the same design: single-flight compilation means
/// one miss total — the second request waits and reuses the result.
#[test]
fn concurrent_clients_share_one_compile() {
    let (addr, server) = start_server(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });

    let threads: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client.run_job(&scale_job()).expect("job completes").verdict
            })
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().expect("client thread"), "pass");
    }

    let mut control = Client::connect(&addr).expect("connect control");
    let stats = control.stats().expect("stats");
    assert_eq!(cache_counter(&stats, "misses"), 1, "one compile for both");
    assert_eq!(cache_counter(&stats, "hits"), 1, "the other run reused it");

    control.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// A loop of a million iterations: seconds of simulation in any build.
const SPIN_SRC: &str = "mem out[1]; void main() { int i; int s; s = 0; \
     for (i = 0; i < 1000000; i = i + 1) { s = s + i; } out[0] = s; }";

/// Shared buffer the event stream is copied into.
#[derive(Clone, Default)]
struct EventTap(Arc<Mutex<Vec<u8>>>);

impl Write for EventTap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("tap lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Shutdown drains the in-flight job (here: one that hangs until its
/// wall watchdog), rejects new submissions with the typed `draining`
/// error, and the event-streaming connection still ends with the
/// serve-level `campaign-finished` event.
#[test]
fn shutdown_drains_inflight_and_rejects_new_jobs() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });

    // Occupy the only worker until its 600 ms wall-clock watchdog trips,
    // in any build: the loop runs 7 M cycles, which took about 4 s in a
    // release build and 30 s in a debug build on a 2-vCPU x86-64 host.
    let mut hog = JobSpec::test("spin-hog", SPIN_SRC);
    hog.width = Some(32);
    hog.wall_ms = Some(600);
    hog.events = true;

    let tap = EventTap::default();
    let mut submitter = Client::connect(&addr).expect("connect submitter");
    submitter.stream_events_to(Box::new(tap.clone()));
    let id = submitter.submit(&hog).expect("submit hog");
    std::thread::sleep(Duration::from_millis(100));

    // Shutdown from a second connection; it blocks until the drain
    // completes, so run it on its own thread.
    let drainer = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect drainer");
            client.shutdown().expect("shutdown acknowledges")
        }
    });
    std::thread::sleep(Duration::from_millis(150));

    // While the drain waits on the hog, new submissions get the typed
    // rejection.
    let mut late = Client::connect(&addr).expect("connect latecomer");
    match late.submit(&scale_job()) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "draining"),
        other => panic!("draining server must reject submissions, got {other:?}"),
    }

    // The in-flight job still completes (as a timeout) and the stream
    // still closes with the serve-level campaign-finished event.
    let outcome = submitter.wait(id).expect("hog outcome");
    assert_eq!(outcome.verdict, "timeout");
    assert_eq!(outcome.exit_code, 4);

    let ack = drainer.join().expect("drainer thread");
    assert_eq!(ack.get("finished").and_then(Json::as_u64), Some(1));
    server.join().expect("server thread").expect("server run");

    let bytes = tap.0.lock().expect("tap lock").clone();
    let text = String::from_utf8(bytes).expect("events are utf-8");
    let last = text.lines().last().expect("at least one event line");
    let event = Json::parse(last).expect("event line parses");
    assert_eq!(
        event.get("event").and_then(Json::as_str),
        Some("campaign-finished"),
        "stream ends with campaign-finished: {last}"
    );
    assert_eq!(event.get("kind").and_then(Json::as_str), Some("serve"));
}

/// The contract the cache rests on: two back-to-back runs of one
/// cached prepared design are bit-identical — memories, cycle counts,
/// verdicts — to two independent fresh compiles.
#[test]
fn cached_runs_match_fresh_compiles_bit_for_bit() {
    let options = FlowOptions::default();
    let stimuli = vec![(
        "inp".to_string(),
        Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]),
    )];

    let cache = DesignCache::new(4);
    let prepared = cache
        .get_or_compile("scale", SCALE_SRC, &options.compile)
        .expect("compiles");
    let cached_a = prepared.run(&stimuli, &options).expect("cached run 1");
    let cached_b = prepared.run(&stimuli, &options).expect("cached run 2");

    let fresh_a = TestFlow::new("scale", SCALE_SRC)
        .stimulus("inp", Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]))
        .run()
        .expect("fresh run 1");
    let fresh_b = TestFlow::new("scale", SCALE_SRC)
        .stimulus("inp", Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]))
        .run()
        .expect("fresh run 2");

    for (label, report) in [
        ("cached run 2", &cached_b),
        ("fresh run 1", &fresh_a),
        ("fresh run 2", &fresh_b),
    ] {
        assert_eq!(report.passed, cached_a.passed, "{label}: verdict");
        assert_eq!(report.sim_mems, cached_a.sim_mems, "{label}: simulated memories");
        assert_eq!(report.golden_mems, cached_a.golden_mems, "{label}: golden memories");
        assert_eq!(
            report.runs.iter().map(|r| (&r.name, r.cycles)).collect::<Vec<_>>(),
            cached_a.runs.iter().map(|r| (&r.name, r.cycles)).collect::<Vec<_>>(),
            "{label}: per-configuration cycle counts"
        );
    }
    assert!(cached_a.passed, "the scale design passes");
}

/// A served `faults` job passes and its report is the
/// `fpgatest-faults-v1` object an in-process campaign over the same
/// case, seed, sites and engine renders, silent reasons included.
#[test]
fn served_fault_report_equals_the_in_process_campaign() {
    let (addr, server) = start_server(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    let stimulus = Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]);
    let mut spec = JobSpec::faults("scale", SCALE_SRC, 3, 96).stimulus("inp", stimulus.clone());
    spec.engine = Engine::Batch;
    spec.shards = 2;
    let served = client.run_job(&spec).expect("fault job completes");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");

    let case = TestCase {
        name: "scale".to_string(),
        source: SCALE_SRC.to_string(),
        stimuli: vec![("inp".to_string(), stimulus)],
        options: FlowOptions {
            keep_artifacts: false,
            engine: Engine::Batch,
            ..FlowOptions::default()
        },
    };
    let campaign = CampaignOptions {
        seed: 3,
        sites: 96,
        engine: Engine::Batch,
        max_ticks: None,
        events: EventSink::disabled(),
    };
    let report = run_campaign_sharded(&case, &campaign, &ShardedCampaignOptions::default())
        .expect("in-process campaign")
        .report;

    assert_eq!(served.verdict, "pass", "{}", served.detail);
    assert_eq!(served.exit_code, 0);
    assert_eq!(
        served.report.get("schema").and_then(Json::as_str),
        Some("fpgatest-faults-v1")
    );
    assert_eq!(
        served.report.get("injections").and_then(Json::as_u64),
        Some(96)
    );
    assert!(
        served.report.emit().contains("\"reason\""),
        "silent records carry their reason"
    );
    assert_eq!(served.report, campaign_json(&report));
}
