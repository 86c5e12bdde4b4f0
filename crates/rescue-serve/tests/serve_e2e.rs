//! End-to-end tests for the job server: served-vs-CLI byte identity,
//! result-cache speedup, deterministic 429 shedding, malformed-input
//! robustness, and the telemetry surface staying scrapeable.
//!
//! The `serve.*` counters live in the process-global metrics registry,
//! which every server in this (multi-threaded) test binary shares —
//! so counter assertions check monotone deltas, while per-response
//! guarantees use the JSONL event lines, which are per-connection and
//! deterministic.

use rescue_model::{build_pipeline, ModelParams, Variant};
use rescue_netlist::text;
use rescue_serve::{run_job, Design, JobConfig, JobServer, ServeOptions};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// POST a job; returns `(status line, body)`.
fn post_job(addr: SocketAddr, config: &str, netlist: &str) -> (String, String) {
    let body = format!("{config}\n{netlist}");
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, resp_body) = response.split_once("\r\n\r\n").expect("terminator");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, resp_body.to_owned())
}

fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("terminator");
    (
        head.lines().next().unwrap_or_default().to_owned(),
        body.to_owned(),
    )
}

/// The final `{"type":"result"...}` line of a JSONL job response.
fn result_line(body: &str) -> Option<&str> {
    body.lines()
        .rev()
        .find(|l| l.starts_with("{\"type\":\"result\""))
}

/// Whether the response carried `{"type":"event","name":<name>,...,"hit":<hit>}`.
fn saw_cache_event(body: &str, name: &str, hit: bool) -> bool {
    body.lines().any(|l| {
        l.contains(&format!("\"name\":\"{name}\"")) && l.contains(&format!("\"hit\":{hit}"))
    })
}

fn model_text() -> String {
    text::to_text(&build_pipeline(&ModelParams::tiny(), Variant::Rescue).netlist)
}

fn u64_field(json: &str, key: &str) -> u64 {
    use rescue_obs::json::{parse, JsonValue};
    match parse(json).expect("stats json parses").get(key) {
        Some(JsonValue::Int(i)) => *i as u64,
        other => panic!("missing/odd {key}: {other:?}"),
    }
}

#[test]
fn served_atpg_is_byte_identical_to_cli_and_cached_10x_faster() {
    let netlist = model_text();
    let config = r#"{"kind":"atpg","threads":1}"#;

    // The CLI path: same engines, no server.
    let cli_line = {
        let design = Design::build(&netlist).expect("design builds");
        let cfg = JobConfig::parse(config).expect("config parses");
        run_job(&design, &cfg).expect("job runs")
    };

    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    let t_cold = Instant::now();
    let (status, body) = post_job(addr, config, &netlist);
    let cold = t_cold.elapsed();
    assert!(status.contains("200"), "{status}");
    assert!(
        saw_cache_event(&body, "serve.result.cache", false),
        "{body}"
    );
    let served = result_line(&body).expect("result line").to_owned();
    assert_eq!(
        served, cli_line,
        "served result must be byte-identical to the CLI run"
    );

    // Repeat the identical job three times: all hits, byte-identical,
    // and the fastest warm round-trip is ≥ 10× faster than cold.
    let mut best_warm = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let (status, body) = post_job(addr, config, &netlist);
        best_warm = best_warm.min(t.elapsed());
        assert!(status.contains("200"), "{status}");
        assert!(saw_cache_event(&body, "serve.result.cache", true), "{body}");
        assert_eq!(result_line(&body), Some(served.as_str()));
    }
    assert!(
        best_warm * 10 <= cold,
        "cache hit not ≥10× faster: cold {cold:?}, best warm {best_warm:?}"
    );

    // Same netlist, different semantic config: a different cache entry.
    let (_, body) = post_job(
        addr,
        r#"{"kind":"atpg","threads":1,"fill_seed":9}"#,
        &netlist,
    );
    assert!(
        saw_cache_event(&body, "serve.result.cache", false),
        "{body}"
    );
    // But the design cache hits — the netlist text is unchanged.
    assert!(saw_cache_event(&body, "serve.design.cache", true), "{body}");

    server.shutdown();
}

#[test]
fn every_job_kind_serves_a_deterministic_result() {
    let netlist = model_text();
    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();
    for config in [
        r#"{"kind":"netlist"}"#,
        r#"{"kind":"lint"}"#,
        r#"{"kind":"fsim","patterns":2,"threads":1}"#,
    ] {
        let (status, body) = post_job(addr, config, &netlist);
        assert!(status.contains("200"), "{config}: {status}");
        let first = result_line(&body).expect("result line").to_owned();
        let (_, body2) = post_job(addr, config, &netlist);
        assert_eq!(
            result_line(&body2),
            Some(first.as_str()),
            "{config} not deterministic"
        );
        assert!(saw_cache_event(&body2, "serve.result.cache", true));
    }
    server.shutdown();
}

#[test]
fn fsim_result_is_lane_width_invariant() {
    // `lane_words` is excluded from the config hash (a pure datapath
    // knob), so jobs differing only in it share a result-cache entry —
    // which is only sound if the canonical result line, including the
    // detect digest, is identical across lane widths.
    let design = Design::build(&model_text()).expect("design builds");
    let mut lines = Vec::new();
    for lane_words in [1usize, 4, 8] {
        let cfg = JobConfig::parse(&format!(
            r#"{{"kind":"fsim","patterns":8,"seed":7,"threads":1,"lane_words":{lane_words}}}"#
        ))
        .expect("config parses");
        lines.push(run_job(&design, &cfg).expect("job runs"));
    }
    assert!(u64_field(&lines[0], "detected") > 0, "{}", lines[0]);
    assert_eq!(lines[0], lines[1], "lane_words=4 changed the result line");
    assert_eq!(lines[0], lines[2], "lane_words=8 changed the result line");
}

#[test]
fn malformed_jobs_get_4xx_and_the_server_survives() {
    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    // Bad config line.
    let (status, body) = post_job(addr, "this is not json", "input a\n");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("\"type\":\"error\""), "{body}");

    // Good config, empty netlist.
    let (status, _) = post_job(addr, r#"{"kind":"netlist"}"#, "");
    assert!(status.contains("400"), "{status}");

    // Good config, garbage netlist: admitted, fails inside the stream.
    let (status, body) = post_job(addr, r#"{"kind":"netlist"}"#, "gate and 0 99\n");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"type\":\"error\""), "{body}");

    // ATPG on a stateless design is a job error, not a crash.
    let (status, body) = post_job(
        addr,
        r#"{"kind":"atpg"}"#,
        "component c\ninput a\ngate not 0\noutput o 1\n",
    );
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("flip-flop"), "{body}");

    // An unsupported lane width is a 400 even once a result for the
    // same design and otherwise-equal config sits in the result cache.
    let tiny = "component c\ninput a\ngate not 0\noutput o 1\n";
    let (status, _) = post_job(addr, r#"{"kind":"fsim","lane_words":1}"#, tiny);
    assert!(status.contains("200"), "{status}");
    let (status, body) = post_job(addr, r#"{"kind":"fsim","lane_words":3}"#, tiny);
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("lane_words"), "{body}");

    // The server is still alive and scrapeable.
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("rescue_serve_jobs_failed_total"), "{body}");
    let (status, _) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    server.shutdown();
}

#[test]
fn overfull_queue_sheds_with_429_while_metrics_stay_scrapeable() {
    let netlist = model_text();
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 0,
        ..ServeOptions::default()
    };
    let mut server = JobServer::start("127.0.0.1:0", opts).expect("server starts");
    let addr = server.addr();
    let config = r#"{"kind":"atpg","threads":1}"#;

    // Vary fill_seed per attempt so the occupying job never comes from
    // the result cache (a cached job would finish instantly).
    let mut shed_seen = false;
    for attempt in 0..5u64 {
        let occupant_cfg = format!(r#"{{"kind":"atpg","threads":1,"fill_seed":{attempt}}}"#);
        let netlist_clone = netlist.clone();
        let occupant = std::thread::spawn(move || post_job(addr, &occupant_cfg, &netlist_clone));

        // Wait until the worker is actually busy.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let (_, stats) = http_get(addr, "/stats.json");
            if u64_field(&stats, "jobs_running") >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        // While the job runs, /metrics answers.
        let (status, _) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");

        let (status, body) = post_job(addr, config, &netlist);
        let (occ_status, _) = occupant.join().expect("occupant thread");
        assert!(occ_status.contains("200"), "{occ_status}");
        if status.contains("429") {
            assert!(body.contains("queue is full"), "{body}");
            shed_seen = true;
            break;
        }
        // The occupant finished before our probe landed; retry.
        assert!(status.contains("200"), "unexpected status {status}");
    }
    assert!(shed_seen, "never observed a 429 shed in 5 attempts");

    // Shedding is counted and the server still works afterwards.
    let (_, stats) = http_get(addr, "/stats.json");
    assert!(u64_field(&stats, "jobs_shed") >= 1, "{stats}");
    let (status, body) = post_job(addr, r#"{"kind":"netlist"}"#, &netlist);
    assert!(status.contains("200"), "{status}");
    assert!(result_line(&body).is_some(), "{body}");
    server.shutdown();
}

#[test]
fn serve_counters_are_monotone_across_jobs() {
    let netlist = model_text();
    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    let (_, before) = http_get(addr, "/stats.json");
    let accepted0 = u64_field(&before, "jobs_accepted");
    let completed0 = u64_field(&before, "jobs_completed");

    for _ in 0..3 {
        let (status, _) = post_job(addr, r#"{"kind":"netlist"}"#, &netlist);
        assert!(status.contains("200"), "{status}");
    }

    let (_, after) = http_get(addr, "/stats.json");
    // Global counters are shared process-wide, so other tests may also
    // bump them: assert our floor, not an exact count.
    assert!(
        u64_field(&after, "jobs_accepted") >= accepted0 + 3,
        "{after}"
    );
    assert!(
        u64_field(&after, "jobs_completed") >= completed0 + 3,
        "{after}"
    );
    server.shutdown();
}
