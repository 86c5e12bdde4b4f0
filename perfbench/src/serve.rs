//! `serve-mix`: a closed loop of two client connections against an
//! in-process `rescue-serve` `JobServer` with default `ServeOptions`.
//!
//! The seeded request stream mixes `netlist`, `lint` and `fsim` jobs
//! with `atpg` jobs over a pool of designs larger than the design
//! cache; a fixed share of requests repeat an earlier one exactly. Each
//! pass replays the whole stream against a freshly started server, so
//! every pass starts from cold caches and does the same work.

use crate::bench::{self, median_setup, passes, Checks, Outcome, Run};
use crate::stats::{median, tail};
use crate::trace;
use rescue_atpg::LaneShards;
use rescue_model::{build_pipeline, ModelParams, Variant};
use rescue_netlist::{text, PatternBlock};
use rescue_obs::SplitMix64;
use rescue_serve::{run_job, Design, JobConfig, JobKind, JobServer, ServeOptions};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Original (non-repeat) requests per pass, by kind: fsim on
/// paper-scale designs, fsim on quick-scale designs, lint, netlist and
/// atpg. Each count is a whole multiple of its design class (20 paper,
/// 2 quick, 22 in all), so every seed's pass sends each design the same
/// jobs and does the same amount of work.
const FSIM_PAPER: usize = 40;
const FSIM_QUICK: usize = 8;
const LINT: usize = 22;
const NETLIST: usize = 22;
const ATPG: usize = 4;
/// Originals per slice that receives one atpg job.
const ATPG_SPACING: usize = 20;
/// Exact repeats of earlier requests per pass.
const REPEATS: usize = 24;
/// Requests in one pass of the stream.
const REQUESTS: usize = FSIM_PAPER + FSIM_QUICK + LINT + NETLIST + ATPG + REPEATS;
/// Client connections in the closed loop.
const CLIENTS: usize = 2;
/// A repeat copies a request at least this many places earlier, so the
/// original has normally finished and the repeat hits the result cache.
const REPEAT_GAP: usize = 32;
/// 64-pattern blocks graded by one `fsim` job.
const FSIM_BLOCKS: usize = 64;
/// Server starts timed before the passes (each pass adds one more).
const SETUP_REPS: usize = 50;
/// Design-pool builds timed per run.
const POOL_REPS: usize = 3;
/// Distinct fsim jobs re-graded directly through `LaneShards`.
const GRADE_JOBS: usize = 12;

const STREAM: u64 = 11;

/// One design of the pool: its name and netlist text.
pub struct PoolDesign {
    pub name: String,
    pub text: String,
    /// Quick-scale Table-3 design (the `atpg` jobs run only on these).
    pub quick: bool,
}

/// The design pool: the two quick-scale Table-3 designs plus 20
/// paper-scale variants (issue-queue, LSQ and datapath sizes around
/// `ModelParams::paper()`, each as baseline and Rescue) — 22 designs
/// against a design cache of 16.
pub fn design_pool() -> Vec<PoolDesign> {
    let mut params: Vec<(ModelParams, bool)> = vec![(ModelParams::tiny(), true)];
    for iq_entries in [12, 16] {
        for lsq_entries in [6, 8] {
            for data_bits in [6, 8] {
                params.push((
                    ModelParams {
                        iq_entries,
                        lsq_entries,
                        data_bits,
                        ..ModelParams::paper()
                    },
                    false,
                ));
            }
        }
    }
    params.push((
        ModelParams {
            tag_bits: 6,
            ..ModelParams::paper()
        },
        false,
    ));
    params.push((
        ModelParams {
            ways: 2,
            ..ModelParams::paper()
        },
        false,
    ));
    let mut pool = Vec::new();
    for (p, quick) in params {
        for (v, vname) in [(Variant::Baseline, "baseline"), (Variant::Rescue, "rescue")] {
            let m = {
                let _s = trace::span("model.build");
                build_pipeline(&p, v)
            };
            pool.push(PoolDesign {
                name: format!(
                    "{vname}-w{}-iq{}-lsq{}-d{}-t{}",
                    p.ways, p.iq_entries, p.lsq_entries, p.data_bits, p.tag_bits
                ),
                text: text::to_text(&m.netlist),
                quick,
            });
        }
    }
    pool
}

/// One request of the stream: a pool design and a job config line.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    pub design: usize,
    pub config: String,
}

/// The seeded request stream over `pool`: the fixed mix of original
/// requests in seeded order, designs dealt round-robin from seeded
/// shuffles, with [`REPEATS`] exact repeats spliced in.
pub fn stream(pool: &[PoolDesign], seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let mut deal = |class: Vec<usize>, n: usize| -> Vec<usize> {
        let mut order = class;
        rng.shuffle(&mut order);
        order.iter().copied().cycle().take(n).collect()
    };
    let all: Vec<usize> = (0..pool.len()).collect();
    let quick: Vec<usize> = all.iter().copied().filter(|&i| pool[i].quick).collect();
    let paper: Vec<usize> = all.iter().copied().filter(|&i| !pool[i].quick).collect();
    let groups = [
        (deal(paper, FSIM_PAPER), "fsim"),
        (deal(quick.clone(), FSIM_QUICK), "fsim"),
        (deal(all.clone(), LINT), "lint"),
        (deal(all, NETLIST), "netlist"),
        (deal(quick, ATPG), "atpg"),
    ];
    let (mut others, mut atpg) = (Vec::new(), Vec::new());
    for (designs, kind) in groups {
        for design in designs {
            let s = rng.next_u64() >> 12;
            let config = match kind {
                "fsim" => {
                    format!(r#"{{"kind":"fsim","patterns":{FSIM_BLOCKS},"seed":{s},"threads":1}}"#)
                }
                "atpg" => format!(
                    r#"{{"kind":"atpg","fill_seed":{s},"static_prepass":true,"threads":1}}"#
                ),
                other => format!(r#"{{"kind":"{other}"}}"#),
            };
            let r = Request { design, config };
            if kind == "atpg" {
                atpg.push(r)
            } else {
                others.push(r)
            }
        }
    }
    rng.shuffle(&mut others);
    // The long atpg jobs arrive one per slice of ATPG_SPACING originals,
    // none in the last slice, so no pass ends waiting on one of them.
    let slots: Vec<usize> = (0..ATPG)
        .map(|k| k * ATPG_SPACING + rng.below(ATPG_SPACING))
        .collect();
    let (mut others, mut atpg) = (others.into_iter(), atpg.into_iter());
    let originals: Vec<Request> = (0..FSIM_PAPER + FSIM_QUICK + LINT + NETLIST + ATPG)
        .filter_map(|i| {
            if slots.contains(&i) {
                atpg.next()
            } else {
                others.next()
            }
        })
        .collect();

    // Splice in the repeats: each copies an original at least
    // REPEAT_GAP places back, spread evenly over the eligible slots.
    let mut out: Vec<Request> = Vec::with_capacity(REQUESTS);
    let mut placed: Vec<usize> = Vec::new();
    let mut next = originals.into_iter();
    let mut repeats_left = REPEATS;
    while out.len() < REQUESTS {
        let i = out.len();
        let eligible = placed.partition_point(|&j| j + REPEAT_GAP <= i);
        let slots_left = REQUESTS - i;
        let want_repeat = repeats_left > 0
            && eligible > 0
            && (slots_left == repeats_left || rng.below(slots_left) < repeats_left);
        if want_repeat {
            let j = placed[rng.below(eligible)];
            out.push(out[j].clone());
            repeats_left -= 1;
        } else if let Some(r) = next.next() {
            placed.push(i);
            out.push(r);
        } else {
            break;
        }
    }
    out
}

fn http(addr: SocketAddr, head: &str, body: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{head} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (h, b) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    Ok((
        h.lines().next().unwrap_or_default().to_owned(),
        b.to_owned(),
    ))
}

/// Start a server and wait until `/healthz` answers.
fn start_server() -> std::io::Result<JobServer> {
    let _s = trace::span("serve.start");
    let server = JobServer::start("127.0.0.1:0", ServeOptions::default())?;
    let (status, _) = http(server.addr(), "GET /healthz", "")?;
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("/healthz answered {status}")));
    }
    Ok(server)
}

/// What the client saw for one request.
#[derive(Debug, Default)]
struct Served {
    index: usize,
    ms: f64,
    status: String,
    result: Option<String>,
    result_hit: Option<bool>,
    design_hit: Option<bool>,
}

fn event_hit(body: &str, name: &str) -> Option<bool> {
    let line = body
        .lines()
        .find(|l| l.contains(&format!("\"name\":\"{name}\"")))?;
    Some(line.contains("\"hit\":true"))
}

fn serve_pass(
    addr: SocketAddr,
    pool: &[PoolDesign],
    reqs: &[Request],
    req_base: u64,
) -> Vec<Served> {
    let pass_span = trace::span("pass");
    let parent = pass_span.id();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(reqs.len()));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = reqs.get(i) else { break };
                let body = format!("{}\n{}", r.config, pool[r.design].text);
                let _s = trace::span_under("serve.job", parent, req_base + i as u64 + 1);
                let t = Instant::now();
                let resp = http(addr, "POST /jobs", &body);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let served = match resp {
                    Ok((status, body)) => Served {
                        index: i,
                        ms,
                        status,
                        result: body
                            .lines()
                            .find(|l| l.starts_with("{\"type\":\"result\""))
                            .map(str::to_owned),
                        result_hit: event_hit(&body, "serve.result.cache"),
                        design_hit: event_hit(&body, "serve.design.cache"),
                    },
                    Err(e) => Served {
                        index: i,
                        ms,
                        status: format!("io error: {e}"),
                        ..Served::default()
                    },
                };
                done.lock().expect("client result list").push(served);
            });
        }
    });
    let mut out = done.into_inner().expect("client result list");
    out.sort_by_key(|s| s.index);
    out
}

/// Reference results, computed in process outside the timed phase:
/// the result line of every distinct (design, config), with the time
/// `Design::build` and `run_job` took.
struct Reference {
    lines: HashMap<Request, Result<String, String>>,
    build_ms: Vec<f64>,
    job_ms: HashMap<Request, f64>,
    designs: HashMap<usize, Design>,
}

fn reference(pool: &[PoolDesign], reqs: &[Request]) -> Reference {
    let mut distinct: Vec<&Request> = Vec::new();
    for r in reqs {
        if !distinct.contains(&r) {
            distinct.push(r);
        }
    }
    let mut used: Vec<usize> = distinct.iter().map(|r| r.design).collect();
    used.sort_unstable();
    used.dedup();
    let mut designs = HashMap::new();
    let mut build_ms = Vec::new();
    for d in used {
        let _s = trace::span("serve.design_build");
        let t = Instant::now();
        let built = Design::build(&pool[d].text).expect("pool designs parse");
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        designs.insert(d, built);
    }
    // Two workers, like the server; each takes every other job.
    let results: Vec<(Request, Result<String, String>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|w| {
                let (distinct, designs) = (&distinct, &designs);
                s.spawn(move || {
                    distinct
                        .iter()
                        .skip(w)
                        .step_by(CLIENTS)
                        .map(|r| {
                            let cfg = JobConfig::parse(&r.config).expect("stream configs parse");
                            let _s = trace::span(&format!("serve.run_job.{}", cfg.kind.name()));
                            let t = Instant::now();
                            let line = run_job(&designs[&r.design], &cfg);
                            ((*r).clone(), line, t.elapsed().as_secs_f64() * 1e3)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker"))
            .collect()
    });
    let mut lines = HashMap::new();
    let mut job_ms = HashMap::new();
    for (r, line, ms) in results {
        job_ms.insert(r.clone(), ms);
        lines.insert(r, line);
    }
    Reference {
        lines,
        build_ms,
        job_ms,
        designs,
    }
}

/// Re-grade fsim jobs of the stream through `LaneShards` directly (one
/// thread, one word), the way the `fsim` job does; returns gate
/// evaluations per second.
fn grade_rate(reqs: &[Request], refs: &Reference) -> f64 {
    let mut evals = 0u64;
    let mut secs = 0.0;
    let mut seen = Vec::new();
    for r in reqs {
        let cfg = JobConfig::parse(&r.config).expect("stream configs parse");
        if cfg.kind != JobKind::Fsim || seen.contains(&r) || seen.len() >= GRADE_JOBS {
            continue;
        }
        seen.push(r);
        let design = &refs.designs[&r.design];
        let netlist = design.scanned.as_ref().map_or(&design.base, |s| &s.netlist);
        let mut rng = SplitMix64::new(cfg.seed);
        let blocks: Vec<PatternBlock> = (0..cfg.patterns)
            .map(|_| {
                let mut b = PatternBlock::zero(netlist);
                for w in b.inputs.iter_mut().chain(b.state.iter_mut()) {
                    *w = rng.next_u64();
                }
                b
            })
            .collect();
        let mut shards = LaneShards::new(&design.lev, 1, 1).expect("one-word lanes exist");
        let _s = trace::span("fsim.grade");
        let t = Instant::now();
        let mut remaining = design.faults.clone();
        for block in &blocks {
            let lanes = shards.detect_lanes_group(std::slice::from_ref(block), &remaining);
            remaining = remaining
                .into_iter()
                .zip(lanes)
                .filter(|(_, l)| l.is_none())
                .map(|(f, _)| f)
                .collect();
        }
        secs += t.elapsed().as_secs_f64();
        evals += shards.gate_evals();
    }
    evals as f64 / secs.max(1e-9)
}

/// Run the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut checks = Checks::default();

    // Set-up is the client's design pool (model builds serialized to
    // netlist text) plus a server start through `/healthz`.
    trace::set_recording(run.traced);
    let (pool, pool_s) = median_setup(POOL_REPS, design_pool);
    let reqs = stream(&pool, run.derive(STREAM));
    let refs = reference(&pool, &reqs);
    trace::set_recording(false);

    let mut setup_samples = Vec::new();
    let mut timed_start = || -> Option<JobServer> {
        let t = Instant::now();
        let s = start_server();
        setup_samples.push(t.elapsed().as_secs_f64());
        s.map_err(|e| eprintln!("perfbench: server start: {e}"))
            .ok()
    };
    for _ in 0..SETUP_REPS {
        if let Some(mut s) = timed_start() {
            s.shutdown();
        }
    }

    let one_pass = |pass_no: usize| -> Option<Vec<Served>> {
        let mut server = timed_start()?;
        let served = serve_pass(server.addr(), &pool, &reqs, (pass_no * REQUESTS) as u64);
        server.shutdown();
        Some(served)
    };

    let ps = passes(run, one_pass);
    let all = ps.untraced.iter().map(|p| (false, &p.0));
    let all: Vec<(bool, &Option<Vec<Served>>)> =
        all.chain(ps.traced.iter().map(|p| (true, &p.0))).collect();

    // Check every served result line against the in-process reference.
    let mut lat = Vec::new();
    let (mut result_hits, mut design_hits, mut design_seen, mut shed) = (0usize, 0usize, 0usize, 0);
    let mut overhead = Vec::new();
    let mut per_kind: HashMap<&str, usize> = HashMap::new();
    for (p, &(traced, served)) in all.iter().enumerate() {
        let Some(served) = served else {
            checks.check(false, || format!("pass {p}: the server did not start"));
            continue;
        };
        checks.check(served.len() == reqs.len(), || {
            format!(
                "pass {p}: {} of {} requests answered",
                served.len(),
                reqs.len()
            )
        });
        for s in served {
            let r = &reqs[s.index];
            let want = refs.lines.get(r).and_then(|l| l.as_ref().ok());
            if s.status.contains("429") {
                shed += 1;
            }
            checks.check(s.status.contains("200") && s.result.is_some(), || {
                format!(
                    "pass {p} request {}: {} without a result line",
                    s.index, s.status
                )
            });
            checks.check(want.is_some() && s.result.as_ref() == want, || {
                format!(
                    "pass {p} request {} ({} on {}): served {:?}, run_job gives {:?}",
                    s.index,
                    r.config,
                    pool[r.design].name,
                    s.result,
                    refs.lines.get(r)
                )
            });
            if traced {
                continue;
            }
            lat.push(s.ms);
            *per_kind.entry(kind_of(&r.config)).or_default() += 1;
            if s.result_hit == Some(true) {
                result_hits += 1;
            } else if let Some(hit) = s.design_hit {
                design_seen += 1;
                design_hits += usize::from(hit);
                let build = if hit {
                    0.0
                } else {
                    median(&refs.build_ms).unwrap_or(0.0)
                };
                overhead.push(s.ms - refs.job_ms.get(r).copied().unwrap_or(0.0) - build);
            }
        }
    }

    let walls = ps.walls();
    let jobs = lat.len();
    let jobs_per_s = jobs as f64 / walls.iter().sum::<f64>().max(1e-9);
    let job_tail = tail(&lat);
    out.note("jobs_per_s", jobs_per_s, "1/s");
    out.note("job_p50_ms", median(&lat).unwrap_or(0.0), "ms");
    match job_tail {
        Some(t) => out.report.push(format!(
            "job_tail_ms {} ms (p{:.2} of {} jobs)",
            t.value, t.pct, t.n
        )),
        None => out.note("job_tail_ms", "n/a (too few jobs)", ""),
    }
    out.note("passes", ps.untraced.len(), "count");
    out.note("requests_per_pass", reqs.len(), "count");
    out.note("designs_in_pool", pool.len(), "count");
    let mut kinds: Vec<_> = per_kind.into_iter().collect();
    kinds.sort_unstable();
    out.report.push(format!("jobs_by_kind {kinds:?}"));

    let mut layer = Vec::new();
    if run.traced {
        trace::set_recording(true);
        let grade_rate = grade_rate(&reqs, &refs);
        trace::set_recording(false);
        let spans = trace::spans();
        let job_med = |kind: &str| trace::median_ms(&spans, &format!("serve.run_job.{kind}"));
        let served_total = jobs.max(1) as f64;
        layer = vec![
            ("jobs_per_s", jobs_per_s),
            ("job_p50_ms", median(&lat).unwrap_or(0.0)),
            ("job_tail_ms", job_tail.map_or(0.0, |t| t.value)),
            ("job_tail_pct", job_tail.map_or(0.0, |t| t.pct)),
            ("job_tail_n", job_tail.map_or(0.0, |t| t.n as f64)),
            ("trace.covered_frac", trace::covered_frac(&spans, "pass")),
            ("obs.trace_overhead_pct", ps.overhead_pct()),
            ("model.build_ms", trace::median_ms(&spans, "model.build")),
            ("fsim.grade_gate_evals_per_s", grade_rate),
            (
                "serve.design_build_ms",
                median(&refs.build_ms).unwrap_or(0.0),
            ),
            (
                "serve.design_hit_frac",
                design_hits as f64 / design_seen.max(1) as f64,
            ),
            ("serve.result_hit_frac", result_hits as f64 / served_total),
            ("serve.run_job_ms.netlist", job_med("netlist")),
            ("serve.run_job_ms.lint", job_med("lint")),
            ("serve.run_job_ms.fsim", job_med("fsim")),
            ("serve.run_job_ms.atpg", job_med("atpg")),
            ("serve.overhead_ms", median(&overhead).unwrap_or(0.0)),
            ("serve.shed", shed as f64),
        ];
    }

    let setup_s = pool_s + median(&setup_samples).unwrap_or(0.0);
    layer.push(("failed_frac", checks.failed_frac()));
    out.e2e = bench::e2e(setup_s, &walls, &checks);
    out.layer = layer;
    out.checks = checks;
    out
}

fn kind_of(config: &str) -> &'static str {
    JobConfig::parse(config).map_or("?", |c| c.kind.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_stream_and_two_seeds_differ() {
        let pool = design_pool();
        assert!(pool.len() > ServeOptions::default().design_cache);
        let a = stream(&pool, 1);
        assert_eq!(a, stream(&pool, 1));
        assert_ne!(a, stream(&pool, 2));
        assert_eq!(a.len(), REQUESTS);
        let kinds: Vec<&str> = a.iter().map(|r| kind_of(&r.config)).collect();
        for k in ["netlist", "lint", "fsim", "atpg"] {
            assert!(kinds.contains(&k), "stream has no {k} job");
        }
        for (i, r) in a.iter().enumerate() {
            if kind_of(&r.config) == "atpg" {
                assert!(
                    pool[r.design].quick,
                    "atpg request {i} on a paper-scale design"
                );
            }
            if let Some(j) = a[..i].iter().position(|o| o == r) {
                assert!(
                    j + REPEAT_GAP <= i,
                    "repeat {i} follows its original {j} too closely"
                );
            }
        }
        let repeats = (0..a.len()).filter(|&i| a[..i].contains(&a[i])).count();
        assert_eq!(repeats, REPEATS);

        // Every seed sends each design the same jobs; only job seeds
        // and order differ.
        let work = |reqs: &[Request]| {
            let mut w: Vec<(usize, &str)> = (0..reqs.len())
                .filter(|&i| !reqs[..i].contains(&reqs[i]))
                .map(|i| (reqs[i].design, kind_of(&reqs[i].config)))
                .collect();
            w.sort_unstable();
            w
        };
        assert_eq!(work(&a), work(&stream(&pool, 2)));
        // Every original atpg job is followed by the originals of at
        // least one whole slice; repeats of one late on are cache hits.
        let originals: Vec<&Request> = (0..a.len())
            .filter(|&i| !a[..i].contains(&a[i]))
            .map(|i| &a[i])
            .collect();
        let last_atpg = originals
            .iter()
            .rposition(|r| kind_of(&r.config) == "atpg")
            .expect("atpg jobs");
        assert!(originals.len() - last_atpg > originals.len() - ATPG * ATPG_SPACING);
    }
}
