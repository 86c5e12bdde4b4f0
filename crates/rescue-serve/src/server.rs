//! The job server: HTTP surface, admission control, and the job
//! execution path.
//!
//! Endpoints:
//!
//! * `POST /jobs` — body is one JSON config line followed by a text
//!   netlist. Streams JSONL back: `{"type":"event",...}` progress lines
//!   (advisory — a cached job emits fewer of them) terminated by one
//!   canonical `{"type":"result",...}` line whose bytes are the
//!   determinism contract (see [`crate::job`]). Errors come back as a
//!   `{"type":"error",...}` line with an HTTP error status.
//! * `GET /stats.json` — server-specific state: jobs running/queued,
//!   cache sizes, totals.
//! * `GET /metrics`, `/snapshot.json`, `/healthz` — the shared
//!   telemetry surface ([`rescue_obs::server::route_telemetry`]), so
//!   one scrape sees the engine counters and the `serve.*` counters
//!   side by side.
//!
//! Admission control: at most `workers` jobs execute concurrently; up
//! to `queue_depth` more wait; anything beyond is shed immediately
//! with `429` and a `serve.jobs.shed` count. Shedding never blocks on
//! running jobs, and `/metrics` stays served (separate connections,
//! separate threads) while jobs run.

use crate::cache::ServeCaches;
use crate::job::{run_job, JobConfig};
use rescue_obs::http::{
    write_response, write_stream_head, HttpOptions, HttpServer, Request, Response,
};
use rescue_obs::json::JsonObj;
use rescue_obs::metrics::{Counter, Histogram};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Server tuning. `Default` suits tests and local runs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Jobs allowed to execute concurrently.
    pub workers: usize,
    /// Jobs allowed to wait for a worker before shedding starts.
    pub queue_depth: usize,
    /// Maximum accepted request body (config + netlist text).
    pub max_body: usize,
    /// Prepared designs kept in the design cache.
    pub design_cache: usize,
    /// Result lines kept in the result cache.
    pub result_cache: usize,
    /// Title echoed by `/snapshot.json`.
    pub title: String,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_depth: 8,
            max_body: 16 * 1024 * 1024,
            design_cache: 16,
            result_cache: 128,
            title: "rescue-serve".to_owned(),
        }
    }
}

/// Blocking admission gate: a counting semaphore with a bounded FIFO
/// wait queue. `enter` returns `None` (shed) once `queue_depth` jobs
/// are already waiting. Waiters hold numbered tickets and are admitted
/// strictly in arrival order, and a newcomer is only admitted directly
/// when nobody is queued — so a sustained stream of new arrivals can
/// never barge past queued jobs and starve them.
struct Gate {
    workers: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    cond: Condvar,
}

/// Gate state behind the mutex. `queued == next_ticket - serving`.
#[derive(Clone, Copy, Default)]
struct GateState {
    /// Jobs holding a permit.
    running: usize,
    /// Jobs waiting in [`Gate::enter`].
    queued: usize,
    /// Next queue ticket to hand out.
    next_ticket: u64,
    /// Ticket at the head of the queue (admitted next).
    serving: u64,
}

impl Gate {
    fn new(workers: usize, queue_depth: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::new(GateState::default()),
            cond: Condvar::new(),
        }
    }

    /// Acquire a job slot, waiting in the bounded queue if needed.
    fn enter(self: &Arc<Self>) -> Option<GatePermit> {
        let mut st = self.state.lock().expect("gate lock");
        // Direct admission only when nobody is waiting; freed slots
        // belong to the head of the queue first.
        if st.queued == 0 && st.running < self.workers {
            st.running += 1;
            return Some(GatePermit(Arc::clone(self)));
        }
        if st.queued >= self.queue_depth {
            return None;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queued += 1;
        while st.serving != ticket || st.running >= self.workers {
            st = self.cond.wait(st).expect("gate wait");
        }
        st.serving += 1;
        st.queued -= 1;
        st.running += 1;
        drop(st);
        // The next ticket holder may already be eligible (slots can
        // free back-to-back); it waits on this same condvar.
        self.cond.notify_all();
        Some(GatePermit(Arc::clone(self)))
    }

    /// `(running, queued)` right now.
    fn load(&self) -> (usize, usize) {
        let st = self.state.lock().expect("gate lock");
        (st.running, st.queued)
    }
}

/// RAII job slot; releasing admits the head of the wait queue.
struct GatePermit(Arc<Gate>);

impl Drop for GatePermit {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("gate lock");
        st.running -= 1;
        drop(st);
        // notify_all, not notify_one: only the head ticket can
        // proceed, and a single notify could land on a non-head
        // waiter that just goes back to sleep.
        self.0.cond.notify_all();
    }
}

/// Shared server state: caches, gate, counters.
struct State {
    caches: ServeCaches,
    gate: Arc<Gate>,
    title: String,
    jobs_accepted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_shed: Arc<Counter>,
    job_ns: Arc<Histogram>,
}

impl State {
    fn new(opts: &ServeOptions) -> State {
        let reg = rescue_obs::metrics::global();
        State {
            caches: ServeCaches::new(opts.design_cache, opts.result_cache),
            gate: Arc::new(Gate::new(opts.workers, opts.queue_depth)),
            title: opts.title.clone(),
            jobs_accepted: reg.counter("serve.jobs.accepted"),
            jobs_completed: reg.counter("serve.jobs.completed"),
            jobs_failed: reg.counter("serve.jobs.failed"),
            jobs_shed: reg.counter("serve.jobs.shed"),
            job_ns: reg.histogram("serve.job.ns"),
        }
    }
}

/// A running job server. Dropping it shuts the listener down.
pub struct JobServer {
    inner: HttpServer,
}

impl JobServer {
    /// Bind `addr` (port 0 for ephemeral) and serve jobs.
    pub fn start(addr: &str, opts: ServeOptions) -> std::io::Result<JobServer> {
        crate::obs_enabled();
        let state = Arc::new(State::new(&opts));
        let http_opts = HttpOptions {
            max_body: opts.max_body,
            // Jobs hold their connection while running; admit enough
            // connections for all workers + queue + scrapers.
            max_connections: (opts.workers + opts.queue_depth + 8).max(16),
            ..HttpOptions::default()
        };
        let inner = HttpServer::start(
            addr,
            "rescue-serve",
            http_opts,
            move |req: Request, stream: &mut TcpStream| handle(&state, req, stream),
        )?;
        Ok(JobServer { inner })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stop accepting and drain. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

fn handle(state: &State, req: Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let head_only = req.is_head();
    if req.method == "POST" && req.path == "/jobs" {
        return serve_job(state, &req, stream);
    }
    if (req.method == "GET" || req.method == "HEAD") && req.path == "/stats.json" {
        let resp = Response::ok("application/json", stats_json(state));
        return write_response(stream, &resp, head_only);
    }
    let resp = rescue_obs::server::route_telemetry(&req, &state.title)
        .unwrap_or_else(|| Response::text("405 Method Not Allowed", "GET, HEAD or POST /jobs\n"));
    write_response(stream, &resp, head_only)
}

/// One event line of the JSONL stream (advisory, not cached).
fn event_line(name: &str, fill: impl FnOnce(&mut JsonObj)) -> String {
    let mut o = JsonObj::new();
    o.str("type", "event").str("name", name);
    fill(&mut o);
    let mut line = o.finish();
    line.push('\n');
    line
}

/// The full `POST /jobs` path: parse, admit, cache-lookup, run, stream.
fn serve_job(state: &State, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let body = String::from_utf8_lossy(&req.body);
    // First line: JSON config. Remainder: netlist text.
    let (config_line, netlist_text) = match body.split_once('\n') {
        Some(pair) => pair,
        None => (body.as_ref(), ""),
    };
    let cfg = match JobConfig::parse(config_line) {
        Ok(c) => c,
        Err(e) => return error_response(stream, "400 Bad Request", &e),
    };
    if netlist_text.trim().is_empty() {
        return error_response(stream, "400 Bad Request", "request has no netlist text");
    }

    // Admission before any expensive work: shed with 429 when the
    // queue is full. The permit covers the whole job, including the
    // design build — parsing a pathological netlist is work too.
    let permit = match state.gate.enter() {
        Some(p) => p,
        None => {
            state.jobs_shed.inc();
            return error_response(stream, "429 Too Many Requests", "job queue is full");
        }
    };
    state.jobs_accepted.inc();
    let t_job = Instant::now();

    // From here on the response is a 200 JSONL stream; job failures
    // become an error line inside the stream.
    write_stream_head(stream, "200 OK", "application/jsonl")?;
    if req.is_head() {
        return Ok(());
    }
    stream.write_all(
        event_line("serve.job.accepted", |o| {
            o.str("job", cfg.kind.name());
        })
        .as_bytes(),
    )?;

    let config_hash = cfg.config_hash();
    let result = run_cached(state, &cfg, config_hash, netlist_text, stream);
    drop(permit);

    match result {
        Ok(line) => {
            state.jobs_completed.inc();
            state.job_ns.record(t_job.elapsed().as_nanos() as u64);
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
        }
        Err(e) => {
            state.jobs_failed.inc();
            stream.write_all(error_line(&e).as_bytes())?;
        }
    }
    stream.flush()
}

/// Resolve the job through the result and design caches, emitting
/// advisory cache events on `stream` as they are known.
fn run_cached(
    state: &State,
    cfg: &JobConfig,
    config_hash: u64,
    netlist_text: &str,
    stream: &mut TcpStream,
) -> Result<Arc<String>, String> {
    let text_hash = rescue_netlist::fnv1a64(netlist_text.as_bytes());
    if let Some(line) = state.caches.result(text_hash, config_hash) {
        let _ = stream.write_all(
            event_line("serve.result.cache", |o| {
                o.bool("hit", true);
            })
            .as_bytes(),
        );
        return Ok(line);
    }
    let _ = stream.write_all(
        event_line("serve.result.cache", |o| {
            o.bool("hit", false);
        })
        .as_bytes(),
    );
    let (design, design_hit) = state.caches.design(netlist_text)?;
    let _ = stream.write_all(
        event_line("serve.design.cache", |o| {
            o.bool("hit", design_hit)
                .str("design", &format!("{:016x}", design.content_hash));
        })
        .as_bytes(),
    );
    let line = Arc::new(run_job(&design, cfg)?);
    state
        .caches
        .store_result(text_hash, config_hash, Arc::clone(&line));
    Ok(line)
}

fn error_line(message: &str) -> String {
    let mut o = JsonObj::new();
    o.str("type", "error").str("message", message);
    let mut line = o.finish();
    line.push('\n');
    line
}

/// A whole-response error (pre-stream): proper HTTP status, JSON body.
fn error_response(
    stream: &mut TcpStream,
    status: &'static str,
    message: &str,
) -> std::io::Result<()> {
    let resp = Response {
        status,
        content_type: "application/json",
        body: error_line(message),
    };
    write_response(stream, &resp, false)
}

/// `/stats.json`: instantaneous server state (distinct from the
/// cumulative counters on `/metrics`).
fn stats_json(state: &State) -> String {
    let (running, queued) = state.gate.load();
    let (designs, results) = state.caches.sizes();
    let mut o = JsonObj::new();
    o.str("title", &state.title)
        .u64("jobs_running", running as u64)
        .u64("jobs_queued", queued as u64)
        .u64("designs_cached", designs as u64)
        .u64("results_cached", results as u64)
        .u64("jobs_accepted", state.jobs_accepted.get())
        .u64("jobs_completed", state.jobs_completed.get())
        .u64("jobs_failed", state.jobs_failed.get())
        .u64("jobs_shed", state.jobs_shed.get());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn gate_hands_freed_slots_to_waiters_before_newcomers() {
        let gate = Arc::new(Gate::new(1, 4));
        let occupant = gate.enter().expect("occupant admitted");

        let waiter_ran = Arc::new(AtomicBool::new(false));
        let waiter = {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&waiter_ran);
            std::thread::spawn(move || {
                let permit = gate.enter().expect("waiter admitted");
                ran.store(true, Ordering::Release);
                drop(permit);
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while gate.load() != (1, 1) {
            assert!(Instant::now() < deadline, "waiter never queued");
            std::thread::yield_now();
        }
        drop(occupant);

        // The newcomer queues behind the waiter's ticket, so by the
        // time it holds the (single) slot the waiter has already run.
        let newcomer = gate.enter().expect("newcomer admitted");
        assert!(
            waiter_ran.load(Ordering::Acquire),
            "newcomer barged past the queued waiter"
        );
        drop(newcomer);
        waiter.join().expect("waiter thread");
    }

    #[test]
    fn gate_sheds_when_queue_is_full() {
        let gate = Arc::new(Gate::new(1, 0));
        let permit = gate.enter().expect("admitted");
        assert!(gate.enter().is_none(), "queue_depth 0 must shed");
        drop(permit);
        assert!(gate.enter().is_some(), "freed slot must admit again");
    }
}
