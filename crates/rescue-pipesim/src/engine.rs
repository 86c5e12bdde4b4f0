//! The cycle-stepped simulation engine.
//!
//! The clock skips idle time. After a cycle in which no stage changed any
//! state, every following cycle repeats it exactly until some stage's
//! time condition comes true: a miss detection falls due, an execution
//! finishes, a queue slot leaves the replay shadow, an operand becomes
//! ready, or the fetch redirect ends. [`Engine::next_event`] finds the
//! earliest such cycle and the engine jumps there, adding the idle
//! cycle's per-cycle counters once per skipped cycle and closing every
//! IPC window it crosses. The per-cycle path is kept, for the
//! differential tests only, as `run::<false>`.

use crate::config::{CoreConfig, Policy, ReplayPolicy, Resources, SimConfig};
use crate::result::{SimResult, IPC_WINDOW_CYCLES};
use rescue_workloads::{InstrKind, TraceInstr};
use std::collections::VecDeque;

/// Result not yet available.
const NOT_READY: u64 = u64::MAX;

/// Cycles without a commit after which the run is declared deadlocked.
const WATCHDOG_CYCLES: u64 = 1_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Waiting in an issue-queue half.
    InQueue,
    /// In the Rescue inter-segment compaction buffer (wakeable, not
    /// selectable).
    InBuffer,
    /// Issued; occupies its queue slot until the replay shadow passes.
    Issued,
    /// Execution finished.
    Done,
}

#[derive(Clone, Debug)]
struct Slot {
    instr: TraceInstr,
    state: State,
    issue_cycle: u64,
    done_cycle: u64,
    /// Cycle from which dependents may issue (speculative wakeup assumes
    /// an L1 hit; `NOT_READY` before issue and after a squash).
    ready_at: u64,
    /// Still occupies an issue-queue slot (or the compaction buffer).
    in_queue: bool,
}

/// One issue queue (int or fp) with its Rescue segmentation.
#[derive(Debug, Default)]
struct Queue {
    old: VecDeque<u64>,
    new: VecDeque<u64>,
    buf: VecDeque<u64>,
    /// Old-half free slots visible to the new half (one cycle delayed —
    /// the cycle-split compaction request).
    old_free_prev: usize,
}

impl Queue {
    fn occupancy(&self) -> usize {
        self.old.len() + self.new.len() + self.buf.len()
    }
}

/// Run `cfg`/`core` over `trace` until `n_instr` instructions commit.
///
/// # Panics
///
/// Panics if the configuration deadlocks (a bug, guarded by a watchdog).
pub fn simulate(
    cfg: &SimConfig,
    core: &CoreConfig,
    trace: impl IntoIterator<Item = TraceInstr>,
    n_instr: u64,
) -> SimResult {
    core.validate();
    Engine::new(cfg, core, trace.into_iter()).run::<true>(n_instr)
}

struct Engine<'c, T: Iterator<Item = TraceInstr>> {
    cfg: &'c SimConfig,
    core: &'c CoreConfig,
    trace: T,
    trace_done: bool,

    cycle: u64,
    rob: VecDeque<Slot>,
    rob_base: u64,
    next_id: u64,

    intq: Queue,
    fpq: Queue,
    lsq_count: usize,

    fetchq: VecDeque<(u64, TraceInstr)>,
    fetch_stall: bool,
    fetch_resume_at: u64,
    redirect_branch: Option<u64>,

    /// (detection_cycle, load id) for in-flight L1 misses.
    miss_checks: VecDeque<(u64, u64)>,
    /// Recently issued (cycle, id), for miss-shadow squashing.
    recent_issues: VecDeque<(u64, u64)>,

    budget: Resources,
    int_cap: usize,
    fp_cap: usize,
    lsq_cap: usize,
    fe_width: usize,
    hold_extra: u64,
    squash_window: u64,

    /// Whether the current cycle changed any state: a retire, miss-check
    /// pop, issue, promotion to Done, queue-slot release, queue move or
    /// state flip, compaction-request change, dispatch, fetch or
    /// un-stall. A cycle that did not repeats until
    /// [`Engine::next_event`].
    acted: bool,
    /// Why dispatch blocked in the current cycle, if it did.
    dispatch_stall: Option<StallCause>,
    /// Whether fetch waited on a redirect in the current cycle.
    fetch_stalled: bool,
    /// The current cycle's selections (reused to avoid an allocation per
    /// cycle).
    picks: Vec<u64>,

    stats: SimResult,
    last_commit_cycle: u64,
    /// Committed count at the last IPC-window boundary.
    window_committed_base: u64,
}

/// Why dispatch blocked this cycle (first blocked instruction's need).
#[derive(Clone, Copy, Debug)]
enum StallCause {
    Rob,
    Lsq,
    Iq,
}

impl<'c, T: Iterator<Item = TraceInstr>> Engine<'c, T> {
    fn new(cfg: &'c SimConfig, core: &'c CoreConfig, trace: T) -> Self {
        let (int_cap, fp_cap, lsq_cap) = core.capacities(cfg);
        let (hold_extra, squash_window) = (cfg.hold_extra, cfg.squash_window);
        Engine {
            cfg,
            core,
            trace,
            trace_done: false,
            cycle: 0,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_base: 0,
            next_id: 0,
            intq: Queue::default(),
            fpq: Queue::default(),
            lsq_count: 0,
            fetchq: VecDeque::with_capacity(32),
            fetch_stall: false,
            fetch_resume_at: 0,
            redirect_branch: None,
            miss_checks: VecDeque::new(),
            recent_issues: VecDeque::new(),
            budget: core.resources(cfg),
            int_cap,
            fp_cap,
            lsq_cap,
            fe_width: core.frontend_width(cfg),
            hold_extra,
            squash_window,
            acted: false,
            dispatch_stall: None,
            fetch_stalled: false,
            picks: Vec::new(),
            stats: SimResult::default(),
            last_commit_cycle: 0,
            window_committed_base: 0,
        }
    }

    fn slot(&self, id: u64) -> &Slot {
        &self.rob[(id - self.rob_base) as usize]
    }

    fn slot_mut(&mut self, id: u64) -> &mut Slot {
        &mut self.rob[(id - self.rob_base) as usize]
    }

    /// Step until `n_instr` instructions commit or the trace drains. With
    /// `SKIP_IDLE`, a cycle in which no stage acted is followed by a jump
    /// to the next event; without it (the tests' reference) every cycle
    /// is stepped.
    fn run<const SKIP_IDLE: bool>(mut self, n_instr: u64) -> SimResult {
        while self.stats.committed < n_instr {
            self.step();
            if self.trace_done && self.rob.is_empty() && self.fetchq.is_empty() {
                break;
            }
            if SKIP_IDLE && !self.acted {
                self.skip_idle();
            }
            assert!(
                self.cycle - self.last_commit_cycle < WATCHDOG_CYCLES,
                "simulator deadlock at cycle {} (committed {})",
                self.cycle,
                self.stats.committed
            );
        }
        self.stats.cycles = self.cycle;
        self.stats
    }

    fn step(&mut self) {
        self.acted = false;
        self.count_occupancy(1);
        self.retire();
        self.handle_miss_detections();
        self.select_and_issue();
        self.remove_safe_entries();
        self.compact();
        self.dispatch();
        self.fetch();
        self.count_stalls(1);
        self.tick(self.cycle + 1);
    }

    /// Jump over the cycles that would repeat the idle one just stepped:
    /// to the next event, or to the cycle at which the watchdog fires.
    fn skip_idle(&mut self) {
        let to = self
            .next_event()
            .min(self.last_commit_cycle + WATCHDOG_CYCLES);
        if to > self.cycle {
            let skipped = to - self.cycle;
            self.count_occupancy(skipped);
            self.count_stalls(skipped);
            self.tick(to);
        }
    }

    /// The earliest cycle at which a stage can act again, given that none
    /// acted in the cycle just stepped (`NOT_READY` if nothing is
    /// pending). These are all the conditions that depend on the clock;
    /// every other one depends only on state the idle cycle left as it
    /// was.
    fn next_event(&self) -> u64 {
        // An L1-miss detection falls due.
        let mut t = self
            .miss_checks
            .front()
            .map_or(NOT_READY, |&(when, _)| when);
        // The front end resumes after a resolved redirect.
        if self.fetch_stall && self.redirect_branch.is_none() {
            t = t.min(self.fetch_resume_at);
        }
        for (id, s) in (self.rob_base..).zip(&self.rob) {
            match s.state {
                // Execution finishes (promotion to Done).
                State::Issued => t = t.min(s.done_cycle),
                // The last operand becomes ready: with nothing selected,
                // any ready entry fits the budget alone.
                State::InQueue => t = t.min(self.operands_ready_at(id)),
                State::InBuffer | State::Done => {}
            }
        }
        // A queue slot leaves the replay shadow (the compaction buffer
        // releases nothing; its entries move on only as the old half
        // frees up).
        let release = self.cfg.l1_latency + self.hold_extra;
        for q in [&self.intq, &self.fpq] {
            for &id in q.old.iter().chain(&q.new) {
                let s = self.slot(id);
                if matches!(s.state, State::Issued | State::Done) {
                    t = t.min(s.issue_cycle + release);
                }
            }
        }
        t
    }

    /// Add `cycles` cycles of the current occupancy to the sums.
    fn count_occupancy(&mut self, cycles: u64) {
        self.stats.sum_iq_occupancy += cycles * self.intq.occupancy() as u64;
        self.stats.sum_fpq_occupancy += cycles * self.fpq.occupancy() as u64;
        self.stats.sum_rob_occupancy += cycles * self.rob.len() as u64;
    }

    /// Add `cycles` cycles of the current cycle's dispatch and fetch
    /// stalls.
    fn count_stalls(&mut self, cycles: u64) {
        if let Some(cause) = self.dispatch_stall {
            self.stats.dispatch_stall_cycles += cycles;
            *match cause {
                StallCause::Rob => &mut self.stats.stall_rob_full,
                StallCause::Lsq => &mut self.stats.stall_lsq_full,
                StallCause::Iq => &mut self.stats.stall_iq_full,
            } += cycles;
        }
        if self.fetch_stalled {
            self.stats.fetch_stall_cycles += cycles;
        }
    }

    /// Advance the clock to `to`, closing every IPC window that ends on
    /// the way; when `to` skips idle cycles, all windows after the first
    /// are empty.
    fn tick(&mut self, to: u64) {
        let windows = to / IPC_WINDOW_CYCLES - self.cycle / IPC_WINDOW_CYCLES;
        self.cycle = to;
        for _ in 0..windows {
            let window = self.stats.committed - self.window_committed_base;
            self.stats.ipc_windows.record(window);
            self.window_committed_base = self.stats.committed;
            let hub = rescue_obs::live::global();
            hub.record(rescue_obs::LiveCounter::PipesimCycles, IPC_WINDOW_CYCLES);
            hub.record(rescue_obs::LiveCounter::PipesimCommitted, window);
            // Counter tracks for the Perfetto timeline (no-ops unless the
            // tracer is enabled; cheap enough for the window boundary).
            if rescue_obs::global().enabled() {
                rescue_obs::counter(
                    "pipesim.window_ipc",
                    window as f64 / IPC_WINDOW_CYCLES as f64,
                );
                rescue_obs::counter("pipesim.int_iq_occupancy", self.intq.occupancy() as f64);
                rescue_obs::counter("pipesim.rob_occupancy", self.rob.len() as f64);
            }
        }
    }

    // ---- Stage 1: retire.
    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != State::Done || head.done_cycle > self.cycle || head.in_queue {
                break;
            }
            let slot = self.rob.pop_front().expect("head exists");
            if slot.instr.kind.is_mem() {
                self.lsq_count -= 1;
            }
            if slot.instr.kind == InstrKind::Load && slot.instr.l1_miss {
                self.stats.l1_misses += 1;
            }
            self.rob_base += 1;
            self.stats.committed += 1;
            self.last_commit_cycle = self.cycle;
            self.acted = true;
            n += 1;
        }
    }

    // ---- Stage 2: L1-miss detection and issue-shadow squash.
    fn handle_miss_detections(&mut self) {
        let l1 = self.cfg.l1_latency;
        while let Some(&(when, load_id)) = self.miss_checks.front() {
            if when > self.cycle {
                break;
            }
            self.miss_checks.pop_front();
            self.acted = true;
            if load_id < self.rob_base {
                continue; // already retired (cannot happen for misses)
            }
            let s = self.slot_mut(load_id);
            if s.state != State::Issued && s.state != State::Done {
                continue; // load itself was squashed; re-check on reissue
            }
            if when != s.issue_cycle + l1 {
                // Stale check from an issue that was squashed and redone.
                continue;
            }
            // Correct the load's readiness to the true latency.
            s.ready_at = s.done_cycle;

            // Squash everything issued in the shadow window.
            let lo = self.cycle.saturating_sub(self.squash_window);
            let Engine {
                recent_issues,
                rob,
                rob_base,
                stats,
                cycle,
                ..
            } = &mut *self;
            for &(c, id) in recent_issues.iter() {
                if c < lo || c >= *cycle || id == load_id || id < *rob_base {
                    continue;
                }
                let s = &mut rob[(id - *rob_base) as usize];
                if s.state == State::Issued {
                    s.state = State::InQueue;
                    s.ready_at = NOT_READY;
                    stats.miss_squashes += 1;
                }
            }
        }
        // Trim the recent-issue history (entries this old can never be
        // squashed, so the trim is invisible to the results).
        let keep_from = self.cycle.saturating_sub(self.squash_window + 2);
        while matches!(self.recent_issues.front(), Some(&(c, _)) if c < keep_from) {
            self.recent_issues.pop_front();
        }
    }

    // ---- Stage 3: wakeup, select, issue.
    fn select_and_issue(&mut self) {
        let mut picks = std::mem::take(&mut self.picks);
        picks.clear();
        match self.cfg.policy {
            Policy::Baseline => {
                let mut used = Resources::zero();
                for part in [
                    QueuePart::IntOld,
                    QueuePart::IntNew,
                    QueuePart::FpOld,
                    QueuePart::FpNew,
                ] {
                    self.pick_from(part, &mut used, &mut picks);
                }
                for &id in &picks {
                    self.issue(id);
                }
            }
            Policy::Rescue => {
                for (halves_present, old, new) in [
                    (
                        self.core.int_iq_halves,
                        QueuePart::IntOld,
                        QueuePart::IntNew,
                    ),
                    (self.core.fp_iq_halves, QueuePart::FpOld, QueuePart::FpNew),
                ] {
                    picks.clear();
                    // Each half selects as if the other selects nothing.
                    let mut used_old = Resources::zero();
                    self.pick_from(old, &mut used_old, &mut picks);
                    let split = picks.len();
                    // A single surviving half has no cross-half policy.
                    let mut used_new = Resources::zero();
                    if halves_present == 2 {
                        self.pick_from(new, &mut used_new, &mut picks);
                    }
                    let keep = if self.budget.fits(&used_old.plus(&used_new)) {
                        &picks[..]
                    } else {
                        // Overcommit: replay per the configured policy;
                        // any kept half fits by construction since each
                        // half obeyed the constraints alone.
                        let (picks_old, picks_new) = picks.split_at(split);
                        let (keep, drop) = match self.cfg.replay_policy {
                            ReplayPolicy::SmallerHalf => {
                                if picks_old.len() < picks_new.len() {
                                    (picks_new, picks_old)
                                } else {
                                    (picks_old, picks_new)
                                }
                            }
                            ReplayPolicy::NewHalf => (picks_old, picks_new),
                            ReplayPolicy::LargerHalf => {
                                if picks_old.len() >= picks_new.len() {
                                    (picks_new, picks_old)
                                } else {
                                    (picks_old, picks_new)
                                }
                            }
                        };
                        self.stats.overcommit_replays += drop.len() as u64;
                        keep
                    };
                    for &id in keep {
                        self.issue(id);
                    }
                }
            }
        }
        self.picks = picks;
    }

    fn issue(&mut self, id: u64) {
        let cycle = self.cycle;
        let cfg = self.cfg;
        let is_redirect = self.redirect_branch == Some(id);
        let s = self.slot_mut(id);
        debug_assert_eq!(s.state, State::InQueue);
        s.state = State::Issued;
        s.issue_cycle = cycle;
        let instr = s.instr;
        let (latency, bypass) = match instr.kind {
            InstrKind::IntAlu | InstrKind::Branch | InstrKind::Store => (1, 1),
            InstrKind::IntMul => (cfg.int_mul_latency, cfg.int_mul_latency),
            InstrKind::FpAdd => (cfg.fp_add_latency, cfg.fp_add_latency),
            InstrKind::FpMul => (cfg.fp_mul_latency, cfg.fp_mul_latency),
            InstrKind::Load => {
                let actual = if !instr.l1_miss {
                    cfg.l1_latency
                } else if !instr.l2_miss {
                    cfg.l2_latency
                } else {
                    cfg.mem_latency
                };
                // Speculative wakeup assumes an L1 hit.
                (actual, cfg.l1_latency)
            }
        };
        s.done_cycle = cycle + latency;
        s.ready_at = cycle + bypass;
        if instr.kind == InstrKind::Load && instr.l1_miss {
            // Keep detection queue sorted by time (l1 latency constant, so
            // pushes are already in order).
            self.miss_checks.push_back((cycle + cfg.l1_latency, id));
        }
        if is_redirect {
            self.fetch_resume_at = cycle + latency + cfg.mispredict_penalty;
            self.fetch_stall = true; // stays stalled until the resume time
            self.redirect_branch = None;
        }
        self.recent_issues.push_back((cycle, id));
        self.stats.issued_total += 1;
        self.acted = true;
    }

    /// Oldest-first pick from one queue part under the shared budget,
    /// appended to `picks`.
    fn pick_from(&self, part: QueuePart, used: &mut Resources, picks: &mut Vec<u64>) {
        for &id in self.part(part) {
            let s = self.slot(id);
            if s.state != State::InQueue || self.operands_ready_at(id) > self.cycle {
                continue;
            }
            let after = used.plus(&kind_usage(s.instr.kind));
            if !self.budget.fits(&after) {
                continue;
            }
            *used = after;
            picks.push(id);
        }
    }

    /// The cycle from which all of `id`'s operands are available
    /// (`NOT_READY` while a producer has yet to issue, or if it lies
    /// before the start of the trace).
    fn operands_ready_at(&self, id: u64) -> u64 {
        let mut t = 0;
        for dep in self.slot(id).instr.src_deps.into_iter().flatten() {
            let Some(p) = id.checked_sub(dep as u64) else {
                return NOT_READY;
            };
            if p >= self.rob_base {
                // A producer that has retired is long ready.
                t = t.max(self.slot(p).ready_at);
            }
        }
        t
    }

    // ---- Stage 3b: release queue slots out of the replay shadow, and
    // promote finished instructions to Done.
    fn remove_safe_entries(&mut self) {
        let release = self.cfg.l1_latency + self.hold_extra;
        let cycle = self.cycle;
        let Engine {
            rob,
            rob_base,
            intq,
            fpq,
            acted,
            ..
        } = &mut *self;
        // Promote Done.
        for slot in rob.iter_mut() {
            if slot.state == State::Issued && slot.done_cycle <= cycle {
                slot.state = State::Done;
                *acted = true;
            }
        }
        for dq in [&mut intq.old, &mut intq.new, &mut fpq.old, &mut fpq.new] {
            dq.retain(|&id| {
                let s = &mut rob[(id - *rob_base) as usize];
                let release_now = matches!(s.state, State::Issued | State::Done)
                    && cycle >= s.issue_cycle + release;
                if release_now {
                    s.in_queue = false;
                    *acted = true;
                }
                !release_now
            });
        }
    }

    // ---- Stage 4: compaction.
    fn compact(&mut self) {
        match self.cfg.policy {
            Policy::Baseline => {
                // Single-cycle inter-segment compaction: the queue behaves
                // as one FIFO. Entries flow new -> old freely.
                for (q, cap) in [(&mut self.intq, self.int_cap), (&mut self.fpq, self.fp_cap)] {
                    let half = cap / 2;
                    while q.old.len() < half {
                        let Some(id) = q.new.pop_front() else { break };
                        q.old.push_back(id);
                        self.acted = true;
                    }
                }
            }
            Policy::Rescue => {
                let buf_cap = self.cfg.compaction_buffer;
                for (q, cap, halves) in [
                    (&mut self.intq, self.int_cap, self.core.int_iq_halves),
                    (&mut self.fpq, self.fp_cap, self.core.fp_iq_halves),
                ] {
                    if halves == 1 {
                        continue; // single surviving half, no movement
                    }
                    let half = cap / 2;
                    // Old half consumes the temporary buffer.
                    while q.old.len() < half {
                        let Some(id) = q.buf.pop_front() else { break };
                        q.old.push_back(id);
                        self.acted = true;
                    }
                    // New half forwards entries toward the buffer based on
                    // *last* cycle's free-slot count (cycle-split request).
                    let quota = q.old_free_prev.min(buf_cap - q.buf.len());
                    for _ in 0..quota {
                        let Some(id) = q.new.pop_front() else { break };
                        q.buf.push_back(id);
                        self.acted = true;
                    }
                    let old_free = half - q.old.len().min(half);
                    if old_free != q.old_free_prev {
                        q.old_free_prev = old_free;
                        self.acted = true;
                    }
                }
                let Engine {
                    rob,
                    rob_base,
                    intq,
                    fpq,
                    acted,
                    ..
                } = &mut *self;
                // Buffer residents change state for bookkeeping.
                for &id in intq.buf.iter().chain(&fpq.buf) {
                    let s = &mut rob[(id - *rob_base) as usize];
                    if s.state == State::InQueue {
                        s.state = State::InBuffer;
                        *acted = true;
                    }
                }
                // And entries arriving in the old half become selectable.
                for &id in intq.old.iter().chain(&fpq.old) {
                    let s = &mut rob[(id - *rob_base) as usize];
                    if s.state == State::InBuffer {
                        s.state = State::InQueue;
                        *acted = true;
                    }
                }
            }
        }
    }

    // ---- Stage 5: dispatch from the fetch queue into the window.
    fn dispatch(&mut self) {
        let mut stalled: Option<StallCause> = None;
        for _ in 0..self.fe_width {
            let Some(&(id, instr)) = self.fetchq.front() else {
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries {
                stalled = Some(StallCause::Rob);
                break;
            }
            if instr.kind.is_mem() && self.lsq_count >= self.lsq_cap {
                stalled = Some(StallCause::Lsq);
                break;
            }
            let (q, cap, halves) = if instr.kind.is_fp() {
                (&mut self.fpq, self.fp_cap, self.core.fp_iq_halves)
            } else {
                (&mut self.intq, self.int_cap, self.core.int_iq_halves)
            };
            let ok = match self.cfg.policy {
                Policy::Baseline => q.occupancy() < cap,
                Policy::Rescue => {
                    if halves == 1 {
                        q.old.len() < cap
                    } else {
                        // Insertion goes through the new half only.
                        q.new.len() < cap / 2
                    }
                }
            };
            if !ok {
                stalled = Some(StallCause::Iq);
                break;
            }
            match self.cfg.policy {
                Policy::Rescue if halves == 1 => q.old.push_back(id),
                Policy::Rescue => q.new.push_back(id),
                Policy::Baseline => {
                    // FIFO semantics: fill old first, overflow to new.
                    let half = cap / 2;
                    if q.old.len() < half {
                        q.old.push_back(id);
                    } else {
                        q.new.push_back(id);
                    }
                }
            }
            self.fetchq.pop_front();
            debug_assert_eq!(id, self.next_rob_id());
            self.rob.push_back(Slot {
                instr,
                state: State::InQueue,
                issue_cycle: 0,
                done_cycle: u64::MAX,
                ready_at: NOT_READY,
                in_queue: true,
            });
            if instr.kind.is_mem() {
                self.lsq_count += 1;
            }
            self.acted = true;
        }
        self.dispatch_stall = stalled;
    }

    fn next_rob_id(&self) -> u64 {
        self.rob_base + self.rob.len() as u64
    }

    // ---- Stage 6: fetch.
    fn fetch(&mut self) {
        self.fetch_stalled = self.fetch_stall
            && (self.redirect_branch.is_some() || self.cycle < self.fetch_resume_at);
        if self.fetch_stalled {
            return;
        }
        if self.fetch_stall {
            self.fetch_stall = false;
            self.acted = true;
        }
        for _ in 0..self.fe_width {
            if self.fetchq.len() >= 32 || self.trace_done {
                break;
            }
            self.acted = true;
            let Some(instr) = self.trace.next() else {
                self.trace_done = true;
                break;
            };
            let id = self.next_id;
            self.next_id += 1;
            self.fetchq.push_back((id, instr));
            if instr.kind == InstrKind::Branch && instr.mispredict {
                self.stats.mispredicts += 1;
                self.redirect_branch = Some(id);
                self.fetch_stall = true;
                self.fetch_resume_at = u64::MAX;
                break;
            }
        }
    }

    fn part(&self, part: QueuePart) -> &VecDeque<u64> {
        match part {
            QueuePart::IntOld => &self.intq.old,
            QueuePart::IntNew => &self.intq.new,
            QueuePart::FpOld => &self.fpq.old,
            QueuePart::FpNew => &self.fpq.new,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum QueuePart {
    IntOld,
    IntNew,
    FpOld,
    FpNew,
}

fn kind_usage(kind: InstrKind) -> Resources {
    let mut r = Resources::zero();
    match kind {
        InstrKind::IntAlu | InstrKind::Branch => {
            r.int_alu = 1;
            r.int_width = 1;
        }
        InstrKind::IntMul => {
            r.int_mul = 1;
            r.int_width = 1;
        }
        InstrKind::Load | InstrKind::Store => {
            r.mem_ports = 1;
            r.int_width = 1;
        }
        InstrKind::FpAdd => {
            r.fp_add = 1;
            r.fp_width = 1;
        }
        InstrKind::FpMul => {
            r.fp_mul = 1;
            r.fp_width = 1;
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_workloads::{BenchmarkProfile, TraceGenerator};

    /// The per-cycle reference: [`simulate`] with every cycle stepped.
    fn simulate_per_cycle(
        cfg: &SimConfig,
        core: &CoreConfig,
        trace: impl IntoIterator<Item = TraceInstr>,
        n_instr: u64,
    ) -> SimResult {
        core.validate();
        Engine::new(cfg, core, trace.into_iter()).run::<false>(n_instr)
    }

    /// Both paths over `trace`; they must agree on every field.
    fn assert_same(cfg: &SimConfig, core: &CoreConfig, trace: &[TraceInstr], n_instr: u64) {
        let fast = simulate(cfg, core, trace.iter().copied(), n_instr);
        let slow = simulate_per_cycle(cfg, core, trace.iter().copied(), n_instr);
        assert_eq!(
            fast, slow,
            "{:?} at mem latency {} on {core:?}, {n_instr} instructions",
            cfg.policy, cfg.mem_latency
        );
    }

    /// Whole-`SimResult` equality against per-cycle stepping over every
    /// core configuration, area halvings 0–5 (Figure 9's nodes are at 0,
    /// 1, 3 and 5) and two run lengths,
    /// on a memory-bound, a branchy, two fp and a balanced benchmark.
    /// `art` is the one benchmark of the 23 on which a skip past a due
    /// miss detection changes the result.
    fn skip_matches_per_cycle(policy: Policy) {
        let cores = CoreConfig::all_degraded();
        for name in ["mcf", "gcc", "swim", "art", "gzip"] {
            let prof = BenchmarkProfile::by_name(name).expect("known benchmark");
            for n_instr in [800, 3000] {
                // The trace outlasts the run, so the front end runs ahead
                // as it does in the figures.
                let trace: Vec<TraceInstr> =
                    TraceGenerator::new(&prof, 7).take(2 * n_instr).collect();
                for halvings in 0..=5 {
                    let cfg = SimConfig::paper(policy).scaled_to_halvings(halvings);
                    for core in &cores {
                        assert_same(&cfg, core, &trace, n_instr as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn skip_matches_per_cycle_baseline() {
        skip_matches_per_cycle(Policy::Baseline);
    }

    #[test]
    fn skip_matches_per_cycle_rescue() {
        skip_matches_per_cycle(Policy::Rescue);
    }

    #[test]
    fn replay_policies_skip_exactly() {
        let prof = BenchmarkProfile::by_name("art").expect("known benchmark");
        let trace: Vec<TraceInstr> = TraceGenerator::new(&prof, 3).take(6000).collect();
        for replay_policy in [ReplayPolicy::NewHalf, ReplayPolicy::LargerHalf] {
            let cfg = SimConfig {
                replay_policy,
                ..SimConfig::paper(Policy::Rescue).scaled_to_halvings(3)
            };
            assert_same(&cfg, &CoreConfig::healthy(), &trace, 3000);
        }
    }

    #[test]
    fn deadlock_panics_at_the_same_cycle_with_the_same_message() {
        // The first instruction depends on one five before the trace
        // starts, so it can never issue and nothing ever commits.
        let mut first = TraceInstr::simple_alu();
        first.src_deps = [Some(5), None];
        let trace = vec![first, TraceInstr::simple_alu()];
        let cfg = SimConfig::paper(Policy::Rescue);
        let message = |per_cycle: bool| {
            let trace = trace.clone();
            let cfg = cfg.clone();
            let payload = std::panic::catch_unwind(move || {
                let core = CoreConfig::healthy();
                if per_cycle {
                    simulate_per_cycle(&cfg, &core, trace, 10)
                } else {
                    simulate(&cfg, &core, trace, 10)
                }
            })
            .expect_err("a run that cannot commit must trip the watchdog");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("formatted panic message")
        };
        let expected = "simulator deadlock at cycle 1000000 (committed 0)";
        assert_eq!(message(false), expected);
        assert_eq!(message(true), expected);
    }

    #[test]
    fn empty_trace_matches_per_cycle() {
        for policy in [Policy::Baseline, Policy::Rescue] {
            let cfg = SimConfig::paper(policy);
            assert_same(&cfg, &CoreConfig::healthy(), &[], 1000);
            let r = simulate(&cfg, &CoreConfig::healthy(), Vec::new(), 1000);
            assert_eq!((r.cycles, r.committed, r.ipc_windows.count), (1, 0, 0));
        }
    }

    #[test]
    fn trace_ending_mid_window_matches_per_cycle() {
        // Every fifth instruction a load that misses to memory, with a
        // chain of four ALU ops behind it, so most of the run is idle and
        // the last window is partial.
        let trace: Vec<TraceInstr> = (0..1500)
            .map(|i| {
                if i % 5 == 0 {
                    TraceInstr {
                        kind: InstrKind::Load,
                        src_deps: [None, None],
                        mispredict: false,
                        l1_miss: true,
                        l2_miss: true,
                    }
                } else {
                    TraceInstr {
                        src_deps: [Some(1), None],
                        ..TraceInstr::simple_alu()
                    }
                }
            })
            .collect();
        for policy in [Policy::Baseline, Policy::Rescue] {
            let cfg = SimConfig::paper(policy).scaled_to_halvings(3);
            let core = CoreConfig::healthy();
            assert_same(&cfg, &core, &trace, 10_000);
            let r = simulate(&cfg, &core, trace.iter().copied(), 10_000);
            assert_eq!(r.committed, 1500);
            assert_ne!(r.cycles % IPC_WINDOW_CYCLES, 0, "run must end mid-window");
            assert_eq!(r.ipc_windows.count, r.cycles / IPC_WINDOW_CYCLES);
        }
    }
}
