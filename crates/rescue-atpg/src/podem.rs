//! PODEM test generation over the combinational capture view of a scanned
//! circuit.
//!
//! The capture view treats primary inputs and flip-flop outputs as free
//! variables (the tester controls both: pins directly, state through the
//! scan chain), and primary outputs plus flip-flop D inputs as observation
//! points (pins directly, captured state through scan-out). Pin
//! constraints model test-mode wiring — `scan_enable` is held at 0 during
//! capture.
//!
//! # Event-driven implication
//!
//! The engine runs two three-valued machines side by side, good and
//! faulty, over the packed gate order of [`Levelized`]. Each `generate`
//! call starts from a fault-free state computed once per engine (every
//! free variable X, the constraints implied), injects the fault as an
//! event, and from then on every decision or backtrack only re-writes
//! the free variables it changes. A change marks the fanout gates dirty;
//! dirty gates are evaluated in packed order, which is level-major, so
//! each gate is evaluated after every input that changed this step. A
//! backtrack re-propagates the released variables as X events instead of
//! undoing a trail: the net values are a pure function of the current
//! assignment, so both reach the same state.
//!
//! The D-frontier and the detection test are kept incrementally too: a
//! gate's frontier membership is re-checked whenever it is evaluated
//! (its inputs changed), and a counter holds how many observed nets
//! carry a difference. The frontier is a bitset keyed by the gate's rank
//! in [`Netlist::topo_order`], so the objective comes from the first
//! frontier gate in that order — the order the search has always used.

use rescue_netlist::{Driver, Fault, FaultSite, GateKind, Levelized, NetId, Netlist, V3};
use rescue_obs::metrics::{Counter, Histogram};
use std::borrow::Cow;

/// Tuning knobs for PODEM.
#[derive(Clone, Copy, Debug)]
pub struct PodemConfig {
    /// Abort a fault after this many backtracks.
    pub max_backtracks: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            max_backtracks: 300,
        }
    }
}

/// A generated test cube: required values for primary inputs and scanned
/// state; `X` entries are don't-cares free for random fill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestCube {
    /// One value per primary input.
    pub inputs: Vec<V3>,
    /// One value per flip-flop (state to scan in).
    pub state: Vec<V3>,
}

/// Outcome of test generation for one fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PodemResult {
    /// A test was found.
    Test(TestCube),
    /// The fault is provably untestable under the pin constraints
    /// (redundant logic or constrained-off).
    Untestable,
    /// The backtrack limit was exceeded.
    Aborted,
}

/// Live counters for one PODEM engine, aggregated across `generate`
/// calls. Updates are relaxed atomics, so `generate` keeps its `&self`
/// receiver and the counters cost ~1 ns each in the decision loop.
#[derive(Debug, Default)]
pub struct PodemStats {
    /// Faults targeted (total `generate` calls).
    pub faults_targeted: Counter,
    /// Calls that produced a test cube.
    pub tests_found: Counter,
    /// Calls that proved the fault untestable.
    pub untestable: Counter,
    /// Calls that hit the backtrack limit.
    pub aborted: Counter,
    /// Decision-stack pushes (branch decisions taken).
    pub decisions: Counter,
    /// Backtracks across all calls.
    pub backtracks: Counter,
    /// Gate evaluations (one per gate per machine pair) performed by
    /// implication, added once per call.
    pub gate_evals: Counter,
    /// Backtracks per fault (distribution over `generate` calls).
    pub backtracks_per_fault: Histogram,
}

/// PODEM engine bound to one netlist + pin-constraint set.
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    lev: Cow<'a, Levelized>,
    /// Per primary input: a fixed test-mode value, if constrained.
    constraints: Vec<Option<bool>>,
    /// SCOAP-style controllability costs per net.
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    /// Per packed position: the gate's rank in `Netlist::topo_order`.
    rank_of_pos: Vec<u32>,
    /// Per topological rank: the gate's packed position.
    pos_of_rank: Vec<u32>,
    /// Per internal net: whether a primary output or flip-flop D reads it.
    observed: Vec<bool>,
    /// Fault-free values with every free variable X and the constraints
    /// implied, internal net order: the state every search starts from.
    base: Vec<V3>,
    config: PodemConfig,
    stats: PodemStats,
}

/// A decision-stack entry: (free net, current value, both values tried).
type Decision = (NetId, bool, bool);

/// Incremental simulation state for one `generate` call. Net values are
/// in [`Levelized`] internal net order.
struct Machine {
    good: Vec<V3>,
    bad: Vec<V3>,
    /// The stuck value of the target fault.
    stuck: V3,
    /// The good value that activates the fault.
    want_activation: bool,
    /// Input or flip-flop Q net carrying a stem fault.
    stem: Option<usize>,
    /// Packed position of the gate whose output net carries the fault.
    out_fault: Option<u32>,
    /// Packed position and pin of a gate-input fault.
    pin_fault: Option<(u32, usize)>,
    /// Gates awaiting evaluation, bitset over packed positions.
    dirty: Vec<u64>,
    /// Lowest and highest word of `dirty` that may hold a set bit.
    dirty_lo: usize,
    dirty_hi: usize,
    /// D-frontier, bitset over topological ranks.
    frontier: Vec<u64>,
    /// Observed nets holding a difference; the fault is detected when
    /// this is nonzero.
    observed_diffs: u32,
    /// Gate evaluations this call.
    evals: u64,
    gbuf: Vec<V3>,
    bbuf: Vec<V3>,
}

/// Whether a good/faulty value pair is a difference (D or D̄).
#[inline]
fn is_diff(g: V3, b: V3) -> bool {
    g != V3::X && b != V3::X && g != b
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    let mask = 1u64 << (i % 64);
    if on {
        bits[i / 64] |= mask;
    } else {
        bits[i / 64] &= !mask;
    }
}

fn first_bit(bits: &[u64]) -> Option<usize> {
    bits.iter()
        .position(|&w| w != 0)
        .map(|w| w * 64 + bits[w].trailing_zeros() as usize)
}

const INF: u32 = u32::MAX / 4;

impl<'a> Podem<'a> {
    /// Create an engine. `constraints` has one entry per primary input
    /// (use `None` for free pins).
    pub fn new(netlist: &'a Netlist, constraints: Vec<Option<bool>>, config: PodemConfig) -> Self {
        Self::build(
            netlist,
            Cow::Owned(Levelized::new(netlist)),
            constraints,
            config,
        )
    }

    /// [`Podem::new`] over a levelized view the caller already holds;
    /// `lev` must be `Levelized::new(netlist)`.
    pub(crate) fn with_levelized(
        netlist: &'a Netlist,
        lev: &'a Levelized,
        constraints: Vec<Option<bool>>,
        config: PodemConfig,
    ) -> Self {
        Self::build(netlist, Cow::Borrowed(lev), constraints, config)
    }

    fn build(
        netlist: &'a Netlist,
        lev: Cow<'a, Levelized>,
        constraints: Vec<Option<bool>>,
        config: PodemConfig,
    ) -> Self {
        assert_eq!(constraints.len(), netlist.inputs().len());
        assert_eq!(lev.num_gates(), netlist.num_gates());
        let (cc0, cc1) = scoap(netlist, &constraints);
        let pos_of_rank: Vec<u32> = netlist
            .topo_order()
            .iter()
            .map(|&g| lev.pos_of(g))
            .collect();
        let mut rank_of_pos = vec![0u32; pos_of_rank.len()];
        for (rank, &pos) in pos_of_rank.iter().enumerate() {
            rank_of_pos[pos as usize] = rank as u32;
        }
        let observed = (0..lev.num_nets())
            .map(|ni| !lev.fanout_outputs(ni).is_empty() || !lev.fanout_dffs(ni).is_empty())
            .collect();
        let mut base = vec![V3::X; lev.num_nets()];
        for (&ni, c) in lev.input_nets().iter().zip(&constraints) {
            if let Some(c) = *c {
                base[ni as usize] = V3::from_bool(c);
            }
        }
        let mut buf = Vec::with_capacity(lev.max_fanin());
        for pos in 0..lev.num_gates() as u32 {
            buf.clear();
            buf.extend(lev.inputs(pos).iter().map(|&i| base[i as usize]));
            base[lev.out_net(pos) as usize] = lev.kind(pos).eval_v3(&buf);
        }
        Podem {
            netlist,
            lev,
            constraints,
            cc0,
            cc1,
            rank_of_pos,
            pos_of_rank,
            observed,
            base,
            config,
            stats: PodemStats::default(),
        }
    }

    /// Counters aggregated across every `generate` call on this engine.
    pub fn stats(&self) -> &PodemStats {
        &self.stats
    }

    /// Generate a test for `fault`.
    pub fn generate(&self, fault: Fault) -> PodemResult {
        self.stats.faults_targeted.inc();
        let mut backtracks = 0usize;
        let mut m = self.machine(fault);
        let result = self.search(&mut m, fault, &mut backtracks, |_, _| {});
        self.stats.gate_evals.add(m.evals);
        self.stats.backtracks_per_fault.record(backtracks as u64);
        match &result {
            PodemResult::Test(_) => self.stats.tests_found.inc(),
            PodemResult::Untestable => self.stats.untestable.inc(),
            PodemResult::Aborted => self.stats.aborted.inc(),
        }
        result
    }

    /// The base state with `fault` injected and implied.
    fn machine(&self, fault: Fault) -> Machine {
        let lev = &*self.lev;
        let words = lev.num_gates().div_ceil(64);
        let mut m = Machine {
            good: self.base.clone(),
            bad: self.base.clone(),
            stuck: V3::from_bool(fault.stuck_at.is_one()),
            want_activation: !fault.stuck_at.is_one(),
            stem: None,
            out_fault: None,
            pin_fault: None,
            dirty: vec![0; words],
            dirty_lo: usize::MAX,
            dirty_hi: 0,
            frontier: vec![0; words],
            observed_diffs: 0,
            evals: 0,
            gbuf: Vec::with_capacity(lev.max_fanin()),
            bbuf: Vec::with_capacity(lev.max_fanin()),
        };
        match fault.site {
            FaultSite::Net(site) => match self.netlist.net_driver(site) {
                Driver::Gate(g) => {
                    let pos = lev.pos_of(g);
                    m.out_fault = Some(pos);
                    m.mark(pos);
                }
                Driver::Input(_) | Driver::Dff(_) => {
                    let ni = lev.new_net(site.index());
                    let (g, stuck) = (m.good[ni], m.stuck);
                    m.stem = Some(ni);
                    self.write(&mut m, ni, g, stuck);
                }
            },
            FaultSite::GateInput(g, pin) => {
                let pos = lev.pos_of(g);
                m.pin_fault = Some((pos, pin as usize));
                m.mark(pos);
            }
        }
        self.propagate(&mut m);
        m
    }

    /// The PODEM decision loop over an injected machine. `on_step` sees
    /// the implied state after injection and after every decision and
    /// backtrack.
    fn search(
        &self,
        m: &mut Machine,
        fault: Fault,
        backtracks: &mut usize,
        mut on_step: impl FnMut(&Machine, &[Decision]),
    ) -> PodemResult {
        let mut stack: Vec<Decision> = Vec::new();
        loop {
            on_step(m, &stack);
            if m.observed_diffs > 0 {
                return PodemResult::Test(self.extract_cube(m));
            }

            let objective = self.pick_objective(m, fault);
            let next = match objective {
                Some(obj) => self.backtrace(m, obj),
                None => None,
            };

            match next {
                Some((net, value)) => {
                    self.stats.decisions.inc();
                    stack.push((net, value, false));
                    self.assign(m, net, V3::from_bool(value));
                }
                None => {
                    // Dead end: backtrack.
                    loop {
                        match stack.pop() {
                            None => return PodemResult::Untestable,
                            Some((net, _, true)) => self.assign(m, net, V3::X),
                            Some((net, v, false)) => {
                                *backtracks += 1;
                                self.stats.backtracks.inc();
                                if *backtracks > self.config.max_backtracks {
                                    return PodemResult::Aborted;
                                }
                                stack.push((net, !v, true));
                                self.assign(m, net, V3::from_bool(!v));
                                break;
                            }
                        }
                    }
                }
            }
            self.propagate(m);
        }
    }

    /// Set a free variable (primary input or flip-flop Q) to `v`; the
    /// faulty machine keeps a stem fault's stuck value.
    fn assign(&self, m: &mut Machine, net: NetId, v: V3) {
        let ni = self.lev.new_net(net.index());
        let b = if m.stem == Some(ni) { m.stuck } else { v };
        self.write(m, ni, v, b);
    }

    /// Store a net's good/faulty pair, keep the detection count, and
    /// mark the readers dirty if the pair changed.
    fn write(&self, m: &mut Machine, ni: usize, g: V3, b: V3) {
        let (og, ob) = (m.good[ni], m.bad[ni]);
        if og == g && ob == b {
            return;
        }
        if self.observed[ni] {
            m.observed_diffs =
                m.observed_diffs + u32::from(is_diff(g, b)) - u32::from(is_diff(og, ob));
        }
        m.good[ni] = g;
        m.bad[ni] = b;
        for &pos in self.lev.fanout(ni) {
            m.mark(pos);
        }
    }

    /// Evaluate dirty gates in packed (level-major) order until none is
    /// left. A gate only marks readers at higher levels, so one forward
    /// pass suffices.
    fn propagate(&self, m: &mut Machine) {
        let mut w = m.dirty_lo;
        while w <= m.dirty_hi {
            while m.dirty[w] != 0 {
                let bit = m.dirty[w].trailing_zeros() as usize;
                m.dirty[w] &= m.dirty[w] - 1;
                self.eval(m, (w * 64 + bit) as u32);
            }
            w += 1;
        }
        m.dirty_lo = usize::MAX;
        m.dirty_hi = 0;
    }

    /// Evaluate one gate in both machines and re-check its D-frontier
    /// membership.
    fn eval(&self, m: &mut Machine, pos: u32) {
        let lev = &*self.lev;
        m.evals += 1;
        m.gbuf.clear();
        m.bbuf.clear();
        let mut has_d_input = false;
        let mut has_x_input = false;
        for &i in lev.inputs(pos) {
            let (g, b) = (m.good[i as usize], m.bad[i as usize]);
            m.gbuf.push(g);
            m.bbuf.push(b);
            has_d_input |= is_diff(g, b);
            has_x_input |= g == V3::X;
        }
        if let Some((fp, pin)) = m.pin_fault {
            if fp == pos {
                m.bbuf[pin] = m.stuck;
                // A pin fault creates its difference on the pin itself,
                // which net values cannot show: the faulty gate joins
                // the D-frontier as soon as the good machine drives the
                // pin opposite to the stuck value.
                if m.gbuf[pin].to_bool() == Some(m.want_activation) {
                    has_d_input = true;
                }
            }
        }
        let kind = lev.kind(pos);
        let g = kind.eval_v3(&m.gbuf);
        let b = if m.out_fault == Some(pos) {
            m.stuck
        } else {
            kind.eval_v3(&m.bbuf)
        };
        self.write(m, lev.out_net(pos) as usize, g, b);
        let member = has_d_input && has_x_input && !is_diff(g, b);
        set_bit(
            &mut m.frontier,
            self.rank_of_pos[pos as usize] as usize,
            member,
        );
    }

    fn good(&self, m: &Machine, net: NetId) -> V3 {
        m.good[self.lev.new_net(net.index())]
    }

    /// PODEM objective: activate the fault, then advance the D-frontier.
    fn pick_objective(&self, m: &Machine, fault: Fault) -> Option<(NetId, bool)> {
        let lev = &*self.lev;
        let want_activation = m.want_activation;
        // Activation net: the node the good machine must drive opposite
        // to the stuck value.
        let act_net = match fault.site {
            FaultSite::Net(net) => net,
            FaultSite::GateInput(g, pin) => self.netlist.gate(g).inputs()[pin as usize],
        };
        match self.good(m, act_net) {
            V3::X => return Some((act_net, want_activation)),
            v => {
                if v.to_bool() != Some(want_activation) {
                    // Good machine drives the stuck value: no difference can
                    // ever exist under the current assignments.
                    return None;
                }
            }
        }

        // D-frontier: gates with a difference on an input, an
        // undetermined output difference and an X input. Take the first
        // in topological order; the objective is its first X input at
        // the gate's non-controlling value.
        let pos = self.pos_of_rank[first_bit(&m.frontier)?];
        let inputs = lev.inputs(pos);
        let (pin, &i) = inputs
            .iter()
            .enumerate()
            .find(|&(_, &i)| m.good[i as usize] == V3::X)
            .expect("frontier gates have an X input");
        let value = match lev.kind(pos) {
            GateKind::Mux if pin == 0 => {
                // Select the leg carrying the difference.
                let a = inputs[1] as usize;
                !is_diff(m.good[a], m.bad[a])
            }
            k => match k.controlling_value() {
                Some(c) => !c,
                None => false,
            },
        };
        Some((NetId::from_index(lev.old_net(i as usize)), value))
    }

    /// Backtrace an objective to an unassigned free input, picking the
    /// cheaper (SCOAP) branch at each controlled gate.
    fn backtrace(&self, m: &Machine, obj: (NetId, bool)) -> Option<(NetId, bool)> {
        let n = self.netlist;
        let (mut net, mut value) = obj;
        loop {
            match n.net_driver(net) {
                Driver::Input(idx) => {
                    if self.constraints[idx as usize].is_some() {
                        return None; // constrained pin cannot be decided
                    }
                    return Some((net, value));
                }
                Driver::Dff(_) => return Some((net, value)),
                Driver::Gate(g) => {
                    let gate = n.gate(g);
                    let kind = gate.kind();
                    match kind {
                        GateKind::Const0 | GateKind::Const1 => return None,
                        GateKind::Buf => {
                            net = gate.inputs()[0];
                        }
                        GateKind::Not => {
                            net = gate.inputs()[0];
                            value = !value;
                        }
                        GateKind::Mux => {
                            // Prefer steering through the select if free,
                            // else through a free data leg.
                            let sel = gate.inputs()[0];
                            let a = gate.inputs()[1];
                            let b = gate.inputs()[2];
                            match self.good(m, sel) {
                                V3::Zero => net = a,
                                V3::One => net = b,
                                V3::X => {
                                    // Choose the leg whose controllability
                                    // for `value` is cheaper, then set the
                                    // select accordingly... backtracing the
                                    // select itself is the decision.
                                    let cost_a = self.cost(a, value);
                                    let cost_b = self.cost(b, value);
                                    let pick_b = cost_b < cost_a;
                                    net = sel;
                                    value = pick_b;
                                }
                            }
                        }
                        GateKind::Xor | GateKind::Xnor => {
                            // Pick the first X input; required value depends
                            // on the others, which may be X — choose the
                            // cheaper polarity.
                            let x_in = gate
                                .inputs()
                                .iter()
                                .copied()
                                .find(|&i| self.good(m, i) == V3::X)?;
                            let v0 = self.cost(x_in, false);
                            let v1 = self.cost(x_in, true);
                            net = x_in;
                            value = v1 < v0;
                        }
                        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                            let c = kind.controlling_value().expect("controlled gate");
                            let inv = kind.inverts();
                            let needed = if inv { !value } else { value };
                            // needed == c-controlled output (c AND-like -> 0)?
                            // For AND: output 0 needs one input 0 (easy pick);
                            // output 1 needs all inputs 1 (pick hardest X).
                            let want_controlling = needed == c;
                            let xs = gate
                                .inputs()
                                .iter()
                                .copied()
                                .filter(|&i| self.good(m, i) == V3::X);
                            let target = if want_controlling {
                                xs.min_by_key(|&i| self.cost(i, c))?
                            } else {
                                xs.max_by_key(|&i| self.cost(i, !c))?
                            };
                            net = target;
                            value = if want_controlling { c } else { !c };
                        }
                    }
                }
            }
        }
    }

    fn cost(&self, net: NetId, value: bool) -> u32 {
        if value {
            self.cc1[net.index()]
        } else {
            self.cc0[net.index()]
        }
    }

    /// The cube of the current assignment: a free variable's good value
    /// is exactly its assignment.
    fn extract_cube(&self, m: &Machine) -> TestCube {
        let n = self.netlist;
        let inputs = n.inputs().iter().map(|&net| self.good(m, net)).collect();
        let state = n.dffs().iter().map(|d| self.good(m, d.q())).collect();
        TestCube { inputs, state }
    }

    /// The pin constraints this engine applies during capture.
    pub fn constraints(&self) -> &[Option<bool>] {
        &self.constraints
    }
}

impl Machine {
    /// Queue the gate at packed position `pos` for evaluation.
    #[inline]
    fn mark(&mut self, pos: u32) {
        let w = pos as usize / 64;
        self.dirty[w] |= 1u64 << (pos % 64);
        self.dirty_lo = self.dirty_lo.min(w);
        self.dirty_hi = self.dirty_hi.max(w);
    }
}

/// SCOAP combinational controllability (cost to set each net to 0 / 1,
/// indexed by [`NetId`]) under pin constraints: the costs PODEM's
/// backtrace steers by.
pub fn scoap(netlist: &Netlist, constraints: &[Option<bool>]) -> (Vec<u32>, Vec<u32>) {
    let mut cc0 = vec![INF; netlist.num_nets()];
    let mut cc1 = vec![INF; netlist.num_nets()];
    for (i, &net) in netlist.inputs().iter().enumerate() {
        match constraints[i] {
            Some(false) => {
                cc0[net.index()] = 0;
            }
            Some(true) => {
                cc1[net.index()] = 0;
            }
            None => {
                cc0[net.index()] = 1;
                cc1[net.index()] = 1;
            }
        }
    }
    for d in netlist.dffs() {
        cc0[d.q().index()] = 1;
        cc1[d.q().index()] = 1;
    }
    for &gid in netlist.topo_order() {
        let g = netlist.gate(gid);
        let out = g.output().index();
        let i0 = |n: NetId| cc0[n.index()];
        let i1 = |n: NetId| cc1[n.index()];
        let sum = |vals: Vec<u32>| -> u32 {
            vals.iter()
                .fold(0u32, |a, &b| a.saturating_add(b))
                .saturating_add(1)
        };
        let min1 =
            |vals: Vec<u32>| -> u32 { vals.into_iter().min().unwrap_or(INF).saturating_add(1) };
        let (c0, c1) = match g.kind() {
            GateKind::Const0 => (0, INF),
            GateKind::Const1 => (INF, 0),
            GateKind::Buf => (i0(g.inputs()[0]) + 1, i1(g.inputs()[0]) + 1),
            GateKind::Not => (i1(g.inputs()[0]) + 1, i0(g.inputs()[0]) + 1),
            GateKind::And => (
                min1(g.inputs().iter().map(|&n| i0(n)).collect()),
                sum(g.inputs().iter().map(|&n| i1(n)).collect()),
            ),
            GateKind::Nand => (
                sum(g.inputs().iter().map(|&n| i1(n)).collect()),
                min1(g.inputs().iter().map(|&n| i0(n)).collect()),
            ),
            GateKind::Or => (
                sum(g.inputs().iter().map(|&n| i0(n)).collect()),
                min1(g.inputs().iter().map(|&n| i1(n)).collect()),
            ),
            GateKind::Nor => (
                min1(g.inputs().iter().map(|&n| i1(n)).collect()),
                sum(g.inputs().iter().map(|&n| i0(n)).collect()),
            ),
            GateKind::Xor | GateKind::Xnor => {
                // Two-input approximation extended pairwise.
                let mut a0 = i0(g.inputs()[0]);
                let mut a1 = i1(g.inputs()[0]);
                for &n in &g.inputs()[1..] {
                    let b0 = i0(n);
                    let b1 = i1(n);
                    let x0 = (a0.saturating_add(b0)).min(a1.saturating_add(b1));
                    let x1 = (a0.saturating_add(b1)).min(a1.saturating_add(b0));
                    a0 = x0;
                    a1 = x1;
                }
                if g.kind() == GateKind::Xor {
                    (a0.saturating_add(1), a1.saturating_add(1))
                } else {
                    (a1.saturating_add(1), a0.saturating_add(1))
                }
            }
            GateKind::Mux => {
                let s = g.inputs()[0];
                let a = g.inputs()[1];
                let b = g.inputs()[2];
                let c0 = (i0(s).saturating_add(i0(a)))
                    .min(i1(s).saturating_add(i0(b)))
                    .saturating_add(1);
                let c1 = (i0(s).saturating_add(i1(a)))
                    .min(i1(s).saturating_add(i1(b)))
                    .saturating_add(1);
                (c0, c1)
            }
        };
        cc0[out] = c0;
        cc1[out] = c1;
    }
    (cc0, cc1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{GateId, NetlistBuilder, StuckAt};

    fn and_circuit() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        b.output(x, "o");
        b.finish().unwrap()
    }

    #[test]
    fn generates_test_for_and_sa0() {
        let n = and_circuit();
        let p = Podem::new(&n, vec![None, None], PodemConfig::default());
        let out_net = n.outputs()[0].1;
        match p.generate(Fault::net(out_net, StuckAt::Zero)) {
            PodemResult::Test(cube) => {
                // Detecting output sa0 requires both inputs at 1.
                assert_eq!(cube.inputs, vec![V3::One, V3::One]);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn generates_test_for_pin_fault() {
        let n = and_circuit();
        let p = Podem::new(&n, vec![None, None], PodemConfig::default());
        let g = rescue_netlist::GateId::from_index(0);
        match p.generate(Fault::pin(g, 0, StuckAt::One)) {
            PodemResult::Test(cube) => {
                // a must be 0 (activate), b must be 1 (propagate).
                assert_eq!(cube.inputs, vec![V3::Zero, V3::One]);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn redundant_fault_is_untestable() {
        // x = a AND !a is constant 0; sa0 at x is undetectable.
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let na = b.not(a);
        let x = b.and2(a, na);
        b.output(x, "o");
        let n = b.finish().unwrap();
        let p = Podem::new(&n, vec![None], PodemConfig::default());
        let out_net = n.outputs()[0].1;
        assert_eq!(
            p.generate(Fault::net(out_net, StuckAt::Zero)),
            PodemResult::Untestable
        );
        // sa1 IS testable (any input value shows the difference).
        assert!(matches!(
            p.generate(Fault::net(out_net, StuckAt::One)),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn constrained_pin_blocks_activation() {
        // With b constrained to 0, an AND output sa0 cannot be activated.
        let n = and_circuit();
        let p = Podem::new(&n, vec![None, Some(false)], PodemConfig::default());
        let out_net = n.outputs()[0].1;
        assert_eq!(
            p.generate(Fault::net(out_net, StuckAt::Zero)),
            PodemResult::Untestable
        );
    }

    #[test]
    fn state_is_controllable_and_observable() {
        // q -> NOT -> d of another flop: test a fault between two flops.
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let q0 = b.dff(a, "r0");
        let inv = b.not(q0);
        let _q1 = b.dff(inv, "r1");
        let n = b.finish().unwrap();
        let p = Podem::new(&n, vec![None], PodemConfig::default());
        match p.generate(Fault::net(inv, StuckAt::One)) {
            PodemResult::Test(cube) => {
                // r0 must hold 1 so the inverter output is 0 (difference).
                assert_eq!(cube.state[0], V3::One);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    /// Full re-simulation of both machines from the decision stack:
    /// every gate in topological order, good and faulty values indexed
    /// by `NetId`. Test-only: the engine never sweeps the whole design.
    fn full_sweep(p: &Podem, stack: &[Decision], fault: Fault) -> (Vec<V3>, Vec<V3>) {
        let n = p.netlist;
        let stuck = V3::from_bool(fault.stuck_at.is_one());
        let mut good = vec![V3::X; n.num_nets()];
        for (i, &net) in n.inputs().iter().enumerate() {
            if let Some(c) = p.constraints[i] {
                good[net.index()] = V3::from_bool(c);
            }
        }
        for &(net, v, _) in stack {
            good[net.index()] = V3::from_bool(v);
        }
        let mut bad = good.clone();
        if let FaultSite::Net(site) = fault.site {
            if !matches!(n.net_driver(site), Driver::Gate(_)) {
                bad[site.index()] = stuck;
            }
        }
        for &gid in n.topo_order() {
            let gate = n.gate(gid);
            let gv: Vec<V3> = gate.inputs().iter().map(|i| good[i.index()]).collect();
            let mut bv: Vec<V3> = gate.inputs().iter().map(|i| bad[i.index()]).collect();
            if let FaultSite::GateInput(fg, pin) = fault.site {
                if fg == gid {
                    bv[pin as usize] = stuck;
                }
            }
            let out = gate.output().index();
            good[out] = gate.kind().eval_v3(&gv);
            bad[out] = if fault.site == FaultSite::Net(gate.output()) {
                stuck
            } else {
                gate.kind().eval_v3(&bv)
            };
        }
        (good, bad)
    }

    /// Run PODEM on `fault`, asserting after injection and after every
    /// decision and backtrack that the incremental values, D-frontier
    /// and detection count equal a full re-simulation. Returns the
    /// result and the number of states checked.
    fn check_incremental(p: &Podem, fault: Fault) -> (PodemResult, usize) {
        let n = p.netlist;
        let lev = &*p.lev;
        let want = !fault.stuck_at.is_one();
        let mut steps = 0;
        let mut m = p.machine(fault);
        let result = p.search(&mut m, fault, &mut 0, |m, stack| {
            steps += 1;
            let (good, bad) = full_sweep(p, stack, fault);
            for old in 0..n.num_nets() {
                let ni = lev.new_net(old);
                assert_eq!(
                    (m.good[ni], m.bad[ni]),
                    (good[old], bad[old]),
                    "{fault}: net {} after {} decisions",
                    n.net_name(NetId::from_index(old)),
                    stack.len()
                );
            }
            let diff = |i: NetId| is_diff(good[i.index()], bad[i.index()]);
            for (rank, &gid) in n.topo_order().iter().enumerate() {
                let gate = n.gate(gid);
                let pin_d = matches!(fault.site, FaultSite::GateInput(fg, pin)
                    if fg == gid && good[gate.inputs()[pin as usize].index()].to_bool() == Some(want));
                let member = !diff(gate.output())
                    && (pin_d || gate.inputs().iter().any(|&i| diff(i)))
                    && gate.inputs().iter().any(|i| good[i.index()] == V3::X);
                let bit = m.frontier[rank / 64] >> (rank % 64) & 1 == 1;
                assert_eq!(bit, member, "{fault}: frontier membership of gate {rank}");
            }
            let detected = n.outputs().iter().any(|&(_, net)| diff(net))
                || n.dffs().iter().any(|d| diff(d.d()));
            assert_eq!(m.observed_diffs > 0, detected, "{fault}: detection");
        });
        assert_eq!(result, p.generate(fault), "{fault}: checked run diverged");
        (result, steps)
    }

    /// Random two-component DAG circuits shaped like the `atpg_props`
    /// suite's: four inputs, 2–23 gates, two observed flip-flops.
    fn random_circuit(rng: &mut rescue_obs::SplitMix64) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc0");
        let mut nets: Vec<NetId> = (0..4).map(|i| b.input(&format!("i{i}"))).collect();
        let len = 2 + rng.below(22);
        for k in 0..len {
            if k == len / 2 {
                b.enter_component("lc1");
            }
            let (kind, a, c) = (rng.below(7), rng.below(nets.len()), rng.below(nets.len()));
            let (x, y) = (nets[a], nets[c]);
            let out = match kind {
                0 => b.and2(x, y),
                1 => b.or2(x, y),
                2 => b.xor2(x, y),
                3 => b.nand2(x, y),
                4 => b.nor2(x, y),
                5 => b.not(x),
                _ => b.mux(nets[(a + 1) % nets.len()], x, y),
            };
            nets.push(out);
        }
        let tail = nets.len();
        let q0 = b.dff(nets[tail - 1], "q0");
        b.output(q0, "o0");
        let q1 = b.dff(nets[tail - 2], "q1");
        b.output(q1, "o1");
        b.finish().unwrap()
    }

    #[test]
    fn incremental_state_matches_full_resimulation_on_random_circuits() {
        let mut rng = rescue_obs::SplitMix64::new(0xa791);
        let mut steps = 0;
        for _ in 0..64 {
            let n = random_circuit(&mut rng);
            let p = Podem::new(&n, vec![None; n.inputs().len()], PodemConfig::default());
            for fault in n.enumerate_faults() {
                steps += check_incremental(&p, fault).1;
            }
        }
        assert!(steps > 1000, "only {steps} states checked");
    }

    #[test]
    fn incremental_state_matches_full_resimulation_on_quick_designs() {
        use rescue_model::{build_pipeline, ModelParams, Variant};
        for variant in [Variant::Baseline, Variant::Rescue] {
            let model = build_pipeline(&ModelParams::tiny(), variant);
            let scanned = rescue_netlist::scan::insert_scan(&model.netlist).unwrap();
            let atpg = crate::Atpg::new(&scanned, crate::AtpgConfig::default()).unwrap();
            let p = Podem::new(
                &scanned.netlist,
                atpg.capture_constraints(),
                PodemConfig::default(),
            );
            // Every 16th targetable fault keeps the full re-simulations
            // affordable while still reaching aborted searches.
            let faults: Vec<Fault> = scanned
                .netlist
                .collapse_faults()
                .into_iter()
                .filter(|&f| !atpg.is_chain_fault(f))
                .step_by(16)
                .collect();
            let mut seen = [0usize; 3];
            for f in faults {
                let kind = match check_incremental(&p, f).0 {
                    PodemResult::Test(_) => 0,
                    PodemResult::Untestable => 1,
                    PodemResult::Aborted => 2,
                };
                seen[kind] += 1;
            }
            assert!(
                seen.iter().all(|&k| k > 0),
                "{variant:?}: outcomes {seen:?}"
            );
        }
    }

    #[test]
    fn frontier_pick_follows_topo_order_not_packed_order() {
        // a fans out to two level-0 ANDs. `topo_order` pops its ready
        // stack last-in first, so it lists g1 before g0, while the
        // packed order sorts by (level, gate id): g0 first.
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let g0 = b.and2(a, x);
        let g1 = b.and2(a, y);
        b.output(g0, "o0");
        b.output(g1, "o1");
        let n = b.finish().unwrap();
        let p = Podem::new(&n, vec![None; 3], PodemConfig::default());
        let (id0, id1) = (GateId::from_index(0), GateId::from_index(1));
        assert_eq!(n.topo_order(), &[id1, id0]);
        assert_eq!((p.lev.gate_at(0), p.lev.gate_at(1)), (id0, id1));
        // a sa0: activation sets a = 1, putting both ANDs on the
        // frontier; the topologically first (g1) is sensitized via y.
        let (result, _) = check_incremental(&p, Fault::net(a, StuckAt::Zero));
        match result {
            PodemResult::Test(cube) => assert_eq!(cube.inputs, vec![V3::One, V3::X, V3::One]),
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn stem_pin_and_constrained_faults_stay_incremental() {
        // A scan-style capture cell: se selects between functional data
        // d (through an AND with the flop's own Q) and scan-in si.
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let se = b.input("se");
        let si = b.input("si");
        let d = b.input("d");
        let (q, fb) = b.dff_feedback("r");
        let func = b.and2(d, q);
        let cap = b.mux(se, func, si);
        b.connect_dff(fb, cap);
        b.output(q, "o");
        let n = b.finish().unwrap();
        let mux = GateId::from_index(1);
        assert_eq!(n.gate(mux).kind(), GateKind::Mux);
        let p = Podem::new(&n, vec![Some(false), None, None], PodemConfig::default());
        let cases = [
            // Stem fault on a primary input.
            (Fault::net(d, StuckAt::One), "test"),
            // Stem fault on a flip-flop Q.
            (Fault::net(q, StuckAt::Zero), "test"),
            // Pin fault on the mux select, and on the scan-in leg that
            // the constrained select never passes.
            (Fault::pin(mux, 0, StuckAt::One), "test"),
            (Fault::pin(mux, 2, StuckAt::One), "untestable"),
            // Stem faults on the constrained pin itself.
            (Fault::net(se, StuckAt::Zero), "untestable"),
            (Fault::net(se, StuckAt::One), "test"),
        ];
        for (fault, want) in cases {
            let got = match check_incremental(&p, fault).0 {
                PodemResult::Test(_) => "test",
                PodemResult::Untestable => "untestable",
                PodemResult::Aborted => "aborted",
            };
            assert_eq!(got, want, "{fault}");
        }
    }

    #[test]
    fn gate_evals_are_counted_once_per_call() {
        let n = and_circuit();
        let p = Podem::new(&n, vec![None, None], PodemConfig::default());
        let out_net = n.outputs()[0].1;
        p.generate(Fault::net(out_net, StuckAt::Zero));
        // Injection, a = 1, b = 1: the single gate is evaluated each time.
        assert_eq!(p.stats().gate_evals.get(), 3);
    }
}
