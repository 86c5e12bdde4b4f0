//! The naive reference PODEM, kept so the `podem` oracle can hold the
//! event-driven production engine ([`rescue_atpg::Podem`]) to it.
//!
//! Every step re-evaluates both machines over the whole netlist in
//! topological order, then rescans that order for the D-frontier and
//! every observation point for a difference. The search policy —
//! objectives, backtrace, backtrack budget and cube extraction — is the
//! production engine's, over the same SCOAP costs
//! ([`rescue_atpg::podem::scoap`]), so both must take the same
//! decisions, backtracks and cubes for every fault.

use rescue_atpg::podem::scoap;
use rescue_atpg::{PodemConfig, PodemResult, PodemStats, TestCube};
use rescue_netlist::{Driver, Fault, FaultSite, GateKind, NetId, Netlist, V3};

/// The full-sweep PODEM engine bound to one netlist + pin-constraint set.
#[derive(Debug)]
pub struct NaivePodem<'a> {
    netlist: &'a Netlist,
    /// Per primary input: a fixed test-mode value, if constrained.
    constraints: Vec<Option<bool>>,
    /// SCOAP-style controllability costs per net.
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    config: PodemConfig,
    stats: PodemStats,
}

/// Scratch simulation state for one `generate` call.
struct Machine {
    good: Vec<V3>,
    bad: Vec<V3>,
}

impl<'a> NaivePodem<'a> {
    /// Create an engine. `constraints` has one entry per primary input
    /// (use `None` for free pins).
    pub fn new(netlist: &'a Netlist, constraints: Vec<Option<bool>>, config: PodemConfig) -> Self {
        assert_eq!(constraints.len(), netlist.inputs().len());
        let (cc0, cc1) = scoap(netlist, &constraints);
        NaivePodem {
            netlist,
            constraints,
            cc0,
            cc1,
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
        let result = self.search(fault, &mut backtracks);
        self.stats.backtracks_per_fault.record(backtracks as u64);
        match &result {
            PodemResult::Test(_) => self.stats.tests_found.inc(),
            PodemResult::Untestable => self.stats.untestable.inc(),
            PodemResult::Aborted => self.stats.aborted.inc(),
        }
        result
    }

    fn search(&self, fault: Fault, backtracks: &mut usize) -> PodemResult {
        let n = self.netlist;
        let mut m = Machine {
            good: vec![V3::X; n.num_nets()],
            bad: vec![V3::X; n.num_nets()],
        };
        // Decision stack: (net, current value, tried_both).
        let mut stack: Vec<(NetId, bool, bool)> = Vec::new();
        // Current assignments to free-variable nets.
        let mut assign: Vec<V3> = vec![V3::X; n.num_nets()];

        loop {
            self.imply(&mut m, &assign, fault);

            if self.detected(&m) {
                return PodemResult::Test(self.extract_cube(&assign));
            }

            let objective = self.pick_objective(&m, fault);
            let next = match objective {
                Some(obj) => self.backtrace(&m, obj),
                None => None,
            };

            match next {
                Some((net, value)) => {
                    self.stats.decisions.inc();
                    stack.push((net, value, false));
                    assign[net.index()] = V3::from_bool(value);
                }
                None => {
                    // Dead end: backtrack.
                    loop {
                        match stack.pop() {
                            None => return PodemResult::Untestable,
                            Some((net, v, tried_both)) => {
                                assign[net.index()] = V3::X;
                                if !tried_both {
                                    *backtracks += 1;
                                    self.stats.backtracks.inc();
                                    if *backtracks > self.config.max_backtracks {
                                        return PodemResult::Aborted;
                                    }
                                    stack.push((net, !v, true));
                                    assign[net.index()] = V3::from_bool(!v);
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Forward-imply assignments through the circuit with the fault active
    /// in the bad machine.
    fn imply(&self, m: &mut Machine, assign: &[V3], fault: Fault) {
        let n = self.netlist;
        let stuck = V3::from_bool(fault.stuck_at.is_one());
        // Seed inputs and state.
        for (i, &net) in n.inputs().iter().enumerate() {
            let v = match self.constraints[i] {
                Some(c) => V3::from_bool(c),
                None => assign[net.index()],
            };
            m.good[net.index()] = v;
            m.bad[net.index()] = v;
        }
        for d in n.dffs() {
            let q = d.q();
            m.good[q.index()] = assign[q.index()];
            m.bad[q.index()] = assign[q.index()];
        }
        // Stem fault on an input/state net applies immediately.
        if let FaultSite::Net(site) = fault.site {
            if !matches!(n.net_driver(site), Driver::Gate(_)) {
                m.bad[site.index()] = stuck;
            }
        }
        // Evaluate gates in topological order.
        let mut gbuf: Vec<V3> = Vec::with_capacity(8);
        let mut bbuf: Vec<V3> = Vec::with_capacity(8);
        for &gid in n.topo_order() {
            let gate = n.gate(gid);
            gbuf.clear();
            bbuf.clear();
            for &inp in gate.inputs() {
                gbuf.push(m.good[inp.index()]);
                bbuf.push(m.bad[inp.index()]);
            }
            if let FaultSite::GateInput(fg, pin) = fault.site {
                if fg == gid {
                    bbuf[pin as usize] = stuck;
                }
            }
            let out = gate.output();
            m.good[out.index()] = gate.kind().eval_v3(&gbuf);
            let mut bv = gate.kind().eval_v3(&bbuf);
            if fault.site == FaultSite::Net(out) {
                bv = stuck;
            }
            m.bad[out.index()] = bv;
        }
    }

    /// Whether a difference (D or D̄) has reached an observation point.
    fn detected(&self, m: &Machine) -> bool {
        let n = self.netlist;
        let observed = |net: NetId| {
            let g = m.good[net.index()];
            let b = m.bad[net.index()];
            g != V3::X && b != V3::X && g != b
        };
        n.outputs().iter().any(|(_, net)| observed(*net))
            || n.dffs().iter().any(|d| observed(d.d()))
    }

    /// PODEM objective: activate the fault, then advance the D-frontier.
    fn pick_objective(&self, m: &Machine, fault: Fault) -> Option<(NetId, bool)> {
        let n = self.netlist;
        let want_activation = !fault.stuck_at.is_one();
        // Activation net: the node the good machine must drive opposite
        // to the stuck value.
        let act_net = match fault.site {
            FaultSite::Net(net) => net,
            FaultSite::GateInput(g, pin) => n.gate(g).inputs()[pin as usize],
        };
        match m.good[act_net.index()] {
            V3::X => return Some((act_net, want_activation)),
            v => {
                if v.to_bool() != Some(want_activation) {
                    // Good machine drives the stuck value: no difference can
                    // ever exist under the current assignments.
                    return None;
                }
            }
        }

        // D-frontier: gates with a difference on an input and an
        // undetermined output difference. Pick the first; objective is an
        // unassigned input at the gate's non-controlling value.
        for &gid in n.topo_order() {
            let gate = n.gate(gid);
            let out = gate.output();
            let out_g = m.good[out.index()];
            let out_b = m.bad[out.index()];
            let out_diff = out_g != V3::X && out_b != V3::X && out_g != out_b;
            if out_diff {
                continue;
            }
            let mut has_d_input = gate.inputs().iter().any(|&i| {
                let g = m.good[i.index()];
                let b = m.bad[i.index()];
                g != V3::X && b != V3::X && g != b
            });
            // A pin fault creates its difference on the pin itself, which
            // net values cannot show: the faulty gate joins the D-frontier
            // as soon as the good machine drives the pin opposite to the
            // stuck value.
            if let FaultSite::GateInput(fg, pin) = fault.site {
                if fg == gid {
                    let src = gate.inputs()[pin as usize];
                    if m.good[src.index()].to_bool() == Some(want_activation) {
                        has_d_input = true;
                    }
                }
            }
            if !has_d_input {
                continue;
            }
            // Find an X input to sensitize through.
            for (pin, &i) in gate.inputs().iter().enumerate() {
                if m.good[i.index()] == V3::X {
                    let value = match gate.kind() {
                        GateKind::Mux if pin == 0 => {
                            // Select the leg carrying the difference.
                            let a = gate.inputs()[1];
                            let da = m.good[a.index()] != m.bad[a.index()]
                                && m.good[a.index()] != V3::X
                                && m.bad[a.index()] != V3::X;
                            !da
                        }
                        k => match k.controlling_value() {
                            Some(c) => !c,
                            None => false,
                        },
                    };
                    return Some((i, value));
                }
            }
        }
        None
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
                            match m.good[sel.index()] {
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
                                .find(|i| m.good[i.index()] == V3::X)?;
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
                            let xs: Vec<NetId> = gate
                                .inputs()
                                .iter()
                                .copied()
                                .filter(|i| m.good[i.index()] == V3::X)
                                .collect();
                            if xs.is_empty() {
                                return None;
                            }
                            let target = if want_controlling {
                                *xs.iter()
                                    .min_by_key(|&&i| self.cost(i, c))
                                    .expect("nonempty")
                            } else {
                                *xs.iter()
                                    .max_by_key(|&&i| self.cost(i, !c))
                                    .expect("nonempty")
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

    fn extract_cube(&self, assign: &[V3]) -> TestCube {
        let n = self.netlist;
        let inputs = n
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &net)| match self.constraints[i] {
                Some(c) => V3::from_bool(c),
                None => assign[net.index()],
            })
            .collect();
        let state = n.dffs().iter().map(|d| assign[d.q().index()]).collect();
        TestCube { inputs, state }
    }
}
