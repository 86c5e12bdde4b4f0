//! SCOAP testability analysis (Goldstein 1979): combinational 0/1
//! controllability (CC0/CC1) and observability (CO) per net, plus
//! per-component aggregates.
//!
//! Conventions for the full-scan context this repo models:
//!
//! * Primary inputs and flip-flop Q outputs cost 1 to control to either
//!   value (state is freely loadable through the scan chain).
//! * Primary outputs and flip-flop D inputs cost 0 to observe (state is
//!   freely unloadable through the scan chain).
//! * Every gate traversal adds 1.
//! * Values saturate at [`SCOAP_INF`]; a CC1 of `SCOAP_INF` means "this
//!   net can never be driven to 1" (e.g. the output of a `const0`).
//!
//! The analysis needs a topological order of the gates, so it is
//! skipped (the linter stores `None`) when the netlist has structural
//! errors — loops, floating pins, bad arity — that make levelization
//! meaningless.

use crate::ir::LintNetlist;
use rescue_netlist::GateKind;
use rescue_obs::json::JsonObj;
use rescue_obs::metrics::HistogramSnapshot;

/// Saturation bound: any SCOAP value at or above this means
/// "unachievable" (the net cannot be controlled to that value, or
/// cannot be observed).
pub const SCOAP_INF: u64 = 1 << 40;

/// Saturating SCOAP addition.
fn sat(a: u64, b: u64) -> u64 {
    (a + b).min(SCOAP_INF)
}

/// Per-net SCOAP values plus per-component summaries.
#[derive(Clone, Debug)]
pub struct ScoapAnalysis {
    /// Cost to set each net to 0.
    pub cc0: Vec<u64>,
    /// Cost to set each net to 1.
    pub cc1: Vec<u64>,
    /// Cost to observe each net at an output or flip-flop D
    /// ([`SCOAP_INF`] when nothing observes it).
    pub co: Vec<u64>,
    /// One summary per ICI component, in component order.
    pub per_component: Vec<ComponentScoap>,
}

/// Aggregated testability of the nets driven by one component's gates.
#[derive(Clone, Debug)]
pub struct ComponentScoap {
    /// Component name.
    pub name: String,
    /// Distribution of finite CC0 values.
    pub cc0: HistogramSnapshot,
    /// Distribution of finite CC1 values.
    pub cc1: HistogramSnapshot,
    /// Distribution of finite CO values.
    pub co: HistogramSnapshot,
    /// Nets whose CO saturated (unobservable logic).
    pub unobservable: u64,
    /// Nets where CC0 or CC1 saturated (one value unreachable).
    pub uncontrollable: u64,
}

impl ScoapAnalysis {
    /// Compute SCOAP values over `lint`. `topo` is a topological order
    /// of gate indices (produced by the rule pass's levelization).
    pub fn compute(lint: &LintNetlist, topo: &[usize]) -> ScoapAnalysis {
        let n = lint.num_nets();
        let mut cc0 = vec![SCOAP_INF; n];
        let mut cc1 = vec![SCOAP_INF; n];

        // Controllability sources: primary inputs and scan-loadable Qs.
        for &i in &lint.inputs {
            cc0[i as usize] = 1;
            cc1[i as usize] = 1;
        }
        for f in &lint.dffs {
            cc0[f.q as usize] = 1;
            cc1[f.q as usize] = 1;
        }

        // Forward pass in topological order.
        for &gi in topo {
            let g = &lint.gates[gi];
            let ins: Vec<(u64, u64)> = g
                .inputs
                .iter()
                .map(|&i| (cc0[i as usize], cc1[i as usize]))
                .collect();
            let (c0, c1) = gate_cc(g.kind, &ins);
            let o = g.output as usize;
            cc0[o] = cc0[o].min(c0);
            cc1[o] = cc1[o].min(c1);
        }

        // Observability sinks: primary outputs and scan-unloadable Ds.
        let mut co = vec![SCOAP_INF; n];
        for (_, o) in &lint.outputs {
            co[*o as usize] = 0;
        }
        for f in &lint.dffs {
            co[f.d as usize] = 0;
        }

        // Backward pass: a gate's input is observable through the gate
        // if the output is observable and the side pins are held at
        // their non-controlling values.
        for &gi in topo.iter().rev() {
            let g = &lint.gates[gi];
            let co_out = co[g.output as usize];
            for (pin, &inp) in g.inputs.iter().enumerate() {
                let through = pin_co(g.kind, pin, &g.inputs, &cc0, &cc1);
                let cost = sat(sat(co_out, 1), through);
                let i = inp as usize;
                co[i] = co[i].min(cost);
            }
        }

        // Per-component aggregation over driven nets.
        let mut per_component: Vec<ComponentScoap> = lint
            .components
            .iter()
            .map(|name| ComponentScoap {
                name: name.clone(),
                cc0: HistogramSnapshot::default(),
                cc1: HistogramSnapshot::default(),
                co: HistogramSnapshot::default(),
                unobservable: 0,
                uncontrollable: 0,
            })
            .collect();
        for g in &lint.gates {
            let Some(comp) = per_component.get_mut(g.component as usize) else {
                continue;
            };
            let o = g.output as usize;
            if cc0[o] < SCOAP_INF {
                comp.cc0.record(cc0[o]);
            }
            if cc1[o] < SCOAP_INF {
                comp.cc1.record(cc1[o]);
            }
            if cc0[o] >= SCOAP_INF || cc1[o] >= SCOAP_INF {
                comp.uncontrollable += 1;
            }
            if co[o] < SCOAP_INF {
                comp.co.record(co[o]);
            } else {
                comp.unobservable += 1;
            }
        }

        ScoapAnalysis {
            cc0,
            cc1,
            co,
            per_component,
        }
    }

    /// Mean of finite CO values across all nets (the headline
    /// observability figure; lower is better).
    pub fn co_mean(&self) -> f64 {
        let finite: Vec<u64> = self.co.iter().copied().filter(|&v| v < SCOAP_INF).collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.iter().sum::<u64>() as f64 / finite.len() as f64
    }

    /// Largest finite CO value (the hardest-to-observe net).
    pub fn co_max(&self) -> u64 {
        self.co
            .iter()
            .copied()
            .filter(|&v| v < SCOAP_INF)
            .max()
            .unwrap_or(0)
    }

    /// Nets whose CO saturated (nothing observes them), across the
    /// whole netlist.
    pub fn unobservable_nets(&self) -> u64 {
        self.co.iter().filter(|&&v| v >= SCOAP_INF).count() as u64
    }

    /// Nets where CC0 or CC1 saturated (one value unreachable), across
    /// the whole netlist.
    pub fn uncontrollable_nets(&self) -> u64 {
        self.cc0
            .iter()
            .zip(&self.cc1)
            .filter(|&(&c0, &c1)| c0 >= SCOAP_INF || c1 >= SCOAP_INF)
            .count() as u64
    }

    /// Render as a JSON object (the `scoap` member of the lint report).
    ///
    /// Saturated values ([`SCOAP_INF`]) are never emitted as raw costs:
    /// aggregates cover finite values only, and saturation is reported
    /// explicitly — `saturated` flags (top-level and per component)
    /// plus `unobservable_nets` / `uncontrollable_nets` totals —
    /// because a fully saturated component would otherwise render as a
    /// perfect-looking `co_mean` of 0.
    pub fn to_json(&self) -> String {
        let comps: Vec<String> = self
            .per_component
            .iter()
            .map(|c| {
                let mut o = JsonObj::new();
                o.str("name", &c.name);
                o.u64("nets", c.co.count + c.unobservable);
                o.f64("cc0_mean", c.cc0.mean());
                o.f64("cc1_mean", c.cc1.mean());
                o.f64("co_mean", c.co.mean());
                o.u64("co_max", c.co.max.min(SCOAP_INF - 1));
                o.u64("unobservable", c.unobservable);
                o.u64("uncontrollable", c.uncontrollable);
                o.bool("saturated", c.unobservable > 0 || c.uncontrollable > 0);
                o.arr_u64("co_buckets", &c.co.buckets);
                o.finish()
            })
            .collect();
        let unobservable = self.unobservable_nets();
        let uncontrollable = self.uncontrollable_nets();
        let mut obj = JsonObj::new();
        obj.f64("co_mean", self.co_mean());
        obj.u64("co_max", self.co_max().min(SCOAP_INF - 1));
        obj.u64("unobservable_nets", unobservable);
        obj.u64("uncontrollable_nets", uncontrollable);
        obj.bool("saturated", unobservable > 0 || uncontrollable > 0);
        obj.raw("components", &format!("[{}]", comps.join(",")));
        obj.finish()
    }
}

/// (CC0, CC1) of a gate's output from its inputs' values.
fn gate_cc(kind: GateKind, ins: &[(u64, u64)]) -> (u64, u64) {
    let min0 = ins.iter().map(|&(c0, _)| c0).min().unwrap_or(SCOAP_INF);
    let min1 = ins.iter().map(|&(_, c1)| c1).min().unwrap_or(SCOAP_INF);
    let sum0 = ins.iter().fold(0u64, |a, &(c0, _)| sat(a, c0));
    let sum1 = ins.iter().fold(0u64, |a, &(_, c1)| sat(a, c1));
    match kind {
        GateKind::Const0 => (1, SCOAP_INF),
        GateKind::Const1 => (SCOAP_INF, 1),
        GateKind::Buf => (sat(ins[0].0, 1), sat(ins[0].1, 1)),
        GateKind::Not => (sat(ins[0].1, 1), sat(ins[0].0, 1)),
        // AND is 0 when any input is 0, 1 only when all are 1.
        GateKind::And => (sat(min0, 1), sat(sum1, 1)),
        GateKind::Nand => (sat(sum1, 1), sat(min0, 1)),
        GateKind::Or => (sat(sum0, 1), sat(min1, 1)),
        GateKind::Nor => (sat(min1, 1), sat(sum0, 1)),
        // N-ary parity: fold the cheapest way to reach each parity.
        GateKind::Xor => {
            let (even, odd) = parity_cc(ins);
            (sat(even, 1), sat(odd, 1))
        }
        GateKind::Xnor => {
            let (even, odd) = parity_cc(ins);
            (sat(odd, 1), sat(even, 1))
        }
        // Mux inputs are [sel, a, b]; output = a when sel=0.
        GateKind::Mux => {
            if ins.len() == 3 {
                let (s0, s1) = ins[0];
                let (a0, a1) = ins[1];
                let (b0, b1) = ins[2];
                (
                    sat(sat(s0, a0).min(sat(s1, b0)), 1),
                    sat(sat(s0, a1).min(sat(s1, b1)), 1),
                )
            } else {
                (SCOAP_INF, SCOAP_INF)
            }
        }
    }
}

/// Cheapest costs to make the XOR of all inputs 0 (`even`) / 1 (`odd`).
fn parity_cc(ins: &[(u64, u64)]) -> (u64, u64) {
    let mut even = 0u64;
    let mut odd = SCOAP_INF;
    for &(c0, c1) in ins {
        let new_even = sat(even, c0).min(sat(odd, c1));
        let new_odd = sat(even, c1).min(sat(odd, c0));
        even = new_even;
        odd = new_odd;
    }
    (even, odd)
}

/// Side-pin cost to propagate pin `pin` of a gate to its output: the
/// cost of holding every *other* input at a non-controlling value.
fn pin_co(kind: GateKind, pin: usize, inputs: &[u32], cc0: &[u64], cc1: &[u64]) -> u64 {
    let others = || {
        inputs
            .iter()
            .enumerate()
            .filter(move |&(j, _)| j != pin)
            .map(|(_, &i)| i as usize)
    };
    match kind {
        GateKind::Const0 | GateKind::Const1 => SCOAP_INF,
        GateKind::Buf | GateKind::Not => 0,
        // AND/NAND side pins must all be 1; OR/NOR must all be 0.
        GateKind::And | GateKind::Nand => others().fold(0u64, |a, i| sat(a, cc1[i])),
        GateKind::Or | GateKind::Nor => others().fold(0u64, |a, i| sat(a, cc0[i])),
        // XOR side pins only need *known* values: cheapest of each.
        GateKind::Xor | GateKind::Xnor => others().fold(0u64, |a, i| sat(a, cc0[i].min(cc1[i]))),
        GateKind::Mux => {
            if inputs.len() != 3 {
                return SCOAP_INF;
            }
            let (s, a, b) = (inputs[0] as usize, inputs[1] as usize, inputs[2] as usize);
            match pin {
                // Observing sel requires the data legs to differ.
                0 => sat(cc0[a], cc1[b]).min(sat(cc1[a], cc0[b])),
                // Observing a data leg requires selecting it.
                1 => cc0[s],
                2 => cc1[s],
                _ => SCOAP_INF,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LintNetlist;
    use rescue_netlist::NetlistBuilder;

    fn topo_of(lint: &LintNetlist) -> Vec<usize> {
        crate::rules::levelize(lint).expect("acyclic")
    }

    #[test]
    fn inverter_chain_costs_grow_linearly() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x1 = b.not(a);
        let x2 = b.not(x1);
        b.output(x2, "o");
        let lint = LintNetlist::from_netlist(&b.finish().unwrap());
        let s = ScoapAnalysis::compute(&lint, &topo_of(&lint));
        // a=net0, x1=net1, x2=net2.
        assert_eq!((s.cc0[0], s.cc1[0]), (1, 1));
        assert_eq!((s.cc0[1], s.cc1[1]), (2, 2));
        assert_eq!((s.cc0[2], s.cc1[2]), (3, 3));
        // Observability grows toward the input: x2 is a PO.
        assert_eq!(s.co[2], 0);
        assert_eq!(s.co[1], 1);
        assert_eq!(s.co[0], 2);
    }

    #[test]
    fn and_gate_follows_goldstein_formulas() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        b.output(x, "o");
        let lint = LintNetlist::from_netlist(&b.finish().unwrap());
        let s = ScoapAnalysis::compute(&lint, &topo_of(&lint));
        let x = 2; // nets: a=0, b=1, x=2
        assert_eq!(s.cc0[x], 2); // cheapest single 0 + 1
        assert_eq!(s.cc1[x], 3); // both 1s + 1
                                 // Observing `a` through the AND: side pin b held at 1.
        assert_eq!(s.co[0], 2); // co(x)=0 + 1 + cc1(b)=1
    }

    #[test]
    fn const_gate_output_is_uncontrollable_to_the_other_value() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let z = b.const0();
        let x = b.and2(a, z);
        b.output(x, "o");
        let lint = LintNetlist::from_netlist(&b.finish().unwrap());
        let s = ScoapAnalysis::compute(&lint, &topo_of(&lint));
        let z = 1; // nets: a=0, z=1, x=2
        assert_eq!(s.cc0[z], 1);
        assert_eq!(s.cc1[z], SCOAP_INF);
        // The AND output can never be 1 either.
        assert_eq!(s.cc1[2], SCOAP_INF);
        // `a` is unobservable: the side pin can never be non-controlling.
        assert_eq!(s.co[0], SCOAP_INF);
    }

    #[test]
    fn dff_boundaries_are_scan_pseudo_ports() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let q = b.dff(a, "r0");
        let x = b.not(q);
        b.output(x, "o");
        let lint = LintNetlist::from_netlist(&b.finish().unwrap());
        let s = ScoapAnalysis::compute(&lint, &topo_of(&lint));
        // Q (net 1) is a pseudo-input, D (= a, net 0) a pseudo-output.
        assert_eq!((s.cc0[1], s.cc1[1]), (1, 1));
        assert_eq!(s.co[0], 0);
    }

    #[test]
    fn saturation_is_flagged_not_rendered_as_raw_costs() {
        // Const0-fed AND: x can never be 1 and `a` is unobservable, so
        // both saturation flags must fire, with exact totals, and no
        // emitted cost may reach the raw SCOAP_INF sentinel.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let z = b.const0();
        let x = b.and2(a, z);
        b.output(x, "o");
        let lint = LintNetlist::from_netlist(&b.finish().unwrap());
        let s = ScoapAnalysis::compute(&lint, &topo_of(&lint));
        let v = rescue_obs::json::parse(&s.to_json()).unwrap();
        assert!(v.get("saturated").unwrap().as_bool().unwrap());
        // co saturates on `a` only (z and x reach the PO).
        assert_eq!(v.get("unobservable_nets").unwrap().as_int().unwrap(), 1);
        // cc saturates on z (never 1) and x (never 1).
        assert_eq!(v.get("uncontrollable_nets").unwrap().as_int().unwrap(), 2);
        let comp = &v.get("components").unwrap().as_arr().unwrap()[0];
        assert!(comp.get("saturated").unwrap().as_bool().unwrap());
        assert_eq!(comp.get("uncontrollable").unwrap().as_int().unwrap(), 2);
        let co_max = v.get("co_max").unwrap().as_int().unwrap() as u64;
        assert!(co_max < SCOAP_INF, "co_max leaked the saturation sentinel");

        // A clean design reports saturated=false everywhere.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x = b.not(a);
        b.output(x, "o");
        let lint = LintNetlist::from_netlist(&b.finish().unwrap());
        let s = ScoapAnalysis::compute(&lint, &topo_of(&lint));
        let v = rescue_obs::json::parse(&s.to_json()).unwrap();
        assert!(!v.get("saturated").unwrap().as_bool().unwrap());
        assert_eq!(v.get("unobservable_nets").unwrap().as_int().unwrap(), 0);
        assert_eq!(v.get("uncontrollable_nets").unwrap().as_int().unwrap(), 0);
    }

    #[test]
    fn json_renders_and_parses() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x = b.not(a);
        b.output(x, "o");
        let lint = LintNetlist::from_netlist(&b.finish().unwrap());
        let s = ScoapAnalysis::compute(&lint, &topo_of(&lint));
        let v = rescue_obs::json::parse(&s.to_json()).unwrap();
        let comps = v.get("components").unwrap().as_arr().unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].get("name").unwrap().as_str().unwrap(), "lc");
        assert!(v.get("co_mean").unwrap().as_f64().is_some());
    }
}
