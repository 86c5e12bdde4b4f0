//! Lint rules against hand-crafted pathological netlists.
//!
//! The validated [`rescue_netlist::Netlist`] type cannot express most of
//! these structures (its builder rejects them at elaboration), which is
//! exactly why the linter analyzes the raw [`LintNetlist`] view: the
//! broken circuits a lint engine exists to diagnose must be
//! constructible. Each test builds one classic defect and asserts the
//! matching rule — and only the matching severity class — fires.

use rescue_lint::{lint, lint_netlist, lint_scan, LintGate, LintNetlist, Rule, Severity, NO_NET};
use rescue_netlist::scan::insert_scan;
use rescue_netlist::{GateKind, NetlistBuilder};

fn gate(kind: GateKind, inputs: &[u32], output: u32, component: u32) -> LintGate {
    LintGate {
        kind,
        inputs: inputs.to_vec(),
        output,
        component,
        scan_path: false,
    }
}

fn nets(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_owned()).collect()
}

/// Two inverters feeding each other: the minimal combinational loop.
#[test]
fn two_gate_combinational_loop_is_detected() {
    let l = LintNetlist {
        net_names: nets(&["a", "x", "y"]),
        inputs: vec![0],
        outputs: vec![("o".to_owned(), 2)],
        gates: vec![
            gate(GateKind::Not, &[2], 1, 0),
            gate(GateKind::Not, &[1], 2, 0),
        ],
        dffs: Vec::new(),
        components: vec!["lc".to_owned()],
        chains: Vec::new(),
    };
    let r = lint(&l);
    assert_eq!(
        r.count_rule(Rule::CombLoop),
        1,
        "{}",
        r.render_text("loop", 50)
    );
    assert_eq!(r.count_rule(Rule::CrossComponentLoop), 0);
    assert_eq!(r.worst(), Some(Severity::Error));
    // A cyclic netlist cannot be levelized, so no SCOAP.
    assert!(r.scoap.is_none());
    // Unsound: lint builds no implication engine, so no stuck nets.
    assert!(r.implication.is_none() && r.stuck_nets.is_empty());
}

/// The same loop with its two gates attributed to different ICI
/// components also breaks per-component fault isolation.
#[test]
fn cross_component_loop_fires_both_rules() {
    let l = LintNetlist {
        net_names: nets(&["a", "x", "y"]),
        inputs: vec![0],
        outputs: vec![("o".to_owned(), 2)],
        gates: vec![
            gate(GateKind::Not, &[2], 1, 0),
            gate(GateKind::Not, &[1], 2, 1),
        ],
        dffs: Vec::new(),
        components: vec!["c0".to_owned(), "c1".to_owned()],
        chains: Vec::new(),
    };
    let r = lint(&l);
    assert_eq!(r.count_rule(Rule::CombLoop), 1);
    assert_eq!(r.count_rule(Rule::CrossComponentLoop), 1);
    // Unsound: lint builds no implication engine, so no stuck nets.
    assert!(r.implication.is_none() && r.stuck_nets.is_empty());
}

/// Two gates claiming the same output net.
#[test]
fn multiply_driven_net_is_detected() {
    let l = LintNetlist {
        net_names: nets(&["a", "b", "x"]),
        inputs: vec![0, 1],
        outputs: vec![("o".to_owned(), 2)],
        gates: vec![
            gate(GateKind::And, &[0, 1], 2, 0),
            gate(GateKind::Or, &[0, 1], 2, 0),
        ],
        dffs: Vec::new(),
        components: vec!["lc".to_owned()],
        chains: Vec::new(),
    };
    let r = lint(&l);
    assert_eq!(r.count_rule(Rule::MultiplyDrivenNet), 1);
    let d = &r.diagnostics[r
        .diagnostics
        .iter()
        .position(|d| d.rule == Rule::MultiplyDrivenNet)
        .unwrap()];
    assert_eq!(d.net, Some(2));
    assert!(d.message.contains("2 drivers"), "{}", d.message);
    // Unsound: lint builds no implication engine, so no stuck nets.
    assert!(r.implication.is_none() && r.stuck_nets.is_empty());
}

/// A net that is read but driven by nothing.
#[test]
fn undriven_net_is_detected() {
    let l = LintNetlist {
        net_names: nets(&["a", "ghost", "x"]),
        inputs: vec![0],
        outputs: vec![("o".to_owned(), 2)],
        gates: vec![gate(GateKind::And, &[0, 1], 2, 0)],
        dffs: Vec::new(),
        components: vec!["lc".to_owned()],
        chains: Vec::new(),
    };
    let r = lint(&l);
    assert_eq!(r.count_rule(Rule::UndrivenNet), 1);
    assert_eq!(r.diagnostics[0].net, Some(1));
    // Unsound: lint builds no implication engine, so no stuck nets.
    assert!(r.implication.is_none() && r.stuck_nets.is_empty());
}

/// Unconnected pins, impossible arity, and a component index that names
/// no component.
#[test]
fn floating_arity_and_attribution_errors() {
    let l = LintNetlist {
        net_names: nets(&["a", "x"]),
        inputs: vec![0],
        outputs: vec![("o".to_owned(), 1)],
        // Mux needs 3 pins; this one has two, one of them unconnected,
        // and claims component 5 of a 1-component design.
        gates: vec![gate(GateKind::Mux, &[0, NO_NET], 1, 5)],
        dffs: Vec::new(),
        components: vec!["lc".to_owned()],
        chains: Vec::new(),
    };
    let r = lint(&l);
    assert_eq!(r.count_rule(Rule::FloatingInput), 1);
    assert_eq!(r.count_rule(Rule::BadArity), 1);
    assert_eq!(r.count_rule(Rule::Unattributed), 1);
    // Unsound: lint builds no implication engine, so no stuck nets.
    assert!(r.implication.is_none() && r.stuck_nets.is_empty());
}

/// A flip-flop removed from every scan chain of a scanned design.
#[test]
fn dff_omitted_from_all_scan_chains_is_detected() {
    let mut b = NetlistBuilder::new();
    b.enter_component("lc");
    let a = b.input("a");
    let q0 = b.dff(a, "r0");
    let q1 = b.dff(q0, "r1");
    b.output(q1, "o");
    let scanned = insert_scan(&b.finish().unwrap()).unwrap();

    // The real scanned design is clean...
    let clean = lint_scan(&scanned);
    assert_eq!(clean.count(Severity::Error), 0);

    // ...until r1 is dropped from the chain description.
    let mut l = LintNetlist::from_scan(&scanned);
    l.chains[0].order.retain(|&d| d != 1);
    let r = lint(&l);
    assert_eq!(r.count_rule(Rule::ScanMissingDff), 1);
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::ScanMissingDff)
        .unwrap();
    assert!(d.message.contains("r1"), "{}", d.message);
}

/// A flip-flop listed on the chain twice.
#[test]
fn duplicated_chain_membership_is_detected() {
    let mut b = NetlistBuilder::new();
    b.enter_component("lc");
    let a = b.input("a");
    let q0 = b.dff(a, "r0");
    let q1 = b.dff(q0, "r1");
    b.output(q1, "o");
    let scanned = insert_scan(&b.finish().unwrap()).unwrap();

    let mut l = LintNetlist::from_scan(&scanned);
    let first = l.chains[0].order[0];
    l.chains[0].order.insert(0, first);
    let r = lint(&l);
    assert_eq!(r.count_rule(Rule::ScanDuplicateDff), 1);
}

/// A scanned flip-flop rewired so its D comes straight from functional
/// logic, bypassing its scan mux.
#[test]
fn combinational_scan_bypass_is_detected() {
    let mut b = NetlistBuilder::new();
    b.enter_component("lc");
    let a = b.input("a");
    let x = b.not(a);
    let q0 = b.dff(x, "r0");
    b.output(q0, "o");
    let scanned = insert_scan(&b.finish().unwrap()).unwrap();

    let mut l = LintNetlist::from_scan(&scanned);
    // Reconnect D of r0 to the inverter output instead of the mux.
    let functional_d = l
        .gates
        .iter()
        .position(|g| g.kind == GateKind::Not)
        .map(|gi| l.gates[gi].output)
        .unwrap();
    l.dffs[0].d = functional_d;
    let r = lint(&l);
    assert!(
        r.count_rule(Rule::ScanBypass) >= 1,
        "{}",
        r.render_text("bypass", 50)
    );
}

/// Logic no output or flip-flop can observe is dead — a warning, since
/// the circuit still simulates soundly.
#[test]
fn dead_logic_is_a_warning() {
    let mut b = NetlistBuilder::new();
    b.enter_component("lc");
    let a = b.input("a");
    let x = b.not(a);
    let _unused = b.and2(a, x);
    b.output(x, "o");
    let r = lint_netlist(&b.finish().unwrap());
    assert_eq!(r.count_rule(Rule::DeadLogic), 1);
    assert_eq!(r.count(Severity::Error), 0);
    assert_eq!(r.worst(), Some(Severity::Warning));
}

/// A constant-0 AND cone: constant propagation proves the AND output
/// (and the const-0 stem) can never toggle, so their stuck-at-0 faults
/// are untestable by construction — and PODEM agrees on every one the
/// collapsed fault list still carries.
#[test]
fn constant_zero_and_cone_faults_are_untestable() {
    use rescue_atpg::{Atpg, AtpgConfig, FaultClass};
    use rescue_netlist::{Fault, NetId, StuckAt};

    let mut b = NetlistBuilder::new();
    b.enter_component("lc");
    let a = b.input("a");
    let z = b.const0();
    let x = b.and2(a, z); // provably constant 0
    let y = b.or2(x, a); // behaves as `a`; not constant
    let q = b.dff(x, "r0");
    let k = b.xor2(y, q);
    b.output(k, "o");
    let scanned = insert_scan(&b.finish().unwrap()).unwrap();

    let report = lint_scan(&scanned);
    assert_eq!(
        report.count(Severity::Error),
        0,
        "{}",
        report.render_text("cone", 50)
    );
    let z_idx = z.index() as u32;
    let x_idx = x.index() as u32;
    assert!(report.stuck_nets.contains(&(z_idx, false)), "const-0 stem");
    assert!(report.stuck_nets.contains(&(x_idx, false)), "AND output");
    assert_eq!(report.count_rule(Rule::StuckNet), report.stuck_nets.len());

    // Cross-check against PODEM: every lint-proved-constant net's
    // stuck-at fault still present after collapsing must be classified
    // Untestable — never Detected.
    let run = Atpg::new(&scanned, AtpgConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let mut checked = 0;
    for &(net, value) in &report.stuck_nets {
        let stuck_at = if value { StuckAt::One } else { StuckAt::Zero };
        let fault = Fault::net(NetId::from_index(net as usize), stuck_at);
        if let Some(&class) = run.classes.get(&fault) {
            assert_eq!(class, FaultClass::Untestable, "{fault:?}");
            checked += 1;
        }
    }
    assert!(checked > 0, "no lint-constant fault survived collapsing");
}
