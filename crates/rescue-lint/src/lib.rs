//! Static DFT lint for Rescue netlists: design-rule checks plus SCOAP
//! testability analysis.
//!
//! Commercial test flows run design-rule checking before ATPG ever
//! starts — structural problems (combinational loops, undriven nets,
//! state unreachable from the scan chain) are cheap to find statically
//! and expensive to debug dynamically. This crate is that layer for the
//! Rescue workspace:
//!
//! * [`rules`] implements the design rules over an unvalidated
//!   [`ir::LintNetlist`] view, producing [`diag::Diagnostic`]s at three
//!   severities (see [`diag::Rule`] for the catalog).
//! * [`scoap`] computes SCOAP controllability/observability (CC0, CC1,
//!   CO) per net with per-ICI-component aggregates, turning the paper's
//!   "ICI improves testability" claim into a statically checkable
//!   metric.
//!
//! Entry points: [`lint`] on a raw view, or the conveniences
//! [`lint_netlist`] / [`lint_scan`] / [`lint_multi_scan`] straight from
//! the validated types.
//!
//! ```
//! use rescue_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new();
//! b.enter_component("lc");
//! let a = b.input("a");
//! let x = b.not(a);
//! b.output(x, "o");
//! let netlist = b.finish().unwrap();
//!
//! let report = rescue_lint::lint_netlist(&netlist);
//! assert_eq!(report.count(rescue_lint::Severity::Error), 0);
//! assert!(report.scoap.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod implication;
pub mod ir;
pub mod rules;
pub mod scoap;

pub use diag::{Diagnostic, ImplicationReport, LintReport, Rule, Severity};
pub use implication::{ImplicationEngine, ImplicationStats, ProofSite};
pub use ir::{LintChain, LintDff, LintDriver, LintGate, LintNetlist, NO_NET};
pub use scoap::{ScoapAnalysis, SCOAP_INF};

use rescue_netlist::scan::{MultiScanNetlist, ScanNetlist};
use rescue_netlist::Netlist;

/// Lint a raw netlist view: run every design rule, then — when the
/// structure is sound enough to levelize — SCOAP analysis and the
/// implication engine, whose first constant-propagation pass yields the
/// [`Rule::StuckNet`] findings.
pub fn lint(netlist: &LintNetlist) -> LintReport {
    let outcome = rules::run_rules(netlist);
    let mut diagnostics = outcome.diagnostics;
    let (stuck_nets, scoap, implication) = match (&outcome.topo, outcome.sound) {
        (Some(topo), true) => {
            let scoap = ScoapAnalysis::compute(netlist, topo);
            let mut engine = ImplicationEngine::from_lint(netlist, topo);
            // Primary inputs and flip-flop Qs are unknown (full scan
            // makes all state freely loadable), so these are the nets no
            // input assignment can toggle.
            let stuck_nets = engine.propagated_constants().to_vec();
            for &(net, v) in &stuck_nets {
                let bit = u8::from(v);
                diagnostics.push(Diagnostic::new(
                    Rule::StuckNet,
                    format!(
                        "net {} (n{net}) is constant {bit}: its stuck-at-{bit} fault is untestable",
                        netlist.net_name(net)
                    ),
                    Some(net),
                ));
            }
            // Stable: keeps every rule's findings in emission order.
            diagnostics.sort_by_key(|d| d.rule);
            // Nets plain constant propagation already covers keep the
            // stuck-net rule; the redundancy report carries only what
            // failed-literal learning and blocking add.
            let stuck: std::collections::HashSet<(u32, bool)> =
                stuck_nets.iter().copied().collect();
            let mut redundant_faults = Vec::new();
            for net in 0..netlist.num_nets() as u32 {
                for v in [false, true] {
                    if stuck.contains(&(net, v)) {
                        continue;
                    }
                    if engine.prove_redundant(ProofSite::Net(net as usize), v) {
                        redundant_faults.push((net, v));
                    }
                }
            }
            // Rules emit in `Rule::ALL` order and `RedundantFault` is
            // last, so appending keeps the report sorted.
            for &(net, v) in &redundant_faults {
                diagnostics.push(Diagnostic::new(
                    Rule::RedundantFault,
                    format!(
                        "stuck-at-{} on {} is untestable by static implication",
                        v as u8,
                        netlist.net_name(net),
                    ),
                    Some(net),
                ));
            }
            let report = ImplicationReport {
                stats: engine.stats(),
                redundant_faults,
            };
            (stuck_nets, Some(scoap), Some(report))
        }
        _ => (Vec::new(), None, None),
    };
    LintReport {
        diagnostics,
        stuck_nets,
        scoap,
        implication,
    }
}

/// Lint a validated pre-scan [`Netlist`].
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    lint(&LintNetlist::from_netlist(netlist))
}

/// Lint a single-chain scan netlist, including the scan-integrity
/// rules.
pub fn lint_scan(scan: &ScanNetlist) -> LintReport {
    lint(&LintNetlist::from_scan(scan))
}

/// Lint a multi-chain scan netlist, including the scan-integrity rules.
pub fn lint_multi_scan(scan: &MultiScanNetlist) -> LintReport {
    lint(&LintNetlist::from_multi_scan(scan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::scan::{insert_scan, insert_scan_chains};
    use rescue_netlist::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let q = b.dff(x, "r0");
        let y = b.xor2(q, a);
        let q1 = b.dff(y, "r1");
        b.output(q1, "o");
        b.finish().unwrap()
    }

    #[test]
    fn valid_netlists_lint_clean() {
        let n = sample();
        let r = lint_netlist(&n);
        assert_eq!(r.count(Severity::Error), 0, "{}", r.render_text("pre", 50));
        assert!(r.scoap.is_some());

        let s = insert_scan(&n).unwrap();
        let rs = lint_scan(&s);
        assert_eq!(
            rs.count(Severity::Error),
            0,
            "{}",
            rs.render_text("scan", 50)
        );

        let m = insert_scan_chains(&n, 2).unwrap();
        let rm = lint_multi_scan(&m);
        assert_eq!(
            rm.count(Severity::Error),
            0,
            "{}",
            rm.render_text("multi", 50)
        );
    }

    #[test]
    fn seeded_redundancy_count_is_exact() {
        // y = (a AND ¬a) OR b: the AND cone is redundant logic that
        // 3-valued constant propagation cannot see (both AND inputs
        // unknown), so stuck-net stays silent and the implication
        // engine must carry the proof alone. Exactly two faults are
        // provable: x sa0 (x = a AND ¬a is a learned constant 0) and
        // ¬a sa0 (its only fanout is the AND, blocked by the side
        // input a forced to the controlling value 0).
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let na = b.not(a);
        let x = b.and2(a, na);
        let y = b.or2(x, c);
        b.output(y, "y");
        let n = b.finish().unwrap();
        let r = lint_netlist(&n);
        assert!(r.stuck_nets.is_empty(), "3-valued rule must not see x");
        assert_eq!(r.count_rule(Rule::StuckNet), 0);
        assert_eq!(r.count_rule(Rule::RedundantFault), 2);
        let imp = r.implication.as_ref().unwrap();
        assert_eq!(
            imp.redundant_faults,
            vec![(na.index() as u32, false), (x.index() as u32, false)]
        );
        // The report stays a warning, not an error.
        assert_eq!(r.count(Severity::Error), 0);
        // JSON carries the impl section with the exact count.
        let v = rescue_obs::json::parse(&r.to_json("seeded")).unwrap();
        let imp_json = v.get("impl").unwrap();
        assert_eq!(
            imp_json.get("redundant_faults").unwrap().as_int().unwrap(),
            2
        );
        assert!(
            imp_json
                .get("direct_implications")
                .unwrap()
                .as_int()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn xor_same_net_identity_is_one_rule_for_lint_and_atpg() {
        // xnor(a, a) = 1 and xor(a, a, a, a) = 0 whatever a carries.
        // The stuck-net findings and the ATPG pre-pass constants come
        // from the same propagation pass, so both views agree.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x = b.gate(rescue_netlist::GateKind::Xnor, &[a, a]);
        let y = b.xor(&[a, a, a, a]);
        b.output(x, "x");
        b.output(y, "y");
        let n = b.finish().unwrap();

        let r = lint_netlist(&n);
        assert_eq!(
            r.stuck_nets,
            vec![(x.index() as u32, true), (y.index() as u32, false)]
        );
        assert_eq!(r.count_rule(Rule::StuckNet), 2);

        let lev = rescue_netlist::Levelized::new(&n);
        let eng = ImplicationEngine::from_levelized(&lev, &[None]);
        assert_eq!(eng.net_constant(lev.new_net(x.index())), Some(true));
        assert_eq!(eng.net_constant(lev.new_net(y.index())), Some(false));
    }

    #[test]
    fn scan_insertion_preserves_scoap_functional_observability() {
        // Scan makes state a pseudo-port in both views, so the
        // functional nets' controllability must not get worse.
        let n = sample();
        let pre = lint_netlist(&n);
        let post = lint_scan(&insert_scan(&n).unwrap());
        let s_pre = pre.scoap.unwrap();
        let s_post = post.scoap.unwrap();
        for net in 0..n.num_nets() {
            assert!(s_post.cc0[net] <= s_pre.cc0[net]);
            assert!(s_post.cc1[net] <= s_pre.cc1[net]);
        }
    }
}
