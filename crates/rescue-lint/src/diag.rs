//! Diagnostic model: rules, severities, and the structured report.

use rescue_obs::json::JsonObj;
use std::fmt;

/// How bad a diagnostic is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observation worth surfacing (e.g. capture-cone ambiguity on a
    /// non-ICI design — expected, but exactly what ICI exists to fix).
    Info,
    /// Testability hazard that does not break structural soundness
    /// (dead logic, provably stuck nets).
    Warning,
    /// Structural violation: the circuit cannot be soundly simulated,
    /// scanned, or tested.
    Error,
}

impl Severity {
    /// Stable lowercase name (JSON, `--fail-on` argument).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Inverse of [`Severity::name`].
    pub fn of_name(name: &str) -> Result<Severity, String> {
        Ok(match name {
            "info" => Severity::Info,
            "warning" => Severity::Warning,
            "error" => Severity::Error,
            other => return Err(format!("unknown severity: {other} (info|warning|error)")),
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every design rule the linter checks, with a stable name used in
/// report JSON and metrics keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A net no input, gate, or flip-flop drives.
    UndrivenNet,
    /// A net claimed by more than one driver.
    MultiplyDrivenNet,
    /// A gate pin wired to no net (or an out-of-range net index).
    FloatingInput,
    /// A gate whose pin count is illegal for its kind.
    BadArity,
    /// A gate or flip-flop whose component index names no component.
    Unattributed,
    /// A combinational cycle (gates reachable from themselves without
    /// crossing a flip-flop).
    CombLoop,
    /// A combinational cycle whose gates span more than one ICI
    /// component — breaks per-component fault isolation *and*
    /// structural soundness.
    CrossComponentLoop,
    /// Logic from which no primary output or flip-flop D is reachable.
    DeadLogic,
    /// A net constant-propagation proves can never toggle; its
    /// stuck-at-<value> fault is untestable by construction.
    StuckNet,
    /// A flip-flop on no scan chain (state not controllable or
    /// observable in test mode).
    ScanMissingDff,
    /// A flip-flop claimed by more than one scan chain.
    ScanDuplicateDff,
    /// Chain wiring inconsistent with the declared order: D not driven
    /// by a scan mux, mux select not `scan_enable`, shift leg not the
    /// predecessor's Q, or `scan_out` not the last cell's Q on a
    /// primary output.
    ScanBrokenOrder,
    /// A scanned flip-flop whose D is fed combinationally without
    /// passing through its scan mux.
    ScanBypass,
    /// A flip-flop whose functional capture cone spans more than one
    /// ICI component (the paper's Section 3.1 isolation ambiguity).
    CaptureAmbiguity,
    /// A stuck-at fault the static implication engine proved
    /// untestable (FIRE-style redundancy identification): its
    /// excitation or propagation conditions conflict with learned
    /// implications. Redundant logic wastes area and silently erodes
    /// fault coverage.
    RedundantFault,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 15] = [
        Rule::UndrivenNet,
        Rule::MultiplyDrivenNet,
        Rule::FloatingInput,
        Rule::BadArity,
        Rule::Unattributed,
        Rule::CombLoop,
        Rule::CrossComponentLoop,
        Rule::DeadLogic,
        Rule::StuckNet,
        Rule::ScanMissingDff,
        Rule::ScanDuplicateDff,
        Rule::ScanBrokenOrder,
        Rule::ScanBypass,
        Rule::CaptureAmbiguity,
        Rule::RedundantFault,
    ];

    /// Stable kebab-case name (JSON, metrics keys).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UndrivenNet => "undriven-net",
            Rule::MultiplyDrivenNet => "multi-driven-net",
            Rule::FloatingInput => "floating-input",
            Rule::BadArity => "bad-arity",
            Rule::Unattributed => "unattributed",
            Rule::CombLoop => "comb-loop",
            Rule::CrossComponentLoop => "cross-component-loop",
            Rule::DeadLogic => "dead-logic",
            Rule::StuckNet => "stuck-net",
            Rule::ScanMissingDff => "scan-missing-dff",
            Rule::ScanDuplicateDff => "scan-duplicate-dff",
            Rule::ScanBrokenOrder => "scan-broken-order",
            Rule::ScanBypass => "scan-bypass",
            Rule::CaptureAmbiguity => "capture-ambiguity",
            Rule::RedundantFault => "redundant-fault",
        }
    }

    /// Severity the rule reports at.
    ///
    /// Structural violations are errors; testability hazards are
    /// warnings; capture-cone ambiguity is informational because it is
    /// the *expected* state of the non-ICI baseline — the lint gate
    /// must pass on baseline netlists while still surfacing the metric
    /// ICI improves.
    pub fn severity(self) -> Severity {
        match self {
            Rule::DeadLogic | Rule::StuckNet | Rule::RedundantFault => Severity::Warning,
            Rule::CaptureAmbiguity => Severity::Info,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Severity (always `rule.severity()`).
    pub severity: Severity,
    /// Human-readable description with names resolved.
    pub message: String,
    /// Net the finding anchors to, when there is a single natural one.
    pub net: Option<u32>,
}

impl Diagnostic {
    /// Build a diagnostic for `rule` at its default severity.
    pub fn new(rule: Rule, message: String, net: Option<u32>) -> Diagnostic {
        Diagnostic {
            rule,
            severity: rule.severity(),
            message,
            net,
        }
    }
}

/// Implication-engine results attached to a [`LintReport`] when the
/// netlist levelizes soundly.
#[derive(Clone, Debug, Default)]
pub struct ImplicationReport {
    /// Database statistics (literal count, edge count, learned
    /// constants, reconvergent-stem census).
    pub stats: crate::implication::ImplicationStats,
    /// Stuck-at faults proven redundant, as `(net, stuck_value)`.
    /// Excludes nets already reported by [`Rule::StuckNet`] — those
    /// are the 3-valued-simulation subset and keep their own rule.
    pub redundant_faults: Vec<(u32, bool)>,
}

/// The structured result of linting one netlist.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Every finding, in rule order.
    pub diagnostics: Vec<Diagnostic>,
    /// Nets the implication engine's first constant-propagation pass
    /// proved stuck, as `(net, value)` in net order — empty when the
    /// netlist is unsound. The `stuck-at-value` fault on each is
    /// untestable by construction. Present even though the same nets
    /// appear as [`Rule::StuckNet`] diagnostics, so programmatic
    /// consumers (the fuzz oracle, tests) need not re-parse messages.
    pub stuck_nets: Vec<(u32, bool)>,
    /// SCOAP analysis, when the netlist was structurally sound enough
    /// to levelize (no errors that break topological ordering).
    pub scoap: Option<crate::scoap::ScoapAnalysis>,
    /// Static implication analysis, under the same soundness gate as
    /// SCOAP.
    pub implication: Option<ImplicationReport>,
}

impl LintReport {
    /// Number of diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Number of diagnostics for one rule.
    pub fn count_rule(&self, rule: Rule) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Highest severity present, `None` when the report is clean.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// True when no diagnostic is at or above `threshold`.
    pub fn passes(&self, threshold: Severity) -> bool {
        self.diagnostics.iter().all(|d| d.severity < threshold)
    }

    /// Render the report as a JSON object string. `design` labels which
    /// netlist was linted. Schema documented in EXPERIMENTS.md.
    pub fn to_json(&self, design: &str) -> String {
        let mut counts = JsonObj::new();
        for sev in [Severity::Error, Severity::Warning, Severity::Info] {
            counts.u64(sev.name(), self.count(sev) as u64);
        }
        let mut per_rule = JsonObj::new();
        for rule in Rule::ALL {
            per_rule.u64(rule.name(), self.count_rule(rule) as u64);
        }
        counts.raw("per_rule", &per_rule.finish());

        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut o = JsonObj::new();
                o.str("rule", d.rule.name());
                o.str("severity", d.severity.name());
                o.str("message", &d.message);
                if let Some(n) = d.net {
                    o.u64("net", n as u64);
                }
                o.finish()
            })
            .collect();

        let mut obj = JsonObj::new();
        obj.str("design", design);
        obj.raw("counts", &counts.finish());
        obj.raw("diagnostics", &format!("[{}]", diags.join(",")));
        obj.u64("stuck_nets", self.stuck_nets.len() as u64);
        if let Some(scoap) = &self.scoap {
            obj.raw("scoap", &scoap.to_json());
        }
        if let Some(imp) = &self.implication {
            let mut o = JsonObj::new();
            o.u64("literals", imp.stats.literals);
            o.u64("direct_implications", imp.stats.direct_implications);
            o.u64("constant_literals", imp.stats.constant_literals);
            o.u64("probe_rounds", imp.stats.probe_rounds);
            o.u64("stems", imp.stats.stems);
            o.u64("reconvergent_stems", imp.stats.reconvergent_stems);
            o.u64("redundant_faults", imp.redundant_faults.len() as u64);
            obj.raw("impl", &o.finish());
        }
        obj.finish()
    }

    /// Human-readable rendering (the lint binary's stdout). Caps the
    /// listing at `max_shown` diagnostics to keep terminals usable on
    /// pathological inputs.
    pub fn render_text(&self, design: &str, max_shown: usize) -> String {
        let mut s = format!(
            "lint {design}: {} errors, {} warnings, {} infos\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        for d in self.diagnostics.iter().take(max_shown) {
            s.push_str(&format!("  {:<7} [{}] {}\n", d.severity, d.rule, d.message));
        }
        if self.diagnostics.len() > max_shown {
            s.push_str(&format!(
                "  ... {} more diagnostics\n",
                self.diagnostics.len() - max_shown
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_round_trips() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        for s in [Severity::Info, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::of_name(s.name()).unwrap(), s);
        }
        assert!(Severity::of_name("fatal").is_err());
    }

    #[test]
    fn rule_names_are_unique() {
        let mut names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Rule::ALL.len());
    }

    #[test]
    fn report_counts_and_threshold() {
        let mut r = LintReport::default();
        assert!(r.passes(Severity::Info));
        assert_eq!(r.worst(), None);
        r.diagnostics
            .push(Diagnostic::new(Rule::DeadLogic, "g0 dead".into(), None));
        r.diagnostics
            .push(Diagnostic::new(Rule::CombLoop, "loop".into(), Some(3)));
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.worst(), Some(Severity::Error));
        assert!(!r.passes(Severity::Error));
        assert!(!r.passes(Severity::Warning));
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let mut r = LintReport::default();
        r.diagnostics.push(Diagnostic::new(
            Rule::StuckNet,
            "n5 stuck at 0".into(),
            Some(5),
        ));
        r.stuck_nets.push((5, false));
        let v = rescue_obs::json::parse(&r.to_json("unit")).unwrap();
        assert_eq!(v.get("design").unwrap().as_str().unwrap(), "unit");
        assert_eq!(
            v.get("counts")
                .unwrap()
                .get("warning")
                .unwrap()
                .as_int()
                .unwrap(),
            1
        );
        assert_eq!(
            v.get("counts")
                .unwrap()
                .get("per_rule")
                .unwrap()
                .get("stuck-net")
                .unwrap()
                .as_int()
                .unwrap(),
            1
        );
        assert_eq!(v.get("stuck_nets").unwrap().as_int().unwrap(), 1);
        let diags = v.get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("net").unwrap().as_int().unwrap(), 5);
    }
}
