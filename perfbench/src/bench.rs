//! What every workload shares: run settings, seed derivation, output
//! checks, the metric catalog and the result a workload hands back.

use rescue_obs::SplitMix64;
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced runs): name and unit, in print order.
/// Every workload reports every one of them.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (traced runs): name and unit, in print order.
/// Every traced run reports every one; a layer its workload does not
/// call reads 0.
pub const LAYER: &[(&str, &str)] = &[
    // Workload-level numbers, from the untraced passes of a traced run.
    ("failed_frac", "frac"),
    ("atpg_ms.baseline", "ms"),
    ("atpg_ms.rescue", "ms"),
    ("coverage_pct", "%"),
    ("test_vectors", "count"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("job_tail_pct", "%"),
    ("job_tail_n", "count"),
    ("sim_minstr_per_s", "Minstr/s"),
    // Span bookkeeping.
    ("trace.covered_frac", "frac"),
    ("obs.trace_overhead_pct", "%"),
    // rescue-model
    ("model.build_ms", "ms"),
    // rescue-netlist
    ("netlist.scan_ms", "ms"),
    ("netlist.levelize_ms", "ms"),
    ("netlist.collapse_ms", "ms"),
    ("netlist.gates", "count"),
    ("netlist.faults", "count"),
    // rescue-lint implication engine
    ("lint.impl_build_ms", "ms"),
    ("lint.prove_ms", "ms"),
    ("lint.proven", "count"),
    ("lint.proven_frac", "frac"),
    // rescue-atpg PODEM
    ("atpg.podem_ms", "ms"),
    ("atpg.podem.decisions", "count"),
    ("atpg.podem.backtracks", "count"),
    ("atpg.podem.aborted", "count"),
    ("atpg.podem.ns_per_step", "ns"),
    ("atpg.podem.ns_per_gate_step", "ns"),
    ("atpg.podem.sample_p50_us", "us"),
    ("atpg.podem.sample_tail_us", "us"),
    ("atpg.podem.sample_tail_pct", "%"),
    ("atpg.podem.sample_n", "count"),
    ("atpg.podem.abort_time_frac", "frac"),
    // rescue-atpg fault simulation
    ("atpg.fsim_ms", "ms"),
    ("atpg.fsim.gate_evals", "count"),
    ("atpg.fsim.drop_frac", "frac"),
    ("fsim.grade_gate_evals_per_s", "1/s"),
    // rescue-atpg compaction and isolation
    ("atpg.compact_ms", "ms"),
    ("atpg.fill_ms", "ms"),
    ("atpg.merge_frac", "frac"),
    ("atpg.isolate_ms", "ms"),
    ("atpg.isolated_frac", "frac"),
    // rescue-serve
    ("serve.design_build_ms", "ms"),
    ("serve.design_hit_frac", "frac"),
    ("serve.result_hit_frac", "frac"),
    ("serve.run_job_ms.netlist", "ms"),
    ("serve.run_job_ms.lint", "ms"),
    ("serve.run_job_ms.fsim", "ms"),
    ("serve.run_job_ms.atpg", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed", "count"),
    // rescue-workloads
    ("workloads.trace_minstr_per_s", "Minstr/s"),
    // rescue-pipesim
    ("pipesim.minstr_per_s", "Minstr/s"),
    ("pipesim.cycles", "count"),
    ("pipesim.calls", "count"),
    // rescue-yield, rescue-core
    ("yield.yat_ms", "ms"),
    ("core.fig8_ms", "ms"),
    ("core.fig9_ms.a", "ms"),
    ("core.fig9_ms.b", "ms"),
    ("core.self_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["atpg-table3", "serve-mix", "yield-study"];

/// Settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than untraced.
    pub traced: bool,
}

impl Run {
    /// Input seed for one named use of the workload seed. Distinct
    /// streams give unrelated seeds; the same (seed, stream) always the
    /// same one.
    pub fn derive(&self, stream: u64) -> u64 {
        derive(self.seed, stream)
    }
}

/// See [`Run::derive`].
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Attempted operations and output checks, and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Count one operation or check; report it on stderr when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Share of attempts that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation and output-check tally.
    pub checks: Checks,
    /// End-to-end metric values by name (untraced runs).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metric values by name (traced runs).
    pub layer: Vec<(&'static str, f64)>,
    /// Report lines printed ahead of the result: the workload's own
    /// headline numbers and deterministic counts.
    pub report: Vec<String>,
}

impl Outcome {
    /// Add a report line `name value unit`.
    pub fn note(&mut self, name: &str, value: impl std::fmt::Display, unit: &str) {
        self.report.push(format!("{name} {value} {unit}"));
    }
}

/// Passes of one run, with each pass's wall time in seconds.
pub struct Passes<T> {
    /// Untraced passes: the end-to-end numbers come only from these.
    pub untraced: Vec<(T, f64)>,
    /// Traced passes (traced runs only).
    pub traced: Vec<(T, f64)>,
}

impl<T> Passes<T> {
    /// Wall times of the untraced passes.
    pub fn walls(&self) -> Vec<f64> {
        self.untraced.iter().map(|(_, w)| *w).collect()
    }

    /// Tracing overhead: median traced over median untraced wall time,
    /// in percent.
    pub fn overhead_pct(&self) -> f64 {
        let traced: Vec<f64> = self.traced.iter().map(|(_, w)| *w).collect();
        match (
            crate::stats::median(&self.walls()),
            crate::stats::median(&traced),
        ) {
            (Some(u), Some(t)) if u > 0.0 => 100.0 * (t - u) / u,
            _ => 0.0,
        }
    }
}

/// Run `pass` repeatedly until the run's budget has elapsed. An
/// untraced run makes at least one pass, all untraced. A traced run
/// alternates untraced and traced passes, at least one of each, so both
/// see the same machine conditions. `pass` gets the pass number.
pub fn passes<T>(run: &Run, mut pass: impl FnMut(usize) -> T) -> Passes<T> {
    let budget = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let mut out = Passes {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    for i in 0.. {
        let traced = run.traced && i % 2 == 1;
        crate::trace::set_recording(traced);
        let t = Instant::now();
        let r = pass(i);
        let wall = t.elapsed().as_secs_f64();
        crate::trace::set_recording(false);
        if traced {
            out.traced.push((r, wall));
        } else {
            out.untraced.push((r, wall));
        }
        if start.elapsed() >= budget && (!run.traced || i >= 1) {
            break;
        }
    }
    out
}

/// Median set-up time over `reps` repetitions of `setup`, keeping the
/// last repetition's product.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        crate::stats::median(&times).expect("at least one repetition"),
    )
}

/// The four end-to-end metrics every workload reports.
pub fn e2e(setup_s: f64, wall_s: &[f64], checks: &Checks) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("wall_s", crate::stats::median(wall_s).unwrap_or(0.0)),
        ("peak_rss_mb", crate::stats::peak_rss_mb().unwrap_or(0.0)),
        ("ok_frac", 1.0 - checks.failed_frac()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_repeat_and_separate() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(8, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = E2E.iter().chain(LAYER).map(|(n, _)| *n).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
    }
}
