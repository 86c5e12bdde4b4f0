//! `atpg-table3`: scan ATPG plus fault isolation on both Table-3
//! designs at quick scale (`ModelParams::tiny()`).
//!
//! One pass runs `Atpg::run` with the default `AtpgConfig` (fill seed
//! from the workload seed) on the baseline and the Rescue design, then
//! `Isolator::isolate_many` on a seeded sample of each run's detected
//! faults, replayed against the run's own vectors.

use crate::bench::{self, median_setup, passes, Checks, Outcome, Run};
use crate::stats::{median, tail};
use crate::trace;
use rescue_atpg::{
    Atpg, AtpgConfig, AtpgMetrics, FaultClass, Isolator, Podem, PodemConfig, PodemResult,
};
use rescue_lint::ImplicationEngine;
use rescue_model::{build_pipeline, ModelParams, PipelineModel, Variant};
use rescue_netlist::scan::insert_scan;
use rescue_netlist::{Fault, Fnv64, Levelized, ScanNetlist};
use rescue_obs::SplitMix64;
use std::time::Instant;

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 51;
/// Detected faults isolated per design per pass.
const ISO_SAMPLE: usize = 128;
/// Faults per design given to direct `Podem::generate` calls.
const PODEM_SAMPLE: usize = 150;
/// Fault-simulation worker threads of the timed passes.
const THREADS: usize = 2;

const DESIGNS: [(Variant, &str); 2] =
    [(Variant::Baseline, "baseline"), (Variant::Rescue, "rescue")];

/// The seeds the workload seed drives: the random-fill seed, and per
/// design the isolation sample's and the PODEM sample's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Seeds {
    fill: u64,
    iso: [u64; 2],
    podem: [u64; 2],
}

impl Seeds {
    fn new(run: &Run) -> Seeds {
        let per_design = |stream| [0, 1].map(|d| bench::derive(run.derive(stream), d));
        Seeds {
            fill: run.derive(1),
            iso: per_design(2),
            podem: per_design(3),
        }
    }
}

type Design = (PipelineModel, ScanNetlist);

/// The deterministic outputs of one design in one pass. Two passes of
/// one seed must agree on all of it, at any thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Signature {
    faults: usize,
    detected: usize,
    chain_tested: usize,
    untestable: usize,
    aborted: usize,
    cells: usize,
    vectors: usize,
    cycles: u64,
    vectors_digest: u64,
    decisions: u64,
    backtracks: u64,
    gate_evals: u64,
    iso_injected: usize,
    iso_detected: usize,
    iso_unique: usize,
}

struct DesignPass {
    sig: Signature,
    atpg_ms: f64,
    metrics: AtpgMetrics,
    /// Isolated faults whose own component was missing from the
    /// candidates.
    iso_misattributed: usize,
}

fn vectors_digest(run: &rescue_atpg::AtpgRun) -> u64 {
    let mut h = Fnv64::new();
    for v in &run.vectors {
        h.write_u64(v.inputs.len() as u64);
        for &b in &v.inputs {
            h.write(&[u8::from(b)]);
        }
        h.write_u64(v.state.len() as u64);
        for &b in &v.state {
            h.write(&[u8::from(b)]);
        }
    }
    h.finish()
}

fn run_design(
    (_, scanned): &Design,
    name: &str,
    config: &AtpgConfig,
    iso_seed: u64,
) -> Result<DesignPass, String> {
    let t = Instant::now();
    let run = {
        let _s = trace::span(&format!("atpg.run.{name}"));
        Atpg::new(scanned, config.clone())
            .and_then(|a| a.run())
            .map_err(|e| format!("{name}: {e}"))?
    };
    let atpg_ms = t.elapsed().as_secs_f64() * 1e3;

    let _s = trace::span("atpg.isolate");
    let mut detected: Vec<Fault> = run
        .classes
        .iter()
        .filter(|(_, &c)| c == FaultClass::Detected)
        .map(|(&f, _)| f)
        .collect();
    detected.sort_unstable();
    let sample = SplitMix64::new(iso_seed).choose_multiple(&detected, ISO_SAMPLE);
    let iso = Isolator::new(scanned, &run.vectors);
    let outcomes = iso.isolate_many(&sample, config.threads);
    let mut iso_misattributed = 0;
    for (f, o) in sample.iter().zip(&outcomes) {
        if let Some(comp) = scanned.netlist.fault_component(*f) {
            if o.detected() && !o.candidates.contains(&comp) {
                iso_misattributed += 1;
            }
        }
    }
    let sig = Signature {
        faults: run.stats.faults,
        detected: run.count(FaultClass::Detected),
        chain_tested: run.count(FaultClass::ChainTested),
        untestable: run.count(FaultClass::Untestable),
        aborted: run.count(FaultClass::Aborted),
        cells: run.stats.cells,
        vectors: run.stats.vectors,
        cycles: run.stats.cycles,
        vectors_digest: vectors_digest(&run),
        decisions: run.metrics.counts.podem_decisions,
        backtracks: run.metrics.counts.podem_backtracks,
        gate_evals: run.metrics.counts.fsim_gate_evals,
        iso_injected: sample.len(),
        iso_detected: outcomes.iter().filter(|o| o.detected()).count(),
        iso_unique: outcomes.iter().filter(|o| o.unique()).count(),
    };
    Ok(DesignPass {
        sig,
        atpg_ms,
        metrics: run.metrics,
        iso_misattributed,
    })
}

fn pass(designs: &[Design], seeds: &Seeds, threads: usize) -> Result<Vec<DesignPass>, String> {
    let _s = trace::span("pass");
    let config = AtpgConfig {
        fill_seed: seeds.fill,
        threads,
        ..AtpgConfig::default()
    };
    designs
        .iter()
        .zip(DESIGNS)
        .zip(seeds.iso)
        .map(|((d, (_, name)), iso_seed)| run_design(d, name, &config, iso_seed))
        .collect()
}

/// Check one pass: every operation succeeded, the outputs are
/// internally consistent, and they match the first pass exactly.
fn check_pass(
    checks: &mut Checks,
    label: &str,
    result: &Result<Vec<DesignPass>, String>,
    reference: Option<&[Signature]>,
) {
    let passes = match result {
        Ok(p) => p,
        Err(e) => {
            checks.check(false, || format!("{label}: {e}"));
            return;
        }
    };
    for (i, (p, (_, name))) in passes.iter().zip(DESIGNS).enumerate() {
        let s = &p.sig;
        checks.check(true, String::new); // Atpg::run
        checks.check(true, String::new); // isolate_many
        checks.check(
            s.detected + s.chain_tested + s.untestable + s.aborted == s.faults,
            || format!("{label} {name}: fault classes do not sum to {}", s.faults),
        );
        checks.check(s.iso_detected == s.iso_injected, || {
            format!(
                "{label} {name}: {} of {} detected faults escaped their own vectors",
                s.iso_injected - s.iso_detected,
                s.iso_injected
            )
        });
        checks.check(p.iso_misattributed == 0, || {
            format!(
                "{label} {name}: {} isolations miss the faulty component",
                p.iso_misattributed
            )
        });
        if let Some(r) = reference {
            checks.check(*s == r[i], || {
                format!(
                    "{label} {name}: outputs differ from the first pass: {s:?} vs {:?}",
                    r[i]
                )
            });
        }
    }
    if let [b, r] = passes.as_slice() {
        checks.check(r.sig.cells > b.sig.cells, || {
            format!("{label}: Rescue has no more scan cells than the baseline")
        });
    }
}

/// What the per-layer probes measured, summed over both designs.
struct Probe {
    gates: usize,
    faults: usize,
    proven: usize,
    targets: usize,
    sample_us: Vec<f64>,
    aborted_us: f64,
}

/// Per-layer probes around the public calls a pass makes inside
/// `Atpg::run`: levelize, collapse, the implication pre-pass over the
/// non-chain faults, and a seeded sample of direct PODEM calls.
fn probe(designs: &[Design], seeds: &Seeds) -> Probe {
    let _s = trace::span("probe");
    let mut p = Probe {
        gates: 0,
        faults: 0,
        proven: 0,
        targets: 0,
        sample_us: Vec::new(),
        aborted_us: 0.0,
    };
    for (i, (_, scanned)) in designs.iter().enumerate() {
        let lev = {
            let _s = trace::span("netlist.levelize");
            Levelized::new(&scanned.netlist)
        };
        let faults = {
            let _s = trace::span("netlist.collapse");
            scanned.netlist.collapse_faults()
        };
        p.gates += lev.num_gates();
        p.faults += faults.len();
        let atpg = Atpg::new(scanned, AtpgConfig::default()).expect("scan design is well-formed");
        let constraints = atpg.capture_constraints();
        let targets: Vec<Fault> = faults
            .iter()
            .copied()
            .filter(|&f| !atpg.is_chain_fault(f))
            .collect();
        let mut engine = {
            let _s = trace::span("lint.impl_build");
            ImplicationEngine::from_levelized(&lev, &constraints)
        };
        {
            let _s = trace::span("lint.prove");
            p.proven += targets
                .iter()
                .filter(|&&f| engine.prove_fault_levelized(&lev, f))
                .count();
        }
        p.targets += targets.len();

        let podem = Podem::new(&scanned.netlist, constraints, PodemConfig::default());
        for f in SplitMix64::new(seeds.podem[i]).choose_multiple(&targets, PODEM_SAMPLE) {
            let _s = trace::span("podem.generate");
            let t = Instant::now();
            let r = std::hint::black_box(podem.generate(f));
            let us = t.elapsed().as_secs_f64() * 1e6;
            if matches!(r, PodemResult::Aborted) {
                p.aborted_us += us;
            }
            p.sample_us.push(us);
        }
    }
    p
}

/// Run the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut checks = Checks::default();

    trace::set_recording(run.traced);
    let (designs, setup_s) = median_setup(SETUP_REPS, || {
        let _s = trace::span("setup");
        DESIGNS
            .iter()
            .map(|&(v, _)| {
                let m = {
                    let _s = trace::span("model.build");
                    build_pipeline(&ModelParams::tiny(), v)
                };
                let s = {
                    let _s = trace::span("netlist.scan");
                    insert_scan(&m.netlist).expect("the pipeline model has state")
                };
                (m, s)
            })
            .collect::<Vec<Design>>()
    });

    trace::set_recording(false);
    let seeds = Seeds::new(run);
    let ps = passes(run, |_| pass(&designs, &seeds, THREADS));
    let untraced = &ps.untraced;
    let reference: Option<Vec<Signature>> = untraced[0]
        .0
        .as_ref()
        .ok()
        .map(|p| p.iter().map(|d| d.sig.clone()).collect());
    for (i, (r, _)) in untraced.iter().enumerate() {
        check_pass(
            &mut checks,
            &format!("pass {i}"),
            r,
            reference.as_deref().filter(|_| i > 0),
        );
    }

    let walls = ps.walls();
    let good: Vec<&Vec<DesignPass>> = untraced
        .iter()
        .filter_map(|(r, _)| r.as_ref().ok())
        .collect();
    let atpg_ms =
        |i: usize| median(&good.iter().map(|p| p[i].atpg_ms).collect::<Vec<_>>()).unwrap_or(0.0);
    let first = good.first().map(|p| p.as_slice()).unwrap_or(&[]);
    let detected: usize = first.iter().map(|d| d.sig.detected).sum();
    let aborted: usize = first.iter().map(|d| d.sig.aborted).sum();
    let coverage_pct = 100.0 * detected as f64 / (detected + aborted).max(1) as f64;
    let test_vectors: usize = first.iter().map(|d| d.sig.vectors).sum();

    out.note("atpg_ms.baseline", atpg_ms(0), "ms");
    out.note("atpg_ms.rescue", atpg_ms(1), "ms");
    out.note("coverage_pct", coverage_pct, "%");
    out.note("test_vectors", test_vectors, "count");
    out.note("passes", untraced.len(), "count");
    for (d, (_, name)) in first.iter().zip(DESIGNS) {
        out.report.push(format!("counts.{name} {:?}", d.sig));
    }

    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    if run.traced {
        let traced = &ps.traced;
        trace::set_recording(true);
        let probe = probe(&designs, &seeds);
        trace::set_recording(false);
        for (i, (r, _)) in traced.iter().enumerate() {
            check_pass(
                &mut checks,
                &format!("traced pass {i}"),
                r,
                reference.as_deref(),
            );
        }
        // The same seed at one fault-simulation thread must reproduce
        // every count and vector bit.
        let single = pass(&designs, &seeds, 1);
        check_pass(&mut checks, "1-thread pass", &single, reference.as_deref());

        let spans = trace::spans();
        let n_traced = traced.len() as f64;
        let per_pass = |name: &str| trace::total_ms(&spans, name) / n_traced;
        let per_call = |name: &str| trace::median_ms(&spans, name);
        let sum_counts =
            |f: &dyn Fn(&AtpgMetrics) -> f64| -> f64 { first.iter().map(|d| f(&d.metrics)).sum() };
        let t_first = traced[0].0.as_ref().ok();
        let sum_timing = |f: &dyn Fn(&AtpgMetrics) -> u64| -> f64 {
            t_first.map_or(0.0, |p| p.iter().map(|d| f(&d.metrics) as f64 / 1e6).sum())
        };
        let decisions = sum_counts(&|m| m.counts.podem_decisions as f64);
        let backtracks = sum_counts(&|m| m.counts.podem_backtracks as f64);
        let podem_ms = sum_timing(&|m| m.timing.generate_ns);
        let steps = decisions + backtracks;
        // ns per step per gate, pooled: each design's steps weighted by
        // its own gate count.
        let gate_steps: f64 = first
            .iter()
            .zip(&designs)
            .map(|(d, (_, s))| {
                (d.metrics.counts.podem_decisions + d.metrics.counts.podem_backtracks) as f64
                    * s.netlist.num_gates() as f64
            })
            .sum();
        let merges = sum_counts(&|m| m.counts.merges_merged as f64);
        let merge_tries = sum_counts(&|m| m.counts.merges_attempted as f64);
        let dropped = sum_counts(&|m| m.counts.faults_dropped_by_sim as f64);
        let iso_unique: usize = first.iter().map(|d| d.sig.iso_unique).sum();
        let iso_injected: usize = first.iter().map(|d| d.sig.iso_injected).sum();
        let sample_total: f64 = probe.sample_us.iter().sum();
        let sample_tail = tail(&probe.sample_us);

        layer = vec![
            ("atpg_ms.baseline", atpg_ms(0)),
            ("atpg_ms.rescue", atpg_ms(1)),
            ("coverage_pct", coverage_pct),
            ("test_vectors", test_vectors as f64),
            ("trace.covered_frac", trace::covered_frac(&spans, "pass")),
            ("obs.trace_overhead_pct", ps.overhead_pct()),
            ("model.build_ms", per_call("model.build")),
            ("netlist.scan_ms", per_call("netlist.scan")),
            ("netlist.levelize_ms", per_call("netlist.levelize")),
            ("netlist.collapse_ms", per_call("netlist.collapse")),
            ("netlist.gates", probe.gates as f64),
            ("netlist.faults", probe.faults as f64),
            ("lint.impl_build_ms", per_call("lint.impl_build")),
            ("lint.prove_ms", per_call("lint.prove")),
            ("lint.proven", probe.proven as f64),
            (
                "lint.proven_frac",
                probe.proven as f64 / probe.targets.max(1) as f64,
            ),
            ("atpg.podem_ms", podem_ms),
            ("atpg.podem.decisions", decisions),
            ("atpg.podem.backtracks", backtracks),
            ("atpg.podem.aborted", aborted as f64),
            ("atpg.podem.ns_per_step", podem_ms * 1e6 / steps.max(1.0)),
            (
                "atpg.podem.ns_per_gate_step",
                podem_ms * 1e6 / gate_steps.max(1.0),
            ),
            (
                "atpg.podem.sample_p50_us",
                median(&probe.sample_us).unwrap_or(0.0),
            ),
            (
                "atpg.podem.sample_tail_us",
                sample_tail.map_or(0.0, |t| t.value),
            ),
            (
                "atpg.podem.sample_tail_pct",
                sample_tail.map_or(0.0, |t| t.pct),
            ),
            ("atpg.podem.sample_n", probe.sample_us.len() as f64),
            (
                "atpg.podem.abort_time_frac",
                probe.aborted_us / sample_total.max(1e-9),
            ),
            ("atpg.fsim_ms", sum_timing(&|m| m.timing.fsim_ns)),
            (
                "atpg.fsim.gate_evals",
                sum_counts(&|m| m.counts.fsim_gate_evals as f64),
            ),
            ("atpg.fsim.drop_frac", dropped / detected.max(1) as f64),
            ("atpg.compact_ms", sum_timing(&|m| m.timing.compact_ns)),
            ("atpg.fill_ms", sum_timing(&|m| m.timing.fill_ns)),
            ("atpg.merge_frac", merges / merge_tries.max(1.0)),
            ("atpg.isolate_ms", per_pass("atpg.isolate")),
            (
                "atpg.isolated_frac",
                iso_unique as f64 / iso_injected.max(1) as f64,
            ),
        ];
    }

    layer.push(("failed_frac", checks.failed_frac()));
    out.e2e = bench::e2e(setup_s, &walls, &checks);
    out.layer = layer;
    out.checks = checks;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(seed: u64) -> Seeds {
        Seeds::new(&Run {
            seed,
            seconds: 1.0,
            traced: false,
        })
    }

    #[test]
    fn one_seed_gives_one_input_set_and_two_seeds_differ() {
        assert_eq!(seeds(1), seeds(1));
        let (a, b) = (seeds(1), seeds(2));
        assert_ne!(a.fill, b.fill);
        assert_ne!(a.iso, b.iso);
        assert_ne!(a.podem, b.podem);
        let mut all = vec![a.fill, a.iso[0], a.iso[1], a.podem[0], a.podem[1]];
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 5, "every input gets its own seed");
    }
}
