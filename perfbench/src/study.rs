//! `yield-study`: `experiments::fig8` plus `experiments::fig9` for both
//! PWP scenarios, as the `all` bench runs them, at a reduced
//! `n_instr`. It touches no netlist or ATPG code: trace generation,
//! pipesim and the figure functions do all the work.

use crate::bench::{self, median_setup, passes, Checks, Outcome, Run};
use crate::stats::median;
use crate::trace;
use rescue_core::experiments::{self, Fig8Params, Fig8Row, Fig9Params, Fig9Point};
use rescue_pipesim::{simulate, CoreConfig, Policy, SimConfig};
use rescue_workloads::{spec2000_profiles, BenchmarkProfile, TraceGenerator, TraceInstr};
use rescue_yield::{relative_yat, ClassCounts, Scenario, YatInputs};
use std::time::Instant;

/// Instructions per Figure-8 simulation (`all --quick` uses 10 000).
const FIG8_INSTR: u64 = 4_000;
/// Instructions per Figure-9 simulation point (`all --quick` uses 5 000).
const FIG9_INSTR: u64 = 800;
/// Figure fan-out worker threads of the timed passes.
const THREADS: usize = 2;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 21;
/// Instructions per benchmark of the warm-up Figure-8 sweep. The study
/// has no set-up of its own beyond building its parameters, about a
/// microsecond; its set-up is this warm-up, which brings in the code,
/// the allocator state and the worker threads the timed passes use.
const WARMUP_INSTR: u64 = 500;
/// Instructions per benchmark in the trace-generation and pipesim probes.
const PROBE_INSTR: u64 = 20_000;

const TRACE_STREAM: u64 = 21;

/// Everything the study is run from.
struct Inputs {
    profiles: Vec<BenchmarkProfile>,
    fig8: Fig8Params,
    fig9: Fig9Params,
    scenarios: [Scenario; 2],
    degraded: Vec<CoreConfig>,
}

fn inputs(seed: u64, threads: usize) -> Inputs {
    Inputs {
        profiles: spec2000_profiles(),
        fig8: Fig8Params {
            n_instr: FIG8_INSTR,
            seed,
            benchmarks: None,
            threads,
        },
        fig9: Fig9Params {
            n_instr: FIG9_INSTR,
            seed,
            threads,
            ..Fig9Params::default()
        },
        scenarios: [
            Scenario::pwp_stagnates_at_90nm(),
            Scenario::pwp_stagnates_at_65nm(),
        ],
        degraded: CoreConfig::all_degraded(),
    }
}

/// Instructions one pass simulates: Figure 8 runs baseline and Rescue
/// per benchmark; each Figure-9 panel runs, per node and benchmark, one
/// healthy baseline and every degraded Rescue configuration.
fn pass_instructions(i: &Inputs) -> u64 {
    pass_simulations(i).0 * i.fig8.n_instr + pass_simulations(i).1 * i.fig9.n_instr
}

/// `simulate` calls of one pass: (Figure 8, both Figure-9 panels).
fn pass_simulations(i: &Inputs) -> (u64, u64) {
    let benches = i.profiles.len() as u64;
    let fig9 = 2 * i.fig9.nodes.len() as u64 * benches * (1 + i.degraded.len() as u64);
    (2 * benches, fig9)
}

/// One Figure-8 row, bit for bit: name, baseline and Rescue IPC, and
/// their simulated cycles.
type Fig8Bits = (String, u64, u64, u64, u64);
/// One Figure-9 point, bit for bit: node, growth, cores, and the none,
/// core-sparing and Rescue relative YAT.
type Fig9Bits = (u64, u64, usize, u64, u64, u64);

/// The study's outputs, bit for bit.
#[derive(Clone, Debug, PartialEq)]
struct Figures {
    fig8: Vec<Fig8Bits>,
    fig9: Vec<Vec<Fig9Bits>>,
}

fn figures(f8: &[Fig8Row], f9: [&[Fig9Point]; 2]) -> Figures {
    Figures {
        fig8: f8
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.baseline_ipc.to_bits(),
                    r.rescue_ipc.to_bits(),
                    r.baseline_result.cycles,
                    r.rescue_result.cycles,
                )
            })
            .collect(),
        fig9: f9
            .iter()
            .map(|panel| {
                panel
                    .iter()
                    .map(|p| {
                        (
                            p.node_nm.to_bits(),
                            p.growth.to_bits(),
                            p.yat.cores,
                            p.yat.none.to_bits(),
                            p.yat.core_sparing.to_bits(),
                            p.yat.rescue.to_bits(),
                        )
                    })
                    .collect()
            })
            .collect(),
    }
}

fn pass(i: &Inputs) -> Figures {
    let _s = trace::span("pass");
    let f8 = {
        let _s = trace::span("core.fig8");
        experiments::fig8(&i.fig8)
    };
    let a = {
        let _s = trace::span("core.fig9.a");
        experiments::fig9(&i.scenarios[0], &i.fig9)
    };
    let b = {
        let _s = trace::span("core.fig9.b");
        experiments::fig9(&i.scenarios[1], &i.fig9)
    };
    figures(&f8, [&a, &b])
}

/// Sanity of one pass's numbers: positive finite IPCs, and the ordering
/// Rescue ≥ core sparing ≥ none at the points the paper's Figure-9
/// comparisons are made: 32 and 18 nm on panel a, 18 nm on panel b.
fn check_figures(checks: &mut Checks, label: &str, f: &Figures) {
    let ipcs_ok = f.fig8.iter().all(|r| {
        let (b, s) = (f64::from_bits(r.1), f64::from_bits(r.2));
        b.is_finite() && s.is_finite() && b > 0.0 && s > 0.0
    });
    checks.check(ipcs_ok, || {
        format!("{label}: a Figure-8 IPC is not positive and finite")
    });
    for (panel, points) in f.fig9.iter().enumerate() {
        for p in points {
            let node = f64::from_bits(p.0);
            let (none, spare, resc) = (
                f64::from_bits(p.3),
                f64::from_bits(p.4),
                f64::from_bits(p.5),
            );
            if node <= if panel == 0 { 32.0 } else { 18.0 } {
                checks.check(resc >= spare && spare >= none, || {
                    format!(
                        "{label}: Figure 9 panel {panel} at {node} nm: rescue {resc}, \
                         sparing {spare}, none {none} out of order"
                    )
                });
            }
        }
    }
}

/// Trace generation alone, then pipesim alone on the pre-generated
/// traces: (trace Minstr/s, pipesim Minstr/s, simulated cycles).
fn probe(i: &Inputs) -> (f64, f64, u64) {
    let _s = trace::span("probe");
    let gen_s = {
        let _s = trace::span("workloads.trace");
        let t = Instant::now();
        for p in &i.profiles {
            let n = TraceGenerator::new(p, i.fig8.seed)
                .take(PROBE_INSTR as usize)
                .map(|x| std::hint::black_box(x).src_deps[0].unwrap_or(0) as u64)
                .sum::<u64>();
            std::hint::black_box(n);
        }
        t.elapsed().as_secs_f64()
    };
    // A trace longer than the committed count: the front end runs ahead.
    let traces: Vec<Vec<TraceInstr>> = i
        .profiles
        .iter()
        .map(|p| {
            TraceGenerator::new(p, i.fig8.seed)
                .take(2 * PROBE_INSTR as usize)
                .collect()
        })
        .collect();
    let cfg = SimConfig::paper(Policy::Rescue);
    let mut cycles = 0;
    let sim_s = {
        let _s = trace::span("pipesim.simulate");
        let t = Instant::now();
        for tr in traces {
            let r = simulate(&cfg, &CoreConfig::healthy(), tr, PROBE_INSTR);
            cycles += r.cycles;
        }
        t.elapsed().as_secs_f64()
    };
    let instr = (i.profiles.len() as u64 * PROBE_INSTR) as f64 / 1e6;
    (instr / gen_s.max(1e-9), instr / sim_s.max(1e-9), cycles)
}

/// The YAT math alone: the `relative_yat` calls both Figure-9 panels
/// make, over a synthetic IPC table. Returns milliseconds.
fn yat_ms(i: &Inputs) -> f64 {
    let _s = trace::span("yield.yat");
    let ipc = |c: ClassCounts| 1.0 - 0.02 * c.iter().filter(|&&x| x < 2).count() as f64;
    let t = Instant::now();
    for scenario in &i.scenarios {
        for &node in &i.fig9.nodes {
            for &growth in &i.fig9.growths {
                for _ in &i.profiles {
                    let inputs = YatInputs {
                        ipc_baseline: 1.05,
                        ipc_rescue: &ipc,
                    };
                    std::hint::black_box(relative_yat(scenario, node, growth, &inputs));
                }
            }
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Run the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let seed = run.derive(TRACE_STREAM);

    let (inp, setup_s) = median_setup(SETUP_REPS, || {
        let i = inputs(seed, THREADS);
        experiments::fig8(&Fig8Params {
            n_instr: WARMUP_INSTR,
            ..i.fig8.clone()
        });
        i
    });

    let ps = passes(run, |_| pass(&inp));
    let untraced = &ps.untraced;
    let reference = untraced[0].0.clone();
    check_figures(&mut checks, "pass 0", &reference);
    for (p, (f, _)) in untraced.iter().enumerate().skip(1) {
        checks.check(*f == reference, || {
            format!("pass {p}: figures differ from pass 0")
        });
    }

    let walls = ps.walls();
    let instr = pass_instructions(&inp) as f64;
    let sim_rate = instr / 1e6 / median(&walls).unwrap_or(f64::INFINITY);
    let f8_deg: f64 = reference
        .fig8
        .iter()
        .map(|r| 100.0 * (1.0 - f64::from_bits(r.2) / f64::from_bits(r.1)))
        .sum::<f64>()
        / reference.fig8.len().max(1) as f64;
    let f8_cycles: u64 = reference.fig8.iter().map(|r| r.3 + r.4).sum();
    out.note("sim_minstr_per_s", sim_rate, "Minstr/s");
    out.note("instructions_per_pass", instr, "count");
    out.note("passes", untraced.len(), "count");
    out.note("fig8.mean_degradation_pct", f8_deg, "%");
    out.note("fig8.cycles", f8_cycles, "count");
    for (panel, points) in ["a", "b"].iter().zip(&reference.fig9) {
        if let Some(p) = points.last() {
            out.report.push(format!(
                "fig9.{panel}.last node={} growth={} none={} sparing={} rescue={}",
                f64::from_bits(p.0),
                f64::from_bits(p.1),
                f64::from_bits(p.3),
                f64::from_bits(p.4),
                f64::from_bits(p.5)
            ));
        }
    }

    let mut layer = Vec::new();
    if run.traced {
        let traced = &ps.traced;
        trace::set_recording(true);
        let (trace_rate, pipe_rate, cycles) = probe(&inp);
        let yat = yat_ms(&inp);
        trace::set_recording(false);
        for (p, (f, _)) in traced.iter().enumerate() {
            checks.check(*f == reference, || {
                format!("traced pass {p}: figures differ")
            });
        }
        // The figures must not depend on the fan-out width.
        let single = pass(&inputs(seed, 1));
        checks.check(single == reference, || {
            "1-thread figures differ from 2-thread ones".to_owned()
        });
        let spans = trace::spans();
        let med = |name: &str| trace::median_ms(&spans, name);
        let pass_self: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "pass")
            .map(|(id, _)| trace::self_ns(&spans, id) as f64 / 1e6)
            .collect();
        let (s8, s9) = pass_simulations(&inp);
        layer = vec![
            ("sim_minstr_per_s", sim_rate),
            ("trace.covered_frac", trace::covered_frac(&spans, "pass")),
            ("obs.trace_overhead_pct", ps.overhead_pct()),
            ("workloads.trace_minstr_per_s", trace_rate),
            ("pipesim.minstr_per_s", pipe_rate),
            ("pipesim.cycles", cycles as f64),
            ("pipesim.calls", (s8 + s9) as f64),
            ("yield.yat_ms", yat),
            ("core.fig8_ms", med("core.fig8")),
            ("core.fig9_ms.a", med("core.fig9.a")),
            ("core.fig9_ms.b", med("core.fig9.b")),
            ("core.self_ms", median(&pass_self).unwrap_or(0.0)),
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

    fn first_instrs(workload_seed: u64) -> Vec<TraceInstr> {
        let run = Run {
            seed: workload_seed,
            seconds: 1.0,
            traced: false,
        };
        let i = inputs(run.derive(TRACE_STREAM), THREADS);
        assert_eq!(i.fig8.seed, i.fig9.seed);
        TraceGenerator::new(&i.profiles[0], i.fig8.seed)
            .take(200)
            .collect()
    }

    #[test]
    fn one_seed_gives_one_trace_and_two_seeds_differ() {
        assert_eq!(first_instrs(1), first_instrs(1));
        assert_ne!(first_instrs(1), first_instrs(2));
    }

    #[test]
    fn pass_size_follows_the_figure_parameters() {
        let i = inputs(1, 2);
        assert_eq!(pass_simulations(&i), (46, 2 * 4 * 23 * 65));
        assert_eq!(
            pass_instructions(&i),
            46 * FIG8_INSTR + 2 * 4 * 23 * 65 * FIG9_INSTR
        );
    }
}
