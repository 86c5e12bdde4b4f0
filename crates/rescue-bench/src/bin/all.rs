//! Regenerate every table and figure in sequence (EXPERIMENTS.md source).
//!
//! Always writes the combined machine-readable report to
//! `BENCH_metrics.json` in the current directory (`--metrics-json PATH`
//! overrides the destination); `--metrics` also renders it — plus the
//! phase-attribution flame summary — to stderr and `--trace-json
//! <path>` streams the spans. `--threads N` picks the fault-simulation
//! worker count (results are bit-identical for any value); the report
//! ends with the `fsim_kernel` microbench section, its 1-vs-N thread
//! scaling row, and the `obs.overhead` self-benchmark (instrumented vs
//! uninstrumented kernel throughput). `--repeat N`/`--warmup K` run the
//! whole suite K+N times and fold varying metrics into
//! median/MAD/min/IQR statistics. `--serve-metrics ADDR` exposes live
//! progress at `http://ADDR/metrics` while the run is in flight, and
//! `--progress-every N` mirrors the same counters as JSONL progress
//! frames into the trace sink.

use rescue_core::experiments::{self, Fig8Params, Fig9Params};
use rescue_core::model::{ModelParams, Variant};
use rescue_core::render;
use rescue_core::yield_model::Scenario;

fn main() {
    let obs = rescue_bench::obs_init();
    // The JSON artifact always carries span timings, so collect them
    // even without --metrics.
    rescue_obs::global().set_enabled(true);
    let quick = rescue_bench::quick_mode();
    let threads = rescue_bench::threads_arg();
    let params = if quick {
        ModelParams::tiny()
    } else {
        ModelParams::paper()
    };

    let mut report = rescue_bench::run_repeated("all", &obs, |report, first| {
        let t1 = experiments::table1();
        if first {
            print!("{}", render::table1_text(&t1));
            println!();
        }
        report.section("table1").u64("rows", t1.len() as u64);

        let (bt, ra) = experiments::table2();
        if first {
            print!("{}", render::table2_text(bt, &ra));
            println!();
        }
        report.section("table2").f64("baseline_total_mm2", bt);

        let t3 = experiments::table3_with_threads(&params, threads);
        if first {
            print!("{}", render::table3_text(&t3));
            println!();
        }
        rescue_bench::atpg_report(report, "table3.baseline", &t3.baseline_metrics);
        rescue_bench::atpg_report(report, "table3.rescue", &t3.rescue_metrics);
        for (prefix, stages) in [
            ("table3.baseline", &t3.baseline_stage_coverage),
            ("table3.rescue", &t3.rescue_stage_coverage),
        ] {
            let sec = report.section(&format!("{prefix}.coverage.stages"));
            for (stage, n) in stages {
                sec.u64(stage, *n);
            }
        }
        if first {
            rescue_bench::coverage_outputs(
                &obs,
                &[
                    ("baseline", &t3.baseline_metrics.coverage),
                    ("rescue", &t3.rescue_metrics.coverage),
                ],
            );
        }

        let per_stage = if quick { 50 } else { 1000 };
        for variant in [Variant::Rescue, Variant::Baseline] {
            let e = experiments::isolation_with_threads(&params, variant, per_stage, 42, threads);
            if first {
                print!("{}", render::isolation_text(&e));
                println!();
            }
            let tag = format!("{variant:?}").to_lowercase();
            report
                .section(&format!("isolation.{tag}"))
                .u64("injected", e.total_injected() as u64)
                .u64("isolated", e.total_isolated() as u64);
        }

        let f8 = experiments::fig8(&Fig8Params {
            n_instr: if quick { 10_000 } else { 100_000 },
            threads,
            ..Default::default()
        });
        if first {
            print!("{}", render::fig8_text(&f8));
            println!();
        }
        for row in &f8 {
            rescue_bench::sim_report(
                report,
                &format!("fig8.{}.baseline", row.name),
                &row.baseline_result,
            );
            rescue_bench::sim_report(
                report,
                &format!("fig8.{}.rescue", row.name),
                &row.rescue_result,
            );
        }

        let p9 = Fig9Params {
            n_instr: if quick { 5_000 } else { 30_000 },
            threads,
            ..Default::default()
        };
        let a = experiments::fig9(&Scenario::pwp_stagnates_at_90nm(), &p9);
        if first {
            print!("{}", render::fig9_text("a: PWP stagnates at 90nm", &a));
            println!();
        }
        report.section("fig9.panel_a").u64("points", a.len() as u64);
        let b = experiments::fig9(&Scenario::pwp_stagnates_at_65nm(), &p9);
        if first {
            print!("{}", render::fig9_text("b: PWP stagnates at 65nm", &b));
            println!();
        }
        report.section("fig9.panel_b").u64("points", b.len() as u64);

        // Static DFT lint over both variants (pre- and post-scan): the
        // diagnostic counts gate exactly in bench-diff, the SCOAP
        // aggregates ride along as informational testability telemetry.
        let lint_designs = rescue_bench::lint_report(report, &params);
        if first {
            for (label, lr) in &lint_designs {
                println!(
                    "lint {label}: {} errors, {} warnings, {} infos",
                    lr.count(rescue_lint::Severity::Error),
                    lr.count(rescue_lint::Severity::Warning),
                    lr.count(rescue_lint::Severity::Info),
                );
            }
            println!();
        }

        // Static-implication ATPG pre-pass: proven-redundant counts and
        // PODEM calls saved gate exactly; the `identical` row pins the
        // byte-identity contract (pre-pass on vs off) in bench-diff.
        rescue_bench::prepass_report(report, &params);

        // Event-kernel microbench + 1-vs-N thread scaling row, tracked
        // in BENCH_metrics.json across snapshots.
        rescue_bench::fsim_kernel_report(report, &params, threads);

        // How much does live telemetry + the phase profiler cost? Sweep
        // the same faults with both on and off; the ratio lands in
        // BENCH_metrics.json as informational `obs.overhead.*` rows.
        rescue_bench::obs_overhead_report(report, &params);
    });

    rescue_bench::obs_finish(&obs, &mut report);
    rescue_bench::write_metrics_json(&obs, &report, Some("BENCH_metrics.json"));
}
