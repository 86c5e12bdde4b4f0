//! Standalone fault-simulation microbench: the `fsim_kernel` lane-width
//! matrix, the n-detect dropping sweep, the 1-vs-N thread scaling row,
//! and the `obs.overhead` telemetry self-benchmark — without
//! regenerating the full table/figure suite.
//!
//! `--metrics-json PATH` writes the machine-readable report (no default
//! path, unlike `all`); `--metrics` renders it plus the
//! phase-attribution flame summary on stderr; `--repeat N`/`--warmup K`
//! fold varying metrics into median/MAD/min/IQR statistics.

use rescue_core::model::ModelParams;

fn main() {
    let obs = rescue_bench::obs_init();
    rescue_obs::global().set_enabled(true);
    let params = if rescue_bench::quick_mode() {
        ModelParams::tiny()
    } else {
        ModelParams::paper()
    };
    let threads = rescue_bench::threads_arg();

    let mut report = rescue_bench::run_repeated("fsim_kernel", &obs, |report, _first| {
        rescue_bench::fsim_kernel_report(report, &params, threads);
        rescue_bench::obs_overhead_report(report, &params);
    });

    rescue_bench::obs_finish(&obs, &mut report);
    rescue_bench::write_metrics_json(&obs, &report, None);
}
