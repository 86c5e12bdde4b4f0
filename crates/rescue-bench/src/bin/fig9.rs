//! Regenerate Figure 9 (both panels): relative yield-adjusted throughput
//! for no-redundancy, core sparing, and Rescue, across technology nodes
//! and core-growth rates.

use rescue_core::experiments::{fig9_panels, Fig9Params};
use rescue_core::yield_model::Scenario;
use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init();
    let n_instr = if rescue_bench::quick_mode() {
        5_000
    } else {
        30_000
    };
    let p = Fig9Params {
        n_instr,
        threads: rescue_bench::threads_arg(),
        ..Default::default()
    };
    let csv = rescue_bench::arg_flag("--csv");
    let mut report = Report::new("fig9");
    let panels = fig9_panels(
        &[
            Scenario::pwp_stagnates_at_90nm(),
            Scenario::pwp_stagnates_at_65nm(),
        ],
        &p,
    );
    for (tag, title, points) in [
        ("a", "a: PWP stagnates at 90nm", &panels[0]),
        ("b", "b: PWP stagnates at 65nm", &panels[1]),
    ] {
        if csv {
            print!("{}", rescue_core::render::fig9_csv(points));
        } else {
            print!("{}", rescue_core::render::fig9_text(title, points));
            if tag == "a" {
                println!();
            }
        }
        rescue_bench::fig9_report(&mut report, &format!("panel_{tag}"), points);
    }
    rescue_bench::obs_finish(&obs, &mut report);
}
