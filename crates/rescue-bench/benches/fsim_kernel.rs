//! Fault-simulation microbench: one block swept over every fault, and
//! 1→N fault-sharding scaling, on the tiny Rescue pipeline. The `all`
//! binary records the lane-width matrix (into `BENCH_metrics.json`) via
//! `fsim_kernel_report`; this target is the quick interactive version.

use rescue_core::atpg::{resolve_threads, Atpg, AtpgConfig, FaultShards, FaultSim};
use rescue_core::model::{build_pipeline, ModelParams, Variant};
use rescue_core::netlist::{scan::insert_scan, Levelized};
use std::hint::black_box;

fn main() {
    let model = build_pipeline(&ModelParams::tiny(), Variant::Rescue);
    let scanned = insert_scan(&model.netlist).expect("model has state");
    let lev = Levelized::new(&scanned.netlist);
    let faults = scanned.netlist.collapse_faults();
    let run = Atpg::new(&scanned, AtpgConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let blocks = run.blocks(&scanned);
    let block = blocks.first().expect("ATPG produced at least one block");

    rescue_bench::bench("fsim_block_all_faults", 10, 1, || {
        let mut sim = FaultSim::with_levelized(&lev);
        sim.load_block(block);
        let mut detected = 0u32;
        for &f in &faults {
            if sim.detect_mask(f) != 0 {
                detected += 1;
            }
        }
        black_box(detected);
    });

    // Fault sharding at 1 worker vs the machine's parallelism.
    let n = resolve_threads(0);
    let mut counts = vec![1];
    if n > 1 {
        counts.push(n);
    }
    for threads in counts {
        rescue_bench::bench(&format!("fsim_shards_{threads}_threads"), 10, 1, || {
            let mut shards = FaultShards::new(&lev, threads);
            black_box(shards.detect_lanes(block, &faults));
        });
    }
}
