//! Property-style randomized cross-checks of the event-driven fault
//! simulator: on seeded random netlists, its observations must match
//! full faulty re-simulation at every lane width, and sharded detection
//! must be invariant to the worker count.

use rescue_atpg::{Atpg, AtpgConfig, FaultShards, FaultSim, Isolator, LaneShards, Observation};
use rescue_netlist::{
    scan::insert_scan, Fault, Levelized, NetId, NetlistBuilder, PatternBlock, StuckAt,
};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random combinational cone over a handful of inputs, with random
/// flip-flops and primary outputs hanging off it. Gates only reference
/// earlier nets, so the result is always acyclic.
fn random_netlist(rng: &mut SplitMix64) -> rescue_netlist::Netlist {
    let mut b = NetlistBuilder::new();
    b.enter_component("rand");
    let n_inputs = 3 + rng.below(5);
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    let n_gates = 10 + rng.below(40);
    for _ in 0..n_gates {
        let a = nets[rng.below(nets.len())];
        let c = nets[rng.below(nets.len())];
        let out = match rng.below(8) {
            0 => b.and2(a, c),
            1 => b.or2(a, c),
            2 => b.xor2(a, c),
            3 => b.nand2(a, c),
            4 => b.nor2(a, c),
            5 => b.xnor2(a, c),
            6 => b.not(a),
            _ => {
                let s = nets[rng.below(nets.len())];
                b.mux(s, a, c)
            }
        };
        nets.push(out);
    }
    for i in 0..(1 + rng.below(4)) {
        let d = nets[rng.below(nets.len())];
        b.dff(d, &format!("r{i}"));
    }
    for i in 0..(1 + rng.below(3)) {
        let o = nets[rng.below(nets.len())];
        b.output(o, &format!("o{i}"));
    }
    b.finish().unwrap()
}

fn random_block(rng: &mut SplitMix64, n: &rescue_netlist::Netlist) -> PatternBlock {
    PatternBlock {
        inputs: (0..n.inputs().len()).map(|_| rng.next()).collect(),
        state: (0..n.num_dffs()).map(|_| rng.next()).collect(),
    }
}

/// Reference observations by brute force: re-simulate the whole netlist
/// with the fault injected and diff every capture point.
fn reference_observations(
    n: &rescue_netlist::Netlist,
    block: &PatternBlock,
    fault: rescue_netlist::Fault,
) -> Vec<(Observation, u64)> {
    let good = n.simulate(block);
    let full = n.simulate_faulty(block, fault);
    let mut want: Vec<(Observation, u64)> = Vec::new();
    for (i, d) in n.dffs().iter().enumerate() {
        let diff = full.nets[d.d().index()] ^ good.nets[d.d().index()];
        if diff != 0 {
            want.push((Observation::ScanCell(i), diff));
        }
    }
    for (oi, (_, net)) in n.outputs().iter().enumerate() {
        let diff = full.nets[net.index()] ^ good.nets[net.index()];
        if diff != 0 {
            want.push((Observation::PrimaryOutput(oi), diff));
        }
    }
    want.sort();
    want
}

#[test]
fn bucket_kernel_matches_full_resimulation_on_random_netlists() {
    let mut rng = SplitMix64(0x5eed_0001);
    for round in 0..20 {
        let n = random_netlist(&mut rng);
        let block = random_block(&mut rng, &n);
        let lev = Levelized::new(&n);
        let mut sim = FaultSim::with_levelized(&lev);
        sim.load_block(&block);
        for fault in n.enumerate_faults() {
            assert_eq!(
                sim.observations(fault),
                reference_observations(&n, &block, fault),
                "round {round}, fault {fault}"
            );
        }
    }
}

/// A group of `count` independent random blocks, so wide lane groups
/// contain real cross-word variety.
fn derived_blocks(
    rng: &mut SplitMix64,
    n: &rescue_netlist::Netlist,
    count: usize,
) -> Vec<PatternBlock> {
    (0..count).map(|_| random_block(rng, n)).collect()
}

#[test]
fn wide_ppsfp_masks_match_bucket_per_block_on_random_netlists() {
    let mut rng = SplitMix64(0x5eed_0004);
    for round in 0..8 {
        let n = random_netlist(&mut rng);
        let blocks = derived_blocks(&mut rng, &n, 8);
        let lev = Levelized::new(&n);
        let faults = n.enumerate_faults();

        // Reference: per-block 64-wide masks from the width-1 simulator,
        // which the test above holds to full re-simulation.
        let mut w1 = FaultSim::with_levelized(&lev);
        let mut per_block: Vec<Vec<u64>> = Vec::new();
        for b in &blocks {
            w1.load_block(b);
            per_block.push(faults.iter().map(|&f| w1.detect_mask(f)).collect());
        }

        // W=4 (two groups) and W=8 (one group) must reproduce every
        // per-block word and the same global first lane.
        let mut w4: FaultSim<4> = FaultSim::wide(&lev);
        let mut w8: FaultSim<8> = FaultSim::wide(&lev);
        w8.load_blocks(&blocks);
        for (fi, &f) in faults.iter().enumerate() {
            let m8 = w8.detect_mask_wide(f);
            for word in 0..8 {
                assert_eq!(
                    m8[word], per_block[word][fi],
                    "round {round}, fault {f}, word {word}"
                );
            }
            let want_lane = (0..8).find_map(|j| {
                let m = per_block[j][fi];
                (m != 0).then(|| j as u32 * 64 + m.trailing_zeros())
            });
            assert_eq!(w8.first_detecting_lane(f), want_lane, "round {round}, {f}");
        }
        for (g, chunk) in blocks.chunks(4).enumerate() {
            w4.load_blocks(chunk);
            for (fi, &f) in faults.iter().enumerate() {
                let m4 = w4.detect_mask_wide(f);
                for word in 0..4 {
                    assert_eq!(
                        m4[word],
                        per_block[g * 4 + word][fi],
                        "round {round}, fault {f}, group {g}, word {word}"
                    );
                }
            }
        }
    }
}

#[test]
fn lane_shards_group_detection_is_thread_and_width_invariant() {
    let mut rng = SplitMix64(0x5eed_0005);
    for round in 0..6 {
        let n = random_netlist(&mut rng);
        let blocks = derived_blocks(&mut rng, &n, 8);
        let lev = Levelized::new(&n);
        let faults = n.collapse_faults();

        // Reference: sequential W=1 scan over the 8 blocks, folding the
        // per-block lane into a group-global lane (block * 64 + bit).
        let mut reference = FaultSim::with_levelized(&lev);
        let want: Vec<Option<u32>> = faults
            .iter()
            .map(|&f| {
                blocks.iter().enumerate().find_map(|(j, b)| {
                    reference.load_block(b);
                    reference
                        .first_detecting_lane(f)
                        .map(|lane| j as u32 * 64 + lane)
                })
            })
            .collect();

        let mut evals_per_width: Vec<(usize, u64)> = Vec::new();
        for lane_words in [1usize, 4, 8] {
            for threads in [1usize, 2, 8] {
                let mut shards = LaneShards::new(&lev, threads, lane_words).unwrap();
                // Fold per-group lanes into global ones exactly as the
                // ATPG loop does, but without dropping, so every width
                // sees identical work.
                let mut got: Vec<Option<u32>> = vec![None; faults.len()];
                for (g, group) in blocks.chunks(lane_words).enumerate() {
                    let lanes = shards.detect_lanes_group(group, &faults);
                    for (slot, lane) in got.iter_mut().zip(lanes) {
                        if slot.is_none() {
                            *slot = lane.map(|l| (g * lane_words * 64) as u32 + l);
                        }
                    }
                }
                assert_eq!(got, want, "round {round}, w={lane_words}, t={threads}");
                if threads == 1 {
                    evals_per_width.push((lane_words, shards.gate_evals()));
                } else {
                    let &(_, serial) = evals_per_width
                        .iter()
                        .find(|&&(w, _)| w == lane_words)
                        .unwrap();
                    assert_eq!(
                        shards.gate_evals(),
                        serial,
                        "round {round}, w={lane_words}, t={threads}: eval count must be thread-invariant"
                    );
                }
            }
        }
    }
}

/// Pin the provenance contract on a known circuit: an AND-output
/// stuck-at-0 is first detected at pattern lane 130 (block 2, bit 2) at
/// every lane width, because lanes are numbered `word * 64 + bit` in
/// vector order and padding words only replicate real blocks.
#[test]
fn first_detecting_lane_is_pinned_across_widths() {
    let mut b = NetlistBuilder::new();
    b.enter_component("pin");
    let a = b.input("a");
    let c = b.input("b");
    let y = b.and2(a, c);
    b.output(y, "o");
    let n = b.finish().unwrap();
    let fault = Fault::net(y, StuckAt::Zero);

    // Block 0 and 1 never set a AND b; block 2 does so at bit 2 (and a
    // few higher bits, which must not win).
    let blocks = [
        PatternBlock {
            inputs: vec![0, !0],
            state: vec![],
        },
        PatternBlock {
            inputs: vec![!0, 0],
            state: vec![],
        },
        PatternBlock {
            inputs: vec![(1 << 2) | (1 << 40), !0],
            state: vec![],
        },
    ];
    let lev = Levelized::new(&n);

    // W=1: per-block masks place the first detection in block 2, bit 2.
    let mut w1 = FaultSim::with_levelized(&lev);
    w1.load_block(&blocks[0]);
    assert_eq!(w1.first_detecting_lane(fault), None);
    w1.load_block(&blocks[1]);
    assert_eq!(w1.first_detecting_lane(fault), None);
    w1.load_block(&blocks[2]);
    assert_eq!(w1.first_detecting_lane(fault), Some(2));

    // W=4 and W=8 see all three blocks in one pass (plus replicated
    // padding) and must report the same global lane 2*64 + 2 = 130.
    let mut w4: FaultSim<4> = FaultSim::wide(&lev);
    w4.load_blocks(&blocks);
    assert_eq!(w4.first_detecting_lane(fault), Some(130));
    assert_eq!(w4.detecting_lane_count(fault), 2, "bits 2 and 40, once");

    let mut w8: FaultSim<8> = FaultSim::wide(&lev);
    w8.load_blocks(&blocks);
    assert_eq!(w8.first_detecting_lane(fault), Some(130));
    assert_eq!(w8.detecting_lane_count(fault), 2);

    // The ATPG-facing wrapper agrees at every width.
    for lane_words in [1usize, 4, 8] {
        let mut shards = LaneShards::new(&lev, 2, lane_words).unwrap();
        let mut lane = None;
        for (g, group) in blocks.chunks(lane_words).enumerate() {
            if lane.is_none() {
                lane = shards.detect_lanes_group(group, &[fault])[0]
                    .map(|l| (g * lane_words * 64) as u32 + l);
            }
        }
        assert_eq!(lane, Some(130), "lane_words={lane_words}");
    }
}

#[test]
fn shard_detection_is_worker_count_invariant_on_random_netlists() {
    let mut rng = SplitMix64(0x5eed_0003);
    for round in 0..10 {
        let n = random_netlist(&mut rng);
        let block = random_block(&mut rng, &n);
        let lev = Levelized::new(&n);
        let faults = n.collapse_faults();

        let mut reference = FaultSim::with_levelized(&lev);
        reference.load_block(&block);
        let want: Vec<Option<u32>> = faults
            .iter()
            .map(|&f| reference.first_detecting_lane(f))
            .collect();

        for threads in [1, 2, 8] {
            let mut shards = FaultShards::new(&lev, threads);
            assert_eq!(
                shards.detect_lanes(&block, &faults),
                want,
                "round {round}, {threads} threads"
            );
        }
    }
}

/// The per-fault isolation dictionary (`isolate_many`) is bit-identical
/// to mapping `isolate` sequentially, for any worker count.
#[test]
fn isolate_many_matches_sequential_isolation() {
    let mut b = NetlistBuilder::new();
    b.enter_component("LCX");
    let a = b.input_bus("a", 8);
    let mut acc = a[0];
    for &x in &a[1..] {
        let t = b.xor2(acc, x);
        let u = b.and2(acc, x);
        acc = b.or2(t, u);
    }
    b.dff(acc, "q");
    b.enter_component("LCY");
    let e = b.input("e");
    let y = b.or2(e, a[0]);
    b.dff(y, "ry");
    let scanned = insert_scan(&b.finish().unwrap()).unwrap();

    let run = Atpg::new(&scanned, AtpgConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let iso = Isolator::new(&scanned, &run.vectors);
    let faults = scanned.netlist.collapse_faults();

    let want: Vec<_> = faults.iter().map(|&f| iso.isolate(f)).collect();
    for threads in [1, 2, 8] {
        assert_eq!(
            iso.isolate_many(&faults, threads),
            want,
            "{threads} threads"
        );
    }
}

/// `run_prepared` with an externally built `Levelized` + collapsed
/// fault list produces exactly the same vectors, classifications, and
/// stats as `run()` — the invariant the `rescue-serve` design cache
/// relies on when it reuses both across jobs with the same netlist.
#[test]
fn run_prepared_with_cached_structures_matches_run() {
    let mut b = NetlistBuilder::new();
    b.enter_component("LCX");
    let a = b.input_bus("a", 6);
    let mut acc = a[0];
    for &x in &a[1..] {
        let t = b.xor2(acc, x);
        let u = b.and2(acc, x);
        acc = b.or2(t, u);
    }
    b.dff(acc, "q");
    b.enter_component("LCY");
    let e = b.input("e");
    let y = b.or2(e, a[0]);
    b.dff(y, "ry");
    let scanned = insert_scan(&b.finish().unwrap()).unwrap();

    let atpg = Atpg::new(&scanned, AtpgConfig::default()).unwrap();
    let direct = atpg.run().unwrap();

    let lev = Levelized::new(&scanned.netlist);
    let faults = scanned.netlist.collapse_faults();
    // Run twice from the same cached structures: reuse must not
    // perturb the result either.
    for round in 0..2 {
        let prepared = atpg.run_prepared(&lev, &faults).unwrap();
        assert_eq!(prepared.vectors, direct.vectors, "round {round}");
        assert_eq!(prepared.classes, direct.classes, "round {round}");
        assert_eq!(prepared.stats, direct.stats, "round {round}");
    }
}
