//! Parallel-pattern single-fault-propagation (PPSFP) fault simulation.
//!
//! Good-machine values for a lane block of `W * 64` patterns (64, 256
//! or 512 for `W` ∈ {1, 4, 8}) are computed once; each fault is then
//! simulated by propagating only the *difference* it causes through the
//! fanout cone, stopping as soon as the difference dies. This is the
//! standard high-throughput architecture of commercial fault
//! simulators.
//!
//! The simulator runs over the [`Levelized`] packed view of the netlist
//! and keeps its hot `good`/`faulty` arrays in the view's **internal
//! level-order net numbering**, so the good sweep and the propagation
//! both stream; public APIs taking [`rescue_netlist::NetId`] or
//! [`Fault`] translate at the boundary.
//!
//! The faulty array starts each block as a full copy of the good
//! values, so the inner loop reads it directly (no branch per pin), and
//! a touched-net undo list restores the copy after each fault. Events
//! are ordered by logic level; because a gate only ever schedules
//! consumers at strictly higher levels, the queue is a
//! **level-indexed bucket array** with O(1) push/pop and a single
//! ascending sweep drains it. The naive full re-simulation
//! ([`Netlist::simulate_faulty`]) is the reference this kernel is
//! tested and fuzzed against.
//!
//! All per-fault scratch (the input buffer, the touched-net list, the
//! queues) lives in the `FaultSim` and is reused across calls; a
//! simulator performs no per-fault allocation in steady state.

use rescue_netlist::{Fault, FaultSite, Levelized, Netlist, PatternBlock, WideBlock};
use rescue_obs::metrics::{Counter, Gauge};

/// Where a fault effect was observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Observation {
    /// Captured into the flip-flop with this index (visible at that scan
    /// chain position after scan-out).
    ScanCell(usize),
    /// Visible at the primary output with this index.
    PrimaryOutput(usize),
}

/// Live counters for one fault simulator, aggregated across blocks.
#[derive(Debug, Default)]
pub struct FsimStats {
    /// Pattern blocks loaded (good-machine simulations). A wide load
    /// counts once per *lane block*, whatever its width.
    pub blocks_loaded: Counter,
    /// Faults simulated (difference-propagation runs).
    pub faults_simulated: Counter,
    /// Simulated faults that were detected under their block.
    pub faults_detected: Counter,
    /// Gate re-evaluations in the event-driven propagation (the unit of
    /// fault-simulation work). One wide eval counts once: at `W = 8` a
    /// single eval covers 512 patterns.
    pub gate_evals: Counter,
    /// Events pushed onto the propagation queue (queue pressure).
    pub events_queued: Counter,
    /// High-water mark of pending propagation events at any instant.
    pub queue_peak: Gauge,
}

impl FsimStats {
    /// Fold a measured queue high-water mark into the gauge (keeps the
    /// max across faults).
    fn note_queue_peak(&self, peak: usize) {
        let peak = peak as i64;
        if peak > self.queue_peak.get() {
            self.queue_peak.set(peak);
        }
    }
}

/// How the simulator holds its levelized view: built and owned by
/// [`FaultSim::new`], or borrowed from a caller that shares one across
/// many simulators (the fault-sharding layer).
#[derive(Debug)]
enum LevHandle<'a> {
    Owned(Box<Levelized>),
    Shared(&'a Levelized),
}

impl LevHandle<'_> {
    #[inline]
    fn get(&self) -> &Levelized {
        match self {
            LevHandle::Owned(l) => l,
            LevHandle::Shared(l) => l,
        }
    }
}

/// The fault as seen by the propagation inner loop: the stuck value plus
/// packed-position overrides, with sentinels instead of `Option`s so the
/// hot path stays branch-cheap. Net indices are internal level-order.
#[derive(Clone, Copy)]
struct FaultView {
    /// All-ones for stuck-at-1, all-zeros for stuck-at-0 (per word).
    stuck: u64,
    /// Packed position whose input pin is forced, or `u32::MAX`.
    gpos: u32,
    /// The forced pin index (meaningful when `gpos` is set).
    pin: usize,
    /// Internal net index forced to `stuck`, or `usize::MAX`.
    net: usize,
}

impl FaultView {
    fn new(lev: &Levelized, fault: Fault) -> Self {
        let stuck = if fault.stuck_at.is_one() { u64::MAX } else { 0 };
        match fault.site {
            FaultSite::Net(site) => FaultView {
                stuck,
                gpos: u32::MAX,
                pin: 0,
                net: lev.new_net(site.index()),
            },
            FaultSite::GateInput(g, pin) => FaultView {
                stuck,
                gpos: lev.pos_of(g),
                pin: pin as usize,
                net: usize::MAX,
            },
        }
    }

    #[inline]
    fn stuck_wide<const W: usize>(&self) -> [u64; W] {
        [self.stuck; W]
    }
}

/// Fault simulator bound to a netlist, reusable across pattern blocks.
///
/// The const parameter `W` is the lane-block width in 64-pattern words:
/// `FaultSim<'_>` (the default, `W = 1`) simulates 64 patterns per
/// pass and keeps the original `u64` API; `FaultSim<'_, 4>` /
/// `FaultSim<'_, 8>` simulate 256 / 512 patterns per pass through the
/// `_wide` methods. Lanes are numbered `word * 64 + bit` in vector
/// order, so lane indices are stable across widths.
///
/// Build with [`FaultSim::new`] (owns its levelized view),
/// [`FaultSim::with_levelized`] (borrows one shared across workers), or
/// [`FaultSim::wide`] for `W > 1`.
#[derive(Debug)]
pub struct FaultSim<'a, const W: usize = 1> {
    lev: LevHandle<'a>,
    /// Good-machine values for the current block, internal net order.
    good: Vec<[u64; W]>,
    /// Faulty values: a full copy of `good`, restored after each fault
    /// from the `touched` undo list.
    faulty: Vec<[u64; W]>,
    /// Per net: epoch when last added to `touched`.
    touched_epoch: Vec<u32>,
    /// Nets the current fault wrote (indices into `faulty`): the undo
    /// list, and the only nets observation collection has to scan.
    touched: Vec<u32>,
    epoch: u32,
    /// Per packed gate position: epoch when last queued.
    queued: Vec<u32>,
    /// One event bucket per logic level.
    buckets: Vec<Vec<u32>>,
    /// Reusable gate-input scratch.
    in_buf: Vec<[u64; W]>,
    /// Non-replicated words of the loaded lane block (`1..=W`).
    loaded_words: usize,
    stats: FsimStats,
}

impl FaultSim<'static> {
    /// Create a simulator for `netlist`, building a private levelized
    /// view. Prefer [`FaultSim::with_levelized`] when several simulators
    /// share one netlist.
    pub fn new(netlist: &Netlist) -> Self {
        Self::from_handle(LevHandle::Owned(Box::new(Levelized::new(netlist))))
    }
}

impl<'a> FaultSim<'a> {
    /// Create a simulator over a shared levelized view.
    pub fn with_levelized(lev: &'a Levelized) -> Self {
        Self::from_handle(LevHandle::Shared(lev))
    }

    /// Load a pattern block: runs the good-machine simulation.
    pub fn load_block(&mut self, block: &PatternBlock) {
        self.load_wide(&WideBlock::<1>::from_blocks(std::slice::from_ref(block)));
    }

    /// Good-machine value of a net under the loaded block.
    pub fn good_value(&self, net: rescue_netlist::NetId) -> u64 {
        self.good_wide(net)[0]
    }

    /// Simulate `fault` against the loaded block. Returns the patterns
    /// (bitmask) under which the fault is detected, or 0 if undetected.
    pub fn detect_mask(&mut self, fault: Fault) -> u64 {
        self.detect_mask_wide(fault)[0]
    }

    /// Simulate `fault` and report every observation point where a
    /// difference appears, with its pattern mask. This is the data fault
    /// isolation consumes (the failing scan positions).
    pub fn observations(&mut self, fault: Fault) -> Vec<(Observation, u64)> {
        self.observations_wide(fault)
            .into_iter()
            .map(|(o, m)| (o, m[0]))
            .collect()
    }
}

impl<'a, const W: usize> FaultSim<'a, W> {
    /// Create a `W`-word-wide simulator over a shared levelized view,
    /// e.g. `FaultSim::<8>::wide(&lev)` for 512 patterns per pass.
    pub fn wide(lev: &'a Levelized) -> Self {
        Self::from_handle(LevHandle::Shared(lev))
    }

    fn from_handle(lev: LevHandle<'a>) -> Self {
        let l = lev.get();
        let n = l.num_nets();
        let num_gates = l.num_gates();
        let num_levels = l.num_levels() as usize;
        let max_fanin = l.max_fanin();
        FaultSim {
            good: vec![[0; W]; n],
            faulty: vec![[0; W]; n],
            touched_epoch: vec![0; n],
            touched: Vec::new(),
            epoch: 0,
            queued: vec![0; num_gates],
            buckets: vec![Vec::new(); num_levels],
            in_buf: Vec::with_capacity(max_fanin),
            loaded_words: 1,
            stats: FsimStats::default(),
            lev,
        }
    }

    /// Counters aggregated across every block and fault simulated.
    pub fn stats(&self) -> &FsimStats {
        &self.stats
    }

    /// Number of non-replicated 64-pattern words in the loaded block.
    pub fn loaded_words(&self) -> usize {
        self.loaded_words
    }

    /// Load a lane block: runs the good-machine simulation for all
    /// `W * 64` patterns in one sweep and resets the faulty copy.
    pub fn load_wide(&mut self, wide: &WideBlock<W>) {
        self.lev.get().eval_wide_into(wide, &mut self.good);
        self.loaded_words = wide.real_words;
        // The inner loop reads `faulty` unconditionally, so it must
        // start as an exact copy of the good values.
        self.faulty.copy_from_slice(&self.good);
        self.stats.blocks_loaded.inc();
    }

    /// Pack `1..=W` pattern blocks (padding by replicating the last)
    /// and load them. Convenience over [`FaultSim::load_wide`].
    pub fn load_blocks(&mut self, blocks: &[PatternBlock]) {
        self.load_wide(&WideBlock::from_blocks(blocks));
    }

    /// Good-machine lane block of a net under the loaded block.
    pub fn good_wide(&self, net: rescue_netlist::NetId) -> [u64; W] {
        self.good[self.lev.get().new_net(net.index())]
    }

    /// Simulate `fault` against the loaded lane block. Word `j`, bit
    /// `k` of the result is set when pattern `j * 64 + k` detects the
    /// fault; all-zero when the block misses it. Padding words
    /// replicate their source block's word.
    pub fn detect_mask_wide(&mut self, fault: Fault) -> [u64; W] {
        let mut mask = [0u64; W];
        self.run(fault, |_, m| {
            for (acc, w) in mask.iter_mut().zip(m) {
                *acc |= w;
            }
        });
        if mask.iter().any(|&w| w != 0) {
            self.stats.faults_detected.inc();
        }
        mask
    }

    /// Lane of the first pattern in the loaded block that detects
    /// `fault`, or `None` when the block misses it. Lanes are numbered
    /// `word * 64 + bit` — the pattern's position in vector order — so
    /// the returned index is identical whatever `W` the same patterns
    /// are packed into. This is the per-vector provenance the coverage
    /// curve records.
    pub fn first_detecting_lane(&mut self, fault: Fault) -> Option<u32> {
        let mask = self.detect_mask_wide(fault);
        // Replicated padding words only duplicate detections already
        // present in the last real word, so scanning in word order
        // always lands on a real lane first.
        mask.iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(word, w)| word as u32 * 64 + w.trailing_zeros())
    }

    /// Number of distinct *real* patterns in the loaded block that
    /// detect `fault` (padding words excluded). Drives the n-detect
    /// fault-dropping policy.
    pub fn detecting_lane_count(&mut self, fault: Fault) -> u32 {
        let mask = self.detect_mask_wide(fault);
        mask.iter()
            .take(self.loaded_words)
            .map(|w| w.count_ones())
            .sum()
    }

    /// Simulate `fault` and report every observation point where a
    /// difference appears, with its per-word pattern masks.
    pub fn observations_wide(&mut self, fault: Fault) -> Vec<(Observation, [u64; W])> {
        let mut obs = Vec::new();
        self.run(fault, |o, m| obs.push((o, m)));
        obs.sort();
        obs
    }

    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear the lazily-reset maps.
            self.touched_epoch.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Core event-driven difference propagation.
    fn run(&mut self, fault: Fault, mut on_observe: impl FnMut(Observation, [u64; W])) {
        self.stats.faults_simulated.inc();
        self.bump_epoch();
        self.propagate(fault);
        let FaultSim {
            lev,
            good,
            faulty,
            touched,
            ..
        } = self;
        let lev = lev.get();
        // Collect observations: any touched net with a difference that
        // feeds a flip-flop D or a primary output. A stem fault on a net
        // that directly feeds state/outputs but is driven by input/DFF is
        // included because seeding marks the site touched. Then undo:
        // restore the full faulty copy for the next fault.
        for &net in touched.iter() {
            let ni = net as usize;
            let mut diff = [0u64; W];
            let mut any = 0u64;
            for (d, (f, g)) in diff.iter_mut().zip(faulty[ni].iter().zip(&good[ni])) {
                *d = f ^ g;
                any |= *d;
            }
            if any == 0 {
                continue;
            }
            faulty[ni] = good[ni];
            for &d in lev.fanout_dffs(ni) {
                on_observe(Observation::ScanCell(d as usize), diff);
            }
            for &o in lev.fanout_outputs(ni) {
                on_observe(Observation::PrimaryOutput(o as usize), diff);
            }
        }
    }

    fn propagate(&mut self, fault: Fault) {
        let FaultSim {
            lev,
            good,
            faulty,
            touched_epoch,
            touched,
            epoch,
            queued,
            buckets,
            in_buf,
            stats,
            ..
        } = self;
        let lev = lev.get();
        let epoch = *epoch;
        let fv = FaultView::new(lev, fault);

        let mut pending = 0usize;
        let mut pushes = 0u64;
        let mut peak = 0usize;
        let mut first_level = lev.num_levels();
        match fault.site {
            FaultSite::Net(_) => {
                let ni = fv.net;
                faulty[ni] = fv.stuck_wide();
                touched_epoch[ni] = epoch;
                touched.push(ni as u32);
                if fv.stuck_wide() != good[ni] {
                    for &pos in lev.fanout(ni) {
                        if queued[pos as usize] != epoch {
                            queued[pos as usize] = epoch;
                            let l = lev.level(pos);
                            buckets[l as usize].push(pos);
                            pending += 1;
                            first_level = first_level.min(l);
                        }
                    }
                }
            }
            FaultSite::GateInput(g, _) => {
                // Re-evaluate the gate with the pin forced.
                let pos = lev.pos_of(g);
                queued[pos as usize] = epoch;
                let l = lev.level(pos);
                buckets[l as usize].push(pos);
                pending += 1;
                first_level = l;
            }
        }
        pushes += pending as u64;
        peak = peak.max(pending);

        // A gate only schedules consumers at strictly higher levels, so a
        // single ascending sweep drains every event; nothing is ever
        // pushed at or below the level being drained.
        let mut lvl = first_level;
        while pending > 0 {
            let bucket = &mut buckets[lvl as usize];
            if bucket.is_empty() {
                lvl += 1;
                continue;
            }
            let mut bucket = std::mem::take(bucket);
            for &pos in &bucket {
                // `pending` counts unprocessed events (the rest of this
                // bucket plus all higher levels), so the peak below is
                // the exact queue high-water mark.
                pending -= 1;
                let out = eval_gate::<W>(
                    lev,
                    pos,
                    fv,
                    faulty,
                    touched_epoch,
                    touched,
                    epoch,
                    in_buf,
                    stats,
                );
                if let Some(out) = out {
                    for &cons in lev.fanout(out) {
                        if queued[cons as usize] != epoch {
                            queued[cons as usize] = epoch;
                            buckets[lev.level(cons) as usize].push(cons);
                            pending += 1;
                            pushes += 1;
                        }
                    }
                    peak = peak.max(pending);
                }
            }
            bucket.clear();
            buckets[lvl as usize] = bucket;
            lvl += 1;
        }
        stats.events_queued.add(pushes);
        stats.note_queue_peak(peak);
    }
}

/// Re-evaluate the gate at packed position `pos` under the fault.
/// Returns `Some(out_net)` (after marking it touched) when the output's
/// faulty value changed and the change must be propagated to the net's
/// consumers. `faulty` is a full copy kept exact by the undo list, so an
/// untouched net holds its good value and pins read it unconditionally.
#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_gate<const W: usize>(
    lev: &Levelized,
    pos: u32,
    fv: FaultView,
    faulty: &mut [[u64; W]],
    touched_epoch: &mut [u32],
    touched: &mut Vec<u32>,
    epoch: u32,
    in_buf: &mut Vec<[u64; W]>,
    stats: &FsimStats,
) -> Option<usize> {
    stats.gate_evals.inc();
    in_buf.clear();
    in_buf.extend(lev.inputs(pos).iter().map(|&ni| faulty[ni as usize]));
    if pos == fv.gpos {
        in_buf[fv.pin] = fv.stuck_wide();
    }
    let mut v = lev.kind(pos).eval_wide(in_buf);
    let oi = lev.out_net(pos) as usize;
    if oi == fv.net {
        v = fv.stuck_wide();
    }
    if v == faulty[oi] {
        return None;
    }
    if touched_epoch[oi] != epoch {
        touched_epoch[oi] = epoch;
        touched.push(oi as u32);
    }
    faulty[oi] = v;
    Some(oi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{NetlistBuilder, StuckAt};

    fn sample() -> rescue_netlist::Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let x = b.and2(a, bb);
        let y = b.or2(x, c);
        let z = b.xor2(x, y);
        let q = b.dff(z, "r");
        b.output(y, "o");
        b.output(q, "oq");
        b.finish().unwrap()
    }

    /// Cross-check the event-driven simulator against full faulty
    /// re-simulation on a small circuit.
    #[test]
    fn event_driven_matches_full_resimulation() {
        let n = sample();
        let block = PatternBlock {
            inputs: vec![0b1100_1010, 0b1010_0110, 0b0110_0011],
            state: vec![0b0001_1000],
        };
        let mut sim = FaultSim::new(&n);
        sim.load_block(&block);
        let good = n.simulate(&block);
        for fault in n.enumerate_faults() {
            let mask = sim.detect_mask(fault);
            let full = n.simulate_faulty(&block, fault);
            let mut expect = 0u64;
            for d in n.dffs() {
                expect |= full.nets[d.d().index()] ^ good.nets[d.d().index()];
            }
            for (_, net) in n.outputs() {
                expect |= full.nets[net.index()] ^ good.nets[net.index()];
            }
            assert_eq!(mask, expect, "fault {fault}");
        }
        assert!(sim.stats().queue_peak.get() > 0);
    }

    /// The PPSFP undo list must leave `faulty == good` after every
    /// fault, or the next fault would start from a corrupt baseline —
    /// simulate the whole fault list twice and require identical masks.
    #[test]
    fn ppsfp_undo_restores_the_good_copy() {
        let n = sample();
        let block = PatternBlock {
            inputs: vec![0xdead_beef, 0x0123_4567, 0xffff_0000],
            state: vec![0xaaaa_5555],
        };
        let lev = rescue_netlist::Levelized::new(&n);
        let mut sim = FaultSim::with_levelized(&lev);
        sim.load_block(&block);
        let faults = n.enumerate_faults();
        let first: Vec<u64> = faults.iter().map(|&f| sim.detect_mask(f)).collect();
        let second: Vec<u64> = faults.iter().map(|&f| sim.detect_mask(f)).collect();
        assert_eq!(first, second);
        for (ni, (f, g)) in sim.faulty.iter().zip(&sim.good).enumerate() {
            assert_eq!(f, g, "faulty copy not restored at net {ni}");
        }
    }

    /// Wide masks must equal the per-block masks word for word, and the
    /// first detecting lane must be the same global pattern index at
    /// every width.
    #[test]
    fn wide_masks_match_per_block_masks() {
        let n = sample();
        let blocks = [
            PatternBlock {
                inputs: vec![0xdead_beef, 0x0123_4567, 0xffff_0000],
                state: vec![0xaaaa_5555],
            },
            PatternBlock {
                inputs: vec![0, 0, 0],
                state: vec![u64::MAX],
            },
            PatternBlock {
                inputs: vec![0x00ff_00ff, 0x0f0f_0f0f, 0x3333_3333],
                state: vec![0x5555_5555],
            },
        ];
        let lev = rescue_netlist::Levelized::new(&n);
        let mut narrow = FaultSim::with_levelized(&lev);
        let per_block: Vec<Vec<u64>> = blocks
            .iter()
            .map(|b| {
                narrow.load_block(b);
                n.enumerate_faults()
                    .into_iter()
                    .map(|f| narrow.detect_mask(f))
                    .collect()
            })
            .collect();
        let mut sim4 = FaultSim::<4>::wide(&lev);
        sim4.load_blocks(&blocks);
        assert_eq!(sim4.loaded_words(), 3);
        for (fi, fault) in n.enumerate_faults().into_iter().enumerate() {
            let wide = sim4.detect_mask_wide(fault);
            for word in 0..4 {
                // Word 3 is padding that replicates block 2.
                let want = per_block[word.min(2)][fi];
                assert_eq!(wide[word], want, "fault {fault} word {word}");
            }
            let want_lane = (0..3).find_map(|w| {
                let m = per_block[w][fi];
                (m != 0).then(|| w as u32 * 64 + m.trailing_zeros())
            });
            assert_eq!(sim4.first_detecting_lane(fault), want_lane, "fault {fault}");
            let want_count: u32 = (0..3).map(|w| per_block[w][fi].count_ones()).sum();
            assert_eq!(sim4.detecting_lane_count(fault), want_count);
        }
    }

    #[test]
    fn observation_points_identify_capturing_cell() {
        // Two independent cones, each captured by its own flop.
        let mut b = NetlistBuilder::new();
        b.enter_component("left");
        let a = b.input("a");
        let na = b.not(a);
        b.dff(na, "r_left");
        b.enter_component("right");
        let c = b.input("c");
        let nc = b.not(c);
        b.dff(nc, "r_right");
        let n = b.finish().unwrap();

        let mut sim = FaultSim::new(&n);
        sim.load_block(&PatternBlock {
            inputs: vec![u64::MAX, u64::MAX],
            state: vec![0, 0],
        });
        // Fault in the left cone observes only at flop 0.
        let obs = sim.observations(Fault::net(na, StuckAt::One));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].0, Observation::ScanCell(0));
    }
}
