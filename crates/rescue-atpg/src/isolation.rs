//! Scan-based fault isolation: map failing scan bits to ICI components.
//!
//! This reproduces the paper's Section 6.1 experiment. After ATPG, each
//! scan-chain position is labeled with the set of ICI components whose
//! logic feeds it within a cycle ([`ScanNetlist::capture_components`]).
//! Replaying the vector set against an injected fault yields failing
//! positions; under ICI every failing position's label set is a singleton
//! and names the faulty component — isolation by a single table lookup,
//! with no diagnosis.

use crate::fsim::{FaultSim, Observation};
use crate::tpg::{vectors_to_blocks, PatternVector};
use rescue_netlist::{ComponentId, Fault, Levelized, ScanNetlist};

/// Result of isolating one injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IsolationOutcome {
    /// Scan-chain positions (and primary outputs, as `None`) that failed.
    pub failing_bits: Vec<Observation>,
    /// Candidate faulty components: the **intersection** of the label sets
    /// of all failing scan positions (the components that could explain
    /// every failure of a single fault).
    pub candidates: Vec<ComponentId>,
    /// Largest label-set size over the failing positions — 1 everywhere
    /// means single-lookup isolation (ICI holds along every failing path).
    pub max_ambiguity: usize,
}

impl IsolationOutcome {
    /// Whether the fault was detected at all.
    pub fn detected(&self) -> bool {
        !self.failing_bits.is_empty()
    }

    /// Whether isolation is unique (exactly one candidate, no ambiguity).
    pub fn unique(&self) -> bool {
        self.candidates.len() == 1 && self.max_ambiguity <= 1
    }
}

/// Replays a vector set against injected faults and maps failures to
/// components.
#[derive(Debug)]
pub struct Isolator<'a> {
    scanned: &'a ScanNetlist,
    blocks: Vec<rescue_netlist::PatternBlock>,
    /// Levelized view shared by every replay simulator (and every
    /// worker of [`Isolator::isolate_many`]).
    lev: Levelized,
    /// Per scan position: the component labels of its capture cone.
    labels: Vec<Vec<ComponentId>>,
}

impl<'a> Isolator<'a> {
    /// Build an isolator from a scanned design and the ATPG vectors.
    pub fn new(scanned: &'a ScanNetlist, vectors: &[PatternVector]) -> Self {
        Isolator {
            scanned,
            blocks: vectors_to_blocks(vectors, scanned),
            lev: Levelized::new(&scanned.netlist),
            labels: scanned.capture_components(),
        }
    }

    /// Component label sets per scan-chain position.
    pub fn labels(&self) -> &[Vec<ComponentId>] {
        &self.labels
    }

    /// Simulate several **simultaneous** faults against every vector and
    /// return the failing scan positions — the data behind the ICI
    /// corollary of §3.1: each failing bit still maps to exactly one
    /// component, so *all* faulty components are implicated by the same
    /// vector set that plain detection uses.
    pub fn isolate_multi(&self, faults: &[Fault]) -> IsolationOutcome {
        let n = &self.scanned.netlist;
        let mut failing: Vec<Observation> = Vec::new();
        for block in &self.blocks {
            let good = n.simulate(block);
            let bad = n.simulate_multi_faulty(block, faults);
            for (i, d) in n.dffs().iter().enumerate() {
                if good.nets[d.d().index()] != bad.nets[d.d().index()] {
                    let obs = Observation::ScanCell(i);
                    if !failing.contains(&obs) {
                        failing.push(obs);
                    }
                }
            }
            for (oi, (_, net)) in n.outputs().iter().enumerate() {
                if good.nets[net.index()] != bad.nets[net.index()] {
                    let obs = Observation::PrimaryOutput(oi);
                    if !failing.contains(&obs) {
                        failing.push(obs);
                    }
                }
            }
        }
        failing.sort();
        // For multiple faults the per-bit label sets *union* (not
        // intersect) into the implicated-component set.
        let mut candidates: Vec<ComponentId> = Vec::new();
        let mut max_ambiguity = 0usize;
        for obs in &failing {
            if let Observation::ScanCell(pos) = obs {
                let chain_pos = self
                    .scanned
                    .chain
                    .position(rescue_netlist::DffId::from_index(*pos))
                    .expect("observed flip-flop is on the chain");
                let set = &self.labels[chain_pos];
                max_ambiguity = max_ambiguity.max(set.len());
                for &c in set {
                    if !candidates.contains(&c) {
                        candidates.push(c);
                    }
                }
            }
        }
        candidates.sort();
        IsolationOutcome {
            failing_bits: failing,
            candidates,
            max_ambiguity,
        }
    }

    /// Simulate `fault` against every vector and derive the isolation
    /// outcome.
    pub fn isolate(&self, fault: Fault) -> IsolationOutcome {
        let mut sim = FaultSim::with_levelized(&self.lev);
        let mut out = self.isolate_shard(&mut sim, &[fault]);
        out.pop().expect("one outcome per fault")
    }

    /// Isolate a shard of faults on one simulator, block-major: each
    /// vector block is loaded (good sweep plus faulty-copy reset) once,
    /// then every fault of the shard collects its failing observations
    /// under it.
    fn isolate_shard(&self, sim: &mut FaultSim, faults: &[Fault]) -> Vec<IsolationOutcome> {
        let mut failing: Vec<Vec<Observation>> = vec![Vec::new(); faults.len()];
        for block in &self.blocks {
            sim.load_block(block);
            for (seen, &fault) in failing.iter_mut().zip(faults) {
                for (obs, _mask) in sim.observations(fault) {
                    if !seen.contains(&obs) {
                        seen.push(obs);
                    }
                }
            }
        }
        failing
            .into_iter()
            .map(|mut f| {
                f.sort();
                self.outcome_from_failures(f)
            })
            .collect()
    }

    /// Isolate many faults, sharded over `threads` workers (resolved via
    /// [`crate::parallel::resolve_threads`]). Outcomes are returned in
    /// `faults` order; each fault's replay is independent, so the result
    /// is bit-identical to mapping [`Isolator::isolate`] sequentially,
    /// for any worker count.
    pub fn isolate_many(&self, faults: &[Fault], threads: usize) -> Vec<IsolationOutcome> {
        let threads = crate::parallel::resolve_threads(threads);
        let workers = threads.min(faults.len()).max(1);
        if workers == 1 {
            let _span = rescue_obs::span("isolation.worker");
            let mut sim = FaultSim::with_levelized(&self.lev);
            return self.isolate_shard(&mut sim, faults);
        }
        let chunk = faults.len().div_ceil(workers);
        let mut out: Vec<IsolationOutcome> = Vec::with_capacity(faults.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = faults
                .chunks(chunk)
                .map(|shard| {
                    s.spawn(move || {
                        let _span = rescue_obs::span("isolation.worker");
                        let mut sim = FaultSim::with_levelized(&self.lev);
                        self.isolate_shard(&mut sim, shard)
                    })
                })
                .collect();
            // Join in spawn order: canonical fault order.
            for h in handles {
                out.extend(h.join().expect("isolation worker panicked"));
            }
        });
        out
    }

    fn outcome_from_failures(&self, failing: Vec<Observation>) -> IsolationOutcome {
        let mut candidates: Option<Vec<ComponentId>> = None;
        let mut max_ambiguity = 0usize;
        for obs in &failing {
            if let Observation::ScanCell(pos) = obs {
                // `pos` here is the flip-flop index; chain position equals
                // flip-flop index because the chain is built in declaration
                // order, but map defensively through the chain.
                let chain_pos = self
                    .scanned
                    .chain
                    .position(rescue_netlist::DffId::from_index(*pos))
                    .expect("observed flip-flop is on the chain");
                let set = &self.labels[chain_pos];
                max_ambiguity = max_ambiguity.max(set.len());
                candidates = Some(match candidates {
                    None => set.clone(),
                    Some(prev) => prev.into_iter().filter(|c| set.contains(c)).collect(),
                });
            }
        }
        IsolationOutcome {
            failing_bits: failing,
            candidates: candidates.unwrap_or_default(),
            max_ambiguity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpg::{Atpg, AtpgConfig};
    use rescue_netlist::{scan::insert_scan, NetlistBuilder, StuckAt};

    /// Two independent components, each capturing into its own flop: ICI
    /// holds and faults isolate uniquely.
    #[test]
    fn ici_design_isolates_uniquely() {
        let mut b = NetlistBuilder::new();
        b.enter_component("LCX");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        b.dff(x, "rx");
        b.enter_component("LCY");
        let e = b.input("e");
        let y = b.or2(c, e);
        b.dff(y, "ry");
        let n = b.finish().unwrap();
        let lcx = n.find_component("LCX").unwrap();
        let scanned = insert_scan(&n).unwrap();

        let run = Atpg::new(&scanned, AtpgConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let iso = Isolator::new(&scanned, &run.vectors);

        // Every label is a singleton: ICI.
        assert!(iso.labels().iter().all(|l| l.len() == 1));

        let out = iso.isolate(rescue_netlist::Fault::net(x, StuckAt::Zero));
        assert!(out.detected());
        assert!(out.unique());
        assert_eq!(out.candidates, vec![lcx]);
    }

    /// A shared combinational read (LCY reads LCX's output) breaks unique
    /// isolation exactly as Section 3.1 describes.
    #[test]
    fn non_ici_design_is_ambiguous() {
        let mut b = NetlistBuilder::new();
        b.enter_component("LCX");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        b.dff(x, "rx");
        b.enter_component("LCY");
        // LCY reads x combinationally: ICI violation.
        let e = b.input("e");
        let y = b.or2(x, e);
        b.dff(y, "ry");
        let n = b.finish().unwrap();
        let scanned = insert_scan(&n).unwrap();

        let run = Atpg::new(&scanned, AtpgConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let iso = Isolator::new(&scanned, &run.vectors);

        // The second cell's capture cone spans both components.
        assert!(iso.labels().iter().any(|l| l.len() == 2));

        // A fault inside LCX that propagates into LCY's capture cell leaves
        // a two-component ambiguity at that cell.
        let out = iso.isolate(rescue_netlist::Fault::net(x, StuckAt::Zero));
        assert!(out.detected());
        assert_eq!(out.max_ambiguity, 2);
    }

    /// A fault on the component boundary: LCY's OR gate reads LCX's
    /// output `x`, and the fault sits on that input *branch* (a pin
    /// fault inside LCY on a wire driven from LCX). It can only fail
    /// LCY's capture cell, whose cone spans both components, so the
    /// candidate set names both — the structural ambiguity the paper's
    /// ICI restriction exists to rule out.
    #[test]
    fn component_boundary_pin_fault_implicates_both_components() {
        let mut b = NetlistBuilder::new();
        b.enter_component("LCX");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        b.dff(x, "rx");
        b.enter_component("LCY");
        let e = b.input("e");
        let y = b.or2(x, e);
        b.dff(y, "ry");
        let n = b.finish().unwrap();
        let lcx = n.find_component("LCX").unwrap();
        let lcy = n.find_component("LCY").unwrap();

        // Gate 1 is LCY's OR; pin 0 is the branch of `x` it reads.
        let or_gate = rescue_netlist::GateId::from_index(1);
        assert_eq!(n.gate(or_gate).component(), lcy);
        let boundary = rescue_netlist::Fault::pin(or_gate, 0, StuckAt::One);

        let scanned = insert_scan(&n).unwrap();
        let run = Atpg::new(&scanned, AtpgConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let iso = Isolator::new(&scanned, &run.vectors);

        let out = iso.isolate(boundary);
        assert!(out.detected());
        // The branch fault never reaches LCX's own capture cell...
        assert!(!out.failing_bits.contains(&Observation::ScanCell(0)));
        // ...so nothing narrows the two-component cone it fails in.
        assert_eq!(out.candidates, vec![lcx, lcy]);
        assert_eq!(out.max_ambiguity, 2);
        assert!(!out.unique());

        // The stem fault on `x` also fails LCX's own cell, whose
        // singleton label intersects the ambiguity away.
        let stem = iso.isolate(rescue_netlist::Fault::net(x, StuckAt::Zero));
        assert_eq!(stem.candidates, vec![lcx]);
    }

    /// No vectors means no failing observations: the outcome is the
    /// canonical "undetected" value, not a panic or a phantom candidate.
    #[test]
    fn no_vectors_yields_empty_undetected_outcome() {
        let mut b = NetlistBuilder::new();
        b.enter_component("LC0");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        b.dff(x, "r");
        let n = b.finish().unwrap();
        let scanned = insert_scan(&n).unwrap();

        let iso = Isolator::new(&scanned, &[]);
        let out = iso.isolate(rescue_netlist::Fault::net(x, StuckAt::Zero));
        assert!(!out.detected());
        assert!(!out.unique());
        assert!(out.failing_bits.is_empty());
        assert!(out.candidates.is_empty());
        assert_eq!(out.max_ambiguity, 0);
    }

    /// Simultaneous faults in two ICI components: the failing bits
    /// union, every bit still names exactly one component, and the
    /// candidate set implicates both — §3.1's multi-defect corollary.
    #[test]
    fn isolate_multi_unions_singleton_labels() {
        let mut b = NetlistBuilder::new();
        b.enter_component("LCX");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        b.dff(x, "rx");
        b.enter_component("LCY");
        let e = b.input("e");
        let y = b.or2(c, e);
        b.dff(y, "ry");
        let n = b.finish().unwrap();
        let lcx = n.find_component("LCX").unwrap();
        let lcy = n.find_component("LCY").unwrap();
        let scanned = insert_scan(&n).unwrap();

        let run = Atpg::new(&scanned, AtpgConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let iso = Isolator::new(&scanned, &run.vectors);

        let out = iso.isolate_multi(&[
            rescue_netlist::Fault::net(x, StuckAt::Zero),
            rescue_netlist::Fault::net(y, StuckAt::Zero),
        ]);
        assert!(out.detected());
        assert_eq!(out.candidates, vec![lcx, lcy]);
        // ICI holds: no failing bit is individually ambiguous.
        assert_eq!(out.max_ambiguity, 1);
    }

    /// `isolate_many` is a pure sharding of `isolate`: bit-identical
    /// outcomes in input order at every worker count, including more
    /// workers than faults.
    #[test]
    fn isolate_many_matches_sequential_at_any_thread_count() {
        let mut b = NetlistBuilder::new();
        b.enter_component("LCX");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        b.dff(x, "rx");
        b.enter_component("LCY");
        let e = b.input("e");
        let y = b.or2(x, e);
        b.dff(y, "ry");
        let n = b.finish().unwrap();
        let scanned = insert_scan(&n).unwrap();

        let run = Atpg::new(&scanned, AtpgConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let iso = Isolator::new(&scanned, &run.vectors);

        let faults: Vec<_> = scanned.netlist.collapse_faults();
        let sequential: Vec<_> = faults.iter().map(|&f| iso.isolate(f)).collect();
        for threads in [1, 2, 3, faults.len() + 4] {
            assert_eq!(iso.isolate_many(&faults, threads), sequential);
        }
    }
}
