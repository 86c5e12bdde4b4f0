//! The nine cross-engine oracles.
//!
//! Each oracle checks one agreement property between independent
//! implementations of the same semantics, so a bug in either side shows
//! up as a divergence instead of silently corrupting results:
//!
//! * [`engines`] — good-machine values from the interpreter
//!   ([`Netlist::simulate`]) against the levelized packed evaluator,
//!   and per-fault detection masks from the naive full-re-evaluation
//!   reference against the event-driven PPSFP kernel at 64 patterns
//!   per pass.
//! * [`shards`] — the multi-threaded fault-sharding layer at 1, 2 and 8
//!   workers against the serial simulator, lane for lane.
//! * [`wide`] — the kernel at 256 and 512 patterns per pass against the
//!   naive per-block reference: every per-block detect-mask word and
//!   the global first-detecting lane must be identical.
//! * [`atpg_confirm`] — every fault ATPG classifies `Detected` must be
//!   detected by at least one of the run's own vectors under the naive
//!   reference simulator.
//! * [`dropping`] — full ATPG runs with n-detect fault dropping on
//!   (`drop_after`) against the default run: classifications, vectors
//!   and the coverage curve must be bit-identical, since dropping is a
//!   pure bookkeeping knob.
//! * [`collapse`] — structural fault-equivalence collapsing against
//!   brute force: on exhaustively-stimulated small circuits, every
//!   enumerated fault's full detection signature must be exhibited by
//!   some collapsed representative.
//! * [`lint_clean`] — every generated circuit must pass the static DFT
//!   design-rule checks error-clean, pre- and post-scan, and any net
//!   lint proves constant must never have its stuck-at-constant fault
//!   classified `Detected` by ATPG.
//! * [`redundancy`] — every fault the static implication engine proves
//!   redundant under capture constraints must be `Untestable` per a
//!   deep PODEM search with the pre-pass off — a `Test` or an abort
//!   would mean an unsound proof silently inflating coverage.
//! * [`podem`] — the event-driven production PODEM against the naive
//!   full-sweep reference (`naive_podem.rs`): the same result, cube,
//!   decisions and backtracks for every targetable fault.

use crate::ir::CaseIr;
use crate::naive_podem::NaivePodem;
use rescue_atpg::{
    Atpg, AtpgConfig, FaultClass, FaultShards, FaultSim, Podem, PodemConfig, PodemResult,
    PodemStats,
};
use rescue_netlist::scan::insert_scan;
use rescue_netlist::{Fault, Levelized, Netlist, PatternBlock};

/// Which oracle to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Good-machine and per-fault agreement across simulation engines.
    Engines,
    /// Serial vs. multi-threaded fault simulation bit-identity.
    Shards,
    /// Wide lanes (256/512 patterns per pass) vs. the naive per-block
    /// detect-mask and first-lane reference.
    Wide,
    /// ATPG `Detected` classifications confirmed by an independent
    /// simulator.
    AtpgConfirm,
    /// ATPG with n-detect dropping vs. the default run:
    /// classifications, vectors and coverage must be bit-identical.
    Dropping,
    /// Fault-equivalence collapsing vs. brute-force signatures.
    Collapse,
    /// Static DFT lint cleanliness, plus lint-vs-ATPG agreement on
    /// constant-net untestability.
    Lint,
    /// Static redundancy proofs vs. a deep PODEM search: proven faults
    /// must be `Untestable`, never testable or aborted.
    Redundancy,
    /// Event-driven PODEM vs. the naive full-sweep reference: the same
    /// result and search trajectory for every targetable fault.
    Podem,
}

impl OracleKind {
    /// All oracles, in run order.
    pub const ALL: [OracleKind; 9] = [
        OracleKind::Engines,
        OracleKind::Shards,
        OracleKind::Wide,
        OracleKind::AtpgConfirm,
        OracleKind::Dropping,
        OracleKind::Collapse,
        OracleKind::Lint,
        OracleKind::Redundancy,
        OracleKind::Podem,
    ];

    /// Stable name used in repro files and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Engines => "engines",
            OracleKind::Shards => "shards",
            OracleKind::Wide => "wide",
            OracleKind::AtpgConfirm => "atpg",
            OracleKind::Dropping => "dropping",
            OracleKind::Collapse => "collapse",
            OracleKind::Lint => "lint",
            OracleKind::Redundancy => "redundancy",
            OracleKind::Podem => "podem",
        }
    }

    /// Inverse of [`OracleKind::name`].
    pub fn of_name(name: &str) -> Result<OracleKind, String> {
        Ok(match name {
            "engines" => OracleKind::Engines,
            "shards" => OracleKind::Shards,
            "wide" => OracleKind::Wide,
            "atpg" => OracleKind::AtpgConfirm,
            "dropping" => OracleKind::Dropping,
            "collapse" => OracleKind::Collapse,
            "lint" => OracleKind::Lint,
            "redundancy" => OracleKind::Redundancy,
            "podem" => OracleKind::Podem,
            other => return Err(format!("unknown oracle: {other}")),
        })
    }

    /// Run this oracle on `case`. `Ok(())` means agreement; `Err`
    /// carries a human-readable description of the divergence.
    pub fn run(self, case: &CaseIr) -> Result<(), String> {
        match self {
            OracleKind::Engines => engines(case),
            OracleKind::Shards => shards(case),
            OracleKind::Wide => wide(case),
            OracleKind::AtpgConfirm => atpg_confirm(case),
            OracleKind::Dropping => dropping(case),
            OracleKind::Collapse => collapse(case),
            OracleKind::Lint => lint_clean(case),
            OracleKind::Redundancy => redundancy(case),
            OracleKind::Podem => podem(case),
        }
    }
}

/// Naive single-fault detection mask: full re-evaluation of the faulty
/// machine, OR of the differences at every observation point (primary
/// outputs and flip-flop D inputs). This is the reference the
/// event-driven kernel is judged against.
fn naive_detect_mask(netlist: &Netlist, good: &[u64], block: &PatternBlock, fault: Fault) -> u64 {
    signature(netlist, good, block, fault)
        .into_iter()
        .fold(0, |a, w| a | w)
}

/// Full per-observation-point difference signature of `fault`: one word
/// per primary output, then one per flip-flop, each the XOR of faulty
/// and good values. Equivalent faults have identical signatures under
/// any stimulus.
fn signature(netlist: &Netlist, good: &[u64], block: &PatternBlock, fault: Fault) -> Vec<u64> {
    let faulty = netlist.simulate_faulty(block, fault);
    netlist
        .outputs()
        .iter()
        .map(|(_, n)| n.index())
        .chain(netlist.dffs().iter().map(|d| d.d().index()))
        .map(|i| faulty.nets[i] ^ good[i])
        .collect()
}

/// Oracle (a): interpreter vs. levelized evaluator on every net, then
/// naive vs. event-driven detection masks on every collapsed fault.
pub fn engines(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let block = case.block();
    let good = netlist.simulate(&block);
    let lev = Levelized::new(&netlist);
    let mut lev_vals = Vec::new();
    lev.eval_block_into(&block, &mut lev_vals);
    for (i, (&gv, &lv)) in good.nets.iter().zip(&lev_vals).enumerate() {
        if gv != lv {
            return Err(format!(
                "good machine disagrees on net {i} ({}): interpreter {gv:#x}, levelized {lv:#x}",
                netlist.net_name(rescue_netlist::NetId::from_index(i)),
            ));
        }
    }

    let mut sim = FaultSim::with_levelized(&lev);
    sim.load_block(&block);
    for fault in netlist.collapse_faults() {
        let want = naive_detect_mask(&netlist, &good.nets, &block, fault);
        let got = sim.detect_mask(fault);
        if got != want {
            return Err(format!(
                "fault {fault}: naive mask {want:#x}, event-driven {got:#x}"
            ));
        }
    }
    Ok(())
}

/// Oracle (b): the fault-sharding layer must return bit-identical lanes
/// at every worker count, and those lanes must match the serial
/// simulator.
pub fn shards(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let block = case.block();
    let lev = Levelized::new(&netlist);
    let faults = netlist.collapse_faults();

    let mut serial = FaultSim::with_levelized(&lev);
    serial.load_block(&block);
    let want: Vec<Option<u32>> = faults
        .iter()
        .map(|&f| serial.first_detecting_lane(f))
        .collect();

    for threads in [1usize, 2, 8] {
        let mut shards = FaultShards::new(&lev, threads);
        let got = shards.detect_lanes(&block, &faults);
        if got != want {
            let i = got.iter().zip(&want).position(|(g, w)| g != w).unwrap_or(0);
            return Err(format!(
                "{threads}-thread lanes diverge from serial at fault {} ({:?} vs {:?})",
                faults[i], got[i], want[i]
            ));
        }
    }
    Ok(())
}

/// Eight sibling stimulus blocks derived deterministically from the
/// case block by rotating and re-keying every word, so wide lane groups
/// carry real cross-word variety.
fn derived_blocks(base: &PatternBlock) -> Vec<PatternBlock> {
    (0..8u32)
        .map(|k| {
            let mix = |(i, &w): (usize, &u64)| {
                w.rotate_left(7 * k)
                    ^ u64::from(k)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(i as u32)
            };
            PatternBlock {
                inputs: base.inputs.iter().enumerate().map(mix).collect(),
                state: base.state.iter().enumerate().map(mix).collect(),
            }
        })
        .collect()
}

/// Oracle: the kernel at 256 (`W = 4`) and 512 (`W = 8`) patterns per
/// pass must reproduce the naive reference's per-block detect-mask
/// words and global first-detecting lane (`word * 64 + bit` in vector
/// order) on every collapsed fault.
pub fn wide(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let blocks = derived_blocks(&case.block());
    let lev = Levelized::new(&netlist);
    let faults = netlist.collapse_faults();

    let per_block: Vec<Vec<u64>> = blocks
        .iter()
        .map(|b| {
            let good = netlist.simulate(b);
            faults
                .iter()
                .map(|&f| naive_detect_mask(&netlist, &good.nets, b, f))
                .collect()
        })
        .collect();

    let mut w4: FaultSim<4> = FaultSim::wide(&lev);
    let mut w8: FaultSim<8> = FaultSim::wide(&lev);
    w8.load_blocks(&blocks);
    for (fi, &f) in faults.iter().enumerate() {
        let m8 = w8.detect_mask_wide(f);
        for (word, &m) in m8.iter().enumerate() {
            if m != per_block[word][fi] {
                return Err(format!(
                    "fault {f}: 512-wide word {word} mask {m:#x} != naive {:#x}",
                    per_block[word][fi]
                ));
            }
        }
        let want_lane = (0..8).find_map(|j| {
            let m = per_block[j][fi];
            (m != 0).then(|| j as u32 * 64 + m.trailing_zeros())
        });
        let got = w8.first_detecting_lane(f);
        if got != want_lane {
            return Err(format!(
                "fault {f}: 512-wide first lane {got:?} != naive-derived {want_lane:?}"
            ));
        }
    }
    for (g, chunk) in blocks.chunks(4).enumerate() {
        w4.load_blocks(chunk);
        for (fi, &f) in faults.iter().enumerate() {
            let m4 = w4.detect_mask_wide(f);
            for (word, &m) in m4.iter().enumerate() {
                if m != per_block[g * 4 + word][fi] {
                    return Err(format!(
                        "fault {f}: 256-wide group {g} word {word} mask {m:#x} \
                         != naive {:#x}",
                        per_block[g * 4 + word][fi]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Oracle: n-detect fault dropping (`drop_after`) is a pure
/// bookkeeping knob — a full ATPG run with it enabled must produce
/// bit-identical classifications, vectors and coverage curves to the
/// default run.
pub fn dropping(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let base = Atpg::new(&scanned, AtpgConfig::default())
        .map_err(|e| format!("Atpg::new: {e}"))?
        .run()
        .map_err(|e| format!("Atpg::run: {e}"))?;

    let variants = [
        (
            "drop_after=2",
            AtpgConfig {
                drop_after: Some(2),
                ..AtpgConfig::default()
            },
        ),
        (
            "drop_after=3",
            AtpgConfig {
                drop_after: Some(3),
                ..AtpgConfig::default()
            },
        ),
    ];
    for (label, cfg) in variants {
        let run = Atpg::new(&scanned, cfg)
            .map_err(|e| format!("Atpg::new: {e}"))?
            .run()
            .map_err(|e| format!("Atpg::run ({label}): {e}"))?;
        if run.classes != base.classes {
            let diff = base
                .classes
                .iter()
                .find(|(f, c)| run.classes.get(f) != Some(c));
            return Err(format!(
                "{label}: classifications diverge from default run, first: {diff:?}"
            ));
        }
        if run.vectors != base.vectors {
            return Err(format!(
                "{label}: vectors diverge from default run ({} vs {})",
                run.vectors.len(),
                base.vectors.len()
            ));
        }
        if run.metrics.coverage != base.metrics.coverage {
            return Err(format!("{label}: coverage curve diverges from default run"));
        }
    }
    Ok(())
}

/// Oracle (c): run full ATPG on the scanned case; every fault the run
/// classifies `Detected` must be detected by at least one generated
/// vector under the naive reference simulator.
pub fn atpg_confirm(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let run = Atpg::new(&scanned, AtpgConfig::default())
        .map_err(|e| format!("Atpg::new: {e}"))?
        .run()
        .map_err(|e| format!("Atpg::run: {e}"))?;

    let n = &scanned.netlist;
    // Good-machine values per vector, computed once.
    let blocks: Vec<(PatternBlock, Vec<u64>)> = run
        .vectors
        .iter()
        .map(|v| {
            let b = PatternBlock::from_single(&v.inputs, &v.state);
            let good = n.simulate(&b).nets;
            (b, good)
        })
        .collect();

    for (&fault, &class) in &run.classes {
        if class != FaultClass::Detected {
            continue;
        }
        let hit = blocks
            .iter()
            .any(|(b, good)| naive_detect_mask(n, good, b, fault) & 1 != 0);
        if !hit {
            return Err(format!(
                "fault {fault} classified Detected but no vector detects it \
                 under the reference simulator ({} vectors)",
                run.vectors.len()
            ));
        }
    }
    Ok(())
}

/// Oracle (d): on a small, exhaustively-stimulated case, structural
/// equivalence collapsing must lose no behavior — every enumerated
/// fault's brute-force signature is exhibited by some collapsed
/// representative.
pub fn collapse(case: &CaseIr) -> Result<(), String> {
    let free = case.n_inputs + case.dff_d.len();
    if free > 6 {
        return Err(format!(
            "collapse oracle needs ≤ 6 free variables, case has {free}"
        ));
    }
    let mut ex = case.clone();
    crate::gen::exhaustive_stim(&mut ex);
    let netlist = ex.build()?;
    let block = ex.block();
    let good = netlist.simulate(&block).nets;

    let reps = netlist.collapse_faults();
    let rep_sigs: std::collections::HashSet<Vec<u64>> = reps
        .iter()
        .map(|&r| signature(&netlist, &good, &block, r))
        .collect();
    for fault in netlist.enumerate_faults() {
        let sig = signature(&netlist, &good, &block, fault);
        if !rep_sigs.contains(&sig) {
            return Err(format!(
                "fault {fault}: brute-force signature matches no collapsed \
                 representative ({} reps for {} faults)",
                reps.len(),
                netlist.enumerate_faults().len()
            ));
        }
    }
    Ok(())
}

/// Oracle (e): the generator must only produce circuits the static DFT
/// lint accepts error-clean, both pre-scan and after `insert_scan`.
/// When lint's constant-propagation pass proves nets stuck, those
/// structurally-untestable faults are cross-checked against ATPG: a
/// collapsed representative for a provably-constant net may be absent
/// or `Untestable`, but never `Detected`.
pub fn lint_clean(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let pre = rescue_lint::lint_netlist(&netlist);
    if !pre.passes(rescue_lint::Severity::Error) {
        let worst = pre
            .diagnostics
            .iter()
            .find(|d| d.severity >= rescue_lint::Severity::Error);
        return Err(format!(
            "pre-scan netlist fails lint: {} error(s), first: {}",
            pre.count(rescue_lint::Severity::Error),
            worst.map_or_else(String::new, |d| d.message.clone()),
        ));
    }

    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let post = rescue_lint::lint_scan(&scanned);
    if !post.passes(rescue_lint::Severity::Error) {
        let worst = post
            .diagnostics
            .iter()
            .find(|d| d.severity >= rescue_lint::Severity::Error);
        return Err(format!(
            "post-scan netlist fails lint: {} error(s), first: {}",
            post.count(rescue_lint::Severity::Error),
            worst.map_or_else(String::new, |d| d.message.clone()),
        ));
    }

    if pre.stuck_nets.is_empty() {
        return Ok(());
    }
    // Lint proved some nets constant; ATPG must agree those stuck-at
    // faults are untestable. The collapsed fault list may have merged a
    // stem fault into an equivalent representative, so only faults that
    // still appear in the run's classification map are checked.
    let run = Atpg::new(&scanned, AtpgConfig::default())
        .map_err(|e| format!("Atpg::new: {e}"))?
        .run()
        .map_err(|e| format!("Atpg::run: {e}"))?;
    for &(net, value) in &pre.stuck_nets {
        let fault = Fault::net(
            rescue_netlist::NetId::from_index(net as usize),
            if value {
                rescue_netlist::StuckAt::One
            } else {
                rescue_netlist::StuckAt::Zero
            },
        );
        if let Some(&class) = run.classes.get(&fault) {
            if class == FaultClass::Detected {
                return Err(format!(
                    "lint proves net {net} constant {} but ATPG classifies \
                     its stuck-at fault Detected",
                    u8::from(value),
                ));
            }
        }
    }
    Ok(())
}

/// Oracle (h): soundness of FIRE-style redundancy identification. Every
/// fault the static implication engine proves untestable under capture
/// constraints is handed to PODEM with a backtrack budget ~33× the
/// production default and the pre-pass off: the search must come back
/// `Untestable`. A generated test is a hard unsoundness (the "proof"
/// was wrong); an abort means the claim was not independently
/// confirmable, which this oracle also refuses to let pass.
pub fn redundancy(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let atpg = Atpg::new(&scanned, AtpgConfig::default()).map_err(|e| format!("Atpg::new: {e}"))?;
    let lev = Levelized::new(&scanned.netlist);
    let constraints = atpg.capture_constraints();
    let mut engine = rescue_lint::ImplicationEngine::from_levelized(&lev, &constraints);
    let podem = Podem::new(
        &scanned.netlist,
        constraints,
        PodemConfig {
            max_backtracks: 10_000,
        },
    );
    for fault in scanned.netlist.collapse_faults() {
        if atpg.is_chain_fault(fault) || !engine.prove_fault_levelized(&lev, fault) {
            continue;
        }
        match podem.generate(fault) {
            PodemResult::Untestable => {}
            PodemResult::Test(_) => {
                return Err(format!(
                    "implication engine proved {fault} redundant but PODEM generated a test"
                ));
            }
            PodemResult::Aborted => {
                return Err(format!(
                    "implication engine proved {fault} redundant but PODEM aborted \
                     at 10000 backtracks (proof not independently confirmed)"
                ));
            }
        }
    }
    Ok(())
}

/// Oracle (i): the event-driven production PODEM against the naive
/// full-sweep reference. For every collapsed, non-chain fault of the
/// scanned case both engines must return the same result (the same
/// cube, `Untestable` or `Aborted`) after the same number of decisions
/// and backtracks.
pub fn podem(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let atpg = Atpg::new(&scanned, AtpgConfig::default()).map_err(|e| format!("Atpg::new: {e}"))?;
    let constraints = atpg.capture_constraints();
    let config = PodemConfig::default();
    let fast = Podem::new(&scanned.netlist, constraints.clone(), config);
    let naive = NaivePodem::new(&scanned.netlist, constraints, config);
    let steps = |s: &PodemStats| (s.decisions.get(), s.backtracks.get());
    for fault in scanned.netlist.collapse_faults() {
        if atpg.is_chain_fault(fault) {
            continue;
        }
        let (fast0, naive0) = (steps(fast.stats()), steps(naive.stats()));
        let got = fast.generate(fault);
        let want = naive.generate(fault);
        if got != want {
            return Err(format!(
                "fault {fault}: event-driven PODEM returned {got:?}, full-sweep reference {want:?}"
            ));
        }
        let (fast1, naive1) = (steps(fast.stats()), steps(naive.stats()));
        let got = (fast1.0 - fast0.0, fast1.1 - fast0.1);
        let want = (naive1.0 - naive0.0, naive1.1 - naive0.1);
        if got != want {
            return Err(format!(
                "fault {fault}: event-driven PODEM took {} decisions / {} backtracks, \
                 full-sweep reference {} / {}",
                got.0, got.1, want.0, want.1
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn oracle_names_round_trip() {
        for o in OracleKind::ALL {
            assert_eq!(OracleKind::of_name(o.name()).unwrap(), o);
        }
        assert!(OracleKind::of_name("bogus").is_err());
    }

    #[test]
    fn all_oracles_pass_on_a_known_case() {
        let case = generate(1, 0, &GenConfig::sized(24));
        engines(&case).unwrap();
        shards(&case).unwrap();
        wide(&case).unwrap();
        atpg_confirm(&case).unwrap();
        dropping(&case).unwrap();
        lint_clean(&case).unwrap();
        redundancy(&case).unwrap();
        podem(&case).unwrap();
        let small = generate(1, 0, &GenConfig::small());
        collapse(&small).unwrap();
        lint_clean(&small).unwrap();
        redundancy(&small).unwrap();
        podem(&small).unwrap();
    }

    #[test]
    fn derived_blocks_are_deterministic_and_diverse() {
        let case = generate(3, 0, &GenConfig::sized(24));
        let a = derived_blocks(&case.block());
        let b = derived_blocks(&case.block());
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(a[0], case.block(), "word 0 is the case's own block");
        for w in &a[1..] {
            assert_ne!(w, &a[0], "sibling blocks must differ from the seed");
        }
    }

    /// A deliberately broken "reference": flipping one stimulus bit
    /// between the two sides is the kind of divergence the engines
    /// oracle must flag. Here we simulate it by checking the oracle's
    /// own failure path — a case whose free variables exceed the
    /// collapse oracle's bound is rejected with a message, not a panic.
    #[test]
    fn collapse_oracle_rejects_oversized_cases() {
        let mut case = generate(1, 0, &GenConfig::small());
        case.n_inputs = 7;
        case.stim_inputs = vec![0; 7];
        let err = collapse(&case).unwrap_err();
        assert!(err.contains("free variables"), "{err}");
    }
}
