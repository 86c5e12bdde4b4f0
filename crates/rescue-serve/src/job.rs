//! Job kinds, the JSON job configuration, and the job runners.
//!
//! A job request is a JSON config line followed by a text netlist
//! ([`rescue_netlist::text`]). The config selects the job kind and the
//! engine knobs; everything has a default, so `{"kind":"atpg"}` is a
//! complete config. Parsing uses the workspace's own
//! [`rescue_obs::json`] parser — no external dependencies.
//!
//! Every runner returns a single **canonical result line**: a JSON
//! object with `"type":"result"` whose bytes are a deterministic
//! function of (netlist, config). Wall-clock timings, thread counts,
//! and anything else nondeterministic are deliberately excluded — the
//! line is the byte-identity contract between the served path and the
//! CLI path (`rescue-serve run`), pinned by the e2e tests, and it is
//! what the result cache stores.

use crate::cache::Design;
use rescue_atpg::{Atpg, AtpgConfig, LaneShards, PodemConfig};
use rescue_netlist::{Fnv64, PatternBlock};
use rescue_obs::json::{self, JsonObj, JsonValue};
use rescue_obs::SplitMix64;

/// What to run against the POSTed netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Parse only; report structural statistics.
    Netlist,
    /// Full scan ATPG ([`rescue_atpg::Atpg`]).
    Atpg,
    /// Fault simulation of seeded random patterns.
    Fsim,
    /// DFT lint + SCOAP ([`rescue_lint`]).
    Lint,
}

impl JobKind {
    /// Wire name, as used in the JSON config and result lines.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Netlist => "netlist",
            JobKind::Atpg => "atpg",
            JobKind::Fsim => "fsim",
            JobKind::Lint => "lint",
        }
    }

    /// Parse a wire name.
    pub fn from_name(s: &str) -> Result<JobKind, String> {
        match s {
            "netlist" => Ok(JobKind::Netlist),
            "atpg" => Ok(JobKind::Atpg),
            "fsim" => Ok(JobKind::Fsim),
            "lint" => Ok(JobKind::Lint),
            other => Err(format!(
                "unknown job kind {other:?} (expected netlist|atpg|fsim|lint)"
            )),
        }
    }
}

/// Parsed job configuration. Field defaults match the engine defaults
/// ([`AtpgConfig::default`]), so an empty config object runs the same
/// flow the CLI tools run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobConfig {
    /// Job kind (`"kind"`, required).
    pub kind: JobKind,
    /// Worker threads (`"threads"`, 0 = auto). Datapath knob: results
    /// are bit-identical for any value, so it is excluded from
    /// [`JobConfig::config_hash`].
    pub threads: usize,
    /// Fault-sim lane width in 64-pattern words (`"lane_words"`, 1, 4
    /// or 8; anything else is rejected by [`JobConfig::parse`]). Used
    /// only by `fsim` jobs. Datapath knob, excluded from the hash like
    /// `threads`.
    pub lane_words: usize,
    /// ATPG random-fill seed (`"fill_seed"`).
    pub fill_seed: u64,
    /// ATPG cube merging (`"merge_cubes"`).
    pub merge_cubes: bool,
    /// ATPG merge window (`"merge_window"`).
    pub merge_window: usize,
    /// PODEM backtrack limit (`"max_backtracks"`).
    pub max_backtracks: usize,
    /// n-detect dropping (`"drop_after"`, 0 = off).
    pub drop_after: u32,
    /// ATPG static redundancy pre-pass (`"static_prepass"`).
    /// Vectors are invariant, but the pre-pass can soundly upgrade
    /// budget-`Aborted` faults to `Untestable`, which moves the result
    /// line's class counts and coverage — so unlike
    /// `threads`/`lane_words` it is **included** in
    /// [`JobConfig::config_hash`].
    pub static_prepass: bool,
    /// Fsim: number of 64-pattern blocks to simulate (`"patterns"`).
    pub patterns: usize,
    /// Fsim: pattern generator seed (`"seed"`).
    pub seed: u64,
}

impl JobConfig {
    /// The default config for `kind`.
    pub fn new(kind: JobKind) -> JobConfig {
        let atpg = AtpgConfig::default();
        JobConfig {
            kind,
            threads: 0,
            lane_words: 1,
            fill_seed: atpg.fill_seed,
            merge_cubes: atpg.merge_cubes,
            merge_window: atpg.merge_window,
            max_backtracks: PodemConfig::default().max_backtracks,
            drop_after: 0,
            static_prepass: atpg.static_prepass,
            patterns: 4,
            seed: 0x5eed,
        }
    }

    /// Parse a JSON config object. Unknown keys are ignored (forward
    /// compatibility); wrong types and unknown kinds are errors.
    pub fn parse(text: &str) -> Result<JobConfig, String> {
        let doc = json::parse(text).map_err(|e| format!("config is not valid JSON: {e}"))?;
        let obj = match &doc {
            JsonValue::Obj(_) => &doc,
            _ => return Err("config must be a JSON object".to_owned()),
        };
        let kind = match obj.get("kind").and_then(JsonValue::as_str) {
            Some(s) => JobKind::from_name(s)?,
            None => return Err("config is missing \"kind\"".to_owned()),
        };
        let mut cfg = JobConfig::new(kind);
        let usize_field = |name: &str, into: &mut usize| -> Result<(), String> {
            if let Some(v) = obj.get(name) {
                match v.as_int() {
                    Some(i) if i >= 0 && i <= usize::MAX as i128 => *into = i as usize,
                    _ => return Err(format!("{name:?} must be a non-negative integer")),
                }
            }
            Ok(())
        };
        let u64_field = |name: &str, into: &mut u64| -> Result<(), String> {
            if let Some(v) = obj.get(name) {
                match v.as_int() {
                    Some(i) if i >= 0 && i <= u64::MAX as i128 => *into = i as u64,
                    _ => return Err(format!("{name:?} must be a non-negative integer")),
                }
            }
            Ok(())
        };
        usize_field("threads", &mut cfg.threads)?;
        usize_field("lane_words", &mut cfg.lane_words)?;
        u64_field("fill_seed", &mut cfg.fill_seed)?;
        usize_field("merge_window", &mut cfg.merge_window)?;
        usize_field("max_backtracks", &mut cfg.max_backtracks)?;
        usize_field("patterns", &mut cfg.patterns)?;
        u64_field("seed", &mut cfg.seed)?;
        let mut drop_after = cfg.drop_after as usize;
        usize_field("drop_after", &mut drop_after)?;
        cfg.drop_after = u32::try_from(drop_after)
            .map_err(|_| "\"drop_after\" must fit in 32 bits".to_owned())?;
        if let Some(v) = obj.get("merge_cubes") {
            match v {
                JsonValue::Bool(b) => cfg.merge_cubes = *b,
                _ => return Err("\"merge_cubes\" must be a boolean".to_owned()),
            }
        }
        if let Some(v) = obj.get("static_prepass") {
            match v {
                JsonValue::Bool(b) => cfg.static_prepass = *b,
                _ => return Err("\"static_prepass\" must be a boolean".to_owned()),
            }
        }
        if cfg.patterns == 0 || cfg.patterns > 4096 {
            return Err("\"patterns\" must be in 1..=4096".to_owned());
        }
        // Checked here, before any cache lookup: `lane_words` is not
        // part of the config hash, so a bad width must never reach the
        // result cache's key space.
        if ![1, 4, 8].contains(&cfg.lane_words) {
            return Err("\"lane_words\" must be 1, 4 or 8".to_owned());
        }
        Ok(cfg)
    }

    /// Hash of every config field that can change the result bytes.
    /// `threads` and `lane_words` are excluded: both are documented
    /// bit-identical datapath knobs, so jobs differing only in them
    /// share a result-cache entry. `static_prepass` is **included**:
    /// the vectors are invariant, but on designs where PODEM's budget
    /// aborts inside a proven-redundant cone the pre-pass upgrades the
    /// class to `Untestable`, moving the result line's
    /// `untestable`/`aborted`/`coverage` fields.
    pub fn config_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("rescue-serve-config-v1");
        h.write_str(self.kind.name());
        h.write_u64(self.fill_seed);
        h.write_u64(u64::from(self.merge_cubes));
        h.write_u64(self.merge_window as u64);
        h.write_u64(self.max_backtracks as u64);
        h.write_u64(u64::from(self.drop_after));
        h.write_u64(u64::from(self.static_prepass));
        h.write_u64(self.patterns as u64);
        h.write_u64(self.seed);
        h.finish()
    }

    fn atpg_config(&self) -> AtpgConfig {
        AtpgConfig {
            podem: PodemConfig {
                max_backtracks: self.max_backtracks,
            },
            fill_seed: self.fill_seed,
            merge_cubes: self.merge_cubes,
            merge_window: self.merge_window,
            threads: self.threads,
            static_prepass: self.static_prepass,
            drop_after: if self.drop_after > 1 {
                Some(self.drop_after)
            } else {
                None
            },
        }
    }
}

/// Run one job against a prepared design and return the canonical
/// result line (no trailing newline). Errors are human-readable and
/// never panic — this path faces untrusted input.
pub fn run_job(design: &Design, cfg: &JobConfig) -> Result<String, String> {
    match cfg.kind {
        JobKind::Netlist => Ok(netlist_result(design)),
        JobKind::Lint => Ok(lint_result(design)),
        JobKind::Atpg => atpg_result(design, cfg),
        JobKind::Fsim => fsim_result(design, cfg),
    }
}

/// Start a result object with the shared envelope fields.
fn result_head(design: &Design, job: JobKind) -> JsonObj {
    let mut o = JsonObj::new();
    o.str("type", "result")
        .str("job", job.name())
        .str("design", &format!("{:016x}", design.content_hash));
    o
}

fn netlist_result(design: &Design) -> String {
    let n = &design.base;
    let mut o = result_head(design, JobKind::Netlist);
    o.u64("inputs", n.inputs().len() as u64)
        .u64("outputs", n.outputs().len() as u64)
        .u64("gates", n.num_gates() as u64)
        .u64("dffs", n.num_dffs() as u64)
        .u64("components", n.num_components() as u64)
        .u64("faults", design.faults.len() as u64)
        .bool("scannable", design.scanned.is_some());
    o.finish()
}

fn lint_result(design: &Design) -> String {
    let name = format!("{:016x}", design.content_hash);
    let report = match &design.scanned {
        Some(s) => rescue_lint::lint_scan(s),
        None => rescue_lint::lint_netlist(&design.base),
    };
    let mut o = result_head(design, JobKind::Lint);
    o.u64("errors", report.count(rescue_lint::Severity::Error) as u64)
        .u64(
            "warnings",
            report.count(rescue_lint::Severity::Warning) as u64,
        )
        .u64("infos", report.count(rescue_lint::Severity::Info) as u64)
        .raw("report", &report.to_json(&name));
    o.finish()
}

fn atpg_result(design: &Design, cfg: &JobConfig) -> Result<String, String> {
    let scanned = design
        .scanned
        .as_ref()
        .ok_or("atpg requires a design with at least one flip-flop")?;
    let atpg = Atpg::new(scanned, cfg.atpg_config()).map_err(|e| e.to_string())?;
    let run = atpg
        .run_prepared(&design.lev, &design.faults)
        .map_err(|e| e.to_string())?;

    // Digest of the actual vector bits: two runs agree on this iff they
    // produced the same patterns, which makes served-vs-CLI
    // byte-identity a real engine-output check rather than a
    // formatting check.
    let mut digest = Fnv64::new();
    for v in &run.vectors {
        digest.write_u64(v.inputs.len() as u64);
        for &b in &v.inputs {
            digest.write(&[u8::from(b)]);
        }
        digest.write_u64(v.state.len() as u64);
        for &b in &v.state {
            digest.write(&[u8::from(b)]);
        }
    }

    use rescue_atpg::FaultClass;
    let mut o = result_head(design, JobKind::Atpg);
    o.u64("faults", run.stats.faults as u64)
        .u64("vectors", run.stats.vectors as u64)
        .u64("cells", run.stats.cells as u64)
        .u64("cycles", run.stats.cycles)
        .u64("detected", run.count(FaultClass::Detected) as u64)
        .u64("chain_tested", run.count(FaultClass::ChainTested) as u64)
        .u64("untestable", run.count(FaultClass::Untestable) as u64)
        .u64("aborted", run.count(FaultClass::Aborted) as u64)
        .f64("coverage", run.coverage())
        .str("vectors_digest", &format!("{:016x}", digest.finish()));
    Ok(o.finish())
}

fn fsim_result(design: &Design, cfg: &JobConfig) -> Result<String, String> {
    let sim_netlist = design
        .scanned
        .as_ref()
        .map(|s| &s.netlist)
        .unwrap_or(&design.base);
    let threads = rescue_atpg::resolve_threads(cfg.threads);
    let mut shards = LaneShards::new(&design.lev, threads, cfg.lane_words)
        .ok_or_else(|| format!("unsupported lane_words {}", cfg.lane_words))?;

    // Seeded random pattern blocks: deterministic for a given seed.
    let mut rng = SplitMix64::new(cfg.seed);
    let blocks: Vec<PatternBlock> = (0..cfg.patterns)
        .map(|_| {
            let mut b = PatternBlock::zero(sim_netlist);
            for w in b.inputs.iter_mut().chain(b.state.iter_mut()) {
                *w = rng.next_u64();
            }
            b
        })
        .collect();

    // Simulate with fault dropping, exactly like the ATPG flush loop:
    // detected faults leave `remaining` in canonical order. Each
    // detection records the fault's *global* first-detect pattern index
    // (group base + per-group lane, the same fold as the ATPG drop
    // loop) keyed by the fault's canonical position. `lane_words` only
    // changes how patterns are grouped, not which pattern detects a
    // fault first, so both the key and the value are width-invariant —
    // which the digest below must be, because `lane_words` is excluded
    // from [`JobConfig::config_hash`] and jobs differing only in it
    // share a result-cache entry.
    let mut remaining = design.faults.clone();
    let mut slots: Vec<usize> = (0..remaining.len()).collect();
    let mut first_detect: Vec<Option<u64>> = vec![None; design.faults.len()];
    for (group_idx, group) in blocks.chunks(cfg.lane_words).enumerate() {
        let group_base = (group_idx * cfg.lane_words * 64) as u64;
        let lanes = shards.detect_lanes_group(group, &remaining);
        if lanes.len() != remaining.len() {
            return Err("fault-sim lane count mismatch".to_owned());
        }
        let old = std::mem::take(&mut remaining);
        let old_slots = std::mem::take(&mut slots);
        for ((f, slot), lane) in old.into_iter().zip(old_slots).zip(&lanes) {
            match lane {
                Some(l) => first_detect[slot] = Some(group_base + u64::from(*l)),
                None => {
                    remaining.push(f);
                    slots.push(slot);
                }
            }
        }
    }

    // Digest `(canonical fault position, global first-detect pattern)`
    // pairs in canonical fault order.
    let mut detected = 0u64;
    let mut digest = Fnv64::new();
    for (slot, det) in first_detect.iter().enumerate() {
        if let Some(pattern) = det {
            detected += 1;
            digest.write_u64(slot as u64);
            digest.write_u64(*pattern);
        }
    }

    let mut o = result_head(design, JobKind::Fsim);
    o.u64("blocks", cfg.patterns as u64)
        .u64("faults", design.faults.len() as u64)
        .u64("detected", detected)
        .u64("undetected", design.faults.len() as u64 - detected)
        .str("detect_digest", &format!("{:016x}", digest.finish()));
    Ok(o.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_with_defaults_and_overrides() {
        let cfg = JobConfig::parse(r#"{"kind":"atpg"}"#).unwrap();
        assert_eq!(cfg.kind, JobKind::Atpg);
        assert_eq!(cfg, JobConfig::new(JobKind::Atpg));

        let cfg = JobConfig::parse(
            r#"{"kind":"fsim","patterns":8,"seed":7,"threads":2,"merge_cubes":false}"#,
        )
        .unwrap();
        assert_eq!(cfg.kind, JobKind::Fsim);
        assert_eq!(cfg.patterns, 8);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 2);
        assert!(!cfg.merge_cubes);
    }

    #[test]
    fn config_rejects_bad_input() {
        assert!(JobConfig::parse("not json").is_err());
        assert!(JobConfig::parse("[]").is_err());
        assert!(JobConfig::parse(r#"{"kind":"noodle"}"#).is_err());
        assert!(JobConfig::parse(r#"{}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"atpg","threads":-1}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"fsim","patterns":0}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"atpg","merge_cubes":3}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"atpg","static_prepass":"yes"}"#).is_err());
        for bad in [0, 2, 3, 16] {
            let cfg = format!(r#"{{"kind":"fsim","lane_words":{bad}}}"#);
            assert!(JobConfig::parse(&cfg).is_err(), "lane_words {bad}");
        }
        for good in [1, 4, 8] {
            let cfg = format!(r#"{{"kind":"fsim","lane_words":{good}}}"#);
            assert_eq!(JobConfig::parse(&cfg).unwrap().lane_words, good);
        }
    }

    #[test]
    fn static_prepass_parses_and_reaches_the_engine_config() {
        let cfg = JobConfig::parse(r#"{"kind":"atpg","static_prepass":true}"#).unwrap();
        assert!(cfg.static_prepass);
        assert!(cfg.atpg_config().static_prepass);
        assert!(!JobConfig::new(JobKind::Atpg).static_prepass);
    }

    #[test]
    fn config_hash_ignores_datapath_knobs_only() {
        let base = JobConfig::new(JobKind::Atpg);
        let mut threads = base.clone();
        threads.threads = 7;
        threads.lane_words = 4;
        assert_eq!(base.config_hash(), threads.config_hash());

        let mut seeded = base.clone();
        seeded.fill_seed = 1;
        assert_ne!(base.config_hash(), seeded.config_hash());
        let mut other_kind = base.clone();
        other_kind.kind = JobKind::Lint;
        assert_ne!(base.config_hash(), other_kind.config_hash());
        // The pre-pass can move the result line's class counts on
        // budget-limited designs, so it must key its own cache entry.
        let mut prepass = base.clone();
        prepass.static_prepass = true;
        assert_ne!(base.config_hash(), prepass.config_hash());
    }
}
