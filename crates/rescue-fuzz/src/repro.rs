//! Repro files: the durable artifact of a divergence.
//!
//! When an oracle fails, the shrunk case is serialized to a small text
//! file under `tests/regressions/` and committed alongside the fix. The
//! format is line-based `key: value` pairs — a header naming the
//! oracle and provenance, then the [`CaseIr`] body:
//!
//! ```text
//! # rescue-fuzz repro
//! oracle: engines
//! seed: 1
//! case: 17
//! detail: fault and_g3/sa0: naive mask 0x4, event-driven 0x0
//! inputs: 2
//! dff: 3
//! gate: and 0 1
//! output: 3
//! stim_in: 0x0000000000000004
//! stim_state: 0x0000000000000000
//! ```
//!
//! The workspace test `regressions_replay` re-runs every committed
//! repro through its oracle on each CI run, so a fixed divergence can
//! never silently regress.

use crate::ir::CaseIr;
use crate::oracles::OracleKind;
use std::path::{Path, PathBuf};

/// A divergence repro: provenance header plus the shrunk case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// Oracle that failed.
    pub oracle: OracleKind,
    /// Harness seed that produced the case.
    pub seed: u64,
    /// Case index under that seed.
    pub case_index: u64,
    /// One-line description of the divergence at discovery time.
    pub detail: String,
    /// The shrunk failing case.
    pub case: CaseIr,
}

impl Repro {
    /// Serialize to the repro text format.
    pub fn to_text(&self) -> String {
        let mut s = String::from("# rescue-fuzz repro\n");
        s.push_str(&format!("oracle: {}\n", self.oracle.name()));
        s.push_str(&format!("seed: {}\n", self.seed));
        s.push_str(&format!("case: {}\n", self.case_index));
        s.push_str(&format!("detail: {}\n", self.detail.replace('\n', " ")));
        s.push_str(&self.case.to_text());
        s
    }

    /// Parse a repro file's contents.
    pub fn from_text(text: &str) -> Result<Repro, String> {
        let mut oracle = None;
        let mut seed = 0u64;
        let mut case_index = 0u64;
        let mut detail = String::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((key, rest)) = line.split_once(':') {
                let rest = rest.trim();
                match key.trim() {
                    "oracle" => oracle = Some(OracleKind::of_name(rest)?),
                    "seed" => seed = rest.parse().map_err(|e| format!("seed: {e}"))?,
                    "case" => case_index = rest.parse().map_err(|e| format!("case: {e}"))?,
                    "detail" => detail = rest.to_owned(),
                    _ => {}
                }
            }
        }
        Ok(Repro {
            oracle: oracle.ok_or_else(|| "repro missing oracle line".to_owned())?,
            seed,
            case_index,
            detail,
            case: CaseIr::from_text(text)?,
        })
    }

    /// Canonical file name for this repro.
    pub fn file_name(&self) -> String {
        format!(
            "fuzz_{}_s{}_c{}.txt",
            self.oracle.name(),
            self.seed,
            self.case_index
        )
    }

    /// Write the repro into `dir` (created if needed). Returns the path.
    pub fn write_into(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_text())?;
        Ok(path)
    }
}

/// Load every `*.txt` repro in `dir`, sorted by file name. A missing
/// directory is an empty set, not an error (fresh checkouts have no
/// regressions yet).
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Repro)>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            let r = Repro::from_text(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p, r))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn repro_round_trips_through_text() {
        let r = Repro {
            oracle: OracleKind::Shards,
            seed: 3,
            case_index: 99,
            detail: "2-thread lanes diverge".to_owned(),
            case: generate(3, 99, &GenConfig::sized(16)),
        };
        let parsed = Repro::from_text(&r.to_text()).unwrap();
        assert_eq!(r, parsed);
        assert_eq!(r.file_name(), "fuzz_shards_s3_c99.txt");
    }

    #[test]
    fn missing_directory_is_an_empty_set() {
        let got = load_dir(Path::new("/nonexistent/rescue-fuzz-no-such-dir")).unwrap();
        assert!(got.is_empty());
    }
}
