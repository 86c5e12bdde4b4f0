//! Structural comparison of two `BENCH_metrics.json` documents — the
//! engine behind the `bench-diff` regression gate.
//!
//! Every engine in this workspace is seeded and deterministic, so two
//! runs of the same binary at the same size must produce *identical*
//! counters: vector counts, fault classifications, PODEM decisions,
//! histogram buckets, coverage endpoints. The comparison therefore
//! defaults to **exact** equality for integers and strings and a tiny
//! relative tolerance for derived floats (they are quotients of exact
//! integers, so only the last bits may differ across compilers).
//!
//! Wall-clock metrics are the exception: keys ending in `_ns`/`_ms`,
//! the `*.timing` sections, and span `total_ns`/`max_ns` vary run to
//! run and machine to machine, so they are reported as informational
//! deltas and never fail the gate unless an explicit
//! [`DiffConfig::time_tolerance`] is set.
//!
//! A metric or section present in the baseline but missing from the
//! current document is a failure (a silently dropped counter is exactly
//! the regression this gate exists to catch); metrics only present in
//! the current document are warnings (new instrumentation is expected
//! to update the baseline).

use rescue_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How one compared metric fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Values agree under the applicable rule.
    Match,
    /// Wall-clock delta, reported but never failing.
    Info,
    /// Structural novelty (extra metric/section in the current run).
    Warn,
    /// Regression: exact metric changed, tolerance exceeded, or a
    /// baseline metric disappeared.
    Fail,
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Outcome severity.
    pub severity: Severity,
    /// Dotted path (`section.key` or `spans.name.field`).
    pub path: String,
    /// Baseline value, rendered ("-" when absent).
    pub baseline: String,
    /// Current value, rendered ("-" when absent).
    pub current: String,
    /// Short explanation (delta magnitude, rule applied).
    pub note: String,
}

/// The full comparison outcome.
#[derive(Clone, Debug, Default)]
pub struct DiffResult {
    /// Every compared metric, in document order.
    pub deltas: Vec<Delta>,
}

impl DiffResult {
    /// True when any delta is a [`Severity::Fail`].
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.severity == Severity::Fail)
    }

    fn count(&self, s: Severity) -> usize {
        self.deltas.iter().filter(|d| d.severity == s).count()
    }

    /// Render the delta table. Matching metrics are elided unless
    /// `show_all`; the summary line always prints.
    pub fn render(&self, show_all: bool) -> String {
        let mut s = String::new();
        let shown: Vec<&Delta> = self
            .deltas
            .iter()
            .filter(|d| show_all || d.severity != Severity::Match)
            .collect();
        if !shown.is_empty() {
            let _ = writeln!(
                s,
                "{:5} {:52} {:>16} {:>16}  note",
                "", "metric", "baseline", "current"
            );
            for d in shown {
                let tag = match d.severity {
                    Severity::Match => "ok",
                    Severity::Info => "info",
                    Severity::Warn => "warn",
                    Severity::Fail => "FAIL",
                };
                let _ = writeln!(
                    s,
                    "{:5} {:52} {:>16} {:>16}  {}",
                    tag, d.path, d.baseline, d.current, d.note
                );
            }
        }
        let _ = writeln!(
            s,
            "{} metrics compared: {} failed, {} warnings, {} informational",
            self.deltas.len(),
            self.count(Severity::Fail),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        s
    }
}

/// Tolerance rules for [`diff`].
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Relative tolerance for wall-clock metrics. `None` (the default)
    /// reports them as informational and never fails on them.
    pub time_tolerance: Option<f64>,
    /// Relative tolerance for non-time floats (derived quotients of
    /// exact integers; defaults to 1e-9).
    pub float_tolerance: f64,
    /// Gate robust-stats metrics (`--repeat N` medians) against the
    /// baseline's own spread. Off by default: medians are always
    /// reported, but only fail the gate when this is set.
    pub stats_gate: bool,
    /// Width of the noise band in baseline MADs (default 8.0).
    pub noise_mads: f64,
    /// Relative floor of the noise band as a fraction of the baseline
    /// median (default 0.10), so a near-zero MAD from a lucky baseline
    /// cannot make the gate hair-triggered.
    pub noise_floor_rel: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            time_tolerance: None,
            float_tolerance: 1e-9,
            stats_gate: false,
            noise_mads: 8.0,
            noise_floor_rel: 0.10,
        }
    }
}

/// Paths compared informationally rather than gated: wall-clock and
/// throughput keys, and the `fuzz.*` counters — fuzzing scale (cases,
/// oracle subset, gate cap) is a CLI knob, so its tallies legitimately
/// differ between runs that are both healthy. SCOAP aggregates
/// (`lint.*.scoap.*`) are testability telemetry, not correctness
/// counters; the `lint.*` diagnostic counts themselves still gate
/// exactly, as do the implication-learning counts (`lint.*.impl.*`)
/// and the static pre-pass rows (`atpg.prepass.*` — proofs are
/// deterministic; only the `_ms` / `_per_sec` suffixed rates there
/// are wall-clock). The observability self-benchmark (`obs.overhead.*`) is
/// wall-clock by nature, and the `live.*` ring totals only exist on
/// runs started with `--serve-metrics` / `--progress-every`. The
/// `profile.*` phase attribution is wall-clock (and its scope counts
/// vary with thread scheduling); `bench.*` records harness knobs
/// (`--repeat`, `--warmup`) that legitimately differ between runs.
/// Job-server rows (`serve.*` from the `serve-load` generator) are
/// latency/throughput measurements — informational — **except** the
/// cache rows (`serve.cache.*`), whose hit/miss counts are exact by
/// the generator's phased construction (serial populate, then replay)
/// and gate exactly; wall-clock suffixes like `…speedup` still apply
/// inside `serve.cache.*`.
fn is_informational_path(path: &str) -> bool {
    path.starts_with("profile.")
        || path.starts_with("bench.")
        || path.ends_with("_ns")
        || path.ends_with("_ms")
        || path.ends_with("_per_sec")
        || path.ends_with("speedup")
        || path.contains(".timing.")
        || path.contains(".parallel.")
        || path.contains(".scoap.")
        || path.starts_with("fuzz.")
        || path.starts_with("obs.overhead.")
        || path.starts_with("live.")
        || (path.starts_with("serve.") && !path.starts_with("serve.cache."))
        || path.starts_with("spans.") && (path.ends_with(".total") || path.ends_with(".max"))
}

/// Per-worker spans (`fsim.worker`, `isolation.worker`) fire once per
/// spawned worker, so their *count* legitimately varies with
/// `--threads` / the machine's parallelism — unlike every other span,
/// whose count is a deterministic phase counter.
fn is_worker_span(name: &str) -> bool {
    name.ends_with(".worker")
}

fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Int(i) => i.to_string(),
        JsonValue::Num(f) => format!("{f:.6}"),
        JsonValue::Str(s) => {
            if s.len() > 16 {
                format!("{}…", &s[..15.min(s.len())])
            } else {
                s.clone()
            }
        }
        JsonValue::Arr(a) => format!("[{} items]", a.len()),
        JsonValue::Obj(o) => format!("{{{} keys}}", o.len()),
    }
}

fn rel_delta(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// Compare two parsed `BENCH_metrics.json` documents under `cfg`.
///
/// Returns `Err` only when a document does not have the report schema
/// at all (no `sections` array) — shape errors inside sections are
/// reported as failing deltas instead.
pub fn diff(
    baseline: &JsonValue,
    current: &JsonValue,
    cfg: &DiffConfig,
) -> Result<DiffResult, String> {
    let mut out = DiffResult::default();

    let title_b = baseline.get("title").and_then(JsonValue::as_str);
    let title_c = current.get("title").and_then(JsonValue::as_str);
    if title_b != title_c {
        out.deltas.push(Delta {
            severity: Severity::Fail,
            path: "title".into(),
            baseline: title_b.unwrap_or("-").into(),
            current: title_c.unwrap_or("-").into(),
            note: "documents come from different binaries".into(),
        });
    }

    let sections = |doc: &JsonValue, which: &str| -> Result<BTreeMap<String, JsonValue>, String> {
        let arr = doc
            .get("sections")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("{which}: not a report document (no \"sections\" array)"))?;
        let mut map = BTreeMap::new();
        for s in arr {
            let name = s
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{which}: section without a name"))?;
            let metrics = s
                .get("metrics")
                .cloned()
                .ok_or_else(|| format!("{which}: section {name:?} without metrics"))?;
            map.insert(name.to_owned(), metrics);
        }
        Ok(map)
    };
    let secs_b = sections(baseline, "baseline")?;
    let secs_c = sections(current, "current")?;

    for (name, metrics_b) in &secs_b {
        match secs_c.get(name) {
            None => out.deltas.push(Delta {
                severity: Severity::Fail,
                path: name.clone(),
                baseline: render_value(metrics_b),
                current: "-".into(),
                note: "section missing from current run".into(),
            }),
            Some(metrics_c) => compare_value(name, metrics_b, metrics_c, cfg, &mut out),
        }
    }
    for (name, metrics_c) in &secs_c {
        if !secs_b.contains_key(name) {
            out.deltas.push(Delta {
                severity: Severity::Warn,
                path: name.clone(),
                baseline: "-".into(),
                current: render_value(metrics_c),
                note: "new section (update the baseline?)".into(),
            });
        }
    }

    compare_spans(baseline, current, cfg, &mut out);
    Ok(out)
}

/// (count, total_ns, max_ns) of one span summary, fields optional.
type SpanFields = (Option<i128>, Option<f64>, Option<f64>);

fn compare_spans(
    baseline: &JsonValue,
    current: &JsonValue,
    cfg: &DiffConfig,
    out: &mut DiffResult,
) {
    let spans = |doc: &JsonValue| -> BTreeMap<String, SpanFields> {
        let mut map = BTreeMap::new();
        if let Some(arr) = doc.get("spans").and_then(JsonValue::as_arr) {
            for s in arr {
                if let Some(name) = s.get("name").and_then(JsonValue::as_str) {
                    map.insert(
                        name.to_owned(),
                        (
                            s.get("count").and_then(JsonValue::as_int),
                            s.get("total_ns").and_then(JsonValue::as_f64),
                            s.get("max_ns").and_then(JsonValue::as_f64),
                        ),
                    );
                }
            }
        }
        map
    };
    let b = spans(baseline);
    let c = spans(current);
    for (name, (count_b, total_b, max_b)) in &b {
        let path = format!("spans.{name}");
        let Some((count_c, total_c, max_c)) = c.get(name) else {
            out.deltas.push(Delta {
                severity: if is_worker_span(name) {
                    Severity::Info
                } else {
                    Severity::Fail
                },
                path,
                baseline: format!("count {}", count_b.unwrap_or(0)),
                current: "-".into(),
                note: "span missing from current run".into(),
            });
            continue;
        };
        // Span *counts* are deterministic (how many times the phase
        // ran); the timings are wall-clock. Worker spans are the
        // exception: one per spawned worker, thread-count-dependent.
        if count_b != count_c {
            out.deltas.push(Delta {
                severity: if is_worker_span(name) {
                    Severity::Info
                } else {
                    Severity::Fail
                },
                path: format!("{path}.count"),
                baseline: count_b.map_or("-".into(), |v| v.to_string()),
                current: count_c.map_or("-".into(), |v| v.to_string()),
                note: if is_worker_span(name) {
                    "worker span count (thread-count-dependent)".into()
                } else {
                    "span count changed".into()
                },
            });
        } else {
            out.deltas.push(Delta {
                severity: Severity::Match,
                path: format!("{path}.count"),
                baseline: count_b.map_or("-".into(), |v| v.to_string()),
                current: count_c.map_or("-".into(), |v| v.to_string()),
                note: String::new(),
            });
        }
        for (field, vb, vc) in [("total", total_b, total_c), ("max", max_b, max_c)] {
            if let (Some(vb), Some(vc)) = (vb, vc) {
                compare_floats(&format!("{path}.{field}"), *vb, *vc, true, cfg, out);
            }
        }
    }
    for name in c.keys() {
        if !b.contains_key(name) {
            out.deltas.push(Delta {
                severity: Severity::Warn,
                path: format!("spans.{name}"),
                baseline: "-".into(),
                current: "present".into(),
                note: "new span".into(),
            });
        }
    }
}

fn compare_floats(
    path: &str,
    b: f64,
    c: f64,
    is_time: bool,
    cfg: &DiffConfig,
    out: &mut DiffResult,
) {
    let rel = rel_delta(b, c);
    let (severity, note) = if is_time {
        match cfg.time_tolerance {
            None => (
                if rel == 0.0 {
                    Severity::Match
                } else {
                    Severity::Info
                },
                format!("wall-clock, {:+.1}%", 100.0 * (c - b) / b.abs().max(1e-300)),
            ),
            Some(tol) if rel > tol => (
                Severity::Fail,
                format!("wall-clock delta {rel:.3e} exceeds tolerance {tol:.3e}"),
            ),
            Some(_) => (Severity::Match, String::new()),
        }
    } else if rel > cfg.float_tolerance {
        (
            Severity::Fail,
            format!(
                "delta {rel:.3e} exceeds tolerance {:.3e}",
                cfg.float_tolerance
            ),
        )
    } else {
        (Severity::Match, String::new())
    };
    out.deltas.push(Delta {
        severity,
        path: path.to_owned(),
        baseline: format!("{b:.6}"),
        current: format!("{c:.6}"),
        note,
    });
}

/// `(median, mad, n)` of a robust-stats object, as emitted for
/// `--repeat N` metrics: `{"n":..,"median":..,"mad":..,...}`.
fn as_stats(v: &JsonValue) -> Option<(f64, f64, i128)> {
    let o = match v {
        JsonValue::Obj(_) => v,
        _ => return None,
    };
    Some((
        o.get("median").and_then(JsonValue::as_f64)?,
        o.get("mad").and_then(JsonValue::as_f64)?,
        o.get("n").and_then(JsonValue::as_int)?,
    ))
}

/// Paths whose robust-stats medians never gate even under
/// `--stats-gate`: self-attribution (`profile.*`, `bench.*`), the
/// telemetry self-benchmark (`obs.overhead.*` — percentages near zero,
/// where a median-relative band is meaningless), run-scale-dependent
/// families (`fuzz.*`, `live.*`), and machine-shape-dependent ones
/// (`*.parallel.*`, `*.scoap.*`). Plain wall-clock medians (`*_ms`,
/// `*.timing.*`, throughput) DO gate — banding those against the
/// baseline's own spread is the point of the stats gate.
fn is_stats_gate_exempt(path: &str) -> bool {
    path.starts_with("profile.")
        || path.starts_with("bench.")
        || path.starts_with("obs.overhead.")
        || path.starts_with("fuzz.")
        || path.starts_with("live.")
        || path.contains(".parallel.")
        || path.contains(".scoap.")
}

/// Paths where larger is better (throughput and speedup ratios): the
/// one-sided stats gate flips for these, failing on a *decrease* beyond
/// the noise band instead of an increase.
fn is_higher_better(path: &str) -> bool {
    path.ends_with("_per_sec") || path.ends_with("speedup")
}

/// Compare two robust-stats metrics. The gate is **one-sided**: with
/// [`DiffConfig::stats_gate`] set, it fails only when the current
/// median regresses past the baseline median by more than the noise
/// band `max(noise_mads·MAD, noise_floor_rel·|median|)` derived from
/// the baseline's own spread — an increase for time-like metrics, a
/// decrease for [`is_higher_better`] throughput metrics. Improvements
/// and within-band drift report as informational, as does everything
/// [`is_stats_gate_exempt`].
fn compare_stats(
    path: &str,
    (med_b, mad_b, n_b): (f64, f64, i128),
    (med_c, _mad_c, n_c): (f64, f64, i128),
    cfg: &DiffConfig,
    out: &mut DiffResult,
) {
    let band = (cfg.noise_mads * mad_b)
        .max(cfg.noise_floor_rel * med_b.abs())
        .max(1e-9);
    let delta_pct = 100.0 * (med_c - med_b) / med_b.abs().max(1e-300);
    let gateable = cfg.stats_gate && !is_stats_gate_exempt(path);
    let regressed = if is_higher_better(path) {
        med_c < med_b - band
    } else {
        med_c > med_b + band
    };
    let (severity, note) = if gateable && regressed {
        (
            Severity::Fail,
            format!(
                "median {delta_pct:+.1}% exceeds noise band (±{:.1}%, n={n_b}/{n_c})",
                100.0 * band / med_b.abs().max(1e-300)
            ),
        )
    } else {
        (
            Severity::Info,
            format!("median {delta_pct:+.1}% (band ±{band:.3}, n={n_b}/{n_c})"),
        )
    };
    out.deltas.push(Delta {
        severity,
        path: path.to_owned(),
        baseline: format!("{med_b:.6}"),
        current: format!("{med_c:.6}"),
        note,
    });
}

fn compare_value(path: &str, b: &JsonValue, c: &JsonValue, cfg: &DiffConfig, out: &mut DiffResult) {
    // Robust-stats objects compare by median + noise band, and a
    // stats-vs-scalar mismatch (a `--repeat N` run gated against a
    // single-run baseline, or vice versa) compares the median against
    // the scalar informationally instead of failing as a type change.
    match (as_stats(b), as_stats(c)) {
        (Some(sb), Some(sc)) => {
            compare_stats(path, sb, sc, cfg, out);
            return;
        }
        (Some((med_b, _, n_b)), None) if c.as_f64().is_some() => {
            out.deltas.push(Delta {
                severity: Severity::Info,
                path: path.to_owned(),
                baseline: format!("{med_b:.6}"),
                current: format!("{:.6}", c.as_f64().unwrap_or(0.0)),
                note: format!("stats (n={n_b}) vs single sample"),
            });
            return;
        }
        (None, Some((med_c, _, n_c))) if b.as_f64().is_some() => {
            out.deltas.push(Delta {
                severity: Severity::Info,
                path: path.to_owned(),
                baseline: format!("{:.6}", b.as_f64().unwrap_or(0.0)),
                current: format!("{med_c:.6}"),
                note: format!("single sample vs stats (n={n_c})"),
            });
            return;
        }
        _ => {}
    }
    match (b, c) {
        (JsonValue::Obj(kb), JsonValue::Obj(_)) => {
            for (k, vb) in kb {
                let child = format!("{path}.{k}");
                match c.get(k) {
                    None => out.deltas.push(Delta {
                        severity: Severity::Fail,
                        path: child,
                        baseline: render_value(vb),
                        current: "-".into(),
                        note: "metric missing from current run".into(),
                    }),
                    Some(vc) => compare_value(&child, vb, vc, cfg, out),
                }
            }
            if let JsonValue::Obj(kc) = c {
                for (k, vc) in kc {
                    if b.get(k).is_none() {
                        out.deltas.push(Delta {
                            severity: Severity::Warn,
                            path: format!("{path}.{k}"),
                            baseline: "-".into(),
                            current: render_value(vc),
                            note: "new metric (update the baseline?)".into(),
                        });
                    }
                }
            }
        }
        (JsonValue::Arr(ab), JsonValue::Arr(ac)) => {
            if ab.len() != ac.len() {
                out.deltas.push(Delta {
                    severity: Severity::Fail,
                    path: path.to_owned(),
                    baseline: format!("[{} items]", ab.len()),
                    current: format!("[{} items]", ac.len()),
                    note: "array length changed".into(),
                });
                return;
            }
            for (i, (vb, vc)) in ab.iter().zip(ac).enumerate() {
                compare_value(&format!("{path}[{i}]"), vb, vc, cfg, out);
            }
        }
        (JsonValue::Int(ib), JsonValue::Int(ic)) if !is_informational_path(path) => {
            // Deterministic counter: exact or regression.
            out.deltas.push(Delta {
                severity: if ib == ic {
                    Severity::Match
                } else {
                    Severity::Fail
                },
                path: path.to_owned(),
                baseline: ib.to_string(),
                current: ic.to_string(),
                note: if ib == ic {
                    String::new()
                } else {
                    format!("counter changed by {:+}", ic - ib)
                },
            });
        }
        (JsonValue::Str(sb), JsonValue::Str(sc)) => {
            out.deltas.push(Delta {
                severity: if sb == sc {
                    Severity::Match
                } else {
                    Severity::Fail
                },
                path: path.to_owned(),
                baseline: render_value(b),
                current: render_value(c),
                note: if sb == sc {
                    String::new()
                } else {
                    "string changed".into()
                },
            });
        }
        (JsonValue::Bool(bb), JsonValue::Bool(bc)) => {
            out.deltas.push(Delta {
                severity: if bb == bc {
                    Severity::Match
                } else {
                    Severity::Fail
                },
                path: path.to_owned(),
                baseline: bb.to_string(),
                current: bc.to_string(),
                note: String::new(),
            });
        }
        (JsonValue::Null, JsonValue::Null) => out.deltas.push(Delta {
            severity: Severity::Match,
            path: path.to_owned(),
            baseline: "null".into(),
            current: "null".into(),
            note: String::new(),
        }),
        _ => {
            // Numeric (or mixed int/float, or time-suffixed integer)
            // comparison when both sides are numbers; otherwise a type
            // mismatch is a failure.
            match (b.as_f64(), c.as_f64()) {
                (Some(fb), Some(fc)) => {
                    compare_floats(path, fb, fc, is_informational_path(path), cfg, out)
                }
                _ => out.deltas.push(Delta {
                    severity: Severity::Fail,
                    path: path.to_owned(),
                    baseline: render_value(b),
                    current: render_value(c),
                    note: "value type changed".into(),
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_obs::json::parse;

    fn doc(ipc: &str, vectors: u64, fsim_ms: &str) -> JsonValue {
        parse(&format!(
            r#"{{"title":"all","sections":[
                {{"name":"fig8.gcc","metrics":{{"ipc":{ipc},"vectors":{vectors},
                   "hist":{{"count":3,"buckets":[1,2,0]}}}}}},
                {{"name":"t.timing","metrics":{{"fsim_ms":{fsim_ms}}}}}],
               "spans":[{{"name":"atpg","count":2,"total_ns":100,"max_ns":60}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let b = doc("0.5", 10, "1.5");
        let r = diff(&b, &b, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        // Summary always renders.
        assert!(r.render(false).contains("0 failed"));
    }

    #[test]
    fn perturbed_counter_fails() {
        let b = doc("0.5", 10, "1.5");
        let c = doc("0.5", 11, "1.5");
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        let fail = r
            .deltas
            .iter()
            .find(|d| d.severity == Severity::Fail)
            .unwrap();
        assert_eq!(fail.path, "fig8.gcc.vectors");
        assert!(r.render(false).contains("FAIL"));
    }

    #[test]
    fn wall_clock_changes_are_informational_by_default() {
        let b = doc("0.5", 10, "1.5");
        let c = doc("0.5", 10, "99.0");
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "t.timing.fsim_ms"));
        // ...but an explicit tolerance turns them into failures.
        let cfg = DiffConfig {
            time_tolerance: Some(0.10),
            ..DiffConfig::default()
        };
        assert!(diff(&b, &c, &cfg).unwrap().regressed());
    }

    #[test]
    fn serve_rows_are_informational_except_cache_counts() {
        let serve_doc = |p99: u64, hits: u64| {
            parse(&format!(
                r#"{{"title":"serve_load","sections":[
                    {{"name":"serve.load","metrics":{{"jobs":32,"warm_p99_ns":{p99},"shed_429":8}}}},
                    {{"name":"serve.cache","metrics":{{"hits":{hits},"misses":7,"cold_over_warm_speedup":50.0}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        // Latency drift (and even the shed tally) is informational…
        let b = serve_doc(1_000, 25);
        let c = parse(
            r#"{"title":"serve_load","sections":[
                {"name":"serve.load","metrics":{"jobs":31,"warm_p99_ns":9000,"shed_429":5}},
                {"name":"serve.cache","metrics":{"hits":25,"misses":7,"cold_over_warm_speedup":2.0}}],
               "spans":[]}"#,
        )
        .unwrap();
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "serve.load.warm_p99_ns"));
        // …but a cache-hit count change is a hard failure.
        let c = serve_doc(1_000, 24);
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Fail && d.path == "serve.cache.hits"));
    }

    #[test]
    fn float_drift_beyond_tolerance_fails() {
        let b = doc("0.5", 10, "1.5");
        let c = doc("0.5000001", 10, "1.5");
        assert!(diff(&b, &c, &DiffConfig::default()).unwrap().regressed());
        let close = doc("0.50000000000000004", 10, "1.5");
        assert!(!diff(&b, &close, &DiffConfig::default())
            .unwrap()
            .regressed());
    }

    #[test]
    fn missing_metric_fails_extra_warns() {
        let b =
            parse(r#"{"title":"t","sections":[{"name":"s","metrics":{"a":1,"b":2}}],"spans":[]}"#)
                .unwrap();
        let c =
            parse(r#"{"title":"t","sections":[{"name":"s","metrics":{"a":1,"c":3}}],"spans":[]}"#)
                .unwrap();
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Fail && d.path == "s.b"));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Warn && d.path == "s.c"));
    }

    #[test]
    fn missing_section_and_histogram_bucket_changes_fail() {
        let b = doc("0.5", 10, "1.5");
        let missing = parse(r#"{"title":"all","sections":[],"spans":[]}"#).unwrap();
        let r = diff(&b, &missing, &DiffConfig::default()).unwrap();
        assert!(r.regressed());

        // Perturb a histogram bucket.
        let text = r#"{"title":"all","sections":[
            {"name":"fig8.gcc","metrics":{"ipc":0.5,"vectors":10,
               "hist":{"count":3,"buckets":[1,1,1]}}},
            {"name":"t.timing","metrics":{"fsim_ms":1.5}}],
           "spans":[{"name":"atpg","count":2,"total_ns":100,"max_ns":60}]}"#;
        let c = parse(text).unwrap();
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(r.deltas.iter().any(|d| d.path.contains("buckets[1]")));
    }

    #[test]
    fn span_count_change_fails_timing_change_does_not() {
        let b = doc("0.5", 10, "1.5");
        let text = r#"{"title":"all","sections":[
            {"name":"fig8.gcc","metrics":{"ipc":0.5,"vectors":10,
               "hist":{"count":3,"buckets":[1,2,0]}}},
            {"name":"t.timing","metrics":{"fsim_ms":1.5}}],
           "spans":[{"name":"atpg","count":3,"total_ns":999,"max_ns":60}]}"#;
        let c = parse(text).unwrap();
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        let fails: Vec<&Delta> = r
            .deltas
            .iter()
            .filter(|d| d.severity == Severity::Fail)
            .collect();
        assert_eq!(fails.len(), 1, "{}", r.render(true));
        assert_eq!(fails[0].path, "spans.atpg.count");
    }

    #[test]
    fn parallel_sections_and_throughput_keys_are_informational() {
        let mk = |threads: u64, per_sec: &str, speedup: &str| {
            parse(&format!(
                r#"{{"title":"all","sections":[
                    {{"name":"t.fsim.parallel","metrics":{{"threads":{threads},"wall_ms":3.0}}}},
                    {{"name":"fsim_kernel","metrics":{{"gate_evals_bucket":500,
                       "bucket_evals_per_sec":{per_sec},"kernel_speedup":{speedup}}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        let b = mk(1, "1e6", "1.0");
        let c = mk(4, "9e6", "2.5");
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        // Thread count and throughput differ → informational, not failing.
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "t.fsim.parallel.threads"));
        // ...but a deterministic counter in the kernel section still gates.
        let c_bad = parse(
            r#"{"title":"all","sections":[
                {"name":"t.fsim.parallel","metrics":{"threads":1,"wall_ms":3.0}},
                {"name":"fsim_kernel","metrics":{"gate_evals_bucket":501,
                   "bucket_evals_per_sec":1e6,"kernel_speedup":1.0}}],
               "spans":[]}"#,
        )
        .unwrap();
        assert!(diff(&b, &c_bad, &DiffConfig::default())
            .unwrap()
            .regressed());
    }

    #[test]
    fn fuzz_counters_are_informational() {
        let mk = |runs: u64, div: u64| {
            parse(&format!(
                r#"{{"title":"fuzz","sections":[
                    {{"name":"fuzz","metrics":{{"cases":{runs},"divergences":{div}}}}},
                    {{"name":"fuzz.engines","metrics":{{"runs":{runs},"divergences":{div}}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        // A different fuzzing scale (1000 vs 50 cases) must not gate —
        // the smoke job picks its own budget per seed.
        let b = mk(1000, 0);
        let c = mk(50, 0);
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "fuzz.engines.runs"));
    }

    #[test]
    fn obs_overhead_and_live_sections_are_informational() {
        let mk = |ratio: &str, evals: u64, classified: u64| {
            parse(&format!(
                r#"{{"title":"all","sections":[
                    {{"name":"obs.overhead","metrics":{{"faults":100,
                       "gate_evals":{evals},"overhead_ratio":{ratio}}}}},
                    {{"name":"live","metrics":{{"uptime_ms":9.0,
                       "atpg.faults_classified":{classified}}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        // The overhead ratio is wall-clock; the live ring totals only
        // exist on `--serve-metrics` runs. Neither may gate, even when
        // the integer values move.
        let b = mk("1.01", 5000, 400);
        let c = mk("1.04", 5300, 800);
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        for path in [
            "obs.overhead.overhead_ratio",
            "obs.overhead.gate_evals",
            "live.atpg.faults_classified",
        ] {
            assert!(
                r.deltas
                    .iter()
                    .any(|d| d.severity == Severity::Info && d.path == path),
                "{path} not informational: {}",
                r.render(true)
            );
        }
    }

    #[test]
    fn lint_counts_gate_exactly_but_scoap_aggregates_are_informational() {
        let mk = |errors: u64, co_mean: &str, co_max: u64| {
            parse(&format!(
                r#"{{"title":"lint","sections":[
                    {{"name":"lint.baseline.scan","metrics":{{"errors":{errors},
                       "warnings":3,"rule.comb-loop":0}}}},
                    {{"name":"lint.baseline.scan.scoap","metrics":{{"co_mean":{co_mean},
                       "co_max":{co_max},"components":31}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        // SCOAP aggregates drifting (model resize, formula refinement)
        // must not gate on their own...
        let b = mk(0, "9.08", 59);
        let c = mk(0, "11.5", 64);
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "lint.baseline.scan.scoap.co_mean"));
        // ...but a diagnostic count changing is a regression.
        let c_bad = mk(1, "9.08", 59);
        let r = diff(&b, &c_bad, &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Fail && d.path == "lint.baseline.scan.errors"));
    }

    #[test]
    fn implication_counts_gate_exactly() {
        let mk = |redundant: u64, implications: u64| {
            parse(&format!(
                r#"{{"title":"lint","sections":[
                    {{"name":"lint.baseline.scan.impl","metrics":{{
                       "literals":1024,"direct_implications":{implications},
                       "constant_literals":4,"probe_rounds":2,
                       "stems":40,"reconvergent_stems":7,
                       "redundant_faults":{redundant}}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        // Implication learning is deterministic: every `lint.*.impl.*`
        // count must match exactly, unlike the SCOAP aggregates.
        let b = mk(3, 210);
        let r = diff(&b, &mk(3, 210), &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        let r = diff(&b, &mk(2, 210), &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(r.deltas.iter().any(|d| d.severity == Severity::Fail
            && d.path == "lint.baseline.scan.impl.redundant_faults"));
        let r = diff(&b, &mk(3, 209), &DiffConfig::default()).unwrap();
        assert!(r.regressed(), "{}", r.render(true));
    }

    #[test]
    fn prepass_counts_gate_exactly_but_rates_are_informational() {
        let mk = |proven: u64, vec_ident: u64, unsound: u64, per_sec: &str| {
            parse(&format!(
                r#"{{"title":"all","sections":[
                    {{"name":"atpg.prepass.rescue","metrics":{{
                       "proven":{proven},"podem_calls_saved":{proven},
                       "vectors_identical":{vec_ident},"upgraded_aborts":148,
                       "unsound_diffs":{unsound},"vectors":120,
                       "prepass_ms":1.5,"proofs_per_sec":{per_sec}}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        // Throughput may drift freely...
        let b = mk(9, 1, 0, "6000.0");
        let r = diff(&b, &mk(9, 1, 0, "9500.0"), &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        assert!(r.deltas.iter().any(
            |d| d.severity == Severity::Info && d.path == "atpg.prepass.rescue.proofs_per_sec"
        ));
        // ...but losing proofs, moving a vector (`vectors_identical`
        // 1 → 0), or any non-upgrade class change (`unsound_diffs`
        // 0 → 1) is a regression.
        let r = diff(&b, &mk(7, 1, 0, "6000.0"), &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Fail && d.path == "atpg.prepass.rescue.proven"));
        let r = diff(&b, &mk(9, 0, 0, "6000.0"), &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Fail
                && d.path == "atpg.prepass.rescue.vectors_identical"));
        let r = diff(&b, &mk(9, 1, 1, "6000.0"), &DiffConfig::default()).unwrap();
        assert!(r.regressed());
        assert!(
            r.deltas
                .iter()
                .any(|d| d.severity == Severity::Fail
                    && d.path == "atpg.prepass.rescue.unsound_diffs")
        );
    }

    #[test]
    fn worker_span_count_changes_are_informational() {
        let mk = |count: u64, spans_extra: &str| {
            parse(&format!(
                r#"{{"title":"all","sections":[],
                   "spans":[{{"name":"fsim.worker","count":{count},"total_ns":10,"max_ns":5}}{spans_extra}]}}"#
            ))
            .unwrap()
        };
        let b = mk(
            4,
            r#",{"name":"isolation.worker","count":4,"total_ns":9,"max_ns":3}"#,
        );
        let c = mk(1, "");
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        // Count 4→1 and a vanished worker span: informational only.
        assert!(!r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "spans.fsim.worker.count"));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "spans.isolation.worker"));
        // A non-worker span count change still fails.
        let b2 = parse(
            r#"{"title":"all","sections":[],
               "spans":[{"name":"atpg","count":2,"total_ns":10,"max_ns":5}]}"#,
        )
        .unwrap();
        let c2 = parse(
            r#"{"title":"all","sections":[],
               "spans":[{"name":"atpg","count":3,"total_ns":10,"max_ns":5}]}"#,
        )
        .unwrap();
        assert!(diff(&b2, &c2, &DiffConfig::default()).unwrap().regressed());
    }

    fn stats_doc(median: &str, mad: &str) -> JsonValue {
        parse(&format!(
            r#"{{"title":"all","sections":[
                {{"name":"kern","metrics":{{"gate_evals":1000,
                   "fsim_ms":{{"n":3,"median":{median},"mad":{mad},
                               "min":90.0,"max":120.0,"iqr":4.0}}}}}}],
               "spans":[]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn stats_metrics_are_informational_without_the_gate() {
        let b = stats_doc("100.0", "2.0");
        let c = stats_doc("300.0", "2.0");
        let r = diff(&b, &c, &DiffConfig::default()).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Info && d.path == "kern.fsim_ms"));
    }

    #[test]
    fn stats_gate_fails_only_beyond_the_noise_band() {
        let cfg = DiffConfig {
            stats_gate: true,
            ..DiffConfig::default()
        };
        let b = stats_doc("100.0", "2.0");
        // Band = max(8·2, 0.10·100) = 16. Median 108 is within it.
        let within = stats_doc("108.0", "2.5");
        assert!(!diff(&b, &within, &cfg).unwrap().regressed());
        // Median 300 is a 3× slowdown: fail.
        let slow = stats_doc("300.0", "2.0");
        let r = diff(&b, &slow, &cfg).unwrap();
        assert!(r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Fail && d.path == "kern.fsim_ms"));
        // The gate is one-sided: a 3× speedup passes.
        let fast = stats_doc("33.0", "1.0");
        assert!(!diff(&b, &fast, &cfg).unwrap().regressed());
    }

    #[test]
    fn stats_gate_flips_direction_for_throughput_metrics() {
        let cfg = DiffConfig {
            stats_gate: true,
            ..DiffConfig::default()
        };
        let doc = |median: &str| {
            parse(&format!(
                r#"{{"title":"all","sections":[
                    {{"name":"kern","metrics":{{
                       "evals_per_sec":{{"n":3,"median":{median},"mad":10.0,
                                         "min":900.0,"max":1200.0,"iqr":20.0}}}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        let b = doc("1000.0");
        // Throughput collapsing to a third is a regression…
        let slow = doc("333.0");
        let r = diff(&b, &slow, &cfg).unwrap();
        assert!(r.regressed(), "{}", r.render(true));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.severity == Severity::Fail && d.path == "kern.evals_per_sec"));
        // …while tripling it passes, and within-band drift passes.
        assert!(!diff(&b, &doc("3000.0"), &cfg).unwrap().regressed());
        assert!(!diff(&b, &doc("950.0"), &cfg).unwrap().regressed());
    }

    #[test]
    fn stats_noise_floor_absorbs_tiny_baseline_mad() {
        let cfg = DiffConfig {
            stats_gate: true,
            ..DiffConfig::default()
        };
        // MAD 0 (3 identical timings) would make any drift fail without
        // the relative floor; +8% stays inside the 10% floor band.
        let b = stats_doc("100.0", "0.0");
        let c = stats_doc("108.0", "0.0");
        assert!(!diff(&b, &c, &cfg).unwrap().regressed());
    }

    #[test]
    fn stats_vs_scalar_is_informational_not_a_type_change() {
        let b = stats_doc("100.0", "2.0");
        let c = parse(
            r#"{"title":"all","sections":[
                {"name":"kern","metrics":{"gate_evals":1000,"fsim_ms":250.0}}],
               "spans":[]}"#,
        )
        .unwrap();
        let cfg = DiffConfig {
            stats_gate: true,
            ..DiffConfig::default()
        };
        let r = diff(&b, &c, &cfg).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
        let r = diff(&c, &b, &cfg).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
    }

    #[test]
    fn exempt_sections_never_gate_even_with_stats_gate() {
        let mk = |total: &str, count: u64, pct: &str| {
            parse(&format!(
                r#"{{"title":"all","sections":[
                    {{"name":"profile.atpg.fsim","metrics":{{
                       "total_ms":{{"n":3,"median":{total},"mad":1.0,
                                    "min":1.0,"max":99.0,"iqr":2.0}},
                       "count":{count}}}}},
                    {{"name":"obs.overhead","metrics":{{
                       "overhead_pct":{{"n":3,"median":{pct},"mad":0.5,
                                        "min":0.1,"max":9.0,"iqr":1.0}}}}}}],
                   "spans":[]}}"#
            ))
            .unwrap()
        };
        let cfg = DiffConfig {
            stats_gate: true,
            ..DiffConfig::default()
        };
        // A 9× profile-time shift and a 0.9→5.3 overhead-pct swing:
        // neither is a workload regression, neither may gate.
        let r = diff(&mk("10.0", 4, "0.9"), &mk("90.0", 7, "5.3"), &cfg).unwrap();
        assert!(!r.regressed(), "{}", r.render(true));
    }

    #[test]
    fn non_report_document_is_an_error() {
        let junk = parse(r#"{"hello":1}"#).unwrap();
        assert!(diff(&junk, &junk, &DiffConfig::default()).is_err());
    }
}
