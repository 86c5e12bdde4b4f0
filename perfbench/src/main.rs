//! `perfbench`: the end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <atpg-table3|serve-mix|yield-study> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines (the workload's headline numbers and
//! deterministic counts), then one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` — every end-to-end metric when `--trace 0`,
//! every per-layer metric when `--trace 1`. Exits non-zero when any
//! operation or output check failed. See `perfbench/README.md`.

mod atpg;
mod bench;
mod serve;
mod stats;
mod study;
mod trace;

use bench::{Outcome, Run, E2E, LAYER, WORKLOADS};
use rescue_obs::json::{fmt_f64, JsonObj};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    run: Run,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!(
                        "unknown workload {value:?} (expected one of {WORKLOADS:?})"
                    ));
                }
                workload = Some(value.to_owned());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.unwrap_or(false),
        },
    })
}

/// The result line: the catalog's metrics in catalog order, with 0 for
/// a layer the workload never called.
fn result_line(outcome: &Outcome, traced: bool) -> String {
    let (catalog, values) = if traced {
        (LAYER, &outcome.layer)
    } else {
        (E2E, &outcome.e2e)
    };
    let mut metrics = JsonObj::new();
    for &(name, unit) in catalog {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        let mut m = JsonObj::new();
        m.raw("value", &fmt_f64(value)).str("unit", unit);
        metrics.raw(name, &m.finish());
    }
    let mut o = JsonObj::new();
    o.bool("correct", outcome.checks.failed == 0)
        .u64("attempted", outcome.checks.attempted.max(1))
        .u64("failed", outcome.checks.failed)
        .raw("metrics", &metrics.finish());
    o.finish()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = args.run;
    let outcome = match args.workload.as_str() {
        "atpg-table3" => atpg::run(&run),
        "serve-mix" => serve::run(&run),
        "yield-study" => study::run(&run),
        _ => unreachable!("parse_args admits only known workloads"),
    };

    for line in &outcome.report {
        println!("# {line}");
    }
    if run.traced {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| "perfbench/target".into());
        let path = dir
            .join("perfbench-spans")
            .join(format!("{}-{}.jsonl", args.workload, run.seed));
        match trace::write_jsonl(&trace::spans(), &path) {
            Ok(()) => println!("# spans {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    println!("{}", result_line(&outcome, run.traced));
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_obs::json::{parse, JsonValue};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args(
            "--workload serve-mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-mix");
        assert_eq!(a.run.seed, 7);
        assert_eq!(a.run.seconds, 10.0);
        assert!(a.run.traced);
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve-mix --seconds 1")).is_err());
        assert!(parse_args(&args("--workload serve-mix --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve-mix --seed")).is_err());
    }

    /// The catalogs must match `BENCHMARK.json` name for name, unit for
    /// unit, and so must the workload list.
    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(E2E));
        assert_eq!(list("per_layer"), own(LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_prints_every_catalog_metric() {
        let mut o = Outcome::default();
        o.checks.check(true, String::new);
        o.e2e = vec![("wall_s", 1.5)];
        let line = result_line(&o, false);
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let m = doc.get("metrics").unwrap();
        for (name, unit) in E2E {
            let entry = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(*unit));
        }
        let wall = m
            .get("wall_s")
            .and_then(|e| e.get("value"))
            .and_then(JsonValue::as_f64);
        assert_eq!(wall, Some(1.5));
        let traced = parse(&result_line(&o, true)).unwrap();
        assert!(LAYER
            .iter()
            .all(|(n, _)| traced.get("metrics").unwrap().get(n).is_some()));
    }
}
