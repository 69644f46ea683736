//! `perfbench` — the repository's benchmark: four encrypted-inference
//! workloads, six bounded end-to-end metrics, and an outside-in per-step /
//! per-op trace. See `README.md` beside this package for the metrics, the
//! workloads and how they interact.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! perfbench [--seed N] [--seconds S] [--quick] [--out FILE]  every workload, both passes
//! perfbench --compare A.json B.json                        judge B against A
//! ```
//!
//! The last line of a single-workload run is the JSON result object the
//! driver reads; every metric is also printed by name with its unit.

mod json;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;

use athena_math::par;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use workload::Workload;

/// Parsed command line. Unknown flags are rejected.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub quick: bool,
    pub out: Option<String>,
    pub spans: Option<String>,
    pub compare: Option<(String, String)>,
}

/// Seconds one run measures for; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: f64 = 20.0;

/// `min(available_parallelism, 4)`: the worker count every pass requests
/// unless `--threads` says otherwise. More than four workers only adds
/// spawn cost at the ring sizes benchmarked.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        threads: default_threads(),
        quick: false,
        out: None,
        spans: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let num = |v: String| -> Result<f64, String> {
            v.parse()
                .map_err(|e| format!("{flag}: bad number {v}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => args.seconds = num(value("a duration")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--threads" => args.threads = num(value("a count")?)? as usize,
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("a file")?),
            "--spans" => args.spans = Some(value("a file")?),
            "--compare" => args.compare = Some((value("record A")?, value("record B")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.threads == 0 || args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--threads and --seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one pass of one workload in this process and prints its result.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    par::set_threads(args.threads);
    let mut w = Workload::load(name)?;
    if args.quick {
        w.quick = true;
    }
    let seconds = if args.quick {
        args.seconds * suite::QUICK_SHARE
    } else {
        args.seconds
    };
    let result = if args.trace {
        trace::per_layer(&w, args.seed, args.threads, args.spans.as_deref())?
    } else {
        run::end_to_end(&w, args.seed, seconds)?
    };

    println!(
        "workload {name}  seed {}  seconds {seconds}  threads {}  trace {}",
        args.seed,
        args.threads,
        u8::from(args.trace)
    );
    let unit_of = |n: &str| -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(k, _)| *k == n)
            .unwrap_or_else(|| panic!("metric {n} is not declared"))
            .1
    };
    let declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut metrics = Vec::new();
    for name in declared {
        let value = result
            .metrics
            .iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1;
        println!("  {name:<40} {value:>16.4} {}", unit_of(name));
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        ));
    }
    assert_eq!(
        metrics.len(),
        result.metrics.len(),
        "an undeclared metric was measured"
    );
    println!("#detail {}", result.detail.to_line());
    if !result.accurate {
        eprintln!("perfbench: {name}: answers drifted past the workload's accuracy limits");
    }
    let correct = result.failed == 0 && result.accurate;
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            suite::compare(a, b)
        } else if let Some(name) = args.workload.clone() {
            run_workload(&name, &args)
        } else {
            suite::run_all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a correctness check or regression bound failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv("--workload cnn_t257 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("cnn_t257"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(a.threads >= 1 && a.threads <= 4);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "--trace 2",
            "--seed",
            "--frobnicate",
            "--seconds 0",
            "--threads 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
