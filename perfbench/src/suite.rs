//! Suite mode and record comparison.
//!
//! `run_all` runs every workload the way the driver does — each pass in
//! its own child process of this binary, so arena pool state and `VmHWM`
//! belong to one workload — in [`ROUNDS`] interleaved rounds (round-robin
//! over the workloads, so slow host drift does not land on one of them),
//! then one traced pass per workload. It prints every metric by name and
//! writes one JSON record. `compare` judges one record against another by
//! the bounds in [`crate::metrics::END_TO_END`].

use std::process::{Command, Stdio};
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workload::WORKLOADS;
use crate::Args;

/// `--quick` runs this share of the measuring time and of the traced
/// request counts (never fewer than one request) — a smoke run of the
/// whole suite whose numbers are not for comparison.
pub const QUICK_SHARE: f64 = 0.02;

/// Untraced passes per workload in a measuring run.
const ROUNDS: usize = 3;

/// Result of one child pass.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(metric, value)` in declaration order.
    metrics: Vec<(String, f64)>,
    detail: Json,
}

/// Runs one pass of one workload, with `workers` worker threads, as a
/// child process of this binary and parses what it printed.
fn run_pass(
    args: &Args,
    workload: &str,
    trace: bool,
    workers: usize,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--threads", &workers.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; stderr passes through.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let parsed = Json::parse(last);
    if !out.status.success() && parsed.is_err() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let doc = parsed.map_err(|e| format!("{workload}: result line: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: no {k}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{workload}: no metrics"))?
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Json::as_f64);
            (k.clone(), value.unwrap_or(f64::NAN))
        })
        .collect();
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
        detail,
    })
}

/// Runs the given passes, `lanes` of them at a time with `workers` worker
/// threads each, and returns their results in order.
fn run_passes(
    args: &Args,
    passes: &[(&str, bool)],
    lanes: usize,
    workers: usize,
) -> Result<Vec<ChildResult>, String> {
    let queue = Mutex::new(passes.iter().enumerate());
    let mut done: Vec<(usize, Result<ChildResult, String>)> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..lanes)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let next = queue.lock().expect("no lane panics in the queue").next();
                        let Some((i, (workload, trace))) = next else {
                            break mine;
                        };
                        eprintln!("perfbench: {workload} --trace {}", u8::from(*trace));
                        mine.push((i, run_pass(args, workload, *trace, workers)));
                    }
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().expect("a lane panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn host_metadata(workers: usize) -> Json {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("hardware_threads", Json::Num(hw as f64)),
        ("threads", Json::Num(workers as f64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "features",
            Json::str(if cfg!(feature = "counters") {
                "counters"
            } else {
                ""
            }),
        ),
        (
            "git_head",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// Runs every workload (untraced rounds, then traced), prints every
/// metric, writes the record to `--out`. `Ok(false)` when any output was
/// incorrect.
pub fn run_all(args: &Args) -> Result<bool, String> {
    // A measuring run takes its passes one at a time, `--threads` workers
    // each. A quick run's timings are not for comparison, and one pass at
    // a time leaves no margin in its 30 s (27 s on the host this was sized
    // on, 20 s of it the two `cnn_t65537` passes), so it runs `--threads`
    // passes at a time with one worker each. Either way no more than
    // `--threads` workers are ever requested.
    let (rounds, lanes, workers) = if args.quick {
        (1, args.threads, 1)
    } else {
        (ROUNDS, 1, args.threads)
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();

    // Untraced rounds, round-robin over the workloads, then the traced
    // passes. A quick run starts the traced passes first: they are the
    // long ones, and its lanes should not end on them.
    let mut passes: Vec<(&str, bool)> = (0..rounds)
        .flat_map(|_| names.iter().map(|n| (*n, false)))
        .chain(names.iter().map(|n| (*n, true)))
        .collect();
    if args.quick {
        passes.sort_by_key(|(_, trace)| !trace);
    }
    let mut untraced: Vec<Vec<ChildResult>> = names.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<ChildResult> = Vec::new();
    for ((name, trace), result) in passes
        .iter()
        .zip(run_passes(args, &passes, lanes, workers)?)
    {
        if *trace {
            traced.push(result);
        } else {
            let w = names
                .iter()
                .position(|n| n == name)
                .expect("known workload");
            untraced[w].push(result);
        }
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for ((spec, runs), trace) in WORKLOADS.iter().zip(&untraced).zip(&traced) {
        println!("== {} — {}", spec.name, spec.why);
        let mut e2e = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.metrics
                        .iter()
                        .find(|(k, _)| k == m.name)
                        .map_or(f64::NAN, |(_, v)| *v)
                })
                .collect();
            let s = Summary::of(&values);
            println!(
                "  {:<40} {:>16.4} {:<6} [min {:.4}  q1 {:.4}  q3 {:.4}  max {:.4}  n {}  spread {:.2}%]",
                m.name, s.median, m.unit, s.min, s.q1, s.q3, s.max, s.n, 100.0 * s.spread()
            );
            let mut entry = vec![("unit".to_string(), Json::str(m.unit))];
            entry.extend(
                s.to_json()
                    .as_obj()
                    .expect("summary object")
                    .iter()
                    .cloned(),
            );
            entry.push((
                "runs".into(),
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            ));
            e2e.push((m.name.to_string(), Json::Obj(entry)));
        }
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
        let failed: f64 = runs.iter().map(|r| r.failed).sum();
        println!(
            "  {:<40} {:>16.4} share  [{failed} of {attempted}]",
            "failed_share",
            failed / attempted
        );
        let mut layers = Vec::new();
        for m in PER_LAYER {
            let v = trace
                .metrics
                .iter()
                .find(|(k, _)| k == m.name)
                .map_or(f64::NAN, |(_, v)| *v);
            println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
            layers.push((
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(v)),
                    ("unit", Json::str(m.unit)),
                    (
                        "better",
                        Json::str(if m.higher_better { "higher" } else { "lower" }),
                    ),
                ]),
            ));
        }
        let correct = trace.correct && runs.iter().all(|r| r.correct);
        all_correct &= correct;
        workloads.push((
            spec.name.to_string(),
            Json::obj(vec![
                ("why", Json::str(spec.why)),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted)),
                ("end_to_end", Json::Obj(e2e)),
                (
                    "runs",
                    Json::Arr(runs.iter().map(|r| r.detail.clone()).collect()),
                ),
                ("per_layer", Json::Obj(layers)),
                ("trace", trace.detail.clone()),
                ("trace_attempted", Json::Num(trace.attempted)),
                ("trace_failed", Json::Num(trace.failed)),
            ]),
        ));
    }
    let record = Json::obj(vec![
        ("benchmark", Json::str("athena-perfbench")),
        ("record_version", Json::Num(1.0)),
        ("quick", Json::Bool(args.quick)),
        ("host", host_metadata(workers)),
        (
            "config",
            Json::obj(vec![
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("rounds", Json::Num(rounds as f64)),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    match &args.out {
        Some(path) => {
            std::fs::write(path, record.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("perfbench: wrote {path}");
        }
        None => println!("{}", record.to_line()),
    }
    Ok(all_correct)
}

/// `ok` / `regressed` / `unresolved` for one metric of one workload, by
/// the rule in the choosing-metrics guide: B's median may not be worse
/// than A's by more than the bound; where the run-to-run spread is wider
/// than the bound the metric is unresolved, unless every run of B reads
/// better than every run of A. A median or spread that is not a number
/// (a record of a crashed or partial pass) resolves nothing.
fn verdict(worse_by: f64, bound: f64, spread: f64, b_always_better: bool) -> &'static str {
    if !worse_by.is_finite() || !spread.is_finite() {
        "unresolved"
    } else if b_always_better {
        "ok"
    } else if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

fn load_record(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("benchmark").and_then(Json::as_str) {
        Some("athena-perfbench") => Ok(doc),
        _ => Err(format!("{path}: not a perfbench record")),
    }
}

/// Prints, per workload and end-to-end metric, both medians, the relative
/// change, the bound and the verdict. `Ok(false)` when anything regressed,
/// a workload, metric or median is missing from either record, or B
/// recorded a failed request or a pass that was not correct.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load_record(path_a)?, load_record(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    Ok(compare_records(&a, &b))
}

fn compare_records(a: &Json, b: &Json) -> bool {
    for (label, doc) in [("A", a), ("B", b)] {
        if doc.get("quick").and_then(Json::as_bool) == Some(true) {
            println!(
                "note: record {label} is a --quick record; its timings are not for comparison"
            );
        }
    }
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut clean = true;
    for spec in WORKLOADS {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|w| w.get(spec.name)),
            b.get("workloads").and_then(|w| w.get(spec.name)),
        ) else {
            println!("{:<16} missing from one record", spec.name);
            clean = false;
            continue;
        };
        for m in END_TO_END {
            let entry = |w: &Json| w.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let (Some(ea), Some(eb)) = (entry(wa), entry(wb)) else {
                println!("{:<16} {:<22} missing from one record", spec.name, m.name);
                clean = false;
                continue;
            };
            let f = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let runs = |e: &Json| -> Vec<f64> {
                e.get("runs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect()
            };
            let (ma, mb) = (f(&ea, "median"), f(&eb, "median"));
            let change = (mb - ma) / ma;
            let worse_by = if m.higher_better { -change } else { change };
            let spread_of = |e: &Json| (f(e, "q3") - f(e, "q1")) / f(e, "median").abs();
            let spread = spread_of(&ea).max(spread_of(&eb));
            let (ra, rb) = (runs(&ea), runs(&eb));
            let b_always_better = !ra.is_empty()
                && !rb.is_empty()
                && rb.iter().all(|y| {
                    ra.iter()
                        .all(|x| if m.higher_better { y > x } else { y < x })
                });
            let v = verdict(worse_by, m.bound, spread, b_always_better);
            clean &= v != "regressed" && ma.is_finite() && mb.is_finite();
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {v}",
                spec.name,
                m.name,
                ma,
                mb,
                100.0 * change,
                100.0 * m.bound
            );
        }
        let failed = wb.get("failed").and_then(Json::as_f64).unwrap_or(0.0)
            + wb.get("trace_failed").and_then(Json::as_f64).unwrap_or(0.0);
        let inaccurate = wb.get("correct").and_then(Json::as_bool) == Some(false);
        if failed > 0.0 || inaccurate {
            clean = false;
            println!(
                "{:<16} {:<22} B recorded {failed} failed requests{}  regressed",
                spec.name,
                "failed_share",
                if inaccurate {
                    " and a pass that was not correct"
                } else {
                    ""
                }
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_guide() {
        // Within the bound, tight spread.
        assert_eq!(verdict(0.03, 0.07, 0.01, false), "ok");
        // Worse than the bound, tight spread.
        assert_eq!(verdict(0.10, 0.07, 0.01, false), "regressed");
        // Spread wider than the bound: cannot tell either way...
        assert_eq!(verdict(0.10, 0.07, 0.09, false), "unresolved");
        assert_eq!(verdict(-0.02, 0.07, 0.09, false), "unresolved");
        // ...unless every run of B beats every run of A.
        assert_eq!(verdict(-0.20, 0.07, 0.09, true), "ok");
        // A missing median resolves nothing.
        assert_eq!(verdict(f64::NAN, 0.07, 0.01, false), "unresolved");
        assert_eq!(verdict(0.01, 0.07, f64::NAN, false), "unresolved");
    }

    /// A record with every workload and metric at `median`.
    fn record(median: Json) -> Json {
        let entry = Json::obj(vec![
            ("median", median.clone()),
            ("q1", median.clone()),
            ("q3", median),
            ("runs", Json::Arr(vec![])),
        ]);
        let e2e = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), entry.clone()))
            .collect();
        let workload = Json::obj(vec![("end_to_end", Json::Obj(e2e))]);
        let workloads = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), workload.clone()))
            .collect();
        Json::obj(vec![("workloads", Json::Obj(workloads))])
    }

    #[test]
    fn a_partial_record_does_not_compare_clean() {
        let full = record(Json::Num(2.0));
        assert!(compare_records(&full, &full));

        // A median written as null (a pass that crashed)...
        assert!(!compare_records(&full, &record(Json::Null)));
        // ...a workload missing...
        let Json::Obj(mut pairs) = full.get("workloads").unwrap().clone() else {
            unreachable!()
        };
        pairs.pop();
        let short = Json::obj(vec![("workloads", Json::Obj(pairs))]);
        assert!(!compare_records(&short, &full));
        // ...and a metric missing all fail the comparison.
        let Json::Obj(mut pairs) = full.get("workloads").unwrap().clone() else {
            unreachable!()
        };
        let Json::Obj(w0) = &mut pairs[0].1 else {
            unreachable!()
        };
        let Json::Obj(e2e) = &mut w0[0].1 else {
            unreachable!()
        };
        e2e.pop();
        let thin = Json::obj(vec![("workloads", Json::Obj(pairs))]);
        assert!(!compare_records(&full, &thin));
    }
}
