//! Smoke test of the whole suite path: `--quick` runs every workload's
//! untraced and traced pass (2 % of the measuring time and of the traced
//! request counts), must report exactly the declared metric names for every
//! workload, marks its record `"quick": true`, and finishes fast.
//!
//! Run with `cargo test --release`: the workloads are real encrypted
//! inferences, and a `cnn_t65537` request alone is seconds of optimised
//! code.

use std::process::Command;
use std::time::{Duration, Instant};

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;

fn parse_file(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name` of every entry of one of `BENCHMARK.json`'s lists, in order.
fn declared(benchmark: &Json, section: &str) -> Vec<String> {
    let list = benchmark.get(section).and_then(Json::as_arr);
    list.expect("section")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name").into())
        .collect()
}

/// The keys of `parent[key]`, in order.
fn keys(parent: &Json, key: &str) -> Vec<String> {
    let obj = parent.get(key).and_then(Json::as_obj);
    obj.unwrap_or_else(|| panic!("no object {key}"))
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn quick_suite_reports_every_declared_metric_in_time() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    let t0 = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--quick", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("run perfbench --quick");
    let took = t0.elapsed();
    assert!(status.success(), "perfbench --quick exited with {status}");
    let record = parse_file(&out);
    std::fs::remove_file(&out).ok();
    let benchmark = parse_file(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").as_ref());

    assert_eq!(record.get("quick"), Some(&Json::Bool(true)));
    assert_eq!(
        keys(&record, "workloads"),
        declared(&benchmark, "workloads")
    );
    for (name, w) in record.get("workloads").and_then(Json::as_obj).unwrap() {
        assert_eq!(
            keys(w, "end_to_end"),
            declared(&benchmark, "end_to_end"),
            "{name}"
        );
        assert_eq!(
            keys(w, "per_layer"),
            declared(&benchmark, "per_layer"),
            "{name}"
        );
        for count in ["failed", "trace_failed"] {
            assert_eq!(w.get(count), Some(&Json::Num(0.0)), "{name} {count}");
        }
    }
    assert!(
        took < Duration::from_secs(30),
        "--quick took {took:?}; it is meant to stay under 30 s"
    );
}
