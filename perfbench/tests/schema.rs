//! A seconds-long check of the benchmark's output contract: every
//! workload, traced and untraced, on tiny graphs for one second, prints
//! a last line that parses and names every metric of `BENCHMARK.json`
//! with its unit.

use std::path::Path;
use std::process::Command;

use planartest_service::wire::Value;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
}

fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_metric_appears_with_its_unit() {
    // `serve_mix` is not in `BENCHMARK.json` but still runs; its traced
    // output adds the open-loop layer metrics to the declared ones.
    let declared_workloads = workloads();
    let extra = ["serve_mix".to_string()];
    for workload in declared_workloads.iter().chain(&extra) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(repo_root())
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--size", "tiny"])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let v = Value::parse(last).expect("result line parses");
            assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
            assert!(v.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let metrics = v.get("metrics").expect("metrics object");
            let Value::Obj(fields) = metrics else {
                panic!("metrics is an object");
            };
            let expected = declared(list);
            if declared_workloads.contains(workload) {
                assert_eq!(fields.len(), expected.len(), "{workload} trace {trace}");
            }
            for (name, unit) in expected {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: missing {name}"));
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
