//! Runs the benchmark binary on every workload, untraced and traced, with
//! a short timed phase (each loop still completes its minimum of one
//! iteration or six serve rounds), and checks its result line against
//! `BENCHMARK.json`.

use std::process::Command;

use ppsim_obs::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("result line is JSON")
}

#[test]
fn every_metric_is_printed_with_its_unit_and_outputs_check() {
    let doc = manifest();
    for workload in ["suite-full", "trace-cbp", "serve-mix"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let r = run(workload, trace);
            let Some(Json::Obj(fields)) = Some(&r) else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{workload}: {r}");
            assert_eq!(
                r.get("failed").and_then(Json::as_i64),
                Some(0),
                "{workload}: {r}"
            );
            assert!(r.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
            let Some(Json::Obj(metrics)) = r.get("metrics") else {
                panic!("metrics is an object: {r}")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{name}: {m}"
                    );
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                names_units(&doc, key),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn missing_or_bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "suite-full"][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
