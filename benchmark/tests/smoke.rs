//! `cargo test` drives the whole harness through its executable: every
//! workload, the traced run and every correctness check at toy size, and
//! the one-line contract `BENCHMARK.json` declares.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 5] = [
    "cdr_durable_c1",
    "cdr_durable_c8",
    "growth_ingest",
    "powerlaw_refine",
    "cdr_serve",
];

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apg-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark executable starts")
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn smoke_runs_every_workload_and_every_check() {
    let output = benchmark(&["smoke"]);
    let stdout = stdout_of(&output);
    assert!(
        output.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for workload in WORKLOADS {
        assert!(
            stdout.contains(workload),
            "{workload} missing from:\n{stdout}"
        );
    }
    for metric in [
        "run_s",
        "recover_ms",
        "queries_per_s",
        "failed_ops_pct",
        "persist.install_ms_p50",
        "serve.round_ms_p50",
        "core.iters_to_converge_p50",
        "trace.step_coverage_pct",
        "exec.speedup_vs_1t",
    ] {
        assert!(stdout.contains(metric), "{metric} missing from:\n{stdout}");
    }
    assert!(!stdout.contains("FAILED"), "{stdout}");
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    assert!(out.join("results-smoke.json").is_file());
    for workload in WORKLOADS {
        assert!(out.join(format!("trace-{workload}.json")).is_file());
    }
}

/// The declared metric names of one section of `BENCHMARK.json`, read
/// with no JSON library: every `"name": "..."` between the section's key
/// and the next top-level key.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("the section exists");
    let body = &text[start..];
    let end = body.find(']').expect("the section is a list");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn the_driver_line_reports_exactly_what_benchmark_json_declares() {
    assert_eq!(declared("workloads"), WORKLOADS);
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = benchmark(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                trace,
                "--scale",
                "smoke",
            ]);
            let stdout = stdout_of(&output);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {stdout}"
            );
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            assert!(line.contains(",\"failed\":0,\"metrics\":{"), "{line}");
            let reported: Vec<&str> = line
                .split("\":{\"value\":")
                .filter_map(|piece| piece.rsplit('"').next())
                .collect();
            // The last piece is the tail after the final value, not a name.
            let reported = &reported[..reported.len() - 1];
            assert_eq!(reported, declared(section), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_invocations_fail_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "10",
            "--trace",
            "0",
        ][..],
        &["--workload", "cdr_serve", "--trace", "2"][..],
        &["--seed", "1"][..],
        // The workload sizes and the thread count are not `run`'s to change.
        &["run", "--seconds", "3"][..],
        &["run", "--threads", "1"][..],
        &["smoke", "--only", "cdr_serve"][..],
        &["compare", "only-one.json"][..],
        &["frobnicate"][..],
    ] {
        let output = benchmark(args);
        assert!(!output.status.success(), "{args:?}");
        assert!(!stdout_of(&output).contains("\"correct\""), "{args:?}");
    }
}
