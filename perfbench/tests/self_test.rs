//! Self-tests of the benchmark command: its correctness check bites, and
//! its inputs follow the seed.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["ccl_1080p", "tracking_512", "serve_tracking", "dist_farm"];

/// Runs the benchmark briefly; returns whether it exited 0 and its stdout.
fn bench(workload: &str, seed: u64, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", "0"])
        .args(extra)
        .output()
        .expect("the benchmark runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

fn fingerprint(stdout: &str) -> &str {
    let at = stdout.find("fingerprint 0x").expect("a fingerprint") + "fingerprint ".len();
    &stdout[at..at + 18]
}

#[test]
fn one_wrong_output_is_counted_and_fails_the_command() {
    let (ok, stdout) = bench("ccl_1080p", 7, &["--inject-fault"]);
    assert!(!ok, "a wrong count must make the command exit nonzero");
    let line = result_line(&stdout);
    assert!(line.contains("\"correct\": false"), "{line}");
    assert!(line.contains("\"failed\": 1,"), "{line}");
    let frac = stdout
        .lines()
        .find_map(|l| l.strip_prefix("failed_frac = "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("a failed_frac line");
    assert!(frac > 0.0, "failed_frac must count the wrong output");
}

#[test]
fn clean_run_passes_with_every_end_to_end_metric() {
    let (ok, stdout) = bench("ccl_1080p", 7, &[]);
    assert!(ok, "{stdout}");
    let line = result_line(&stdout);
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for metric in [
        "setup_s",
        "throughput_fps",
        "latency_p50_ms",
        "latency_p99_ms",
        "peak_rss_mb",
    ] {
        assert!(
            line.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric}: {line}"
        );
    }
}

#[test]
fn fingerprint_follows_the_seed() {
    for workload in WORKLOADS {
        let (ok_a, a) = bench(workload, 11, &[]);
        let (ok_b, b) = bench(workload, 11, &[]);
        let (ok_c, c) = bench(workload, 12, &[]);
        assert!(ok_a && ok_b && ok_c, "{workload} runs clean");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{workload}: same seed, same inputs"
        );
        assert_ne!(
            fingerprint(&a),
            fingerprint(&c),
            "{workload}: new seed, new inputs"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload ccl_1080p --seed 1 --seconds 1",
        "--workload ccl_1080p --seed x --seconds 1 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split_whitespace())
            .output()
            .expect("the benchmark runs");
        assert!(!out.status.success(), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
