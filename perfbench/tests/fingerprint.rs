//! The benchmark's own checks: the same seed does the same work (identical
//! fingerprint and `quality_mean`, traced or not), and a held-out seed
//! passes the output audit like the default one.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["svc-rush", "svc-mobile", "batch-plan"];
/// A seed no tuning of the benchmark looked at.
const HELD_OUT_SEED: u64 = 104_729;

fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn line<'a>(out: &'a str, prefix: &str) -> &'a str {
    out.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{out}"))
}

#[test]
fn same_seed_prints_the_same_fingerprint_and_quality() {
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 1, 1), run(workload, 1, 1));
        assert_eq!(line(&a, "fingerprint"), line(&b, "fingerprint"));
        assert_eq!(line(&a, "quality_mean"), line(&b, "quality_mean"));
        assert!(line(&a, "fingerprint").contains("cost.evaluations="));
    }
}

#[test]
fn tracing_changes_no_plan() {
    for workload in WORKLOADS {
        let (plain, traced) = (run(workload, 1, 0), run(workload, 1, 1));
        let traced_fp = line(&traced, "fingerprint");
        let traced_fp = &traced_fp[..traced_fp.find(" cost.evaluations=").expect("counted")];
        assert_eq!(line(&plain, "fingerprint"), traced_fp);
        assert_eq!(line(&plain, "quality_mean"), line(&traced, "quality_mean"));
    }
}

#[test]
fn held_out_seed_passes_the_audit() {
    for workload in WORKLOADS {
        let out = run(workload, HELD_OUT_SEED, 0);
        let result = out.lines().last().expect("a result line");
        assert!(result.starts_with("{\"correct\": true,"), "{result}");
        assert!(result.contains("\"failed\": 0,"), "{result}");
        assert_eq!(
            line(&out, "failed_share"),
            format!("failed_share {workload} seed={HELD_OUT_SEED} 0")
        );
    }
}
