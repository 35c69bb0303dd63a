//! Determinism across thread counts: blocking witnesses and fluid rates
//! must be byte-identical no matter how the parallel sweeps are scheduled.
//! The engine's first-witness reduction and the waterfill solver both claim
//! schedule-independence; this drives the real binary under
//! `RAYON_NUM_THREADS` 1, 2, and 8 and diffs complete outputs.

use std::process::Command;

/// Run the `ftclos` binary with a fixed thread count, returning stdout.
fn run_with_threads(args: &[&str], threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ftclos"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("spawn ftclos");
    assert!(
        out.status.success(),
        "ftclos {args:?} failed under RAYON_NUM_THREADS={threads}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The same invocation at 1, 2, and 8 threads must emit identical bytes.
fn assert_thread_invariant(args: &[&str]) {
    let baseline = run_with_threads(args, "1");
    for threads in ["2", "8"] {
        let got = run_with_threads(args, threads);
        assert_eq!(
            baseline, got,
            "ftclos {args:?} output depends on RAYON_NUM_THREADS={threads}"
        );
    }
}

#[test]
fn blocking_witness_is_thread_count_invariant() {
    // d-mod-k on an undersized fabric: the audit must report the *same*
    // violating channel and witness pairs regardless of scan parallelism.
    assert_thread_invariant(&["verify", "2", "2", "5", "--router", "dmodk"]);
}

#[test]
fn nonblocking_verdict_is_thread_count_invariant() {
    assert_thread_invariant(&["verify", "3", "9", "7"]);
}

#[test]
fn fluid_rates_are_thread_count_invariant() {
    // Full adversarial suite, JSON: every per-pattern rate, round count,
    // and utilization decile must match bit-for-bit.
    assert_thread_invariant(&["flowsim", "2", "4", "5", "--json"]);
    assert_thread_invariant(&[
        "flowsim",
        "2",
        "2",
        "5",
        "--router",
        "dmodk",
        "--pattern",
        "random",
        "--seed",
        "3",
        "--json",
    ]);
}

#[test]
fn deadlock_verdicts_are_thread_count_invariant() {
    // The CDG build fans path walks out over rayon; the dependency bitmap
    // is a set union (order-independent), so verdicts, dependency counts,
    // and the witness cycle must be byte-identical at any thread count.
    assert_thread_invariant(&["deadlock", "2", "4", "5", "--json"]);
    assert_thread_invariant(&["deadlock", "2", "4", "5", "--fail-tops", "1", "--seed", "3"]);
}

#[test]
fn deadlock_witness_and_injection_are_thread_count_invariant() {
    // The valley witness cycle (lowest cyclic channel, minimal length,
    // ascending successor iteration) and the wedge statistics of the pinned
    // injection run are both deterministic.
    assert_thread_invariant(&[
        "deadlock", "1", "1", "4", "--router", "valley", "--inject", "--json",
    ]);
}

#[test]
fn event_engine_reports_are_thread_count_invariant() {
    // The simulator kernel is single-threaded by construction, but its
    // reports ride the same CLI plumbing as everything else; both output
    // forms must be byte-identical at any thread count.
    let base = [
        "simulate",
        "2",
        "4",
        "5",
        "--pattern",
        "shift:3",
        "--rate",
        "0.9",
        "--cycles",
        "600",
        "--seed",
        "5",
    ];
    for json in [false, true] {
        let mut args = base.to_vec();
        if json {
            args.push("--json");
        }
        assert_thread_invariant(&args);
    }
}

#[test]
fn blocking_sample_fraction_is_thread_count_invariant() {
    assert_thread_invariant(&[
        "blocking",
        "2",
        "2",
        "5",
        "--router",
        "dmodk",
        "--samples",
        "40",
    ]);
}

#[test]
fn campaign_reports_are_thread_count_invariant() {
    // Randomized waves fan judgements and shrinks over rayon; per-set RNG
    // streams are keyed by (seed, wave, index) alone, so the report —
    // killer order, minimal cores, criticality ranking — is schedule-free.
    assert_thread_invariant(&[
        "campaign",
        "2",
        "4",
        "5",
        "--waves",
        "4",
        "--wave-size",
        "6",
        "--seed",
        "7",
        "--shrink",
        "--json",
    ]);
    // Exhaustive mode must report the lexicographically-first killer no
    // matter which parallel partition finds one first.
    assert_thread_invariant(&[
        "campaign",
        "2",
        "4",
        "5",
        "--mode",
        "exhaustive",
        "--k",
        "2",
        "--universe",
        "mixed",
    ]);
}

#[test]
fn congestion_head_to_head_is_thread_count_invariant() {
    // Greedy order, rounding RNG streams (keyed by seed + trial alone),
    // repair scan order, and the embedded fluid rates are all deterministic;
    // the full head-to-head table must be byte-identical at any thread
    // count, in both output forms.
    assert_thread_invariant(&["congestion", "2", "4", "5", "--json"]);
    assert_thread_invariant(&[
        "congestion",
        "2",
        "2",
        "5",
        "--pattern",
        "random",
        "--seed",
        "3",
    ]);
}

#[test]
fn congestion_faulted_and_churn_reports_are_thread_count_invariant() {
    // Fault-masked candidates plus the per-epoch churn replay: the flap
    // schedule, epoch fault sets, and masked solves are all seed-keyed.
    assert_thread_invariant(&[
        "congestion",
        "2",
        "4",
        "5",
        "--fail-tops",
        "1",
        "--seed",
        "7",
        "--json",
    ]);
    assert_thread_invariant(&[
        "congestion",
        "2",
        "4",
        "5",
        "--churn-links",
        "2",
        "--churn-cycles",
        "800",
        "--seed",
        "5",
    ]);
}

#[test]
fn campaign_checkpoint_resume_matches_uninterrupted_at_any_thread_count() {
    // Halting after 2 of 4 waves, then resuming from the checkpoint file,
    // must reproduce the uninterrupted report byte-for-byte — and the
    // uninterrupted report itself must not depend on the thread count.
    let base = [
        "campaign",
        "2",
        "4",
        "5",
        "--waves",
        "4",
        "--wave-size",
        "6",
        "--links",
        "2",
        "--switches",
        "1",
        "--seed",
        "11",
        "--shrink",
    ];
    let reference = run_with_threads(&base, "1");
    for threads in ["1", "2", "8"] {
        assert_eq!(
            reference,
            run_with_threads(&base, threads),
            "uninterrupted campaign diverged at {threads} threads"
        );
        let ckpt = std::env::temp_dir().join(format!("ftclos_campaign_ckpt_{threads}.txt"));
        let ckpt = ckpt.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(ckpt);
        let mut halted = base.to_vec();
        halted.extend(["--checkpoint", ckpt, "--halt-after", "2"]);
        let partial = run_with_threads(&halted, threads);
        assert_ne!(reference, partial, "halt-after must stop early");
        let mut resumed = base.to_vec();
        resumed.extend(["--checkpoint", ckpt, "--resume"]);
        assert_eq!(
            reference,
            run_with_threads(&resumed, threads),
            "checkpoint resume diverged at {threads} threads"
        );
        let _ = std::fs::remove_file(ckpt);
    }
}
