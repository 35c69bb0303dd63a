//! Golden-file snapshot tests: pin the exact text/JSON the user-facing
//! surfaces emit — flowsim reports, the faults and churn commands, and the
//! `--trace` JSON (with volatile `*_ns` timing fields scrubbed to zero so
//! only the *shape* is pinned: span paths, counts, counters, gauges).
//!
//! On intentional output changes, regenerate with:
//! `UPDATE_SNAPSHOTS=1 cargo test --test golden_snapshots`

use ftclos::obs::json::Json;
use std::path::{Path, PathBuf};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

/// Compare `actual` against the stored golden file, or rewrite the golden
/// when `UPDATE_SNAPSHOTS` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir snapshots");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {name} ({e}); create it with UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        expected, actual,
        "output drifted from tests/snapshots/{name}; if intentional, \
         regenerate with UPDATE_SNAPSHOTS=1"
    );
}

/// Run a CLI invocation (the same entry the binary uses) and return stdout.
fn cli(args: &str) -> String {
    let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    ftclos_cli::run(&argv).unwrap_or_else(|e| panic!("`ftclos {args}` failed: {e}"))
}

#[test]
fn flowsim_text_report_is_stable() {
    assert_matches_golden("flowsim_2_4_5.txt", &cli("flowsim 2 4 5"));
}

#[test]
fn flowsim_json_report_is_stable() {
    assert_matches_golden("flowsim_2_4_5.json", &cli("flowsim 2 4 5 --json"));
}

#[test]
fn flowsim_faulted_report_is_stable() {
    assert_matches_golden(
        "flowsim_2_4_5_failtop.txt",
        &cli("flowsim 2 4 5 --router multipath --fail-tops 1"),
    );
}

#[test]
fn faults_output_is_stable() {
    assert_matches_golden(
        "faults_2_4_5.txt",
        &cli("faults 2 4 5 --fail-tops 1 --samples 5 --max-k 1 --seed 0"),
    );
}

#[test]
fn churn_output_is_stable() {
    assert_matches_golden(
        "churn_2_4_3.txt",
        &cli("churn 2 4 3 --links 1 --mtbf 200 --mttr 60 --cycles 600 --samples 10 --seed 3"),
    );
}

/// The full deadlock sweep, pristine: every production router proved FREE
/// and the valley straw-man caught CYCLIC with its deterministic witness.
#[test]
fn deadlock_sweep_text_is_stable() {
    assert_matches_golden("deadlock_2_4_5.txt", &cli("deadlock 2 4 5"));
}

/// The valley witness-injection run, JSON: the witness cycle, the
/// dependency counts, and the wedge statistics (stranded / delivered /
/// conservation, plus the clean-draining control) are all deterministic.
#[test]
fn deadlock_witness_injection_json_is_stable() {
    assert_matches_golden(
        "deadlock_valley_inject.json",
        &cli("deadlock 1 1 4 --router valley --inject true --json"),
    );
}

/// A seeded *faulted* witness: a dead link thins the valley CDG (fewer
/// dependencies than pristine) but the residual cycle — and its
/// deterministic witness — survives.
#[test]
fn deadlock_faulted_witness_text_is_stable() {
    assert_matches_golden(
        "deadlock_valley_faulted.txt",
        &cli("deadlock 1 1 4 --router valley --fail-links 1 --seed 7"),
    );
}

/// The `--trace` JSON, with every `*_ns` field zeroed: the span tree
/// (paths, nesting, counts), counters, and gauges must not drift silently.
#[test]
fn verify_trace_shape_is_stable() {
    let trace = std::env::temp_dir().join("ftclos_golden_trace.json");
    cli(&format!("verify 2 4 5 --trace {}", trace.display()));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let mut doc = Json::parse(&text).expect("trace parses");
    doc.scrub_keys_ending("_ns");
    // Scrub the args line too: it embeds the temp path.
    if let Json::Obj(entries) = &mut doc {
        for (k, v) in entries.iter_mut() {
            if k == "meta" {
                if let Json::Obj(meta) = v {
                    for (mk, mv) in meta.iter_mut() {
                        if mk == "args" {
                            *mv = Json::Str("<args>".to_string());
                        }
                    }
                }
            }
        }
    }
    assert_matches_golden("verify_trace_2_4_5.json", &doc.write());
}

/// The simulate command's text output, pristine. The header's `event
/// engine` tag names the schedule every run uses; agreement with the dense
/// oracle schedule is pinned by `tests/evsim_differential.rs`.
#[test]
fn simulate_event_text_is_stable() {
    assert_matches_golden(
        "simulate_event_2_4_5.txt",
        &cli("simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5"),
    );
}

/// The event engine's JSON output, pristine.
#[test]
fn simulate_event_json_is_stable() {
    assert_matches_golden(
        "simulate_event_2_4_5.json",
        &cli("simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5 --json"),
    );
}

/// A faulted event-engine run: two uplinks of edge switch 0 die mid-run;
/// the outage line, degraded throughput, and leftovers are deterministic.
#[test]
fn simulate_event_faulted_text_is_stable() {
    assert_matches_golden(
        "simulate_event_2_4_5_faulted.txt",
        &cli(
            "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5 \
              --fail-uplinks 2",
        ),
    );
}

/// The faulted run in JSON.
#[test]
fn simulate_event_faulted_json_is_stable() {
    assert_matches_golden(
        "simulate_event_2_4_5_faulted.json",
        &cli(
            "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5 \
              --fail-uplinks 2 --json",
        ),
    );
}

/// Run `ftclos <args> --trace <tmp>` and parse the written trace.
fn traced(args: &str, file: &str) -> Json {
    let trace = std::env::temp_dir().join(file);
    cli(&format!("{args} --trace {}", trace.display()));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    Json::parse(&text).expect("trace parses")
}

/// A counter of a parsed trace, 0 when absent.
fn trace_counter(doc: &Json, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The simulate command's trace: the kernel's counters must conserve
/// packets (injected = delivered + abandoned + in-flight) in the final
/// state.
#[test]
fn simulate_trace_counters_conserve() {
    let doc = traced(
        "simulate 2 4 5 --pattern shift:3 --rate 0.8 --cycles 400",
        "ftclos_golden_sim_trace.json",
    );
    let in_flight = doc
        .get("gauges")
        .and_then(|g| g.get("evsim.in_flight"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let injected = trace_counter(&doc, "evsim.injected");
    assert!(injected > 0, "trace recorded injections: {}", doc.write());
    assert_eq!(
        injected,
        trace_counter(&doc, "evsim.delivered") + trace_counter(&doc, "evsim.abandoned") + in_flight,
        "conservation over the final flush: {}",
        doc.write()
    );
}

/// `simulate` and `churn` run the event-driven schedule: their traces
/// account its executed cycles, which never exceed the simulated ones.
#[test]
fn simulate_and_churn_traces_carry_executed_cycles() {
    for (args, file) in [
        (
            "simulate 2 4 5 --pattern shift:3 --rate 0.8 --cycles 400",
            "ftclos_golden_sim_exec_trace.json",
        ),
        (
            "churn 2 4 3 --links 1 --mtbf 200 --mttr 60 --cycles 600 --samples 10 --seed 3",
            "ftclos_golden_churn_exec_trace.json",
        ),
    ] {
        let doc = traced(args, file);
        let executed = trace_counter(&doc, "evsim.executed_cycles");
        assert!(executed > 0, "`{args}` trace lacks evsim.executed_cycles");
        assert!(executed <= trace_counter(&doc, "evsim.cycles"), "`{args}`");
    }
}

/// The min-congestion head-to-head, pristine: every baseline row, the
/// solver row with its move/round counters, and the per-pattern verdicts.
#[test]
fn congestion_pristine_text_is_stable() {
    assert_matches_golden("congestion_2_4_5.txt", &cli("congestion 2 4 5"));
}

#[test]
fn congestion_pristine_json_is_stable() {
    assert_matches_golden("congestion_2_4_5.json", &cli("congestion 2 4 5 --json"));
}

/// Faulted head-to-head: a dead top switch turns the deterministic
/// baselines unroutable while the masked solver still places the suite.
#[test]
fn congestion_faulted_text_is_stable() {
    assert_matches_golden(
        "congestion_2_4_5_failtop.txt",
        &cli("congestion 2 4 5 --fail-tops 1 --seed 7"),
    );
}

/// Churn epochs: each distinct fault epoch of the flap schedule replayed
/// as a repaired-vs-dmodk line; the epoch list is seed-deterministic.
#[test]
fn congestion_churn_text_is_stable() {
    assert_matches_golden(
        "congestion_2_4_5_churn.txt",
        &cli("congestion 2 4 5 --churn-links 2 --churn-cycles 800 --seed 5"),
    );
}

/// Exhaustive k-fault-tolerance certification: the text certificate for
/// adaptive routability over the top switches of `ftree(2+4, 5)`.
#[test]
fn campaign_exhaustive_text_is_stable() {
    assert_matches_golden(
        "campaign_exhaustive_2_4_5.txt",
        &cli("campaign 2 4 5 --mode exhaustive --k 2 --universe tops"),
    );
}

/// Randomized campaign with shrinking: killer lines, 1-minimal cores, and
/// the criticality ranking are all seed-deterministic.
#[test]
fn campaign_random_text_is_stable() {
    assert_matches_golden(
        "campaign_random_2_4_5.txt",
        &cli("campaign 2 4 5 --waves 4 --wave-size 6 --links 2 --switches 1 --seed 7 --shrink"),
    );
}

#[test]
fn campaign_random_json_is_stable() {
    assert_matches_golden(
        "campaign_random_2_4_5.json",
        &cli(
            "campaign 2 4 5 --waves 4 --wave-size 6 --links 2 --switches 1 --seed 7 \
             --shrink --json",
        ),
    );
}

/// The `--confirm` stall diagnosis: the valley router's baseline CDG cycle
/// replayed in the simulator until the watchdog converts the wedge into a
/// strand-graph report (who holds what, waiting on whom).
#[test]
fn campaign_confirm_stall_diagnosis_is_stable() {
    assert_matches_golden(
        "campaign_confirm_valley.txt",
        &cli(
            "campaign 1 1 4 --property deadlock --router valley --waves 1 --wave-size 2 \
             --links 1 --switches 0 --confirm",
        ),
    );
}

/// Exhaustive certification over links, JSON: the certificate breaks at
/// k = 2, so it carries a killer object.
#[test]
fn campaign_exhaustive_killer_json_is_stable() {
    assert_matches_golden(
        "campaign_exhaustive_2_4_5_links.json",
        &cli("campaign 2 4 5 --mode exhaustive --k 2 --universe links --json"),
    );
}

/// The churn head-to-head in JSON: the `churn` array of per-epoch rows.
#[test]
fn congestion_churn_json_is_stable() {
    assert_matches_golden(
        "congestion_2_4_5_churn.json",
        &cli("congestion 2 4 5 --churn-links 2 --churn-cycles 800 --seed 5 --json"),
    );
}

/// The deadlock sweep under churn in JSON: a non-empty `churn_epochs` list.
#[test]
fn deadlock_churn_json_is_stable() {
    assert_matches_golden(
        "deadlock_2_4_5_churn.json",
        &cli("deadlock 2 4 5 --churn-links 2 --churn-cycles 800 --seed 5 --json"),
    );
}

/// The `--confirm` stall diagnosis in JSON: the `confirm` block with its
/// strands.
#[test]
fn campaign_confirm_stall_diagnosis_json_is_stable() {
    assert_matches_golden(
        "campaign_confirm_valley.json",
        &cli(
            "campaign 1 1 4 --property deadlock --router valley --waves 1 --wave-size 2 \
             --links 1 --switches 0 --confirm --json",
        ),
    );
}

/// Every top switch dead: each pattern's report is replaced by an `error`
/// entry.
#[test]
fn flowsim_all_tops_dead_json_is_stable() {
    assert_matches_golden(
        "flowsim_2_4_5_failtop4.json",
        &cli("flowsim 2 4 5 --fail-tops 4 --json"),
    );
}
