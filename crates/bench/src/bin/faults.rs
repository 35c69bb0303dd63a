//! E17 — degraded operation under hardware failures.
//!
//! The paper's nonblocking machinery assumes a pristine fabric. This
//! experiment measures what each routing scheme retains when top switches
//! and links die:
//!
//! * **E17a** — degradation table on `ftree(3+12, 9)` (`m = 12 > n² = 9`,
//!   so a whole spare partition exists): the Theorem 3 deterministic
//!   routing, whose top assignment is pinned, strands `r(r-1)` pairs per
//!   dead top, while the masked NONBLOCKINGADAPTIVE re-plans around the
//!   failure and stays contention-free.
//! * **E17b** — survivability margin: the largest `k` such that *any* `k`
//!   simultaneous top failures leave the masked adaptive contention-free
//!   (exhaustive over all single-failure subsets).
//! * **E17c** — packet level: a mid-run uplink death with TTL + retry.
//!   Policies that re-pick paths on retransmission (random multipath)
//!   deliver everything; a pinned single-path policy re-picks the same dead
//!   path and must abandon exactly the stranded flows. Drop/retry counters
//!   obey packet conservation throughout.

use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_core::{
    adaptive_degraded_verdict, deterministic_degradation, max_survivable_top_failures,
    DegradedVerdict,
};
use ftclos_obs::Noop;
use ftclos_routing::{ObliviousMultipath, SpreadPolicy, YuanDeterministic};
use ftclos_sim::{Arbiter, EventSimulator, FaultSchedule, Policy, RunSpec, SimConfig, Workload};
use ftclos_topo::{FaultSet, FaultyView, Ftree};
use ftclos_traffic::patterns;

fn main() {
    let mut all_ok = true;

    banner(
        "E17a",
        "degradation table: ftree(3+12, 9), k failed tops, yuan vs masked adaptive",
    );
    let ft = Ftree::new(3, 12, 9).unwrap();
    let yuan = YuanDeterministic::new(&ft).unwrap();
    println!("  k | yuan routable pairs | yuan lost | masked adaptive");
    for k in 0..=2usize {
        let mut faults = FaultSet::new();
        for t in 0..k {
            faults.fail_switch(ft.top(t));
        }
        let view = FaultyView::new(ft.topology(), &faults);
        let deg = deterministic_degradation(&yuan, &view);
        let adaptive = adaptive_degraded_verdict(&ft, &view, 30, SEED).unwrap();
        let verdict_str = match &adaptive {
            DegradedVerdict::ContentionFree { permutations, .. } => {
                format!("contention-free ({permutations} perms)")
            }
            other => format!("{other:?}"),
        };
        println!(
            "  {k} | {:>5}/{:<5}          | {:>5.1}%   | {verdict_str}",
            deg.routable_pairs(),
            deg.total_pairs,
            deg.unroutable_fraction() * 100.0
        );
        if k == 0 {
            all_ok &= verdict(
                deg.fully_operational() && adaptive.survives(),
                "pristine fabric: both schemes fully operational",
            );
        }
        if k == 1 {
            all_ok &= verdict(
                deg.routable_pairs() + ft.r() * (ft.r() - 1) == deg.total_pairs,
                "yuan's pinned assignment strands exactly r(r-1) pairs per dead top",
            );
            all_ok &= verdict(
                adaptive.survives(),
                "masked adaptive re-plans around the dead top: zero contention",
            );
        }
    }

    banner(
        "E17b",
        "survivability margin of the masked adaptive routing",
    );
    let report = max_survivable_top_failures(&ft, 2, 20, 64, SEED).unwrap();
    result_line("max survivable k", report.max_k);
    for level in &report.levels {
        result_line(
            &format!("k={}", level.k),
            format!(
                "{} subset(s){}, {}",
                level.subsets_checked,
                if level.exhaustive {
                    " (exhaustive)"
                } else {
                    " (sampled)"
                },
                if level.verdict.survives() {
                    "all contention-free"
                } else {
                    "failure found"
                }
            ),
        );
    }
    all_ok &= verdict(
        report.max_k >= 1,
        "the spare partition absorbs any single top-switch failure (exhaustive)",
    );

    banner(
        "E17c",
        "packet level: mid-run uplink death, TTL + bounded retry",
    );
    let ft2 = Ftree::new(2, 4, 5).unwrap();
    let perm = patterns::shift(10, 2);
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_500,
        ttl_cycles: 60,
        retry: true,
        retry_limit: 10,
        drain: true,
        arbiter: Arbiter::Voq { iterations: 2 },
        ..SimConfig::default()
    };
    // Kill the uplink carrying Theorem 3's pinned route for flow 0 -> 2
    // (leaf offsets (0,0) map to top i*n+j = 0).
    let mut faults = FaultSchedule::new();
    faults.kill_channel(400, ft2.up_channel(0, 0));
    let spec = RunSpec {
        faults: Some(&faults),
        churn: None,
    };

    let mp = ObliviousMultipath::new(&ft2, SpreadPolicy::Random);
    let s_mp = EventSimulator::new(ft2.topology(), cfg, Policy::from_multipath(&mp, true))
        .try_run_with(&Workload::permutation(&perm, 0.6), SEED, &spec, &Noop)
        .unwrap()
        .0;
    result_line(
        "multipath (re-picks)",
        format!(
            "injected {} delivered {} timed-out {} retries {} abandoned {}",
            s_mp.injected_total,
            s_mp.delivered_total,
            s_mp.timed_out_total,
            s_mp.retries_total,
            s_mp.abandoned_total
        ),
    );
    all_ok &= verdict(
        s_mp.timed_out_total > 0 && s_mp.retries_total > 0,
        "the dead uplink strands packets; retry retransmits them",
    );
    all_ok &= verdict(
        s_mp.delivered_total >= s_mp.injected_total * 99 / 100,
        "re-picking policies route around the failure (≥99% delivered)",
    );
    all_ok &= verdict(
        s_mp.conservation_ok(),
        "packet conservation holds (multipath)",
    );

    let yuan2 = YuanDeterministic::new(&ft2).unwrap();
    let s_fix = EventSimulator::new(ft2.topology(), cfg, Policy::from_single_path(&yuan2))
        .try_run_with(&Workload::permutation(&perm, 0.6), SEED, &spec, &Noop)
        .unwrap()
        .0;
    result_line(
        "pinned single-path",
        format!(
            "injected {} delivered {} timed-out {} retries {} abandoned {}",
            s_fix.injected_total,
            s_fix.delivered_total,
            s_fix.timed_out_total,
            s_fix.retries_total,
            s_fix.abandoned_total
        ),
    );
    all_ok &= verdict(
        s_fix.abandoned_total > 0,
        "the pinned policy re-picks the same dead path: stranded flows are dropped",
    );
    all_ok &= verdict(
        s_fix.delivered_total > 0,
        "flows off the dead uplink keep flowing",
    );
    all_ok &= verdict(
        s_fix.conservation_ok(),
        "packet conservation holds (pinned)",
    );
    all_ok &= verdict(
        s_mp.abandoned_fraction() < s_fix.abandoned_fraction(),
        "retry + path diversity beats retry alone (lower abandonment)",
    );

    result_line("overall", if all_ok { "PASS" } else { "FAIL" });
    std::process::exit(i32::from(!all_ok));
}
