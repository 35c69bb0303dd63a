//! E15 (extension) — multi-level fat-trees: k-ary n-trees and m-port
//! n-trees under generic up*/down* routing.
//!
//! The paper's analysis is phrased on two-level `ftree(n+m, r)`, with the
//! Discussion section extending to more levels by recursion. This
//! experiment exercises the general-XGFT substrate: deterministic
//! destination-digit routing on k-ary n-trees is blocking (two-pair
//! witnesses exist), path diversity matches `∏ w_i`, and the packet
//! simulator shows the same throughput gap at three levels that E11 shows
//! at two.

use ftclos_analysis::TextTable;
use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_core::search::find_blocking_two_pair;
use ftclos_routing::{SinglePathRouter, XgftRouter};
use ftclos_sim::{EventSimulator, Policy, SimConfig, Workload};
use ftclos_topo::{kary_ntree, mport_ntree};
use ftclos_traffic::{patterns, SdPair};
use rand::SeedableRng;

fn main() {
    let mut all_ok = true;

    banner("E15a", "k-ary n-tree structure and path diversity");
    let mut table = TextTable::new(["fabric", "leaves", "switches", "paths (farthest pair)"]);
    for (k, n) in [(2usize, 3usize), (3, 2), (4, 2), (2, 4)] {
        let t = kary_ntree(k, n).unwrap();
        let router = XgftRouter::dmod(&t);
        let far = (t.num_leaves() - 1) as u32;
        let paths = router.all_paths(SdPair::new(0, far));
        table.row([
            format!("{k}-ary {n}-tree"),
            t.num_leaves().to_string(),
            t.num_switches().to_string(),
            paths.len().to_string(),
        ]);
        // Diversity = k^(n-1) for full-height pairs.
        all_ok &= verdict(
            paths.len() == k.pow(n as u32 - 1),
            &format!(
                "{k}-ary {n}-tree: k^(n-1) = {} paths to the far leaf",
                k.pow(n as u32 - 1)
            ),
        );
    }
    print!("{}", table.render());

    banner(
        "E15b",
        "deterministic routing on multi-level trees is blocking",
    );
    for (k, n) in [(2usize, 3usize), (3, 2), (4, 2)] {
        let t = kary_ntree(k, n).unwrap();
        let router = XgftRouter::dmod(&t);
        let witness = find_blocking_two_pair(&router);
        all_ok &= verdict(
            witness.found_blocking(),
            &format!("{k}-ary {n}-tree + dest-digit routing has a blocking two-pair pattern"),
        );
    }
    // FT(4,3) too (the Table I family at height 3).
    let ft43 = mport_ntree(4, 3).unwrap();
    let router43 = XgftRouter::dmod(&ft43);
    all_ok &= verdict(
        find_blocking_two_pair(&router43).found_blocking(),
        "FT(4,3) + dest-digit routing blocks",
    );

    banner(
        "E15c",
        "packet throughput on a 3-level tree vs its port count",
    );
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        ..SimConfig::default()
    };
    let t = kary_ntree(4, 3).unwrap(); // 64 leaves
    let router = XgftRouter::dmod(&t);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
    let mut sum = 0.0;
    for i in 0..5u64 {
        let perm = patterns::random_derangement(64, &mut rng);
        sum += EventSimulator::new(t.topology(), cfg, Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, 1.0), SEED + i)
            .accepted_throughput();
    }
    let thr = sum / 5.0;
    result_line("4-ary 3-tree dest-digit throughput", format!("{thr:.3}"));
    all_ok &= verdict(
        thr < 0.9,
        "3-level deterministic fat-tree stays below line rate (blocking)",
    );

    // Reference: route paths still valid everywhere.
    let mut checked = 0;
    for s in 0..64u32 {
        for d in 0..64u32 {
            let p = router.route(SdPair::new(s, d));
            p.validate(t.topology(), ftclos_topo::NodeId(s), ftclos_topo::NodeId(d))
                .unwrap();
            checked += 1;
        }
    }
    result_line("routes validated", checked);

    result_line("overall", if all_ok { "PASS" } else { "FAIL" });
    std::process::exit(i32::from(!all_ok));
}
