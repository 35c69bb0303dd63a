//! E7 — Section IV.B: traffic-oblivious multipath routing has the same
//! nonblocking condition as single-path routing.
//!
//! Evidence: (1) for any two cross-switch pairs sharing a source switch,
//! the spread-path unions violate Lemma 1 regardless of `m` — adversarial
//! packet timing can always collide them; (2) the packet simulator shows
//! random spreading still loses throughput on permutations where per-pair
//! paths overlap, while it *does* fix d-mod-k's worst case (better load
//! balance, unchanged nonblocking condition — exactly the paper's point).

use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_routing::{ObliviousMultipath, SpreadPolicy, YuanDeterministic};
use ftclos_sim::{EventSimulator, Policy, SimConfig, Workload};
use ftclos_topo::Ftree;
use ftclos_traffic::{patterns, Permutation, SdPair};
use rand::SeedableRng;

fn main() {
    let mut all_ok = true;

    banner(
        "E7a",
        "Lemma 1 over spread-path unions (any m, any two pairs, one switch)",
    );
    for m in [2usize, 4, 16, 64] {
        let ft = Ftree::new(2, m, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
        let spread = mp.spread_pattern(&perm).unwrap();
        let violation = spread.lemma1_violation();
        all_ok &= verdict(
            violation.is_some(),
            &format!("m={m}: two same-switch pairs share a spread channel (can block)"),
        );
    }

    banner(
        "E7b",
        "random permutations: violations persist for m < n² spreads",
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
    let ft = Ftree::new(3, 4, 7).unwrap(); // m = 4 < n² = 9
    let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
    let mut with_violation = 0usize;
    let trials = 200usize;
    for _ in 0..trials {
        let perm = patterns::random_full(21, &mut rng);
        let spread = mp.spread_pattern(&perm).unwrap();
        if spread.lemma1_violation().is_some() {
            with_violation += 1;
        }
    }
    result_line(
        "violating permutations",
        format!("{with_violation}/{trials}"),
    );
    all_ok &= verdict(
        with_violation == trials,
        "every sampled full permutation admits adversarial-timing contention",
    );

    banner(
        "E7c",
        "packet level: spreading balances load but is not nonblocking",
    );
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        ..SimConfig::default()
    };
    // Funnel pattern: 4 sources of switch 0 target same-residue dests.
    let ft4 = Ftree::new(4, 4, 9).unwrap();
    let perm = Permutation::from_pairs(36, (0..4).map(|k| SdPair::new(k, (k + 1) * 4))).unwrap();
    let single = ftclos_routing::DModK::new(&ft4);
    let spread = ObliviousMultipath::new(&ft4, SpreadPolicy::Random);
    let s_single = EventSimulator::new(ft4.topology(), cfg, Policy::from_single_path(&single))
        .run(&Workload::permutation(&perm, 1.0), SEED);
    let s_spread = EventSimulator::new(ft4.topology(), cfg, Policy::from_multipath(&spread, true))
        .run(&Workload::permutation(&perm, 1.0), SEED);
    result_line(
        "d-mod-k throughput",
        format!("{:.3}", s_single.accepted_throughput()),
    );
    result_line(
        "random-spread throughput",
        format!("{:.3}", s_spread.accepted_throughput()),
    );
    all_ok &= verdict(
        s_spread.accepted_throughput() > s_single.accepted_throughput() + 0.2,
        "spreading improves the funnel pattern (better load balance)",
    );

    // But against the Theorem 3 fabric on a full permutation, spreading
    // still collides transiently while Yuan routing is perfectly clean.
    let ftnb = Ftree::new(3, 9, 7).unwrap();
    let yuan = YuanDeterministic::new(&ftnb).unwrap();
    let spread_nb = ObliviousMultipath::new(&ftnb, SpreadPolicy::Random);
    let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(SEED + 1);
    let full = patterns::random_full(21, &mut rng2);
    let s_yuan = EventSimulator::new(ftnb.topology(), cfg, Policy::from_single_path(&yuan))
        .run(&Workload::permutation(&full, 1.0), SEED);
    let s_rand = EventSimulator::new(
        ftnb.topology(),
        cfg,
        Policy::from_multipath(&spread_nb, true),
    )
    .run(&Workload::permutation(&full, 1.0), SEED);
    result_line(
        "Theorem 3 routing throughput",
        format!("{:.3}", s_yuan.accepted_throughput()),
    );
    result_line(
        "random spread on same fabric",
        format!("{:.3}", s_rand.accepted_throughput()),
    );
    all_ok &= verdict(
        s_yuan.accepted_throughput() > 0.95,
        "Theorem 3 routing delivers ~line rate",
    );
    all_ok &= verdict(
        s_rand.accepted_throughput() < s_yuan.accepted_throughput(),
        "oblivious spreading pays transient-collision cost even with m = n²",
    );

    result_line("overall", if all_ok { "PASS" } else { "FAIL" });
    std::process::exit(i32::from(!all_ok));
}
