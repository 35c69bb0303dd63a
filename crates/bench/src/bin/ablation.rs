//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! * **A1** — Fig. 4 line (7): greedy largest-subset partition selection vs
//!   first-fit. How many top switches does the greedy search actually save?
//! * **A2** — queue-adaptive tie-breaking: random vs deterministic
//!   lowest-index. Deterministic ties herd every switch onto the same tops
//!   and collapse throughput.
//! * **A3** — oblivious spreading discipline: per-packet random vs
//!   round-robin. Round-robin de-synchronizes flows slightly better at
//!   saturation.

use ftclos_analysis::TextTable;
use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_routing::{NonblockingAdaptive, ObliviousMultipath, PlanStrategy, SpreadPolicy};
use ftclos_sim::{EventSimulator, Policy, SimConfig, Workload};
use ftclos_topo::Ftree;
use ftclos_traffic::patterns;
use rand::SeedableRng;

fn main() {
    let mut all_ok = true;

    banner(
        "A1",
        "Fig. 4 line (7): greedy largest-subset vs first-fit partitions",
    );
    let mut table = TextTable::new([
        "n",
        "r",
        "greedy tops (worst)",
        "first-fit tops (worst)",
        "saving",
    ]);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
    for (n, r) in [(4usize, 16usize), (6, 36), (8, 64)] {
        let ft = Ftree::new(n, 1, r).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let ports = (n * r) as u32;
        let (mut worst_g, mut worst_f) = (0usize, 0usize);
        for _ in 0..30 {
            let perm = patterns::random_full(ports, &mut rng);
            worst_g = worst_g.max(
                router
                    .plan_with(&perm, PlanStrategy::GreedyLargestSubset)
                    .unwrap()
                    .tops_needed(),
            );
            worst_f = worst_f.max(
                router
                    .plan_with(&perm, PlanStrategy::FirstFit)
                    .unwrap()
                    .tops_needed(),
            );
        }
        table.row([
            n.to_string(),
            r.to_string(),
            worst_g.to_string(),
            worst_f.to_string(),
            format!("{:.0}%", 100.0 * (1.0 - worst_g as f64 / worst_f as f64)),
        ]);
        all_ok &= verdict(
            worst_g <= worst_f,
            &format!("n={n}: greedy never needs more tops than first-fit"),
        );
    }
    print!("{}", table.render());

    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        ..SimConfig::default()
    };

    banner(
        "A2",
        "queue-adaptive tie-breaking: random vs deterministic lowest-index",
    );
    let ft = Ftree::new(6, 6, 12).unwrap(); // FT(12,2)-shaped fabric
    let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED + 2);
    let perm = patterns::random_derangement(72, &mut rng);
    let w = Workload::permutation(&perm, 1.0);
    let thr_random = EventSimulator::new(ft.topology(), cfg, Policy::queue_adaptive(&mp))
        .run(&w, SEED)
        .accepted_throughput();
    let thr_first = EventSimulator::new(
        ft.topology(),
        cfg,
        Policy::queue_adaptive_deterministic_ties(&mp),
    )
    .run(&w, SEED)
    .accepted_throughput();
    result_line("random tie-break throughput", format!("{thr_random:.3}"));
    result_line(
        "lowest-index tie-break throughput",
        format!("{thr_first:.3}"),
    );
    all_ok &= verdict(
        thr_random > thr_first + 0.1,
        "random tie-breaking avoids the herding collapse",
    );

    banner(
        "A3",
        "oblivious spreading: per-packet random vs round-robin",
    );
    let thr_rand_spread =
        EventSimulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, true))
            .run(&w, SEED)
            .accepted_throughput();
    let thr_rr_spread = EventSimulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, false))
        .run(&w, SEED)
        .accepted_throughput();
    result_line(
        "random spreading throughput",
        format!("{thr_rand_spread:.3}"),
    );
    result_line(
        "round-robin spreading throughput",
        format!("{thr_rr_spread:.3}"),
    );
    all_ok &= verdict(
        (thr_rand_spread - thr_rr_spread).abs() < 0.15,
        "spreading discipline is a second-order effect (both remain below crossbar)",
    );
    all_ok &= verdict(
        thr_rand_spread < 0.97 && thr_rr_spread < 0.97,
        "no oblivious spread reaches nonblocking behaviour (Section IV.B)",
    );

    result_line("overall", if all_ok { "PASS" } else { "FAIL" });
    std::process::exit(i32::from(!all_ok));
}
