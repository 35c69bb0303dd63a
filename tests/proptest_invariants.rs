//! Property-based tests over the core invariants, spanning crates.

use ftclos::core::lemma2;
use ftclos::routing::{
    route_all, DModK, NonblockingAdaptive, PatternRouter, RearrangeableRouter, SinglePathRouter,
    YuanDeterministic,
};
use ftclos::topo::{
    kary_ntree, FaultSet, FaultyView, Ftree, NodeId, StructureReport, Topology, Transition,
};
use ftclos::traffic::{patterns, Permutation, SdPair};
use proptest::prelude::*;
use rand::SeedableRng;

/// A random small `(n, m, r)` shape.
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..5, 1usize..8, 1usize..8)
}

/// Apply a random fault set to `t`, then repair every fault individually
/// (channels via `Up` transitions, switches via `repair_switch` — no
/// wholesale `clear()`): the resulting view must be indistinguishable from
/// pristine and the underlying topology bit-identical.
fn assert_revive_round_trip(t: &Topology, links: usize, switches: usize, seed: u64) {
    let before = t.clone();
    let mut faults = FaultSet::random_links(t, links, seed);
    faults.merge(&FaultSet::random_top_switches(t, switches, seed ^ 0x9E37));
    let failed_channels: Vec<_> = faults.failed_channels().collect();
    let failed_switches: Vec<_> = faults.failed_switches().collect();
    {
        let view = FaultyView::new(t, &faults);
        assert_eq!(
            view.num_dead_nodes(),
            failed_switches.len(),
            "every sampled switch is dead while faulted"
        );
    }
    for c in failed_channels {
        faults.apply_channel(c, Transition::Up);
    }
    for s in failed_switches {
        faults.repair_switch(s);
    }
    assert!(faults.is_empty(), "all faults individually removed");
    let view = FaultyView::new(t, &faults);
    assert_eq!(view.num_dead_channels(), 0);
    assert_eq!(view.num_dead_nodes(), 0);
    assert!(t.channel_ids().all(|c| view.channel_alive(c)));
    assert!(t.node_ids().all(|v| view.node_alive(v)));
    assert_eq!(*t, before, "overlay never mutates the topology");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ftree_structure_invariants((n, m, r) in shape()) {
        let ft = Ftree::new(n, m, r).unwrap();
        let t = ft.topology();
        prop_assert!(t.audit().is_ok());
        prop_assert_eq!(t.num_nodes(), r * n + r + m);
        prop_assert_eq!(t.num_channels(), 2 * (r * n + r * m));
        let rep = StructureReport::new(t);
        prop_assert_eq!(rep.leaves, r * n);
        prop_assert_eq!(rep.total_switches(), r + m);
        // Every bottom switch has radix n+m; every top has radix r.
        for v in 0..r {
            prop_assert_eq!(t.radix(ft.bottom(v)), n + m);
        }
        for tt in 0..m {
            prop_assert_eq!(t.radix(ft.top(tt)), r);
        }
    }

    #[test]
    fn random_permutations_satisfy_property1(ports in 2u32..40, seed in 0u64..1000) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full(ports, &mut rng);
        prop_assert!(perm.is_full());
        // Property 1: distinct sources, distinct destinations.
        let mut srcs: Vec<u32> = perm.pairs().iter().map(|p| p.src).collect();
        let mut dsts: Vec<u32> = perm.pairs().iter().map(|p| p.dst).collect();
        srcs.sort_unstable(); srcs.dedup();
        dsts.sort_unstable(); dsts.dedup();
        prop_assert_eq!(srcs.len(), ports as usize);
        prop_assert_eq!(dsts.len(), ports as usize);
    }

    #[test]
    fn partial_permutations_validate(ports in 2u32..30, density in 0.0f64..1.0, seed in 0u64..500) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_partial(ports, density, &mut rng);
        // Re-validating through the constructor must succeed.
        let rebuilt = Permutation::from_pairs(ports, perm.pairs().iter().copied());
        prop_assert!(rebuilt.is_ok());
    }

    #[test]
    fn yuan_routing_never_contends(n in 1usize..4, r in 1usize..8, seed in 0u64..500) {
        let ft = Ftree::new(n, n * n, r).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full((n * r) as u32, &mut rng);
        let a = route_all(&router, &perm).unwrap();
        prop_assert!(a.max_channel_load() <= 1);
        prop_assert!(a.validate(ft.topology()).is_ok());
    }

    #[test]
    fn yuan_paths_are_minimal(n in 1usize..4, r in 1usize..8, s in 0usize..24, d in 0usize..24) {
        let ft = Ftree::new(n, n * n, r).unwrap();
        let ports = n * r;
        let (s, d) = (s % ports, d % ports);
        let router = YuanDeterministic::new(&ft).unwrap();
        let path = router.route(SdPair::new(s as u32, d as u32));
        let expected = if s == d { 0 } else if s / n == d / n { 2 } else { 4 };
        prop_assert_eq!(path.len(), expected);
        prop_assert!(path.validate(ft.topology(), NodeId(s as u32), NodeId(d as u32)).is_ok());
    }

    #[test]
    fn adaptive_never_contends_and_stays_under_budget(
        n in 2usize..5, r_mult in 1usize..4, seed in 0u64..300,
    ) {
        let r = n * r_mult;
        let ft = Ftree::new(n, 4 * n * n, r).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full((n * r) as u32, &mut rng);
        let plan = router.plan(&perm).unwrap();
        let c = router.coder().c();
        // Coarse bound from the paper's counting argument.
        prop_assert!(plan.total_configs() <= n.div_ceil(c + 2) + 1);
        let a = router.route_pattern(&perm).unwrap();
        prop_assert!(a.max_channel_load() <= 1);
    }

    #[test]
    fn edge_coloring_is_always_proper(n in 1usize..5, r in 2usize..7, seed in 0u64..300) {
        let ft = Ftree::new(n, n.max(1), r).unwrap();
        let router = RearrangeableRouter::new(&ft).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full((n * r) as u32, &mut rng);
        let a = router.route_pattern(&perm).unwrap();
        prop_assert!(a.max_channel_load() <= 1, "Beneš m = n must color any permutation");
        prop_assert!(a.validate(ft.topology()).is_ok());
    }

    #[test]
    fn dmodk_paths_valid_even_when_blocking(
        n in 1usize..5, m in 1usize..6, r in 1usize..7, seed in 0u64..200,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full((n * r) as u32, &mut rng);
        let a = route_all(&router, &perm).unwrap();
        prop_assert!(a.validate(ft.topology()).is_ok());
    }

    #[test]
    fn lemma2_greedy_and_type3_within_bound(n in 1usize..5, r in 2usize..9) {
        let bound = lemma2::lemma2_bound(n, r);
        let t3 = lemma2::type3_construction(n, r);
        prop_assert!(lemma2::is_routable_through_root(n, r, &t3));
        prop_assert!(t3.len() <= bound);
        let greedy = lemma2::greedy_max(n, r);
        prop_assert!(lemma2::is_routable_through_root(n, r, &greedy));
        prop_assert!(greedy.len() <= bound);
    }

    #[test]
    fn kary_ntree_structure(k in 1usize..5, levels in 1usize..4) {
        let t = kary_ntree(k, levels).unwrap();
        prop_assert!(t.topology().audit().is_ok());
        prop_assert_eq!(t.num_leaves(), k.pow(levels as u32));
        prop_assert_eq!(t.num_switches(), levels * k.pow(levels as u32 - 1));
    }

    #[test]
    fn permutation_inverse_involution(ports in 1u32..30, seed in 0u64..200) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full(ports, &mut rng);
        prop_assert_eq!(perm.inverse().inverse(), perm);
    }

    #[test]
    fn structured_patterns_are_valid_permutations(ports in 1u32..64) {
        for pat in patterns::StructuredPattern::ALL {
            if let Some(perm) = pat.generate(ports) {
                let rebuilt = Permutation::from_pairs(ports, perm.pairs().iter().copied());
                prop_assert!(rebuilt.is_ok(), "{:?} at {} ports", pat, ports);
            }
        }
    }

    #[test]
    fn simulator_conserves_packets_under_any_config(
        n in 1usize..4,
        r in 2usize..6,
        rate in 0.05f64..1.0,
        flits in 1u64..4,
        islip in proptest::bool::ANY,
        seed in 0u64..500,
    ) {
        use ftclos::sim::{Arbiter, Policy, SimConfig, EventSimulator, Workload};
        let ft = Ftree::new(n, n * n, r).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let cfg = SimConfig {
            warmup_cycles: 20,
            measure_cycles: 150,
            packet_flits: flits,
            arbiter: if islip { Arbiter::Voq { iterations: 1 } } else { Arbiter::HolFifo },
            drain: true,
            ..SimConfig::default()
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // Derangement: self-pairs deliver instantly with zero latency and
        // would dilute the latency lower bound below.
        let perm = patterns::random_derangement((n * r) as u32, &mut rng);
        let stats = EventSimulator::new(ft.topology(), cfg, Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, rate), seed);
        // Conservation: drain empties the network entirely.
        prop_assert_eq!(stats.leftover_packets, 0);
        prop_assert_eq!(stats.injected_total, stats.delivered_total);
        // Latency sanity: at least the hop count (+ serialization).
        if stats.delivered_in_window > 0 {
            prop_assert!(stats.mean_latency() >= flits as f64);
            prop_assert!(stats.latency_p50 <= stats.latency_p99);
        }
        // Accepted throughput can never exceed offered (open-loop sources).
        prop_assert!(stats.accepted_throughput() <= rate + 0.15);
    }

    #[test]
    fn circuit_clos_audit_holds_under_random_churn(
        n in 1usize..4,
        m_extra in 0usize..4,
        r in 2usize..5,
        seed in 0u64..500,
    ) {
        use ftclos::core::circuit::{CircuitClos, ConnectError, MiddlePolicy};
        use rand::Rng as _;
        let m = n + m_extra; // always >= n: rearrangement must succeed
        let mut c = CircuitClos::new(n, m, r, MiddlePolicy::FirstFit);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let ports = c.ports();
        for _ in 0..300 {
            if rng.gen_bool(0.6) {
                let s = rng.gen_range(0..ports);
                let d = rng.gen_range(0..ports);
                if let Err(ConnectError::Blocked) = c.connect(s, d) {
                    // m >= n: Beneš says rearrangement always recovers.
                    prop_assert!(c.connect_rearranging(s, d).is_ok());
                }
            } else {
                let s = rng.gen_range(0..ports);
                c.disconnect(s);
            }
            prop_assert!(c.audit().is_ok());
        }
    }

    #[test]
    fn ftree_fault_revive_round_trip(
        (n, m, r) in shape(), links in 0usize..6, switches in 0usize..3, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        assert_revive_round_trip(ft.topology(), links, switches, seed);
    }

    #[test]
    fn kary_ntree_fault_revive_round_trip(
        k in 1usize..5, levels in 1usize..4, links in 0usize..6, seed in 0u64..500,
    ) {
        let t = kary_ntree(k, levels).unwrap();
        assert_revive_round_trip(t.topology(), links, 1, seed);
    }

    #[test]
    fn recursive_fault_revive_round_trip(links in 0usize..8, seed in 0u64..500) {
        use ftclos::topo::RecursiveNonblocking;
        let net = RecursiveNonblocking::new(2).unwrap();
        assert_revive_round_trip(net.topology(), links, 2, seed);
    }

    #[test]
    fn yuan_recursive_paths_valid_and_disjoint(seed in 0u64..300) {
        use ftclos::routing::YuanRecursive;
        use ftclos::topo::RecursiveNonblocking;
        let net = RecursiveNonblocking::new(2).unwrap();
        let router = YuanRecursive::new(&net);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full(net.num_leaves() as u32, &mut rng);
        let a = route_all(&router, &perm).unwrap();
        prop_assert!(a.validate(net.topology()).is_ok());
        prop_assert!(a.max_channel_load() <= 1);
    }
}
