//! Simulator speed: cycles of the packet engine per wall-clock second, at
//! full load, for fabric sizes a laptop study uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftclos_routing::YuanDeterministic;
use ftclos_sim::{EventSimulator, Policy, SimConfig, Workload};
use ftclos_topo::Ftree;
use ftclos_traffic::patterns;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_cycles");
    for &(n, r) in &[(2usize, 5usize), (3, 12), (4, 20)] {
        let ft = Ftree::new(n, n * n, r).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let ports = (n * r) as u32;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let perm = patterns::random_full(ports, &mut rng);
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 1_000,
            ..SimConfig::default()
        };
        group.throughput(Throughput::Elements(cfg.total_cycles()));
        group.bench_with_input(BenchmarkId::new("ftree_full_load", ports), &perm, |b, p| {
            b.iter(|| {
                let mut sim =
                    EventSimulator::new(ft.topology(), cfg, Policy::from_single_path(&router));
                black_box(sim.run(&Workload::permutation(p, 1.0), 7))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
