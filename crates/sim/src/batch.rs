//! Parallel batch simulation: injection-rate sweeps for throughput/latency
//! curves (the load-latency plots standard in interconnect evaluation).

use crate::config::SimConfig;
use crate::engine::EventSimulator;
use crate::policy::Policy;
use crate::workload::Workload;
use ftclos_topo::Topology;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One point of a load sweep.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Offered load (packets/cycle/source).
    pub offered: f64,
    /// Accepted throughput (packets/cycle/source).
    pub accepted: f64,
    /// Mean end-to-end latency in cycles.
    pub mean_latency: f64,
}

/// Sweep offered injection rates in parallel. Each rate runs an independent
/// simulation with a rate-derived seed, so results are reproducible and
/// thread-count independent.
pub fn sweep_injection_rates(
    topo: &Topology,
    cfg: SimConfig,
    make_policy: impl Fn() -> Policy + Sync,
    make_workload: impl Fn(f64) -> Workload + Sync,
    rates: &[f64],
    seed: u64,
) -> Vec<ThroughputPoint> {
    rates
        .par_iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut sim = EventSimulator::new(topo, cfg, make_policy());
            let stats = sim.run(&make_workload(rate), seed.wrapping_add(i as u64 * 7919));
            ThroughputPoint {
                offered: rate,
                accepted: stats.accepted_throughput(),
                mean_latency: stats.mean_latency(),
            }
        })
        .collect()
}

/// Like [`sweep_injection_rates`], but each worker is isolated: a panic or
/// [`crate::SimError`] in one rate's simulation is captured as an `Err`
/// string for that point instead of taking down the whole sweep. Use this
/// when sweeping configurations that may be degenerate (e.g. generated
/// fault/retry matrices).
pub fn sweep_injection_rates_isolated(
    topo: &Topology,
    cfg: SimConfig,
    make_policy: impl Fn() -> Policy + Sync,
    make_workload: impl Fn(f64) -> Workload + Sync,
    rates: &[f64],
    seed: u64,
) -> Vec<Result<ThroughputPoint, String>> {
    rates
        .par_iter()
        .enumerate()
        .map(|(i, &rate)| {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut sim = EventSimulator::new(topo, cfg, make_policy());
                sim.try_run(&make_workload(rate), seed.wrapping_add(i as u64 * 7919))
            }));
            match run {
                Ok(Ok(stats)) => Ok(ThroughputPoint {
                    offered: rate,
                    accepted: stats.accepted_throughput(),
                    mean_latency: stats.mean_latency(),
                }),
                Ok(Err(e)) => Err(e.to_string()),
                Err(panic) => Err(panic_message(panic)),
            }
        })
        .collect()
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

/// Saturation throughput: the accepted throughput at offered load 1.0.
pub fn saturation_throughput(
    topo: &Topology,
    cfg: SimConfig,
    policy: Policy,
    make_workload: impl Fn(f64) -> Workload,
    seed: u64,
) -> f64 {
    let mut sim = EventSimulator::new(topo, cfg, policy);
    sim.run(&make_workload(1.0), seed).accepted_throughput()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::YuanDeterministic;
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    #[test]
    fn sweep_is_monotone_under_capacity() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            ..SimConfig::default()
        };
        let points = sweep_injection_rates(
            ft.topology(),
            cfg,
            || Policy::from_single_path(&router),
            |rate| Workload::permutation(&perm, rate),
            &[0.2, 0.5, 0.9],
            1,
        );
        assert_eq!(points.len(), 3);
        // Nonblocking fabric: accepted tracks offered.
        for p in &points {
            assert!(
                (p.accepted - p.offered).abs() < 0.07,
                "offered {} accepted {}",
                p.offered,
                p.accepted
            );
        }
    }

    #[test]
    fn isolated_sweep_quarantines_failing_workers() {
        // A policy that panics for one specific rate: that point comes back
        // as Err, the others still succeed.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let cfg = SimConfig {
            warmup_cycles: 50,
            measure_cycles: 200,
            ..SimConfig::default()
        };
        let results = sweep_injection_rates_isolated(
            ft.topology(),
            cfg,
            || Policy::from_single_path(&router),
            |rate| {
                if (rate - 0.5).abs() < 1e-9 {
                    panic!("synthetic workload failure at rate {rate}");
                }
                Workload::permutation(&perm, rate)
            },
            &[0.2, 0.5, 0.9],
            1,
        );
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(err.contains("synthetic workload failure"), "{err}");
        assert!(results[2].is_ok());
    }

    #[test]
    fn isolated_sweep_reports_config_errors() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let bad = SimConfig {
            packet_flits: 0,
            ..SimConfig::default()
        };
        let results = sweep_injection_rates_isolated(
            ft.topology(),
            bad,
            || Policy::from_single_path(&router),
            |rate| Workload::permutation(&perm, rate),
            &[0.5],
            1,
        );
        let err = results[0].as_ref().unwrap_err();
        assert!(err.contains("packet_flits"), "{err}");
    }

    #[test]
    fn saturation_of_nonblocking_is_high() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            ..SimConfig::default()
        };
        let sat = saturation_throughput(
            ft.topology(),
            cfg,
            Policy::from_single_path(&router),
            |rate| Workload::permutation(&perm, rate),
            2,
        );
        assert!(sat > 0.9, "saturation {sat}");
    }
}
