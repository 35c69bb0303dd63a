//! `scale-sparse`: the recursive three-level construction at 110k hosts.
//!
//! Set-up builds `RecursiveNonblocking::new(18)` (110,808 hosts, 76 M
//! channels, 1.5 GB of topology). Each job routes a seeded shift
//! permutation with `YuanRecursive` and simulates it at light load on the
//! event engine, reusing one paged state arena. Topology build and paged
//! state dominate; most components sit idle, the opposite use of the event
//! kernel to `sim-saturated`.

use crate::harness::{sub_seed, timed, Checker, JobOut, Workload};
use crate::saturated::{check_stats, fold_stats};
use ftclos_core::verify::find_contention;
use ftclos_evsim::EventSimulator;
use ftclos_obs::Recorder;
use ftclos_routing::{route_all, YuanRecursive};
use ftclos_sim::{Policy, SimArena, SimConfig, Workload as Traffic};
use ftclos_topo::RecursiveNonblocking;
use ftclos_traffic::patterns;

/// The `scale-sparse` workload.
#[derive(Clone, Debug)]
pub struct Sparse {
    /// Run seed.
    pub seed: u64,
    /// Order of the recursive construction (`n⁴ + n³` hosts).
    pub n: usize,
    /// Route-and-simulate jobs per pass.
    pub jobs: usize,
}

/// Offered load (packets per host per cycle): most components stay idle.
const LOAD: f64 = 0.02;

/// Simulator configuration of every job.
fn sim_config() -> SimConfig {
    SimConfig {
        warmup_cycles: 10,
        measure_cycles: 30,
        drain: true,
        ..SimConfig::default()
    }
}

impl Sparse {
    /// The benchmark's configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            n: 18,
            jobs: 3,
        }
    }

    fn label(&self) -> String {
        format!("recursive({})", self.n)
    }
}

/// The router and the reusable simulator state.
pub struct Tables<'f> {
    net: &'f RecursiveNonblocking,
    router: YuanRecursive<'f>,
    arena: SimArena,
}

impl Workload for Sparse {
    type Fabric = RecursiveNonblocking;
    type Tables<'f> = Tables<'f>;

    fn name(&self) -> &'static str {
        "scale-sparse"
    }

    fn build<R: Recorder>(&self, rec: &R) -> Result<RecursiveNonblocking, String> {
        let _s = rec.span("topo.build");
        let net = RecursiveNonblocking::new(self.n).map_err(|e| e.to_string())?;
        rec.gauge("topo.bytes", net.topology().memory_bytes() as u64);
        rec.gauge("topo.channels", net.topology().num_channels() as u64);
        Ok(net)
    }

    fn tables<'f, R: Recorder>(
        &'f self,
        net: &'f RecursiveNonblocking,
        _rec: &R,
    ) -> Result<Tables<'f>, String> {
        Ok(Tables {
            net,
            router: YuanRecursive::new(net),
            arena: SimArena::new(),
        })
    }

    fn num_jobs(&self) -> usize {
        self.jobs
    }

    fn job<R: Recorder>(&self, t: &mut Tables<'_>, i: usize, rec: &R, ck: &mut Checker) -> JobOut {
        let hosts = t.net.num_leaves() as u32;
        let shift = 1 + (sub_seed(self.seed, 5, i as u64) % u64::from(hosts - 1)) as u32;
        let sim_seed = sub_seed(self.seed, 6, i as u64);
        let (secs, out) = timed(rec, || {
            let (perm, traffic) = {
                let _s = rec.span("traffic.gen");
                rec.add("traffic.patterns", 1);
                let perm = patterns::shift(hosts, shift);
                let traffic = Traffic::permutation(&perm, LOAD);
                (perm, traffic)
            };
            let routes = {
                let _s = rec.span("routing.route");
                rec.add("routing.paths_routed", perm.len() as u64);
                route_all(&t.router, &perm).map_err(|e| e.to_string())?
            };
            let policy = {
                let _s = rec.span("sim.policy_build");
                Policy::from_assignment(&routes)
            };
            let _s = rec.span("evsim.simulate");
            let arena = std::mem::take(&mut t.arena);
            let mut sim = EventSimulator::with_arena(t.net.topology(), sim_config(), policy, arena);
            let stats = sim.try_run_recorded(&traffic, sim_seed, rec);
            t.arena = sim.into_arena();
            stats.map(|s| (routes, s)).map_err(|e| e.to_string())
        });
        ck.begin(&self.label(), format!("shift{shift}-sim{i}"));
        let (routes, stats) = match out {
            Ok(out) => out,
            Err(e) => {
                ck.check(false, || e);
                return JobOut {
                    secs,
                    stream: true,
                    ..JobOut::default()
                };
            }
        };
        if ck.full {
            let contention = find_contention(&routes);
            ck.check(contention.is_none(), || {
                format!("Yuan recursive routing has contention: {contention:?}")
            });
        }
        check_stats(ck, &stats);
        fold_stats(ck, &stats);
        JobOut {
            secs,
            stream: true,
            delivered: stats.delivered_total,
            host_cycles: u64::from(hosts) * sim_config().total_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_recursive_run_is_clean_and_deterministic() {
        let _cores = crate::harness::exclusive();
        let w = Sparse {
            n: 3,
            jobs: 2,
            ..Sparse::new(5)
        };
        let a = crate::harness::run(&w, w.seed, 0.0, false).expect("set-up");
        let b = crate::harness::run(&w, w.seed, 0.0, false).expect("set-up");
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        assert!(a.plain.delivered > 0);
    }
}
