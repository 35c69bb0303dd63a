//! `sim-saturated`: event-engine packet simulation at offered load 0.9.
//!
//! Jobs alternate between the nonblocking `ftree(8+64, 129)` under Theorem 3
//! routing and the under-provisioned `ftree(8+16, 129)` under d-mod-k, where
//! queues fill and credits stall. Every switch is busy every cycle, so the
//! event kernel's per-packet path and the `Policy` set-up dominate and the
//! topology is negligible. Drain is on, so packet conservation is exact.

use crate::harness::{sub_seed, timed, Checker, JobOut, Workload};
use ftclos_evsim::EventSimulator;
use ftclos_obs::Recorder;
use ftclos_routing::{DModK, YuanDeterministic};
use ftclos_sim::{Policy, SimConfig, SimStats, Simulator, Workload as Traffic};
use ftclos_topo::Ftree;
use std::time::Instant;

/// The `sim-saturated` workload.
#[derive(Clone, Debug)]
pub struct Saturated {
    /// Run seed.
    pub seed: u64,
    /// `(n, m, r)` of the nonblocking fabric (Theorem 3 routing).
    pub nonblocking: (usize, usize, usize),
    /// `(n, m, r)` of the under-provisioned fabric (d-mod-k routing).
    pub blocking: (usize, usize, usize),
    /// Simulation jobs per pass, alternating between the two fabrics.
    pub jobs: usize,
    /// Simulator configuration of every job.
    pub cfg: SimConfig,
}

/// Offered load (packets per host per cycle): every switch busy every cycle.
const LOAD: f64 = 0.9;

impl Saturated {
    /// The benchmark's configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            nonblocking: (8, 64, 129),
            blocking: (8, 16, 129),
            jobs: 6,
            cfg: SimConfig {
                warmup_cycles: 40,
                measure_cycles: 80,
                drain: true,
                ..SimConfig::default()
            },
        }
    }

    fn fabric_of(&self, i: usize) -> (usize, usize, usize) {
        if i.is_multiple_of(2) {
            self.nonblocking
        } else {
            self.blocking
        }
    }

    fn label(&self, i: usize) -> String {
        let (n, m, r) = self.fabric_of(i);
        let scheme = if i.is_multiple_of(2) { "yuan" } else { "dmodk" };
        format!("ftree({n}+{m},{r})/{scheme}")
    }

    /// The job the cycle engine replays once per run.
    fn replay_job(&self) -> usize {
        (sub_seed(self.seed, 3, 0) % self.jobs as u64) as usize
    }
}

/// The two fabrics.
pub struct Fabrics {
    nonblocking: Ftree,
    blocking: Ftree,
}

/// One event simulator per fabric (policies built once, in set-up).
pub struct Tables<'f> {
    fabrics: &'f Fabrics,
    sims: [EventSimulator<'f>; 2],
    traffic: [Traffic; 2],
    /// Event-engine statistics of the job the cycle engine replays.
    replay: Option<SimStats>,
}

impl Workload for Saturated {
    type Fabric = Fabrics;
    type Tables<'f> = Tables<'f>;

    fn name(&self) -> &'static str {
        "sim-saturated"
    }

    fn build<R: Recorder>(&self, rec: &R) -> Result<Fabrics, String> {
        let _s = rec.span("topo.build");
        let make =
            |(n, m, r): (usize, usize, usize)| Ftree::new(n, m, r).map_err(|e| e.to_string());
        let f = Fabrics {
            nonblocking: make(self.nonblocking)?,
            blocking: make(self.blocking)?,
        };
        let topos = [f.nonblocking.topology(), f.blocking.topology()];
        rec.gauge(
            "topo.bytes",
            topos.iter().map(|t| t.memory_bytes() as u64).sum(),
        );
        rec.gauge(
            "topo.channels",
            topos.iter().map(|t| t.num_channels() as u64).sum(),
        );
        Ok(f)
    }

    fn tables<'f, R: Recorder>(&'f self, f: &'f Fabrics, rec: &R) -> Result<Tables<'f>, String> {
        let [p0, p1] = {
            let _s = rec.span("sim.policy_build");
            let yuan = YuanDeterministic::new(&f.nonblocking).map_err(|e| e.to_string())?;
            [
                Policy::from_single_path(&yuan),
                Policy::from_single_path(&DModK::new(&f.blocking)),
            ]
        };
        let traffic = [&f.nonblocking, &f.blocking]
            .map(|ft| Traffic::uniform_random(ft.num_leaves() as u32, LOAD));
        Ok(Tables {
            fabrics: f,
            sims: [
                EventSimulator::new(f.nonblocking.topology(), self.cfg, p0),
                EventSimulator::new(f.blocking.topology(), self.cfg, p1),
            ],
            traffic,
            replay: None,
        })
    }

    fn num_jobs(&self) -> usize {
        self.jobs
    }

    fn job<R: Recorder>(&self, t: &mut Tables<'_>, i: usize, rec: &R, ck: &mut Checker) -> JobOut {
        let side = i % 2;
        let sim_seed = sub_seed(self.seed, 4, i as u64);
        let (secs, stats) = timed(rec, || {
            let _s = rec.span("evsim.simulate");
            t.sims[side].try_run_recorded(&t.traffic[side], sim_seed, rec)
        });
        ck.begin(&self.label(i), format!("sim{i}"));
        let host_cycles = t.traffic[side].ports() as u64 * self.cfg.total_cycles();
        let stats = match stats {
            Ok(s) => s,
            Err(e) => {
                ck.check(false, || format!("simulation failed: {e}"));
                return JobOut {
                    secs,
                    stream: true,
                    ..JobOut::default()
                };
            }
        };
        check_stats(ck, &stats);
        fold_stats(ck, &stats);
        if ck.full && i == self.replay_job() {
            t.replay = Some(stats.clone());
        }
        JobOut {
            secs,
            stream: true,
            delivered: stats.delivered_total,
            host_cycles,
        }
    }

    /// Replay one job on the cycle engine: its statistics must equal the
    /// event engine's bit for bit. Returns the cycle engine's run time.
    fn once_oracles(&self, t: &mut Tables<'_>, ck: &mut Checker) -> f64 {
        let i = self.replay_job();
        let mut secs = 0.0;
        ck.begin(&self.label(i), format!("sim{i}-cycle-replay"));
        let side = i % 2;
        let ft = if side == 0 {
            &t.fabrics.nonblocking
        } else {
            &t.fabrics.blocking
        };
        let policy = if side == 0 {
            YuanDeterministic::new(ft).map(|y| Policy::from_single_path(&y))
        } else {
            Ok(Policy::from_single_path(&DModK::new(ft)))
        };
        let cycle = policy.map_err(|e| e.to_string()).and_then(|p| {
            let mut sim = Simulator::new(ft.topology(), self.cfg, p);
            let t0 = Instant::now();
            let stats = sim.try_run(&t.traffic[side], sub_seed(self.seed, 4, i as u64));
            secs = t0.elapsed().as_secs_f64();
            stats.map_err(|e| e.to_string())
        });
        match (&t.replay, cycle) {
            (Some(event), Ok(cycle)) => engines_agree(ck, event, &cycle),
            (None, _) => ck.check(false, || "event-engine job did not complete".into()),
            (_, Err(e)) => ck.check(false, || format!("cycle engine failed: {e}")),
        }
        secs
    }
}

/// Oracles every simulation must pass.
pub fn check_stats(ck: &mut Checker, stats: &SimStats) {
    ck.check(stats.conservation_ok(), || {
        format!(
            "conservation broken: injected {} delivered {} abandoned {} leftover {}",
            stats.injected_total,
            stats.delivered_total,
            stats.abandoned_total,
            stats.leftover_packets
        )
    });
    ck.check(stats.delivered_total > 0, || "no packet delivered".into());
}

/// The cycle engine and the event engine must agree exactly.
pub fn engines_agree(ck: &mut Checker, event: &SimStats, cycle: &SimStats) {
    ck.check(event == cycle, || {
        format!(
            "engines disagree: event delivered {} latency_sum {}, cycle delivered {} latency_sum {}",
            event.delivered_total, event.latency_sum, cycle.delivered_total, cycle.latency_sum
        )
    });
}

/// Fold every statistic, per-channel busy cycles included, into the digest.
pub fn fold_stats(ck: &mut Checker, s: &SimStats) {
    for v in [
        s.window_cycles,
        s.active_sources as u64,
        s.injected_in_window,
        s.delivered_in_window,
        s.injected_total,
        s.delivered_total,
        s.latency_sum,
        s.latency_max,
        s.injection_refusals,
        s.timed_out_total,
        s.retries_total,
        s.abandoned_total,
        s.leftover_packets,
        s.offered_rate.to_bits(),
    ] {
        ck.fold_u64(v);
    }
    for (channel, busy) in s.channel_busy.nonzero() {
        ck.fold_u64(channel as u64);
        ck.fold_u64(busy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Saturated {
        Saturated {
            nonblocking: (2, 4, 5),
            blocking: (2, 2, 5),
            jobs: 2,
            cfg: SimConfig {
                warmup_cycles: 5,
                measure_cycles: 30,
                drain: true,
                ..SimConfig::default()
            },
            ..Saturated::new(11)
        }
    }

    #[test]
    fn replay_agrees_on_small_fabrics() {
        let _cores = crate::harness::exclusive();
        let w = small();
        let m = crate::harness::run(&w, w.seed, 0.0, false).expect("set-up");
        assert_eq!(m.failed, 0);
        assert!(m.plain.delivered > 0);
    }

    #[test]
    fn perturbed_stats_fail_engine_agreement() {
        let _cores = crate::harness::exclusive();
        let w = small();
        let f = w.build(&ftclos_obs::Noop).expect("fabrics");
        let mut t = w.tables(&f, &ftclos_obs::Noop).expect("tables");
        let mut ck = Checker::new("sim-saturated", w.seed);
        for i in 0..w.jobs {
            w.job(&mut t, i, &ftclos_obs::Noop, &mut ck);
        }
        w.once_oracles(&mut t, &mut ck);
        assert_eq!(ck.failed_jobs(), 0, "unperturbed replay must agree");
        let mut perturbed = t.replay.clone().expect("replayed job ran");
        perturbed.latency_sum += 1;
        t.replay = Some(perturbed);
        w.once_oracles(&mut t, &mut ck);
        assert_eq!(ck.failed_jobs(), 1, "a one-cycle latency change must fail");
    }
}
