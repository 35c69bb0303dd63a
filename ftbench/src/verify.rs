//! `verify`: the analysis stack on the Theorem 3 fabric.
//!
//! Set-up builds `ftree(12+144, 289)` (3,468 hosts), its `PathArena` and
//! `ContentionEngine`. Each pass runs five whole-fabric checks (Lemma 1
//! audit, two-pair blocking search for Yuan and d-mod-k, channel-dependency
//! check for Yuan and d-mod-k) and then a stream of seeded random
//! permutations: each is routed under Yuan and d-mod-k, scanned for
//! contention, solved by the fluid model, and paired with a min-congestion
//! plan on the under-provisioned `ftree(8+6, 129)`, where every baseline
//! reaches load 2 or more so repair really moves flows.

use crate::harness::{sub_seed, timed, Checker, JobOut, Workload};
use ftclos_core::cdg::cdg_of_router_with;
use ftclos_core::search::{find_blocking_two_pair, TwoPairOutcome};
use ftclos_core::verify::find_contention;
use ftclos_core::{ContentionEngine, ContentionScratch};
use ftclos_flowsim::{solve_pattern_with, FluidReport};
use ftclos_obs::Recorder;
use ftclos_routing::{
    demand_lower_bound, route_all, CongestionConfig, DModK, FtreeCandidates, MinCongestion, Path,
    PathArena, RouteAssignment, RoutingError, SModK, SinglePathRouter, YuanDeterministic,
};
use ftclos_topo::{ChannelCapacities, Ftree};
use ftclos_traffic::{patterns, SdPair};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Single-path scheme the workload holds to the nonblocking verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Theorem 3 routing (nonblocking when `m >= n²`).
    Yuan,
    /// Destination-mod-k routing (blocking when `m < n²`); only the
    /// self-tests claim it is nonblocking.
    #[cfg_attr(not(test), allow(dead_code))]
    DModK,
}

/// The `verify` workload.
#[derive(Clone, Debug)]
pub struct Verify {
    /// Run seed.
    pub seed: u64,
    /// `(n, m, r)` of the analysed fabric.
    pub fabric: (usize, usize, usize),
    /// `(n, m, r)` of the under-provisioned min-congestion fabric.
    pub congestion_fabric: (usize, usize, usize),
    /// Permutation jobs per pass.
    pub perms: usize,
    /// The scheme whose nonblocking verdict every job checks.
    pub claimed: Scheme,
}

impl Verify {
    /// The benchmark's configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            fabric: (12, 144, 289),
            congestion_fabric: (8, 6, 129),
            perms: 100,
            claimed: Scheme::Yuan,
        }
    }

    fn label(&self) -> String {
        let (n, m, r) = self.fabric;
        format!("ftree({n}+{m},{r})")
    }

    fn congestion_label(&self) -> String {
        let (n, m, r) = self.congestion_fabric;
        format!("ftree({n}+{m},{r})")
    }
}

/// Whole-fabric check jobs at the head of every pass.
const FABRIC_JOBS: usize = 5;

/// The fabrics: the analysed one and the min-congestion one.
pub struct Fabrics {
    main: Ftree,
    small: Ftree,
}

/// The claimed-nonblocking router, either scheme behind one type.
pub enum Claimed<'f> {
    /// Theorem 3 routing.
    Yuan(YuanDeterministic<'f>),
    /// d-mod-k routing.
    DModK(DModK<'f>),
}

impl SinglePathRouter for Claimed<'_> {
    fn ports(&self) -> u32 {
        match self {
            Claimed::Yuan(r) => r.ports(),
            Claimed::DModK(r) => r.ports(),
        }
    }

    fn route(&self, pair: SdPair) -> Path {
        match self {
            Claimed::Yuan(r) => r.route(pair),
            Claimed::DModK(r) => r.route(pair),
        }
    }

    fn try_route(&self, pair: SdPair) -> Result<Path, RoutingError> {
        match self {
            Claimed::Yuan(r) => r.try_route(pair),
            Claimed::DModK(r) => r.try_route(pair),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Claimed::Yuan(r) => r.name(),
            Claimed::DModK(r) => r.name(),
        }
    }
}

/// Routers and tables over [`Fabrics`].
pub struct Tables<'f> {
    fabrics: &'f Fabrics,
    claimed: Claimed<'f>,
    dmodk: DModK<'f>,
    engine: ContentionEngine,
    scratch: ContentionScratch,
    caps: ChannelCapacities,
    small_dmodk: DModK<'f>,
    small_smodk: SModK<'f>,
    small_scratch: ContentionScratch,
    candidates: FtreeCandidates<'f>,
}

/// Outputs of one permutation job.
struct PermOut {
    claimed: RouteAssignment,
    dmodk: RouteAssignment,
    claimed_contention: Option<ftclos_core::verify::ContentionWitness>,
    dmodk_contention: Option<ftclos_core::verify::ContentionWitness>,
    claimed_fluid: FluidReport,
    dmodk_fluid: FluidReport,
    small_perm: ftclos_traffic::Permutation,
    baseline_max: [u32; 2],
    plan_max: u32,
    plan_meter_max: u32,
    moves: u64,
    rounds: u64,
}

impl Workload for Verify {
    type Fabric = Fabrics;
    type Tables<'f> = Tables<'f>;

    fn name(&self) -> &'static str {
        "verify"
    }

    fn build<R: Recorder>(&self, rec: &R) -> Result<Fabrics, String> {
        let _s = rec.span("topo.build");
        let (n, m, r) = self.fabric;
        let main = Ftree::new(n, m, r).map_err(|e| e.to_string())?;
        let (n, m, r) = self.congestion_fabric;
        let small = Ftree::new(n, m, r).map_err(|e| e.to_string())?;
        rec.gauge(
            "topo.bytes",
            (main.topology().memory_bytes() + small.topology().memory_bytes()) as u64,
        );
        rec.gauge(
            "topo.channels",
            (main.topology().num_channels() + small.topology().num_channels()) as u64,
        );
        Ok(Fabrics { main, small })
    }

    fn tables<'f, R: Recorder>(&'f self, f: &'f Fabrics, rec: &R) -> Result<Tables<'f>, String> {
        let claimed = match self.claimed {
            Scheme::Yuan => {
                Claimed::Yuan(YuanDeterministic::new(&f.main).map_err(|e| e.to_string())?)
            }
            Scheme::DModK => Claimed::DModK(DModK::new(&f.main)),
        };
        let arena = {
            let _s = rec.span("routing.arena_build");
            PathArena::build_with(&claimed, rec).map_err(|e| e.to_string())?
        };
        let engine = {
            let _s = rec.span("core.census");
            ContentionEngine::from_arena_with(arena, rec)
        };
        let channels = f.main.topology().num_channels();
        Ok(Tables {
            fabrics: f,
            claimed,
            dmodk: DModK::new(&f.main),
            engine,
            scratch: ContentionScratch::with_channels(channels),
            caps: ChannelCapacities::unit(f.main.topology()),
            small_dmodk: DModK::new(&f.small),
            small_smodk: SModK::new(&f.small),
            small_scratch: ContentionScratch::with_channels(f.small.topology().num_channels()),
            candidates: FtreeCandidates::pristine(&f.small),
        })
    }

    fn num_jobs(&self) -> usize {
        FABRIC_JOBS + self.perms
    }

    fn job<R: Recorder>(&self, t: &mut Tables<'_>, i: usize, rec: &R, ck: &mut Checker) -> JobOut {
        let secs = match i {
            0 => self.audit(t, rec, ck),
            1 => self.two_pair_claimed(t, rec, ck),
            2 => self.two_pair_dmodk(t, rec, ck),
            3 | 4 => self.cdg(t, i == 3, rec, ck),
            _ => return self.permutation(t, i - FABRIC_JOBS, rec, ck),
        };
        JobOut {
            secs,
            ..JobOut::default()
        }
    }
}

impl Verify {
    /// Lemma 1 audit: re-take the census and scan it.
    fn audit<R: Recorder>(&self, t: &mut Tables<'_>, rec: &R, ck: &mut Checker) -> f64 {
        let (secs, violation) = timed(rec, || {
            let _s = rec.span("core.audit");
            t.engine.recount();
            t.engine.lemma1_violation_with(rec)
        });
        ck.begin(&self.label(), "lemma1-audit".into());
        ck.check(violation.is_none(), || {
            format!("{} fails Lemma 1: {violation:?}", t.claimed.name())
        });
        ck.fold(format!("audit {violation:?}"));
        secs
    }

    fn two_pair_claimed<R: Recorder>(&self, t: &mut Tables<'_>, rec: &R, ck: &mut Checker) -> f64 {
        let (secs, outcome) = timed(rec, || {
            let _s = rec.span("core.two_pair");
            find_blocking_two_pair(&t.claimed)
        });
        ck.begin(&self.label(), format!("two-pair-{}", t.claimed.name()));
        ck.check(outcome.is_nonblocking(), || {
            format!("{} blocks: {outcome:?}", t.claimed.name())
        });
        fold_two_pair(ck, &outcome);
        secs
    }

    /// d-mod-k is blocking on this fabric; its witness is a certificate the
    /// map-based contention check confirms independently.
    fn two_pair_dmodk<R: Recorder>(&self, t: &mut Tables<'_>, rec: &R, ck: &mut Checker) -> f64 {
        let (secs, outcome) = timed(rec, || {
            let _s = rec.span("core.two_pair");
            find_blocking_two_pair(&t.dmodk)
        });
        ck.begin(&self.label(), "two-pair-dmodk".into());
        match &outcome {
            TwoPairOutcome::Blocking(perm) => {
                let confirmed = route_all(&t.dmodk, perm)
                    .map(|a| find_contention(&a).is_some())
                    .unwrap_or(false);
                ck.check(confirmed, || {
                    format!("d-mod-k witness {perm:?} shows no contention when routed")
                });
            }
            TwoPairOutcome::Exhausted { .. } => {}
            TwoPairOutcome::RoutingFailed(e) => ck.check(false, || format!("routing failed: {e}")),
        }
        fold_two_pair(ck, &outcome);
        secs
    }

    /// Channel-dependency check: up/down routes admit an up*/down* order,
    /// so both schemes must be deadlock-free with no valley turn.
    fn cdg<R: Recorder>(
        &self,
        t: &mut Tables<'_>,
        claimed: bool,
        rec: &R,
        ck: &mut Checker,
    ) -> f64 {
        let topo = t.fabrics.main.topology();
        let (secs, analysis) = timed(rec, || {
            let _s = rec.span("core.cdg");
            let graph = if claimed {
                cdg_of_router_with(topo, &t.claimed, rec)
            } else {
                cdg_of_router_with(topo, &t.dmodk, rec)
            };
            graph.check_with(rec)
        });
        let name = if claimed {
            t.claimed.name()
        } else {
            t.dmodk.name()
        };
        ck.begin(&self.label(), format!("cdg-{name}"));
        ck.check(analysis.is_free() && analysis.valley_turns == 0, || {
            format!(
                "{name}: deadlock verdict {:?}, {} valley turns",
                analysis.verdict, analysis.valley_turns
            )
        });
        ck.fold(format!(
            "cdg {name} deps={} valleys={} cyclic={} free={}",
            analysis.num_deps,
            analysis.valley_turns,
            analysis.cyclic_channels,
            analysis.is_free()
        ));
        secs
    }

    fn permutation<R: Recorder>(
        &self,
        t: &mut Tables<'_>,
        k: usize,
        rec: &R,
        ck: &mut Checker,
    ) -> JobOut {
        let job_seed = sub_seed(self.seed, 1, k as u64);
        let (secs, out) = timed(rec, || self.permutation_calls(t, job_seed, rec));
        ck.begin(&self.label(), format!("perm{k}"));
        let out = match out {
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
        let name = t.claimed.name();
        ck.check(out.claimed_contention.is_none(), || {
            format!(
                "{name} routing has contention: {:?}",
                out.claimed_contention
            )
        });
        // Seeded subsample: the dense engine scan against the map-based one.
        if ck.full && sub_seed(self.seed, 2, k as u64).is_multiple_of(4) {
            let slow = (find_contention(&out.claimed), find_contention(&out.dmodk));
            ck.check(
                slow.0.is_some() == out.claimed_contention.is_some()
                    && slow.1.is_some() == out.dmodk_contention.is_some(),
                || format!("engine scan disagrees with find_contention: {slow:?}"),
            );
        }
        for (fluid, contention) in [
            (&out.claimed_fluid, out.claimed_contention.is_some()),
            (&out.dmodk_fluid, out.dmodk_contention.is_some()),
        ] {
            ck.check(fluid.all_unit_rate != contention, || {
                format!(
                    "{}: fluid all-unit={} but contention={contention}",
                    fluid.router, fluid.all_unit_rate
                )
            });
        }
        ck.begin(&self.congestion_label(), format!("perm{k}-congestion"));
        let best = out.baseline_max[0].min(out.baseline_max[1]);
        match demand_lower_bound(&t.candidates, &out.small_perm, 1) {
            Ok(lower) => ck.check(lower <= out.plan_max && out.plan_max <= best, || {
                format!(
                    "plan max load {} outside [lower bound {lower}, best baseline {best}]",
                    out.plan_max
                )
            }),
            Err(e) => ck.check(false, || format!("lower bound failed: {e}")),
        }
        ck.check(out.plan_max == out.plan_meter_max, || {
            format!(
                "plan reports max load {} but the core meter reads {}",
                out.plan_max, out.plan_meter_max
            )
        });
        for c in [&out.claimed_contention, &out.dmodk_contention] {
            ck.fold(format!("{c:?}"));
        }
        for f in [&out.claimed_fluid, &out.dmodk_fluid] {
            ck.fold(format!(
                "{} {} {:x} {:x} {}",
                f.router,
                f.all_unit_rate,
                f.aggregate_throughput.to_bits(),
                f.worst_rate.to_bits(),
                f.rounds
            ));
        }
        ck.fold(format!(
            "plan {:?} {} {} {}",
            out.baseline_max, out.plan_max, out.moves, out.rounds
        ));
        JobOut {
            secs,
            stream: true,
            ..JobOut::default()
        }
    }

    /// The timed part of a permutation job: every call into the program.
    fn permutation_calls<R: Recorder>(
        &self,
        t: &mut Tables<'_>,
        job_seed: u64,
        rec: &R,
    ) -> Result<PermOut, String> {
        let err = |e: RoutingError| e.to_string();
        let (perm, small_perm) = {
            let _s = rec.span("traffic.gen");
            let mut rng = ChaCha8Rng::seed_from_u64(job_seed);
            rec.add("traffic.patterns", 2);
            (
                patterns::random_full(t.claimed.ports(), &mut rng),
                patterns::random_full(t.small_dmodk.ports(), &mut rng),
            )
        };
        let (claimed, dmodk) = {
            let _s = rec.span("routing.route");
            rec.add("routing.paths_routed", 2 * perm.len() as u64);
            (
                route_all(&t.claimed, &perm).map_err(err)?,
                route_all(&t.dmodk, &perm).map_err(err)?,
            )
        };
        let (claimed_contention, dmodk_contention) = {
            let _s = rec.span("core.scan");
            rec.add("core.patterns_scanned", 2);
            (
                t.scratch.find_contention(&claimed),
                t.scratch.find_contention(&dmodk),
            )
        };
        let (claimed_fluid, dmodk_fluid) = {
            let _s = rec.span("flowsim.solve");
            let fluid_err = |e: ftclos_flowsim::FlowError| e.to_string();
            (
                solve_pattern_with(&t.claimed, "random", &perm, &t.caps, rec).map_err(fluid_err)?,
                solve_pattern_with(&t.dmodk, "random", &perm, &t.caps, rec).map_err(fluid_err)?,
            )
        };
        let (baselines, plan) = {
            let _s = rec.span("routing.congestion_plan");
            rec.add("routing.paths_routed", 2 * small_perm.len() as u64);
            let baselines = [
                route_all(&t.small_dmodk, &small_perm).map_err(err)?,
                route_all(&t.small_smodk, &small_perm).map_err(err)?,
            ];
            let config = CongestionConfig {
                seed: job_seed,
                ..CongestionConfig::default()
            };
            let plan = MinCongestion::with_config(t.candidates, config)
                .plan_seeded_with(&small_perm, &[&baselines[0], &baselines[1]], rec)
                .map_err(err)?;
            (baselines, plan)
        };
        let (baseline_max, plan_meter_max) = {
            let _s = rec.span("core.scan");
            rec.add("core.patterns_scanned", 3);
            let mut max =
                |a: &RouteAssignment| t.small_scratch.max_load_witness(a).map_or(0, |w| w.1);
            (
                [max(&baselines[0]), max(&baselines[1])],
                max(&plan.assignment()),
            )
        };
        Ok(PermOut {
            claimed,
            dmodk,
            claimed_contention,
            dmodk_contention,
            claimed_fluid,
            dmodk_fluid,
            small_perm,
            baseline_max,
            plan_max: plan.max_link_load(),
            plan_meter_max,
            moves: plan.moves(),
            rounds: plan.rounds(),
        })
    }
}

fn fold_two_pair(ck: &mut Checker, outcome: &TwoPairOutcome) {
    match outcome {
        TwoPairOutcome::Blocking(perm) => ck.fold(format!("blocking {:?}", perm.pairs())),
        TwoPairOutcome::Exhausted { paths_covered } => {
            ck.fold(format!("exhausted {paths_covered}"))
        }
        TwoPairOutcome::RoutingFailed(e) => ck.fold(format!("failed {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;

    fn small(claimed: Scheme, m: usize) -> Verify {
        Verify {
            fabric: (4, m, 9),
            congestion_fabric: (4, 2, 9),
            perms: 6,
            claimed,
            ..Verify::new(3)
        }
    }

    #[test]
    fn theorem3_fabric_runs_clean_and_repeats_its_digest() {
        let _cores = crate::harness::exclusive();
        let w = small(Scheme::Yuan, 16);
        let a = run(&w, w.seed, 0.0, false).expect("set-up");
        let b = run(&w, w.seed, 0.0, false).expect("set-up");
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        let other = Verify { seed: 4, ..w };
        assert_ne!(
            run(&other, other.seed, 0.0, false).expect("set-up").digest,
            a.digest
        );
    }

    #[test]
    fn blocking_dmodk_claimed_nonblocking_raises_error_rate() {
        let _cores = crate::harness::exclusive();
        // m = 8 < n² = 16: d-mod-k blocks, so the nonblocking oracles fail.
        let w = small(Scheme::DModK, 8);
        let m = run(&w, w.seed, 0.0, false).expect("set-up");
        assert!(m.failed > 0, "blocking routing passed every oracle");
        assert!(m.failed <= m.attempted);
    }
}
