//! E20 — arena-backed contention engine performance.
//!
//! Measures the optimized engine against the legacy `HashMap` machinery it
//! replaced, on the ISSUE's reference fabric `ftree(4+16, 9)` (36 ports,
//! 1260 cross-switch SD paths, ~794k two-pair patterns for the legacy
//! sweep):
//!
//! * complete two-pair blocking sweep: `find_blocking_two_pair` (engine,
//!   including the arena build) vs `find_blocking_two_pair_legacy`
//!   (re-routes every pattern) — the headline ≥10× speedup;
//! * full-fabric Lemma 1 audits per second: `ContentionEngine::recount` +
//!   `lemma1_violation` vs `LinkAudit::build` + `lemma1_check`;
//! * per-pattern contention checks per second: `ContentionScratch` (dense,
//!   epoch-stamped) vs `verify::find_contention` (fresh `HashMap`);
//! * recording overhead (E21): the engine sweep and audit loop repeated
//!   with a live [`ftclos_obs::Registry`] threaded through the `*_with`
//!   entry points — must stay within 10% of the plain (no-op recorder)
//!   numbers, or CI fails;
//! * peak arena bytes;
//! * verdict-agreement smoke on one blocking and one nonblocking fabric.
//!
//! E22 — channel-dependency deadlock analysis at scale: CDG build + cycle
//! check for Theorem 3 and d-mod-k routing on `ftree(16+256, 625)` (10k
//! ports, 10⁸ SD pairs, 340k directed channels) must prove deadlock freedom
//! (zero valley turns) inside a wall-clock budget, and the valley straw-man
//! must still yield its deterministic witness cycle.
//!
//! E23 — adversarial fault campaigns at scale, on the same 10k-port fabric:
//! exhaustive k = 2 certification of adaptive routability over all 256 top
//! switches, then a 64-wave randomized fault campaign with shrinking, every
//! minimal killer re-verified 1-minimal. Both inside a wall-clock budget.
//!
//! E24 — event-driven packet simulation at scale: the event engine must
//! replay the cycle engine *exactly* (identical `SimStats`, bit for bit) on
//! the 10k-host ftree while clearing ≥10× its simulated host-cycles/sec,
//! then complete the first 100k+ host packet-level run — the recursive
//! three-level construction at n = 18 (110 808 ports) — inside a
//! wall-clock budget the cycle engine cannot even approach.
//!
//! E25 — sparse lazy simulator state + compact topology: fabric cost must
//! scale with *touched* state, not total channels. The recursive n = 24
//! fabric (345 600 hosts, ~415M directed channels) must build + route +
//! simulate end-to-end under the same 120 s budget, reporting the
//! build/route/run split, `Topology::memory_bytes()`, touched channels,
//! paged-state bytes, and process peak RSS; then a first million-host run
//! (`ftree(16+16, 65536)`, 1 048 576 ports) must complete inside its own
//! wall-clock budget. A peak-RSS ceiling turns any return to dense
//! `vec![...; num_channels]` state into a CI failure instead of an OOM.
//!
//! E26 — min-congestion unsplittable routing head-to-head on the 10k-host
//! fabric: for every pattern of the standard adversarial suite, the
//! repaired `MinCongestion` plan — warm-started from every exact baseline
//! assignment — must match or beat the best of Theorem 3, d-mod-k,
//! s-mod-k, and NONBLOCKINGADAPTIVE on max link load (measured by the
//! core engine's epoch-stamped load scratch, same meter for every row);
//! then on a faulted fabric (one dead top switch) it must *strictly* beat
//! fault-aware d-mod-k, all inside a wall-clock budget.
//!
//! Results land in `BENCH_core.json` (one key per line, stable key order)
//! next to the working directory for CI artifact upload. Exits nonzero when
//! any claim — including the ≥10× speedup — fails.

use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_core::search::{find_blocking_two_pair, find_blocking_two_pair_legacy};
use ftclos_core::verify::{find_contention, LinkAudit};
use ftclos_core::{
    cable_universe, cdg_of_router, certify_exhaustive, run_randomized, top_switch_universe,
    AdaptiveRoutability, CampaignConfig, CampaignError, CampaignProperty, ContentionEngine,
    ContentionScratch, FaultElement, ValleyRouter,
};
use ftclos_flowsim::standard_suite;
use ftclos_obs::json::{Json, Obj};
use ftclos_obs::Registry;
use ftclos_routing::{
    route_all, CongestionConfig, DModK, FaultAware, FtreeCandidates, MinCongestion,
    NonblockingAdaptive, PathArena, PatternRouter, RouteAssignment, RoutingError, SModK,
    YuanDeterministic, YuanRecursive,
};
use ftclos_sim::{EventSimulator, Policy, SimConfig, SimError, Simulator, Workload};
use ftclos_topo::{FaultSet, FaultyView, Ftree, RecursiveNonblocking, TopoError};
use ftclos_traffic::patterns;
use rand::SeedableRng;
use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

/// Everything that can stop the benchmark before a verdict: these are
/// setup failures (bad fabric parameters, unroutable reference pattern,
/// result-file I/O), not performance regressions, so they carry their own
/// type instead of panicking mid-measurement.
#[derive(Debug)]
enum BenchError {
    /// Building a reference fabric failed.
    Topo(TopoError),
    /// Routing on a reference fabric failed.
    Routing(RoutingError),
    /// The E23 fault campaign aborted (checkpoint/resume plumbing).
    Campaign(CampaignError),
    /// An E24 packet-level simulation failed (setup or stall, not perf).
    Sim(SimError),
    /// Writing `BENCH_core.json` failed.
    Io(std::io::Error),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Topo(e) => write!(f, "fabric construction failed: {e}"),
            BenchError::Routing(e) => write!(f, "reference routing failed: {e}"),
            BenchError::Campaign(e) => write!(f, "fault campaign aborted: {e}"),
            BenchError::Sim(e) => write!(f, "packet-level simulation failed: {e}"),
            BenchError::Io(e) => write!(f, "cannot write BENCH_core.json: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<TopoError> for BenchError {
    fn from(e: TopoError) -> Self {
        BenchError::Topo(e)
    }
}

impl From<RoutingError> for BenchError {
    fn from(e: RoutingError) -> Self {
        BenchError::Routing(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl From<CampaignError> for BenchError {
    fn from(e: CampaignError) -> Self {
        BenchError::Campaign(e)
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

/// Wall-clock of one call, in seconds.
fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Best (minimum) wall-clock of `reps` calls, in seconds.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut out) = time_once(&mut f);
    for _ in 1..reps {
        let (t, o) = time_once(&mut f);
        if t < best {
            best = t;
            out = o;
        }
    }
    (best, out)
}

/// Peak resident set of this process (`VmHWM`) in MiB, from
/// `/proc/self/status`. `None` off Linux — the RSS gate then reports null
/// and does not vote.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024)
}

/// Exact max link load of an assignment, by the core engine's
/// epoch-stamped scratch (0 for an assignment that crosses no channels).
fn scratch_max(scratch: &mut ContentionScratch, asg: &RouteAssignment) -> u32 {
    scratch.max_load_witness(asg).map_or(0, |(_, m)| m)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("coreperf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<bool, BenchError> {
    let mut all_ok = true;

    banner(
        "E20",
        "arena-backed contention engine vs legacy HashMap sweeps",
    );
    let (n, m, r) = (4usize, 16usize, 9usize);
    let ft = Ftree::new(n, m, r)?;
    let yuan = YuanDeterministic::new(&ft)?;
    result_line("fabric", format!("ftree({n}+{m}, {r})"));
    result_line("ports", n * r);

    // Headline: the complete two-pair blocking sweep. The Yuan routing is
    // nonblocking, so both sweeps must scan their whole search space — the
    // legacy loop re-routes ~794k two-pair patterns, the engine routes 1260
    // paths once and scans channels.
    let (legacy_sweep_s, legacy_out) = time_once(|| find_blocking_two_pair_legacy(&yuan));
    all_ok &= verdict(
        legacy_out.is_nonblocking(),
        "legacy sweep: ftree(4+16, 9) with Theorem 3 routing is nonblocking",
    );
    let (engine_sweep_s, engine_out) = time_best(5, || find_blocking_two_pair(&yuan));
    all_ok &= verdict(
        engine_out.is_nonblocking(),
        "engine sweep: same fabric, same verdict",
    );
    let speedup = legacy_sweep_s / engine_sweep_s;
    result_line(
        "legacy_two_pair_sweep_ms",
        format!("{:.3}", legacy_sweep_s * 1e3),
    );
    result_line(
        "engine_two_pair_sweep_ms",
        format!("{:.3}", engine_sweep_s * 1e3),
    );
    result_line("speedup", format!("{speedup:.1}x"));
    all_ok &= verdict(speedup >= 10.0, "engine two-pair sweep is >= 10x faster");

    // Full-fabric Lemma 1 audits per second.
    let audit_reps = 20usize;
    let (legacy_audit_s, _) = time_best(3, || {
        for _ in 0..audit_reps {
            let audit = LinkAudit::build(&yuan);
            assert!(audit.lemma1_check(&yuan).is_ok());
        }
    });
    let mut engine = ContentionEngine::new(&yuan)?;
    let (engine_audit_s, _) = time_best(3, || {
        for _ in 0..audit_reps {
            engine.recount();
            assert!(engine.lemma1_violation().is_none());
        }
    });
    let legacy_audits_per_sec = audit_reps as f64 / legacy_audit_s;
    let engine_audits_per_sec = audit_reps as f64 / engine_audit_s;
    result_line(
        "legacy_audits_per_sec",
        format!("{legacy_audits_per_sec:.0}"),
    );
    result_line(
        "engine_audits_per_sec",
        format!("{engine_audits_per_sec:.0}"),
    );

    // E21 — recording overhead. The plain entry points above already route
    // through the no-op recorder (monomorphized away); here the same work
    // runs with a live Registry accumulating spans and counters. The E20
    // speedup claim must not quietly erode when users pass `--trace`.
    let reg = Registry::new();
    let (recorded_build_s, recorded_clean) = time_best(5, || {
        ContentionEngine::new_with(&yuan, &reg).map(|e| e.lemma1_violation_with(&reg).is_none())
    });
    all_ok &= verdict(
        recorded_clean?,
        "recorded engine: same nonblocking verdict under a live recorder",
    );
    let (plain_build_s, plain_clean) = time_best(5, || {
        ContentionEngine::new(&yuan).map(|e| e.lemma1_violation().is_none())
    });
    let _ = plain_clean?;
    let overhead_pct = 100.0 * (recorded_build_s / plain_build_s - 1.0);
    result_line(
        "plain_build_audit_ms",
        format!("{:.3}", plain_build_s * 1e3),
    );
    result_line(
        "recorded_build_audit_ms",
        format!("{:.3}", recorded_build_s * 1e3),
    );
    result_line("record_overhead_pct", format!("{overhead_pct:.1}"));
    all_ok &= verdict(
        overhead_pct < 10.0,
        "live recording keeps build+audit within 10% of plain",
    );
    let snap = reg.snapshot();
    all_ok &= verdict(
        snap.counter("engine.channels_scanned").unwrap_or(0) > 0
            && snap.spans.iter().any(|s| s.path == "arena.build"),
        "recorded runs populated spans and counters",
    );

    // Per-pattern contention checks per second, over pre-routed random
    // permutations (the hot shape in sweeps and fault sims).
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
    let perms: Vec<_> = (0..200)
        .map(|_| patterns::random_full((n * r) as u32, &mut rng))
        .collect();
    let mut assignments = Vec::with_capacity(perms.len());
    for perm in &perms {
        assignments.push(route_all(&yuan, perm)?);
    }
    let (legacy_pat_s, _) = time_best(3, || {
        for a in &assignments {
            assert!(find_contention(a).is_none());
        }
    });
    let mut scratch = ContentionScratch::with_channels(ft.topology().num_channels());
    let (engine_pat_s, _) = time_best(3, || {
        for a in &assignments {
            assert!(scratch.find_contention(a).is_none());
        }
    });
    let legacy_patterns_per_sec = assignments.len() as f64 / legacy_pat_s;
    let engine_patterns_per_sec = assignments.len() as f64 / engine_pat_s;
    result_line(
        "legacy_patterns_per_sec",
        format!("{legacy_patterns_per_sec:.0}"),
    );
    result_line(
        "engine_patterns_per_sec",
        format!("{engine_patterns_per_sec:.0}"),
    );

    let arena_bytes = PathArena::build(&yuan)?.bytes();
    result_line("arena_bytes", arena_bytes);

    // Agreement smoke: one blocking and one nonblocking fabric, engine and
    // legacy must concur (the full differential lives in the proptests).
    let small = Ftree::new(2, 2, 5)?;
    let dmodk = DModK::new(&small);
    let blocking_agree = find_blocking_two_pair(&dmodk).found_blocking()
        && find_blocking_two_pair_legacy(&dmodk).found_blocking();
    all_ok &= verdict(
        blocking_agree,
        "smoke: both sweeps find blocking on ftree(2+2, 5) d-mod-k",
    );
    let clean = Ftree::new(2, 4, 5)?;
    let clean_yuan = YuanDeterministic::new(&clean)?;
    let clean_agree = find_blocking_two_pair(&clean_yuan).is_nonblocking()
        && find_blocking_two_pair_legacy(&clean_yuan).is_nonblocking();
    all_ok &= verdict(
        clean_agree,
        "smoke: both sweeps clear ftree(2+4, 5) Theorem 3 routing",
    );

    // E22 — channel-dependency deadlock analysis at scale. The CDG
    // extractor walks all 10⁸ SD pairs of a 10k-port fabric and the cycle
    // check (Tarjan over 340k channels) must still fit interactive budgets.
    banner("E22", "channel-dependency deadlock analysis at scale");
    let (bn, bm, br) = (16usize, 256usize, 625usize);
    let big = Ftree::new(bn, bm, br)?;
    result_line("cdg_fabric", format!("ftree({bn}+{bm}, {br})"));
    result_line("cdg_ports", bn * br);
    result_line("cdg_channels", big.topology().num_channels());
    let big_yuan = YuanDeterministic::new(&big)?;
    let (yuan_cdg_s, yuan_analysis) =
        time_once(|| cdg_of_router(big.topology(), &big_yuan).check());
    result_line("yuan_cdg_deps", yuan_analysis.num_deps);
    result_line("yuan_cdg_build_check_s", format!("{yuan_cdg_s:.3}"));
    all_ok &= verdict(
        yuan_analysis.is_free() && yuan_analysis.valley_turns == 0,
        "Theorem 3 routing on ftree(16+256, 625) is deadlock-free, no valleys",
    );
    let big_dmodk = DModK::new(&big);
    let (dmodk_cdg_s, dmodk_analysis) =
        time_once(|| cdg_of_router(big.topology(), &big_dmodk).check());
    result_line("dmodk_cdg_deps", dmodk_analysis.num_deps);
    result_line("dmodk_cdg_build_check_s", format!("{dmodk_cdg_s:.3}"));
    all_ok &= verdict(
        dmodk_analysis.is_free() && dmodk_analysis.valley_turns == 0,
        "d-mod-k routing on ftree(16+256, 625) is deadlock-free, no valleys",
    );
    // ~7 s per router on a developer machine; the budget leaves room for a
    // slow 2-core CI runner while a complexity regression (the walk going
    // quadratic in path length, or the bitmap union serializing) still
    // trips the gate.
    const E22_BUDGET_S: f64 = 120.0;
    all_ok &= verdict(
        yuan_cdg_s < E22_BUDGET_S && dmodk_cdg_s < E22_BUDGET_S,
        "CDG build + cycle check stays under the 120 s budget",
    );
    // Witness smoke: the intentionally broken valley router must be caught
    // with the full-length deterministic cycle the injection harness pins.
    let vft = Ftree::new(1, 1, 4)?;
    let valley_analysis = cdg_of_router(vft.topology(), &ValleyRouter::new(&vft)).check();
    let valley_witness_len = valley_analysis.verdict.witness().map_or(0, <[_]>::len);
    result_line("valley_witness_len", valley_witness_len);
    let valley_caught = !valley_analysis.is_free() && valley_witness_len == 8;
    all_ok &= verdict(
        valley_caught,
        "valley straw-man on ftree(1+1, 4) yields its 8-channel witness",
    );

    // E23 — adversarial fault campaigns at scale, on the same 10k-port
    // fabric: (a) exhaustive k = 2 certification of adaptive routability
    // over all 256 top switches (32 897 fault sets, closed-form judge), and
    // (b) a 64-wave randomized campaign (16 sets per wave, 2 cable + 1 top
    // switch faults each) with every killer delta-debugged to a 1-minimal
    // core, re-verified here against the property.
    banner("E23", "adversarial fault campaigns at scale");
    let routability = AdaptiveRoutability::new(&big);
    let tops: Vec<FaultElement> = top_switch_universe(big.topology())
        .into_iter()
        .map(FaultElement::Switch)
        .collect();
    let (e23_certify_s, cert) = time_once(|| certify_exhaustive(&routability, &tops, 2));
    result_line("e23_certify_sets", cert.sets_total);
    result_line("e23_certify_s", format!("{e23_certify_s:.3}"));
    all_ok &= verdict(
        cert.certified() && cert.sets_total == 32_897,
        "routability on ftree(16+256, 625) certified 2-fault tolerant over all 256 tops",
    );
    let campaign_cfg = CampaignConfig {
        seed: SEED,
        waves: 64,
        wave_size: 16,
        links_per_set: 2,
        switches_per_set: 1,
        shrink: true,
    };
    let cables = cable_universe(big.topology());
    let top_ids = top_switch_universe(big.topology());
    let (e23_campaign_s, report) =
        time_once(|| run_randomized(&routability, &cables, &top_ids, &campaign_cfg, None));
    let report = report?;
    result_line("e23_sets_evaluated", report.sets_evaluated);
    result_line("e23_killers", report.killers.len());
    result_line("e23_campaign_s", format!("{e23_campaign_s:.3}"));
    all_ok &= verdict(
        report.waves_done == campaign_cfg.waves && !report.killers.is_empty(),
        "randomized campaign completes 64 waves and surfaces killers",
    );
    // Re-verify every shrunk killer independently: it must still violate
    // the property, and dropping any single fault must restore it.
    let mut e23_shrink_ok = true;
    for k in &report.killers {
        let min = k.minimal.as_ref().unwrap_or(&k.faults);
        e23_shrink_ok &= !routability.judge(min).holds;
        for i in 0..min.len() {
            e23_shrink_ok &= routability.judge(&min.without(i)).holds;
        }
    }
    let crit = report.criticality();
    result_line("e23_minimal_killers", crit.minimal_killers);
    all_ok &= verdict(
        e23_shrink_ok && crit.minimal_killers > 0,
        "every shrunk killer is 1-minimal (violates; every single removal restores)",
    );
    // Certification walks ~33k closed-form judgements in parallel; the
    // campaign adds 1024 drawn sets plus shrink evaluations. Both are
    // sub-second on a developer machine — the budget flags an accidental
    // return to per-judgement arena rebuilds while tolerating slow CI.
    const E23_BUDGET_S: f64 = 60.0;
    all_ok &= verdict(
        e23_certify_s < E23_BUDGET_S && e23_campaign_s < E23_BUDGET_S,
        "certification and campaign each stay under the 60 s budget",
    );

    // E24 — event-driven packet simulation at scale. The cycle engine scans
    // every switch output every cycle (the 10k-port ftree has 340k
    // channels), so its simulated host-cycles/sec collapses with fabric
    // size; the event engine only touches components with pending work and
    // must replay the cycle engine's semantics exactly — the full
    // `SimStats`, per-channel busy vector included — while clearing ≥10×
    // the host-cycles/sec on the same run.
    banner(
        "E24",
        "event-driven simulator: 10k-host differential, 100k-host run",
    );
    let e24_hosts = bn * br;
    let e24_cfg = SimConfig {
        warmup_cycles: 5,
        measure_cycles: 15,
        ..SimConfig::default()
    };
    let e24_cycles = e24_cfg.warmup_cycles + e24_cfg.measure_cycles;
    let e24_perm = patterns::shift(e24_hosts as u32, 3);
    let e24_routes = route_all(&big_yuan, &e24_perm)?;
    let e24_policy = Policy::from_assignment(&e24_routes);
    let e24_w = Workload::permutation(&e24_perm, 0.05);
    result_line("e24_fabric", format!("ftree({bn}+{bm}, {br})"));
    result_line("e24_hosts", e24_hosts);
    result_line("e24_cycles", e24_cycles);
    let (e24_cycle_s, cycle_stats) = time_once(|| {
        Simulator::new(big.topology(), e24_cfg, e24_policy.clone()).try_run(&e24_w, SEED)
    });
    let cycle_stats = cycle_stats?;
    let (e24_event_s, event_stats) = time_once(|| {
        EventSimulator::new(big.topology(), e24_cfg, e24_policy.clone()).try_run(&e24_w, SEED)
    });
    let event_stats = event_stats?;
    let e24_agree = cycle_stats == event_stats;
    all_ok &= verdict(
        e24_agree,
        "event engine replays the cycle engine exactly at 10k hosts",
    );
    all_ok &= verdict(
        event_stats.delivered_total > 0 && event_stats.conservation_ok(),
        "10k-host run delivers packets and conserves them",
    );
    let e24_cycle_hcs = e24_hosts as f64 * e24_cycles as f64 / e24_cycle_s;
    let e24_event_hcs = e24_hosts as f64 * e24_cycles as f64 / e24_event_s;
    let e24_speedup = e24_event_hcs / e24_cycle_hcs;
    result_line("e24_cycle_engine_s", format!("{e24_cycle_s:.3}"));
    result_line("e24_event_engine_s", format!("{e24_event_s:.3}"));
    result_line(
        "e24_cycle_host_cycles_per_sec",
        format!("{e24_cycle_hcs:.0}"),
    );
    result_line(
        "e24_event_host_cycles_per_sec",
        format!("{e24_event_hcs:.0}"),
    );
    result_line("e24_speedup", format!("{e24_speedup:.1}x"));
    all_ok &= verdict(
        e24_speedup >= 10.0,
        "event engine clears >= 10x the cycle engine's host-cycles/sec",
    );

    // First packet-level run at the north star's scale: the recursive
    // three-level construction at n = 18 exposes n⁴ + n³ = 110 808 host
    // ports. Build + route + simulate must fit the same class of budget as
    // E22; the cycle engine cannot even start here (its per-cycle channel
    // scan alone would dwarf the budget).
    let (e24_build_s, net) = time_once(|| RecursiveNonblocking::new(18));
    let net = net?;
    let r_hosts = net.num_leaves();
    let r_perm = patterns::shift(r_hosts as u32, 7);
    let (e24_route_s, r_routes) = time_once(|| route_all(&YuanRecursive::new(&net), &r_perm));
    let r_routes = r_routes?;
    let r_w = Workload::permutation(&r_perm, 0.02);
    let mut r_sim =
        EventSimulator::new(net.topology(), e24_cfg, Policy::from_assignment(&r_routes));
    let (e24_run_s, r_stats) = time_once(|| r_sim.try_run(&r_w, SEED));
    let r_stats = r_stats?;
    let e24_arena = r_sim.into_arena();
    let e24_topo_bytes = net.topology().memory_bytes();
    let e24_touched = e24_arena.touched_channels();
    let e24_recursive_s = e24_build_s + e24_route_s + e24_run_s;
    let e24_recursive_hcs = r_hosts as f64 * e24_cycles as f64 / e24_run_s;
    result_line("e24_recursive_hosts", r_hosts);
    result_line("e24_recursive_channels", net.topology().num_channels());
    result_line("e24_recursive_topo_bytes", e24_topo_bytes);
    result_line("e24_recursive_touched_channels", e24_touched);
    result_line("e24_recursive_build_s", format!("{e24_build_s:.3}"));
    result_line("e24_recursive_route_s", format!("{e24_route_s:.3}"));
    result_line("e24_recursive_run_s", format!("{e24_run_s:.3}"));
    result_line(
        "e24_recursive_host_cycles_per_sec",
        format!("{e24_recursive_hcs:.0}"),
    );
    all_ok &= verdict(
        r_hosts > 100_000,
        "recursive n=18 fabric exposes more than 100k host ports",
    );
    all_ok &= verdict(
        r_stats.delivered_total > 0 && r_stats.conservation_ok(),
        "100k-host event run delivers packets and conserves them",
    );
    const E24_BUDGET_S: f64 = 120.0;
    all_ok &= verdict(
        e24_recursive_s < E24_BUDGET_S,
        "100k-host build + route + simulate stays under the 120 s budget",
    );

    // E25 — sparse lazy simulator state. The n = 24 recursive fabric has
    // ~415M directed channels; dense per-channel state (queues, pointers,
    // wires, liveness) would need tens of gigabytes before the first packet
    // moves. With the paged arena only pages a packet actually crosses
    // materialize, so the same end-to-end budget that covered 110k hosts in
    // E24 must now cover 345k — and the per-channel busy vector, also
    // paged, keeps `SimStats` bit-identical to the dense engines (the
    // differential suites above are the proof; this gate is the scale).
    banner(
        "E25",
        "sparse lazy state: 345k-host gate, first million-host run",
    );
    let (e25_build_s, net24) = time_once(|| RecursiveNonblocking::new(24));
    let net24 = net24?;
    let e25_hosts = net24.num_leaves();
    let e25_channels = net24.topology().num_channels();
    let e25_topo_bytes = net24.topology().memory_bytes();
    result_line("e25_fabric", "recursive(24)");
    result_line("e25_hosts", e25_hosts);
    result_line("e25_channels", e25_channels);
    result_line("e25_topo_bytes", e25_topo_bytes);
    let e25_perm = patterns::shift(e25_hosts as u32, 11);
    let (e25_route_s, e25_routes) = time_once(|| route_all(&YuanRecursive::new(&net24), &e25_perm));
    let e25_routes = e25_routes?;
    let e25_w = Workload::permutation(&e25_perm, 0.02);
    // Recorded run: the touched-state gauges ride the same `--trace`
    // plumbing users see, and recording is differentially proven not to
    // perturb the run.
    let e25_reg = Registry::new();
    let mut e25_sim = EventSimulator::new(
        net24.topology(),
        e24_cfg,
        Policy::from_assignment(&e25_routes),
    );
    let (e25_run_s, e25_stats) = time_once(|| e25_sim.try_run_recorded(&e25_w, SEED, &e25_reg));
    let e25_stats = e25_stats?;
    let e25_snap = e25_reg.snapshot();
    let e25_touched = e25_snap.gauge("evsim.touched_channels").unwrap_or(0);
    let e25_state_bytes = e25_snap.gauge("evsim.state_bytes").unwrap_or(0);
    let e25_total_s = e25_build_s + e25_route_s + e25_run_s;
    result_line("e25_build_s", format!("{e25_build_s:.3}"));
    result_line("e25_route_s", format!("{e25_route_s:.3}"));
    result_line("e25_run_s", format!("{e25_run_s:.3}"));
    result_line("e25_touched_channels", e25_touched);
    result_line("e25_state_bytes", e25_state_bytes);
    all_ok &= verdict(
        e25_hosts > 331_000,
        "recursive n=24 fabric exposes more than 331k host ports",
    );
    all_ok &= verdict(
        e25_stats.delivered_total > 0 && e25_stats.conservation_ok(),
        "345k-host event run delivers packets and conserves them",
    );
    all_ok &= verdict(
        e25_touched > 0 && e25_touched < (e25_channels as u64) / 10,
        "paged arena touches fewer than a tenth of the channels",
    );
    const E25_BUDGET_S: f64 = 120.0;
    all_ok &= verdict(
        e25_total_s < E25_BUDGET_S,
        "345k-host build + route + simulate stays under the 120 s budget",
    );

    // First million-host packet run. A two-level ftree carries the port
    // count with far fewer switches than recursive n >= 35 would need, so
    // it is the cheapest fabric exposing 2^20 hosts; d-mod-k keeps routing
    // closed-form at this scale.
    let (mn, mm, mr) = (16usize, 16usize, 65_536usize);
    let (e25m_build_s, mft) = time_once(|| Ftree::new(mn, mm, mr));
    let mft = mft?;
    let m_hosts = mn * mr;
    let m_channels = mft.topology().num_channels();
    result_line("e25_million_fabric", format!("ftree({mn}+{mm}, {mr})"));
    result_line("e25_million_hosts", m_hosts);
    result_line("e25_million_channels", m_channels);
    result_line("e25_million_topo_bytes", mft.topology().memory_bytes());
    let m_perm = patterns::shift(m_hosts as u32, 13);
    let (e25m_route_s, m_routes) = time_once(|| route_all(&DModK::new(&mft), &m_perm));
    let m_routes = m_routes?;
    let m_w = Workload::permutation(&m_perm, 0.01);
    let mut m_sim =
        EventSimulator::new(mft.topology(), e24_cfg, Policy::from_assignment(&m_routes));
    let (e25m_run_s, m_stats) = time_once(|| m_sim.try_run(&m_w, SEED));
    let m_stats = m_stats?;
    let m_touched = m_sim.into_arena().touched_channels();
    let e25m_total_s = e25m_build_s + e25m_route_s + e25m_run_s;
    result_line("e25_million_build_s", format!("{e25m_build_s:.3}"));
    result_line("e25_million_route_s", format!("{e25m_route_s:.3}"));
    result_line("e25_million_run_s", format!("{e25m_run_s:.3}"));
    result_line("e25_million_touched_channels", m_touched);
    all_ok &= verdict(m_hosts >= 1 << 20, "fabric exposes at least 2^20 hosts");
    all_ok &= verdict(
        m_stats.delivered_total > 0 && m_stats.conservation_ok(),
        "million-host event run delivers packets and conserves them",
    );
    const E25_MILLION_BUDGET_S: f64 = 300.0;
    all_ok &= verdict(
        e25m_total_s < E25_MILLION_BUDGET_S,
        "million-host build + route + simulate stays under the 300 s budget",
    );
    // Peak RSS over the whole process — every fabric above included. Dense
    // per-channel state at n = 24 alone would add ~25 GiB; tripping this
    // ceiling in CI is the designed failure mode for such a regression.
    let e25_peak_rss = peak_rss_mib();
    const E25_PEAK_RSS_MIB: u64 = 24_576;
    match e25_peak_rss {
        Some(mib) => {
            result_line("e25_peak_rss_mib", mib);
            all_ok &= verdict(
                mib < E25_PEAK_RSS_MIB,
                "process peak RSS stays under the 24 GiB ceiling",
            );
        }
        None => result_line("e25_peak_rss_mib", "unavailable"),
    }

    // E26 — min-congestion unsplittable routing head-to-head at scale, on
    // the same 10k-port fabric E22–E24 exercise. Every pattern of the
    // standard adversarial suite is placed by each exact baseline router
    // and by the repaired `MinCongestion` solver warm-started from those
    // baselines; the warm start makes "repaired <= every projectable
    // baseline" a construction invariant, so this gate is really checking
    // that the plan's own bookkeeping, the projection, and the core
    // engine's independent load meter all agree at 10k hosts.
    banner(
        "E26",
        "min-congestion router head-to-head on the 10k-host fabric",
    );
    let e26_t0 = Instant::now();
    let e26_hosts = bn * br;
    let e26_suite = standard_suite(e26_hosts as u32);
    let big_smodk = SModK::new(&big);
    let big_adaptive = NonblockingAdaptive::new(&big)?;
    let e26_config = CongestionConfig::default();
    let mut e26_scratch = ContentionScratch::with_channels(big.topology().num_channels());
    let mut e26_pristine_ok = true;
    let mut e26_meter_agrees = true;
    let mut e26_repaired_worst = 0u32;
    let mut e26_moves_total = 0u64;
    let mut e26_rounds_total = 0u64;
    result_line("e26_fabric", format!("ftree({bn}+{bm}, {br})"));
    result_line("e26_patterns", e26_suite.len());
    for (pname, perm) in &e26_suite {
        let yuan_asg = route_all(&big_yuan, perm)?;
        let dmodk_asg = route_all(&big_dmodk, perm)?;
        let smodk_asg = route_all(&big_smodk, perm)?;
        let adaptive_asg = big_adaptive.route_pattern(perm)?;
        let yuan_max = scratch_max(&mut e26_scratch, &yuan_asg);
        let dmodk_max = scratch_max(&mut e26_scratch, &dmodk_asg);
        let smodk_max = scratch_max(&mut e26_scratch, &smodk_asg);
        let adaptive_max = scratch_max(&mut e26_scratch, &adaptive_asg);
        let seeds = [&yuan_asg, &dmodk_asg, &smodk_asg, &adaptive_asg];
        let router = MinCongestion::with_config(FtreeCandidates::pristine(&big), e26_config);
        let plan = router.plan_seeded(perm, &seeds)?;
        let repaired_max = scratch_max(&mut e26_scratch, &plan.assignment());
        result_line(
            &format!("e26_{pname}"),
            format!(
                "yuan={yuan_max} dmodk={dmodk_max} smodk={smodk_max} \
                 adaptive={adaptive_max} repaired={repaired_max}"
            ),
        );
        let baseline_best = yuan_max.min(dmodk_max).min(smodk_max).min(adaptive_max);
        e26_pristine_ok &= repaired_max <= baseline_best;
        e26_meter_agrees &= repaired_max == plan.max_link_load();
        e26_repaired_worst = e26_repaired_worst.max(repaired_max);
        e26_moves_total += plan.moves();
        e26_rounds_total += plan.rounds();
    }
    result_line("e26_repaired_worst_max_load", e26_repaired_worst);
    result_line("e26_moves_total", e26_moves_total);
    result_line("e26_rounds_total", e26_rounds_total);
    all_ok &= verdict(
        e26_pristine_ok,
        "repaired min-congestion <= every exact baseline on every pristine pattern",
    );
    all_ok &= verdict(
        e26_meter_agrees,
        "plan bookkeeping agrees with the core engine's load meter",
    );

    // Faulted scenario: kill one top switch. d-mod-k's residue classes no
    // longer spread — the fault-aware reroute piles the dead top's flows
    // onto surviving up-channels that already carry one flow each — while
    // the solver plans over the surviving candidate set from scratch.
    let mut e26_faults = FaultSet::new();
    e26_faults.fail_switch(big.top(0));
    let e26_view = FaultyView::new(big.topology(), &e26_faults);
    let e26_fperm = patterns::shift(e26_hosts as u32, 3);
    let e26_dmodk_faulted: Option<u32> = FaultAware::new(DModK::new(&big), &e26_view)
        .route_pattern_checked(&e26_fperm)
        .ok()
        .map(|asg| scratch_max(&mut e26_scratch, &asg));
    let e26_frouter =
        MinCongestion::with_config(FtreeCandidates::masked(&big, &e26_view), e26_config);
    let e26_fplan = e26_frouter.plan_seeded(&e26_fperm, &[])?;
    let e26_repaired_faulted = scratch_max(&mut e26_scratch, &e26_fplan.assignment());
    result_line(
        "e26_faulted_dmodk_max_load",
        e26_dmodk_faulted.map_or_else(|| "unroutable".to_string(), |v| v.to_string()),
    );
    result_line("e26_faulted_repaired_max_load", e26_repaired_faulted);
    // An unroutable d-mod-k counts as strictly worse than any placement.
    let e26_faulted_strict = e26_dmodk_faulted.is_none_or(|d| e26_repaired_faulted < d);
    all_ok &= verdict(
        e26_faulted_strict,
        "repaired strictly beats fault-aware d-mod-k with one dead top switch",
    );
    let e26_s = e26_t0.elapsed().as_secs_f64();
    result_line("e26_s", format!("{e26_s:.3}"));
    // ~7 plan calls over 2.56M candidate paths each; sub-10 s on a
    // developer machine. The budget trips if candidate collection or the
    // repair loop goes superlinear while still tolerating slow CI.
    const E26_BUDGET_S: f64 = 60.0;
    all_ok &= verdict(
        e26_s < E26_BUDGET_S,
        "head-to-head sweep stays under the 60 s budget",
    );

    // Machine-readable record for CI: one key per line, stable key order.
    let json = Obj::new()
        .field("experiment", "E20")
        .field("fabric", format!("ftree({n}+{m}, {r})"))
        .field("ports", n * r)
        .field(
            "legacy_two_pair_sweep_ms",
            Json::Fixed(legacy_sweep_s * 1e3, 6),
        )
        .field(
            "engine_two_pair_sweep_ms",
            Json::Fixed(engine_sweep_s * 1e3, 6),
        )
        .field("speedup", Json::Fixed(speedup, 6))
        .field(
            "legacy_audits_per_sec",
            Json::Fixed(legacy_audits_per_sec, 6),
        )
        .field(
            "engine_audits_per_sec",
            Json::Fixed(engine_audits_per_sec, 6),
        )
        .field(
            "legacy_patterns_per_sec",
            Json::Fixed(legacy_patterns_per_sec, 6),
        )
        .field(
            "engine_patterns_per_sec",
            Json::Fixed(engine_patterns_per_sec, 6),
        )
        .field("plain_build_audit_ms", Json::Fixed(plain_build_s * 1e3, 6))
        .field(
            "recorded_build_audit_ms",
            Json::Fixed(recorded_build_s * 1e3, 6),
        )
        .field("record_overhead_pct", Json::Fixed(overhead_pct, 6))
        .field("arena_bytes", arena_bytes)
        .field("smoke_blocking_agree", blocking_agree)
        .field("smoke_nonblocking_agree", clean_agree)
        .field("e22_cdg_fabric", format!("ftree({bn}+{bm}, {br})"))
        .field("e22_yuan_cdg_deps", yuan_analysis.num_deps)
        .field("e22_yuan_cdg_build_check_s", Json::Fixed(yuan_cdg_s, 6))
        .field("e22_dmodk_cdg_deps", dmodk_analysis.num_deps)
        .field("e22_dmodk_cdg_build_check_s", Json::Fixed(dmodk_cdg_s, 6))
        .field(
            "e22_deadlock_free",
            yuan_analysis.is_free() && dmodk_analysis.is_free(),
        )
        .field("e22_valley_witness_len", valley_witness_len)
        .field("e23_certified", cert.certified())
        .field("e23_certify_sets", cert.sets_total)
        .field("e23_certify_s", Json::Fixed(e23_certify_s, 6))
        .field("e23_sets_evaluated", report.sets_evaluated)
        .field("e23_killers", report.killers.len())
        .field("e23_minimal_killers", crit.minimal_killers)
        .field("e23_shrink_ok", e23_shrink_ok)
        .field("e23_campaign_s", Json::Fixed(e23_campaign_s, 6))
        .field("e24_hosts", e24_hosts)
        .field("e24_cycles", e24_cycles)
        .field("e24_stats_agree", e24_agree)
        .field("e24_cycle_engine_s", Json::Fixed(e24_cycle_s, 6))
        .field("e24_event_engine_s", Json::Fixed(e24_event_s, 6))
        .field(
            "e24_cycle_host_cycles_per_sec",
            Json::Fixed(e24_cycle_hcs, 6),
        )
        .field(
            "e24_event_host_cycles_per_sec",
            Json::Fixed(e24_event_hcs, 6),
        )
        .field("e24_speedup", Json::Fixed(e24_speedup, 6))
        .field("e24_recursive_hosts", r_hosts)
        .field("e24_recursive_topo_bytes", e24_topo_bytes)
        .field("e24_recursive_touched_channels", e24_touched)
        .field("e24_recursive_build_s", Json::Fixed(e24_build_s, 6))
        .field("e24_recursive_route_s", Json::Fixed(e24_route_s, 6))
        .field("e24_recursive_run_s", Json::Fixed(e24_run_s, 6))
        .field(
            "e24_recursive_host_cycles_per_sec",
            Json::Fixed(e24_recursive_hcs, 6),
        )
        .field("e25_hosts", e25_hosts)
        .field("e25_channels", e25_channels)
        .field("e25_topo_bytes", e25_topo_bytes)
        .field("e25_build_s", Json::Fixed(e25_build_s, 6))
        .field("e25_route_s", Json::Fixed(e25_route_s, 6))
        .field("e25_run_s", Json::Fixed(e25_run_s, 6))
        .field("e25_touched_channels", e25_touched)
        .field("e25_state_bytes", e25_state_bytes)
        .field("e25_million_hosts", m_hosts)
        .field("e25_million_channels", m_channels)
        .field("e25_million_build_s", Json::Fixed(e25m_build_s, 6))
        .field("e25_million_route_s", Json::Fixed(e25m_route_s, 6))
        .field("e25_million_run_s", Json::Fixed(e25m_run_s, 6))
        .field("e25_million_touched_channels", m_touched)
        .field("e25_peak_rss_mib", e25_peak_rss)
        .field("e26_patterns", e26_suite.len())
        .field("e26_pristine_ok", e26_pristine_ok)
        .field("e26_meter_agrees", e26_meter_agrees)
        .field("e26_repaired_worst_max_load", e26_repaired_worst)
        .field("e26_moves_total", e26_moves_total)
        .field("e26_rounds_total", e26_rounds_total)
        .field("e26_faulted_dmodk_max_load", e26_dmodk_faulted)
        .field("e26_faulted_repaired_max_load", e26_repaired_faulted)
        .field("e26_faulted_strict_win", e26_faulted_strict)
        .field("e26_s", Json::Fixed(e26_s, 6))
        .field("pass", all_ok)
        .build()
        .write_pretty();
    std::fs::write("BENCH_core.json", &json)?;
    result_line("written", "BENCH_core.json");

    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCH_core.json`'s layout and number forms on fixed values: one key
    /// per line in insertion order, six-decimal floats, exact integers, and
    /// `null` for a missing or non-finite reading.
    #[test]
    fn bench_record_layout_is_pinned() {
        let record = Obj::new()
            .field("experiment", "E20")
            .field("fabric", format!("ftree({}+{}, {})", 4, 16, 9))
            .field("ports", 36u32)
            .field("legacy_two_pair_sweep_ms", Json::Fixed(396.68658, 6))
            .field("speedup", Json::Fixed(f64::NAN, 6))
            .field("e22_yuan_cdg_deps", 100_310_000usize)
            .field("e23_certify_sets", 32_897u128)
            .field("e25_peak_rss_mib", None::<u64>)
            .field("e26_faulted_dmodk_max_load", Some(3u32))
            .field("pass", false)
            .build();
        assert_eq!(
            record.write_pretty(),
            r#"{
  "experiment": "E20",
  "fabric": "ftree(4+16, 9)",
  "ports": 36,
  "legacy_two_pair_sweep_ms": 396.686580,
  "speedup": null,
  "e22_yuan_cdg_deps": 100310000,
  "e23_certify_sets": 32897,
  "e25_peak_rss_mib": null,
  "e26_faulted_dmodk_max_load": 3,
  "pass": false
}
"#
        );
    }
}
