//! The simulator kernel: one synchronous cycle loop whose phases are
//! written once and parameterized by a compile-time [`Schedule`].
//!
//! Every cycle runs the same phases in the same order — liveness events,
//! churn re-planning, the TTL sweep with retransmission, Bernoulli
//! injection, injection-link moves, switch arbitration, the stall
//! watchdog — and draws the same seeded RNG stream. The two schedules
//! differ only in *where they look for work*:
//!
//! | phase | [`Dense`] ([`Simulator`]) | [`Sparse`] ([`EventSimulator`]) |
//! |---|---|---|
//! | TTL sweep | every touched queue page | non-empty queues only |
//! | injection links | every leaf slot | non-empty injection queues only |
//! | HOL arbitration | ascending sweep over all outputs | `BTreeMap` worklist of requested outputs, ascending |
//! | iSLIP | every switch | switches fed by a non-empty queue |
//! | drain | every cycle executed | fast-forward over inert cycles via the [`EventWheel`] |
//!
//! Each restriction skips only provable no-ops, so for identical topology,
//! configuration, policy, workload, seed, and [`RunSpec`] both schedules
//! produce an identical [`SimStats`] (every field, `channel_busy`
//! included), an identical [`ChurnReport`], and identical [`SimError`]s,
//! stall diagnoses included. `Sparse` is the production schedule; `Dense`
//! stays as the in-tree oracle the differential tests compare it against.
//!
//! Injection cycles are never skipped: Bernoulli injection consumes the
//! RNG at every leaf every cycle, and replaying that stream exactly is
//! what keeps the schedules interchangeable under one seed.

use crate::churn::{ChurnConfig, ChurnReport, EpochLog};
use crate::config::{Arbiter, SimConfig};
use crate::error::{SimError, StallReport};
use crate::fault::FaultSchedule;
use crate::policy::Policy;
use crate::state::{stall_report, Packet, PagedVec, SimArena};
use crate::stats::{ChannelBusy, SimStats};
use crate::wheel::EventWheel;
use crate::workload::Workload;
use ftclos_obs::{Noop, Recorder};
use ftclos_routing::LinkAdmission;
use ftclos_topo::{ChannelId, NodeId, Topology, Transition};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;

/// Where the kernel looks for work each cycle (see the module docs).
pub trait Schedule {
    /// Visit only components with pending work and fast-forward the drain.
    const SPARSE: bool;
}

/// Visit every channel, leaf, and switch every cycle — the oracle.
#[derive(Debug)]
pub enum Dense {}

/// Visit only components with pending work; skip inert drain cycles.
#[derive(Debug)]
pub enum Sparse {}

impl Schedule for Dense {
    const SPARSE: bool = false;
}
impl Schedule for Sparse {
    const SPARSE: bool = true;
}

/// The kernel under the oracle schedule.
pub type Simulator<'a> = Engine<'a, Dense>;
/// The kernel under the production schedule.
pub type EventSimulator<'a> = Engine<'a, Sparse>;

/// What a run applies besides its workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSpec<'s> {
    /// Channel transitions, each applied at the start of its cycle: dead
    /// channels grant nothing, revived ones grant again. `None` is a
    /// pristine run.
    pub faults: Option<&'s FaultSchedule>,
    /// Churn re-planning (pinned / per-cycle / hysteresis) plus the
    /// per-epoch [`ChurnReport`]; `None` returns no report.
    pub churn: Option<&'s ChurnConfig>,
}

/// Cumulative counter values already flushed to a [`Recorder`]: each
/// flush pushes only the delta, so recorder counters stay equal to the
/// run's monotonic stats at every epoch boundary.
#[derive(Debug, Default)]
struct FlushedTotals([u64; 6]);

impl FlushedTotals {
    const NAMES: [&'static str; 6] = [
        "evsim.injected",
        "evsim.delivered",
        "evsim.timed_out",
        "evsim.retries",
        "evsim.abandoned",
        "evsim.refusals",
    ];

    fn flush<R: Recorder>(&mut self, rec: &R, stats: &SimStats) -> Result<(), SimError> {
        let totals = [
            stats.injected_total,
            stats.delivered_total,
            stats.timed_out_total,
            stats.retries_total,
            stats.abandoned_total,
            stats.injection_refusals,
        ];
        for ((name, total), seen) in Self::NAMES.into_iter().zip(totals).zip(&mut self.0) {
            let delta = total.checked_sub(*seen).ok_or_else(|| {
                SimError::invariant(format!("recorder counter {name} moved backwards"))
            })?;
            rec.add(name, delta);
            *seen = total;
        }
        rec.gauge("evsim.in_flight", in_flight(stats)?);
        Ok(())
    }
}

/// Packets currently inside the network: injected minus delivered minus
/// abandoned, with the subtraction checked so a broken counter surfaces as
/// a typed [`SimError::Invariant`] rather than a debug-mode underflow panic.
fn in_flight(stats: &SimStats) -> Result<u64, SimError> {
    stats
        .injected_total
        .checked_sub(stats.delivered_total)
        .and_then(|left| left.checked_sub(stats.abandoned_total))
        .ok_or_else(|| {
            SimError::invariant("delivered + abandoned exceed injected (counter underflow)")
        })
}

/// Packet-level simulator over a [`Topology`] with a path [`Policy`],
/// scheduled by `S`. Use the [`EventSimulator`] alias; [`Simulator`] is
/// the oracle.
pub struct Engine<'a, S: Schedule> {
    topo: &'a Topology,
    cfg: SimConfig,
    policy: Policy,
    arena: SimArena,
    schedule: PhantomData<S>,
}

impl<'a, S: Schedule> Engine<'a, S> {
    /// Create a simulator. The policy must cover every pair the workload
    /// can generate (unrouteable injections are counted as refusals).
    pub fn new(topo: &'a Topology, cfg: SimConfig, policy: Policy) -> Self {
        Self::with_arena(topo, cfg, policy, SimArena::new())
    }

    /// Create a simulator reusing a [`SimArena`] from a previous run —
    /// repeated runs through one arena recycle state pages instead of
    /// reallocating them. Semantically identical to [`Engine::new`].
    pub fn with_arena(topo: &'a Topology, cfg: SimConfig, policy: Policy, arena: SimArena) -> Self {
        Self {
            topo,
            cfg,
            policy,
            arena,
            schedule: PhantomData,
        }
    }

    /// Recover the arena (and its recycled pages) for the next simulator.
    pub fn into_arena(self) -> SimArena {
        self.arena
    }

    /// Run one simulation and return its statistics. `seed` drives
    /// injection coin flips and random path spreading; equal seeds give
    /// identical runs.
    ///
    /// # Panics
    /// On an invalid configuration or a broken engine invariant — use
    /// [`Engine::try_run`] for the structured-error form.
    pub fn run(&mut self, workload: &Workload, seed: u64) -> SimStats {
        match self.try_run(workload, seed) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Engine::run`].
    ///
    /// # Errors
    /// [`SimError::Config`] for an invalid [`SimConfig`];
    /// [`SimError::Invariant`] if the engine catches itself in an
    /// inconsistent state; [`SimError::Stalled`] when the watchdog fires.
    pub fn try_run(&mut self, workload: &Workload, seed: u64) -> Result<SimStats, SimError> {
        self.try_run_recorded(workload, seed, &Noop)
    }

    /// [`Engine::try_run`] with instrumentation (see [`Engine::try_run_with`]).
    ///
    /// # Errors
    /// As for [`Engine::try_run`].
    pub fn try_run_recorded<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        rec: &R,
    ) -> Result<SimStats, SimError> {
        self.try_run_with(workload, seed, &RunSpec::default(), rec)
            .map(|(stats, _)| stats)
    }

    /// The general entry point: run under `spec`'s fault schedule and
    /// churn configuration. Returns the statistics plus, when
    /// `spec.churn` is set, the [`ChurnReport`] with per-epoch counters
    /// and time-to-reconverge; a churn run slices into epochs at every
    /// transition cycle.
    ///
    /// The run records under span `evsim.run`: cumulative counters
    /// (`evsim.injected`, `evsim.delivered`, `evsim.timed_out`,
    /// `evsim.retries`, `evsim.abandoned`, `evsim.refusals`,
    /// `evsim.churn_replans`), the `evsim.in_flight` gauge, one recorder
    /// epoch per liveness-transition cycle plus a final `end` epoch — so
    /// per-epoch packet conservation is auditable from the trace alone —
    /// and the schedule's activity: `evsim.cycles`,
    /// `evsim.executed_cycles`, `evsim.skipped_cycles` (zero under
    /// [`Dense`]), `evsim.busy_component_cycles`,
    /// `evsim.idle_component_cycles`, and the `evsim.touched_channels` /
    /// `evsim.state_bytes` gauges. With [`Noop`] nothing is recorded.
    ///
    /// # Errors
    /// As for [`Engine::try_run`].
    pub fn try_run_with<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        spec: &RunSpec<'_>,
        rec: &R,
    ) -> Result<(SimStats, Option<ChurnReport>), SimError> {
        // Detach the arena so the loop can borrow its arrays disjointly
        // while the policy (also behind `self`) is borrowed mutably.
        let mut arena = std::mem::take(&mut self.arena);
        let result = self.kernel(workload, seed, spec, rec, &mut arena);
        self.arena = arena;
        result
    }

    #[allow(clippy::too_many_lines)]
    fn kernel<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        spec: &RunSpec<'_>,
        rec: &R,
        arena: &mut SimArena,
    ) -> Result<(SimStats, Option<ChurnReport>), SimError> {
        self.cfg.validate()?;
        let _span = rec.span("evsim.run");
        let topo = self.topo;
        let cfg = self.cfg;
        let mut flushed = FlushedTotals::default();
        // A fresh run starts unmasked; hysteresis modes rebuild the mask.
        self.policy.set_live_mask(None);
        let mut admission: Option<LinkAdmission> = spec
            .churn
            .and_then(|c| c.mode.hysteresis_k())
            .map(|k| LinkAdmission::new(topo.num_channels(), k));
        let mut epochs = spec.churn.map(|_| EpochLog::new());
        let fault_events = spec
            .faults
            .map(FaultSchedule::sorted_events)
            .unwrap_or_default();
        let mut next_fault = 0usize;
        let ttl = cfg.ttl_cycles;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let num_channels = topo.num_channels();
        let leaves: Vec<NodeId> = topo.leaves().collect();
        // All per-channel state (queues, arbiter pointers, wire deadlines,
        // liveness) lives in the paged arena: allocated on first touch,
        // recycled across runs, identical in content to dense arrays
        // because every default is synthesized arithmetically.
        arena.prepare(num_channels, leaves.len());
        // Leaf node id -> dense leaf slot (leaves are the first node ids in
        // all our builders, but don't rely on it).
        let mut leaf_slot = vec![usize::MAX; topo.num_nodes()];
        for (slot, &l) in leaves.iter().enumerate() {
            leaf_slot[l.index()] = slot;
        }
        let mut source_injected = vec![false; leaves.len()];
        let switch_nodes: Vec<NodeId> = if S::SPARSE {
            Vec::new()
        } else {
            topo.node_ids()
                .filter(|&id| topo.kind(id).is_switch())
                .collect()
        };
        let rate = workload.rate().clamp(0.0, 1.0);
        let warmup = cfg.warmup_cycles;
        let total = cfg.total_cycles();
        let mut run = Run {
            topo,
            cfg,
            stats: SimStats {
                window_cycles: cfg.measure_cycles,
                offered_rate: workload.rate(),
                channel_busy: ChannelBusy::zeros(num_channels),
                ..SimStats::default()
            },
            arena,
            window_latencies: Vec::new(),
            moves: 0,
            nonempty_q: BTreeSet::new(),
            nonempty_inj: BTreeSet::new(),
            wake: EventWheel::new(),
            // A jump is legal only while draining, and never while a
            // hysteresis admission ticks at arbitrary cycles.
            may_skip: S::SPARSE && cfg.drain && admission.is_none(),
            now: 0,
            flits: cfg.packet_flits.max(1),
            in_window: false,
        };
        let mut skipped_cycles = 0u64;
        let mut executed_cycles = 0u64;
        let mut busy_component_cycles = 0u64;

        // Stall watchdog: the signature below changes whenever anything is
        // delivered, dropped, retried, or moved. If it freezes for
        // `stall_watchdog` consecutive cycles while packets are in flight,
        // the network is wedged.
        let watchdog = cfg.stall_watchdog;
        let mut frozen_cycles = 0u64;
        let mut last_signature = (u64::MAX, 0u64, 0u64, 0u64);

        // The loop breaks with `Some(report)` on a stall so the activity
        // counters below still reach the recorder before the error returns.
        let stalled: Option<StallReport> = loop {
            let now = run.now;
            if now >= total {
                // Drain: run movement-only until the network empties.
                let inflight = in_flight(&run.stats)?;
                if !cfg.drain || inflight == 0 {
                    break None;
                }
                if now >= total + SimConfig::DRAIN_CAP {
                    // An armed watchdog that was mid-freeze when the drain
                    // cap hit means nothing was moving: that is a stall,
                    // not a normal cap exit.
                    if watchdog > 0 && frozen_cycles > 0 {
                        break Some(run.stall_report(inflight));
                    }
                    break None;
                }
            }
            run.in_window = now >= warmup && now < total;
            // Inertness probe for the drain fast-forward: if none of these
            // move during the cycle (and no fault event applied), the cycle
            // changed nothing and the next state change sits on the wheel.
            let progress_before = run.progress();
            let faults_before = next_fault;

            // --- Liveness events: scheduled transitions apply at cycle
            // start (events are ordered Down-before-Up per channel, so a
            // same-cycle flap nets to alive). ---
            let (mut downs, mut ups) = (0u64, 0u64);
            while let Some(&e) = fault_events.get(next_fault).filter(|e| e.cycle <= now) {
                if e.channel.index() < num_channels {
                    *run.arena.dead.get_mut(e.channel.index()) = e.transition == Transition::Down;
                    match e.transition {
                        Transition::Down => downs += 1,
                        Transition::Up => ups += 1,
                    }
                    if let Some(adm) = admission.as_mut() {
                        adm.observe(now, e.channel, e.transition);
                    }
                }
                next_fault += 1;
            }
            if downs + ups > 0 {
                if let Some(log) = epochs.as_mut() {
                    log.transition(now, downs, ups, &run.stats);
                }
                if rec.is_enabled() {
                    // A liveness transition closes a recorder epoch.
                    flushed.flush(rec, &run.stats)?;
                    rec.mark_epoch(&format!("cycle={now}"));
                }
            }
            // Re-planning: promote stabilized links, refresh the pick mask.
            if let Some(adm) = admission.as_mut() {
                if adm.tick(now) {
                    self.policy.set_live_mask(Some(adm.mask()));
                    rec.add("evsim.churn_replans", 1);
                }
            }

            // --- Timeout sweep: expire packets past their deadline, channel
            // queues ascending then injection slots ascending, and
            // retransmit them in that order. ---
            if ttl > 0 {
                let mut expired: Vec<Packet> = Vec::new();
                expire::<S>(
                    &mut run.arena.queues,
                    &mut run.nonempty_q,
                    now,
                    &mut expired,
                )?;
                expire::<S>(
                    &mut run.arena.inject,
                    &mut run.nonempty_inj,
                    now,
                    &mut expired,
                )?;
                for p in expired {
                    run.stats.timed_out_total += 1;
                    if !(cfg.retry && p.retries < cfg.retry_limit) {
                        run.stats.abandoned_total += 1;
                        continue;
                    }
                    // Retransmit from the source with a *fresh* path pick:
                    // spreading policies get a new chance to dodge dead
                    // hardware. Latency keeps the original injection time.
                    let queue_probe = |c: ChannelId| run.arena.queues.get(c.index()).len();
                    match self.policy.pick(p.src, p.dst, queue_probe, &mut rng) {
                        Some(path) if !path.is_empty() => {
                            run.stats.retries_total += 1;
                            let slot = leaf_slot
                                .get(p.src as usize)
                                .copied()
                                .filter(|&s| s != usize::MAX)
                                .ok_or_else(|| {
                                    SimError::invariant(format!(
                                        "retransmission source {} is not a leaf",
                                        p.src
                                    ))
                                })?;
                            run.enqueue_injection(
                                slot,
                                Packet {
                                    path,
                                    hop: 0,
                                    ready_at: now,
                                    deadline: now + ttl,
                                    retries: p.retries + 1,
                                    ..p
                                },
                            );
                        }
                        _ => run.stats.abandoned_total += 1,
                    }
                }
            }

            // --- Injection phase ---
            if now < total {
                for (slot, &leaf) in leaves.iter().enumerate() {
                    if !rng.gen_bool(rate) {
                        continue;
                    }
                    let src = leaf.0;
                    let Some(dst) = workload.destination(src, |n| rng.gen_range(0..n)) else {
                        continue;
                    };
                    if cfg.bounded_injection
                        && run.arena.inject.get(slot).len() >= cfg.queue_capacity
                    {
                        run.stats.injection_refusals += 1;
                        continue;
                    }
                    let queue_probe = |c: ChannelId| run.arena.queues.get(c.index()).len();
                    let Some(path) = self.policy.pick(src, dst, queue_probe, &mut rng) else {
                        run.stats.injection_refusals += 1;
                        continue;
                    };
                    source_injected[slot] = true;
                    run.stats.injected_total += 1;
                    if run.in_window {
                        run.stats.injected_in_window += 1;
                    }
                    if path.is_empty() {
                        // Self traffic: delivered instantly.
                        run.stats.delivered_total += 1;
                        if run.in_window {
                            run.stats.delivered_in_window += 1;
                        }
                        continue;
                    }
                    run.enqueue_injection(
                        slot,
                        Packet {
                            src,
                            dst,
                            path,
                            hop: 0,
                            inject_cycle: now,
                            ready_at: now,
                            deadline: if ttl > 0 { now + ttl } else { u64::MAX },
                            retries: 0,
                        },
                    );
                }
            }

            // --- Movement phase: one grant per output channel per cycle.
            // Injection links first: a leaf drives a single uplink, so no
            // arbitration is needed and empty slots are no-ops. ---
            if S::SPARSE {
                let active: Vec<u32> = run.nonempty_inj.iter().copied().collect();
                for s in active {
                    let Some(&leaf) = leaves.get(s as usize) else {
                        return Err(SimError::invariant("injection slot without a leaf"));
                    };
                    run.inject_link(s as usize, leaf)?;
                }
            } else {
                for (slot, &leaf) in leaves.iter().enumerate() {
                    run.inject_link(slot, leaf)?;
                }
            }
            // Switch outputs.
            match cfg.arbiter {
                Arbiter::HolFifo if S::SPARSE => run.hol_worklist()?,
                Arbiter::HolFifo => run.hol_sweep()?,
                Arbiter::Voq { iterations } if S::SPARSE => {
                    // Only switches fed by a non-empty queue can match
                    // anything; elsewhere iSLIP grants nothing and leaves
                    // every pointer untouched.
                    let fed: BTreeSet<u32> = run
                        .nonempty_q
                        .iter()
                        .map(|&c| topo.channel(ChannelId(c)).dst)
                        .filter(|&dst| topo.kind(dst).is_switch())
                        .map(|dst| dst.0)
                        .collect();
                    for sw in fed {
                        run.islip_switch(NodeId(sw), iterations.max(1))?;
                    }
                }
                Arbiter::Voq { iterations } => {
                    for &sw in &switch_nodes {
                        run.islip_switch(sw, iterations.max(1))?;
                    }
                }
            }
            if let Some(log) = epochs.as_mut() {
                log.end_cycle(run.stats.delivered_total);
            }
            if watchdog > 0 {
                let inflight = in_flight(&run.stats)?;
                let signature = (
                    run.moves,
                    run.stats.delivered_total,
                    run.stats.abandoned_total,
                    run.stats.retries_total,
                );
                if inflight > 0 && signature == last_signature {
                    frozen_cycles += 1;
                    if frozen_cycles >= watchdog {
                        break Some(run.stall_report(inflight));
                    }
                } else {
                    frozen_cycles = 0;
                    last_signature = signature;
                }
            }
            executed_cycles += 1;
            busy_component_cycles += (run.nonempty_q.len() + run.nonempty_inj.len()) as u64;

            // --- Drain fast-forward: if this cycle changed nothing and
            // injection is over, jump to the next cycle on the wheel (or
            // the next fault event, or the cycle where the watchdog must
            // fire, or the drain cap). Skipped cycles are provably
            // identical no-ops: queue state, RNG, pointers, and wires are
            // untouched between wake-ups once injection stops. ---
            if run.may_skip
                && now + 1 >= total
                && run.progress() == progress_before
                && next_fault == faults_before
                && in_flight(&run.stats)? > 0
            {
                let mut target = total + SimConfig::DRAIN_CAP;
                if let Some(e) = fault_events.get(next_fault) {
                    target = target.min(e.cycle.max(now + 1));
                }
                if let Some(w) = run.wake.next_at_or_after(now + 1) {
                    target = target.min(w);
                }
                if watchdog > 0 {
                    // frozen < watchdog here (a fire breaks above); the
                    // first cycle in which it can reach the threshold must
                    // execute normally so the report is exact.
                    target = target.min(now + (watchdog - frozen_cycles));
                }
                if target > now + 1 {
                    let skipped = target - (now + 1);
                    skipped_cycles += skipped;
                    if watchdog > 0 {
                        // Every skipped cycle would have been another
                        // progress-free tick of the armed watchdog.
                        frozen_cycles += skipped;
                    }
                    if let Some(log) = epochs.as_mut() {
                        log.skip(skipped);
                    }
                    run.now = target;
                    continue;
                }
            }
            run.now += 1;
        };
        let now = run.now;
        if rec.is_enabled() {
            rec.add("evsim.cycles", now);
            rec.add("evsim.executed_cycles", executed_cycles);
            rec.add("evsim.skipped_cycles", skipped_cycles);
            rec.add("evsim.busy_component_cycles", busy_component_cycles);
            let components = (num_channels + leaves.len()) as u64;
            rec.add(
                "evsim.idle_component_cycles",
                executed_cycles
                    .saturating_mul(components)
                    .saturating_sub(busy_component_cycles),
            );
            rec.gauge(
                "evsim.touched_channels",
                run.arena.touched_channels() as u64,
            );
            rec.gauge("evsim.state_bytes", run.arena.state_bytes() as u64);
        }
        if let Some(report) = stalled {
            return Err(SimError::Stalled(report));
        }
        let Run {
            mut stats,
            mut window_latencies,
            ..
        } = run;
        stats.leftover_packets = in_flight(&stats)?;
        stats.active_sources = source_injected.iter().filter(|&&b| b).count();
        if rec.is_enabled() {
            flushed.flush(rec, &stats)?;
            rec.mark_epoch("end");
        }
        window_latencies.sort_unstable();
        let pct = |q: f64| -> u64 {
            let idx = ((window_latencies.len().max(1) - 1) as f64 * q).round() as usize;
            window_latencies.get(idx).copied().unwrap_or(0)
        };
        stats.latency_p50 = pct(0.50);
        stats.latency_p95 = pct(0.95);
        stats.latency_p99 = pct(0.99);
        let report = spec
            .churn
            .zip(epochs)
            .map(|(c, log)| log.report(c, now, &stats, warmup));
        Ok((stats, report))
    }
}

/// Expire every packet past its deadline from the non-empty queues of
/// `queues`, ascending queue index then queue position, into `expired`.
/// Dense visits every touched page (untouched queues are empty); Sparse
/// visits the active set and drops queues the sweep empties.
fn expire<S: Schedule>(
    queues: &mut PagedVec<VecDeque<Packet>>,
    active: &mut BTreeSet<u32>,
    now: u64,
    expired: &mut Vec<Packet>,
) -> Result<(), SimError> {
    let mut sweep = |q: &mut VecDeque<Packet>| {
        let mut i = 0;
        while i < q.len() {
            if now >= q[i].deadline {
                expired.extend(q.remove(i));
            } else {
                i += 1;
            }
        }
        q.is_empty()
    };
    if S::SPARSE {
        // `retain` visits in ascending order.
        active.retain(|&i| !sweep(queues.get_mut(i as usize)));
        Ok(())
    } else {
        queues.try_for_each_touched_mut(|i, q| {
            if !q.is_empty() && sweep(q) {
                active.remove(&(i as u32));
            }
            Ok(())
        })
    }
}

/// The mutable state of one run, shared by every phase.
struct Run<'r> {
    topo: &'r Topology,
    cfg: SimConfig,
    arena: &'r mut SimArena,
    stats: SimStats,
    window_latencies: Vec<u64>,
    /// Successful channel grants (the watchdog's movement signal).
    moves: u64,
    /// Channels whose downstream queue holds a packet, and leaf slots with
    /// a non-empty injection queue. Every push and pop maintains them;
    /// the Sparse schedule iterates them instead of the whole fabric.
    nonempty_q: BTreeSet<u32>,
    nonempty_inj: BTreeSet<u32>,
    /// Wake-ups for the drain fast-forward, filled only when `may_skip`.
    wake: EventWheel,
    may_skip: bool,
    now: u64,
    flits: u64,
    in_window: bool,
}

impl Run<'_> {
    /// Everything a cycle can change, for the fast-forward inertness probe.
    fn progress(&self) -> [u64; 7] {
        let s = &self.stats;
        [
            self.moves,
            s.injected_total,
            s.delivered_total,
            s.timed_out_total,
            s.retries_total,
            s.abandoned_total,
            s.injection_refusals,
        ]
    }

    fn stall_report(&self, in_flight: u64) -> StallReport {
        stall_report(self.now, in_flight, &self.arena.queues, &self.arena.inject)
    }

    fn enqueue_injection(&mut self, slot: usize, p: Packet) {
        if self.may_skip && p.deadline != u64::MAX {
            self.wake.push(p.deadline);
        }
        self.arena.inject.get_mut(slot).push_back(p);
        self.nonempty_inj.insert(slot as u32);
    }

    /// Whether the head of queue `q` is ready and wants output `o` next.
    fn head_requests(&self, q: u32, o: u32) -> bool {
        matches!(
            self.arena.queues.get(q as usize).front(),
            Some(p) if p.ready_at <= self.now && p.path.get(p.hop) == Some(&ChannelId(o))
        )
    }

    /// Whether switch output `o` can take a packet this cycle: wire free,
    /// channel alive, and downstream credit unless it delivers to a leaf.
    fn output_open(&self, o: usize) -> bool {
        if *self.arena.busy_until.get(o) > self.now || *self.arena.dead.get(o) {
            return false;
        }
        let ch = self.topo.channel(ChannelId(o as u32));
        if self.topo.kind(ch.src).is_leaf() {
            return false; // injection links are handled per leaf
        }
        self.topo.kind(ch.dst).is_leaf() || self.arena.queues.get(o).len() < self.cfg.queue_capacity
    }

    /// Move the head of leaf `slot`'s injection queue onto its uplink.
    fn inject_link(&mut self, slot: usize, leaf: NodeId) -> Result<(), SimError> {
        let Some(&up) = self.topo.out_channels(leaf).first() else {
            return Ok(());
        };
        let o = up.index();
        if *self.arena.busy_until.get(o) > self.now
            || *self.arena.dead.get(o)
            || self.arena.queues.get(o).len() >= self.cfg.queue_capacity
        {
            return Ok(());
        }
        // Probe read-only first: popping goes through the touching
        // accessor only when the queue is provably non-empty.
        let eligible = matches!(
            self.arena.inject.get(slot).front(),
            Some(p) if p.ready_at <= self.now && p.path.get(p.hop) == Some(&up)
        );
        if !eligible {
            return Ok(());
        }
        let q = self.arena.inject.get_mut(slot);
        let Some(p) = q.pop_front() else {
            return Err(SimError::invariant(
                "eligible injection-queue head disappeared",
            ));
        };
        if q.is_empty() {
            self.nonempty_inj.remove(&(slot as u32));
        }
        self.advance(p, o)
    }

    /// Grant output `o` to the head of input queue `q`, the `local`-th of
    /// the switch's `n_in` inputs, and advance the round-robin pointer.
    fn grant(&mut self, q: u32, local: usize, n_in: usize, o: usize) -> Result<(), SimError> {
        let queue = self.arena.queues.get_mut(q as usize);
        let Some(p) = queue.pop_front() else {
            return Err(SimError::invariant("eligible input-queue head disappeared"));
        };
        if queue.is_empty() {
            self.nonempty_q.remove(&q);
        }
        *self.arena.rr.get_mut(o) = ((local + 1) % n_in) as u32;
        self.advance(p, o)
    }

    /// Dense head-of-line FIFO arbitration: every output in ascending id
    /// order grants the first ready head requesting it, scanning the
    /// switch's inputs round-robin from its pointer.
    fn hol_sweep(&mut self) -> Result<(), SimError> {
        let topo = self.topo;
        for o in 0..topo.num_channels() {
            if !self.output_open(o) {
                continue;
            }
            let inputs = topo.in_channels(topo.channel(ChannelId(o as u32)).src);
            let n_in = inputs.len();
            let start = *self.arena.rr.get(o) as usize % n_in.max(1);
            for k in 0..n_in {
                let idx = (start + k) % n_in;
                if self.head_requests(inputs[idx].0, o as u32) {
                    self.grant(inputs[idx].0, idx, n_in, o)?;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Sparse head-of-line FIFO arbitration, driven from the requesting
    /// queue heads instead of a full output sweep.
    ///
    /// Equivalence to [`Run::hol_sweep`]: a grant at output `o` needs a
    /// ready head whose next hop is `o`, so outputs nobody requests are
    /// no-ops in both. The worklist processes requested outputs in
    /// ascending id order and re-checks wire/credit/liveness at processing
    /// time — the same state the sweep sees when it reaches `o`, because
    /// queue state for `o` only changes when `o` itself grants. After a
    /// grant pops a queue, its new head can only be granted by a *later*
    /// output this cycle, exactly like the single-pass sweep, so it is
    /// re-enqueued under that output when its id is greater than `o`.
    fn hol_worklist(&mut self) -> Result<(), SimError> {
        let topo = self.topo;
        // The round-robin arbiter ranks a requesting channel by its
        // position among `in_channels(dst)`. The CSR audit proves in-ports
        // are dense and ordered, so that position *is* `dst_port`.
        let local_in = |c: u32| topo.channel(ChannelId(c)).dst_port as usize;
        // Requested output -> requesting input channels (each queue head
        // requests exactly one output, so every queue appears at most once).
        let mut pending: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &c in &self.nonempty_q {
            let Some(p) = self.arena.queues.get(c as usize).front() else {
                continue;
            };
            let Some(&want) = p.path.get(p.hop) else {
                continue; // defensive: delivered packets never queue
            };
            // Only requests issued at the switch the packet sits at can be
            // granted (the sweep scans `in_channels(src(o))`).
            if p.ready_at <= self.now && topo.channel(want).src == topo.channel(ChannelId(c)).dst {
                pending.entry(want.0).or_default().push(c);
            }
        }
        while let Some((o, reqs)) = pending.pop_first() {
            let oi = o as usize;
            if !self.output_open(oi) {
                continue;
            }
            let switch = topo.channel(ChannelId(o)).src;
            let n_in = topo.in_channels(switch).len();
            let start = *self.arena.rr.get(oi) as usize % n_in.max(1);
            // Round-robin winner: the requester whose local input index
            // comes first scanning from the grant pointer. Input indices
            // are distinct per switch, so the minimum is unique.
            let Some(&win) = reqs
                .iter()
                .min_by_key(|&&c| (local_in(c) + n_in - start) % n_in)
            else {
                continue;
            };
            if !self.head_requests(win, o) {
                return Err(SimError::invariant(
                    "worklist head changed before its grant",
                ));
            }
            self.grant(win, local_in(win), n_in, oi)?;
            // The popped queue's next head may request a later output this
            // cycle (same switch only; earlier outputs already passed).
            if let Some(np) = self.arena.queues.get(win as usize).front() {
                if let Some(&next) = np.path.get(np.hop) {
                    if np.ready_at <= self.now && next.0 > o && topo.channel(next).src == switch {
                        pending.entry(next.0).or_default().push(win);
                    }
                }
            }
        }
        Ok(())
    }

    /// Move one granted packet across output channel `o`.
    fn advance(&mut self, mut p: Packet, o: usize) -> Result<(), SimError> {
        let ch = self.topo.channel(ChannelId(o as u32));
        let (now, flits) = (self.now, self.flits);
        self.moves += 1;
        p.hop += 1;
        // The wire serializes `flits` flits; the packet cannot be forwarded
        // again (cut-through is not modeled) until the tail flit arrives.
        p.ready_at = now + flits;
        *self.arena.busy_until.get_mut(o) = now + flits;
        if self.may_skip {
            // The packet becomes ready — and the wire frees — at the same
            // cycle; one wheel entry covers both.
            self.wake.push(now + flits);
        }
        if self.in_window {
            self.stats.channel_busy.add(o, flits);
        }
        if !self.topo.kind(ch.dst).is_leaf() {
            self.arena.queues.get_mut(o).push_back(p);
            self.nonempty_q.insert(o as u32);
            return Ok(());
        }
        if ch.dst.0 != p.dst {
            return Err(SimError::invariant(format!(
                "packet for leaf {} exited the fabric at leaf {}",
                p.dst, ch.dst.0
            )));
        }
        if p.hop != p.path.len() {
            return Err(SimError::invariant(format!(
                "packet reached its destination after hop {} of a {}-hop path",
                p.hop,
                p.path.len()
            )));
        }
        self.stats.delivered_total += 1;
        if self.in_window {
            self.stats.delivered_in_window += 1;
            let lat = now - p.inject_cycle + flits;
            self.stats.latency_sum += lat;
            self.stats.latency_max = self.stats.latency_max.max(lat);
            self.window_latencies.push(lat);
        }
        Ok(())
    }

    /// One cycle of iSLIP request-grant-accept matching on switch `sw`,
    /// followed by the matched packet moves.
    ///
    /// Virtual output queues are realized over the shared per-input buffer:
    /// the packet an input offers toward output `o` is the *first* buffered
    /// packet whose next hop is `o` (FIFO per virtual queue), so a blocked
    /// head never stalls traffic for other outputs.
    fn islip_switch(&mut self, sw: NodeId, iterations: u8) -> Result<(), SimError> {
        let inputs = self.topo.in_channels(sw);
        let outputs = self.topo.out_channels(sw);
        if inputs.is_empty() || outputs.is_empty() {
            return Ok(());
        }
        let (n_in, n_out) = (inputs.len(), outputs.len());
        // Per input: the buffer position of the first eligible packet per
        // local output (the VOQ heads).
        let mut voq_head: Vec<Vec<Option<usize>>> = Vec::with_capacity(n_in);
        for &qi in inputs {
            let mut heads = vec![None; n_out];
            for (pos, p) in self.arena.queues.get(qi.index()).iter().enumerate() {
                let Some(next_hop) = p.path.get(p.hop) else {
                    continue; // defensive: delivered packets never queue
                };
                if p.ready_at > self.now {
                    continue;
                }
                if let Some(oj) = outputs.iter().position(|o| o == next_hop) {
                    heads[oj].get_or_insert(pos);
                }
            }
            voq_head.push(heads);
        }
        let out_ok: Vec<bool> = outputs
            .iter()
            .map(|o| self.output_open(o.index()))
            .collect();

        let grant_ptr = &mut self.arena.rr;
        let accept_ptr = &mut self.arena.accept_ptr;
        let mut in_matched = vec![false; n_in];
        let mut out_matched = vec![false; n_out];
        let mut matches: Vec<(usize, usize)> = Vec::new();
        for iter in 0..iterations {
            // Grant: each free output offers to one requesting input,
            // scanning from its grant pointer.
            let mut grants: Vec<Vec<usize>> = vec![Vec::new(); n_in];
            let mut any_grant = false;
            for (oj, &o) in outputs.iter().enumerate() {
                if out_matched[oj] || !out_ok[oj] {
                    continue;
                }
                let start = *grant_ptr.get(o.index()) as usize % n_in;
                if let Some(ii) = (0..n_in)
                    .map(|k| (start + k) % n_in)
                    .find(|&ii| !in_matched[ii] && voq_head[ii][oj].is_some())
                {
                    grants[ii].push(oj);
                    any_grant = true;
                }
            }
            if !any_grant {
                break;
            }
            // Accept: each input picks one granted output, scanning from
            // its accept pointer; pointers advance only on first-iteration
            // accepts (standard iSLIP desynchronization rule).
            for (ii, granted) in grants.iter().enumerate() {
                if granted.is_empty() || in_matched[ii] {
                    continue;
                }
                let qi = inputs[ii];
                let start = *accept_ptr.get(qi.index()) as usize % n_out;
                let Some(&oj) = granted
                    .iter()
                    .min_by_key(|&&oj| (oj + n_out - start) % n_out)
                else {
                    return Err(SimError::invariant("grant list emptied during accept"));
                };
                in_matched[ii] = true;
                out_matched[oj] = true;
                matches.push((ii, oj));
                if iter == 0 {
                    *grant_ptr.get_mut(outputs[oj].index()) = ((ii + 1) % n_in) as u32;
                    *accept_ptr.get_mut(qi.index()) = ((oj + 1) % n_out) as u32;
                }
            }
        }
        // Move matched packets.
        for (ii, oj) in matches {
            let Some(pos) = voq_head[ii][oj] else {
                return Err(SimError::invariant(
                    "iSLIP matched an input with no eligible VOQ head",
                ));
            };
            let q = inputs[ii].0;
            let queue = self.arena.queues.get_mut(q as usize);
            let Some(p) = queue.remove(pos) else {
                return Err(SimError::invariant("iSLIP VOQ head position out of range"));
            };
            if queue.is_empty() {
                self.nonempty_q.remove(&q);
            }
            self.advance(p, outputs[oj].index())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnSchedule, ReplanMode};
    use ftclos_routing::{DModK, ObliviousMultipath, SpreadPolicy, YuanDeterministic};
    use ftclos_topo::{crossbar, Ftree};
    use ftclos_traffic::{adversarial, patterns};

    /// Test shorthands over [`Engine::try_run_with`].
    trait RunExt {
        fn faulted(
            &mut self,
            w: &Workload,
            seed: u64,
            faults: &FaultSchedule,
        ) -> Result<SimStats, SimError>;
        fn churned(
            &mut self,
            w: &Workload,
            seed: u64,
            schedule: &ChurnSchedule,
            churn: &ChurnConfig,
        ) -> Result<(SimStats, ChurnReport), SimError>;
    }

    impl<S: Schedule> RunExt for Engine<'_, S> {
        fn faulted(
            &mut self,
            w: &Workload,
            seed: u64,
            faults: &FaultSchedule,
        ) -> Result<SimStats, SimError> {
            let spec = RunSpec {
                faults: Some(faults),
                churn: None,
            };
            self.try_run_with(w, seed, &spec, &Noop).map(|(s, _)| s)
        }

        fn churned(
            &mut self,
            w: &Workload,
            seed: u64,
            schedule: &ChurnSchedule,
            churn: &ChurnConfig,
        ) -> Result<(SimStats, ChurnReport), SimError> {
            let spec = RunSpec {
                faults: Some(schedule),
                churn: Some(churn),
            };
            let (stats, report) = self.try_run_with(w, seed, &spec, &Noop)?;
            Ok((stats, report.expect("churn runs report epochs")))
        }
    }

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn crossbar_delivers_line_rate_permutation() {
        let xb = crossbar(8).unwrap();
        // Route over the crossbar: 2-hop paths via the switch.
        struct XbRouter<'a>(&'a ftclos_topo::Crossbar);
        impl ftclos_routing::SinglePathRouter for XbRouter<'_> {
            fn ports(&self) -> u32 {
                self.0.ports() as u32
            }
            fn route(&self, pair: ftclos_traffic::SdPair) -> ftclos_routing::Path {
                if pair.src == pair.dst {
                    return ftclos_routing::Path::empty();
                }
                ftclos_routing::Path::new(vec![
                    self.0.up_channel(pair.src as usize),
                    self.0.down_channel(pair.dst as usize),
                ])
            }
            fn name(&self) -> &'static str {
                "crossbar"
            }
        }
        let policy = Policy::from_single_path(&XbRouter(&xb));
        let perm = patterns::shift(8, 3);
        let mut sim = EventSimulator::new(xb.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 1);
        assert!(
            stats.accepted_throughput() > 0.95,
            "crossbar throughput {}",
            stats.accepted_throughput()
        );
        assert_eq!(stats.injection_refusals, 0);
    }

    #[test]
    fn nonblocking_ftree_matches_crossbar() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let policy = Policy::from_single_path(&router);
        let perm = adversarial::rotate_switches(adversarial::FtreeShape { n: 2, m: 4, r: 5 });
        let mut sim = EventSimulator::new(ft.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 2);
        assert!(
            stats.accepted_throughput() > 0.95,
            "Theorem 3 fabric throughput {}",
            stats.accepted_throughput()
        );
    }

    #[test]
    fn blocked_routing_loses_throughput() {
        // d-mod-k with m < n^2 on a permutation engineered to collide.
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let policy = Policy::from_single_path(&router);
        // All leaves of each switch target the same residue class.
        let shape = adversarial::FtreeShape { n: 2, m: 2, r: 5 };
        let perm = adversarial::rotate_switches(shape);
        let mut sim = EventSimulator::new(ft.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 3);
        // rotate keeps local index, so (v,0) and (v,1) go to dsts with
        // different parity -> actually contention-free for d-mod-2. Use a
        // same-parity attack instead: shift by one switch AND swap local
        // index... simpler: uniform random traffic saturates below 1.
        let uni = Workload::uniform_random(10, 1.0);
        let stats_uni =
            EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
                .run(&uni, 4);
        assert!(stats_uni.accepted_throughput() < 0.95);
        // The permutation case is a sanity run (no assertion on value).
        assert!(stats.delivered_total > 0);
    }

    #[test]
    fn latency_grows_with_load() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let lo = EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, 0.1), 5);
        let hi = EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, 0.9), 5);
        assert!(lo.mean_latency() >= 2.0, "at least hop count");
        assert!(hi.mean_latency() >= lo.mean_latency());
    }

    #[test]
    fn bounded_injection_refuses() {
        let ft = Ftree::new(2, 1, 5).unwrap(); // single top: heavy contention
        let router = DModK::new(&ft);
        let config = SimConfig {
            bounded_injection: true,
            queue_capacity: 2,
            warmup_cycles: 100,
            measure_cycles: 500,
            ..SimConfig::default()
        };
        let mut sim = EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router));
        let stats = sim.run(&Workload::uniform_random(10, 1.0), 6);
        assert!(stats.injection_refusals > 0);
    }

    #[test]
    fn multipath_spreading_beats_single_path_on_adversarial_pattern() {
        // All four sources of switch 0 target destinations ≡ 0 (mod m):
        // d-mod-k funnels them onto one uplink (~0.25 throughput), while
        // oblivious spreading uses all four uplinks.
        let ft = Ftree::new(4, 4, 9).unwrap();
        let single = DModK::new(&ft);
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = ftclos_traffic::Permutation::from_pairs(
            36,
            (0..4).map(|k| ftclos_traffic::SdPair::new(k, (k + 1) * 4)),
        )
        .unwrap();
        let w = Workload::permutation(&perm, 1.0);
        let s1 =
            EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&single)).run(&w, 7);
        let s2 =
            EventSimulator::new(ft.topology(), cfg(), Policy::from_multipath(&mp, true)).run(&w, 7);
        assert!(
            s1.accepted_throughput() < 0.35,
            "d-mod-k should funnel: {}",
            s1.accepted_throughput()
        );
        assert!(
            s2.accepted_throughput() > s1.accepted_throughput() + 0.2,
            "multipath {} vs single {}",
            s2.accepted_throughput(),
            s1.accepted_throughput()
        );
    }

    #[test]
    fn multi_flit_packets_serialize() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let run = |flits: u64, rate: f64| {
            let config = SimConfig {
                packet_flits: flits,
                ..cfg()
            };
            EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .run(&Workload::permutation(&perm, rate), 21)
        };
        // At low load, latency grows by ~(flits-1) per hop.
        let lat1 = run(1, 0.05).mean_latency();
        let lat4 = run(4, 0.05).mean_latency();
        assert!(
            lat4 > lat1 * 2.5,
            "store-and-forward serialization: {lat1} vs {lat4}"
        );
        // At saturation, packet throughput is ~1/flits of the single-flit
        // case (the wire carries the same flit rate).
        let thr1 = run(1, 1.0).accepted_throughput();
        let thr4 = run(4, 1.0).accepted_throughput();
        assert!(
            (thr4 - thr1 / 4.0).abs() < 0.05,
            "packet throughput {thr4} vs expected {}",
            thr1 / 4.0
        );
    }

    #[test]
    fn hol_blocking_vs_islip_on_uniform_crossbar() {
        // The classic input-queued switch result: FIFO input queues cap
        // uniform-traffic throughput near 58.6% (HOL blocking); VOQs with
        // iSLIP restore ~100%. This validates the arbitration model.
        let xb = crossbar(16).unwrap();
        struct XbRouter<'a>(&'a ftclos_topo::Crossbar);
        impl ftclos_routing::SinglePathRouter for XbRouter<'_> {
            fn ports(&self) -> u32 {
                self.0.ports() as u32
            }
            fn route(&self, pair: ftclos_traffic::SdPair) -> ftclos_routing::Path {
                if pair.src == pair.dst {
                    return ftclos_routing::Path::empty();
                }
                ftclos_routing::Path::new(vec![
                    self.0.up_channel(pair.src as usize),
                    self.0.down_channel(pair.dst as usize),
                ])
            }
            fn name(&self) -> &'static str {
                "crossbar"
            }
        }
        let router = XbRouter(&xb);
        let uni = Workload::uniform_random(16, 1.0);
        let base = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 3_000,
            queue_capacity: 64,
            ..SimConfig::default()
        };
        let run = |arbiter| {
            EventSimulator::new(
                xb.topology(),
                SimConfig { arbiter, ..base },
                Policy::from_single_path(&router),
            )
            .run(&uni, 31)
            .accepted_throughput()
        };
        let hol = run(Arbiter::HolFifo);
        let islip1 = run(Arbiter::Voq { iterations: 1 });
        let islip3 = run(Arbiter::Voq { iterations: 3 });
        // HOL caps well below line rate regardless of buffering (the
        // classic unbounded-queue limit is 0.586; finite buffers with
        // injection backpressure land slightly above it).
        assert!(
            (0.5..0.78).contains(&hol),
            "HOL throughput {hol} should sit near the classic limit"
        );
        // Our VOQs share one per-input buffer, so iSLIP-1 approaches line
        // rate only as buffers deepen; 3 iterations get there already.
        assert!(
            islip1 > hol + 0.1,
            "iSLIP-1 {islip1} must clearly beat HOL {hol}"
        );
        assert!(islip3 > 0.93, "iSLIP-3 {islip3} should approach line rate");
    }

    #[test]
    fn islip_matches_hol_on_permutation_traffic() {
        // Permutation traffic has one flow per input, so there is no HOL
        // blocking to remove: both disciplines deliver line rate on the
        // nonblocking fabric.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let w = Workload::permutation(&perm, 1.0);
        for arbiter in [
            Arbiter::HolFifo,
            Arbiter::Voq { iterations: 1 },
            Arbiter::Voq { iterations: 3 },
        ] {
            let config = SimConfig { arbiter, ..cfg() };
            let stats =
                EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
                    .run(&w, 33);
            assert!(
                stats.accepted_throughput() > 0.95,
                "{arbiter:?}: {}",
                stats.accepted_throughput()
            );
        }
    }

    #[test]
    fn islip_improves_dmodk_fat_tree_under_uniform_load() {
        // VOQs cannot make a blocking routing nonblocking, but they remove
        // the HOL component of the loss.
        let ft = Ftree::new(4, 4, 8).unwrap();
        let router = DModK::new(&ft);
        let uni = Workload::uniform_random(32, 1.0);
        let hol = EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&uni, 35)
            .accepted_throughput();
        let voq = EventSimulator::new(
            ft.topology(),
            SimConfig {
                arbiter: Arbiter::Voq { iterations: 2 },
                ..cfg()
            },
            Policy::from_single_path(&router),
        )
        .run(&uni, 35)
        .accepted_throughput();
        assert!(voq > hol, "VOQ {voq} should beat HOL {hol}");
        assert!(
            voq < 0.98,
            "still not a crossbar: routing is the bottleneck"
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let config = cfg();
        let stats = EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 0.8), 22);
        assert!(stats.latency_p50 >= 2);
        assert!(stats.latency_p50 <= stats.latency_p95);
        assert!(stats.latency_p95 <= stats.latency_p99);
        assert!(stats.latency_p99 <= stats.latency_max);
    }

    #[test]
    fn drain_conserves_packets() {
        // With drain on, every injected packet is eventually delivered:
        // injected == delivered exactly, even under heavy contention.
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let config = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            drain: true,
            ..SimConfig::default()
        };
        let stats = EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 1.0), 44);
        assert_eq!(stats.leftover_packets, 0, "drain must empty the network");
        assert_eq!(stats.injected_total, stats.delivered_total);
        assert!(stats.injected_total > 0);
    }

    #[test]
    fn no_drain_reports_leftovers_consistently() {
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let stats = EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 1.0), 44);
        assert_eq!(
            stats.injected_total,
            stats.delivered_total + stats.leftover_packets,
            "conservation with in-flight remainder"
        );
        assert!(
            stats.leftover_packets > 0,
            "congested run leaves packets queued"
        );
    }

    #[test]
    fn same_seed_same_stats() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let w = Workload::permutation(&perm, 0.5);
        let a = EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&w, 11);
        let b = EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&w, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn try_run_rejects_invalid_config() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let bad = SimConfig {
            queue_capacity: 0,
            ..SimConfig::default()
        };
        let err = EventSimulator::new(ft.topology(), bad, Policy::from_single_path(&router))
            .try_run(&Workload::uniform_random(10, 0.5), 1)
            .unwrap_err();
        assert_eq!(
            err,
            crate::SimError::Config(crate::ConfigError::ZeroQueueCapacity)
        );
    }

    #[test]
    fn midrun_fault_with_retry_reroutes_multipath() {
        // Kill one uplink of switch 0 mid-run. The random multipath policy
        // re-picks on every retransmission, so timed-out packets eventually
        // dodge the dead channel and still get delivered. VOQ arbitration
        // matters here: under HOL FIFO a dead-destined head blocks its whole
        // input queue for a full TTL, collateral timeouts retransmit, and
        // the retry storm feeds on itself. The TTL is also sized so
        // dead-destined packets expire before they clog the shared input
        // buffer (accumulation rate x TTL < queue capacity).
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 60,
            retry: true,
            retry_limit: 10,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = FaultSchedule::new();
        faults.kill_channel(400, ft.up_channel(0, 1));
        let stats = EventSimulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
            .faulted(&Workload::permutation(&perm, 0.6), 9, &faults)
            .unwrap();
        assert!(stats.timed_out_total > 0, "dead uplink must strand packets");
        assert!(stats.retries_total > 0, "retry must retransmit them");
        assert!(stats.delivered_total > 0);
        assert!(stats.conservation_ok(), "{stats:?}");
        // Re-picking among 4 uplinks with 10 retries: abandonment is
        // possible but rare; the bulk must get through.
        assert!(
            stats.delivered_total > stats.injected_total * 9 / 10,
            "delivered {} of {}",
            stats.delivered_total,
            stats.injected_total
        );
    }

    #[test]
    fn midrun_fault_fixed_path_abandons() {
        // A fixed single-path policy re-picks the same dead path forever,
        // so with retries off every timed-out packet on the dead uplink is
        // abandoned — the contrast to the multipath test above.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        // Kill every uplink of switch 0: its flows have no live fixed path.
        let mut faults = FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(400, ft.up_channel(0, t));
        }
        let stats = EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .faulted(&Workload::permutation(&perm, 0.6), 9, &faults)
            .unwrap();
        assert!(stats.abandoned_total > 0, "stranded flows must be dropped");
        assert_eq!(stats.retries_total, 0, "retry is off");
        assert!(stats.delivered_total > 0, "unaffected switches still flow");
        assert!(stats.conservation_ok(), "{stats:?}");
    }

    #[test]
    fn fault_free_run_with_ttl_never_times_out() {
        // A generous TTL on a healthy nonblocking fabric is inert: no
        // timeouts, no retries, no drops — stats match a ttl-off run.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let config = SimConfig {
            ttl_cycles: 10_000,
            retry: true,
            retry_limit: 3,
            ..cfg()
        };
        let stats = EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run(&Workload::permutation(&perm, 0.9), 13)
            .unwrap();
        assert_eq!(stats.timed_out_total, 0);
        assert_eq!(stats.retries_total, 0);
        assert_eq!(stats.abandoned_total, 0);
        assert!(stats.accepted_throughput() > 0.85);
    }

    #[test]
    fn voq_islip_respects_dead_channels() {
        // Same stranded-flow scenario under the VOQ/iSLIP arbiter: dead
        // channels grant nothing, TTL cleans up, conservation holds.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ttl_cycles: 40,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(300, ft.up_channel(0, t));
        }
        let stats = EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .faulted(&Workload::permutation(&perm, 0.6), 17, &faults)
            .unwrap();
        assert!(stats.abandoned_total > 0);
        assert!(stats.delivered_total > 0);
        assert!(stats.conservation_ok(), "{stats:?}");
    }

    #[test]
    fn revival_restores_fixed_path_delivery() {
        // Outage and repair on a pinned single path: flows over switch 0
        // strand (and drop) while its uplinks are down, then flow again
        // after the revival — throughput in the final epoch recovers to the
        // pre-outage steady state.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        let mut schedule = ChurnSchedule::new();
        for t in 0..4 {
            schedule.kill_channel(600, ft.up_channel(0, t));
            schedule.revive_channel(1_200, ft.up_channel(0, t));
        }
        let churn = ChurnConfig {
            mode: ReplanMode::Pinned,
            epsilon: 0.1,
            recovery_window: 100,
        };
        let (stats, report) =
            EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .churned(&Workload::permutation(&perm, 0.6), 21, &schedule, &churn)
                .unwrap();
        assert!(stats.abandoned_total > 0, "outage must drop packets");
        assert!(stats.conservation_ok(), "{stats:?}");
        // Epochs: [0, 600) baseline, [600, 1200) outage, [1200, end) repaired.
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[1].downs, 4);
        assert_eq!(report.epochs[2].ups, 4);
        assert!(report.steady_rate > 0.0);
        let outage = &report.epochs[1];
        let repaired = &report.epochs[2];
        assert!(
            repaired.delivered_rate() > outage.delivered_rate(),
            "revival must lift throughput: {} vs {}",
            repaired.delivered_rate(),
            outage.delivered_rate()
        );
        assert!(
            repaired.reconverged_after.is_some(),
            "post-repair epoch must return to steady state: {report:?}"
        );
        assert!(outage.abandoned > 0);
        // Per-epoch counters must tile the run totals (conservation across
        // the revival boundary).
        let (inj, del, ab) = report.totals();
        assert_eq!(inj, stats.injected_total);
        assert_eq!(del, stats.delivered_total);
        assert_eq!(ab, stats.abandoned_total);
        assert_eq!(report.packets_lost(), stats.abandoned_total);
    }

    #[test]
    fn hysteresis_beats_per_cycle_replanning_under_flapping() {
        // A flapping uplink with short stable windows: per-cycle
        // re-planning readmits the link the moment it revives and strands
        // the packets it then routes onto it, while hysteresis with
        // K > the up-interval never trusts it again. Same seed, same
        // schedule — hysteresis must deliver strictly more.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 3_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        // Down 100 cycles, up 20 cycles, repeated.
        let flapper = ft.up_channel(0, 1);
        let mut schedule = ChurnSchedule::new();
        let mut t = 400;
        while t < 3_000 {
            schedule.kill_link(t, ft.topology(), flapper);
            schedule.revive_link(t + 100, ft.topology(), flapper);
            t += 120;
        }
        let run = |mode: ReplanMode| {
            let churn = ChurnConfig {
                mode,
                epsilon: 0.1,
                recovery_window: 50,
            };
            EventSimulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                .churned(&Workload::permutation(&perm, 0.6), 33, &schedule, &churn)
                .unwrap()
        };
        let (per_cycle, _) = run(ReplanMode::PerCycle);
        let (hysteresis, _) = run(ReplanMode::Hysteresis { k: 200 });
        assert!(per_cycle.conservation_ok());
        assert!(hysteresis.conservation_ok());
        assert!(
            hysteresis.delivered_total > per_cycle.delivered_total,
            "hysteresis {} must beat per-cycle {}",
            hysteresis.delivered_total,
            per_cycle.delivered_total
        );
        assert!(
            hysteresis.timed_out_total < per_cycle.timed_out_total,
            "damping must cut timeouts: {} vs {}",
            hysteresis.timed_out_total,
            per_cycle.timed_out_total
        );
    }

    #[test]
    fn per_cycle_replanning_beats_pinned_routing() {
        // Pinned multipath keeps spraying packets onto the dead link for
        // the whole outage; per-cycle masking stops doing so immediately.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut schedule = ChurnSchedule::new();
        schedule.kill_link(400, ft.topology(), ft.up_channel(0, 1));
        let run = |mode: ReplanMode| {
            let churn = ChurnConfig {
                mode,
                ..ChurnConfig::default()
            };
            EventSimulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                .churned(&Workload::permutation(&perm, 0.6), 5, &schedule, &churn)
                .unwrap()
        };
        let (pinned, _) = run(ReplanMode::Pinned);
        let (per_cycle, _) = run(ReplanMode::PerCycle);
        assert!(
            per_cycle.timed_out_total < pinned.timed_out_total,
            "masking must avoid the dead link: {} vs {}",
            per_cycle.timed_out_total,
            pinned.timed_out_total
        );
        assert!(per_cycle.delivered_total >= pinned.delivered_total);
    }

    /// A recorded run equals the plain run and flushes the `evsim.*`
    /// vocabulary under either schedule, conserving packets per epoch.
    fn recorded_run_flushes_counters_and_epochs<S: Schedule>() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        let mut faults = FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(400, ft.up_channel(0, t));
            faults.revive_channel(900, ft.up_channel(0, t));
        }
        let w = Workload::permutation(&perm, 0.6);
        let sim = || Engine::<S>::new(ft.topology(), config, Policy::from_single_path(&router));
        let plain = sim().faulted(&w, 9, &faults).unwrap();
        let reg = ftclos_obs::Registry::new();
        let spec = RunSpec {
            faults: Some(&faults),
            churn: None,
        };
        let (recorded, report) = sim().try_run_with(&w, 9, &spec, &reg).unwrap();
        assert_eq!(plain, recorded, "recording must not perturb the run");
        assert!(report.is_none(), "no churn config, no report");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("evsim.injected"), Some(plain.injected_total));
        assert_eq!(snap.counter("evsim.delivered"), Some(plain.delivered_total));
        assert_eq!(snap.counter("evsim.abandoned"), Some(plain.abandoned_total));
        assert_eq!(snap.gauge("evsim.in_flight"), Some(plain.leftover_packets));
        assert!(snap.spans.iter().any(|s| s.path == "evsim.run"));
        assert!(snap.counter("evsim.busy_component_cycles").unwrap_or(0) > 0);
        let cycles = snap.counter("evsim.cycles").unwrap_or(0);
        let executed = snap.counter("evsim.executed_cycles").unwrap_or(0);
        let skipped = snap.counter("evsim.skipped_cycles").unwrap_or(0);
        assert!(cycles > 0);
        assert_eq!(executed + skipped, cycles, "every cycle executes or skips");
        if !S::SPARSE {
            assert_eq!(skipped, 0, "the dense schedule executes every cycle");
        }
        // Epochs: one per transition cycle (400 and 900) plus the final
        // "end" mark, each conserving injected = delivered + abandoned +
        // in-flight at its boundary.
        assert_eq!(snap.epochs.len(), 3);
        assert_eq!(snap.epochs[0].label, "cycle=400");
        assert_eq!(snap.epochs[1].label, "cycle=900");
        assert_eq!(snap.epochs[2].label, "end");
        for e in &snap.epochs {
            assert_eq!(
                e.counter("evsim.injected"),
                e.counter("evsim.delivered")
                    + e.counter("evsim.abandoned")
                    + e.gauge("evsim.in_flight"),
                "epoch {} must conserve packets",
                e.label
            );
        }
    }

    #[test]
    fn recorded_runs_flush_counters_under_both_schedules() {
        recorded_run_flushes_counters_and_epochs::<Dense>();
        recorded_run_flushes_counters_and_epochs::<Sparse>();
    }

    #[test]
    fn churn_run_without_events_matches_plain_run() {
        // An empty schedule under any replan mode is exactly the fault-free
        // run: one baseline epoch, no transitions, equal stats.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let plain = EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .try_run(&Workload::permutation(&perm, 0.9), 13)
            .unwrap();
        let (churned, report) =
            EventSimulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
                .churned(
                    &Workload::permutation(&perm, 0.9),
                    13,
                    &ChurnSchedule::new(),
                    &ChurnConfig::default(),
                )
                .unwrap();
        assert_eq!(plain, churned);
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.transitions(), 0);
        assert!(report.steady_rate > 0.0);
    }

    /// Run both schedules on the same inputs and require exact equality.
    fn assert_schedules_agree(
        topo: &Topology,
        config: SimConfig,
        policy: &Policy,
        w: &Workload,
        seed: u64,
        faults: &FaultSchedule,
    ) -> SimStats {
        let dense = Simulator::new(topo, config, policy.clone())
            .faulted(w, seed, faults)
            .unwrap();
        let sparse = EventSimulator::new(topo, config, policy.clone())
            .faulted(w, seed, faults)
            .unwrap();
        assert_eq!(dense, sparse, "schedules diverged");
        sparse
    }

    #[test]
    fn schedules_agree_on_permutations() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let policy = Policy::from_single_path(&router);
        let perm = patterns::shift(10, 3);
        for rate in [0.2, 0.9] {
            for arbiter in [Arbiter::HolFifo, Arbiter::Voq { iterations: 2 }] {
                let config = SimConfig { arbiter, ..cfg() };
                let stats = assert_schedules_agree(
                    ft.topology(),
                    config,
                    &policy,
                    &Workload::permutation(&perm, rate),
                    7,
                    &FaultSchedule::new(),
                );
                assert!(stats.delivered_total > 0);
            }
        }
    }

    #[test]
    fn schedules_agree_on_congested_uniform_traffic() {
        // DModK on a thin fabric congests hard: deep queues, HOL blocking,
        // leftover packets — the adversarial case for grant-order replay.
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let policy = Policy::from_single_path(&router);
        let stats = assert_schedules_agree(
            ft.topology(),
            cfg(),
            &policy,
            &Workload::uniform_random(10, 1.0),
            44,
            &FaultSchedule::new(),
        );
        assert!(stats.leftover_packets > 0, "congestion expected");
    }

    #[test]
    fn schedules_agree_with_drain_and_multiflit() {
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let policy = Policy::from_single_path(&router);
        let config = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            drain: true,
            packet_flits: 3,
            ..SimConfig::default()
        };
        let stats = assert_schedules_agree(
            ft.topology(),
            config,
            &policy,
            &Workload::uniform_random(10, 1.0),
            44,
            &FaultSchedule::new(),
        );
        assert_eq!(stats.leftover_packets, 0, "drain must empty the network");
    }

    #[test]
    fn schedules_agree_under_faults_retry_and_spreading() {
        // Random multipath spreading consumes RNG on every pick; faults
        // plus TTL retries exercise the timeout sweep ordering.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let policy = Policy::from_multipath(&mp, true);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 60,
            retry: true,
            retry_limit: 10,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = FaultSchedule::new();
        faults.kill_channel(400, ft.up_channel(0, 1));
        let stats = assert_schedules_agree(
            ft.topology(),
            config,
            &policy,
            &Workload::permutation(&perm, 0.6),
            9,
            &faults,
        );
        assert!(stats.timed_out_total > 0);
        assert!(stats.retries_total > 0);
        assert!(stats.conservation_ok());
    }

    #[test]
    fn schedules_agree_under_churn_modes() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut schedule = ChurnSchedule::new();
        schedule.kill_link(400, ft.topology(), ft.up_channel(0, 1));
        schedule.revive_link(900, ft.topology(), ft.up_channel(0, 1));
        for mode in [
            ReplanMode::Pinned,
            ReplanMode::PerCycle,
            ReplanMode::Hysteresis { k: 150 },
        ] {
            let churn = ChurnConfig {
                mode,
                epsilon: 0.1,
                recovery_window: 50,
            };
            let w = Workload::permutation(&perm, 0.6);
            let (dense, dense_report) =
                Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                    .churned(&w, 33, &schedule, &churn)
                    .unwrap();
            let (sparse, sparse_report) =
                EventSimulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                    .churned(&w, 33, &schedule, &churn)
                    .unwrap();
            assert_eq!(dense, sparse, "stats diverged under {mode:?}");
            assert_eq!(dense_report, sparse_report, "report diverged: {mode:?}");
        }
    }

    #[test]
    fn schedules_agree_on_stall_diagnosis() {
        // Pinned valley routes wedge the fabric; both schedules must return
        // the identical Stalled error (cycle, strands, wait cycle).
        let ft = Ftree::new(1, 1, 4).unwrap();
        let routes = valley_routes(&ft);
        let policy = || {
            Policy::from_pinned(
                ft.topology(),
                routes.iter().map(|(s, d, p)| (*s, *d, p.as_slice())),
            )
            .unwrap()
        };
        let pairs: Vec<(u32, u32)> = routes.iter().map(|(s, d, _)| (*s, *d)).collect();
        let w = Workload::fixed_pairs(4, &pairs, 1.0);
        let config = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 200,
            queue_capacity: 2,
            drain: true,
            stall_watchdog: 64,
            ..SimConfig::default()
        };
        let dense = Simulator::new(ft.topology(), config, policy())
            .try_run(&w, 0xDEAD)
            .unwrap_err();
        let sparse = EventSimulator::new(ft.topology(), config, policy())
            .try_run(&w, 0xDEAD)
            .unwrap_err();
        assert_eq!(dense, sparse);
        assert!(matches!(sparse, SimError::Stalled(_)));
    }

    #[test]
    fn drain_fast_forward_skips_cycles_and_hits_the_cap_stall() {
        // With the watchdog too long to fire before the drain cap, the
        // wedged run must stall out at exactly the cap cycle — and the
        // sparse schedule must get there by jumping, not spinning.
        let ft = Ftree::new(1, 1, 4).unwrap();
        let routes = valley_routes(&ft);
        let policy = Policy::from_pinned(
            ft.topology(),
            routes.iter().map(|(s, d, p)| (*s, *d, p.as_slice())),
        )
        .unwrap();
        let pairs: Vec<(u32, u32)> = routes.iter().map(|(s, d, _)| (*s, *d)).collect();
        let w = Workload::fixed_pairs(4, &pairs, 1.0);
        let config = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 50,
            queue_capacity: 2,
            drain: true,
            stall_watchdog: 2 * SimConfig::DRAIN_CAP,
            ..SimConfig::default()
        };
        let reg = ftclos_obs::Registry::new();
        let err = EventSimulator::new(ft.topology(), config, policy)
            .try_run_recorded(&w, 0xDEAD, &reg)
            .unwrap_err();
        let SimError::Stalled(report) = err else {
            panic!("expected Stalled at the drain cap, got {err}");
        };
        assert_eq!(report.cycle, 50 + SimConfig::DRAIN_CAP);
        let snap = reg.snapshot();
        let skipped = snap.counter("evsim.skipped_cycles").unwrap_or(0);
        assert!(
            skipped > SimConfig::DRAIN_CAP / 2,
            "fast-forward must skip most of the drain: {skipped}"
        );
        let executed = snap.counter("evsim.executed_cycles").unwrap_or(0);
        assert!(
            executed < 1_000,
            "wedged drain should execute few real cycles: {executed}"
        );
    }

    /// Hand-built "valley" routes on `ftree(1, 1, 4)` (the witness-module
    /// construction): route `v -> (v+3) % 4` walks three arcs of the
    /// 8-channel up/down cycle, realizing a circular credit wait.
    fn valley_routes(ft: &Ftree) -> Vec<(u32, u32, Vec<ChannelId>)> {
        let r = 4;
        (0..r)
            .map(|v| {
                let w = (v + 3) % r;
                let mut channels = vec![ft.leaf_up_channel(v, 0)];
                for k in 0..3 {
                    channels.push(ft.up_channel((v + k) % r, 0));
                    channels.push(ft.down_channel(0, (v + k + 1) % r));
                }
                channels.push(ft.leaf_down_channel(w, 0));
                (v as u32, w as u32, channels)
            })
            .collect()
    }
}
