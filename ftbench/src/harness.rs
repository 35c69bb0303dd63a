//! The closed-loop harness every workload runs under.
//!
//! One client, one thread: each job starts when the previous one finishes.
//! A run is
//!
//! 1. **set-up**, repeated [`SETUP_REPS`] times (fabric, routers, tables),
//!    each repetition dropped before the next; `setup_s` is the median;
//! 2. **passes** over the workload's fixed job list while the next one
//!    fits the measuring window (at least [`MIN_PASSES`] passes). The first pass
//!    also runs the expensive oracles; every pass folds its outputs into a
//!    digest that must equal the first pass's.
//!
//! With tracing on, passes alternate between the no-op recorder and a live
//! [`Registry`] (at least [`MIN_TRACED_PASSES`] of each), so the same run
//! yields the untraced baseline the tracing overhead is measured against.

use ftclos_obs::{Noop, Recorder, Registry, Snapshot};
use std::time::Instant;

/// Set-up repetitions per run (`setup_s` is their median).
pub const SETUP_REPS: usize = 5;

/// Minimum passes over the job list of an untraced run.
pub const MIN_PASSES: usize = 3;

/// Minimum passes per recorder mode of a traced run, whose times are not
/// graded; two keep traced runs as short as untraced ones.
pub const MIN_TRACED_PASSES: usize = 2;

/// What one job hands back to the harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobOut {
    /// Host seconds spent in calls into the program (oracles excluded).
    pub secs: f64,
    /// Whether the job is part of the per-job latency stream (whole-fabric
    /// checks count in `run_s` only).
    pub stream: bool,
    /// Packets the job's simulations delivered.
    pub delivered: u64,
    /// Hosts × simulated cycles of the job's simulations.
    pub host_cycles: u64,
}

/// One benchmark workload: a set-up and a fixed, seeded job list.
pub trait Workload {
    /// What set-up builds first: the fabrics.
    type Fabric;
    /// What set-up derives from the fabrics: routers, tables, simulators.
    type Tables<'f>
    where
        Self: 'f;

    /// Workload name as given on the command line.
    fn name(&self) -> &'static str;

    /// Build the fabrics.
    ///
    /// # Errors
    /// A description of the construction failure.
    fn build<R: Recorder>(&self, rec: &R) -> Result<Self::Fabric, String>;

    /// Build routers and tables over `fabric`.
    ///
    /// # Errors
    /// A description of the construction failure.
    fn tables<'f, R: Recorder>(
        &'f self,
        fabric: &'f Self::Fabric,
        rec: &R,
    ) -> Result<Self::Tables<'f>, String>;

    /// Jobs per pass.
    fn num_jobs(&self) -> usize;

    /// Run job `i`, check its outputs into `ck`, and fold them into the
    /// digest. Only the calls into the program count in [`JobOut::secs`].
    fn job<R: Recorder>(
        &self,
        t: &mut Self::Tables<'_>,
        i: usize,
        rec: &R,
        ck: &mut Checker,
    ) -> JobOut;

    /// Oracles too expensive for every pass, run once after the first
    /// pass. Returns the host seconds of the engine run they replay
    /// (reported as `sim.cycle_run_s`), 0 when they replay none.
    fn once_oracles(&self, _t: &mut Self::Tables<'_>, _ck: &mut Checker) -> f64 {
        0.0
    }
}

/// Time `f` as one job: wall clock plus a root `job` span, so the traced
/// run can say how much of the job its layer spans cover.
pub fn timed<R: Recorder, T>(rec: &R, f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = {
        let _job = rec.span("job");
        f()
    };
    (t0.elapsed().as_secs_f64(), out)
}

/// Counts failed jobs and folds outputs into the run digest.
///
/// A failed check never panics: it marks the current job failed and prints
/// the seed, fabric and job so the failure can be reproduced.
#[derive(Debug)]
pub struct Checker {
    workload: &'static str,
    seed: u64,
    fabric: String,
    job: String,
    job_failed: bool,
    failed_jobs: u64,
    /// Run the expensive oracles (first pass only).
    pub full: bool,
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Checker {
    /// A checker for one run of `workload` at `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            fabric: String::new(),
            job: String::new(),
            job_failed: false,
            failed_jobs: 0,
            full: true,
            digest: FNV_OFFSET,
        }
    }

    /// Start checking a job on `fabric`.
    pub fn begin(&mut self, fabric: &str, job: String) {
        self.fabric.clear();
        self.fabric.push_str(fabric);
        self.job = job;
        self.job_failed = false;
    }

    /// Record one oracle verdict; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            return;
        }
        println!(
            "FAIL workload={} seed={} fabric={} job={}: {}",
            self.workload,
            self.seed,
            self.fabric,
            self.job,
            what()
        );
        if !self.job_failed {
            self.job_failed = true;
            self.failed_jobs += 1;
        }
    }

    /// Fold one output value into the digest (FNV-1a over its text).
    pub fn fold(&mut self, value: impl std::fmt::Display) {
        for b in value.to_string().bytes().chain([b'|']) {
            self.fold_byte(b);
        }
    }

    /// Fold one integer into the digest.
    pub fn fold_u64(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.fold_byte(b);
        }
    }

    fn fold_byte(&mut self, b: u8) {
        self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Jobs that failed at least one check so far.
    pub fn failed_jobs(&self) -> u64 {
        self.failed_jobs
    }

    /// The digest folded since the last [`Checker::take_digest`].
    pub fn take_digest(&mut self) -> u64 {
        std::mem::replace(&mut self.digest, FNV_OFFSET)
    }
}

/// Derive an independent 64-bit seed for `(stream, index)` from the run
/// seed (SplitMix64 finalizer), so each job's inputs depend only on the
/// run seed and the job's place in the list.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-job host seconds of every pass run under one recorder mode.
#[derive(Debug, Default)]
pub struct PassTimes {
    /// `per_job[i]` holds job `i`'s time in each pass.
    pub per_job: Vec<Vec<f64>>,
    /// `stream[i]`: job `i` is part of the per-job latency stream.
    pub stream: Vec<bool>,
    /// Passes run.
    pub passes: usize,
    /// Packets delivered per pass (identical in every pass).
    pub delivered: u64,
    /// Hosts × simulated cycles per pass.
    pub host_cycles: u64,
}

impl PassTimes {
    fn record(&mut self, i: usize, out: JobOut) {
        if self.per_job.len() <= i {
            self.per_job.resize_with(i + 1, Vec::new);
            self.stream.resize(i + 1, false);
        }
        self.per_job[i].push(out.secs);
        self.stream[i] = out.stream;
    }

    /// Host seconds of each pass.
    pub fn pass_totals(&self) -> Vec<f64> {
        (0..self.passes)
            .map(|p| self.per_job.iter().map(|t| t[p]).sum())
            .collect()
    }

    /// Host seconds of one pass over the fixed job list: the sum over
    /// jobs of each job's best (least) time over the passes. Outside load
    /// on a shared host only ever adds time, so the best of several passes
    /// tracks the program and not the neighbours.
    pub fn run_s(&self) -> f64 {
        self.per_job.iter().map(|t| best(t)).sum()
    }

    /// Each stream job's best time over the passes: the latency
    /// distribution the job percentiles are taken from, one sample per
    /// distinct job, so a pass slowed by outside load moves no tail.
    pub fn stream_best(&self) -> Vec<f64> {
        self.per_job
            .iter()
            .zip(&self.stream)
            .filter(|(_, &s)| s)
            .map(|(t, _)| best(t))
            .collect()
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Measured {
    /// Set-up host seconds of each repetition.
    pub setup: Vec<f64>,
    /// Passes under the no-op recorder.
    pub plain: PassTimes,
    /// Passes under the live registry (tracing only).
    pub traced: PassTimes,
    /// Set-up registry (tracing only; covers every repetition).
    pub setup_trace: Option<Snapshot>,
    /// Run registry (tracing only; covers every traced pass).
    pub run_trace: Option<Snapshot>,
    /// Host seconds of the once-per-run oracle's engine replay.
    pub once_oracle_s: f64,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed or failed an oracle.
    pub failed: u64,
    /// Output digest of the first pass.
    pub digest: u64,
}

/// Run `w` for `seconds` of passes, traced or not.
///
/// # Errors
/// Set-up failures (the fabric or its tables could not be built).
pub fn run<W: Workload>(w: &W, seed: u64, seconds: f64, trace: bool) -> Result<Measured, String> {
    let setup_reg = Registry::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    // Every repetition but the last is dropped before the next starts, so
    // peak memory holds one set-up, not several.
    for _ in 1..SETUP_REPS {
        let t0 = Instant::now();
        let fabric = build(w, &setup_reg, trace)?;
        let tables = tables(w, &fabric, &setup_reg, trace)?;
        setup.push(t0.elapsed().as_secs_f64());
        drop(tables);
        drop(fabric);
    }
    let t0 = Instant::now();
    let fabric = build(w, &setup_reg, trace)?;
    let mut t = tables(w, &fabric, &setup_reg, trace)?;
    setup.push(t0.elapsed().as_secs_f64());

    let run_reg = Registry::new();
    let mut ck = Checker::new(w.name(), seed);
    let mut plain = PassTimes::default();
    let mut traced = PassTimes::default();
    let mut once_oracle_s = 0.0;
    let mut attempted = 0u64;
    let mut first_digest = None;
    let t_run = Instant::now();
    let enough = |plain: &PassTimes, traced: &PassTimes| {
        if trace {
            plain.passes.min(traced.passes) >= MIN_TRACED_PASSES
        } else {
            plain.passes >= MIN_PASSES
        }
    };
    let mut last_pass = 0.0;
    for pass in 0.. {
        // Stop once enough passes ran and the next would end past the
        // window, so a run lasts about `seconds` whatever a pass takes.
        let elapsed = t_run.elapsed().as_secs_f64();
        if elapsed + last_pass > seconds && enough(&plain, &traced) {
            break;
        }
        let t_pass = Instant::now();
        let use_trace = trace && pass % 2 == 1;
        let times = if use_trace { &mut traced } else { &mut plain };
        let (mut delivered, mut host_cycles) = (0, 0);
        for i in 0..w.num_jobs() {
            let out = if use_trace {
                w.job(&mut t, i, &run_reg, &mut ck)
            } else {
                w.job(&mut t, i, &Noop, &mut ck)
            };
            times.record(i, out);
            delivered += out.delivered;
            host_cycles += out.host_cycles;
            attempted += 1;
        }
        last_pass = t_pass.elapsed().as_secs_f64();
        times.passes += 1;
        times.delivered = delivered;
        times.host_cycles = host_cycles;
        let digest = ck.take_digest();
        match first_digest {
            None => {
                first_digest = Some(digest);
                once_oracle_s = w.once_oracles(&mut t, &mut ck);
                ck.full = false;
            }
            Some(d) => {
                attempted += 1;
                ck.begin("all", format!("pass{pass}-digest"));
                ck.check(d == digest, || {
                    format!("pass digest {digest:016x} differs from first pass {d:016x}")
                });
            }
        }
    }
    Ok(Measured {
        setup,
        plain,
        traced,
        setup_trace: trace.then(|| setup_reg.snapshot()),
        run_trace: trace.then(|| run_reg.snapshot()),
        once_oracle_s,
        attempted,
        failed: ck.failed_jobs(),
        digest: first_digest.unwrap_or(0),
    })
}

fn build<W: Workload>(w: &W, reg: &Registry, trace: bool) -> Result<W::Fabric, String> {
    if trace {
        w.build(reg)
    } else {
        w.build(&Noop)
    }
}

fn tables<'f, W: Workload>(
    w: &'f W,
    fabric: &'f W::Fabric,
    reg: &Registry,
    trace: bool,
) -> Result<W::Tables<'f>, String> {
    if trace {
        w.tables(fabric, reg)
    } else {
        w.tables(fabric, &Noop)
    }
}

/// Least value of `v` (0 for an empty slice).
pub fn best(v: &[f64]) -> f64 {
    quantile(v, 0.0)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Serializes the tests that run workloads, so the timing self-test has
/// the cores to itself.
#[cfg(test)]
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static CORES: std::sync::Mutex<()> = std::sync::Mutex::new(());
    CORES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checker_counts_each_failed_job_once() {
        let mut ck = Checker::new("t", 7);
        ck.begin("f", "j0".into());
        ck.check(false, || "a".into());
        ck.check(false, || "b".into());
        ck.begin("f", "j1".into());
        ck.check(true, || unreachable!());
        assert_eq!(ck.failed_jobs(), 1);
    }

    #[test]
    fn digest_depends_on_every_value() {
        let mut a = Checker::new("t", 0);
        a.fold(1);
        a.fold(23);
        let mut b = Checker::new("t", 0);
        b.fold(12);
        b.fold(3);
        assert_ne!(a.take_digest(), b.take_digest());
        assert_eq!(a.take_digest(), b.take_digest());
    }

    #[test]
    fn sub_seeds_differ_by_stream_and_index() {
        assert_ne!(sub_seed(1, 0, 0), sub_seed(1, 0, 1));
        assert_ne!(sub_seed(1, 0, 0), sub_seed(1, 1, 0));
        assert_ne!(sub_seed(1, 0, 0), sub_seed(2, 0, 0));
        assert_eq!(sub_seed(5, 3, 9), sub_seed(5, 3, 9));
    }
}
