//! Per-layer metrics from a traced run.
//!
//! The benchmark opens a span named `<layer>.<call>` around every call into
//! a layer, and passes the same registry to the program's `*_with` /
//! `*_recorded` entry points, whose own spans (`arena.build`, `cdg.scc`,
//! `evsim.run`, ...) nest inside. A layer's self time is the self time of
//! every span that belongs to it. Time metrics are per set-up for spans
//! opened during set-up plus per pass for spans opened during the run, so
//! they compare directly with `setup_s` and `run_s`.

use crate::harness::{Measured, SETUP_REPS};
use ftclos_obs::Snapshot;

/// The layers, in stack order.
pub const LAYERS: [&str; 7] = [
    "topo", "traffic", "routing", "core", "flowsim", "sim", "evsim",
];

/// The layer a span belongs to, from its name (`None` for the benchmark's
/// own `job` root).
pub fn layer_of(span: &str) -> Option<&'static str> {
    let prefix = span.split('.').next().unwrap_or(span);
    match prefix {
        "arena" | "congestion" => Some("routing"),
        "engine" | "cdg" => Some("core"),
        _ => LAYERS.iter().copied().find(|&l| l == prefix),
    }
}

/// Per-layer time metrics: `(metric, benchmark span)`.
const SPAN_TIMES: [(&str, &str); 13] = [
    ("topo.build_s", "topo.build"),
    ("traffic.gen_s", "traffic.gen"),
    ("routing.arena_build_s", "routing.arena_build"),
    ("routing.route_s", "routing.route"),
    ("routing.congestion_plan_s", "routing.congestion_plan"),
    ("core.census_s", "core.census"),
    ("core.audit_s", "core.audit"),
    ("core.scan_s", "core.scan"),
    ("core.two_pair_s", "core.two_pair"),
    ("core.cdg_s", "core.cdg"),
    ("flowsim.solve_s", "flowsim.solve"),
    ("sim.policy_build_s", "sim.policy_build"),
    ("evsim.run_s", "evsim.simulate"),
];

/// Per-pass work counts: `(metric, counter)`.
const RUN_COUNTS: [(&str, &str); 9] = [
    ("traffic.patterns", "traffic.patterns"),
    ("routing.paths_routed", "routing.paths_routed"),
    ("routing.congestion_moves", "congestion.moves"),
    ("routing.congestion_rounds", "congestion.rounds"),
    ("core.patterns_scanned", "core.patterns_scanned"),
    ("core.cdg_deps", "cdg.deps"),
    ("flowsim.rounds", "flowsim.rounds"),
    ("evsim.delivered", "evsim.delivered"),
    ("evsim.cycles", "evsim.cycles"),
];

/// Sizes: `(metric, unit, gauge)`, read from whichever phase set them.
const GAUGES: [(&str, &str, &str); 5] = [
    ("topo.bytes", "bytes", "topo.bytes"),
    ("topo.channels", "count", "topo.channels"),
    ("routing.arena_bytes", "bytes", "arena.bytes"),
    ("evsim.touched_channels", "count", "evsim.touched_channels"),
    ("evsim.state_bytes", "bytes", "evsim.state_bytes"),
];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A metric with its unit.
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn span_ns(snap: &Snapshot, name: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.total_ns)
        .sum()
}

/// Every per-layer metric of a traced run.
///
/// # Panics
/// If `m` was not measured with tracing on.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let setup = m.setup_trace.as_ref().expect("traced run");
    let run = m.run_trace.as_ref().expect("traced run");
    let passes = m.traced.passes.max(1) as f64;
    let reps = SETUP_REPS as f64;
    let per_unit = |setup_ns: u64, run_ns: u64| setup_ns as f64 / reps + run_ns as f64 / passes;
    let mut out = Vec::new();
    for (name, span) in SPAN_TIMES {
        out.push(metric(
            name,
            "s",
            per_unit(span_ns(setup, span), span_ns(run, span)) * 1e-9,
        ));
    }
    for layer in LAYERS {
        let self_ns = |snap: &Snapshot| -> u64 {
            snap.spans
                .iter()
                .filter(|s| layer_of(&s.name) == Some(layer))
                .map(|s| s.self_ns)
                .sum()
        };
        let v = per_unit(self_ns(setup), self_ns(run)) * 1e-9;
        out.push(metric(format!("{layer}.self_s"), "s", v));
    }
    for (name, counter) in RUN_COUNTS {
        let v = run.counter(counter).unwrap_or(0) as f64 / passes;
        out.push(metric(name, "count", v));
    }
    for (name, unit, gauge) in GAUGES {
        let v = run.gauge(gauge).or_else(|| setup.gauge(gauge)).unwrap_or(0);
        out.push(metric(name, unit, v as f64));
    }
    let delivered = run.counter("evsim.delivered").unwrap_or(0);
    let evsim_ns = span_ns(run, "evsim.simulate");
    out.push(metric(
        "evsim.ns_per_delivered",
        "ns",
        ratio(evsim_ns as f64, delivered as f64),
    ));
    out.push(metric(
        "evsim.executed_cycle_share",
        "ratio",
        ratio(
            run.counter("evsim.executed_cycles").unwrap_or(0) as f64,
            run.counter("evsim.cycles").unwrap_or(0) as f64,
        ),
    ));
    out.push(metric("sim.cycle_run_s", "s", m.once_oracle_s));
    out.push(metric(
        "obs.span_coverage_pct",
        "%",
        100.0 * run.child_coverage("job").unwrap_or(0.0),
    ));
    out.push(metric(
        "obs.trace_overhead_pct",
        "%",
        100.0 * (m.traced.run_s() / m.plain.run_s() - 1.0),
    ));
    out
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{median, run, timed, Checker, JobOut, Workload};
    use ftclos_obs::Recorder;
    use std::time::{Duration, Instant};

    /// A workload whose jobs call two layers for fixed times; the routing
    /// call is repeated `route_calls` times, so 2 is a wrapper that doubles
    /// that layer's call time and nothing else.
    struct Spin {
        route_calls: u32,
    }

    /// Long enough that a preempted spin overshoots by a small share.
    const CALL: Duration = Duration::from_millis(10);
    const JOBS: usize = 4;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    impl Workload for Spin {
        type Fabric = ();
        type Tables<'f> = ();

        fn name(&self) -> &'static str {
            "spin"
        }

        fn build<R: Recorder>(&self, _rec: &R) -> Result<(), String> {
            Ok(())
        }

        fn tables<'f, R: Recorder>(&'f self, _f: &'f (), _rec: &R) -> Result<(), String> {
            Ok(())
        }

        fn num_jobs(&self) -> usize {
            JOBS
        }

        fn job<R: Recorder>(&self, _t: &mut (), _i: usize, rec: &R, _ck: &mut Checker) -> JobOut {
            let (secs, ()) = timed(rec, || {
                {
                    let _s = rec.span("routing.route");
                    for _ in 0..self.route_calls {
                        spin(CALL);
                    }
                }
                let _s = rec.span("core.scan");
                spin(CALL);
            });
            JobOut {
                secs,
                stream: true,
                ..JobOut::default()
            }
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric")
            .value
    }

    #[test]
    fn doubling_one_layer_shows_in_that_layer_and_in_run_s() {
        let _cores = crate::harness::exclusive();
        // Interleaved pairs, judged by their medians: a host stall during
        // one run must not decide the verdict.
        let (mut route, mut scan, mut added, mut coverage) = (vec![], vec![], vec![], vec![]);
        for _ in 0..5 {
            let base = run(&Spin { route_calls: 1 }, 0, 0.0, true).expect("run");
            let slow = run(&Spin { route_calls: 2 }, 0, 0.0, true).expect("run");
            let (b, s) = (per_layer(&base), per_layer(&slow));
            route.push(value(&s, "routing.route_s") / value(&b, "routing.route_s"));
            scan.push(value(&s, "core.scan_s") / value(&b, "core.scan_s"));
            added.push(slow.plain.run_s() - base.plain.run_s());
            coverage.push(value(&s, "obs.span_coverage_pct"));
        }
        let (route, scan, added) = (median(&route), median(&scan), median(&added));
        assert!((1.5..2.6).contains(&route), "routing.route_s ratio {route}");
        assert!((0.6..1.6).contains(&scan), "core.scan_s ratio {scan}");
        let expected = (JOBS as u32 * CALL).as_secs_f64();
        assert!(
            added > 0.5 * expected,
            "run_s grew {added} s, expected ~{expected} s"
        );
        assert!(median(&coverage) > 95.0);
    }

    #[test]
    fn program_spans_map_to_their_layers() {
        assert_eq!(layer_of("arena.build"), Some("routing"));
        assert_eq!(layer_of("congestion.repair"), Some("routing"));
        assert_eq!(layer_of("engine.scan"), Some("core"));
        assert_eq!(layer_of("cdg.scc"), Some("core"));
        assert_eq!(layer_of("flowsim.waterfill"), Some("flowsim"));
        assert_eq!(layer_of("evsim.run"), Some("evsim"));
        assert_eq!(layer_of("sim.policy_build"), Some("sim"));
        assert_eq!(layer_of("job"), None);
    }
}
