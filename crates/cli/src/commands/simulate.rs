//! `ftclos simulate <n> <m> <r> [--router R] [--pattern P] [--rate F]
//! [--cycles N] [--arbiter hol|islip:K] [--seed S] [--fail-uplinks K]
//! [--fail-at C] [--json]` — packet-level run on the event-driven schedule
//! of the simulator kernel.
//!
//! `--fail-uplinks K` kills the links through the first `K` uplinks of
//! edge switch 0 at cycle `--fail-at` (default: half the warmed-up run).

use super::common::{build_ftree, make_pattern, parse_rate, route_named};
use crate::opts::{CliError, Opts};
use ftclos_obs::json::{Json, Obj};
use ftclos_obs::Registry;
use ftclos_routing::{DModK, SModK, YuanDeterministic};
use ftclos_sim::{
    Arbiter, EventSimulator, FaultSchedule, Policy, RunSpec, SimConfig, SimStats, Workload,
};
use ftclos_topo::Ftree;
use std::fmt::Write as _;

fn parse_arbiter(spec: &str) -> Result<Arbiter, CliError> {
    if spec == "hol" {
        return Ok(Arbiter::HolFifo);
    }
    if let Some(k) = spec.strip_prefix("islip:") {
        let iterations: u8 = k
            .parse()
            .map_err(|_| CliError::Usage(format!("islip wants an iteration count, got `{k}`")))?;
        return Ok(Arbiter::Voq { iterations });
    }
    if spec == "islip" {
        return Ok(Arbiter::Voq { iterations: 1 });
    }
    Err(CliError::Usage(format!(
        "unknown arbiter `{spec}` (hol | islip | islip:<k>)"
    )))
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let router = opts.flag("router").unwrap_or("yuan");
    let seed: u64 = opts.flag_or("seed", 0)?;
    let rate = parse_rate(opts, 1.0)?;
    let cycles: u64 = opts.flag_or("cycles", 2_000)?;
    let arbiter = parse_arbiter(opts.flag("arbiter").unwrap_or("hol"))?;
    let json: bool = opts.flag_or("json", false)?;
    let fail_uplinks: usize = opts.flag_or("fail-uplinks", 0)?;
    let fail_at: u64 = opts.flag_or("fail-at", cycles / 4 + cycles / 2)?;
    let spec = opts.flag("pattern").unwrap_or("random");
    let ports = ft.num_leaves() as u32;
    let perm = make_pattern(spec, ports, seed)?;

    if fail_uplinks > ft.m() {
        return Err(CliError::Usage(format!(
            "--fail-uplinks {fail_uplinks} exceeds the {} uplinks of an edge switch",
            ft.m()
        )));
    }
    let mut faults = FaultSchedule::new();
    for t in 0..fail_uplinks {
        faults.kill_link(fail_at, ft.topology(), ft.up_channel(0, t));
    }

    // Deterministic routers precompute all pair paths; pattern routers fix
    // the assignment for this permutation.
    let policy = match router {
        "yuan" => Policy::from_single_path(
            &YuanDeterministic::new(&ft).map_err(|e| CliError::Failed(e.to_string()))?,
        ),
        "dmodk" => Policy::from_single_path(&DModK::new(&ft)),
        "smodk" => Policy::from_single_path(&SModK::new(&ft)),
        other => Policy::from_assignment(&route_named(&ft, other, &perm)?),
    };
    let cfg = SimConfig {
        warmup_cycles: cycles / 4,
        measure_cycles: cycles,
        arbiter,
        ..SimConfig::default()
    };
    let workload = Workload::permutation(&perm, rate);
    let run_spec = RunSpec {
        faults: Some(&faults),
        churn: None,
    };
    let (stats, _) = EventSimulator::new(ft.topology(), cfg, policy)
        .try_run_with(&workload, seed ^ 0xC0FFEE, &run_spec, rec)
        .map_err(|e| CliError::Failed(e.to_string()))?;

    if json {
        return Ok(render_json(
            &ft,
            router,
            spec,
            rate,
            fail_uplinks,
            fail_at,
            &stats,
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulated `{spec}` at rate {rate} on ftree({}+{}, {}) with `{router}` ({arbiter:?}, event engine):",
        ft.n(),
        ft.m(),
        ft.r()
    );
    if fail_uplinks > 0 {
        let _ = writeln!(
            out,
            "  faults: {fail_uplinks} uplink(s) of edge switch 0 die at cycle {fail_at}"
        );
    }
    let _ = writeln!(
        out,
        "  accepted throughput = {:.3} packets/cycle/source (offered {rate})",
        stats.accepted_throughput()
    );
    let _ = writeln!(
        out,
        "  latency: mean {:.1}, p50 {}, p95 {}, p99 {}, max {} cycles",
        stats.mean_latency(),
        stats.latency_p50,
        stats.latency_p95,
        stats.latency_p99,
        stats.latency_max
    );
    let _ = writeln!(
        out,
        "  injected {} / delivered {} (window: {} / {})",
        stats.injected_total,
        stats.delivered_total,
        stats.injected_in_window,
        stats.delivered_in_window
    );
    Ok(out)
}

/// One flat JSON object: run parameters plus the run's statistics.
fn render_json(
    ft: &Ftree,
    router: &str,
    pattern: &str,
    rate: f64,
    fail_uplinks: usize,
    fail_at: u64,
    stats: &SimStats,
) -> String {
    Obj::new()
        .field("command", "simulate")
        .field("engine", "event")
        .field("n", ft.n())
        .field("m", ft.m())
        .field("r", ft.r())
        .field("router", router)
        .field("pattern", pattern)
        .field("rate", rate)
        .field("fail_uplinks", fail_uplinks)
        .field("fail_at", fail_at)
        .field("injected_total", stats.injected_total)
        .field("delivered_total", stats.delivered_total)
        .field("timed_out_total", stats.timed_out_total)
        .field("abandoned_total", stats.abandoned_total)
        .field("leftover_packets", stats.leftover_packets)
        .field("injection_refusals", stats.injection_refusals)
        .field(
            "accepted_throughput",
            Json::Fixed(stats.accepted_throughput(), 6),
        )
        .field("mean_latency", Json::Fixed(stats.mean_latency(), 3))
        .field("latency_p50", stats.latency_p50)
        .field("latency_p95", stats.latency_p95)
        .field("latency_p99", stats.latency_p99)
        .field("latency_max", stats.latency_max)
        .field("conservation_ok", stats.conservation_ok())
        .build()
        .write()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn nonblocking_line_rate() {
        let reg = Registry::new();
        let out = run(
            &argv("2 4 5 --pattern shift:3 --rate 0.9 --cycles 800"),
            &reg,
        )
        .unwrap();
        assert!(out.contains("accepted throughput"));
        let snap = reg.snapshot();
        assert!(snap.counter("evsim.injected").unwrap_or(0) > 0);
        assert!(snap.counter("evsim.executed_cycles").unwrap_or(0) > 0);
        assert!(snap.spans.iter().any(|s| s.path == "evsim.run"), "{snap:?}");
    }

    #[test]
    fn adaptive_policy_via_assignment() {
        let out = run(
            &argv("2 16 4 --router adaptive --pattern random --cycles 400"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("accepted throughput"));
    }

    #[test]
    fn out_of_range_rate_is_a_usage_error() {
        for rate in ["1.5", "-0.1", "NaN"] {
            let err = run(&argv(&format!("2 4 5 --rate {rate}")), &Registry::new()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "--rate {rate}: {err}");
        }
    }

    #[test]
    fn faulted_run_reports_the_outage() {
        let out = run(
            &argv("2 4 5 --pattern shift:3 --cycles 600 --fail-uplinks 2"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("2 uplink(s) of edge switch 0 die"), "{out}");
        let err = run(&argv("2 4 5 --fail-uplinks 9"), &Registry::new()).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn arbiter_parsing() {
        assert_eq!(parse_arbiter("hol").unwrap(), Arbiter::HolFifo);
        assert_eq!(
            parse_arbiter("islip:3").unwrap(),
            Arbiter::Voq { iterations: 3 }
        );
        assert_eq!(
            parse_arbiter("islip").unwrap(),
            Arbiter::Voq { iterations: 1 }
        );
        assert!(parse_arbiter("magic").is_err());
        assert!(parse_arbiter("islip:x").is_err());
    }
}
