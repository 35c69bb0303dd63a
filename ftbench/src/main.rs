//! The ftclos benchmark: end-to-end and per-layer metrics of the analysis
//! and simulation stack on three seeded workloads.
//!
//! ```text
//! ftclos-perfbench --workload <verify|sim-saturated|scale-sparse|all>
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report the
//! end-to-end metrics; traced runs (`--trace 1`) the per-layer ones.
//! `--workload all` runs each workload untraced and then traced (or only as
//! `--trace` says), each run in a child process of its own, so each peak RSS
//! belongs to one workload.

mod harness;
mod layers;
mod saturated;
mod sparse;
mod verify;

use harness::{median, peak_rss_mib, quantile, Measured, Workload};
use layers::{metric, Metric};
use std::process::{Command, ExitCode};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["verify", "sim-saturated", "scale-sparse"];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// `None` when not given: one workload runs untraced, `all` runs both.
    trace: Option<bool>,
}

fn usage() -> String {
    format!(
        "usage: ftclos-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftclos-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "all" => run_all(&args),
        "verify" => run_one(&verify::Verify::new(args.seed), &args),
        "sim-saturated" => run_one(&saturated::Saturated::new(args.seed), &args),
        _ => run_one(&sparse::Sparse::new(args.seed), &args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftclos-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every workload in a child process of its own, untraced and then
/// traced unless `--trace` picks one.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let modes = args
        .trace
        .map_or(vec!["0", "1"], |t| vec![if t { "1" } else { "0" }]);
    for name in WORKLOADS {
        for &trace in &modes {
            let status = Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| format!("cannot run {name}: {e}"))?;
            if !status.success() {
                return Err(format!("{name} --trace {trace} exited with {status}"));
            }
        }
    }
    Ok(())
}

fn run_one<W: Workload>(w: &W, args: &Args) -> Result<(), String> {
    let trace = args.trace.unwrap_or(false);
    println!("{}", fingerprint());
    println!(
        "workload {} seed={} seconds={} trace={} closed-loop clients=1 threads=1",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(trace)
    );
    let m = harness::run(w, args.seed, args.seconds, trace)?;
    println!("digest {} seed={} {:016x}", w.name(), args.seed, m.digest);
    let metrics = if trace {
        traced_report(&m)
    } else {
        end_to_end_report(&m)
    };
    println!("{}", result_json(&m, &metrics));
    Ok(())
}

/// Print the end-to-end metrics; return the graded ones.
fn end_to_end_report(m: &Measured) -> Vec<Metric> {
    let run_s = m.plain.run_s();
    let stream_ms: Vec<f64> = m.plain.stream_best().iter().map(|s| s * 1e3).collect();
    let graded = vec![
        metric("setup_s", "s", median(&m.setup)),
        metric("run_s", "s", run_s),
        metric("job_p50_ms", "ms", quantile(&stream_ms, 0.5)),
        metric("job_p90_ms", "ms", quantile(&stream_ms, 0.9)),
        metric("peak_rss_mib", "MiB", peak_rss_mib().unwrap_or(0.0)),
    ];
    for g in &graded {
        println!(
            "{:<22} {:>16.6} {:<4} lower is better",
            g.name, g.value, g.unit
        );
    }
    println!(
        "  (setup_s: median of {} set-ups; run_s: per-job best of {} passes; \
         job latency: best times of {} jobs)",
        m.setup.len(),
        m.plain.passes,
        stream_ms.len()
    );
    println!("  set-ups s: {}", seconds_list(&m.setup));
    println!("  passes s:  {}", seconds_list(&m.plain.pass_totals()));
    if m.plain.delivered > 0 {
        println!(
            "{:<22} {:>16.1} {:<4} higher is better",
            "sim_packets_per_s",
            m.plain.delivered as f64 / run_s,
            "1/s"
        );
        println!(
            "{:<22} {:>16.1} {:<4} higher is better",
            "sim_host_cycles_per_s",
            m.plain.host_cycles as f64 / run_s,
            "1/s"
        );
    } else {
        println!("sim_packets_per_s      n/a (workload runs no simulation)");
        println!("sim_host_cycles_per_s  n/a (workload runs no simulation)");
    }
    println!(
        "{:<22} {:>16.6} {:<4} lower is better ({} of {} jobs failed)",
        "error_rate",
        m.failed as f64 / m.attempted.max(1) as f64,
        "",
        m.failed,
        m.attempted
    );
    graded
}

fn seconds_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Print the per-layer breakdown; return every per-layer metric.
fn traced_report(m: &Measured) -> Vec<Metric> {
    let metrics = layers::per_layer(m);
    println!(
        "traced passes {} (untraced {}), set-ups {}; times per set-up plus per pass",
        m.traced.passes,
        m.plain.passes,
        m.setup.len()
    );
    println!(
        "run_s untraced {:.6} s, traced {:.6} s (the base of obs.trace_overhead_pct)",
        m.plain.run_s(),
        m.traced.run_s()
    );
    for x in &metrics {
        println!("{:<28} {:>18.6} {}", x.name, x.value, x.unit);
    }
    metrics
}

/// The machine fingerprint recorded with every result set.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "fingerprint nproc={nproc} cpu={cpu:?} rustc={:?} git_rev={} RAYON_NUM_THREADS={rayon} \
         bench_threads=1",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The result line: one JSON object.
fn result_json(m: &Measured, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload verify --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "verify");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert_eq!(a.trace, Some(true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope",
            "--workload verify --trace 2",
            "--workload verify --seed -1",
            "--workload verify --seconds nan",
            "--workload verify --seed",
            "--workload verify --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
