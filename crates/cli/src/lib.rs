//! # ftclos-cli — command-line interface to the ftclos library
//!
//! ```text
//! ftclos design <radix>                      largest fabrics buildable from a switch radix
//! ftclos table1                              regenerate the paper's Table I
//! ftclos build  <n> <m> <r> [--dot FILE]     build ftree(n+m, r), print its census
//! ftclos verify <n> <m> <r> [--router R]     complete Lemma 1 nonblocking audit
//! ftclos route  <n> <m> <r> [--router R] [--pattern P] [--seed S]
//! ftclos simulate <n> <m> <r> [--router R] [--pattern P] [--rate F]
//!                 [--cycles N] [--arbiter hol|islip:K]
//!                 [--fail-uplinks K] [--fail-at C] [--seed S] [--json]
//! ftclos blocking <n> <m> <r> [--router R] [--samples N] [--seed S]
//! ftclos faults <n> <m> <r> [--fail-tops K] [--fail-links K] [--seed S]
//!               [--samples N] [--max-k K]
//! ftclos churn  <n> <m> <r> [--links K] [--mtbf N] [--mttr N] [--cycles N]
//!               [--rate F] [--mode pinned|percycle|hysteresis:K]
//!               [--samples N] [--seed S] [--target F --max-m M]
//! ftclos flowsim <n> <m> <r> [--router R] [--pattern P] [--seed S] [--json]
//!                [--fail-tops K] [--fail-links K]
//! ftclos congestion <n> <m> <r> [--mode greedy|rounded|repaired] [--pattern P]
//!                 [--seed S] [--trials N] [--fail-tops K] [--fail-links K]
//!                 [--churn-links K --mtbf N --mttr N --churn-cycles N] [--json]
//! ftclos deadlock <n> <m> <r> [--router R|valley|all] [--fail-tops K]
//!                 [--fail-links K] [--seed S] [--churn-links K] [--inject]
//!                 [--json]
//! ftclos campaign <n> <m> <r> [--property P] [--mode random|exhaustive]
//!                 [--k K] [--waves N] [--shrink] [--checkpoint FILE]
//!                 [--resume] [--confirm] [--json]
//! ftclos stats <trace.json> [--folded]       summarize a `--trace` output
//! ```
//!
//! Routers: `yuan` (Theorem 3, needs `m >= n²`), `dmodk`, `smodk`,
//! `adaptive` (NONBLOCKINGADAPTIVE), `greedy`, `rearrangeable`
//! (centralized edge coloring, needs `m >= n`).
//! Patterns: `shift:<k>`, `random`, `transpose`, `bitrev`, `neighbor`,
//! `tornado`, `identity`.
//!
//! Every command accepts `--trace FILE`: the run is instrumented through an
//! [`ftclos_obs::Registry`] (span timers + counters threaded down into the
//! engine/flowsim/sim hot paths) and the resulting trace JSON is written to
//! FILE. `ftclos stats FILE` summarizes a trace back into text.
//!
//! Every command is a pure function from arguments to output text, so the
//! whole surface is unit-testable.

pub mod commands;
pub mod opts;

use ftclos_obs::{Recorder as _, Registry};

pub use opts::{CliError, Opts};

/// Dispatch a full argument vector (excluding `argv[0]`) to a command.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    let rest = normalize_bare_flags(rest);
    let opts = Opts::parse(&rest)?;
    let reg = Registry::new();
    let out = dispatch(cmd, &opts, &reg)?;
    if let Some(path) = opts.flag("trace") {
        let trace = reg.snapshot().to_json(cmd, &rest.join(" "));
        std::fs::write(path, trace)
            .map_err(|e| CliError::Failed(format!("cannot write trace {path}: {e}")))?;
    }
    Ok(out)
}

/// Route one command to its implementation under a root span, so every
/// trace has a single `cmd.<name>` root whose children are the library
/// phases (`arena.build`, `engine.census`, `flowsim.waterfill`, ...).
fn dispatch(cmd: &str, opts: &Opts, reg: &Registry) -> Result<String, CliError> {
    match cmd {
        "design" => {
            let _s = reg.span("cmd.design");
            commands::design::run(opts, reg)
        }
        "table1" => {
            let _s = reg.span("cmd.table1");
            commands::table1::run(opts, reg)
        }
        "build" => {
            let _s = reg.span("cmd.build");
            commands::build::run(opts, reg)
        }
        "verify" => {
            let _s = reg.span("cmd.verify");
            commands::verify::run(opts, reg)
        }
        "route" => {
            let _s = reg.span("cmd.route");
            commands::route::run(opts, reg)
        }
        "simulate" => {
            let _s = reg.span("cmd.simulate");
            commands::simulate::run(opts, reg)
        }
        "blocking" => {
            let _s = reg.span("cmd.blocking");
            commands::blocking::run(opts, reg)
        }
        "faults" => {
            let _s = reg.span("cmd.faults");
            commands::faults::run(opts, reg)
        }
        "churn" => {
            let _s = reg.span("cmd.churn");
            commands::churn::run(opts, reg)
        }
        "deadlock" => {
            let _s = reg.span("cmd.deadlock");
            commands::deadlock::run(opts, reg)
        }
        "campaign" => {
            let _s = reg.span("cmd.campaign");
            commands::campaign::run(opts, reg)
        }
        "flowsim" => {
            let _s = reg.span("cmd.flowsim");
            commands::flowsim::run(opts, reg)
        }
        "congestion" => {
            let _s = reg.span("cmd.congestion");
            commands::congestion::run(opts, reg)
        }
        "stats" => commands::stats::run(opts, reg),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

/// Flags that are boolean switches: `--json` alone means `--json true`, so
/// the value-taking [`Opts::parse`] grammar stays unchanged for everything
/// else.
const BARE_FLAGS: &[&str] = &[
    "--json",
    "--folded",
    "--inject",
    "--shrink",
    "--resume",
    "--confirm",
];

fn normalize_bare_flags(args: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len() + 1);
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        out.push(a.clone());
        if BARE_FLAGS.contains(&a.as_str()) {
            let has_value = it.peek().is_some_and(|next| !next.starts_with("--"));
            if !has_value {
                out.push("true".to_string());
            }
        }
    }
    out
}

/// Top-level usage text.
pub const USAGE: &str = "\
ftclos — nonblocking folded-Clos networks (Yuan, IPDPS 2011)

USAGE:
  ftclos design <radix>
  ftclos table1
  ftclos build  <n> <m> <r> [--dot FILE]
  ftclos verify <n> <m> <r> [--router yuan|dmodk|smodk]
  ftclos route  <n> <m> <r> [--router R] [--pattern P] [--seed S]
  ftclos simulate <n> <m> <r> [--router R] [--pattern P] [--rate F]
                  [--cycles N] [--arbiter hol|islip:K]
                  [--fail-uplinks K] [--fail-at C] [--seed S] [--json]
  ftclos blocking <n> <m> <r> [--router R] [--samples N] [--seed S]
  ftclos faults <n> <m> <r> [--fail-tops K] [--fail-links K] [--seed S]
                [--samples N] [--max-k K]
  ftclos churn  <n> <m> <r> [--links K] [--mtbf N] [--mttr N] [--cycles N]
                [--rate F] [--mode pinned|percycle|hysteresis:K]
                [--samples N] [--seed S] [--target F --max-m M]
  ftclos flowsim <n> <m> <r> [--router R] [--pattern P] [--seed S] [--json]
                 [--fail-tops K] [--fail-links K]
  ftclos congestion <n> <m> <r> [--mode greedy|rounded|repaired] [--pattern P]
                  [--seed S] [--trials N] [--fail-tops K] [--fail-links K]
                  [--churn-links K --mtbf N --mttr N --churn-cycles N] [--json]
  ftclos deadlock <n> <m> <r> [--router yuan|dmodk|smodk|multipath|adaptive|valley|all]
                  [--fail-tops K] [--fail-links K] [--seed S]
                  [--churn-links K --mtbf N --mttr N --churn-cycles N]
                  [--inject] [--inject-cycles N] [--queue-capacity K] [--json]
  ftclos campaign <n> <m> <r> [--property routability|deterministic|nonblocking|deadlock]
                  [--mode random|exhaustive] [--k K] [--universe tops|links|mixed]
                  [--waves N] [--wave-size N] [--links K] [--switches K]
                  [--samples N] [--router yuan|dmodk|smodk|valley] [--seed S]
                  [--shrink] [--checkpoint FILE] [--resume] [--halt-after N]
                  [--confirm] [--confirm-cycles N] [--watchdog N]
                  [--queue-capacity K] [--json]
  ftclos stats <trace.json> [--folded]

Every command also accepts `--trace FILE` to write a span/counter trace
(JSON); summarize it with `ftclos stats`, or re-emit it as folded stacks
for flamegraph tooling with `ftclos stats FILE --folded`.

PATTERNS: shift:<k> random transpose bitrev neighbor tornado identity
ROUTERS:  yuan dmodk smodk adaptive greedy rearrangeable
          (flowsim also accepts: multipath)";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(matches!(run(&argv("frobnicate")), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_design() {
        let out = run(&argv("design 20")).unwrap();
        assert!(out.contains("80"), "20-port design yields 80 ports: {out}");
    }

    #[test]
    fn end_to_end_verify() {
        let out = run(&argv("verify 2 4 5")).unwrap();
        assert!(out.contains("NONBLOCKING"), "{out}");
        let out = run(&argv("verify 2 2 5 --router dmodk")).unwrap();
        assert!(out.contains("BLOCKING"), "{out}");
    }

    #[test]
    fn end_to_end_route_and_simulate() {
        let out = run(&argv("route 2 4 5 --pattern shift:3")).unwrap();
        assert!(out.contains("max channel load = 1"), "{out}");
        let out = run(&argv(
            "simulate 2 4 5 --pattern shift:3 --rate 0.8 --cycles 500",
        ))
        .unwrap();
        assert!(out.contains("accepted throughput"), "{out}");
    }

    #[test]
    fn end_to_end_faults() {
        let out = run(&argv("faults 2 4 5 --fail-tops 1 --samples 5 --max-k 0")).unwrap();
        assert!(out.contains("pairs routable"), "{out}");
        assert!(out.contains("masked adaptive"), "{out}");
    }

    #[test]
    fn end_to_end_churn() {
        let out = run(&argv(
            "churn 2 4 3 --links 1 --mtbf 200 --mttr 60 --cycles 500 --samples 8",
        ))
        .unwrap();
        assert!(out.contains("availability:"), "{out}");
        assert!(
            out.contains("time-to-reconverge") || out.contains("transition epoch"),
            "{out}"
        );
    }

    #[test]
    fn end_to_end_flowsim() {
        let out = run(&argv("flowsim 2 4 5 --pattern shift:3")).unwrap();
        assert!(out.contains("fluid-nonblocking"), "{out}");
        // Bare --json (no value) is normalized to a boolean switch.
        let out = run(&argv("flowsim 2 4 5 --pattern shift:3 --json")).unwrap();
        assert!(out.trim_start().starts_with('['), "{out}");
        assert!(out.contains("\"all_unit_rate\":true"), "{out}");
        // --json before another flag must not swallow it.
        let out = run(&argv("flowsim 2 4 5 --json --pattern shift:3")).unwrap();
        assert!(out.contains("\"pattern\":\"shift:3\""), "{out}");
    }

    #[test]
    fn end_to_end_trace_and_stats() {
        let path = std::env::temp_dir().join("ftclos_cli_trace_test.json");
        let spec = format!("verify 2 4 5 --trace {}", path.display());
        run(&argv(&spec)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"trace_version\": 1"), "{text}");
        assert!(text.contains("cmd.verify"), "{text}");
        assert!(text.contains("arena.build"), "{text}");

        let out = run(&argv(&format!("stats {}", path.display()))).unwrap();
        assert!(out.contains("cmd.verify"), "{out}");
        assert!(out.contains("span coverage"), "{out}");

        let folded = run(&argv(&format!("stats {} --folded", path.display()))).unwrap();
        assert!(folded.lines().all(|l| l.split_whitespace().count() == 2));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn end_to_end_blocking_and_table1() {
        let out = run(&argv("blocking 2 2 5 --router dmodk --samples 50")).unwrap();
        assert!(out.contains("blocking fraction"), "{out}");
        let out = run(&argv("table1")).unwrap();
        assert!(out.contains("42"), "{out}");
    }
}
