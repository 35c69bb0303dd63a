//! Shared helpers: fabric construction, pattern parsing, named routers.

use crate::opts::{CliError, Opts};
use ftclos_obs::json::{Json, Obj};
use ftclos_routing::{
    route_all, DModK, GreedyLocalAdaptive, NonblockingAdaptive, PatternRouter, RearrangeableRouter,
    RouteAssignment, SModK, YuanDeterministic,
};
use ftclos_topo::Ftree;
use ftclos_traffic::{patterns, Permutation};
use rand::SeedableRng;

/// Build `ftree(n+m, r)` from the command's positional triple.
pub fn build_ftree(opts: &Opts) -> Result<Ftree, CliError> {
    let (n, m, r) = opts.nmr()?;
    Ftree::new(n, m, r).map_err(|e| CliError::Failed(format!("cannot build ftree: {e}")))
}

/// `{"n":…,"m":…,"r":…}` — the fabric parameters the deadlock and
/// campaign reports lead with.
pub fn fabric_json(ft: &Ftree) -> Json {
    Obj::new()
        .field("n", ft.n())
        .field("m", ft.m())
        .field("r", ft.r())
        .build()
}

/// Read `--rate`, an injection probability per source per cycle: values
/// outside `[0, 1]`, NaN included, are usage errors.
pub fn parse_rate(opts: &Opts, default: f64) -> Result<f64, CliError> {
    let rate: f64 = opts.flag_or("rate", default)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(CliError::Usage(format!(
            "--rate {rate} must be within [0, 1]"
        )));
    }
    Ok(rate)
}

/// Parse a `--pattern` spec into a permutation over `ports` leaves.
///
/// Specs: `shift:<k>`, `random`, `transpose`, `bitrev`, `neighbor`,
/// `tornado`, `identity`. Random uses `seed`.
pub fn make_pattern(spec: &str, ports: u32, seed: u64) -> Result<Permutation, CliError> {
    let bad = |msg: String| CliError::Usage(msg);
    if let Some(k) = spec.strip_prefix("shift:") {
        let k: u32 = k
            .parse()
            .map_err(|_| bad(format!("shift wants an integer, got `{k}`")))?;
        return Ok(patterns::shift(ports, k));
    }
    match spec {
        "random" => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            Ok(patterns::random_full(ports, &mut rng))
        }
        "identity" => Ok(patterns::identity(ports)),
        "tornado" => Ok(patterns::tornado(ports)),
        "neighbor" => patterns::neighbor(ports).map_err(|e| bad(e.to_string())),
        "bitrev" => patterns::bit_reversal(ports).map_err(|e| bad(e.to_string())),
        "transpose" => {
            let rows = (1..=ports)
                .rev()
                .find(|r| ports.is_multiple_of(*r) && r * r <= ports)
                .ok_or_else(|| bad(format!("no transpose factorization of {ports}")))?;
            Ok(patterns::transpose(rows, ports / rows))
        }
        other => Err(bad(format!(
            "unknown pattern `{other}` (try shift:<k>, random, transpose, bitrev, neighbor, tornado, identity)"
        ))),
    }
}

/// The router names accepted by `--router`.
pub const ROUTERS: &[&str] = &[
    "yuan",
    "dmodk",
    "smodk",
    "adaptive",
    "greedy",
    "rearrangeable",
];

/// Route `perm` on `ft` with the named router.
pub fn route_named(
    ft: &Ftree,
    name: &str,
    perm: &Permutation,
) -> Result<RouteAssignment, CliError> {
    let fail = |e: ftclos_routing::RoutingError| CliError::Failed(e.to_string());
    match name {
        "yuan" => route_all(&YuanDeterministic::new(ft).map_err(fail)?, perm).map_err(fail),
        "dmodk" => route_all(&DModK::new(ft), perm).map_err(fail),
        "smodk" => route_all(&SModK::new(ft), perm).map_err(fail),
        "adaptive" => NonblockingAdaptive::new(ft)
            .map_err(fail)?
            .route_pattern(perm)
            .map_err(fail),
        "greedy" => GreedyLocalAdaptive::new(ft)
            .route_pattern(perm)
            .map_err(fail),
        "rearrangeable" => RearrangeableRouter::new(ft)
            .map_err(fail)?
            .route_pattern(perm)
            .map_err(fail),
        other => Err(CliError::Usage(format!(
            "unknown router `{other}` (one of {ROUTERS:?})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_parse() {
        assert_eq!(make_pattern("shift:2", 6, 0).unwrap().dst_of(0), Some(2));
        assert!(make_pattern("random", 6, 1).unwrap().is_full());
        assert!(make_pattern("identity", 6, 0).unwrap().is_full());
        assert!(make_pattern("bitrev", 8, 0).is_ok());
        assert!(make_pattern("bitrev", 6, 0).is_err());
        assert!(make_pattern("shift:x", 6, 0).is_err());
        assert!(make_pattern("nope", 6, 0).is_err());
    }

    #[test]
    fn rate_must_be_a_probability() {
        let opts = |s: &str| {
            Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
        };
        assert_eq!(parse_rate(&opts("1 2 3"), 0.6).unwrap(), 0.6);
        assert_eq!(parse_rate(&opts("1 2 3 --rate 1"), 0.6).unwrap(), 1.0);
        assert_eq!(parse_rate(&opts("1 2 3 --rate 0"), 0.6).unwrap(), 0.0);
        for bad in ["1.5", "-0.1", "NaN", "inf"] {
            let err = parse_rate(&opts(&format!("1 2 3 --rate {bad}")), 0.6).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "--rate {bad}: {err}");
        }
    }

    #[test]
    fn routers_dispatch() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let perm = make_pattern("shift:3", 10, 0).unwrap();
        for r in ROUTERS {
            if *r == "rearrangeable" || *r == "yuan" || *r == "adaptive" {
                continue; // constraints checked below
            }
            assert!(route_named(&ft, r, &perm).is_ok(), "{r}");
        }
        assert!(route_named(&ft, "yuan", &perm).is_ok());
        assert!(route_named(&ft, "rearrangeable", &perm).is_ok());
        // NONBLOCKINGADAPTIVE needs whole configurations of (c+1)·n tops;
        // give it an amply-sized fabric.
        let roomy = Ftree::new(2, 16, 4).unwrap();
        let perm8 = make_pattern("shift:3", 8, 0).unwrap();
        assert!(route_named(&roomy, "adaptive", &perm8).is_ok());
        // And it reports NotEnoughTops on the tight one.
        assert!(route_named(&ft, "adaptive", &perm).is_err());
        assert!(route_named(&ft, "bogus", &perm).is_err());
        // Yuan rejects m < n^2.
        let small = Ftree::new(2, 3, 5).unwrap();
        assert!(route_named(&small, "yuan", &perm).is_err());
    }
}
