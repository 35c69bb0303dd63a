//! E19 — fluid flow-rate simulation: max-min fair delivered throughput
//! at datacenter scale.
//!
//! * **E19a** — delivered throughput vs `m`: sweep `ftree(3+m, 9)` for
//!   `m = n .. n²` under every routing scheme, averaging the mean
//!   delivered flow rate over seeded random permutations. Theorem 3's
//!   prediction is the right edge of the table: at `m = n²` the Yuan
//!   routing delivers every flow at full rate, while single-path mod-`k`
//!   schemes degrade below 1.0 somewhere in the sweep.
//! * **E19b** — differential spot checks: the fluid "all flows at rate
//!   1.0 over the complete two-pair family" decision must coincide with
//!   the exact Lemma 1 verdict, both on a blocking and a nonblocking
//!   fabric.
//! * **E19c** — scale + bench guard: solve 10,000-host `ftree(16+256,
//!   625)` (340k channels) under Yuan and `d mod k`, asserting wall-clock
//!   under 60 s per solve, and record the timings in
//!   `target/flowsim/e19_guard.json` so regressions are diffable.

use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_flowsim::{check_fabric, solve_pattern, FluidReport};
use ftclos_obs::json::{Json, Obj};
use ftclos_routing::{
    DModK, GreedyLocalAdaptive, LinkLoadView, NonblockingAdaptive, ObliviousMultipath,
    RearrangeableRouter, SModK, SpreadPolicy, YuanDeterministic,
};
use ftclos_topo::{ChannelCapacities, Ftree};
use ftclos_traffic::{patterns, Permutation};
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Random permutations averaged per (router, m) cell in E19a.
const PERMS_PER_CELL: usize = 8;

fn random_perms(ports: u32, count: usize) -> Vec<Permutation> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
    (0..count)
        .map(|_| patterns::random_full(ports, &mut rng))
        .collect()
}

/// Mean delivered rate of `view` over `perms`, or `None` when any pattern
/// fails to route.
fn mean_delivered<V: LinkLoadView + ?Sized>(
    view: &V,
    perms: &[Permutation],
    caps: &ChannelCapacities,
) -> Option<(f64, f64)> {
    let mut sum = 0.0;
    let mut worst = 1.0f64;
    for (i, p) in perms.iter().enumerate() {
        let r = solve_pattern(view, &format!("random:{i}"), p, caps).ok()?;
        sum += r.mean_rate;
        worst = worst.min(r.worst_rate);
    }
    Some((sum / perms.len() as f64, worst))
}

fn cell(v: Option<(f64, f64)>) -> String {
    match v {
        Some((mean, _)) => format!("{mean:>7.4}"),
        None => format!("{:>7}", "n/a"),
    }
}

fn main() {
    let mut all_ok = true;

    banner(
        "E19a",
        "fluid delivered throughput vs m, ftree(3+m, 9), random permutations",
    );
    let n = 3usize;
    let r = 9usize;
    let ports = (n * r) as u32;
    let perms = random_perms(ports, PERMS_PER_CELL);
    println!(
        "  {:>3} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "m", "yuan", "dmodk", "smodk", "mpath", "greedy", "rearr", "adapt"
    );
    let mut dmodk_degrades = false;
    let mut yuan_full_at_nsq = false;
    let mut mpath_always_full = true;
    for m in n..=n * n {
        let ft = match Ftree::new(n, m, r) {
            Ok(ft) => ft,
            Err(e) => {
                eprintln!("cannot build ftree(3+{m}, 9): {e}");
                std::process::exit(1);
            }
        };
        let caps = ChannelCapacities::unit(ft.topology());
        let yuan = YuanDeterministic::new(&ft)
            .ok()
            .and_then(|router| mean_delivered(&router, &perms, &caps));
        let dmodk = mean_delivered(&DModK::new(&ft), &perms, &caps);
        let smodk = mean_delivered(&SModK::new(&ft), &perms, &caps);
        let mpath = mean_delivered(
            &ObliviousMultipath::new(&ft, SpreadPolicy::RoundRobin),
            &perms,
            &caps,
        );
        let greedy = mean_delivered(&GreedyLocalAdaptive::new(&ft), &perms, &caps);
        let rearr = RearrangeableRouter::new(&ft)
            .ok()
            .and_then(|router| mean_delivered(&router, &perms, &caps));
        let adapt = NonblockingAdaptive::new(&ft)
            .ok()
            .and_then(|router| mean_delivered(&router, &perms, &caps));
        println!(
            "  {:>3} {} {} {} {} {} {} {}",
            m,
            cell(yuan),
            cell(dmodk),
            cell(smodk),
            cell(mpath),
            cell(greedy),
            cell(rearr),
            cell(adapt)
        );
        if let Some((_, worst)) = dmodk {
            dmodk_degrades |= worst < 1.0;
        }
        if m == n * n {
            yuan_full_at_nsq = yuan.is_some_and(|(mean, worst)| mean == 1.0 && worst == 1.0);
        }
        mpath_always_full &= mpath.is_some_and(|(mean, _)| (mean - 1.0).abs() < 1e-9);
    }
    all_ok &= verdict(
        yuan_full_at_nsq,
        "m = n²: Theorem 3 routing delivers every flow at rate 1.0",
    );
    all_ok &= verdict(
        dmodk_degrades,
        "m < n² single-path d mod k degrades below 1.0 on some permutation",
    );
    all_ok &= verdict(
        mpath_always_full,
        "fluid multipath spreading sustains rate 1.0 for all m >= n (load n/m per uplink)",
    );

    banner(
        "E19b",
        "differential: fluid two-pair sweep vs exact Lemma 1 verdict",
    );
    let blocking = Ftree::new(2, 2, 3).unwrap();
    let fa = check_fabric(&DModK::new(&blocking), blocking.topology().num_channels());
    result_line(
        "dmodk on ftree(2+2,3) fluid-nonblocking",
        fa.fluid_nonblocking,
    );
    all_ok &= verdict(
        fa.agree() && !fa.fluid_nonblocking && fa.fluid_witness.is_some(),
        "fluid and exact agree the m = n fabric blocks (with witness)",
    );
    let clean = Ftree::new(2, 4, 3).unwrap();
    let yuan = YuanDeterministic::new(&clean).unwrap();
    let fa = check_fabric(&yuan, clean.topology().num_channels());
    result_line(
        "yuan on ftree(2+4,3) fluid-nonblocking",
        fa.fluid_nonblocking,
    );
    all_ok &= verdict(
        fa.agree() && fa.fluid_nonblocking,
        "fluid and exact agree the m = n² fabric is nonblocking",
    );

    banner(
        "E19c",
        "scale: 10,000-host ftree(16+256, 625), wall-clock guard",
    );
    let big = match Ftree::new(16, 256, 625) {
        Ok(ft) => ft,
        Err(e) => {
            eprintln!("cannot build ftree(16+256, 625): {e}");
            std::process::exit(1);
        }
    };
    result_line("hosts", big.num_leaves());
    result_line("channels", big.topology().num_channels());
    let caps = ChannelCapacities::unit(big.topology());
    let perm = {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
        patterns::random_full(big.num_leaves() as u32, &mut rng)
    };

    let mut guard_entries: Vec<Json> = Vec::new();
    let mut timed = |label: &str, report: Result<FluidReport, String>, ms: f64| -> bool {
        match report {
            Ok(rep) => {
                result_line(
                    &format!("{label} wall-clock"),
                    format!(
                        "{ms:.0} ms ({} flows, {} entries, mean rate {:.4})",
                        rep.num_flows, rep.num_link_entries, rep.mean_rate
                    ),
                );
                guard_entries.push(
                    Obj::new()
                        .field("router", label)
                        .field("wall_ms", Json::Fixed(ms, 3))
                        .field("report", rep.to_json())
                        .build(),
                );
                ms < 60_000.0
            }
            Err(e) => {
                eprintln!("{label}: {e}");
                false
            }
        }
    };

    let yuan_big = match YuanDeterministic::new(&big) {
        Ok(y) => y,
        Err(e) => {
            eprintln!("yuan unavailable on ftree(16+256, 625): {e}");
            std::process::exit(1);
        }
    };
    let t0 = Instant::now();
    let rep = solve_pattern(&yuan_big, "random", &perm, &caps).map_err(|e| e.to_string());
    let ok = timed("yuan-deterministic", rep, t0.elapsed().as_secs_f64() * 1e3);
    all_ok &= verdict(ok, "yuan solves 10,000 hosts in under a minute");

    let t0 = Instant::now();
    let rep = solve_pattern(&DModK::new(&big), "random", &perm, &caps).map_err(|e| e.to_string());
    let ok = timed("d-mod-k", rep, t0.elapsed().as_secs_f64() * 1e3);
    all_ok &= verdict(ok, "d mod k solves 10,000 hosts in under a minute");

    // Persist the guard so future runs can diff wall-clock regressions.
    let out_dir = Path::new("target/flowsim");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let guard = Obj::new()
        .field("experiment", "E19")
        .field("config", "ftree(16+256,625)")
        .field("hosts", big.num_leaves())
        .field("channels", big.topology().num_channels())
        .field("budget_ms", 60_000)
        .field("solves", Json::Arr(guard_entries))
        .build()
        .write()
        + "\n";
    let guard_path = out_dir.join("e19_guard.json");
    if let Err(e) = std::fs::write(&guard_path, &guard) {
        eprintln!("cannot write {}: {e}", guard_path.display());
        std::process::exit(1);
    }
    result_line("bench guard", guard_path.display());

    if !all_ok {
        std::process::exit(1);
    }
}
