//! `cold_solve`: an analyst's first run. One caller, closed loop, runs
//! `nvp analyze` at N = 6, 12 and 24 and the Fig. 3 gamma sweep at N = 6,
//! each against a fresh, empty `--cache-dir`, so every solve is a cold
//! solve that also writes its record. Creating that directory is the
//! workload's only set-up, and `setup_s` times it.

use crate::stats::{loglog_slope, median};
use crate::trace::{parse_jsonl, Profile, Span};
use crate::{probe, Counters, Run};
use nvp_core::params::SystemParams;
use std::time::{Duration, Instant};

/// Paper anchors: `E[R_sys]` of the default 6-version model with
/// rejuvenation and of the 4-version model without it.
const ANCHORS: [(&[&str], &str); 2] = [
    (&[], "E[R_sys] = 0.9381725"),
    (&["--no-rejuvenation"], "E[R_sys] = 0.8223487"),
];

/// Fig. 3 gamma grid (rejuvenation interval, seconds).
pub const GAMMA_FROM: f64 = 60.0;
pub const GAMMA_TO: f64 = 3600.0;
const GAMMA_STEPS: usize = 24;

/// One pass of the closed loop. N = 6 repeats most, so its median and
/// tail rest on many samples; N = 24 dominates the pass's time.
const CYCLE: [Op; 16] = [
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(12),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(24),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(6),
    Op::Analyze(12),
    Op::GammaSweep,
];

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Analyze(u32),
    GammaSweep,
}

/// Seeded structural parameters near Table II: the rejuvenation interval
/// within 5% of 600 s and the mean time to compromise within 10% of
/// 1523 s. Every draw is a new chain.
pub fn draw(run: &mut Run, n: u32) -> SystemParams {
    let mut p = SystemParams::paper_six_version();
    p.n = n;
    p.rejuvenation_interval = run.rng.uniform(570.0, 630.0);
    p.mean_time_to_compromise = run.rng.uniform(1370.0, 1675.0);
    p
}

/// CLI flags selecting the structural parameters of `p`.
pub fn param_flags(p: &SystemParams) -> Vec<String> {
    vec![
        "--n".into(),
        p.n.to_string(),
        "--interval".into(),
        p.rejuvenation_interval.to_string(),
        "--mttc".into(),
        p.mean_time_to_compromise.to_string(),
    ]
}

/// Flags every benchmark invocation carries: pinned worker budget, solver
/// counters on stdout, no interactive output.
pub fn common_flags(cache_dir: &std::path::Path) -> Vec<String> {
    vec![
        "--jobs".into(),
        crate::JOBS.to_string(),
        "--stats".into(),
        "--quiet".into(),
        "--cache-dir".into(),
        cache_dir.display().to_string(),
    ]
}

/// Runs `nvp args`, adding `--trace-out` when `traced`; checks it exited
/// 0 without a degraded-result warning, adds its counters to the run, and
/// returns it with the spans of its trace.
pub fn cli_op(
    run: &mut Run,
    phase: &'static str,
    mut args: Vec<String>,
    traced: bool,
) -> Result<Option<(crate::Proc, Vec<Span>)>, String> {
    let trace_file = run.work.join("op.trace.jsonl");
    if traced {
        args.push("--trace-out".into());
        args.push(trace_file.display().to_string());
    }
    let proc = run.nvp(&args)?;
    run.tally(phase).attempted += 1;
    let counters = Counters::from_stats(&proc.stdout);
    if !proc.success || proc.stdout.contains("WARNING") || counters.is_none() {
        eprintln!("{phase}: nvp {} failed:\n{}", args.join(" "), proc.stderr);
        run.tally(phase).errors += 1;
        return Ok(None);
    }
    run.counters.add(counters.expect("checked above"));
    let spans = if traced {
        let text = std::fs::read_to_string(&trace_file).map_err(|e| e.to_string())?;
        parse_jsonl(&text)
    } else {
        Vec::new()
    };
    Ok(Some((proc, spans)))
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut sweeps = Vec::new();
    let mut profile = Profile::default();
    let mut class_share = Vec::new();
    let mut process_ms = Vec::new();
    let mut traced_n6 = Vec::new();
    let mut ops = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    'timed: loop {
        for op in CYCLE {
            if Instant::now() >= deadline {
                break 'timed;
            }
            ops += 1;
            // A traced run traces every other operation, so the untraced
            // ones give the baseline for the tracing overhead.
            let traced = run.trace && ops.is_multiple_of(2);
            let t = Instant::now();
            let dir = run.fresh_dir("cold")?;
            setups.push(t.elapsed().as_secs_f64());
            let (phase, mut args) = match op {
                Op::Analyze(n) => {
                    let p = draw(run, n);
                    let mut args = vec!["analyze".to_owned()];
                    args.extend(param_flags(&p));
                    (phase_of(n), args)
                }
                Op::GammaSweep => {
                    let p = draw(run, 6);
                    let args = vec![
                        "sweep".to_owned(),
                        "--axis".into(),
                        "gamma".into(),
                        "--from".into(),
                        GAMMA_FROM.to_string(),
                        "--to".into(),
                        GAMMA_TO.to_string(),
                        "--steps".into(),
                        GAMMA_STEPS.to_string(),
                        "--mttc".into(),
                        p.mean_time_to_compromise.to_string(),
                    ];
                    ("gamma_sweep", args)
                }
            };
            args.extend(common_flags(&dir));
            let done = cli_op(run, phase, args, traced)?;
            let _ = std::fs::remove_dir_all(&dir);
            let Some((proc, spans)) = done else { continue };
            // Every solve here is cold: one store miss per chain, no hits.
            let c = Counters::from_stats(&proc.stdout).expect("checked by cli_op");
            let chains = if op == Op::GammaSweep {
                GAMMA_STEPS as u64
            } else {
                1
            };
            if c.store_hits != 0 || c.store_misses != chains {
                run.tally(phase).mismatches += 1;
                continue;
            }
            run.tally(phase).ok += 1;
            if traced {
                profile.add(&spans);
                if op == Op::Analyze(6) {
                    let mut one = Profile::default();
                    one.add(&spans);
                    class_share.push(one.share_pct("mrgp.class"));
                    process_ms.push(proc.wall_ms - covered_ms(&spans));
                    traced_n6.push(proc.wall_ms);
                }
                continue;
            }
            match op {
                Op::Analyze(6) => walls[0].push(proc.wall_ms),
                Op::Analyze(12) => walls[1].push(proc.wall_ms),
                Op::Analyze(_) => walls[2].push(proc.wall_ms),
                Op::GammaSweep => sweeps.push(proc.wall_ms),
            }
        }
    }

    for (flags, anchor) in ANCHORS {
        let dir = run.fresh_dir("anchor")?;
        let mut args = vec!["analyze".to_owned()];
        args.extend(flags.iter().map(|s| s.to_string()));
        args.extend(common_flags(&dir));
        if let Some((proc, _)) = cli_op(run, "paper_anchors", args, false)? {
            if proc.stdout.contains(anchor) {
                run.tally("paper_anchors").ok += 1;
            } else {
                eprintln!("paper anchor `{anchor}` not found in:\n{}", proc.stdout);
                run.tally("paper_anchors").mismatches += 1;
            }
        }
    }

    run.report("setup_s", "s", &setups);
    run.report("analyze_n6_ms", "ms", &walls[0]);
    if run.trace {
        let probe_params = draw(run, 6);
        let profile_probe = probe::run(run, &probe_params, 9)?;
        path_layers(run, &profile);
        // The share within N = 6 analyses alone.
        run.layer("mrgp.class_share_pct", median(&class_share));
        run.layer(
            "obs.trace_overhead_pct",
            100.0 * (median(&traced_n6) / median(&walls[0]) - 1.0),
        );
        run.layer("cli.process_ms", median(&process_ms));
        set_counter_layers(run);
        print_profile("path", &profile);
        print_profile("probe", &profile_probe);
        return Ok(());
    }
    run.report("analyze_n12_ms", "ms", &walls[1]);
    run.report("analyze_n24_ms", "ms", &walls[2]);
    run.report("gamma_sweep_ms", "ms", &sweeps);
    let slope = loglog_slope(&[
        (6.0, median(&walls[0])),
        (12.0, median(&walls[1])),
        (24.0, median(&walls[2])),
    ]);
    println!("metric analyze_n_scaling_exponent {slope:.3} (ln t vs ln N over N = 6, 12, 24)");
    let sweep_rate = GAMMA_STEPS as f64 / (median(&sweeps) / 1e3);
    println!(
        "metric gamma_sweep_pts_per_s {sweep_rate:.3} 1/s n={}",
        sweeps.len()
    );
    run.e2e("setup_s", median(&setups));
    run.e2e("p50_ms", median(&walls[0]));
    run.e2e("heavy_ms", median(&walls[2]));
    run.e2e("work_per_s", sweep_rate);
    let share = run.ok_share(&["analyze_n6", "analyze_n12", "analyze_n24", "gamma_sweep"]);
    run.e2e("ok_share", share);
    Ok(())
}

fn phase_of(n: u32) -> &'static str {
    match n {
        6 => "analyze_n6",
        12 => "analyze_n12",
        _ => "analyze_n24",
    }
}

/// Per-layer metrics read from the program's spans on the workload's path:
/// self time of the MRGP stages per solved chain (per `mrgp.solve` span),
/// the `mrgp.class` share of all traced self time, and the self time of
/// each sweep point.
pub fn path_layers(run: &mut Run, profile: &Profile) {
    let solves = profile.count("mrgp.solve").max(1) as f64;
    run.layer("mrgp.class_self_ms", profile.self_ms("mrgp.class") / solves);
    run.layer("mrgp.row_self_ms", profile.self_ms("mrgp.row") / solves);
    run.layer("mrgp.emc_self_ms", profile.self_ms("mrgp.emc") / solves);
    run.layer("mrgp.class_share_pct", profile.share_pct("mrgp.class"));
    run.layer(
        "core.sweep_point_self_us",
        median(&profile.self_us_samples("sweep.point")),
    );
}

/// Wall time covered by a trace's spans, first start to last end, in ms.
pub fn covered_ms(spans: &[Span]) -> f64 {
    let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    end.saturating_sub(start) as f64 / 1e6
}

/// Per-layer metrics read from the program's own counters.
pub fn set_counter_layers(run: &mut Run) {
    let c = run.counters;
    run.layer("core.cache_hits", c.cache_hits as f64);
    run.layer("core.cache_misses", c.cache_misses as f64);
    run.layer(
        "core.cache_hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
    );
    run.layer("store.hits", c.store_hits as f64);
    run.layer("store.misses", c.store_misses as f64);
    run.layer("store.corrupt", c.store_corrupt as f64);
    run.layer("store.write_failures", c.store_write_failures as f64);
}

pub fn print_profile(label: &str, profile: &Profile) {
    println!("self time per span name ({label}):");
    for line in profile.lines() {
        println!("  {line}");
    }
}
