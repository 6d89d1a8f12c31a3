//! `warm_sweeps`: repeat analysis and restart after rejuvenation. Set-up
//! fills a solve store; fresh `nvp sweep` processes then replay the gamma
//! grid from it and run reward-only alpha / p / p' sweeps at N = 24 on a
//! stored chain. The work lands in `petri`, `store.load` and
//! `core.reward`; `mrgp` solves nothing.

use crate::cold::{
    cli_op, common_flags, covered_ms, draw, param_flags, path_layers, print_profile,
    set_counter_layers, GAMMA_FROM, GAMMA_TO,
};
use crate::stats::median;
use crate::trace::Profile;
use crate::{probe, Counters, Run};
use nvp_core::params::SystemParams;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Points of the replayed gamma grid.
const REPLAY_STEPS: usize = 48;

/// Points of each reward-only sweep.
const REWARD_STEPS: usize = 2000;

/// Versions of the stored chain the reward-only sweeps run on.
const REWARD_N: u32 = 24;

/// Store fills per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Replays per reward-only sweep in one pass of the loop.
const REPLAYS_PER_PASS: usize = 6;

/// A reward-only axis, with the ranges its sweep bounds are drawn from.
struct Axis {
    name: &'static str,
    from: (f64, f64),
    to: (f64, f64),
}

const AXES: [Axis; 3] = [
    Axis {
        name: "alpha",
        from: (0.05, 0.25),
        to: (0.75, 0.95),
    },
    Axis {
        name: "p",
        from: (0.01, 0.04),
        to: (0.10, 0.20),
    },
    Axis {
        name: "pprime",
        from: (0.10, 0.30),
        to: (0.60, 0.90),
    },
];

/// The filled store and the cold CSV every replay must reproduce.
struct Store {
    dir: PathBuf,
    grid: SystemParams,
    chain: SystemParams,
    cold_csv: String,
}

fn replay_args(store: &Store) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "sweep".into(),
        "--axis".into(),
        "gamma".into(),
        "--from".into(),
        GAMMA_FROM.to_string(),
        "--to".into(),
        GAMMA_TO.to_string(),
        "--steps".into(),
        REPLAY_STEPS.to_string(),
        "--mttc".into(),
        store.grid.mean_time_to_compromise.to_string(),
    ];
    args.extend(common_flags(&store.dir));
    args
}

/// The CSV part of a sweep's stdout (everything before `--stats`).
fn csv_of(stdout: &str) -> &str {
    stdout.split("\nsolver statistics:").next().unwrap_or("")
}

/// Fills a fresh store: the gamma grid, solved cold, and the N = 24 chain.
fn fill(run: &mut Run, grid: SystemParams, chain: SystemParams) -> Result<Store, String> {
    let mut store = Store {
        dir: run.fresh_dir("store")?,
        grid,
        chain,
        cold_csv: String::new(),
    };
    let cold = cli_op(run, "setup", replay_args(&store), false)?;
    let mut args = vec!["analyze".to_owned()];
    args.extend(param_flags(&store.chain));
    args.extend(common_flags(&store.dir));
    let chain = cli_op(run, "setup", args, false)?;
    let (Some((cold, _)), Some(_)) = (cold, chain) else {
        return Err("filling the solve store failed".into());
    };
    run.tally("setup").ok += 2;
    store.cold_csv = csv_of(&cold.stdout).to_owned();
    Ok(store)
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let grid = draw(run, 6);
    let chain = draw(run, REWARD_N);
    let mut setups = Vec::new();
    let mut store = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        if let Some(old) = store.replace(fill(run, grid.clone(), chain.clone())?) {
            let _ = std::fs::remove_dir_all(old.dir);
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let store = store.expect("SETUPS > 0");
    // Set-up work is not part of what the loop measures.
    let setup_counters = std::mem::take(&mut run.counters);
    if setup_counters.store_corrupt + setup_counters.store_write_failures > 0 {
        run.tally("setup").mismatches += 1;
    }

    let mut replays = Vec::new();
    let mut rewards = Vec::new();
    let mut traced_replays = Vec::new();
    let mut profile = Profile::default();
    let mut process_ms = Vec::new();
    let mut ops = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    'timed: loop {
        for i in 0..=REPLAYS_PER_PASS {
            if Instant::now() >= deadline {
                break 'timed;
            }
            ops += 1;
            let traced = run.trace && ops.is_multiple_of(2);
            let (phase, args, chains) = if i < REPLAYS_PER_PASS {
                ("replay", replay_args(&store), REPLAY_STEPS as u64)
            } else {
                let axis = &AXES[(ops / (REPLAYS_PER_PASS + 1)) % AXES.len()];
                let mut args: Vec<String> = vec![
                    "sweep".into(),
                    "--axis".into(),
                    axis.name.into(),
                    "--from".into(),
                    run.rng.uniform(axis.from.0, axis.from.1).to_string(),
                    "--to".into(),
                    run.rng.uniform(axis.to.0, axis.to.1).to_string(),
                    "--steps".into(),
                    REWARD_STEPS.to_string(),
                ];
                args.extend(param_flags(&store.chain));
                args.extend(common_flags(&store.dir));
                ("reward_sweep", args, 1)
            };
            let Some((proc, spans)) = cli_op(run, phase, args, traced)? else {
                continue;
            };
            // Oracles: every chain comes from the store, a reward-only
            // sweep misses the in-memory chain cache exactly once, and a
            // replay prints the cold CSV byte for byte.
            let c = Counters::from_stats(&proc.stdout).expect("checked by cli_op");
            let intact = c.store_hits == chains
                && c.store_misses == 0
                && (phase == "replay" || c.cache_misses == 1)
                && (phase != "replay" || csv_of(&proc.stdout) == store.cold_csv);
            if !intact {
                eprintln!("{phase}: oracle mismatch:\n{}", proc.stdout);
                run.tally(phase).mismatches += 1;
                continue;
            }
            run.tally(phase).ok += 1;
            if traced {
                profile.add(&spans);
                if phase == "replay" {
                    process_ms.push(proc.wall_ms - covered_ms(&spans));
                    traced_replays.push(proc.wall_ms);
                }
            } else if phase == "replay" {
                replays.push(proc.wall_ms);
            } else {
                rewards.push(proc.wall_ms);
            }
        }
    }

    run.report("setup_s", "s", &setups);
    run.report("replay_ms", "ms", &replays);
    if run.trace {
        let profile_probe = probe::run(run, &store.chain, 2)?;
        path_layers(run, &profile);
        run.layer(
            "obs.trace_overhead_pct",
            100.0 * (median(&traced_replays) / median(&replays) - 1.0),
        );
        run.layer("cli.process_ms", median(&process_ms));
        set_counter_layers(run);
        print_profile("path", &profile);
        print_profile("probe", &profile_probe);
        return Ok(());
    }
    run.report("reward_sweep_ms", "ms", &rewards);
    let replayed_points = (replays.len() * REPLAY_STEPS) as f64;
    let replay_rate = replayed_points / (replays.iter().sum::<f64>() / 1e3);
    let reward_rate = REWARD_STEPS as f64 / (median(&rewards) / 1e3);
    println!(
        "metric replay_pts_per_s {replay_rate:.3} 1/s n={}",
        replays.len()
    );
    println!(
        "metric reward_sweep_pts_per_s {reward_rate:.3} 1/s n={}",
        rewards.len()
    );
    run.e2e("setup_s", median(&setups));
    run.e2e("p50_ms", median(&replays));
    run.e2e("heavy_ms", median(&rewards));
    run.e2e("work_per_s", replay_rate);
    let share = run.ok_share(&["replay", "reward_sweep"]);
    run.e2e("ok_share", share);
    Ok(())
}
