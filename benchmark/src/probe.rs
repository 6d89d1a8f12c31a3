//! The in-process layer probe of a traced run: times calls into each
//! crate's public functions on the workload's seeded inputs, each call
//! wrapped in a benchmark-side span.
//!
//! It calls no engine sweep entry point, so the sweep API can change
//! without touching the benchmark.

use crate::stats::median;
use crate::trace::{self, Profile};
use crate::Run;
use nvp_core::analysis::SolverBackend;
use nvp_core::engine::ChainKey;
use nvp_core::params::SystemParams;
use nvp_core::reliability::{ReliabilityModel, ReliabilitySource};
use nvp_core::reward::{reward_vector, RewardPolicy};
use nvp_mrgp::{steady_state_with_options, MrgpStats, SolveOptions};
use nvp_numerics::pool::WorkerPool;
use nvp_obs::span;
use nvp_petri::reach::explore_with_stats;
use nvp_store::{Load, SolveRecord, SolveStore};
use std::time::Instant;

/// Repetitions of each cheap call; medians are reported.
const REPS: usize = 15;

/// Runs the probe on `params`, with `solves` repetitions of the
/// steady-state solve, and records the probe's per-layer metrics.
pub fn run(run: &mut Run, params: &SystemParams, solves: usize) -> Result<Profile, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("layer probe {what}: {e}");
    let pool = WorkerPool::global();
    pool.reset_peak();
    let starvations = pool.starvations();
    let store_dir = run.fresh_dir("probe-store")?;
    nvp_obs::trace::start_recording();

    let mut build_us = Vec::new();
    let mut net = None;
    for _ in 0..REPS {
        let _span = span("bench.petri.build");
        let t = Instant::now();
        net = Some(nvp_core::model::build_model(params).map_err(|e| err("build", &e))?);
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let net = net.expect("REPS > 0");

    let mut explore_us = Vec::new();
    let mut explored = None;
    for _ in 0..REPS {
        let _span = span("bench.petri.explore");
        let t = Instant::now();
        explored = Some(
            explore_with_stats(&net, SolverBackend::Auto.max_markings())
                .map_err(|e| err("explore", &e))?,
        );
        explore_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (graph, explore_stats) = explored.expect("REPS > 0");

    let mut solve_ms = Vec::new();
    let mut solved = None;
    for _ in 0..solves.max(1) {
        let _span = span("bench.mrgp.solve");
        let t = Instant::now();
        solved = Some(
            steady_state_with_options(&graph, &SolveOptions::default())
                .map_err(|e| err("solve", &e))?,
        );
        solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (steady, mrgp) = solved.expect("at least one solve");

    let reliability = ReliabilityModel::for_params(params, ReliabilitySource::Auto)
        .map_err(|e| err("reliability", &e))?;
    let mut reward_us = Vec::new();
    for _ in 0..REPS {
        let _span = span("bench.core.reward");
        let t = Instant::now();
        let rewards = reward_vector(&graph, &net, params, &reliability, RewardPolicy::FailedOnly)
            .map_err(|e| err("reward", &e))?;
        std::hint::black_box(steady.expected_reward(&rewards));
        reward_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let store = SolveStore::open(&store_dir).map_err(|e| err("store open", &e))?;
    let key = ChainKey::of(params, SolverBackend::Auto.max_markings()).store_bytes(true);
    let record = record_of(steady.probabilities(), &mrgp, &explore_stats);
    let mut save_us = Vec::new();
    for _ in 0..REPS {
        let _span = span("bench.store.save");
        let t = Instant::now();
        store
            .save(&key, &record)
            .map_err(|e| err("store save", &e))?;
        save_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut load_us = Vec::new();
    for _ in 0..REPS {
        let _span = span("bench.store.load");
        let t = Instant::now();
        match store.load(&key).map_err(|e| err("store load", &e))? {
            Load::Hit(loaded) if loaded == record => {}
            _ => return Err("layer probe: stored record did not load back intact".into()),
        }
        load_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let record_bytes = std::fs::metadata(store.entry_path(&key)).map_or(0, |m| m.len());

    let mut profile = Profile::default();
    profile.add(&trace::from_records(nvp_obs::trace::stop_recording()));

    run.layer("petri.build_us", median(&build_us));
    run.layer("petri.explore_us", median(&explore_us));
    run.layer(
        "petri.tangible_markings",
        explore_stats.tangible_markings as f64,
    );
    run.layer(
        "petri.vanishing_visits",
        explore_stats.vanishing_visits as f64,
    );
    run.layer("mrgp.solve_ms", median(&solve_ms));
    run.layer("mrgp.subordinated_chains", mrgp.subordinated_chains as f64);
    run.layer("mrgp.dedup_classes", mrgp.dedup_classes as f64);
    run.layer("mrgp.dedup_hits", mrgp.dedup_hits as f64);
    // Useful work over attempts: solves skipped by dedup per chain.
    run.layer(
        "mrgp.dedup_hit_ratio",
        mrgp.dedup_hits as f64 / mrgp.subordinated_chains.max(1) as f64,
    );
    run.layer(
        "mrgp.max_truncation_depth",
        mrgp.max_truncation_steps as f64,
    );
    run.layer(
        "mrgp.total_subordinated_states",
        mrgp.total_subordinated_states as f64,
    );
    run.layer(
        "mrgp.steady_state_detections",
        mrgp.steady_state_detections as f64,
    );
    run.layer("numerics.pool_capacity", pool.capacity() as f64);
    run.layer("numerics.pool_peak_permits", pool.peak() as f64);
    run.layer(
        "numerics.pool_starvations",
        (pool.starvations() - starvations) as f64,
    );
    // Computed, not measured: the M^2 * depth size of the row stage.
    run.layer(
        "numerics.uniformization_work_bound",
        (mrgp.total_subordinated_states as f64) * (mrgp.max_truncation_steps as f64),
    );
    run.layer("core.reward_us", median(&reward_us));
    run.layer("store.save_us", median(&save_us));
    run.layer("store.load_us", median(&load_us));
    run.layer("store.record_bytes", record_bytes as f64);
    println!(
        "probe  n={} markings={} depth={} solves={} build={:.1}us explore={:.1}us \
         solve={:.3}ms reward={:.1}us save={:.1}us load={:.1}us",
        params.n,
        explore_stats.tangible_markings,
        mrgp.max_truncation_steps,
        solve_ms.len(),
        median(&build_us),
        median(&explore_us),
        median(&solve_ms),
        median(&reward_us),
        median(&save_us),
        median(&load_us)
    );
    Ok(profile)
}

fn record_of(
    probabilities: &[f64],
    mrgp: &MrgpStats,
    explore: &nvp_petri::reach::ExploreStats,
) -> SolveRecord {
    SolveRecord {
        probabilities: probabilities.to_vec(),
        tangible_markings: explore.tangible_markings as u64,
        vanishing_visits: explore.vanishing_visits as u64,
        timed_arcs: explore.timed_arcs as u64,
        zero_rate_arcs: explore.zero_rate_arcs as u64,
        solver_markings: mrgp.markings as u64,
        subordinated_chains: mrgp.subordinated_chains as u64,
        max_subordinated_states: mrgp.max_subordinated_states as u64,
        total_subordinated_states: mrgp.total_subordinated_states as u64,
        max_truncation_steps: mrgp.max_truncation_steps as u64,
        guard_trips: mrgp.guard_trips as u64,
        dedup_classes: mrgp.dedup_classes as u64,
        dedup_hits: mrgp.dedup_hits as u64,
        steady_state_detections: mrgp.steady_state_detections as u64,
        ..SolveRecord::default()
    }
}
