//! Single-solve hot-path benchmark.
//!
//! ```text
//! single_solve [--out FILE] [--check]
//! ```
//!
//! Times one steady-state solve of the block row stage at 1 and 2 workers
//! against the per-start reference solver ([`nvp_mrgp::reference`]: every
//! subordinated chain solved on its own), on two models:
//!
//! * the paper's six-version system (fig. 3 baseline, 49 markings);
//! * the same system at N = 24 versions (625 markings), where the
//!   embedded chain is large but near-dense and the EMC backend choice
//!   matters — the report records which backend ran.
//!
//! The report (default `BENCH_single_solve.json`) is re-parsed with
//! [`nvp_obs::json`] before it is written, so a malformed emit fails the
//! run rather than polluting CI artifacts. `--check` additionally gates:
//!
//! * bit-identity of the block solve between 1 and 2 workers;
//! * `max |Δπ| ≤ 1e-12` against the per-start reference;
//! * a fig. 3 speedup of at least 1.5x over the reference (both serial);
//! * the class accounting (classes + hits = chains) and, at N = 24, the
//!   dense EMC backend.
//!
//! A `reward` section times the reward stage on its own: one
//! `reward_vector` over the tangible markings of the N-version system for
//! N ∈ {6, 12, 24, 48}, through the tabled generic model
//! ([`nvp_core::reliability::generic::Table`]) and through the scalar
//! per-state formulas ([`nvp_core::reliability::generic::reference`]).
//! `--check` gates that the two vectors are bit-identical at every N and
//! that the table is at least 3x faster at N = 24.

use nvp_core::model::build_model;
use nvp_core::params::SystemParams;
use nvp_core::reliability::generic::reference;
use nvp_core::reliability::{ReliabilityModel, ReliabilitySource};
use nvp_core::reward::{reward_vector, ModulePlaces, RewardPolicy};
use nvp_mrgp::reference::steady_state_per_start;
use nvp_mrgp::{steady_state_with_options, MrgpStats, SolveOptions, SteadyState};
use nvp_numerics::pool::{Jobs, WorkerPool};
use nvp_numerics::StationaryBackend;
use nvp_obs::json::Json;
use nvp_petri::reach::explore;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Wall-time repetitions per fig. 3 measurement; the minimum is reported.
const REPS: usize = 5;

/// Repetitions at N = 24, where one reference solve takes seconds.
const N24_REPS: usize = 2;

/// Differential tolerance against the per-start reference.
const REFERENCE_TOLERANCE: f64 = 1e-12;

/// Floor on the fig. 3 speedup of the block row stage over the reference.
const SPEEDUP_FLOOR: f64 = 1.5;

/// Module counts of the reward-stage curve.
const REWARD_NS: [u32; 4] = [6, 12, 24, 48];

/// Timed `reward_vector` calls per N and implementation; the minimum is
/// reported.
const REWARD_REPS: usize = 101;

/// Floor on the N = 24 speedup of the tabled reward stage over the
/// per-state reference.
const REWARD_SPEEDUP_FLOOR: f64 = 3.0;

fn main() -> ExitCode {
    let mut out = String::from("BENCH_single_solve.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("--out requires a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: single_solve [--out FILE] [--check]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`; see --help");
                return ExitCode::FAILURE;
            }
        }
    }
    // A one-core runner must still exercise the two-worker path.
    let pool = WorkerPool::global();
    pool.set_capacity(pool.capacity().max(2));

    let mut n24_params = SystemParams::paper_six_version();
    n24_params.n = 24;
    let mut benches = Vec::new();
    for (id, params, reps) in [
        ("fig3_six_version", SystemParams::paper_six_version(), REPS),
        ("n24", n24_params, N24_REPS),
    ] {
        match bench_model(id, &params, reps) {
            Ok(bench) => benches.push(bench),
            Err(e) => {
                eprintln!("{id} benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut rewards = Vec::new();
    for n in REWARD_NS {
        match bench_reward(n) {
            Ok(bench) => rewards.push(bench),
            Err(e) => {
                eprintln!("reward benchmark at N = {n} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = render_report(&benches, &rewards);
    // Self-validate: the report must round-trip through the same parser
    // the trace-schema checks use.
    let parsed = match Json::parse(&report) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("emitted report is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    for bench in &benches {
        println!(
            "{}: {} chains / {} classes, {} EMC, solve {:.2} ms (1 worker) / {:.2} ms \
             (2 workers) vs {:.2} ms per-start reference, speedup {:.2}x, max |dpi| {:.1e}",
            bench.id,
            bench.stats.subordinated_chains,
            bench.stats.dedup_classes,
            bench.stats.backend,
            bench.best_ms,
            bench.best_ms_jobs2,
            bench.best_reference_ms,
            bench.speedup(),
            bench.max_abs_diff,
        );
    }
    for bench in &rewards {
        println!(
            "reward N = {}: {} markings, {:.2} us tabled vs {:.2} us reference, speedup {:.2}x, \
             bit-identical {}",
            bench.n,
            bench.markings,
            bench.table_us,
            bench.reference_us,
            bench.speedup(),
            bench.bit_identical,
        );
    }
    println!("wrote {out}");

    if check && !run_checks(&benches, &rewards, &parsed) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One model's measurements: block solve wall time at 1 and 2 workers,
/// the per-start reference's, and how the results compare.
struct ModelBench {
    id: &'static str,
    reps: usize,
    markings: usize,
    best_ms: f64,
    best_ms_jobs2: f64,
    best_reference_ms: f64,
    stats: MrgpStats,
    reference_stats: MrgpStats,
    bit_identical_across_jobs: bool,
    max_abs_diff: f64,
}

impl ModelBench {
    fn speedup(&self) -> f64 {
        self.best_reference_ms / self.best_ms
    }
}

fn bench_model(id: &'static str, params: &SystemParams, reps: usize) -> Result<ModelBench, String> {
    let net = build_model(params).map_err(|e| format!("build: {e}"))?;
    let graph = explore(&net, 100_000).map_err(|e| format!("explore: {e}"))?;
    let serial = SolveOptions {
        jobs: Jobs::Fixed(1),
        ..SolveOptions::default()
    };
    let two = SolveOptions {
        jobs: Jobs::Fixed(2),
        ..SolveOptions::default()
    };
    let (block, stats, best_ms) = timed(reps, || steady_state_with_options(&graph, &serial))?;
    let (block2, _, best_ms_jobs2) = timed(reps, || steady_state_with_options(&graph, &two))?;
    let (reference, reference_stats, best_reference_ms) =
        timed(reps, || steady_state_per_start(&graph, &serial))?;
    Ok(ModelBench {
        id,
        reps,
        markings: graph.tangible_count(),
        best_ms,
        best_ms_jobs2,
        best_reference_ms,
        stats,
        reference_stats,
        bit_identical_across_jobs: bit_identical(&block, &block2),
        max_abs_diff: max_abs_diff(&block, &reference),
    })
}

/// Runs `solve` `reps` times and keeps the fastest wall time; returns the
/// last solution and its stats (identical across repetitions).
fn timed(
    reps: usize,
    solve: impl Fn() -> nvp_mrgp::Result<(SteadyState, MrgpStats)>,
) -> Result<(SteadyState, MrgpStats, f64), String> {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        let solved = solve().map_err(|e| format!("solve: {e}"))?;
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(solved);
    }
    let (solution, stats) = result.ok_or("no repetitions")?;
    Ok((solution, stats, best))
}

fn bit_identical(a: &SteadyState, b: &SteadyState) -> bool {
    a.probabilities().len() == b.probabilities().len()
        && a.probabilities()
            .iter()
            .zip(b.probabilities())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn max_abs_diff(a: &SteadyState, b: &SteadyState) -> f64 {
    if a.probabilities().len() != b.probabilities().len() {
        return f64::INFINITY;
    }
    a.probabilities()
        .iter()
        .zip(b.probabilities())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// One N's reward-stage measurements: a tabled `reward_vector` against the
/// same vector from the per-state reference formulas.
struct RewardBench {
    n: u32,
    markings: usize,
    table_us: f64,
    reference_us: f64,
    bit_identical: bool,
}

impl RewardBench {
    fn speedup(&self) -> f64 {
        self.reference_us / self.table_us
    }
}

fn bench_reward(n: u32) -> Result<RewardBench, String> {
    let mut params = SystemParams::paper_six_version();
    params.n = n;
    let net = build_model(&params).map_err(|e| format!("build: {e}"))?;
    let graph = explore(&net, 100_000).map_err(|e| format!("explore: {e}"))?;
    // Generic at every N, the paper's N = 6 included, so the curve times
    // one model.
    let model = ReliabilityModel::for_params(&params, ReliabilitySource::Generic)
        .map_err(|e| format!("reliability model: {e}"))?;
    let policy = RewardPolicy::FailedOnly;
    let tabled =
        || reward_vector(&graph, &net, &params, &model, policy).map_err(|e| format!("reward: {e}"));
    let threshold = params.voting_threshold();
    let per_state = || {
        let places = ModulePlaces::locate(&net).map_err(|e| format!("places: {e}"))?;
        Ok(graph
            .markings()
            .iter()
            .map(|m| {
                places.system_state(m, policy).map_or(0.0, |s| {
                    reference::reliability(s, threshold, params.p, params.p_prime, params.alpha)
                })
            })
            .collect::<Vec<f64>>())
    };
    let (table, table_us) = timed_us(tabled)?;
    let (reference, reference_us) = timed_us(per_state)?;
    Ok(RewardBench {
        n,
        markings: graph.tangible_count(),
        table_us,
        reference_us,
        bit_identical: table.len() == reference.len()
            && table
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
    })
}

/// Runs `f` [`REWARD_REPS`] times and keeps the fastest wall time in µs;
/// returns the last result (identical across repetitions).
fn timed_us(f: impl Fn() -> Result<Vec<f64>, String>) -> Result<(Vec<f64>, f64), String> {
    let mut best = f64::INFINITY;
    let mut result = Vec::new();
    for _ in 0..REWARD_REPS {
        let start = Instant::now();
        result = std::hint::black_box(f()?);
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok((result, best))
}

fn render_model(out: &mut String, bench: &ModelBench) {
    let _ = write!(
        out,
        concat!(
            "  \"{}\": {{\n",
            "    \"reps\": {},\n",
            "    \"markings\": {},\n",
            "    \"subordinated_chains\": {},\n",
            "    \"block_classes\": {},\n",
            "    \"class_hits\": {},\n",
            "    \"max_truncation_steps\": {},\n",
            "    \"max_truncation_steps_reference\": {},\n",
            "    \"steady_state_detections\": {},\n",
            "    \"emc_backend\": \"{}\",\n",
            "    \"solve_ms_jobs1\": {:.4},\n",
            "    \"solve_ms_jobs2\": {:.4},\n",
            "    \"solve_ms_reference\": {:.4},\n",
            "    \"speedup_vs_reference\": {:.4},\n",
            "    \"max_abs_diff_vs_reference\": {:.3e},\n",
            "    \"bit_identical_across_jobs\": {}\n",
            "  }}"
        ),
        bench.id,
        bench.reps,
        bench.markings,
        bench.stats.subordinated_chains,
        bench.stats.dedup_classes,
        bench.stats.dedup_hits,
        bench.stats.max_truncation_steps,
        bench.reference_stats.max_truncation_steps,
        bench.stats.steady_state_detections,
        bench.stats.backend,
        bench.best_ms,
        bench.best_ms_jobs2,
        bench.best_reference_ms,
        bench.speedup(),
        bench.max_abs_diff,
        bench.bit_identical_across_jobs,
    );
}

fn render_rewards(out: &mut String, rewards: &[RewardBench]) {
    let _ = write!(
        out,
        "  \"reward\": {{\n    \"policy\": \"failed_only\",\n    \"reps\": {REWARD_REPS},\n"
    );
    for bench in rewards {
        let _ = write!(
            out,
            concat!(
                "    \"n{}\": {{\n",
                "      \"markings\": {},\n",
                "      \"reward_us_table\": {:.4},\n",
                "      \"reward_us_reference\": {:.4},\n",
                "      \"speedup_vs_reference\": {:.4}\n",
                "    }},\n"
            ),
            bench.n,
            bench.markings,
            bench.table_us,
            bench.reference_us,
            bench.speedup(),
        );
    }
    let _ = write!(
        out,
        "    \"reward_bit_identical\": {}\n  }}",
        rewards.iter().all(|b| b.bit_identical)
    );
}

fn render_report(benches: &[ModelBench], rewards: &[RewardBench]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"nvp-bench/single-solve/v2\",\n");
    for bench in benches {
        render_model(&mut out, bench);
        out.push_str(",\n");
    }
    render_rewards(&mut out, rewards);
    out.push_str("\n}\n");
    out
}

/// `--check` assertions; each failure prints its own diagnostic.
fn run_checks(benches: &[ModelBench], rewards: &[RewardBench], parsed: &Json) -> bool {
    let mut ok = true;
    let mut fail = |message: String| {
        eprintln!("check failed: {message}");
        ok = false;
    };
    for bench in benches {
        let s = &bench.stats;
        if !bench.bit_identical_across_jobs {
            fail(format!(
                "{}: the block solve differs between 1 and 2 workers",
                bench.id
            ));
        }
        if bench.max_abs_diff.is_nan() || bench.max_abs_diff > REFERENCE_TOLERANCE {
            fail(format!(
                "{}: max |dpi| {:.3e} against the per-start reference exceeds {REFERENCE_TOLERANCE:e}",
                bench.id, bench.max_abs_diff
            ));
        }
        if s.dedup_classes == 0 || s.dedup_classes + s.dedup_hits != s.subordinated_chains {
            fail(format!(
                "{}: class accounting broken: {} classes + {} hits != {} chains",
                bench.id, s.dedup_classes, s.dedup_hits, s.subordinated_chains
            ));
        }
        if s.max_truncation_steps != bench.reference_stats.max_truncation_steps {
            fail(format!(
                "{}: truncation depth {} differs from the reference's {}",
                bench.id, s.max_truncation_steps, bench.reference_stats.max_truncation_steps
            ));
        }
        if parsed.get(bench.id).is_none() {
            fail(format!("report is missing the `{}` object", bench.id));
        }
    }
    if let Some(fig3) = benches.iter().find(|b| b.id == "fig3_six_version") {
        if fig3.speedup() < SPEEDUP_FLOOR {
            fail(format!(
                "fig3 speedup {:.2}x over the per-start reference below the {SPEEDUP_FLOOR}x floor",
                fig3.speedup()
            ));
        }
    }
    if let Some(n24) = benches.iter().find(|b| b.id == "n24") {
        if n24.stats.backend != StationaryBackend::Dense {
            fail(format!(
                "n24: the near-dense EMC ran on the {} backend, not dense",
                n24.stats.backend
            ));
        }
    }
    for bench in rewards {
        if !bench.bit_identical {
            fail(format!(
                "reward N = {}: the tabled reward vector differs from the per-state reference",
                bench.n
            ));
        }
    }
    match rewards.iter().find(|b| b.n == 24) {
        Some(n24) if n24.speedup() < REWARD_SPEEDUP_FLOOR => fail(format!(
            "reward N = 24: speedup {:.2}x over the per-state reference below the \
             {REWARD_SPEEDUP_FLOOR}x floor",
            n24.speedup()
        )),
        Some(_) => {}
        None => fail("reward curve is missing N = 24".into()),
    }
    if parsed.get("reward").is_none() {
        fail("report is missing the `reward` object".into());
    }
    if ok {
        println!("all checks passed");
    }
    ok
}
