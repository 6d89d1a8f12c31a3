//! End-to-end and per-layer benchmark of `nvp analyze`, `nvp sweep` and
//! `nvp serve`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload cold_solve|warm_sweeps|serve_open_loop \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The benchmark builds the `nvp` binary from
//! source, drives it as a user would (child processes and HTTP), checks its
//! outputs, and prints a report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `benchmark/README.md` for what each metric means.

mod cold;
mod http;
mod probe;
mod serve;
mod stats;
mod trace;
mod warm;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Worker budget (`--jobs` and `NVP_JOBS`) pinned for every process the
/// benchmark starts and for its own in-process calls.
pub const JOBS: usize = 2;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("heavy_ms", "ms"),
    ("work_per_s", "1/s"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`, with the
/// end-to-end metric each is expected to move.
pub const PER_LAYER: [(&str, &str, &str); 46] = [
    ("petri.build_us", "us", "warm_sweeps p50_ms"),
    ("petri.explore_us", "us", "warm_sweeps p50_ms"),
    ("petri.tangible_markings", "count", "every solve and replay"),
    ("petri.vanishing_visits", "count", "warm_sweeps p50_ms"),
    (
        "mrgp.solve_ms",
        "ms",
        "cold_solve heavy_ms, p50_ms, work_per_s",
    ),
    ("mrgp.class_self_ms", "ms", "cold_solve heavy_ms"),
    ("mrgp.row_self_ms", "ms", "cold_solve heavy_ms"),
    ("mrgp.emc_self_ms", "ms", "cold_solve heavy_ms"),
    ("mrgp.class_share_pct", "pct", "cold_solve p50_ms"),
    ("mrgp.subordinated_chains", "count", "cold_solve heavy_ms"),
    ("mrgp.dedup_classes", "count", "cold_solve heavy_ms"),
    ("mrgp.dedup_hits", "count", "cold_solve heavy_ms"),
    ("mrgp.dedup_hit_ratio", "ratio", "cold_solve heavy_ms"),
    (
        "mrgp.max_truncation_depth",
        "count",
        "cold_solve work_per_s",
    ),
    (
        "mrgp.total_subordinated_states",
        "count",
        "cold_solve heavy_ms",
    ),
    (
        "mrgp.steady_state_detections",
        "count",
        "cold_solve work_per_s",
    ),
    (
        "numerics.pool_capacity",
        "count",
        "serve_open_loop ok_share",
    ),
    ("numerics.pool_peak_permits", "count", "cold_solve heavy_ms"),
    (
        "numerics.pool_starvations",
        "count",
        "cold_solve work_per_s",
    ),
    (
        "numerics.uniformization_work_bound",
        "count",
        "cold_solve heavy_ms",
    ),
    ("core.reward_us", "us", "warm_sweeps heavy_ms"),
    ("core.sweep_point_self_us", "us", "warm_sweeps heavy_ms"),
    ("core.cache_hits", "count", "serve_open_loop p50_ms"),
    ("core.cache_misses", "count", "serve_open_loop p50_ms"),
    ("core.cache_hit_ratio", "ratio", "serve_open_loop p50_ms"),
    ("store.save_us", "us", "cold_solve work_per_s"),
    ("store.load_us", "us", "warm_sweeps p50_ms, work_per_s"),
    ("store.record_bytes", "bytes", "warm_sweeps p50_ms"),
    ("store.hits", "count", "warm_sweeps p50_ms"),
    ("store.misses", "count", "cold_solve work_per_s"),
    ("store.corrupt", "count", "every metric (must stay 0)"),
    (
        "store.write_failures",
        "count",
        "every metric (must stay 0)",
    ),
    ("serve.submit_rtt_us", "us", "serve_open_loop p50_ms"),
    ("serve.poll_rtt_us", "us", "serve_open_loop p50_ms"),
    (
        "serve.scrape_rtt_us",
        "us",
        "serve_open_loop scrape latency (reported)",
    ),
    ("serve.job_spawn_wait_us", "us", "serve_open_loop p50_ms"),
    ("serve.job_run_hit_ms", "ms", "serve_open_loop p50_ms"),
    (
        "serve.job_run_cold_ms",
        "ms",
        "serve_open_loop heavy_ms, ok_share",
    ),
    (
        "serve.refused_429",
        "count",
        "serve_open_loop ok_share, work_per_s",
    ),
    ("serve.refused_503", "count", "serve_open_loop ok_share"),
    ("serve.polls_per_job", "ratio", "serve_open_loop p50_ms"),
    (
        "serve.generator_late_ms",
        "ms",
        "serve_open_loop p50_ms (job tail, reported)",
    ),
    ("serve.stderr_bytes", "bytes", "serve_open_loop p50_ms"),
    (
        "obs.trace_overhead_pct",
        "pct",
        "every metric (should stay near 0)",
    ),
    (
        "obs.flight_drops",
        "count",
        "serve_open_loop (ring sizing only)",
    ),
    ("cli.process_ms", "ms", "cold_solve p50_ms"),
];

/// Outcome counts of one phase of a workload.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub refused_429: u64,
    pub refused_503: u64,
    pub over_limit: u64,
    pub timeouts: u64,
    pub mismatches: u64,
    pub errors: u64,
}

impl Tally {
    /// Operations that failed: errors, timeouts and oracle mismatches.
    /// Refusals and answers over the latency limit are misses, not
    /// failures: the daemon shedding load is behaviour being measured.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.mismatches + self.errors
    }
}

/// Program counters summed from `--stats` output or daemon metrics.
#[derive(Default, Debug, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_corrupt: u64,
    pub store_write_failures: u64,
}

impl Counters {
    /// Parses the `chain cache` and `solve store` lines of `--stats`.
    pub fn from_stats(stdout: &str) -> Option<Counters> {
        let ints = |prefix: &str| -> Option<Vec<u64>> {
            let line = stdout.lines().find(|l| l.starts_with(prefix))?;
            let (_, rest) = line.split_once(':')?;
            Some(
                rest.split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse().ok())
                    .collect(),
            )
        };
        let cache = ints("chain cache")?;
        let store = ints("solve store")?;
        Some(Counters {
            cache_misses: *cache.get(1)?,
            cache_hits: *cache.get(2)?,
            store_hits: *store.first()?,
            store_misses: *store.get(1)?,
            store_corrupt: *store.get(2)?,
            store_write_failures: *store.get(3)?,
        })
    }

    pub fn add(&mut self, other: Counters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_corrupt += other.store_corrupt;
        self.store_write_failures += other.store_write_failures;
    }
}

/// One finished `nvp` process.
pub struct Proc {
    pub wall_ms: f64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// State of one benchmark run: its inputs, its scratch space, and what it
/// has measured so far.
pub struct Run {
    pub seconds: f64,
    pub trace: bool,
    pub nvp: PathBuf,
    pub work: PathBuf,
    pub rng: stats::Rng,
    pub counters: Counters,
    phases: BTreeMap<&'static str, Tally>,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
    dirs: u64,
}

impl Run {
    pub fn tally(&mut self, phase: &'static str) -> &mut Tally {
        self.phases.entry(phase).or_default()
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.per_layer.insert(name, value);
    }

    /// Operations of `phases` that passed their oracles, over those
    /// attempted.
    pub fn ok_share(&mut self, phases: &[&'static str]) -> f64 {
        let (ok, attempted) = phases.iter().fold((0, 0), |(ok, all), p| {
            let t = self.tally(p);
            (ok + t.ok, all + t.attempted)
        });
        ok as f64 / attempted.max(1) as f64
    }

    /// A fresh, empty directory under the run's scratch space.
    pub fn fresh_dir(&mut self, label: &str) -> Result<PathBuf, String> {
        self.dirs += 1;
        let dir = self.work.join(format!("{label}-{}", self.dirs));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Runs `nvp` with `args` to completion and times it, spawn to exit.
    pub fn nvp(&self, args: &[String]) -> Result<Proc, String> {
        let start = Instant::now();
        let out = Command::new(&self.nvp)
            .args(args)
            .env("NVP_JOBS", JOBS.to_string())
            .env_remove("NVP_CACHE_DIR")
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.nvp.display()))?;
        Ok(Proc {
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            success: out.status.success(),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        })
    }

    /// Prints a sample set as `median (n, tail)` under its metric name.
    pub fn report(&self, name: &str, unit: &str, values: &[f64]) {
        let (label, tail) = stats::tail_or_max(values);
        // Six significant digits, so microsecond timings in seconds show.
        let sig = |v: f64| {
            let digits = 5 - v.abs().max(1e-12).log10().floor() as i32;
            format!("{v:.*}", digits.max(0) as usize)
        };
        println!(
            "metric {name:<28} p50 {:>12} {unit:<5} {label} {:>12} {unit:<5} n={} p10 {} mean {}",
            sig(stats::median(values)),
            sig(tail),
            values.len(),
            sig(stats::quantile(values, 0.1)),
            sig(values.iter().sum::<f64>() / values.len() as f64),
        );
    }

    fn print_phases(&self) {
        for (phase, t) in &self.phases {
            println!(
                "phase  {phase:<20} attempted={} ok={} failed={} refused_429={} refused_503={} \
                 over_limit={} timeouts={} mismatches={} errors={}",
                t.attempted,
                t.ok,
                t.failed(),
                t.refused_429,
                t.refused_503,
                t.over_limit,
                t.timeouts,
                t.mismatches,
                t.errors
            );
        }
    }

    /// The final JSON line of the contract.
    fn result_line(&self) -> Result<String, String> {
        let attempted: u64 = self.phases.values().map(|t| t.attempted).sum();
        let failed: u64 = self.phases.values().map(Tally::failed).sum();
        let mut metrics = Vec::new();
        if self.trace {
            let mut idle = Vec::new();
            for (name, unit, moves) in PER_LAYER {
                let value = self.per_layer.get(name).copied().unwrap_or_else(|| {
                    idle.push(name);
                    0.0
                });
                println!("layer  {name:<36} {value:>14.4} {unit:<5} moves: {moves}");
                metrics.push((name, unit, value));
            }
            println!(
                "layers with no work on this workload (reported as 0): {}",
                idle.join(" ")
            );
        } else {
            for (name, unit) in END_TO_END {
                let value = *self
                    .end_to_end
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                metrics.push((name, unit, value));
            }
        }
        let mut body = Vec::new();
        for (name, unit, value) in metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            attempted.max(1),
            body.join(", ")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Builds `nvp` from the repository at `root` into the benchmark's own
/// target directory and returns the binary's path.
fn build_nvp(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile_dir = exe.parent().ok_or("benchmark binary has no directory")?;
    let target_dir = profile_dir
        .parent()
        .ok_or("benchmark binary has no target dir")?;
    let start = Instant::now();
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "nvp-cli",
            "--bin",
            "nvp",
        ])
        .arg("--target-dir")
        .arg(target_dir)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building nvp failed ({status})"));
    }
    println!(
        "build  nvp up to date in {:.3} s",
        start.elapsed().as_secs_f64()
    );
    Ok(profile_dir.join("nvp"))
}

fn run_benchmark(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run the benchmark from the repository root".into());
    }
    let nvp = build_nvp(&root)?;
    let work = root
        .join(".bench_work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "config workload={} seed={} seconds={} trace={} jobs={JOBS} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut run = Run {
        seconds: args.seconds as f64,
        trace: args.trace,
        nvp,
        work: work.clone(),
        rng: stats::Rng::new(args.seed ^ 0x6e76_7062_656e_6368),
        counters: Counters::default(),
        phases: BTreeMap::new(),
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        dirs: 0,
    };
    let outcome = match args.workload.as_str() {
        "cold_solve" => cold::run(&mut run),
        "warm_sweeps" => warm::run(&mut run),
        "serve_open_loop" => serve::run(&mut run),
        other => Err(format!(
            "unknown workload `{other}` (cold_solve | warm_sweeps | serve_open_loop)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    outcome?;
    let c = run.counters;
    let store_phase = run.tally("store_integrity");
    store_phase.attempted += 1;
    if c.store_corrupt == 0 && c.store_write_failures == 0 {
        store_phase.ok += 1;
    } else {
        store_phase.mismatches += 1;
    }
    println!(
        "counts cache_hits={} cache_misses={} store_hits={} store_misses={} store_corrupt={} \
         store_write_failures={}",
        c.cache_hits,
        c.cache_misses,
        c.store_hits,
        c.store_misses,
        c.store_corrupt,
        c.store_write_failures
    );
    run.print_phases();
    let line = run.result_line()?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The in-process layer probe draws from the same worker budget as
    // the processes the benchmark starts.
    std::env::set_var("NVP_JOBS", JOBS.to_string());
    match run_benchmark(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
