//! `serve_open_loop`: an `nvp serve` daemon with no store, driven open loop
//! over HTTP by independent clients.
//!
//! Jobs arrive as a seeded Poisson process at a few fixed rates, one phase
//! per rate. Most are analyze jobs on a bounded set of structural
//! parameters with varied reward-only fields (chain-cache hits), some have
//! fresh structural parameters (cold N = 6 solves), a few are small alpha
//! sweeps. `GET /metrics` is scraped at a fixed rate beside the job path.
//! One client thread submits when a job is due, polls every in-flight job
//! at a fixed interval, and scrapes; each job is timed from when it was
//! due until the client sees its terminal status.
//!
//! No trace of real `nvp serve` traffic exists, so the job mix, the number
//! of hit sets, the latency limit and the poll interval are assumptions,
//! chosen as their comments say. The run reports how much `ok_share` at
//! the reference rate depends on the assumed cold share.

use crate::cold::{draw, path_layers, print_profile};
use crate::http::Conn;
use crate::stats::{median, tail_or_max};
use crate::trace::{self, parse_jsonl, Profile, Span};
use crate::{probe, Run, Tally};
use nvp_core::analysis::{linspace, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reliability::ReliabilitySource;
use nvp_core::reward::RewardPolicy;
use nvp_obs::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Job arrival rates (jobs/s), one phase each, light load first; the
/// phase names failures are tallied under; and each phase's share of the
/// run, in sevenths.
const RATES: [f64; 5] = [25.0, 50.0, 100.0, 200.0, 400.0];
const PHASES: [&str; 5] = ["rate_25", "rate_50", "rate_100", "rate_200", "rate_400"];
const SEVENTHS: [f64; 5] = [1.0, 1.0, 1.0, 3.0, 1.0];

/// Index into [`RATES`] of the reference rate `p50_ms`, `ok_share` and the
/// reported job tail are read at. Its phase is the longest, with about two
/// thousand finished jobs, so the tail it reports is p99.
const REFERENCE: usize = 3;

/// A job counts as OK when it finishes, correct, within this limit. About
/// seven times a cold N = 6 job's run, so a job admitted to an idle pool
/// meets it and a miss means a refusal, a queue or a stall.
const LATENCY_LIMIT_MS: f64 = 100.0;

/// The OK share `max_ok_rate` finds the highest arrival rate for.
const OK_TARGET: f64 = 0.95;

/// Interval between two polls of one in-flight job. A cache-hit job takes
/// about 1 ms from submit to `done`, so a coarser interval would hide the
/// hit path behind the polling floor.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// `GET /metrics` scrapes per second.
const SCRAPE_RATE: f64 = 10.0;

/// A job with no terminal status this long after it was due is a timeout.
const JOB_TIMEOUT: Duration = Duration::from_secs(10);

/// Structural parameter sets the cache-hit jobs draw from: a bounded set
/// that stays in the daemon's chain cache.
const HIT_SETS: usize = 4;

/// Shares of the job mix; the rest are cache-hit analyze jobs. A cold job
/// holds the only job permit for about 13 ms, so at this cold share the
/// pool is nearly idle at the lightest rate and turns away about a quarter
/// of the jobs at the reference rate: the rates span light load to past the
/// point where refusals start, and most jobs still take the hit path.
const COLD_SHARE: f64 = 0.10;
const SWEEP_SHARE: f64 = 0.05;

/// Cold shares the loss model predicts the reference `ok_share` for.
const WHAT_IF_COLD_SHARES: [f64; 3] = [0.05, 0.10, 0.20];

/// Points of a sweep job.
const SWEEP_STEPS: usize = 8;

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Flight-ring capacity of a traced run, large enough to keep every span;
/// a run whose ring wraps fails.
const TRACED_FLIGHT_RECORDS: usize = 1 << 18;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hit,
    Cold,
    Sweep,
}

struct Spec {
    kind: Kind,
    params: SystemParams,
    /// Alpha grid of a sweep job.
    sweep: Option<(f64, f64)>,
}

impl Spec {
    fn body(&self) -> String {
        let p = &self.params;
        let mut body = format!(
            "{{\"n\":{},\"interval\":{},\"mttc\":{},\"p\":{},\"p_prime\":{}",
            p.n, p.rejuvenation_interval, p.mean_time_to_compromise, p.p, p.p_prime
        );
        match self.sweep {
            Some((from, to)) => body.push_str(&format!(
                ",\"axis\":\"alpha\",\"from\":{from},\"to\":{to},\"steps\":{SWEEP_STEPS}}}"
            )),
            None => body.push_str(&format!(",\"alpha\":{}}}", p.alpha)),
        }
        body
    }

    fn path(&self) -> &'static str {
        if self.sweep.is_some() {
            "/v1/sweep"
        } else {
            "/v1/analyze"
        }
    }
}

/// A running `nvp serve`; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: PathBuf,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(run: &mut Run, flight_records: Option<usize>) -> Result<Daemon, String> {
        let stderr = run.fresh_dir("daemon")?.join("stderr.log");
        let log = std::fs::File::create(&stderr).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(&run.nvp);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--jobs"])
            .arg(crate::JOBS.to_string())
            .env("NVP_JOBS", crate::JOBS.to_string())
            .env_remove("NVP_CACHE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        if let Some(records) = flight_records {
            cmd.args(["--flight-records", &records.to_string()]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start nvp serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                stderr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("nvp serve did not report its address: {line:?}"))
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One submission and what the client saw of it.
struct Job {
    spec: Spec,
    /// Due time to terminal status, for a job that finished.
    latency_ms: Option<f64>,
    result: Option<Json>,
}

/// A job the client is waiting on.
struct InFlight {
    index: usize,
    id: u64,
    due: Instant,
    next_poll: Instant,
}

/// Measurements of one phase (one arrival rate).
struct Phase {
    name: &'static str,
    rate: f64,
    jobs: Range<usize>,
    tally: Tally,
    latencies: Vec<f64>,
    cold_latencies: Vec<f64>,
    scrapes: Vec<f64>,
}

/// Client-side timings over all phases.
#[derive(Default)]
struct Client {
    submit_us: Vec<f64>,
    poll_us: Vec<f64>,
    scrape_us: Vec<f64>,
    late_ms: Vec<f64>,
    polls: u64,
    kinds: HashMap<u64, Kind>,
}

fn draw_spec(run: &mut Run, hit_sets: &[SystemParams]) -> Spec {
    let roll = run.rng.unit();
    let (kind, mut params) = if roll < COLD_SHARE {
        (Kind::Cold, draw(run, 6))
    } else {
        let set = hit_sets[run.rng.below(hit_sets.len())].clone();
        let kind = if roll < COLD_SHARE + SWEEP_SHARE {
            Kind::Sweep
        } else {
            Kind::Hit
        };
        (kind, set)
    };
    params.alpha = run.rng.uniform(0.1, 0.9);
    params.p = run.rng.uniform(0.02, 0.15);
    params.p_prime = run.rng.uniform(0.2, 0.8);
    let sweep =
        (kind == Kind::Sweep).then(|| (run.rng.uniform(0.1, 0.3), run.rng.uniform(0.6, 0.9)));
    Spec {
        kind,
        params,
        sweep,
    }
}

fn status_of(body: &str) -> Option<(String, Json)> {
    let doc = Json::parse(body).ok()?;
    let status = doc.get("status")?.as_str()?.to_owned();
    Some((status, doc))
}

fn job_id(body: &str) -> Option<u64> {
    status_of(body)?.1.get("job")?.as_u64()
}

fn is_pending(status: &str) -> bool {
    status == "queued" || status == "running"
}

/// Submits `spec` and polls it to a terminal status, closed loop; used to
/// warm the daemon's chain cache during set-up.
fn run_to_completion(conn: &mut Conn, spec: &Spec) -> Result<(), String> {
    let err = |e: std::io::Error| e.to_string();
    let accepted = conn.post(spec.path(), &spec.body()).map_err(err)?;
    let id = job_id(&accepted.body)
        .ok_or_else(|| format!("warm-up job refused: {} {}", accepted.status, accepted.body))?;
    let start = Instant::now();
    while start.elapsed() < JOB_TIMEOUT {
        let polled = conn.get(&format!("/v1/jobs/{id}")).map_err(err)?;
        match status_of(&polled.body) {
            Some((s, _)) if s == "done" => return Ok(()),
            Some((s, _)) if is_pending(&s) => std::thread::sleep(POLL_INTERVAL),
            _ => return Err(format!("warm-up job failed: {}", polled.body)),
        }
    }
    Err("warm-up job timed out".into())
}

/// Starts a daemon with a flight ring of `flight_records` (the daemon's
/// default for `None`) and warms its chain cache with every hit set.
fn set_up(
    run: &mut Run,
    hit_sets: &[SystemParams],
    flight_records: Option<usize>,
) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(run, flight_records)?;
    let mut conn = Conn::new(daemon.addr);
    for params in hit_sets {
        let spec = Spec {
            kind: Kind::Hit,
            params: params.clone(),
            sweep: None,
        };
        run.tally("setup").attempted += 1;
        run_to_completion(&mut conn, &spec)?;
        run.tally("setup").ok += 1;
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// The open-loop client of one phase.
struct OpenLoop<'a> {
    addr: SocketAddr,
    jobs: &'a mut Vec<Job>,
    client: &'a mut Client,
    traced: bool,
}

impl OpenLoop<'_> {
    /// Runs one phase: Poisson arrivals at `rate` jobs/s for `seconds`,
    /// then waits for every accepted job to finish.
    fn phase(
        &mut self,
        run: &mut Run,
        name: &'static str,
        rate: f64,
        seconds: f64,
        hit_sets: &[SystemParams],
    ) -> Phase {
        let mut arrivals = Vec::new();
        let mut at = run.rng.exponential(rate);
        while at < seconds {
            arrivals.push(at);
            at += run.rng.exponential(rate);
        }
        let first = self.jobs.len();
        for _ in &arrivals {
            let spec = draw_spec(run, hit_sets);
            self.jobs.push(Job {
                spec,
                latency_ms: None,
                result: None,
            });
        }
        let mut phase = Phase {
            name,
            rate,
            jobs: first..self.jobs.len(),
            tally: Tally::default(),
            latencies: Vec::new(),
            cold_latencies: Vec::new(),
            scrapes: Vec::new(),
        };

        let mut conn = Conn::new(self.addr);
        let mut scraper = Conn::new(self.addr);
        let mut inflight: Vec<InFlight> = Vec::new();
        let start = Instant::now();
        let due_at = |i: usize| start + Duration::from_secs_f64(arrivals[i]);
        let scrape_every = Duration::from_secs_f64(1.0 / SCRAPE_RATE);
        let mut next_scrape = start + scrape_every;
        let mut next = 0usize;
        loop {
            let now = Instant::now();
            if next < arrivals.len() && due_at(next) <= now {
                let due = due_at(next);
                let index = first + next;
                next += 1;
                self.submit(&mut conn, &mut phase, &mut inflight, index, due, now);
            } else if next < arrivals.len() && next_scrape <= now {
                let _span = self.span("bench.serve.scrape");
                let t = Instant::now();
                match scraper.get("/metrics") {
                    Ok(r) if r.status == 200 => {
                        self.client.scrape_us.push(t.elapsed().as_secs_f64() * 1e6);
                        phase.scrapes.push(ms_since(next_scrape));
                    }
                    _ => phase.tally.errors += 1,
                }
                next_scrape += scrape_every;
            } else if let Some(pos) = inflight.iter().position(|j| j.next_poll <= now) {
                if self.poll(&mut conn, &mut phase, &mut inflight[pos]) {
                    inflight.swap_remove(pos);
                }
            } else {
                // Sleep until the next due submission, scrape or poll.
                let mut wake = inflight.iter().map(|j| j.next_poll).min();
                if next < arrivals.len() {
                    let arrival = due_at(next).min(next_scrape);
                    wake = Some(wake.map_or(arrival, |w| w.min(arrival)));
                }
                let Some(wake) = wake else { break };
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            }
        }
        phase
    }

    fn span(&self, name: &'static str) -> Option<nvp_obs::SpanGuard> {
        self.traced.then(|| nvp_obs::span(name))
    }

    fn submit(
        &mut self,
        conn: &mut Conn,
        phase: &mut Phase,
        inflight: &mut Vec<InFlight>,
        index: usize,
        due: Instant,
        now: Instant,
    ) {
        phase.tally.attempted += 1;
        self.client.late_ms.push((now - due).as_secs_f64() * 1e3);
        let spec = &self.jobs[index].spec;
        let _span = self.span("bench.serve.submit");
        let t = Instant::now();
        let response = conn.post(spec.path(), &spec.body());
        self.client.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        match response {
            Ok(r) if r.status == 202 => match job_id(&r.body) {
                Some(id) => {
                    self.client.kinds.insert(id, spec.kind);
                    inflight.push(InFlight {
                        index,
                        id,
                        due,
                        next_poll: Instant::now() + POLL_INTERVAL,
                    });
                }
                None => phase.tally.errors += 1,
            },
            Ok(r) if r.status == 429 => phase.tally.refused_429 += 1,
            Ok(r) if r.status == 503 => phase.tally.refused_503 += 1,
            Ok(r) => {
                eprintln!("submit answered {}: {}", r.status, r.body);
                phase.tally.errors += 1;
            }
            Err(e) if is_timeout(&e) => phase.tally.timeouts += 1,
            Err(e) => {
                eprintln!("submit failed: {e}");
                phase.tally.errors += 1;
            }
        }
    }

    /// Polls one in-flight job; true once it has left the in-flight set.
    fn poll(&mut self, conn: &mut Conn, phase: &mut Phase, job: &mut InFlight) -> bool {
        let _span = self.span("bench.serve.poll");
        let t = Instant::now();
        let polled = conn.get(&format!("/v1/jobs/{}", job.id));
        self.client.poll_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.client.polls += 1;
        let seen = Instant::now();
        match polled.ok().and_then(|r| status_of(&r.body)) {
            Some((s, _)) if is_pending(&s) => {
                if seen - job.due > JOB_TIMEOUT {
                    phase.tally.timeouts += 1;
                    return true;
                }
                job.next_poll = seen + POLL_INTERVAL;
                false
            }
            Some((s, doc)) if s == "done" => {
                let latency = (seen - job.due).as_secs_f64() * 1e3;
                let record = &mut self.jobs[job.index];
                record.latency_ms = Some(latency);
                record.result = doc.get("result").cloned();
                phase.latencies.push(latency);
                if record.spec.kind == Kind::Cold {
                    phase.cold_latencies.push(latency);
                }
                true
            }
            other => {
                eprintln!("job {} ended badly: {other:?}", job.id);
                phase.tally.errors += 1;
                true
            }
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Checks a finished job's result bit for bit against the same parameters
/// analyzed in process.
fn verify(engine: &AnalysisEngine, spec: &Spec, result: &Json) -> Result<bool, String> {
    let analyze = |params: &SystemParams| -> Result<u64, String> {
        engine
            .analyze(
                params,
                RewardPolicy::FailedOnly,
                ReliabilitySource::Auto,
                SolverBackend::Auto,
            )
            .map(|r| r.expected_reliability.to_bits())
            .map_err(|e| format!("reference analysis failed: {e}"))
    };
    let Some((from, to)) = spec.sweep else {
        let served = result.get("expected_reliability").and_then(Json::as_f64);
        return Ok(served.map(f64::to_bits) == Some(analyze(&spec.params)?));
    };
    let Some(Json::Arr(points)) = result.get("points") else {
        return Ok(false);
    };
    let grid = linspace(from, to, SWEEP_STEPS);
    if points.len() != grid.len() {
        return Ok(false);
    }
    for (point, &x) in points.iter().zip(&grid) {
        let mut params = spec.params.clone();
        params.alpha = x;
        let expected = vec![x.to_bits(), analyze(&params)?];
        let served: Vec<u64> = match point {
            Json::Arr(pair) => pair
                .iter()
                .filter_map(Json::as_f64)
                .map(f64::to_bits)
                .collect(),
            _ => Vec::new(),
        };
        if served != expected {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Mean time in seconds a job holds its permit, fitted to the misses of
/// all phases at once.
///
/// Admission grants a job one pool permit or refuses it, which makes the
/// daemon a loss system: with offered load `rho = rate * s`, where `s` is
/// the time a job holds its permit, a share `1 / (1 + rho)` is served
/// (Erlang's loss formula for one server, whatever the distribution of
/// `s`). So misses / OK = `rate * s` in every phase. The fit uses every
/// job instead of the few near one crossing, which a rate ladder alone
/// would.
fn fitted_hold_s(phases: &[Phase]) -> f64 {
    let misses: f64 = phases
        .iter()
        .map(|p| (p.tally.attempted - p.tally.ok) as f64)
        .sum();
    let load: f64 = phases.iter().map(|p| p.rate * p.tally.ok as f64).sum();
    misses / load.max(f64::MIN_POSITIVE)
}

/// The OK share the loss model predicts at `rate` for hold time `hold_s`.
fn model_ok_share(rate: f64, hold_s: f64) -> f64 {
    1.0 / (1.0 + rate * hold_s)
}

/// Highest arrival rate at which [`OK_TARGET`] of the jobs finish OK:
/// solves `1 / (1 + rate * s) = OK_TARGET` for the fitted `s`. Reads the
/// top rate when nothing was missed.
fn max_ok_rate(hold_s: f64) -> f64 {
    if hold_s == 0.0 {
        return RATES[RATES.len() - 1];
    }
    (1.0 / OK_TARGET - 1.0) / hold_s
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let hit_sets: Vec<SystemParams> = (0..HIT_SETS).map(|_| draw(run, 6)).collect();
    let mut setups = Vec::new();
    let mut daemon = None;
    let flight_records = run.trace.then_some(TRACED_FLIGHT_RECORDS);
    for _ in 0..SETUPS {
        drop(daemon.take());
        let (d, secs) = set_up(run, &hit_sets, flight_records)?;
        daemon = Some(d);
        setups.push(secs);
    }
    let daemon = daemon.expect("SETUPS > 0");

    let mut jobs = Vec::new();
    let mut client = Client::default();
    let mut phases = Vec::new();
    let mut baseline = None;
    if run.trace {
        nvp_obs::trace::start_recording();
    }
    for (i, &rate) in RATES.iter().enumerate() {
        let seconds = run.seconds * SEVENTHS[i] / 7.0;
        if run.trace && i == REFERENCE {
            // The tracing overhead baseline: the reference rate once more,
            // as a timed run drives it: a second daemon with the default
            // flight ring, and the client's spans off.
            let (untraced, _) = set_up(run, &hit_sets, None)?;
            let mut client_loop = OpenLoop {
                addr: untraced.addr,
                jobs: &mut jobs,
                client: &mut client,
                traced: false,
            };
            baseline = Some(client_loop.phase(run, "reference_untraced", rate, seconds, &hit_sets));
        }
        let mut client_loop = OpenLoop {
            addr: daemon.addr,
            jobs: &mut jobs,
            client: &mut client,
            traced: run.trace,
        };
        phases.push(client_loop.phase(run, PHASES[i], rate, seconds, &hit_sets));
    }
    let client_spans = if run.trace {
        trace::from_records(nvp_obs::trace::stop_recording())
    } else {
        Vec::new()
    };

    // Oracle: every finished job equals the same parameters analyzed in
    // process, bit for bit. A mismatch is a failed job.
    let engine = AnalysisEngine::new();
    for phase in phases.iter_mut().chain(baseline.as_mut()) {
        check_phase(&engine, &jobs, phase)?;
        *run.tally(phase.name) = phase.tally;
    }
    let hold_s = fitted_hold_s(&phases);
    for phase in phases.iter().chain(baseline.as_ref()) {
        let (label, tail) = tail_or_max(&phase.latencies);
        println!(
            "rate   {:<18} {:>6.1}/s due={} ok_share={:.4} model={:.4} p50={:.3} ms \
             {label}={tail:.3} ms scrape_p50={:.3} ms",
            phase.name,
            phase.rate,
            phase.tally.attempted,
            ok_share(phase),
            model_ok_share(phase.rate, hold_s),
            median(&phase.latencies),
            median(&phase.scrapes),
        );
    }
    let reference = &phases[REFERENCE];
    let cold: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.cold_latencies.clone())
        .collect();
    let scrapes: Vec<f64> = phases.iter().flat_map(|p| p.scrapes.clone()).collect();
    let rate = max_ok_rate(hold_s);
    let goodput = phases.iter().map(|p| p.tally.ok).sum::<u64>() as f64 / run.seconds;
    run.report("setup_s", "s", &setups);
    run.report("job_ms", "ms", &reference.latencies);
    run.report("cold_job_ms", "ms", &cold);
    run.report("scrape_ms", "ms", &scrapes);
    run.report("generator_late_ms", "ms", &client.late_ms);
    println!(
        "metric max_ok_rate {rate:.3} 1/s (ok_share >= {OK_TARGET} within {LATENCY_LIMIT_MS} ms; \
         poll every {} ms; rates {RATES:?}; reference {} /s)",
        POLL_INTERVAL.as_secs_f64() * 1e3,
        RATES[REFERENCE]
    );
    let stderr_bytes = std::fs::metadata(&daemon.stderr).map_or(0, |m| m.len());
    println!("metric serve_stderr_bytes {stderr_bytes}");
    println!(
        "metric goodput_per_s {goodput:.3} 1/s (jobs OK within the limit per second, all rates)"
    );
    println!(
        "metric job_ok_share {:.4} ratio (reference rate, n={})",
        ok_share(reference),
        reference.tally.attempted
    );
    print_cold_share_sensitivity(&jobs, &cold, hold_s, ok_share(reference));

    if run.trace {
        let completed = jobs.iter().filter(|j| j.latency_ms.is_some()).count();
        let overhead = baseline.map(|b| median(&reference.latencies) / median(&b.latencies) - 1.0);
        run.layer(
            "serve.polls_per_job",
            client.polls as f64 / completed.max(1) as f64,
        );
        run.layer("serve.stderr_bytes", stderr_bytes as f64);
        run.layer(
            "serve.refused_429",
            phases.iter().map(|p| p.tally.refused_429).sum::<u64>() as f64,
        );
        run.layer(
            "serve.refused_503",
            phases.iter().map(|p| p.tally.refused_503).sum::<u64>() as f64,
        );
        if let Some(overhead) = overhead {
            run.layer("obs.trace_overhead_pct", 100.0 * overhead);
        }
        return trace_layers(run, &daemon, &client, &client_spans, &hit_sets);
    }
    run.e2e("setup_s", median(&setups));
    run.e2e("p50_ms", median(&reference.latencies));
    run.e2e("heavy_ms", median(&cold));
    run.e2e("work_per_s", goodput);
    run.e2e("ok_share", ok_share(reference));
    Ok(())
}

/// Checks every finished job of `phase` against the in-process oracle and
/// the latency limit, and counts the outcome in the phase's tally.
fn check_phase(engine: &AnalysisEngine, jobs: &[Job], phase: &mut Phase) -> Result<(), String> {
    for job in &jobs[phase.jobs.clone()] {
        let (Some(latency), Some(result)) = (job.latency_ms, &job.result) else {
            continue;
        };
        if !verify(engine, &job.spec, result)? {
            phase.tally.mismatches += 1;
        } else if latency <= LATENCY_LIMIT_MS {
            phase.tally.ok += 1;
        } else {
            phase.tally.over_limit += 1;
        }
    }
    Ok(())
}

/// Jobs finished OK within the latency limit / jobs due.
fn ok_share(phase: &Phase) -> f64 {
    phase.tally.ok as f64 / phase.tally.attempted.max(1) as f64
}

/// Prints the reference `ok_share` the loss model predicts for other cold
/// shares of the job mix. A cold job holds the permit for about its
/// latency above a hit job's, so each unit of cold share moved from hits
/// adds that much to the fitted mean hold time.
fn print_cold_share_sensitivity(jobs: &[Job], cold: &[f64], hold_s: f64, measured: f64) {
    let hits: Vec<f64> = jobs
        .iter()
        .filter(|j| j.spec.kind == Kind::Hit)
        .filter_map(|j| j.latency_ms)
        .collect();
    let extra_s = (median(cold) - median(&hits)).max(0.0) / 1e3;
    let predicted: Vec<String> = WHAT_IF_COLD_SHARES
        .iter()
        .map(|&share| {
            let hold = (hold_s + (share - COLD_SHARE) * extra_s).max(0.0);
            format!("{share} -> {:.4}", model_ok_share(RATES[REFERENCE], hold))
        })
        .collect();
    println!(
        "metric ok_share_vs_cold_share {} (loss model at the reference rate; assumed cold share \
         {COLD_SHARE}, measured ok_share {measured:.4})",
        predicted.join(", ")
    );
}

/// Per-layer metrics of a traced run, from the daemon's flight ring and
/// metrics, the client's timings, and the layer probe.
fn trace_layers(
    run: &mut Run,
    daemon: &Daemon,
    client: &Client,
    client_spans: &[Span],
    hit_sets: &[SystemParams],
) -> Result<(), String> {
    let mut conn = Conn::new(daemon.addr);
    let ring = conn
        .get("/v1/debug/recorder")
        .map_err(|e| format!("cannot read the flight ring: {e}"))?;
    let metrics = conn
        .get("/metrics")
        .map_err(|e| format!("cannot scrape metrics: {e}"))?;
    let spans = parse_jsonl(&ring.body);
    let flight = ring
        .body
        .lines()
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|m| m.get("flight").cloned())
        .ok_or("the flight ring dump has no meta line")?;
    let count = |key: &str| flight.get(key).and_then(Json::as_u64).unwrap_or(0);
    let (capacity, pushed, kept) = (count("capacity"), count("pushed"), count("records"));
    // A wrapped ring holds only the end of the run, so its self times
    // would not cover the run: that is a failed traced run.
    let ring_phase = run.tally("flight_ring");
    ring_phase.attempted += 1;
    if pushed > capacity {
        eprintln!("the flight ring wrapped: {pushed} records pushed, capacity {capacity}");
        ring_phase.errors += 1;
    } else {
        ring_phase.ok += 1;
    }
    let requests: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "http.request")
        .map(|s| (s.id, s.end_ns))
        .collect();
    let mut spawn_wait = Vec::new();
    let mut run_hit = Vec::new();
    let mut run_cold = Vec::new();
    for s in spans.iter().filter(|s| s.name == "job.run") {
        if let Some(end) = s.link.and_then(|l| requests.get(&l)) {
            spawn_wait.push(s.start_ns.saturating_sub(*end) as f64 / 1e3);
        }
        match s.job.and_then(|j| client.kinds.get(&j)) {
            Some(Kind::Hit) => run_hit.push(s.dur_ns() as f64 / 1e6),
            Some(Kind::Cold) => run_cold.push(s.dur_ns() as f64 / 1e6),
            _ => {}
        }
    }
    let mut profile = Profile::default();
    profile.add(&spans);
    let counter = |name: &str| -> f64 {
        metrics
            .body
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let probe_profile = probe::run(run, &hit_sets[0], 9)?;
    path_layers(run, &profile);
    let (hits, misses) = (
        counter("nvp_cache_hits_total"),
        counter("nvp_cache_misses_total"),
    );
    run.layer("core.cache_hits", hits);
    run.layer("core.cache_misses", misses);
    run.layer("core.cache_hit_ratio", hits / (hits + misses).max(1.0));
    run.layer("serve.submit_rtt_us", median(&client.submit_us));
    run.layer("serve.poll_rtt_us", median(&client.poll_us));
    run.layer("serve.scrape_rtt_us", median(&client.scrape_us));
    run.layer("serve.job_spawn_wait_us", median(&spawn_wait));
    run.layer("serve.job_run_hit_ms", median(&run_hit));
    run.layer("serve.job_run_cold_ms", median(&run_cold));
    run.layer("serve.generator_late_ms", tail_or_max(&client.late_ms).1);
    // Records pushed but not in the ring: overwritten when it wrapped, or
    // dropped on a contended slot.
    run.layer("obs.flight_drops", pushed.saturating_sub(kept) as f64);
    let mut client_profile = Profile::default();
    client_profile.add(client_spans);
    print_profile("daemon flight ring", &profile);
    print_profile("client", &client_profile);
    print_profile("probe", &probe_profile);
    Ok(())
}
