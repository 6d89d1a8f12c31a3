//! Serve-path latency benchmark.
//!
//! ```text
//! serve_latency [--out FILE] [--check]
//! ```
//!
//! Binds a real [`nvp_serve::Server`] on an ephemeral loopback port and
//! hammers it over TCP exactly as a client would: `GET /healthz`,
//! `GET /metrics`, `POST /v1/analyze` submissions, and `GET /v1/jobs/{id}`
//! polls. Latency quantiles come from the server's own per-endpoint
//! request histograms (the same ones `/metrics` exports), so the numbers
//! are the daemon's view of service time — connection setup on the client
//! side is excluded by construction.
//!
//! The report (default `BENCH_serve_latency.json`) is re-parsed with
//! [`nvp_obs::json`] before it is written, so a malformed emit fails the
//! run rather than polluting CI artifacts. `--check` additionally asserts
//! sample counts and quantile sanity (p50 <= p99, non-zero service time)
//! and exits non-zero on violation.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvp_core::engine::AnalysisEngine;
use nvp_obs::json::Json;
use nvp_obs::metrics::HistogramSnapshot;
use nvp_serve::{ServeConfig, Server};

/// Requests per cheap endpoint; enough samples for a stable p99 of a
/// microsecond-scale handler without turning the bench into a soak test.
const CHEAP_REQUESTS: usize = 200;

/// Jobs submitted through the full analyze pipeline. After the first
/// solve the engine answers from cache, so these measure the service
/// path, not the solver.
const JOBS: usize = 25;

fn main() -> ExitCode {
    let mut out = String::from("BENCH_serve_latency.json");
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
                println!("usage: serve_latency [--out FILE] [--check]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`; see --help");
                return ExitCode::FAILURE;
            }
        }
    }

    // Run quiet, like the daemon, so solver warnings and progress lines stay
    // off stderr. The daemon's per-request lines still go there:
    // `nvp_obs::sink::server` is never suppressed.
    nvp_obs::sink::set_quiet(true);
    let server = match Server::bind(
        Arc::new(AnalysisEngine::new()),
        "127.0.0.1:0",
        ServeConfig::default(),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind the bench server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    let runner = server.clone();
    let run_thread = std::thread::spawn(move || runner.run());

    // Warm-up: the first analyze pays the real solve; everything after
    // answers from the chain cache. Not measured separately — it lands in
    // the same histograms, which is why the check gates quantiles, not
    // maxima.
    let warm = submit_and_await(addr);
    if let Err(e) = warm {
        eprintln!("warm-up job failed: {e}");
        return ExitCode::FAILURE;
    }

    for _ in 0..CHEAP_REQUESTS {
        let _ = roundtrip(addr, "GET", "/healthz", None);
    }
    for _ in 0..CHEAP_REQUESTS {
        let _ = roundtrip(addr, "GET", "/metrics", None);
    }
    for _ in 0..JOBS {
        if let Err(e) = submit_and_await(addr) {
            eprintln!("bench job failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let snapshots = server.latency_snapshots();
    server.shutdown();
    let _ = run_thread.join();

    let report = render_report(&snapshots);
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
    for (name, snapshot) in &snapshots {
        if snapshot.count == 0 {
            continue;
        }
        println!(
            "{name}: {} requests, p50 <= {:.1} us, p99 <= {:.1} us",
            snapshot.count,
            snapshot.quantile_upper_bound(0.5) as f64 / 1e3,
            snapshot.quantile_upper_bound(0.99) as f64 / 1e3,
        );
    }
    println!("wrote {out}");

    if check && !run_checks(&snapshots, &parsed) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One `POST /v1/analyze` submission polled to its terminal state.
fn submit_and_await(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    let id = loop {
        let reply = roundtrip(addr, "POST", "/v1/analyze", Some("{}"))?;
        if reply.status == 429 || reply.status == 503 {
            if Instant::now() >= deadline {
                return Err("submission never admitted".into());
            }
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        if reply.status != 202 {
            return Err(format!("submit answered {}: {}", reply.status, reply.body));
        }
        let doc = Json::parse(&reply.body).map_err(|e| format!("bad submit body: {e}"))?;
        break doc
            .get("job")
            .and_then(Json::as_u64)
            .ok_or("submit body has no job id")?;
    };
    loop {
        let reply = roundtrip(addr, "GET", &format!("/v1/jobs/{id}"), None)?;
        if reply.status != 200 {
            return Err(format!("job poll answered {}", reply.status));
        }
        let doc = Json::parse(&reply.body).map_err(|e| format!("bad job body: {e}"))?;
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => return Ok(()),
            Some("failed") => return Err(format!("job {id} failed: {}", reply.body)),
            _ if Instant::now() >= deadline => return Err(format!("job {id} stuck")),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

struct Reply {
    status: u16,
    body: String,
}

/// One request on its own connection (`Connection: close`), read to EOF.
fn roundtrip(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n");
    match body {
        Some(body) => {
            let _ = write!(raw, "Content-Length: {}\r\n\r\n{body}", body.len());
        }
        None => raw.push_str("\r\n"),
    }
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header terminator in {text:?}"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
    })
}

fn render_report(snapshots: &[(&'static str, HistogramSnapshot)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"nvp-bench/serve-latency/v1\",\n");
    let _ = writeln!(out, "  \"cheap_requests\": {CHEAP_REQUESTS},");
    let _ = writeln!(out, "  \"jobs\": {JOBS},");
    out.push_str("  \"endpoints\": {\n");
    let mut first = true;
    for (name, snapshot) in snapshots {
        if snapshot.count == 0 {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let mean = snapshot.sum as f64 / snapshot.count as f64;
        let _ = write!(
            out,
            concat!(
                "    \"{}\": {{\n",
                "      \"count\": {},\n",
                "      \"mean_nanos\": {:.1},\n",
                "      \"p50_nanos\": {},\n",
                "      \"p99_nanos\": {}\n",
                "    }}"
            ),
            name,
            snapshot.count,
            mean,
            snapshot.quantile_upper_bound(0.5),
            snapshot.quantile_upper_bound(0.99),
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

/// `--check` assertions; each failure prints its own diagnostic.
fn run_checks(snapshots: &[(&'static str, HistogramSnapshot)], parsed: &Json) -> bool {
    let mut ok = true;
    let mut fail = |message: String| {
        eprintln!("check failed: {message}");
        ok = false;
    };
    let expectations: [(&str, u64); 4] = [
        ("healthz", CHEAP_REQUESTS as u64),
        ("metrics", CHEAP_REQUESTS as u64),
        ("analyze", JOBS as u64),
        // One 200 per terminal poll at minimum; retries only add samples.
        ("jobs", JOBS as u64),
    ];
    for (wanted, floor) in expectations {
        let Some((_, snapshot)) = snapshots.iter().find(|(name, _)| *name == wanted) else {
            fail(format!("endpoint {wanted} missing from the snapshots"));
            continue;
        };
        if snapshot.count < floor {
            fail(format!(
                "endpoint {wanted}: {} samples, expected at least {floor}",
                snapshot.count
            ));
        }
        let p50 = snapshot.quantile_upper_bound(0.5);
        let p99 = snapshot.quantile_upper_bound(0.99);
        if p50 == 0 {
            fail(format!("endpoint {wanted}: zero p50 service time"));
        }
        if p50 > p99 {
            fail(format!("endpoint {wanted}: p50 {p50} above p99 {p99}"));
        }
        let in_report = parsed
            .get("endpoints")
            .and_then(|e| e.get(wanted))
            .and_then(|e| e.get("p99_nanos"))
            .and_then(Json::as_u64);
        if in_report != Some(p99) {
            fail(format!(
                "endpoint {wanted}: report p99 {in_report:?} != snapshot {p99}"
            ));
        }
    }
    if ok {
        println!("all checks passed");
    }
    ok
}
