//! Zero-external-dependency structured observability for the nvp workspace.
//!
//! The solve pipeline (reachability exploration → vanishing elimination →
//! MRGP row solves → reward integration → sweep supervision) runs across
//! worker threads behind a memoizing cache; aggregate counters alone cannot
//! answer "where did the time go" or "which worker solved what". This crate
//! provides the introspection surface:
//!
//! - [`trace`]: span-based tracing with monotonic enter/exit timestamps,
//!   parent links, per-thread worker ids, and key/value attributes, plus
//!   typed instantaneous events for resilience machinery (fallback taken,
//!   panic caught, rejuvenation, retry, journal replay). Recording is off by
//!   default and gated behind a single relaxed atomic load so disabled
//!   tracing stays out of hot loops.
//! - [`metrics`]: a registry of counters, gauges, and log-scale latency
//!   histograms with deterministic, mergeable buckets. Every field of
//!   `SolverStats` in `nvp-core` is a read of one of these cells, so the
//!   human-readable stats and the machine-readable exposition can never
//!   drift.
//! - [`sink`]: a process-wide stderr diagnostics sink with one line-buffered
//!   writer, so warnings never interleave with CSV output or each other.
//! - [`progress`]: rate-limited live sweep progress (completed/total,
//!   points/s, ETA, degraded/retried counts), suppressed when stderr is not
//!   a terminal or the sink is quiet.
//! - [`json`] / [`schema`]: a hand-rolled JSON parser and trace schema
//!   checkers used by tests and by the `nvp-trace-check` binary to validate
//!   JSONL and `chrome://tracing` exports without serde.

pub mod json;
pub mod metrics;
pub mod progress;
pub mod recorder;
pub mod schema;
pub mod sink;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use recorder::FlightRecorder;
pub use trace::{event, event_with, span, span_linked, SpanGuard, SpanHandle, TraceRecord, Value};
