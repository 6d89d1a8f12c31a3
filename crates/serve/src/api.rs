//! Request/response bodies of the `nvp serve` JSON API.
//!
//! Request parsing is *strict*: unknown keys, wrong types, and
//! out-of-range values are errors, not silently-ignored noise — on a
//! network ingress a typo'd `"stepz"` must fail loudly rather than run a
//! 10-point default sweep. Responses are built as [`Json`] values and
//! serialized with [`Json::emit`], so everything the daemon sends parses
//! with the same hardened parser it reads with.

use nvp_core::analysis::{AnalysisReport, ParamAxis, SolverBackend, MAX_SWEEP_STEPS};
use nvp_core::jobs::{JobOutcome, JobSnapshot, JobStatus};
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use nvp_obs::json::Json;

/// A parsed `POST /v1/analyze` request.
#[derive(Debug, Clone)]
pub struct AnalyzeSpec {
    /// System parameters (paper defaults with request overrides applied).
    pub params: SystemParams,
    /// Reward interpretation.
    pub policy: RewardPolicy,
    /// Solver backend (a `max_markings` cap selects the budgeted backend).
    pub backend: SolverBackend,
    /// Per-request deadline in milliseconds.
    pub budget_ms: Option<u64>,
}

/// A parsed `POST /v1/sweep` request.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The analyze-level fields (params, policy, backend, deadline).
    pub base: AnalyzeSpec,
    /// Swept parameter.
    pub axis: ParamAxis,
    /// Grid start (inclusive).
    pub from: f64,
    /// Grid end (inclusive).
    pub to: f64,
    /// Grid size.
    pub steps: usize,
}

fn field_f64(value: &Json, key: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

fn field_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("`{key}` must be a non-negative safe integer"))
}

fn field_u32(value: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(value, key)?).map_err(|_| format!("`{key}` out of range"))
}

fn field_bool(value: &Json, key: &str) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` must be a boolean")),
    }
}

/// Apply one recognized top-level key shared by analyze and sweep bodies.
/// Returns `Ok(false)` if the key is not a shared one.
fn apply_common_key(
    key: &str,
    value: &Json,
    params: &mut SystemParams,
    policy: &mut RewardPolicy,
    budget_ms: &mut Option<u64>,
    max_markings: &mut Option<usize>,
    saw_n: &mut bool,
) -> Result<bool, String> {
    match key {
        "n" => {
            params.n = field_u32(value, key)?;
            *saw_n = true;
        }
        "f" => params.f = field_u32(value, key)?,
        "r" => params.r = field_u32(value, key)?,
        "rejuvenation" => params.rejuvenation = field_bool(value, key)?,
        "alpha" => params.alpha = field_f64(value, key)?,
        "p" => params.p = field_f64(value, key)?,
        "p_prime" => params.p_prime = field_f64(value, key)?,
        "mttc" => params.mean_time_to_compromise = field_f64(value, key)?,
        "mttf" => params.mean_time_to_failure = field_f64(value, key)?,
        "mttr" => params.mean_time_to_repair = field_f64(value, key)?,
        "interval" => params.rejuvenation_interval = field_f64(value, key)?,
        "policy" => {
            *policy = match value.as_str() {
                Some("failed-only") => RewardPolicy::FailedOnly,
                Some("as-written") => RewardPolicy::AsWritten,
                _ => return Err("`policy` must be \"failed-only\" or \"as-written\"".into()),
            };
        }
        "budget_ms" => *budget_ms = Some(field_u64(value, key)?),
        "max_markings" => {
            *max_markings = Some(
                usize::try_from(field_u64(value, key)?)
                    .map_err(|_| "`max_markings` out of range".to_owned())?,
            );
        }
        _ => return Ok(false),
    }
    Ok(true)
}

struct CommonSpec {
    spec: AnalyzeSpec,
    rest: Vec<(String, Json)>,
}

fn parse_common(body: &Json) -> Result<CommonSpec, String> {
    let Json::Obj(members) = body else {
        return Err("request body must be a JSON object".into());
    };
    let mut params = SystemParams::paper_six_version();
    let mut policy = RewardPolicy::FailedOnly;
    let mut budget_ms = None;
    let mut max_markings = None;
    let mut saw_n = false;
    let mut rest = Vec::new();
    for (key, value) in members {
        if !apply_common_key(
            key,
            value,
            &mut params,
            &mut policy,
            &mut budget_ms,
            &mut max_markings,
            &mut saw_n,
        )? {
            rest.push((key.clone(), value.clone()));
        }
    }
    // Same convention as the CLI: turning rejuvenation off without naming a
    // size selects the paper's four-version comparison system.
    if !params.rejuvenation && !saw_n {
        params.n = 4;
    }
    Ok(CommonSpec {
        spec: AnalyzeSpec {
            params,
            policy,
            backend: max_markings.map_or(SolverBackend::Auto, SolverBackend::Budget),
            budget_ms,
        },
        rest,
    })
}

/// Parse a `POST /v1/analyze` body.
pub fn parse_analyze(body: &Json) -> Result<AnalyzeSpec, String> {
    let common = parse_common(body)?;
    if let Some((key, _)) = common.rest.first() {
        return Err(format!("unknown key `{key}` for analyze"));
    }
    Ok(common.spec)
}

/// Parse a `POST /v1/sweep` body.
pub fn parse_sweep(body: &Json) -> Result<SweepSpec, String> {
    let common = parse_common(body)?;
    let mut axis = None;
    let mut from = None;
    let mut to = None;
    let mut steps = 10usize;
    for (key, value) in &common.rest {
        match key.as_str() {
            "axis" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| "`axis` must be a string".to_owned())?;
                axis = Some(ParamAxis::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown axis `{name}` (gamma | mttc | mttf | mttr | alpha | p | pprime)"
                    )
                })?);
            }
            "from" => from = Some(field_f64(value, key)?),
            "to" => to = Some(field_f64(value, key)?),
            "steps" => {
                steps = usize::try_from(field_u64(value, key)?)
                    .map_err(|_| "`steps` out of range".to_owned())?;
            }
            other => return Err(format!("unknown key `{other}` for sweep")),
        }
    }
    let (Some(axis), Some(from), Some(to)) = (axis, from, to) else {
        return Err("sweep requires `axis`, `from` and `to`".into());
    };
    // The parser already rejects non-finite numbers; ordering and grid size
    // still need validating.
    if from >= to {
        return Err(format!(
            "sweep requires an ascending range `from < to`; got from {from} >= to {to}"
        ));
    }
    if steps < 2 {
        return Err(format!(
            "sweep requires `steps` >= 2 to cover [{from}, {to}]; got {steps}"
        ));
    }
    if steps > MAX_SWEEP_STEPS {
        return Err(format!(
            "sweep `steps` is capped at {MAX_SWEEP_STEPS}; got {steps}"
        ));
    }
    Ok(SweepSpec {
        base: common.spec,
        axis,
        from,
        to,
        steps,
    })
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// `202` body for a freshly submitted job.
pub fn job_accepted(id: u64) -> Json {
    obj(vec![
        ("job", Json::Num(id as f64)),
        ("status", Json::Str("queued".to_owned())),
        ("poll", Json::Str(format!("/v1/jobs/{id}"))),
        ("progress", Json::Str(format!("/v1/jobs/{id}/progress"))),
    ])
}

/// The degraded-result block shared by analyze results and the CLI's
/// WARNING line: same classification, same half-width, but carried in the
/// body — a degraded service answer is `200`, never an error status.
fn degraded_block(report: &AnalysisReport) -> (Json, Json) {
    match &report.degraded {
        Some(d) => (
            obj(vec![
                ("method", Json::Str(d.method.to_string())),
                ("reason", Json::Str(d.reason.clone())),
                (
                    "reliability_half_width",
                    Json::Num(d.reliability_half_width),
                ),
            ]),
            Json::Str(format!(
                "WARNING: degraded result ({}): {}",
                d.method, d.reason
            )),
        ),
        None => (Json::Null, Json::Null),
    }
}

/// `GET /v1/jobs/{id}` body.
pub fn job_status(snapshot: &JobSnapshot) -> Json {
    let mut members = vec![
        ("job", Json::Num(snapshot.id as f64)),
        ("kind", Json::Str(snapshot.kind.label().to_owned())),
        ("status", Json::Str(snapshot.status.label().to_owned())),
        ("total_points", Json::Num(snapshot.total_points as f64)),
        (
            "completed_points",
            Json::Num(snapshot.completed_points as f64),
        ),
    ];
    match (&snapshot.outcome, &snapshot.error) {
        (Some(outcome), _) => match outcome.as_ref() {
            JobOutcome::Analyze(report) => {
                let (degraded, warning) = degraded_block(report);
                members.push((
                    "result",
                    obj(vec![
                        (
                            "expected_reliability",
                            Json::Num(report.expected_reliability),
                        ),
                        ("states", Json::Num(report.states.len() as f64)),
                        ("degraded", degraded),
                        ("warning", warning),
                    ]),
                ));
            }
            JobOutcome::Sweep {
                points,
                csv,
                degraded_points,
            } => {
                let pairs = points
                    .iter()
                    .map(|&(x, r)| Json::Arr(vec![Json::Num(x), Json::Num(r)]))
                    .collect();
                let warning = if *degraded_points > 0 {
                    Json::Str(format!(
                        "WARNING: {degraded_points} of {} points are degraded results",
                        points.len()
                    ))
                } else {
                    Json::Null
                };
                members.push((
                    "result",
                    obj(vec![
                        ("points", Json::Arr(pairs)),
                        ("csv", Json::Str(csv.clone())),
                        ("degraded_points", Json::Num(*degraded_points as f64)),
                        ("warning", warning),
                    ]),
                ));
            }
        },
        (None, Some(error)) => members.push(("error", Json::Str(error.clone()))),
        (None, None) => {}
    }
    obj(members)
}

/// `GET /v1/jobs/{id}/progress` body: journal records from `since` on.
pub fn job_progress(
    id: u64,
    status: JobStatus,
    total: usize,
    since: usize,
    records: &[nvp_core::engine::SweepPointRecord],
) -> Json {
    let points = records
        .iter()
        .map(|r| {
            obj(vec![
                ("index", Json::Num(r.index as f64)),
                ("x", Json::Num(r.x)),
                ("value", Json::Num(r.value)),
                ("degraded", Json::Bool(r.degraded)),
            ])
        })
        .collect();
    obj(vec![
        ("job", Json::Num(id as f64)),
        ("status", Json::Str(status.label().to_owned())),
        ("total_points", Json::Num(total as f64)),
        ("from", Json::Num(since as f64)),
        ("points", Json::Arr(points)),
    ])
}

/// A `{"error": ...}` body.
pub fn error_body(message: &str) -> String {
    obj(vec![("error", Json::Str(message.to_owned()))]).emit()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn analyze_defaults_match_the_paper() {
        let spec = parse_analyze(&parse("{}")).unwrap();
        assert_eq!(spec.params, SystemParams::paper_six_version());
        assert_eq!(spec.policy, RewardPolicy::FailedOnly);
        assert!(spec.budget_ms.is_none());
    }

    #[test]
    fn analyze_overrides_apply() {
        let spec = parse_analyze(&parse(
            r#"{"n":4,"alpha":0.25,"policy":"as-written","budget_ms":500,"max_markings":10000}"#,
        ))
        .unwrap();
        assert_eq!(spec.params.n, 4);
        assert_eq!(spec.params.alpha, 0.25);
        assert_eq!(spec.policy, RewardPolicy::AsWritten);
        assert_eq!(spec.budget_ms, Some(500));
        assert!(matches!(spec.backend, SolverBackend::Budget(10000)));
    }

    #[test]
    fn no_rejuvenation_defaults_to_four_versions() {
        let spec = parse_analyze(&parse(r#"{"rejuvenation":false}"#)).unwrap();
        assert_eq!(spec.params.n, 4);
        let spec = parse_analyze(&parse(r#"{"rejuvenation":false,"n":6}"#)).unwrap();
        assert_eq!(spec.params.n, 6);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(parse_analyze(&parse(r#"{"stepz":3}"#)).is_err());
        assert!(parse_sweep(&parse(r#"{"axis":"alpha","from":0,"to":1,"bogus":true}"#)).is_err());
    }

    #[test]
    fn sweep_requires_a_valid_grid() {
        let ok = parse_sweep(&parse(r#"{"axis":"alpha","from":0.1,"to":0.9,"steps":5}"#)).unwrap();
        assert_eq!(ok.steps, 5);
        assert!(matches!(ok.axis, ParamAxis::Alpha));
        for bad in [
            r#"{"from":0,"to":1}"#,
            r#"{"axis":"alpha","from":1,"to":0}"#,
            r#"{"axis":"alpha","from":0,"to":1,"steps":1}"#,
            r#"{"axis":"nope","from":0,"to":1}"#,
        ] {
            assert!(parse_sweep(&parse(bad)).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn sweep_steps_are_capped() {
        // An uncapped `steps` reaches linspace as a Vec length: 2^53-1
        // would be an allocation-failure abort, not a 400.
        let at_cap = format!(r#"{{"axis":"alpha","from":0,"to":1,"steps":{MAX_SWEEP_STEPS}}}"#);
        assert_eq!(parse_sweep(&parse(&at_cap)).unwrap().steps, MAX_SWEEP_STEPS);
        for over in [MAX_SWEEP_STEPS as u64 + 1, 1_000_000_000, (1 << 53) - 1] {
            let body = format!(r#"{{"axis":"alpha","from":0,"to":1,"steps":{over}}}"#);
            let err = parse_sweep(&parse(&body)).unwrap_err();
            assert!(err.contains("capped"), "steps {over}: {err}");
        }
    }

    #[test]
    fn budget_rejects_unsafe_integers() {
        // 2^64 would silently saturate under the old as_u64; the hardened
        // ingress refuses it end to end.
        assert!(parse_analyze(&parse(r#"{"budget_ms":18446744073709551616}"#)).is_err());
        assert!(parse_analyze(&parse(r#"{"budget_ms":9007199254740993}"#)).is_err());
    }
}
