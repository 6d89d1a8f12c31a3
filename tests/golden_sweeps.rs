//! Byte-for-byte golden checks of reward-only sweeps at N = 24, where
//! `E[R_sys]` is evaluated by the generic reliability model over 625
//! markings.
//!
//! `tests/data/sweep_{alpha,p,pprime}_n24.csv` were written by
//! `nvp sweep --axis AXIS --from 0 --to 1 --steps 64 --n 24` while the
//! generic model still evaluated every marking with the scalar binomial
//! formulas (`generic::reference`). Both the engine and the CLI must still
//! print exactly those bytes: every digit of every point, endpoints
//! (probability 0 and 1) included.

use nvp_perception::core::analysis::{linspace, ParamAxis};
use nvp_perception::core::engine::{AnalysisEngine, SweepRequest};
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reward::RewardPolicy;
use nvp_perception::numerics::Jobs;

const AXES: [(&str, ParamAxis, &str); 3] = [
    (
        "alpha",
        ParamAxis::Alpha,
        include_str!("data/sweep_alpha_n24.csv"),
    ),
    (
        "p",
        ParamAxis::HealthyInaccuracy,
        include_str!("data/sweep_p_n24.csv"),
    ),
    (
        "pprime",
        ParamAxis::CompromisedInaccuracy,
        include_str!("data/sweep_pprime_n24.csv"),
    ),
];

#[test]
fn engine_reproduces_the_golden_n24_sweeps() {
    let mut params = SystemParams::paper_six_version();
    params.n = 24;
    let grid = linspace(0.0, 1.0, 64);
    let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(1));
    for (name, axis, golden) in AXES {
        let req = SweepRequest::new(params.clone(), axis, grid.clone(), RewardPolicy::FailedOnly);
        let points = engine.sweep(&req, &|_| {}).unwrap();
        let mut csv = format!("{},expected_reliability\n", axis.label());
        for (x, r) in &points {
            csv.push_str(&format!("{x},{r}\n"));
        }
        assert_eq!(csv, golden, "engine sweep over {name} drifted");
    }
    // Reward-only axes: one chain solve serves all three sweeps.
    assert_eq!(engine.stats().cache_misses, 1);
}

#[test]
fn cli_reproduces_the_golden_n24_sweeps() {
    for (name, _, golden) in AXES {
        let args: Vec<String> = [
            "sweep", "--axis", name, "--from", "0", "--to", "1", "--steps", "64", "--n", "24",
        ]
        .map(String::from)
        .to_vec();
        let mut out = Vec::new();
        nvp_cli::run(&args, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            golden,
            "`nvp sweep --axis {name}` drifted"
        );
    }
}
