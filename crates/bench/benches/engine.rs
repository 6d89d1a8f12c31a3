//! Criterion microbenches of the analysis engine's stages: reachability
//! exploration, MRGP steady state, and reliability-function evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use nvp_core::model;
use nvp_core::params::SystemParams;
use nvp_core::reliability::{ReliabilityModel, ReliabilitySource};
use nvp_core::state::enumerate_states;
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let six = SystemParams::paper_six_version();
    let net6 = model::build_model(&six).unwrap();
    let graph6 = nvp_petri::reach::explore(&net6, 100_000).unwrap();
    let nine = SystemParams::builder().n(9).f(2).build().unwrap();
    let net9 = model::build_model(&nine).unwrap();

    let mut group = c.benchmark_group("engine");
    group.bench_function("explore_six_version", |b| {
        b.iter(|| black_box(nvp_petri::reach::explore(&net6, 100_000).unwrap()))
    });
    group.bench_function("explore_nine_version", |b| {
        b.iter(|| black_box(nvp_petri::reach::explore(&net9, 100_000).unwrap()))
    });
    group.bench_function("mrgp_steady_state_six_version", |b| {
        b.iter(|| black_box(nvp_mrgp::steady_state(&graph6).unwrap()))
    });
    let model6 = ReliabilityModel::for_params(&six, ReliabilitySource::Auto).unwrap();
    group.bench_function("reliability_paper_six_all_states", |b| {
        b.iter(|| {
            let point = model6.at(0.08, 0.5, 0.5).unwrap();
            let mut acc = 0.0;
            for s in enumerate_states(6) {
                acc += point.reliability(black_box(s)).unwrap();
            }
            black_box(acc)
        })
    });
    let generic9 = ReliabilityModel::Generic { n: 9, threshold: 6 };
    group.bench_function("reliability_generic_nine_all_states", |b| {
        b.iter(|| {
            let point = generic9.at(0.08, 0.5, 0.5).unwrap();
            let mut acc = 0.0;
            for s in enumerate_states(9) {
                acc += point.reliability(black_box(s)).unwrap();
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
