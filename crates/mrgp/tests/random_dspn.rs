//! Property-based validation of the MRGP solver against closed forms on
//! randomly parameterized nets.

use nvp_mrgp::reference::steady_state_per_start;
use nvp_mrgp::{steady_state, steady_state_with_options, SolveOptions, SteadyState};
use nvp_numerics::pool::{Jobs, WorkerPool};
use nvp_petri::net::{NetBuilder, PetriNet, TransitionKind};
use nvp_petri::reach::explore;
use proptest::prelude::*;

/// Two-state race net: A leaves via Exp(lambda) *and* Det(tau), both to B;
/// B returns via Exp(mu).
fn race_net(lambda: f64, mu: f64, tau: f64) -> PetriNet {
    let mut b = NetBuilder::new("race");
    let a = b.place("A", 1);
    let c = b.place("B", 0);
    b.transition("exp_leave", TransitionKind::exponential_rate(lambda))
        .unwrap()
        .input(a, 1)
        .output(c, 1);
    b.transition("det_leave", TransitionKind::deterministic_delay(tau))
        .unwrap()
        .input(a, 1)
        .output(c, 1);
    b.transition("back", TransitionKind::exponential_rate(mu))
        .unwrap()
        .input(c, 1)
        .output(a, 1);
    b.build().unwrap()
}

/// Three-state maintenance net (see the solver's unit tests for the
/// derivation of the closed form).
fn maintenance_net(lambda: f64, mu: f64, delta: f64, tau: f64) -> PetriNet {
    let mut b = NetBuilder::new("maintenance");
    let up = b.place("Up", 1);
    let down = b.place("Down", 0);
    let maint = b.place("Maint", 0);
    b.transition("fail", TransitionKind::exponential_rate(lambda))
        .unwrap()
        .input(up, 1)
        .output(down, 1);
    b.transition("clock", TransitionKind::deterministic_delay(tau))
        .unwrap()
        .input(up, 1)
        .output(maint, 1);
    b.transition("repair", TransitionKind::exponential_rate(mu))
        .unwrap()
        .input(down, 1)
        .output(up, 1);
    b.transition("finish", TransitionKind::exponential_rate(delta))
        .unwrap()
        .input(maint, 1)
        .output(up, 1);
    b.build().unwrap()
}

/// A ring of `positions` places with one circulating token (hop `i` fires at
/// `rates[i]`) and a no-op deterministic clock enabled in every marking.
/// Every marking's subordinated chain reaches the whole ring, so all starts
/// are columns of one block class whatever the rates.
fn ring_net(rates: &[f64], tau: f64) -> PetriNet {
    let positions = rates.len();
    let mut b = NetBuilder::new("ring");
    let places: Vec<_> = (0..positions)
        .map(|i| b.place(format!("P{i}"), u32::from(i == 0)))
        .collect();
    let clk = b.place("Clk", 1);
    for (i, &rate) in rates.iter().enumerate() {
        b.transition(format!("hop{i}"), TransitionKind::exponential_rate(rate))
            .unwrap()
            .input(places[i], 1)
            .output(places[(i + 1) % positions], 1);
    }
    b.transition("clock", TransitionKind::deterministic_delay(tau))
        .unwrap()
        .input(clk, 1)
        .output(clk, 1);
    b.build().unwrap()
}

/// The block path agrees with the per-start reference within 1e-12.
fn assert_matches_reference(graph: &nvp_petri::reach::TangibleReachGraph, block: &SteadyState) {
    let (reference, _) = steady_state_per_start(graph, &SolveOptions::default()).unwrap();
    for (i, (a, b)) in block
        .probabilities()
        .iter()
        .zip(reference.probabilities())
        .enumerate()
    {
        assert!((a - b).abs() <= 1e-12, "marking {i}: {a} vs reference {b}");
    }
}

/// An M/D/1/K queue: every non-empty queue runs the service clock, and
/// arrivals move the chain towards the full queue only — so each start
/// reaches a different member set and keys its own class.
fn md1k_net(lambda: f64, delay: f64, capacity: u32) -> PetriNet {
    let mut b = NetBuilder::new("md1k");
    let queue = b.place("Q", 0);
    let free = b.place("Free", capacity);
    b.transition("arrive", TransitionKind::exponential_rate(lambda))
        .unwrap()
        .input(free, 1)
        .output(queue, 1);
    b.transition("serve", TransitionKind::deterministic_delay(delay))
        .unwrap()
        .input(queue, 1)
        .output(free, 1);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pi(A) = E[min(Exp(lambda), tau)] / (E[min(Exp(lambda), tau)] + 1/mu)
    /// for any positive parameters.
    #[test]
    fn race_matches_closed_form(
        lambda in 0.01..5.0f64,
        mu in 0.01..5.0f64,
        tau in 0.05..20.0f64,
    ) {
        let net = race_net(lambda, mu, tau);
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let t_a = (1.0 - (-lambda * tau).exp()) / lambda;
        let expected = t_a / (t_a + 1.0 / mu);
        let a_idx = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![1, 0]))
            .unwrap();
        prop_assert!(
            (sol.probabilities()[a_idx] - expected).abs() < 1e-8,
            "pi(A) = {} vs closed form {expected} at (lambda={lambda}, mu={mu}, tau={tau})",
            sol.probabilities()[a_idx]
        );
    }

    /// pi ∝ (q/lambda, q/mu, (1-q)/delta) with q = 1 - e^{-lambda tau}.
    #[test]
    fn maintenance_matches_closed_form(
        lambda in 0.005..1.0f64,
        mu in 0.05..5.0f64,
        delta in 0.05..5.0f64,
        tau in 0.2..30.0f64,
    ) {
        let net = maintenance_net(lambda, mu, delta, tau);
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let q = 1.0 - (-lambda * tau).exp();
        let weights = [q / lambda, q / mu, (1.0 - q) / delta];
        let total: f64 = weights.iter().sum();
        let m = |v: Vec<u32>| {
            graph
                .index_of(&nvp_petri::marking::Marking::new(v))
                .unwrap()
        };
        let pi = sol.probabilities();
        prop_assert!((pi[m(vec![1, 0, 0])] - weights[0] / total).abs() < 1e-8);
        prop_assert!((pi[m(vec![0, 1, 0])] - weights[1] / total).abs() < 1e-8);
        prop_assert!((pi[m(vec![0, 0, 1])] - weights[2] / total).abs() < 1e-8);
    }

    /// Solutions are always probability distributions, also on nets where
    /// the deterministic transition competes with fast exponentials.
    #[test]
    fn solution_is_distribution(
        lambda in 0.01..50.0f64,
        mu in 0.01..50.0f64,
        tau in 0.01..50.0f64,
    ) {
        let net = race_net(lambda, mu, tau);
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let total: f64 = sol.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(sol.probabilities().iter().all(|&p| p >= 0.0));
    }

    /// On random ring DSPNs the block path is bit-identical across worker
    /// counts, matches the per-start reference within 1e-12, and keys
    /// every start into one class: classes + hits = chains.
    #[test]
    fn ring_block_solve_matches_the_per_start_reference(
        positions in 2usize..6,
        base_rate in 0.05..4.0f64,
        jitter in proptest::collection::vec(0.1..2.0f64, 5),
        tau in 0.1..15.0f64,
        equal_rates in proptest::bool::ANY,
    ) {
        let rates: Vec<f64> = (0..positions)
            .map(|i| if equal_rates { base_rate } else { base_rate * jitter[i] })
            .collect();
        let net = ring_net(&rates, tau);
        let graph = explore(&net, 100).unwrap();
        let serial_opts = SolveOptions { jobs: Jobs::Fixed(1), ..SolveOptions::default() };
        let (serial, serial_stats) = steady_state_with_options(&graph, &serial_opts).unwrap();
        assert_matches_reference(&graph, &serial);
        prop_assert_eq!(serial_stats.subordinated_chains, positions);
        prop_assert_eq!(serial_stats.dedup_classes, 1);
        prop_assert_eq!(
            serial_stats.dedup_classes + serial_stats.dedup_hits,
            serial_stats.subordinated_chains
        );
        WorkerPool::global().set_capacity(WorkerPool::global().capacity().max(4));
        for jobs in [Jobs::Fixed(2), Jobs::Fixed(4)] {
            let opts = SolveOptions { jobs, ..SolveOptions::default() };
            let (parallel, stats) = steady_state_with_options(&graph, &opts).unwrap();
            for (i, (a, b)) in serial
                .probabilities()
                .iter()
                .zip(parallel.probabilities())
                .enumerate()
            {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "marking {} differs under {}: {} vs {}",
                    i, jobs, a, b
                );
            }
            prop_assert_eq!(stats.dedup_classes, serial_stats.dedup_classes);
            prop_assert_eq!(stats.max_truncation_steps, serial_stats.max_truncation_steps);
        }
    }

    /// The race, maintenance and M/D/1/K nets — absorption, firing into
    /// other markings, one class per start — all match the reference.
    #[test]
    fn random_nets_match_the_per_start_reference(
        lambda in 0.01..5.0f64,
        mu in 0.05..5.0f64,
        delta in 0.05..5.0f64,
        tau in 0.05..20.0f64,
        capacity in 1u32..6,
    ) {
        for net in [
            race_net(lambda, mu, tau),
            maintenance_net(lambda, mu, delta, tau),
            md1k_net(lambda, tau, capacity),
        ] {
            let graph = explore(&net, 100).unwrap();
            let (block, stats) = steady_state_with_options(&graph, &SolveOptions::default())
                .unwrap();
            assert_matches_reference(&graph, &block);
            prop_assert_eq!(
                stats.dedup_classes + stats.dedup_hits,
                stats.subordinated_chains
            );
        }
    }
}
