//! Mapping DSPN markings to reliability rewards.
//!
//! Equation (1) of the paper computes `E[R_sys] = Σ π_{i,j,k} · R_{i,j,k}`.
//! For the rejuvenating system, the paper's §IV-D *text* counts rejuvenating
//! modules in `k` ("non-operational or rejuvenating"), but only the
//! interpretation in which markings with rejuvenating modules carry **zero**
//! reward reproduces the paper's own Figure 3 (the interior optimum of the
//! rejuvenation interval) and its headline value 0.93464665 — see
//! `DESIGN.md` for the calibration. Both interpretations are provided.

use crate::params::SystemParams;
use crate::reliability::ReliabilityModel;
use crate::state::SystemState;
use crate::{model, Result};
use nvp_petri::marking::Marking;
use nvp_petri::net::PetriNet;
use nvp_petri::reach::TangibleReachGraph;

/// How rejuvenating modules enter the reward of a marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RewardPolicy {
    /// Markings with `#Pmr > 0` have reward 0; otherwise
    /// `k = #Pmf`. This matches reward predicates keyed on the
    /// non-operational place only (the natural TimeNET encoding) and
    /// reproduces the paper's reported numbers. **Default.**
    #[default]
    FailedOnly,
    /// `k = #Pmf + #Pmr`, the literal reading of §IV-D ("k … non-operational
    /// or rejuvenating"). Yields a monotone rejuvenation-interval curve
    /// instead of the paper's interior optimum.
    AsWritten,
}

/// Resolves the indices of the module-state places of a model net.
#[derive(Debug, Clone, Copy)]
pub struct ModulePlaces {
    /// Index of `Pmh`.
    pub healthy: usize,
    /// Index of `Pmc`.
    pub compromised: usize,
    /// Index of `Pmf`.
    pub failed: usize,
    /// Index of `Pmr` (absent in the no-rejuvenation net).
    pub rejuvenating: Option<usize>,
}

impl ModulePlaces {
    /// Locates the module places in a net built by [`crate::model`].
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::UnsupportedConfiguration`] if the net lacks the
    /// standard place names.
    pub fn locate(net: &PetriNet) -> Result<Self> {
        let find = |name: &str| {
            net.place_by_name(name).map(|p| p.index()).ok_or_else(|| {
                crate::CoreError::UnsupportedConfiguration {
                    what: format!("net `{}` has no place `{name}`", net.name()),
                }
            })
        };
        Ok(ModulePlaces {
            healthy: find(model::PLACE_HEALTHY)?,
            compromised: find(model::PLACE_COMPROMISED)?,
            failed: find(model::PLACE_FAILED)?,
            rejuvenating: net
                .place_by_name(model::PLACE_REJUVENATING)
                .map(|p| p.index()),
        })
    }

    /// Extracts the `(i, j, k)` system state of a marking under `policy`,
    /// or `None` when the policy assigns the marking zero reward outright
    /// (rejuvenating modules under [`RewardPolicy::FailedOnly`]).
    pub fn system_state(&self, m: &Marking, policy: RewardPolicy) -> Option<SystemState> {
        let rejuvenating = self.rejuvenating.map_or(0, |idx| m.tokens(idx));
        match policy {
            RewardPolicy::FailedOnly => {
                if rejuvenating > 0 {
                    None
                } else {
                    Some(SystemState::new(
                        m.tokens(self.healthy),
                        m.tokens(self.compromised),
                        m.tokens(self.failed),
                    ))
                }
            }
            RewardPolicy::AsWritten => Some(SystemState::new(
                m.tokens(self.healthy),
                m.tokens(self.compromised),
                m.tokens(self.failed) + rejuvenating,
            )),
        }
    }
}

/// Builds the reward vector `R_{i,j,k}` over the tangible markings of a
/// model net, binding `reliability` to the point's probabilities once
/// ([`ReliabilityModel::at`]).
///
/// # Errors
///
/// Propagates place-lookup and reliability-evaluation errors.
pub fn reward_vector(
    graph: &TangibleReachGraph,
    net: &PetriNet,
    params: &SystemParams,
    reliability: &ReliabilityModel,
    policy: RewardPolicy,
) -> Result<Vec<f64>> {
    let places = ModulePlaces::locate(net)?;
    let point = reliability.at(params.p, params.p_prime, params.alpha)?;
    let mut rewards = Vec::with_capacity(graph.markings().len());
    for m in graph.markings() {
        rewards.push(match places.system_state(m, policy) {
            Some(state) => point.reliability(state)?,
            None => 0.0,
        });
    }
    Ok(rewards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SystemParams;
    use crate::reliability::{ReliabilityModel, ReliabilitySource};
    use nvp_petri::reach::explore;

    #[test]
    fn locate_finds_standard_places() {
        let net = model::build_rejuvenation(&SystemParams::paper_six_version()).unwrap();
        let places = ModulePlaces::locate(&net).unwrap();
        assert!(places.rejuvenating.is_some());

        let net = model::build_no_rejuvenation(&SystemParams::paper_four_version()).unwrap();
        let places = ModulePlaces::locate(&net).unwrap();
        assert!(places.rejuvenating.is_none());
    }

    #[test]
    fn locate_rejects_foreign_net() {
        let mut b = nvp_petri::net::NetBuilder::new("foreign");
        let a = b.place("X", 1);
        b.transition("t", nvp_petri::net::TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        assert!(ModulePlaces::locate(&net).is_err());
    }

    #[test]
    fn failed_only_policy_zeroes_rejuvenating_markings() {
        let params = SystemParams::paper_six_version();
        let net = model::build_rejuvenation(&params).unwrap();
        let graph = explore(&net, 10_000).unwrap();
        let rel = ReliabilityModel::for_params(&params, ReliabilitySource::Auto).unwrap();
        let rewards = reward_vector(&graph, &net, &params, &rel, RewardPolicy::FailedOnly).unwrap();
        let places = ModulePlaces::locate(&net).unwrap();
        let rj = places.rejuvenating.unwrap();
        let mut saw_rejuvenating = false;
        for (m, r) in graph.markings().iter().zip(&rewards) {
            if m.tokens(rj) > 0 {
                saw_rejuvenating = true;
                assert_eq!(*r, 0.0, "rejuvenating marking {m} must have reward 0");
            }
        }
        assert!(saw_rejuvenating, "state space must contain rejuvenation");
    }

    #[test]
    fn as_written_policy_counts_rejuvenating_in_k() {
        let params = SystemParams::paper_six_version();
        let net = model::build_rejuvenation(&params).unwrap();
        let graph = explore(&net, 10_000).unwrap();
        let rel = ReliabilityModel::for_params(&params, ReliabilitySource::Auto).unwrap();
        let rewards = reward_vector(&graph, &net, &params, &rel, RewardPolicy::AsWritten).unwrap();
        let places = ModulePlaces::locate(&net).unwrap();
        let rj = places.rejuvenating.unwrap();
        // A marking with 5 healthy + 1 rejuvenating maps to state (5,0,1),
        // whose printed reliability is 0.97 at the defaults.
        let target = graph
            .markings()
            .iter()
            .position(|m| {
                m.tokens(places.healthy) == 5
                    && m.tokens(places.compromised) == 0
                    && m.tokens(rj) == 1
            })
            .expect("marking (5,0,0,1) reachable");
        assert!((rewards[target] - 0.97).abs() < 1e-12);
    }

    #[test]
    fn tabled_reward_vector_matches_reference_bit_for_bit() {
        use crate::reliability::generic::reference;
        for n in [24u32, 48] {
            let mut params = SystemParams::paper_six_version();
            params.n = n;
            (params.p, params.p_prime, params.alpha) = (0.083_718_2, 0.612_345_9, 0.371_1);
            let net = model::build_model(&params).unwrap();
            let graph = explore(&net, 100_000).unwrap();
            let rel = ReliabilityModel::for_params(&params, ReliabilitySource::Auto).unwrap();
            assert!(matches!(rel, ReliabilityModel::Generic { .. }));
            let places = ModulePlaces::locate(&net).unwrap();
            for policy in [RewardPolicy::FailedOnly, RewardPolicy::AsWritten] {
                let rewards = reward_vector(&graph, &net, &params, &rel, policy).unwrap();
                assert_eq!(rewards.len(), graph.markings().len());
                for (m, got) in graph.markings().iter().zip(&rewards) {
                    let want = places.system_state(m, policy).map_or(0.0, |s| {
                        reference::reliability(
                            s,
                            params.voting_threshold(),
                            params.p,
                            params.p_prime,
                            params.alpha,
                        )
                    });
                    assert_eq!(got.to_bits(), want.to_bits(), "N={n}, {policy:?}, {m}");
                }
            }
        }
    }

    #[test]
    fn reward_values_match_paper_functions_for_pure_states() {
        let params = SystemParams::paper_four_version();
        let net = model::build_no_rejuvenation(&params).unwrap();
        let graph = explore(&net, 1000).unwrap();
        let rel = ReliabilityModel::for_params(&params, ReliabilitySource::Auto).unwrap();
        let rewards = reward_vector(&graph, &net, &params, &rel, RewardPolicy::FailedOnly).unwrap();
        let all_healthy = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![4, 0, 0]))
            .unwrap();
        assert!((rewards[all_healthy] - 0.95).abs() < 1e-12);
        let all_compromised = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![0, 4, 0]))
            .unwrap();
        assert!((rewards[all_compromised] - 0.75).abs() < 1e-12);
    }
}
