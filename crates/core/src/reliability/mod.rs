//! State-wise output-reliability functions `R_{i,j,k}`.
//!
//! The paper defines, for every system state `(i, j, k)`, the probability
//! that the voted perception output is *not* an error (safe skips count as
//! reliable — §IV-B, assumptions A.2/A.3). Two families are provided:
//!
//! * [`paper`] — the appendix formulas for the four-version (`R_f4`) and
//!   six-version (`R_f6`) systems, implemented **exactly as printed**,
//!   including the handful of terms whose combinatorial coefficients deviate
//!   from a first-principles derivation (documented on each function);
//! * [`generic`] — a first-principles dependent-failure model for arbitrary
//!   `(N, f, r)` and voting threshold, which coincides with the printed
//!   formulas wherever those are combinatorially consistent;
//! * [`heterogeneous`] — exact Poisson-binomial voting over modules with
//!   individual inaccuracies, quantifying the paper's averaging of the
//!   LeNet/AlexNet/ResNet accuracies into a single `p`;
//! * [`matrix`] — the `R_f4`/`R_f6` matrix view (equations 2 and 3).
//!
//! [`ReliabilityModel`] selects between them and is the interface the
//! analysis layer consumes.

pub mod generic;
pub mod heterogeneous;
pub mod matrix;
pub mod paper;

use crate::params::SystemParams;
use crate::state::SystemState;
use crate::{CoreError, Result};

/// How to obtain the state-wise reliability functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReliabilitySource {
    /// Paper-exact formulas when the configuration matches one the paper
    /// evaluates (4-version `f = 1` without rejuvenation, 6-version
    /// `f = r = 1` with rejuvenation); generic otherwise.
    #[default]
    Auto,
    /// Paper-exact formulas only; errors for other configurations.
    PaperExact,
    /// First-principles generic model for any configuration.
    Generic,
}

/// A resolved reliability model: maps system states to `R_{i,j,k}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReliabilityModel {
    /// The paper's `R_f4` matrix (appendix A), as printed.
    PaperFourVersion,
    /// The paper's `R_f6` matrix (appendix B), as printed.
    PaperSixVersion,
    /// Generic threshold model with the given total module count and voting
    /// threshold.
    Generic {
        /// Total number of modules `N`.
        n: u32,
        /// Correct outputs required for a correct result (`2f+1` or
        /// `2f+r+1`).
        threshold: u32,
    },
}

impl ReliabilityModel {
    /// Resolves the model for a parameter set.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedConfiguration`] when `source` is
    /// [`ReliabilitySource::PaperExact`] but the configuration is not one the
    /// paper provides formulas for.
    pub fn for_params(params: &SystemParams, source: ReliabilitySource) -> Result<Self> {
        let is_paper_four = params.n == 4 && params.f == 1 && !params.rejuvenation;
        let is_paper_six = params.n == 6 && params.f == 1 && params.r == 1 && params.rejuvenation;
        match source {
            ReliabilitySource::PaperExact => {
                if is_paper_four {
                    Ok(ReliabilityModel::PaperFourVersion)
                } else if is_paper_six {
                    Ok(ReliabilityModel::PaperSixVersion)
                } else {
                    Err(CoreError::UnsupportedConfiguration {
                        what: format!(
                            "paper-exact reliability functions exist only for \
                             (N=4, f=1, no rejuvenation) and (N=6, f=1, r=1, \
                             rejuvenation); got N={}, f={}, r={}, rejuvenation={}",
                            params.n, params.f, params.r, params.rejuvenation
                        ),
                    })
                }
            }
            ReliabilitySource::Auto => {
                if is_paper_four {
                    Ok(ReliabilityModel::PaperFourVersion)
                } else if is_paper_six {
                    Ok(ReliabilityModel::PaperSixVersion)
                } else {
                    Ok(ReliabilityModel::Generic {
                        n: params.n,
                        threshold: params.voting_threshold(),
                    })
                }
            }
            ReliabilitySource::Generic => Ok(ReliabilityModel::Generic {
                n: params.n,
                threshold: params.voting_threshold(),
            }),
        }
    }

    /// Binds the model to one point's probabilities, validated once, for
    /// evaluating many states. The generic model tabulates its binomial
    /// terms here (see [`generic::Table`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if a probability is out of `[0, 1]`.
    pub fn at(&self, p: f64, p_prime: f64, alpha: f64) -> Result<PointReliability> {
        check_probability("p", p)?;
        check_probability("p_prime", p_prime)?;
        check_probability("alpha", alpha)?;
        Ok(match *self {
            ReliabilityModel::PaperFourVersion => {
                PointReliability::PaperFourVersion { p, p_prime, alpha }
            }
            ReliabilityModel::PaperSixVersion => {
                PointReliability::PaperSixVersion { p, p_prime, alpha }
            }
            ReliabilityModel::Generic { n, threshold } => {
                PointReliability::Generic(generic::Table::new(n, threshold, p, p_prime, alpha))
            }
        })
    }

    /// Evaluates `R_{i,j,k}` for a single state; see [`ReliabilityModel::at`]
    /// for many states at one point.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the state's module total does not
    /// match the model's `N`, or probabilities are out of `[0, 1]`.
    pub fn reliability(&self, state: SystemState, p: f64, p_prime: f64, alpha: f64) -> Result<f64> {
        self.at(p, p_prime, alpha)?.reliability(state)
    }
}

/// A [`ReliabilityModel`] bound to validated `(p, p′, α)` by
/// [`ReliabilityModel::at`].
#[derive(Debug, Clone, PartialEq)]
pub enum PointReliability {
    /// The paper's `R_f4` formulas at one point.
    PaperFourVersion {
        /// Healthy-module inaccuracy `p`.
        p: f64,
        /// Compromised-module inaccuracy `p′`.
        p_prime: f64,
        /// Dependent-failure probability `α`.
        alpha: f64,
    },
    /// The paper's `R_f6` formulas at one point.
    PaperSixVersion {
        /// Healthy-module inaccuracy `p`.
        p: f64,
        /// Compromised-module inaccuracy `p′`.
        p_prime: f64,
        /// Dependent-failure probability `α`.
        alpha: f64,
    },
    /// The generic model, tabulated at one point.
    Generic(generic::Table),
}

impl PointReliability {
    /// Evaluates `R_{i,j,k}` for a state.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the state's module total does not
    /// match the model's `N`.
    pub fn reliability(&self, state: SystemState) -> Result<f64> {
        match self {
            PointReliability::PaperFourVersion { p, p_prime, alpha } => {
                paper::four_version(state, *p, *p_prime, *alpha)
            }
            PointReliability::PaperSixVersion { p, p_prime, alpha } => {
                paper::six_version(state, *p, *p_prime, *alpha)
            }
            PointReliability::Generic(table) => {
                if state.total() != table.n() {
                    return Err(CoreError::InvalidParameter {
                        what: "state",
                        constraint: format!(
                            "module total {} does not match N = {}",
                            state.total(),
                            table.n()
                        ),
                    });
                }
                Ok(table.reliability(state))
            }
        }
    }
}

pub(crate) fn check_probability(what: &'static str, v: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&v) || v.is_nan() {
        return Err(CoreError::InvalidParameter {
            what,
            constraint: format!("must lie in [0, 1], got {v}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_paper_configurations() {
        let p4 = SystemParams::paper_four_version();
        assert_eq!(
            ReliabilityModel::for_params(&p4, ReliabilitySource::Auto).unwrap(),
            ReliabilityModel::PaperFourVersion
        );
        let p6 = SystemParams::paper_six_version();
        assert_eq!(
            ReliabilityModel::for_params(&p6, ReliabilitySource::Auto).unwrap(),
            ReliabilityModel::PaperSixVersion
        );
    }

    #[test]
    fn auto_falls_back_to_generic() {
        let p9 = SystemParams::builder().n(9).f(2).build().unwrap();
        assert_eq!(
            ReliabilityModel::for_params(&p9, ReliabilitySource::Auto).unwrap(),
            ReliabilityModel::Generic { n: 9, threshold: 6 }
        );
    }

    #[test]
    fn paper_exact_rejects_other_configurations() {
        let p9 = SystemParams::builder().n(9).f(2).build().unwrap();
        assert!(matches!(
            ReliabilityModel::for_params(&p9, ReliabilitySource::PaperExact),
            Err(CoreError::UnsupportedConfiguration { .. })
        ));
        // A 6-version system *without* rejuvenation is also not in the paper.
        let p6n = SystemParams::builder()
            .n(6)
            .rejuvenation(false)
            .build()
            .unwrap();
        assert!(ReliabilityModel::for_params(&p6n, ReliabilitySource::PaperExact).is_err());
    }

    #[test]
    fn generic_source_always_generic() {
        let p4 = SystemParams::paper_four_version();
        assert_eq!(
            ReliabilityModel::for_params(&p4, ReliabilitySource::Generic).unwrap(),
            ReliabilityModel::Generic { n: 4, threshold: 3 }
        );
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let m = ReliabilityModel::PaperFourVersion;
        let s = crate::state::SystemState::new(4, 0, 0);
        assert!(m.reliability(s, 1.5, 0.5, 0.5).is_err());
        assert!(m.reliability(s, 0.1, -0.5, 0.5).is_err());
        assert!(m.reliability(s, 0.1, 0.5, f64::NAN).is_err());
    }

    #[test]
    fn generic_model_rejects_wrong_total() {
        let m = ReliabilityModel::Generic { n: 6, threshold: 4 };
        let s = crate::state::SystemState::new(4, 0, 0); // total 4 != 6
        assert!(m.reliability(s, 0.1, 0.5, 0.5).is_err());
    }
}
