//! Steady-state analysis of Markov-regenerative processes (MRGPs) arising
//! from deterministic and stochastic Petri nets.
//!
//! This crate implements the classical embedded-Markov-chain method for DSPNs
//! in which **at most one deterministic transition is enabled in any tangible
//! marking** (the standard solvable class, cf. Ajmone Marsan & Chiola; the
//! same restriction TimeNET's stationary DSPN analysis imposes):
//!
//! 1. Tangible markings where only exponential transitions are enabled
//!    regenerate at every firing: the embedded chain row is the usual race
//!    `P(m → m') = rate/total`, and the process spends `1/total` expected
//!    time in `m` per visit.
//! 2. In a marking enabling a deterministic transition `d` with delay `τ`,
//!    the exponential transitions form a *subordinated CTMC* that runs until
//!    either a firing disables `d` (the deterministic clock resets — a
//!    regeneration point) or the clock expires and `d` fires from whatever
//!    marking the subordinated chain reached. Both the firing-time
//!    distribution `π₀ e^{Q τ}` and the expected sojourn times
//!    `∫₀^τ π₀ e^{Q s} ds` are computed by uniformization.
//!    Markings whose subordinated chains have the same member set share one
//!    uniformization: each is a column of that chain's block.
//! 3. The stationary vector `ν` of the embedded chain is converted to
//!    continuous-time probabilities via the conversion factors
//!    `π(m) ∝ Σ_k ν(k) · C(k, m)`.
//!
//! # Example
//!
//! A machine that must be serviced every `τ = 2` time units, failing at rate
//! 0.1 in between:
//!
//! ```
//! use nvp_petri::net::{NetBuilder, TransitionKind};
//! use nvp_petri::reach::explore;
//! use nvp_mrgp::steady_state;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetBuilder::new("service");
//! let up = b.place("Up", 1);
//! let down = b.place("Down", 0);
//! b.transition("fail", TransitionKind::exponential_rate(0.1))?
//!     .input(up, 1)
//!     .output(down, 1);
//! b.transition("service", TransitionKind::deterministic_delay(2.0))?
//!     .input(up, 1)
//!     .output(up, 1);
//! b.transition("repair", TransitionKind::exponential_rate(1.0))?
//!     .input(down, 1)
//!     .output(up, 1);
//! let net = b.build()?;
//! let graph = explore(&net, 100)?;
//! let solution = steady_state(&graph)?;
//! assert!((solution.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod reference;
mod solver;

pub use error::MrgpError;
pub use solver::{
    steady_state, steady_state_with_options, steady_state_with_stats, MrgpStats, SolveMethod,
    SolveOptions, SteadyState,
};

/// Convenient result alias for fallible MRGP operations.
pub type Result<T> = std::result::Result<T, MrgpError>;
