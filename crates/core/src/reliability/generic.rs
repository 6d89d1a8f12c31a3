//! First-principles reliability model for arbitrary `(N, f, r)`.
//!
//! # The dependent-failure model
//!
//! Following the structure the paper inherits from Ege et al. (dependent
//! failures) and the BFT voting assumptions A.2/A.3, a perception request is
//! processed as follows in a state with `i` healthy, `j` compromised and `k`
//! unavailable modules (`i + j + k = N`, voting threshold `T`):
//!
//! * With probability `p` the input is *erroneous for healthy modules*: one
//!   (reference) healthy module outputs incorrectly, and each remaining
//!   healthy module fails **dependently** with probability `α`.
//!   With probability `1 − p` no healthy module errs.
//! * Each compromised module outputs incorrectly with probability `p′`,
//!   independently (assumption A.1: compromised-state faults "become
//!   random").
//! * A **perception error** occurs when at least `T` modules output
//!   incorrectly; with fewer than `T` *correct* outputs but fewer than `T`
//!   incorrect ones, the voter safely skips (counted as reliable).
//! * States with `k > N − T` cannot gather `T` outputs at all and are
//!   assigned reliability 0, exactly as the `R_f4`/`R_f6` matrices do.
//!
//! Hence, with `W_h ~ Bin(i − 1, α)` and `W_c ~ Bin(j, p′)`:
//!
//! ```text
//! P(error | i > 0) = (1 − p)·P(W_c ≥ T) + p·P(1 + W_h + W_c ≥ T)
//! P(error | i = 0) = P(W_c ≥ T)
//! R = 1 − P(error)
//! ```
//!
//! This reproduces the printed appendix formulas for every entry whose
//! combinatorics are consistent (e.g. `R_{1,3,0}`, `R_{2,2,0}`, all `i = 0`
//! rows of `R_f4`, and most of `R_f6`), and deviates exactly where the
//! printed coefficients do not match any binomial expansion (e.g.
//! `R_{4,0,0}`'s `4pα²(1−α)`, where choosing 2 erring modules among the 3
//! remaining gives coefficient 3). The cross-checks live in the crate's
//! integration tests.

use crate::state::SystemState;

/// `R_{i,j,k}` under the first-principles dependent-failure model.
///
/// `threshold` is the number of correct outputs required (`2f + 1` or
/// `2f + r + 1`). Probabilities are assumed already validated by the caller
/// ([`super::ReliabilityModel::at`] checks them). Builds a [`Table`] for the
/// state's module total; evaluate many states through one [`Table`] instead.
pub fn reliability(state: SystemState, threshold: u32, p: f64, p_prime: f64, alpha: f64) -> f64 {
    Table::new(state.total(), threshold, p, p_prime, alpha).reliability(state)
}

/// `P(at least `threshold` modules output incorrectly)` in the given state.
pub fn error_probability(
    state: SystemState,
    threshold: u32,
    p: f64,
    p_prime: f64,
    alpha: f64,
) -> f64 {
    Table::new(state.total(), threshold, p, p_prime, alpha).error_probability(state)
}

/// The generic model bound to one point `(N, T, p, p′, α)`: every binomial
/// quantity a state of `N` modules can need, computed once.
///
/// Evaluating a state is then `O(i)` table lookups instead of the
/// `O(min(i, T)·j²)` coefficient loops and `powi` calls of
/// [`mod@reference`]. Every
/// entry is built with the same floating-point operations, in the same
/// order, as [`mod@reference`] builds it, so the two agree bit for bit:
///
/// * `C(n, k)` is the rounded prefix of the running product that
///   [`mod@reference`] recomputes per call, so a pmf row costs `O(n)`;
/// * `q^k` and `(1 − q)^(n−k)` are the same `powi` calls, memoized per
///   exponent;
/// * each tail is the same forward `.sum()` over its pmf row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    n: u32,
    threshold: u32,
    p: f64,
    /// `P(Bin(m, α) = h)` for `m < N`, `h ≤ m`; row `m` starts at
    /// `m(m+1)/2`.
    healthy_pmf: Vec<f64>,
    /// `P(Bin(j, p′) ≥ t)` for `j ≤ N`, `t < tail_width`; row `j` starts at
    /// `j · tail_width`. Thresholds past `N + 1` read column `N + 1`, which
    /// is 0 like every tail beyond its row.
    compromised_tail: Vec<f64>,
    tail_width: usize,
}

impl Table {
    /// Tabulates the model for states of `n` modules under `threshold`.
    /// Probabilities are assumed validated, as for [`reliability`].
    pub fn new(n: u32, threshold: u32, p: f64, p_prime: f64, alpha: f64) -> Self {
        let mut scratch = RowScratch::default();
        let alpha_powers = Powers::new(alpha, n);
        let mut healthy_pmf = Vec::with_capacity((n as usize * (n as usize + 1)) / 2);
        for m in 0..n {
            healthy_pmf.extend_from_slice(scratch.pmf_row(m, &alpha_powers));
        }
        let tail_width = threshold.min(n + 1) as usize + 1;
        let p_prime_powers = Powers::new(p_prime, n);
        let mut compromised_tail = Vec::with_capacity((n as usize + 1) * tail_width);
        for j in 0..=n {
            let row = scratch.pmf_row(j, &p_prime_powers);
            compromised_tail.extend((0..tail_width).map(|t| tail(row, t)));
        }
        Table {
            n,
            threshold,
            p,
            healthy_pmf,
            compromised_tail,
            tail_width,
        }
    }

    /// The module count `N` the table covers.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// `R_{i,j,k}` of a state of `N` modules (see [`reliability`]).
    ///
    /// # Panics
    ///
    /// If the state does not have the table's `N` modules.
    pub fn reliability(&self, state: SystemState) -> f64 {
        assert_eq!(
            state.total(),
            self.n,
            "state {state} does not have N modules"
        );
        if state.unavailable > self.n.saturating_sub(self.threshold) {
            return 0.0;
        }
        1.0 - self.error_probability(state)
    }

    /// The error probability of a state of `N` modules (see
    /// [`error_probability`]).
    ///
    /// # Panics
    ///
    /// If the state does not have the table's `N` modules.
    pub fn error_probability(&self, state: SystemState) -> f64 {
        assert_eq!(
            state.total(),
            self.n,
            "state {state} does not have N modules"
        );
        let i = state.healthy as usize;
        let j = state.compromised as usize;
        let t = self.threshold;
        let tails = &self.compromised_tail[j * self.tail_width..][..self.tail_width];
        let tail = |t: u32| tails[(t as usize).min(self.tail_width - 1)];
        if i == 0 {
            return tail(t);
        }
        let no_trigger = (1.0 - self.p) * tail(t);
        // Given the trigger, the reference module errs; each of the other i−1
        // healthy modules errs with probability α.
        let pmf = &self.healthy_pmf[(i - 1) * i / 2..][..i];
        let mut with_trigger = 0.0;
        for (h, &weight) in (0u32..).zip(pmf) {
            with_trigger += weight * tail(t.saturating_sub(1 + h));
        }
        no_trigger + self.p * with_trigger
    }
}

/// `q^k` and `(1 − q)^k` for `k ≤ n`.
struct Powers {
    up: Vec<f64>,
    down: Vec<f64>,
}

impl Powers {
    fn new(q: f64, n: u32) -> Self {
        Powers {
            up: (0..=n).map(|k| q.powi(k as i32)).collect(),
            down: (0..=n).map(|k| (1.0 - q).powi(k as i32)).collect(),
        }
    }
}

/// Reusable buffers for building pmf rows.
#[derive(Default)]
struct RowScratch {
    coefficients: Vec<f64>,
    row: Vec<f64>,
}

impl RowScratch {
    /// `P(Bin(n, q) = k)` for `k ≤ n`, as [`mod@reference`] computes each.
    fn pmf_row(&mut self, n: u32, powers: &Powers) -> &[f64] {
        // C(n, k) = C(n, n − k) is the running product after min(k, n − k)
        // steps, rounded.
        self.coefficients.clear();
        let mut acc = 1.0f64;
        for step in 0..=n / 2 {
            self.coefficients.push(acc.round());
            acc = acc * f64::from(n - step) / f64::from(step + 1);
        }
        self.row.clear();
        self.row.extend((0..=n).map(|k| {
            self.coefficients[k.min(n - k) as usize]
                * powers.up[k as usize]
                * powers.down[(n - k) as usize]
        }));
        &self.row
    }
}

/// `P(Bin(n, q) ≥ t)` from the pmf row of `Bin(n, q)`.
fn tail(row: &[f64], t: usize) -> f64 {
    if t == 0 {
        return 1.0;
    }
    if t >= row.len() {
        return 0.0;
    }
    row[t..].iter().sum()
}

/// The scalar formulas, evaluated from scratch per state: the oracle that
/// [`Table`] must match bit for bit.
pub mod reference {
    use crate::state::SystemState;

    /// `R_{i,j,k}` (see [`super::reliability`]).
    pub fn reliability(
        state: SystemState,
        threshold: u32,
        p: f64,
        p_prime: f64,
        alpha: f64,
    ) -> f64 {
        let n = state.total();
        if state.unavailable > n.saturating_sub(threshold) {
            return 0.0;
        }
        1.0 - error_probability(state, threshold, p, p_prime, alpha)
    }

    /// The error probability (see [`super::error_probability`]).
    pub fn error_probability(
        state: SystemState,
        threshold: u32,
        p: f64,
        p_prime: f64,
        alpha: f64,
    ) -> f64 {
        let i = state.healthy;
        let j = state.compromised;
        let t = threshold;
        if i == 0 {
            return binomial_tail(j, p_prime, t);
        }
        let no_trigger = (1.0 - p) * binomial_tail(j, p_prime, t);
        let mut with_trigger = 0.0;
        for h in 0..=(i - 1) {
            let need_from_compromised = t.saturating_sub(1 + h);
            with_trigger +=
                binomial_pmf(i - 1, alpha, h) * binomial_tail(j, p_prime, need_from_compromised);
        }
        no_trigger + p * with_trigger
    }

    /// `P(Bin(n, q) = k)`.
    pub(super) fn binomial_pmf(n: u32, q: f64, k: u32) -> f64 {
        if k > n {
            return 0.0;
        }
        binomial_coefficient(n, k) * q.powi(k as i32) * (1.0 - q).powi((n - k) as i32)
    }

    /// `P(Bin(n, q) ≥ t)`.
    pub(super) fn binomial_tail(n: u32, q: f64, t: u32) -> f64 {
        if t == 0 {
            return 1.0;
        }
        if t > n {
            return 0.0;
        }
        (t..=n).map(|k| binomial_pmf(n, q, k)).sum()
    }

    /// `C(n, k)` as a float; exact for the small module counts used here.
    pub(super) fn binomial_coefficient(n: u32, k: u32) -> f64 {
        if k > n {
            return 0.0;
        }
        let k = k.min(n - k);
        let mut acc = 1.0f64;
        for step in 0..k {
            acc = acc * f64::from(n - step) / f64::from(step + 1);
        }
        acc.round()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{binomial_coefficient, binomial_pmf, binomial_tail};
    use super::*;
    use crate::state::enumerate_states;

    const P: f64 = 0.08;
    const PP: f64 = 0.5;
    const A: f64 = 0.5;

    fn r(i: u32, j: u32, k: u32, t: u32) -> f64 {
        reliability(SystemState::new(i, j, k), t, P, PP, A)
    }

    #[test]
    fn binomial_helpers() {
        assert_eq!(binomial_coefficient(5, 0), 1.0);
        assert_eq!(binomial_coefficient(5, 2), 10.0);
        assert_eq!(binomial_coefficient(6, 3), 20.0);
        assert_eq!(binomial_coefficient(4, 5), 0.0);
        assert!((binomial_pmf(3, 0.5, 2) - 0.375).abs() < 1e-15);
        assert_eq!(binomial_tail(3, 0.5, 0), 1.0);
        assert_eq!(binomial_tail(3, 0.5, 4), 0.0);
        assert!((binomial_tail(3, 0.5, 2) - 0.5).abs() < 1e-15);
        // Tail sums pmf.
        let total: f64 = (0..=6).map(|k| binomial_pmf(6, 0.3, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    /// Entries of the printed R_f4 that a first-principles derivation
    /// reproduces exactly.
    #[test]
    fn agrees_with_consistent_four_version_entries() {
        // R_{3,0,1} = 1 - pα².
        assert!((r(3, 0, 1, 3) - (1.0 - P * A * A)).abs() < 1e-15);
        // R_{2,2,0} = 1 - [pp'² + 2pαp'(1-p')].
        let expected = 1.0 - (P * PP * PP + 2.0 * P * A * PP * (1.0 - PP));
        assert!((r(2, 2, 0, 3) - expected).abs() < 1e-15);
        // R_{2,1,1} = 1 - pαp'.
        assert!((r(2, 1, 1, 3) - (1.0 - P * A * PP)).abs() < 1e-15);
        // R_{1,3,0} = 1 - [p'³ + 3pp'²(1-p')].
        let expected = 1.0 - (PP.powi(3) + 3.0 * P * PP * PP * (1.0 - PP));
        assert!((r(1, 3, 0, 3) - expected).abs() < 1e-15);
        // R_{1,2,1} = 1 - pp'².
        assert!((r(1, 2, 1, 3) - (1.0 - P * PP * PP)).abs() < 1e-15);
        // R_{0,3,1} = 1 - p'³.
        assert!((r(0, 3, 1, 3) - (1.0 - PP.powi(3))).abs() < 1e-15);
    }

    /// Entries where the printed coefficients deviate from binomial
    /// combinatorics; the generic model uses the consistent ones.
    #[test]
    fn documents_deviations_from_printed_formulas() {
        // Printed R_{4,0,0} subtracts pα³ + 4pα²(1-α); binomial gives 3.
        let generic = r(4, 0, 0, 3);
        let consistent = 1.0 - (P * A.powi(3) + 3.0 * P * A * A * (1.0 - A));
        let printed = 1.0 - (P * A.powi(3) + 4.0 * P * A * A * (1.0 - A));
        assert!((generic - consistent).abs() < 1e-15);
        assert!((generic - printed).abs() > 1e-3);

        // Printed R_{0,4,0} subtracts p'⁴ + 3p'³(1-p'); binomial gives 4.
        let generic = r(0, 4, 0, 3);
        let consistent = 1.0 - (PP.powi(4) + 4.0 * PP.powi(3) * (1.0 - PP));
        assert!((generic - consistent).abs() < 1e-15);
    }

    /// Six-version entries (threshold 4) the generic model reproduces.
    #[test]
    fn agrees_with_consistent_six_version_entries() {
        // R_{1,5,0} = 1 - [p'⁵ + 5p'⁴(1-p') + 10pp'³(1-p')²].
        let expected = 1.0
            - (PP.powi(5)
                + 5.0 * PP.powi(4) * (1.0 - PP)
                + 10.0 * P * PP.powi(3) * (1.0 - PP) * (1.0 - PP));
        assert!((r(1, 5, 0, 4) - expected).abs() < 1e-15);
        // R_{0,6,0} = 1 - [p'⁶ + 6p'⁵(1-p') + 15p'⁴(1-p')²].
        let expected = 1.0
            - (PP.powi(6)
                + 6.0 * PP.powi(5) * (1.0 - PP)
                + 15.0 * PP.powi(4) * (1.0 - PP) * (1.0 - PP));
        assert!((r(0, 6, 0, 4) - expected).abs() < 1e-15);
        // R_{1,4,1} = 1 - [p'⁴ + 4pp'³(1-p')].
        let expected = 1.0 - (PP.powi(4) + 4.0 * P * PP.powi(3) * (1.0 - PP));
        assert!((r(1, 4, 1, 4) - expected).abs() < 1e-15);
        // R_{2,2,2} = 1 - pαp'².
        assert!((r(2, 2, 2, 4) - (1.0 - P * A * PP * PP)).abs() < 1e-15);
        // R_{3,1,2} = 1 - pα²p'.
        assert!((r(3, 1, 2, 4) - (1.0 - P * A * A * PP)).abs() < 1e-15);
        // R_{4,0,2} = 1 - pα³.
        assert!((r(4, 0, 2, 4) - (1.0 - P * A.powi(3))).abs() < 1e-15);
        // R_{0,4,2} = 1 - p'⁴ and R_{0,5,1} = 1 - [p'⁵ + 5p'⁴(1-p')].
        assert!((r(0, 4, 2, 4) - (1.0 - PP.powi(4))).abs() < 1e-15);
        let expected = 1.0 - (PP.powi(5) + 5.0 * PP.powi(4) * (1.0 - PP));
        assert!((r(0, 5, 1, 4) - expected).abs() < 1e-15);
    }

    #[test]
    fn uncovered_states_are_zero() {
        assert_eq!(r(2, 0, 2, 3), 0.0); // 4-version, k = 2 > 1
        assert_eq!(r(3, 0, 3, 4), 0.0); // 6-version, k = 3 > 2
        assert_eq!(r(0, 0, 4, 3), 0.0);
    }

    #[test]
    fn values_are_probabilities_across_grid() {
        for t in [3u32, 4] {
            for n in [4u32, 6, 9] {
                for s in enumerate_states(n) {
                    for (p, pp, a) in [
                        (0.0, 0.0, 0.0),
                        (0.08, 0.5, 0.5),
                        (0.5, 0.9, 0.8),
                        (1.0, 1.0, 1.0),
                    ] {
                        let v = reliability(s, t, p, pp, a);
                        assert!(
                            (0.0..=1.0).contains(&v),
                            "R{s} = {v} for n={n}, t={t}, p={p}, p'={pp}, α={a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn monotone_decreasing_in_each_error_probability() {
        let s = SystemState::new(3, 2, 1);
        let base = reliability(s, 4, 0.1, 0.5, 0.5);
        assert!(reliability(s, 4, 0.2, 0.5, 0.5) <= base);
        assert!(reliability(s, 4, 0.1, 0.6, 0.5) <= base);
        assert!(reliability(s, 4, 0.1, 0.5, 0.6) <= base);
    }

    #[test]
    fn higher_threshold_is_harder_to_breach() {
        // More required correct outputs means *more* wrong outputs are needed
        // for an error, so (in covered states) reliability rises with T.
        let s = SystemState::new(4, 2, 0);
        assert!(error_probability(s, 4, P, PP, A) <= error_probability(s, 3, P, PP, A));
    }

    /// Endpoints and irregular interior values; across the triples below
    /// each of p, p′ and α takes every one of them.
    const PROBABILITIES: [f64; 5] = [0.0, 1.0, 0.083_718_2, 0.612_345_9, 0.999_7];

    fn probability_triples() -> impl Iterator<Item = (f64, f64, f64)> {
        let v = PROBABILITIES;
        let len = v.len();
        (0..len).map(move |k| (v[k], v[(k + 1) % len], v[(k + 3) % len]))
    }

    #[test]
    fn table_matches_reference_bit_for_bit() {
        for n in 2..=48u32 {
            let states: Vec<SystemState> = enumerate_states(n).collect();
            for t in 1..=n {
                for (p, pp, a) in probability_triples() {
                    let table = Table::new(n, t, p, pp, a);
                    for &s in &states {
                        let (got, want) =
                            (table.reliability(s), reference::reliability(s, t, p, pp, a));
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "R{s}: {got} vs reference {want} at t={t}, p={p}, p'={pp}, α={a}"
                        );
                        let (got, want) = (
                            table.error_probability(s),
                            reference::error_probability(s, t, p, pp, a),
                        );
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "P(error){s}: {got} vs reference {want} at t={t}, p={p}, p'={pp}, α={a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thin_calls_match_reference_including_thresholds_past_n() {
        for n in [2u32, 5, 9] {
            for t in 0..=n + 3 {
                for (p, pp, a) in probability_triples() {
                    for s in enumerate_states(n) {
                        assert_eq!(
                            reliability(s, t, p, pp, a).to_bits(),
                            reference::reliability(s, t, p, pp, a).to_bits()
                        );
                        assert_eq!(
                            error_probability(s, t, p, pp, a).to_bits(),
                            reference::error_probability(s, t, p, pp, a).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_compromised_with_certain_errors_always_fails() {
        let s = SystemState::new(0, 6, 0);
        assert_eq!(reliability(s, 4, 0.0, 1.0, 0.0), 0.0);
    }
}
