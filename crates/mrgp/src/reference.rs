//! The per-start reference solver: a differential-test oracle for the
//! block row stage.
//!
//! [`steady_state_per_start`] solves every deterministic marking's
//! subordinated CTMC on its own — BFS-ordered from that marking, through
//! the public [`Ctmc::transient_and_sojourn`] — and feeds the rows to the
//! same embedded-chain assembly and backend choice as
//! [`steady_state_with_options`](crate::steady_state_with_options). It
//! shares no code with the block path's keying, class building or tiled
//! uniformization, so agreement between the two (within 1e-12 on every
//! shipped model) checks that path independently. It is serial and
//! `O(M²·depth)`: a test and benchmark oracle, not a production solver.

use crate::solver::{
    assemble_row, isolated, steady_state_with_rows, MrgpStats, RowAndConversion, SolveOptions,
    SteadyState, UNIFORMIZATION_EPS,
};
use crate::{MrgpError, Result};
use nvp_numerics::ctmc::Ctmc;
use nvp_petri::reach::TangibleReachGraph;
use std::collections::HashMap;

/// Steady state with every subordinated chain solved per start (see the
/// [module docs](self)). `options.jobs` is ignored: the row stage is
/// serial. In the returned stats every chain is its own class.
///
/// # Errors
///
/// Same as [`steady_state_with_options`](crate::steady_state_with_options).
pub fn steady_state_per_start(
    graph: &TangibleReachGraph,
    options: &SolveOptions,
) -> Result<(SteadyState, MrgpStats)> {
    steady_state_with_rows(graph, options, per_start_rows)
}

fn per_start_rows(
    graph: &TangibleReachGraph,
    markings: &[usize],
    options: &SolveOptions,
    stats: &mut MrgpStats,
) -> Result<Vec<RowAndConversion>> {
    stats.workers_used = 1;
    let mut rows = Vec::with_capacity(markings.len());
    for &k in markings {
        options.budget.check("subordinated chain solve")?;
        let chain = isolated("subordinated chain build", k, stats, |_| {
            bfs_chain(graph, k)
        })?;
        let n_total = chain.sub.n_states();
        stats.subordinated_chains += 1;
        stats.dedup_classes += 1;
        stats.max_subordinated_states = stats.max_subordinated_states.max(n_total);
        stats.total_subordinated_states += n_total;
        let row = isolated("subordinated class solve", k, stats, |stats| {
            let mut pi0 = vec![0.0; n_total];
            pi0[0] = 1.0; // the start is local state 0
            let (at_tau, sojourn, tstats) =
                chain
                    .sub
                    .transient_and_sojourn(&pi0, chain.tau, UNIFORMIZATION_EPS)?;
            stats.max_truncation_steps = stats.max_truncation_steps.max(tstats.truncation_steps());
            if tstats.stationary_at.is_some() {
                stats.steady_state_detections += 1;
            }
            Ok(assemble_row(
                graph,
                chain.transition,
                &chain.members,
                &chain.absorbing,
                |s| at_tau[s],
                |s| sojourn[s],
            ))
        })?;
        rows.push(row);
    }
    Ok(rows)
}

/// One start's subordinated CTMC over BFS-ordered local states: transient
/// members first (the start is state 0), then absorbing markings.
struct BfsChain {
    transition: nvp_petri::net::TransitionId,
    tau: f64,
    members: Vec<usize>,
    absorbing: Vec<usize>,
    sub: Ctmc,
}

fn bfs_chain(graph: &TangibleReachGraph, k: usize) -> Result<BfsChain> {
    let states = graph.states();
    let det = &states[k].deterministic[0];
    let (transition, tau) = (det.transition, det.value);
    let mut local: HashMap<usize, usize> = HashMap::from([(k, 0)]);
    let mut absorbing_local: HashMap<usize, usize> = HashMap::new();
    let mut members = vec![k];
    let mut absorbing = Vec::new();
    let mut frontier = vec![k];
    while let Some(g) = frontier.pop() {
        for arc in &states[g].exponential {
            for &(to, p) in arc.targets.entries() {
                if arc.value * p <= 0.0
                    || local.contains_key(&to)
                    || absorbing_local.contains_key(&to)
                {
                    continue;
                }
                match states[to]
                    .deterministic
                    .iter()
                    .find(|d| d.transition == transition)
                {
                    Some(d) => {
                        if (d.value - tau).abs() > 1e-9 * tau.max(1.0) {
                            return Err(MrgpError::InconsistentDelay {
                                marking: to,
                                expected: tau,
                                actual: d.value,
                            });
                        }
                        local.insert(to, members.len());
                        members.push(to);
                        frontier.push(to);
                    }
                    None => {
                        absorbing_local.insert(to, absorbing.len());
                        absorbing.push(to);
                    }
                }
            }
        }
    }
    let n_trans = members.len();
    let mut sub = Ctmc::new(n_trans + absorbing.len());
    for (s_local, &s_global) in members.iter().enumerate() {
        for arc in &states[s_global].exponential {
            for &(to, p) in arc.targets.entries() {
                let rate = arc.value * p;
                if rate <= 0.0 {
                    continue;
                }
                let target = local
                    .get(&to)
                    .copied()
                    .unwrap_or_else(|| n_trans + absorbing_local[&to]);
                if target != s_local {
                    sub.add_rate(s_local, target, rate)?;
                }
            }
        }
    }
    Ok(BfsChain {
        transition,
        tau,
        members,
        absorbing,
        sub,
    })
}
