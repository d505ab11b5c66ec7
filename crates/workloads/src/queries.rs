//! Batched-query workloads: a process plus a list of state pairs to be
//! answered under one equivalence notion.
//!
//! These feed the `weak_pipeline` bench and the report's WP table, which
//! compare answering the batch with the one-shot free functions (`m` full
//! Theorem 4.1(a) pipelines) against answering it through an
//! `EquivSession` (one pipeline, `m` partition lookups).

use ccs_fsp::{Fsp, StateId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::random::{random_fsp, RandomConfig};

/// A process together with a batch of pair queries over its states.
#[derive(Clone, Debug)]
pub struct QueryBatch {
    /// The shared state space every query targets.
    pub fsp: Fsp,
    /// The state pairs to test for equivalence.
    pub pairs: Vec<(StateId, StateId)>,
}

/// Draws `count` uniform state pairs over a process (pairs may repeat and
/// may be reflexive, like real query mixes).  Deterministic in `seed`.
///
/// # Panics
///
/// Panics if the process has no states (cannot happen for built processes).
#[must_use]
pub fn state_pairs(fsp: &Fsp, count: usize, seed: u64) -> Vec<(StateId, StateId)> {
    let n = fsp.num_states();
    assert!(n > 0, "process has no states");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                StateId::from_index(rng.gen_range(0..n)),
                StateId::from_index(rng.gen_range(0..n)),
            )
        })
        .collect()
}

/// A batched observational-equivalence workload: a random *general* process
/// (τ-moves and partial acceptance — the model of the Theorem 4.1(a)
/// pipeline) of the given size, plus `pairs` uniform pair queries.
/// Deterministic in `seed`.
#[must_use]
pub fn weak_query_batch(states: usize, pairs: usize, seed: u64) -> QueryBatch {
    let fsp = random_fsp(&RandomConfig {
        tau_ratio: 0.3,
        accept_ratio: 0.5,
        ..RandomConfig::sized(states, seed)
    });
    let pairs = state_pairs(&fsp, pairs, seed.wrapping_add(1));
    QueryBatch { fsp, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_equiv::{weak, EquivSession, Equivalence};
    use ccs_partition::Algorithm;

    #[test]
    fn batches_are_deterministic_and_sized() {
        let a = weak_query_batch(24, 16, 5);
        let b = weak_query_batch(24, 16, 5);
        assert_eq!(a.fsp, b.fsp);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.fsp.num_states(), 24);
        assert_eq!(a.pairs.len(), 16);
        assert!(a.fsp.has_tau_transitions());
        let c = weak_query_batch(24, 16, 6);
        assert!(c.fsp != a.fsp || c.pairs != a.pairs);
    }

    #[test]
    fn session_and_free_functions_agree_on_a_batch() {
        let batch = weak_query_batch(20, 12, 9);
        let session = EquivSession::for_process(&batch.fsp);
        let batched = session.equivalent_pairs(Equivalence::Observational, &batch.pairs);
        let wp = weak::weak_partition_with(&batch.fsp, Algorithm::Naive);
        for (&(p, q), &got) in batch.pairs.iter().zip(&batched) {
            assert_eq!(got, wp.equivalent(p, q));
        }
    }
}
