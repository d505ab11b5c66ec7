//! Shared helpers for the `ccs-equiv` benchmark harness.
//!
//! The Criterion benches under `benches/` reproduce, as measured scaling
//! experiments, the complexity results of Kanellakis & Smolka.  The
//! `report` binary re-runs the same measurements with plain wall-clock
//! timing and prints one table per experiment; the tracked tables are
//! recorded in `crates/bench/baselines/report-e7-wp.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ccs_fsp::Fsp;
use ccs_workloads::{random, RandomConfig};

/// Standard process sizes (numbers of states) used by the scaling benches.
pub const SCALING_SIZES: [usize; 4] = [32, 64, 128, 256];

/// A random restricted observable process of the given size, with the
/// default density used across all experiments (≈2.5 transitions per state,
/// two actions).
#[must_use]
pub fn standard_process(states: usize, seed: u64) -> Fsp {
    random::random_fsp(&RandomConfig::sized(states, seed))
}

/// A random general process (τ-moves and partial acceptance) of the given
/// size, used by the observational-equivalence experiments.
#[must_use]
pub fn general_process(states: usize, seed: u64) -> Fsp {
    random::random_fsp(&RandomConfig {
        tau_ratio: 0.3,
        accept_ratio: 0.5,
        ..RandomConfig::sized(states, seed)
    })
}

/// A pair of processes of the given size that are equivalent by construction
/// (a process and a bisimilar inflation of it).
#[must_use]
pub fn equivalent_pair(states: usize, seed: u64) -> (Fsp, Fsp) {
    let base = standard_process(states, seed);
    let variant = random::bisimilar_variant(&base, seed.wrapping_add(1));
    (base, variant)
}

/// A pair of processes of the given size that differ by a single redirected
/// transition (almost surely inequivalent).
#[must_use]
pub fn perturbed_pair(states: usize, seed: u64) -> (Fsp, Fsp) {
    let base = standard_process(states, seed);
    let variant = random::perturbed_variant(&base, seed.wrapping_add(1))
        .expect("generated processes have transitions");
    (base, variant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_sizes() {
        let f = standard_process(64, 1);
        assert_eq!(f.num_states(), 64);
        let g = general_process(32, 2);
        assert_eq!(g.num_states(), 32);
        assert!(g.has_tau_transitions());
    }

    #[test]
    fn equivalent_pairs_are_equivalent() {
        let (a, b) = equivalent_pair(24, 3);
        assert!(ccs_equiv::strong::strong_equivalent(&a, &b));
    }

    #[test]
    fn perturbed_pairs_have_same_size() {
        let (a, b) = perturbed_pair(24, 4);
        assert_eq!(a.num_states(), b.num_states());
    }
}
