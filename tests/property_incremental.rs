//! Cross-crate property tests for the mutation path: random edit streams
//! drive the kernel relayout ([`Instance::apply_delta`]) and the
//! session-level `apply_delta` path, asserting after every step that the
//! edited state is block-for-block identical to a from-scratch build —
//! every solver of [`Algorithm::ALL`] on the edited instance against the
//! same solver on an instance built fresh from its edges, and verdicts via
//! `classify_all` against a fresh [`EquivSession`].

use ccs_equiv::{EquivSession, Equivalence};
use ccs_fsp::{Label, StateId};
use ccs_partition::{solve, Algorithm, Instance};
use ccs_workloads::{instances, mutating_queries, random, RandomConfig};
use proptest::prelude::*;

/// A deterministic xorshift stream, so a failing case shrinks to a seed.
fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random single-edit-to-small-batch streams over random instances:
    /// after every batch, each solver on the relaid-out instance returns
    /// the partition it returns on an instance built fresh from the edited
    /// edge list (same initial blocks), and that partition is stable.
    #[test]
    fn every_engine_tracks_the_from_scratch_oracle(
        n in 2usize..24,
        labels in 1usize..3,
        density in 0usize..4,
        mut seed in 1u64..1_000_000,
    ) {
        let mut inst = instances::random(n, labels, density * n, seed);
        for x in 0..n {
            inst.set_initial_block(x, x % 2);
        }
        for _ in 0..4 {
            let edits = 1 + (xorshift(&mut seed) % 3) as usize;
            let (mut additions, mut removals) = (Vec::new(), Vec::new());
            for _ in 0..edits {
                let edge = (
                    (xorshift(&mut seed) % labels as u64) as usize,
                    (xorshift(&mut seed) % n as u64) as usize,
                    (xorshift(&mut seed) % n as u64) as usize,
                );
                if xorshift(&mut seed) % 3 == 0 {
                    removals.push(edge);
                } else {
                    additions.push(edge);
                }
            }
            inst.apply_delta(&additions, &removals);
            let mut fresh = Instance::new(n, labels);
            for (x, &block) in inst.initial_blocks().iter().enumerate() {
                fresh.set_initial_block(x, block as usize);
            }
            for (l, from, to) in inst.graph().edges() {
                fresh.add_edge(l, from, to);
            }
            for alg in Algorithm::ALL {
                let edited = solve(&inst, alg);
                prop_assert!(inst.is_consistent_stable(&edited));
                prop_assert_eq!(
                    &edited,
                    &solve(&fresh, alg),
                    "{} on the edited instance diverged from a fresh build",
                    alg
                );
            }
        }
    }
}

/// Classifies under a battery of notions on both the mutated session and a
/// fresh one over the same process, asserting block-for-block agreement —
/// identical partitions imply identical pair verdicts for every query.
fn assert_session_matches_fresh(session: &EquivSession) -> Result<(), TestCaseError> {
    let fresh = EquivSession::for_process(session.fsp());
    for notion in [
        Equivalence::Strong,
        Equivalence::Observational,
        Equivalence::Language,
    ] {
        let maintained = session.classify_all(notion);
        let rebuilt = fresh.classify_all(notion);
        prop_assert_eq!(
            maintained.as_ref(),
            rebuilt.as_ref(),
            "{} classification diverged after a delta",
            notion
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The gadget toggle stream (τ-free: the cache-retaining fast paths)
    /// through `EquivSession::apply_delta`, cross-checked per step.
    #[test]
    fn session_deltas_match_fresh_sessions_on_gadget_streams(
        copies in 2usize..8,
        batches in 1usize..5,
        edits in 1usize..3,
        seed in 0u64..1_000,
    ) {
        let wl = mutating_queries::mutating_workload(copies, batches, edits, 4, seed);
        let mut session = EquivSession::for_process(&wl.fsp);
        // Warm the caches so deltas have something to invalidate or retain.
        let _ = session.classify_all(Equivalence::Observational);
        for batch in &wl.batches {
            session.apply_delta(&batch.additions, &batch.removals);
            assert_session_matches_fresh(&session)?;
        }
    }

    /// Random edit streams over random τ-bearing processes: exercises the
    /// τ-touching rebuild path and the strong-only delta refresh.
    #[test]
    fn session_deltas_match_fresh_sessions_on_tau_streams(
        states in 2usize..16,
        mut seed in 1u64..1_000_000,
    ) {
        let config = RandomConfig {
            tau_ratio: 0.3,
            accept_ratio: 0.5,
            ..RandomConfig::sized(states, seed)
        };
        let fsp = random::random_fsp(&config);
        let num_actions = fsp.num_actions();
        let mut session = EquivSession::for_process(&fsp);
        let _ = session.classify_all(Equivalence::Strong);
        let _ = session.classify_all(Equivalence::Observational);
        for _ in 0..3 {
            let pick_label = |seed: &mut u64| {
                let draw = (xorshift(seed) % (num_actions as u64 + 1)) as usize;
                fsp.action_ids()
                    .nth(draw)
                    .map_or(Label::Tau, Label::Act)
            };
            let pick_state = |seed: &mut u64| {
                StateId::from_index((xorshift(seed) % states as u64) as usize)
            };
            let edge = (pick_state(&mut seed), pick_label(&mut seed), pick_state(&mut seed));
            if xorshift(&mut seed) % 3 == 0 {
                session.apply_delta(&[], &[edge]);
            } else {
                session.apply_delta(&[edge], &[]);
            }
            assert_session_matches_fresh(&session)?;
        }
    }
}
