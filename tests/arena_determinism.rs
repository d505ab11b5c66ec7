//! The one-arena `≈ₖ` engine pinned to the per-pair synchronized-BFS
//! oracle for k ∈ 0..=4, both through the free functions and through a
//! session sweep that shares one subset arena across the whole hierarchy.

use ccs_equiv::{kobs, EquivSession, Equivalence};
use ccs_fsp::Fsp;
use ccs_workloads::{families, random, RandomConfig};
use proptest::prelude::*;

/// The one-arena `≈ₖ` engine agrees with the per-pair synchronized-BFS
/// oracle on every level of a sweep — through the free function and
/// through a session that shares one arena across the whole hierarchy.
#[test]
fn kobs_arena_sweep_matches_the_pairwise_oracle() {
    let ladder = families::kobs_ladder(2 * families::kobs_ladder_module_size(3), 3);
    let processes: Vec<(&str, Fsp)> = vec![
        ("kobs_ladder", ladder),
        ("vending", families::vending_machine(true)),
        ("tau_chain", families::tau_chain(4)),
        ("det_blowup", families::det_blowup(12, 3)),
    ];
    for (name, f) in &processes {
        let session = EquivSession::for_process(f);
        for k in 0..=4usize {
            let oracle = kobs::kobs_partition(f, k);
            assert_eq!(
                &kobs::kobs_partition_arena(f, k),
                &oracle,
                "{name}: one-arena sweep diverged at k = {k}"
            );
            assert_eq!(
                session
                    .classify_all(Equivalence::KObservational(k))
                    .as_ref(),
                &oracle,
                "{name}: session sweep diverged at k = {k}"
            );
        }
        // The whole k = 0..=4 session sweep shares one subset arena: the
        // arena is explored at most once, not once per level.
        let arena_size = session.subset_arena_size();
        let _ = session.classify_all(Equivalence::KObservational(4));
        assert_eq!(
            session.subset_arena_size(),
            arena_size,
            "{name}: re-explored"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_processes_agree_on_kobs_levels(
        states in 1usize..12,
        seed in 0u64..500,
    ) {
        let config = RandomConfig {
            tau_ratio: 0.25,
            accept_ratio: 0.5,
            ..RandomConfig::sized(states, seed)
        };
        let f = random::random_fsp(&config);
        for k in 0..=3usize {
            prop_assert_eq!(
                &kobs::kobs_partition_arena(&f, k),
                &kobs::kobs_partition(&f, k),
                "k = {}", k
            );
        }
    }
}
