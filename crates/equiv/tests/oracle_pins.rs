//! Pins the exact outputs of the slow per-pair oracles — verdicts *and*
//! witnesses — on a fixed corpus of random τ-bearing processes.
//!
//! The oracles (`language`, `traces`, `failures`, `kobs`) are the
//! independent reference the determinization layer is checked against, so
//! a refactor of how they walk subsets must not move a single witness word
//! or refusal set.  Each test folds every answer into one FNV-1a digest of
//! its `Debug` form and compares it with the digest the oracles produced
//! before their subset walks were shared; a changed digest means some
//! answer changed.

use ccs_equiv::{failures, kobs, language, traces};
use ccs_fsp::{Fsp, StateId};
use ccs_workloads::{random, RandomConfig};

/// FNV-1a over the `Debug` text of every folded value: stable across
/// platforms and toolchains, unlike `DefaultHasher`.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, value: &impl std::fmt::Debug) {
        for byte in format!("{value:?}\n").bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Small random processes with τ moves and a mix of accepting states.
fn corpus() -> Vec<Fsp> {
    (0..12u64)
        .map(|seed| {
            random::random_fsp(&RandomConfig {
                actions: 2,
                tau_ratio: 0.3,
                accept_ratio: 0.5,
                ..RandomConfig::sized(5 + (seed as usize % 4), seed)
            })
        })
        .collect()
}

fn states(fsp: &Fsp) -> Vec<StateId> {
    (0..fsp.num_states()).map(StateId::from_index).collect()
}

#[test]
fn pair_oracle_witnesses_are_pinned() {
    let mut digest = Digest::new();
    // Refutations whose witness word is non-empty, per notion: the corpus
    // must exercise the search past its start pair.
    let mut deep = [0usize; 3];
    for fsp in corpus() {
        for p in states(&fsp) {
            for q in states(&fsp) {
                let lang = language::language_equivalent_states(&fsp, p, q);
                let trace = traces::trace_equivalent_states(&fsp, p, q);
                let fail = failures::failure_equivalent_states(&fsp, p, q);
                deep[0] += usize::from(lang.witness.as_ref().is_some_and(|w| !w.is_empty()));
                deep[1] += usize::from(trace.witness.as_ref().is_some_and(|w| !w.is_empty()));
                deep[2] += usize::from(fail.witness.as_ref().is_some_and(|w| !w.trace.is_empty()));
                digest.fold(&lang);
                digest.fold(&trace);
                digest.fold(&fail);
            }
        }
    }
    assert!(deep.iter().all(|&n| n > 0), "{deep:?}");
    assert_eq!(digest.0, 17_905_748_201_090_104_897);
}

#[test]
fn kobs_oracle_verdicts_are_pinned() {
    let mut digest = Digest::new();
    for fsp in corpus() {
        for k in 0..=3 {
            digest.fold(&kobs::kobs_partition(&fsp, k));
            let start = fsp.start();
            for q in states(&fsp) {
                digest.fold(&kobs::kobs_equivalent_states(&fsp, start, q, k));
            }
        }
    }
    assert_eq!(digest.0, 16_513_296_887_864_938_088);
}

#[test]
fn bounded_enumerations_are_pinned() {
    let mut digest = Digest::new();
    for fsp in corpus() {
        for p in states(&fsp) {
            digest.fold(&language::language_up_to(&fsp, p, 4));
            digest.fold(&traces::traces_up_to(&fsp, p, 4));
            digest.fold(&failures::failures_up_to(&fsp, p, 3));
        }
    }
    assert_eq!(digest.0, 240_272_713_574_492_390);
}
