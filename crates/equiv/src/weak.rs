//! Observational (weak) equivalence `≈` — Section 4, Theorem 4.1(a).
//!
//! Observational equivalence is defined in the paper as the limit of the
//! `≈ₖ` hierarchy, and shown (Proposition 2.2.1) to coincide with the largest
//! `Σ ∪ {ε}`-fixed-point — i.e. with weak bisimulation.  Theorem 4.1(a)
//! derives the polynomial algorithm implemented here:
//!
//! 1. saturate the process — compute the weak transition relation `⇒` over
//!    `Σ ∪ {ε}` ([`ccs_fsp::saturate`]);
//! 2. decide *strong* equivalence on the saturated process via generalized
//!    partitioning (Lemma 3.1 + Theorem 3.1).
//!
//! The overall cost is `O(n·(n+m))` for the closure, `O(n²·|Σ|)` transitions
//! in the saturated process, and `O(k·m̂·n)` worst case for the both-halves
//! refinement over `k = |Σ| + 1` labels — polynomial, as the paper's bound
//! requires (their statement, `O(n²m log n + m n^{2.376})`, uses matrix
//! products for the closure).

use ccs_fsp::{ops, Fsp, StateId};
use ccs_partition::{kanellakis_smolka, solve, Algorithm, Partition};

use crate::session::EquivSession;

/// The partition of a process's states into observational-equivalence
/// classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeakPartition {
    partition: Partition,
}

impl WeakPartition {
    /// Returns `true` iff the two states are observationally equivalent.
    #[must_use]
    pub fn equivalent(&self, p: StateId, q: StateId) -> bool {
        self.partition.same_block(p.index(), q.index())
    }

    /// The underlying canonical partition over state indices.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of observational-equivalence classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.partition.num_blocks()
    }

    /// The class index of a state.
    #[must_use]
    pub fn class_of(&self, p: StateId) -> usize {
        self.partition.block_of(p.index())
    }
}

/// Computes the observational-equivalence partition with the chosen
/// partition-refinement algorithm — the reference path the tests hold
/// every solver to.
///
/// Runs `algorithm` over the weak instance of a throwaway [`EquivSession`],
/// which lays the weak transition relation out row by row in the partition
/// core's CSR — the classical saturated process of
/// [`ccs_fsp::saturate::saturate`] is never materialized on this path.
#[must_use]
pub fn weak_partition_with(fsp: &Fsp, algorithm: Algorithm) -> WeakPartition {
    let session = EquivSession::for_process(fsp);
    WeakPartition {
        partition: solve(session.weak_instance(), algorithm),
    }
}

/// Computes the observational-equivalence partition with the production
/// refiner, [`kanellakis_smolka::refine_both_halves`].
#[must_use]
pub fn weak_partition(fsp: &Fsp) -> WeakPartition {
    let session = EquivSession::for_process(fsp);
    WeakPartition {
        partition: kanellakis_smolka::refine_both_halves(session.weak_instance()),
    }
}

/// Tests whether two states of the same process are observationally
/// equivalent (`p ≈ q`).
#[must_use]
pub fn observationally_equivalent_states(fsp: &Fsp, p: StateId, q: StateId) -> bool {
    weak_partition(fsp).equivalent(p, q)
}

/// Tests whether the start states of two processes are observationally
/// equivalent.
#[must_use]
pub fn observationally_equivalent(left: &Fsp, right: &Fsp) -> bool {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    observationally_equivalent_states(&union.fsp, p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    #[test]
    fn tau_prefix_is_absorbed() {
        // τ.a.0  ≈  a.0 (Milner's first τ-law for weak equivalence).
        let left = format::parse("trans p tau q\ntrans q a r").unwrap();
        let right = format::parse("trans u a v").unwrap();
        assert!(observationally_equivalent(&left, &right));
        // But they are not strongly equivalent.
        assert!(!crate::strong::strong_equivalent(&left, &right));
    }

    #[test]
    fn internal_choice_is_observable() {
        // a.0 + τ.b.0 is NOT observationally equivalent to a.0 + b.0:
        // the left can silently commit to b, refusing a.
        let left = format::parse("trans p a q\ntrans p tau r\ntrans r b s").unwrap();
        let right = format::parse("trans u a v\ntrans u b w").unwrap();
        assert!(!observationally_equivalent(&left, &right));
    }

    #[test]
    fn tau_loop_is_invisible() {
        // A τ self-loop does not change weak behaviour.
        let left = format::parse("trans p tau p\ntrans p a q").unwrap();
        let right = format::parse("trans u a v").unwrap();
        assert!(observationally_equivalent(&left, &right));
    }

    #[test]
    fn strong_equivalence_implies_observational() {
        let a = format::parse("trans p a q\ntrans q b p").unwrap();
        let b = format::parse("trans u a v\ntrans v b w\ntrans w a x\ntrans x b u").unwrap();
        assert!(crate::strong::strong_equivalent(&a, &b));
        assert!(observationally_equivalent(&a, &b));
    }

    #[test]
    fn extensions_still_matter() {
        let plain = format::parse("trans p tau q").unwrap();
        let marked = format::parse("trans p tau q\naccept q").unwrap();
        assert!(!observationally_equivalent(&plain, &marked));
    }

    #[test]
    fn classes_within_one_process() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t").unwrap();
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let s = f.state_by_name("s").unwrap();
        let r = f.state_by_name("r").unwrap();
        let t = f.state_by_name("t").unwrap();
        let wp = weak_partition(&f);
        assert!(wp.equivalent(p, q));
        assert!(wp.equivalent(p, s));
        assert!(wp.equivalent(r, t));
        assert!(!wp.equivalent(p, r));
        assert_eq!(wp.num_classes(), 2);
        assert_eq!(wp.class_of(p), wp.class_of(s));
    }

    #[test]
    fn all_algorithms_agree_on_weak_partition() {
        let f = format::parse(
            "trans a tau b\ntrans b x c\ntrans c tau a\ntrans d x e\ntrans e tau d\naccept c e",
        )
        .unwrap();
        let reference = weak_partition_with(&f, Algorithm::Naive);
        for alg in Algorithm::ALL {
            assert_eq!(weak_partition_with(&f, alg), reference, "{alg}");
        }
    }

    /// The τ₂-law: p + τ.p ≈ τ.p.
    #[test]
    fn second_tau_law() {
        let left = format::parse("trans p a x\ntrans p tau p2\ntrans p2 a x2").unwrap();
        let right = format::parse("trans q tau q2\ntrans q2 a y").unwrap();
        assert!(observationally_equivalent(&left, &right));
    }
}
