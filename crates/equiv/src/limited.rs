//! Limited observational equivalence `≃ₖ` and its limit `≃` —
//! Definition 2.2.2 and Proposition 2.2.1.
//!
//! `≃ₖ` refines by *single* weak moves (strings of length at most one over
//! `Σ ∪ {ε}`) instead of arbitrary strings, which makes each level computable
//! by one pass of partition refinement on the saturated process.  The paper's
//! Proposition 2.2.1(c) shows that the limits agree: `p ≃ q iff p ≈ q`; the
//! pigeonhole argument guarantees convergence after at most `n` rounds.
//!
//! This module exposes the whole refinement *sequence*: the naive signature
//! rounds of Lemma 3.2 ([`naive::rounds`]) over the weak instance of
//! [`saturate`](crate::saturate), whose level 0 groups states by extension
//! set.  Single-level questions ([`limited_equivalent_at`],
//! [`limited_equivalent`]) run the same rounds through [`naive::level`],
//! which holds one level at a time.  The k-observational hierarchy `≈ₖ` of [`kobs`](crate::kobs) starts
//! from the same level 0 but is a different sequence (it compares class sets
//! over whole strings), and distinguishing formulas
//! ([`witness`](crate::witness)) take their recursion depth from the same
//! naive rounds over the *strong* instance.

use ccs_fsp::saturate::tau_closure;
use ccs_fsp::{ops, Fsp, StateId};
use ccs_partition::{naive, Partition};

use crate::saturate::weak_instance;

/// The refinement sequence `≃₀, ≃₁, …` of a process, computed until it
/// converges (the last element is `≃` = `≈`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LimitedHierarchy {
    levels: Vec<Partition>,
}

impl LimitedHierarchy {
    /// The partition at level `k`; levels beyond the convergence point all
    /// equal the limit.
    #[must_use]
    pub fn level(&self, k: usize) -> &Partition {
        let idx = k.min(self.levels.len() - 1);
        &self.levels[idx]
    }

    /// The limit partition `≃` (equal to observational equivalence `≈`).
    #[must_use]
    pub fn limit(&self) -> &Partition {
        self.levels.last().expect("hierarchy has at least level 0")
    }

    /// Number of refinement rounds needed to converge (the smallest `k` with
    /// `≃ₖ = ≃`).
    #[must_use]
    pub fn convergence_round(&self) -> usize {
        self.levels.len() - 1
    }

    /// Heap bytes held by the hierarchy's levels, measured from live
    /// container capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.levels.capacity() * std::mem::size_of::<Partition>()
            + self
                .levels
                .iter()
                .map(Partition::resident_bytes)
                .sum::<usize>()
    }

    /// Returns `true` iff `p ≃ₖ q`.
    #[must_use]
    pub fn equivalent_at(&self, k: usize, p: StateId, q: StateId) -> bool {
        self.level(k).same_block(p.index(), q.index())
    }

    /// All levels, from `≃₀` up to and including the limit.
    #[must_use]
    pub fn levels(&self) -> &[Partition] {
        &self.levels
    }
}

/// Computes the full `≃ₖ` refinement sequence of a process until convergence.
#[must_use]
pub fn limited_hierarchy(fsp: &Fsp) -> LimitedHierarchy {
    limited_hierarchy_up_to(fsp, usize::MAX)
}

/// Computes the `≃ₖ` sequence, stopping after `max_rounds` refinement rounds
/// or at convergence, whichever comes first: the naive signature rounds
/// ([`naive::rounds`]) over the process's weak instance, whose initial
/// blocks are the extension sets and whose columns are every observable
/// action plus ε.
#[must_use]
pub fn limited_hierarchy_up_to(fsp: &Fsp, max_rounds: usize) -> LimitedHierarchy {
    let inst = weak_instance(fsp, &tau_closure(fsp));
    LimitedHierarchy {
        levels: naive::rounds(&inst, max_rounds),
    }
}

/// Tests `p ≃ₖ q` for two states of the same process, holding one level of
/// the sequence at a time ([`naive::level`]).
#[must_use]
pub fn limited_equivalent_at(fsp: &Fsp, p: StateId, q: StateId, k: usize) -> bool {
    let inst = weak_instance(fsp, &tau_closure(fsp));
    naive::level(&inst, k).same_block(p.index(), q.index())
}

/// Tests whether the start states of two processes are limited-observationally
/// equivalent (`p ≃ q`, the limit of the hierarchy).
#[must_use]
pub fn limited_equivalent(left: &Fsp, right: &Fsp) -> bool {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    limited_equivalent_at(&union.fsp, p, q, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    #[test]
    fn level_zero_is_extension_equality() {
        let f = format::parse("trans p a q\naccept q\nstate r").unwrap();
        let h = limited_hierarchy_up_to(&f, 0);
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let r = f.state_by_name("r").unwrap();
        assert!(h.equivalent_at(0, p, r));
        assert!(!h.equivalent_at(0, p, q));
    }

    #[test]
    fn refinement_is_monotone_and_converges() {
        let f =
            format::parse("trans s0 a s1\ntrans s1 a s2\ntrans s2 a s3\ntrans s3 a s3\naccept s3")
                .unwrap();
        let h = limited_hierarchy(&f);
        for w in h.levels().windows(2) {
            assert!(w[1].refines(&w[0]));
        }
        // The chain needs several rounds to fully discriminate.
        assert!(h.convergence_round() >= 2);
        // Levels past convergence are stable.
        assert_eq!(h.level(100), h.limit());
    }

    #[test]
    fn limit_coincides_with_observational_equivalence() {
        // Proposition 2.2.1(c): ≃ = ≈.
        let cases = [
            "trans p tau q\ntrans q a r\ntrans s a t",
            "trans p a q\ntrans p a r\ntrans q b x\ntrans r c y",
            "trans a0 tau a1\ntrans a1 tau a2\ntrans a2 b a0\naccept a2",
        ];
        for text in cases {
            let f = format::parse(text).unwrap();
            let h = limited_hierarchy(&f);
            let w = crate::weak::weak_partition(&f);
            assert_eq!(h.limit(), w.partition(), "case {text}");
        }
    }

    #[test]
    fn hierarchy_is_strict_on_a_chain() {
        // On a length-4 a-chain with accepting end, ≃₁ cannot yet distinguish
        // s0 from s1 but the limit can.
        let f = format::parse("trans s0 a s1\ntrans s1 a s2\ntrans s2 a s3\naccept s3").unwrap();
        let s0 = f.state_by_name("s0").unwrap();
        let s1 = f.state_by_name("s1").unwrap();
        assert!(limited_equivalent_at(&f, s0, s1, 1));
        assert!(!limited_equivalent_at(&f, s0, s1, 3));
        let h = limited_hierarchy(&f);
        assert!(!h.limit().same_block(s0.index(), s1.index()));
    }

    #[test]
    fn two_process_comparison() {
        let left = format::parse("trans p tau q\ntrans q a r").unwrap();
        let right = format::parse("trans u a v").unwrap();
        assert!(limited_equivalent(&left, &right));
        let different = format::parse("trans u b v").unwrap();
        assert!(!limited_equivalent(&left, &different));
    }
}
