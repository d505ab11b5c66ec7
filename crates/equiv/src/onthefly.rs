//! On-the-fly equivalence: decide a pair, build only what the search
//! touches, stop at the first distinguishing witness.
//!
//! Every other checker in this crate *materializes before it refines*: the
//! full subset arena (or the full weak instance) is built, then a partition
//! solver classifies everything.  That is the right shape for whole-space
//! classification, but for a single pair question — "is the composed
//! protocol equivalent to its specification?" — it does asymptotically too
//! much work whenever the answer is reachable long before the product space
//! is exhausted.  This module is the paper's "decide equivalence, don't
//! build everything" reading of the PSPACE notions: a BFS worklist over the
//! *synchronized product* of two determinized state spaces that
//!
//! * expands subsets lazily through the session's shared
//!   [`SubsetAutomaton`] (the `determinize` machinery — every transition it
//!   computes is memoized in the arena and reused by later queries, on-the-
//!   fly or not),
//! * prunes pairs up to the congruence of everything the session's
//!   [`PairCache`] has already proven (Hopcroft–Karp union-find),
//! * stops at the **first** pair whose zero-step output classes differ and
//!   reconstructs the distinguishing trace from its BFS provenance chain,
//!   and
//! * commits the congruence of a successful search back to the cache, so a
//!   later query skips every pair already proven.
//!
//! This is the crate's only synchronized pair search: the session's
//! [`equivalent_states`](EquivSession::equivalent_states) and small
//! [`equivalent_pairs`](EquivSession::equivalent_pairs) batches run it too
//! and drop the witness.
//!
//! The engine covers exactly the determinizable notions
//! ([`DetNotion::of`]): language `≈₁`, trace, and failure `≡F` equivalence.
//! For these, subset-level pair search is sound and complete; the
//! branching-time notions (`~`, `≈`, `≈ₖ`) stay on the refinement path — a
//! union-find product search over determinized subsets cannot observe
//! branching, so routing them here would be unsound, not just slow.
//!
//! What the search explored is reported in [`OtfStats`]; the bench report's
//! `OTF` table uses it to show peak-explored states staying below the
//! materialized total on the protocol corpus
//! (`ccs_workloads::protocols`).
//!
//! # Example
//!
//! ```
//! use ccs_equiv::{onthefly, Equivalence};
//! use ccs_fsp::format;
//!
//! // a.b + a.c vs a.(b + c): trace equivalent, failure inequivalent.
//! let split = format::parse(
//!     "trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")?;
//! let merged = format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s")?;
//!
//! let same = onthefly::compare(&split, &merged, Equivalence::Trace)?;
//! assert!(same.equivalent);
//!
//! let diff = onthefly::compare(&split, &merged, Equivalence::Failure)?;
//! assert!(!diff.equivalent);
//! let witness = diff.witness.unwrap();
//! assert_eq!(witness.trace, vec!["a".to_owned()]);      // after `a` …
//! assert!(!witness.refusal.unwrap().is_empty());        // … the refusals diverge
//! # Ok::<(), ccs_equiv::EquivError>(())
//! ```

use ccs_fsp::{ops, ActionId, Fsp};

use crate::determinize::{DetNotion, PairCache, SubsetAutomaton, SubsetId};
use crate::failures::{distinguishing_refusal, maximal_refusals, name_set};
use crate::saturate::SaturatedView;
use crate::{EquivError, EquivSession, Equivalence};

/// A distinguishing witness produced by a refuting on-the-fly search.
///
/// The shape depends on the notion the search ran under:
///
/// * **language**: `trace` is a word accepted by exactly one of the two
///   states (`refusal` is `None`);
/// * **trace**: `trace` is a weak trace of exactly one side (`refusal` is
///   `None`);
/// * **failure**: `(trace, refusal)` is a failure pair of exactly one side
///   (`refusal` is `Some`, possibly the empty set when the trace itself is
///   one-sided).
///
/// Witnesses replay through the independent per-pair semantics — see
/// `crates/equiv/tests/onthefly.rs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OtfWitness {
    /// The observable trace leading to the distinguishing pair.
    pub trace: Vec<String>,
    /// For failure equivalence, the refused action set completing the
    /// failure pair; `None` for the acceptance/trace-based notions.
    pub refusal: Option<Vec<String>>,
}

/// What an on-the-fly search explored, for the materialize-vs-on-the-fly
/// comparison in the bench report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OtfStats {
    /// Synchronized product pairs dequeued before the verdict.
    pub pairs_visited: usize,
    /// Subsets interned in the shared arena when the search finished — the
    /// peak lazily-explored state count (monotone across a session; compare
    /// with the arena size after a full [`EquivSession::classify_all`]).
    pub arena_subsets: usize,
    /// Lazy determinized transitions this search computed (memoized steps
    /// reused from earlier queries are free and not counted).
    pub steps_computed: usize,
    /// Whether the verdict came straight from the session's committed
    /// proven-congruence without any search.
    pub cache_hit: bool,
}

/// Outcome of an on-the-fly pair check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OtfOutcome {
    /// The verdict — always identical to what the materialized checker
    /// would answer (the agreement suite enforces this).
    pub equivalent: bool,
    /// A replayable distinguishing witness when not equivalent.
    pub witness: Option<OtfWitness>,
    /// Exploration counters.
    pub stats: OtfStats,
}

/// The BFS worklist search over the synchronized subset product.
///
/// Invariants: `left`/`right` are interned start subsets of `auto`; `cache`
/// belongs to the same arena and notion.  On success the speculative
/// congruence has been committed; a refutation leaves `cache` untouched.
pub(crate) fn search(
    fsp: &Fsp,
    auto: &mut SubsetAutomaton,
    view: SaturatedView<'_>,
    cache: &mut PairCache,
    notion: DetNotion,
    left: SubsetId,
    right: SubsetId,
) -> OtfOutcome {
    if cache.is_proven(left, right) {
        return OtfOutcome {
            equivalent: true,
            witness: None,
            stats: OtfStats {
                pairs_visited: 0,
                arena_subsets: auto.num_subsets(),
                steps_computed: 0,
                cache_hit: true,
            },
        };
    }
    let steps_before = auto.steps_computed();
    // Speculative congruence: the committed one plus this search's merges.
    // The root pair is merged up front (as every pushed pair is) so a
    // successful commit memoizes the queried pair itself.
    let mut uf = cache.speculative(auto.num_subsets());
    uf.union(left as usize, right as usize);
    let mut pairs: Vec<(SubsetId, SubsetId)> = vec![(left, right)];
    let mut provenance: Vec<Option<(usize, ActionId)>> = vec![None];
    let mut head = 0;
    while head < pairs.len() {
        let (x, y) = pairs[head];
        if auto.classes_differ(view, notion, x, y) {
            let witness = build_witness(fsp, auto, view, notion, &pairs, &provenance, head);
            return OtfOutcome {
                equivalent: false,
                witness: Some(witness),
                stats: OtfStats {
                    pairs_visited: head + 1,
                    arena_subsets: auto.num_subsets(),
                    steps_computed: auto.steps_computed() - steps_before,
                    cache_hit: false,
                },
            };
        }
        for a in 0..auto.num_actions() {
            let action = ActionId::from_index(a);
            let nx = auto.step(view, x, action);
            let ny = auto.step(view, y, action);
            uf.grow(auto.num_subsets());
            if uf.union(nx as usize, ny as usize) {
                pairs.push((nx, ny));
                provenance.push(Some((head, action)));
            }
        }
        head += 1;
    }
    let stats = OtfStats {
        pairs_visited: head,
        arena_subsets: auto.num_subsets(),
        steps_computed: auto.steps_computed() - steps_before,
        cache_hit: false,
    };
    cache.commit(uf);
    OtfOutcome {
        equivalent: true,
        witness: None,
        stats,
    }
}

/// Reconstructs the distinguishing witness for the pair at `idx` from the
/// BFS provenance chain.
fn build_witness(
    fsp: &Fsp,
    auto: &SubsetAutomaton,
    view: SaturatedView<'_>,
    notion: DetNotion,
    pairs: &[(SubsetId, SubsetId)],
    provenance: &[Option<(usize, ActionId)>],
    idx: usize,
) -> OtfWitness {
    let mut word: Vec<ActionId> = Vec::new();
    let mut cursor = idx;
    while let Some((parent, action)) = provenance[cursor] {
        word.push(action);
        cursor = parent;
    }
    word.reverse();
    let trace: Vec<String> = word
        .iter()
        .map(|&a| fsp.action_name(a).to_owned())
        .collect();
    let (x, y) = pairs[idx];
    let refusal = match notion {
        DetNotion::Language | DetNotion::Trace => None,
        DetNotion::Failure => {
            if (x == SubsetAutomaton::DEAD) != (y == SubsetAutomaton::DEAD) {
                // The trace itself is one-sided: (trace, ∅) is a failure of
                // the side that has it and of nothing on the other.
                Some(Vec::new())
            } else {
                let rx = maximal_refusals(view, auto.subset(x));
                let ry = maximal_refusals(view, auto.subset(y));
                let set = distinguishing_refusal(&rx, &ry)
                    .or_else(|| distinguishing_refusal(&ry, &rx))
                    .unwrap_or_default();
                Some(name_set(fsp, &set))
            }
        }
    };
    OtfWitness { trace, refusal }
}

/// Compares the start states of two processes on the fly.
///
/// Convenience wrapper: forms the disjoint union, opens a throwaway
/// [`EquivSession`], and runs [`EquivSession::on_the_fly`].  For repeated
/// queries against one process keep a session instead — its arena and pair
/// caches carry every verdict forward.
///
/// # Errors
///
/// [`EquivError::ModelMismatch`] if `notion` is not determinizable
/// (only `language`, `trace` and `failure` have an on-the-fly face).
pub fn compare(left: &Fsp, right: &Fsp, notion: Equivalence) -> Result<OtfOutcome, EquivError> {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    let session = EquivSession::new(union.fsp);
    session.on_the_fly(notion, p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    fn parse(s: &str) -> Fsp {
        format::parse(s).unwrap()
    }

    #[test]
    fn rejects_branching_time_notions() {
        let f = parse("trans p a q\naccept p q");
        for notion in [
            Equivalence::Strong,
            Equivalence::Observational,
            Equivalence::KObservational(2),
        ] {
            let err = compare(&f, &f, notion).unwrap_err();
            assert_eq!(err.code(), "model-mismatch");
        }
    }

    #[test]
    fn equivalent_pair_commits_and_caches() {
        // Two weakly-equal loops; the second query must be a pure cache hit.
        let left = parse("trans p a q\ntrans q tau p\naccept p q");
        let right = parse("trans u a u\naccept u");
        let union = ops::disjoint_union(&left, &right);
        let (p, q) = ops::union_starts(&union, &left, &right);
        let session = EquivSession::new(union.fsp);
        let first = session.on_the_fly(Equivalence::Language, p, q).unwrap();
        assert!(first.equivalent);
        assert!(!first.stats.cache_hit);
        assert!(first.stats.pairs_visited > 0);
        let second = session.on_the_fly(Equivalence::Language, p, q).unwrap();
        assert!(second.equivalent);
        assert!(second.stats.cache_hit);
        assert_eq!(second.stats.pairs_visited, 0);
    }

    #[test]
    fn language_witness_is_the_distinguishing_word() {
        // a.b vs a: the word `a b` is accepted by the left only.
        let ab = parse("trans p a q\ntrans q b r\naccept p q r");
        let a = parse("trans u a v\naccept u v");
        let out = compare(&ab, &a, Equivalence::Language).unwrap();
        assert!(!out.equivalent);
        let w = out.witness.unwrap();
        assert_eq!(w.trace, vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(w.refusal, None);
    }

    #[test]
    fn failure_witness_carries_a_refusal() {
        let split = parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y");
        let merged = parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s");
        let out = compare(&split, &merged, Equivalence::Failure).unwrap();
        assert!(!out.equivalent);
        let w = out.witness.unwrap();
        assert_eq!(w.trace, vec!["a".to_owned()]);
        let refusal = w.refusal.unwrap();
        // The split side's maximal refusals after `a` are {a,b} and {a,c};
        // either distinguishes (the merged side refuses only {a}).
        assert!(refusal.contains(&"b".to_owned()) || refusal.contains(&"c".to_owned()));
    }

    #[test]
    fn refuted_cache_still_yields_a_witness_on_requery() {
        let ab = parse("trans p a q\ntrans q b r\naccept p q r");
        let a = parse("trans u a v\naccept u v");
        let union = ops::disjoint_union(&ab, &a);
        let (p, q) = ops::union_starts(&union, &ab, &a);
        let session = EquivSession::new(union.fsp);
        let first = session.on_the_fly(Equivalence::Trace, p, q).unwrap();
        let second = session.on_the_fly(Equivalence::Trace, p, q).unwrap();
        assert!(!first.equivalent && !second.equivalent);
        assert_eq!(first.witness, second.witness);
    }
}
