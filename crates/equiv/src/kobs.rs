//! The k-observational equivalences `≈ₖ` (Definition 2.2.1), decided
//! *exactly*.
//!
//! Theorem 4.1(b) shows that deciding `p ≈ₖ q` is PSPACE-complete for every
//! fixed `k ≥ 1`, so — unlike the limit `≈` — no polynomial algorithm is
//! expected.  Both engines here follow the membership argument of the
//! theorem: `p ≈ₖ₊₁ q` iff for every string `s ∈ Σ*` the *set of
//! `≈ₖ`-classes* hit by the `s`-derivatives of `p` equals the set hit by the
//! `s`-derivatives of `q`.
//!
//! Two implementations decide this, and the test suite holds them to exact
//! agreement:
//!
//! * **Per-pair synchronized BFS** ([`kobs_partition`], the original path,
//!   kept as the cross-check oracle): each level groups states by comparing
//!   every state against one representative per known class, and each
//!   comparison runs its own synchronized subset construction over weak
//!   transitions — the oracles' shared pair search in
//!   [`language`](crate::language) — comparing class-sets at every
//!   reachable pair of subsets.  [`kobs_partition`] and
//!   [`kobs_equivalent_states`] take their levels from one level loop.
//!   A level costs `Θ(n · classes)` independent exponential searches.
//! * **One-arena signature refinement** ([`kobs_partition_arena`], the fast
//!   path the [`session`](crate::session) layer uses): the `s`-derivatives
//!   of `p` are exactly the members of `δ*(start(p), s)` in the shared
//!   [`SubsetAutomaton`], so level
//!   `k+1` is the Myhill–Nerode partition of the subset DFA whose output
//!   classes are the interned per-subset *class-set signatures* over level
//!   `k` ([`SubsetAutomaton::kobs_signatures`]).  A whole `k = 1..K` sweep
//!   costs **one** exploration ([`SubsetAutomaton::explore`]) plus one
//!   linear signature pass and one partition refinement per level — no
//!   per-pair searches at all.
//!
//! Note that the levels `≈ₖ` are *not* in general a refinement chain for
//! small `k` (only their limit is characterised by Proposition 2.2.1), so
//! each level is computed from the previous one without assuming
//! refinement — the signature seed makes no chain assumption either.

use ccs_fsp::saturate::tau_closure;
use ccs_fsp::{ops, Fsp, StateId};
use ccs_partition::Partition;

use crate::determinize::{self, SubsetAutomaton};
use crate::language::{closure_of_view, pair_search, subset_step_view};
use crate::relation::representative_scan;
use crate::saturate::{weak_instance, SaturatedView};
use crate::session::EquivSession;
use crate::strong::extension_assignment;
use crate::Equivalence;

/// Computes the partition of all states into `≈ₖ`-classes with the original
/// per-pair synchronized-BFS engine — kept as the **oracle** the one-arena
/// path ([`kobs_partition_arena`]) is checked against.
///
/// Level 0 groups states with equal extension sets; level `k+1` is obtained
/// from level `k` by the class-set characterisation above.  Worst-case cost
/// is exponential in the number of states (per Theorem 4.1(b)), paid per
/// candidate pair per level.
#[must_use]
pub fn kobs_partition(fsp: &Fsp, k: usize) -> Partition {
    let inst = weak_instance(fsp, &tau_closure(fsp));
    level(fsp, SaturatedView::of(&inst), k)
}

/// Level `k` of the oracle hierarchy.  Each level groups states with
/// pairwise-equal class-set behaviour over the previous one (the relation
/// is transitive, so comparing against one representative per group is
/// sound); all weak moves are slice lookups in the shared
/// [`SaturatedView`].  The [`session`](crate::session) layer iterates
/// [`arena_level`] instead.
fn level(fsp: &Fsp, view: SaturatedView<'_>, k: usize) -> Partition {
    let mut current = Partition::from_assignment(&extension_assignment(fsp));
    for _ in 0..k {
        let mut scratch = ClassScratch::new(current.num_blocks());
        current = representative_scan(view.num_states(), |s, rep| {
            pair_equivalent(view, &current, &mut scratch, s, rep)
        });
    }
    current
}

/// [`kobs_partition`] on the shared subset arena, through a throwaway
/// [`EquivSession`]: one exploration, then one signature pass + one DFA
/// refinement per level.
///
/// Exponential worst case in the arena size, as Theorem 4.1(b) demands —
/// but paid once per subset for the whole sweep, not once per pair per
/// level.  Agreement with the [`kobs_partition`] oracle for `k ∈ 0..=4` is
/// enforced by the root `arena_determinism` suite.
#[must_use]
pub fn kobs_partition_arena(fsp: &Fsp, k: usize) -> Partition {
    EquivSession::for_process(fsp)
        .classify_all(Equivalence::KObservational(k))
        .as_ref()
        .clone()
}

/// One `≈` level over a session's shared arena: the subset DFA seeded with
/// the [`kobs_signatures`](SubsetAutomaton::kobs_signatures) of level `prev`
/// and refined once (the exploration is memoized, so only the first level
/// explores).  This is the step [`EquivSession`] iterates when it memoizes
/// the `≈ₖ` hierarchy bottom-up, replacing the per-pair representative scan.
pub(crate) fn arena_level(
    auto: &mut SubsetAutomaton,
    view: SaturatedView<'_>,
    num_states: usize,
    prev: &Partition,
) -> Partition {
    determinize::classify_starts(auto, view, num_states, |auto| auto.kobs_signatures(prev))
}

/// Tests `p ≈ₖ q` for two states of the same process.
#[must_use]
pub fn kobs_equivalent_states(fsp: &Fsp, p: StateId, q: StateId, k: usize) -> bool {
    if k == 0 {
        return fsp.same_extensions(p, q);
    }
    let inst = weak_instance(fsp, &tau_closure(fsp));
    let view = SaturatedView::of(&inst);
    let prev = level(fsp, view, k - 1);
    let mut scratch = ClassScratch::new(prev.num_blocks());
    pair_equivalent(view, &prev, &mut scratch, p, q)
}

/// Tests whether the start states of two processes are `≈ₖ`-equivalent.
#[must_use]
pub fn kobs_equivalent(left: &Fsp, right: &Fsp, k: usize) -> bool {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    kobs_equivalent_states(&union.fsp, p, q, k)
}

/// Epoch-stamped scratch for class-set comparisons: decides whether two
/// member lists hit the same set of `prev`-classes without allocating or
/// sorting a fresh `Vec` per visited subset pair (the solvers'
/// touched-buffer pattern — bump the epoch instead of clearing).
struct ClassScratch {
    /// Stamped with the current epoch for every class the left set hits.
    left: Vec<u64>,
    /// Deduplication stamps for the right set's classes.
    right: Vec<u64>,
    epoch: u64,
}

impl ClassScratch {
    fn new(num_blocks: usize) -> Self {
        ClassScratch {
            left: vec![0; num_blocks],
            right: vec![0; num_blocks],
            epoch: 0,
        }
    }

    /// Whether `xs` and `ys` hit the same set of `prev`-classes: mark the
    /// left classes, require every right class to be marked, and compare
    /// distinct counts (right ⊆ left with equal cardinality ⇒ equality).
    fn class_sets_equal(&mut self, prev: &Partition, xs: &[u32], ys: &[u32]) -> bool {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut in_left = 0usize;
        for &x in xs {
            let b = prev.block_of(x as usize);
            if self.left[b] != epoch {
                self.left[b] = epoch;
                in_left += 1;
            }
        }
        let mut in_right = 0usize;
        for &y in ys {
            let b = prev.block_of(y as usize);
            if self.left[b] != epoch {
                return false;
            }
            if self.right[b] != epoch {
                self.right[b] = epoch;
                in_right += 1;
            }
        }
        in_left == in_right
    }
}

/// Decides whether `p` and `q` are related at the level *above* `prev`:
/// for every `s ∈ Σ*`, the class-sets of their `s`-derivatives agree.
fn pair_equivalent(
    view: SaturatedView<'_>,
    prev: &Partition,
    scratch: &mut ClassScratch,
    p: StateId,
    q: StateId,
) -> bool {
    let step = |xs: &[u32], a| subset_step_view(view, xs, a);
    let start = (closure_of_view(view, p), closure_of_view(view, q));
    pair_search(start, view.num_actions(), step, |xs, ys| {
        (!scratch.class_sets_equal(prev, xs, ys)).then_some(())
    })
    .is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    #[test]
    fn level_zero_is_extension_equality() {
        let f = format::parse("trans p a q\naccept q\nstate r").unwrap();
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let r = f.state_by_name("r").unwrap();
        assert!(kobs_equivalent_states(&f, p, r, 0));
        assert!(!kobs_equivalent_states(&f, p, q, 0));
        assert_eq!(kobs_partition(&f, 0).num_blocks(), 2);
    }

    #[test]
    fn level_one_is_language_equivalence_in_the_restricted_model() {
        // Proposition 2.2.3(b): in the restricted model, ≈₁ is language
        // equivalence.  a.b + a.c vs a.(b + c), all states accepting.
        let split =
            format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")
                .unwrap();
        let merged =
            format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s").unwrap();
        assert!(kobs_equivalent(&split, &merged, 1));
        assert!(crate::language::language_equivalent(&split, &merged).holds);
        // ...but they are NOT ≈₂-equivalent: after `a`, one side may refuse b.
        assert!(!kobs_equivalent(&split, &merged, 2));
        // And consequently not observationally equivalent either.
        assert!(!crate::weak::observationally_equivalent(&split, &merged));
    }

    #[test]
    fn kobs_agrees_with_language_equivalence_at_level_one() {
        let cases = [
            ("trans p a q\naccept p q", "trans u a u\naccept u"),
            (
                "trans p a q\ntrans q a p\naccept p q",
                "trans u a u\naccept u",
            ),
            ("trans p a q\naccept p", "trans u a u\naccept u"),
        ];
        for (l, r) in cases {
            let left = format::parse(l).unwrap();
            let right = format::parse(r).unwrap();
            assert_eq!(
                kobs_equivalent(&left, &right, 1),
                crate::language::language_equivalent(&left, &right).holds,
                "{l} vs {r}"
            );
        }
    }

    #[test]
    fn observational_equivalence_implies_every_level() {
        // τ.a ≈ a, so the pair is ≈ₖ for every k we care to test.
        let left = format::parse("trans p tau q\ntrans q a r\naccept p q r").unwrap();
        let right = format::parse("trans u a v\naccept u v").unwrap();
        assert!(crate::weak::observationally_equivalent(&left, &right));
        for k in 0..4 {
            assert!(kobs_equivalent(&left, &right, k), "level {k}");
        }
    }

    #[test]
    fn higher_levels_distinguish_deeper_branching() {
        // The classic k=2 vs k=3 separation: a.(b.c + b.d) vs a.b.c + a.b.d
        // (all states accepting).  They agree on traces (≈₁) and on one level
        // of branching after the first action, but differ at ≈₃... in fact
        // they already differ at ≈₂ because after `a` the class-sets of the
        // b-derivatives differ.  The important part for the hierarchy is that
        // ≈₁ holds while some higher level fails.
        let merged = format::parse(
            "trans p a q\ntrans q b r1\ntrans q b r2\ntrans r1 c s1\ntrans r2 d s2\naccept p q r1 r2 s1 s2",
        )
        .unwrap();
        let split = format::parse(
            "trans u a v1\ntrans u a v2\ntrans v1 b w1\ntrans v2 b w2\ntrans w1 c x1\ntrans w2 d x2\naccept u v1 v2 w1 w2 x1 x2",
        )
        .unwrap();
        assert!(kobs_equivalent(&merged, &split, 1));
        assert!(!kobs_equivalent(&merged, &split, 2));
    }

    #[test]
    fn partition_levels_have_sensible_sizes() {
        let f =
            format::parse("trans s0 a s1\ntrans s1 a s2\ntrans s2 a s2\naccept s0 s1 s2").unwrap();
        // All states accepting; ≈₀ has one block.
        assert_eq!(kobs_partition(&f, 0).num_blocks(), 1);
        // s0 (can do exactly a, aa, aaa, ...), s1, s2 all have language {a}*
        // minus nothing... in the restricted sense they differ: s2 loops so
        // L(s2) = a*, L(s0) = a* as well (prefix-closed, infinite) — so one
        // block at level 1 too.
        assert_eq!(kobs_partition(&f, 1).num_blocks(), 1);
    }

    /// The one-arena signature engine must agree with the per-pair BFS
    /// oracle level by level — including on τ-heavy shapes where ε-closures
    /// fatten the subsets, and at k = 0 where no arena is built at all.
    #[test]
    fn arena_sweep_matches_the_pairwise_oracle() {
        let cases = [
            "trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\n\
             trans p a q\ntrans q b r\ntrans q c s\naccept u v w x y p q r s",
            "trans p tau q\ntrans q a r\ntrans r tau p\ntrans s a t\ntrans s tau s\n\
             trans t b p\ntrans q b s\naccept r t",
            "trans s0 a s1\ntrans s1 a s2\ntrans t0 a t1\naccept s0 s1 s2 t0 t1",
            "trans p a q\naccept q\nstate r",
        ];
        for text in cases {
            let f = format::parse(text).unwrap();
            for k in 0..=4 {
                let oracle = kobs_partition(&f, k);
                assert_eq!(kobs_partition_arena(&f, k), oracle, "k={k}: {text}");
            }
        }
    }

    #[test]
    fn finite_chains_of_different_length_separate_at_level_one() {
        let f = format::parse("trans s0 a s1\ntrans s1 a s2\ntrans t0 a t1\naccept s0 s1 s2 t0 t1")
            .unwrap();
        let s0 = f.state_by_name("s0").unwrap();
        let t0 = f.state_by_name("t0").unwrap();
        assert!(!kobs_equivalent_states(&f, s0, t0, 1));
        assert!(kobs_equivalent_states(&f, s0, t0, 0));
    }
}
