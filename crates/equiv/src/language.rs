//! Language (classical NFA) equivalence — the notion `≈₁` specialises to in
//! the standard and restricted models (Propositions 2.2.3(b) and 2.2.4(b)).
//!
//! A standard FSP is an NFA with ε-moves (τ plays the role of ε); `L(p)` is
//! the set of observable strings that can reach an accepting state from `p`
//! through weak transitions.  Deciding `L(p) = L(q)` is PSPACE-complete
//! (Stockmeyer & Meyer), so the checker here is the classical *on-the-fly
//! subset construction*: synchronously determinize both sides, stopping as
//! soon as a reachable pair of subsets disagrees on acceptance.  The worst
//! case is exponential — exactly the behaviour Theorem 4.1(b) predicts — but
//! instances arising from small processes stay small.
//!
//! The subset construction of the slow oracles is written once, here, in
//! two crate-private walks.  `pair_search` is the synchronized BFS over
//! pairs of subsets behind the language, trace,
//! [failure](crate::failures) and [`≈ₖ`](crate::kobs) pair checkers: each
//! supplies only its step function and the observation it compares at every
//! pair (acceptance, emptiness, maximal refusals, `≈ₖ₋₁` class sets).
//! `walk_up_to` is the bounded word enumeration behind [`language_up_to`],
//! [`traces_up_to`](crate::traces::traces_up_to) and
//! [`failures_up_to`](crate::failures::failures_up_to).  Neither shares code
//! with the production engines ([`determinize`](crate::determinize),
//! [`onthefly`](crate::onthefly)), which these oracles are the independent
//! reference for.

use std::collections::{HashMap, HashSet, VecDeque};

use ccs_fsp::saturate::{tau_closure, TauClosure};
use ccs_fsp::{ops, ActionId, Fsp, Label, StateId};

use crate::compact::narrow;
use crate::saturate::SaturatedView;

/// Outcome of a language-equivalence (or universality) test, with a witness
/// word when the answer is negative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LanguageResult {
    /// Whether the tested property holds.
    pub holds: bool,
    /// A witness word (as action names) when the property fails: a word
    /// accepted by exactly one of the two states, or rejected word for
    /// universality.
    pub witness: Option<Vec<String>>,
}

/// A *subset state*: sorted, duplicate-free compact 32-bit state indices,
/// closed under `⇒ε` (state counts are checked against the 32-bit range at
/// process ingestion, so the narrowing here is total).
pub(crate) type Subset = Vec<u32>;

/// The ε-closure of a single state, as a subset state.
pub(crate) fn closure_of(closure: &TauClosure, p: StateId) -> Subset {
    closure
        .successors(p)
        .iter()
        .map(|s| narrow(s.index()))
        .collect()
}

/// One determinized step: all states reachable from `subset` by one
/// observable action followed by `⇒ε`.
pub(crate) fn subset_step(
    fsp: &Fsp,
    closure: &TauClosure,
    subset: &[u32],
    action: ActionId,
) -> Subset {
    let mut out: Vec<u32> = Vec::new();
    for &x in subset {
        for y in fsp.successors(StateId::from_index(x as usize), Label::Act(action)) {
            out.extend(closure.successors(y).iter().map(|s| narrow(s.index())));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Like [`closure_of`], reading the ε column of a prebuilt
/// [`SaturatedView`] instead of walking a [`TauClosure`].
pub(crate) fn closure_of_view(view: SaturatedView<'_>, p: StateId) -> Subset {
    view.epsilon_successors(p)
        .iter()
        .map(|s| narrow(s.index()))
        .collect()
}

/// Like [`subset_step`], but each member's weak `a`-successor set is a
/// single slice lookup in a prebuilt [`SaturatedView`] (the view's columns
/// already fold in the leading and trailing ε-closures, which is equivalent
/// on ε-closed subsets).
pub(crate) fn subset_step_view(
    view: SaturatedView<'_>,
    subset: &[u32],
    action: ActionId,
) -> Subset {
    let mut out: Vec<u32> = Vec::new();
    for &x in subset {
        out.extend(
            view.successors(StateId::from_index(x as usize), action)
                .iter()
                .map(|s| narrow(s.index())),
        );
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The synchronized subset construction of the per-pair oracles: a BFS over
/// the pairs of subsets reachable from `start` by the same word, skipping
/// pairs where both sides are empty.  `differ` is asked about every reached
/// pair before it is stepped; the first pair it reports yields the word
/// that reached it (shortest, ties broken by action order) together with
/// `differ`'s local witness.  `None` means no reachable pair differs.
pub(crate) fn pair_search<D>(
    start: (Subset, Subset),
    num_actions: usize,
    mut step: impl FnMut(&[u32], ActionId) -> Subset,
    mut differ: impl FnMut(&[u32], &[u32]) -> Option<D>,
) -> Option<(Vec<ActionId>, D)> {
    let mut seen: HashSet<(Subset, Subset)> = HashSet::new();
    seen.insert(start.clone());
    // A breadth-first queue that keeps its visited entries: each one records
    // the entry it was reached from and by which action, so the word of the
    // reported pair is read back along those links.
    let mut queue = vec![(start, None::<(usize, ActionId)>)];
    let mut head = 0;
    while head < queue.len() {
        // The subsets are not needed once stepped; `seen` keeps its own copy.
        let (xs, ys) = std::mem::take(&mut queue[head].0);
        if let Some(local) = differ(&xs, &ys) {
            let links = std::iter::successors(queue[head].1, |&(parent, _)| queue[parent].1);
            let mut word: Vec<ActionId> = links.map(|(_, a)| a).collect();
            word.reverse();
            return Some((word, local));
        }
        for a in (0..num_actions).map(ActionId::from_index) {
            let pair = (step(&xs, a), step(&ys, a));
            if (!pair.0.is_empty() || !pair.1.is_empty()) && !seen.contains(&pair) {
                seen.insert(pair.clone());
                queue.push((pair, Some((head, a))));
            }
        }
        head += 1;
    }
    None
}

/// The bounded word walk of the `*_up_to` enumerations: visits `start`
/// with the empty word, then every non-empty subset reached by a word of
/// length `1..=max_len`, level by level in frontier order, without
/// deduplicating subsets.
pub(crate) fn walk_up_to(
    start: Subset,
    num_actions: usize,
    max_len: usize,
    mut step: impl FnMut(&[u32], ActionId) -> Subset,
    mut visit: impl FnMut(&[u32], &[ActionId]),
) {
    visit(&start, &[]);
    let mut frontier = vec![(start, Vec::new())];
    for _ in 0..max_len {
        let mut next_frontier = Vec::new();
        for (subset, word) in &frontier {
            for a in (0..num_actions).map(ActionId::from_index) {
                let nx = step(subset, a);
                if !nx.is_empty() {
                    let mut w = word.clone();
                    w.push(a);
                    visit(&nx, &w);
                    next_frontier.push((nx, w));
                }
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() {
            break;
        }
    }
}

/// A word of action ids spelled with the process's action names.
pub(crate) fn word_names(fsp: &Fsp, word: &[ActionId]) -> Vec<String> {
    word.iter()
        .map(|&a| fsp.action_name(a).to_owned())
        .collect()
}

/// Whether a subset state contains an accepting state.
pub(crate) fn subset_accepting(fsp: &Fsp, subset: &[u32]) -> bool {
    subset
        .iter()
        .any(|&x| fsp.is_accepting(StateId::from_index(x as usize)))
}

/// Tests whether the weak languages of two states of the same process are
/// equal: `L(p) = L(q)`.
#[must_use]
pub fn language_equivalent_states(fsp: &Fsp, p: StateId, q: StateId) -> LanguageResult {
    language_equivalent_states_with(fsp, &tau_closure(fsp), p, q)
}

/// [`language_equivalent_states`] against a caller-provided τ-closure — the
/// entry point the [`session`](crate::session) layer uses so repeated
/// queries share one closure.
pub(crate) fn language_equivalent_states_with(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    q: StateId,
) -> LanguageResult {
    let step = |xs: &[u32], a| subset_step(fsp, closure, xs, a);
    let start = (closure_of(closure, p), closure_of(closure, q));
    let mismatch = pair_search(start, fsp.num_actions(), step, |xs, ys| {
        (subset_accepting(fsp, xs) != subset_accepting(fsp, ys)).then_some(())
    });
    LanguageResult::refuted_by(fsp, mismatch)
}

impl LanguageResult {
    /// The result of a [`pair_search`] that reports no local witness: the
    /// property holds iff no pair differed, and the word is the witness.
    pub(crate) fn refuted_by(fsp: &Fsp, mismatch: Option<(Vec<ActionId>, ())>) -> Self {
        LanguageResult {
            holds: mismatch.is_none(),
            witness: mismatch.map(|(word, ())| word_names(fsp, &word)),
        }
    }
}

/// Tests whether the start states of two processes accept the same language.
#[must_use]
pub fn language_equivalent(left: &Fsp, right: &Fsp) -> LanguageResult {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    language_equivalent_states(&union.fsp, p, q)
}

/// Tests whether a state accepts a given word (membership, the efficiently
/// solvable MEMBER problem contrasted with EQUIVALENCE in Section 6).
///
/// Unknown action names make the word rejected (they cannot label any
/// transition).
#[must_use]
pub fn accepts(fsp: &Fsp, p: StateId, word: &[&str]) -> bool {
    let closure = tau_closure(fsp);
    let mut subset = closure_of(&closure, p);
    for name in word {
        let Some(a) = fsp.action_id(name) else {
            return false;
        };
        subset = subset_step(fsp, &closure, &subset, a);
        if subset.is_empty() {
            return false;
        }
    }
    subset_accepting(fsp, &subset)
}

/// Tests `L(p) = Σ*` — the universality problem underlying the
/// PSPACE-hardness results (Lemma 4.2).
#[must_use]
pub fn is_universal(fsp: &Fsp, p: StateId) -> LanguageResult {
    let closure = tau_closure(fsp);
    let start = closure_of(&closure, p);
    let mut seen: HashSet<Subset> = HashSet::new();
    let mut queue: VecDeque<(Subset, Vec<ActionId>)> = VecDeque::new();
    seen.insert(start.clone());
    queue.push_back((start, Vec::new()));
    while let Some((xs, word)) = queue.pop_front() {
        if !subset_accepting(fsp, &xs) {
            return LanguageResult {
                holds: false,
                witness: Some(word_names(fsp, &word)),
            };
        }
        for a in fsp.action_ids() {
            let nx = subset_step(fsp, &closure, &xs, a);
            if seen.insert(nx.clone()) {
                let mut w = word.clone();
                w.push(a);
                queue.push_back((nx, w));
            }
        }
    }
    LanguageResult {
        holds: true,
        witness: None,
    }
}

/// Enumerates the language of a state up to a given word length, as sorted
/// words of action names.  Intended for tests and small examples.
#[must_use]
pub fn language_up_to(fsp: &Fsp, p: StateId, max_len: usize) -> Vec<Vec<String>> {
    words_up_to(fsp, p, max_len, |subset| subset_accepting(fsp, subset))
}

/// The [`walk_up_to`] of the τ-closure notions: the words of length at
/// most `max_len` that lead from `p` to a subset `keep` accepts, as sorted,
/// deduplicated action names.
pub(crate) fn words_up_to(
    fsp: &Fsp,
    p: StateId,
    max_len: usize,
    keep: impl Fn(&[u32]) -> bool,
) -> Vec<Vec<String>> {
    let closure = tau_closure(fsp);
    let step = |subset: &[u32], a| subset_step(fsp, &closure, subset, a);
    let mut kept = Vec::new();
    walk_up_to(
        closure_of(&closure, p),
        fsp.num_actions(),
        max_len,
        step,
        |subset, word| {
            if keep(subset) {
                kept.push(word.to_vec());
            }
        },
    );
    let mut out: Vec<Vec<String>> = kept.iter().map(|w| word_names(fsp, w)).collect();
    out.sort();
    out.dedup();
    out
}

/// Builds a `HashMap` keyed by word from [`language_up_to`], convenient for
/// equality assertions in tests.
#[must_use]
pub fn language_set_up_to(fsp: &Fsp, p: StateId, max_len: usize) -> HashMap<Vec<String>, ()> {
    language_up_to(fsp, p, max_len)
        .into_iter()
        .map(|w| (w, ()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    #[test]
    fn nondeterministic_choice_is_language_equivalent_to_merged() {
        // a.b + a.c has the same language as a.(b + c).
        let split =
            format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")
                .unwrap();
        let merged =
            format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s").unwrap();
        assert!(language_equivalent(&split, &merged).holds);
    }

    #[test]
    fn distinct_languages_produce_a_witness() {
        let ab = format::parse("trans p a q\ntrans q b r\naccept r").unwrap();
        let ac = format::parse("trans u a v\ntrans v c w\naccept w").unwrap();
        let r = language_equivalent(&ab, &ac);
        assert!(!r.holds);
        let witness = r.witness.unwrap();
        // The witness is accepted by exactly one of the two processes.
        let wa: Vec<&str> = witness.iter().map(String::as_str).collect();
        assert_ne!(accepts(&ab, ab.start(), &wa), accepts(&ac, ac.start(), &wa));
    }

    #[test]
    fn tau_moves_behave_as_epsilon() {
        let with_tau = format::parse("trans p tau q\ntrans q a r\naccept r").unwrap();
        let without = format::parse("trans u a v\naccept v").unwrap();
        assert!(language_equivalent(&with_tau, &without).holds);
    }

    #[test]
    fn membership_queries() {
        let f = format::parse("trans p a q\ntrans q b p\naccept p").unwrap();
        let p = f.start();
        assert!(accepts(&f, p, &[]));
        assert!(accepts(&f, p, &["a", "b"]));
        assert!(!accepts(&f, p, &["a"]));
        assert!(!accepts(&f, p, &["b"]));
        assert!(!accepts(&f, p, &["zzz"]));
        assert!(accepts(&f, p, &["a", "b", "a", "b"]));
    }

    #[test]
    fn universality_detection() {
        // Accepts everything over {a}: a single accepting self-loop.
        let all = format::parse("trans p a p\naccept p").unwrap();
        assert!(is_universal(&all, all.start()).holds);
        // Missing the empty word: not universal, witness is the empty word.
        let no_eps = format::parse("trans p a q\ntrans q a q\naccept q").unwrap();
        let r = is_universal(&no_eps, no_eps.start());
        assert!(!r.holds);
        assert_eq!(r.witness.unwrap().len(), 0);
        // Missing "aa".
        let gap = format::parse("trans p a q\ntrans q a r\ntrans r a r\naccept p q").unwrap();
        let r = is_universal(&gap, gap.start());
        assert!(!r.holds);
        assert_eq!(r.witness.unwrap(), vec!["a".to_owned(), "a".to_owned()]);
    }

    #[test]
    fn language_enumeration() {
        let f = format::parse("trans p a q\ntrans q b p\naccept p").unwrap();
        let words = language_up_to(&f, f.start(), 4);
        assert!(words.contains(&vec![]));
        assert!(words.contains(&vec!["a".to_owned(), "b".to_owned()]));
        assert!(!words.iter().any(|w| w.len() == 1));
        assert!(!words.iter().any(|w| w.len() == 3));
        assert_eq!(words.len(), 3); // ε, ab, abab
        assert_eq!(language_set_up_to(&f, f.start(), 4).len(), 3);
    }

    #[test]
    fn equivalence_agrees_with_bounded_enumeration() {
        let cases = [
            (
                "trans p a q\naccept q",
                "trans u a v\ntrans u a w\naccept v w",
            ),
            (
                "trans p a p\naccept p",
                "trans u a v\ntrans v a u\naccept u v",
            ),
            ("trans p a q\naccept p", "trans u a v\naccept v"),
        ];
        for (l, r) in cases {
            let left = format::parse(l).unwrap();
            let right = format::parse(r).unwrap();
            let fast = language_equivalent(&left, &right).holds;
            let slow = language_up_to(&left, left.start(), 2 * 4)
                == language_up_to(&right, right.start(), 2 * 4);
            assert_eq!(fast, slow, "{l} vs {r}");
        }
    }

    #[test]
    fn states_within_one_process() {
        let f = format::parse("trans p a q\ntrans r a s\ntrans x b y\naccept q s y").unwrap();
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        let x = f.state_by_name("x").unwrap();
        assert!(language_equivalent_states(&f, p, r).holds);
        assert!(!language_equivalent_states(&f, p, x).holds);
    }
}
