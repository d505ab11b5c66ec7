//! Fixed-point checking for explicit relations (Definition 2.2.5).
//!
//! A binary relation `R` on states is a *Λ-fixed-point* when `p R q` implies
//! `E(p) = E(q)` and the transfer conditions for every string in `Λ` hold in
//! both directions.  The paper uses `Σ`-fixed-points (strong bisimulations)
//! and `Σ ∪ {ε}`-fixed-points (whose largest element is observational
//! equivalence, Propositions 2.2.1–2.2.2).  These checkers are the
//! correctness oracles used by the property-based tests: the partitions
//! computed by [`strong`](crate::strong) and [`weak`](crate::weak) must pass
//! them.

use std::collections::HashSet;

use ccs_fsp::saturate::{tau_closure, weak_action_successors};
use ccs_fsp::{Fsp, StateId};
use ccs_partition::Partition;

/// Groups the states `0..n` into the classes of the equivalence `same` by
/// comparing each state against one representative per class found so far
/// — sound because `same` is transitive.  This is the shell of the per-pair
/// oracles ([`kobs::kobs_partition`](crate::kobs::kobs_partition) and
/// [`EquivSession::representative_scan_partition`](crate::EquivSession::representative_scan_partition)):
/// `same(s, rep)` is called with the new state first.
pub(crate) fn representative_scan(
    n: usize,
    mut same: impl FnMut(StateId, StateId) -> bool,
) -> Partition {
    let mut assignment = vec![0; n];
    let mut representatives: Vec<StateId> = Vec::new();
    for s in (0..n).map(StateId::from_index) {
        let class = match representatives.iter().position(|&rep| same(s, rep)) {
            Some(c) => c,
            None => {
                representatives.push(s);
                representatives.len() - 1
            }
        };
        assignment[s.index()] = class;
    }
    Partition::from_assignment(&assignment)
}

/// Returns `true` iff `pairs` (closed symmetrically and reflexively over the
/// mentioned states) is a strong bisimulation: related states have equal
/// extension sets and match each other's single transitions (τ included)
/// into related states.
#[must_use]
pub fn is_strong_bisimulation(fsp: &Fsp, pairs: &[(StateId, StateId)]) -> bool {
    let rel: HashSet<(usize, usize)> = symmetric_closure(pairs);
    for &(p, q) in &rel {
        let (p, q) = (StateId::from_index(p), StateId::from_index(q));
        if !fsp.same_extensions(p, q) {
            return false;
        }
        for t in fsp.transitions(p) {
            let matched = fsp
                .successors(q, t.label)
                .any(|q2| rel.contains(&(t.target.index(), q2.index())));
            if !matched {
                return false;
            }
        }
    }
    true
}

/// Returns `true` iff `pairs` is a `Σ ∪ {ε}`-fixed-point (a weak
/// bisimulation in Milner's sense restricted to single observable actions and
/// ε): related states have equal extensions and match each other's weak
/// single-step derivatives into related states.
#[must_use]
pub fn is_weak_bisimulation(fsp: &Fsp, pairs: &[(StateId, StateId)]) -> bool {
    let rel: HashSet<(usize, usize)> = symmetric_closure(pairs);
    let closure = tau_closure(fsp);
    for &(p, q) in &rel {
        let (p, q) = (StateId::from_index(p), StateId::from_index(q));
        if !fsp.same_extensions(p, q) {
            return false;
        }
        // ε moves.
        for &p1 in closure.successors(p) {
            let matched = closure
                .successors(q)
                .iter()
                .any(|&q1| rel.contains(&(p1.index(), q1.index())));
            if !matched {
                return false;
            }
        }
        // single observable weak moves.
        for a in fsp.action_ids() {
            for p1 in weak_action_successors(fsp, &closure, p, a) {
                let matched = weak_action_successors(fsp, &closure, q, a)
                    .iter()
                    .any(|&q1| rel.contains(&(p1.index(), q1.index())));
                if !matched {
                    return false;
                }
            }
        }
    }
    true
}

/// Converts a partition into the full list of related pairs (all pairs inside
/// each block, ordered both ways, including reflexive pairs).
#[must_use]
pub fn partition_to_pairs(partition: &Partition) -> Vec<(StateId, StateId)> {
    let mut out = Vec::new();
    for block in partition.blocks() {
        for &a in block {
            for &b in block {
                out.push((
                    StateId::from_index(a.index()),
                    StateId::from_index(b.index()),
                ));
            }
        }
    }
    out
}

fn symmetric_closure(pairs: &[(StateId, StateId)]) -> HashSet<(usize, usize)> {
    let mut rel = HashSet::new();
    for &(p, q) in pairs {
        rel.insert((p.index(), q.index()));
        rel.insert((q.index(), p.index()));
        rel.insert((p.index(), p.index()));
        rel.insert((q.index(), q.index()));
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    #[test]
    fn computed_strong_partition_is_a_strong_bisimulation() {
        let f = format::parse(
            "trans p a p1\ntrans q a q1\ntrans p1 b p\ntrans q1 b q\ntrans r a r1\naccept r1",
        )
        .unwrap();
        let sp = crate::strong::strong_partition(&f);
        assert!(is_strong_bisimulation(
            &f,
            &partition_to_pairs(sp.partition())
        ));
    }

    #[test]
    fn computed_weak_partition_is_a_weak_bisimulation() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t\ntrans t tau u\naccept r u")
            .unwrap();
        let wp = crate::weak::weak_partition(&f);
        assert!(is_weak_bisimulation(
            &f,
            &partition_to_pairs(wp.partition())
        ));
    }

    #[test]
    fn bogus_relations_are_rejected() {
        let f = format::parse("trans p a q\ntrans r b s").unwrap();
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        // p can do a, r cannot: not a bisimulation of any kind.
        assert!(!is_strong_bisimulation(&f, &[(p, r)]));
        assert!(!is_weak_bisimulation(&f, &[(p, r)]));
    }

    #[test]
    fn extension_mismatch_is_rejected() {
        let f = format::parse("state p q\naccept q").unwrap();
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        assert!(!is_strong_bisimulation(&f, &[(p, q)]));
        assert!(!is_weak_bisimulation(&f, &[(p, q)]));
    }

    #[test]
    fn weak_bisimulation_tolerates_tau_mismatch() {
        // τ.a related to a: fine weakly, not strongly.
        let f = format::parse("trans p tau p2\ntrans p2 a p3\ntrans q a q2").unwrap();
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let p2 = f.state_by_name("p2").unwrap();
        let p3 = f.state_by_name("p3").unwrap();
        let q2 = f.state_by_name("q2").unwrap();
        let pairs = vec![(p, q), (p2, q), (p3, q2)];
        assert!(is_weak_bisimulation(&f, &pairs));
        assert!(!is_strong_bisimulation(&f, &pairs));
    }

    #[test]
    fn empty_relation_is_a_bisimulation() {
        let f = format::parse("trans p a q").unwrap();
        assert!(is_strong_bisimulation(&f, &[]));
        assert!(is_weak_bisimulation(&f, &[]));
    }
}
