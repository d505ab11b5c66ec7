//! [`Query`] — one builder for every equivalence question.
//!
//! Pick a notion, then run the query against either a long-lived
//! [`EquivSession`] or one-shot process arguments.  Every executor answers
//! through the session's single-flight partition memo (or, for small
//! batches of the PSPACE notions, its pair cache).
//!
//! ```
//! use ccs_equiv::{EquivSession, Equivalence, Query};
//! use ccs_fsp::format;
//!
//! let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t")?;
//! let session = EquivSession::for_process(&f);
//!
//! // Whole-space classification:
//! let classes = Query::new(Equivalence::Observational).run(&session)?;
//! assert_eq!(classes.num_blocks(), 2); // {p, q, s} and the dead {r, t}
//!
//! // A single pair on the same warm session:
//! let p = f.state_by_name("p").unwrap();
//! let s = f.state_by_name("s").unwrap();
//! assert!(Query::new(Equivalence::Observational).pair(&session, p, s)?);
//! # Ok::<(), ccs_equiv::EquivError>(())
//! ```

use std::sync::Arc;

use ccs_fsp::{ops, Fsp, StateId};
use ccs_partition::Partition;

use crate::check::Equivalence;
use crate::session::EquivSession;
use crate::EquivError;

/// A reusable description of an equivalence question: the notion.
///
/// Construct with [`Query::new`], then run one of the executors:
///
/// * [`Query::run`] — classify the whole state space of a session.
/// * [`Query::pair`] / [`Query::pairs`] — pair queries on a session.
/// * [`Query::between`] / [`Query::states`] — one-shot questions that build
///   a throwaway session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    notion: Equivalence,
}

impl Query {
    /// A query for `notion`.
    #[must_use]
    pub fn new(notion: Equivalence) -> Self {
        Query { notion }
    }

    /// The notion this query asks about.
    #[must_use]
    pub fn notion(&self) -> Equivalence {
        self.notion
    }

    /// Classifies the whole state space of `session` under the query's
    /// notion: every state mapped to its equivalence class.
    ///
    /// # Errors
    ///
    /// Currently no notion can fail on well-formed processes; the `Result`
    /// leaves room for notions with model-class requirements (the
    /// deterministic fast path of [`deterministic`](crate::deterministic)
    /// already has them).
    pub fn run(&self, session: &EquivSession) -> Result<Arc<Partition>, EquivError> {
        Ok(session.classify_all(self.notion))
    }

    /// Tests whether two states of `session`'s process are related.
    ///
    /// # Errors
    ///
    /// See [`Query::run`].
    pub fn pair(&self, session: &EquivSession, p: StateId, q: StateId) -> Result<bool, EquivError> {
        Ok(session.equivalent_states(p, q, self.notion))
    }

    /// Answers a batch of pair queries from one refinement (see
    /// [`EquivSession::equivalent_pairs`] for the small-batch exception on
    /// the PSPACE notions).
    ///
    /// # Errors
    ///
    /// See [`Query::run`].
    pub fn pairs(
        &self,
        session: &EquivSession,
        pairs: &[(StateId, StateId)],
    ) -> Result<Vec<bool>, EquivError> {
        Ok(session.equivalent_pairs(self.notion, pairs))
    }

    /// One-shot: whether the start states of two processes are related.
    /// The processes are combined with a disjoint union (merging alphabets
    /// by name) and answered by a throwaway session — callers with several
    /// questions about the same state space should hold an
    /// [`EquivSession`] and use [`Query::pair`].
    ///
    /// # Errors
    ///
    /// See [`Query::run`].
    pub fn between(&self, left: &Fsp, right: &Fsp) -> Result<bool, EquivError> {
        let union = ops::disjoint_union(left, right);
        let (p, q) = ops::union_starts(&union, left, right);
        let session = EquivSession::new(union.fsp);
        self.pair(&session, p, q)
    }

    /// One-shot: whether two states of the same process are related,
    /// through a throwaway session.
    ///
    /// # Errors
    ///
    /// See [`Query::run`].
    pub fn states(&self, fsp: &Fsp, p: StateId, q: StateId) -> Result<bool, EquivError> {
        let session = EquivSession::for_process(fsp);
        self.pair(&session, p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    fn classic_pair() -> (Fsp, Fsp) {
        let merged =
            format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s").unwrap();
        let split =
            format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")
                .unwrap();
        (merged, split)
    }

    #[test]
    fn builder_matches_the_classic_hierarchy() {
        let (merged, split) = classic_pair();
        assert!(Query::new(Equivalence::Language)
            .between(&merged, &split)
            .unwrap());
        assert!(Query::new(Equivalence::Trace)
            .between(&merged, &split)
            .unwrap());
        assert!(!Query::new(Equivalence::Failure)
            .between(&merged, &split)
            .unwrap());
        assert!(!Query::new(Equivalence::Observational)
            .between(&merged, &split)
            .unwrap());
    }

    #[test]
    fn pair_and_pairs_agree_with_run() {
        let (merged, split) = classic_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let fsp = union.fsp.clone();
        let session = EquivSession::new(union.fsp);
        for notion in [
            Equivalence::Strong,
            Equivalence::Observational,
            Equivalence::Language,
            Equivalence::Failure,
        ] {
            let query = Query::new(notion);
            let partition = query.run(&session).unwrap();
            let states: Vec<StateId> = fsp.state_ids().collect();
            let all: Vec<(StateId, StateId)> = states
                .iter()
                .flat_map(|&a| states.iter().map(move |&b| (a, b)))
                .collect();
            let batch = query.pairs(&session, &all).unwrap();
            for (&(p, q), &got) in all.iter().zip(&batch) {
                assert_eq!(got, partition.same_block(p.index(), q.index()), "{notion}");
                assert_eq!(got, query.pair(&session, p, q).unwrap(), "{notion}");
            }
        }
    }

    #[test]
    fn accessors_round_trip() {
        assert_eq!(
            Query::new(Equivalence::Strong).notion(),
            Equivalence::Strong
        );
        assert_eq!(Query::new(Equivalence::Trace).notion(), Equivalence::Trace);
    }
}
