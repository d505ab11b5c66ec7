//! Equivalence checkers for finite state processes — the three problems of
//! equivalence of Kanellakis & Smolka.
//!
//! The crate implements every equivalence notion of the paper's Table II and
//! the algorithms (and complexity behaviours) of Sections 3–5:
//!
//! | notion | module | paper result | algorithm here |
//! |---|---|---|---|
//! | strong equivalence `~` | [`strong`] | polynomial, `O(m log n)` (Thm 3.1) | Lemma 3.1 reduction to generalized partitioning |
//! | observational equivalence `≈` | [`weak`] | polynomial (Thm 4.1a) | τ-saturation + strong equivalence |
//! | limited observational `≃ₖ`, `≃` | [`limited`] | `≃` = `≈` (Prop 2.2.1) | naive signature rounds (Lemma 3.2) on the weak instance, columns Σ plus ε |
//! | k-observational `≈ₖ` | [`kobs`] | PSPACE-complete for fixed k ≥ 1 (Thm 4.1b) | exact: one shared subset arena + per-level class-set signature refinement (per-pair synchronized BFS kept as oracle) |
//! | language (NFA) equivalence `≈₁` | [`language`] | PSPACE-complete | shared memoized determinization ([`determinize`]) + one DFA refinement |
//! | trace equivalence | [`traces`] | (special case of `≈₁`) | same shared subset arena, non-emptiness classes |
//! | failure equivalence `≡F` | [`failures`] | PSPACE-complete (Thm 5.1) | same shared subset arena, interned ⊆-maximal refusal antichains |
//! | deterministic fast paths | [`deterministic`] | everything collapses (Prop 2.2.4) | UNION-FIND DFA equivalence |
//! | on-the-fly pair checks (language/trace/failure) | [`onthefly`] | "decide, don't build everything" | lazy synchronized BFS over the shared subset arena, first-witness stop |
//!
//! Non-equivalent states can be explained: [`witness`] produces
//! Hennessy–Milner-style distinguishing formulas for strong/observational
//! inequivalence, and the language/failures checkers return distinguishing
//! words and failure pairs.
//!
//! # One-shot functions vs the session engine
//!
//! Every notion is available two ways:
//!
//! * **Free functions** answer a single question and recompute every
//!   derived artifact.  They come in three kinds:
//!   - *Session delegates* open a throwaway session and ask it:
//!     [`Query::between`] and [`Query::states`] (the entry points for one
//!     question about any notion), the `weak` functions,
//!     `kobs::kobs_partition_arena` and `onthefly::compare`.
//!   - *Oracles* are independent per-pair checkers that the session's fast
//!     engines are tested against: `language`, `traces` and `failures`
//!     `*_equivalent[_states]` (one subset construction per pair), and
//!     `kobs::kobs_equivalent[_states]` and `kobs::kobs_partition` (the
//!     per-pair synchronized BFS per level).  All of them run one
//!     synchronized pair search written once in [`language`], which shares
//!     no code with the production engines.
//!   - *Own-instance solvers* build and solve their instance without a
//!     session: the `strong` functions (`strong::strong_partition_with`
//!     runs any solver) and the `limited` hierarchy functions.
//! * **[`EquivSession`]** owns one process and computes each artifact *once*
//!   — the τ-closure, the saturated weak relation (one `ccs-partition` CSR
//!   laid out by [`saturate`], never materialized as a second process), and
//!   one memoized partition per [`Equivalence`] — then answers
//!   batches of pair queries ([`EquivSession::equivalent_pairs`]) or
//!   classifies the whole state space ([`EquivSession::classify_all`]) from
//!   that shared state.  See the [`session`] module docs for the
//!   artifact-sharing graph and the amortized-cost argument
//!   (Theorem 4.1(a)).
//!
//! # Quick example
//!
//! ```
//! use ccs_fsp::format;
//! use ccs_equiv::{Equivalence, Query};
//!
//! // a.(b + c)  versus  a.b + a.c — the classic CCS example:
//! // language equivalent but NOT observationally equivalent.
//! let left = format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s")?;
//! let right = format::parse(
//!     "trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")?;
//! assert!(Query::new(Equivalence::Language).between(&left, &right)?);
//! assert!(!Query::new(Equivalence::Observational).between(&left, &right)?);
//! assert!(!Query::new(Equivalence::Strong).between(&left, &right)?);
//! # Ok::<(), ccs_equiv::EquivError>(())
//! ```
//!
//! Where this crate sits in the workspace — the crate map, the
//! end-to-end data flow, and the notion-to-procedure table — is laid out
//! in `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The compact-core invariant: ids narrow through the checked helpers only,
// never through a bare `as` cast that could silently truncate.
#![deny(clippy::cast_possible_truncation)]

mod check;
mod compact;
pub mod deterministic;
pub mod determinize;
mod error;
pub mod failures;
pub mod kobs;
pub mod language;
pub mod limited;
pub mod onthefly;
pub mod query;
pub mod relation;
pub mod saturate;
pub mod session;
pub mod strong;
pub mod traces;
pub mod weak;
pub mod witness;

pub use check::Equivalence;
pub use error::EquivError;
pub use query::Query;
pub use session::{EquivSession, SessionDeltaOutcome};
