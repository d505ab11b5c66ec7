//! Umbrella crate for the Kanellakis–Smolka (PODC '83) reproduction.
//!
//! Re-exports every workspace crate under one roof so the root integration
//! tests, the examples, and downstream users can depend on a single package:
//!
//! * [`fsp`] — finite state processes (Definition 2.1.1): model, builder,
//!   combinators, τ-saturation.
//! * [`partition`] — the generalized partitioning solvers of Section 3
//!   (naive and the two Kanellakis–Smolka variants) plus the deterministic
//!   specializations (Hopcroft, UNION-FIND).
//! * [`equiv`] — the paper's equivalence notions: strong (≅), observational
//!   (≈), k-observational (≈ₖ), failure (≡F), trace, and language.
//! * [`expr`] — CCS star expressions (Section 2.3): AST, parser, and the
//!   representative-FSP construction of Lemma 2.3.1.
//! * [`reductions`] — the hardness gadgets behind the lower bounds of
//!   Sections 4–5.
//! * [`workloads`] — random and structured process generators used by tests
//!   and benchmarks.
//! * [`server`] — equivalence-as-a-service: the line-oriented JSON wire
//!   protocol over TCP, its session registry, and the matching blocking
//!   client.
//!
//! Where this crate sits in the workspace — the crate map, the
//! end-to-end data flow, and the notion-to-procedure table — is laid out
//! in `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ccs_equiv as equiv;
pub use ccs_expr as expr;
pub use ccs_fsp as fsp;
pub use ccs_partition as partition;
pub use ccs_reductions as reductions;
pub use ccs_server as server;
pub use ccs_workloads as workloads;
