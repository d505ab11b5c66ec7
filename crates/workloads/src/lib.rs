//! Workload generators for the `ccs-equiv` benchmark harness.
//!
//! Three flavours of inputs are produced:
//!
//! * [`random`] — pseudo-random processes with controllable size, alphabet,
//!   transition density, τ-ratio and acceptance ratio, plus generators for
//!   *pairs* of processes that are bisimilar by construction (state
//!   duplication) or almost-surely inequivalent (single-transition
//!   perturbation);
//! * [`families`] — deterministic structured families (chains, cycles,
//!   complete trees, τ-chains, counters and a small vending machine) whose
//!   equivalence classes are known analytically, used both as test oracles
//!   and as scaling series for the benches;
//! * [`instances`] — the same topologies emitted directly as
//!   generalized-partitioning instances through the `ccs-partition` graph
//!   builder, feeding the solver-kernel benches and property tests;
//! * [`queries`] — batched-query workloads (a shared process plus a list of
//!   state pairs), the input shape of the `EquivSession` engine and the
//!   `weak_pipeline` bench;
//! * [`mutating_queries`] — base model × edit stream × query mix: disjoint
//!   gadget copies with a seed-deterministic toggle sequence of
//!   class-redundant and refining edits, at both the process level (for
//!   `EquivSession::apply_delta` and the server's `mutate` op) and the
//!   partition-kernel level (for `Instance::apply_delta` and the re-solve
//!   the DELTA report table times after it);
//! * [`protocols`] — a documented distributed-protocols corpus
//!   (alternating-bit, ring leader election, two-phase commit, plus broken
//!   variants) with parallel components, hiding sets and observable
//!   specifications of known verdicts — the workload for the on-the-fly
//!   engine and compositional minimization.
//!
//! Where this crate sits in the workspace — the crate map, the
//! end-to-end data flow, and the notion-to-procedure table — is laid out
//! in `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod families;
pub mod instances;
pub mod mutating_queries;
pub mod protocols;
pub mod queries;
pub mod random;

pub use random::RandomConfig;
