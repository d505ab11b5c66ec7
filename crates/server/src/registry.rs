//! The session registry: named, shareable [`EquivSession`]s with LRU
//! eviction under a byte budget.
//!
//! Sessions are handed out as `Arc<EquivSession>` — the session engine is
//! `Sync`, so connection threads query a shared session concurrently while
//! the registry lock is held only for the map lookup, never for the
//! refinement itself.  Resident size is tracked with
//! [`EquivSession::approx_resident_bytes`], which grows as a session
//! materializes its caches; the budget is re-checked on every `open`, so a
//! registry full of warm sessions evicts the least-recently-touched ones
//! first.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ccs_equiv::{EquivError, EquivSession, SessionDeltaOutcome};
use ccs_fsp::{Fsp, Label, StateId};

/// Capacity limits for a [`Registry`].
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Maximum number of live sessions; opening one more evicts the LRU.
    pub max_sessions: usize,
    /// Approximate resident-byte budget across all sessions (see
    /// [`EquivSession::approx_resident_bytes`]).
    pub max_bytes: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_sessions: 64,
            max_bytes: 256 << 20,
        }
    }
}

#[derive(Debug)]
struct Entry {
    session: Arc<EquivSession>,
    touched: u64,
}

#[derive(Debug, Default)]
struct Inner {
    sessions: HashMap<String, Entry>,
    clock: u64,
    next_id: u64,
}

/// A registry of open sessions, keyed by server-assigned handles (`"s1"`,
/// `"s2"`, …).
#[derive(Debug)]
pub struct Registry {
    config: RegistryConfig,
    inner: Mutex<Inner>,
    evictions: AtomicUsize,
}

/// A point-in-time summary of the registry, reported by the `stats` op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryStats {
    /// Number of live sessions.
    pub sessions: usize,
    /// Sum of the sessions' approximate resident bytes.
    pub resident_bytes: usize,
    /// Sessions evicted under pressure since the registry was created.
    pub evictions: usize,
    /// Sum of [`EquivSession::refinements_run`] across live sessions — the
    /// evidence that the session memo coalesces: it counts partition
    /// computations that actually executed, not queries served.
    pub refinements: usize,
}

impl Registry {
    /// An empty registry with the given limits.
    #[must_use]
    pub fn new(config: RegistryConfig) -> Self {
        Registry {
            config,
            inner: Mutex::new(Inner::default()),
            evictions: AtomicUsize::new(0),
        }
    }

    /// An empty registry with [`RegistryConfig::default`] limits.
    #[must_use]
    pub fn with_defaults() -> Self {
        Registry::new(RegistryConfig::default())
    }

    /// Opens a session over `fsp`, returning its handle and the shared
    /// session.  May evict least-recently-used sessions to respect the
    /// configured limits (the new session itself is never evicted).
    pub fn open(&self, fsp: Fsp) -> (String, Arc<EquivSession>) {
        let session = Arc::new(EquivSession::new(fsp));
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.next_id += 1;
        inner.clock += 1;
        let id = format!("s{}", inner.next_id);
        let touched = inner.clock;
        inner.sessions.insert(
            id.clone(),
            Entry {
                session: Arc::clone(&session),
                touched,
            },
        );
        self.evict_to_fit(&mut inner, &id);
        (id, session)
    }

    /// Evicts LRU entries (sparing `keep`) until both limits hold.
    fn evict_to_fit(&self, inner: &mut Inner, keep: &str) {
        loop {
            let over_count = inner.sessions.len() > self.config.max_sessions;
            let over_bytes = inner
                .sessions
                .values()
                .map(|e| e.session.approx_resident_bytes())
                .sum::<usize>()
                > self.config.max_bytes;
            if !(over_count || over_bytes) {
                return;
            }
            let victim = inner
                .sessions
                .iter()
                .filter(|(id, _)| id.as_str() != keep)
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(id, _)| id.clone());
            match victim {
                Some(id) => {
                    inner.sessions.remove(&id);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Only the protected newcomer is left; the budget simply
                // cannot be met for this process — serve it anyway.
                None => return,
            }
        }
    }

    /// Looks up a session and marks it most-recently-used.
    ///
    /// # Errors
    ///
    /// [`EquivError::UnknownSession`] if the handle was never issued, was
    /// closed, or has been evicted.
    pub fn get(&self, id: &str) -> Result<Arc<EquivSession>, EquivError> {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.clock += 1;
        let now = inner.clock;
        match inner.sessions.get_mut(id) {
            Some(entry) => {
                entry.touched = now;
                Ok(Arc::clone(&entry.session))
            }
            None => Err(EquivError::UnknownSession { id: id.to_owned() }),
        }
    }

    /// Applies an edge delta to the named session **in place** — the
    /// `mutate` op.  The session keeps its handle and, via
    /// [`EquivSession::apply_delta`], every cache the delta does not
    /// invalidate (τ-closure, patched saturated view, untouched subset
    /// arena); the strong and observational partitions resting on a
    /// patched instance are re-solved inside the call, so the next pair
    /// query reads them warm.
    ///
    /// `apply_delta` needs exclusive ownership; if connection threads still
    /// hold clones of the `Arc`, a detached session is rebuilt over the
    /// mutated process and swapped in — in-flight queries finish against
    /// the pre-delta snapshot, later lookups see the new one.  This is the
    /// one registry call that may do session work under the registry lock;
    /// mutations are assumed rare next to queries.
    ///
    /// # Errors
    ///
    /// [`EquivError::UnknownSession`] if the handle was never issued, was
    /// closed, or has been evicted.
    pub fn mutate(
        &self,
        id: &str,
        additions: &[(StateId, Label, StateId)],
        removals: &[(StateId, Label, StateId)],
    ) -> Result<SessionDeltaOutcome, EquivError> {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.clock += 1;
        let now = inner.clock;
        let mut entry = inner
            .sessions
            .remove(id)
            .ok_or_else(|| EquivError::UnknownSession { id: id.to_owned() })?;
        let outcome = match Arc::try_unwrap(entry.session) {
            Ok(mut session) => {
                let outcome = session.apply_delta(additions, removals);
                entry.session = Arc::new(session);
                outcome
            }
            Err(shared) => {
                let mut session = EquivSession::for_process(shared.fsp());
                let outcome = session.apply_delta(additions, removals);
                entry.session = Arc::new(session);
                outcome
            }
        };
        entry.touched = now;
        inner.sessions.insert(id.to_owned(), entry);
        Ok(outcome)
    }

    /// Closes a session; `true` if it existed.
    pub fn close(&self, id: &str) -> bool {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.sessions.remove(id).is_some()
    }

    /// Number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("registry lock poisoned")
            .sessions
            .len()
    }

    /// Whether the registry holds no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time stats over the live sessions.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry lock poisoned");
        let (mut bytes, mut refinements) = (0, 0);
        for entry in inner.sessions.values() {
            bytes += entry.session.approx_resident_bytes();
            refinements += entry.session.refinements_run();
        }
        RegistryStats {
            sessions: inner.sessions.len(),
            resident_bytes: bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            refinements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_equiv::Equivalence;
    use ccs_fsp::format;

    fn small_fsp(tag: usize) -> Fsp {
        format::parse(&format!("trans p{tag} a q{tag}\ntrans q{tag} b p{tag}")).unwrap()
    }

    #[test]
    fn handles_are_unique_and_resolvable() {
        let registry = Registry::with_defaults();
        let (a, _) = registry.open(small_fsp(0));
        let (b, _) = registry.open(small_fsp(1));
        assert_ne!(a, b);
        assert!(registry.get(&a).is_ok());
        assert!(registry.get(&b).is_ok());
        assert_eq!(registry.len(), 2);
        assert!(registry.close(&a));
        assert!(!registry.close(&a));
        let err = registry.get(&a).unwrap_err();
        assert_eq!(err.code(), "unknown-session");
    }

    #[test]
    fn session_count_limit_evicts_lru() {
        let registry = Registry::new(RegistryConfig {
            max_sessions: 2,
            max_bytes: usize::MAX,
        });
        let (a, _) = registry.open(small_fsp(0));
        let (b, _) = registry.open(small_fsp(1));
        // Touch `a` so `b` becomes the LRU.
        registry.get(&a).unwrap();
        let (c, _) = registry.open(small_fsp(2));
        assert_eq!(registry.len(), 2);
        assert!(registry.get(&a).is_ok());
        assert!(registry.get(&b).is_err(), "LRU session should be evicted");
        assert!(registry.get(&c).is_ok());
        assert_eq!(registry.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_warm_sessions_but_never_the_newcomer() {
        let registry = Registry::new(RegistryConfig {
            max_sessions: usize::MAX,
            max_bytes: 1, // nothing fits
        });
        let (a, sa) = registry.open(small_fsp(0));
        // Warm `a` so it holds caches (and more resident bytes).
        let _ = sa.classify_all(Equivalence::Observational);
        assert!(
            registry.get(&a).is_ok(),
            "sole session survives over-budget"
        );
        let (b, _) = registry.open(small_fsp(1));
        // Opening `b` must evict `a` (budget broken) but keep `b` itself.
        assert!(registry.get(&a).is_err());
        assert!(registry.get(&b).is_ok());
    }

    #[test]
    fn mutate_rewires_a_session_in_place() {
        let registry = Registry::with_defaults();
        let (id, session) = registry.open(small_fsp(0));
        let f = session.fsp().clone();
        let (p, q) = (
            f.state_by_name("p0").unwrap(),
            f.state_by_name("q0").unwrap(),
        );
        let a = Label::Act(f.action_id("a").unwrap());
        assert!(!session.equivalent_states(p, q, Equivalence::Strong));
        // Unshare so the registry mutates in place, then make the two states
        // symmetric: q0 gains a's and loses b's mirror.
        drop(session);
        let b = Label::Act(f.action_id("b").unwrap());
        let outcome = registry
            .mutate(&id, &[(q, a, p)], &[(q, b, p)])
            .expect("live session");
        assert_eq!(outcome.effective_additions, 1);
        assert_eq!(outcome.effective_removals, 1);
        let session = registry.get(&id).unwrap();
        assert!(session.equivalent_states(p, q, Equivalence::Strong));
        // A still-shared session is swapped, not blocked on.
        let outcome = registry.mutate(&id, &[(q, b, p)], &[]).unwrap();
        assert_eq!(outcome.effective_additions, 1);
        assert!(!registry
            .get(&id)
            .unwrap()
            .equivalent_states(p, q, Equivalence::Strong));
        assert!(registry.mutate("nope", &[], &[]).is_err());
    }

    #[test]
    fn stats_aggregate_refinements() {
        let registry = Registry::with_defaults();
        let (_, s1) = registry.open(small_fsp(0));
        let (_, s2) = registry.open(small_fsp(1));
        let _ = s1.classify_all(Equivalence::Strong);
        let _ = s1.classify_all(Equivalence::Strong); // cached, not re-run
        let _ = s2.classify_all(Equivalence::Strong);
        let stats = registry.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.refinements, 2);
        assert!(stats.resident_bytes > 0);
    }
}
