//! The flat compressed-sparse-row transition core shared by every solver.
//!
//! A [`LabeledGraph`] stores the `k` labelled relations of a generalized
//! partitioning instance as four contiguous arrays: `succ_targets` /
//! `pred_targets` hold all edge endpoints back to back, and two offset
//! tables of length `k·n + 1` delimit, for every `(label, element)` slot,
//! the half-open range of that element's successor / predecessor list.
//! Compared with the previous `Vec<Vec<Vec<usize>>>` triple indirection this
//! removes two pointer chases per adjacency query and keeps each list —
//! and consecutive lists of the same label — on the same cache lines, which
//! is where the refinement solvers spend almost all of their time.
//!
//! All four arrays are 32-bit: targets are packed [`StateId`]s and offsets
//! are `u32` positions into the target arrays, which halves the resident
//! bytes of the core on 64-bit targets and doubles how many adjacent list
//! entries fit a cache line.  Builders reject ground sets larger than
//! [`crate::ids::MAX_ELEMENTS`] up front
//! ([`GraphBuilder::try_new`] reports [`IdOverflow`] instead of panicking),
//! so no conversion inside the hot paths can truncate.
//!
//! Graphs are built through a [`GraphBuilder`] that records a flat edge
//! list — one edge at a time with [`GraphBuilder::add_edge`] or in bulk with
//! [`GraphBuilder::extend_edges`] — and, at [`GraphBuilder::build`] time,
//! sorts it, removes duplicate parallel edges (the `fₗ` are set-valued, so
//! parallel edges carry no information), and lays out both CSR directions in
//! `O(m log m)`.  Recorded edges are packed `(LabelId, StateId, StateId)`
//! triples (12 bytes instead of 24), and since id packing is monotonic the
//! packed triples sort exactly like the `(label, from, to)` index triples.
//! The builder also records the maximum fan-out `c = max |fₗ(x)|` so that
//! [`LabeledGraph::max_fanout`] — the parameter of the Kanellakis–Smolka
//! `O(c²·n·log n)` bound — is an `O(1)` field read instead of a rescan.
//!
//! Producers whose rows already come out sorted — the weak relation `⇒`
//! of `ccs-equiv`, a DFA's one-step rows — skip the builder:
//! [`LabeledGraph::from_rows`] writes each row straight into the successor
//! CSR and fills the predecessor side by the counting pass the builder's
//! layout uses too, with no edge list and no sort.
//!
//! A built graph is not a dead end: [`LabeledGraph::edited_with`] removes
//! and adds a batch of edges in one relayout, by a sorted two-way merge in
//! `O(m + p log p)` (for `p` edited edges), which is what makes incremental
//! [`Instance::add_edge`](crate::Instance::add_edge)/solve interleavings
//! and edge batches cheap — the full edge list is never re-sorted.

use crate::ids::{self, IdOverflow, LabelId, StateId};

/// A packed `(label, from, to)` edge triple; monotonic id packing makes its
/// derived tuple order identical to the index-triple order.
type Edge = (LabelId, StateId, StateId);

/// An immutable flat CSR representation of `k` labelled relations over the
/// ground set `0..n`.
///
/// Successor and predecessor lists are sorted, duplicate-free, and returned
/// as slices of packed [`StateId`]s into contiguous storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabeledGraph {
    num_elements: usize,
    num_labels: usize,
    /// `succ_offsets[label·n + x] .. succ_offsets[label·n + x + 1]` delimits
    /// `fₗ(x)` inside [`LabeledGraph::succ_targets`].
    succ_offsets: Vec<u32>,
    succ_targets: Vec<StateId>,
    /// Same layout for the inverse relations.
    pred_offsets: Vec<u32>,
    pred_targets: Vec<StateId>,
    /// `|E|` after deduplication, summed over all labels.
    num_edges: usize,
    /// `max |fₗ(x)|`, computed once at build time.
    max_fanout: usize,
}

impl LabeledGraph {
    /// An empty graph over `num_elements` elements and `num_labels` labels.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the packed id range (see
    /// [`GraphBuilder::try_new`] for the fallible form).
    #[must_use]
    pub fn empty(num_elements: usize, num_labels: usize) -> Self {
        GraphBuilder::new(num_elements, num_labels).build()
    }

    /// Number of elements `n`.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of labelled relations `k`.
    #[must_use]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of distinct edges `|E|` over all relations.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Maximum fan-out `c = max |fₗ(x)|`; `O(1)`, maintained by the builder.
    #[must_use]
    pub fn max_fanout(&self) -> usize {
        self.max_fanout
    }

    /// Heap bytes held by the four CSR arrays, measured from live container
    /// capacities (allocator slack excluded) — the honest figure behind the
    /// `mem` report table and the server's session byte budgets.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.succ_offsets.capacity() * size_of::<u32>()
            + self.succ_targets.capacity() * size_of::<StateId>()
            + self.pred_offsets.capacity() * size_of::<u32>()
            + self.pred_targets.capacity() * size_of::<StateId>()
    }

    #[inline]
    fn slot(&self, label: usize, element: usize) -> usize {
        debug_assert!(label < self.num_labels && element < self.num_elements);
        label * self.num_elements + element
    }

    /// The successor list `fₗ(x)`, sorted and duplicate-free, as a slice
    /// into the flat target array.
    ///
    /// # Panics
    ///
    /// Panics if `label` or `element` is out of range.
    #[must_use]
    pub fn successors(&self, label: usize, element: usize) -> &[StateId] {
        assert!(label < self.num_labels, "label out of range");
        assert!(element < self.num_elements, "element out of range");
        let s = self.slot(label, element);
        &self.succ_targets[self.succ_offsets[s] as usize..self.succ_offsets[s + 1] as usize]
    }

    /// The predecessor list `{y | x ∈ fₗ(y)}`, sorted and duplicate-free, as
    /// a slice into the flat source array.
    ///
    /// # Panics
    ///
    /// Panics if `label` or `element` is out of range.
    #[must_use]
    pub fn predecessors(&self, label: usize, element: usize) -> &[StateId] {
        assert!(label < self.num_labels, "label out of range");
        assert!(element < self.num_elements, "element out of range");
        let s = self.slot(label, element);
        &self.pred_targets[self.pred_offsets[s] as usize..self.pred_offsets[s + 1] as usize]
    }

    /// Walks the successor CSR as packed edge triples, in the canonical
    /// sorted `(label, from, to)` order — the stream
    /// [`LabeledGraph::edited_with`] merges new edges into.
    fn packed_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let n = self.num_elements;
        // With n == 0 the range is empty, so the divisions below never run.
        (0..self.num_labels * n).flat_map(move |slot| {
            let label = LabelId::from_index(slot / n);
            let from = StateId::from_index(slot % n);
            self.succ_targets
                [self.succ_offsets[slot] as usize..self.succ_offsets[slot + 1] as usize]
                .iter()
                .map(move |&to| (label, from, to))
        })
    }

    /// Iterates over every edge as `(label, from, to)` indices, in sorted
    /// order.  Allocation-free: this widens the packed CSR walk.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.packed_edges()
            .map(|(l, from, to)| (l.index(), from.index(), to.index()))
    }

    /// Returns a new graph with `removals` deleted and `additions` merged in,
    /// in one relayout: removals are applied first, then additions (so an
    /// edge named in both ends up present).  The existing edge list is
    /// never re-sorted — removals are dropped during the sorted CSR walk and
    /// additions ride a two-way merge with it, `O(m + p log p + r log r)`
    /// for `p` additions and `r` removals.
    ///
    /// Removing an edge that is not present is a no-op, mirroring how adding
    /// a duplicate edge is.
    ///
    /// # Panics
    ///
    /// Panics if any edge mentions an out-of-range label or element.
    #[must_use]
    pub fn edited_with(
        &self,
        additions: &[(usize, usize, usize)],
        removals: &[(usize, usize, usize)],
    ) -> LabeledGraph {
        let pack = |edges: &[(usize, usize, usize)]| -> Vec<Edge> {
            let mut packed: Vec<Edge> = edges
                .iter()
                .map(|&(l, from, to)| {
                    assert!(l < self.num_labels, "label out of range");
                    assert!(from < self.num_elements, "source element out of range");
                    assert!(to < self.num_elements, "target element out of range");
                    (
                        LabelId::from_index(l),
                        StateId::from_index(from),
                        StateId::from_index(to),
                    )
                })
                .collect();
            packed.sort_unstable();
            packed.dedup();
            packed
        };
        let gone = pack(removals);
        let fresh = pack(additions);
        let mut merged = Vec::with_capacity(self.num_edges + fresh.len());
        let mut old = self
            .packed_edges()
            .filter(|e| gone.binary_search(e).is_err())
            .peekable();
        let mut new = fresh.into_iter().peekable();
        loop {
            match (old.peek(), new.peek()) {
                (Some(&a), Some(&b)) => {
                    if a < b {
                        merged.push(a);
                        old.next();
                    } else if b < a {
                        merged.push(b);
                        new.next();
                    } else {
                        merged.push(a);
                        old.next();
                        new.next();
                    }
                }
                (Some(&a), None) => {
                    merged.push(a);
                    old.next();
                }
                (None, Some(&b)) => {
                    merged.push(b);
                    new.next();
                }
                (None, None) => break,
            }
        }
        layout(self.num_elements, self.num_labels, &merged)
    }

    /// Lays out a graph from its successor rows, with no edge list and no
    /// sort: `row(l, x, out)` appends `fₗ(x)`, sorted and duplicate-free, to
    /// `out`.  It is called once per `(label, element)` slot in label-major
    /// order — the CSR's own order — so each row lands in place, and one
    /// counting pass then fills the predecessor side.  `O(m + k·n)` plus the
    /// cost of the rows.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the packed id range, or if a row is not
    /// sorted, duplicate-free and in range.
    #[must_use]
    pub fn from_rows(
        num_elements: usize,
        num_labels: usize,
        mut row: impl FnMut(usize, usize, &mut Vec<StateId>),
    ) -> LabeledGraph {
        let (n, k) = (num_elements, num_labels);
        if let Err(e) = ids::check_ground_set(n).and(ids::check_ground_set(k)) {
            panic!("{e}");
        }
        let mut succ_offsets = Vec::with_capacity(k * n + 1);
        succ_offsets.push(0u32);
        let mut succ_targets: Vec<StateId> = Vec::new();
        let mut max_fanout = 0;
        for l in 0..k {
            for x in 0..n {
                let start = succ_targets.len();
                row(l, x, &mut succ_targets);
                let fresh = &succ_targets[start..];
                assert!(
                    fresh.windows(2).all(|w| w[0] < w[1])
                        && fresh.last().map_or(true, |t| t.index() < n),
                    "rows must be sorted, duplicate-free and in range"
                );
                max_fanout = max_fanout.max(fresh.len());
                succ_offsets.push(ids::narrow(succ_targets.len()));
            }
        }
        // Drop the growth slack: the layout is resident for a session's life.
        succ_targets.shrink_to_fit();

        with_predecessors(n, k, succ_offsets, succ_targets, max_fanout)
    }

    /// Whether `to ∈ fₗ(from)` — a binary search over the sorted successor
    /// slice, `O(log c)`.
    ///
    /// # Panics
    ///
    /// Panics if `label`, `from` or `to` is out of range.
    #[must_use]
    pub fn has_edge(&self, label: usize, from: usize, to: usize) -> bool {
        assert!(to < self.num_elements, "target element out of range");
        self.successors(label, from)
            .binary_search(&StateId::from_index(to))
            .is_ok()
    }
}

/// Lays out a sorted, duplicate-free edge list as a [`LabeledGraph`] in
/// `O(m + k·n)`.  Shared by [`GraphBuilder::build`] (which sorts first) and
/// [`LabeledGraph::edited_with`] (which merges two sorted streams).
fn layout(n: usize, k: usize, edges: &[Edge]) -> LabeledGraph {
    debug_assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "edges sorted+deduped"
    );
    // Offsets are u32 positions into the target arrays; the ground-set check
    // bounds n and k but not m, so the edge count gets its own check here.
    let _ = ids::narrow(edges.len());
    let slots = k * n;

    // Successors: edges are sorted by (label, from, to), so the target
    // column *is* the flat successor array once per-slot counts are
    // prefix-summed into offsets.
    let mut succ_offsets = vec![0u32; slots + 1];
    for &(l, from, _) in edges {
        succ_offsets[l.index() * n + from.index() + 1] += 1;
    }
    let mut max_fanout: u32 = 0;
    for i in 0..slots {
        max_fanout = max_fanout.max(succ_offsets[i + 1]);
        succ_offsets[i + 1] += succ_offsets[i];
    }
    let succ_targets: Vec<StateId> = edges.iter().map(|&(_, _, to)| to).collect();
    with_predecessors(n, k, succ_offsets, succ_targets, max_fanout as usize)
}

/// Completes a successor CSR with its predecessor side — the one counting
/// pass both [`layout`] and [`LabeledGraph::from_rows`] end in.
fn with_predecessors(
    n: usize,
    k: usize,
    succ_offsets: Vec<u32>,
    succ_targets: Vec<StateId>,
    max_fanout: usize,
) -> LabeledGraph {
    // Predecessors: count per (label, to) slot, prefix-sum, then place
    // sources with a moving cursor.  Walking the successor slots in
    // order keeps each predecessor list sorted by source.
    let slots = k * n;
    let mut pred_offsets = vec![0u32; slots + 1];
    for l in 0..k {
        let label = succ_offsets[l * n] as usize..succ_offsets[(l + 1) * n] as usize;
        for &to in &succ_targets[label] {
            pred_offsets[l * n + to.index() + 1] += 1;
        }
    }
    for i in 0..slots {
        pred_offsets[i + 1] += pred_offsets[i];
    }
    let mut cursor = pred_offsets.clone();
    let mut pred_targets = vec![StateId::from_index(0); succ_targets.len()];
    for l in 0..k {
        for from in 0..n {
            let slot = l * n + from;
            let row = succ_offsets[slot] as usize..succ_offsets[slot + 1] as usize;
            let source = StateId::from_index(from);
            for &to in &succ_targets[row] {
                let s = l * n + to.index();
                pred_targets[cursor[s] as usize] = source;
                cursor[s] += 1;
            }
        }
    }
    LabeledGraph {
        num_elements: n,
        num_labels: k,
        succ_offsets,
        num_edges: succ_targets.len(),
        succ_targets,
        pred_offsets,
        pred_targets,
        max_fanout,
    }
}

/// Accumulates a flat edge list and lays it out as a [`LabeledGraph`].
///
/// ```
/// use ccs_partition::{GraphBuilder, StateId};
/// let mut b = GraphBuilder::new(3, 1);
/// b.add_edge(0, 0, 2);
/// b.add_edge(0, 0, 1);
/// b.add_edge(0, 0, 2); // duplicate parallel edge: removed at build time
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.successors(0, 0), &[StateId::from_index(1), StateId::from_index(2)]);
/// assert_eq!(g.predecessors(0, 2), &[StateId::from_index(0)]);
/// assert_eq!(g.max_fanout(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphBuilder {
    num_elements: usize,
    num_labels: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over `num_elements` elements and
    /// `num_labels` relations.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the packed id range; use
    /// [`GraphBuilder::try_new`] at ingestion boundaries that must fail
    /// cleanly instead.
    #[must_use]
    pub fn new(num_elements: usize, num_labels: usize) -> Self {
        match GraphBuilder::try_new(num_elements, num_labels) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a builder, reporting an [`IdOverflow`] when the ground set or
    /// label alphabet cannot be addressed by packed 32-bit ids — the checked
    /// ingestion entry point.  Once construction succeeds, no id conversion
    /// in [`GraphBuilder::add_edge`] or [`GraphBuilder::build`] can fail.
    pub fn try_new(num_elements: usize, num_labels: usize) -> Result<Self, IdOverflow> {
        ids::check_ground_set(num_elements)?;
        ids::check_ground_set(num_labels)?;
        Ok(GraphBuilder {
            num_elements,
            num_labels,
            edges: Vec::new(),
        })
    }

    /// Records `to ∈ fₗ(from)`.
    ///
    /// # Panics
    ///
    /// Panics if `label`, `from` or `to` is out of range.
    pub fn add_edge(&mut self, label: usize, from: usize, to: usize) {
        assert!(label < self.num_labels, "label out of range");
        assert!(from < self.num_elements, "source element out of range");
        assert!(to < self.num_elements, "target element out of range");
        // The range asserts against the checked ground set make these packs
        // infallible.
        self.edges.push((
            LabelId::from_index(label),
            StateId::from_index(from),
            StateId::from_index(to),
        ));
    }

    /// Records a whole batch of `(label, from, to)` edges.
    ///
    /// # Panics
    ///
    /// Panics if any edge mentions an out-of-range label or element.
    pub fn extend_edges<I>(&mut self, edges: I)
    where
        I: IntoIterator<Item = (usize, usize, usize)>,
    {
        let iter = edges.into_iter();
        self.edges.reserve(iter.size_hint().0);
        for (label, from, to) in iter {
            self.add_edge(label, from, to);
        }
    }

    /// Sorts and deduplicates the edge list and lays out both CSR
    /// directions.
    #[must_use]
    pub fn build(self) -> LabeledGraph {
        let GraphBuilder {
            num_elements: n,
            num_labels: k,
            mut edges,
        } = self;
        edges.sort_unstable();
        edges.dedup();
        layout(n, k, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: usize) -> StateId {
        StateId::from_index(i)
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = LabeledGraph::empty(4, 2);
        assert_eq!(g.num_elements(), 4);
        assert_eq!(g.num_labels(), 2);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_fanout(), 0);
        for l in 0..2 {
            for x in 0..4 {
                assert!(g.successors(l, x).is_empty());
                assert!(g.predecessors(l, x).is_empty());
            }
        }
    }

    #[test]
    fn lists_are_sorted_and_deduped() {
        let mut b = GraphBuilder::new(5, 2);
        b.add_edge(1, 3, 0);
        b.add_edge(0, 0, 4);
        b.add_edge(0, 0, 1);
        b.add_edge(0, 0, 4); // duplicate
        b.add_edge(0, 2, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.successors(0, 0), &[s(1), s(4)]);
        assert_eq!(g.successors(1, 3), &[s(0)]);
        assert_eq!(g.predecessors(0, 4), &[s(0), s(2)]);
        assert_eq!(g.predecessors(1, 0), &[s(3)]);
        assert_eq!(g.max_fanout(), 2);
    }

    #[test]
    fn labels_do_not_bleed_into_each_other() {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 1, 0);
        b.add_edge(2, 1, 1);
        let g = b.build();
        assert_eq!(g.successors(0, 1), &[s(2)]);
        assert_eq!(g.successors(1, 1), &[s(0)]);
        assert_eq!(g.successors(2, 1), &[s(1)]);
        assert!(g.successors(0, 0).is_empty());
        assert_eq!(g.predecessors(2, 1), &[s(1)]);
        assert!(g.predecessors(0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn successors_check_label_range() {
        // The flat slot index of an out-of-range label can still fall inside
        // the offset table, so the explicit assert matters.
        let g = LabeledGraph::empty(4, 2);
        let _ = g.successors(2, 0);
    }

    #[test]
    #[should_panic(expected = "element out of range")]
    fn predecessors_check_element_range() {
        let g = LabeledGraph::empty(4, 2);
        let _ = g.predecessors(1, 4);
    }

    #[test]
    #[should_panic(expected = "source element out of range")]
    fn builder_checks_source() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 2, 0);
    }

    #[test]
    fn oversize_ground_sets_are_rejected_cleanly() {
        let err = GraphBuilder::try_new(crate::ids::MAX_ELEMENTS + 1, 1)
            .expect_err("oversize ground set must not build");
        assert_eq!(err.index, crate::ids::MAX_ELEMENTS);
        assert!(GraphBuilder::try_new(4, usize::MAX).is_err());
        assert!(GraphBuilder::try_new(16, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "exceeds the packed 32-bit id range")]
    fn oversize_ground_sets_panic_on_the_infallible_path() {
        let _ = GraphBuilder::new(crate::ids::MAX_ELEMENTS + 1, 1);
    }

    #[test]
    fn edges_iterates_in_sorted_order() {
        let mut b = GraphBuilder::new(4, 2);
        b.extend_edges([(1, 3, 0), (0, 0, 2), (0, 0, 1), (0, 0, 2)]);
        let g = b.build();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 0, 1), (0, 0, 2), (1, 3, 0)]);
        assert!(LabeledGraph::empty(0, 3).edges().next().is_none());
    }

    #[test]
    fn merged_with_agrees_with_a_full_rebuild() {
        let mut b = GraphBuilder::new(5, 2);
        b.extend_edges([(0, 0, 1), (0, 2, 3), (1, 4, 0)]);
        let base = b.build();
        let extra = [(0, 0, 1), (0, 0, 4), (1, 1, 1), (0, 0, 4), (0, 2, 2)];
        let merged = base.edited_with(&extra, &[]);

        let mut full = GraphBuilder::new(5, 2);
        full.extend_edges(base.edges());
        full.extend_edges(extra);
        assert_eq!(merged, full.build());
        assert_eq!(merged.num_edges(), 6); // duplicates collapse
        assert_eq!(merged.successors(0, 0), &[s(1), s(4)]);
        assert_eq!(merged.predecessors(0, 4), &[s(0)]);
        assert_eq!(merged.max_fanout(), 2);
    }

    #[test]
    fn merged_with_empty_batch_is_identity() {
        let mut b = GraphBuilder::new(3, 1);
        b.add_edge(0, 0, 2);
        let g = b.build();
        assert_eq!(g.edited_with(&[], &[]), g);
    }

    #[test]
    #[should_panic(expected = "target element out of range")]
    fn merged_with_checks_ranges() {
        let g = LabeledGraph::empty(2, 1);
        let _ = g.edited_with(&[(0, 0, 2)], &[]);
    }

    #[test]
    fn edited_with_agrees_with_a_full_rebuild() {
        let mut b = GraphBuilder::new(5, 2);
        b.extend_edges([(0, 0, 1), (0, 2, 3), (1, 4, 0), (1, 1, 1)]);
        let base = b.build();
        let additions = [(0, 0, 4), (0, 2, 2), (0, 0, 4)];
        let removals = [(0, 2, 3), (1, 4, 0), (1, 2, 2)]; // last one absent: no-op
        let edited = base.edited_with(&additions, &removals);

        let mut full = GraphBuilder::new(5, 2);
        full.extend_edges([(0, 0, 1), (1, 1, 1), (0, 0, 4), (0, 2, 2)]);
        assert_eq!(edited, full.build());
        assert_eq!(edited.num_edges(), 4);
        assert!(edited.predecessors(0, 3).is_empty());
        assert_eq!(edited.successors(0, 0), &[s(1), s(4)]);
    }

    #[test]
    fn edited_with_lets_additions_win_over_removals() {
        let mut b = GraphBuilder::new(3, 1);
        b.add_edge(0, 0, 1);
        let g = b.build();
        // Removals apply first, additions second: the edge survives.
        let edited = g.edited_with(&[(0, 0, 1)], &[(0, 0, 1)]);
        assert_eq!(edited, g);
        // Pure removal of everything leaves the empty graph.
        assert_eq!(g.edited_with(&[], &[(0, 0, 1)]), LabeledGraph::empty(3, 1));
    }

    #[test]
    #[should_panic(expected = "source element out of range")]
    fn edited_with_checks_removal_ranges() {
        let g = LabeledGraph::empty(2, 1);
        let _ = g.edited_with(&[], &[(0, 2, 0)]);
    }

    #[test]
    fn from_rows_matches_the_builder() {
        let mut b = GraphBuilder::new(4, 2);
        b.extend_edges([
            (0, 0, 1),
            (0, 0, 3),
            (0, 2, 0),
            (1, 1, 1),
            (1, 3, 0),
            (1, 3, 2),
        ]);
        let built = b.build();
        let rows = LabeledGraph::from_rows(4, 2, |l, x, out| {
            out.extend_from_slice(built.successors(l, x));
        });
        assert_eq!(rows, built);
        assert_eq!(rows.max_fanout(), 2);
    }

    #[test]
    #[should_panic(expected = "rows must be sorted, duplicate-free and in range")]
    fn from_rows_rejects_unsorted_rows() {
        let _ = LabeledGraph::from_rows(3, 1, |_, _, out| out.extend([s(2), s(1)]));
    }

    #[test]
    fn has_edge_matches_the_successor_lists() {
        let mut b = GraphBuilder::new(4, 2);
        b.extend_edges([(0, 0, 1), (0, 0, 3), (1, 2, 0)]);
        let g = b.build();
        assert!(g.has_edge(0, 0, 1));
        assert!(g.has_edge(0, 0, 3));
        assert!(g.has_edge(1, 2, 0));
        assert!(!g.has_edge(0, 0, 2));
        assert!(!g.has_edge(1, 0, 1));
    }

    #[test]
    fn max_fanout_tracks_the_densest_slot() {
        let mut b = GraphBuilder::new(6, 2);
        for to in 1..6 {
            b.add_edge(0, 0, to);
        }
        b.add_edge(1, 2, 3);
        let g = b.build();
        assert_eq!(g.max_fanout(), 5);
    }

    #[test]
    fn resident_bytes_reflect_the_packed_layout() {
        let mut b = GraphBuilder::new(8, 1);
        for i in 0..7 {
            b.add_edge(0, i, i + 1);
        }
        let g = b.build();
        // Two offset tables of 9 u32 entries and two target arrays of 7
        // packed ids: all 32-bit.
        assert_eq!(g.resident_bytes(), (9 + 9 + 7 + 7) * 4);
    }
}
