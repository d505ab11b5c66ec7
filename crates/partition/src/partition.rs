use std::fmt;

use crate::ids::{self, StateId};

/// A partition of the elements `0..n` into disjoint blocks.
///
/// Partitions returned by the solvers are in *canonical form*: blocks are
/// numbered by their smallest element in increasing order and each block's
/// element list is sorted.  Two partitions of the same ground set are equal
/// as set-partitions iff their canonical forms are `==`.
///
/// Storage is compact: the assignment array holds dense 32-bit block ids and
/// the block lists hold packed [`StateId`]s, so a partition costs 8 bytes
/// per element instead of 16 — it is the second-largest resident structure
/// after the CSR core, and every solver keeps one live.
#[derive(Clone, PartialEq, Eq)]
pub struct Partition {
    block_of: Vec<u32>,
    blocks: Vec<Vec<StateId>>,
}

impl Partition {
    /// Builds a partition from a block-index assignment (`assignment[i]` is
    /// the block of element `i`).  Block ids may be any `Copy + Eq + Hash`
    /// values — `usize` at the public boundaries, raw `u32` when a solver
    /// hands over its compact scratch; the result is canonicalized either
    /// way (block ids renumbered by first appearance, so each block's
    /// element list comes out sorted).
    #[must_use]
    pub fn from_assignment<T: Copy + Eq + std::hash::Hash>(assignment: &[T]) -> Self {
        let (block_of, blocks) = Partition::from_raw_assignment(assignment);
        Partition { block_of, blocks }
    }

    /// Remaps an arbitrary block-index assignment to dense compact block ids
    /// numbered by first appearance, returning the dense `u32` assignment
    /// and the element lists of each block (each sorted, since elements are
    /// visited in increasing order) as packed [`StateId`]s.
    ///
    /// This is the shared seed step of every refinement solver: it turns the
    /// raw initial blocks of an instance (or the output classes of a DFA)
    /// into the live `block_of` / `blocks` state the solver then refines —
    /// already in the 32-bit layout the solvers keep hot.
    #[must_use]
    pub fn from_raw_assignment<T: Copy + Eq + std::hash::Hash>(
        assignment: &[T],
    ) -> (Vec<u32>, Vec<Vec<StateId>>) {
        let mut remap = std::collections::HashMap::new();
        let mut block_of = vec![0u32; assignment.len()];
        let mut blocks: Vec<Vec<StateId>> = Vec::new();
        for (elem, &raw) in assignment.iter().enumerate() {
            let fresh = ids::narrow(remap.len());
            let id = *remap.entry(raw).or_insert(fresh);
            if id as usize == blocks.len() {
                blocks.push(Vec::new());
            }
            block_of[elem] = id;
            blocks[id as usize].push(StateId::from_index(elem));
        }
        (block_of, blocks)
    }

    /// The discrete partition: every element in its own block.
    #[must_use]
    pub fn discrete(n: usize) -> Self {
        let assignment: Vec<usize> = (0..n).collect();
        Partition::from_assignment(&assignment)
    }

    /// The trivial partition: all elements in a single block (or no blocks if
    /// `n == 0`).
    #[must_use]
    pub fn trivial(n: usize) -> Self {
        Partition::from_assignment(&vec![0; n])
    }

    /// Number of elements of the ground set.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.block_of.len()
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block index of an element.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range.
    #[must_use]
    pub fn block_of(&self, element: usize) -> usize {
        self.block_of[element] as usize
    }

    /// The elements of a block, sorted, as packed [`StateId`]s.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn block(&self, block: usize) -> &[StateId] {
        &self.blocks[block]
    }

    /// All blocks, each a sorted list of packed [`StateId`]s.
    #[must_use]
    pub fn blocks(&self) -> &[Vec<StateId>] {
        &self.blocks
    }

    /// Returns `true` iff two elements share a block.
    #[must_use]
    pub fn same_block(&self, a: usize, b: usize) -> bool {
        self.block_of[a] == self.block_of[b]
    }

    /// The full block assignment: the block index of every element, in
    /// element order.
    pub fn assignment(&self) -> impl Iterator<Item = usize> + '_ {
        self.block_of.iter().map(|&b| b as usize)
    }

    /// Returns `true` iff `self` refines `coarser`: every block of `self` is
    /// contained in some block of `coarser`.
    ///
    /// # Panics
    ///
    /// Panics if the two partitions have different ground sets.
    #[must_use]
    pub fn refines(&self, coarser: &Partition) -> bool {
        assert_eq!(
            self.num_elements(),
            coarser.num_elements(),
            "partitions over different ground sets"
        );
        self.blocks.iter().all(|block| {
            block
                .windows(2)
                .all(|w| coarser.block_of(w[0].index()) == coarser.block_of(w[1].index()))
        })
    }

    /// Number of (unordered) equivalent pairs `{a, b}` with `a ≠ b`, a useful
    /// size-independent summary when comparing partitions.
    #[must_use]
    pub fn num_equivalent_pairs(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.len() * (b.len() - 1) / 2)
            .sum()
    }

    /// Heap bytes held by the partition (assignment array plus block lists),
    /// measured from live container capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.block_of.capacity() * size_of::<u32>()
            + self.blocks.capacity() * size_of::<Vec<StateId>>()
            + self
                .blocks
                .iter()
                .map(|b| b.capacity() * size_of::<StateId>())
                .sum::<usize>()
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Partition({} blocks over {} elements: ",
            self.num_blocks(),
            self.num_elements()
        )?;
        f.debug_list().entries(self.blocks.iter()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: usize) -> StateId {
        StateId::from_index(i)
    }

    #[test]
    fn canonical_numbering_is_stable() {
        let a = Partition::from_assignment(&[5, 5, 2, 2, 9]);
        let b = Partition::from_assignment(&[0, 0, 1, 1, 7]);
        assert_eq!(a, b);
        assert_eq!(a.num_blocks(), 3);
        assert_eq!(a.block_of(0), 0);
        assert_eq!(a.block_of(2), 1);
        assert_eq!(a.block_of(4), 2);
    }

    #[test]
    fn discrete_and_trivial() {
        let d = Partition::discrete(4);
        assert_eq!(d.num_blocks(), 4);
        assert!(!d.same_block(0, 1));
        let t = Partition::trivial(4);
        assert_eq!(t.num_blocks(), 1);
        assert!(t.same_block(0, 3));
        assert_eq!(Partition::trivial(0).num_blocks(), 0);
        assert_eq!(Partition::discrete(0).num_elements(), 0);
    }

    #[test]
    fn refinement_relation() {
        let fine = Partition::from_assignment(&[0, 1, 2, 2]);
        let coarse = Partition::from_assignment(&[0, 0, 1, 1]);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
        assert!(fine.refines(&fine));
        assert!(Partition::discrete(4).refines(&coarse));
        assert!(coarse.refines(&Partition::trivial(4)));
    }

    #[test]
    #[should_panic(expected = "different ground sets")]
    fn refines_rejects_mismatched_sizes() {
        let a = Partition::discrete(3);
        let b = Partition::discrete(4);
        let _ = a.refines(&b);
    }

    #[test]
    fn block_contents_are_sorted() {
        let p = Partition::from_assignment(&[1, 0, 1, 0]);
        assert_eq!(p.block(0), &[s(0), s(2)]);
        assert_eq!(p.block(1), &[s(1), s(3)]);
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(p.assignment().collect::<Vec<_>>(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn raw_assignment_remap_is_dense_and_first_appearance_ordered() {
        let (block_of, blocks) = Partition::from_raw_assignment(&[7, 7, 3, 9, 3]);
        assert_eq!(block_of, vec![0, 0, 1, 2, 1]);
        assert_eq!(blocks, vec![vec![s(0), s(1)], vec![s(2), s(4)], vec![s(3)]]);
        let (empty_of, empty_blocks) = Partition::from_raw_assignment::<usize>(&[]);
        assert!(empty_of.is_empty());
        assert!(empty_blocks.is_empty());
    }

    #[test]
    fn compact_assignment_agrees_with_the_usize_path() {
        let raw = [4usize, 4, 0, 7, 0];
        let compact: Vec<u32> = raw.iter().map(|&b| u32::try_from(b).unwrap()).collect();
        assert_eq!(
            Partition::from_assignment(&compact),
            Partition::from_assignment(&raw)
        );
    }

    #[test]
    fn pair_counting() {
        assert_eq!(Partition::trivial(4).num_equivalent_pairs(), 6);
        assert_eq!(Partition::discrete(4).num_equivalent_pairs(), 0);
        assert_eq!(
            Partition::from_assignment(&[0, 0, 1, 1, 1]).num_equivalent_pairs(),
            1 + 3
        );
    }

    #[test]
    fn debug_output_shows_blocks() {
        let p = Partition::from_assignment(&[0, 1, 0]);
        let s = format!("{p:?}");
        assert!(s.contains("2 blocks"));
        assert!(s.contains("[0, 2]"));
    }
}
