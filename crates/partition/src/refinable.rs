//! The refinable partition of Valmari & Lehtinen (STACS 2008): the one
//! block-split primitive behind [`kanellakis_smolka`](crate::kanellakis_smolka)
//! and [`hopcroft`](crate::hopcroft).  [`naive`](crate::naive) keeps its own
//! signature rounds, so it stays an independent reference.
//!
//! One element array holds every block contiguously; a block is a range
//! `[start, end)` of it, and `pos` inverts the array.  A split moves each
//! marked element to the front `[start, mid)` of its block and gives the
//! smaller of the marked and unmarked parts a fresh id, so it costs
//! `O(marked)`, never a scan of the whole touched block.

use std::hash::Hash;

use crate::ids::{self, StateId};
use crate::Partition;

/// One block's range of the element array; during a split, `[start, mid)`
/// holds its marked elements.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    mid: u32,
    end: u32,
}

impl Span {
    fn new(start: u32, end: u32) -> Self {
        let mid = start;
        Span { start, mid, end }
    }
}

/// A partition of `0..n` refined in place by mark-and-split rounds.
#[derive(Debug)]
pub(crate) struct Refinable {
    elems: Vec<StateId>,
    pos: Vec<u32>,
    block_of: Vec<u32>,
    spans: Vec<Span>,
    /// The marked elements are `marks[..num_marks]`; the buffer has room
    /// for every element (its initial contents are never read).  So `mark`
    /// makes no call, and a preimage scan keeps these arrays in registers:
    /// on dense weak instances, whose elements are hit many times per
    /// round, a `mark` that swapped in place made the scan 2–3× slower.
    marked: Vec<bool>,
    marks: Vec<StateId>,
    num_marks: usize,
    /// Blocks with a marked element, in first-marked order.
    touched: Vec<u32>,
}

impl Refinable {
    /// The partition of `assignment` (`assignment[x]` is the block of `x`),
    /// with blocks numbered by first appearance.
    pub(crate) fn new<T: Copy + Eq + Hash>(assignment: &[T]) -> Self {
        let (block_of, blocks) = Partition::from_raw_assignment(assignment);
        let n = block_of.len();
        let mut elems = Vec::with_capacity(n);
        let mut spans = Vec::with_capacity(blocks.len());
        for block in &blocks {
            let start = ids::narrow(elems.len());
            elems.extend_from_slice(block);
            spans.push(Span::new(start, ids::narrow(elems.len())));
        }
        let mut pos = vec![0; n];
        for (i, x) in elems.iter().enumerate() {
            pos[x.index()] = ids::narrow(i);
        }
        Refinable {
            marks: elems.clone(),
            elems,
            pos,
            block_of,
            spans,
            marked: vec![false; n],
            num_marks: 0,
            touched: Vec::new(),
        }
    }

    pub(crate) fn num_blocks(&self) -> usize {
        self.spans.len()
    }

    pub(crate) fn block_of(&self, x: StateId) -> u32 {
        self.block_of[x.index()]
    }

    /// The elements of block `b`, in no particular order.
    pub(crate) fn elements(&self, b: u32) -> &[StateId] {
        let span = self.spans[b as usize];
        &self.elems[span.start as usize..span.end as usize]
    }

    /// Marks `x` for the next [`split`](Self::split); returns whether `x`
    /// was newly marked.
    #[inline]
    pub(crate) fn mark(&mut self, x: StateId) -> bool {
        if self.marked[x.index()] {
            return false;
        }
        self.marked[x.index()] = true;
        self.marks[self.num_marks] = x;
        self.num_marks += 1;
        true
    }

    /// Cuts every block with a marked element into its marked and unmarked
    /// parts, clears all marks, and calls `split(old, new)` for each block
    /// that really split.  The smaller part takes the fresh id `new`; a
    /// block whose elements were all marked stays whole.
    pub(crate) fn split(&mut self, mut split: impl FnMut(u32, u32)) {
        for &x in &self.marks[..self.num_marks] {
            self.marked[x.index()] = false;
            let b = self.block_of[x.index()];
            let span = &mut self.spans[b as usize];
            let (p, m) = (self.pos[x.index()], span.mid);
            if m == span.start {
                self.touched.push(b);
            }
            span.mid = m + 1;
            let other = self.elems[m as usize];
            self.elems.swap(p as usize, m as usize);
            self.pos[other.index()] = p;
            self.pos[x.index()] = m;
        }
        self.num_marks = 0;
        for i in 0..self.touched.len() {
            let old = self.touched[i];
            let span = &mut self.spans[old as usize];
            let Span { start, mid, end } = *span;
            span.mid = start;
            if mid == end {
                continue;
            }
            let moved = if mid - start <= end - mid {
                span.start = mid;
                span.mid = mid;
                start..mid
            } else {
                span.end = mid;
                mid..end
            };
            let new = ids::narrow(self.spans.len());
            for &x in &self.elems[moved.start as usize..moved.end as usize] {
                self.block_of[x.index()] = new;
            }
            self.spans.push(Span::new(moved.start, moved.end));
            split(old, new);
        }
        self.touched.clear();
    }

    /// The refined partition, in canonical form.
    pub(crate) fn into_partition(self) -> Partition {
        Partition::from_assignment(&self.block_of)
    }
}

#[cfg(test)]
// Test RNG draws narrow by `as` on purpose; the lint guards library code.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn s(i: usize) -> StateId {
        StateId::from_index(i)
    }

    /// Checks the layout against the model's blocks, indexed by block id.
    fn check_layout(p: &Refinable, model: &[BTreeSet<usize>]) {
        let n = p.elems.len();
        for (i, x) in p.elems.iter().enumerate() {
            assert_eq!(p.pos[x.index()] as usize, i, "pos inverts elems");
        }
        let mut spans: Vec<Span> = p.spans.clone();
        spans.sort_by_key(|span| span.start);
        let mut next = 0;
        for span in &spans {
            assert_eq!(span.start, next, "ranges tile 0..n");
            assert!(span.start < span.end, "no empty block");
            assert_eq!(span.mid, span.start, "marks cleared");
            next = span.end;
        }
        assert!(
            !p.marked.contains(&true) && p.num_marks == 0,
            "marks cleared"
        );
        assert_eq!(next as usize, n, "ranges tile 0..n");
        assert_eq!(p.num_blocks(), model.len());
        for (b, members) in model.iter().enumerate() {
            let got: BTreeSet<usize> = p
                .elements(ids::narrow(b))
                .iter()
                .map(|x| x.index())
                .collect();
            assert_eq!(&got, members, "block {b}");
            for &x in members {
                assert_eq!(p.block_of(s(x)) as usize, b, "block_of agrees");
            }
        }
    }

    #[test]
    fn random_mark_split_sequences_match_a_set_model() {
        let mut seed: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..60 {
            let n = 1 + (next() % 24) as usize;
            let initial: Vec<u64> = (0..n).map(|_| next() % 3).collect();
            let mut p = Refinable::new(&initial);
            let mut model: Vec<BTreeSet<usize>> = Vec::new();
            for x in 0..n {
                match model
                    .iter()
                    .position(|b| initial[*b.first().unwrap()] == initial[x])
                {
                    Some(b) => {
                        model[b].insert(x);
                    }
                    None => model.push(BTreeSet::from([x])),
                }
            }
            check_layout(&p, &model);
            for _ in 0..12 {
                let mut marked = BTreeSet::new();
                let mut touched: Vec<usize> = Vec::new();
                for _ in 0..(next() % (2 * n as u64)) {
                    let x = (next() % n as u64) as usize;
                    let b = p.block_of(s(x)) as usize;
                    if !touched.contains(&b) {
                        touched.push(b);
                    }
                    assert_eq!(p.mark(s(x)), marked.insert(x), "newly marked");
                }
                let mut expected: Vec<(u32, u32)> = Vec::new();
                for b in touched {
                    let (inside, outside): (BTreeSet<usize>, BTreeSet<usize>) =
                        model[b].iter().partition(|x| marked.contains(x));
                    if outside.is_empty() {
                        continue; // an all-marked block stays whole
                    }
                    let new = model.len();
                    let (keep, moved) = if inside.len() <= outside.len() {
                        (outside, inside)
                    } else {
                        (inside, outside)
                    };
                    model[b] = keep;
                    model.push(moved);
                    expected.push((ids::narrow(b), ids::narrow(new)));
                }
                let mut splits = Vec::new();
                p.split(|old, new| splits.push((old, new)));
                assert_eq!(splits, expected);
                for &(old, new) in &splits {
                    assert!(
                        p.elements(new).len() <= p.elements(old).len(),
                        "the new id takes the smaller part"
                    );
                }
                check_layout(&p, &model);
            }
        }
    }
}
