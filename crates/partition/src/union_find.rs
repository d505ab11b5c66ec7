use crate::ids;

/// A disjoint-set (UNION-FIND) structure with path compression and union by
/// rank, as used by the `O(N·α(N))` DFA equivalence test the paper recalls
/// from Aho, Hopcroft & Ullman (Section 3).
///
/// Parent links are stored as `u32` — five bytes per element together with
/// the rank byte — since element counts are bounded by the packed 32-bit id
/// range everywhere this structure is used.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the 32-bit id range.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let _ = ids::narrow(n);
        UnionFind {
            parent: (0..n).map(ids::narrow).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Appends singleton sets until the structure covers `0..n`; a no-op
    /// when it already does.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the 32-bit id range.
    pub fn grow(&mut self, n: usize) {
        while self.parent.len() < n {
            self.parent.push(ids::narrow(self.parent.len()));
            self.rank.push(0);
            self.num_sets += 1;
        }
    }

    /// Heap bytes held by the parent and rank arrays, measured from their
    /// live capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.parent.capacity() * std::mem::size_of::<u32>() + self.rank.capacity()
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` iff the structure has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently represented.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The canonical representative of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = ids::narrow(x);
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = ids::narrow(x);
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root as usize
    }

    /// Merges the sets containing `a` and `b`; returns `true` iff they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.num_sets -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = ids::narrow(rb),
            std::cmp::Ordering::Greater => self.parent[rb] = ids::narrow(ra),
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ids::narrow(ra);
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Returns `true` iff `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_distinct() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_sets(), 4);
        assert!(!uf.same(0, 1));
        assert_eq!(uf.len(), 4);
        assert!(!uf.is_empty());
        assert!(UnionFind::new(0).is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.num_sets(), 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        assert!(uf.union(1, 3));
        assert!(uf.same(0, 2));
        assert_eq!(uf.num_sets(), 2);
    }

    #[test]
    fn grow_appends_singletons_and_keeps_merges() {
        let mut uf = UnionFind::default();
        assert!(uf.is_empty());
        uf.grow(3);
        assert!(uf.union(0, 2));
        uf.grow(5);
        uf.grow(4);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.num_sets(), 4);
        assert!(uf.same(2, 0));
        assert!(!uf.same(3, 4));
        assert!(uf.resident_bytes() >= 5 * 5);
    }

    #[test]
    fn transitive_chains_collapse() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.same(0, 99));
        let root = uf.find(50);
        assert_eq!(uf.find(0), root);
    }
}
