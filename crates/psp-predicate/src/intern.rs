//! Hash-consing of predicate matrices and path sets, with memoized
//! pairwise disjoint/subsume queries.
//!
//! The iterative technique re-tests the same matrix pairs across every
//! candidate trial (the dependence tester alone runs `O(n²)` pair checks
//! per compaction, over a formal-matrix population that barely changes
//! between trials). [`PredInterner`] deduplicates matrices into dense
//! `u32` ids — so an interned [`PathSet`] handle is a `u32` copy — and
//! answers pairwise queries from id-keyed memo tables.
//!
//! # Two-tier policy
//!
//! Memoizing *every* disjoint test would be a pessimization: on two fully
//! in-window packed matrices the test is ~6 word instructions, cheaper
//! than a single hash-map probe. [`cached_disjoint`]/[`cached_subsumes`]
//! therefore test [`PredicateMatrix::is_word_packed`] pairs directly and
//! route only the expensive operands — matrices with out-of-window spill —
//! through a thread-local interner.
//!
//! The thread-local interner is capacity-bounded ([`TLS_CAP`]): interning
//! is keyed by matrix *content*, so clearing it is always safe — the next
//! query re-interns and re-computes.

use crate::matrix::PredicateMatrix;
use crate::pathset::PathSet;
use crate::stats;
use std::cell::RefCell;
use std::collections::HashMap;

/// Dense id of an interned [`PredicateMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixId(pub u32);

/// Dense id of an interned [`PathSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathSetId(pub u32);

/// Hash-consing table for matrices and path sets plus pairwise memos.
#[derive(Default)]
pub struct PredInterner {
    mats: Vec<PredicateMatrix>,
    mat_ids: HashMap<PredicateMatrix, u32>,
    sets: Vec<PathSet>,
    set_ids: HashMap<Vec<u32>, u32>,
    disjoint_memo: HashMap<(u32, u32), bool>,
    subsume_memo: HashMap<(u32, u32), bool>,
}

impl PredInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a matrix; equal matrices get the same id.
    pub fn intern(&mut self, m: &PredicateMatrix) -> MatrixId {
        if let Some(&id) = self.mat_ids.get(m) {
            return MatrixId(id);
        }
        let id = self.mats.len() as u32;
        self.mats.push(m.clone());
        self.mat_ids.insert(m.clone(), id);
        MatrixId(id)
    }

    /// The matrix behind an id.
    pub fn matrix(&self, id: MatrixId) -> &PredicateMatrix {
        &self.mats[id.0 as usize]
    }

    /// Intern a path set by the ids of its (normalized) members, so a
    /// consumer can carry a `u32` handle instead of cloning member vectors.
    pub fn intern_pathset(&mut self, s: &PathSet) -> PathSetId {
        let key: Vec<u32> = s.matrices().iter().map(|m| self.intern(m).0).collect();
        if let Some(&id) = self.set_ids.get(&key) {
            return PathSetId(id);
        }
        let id = self.sets.len() as u32;
        self.sets.push(s.clone());
        self.set_ids.insert(key, id);
        PathSetId(id)
    }

    /// The path set behind an id.
    pub fn pathset(&self, id: PathSetId) -> &PathSet {
        &self.sets[id.0 as usize]
    }

    /// Memoized `is_disjoint` (symmetric, so keys are normalized).
    pub fn disjoint(&mut self, a: MatrixId, b: MatrixId) -> bool {
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&v) = self.disjoint_memo.get(&key) {
            stats::count_memo_hit();
            return v;
        }
        stats::count_memo_miss();
        let v = self.mats[a.0 as usize].is_disjoint(&self.mats[b.0 as usize]);
        self.disjoint_memo.insert(key, v);
        v
    }

    /// Memoized `a.subsumes(b)` (directional, so keys keep their order).
    pub fn subsumes(&mut self, a: MatrixId, b: MatrixId) -> bool {
        let key = (a.0, b.0);
        if let Some(&v) = self.subsume_memo.get(&key) {
            stats::count_memo_hit();
            return v;
        }
        stats::count_memo_miss();
        let v = self.mats[a.0 as usize].subsumes(&self.mats[b.0 as usize]);
        self.subsume_memo.insert(key, v);
        v
    }

    /// Number of distinct matrices interned so far.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Drop all interned values and memos (ids become invalid).
    pub fn clear(&mut self) {
        self.mats.clear();
        self.mat_ids.clear();
        self.sets.clear();
        self.set_ids.clear();
        self.disjoint_memo.clear();
        self.subsume_memo.clear();
    }
}

/// Growth bound for the per-thread interner; content-keyed, so clearing
/// and re-interning is always safe.
const TLS_CAP: usize = 1 << 15;

thread_local! {
    static TLS: RefCell<PredInterner> = RefCell::new(PredInterner::new());
}

#[inline]
fn with_tls<T>(f: impl FnOnce(&mut PredInterner) -> T) -> T {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.len() > TLS_CAP {
            t.clear();
        }
        f(&mut t)
    })
}

/// Disjointness with the two-tier policy (see module docs): direct word
/// test for cheap pairs, thread-local intern + memo for expensive ones.
pub fn cached_disjoint(a: &PredicateMatrix, b: &PredicateMatrix) -> bool {
    if a.is_word_packed() && b.is_word_packed() {
        return a.is_disjoint(b);
    }
    with_tls(|t| {
        let (ia, ib) = (t.intern(a), t.intern(b));
        t.disjoint(ia, ib)
    })
}

/// `a.subsumes(b)` with the same two-tier policy as [`cached_disjoint`].
pub fn cached_subsumes(a: &PredicateMatrix, b: &PredicateMatrix) -> bool {
    if a.is_word_packed() && b.is_word_packed() {
        return a.subsumes(b);
    }
    with_tls(|t| {
        let (ia, ib) = (t.intern(a), t.intern(b));
        t.subsumes(ia, ib)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseMatrix;

    fn m(entries: &[(u32, i32, bool)]) -> PredicateMatrix {
        PredicateMatrix::from_entries(entries.iter().copied())
    }

    #[test]
    fn interning_dedups_by_content() {
        let mut it = PredInterner::new();
        let a = m(&[(0, 0, true)]);
        let same = m(&[(0, 0, false), (0, 0, true)]);
        let other = m(&[(0, 0, false)]);
        assert_eq!(it.intern(&a), it.intern(&same));
        assert_ne!(it.intern(&a), it.intern(&other));
        assert_eq!(it.len(), 2);
        let id = it.intern(&a);
        assert_eq!(it.matrix(id), &a);
    }

    #[test]
    fn memoized_queries_match_the_sparse_reference() {
        let mut it = PredInterner::new();
        let a = m(&[(0, 0, true)]);
        let b = m(&[(0, 0, false), (0, 1, true)]);
        let (sa, sb) = (SparseMatrix::from(&a), SparseMatrix::from(&b));
        let (ia, ib) = (it.intern(&a), it.intern(&b));
        for _ in 0..3 {
            assert_eq!(it.disjoint(ia, ib), sa.is_disjoint(&sb));
            assert_eq!(it.disjoint(ib, ia), sa.is_disjoint(&sb));
            assert_eq!(it.subsumes(ia, ib), sa.subsumes(&sb));
            assert_eq!(it.subsumes(ib, ia), sb.subsumes(&sa));
        }
    }

    #[test]
    fn pathset_interning_is_stable() {
        let mut it = PredInterner::new();
        let s = PathSet::from_matrices([m(&[(0, 0, true)]), m(&[(1, 0, false)])]);
        let id = it.intern_pathset(&s);
        assert_eq!(it.intern_pathset(&s.clone()), id);
        assert_eq!(it.pathset(id), &s);
        let t = PathSet::from_matrix(m(&[(0, 0, true)]));
        assert_ne!(it.intern_pathset(&t), id);
    }

    #[test]
    fn cached_helpers_match_the_sparse_reference() {
        let a = m(&[(0, 0, true), (20, 0, false)]); // row 20 spills
        let b = m(&[(0, 0, false)]);
        let c = m(&[(0, 0, true)]);
        for (x, y) in [(&a, &b), (&a, &c), (&b, &c), (&a, &a)] {
            let (sx, sy) = (SparseMatrix::from(x), SparseMatrix::from(y));
            assert_eq!(cached_disjoint(x, y), sx.is_disjoint(&sy));
            assert_eq!(cached_subsumes(x, y), sx.subsumes(&sy));
            assert_eq!(cached_subsumes(y, x), sy.subsumes(&sx));
        }
    }
}
