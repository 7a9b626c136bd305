//! The sparse reference layout of a predicate matrix.
//!
//! [`SparseMatrix`] keeps the constrained elements in a `BTreeMap` and
//! answers every query element by element. It shares no code with the
//! packed [`PredicateMatrix`] and is not counted in [`crate::stats`], so the
//! independent validators and the differential tests can hold the packed
//! algebra to it without trusting it.

use crate::matrix::{PredKey, PredicateMatrix};
use crate::outcome::OutcomeMap;
use std::collections::BTreeMap;

/// A predicate matrix as a plain map of its constrained elements; every
/// absent key is `b`.
#[derive(Debug, PartialEq, Eq)]
pub struct SparseMatrix(BTreeMap<PredKey, bool>);

impl SparseMatrix {
    /// Build from an explicit list of constrained elements. Later
    /// duplicates of the same key overwrite earlier ones.
    pub fn from_entries<I: IntoIterator<Item = (u32, i32, bool)>>(it: I) -> Self {
        Self(it.into_iter().map(|(r, c, v)| ((r, c), v)).collect())
    }

    /// The constrained elements in `(row, col)` order.
    pub fn constrained(&self) -> impl Iterator<Item = (u32, i32, bool)> + '_ {
        self.0.iter().map(|(&(r, c), &v)| (r, c, v))
    }

    /// Whether the path sets are disjoint (complementary at some position).
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.0
            .iter()
            .any(|(k, v)| matches!(other.0.get(k), Some(w) if w != v))
    }

    /// Intersection of the two path sets, `None` when it is empty.
    pub fn conjoin(&self, other: &Self) -> Option<Self> {
        if self.is_disjoint(other) {
            return None;
        }
        let mut out = self.0.clone();
        out.extend(&other.0);
        Some(Self(out))
    }

    /// Every path admitted by `other` is admitted by `self`.
    pub fn subsumes(&self, other: &Self) -> bool {
        self.0.iter().all(|(k, v)| other.0.get(k) == Some(v))
    }

    /// Whether the concrete outcome assignment lies in this path set.
    pub fn admits(&self, outcomes: &OutcomeMap) -> bool {
        self.constrained()
            .all(|(r, c, v)| outcomes.get(r, c) == Some(v))
    }
}

impl From<&PredicateMatrix> for SparseMatrix {
    fn from(m: &PredicateMatrix) -> Self {
        Self::from_entries(m.constrained())
    }
}
