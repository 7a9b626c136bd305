//! Property-based tests for the predicate-matrix / path-set algebra.
//!
//! Strategy: pick one of two 15-key layouts, generate small random
//! matrices over its keys plus total outcome assignments over the same
//! keys, and check the set-algebra operations against their membership
//! semantics. The small layout (rows 0..3 × columns −2..=2) lies inside the
//! packed window; the straddling layout puts its rows and columns on both
//! sides of `PACKED_ROWS`, `PACKED_COL_LO` and `PACKED_COL_HI`, so every
//! property also runs on matrices and path sets with spilled keys.

use proptest::prelude::*;
use psp_predicate::matrix::{PACKED_COL_HI, PACKED_COL_LO, PACKED_ROWS};
use psp_predicate::{OutcomeMap, PathSet, PredElem, PredicateMatrix};

/// The predicate positions one case ranges over: `rows × cols`.
#[derive(Debug, Clone, Copy)]
struct Keys {
    rows: [u32; 3],
    cols: [i32; 5],
}

const SMALL: Keys = Keys {
    rows: [0, 1, 2],
    cols: [-2, -1, 0, 1, 2],
};

const STRADDLE: Keys = Keys {
    rows: [0, PACKED_ROWS - 1, PACKED_ROWS],
    cols: [
        PACKED_COL_LO - 1,
        PACKED_COL_LO,
        0,
        PACKED_COL_HI,
        PACKED_COL_HI + 1,
    ],
};

/// A matrix as `(row index, column index, outcome)` triples into [`Keys`].
type RawMatrix = Vec<(usize, usize, bool)>;

impl Keys {
    fn matrix(&self, raw: &RawMatrix) -> PredicateMatrix {
        PredicateMatrix::from_entries(raw.iter().map(|&(r, c, v)| (self.rows[r], self.cols[c], v)))
    }

    fn pathset(&self, raws: &[RawMatrix]) -> PathSet {
        PathSet::from_matrices(raws.iter().map(|m| self.matrix(m)))
    }

    fn matrices(&self, raws: &[RawMatrix]) -> Vec<PredicateMatrix> {
        raws.iter().map(|m| self.matrix(m)).collect()
    }

    /// A total assignment: one outcome per key, row-major.
    fn outcomes(&self, bits: &[bool]) -> OutcomeMap {
        let mut o = OutcomeMap::new();
        for (i, &r) in self.rows.iter().enumerate() {
            for (j, &c) in self.cols.iter().enumerate() {
                o.set(r, c, bits[i * self.cols.len() + j]);
            }
        }
        o
    }
}

fn arb_keys() -> impl Strategy<Value = Keys> {
    prop_oneof![Just(SMALL), Just(STRADDLE)]
}

fn arb_matrix() -> impl Strategy<Value = RawMatrix> {
    proptest::collection::vec((0..3usize, 0..5usize, any::<bool>()), 0..6)
}

fn arb_pathset() -> impl Strategy<Value = Vec<RawMatrix>> {
    proptest::collection::vec(arb_matrix(), 0..4)
}

fn arb_outcomes() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 15)
}

/// Enumerate all total outcome assignments over the window restricted to the
/// given support keys (exhaustive model checking on the relevant predicates).
fn outcomes_over(keys: &[(u32, i32)]) -> Vec<OutcomeMap> {
    let n = keys.len();
    assert!(n <= 12, "support too large for exhaustive enumeration");
    (0..(1usize << n))
        .map(|bits| {
            let mut o = OutcomeMap::new();
            for (i, &(r, c)) in keys.iter().enumerate() {
                o.set(r, c, bits & (1 << i) != 0);
            }
            o
        })
        .collect()
}

fn support_of(sets: &[&PathSet]) -> Vec<(u32, i32)> {
    let mut keys: Vec<(u32, i32)> = sets
        .iter()
        .flat_map(|s| s.matrices().iter().flat_map(|m| m.keys()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

proptest! {
    #[test]
    fn conjoin_is_commutative(k in arb_keys(), a in arb_matrix(), b in arb_matrix()) {
        let (a, b) = (k.matrix(&a), k.matrix(&b));
        prop_assert_eq!(a.conjoin(&b), b.conjoin(&a));
    }

    #[test]
    fn conjoin_with_universe_is_identity(k in arb_keys(), a in arb_matrix()) {
        let a = k.matrix(&a);
        prop_assert_eq!(a.conjoin(&PredicateMatrix::universe()), Some(a.clone()));
    }

    #[test]
    fn conjoin_is_associative(k in arb_keys(), a in arb_matrix(), b in arb_matrix(), c in arb_matrix()) {
        let (a, b, c) = (k.matrix(&a), k.matrix(&b), k.matrix(&c));
        let left = a.conjoin(&b).and_then(|ab| ab.conjoin(&c));
        let right = b.conjoin(&c).and_then(|bc| a.conjoin(&bc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn disjoint_iff_conjoin_none(k in arb_keys(), a in arb_matrix(), b in arb_matrix()) {
        let (a, b) = (k.matrix(&a), k.matrix(&b));
        prop_assert_eq!(a.is_disjoint(&b), a.conjoin(&b).is_none());
    }

    #[test]
    fn conjoin_models_intersection(k in arb_keys(), a in arb_matrix(), b in arb_matrix(), o in arb_outcomes()) {
        let (a, b, o) = (k.matrix(&a), k.matrix(&b), k.outcomes(&o));
        let both = a.admits(&o) && b.admits(&o);
        match a.conjoin(&b) {
            Some(c) => prop_assert_eq!(c.admits(&o), both),
            None => prop_assert!(!both),
        }
    }

    #[test]
    fn subsumes_models_superset(k in arb_keys(), a in arb_matrix(), b in arb_matrix(), o in arb_outcomes()) {
        let (a, b, o) = (k.matrix(&a), k.matrix(&b), k.outcomes(&o));
        if a.subsumes(&b) && b.admits(&o) {
            prop_assert!(a.admits(&o));
        }
    }

    #[test]
    fn shift_roundtrip(k in arb_keys(), a in arb_matrix(), d in -3i32..=3) {
        let a = k.matrix(&a);
        prop_assert_eq!(a.shifted(d).shifted(-d), a);
    }

    #[test]
    fn shift_commutes_with_conjoin(k in arb_keys(), a in arb_matrix(), b in arb_matrix(), d in -3i32..=3) {
        let (a, b) = (k.matrix(&a), k.matrix(&b));
        let lhs = a.conjoin(&b).map(|m| m.shifted(d));
        let rhs = a.shifted(d).conjoin(&b.shifted(d));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn split_partitions_the_matrix(k in arb_keys(), a in arb_matrix(), ri in 0..3usize, ci in 0..5usize) {
        let (a, row, col) = (k.matrix(&a), k.rows[ri], k.cols[ci]);
        if let Some((f, t)) = a.split(row, col) {
            prop_assert!(f.is_disjoint(&t));
            prop_assert_eq!(f.get(row, col), PredElem::False);
            prop_assert_eq!(t.get(row, col), PredElem::True);
            // Union of the halves is the original set.
            let u = PathSet::from_matrices([f.clone(), t.clone()]);
            prop_assert!(u.equivalent(&PathSet::from_matrix(a.clone())));
            // unify is the inverse.
            prop_assert_eq!(f.unify(&t), Some(a.clone()));
        } else {
            prop_assert!(a.get(row, col).is_constrained());
        }
    }

    #[test]
    fn pathset_union_models_or(k in arb_keys(), a in arb_pathset(), b in arb_pathset(), o in arb_outcomes()) {
        let (a, b, o) = (k.pathset(&a), k.pathset(&b), k.outcomes(&o));
        let u = a.union(&b);
        prop_assert_eq!(u.admits(&o), a.admits(&o) || b.admits(&o));
    }

    #[test]
    fn pathset_intersect_models_and(k in arb_keys(), a in arb_pathset(), b in arb_pathset(), o in arb_outcomes()) {
        let (a, b, o) = (k.pathset(&a), k.pathset(&b), k.outcomes(&o));
        let i = a.intersect(&b);
        prop_assert_eq!(i.admits(&o), a.admits(&o) && b.admits(&o));
    }

    #[test]
    fn pathset_subtract_models_and_not(k in arb_keys(), a in arb_pathset(), b in arb_pathset(), o in arb_outcomes()) {
        let (a, b, o) = (k.pathset(&a), k.pathset(&b), k.outcomes(&o));
        let d = a.subtract(&b);
        prop_assert_eq!(d.admits(&o), a.admits(&o) && !b.admits(&o));
    }

    #[test]
    fn pathset_complement_models_not(k in arb_keys(), a in arb_pathset(), o in arb_outcomes()) {
        let (a, o) = (k.pathset(&a), k.outcomes(&o));
        prop_assert_eq!(a.complement().admits(&o), !a.admits(&o));
    }

    #[test]
    fn pathset_subsumes_exhaustive(k in arb_keys(), a in arb_pathset(), b in arb_pathset()) {
        let (a, b) = (k.pathset(&a), k.pathset(&b));
        let keys = support_of(&[&a, &b]);
        if keys.len() <= 10 {
            let model = outcomes_over(&keys)
                .iter()
                .all(|o| !b.admits(o) || a.admits(o));
            prop_assert_eq!(a.subsumes(&b), model);
        }
    }

    #[test]
    fn disjointify_is_disjoint_and_equal(k in arb_keys(), a in arb_pathset()) {
        let a = k.pathset(&a);
        let d = a.disjointify();
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                prop_assert!(d[i].is_disjoint(&d[j]));
            }
        }
        let rebuilt = PathSet::from_matrices(d);
        prop_assert!(rebuilt.equivalent(&a));
    }

    #[test]
    fn probability_is_a_measure(k in arb_keys(), a in arb_pathset(), b in arb_pathset(), p in 0.0f64..=1.0) {
        let (a, b) = (k.pathset(&a), k.pathset(&b));
        let pa = a.probability(|_, _| p);
        let pb = b.probability(|_, _| p);
        let pu = a.union(&b).probability(|_, _| p);
        let pi = a.intersect(&b).probability(|_, _| p);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&pa));
        // Inclusion–exclusion.
        prop_assert!((pu + pi - (pa + pb)).abs() < 1e-9);
    }

    #[test]
    fn probability_matches_exhaustive_count_at_half(k in arb_keys(), a in arb_pathset()) {
        let a = k.pathset(&a);
        let keys = support_of(&[&a]);
        if keys.len() <= 10 {
            let outs = outcomes_over(&keys);
            let frac = outs.iter().filter(|o| a.admits(o)).count() as f64 / outs.len() as f64;
            prop_assert!((a.probability(|_, _| 0.5) - frac).abs() < 1e-9);
        }
    }

    #[test]
    fn normalization_preserves_semantics(k in arb_keys(), ms in arb_pathset(), o in arb_outcomes()) {
        let (ms, o) = (k.matrices(&ms), k.outcomes(&o));
        let s = PathSet::from_matrices(ms.clone());
        let raw = ms.iter().any(|m| m.admits(&o));
        prop_assert_eq!(s.admits(&o), raw);
    }
}
