//! Packed `PredicateMatrix` vs the `SparseMatrix` reference, op by op.
//!
//! Every operation of the packed algebra must agree with the independent
//! `BTreeMap` reference on the same entries, including the entry order
//! that `Ord` (and so `PathSet` normalization) rests on. Key ranges
//! deliberately straddle the packed window so the spill path is exercised
//! alongside the word-op fast paths.

use proptest::prelude::*;
use psp_predicate::matrix::{PACKED_COL_HI, PACKED_COL_LO, PACKED_ROWS};
use psp_predicate::{PathSet, PredElem, PredicateMatrix, SparseMatrix};

type Entries = Vec<(u32, i32, bool)>;

/// Entry keys straddling the packed window: rows up to `PACKED_ROWS + 2`,
/// columns past both window edges.
fn arb_entries() -> impl Strategy<Value = Entries> {
    proptest::collection::vec(
        (
            0..PACKED_ROWS + 3,
            PACKED_COL_LO - 4..PACKED_COL_HI + 5,
            any::<bool>(),
        ),
        0..8,
    )
}

/// In-window-only entries (the pure word-op path).
fn arb_entries_inwindow() -> impl Strategy<Value = Entries> {
    proptest::collection::vec(
        (
            0..PACKED_ROWS,
            PACKED_COL_LO..PACKED_COL_HI + 1,
            any::<bool>(),
        ),
        0..8,
    )
}

fn both(e: &Entries) -> (PredicateMatrix, SparseMatrix) {
    (
        PredicateMatrix::from_entries(e.iter().copied()),
        SparseMatrix::from_entries(e.iter().copied()),
    )
}

/// The packed matrix holds exactly the reference's entries, in order.
fn assert_matches(p: &PredicateMatrix, s: &SparseMatrix) {
    assert_eq!(&SparseMatrix::from(p), s);
    assert_eq!(p.constrained_len(), s.constrained().count());
    assert_eq!(p.is_universe(), s.constrained().next().is_none());
}

/// Reference `unify`: same keys, exactly one complementary position.
fn sparse_unify(a: &SparseMatrix, b: &SparseMatrix) -> Option<SparseMatrix> {
    let (ea, eb): (Entries, Entries) = (a.constrained().collect(), b.constrained().collect());
    if ea.len() != eb.len() || ea.iter().zip(&eb).any(|(x, y)| (x.0, x.1) != (y.0, y.1)) {
        return None;
    }
    let diff: Vec<_> = ea.iter().zip(&eb).filter(|(x, y)| x.2 != y.2).collect();
    if diff.len() != 1 {
        return None;
    }
    let at = (diff[0].0 .0, diff[0].0 .1);
    Some(SparseMatrix::from_entries(
        ea.into_iter().filter(|&(r, c, _)| (r, c) != at),
    ))
}

proptest! {
    #[test]
    fn construction_matches_reference(e in arb_entries()) {
        let (p, s) = both(&e);
        assert_matches(&p, &s);
        for &(r, c, _) in &e {
            let want = s.constrained().find(|&(sr, sc, _)| (sr, sc) == (r, c)).map(|x| x.2);
            prop_assert_eq!(p.get(r, c).as_bool(), want);
        }
    }

    #[test]
    fn binary_ops_match_reference(ea in arb_entries(), eb in arb_entries()) {
        let (pa, sa) = both(&ea);
        let (pb, sb) = both(&eb);
        prop_assert_eq!(pa.is_disjoint(&pb), sa.is_disjoint(&sb));
        prop_assert_eq!(pa.subsumes(&pb), sa.subsumes(&sb));
        prop_assert_eq!(pb.subsumes(&pa), sb.subsumes(&sa));
        prop_assert_eq!(pa.unify(&pb).map(|m| SparseMatrix::from(&m)), sparse_unify(&sa, &sb));
        match (pa.conjoin(&pb), sa.conjoin(&sb)) {
            (Some(pc), Some(sc)) => assert_matches(&pc, &sc),
            (None, None) => {}
            (pc, sc) => prop_assert!(false, "conjoin diverged: {:?} vs {:?}", pc, sc),
        }
        // Equality and ordering follow the entry sequence — PathSet
        // normalization sorts by it.
        prop_assert_eq!(pa == pb, sa == sb);
        let seq = |s: &SparseMatrix| s.constrained().map(|(r, c, v)| ((r, c), v)).collect::<Vec<_>>();
        prop_assert_eq!(pa.cmp(&pb), seq(&sa).cmp(&seq(&sb)));
    }

    #[test]
    fn cached_queries_match_reference(ea in arb_entries(), eb in arb_entries()) {
        let (pa, sa) = both(&ea);
        let (pb, sb) = both(&eb);
        prop_assert_eq!(psp_predicate::intern::cached_disjoint(&pa, &pb), sa.is_disjoint(&sb));
        prop_assert_eq!(psp_predicate::intern::cached_subsumes(&pa, &pb), sa.subsumes(&sb));
    }

    #[test]
    fn shift_matches_reference(e in arb_entries(), d in -20i32..=20) {
        let (p, s) = both(&e);
        let want = SparseMatrix::from_entries(s.constrained().map(|(r, c, v)| (r, c + d, v)));
        assert_matches(&p.shifted(d), &want);
        assert_matches(&p.shifted(d).shifted(-d), &s);
    }

    #[test]
    fn lane_shift_matches_reference(e in arb_entries_inwindow(), d in -3i32..=3) {
        // The lane-shift fast path against the reference rebuild.
        let (p, s) = both(&e);
        let want = SparseMatrix::from_entries(s.constrained().map(|(r, c, v)| (r, c + d, v)));
        assert_matches(&p.shifted(d), &want);
    }

    #[test]
    fn split_matches_reference(e in arb_entries(), r in 0..PACKED_ROWS + 3, c in -10i32..=10) {
        let (p, s) = both(&e);
        let constrained = s.constrained().any(|(sr, sc, _)| (sr, sc) == (r, c));
        match p.split(r, c) {
            Some((pf, pt)) => {
                prop_assert!(!constrained);
                let half = |v| SparseMatrix::from_entries(s.constrained().chain([(r, c, v)]));
                assert_matches(&pf, &half(false));
                assert_matches(&pt, &half(true));
                prop_assert_eq!(pf.unify(&pt), Some(p.clone()));
            }
            None => prop_assert!(constrained, "split refused a `b` element"),
        }
    }

    #[test]
    fn with_matches_reference(e in arb_entries(), r in 0..PACKED_ROWS + 3, c in -10i32..=10, v in any::<bool>()) {
        let (p, s) = both(&e);
        let set = SparseMatrix::from_entries(s.constrained().chain([(r, c, v)]));
        assert_matches(&p.with(r, c, PredElem::from_bool(v)), &set);
        let cleared = SparseMatrix::from_entries(s.constrained().filter(|&(sr, sc, _)| (sr, sc) != (r, c)));
        assert_matches(&p.with(r, c, PredElem::Both), &cleared);
    }
}

#[test]
fn window_edges_spill_exactly_outside() {
    let inside = vec![
        (0u32, PACKED_COL_LO, true),
        (0, PACKED_COL_HI, false),
        (PACKED_ROWS - 1, 0, true),
    ];
    let (p, s) = both(&inside);
    assert!(p.is_word_packed(), "window-edge keys must not spill");
    assert_matches(&p, &s);

    let outside = vec![
        (0u32, PACKED_COL_LO - 1, true),
        (0, PACKED_COL_HI + 1, false),
        (PACKED_ROWS, 0, true),
    ];
    let (p, s) = both(&outside);
    assert!(!p.is_word_packed(), "out-of-window keys must spill");
    assert_matches(&p, &s);
}

#[test]
fn subtract_over_a_spilled_key() {
    // The staircase decomposition drives subtract/disjointify/covers; pin
    // one overlapping case with one spilled key.
    let a = PredicateMatrix::from_entries([(0, 0, true), (1, PACKED_COL_HI + 2, true)]);
    let b = PredicateMatrix::from_entries([(0, 0, true), (2, 0, false)]);
    let d = PathSet::from_matrix(a).subtract(&PathSet::from_matrix(b));
    assert_eq!(d.len(), 1);
    assert_eq!(
        d.matrices()[0],
        PredicateMatrix::from_entries([(0, 0, true), (1, PACKED_COL_HI + 2, true), (2, 0, true)])
    );
}
