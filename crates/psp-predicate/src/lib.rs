//! Predicate matrices and path-set algebra for Predicated Software Pipelining.
//!
//! This crate implements the formal core of Milicev & Jovanovic's PSP
//! framework (IPPS 1998): execution paths through a loop with conditional
//! branches are represented by *predicate matrices*. A matrix has one row per
//! IF operation of the original loop body and one (conceptually infinite)
//! column per iteration, indexed relative to the *current* transformed
//! iteration (column `0` = current, `-1` = previous, `+1` = next). Each
//! element is one of `1` (the IF took its True outcome), `0` (False), or `b`
//! ("both" — the path set is unconstrained at that predicate).
//!
//! A single matrix denotes the (infinite) set of all concrete execution
//! paths consistent with its constrained elements; the default element is
//! `b`, so the empty matrix denotes *all* paths. Unions of such sets — needed
//! for *actual* path sets of speculatively scheduled operations — are
//! represented by [`PathSet`], a finite union of matrices.
//!
//! The crate provides the set operations the scheduler and code generator
//! rely on:
//!
//! * [`PredicateMatrix::conjoin`] — intersection of two path sets (or `None`
//!   when they are *disjoined*, i.e. contain complementary elements);
//! * [`PredicateMatrix::is_disjoint`] — the test that exempts operation
//!   pairs from dependence analysis;
//! * [`PredicateMatrix::subsumes`] — the superset relation used to link
//!   loop-back edges during code generation;
//! * [`PredicateMatrix::shifted`] — column shift applied when an operation
//!   instance moves across the loop boundary;
//! * [`PredicateMatrix::split`] — the elementary *split* transformation on
//!   one `b` element;
//! * [`PathSet`] union/intersection/complement/subtraction with
//!   normalization (subsumption pruning and complementary-pair merging);
//! * [`IfLog`] — the auxiliary structure tracing where IF instances are
//!   scheduled, which links predicates to the operations that compute them.
//!
//! Matrices are packed bitplanes: set algebra as word ops over a fixed
//! row/column window, with a sparse spill outside it. See [`matrix`] for
//! the layout, [`sparse`] for the independent `BTreeMap` reference the
//! validators and differential tests use, [`intern`] for hash-consing +
//! memoized pairwise queries, and [`stats`] for the global predicate-op
//! counters surfaced in the driver's `PspStats`.

pub mod elem;
pub mod iflog;
pub mod intern;
pub mod matrix;
pub mod outcome;
pub mod pathset;
pub mod sparse;
pub mod stats;

pub use elem::PredElem;
pub use iflog::{IfLog, IfLogEntry, PredAvailability};
pub use intern::{MatrixId, PathSetId, PredInterner};
pub use matrix::{PredKey, PredicateMatrix};
pub use outcome::OutcomeMap;
pub use pathset::PathSet;
pub use sparse::SparseMatrix;
pub use stats::PredOpStats;
