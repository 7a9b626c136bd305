//! Independent validation of a fixed-II [`ModuloSchedule`].
//!
//! `ModuloSchedule::verify` checks the schedule against the edge list the
//! *scheduler* built — if the edge builder is wrong, both agree and the bug
//! passes. This module re-derives the complete dependence system from the
//! operation list alone (first-principles loops, its own induction-stride
//! scan, sparse predicate matrices) and re-checks every constraint
//! `t[to] + II·dist ≥ t[from] + lat`, the modulo resource table, and the
//! container invariants.
//!
//! The re-derived system deliberately mirrors the documented semantics of
//! [`psp_opt::all_edges`] — no stronger, no weaker — so a schedule that
//! validates here is executable and a rejection is a real defect, not a
//! modeling mismatch.

use crate::violation::{CycleSite, Violation};
use psp_ir::{
    analysis::{mem_access, AccessKind},
    AluOp, OpKind, Operand, Operation, Reg, RegRef, ResClass,
};
use psp_machine::MachineConfig;
use psp_opt::ModuloSchedule;
use psp_predicate::{PredicateMatrix, SparseMatrix};
use std::collections::BTreeMap;

/// A re-derived dependence edge.
struct Edge {
    from: usize,
    to: usize,
    lat: u32,
    dist: u32,
    kind: &'static str,
}

/// Validate a modulo schedule against the machine.
///
/// `live_out` must be the live-out set of the if-converted spec the
/// schedule was built from (the `ModuloSchedule` itself does not carry it).
pub fn validate_modulo(
    live_out: &[RegRef],
    machine: &MachineConfig,
    sched: &ModuloSchedule,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = sched.ops.len();
    if sched.ii == 0 {
        out.push(Violation::Contract {
            detail: "II is zero".into(),
        });
        return out;
    }
    if sched.time.len() != n {
        out.push(Violation::Contract {
            detail: format!("{} ops but {} issue times", n, sched.time.len()),
        });
        return out;
    }
    let want_stages = sched
        .time
        .iter()
        .map(|&t| t as u32 / sched.ii)
        .max()
        .unwrap_or(0)
        + 1;
    if sched.stages != want_stages {
        out.push(Violation::Contract {
            detail: format!(
                "stage count {} inconsistent with times (expect {want_stages})",
                sched.stages
            ),
        });
    }

    for e in derive_edges(&sched.ops, live_out, machine) {
        let lhs = sched.time[e.to] as i64 + (sched.ii as i64) * e.dist as i64;
        let rhs = sched.time[e.from] as i64 + e.lat as i64;
        if lhs < rhs {
            out.push(Violation::ModuloEdge {
                kind: e.kind,
                dist: e.dist,
                detail: format!(
                    "{} (t={}) -> {} (t={}), lat {}: {} < {}",
                    sched.ops[e.from].0,
                    sched.time[e.from],
                    sched.ops[e.to].0,
                    sched.time[e.to],
                    e.lat,
                    lhs,
                    rhs
                ),
            });
        }
    }

    // Modulo resource table: all stages overlap, so every op occupies its
    // `time mod II` slot each initiation.
    for class in [ResClass::Alu, ResClass::Mem, ResClass::Branch] {
        let limit = machine.limit(class) as usize;
        let mut counts = vec![0usize; sched.ii as usize];
        for (i, &t) in sched.time.iter().enumerate() {
            if sched.ops[i].0.res_class() == class {
                counts[t % sched.ii as usize] += 1;
            }
        }
        for (slot, &used) in counts.iter().enumerate() {
            if used > limit {
                out.push(Violation::Resource {
                    site: CycleSite::Slot(slot),
                    class: match class {
                        ResClass::Alu => "ALU",
                        ResClass::Mem => "MEM",
                        ResClass::Branch => "BRANCH",
                    },
                    used,
                    limit: limit as u32,
                });
            }
        }
    }
    out
}

/// Unit-induction strides: registers with exactly one (unguarded,
/// universe-path) definition of the form `r = r ± imm`.
fn strides(ops: &[(Operation, PredicateMatrix)]) -> BTreeMap<Reg, i64> {
    let mut def_count: BTreeMap<Reg, usize> = BTreeMap::new();
    for (op, _) in ops {
        for d in op.defs() {
            if let RegRef::Gpr(r) = d {
                *def_count.entry(r).or_insert(0) += 1;
            }
        }
    }
    let mut out = BTreeMap::new();
    for (op, ctrl) in ops {
        if op.guard.is_some() || !ctrl.is_universe() {
            continue;
        }
        if let OpKind::Alu { op: alu, dst, a, b } = op.kind {
            if def_count.get(&dst) != Some(&1) {
                continue;
            }
            let s = match (alu, a, b) {
                (AluOp::Add, Operand::Reg(x), Operand::Imm(c)) if x == dst => Some(c),
                (AluOp::Add, Operand::Imm(c), Operand::Reg(x)) if x == dst => Some(c),
                (AluOp::Sub, Operand::Reg(x), Operand::Imm(c)) if x == dst => Some(-c),
                _ => None,
            };
            if let Some(s) = s {
                out.insert(dst, s);
            }
        }
    }
    out
}

fn is_observable(op: &Operation, live_out: &[RegRef]) -> bool {
    op.is_store() || op.defs().iter().any(|d| live_out.contains(d))
}

fn mem_lat(a: AccessKind, b: AccessKind) -> Option<u32> {
    match (a, b) {
        (AccessKind::Write, AccessKind::Read) => Some(1),
        (AccessKind::Read, AccessKind::Write) => Some(0),
        (AccessKind::Write, AccessKind::Write) => Some(1),
        (AccessKind::Read, AccessKind::Read) => None,
    }
}

/// Re-derive the full modulo constraint system.
///
/// Intra-iteration (program order `i < j`, skipped entirely for
/// disjoint-path pairs): flow at producer latency, anti at 0, output at 1,
/// memory by kind with stride-pruned aliasing, BREAK protocol
/// (observable→break 0, break→observable 1, break→break 0). Cross-iteration
/// (distance 1, *no* path pruning — different iterations re-roll their
/// predicates): flow only into uses at positions `j ≤ i`, anti/output over
/// all pairs, memory at iteration distance 1, break→(observable|break) at
/// latency 1, observable→break at latency 0.
fn derive_edges(
    ops: &[(Operation, PredicateMatrix)],
    live_out: &[RegRef],
    machine: &MachineConfig,
) -> Vec<Edge> {
    let sparse: Vec<SparseMatrix> = ops.iter().map(|(_, m)| SparseMatrix::from(m)).collect();
    let st = strides(ops);
    let stride_of = |r: Reg| st.get(&r).copied();
    let mut edges = Vec::new();
    let mut push = |from: usize, to: usize, lat: u32, dist: u32, kind: &'static str| {
        edges.push(Edge {
            from,
            to,
            lat,
            dist,
            kind,
        })
    };

    for j in 0..ops.len() {
        let (opj, _) = &ops[j];
        for i in 0..j {
            let (opi, _) = &ops[i];
            if sparse[i].is_disjoint(&sparse[j]) {
                continue;
            }
            if opi.defs().iter().any(|d| opj.uses().contains(d)) {
                push(i, j, machine.latency(opi), 0, "flow");
            }
            if opi.uses().iter().any(|u| opj.defs().contains(u)) {
                push(i, j, 0, 0, "anti");
            }
            if opi.defs().iter().any(|d| opj.defs().contains(d)) {
                push(i, j, 1, 0, "output");
            }
            if let (Some(ai), Some(aj)) = (mem_access(opi), mem_access(opj)) {
                if ai.interferes(&aj) && ai.may_alias(&aj, 0, stride_of) {
                    if let Some(lat) = mem_lat(ai.kind, aj.kind) {
                        push(i, j, lat, 0, "memory");
                    }
                }
            }
            match (opi.is_break(), opj.is_break()) {
                (false, true) if is_observable(opi, live_out) => push(i, j, 0, 0, "break"),
                (true, false) if is_observable(opj, live_out) => push(i, j, 1, 0, "break"),
                (true, true) => push(i, j, 0, 0, "break"),
                _ => {}
            }
        }
    }

    for i in 0..ops.len() {
        for j in 0..ops.len() {
            let (a, _) = &ops[i];
            let (b, _) = &ops[j];
            if j <= i && a.defs().iter().any(|d| b.uses().contains(d)) {
                push(i, j, machine.latency(a), 1, "flow");
            }
            if a.uses().iter().any(|u| b.defs().contains(u)) {
                push(i, j, 0, 1, "anti");
            }
            if a.defs().iter().any(|d| b.defs().contains(d)) {
                push(i, j, 1, 1, "output");
            }
            if let (Some(ma), Some(mb)) = (mem_access(a), mem_access(b)) {
                if ma.interferes(&mb) && ma.may_alias(&mb, 1, stride_of) {
                    if let Some(lat) = mem_lat(ma.kind, mb.kind) {
                        push(i, j, lat, 1, "memory");
                    }
                }
            }
            if a.is_break() && (is_observable(b, live_out) || b.is_break()) {
                push(i, j, 1, 1, "break");
            }
            if is_observable(a, live_out) && b.is_break() {
                push(i, j, 0, 1, "break");
            }
        }
    }
    edges
}
