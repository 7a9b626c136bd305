//! Independent validation of a PSP [`Schedule`].
//!
//! The scheduler proves each elementary transformation legal *as it makes
//! the move* ([`psp_core::deps`]); this module instead re-derives, from the
//! final schedule alone, the facts that must hold if every move was legal:
//!
//! * every flattened source operation survives as at least one instance,
//!   its clones sit on pairwise-disjoint paths, and together they still
//!   cover every path the original executed on;
//! * within one iteration frame, naive sequential register semantics hold
//!   (reads after their reaching definition plus latency, writes after
//!   reads, writes in order) — the transformations that legitimately break
//!   the naive rules (induction combining) are recognized syntactically,
//!   exactly the way the scheduler recognizes them, and skipped;
//! * memory accesses and the BREAK protocol are checked across frames with
//!   the pass-time model: an instance with iteration index `i` executes
//!   the work of original iteration `j` during pass `j - i`, so for one
//!   original iteration a *larger* index means *earlier* execution;
//! * an instance constrained on a predicate its row cannot yet know is
//!   speculative and must be a speculable operation;
//! * each row's same-class instances that can co-execute (pairwise
//!   non-disjoint paths) must fit the machine's issue width.
//!
//! Everything is computed on freshly built [`SparseMatrix`] references, so
//! the bit-packed algebra and its interner — used by the scheduler — are
//! out of the trusted base.

use crate::violation::{CycleSite, Violation};
use psp_core::Schedule;
use psp_ir::{
    analysis::{mem_access, AccessKind, MemAccess},
    flatten, AluOp, LoopSpec, OpKind, Operand, Operation, Reg, RegRef, ResClass,
};
use psp_machine::MachineConfig;
use psp_predicate::{OutcomeMap, PredicateMatrix, SparseMatrix};

/// One schedule instance with its freshly rebuilt sparse matrices.
struct Inst<'a> {
    row: usize,
    inner: &'a psp_core::Instance,
    /// Formal path set, current-pass coordinates.
    formal: SparseMatrix,
    /// Formal path set shifted to original-iteration coordinates
    /// (column 0 = the instance's own iteration).
    iter: SparseMatrix,
}

impl Inst<'_> {
    fn prog(&self) -> (usize, u16) {
        (self.inner.origin, self.inner.late)
    }
    /// Same-original-iteration execution order: pass `j - index`, then row.
    fn executes_strictly_before(&self, other: &Inst) -> bool {
        self.inner.index > other.inner.index
            || (self.inner.index == other.inner.index && self.row < other.row)
    }
    fn describe(&self) -> String {
        format!("row {}: {}", self.row, self.inner)
    }
}

/// Validate a schedule against its source spec and machine.
pub fn validate_schedule(
    spec: &LoopSpec,
    machine: &MachineConfig,
    sched: &Schedule,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let insts: Vec<Inst> = sched
        .rows
        .iter()
        .enumerate()
        .flat_map(|(row, r)| r.iter().map(move |inner| (row, inner)))
        .map(|(row, inner)| Inst {
            row,
            inner,
            formal: sparse_shift(&inner.formal, 0),
            iter: sparse_shift(&inner.formal, -inner.index),
        })
        .collect();

    origins(spec, &insts, &mut out);
    register_order(machine, &insts, &mut out);
    memory_and_breaks(spec, &insts, &mut out);
    speculation(machine, &insts, &mut out);
    row_resources(machine, sched, &insts, &mut out);
    out
}

/// Rebuild a matrix as a sparse reference, shifting columns by `delta`.
fn sparse_shift(m: &PredicateMatrix, delta: i32) -> SparseMatrix {
    SparseMatrix::from_entries(m.constrained().map(|(r, c, v)| (r, c + delta, v)))
}

// --- source coverage ---------------------------------------------------

fn origins(spec: &LoopSpec, insts: &[Inst], out: &mut Vec<Violation>) {
    let flat = flatten(spec);
    for (o, f) in flat.iter().enumerate() {
        let mine: Vec<&Inst> = insts.iter().filter(|i| i.inner.origin == o).collect();
        // Movement fixes leave behind fresh COPY instances at the mover's
        // origin; everything else must keep the original operation kind.
        let real: Vec<&&Inst> = mine
            .iter()
            .filter(|i| {
                std::mem::discriminant(&i.inner.op.kind) == std::mem::discriminant(&f.op.kind)
            })
            .collect();
        for i in &mine {
            let is_fix_copy = matches!(i.inner.op.kind, OpKind::Copy { .. })
                && !matches!(f.op.kind, OpKind::Copy { .. });
            let is_real =
                std::mem::discriminant(&i.inner.op.kind) == std::mem::discriminant(&f.op.kind);
            if !is_fix_copy && !is_real {
                out.push(Violation::Contract {
                    detail: format!(
                        "origin {o} ({}) has an instance of foreign kind: {}",
                        f.op,
                        i.describe()
                    ),
                });
            }
        }
        if real.is_empty() {
            out.push(Violation::DroppedOp {
                origin: o,
                detail: f.op.to_string(),
            });
            continue;
        }
        for (ai, a) in real.iter().enumerate() {
            for b in real.iter().skip(ai + 1) {
                if !a.iter.is_disjoint(&b.iter) {
                    out.push(Violation::DoubleExecution {
                        origin: o,
                        detail: format!("{} and {}", a.describe(), b.describe()),
                    });
                }
            }
        }
        coverage(o, &f.ctrl, &real, out);
        if let Some(pr) = f.computes_if {
            for i in &real {
                if i.inner.computes_if != Some(pr) {
                    out.push(Violation::IfLogMismatch {
                        detail: format!(
                            "origin {o} computes predicate row {pr} but instance records {:?}: {}",
                            i.inner.computes_if,
                            i.describe()
                        ),
                    });
                }
                if i.inner.op.kind != f.op.kind {
                    out.push(Violation::IfLogMismatch {
                        detail: format!(
                            "IF of origin {o} changed condition: source {} vs {}",
                            f.op,
                            i.describe()
                        ),
                    });
                }
            }
        }
    }
}

/// Exhaustively check that the union of `real` path sets covers `ctrl`.
/// Capped at 12 free predicates (4096 concrete paths); larger origins are
/// skipped — the validator is naive by design, not complete.
fn coverage(o: usize, ctrl: &PredicateMatrix, real: &[&&Inst], out: &mut Vec<Violation>) {
    let ctrl = SparseMatrix::from(ctrl);
    let mut keys: Vec<(u32, i32)> = Vec::new();
    let add = |m: &SparseMatrix, keys: &mut Vec<(u32, i32)>| {
        for (r, c, _) in m.constrained() {
            if !keys.contains(&(r, c)) {
                keys.push((r, c));
            }
        }
    };
    add(&ctrl, &mut keys);
    for i in real {
        add(&i.iter, &mut keys);
    }
    if keys.len() > 12 {
        return;
    }
    for bits in 0u32..(1 << keys.len()) {
        let mut om = OutcomeMap::new();
        for (j, &(r, c)) in keys.iter().enumerate() {
            om.set(r, c, bits & (1 << j) != 0);
        }
        if ctrl.admits(&om) && !real.iter().any(|i| i.iter.admits(&om)) {
            out.push(Violation::Coverage {
                origin: o,
                detail: om
                    .iter()
                    .map(|(r, c, v)| format!("({r},{c})={}", v as u8))
                    .collect::<Vec<_>>()
                    .join(" "),
            });
            return;
        }
    }
}

// --- register semantics within one frame -------------------------------

/// `r = r + imm` / `r = imm + r` / `r = r - imm`: the update form the
/// scheduler's displacement combining recognizes.
fn is_induction_update(op: &Operation, r: Reg) -> bool {
    match op.kind {
        OpKind::Alu {
            op: AluOp::Add,
            dst,
            a,
            b,
        } => {
            dst == r
                && ((a == Operand::Reg(r) && matches!(b, Operand::Imm(_)))
                    || (matches!(a, Operand::Imm(_)) && b == Operand::Reg(r)))
        }
        OpKind::Alu {
            op: AluOp::Sub,
            dst,
            a,
            b,
        } => dst == r && a == Operand::Reg(r) && matches!(b, Operand::Imm(_)),
        _ => false,
    }
}

/// Whether `op` uses `r` exclusively as a memory address index — the
/// consumer side of displacement combining.
fn uses_only_as_index(op: &Operation, r: Reg) -> bool {
    match op.kind {
        OpKind::Load { dst, addr } => addr.index == Some(r) && dst != r,
        OpKind::Store { src, addr } => addr.index == Some(r) && src != Operand::Reg(r),
        _ => false,
    }
}

fn register_order(machine: &MachineConfig, insts: &[Inst], out: &mut Vec<Violation>) {
    for (ai, a) in insts.iter().enumerate() {
        for (bi, b) in insts.iter().enumerate() {
            if ai == bi || a.inner.index != b.inner.index || a.prog() >= b.prog() {
                continue;
            }
            // a is program-earlier than b within the same frame.
            if a.iter.is_disjoint(&b.iter) {
                continue;
            }
            let (a_defs, a_uses) = (a.inner.op.defs(), a.inner.op.uses());
            let (b_defs, b_uses) = (b.inner.op.defs(), b.inner.op.uses());
            for d in &a_defs {
                if b_uses.contains(d) {
                    let exempt = matches!(d, RegRef::Gpr(r)
                        if is_induction_update(&a.inner.op, *r)
                            && uses_only_as_index(&b.inner.op, *r));
                    let lat = machine.latency(&a.inner.op) as usize;
                    if !exempt && !shadowed(insts, a, b, d) && b.row < a.row + lat {
                        out.push(Violation::RegisterOrder {
                            kind: "flow",
                            reg: *d,
                            index: a.inner.index,
                            early_row: a.row,
                            late_row: b.row,
                            detail: format!("{} feeds {}", a.describe(), b.describe()),
                        });
                    }
                }
                if b_defs.contains(d) && b.row <= a.row {
                    out.push(Violation::RegisterOrder {
                        kind: "output",
                        reg: *d,
                        index: a.inner.index,
                        early_row: a.row,
                        late_row: b.row,
                        detail: format!("{} then {}", a.describe(), b.describe()),
                    });
                }
            }
            for u in &a_uses {
                if b_defs.contains(u) {
                    let exempt = matches!(u, RegRef::Gpr(r)
                        if is_induction_update(&b.inner.op, *r)
                            && uses_only_as_index(&a.inner.op, *r));
                    if !exempt && b.row < a.row {
                        out.push(Violation::RegisterOrder {
                            kind: "anti",
                            reg: *u,
                            index: a.inner.index,
                            early_row: a.row,
                            late_row: b.row,
                            detail: format!("{} read before {}", a.describe(), b.describe()),
                        });
                    }
                }
            }
        }
    }
}

/// Whether some definition of `d` between `a` and `b` (program order, same
/// frame) shadows `a`'s value on every path `a` and `b` share — then the
/// `a -> b` flow is not live and transitivity covers the ordering.
fn shadowed(insts: &[Inst], a: &Inst, b: &Inst, d: &RegRef) -> bool {
    let Some(cond) = a.iter.conjoin(&b.iter) else {
        return true; // disjoint: nothing to check
    };
    insts.iter().any(|w| {
        w.inner.index == a.inner.index
            && w.prog() > a.prog()
            && w.prog() < b.prog()
            && w.inner.op.defs().contains(d)
            && w.iter.subsumes(&cond)
    })
}

// --- memory and the BREAK protocol (cross-frame) -----------------------

/// The alias predicate the scheduler itself uses: conservative under both
/// an unknown and a zero stride, at the pass distance of the two frames.
fn aliases(a: &Inst, ma: &MemAccess, b: &Inst, mb: &MemAccess) -> bool {
    let delta = (a.inner.index - b.inner.index) as i64;
    ma.may_alias(mb, delta, |_| None) || ma.may_alias(mb, delta, |_| Some(0))
}

fn memory_and_breaks(spec: &LoopSpec, insts: &[Inst], out: &mut Vec<Violation>) {
    let observable = |i: &Inst| {
        i.inner.op.is_store() || i.inner.op.defs().iter().any(|d| spec.live_out.contains(d))
    };
    for (ai, a) in insts.iter().enumerate() {
        for (bi, b) in insts.iter().enumerate() {
            if ai == bi || a.prog() >= b.prog() {
                continue;
            }
            // a is program-earlier within one original iteration; the pair
            // is relevant only on shared paths of that iteration.
            if a.iter.is_disjoint(&b.iter) {
                continue;
            }
            if let (Some(ma), Some(mb)) = (mem_access(&a.inner.op), mem_access(&b.inner.op)) {
                if ma.interferes(&mb) && aliases(a, &ma, b, &mb) {
                    match (ma.kind, mb.kind) {
                        (AccessKind::Write, AccessKind::Read) => {
                            if !a.executes_strictly_before(b) {
                                out.push(Violation::MemoryOrder {
                                    kind: "W->R",
                                    detail: format!("{} vs {}", a.describe(), b.describe()),
                                });
                            }
                        }
                        (AccessKind::Read, AccessKind::Write) => {
                            if b.executes_strictly_before(a) {
                                out.push(Violation::MemoryOrder {
                                    kind: "R->W",
                                    detail: format!("{} vs {}", a.describe(), b.describe()),
                                });
                            }
                        }
                        (AccessKind::Write, AccessKind::Write) => {
                            if !a.executes_strictly_before(b) {
                                out.push(Violation::MemoryOrder {
                                    kind: "W->W",
                                    detail: format!("{} vs {}", a.describe(), b.describe()),
                                });
                            }
                        }
                        (AccessKind::Read, AccessKind::Read) => {}
                    }
                }
            }
            let (a_brk, b_brk) = (a.inner.op.is_break(), b.inner.op.is_break());
            if a_brk && observable(b) {
                // An observable program-after a BREAK must execute strictly
                // after the BREAK resolves (paper: no exit compensation).
                if !a.executes_strictly_before(b) {
                    out.push(Violation::BreakProtocol {
                        rule: "observable-below-break",
                        detail: format!("{} vs {}", a.describe(), b.describe()),
                    });
                }
            }
            if b_brk && observable(a) && !a_brk {
                // A BREAK may not pass a program-earlier observable.
                if b.executes_strictly_before(a) {
                    out.push(Violation::BreakProtocol {
                        rule: "break-after-observable",
                        detail: format!("{} vs {}", a.describe(), b.describe()),
                    });
                }
            }
            if a_brk && b_brk && b.executes_strictly_before(a) {
                out.push(Violation::BreakProtocol {
                    rule: "break-order",
                    detail: format!("{} vs {}", a.describe(), b.describe()),
                });
            }
        }
    }
}

// --- speculation and predicate availability ----------------------------

fn speculation(machine: &MachineConfig, insts: &[Inst], out: &mut Vec<Violation>) {
    // Our own IF log: every IF instance computing predicate row `pr` at
    // iteration index `idx`, scheduled in row `row`.
    struct Entry<'m> {
        idx: i32,
        row: usize,
        formal: &'m SparseMatrix,
    }
    let mut log: Vec<(u32, Entry)> = Vec::new();
    for i in insts {
        if let Some(pr) = i.inner.computes_if {
            log.push((
                pr,
                Entry {
                    idx: i.inner.index,
                    row: i.row,
                    formal: &i.formal,
                },
            ));
        }
    }
    for x in insts {
        for (pr, pc, _v) in x.formal.constrained() {
            let entries: Vec<&Entry> = log
                .iter()
                .filter(|(r, _)| *r == pr)
                .map(|(_, e)| e)
                .collect();
            if entries.is_empty() {
                out.push(Violation::UnresolvedPredicate {
                    pred: (pr, pc),
                    detail: x.describe(),
                });
                continue;
            }
            // Computed in a previous pass: always available.
            if entries.iter().any(|e| pc < e.idx) {
                continue;
            }
            let same: Vec<&&Entry> = entries.iter().filter(|e| e.idx == pc).collect();
            // Prefer the clones on the instance's own paths.
            let on_path: Vec<&&&Entry> = same
                .iter()
                .filter(|e| !e.formal.is_disjoint(&x.formal))
                .collect();
            let resolved_above = if !on_path.is_empty() {
                on_path.iter().any(|e| e.row <= x.row)
            } else {
                same.iter().any(|e| e.row <= x.row)
            };
            if resolved_above {
                continue;
            }
            // The predicate resolves below this row (or only in a future
            // pass): the instance executes speculatively.
            if !x.inner.op.is_speculable() {
                out.push(Violation::Speculation {
                    pred: (pr, pc),
                    row: x.row,
                    detail: x.describe(),
                });
            } else if matches!(x.inner.op.kind, OpKind::Load { .. }) && !machine.speculative_loads {
                out.push(Violation::Speculation {
                    pred: (pr, pc),
                    row: x.row,
                    detail: format!("speculative load forbidden: {}", x.describe()),
                });
            }
        }
    }
}

// --- per-row issue width -----------------------------------------------

fn row_resources(
    machine: &MachineConfig,
    sched: &Schedule,
    insts: &[Inst],
    out: &mut Vec<Violation>,
) {
    for row in 0..sched.rows.len() {
        for class in [ResClass::Alu, ResClass::Mem, ResClass::Branch] {
            let members: Vec<&Inst> = insts
                .iter()
                .filter(|i| i.row == row && i.inner.op.res_class() == class)
                .collect();
            let limit = machine.limit(class) as usize;
            if members.len() <= limit {
                continue;
            }
            let used = max_coexecuting(&members);
            if used > limit {
                out.push(Violation::Resource {
                    site: CycleSite::Row(row),
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
}

/// Size of the largest pairwise-compatible (non-disjoint) subset: matrices
/// conflict only elementwise, so pairwise consistency implies a common
/// path, and this is exactly the worst-case co-issue width.
fn max_coexecuting(members: &[&Inst]) -> usize {
    fn go(members: &[&Inst], i: usize, chosen: &mut Vec<usize>, best: &mut usize) {
        *best = (*best).max(chosen.len());
        if i == members.len() || chosen.len() + (members.len() - i) <= *best {
            return;
        }
        let compatible = chosen
            .iter()
            .all(|&c| !members[c].formal.is_disjoint(&members[i].formal));
        if compatible {
            chosen.push(i);
            go(members, i + 1, chosen, best);
            chosen.pop();
        }
        go(members, i + 1, chosen, best);
    }
    let mut best = 0;
    go(members, 0, &mut Vec::new(), &mut best);
    best
}
