//! Experiment E10 — the predicate-algebra microbench.
//!
//! Three sections:
//!
//! 1. **micro** — per-op latency of `conjoin`/`is_disjoint`/`subsumes`/
//!    `shifted` over a deterministic corpus of scheduler-shaped matrices,
//!    packed `PredicateMatrix` next to the `SparseMatrix` reference (whose
//!    shift is the rebuild-from-shifted-entries the validators use), plus
//!    packed `PathSet::subtract`;
//! 2. **kernels** — end-to-end `pipeline_loop` wall time per kernel, with
//!    its predicate-op counters;
//! 3. **scaling** — the synthetic conditional-block family of `table_cost`
//!    (the b=8 point is the headline: predicate work dominates there).
//!
//! The corpus is also a differential check: every packed matrix must hold
//! exactly its reference's entries, and the repeated end-to-end runs must
//! repeat their deterministic counters. `--json` writes BENCH_pred.json;
//! `--smoke` trims the corpus and the scaling sweep for the time-boxed CI
//! job.

use psp_bench::synthetic;
use psp_core::{pipeline_loop, PspConfig, PspResult};
use psp_ir::LoopSpec;
use psp_kernels::all_kernels;
use psp_predicate::{stats, PathSet, PredOpStats, PredicateMatrix, SparseMatrix};
use std::time::Instant;

/// Deterministic corpus: entry lists shaped like scheduler formals (few
/// constrained elements, small rows, columns clustered near 0). A plain
/// LCG keeps the binary dependency-free and the corpus identical across
/// runs.
fn corpus_entries(n: usize, spill: bool) -> Vec<Vec<(u32, i32, bool)>> {
    let mut state = 0x243F6A8885A308D3u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    (0..n)
        .map(|_| {
            let len = next(6) as usize + 1;
            (0..len)
                .map(|_| {
                    let row = next(if spill { 10 } else { 5 }) as u32;
                    let col = next(if spill { 24 } else { 8 }) as i32 - if spill { 12 } else { 4 };
                    (row, col, next(2) == 1)
                })
                .collect()
        })
        .collect()
}

/// ns/op over all ordered pairs of the corpus, repeated `reps` times.
fn time_pairs<M>(ms: &[M], reps: usize, mut f: impl FnMut(&M, &M)) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        for a in ms {
            for b in ms {
                f(a, b);
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / (reps * ms.len() * ms.len()) as f64
}

fn time_each<M>(ms: &[M], reps: usize, mut f: impl FnMut(&M)) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        for a in ms {
            f(a);
        }
    }
    t0.elapsed().as_nanos() as f64 / (reps * ms.len()) as f64
}

fn print_e2e_header(label: &str) {
    println!(
        "{label:<16} {:>11} {:>12} {:>12} {:>10}",
        "ms", "disj tests", "subs tests", "conjoins"
    );
}

/// Best-of-`runs` wall ms of `pipeline_loop` on `spec`, printed with the
/// run's predicate-op counters. Every run must repeat the first one's
/// deterministic counters and II.
fn e2e_row(label: &str, runs: usize, spec: &LoopSpec, cfg: &PspConfig) -> (f64, PredOpStats) {
    let mut best = f64::MAX;
    let mut first: Option<PspResult> = None;
    for _ in 0..runs {
        let t = Instant::now();
        let r = pipeline_loop(spec, cfg).expect("pipelines");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        match &first {
            Some(x) => {
                assert_eq!(x.stats.counters(), r.stats.counters(), "{label}: counters");
                assert_eq!(x.program.ii_range(), r.program.ii_range(), "{label}: II");
            }
            None => first = Some(r),
        }
    }
    let pred = first.expect("at least one run").stats.pred;
    println!(
        "{label:<16} {best:>11.3} {:>12} {:>12} {:>10}",
        pred.disjoint_tests, pred.subsume_tests, pred.conjoins
    );
    (best, pred)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("E10 — predicate algebra: packed bitplanes vs sparse reference\n");

    // ---- 1. micro ops ----
    let (n_mats, reps) = if smoke { (24, 20) } else { (48, 200) };
    let entries = corpus_entries(n_mats, !smoke);
    let packed_ms: Vec<PredicateMatrix> = entries
        .iter()
        .map(|e| PredicateMatrix::from_entries(e.iter().copied()))
        .collect();
    let sparse_ms: Vec<SparseMatrix> = entries
        .iter()
        .map(|e| SparseMatrix::from_entries(e.iter().copied()))
        .collect();
    for (p, s) in packed_ms.iter().zip(&sparse_ms) {
        assert_eq!(
            &SparseMatrix::from(p),
            s,
            "corpus diverged from the reference"
        );
    }
    let packed_sets: Vec<PathSet> = packed_ms
        .chunks(3)
        .map(|c| PathSet::from_matrices(c.iter().cloned()))
        .collect();

    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "op", "sparse ns", "packed ns", "speedup"
    );
    let mut micro = Vec::new();
    let mut sink = 0usize; // defeat dead-code elimination
    let mut row = |op: &str, sparse_ns: Option<f64>, packed_ns: f64| match sparse_ns {
        Some(s) => {
            println!(
                "{op:<14} {s:>12.1} {packed_ns:>12.1} {:>8.2}x",
                s / packed_ns
            );
            micro.push(format!(
                    "{{\"op\":\"{op}\",\"sparse_ns\":{s:.2},\"packed_ns\":{packed_ns:.2},\"speedup\":{:.3}}}",
                    s / packed_ns
                ));
        }
        None => {
            println!("{op:<14} {:>12} {packed_ns:>12.1} {:>9}", "-", "-");
            micro.push(format!("{{\"op\":\"{op}\",\"packed_ns\":{packed_ns:.2}}}"));
        }
    };
    let s = time_pairs(&sparse_ms, reps, |a, b| sink += a.is_disjoint(b) as usize);
    let p = time_pairs(&packed_ms, reps, |a, b| sink += a.is_disjoint(b) as usize);
    row("is_disjoint", Some(s), p);
    let s = time_pairs(&sparse_ms, reps, |a, b| sink += a.subsumes(b) as usize);
    let p = time_pairs(&packed_ms, reps, |a, b| sink += a.subsumes(b) as usize);
    row("subsumes", Some(s), p);
    let s = time_pairs(&sparse_ms, reps, |a, b| {
        sink += a.conjoin(b).is_some() as usize
    });
    let p = time_pairs(&packed_ms, reps, |a, b| {
        sink += a.conjoin(b).is_some() as usize
    });
    row("conjoin", Some(s), p);
    let s = time_each(&sparse_ms, reps * 8, |a| {
        let shifted = SparseMatrix::from_entries(a.constrained().map(|(r, c, v)| (r, c + 1, v)));
        sink += shifted.constrained().count()
    });
    let p = time_each(&packed_ms, reps * 8, |a| {
        sink += a.shifted(1).constrained_len()
    });
    row("shifted", Some(s), p);
    let set_reps = if smoke { 2 } else { 10 };
    let p = time_pairs(&packed_sets, set_reps, |a, b| sink += a.subtract(b).len());
    row("set_subtract", None, p);
    assert!(sink > 0);

    // ---- 2. end-to-end kernels ----
    let cfg = PspConfig::default();
    let kernels = all_kernels();
    let kernels = if smoke { &kernels[..3] } else { &kernels[..] };
    let runs = if smoke { 1 } else { 3 };
    println!("\nend-to-end pipeline_loop per kernel (best-of-{runs} wall ms, repeated counters asserted):");
    print_e2e_header("kernel");
    let kernel_records: Vec<String> = kernels
        .iter()
        .map(|k| {
            let (ms, pred) = e2e_row(k.name, runs, &k.spec, &cfg);
            format!(
                "{{\"kernel\":\"{}\",\"packed_ms\":{ms:.4},\"pred\":{}}}",
                k.name,
                pred.to_json()
            )
        })
        .collect();

    // ---- 3. synthetic scaling ----
    println!("\nscaling (synthetic loops, b conditional blocks):");
    print_e2e_header("b");
    let blocks: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 6, 8] };
    let scaling_records: Vec<String> = blocks
        .iter()
        .map(|&b| {
            let (ms, pred) = e2e_row(&b.to_string(), 1, &synthetic(b), &cfg);
            format!(
                "{{\"blocks\":{b},\"packed_ms\":{ms:.3},\"pred\":{}}}",
                pred.to_json()
            )
        })
        .collect();

    let totals = stats::snapshot();
    println!(
        "\nprocess totals: {} conjoins, {} disjoint tests, {} subsume tests",
        totals.conjoins, totals.disjoint_tests, totals.subsume_tests,
    );

    if json {
        let payload = format!(
            "{{\"micro\":[{}],\"kernels\":[{}],\"scaling\":[{}]}}",
            micro.join(","),
            kernel_records.join(","),
            scaling_records.join(","),
        );
        std::fs::write("BENCH_pred.json", &payload).expect("write BENCH_pred.json");
        println!("wrote BENCH_pred.json");
    }
}
