//! End-to-end, layer-by-layer benchmark of the PSP compiler and simulator.
//!
//! Three workloads — `kernels-compile`, `kernels-simulate`, `fuzz-dsl` —
//! each a pure function of `--seed`. An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) wraps every call into a
//! layer's public API in a span and reports per-layer self times and the
//! work counters those calls return. Nothing inside the measured crates is
//! changed: all timing happens here, around their public functions.

pub mod fuzz_dsl;
pub mod kernels_compile;
pub mod kernels_simulate;
pub mod measure;
pub mod probe;

use measure::OpReport;
use psp_core::PspResult;
use psp_verify::grammar::SplitMix64;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["kernels-compile", "kernels-simulate", "fuzz-dsl"];

/// Run workload `name` (one of [`WORKLOADS`]).
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<measure::Measured, String> {
    match name {
        "kernels-compile" => measure::run::<kernels_compile::KernelsCompile>(seed, seconds, trace),
        "kernels-simulate" => {
            measure::run::<kernels_simulate::KernelsSimulate>(seed, seconds, trace)
        }
        "fuzz-dsl" => measure::run::<fuzz_dsl::FuzzDsl>(seed, seconds, trace),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Independent streams derived from the run seed.
pub struct SubSeeds(SplitMix64);

impl SubSeeds {
    pub fn new(seed: u64) -> Self {
        SubSeeds(SplitMix64(seed))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A base seed for an `EquivConfig` (small, so `seed + i` cannot wrap).
    pub fn trial_seed(&mut self) -> u64 {
        self.next_u64() >> 40
    }
}

/// A seed-determined permutation of `0..n`.
pub fn shuffled(n: usize, seeds: &mut SubSeeds) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (seeds.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

/// Worker threads `pipeline_loop` uses for a `PspConfig::threads` value.
pub fn resolved_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Record the driver's returned counters and phase times.
pub(crate) fn count_psp(rep: &mut OpReport, r: &PspResult) {
    let s = &r.stats;
    rep.count("core.candidates", s.candidates as u64);
    rep.count("core.rounds", s.rounds as u64);
    rep.count("core.pruned", s.pruned as u64);
    rep.count("core.moves", s.moves as u64);
    rep.count("core.wraps", s.wraps as u64);
    rep.count("core.splits", s.splits as u64);
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    rep.time("core.phase.candidate_gen_us", us(s.times.candidate_gen));
    rep.time("core.phase.apply_us", us(s.times.apply));
    rep.time("core.phase.compact_us", us(s.times.compact));
    rep.time("core.phase.codegen_us", us(s.times.codegen));
    rep.time("core.phase.score_us", us(s.times.score));
}
