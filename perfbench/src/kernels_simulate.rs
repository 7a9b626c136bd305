//! `kernels-simulate`: one op is one batched `check_equivalence_batch` of
//! one kernel's PSP program or its `compile_local` baseline over long
//! trials (lengths 257/1024/4096, decoded engine, one thread). Compiling,
//! building inputs and the golden checks are set-up.

use crate::kernels_compile::{build_inputs, golden_check, Inputs};
use crate::measure::{Digest, OpReport, Quality, Workload};
use crate::probe::Probe;
use crate::{resolved_threads, shuffled, SubSeeds};
use psp_core::{pipeline_loop, PspConfig};
use psp_kernels::{all_kernels, Kernel};
use psp_machine::VliwLoop;
use psp_sim::{check_equivalence_batch, BatchError, BatchRun, EngineKind, EquivConfig};
use std::time::Instant;

/// Simulation-bound trial lengths (the long ladder of experiment E11).
const LENS: [usize; 3] = [257, 1024, 4096];
/// Trials per batch: four of each length.
const TRIALS: usize = 12;

/// One simulated program.
struct Prog {
    kernel: usize,
    psp: bool,
    prog: VliwLoop,
    /// Digest of the program text and of its set-up batch observables.
    reference: u64,
    text: u64,
}

pub struct KernelsSimulate {
    kernels: Vec<Kernel>,
    progs: Vec<Prog>,
    order: Vec<usize>,
    cfg: PspConfig,
    eq: EquivConfig,
    inputs: Inputs,
}

pub struct Art {
    prog: usize,
    batch: Result<BatchRun, BatchError>,
    sim_secs: f64,
}

impl KernelsSimulate {
    fn simulate(&self, p: usize, probe: &mut Probe) -> Art {
        let Prog { kernel, prog, .. } = &self.progs[p];
        let inputs = &self.inputs[*kernel];
        let base = self.eq.seed;
        let t = Instant::now();
        let batch = probe.layer("sim.equiv", || {
            check_equivalence_batch(&self.kernels[*kernel].spec, prog, &self.eq, |seed, _| {
                &inputs[(seed - base) as usize].1
            })
        });
        Art {
            prog: p,
            batch,
            sim_secs: t.elapsed().as_secs_f64(),
        }
    }

    fn digest(text: u64, b: &BatchRun) -> u64 {
        Digest::default().u64(text).batch(b).finish()
    }
}

impl Workload for KernelsSimulate {
    type Art = Art;

    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String> {
        let mut seeds = SubSeeds::new(seed);
        let kernels = all_kernels();
        let eq = EquivConfig::fixed(TRIALS, seeds.trial_seed())
            .with_lens(&LENS)
            .with_engine(EngineKind::Decoded)
            .with_threads(1);
        let inputs = probe.layer("kernels.inputs", || build_inputs(&kernels, &eq));
        let cfg = PspConfig::default();
        let mut progs = Vec::new();
        for (k, kernel) in kernels.iter().enumerate() {
            let psp = probe
                .layer("core.pipeline", || pipeline_loop(&kernel.spec, &cfg))
                .map_err(|e| format!("set-up: {}: pipeline failed: {e}", kernel.name))?;
            let local = probe.layer("baselines.local", || {
                psp_baselines::compile_local(&kernel.spec, &cfg.machine)
            });
            for (is_psp, prog) in [(true, psp.program), (false, local)] {
                probe.layer("kernels.golden", || {
                    golden_check(kernel, &prog, &inputs[k], eq.max_cycles)
                })?;
                let text = Digest::default().program(&prog).finish();
                progs.push(Prog {
                    kernel: k,
                    psp: is_psp,
                    prog,
                    reference: 0,
                    text,
                });
            }
        }
        let mut w = KernelsSimulate {
            order: shuffled(progs.len(), &mut seeds),
            kernels,
            progs,
            cfg,
            eq,
            inputs,
        };
        for p in 0..w.progs.len() {
            let art = w.simulate(p, probe);
            let b = art
                .batch
                .map_err(|e| format!("set-up: {}: {e}", w.kernels[w.progs[p].kernel].name))?;
            w.progs[p].reference = Self::digest(w.progs[p].text, &b);
        }
        Ok(w)
    }

    fn round_len(&self) -> usize {
        self.progs.len()
    }

    fn setup_digest(&self) -> u64 {
        let mut d = Digest::default();
        for p in &self.progs {
            d.u64(p.reference);
        }
        d.finish()
    }

    fn driver_threads(&self) -> usize {
        resolved_threads(self.cfg.threads)
    }

    fn exec(&mut self, i: usize, probe: &mut Probe) -> Art {
        self.simulate(self.order[i % self.order.len()], probe)
    }

    fn check(&mut self, _i: usize, art: Art) -> OpReport {
        let p = &self.progs[art.prog];
        let name = self.kernels[p.kernel].name;
        let mut rep = OpReport {
            key: art.prog,
            sim_secs: art.sim_secs,
            ..OpReport::default()
        };
        match &art.batch {
            Err(e) => rep.fail(format!("{name}: equivalence: {e}")),
            Ok(b) => {
                rep.digest = Self::digest(p.text, b);
                rep.sim_cycles = b.total_cycles();
                if rep.digest != p.reference {
                    rep.fail(format!("{name}: output digest differs from the set-up's"));
                }
                if p.psp {
                    rep.quality.push(Quality::of(&p.prog, b));
                }
            }
        }
        rep
    }
}
