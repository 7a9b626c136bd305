//! `kernels-compile`: one op takes one of the 16 `psp-kernels` loops from
//! its `LoopSpec` to verified code — `pipeline_loop` with the shipped
//! `PspConfig::default()` but one driver thread, both validators, and a
//! batched equivalence check on the default short `TRIAL_LENS` ladder.

use crate::measure::{Digest, OpReport, Quality, Workload};
use crate::probe::Probe;
use crate::{resolved_threads, shuffled, SubSeeds};
use psp_core::{pipeline_loop, CodegenError, PspConfig, PspResult};
use psp_kernels::{all_kernels, Kernel, KernelData};
use psp_sim::equiv::TRIAL_LENS;
use psp_sim::{
    check_equivalence_batch, BatchError, BatchRun, EngineKind, EquivConfig, EquivEngine,
    MachineState,
};
use psp_verify::{validate_schedule, validate_vliw, Violation};
use std::time::Instant;

/// Per-kernel trial inputs, indexed by trial number.
pub(crate) type Inputs = Vec<Vec<(KernelData, MachineState)>>;

/// Build every kernel's trial inputs for `eq`.
pub(crate) fn build_inputs(kernels: &[Kernel], eq: &EquivConfig) -> Inputs {
    kernels
        .iter()
        .map(|k| {
            eq.trial_inputs()
                .into_iter()
                .map(|(seed, len)| {
                    let data = KernelData::random(seed, len);
                    let state = k.initial_state(&data);
                    (data, state)
                })
                .collect()
        })
        .collect()
}

/// Run `prog` on every trial with the golden `Kernel::check` on its final
/// state (the independent check; the batched oracle compares against the
/// reference interpreter instead).
pub(crate) fn golden_check(
    k: &Kernel,
    prog: &psp_machine::VliwLoop,
    inputs: &[(KernelData, MachineState)],
    max_cycles: u64,
) -> Result<(), String> {
    let mut eng = EquivEngine::new(&k.spec, prog);
    for (data, state) in inputs {
        let (_, run) = eng
            .check_full(state, max_cycles)
            .map_err(|e| format!("{}: {e}", k.name))?;
        k.check(&run.state, data)?;
    }
    Ok(())
}

/// Ops per round: every kernel once.
const KERNELS: usize = 16;

/// Driver threads, pinned. With the shipped default (0 = `nproc`) the
/// per-step thread spawning of the vendored rayon made op times swing by a
/// fifth from run to run on a shared 2-CPU machine (an interquartile spread
/// of 0.22 in `ops_per_s` and 0.25 in `op_ms_p90` over five seeds), too
/// wide for any bound; one thread holds steady. `fuzz-dsl` keeps the
/// default, so the threading cost is still measured there.
const PINNED_THREADS: usize = 1;

pub struct KernelsCompile {
    kernels: Vec<Kernel>,
    order: Vec<usize>,
    cfg: PspConfig,
    eq: EquivConfig,
    inputs: Inputs,
    /// Per-kernel digest of the set-up's compile: every op must repeat it.
    reference: Vec<u64>,
}

pub struct Art {
    kernel: usize,
    res: Result<PspResult, CodegenError>,
    violations: Vec<Violation>,
    batch: Option<Result<BatchRun, BatchError>>,
    sim_secs: f64,
}

impl KernelsCompile {
    fn op_digest(art: &Art) -> u64 {
        let mut d = Digest::default();
        if let Ok(r) = &art.res {
            d.program(&r.program);
        }
        if let Some(Ok(b)) = &art.batch {
            d.batch(b);
        }
        d.finish()
    }
}

impl Workload for KernelsCompile {
    type Art = Art;

    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String> {
        let mut seeds = SubSeeds::new(seed);
        let kernels = all_kernels();
        assert_eq!(kernels.len(), KERNELS, "the kernel suite has 16 loops");
        let eq = EquivConfig::fixed(TRIAL_LENS.len(), seeds.trial_seed())
            .with_engine(EngineKind::Decoded);
        let inputs = probe.layer("kernels.inputs", || build_inputs(&kernels, &eq));
        let mut w = KernelsCompile {
            order: shuffled(KERNELS, &mut seeds),
            kernels,
            cfg: PspConfig {
                threads: PINNED_THREADS,
                ..PspConfig::default()
            },
            eq,
            inputs,
            reference: Vec::new(),
        };
        // Reference pass: compile every kernel once, golden-check it, and
        // keep its digest for the timed ops to reproduce.
        for k in 0..KERNELS {
            let art = w.compile(k, probe);
            let digest = Self::op_digest(&art);
            let mut rep = OpReport::default();
            w.verdict(&art, &mut rep);
            if let Some(f) = rep.failure {
                return Err(format!("set-up: {f}"));
            }
            let kernel = &w.kernels[k];
            let prog = &art.res.as_ref().expect("verdict passed").program;
            probe.layer("kernels.golden", || {
                golden_check(kernel, prog, &w.inputs[k], w.eq.max_cycles)
            })?;
            w.reference.push(digest);
        }
        Ok(w)
    }

    fn round_len(&self) -> usize {
        KERNELS
    }

    fn setup_digest(&self) -> u64 {
        let mut d = Digest::default();
        for &r in &self.reference {
            d.u64(r);
        }
        d.finish()
    }

    fn driver_threads(&self) -> usize {
        resolved_threads(self.cfg.threads)
    }

    fn exec(&mut self, i: usize, probe: &mut Probe) -> Art {
        self.compile(self.order[i % KERNELS], probe)
    }

    fn check(&mut self, _i: usize, art: Art) -> OpReport {
        let mut rep = OpReport {
            key: art.kernel,
            digest: Self::op_digest(&art),
            sim_secs: art.sim_secs,
            ..OpReport::default()
        };
        self.verdict(&art, &mut rep);
        if rep.digest != self.reference[art.kernel] {
            rep.fail(format!(
                "{}: output digest differs from the set-up's",
                self.kernels[art.kernel].name
            ));
        }
        if let (Ok(r), Some(Ok(b))) = (&art.res, &art.batch) {
            rep.sim_cycles = b.total_cycles();
            rep.quality.push(Quality::of(&r.program, b));
            crate::count_psp(&mut rep, r);
        }
        rep.count("verify.violations", art.violations.len() as u64);
        rep
    }
}

impl KernelsCompile {
    fn compile(&self, k: usize, probe: &mut Probe) -> Art {
        let spec = &self.kernels[k].spec;
        let m = &self.cfg.machine;
        let res = probe.layer("core.pipeline", || pipeline_loop(spec, &self.cfg));
        let (mut violations, mut batch, mut sim_secs) = (Vec::new(), None, 0.0);
        if let Ok(r) = &res {
            violations = probe.layer("verify.schedule", || {
                validate_schedule(spec, m, &r.schedule)
            });
            violations.extend(probe.layer("verify.vliw", || validate_vliw(spec, m, &r.program)));
            let inputs = &self.inputs[k];
            let base = self.eq.seed;
            let t = Instant::now();
            batch = Some(probe.layer("sim.equiv", || {
                check_equivalence_batch(spec, &r.program, &self.eq, |seed, _| {
                    &inputs[(seed - base) as usize].1
                })
            }));
            sim_secs = t.elapsed().as_secs_f64();
        }
        Art {
            kernel: k,
            res,
            violations,
            batch,
            sim_secs,
        }
    }

    fn verdict(&self, art: &Art, rep: &mut OpReport) {
        let name = self.kernels[art.kernel].name;
        match (&art.res, &art.batch) {
            (Err(e), _) => rep.fail(format!("{name}: pipeline failed: {e}")),
            (_, Some(Err(e))) => rep.fail(format!("{name}: equivalence: {e}")),
            _ if !art.violations.is_empty() => {
                rep.fail(format!("{name}: validator: {}", art.violations[0]))
            }
            _ => {}
        }
    }
}
