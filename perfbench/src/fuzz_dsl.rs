//! `fuzz-dsl`: one op takes one DSL text through the full stage list of
//! `psp_verify::run_oracle` — `psp_lang::compile`; sequential, local and
//! PSP compiles on the wide and narrow machines, each validated and
//! equivalence-checked; EMS; and `certify` with 20 000 nodes.
//!
//! The texts are `grammar::random_body` + `grammar::to_source`, a pure
//! function of the seed with no corpus feedback. They are drawn in blocks
//! of [`BLOCK`] whose IF-count histogram is fixed: the exact distribution
//! of the generator, rounded to the block (largest remainder). Op cost
//! grows exponentially with the IF count, so this stratification is what
//! keeps two seeds' runs comparable; within an IF count the draw is plain
//! rejection sampling, and no text is ever dropped for being slow or for
//! failing. IF counts rarer than about one per block get no quota.

use crate::measure::{Digest, OpReport, Quality, Workload};
use crate::probe::Probe;
use crate::{count_psp, resolved_threads, SubSeeds};
use psp_core::{pipeline_loop, PspConfig, PspResult};
use psp_machine::{MachineConfig, VliwLoop};
use psp_opt::{certify, Certification, ExactConfig, ExactResult};
use psp_sim::{check_equivalence_batch, BatchRun, EngineKind, EquivConfig, MachineState};
use psp_verify::grammar::{self, SplitMix64, S};
use psp_verify::{validate_modulo, validate_schedule, validate_vliw, Failure, Violation};
use std::time::Instant;

/// Texts per block (one round of ops).
pub const BLOCK: usize = 64;
/// Blocks drawn in set-up, all of them the reference prefix; a run that
/// outlasts them starts over. Small enough that a run of 40 s times every
/// text about three times (an op's time is taken from its fastest
/// repeats), large enough that two seeds' draws cost nearly the same.
const POOL_BLOCKS: usize = 8;

// The oracle's differential trials and certifier budget, as in
// `psp_verify::fuzz` (the verdict test pins the two stage lists together).
const EQUIV_TRIALS: usize = 3;
const EQUIV_SEED: u64 = 10;
const MAX_CYCLES: u64 = 1_000_000;
const CERTIFY_NODES: u64 = 20_000;

/// IF statements in a body, nested ones included.
pub fn n_ifs(stmts: &[S]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            S::If(_, _, _, t, e) => 1 + n_ifs(t) + n_ifs(e),
            _ => 0,
        })
        .sum()
}

fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, x) in a.iter().enumerate() {
        for (j, y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

fn mix(a: &[f64], b: &[f64]) -> Vec<f64> {
    (0..a.len().max(b.len()))
        .map(|i| 0.5 * (a.get(i).unwrap_or(&0.0) + b.get(i).unwrap_or(&0.0)))
        .collect()
}

/// Distribution of the IF count of one `random_stmt(depth)`: an IF with
/// probability ¼ (when `depth > 0`) holding 1–2 then- and 0–1
/// else-statements of depth `depth - 1`, a leaf otherwise.
fn stmt_if_dist(depth: u32) -> Vec<f64> {
    if depth == 0 {
        return vec![1.0];
    }
    let s = stmt_if_dist(depth - 1);
    let then = mix(&s, &convolve(&s, &s));
    let els = mix(&[1.0], &s);
    let inner = convolve(&then, &els);
    let mut out = vec![0.0; inner.len() + 1];
    out[0] = 0.75;
    for (i, p) in inner.iter().enumerate() {
        out[i + 1] += 0.25 * p;
    }
    out
}

/// Exact distribution of the IF count of `grammar::random_body` (2–6
/// statements of depth 2, uniformly).
pub fn if_count_distribution() -> Vec<f64> {
    let s = stmt_if_dist(2);
    let mut body = Vec::new();
    let mut power = vec![1.0];
    for n in 1..=6 {
        power = convolve(&power, &s);
        if n >= 2 {
            body.resize(power.len(), 0.0);
            for (b, p) in body.iter_mut().zip(&power) {
                *b += p / 5.0;
            }
        }
    }
    body
}

/// Texts per IF count in a block of `block`, by largest remainder.
pub fn block_quotas(block: usize) -> Vec<usize> {
    let dist = if_count_distribution();
    let exact: Vec<f64> = dist.iter().map(|p| p * block as f64).collect();
    let mut quota: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut rest: Vec<usize> = (0..exact.len()).collect();
    rest.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = block - quota.iter().sum::<usize>();
    for &k in rest.iter().take(missing) {
        quota[k] += 1;
    }
    quota
}

/// Draw one block: bodies from `rng`, each kept while its IF count's quota
/// has room.
pub fn draw_block(rng: &mut SplitMix64, quotas: &[usize]) -> Vec<Vec<S>> {
    let mut left = quotas.to_vec();
    let mut out = Vec::with_capacity(quotas.iter().sum());
    while out.len() < out.capacity() {
        let body = grammar::random_body(rng);
        if let Some(q) = left.get_mut(n_ifs(&body)).filter(|q| **q > 0) {
            *q -= 1;
            out.push(body);
        }
    }
    out
}

/// One DSL text and its prebuilt trial inputs.
pub struct Text {
    /// `psp-lang` source.
    pub src: String,
    inputs: Vec<MachineState>,
}

pub struct FuzzDsl {
    texts: Vec<Text>,
    eq: EquivConfig,
    wide: MachineConfig,
    narrow: MachineConfig,
}

/// Everything one op produced, up to its first failure.
#[derive(Default)]
pub struct Art {
    failure: Option<Failure>,
    src_bytes: usize,
    programs: Vec<VliwLoop>,
    psp: Vec<PspResult>,
    batches: Vec<BatchRun>,
    violations: usize,
    ems: Option<(u32, Vec<usize>)>,
    exact: Option<ExactResult>,
    sim_secs: f64,
}

impl Art {
    /// The op's verdict: `Ok`, or the failing stage as `run_oracle` names it.
    pub fn verdict(&self) -> Result<(), String> {
        self.failure
            .as_ref()
            .map_or(Ok(()), |f| Err(f.stage.clone()))
    }
}

fn fail(stage: &str, detail: impl std::fmt::Display) -> Failure {
    Failure {
        stage: stage.into(),
        detail: detail.to_string(),
    }
}

impl FuzzDsl {
    /// The pooled texts (set-up output), in op order.
    pub fn texts(&self) -> &[Text] {
        &self.texts
    }

    fn violations(art: &mut Art, stage: &str, vs: Vec<Violation>) -> Result<(), Failure> {
        art.violations += vs.len();
        match vs.first() {
            None => Ok(()),
            Some(_) => Err(fail(
                stage,
                vs.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            )),
        }
    }

    fn equiv(
        &self,
        probe: &mut Probe,
        art: &mut Art,
        text: &Text,
        spec: &psp_ir::LoopSpec,
        stage: &str,
        prog: &VliwLoop,
    ) -> Result<(), Failure> {
        let t = Instant::now();
        let r = probe.layer("sim.equiv", || {
            check_equivalence_batch(spec, prog, &self.eq, |seed, _| {
                &text.inputs[(seed - EQUIV_SEED) as usize]
            })
        });
        art.sim_secs += t.elapsed().as_secs_f64();
        art.batches.push(r.map_err(|e| fail(stage, e))?);
        Ok(())
    }

    /// The stage list of `psp_verify::run_oracle_with`, each call wrapped
    /// in its layer's span.
    fn oracle(&self, text: &Text, probe: &mut Probe, art: &mut Art) -> Result<(), Failure> {
        art.src_bytes = text.src.len();
        let spec = probe
            .layer("lang.compile", || psp_lang::compile(&text.src))
            .map_err(|e| fail("lang", format!("{e:?}")))?;
        spec.validate()
            .map_err(|e| fail("spec", format!("{e:?}")))?;
        let (wide, narrow) = (&self.wide, &self.narrow);

        let seq = probe.layer("baselines.seq", || psp_baselines::compile_sequential(&spec));
        let vs = probe.layer("verify.vliw", || {
            validate_vliw(&spec, &MachineConfig::sequential(), &seq)
        });
        Self::violations(art, "seq-validate", vs)?;
        self.equiv(probe, art, text, &spec, "seq-equiv", &seq)?;
        art.programs.push(seq);

        for (label, m) in [("local-wide", wide), ("local-narrow", narrow)] {
            let prog = probe.layer("baselines.local", || psp_baselines::compile_local(&spec, m));
            let vs = probe.layer("verify.vliw", || validate_vliw(&spec, m, &prog));
            Self::violations(art, label, vs)?;
            self.equiv(probe, art, text, &spec, label, &prog)?;
            art.programs.push(prog);
        }

        for (label, m) in [("psp-wide", wide), ("psp-narrow", narrow)] {
            let res = probe
                .layer("core.pipeline", || {
                    pipeline_loop(&spec, &PspConfig::with_machine(m.clone()))
                })
                .map_err(|e| fail(label, format!("pipeline failed: {e}")))?;
            let vs = probe.layer("verify.schedule", || {
                validate_schedule(&spec, m, &res.schedule)
            });
            Self::violations(art, label, vs)?;
            let vs = probe.layer("verify.vliw", || validate_vliw(&spec, m, &res.program));
            Self::violations(art, label, vs)?;
            self.equiv(probe, art, text, &spec, label, &res.program)?;
            art.psp.push(res);
        }

        let (ic, ems) = probe.layer("baselines.ems", || {
            let mut ic = psp_baselines::if_convert(&spec);
            psp_baselines::rename::rename_inductions(&mut ic.ops, &mut ic.spec);
            (ic, psp_baselines::modulo_schedule(&spec, wide))
        });
        let vs = probe.layer("verify.modulo", || {
            validate_modulo(&ic.spec.live_out, wide, &ems)
        });
        Self::violations(art, "ems", vs)?;
        art.ems = Some((ems.ii, ems.time.clone()));

        let cfg = ExactConfig {
            max_nodes: CERTIFY_NODES,
            ..ExactConfig::default()
        };
        let mut exact = probe.layer("opt.certify", || certify(&spec, wide, &cfg, Some(ems.ii)));
        let outcome = exact.outcome;
        let witness = exact.schedule.take();
        art.exact = Some(exact);
        match outcome {
            Certification::Certified(ii) => {
                if ii > ems.ii {
                    return Err(fail(
                        "certify",
                        format!("certified II {ii} above the EMS feasible point {}", ems.ii),
                    ));
                }
                if let Some(w) = &witness {
                    let vs = probe.layer("verify.modulo", || {
                        validate_modulo(&ic.spec.live_out, wide, w)
                    });
                    Self::violations(art, "certify", vs)?;
                }
            }
            Certification::Bounded { lb, .. } => {
                if lb > ems.ii {
                    return Err(fail(
                        "certify",
                        format!("lower bound {lb} above the EMS feasible point {}", ems.ii),
                    ));
                }
            }
        }
        Ok(())
    }

    fn digest(art: &Art) -> u64 {
        let mut d = Digest::default();
        if let Some(f) = &art.failure {
            d.bytes(f.stage.as_bytes()).bytes(f.detail.as_bytes());
        }
        for p in art
            .programs
            .iter()
            .chain(art.psp.iter().map(|r| &r.program))
        {
            d.program(p);
        }
        for b in &art.batches {
            d.batch(b);
        }
        if let Some((ii, time)) = &art.ems {
            d.u64(*ii as u64);
            for &t in time {
                d.u64(t as u64);
            }
        }
        if let Some(x) = &art.exact {
            d.bytes(x.outcome.display().as_bytes());
        }
        d.finish()
    }

    /// Run op `i` outside a measurement (used by the benchmark's tests).
    pub fn run_op(&mut self, i: usize) -> Art {
        self.exec(i, &mut Probe::new(false))
    }
}

impl Workload for FuzzDsl {
    type Art = Art;

    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String> {
        let mut seeds = SubSeeds::new(seed);
        let mut rng = SplitMix64(seeds.next_u64());
        let quotas = block_quotas(BLOCK);
        let bodies: Vec<Vec<S>> = (0..POOL_BLOCKS)
            .flat_map(|_| draw_block(&mut rng, &quotas))
            .collect();
        let eq = EquivConfig::fixed(EQUIV_TRIALS, EQUIV_SEED)
            .with_max_cycles(MAX_CYCLES)
            .with_engine(EngineKind::Decoded);
        let texts = probe.layer("kernels.inputs", || {
            bodies
                .iter()
                .map(|b| {
                    let spec = grammar::build_spec(b);
                    Text {
                        src: grammar::to_source(b),
                        inputs: eq
                            .trial_inputs()
                            .into_iter()
                            .map(|(seed, len)| grammar::initial(&spec, len, seed))
                            .collect(),
                    }
                })
                .collect()
        });
        Ok(FuzzDsl {
            texts,
            eq,
            wide: MachineConfig::paper_default(),
            narrow: MachineConfig::narrow(2, 1, 1),
        })
    }

    fn round_len(&self) -> usize {
        BLOCK
    }

    fn prefix_rounds(&self) -> usize {
        POOL_BLOCKS
    }

    fn setup_digest(&self) -> u64 {
        let mut d = Digest::default();
        for t in &self.texts {
            d.bytes(t.src.as_bytes());
        }
        d.finish()
    }

    fn driver_threads(&self) -> usize {
        resolved_threads(PspConfig::default().threads)
    }

    fn exec(&mut self, i: usize, probe: &mut Probe) -> Art {
        let text = &self.texts[i % self.texts.len()];
        let mut art = Art::default();
        if let Err(f) = self.oracle(text, probe, &mut art) {
            art.failure = Some(f);
        }
        art
    }

    fn check(&mut self, i: usize, art: Art) -> OpReport {
        let mut rep = OpReport {
            key: i % self.texts.len(),
            digest: Self::digest(&art),
            sim_secs: art.sim_secs,
            sim_cycles: art.batches.iter().map(BatchRun::total_cycles).sum(),
            ..OpReport::default()
        };
        if let Some(f) = &art.failure {
            rep.fail(format!("{}: {}", f.stage, f.detail));
        }
        // The PSP batches are the last two before EMS: seq, local ×2, psp ×2.
        for (r, b) in art.psp.iter().zip(art.batches.iter().skip(3)) {
            rep.quality.push(Quality::of(&r.program, b));
            count_psp(&mut rep, r);
        }
        if let Some(x) = &art.exact {
            rep.count("opt.certify_calls", 1);
            rep.count("opt.nodes", x.nodes);
            rep.count(
                "opt.certified",
                matches!(x.outcome, Certification::Certified(_)) as u64,
            );
        }
        rep.count("lang.src_bytes", art.src_bytes as u64);
        rep.count("verify.violations", art.violations as u64);
        rep
    }
}
