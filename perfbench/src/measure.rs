//! The workload-independent measurement loop and the metrics it reports.

use crate::probe::{Probe, SETUP_OP};
use psp_machine::VliwLoop;
use psp_predicate::stats as pred_stats;
use psp_sim::stats as sim_stats;
use psp_sim::BatchRun;
use std::collections::BTreeMap;

/// FNV-1a, the digest behind `output_digest`: stable across runs,
/// platforms and toolchains, unlike `std`'s default hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorb raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        self
    }

    /// Absorb a number.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorb a generated program (its printed form).
    pub fn program(&mut self, p: &VliwLoop) -> &mut Self {
        self.bytes(p.to_string().as_bytes())
    }

    /// Absorb the per-trial observables of a batched equivalence check.
    pub fn batch(&mut self, b: &BatchRun) -> &mut Self {
        for t in &b.trials {
            self.u64(t.ref_cycles)
                .u64(t.ref_iterations)
                .u64(t.body_cycles)
                .u64(t.total_cycles)
                .u64(t.vliw_iterations);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Code quality of one generated PSP program, measured on its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Maximal steady-path II.
    pub ii_max: u64,
    /// Generated operations (prologue, body and epilogue).
    pub code_ops: u64,
    /// Body blocks.
    pub blocks: u64,
    /// Body operations.
    pub body_ops: u64,
    /// Simulated cycles summed over the trials.
    pub cycles: u64,
    /// Source iterations summed over the trials.
    pub iterations: u64,
}

impl Quality {
    /// Quality of `p`, run on the trials of `b`.
    pub fn of(p: &VliwLoop, b: &BatchRun) -> Self {
        let ops = |cs: &[Vec<psp_ir::Operation>]| cs.iter().map(Vec::len).sum::<usize>();
        Quality {
            ii_max: p.ii_range().map_or(0, |(_, m)| m as u64),
            code_ops: (ops(&p.prologue) + p.body_op_count() + ops(&p.epilogue)) as u64,
            blocks: p.blocks.len() as u64,
            body_ops: p.body_op_count() as u64,
            cycles: b.trials.iter().map(|t| t.total_cycles).sum(),
            iterations: b.trials.iter().map(|t| t.ref_iterations).sum(),
        }
    }
}

/// What one op reports once its timed region has ended.
#[derive(Debug, Default)]
pub struct OpReport {
    /// First failure (compile error, validator violation, equivalence or
    /// golden mismatch, certifier sanity failure), if any.
    pub failure: Option<String>,
    /// Digest of the op's generated programs and simulated observables.
    pub digest: u64,
    /// Which op this is. Executions with the same key do the same work
    /// (the same kernel, program or text) and are timed as repeats of one
    /// another. Keys do not depend on the seed's shuffle, so neither does
    /// the run digest.
    pub key: usize,
    /// The PSP programs the op produced or simulated.
    pub quality: Vec<Quality>,
    /// Deterministic work counts, by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Busy times the layers report themselves, by per-layer metric name.
    pub times_us: BTreeMap<&'static str, f64>,
    /// Simulated cycles and host seconds spent simulating.
    pub sim_cycles: u64,
    /// Host seconds inside `check_equivalence_batch`.
    pub sim_secs: f64,
}

impl OpReport {
    /// Add to a count.
    pub fn count(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Add to a self-reported busy time.
    pub fn time(&mut self, name: &'static str, us: f64) {
        *self.times_us.entry(name).or_default() += us;
    }

    /// Record the first failure only.
    pub fn fail(&mut self, why: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(why.into());
        }
    }
}

/// A workload: a set-up plus an endless, seed-determined stream of ops
/// grouped into rounds of equal make-up.
pub trait Workload: Sized {
    /// What the timed region of an op hands to [`Workload::check`].
    type Art;

    /// Build the workload from `seed`. Everything here is set-up time.
    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String>;
    /// Ops per round.
    fn round_len(&self) -> usize;
    /// Rounds in the reference prefix, over which the deterministic
    /// metrics (counts, code quality, digest) are taken.
    fn prefix_rounds(&self) -> usize {
        1
    }
    /// Digest of what set-up computed (programs compiled in set-up, golden
    /// results), folded into `output_digest`.
    fn setup_digest(&self) -> u64;
    /// Driver threads resolved for this workload's `pipeline_loop` calls.
    fn driver_threads(&self) -> usize;
    /// The timed region of op `i`: calls into the layers only.
    fn exec(&mut self, i: usize, probe: &mut Probe) -> Self::Art;
    /// Check the op's results (untimed).
    fn check(&mut self, i: usize, art: Self::Art) -> OpReport;
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up wall times, seconds.
    pub setup_s: Vec<f64>,
    /// Summed wall time of the untraced twins of the traced executions
    /// (traced runs only), ms.
    pub twin_ms: f64,
    /// Op executions attempted.
    pub attempted: u64,
    /// Op executions that failed.
    pub failed: u64,
    /// First failure seen.
    pub first_failure: Option<String>,
    /// The reported executions (the traced ones in a traced run), by op
    /// key.
    pub ops: BTreeMap<usize, Repeats>,
    /// Rounds run.
    pub rounds: usize,
    /// Ops per round.
    pub round_len: usize,
    /// `output_digest`.
    pub digest: u64,
    /// Deterministic counts over the reference prefix.
    pub counts: BTreeMap<&'static str, u64>,
    /// Self-reported busy times over the reported executions, µs.
    pub times_us: BTreeMap<&'static str, f64>,
    /// Code quality of the reference prefix's PSP programs.
    pub quality: Vec<Quality>,
    /// Driver threads resolved.
    pub driver_threads: usize,
    /// Spans (traced runs).
    pub probe: Option<Probe>,
}

/// The timed repeats of one op.
#[derive(Debug, Clone, Default)]
pub struct Repeats {
    /// Wall time of each repeat, ms.
    pub ms: Vec<f64>,
    /// Host time inside `check_equivalence_batch` of each repeat, seconds.
    pub sim_secs: Vec<f64>,
    /// Simulated cycles of one execution (the same in every repeat).
    pub sim_cycles: u64,
}

impl Repeats {
    fn add(&mut self, ms: f64, rep: &OpReport) {
        self.ms.push(ms);
        self.sim_secs.push(rep.sim_secs);
        self.sim_cycles = rep.sim_cycles;
    }
}

/// Repeats an op's time is taken from: the median of its five fastest.
const FASTEST: usize = 5;

/// The median of the [`FASTEST`] smallest samples (of all of them, when
/// there are fewer).
fn fastest(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(FASTEST);
    percentile(&v, 0.5)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Run workload `W` for about `seconds`, in [`SETUPS`] epochs of equal
/// length. Each epoch builds the workload afresh (a timed set-up) and then
/// runs whole rounds of ops until its share of `seconds` has passed; the
/// first epoch also runs the whole reference prefix. Spreading the set-ups
/// over the run samples slow and fast stretches of a shared machine alike.
/// A traced run executes every op twice, once traced and once untraced,
/// alternating which goes first, so the tracing overhead is measured
/// in-process.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Result<Measured, String> {
    let mut probe = Probe::new(trace);
    let mut m = Measured::default();
    let mut setup_digest = None;
    let mut prefix_digests: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let start = std::time::Instant::now();
    let mut i = 0usize;
    for epoch in 0..SETUPS {
        probe.set_tracing(trace);
        let (built, secs) = probe.root("setup", SETUP_OP, |p| W::setup(seed, p));
        let mut w = built?;
        m.setup_s.push(secs);
        let d = w.setup_digest();
        if *setup_digest.get_or_insert(d) != d {
            return Err("set-up is not deterministic: its digest changed".into());
        }
        m.round_len = w.round_len();
        m.driver_threads = w.driver_threads();
        let prefix_rounds = w.prefix_rounds();
        let prefix_ops = prefix_rounds * m.round_len;
        let epoch_end = seconds * (epoch + 1) as f64 / SETUPS as f64;
        while (epoch == 0 && m.rounds < prefix_rounds)
            || start.elapsed().as_secs_f64() < epoch_end
        {
            for _ in 0..m.round_len {
                let order: &[bool] = match (trace, i % 2) {
                    (false, _) => &[false],
                    (true, 0) => &[false, true],
                    (true, _) => &[true, false],
                };
                for &traced in order {
                    probe.set_tracing(traced);
                    let (pred0, sim0) = (pred_stats::snapshot(), sim_stats::snapshot());
                    let (art, secs) = probe.root("op", i as u32, |p| w.exec(i, p));
                    let pred = pred_stats::snapshot().delta(&pred0);
                    let sim = sim_stats::snapshot().delta(&sim0);
                    let mut rep = w.check(i, art);
                    rep.count("pred.conjoins", pred.conjoins);
                    rep.count("pred.disjoint_tests", pred.disjoint_tests);
                    rep.count("pred.subsume_tests", pred.subsume_tests);
                    rep.count("pred.memo_hits", pred.memo_hits);
                    rep.count("pred.memo_misses", pred.memo_misses);
                    rep.count("sim.trials", sim.trials);
                    rep.count("sim.cycles", sim.decoded_cycles);
                    rep.count("sim.decoded_ops", sim.decoded_ops);
                    rep.time("sim.decoded_busy_us", sim.decoded_busy_us as f64);
                    m.attempted += 1;
                    if let Some(f) = &rep.failure {
                        m.failed += 1;
                        m.first_failure
                            .get_or_insert_with(|| format!("op {i}: {f}"));
                    }
                    if trace && !traced {
                        m.twin_ms += secs * 1e3;
                        continue;
                    }
                    m.ops.entry(rep.key).or_default().add(secs * 1e3, &rep);
                    for (k, v) in &rep.times_us {
                        *m.times_us.entry(k).or_default() += v;
                    }
                    if i < prefix_ops {
                        prefix_digests.insert((i / m.round_len, rep.key), rep.digest);
                        for (k, v) in rep.counts {
                            *m.counts.entry(k).or_default() += v;
                        }
                        m.quality.extend(rep.quality);
                    }
                }
                i += 1;
            }
            m.rounds += 1;
        }
    }
    let mut d = Digest::default();
    d.u64(setup_digest.expect("set-up ran"));
    for v in prefix_digests.values() {
        d.u64(*v);
    }
    m.digest = d.finish();
    m.probe = trace.then_some(probe);
    Ok(m)
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// A metric value with its unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

impl Measured {
    /// Failed ÷ attempted.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Each op's time, taken from its fastest repeats. Load from outside
    /// the benchmark only ever adds time, mostly in bursts of seconds, and
    /// an op's repeats are spread over the whole run; so its fastest
    /// repeats are the ones least touched by that load. The median of a
    /// few of them keeps one odd repeat from deciding the op's time.
    fn op_ms(&self) -> Vec<f64> {
        self.ops.values().map(|r| fastest(&r.ms)).collect()
    }

    /// Ops per second at those times: one pass over all ops, whose
    /// make-up is fixed by the seed.
    fn ops_per_s(&self) -> f64 {
        1e3 * self.ops.len() as f64 / self.op_ms().iter().sum::<f64>()
    }

    /// Simulated cycles per host second over one pass, each op's
    /// equivalence check timed like the op itself.
    fn sim_cycles_per_s(&self) -> f64 {
        let cycles: u64 = self.ops.values().map(|r| r.sim_cycles).sum();
        let secs: f64 = self.ops.values().map(|r| fastest(&r.sim_secs)).sum();
        cycles as f64 / secs
    }

    /// Executions timed, and the fewest repeats of any op.
    pub fn repeats(&self) -> (usize, usize) {
        let n = self.ops.values().map(|r| r.ms.len());
        (n.clone().sum(), n.min().unwrap_or(0))
    }

    fn quality_sum(&self, f: impl Fn(&Quality) -> u64) -> f64 {
        self.quality.iter().map(f).sum::<u64>() as f64
    }

    /// Geometric mean of simulated cycles per source iteration.
    fn cycles_per_iter(&self) -> f64 {
        let logs: Vec<f64> = self
            .quality
            .iter()
            .filter(|q| q.iterations > 0)
            .map(|q| (q.cycles as f64 / q.iterations as f64).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Result<Metrics, String> {
        Ok(vec![
            ("ops_per_s", self.ops_per_s(), "ops/s"),
            ("op_ms_p50", percentile(&self.op_ms(), 0.5), "ms"),
            ("op_ms_p90", percentile(&self.op_ms(), 0.9), "ms"),
            ("setup_s", percentile(&self.setup_s, 0.5), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("sim_cycles_per_s", self.sim_cycles_per_s(), "cycles/s"),
            ("cycles_per_iter", self.cycles_per_iter(), "cycles"),
            ("ii_max_sum", self.quality_sum(|q| q.ii_max), "cycles"),
            ("code_ops", self.quality_sum(|q| q.code_ops), "ops"),
        ])
    }

    /// The per-layer metrics of a traced run. Times are summed self time
    /// per round of ops (averaged over the run's rounds); counts are exact
    /// sums over the reference prefix.
    pub fn per_layer(&self) -> Metrics {
        let probe = self
            .probe
            .as_ref()
            .expect("per-layer metrics need a traced run");
        let spans = probe.spans();
        let self_us = probe.self_us();
        let per_round = 1.0 / self.rounds as f64;
        let op_self = |name: &str| -> f64 {
            spans
                .iter()
                .zip(&self_us)
                .filter(|(s, _)| s.op != SETUP_OP && s.name == name)
                .map(|(_, us)| us)
                .sum::<f64>()
                * per_round
        };
        // Set-up layers: median over the set-ups.
        let setup_self = |name: &str| -> f64 {
            let per_setup: Vec<f64> = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.op == SETUP_OP && s.parent.is_none())
                .map(|(root, _)| {
                    spans
                        .iter()
                        .zip(&self_us)
                        .filter(|(s, _)| s.parent == Some(root) && s.name == name)
                        .map(|(_, us)| us)
                        .sum()
                })
                .collect();
            percentile(&per_setup, 0.5)
        };
        let time = |name: &str| self.times_us.get(name).copied().unwrap_or(0.0) * per_round;
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let traced_ms: f64 = self.ops.values().flat_map(|r| &r.ms).sum();
        let phases = ["candidate_gen", "apply", "compact", "codegen", "score"];
        let worker_us: f64 = phases
            .iter()
            .map(|p| time(&format!("core.phase.{p}_us")))
            .sum();

        let mut out: Metrics = vec![
            ("core.pipeline_us", op_self("core.pipeline"), "us"),
            ("core.worker_us", worker_us, "us"),
            (
                "core.phase.candidate_gen_us",
                time("core.phase.candidate_gen_us"),
                "us",
            ),
            ("core.phase.apply_us", time("core.phase.apply_us"), "us"),
            ("core.phase.compact_us", time("core.phase.compact_us"), "us"),
            ("core.phase.codegen_us", time("core.phase.codegen_us"), "us"),
            ("core.phase.score_us", time("core.phase.score_us"), "us"),
        ];
        for name in [
            "core.candidates",
            "core.rounds",
            "core.pruned",
            "core.moves",
            "core.wraps",
            "core.splits",
        ] {
            out.push((name, count(name), "count"));
        }
        out.extend([
            (
                "core.accept_ratio",
                ratio(count("core.rounds"), count("core.candidates")),
                "ratio",
            ),
            ("pred.disjoint_tests", count("pred.disjoint_tests"), "count"),
            ("pred.subsume_tests", count("pred.subsume_tests"), "count"),
            ("pred.conjoins", count("pred.conjoins"), "count"),
            (
                "pred.memo_hit_rate",
                ratio(
                    count("pred.memo_hits"),
                    count("pred.memo_hits") + count("pred.memo_misses"),
                ),
                "ratio",
            ),
            ("machine.blocks", self.quality_sum(|q| q.blocks), "count"),
            (
                "machine.body_ops",
                self.quality_sum(|q| q.body_ops),
                "count",
            ),
            ("sim.equiv_us", op_self("sim.equiv"), "us"),
            ("sim.trials", count("sim.trials"), "count"),
            ("sim.cycles", count("sim.cycles"), "count"),
            ("sim.decoded_ops", count("sim.decoded_ops"), "count"),
            ("sim.decoded_busy_us", time("sim.decoded_busy_us"), "us"),
            ("verify.schedule_us", op_self("verify.schedule"), "us"),
            ("verify.vliw_us", op_self("verify.vliw"), "us"),
            ("verify.modulo_us", op_self("verify.modulo"), "us"),
            ("verify.violations", count("verify.violations"), "count"),
            ("lang.compile_us", op_self("lang.compile"), "us"),
            ("lang.src_bytes", count("lang.src_bytes"), "bytes"),
            ("baselines.seq_us", op_self("baselines.seq"), "us"),
            ("baselines.local_us", op_self("baselines.local"), "us"),
            ("baselines.ems_us", op_self("baselines.ems"), "us"),
            ("opt.certify_us", op_self("opt.certify"), "us"),
            ("opt.nodes", count("opt.nodes"), "count"),
            (
                "opt.certified_ratio",
                ratio(count("opt.certified"), count("opt.certify_calls")),
                "ratio",
            ),
            ("kernels.inputs_us", setup_self("kernels.inputs"), "us"),
            (
                "setup.compile_us",
                setup_self("core.pipeline") + setup_self("baselines.local"),
                "us",
            ),
            ("setup.golden_us", setup_self("kernels.golden"), "us"),
            ("op.self_us", op_self("op"), "us"),
            ("trace.spans", spans.len() as f64, "count"),
            ("trace.op_ms_p50", percentile(&self.op_ms(), 0.5), "ms"),
            ("trace.ops_per_s", self.ops_per_s(), "ops/s"),
            (
                "trace.overhead_pct",
                (traced_ms / self.twin_ms - 1.0) * 100.0,
                "%",
            ),
        ]);
        out
    }
}
