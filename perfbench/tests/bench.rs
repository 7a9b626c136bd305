//! The benchmark's own tests. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use psp_perfbench::fuzz_dsl::{self, FuzzDsl, BLOCK};
use psp_perfbench::kernels_compile::KernelsCompile;
use psp_perfbench::kernels_simulate::KernelsSimulate;
use psp_perfbench::measure::Workload;
use psp_perfbench::probe::Probe;
use psp_verify::grammar::{self, SplitMix64};

fn setup<W: Workload>(seed: u64) -> W {
    W::setup(seed, &mut Probe::new(false)).expect("set-up succeeds")
}

#[test]
fn fuzz_stage_list_gives_run_oracle_verdict() {
    let mut w: FuzzDsl = setup(7);
    for i in 0..12 {
        let src = w.texts()[i].src.clone();
        let spec = psp_lang::compile(&src).expect("generated text compiles");
        let oracle = psp_verify::run_oracle(&spec)
            .map(|_| ())
            .map_err(|f| f.stage);
        assert_eq!(w.run_op(i).verdict(), oracle, "text {i}:\n{src}");
    }
}

#[test]
fn seed_determines_the_draw() {
    let texts = |seed| -> Vec<String> {
        setup::<FuzzDsl>(seed)
            .texts()
            .iter()
            .map(|t| t.src.clone())
            .collect()
    };
    assert_eq!(texts(5), texts(5));
    assert_ne!(texts(5), texts(6));
    let compile = |seed| setup::<KernelsCompile>(seed).setup_digest();
    assert_eq!(compile(5), compile(5));
    assert_ne!(compile(5), compile(6));
    let simulate = |seed| setup::<KernelsSimulate>(seed).setup_digest();
    assert_eq!(simulate(5), simulate(5));
    assert_ne!(simulate(5), simulate(6));
}

#[test]
fn if_count_distribution_matches_the_grammar() {
    let dist = fuzz_dsl::if_count_distribution();
    assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let draws = 40_000;
    let mut seen = vec![0usize; dist.len()];
    let mut rng = SplitMix64(99);
    for _ in 0..draws {
        seen[fuzz_dsl::n_ifs(&grammar::random_body(&mut rng))] += 1;
    }
    for (k, (&p, &n)) in dist.iter().zip(&seen).enumerate() {
        let sd = (p * (1.0 - p) * draws as f64).sqrt();
        assert!(
            (n as f64 - p * draws as f64).abs() <= 5.0 * sd + 1.0,
            "{k} IFs: drew {n}, expected {:.1}",
            p * draws as f64
        );
    }
    let quotas = fuzz_dsl::block_quotas(BLOCK);
    assert_eq!(quotas.iter().sum::<usize>(), BLOCK);
    let block = fuzz_dsl::draw_block(&mut SplitMix64(1), &quotas);
    let mut hist = vec![0usize; quotas.len()];
    for b in &block {
        hist[fuzz_dsl::n_ifs(b)] += 1;
    }
    assert_eq!(hist, quotas);
}
