//! Traced and untraced runs must report identical counters, code quality
//! and `output_digest`. The predicate and simulator counters are
//! process-wide, so this is the only test in its binary: a test running
//! beside it would bleed into its counts.

use psp_perfbench::fuzz_dsl::FuzzDsl;
use psp_perfbench::measure::Workload;
use psp_perfbench::probe::Probe;

#[test]
fn traced_and_untraced_runs_agree() {
    for name in ["kernels-compile", "kernels-simulate"] {
        let plain = psp_perfbench::run(name, 3, 0.0, false).expect("untraced run");
        let traced = psp_perfbench::run(name, 3, 0.0, true).expect("traced run");
        assert_eq!(plain.failed + traced.failed, 0, "{name}");
        assert_eq!(plain.digest, traced.digest, "{name}: output_digest");
        assert_eq!(plain.counts, traced.counts, "{name}: counters");
        assert_eq!(plain.quality, traced.quality, "{name}: code quality");
        assert!(!traced
            .probe
            .as_ref()
            .expect("spans kept")
            .spans()
            .is_empty());
    }
    // A whole fuzz-dsl prefix is slow; compare single ops instead.
    let mut w = FuzzDsl::setup(4, &mut Probe::new(false)).expect("set-up succeeds");
    for i in 0..6 {
        let plain = w.exec(i, &mut Probe::new(false));
        let plain = w.check(i, plain);
        let mut probe = Probe::new(true);
        let (traced, _) = probe.root("op", i as u32, |p| w.exec(i, p));
        let traced = w.check(i, traced);
        assert_eq!(plain.failure, None, "op {i}");
        assert_eq!(plain.digest, traced.digest, "op {i}");
        assert_eq!(plain.counts, traced.counts, "op {i}");
        assert!(probe.spans().iter().any(|s| s.name == "core.pipeline"));
    }
}
