//! Differential fuzzing: generate random loops with conditions, compile
//! them with every technique, and check observational equivalence against
//! the reference interpreter on multiple inputs.
//!
//! This is the strongest correctness argument in the suite: the PSP
//! scheduler's transformations (speculation, renaming, combining,
//! substitution, splitting, wrapping) must preserve semantics on loop
//! shapes nobody hand-picked. Every PSP result must also pass the
//! independent psp-verify validators, which re-check the schedule and the
//! generated code on the sparse reference algebra. The loop generator is
//! shared with the exact-certifier property suite (`tests/common/mod.rs`).

mod common;

use common::*;
use proptest::prelude::*;
use psp::prelude::*;
use psp::verify::{validate_schedule, validate_vliw};

/// The independent validators must accept the PSP schedule and program.
fn assert_validates(spec: &LoopSpec, machine: &MachineConfig, res: &PspResult, label: &str) {
    let v = validate_schedule(spec, machine, &res.schedule);
    assert!(v.is_empty(), "[{label}] schedule violations: {v:?}");
    let v = validate_vliw(spec, machine, &res.program);
    assert!(v.is_empty(), "[{label}] program violations: {v:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: CASES,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_loops_all_techniques_equivalent(body in arb_body()) {
        let spec = build_spec(&body);
        prop_assert!(spec.validate().is_ok(), "generator produced invalid spec");

        let wide = MachineConfig::paper_default();
        check_prog(&spec, &compile_sequential(&spec), "seq");
        check_prog(&spec, &compile_local(&spec, &wide), "local");
        check_prog(&spec, &compile_unrolled(&spec, 3, &wide), "unroll3");
        let res = pipeline_loop(&spec, &PspConfig::default()).expect("psp pipelines");
        assert_validates(&spec, &wide, &res, "psp");
        check_prog(&spec, &res.program, "psp");
    }

    #[test]
    fn random_loops_narrow_machine(body in arb_body()) {
        let spec = build_spec(&body);
        let narrow = MachineConfig::narrow(2, 1, 1);
        check_prog(&spec, &compile_local(&spec, &narrow), "local-narrow");
        let res = pipeline_loop(&spec, &PspConfig::with_machine(narrow.clone()))
            .expect("psp pipelines");
        assert_validates(&spec, &narrow, &res, "psp-narrow");
        check_prog(&spec, &res.program, "psp-narrow");
    }
}

/// The shrunk counterexample recorded in `fuzz_random_loops.proptest-regressions`
/// (nested IFs whose inner predicate feeds a conditional accumulation),
/// pinned as an explicit test so the case survives even when the proptest
/// runner does not replay the regressions file.
#[test]
fn regression_nested_if_conditional_accumulate() {
    let body = vec![
        S::If(0, 98, 117, vec![S::LoadX(2)], vec![]),
        S::If(
            3,
            0,
            135,
            vec![S::If(2, 0, 1, vec![S::Alu(1, 0, 19, 53)], vec![])],
            vec![],
        ),
        S::If(
            0,
            41,
            132,
            vec![S::Alu(0, 1, 82, 51), S::AccAdd(152)],
            vec![],
        ),
    ];
    let spec = build_spec(&body);
    assert!(spec.validate().is_ok());
    let wide = MachineConfig::paper_default();
    check_prog(&spec, &compile_sequential(&spec), "seq");
    check_prog(&spec, &compile_local(&spec, &wide), "local");
    check_prog(&spec, &compile_unrolled(&spec, 3, &wide), "unroll3");
    let res = pipeline_loop(&spec, &PspConfig::default()).expect("psp pipelines");
    check_prog(&spec, &res.program, "psp");
    let narrow = MachineConfig::narrow(2, 1, 1);
    let res = pipeline_loop(&spec, &PspConfig::with_machine(narrow)).expect("psp pipelines");
    check_prog(&spec, &res.program, "psp-narrow");
}
