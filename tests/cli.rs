//! End-to-end tests of the `pspc` command-line driver: each subcommand is
//! invoked as a real subprocess on a temp DSL file, and output / exit codes
//! are checked. The `run` and `compare` paths execute the compiled loops
//! and verify them, so these also act as a final system test.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn pspc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pspc"))
        .args(args)
        .output()
        .expect("pspc runs")
}

/// Write `src` to a fresh temp file. Every call gets its own path: tests
/// run in parallel, and rewriting a shared file could hand another test's
/// `pspc` a truncated kernel.
fn write_kernel(name: &str, src: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("pspc-test-{name}-{}-{n}.psp", std::process::id()));
    std::fs::write(&path, src).unwrap();
    path
}

fn vecmin_file() -> PathBuf {
    write_kernel(
        "vecmin",
        "kernel vecmin(n, k, m; x[]) -> m {
            xk = x[k]; xm = x[m];
            if (xk < xm) { m = k; }
            k = k + 1;
            break if (k >= n);
        }",
    )
}

#[test]
fn compile_reports_paper_ii_and_emits_schedule_and_cfg() {
    let f = vecmin_file();
    let out = pspc(&["compile", f.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("II 2"), "paper Fig. 1c II:\n{text}");
    assert!(text.contains("== schedule"), "{text}");
    assert!(text.contains("== generated loop"), "{text}");
    assert!(text.contains("ops/cycle"), "{text}");
}

#[test]
fn compile_emit_dot_is_wellformed_graphviz() {
    let f = vecmin_file();
    let out = pspc(&["compile", f.to_str().unwrap(), "--emit", "dot"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("digraph"));
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert!(!text.contains("\\\\l"), "double-escaped line separators");
}

#[test]
fn run_executes_and_verifies() {
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--n", "64", "--seed", "7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("executed 64 iterations"), "{text}");
    assert!(text.contains("verified"), "{text}");
    assert!(text.contains("m = "), "live-out printed:\n{text}");
}

#[test]
fn run_profile_measures_and_uses_branch_probabilities() {
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--n", "128", "--profile"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("measured branch profile"), "{text}");
    assert!(text.contains("verified"), "{text}");
}

#[test]
fn run_trace_shows_cycles_and_squashed_guards() {
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--n", "16", "--trace", "8"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("first 8 cycles"), "{text}");
    assert!(text.contains("pre "), "prologue cycles traced:\n{text}");
    assert!(text.contains("B0 "), "body cycles traced:\n{text}");
    assert!(text.contains("~~"), "guard-squashed ops marked:\n{text}");
    assert!(text.contains("verified"), "{text}");
}

#[test]
fn compare_runs_every_technique_and_psp_wins() {
    let f = vecmin_file();
    let out = pspc(&["compare", f.to_str().unwrap(), "--n", "256"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    for label in [
        "sequential",
        "local scheduling",
        "unroll x4",
        "EMS modulo",
        "PSP",
    ] {
        assert!(text.contains(label), "missing {label}:\n{text}");
    }
    assert!(text.contains("all compiled loops verified"), "{text}");
    // PSP's verified cycles/iter on the wide default machine is 2.00 —
    // strictly better than local scheduling's 3.00.
    let cpi = |label: &str| -> f64 {
        let line = text.lines().find(|l| l.starts_with(label)).unwrap();
        let fields: Vec<&str> = line.split_whitespace().collect();
        fields[fields.len() - 2].parse().unwrap()
    };
    assert!(cpi("PSP (this paper)") < cpi("local scheduling"), "{text}");
}

#[test]
fn machine_and_technique_flags_change_the_result() {
    let f = vecmin_file();
    let narrow = pspc(&[
        "compile",
        f.to_str().unwrap(),
        "--machine",
        "2,1,1",
        "--emit",
        "schedule",
    ]);
    assert!(narrow.status.success());
    let narrow = String::from_utf8(narrow.stdout).unwrap();
    assert!(narrow.contains("II 3"), "narrow machine II:\n{narrow}");

    let depth0 = pspc(&[
        "compile",
        f.to_str().unwrap(),
        "--depth",
        "0",
        "--emit",
        "schedule",
    ]);
    assert!(depth0.status.success());
    let depth0 = String::from_utf8(depth0.stdout).unwrap();
    assert!(
        depth0.contains("II 3"),
        "depth 0 = local scheduling:\n{depth0}"
    );
    assert!(depth0.contains("depth 0"), "{depth0}");
}

#[test]
fn kernels_lists_the_builtin_suite() {
    let out = pspc(&["kernels"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["vecmin", "cond_sum", "bubble_pass", "mac_cond"] {
        assert!(text.contains(name), "{text}");
    }
}

#[test]
fn errors_exit_nonzero_with_messages() {
    // Missing file.
    let out = pspc(&["compile", "/nonexistent-kernel.psp"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nonexistent"));

    // Parse error in the DSL.
    let bad = write_kernel("bad", "kernel broken(n; x[]) { v = x[ }");
    let out = pspc(&["compile", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // Unknown scalar in --set.
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--set", "zzz=1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no such scalar"));

    // Unknown flag.
    let out = pspc(&["compile", f.to_str().unwrap(), "--bogus"]);
    assert!(!out.status.success());

    // Bad --machine shape.
    let out = pspc(&["compile", f.to_str().unwrap(), "--machine", "8,4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ALU,MEM,BR"));
}

#[test]
fn set_controls_initial_registers() {
    // A threshold kernel where the count depends on `t`: with t above the
    // data range the count is 0; with t below it, the count is n.
    let f = write_kernel(
        "thr",
        "kernel thr(n, k, t, cnt; x[]) -> cnt {
            v = x[k];
            if (v > t) { cnt = cnt + 1; }
            k = k + 1;
            break if (k >= n);
        }",
    );
    for (t, expect) in [(1000, 0i64), (-1000, 32)] {
        let out = pspc(&[
            "run",
            f.to_str().unwrap(),
            "--n",
            "32",
            "--set",
            &format!("t={t}"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(&format!("cnt = {expect}")), "t={t}:\n{text}");
    }
}
