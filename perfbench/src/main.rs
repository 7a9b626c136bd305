//! `psp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report line (environment, `output_digest`, failure rate and
//! work counts) and then, as the last line, the result object: the
//! end-to-end metrics of an untraced run or the per-layer metrics of a
//! traced one. `--trace-out <file>` also writes every span as JSON lines.
//! `--expect-digest <hex>` fails the run if `output_digest` differs.

use psp_perfbench::{measure::Metrics, run, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    expect_digest: Option<u64>,
    rustc: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        expect_digest: None,
        rustc: "unknown".into(),
        source: "unknown".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?.clone()),
            "--expect-digest" => {
                let v = value()?;
                a.expect_digest =
                    Some(u64::from_str_radix(v, 16).map_err(|e| format!("--expect-digest: {e}"))?)
            }
            "--rustc" => a.rustc = value()?.clone(),
            "--source" => a.source = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// Refuse environments that would change what is measured.
fn check_environment() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing a debug build: its hooks re-run the validators in every compile".into(),
        );
    }
    for var in ["PSP_SIM_ENGINE", "PSP_EQUIV_TRIALS", "PSP_VALIDATE"] {
        if std::env::var_os(var).is_some() {
            return Err(format!("refusing to run with {var} set"));
        }
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(ms: &Metrics) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, value, unit) in ms {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_environment().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("psp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args.workload, args.seed, args.seconds, args.trace).and_then(|m| {
        let metrics = if args.trace {
            m.per_layer()
        } else {
            m.end_to_end()?
        };
        Ok((m, metrics_json(&metrics)?))
    });
    let (m, metrics) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("psp-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(probe)) = (&args.trace_out, &m.probe) {
        if let Err(e) = std::fs::write(path, probe.to_jsonl()) {
            eprintln!("psp-perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut failed = m.failed;
    let mut first_failure = m.first_failure.clone();
    if let Some(want) = args.expect_digest.filter(|&d| d != m.digest) {
        failed += 1;
        first_failure.get_or_insert(format!(
            "output_digest {:016x} differs from the expected {want:016x}",
            m.digest
        ));
    }
    let (samples, min_repeats) = m.repeats();
    let counts: Vec<String> = m
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"driver_threads\": {}, \"engine\": \"decoded\", \"rustc\": {}, \"source\": {}, \
         \"output_digest\": \"{:016x}\", \"fail_rate\": {}, \"first_failure\": {}, \
         \"op_samples\": {}, \"op_keys\": {}, \"min_repeats\": {}, \"rounds\": {}, \
         \"counts\": {{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        psp_perfbench::resolved_threads(0),
        m.driver_threads,
        json_str(&args.rustc),
        json_str(&args.source),
        m.digest,
        m.fail_rate(),
        first_failure
            .as_deref()
            .map_or("null".to_string(), json_str),
        samples,
        m.ops.len(),
        min_repeats,
        m.rounds,
        counts.join(", "),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        m.attempted,
        failed,
        metrics
    );
    ExitCode::SUCCESS
}
