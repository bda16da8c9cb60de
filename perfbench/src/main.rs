//! End-to-end and per-layer benchmark of the full simulation stack.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload light-tune --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Every run measures the untraced workload
//! for about `--seconds`, then runs it once traced, then checks the
//! outputs. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones; the last stdout line is the JSON result. A readable
//! report (host fingerprint, sample counts, layer self times, failed
//! checks, comparison with earlier same-host results) goes to stderr.
//! Scratch files live under `.perfbench/` and are removed; the span dump
//! and the result log stay there.

mod checks;
mod host;
mod report;
mod single;
mod stats;
mod sweep;
mod trace;
mod workloads;

use checks::Checks;
use report::{result_line, Values, END_TO_END, PER_LAYER};
use stats::Layer;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Kind;

/// Where scratch files, span dumps and the result log go.
const OUT_DIR: &str = ".perfbench";

/// What one workload run produced.
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// End-to-end metric values.
    pub e2e: Values,
    /// Per-layer metric values.
    pub layers: Values,
    /// Self times of the traced region's layers.
    pub region: Vec<Layer>,
    /// The traced region's wall time times its threads, ns.
    pub capacity_ns: f64,
    /// Sample counts and other context for the report.
    pub notes: Vec<String>,
    /// The traced run's spans, as tab-separated lines.
    pub spans: Vec<String>,
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <light-tune|saturated-tune-s2|sweep-j2> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: want {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Settings the simulator reads from the environment would change what is
/// measured; the benchmark fixes them itself.
fn clear_environment() {
    for var in [
        "STCC_AUDIT",
        "STCC_CKPT_DIR",
        "STCC_CKPT_EVERY",
        "STCC_JOBS",
        "STCC_LIVELOCK_WINDOW",
        "STCC_SHARDS",
        "STCC_STAGE_STATS",
    ] {
        std::env::remove_var(var);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(def) = workloads::by_name(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    clear_environment();
    let host = host::Host::detect();
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = match def.kind {
        Kind::Single(spec) => Ok(single::run(&spec, args.seed, args.seconds)),
        Kind::Sweep(spec) => sweep::run(&spec, args.seed, args.seconds, &work),
    };
    let _ = fs::remove_dir_all(&work);
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    check_trace_bounds(&mut outcome);
    let spans = Path::new(OUT_DIR).join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = fs::write(&spans, outcome.spans.join("\n") + "\n") {
        eprintln!("cannot write {}: {e}", spans.display());
    }
    let (catalogue, values) = if args.trace {
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.e2e)
    };
    let line = result_line(catalogue, values, &mut outcome.checks);
    report(&args, &host, &outcome, catalogue, values);
    println!("{line}");
    ExitCode::SUCCESS
}

/// Bounds on the trace itself, stated in `plan.json`: tracing may slow the
/// run by at most this much...
const MAX_OVERHEAD_PCT: f64 = 50.0;
/// ...and leave at most this share of the traced region unattributed.
const MAX_UNATTRIBUTED_PCT: f64 = 15.0;
/// A remainder below this means some interval was counted twice.
const MIN_UNATTRIBUTED_PCT: f64 = -2.0;

fn check_trace_bounds(o: &mut Outcome) {
    let overhead = o.layers.get("trace.overhead_pct").unwrap_or(f64::NAN);
    let rest = o.layers.get("trace.unattributed_pct").unwrap_or(f64::NAN);
    o.checks.within(
        "trace.overhead_pct",
        overhead,
        -MAX_OVERHEAD_PCT,
        MAX_OVERHEAD_PCT,
    );
    o.checks.within(
        "trace.unattributed_pct",
        rest,
        MIN_UNATTRIBUTED_PCT,
        MAX_UNATTRIBUTED_PCT,
    );
}

fn report(
    args: &Args,
    host: &host::Host,
    o: &Outcome,
    catalogue: &[report::Metric],
    values: &Values,
) {
    let commit = host::commit();
    eprintln!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    eprintln!(
        "host {}: nproc {}, cpu {}, clocksource {}, {}; code {commit}",
        host.key(),
        host.nproc,
        host.cpu,
        host.clocksource,
        host.rustc
    );
    for n in &o.notes {
        eprintln!("  {n}");
    }
    eprintln!("traced region self times:");
    for l in &o.region {
        eprintln!(
            "  {:<12} {:>14.0} ns  {:>6.2} %",
            l.name,
            l.self_ns,
            100.0 * l.self_ns / o.capacity_ns
        );
    }
    let metrics: BTreeMap<String, f64> = catalogue
        .iter()
        .filter_map(|m| values.get(m.name).map(|v| (m.name.to_owned(), v)))
        .collect();
    for m in catalogue {
        if let Some(v) = values.get(m.name) {
            eprintln!("  {:<34} {v:>18.6} {}", m.name, m.unit);
        }
    }
    let failures = o.checks.failures();
    eprintln!(
        "checks: {} attempted, {} failed ({:.4} failed fraction)",
        o.checks.attempted(),
        failures.len(),
        failures.len() as f64 / o.checks.attempted().max(1) as f64
    );
    for f in failures {
        eprintln!("  FAILED: {f}");
    }
    let logged = host::Logged {
        host: host.key(),
        commit,
        workload: args.workload.clone(),
        trace: u8::from(args.trace),
        metrics,
    };
    match host::log_result(&Path::new(OUT_DIR).join("results.tsv"), &logged, args.seed) {
        Ok(earlier) => {
            let cmp = host::compare(&logged, &earlier);
            eprintln!(
                "earlier results: {} from this host, {} foreign (not compared)",
                cmp.same_host, cmp.foreign
            );
            for (name, now, before) in &cmp.rows {
                let change = if *before == 0.0 {
                    String::new()
                } else {
                    format!(" ({:+.2} %)", 100.0 * (now / before - 1.0))
                };
                eprintln!("  {name:<34} {now:>14.6} vs median {before:>14.6}{change}");
            }
        }
        Err(e) => eprintln!("cannot log the result: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload sweep-j2 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "sweep-j2".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn every_workload_resolves() {
        for w in ["light-tune", "saturated-tune-s2", "sweep-j2"] {
            assert!(workloads::by_name(w).is_some());
        }
        assert!(workloads::by_name("nope").is_none());
    }
}
