//! svmbench — one two-clock benchmark of the SCC/MetalSVM stack.
//!
//! Simulated time is the product (the paper's Table 1 and Figures 6, 7
//! and 9, the svm-kv tail); host time is what producing it costs. Both
//! are measured here, end to end and layer by layer, from outside: by
//! timing calls into the layer crates' public functions.
//!
//! ```text
//! svmbench --workload W --seed S --seconds T --trace 0|1   one workload, one JSON line (BENCHMARK.json's command)
//! svmbench [--seed S] [--reps N] [--trace 0|1] [--out F]   every workload, tables + one result file
//!          [--plain BINARY]                                with --trace 1: the default build, for host-time reps
//! svmbench --compare A.json B.json                         B against A under the benchmark's bounds
//! svmbench --list                                          the content of BENCHMARK.json
//! ```
//!
//! See README.md beside this crate for why each workload and metric is
//! here and how to read the output.

mod child;
mod compare;
mod driver;
mod json;
mod probes;
mod span;
mod spec;
mod stats;
mod sys;
mod workloads;

use driver::{Budget, Report};
use json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// `KvConfig.seed`'s value in every harness of the repository.
const DEFAULT_SEED: u64 = 0x5CC4B;
const DEFAULT_REPS: usize = 5;

const NO_REFERENCE: &str =
    "note: Table 1 is the data the timing model was calibrated on, and Figures 6, 7 and 9 \
print no values, so the model has NO held-out numeric reference: paper.err_max_pct is a \
calibration residual, and Fig 9 is checked by shape only.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: usize,
    trace: bool,
    /// The default-features build, for the traced run's host-time reps.
    plain: Option<String>,
    out: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        reps: DEFAULT_REPS,
        trace: false,
        plain: None,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad(&v));
                }
                a.seconds = Some(s);
            }
            "--reps" => {
                let v = value()?;
                a.reps = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=1000).contains(n))
                    .ok_or(bad(&v))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--plain" => a.plain = Some(value()?),
            "--out" => a.out = Some(value()?),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (try --workload W, --seed S, --seconds T, \
                     --reps N, --trace 0|1, --plain BINARY, --out FILE, --compare A B, --list)"
                ))
            }
        }
    }
    Ok(a)
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn measure(workload: &'static str, a: &Args, cpu: Option<usize>) -> Result<Report, String> {
    if a.trace {
        if !cfg!(feature = "trace") {
            return Err("the traced run needs a build with `--features trace`".into());
        }
        let plain = match &a.plain {
            Some(path) => path.into(),
            None => {
                eprintln!(
                    "svmbench: no --plain binary given: the per-layer host numbers come from \
                     this trace-feature build, which is slower than the one users run"
                );
                driver::own_binary()?
            }
        };
        driver::measure_traced(workload, a.seed, cpu, &plain, &out_dir())
    } else {
        let budget = a.seconds.map_or(Budget::Reps(a.reps), Budget::Seconds);
        driver::measure(workload, a.seed, budget, cpu)
    }
}

/// One workload; the last line of standard output is the contract's JSON.
fn run_one(name: &str, a: &Args) -> Result<bool, String> {
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("no workload {name:?} (see --list)"))?
        .name;
    let report = measure(workload, a, driver::pick_cpu())?;
    eprint!("{}", report.render());
    println!("{}", report.contract_line());
    Ok(report.correct())
}

/// Every workload in turn, then the checks that need more than one.
fn run_suite(a: &Args) -> Result<bool, String> {
    let cpu = driver::pick_cpu();
    let mut ok = true;
    let mut reports = Vec::new();
    for w in &spec::WORKLOADS {
        let report = measure(w.name, a, cpu)?;
        eprint!("{}", report.render());
        ok &= report.correct();
        reports.push(report);
    }
    let sim_mcyc: BTreeMap<&str, f64> = reports
        .iter()
        .filter_map(|r| {
            let s = r.end_to_end.iter().find(|(n, _)| *n == "sim_mcyc")?.1;
            Some((r.workload, s.median))
        })
        .collect();
    let fig9 = driver::fig9_order_holds(&sim_mcyc);
    if let Some(holds) = fig9 {
        eprintln!(
            "Fig 9 shape (iRCCE < SVM lazy <= SVM strong at 48 cores): {}",
            if holds { "holds" } else { "VIOLATED" }
        );
        ok &= holds;
    }
    eprintln!("{NO_REFERENCE}");

    let reps = a
        .seconds
        .map_or(format!("{} reps", a.reps), |s| format!("{s} s"));
    let doc = Json::obj([
        ("manifest", sys::manifest(a.seed, &reps, cpu)),
        ("traced", Json::Bool(a.trace)),
        ("correct", Json::Bool(ok)),
        ("fig9_order_holds", fig9.map_or(Json::Null, Json::Bool)),
        (
            "workloads",
            Json::obj(reports.iter().map(|r| (r.workload, r.to_json()))),
        ),
    ])
    .pretty();
    match &a.out {
        Some(path) => std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{doc}"),
    }
    Ok(ok)
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("--compare needs two result files".into());
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (text, ok) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{text}");
    Ok(ok)
}

fn main() -> ExitCode {
    // Taken before anything else: a child's set-up time counts from here.
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("--child") => {
            let result = match args.get(1).map(String::as_str) {
                Some("run") => child::run_rep(epoch, &args[2..]),
                Some("probes") => child::run_probes(epoch, &args[2..]),
                other => Err(format!("no child mode {other:?}")),
            };
            result.map(|v| {
                println!("{}", v.compact());
                true
            })
        }
        Some("--list") => spec::validate(&spec::WORKLOADS, &spec::END_TO_END, &spec::per_layer())
            .map(|()| {
                print!("{}", spec::benchmark_json().pretty());
                true
            }),
        Some("--compare") => compare_files(&args[1..]),
        _ => parse_args(args.into_iter()).and_then(|a| match a.workload.clone() {
            Some(name) => run_one(&name, &a),
            None => run_suite(&a),
        }),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("svmbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_contracts_command_line_parses() {
        let a = parse("--workload kv_lrc_512 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("kv_lrc_512"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        let a = parse("").unwrap();
        assert_eq!(
            (a.seed, a.reps, a.trace),
            (DEFAULT_SEED, DEFAULT_REPS, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--reps 0",
            "--trace yes",
            "--quick",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
