//! Closed-loop benchmark of the fair-clique workspace.
//!
//! ```text
//! rfc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper-cold`, `bigcomp-warm`, `serve-churn`, `scale-store` (see
//! each module). With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it repeats the same ops under an in-memory span tracer and
//! reports the per-layer metrics. The output opens with a header (commit,
//! `nproc`, rustc, build profile, seed, op counts), then one metric per line
//! with its unit, and ends with one JSON result line. `correct` is false when
//! an op failed its check or a structural self-check failed. Scratch files go under
//! `.bench_work/` in the working directory and are removed at exit.

mod bigcomp_warm;
mod common;
mod paper_cold;
mod report;
mod scale_store;
mod serve_churn;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Outcome};

const USAGE: &str = "usage: rfc-perfbench \
    --workload <paper-cold|bigcomp-warm|serve-churn|scale-store> \
    --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
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

fn env_or_unknown(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen-scale") {
        return gen_scale(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rfc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> Outcome = match args.workload.as_str() {
        "paper-cold" => paper_cold::run,
        "bigcomp-warm" => bigcomp_warm::run,
        "serve-churn" => serve_churn::run,
        "scale-store" => scale_store::run,
        other => {
            eprintln!("rfc-perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("rfc-perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let outcome = run(&ctx);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    match print_outcome(&args, outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rfc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the header, the metric table(s) and the result line. A traced run
/// also measured its untraced ops end to end, and prints both tables.
fn print_outcome(args: &Args, outcome: Outcome) -> Result<(), String> {
    let end_to_end = report::select(&outcome.values, false)?;
    let layers = if args.trace {
        report::select(&outcome.values, true)?
    } else {
        Vec::new()
    };
    let tally = &outcome.tally;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut header = vec![
        ("commit".to_string(), env_or_unknown("PERFBENCH_COMMIT")),
        ("nproc".to_string(), nproc.to_string()),
        ("rustc".to_string(), env_or_unknown("PERFBENCH_RUSTC")),
        ("profile".to_string(), profile.to_string()),
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("ops_attempted".to_string(), tally.attempted.to_string()),
        ("ops_failed".to_string(), tally.failed.to_string()),
        (
            "failed_frac".to_string(),
            stats::ratio(tally.failed as f64, tally.attempted as f64).to_string(),
        ),
    ];
    header.extend(outcome.info);
    println!("# rfc-perfbench");
    for (key, value) in &header {
        println!("{key}: {value}");
    }
    for message in &tally.messages {
        println!("failure: {message}");
        eprintln!("rfc-perfbench: failure: {message}");
    }
    for what in &outcome.broken {
        println!("broken: {what}");
        eprintln!("rfc-perfbench: self-check failed: {what}");
    }
    let metrics = if args.trace {
        println!("## end to end (untraced ops of this run)");
        print!("{}", report::table(&end_to_end));
        println!("## per layer (traced ops)");
        print!("{}", report::table(&layers));
        layers
    } else {
        print!("{}", report::table(&end_to_end));
        end_to_end
    };
    let correct = tally.failed == 0 && outcome.broken.is_empty() && tally.attempted > 0;
    println!(
        "{}",
        report::result_line(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    Ok(())
}

/// `gen-scale --seed <n> --out <path>`: writes the scale-store input and prints
/// the planted vertex ids.
fn gen_scale(args: &[String]) -> ExitCode {
    let (Some(seed), Some(out)) = (
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1)?.parse::<u64>().ok()),
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1)),
    ) else {
        eprintln!("usage: rfc-perfbench gen-scale --seed <n> --out <path>");
        return ExitCode::from(2);
    };
    match scale_store::generate(seed, out.as_ref()) {
        Ok(planted) => {
            println!("{planted}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rfc-perfbench gen-scale: {e}");
            ExitCode::FAILURE
        }
    }
}
