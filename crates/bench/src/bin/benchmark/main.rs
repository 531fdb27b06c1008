//! `benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--seed <n>] [--seconds <s>] [--quick]
//! ```
//!
//! The first form runs one workload in this process and ends with one JSON
//! line (the form `BENCHMARK.json` at the repository root is driven in).  The
//! second runs every workload, untraced and traced, each in a child process
//! of its own, and writes what they reported under the build directory.  See
//! `README.md` in this directory for the workloads and the metrics.

mod check;
mod host;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod solve;
mod stats;
mod trace;

use metrics::{RunArgs, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

/// Length of a timed section unless `--seconds` says otherwise; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// A timed section that runs this long (and was not asked to) is an error.
const TIMED_LIMIT_SECONDS: f64 = 30.0;

struct Cli {
    workload: Option<String>,
    args: RunArgs,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>] \
         [--quick]\n  workloads: {}\n  without --workload every workload runs, untraced and \
         traced, each in its own process\n  --quick divides run length and warm-up by 20 and \
         writes no result file",
        names.join(", ")
    )
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 || s > 600.0 {
                    return Err(format!("seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => cli.args.quick = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    cli.args.seconds = match (seconds, cli.args.quick) {
        (Some(s), _) => s,
        (None, true) => DEFAULT_SECONDS / 20.0,
        (None, false) => DEFAULT_SECONDS,
    };
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|w| w.0 == name) {
            return Err(format!("unknown workload {name}\n{}", usage()));
        }
    }
    Ok(cli)
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &RunArgs) -> Result<RunResult, String> {
    let out_dir = host::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    if let Some(spec) = solve::spec(name) {
        solve::run(&spec, args)
    } else if let Some(scenario) = serve::scenario(name) {
        serve::run(name, scenario, args)
    } else {
        Err(format!("unknown workload {name}"))
    }
}

/// Single-workload mode: prints every metric by name with its unit, then the
/// result line.  Fails when an operation failed or the run overran.
fn single(name: &str, args: &RunArgs) -> ExitCode {
    let result = match run_workload(name, args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (metric, unit) in names {
        if let Some(value) = result.values.get(metric) {
            println!("{name} {metric} {value} {unit}");
        }
    }
    let fail_share = result.tally.failed as f64 / result.tally.attempted.max(1) as f64;
    println!("{name} fail_share {fail_share}");
    for reason in &result.tally.reasons {
        println!("{name} failure: {reason}");
    }
    println!("{}", result.json_line(names));
    let overran =
        result.timed_seconds >= TIMED_LIMIT_SECONDS && args.seconds < TIMED_LIMIT_SECONDS / 1.5;
    if overran {
        eprintln!(
            "benchmark: {name}: the timed section took {:.1} s",
            result.timed_seconds
        );
    }
    if result.tally.failed > 0 || overran {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// All-workloads mode: one child process per workload and trace setting.
/// Collects each child's result line with the host fingerprint.
fn all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = host::fingerprint_json();
    println!("host {host}");
    let mut lines = Vec::new();
    let mut ok = true;
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(args.quick.then_some("--quick"))
                .stdout(Stdio::piped());
            let output = match child.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("benchmark: spawn {name}: {e}");
                    ok = false;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            ok &= output.status.success();
            // A child that could not measure prints no result line.
            if let Some(result) = text.lines().last().filter(|l| l.starts_with('{')) {
                lines.push(format!(
                    "{{\"workload\": \"{name}\", \"trace\": {trace}, \"seed\": {}, \"seconds\": {}, \
                     \"host\": {host}, \"result\": {result}}}",
                    args.seed, args.seconds
                ));
            }
        }
    }
    if !args.quick {
        let path = host::out_dir().join(format!("results-seed{}.jsonl", args.seed));
        let written = std::fs::create_dir_all(host::out_dir())
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|mut file| lines.iter().try_for_each(|line| writeln!(file, "{line}")));
        match written {
            Ok(()) => println!("results: {}", path.display()),
            Err(e) => {
                eprintln!("benchmark: write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one workload failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) => single(name, &cli.args),
        None => all(&cli.args),
    }
}
