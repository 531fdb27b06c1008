//! `msplit-server` — one shard of a solve fleet.
//!
//! ```text
//! msplit-server --addr 127.0.0.1:7070 --shard 0 --workers 2
//! ```
//!
//! Prints `LISTENING <addr>` once the socket is bound (launch scripts wait
//! for that line, like they wait for the worker's job files) and serves
//! until killed.  See `docs/serving.md` for fleet layout and
//! `examples/solve_fleet.rs` for an in-process equivalent.

use msplit_serve::{ServeConfig, SolveServer};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: String,
    config: ServeConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServeConfig::default();
    let mut it = std::env::args().skip(1);
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr")?,
            "--shard" => {
                config.shard = value(&mut it, "--shard")?
                    .parse()
                    .map_err(|e| format!("bad shard: {e}"))?
            }
            "--workers" => {
                config.engine.workers = value(&mut it, "--workers")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?
            }
            "--cache" => {
                config.engine.cache_capacity = value(&mut it, "--cache")?
                    .parse()
                    .map_err(|e| format!("bad cache capacity: {e}"))?
            }
            "--lane-limits" => {
                let raw = value(&mut it, "--lane-limits")?;
                let parts: Vec<usize> = raw
                    .split(',')
                    .map(|p| p.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad lane limits '{raw}': {e}"))?;
                if parts.len() != 3 {
                    return Err(format!(
                        "--lane-limits needs three comma-separated numbers, got '{raw}'"
                    ));
                }
                config.lane_limits = [parts[0], parts[1], parts[2]];
            }
            "--help" | "-h" => {
                println!(
                    "msplit-server: one shard of a multisplitting solve fleet\n\
                     usage: msplit-server [--addr host:port] [--shard N] [--workers N]\n\
                     \x20                    [--cache N] [--lane-limits high,normal,low]\n\
                     Prints 'LISTENING <addr>' once bound; serves until killed.\n\
                     See docs/serving.md."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args { addr, config })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("msplit-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match SolveServer::start(&args.addr, args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("msplit-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", server.local_addr());
    // Serve until the process is killed; the fleet has no in-band shutdown
    // (operators stop shards with signals, clients ring-retry around them).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
