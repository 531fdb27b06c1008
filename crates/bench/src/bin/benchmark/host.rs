//! The machine a result was measured on, and this process's peak memory.

use std::path::PathBuf;
use std::process::Command;

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

/// Host fingerprint as a JSON object: core count, CPU model, compiler and
/// commit id (`unknown` outside a git checkout).
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    let escape = |s: String| s.replace(['"', '\\'], "'");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        escape(cpu),
        escape(first_line("rustc", &["--version"])),
        escape(first_line("git", &["rev-parse", "HEAD"])),
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the harness writes: traces, result files and launcher job
/// directories all stay under the build directory of the checkout.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}
