//! What the benchmark learns from the machine: who it ran on (header),
//! how much memory it peaked at, and whether a round was disturbed by a
//! neighbour. Everything is read from `/proc` with std only; an absent or
//! unparsable file degrades to `None` ("unknown"), never to an error.

use std::process::Command;
use std::time::{Duration, Instant};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Nanoseconds the calling thread has spent runnable but not running
/// (second field of `/proc/thread-self/schedstat`).
fn runqueue_wait_ns() -> Option<u64> {
    parse_schedstat(&read("/proc/thread-self/schedstat")?)
}

fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Machine-wide `steal` ticks: time the hypervisor gave to someone else
/// (eighth value of the `cpu` line of `/proc/stat`).
fn steal_ticks() -> Option<u64> {
    parse_steal(&read("/proc/stat")?)
}

fn parse_steal(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Share of a block the measuring thread may spend waiting for a core
/// before the round counts as disturbed.
const DISTURBED_WAIT_SHARE: f64 = 0.02;

/// Brackets one timed block. Disturbed rounds are *reported*, never
/// dropped: medians are taken over all rounds.
pub struct Disturbance {
    start: Instant,
    wait_ns: Option<u64>,
    steal: Option<u64>,
}

impl Disturbance {
    pub fn begin() -> Disturbance {
        Disturbance {
            start: Instant::now(),
            wait_ns: runqueue_wait_ns(),
            steal: steal_ticks(),
        }
    }

    /// `Some(true)` if the block was disturbed, `None` if the kernel does
    /// not say.
    pub fn end(self) -> Option<bool> {
        let waited = runqueue_wait_ns()?.saturating_sub(self.wait_ns?);
        let stolen = steal_ticks()?.saturating_sub(self.steal?);
        Some(disturbed(self.start.elapsed(), waited, stolen))
    }
}

fn disturbed(block: Duration, waited_ns: u64, stolen_ticks: u64) -> bool {
    stolen_ticks > 0 || waited_ns as f64 > DISTURBED_WAIT_SHARE * block.as_nanos() as f64
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&read("/proc/self/status")?)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a helper command's output, or "unknown" (the benchmark
/// also runs from a checkout that is not a git repository).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(parse_schedstat("123456 789 42\n"), Some(789));
        assert_eq!(parse_schedstat("garbage"), None);
        let stat = "cpu  10 20 30 40 50 60 70 80 90 100\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(80));
        assert_eq!(parse_steal("intr 5\n"), None);
        assert_eq!(parse_vm_hwm("Name:\tx\nVmHWM:\t   20480 kB\n"), Some(20.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn disturbance_thresholds() {
        let block = Duration::from_millis(100);
        assert!(!disturbed(block, 1_000_000, 0)); // 1 % waiting
        assert!(disturbed(block, 3_000_000, 0)); // 3 % waiting
        assert!(disturbed(block, 0, 1)); // any steal
    }

    #[test]
    fn absent_tools_degrade_to_unknown() {
        assert_eq!(tool_line("definitely-not-a-program", &[]), "unknown");
    }
}
