//! `igc_benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! [--trace-out <file>] [--smoke]` — one run of one workload. Prints a
//! header, every metric by name and unit, and as the last line of standard
//! output one JSON object `{correct, attempted, failed, metrics}`.

use igc_benchmark::gen::{Sizes, Workload};
use igc_benchmark::run::{self, Config, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: igc_benchmark --workload <{}> --seed <u64> [--seconds <1..60>] [--trace <0|1>] [--trace-out <file>] [--smoke]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut trace_out = None;
    let mut sizes = Sizes::FULL;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => sizes = Sizes::SMOKE,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        sizes,
        scratch: run::default_scratch(workload, seed),
        trace_out,
    })
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = run::run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &report.header {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("# FAILED {f}");
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}
