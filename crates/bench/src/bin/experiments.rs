//! Reproduce the paper's evaluation: print paper-style series for every
//! panel of Figure 8 and the in-text experiments.
//!
//! ```text
//! experiments [--scale F] [--no-verify]
//!             [fig8a fig8b … | all | unit | rho | rules | undoable | locality]
//! ```
//!
//! With no figure arguments, everything runs. `--scale` scales the
//! datasets (1.0 = the laptop-sized full datasets; default 0.15) and must
//! be finite and positive. `--no-verify` skips the per-point cross-check
//! against batch recomputation. An unknown id, a malformed flag or an
//! unusable scale prints the usage to stderr and exits with code 2.

use igc_bench::experiments::{self, ExpConfig, ALL_FIGS, IN_TEXT};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: experiments [--scale F] [--no-verify] [--help] [ID …]\n\
         ids: {} | all | {}\n\
         no id = every panel and in-text experiment",
        ALL_FIGS.join(" "),
        IN_TEXT.join(" ")
    )
}

fn bad_input(what: &str) -> ExitCode {
    eprintln!("experiments: {what}\n{}", usage());
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = ExpConfig::default();
    let mut figs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(scale) if scale.is_finite() && scale > 0.0 => cfg.scale = scale,
                _ => return bad_input("--scale needs a finite float > 0"),
            },
            "--no-verify" => cfg.verify = false,
            "all" => figs.extend(ALL_FIGS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => return bad_input(&format!("unknown flag {flag:?}")),
            id => figs.push(id.to_string()),
        }
    }
    if figs.is_empty() {
        figs.extend(ALL_FIGS.iter().chain(&IN_TEXT).map(|s| s.to_string()));
    }

    println!(
        "# Experiments (scale {}, verify {})\n",
        cfg.scale, cfg.verify
    );
    for fig in figs {
        let start = std::time::Instant::now();
        let Some(series) = experiments::run(&fig, &cfg) else {
            return bad_input(&format!("unknown experiment id {fig:?}"));
        };
        println!("{}", series.render());
        eprintln!("[{fig} done in {:.1?}]", start.elapsed());
    }
    ExitCode::SUCCESS
}
