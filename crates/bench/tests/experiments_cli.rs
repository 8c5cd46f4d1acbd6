//! `experiments` refuses a `--scale` it cannot run at: exit code 2 and the
//! usage on stderr, as for an unknown id or flag; and the RPQ and SCC
//! panels and `rules` print the incremental arm's maintenance counters
//! beside the timings.

use std::process::Command;

#[test]
fn unusable_scale_exits_2() {
    for scale in ["nan", "inf", "0", "-1", "half"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--scale", scale, "undoable"])
            .output()
            .expect("the experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: experiments"));
    }
}

#[test]
fn scc_and_rules_series_print_their_maintenance_counters() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "0.02", "fig8b", "fig8c", "rules"])
        .output()
        .expect("the experiments binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let header = |first: &str| {
        text.lines()
            .find(|l| l.starts_with('|') && l.contains(first))
            .unwrap_or_else(|| panic!("no counters table with {first:?} in:\n{text}"))
    };
    let rpq = header(" flagged |");
    for column in ["resettled", "created", "removed"] {
        assert!(rpq.contains(&format!(" {column} |")), "{rpq}");
    }
    let scc = header(" tree_hits |");
    for column in ["reattached", "carved", "fallbacks"] {
        assert!(scc.contains(&format!(" {column} |")), "{scc}");
    }
    let rules = header(" suspects |");
    for column in ["overdeleted", "rederived"] {
        assert!(rules.contains(&format!(" {column} |")), "{rules}");
    }
}
