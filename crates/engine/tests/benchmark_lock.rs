//! The benchmark's lock file, pinned inside tier-1.
//!
//! `BENCHMARK.json` builds `benchmark/` with `--locked`, and
//! `benchmark/Cargo.lock` records the `[dependencies]` of every path crate
//! it pulls in. So dropping (or adding) a dependency of an `igc_*` crate —
//! even one the crate no longer uses — stops the benchmark from building,
//! and a PR may not edit `benchmark/` to follow. This test reads the lock
//! and each manifest it names and fails on the mismatch `--locked` would.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(package name, dependency names)` per `[[package]]` of a lock file.
fn locked(lock: &str) -> Vec<(String, BTreeSet<String>)> {
    let quoted = |line: &str| line.split('"').nth(1).map(str::to_owned);
    lock.split("[[package]]")
        .skip(1)
        .map(|block| {
            let name = block
                .lines()
                .find(|l| l.starts_with("name = "))
                .and_then(quoted)
                .expect("every package has a name");
            let deps = block
                .lines()
                .skip_while(|l| !l.starts_with("dependencies = ["))
                .skip(1)
                .take_while(|l| !l.starts_with(']'))
                // An entry is `"name"` or `"name version"`.
                .filter_map(quoted)
                .map(|d| d.split(' ').next().unwrap_or_default().to_owned())
                .collect();
            (name, deps)
        })
        .collect()
}

/// The keys of a manifest's `[dependencies]` table.
fn declared(manifest: &str) -> BTreeSet<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split(['=', '.']).next())
        .map(|key| key.trim().to_owned())
        .collect()
}

#[test]
fn every_locked_crate_declares_exactly_the_dependencies_the_lock_records() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let packages = locked(&read(&root.join("benchmark/Cargo.lock")));
    assert!(
        packages.iter().any(|(name, _)| name == "igc_engine"),
        "the lock must name the crate this test lives in: {packages:?}"
    );
    for (name, deps) in packages {
        let dir = match name.as_str() {
            "igc_benchmark" => "benchmark".to_owned(),
            "rand" => "crates/compat/rand".to_owned(),
            other => format!("crates/{}", other.trim_start_matches("igc_")),
        };
        let manifest = root.join(dir).join("Cargo.toml");
        assert_eq!(
            declared(&read(&manifest)),
            deps,
            "{} and benchmark/Cargo.lock disagree on `{name}`'s dependencies: \
             `cargo run --locked --manifest-path benchmark/Cargo.toml` will refuse to build",
            manifest.display()
        );
    }
}
