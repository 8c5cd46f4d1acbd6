//! The whole benchmark at the smoke size (well under 2 s per workload):
//! every workload, traced and untraced, must come back correct; the same
//! seed must repeat every input and every count; and `BENCHMARK.json` must
//! name exactly what the code prints.

use igc_benchmark::gen::{Sizes, Workload};
use igc_benchmark::run::{self, Config, Report, END_TO_END};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    // Tests run on parallel threads: each run gets a directory of its own.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Config {
        workload,
        seed,
        seconds: 1,
        trace,
        sizes: Sizes::SMOKE,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{n}")),
        trace_out: None,
    }
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    let cfg = config(workload, seed, trace);
    let report = run::run(&cfg).expect("the run completes");
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    assert!(
        report.correct && report.failed == 0,
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        report.failures
    );
    assert!(report.attempted > 0);
    report
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn every_workload_is_correct_and_prints_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = smoke(w, 42, false);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for m in &r.metrics {
            assert!(m.value > 0.0, "{} {} must never be 0", w.name(), m.name);
        }
    }
}

/// Names and units of the metrics of a report.
fn names(r: &Report) -> Vec<(String, &'static str)> {
    r.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

#[test]
fn every_workload_traces_and_prints_the_same_per_layer_metrics() {
    let reference = names(&smoke(Workload::SteadyViews, 42, true));
    assert_eq!(reference.len(), 76);
    for w in Workload::ALL {
        let r = smoke(w, 42, true);
        assert_eq!(names(&r), reference, "{}", w.name());
        assert!(value(&r, "trace.spans") > 0.0);
        // The layers each workload is built to exercise are exercised.
        match w {
            Workload::DurableRecover => {
                assert!(value(&r, "ingest.ticks") > 0.0);
                assert!(value(&r, "log.sync_us") > 0.0);
                assert!(value(&r, "replica.catchup_ms") > 0.0);
            }
            Workload::PinnedServing => assert!(value(&r, "snapshot.window_max") >= 5.0),
            _ => {
                assert_eq!(value(&r, "ingest.ticks"), 0.0);
                assert!(value(&r, "snapshot.window_max") <= 2.0);
            }
        }
    }
}

/// Per-layer metrics that are counts of work, not times.
const COUNTS: [&str; 17] = [
    "graph.dropped_share",
    "rpq.work_per_update",
    "rpq.work_per_aff",
    "scc.work_per_update",
    "scc.work_per_aff",
    "kws.work_per_update",
    "kws.work_per_aff",
    "iso.work_per_update",
    "iso.work_per_aff",
    "rules.work_per_update",
    "rules.work_per_aff",
    "log.bytes_per_update",
    "log.checkpoint_bytes",
    "log.syncs_per_1k_appends",
    "snapshot.window_max",
    "snapshot.cells_max",
    "trace.spans",
];

#[test]
fn same_seed_repeats_hash_operations_and_counts() {
    // `durable_recover` is left out of the count comparison on purpose:
    // how the tick thread groups a wave's submissions is a race the API
    // allows, so its per-tick work may differ between runs. Its inputs,
    // operations and sample counts still repeat.
    for w in Workload::ALL {
        let (a, b) = (smoke(w, 7, false), smoke(w, 7, false));
        assert_eq!(a.stream_hash, b.stream_hash);
        assert_eq!(a.attempted, b.attempted, "{}", w.name());
        assert_eq!(
            (a.commit_samples, a.read_samples),
            (b.commit_samples, b.read_samples)
        );
        assert_ne!(a.stream_hash, smoke(w, 8, false).stream_hash);
        if w != Workload::DurableRecover {
            let (a, b) = (smoke(w, 7, true), smoke(w, 7, true));
            assert_eq!(a.attempted, b.attempted);
            for name in COUNTS {
                assert_eq!(value(&a, name), value(&b, name), "{} {name}", w.name());
            }
        }
    }
}

#[test]
fn benchmark_json_names_what_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let per_layer = names(&smoke(Workload::SteadyViews, 42, true));
    let mut expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    expected.extend(END_TO_END.iter().map(|(n, _)| (*n).to_owned()));
    expected.extend(per_layer.iter().map(|(n, _)| n.clone()));
    for name in &expected {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} not in BENCHMARK.json"
        );
    }
    assert_eq!(text.matches("\"name\":").count(), expected.len());
    let units = END_TO_END
        .iter()
        .copied()
        .chain(per_layer.iter().map(|(n, u)| (n.as_str(), *u)));
    for (name, unit) in units {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "{name} should have unit {unit}");
    }
}
