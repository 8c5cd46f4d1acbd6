//! Engine commit pipeline: all four view classes registered on one
//! churning generator-built graph, measuring `Engine::commit` end to end
//! (normalize once → apply ΔG once → fan out to every view) — plus a
//! receipt-overhead series (`tiny_views`) that isolates the per-commit
//! bookkeeping cost: with `Arc<str>` registry labels a receipt entry is a
//! refcount bump, where the v1 engine cloned every label `String` into
//! every receipt of every commit.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use igc_bench::workloads;
use igc_core::{IncView, WorkStats};
use igc_engine::{CommitMode, Engine};
use igc_graph::generator::{random_update_batch, Dataset};
use igc_graph::{DynamicGraph, Update, UpdateBatch};
use igc_iso::IncIso;
use igc_kws::IncKws;
use igc_rpq::IncRpq;
use igc_scc::IncScc;

const SCALE: f64 = 0.02;

/// A view whose `apply` is (almost) free, so a commit over many of them
/// measures the engine's per-view overhead: timing, work attribution, and
/// receipt construction (label sharing included).
#[derive(Clone)]
struct TinyView {
    edges: usize,
}

impl IncView for TinyView {
    fn name(&self) -> &str {
        "tiny"
    }
    fn apply(&mut self, g: &DynamicGraph, _delta: &UpdateBatch) {
        self.edges = g.edge_count();
    }
    fn work(&self) -> WorkStats {
        WorkStats::new()
    }
    fn reset_work(&mut self) {}
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
        if self.edges == g.edge_count() {
            Ok(())
        } else {
            Err("edge count drifted".into())
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(self.clone())
    }
}

/// Base state built once: graph plus pre-constructed views (cloned into a
/// fresh engine per sample, so every measured commit starts identical).
struct Base {
    g: DynamicGraph,
    rpq: IncRpq,
    scc: IncScc,
    kws: IncKws,
    iso: IncIso,
}

impl Base {
    fn build() -> Base {
        let g = workloads::dataset(Dataset::DbpediaLike, SCALE);
        let rpq = IncRpq::new(&g, &workloads::default_rpq(495));
        let scc = IncScc::new(&g);
        let kws = IncKws::new(&g, workloads::default_kws());
        let iso = IncIso::new(&g, workloads::default_iso());
        Base {
            g,
            rpq,
            scc,
            kws,
            iso,
        }
    }

    fn engine(&self) -> Engine {
        let mut e = Engine::new(self.g.clone());
        e.register(self.rpq.clone()).unwrap();
        e.register(self.scc.clone()).unwrap();
        e.register(self.kws.clone()).unwrap();
        e.register(self.iso.clone()).unwrap();
        e
    }
}

/// A hot-churn submission stream: 64 batches of 8 raw units, every unit
/// toggling one edge from a small pool of node pairs shared by the whole
/// stream — the workload shape the async ingest front door coalesces into
/// one normalized mega-batch per commit tick (see
/// `experiments::engine_ingest`).
fn churn_stream(g: &DynamicGraph) -> Vec<UpdateBatch> {
    use igc_graph::NodeId;
    let n = g.node_count() as u64;
    let mut state = 0x1A6E57u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pool: Vec<(NodeId, NodeId)> = (0..48)
        .map(|_| {
            let a = next() % n;
            let mut b = next() % n;
            if a == b {
                b = (b + 1) % n;
            }
            (NodeId(a as u32), NodeId(b as u32))
        })
        .collect();
    (0..64)
        .map(|_| {
            (0..8)
                .map(|_| {
                    let (src, dst) = pool[(next() % 48) as usize];
                    if next() % 2 == 0 {
                        Update::insert(src, dst)
                    } else {
                        Update::delete(src, dst)
                    }
                })
                .collect()
        })
        .collect()
}

/// Duplicate every unit update — the denormalized-client shape the commit
/// pipeline absorbs via its single normalization pass.
fn pollute(delta: &UpdateBatch) -> UpdateBatch {
    let mut messy: Vec<Update> = Vec::with_capacity(delta.len() * 2);
    for u in delta.iter() {
        messy.push(*u);
        messy.push(*u);
    }
    UpdateBatch::from_updates(messy)
}

fn bench_engine_commit(c: &mut Criterion) {
    let base = Base::build();
    let mut group = c.benchmark_group("engine_commit");
    group.sample_size(10);

    for units in [1usize, 10, 100] {
        let delta = random_update_batch(&base.g, units, 0.5, 20_000 + units as u64);
        group.bench_function(BenchmarkId::new("all_views", units), |b| {
            b.iter_batched(
                || base.engine(),
                |mut engine| engine.commit(&delta).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }

    // Normalization overhead: the same 100 net units submitted twice over.
    let delta = random_update_batch(&base.g, 100, 0.5, 20_100);
    let messy = pollute(&delta);
    group.bench_function(BenchmarkId::new("all_views_denormalized", 200), |b| {
        b.iter_batched(
            || base.engine(),
            |mut engine| engine.commit(&messy).unwrap(),
            BatchSize::LargeInput,
        )
    });

    // Fan-out modes head to head: the same 100-unit delta committed to the
    // same four views, sequentially and across worker threads. On a
    // multi-core host the parallel series should approach the slowest
    // single view's latency; on a single core it exposes the thread-spawn
    // overhead instead (both are worth tracking).
    let delta = random_update_batch(&base.g, 100, 0.5, 20_400);
    group.bench_function(BenchmarkId::new("fanout_sequential", 100), |b| {
        b.iter_batched(
            || base.engine(),
            |mut engine| engine.commit(&delta).unwrap(),
            BatchSize::LargeInput,
        )
    });
    for threads in [2usize, 4] {
        group.bench_function(BenchmarkId::new("fanout_parallel", threads), |b| {
            b.iter_batched(
                || {
                    let mut e = base.engine();
                    e.set_commit_mode(CommitMode::Parallel { threads });
                    e
                },
                |mut engine| engine.commit(&delta).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }

    // Coalescing head to head: the ingest front door's commit-tick shape.
    // The same 64-submission hot-churn stream committed as one mega-batch
    // (one tick coalescing all 64) versus one commit per submission. The
    // tick's single normalization pass collapses cross-submission churn to
    // at most one net update per edge, buying back both the per-commit
    // fixed cost and the view work the same edges' intermediate states
    // would otherwise incur 64 times over.
    let stream = churn_stream(&base.g);
    let mega: UpdateBatch = stream.iter().flat_map(|b| b.iter().copied()).collect();
    group.bench_function(BenchmarkId::new("coalesced_tick", 64), |b| {
        b.iter_batched(
            || base.engine(),
            |mut engine| engine.commit(&mega).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new("per_submission_commits", 64), |b| {
        b.iter_batched(
            || base.engine(),
            |mut engine| {
                for sub in &stream {
                    engine.commit(sub).unwrap();
                }
            },
            BatchSize::LargeInput,
        )
    });

    // Journaling overhead on the hot path: the same 100-unit delta
    // committed to the same four views, with and without a write-ahead
    // commit log. `logged_commit` uses the file backend (OS-buffered, no
    // per-append fsync — the deployment default) into a throwaway
    // directory; `logged_commit_mem` isolates the pure codec + epoch-chain
    // cost from filesystem noise. Target from the durability PR: < 5 %
    // overhead over `unlogged_commit` at experiment scale.
    let delta = random_update_batch(&base.g, 100, 0.5, 20_500);
    group.bench_function(BenchmarkId::new("unlogged_commit", 100), |b| {
        b.iter_batched(
            || base.engine(),
            |mut engine| engine.commit(&delta).unwrap(),
            BatchSize::LargeInput,
        )
    });
    let log_root = std::env::temp_dir().join(format!("igc_log_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_root);
    let log_dir_seq = std::cell::Cell::new(0u64);
    group.bench_function(BenchmarkId::new("logged_commit", 100), |b| {
        b.iter_batched(
            || {
                let n = log_dir_seq.get();
                log_dir_seq.set(n + 1);
                let backend = igc_log::FileBackend::new(log_root.join(format!("run-{n}")))
                    .expect("create log dir");
                base.engine()
                    .with_log(std::sync::Arc::new(backend))
                    .expect("attach log")
            },
            |mut engine| engine.commit(&delta).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new("logged_commit_mem", 100), |b| {
        b.iter_batched(
            || {
                base.engine()
                    .with_log(std::sync::Arc::new(igc_log::MemBackend::new()))
                    .expect("attach log")
            },
            |mut engine| engine.commit(&delta).unwrap(),
            BatchSize::LargeInput,
        )
    });
    let _ = std::fs::remove_dir_all(&log_root);

    // MVCC publish overhead under pinned readers. Every variant drives
    // the same four warm-up commits, so the measured commit starts from
    // identical state; the pinned variants keep a reader `Snapshot` alive
    // at the last `pins` warm-up epochs, forcing the measured commit to
    // copy the graph and each view's shared answer state before writing.
    // `pins = 0` is the free-publish baseline: pre-commit version GC
    // leaves every shared `Arc` unique, so nothing is copied (target:
    // indistinguishable from `unlogged_commit` up to the warm-up state
    // difference).
    let delta = random_update_batch(&base.g, 100, 0.5, 20_600);
    let warm: Vec<UpdateBatch> = (0..4)
        .map(|i| random_update_batch(&base.g, 4, 0.5, 20_700 + i))
        .collect();
    for pins in [0usize, 1, 4] {
        group.bench_function(BenchmarkId::new("commit_under_pinned_readers", pins), |b| {
            b.iter_batched(
                || {
                    let mut e = base.engine();
                    let mut snaps = Vec::new();
                    for (i, w) in warm.iter().enumerate() {
                        e.commit(w).unwrap();
                        if warm.len() - i <= pins {
                            snaps.push(e.snapshot().unwrap());
                        }
                    }
                    (e, snaps)
                },
                |(mut engine, snaps)| {
                    let receipt = engine.commit(&delta).unwrap();
                    drop(snaps);
                    receipt
                },
                BatchSize::LargeInput,
            )
        });
    }

    // The pipeline floor: normalize + graph apply with zero views.
    let delta = random_update_batch(&base.g, 100, 0.5, 20_200);
    group.bench_function(BenchmarkId::new("no_views", 100), |b| {
        b.iter_batched(
            || Engine::new(base.g.clone()),
            |mut engine| engine.commit(&delta).unwrap(),
            BatchSize::LargeInput,
        )
    });

    // Receipt overhead: many near-free views with deliberately long labels,
    // a single-unit delta. Dominated by per-view bookkeeping — under v1
    // each sample cloned every label String into the receipt; under v2 the
    // `Arc<str>` labels make each entry a refcount bump.
    for views in [16usize, 64] {
        let delta = random_update_batch(&base.g, 1, 0.5, 20_300 + views as u64);
        group.bench_function(BenchmarkId::new("tiny_views_receipt", views), |b| {
            b.iter_batched(
                || {
                    let mut e = Engine::new(base.g.clone());
                    let tiny = TinyView {
                        edges: base.g.edge_count(),
                    };
                    for i in 0..views {
                        e.register_labeled(
                            format!("tenant:{i:04}:some-descriptive-standing-query-label"),
                            tiny.clone(),
                        )
                        .unwrap();
                    }
                    e
                },
                |mut engine| engine.commit(&delta).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_engine_commit);
criterion_main!(benches);
