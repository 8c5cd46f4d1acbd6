//! One benchmark run: generate inputs, warm up, execute R identical rounds
//! (timed commit block, read block, recover probe, set-up probe, untimed
//! audit), and reduce the samples to the metrics of `BENCHMARK.json`.
//!
//! Rules this file keeps (the reasons are in `README.md`): every
//! end-to-end number is taken on the one measuring thread; work per round
//! is fixed, so sample counts repeat run to run; probes are interleaved,
//! one per round, and reduced with medians over *all* rounds; every answer
//! is audited and every operation counted.

use crate::calib::{Reference, NOMINAL_S};
use crate::gen::{self, Inputs, ModelMark, Sizes, Workload, SUBMISSION_UNITS};
use crate::stats;
use crate::sys::{self, Disturbance};
use crate::trace::Recorder;
use crate::views::{Handles, Keys, Pools, ShadowViews, ViewRefs, CLASSES, LOOKUPS_PER_VIEW};
use igc_core::WorkStats;
use igc_engine::{CommitMode, CommitReceipt, Engine, EngineError, IngestServer, Replica, Snapshot};
use igc_graph::{DynamicGraph, UpdateBatch};
use igc_log::{CommitLog, DurabilityMode, FileBackend, LogBackend, MemBackend, Replayer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one invocation asks for.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Scales the number of rounds (never the size of a round).
    pub seconds: u64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub sizes: Sizes,
    /// Directory for journals and the span dump; inside the checkout.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans (default: beside `scratch`).
    pub trace_out: Option<PathBuf>,
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("recover_p50_ms", "ms"),
    ("speedup_vs_batch", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Rounds per `--seconds` second, per workload, sized on a 2-core 2.1 GHz
/// box so that a run takes about `--seconds` seconds there (a few more with
/// generation, warm-up and audits). A fixed table, not a calibration: the
/// same arguments always mean the same work.
fn rounds_per_second(w: Workload) -> f64 {
    match w {
        Workload::SteadyViews => 2.7,
        Workload::ChurnStorm => 2.0,
        Workload::PinnedServing => 1.1,
        Workload::DurableRecover => 2.0,
    }
}

/// R ≥ 15 rounds at full size; the smoke size runs three. The traced run
/// drives the shadow layers beside the engine, so it does three fifths of
/// the rounds (its metrics carry no bound; it only has to end in time).
pub fn rounds(cfg: &Config) -> usize {
    if cfg.sizes.tail_beyond == 0 {
        return 3;
    }
    let share = if cfg.trace { 0.6 } else { 1.0 };
    // Never fewer rounds than the pooled p99 needs commits.
    let tail_floor =
        (100 * cfg.sizes.tail_beyond).div_ceil(cfg.sizes.commits_per_round(cfg.workload));
    ((cfg.seconds as f64 * rounds_per_second(cfg.workload) * share) as usize)
        .max(15)
        .max(tail_floor)
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    /// Human-readable lines: machine, inputs, disturbed rounds, spreads.
    pub header: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (`trace` off) or per-layer metrics (`trace` on).
    pub metrics: Vec<Metric>,
    pub stream_hash: u64,
    /// Timed commits (or submissions) and read transactions sampled.
    pub commit_samples: usize,
    pub read_samples: usize,
}

/// Operation accounting: commits, submissions, read transactions, recover
/// cycles, catch-ups and audits — never individual lookups.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    fn pass(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Count one operation; an `Err` is a failure.
    fn check<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.pass();
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one audit; `false` is a failure.
    fn audit(&mut self, what: &str, ok: bool) {
        if ok {
            self.pass();
        } else {
            self.fail(format!("audit failed: {what}"));
        }
    }
}

/// Per-round values of the end-to-end metrics.
#[derive(Default)]
struct Series {
    commit_ms: Vec<Vec<f64>>,
    updates_per_s: Vec<f64>,
    read_us: Vec<Vec<f64>>,
    recover_ms: Vec<f64>,
    setup_s: Vec<f64>,
    speedup: Vec<f64>,
    disturbed: Vec<Option<bool>>,
}

/// How a traced run drives a round's commits. Rounds cycle through the
/// three, so the comparisons (traced vs plain, parallel vs sequential) are
/// between interleaved rounds of identical work on one engine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// `Engine::commit`, sequential fan-out: what the untraced run does.
    Plain,
    /// `prepare` + `apply_prepared` with a span around each.
    Traced,
    /// `Engine::commit` under `CommitMode::Parallel { threads: 2 }`.
    Parallel,
}

fn drive_of(trace: bool, round: usize) -> Drive {
    match (trace, round % 3) {
        (false, _) | (true, 1) => Drive::Plain,
        (true, 0) => Drive::Traced,
        (true, _) => Drive::Parallel,
    }
}

/// Samples and counters of the traced run, by per-layer metric name.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    /// Commit seconds per unit of view work (`WorkStats::total`, from the
    /// receipts) of each round, by how the round was driven. Rounds differ
    /// in how much work their deltas cause (±15 %); per unit of work they
    /// are comparable, which is what lets interleaved rounds stand in for
    /// "the same commits" under two conditions.
    round_s_per_work: [Vec<f64>; 3],
    /// Per sequential round: Σ engine commit time ÷ Σ shadow layer time.
    main_over_shadow: Vec<f64>,
    view_apply_s: [f64; 5],
    view_work: [u64; 5],
    view_aff: [u64; 5],
    /// Σ engine commit seconds over sequential rounds, and Σ shadow apply
    /// seconds per class over the same rounds (`<c>.share` = their ratio).
    commit_s: f64,
    work_mismatches: u64,
    /// (shadow µs, receipt µs) per class per commit: reported, not gated.
    time_pairs: [Vec<(f64, f64)>; 5],
}

impl Layers {
    fn push(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_owned()).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.counts.entry(name).or_default();
        *slot = slot.max(v);
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Median of the samples under `name`; 0 where the layer was bypassed.
    fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(|s| stats::median(s).ok())
            .unwrap_or(0.0)
    }
}

/// The stand-alone layers of the traced run: a graph, a commit log and one
/// view per class, fed — in lock-step with the engine — the delta they
/// normalize themselves.
struct Shadows {
    graph: DynamicGraph,
    log: CommitLog,
    views: ShadowViews,
}

/// What one shadow step took: in all, and the two parts no receipt covers.
#[derive(Clone, Copy, Default)]
struct ShadowTimes {
    total: Duration,
    normalize: Duration,
    append: Duration,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A pinned version plus the lookups (and their answers, taken from the
/// live views at pin time) a later read at that epoch must reproduce.
struct Pin {
    snap: Snapshot,
    keys: Keys,
    expected: u64,
}

/// Where the engine's journal lives.
enum Journal {
    Mem(MemBackend),
    File(PathBuf),
}

impl Journal {
    fn backend(&self) -> Result<Arc<dyn LogBackend>, String> {
        Ok(match self {
            Journal::Mem(m) => Arc::new(m.clone()),
            Journal::File(dir) => Arc::new(FileBackend::new(dir).map_err(|e| e.to_string())?),
        })
    }
}

const GROUP_COMMIT: DurabilityMode = DurabilityMode::GroupCommit {
    max_batch: 8,
    max_delay: Duration::from_secs(1),
};

struct Bench<'a> {
    cfg: &'a Config,
    inputs: Inputs,
    ops: Ops,
    series: Series,
    layers: Layers,
    rec: Recorder,
    key_rng: StdRng,
    /// Commits (or waves) driven so far: the span/commit identifier.
    commit_id: u64,
    setup_dirs: u64,
    reference: Reference,
    /// Seconds the previous reference sample took.
    reference_last: f64,
    /// Every drift factor applied, for the header.
    drift: Vec<f64>,
}

/// Run one workload once.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let started = Instant::now();
    let n_rounds = rounds(cfg);
    let inputs = gen::generate(cfg.workload, cfg.seed, &cfg.sizes, n_rounds);
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("create {}: {e}", cfg.scratch.display()))?;
    let mut header = vec![
        format!(
            "workload {}  seed {}  rounds {}  trace {}",
            cfg.workload.name(),
            cfg.seed,
            n_rounds,
            cfg.trace as u8
        ),
        format!(
            "machine  nproc {}  cpu \"{}\"  {}  git {}",
            sys::nproc(),
            sys::cpu_model(),
            sys::tool_line("rustc", &["--version"]),
            sys::tool_line("git", &["rev-parse", "HEAD"]),
        ),
        format!(
            "inputs   stream_hash {:016x}  base |V| {} |E| {} (dataset seed {})  timed units {}  per round: {} commits, {} reads",
            inputs.stream_hash,
            inputs.base.node_count(),
            inputs.base.edge_count(),
            gen::DATASET_SEED,
            inputs.stream_units,
            cfg.sizes.commits_per_round(cfg.workload),
            cfg.sizes.reads,
        ),
        format!("journal  {}", cfg.scratch.display()),
    ];
    let mut bench = Bench {
        cfg,
        key_rng: StdRng::seed_from_u64(cfg.seed ^ 0x5eed_0f4b),
        inputs,
        ops: Ops::default(),
        series: Series::default(),
        layers: Layers::default(),
        rec: Recorder::new(),
        commit_id: 0,
        setup_dirs: 0,
        reference: Reference::new(),
        reference_last: NOMINAL_S,
        drift: Vec::new(),
    };
    bench.reference_last = bench.reference.sample();
    match cfg.workload {
        Workload::DurableRecover => bench.run_durable()?,
        _ => bench.run_direct()?,
    }
    let rss = sys::peak_rss_mb();
    bench.finish(&mut header, rss, started.elapsed())
}

impl Bench<'_> {
    fn queries(&self) -> &gen::Queries {
        &self.inputs.queries
    }

    fn tracing(&self) -> bool {
        self.cfg.trace
    }

    // ------------------------------------------------------------------
    // Shared steps
    // ------------------------------------------------------------------

    /// Sample the reference kernel and return the factor that scales a wall
    /// time measured since the previous sample to the machine's nominal
    /// speed (see `calib.rs`).
    fn drift_factor(&mut self) -> f64 {
        let now = self.reference.sample();
        let factor = NOMINAL_S / ((self.reference_last + now) / 2.0);
        self.reference_last = now;
        self.drift.push(factor);
        factor
    }

    /// Every round opens the same way: one checkpoint and one compaction
    /// (so each recover probe scans one checkpoint plus the same tail, and
    /// the journal does not grow with R), then the fan-out mode the round
    /// is driven in.
    fn open_round(&mut self, engine: &mut Engine, drive: Drive, timed: bool) {
        let log_bytes = |e: &Engine| e.log().and_then(|l| l.bytes().ok()).unwrap_or(0);
        let bytes_before = log_bytes(engine);
        let t = Instant::now();
        let checkpointed = engine.checkpoint();
        let t_checkpoint = t.elapsed();
        let bytes_after = log_bytes(engine);
        let t = Instant::now();
        let compacted = engine.compact_log();
        let t_compact = t.elapsed();
        if checkpointed.is_err() || compacted.is_err() {
            self.ops
                .fail("round-opening checkpoint/compaction failed".to_owned());
        }
        if timed {
            let l = &mut self.layers;
            l.push("log.checkpoint_ms", ms(t_checkpoint));
            l.push(
                "log.checkpoint_bytes",
                bytes_after.saturating_sub(bytes_before) as f64,
            );
            l.push("log.compact_ms", ms(t_compact));
        }
        engine.set_commit_mode(match drive {
            Drive::Parallel => CommitMode::Parallel { threads: 2 },
            _ => CommitMode::Sequential,
        });
    }

    /// The set-up probe: build an engine on the base graph with a fresh
    /// journal and register all five views, until the first commit is
    /// admissible. Cloning the base graph is generator work and untimed.
    /// Ends with a reference sample (the one before it is the recover
    /// probe's).
    fn setup_probe(&mut self, durable: bool) {
        let graph = self.inputs.base.clone();
        let dir = self.cfg.scratch.join(format!("setup-{}", self.setup_dirs));
        self.setup_dirs += 1;
        let journal = if durable {
            Journal::File(dir.clone())
        } else {
            Journal::Mem(MemBackend::new())
        };
        let mut inits: Vec<(&'static str, Duration)> = Vec::new();
        let t = Instant::now();
        let built = (|| -> Result<Engine, String> {
            let mut e = Engine::new(graph)
                .with_log(journal.backend()?)
                .map_err(|e| e.to_string())?;
            if durable {
                e.set_durability(GROUP_COMMIT).map_err(|e| e.to_string())?;
            }
            Handles::register(&mut e, &self.inputs.queries, |c, d| inits.push((c, d)))
                .map_err(|e| e.to_string())?;
            Ok(e)
        })();
        let elapsed = t.elapsed();
        let drift = self.drift_factor();
        if self.ops.check("set-up probe", built).is_some() {
            self.series.setup_s.push(secs(elapsed) * drift);
            for (class, d) in inits {
                self.layers.push(&format!("{class}.init_ms"), ms(d));
            }
        }
        if durable {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The recover probe: `Engine::recover` on the journal as it stands,
    /// lazy re-registration of all five views, and one answered lookup per
    /// view. The re-registration phase is also the round's batch rebuild
    /// (every view from scratch on the round's final graph). Ends with a
    /// reference sample; the one before it closed the commit block, and the
    /// round's read block sits between the two, so its latencies are scaled
    /// here as well.
    fn recover_probe(
        &mut self,
        journal: &Journal,
        mean_commit_s: f64,
        timed: bool,
    ) -> Option<(Engine, Handles)> {
        if self.tracing() && timed {
            // The two phases of recovery's log half, timed on their own.
            if let Ok(backend) = journal.backend() {
                let replayer = Replayer::new(backend);
                let t = Instant::now();
                let scanned = replayer.summary();
                self.layers.push("log.scan_ms", ms(t.elapsed()));
                let t = Instant::now();
                let replayed = replayer.latest();
                self.layers.push("log.replay_ms", ms(t.elapsed()));
                if scanned.is_err() || replayed.is_err() {
                    self.ops.fail("replayer scan failed".to_owned());
                }
            }
        }
        let pools_key = self.inputs.queries.rules_pred;
        let t0 = Instant::now();
        let recovered = journal
            .backend()
            .and_then(|b| Engine::recover(b).map_err(|e| e.to_string()));
        let t1 = Instant::now();
        let mut engine = self.ops.check("recover", recovered)?;
        let registered = Handles::register(&mut engine, &self.inputs.queries, |_, _| ());
        let first_lookup = registered.and_then(|h| {
            let v = h.live(&engine)?;
            let n = igc_graph::NodeId(0);
            let answered = [
                v.rpq.contains_pair(n, n),
                v.scc.same_scc(n, n),
                v.kws.is_match_root(n),
                v.rules.holds(pools_key, &[n]),
            ];
            std::hint::black_box((answered, v.iso.match_count()));
            Ok(h)
        });
        let t2 = Instant::now();
        let drift = self.drift_factor();
        let handles = self.ops.check("re-register after recover", first_lookup)?;
        if !timed {
            return Some((engine, handles));
        }
        for x in self.series.read_us.last_mut().into_iter().flatten() {
            *x *= drift;
        }
        self.series.recover_ms.push(ms(t2 - t0) * drift);
        self.series.speedup.push(secs(t2 - t1) / mean_commit_s);
        self.layers.push("engine.recover_ms", ms(t1 - t0));
        self.layers.push("engine.rebuild_ms", ms(t2 - t1));
        Some((engine, handles))
    }

    /// The untimed audit of the serving engine: the graph against the
    /// generator's model every round, and — after warm-up, every fourth
    /// round and the last (`deep`) — every view against batch
    /// recomputation. `verify_all` costs two set-ups; run every round it
    /// would be a quarter of the run, bought from measured work.
    fn audit(&mut self, engine: &Engine, mark: ModelMark, who: &str, deep: bool) {
        if deep {
            let verified = engine.verify_all();
            self.ops.check(&format!("verify_all ({who})"), verified);
        }
        let same_graph = gen::graph_hash(engine.graph()) == mark.hash
            && engine.graph().edge_count() == mark.edges;
        self.ops
            .audit(&format!("graph vs model ({who})"), same_graph);
    }

    /// One read transaction against a pinned version: resolve the five
    /// typed handles, run the lookups, checksum. The pin is taken by the
    /// caller inside the timed region and dropped with `snap`.
    fn read_txn(
        snap: Snapshot,
        handles: &Handles,
        keys: &Keys,
        pred: igc_rules::PredId,
    ) -> Result<u64, EngineError> {
        let views = handles.pinned(&snap)?;
        Ok(keys.checksum(&views, pred))
    }

    fn record_read(
        &mut self,
        lat: &mut Vec<f64>,
        elapsed: Duration,
        got: Result<u64, EngineError>,
        expected: u64,
    ) {
        match got {
            Ok(sum) if sum == expected => {
                self.ops.pass();
                lat.push(us(elapsed));
            }
            Ok(sum) => self
                .ops
                .fail(format!("read checksum {sum:x} != live {expected:x}")),
            Err(e) => self.ops.fail(format!("read transaction: {e}")),
        }
    }

    fn note_reads(&mut self, lat: Vec<f64>) {
        if self.tracing() {
            if let Ok(m) = stats::median(&lat) {
                self.layers.push(
                    "snapshot.lookup_ns",
                    m * 1e3 / (5 * LOOKUPS_PER_VIEW) as f64,
                );
            }
        }
        self.series.read_us.push(lat);
    }

    // ------------------------------------------------------------------
    // Shadow layers (traced run)
    // ------------------------------------------------------------------

    fn shadows(&self, durable: bool) -> Result<Option<Shadows>, String> {
        if !self.tracing() {
            return Ok(None);
        }
        let graph = self.inputs.base.clone();
        let backend: Arc<dyn LogBackend> = if durable {
            Arc::new(
                FileBackend::new(self.cfg.scratch.join("shadow-journal"))
                    .map_err(|e| e.to_string())?,
            )
        } else {
            Arc::new(MemBackend::new())
        };
        let mut log = CommitLog::create(backend).map_err(|e| e.to_string())?;
        if durable {
            log.set_durability(GROUP_COMMIT);
        }
        log.append_checkpoint(&graph).map_err(|e| e.to_string())?;
        let views = ShadowViews::new(&graph, self.queries());
        Ok(Some(Shadows { graph, log, views }))
    }

    /// Feed one raw batch to the shadow layers, a span around each public
    /// call. `receipt` is the engine's account of the same batch (absent
    /// when a wave was carried by more than one tick); `timed` is false
    /// during warm-up; `sequential` says whether the engine ran this batch
    /// with sequential fan-out (only those count towards `<c>.share`).
    fn shadow_step(
        &mut self,
        sh: &mut Shadows,
        batch: &UpdateBatch,
        receipt: Option<&CommitReceipt>,
        sync: bool,
        timed: bool,
        sequential: bool,
    ) -> ShadowTimes {
        let id = self.commit_id;
        let (delta, t_norm) = self
            .rec
            .span("graph.normalize", id, || batch.normalize_against(&sh.graph));
        let bytes_before = sh.log.bytes().unwrap_or(0);
        // The shadow log keeps its own epoch chain: on `durable_recover` a
        // wave may take the engine two ticks, and the shadow graph is
        // re-seated on the recovered one every round.
        let epoch = sh.log.last_epoch().map_or(1, |e| e + 1);
        let (appended, t_append) = self
            .rec
            .span("log.append", id, || sh.log.append_delta(epoch, &delta));
        let mut total = t_norm + t_append;
        if let Err(e) = appended {
            self.ops.fail(format!("shadow log append: {e}"));
        }
        if sync {
            // What the ingest loop does before it parks on an empty queue.
            let (synced, t_sync) = self.rec.span("log.sync", id, || sh.log.sync());
            if let Err(e) = synced {
                self.ops.fail(format!("shadow log sync: {e}"));
            }
            total += t_sync;
            if timed {
                self.layers.push("log.sync_us", us(t_sync));
            }
        }
        let ((), t_graph) = self
            .rec
            .span("graph.apply", id, || sh.graph.apply_batch(&delta));
        total += t_graph;
        let mut work = [WorkStats::new(); 5];
        let mut apply = [Duration::ZERO; 5];
        let names = [
            "rpq.apply",
            "scc.apply",
            "kws.apply",
            "iso.apply",
            "rules.apply",
        ];
        for (i, view) in sh.views.each_mut().into_iter().enumerate() {
            let before = view.work();
            let ((), d) = self
                .rec
                .span(names[i], id, || view.apply(&sh.graph, &delta));
            work[i] = view.work().since(&before);
            apply[i] = d;
            total += d;
        }
        let aff = sh.views.last_affected();
        let times = ShadowTimes {
            total,
            normalize: t_norm,
            append: t_append,
        };
        if !timed {
            return times;
        }
        let l = &mut self.layers;
        l.push("graph.normalize_us", us(t_norm));
        l.push("log.append_us", us(t_append));
        l.push("graph.apply_us", us(t_graph));
        l.add("log.appends", 1.0);
        l.add(
            "log.bytes",
            sh.log.bytes().unwrap_or(0).saturating_sub(bytes_before) as f64,
        );
        l.add("shadow.applied", delta.len() as f64);
        for i in 0..5 {
            l.push(&format!("{}.apply_us", CLASSES[i]), us(apply[i]));
            if sequential {
                l.view_apply_s[i] += secs(apply[i]);
            }
            l.view_work[i] += work[i].total();
            l.view_aff[i] += aff[i];
        }
        // The free cross-check: the shadows saw exactly the engine's
        // inputs iff delta sizes and per-view work counters agree.
        if let Some(r) = receipt {
            let same_units = r.applied == delta.len();
            let same_work =
                r.per_view.len() == 5 && r.per_view.iter().zip(&work).all(|(v, w)| v.work == *w);
            if !(same_units && same_work) {
                l.work_mismatches += 1;
            }
            for (i, v) in r.per_view.iter().enumerate().take(5) {
                l.time_pairs[i].push((us(apply[i]), us(v.elapsed)));
            }
        }
        times
    }

    // ------------------------------------------------------------------
    // steady_views, churn_storm, pinned_serving: the engine is driven
    // directly on the measuring thread.
    // ------------------------------------------------------------------

    fn run_direct(&mut self) -> Result<(), String> {
        let pinned = self.cfg.workload == Workload::PinnedServing;
        let pred = self.queries().rules_pred;
        let nodes = self.inputs.base.node_count() as u32;
        let mem = MemBackend::new();
        let journal = Journal::Mem(mem);
        let mut engine = Engine::new(self.inputs.base.clone())
            .with_log(journal.backend()?)
            .map_err(|e| e.to_string())?;
        let handles =
            Handles::register(&mut engine, self.queries(), |_, _| ()).map_err(|e| e.to_string())?;
        let mut shadows = self.shadows(false)?;

        // Warm-up: untimed commits, audited like any round.
        for batch in std::mem::take(&mut self.inputs.warmup) {
            let r = engine.commit(&batch);
            let receipt = self.ops.check("warm-up commit", r);
            if let Some(sh) = &mut shadows {
                self.shadow_step(sh, &batch, receipt.as_ref(), false, false, true);
            }
            self.commit_id += 1;
        }
        let after_warmup = self.inputs.after_warmup;
        self.audit(&engine, after_warmup, "after warm-up", true);

        let mut ladder: VecDeque<Pin> = VecDeque::new();
        let mut long_pin: Option<Pin> = None;
        let rounds = std::mem::take(&mut self.inputs.rounds);
        for (r, round) in rounds.iter().enumerate() {
            let drive = drive_of(self.tracing(), r);

            self.open_round(&mut engine, drive, true);

            // Hit candidates for this round's lookups, from the live views.
            let pools = Pools::collect(&live(&engine, &handles)?, pred);
            if pinned {
                // The long pin is re-taken each round, before its commits.
                let keys = Keys::draw(&pools, nodes, &mut self.key_rng);
                let expected = keys.checksum(&live(&engine, &handles)?, pred);
                long_pin = Some(Pin {
                    snap: engine.snapshot().map_err(|e| e.to_string())?,
                    keys,
                    expected,
                });
            }
            // ---- timed commit block ----
            let publish_before = engine.snapshot_store().publish_elapsed();
            let mut lat: Vec<f64> = Vec::with_capacity(round.commits.len());
            let mut applied = 0usize;
            let mut work = 0u64;
            let mut shadow_s = 0.0;
            let mut commit_s = 0.0;
            let watch = Disturbance::begin();
            let block = Instant::now();
            let mut block_excluded = Duration::ZERO;
            for batch in &round.commits {
                let id = self.commit_id;
                let t = Instant::now();
                let result = if drive == Drive::Traced {
                    let root = self.rec.enter("engine.commit", id);
                    let (prepared, t_prep) = self
                        .rec
                        .span("engine.prepare", id, || engine.prepare(batch));
                    let out = prepared.and_then(|p| {
                        let (applied, t_apply) = self
                            .rec
                            .span("engine.apply", id, || engine.apply_prepared(p, None));
                        applied.map(|(receipt, _)| (receipt, t_prep, t_apply))
                    });
                    self.rec.exit(root);
                    out.map(|(receipt, t_prep, t_apply)| {
                        self.layers.push("engine.prepare_us", us(t_prep));
                        self.layers.push("engine.apply_us", us(t_apply));
                        receipt
                    })
                } else {
                    engine.commit(batch)
                };
                let elapsed = t.elapsed();
                let Some(receipt) = self.ops.check("commit", result) else {
                    continue;
                };
                lat.push(ms(elapsed));
                commit_s += secs(elapsed);
                applied += receipt.applied;
                work += receipt.work.total();
                if pinned {
                    // A ladder of four sliding pins, each kept four commits.
                    let views = live(&engine, &handles)?;
                    let keys = Keys::draw(&pools, nodes, &mut self.key_rng);
                    let expected = keys.checksum(&views, pred);
                    ladder.push_back(Pin {
                        snap: engine.snapshot().map_err(|e| e.to_string())?,
                        keys,
                        expected,
                    });
                    if ladder.len() > 4 {
                        ladder.pop_front();
                    }
                }
                if let Some(sh) = &mut shadows {
                    // Shadow work is outside the block's wall time.
                    let pause = Instant::now();
                    let shadow = self.shadow_step(
                        sh,
                        batch,
                        Some(&receipt),
                        false,
                        true,
                        drive != Drive::Parallel,
                    );
                    shadow_s += secs(shadow.total);
                    let l = &mut self.layers;
                    l.add("graph.submitted", receipt.submitted as f64);
                    l.add("graph.dropped", receipt.dropped as f64);
                    l.add("log.retries", receipt.log_retries as f64);
                    if drive == Drive::Traced {
                        let views: Duration = receipt.per_view.iter().map(|v| v.elapsed).sum();
                        let known =
                            us(shadow.normalize + shadow.append + receipt.graph_elapsed + views);
                        l.push("engine.overhead_us", (us(elapsed) - known).max(0.0));
                    }
                    if drive != Drive::Parallel {
                        l.push("snapshot.cow_us", (us(elapsed) - us(shadow.total)).max(0.0));
                    }
                    let store = engine.snapshot_store();
                    l.max("snapshot.window_max", store.window() as f64);
                    l.max(
                        "snapshot.cells_max",
                        store.retained_stats().distinct_view_cells as f64,
                    );
                    block_excluded += pause.elapsed();
                }
                self.commit_id += 1;
            }
            let wall = block.elapsed() - block_excluded;
            self.series.disturbed.push(watch.end());
            let drift = self.drift_factor();
            let commits = lat.len().max(1) as f64;
            self.series
                .updates_per_s
                .push(applied as f64 / (secs(wall) * drift));
            self.series
                .commit_ms
                .push(lat.iter().map(|x| x * drift).collect());
            if self.tracing() {
                let l = &mut self.layers;
                l.round_s_per_work[drive as usize].push(commit_s / work.max(1) as f64);
                let published = engine.snapshot_store().publish_elapsed() - publish_before;
                l.push("snapshot.publish_us", us(published) / commits);
                if drive != Drive::Parallel {
                    l.commit_s += commit_s;
                    l.add("shadow.total_s", shadow_s);
                    l.main_over_shadow.push(commit_s / shadow_s);
                }
            }
            // ---- read block ----
            let mut lat: Vec<f64> = Vec::with_capacity(self.cfg.sizes.reads);
            let held: Vec<&Pin> = ladder.iter().chain(long_pin.iter()).collect();
            for i in 0..self.cfg.sizes.reads {
                if pinned {
                    // Reads at the *held* epochs.
                    let pin = held[i % held.len()];
                    let t = Instant::now();
                    let got = engine
                        .snapshot_at(pin.snap.epoch())
                        .and_then(|s| Self::read_txn(s, &handles, &pin.keys, pred));
                    let elapsed = t.elapsed();
                    self.record_read(&mut lat, elapsed, got, pin.expected);
                } else {
                    let keys = Keys::draw(&pools, nodes, &mut self.key_rng);
                    let expected = keys.checksum(&live(&engine, &handles)?, pred);
                    let t = Instant::now();
                    let got = engine
                        .snapshot()
                        .and_then(|s| Self::read_txn(s, &handles, &keys, pred));
                    let elapsed = t.elapsed();
                    self.record_read(&mut lat, elapsed, got, expected);
                }
            }
            drop(held);
            self.note_reads(lat);
            if self.tracing() {
                self.clone_probes(&engine, &handles);
                self.pin_probe(|| engine.snapshot());
            }

            // ---- probes and audit ----
            let mean_commit_s = secs(wall) / commits;
            let recovered = self.recover_probe(&journal, mean_commit_s, true);
            self.setup_probe(false);
            self.audit(
                &engine,
                round.after,
                "live",
                r % 4 == 3 || r + 1 == rounds.len(),
            );
            if let Some((rec_engine, rec_handles)) = recovered {
                let same = gen::graph_hash(rec_engine.graph()) == round.after.hash
                    && rec_engine.epoch() == engine.epoch();
                self.ops.audit("recovered graph vs model", same);
                let sizes = |e: &Engine, h: &Handles| h.live(e).map(|v| v.sizes());
                let agree = matches!(
                    (sizes(&rec_engine, &rec_handles), sizes(&engine, &handles)),
                    (Ok(a), Ok(b)) if a == b
                );
                self.ops.audit("recovered views vs live views", agree);
            }
            if let Some(sh) = &shadows {
                let agree = sh.views.refs().sizes() == live(&engine, &handles)?.sizes()
                    && gen::graph_hash(&sh.graph) == round.after.hash;
                self.ops.audit("shadow layers vs engine", agree);
            }
        }
        Ok(())
    }

    /// Once-per-round probe of the traced run: what a pinned commit pays
    /// per copy — `DynamicGraph::clone` and each view's `clone_view`.
    fn clone_probes(&mut self, engine: &Engine, handles: &Handles) {
        let t = Instant::now();
        let copy = std::hint::black_box(engine.graph().clone());
        self.layers.push("graph.clone_us", us(t.elapsed()));
        drop(copy);
        for (class, id) in CLASSES.iter().zip(handles.ids()) {
            if let Ok(view) = engine.view_dyn(id) {
                let t = Instant::now();
                let copy = std::hint::black_box(view.clone_view());
                self.layers
                    .push(&format!("{class}.clone_us"), us(t.elapsed()));
                drop(copy);
            }
        }
    }

    /// What taking (and dropping) a pin costs.
    fn pin_probe(&mut self, pin: impl Fn() -> Result<Snapshot, EngineError>) {
        const PINS: u32 = 256;
        let t = Instant::now();
        for _ in 0..PINS {
            drop(std::hint::black_box(pin()));
        }
        self.layers.push(
            "snapshot.pin_ns",
            t.elapsed().as_nanos() as f64 / PINS as f64,
        );
    }

    // ------------------------------------------------------------------
    // durable_recover: FileBackend journal, writes through IngestServer.
    // ------------------------------------------------------------------

    fn run_durable(&mut self) -> Result<(), String> {
        let pred = self.queries().rules_pred;
        let nodes = self.inputs.base.node_count() as u32;
        let dir = self.cfg.scratch.join("journal");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::File(dir);
        let tune = |e: &mut Engine| -> Result<(), String> {
            e.set_durability(GROUP_COMMIT).map_err(|e| e.to_string())?;
            e.set_checkpoint_every(128);
            Ok(())
        };
        let mut engine = Engine::new(self.inputs.base.clone())
            .with_log(journal.backend()?)
            .map_err(|e| e.to_string())?;
        tune(&mut engine)?;
        let mut handles =
            Handles::register(&mut engine, self.queries(), |_, _| ()).map_err(|e| e.to_string())?;
        let mut shadows = self.shadows(true)?;

        // The follower: another handle on the same directory, as a reader
        // in another process would attach.
        let t = Instant::now();
        let mut replica = Replica::attach(journal.backend()?).map_err(|e| e.to_string())?;
        self.layers.push("replica.attach_ms", ms(t.elapsed()));
        let q = self.queries().clone();
        (|| -> Result<(), EngineError> {
            replica.register("rpq", igc_rpq::IncRpq::init(q.rpq.clone()))?;
            replica.register("scc", igc_scc::IncScc::init())?;
            replica.register("kws", igc_kws::IncKws::init(q.kws.clone()))?;
            replica.register("iso", igc_iso::IncIso::init(q.iso.clone()))?;
            replica.register("rules", igc_rules::IncRules::init(q.rules.clone()))?;
            Ok(())
        })()
        .map_err(|e| e.to_string())?;

        let warmup = std::mem::take(&mut self.inputs.warmup);
        let rounds = std::mem::take(&mut self.inputs.rounds);
        let after_warmup = self.inputs.after_warmup;
        // Round 0 is the warm-up: same path, nothing recorded.
        let all: Vec<(&[UpdateBatch], ModelMark, bool)> =
            std::iter::once((&warmup[..], after_warmup, false))
                .chain(rounds.iter().map(|r| (&r.commits[..], r.after, true)))
                .collect();
        for (r, (waves, after, timed)) in all.into_iter().enumerate() {
            let drive = drive_of(self.tracing(), r);
            self.open_round(&mut engine, drive, timed);
            let publish_before = engine.snapshot_store().publish_elapsed();
            let store = Arc::clone(engine.snapshot_store());

            // The engine moves onto the ingest server's tick thread — the
            // only thread besides the measuring one.
            let server = IngestServer::spawn(engine);
            let ingest = server.handle();

            // ---- timed commit block: closed loop, one wave in flight ----
            let mut lat: Vec<f64> = Vec::with_capacity(waves.len() * gen::WAVE_SUBMISSIONS);
            let mut applied = 0usize;
            let mut acked_epoch = 0u64;
            let mut work = 0u64;
            let mut commit_s = 0.0;
            let mut shadow_s = 0.0;
            let mut ticks = 0usize;
            let watch = Disturbance::begin();
            let block = Instant::now();
            let mut block_excluded = Duration::ZERO;
            for wave in waves {
                let id = self.commit_id;
                // Cutting the wave into submissions is generator work.
                let pause = Instant::now();
                let units: Vec<_> = wave.iter().copied().collect();
                let submissions: Vec<UpdateBatch> = units
                    .chunks(SUBMISSION_UNITS)
                    .map(|c| UpdateBatch::from_updates(c.to_vec()))
                    .collect();
                block_excluded += pause.elapsed();

                let wave_start = Instant::now();
                let root = (drive == Drive::Traced).then(|| self.rec.enter("ingest.wave", id));
                let mut tickets = Vec::with_capacity(submissions.len());
                for sub in submissions {
                    let t = Instant::now();
                    let ticket = ingest.submit(sub);
                    if self.tracing() && timed {
                        self.layers.push("ingest.submit_us", us(t.elapsed()));
                    }
                    match ticket {
                        Ok(ticket) => tickets.push((t, ticket)),
                        Err(e) => {
                            if matches!(e, EngineError::Overloaded { .. }) {
                                self.layers.add("ingest.shed", 1.0);
                            }
                            self.ops.fail(format!("submit: {e}"));
                        }
                    }
                }
                // The generator blocks on tickets; it never spins.
                let mut wave_ticks: Vec<Arc<CommitReceipt>> = Vec::new();
                for (t, ticket) in tickets {
                    let got = ticket.wait();
                    let elapsed = t.elapsed();
                    let Some(receipt) = self.ops.check("submission", got) else {
                        continue;
                    };
                    if timed {
                        lat.push(ms(elapsed));
                        if self.tracing() {
                            let l = &mut self.layers;
                            l.push(
                                "ingest.wait_us",
                                (us(elapsed) - us(receipt.commit.elapsed)).max(0.0),
                            );
                            l.push("ingest.coalesce_width", receipt.coalesced as f64);
                        }
                    }
                    acked_epoch = acked_epoch.max(receipt.epoch);
                    if wave_ticks
                        .last()
                        .is_none_or(|c| c.epoch != receipt.commit.epoch)
                    {
                        wave_ticks.push(receipt.commit);
                    }
                }
                if let Some(root) = root {
                    self.rec.exit(root);
                }
                commit_s += secs(wave_start.elapsed());
                ticks += wave_ticks.len();
                applied += wave_ticks.iter().map(|c| c.applied).sum::<usize>();
                work += wave_ticks.iter().map(|c| c.work.total()).sum::<u64>();
                if let Some(sh) = &mut shadows {
                    let pause = Instant::now();
                    // A wave carried by exactly one tick can be compared
                    // unit for unit with the shadows.
                    let receipt = (wave_ticks.len() == 1).then(|| &*wave_ticks[0]);
                    let sequential = drive != Drive::Parallel;
                    shadow_s += secs(
                        self.shadow_step(sh, wave, receipt, true, timed, sequential)
                            .total,
                    );
                    if timed {
                        let l = &mut self.layers;
                        for c in &wave_ticks {
                            l.add("graph.submitted", c.submitted as f64);
                            l.add("graph.dropped", c.dropped as f64);
                            l.add("log.retries", c.log_retries as f64);
                        }
                        l.max("snapshot.window_max", store.window() as f64);
                        l.max(
                            "snapshot.cells_max",
                            store.retained_stats().distinct_view_cells as f64,
                        );
                    }
                    block_excluded += pause.elapsed();
                }
                self.commit_id += 1;
            }
            let wall = block.elapsed() - block_excluded;
            let disturbed = watch.end();
            let drift = self.drift_factor();
            let n_waves = waves.len().max(1) as f64;
            if timed {
                self.series.disturbed.push(disturbed);
                self.series
                    .updates_per_s
                    .push(applied as f64 / (secs(wall) * drift));
                if self.tracing() {
                    let l = &mut self.layers;
                    l.add("ingest.ticks", ticks as f64);
                    l.add("ingest.submissions", lat.len() as f64);
                    l.add("ingest.block_s", secs(wall));
                    l.round_s_per_work[drive as usize].push(commit_s / work.max(1) as f64);
                    let published = store.publish_elapsed() - publish_before;
                    l.push("snapshot.publish_us", us(published) / ticks.max(1) as f64);
                    if drive != Drive::Parallel {
                        l.commit_s += commit_s;
                        l.add("shadow.total_s", shadow_s);
                        l.main_over_shadow.push(commit_s / shadow_s);
                    }
                }
                self.series
                    .commit_ms
                    .push(lat.iter().map(|x| x * drift).collect());
            }

            // ---- read block: pins through the ingest handle ----
            let mut reads: Vec<(Keys, u64)> = Vec::new();
            let mut lat: Vec<f64> = Vec::with_capacity(self.cfg.sizes.reads);
            let pools = ingest
                .snapshot()
                .and_then(|s| Ok(Pools::collect(&handles.pinned(&s)?, pred)))
                .map_err(|e| e.to_string())?;
            for _ in 0..if timed { self.cfg.sizes.reads } else { 0 } {
                let keys = Keys::draw(&pools, nodes, &mut self.key_rng);
                let t = Instant::now();
                let got = ingest
                    .snapshot()
                    .and_then(|s| Self::read_txn(s, &handles, &keys, pred));
                let elapsed = t.elapsed();
                // No live views to compare with while the engine is on the
                // tick thread: the answers are checked against the
                // recovered engine below.
                match got {
                    Ok(sum) => {
                        lat.push(us(elapsed));
                        reads.push((keys, sum));
                    }
                    Err(e) => self.ops.fail(format!("read transaction: {e}")),
                }
            }
            if timed {
                self.note_reads(lat);
                if self.tracing() {
                    self.pin_probe(|| ingest.snapshot());
                }
            }

            // ---- follower catch-up ----
            let lag = replica.status().map(|s| s.lag).unwrap_or(0);
            let t = Instant::now();
            let caught = replica.catch_up();
            let elapsed = t.elapsed();
            if let Some(deltas) = self.ops.check("replica catch-up", caught) {
                if timed {
                    let l = &mut self.layers;
                    l.push("replica.catchup_ms", ms(elapsed));
                    l.push("replica.us_per_delta", us(elapsed) / deltas.max(1) as f64);
                    l.max("replica.lag_max", lag as f64);
                }
            }

            // ---- crash: drop the server un-shut-down, then recover ----
            drop(ingest);
            drop(server);
            let mean_commit_s = secs(wall) / n_waves;
            let recovered = self.recover_probe(&journal, mean_commit_s, timed);
            let Some((recovered, rec_handles)) = recovered else {
                return Err("recovery failed; the run cannot resume".to_owned());
            };
            // The serving engine from here on is the recovered one.
            engine = recovered;
            handles = rec_handles;
            tune(&mut engine)?;
            let durable = engine.epoch() >= acked_epoch;
            self.ops
                .audit("recovered epoch covers every acknowledged epoch", durable);
            let views = live(&engine, &handles)?;
            for (keys, got) in reads {
                if keys.checksum(&views, pred) == got {
                    self.ops.pass();
                } else {
                    self.ops
                        .fail("read checksum differs from the recovered engine's".to_owned());
                }
            }
            let follower_agrees = gen::graph_hash(replica.graph()) == after.hash
                && replica.frontier() == engine.epoch()
                && replica.verify_all().is_ok();
            self.ops.audit("replica vs model", follower_agrees);
            if timed {
                self.setup_probe(true);
                if self.tracing() {
                    self.clone_probes(&engine, &handles);
                }
            }
            self.audit(&engine, after, "recovered", r % 4 == 0 || r == rounds.len());
            if let Some(sh) = &mut shadows {
                let agree = sh.views.refs().sizes() == live(&engine, &handles)?.sizes()
                    && gen::graph_hash(&sh.graph) == after.hash;
                self.ops.audit("shadow layers vs engine", agree);
                // The engine now serves from a replayed graph and freshly
                // built views; work counters depend on adjacency order and
                // auxiliary state, so the shadows restart from the same
                // point (or the exact work cross-check could not hold).
                sh.graph = engine.graph().clone();
                sh.views = ShadowViews::new(&sh.graph, self.queries());
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reduction
    // ------------------------------------------------------------------

    fn finish(
        mut self,
        header: &mut Vec<String>,
        rss: Option<f64>,
        wall: Duration,
    ) -> Result<Report, String> {
        let s = &self.series;
        let beyond = self.cfg.sizes.tail_beyond;
        let pooled: Vec<f64> = s.commit_ms.iter().flatten().copied().collect();
        let err = |e: stats::TooFewSamples| e.to_string();
        let end_to_end: Vec<f64> = vec![
            stats::median(&s.setup_s).map_err(err)?,
            stats::median_of_medians(&s.commit_ms).map_err(err)?,
            stats::p99(&pooled, beyond).map_err(err)?,
            stats::median(&s.updates_per_s).map_err(err)?,
            stats::median_of_medians(&s.read_us).map_err(err)?,
            stats::median(&s.recover_ms).map_err(err)?,
            stats::median(&s.speedup).map_err(err)?,
            rss.unwrap_or(0.0),
        ];
        let round_medians = |rounds: &[Vec<f64>]| -> Vec<f64> {
            rounds
                .iter()
                .filter_map(|r| stats::median(r).ok())
                .collect()
        };
        let spreads: [(&str, Vec<f64>); 6] = [
            ("setup_s", s.setup_s.clone()),
            ("commit_p50_ms", round_medians(&s.commit_ms)),
            ("updates_per_s", s.updates_per_s.clone()),
            ("read_p50_us", round_medians(&s.read_us)),
            ("recover_p50_ms", s.recover_ms.clone()),
            ("speedup_vs_batch", s.speedup.clone()),
        ];
        let spread_line: Vec<String> = spreads
            .iter()
            .map(|(name, xs)| match stats::quartile_spread(xs) {
                Ok(x) => format!("{name} {:.1}%", x * 100.0),
                Err(_) => format!("{name} n/a"),
            })
            .collect();
        header.push(format!(
            "spread   within-run quartile distance / median over rounds: {}",
            spread_line.join("  ")
        ));
        if let (Ok(mid), Some(lo), Some(hi)) = (
            stats::median(&self.drift),
            self.drift.iter().copied().reduce(f64::min),
            self.drift.iter().copied().reduce(f64::max),
        ) {
            header.push(format!(
                "drift    reference kernel {:.2} ms at the median (nominal {:.2}): wall times scaled x{mid:.3} (x{lo:.3} .. x{hi:.3}); ratios and memory are as measured",
                NOMINAL_S * 1e3 / mid,
                NOMINAL_S * 1e3,
            ));
        }
        let known: Vec<bool> = s.disturbed.iter().flatten().copied().collect();
        let disturbed_rounds: Vec<String> = s
            .disturbed
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == Some(true))
            .map(|(i, _)| i.to_string())
            .collect();
        let disturbed_share = if known.is_empty() {
            0.0
        } else {
            known.iter().filter(|d| **d).count() as f64 / known.len() as f64
        };
        header.push(if known.is_empty() {
            "disturb  unknown (no /proc/thread-self/schedstat or /proc/stat)".to_owned()
        } else {
            format!(
                "disturb  {} of {} rounds disturbed [{}] (kept: medians are over all rounds)",
                disturbed_rounds.len(),
                known.len(),
                disturbed_rounds.join(",")
            )
        });
        header.push(format!(
            "samples  {} timed commits, {} read transactions, {} rounds; wall {:.1} s",
            pooled.len(),
            s.read_us.iter().map(Vec::len).sum::<usize>(),
            s.setup_s.len(),
            secs(wall)
        ));

        let metrics: Vec<Metric> = if self.tracing() {
            let spans = self.rec.len();
            let cover = stats::median(&self.rec.child_cover("engine.commit")).unwrap_or(1.0);
            header.push(format!(
                "trace    {spans} spans; children cover {:.1}% of a commit span at the median; {} shadow/receipt work mismatches",
                cover * 100.0,
                self.layers.work_mismatches
            ));
            let agreement: Vec<String> = CLASSES
                .iter()
                .zip(&self.layers.time_pairs)
                .map(|(c, pairs)| {
                    let (a, b): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
                    match (stats::median(&a), stats::median(&b)) {
                        (Ok(a), Ok(b)) if b > 0.0 => format!("{c} {:+.1}%", (a / b - 1.0) * 100.0),
                        _ => format!("{c} n/a"),
                    }
                })
                .collect();
            header.push(format!(
                "shadows  median apply time vs the receipts': {}",
                agreement.join("  ")
            ));
            if self.layers.work_mismatches > 0 {
                self.ops.fail(format!(
                    "{} commits where shadow WorkStats differ from the receipt's",
                    self.layers.work_mismatches
                ));
            }
            // Beside the run's scratch directory, which its caller removes.
            let out = self.cfg.trace_out.clone().unwrap_or_else(|| {
                self.cfg.scratch.with_file_name(format!(
                    "spans-{}-{}.jsonl",
                    self.cfg.workload.name(),
                    self.cfg.seed
                ))
            });
            let written = std::fs::File::create(&out)
                .and_then(|f| self.rec.write_jsonl(std::io::BufWriter::new(f)));
            match written {
                Ok(()) => header.push(format!("trace    spans written to {}", out.display())),
                Err(e) => self.ops.fail(format!("write {}: {e}", out.display())),
            }
            self.per_layer(disturbed_share, spans, beyond)?
        } else {
            END_TO_END
                .iter()
                .zip(end_to_end)
                .map(|(&(name, unit), value)| Metric {
                    name: name.to_owned(),
                    value,
                    unit,
                })
                .collect()
        };
        if rss.is_none() && !self.tracing() {
            self.ops
                .fail("VmHWM unavailable: peak_rss_mb cannot be measured".to_owned());
        }
        Ok(Report {
            header: std::mem::take(header),
            correct: self.ops.failed == 0,
            attempted: self.ops.attempted,
            failed: self.ops.failed,
            failures: self.ops.failures,
            metrics,
            stream_hash: self.inputs.stream_hash,
            commit_samples: pooled.len(),
            read_samples: self.series.read_us.iter().map(Vec::len).sum(),
        })
    }

    /// The per-layer table of the traced run, in `BENCHMARK.json` order.
    fn per_layer(
        &self,
        disturbed_share: f64,
        spans: usize,
        beyond: usize,
    ) -> Result<Vec<Metric>, String> {
        let l = &self.layers;
        let mut out: Vec<Metric> = Vec::new();
        let mut put = |name: &str, unit: &'static str, value: f64| {
            out.push(Metric {
                name: name.to_owned(),
                value: if value.is_finite() { value } else { 0.0 },
                unit,
            })
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let applied = l.count("shadow.applied");

        put("graph.normalize_us", "us", l.median("graph.normalize_us"));
        put("graph.apply_us", "us", l.median("graph.apply_us"));
        put("graph.clone_us", "us", l.median("graph.clone_us"));
        put(
            "graph.dropped_share",
            "share",
            ratio(l.count("graph.dropped"), l.count("graph.submitted")),
        );
        for (i, c) in CLASSES.iter().enumerate() {
            let apply = l
                .samples
                .get(&format!("{c}.apply_us"))
                .cloned()
                .unwrap_or_default();
            put(
                &format!("{c}.apply_p50_us"),
                "us",
                stats::median(&apply).unwrap_or(0.0),
            );
            put(
                &format!("{c}.apply_p99_us"),
                "us",
                stats::p99(&apply, beyond).map_err(|e| e.to_string())?,
            );
            put(
                &format!("{c}.share"),
                "share",
                ratio(l.view_apply_s[i], l.commit_s),
            );
            put(
                &format!("{c}.work_per_update"),
                "count",
                ratio(l.view_work[i] as f64, applied),
            );
            put(
                &format!("{c}.work_per_aff"),
                "count",
                ratio(l.view_work[i] as f64, l.view_aff[i] as f64),
            );
            put(
                &format!("{c}.init_ms"),
                "ms",
                l.median(&format!("{c}.init_ms")),
            );
            put(
                &format!("{c}.clone_us"),
                "us",
                l.median(&format!("{c}.clone_us")),
            );
        }
        let appends = l.count("log.appends");
        put("log.append_us", "us", l.median("log.append_us"));
        put("log.sync_us", "us", l.median("log.sync_us"));
        put(
            "log.syncs_per_1k_appends",
            "count",
            ratio(
                l.samples.get("log.sync_us").map_or(0.0, |s| s.len() as f64) * 1e3,
                appends,
            ),
        );
        put(
            "log.bytes_per_update",
            "count",
            ratio(l.count("log.bytes"), applied),
        );
        put("log.checkpoint_ms", "ms", l.median("log.checkpoint_ms"));
        put(
            "log.checkpoint_bytes",
            "count",
            l.median("log.checkpoint_bytes"),
        );
        put("log.compact_ms", "ms", l.median("log.compact_ms"));
        put("log.scan_ms", "ms", l.median("log.scan_ms"));
        put("log.replay_ms", "ms", l.median("log.replay_ms"));
        put("log.retries", "count", l.count("log.retries"));

        let med = |xs: &Vec<f64>| stats::median(xs).unwrap_or(0.0);
        let [plain, traced, parallel] = [
            med(&l.round_s_per_work[Drive::Plain as usize]),
            med(&l.round_s_per_work[Drive::Traced as usize]),
            med(&l.round_s_per_work[Drive::Parallel as usize]),
        ];
        put("engine.prepare_us", "us", l.median("engine.prepare_us"));
        put("engine.apply_us", "us", l.median("engine.apply_us"));
        put("engine.overhead_us", "us", l.median("engine.overhead_us"));
        put(
            "engine.overhead_share",
            "share",
            ratio(
                l.median("engine.overhead_us"),
                l.median("engine.prepare_us") + l.median("engine.apply_us"),
            ),
        );
        put("engine.recover_ms", "ms", l.median("engine.recover_ms"));
        put("engine.rebuild_ms", "ms", l.median("engine.rebuild_ms"));
        put(
            "engine.fanout_par_over_seq",
            "ratio",
            ratio(parallel, plain),
        );

        let subs = l.count("ingest.submissions");
        put("ingest.submit_us", "us", l.median("ingest.submit_us"));
        put("ingest.wait_us", "us", l.median("ingest.wait_us"));
        put(
            "ingest.coalesce_width",
            "count",
            ratio(subs, l.count("ingest.ticks")),
        );
        put("ingest.ticks", "count", l.count("ingest.ticks"));
        put(
            "ingest.subs_per_s",
            "1/s",
            ratio(subs, l.count("ingest.block_s")),
        );
        put("ingest.shed", "count", l.count("ingest.shed"));

        put("snapshot.pin_ns", "ns", l.median("snapshot.pin_ns"));
        put("snapshot.lookup_ns", "ns", l.median("snapshot.lookup_ns"));
        put("snapshot.publish_us", "us", l.median("snapshot.publish_us"));
        put("snapshot.cow_us", "us", l.median("snapshot.cow_us"));
        put(
            "snapshot.pinned_over_unpinned",
            "ratio",
            med(&l.main_over_shadow),
        );
        put(
            "snapshot.window_max",
            "count",
            l.count("snapshot.window_max"),
        );
        put("snapshot.cells_max", "count", l.count("snapshot.cells_max"));

        put("replica.attach_ms", "ms", l.median("replica.attach_ms"));
        put("replica.catchup_ms", "ms", l.median("replica.catchup_ms"));
        put(
            "replica.us_per_delta",
            "us",
            l.median("replica.us_per_delta"),
        );
        put("replica.lag_max", "count", l.count("replica.lag_max"));

        put(
            "trace.overhead_share",
            "share",
            if plain > 0.0 {
                traced / plain - 1.0
            } else {
                0.0
            },
        );
        put("trace.spans", "count", spans as f64);
        put("bench.disturbed_share", "share", disturbed_share);
        Ok(out)
    }
}

fn live<'a>(engine: &'a Engine, handles: &Handles) -> Result<ViewRefs<'a>, String> {
    handles.live(engine).map_err(|e| e.to_string())
}

/// The scratch directory a run uses: under the build directory (which the
/// driver puts inside the checkout), so nothing is written outside it.
pub fn default_scratch(workload: Workload, seed: u64) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("benchmark").join("target"));
    root.join("bench-scratch").join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ))
}
