//! The traced per-layer replay.
//!
//! The simulator records no wall-clock spans of its own, so this module
//! rebuilds a workload's inputs exactly as `SystemSimulation::new` does
//! (same trace, same derived seeds) and calls each layer's public entry
//! points in the order a run visits them: set-up (arrivals, prompts,
//! classifier fit, cache pre-warm), then minute by minute a sample of jobs
//! (level pick, embedding, index probe and store fetch, Eq. 3 worker
//! selection, quality scoring, completion accounting, cascade doubt,
//! event-queue traffic) followed by the minute's tick (per-pool Eq. 1
//! solves and ODA alignment). Only the layers the workload's own run
//! exercised are replayed, judged from its untraced outcome, so a layer
//! the workload never visits reports `n = 0`.
//!
//! Around every call the replay records a span — name, start, end,
//! parent span and job id — in memory, and writes them out at the end
//! as a Chrome trace-event file that Perfetto opens directly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use argus_cachestore::{CacheKey, CacheStore, NetworkModel};
use argus_classifier::{label_prompts, train, Classifier, TrainerConfig};
use argus_cluster::{Cluster, WorkerId};
use argus_core::metrics::MetricsCollector;
use argus_core::{
    oda, pipeline_for, AllocationProblem, CascadePolicy, Discriminator, OracleDiscriminator,
    RunConfig, RunOutcome, ServingPolicy, WorkloadDistributionPredictor,
};
use argus_des::rng::RngFactory;
use argus_des::{EventQueue, SimDuration, SimTime};
use argus_embed::{embed, Embedding};
use argus_models::{latency, ApproxLevel, GpuArch, ModelVariant, Strategy, AC_LEVELS};
use argus_prompts::{Prompt, PromptGenerator};
use argus_quality::{QualityOracle, DEFAULT_AC_SIMILARITY};
use argus_vdb::{FlatIndex, LshIndex};
use argus_workload::ArrivalProcess;

/// Jobs (and set-up items) sampled per layer: enough that the p99 has
/// tens of samples beyond it, few enough that the trace file stays small.
const SAMPLES: usize = 8192;
/// Drift refits replayed at most (each costs a full label + train).
const MAX_REFITS: usize = 4;
/// Recent-prompt window a drift refit trains on (the event loop's pool).
const RECENT_POOL: usize = 3000;
/// Offset of pre-warm ids, as in `SystemSimulation::new`.
const OFFLINE_BASE: u64 = 1 << 40;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`"embed.embed"`) or grouping (`"job"`, `"tick"`).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Workload job id the span serves, if any.
    pub job: Option<u64>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    fn open(&mut self, name: &'static str, job: Option<u64>) {
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let end = self.now_ns();
        let i = self.stack.pop().expect("close without open");
        self.spans[i].end_ns = end;
    }

    /// Runs `f` inside a span.
    fn time<R>(&mut self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.open(name, job);
        let r = black_box(f());
        self.close();
        r
    }

    /// Inclusive and self durations (ns) per span name. Self time is the
    /// span's duration minus what its children cover.
    pub fn durations(&self) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0.push(d as f64);
            e.1.push(d.saturating_sub(c) as f64);
        }
        by_name
    }

    /// Writes the spans as a Chrome trace-event document: one complete
    /// (`X`) event per span on a single track, so nesting shows as a
    /// flame graph, with the job id and parent index as arguments.
    pub fn write_chrome_trace(&self, path: &Path, label: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"benchmark\":\"{label}\"}},\"traceEvents\":["
        )?;
        writeln!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{label} layer replay\"}}}}"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                w,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
            if let Some(p) = s.parent {
                write!(w, ",\"parent\":{p}")?;
            }
            if let Some(j) = s.job {
                write!(w, ",\"job\":{j}")?;
            }
            writeln!(w, "}}}}")?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Which layers a workload's run visited, read from its untraced outcome.
pub struct Visits {
    /// Per-prompt level pick through the classifier (and ODA).
    pub classifier: bool,
    /// Per-job embedding, index probe, store fetch and insert.
    pub retrieval: bool,
    /// Discriminator scoring of first passes.
    pub cascade: bool,
}

impl Visits {
    /// Derives the visited layers from the configuration's pipeline and
    /// the run's counters.
    pub fn of(cfg: &RunConfig, out: &RunOutcome) -> Self {
        let pipe = pipeline(cfg);
        let r = &out.retrieval;
        Visits {
            classifier: pipe.uses_classifier(),
            retrieval: r.hits() + r.misses() + r.failures() > 0,
            cascade: cfg.cascade.is_some(),
        }
    }
}

fn pipeline(cfg: &RunConfig) -> std::sync::Arc<dyn ServingPolicy> {
    match &cfg.cascade {
        Some(cc) => {
            let rungs = ApproxLevel::ladder(Strategy::Sm).len();
            std::sync::Arc::new(CascadePolicy::new(cc.first_pass_rung(rungs)))
        }
        None => pipeline_for(cfg.policy),
    }
}

/// The retrieval index the configuration deploys.
enum Index {
    Flat(FlatIndex<u64>),
    Lsh(LshIndex<u64>),
}

impl Index {
    fn insert(&mut self, e: Embedding, id: u64) {
        match self {
            Index::Flat(i) => black_box(i.insert(e, id)),
            Index::Lsh(i) => black_box(i.insert(e, id)),
        };
    }

    fn nearest(&self, e: &Embedding) -> Option<u64> {
        match self {
            Index::Flat(i) => i.nearest(e).map(|h| h.payload),
            Index::Lsh(i) => i.nearest(e).map(|h| h.payload),
        }
    }
}

/// Replays `cfg`'s layers and returns the recorded spans. `out` is the
/// workload's untraced outcome (which layers it visited, where drift
/// refits fired).
pub fn replay(cfg: &RunConfig, out: &RunOutcome) -> Tracer {
    let visits = Visits::of(cfg, out);
    let mut tr = Tracer::new();
    let seed = cfg.seed;

    // ── set-up: the inputs `SystemSimulation::new` builds ──
    tr.open("setup", None);
    let mut arrivals_it = ArrivalProcess::new(&cfg.trace, seed ^ 0xA11);
    let mut arrivals: Vec<SimTime> = Vec::new();
    let expected = cfg.trace.total_queries().max(1.0) as usize;
    let stride = (expected / SAMPLES).max(1);
    loop {
        let next = if arrivals.len().is_multiple_of(stride) {
            tr.time("workload.arrival", None, || arrivals_it.next())
        } else {
            arrivals_it.next()
        };
        match next {
            Some(t) => arrivals.push(t),
            None => break,
        }
    }
    let n = arrivals.len();
    let stride = (n / SAMPLES).max(1);
    let mut generator = PromptGenerator::new(seed ^ 0x9E0);
    if let Some(d) = cfg.drift {
        generator = generator.with_drift(d);
    }
    let prompts: Vec<Prompt> = (0..n)
        .map(|i| {
            if i.is_multiple_of(stride) {
                tr.time("prompts.generate", Some(i as u64), || generator.generate())
            } else {
                generator.generate()
            }
        })
        .collect();
    let oracle = QualityOracle::new(seed ^ 0x0AC1E);
    let offline = PromptGenerator::new(seed ^ 0x0FF11E).generate_batch(cfg.classifier_train_size);
    let mut classifier: Option<Classifier> = None;
    if visits.classifier {
        for strategy in [Strategy::Ac, Strategy::Sm] {
            let clf = fit(
                &mut tr,
                &oracle,
                &offline,
                strategy,
                cfg.classifier_epochs,
                seed,
            );
            if strategy == Strategy::Ac {
                classifier = Some(clf);
            }
        }
    }
    let mut network = NetworkModel::new(RngFactory::new(seed));
    for &(minute, regime) in &cfg.network_events {
        network = network.with_event(SimTime::from_minutes(minute), regime);
    }
    let mut store = CacheStore::with_network(network);
    let cap = cfg.vdb_capacity.max(1);
    let mut index = if cfg.lsh_cache {
        Index::Lsh(LshIndex::with_capacity_limit(8, seed ^ 0x15B, cap))
    } else {
        Index::Flat(FlatIndex::with_capacity_limit(cap))
    };
    for (i, p) in offline.iter().enumerate() {
        let id = OFFLINE_BASE + i as u64;
        let e = tr.time("embed.embed", None, || embed(&p.text));
        tr.time("vdb.insert", None, || index.insert(e, id));
        for k in AC_LEVELS.iter().skip(1) {
            store.put(
                CacheKey {
                    prompt_id: id,
                    k: k.skipped_steps(),
                },
                SimTime::ZERO,
            );
        }
    }
    let mut queue: EventQueue<u64> = EventQueue::new();
    for (i, &at) in arrivals.iter().enumerate() {
        queue.schedule(at, i as u64);
    }
    tr.close();

    // ── the serving loop: sampled jobs, then each minute's tick ──
    let pools = pools(cfg);
    let mut collector = MetricsCollector::new(SimDuration::from_secs(base_latency_secs(&pools)));
    let slo = collector.slo().as_secs();
    let ladder = ApproxLevel::ladder(if visits.cascade || !visits.classifier {
        Strategy::Sm
    } else {
        Strategy::Ac
    });
    let cluster = placed_cluster(&pools, &ladder, cfg.trace.mean(), slo);
    let proc = |l: usize, gpu: GpuArch| ladder[l].compute_secs(gpu);
    let discriminator = OracleDiscriminator::new(seed);
    let mut predictor = WorkloadDistributionPredictor::new(ladder.len(), 1000);
    let uses_oda = pipeline(cfg).uses_oda();
    let first_rung = cfg
        .cascade
        .as_ref()
        .map(|cc| cc.first_pass_rung(ladder.len()))
        .unwrap_or(0);
    let mut refits: Vec<u64> = out
        .retrain_minutes
        .iter()
        .copied()
        .take(MAX_REFITS)
        .collect();
    refits.dedup();
    let mut next_job = 0usize;
    for minute in 0..cfg.trace.len_minutes() {
        let minute_end = SimTime::from_minutes((minute + 1) as f64);
        while next_job < n && arrivals[next_job] < minute_end {
            let i = next_job;
            next_job += 1;
            if !i.is_multiple_of(stride) {
                continue;
            }
            let t = arrivals[i];
            let p = &prompts[i];
            let job = Some(i as u64);
            tr.open("job", job);
            let rung = match &classifier {
                Some(c) => tr
                    .time("classifier.predict", job, || c.predict(&p.text))
                    .min(ladder.len() - 1),
                None => first_rung,
            };
            predictor.record(rung);
            let level = ladder[rung];
            if visits.retrieval {
                let e = tr.time("embed.embed", job, || embed(&p.text));
                let hit = tr.time("vdb.lookup", job, || index.nearest(&e));
                let k = match level {
                    ApproxLevel::Ac(ac) if ac.skipped_steps() > 0 => ac.skipped_steps(),
                    _ => AC_LEVELS[1].skipped_steps(),
                };
                if let Some(id) = hit {
                    let key = CacheKey { prompt_id: id, k };
                    tr.time("cachestore.fetch", job, || store.fetch(key, t));
                }
                tr.time("vdb.insert", job, || index.insert(e, i as u64));
                store.put(
                    CacheKey {
                        prompt_id: i as u64,
                        k,
                    },
                    t,
                );
            }
            tr.time("scheduler.select", job, || {
                argus_core::scheduler::select_worker_in_view(&cluster, &ladder, rung, &proc, None)
            });
            let service = level.compute_secs(GpuArch::A100);
            tr.time("des.event", job, || {
                let popped = queue.pop();
                queue.schedule(t + SimDuration::from_secs(service), i as u64);
                popped
            });
            let score = tr.time("quality.score", job, || oracle.score(p, level));
            let base = oracle.base_quality(p);
            let done = t + SimDuration::from_secs(service);
            tr.time("metrics.completion", job, || {
                collector.on_completion(done, SimDuration::from_secs(service), score, base)
            });
            if visits.cascade {
                tr.time("cascade.doubt", job, || {
                    discriminator.doubt(p, level, DEFAULT_AC_SIMILARITY)
                });
            }
            tr.close();
        }

        tr.open("tick", None);
        let demand = cfg.trace.qpm_at(minute);
        let total: usize = pools.iter().map(|&(_, w)| w).sum();
        let mut omega = vec![0.0; ladder.len()];
        for &(gpu, workers) in &pools {
            let share = demand * workers as f64 / total as f64;
            let alloc = tr.time("solver.solve", None, || {
                AllocationProblem::from_ladder(&ladder, gpu, 0.0, workers, share)
                    .with_slo_derating(slo)
                    .solve()
            });
            for (o, w) in omega.iter_mut().zip(&alloc.omega_qpm) {
                *o += w;
            }
        }
        if uses_oda && predictor.observed() > 0 && omega.iter().sum::<f64>() > 0.0 {
            let phi = predictor.phi();
            let _ = tr.time("oda.align", None, || oda(&phi, &omega));
        }
        if refits.first() == Some(&(minute as u64)) {
            refits.remove(0);
            let lo = next_job.saturating_sub(RECENT_POOL);
            let pool = &prompts[lo..next_job];
            if pool.len() >= 200 {
                fit(
                    &mut tr,
                    &oracle,
                    pool,
                    Strategy::Ac,
                    cfg.classifier_epochs,
                    seed ^ minute as u64,
                );
            }
        }
        tr.close();
    }
    tr
}

/// One classifier fit — labelling plus training — as one span.
fn fit(
    tr: &mut Tracer,
    oracle: &QualityOracle,
    prompts: &[Prompt],
    strategy: Strategy,
    epochs: usize,
    seed: u64,
) -> Classifier {
    tr.open("classifier.fit", None);
    let ladder = ApproxLevel::ladder(strategy);
    let samples = tr.time("classifier.label", None, || {
        label_prompts(oracle, prompts, &ladder)
    });
    let (clf, _) = tr.time("classifier.train", None, || {
        train(
            &samples,
            ladder.len(),
            &TrainerConfig {
                epochs,
                seed,
                ..TrainerConfig::default()
            },
        )
    });
    tr.close();
    clf
}

/// The run's pools: on-demand then spot, merged by architecture.
fn pools(cfg: &RunConfig) -> Vec<(GpuArch, usize)> {
    let mut merged: Vec<(GpuArch, usize)> = Vec::new();
    let spot = cfg.spot_pools.iter().map(|s| (s.gpu, s.workers));
    for (gpu, n) in cfg.effective_pools().into_iter().chain(spot) {
        match merged.iter_mut().find(|(g, _)| *g == gpu) {
            Some(e) => e.1 += n,
            None => merged.push((gpu, n)),
        }
    }
    merged
}

/// The SLO's reference latency: SD-XL on the fleet's slowest pool.
fn base_latency_secs(pools: &[(GpuArch, usize)]) -> f64 {
    pools
        .iter()
        .map(|&(gpu, _)| latency::inference_secs(ModelVariant::SdXl, gpu))
        .fold(0.0, f64::max)
}

/// A cluster of the run's pools with levels placed by an Eq. 1 solve at
/// the trace's mean demand, so Eq. 3 scans a realistic level mix.
fn placed_cluster(
    pools: &[(GpuArch, usize)],
    ladder: &[ApproxLevel],
    demand: f64,
    slo: f64,
) -> Cluster {
    let mut cluster = Cluster::heterogeneous(pools);
    let total: usize = pools.iter().map(|&(_, w)| w).sum();
    let mut next = 0usize;
    for &(gpu, workers) in pools {
        let share = demand * workers as f64 / total as f64;
        let alloc = AllocationProblem::from_ladder(ladder, gpu, 0.0, workers, share)
            .with_slo_derating(slo)
            .solve();
        let mut placed = 0;
        for (lvl, &count) in alloc.workers_per_level.iter().enumerate() {
            for _ in 0..count.min(workers - placed) {
                let w = cluster.worker_mut(WorkerId(next + placed));
                w.assign_level(ladder[lvl], SimTime::ZERO);
                w.finish_load(SimTime::ZERO);
                placed += 1;
            }
        }
        next += workers;
    }
    cluster
}
