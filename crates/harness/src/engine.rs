//! The campaign execution engine.
//!
//! Executes a [`CampaignSpec`]'s points on a pool of worker threads fed
//! by per-worker work-stealing deques. Results are deterministic by
//! construction — every point derives all randomness from its own seed
//! and shares no mutable state — so a campaign produces bit-identical
//! results on one thread or sixteen; the deques only decide *when* each
//! point runs, never *what* it computes.
//!
//! Per point, in order: consult the content-addressed cache (hit = no
//! simulation), else simulate under the campaign's
//! [supervision policy](crate::supervise::SupervisePolicy). A *transient*
//! failure — a worker panic, or a watchdog cancellation (wall-clock
//! deadline or simulated-cycle budget) — is retried up to the policy's
//! budget with deterministic backoff, then quarantined; a *deterministic*
//! simulation fault ([`SimError`]: a wedged pipeline, or an invariant
//! violation in checked mode) fails the point immediately (re-running a
//! pure function reproduces the same fault), with the error journaled
//! and a JSON diagnostic dump next to the point's cache entry. Either
//! way the campaign continues: no single point can take it down.
//!
//! When the spec carries a [`ChaosPlan`](s64v_core::ChaosPlan), the
//! seeded chaos schedule injects harness faults — point hangs and worker
//! panics on a point's *first* attempt (so retries always recover), torn
//! cache writes and truncated journal appends at the storage layer — and
//! every fired fault is journaled. The `campaign soak` gate asserts a
//! chaos run's final results are byte-identical to an undisturbed one.

use crate::cache::ResultCache;
use crate::journal::{journal_path, FailedPoint, Journal};
use crate::progress::{CampaignReport, ProgressEvent};
use crate::spec::{CampaignSpec, PointMetrics, SimPoint, WorkUnit};
use crate::supervise::{CacheLock, ChaosInjector, Watchdog};
use s64v_core::{
    compare, CycleBudget, HarnessFaultClass, ObserveConfig, PerformanceModel, RunObservation,
    RunOptions, SimError, SystemConfig, WarmState,
};
use s64v_observe::{perfetto_json, render_pipeline, to_jsonl};
use s64v_trace::{TraceRecord, VecTrace};
use s64v_workloads::{smp_traces, suite::tpcc_program, Suite, SuiteKind};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How one point ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point simulated (or cache-hit) successfully. Boxed: the
    /// metrics (CPI stack included) dwarf the failure variants, and a
    /// campaign holds one outcome per point.
    Metrics(Box<PointMetrics>),
    /// The point failed; the campaign continued without it.
    Failed {
        /// The simulation error or panic message.
        error: String,
        /// JSON diagnostic dump, written next to the point's cache entry
        /// when the failure was a structured [`SimError`] and a cache
        /// directory was configured.
        dump_path: Option<PathBuf>,
        /// Attempts made (1 = failed on the first try).
        attempts: u32,
        /// Whether transient failures exhausted the retry budget (as
        /// opposed to a deterministic fault failing fast).
        quarantined: bool,
    },
    /// Every attempt was cancelled by the watchdog (wall-clock deadline
    /// or simulated-cycle budget); the campaign continued without it.
    TimedOut {
        /// The last watchdog error.
        error: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl PointOutcome {
    /// The metrics, if the point succeeded.
    pub fn metrics(&self) -> Option<&PointMetrics> {
        match self {
            PointOutcome::Metrics(m) => Some(m),
            PointOutcome::Failed { .. } | PointOutcome::TimedOut { .. } => None,
        }
    }
}

/// Everything a campaign run produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-point outcomes, index-aligned with the spec's point list.
    pub outcomes: Vec<PointOutcome>,
    /// Failures left in the journal by *previous* runs (resume context;
    /// empty without a cache directory).
    pub prior_failures: Vec<FailedPoint>,
    /// Aggregate counters for the run.
    pub report: CampaignReport,
}

impl CampaignOutcome {
    /// Per-point metrics, index-aligned with the spec (`None` = failed).
    pub fn results(&self) -> Vec<Option<&PointMetrics>> {
        self.outcomes.iter().map(PointOutcome::metrics).collect()
    }

    /// This run's failures as (point index, error message, dump path).
    /// Timed-out points are failures too (with no dump).
    pub fn failures(&self) -> Vec<(usize, &str, Option<&Path>)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                PointOutcome::Metrics(_) => None,
                PointOutcome::Failed {
                    error, dump_path, ..
                } => Some((i, error.as_str(), dump_path.as_deref())),
                PointOutcome::TimedOut { error, .. } => Some((i, error.as_str(), None)),
            })
            .collect()
    }
}

/// Per-worker deques with stealing: a worker drains its own deque from
/// the front and, when empty, takes from the *back* of a neighbour's.
/// All items are enqueued before the workers start, so one full scan
/// finding nothing means the campaign is drained.
struct StealDeques {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealDeques {
    fn new(workers: usize, items: usize) -> Self {
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for i in 0..items {
            queues[i % workers].push_back(i);
        }
        StealDeques {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    fn pop(&self, me: usize) -> Option<usize> {
        // Deque locks are only held across a pop; a poisoned lock means a
        // worker died between pops, and the queue itself is still intact —
        // recover it so the surviving workers drain the campaign.
        if let Some(i) = self.queues[me]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some(i);
        }
        for offset in 1..self.queues.len() {
            let other = (me + offset) % self.queues.len();
            if let Some(i) = self.queues[other]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back()
            {
                return Some(i);
            }
        }
        None
    }
}

/// Key of one generated trace: (suite, program index, length, seed).
type TraceKey = (SuiteKind, usize, usize, u64);

/// Bound on distinct traces held by [`shared_trace`] at once. Sampled
/// campaigns touch each workload's trace from many window points but
/// only a handful of workloads concurrently, so a small cache captures
/// nearly all reuse while bounding memory on long traces.
const TRACE_CACHE_CAP: usize = 4;

/// Idle warm cursors a trace slot keeps: enough for each of a few
/// workers that interleave one plan's windows to continue a pass of its
/// own. Each is about 1–2 MiB.
const CURSORS_PER_TRACE: usize = 4;

/// One trace's cache slot, shared through an `Arc`: the trace behind a
/// `OnceLock` (concurrent first requests block on a single generation)
/// and the idle functional passes over it, oldest first. Both live and
/// die with the slot.
#[derive(Default)]
struct TraceSlot {
    trace: std::sync::OnceLock<Arc<VecTrace>>,
    cursors: Mutex<Vec<WarmCursor>>,
}

/// One functional pass over a slot's trace, parked between the windows
/// that continue it: `state` is `config`'s machine after warming records
/// `from..pos`.
struct WarmCursor {
    config: SystemConfig,
    from: usize,
    pos: usize,
    state: WarmState,
}

impl TraceSlot {
    /// The slot's trace, generated on first request.
    fn trace(&self, suite: SuiteKind, index: usize, records: usize, seed: u64) -> &VecTrace {
        self.trace.get_or_init(|| {
            Arc::new(Suite::preset(suite).programs()[index].generate(records, seed))
        })
    }

    /// The machine after warming `recs[from..start]` on `config`.
    ///
    /// The window takes the idle cursor of the same config and `from`
    /// that is furthest along without passing `start`, advances it to
    /// `start` and clones it, so the windows of a plan share functional
    /// passes instead of each replaying its whole warm-up. With no such
    /// cursor (the plan's first window on this worker, a bounded warm-up,
    /// a window behind every pass) it warms fresh, as a lone window
    /// would. Either way its cursor then goes back to the slot, the
    /// oldest idle one making room. A cursor is advanced outside the lock
    /// and only returned once whole, so a panic drops it and a
    /// half-advanced state is never reused. Warming is a pure function of
    /// the records replayed, so every path returns the same state.
    fn warm_state(
        &self,
        recs: &[TraceRecord],
        config: &SystemConfig,
        from: usize,
        start: usize,
    ) -> WarmState {
        let idle = || self.cursors.lock().unwrap_or_else(|e| e.into_inner());
        let taken = {
            let mut idle = idle();
            idle.iter()
                .enumerate()
                .filter(|(_, c)| c.config == *config && c.from == from && c.pos <= start)
                .max_by_key(|(_, c)| c.pos)
                .map(|(i, _)| i)
                .map(|i| idle.remove(i))
        };
        let mut cursor = taken.unwrap_or_else(|| WarmCursor {
            config: config.clone(),
            from,
            pos: from,
            state: WarmState::new(config),
        });
        cursor.state.advance(&[recs], cursor.pos..start);
        cursor.pos = start;
        let state = cursor.state.clone();
        let mut idle = idle();
        idle.push(cursor);
        if idle.len() > CURSORS_PER_TRACE {
            idle.remove(0);
        }
        state
    }
}

/// The process-wide trace slots, and the key requested last.
#[derive(Default)]
struct TraceCache {
    slots: HashMap<TraceKey, Arc<TraceSlot>>,
    last: Option<TraceKey>,
}

fn trace_cache() -> &'static Mutex<TraceCache> {
    static CACHE: std::sync::OnceLock<Mutex<TraceCache>> = std::sync::OnceLock::new();
    CACHE.get_or_init(Default::default)
}

/// Returns the process-wide slot of the `(suite, index)` program's trace
/// of `records` records. Every window point of one sampled plan needs
/// the *same* full trace; generating it once and handing out `Arc`s
/// keeps a sampled campaign's generation cost O(trace) instead of
/// O(windows × trace). Generation is deterministic, so sharing can never
/// change results.
fn shared_trace(suite: SuiteKind, index: usize, records: usize, seed: u64) -> Arc<TraceSlot> {
    let key = (suite, index, records, seed);
    let mut cache = trace_cache().lock().unwrap_or_else(|e| e.into_inner());
    if cache.slots.len() >= TRACE_CACHE_CAP && !cache.slots.contains_key(&key) {
        // Evict everything but traces still generating and the trace
        // requested last, whose plan other workers are likely still
        // finishing: in-flight users keep their `Arc`s, and a campaign
        // revisiting an evicted trace just regenerates it.
        let last = cache.last;
        cache
            .slots
            .retain(|k, slot| slot.trace.get().is_none() || Some(*k) == last);
        if cache.slots.len() >= TRACE_CACHE_CAP {
            cache.slots.clear();
        }
    }
    cache.last = Some(key);
    Arc::clone(cache.slots.entry(key).or_default())
}

/// Runs one point to completion, returning a simulation fault (a wedged
/// pipeline, or — in checked mode — an invariant violation) as a
/// structured [`SimError`]. Pure: everything derives from the point and
/// the options, so equal fingerprints mean equal return values.
pub fn try_execute_point(point: &SimPoint, opts: RunOptions) -> Result<PointMetrics, SimError> {
    run_point(point, opts, None).map(|(m, _)| m)
}

/// [`try_execute_point`], plus the run's [`RunObservation`] when
/// `observe` is given. Observation is read-only, so the metrics are
/// byte-identical either way — cache entries written from observed and
/// plain runs are interchangeable. `Verify` points drive two machines
/// through `compare`, and sampled windows measure steady-state statistics
/// rather than instruction narratives: both run unobserved and return an
/// empty observation.
fn run_point(
    point: &SimPoint,
    opts: RunOptions,
    observe: Option<ObserveConfig>,
) -> Result<(PointMetrics, RunObservation), SimError> {
    let model = PerformanceModel::new(point.config.clone());
    let (r, obs) = match point.work {
        WorkUnit::Program { suite, index } => {
            let trace = Suite::preset(suite).programs()[index]
                .generate(point.records + point.warmup, point.seed);
            model.try_run(&[trace], point.warmup, opts, observe)?
        }
        WorkUnit::SmpTpcc => {
            let traces = smp_traces(
                &tpcc_program(),
                point.config.cpus,
                point.records + point.warmup,
                point.seed,
            );
            model.try_run(&traces, point.warmup, opts, observe)?
        }
        WorkUnit::Verify { suite, index } => {
            // `compare` drives both machines itself; checked mode and
            // fault injection do not apply to the reference cross-check.
            let trace = Suite::preset(suite).programs()[index]
                .generate(point.records + point.warmup, point.seed);
            let check = compare(&point.config, &trace, point.warmup);
            let metrics = PointMetrics {
                cycles: check.model_cycles,
                reference_cycles: check.reference_cycles,
                same_work: check.passed(),
                ..PointMetrics::default()
            };
            return Ok((metrics, RunObservation::default()));
        }
        WorkUnit::SampledWindow {
            suite,
            index,
            start,
            len,
        } => {
            // `point.records` is the *full trace length* here; the
            // `point.warmup` records before `start` warm the machine and
            // only the window itself is timed. The trace is generated
            // once per plan and shared across its window points, and so
            // are functional passes over it (see `TraceSlot::warm_state`):
            // a warm-from-0 plan replays its trace about once per worker,
            // not once per window, so a window costs O(len) past the
            // first its worker runs.
            assert!(
                len > 0 && start + len <= point.records,
                "sampled window {start}+{len} is empty or exceeds the {}-record trace",
                point.records
            );
            let from = start.saturating_sub(point.warmup);
            let slot = shared_trace(suite, index, point.records, point.seed);
            let recs = slot
                .trace(suite, index, point.records, point.seed)
                .records();
            let warm = slot.warm_state(recs, &point.config, from, start);
            model.try_run_warmed(warm, &[&recs[start..start + len]], opts, None)?
        }
    };
    Ok((PointMetrics::from(&r), obs))
}

/// Renders a traced point's pipeline diagram, one section per CPU.
fn pipeline_text(obs: &RunObservation) -> String {
    let mut out = String::new();
    for (cpu, timelines) in obs.timelines.iter().enumerate() {
        if obs.timelines.len() > 1 {
            out.push_str(&format!("=== cpu{cpu} ===\n"));
        }
        out.push_str(&render_pipeline(timelines, 200));
    }
    out
}

/// Trace records a point covers (warm-up included, all CPUs). A sampled
/// window counts its logical warm-up (capped at the window start) plus
/// the timed window, however long the surrounding trace is — even when
/// a shared functional pass replayed only the records since an earlier
/// window (see `TraceSlot::warm_state`), so the count does not depend on
/// scheduling.
fn point_records(point: &SimPoint) -> u64 {
    let per_stream = (point.records + point.warmup) as u64;
    match point.work {
        WorkUnit::SmpTpcc => per_stream * point.config.cpus as u64,
        WorkUnit::SampledWindow { start, len, .. } => (point.warmup.min(start) + len) as u64,
        _ => per_stream,
    }
}

/// Executes a campaign and returns every point's metrics.
///
/// `progress` receives one event per point transition; pass `None` (or
/// drop the receiver) to run silently. The error covers only cache or
/// journal I/O setup — simulation panics are *contained* per point and
/// reported in the outcome, never returned as errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    progress: Option<Sender<ProgressEvent>>,
) -> std::io::Result<CampaignOutcome> {
    let start = Instant::now();
    let chaos = ChaosInjector::new(spec.chaos);
    // One campaign per cache directory: held until this run returns, so a
    // concurrent campaign against the same results-cache/ waits instead
    // of interleaving writes with us.
    let _lock = match &spec.cache_dir {
        Some(dir) => Some(CacheLock::acquire(dir)?),
        None => None,
    };
    let cache = match &spec.cache_dir {
        Some(dir) => Some(ResultCache::open(dir)?.with_chaos(Arc::clone(&chaos))),
        None => None,
    };
    let (journal, prior_failures) = match &spec.cache_dir {
        Some(dir) => {
            let path = journal_path(dir);
            let prior = Journal::load(&path).failed;
            (
                Some(Journal::open(&path)?.with_chaos(Arc::clone(&chaos))),
                prior,
            )
        }
        None => (None, Vec::new()),
    };
    let watchdog = spec.supervise.deadline.map(Watchdog::spawn);

    let workers = spec
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .min(spec.points.len())
        .max(1);
    let deques = StealDeques::new(workers, spec.points.len());
    let slots: Vec<Mutex<Option<PointOutcome>>> =
        spec.points.iter().map(|_| Mutex::new(None)).collect();
    let cache_hits = AtomicUsize::new(0);
    let simulated_records = AtomicU64::new(0);
    let retries = AtomicUsize::new(0);
    let timed_out = AtomicUsize::new(0);
    // Quarantined points as (index, label, last error); sorted by index
    // at the end so the report is independent of worker scheduling.
    let quarantined: Mutex<Vec<(usize, String, String)>> = Mutex::new(Vec::new());
    // Self-profile: summed per-point simulation wall time (nanoseconds)
    // and the per-point timings behind the report's slowest-points list.
    let sim_wall_nanos = AtomicU64::new(0);
    let point_timings: Mutex<Vec<(String, Duration)>> = Mutex::new(Vec::new());

    // Heartbeat bookkeeping. `Arc` because the heartbeat thread outlives
    // the worker scope's borrows (it is joined after the scope, once the
    // stop channel drops).
    let done = Arc::new(AtomicUsize::new(0));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let heartbeat = match (spec.heartbeat, &progress) {
        (Some(period), Some(tx)) => {
            let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
            let tx = tx.clone();
            let done = Arc::clone(&done);
            let in_flight = Arc::clone(&in_flight);
            let total = spec.points.len();
            let handle = std::thread::spawn(move || {
                // Anything but a timeout — a message or a dropped sender
                // — means "stop".
                while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period) {
                    let done = done.load(Ordering::Relaxed);
                    let elapsed = start.elapsed();
                    let eta =
                        (done > 0).then(|| elapsed.mul_f64((total - done) as f64 / done as f64));
                    let _ = tx.send(ProgressEvent::Heartbeat {
                        done,
                        total,
                        in_flight: in_flight.load(Ordering::Relaxed),
                        elapsed,
                        eta,
                    });
                }
            });
            Some((stop_tx, handle))
        }
        _ => None,
    };

    // Point panics are caught and reported as failures; the default hook
    // would additionally spray a backtrace per panic onto stderr, burying
    // the progress stream under a crashing campaign. Silence it while
    // workers run (the message still reaches the failure report).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let cache = cache.as_ref();
            let journal = journal.as_ref();
            let cache_hits = &cache_hits;
            let simulated_records = &simulated_records;
            let sim_wall_nanos = &sim_wall_nanos;
            let point_timings = &point_timings;
            let retries = &retries;
            let timed_out = &timed_out;
            let quarantined = &quarantined;
            let watchdog = watchdog.as_ref();
            let chaos = &chaos;
            let done = &done;
            let in_flight = &in_flight;
            let progress = progress.clone();
            scope.spawn(move || {
                while let Some(index) = deques.pop(worker) {
                    let point = &spec.points[index];
                    let label = point.label();
                    let fp = point.fingerprint();
                    let point_start = Instant::now();
                    in_flight.fetch_add(1, Ordering::Relaxed);
                    send(&progress, || ProgressEvent::Started {
                        index,
                        label: label.clone(),
                    });

                    // A point selected for tracing or metrics must actually
                    // simulate — the artifacts come from a live run — so it
                    // bypasses the cache *read*. The write side is shared:
                    // observation is read-only, so the metrics it stores are
                    // byte-identical to an unobserved run's.
                    let wants_trace = spec.observe.wants_trace(&label);
                    let observed = wants_trace || spec.observe.metrics;

                    if !observed {
                        if let Some(hit) = cache.and_then(|c| c.load(fp)) {
                            cache_hits.fetch_add(1, Ordering::Relaxed);
                            // Backfill the PMU artifact if it went missing
                            // (deleted, or predates artifact emission) so
                            // `campaign perf` always sees a full cache dir.
                            if let Some(c) = cache {
                                if hit.cpi_core_cycles() > 0
                                    && !c.artifact_path(fp, "cpi.json").exists()
                                {
                                    let _ = c.store_artifact(
                                        fp,
                                        "cpi.json",
                                        &crate::perf::cpi_artifact(&label, fp, &hit),
                                    );
                                }
                            }
                            if let Some(j) = journal {
                                j.record_ok(fp, &label);
                            }
                            send(&progress, || ProgressEvent::Finished {
                                index,
                                label: label.clone(),
                                cache_hit: true,
                                records: point_records(point),
                                elapsed: point_start.elapsed(),
                            });
                            *slots[index].lock().unwrap_or_else(|e| e.into_inner()) =
                                Some(PointOutcome::Metrics(Box::new(hit)));
                            done.fetch_add(1, Ordering::Relaxed);
                            in_flight.fetch_sub(1, Ordering::Relaxed);
                            continue;
                        }
                    }

                    // The attempt loop: transient failures (panics,
                    // watchdog cancellations) retry with deterministic
                    // backoff up to the policy's budget, then quarantine;
                    // deterministic simulation faults fail fast.
                    let fp_hex = fp.to_hex();
                    let mut attempt: u32 = 0;
                    let outcome = loop {
                        // Each attempt gets a fresh cancel flag; the
                        // watchdog monitor sets it once the attempt is
                        // overdue and the model's cycle loop notices.
                        let cancel = Arc::new(AtomicBool::new(false));
                        let guard = watchdog.map(|w| w.register(Arc::clone(&cancel)));
                        let budget = (watchdog.is_some() || spec.supervise.cycle_budget.is_some())
                            .then(|| CycleBudget {
                                max_cycles: spec.supervise.cycle_budget,
                                cancel: watchdog.is_some().then(|| Arc::clone(&cancel)),
                            });
                        let opts = RunOptions {
                            checked: spec.checked,
                            fault: spec.fault,
                            budget,
                            ..RunOptions::default()
                        };
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            // Chaos strikes only a point's first attempt,
                            // so the retry ladder always recovers and a
                            // chaos campaign's final results stay
                            // byte-identical to an undisturbed run's.
                            if attempt == 0 && chaos.fire(HarnessFaultClass::PointHang, &fp_hex) {
                                return Err(SimError::watchdog(0, "chaos: injected point hang"));
                            }
                            if attempt == 0 && chaos.fire(HarnessFaultClass::WorkerPanic, &fp_hex) {
                                panic!("chaos: injected worker panic");
                            }
                            let observe = observed.then(|| {
                                if wants_trace {
                                    ObserveConfig {
                                        interval: spec.observe.interval,
                                        ..ObserveConfig::default()
                                    }
                                } else {
                                    ObserveConfig::metrics_only(spec.observe.interval)
                                }
                            });
                            run_point(point, opts, observe)
                        }));
                        drop(guard);

                        // Classify: success breaks out; a deterministic
                        // fault breaks out (fail fast); a transient
                        // failure falls through to the retry ladder.
                        let (error, was_timeout) = match run {
                            Ok(Ok((metrics, obs))) => {
                                simulated_records
                                    .fetch_add(point_records(point), Ordering::Relaxed);
                                let sim_elapsed = point_start.elapsed();
                                sim_wall_nanos
                                    .fetch_add(sim_elapsed.as_nanos() as u64, Ordering::Relaxed);
                                point_timings
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push((label.clone(), sim_elapsed));
                                if let Some(c) = cache {
                                    // A failed store degrades the next run
                                    // to a re-simulation; the current one
                                    // is unharmed.
                                    let _ = c.store(fp, &metrics);
                                    // PMU-style top-down artifact for every
                                    // simulated point. Verify-only points
                                    // commit nothing and carry no stack, so
                                    // they get no artifact.
                                    if metrics.cpi_core_cycles() > 0 {
                                        let _ = c.store_artifact(
                                            fp,
                                            "cpi.json",
                                            &crate::perf::cpi_artifact(&label, fp, &metrics),
                                        );
                                    }
                                    if wants_trace {
                                        let _ = c.store_artifact(
                                            fp,
                                            "trace.json",
                                            &perfetto_json(&obs),
                                        );
                                        let _ = c.store_artifact(
                                            fp,
                                            "pipeline.txt",
                                            &pipeline_text(&obs),
                                        );
                                    }
                                    if spec.observe.metrics {
                                        let _ = c.store_artifact(
                                            fp,
                                            "metrics.jsonl",
                                            &to_jsonl(&obs.intervals),
                                        );
                                    }
                                }
                                if let Some(j) = journal {
                                    j.record_ok(fp, &label);
                                }
                                send(&progress, || ProgressEvent::Finished {
                                    index,
                                    label: label.clone(),
                                    cache_hit: false,
                                    records: point_records(point),
                                    elapsed: point_start.elapsed(),
                                });
                                break PointOutcome::Metrics(Box::new(metrics));
                            }
                            Ok(Err(sim)) if sim.is_watchdog() => {
                                timed_out.fetch_add(1, Ordering::Relaxed);
                                (sim.to_string(), true)
                            }
                            Ok(Err(sim)) => {
                                // Deterministic simulation fault: retrying
                                // a pure function reproduces it, so fail
                                // fast — dump the full diagnostics next to
                                // the cache entry (best effort) and keep
                                // the campaign going.
                                let error = sim.to_string();
                                let dump_path =
                                    cache.and_then(|c| c.store_failure(fp, &sim.to_json()).ok());
                                if let Some(j) = journal {
                                    j.record_fail(fp, &label, &error);
                                }
                                send(&progress, || ProgressEvent::Failed {
                                    index,
                                    label: label.clone(),
                                    error: error.clone(),
                                });
                                break PointOutcome::Failed {
                                    error,
                                    dump_path,
                                    attempts: attempt + 1,
                                    quarantined: false,
                                };
                            }
                            Err(payload) => (panic_message(payload.as_ref()), false),
                        };

                        if attempt < spec.supervise.retries {
                            retries.fetch_add(1, Ordering::Relaxed);
                            if let Some(j) = journal {
                                j.record_retry(fp, &label, &error);
                            }
                            send(&progress, || ProgressEvent::Retrying {
                                index,
                                label: label.clone(),
                                attempt,
                                error: error.clone(),
                            });
                            std::thread::sleep(spec.supervise.backoff_for(fp, attempt + 1));
                            attempt += 1;
                            continue;
                        }

                        // Retry budget exhausted: quarantine the point.
                        if let Some(j) = journal {
                            j.record_fail(fp, &label, &error);
                        }
                        quarantined.lock().unwrap_or_else(|e| e.into_inner()).push((
                            index,
                            label.clone(),
                            error.clone(),
                        ));
                        send(&progress, || ProgressEvent::Failed {
                            index,
                            label: label.clone(),
                            error: error.clone(),
                        });
                        break if was_timeout {
                            PointOutcome::TimedOut {
                                error,
                                attempts: attempt + 1,
                            }
                        } else {
                            PointOutcome::Failed {
                                error,
                                dump_path: None,
                                attempts: attempt + 1,
                                quarantined: true,
                            }
                        };
                    };
                    *slots[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                    done.fetch_add(1, Ordering::Relaxed);
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                }
            });
        }
    });
    std::panic::set_hook(default_hook);
    if let Some((stop_tx, handle)) = heartbeat {
        drop(stop_tx); // disconnect wakes the heartbeat thread immediately
        let _ = handle.join();
    }

    // Journal every chaos fault that fired, sorted — so the trail is
    // independent of worker scheduling and the soak gate can assert each
    // injected fault is visible.
    if let Some(j) = &journal {
        for fault in chaos.fired() {
            j.record_chaos(fault.class, &fault.key);
        }
    }

    let outcomes: Vec<PointOutcome> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every point visited")
        })
        .collect();
    let completed = outcomes
        .iter()
        .filter(|o| matches!(o, PointOutcome::Metrics(_)))
        .count();
    let mut slowest = point_timings
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    slowest.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    slowest.truncate(5);
    let mut quarantined = quarantined.into_inner().unwrap_or_else(|e| e.into_inner());
    quarantined.sort_by_key(|(index, _, _)| *index);
    let report = CampaignReport {
        completed,
        failed: outcomes.len() - completed,
        cache_hits: cache_hits.into_inner(),
        simulated_records: simulated_records.into_inner(),
        retries: retries.into_inner(),
        timed_out: timed_out.into_inner(),
        quarantined: quarantined
            .into_iter()
            .map(|(_, label, error)| (label, error))
            .collect(),
        elapsed: start.elapsed(),
        sim_wall: Duration::from_nanos(sim_wall_nanos.into_inner()),
        slowest,
    };
    Ok(CampaignOutcome {
        outcomes,
        prior_failures,
        report,
    })
}

fn send(progress: &Option<Sender<ProgressEvent>>, event: impl FnOnce() -> ProgressEvent) {
    if let Some(tx) = progress {
        // A dropped receiver just means nobody is watching.
        let _ = tx.send(event());
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::SupervisePolicy;
    use s64v_core::{ChaosPlan, FaultClass, FaultPlan, SystemConfig};
    use s64v_workloads::SuiteKind;

    /// The default retry ladder with no backoff sleeps (unit-test speed).
    fn fast_policy() -> SupervisePolicy {
        SupervisePolicy {
            backoff: Duration::ZERO,
            ..SupervisePolicy::default()
        }
    }

    fn program_point(records: usize, seed: u64) -> SimPoint {
        SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::Program {
                suite: SuiteKind::SpecInt95,
                index: 0,
            },
            records,
            warmup: 2_000,
            seed,
        }
    }

    #[test]
    fn campaign_runs_points_in_order() {
        let spec = CampaignSpec::new(
            "unit",
            vec![program_point(3_000, 1), program_point(3_000, 2)],
        );
        let outcome = run_campaign(&spec, None).expect("run");
        assert_eq!(outcome.outcomes.len(), 2);
        assert!(outcome.failures().is_empty());
        let a = outcome.outcomes[0].metrics().expect("point 0");
        let b = outcome.outcomes[1].metrics().expect("point 1");
        assert_eq!(a.committed, 3_000);
        assert_ne!(a.cycles, b.cycles, "different seeds, different traces");
        assert_eq!(outcome.report.completed, 2);
        assert_eq!(outcome.report.simulated_records, 2 * 5_000);
    }

    #[test]
    fn engine_matches_direct_execution() {
        let p = program_point(4_000, 9);
        let direct = try_execute_point(&p, RunOptions::default()).expect("clean run");
        let outcome = run_campaign(&CampaignSpec::new("unit", vec![p]), None).expect("run");
        assert_eq!(outcome.outcomes[0].metrics(), Some(&direct));
    }

    #[test]
    fn warm_cursors_serve_windows_in_any_order() {
        let config = SystemConfig::sparc64_v();
        let model = PerformanceModel::new(config.clone());
        let trace = Suite::preset(SuiteKind::SpecInt95).programs()[0].generate(12_000, 3);
        let recs = trace.records();
        let timed = |warm: WarmState, start: usize| {
            let window = &recs[start..start + 1_000];
            let (r, _) = model
                .try_run_warmed(warm, &[window], RunOptions::default(), None)
                .expect("clean window");
            PointMetrics::from(&r)
        };
        let alone = |from: usize, start: usize| {
            let (r, _) = model
                .try_run(
                    &[&recs[from..start + 1_000]],
                    start - from,
                    RunOptions::default(),
                    None,
                )
                .expect("clean window");
            PointMetrics::from(&r)
        };
        let slot = TraceSlot::default();
        let positions = || {
            let idle = slot.cursors.lock().expect("unpoisoned");
            idle.iter().map(|c| (c.from, c.pos)).collect::<Vec<_>>()
        };
        // Two passes from record 0: 6 K starts one, 4 K (behind it)
        // another; each later window continues the furthest one it can.
        for (start, after) in [
            (6_000, vec![(0, 6_000)]),
            (4_000, vec![(0, 6_000), (0, 4_000)]),
            (5_000, vec![(0, 6_000), (0, 5_000)]),
            (9_000, vec![(0, 5_000), (0, 9_000)]),
        ] {
            assert_eq!(
                timed(slot.warm_state(recs, &config, 0, start), start),
                alone(0, start)
            );
            assert_eq!(positions(), after, "after the window at {start}");
        }
        // A bounded warm-up is its own pass; the oldest idle pass makes
        // room once the slot holds more than its share.
        for (i, start) in [3_000, 5_000, 7_000].into_iter().enumerate() {
            let from = start - 2_000;
            assert_eq!(
                timed(slot.warm_state(recs, &config, from, start), start),
                alone(from, start)
            );
            assert_eq!(positions().len(), (3 + i).min(CURSORS_PER_TRACE));
        }
        assert_eq!(
            positions()[0],
            (0, 9_000),
            "the pass from 0 at 5 K was oldest"
        );
        // A panic mid-advance (here: records missing from the trace)
        // drops the cursor it took instead of returning it half-advanced.
        let short = &recs[..9_200];
        let advanced = catch_unwind(AssertUnwindSafe(|| {
            slot.warm_state(short, &config, 0, 9_500)
        }));
        assert!(advanced.is_err());
        assert!(!positions().contains(&(0, 9_000)));
        assert_eq!(positions().len(), CURSORS_PER_TRACE - 1);
    }

    #[test]
    #[should_panic(expected = "sampled window 3000+1000 is empty or exceeds the 3500-record trace")]
    fn out_of_range_window_names_the_window() {
        let mut p = program_point(3_500, 9);
        p.work = WorkUnit::SampledWindow {
            suite: SuiteKind::SpecInt95,
            index: 0,
            start: 3_000,
            len: 1_000,
        };
        let _ = try_execute_point(&p, RunOptions::default());
    }

    #[test]
    fn panicking_point_is_contained_and_quarantined() {
        // records = 0 trips the model's "warmup must leave records to
        // time" assertion. A panic is a transient failure: the default
        // policy re-runs it (deterministically panicking again) until the
        // retry budget is spent, then quarantines the point.
        let spec = CampaignSpec::new("unit", vec![program_point(0, 1), program_point(3_000, 1)])
            .with_supervise(fast_policy());
        let outcome = run_campaign(&spec, None).expect("run");
        assert!(outcome.outcomes[0].metrics().is_none());
        assert!(outcome.outcomes[1].metrics().is_some());
        let failures = outcome.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 0);
        assert!(failures[0].1.contains("warmup"), "got: {}", failures[0].1);
        assert!(
            failures[0].2.is_none(),
            "a contract panic has no structured state to dump"
        );
        assert_eq!(outcome.report.failed, 1);
        assert_eq!(outcome.report.completed, 1);
        assert_eq!(outcome.report.retries, 2, "default policy retries twice");
        let PointOutcome::Failed {
            attempts,
            quarantined,
            ..
        } = &outcome.outcomes[0]
        else {
            panic!("expected a failure, got {:?}", outcome.outcomes[0]);
        };
        assert_eq!(*attempts, 3, "first try plus two retries");
        assert!(*quarantined, "exhausted retries quarantine the point");
        assert_eq!(outcome.report.quarantined.len(), 1);
        assert!(outcome.report.quarantined[0].1.contains("warmup"));
    }

    #[test]
    fn cycle_budget_cancels_and_quarantines_a_runaway_point() {
        let policy = fast_policy().with_cycle_budget(5_000).with_retries(1);
        let spec = CampaignSpec::new("unit", vec![program_point(60_000, 1)]).with_supervise(policy);
        let outcome = run_campaign(&spec, None).expect("run");
        let PointOutcome::TimedOut { error, attempts } = &outcome.outcomes[0] else {
            panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
        };
        assert!(error.contains("cycle budget"), "got: {error}");
        assert_eq!(*attempts, 2, "one retry, then quarantine");
        assert_eq!(outcome.report.timed_out, 2, "both attempts were cancelled");
        assert_eq!(outcome.report.retries, 1);
        assert_eq!(outcome.report.quarantined.len(), 1);
        assert_eq!(
            outcome.report.failed, 1,
            "a quarantined point counts failed"
        );
    }

    #[test]
    fn wall_clock_deadline_cancels_a_hung_point() {
        // A deadline that has always already passed: the monitor cancels
        // the attempt at its first tick, long before a 200k-record
        // simulation can finish.
        let policy = fast_policy()
            .with_deadline(Duration::from_nanos(1))
            .with_retries(0);
        let spec =
            CampaignSpec::new("unit", vec![program_point(200_000, 1)]).with_supervise(policy);
        let outcome = run_campaign(&spec, None).expect("run");
        let PointOutcome::TimedOut { error, attempts } = &outcome.outcomes[0] else {
            panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
        };
        assert!(error.contains("wall-clock watchdog"), "got: {error}");
        assert_eq!(*attempts, 1, "retries = 0 gives up after the first attempt");
        assert_eq!(outcome.report.timed_out, 1);
    }

    #[test]
    fn chaos_campaign_matches_a_clean_run_byte_for_byte() {
        let points = vec![program_point(3_000, 1), program_point(3_000, 2)];
        let clean = run_campaign(&CampaignSpec::new("unit", points.clone()), None).expect("run");
        // Rate 1000: every chaos opportunity fires, so every point's
        // first attempt is hung and every one must recover by retry.
        let chaos = run_campaign(
            &CampaignSpec::new("unit", points)
                .with_supervise(fast_policy())
                .with_chaos(ChaosPlan::new(3, 1_000)),
            None,
        )
        .expect("run");
        assert_eq!(chaos.report.completed, 2);
        assert_eq!(chaos.report.retries, 2, "each first attempt was injected");
        assert_eq!(chaos.report.timed_out, 2, "injected hangs read as timeouts");
        assert!(chaos.report.quarantined.is_empty(), "retries recover chaos");
        for (c, d) in clean.outcomes.iter().zip(&chaos.outcomes) {
            assert_eq!(c.metrics(), d.metrics(), "chaos must never change results");
        }
    }

    #[test]
    fn checked_campaign_matches_an_unchecked_one() {
        let points = vec![program_point(3_000, 1)];
        let plain = run_campaign(&CampaignSpec::new("unit", points.clone()), None).expect("run");
        let checked =
            run_campaign(&CampaignSpec::new("unit", points).with_checked(), None).expect("run");
        assert!(
            checked.failures().is_empty(),
            "no invariant fires unfaulted"
        );
        assert_eq!(
            plain.outcomes[0].metrics(),
            checked.outcomes[0].metrics(),
            "the auditor must not perturb results"
        );
    }

    #[test]
    fn observed_campaign_writes_artifacts_and_identical_cache_entries() {
        let pid = std::process::id();
        let dir_plain = std::env::temp_dir().join(format!("s64v-obs-plain-{pid}"));
        let dir_obs = std::env::temp_dir().join(format!("s64v-obs-traced-{pid}"));
        std::fs::remove_dir_all(&dir_plain).ok();
        std::fs::remove_dir_all(&dir_obs).ok();

        let points = vec![program_point(3_000, 1)];
        let fp = points[0].fingerprint();
        run_campaign(
            &CampaignSpec::new("unit", points.clone()).with_cache_dir(&dir_plain),
            None,
        )
        .expect("plain run");
        run_campaign(
            &CampaignSpec::new("unit", points)
                .with_cache_dir(&dir_obs)
                .with_trace("")
                .with_metrics(),
            None,
        )
        .expect("observed run");

        // Observation never perturbs the simulation, so the cache entry an
        // observed run stores is byte-identical to a plain run's.
        let cache = ResultCache::open(&dir_obs).expect("open");
        let plain_entry =
            std::fs::read(ResultCache::open(&dir_plain).expect("open").path_of(fp)).expect("entry");
        let obs_entry = std::fs::read(cache.path_of(fp)).expect("entry");
        assert_eq!(
            plain_entry, obs_entry,
            "observation must not change results"
        );

        // The Perfetto trace parses and actually narrates the run.
        let trace = std::fs::read_to_string(cache.artifact_path(fp, "trace.json")).expect("trace");
        let doc = s64v_observe::json::Value::parse(&trace).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(s64v_observe::json::Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "trace has events");

        // The pipeline diagram rendered something.
        let pipeline =
            std::fs::read_to_string(cache.artifact_path(fp, "pipeline.txt")).expect("pipeline");
        assert!(!pipeline.trim().is_empty());

        // Every metrics line is a standalone JSON document.
        let metrics =
            std::fs::read_to_string(cache.artifact_path(fp, "metrics.jsonl")).expect("metrics");
        assert!(!metrics.trim().is_empty());
        for line in metrics.lines() {
            s64v_observe::json::Value::parse(line).expect("valid JSONL line");
        }

        std::fs::remove_dir_all(&dir_plain).ok();
        std::fs::remove_dir_all(&dir_obs).ok();
    }

    #[test]
    fn trace_artifact_is_stable_across_thread_counts() {
        let pid = std::process::id();
        let dir_a = std::env::temp_dir().join(format!("s64v-obs-t1-{pid}"));
        let dir_b = std::env::temp_dir().join(format!("s64v-obs-t4-{pid}"));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();

        let points: Vec<SimPoint> = (1..=3).map(|seed| program_point(3_000, seed)).collect();
        for (dir, threads) in [(&dir_a, 1), (&dir_b, 4)] {
            run_campaign(
                &CampaignSpec::new("unit", points.clone())
                    .with_threads(threads)
                    .with_cache_dir(dir)
                    .with_trace("")
                    .with_metrics(),
                None,
            )
            .expect("run");
        }
        let a = ResultCache::open(&dir_a).expect("open");
        let b = ResultCache::open(&dir_b).expect("open");
        for p in &points {
            let fp = p.fingerprint();
            for ext in ["trace.json", "pipeline.txt", "metrics.jsonl"] {
                let one = std::fs::read(a.artifact_path(fp, ext)).expect(ext);
                let four = std::fs::read(b.artifact_path(fp, ext)).expect(ext);
                assert_eq!(one, four, "{ext} must not depend on the thread count");
            }
        }

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn heartbeat_pulses_while_points_run() {
        let spec = CampaignSpec::new("unit", vec![program_point(60_000, 1)])
            .with_heartbeat(Some(Duration::from_millis(1)));
        let (tx, rx) = std::sync::mpsc::channel();
        let outcome = run_campaign(&spec, Some(tx)).expect("run");
        assert_eq!(outcome.report.completed, 1);

        let beats: Vec<ProgressEvent> = rx
            .try_iter()
            .filter(|e| matches!(e, ProgressEvent::Heartbeat { .. }))
            .collect();
        assert!(!beats.is_empty(), "a 1ms period must pulse at least once");
        for beat in &beats {
            let ProgressEvent::Heartbeat {
                done,
                total,
                in_flight,
                eta,
                ..
            } = beat
            else {
                unreachable!()
            };
            assert_eq!(*total, 1);
            assert!(*done <= 1 && *in_flight <= 1);
            if *done == 0 {
                assert!(eta.is_none(), "no finished point, no estimate");
            }
        }
    }

    #[test]
    fn report_profiles_simulation_wall_time() {
        let spec = CampaignSpec::new(
            "unit",
            vec![program_point(3_000, 1), program_point(6_000, 2)],
        );
        let outcome = run_campaign(&spec, None).expect("run");
        let r = &outcome.report;
        assert!(r.sim_wall > Duration::ZERO, "simulation took time");
        assert_eq!(r.slowest.len(), 2, "both simulated points are profiled");
        assert!(
            r.slowest[0].1 >= r.slowest[1].1,
            "slowest points come first"
        );
    }

    #[test]
    fn invariant_violation_fails_the_point_and_writes_a_dump() {
        let dir = std::env::temp_dir().join(format!("s64v-engine-dump-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let spec = CampaignSpec::new(
            "unit",
            vec![program_point(3_000, 1), program_point(3_000, 2)],
        )
        .with_checked()
        .with_fault(FaultPlan::at(FaultClass::RewindCommit, 0, 1))
        .with_cache_dir(&dir);
        let outcome = run_campaign(&spec, None).expect("run");

        // Every point gets the fault, every point fails — and the
        // campaign still visits all of them.
        assert_eq!(outcome.report.failed, 2);
        for o in &outcome.outcomes {
            let PointOutcome::Failed {
                error,
                dump_path,
                attempts,
                quarantined,
            } = o
            else {
                panic!("faulted point must fail, got {o:?}");
            };
            assert!(error.contains("commit"), "got: {error}");
            assert_eq!(*attempts, 1, "deterministic SimErrors fail fast, no retry");
            assert!(!quarantined, "a fail-fast point is not quarantined");
            let path = dump_path.as_ref().expect("dump written next to cache");
            let json = std::fs::read_to_string(path).expect("dump readable");
            assert!(json.contains("\"component\": \"commit\""), "got: {json}");
            assert!(json.contains("\"pipeline\""), "dump carries the snapshot");
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
