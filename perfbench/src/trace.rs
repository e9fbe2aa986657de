//! The traced run: each point recomposed from the layers' public calls,
//! with every call timed.
//!
//! A uniprocessor point is `Program::generate` → `MemorySystem::new` +
//! `Core::new` → `Core::fast_forward` (functional warming) →
//! `Core::try_run_from` (the detailed kernel). An SMP point times the
//! chunked `Core::warm` interleave on a probe model of its own, then the
//! whole `PerformanceModel::try_run_traces_warm` call; its detailed part
//! is derived as the difference. Around them sit the engine's harness
//! steps: fingerprinting, the cache read, the cache and journal writes,
//! and the figure render or the accuracy assessment.

use crate::sys::capture_stdout;
use s64v_core::fingerprint::Fingerprint;
use s64v_core::{PerformanceModel, RunOptions, SimError, SystemConfig};
use s64v_cpu::Core;
use s64v_harness::cache::ResultCache;
use s64v_harness::figures::PointStore;
use s64v_harness::journal::{journal_path, Journal};
use s64v_harness::{
    cpi_artifact, figure, try_execute_point, CacheLock, HarnessOpts, PointMetrics, PointOutcome,
    SimPoint, WorkUnit,
};
use s64v_mem::MemorySystem;
use s64v_trace::{SliceStream, TraceRecord, VecTrace};
use s64v_workloads::{smp_traces, suite::tpcc_program, Suite, SuiteKind};
use std::collections::HashSet;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Self-times (seconds) and work counts of each layer over a traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub gen: f64,
    pub gen_records: u64,
    pub trace_requests: u64,
    pub trace_unique: u64,
    pub model_setup: f64,
    pub warm: f64,
    pub warm_records: u64,
    pub detail: f64,
    pub detail_committed: u64,
    pub detail_cycles: u64,
    pub smp: f64,
    /// Trace-only: the SMP warm-up probe and its model set-up repeat
    /// work that `smp` already contains, so they are kept out of the
    /// self-time sum.
    pub smp_warm: f64,
    pub smp_probe_setup: f64,
    pub verify: f64,
    pub fingerprint: f64,
    pub cache_load: f64,
    pub cache_store: f64,
    pub journal_load: f64,
    pub journal_append: f64,
    pub render: f64,
    pub assess: f64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub bus_txn: u64,
    pub move_outs: u64,
    /// Traces requested so far, for `trace_unique`.
    seen: HashSet<TraceKey>,
}

impl Layers {
    /// Sum of the self-times of the work the untraced engine also does.
    pub fn self_time(&self) -> f64 {
        self.gen
            + self.model_setup
            + self.warm
            + self.detail
            + self.smp
            + self.verify
            + self.fingerprint
            + self.cache_load
            + self.cache_store
            + self.journal_load
            + self.journal_append
            + self.render
            + self.assess
    }

    /// Time spent only because the run is traced.
    pub fn trace_only(&self) -> f64 {
        self.smp_warm + self.smp_probe_setup
    }
}

/// Adds the wall time of `f` to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += t.elapsed().as_secs_f64();
    v
}

/// Identity of the trace a point simulates: points with equal keys
/// generate byte-identical traces.
type TraceKey = (Option<SuiteKind>, usize, usize, u64);

fn trace_key(p: &SimPoint) -> TraceKey {
    match p.work {
        WorkUnit::Program { suite, index } | WorkUnit::Verify { suite, index } => {
            (Some(suite), index, p.records + p.warmup, p.seed)
        }
        WorkUnit::SampledWindow { suite, index, .. } => (Some(suite), index, p.records, p.seed),
        WorkUnit::SmpTpcc => (None, p.config.cpus, p.records + p.warmup, p.seed),
    }
}

/// A failed simulation: the engine's error text and its JSON dump.
type Failure = (String, Option<String>);

/// One point as the traced run simulated it: its label, fingerprint and
/// `(cycles, committed)` or failure.
pub struct Simulated {
    label: String,
    fp: Fingerprint,
    got: Result<(u64, u64), Failure>,
}

/// Consecutive index ranges of `points` that the traced run handles as
/// one unit: the windows of one sampled plan (they share a trace), and
/// every other point alone.
pub fn chunks(points: &[SimPoint]) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let shares = |q: &SimPoint| {
            matches!(p.work, WorkUnit::SampledWindow { .. })
                && matches!(q.work, WorkUnit::SampledWindow { .. })
                && trace_key(p) == trace_key(q)
        };
        match out.last_mut() {
            Some(r) if shares(&points[r.start]) => r.end = i + 1,
            _ => out.push(i..i + 1),
        }
    }
    out
}

/// Runs `points` the way one engine worker would — cache lookup,
/// generation, model set-up, warming, detailed simulation, cache and
/// journal writes — through the layers' public calls, into the cache
/// directory `dir`: [`traced_simulate`], then [`traced_store`].
pub fn traced_pass(
    points: &[SimPoint],
    dir: &Path,
    reference: &[Option<PointMetrics>],
    l: &mut Layers,
) -> std::io::Result<Vec<String>> {
    let sims = traced_simulate(points, dir, l)?;
    traced_store(dir, sims, reference, l)
}

/// The first half of [`traced_pass`]: journal load, then per point the
/// fingerprint, the cache lookup and the simulation.
pub fn traced_simulate(
    points: &[SimPoint],
    dir: &Path,
    l: &mut Layers,
) -> std::io::Result<Vec<Simulated>> {
    let _lock = CacheLock::acquire(dir)?;
    let cache = ResultCache::open(dir)?;
    timed(&mut l.journal_load, || Journal::load(&journal_path(dir)));
    // Sampled windows share their plan's trace, as the engine's
    // process-wide trace cache shares it.
    let mut shared: Option<(TraceKey, Arc<VecTrace>)> = None;
    let mut sims = Vec::with_capacity(points.len());
    for p in points {
        let (label, fp) = timed(&mut l.fingerprint, || (p.label(), p.fingerprint()));
        l.cache_lookups += 1;
        if timed(&mut l.cache_load, || cache.load(fp)).is_some() {
            l.cache_hits += 1;
        }
        l.trace_requests += 1;
        if l.seen.insert(trace_key(p)) {
            l.trace_unique += 1;
        }
        let got = simulate(p, &mut shared, l);
        sims.push(Simulated { label, fp, got });
    }
    Ok(sims)
}

/// The second half of [`traced_pass`]: the cache and journal writes.
///
/// `reference` holds the untraced results of the same points. Every
/// recomposed point must reproduce its cycles and committed count
/// exactly (a failed point must fail again); the returned notes list
/// each point that did not. What gets stored is the reference metrics,
/// which the engine's determinism makes the values a live run stores.
pub fn traced_store(
    dir: &Path,
    sims: Vec<Simulated>,
    reference: &[Option<PointMetrics>],
    l: &mut Layers,
) -> std::io::Result<Vec<String>> {
    let _lock = CacheLock::acquire(dir)?;
    let cache = ResultCache::open(dir)?;
    let journal = Journal::open(&journal_path(dir))?;
    let mut notes = Vec::new();
    for (Simulated { label, fp, got }, want) in sims.into_iter().zip(reference) {
        let matches = match (&got, want) {
            (Ok((c, k)), Some(m)) => (m.cycles, m.committed) == (*c, *k),
            (Err(_), None) => true,
            _ => false,
        };
        if !matches {
            let show = |o: Option<(u64, u64)>| {
                o.map_or("a failure".to_string(), |(c, k)| {
                    format!("cycles={c} committed={k}")
                })
            };
            notes.push(format!(
                "{label}: traced run gave {}, untraced run gave {}",
                show(got.as_ref().ok().copied()),
                show(want.as_ref().map(|m| (m.cycles, m.committed)))
            ));
        }

        match (want, got) {
            (Some(m), _) => {
                timed(&mut l.cache_store, || {
                    let _ = cache.store(fp, m);
                    if m.cpi_core_cycles() > 0 {
                        let _ = cache.store_artifact(fp, "cpi.json", &cpi_artifact(&label, fp, m));
                    }
                });
                timed(&mut l.journal_append, || journal.record_ok(fp, &label));
                l.bus_txn += m.bus_transactions;
                l.move_outs += m.move_outs;
            }
            (None, Err((error, dump))) => {
                if let Some(json) = dump {
                    timed(&mut l.cache_store, || {
                        cache.store_failure(fp, &json).map(drop)
                    })?;
                }
                timed(&mut l.journal_append, || {
                    journal.record_fail(fp, &label, &error)
                });
            }
            (None, Ok(_)) => {}
        }
    }
    Ok(notes)
}

/// Simulates one point through the public layer calls, returning its
/// `(cycles, committed)`.
fn simulate(
    p: &SimPoint,
    shared: &mut Option<(TraceKey, Arc<VecTrace>)>,
    l: &mut Layers,
) -> Result<(u64, u64), Failure> {
    match p.work {
        WorkUnit::Program { suite, index } => {
            let len = p.records + p.warmup;
            let trace = timed(&mut l.gen, || {
                Suite::preset(suite).programs()[index].generate(len, p.seed)
            });
            l.gen_records += len as u64;
            let recs = trace.records();
            run_up(&p.config, &recs[..p.warmup], &recs[p.warmup..], l)
        }
        WorkUnit::SampledWindow {
            suite,
            index,
            start,
            len,
        } => {
            let key = trace_key(p);
            let trace = match shared {
                Some((k, t)) if *k == key => Arc::clone(t),
                _ => {
                    let t = Arc::new(timed(&mut l.gen, || {
                        Suite::preset(suite).programs()[index].generate(p.records, p.seed)
                    }));
                    l.gen_records += p.records as u64;
                    *shared = Some((key, Arc::clone(&t)));
                    t
                }
            };
            let recs = trace.records();
            let warm_from = start.saturating_sub(p.warmup);
            run_up(
                &p.config,
                &recs[warm_from..start],
                &recs[start..start + len],
                l,
            )
        }
        WorkUnit::SmpTpcc => {
            let cpus = p.config.cpus;
            let len = p.records + p.warmup;
            let traces = timed(&mut l.gen, || {
                smp_traces(&tpcc_program(), cpus, len, p.seed)
            });
            l.gen_records += (len * cpus) as u64;
            smp_warm_probe(&p.config, &traces, p.warmup, l);
            let r = timed(&mut l.smp, || {
                PerformanceModel::new(p.config.clone()).try_run_traces_warm(
                    &traces,
                    p.warmup,
                    RunOptions::default(),
                )
            });
            r.map(|r| (r.cycles, r.committed))
                .map_err(|e| (e.to_string(), Some(e.to_json())))
        }
        WorkUnit::Verify { .. } => {
            let r = timed(&mut l.verify, || {
                try_execute_point(p, RunOptions::default())
            });
            r.map(|m| (m.cycles, m.committed))
                .map_err(|e| (e.to_string(), Some(e.to_json())))
        }
    }
}

/// One uniprocessor run: fresh model, functional warming over `warm`,
/// then the detailed kernel over `timed_recs`.
fn run_up(
    cfg: &SystemConfig,
    warm: &[TraceRecord],
    timed_recs: &[TraceRecord],
    l: &mut Layers,
) -> Result<(u64, u64), Failure> {
    let (mut mem, mut core) = timed(&mut l.model_setup, || {
        (
            MemorySystem::new(cfg.mem.clone(), 1),
            Core::new(cfg.core.clone(), 0),
        )
    });
    timed(&mut l.warm, || {
        core.fast_forward(&mut mem, &mut SliceStream::new(warm), warm.len() as u64)
    });
    l.warm_records += warm.len() as u64;
    let run = timed(&mut l.detail, || {
        core.try_run_from(&mut mem, &mut SliceStream::new(timed_recs), 0)
    });
    match run {
        Ok(cycles) => {
            let committed = core.stats().committed.get();
            l.detail_cycles += cycles;
            l.detail_committed += committed;
            Ok((cycles, committed))
        }
        Err(e) => {
            let sim = SimError::from_core(*e, &mem);
            Err((sim.to_string(), Some(sim.to_json())))
        }
    }
}

/// Times the SMP warm-up alone: the chunked `Core::warm` interleave that
/// `PerformanceModel::try_run_traces_warm` runs before its timed region,
/// on a probe model of its own.
fn smp_warm_probe(cfg: &SystemConfig, traces: &[VecTrace], warmup: usize, l: &mut Layers) {
    let (mut mem, mut cores) = timed(&mut l.smp_probe_setup, || {
        let cores: Vec<Core> = (0..cfg.cpus)
            .map(|i| Core::new(cfg.core.clone(), i))
            .collect();
        (MemorySystem::new(cfg.mem.clone(), cfg.cpus), cores)
    });
    timed(&mut l.smp_warm, || {
        const CHUNK: usize = 1024;
        let mut pos = 0;
        while pos < warmup {
            let end = (pos + CHUNK).min(warmup);
            for (core, trace) in cores.iter_mut().zip(traces) {
                for rec in &trace.records()[pos..end] {
                    core.warm(&mut mem, rec);
                }
            }
            pos = end;
        }
    });
    timed(&mut l.smp_probe_setup, move || drop((mem, cores)));
}

/// One replay request recomposed: the merged point list, the engine's
/// cache-hit path per point (fingerprint, sealed cache read, journal
/// append), then every figure's render into `out`.
pub fn traced_request(
    names: &[&str],
    o: &HarnessOpts,
    dir: &Path,
    out: &Path,
    l: &mut Layers,
) -> std::io::Result<()> {
    let points = timed(&mut l.fingerprint, || crate::merged_points(names, o));
    let _lock = CacheLock::acquire(dir)?;
    let cache = ResultCache::open(dir)?;
    let jpath = journal_path(dir);
    timed(&mut l.journal_load, || Journal::load(&jpath));
    let journal = Journal::open(&jpath)?;
    let mut outcomes = Vec::with_capacity(points.len());
    for p in &points {
        let (label, fp) = timed(&mut l.fingerprint, || (p.label(), p.fingerprint()));
        l.cache_lookups += 1;
        let hit = timed(&mut l.cache_load, || {
            cache.load(fp).inspect(|m| {
                // The engine backfills a missing PMU artifact on a hit.
                let _ = m.cpi_core_cycles() > 0 && !cache.artifact_path(fp, "cpi.json").exists();
            })
        });
        match hit {
            Some(m) => {
                l.cache_hits += 1;
                timed(&mut l.journal_append, || journal.record_ok(fp, &label));
                outcomes.push(PointOutcome::Metrics(Box::new(m)));
            }
            None => outcomes.push(PointOutcome::Failed {
                error: format!("cache miss: {label}"),
                dump_path: None,
                attempts: 0,
                quarantined: false,
            }),
        }
    }
    timed(&mut l.render, || render(names, o, &points, &outcomes, out)).map(drop)
}

/// Renders `names` from resolved outcomes exactly as `run_figures` does,
/// into `out`, and returns `(figure, rendered)` for each. A figure that
/// cannot render prints what it printed up to the failure.
pub fn render(
    names: &[&str],
    o: &HarnessOpts,
    points: &[SimPoint],
    outcomes: &[PointOutcome],
    out: &Path,
) -> std::io::Result<Vec<(String, bool)>> {
    capture_stdout(out, || {
        let store = PointStore::from_run(points, outcomes);
        let mut rendered = Vec::new();
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                println!();
            }
            let fig = figure(name).expect("registered figure");
            rendered.push((name.to_string(), (fig.render)(o, &store).is_ok()));
        }
        rendered
    })
}
