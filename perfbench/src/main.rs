//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload figures|sampled|replay [--seed N] [--seconds S] [--trace 0|1]
//!           [--write-expected]
//! ```
//!
//! One process drives the simulator's public APIs with at most
//! `min(2, nproc)` engine workers, checks every simulated output, prints
//! a human-readable report, and ends its standard output with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run is recomposed from the layers' public calls and the metrics
//! are the per-layer split. `--write-expected` records the committed
//! per-point expectations (seed 42 only). See `NOTES.md`.

mod check;
mod sys;
mod trace;

use check::{Expectations, EXPECTED_SEED};
use s64v_harness::cache::ResultCache;
use s64v_harness::figures::PointStore;
use s64v_harness::journal::journal_path;
use s64v_harness::validate::{self, full_point, sampled_points, validate_workloads};
use s64v_harness::{
    figure, figure_names, run_campaign, run_figures, try_execute_point, CampaignSpec, EngineOpts,
    HarnessOpts, PointMetrics, PointOutcome, ProgressEvent, SampleOpts, SimPoint, ValidationReport,
};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;
use sys::{capture_stdout, median, peak_rss_mb, tail};
use trace::{timed, Layers};

const USAGE: &str = "usage: perfbench --workload figures|sampled|replay [--seed N] \
                     [--seconds S] [--trace 0|1] [--write-expected]";

/// The figures the `figures` workload regenerates.
const FIGURE_SET: [&str; 2] = ["fig08_issue_width", "ablation_bus"];

const FIGURES_EXPECTED: &str = include_str!("../expected/figures.seed42.tsv");
const SAMPLED_EXPECTED: &str = include_str!("../expected/sampled.seed42.tsv");

/// A `figures` or `sampled` set-up (the point plan) takes well under a
/// millisecond, too short to time alone: `setup_s` is the median over
/// `SETUP_BATCHES` batches of each batch's mean over `SETUP_BATCH` plans.
const SETUP_BATCHES: usize = 101;
const SETUP_BATCH: usize = 8;
/// `replay` set-ups per run; `setup_s` is their median.
const REPLAY_SETUPS: usize = 3;

/// Replay requests per second of `--seconds`. A fixed count rather than
/// a deadline: every request appends to the journal the next one reads,
/// so latency depends on the request's position, and both sides of a
/// comparison must see the same journal sizes.
const REPLAY_REQUESTS_PER_SECOND: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Figures,
    Sampled,
    Replay,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Sampled => "sampled",
            Workload::Replay => "replay",
        }
    }

    fn expected(self) -> &'static str {
        match self {
            Workload::Figures => FIGURES_EXPECTED,
            _ => SAMPLED_EXPECTED,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::Figures,
        seed: EXPECTED_SEED,
        seconds: 10.0,
        trace: false,
        write_expected: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            a.write_expected = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "figures" => Workload::Figures,
                    "sampled" => Workload::Sampled,
                    "replay" => Workload::Replay,
                    _ => return Err(bad()),
                })
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    if a.write_expected && (a.seed != EXPECTED_SEED || a.workload == Workload::Replay) {
        return Err("--write-expected records figures or sampled at seed 42".into());
    }
    Ok(a)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result line.
    lines: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                // A failed request misses every latency limit.
                let v = if x.value.is_nan() {
                    0.0
                } else {
                    x.value.clamp(f64::MIN, f64::MAX)
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    x.name, x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(POPULATE_FLAG) {
        std::process::exit(populate_child(&argv[2..]));
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let root = Path::new(".bench_run");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = fresh_dir(&work.join("results")).and_then(|()| {
        // Figure renders also write CSVs; keep them in the scratch area.
        std::env::set_var("S64V_RESULTS_DIR", work.join("results"));
        run(&args, &work)
    });
    let _ = fs::remove_dir_all(&work);
    let _ = fs::remove_dir(root);
    match result {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            println!("{}", out.json());
            std::process::exit(if out.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(a: &Args, work: &Path) -> Result<Outcome, String> {
    match (a.workload, a.trace) {
        (Workload::Replay, false) => replay(a, work),
        (Workload::Replay, true) => replay_traced(a, work),
        (_, false) => campaign(a, work),
        (_, true) => campaign_traced(a, work),
    }
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Removes and recreates `dir`.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(io)
}

fn file_hash(path: &Path) -> Result<u64, String> {
    Ok(sys::fnv1a(&fs::read(path).map_err(io)?))
}

/// Engine workers for the measured work: `min(2, nproc)` for the
/// campaigns, one for `replay`'s requests, whose per-point work (tens of
/// microseconds of cache hits) is far below a worker hand-off, so a
/// second worker would only add scheduling noise to the read path it
/// measures.
fn workers(w: Workload) -> usize {
    match w {
        Workload::Replay => 1,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
    }
}

/// Engine workers that populate `replay`'s cache.
fn populate_workers() -> usize {
    workers(Workload::Figures)
}

fn engine(threads: usize, dir: &Path) -> EngineOpts {
    EngineOpts {
        threads: Some(threads),
        cache_dir: Some(dir.to_path_buf()),
        ..EngineOpts::default()
    }
}

/// The harness's default run sizes, at `seed`.
fn default_sizes(seed: u64) -> HarnessOpts {
    HarnessOpts {
        records: 150_000,
        warmup: 2_000_000,
        smp_cpus: 16,
        smp_records: 60_000,
        smp_warmup: 600_000,
        seed,
    }
}

/// `campaign validate`'s committed validation geometry: ten windows
/// tiling the timed region, each warmed functionally from record 0.
fn sample_opts(o: &HarnessOpts) -> SampleOpts {
    let windows = 10;
    SampleOpts {
        windows,
        window: (o.records / windows).max(2_000),
        warmup: o.warmup + o.records,
    }
}

/// The merged, fingerprint-deduplicated point list `run_figures` builds
/// for `names`.
pub fn merged_points(names: &[&str], o: &HarnessOpts) -> Vec<SimPoint> {
    let mut seen = HashSet::new();
    names
        .iter()
        .flat_map(|n| (figure(n).expect("registered figure").points)(o))
        .filter(|p| seen.insert(p.fingerprint()))
        .collect()
}

fn sampled_list(o: &HarnessOpts) -> Vec<SimPoint> {
    let s = sample_opts(o);
    validate_workloads()
        .into_iter()
        .flat_map(|(kind, index)| sampled_points(kind, index, o, &s))
        .collect()
}

/// Figures `replay` leaves out. `sampling_accuracy`'s 2% gate correctly
/// fails below the validation geometry. `fig08_issue_width`'s 2-way
/// points wedge at smoke sizes at some seeds (the defect `figures`
/// counts), and the engine simulates a failed point again on every
/// cached run, so its requests would re-simulate instead of reading the
/// cache, taking three times as long at those seeds only.
const REPLAY_LEFT_OUT: [&str; 2] = ["sampling_accuracy", "fig08_issue_width"];

fn replay_names() -> Vec<&'static str> {
    figure_names()
        .into_iter()
        .filter(|n| !REPLAY_LEFT_OUT.contains(n))
        .collect()
}

/// A point's or request's latency in seconds, and whether it failed.
type Latency = (f64, bool);

/// Latencies for percentiles: a failed request counts as missing any
/// latency limit, so it sorts above every completed one.
fn for_percentiles(lat: &[Latency]) -> Vec<f64> {
    lat.iter()
        .map(|&(s, failed)| if failed { f64::INFINITY } else { s })
        .collect()
}

/// Timestamps the engine's progress events as they arrive: per-point
/// latencies (start to finish or failure) in completion order.
fn collect_latencies(rx: Receiver<ProgressEvent>) -> Vec<Latency> {
    let mut started = HashMap::new();
    let mut lat = Vec::new();
    for ev in rx {
        match ev {
            ProgressEvent::Started { index, .. } => {
                started.insert(index, Instant::now());
            }
            ProgressEvent::Finished { elapsed, .. } => lat.push((elapsed.as_secs_f64(), false)),
            ProgressEvent::Failed { index, .. } => {
                if let Some(t) = started.remove(&index) {
                    lat.push((secs(t), true));
                }
            }
            _ => {}
        }
    }
    lat
}

/// Mean of the first and of the last ten values.
fn first_last10(xs: &[f64]) -> (f64, f64) {
    let k = xs.len().min(10);
    (sys::mean(&xs[..k]), sys::mean(&xs[xs.len() - k..]))
}

fn journal_bytes(dir: &Path) -> u64 {
    fs::metadata(journal_path(dir)).map_or(0, |m| m.len())
}

// ---------------------------------------------------------------------
// figures and sampled: one cold campaign per pass
// ---------------------------------------------------------------------

/// A campaign workload ready to run.
struct Prepared {
    workload: Workload,
    o: HarnessOpts,
    points: Vec<SimPoint>,
    /// The committed expectations (seed 42 only).
    expected: Option<Expectations>,
}

/// The program's set-up for a campaign: the point list, with every
/// point's fingerprint, as the engine has it before it schedules a point.
fn plan(w: Workload, o: &HarnessOpts) -> Vec<SimPoint> {
    match w {
        // Merging fingerprints every point.
        Workload::Figures => merged_points(&FIGURE_SET, o),
        _ => {
            let points = sampled_list(o);
            for p in &points {
                std::hint::black_box(p.fingerprint());
            }
            points
        }
    }
}

/// `setup_s` samples: the mean time of one [`plan`] over each batch.
fn setup_times(w: Workload, o: &HarnessOpts) -> Vec<f64> {
    (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(plan(w, o));
            }
            secs(t) / SETUP_BATCH as f64
        })
        .collect()
}

/// The plan and the committed expectations of a campaign workload.
fn prepare(w: Workload, seed: u64, write: bool) -> Result<Prepared, String> {
    let o = default_sizes(seed);
    let points = plan(w, &o);
    let expected = if seed == EXPECTED_SEED && !write {
        Some(check::parse(w.expected())?)
    } else {
        None
    };
    Ok(Prepared {
        workload: w,
        o,
        points,
        expected,
    })
}

/// One campaign over a fresh cache directory.
struct Pass {
    wall: f64,
    /// Per-point results, read back from the cache (`None` = failed).
    results: Vec<Option<PointMetrics>>,
    /// Per-point latencies in completion order.
    latencies: Vec<Latency>,
    /// `(figure, rendered)` for the figures workload.
    renders: Vec<(String, bool)>,
}

/// Runs `points` as one engine campaign into `dir`: its wall time and
/// per-point latencies.
fn run_points(
    name: &str,
    points: &[SimPoint],
    dir: &Path,
    threads: usize,
) -> Result<(f64, Vec<Latency>), String> {
    let (tx, rx) = channel();
    let collector = std::thread::spawn(move || collect_latencies(rx));
    let spec = CampaignSpec::new(name, points.to_vec())
        .with_threads(threads)
        .with_cache_dir(dir)
        .with_heartbeat(None);
    let t = Instant::now();
    run_campaign(&spec, Some(tx)).map_err(io)?;
    let wall = secs(t);
    let latencies = collector.join().map_err(|_| "latency collector panicked")?;
    Ok((wall, latencies))
}

/// The results `dir` holds for `points` (`None` = failed).
fn load_results(points: &[SimPoint], dir: &Path) -> Result<Vec<Option<PointMetrics>>, String> {
    let cache = ResultCache::open(dir).map_err(io)?;
    Ok(points.iter().map(|p| cache.load(p.fingerprint())).collect())
}

fn campaign_pass(p: &Prepared, dir: &Path, threads: usize, out: &Path) -> Result<Pass, String> {
    let mut renders = Vec::new();
    let (wall, latencies) = match p.workload {
        Workload::Figures => {
            let (tx, rx): (Sender<ProgressEvent>, _) = channel();
            let collector = std::thread::spawn(move || collect_latencies(rx));
            let t = Instant::now();
            let summary = capture_stdout(out, || {
                run_figures(&FIGURE_SET, &p.o, &engine(threads, dir), Some(tx))
            })
            .map_err(io)??;
            let wall = secs(t);
            for name in FIGURE_SET {
                let ok = !summary.render_failures.iter().any(|(f, _)| *f == name);
                renders.push((name.to_string(), ok));
            }
            let latencies = collector.join().map_err(|_| "latency collector panicked")?;
            (wall, latencies)
        }
        _ => run_points(p.workload.name(), &p.points, dir, threads)?,
    };
    let results = load_results(&p.points, dir)?;
    Ok(Pass {
        wall,
        results,
        latencies,
        renders,
    })
}

/// A pass's verdict: the committed digests (seed 42) and the invariants.
struct Verdict {
    failed: usize,
    problems: Vec<String>,
    digest_line: String,
}

fn judge(p: &Prepared, pass: &Pass) -> Verdict {
    let n = p.points.len();
    let (mut bad, mut problems, digest_line) = match &p.expected {
        Some(exp) => {
            let (flags, notes) = check::compare(exp, &p.points, &pass.results, &pass.renders);
            let line = if notes.is_empty() {
                format!(
                    "output check: ok — {n} point digests match expected/{}.seed42.tsv",
                    p.workload.name()
                )
            } else {
                format!("output check: MISMATCH — {} difference(s)", notes.len())
            };
            (flags, notes, line)
        }
        None => (
            vec![false; n],
            Vec::new(),
            format!(
                "output check: digests unchecked at seed {} (expectations are recorded at seed {EXPECTED_SEED}); invariants checked",
                p.o.seed
            ),
        ),
    };
    for (i, (pt, r)) in p.points.iter().zip(&pass.results).enumerate() {
        if let Some(m) = r {
            if let Err(e) = check::invariant(pt, m) {
                bad[i] = true;
                problems.push(e);
            }
        }
    }
    let failed = (0..n)
        .filter(|&i| bad[i] || pass.results[i].is_none())
        .count();
    Verdict {
        failed,
        problems,
        digest_line,
    }
}

/// The full-detail reference IPC for each validation workload: the
/// figures workload's base-configuration points are exactly
/// `validate::full_point` at these sizes, so their committed outcomes
/// serve. At another seed the references are simulated (trace mode
/// only); `None` when neither is possible.
fn full_references(o: &HarnessOpts, simulate: bool) -> Result<Option<Vec<PointMetrics>>, String> {
    let fulls: Vec<SimPoint> = validate_workloads()
        .into_iter()
        .map(|(kind, index)| full_point(kind, index, o))
        .collect();
    if o.seed == EXPECTED_SEED {
        let exp = check::parse(FIGURES_EXPECTED)?;
        let figs = merged_points(&FIGURE_SET, o);
        let mut refs = Vec::new();
        for f in &fulls {
            let j = figs
                .iter()
                .position(|p| p == f)
                .ok_or("reference not in figures")?;
            let Some(Some((cycles, committed, _))) = exp.points.get(j).map(|e| e.1) else {
                return Ok(None);
            };
            refs.push(PointMetrics {
                cycles,
                committed,
                ..PointMetrics::default()
            });
        }
        return Ok(Some(refs));
    }
    if !simulate {
        return Ok(None);
    }
    fulls
        .iter()
        .map(|p| try_execute_point(p, Default::default()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Sampled-vs-full assessment over a pass's windows.
fn assess(
    o: &HarnessOpts,
    points: &[SimPoint],
    results: &[Option<PointMetrics>],
    refs: &[PointMetrics],
) -> Result<ValidationReport, String> {
    let mut pts = Vec::new();
    let mut outs = Vec::new();
    for ((kind, index), r) in validate_workloads().into_iter().zip(refs) {
        pts.push(full_point(kind, index, o));
        outs.push(PointOutcome::Metrics(Box::new(r.clone())));
    }
    for (p, r) in points.iter().zip(results) {
        if let Some(m) = r {
            pts.push(p.clone());
            outs.push(PointOutcome::Metrics(Box::new(m.clone())));
        }
    }
    validate::assess_default(o, &sample_opts(o), &PointStore::from_run(&pts, &outs))
}

/// `(worst |sampled − full| IPC error in %, share of CIs covering full)`.
fn accuracy(r: &ValidationReport) -> (f64, f64) {
    let worst = r.workloads.iter().map(|w| w.error()).fold(0.0, f64::max);
    let covered = r.workloads.iter().filter(|w| w.covered(r.z)).count();
    (
        worst * 100.0,
        covered as f64 / r.workloads.len().max(1) as f64,
    )
}

fn committed(results: &[Option<PointMetrics>]) -> u64 {
    results.iter().flatten().map(|m| m.committed).sum()
}

fn header(a: &Args, threads: usize, extra: &str) -> String {
    format!(
        "perfbench workload={} seed={} workers={threads} nproc={} trace={} {extra}",
        a.workload.name(),
        a.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(a.trace)
    )
}

fn campaign(a: &Args, work: &Path) -> Result<Outcome, String> {
    let threads = workers(a.workload);
    let cache = work.join("cache");
    let out = work.join("render.out");
    let prep = prepare(a.workload, a.seed, a.write_expected)?;
    let setups = setup_times(a.workload, &prep.o);

    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        fresh_dir(&cache)?;
        passes.push(campaign_pass(&prep, &cache, threads, &out)?);
        if a.write_expected || secs(t0) >= a.seconds {
            break;
        }
    }
    if a.write_expected {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{}.seed42.tsv", a.workload.name()));
        let pass = &passes[0];
        fs::write(
            &path,
            check::format(&prep.points, &pass.results, &pass.renders),
        )
        .map_err(io)?;
        eprintln!("perfbench: wrote {}", path.display());
    }

    let n = prep.points.len();
    let verdicts: Vec<Verdict> = passes.iter().map(|p| judge(&prep, p)).collect();
    let failed: usize = verdicts.iter().map(|v| v.failed).sum();
    let attempted = n * passes.len();
    let problems: Vec<&String> = verdicts.iter().flat_map(|v| &v.problems).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let kips: Vec<f64> = passes
        .iter()
        .map(|p| committed(&p.results) as f64 / p.wall / 1e3)
        .collect();
    let lat_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| for_percentiles(&p.latencies))
        .map(|s| s * 1e3)
        .collect();
    let (tail_ms, tail_pct) = tail(&lat_ms);

    let mut lines = vec![header(
        a,
        threads,
        &format!("passes={} points={n}", passes.len()),
    )];
    lines.push(format!(
        "  failed_frac       {:.4} frac ({failed} of {attempted} points failed)",
        failed as f64 / attempted as f64
    ));
    let last = passes.last().expect("one pass");
    for (pt, r) in prep.points.iter().zip(&last.results) {
        if r.is_none() {
            lines.push(format!("    failed point: {}", pt.label()));
        }
    }
    for (name, ok) in &last.renders {
        if !ok {
            lines.push(format!("    figure did not render: {name}"));
        }
    }
    if a.workload == Workload::Sampled {
        let acc = match full_references(&prep.o, false)? {
            Some(refs) => match assess(&prep.o, &prep.points, &last.results, &refs) {
                Ok(r) => {
                    let (err, cover) = accuracy(&r);
                    format!(
                        "{err:.4} % (CI covers full detail on {:.0}% of workloads)",
                        cover * 100.0
                    )
                }
                Err(e) => format!("n/a ({e})"),
            },
            None => "unchecked (no committed full-detail reference at this seed)".into(),
        };
        lines.push(format!("  ipc_err_max_pct   {acc}"));
    }
    lines.push(format!(
        "  req_tail_ms is p{tail_pct:.1} of {} point latencies",
        lat_ms.len()
    ));
    let shown = verdicts
        .iter()
        .find(|v| !v.problems.is_empty())
        .unwrap_or(&verdicts[0]);
    lines.push(format!("  {}", shown.digest_line));
    for p in problems.iter().take(20) {
        lines.push(format!("    {p}"));
    }

    let metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("wall_s", median(&walls), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("kips", median(&kips), "kinstr/s"),
        m("req_p50_ms", median(&lat_ms), "ms"),
        m("req_tail_ms", tail_ms, "ms"),
    ];
    finish(lines, problems.is_empty(), attempted, failed, metrics)
}

fn finish(
    mut lines: Vec<String>,
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
) -> Result<Outcome, String> {
    for x in &metrics {
        lines.push(format!("  {:<28} {:>14.6} {}", x.name, x.value, x.unit));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        lines,
    })
}

/// One untraced single-worker engine campaign over `points` into `dir`:
/// adds its wall time and latencies to `pass`, returns its results.
fn reference_chunk(
    points: &[SimPoint],
    dir: &Path,
    pass: &mut Pass,
) -> Result<Vec<Option<PointMetrics>>, String> {
    let (wall, latencies) = run_points("reference", points, dir, 1)?;
    pass.wall += wall;
    pass.latencies.extend(latencies);
    load_results(points, dir)
}

/// The traced run of `figures` or `sampled`. The untraced single-worker
/// reference (the engine) and the traced recomposition run interleaved,
/// chunk by chunk and in alternating order, so that a change of host
/// speed falls on both sides alike and the two walls stay comparable.
fn campaign_traced(a: &Args, work: &Path) -> Result<Outcome, String> {
    let t = Instant::now();
    let prep = prepare(a.workload, a.seed, false)?;
    let setup = secs(t);
    let o = prep.o;
    let n = prep.points.len();
    let (ref_dir, dir) = (work.join("cache_ref"), work.join("cache_trace"));
    fresh_dir(&ref_dir)?;
    fresh_dir(&dir)?;
    let refs = match a.workload {
        Workload::Sampled => full_references(&o, true)?,
        _ => None,
    };

    let mut reference = Pass {
        wall: 0.0,
        results: Vec::with_capacity(n),
        latencies: Vec::new(),
        renders: Vec::new(),
    };
    let mut l = Layers::default();
    let mut traced_wall = 0.0;
    let mut inexact = Vec::new();
    let mut notes = Vec::new();
    if a.workload == Workload::Figures {
        let t = Instant::now();
        let pts = timed(&mut l.fingerprint, || merged_points(&FIGURE_SET, &o));
        traced_wall += secs(t);
        if pts != prep.points {
            notes.push("the figures point list changed between passes".to_string());
        }
    }
    for (k, r) in trace::chunks(&prep.points).into_iter().enumerate() {
        let pts = &prep.points[r];
        let (want, sims) = if k % 2 == 0 {
            let want = reference_chunk(pts, &ref_dir, &mut reference)?;
            let t = Instant::now();
            let sims = trace::traced_simulate(pts, &dir, &mut l).map_err(io)?;
            traced_wall += secs(t);
            (want, sims)
        } else {
            let t = Instant::now();
            let sims = trace::traced_simulate(pts, &dir, &mut l).map_err(io)?;
            traced_wall += secs(t);
            (reference_chunk(pts, &ref_dir, &mut reference)?, sims)
        };
        let t = Instant::now();
        inexact.extend(trace::traced_store(&dir, sims, &want, &mut l).map_err(io)?);
        traced_wall += secs(t);
        reference.results.extend(want);
    }

    // What follows the campaign: the figure render, or the accuracy
    // assessment; once untraced and once traced.
    let (mut cover, mut err) = (0.0, 0.0);
    match a.workload {
        Workload::Figures => {
            let outcomes = as_outcomes(&reference.results);
            let t = Instant::now();
            reference.renders = trace::render(
                &FIGURE_SET,
                &o,
                &prep.points,
                &outcomes,
                &work.join("ref.out"),
            )
            .map_err(io)?;
            reference.wall += secs(t);
            let t = Instant::now();
            timed(&mut l.render, || {
                trace::render(
                    &FIGURE_SET,
                    &o,
                    &prep.points,
                    &outcomes,
                    &work.join("trace.out"),
                )
            })
            .map_err(io)?;
            traced_wall += secs(t);
        }
        _ => {
            if let Some(refs) = &refs {
                let t = Instant::now();
                assess(&o, &prep.points, &reference.results, refs)?;
                reference.wall += secs(t);
                let t = Instant::now();
                let r = timed(&mut l.assess, || {
                    assess(&o, &prep.points, &reference.results, refs)
                })?;
                traced_wall += secs(t);
                (err, cover) = accuracy(&r);
            }
        }
    }
    let verdict = judge(&prep, &reference);

    let mut lines = vec![header(a, 1, &format!("points={n}"))];
    lines.push(format!("  {}", verdict.digest_line));
    lines.push(format!(
        "  traced vs untraced: {} of {n} points recomposed exactly",
        n - inexact.len()
    ));
    notes.extend(inexact);
    for p in verdict.problems.iter().chain(&notes).take(20) {
        lines.push(format!("    {p}"));
    }
    let gap = l.self_time() / reference.wall - 1.0;
    lines.push(format!(
        "  recomposition: layer self-times {:.3} s vs interleaved untraced single-worker wall {:.3} s ({:+.1}%): {}",
        l.self_time(),
        reference.wall,
        gap * 100.0,
        if gap.abs() <= 0.10 {
            "within 10%"
        } else {
            "NOT within 10%"
        }
    ));
    let view = TraceView {
        unit_self: l.self_time(),
        unit_trace_only: l.trace_only(),
        setup,
        ref_wall: reference.wall,
        ref_lat: &reference.latencies,
        traced_wall,
        journal_bytes: journal_bytes(&dir),
        req_lat: &reference.latencies,
        ci_cover: cover,
        ipc_err: err,
        failed_frac: verdict.failed as f64 / n as f64,
    };
    let correct = verdict.problems.is_empty() && notes.is_empty();
    finish(
        lines,
        correct,
        n,
        verdict.failed,
        layer_metrics(&l, &l, &view),
    )
}

fn as_outcomes(results: &[Option<PointMetrics>]) -> Vec<PointOutcome> {
    results
        .iter()
        .map(|r| match r {
            Some(m) => PointOutcome::Metrics(Box::new(m.clone())),
            None => PointOutcome::Failed {
                error: "failed in the untraced pass".into(),
                dump_path: None,
                attempts: 1,
                quarantined: false,
            },
        })
        .collect()
}

// ---------------------------------------------------------------------
// replay: a closed loop of cached figure re-runs
// ---------------------------------------------------------------------

/// A populated replay cache.
struct ReplaySetup {
    o: HarnessOpts,
    names: Vec<&'static str>,
    dir: PathBuf,
    /// Hash of the populating run's rendered output: every request must
    /// reproduce it byte for byte.
    render_hash: u64,
    /// Points one request resolves, and how many of them the populating
    /// run completed; the others failed (a model defect), and the engine
    /// simulates them again on every request.
    points: usize,
    completed: usize,
    /// Committed instructions held by the cached results.
    committed: u64,
}

impl ReplaySetup {
    fn failed_points(&self) -> usize {
        self.points - self.completed
    }
}

fn replay_opts(seed: u64) -> HarnessOpts {
    HarnessOpts {
        seed,
        ..HarnessOpts::smoke()
    }
}

/// Hidden entry point: `perfbench --populate DIR OUT SEED` populates a
/// replay cache (see [`populate`]).
const POPULATE_FLAG: &str = "--populate";

/// The populating campaign, in a process of its own. Exits 0 when it
/// ran (whether or not every point completed), 2 on error.
fn populate_child(args: &[String]) -> i32 {
    let [dir, out, seed] = args else {
        return 2;
    };
    let Ok(seed) = seed.parse() else {
        return 2;
    };
    let run = capture_stdout(Path::new(out), || {
        run_figures(
            &replay_names(),
            &replay_opts(seed),
            &engine(populate_workers(), Path::new(dir)),
            None,
        )
    });
    match run {
        Ok(Ok(_)) => 0,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            2
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}

/// The set-up: populate a fresh cache at smoke sizes with every figure
/// but `sampling_accuracy`. It runs in a child process so that this
/// process's peak RSS measures the request path alone: the populating
/// workers' allocator arenas otherwise stay behind and made the peak
/// vary by ±15% from run to run.
fn populate(a: &Args, dir: PathBuf, out: &Path) -> Result<ReplaySetup, String> {
    fresh_dir(&dir)?;
    let status = std::process::Command::new(std::env::current_exe().map_err(io)?)
        .arg(POPULATE_FLAG)
        .arg(&dir)
        .arg(out)
        .arg(a.seed.to_string())
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(io)?;
    if !status.success() {
        return Err(format!("populating the replay cache failed: {status}"));
    }
    let o = replay_opts(a.seed);
    let names = replay_names();
    let points = merged_points(&names, &o);
    let results = load_results(&points, &dir)?;
    Ok(ReplaySetup {
        o,
        names,
        dir,
        render_hash: file_hash(out)?,
        points: points.len(),
        completed: results.iter().flatten().count(),
        committed: committed(&results),
    })
}

/// One request: a full cached re-run of the figures. Returns its
/// latency, failed when it was not served as the populating run left
/// the cache — every completed point a cache hit, the same number of
/// points failing again, output identical byte for byte — and the
/// number of points that failed in it.
fn request(
    s: &ReplaySetup,
    threads: usize,
    out: &Path,
    progress: Option<Sender<ProgressEvent>>,
) -> Result<(Latency, usize), String> {
    let t = Instant::now();
    let summary = capture_stdout(out, || {
        run_figures(&s.names, &s.o, &engine(threads, &s.dir), progress)
    })
    .map_err(io)??;
    let wall = secs(t);
    let r = &summary.report;
    let ok = r.cache_hits == s.completed
        && r.completed == s.completed
        && r.failed == s.failed_points()
        && file_hash(out)? == s.render_hash;
    Ok(((wall, !ok), r.failed))
}

/// Requests back to back, `REPLAY_REQUESTS_PER_SECOND` per second of
/// `seconds`: per-request latencies in order, and the points that
/// failed across them.
fn request_loop(
    s: &ReplaySetup,
    threads: usize,
    out: &Path,
    seconds: f64,
) -> Result<(Vec<Latency>, usize), String> {
    let n = (seconds * REPLAY_REQUESTS_PER_SECOND).ceil().max(1.0) as usize;
    let mut lat = Vec::with_capacity(n);
    let mut failed = 0;
    for _ in 0..n {
        let (l, f) = request(s, threads, out, None)?;
        lat.push(l);
        failed += f;
    }
    Ok((lat, failed))
}

fn replay_lines(
    a: &Args,
    threads: usize,
    s: &ReplaySetup,
    lat: &[Latency],
    failed_points: usize,
    setups_agree: bool,
) -> Vec<String> {
    let ms: Vec<f64> = lat.iter().map(|x| x.0 * 1e3).collect();
    let (first, last) = first_last10(&ms);
    let (_, pct) = tail(&ms);
    let bad = lat.iter().filter(|x| x.1).count();
    let mut lines = vec![
        header(
            a,
            threads,
            &format!(
                "requests={} points={} figures={} populate_workers={}",
                lat.len(),
                s.points,
                s.names.len(),
                populate_workers()
            ),
        ),
        format!(
            "  failed_frac       {:.6} frac ({failed_points} of {} points served failed)",
            failed_points as f64 / (lat.len() * s.points) as f64,
            lat.len() * s.points
        ),
        format!(
            "  output check: {}",
            if bad == 0 && setups_agree {
                "ok — every request served as populated, output byte-identical to the populating run"
            } else {
                "FAILED — a request was not served as the cache was populated"
            }
        ),
        format!("  req_tail_ms is p{pct:.1} of {} requests", lat.len()),
        format!(
            "  journal growth: {} bytes; first ten requests {first:.2} ms, last ten {last:.2} ms",
            journal_bytes(&s.dir)
        ),
    ];
    if s.failed_points() > 0 {
        lines.push(format!(
            "    {} point(s) failed in the populating run; every request simulates them again",
            s.failed_points()
        ));
    }
    lines
}

fn replay(a: &Args, work: &Path) -> Result<Outcome, String> {
    let threads = workers(a.workload);
    let out = work.join("render.out");
    let mut setups = Vec::new();
    let mut hashes = HashSet::new();
    let mut setup = None;
    for k in 0..REPLAY_SETUPS {
        let t = Instant::now();
        let s = populate(a, work.join(format!("cache{k}")), &out)?;
        setups.push(secs(t));
        hashes.insert(s.render_hash);
        if let Some(prev) = setup.replace(s) {
            let _ = fs::remove_dir_all(&prev.dir);
        }
    }
    let s = setup.expect("at least one set-up");
    let t = Instant::now();
    let (lat, failed) = request_loop(&s, threads, &out, a.seconds)?;
    let wall = secs(t);
    let n = lat.len();
    let ms: Vec<f64> = for_percentiles(&lat).iter().map(|x| x * 1e3).collect();
    let mut lines = replay_lines(a, threads, &s, &lat, failed, hashes.len() == 1);
    lines.push(
        "  kips counts the instructions the requests serve from the cache, not simulated ones"
            .into(),
    );
    let metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("wall_s", wall, "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m(
            "kips",
            (s.committed * n as u64) as f64 / wall / 1e3,
            "kinstr/s",
        ),
        m("req_p50_ms", median(&ms), "ms"),
        m("req_tail_ms", tail(&ms).0, "ms"),
    ];
    let correct = lat.iter().all(|x| !x.1) && hashes.len() == 1;
    finish(lines, correct, n * s.points, failed, metrics)
}

fn replay_traced(a: &Args, work: &Path) -> Result<Outcome, String> {
    let threads = workers(a.workload);
    let out = work.join("render.out");
    let t = Instant::now();
    let s = populate(a, work.join("cache"), &out)?;
    let setup = secs(t);

    // The write side: the populating campaign recomposed point by point.
    let points = merged_points(&s.names, &s.o);
    let stored = load_results(&points, &s.dir)?;
    let trace_dir = work.join("cache_trace");
    fresh_dir(&trace_dir)?;
    let mut sim = Layers::default();
    let mut notes = trace::traced_pass(&points, &trace_dir, &stored, &mut sim).map_err(io)?;
    let _ = fs::remove_dir_all(&trace_dir);
    let exact = points.len() - notes.len();

    // The read side: the untraced closed loop, then one untraced
    // single-worker request and one traced request over the same cache.
    let (mut lat, mut failed) = request_loop(&s, threads, &out, a.seconds)?;
    let (tx, rx) = channel();
    let collector = std::thread::spawn(move || collect_latencies(rx));
    let ((ref_wall, ref_bad), f) = request(&s, 1, &out, Some(tx))?;
    failed += f;
    let ref_lat = collector.join().map_err(|_| "latency collector panicked")?;
    let mut req = Layers::default();
    let t = Instant::now();
    trace::traced_request(&s.names, &s.o, &s.dir, &out, &mut req).map_err(io)?;
    let traced_wall = secs(t);
    let traced_failed = (req.cache_lookups - req.cache_hits) as usize;
    failed += traced_failed;
    let traced_bad = file_hash(&out)? != s.render_hash
        || req.cache_hits as usize != s.completed
        || traced_failed != s.failed_points();

    let mut lines = replay_lines(a, threads, &s, &lat, failed, true);
    lines.push(format!(
        "  traced set-up recomposition: {exact} of {} points exact",
        points.len()
    ));
    if traced_bad {
        notes.push("the traced request was not served as the cache was populated".into());
    }
    for n in notes.iter().take(20) {
        lines.push(format!("    {n}"));
    }
    lat.push((ref_wall, ref_bad));
    let correct = lat.iter().all(|x| !x.1) && notes.is_empty();
    let attempted = (lat.len() + 1) * s.points;
    let view = TraceView {
        unit_self: req.self_time(),
        unit_trace_only: req.trace_only(),
        setup,
        ref_wall,
        ref_lat: &ref_lat,
        traced_wall,
        journal_bytes: journal_bytes(&s.dir),
        req_lat: &lat[..lat.len() - 1],
        ci_cover: 0.0,
        ipc_err: 0.0,
        failed_frac: failed as f64 / attempted as f64,
    };
    // The write side's simulation layers, the read side's harness ones.
    let metrics = layer_metrics(&sim, &req, &view);
    finish(lines, correct, attempted, failed, metrics)
}

// ---------------------------------------------------------------------
// The per-layer split
// ---------------------------------------------------------------------

/// What the per-layer metrics are computed from, besides the layers.
struct TraceView<'a> {
    /// Self-time and trace-only time of the traced unit (the pass, or
    /// the replay request).
    unit_self: f64,
    unit_trace_only: f64,
    setup: f64,
    /// The untraced single-worker unit: wall time and point latencies.
    ref_wall: f64,
    ref_lat: &'a [Latency],
    traced_wall: f64,
    journal_bytes: u64,
    /// Latencies of the workload's requests, in order (seconds).
    req_lat: &'a [Latency],
    ci_cover: f64,
    ipc_err: f64,
    failed_frac: f64,
}

/// The per-layer metrics: the simulation layers and the cache stores
/// from `write`; the harness's request path (fingerprint, cache read,
/// journal load and append, render, assessment) from `read`.
/// They are one traced run on `figures` and `sampled`; on `replay`,
/// `write` is the recomposed set-up and `read` one traced request.
fn layer_metrics(write: &Layers, read: &Layers, v: &TraceView) -> Vec<Metric> {
    let (l, r) = (write, read);
    let per = |n: f64, t: f64| if t > 0.0 { n / t } else { 0.0 };
    let busy: f64 = v.ref_lat.iter().map(|x| x.0).sum();
    let point_lat = for_percentiles(v.ref_lat);
    let req_lat: Vec<f64> = v.req_lat.iter().map(|x| x.0).collect();
    let (first10, last10) = first_last10(&req_lat);
    vec![
        m("workloads.gen_s", l.gen, "s"),
        m(
            "workloads.gen_mrec_per_s",
            per(l.gen_records as f64 / 1e6, l.gen),
            "Mrec/s",
        ),
        m(
            "workloads.dup_trace_frac",
            1.0 - per(l.trace_unique as f64, l.trace_requests as f64),
            "frac",
        ),
        m("cpu.warm_s", l.warm, "s"),
        m(
            "cpu.warm_mrec_per_s",
            per(l.warm_records as f64 / 1e6, l.warm),
            "Mrec/s",
        ),
        m("cpu.detail_s", l.detail, "s"),
        m(
            "cpu.detail_kips",
            per(l.detail_committed as f64 / 1e3, l.detail),
            "kinstr/s",
        ),
        m(
            "cpu.detail_mcycles_per_s",
            per(l.detail_cycles as f64 / 1e6, l.detail),
            "Mcycles/s",
        ),
        m("core.model_setup_s", l.model_setup, "s"),
        m("core.smp_s", l.smp, "s"),
        m("core.smp_warm_s", l.smp_warm, "s"),
        m("core.smp_detail_s", (l.smp - l.smp_warm).max(0.0), "s"),
        m("core.verify_s", l.verify, "s"),
        m("mem.bus_txn", l.bus_txn as f64, "count"),
        m("mem.move_outs", l.move_outs as f64, "count"),
        m("harness.setup_s", v.setup, "s"),
        m("harness.fingerprint_s", r.fingerprint, "s"),
        m("harness.cache_load_s", r.cache_load, "s"),
        m("harness.journal_load_s", r.journal_load, "s"),
        m("harness.journal_bytes", v.journal_bytes as f64, "B"),
        m("harness.render_s", r.render, "s"),
        m(
            "harness.cache_hit_frac",
            per(r.cache_hits as f64, r.cache_lookups as f64),
            "frac",
        ),
        m("harness.cache_store_s", l.cache_store, "s"),
        m("harness.journal_append_s", r.journal_append, "s"),
        m("harness.point_p50_s", median(&point_lat), "s"),
        m("harness.point_tail_s", tail(&point_lat).0, "s"),
        m(
            "harness.worker_idle_frac",
            (1.0 - per(busy, v.ref_wall)).max(0.0),
            "frac",
        ),
        m("harness.assess_s", r.assess, "s"),
        m("harness.failed_frac", v.failed_frac, "frac"),
        m("stats.ci_cover_frac", v.ci_cover, "frac"),
        m("stats.ipc_err_max_pct", v.ipc_err, "%"),
        m("harness.ref_wall_s", v.ref_wall, "s"),
        m("harness.traced_wall_s", v.traced_wall, "s"),
        m(
            "harness.other_s",
            v.traced_wall - v.unit_self - v.unit_trace_only,
            "s",
        ),
        m(
            "trace_overhead_frac",
            per(v.traced_wall, v.ref_wall) - 1.0,
            "frac",
        ),
        m(
            "harness.recompose_gap_frac",
            per(v.unit_self, v.ref_wall) - 1.0,
            "frac",
        ),
        m("harness.req_first10_ms", first10 * 1e3, "ms"),
        m("harness.req_last10_ms", last10 * 1e3, "ms"),
    ]
}
