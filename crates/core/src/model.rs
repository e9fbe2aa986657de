//! The performance-model façade.

use crate::faultinject::FaultPlan;
use crate::integrity::{Auditor, SimError};
use crate::observe::{ObserveConfig, Observer};
use crate::system::{RunResult, SystemConfig};
use s64v_cpu::Core;
use s64v_mem::MemorySystem;
use s64v_observe::RunObservation;
use s64v_trace::{SliceStream, TraceRecord, TraceStream, VecTrace};
use std::ops::Range;

/// Cooperative supervision of one run: a simulated-cycle ceiling and an
/// external cancellation flag, both polled from inside the cycle loop.
///
/// The budget is the model-side half of the harness watchdog contract: a
/// monitor thread that decides a point is overdue cannot safely tear a
/// simulation down from outside, so instead it sets `cancel` and the loop
/// exits itself at the next poll with a structured
/// [`SimError::watchdog`]. Neither field describes the simulated system,
/// so budgets never enter [`SystemConfig`] or any cache fingerprint — a
/// run that *finishes* under a budget is byte-identical to an unbudgeted
/// one.
#[derive(Debug, Clone, Default)]
pub struct CycleBudget {
    /// Abort with a watchdog error once this many cycles have simulated.
    pub max_cycles: Option<u64>,
    /// External cancel flag, polled every [`CycleBudget::CANCEL_POLL`]
    /// cycles (set by the harness when a wall-clock deadline passes).
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl CycleBudget {
    /// How many cycles pass between polls of the cancel flag (a power of
    /// two; the ceiling check is exact every cycle).
    pub const CANCEL_POLL: u64 = 4096;

    /// Whether the budget can ever trip.
    pub fn is_active(&self) -> bool {
        self.max_cycles.is_some() || self.cancel.is_some()
    }

    /// Checks the budget at cycle `now`; `Err` is a watchdog trip.
    fn check(&self, now: u64) -> Result<(), SimError> {
        if let Some(max) = self.max_cycles {
            if now >= max {
                return Err(SimError::watchdog(
                    now,
                    format!("simulated-cycle budget of {max} cycles exhausted"),
                ));
            }
        }
        if now.is_multiple_of(Self::CANCEL_POLL) {
            if let Some(cancel) = &self.cancel {
                if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(SimError::watchdog(
                        now,
                        "cancelled by the wall-clock watchdog (deadline exceeded)",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Per-run options that do not describe the simulated system (and
/// therefore never enter [`SystemConfig`] or any cache fingerprint):
/// checked-mode auditing, fault injection, and supervision budgets.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Run the invariant auditor every cycle (see [`crate::integrity`]).
    pub checked: bool,
    /// Inject a deterministic fault (see [`crate::faultinject`]).
    pub fault: Option<FaultPlan>,
    /// Cycle ceiling and cancellation flag (see [`CycleBudget`]).
    pub budget: Option<CycleBudget>,
    /// Force every cycle to be stepped, disabling quiescent-cycle
    /// skipping. Results are byte-identical either way (the equivalence
    /// test suite asserts exactly that); the switch exists for those tests
    /// and for debugging. Checked and faulted runs never skip regardless.
    pub no_skip: bool,
}

impl RunOptions {
    /// Checked mode, no fault.
    pub fn checked() -> Self {
        RunOptions {
            checked: true,
            ..RunOptions::default()
        }
    }

    /// Checked mode with a fault plan (fault-matrix validation runs).
    pub fn checked_with_fault(fault: FaultPlan) -> Self {
        RunOptions {
            checked: true,
            fault: Some(fault),
            ..RunOptions::default()
        }
    }

    /// Default options under a supervision budget.
    pub fn budgeted(budget: CycleBudget) -> Self {
        RunOptions {
            budget: Some(budget),
            ..RunOptions::default()
        }
    }
}

/// The shared lock-stepped simulation loop: steps every unfinished core
/// each cycle, applies any pending fault, and (in checked mode) audits the
/// invariants. Returns the final cycle count.
fn drive<S: TraceStream>(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    streams: &mut [S],
    opts: RunOptions,
    mut observer: Option<&mut Observer>,
) -> Result<u64, SimError> {
    let mut auditor = opts.checked.then(|| Auditor::new(cores.len()));
    let mut fault = opts.fault;
    // Hoisted out of `opts` so an inactive budget costs one branch.
    let budget = opts.budget.filter(CycleBudget::is_active);
    // Quiescent-cycle skipping: sound only when nothing outside the cores
    // can act on an arbitrary cycle — so never under an auditor (it must
    // see every cycle) or a fault plan (it fires at scheduled cycles).
    let may_skip = !opts.no_skip
        && auditor.is_none()
        && fault.is_none()
        && cores.iter().all(Core::skip_enabled);
    let observe_interval = observer.as_ref().map_or(0, |o| o.interval());
    let mut done: Vec<bool> = vec![false; cores.len()];
    let mut now = 0u64;
    while done.iter().any(|d| !d) {
        if let Some(b) = &budget {
            b.check(now)?;
        }
        if let Some(f) = fault.as_mut() {
            f.apply(now, cores, mem);
        }
        let mut stepped = false;
        let mut idle = true;
        for i in 0..cores.len() {
            if done[i] {
                continue;
            }
            if cores[i].is_done(&streams[i]) {
                done[i] = true;
                continue;
            }
            let (_, active) = cores[i]
                .try_step_counted(mem, &mut streams[i], now)
                .map_err(|e| SimError::from_core(*e, mem))?;
            stepped = true;
            idle &= !active;
        }
        if let Some(a) = auditor.as_mut() {
            a.check(now, cores, mem)?;
        }
        if stepped {
            if let Some(o) = observer.as_mut() {
                o.tick(now, cores, mem);
            }
        }
        if may_skip && stepped && idle {
            // Every active core must prove itself frozen; the jump lands
            // on the earliest wakeup among them, further capped so that
            // observer boundaries and budget polls still run on their
            // exact cycles.
            let mut wake = u64::MAX;
            let mut frozen = true;
            for i in 0..cores.len() {
                if done[i] {
                    continue;
                }
                match cores[i].next_wakeup(&streams[i], now) {
                    Some(w) => wake = wake.min(w),
                    None => {
                        frozen = false;
                        break;
                    }
                }
            }
            if frozen {
                if observe_interval > 0 {
                    let boundary = (now + 2).div_ceil(observe_interval) * observe_interval - 1;
                    wake = wake.min(boundary);
                }
                if let Some(b) = &budget {
                    if let Some(max) = b.max_cycles {
                        wake = wake.min(max);
                    }
                    if b.cancel.is_some() {
                        let next_poll =
                            (now / CycleBudget::CANCEL_POLL + 1) * CycleBudget::CANCEL_POLL;
                        wake = wake.min(next_poll);
                    }
                }
                if wake > now + 1 {
                    let n = wake - 1 - now;
                    for i in 0..cores.len() {
                        if !done[i] {
                            cores[i].skip_cycles(now, n);
                        }
                    }
                    now += n;
                }
            }
        }
        now += 1;
    }
    if let Some(a) = auditor.as_mut() {
        a.finalize(now, cores, mem)?;
    }
    Ok(now.saturating_sub(1))
}

fn collect_result(cycles: u64, cores: &[Core], mem: &MemorySystem) -> RunResult {
    RunResult {
        cycles,
        committed: cores.iter().map(|c| c.stats().committed.get()).sum(),
        core_stats: cores.iter().map(|c| c.stats().clone()).collect(),
        mem_stats: (0..cores.len()).map(|i| mem.stats(i).clone()).collect(),
        bus_transactions: mem.bus().transactions(),
        bus_busy_cycles: mem.bus().busy_cycles(),
    }
}

/// Records each CPU warms before the next CPU takes its turn: the
/// warm-up interleaves CPUs in chunks so SMP shared state mixes.
const WARM_CHUNK: usize = 1024;

/// The machine state functional warming builds: the memory system plus
/// every core's branch predictor (the only core state [`Core::warm`]
/// touches). No cycle has elapsed and nothing is observed.
///
/// [`PerformanceModel::try_run`] builds one from record 0 for every run.
/// The state is `Clone`, so one functional pass over a trace can serve
/// many sampled windows: advance it to each window start in turn and
/// hand a clone to [`PerformanceModel::try_run_warmed`] (the "live-points"
/// idea of TurboSMARTS). A clone continues exactly as the original would,
/// so each window's result is the one a fresh warm-up from record 0
/// gives.
///
/// # Examples
///
/// ```
/// use s64v_core::{model::WarmState, PerformanceModel, RunOptions, SystemConfig};
/// use s64v_workloads::{Suite, SuiteKind};
///
/// let config = SystemConfig::sparc64_v();
/// let model = PerformanceModel::new(config.clone());
/// let t = Suite::preset(SuiteKind::SpecInt95).programs()[0].generate(12_000, 1);
/// let recs = t.records();
/// let mut warm = WarmState::new(&config);
/// warm.advance(&[recs], 0..8_000);
/// let window = &recs[8_000..10_000];
/// let (shared, _) = model
///     .try_run_warmed(warm.clone(), &[window], RunOptions::default(), None)
///     .unwrap();
/// let (fresh, _) = model
///     .try_run(&[&recs[..10_000]], 8_000, RunOptions::default(), None)
///     .unwrap();
/// assert_eq!(shared.cycles, fresh.cycles);
/// ```
#[derive(Debug)]
pub struct WarmState {
    mem: MemorySystem,
    cores: Vec<Core>,
}

impl WarmState {
    /// The cold machine of `config`: nothing warmed yet.
    pub fn new(config: &SystemConfig) -> Self {
        WarmState {
            mem: MemorySystem::new(config.mem.clone(), config.cpus),
            cores: (0..config.cpus)
                .map(|i| Core::new(config.core.clone(), i))
                .collect(),
        }
    }

    /// Functionally replays records `range` of every CPU's trace, CPUs
    /// taking turns in chunks aligned to multiples of 1024 records. On
    /// one CPU, advancing `a..b` then `b..c` equals advancing `a..c`; on
    /// several it does when `b` is a multiple of 1024.
    ///
    /// # Panics
    ///
    /// Panics on a trace count other than the CPU count, or if `range`
    /// runs past the end of a trace.
    pub fn advance(&mut self, traces: &[&[TraceRecord]], range: Range<usize>) {
        assert_eq!(
            traces.len(),
            self.cores.len(),
            "need one trace per CPU ({} != {})",
            traces.len(),
            self.cores.len()
        );
        let mut pos = range.start;
        while pos < range.end {
            let end = ((pos / WARM_CHUNK + 1) * WARM_CHUNK).min(range.end);
            for (core, trace) in self.cores.iter_mut().zip(traces) {
                for rec in &trace[pos..end] {
                    core.warm(&mut self.mem, rec);
                }
            }
            pos = end;
        }
    }
}

impl Clone for WarmState {
    fn clone(&self) -> Self {
        WarmState {
            mem: self.mem.clone(),
            cores: self.cores.iter().map(Core::warm_clone).collect(),
        }
    }
}

/// The trace-driven performance model: a [`SystemConfig`] ready to run
/// traces.
///
/// # Examples
///
/// ```
/// use s64v_core::{PerformanceModel, SystemConfig};
/// use s64v_workloads::{Suite, SuiteKind};
///
/// let suite = Suite::preset(SuiteKind::SpecInt95);
/// let trace = suite.programs()[0].generate(20_000, 1);
/// let result = PerformanceModel::new(SystemConfig::sparc64_v()).run_trace(&trace);
/// assert_eq!(result.committed, 20_000);
/// assert!(result.ipc() > 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct PerformanceModel {
    config: SystemConfig,
}

impl PerformanceModel {
    /// Wraps a configuration.
    pub fn new(config: SystemConfig) -> Self {
        PerformanceModel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs one record stream per CPU, lock-stepped cycle by cycle over
    /// the shared memory system — the single entry point every other run
    /// method forwards to.
    ///
    /// The first `warmup` records of every stream functionally warm the
    /// caches, TLBs and branch predictors into a fresh [`WarmState`]
    /// (interleaved across CPUs so shared lines end in a realistic mixed
    /// state; the paper traces workloads at steady state, §2.2); only the
    /// remainder is timed, by [`PerformanceModel::try_run_warmed`]. The
    /// run ends when every CPU has drained; CPUs that finish early sit
    /// idle (their commit counts still contribute). A sampled window is
    /// the slice `records[start - warm..start + len]` with warm-up `warm`.
    ///
    /// With `observe`, probes attach *after* the warm-up and the returned
    /// [`RunObservation`] holds the structured events, interval metrics
    /// and instruction timelines of the timed execution; without it the
    /// observation is empty. Observation is read-only: the [`RunResult`]
    /// is byte-identical either way. See [`RunOptions`] for checked mode,
    /// fault injection and supervision budgets.
    ///
    /// # Panics
    ///
    /// Panics on contract misuse (stream count other than the CPU count,
    /// warm-up not shorter than every stream), never on a simulation
    /// fault — a wedged pipeline or (in checked mode) an invariant
    /// violation is returned as a structured [`SimError`].
    pub fn try_run<R: AsRef<[TraceRecord]>>(
        &self,
        traces: &[R],
        warmup: usize,
        opts: RunOptions,
        observe: Option<ObserveConfig>,
    ) -> Result<(RunResult, RunObservation), SimError> {
        let records: Vec<&[TraceRecord]> = traces.iter().map(AsRef::as_ref).collect();
        assert!(
            records.iter().all(|t| t.len() > warmup),
            "warmup must leave records to time"
        );
        let mut warm = WarmState::new(&self.config);
        warm.advance(&records, 0..warmup);
        let timed: Vec<&[TraceRecord]> = records.iter().map(|t| &t[warmup..]).collect();
        self.try_run_warmed(warm, &timed, opts, observe)
    }

    /// Times `traces` (the records after the warm-up, one slice per CPU)
    /// on the machine `warm` left behind: the detailed body of
    /// [`PerformanceModel::try_run`], which builds `warm` from record 0.
    /// A caller holding a [`WarmState`] already advanced to a window's
    /// start (one functional pass shared by every window of a sampled
    /// plan) gets the same result as the `try_run` that replays the
    /// warm-up itself.
    ///
    /// # Panics
    ///
    /// Panics if `warm` was built for another configuration, on a stream
    /// count other than the CPU count, or on an empty stream.
    pub fn try_run_warmed(
        &self,
        warm: WarmState,
        traces: &[&[TraceRecord]],
        opts: RunOptions,
        observe: Option<ObserveConfig>,
    ) -> Result<(RunResult, RunObservation), SimError> {
        assert_eq!(
            traces.len(),
            self.config.cpus,
            "need one trace per CPU ({} != {})",
            traces.len(),
            self.config.cpus
        );
        assert!(
            traces.iter().all(|t| !t.is_empty()),
            "warmup must leave records to time"
        );
        assert!(
            warm.cores.len() == self.config.cpus
                && warm.mem.config() == &self.config.mem
                && warm.cores.iter().all(|c| c.config() == &self.config.core),
            "warm state built for another configuration"
        );
        let WarmState { mut mem, mut cores } = warm;
        let mut observer = observe.map(|ocfg| Observer::new(ocfg, &mut cores, &mut mem));
        let mut streams: Vec<SliceStream<'_>> =
            traces.iter().map(|t| SliceStream::new(t)).collect();
        let cycles = drive(&mut cores, &mut mem, &mut streams, opts, observer.as_mut())?;
        let result = collect_result(cycles, &cores, &mem);
        let observation = match observer {
            Some(mut o) => {
                o.finish(cycles, &cores, &mem);
                o.collect(&mut cores, &mut mem)
            }
            None => RunObservation::default(),
        };
        Ok((result, observation))
    }

    /// [`PerformanceModel::try_run`] over one trace per CPU, unobserved.
    ///
    /// # Panics
    ///
    /// Panics on contract misuse (trace count mismatch, warm-up longer
    /// than a trace), never on a simulation fault.
    pub fn try_run_traces_warm(
        &self,
        traces: &[VecTrace],
        warmup: usize,
        opts: RunOptions,
    ) -> Result<RunResult, SimError> {
        self.try_run(traces, warmup, opts, None).map(|(r, _)| r)
    }

    /// Runs a single trace on a uniprocessor instance of the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has more than one CPU, the trace is
    /// empty, or the run wedges.
    pub fn run_trace(&self, trace: &VecTrace) -> RunResult {
        self.run_trace_warm(trace, 0)
    }

    /// Runs a single trace on a uniprocessor system, using the first
    /// `warmup` records for functional cache/predictor warming and timing
    /// only the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `warmup >= trace.len()`, the config is not UP, or the
    /// run wedges.
    pub fn run_trace_warm(&self, trace: &VecTrace, warmup: usize) -> RunResult {
        self.try_run_traces_warm(std::slice::from_ref(trace), warmup, RunOptions::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_workloads::{smp_traces, suite::tpcc_program, Suite, SuiteKind};

    #[test]
    fn uniprocessor_run_commits_everything() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let t = suite.programs()[0].generate(10_000, 5);
        let r = PerformanceModel::new(SystemConfig::sparc64_v()).run_trace(&t);
        assert_eq!(r.committed, 10_000);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn smp_run_commits_all_streams() {
        let traces = smp_traces(&tpcc_program(), 2, 30_000, 3);
        let r = PerformanceModel::new(SystemConfig::smp(2))
            .try_run_traces_warm(&traces, 0, RunOptions::default())
            .unwrap();
        assert_eq!(r.committed, 60_000);
        assert_eq!(r.core_stats.len(), 2);
        let invalidations: u64 = r
            .mem_stats
            .iter()
            .map(|m| m.coherence.invalidations_caused.get())
            .sum();
        assert!(
            r.move_outs() > 0 || invalidations > 0,
            "shared TPC-C data must cause coherence traffic"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let suite = Suite::preset(SuiteKind::SpecFp95);
        let t = suite.programs()[0].generate(5_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let a = model.run_trace(&t);
        let b = model.run_trace(&t);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
    }

    #[test]
    fn checked_mode_changes_nothing_on_a_clean_run() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let t = suite.programs()[0].generate(8_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let plain = model.run_trace(&t);
        let (checked, _) = model
            .try_run(&[&t], 0, RunOptions::checked(), None)
            .expect("no invariant fires on an unfaulted run");
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.committed, checked.committed);
    }

    #[test]
    fn checked_smp_run_is_clean_too() {
        let traces = smp_traces(&tpcc_program(), 2, 10_000, 3);
        let model = PerformanceModel::new(SystemConfig::smp(2));
        let plain = model
            .try_run_traces_warm(&traces, 0, RunOptions::default())
            .unwrap();
        let checked = model
            .try_run_traces_warm(&traces, 0, RunOptions::checked())
            .expect("no invariant fires on an unfaulted SMP run");
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.committed, checked.committed);
    }

    #[test]
    #[should_panic(expected = "one trace per CPU")]
    fn trace_count_is_validated() {
        let traces = smp_traces(&tpcc_program(), 2, 100, 3);
        let _ = PerformanceModel::new(SystemConfig::smp(4)).try_run_traces_warm(
            &traces,
            0,
            RunOptions::default(),
        );
    }
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use s64v_workloads::{Suite, SuiteKind};

    /// Times `[start, start + len)` of `t` after functionally warming the
    /// `warm` records before it — the slice form of one sampled window.
    fn window(
        model: &PerformanceModel,
        t: &VecTrace,
        (start, len, warm): (usize, usize, usize),
        opts: RunOptions,
    ) -> RunResult {
        let recs = &t.records()[start - warm..start + len];
        model.try_run(&[recs], warm, opts, None).unwrap().0
    }

    #[test]
    fn sampling_approximates_the_contiguous_run() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let t = suite.programs()[1].generate(80_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        // Three spread windows, each warmed from record 0, vs timing the
        // same span contiguously after an equivalent warm-up.
        let (mut committed, mut cycles) = (0, 0);
        for start in [30_000, 50_000, 70_000] {
            let r = window(&model, &t, (start, 8_000, start), RunOptions::default());
            committed += r.committed;
            cycles += r.cycles;
        }
        let contiguous = model.run_trace_warm(&t, 56_000); // times the last 24k
        let a = committed as f64 / cycles as f64;
        let b = contiguous.ipc();
        assert!(
            (a - b).abs() / b < 0.25,
            "sampled IPC {a:.3} should approximate contiguous {b:.3}"
        );
    }

    #[test]
    fn independent_windows_commit_exactly_their_records() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let t = suite.programs()[0].generate(60_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let r = window(&model, &t, (20_000, 5_000, 4_000), RunOptions::default());
        assert_eq!(r.committed, 5_000);
        assert!(r.cycles > 0);
        // A window is independent of everything after it: truncating the
        // trace right at the window's end must not change the result.
        let truncated = VecTrace::from_records(t.records()[..25_000].to_vec());
        let r2 = window(
            &model,
            &truncated,
            (20_000, 5_000, 4_000),
            RunOptions::default(),
        );
        assert_eq!(r.cycles, r2.cycles);
        assert_eq!(r.committed, r2.committed);
    }

    #[test]
    fn window_results_are_skip_and_checked_invariant() {
        let suite = Suite::preset(SuiteKind::Tpcc);
        let t = suite.programs()[0].generate(40_000, 9);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let w = (10_000, 6_000, 5_000);
        let base = window(&model, &t, w, RunOptions::default());
        let no_skip = RunOptions {
            no_skip: true,
            ..RunOptions::default()
        };
        let stepped = window(&model, &t, w, no_skip);
        let checked = window(&model, &t, w, RunOptions::checked());
        assert_eq!(base.cycles, stepped.cycles);
        assert_eq!(base.cycles, checked.cycles);
        assert_eq!(base.committed, checked.committed);
    }
}
