//! Suite runners used by every figure harness.
//!
//! A suite run simulates each program's trace on a given [`SystemConfig`]
//! (programs run in parallel — they are independent simulations) and
//! aggregates IPC as a geometric mean plus exactly-merged event ratios.

use crate::model::PerformanceModel;
use crate::system::{RunResult, SystemConfig};
use s64v_stats::Ratio;
use s64v_workloads::{Suite, SuiteKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over `items` on a small thread pool, preserving order.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("slot lock poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// One program's simulation outcome.
#[derive(Debug, Clone)]
pub struct ProgramResult {
    /// Program name.
    pub name: String,
    /// The run's measurements.
    pub result: RunResult,
}

/// A whole suite's outcome on one configuration.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Figure label (e.g. `"SPECint95"` or `"TPC-C(16P)"`).
    pub label: String,
    /// Per-program results.
    pub programs: Vec<ProgramResult>,
}

impl SuiteResult {
    /// Geometric-mean IPC across programs (the paper reports suite-level
    /// IPC ratios).
    pub fn ipc(&self) -> f64 {
        if self.programs.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self.programs.iter().map(|p| p.result.ipc().ln()).sum();
        (log_sum / self.programs.len() as f64).exp()
    }

    fn merge<F: Fn(&RunResult) -> Ratio>(&self, f: F) -> Ratio {
        self.programs
            .iter()
            .map(|p| f(&p.result))
            .fold(Ratio::default(), |acc, r| acc.merge(r))
    }

    /// Merged L1I miss ratio.
    pub fn l1i_miss(&self) -> Ratio {
        self.merge(|r| r.l1i_miss_ratio())
    }

    /// Merged L1 operand miss ratio.
    pub fn l1d_miss(&self) -> Ratio {
        self.merge(|r| r.l1d_miss_ratio())
    }

    /// Merged L2 miss ratio over all requests (prefetches included).
    pub fn l2_all_miss(&self) -> Ratio {
        self.merge(|r| r.l2_all_miss_ratio())
    }

    /// Merged demand-only L2 miss ratio.
    pub fn l2_demand_miss(&self) -> Ratio {
        self.merge(|r| r.l2_demand_miss_ratio())
    }

    /// Merged branch misprediction ratio.
    pub fn mispredict(&self) -> Ratio {
        self.merge(|r| r.mispredict_ratio())
    }
}

/// Simulates every program of `kind` on `config`: each program's trace
/// has `warmup` warm-up records followed by `records` timed records,
/// generated from `seed`.
pub fn run_suite_warm(
    config: &SystemConfig,
    kind: SuiteKind,
    records: usize,
    warmup: usize,
    seed: u64,
) -> SuiteResult {
    let suite = Suite::preset(kind);
    let model = PerformanceModel::new(config.clone());
    let programs = parallel_map(suite.programs(), |p| {
        let trace = p.generate(records + warmup, program_seed(seed, p.name()));
        ProgramResult {
            name: p.name().to_string(),
            result: model.run_trace_warm(&trace, warmup),
        }
    });
    SuiteResult {
        label: kind.label().to_string(),
        programs,
    }
}

/// The trace seed [`run_suite_warm`] derives for one program: the base
/// campaign seed XORed with a hash of the program name, so every program
/// in a suite gets an independent stream. Exposed so other executors (the
/// `s64v-harness` campaign engine) reproduce suite runs point-for-point.
pub fn program_seed(base_seed: u64, program_name: &str) -> u64 {
    let mut h: u64 = 0x517c_c1b7_2722_0a95;
    for b in program_name.bytes() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(0x27220a95);
    }
    base_seed ^ h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn suite_run_aggregates_programs() {
        let r = run_suite_warm(
            &SystemConfig::sparc64_v(),
            SuiteKind::SpecInt95,
            4_000,
            2_000,
            3,
        );
        assert_eq!(r.programs.len(), 8);
        assert!(r.ipc() > 0.0);
        assert!(r.mispredict().denominator() > 0);
        assert!(r.l1d_miss().denominator() > 0);
    }
}
