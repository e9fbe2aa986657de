//! Interval metrics: periodic samples of where the machine's time goes.
//!
//! The end-of-run counters say *how much*; the interval time series says
//! *when*. Every `interval` cycles (10k by default) the sampler in
//! `s64v-core` emits one [`IntervalSample`]: committed instructions and
//! IPC over the window, instantaneous window/RS/LSQ/MSHR occupancies at
//! the window boundary, bus traffic deltas, and the per-window top-down
//! CPI stack (the cycles each [`CpiStack`] leaf gained in the window).
//! Samples serialize one-per-line as JSONL via [`to_jsonl`]; each CPU's
//! stack is a `cpi` object keyed by `group/leaf` path, the same encoding
//! as the `.cpi.json` point artifacts, and its leaves sum to the window
//! length.

use crate::cpi::CpiStack;
use crate::json::Value;

/// One CPU's share of an interval sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuInterval {
    /// Instructions committed in the window.
    pub committed: u64,
    /// Instructions per cycle over the window.
    pub ipc: f64,
    /// Window (ROB) occupancy at the sample boundary.
    pub window_occ: usize,
    /// Total reservation-station occupancy at the boundary.
    pub rs_occ: usize,
    /// Loads in flight at the boundary.
    pub lq_occ: usize,
    /// Stores in flight at the boundary.
    pub sq_occ: usize,
    /// MSHR occupancy at the boundary, `[l1i, l1d, l2]`.
    pub mshr_occ: [usize; 3],
    /// Cycles attributed per top-down leaf in the window.
    pub cpi: CpiStack,
}

/// One sampling window across the whole system.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// First cycle of the window.
    pub start: u64,
    /// One past the last cycle of the window.
    pub end: u64,
    /// Instructions committed in the window, all CPUs.
    pub committed: u64,
    /// Aggregate IPC over the window.
    pub ipc: f64,
    /// Backplane-bus busy cycles accumulated in the window.
    pub bus_busy: u64,
    /// Backplane-bus transactions granted in the window.
    pub bus_txns: u64,
    /// Backplane-bus utilization over the window (0..=1).
    pub bus_util: f64,
    /// Per-CPU detail.
    pub cpus: Vec<CpuInterval>,
}

impl IntervalSample {
    /// The sample as a JSON object (one JSONL row).
    pub fn to_json(&self) -> Value {
        let cpus: Vec<Value> = self
            .cpus
            .iter()
            .map(|c| {
                Value::obj()
                    .field("committed", c.committed)
                    .field("ipc", c.ipc)
                    .field("window_occ", c.window_occ)
                    .field("rs_occ", c.rs_occ)
                    .field("lq_occ", c.lq_occ)
                    .field("sq_occ", c.sq_occ)
                    .field(
                        "mshr_occ",
                        Value::Arr(c.mshr_occ.iter().map(|&m| Value::from(m)).collect()),
                    )
                    .field("cpi", c.cpi.to_value())
            })
            .collect();
        Value::obj()
            .field("start", self.start)
            .field("end", self.end)
            .field("committed", self.committed)
            .field("ipc", self.ipc)
            .field("bus_busy", self.bus_busy)
            .field("bus_txns", self.bus_txns)
            .field("bus_util", self.bus_util)
            .field("cpus", Value::Arr(cpus))
    }
}

/// Serializes samples as JSONL: one compact JSON object per line.
pub fn to_jsonl(samples: &[IntervalSample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&s.to_json().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IntervalSample {
        IntervalSample {
            start: 0,
            end: 10_000,
            committed: 12_345,
            ipc: 1.2345,
            bus_busy: 420,
            bus_txns: 17,
            bus_util: 0.042,
            cpus: vec![CpuInterval {
                committed: 12_345,
                ipc: 1.2345,
                window_occ: 20,
                rs_occ: 9,
                lq_occ: 3,
                sq_occ: 2,
                mshr_occ: [0, 2, 1],
                cpi: CpiStack::from_cells([
                    9_000, 10, 0, 20, 0, 20, 0, 0, 0, 200, 0, 300, 400, 0, 0, 50,
                ]),
            }],
        }
    }

    #[test]
    fn jsonl_rows_parse_back() {
        let text = to_jsonl(&[sample(), sample()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Value::parse(line).expect("valid JSON row");
            assert_eq!(v.get("end").and_then(Value::as_i64), Some(10_000));
            let cpu = &v.get("cpus").and_then(Value::as_array).expect("cpus")[0];
            let cpi = CpiStack::from_value(cpu.get("cpi").expect("cpi")).expect("leaves");
            assert_eq!(cpi, sample().cpus[0].cpi);
            assert_eq!(
                cpu.get("mshr_occ").and_then(Value::as_array).unwrap().len(),
                3
            );
        }
    }

    #[test]
    fn stall_sum_matches_window_length_in_the_fixture() {
        // The model invariant (one blame recorded per timed cycle) means
        // a full window's CPI stack sums to the window length.
        let s = sample();
        assert!(s.cpus[0].cpi.conserves(s.end - s.start));
    }
}
