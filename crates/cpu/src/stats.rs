//! Core pipeline statistics.

use s64v_observe::{CpiLeaf, CpiStack, CPI_LEAVES};
use s64v_stats::{Counter, Histogram, Ratio};

/// Why decode stalled (first blocking resource wins, checked in pipeline
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStall {
    /// Instruction window (ROB) full.
    Window,
    /// Renaming registers exhausted.
    Rename,
    /// Target reservation station full.
    ReservationStation,
    /// Load queue full.
    LoadQueue,
    /// Store queue full.
    StoreQueue,
}

/// Where a cycle's blame lands in the 7-way head-of-window stack (an
/// online alternative to the paper's idealized-model breakdown, §4.2).
/// The discriminant is the index into [`CoreStats::stalls`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum StallCause {
    /// Instructions retired this cycle (not a stall).
    Busy = 0,
    /// Window head is a load waiting on an off-chip (L2-miss) fill.
    L2Miss = 1,
    /// Window head is a load waiting on an L1-miss/L2-hit fill.
    L1Miss = 2,
    /// Window head is executing (or waiting to finish executing).
    Execute = 3,
    /// Window head sits in a reservation station waiting for operands.
    Dispatch = 4,
    /// Window empty because fetch is stalled on a mispredicted branch.
    FrontendBranch = 5,
    /// Window empty for any other front-end reason (I-miss, bubbles).
    FrontendFetch = 6,
}

/// Number of [`StallCause`]s.
pub const STALL_CAUSES: usize = 7;

/// Statistics collected by one core.
#[derive(Debug, Clone)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: Counter,
    /// Instructions committed.
    pub committed: Counter,
    /// Fetch groups brought in from the L1I.
    pub fetch_groups: Counter,
    /// Conditional branches resolved.
    pub cond_branches: Counter,
    /// Conditional branches mispredicted.
    pub mispredicts: Counter,
    /// Dispatches cancelled and replayed (speculative dispatch, §3.1).
    pub replays: Counter,
    /// L1 operand cache bank conflicts (aborted second requests, §3.2).
    pub bank_conflicts: Counter,
    /// Store-to-load forwards from the store queue.
    pub store_forwards: Counter,
    /// Wrong-path fetch blocks brought in while mispredicted branches
    /// were pending (only with `wrong_path_fetch`).
    pub wrong_path_fetches: Counter,
    /// Decode stalls by cause.
    pub stall_window: Counter,
    /// Decode stalls: rename registers.
    pub stall_rename: Counter,
    /// Decode stalls: reservation stations.
    pub stall_rs: Counter,
    /// Decode stalls: load queue.
    pub stall_lq: Counter,
    /// Decode stalls: store queue.
    pub stall_sq: Counter,
    /// Instruction-window occupancy sampled each cycle.
    pub window_occupancy: Histogram,
    /// Load-queue occupancy sampled each cycle.
    pub lq_occupancy: Histogram,
    /// Store-queue occupancy sampled each cycle.
    pub sq_occupancy: Histogram,
    /// Cycles per (top-down leaf, 7-way cause) blame pair. Every cycle
    /// is attributed to exactly one pair, so both projections
    /// ([`CoreStats::cpi`], [`CoreStats::stalls`]) sum to `cycles`;
    /// checked mode audits that.
    blame: [[u64; STALL_CAUSES]; CPI_LEAVES],
}

impl CoreStats {
    /// Creates zeroed statistics for a window of `window` entries and
    /// load/store queues of the given sizes.
    pub fn new(window: u32, lq: u32, sq: u32) -> Self {
        CoreStats {
            cycles: Counter::new(),
            committed: Counter::new(),
            fetch_groups: Counter::new(),
            cond_branches: Counter::new(),
            mispredicts: Counter::new(),
            replays: Counter::new(),
            bank_conflicts: Counter::new(),
            store_forwards: Counter::new(),
            wrong_path_fetches: Counter::new(),
            stall_window: Counter::new(),
            stall_rename: Counter::new(),
            stall_rs: Counter::new(),
            stall_lq: Counter::new(),
            stall_sq: Counter::new(),
            window_occupancy: Histogram::new(window as u64),
            lq_occupancy: Histogram::new(lq as u64),
            sq_occupancy: Histogram::new(sq as u64),
            blame: [[0; STALL_CAUSES]; CPI_LEAVES],
        }
    }

    /// Attributes `n` cycles to one blame pair (`n > 1` when a quiescent
    /// stretch is skipped in one jump).
    pub(crate) fn record_blame(&mut self, leaf: CpiLeaf, cause: StallCause, n: u64) {
        self.blame[leaf.index()][cause as usize] += n;
    }

    /// The top-down CPI stack (`s64v-observe::cpi`): cycles per leaf.
    pub fn cpi(&self) -> CpiStack {
        CpiStack::from_cells(self.blame.map(|row| row.iter().sum()))
    }

    /// The 7-way stall mix: cycles per cause, indexed by [`StallCause`]
    /// discriminant.
    pub fn stalls(&self) -> [u64; STALL_CAUSES] {
        let mut mix = [0; STALL_CAUSES];
        for row in &self.blame {
            for (total, n) in mix.iter_mut().zip(row) {
                *total += n;
            }
        }
        mix
    }

    /// Records a decode stall.
    pub fn record_stall(&mut self, cause: DecodeStall) {
        self.record_stall_n(cause, 1);
    }

    /// Records `n` identical decode stalls (used when a quiescent stretch
    /// is skipped in one jump).
    pub fn record_stall_n(&mut self, cause: DecodeStall, n: u64) {
        match cause {
            DecodeStall::Window => self.stall_window.add(n),
            DecodeStall::Rename => self.stall_rename.add(n),
            DecodeStall::ReservationStation => self.stall_rs.add(n),
            DecodeStall::LoadQueue => self.stall_lq.add(n),
            DecodeStall::StoreQueue => self.stall_sq.add(n),
        }
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.committed.get() as f64 / self.cycles.get() as f64
        }
    }

    /// Branch misprediction ratio.
    pub fn mispredict_ratio(&self) -> Ratio {
        Ratio::of(self.mispredicts.get(), self.cond_branches.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_safe_when_idle() {
        let s = CoreStats::new(64, 16, 10);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn ipc_computes() {
        let mut s = CoreStats::new(64, 16, 10);
        s.cycles.add(100);
        s.committed.add(150);
        assert!((s.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stall_causes_are_separated() {
        let mut s = CoreStats::new(64, 16, 10);
        s.record_stall(DecodeStall::Window);
        s.record_stall(DecodeStall::StoreQueue);
        s.record_stall(DecodeStall::StoreQueue);
        assert_eq!(s.stall_window.get(), 1);
        assert_eq!(s.stall_sq.get(), 2);
        assert_eq!(s.stall_rename.get(), 0);
    }
}
