//! Hierarchical top-down CPI accounting: the blame taxonomy.
//!
//! Every simulated cycle of every core is attributed to exactly one
//! [`CpiLeaf`] of a fixed two-level taxonomy (group / leaf), mirroring
//! the paper's stall-breakdown methodology (§4.2) but computed online
//! from head-of-window state instead of by cumulative idealization:
//!
//! ```text
//! retire            retire
//! frontend          icache | itlb | decode-starve | wrong-path
//! bad-speculation   branch-flush | replay
//! backend-core      rs-full | rob-full | exec-latency
//! backend-memory    l1d | l2 | dram | mshr | bus | store-buffer
//! ```
//!
//! The accounting is *conservative by construction*: a [`CpiStack`] is
//! only ever grown through [`CpiStack::record`]/[`CpiStack::record_n`],
//! one call per attributed cycle, so the leaves sum exactly to the
//! cycles attributed. The invariant auditor re-checks the sum against
//! the core's cycle counter in checked mode (`s64v-core::integrity`).
//!
//! This module owns only the taxonomy and the counter container; *how*
//! a cycle is attributed (the head-of-window decision procedure) lives
//! in `s64v-cpu`, and the artifact/report plumbing in `s64v-harness`.

use crate::json::Value;

/// Number of leaves in the taxonomy (and cells in a [`CpiStack`]).
pub const CPI_LEAVES: usize = 16;

/// Top-level blame category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpiGroup {
    /// Useful work: at least one instruction retired this cycle.
    Retire,
    /// Instruction-supply starvation.
    Frontend,
    /// Cycles destroyed by mis-speculation.
    BadSpeculation,
    /// Core execution resources.
    BackendCore,
    /// Data-side memory hierarchy.
    BackendMemory,
}

impl CpiGroup {
    /// Every group, in reporting order.
    pub const ALL: [CpiGroup; 5] = [
        CpiGroup::Retire,
        CpiGroup::Frontend,
        CpiGroup::BadSpeculation,
        CpiGroup::BackendCore,
        CpiGroup::BackendMemory,
    ];

    /// The group's stable name (folded stacks, JSON artifacts).
    pub fn label(self) -> &'static str {
        match self {
            CpiGroup::Retire => "retire",
            CpiGroup::Frontend => "frontend",
            CpiGroup::BadSpeculation => "bad-speculation",
            CpiGroup::BackendCore => "backend-core",
            CpiGroup::BackendMemory => "backend-memory",
        }
    }
}

/// One leaf of the blame taxonomy. The discriminant is the cell index
/// in a [`CpiStack`]; the order is fixed (it is the on-disk order of
/// every artifact that serializes a stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CpiLeaf {
    /// At least one instruction committed this cycle.
    Retire = 0,
    /// Window empty: fetch waiting on an L1I miss.
    FrontendICache = 1,
    /// Window empty: fetch waiting on an ITLB miss.
    FrontendITlb = 2,
    /// Window empty: decode bubble with no miss outstanding.
    FrontendDecodeStarve = 3,
    /// Window empty behind an unresolved branch while wrong-path fetch
    /// keeps the fetch pipe busy (only with `wrong_path_fetch`).
    FrontendWrongPath = 4,
    /// Window empty: fetch squashed behind a mispredicted branch.
    BadSpecBranchFlush = 5,
    /// Head was speculatively dispatched, cancelled, and is replaying.
    BadSpecReplay = 6,
    /// Head undecodable: its reservation station is full.
    CoreRsFull = 7,
    /// Head undecodable: instruction window or rename registers full.
    CoreRobFull = 8,
    /// Head executing (or waiting on operands/results) in the core.
    CoreExecLatency = 9,
    /// Head is a load waiting on an L1D hit latency.
    MemL1d = 10,
    /// Head is a load waiting on an L1D-miss/L2-hit fill.
    MemL2 = 11,
    /// Head is a load waiting on an off-chip (L2-miss) DRAM fill.
    MemDram = 12,
    /// Head is a load that stalled for an MSHR before its miss could
    /// even be tracked.
    MemMshr = 13,
    /// Head is a load whose miss queued for the system bus.
    MemBus = 14,
    /// Head undecodable: the store queue is full (stores draining).
    MemStoreBuffer = 15,
}

impl CpiLeaf {
    /// Every leaf, in cell order.
    pub const ALL: [CpiLeaf; CPI_LEAVES] = [
        CpiLeaf::Retire,
        CpiLeaf::FrontendICache,
        CpiLeaf::FrontendITlb,
        CpiLeaf::FrontendDecodeStarve,
        CpiLeaf::FrontendWrongPath,
        CpiLeaf::BadSpecBranchFlush,
        CpiLeaf::BadSpecReplay,
        CpiLeaf::CoreRsFull,
        CpiLeaf::CoreRobFull,
        CpiLeaf::CoreExecLatency,
        CpiLeaf::MemL1d,
        CpiLeaf::MemL2,
        CpiLeaf::MemDram,
        CpiLeaf::MemMshr,
        CpiLeaf::MemBus,
        CpiLeaf::MemStoreBuffer,
    ];

    /// The leaf's cell index in a [`CpiStack`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The group the leaf belongs to.
    pub fn group(self) -> CpiGroup {
        match self {
            CpiLeaf::Retire => CpiGroup::Retire,
            CpiLeaf::FrontendICache
            | CpiLeaf::FrontendITlb
            | CpiLeaf::FrontendDecodeStarve
            | CpiLeaf::FrontendWrongPath => CpiGroup::Frontend,
            CpiLeaf::BadSpecBranchFlush | CpiLeaf::BadSpecReplay => CpiGroup::BadSpeculation,
            CpiLeaf::CoreRsFull | CpiLeaf::CoreRobFull | CpiLeaf::CoreExecLatency => {
                CpiGroup::BackendCore
            }
            CpiLeaf::MemL1d
            | CpiLeaf::MemL2
            | CpiLeaf::MemDram
            | CpiLeaf::MemMshr
            | CpiLeaf::MemBus
            | CpiLeaf::MemStoreBuffer => CpiGroup::BackendMemory,
        }
    }

    /// The leaf's stable name within its group.
    pub fn label(self) -> &'static str {
        match self {
            CpiLeaf::Retire => "retire",
            CpiLeaf::FrontendICache => "icache",
            CpiLeaf::FrontendITlb => "itlb",
            CpiLeaf::FrontendDecodeStarve => "decode-starve",
            CpiLeaf::FrontendWrongPath => "wrong-path",
            CpiLeaf::BadSpecBranchFlush => "branch-flush",
            CpiLeaf::BadSpecReplay => "replay",
            CpiLeaf::CoreRsFull => "rs-full",
            CpiLeaf::CoreRobFull => "rob-full",
            CpiLeaf::CoreExecLatency => "exec-latency",
            CpiLeaf::MemL1d => "l1d",
            CpiLeaf::MemL2 => "l2",
            CpiLeaf::MemDram => "dram",
            CpiLeaf::MemMshr => "mshr",
            CpiLeaf::MemBus => "bus",
            CpiLeaf::MemStoreBuffer => "store-buffer",
        }
    }

    /// The leaf's fully qualified `group/leaf` path.
    pub fn path(self) -> String {
        format!("{}/{}", self.group().label(), self.label())
    }

    /// Looks a leaf up by its `group/leaf` path (artifact parsing).
    pub fn from_path(path: &str) -> Option<CpiLeaf> {
        CpiLeaf::ALL.into_iter().find(|l| l.path() == path)
    }
}

/// Why a demand load's data was late, recorded at issue time so the
/// head-of-window attribution can blame the *right* memory level when
/// the load later holds up the window. Priority order (first match
/// wins) is structural-before-capacity: a load that could not even
/// allocate a miss handler is an MSHR problem whatever the fill level,
/// and one that queued for the bus is a bandwidth problem before it is
/// a latency problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBlame {
    /// Stalled waiting for an MSHR.
    Mshr,
    /// Queued for the system bus behind other traffic.
    Bus,
    /// Missed L2: the fill came from DRAM (or a remote cache).
    Dram,
    /// Missed L1D, hit L2.
    L2,
    /// Hit L1D (multi-cycle hit latency, or a store-queue forward).
    L1d,
}

impl MemBlame {
    /// The taxonomy leaf this blame maps to.
    pub fn leaf(self) -> CpiLeaf {
        match self {
            MemBlame::Mshr => CpiLeaf::MemMshr,
            MemBlame::Bus => CpiLeaf::MemBus,
            MemBlame::Dram => CpiLeaf::MemDram,
            MemBlame::L2 => CpiLeaf::MemL2,
            MemBlame::L1d => CpiLeaf::MemL1d,
        }
    }

    /// Classifies one data access from its observed facts, in the
    /// priority order documented on the type.
    pub fn classify(l1_hit: bool, l2_hit: bool, mshr_wait: bool, bus_wait: bool) -> MemBlame {
        if mshr_wait {
            MemBlame::Mshr
        } else if bus_wait {
            MemBlame::Bus
        } else if !l2_hit {
            MemBlame::Dram
        } else if !l1_hit {
            MemBlame::L2
        } else {
            MemBlame::L1d
        }
    }
}

/// Per-leaf attributed-cycle counts: one core's (or one run's, after
/// merging) top-down CPI stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpiStack {
    /// One cell per [`CpiLeaf`], indexed by discriminant.
    pub cells: [u64; CPI_LEAVES],
}

impl CpiStack {
    /// A stack from raw cells (cache/artifact decoding).
    pub fn from_cells(cells: [u64; CPI_LEAVES]) -> CpiStack {
        CpiStack { cells }
    }

    /// Attributes one cycle to `leaf`.
    pub fn record(&mut self, leaf: CpiLeaf) {
        self.record_n(leaf, 1);
    }

    /// Attributes `n` cycles of identical blame (used when a quiescent
    /// stretch is skipped in one jump).
    pub fn record_n(&mut self, leaf: CpiLeaf, n: u64) {
        self.cells[leaf.index()] += n;
    }

    /// Cycles attributed to one leaf.
    pub fn get(&self, leaf: CpiLeaf) -> u64 {
        self.cells[leaf.index()]
    }

    /// Total attributed cycles. Conservation means this equals the
    /// owning core's cycle counter.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Whether the stack conserves `cycles` exactly (the checked-mode
    /// invariant: every cycle attributed to exactly one leaf).
    pub fn conserves(&self, cycles: u64) -> bool {
        self.total() == cycles
    }

    /// Merges another stack in (multi-core aggregation).
    pub fn merge(&mut self, other: &CpiStack) {
        for (mine, theirs) in self.cells.iter_mut().zip(other.cells) {
            *mine += theirs;
        }
    }

    /// The cycles attributed since `earlier`, an earlier snapshot of the
    /// same growing stack (a windowed stack).
    pub fn since(&self, earlier: &CpiStack) -> CpiStack {
        let mut window = *self;
        for (mine, before) in window.cells.iter_mut().zip(earlier.cells) {
            *mine -= before;
        }
        window
    }

    /// Cycles attributed to one group (sum of its leaves).
    pub fn group_total(&self, group: CpiGroup) -> u64 {
        CpiLeaf::ALL
            .into_iter()
            .filter(|l| l.group() == group)
            .map(|l| self.get(l))
            .sum()
    }

    /// `(leaf, cycles)` pairs in cell order.
    pub fn leaves(&self) -> impl Iterator<Item = (CpiLeaf, u64)> + '_ {
        CpiLeaf::ALL.into_iter().map(|l| (l, self.get(l)))
    }

    /// Aggregates per-window stacks from sampled simulation into one
    /// stack plus the total cycle count, rejecting any window whose
    /// stack does not conserve its own cycles. Because merging is
    /// cell-wise addition, the aggregate conserves the summed cycles by
    /// construction — per-window conservation is the only thing that
    /// can go wrong, so it is the thing checked.
    pub fn aggregate<'a, I>(windows: I) -> Result<(CpiStack, u64), String>
    where
        I: IntoIterator<Item = (&'a CpiStack, u64)>,
    {
        let mut agg = CpiStack::default();
        let mut cycles = 0u64;
        for (i, (stack, c)) in windows.into_iter().enumerate() {
            if !stack.conserves(c) {
                return Err(format!(
                    "window {i} breaks conservation: {} cycles attributed, {c} simulated",
                    stack.total()
                ));
            }
            agg.merge(stack);
            cycles += c;
        }
        Ok((agg, cycles))
    }

    /// The stack as a JSON object keyed by `group/leaf` path, every
    /// leaf present (zeros included), in cell order.
    pub fn to_value(&self) -> Value {
        let mut obj = Value::obj();
        for (leaf, cycles) in self.leaves() {
            obj = obj.field(&leaf.path(), cycles);
        }
        obj
    }

    /// Parses a stack back from [`CpiStack::to_value`]'s encoding.
    /// Every known leaf must be present with a non-negative integer;
    /// unknown keys are rejected (schema drift must be loud).
    pub fn from_value(v: &Value) -> Result<CpiStack, String> {
        let Value::Obj(fields) = v else {
            return Err("leaves must be a JSON object".to_string());
        };
        let mut stack = CpiStack::default();
        let mut seen = [false; CPI_LEAVES];
        for (key, val) in fields {
            let leaf = CpiLeaf::from_path(key).ok_or_else(|| format!("unknown leaf {key:?}"))?;
            let cycles = val
                .as_i64()
                .filter(|c| *c >= 0)
                .ok_or_else(|| format!("leaf {key:?} is not a non-negative integer"))?;
            if seen[leaf.index()] {
                return Err(format!("leaf {key:?} appears twice"));
            }
            seen[leaf.index()] = true;
            stack.cells[leaf.index()] = cycles as u64;
        }
        if let Some(missing) = CpiLeaf::ALL.into_iter().find(|l| !seen[l.index()]) {
            return Err(format!("missing leaf {:?}", missing.path()));
        }
        Ok(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_preserves_conservation_and_rejects_broken_windows() {
        let mut a = CpiStack::default();
        a.record_n(CpiLeaf::Retire, 70);
        a.record_n(CpiLeaf::MemL1d, 30);
        let mut b = CpiStack::default();
        b.record_n(CpiLeaf::Retire, 50);
        b.record_n(CpiLeaf::MemDram, 25);
        let (agg, cycles) = CpiStack::aggregate([(&a, 100), (&b, 75)]).unwrap();
        assert_eq!(cycles, 175);
        assert!(agg.conserves(cycles));
        assert_eq!(agg.get(CpiLeaf::Retire), 120);
        assert_eq!(agg.get(CpiLeaf::MemL1d), 30);
        assert_eq!(agg.get(CpiLeaf::MemDram), 25);

        // A window claiming more cycles than its stack attributes is
        // refused with the window index in the error.
        let err = CpiStack::aggregate([(&a, 100), (&b, 99)]).unwrap_err();
        assert!(err.contains("window 1"), "{err}");

        let (empty, zero) = CpiStack::aggregate([]).unwrap();
        assert_eq!(zero, 0);
        assert!(empty.conserves(0));
    }

    #[test]
    fn taxonomy_is_complete_and_consistent() {
        assert_eq!(CpiLeaf::ALL.len(), CPI_LEAVES);
        // Indices are exactly 0..16 in declaration order.
        for (i, leaf) in CpiLeaf::ALL.into_iter().enumerate() {
            assert_eq!(leaf.index(), i);
        }
        // Paths are unique and round-trip.
        let mut paths: Vec<String> = CpiLeaf::ALL.iter().map(|l| l.path()).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), CPI_LEAVES);
        for leaf in CpiLeaf::ALL {
            assert_eq!(CpiLeaf::from_path(&leaf.path()), Some(leaf));
        }
        // Every group has at least one leaf and every leaf a group.
        for group in CpiGroup::ALL {
            assert!(CpiLeaf::ALL.iter().any(|l| l.group() == group));
        }
    }

    #[test]
    fn recording_conserves() {
        let mut s = CpiStack::default();
        s.record(CpiLeaf::Retire);
        s.record_n(CpiLeaf::MemDram, 41);
        s.record(CpiLeaf::BadSpecReplay);
        assert_eq!(s.total(), 43);
        assert!(s.conserves(43));
        assert!(!s.conserves(42));
        assert_eq!(s.get(CpiLeaf::MemDram), 41);
        assert_eq!(s.group_total(CpiGroup::BackendMemory), 41);
        assert_eq!(s.group_total(CpiGroup::Retire), 1);
        assert_eq!(s.group_total(CpiGroup::Frontend), 0);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = CpiStack::default();
        a.record_n(CpiLeaf::Retire, 10);
        let mut b = CpiStack::default();
        b.record_n(CpiLeaf::Retire, 5);
        b.record_n(CpiLeaf::MemBus, 2);
        a.merge(&b);
        assert_eq!(a.get(CpiLeaf::Retire), 15);
        assert_eq!(a.get(CpiLeaf::MemBus), 2);
        assert_eq!(a.total(), 17);
    }

    #[test]
    fn mem_blame_priority_is_structural_first() {
        use MemBlame::*;
        assert_eq!(MemBlame::classify(false, false, true, true), Mshr);
        assert_eq!(MemBlame::classify(false, false, false, true), Bus);
        assert_eq!(MemBlame::classify(false, false, false, false), Dram);
        assert_eq!(MemBlame::classify(false, true, false, false), L2);
        assert_eq!(MemBlame::classify(true, true, false, false), L1d);
        assert_eq!(Mshr.leaf(), CpiLeaf::MemMshr);
        assert_eq!(Dram.leaf(), CpiLeaf::MemDram);
    }

    #[test]
    fn json_round_trips_and_rejects_drift() {
        let mut s = CpiStack::default();
        s.record_n(CpiLeaf::Retire, 7);
        s.record_n(CpiLeaf::MemStoreBuffer, 3);
        let v = s.to_value();
        assert_eq!(CpiStack::from_value(&v).expect("round trip"), s);

        // Missing leaf.
        let Value::Obj(mut fields) = v.clone() else {
            unreachable!()
        };
        fields.pop();
        assert!(CpiStack::from_value(&Value::Obj(fields)).is_err());

        // Unknown leaf.
        let bad = v.clone().field("backend-memory/l3", 1u64);
        assert!(CpiStack::from_value(&bad).is_err());

        // Negative count.
        let neg = {
            let Value::Obj(mut fields) = v else {
                unreachable!()
            };
            fields[0].1 = Value::Int(-1);
            Value::Obj(fields)
        };
        assert!(CpiStack::from_value(&neg).is_err());
    }
}
