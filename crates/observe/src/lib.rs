//! Unified simulation observability for the SPARC64 V model.
//!
//! The model crates (`s64v-cpu`, `s64v-mem`) answer *what happened* with
//! end-of-run counters; this crate is about *when and why*. It defines:
//!
//! - the structured cycle-level event taxonomy ([`ObsEvent`]) and the
//!   [`Probe`] sink trait the model components emit into — pure
//!   observers, so attaching one cannot change simulation results;
//! - the per-instruction stage record ([`InstrTimeline`]) shared by the
//!   core's pipeline trace and the exporters;
//! - interval metrics ([`IntervalSample`]): windowed IPC, occupancy, bus
//!   utilization and windowed top-down CPI stacks, serialized as JSONL;
//! - exporters: a Chrome/Perfetto trace-event JSON builder
//!   ([`perfetto_json`]) and a Konata-style ASCII pipeline-diagram
//!   renderer ([`render_pipeline`]);
//! - a dependency-free JSON value model ([`json::Value`]) used by the
//!   exporters and by artifact validation (this workspace deliberately
//!   has no serde).
//!
//! The crate depends only on `s64v-isa`, so exporters and tools can use
//! it without pulling in the whole model. The wiring — which component
//! emits which event, and how observation composes with the engine's
//! result cache — lives in `s64v-core::observe` and `s64v-harness`.

pub mod cpi;
pub mod diagram;
pub mod event;
pub mod folded;
pub mod interval;
pub mod json;
pub mod perfetto;
pub mod stage;

pub use cpi::{CpiGroup, CpiLeaf, CpiStack, MemBlame, CPI_LEAVES};
pub use diagram::render_pipeline;
pub use event::{BusId, CacheLevel, CohAction, EventLog, ObsEvent, Probe};
pub use folded::{folded_line, folded_stack};
pub use interval::{to_jsonl, CpuInterval, IntervalSample};
pub use perfetto::{perfetto_json, perfetto_trace};
pub use stage::InstrTimeline;

/// Everything one observed run produced, ready for export.
///
/// Assembled by `s64v-core::observe::Observer::collect` after a run:
/// the merged event stream (all per-component sinks, stable-sorted by
/// cycle), the interval time series, and each core's recorded
/// instruction timelines.
#[derive(Debug, Clone, Default)]
pub struct RunObservation {
    /// Merged structured events, sorted by cycle (ties keep per-source
    /// emission order, so the stream is deterministic).
    pub events: Vec<ObsEvent>,
    /// Interval samples in time order.
    pub intervals: Vec<IntervalSample>,
    /// Per-core recorded instruction timelines (index = CPU id).
    pub timelines: Vec<Vec<InstrTimeline>>,
}

impl RunObservation {
    /// Whether the run recorded anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.intervals.is_empty()
            && self.timelines.iter().all(Vec::is_empty)
    }
}
