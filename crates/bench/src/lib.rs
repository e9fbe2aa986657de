//! The paper's non-figure experiments and timing benches.
//!
//! Every simulating table and figure of the evaluation is a registered
//! figure in [`s64v_harness::figures`] and runs through the campaign
//! engine: `campaign --figures <name>` (or `all`). This crate holds only
//! what is not a campaign figure — the binaries `table1` (Table 1),
//! `workloads_report` (the workload presets), `pipeline_dump` (a
//! per-instruction timeline) and `all_experiments` (all of the above plus
//! every figure in one merged campaign) — and the `sim_speed` and
//! `components` benches.

pub use s64v_harness::{banner, emit};
