//! Output checks: per-point digests against the committed expectations
//! (seed 42 only), and invariants every point satisfies at any seed.
//!
//! An expectations file lists the workload's points in campaign order:
//!
//! ```text
//! point <TAB> index <TAB> label <TAB> ok <TAB> cycles <TAB> committed <TAB> digest
//! point <TAB> index <TAB> label <TAB> failed
//! render <TAB> figure <TAB> ok|failed
//! ```
//!
//! `digest` covers every [`PointMetrics`] field, so a change that only
//! makes the simulator faster leaves every line identical.

use s64v_harness::{PointMetrics, SimPoint, WorkUnit};
use std::fmt::Write;

/// The seed the committed expectations were recorded at.
pub const EXPECTED_SEED: u64 = 42;

/// One point's recorded outcome: `(cycles, committed, digest)`, or
/// `None` for a point that is expected to fail.
pub type Outcome = Option<(u64, u64, u64)>;

/// A parsed expectations file.
#[derive(Debug, Default)]
pub struct Expectations {
    /// `(label, outcome)` per point, in campaign order.
    pub points: Vec<(String, Outcome)>,
    /// `(figure, rendered)` per figure.
    pub renders: Vec<(String, bool)>,
}

/// Digest of every field of `m`. The destructuring is exhaustive on
/// purpose: a new `PointMetrics` field fails to compile here until it
/// is folded into the digest.
pub fn digest(m: &PointMetrics) -> u64 {
    let PointMetrics {
        cycles,
        committed,
        l1i,
        l1d,
        l2_all,
        l2_demand,
        mispredict,
        prefetches,
        move_outs,
        bus_busy_cycles,
        bus_transactions,
        mean_load_latency,
        stalls,
        cpi,
        reference_cycles,
        same_work,
    } = m;
    let mut words = vec![
        *cycles,
        *committed,
        l1i.0,
        l1i.1,
        l1d.0,
        l1d.1,
        l2_all.0,
        l2_all.1,
        l2_demand.0,
        l2_demand.1,
        mispredict.0,
        mispredict.1,
        *prefetches,
        *move_outs,
        *bus_busy_cycles,
        *bus_transactions,
        mean_load_latency.to_bits(),
    ];
    words.extend(stalls);
    words.extend(cpi);
    words.push(*reference_cycles);
    words.push(u64::from(*same_work));
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    crate::sys::fnv1a(&bytes)
}

/// The recorded outcome of one point's result.
pub fn outcome(m: Option<&PointMetrics>) -> Outcome {
    m.map(|m| (m.cycles, m.committed, digest(m)))
}

/// Parses an expectations file; malformed lines are an error.
pub fn parse(text: &str) -> Result<Expectations, String> {
    let mut e = Expectations::default();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("malformed expectations line: {line}");
        match f.as_slice() {
            ["point", _, label, "failed"] => e.points.push((label.to_string(), None)),
            ["point", _, label, "ok", c, k, d] => {
                let c = c.parse().map_err(|_| bad())?;
                let k = k.parse().map_err(|_| bad())?;
                let d = u64::from_str_radix(d, 16).map_err(|_| bad())?;
                e.points.push((label.to_string(), Some((c, k, d))));
            }
            ["render", name, v @ ("ok" | "failed")] => {
                e.renders.push((name.to_string(), *v == "ok"))
            }
            _ => return Err(bad()),
        }
    }
    Ok(e)
}

/// Formats an expectations file for `points` and their results.
pub fn format(
    points: &[SimPoint],
    results: &[Option<PointMetrics>],
    renders: &[(String, bool)],
) -> String {
    let mut s =
        String::from("# Expected per-point outcomes at seed 42 (written by `--write-expected`).\n");
    for (i, (p, r)) in points.iter().zip(results).enumerate() {
        match outcome(r.as_ref()) {
            Some((c, k, d)) => {
                let _ = writeln!(s, "point\t{i}\t{}\tok\t{c}\t{k}\t{d:016x}", p.label());
            }
            None => {
                let _ = writeln!(s, "point\t{i}\t{}\tfailed", p.label());
            }
        }
    }
    for (name, ok) in renders {
        let _ = writeln!(s, "render\t{name}\t{}", if *ok { "ok" } else { "failed" });
    }
    s
}

/// Compares a pass against the expectations. Returns one flag per point
/// (`true` = mismatch) and a description of every difference.
pub fn compare(
    exp: &Expectations,
    points: &[SimPoint],
    results: &[Option<PointMetrics>],
    renders: &[(String, bool)],
) -> (Vec<bool>, Vec<String>) {
    let mut flags = vec![false; points.len()];
    let mut notes = Vec::new();
    if exp.points.len() != points.len() {
        notes.push(format!(
            "expected {} points, the campaign has {}",
            exp.points.len(),
            points.len()
        ));
        return (vec![true; points.len()], notes);
    }
    for (i, ((p, r), (label, want))) in points.iter().zip(results).zip(&exp.points).enumerate() {
        let got = outcome(r.as_ref());
        if p.label() != *label || got != *want {
            flags[i] = true;
            notes.push(format!(
                "point {i} {}: expected {}, got {}",
                p.label(),
                describe(label, *want),
                describe(&p.label(), got)
            ));
        }
    }
    if exp.renders != renders {
        notes.push(format!(
            "figure renders: expected {:?}, got {renders:?}",
            exp.renders
        ));
    }
    (flags, notes)
}

fn describe(label: &str, o: Outcome) -> String {
    match o {
        Some((c, k, d)) => format!("{label} ok cycles={c} committed={k} digest={d:016x}"),
        None => format!("{label} failed"),
    }
}

/// Invariants of a successful point that hold at every seed: each timed
/// record commits exactly once, and a uniprocessor point's CPI stack
/// accounts for every simulated cycle.
pub fn invariant(p: &SimPoint, m: &PointMetrics) -> Result<(), String> {
    let (want_committed, conserve) = match p.work {
        WorkUnit::Program { .. } => (Some(p.records as u64), true),
        WorkUnit::SampledWindow { len, .. } => (Some(len as u64), true),
        WorkUnit::SmpTpcc => (Some((p.records * p.config.cpus) as u64), false),
        WorkUnit::Verify { .. } => {
            return if m.same_work {
                Ok(())
            } else {
                Err(format!(
                    "{}: model and reference did different work",
                    p.label()
                ))
            };
        }
    };
    if let Some(want) = want_committed {
        if m.committed != want {
            return Err(format!(
                "{}: committed {} of {want} timed records",
                p.label(),
                m.committed
            ));
        }
    }
    if conserve && m.cpi_core_cycles() != m.cycles {
        return Err(format!(
            "{}: CPI stack sums to {} cycles, the run took {}",
            p.label(),
            m.cpi_core_cycles(),
            m.cycles
        ));
    }
    Ok(())
}
