//! Report builders shared by the figure-harness binaries.

use crate::experiment::SuiteResult;
use s64v_stats::ratio::relative_change_percent;
use s64v_stats::Table;

/// Builds the classic two-design-point IPC-ratio table used by Figures 8,
/// 9, 11 and 18: one row per workload, the alternative expressed as a
/// percentage of the base.
pub fn ipc_ratio_table(
    base_name: &str,
    alt_name: &str,
    rows: &[(SuiteResult, SuiteResult)],
) -> Table {
    let mut t = Table::new(vec![
        "workload".to_string(),
        format!("{base_name} IPC"),
        format!("{alt_name} IPC"),
        format!("{alt_name}/{base_name} %"),
        "delta %".to_string(),
    ]);
    for (base, alt) in rows {
        let ratio = if base.ipc() > 0.0 {
            alt.ipc() / base.ipc() * 100.0
        } else {
            0.0
        };
        t.row(vec![
            base.label.clone(),
            format!("{:.3}", base.ipc()),
            format!("{:.3}", alt.ipc()),
            format!("{ratio:.1}"),
            format!("{:+.1}", relative_change_percent(alt.ipc(), base.ipc())),
        ]);
    }
    t
}

/// Builds a miss-ratio comparison table (Figures 10, 12, 13, 15) from a
/// per-workload metric extractor.
pub fn ratio_table(
    metric_name: &str,
    series: &[(&str, &[SuiteResult])],
    metric: impl Fn(&SuiteResult) -> f64,
) -> Table {
    assert!(!series.is_empty(), "need at least one series");
    let mut headers = vec!["workload".to_string()];
    headers.extend(
        series
            .iter()
            .map(|(name, _)| format!("{name} {metric_name}")),
    );
    let mut t = Table::new(headers);
    let n = series[0].1.len();
    assert!(
        series.iter().all(|(_, s)| s.len() == n),
        "all series must cover the same workloads"
    );
    for i in 0..n {
        let mut row = vec![series[0].1[i].label.clone()];
        row.extend(series.iter().map(|(_, s)| format!("{:.4}", metric(&s[i]))));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_suite_warm;
    use crate::system::SystemConfig;
    use s64v_workloads::SuiteKind;

    #[test]
    fn tables_render() {
        let base = run_suite_warm(
            &SystemConfig::sparc64_v(),
            SuiteKind::SpecFp95,
            1_000,
            1_000,
            1,
        );
        let alt = base.clone();
        let t = ipc_ratio_table("base", "alt", &[(base.clone(), alt)]);
        let text = t.to_string();
        assert!(text.contains("SPECfp95"));
        assert!(text.contains("100.0"));

        let series_a = vec![base.clone()];
        let series_b = vec![base];
        let t = ratio_table("miss%", &[("big", &series_a), ("small", &series_b)], |s| {
            s.l1d_miss().percent()
        });
        assert_eq!(t.len(), 1);
    }
}
