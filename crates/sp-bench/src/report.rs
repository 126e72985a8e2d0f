//! Markdown rendering of experiment results.

use crate::runner::QueryGroupResult;

/// Renders a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in header {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Formats a runtime in seconds with adaptive precision.
pub fn fmt_seconds(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a ratio such as a speedup factor.
pub fn fmt_ratio(r: f64) -> String {
    if !r.is_finite() {
        "∞".to_owned()
    } else if r >= 100.0 {
        format!("{r:.0}x")
    } else {
        format!("{r:.1}x")
    }
}

/// Renders the Figure-9-style table: one row per query group, one column per
/// strategy, plus the speedup of the best lazy strategy over the baseline
/// column (the last strategy listed is treated as the baseline).
pub fn render_groups(groups: &[QueryGroupResult], strategies: &[&str]) -> String {
    let mut header: Vec<&str> = vec!["group", "queries", "edges"];
    header.extend(strategies);
    header.push("best-lazy vs last");
    let mut rows = Vec::new();
    for g in groups {
        let mut row = vec![g.group.clone(), g.queries.to_string(), g.edges.to_string()];
        for s in strategies {
            row.push(
                g.mean_seconds(s)
                    .map(fmt_seconds)
                    .unwrap_or_else(|| "-".to_owned()),
            );
        }
        let best_lazy = ["SingleLazy", "PathLazy"]
            .iter()
            .filter_map(|s| g.mean_seconds(s))
            .fold(f64::INFINITY, f64::min);
        let baseline = strategies
            .last()
            .and_then(|s| g.mean_seconds(s))
            .unwrap_or(f64::NAN);
        row.push(
            if best_lazy.is_finite() && baseline.is_finite() && best_lazy > 0.0 {
                fmt_ratio(baseline / best_lazy)
            } else {
                "-".to_owned()
            },
        );
        rows.push(row);
    }
    markdown_table(&header, &rows)
}

/// Renders a log-scale histogram row for distribution figures: bucket counts
/// as text so the skew is visible in a terminal.
pub fn ascii_histogram(values: &[f64], buckets: usize) -> String {
    if values.is_empty() || buckets == 0 {
        return String::from("(no data)");
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = ((max - min) / buckets as f64).max(f64::EPSILON);
    let mut counts = vec![0usize; buckets];
    for &v in values {
        let b = (((v - min) / width) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, c) in counts.iter().enumerate() {
        let lo = min + i as f64 * width;
        let bar = "#".repeat((c * 40 / peak).max(usize::from(*c > 0)));
        out.push_str(&format!("{lo:>10.2} | {bar} {c}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("| a |"));
        assert!(lines[1].contains("---"));
        assert!(lines[2].contains("| 1 |"));
    }

    #[test]
    fn seconds_formatting() {
        assert!(fmt_seconds(0.0000005).contains("µs"));
        assert!(fmt_seconds(0.005).contains("ms"));
        assert!(fmt_seconds(2.5).contains("s"));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(2.0), "2.0x");
        assert_eq!(fmt_ratio(250.0), "250x");
        assert_eq!(fmt_ratio(f64::INFINITY), "∞");
    }

    #[test]
    fn group_rendering_includes_speedup_column() {
        let g = QueryGroupResult {
            group: "path-3".into(),
            queries: 3,
            edges: 1000,
            per_strategy: vec![("SingleLazy".into(), 0.01, 5.0), ("VF2".into(), 1.0, 5.0)],
        };
        let table = render_groups(&[g], &["SingleLazy", "VF2"]);
        assert!(table.contains("path-3"));
        assert!(table.contains("100x"));
    }

    #[test]
    fn histogram_renders_buckets() {
        let h = ascii_histogram(&[-3.0, -3.0, -1.0, 0.0], 4);
        assert_eq!(h.lines().count(), 4);
        assert!(h.contains('#'));
        assert_eq!(ascii_histogram(&[], 3), "(no data)");
    }
}
