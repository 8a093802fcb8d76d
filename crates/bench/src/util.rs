//! Shared harness helpers: statistics, tables, output files.

use std::path::PathBuf;

/// Geometric mean of positive samples.
///
/// # Panics
/// Panics on an empty slice or non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean needs positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// An ASCII bar scaled so that `max` spans `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(n.clamp(if value > 0.0 { 1 } else { 0 }, width))
}

/// The directory figure outputs are written to (`results/`, created on
/// demand next to the workspace root or the current directory).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("TEEPERF_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Write a text artifact into the results directory, returning its path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Render a uniform table: header row + rows of cells, right-aligning any
/// cell that parses as a number.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut all: Vec<Vec<String>> = Vec::with_capacity(rows.len() + 1);
    all.push(header.iter().map(|s| s.to_string()).collect());
    all.extend(rows.iter().cloned());
    let cols = header.len();
    let widths: Vec<usize> = (0..cols)
        .map(|c| {
            all.iter()
                .map(|r| r.get(c).map_or(0, String::len))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for (i, row) in all.iter().enumerate() {
        for (c, w) in widths.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            let cell = row.get(c).map(String::as_str).unwrap_or("");
            let numeric = cell
                .trim_start_matches(['-', '+'])
                .chars()
                .next()
                .is_some_and(|ch| ch.is_ascii_digit());
            if numeric && i > 0 {
                out.push_str(&format!("{cell:>w$}"));
            } else {
                out.push_str(&format!("{cell:<w$}"));
            }
        }
        out.push('\n');
        if i == 0 {
            for (c, w) in widths.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).len(), 5);
        assert_eq!(bar(10.0, 10.0, 10).len(), 10);
        assert_eq!(bar(0.0, 10.0, 10).len(), 0);
        assert_eq!(bar(0.01, 10.0, 10).len(), 1, "nonzero values stay visible");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1.5".into()],
                vec!["b".into(), "12.25".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("----"));
        assert!(lines[2].contains("alpha"));
    }

    #[test]
    fn artifacts_round_trip() {
        std::env::set_var(
            "TEEPERF_RESULTS",
            std::env::temp_dir().join("teeperf-results-test"),
        );
        let p = write_artifact("probe.txt", "hello");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        std::env::remove_var("TEEPERF_RESULTS");
    }
}
