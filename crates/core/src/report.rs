//! Paper-style aligned text tables, plus wall-clock/throughput
//! accounting for the run engine.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A simple column-aligned table with a title, rendered as monospace
/// text (the shape of the paper's tables).
///
/// # Example
///
/// ```
/// use membw_core::Table;
///
/// let mut t = Table::new("Table X: demo", vec!["Trace".into(), "1KB".into()]);
/// t.row(vec!["compress".into(), "3.03".into()]);
/// let s = t.render();
/// assert!(s.contains("compress"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Self {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Title text.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows, for programmatic inspection.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render to aligned text: title, rule, header, rule, rows.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&rule);
        out.push('\n');
        out.push_str(&line(&self.headers));
        out.push('\n');
        out.push_str(&rule);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Simulated micro-ops retired process-wide, accumulated by the run
/// targets as their jobs finish. Feeds the uops/s column of
/// [`timing_table`].
static UOPS_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// Record `n` simulated micro-ops (called from inside run-engine jobs;
/// the counter is atomic so any merge order yields the same total).
pub fn count_uops(n: u64) {
    UOPS_EXECUTED.fetch_add(n, Ordering::Relaxed);
}

/// Total simulated micro-ops recorded so far.
pub fn uops_executed() -> u64 {
    UOPS_EXECUTED.load(Ordering::Relaxed)
}

/// Wall-clock and throughput accounting for one repro target, printed
/// on **stderr** so experiment output on stdout stays byte-identical
/// across `--jobs` settings.
#[derive(Debug, Clone)]
pub struct TargetTiming {
    /// Target name as passed to `repro`.
    pub target: String,
    /// Wall time of the target, start to finish.
    pub wall: Duration,
    /// Jobs the run engine executed for this target.
    pub jobs: u64,
    /// Summed per-job wall time (exceeds `wall` when jobs overlap).
    pub busy: Duration,
    /// Simulated micro-ops retired during this target.
    pub uops: u64,
}

impl TargetTiming {
    /// Simulated micro-ops per wall-clock second.
    pub fn uops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.uops as f64 / s
        } else {
            0.0
        }
    }

    /// Parallel efficiency on a pool of `threads` job threads: summed
    /// job time over the thread time the pool had, `busy / (wall ×
    /// threads)`. 1.0 means every thread was busy for the whole wall
    /// time; unlike busy over wall, it cannot exceed what the pool can
    /// deliver.
    pub fn parallel_efficiency(&self, threads: usize) -> f64 {
        let capacity = self.wall.as_secs_f64() * threads.max(1) as f64;
        if capacity > 0.0 {
            self.busy.as_secs_f64() / capacity
        } else {
            1.0
        }
    }
}

/// Render per-target timings plus a totals row as a [`Table`].
pub fn timing_table(timings: &[TargetTiming], threads: usize) -> Table {
    let mut t = Table::new(
        format!("Run-engine timing ({threads} job thread(s))"),
        ["Target", "Wall", "Jobs", "Busy", "Efficiency", "Uops/s"]
            .map(String::from)
            .to_vec(),
    );
    let fmt_d = |d: Duration| format!("{:.2}s", d.as_secs_f64());
    let fmt_rate = |r: f64| {
        if r >= 1e6 {
            format!("{:.1}M", r / 1e6)
        } else if r >= 1e3 {
            format!("{:.1}k", r / 1e3)
        } else {
            format!("{r:.0}")
        }
    };
    for x in timings {
        t.row(vec![
            x.target.clone(),
            fmt_d(x.wall),
            x.jobs.to_string(),
            fmt_d(x.busy),
            format!("{:.0}%", 100.0 * x.parallel_efficiency(threads)),
            fmt_rate(x.uops_per_sec()),
        ]);
    }
    let total = TargetTiming {
        target: "TOTAL".to_string(),
        wall: timings.iter().map(|x| x.wall).sum(),
        jobs: timings.iter().map(|x| x.jobs).sum(),
        busy: timings.iter().map(|x| x.busy).sum(),
        uops: timings.iter().map(|x| x.uops).sum(),
    };
    t.row(vec![
        total.target.clone(),
        fmt_d(total.wall),
        total.jobs.to_string(),
        fmt_d(total.busy),
        format!("{:.0}%", 100.0 * total.parallel_efficiency(threads)),
        fmt_rate(total.uops_per_sec()),
    ]);
    t
}

/// Render the failed jobs of a campaign as a [`Table`] (printed on
/// **stderr** by `repro`, so healthy stdout stays byte-identical).
pub fn failure_table(target: &str, failures: &[crate::error::FailedJob]) -> Table {
    let mut t = Table::new(
        format!("FAILED jobs in target '{target}'"),
        ["Job", "Experiment", "Workload/cell", "Attempts", "Error"]
            .map(String::from)
            .to_vec(),
    );
    for f in failures {
        t.row(vec![
            format!("{}:{}", f.label, f.index),
            f.label.clone(),
            f.job.clone(),
            f.attempts.to_string(),
            f.error.clone(),
        ]);
    }
    t
}

/// Format a byte count the way the paper's column heads do (1KB … 2MB).
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}MB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        // Header and data lines are equal width.
        assert_eq!(lines[2].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(64), "64B");
        assert_eq!(size_label(1024), "1KB");
        assert_eq!(size_label(64 * 1024), "64KB");
        assert_eq!(size_label(2 * 1024 * 1024), "2MB");
    }

    #[test]
    fn efficiency_is_busy_over_pool_thread_time() {
        let x = TargetTiming {
            target: "fig3".into(),
            wall: Duration::from_secs(2),
            jobs: 84,
            busy: Duration::from_millis(7400),
            uops: 0,
        };
        // 7.4 s busy in 2 s of wall on 4 threads: 92.5%, not "3.7x".
        assert!((x.parallel_efficiency(4) - 0.925).abs() < 1e-12);
        assert!((x.parallel_efficiency(1) - 3.7).abs() < 1e-12);
        let table = timing_table(&[x], 4).render();
        assert!(table.contains("Efficiency"), "{table}");
        assert!(table.contains("92%") || table.contains("93%"), "{table}");
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("T", vec!["a".into()]);
        t.row(vec!["1".into()]);
        assert_eq!(t.title(), "T");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.rows()[0][0], "1");
    }
}
