//! Timing and table output for the experiments.

use std::time::Instant;

/// Wall-clock one closure, in seconds — the unit a [`Row`] stores.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// What one point measured: `(column name, value)` pairs in the paper's
/// column order — seconds, or counts in the instrumentation demos.
pub type Times = Vec<(&'static str, f64)>;

/// What the incremental arm of one point reports about its own `apply`
/// beside the time it took: `(counter name, count)` pairs — `IncRpq`'s
/// marking counters, `IncScc`'s certificate counters, `IncRules`' repair
/// counters. Empty for the classes that keep none.
pub type Counters = Vec<(&'static str, u64)>;

/// One experiment data point: an x-value (e.g. |ΔG| as a percentage), the
/// measured time per algorithm, and the incremental arm's counters.
#[derive(Debug, Clone)]
pub struct Row {
    /// The swept parameter, formatted (e.g. "10%", "(3,2)", "0.4").
    pub x: String,
    /// The point's columns.
    pub times: Times,
    /// The point's maintenance counters (a second table when present).
    pub counters: Counters,
}

/// A full experiment series: a title (figure id) and its rows.
#[derive(Debug, Clone)]
pub struct Series {
    /// e.g. "Fig 8(a) Varying ΔG, KWS (DBpedia-like)".
    pub title: String,
    /// The x-axis label.
    pub x_label: &'static str,
    /// Unit of the measured values ("s" for timings, "ops"/"count" for the
    /// instrumentation demos).
    pub unit: &'static str,
    /// The measured rows.
    pub rows: Vec<Row>,
}

impl Series {
    /// Render the series as an aligned text table (also valid Markdown).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        if self.rows.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let algos: Vec<&str> = self.rows[0].times.iter().map(|(n, _)| *n).collect();
        out.push_str(&format!("| {} |", self.x_label));
        for a in &algos {
            out.push_str(&format!(" {a} ({}) |", self.unit));
        }
        out.push('\n');
        out.push_str(&format!("|{}", "---|".repeat(algos.len() + 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("| {} |", r.x));
            for (_, t) in &r.times {
                if self.unit == "s" {
                    out.push_str(&format!(" {t:.4} |"));
                } else {
                    out.push_str(&format!(" {t:.0} |"));
                }
            }
            out.push('\n');
        }
        // The incremental arm's own account of each point, as a second table.
        let counters: Vec<&str> = self.rows[0].counters.iter().map(|(n, _)| *n).collect();
        if !counters.is_empty() {
            out.push_str(&format!("\n| {} |", self.x_label));
            for c in &counters {
                out.push_str(&format!(" {c} |"));
            }
            out.push_str(&format!("\n|{}\n", "---|".repeat(counters.len() + 1)));
            for r in &self.rows {
                out.push_str(&format!("| {} |", r.x));
                for (_, c) in &r.counters {
                    out.push_str(&format!(" {c} |"));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Format a fraction as the paper's percentage ticks.
pub fn pct(f: f64) -> String {
    format!("{}%", (f * 100.0).round() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (v, d) = time(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(d > 0.0);
    }

    #[test]
    fn series_renders_markdown_table() {
        let s = Series {
            title: "Fig X".into(),
            x_label: "|ΔG|",
            unit: "s",
            rows: vec![Row {
                x: "5%".into(),
                times: vec![("Inc", 0.5), ("Batch", 2.0)],
                counters: vec![("carved", 3), ("fallbacks", 0)],
            }],
        };
        let r = s.render();
        assert!(r.contains("| |ΔG| | Inc (s) | Batch (s) |"));
        assert!(r.contains("| 5% | 0.5000 | 2.0000 |"));
        assert!(r.contains("| |ΔG| | carved | fallbacks |"));
        assert!(r.contains("| 5% | 3 | 0 |"));
    }

    #[test]
    fn pct_rounds() {
        assert_eq!(pct(0.05), "5%");
        assert_eq!(pct(0.4), "40%");
    }
}
