//! Tabular output: aligned console tables plus CSV artifacts.

use std::io::Write;
use std::path::{Path, PathBuf};

use clsm_util::error::Result;

/// A simple column-aligned table keyed by (row, column).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<Option<f64>>)>,
}

impl Table {
    /// Creates a table: `columns` are the x-axis points.
    pub fn new(title: &str, x_label: &str, columns: Vec<String>) -> Table {
        Table {
            title: title.to_string(),
            x_label: x_label.to_string(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Adds an empty series row.
    pub fn add_row(&mut self, name: &str) {
        self.rows
            .push((name.to_string(), vec![None; self.columns.len()]));
    }

    /// Sets the cell of series `row` at column index `col`.
    pub fn set(&mut self, row: &str, col: usize, value: f64) {
        if let Some((_, cells)) = self.rows.iter_mut().find(|(n, _)| n == row) {
            cells[col] = Some(value);
        } else {
            let mut cells = vec![None; self.columns.len()];
            cells[col] = Some(value);
            self.rows.push((row.to_string(), cells));
        }
    }

    /// Renders the aligned console table.
    pub fn render(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain([self.x_label.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self
            .columns
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(8)
            .max(8)
            + 2;
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!("{:<name_w$}", self.x_label));
        for c in &self.columns {
            out.push_str(&format!("{c:>col_w$}"));
        }
        out.push('\n');
        for (name, cells) in &self.rows {
            out.push_str(&format!("{name:<name_w$}"));
            for cell in cells {
                match cell {
                    Some(v) => out.push_str(&format!("{:>col_w$}", format_value(*v))),
                    None => out.push_str(&format!("{:>col_w$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("\n{}", self.render());
    }

    /// Writes the table as CSV into `dir/<slug>.csv`.
    pub fn to_csv(&self, dir: &Path) -> Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let mut slug = String::new();
        for c in self.title.chars() {
            if c.is_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('_') {
                slug.push('_');
            }
        }
        let path = dir.join(format!("{}.csv", slug.trim_matches('_')));
        let mut f = std::fs::File::create(&path)?;
        write!(f, "{}", self.x_label)?;
        for c in &self.columns {
            write!(f, ",{c}")?;
        }
        writeln!(f)?;
        for (name, cells) in &self.rows {
            write!(f, "{name}")?;
            for cell in cells {
                match cell {
                    Some(v) => write!(f, ",{v}")?,
                    None => write!(f, ",")?,
                }
            }
            writeln!(f)?;
        }
        Ok(path)
    }
}

fn format_value(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Writes a metrics snapshot as a JSON artifact:
/// `dir/<name>.metrics.json`.
pub fn write_metrics_json(
    dir: &Path,
    name: &str,
    snapshot: &clsm_util::metrics::MetricsSnapshot,
) -> Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.metrics.json"));
    std::fs::write(&path, snapshot.to_json())?;
    Ok(path)
}

/// Renders the write-path attribution section for a metrics snapshot,
/// or `None` when the snapshot carries no write-path data — baseline
/// systems, or a store that never wrote.
pub fn render_write_path(snapshot: &clsm_util::metrics::MetricsSnapshot) -> Option<String> {
    let report = clsm::WritePathReport::from_snapshot(snapshot);
    report.has_samples().then(|| report.render())
}

/// Writes raw `(x, series, value)` triples as CSV.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) -> Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", "threads", vec!["1".into(), "2".into(), "4".into()]);
        t.set("cLSM", 0, 41.5);
        t.set("cLSM", 2, 150.0);
        t.set("LevelDB", 1, 9000.0);
        let s = t.render();
        assert!(s.contains("# Demo"));
        assert!(s.contains("cLSM"));
        assert!(s.contains("41.5"));
        assert!(s.contains("9000"));
        assert!(s.contains('-')); // missing cells
                                  // All data lines have the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bench-csv-{}", std::process::id()));
        let mut t = Table::new("Fig 5a Write", "threads", vec!["1".into(), "2".into()]);
        t.set("cLSM", 0, 1.0);
        t.set("cLSM", 1, 2.0);
        let path = t.to_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("threads,1,2"));
        assert!(content.contains("cLSM,1,2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
