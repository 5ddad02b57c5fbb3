//! Plain-text rendering of tables and curve series, plus TSV export.
//!
//! Every experiment renders the same rows/series the paper reports, so
//! `revtr-cli reproduce` prints a textual version of each table and figure
//! (and `--out DIR` saves each as TSV).

use std::fmt::Write as _;
use std::path::Path;

/// A fixed-width text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are any Display).
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for i in 0..cols {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:<width$}", cells[i], width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
        );
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// Render as TSV (headers + rows).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join("\t"));
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.join("\t"));
        }
        out
    }

    /// Write the TSV form under `dir/<name>.tsv` (creates the directory).
    pub fn save_tsv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.tsv")), self.to_tsv())
    }
}

/// A named curve (one line of a figure).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// A figure: several series over a shared axis.
#[derive(Clone, Debug)]
pub struct Figure {
    title: String,
    x_label: String,
    y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Figure {
        Figure {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Add one labelled curve.
    pub fn series(&mut self, label: &str, points: Vec<(f64, f64)>) -> &mut Figure {
        self.series.push(Series {
            label: label.to_string(),
            points,
        });
        self
    }

    /// Render as a text block: one line per (label, point list), points
    /// shown as `x:y` with 3 decimals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(out, "x: {}   y: {}", self.x_label, self.y_label);
        for s in &self.series {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(x, y)| format!("{x:.3}:{y:.3}"))
                .collect();
            let _ = writeln!(out, "  {:<32} {}", s.label, pts.join(" "));
        }
        out
    }

    /// TSV form: `x<TAB>label1<TAB>label2…`, one row per x of the first
    /// series (series are expected to share xs; missing values are blank).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let mut header = vec!["x".to_string()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let _ = writeln!(out, "{}", header.join("\t"));
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let mut row = vec![format!("{x}")];
            for s in &self.series {
                row.push(
                    s.points
                        .get(i)
                        .map(|p| format!("{}", p.1))
                        .unwrap_or_default(),
                );
            }
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["alpha", "1"]).row(&["b", "22"]);
        assert_eq!(
            t.render(),
            "== Demo ==\nname   value\n------------\nalpha  1    \nb      22   \n"
        );
        assert_eq!(t.len(), 2);
        // The TSV export has no golden of its own: every row is pinned here.
        assert_eq!(t.to_tsv(), "name\tvalue\nalpha\t1\nb\t22\n");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        Table::new("x", &["a", "b"]).row(&["only-one"]);
    }

    #[test]
    fn figure_renders_series() {
        let mut f = Figure::new("Fig", "hops", "ccdf");
        f.series("one", vec![(1.0, 0.5), (2.0, 0.25), (3.0, 0.125)]);
        f.series("two", vec![(1.0, 0.9), (2.0, 0.8)]);
        let s = f.render();
        assert!(s.contains("one"));
        assert!(s.contains("1.000:0.500"));
        // One row per x of the first series; the shorter series' missing
        // cell reads blank.
        assert_eq!(
            f.to_tsv(),
            "x\tone\ttwo\n1\t0.5\t0.9\n2\t0.25\t0.8\n3\t0.125\t\n"
        );
    }
}
