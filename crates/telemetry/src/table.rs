//! Plain-text table rendering for benchmark output.
//!
//! Every figure/table harness in `pm-bench` prints its series through this
//! module so that `bench_output.txt` contains consistently formatted,
//! paper-style rows.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use pm_telemetry::Table;
///
/// let mut t = Table::new(vec!["freq (GHz)", "vanilla", "packetmill"]);
/// t.row(vec!["1.2".into(), "33.9".into(), "37.0".into()]);
/// t.row(vec!["3.0".into(), "74.4".into(), "88.9".into()]);
/// let text = t.to_string();
/// assert!(text.contains("freq (GHz)"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != column count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Appends a row of formatted floats with `prec` decimals, prefixed by a label.
    pub fn row_f64(&mut self, label: impl Into<String>, values: &[f64], prec: usize) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.prec$}")));
        self.row(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (i, c) in cells.iter().enumerate() {
                if !first {
                    write!(f, "  ")?;
                }
                first = false;
                write!(f, "{c:>width$}", width = w[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            line(f, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["123456".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn row_f64_formats() {
        let mut t = Table::new(vec!["label", "v1", "v2"]);
        t.row_f64("r", &[1.23456, 2.0], 2);
        assert!(t.to_string().contains("r  1.23  2.00"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = Table::new(vec!["only"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = Table::new(Vec::<String>::new());
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["c"]);
        assert!(t.is_empty());
        t.row(vec!["v".into()]);
        assert_eq!(t.len(), 1);
    }
}
