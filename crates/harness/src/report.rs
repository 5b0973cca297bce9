//! Plain-text table formatting for experiment binaries.

use std::fmt;

/// A simple aligned-column table.
///
/// The experiment binaries print their results as tables whose rows mirror
/// the series of the paper's figures, so EXPERIMENTS.md can quote them
/// directly.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Format a float with 4 decimal places (the precision the figures use).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a byte count with a thousands separator.
pub fn bytes(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["N", "general", "tree"]);
        t.row(vec!["1", "1.0000", "0.5000"]);
        t.row(vec!["64", "0.5078", "0.1745"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("general"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].trim_start().starts_with('1'));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only"]);
        assert!(t.to_string().contains("only"));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f4(0.5), "0.5000");
        assert_eq!(bytes(1234567), "1,234,567");
        assert_eq!(bytes(17), "17");
        assert_eq!(bytes(1000), "1,000");
    }
}
