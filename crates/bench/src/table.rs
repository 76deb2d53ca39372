//! Plain-text tables for experiment output.
//!
//! Every experiment prints one or more [`Table`]s; EXPERIMENTS.md records
//! their content. Alignment is computed per column so the output is
//! readable in a terminal and diffable across runs (all experiments are
//! seeded and deterministic).

use std::fmt;

/// A titled table with a header row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(title: &str, headers: I) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.headers.len(),
            "row of {} cells exceeds {} headers",
            row.len(),
            self.headers.len()
        );
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with a sensible fixed precision for tables.
#[must_use]
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", ["a", "long-header", "b"]);
        t.row(["1", "2", "3"]);
        t.row(["wide-cell", "x", ""]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| a         | long-header | b |"));
        assert!(s.lines().count() == 4 + 1); // title + header + sep + 2 rows
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new("pad", ["x", "y"]);
        t.row(["only-x"]);
        assert!(t.to_string().contains("only-x"));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_long_rows() {
        let mut t = Table::new("bad", ["x"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1234.7), "1235");
        assert_eq!(fnum(2.3456), "2.35");
        assert_eq!(fnum(0.000123), "1.230e-4");
    }
}
