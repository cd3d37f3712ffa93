//! Aligned text tables for the experiment binaries' output.

/// A simple right-padded text table with a header row.
///
/// ```
/// use analysis::TextTable;
///
/// let mut t = TextTable::new(&["Tool", "Overhead (%)"]);
/// t.row_owned(vec!["K-LEB".into(), "0.68".into()]);
/// t.row_owned(vec!["perf stat".into(), "6.01".into()]);
/// let s = t.render();
/// assert!(s.contains("K-LEB"));
/// assert!(s.lines().count() >= 4); // header, rule, 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns, a header underline, and two spaces of
    /// separation.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                let cell = &cells[i];
                line.push_str(cell);
                if i + 1 < cols {
                    let pad = widths[i] - cell.chars().count() + 2;
                    line.extend(std::iter::repeat_n(' ', pad));
                }
            }
            line
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat_n('-', rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["A", "Long header"]);
        t.row_owned(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("A"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        TextTable::new(&["a", "b"]).row_owned(vec!["only one".into()]);
    }
}
