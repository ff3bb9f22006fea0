//! CSV/TSV parsing with header detection and column statistics.
//!
//! The tabular extractor (§4.2) "processes data in common row-column
//! formats ... that may contain a header of column labels. Metadata can be
//! derived from the header, rows, or columns. Aggregate column-level
//! metadata (e.g., mean and maximum) often provide useful insights."
//!
//! The parser handles quoted fields, delimiter inference (`,` vs `\t` vs
//! `;`), ragged-row detection, and per-column typing (numeric vs text vs
//! empty) — the machinery the null-value extractor reuses.
//!
//! Cost contract: a [`Table`] borrows from the text it was parsed from.
//! Cells are slices of the input held in one flat row-major vector; a
//! field is copied only when its line contains a `"` (unquoting may
//! rewrite it), so allocation follows files and quoted lines, not rows and
//! cells. [`parse`] returns on the first offending row (a first row with
//! fewer than two fields, or a later row of another width) without reading
//! the rest, which makes it a cheap "is this prose really a table?" probe.

use std::borrow::Cow;
use xtract_types::XtractError;

/// A parsed table, borrowing its cells from the parsed text.
#[derive(Debug, Clone, PartialEq)]
pub struct Table<'a> {
    /// Column labels (synthesized `col0..colN` when no header detected).
    pub header: Vec<String>,
    /// Whether the first row looked like a header.
    pub has_header: bool,
    /// The delimiter in use.
    pub delimiter: char,
    /// Every cell, row-major, `header.len()` per row, starting with the
    /// header row when one was detected.
    cells: Vec<Cow<'a, str>>,
}

impl<'a> Table<'a> {
    fn body(&self) -> &[Cow<'a, str>] {
        let skip = if self.has_header {
            self.header.len()
        } else {
            0
        };
        &self.cells[skip..]
    }

    /// Data rows (header excluded), in file order.
    pub fn rows(&self) -> std::slice::Chunks<'_, Cow<'a, str>> {
        self.body().chunks(self.header.len())
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.body().len() / self.header.len()
    }
}

/// Per-column aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column label.
    pub name: String,
    /// Values parseable as f64.
    pub numeric_count: usize,
    /// Empty or whitespace-only cells ("null values").
    pub null_count: usize,
    /// Non-numeric, non-empty cells.
    pub text_count: usize,
    /// Mean over numeric cells.
    pub mean: Option<f64>,
    /// Minimum over numeric cells.
    pub min: Option<f64>,
    /// Maximum over numeric cells.
    pub max: Option<f64>,
}

fn fail(reason: impl Into<String>) -> XtractError {
    XtractError::ExtractorFailed {
        extractor: "table-codec".to_string(),
        path: String::new(),
        reason: reason.into(),
    }
}

/// Infers the delimiter from the first non-empty line: the candidate with
/// the highest consistent count wins.
pub fn infer_delimiter(text: &str) -> char {
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let score = |d: char| first.matches(d).count();
    let (mut best, mut best_n) = (',', score(','));
    for d in ['\t', ';'] {
        let n = score(d);
        if n > best_n {
            best = d;
            best_n = n;
        }
    }
    best
}

/// Appends one line's fields to `out`, honoring double-quoted fields with
/// `""` escapes. A line without a quote is split in place and borrowed.
fn split_line<'a>(line: &'a str, delim: char, out: &mut Vec<Cow<'a, str>>) {
    if !line.contains('"') {
        out.extend(line.split(delim).map(Cow::Borrowed));
        return;
    }
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else if c == '"' && cur.is_empty() {
            in_quotes = true;
        } else if c == delim {
            out.push(Cow::Owned(std::mem::take(&mut cur)));
        } else {
            cur.push(c);
        }
    }
    out.push(Cow::Owned(cur));
}

fn is_numeric(cell: &str) -> bool {
    !cell.trim().is_empty() && cell.trim().parse::<f64>().is_ok()
}

/// Parses a table from text. Fails on ragged rows (differing field
/// counts), which is how the extractor detects that a "tabular" file is
/// really free text; the failing row is the last one read.
pub fn parse(text: &str) -> Result<Table<'_>, XtractError> {
    let delimiter = infer_delimiter(text);
    let mut cells: Vec<Cow<'_, str>> = Vec::new();
    let mut width = 0;
    let lines = text.lines().filter(|l| !l.trim().is_empty());
    for (row, line) in lines.enumerate() {
        let before = cells.len();
        split_line(line, delimiter, &mut cells);
        let fields = cells.len() - before;
        if row == 0 {
            if fields < 2 {
                return Err(fail("single-column input is not tabular"));
            }
            width = fields;
        } else if fields != width {
            return Err(fail(format!(
                "ragged row {row}: {fields} fields, expected {width}"
            )));
        }
    }
    if cells.is_empty() {
        return Err(fail("empty table"));
    }
    // Header heuristic: first row has no numeric cells but later rows do.
    let (first, rest) = cells.split_at(width);
    let has_header = first.iter().all(|c| !is_numeric(c)) && rest.iter().any(|c| is_numeric(c));
    let header: Vec<String> = if has_header {
        first.iter().map(|c| c.to_string()).collect()
    } else {
        (0..width).map(|i| format!("col{i}")).collect()
    };
    Ok(Table {
        header,
        has_header,
        delimiter,
        cells,
    })
}

/// Computes per-column aggregates.
pub fn column_stats(table: &Table<'_>) -> Vec<ColumnStats> {
    let width = table.header.len();
    let mut stats: Vec<ColumnStats> = table
        .header
        .iter()
        .map(|name| ColumnStats {
            name: name.clone(),
            numeric_count: 0,
            null_count: 0,
            text_count: 0,
            mean: None,
            min: None,
            max: None,
        })
        .collect();
    let mut sums = vec![0.0f64; width];
    for row in table.rows() {
        for (i, cell) in row.iter().enumerate() {
            let trimmed = cell.trim();
            let s = &mut stats[i];
            if trimmed.is_empty()
                || trimmed.eq_ignore_ascii_case("na")
                || trimmed.eq_ignore_ascii_case("nan")
                || trimmed.eq_ignore_ascii_case("null")
                || trimmed == "-999"
                || trimmed == "-9999"
            {
                s.null_count += 1;
            } else if let Ok(v) = trimmed.parse::<f64>() {
                s.numeric_count += 1;
                sums[i] += v;
                s.min = Some(s.min.map_or(v, |m| m.min(v)));
                s.max = Some(s.max.map_or(v, |m| m.max(v)));
            } else {
                s.text_count += 1;
            }
        }
    }
    for (i, s) in stats.iter_mut().enumerate() {
        if s.numeric_count > 0 {
            s.mean = Some(sums[i] / s.numeric_count as f64);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str =
        "site,year,co2_ppm\nmauna loa,1990,354.45\nmauna loa,1991,355.62\nbarrow,1990,\n";

    #[test]
    fn parses_with_header() {
        let t = parse(SAMPLE).unwrap();
        assert!(t.has_header);
        assert_eq!(t.header, vec!["site", "year", "co2_ppm"]);
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.delimiter, ',');
    }

    #[test]
    fn headerless_table_gets_synthetic_names() {
        let t = parse("1,2,3\n4,5,6\n").unwrap();
        assert!(!t.has_header);
        assert_eq!(t.header, vec!["col0", "col1", "col2"]);
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn tsv_and_semicolons_are_inferred() {
        assert_eq!(parse("a\tb\n1\t2\n").unwrap().delimiter, '\t');
        assert_eq!(parse("a;b\n1;2\n").unwrap().delimiter, ';');
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters() {
        let t = parse("id,notes\n1,\"hello, world\"\n2,\"she said \"\"hi\"\"\"\n").unwrap();
        assert!(t.has_header);
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows[0][1], "hello, world");
        assert_eq!(rows[1][1], "she said \"hi\"");
        // Only the quoted lines were copied.
        assert!(matches!(t.cells[0], Cow::Borrowed("id")));
        assert!(matches!(rows[0][0], Cow::Owned(_)));
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let err = parse("a,b\n1,2,3\n").unwrap_err();
        assert!(err.to_string().contains("ragged"));
    }

    #[test]
    fn prose_is_rejected() {
        assert!(parse("this is just a sentence\nand another one\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn stats_aggregate_numeric_columns() {
        let t = parse(SAMPLE).unwrap();
        let stats = column_stats(&t);
        let year = &stats[1];
        assert_eq!(year.numeric_count, 3);
        assert_eq!(year.mean, Some((1990.0 + 1991.0 + 1990.0) / 3.0));
        assert_eq!(year.min, Some(1990.0));
        assert_eq!(year.max, Some(1991.0));
        let co2 = &stats[2];
        assert_eq!(co2.numeric_count, 2);
        assert_eq!(co2.null_count, 1);
    }

    #[test]
    fn sentinel_nulls_are_counted() {
        let t = parse("a,b\n1,NA\n2,-999\n3,nan\n4,7\n").unwrap();
        let stats = column_stats(&t);
        assert_eq!(stats[1].null_count, 3);
        assert_eq!(stats[1].numeric_count, 1);
    }

    #[test]
    fn text_cells_are_counted() {
        let t = parse("k,v\nalpha,1\nbeta,x\n").unwrap();
        let stats = column_stats(&t);
        assert_eq!(stats[0].text_count, 2);
        assert_eq!(stats[1].text_count, 1);
        assert_eq!(stats[1].numeric_count, 1);
    }
}
