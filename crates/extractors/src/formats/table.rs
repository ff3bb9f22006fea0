//! CSV/TSV reading with header detection and column statistics.
//!
//! The tabular extractor (§4.2) "processes data in common row-column
//! formats ... that may contain a header of column labels. Metadata can be
//! derived from the header, rows, or columns. Aggregate column-level
//! metadata (e.g., mean and maximum) often provide useful insights."
//!
//! The reader handles quoted fields, delimiter inference (`,` vs `\t` vs
//! `;`), ragged-row detection, and per-column typing (numeric vs text vs
//! empty) — the machinery the null-value extractor reuses.
//!
//! Cost contract: [`summarize`] reads each line once and keeps no cell.
//! Every field is classified and counted into its column as it is split
//! off; a field is copied only from a line's first `"` on (unquoting may
//! rewrite it), into one buffer the whole file shares. It returns on
//! the first offending row (a first row with fewer than two fields, or a
//! later row of another width) without reading the rest, which makes it a
//! cheap "is this prose really a table?" probe.

use xtract_types::XtractError;

/// What one pass over a table's text yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Whether the first row looked like a header.
    pub has_header: bool,
    /// The delimiter in use.
    pub delimiter: char,
    /// Number of data rows (header excluded).
    pub rows: usize,
    /// One entry per column, in file order, named by the header row (or
    /// `col0..colN` when no header was detected).
    pub columns: Vec<ColumnStats>,
}

/// Per-column aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Calls `f` on each field of one line with its column index, honoring
/// double-quoted fields with `""` escapes, and returns the field count.
/// Fields are split off in place up to the line's first quote; from the
/// start of that field on, the rest of the line is unquoted field by
/// field into `buf`. `delim` is one of [`infer_delimiter`]'s ASCII three.
fn for_each_field(
    line: &str,
    delim: u8,
    buf: &mut String,
    mut f: impl FnMut(usize, &str),
) -> usize {
    let (mut fields, mut start) = (0, 0);
    let mut quoted = false;
    for (i, b) in line.bytes().enumerate() {
        if b == b'"' {
            quoted = true;
            break;
        } else if b == delim {
            f(fields, &line[start..i]);
            fields += 1;
            start = i + 1;
        }
    }
    if !quoted {
        f(fields, &line[start..]);
        return fields + 1;
    }
    buf.clear();
    let mut chars = line[start..].chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    buf.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                buf.push(c);
            }
        } else if c == '"' && buf.is_empty() {
            in_quotes = true;
        } else if c == char::from(delim) {
            f(fields, buf);
            fields += 1;
            buf.clear();
        } else {
            buf.push(c);
        }
    }
    f(fields, buf);
    fields + 1
}

/// `s.trim()`. Most lines and cells begin and end in printable ASCII,
/// which says there is nothing to trim without decoding from both ends.
#[inline]
fn trim(s: &str) -> &str {
    match s.as_bytes() {
        [a, .., z] if a.is_ascii_graphic() && z.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

fn is_numeric(cell: &str) -> bool {
    trim(cell).parse::<f64>().is_ok()
}

/// Counts one data cell into its column and returns [`is_numeric`] of it,
/// from the same single `f64` parse. The two differ on purpose: the null
/// sentinels `nan`, `-999` and `-9999` parse as numbers, which is what
/// header detection asks, and count as nulls. `col.mean` carries the
/// column's running sum, from `0.0` in file order, until [`summarize`]
/// divides it.
#[inline]
fn tally(col: &mut ColumnStats, cell: &str) -> bool {
    let trimmed = trim(cell);
    let sentinel = |list: &[&str]| list.iter().any(|s| trimmed.eq_ignore_ascii_case(s));
    let parsed = trimmed.parse::<f64>();
    match parsed {
        // `-999` has no letters: ignoring case compares it exactly.
        Ok(_) if sentinel(&["nan", "-999", "-9999"]) => col.null_count += 1,
        Ok(v) => {
            col.numeric_count += 1;
            col.mean = Some(col.mean.unwrap_or(0.0) + v);
            col.min = Some(col.min.map_or(v, |m| m.min(v)));
            col.max = Some(col.max.map_or(v, |m| m.max(v)));
        }
        Err(_) if sentinel(&["", "na", "null"]) => col.null_count += 1,
        Err(_) => col.text_count += 1,
    }
    parsed.is_ok()
}

/// The first row turned out to be data: its cells leave the column names
/// for the counts, and the columns take their synthetic names.
fn first_row_is_data(columns: &mut [ColumnStats]) {
    for (i, col) in columns.iter_mut().enumerate() {
        let cell = std::mem::replace(&mut col.name, format!("col{i}"));
        tally(col, &cell);
    }
}

/// Reads a table from text in one pass: shape, header decision and
/// per-column aggregates. Fails on ragged rows (differing field counts),
/// which is how the extractors detect that a "tabular" file is really
/// free text; the failing row is the last one read.
///
/// The first row is a header when it holds no numeric cell and a later
/// row does. Its cells wait in the column names until that is known: they
/// join the counts as data the moment one of them is numeric (before any
/// later row, so every sum adds in file order) or, numeric-free, at the
/// end of a numeric-free file, where they can only be nulls and text.
pub fn summarize(text: &str) -> Result<Summary, XtractError> {
    let delimiter = infer_delimiter(text);
    let delim = u8::try_from(delimiter).expect("infer_delimiter picks among ASCII");
    let mut columns: Vec<ColumnStats> = Vec::new();
    let mut buf = String::new();
    let (mut first_numeric, mut body_numeric) = (false, false);
    let mut rows = 0;
    for line in text.lines().filter(|l| !trim(l).is_empty()) {
        if rows == 0 {
            for_each_field(line, delim, &mut buf, |_, cell| {
                first_numeric |= is_numeric(cell);
                columns.push(ColumnStats {
                    name: cell.to_string(),
                    ..ColumnStats::default()
                });
            });
            if columns.len() < 2 {
                return Err(fail("single-column input is not tabular"));
            }
            if first_numeric {
                first_row_is_data(&mut columns);
            }
        } else {
            let fields = for_each_field(line, delim, &mut buf, |i, cell| {
                if let Some(col) = columns.get_mut(i) {
                    body_numeric |= tally(col, cell);
                }
            });
            if fields != columns.len() {
                return Err(fail(format!(
                    "ragged row {rows}: {fields} fields, expected {}",
                    columns.len()
                )));
            }
        }
        rows += 1;
    }
    if rows == 0 {
        return Err(fail("empty table"));
    }
    let has_header = !first_numeric && body_numeric;
    if !first_numeric && !body_numeric {
        first_row_is_data(&mut columns);
    }
    for col in &mut columns {
        col.mean = col.mean.map(|sum| sum / col.numeric_count as f64);
    }
    Ok(Summary {
        has_header,
        delimiter,
        rows: rows - usize::from(has_header),
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str =
        "site,year,co2_ppm\nmauna loa,1990,354.45\nmauna loa,1991,355.62\nbarrow,1990,\n";

    fn names(t: &Summary) -> Vec<&str> {
        t.columns.iter().map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn reads_with_header() {
        let t = summarize(SAMPLE).unwrap();
        assert!(t.has_header);
        assert_eq!(names(&t), ["site", "year", "co2_ppm"]);
        assert_eq!(t.rows, 3);
        assert_eq!(t.delimiter, ',');
    }

    #[test]
    fn headerless_table_gets_synthetic_names() {
        let t = summarize("1,2,3\n4,5,6\n").unwrap();
        assert!(!t.has_header);
        assert_eq!(names(&t), ["col0", "col1", "col2"]);
        assert_eq!(t.rows, 2);
        // The first row is data: it is in the sums, ahead of the second.
        assert_eq!(t.columns[0].mean, Some(2.5));
        assert_eq!(t.columns[2].min, Some(3.0));
    }

    #[test]
    fn numeric_free_table_counts_its_first_row() {
        let t = summarize("a,b\nc,\n").unwrap();
        assert!(!t.has_header);
        assert_eq!(names(&t), ["col0", "col1"]);
        assert_eq!(t.rows, 2);
        assert_eq!(t.columns[0].text_count, 2);
        assert_eq!((t.columns[1].text_count, t.columns[1].null_count), (1, 1));
    }

    #[test]
    fn tsv_and_semicolons_are_inferred() {
        assert_eq!(summarize("a\tb\n1\t2\n").unwrap().delimiter, '\t');
        assert_eq!(summarize("a;b\n1;2\n").unwrap().delimiter, ';');
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters() {
        let mut buf = String::new();
        let mut fields = Vec::new();
        for line in ["1,\"hello, world\"", "2,\"she said \"\"hi\"\"\""] {
            let n = for_each_field(line, b',', &mut buf, |i, f| fields.push((i, f.to_string())));
            assert_eq!(n, 2);
        }
        let text = |i: usize| fields[i].1.as_str();
        assert_eq!((text(1), text(3)), ("hello, world", "she said \"hi\""));
        // A quoted header names its column by the unquoted text.
        let t = summarize("id,\"a \"\"b\"\", c\"\n1,\"2\"\n").unwrap();
        assert_eq!(names(&t), ["id", "a \"b\", c"]);
        assert_eq!(t.columns[1].numeric_count, 1);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let err = summarize("a,b\n1,2,3\n").unwrap_err();
        assert!(err.to_string().contains("ragged"));
    }

    #[test]
    fn prose_is_rejected() {
        assert!(summarize("this is just a sentence\nand another one\n").is_err());
        assert!(summarize("").is_err());
    }

    #[test]
    fn stats_aggregate_numeric_columns() {
        let stats = summarize(SAMPLE).unwrap().columns;
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
        let stats = summarize("a,b\n1,NA\n2,-999\n3,nan\n4,7\n")
            .unwrap()
            .columns;
        assert_eq!(stats[1].null_count, 3);
        assert_eq!(stats[1].numeric_count, 1);
    }

    #[test]
    fn text_cells_are_counted() {
        let stats = summarize("k,v\nalpha,1\nbeta,x\n").unwrap().columns;
        assert_eq!(stats[0].text_count, 2);
        assert_eq!(stats[1].text_count, 1);
        assert_eq!(stats[1].numeric_count, 1);
    }
}
