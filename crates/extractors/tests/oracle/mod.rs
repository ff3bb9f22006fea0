//! The kernels the one-pass ones replaced, kept as the reference the
//! equivalence tests compare against. `parse` + `column_stats` (a `Cow`
//! per cell, then a second walk over the cells), `for_each_token` (`char`
//! by `char` into a buffer) and `image` are the parent's, moved here as
//! they stood; `tokenize` and `rarity_weight` are the allocating ones
//! those were themselves held to.

#![allow(dead_code)]

pub mod image;

use std::borrow::Cow;
use xtract_extractors::formats::table::{self, infer_delimiter, ColumnStats};
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

fn fail(reason: impl Into<String>) -> XtractError {
    XtractError::ExtractorFailed {
        extractor: "table-codec".to_string(),
        path: String::new(),
        reason: reason.into(),
    }
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

/// Calls `f` on each lowercased alphabetic token of byte length ≥ 3, in
/// text order. Every token is lent from one reused buffer, so a caller
/// that counts words allocates per distinct word, not per token.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() {
            cur.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphabetic() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            if cur.len() >= 3 {
                f(&cur);
            }
            cur.clear();
        }
    }
    if cur.len() >= 3 {
        f(&cur);
    }
}

pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphabetic() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            if cur.len() >= 3 {
                tokens.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    if cur.len() >= 3 {
        tokens.push(cur);
    }
    tokens
}

/// The word lists in the order the parent kept them (unsorted, scanned
/// linearly): membership must not depend on the order.
const STOPWORDS: &str = "a an the and or but if then else of in on at to from by with without \
    for as is are was were be been being it its this that these those we our you your they their \
    he she his her i me my not no nor so such than too very can could may might must shall should \
    will would do does did done have has had which what who whom when where why how all any both \
    each few more most other some into through during before after above below up down out off \
    over under again further also there here between because while about against et al using \
    used use one two however";
const COMMON_ACADEMIC: &str = "data results method methods figure table section paper study \
    analysis model value values based show shown present work approach system systems number \
    different large given new first second time file files set";

pub fn rarity_weight(word: &str) -> f64 {
    if STOPWORDS.split_whitespace().any(|w| w == word) {
        return 0.0;
    }
    if COMMON_ACADEMIC.split_whitespace().any(|w| w == word) {
        return 0.3;
    }
    let len_factor = (word.len() as f64 / 6.0).min(2.0);
    let rare_letters = word
        .chars()
        .filter(|c| matches!(c, 'q' | 'x' | 'z' | 'j' | 'k' | 'v' | 'w' | 'y'))
        .count() as f64;
    1.0 + 0.5 * len_factor + 0.15 * rare_letters
}

/// Panics unless `table::summarize` and [`parse`] + [`column_stats`]
/// agree on `text`: the same shape, header decision, column names and
/// column statistics (floats by bit pattern), or the same error message.
pub fn assert_same_table(text: &str) {
    match (table::summarize(text), parse(text)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.has_header, old.has_header, "{text:?}");
            assert_eq!(new.delimiter, old.delimiter, "{text:?}");
            assert_eq!(new.rows, old.row_count(), "{text:?}");
            let names = new.columns.iter().map(|c| &c.name);
            assert!(names.eq(&old.header), "{text:?}");
            let bits = |s: &ColumnStats| {
                let b = |v: Option<f64>| v.map(f64::to_bits);
                (
                    (s.numeric_count, s.null_count, s.text_count),
                    (b(s.mean), b(s.min), b(s.max)),
                )
            };
            let old = column_stats(&old);
            assert_eq!(new.columns.len(), old.len(), "{text:?}");
            for (n, o) in new.columns.iter().zip(&old) {
                assert_eq!((&n.name, bits(n)), (&o.name, bits(o)), "{text:?}");
            }
        }
        (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string(), "{text:?}"),
        (new, old) => panic!(
            "{text:?}: streaming reader ok={}, oracle ok={}",
            new.is_ok(),
            old.is_ok()
        ),
    }
}
