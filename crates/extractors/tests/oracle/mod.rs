//! The allocating kernels the borrowing ones replaced, kept as the
//! reference the equivalence tests compare against: a `String` per token,
//! a `Vec<String>` per row, every row parsed before any is judged.

#![allow(dead_code)]

use xtract_extractors::formats::table::{infer_delimiter, ColumnStats};
use xtract_types::XtractError;

pub struct Table {
    pub header: Vec<String>,
    pub has_header: bool,
    pub delimiter: char,
    pub rows: Vec<Vec<String>>,
}

fn fail(reason: impl Into<String>) -> XtractError {
    XtractError::ExtractorFailed {
        extractor: "table-codec".to_string(),
        path: String::new(),
        reason: reason.into(),
    }
}

fn split_line(line: &str, delim: char) -> Vec<String> {
    let mut fields = Vec::new();
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
            fields.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    fields.push(cur);
    fields
}

fn is_numeric(cell: &str) -> bool {
    !cell.trim().is_empty() && cell.trim().parse::<f64>().is_ok()
}

pub fn parse(text: &str) -> Result<Table, XtractError> {
    let delimiter = infer_delimiter(text);
    let mut rows: Vec<Vec<String>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| split_line(l, delimiter))
        .collect();
    if rows.is_empty() {
        return Err(fail("empty table"));
    }
    let width = rows[0].len();
    if width < 2 {
        return Err(fail("single-column input is not tabular"));
    }
    if let Some((i, r)) = rows.iter().enumerate().find(|(_, r)| r.len() != width) {
        return Err(fail(format!(
            "ragged row {i}: {} fields, expected {width}",
            r.len()
        )));
    }
    let first_numericless = rows[0].iter().all(|c| !is_numeric(c));
    let body_has_numbers = rows.iter().skip(1).any(|r| r.iter().any(|c| is_numeric(c)));
    let has_header = first_numericless && body_has_numbers && rows.len() > 1;
    let header: Vec<String> = if has_header {
        rows.remove(0)
    } else {
        (0..width).map(|i| format!("col{i}")).collect()
    };
    Ok(Table {
        header,
        has_header,
        delimiter,
        rows,
    })
}

pub fn column_stats(table: &Table) -> Vec<ColumnStats> {
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
    let mut sums = vec![0.0f64; table.header.len()];
    for row in &table.rows {
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

/// Panics unless the borrowing `table::parse` and [`parse`] agree on
/// `text`: same table cell for cell and the same column statistics (floats
/// by bit pattern), or the same error message.
pub fn assert_same_table(text: &str) {
    use xtract_extractors::formats::table;
    match (table::parse(text), parse(text)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.header, old.header, "{text:?}");
            assert_eq!(new.has_header, old.has_header, "{text:?}");
            assert_eq!(new.delimiter, old.delimiter, "{text:?}");
            assert_eq!(new.row_count(), old.rows.len(), "{text:?}");
            for (n, o) in new.rows().zip(&old.rows) {
                let same = n
                    .iter()
                    .map(|c| c.as_ref())
                    .eq(o.iter().map(String::as_str));
                assert!(same, "{text:?}");
            }
            let bits = |s: &ColumnStats| {
                let b = |v: Option<f64>| v.map(f64::to_bits);
                (b(s.mean), b(s.min), b(s.max))
            };
            let (new, old) = (table::column_stats(&new), column_stats(&old));
            assert_eq!(new.len(), old.len());
            for (n, o) in new.iter().zip(&old) {
                assert_eq!(
                    (
                        &n.name,
                        n.numeric_count,
                        n.null_count,
                        n.text_count,
                        bits(n)
                    ),
                    (
                        &o.name,
                        o.numeric_count,
                        o.null_count,
                        o.text_count,
                        bits(o)
                    ),
                    "{text:?}"
                );
            }
        }
        (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string(), "{text:?}"),
        (new, old) => panic!(
            "{text:?}: borrowing parse ok={}, oracle ok={}",
            new.is_ok(),
            old.is_ok()
        ),
    }
}
