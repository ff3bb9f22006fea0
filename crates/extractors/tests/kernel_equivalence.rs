//! The borrowing kernels (`formats::table`, the token visitor under
//! `KeywordExtractor`) against the allocating ones they replaced
//! (`oracle/`): same tables, same statistics, same error messages, same
//! `ExtractOutput`s. Plain seeded loops, so the file runs wherever the
//! crate builds; the proptest twins live in `format_properties.rs`.

mod oracle;

use oracle::assert_same_table;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::collections::HashMap;
use xtract_extractors::formats::table;
use xtract_extractors::impls::{KeywordExtractor, NullValueExtractor, TabularExtractor};
use xtract_extractors::{ExtractOutput, Extractor, MapSource};
use xtract_types::{EndpointId, Family, FamilyId, FileRecord, FileType, Group, GroupId, Metadata};
use xtract_workloads::materialize;

#[test]
fn generated_corpora_parse_alike() {
    for seed in 0..24 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let csv = materialize::csv(&mut rng, 1 + seed as usize * 37);
        assert!(table::parse(&csv).is_ok());
        assert_same_table(&csv);
        assert_same_table(&csv.replace(',', "\t"));
        assert_same_table(&csv.replace(',', ";"));
        assert_same_table(&csv.replace('\n', "\r\n"));
        assert_same_table(&csv.replace("st0", "\"st,\"\"0\"\"\""));
        let prose = materialize::prose(&mut rng, 50 + seed as usize * 211);
        assert!(table::parse(&prose).is_err());
        assert_same_table(&prose);
        assert_same_table(&prose.replace(' ', ","));
    }
}

#[test]
fn edge_cases_parse_alike() {
    for text in [
        "",
        "\n\n  \n",
        "one line of prose",
        "a\n1\n2\n",
        "a,b\n",
        "a,b\n1,2",
        "id,notes\n1,\"hello, world\"\n2,\"she said \"\"hi\"\"\"\n",
        "id,notes\n1,ab\"cd\"\n2,\"x\"y\n3,\"\"\n",
        "id,notes\n1,\"never closed, still one field\n2,3\n",
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\r1,2\r",
        "a,b\n\n1,2\n   \n\n3,4\n",
        "\n\na,b\n1,2,3\n",
        "a,b,c\n1,2\n1,2,3,4\n",
        "a\tb\tc\n1\t2\t3\n",
        "a;b;c\n1;2;3\n",
        "a,b;c;d\n1,2;3;4\n",
        "a,b\t\n1,2\t\n",
        "x,y\n NA , nan\nnull,-999\n-9999,\n1e3, 2.5 \n",
        "1,2\n3,4\n",
        "a,b\nc,d\n",
        "é,ü\n1,2\n",
        "a,\"é\"\"ü\"\n1,2\n",
        "inf,-inf\ninf,-inf\n-inf,inf\n",
    ] {
        assert_same_table(text);
    }
}

#[test]
fn a_ragged_row_is_named_after_a_thousand_good_ones() {
    let mut text = String::from("k,v\n");
    for i in 0..1_000 {
        text.push_str(&format!("r{i},{i}\n\n"));
    }
    text.push_str("late,1,2\nnever,read\"\n");
    assert_same_table(&text);
    let err = table::parse(&text).unwrap_err().to_string();
    assert!(
        err.contains("ragged row 1001: 3 fields, expected 2"),
        "{err}"
    );
}

#[test]
fn random_strings_parse_alike() {
    const ALPHABET: [char; 10] = ['a', '1', ',', '\t', ';', '"', ' ', '\n', '\r', 'é'];
    let mut rng = SmallRng::seed_from_u64(16);
    for _ in 0..40_000 {
        let len = rng.gen_range(0..48);
        let text: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        assert_same_table(&text);
    }
}

/// `KeywordExtractor::extract` as the parent wrote it, over the oracle.
fn oracle_keyword(files: &[(&str, FileType, String)], top_n: usize) -> ExtractOutput {
    let mut out = ExtractOutput::default();
    let mut family_counts: HashMap<String, u64> = HashMap::new();
    let mut docs = 0usize;
    for (path, hint, text) in files {
        if !matches!(
            hint,
            FileType::FreeText | FileType::Presentation | FileType::Unknown
        ) {
            continue;
        }
        let mut md = Metadata::new();
        if oracle::parse(text).is_ok() {
            out.discovered.push((path.to_string(), FileType::Tabular));
        }
        let tokens = oracle::tokenize(text);
        docs += 1;
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for t in &tokens {
            *counts.entry(t.as_str()).or_insert(0) += 1;
        }
        let total = tokens.len().max(1) as f64;
        let mut scored: Vec<(&str, f64)> = counts
            .iter()
            .map(|(&w, &c)| (w, (c as f64 / total) * oracle::rarity_weight(w)))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        scored.truncate(top_n);
        let norm: f64 = scored
            .iter()
            .map(|(_, s)| s)
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        md.insert(
            "keywords",
            json!(scored
                .iter()
                .map(|(w, s)| json!({"word": w, "weight": s / norm}))
                .collect::<Vec<_>>()),
        );
        md.insert("token_count", tokens.len());
        for (w, _) in &scored {
            *family_counts.entry((*w).to_string()).or_insert(0) += 1;
        }
        out.per_file.push((path.to_string(), md));
    }
    let mut shared: Vec<(&String, &u64)> = family_counts.iter().filter(|(_, &c)| c > 1).collect();
    shared.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let shared: Vec<&String> = shared.iter().take(top_n).map(|(w, _)| *w).collect();
    out.family_metadata.insert("documents", docs);
    out.family_metadata.insert("shared_keywords", json!(shared));
    out
}

/// `TabularExtractor::extract` as the parent wrote it, over the oracle.
fn oracle_tabular(files: &[(&str, FileType, String)]) -> ExtractOutput {
    let mut out = ExtractOutput::default();
    let (mut tables, mut total_rows) = (0usize, 0u64);
    for (path, _, text) in files.iter().filter(|f| f.1 == FileType::Tabular) {
        let mut md = Metadata::new();
        match oracle::parse(text) {
            Ok(t) => {
                tables += 1;
                total_rows += t.rows.len() as u64;
                md.insert("rows", t.rows.len());
                md.insert("columns", t.header.len());
                md.insert("has_header", t.has_header);
                md.insert("delimiter", t.delimiter.to_string());
                md.insert("header", json!(t.header));
                md.insert(
                    "column_stats",
                    json!(oracle::column_stats(&t)
                        .iter()
                        .map(|s| json!({
                            "name": s.name,
                            "numeric": s.numeric_count,
                            "text": s.text_count,
                            "nulls": s.null_count,
                            "mean": s.mean,
                            "min": s.min,
                            "max": s.max,
                        }))
                        .collect::<Vec<_>>()),
                );
            }
            Err(e) => {
                md.insert("error", e.to_string());
                out.discovered.push((path.to_string(), FileType::FreeText));
            }
        }
        out.per_file.push((path.to_string(), md));
    }
    out.family_metadata.insert("tables", tables);
    out.family_metadata.insert("total_rows", total_rows);
    out
}

/// `NullValueExtractor::extract` as the parent wrote it, over the oracle.
fn oracle_null_value(files: &[(&str, FileType, String)]) -> ExtractOutput {
    let mut out = ExtractOutput::default();
    let (mut family_nulls, mut family_cells) = (0u64, 0u64);
    for (path, _, text) in files.iter().filter(|f| f.1 == FileType::Tabular) {
        let mut md = Metadata::new();
        let Ok(t) = oracle::parse(text) else {
            md.insert("error", "not parseable as a table");
            out.per_file.push((path.to_string(), md));
            continue;
        };
        let stats = oracle::column_stats(&t);
        let nulls: u64 = stats.iter().map(|s| s.null_count as u64).sum();
        let cells = (t.rows.len() * t.header.len()) as u64;
        family_nulls += nulls;
        family_cells += cells;
        md.insert("null_cells", nulls);
        md.insert("total_cells", cells);
        md.insert(
            "null_fraction",
            if cells > 0 {
                nulls as f64 / cells as f64
            } else {
                0.0
            },
        );
        md.insert(
            "columns_with_nulls",
            json!(stats
                .iter()
                .filter(|s| s.null_count > 0)
                .map(|s| json!({"name": s.name, "nulls": s.null_count}))
                .collect::<Vec<_>>()),
        );
        out.per_file.push((path.to_string(), md));
    }
    out.family_metadata.insert("null_cells", family_nulls);
    out.family_metadata.insert("total_cells", family_cells);
    out
}

#[test]
fn extractors_match_outputs_built_from_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(16);
    let files = [
        (
            "/f/a.txt",
            FileType::FreeText,
            materialize::prose(&mut rng, 3_000),
        ),
        (
            "/f/b.txt",
            FileType::FreeText,
            materialize::prose(&mut rng, 900),
        ),
        (
            "/f/mixed.txt",
            FileType::Unknown,
            "İstanbul ǅ ß ﬁ Perovskite-CO2, perovskite".into(),
        ),
        (
            "/f/table.txt",
            FileType::FreeText,
            materialize::csv(&mut rng, 40),
        ),
        (
            "/f/t.csv",
            FileType::Tabular,
            materialize::csv(&mut rng, 700),
        ),
        (
            "/f/q.csv",
            FileType::Tabular,
            "k,v\n\"a,b\",1\n\"c\"\"d\",NA\n".into(),
        ),
        (
            "/f/notes.csv",
            FileType::Tabular,
            materialize::prose(&mut rng, 60),
        ),
        ("/f/ragged.csv", FileType::Tabular, "a,b\n1,2\n3\n".into()),
        ("/f/empty.csv", FileType::Tabular, String::new()),
    ];
    let mut src = MapSource::new();
    let mut records = Vec::new();
    for (path, hint, text) in &files {
        src.insert(*path, text.clone().into_bytes());
        records.push(FileRecord::new(
            *path,
            text.len() as u64,
            EndpointId::new(0),
            *hint,
        ));
    }
    let group = Group::new(
        GroupId::new(0),
        records.iter().map(|f| f.path.clone()).collect(),
    );
    let family = Family::new(FamilyId::new(0), records, vec![group], EndpointId::new(0));

    let keyword = KeywordExtractor::default();
    assert_eq!(
        keyword.extract(&family, &src).unwrap(),
        oracle_keyword(&files, keyword.top_n)
    );
    assert_eq!(
        TabularExtractor.extract(&family, &src).unwrap(),
        oracle_tabular(&files)
    );
    assert_eq!(
        NullValueExtractor.extract(&family, &src).unwrap(),
        oracle_null_value(&files)
    );
}
