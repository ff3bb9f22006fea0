//! The one-pass kernels (`table::summarize`, `image::features`, the token
//! visitor under `KeywordExtractor`) against the ones they replaced
//! (`oracle/`): same statistics and features bit for bit, same tokens,
//! same error messages, same `ExtractOutput`s. Plain seeded loops, so the
//! file runs wherever the crate builds; the proptest twins live in
//! `format_properties.rs`.

mod oracle;

use oracle::assert_same_table;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::collections::HashMap;
use xtract_extractors::formats::image::{self, Image, ImageClass};
use xtract_extractors::formats::table;
use xtract_extractors::impls::text_util::for_each_token;
use xtract_extractors::impls::{
    ImagesExtractor, KeywordExtractor, NullValueExtractor, TabularExtractor,
};
use xtract_extractors::{ExtractOutput, Extractor, MapSource};
use xtract_types::{EndpointId, Family, FamilyId, FileRecord, FileType, Group, GroupId, Metadata};
use xtract_workloads::materialize;

#[test]
fn generated_corpora_parse_alike() {
    for seed in 0..24 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let csv = materialize::csv(&mut rng, 1 + seed as usize * 37);
        assert!(table::summarize(&csv).is_ok());
        assert_same_table(&csv);
        assert_same_table(&csv.replace(',', "\t"));
        assert_same_table(&csv.replace(',', ";"));
        assert_same_table(&csv.replace('\n', "\r\n"));
        assert_same_table(&csv.replace("st0", "\"st,\"\"0\"\"\""));
        let prose = materialize::prose(&mut rng, 50 + seed as usize * 211);
        assert!(table::summarize(&prose).is_err());
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
        // What the first row decides, and when: a number, a number that
        // counts as a null, or a blank in row 0; a body without numbers;
        // a header and nothing else; quotes in row 0.
        "1.5,x\n2.5,y\n0.1,z\n",
        "x,1e-3\ny,2.25\nz,0.1\n",
        "a,nan\nb,1\nc,2\n",
        "inf,a\n1,b\n",
        "a,-999\n0.1,0.2\n0.3,0.4\n",
        "-9999,NA\nnull,x\n",
        "a,\n1,2\n",
        " ,\t\n1,2\n",
        ",\n,\n",
        "a,b\nc,\nNA,null\n",
        "a,b\nnan,x\n",
        "a,b\n-999,x\n",
        "name,value\n",
        "\"a,b\",c\n1,2\n",
        "\"1\",\"x\"\n\"2\",y\n",
        "\"a\"\"b\",\"c\"\nd,e\n",
        "\"na\",\" 7 \"\n\"3\",4\n",
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
    let err = table::summarize(&text).unwrap_err().to_string();
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

/// One family of one group holding `files`, and the source serving them.
fn one_family<'a>(
    files: impl Iterator<Item = (&'a str, FileType, &'a [u8])>,
) -> (Family, MapSource) {
    let mut src = MapSource::new();
    let mut records = Vec::new();
    for (path, hint, body) in files {
        src.insert(path, body.to_vec());
        let size = body.len() as u64;
        records.push(FileRecord::new(path, size, EndpointId::new(0), hint));
    }
    let group = Group::new(
        GroupId::new(0),
        records.iter().map(|f| f.path.clone()).collect(),
    );
    let family = Family::new(FamilyId::new(0), records, vec![group], EndpointId::new(0));
    (family, src)
}

/// What the one-pass tokenizer lends, against both references.
fn assert_same_tokens(text: &str) {
    let mut new = Vec::new();
    for_each_token(text, |t| new.push(t.to_string()));
    let mut parent = Vec::new();
    oracle::for_each_token(text, |t| parent.push(t.to_string()));
    assert_eq!(new, parent, "{text:?}");
    assert_eq!(new, oracle::tokenize(text), "{text:?}");
}

#[test]
fn edge_cases_tokenize_alike() {
    for text in [
        "",
        "MiXeD CaSe ASCII and lower, UPPER.",
        "ab1cde f2g hi3jklm n0p",
        "İstanbul ǅ ß ﬁ İİ ǅǅ ßß ﬁx",
        "a bc def",
        "def bc a",
        "é éé ééé x",
        "ab",
        "abc",
        "métadonnées über alles\r\nÀ-propos 日本語 ok",
        // A token that starts, ends or sits wholly at a non-ASCII letter.
        "éabc abcé é ééé aéb Éa aÉ",
        "abcé,éabc;é.日本語",
        "İ İa aİ ab\u{130} \u{130}ab",
        // Two bytes before a non-alphabetic non-ASCII char; three after.
        "ab€cde ab€ ab\u{a0}cd xy…z ab→",
        "ab\u{301}cd e\u{301}e\u{301}",
        "Ab aB abC ABC aBc1ABc",
        "ǅ ǅx ßß SS ẞ ẞẞ",
    ] {
        assert_same_tokens(text);
    }
}

#[test]
fn a_lowercase_run_is_lent_from_the_text_and_any_other_is_not() {
    let text = "lower Upper été abc";
    let inside = |t: &str| text.as_bytes().as_ptr_range().contains(&t.as_ptr());
    let mut lent = Vec::new();
    for_each_token(text, |t| {
        lent.push((t.to_string(), inside(t)));
        assert_eq!(matches!(t, std::borrow::Cow::Borrowed(_)), inside(t));
    });
    let expect = [
        ("lower", true),
        ("upper", false),
        ("été", false),
        ("abc", true),
    ];
    assert!(lent
        .iter()
        .map(|(t, b)| (t.as_str(), *b))
        .eq(expect.iter().copied()));
}

#[test]
fn random_strings_tokenize_alike() {
    const ALPHABET: [char; 14] = [
        'a', 'b', 'Z', '1', ',', ' ', '\n', 'é', 'É', 'İ', 'ß', '€', '日', '\u{301}',
    ];
    let mut rng = SmallRng::seed_from_u64(21);
    for _ in 0..40_000 {
        let len = rng.gen_range(0..48);
        let text: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        assert_same_tokens(&text);
    }
    // The table alphabet too: its only letters are `a` and `é`.
    const TABLE: [char; 10] = ['a', '1', ',', '\t', ';', '"', ' ', '\n', '\r', 'é'];
    for _ in 0..40_000 {
        let len = rng.gen_range(0..48);
        let text: String = (0..len)
            .map(|_| TABLE[rng.gen_range(0..TABLE.len())])
            .collect();
        assert_same_tokens(&text);
    }
}

/// Every `ImageFeatures` field the parent had, by bit pattern, and the
/// class and labels read off them.
fn assert_same_features(img: &Image<'_>, what: &str) {
    let (new, old) = (image::features(img), oracle::image::features(img));
    let bits = |f: [f64; 6]| f.map(f64::to_bits);
    assert_eq!(
        bits([
            new.white_frac,
            new.saturation,
            new.geo_frac,
            new.edge_density,
            new.color_entropy,
            new.axis_score
        ]),
        bits([
            old.white_frac,
            old.saturation,
            old.geo_frac,
            old.edge_density,
            old.color_entropy,
            old.axis_score
        ]),
        "{what}: {new:?} vs {old:?}"
    );
    // NaN features (an image without pixels) compare as the parent's did.
    assert_eq!(new.class(), oracle::image::classify(img), "{what}");
    assert_eq!(image::classify(img), oracle::image::classify(img), "{what}");
    let labels = oracle::image::dominant_labels(img);
    assert_eq!(new.dominant_labels(), labels, "{what}");
    assert_eq!(image::dominant_labels(img), labels, "{what}");
}

#[test]
fn image_features_match_the_three_walk_kernel_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(21);
    let mut shapes: Vec<(u32, u32)> = [1, 2, 15, 16, 17, 48, 164].map(|s| (s, s)).into();
    shapes.extend([(1, 37), (37, 1), (3, 200), (200, 3), (16, 33), (33, 16)]);
    for class in ImageClass::ALL {
        for &(w, h) in &shapes {
            // The generators draw boxes and axes: they need a few pixels.
            let img = if w.min(h) >= 15 {
                image::generate(class, w, h, &mut rng)
            } else {
                let mut img = Image::filled(w, h, [0, 0, 0]);
                for i in 0..w * h {
                    img.set(i % w, i / w, [rng.gen(), rng.gen(), rng.gen()]);
                }
                img
            };
            let what = format!("{class:?} {w}x{h}");
            assert_same_features(&img, &what);
            // Decoded, the features are those of the same pixels, lent.
            let bytes = img.encode();
            let lent = Image::decode(&bytes).unwrap();
            assert!(matches!(lent.pixels, std::borrow::Cow::Borrowed(_)));
            assert_eq!(lent, img);
            assert_same_features(&lent, &what);
            assert!(Image::decode(&bytes[..bytes.len() - 1]).is_err(), "{what}");
        }
    }
    // Noise, where every pixel differs from its neighbours; and no pixels.
    for side in [1u32, 2, 16, 17, 61] {
        let mut img = Image::filled(side, side + 3, [0, 0, 0]);
        for i in 0..side * (side + 3) {
            img.set(i % side, i / side, [rng.gen(), rng.gen(), rng.gen()]);
        }
        assert_same_features(&img, "noise");
    }
    for (w, h) in [(0, 0), (0, 5), (5, 0)] {
        let img = Image::filled(w, h, [9, 9, 9]);
        let (new, old) = (image::features(&img), oracle::image::features(&img));
        assert_eq!(new.white_frac.is_nan(), old.white_frac.is_nan());
        assert_eq!(new.axis_score.to_bits(), old.axis_score.to_bits());
        assert_eq!(new.edge_density.to_bits(), old.edge_density.to_bits());
        assert_eq!(new.land_centroid, None);
    }
}

/// `ImagesExtractor::extract` as the parent wrote it, over the oracle.
fn oracle_images(files: &[(String, Vec<u8>)]) -> ExtractOutput {
    let mut out = ExtractOutput::default();
    for (path, bytes) in files {
        let mut md = Metadata::new();
        match Image::decode(bytes) {
            Ok(img) => {
                let class = oracle::image::classify(&img);
                md.insert("class", class.label());
                md.insert("width", img.width);
                md.insert("height", img.height);
                let f = oracle::image::features(&img);
                md.insert(
                    "features",
                    json!({
                        "white_frac": f.white_frac,
                        "saturation": f.saturation,
                        "color_entropy": f.color_entropy,
                        "edge_density": f.edge_density,
                    }),
                );
                match class {
                    ImageClass::Photograph => {
                        md.insert("objects", json!(oracle::image::dominant_labels(&img)));
                    }
                    ImageClass::GeographicMap => {
                        md.insert("locations", json!(oracle::image::location_tags(&img)));
                    }
                    _ => {}
                }
            }
            Err(e) => md.insert("error", e.to_string()),
        }
        out.per_file.push((path.clone(), md));
    }
    out
}

#[test]
fn images_extractor_matches_outputs_built_from_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(21);
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for class in ImageClass::ALL {
        for (w, h) in [(48, 48), (164, 164), (97, 40), (40, 97)] {
            let img = image::generate(class, w, h, &mut rng);
            files.push((
                format!("/i/{}-{w}x{h}.ximg", class.label()),
                img.encode().to_vec(),
            ));
        }
    }
    // Land in one corner only, land nowhere, and a file cut short.
    let mut corner = Image::filled(40, 30, [60, 110, 190]);
    corner.set(39, 29, [70, 160, 60]);
    files.push(("/i/corner.ximg".into(), corner.encode().to_vec()));
    let sea = Image::filled(40, 30, [60, 110, 190]);
    files.push(("/i/sea.ximg".into(), sea.encode().to_vec()));
    let mut cut = sea.encode().to_vec();
    cut.truncate(500);
    files.push(("/i/cut.ximg".into(), cut));
    files.push(("/i/short.ximg".into(), b"XIMG\x01".to_vec()));

    let (family, src) = one_family(
        files
            .iter()
            .map(|(p, b)| (p.as_str(), FileType::Image, b.as_slice())),
    );
    let out = ImagesExtractor.extract(&family, &src).unwrap();
    let expected = oracle_images(&files);
    assert!(out.per_file.iter().any(|(_, md)| md.contains("locations")));
    assert!(out.per_file.iter().any(|(_, md)| md.contains("objects")));
    assert_eq!(out, expected);
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
                total_rows += t.row_count() as u64;
                md.insert("rows", t.row_count());
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
        let cells = (t.row_count() * t.header.len()) as u64;
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
    let (family, src) = one_family(files.iter().map(|(p, h, t)| (*p, *h, t.as_bytes())));

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
