//! Property tests over the synthetic format codecs: every encoder/parser
//! pair round-trips, and parsers never panic on arbitrary bytes (they are
//! the attack surface of an extractor that runs on uncurated data, §2.3).

mod oracle;

use proptest::prelude::*;
use xtract_extractors::formats::{archive, hdf, image, table};

proptest! {
    /// XIMG round-trips for any dimensions and pixel content.
    #[test]
    fn ximg_roundtrip(w in 1u32..48, h in 1u32..48, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut img = image::Image::filled(w, h, [0, 0, 0]);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, [rng.gen(), rng.gen(), rng.gen()]);
            }
        }
        let bytes = img.encode();
        let decoded = image::Image::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, img);
    }

    /// The image decoder never panics on arbitrary bytes.
    #[test]
    fn ximg_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = image::Image::decode(&bytes);
    }

    /// XZIP round-trips arbitrary member tables.
    #[test]
    fn xzip_roundtrip(members in proptest::collection::vec(
        ("[a-z0-9/._-]{1,40}", any::<u32>(), any::<u32>()), 0..20
    )) {
        let archive_in = archive::Archive {
            members: members
                .into_iter()
                .map(|(name, stored, original)| archive::Member {
                    name,
                    stored_size: stored as u64,
                    original_size: original as u64,
                })
                .collect(),
        };
        let parsed = archive::parse(&archive::encode(&archive_in)).unwrap();
        prop_assert_eq!(parsed, archive_in);
    }

    /// The archive parser never panics on arbitrary bytes.
    #[test]
    fn xzip_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = archive::parse(&bytes);
    }

    /// XHDF containers round-trip through encode/parse.
    #[test]
    fn xhdf_roundtrip(
        groups in proptest::collection::vec("[a-z]{1,8}", 0..5),
        datasets in proptest::collection::vec(("[a-z]{1,8}", 1u64..1000, 0usize..5), 0..5),
    ) {
        let mut c = hdf::Container::default();
        c.groups.insert("/".to_string());
        for g in &groups {
            c.groups.insert(format!("/{g}"));
        }
        let dtypes = [hdf::Dtype::F32, hdf::Dtype::F64, hdf::Dtype::I32, hdf::Dtype::I64, hdf::Dtype::Str];
        for (i, (name, dim, dt)) in datasets.iter().enumerate() {
            // Attach each dataset to the root so parents always exist.
            let path = format!("/{name}{i}");
            c.datasets.insert(path.clone(), hdf::Dataset {
                path,
                shape: vec![*dim],
                dtype: dtypes[dt % dtypes.len()],
            });
        }
        let parsed = hdf::parse(&hdf::encode(&c)).unwrap();
        prop_assert_eq!(parsed, c);
    }

    /// The XHDF parser never panics on arbitrary text.
    #[test]
    fn xhdf_parse_never_panics(text in "\\PC{0,300}") {
        let _ = hdf::parse(&text);
    }

    /// The CSV reader never panics, and when it succeeds, every column
    /// accounts for every data row.
    #[test]
    fn table_read_well_formed(text in "\\PC{0,400}") {
        if let Ok(t) = table::summarize(&text) {
            prop_assert!(t.columns.len() >= 2);
            // Cell accounting: numeric + null + text = cells per column.
            for s in &t.columns {
                prop_assert_eq!(s.numeric_count + s.null_count + s.text_count, t.rows);
            }
        }
    }

    /// The streaming CSV reader and the parser it replaced agree on shape,
    /// header, statistic for statistic and error message for error
    /// message on text dense in delimiters, quotes, line breaks and a
    /// multi-byte letter (`\PC` above never produces a second line).
    #[test]
    fn table_parse_matches_oracle(text in "[a1,\t;\" \n\ré]{0,64}") {
        oracle::assert_same_table(&text);
    }

    /// Generated tables always parse back with the same dimensions.
    #[test]
    fn generated_csv_always_parses(rows in 1usize..60, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let text = xtract_workloads::materialize::csv(&mut rng, rows);
        let t = table::summarize(&text).unwrap();
        prop_assert!(t.has_header);
        prop_assert_eq!(t.rows, rows);
        prop_assert_eq!(t.columns.len(), 4);
        oracle::assert_same_table(&text);
        oracle::assert_same_table(&text.replace("st0", "\"st,\"\"0\"\"\""));
    }
}
