//! The keyword extractor (§4.2): "identifies uniquely descriptive words in
//! unstructured free text documents ... It uses word embeddings to curate
//! a list of the top-n keywords in a file, and an associated weight
//! corresponding to the relative relevance of a given keyword."
//!
//! Substitution: TF × rarity scoring (see [`super::text_util`]) instead of
//! embeddings — same output shape (ranked keywords with weights), same
//! role in the pipeline.
//!
//! Dynamic planning hook (§3): while reading a "free text" file, the
//! extractor notices consistent delimiter structure and reports a
//! discovered [`FileType::Tabular`], which makes the planner append the
//! tabular and null-value extractors (§5.8.2: "some files are processed by
//! multiple extractors: for example, when a text file contains both free
//! text and tabular content").

use crate::extractor::{ExtractOutput, Extractor, FileSource};
use crate::formats::table;
use crate::impls::text_util::{for_each_token, rarity_weight};
use serde_json::json;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use xtract_types::{ExtractorKind, Family, FileType, Metadata, Result};

/// The per-file word map's hasher: each 8-byte word of the key is xored
/// into the state and folded through one 64×64→128-bit multiply, where
/// SipHash spends its rounds on every token of the file. The state starts
/// from a seed drawn per map from `RandomState`, so which words collide
/// cannot be worked out from the file alone.
#[derive(Debug, Clone, Copy)]
struct WordHasher(u64);

impl WordHasher {
    fn seeded() -> Self {
        Self(RandomState::new().build_hasher().finish())
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            let product =
                u128::from(self.0 ^ word) * u128::from(0x9E37_79B9_7F4A_7C15 ^ chunk.len() as u64);
            self.0 = product as u64 ^ (product >> 64) as u64;
        }
    }

    // `str` ends its bytes with 0xff so that tuples of strings differ; one
    // key is one string, and each chunk's length is already folded in.
    fn write_u8(&mut self, _: u8) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

impl BuildHasher for WordHasher {
    type Hasher = Self;

    fn build_hasher(&self) -> Self {
        *self
    }
}

/// Keyword extraction over free text.
#[derive(Debug, Clone)]
pub struct KeywordExtractor {
    /// How many keywords to keep (paper: "top-n").
    pub top_n: usize,
}

impl Default for KeywordExtractor {
    fn default() -> Self {
        Self { top_n: 10 }
    }
}

impl Extractor for KeywordExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::Keyword
    }

    fn accepts(&self, t: FileType) -> bool {
        matches!(
            t,
            FileType::FreeText | FileType::Presentation | FileType::Unknown
        )
    }

    fn extract(&self, family: &Family, source: &dyn FileSource) -> Result<ExtractOutput> {
        let mut out = ExtractOutput::default();
        let mut family_counts: HashMap<String, u64> = HashMap::new();
        let mut docs = 0usize;
        for file in family.files.iter().filter(|f| self.accepts(f.hint)) {
            let bytes = source.read(file)?;
            let mut md = Metadata::new();
            let Ok(text) = std::str::from_utf8(&bytes) else {
                md.insert("error", "not valid UTF-8 text");
                out.per_file.push((file.path.clone(), md));
                continue;
            };
            // Tabular-content detection: a "free text" file that parses as
            // a clean table gets routed onward.
            if file.hint != FileType::Tabular && table::summarize(text).is_ok() {
                out.discovered.push((file.path.clone(), FileType::Tabular));
            }
            docs += 1;
            // Keys borrow from the text where it already spells the word
            // in lowercase; any other word is copied on its first sighting.
            let mut counts: HashMap<Cow<'_, str>, u64, _> =
                HashMap::with_hasher(WordHasher::seeded());
            let mut token_count = 0usize;
            for_each_token(text, |t| {
                token_count += 1;
                match counts.get_mut(t.as_ref()) {
                    Some(c) => *c += 1,
                    None => {
                        counts.insert(t.clone(), 1);
                    }
                }
            });
            let total = token_count.max(1) as f64;
            let mut scored: Vec<(&str, f64)> = counts
                .iter()
                .map(|(w, &c)| (w.as_ref(), (c as f64 / total) * rarity_weight(w)))
                .filter(|(_, s)| *s > 0.0)
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
            scored.truncate(self.top_n);
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
            md.insert("token_count", token_count);
            for (w, _) in &scored {
                *family_counts.entry((*w).to_string()).or_insert(0) += 1;
            }
            out.per_file.push((file.path.clone(), md));
        }
        let mut fam_md = Metadata::new();
        fam_md.insert("documents", docs);
        let mut shared: Vec<(&String, &u64)> =
            family_counts.iter().filter(|(_, &c)| c > 1).collect();
        shared.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        fam_md.insert(
            "shared_keywords",
            json!(shared
                .iter()
                .take(self.top_n)
                .map(|(w, _)| w)
                .collect::<Vec<_>>()),
        );
        out.family_metadata = fam_md;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::MapSource;
    use xtract_types::{EndpointId, FamilyId, FileRecord, Group, GroupId};

    fn family(paths: &[(&str, FileType)]) -> Family {
        let files: Vec<FileRecord> = paths
            .iter()
            .map(|(p, t)| FileRecord::new(*p, 0, EndpointId::new(0), *t))
            .collect();
        let g = Group::new(
            GroupId::new(0),
            files.iter().map(|f| f.path.clone()).collect(),
        );
        Family::new(FamilyId::new(0), files, vec![g], EndpointId::new(0))
    }

    #[test]
    fn domain_terms_rank_first() {
        let text = "We study perovskite solar cells. The perovskite lattice \
                    exhibits remarkable photoluminescence. Perovskite synthesis \
                    used spin coating and the photoluminescence was measured.";
        let mut src = MapSource::new();
        src.insert("/abstract.txt", text.as_bytes().to_vec());
        let fam = family(&[("/abstract.txt", FileType::FreeText)]);
        let out = KeywordExtractor::default().extract(&fam, &src).unwrap();
        let (path, md) = &out.per_file[0];
        assert_eq!(path, "/abstract.txt");
        let kws = md.get("keywords").unwrap().as_array().unwrap();
        assert_eq!(kws[0]["word"], "perovskite");
        let w0 = kws[0]["weight"].as_f64().unwrap();
        let w_last = kws.last().unwrap()["weight"].as_f64().unwrap();
        assert!(w0 >= w_last);
        assert!((0.0..=1.0).contains(&w0));
    }

    #[test]
    fn tabular_content_is_discovered() {
        let mut src = MapSource::new();
        src.insert(
            "/data.txt",
            b"site,year,co2\nmlo,1990,354.2\nbrw,1990,352.9\n".to_vec(),
        );
        let fam = family(&[("/data.txt", FileType::FreeText)]);
        let out = KeywordExtractor::default().extract(&fam, &src).unwrap();
        assert_eq!(
            out.discovered,
            vec![("/data.txt".to_string(), FileType::Tabular)]
        );
    }

    #[test]
    fn binary_garbage_is_recorded_not_fatal() {
        let mut src = MapSource::new();
        src.insert("/weird.bin", vec![0xff, 0xfe, 0x80, 0x81]);
        src.insert("/fine.txt", b"excellent spectroscopy results".to_vec());
        let fam = family(&[
            ("/weird.bin", FileType::Unknown),
            ("/fine.txt", FileType::FreeText),
        ]);
        let out = KeywordExtractor::default().extract(&fam, &src).unwrap();
        assert_eq!(out.per_file.len(), 2);
        assert!(out.per_file[0].1.contains("error"));
        assert!(out.per_file[1].1.contains("keywords"));
    }

    #[test]
    fn non_text_files_are_skipped() {
        let mut src = MapSource::new();
        src.insert("/doc.txt", b"magnetometry data here".to_vec());
        let fam = family(&[
            ("/doc.txt", FileType::FreeText),
            ("/img.ximg", FileType::Image),
        ]);
        // The image file has no bytes in the source: if the extractor tried
        // to read it, this would fail.
        let out = KeywordExtractor::default().extract(&fam, &src).unwrap();
        assert_eq!(out.per_file.len(), 1);
    }

    #[test]
    fn missing_owned_file_aborts() {
        let src = MapSource::new();
        let fam = family(&[("/gone.txt", FileType::FreeText)]);
        assert!(KeywordExtractor::default().extract(&fam, &src).is_err());
    }

    #[test]
    fn shared_keywords_span_documents() {
        let mut src = MapSource::new();
        src.insert(
            "/a.txt",
            b"graphene conductivity measurements graphene".to_vec(),
        );
        src.insert("/b.txt", b"graphene bilayer stacking order".to_vec());
        let fam = family(&[
            ("/a.txt", FileType::FreeText),
            ("/b.txt", FileType::FreeText),
        ]);
        let out = KeywordExtractor::default().extract(&fam, &src).unwrap();
        let shared = out
            .family_metadata
            .get("shared_keywords")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(shared.iter().any(|w| w == "graphene"));
        assert_eq!(out.family_metadata.get("documents").unwrap(), 2);
    }

    #[test]
    fn top_n_is_respected() {
        let mut src = MapSource::new();
        src.insert(
            "/many.txt",
            b"alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima mike november".to_vec(),
        );
        let fam = family(&[("/many.txt", FileType::FreeText)]);
        let out = KeywordExtractor { top_n: 3 }.extract(&fam, &src).unwrap();
        let kws = out.per_file[0]
            .1
            .get("keywords")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(kws.len(), 3);
    }
}
