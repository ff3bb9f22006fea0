//! The single-lock index the sharded snapshot design replaced.
//!
//! One `RwLock` guards everything: readers block while a writer holds
//! the lock, and replacing a family rebuilds the *entire* index —
//! re-tokenizing every document — under that write lock. It is preserved
//! as the **reference scorer**: its results define correct TF·IDF
//! ranking, and the property tests and `tests/concurrency.rs` assert
//! [`crate::SearchIndex`] returns bitwise-identical scores.
//!
//! Do not use it for serving.

use crate::index::{term_counts, tokenize, Posting};
use crate::query::{Hit, Query};
use parking_lot::RwLock;
use std::collections::HashMap;
use xtract_types::{FamilyId, MetadataRecord};

#[derive(Debug, Default)]
struct Inner {
    /// Ingested records, by slot.
    docs: Vec<MetadataRecord>,
    /// Family → slot (re-ingestion replaces).
    by_family: HashMap<FamilyId, u32>,
    /// term → postings (slots ascending).
    postings: HashMap<String, Vec<Posting>>,
    /// Tokens per document (for length normalization).
    doc_len: Vec<u32>,
}

/// The historical single-`RwLock` in-memory index.
#[derive(Debug, Default)]
pub struct LockedIndex {
    inner: RwLock<Inner>,
}

impl LockedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests (or replaces) one record. Replacement rebuilds the whole
    /// index under the write lock — the O(N)-per-replace behavior the
    /// sharded index exists to avoid.
    pub fn ingest(&self, record: MetadataRecord) {
        let mut inner = self.inner.write();
        if let Some(&slot) = inner.by_family.get(&record.family) {
            inner.docs[slot as usize] = record;
            let rebuilt = std::mem::take(&mut *inner);
            *inner = Inner::default();
            for doc in rebuilt.docs {
                Self::ingest_locked(&mut inner, doc);
            }
            return;
        }
        Self::ingest_locked(&mut inner, record);
    }

    fn ingest_locked(inner: &mut Inner, record: MetadataRecord) {
        let slot = inner.docs.len() as u32;
        let (counts, total) = term_counts(&record);
        for (term, tf) in counts {
            inner
                .postings
                .entry(term)
                .or_default()
                .push(Posting { doc: slot, tf });
        }
        inner.doc_len.push(total.max(1));
        inner.by_family.insert(record.family, slot);
        inner.docs.push(record);
    }

    /// Ingests many records.
    pub fn ingest_all(&self, records: impl IntoIterator<Item = MetadataRecord>) {
        for r in records {
            self.ingest(r);
        }
    }

    /// Live documents.
    pub fn documents(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// Runs a query; hits are ranked by TF·IDF, ties broken by family
    /// id.
    pub fn search(&self, query: &Query) -> Vec<Hit> {
        let inner = self.inner.read();
        let n_docs = inner.docs.len() as f64;
        if n_docs == 0.0 {
            return Vec::new();
        }
        let mut scores: HashMap<u32, f64> = HashMap::new();
        let mut matched_terms: HashMap<u32, usize> = HashMap::new();
        let terms: Vec<String> = query.terms.iter().flat_map(|t| tokenize(t)).collect();
        for term in &terms {
            if let Some(postings) = inner.postings.get(term) {
                let idf = (n_docs / postings.len() as f64).ln() + 1.0;
                for p in postings {
                    let tf = f64::from(p.tf) / f64::from(inner.doc_len[p.doc as usize]);
                    *scores.entry(p.doc).or_insert(0.0) += tf * idf;
                    *matched_terms.entry(p.doc).or_insert(0) += 1;
                }
            }
        }
        let candidates: Vec<u32> = if terms.is_empty() {
            (0..inner.docs.len() as u32).collect()
        } else if query.require_all_terms {
            matched_terms
                .iter()
                .filter(|(_, &m)| m == terms.len())
                .map(|(&d, _)| d)
                .collect()
        } else {
            scores.keys().copied().collect()
        };

        let mut hits: Vec<Hit> = candidates
            .into_iter()
            .filter(|&d| {
                query
                    .filters
                    .iter()
                    .all(|f| f.matches_map(&inner.docs[d as usize].document.0))
            })
            .map(|d| Hit {
                family: inner.docs[d as usize].family,
                score: scores.get(&d).copied().unwrap_or(0.0),
                schema: inner.docs[d as usize].schema.clone(),
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.family.cmp(&b.family)));
        hits.truncate(query.limit);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use xtract_types::Metadata;

    fn record(family: u64, doc: serde_json::Value) -> MetadataRecord {
        MetadataRecord {
            family: FamilyId::new(family),
            schema: "passthrough".to_string(),
            document: match doc {
                serde_json::Value::Object(m) => Metadata(m),
                _ => panic!("expected object"),
            },
            extractors: vec!["keyword".to_string()],
        }
    }

    #[test]
    fn reference_scorer_matches_sharded_index() {
        let reference = LockedIndex::new();
        let sharded = crate::SearchIndex::new();
        for i in 0..25u64 {
            let r = record(
                i,
                json!({"doc": {"tag": format!("uniq{i}"), "note": "shared corpus"}}),
            );
            reference.ingest(r.clone());
            sharded.ingest(r);
        }
        for q in [
            Query::terms(&["shared"]),
            Query::terms(&["uniq7", "corpus"]),
        ] {
            let q = Query {
                limit: usize::MAX,
                ..q
            };
            let (a, b) = (reference.search(&q), sharded.search(&q));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.family, x.score.to_bits()), (y.family, y.score.to_bits()));
            }
        }
    }
}
