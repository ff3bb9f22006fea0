//! The sharded, snapshot-isolated serving index.
//!
//! Records are partitioned across `S` shards by a hash of their
//! [`FamilyId`]. Each shard publishes an immutable [`Snapshot`] behind an
//! `Arc`: readers clone the `Arc` (the only read-side critical section is
//! that pointer clone) and then query entirely lock-free against frozen
//! data, while the shard's single writer applies a batch of updates to
//! its private working copy and atomically swaps the published pointer.
//! A query therefore never blocks on ingest and never observes a
//! half-applied record — it sees each shard either entirely before or
//! entirely after a batch.
//!
//! Within a shard the postings live in immutable **segments**: every
//! applied batch becomes one new segment, and replacing a family
//! tombstones its old `(segment, slot)` and posts only the *new*
//! document's terms. Nothing is ever re-tokenized and no other family's
//! postings are touched (the regression tests assert both structurally).
//! Tombstoned slots are excluded from matching, length normalization,
//! `idf`, facets, and [`IndexStats`], so a replacement-heavy index
//! scores byte-identically to one built fresh from the final records.
//! When a shard accumulates too many segments or too many dead slots it
//! compacts: live postings are *remapped* (copied, never re-tokenized)
//! into a single segment.
//!
//! Publication is not free, and its cost is per *batch*, not per record:
//! the published snapshot holds the other reference to the shard's
//! family map, so the first insert of every batch copies that map
//! (O(families in the shard)); every `COMPACT_SEGMENTS`-th batch on a
//! shard (or a batch that leaves more dead slots than live ones) remaps
//! every live posting of the shard; cloning the segment list on publish
//! is the only pointer-level part. A caller holding more than one record
//! therefore hands them over together with [`SearchIndex::ingest_all`] —
//! one map copy and one publish per shard for the whole batch —
//! and never loops over [`SearchIndex::ingest`]. The single-lock,
//! rebuild-on-replace design this replaces is preserved as
//! [`crate::baseline::LockedIndex`], the oracle of
//! `tests/concurrency.rs`.

use crate::query::{Hit, Query};
use parking_lot::{Mutex, RwLock};
use serde_json::{Map, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xtract_types::{FamilyId, MetadataRecord};

/// Default shard count when none is configured.
pub const DEFAULT_SHARDS: usize = 8;
/// A shard compacts once it holds this many segments.
const COMPACT_SEGMENTS: usize = 32;
/// A shard compacts once dead slots outnumber live ones *and* exceed
/// this floor (so small indexes never churn).
const COMPACT_DEAD_FLOOR: usize = 64;

/// A posting: local document slot within a segment + term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Posting {
    pub(crate) doc: u32,
    pub(crate) tf: u32,
}

/// An immutable run of documents: one applied batch (or one compaction).
#[derive(Debug, Default)]
struct Segment {
    /// Records by local slot.
    docs: Vec<Arc<MetadataRecord>>,
    /// term → postings (local slots ascending).
    postings: HashMap<String, Vec<Posting>>,
    /// Tokens per local slot (for length normalization).
    doc_len: Vec<u32>,
}

/// One shard's published state. Cloning is pointer-level: segments are
/// shared `Arc`s, liveness bitmaps are shared `Arc`s (copy-on-write per
/// segment when a tombstone lands), and the family map is one shared
/// `Arc` (copy-on-write per batch).
#[derive(Debug, Clone, Default)]
struct Snapshot {
    segments: Vec<Arc<Segment>>,
    /// Parallel to `segments`: which local slots are live.
    alive: Vec<Arc<Vec<bool>>>,
    /// family → (segment, local slot) of its *current* (live) version.
    by_family: Arc<HashMap<FamilyId, (u32, u32)>>,
    /// Live documents (docs minus tombstones).
    live_docs: usize,
    /// Tombstoned slots not yet compacted away.
    dead_docs: usize,
}

impl Snapshot {
    fn doc(&self, seg: u32, slot: u32) -> &Arc<MetadataRecord> {
        &self.segments[seg as usize].docs[slot as usize]
    }

    fn doc_len(&self, seg: u32, slot: u32) -> u32 {
        self.segments[seg as usize].doc_len[slot as usize]
    }
}

/// One shard: a writer-owned working copy and the published snapshot.
#[derive(Debug, Default)]
struct Shard {
    /// The writer's working copy; `publish` clones it (pointer-level)
    /// into a fresh `Arc` and swaps it in.
    builder: Mutex<Snapshot>,
    /// What readers see. The write-side critical section is a single
    /// pointer store, so readers are never blocked for longer than an
    /// `Arc` clone.
    published: RwLock<Arc<Snapshot>>,
}

/// Index statistics, tombstone-aware: replaced slots count toward
/// nothing but `tombstoned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Live records (replaced versions excluded).
    pub documents: usize,
    /// Distinct terms with at least one live posting.
    pub terms: usize,
    /// Live postings.
    pub postings: usize,
    /// Shards in the index.
    pub shards: usize,
    /// Immutable segments across all shards.
    pub segments: usize,
    /// Replaced slots awaiting compaction.
    pub tombstoned: usize,
}

/// Monotonic ingest-work counters, readable at any time. The regression
/// tests use them to assert replacement work is proportional to the new
/// document — not the corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestMetrics {
    /// Records ingested (including replacements).
    pub records: u64,
    /// Records that replaced an existing family.
    pub replacements: u64,
    /// Distinct terms posted across all ingests — the tokenization work
    /// actually performed.
    pub terms_posted: u64,
    /// Snapshots published (one per shard per applied batch).
    pub publishes: u64,
    /// Shard compactions run.
    pub compactions: u64,
}

#[derive(Debug, Default)]
struct MetricCells {
    records: AtomicU64,
    replacements: AtomicU64,
    terms_posted: AtomicU64,
    publishes: AtomicU64,
    compactions: AtomicU64,
}

/// A thread-safe, sharded, snapshot-isolated search index over metadata
/// records.
#[derive(Debug)]
pub struct SearchIndex {
    shards: Vec<Shard>,
    metrics: MetricCells,
}

impl Default for SearchIndex {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

/// Lowercased alphanumeric tokens of length ≥ 2 from any string.
pub(crate) fn tokenize(s: &str) -> impl Iterator<Item = String> + '_ {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() >= 2)
        .map(str::to_lowercase)
}

/// Walks every string (and object key) in a JSON value.
pub(crate) fn collect_terms(value: &Value, counts: &mut HashMap<String, u32>, total: &mut u32) {
    match value {
        Value::String(s) => {
            for t in tokenize(s) {
                *counts.entry(t).or_insert(0) += 1;
                *total += 1;
            }
        }
        Value::Array(a) => {
            for v in a {
                collect_terms(v, counts, total);
            }
        }
        Value::Object(m) => collect_terms_map(m, counts, total),
        Value::Bool(_) | Value::Number(_) | Value::Null => {}
    }
}

/// Map-level entry point: walks a document's top-level map by reference,
/// so ingest never clones the document just to read its terms.
pub(crate) fn collect_terms_map(
    map: &Map<String, Value>,
    counts: &mut HashMap<String, u32>,
    total: &mut u32,
) {
    for (k, v) in map {
        // Keys are searchable too ("find records with a
        // final_energy_ev field").
        for t in tokenize(k) {
            *counts.entry(t).or_insert(0) += 1;
            *total += 1;
        }
        collect_terms(v, counts, total);
    }
}

/// The tokenized term counts of one record (document + extractor names).
pub(crate) fn term_counts(record: &MetadataRecord) -> (HashMap<String, u32>, u32) {
    let mut counts = HashMap::new();
    let mut total = 0u32;
    collect_terms_map(&record.document.0, &mut counts, &mut total);
    for t in &record.extractors {
        for tok in tokenize(t) {
            *counts.entry(tok).or_insert(0) += 1;
            total += 1;
        }
    }
    (counts, total)
}

/// Resolves a dotted path (`matio.formula`) inside a JSON object. Path
/// segments may themselves contain dots when quoted by the caller via
/// `/`-style keys; resolution tries the longest matching key first so
/// file paths (`files./a/b.txt.rows`) still resolve.
pub(crate) fn resolve_path<'v>(value: &'v Value, path: &str) -> Option<&'v Value> {
    resolve_in_map(value.as_object()?, path)
}

/// Map-level entry point: avoids cloning a whole document into a `Value`
/// just to filter on it.
pub(crate) fn resolve_in_map<'v>(
    map: &'v serde_json::Map<String, Value>,
    path: &str,
) -> Option<&'v Value> {
    let mut obj = map;
    let mut rest = path;
    loop {
        // Longest-prefix key match against the remaining path.
        let mut chosen: Option<(&str, &Value)> = None;
        for (k, v) in obj {
            if rest == k {
                chosen = Some((k, v));
                break;
            }
            if rest.starts_with(k.as_str()) && rest.as_bytes().get(k.len()) == Some(&b'.') {
                match chosen {
                    Some((ck, _)) if ck.len() >= k.len() => {}
                    _ => chosen = Some((k, v)),
                }
            }
        }
        let (k, v) = chosen?;
        rest = rest.strip_prefix(k).unwrap_or("");
        rest = rest.strip_prefix('.').unwrap_or(rest);
        if rest.is_empty() {
            return Some(v);
        }
        obj = v.as_object()?;
    }
}

/// Disperses a family id onto a shard (splitmix64 finalizer, so
/// sequential ids spread evenly).
fn shard_of(family: FamilyId, shards: usize) -> usize {
    let mut z = family.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

/// Packs a global document key: shard ⊕ segment ⊕ slot.
fn doc_key(shard: usize, seg: u32, slot: u32) -> u64 {
    ((shard as u64) << 48) | (u64::from(seg) << 32) | u64::from(slot)
}

impl SearchIndex {
    /// An empty index with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty index with `shards` shards (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            metrics: MetricCells::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ingest-work counters so far.
    pub fn ingest_metrics(&self) -> IngestMetrics {
        IngestMetrics {
            records: self.metrics.records.load(Ordering::Relaxed),
            replacements: self.metrics.replacements.load(Ordering::Relaxed),
            terms_posted: self.metrics.terms_posted.load(Ordering::Relaxed),
            publishes: self.metrics.publishes.load(Ordering::Relaxed),
            compactions: self.metrics.compactions.load(Ordering::Relaxed),
        }
    }

    /// Ingests (or replaces) one record: a batch of one, at a batch's
    /// full price — a new one-document segment, a copy of the shard's
    /// family map, a publish, and a full-shard remap on every
    /// `COMPACT_SEGMENTS`-th call. Callers holding more than one record
    /// use [`Self::ingest_all`].
    pub fn ingest(&self, record: MetadataRecord) {
        let shard = shard_of(record.family, self.shards.len());
        self.apply_batch(shard, vec![record]);
    }

    /// Ingests many records as one batch per shard — each shard
    /// publishes exactly one new snapshot, so readers see the batch's
    /// records for a given shard appear atomically.
    pub fn ingest_all(&self, records: impl IntoIterator<Item = MetadataRecord>) {
        let mut per_shard: Vec<Vec<MetadataRecord>> = vec![Vec::new(); self.shards.len()];
        for r in records {
            per_shard[shard_of(r.family, self.shards.len())].push(r);
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.apply_batch(shard, batch);
            }
        }
    }

    /// Applies one batch to one shard and publishes the next snapshot.
    fn apply_batch(&self, shard: usize, batch: Vec<MetadataRecord>) {
        let sh = &self.shards[shard];
        let mut b = sh.builder.lock();
        let new_seg = b.segments.len() as u32;
        let mut seg = Segment::default();
        let mut seg_alive: Vec<bool> = Vec::with_capacity(batch.len());
        for record in batch {
            let (counts, total) = term_counts(&record);
            let slot = seg.docs.len() as u32;
            // Replacement: tombstone wherever the family's previous
            // version lives — an older segment, or earlier in this very
            // batch — and post only the new document's terms.
            let prev = Arc::make_mut(&mut b.by_family).insert(record.family, (new_seg, slot));
            if let Some((ps, pslot)) = prev {
                if ps == new_seg {
                    seg_alive[pslot as usize] = false;
                } else {
                    Arc::make_mut(&mut b.alive[ps as usize])[pslot as usize] = false;
                }
                b.live_docs -= 1;
                b.dead_docs += 1;
                self.metrics.replacements.fetch_add(1, Ordering::Relaxed);
            }
            self.metrics
                .terms_posted
                .fetch_add(counts.len() as u64, Ordering::Relaxed);
            self.metrics.records.fetch_add(1, Ordering::Relaxed);
            for (term, tf) in counts {
                seg.postings
                    .entry(term)
                    .or_default()
                    .push(Posting { doc: slot, tf });
            }
            seg.doc_len.push(total.max(1));
            seg.docs.push(Arc::new(record));
            seg_alive.push(true);
            b.live_docs += 1;
        }
        if !seg.docs.is_empty() {
            b.segments.push(Arc::new(seg));
            b.alive.push(Arc::new(seg_alive));
        }
        if b.segments.len() >= COMPACT_SEGMENTS
            || (b.dead_docs >= COMPACT_DEAD_FLOOR && b.dead_docs >= b.live_docs)
        {
            Self::compact(&mut b);
            self.metrics.compactions.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.publishes.fetch_add(1, Ordering::Relaxed);
        *sh.published.write() = Arc::new(b.clone());
    }

    /// Remaps all live postings into a single fresh segment, dropping
    /// tombstoned slots. Pure copy — no re-tokenization.
    fn compact(b: &mut Snapshot) {
        let mut merged = Segment::default();
        let mut by_family: HashMap<FamilyId, (u32, u32)> = HashMap::with_capacity(b.live_docs);
        for (si, old) in b.segments.iter().enumerate() {
            let alive = &b.alive[si];
            // Old local slot → new local slot, for live slots only.
            let mut remap: HashMap<u32, u32> = HashMap::new();
            for (slot, doc) in old.docs.iter().enumerate() {
                if alive[slot] {
                    let new_slot = merged.docs.len() as u32;
                    remap.insert(slot as u32, new_slot);
                    by_family.insert(doc.family, (0, new_slot));
                    merged.docs.push(Arc::clone(doc));
                    merged.doc_len.push(old.doc_len[slot]);
                }
            }
            for (term, list) in &old.postings {
                let live: Vec<Posting> = list
                    .iter()
                    .filter_map(|p| remap.get(&p.doc).map(|&doc| Posting { doc, tf: p.tf }))
                    .collect();
                if !live.is_empty() {
                    merged
                        .postings
                        .entry(term.clone())
                        .or_default()
                        .extend(live);
                }
            }
        }
        let n = merged.docs.len();
        b.segments = vec![Arc::new(merged)];
        b.alive = vec![Arc::new(vec![true; n])];
        b.by_family = Arc::new(by_family);
        b.live_docs = n;
        b.dead_docs = 0;
    }

    /// The published snapshot of every shard — the consistent view one
    /// query runs against.
    fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.shards
            .iter()
            .map(|s| Arc::clone(&s.published.read()))
            .collect()
    }

    /// Index statistics (tombstone-aware).
    pub fn stats(&self) -> IndexStats {
        let snaps = self.snapshots();
        let mut terms: HashSet<&str> = HashSet::new();
        let mut postings = 0usize;
        let mut segments = 0usize;
        for snap in &snaps {
            segments += snap.segments.len();
            for (si, seg) in snap.segments.iter().enumerate() {
                let alive = &snap.alive[si];
                for (term, list) in &seg.postings {
                    let live = list.iter().filter(|p| alive[p.doc as usize]).count();
                    if live > 0 {
                        terms.insert(term.as_str());
                        postings += live;
                    }
                }
            }
        }
        IndexStats {
            documents: snaps.iter().map(|s| s.live_docs).sum(),
            terms: terms.len(),
            postings,
            shards: self.shards.len(),
            segments,
            tombstoned: snaps.iter().map(|s| s.dead_docs).sum(),
        }
    }

    /// Runs a query; hits are ranked by TF·IDF, ties broken by family
    /// id. `idf` is global — computed from live postings across all
    /// shards — so results are identical to a single-shard index over
    /// the same records.
    pub fn search(&self, query: &Query) -> Vec<Hit> {
        let snaps = self.snapshots();
        let n_live: usize = snaps.iter().map(|s| s.live_docs).sum();
        if n_live == 0 {
            return Vec::new();
        }
        let terms: Vec<String> = query.terms.iter().flat_map(|t| tokenize(t)).collect();

        // Pass 1: gather each term's live matches everywhere, so the
        // global document frequency is known before any score is added.
        let mut matches: Vec<Vec<(usize, u32, u32, u32)>> = Vec::with_capacity(terms.len());
        for term in &terms {
            let mut m = Vec::new();
            for (si, snap) in snaps.iter().enumerate() {
                for (gi, seg) in snap.segments.iter().enumerate() {
                    if let Some(list) = seg.postings.get(term) {
                        let alive = &snap.alive[gi];
                        for p in list {
                            if alive[p.doc as usize] {
                                m.push((si, gi as u32, p.doc, p.tf));
                            }
                        }
                    }
                }
            }
            matches.push(m);
        }

        // Pass 2: score. Per-document accumulation happens in query-term
        // order, exactly like the reference scorer, so floating-point
        // sums agree bitwise.
        let mut scores: HashMap<u64, f64> = HashMap::new();
        let mut matched_terms: HashMap<u64, usize> = HashMap::new();
        for m in &matches {
            if m.is_empty() {
                continue;
            }
            let idf = (n_live as f64 / m.len() as f64).ln() + 1.0;
            for &(si, gi, slot, tf) in m {
                let key = doc_key(si, gi, slot);
                let dl = f64::from(snaps[si].doc_len(gi, slot));
                *scores.entry(key).or_insert(0.0) += f64::from(tf) / dl * idf;
                *matched_terms.entry(key).or_insert(0) += 1;
            }
        }

        let candidates: Vec<u64> = if terms.is_empty() {
            let mut all = Vec::with_capacity(n_live);
            for (si, snap) in snaps.iter().enumerate() {
                for (gi, seg) in snap.segments.iter().enumerate() {
                    let alive = &snap.alive[gi];
                    for slot in 0..seg.docs.len() {
                        if alive[slot] {
                            all.push(doc_key(si, gi as u32, slot as u32));
                        }
                    }
                }
            }
            all
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
            .filter_map(|key| {
                let (si, gi, slot) = (
                    (key >> 48) as usize,
                    (key >> 32) as u32 & 0xFFFF,
                    key as u32,
                );
                let doc = snaps[si].doc(gi, slot);
                if !query.filters.iter().all(|f| f.matches_map(&doc.document.0)) {
                    return None;
                }
                Some(Hit {
                    family: doc.family,
                    score: scores.get(&key).copied().unwrap_or(0.0),
                    schema: doc.schema.clone(),
                })
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.family.cmp(&b.family)));
        hits.truncate(query.limit);
        hits
    }

    /// Facet counts: distinct values of `field` (dotted path) across all
    /// documents matching `query`.
    pub fn facet(&self, query: &Query, field: &str) -> BTreeMap<String, u64> {
        let hits = self.search(&Query {
            limit: usize::MAX,
            ..query.clone()
        });
        let mut out = BTreeMap::new();
        for hit in hits {
            let Some(rec) = self.get_arc(hit.family) else {
                continue;
            };
            if let Some(v) = resolve_in_map(&rec.document.0, field) {
                let key = match v {
                    Value::String(s) => s.clone(),
                    other => other.to_string(),
                };
                *out.entry(key).or_insert(0) += 1;
            }
        }
        out
    }

    /// Fetches the full record for a family.
    pub fn get(&self, family: FamilyId) -> Option<MetadataRecord> {
        self.get_arc(family).map(|r| (*r).clone())
    }

    /// Fetches the shared record for a family without copying the
    /// document.
    pub fn get_arc(&self, family: FamilyId) -> Option<Arc<MetadataRecord>> {
        let shard = shard_of(family, self.shards.len());
        let snap = Arc::clone(&self.shards[shard].published.read());
        let &(seg, slot) = snap.by_family.get(&family)?;
        Some(Arc::clone(snap.doc(seg, slot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Filter;
    use serde_json::json;
    use xtract_types::Metadata;

    fn record(family: u64, doc: Value) -> MetadataRecord {
        MetadataRecord {
            family: FamilyId::new(family),
            schema: "passthrough".to_string(),
            document: match doc {
                Value::Object(m) => Metadata(m),
                _ => panic!("expected object"),
            },
            extractors: vec!["keyword".to_string()],
        }
    }

    fn sample_index() -> SearchIndex {
        let idx = SearchIndex::new();
        idx.ingest(record(
            1,
            json!({
                "keyword": {"keywords": [{"word": "perovskite", "weight": 0.8}]},
                "matio": {"formula": "Si8 O16", "converged": true, "final_energy_ev": -102.5}
            }),
        ));
        idx.ingest(record(
            2,
            json!({
                "keyword": {"keywords": [{"word": "graphene", "weight": 0.9}]},
                "tabular": {"rows": 500}
            }),
        ));
        idx.ingest(record(
            3,
            json!({
                "keyword": {"keywords": [
                    {"word": "perovskite", "weight": 0.5},
                    {"word": "graphene", "weight": 0.4}
                ]}
            }),
        ));
        idx
    }

    #[test]
    fn term_search_ranks_by_tfidf() {
        let idx = sample_index();
        let hits = idx.search(&Query::terms(&["perovskite"]));
        assert_eq!(hits.len(), 2);
        // Family 3's document is shorter, so its term density (tf) is
        // higher and it ranks first.
        assert_eq!(hits[0].family, FamilyId::new(3));
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn require_all_terms_is_conjunctive() {
        let idx = sample_index();
        let mut q = Query::terms(&["perovskite", "graphene"]);
        q.require_all_terms = true;
        let hits = idx.search(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].family, FamilyId::new(3));
        q.require_all_terms = false;
        assert_eq!(idx.search(&q).len(), 3);
    }

    #[test]
    fn field_filters_narrow_matches() {
        let idx = sample_index();
        let q = Query {
            terms: vec![],
            filters: vec![Filter::eq("matio.converged", json!(true))],
            require_all_terms: false,
            limit: 10,
        };
        let hits = idx.search(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].family, FamilyId::new(1));
    }

    #[test]
    fn numeric_range_filters() {
        let idx = sample_index();
        let q = Query {
            terms: vec![],
            filters: vec![Filter::gt("tabular.rows", 100.0)],
            require_all_terms: false,
            limit: 10,
        };
        assert_eq!(idx.search(&q).len(), 1);
        let q2 = Query {
            filters: vec![Filter::lt("matio.final_energy_ev", -100.0)],
            ..Query::terms(&[])
        };
        assert_eq!(idx.search(&q2)[0].family, FamilyId::new(1));
    }

    #[test]
    fn empty_terms_match_everything() {
        let idx = sample_index();
        assert_eq!(idx.search(&Query::terms(&[])).len(), 3);
    }

    #[test]
    fn reingestion_replaces() {
        let idx = sample_index();
        idx.ingest(record(
            1,
            json!({"keyword": {"keywords": [{"word": "zeolite"}]}}),
        ));
        assert_eq!(idx.stats().documents, 3);
        assert!(idx.search(&Query::terms(&["zeolite"])).len() == 1);
        // The old content of family 1 no longer matches.
        let hits = idx.search(&Query::terms(&["perovskite"]));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].family, FamilyId::new(3));
    }

    #[test]
    fn facets_count_values() {
        let idx = SearchIndex::new();
        for (i, class) in ["plot", "plot", "photograph"].iter().enumerate() {
            idx.ingest(record(i as u64, json!({"images": {"class": class}})));
        }
        let facets = idx.facet(&Query::terms(&[]), "images.class");
        assert_eq!(facets["plot"], 2);
        assert_eq!(facets["photograph"], 1);
    }

    #[test]
    fn get_returns_full_record() {
        let idx = sample_index();
        let rec = idx.get(FamilyId::new(2)).unwrap();
        assert_eq!(rec.document.get("tabular").unwrap()["rows"], 500);
        assert!(idx.get(FamilyId::new(99)).is_none());
    }

    #[test]
    fn stats_track_growth() {
        let idx = sample_index();
        let s = idx.stats();
        assert_eq!(s.documents, 3);
        assert!(s.terms > 5);
        assert!(s.postings >= s.terms);
        assert_eq!(s.shards, DEFAULT_SHARDS);
    }

    #[test]
    fn dotted_path_resolution_handles_path_like_keys() {
        let doc = json!({"keyword": {"files": {"/a/b.txt": {"token_count": 42}}}});
        let v = resolve_path(&doc, "keyword.files./a/b.txt.token_count").unwrap();
        assert_eq!(v, &json!(42));
        assert!(resolve_path(&doc, "keyword.files.missing").is_none());
    }

    // ---- sharded snapshot semantics -------------------------------------

    /// Builds a family whose document carries both a distinctive term and
    /// a shared common term.
    fn tagged(family: u64, tag: &str) -> MetadataRecord {
        record(
            family,
            json!({"doc": {"tag": tag, "note": "materials common corpus"}}),
        )
    }

    #[test]
    fn replacement_touches_no_other_segment() {
        // One shard so every family shares a segment chain.
        let idx = SearchIndex::with_shards(1);
        idx.ingest_all((0..10).map(|i| tagged(i, &format!("uniq{i}"))));
        idx.ingest_all((10..20).map(|i| tagged(i, &format!("uniq{i}"))));
        let before = Arc::clone(&idx.shards[0].published.read());
        assert_eq!(before.segments.len(), 2);

        // Replace one family from the first batch.
        idx.ingest(tagged(3, "fresh3"));
        let after = Arc::clone(&idx.shards[0].published.read());

        // The untouched second segment is byte-for-byte the same
        // allocation — replacement re-posted nothing outside the new
        // record's own segment.
        assert!(Arc::ptr_eq(&before.segments[1], &after.segments[1]));
        assert!(Arc::ptr_eq(&before.segments[0], &after.segments[0]));
        // The old slot is tombstoned, the new one live.
        assert_eq!(after.dead_docs, 1);
        assert_eq!(after.live_docs, 20);
        assert!(idx.search(&Query::terms(&["uniq3"])).is_empty());
        assert_eq!(idx.search(&Query::terms(&["fresh3"])).len(), 1);
    }

    #[test]
    fn replacement_work_is_proportional_to_the_new_document() {
        let idx = SearchIndex::with_shards(4);
        idx.ingest_all((0..500).map(|i| tagged(i, &format!("uniq{i}"))));
        let before = idx.ingest_metrics().terms_posted;
        idx.ingest(tagged(250, "fresh250"));
        let delta = idx.ingest_metrics().terms_posted - before;
        // The replacement posted only the new record's own distinct
        // terms (single digits), not the corpus's.
        assert!(delta < 16, "replacement posted {delta} terms");
        assert_eq!(idx.ingest_metrics().replacements, 1);
    }

    #[test]
    fn reingest_heavy_workload_is_not_quadratic() {
        // 1 500 replacements over a 1 500-document corpus. The old
        // design re-tokenized the whole corpus per replacement (O(N²)
        // token work); the sharded index posts only each new document.
        let n = 1_500u64;
        let idx = SearchIndex::with_shards(DEFAULT_SHARDS);
        idx.ingest_all((0..n).map(|i| tagged(i, &format!("uniq{i}"))));
        let baseline = idx.ingest_metrics().terms_posted;
        let started = std::time::Instant::now();
        for i in 0..n {
            idx.ingest(tagged(i, &format!("re{i}")));
        }
        let token_work = idx.ingest_metrics().terms_posted - baseline;
        // Linear in replacements (each record posts < 16 distinct
        // terms), nowhere near the ~n²/2 the rebuild design performed.
        assert!(token_work < n * 16, "posted {token_work} terms");
        assert_eq!(idx.ingest_metrics().replacements, n);
        assert_eq!(idx.stats().documents, n as usize);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "re-ingest sweep took {:?}",
            started.elapsed()
        );
    }

    /// Rebuilds an index holding only each family's latest version.
    fn fresh_copy(idx: &SearchIndex, families: impl Iterator<Item = u64>) -> SearchIndex {
        let fresh = SearchIndex::with_shards(idx.shard_count());
        fresh.ingest_all(families.filter_map(|f| idx.get(FamilyId::new(f))));
        fresh
    }

    #[test]
    fn replaced_docs_score_like_a_fresh_index() {
        let idx = SearchIndex::with_shards(3);
        idx.ingest_all((0..40).map(|i| tagged(i, &format!("uniq{i}"))));
        for i in (0..40).step_by(3) {
            idx.ingest(tagged(i, &format!("fresh{i}")));
        }
        let fresh = fresh_copy(&idx, 0..40);
        for q in [
            Query::terms(&["common"]),
            Query::terms(&["materials", "fresh3"]),
            Query::terms(&["uniq4", "uniq7", "common"]),
            Query {
                limit: usize::MAX,
                ..Query::terms(&["corpus"])
            },
        ] {
            let a = idx.search(&q);
            let b = fresh.search(&q);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.family, y.family);
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "score drift for {q:?}"
                );
            }
        }
        // Stats agree too: tombstones count toward nothing live.
        let (s, f) = (idx.stats(), fresh.stats());
        assert_eq!(s.documents, f.documents);
        assert_eq!(s.terms, f.terms);
        assert_eq!(s.postings, f.postings);
    }

    #[test]
    fn compaction_preserves_results_and_drops_tombstones() {
        let idx = SearchIndex::with_shards(1);
        // Enough single-record batches to trip the segment-count
        // compaction, plus replacements to trip the dead-slot one.
        for round in 0..3 {
            for i in 0..COMPACT_DEAD_FLOOR as u64 + 10 {
                idx.ingest(tagged(i, &format!("r{round}v{i}")));
            }
        }
        assert!(idx.ingest_metrics().compactions > 0);
        let stats = idx.stats();
        assert_eq!(stats.documents, COMPACT_DEAD_FLOOR + 10);
        let fresh = fresh_copy(&idx, 0..COMPACT_DEAD_FLOOR as u64 + 10);
        let q = Query {
            limit: usize::MAX,
            ..Query::terms(&["common"])
        };
        let (a, b) = (idx.search(&q), fresh.search(&q));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.family, x.score.to_bits()), (y.family, y.score.to_bits()));
        }
        // Old versions are gone even after the merge.
        assert!(idx.search(&Query::terms(&["r0v5"])).is_empty());
        assert_eq!(idx.search(&Query::terms(&["r2v5"])).len(), 1);
    }

    #[test]
    fn single_shard_and_many_shards_agree() {
        let one = SearchIndex::with_shards(1);
        let many = SearchIndex::with_shards(7);
        for i in 0..30 {
            let r = tagged(i, &format!("uniq{i}"));
            one.ingest(r.clone());
            many.ingest(r);
        }
        for q in [
            Query::terms(&["common"]),
            Query::terms(&["uniq11"]),
            Query::terms(&[]),
        ] {
            let q = Query {
                limit: usize::MAX,
                ..q
            };
            let (a, b) = (one.search(&q), many.search(&q));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.family, x.score.to_bits()), (y.family, y.score.to_bits()));
            }
        }
    }
}
