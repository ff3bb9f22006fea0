//! Checkpointing (§5.8.1).
//!
//! "For this experiment we checkpointed progress via a 'checkpoint-flag'
//! in the extractor that, when present, flushes each processed group's
//! metadata to disk on completion. When funcX returns a heartbeat ...
//! stating that a family's task id is lost (i.e., the allocation ended),
//! then the entire family is resubmitted, and in the presence of the
//! 'checkpoint-flag', the metadata are re-loaded."
//!
//! The store is keyed by `(family, extractor)` so a resubmitted family
//! skips extractors whose output already flushed — only unfinished steps
//! re-execute. Serialization round-trips through JSON so a checkpoint can
//! live on any data layer.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use xtract_obs::{Counter, MetricsHub};
use xtract_types::{DeadLetter, FamilyId, Metadata, Result, XtractError};

/// One flushed entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The family.
    pub family: FamilyId,
    /// Extractor name whose output this is.
    pub extractor: String,
    /// The flushed metadata: a handle to the step's one allocation, which
    /// the recovery log's `StepCompleted` record and the wave loop's
    /// per-family step list share too. The store never holds a copy of
    /// its own, and the wave loop drops the store with its last wave, so
    /// the family's record can take the allocation over. Serializes
    /// transparently (serde's `rc` feature), so the image's JSON is
    /// byte-identical to the pre-`Arc` format.
    pub metadata: Arc<Metadata>,
}

/// The serialized form: flushed outputs plus the job's dead letters, so a
/// restart knows both what succeeded and what was terminally abandoned.
/// Also the snapshot payload the recovery log compacts a job's history
/// into, so the frame is public and round-trip-tested (JSON and the WAL
/// framing) by proptests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointImage {
    /// Flushed `(family, extractor)` outputs, sorted for determinism.
    pub entries: Vec<CheckpointEntry>,
    /// Terminally abandoned families.
    #[serde(default)]
    pub dead_letters: Vec<DeadLetter>,
}

/// Flushed outputs plus the per-family secondary index that makes
/// resume-time skip checks O(extractors-per-family) instead of a scan of
/// every entry in the job. Both structures live under one lock so they
/// can never disagree.
#[derive(Debug, Default)]
struct Flushed {
    entries: HashMap<(FamilyId, String), Arc<Metadata>>,
    by_family: HashMap<FamilyId, BTreeSet<String>>,
}

impl Flushed {
    fn insert(&mut self, family: FamilyId, extractor: String, metadata: Arc<Metadata>) {
        self.by_family
            .entry(family)
            .or_default()
            .insert(extractor.clone());
        self.entries.insert((family, extractor), metadata);
    }
}

/// A thread-safe checkpoint store for one job.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    flushed: RwLock<Flushed>,
    dead_letters: RwLock<Vec<DeadLetter>>,
    flushes: Counter,
    hits: Counter,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store whose flush/hit counters are interned in `hub` as
    /// `checkpoint.flushes` and `checkpoint.hits`.
    pub fn with_obs(hub: &MetricsHub) -> Self {
        let mut store = Self::new();
        store.flushes = hub.counter("checkpoint.flushes");
        store.hits = hub.counter("checkpoint.hits");
        store
    }

    /// Flushes one completed extractor's output for a family.
    pub fn flush(&self, family: FamilyId, extractor: &str, metadata: Arc<Metadata>) {
        self.flushes.incr();
        self.flushed
            .write()
            .insert(family, extractor.to_string(), metadata);
    }

    /// Rehydrates one entry during log replay *without* charging the
    /// `checkpoint.flushes` counter: the flush already happened (and was
    /// counted) in the run that journaled it, so resume restoring it must
    /// not make the cumulative flush count disagree with an uninterrupted
    /// run's.
    pub fn restore(&self, family: FamilyId, extractor: &str, metadata: Arc<Metadata>) {
        self.flushed
            .write()
            .insert(family, extractor.to_string(), metadata);
    }

    /// Loads a previously-flushed output, if any. The returned handle
    /// shares the stored allocation (no deep copy).
    pub fn load(&self, family: FamilyId, extractor: &str) -> Option<Arc<Metadata>> {
        let found = self
            .flushed
            .read()
            .entries
            .get(&(family, extractor.to_string()))
            .cloned();
        if found.is_some() {
            self.hits.incr();
        }
        found
    }

    /// Extractor names already completed for `family`, sorted. Served
    /// from the per-family index: cost is proportional to the family's
    /// own completed steps, not to every entry in the job.
    pub fn completed_extractors(&self, family: FamilyId) -> Vec<String> {
        self.flushed
            .read()
            .by_family
            .get(&family)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of flushed entries.
    pub fn len(&self) -> usize {
        self.flushed.read().entries.len()
    }

    /// True when nothing has flushed.
    pub fn is_empty(&self) -> bool {
        self.flushed.read().entries.is_empty()
    }

    /// Records a family's terminal dead letter, so a restarted job knows
    /// not to resubmit a family the previous run already gave up on.
    ///
    /// Latest wins: a later letter for the same family (e.g. a richer
    /// timeline after a restage failure) replaces the earlier one in
    /// place, keeping arrival order.
    pub fn record_dead_letter(&self, letter: DeadLetter) {
        let mut letters = self.dead_letters.write();
        match letters.iter_mut().find(|l| l.family == letter.family) {
            Some(existing) => *existing = letter,
            None => letters.push(letter),
        }
    }

    /// The dead letters recorded so far, in arrival order.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.dead_letters.read().clone()
    }

    /// True when a previous run terminally abandoned `family`.
    pub fn is_dead(&self, family: FamilyId) -> bool {
        self.dead_letters.read().iter().any(|l| l.family == family)
    }

    /// A point-in-time image of the store: entries sorted by
    /// `(family, extractor)` so two stores with the same contents always
    /// produce byte-identical images (the recovery log's compaction
    /// invariant leans on this).
    pub fn image(&self) -> CheckpointImage {
        let mut entries: Vec<CheckpointEntry> = self
            .flushed
            .read()
            .entries
            .iter()
            .map(|((family, extractor), metadata)| CheckpointEntry {
                family: *family,
                extractor: extractor.clone(),
                metadata: Arc::clone(metadata),
            })
            .collect();
        entries.sort_by(|a, b| (a.family, &a.extractor).cmp(&(b.family, &b.extractor)));
        CheckpointImage {
            entries,
            dead_letters: self.dead_letters.read().clone(),
        }
    }

    /// Rebuilds a store from an image (counters start at zero — restored
    /// entries were already counted by the run that flushed them).
    pub fn from_image(image: CheckpointImage) -> Self {
        let store = Self::new();
        {
            let mut flushed = store.flushed.write();
            for e in image.entries {
                flushed.insert(e.family, e.extractor, e.metadata);
            }
        }
        *store.dead_letters.write() = image.dead_letters;
        store
    }

    /// Serializes the whole store (for persisting to a data layer).
    pub fn serialize(&self) -> Vec<u8> {
        serde_json::to_vec(&self.image()).expect("checkpoint serialization is infallible")
    }

    /// Restores a store from serialized bytes. Accepts both the current
    /// image format and the legacy bare entry list (pre-dead-letter
    /// checkpoints deserialize with no dead letters).
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        let image: CheckpointImage = match serde_json::from_slice(bytes) {
            Ok(image) => image,
            Err(image_err) => {
                let entries: Vec<CheckpointEntry> =
                    serde_json::from_slice(bytes).map_err(|_| XtractError::CheckpointCorrupt {
                        reason: image_err.to_string(),
                    })?;
                CheckpointImage {
                    entries,
                    dead_letters: Vec::new(),
                }
            }
        };
        Ok(Self::from_image(image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md(k: &str) -> Arc<Metadata> {
        let mut m = Metadata::new();
        m.insert(k, 1);
        Arc::new(m)
    }

    #[test]
    fn flush_then_load() {
        let store = CheckpointStore::new();
        store.flush(FamilyId::new(1), "keyword", md("kw"));
        assert_eq!(store.load(FamilyId::new(1), "keyword"), Some(md("kw")));
        assert_eq!(store.load(FamilyId::new(1), "tabular"), None);
        assert_eq!(store.load(FamilyId::new(2), "keyword"), None);
    }

    #[test]
    fn completed_extractors_per_family() {
        let store = CheckpointStore::new();
        store.flush(FamilyId::new(1), "keyword", md("a"));
        store.flush(FamilyId::new(1), "tabular", md("b"));
        store.flush(FamilyId::new(2), "keyword", md("c"));
        assert_eq!(
            store.completed_extractors(FamilyId::new(1)),
            vec!["keyword".to_string(), "tabular".to_string()]
        );
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn reflush_overwrites() {
        let store = CheckpointStore::new();
        store.flush(FamilyId::new(1), "keyword", md("old"));
        store.flush(FamilyId::new(1), "keyword", md("new"));
        assert_eq!(store.load(FamilyId::new(1), "keyword"), Some(md("new")));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn serialization_roundtrip() {
        let store = CheckpointStore::new();
        store.flush(FamilyId::new(7), "matio", md("energy"));
        store.flush(FamilyId::new(8), "images", md("class"));
        let bytes = store.serialize();
        let restored = CheckpointStore::deserialize(&bytes).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.load(FamilyId::new(7), "matio"), Some(md("energy")));
    }

    #[test]
    fn corrupt_bytes_are_an_error() {
        let err = CheckpointStore::deserialize(b"{broken").unwrap_err();
        assert!(matches!(err, XtractError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = CheckpointStore::new();
        assert!(store.is_empty());
        let restored = CheckpointStore::deserialize(&store.serialize()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn dead_letters_roundtrip_and_dedupe() {
        use xtract_types::FailureReason;
        let store = CheckpointStore::new();
        store.flush(FamilyId::new(1), "keyword", md("kw"));
        let letter = DeadLetter::new(
            FamilyId::new(2),
            FailureReason::Internal {
                reason: "bad".into(),
            },
            3,
        );
        store.record_dead_letter(letter.clone());
        store.record_dead_letter(letter.clone()); // same family: replaced in place
        assert_eq!(store.dead_letters(), vec![letter]);
        assert!(store.is_dead(FamilyId::new(2)));
        assert!(!store.is_dead(FamilyId::new(1)));
        let restored = CheckpointStore::deserialize(&store.serialize()).unwrap();
        assert!(restored.is_dead(FamilyId::new(2)));
        assert_eq!(restored.load(FamilyId::new(1), "keyword"), Some(md("kw")));
    }

    #[test]
    fn later_dead_letter_for_a_family_wins() {
        use xtract_types::FailureReason;
        let store = CheckpointStore::new();
        let first = DeadLetter::new(
            FamilyId::new(2),
            FailureReason::Internal {
                reason: "first attempt".into(),
            },
            1,
        );
        let other = DeadLetter::new(
            FamilyId::new(3),
            FailureReason::Internal {
                reason: "other family".into(),
            },
            1,
        );
        // A later letter carries the richer timeline (e.g. a restage
        // failure after the first abandonment); it must replace the
        // first, not be silently dropped.
        let richer = DeadLetter::new(
            FamilyId::new(2),
            FailureReason::Internal {
                reason: "richer timeline".into(),
            },
            5,
        );
        store.record_dead_letter(first);
        store.record_dead_letter(other.clone());
        store.record_dead_letter(richer.clone());
        // Latest-wins, and arrival order of *families* is preserved.
        assert_eq!(store.dead_letters(), vec![richer.clone(), other]);
        assert_eq!(store.dead_letters()[0].attempts, richer.attempts);
    }

    #[test]
    fn completed_extractors_uses_the_family_index() {
        let store = CheckpointStore::new();
        for f in 0..50 {
            store.flush(FamilyId::new(f), "keyword", md("k"));
        }
        store.flush(FamilyId::new(7), "tabular", md("t"));
        // Sorted, and scoped to the one family regardless of job size.
        assert_eq!(
            store.completed_extractors(FamilyId::new(7)),
            vec!["keyword".to_string(), "tabular".to_string()]
        );
        assert_eq!(store.completed_extractors(FamilyId::new(999)).len(), 0);
        // Re-flushing the same step does not duplicate index entries.
        store.flush(FamilyId::new(7), "tabular", md("t2"));
        assert_eq!(store.completed_extractors(FamilyId::new(7)).len(), 2);
    }

    #[test]
    fn restore_rehydrates_without_charging_the_flush_counter() {
        let hub = MetricsHub::new();
        let store = CheckpointStore::with_obs(&hub);
        store.restore(FamilyId::new(1), "keyword", md("kw"));
        assert_eq!(hub.counter_value("checkpoint.flushes", None), 0);
        assert_eq!(store.load(FamilyId::new(1), "keyword"), Some(md("kw")));
        assert_eq!(
            store.completed_extractors(FamilyId::new(1)),
            vec!["keyword".to_string()]
        );
    }

    #[test]
    fn image_is_sorted_and_deterministic() {
        let a = CheckpointStore::new();
        let b = CheckpointStore::new();
        // Insert in different orders; images must be identical.
        for (f, e) in [(3u64, "tabular"), (1, "keyword"), (3, "images"), (2, "kw")] {
            a.flush(FamilyId::new(f), e, md(e));
        }
        for (f, e) in [(2u64, "kw"), (3, "images"), (3, "tabular"), (1, "keyword")] {
            b.flush(FamilyId::new(f), e, md(e));
        }
        let ia = a.image();
        assert_eq!(ia, b.image());
        let keys: Vec<(FamilyId, String)> = ia
            .entries
            .iter()
            .map(|e| (e.family, e.extractor.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // from_image round-trips.
        let back = CheckpointStore::from_image(ia);
        assert_eq!(back.image(), b.image());
    }

    #[test]
    fn hub_backed_store_counts_flushes_and_hits() {
        let hub = MetricsHub::new();
        let store = CheckpointStore::with_obs(&hub);
        store.flush(FamilyId::new(1), "keyword", md("kw"));
        store.flush(FamilyId::new(1), "tabular", md("tb"));
        assert!(store.load(FamilyId::new(1), "keyword").is_some()); // hit
        assert!(store.load(FamilyId::new(9), "keyword").is_none()); // miss
        assert_eq!(hub.counter_value("checkpoint.flushes", None), 2);
        assert_eq!(hub.counter_value("checkpoint.hits", None), 1);
    }

    #[test]
    fn legacy_entry_list_still_deserializes() {
        // Pre-dead-letter checkpoints were a bare Vec<CheckpointEntry>.
        let legacy = serde_json::to_vec(&vec![CheckpointEntry {
            family: FamilyId::new(4),
            extractor: "tabular".to_string(),
            metadata: md("t"),
        }])
        .unwrap();
        let restored = CheckpointStore::deserialize(&legacy).unwrap();
        assert_eq!(restored.load(FamilyId::new(4), "tabular"), Some(md("t")));
        assert!(restored.dead_letters().is_empty());
    }
}
