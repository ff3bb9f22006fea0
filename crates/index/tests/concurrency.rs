//! Concurrency and equivalence properties of the sharded serving index.
//!
//! * Readers run against immutable snapshots, so a writer applying a
//!   batch can never tear a record out from under a query — the stress
//!   test hammers the index with concurrent readers during sustained
//!   replacement-heavy ingest and checks every served record is
//!   internally consistent and never travels backwards in time.
//! * The sharded index is observationally equivalent to the single-lock
//!   reference ([`xtract_index::baseline::LockedIndex`]): same hits,
//!   bitwise-identical TF·IDF scores, for arbitrary corpora, shard
//!   counts, and queries.

use proptest::prelude::*;
use serde_json::json;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use xtract_index::baseline::LockedIndex;
use xtract_index::{Query, SearchIndex};
use xtract_types::{FamilyId, Metadata, MetadataRecord};

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

/// Generation `v` of family `i`. The `check` field ties every value in
/// the document to one exact `(family, generation)` pair — any blend of
/// two generations fails the checksum.
fn gen_record(i: u64, v: u64) -> MetadataRecord {
    record(
        i,
        json!({
            "fam": i,
            "v": v,
            "check": v * 1_000 + i,
            "text": format!("gen{v} payload for family fam{i}"),
        }),
    )
}

fn dump_query() -> Query {
    Query {
        terms: Vec::new(),
        filters: Vec::new(),
        require_all_terms: false,
        limit: usize::MAX,
    }
}

#[test]
fn concurrent_readers_never_see_torn_or_regressing_records() {
    const FAMILIES: u64 = 64;
    const GENERATIONS: u64 = 30;
    const READERS: usize = 4;

    let index = SearchIndex::with_shards(8);
    index.ingest_all((0..FAMILIES).map(|i| gen_record(i, 0)));

    let done = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    std::thread::scope(|s| {
        // One writer replacing every family, generation after generation.
        s.spawn(|| {
            for v in 1..=GENERATIONS {
                index.ingest_all((0..FAMILIES).map(|i| gen_record(i, v)));
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..READERS {
            s.spawn(|| {
                let mut last_seen: HashMap<FamilyId, u64> = HashMap::new();
                loop {
                    // Check `done` *before* the query: one final full
                    // pass always runs against the finished index.
                    let stop = done.load(Ordering::Acquire);
                    let hits = index.search(&dump_query());
                    let mut seen = HashSet::new();
                    for hit in &hits {
                        assert!(
                            seen.insert(hit.family),
                            "family {} served twice in one snapshot",
                            hit.family
                        );
                    }
                    for hit in hits {
                        let rec = index.get(hit.family).expect("served family has a record");
                        let get = |k: &str| rec.document.0.get(k).and_then(|x| x.as_u64());
                        let (fam, v, check) = (
                            get("fam").unwrap(),
                            get("v").unwrap(),
                            get("check").unwrap(),
                        );
                        // Torn-record detector: every field must belong
                        // to the same (family, generation).
                        assert_eq!(rec.family, FamilyId::new(fam));
                        assert_eq!(
                            check,
                            v * 1_000 + fam,
                            "half-applied record for family {fam}: v={v} check={check}"
                        );
                        assert!(v <= GENERATIONS);
                        // Published snapshots never go backwards.
                        let prev = last_seen.entry(hit.family).or_insert(0);
                        assert!(
                            v >= *prev,
                            "family {fam} regressed from generation {} to {v}",
                            *prev
                        );
                        *prev = v;
                    }
                    queries.fetch_add(1, Ordering::Relaxed);
                    if stop {
                        break;
                    }
                }
            });
        }
    });

    // Steady state: exactly one live record per family, all at the final
    // generation, and every reader completed at least its final pass.
    assert_eq!(index.stats().documents, FAMILIES as usize);
    for i in 0..FAMILIES {
        let rec = index.get(FamilyId::new(i)).expect("family survives");
        assert_eq!(
            rec.document.0.get("v").and_then(|x| x.as_u64()),
            Some(GENERATIONS)
        );
    }
    assert!(queries.load(Ordering::Relaxed) >= READERS as u64);
    let metrics = index.ingest_metrics();
    assert_eq!(metrics.records, FAMILIES * (GENERATIONS + 1));
    assert_eq!(metrics.replacements, FAMILIES * GENERATIONS);
    // `ingest_all` is what callers with more than one record use: a batch
    // costs one publish per shard it touches, whatever its size.
    assert!(metrics.publishes <= (GENERATIONS + 1) * index.shard_count() as u64);
}

const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any sequence of ingests (re-ingests included), shard count,
    /// and query: the sharded index and the naive single-lock reference
    /// serve the same hits with bitwise-equal scores.
    #[test]
    fn sharded_index_matches_the_single_lock_reference(
        ops in prop::collection::vec(
            (0u64..12, prop::collection::vec(0usize..8, 1..6)),
            1..40,
        ),
        shards in 1usize..6,
        qwords in prop::collection::vec(0usize..8, 1..3),
        require_all in any::<bool>(),
    ) {
        let reference = LockedIndex::new();
        let sharded = SearchIndex::with_shards(shards);
        for (fam, words) in &ops {
            let text: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
            let rec = record(*fam, json!({"doc": {"text": text.join(" ")}}));
            reference.ingest(rec.clone());
            sharded.ingest(rec);
        }

        let q = Query {
            terms: qwords.iter().map(|&w| VOCAB[w].to_string()).collect(),
            filters: Vec::new(),
            require_all_terms: require_all,
            limit: usize::MAX,
        };
        let (a, b) = (reference.search(&q), sharded.search(&q));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.family, y.family);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
            prop_assert_eq!(&x.schema, &y.schema);
        }

        // The full dump agrees too: same live set, same order.
        let fams_a: Vec<FamilyId> =
            reference.search(&dump_query()).into_iter().map(|h| h.family).collect();
        let fams_b: Vec<FamilyId> =
            sharded.search(&dump_query()).into_iter().map(|h| h.family).collect();
        prop_assert_eq!(fams_a, fams_b);
        prop_assert_eq!(reference.documents(), sharded.stats().documents);
    }
}
