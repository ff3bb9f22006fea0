//! Serving-index integration: the wave loop feeds the sharded index
//! *live* — records become searchable as each wave commits, not after the
//! job ends — and the index rides the same durability story as the job
//! itself. The acceptance differential: a job killed mid-flight and
//! resumed from its recovery log by a brand-new service converges to the
//! same serving index as an uninterrupted baseline.

use bytes::Bytes;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use xtract::prelude::*;
use xtract_core::XtractService;
use xtract_datafabric::{AuthService, DataFabric, DirEntry, MemFs, Scope, StorageBackend, Token};
use xtract_index::{Query, SearchIndex};
use xtract_obs::Event;
use xtract_types::config::{ContainerRuntime, IndexPolicy, RecoveryPolicy};
use xtract_types::{CrashPoint, OrchestratorCrash};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtract-serving-index-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn full_token(auth: &AuthService) -> Token {
    auth.login(
        "serving",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    )
}

/// Tables whose keyword pass discovers tabular content, appending the
/// tabular + null-value extractors: every family runs a multi-wave plan,
/// so the index sees live mid-job records *and* their validated
/// replacements.
const CSV_TEXTS: [&str; 4] = [
    "voltage,current\n1.2,0.4\n1.5,0.5\n1.9,0.7\n",
    "sample,yield\nperovskite,0.82\nanatase,0.61\n",
    "temp,pressure\n270,1.1\n280,1.4\n290,1.9\n",
    "run,energy\nalpha,12.5\nbeta,13.1\ngamma,\n",
];

/// A fresh single-endpoint service over an identical corpus every call.
/// The endpoint has a staging store, so every family completes and
/// validates — the final index holds exactly the shipped records.
fn rig(seed: u64, index: IndexPolicy) -> (XtractService, Token, JobSpec) {
    rig_with(seed, index, CSV_TEXTS.len(), None)
}

/// [`rig`] over `files` tables (the four texts, cycled), shipping its
/// records to `results` — registered as a second, storage-only endpoint —
/// when one is given.
fn rig_with(
    seed: u64,
    index: IndexPolicy,
    files: usize,
    results: Option<Arc<dyn StorageBackend>>,
) -> (XtractService, Token, JobSpec) {
    let fabric = Arc::new(DataFabric::new());
    let ep = EndpointId::new(0);
    let fs = Arc::new(MemFs::new(ep));
    for (i, text) in CSV_TEXTS.iter().cycle().take(files).enumerate() {
        fs.write(&format!("/data/d{i}/notes.txt"), Bytes::from(*text))
            .unwrap();
    }
    fabric.register(ep, "midway", fs);
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let svc = XtractService::new(fabric.clone(), auth, seed);
    let mut spec = JobSpec::single_endpoint(
        EndpointSpec {
            endpoint: ep,
            read_path: "/data".into(),
            store_path: Some("/stage".into()),
            available_bytes: 1 << 30,
            workers: Some(2),
            runtime: ContainerRuntime::Docker,
        },
        "/data",
    );
    spec.validation = ValidationSchema::Mdf("mdf-generic".into());
    spec.index = index;
    if let Some(backend) = results {
        let results_ep = EndpointId::new(1);
        fabric.register(results_ep, "petrel", backend);
        spec.endpoints.push(EndpointSpec {
            endpoint: results_ep,
            read_path: "/".into(),
            store_path: Some("/inbox".into()),
            available_bytes: 1 << 30,
            workers: None,
            runtime: ContainerRuntime::Docker,
        });
        spec.results_endpoint = Some(results_ep);
    }
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    (svc, token, spec)
}

/// Content dump of everything the index serves. Family ids are
/// allocator-dependent (two crawl threads race), so records compare by
/// schema + sorted extractor set + document — never by id.
fn dump(index: &SearchIndex) -> Vec<String> {
    let everything = Query {
        terms: Vec::new(),
        filters: Vec::new(),
        require_all_terms: false,
        limit: usize::MAX,
    };
    let mut keys: Vec<String> = index
        .search(&everything)
        .into_iter()
        .map(|hit| {
            let rec = index.get(hit.family).expect("hit has a record");
            let mut extractors = rec.extractors.clone();
            extractors.sort();
            format!(
                "{}|{}|{}",
                rec.schema,
                extractors.join("+"),
                serde_json::to_string(&rec.document).unwrap()
            )
        })
        .collect();
    keys.sort();
    keys
}

#[test]
fn wave_loop_feeds_the_serving_index_live() {
    let (svc, token, spec) = rig(0x1DE, IndexPolicy::enabled());
    assert!(svc.index().is_none(), "no index before any job opts in");

    let report = svc.run_job(token, &spec).unwrap();
    assert_eq!(report.records.len(), 4);
    assert!(
        report.waves >= 2,
        "need a multi-wave plan, got {}",
        report.waves
    );

    let index = svc.index().expect("opted-in job created the serving index");
    // Every shipped record is served verbatim; nothing else is live.
    for rec in &report.records {
        assert_eq!(index.get(rec.family).as_ref(), Some(rec));
    }
    let stats = index.stats();
    assert_eq!(stats.documents, report.records.len());
    // The wave loop ingested provisional "live" records mid-job and the
    // validated records replaced them slot-by-slot — the tombstones are
    // the proof the index was populated *before* the job finished.
    assert!(
        stats.tombstoned >= report.records.len(),
        "expected >= {} tombstoned live records, got {}",
        report.records.len(),
        stats.tombstoned
    );

    // Observability: ingest counters moved and the journal narrates the
    // per-wave ingest.
    let hub = &svc.obs().hub;
    assert!(hub.counter_value("index.ingested", None) as usize >= 2 * report.records.len());
    assert!(hub.counter_value("index.waves", None) >= 1);
    assert!(svc
        .obs()
        .journal
        .to_jsonl()
        .contains("\"type\":\"index_wave_ingested\""));

    // Search parity: the served index answers exactly like a fresh index
    // built from the shipped records — same hits, bitwise-equal scores —
    // so no stale live-record term leaks through a tombstone.
    let fresh = SearchIndex::new();
    fresh.ingest_all(report.records.clone());
    for term in ["voltage", "perovskite", "temp", "energy", "notes"] {
        let served: Vec<_> = index
            .search(&Query::terms(&[term]))
            .into_iter()
            .map(|h| (h.family, h.score.to_bits()))
            .collect();
        let rebuilt: Vec<_> = fresh
            .search(&Query::terms(&[term]))
            .into_iter()
            .map(|h| (h.family, h.score.to_bits()))
            .collect();
        assert_eq!(served, rebuilt, "term {term:?} diverged");
    }
}

#[test]
fn jobs_without_the_policy_leave_no_index() {
    let (svc, token, spec) = rig(0x0FF, IndexPolicy::disabled());
    let report = svc.run_job(token, &spec).unwrap();
    assert_eq!(report.records.len(), 4);
    assert!(
        svc.index().is_none(),
        "disabled policy must not build an index"
    );
    assert_eq!(svc.obs().hub.counter_value("index.ingested", None), 0);
}

#[test]
fn first_opted_in_job_fixes_the_shard_count() {
    let (svc, token, spec) = rig(
        0x5AD,
        IndexPolicy {
            enabled: true,
            shards: 3,
        },
    );
    svc.run_job(token, &spec).unwrap();
    assert_eq!(svc.index().unwrap().shard_count(), 3);
}

/// Index hand-off is batch-shaped at every commit point of a job: each
/// wave, and stage 7's validated batch, publishes at most one snapshot
/// per index shard, however many families the job has.
#[test]
fn a_job_publishes_one_snapshot_per_shard_per_commit() {
    const FILES: usize = 24;
    let policy = IndexPolicy {
        enabled: true,
        shards: 2,
    };
    let (svc, token, spec) = rig_with(0xBA7C, policy, FILES, None);
    let report = svc.run_job(token, &spec).unwrap();
    assert_eq!(report.records.len(), FILES);

    let metrics = svc.index().unwrap().ingest_metrics();
    let bound = (u64::from(report.waves) + 1) * policy.shards as u64;
    assert!(
        metrics.publishes <= bound,
        "{} publishes for {} waves on {} shards (bound {bound})",
        metrics.publishes,
        report.waves,
        policy.shards
    );
    // Batching changed how records arrive, not how many: every live and
    // every validated record still went through the index.
    let obs = svc.obs();
    assert_eq!(
        metrics.records,
        obs.hub.counter_value("index.ingested", None)
    );
    assert!(metrics.records >= 2 * FILES as u64);
    // The journal says when the final records became searchable: once.
    let validated: Vec<u64> = obs
        .journal
        .events()
        .iter()
        .filter_map(|r| match r.event {
            Event::IndexValidated { records } => Some(records),
            _ => None,
        })
        .collect();
    assert_eq!(validated, vec![FILES as u64]);
}

/// The `serve` benchmark's reader check as a test: while a second indexed
/// job runs over the same service, a reader polling the first job's
/// families never finds one missing and never gets an empty result.
#[test]
fn served_families_stay_served_throughout_a_second_job() {
    let (svc, token, spec) = rig_with(0x5E7E, IndexPolicy::enabled(), 32, None);
    let first = svc.run_job(token, &spec).unwrap();
    let index = svc.index().unwrap();
    let query = Query::terms(&["voltage"]);
    assert!(!index.search(&query).is_empty());

    let done = AtomicBool::new(false);
    let (polling_tx, polling_rx) = mpsc::channel();
    let second = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut passes = 0u64;
            loop {
                // Read `done` before the pass, so one full pass always
                // runs against the finished index.
                let stop = done.load(Ordering::Acquire);
                for rec in &first.records {
                    assert!(
                        index.get_arc(rec.family).is_some(),
                        "family {} went missing mid-ingest",
                        rec.family
                    );
                }
                assert!(
                    !index.search(&query).is_empty(),
                    "term query lost its results mid-ingest"
                );
                passes += 1;
                if passes == 1 {
                    polling_tx.send(()).unwrap();
                }
                if stop {
                    return passes;
                }
            }
        });
        // The job starts only once the reader is polling.
        polling_rx.recv().unwrap();
        let second = svc.run_job(token, &spec);
        done.store(true, Ordering::Release);
        assert!(reader.join().expect("the reader saw every family") >= 2);
        second
    })
    .unwrap();

    // The second job's families are new ones: the first job's records are
    // still served verbatim beside them.
    assert_eq!(
        index.stats().documents,
        first.records.len() + second.records.len()
    );
    for rec in &first.records {
        assert_eq!(index.get(rec.family).as_ref(), Some(rec));
    }
}

/// A results store that refuses its `reject`-th write and is a plain
/// [`MemFs`] otherwise.
struct RejectOneWrite {
    inner: MemFs,
    reject: usize,
    writes: AtomicUsize,
}

impl StorageBackend for RejectOneWrite {
    fn list(&self, path: &str) -> xtract_types::Result<Vec<DirEntry>> {
        self.inner.list(path)
    }
    fn read(&self, path: &str) -> xtract_types::Result<Bytes> {
        self.inner.read(path)
    }
    fn write(&self, path: &str, data: Bytes) -> xtract_types::Result<()> {
        if self.writes.fetch_add(1, Ordering::Relaxed) == self.reject {
            return Err(XtractError::InvalidJob {
                reason: format!("results store refused {path}"),
            });
        }
        self.inner.write(path, data)
    }
    fn write_stub(&self, path: &str, size: u64) -> xtract_types::Result<()> {
        self.inner.write_stub(path, size)
    }
    fn remove(&self, path: &str) -> xtract_types::Result<()> {
        self.inner.remove(path)
    }
    fn stat(&self, path: &str) -> xtract_types::Result<u64> {
        self.inner.stat(path)
    }
    fn file_count(&self) -> usize {
        self.inner.file_count()
    }
    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

/// The validated batch holds exactly the records that shipped: a family
/// whose write the results endpoint refused is dead-lettered and keeps
/// its live version in the index, never a "validated" one nobody holds.
#[test]
fn a_record_that_failed_to_ship_is_not_in_the_validated_batch() {
    const FILES: usize = 6;
    let results = Arc::new(RejectOneWrite {
        inner: MemFs::new(EndpointId::new(1)),
        reject: 2,
        writes: AtomicUsize::new(0),
    });
    let (svc, token, spec) = rig_with(0xDEAD, IndexPolicy::enabled(), FILES, Some(results.clone()));
    let report = svc.run_job(token, &spec).unwrap();
    assert_eq!(report.records.len(), FILES - 1);
    assert_eq!(results.inner.list("/metadata").unwrap().len(), FILES - 1);
    let [letter] = report.failures.as_slice() else {
        panic!("expected one dead letter, got {:?}", report.failures);
    };
    assert!(letter.reason.to_string().contains("shipping record failed"));

    let index = svc.index().unwrap();
    for rec in &report.records {
        assert_eq!(index.get(rec.family).as_ref(), Some(rec));
    }
    assert_eq!(index.get(letter.family).unwrap().schema, "live");
    let shipped = Event::IndexValidated {
        records: FILES as u64 - 1,
    };
    assert!(svc
        .obs()
        .journal
        .events()
        .iter()
        .any(|r| r.event == shipped));
}

/// The acceptance differential: kill the job at three scheduled crash
/// points, resume each time with a brand-new service sharing nothing with
/// its predecessor but the log directory, and the survivor's serving
/// index — rebuilt by WAL replay plus the remaining live waves — must
/// equal the uninterrupted baseline's.
#[test]
fn resumed_job_converges_to_the_uninterrupted_index() {
    let seed = 0xCAFE;
    let policy = IndexPolicy::enabled();
    let recovery = RecoveryPolicy {
        segment_bytes: 1024,
        sync_each_commit: true,
        compact_segments: 2,
    };

    // Uninterrupted baseline, journaling to its own log.
    let base_dir = tempdir("baseline");
    let (svc, token, mut spec) = rig(seed, policy);
    spec.recovery = recovery;
    let baseline = svc.run_job_with_recovery(token, &spec, &base_dir).unwrap();
    assert_eq!(baseline.records.len(), 4);
    let base_index = svc.index().expect("baseline built an index");
    let base_dump = dump(&base_index);
    assert_eq!(base_dump.len(), 4);
    let base_ingested = base_index.ingest_metrics().records;
    assert_eq!(
        base_ingested,
        svc.obs().hub.counter_value("index.ingested", None)
    );

    // Chaos run: same spec plus an ordered kill schedule.
    let chaos_dir = tempdir("chaos");
    let mut chaos_spec = spec.clone();
    chaos_spec.fault_plan = Some(FaultPlan {
        orchestrator_crashes: vec![
            OrchestratorCrash {
                point: CrashPoint::AfterCrawl,
                at_occurrence: 1,
            },
            OrchestratorCrash {
                point: CrashPoint::MidWave,
                at_occurrence: 1,
            },
            OrchestratorCrash {
                point: CrashPoint::MidFlush,
                at_occurrence: 1,
            },
        ],
        ..FaultPlan::new(seed)
    });

    let mut kills = 0usize;
    let mut survivor = None;
    for _attempt in 0..8 {
        let (svc, token, _) = rig(seed, policy);
        match svc.resume_job(token, &chaos_spec, &chaos_dir) {
            Ok(report) => {
                survivor = Some((svc, report));
                break;
            }
            Err(XtractError::OrchestratorKilled { .. }) => kills += 1,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    let (svc, report) = survivor.expect("job never converged after the kill schedule");
    assert_eq!(kills, 3, "all three scheduled kills must fire");
    assert!(report.resumed);

    // The survivor rehydrated the index from the log before running the
    // remaining waves, and says so in its journal.
    assert!(svc.obs().hub.counter_value("index.replayed", None) > 0);
    assert!(svc
        .obs()
        .journal
        .to_jsonl()
        .contains("\"type\":\"index_replayed\""));

    // The differential: identical served content, either path.
    let chaos_index = svc.index().expect("survivor built an index");
    assert_eq!(base_dump, dump(&chaos_index));
    // Ingest accounting survives the kills too: every record the survivor's
    // index took in is a counted wave, validated or replayed one, and
    // replay folds a family's journaled waves into one record, so it never
    // ingests more than the uninterrupted run.
    let hub = &svc.obs().hub;
    let chaos_ingested = chaos_index.ingest_metrics().records;
    assert_eq!(
        chaos_ingested,
        hub.counter_value("index.ingested", None) + hub.counter_value("index.replayed", None)
    );
    assert!(chaos_ingested <= base_ingested);

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
