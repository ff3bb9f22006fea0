//! Sharded-orchestrator chaos differential: the scale-out counterpart of
//! `crash_recovery.rs`. A job partitioned across four shard orchestrators
//! — each with its own WAL subdirectory and wave loop — has **every**
//! shard killed mid-wave, so no survivor is live to adopt the orphans and
//! the run surfaces `ShardDied`. A brand-new service resumes the job by
//! replaying all four shard WALs (plus the root), repairing any hand-over
//! that crashed between its out-record and in-record, and must converge
//! to exactly the unsharded baseline: same record set, same dead-letter
//! set, and a zero-duplicate union of journaled `(family, extractor)`
//! steps across every shard's log. A second test drives the work-stealing
//! path: a shard that drains early pulls pending families from its busy
//! sibling, journaled as `FamilyMigrated` pairs in both WALs.

use bytes::Bytes;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xtract::prelude::*;
use xtract_core::recovery::MigratedStep;
use xtract_core::{RecoveryLog, RecoveryRecord, Replay, XtractService};
use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope, StorageBackend, Token};
use xtract_types::config::{ContainerRuntime, RecoveryPolicy};
use xtract_types::{
    CrashPoint, FamilyId, MetadataRecord, PartitionerKind, ShardCrash, ShardPolicy,
};

/// `XTRACT_CHAOS_SEED` when set (the CI chaos matrix sweeps several fixed
/// seeds in `--release`), otherwise the test's historical default. Kill
/// schedules are deterministic regardless of the seed.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("XTRACT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtract-shard-scaleout-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn full_token(auth: &AuthService) -> Token {
    auth.login(
        "chaos",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    )
}

/// A clean three-wave table: keyword (wave 1) discovers tabular content,
/// which appends tabular + null-value, so every compute-local family
/// runs a multi-wave plan and every shard has wave boundaries for the
/// mid-wave kill to land on.
fn csv_text(i: usize) -> String {
    let mut s = String::from("voltage,current,temp\n");
    for row in 0..24 {
        s.push_str(&format!("1.{row},0.{row},2{i}{row}\n"));
    }
    s
}

/// Ten local CSV dirs on the compute endpoint plus two data-only dirs on
/// a remote endpoint: the remote families must stage to ep0, find no
/// store there, and dead-letter deterministically — in the baseline and
/// in every sharded run alike. `crawl_workers: 1` plus one dir per
/// family keeps family ids in path order, so the `Range` partitioner's
/// shard assignment is deterministic across runs.
fn rig(seed: u64) -> (XtractService, Token, JobSpec) {
    let fabric = Arc::new(DataFabric::new());
    let exec_ep = EndpointId::new(0);
    let data_ep = EndpointId::new(1);
    let exec_fs = Arc::new(MemFs::new(exec_ep));
    let data_fs = Arc::new(MemFs::new(data_ep));
    for i in 0..10 {
        exec_fs
            .write(&format!("/data/d{i}/notes.txt"), Bytes::from(csv_text(i)))
            .unwrap();
    }
    for i in 0..2 {
        data_fs
            .write(
                &format!("/data/r{i}/readme.txt"),
                Bytes::from(format!("remote observations, volume {i}")),
            )
            .unwrap();
    }
    fabric.register(exec_ep, "midway", exec_fs);
    fabric.register(data_ep, "petrel", data_fs);
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let svc = XtractService::new(fabric, auth, seed);
    let mut spec = JobSpec::single_endpoint(
        EndpointSpec {
            endpoint: exec_ep,
            read_path: "/data".into(),
            // No store: families staged *to* this endpoint have nowhere
            // to land and dead-letter with a typed prefetch reason.
            store_path: None,
            available_bytes: 1 << 30,
            workers: Some(2),
            runtime: ContainerRuntime::Docker,
        },
        "/data",
    );
    spec.endpoints.push(EndpointSpec {
        endpoint: data_ep,
        read_path: "/data".into(),
        store_path: None,
        available_bytes: 0,
        workers: None,
        runtime: ContainerRuntime::Docker,
    });
    spec.roots.push((data_ep, "/data".to_string()));
    spec.validation = ValidationSchema::Mdf("mdf-generic".into());
    spec.crawl_workers = 1;
    // Rotation happens (small segments) but compaction never does: with
    // no snapshot restatement, a `StepCompleted` lives in exactly the
    // WAL of the shard that ran it, so the cross-WAL uniqueness check
    // below is exact.
    spec.recovery = RecoveryPolicy {
        segment_bytes: 2048,
        sync_each_commit: true,
        compact_segments: 1000,
    };
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    (svc, token, spec)
}

/// Content key for a record: family ids are allocator-dependent across
/// differently-sharded runs, so records compare by their documents.
fn doc_keys(records: &[MetadataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(&r.document).unwrap())
        .collect();
    keys.sort();
    keys
}

/// Content key for a dead letter: everything but the family id.
fn letter_keys(letters: &[DeadLetter]) -> Vec<String> {
    let mut keys: Vec<String> = letters
        .iter()
        .map(|l| {
            let mut v = serde_json::to_value(l).unwrap();
            v.as_object_mut().unwrap().remove("family");
            serde_json::to_string(&v).unwrap()
        })
        .collect();
    keys.sort();
    keys
}

/// Every `StepCompleted` across the given replays, keyed by the family's
/// (sorted) file paths + the extractor, asserted globally unique: a
/// duplicate means two shards (or two crash segments) both invoked an
/// extractor whose output was already journaled somewhere.
fn journaled_steps(replays: &[&Replay]) -> Vec<(Vec<String>, &'static str)> {
    let mut fam_files: HashMap<FamilyId, Vec<String>> = HashMap::new();
    for replay in replays {
        for r in replay.effective() {
            let family = match r {
                RecoveryRecord::FamilyPlanned { family } => family,
                RecoveryRecord::FamilyMigrated { family, .. } => family,
                _ => continue,
            };
            let mut files: Vec<String> = family.files.iter().map(|f| f.path.clone()).collect();
            files.sort();
            fam_files.insert(family.id, files);
        }
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for replay in replays {
        for r in replay.effective() {
            if let RecoveryRecord::StepCompleted { family, kind, .. } = r {
                assert!(
                    seen.insert((*family, *kind)),
                    "duplicate (family, extractor) journaled: {family} {kind}"
                );
                out.push((fam_files[family].clone(), kind.name()));
            }
        }
    }
    out.sort();
    out
}

/// Scans of every shard WAL under `dir` that exists, in shard order.
fn scan_shards(dir: &Path, shards: usize) -> Vec<Option<Replay>> {
    (0..shards)
        .map(|k| {
            let sd = dir.join(format!("shard-{k}"));
            sd.is_dir().then(|| RecoveryLog::scan(&sd).unwrap())
        })
        .collect()
}

#[test]
fn all_shards_killed_then_resumed_matches_unsharded_baseline() {
    let seed = chaos_seed(17);
    const SHARDS: usize = 4;

    // --- Unsharded baseline, journaling to its own log. ----------------
    let base_dir = tempdir("baseline");
    let (svc, token, spec) = rig(seed);
    let baseline = svc.run_job_with_recovery(token, &spec, &base_dir).unwrap();
    assert_eq!(baseline.records.len(), 10);
    assert_eq!(baseline.failures.len(), 2, "{:?}", baseline.failures);
    assert!(baseline.waves >= 3);
    assert_eq!(baseline.shards, 0, "unsharded runs report no shard count");

    // --- The chaos spec: four shards, every one killed at its first
    // wave boundary, so the first run strands its orphans. --------------
    let chaos_dir = tempdir("chaos");
    let mut chaos_spec = spec.clone();
    chaos_spec.shard = ShardPolicy::sharded(SHARDS);
    chaos_spec.shard.partitioner = PartitionerKind::Range;
    chaos_spec.fault_plan = Some(FaultPlan {
        shard_crashes: (0..SHARDS)
            .map(|k| ShardCrash {
                shard: k,
                point: CrashPoint::MidWave,
                at_occurrence: 1,
            })
            .collect(),
        ..FaultPlan::new(seed)
    });

    let mut died: Vec<usize> = Vec::new();
    let mut total_deaths = 0u64;
    let mut final_report = None;
    for attempt in 0..10 {
        // What an independent read-only scan sees right now is what the
        // resuming service must account for, per shard label.
        let expect_root = RecoveryLog::scan(&chaos_dir).unwrap();
        let expect_shards = scan_shards(&chaos_dir, SHARDS);
        let (svc, token, _) = rig(seed);
        let outcome = svc.resume_job(token, &chaos_spec, &chaos_dir);
        let hub = &svc.obs().hub;
        assert_eq!(
            hub.counter_value("recovery.replayed", Some("root")),
            expect_root.records.len() as u64,
            "root replay counter disagrees with an independent scan"
        );
        assert_eq!(
            hub.counter_value("recovery.replayed", None),
            0,
            "sharded runs label every replay counter"
        );
        for (k, scan) in expect_shards.iter().enumerate() {
            if let Some(scan) = scan {
                // The coordinator may repair crashed hand-overs into the
                // WAL between the scan and the shard's open, so the
                // shard replays at least what the scan saw.
                assert!(
                    hub.counter_value("recovery.replayed", Some(&format!("shard-{k}")))
                        >= scan.records.len() as u64,
                    "shard-{k} replayed less than an independent scan on attempt {attempt}"
                );
            }
        }
        total_deaths += hub.counter_value("shard.deaths", None);
        match outcome {
            Ok(report) => {
                final_report = Some(report);
                break;
            }
            Err(XtractError::ShardDied { shard, .. }) => died.push(shard),
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    let final_report = final_report.expect("job never converged after the kill schedule");

    // Exactly one stranded run — every shard died, nobody could adopt —
    // and the very next resume finished the job.
    assert_eq!(died.len(), 1, "stranded runs: {died:?}");
    assert_eq!(total_deaths, SHARDS as u64);
    assert_eq!(final_report.shards, SHARDS as u64);
    assert_eq!(final_report.shard_deaths, 0);
    assert!(final_report.resumed);

    // --- The differential: converged to the unsharded baseline. --------
    assert_eq!(doc_keys(&baseline.records), doc_keys(&final_report.records));
    assert_eq!(
        letter_keys(&baseline.failures),
        letter_keys(&final_report.failures)
    );

    // --- Zero duplicate invocations, proven from the logs themselves:
    // the union of journaled steps across all four shard WALs equals the
    // baseline's step set, with each (family, extractor) appearing in
    // exactly one shard's log. ------------------------------------------
    let base_log = RecoveryLog::scan(&base_dir).unwrap();
    let root_log = RecoveryLog::scan(&chaos_dir).unwrap();
    assert!(base_log.completed() && root_log.completed());
    let shard_logs: Vec<Replay> = scan_shards(&chaos_dir, SHARDS)
        .into_iter()
        .map(|s| s.expect("every shard dir exists after the run"))
        .collect();
    let mut all: Vec<&Replay> = vec![&root_log];
    all.extend(shard_logs.iter());
    assert_eq!(journaled_steps(&[&base_log]), journaled_steps(&all));

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// An asymmetric corpus drives the idle-pull steal: shard 0's families
/// (plain prose, single-wave plans) drain while shard 1 is still mid-way
/// through its three-wave CSV families, so shard 0 parks idle, the
/// coordinator flags shard 1 as a donor, and pending families migrate —
/// journaled as an out-record in shard 1's WAL and an in-record in shard
/// 0's. The merged report must still equal the unsharded baseline.
#[test]
fn idle_shard_steals_from_its_busy_sibling() {
    let seed = chaos_seed(1009);

    fn steal_rig(seed: u64) -> (XtractService, Token, JobSpec) {
        let fabric = Arc::new(DataFabric::new());
        let ep = EndpointId::new(0);
        let fs = Arc::new(MemFs::new(ep));
        // Dir names sort "fast*" < "slow*", so with one crawl worker the
        // fast families take the low id ranks and the Range partitioner
        // pins them all to shard 0.
        for i in 0..8 {
            fs.write(
                &format!("/data/fast{i}/notes.txt"),
                Bytes::from(format!("field observations of plot {i} under clear skies")),
            )
            .unwrap();
        }
        for i in 0..8 {
            fs.write(
                &format!("/data/slow{i}/table.txt"),
                Bytes::from(csv_text(i)),
            )
            .unwrap();
        }
        fabric.register(ep, "midway", fs);
        let auth = Arc::new(AuthService::new());
        let token = full_token(&auth);
        let svc = XtractService::new(fabric, auth, seed);
        let mut spec = JobSpec::single_endpoint(
            EndpointSpec {
                endpoint: ep,
                read_path: "/data".into(),
                store_path: None,
                available_bytes: 1 << 30,
                workers: Some(2),
                runtime: ContainerRuntime::Docker,
            },
            "/data",
        );
        spec.validation = ValidationSchema::Mdf("mdf-generic".into());
        spec.crawl_workers = 1;
        svc.connect_endpoint(&spec.endpoints[0]).unwrap();
        (svc, token, spec)
    }

    let (svc, token, spec) = steal_rig(seed);
    let baseline = svc.run_job(token, &spec).unwrap();
    assert_eq!(baseline.records.len(), 16);
    assert!(baseline.failures.is_empty());

    // The steal is timing-dependent (it needs shard 0 to park before
    // shard 1's last wave top); retry a few fresh runs until one stole,
    // asserting the differential every time.
    let mut stole = false;
    for round in 0..5 {
        let dir = tempdir(&format!("steal-{round}"));
        let (svc, token, mut spec) = steal_rig(seed);
        spec.shard = ShardPolicy::sharded(2);
        spec.shard.partitioner = PartitionerKind::Range;
        let report = svc.run_job_with_recovery(token, &spec, &dir).unwrap();

        assert_eq!(doc_keys(&baseline.records), doc_keys(&report.records));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.shards, 2);
        assert_eq!(report.shard_deaths, 0);
        // Each shard replayed exactly its freshly-seeded WAL: JobStarted
        // plus its 8-family subset.
        for k in 0..2 {
            assert_eq!(
                svc.obs()
                    .hub
                    .counter_value("recovery.replayed", Some(&format!("shard-{k}"))),
                9
            );
        }

        if report.stolen_families > 0 {
            assert_eq!(
                svc.obs().hub.counter_value("shard.stolen", None),
                report.stolen_families
            );
            // Migration pairs: every donated family has an out-record in
            // one WAL and a matching adopted in-record in the other.
            let logs = scan_shards(&dir, 2);
            let mut out_ids = Vec::new();
            let mut in_ids = Vec::new();
            for log in logs.iter().flatten() {
                for r in log.effective() {
                    if let RecoveryRecord::FamilyMigrated {
                        family, adopted, ..
                    } = r
                    {
                        if *adopted {
                            in_ids.push(family.id);
                        } else {
                            out_ids.push(family.id);
                        }
                    }
                }
            }
            out_ids.sort();
            in_ids.sort();
            assert!(!out_ids.is_empty());
            assert_eq!(out_ids, in_ids, "unpaired FamilyMigrated records");
            stole = true;
        }
        let _ = std::fs::remove_dir_all(&dir);
        if stole {
            break;
        }
    }
    assert!(stole, "no run stole work despite an idle shard");
}

#[test]
fn sharded_runs_require_a_recovery_log_dir() {
    let seed = chaos_seed(86243);
    let (svc, token, mut spec) = rig(seed);
    spec.shard = ShardPolicy::sharded(2);
    match svc.run_job(token, &spec) {
        Err(XtractError::InvalidJob { reason }) => {
            assert!(reason.contains("recovery log dir"), "{reason}");
        }
        other => panic!("expected InvalidJob, got {other:?}"),
    }
}

/// The mid-steal crash repair (the cross-process coordinator's worst
/// window): a donor journals its out-record, then everything dies
/// before the recipient's in-record lands — exactly what a coordinator
/// killed between brokering a hand-over and the recipient's next group
/// commit leaves behind. The resume must repair the half-finished
/// hand-over into **exactly one owner** (the recipient, via
/// `flip_side`), converge to the unsharded baseline, and journal zero
/// duplicate `(family, extractor)` steps across every WAL.
#[test]
fn out_record_without_in_record_repairs_to_exactly_one_owner() {
    let seed = chaos_seed(4021);
    const SHARDS: usize = 2;

    let base_dir = tempdir("midsteal-baseline");
    let (svc, token, spec) = rig(seed);
    let baseline = svc.run_job_with_recovery(token, &spec, &base_dir).unwrap();

    // Both shards die at their first wave boundary: the run strands and
    // every WAL freezes mid-flight with its first-wave progress.
    let chaos_dir = tempdir("midsteal-chaos");
    let mut chaos_spec = spec.clone();
    chaos_spec.shard = ShardPolicy::sharded(SHARDS);
    chaos_spec.shard.partitioner = PartitionerKind::Range;
    chaos_spec.fault_plan = Some(FaultPlan {
        shard_crashes: (0..SHARDS)
            .map(|k| ShardCrash {
                shard: k,
                point: CrashPoint::MidWave,
                at_occurrence: 1,
            })
            .collect(),
        ..FaultPlan::new(seed)
    });
    let (svc, token, _) = rig(seed);
    match svc.resume_job(token, &chaos_spec, &chaos_dir) {
        Err(XtractError::ShardDied { .. }) => {}
        other => panic!("expected a stranded run, got {other:?}"),
    }

    // Fabricate the torn hand-over exactly as the dead donor would have
    // journaled it: pick a family its shard still plans, neither
    // dead-lettered nor migrated, carry its journaled steps and charges in
    // the out-record (a real donor restates the history the recipient
    // needs), and append only the donor half of the migration pair. The
    // donor is the shard that died last: whichever died first had its
    // families adopted by the other, so its WAL plans none any more.
    let live_family_of = |k: usize| {
        let scan = RecoveryLog::scan(chaos_dir.join(format!("shard-{k}"))).unwrap();
        let mut ineligible: HashSet<FamilyId> = HashSet::new();
        let mut candidates = Vec::new();
        let mut charges: HashMap<FamilyId, u32> = HashMap::new();
        for r in scan.effective() {
            match r {
                RecoveryRecord::FamilyPlanned { family } => candidates.push(family.clone()),
                RecoveryRecord::FamilyMigrated { family, .. } => {
                    ineligible.insert(family.id);
                }
                RecoveryRecord::DeadLettered { letter } => {
                    ineligible.insert(letter.family);
                }
                RecoveryRecord::RetryCharged { family, amount } => {
                    *charges.entry(*family).or_insert(0) += amount;
                }
                _ => {}
            }
        }
        let victim = candidates
            .into_iter()
            .find(|f| !ineligible.contains(&f.id))?;
        let spent = charges.get(&victim.id).copied().unwrap_or(0);
        Some((scan, victim, spent))
    };
    let (donor, (scan0, victim, spent)) = (0..SHARDS)
        .find_map(|k| Some((k, live_family_of(k)?)))
        .expect("the shard that died last still plans its own families");
    let recipient = 1 - donor;
    let sd0 = chaos_dir.join(format!("shard-{donor}"));
    let victim_id = victim.id;
    let steps: Vec<MigratedStep> = scan0
        .effective()
        .iter()
        .filter_map(|r| match r {
            RecoveryRecord::StepCompleted {
                family,
                kind,
                metadata,
                discoveries,
            } if *family == victim_id => Some(MigratedStep {
                kind: *kind,
                metadata: Arc::clone(metadata),
                discoveries: discoveries.clone(),
            }),
            _ => None,
        })
        .collect();
    assert!(
        !steps.is_empty(),
        "the donor finished a step before it died"
    );
    {
        let (log, _) = RecoveryLog::open(&sd0, chaos_spec.recovery).unwrap();
        log.append(&RecoveryRecord::FamilyMigrated {
            family: victim,
            from: donor as u64,
            to: recipient as u64,
            adopted: false,
            steps: steps.clone(),
            charges: spent,
        })
        .unwrap();
        // The supervisor brokered that move and journaled it before it
        // died too. The hinted recipient holds neither record of the
        // family, so the hint alone would seed a bare plan there and the
        // step the out-record carries would run a second time.
        let (root, _) = RecoveryLog::open(&chaos_dir, chaos_spec.recovery).unwrap();
        root.append(&RecoveryRecord::CustodyMoved {
            family: victim_id,
            from: donor as u64,
            to: recipient as u64,
        })
        .unwrap();
    }

    // Resume: the crash schedule is exhausted (one crash per shard is
    // already journaled), so this run must repair and converge.
    let (svc, token, _) = rig(seed);
    let report = svc.resume_job(token, &chaos_spec, &chaos_dir).unwrap();

    assert_eq!(doc_keys(&baseline.records), doc_keys(&report.records));
    assert_eq!(
        letter_keys(&baseline.failures),
        letter_keys(&report.failures)
    );

    // Exactly one owner: the donor half we fabricated is paired with
    // exactly one adopted in-record, and it lives in the recipient's WAL.
    let shard_logs: Vec<Replay> = scan_shards(&chaos_dir, SHARDS)
        .into_iter()
        .map(|s| s.expect("both shard dirs exist"))
        .collect();
    let mut outs = 0;
    let mut ins_by_shard = [0usize; SHARDS];
    for (k, log) in shard_logs.iter().enumerate() {
        for r in log.effective() {
            if let RecoveryRecord::FamilyMigrated {
                family,
                adopted,
                steps: carried,
                ..
            } = r
            {
                if family.id == victim_id {
                    if *adopted {
                        assert_eq!(carried, &steps, "the in-record carries the donor's steps");
                        ins_by_shard[k] += 1;
                    } else {
                        outs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(outs, 1, "the fabricated out-record must survive replay");
    assert_eq!(
        (ins_by_shard[donor], ins_by_shard[recipient]),
        (0, 1),
        "flip_side repair must land exactly one in-record, on the recipient"
    );

    // Zero duplicate steps across the root + both shard WALs.
    let root_log = RecoveryLog::scan(&chaos_dir).unwrap();
    assert!(root_log.completed());
    let mut all: Vec<&Replay> = vec![&root_log];
    all.extend(shard_logs.iter());
    assert_eq!(
        journaled_steps(&[&RecoveryLog::scan(&base_dir).unwrap()]),
        journaled_steps(&all)
    );

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
