//! The result path, worker to record: who still holds a task's result
//! once the job that asked for it has returned, and what a family's
//! document is made of.
//!
//! * After a job returns, the FaaS status table holds none of its tasks —
//!   on a plain run, after losses and resubmissions, and after a poll
//!   window closed over stragglers that are still running (the hedged
//!   runs are checked in `straggler_defense.rs`, which owns that rig).
//! * A family's final document is the fold, in journal order, of the
//!   `StepCompleted` metadata its owner's WAL holds: on a fresh run, on a
//!   run resumed from a mid-wave kill, and for a family that changed
//!   shards part-way through its plan (adopted from a dead shard, donated
//!   to an idle one) — also when donor and recipient compacted their WALs
//!   after the hand-off and the run was then killed and resumed. A donor's
//!   snapshot restates no step of a family it gave away, and a log laid
//!   out the way older builds wrote snapshots resumes to the same
//!   documents.
//! * The order in which tasks happen to settle never reaches the WAL.

use bytes::Bytes;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract::prelude::*;
use xtract_core::recovery::MigratedStep;
use xtract_core::{spec_fingerprint, JobReport, RecoveryLog, RecoveryRecord, XtractService};
use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope, StorageBackend, Token};
use xtract_faas::EndpointConfig;
use xtract_sim::RngStreams;
use xtract_types::config::ContainerRuntime;
use xtract_types::{
    CrashPoint, FamilyId, Metadata, OrchestratorCrash, PartitionerKind, ShardCrash, ShardPolicy,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtract-result-path-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const EP: EndpointId = EndpointId::new(0);

/// A table that `keyword` (wave 1) recognises as one, which appends
/// `tabular` and `null-value`: a three-step plan. `rows` sizes the file,
/// and with it how long each step runs.
fn csv_text(i: usize, rows: usize) -> String {
    let mut s = String::from("voltage,current,temp\n");
    for row in 0..rows {
        s.push_str(&format!("1.{row},0.{row},2{i}{row}\n"));
    }
    s
}

/// A fresh service over one compute endpoint holding `files`, with a job
/// spec whose single crawl worker keeps family ids in path order. Every
/// call builds the same world.
fn rig(files: Vec<(String, String)>, workers: usize) -> (XtractService, Token, JobSpec) {
    let fabric = Arc::new(DataFabric::new());
    let fs = Arc::new(MemFs::new(EP));
    for (path, text) in files {
        fs.write(&path, Bytes::from(text)).unwrap();
    }
    fabric.register(EP, "midway", fs);
    rig_over(fabric, workers)
}

fn rig_over(fabric: Arc<DataFabric>, workers: usize) -> (XtractService, Token, JobSpec) {
    let auth = Arc::new(AuthService::new());
    let token = auth.login(
        "result-path",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    );
    let svc = XtractService::new(fabric, auth, 7);
    let mut spec = JobSpec::single_endpoint(
        EndpointSpec {
            endpoint: EP,
            read_path: "/data".into(),
            store_path: Some("/stage".into()),
            available_bytes: 1 << 32,
            workers: Some(workers),
            runtime: ContainerRuntime::Docker,
        },
        "/data",
    );
    spec.crawl_workers = 1;
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    (svc, token, spec)
}

/// `n` three-step table families, one per directory.
fn tables(n: usize, rows: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| (format!("/data/t{i:02}/table.txt"), csv_text(i, rows)))
        .collect()
}

/// `n` single-step prose families, one per directory, sorting before
/// [`tables`]' directories.
fn notes(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            (
                format!("/data/n{i:02}/notes.txt"),
                format!("field observations of plot {i} under clear skies"),
            )
        })
        .collect()
}

/// The mixed sample repository every other integration test uses.
fn sample_rig(files: u64, workers: usize) -> (XtractService, Token, JobSpec) {
    let fabric = Arc::new(DataFabric::new());
    let fs = Arc::new(MemFs::new(EP));
    xtract_workloads::materialize::sample_repo(fs.as_ref(), "/data", files, &RngStreams::new(41));
    fabric.register(EP, "midway", fs);
    rig_over(fabric, workers)
}

/// Nothing the job submitted is still tracked, and the books agree.
fn assert_nothing_tracked(svc: &XtractService) {
    assert_eq!(svc.faas().tracked_tasks(), vec![]);
    let hub = &svc.obs().hub;
    assert_eq!(hub.gauge_value("faas.tasks_tracked", None), 0);
    assert_eq!(
        hub.counter_value("faas.tasks_forgotten", None),
        hub.counter_value("faas.tasks_submitted", None)
    );
}

#[test]
fn a_plain_job_leaves_no_task_rows_behind() {
    let (svc, token, spec) = sample_rig(80, 4);
    let report = svc.run_job(token, &spec).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.records.len() as u64, report.families);
    assert!(svc.obs().hub.counter_value("faas.tasks_submitted", None) > 0);
    assert_nothing_tracked(&svc);

    // A second job on the same long-lived service starts from an empty
    // table and leaves it empty.
    let again = svc.run_job(token, &spec).unwrap();
    assert_eq!(again.records.len(), report.records.len());
    assert_nothing_tracked(&svc);
}

#[test]
fn lost_and_resubmitted_tasks_are_forgotten_too() {
    let (svc, token, mut spec) = sample_rig(60, 4);
    spec.xtract_batch_size = 2;
    spec.fault_plan = Some(FaultPlan {
        heartbeat_loss_rate: 0.25,
        worker_crash_rate: 0.15,
        ..FaultPlan::new(23)
    });
    let report = svc.run_job(token, &spec).unwrap();
    assert!(report.resubmitted > 0, "the plan must lose some tasks");
    assert_eq!(
        report.records.len() + report.failures.len(),
        report.families as usize
    );
    assert_nothing_tracked(&svc);
}

#[test]
fn stragglers_abandoned_at_the_poll_window_never_come_back() {
    let (svc, token, mut spec) = rig(notes(3), 1);
    spec.xtract_batch_size = 1;
    spec.hedge = HedgePolicy::disabled();
    spec.retry.poll_window_ms = 40;
    spec.retry.task_attempts = 2;
    // Every task takes ten windows just to be dispatched: each wave's
    // window closes over tasks that are queued or running, cancels them,
    // and walks away.
    let ep = svc.faas().connect_endpoint(EndpointConfig {
        endpoint: EP,
        workers: 1,
        cold_start: Duration::ZERO,
        dispatch_delay: Duration::from_millis(400),
    });
    let report = svc.run_job(token, &spec).unwrap();
    assert_eq!(report.records.len(), 0);
    assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
    assert!(svc
        .obs()
        .journal
        .events()
        .iter()
        .any(|r| matches!(r.event, xtract_obs::Event::PollWindowExpired { .. })));
    assert_nothing_tracked(&svc);

    // The worker is still chewing through the abandoned queue. Whatever it
    // finishes or drops from here on finds no row to write into.
    let submitted = svc.obs().hub.counter_value("faas.tasks_submitted", None);
    let counters = ep.counters();
    let deadline = Instant::now() + Duration::from_secs(30);
    while counters.cancelled.get() + counters.executed.get() < submitted {
        assert!(Instant::now() < deadline, "the endpoint never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(counters.cancelled.get() > 0);
    assert_nothing_tracked(&svc);
}

/// Per family, the metadata of its completed steps in the order this WAL
/// journaled them: its own `StepCompleted` records, and the steps an
/// adopted family carried in at the position of its in-record. A step
/// restated for a kind already seen is skipped, as the wave loop skips it.
fn journaled_steps(dir: &Path) -> HashMap<FamilyId, Vec<(String, Arc<Metadata>)>> {
    let replay = RecoveryLog::scan(dir).unwrap();
    let mut steps: HashMap<FamilyId, Vec<(String, Arc<Metadata>)>> = HashMap::new();
    let mut push = |family: FamilyId, kind: &str, metadata: &Arc<Metadata>| {
        let list = steps.entry(family).or_default();
        if !list.iter().any(|(k, _)| k == kind) {
            list.push((kind.to_string(), Arc::clone(metadata)));
        }
    };
    for r in replay.effective() {
        match r {
            RecoveryRecord::StepCompleted {
                family,
                kind,
                metadata,
                ..
            } => push(*family, kind.name(), metadata),
            RecoveryRecord::FamilyMigrated {
                family,
                adopted: true,
                steps,
                ..
            } => {
                for s in steps {
                    push(family.id, s.kind.name(), &s.metadata);
                }
            }
            _ => {}
        }
    }
    steps
}

/// Every record's document is the journal-order fold of its family's
/// steps (later steps win on scalar collisions, objects merge), and its
/// provenance list names them in the same order. With several WALs the
/// family's owner is the one that journaled all of its steps.
fn assert_documents_are_journal_folds(report: &JobReport, wals: &[PathBuf]) {
    let journals: Vec<_> = wals.iter().map(|d| journaled_steps(d)).collect();
    assert!(!report.records.is_empty());
    for record in &report.records {
        let steps = journals
            .iter()
            .filter_map(|j| j.get(&record.family))
            .max_by_key(|steps| steps.len())
            .unwrap_or_else(|| panic!("{} has no journaled step", record.family));
        let mut folded = Metadata::new();
        for (_, metadata) in steps {
            folded.merge(metadata);
        }
        assert_eq!(record.document, folded, "{}", record.family);
        let kinds: Vec<&str> = steps.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(record.extractors, kinds, "{}", record.family);
    }
}

#[test]
fn a_fresh_runs_documents_are_the_journal_order_fold_of_their_steps() {
    let mut files = tables(6, 24);
    files.extend(notes(3));
    let (svc, token, spec) = rig(files, 2);
    let dir = tempdir("fresh");
    let report = svc.run_job_with_recovery(token, &spec, &dir).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.records.len(), 9);
    assert!(report.waves >= 3, "tables run a three-step plan");
    assert!(report
        .records
        .iter()
        .any(|r| r.extractors == ["keyword", "tabular", "null-value"]));
    assert_documents_are_journal_folds(&report, std::slice::from_ref(&dir));
    assert_nothing_tracked(&svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_resumed_from_a_mid_wave_kill_folds_replayed_and_new_steps_alike() {
    let mut files = tables(6, 24);
    files.extend(notes(3));
    let dir = tempdir("resumed");
    let (svc, token, mut spec) = rig(files.clone(), 2);
    spec.fault_plan = Some(FaultPlan {
        orchestrator_crashes: vec![OrchestratorCrash {
            point: CrashPoint::MidWave,
            at_occurrence: 1,
        }],
        ..FaultPlan::new(3)
    });
    let err = svc.run_job_with_recovery(token, &spec, &dir).unwrap_err();
    assert!(matches!(err, XtractError::OrchestratorKilled { .. }));
    // The killed run settled every task of its one wave before it died.
    assert_nothing_tracked(&svc);

    // A new service, sharing only the log: wave 1's steps are replayed
    // handles, the rest are extracted now.
    let (svc, token, _) = rig(files, 2);
    let report = svc.resume_job(token, &spec, &dir).unwrap();
    assert!(report.resumed);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.records.len(), 9);
    assert_eq!(
        report.invocations.get("keyword"),
        None,
        "wave 1 must not run twice"
    );
    assert_documents_are_journal_folds(&report, std::slice::from_ref(&dir));
    assert_nothing_tracked(&svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Documents by content, for comparing runs whose family ids differ.
fn sorted_documents(report: &JobReport) -> Vec<String> {
    let mut docs: Vec<String> = report
        .records
        .iter()
        .map(|r| serde_json::to_string(&r.document).unwrap())
        .collect();
    docs.sort();
    docs
}

/// Steps that adopted families carried into the WALs under `dir`.
fn carried_steps(wals: &[PathBuf]) -> usize {
    let mut carried = 0;
    for wal in wals {
        for r in RecoveryLog::scan(wal).unwrap().effective() {
            if let RecoveryRecord::FamilyMigrated {
                adopted: true,
                steps,
                ..
            } = r
            {
                carried += steps.len();
            }
        }
    }
    carried
}

/// Eight prose families for shard 0, eight tables for shard 1 (the range
/// partitioner splits the path-ordered ids down the middle), and the
/// unsharded run's documents to hold a sharded run to.
fn two_shard_corpus(table_rows: usize) -> (Vec<(String, String)>, Vec<String>) {
    let mut files = notes(8);
    files.extend(tables(8, table_rows));
    let (svc, token, spec) = rig(files.clone(), 2);
    let baseline = svc.run_job(token, &spec).unwrap();
    assert_eq!(baseline.records.len(), 16);
    (files, sorted_documents(&baseline))
}

#[test]
fn a_family_that_changes_shards_folds_carried_and_local_steps_in_order() {
    // Shard 1 dies at its first wave boundary with `keyword` journaled for
    // every table; shard 0 adopts the orphans with that step carried in
    // their in-records and runs `tabular` and `null-value` itself. Each
    // document is then one carried handle and two local ones, folded late.
    let (files, baseline) = two_shard_corpus(24);
    let dir = tempdir("adopted");
    let (svc, token, mut spec) = rig(files, 2);
    spec.shard = ShardPolicy::sharded(2);
    spec.shard.partitioner = PartitionerKind::Range;
    spec.fault_plan = Some(FaultPlan {
        shard_crashes: vec![ShardCrash {
            shard: 1,
            point: CrashPoint::MidWave,
            at_occurrence: 1,
        }],
        ..FaultPlan::new(5)
    });
    let report = svc.run_job_with_recovery(token, &spec, &dir).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.shard_deaths, 1);
    assert_eq!(report.stolen_families, 8);
    let wals = [dir.join("shard-0"), dir.join("shard-1")];
    assert_eq!(carried_steps(&wals), 8, "one `keyword` step per table");
    assert_documents_are_journal_folds(&report, &wals);
    assert_eq!(sorted_documents(&report), baseline);
    assert_nothing_tracked(&svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_donated_familys_document_survives_the_hand_off() {
    // The live hand-off: shard 0 drains its prose while shard 1 is inside
    // wave 1 of tables big enough for that to take a while, parks idle and
    // pulls tables, whose donor looks their completed steps up in its
    // per-family step index. Whether a given run steals, and whether the
    // stolen families have a step behind them yet, is a race
    // (`shard_scaleout.rs` owns "a steal happens"); whatever moved, every
    // document must be the fold of what its owner journaled.
    let (files, baseline) = two_shard_corpus(1500);
    for round in 0..3 {
        let dir = tempdir(&format!("donated-{round}"));
        let (svc, token, mut spec) = rig(files.clone(), 2);
        spec.shard = ShardPolicy::sharded(2);
        spec.shard.partitioner = PartitionerKind::Range;
        let report = svc.run_job_with_recovery(token, &spec, &dir).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let wals = [dir.join("shard-0"), dir.join("shard-1")];
        assert_documents_are_journal_folds(&report, &wals);
        assert_eq!(sorted_documents(&report), baseline);
        assert_nothing_tracked(&svc);
        let carried = carried_steps(&wals);
        let _ = std::fs::remove_dir_all(&dir);
        if carried > 0 {
            break;
        }
    }
}

/// The families a donor's snapshot says it gave away (its last migration
/// record for them is an out-record) and those whose steps it restates.
/// `wal` is a log whose owner was killed inside a compaction, so its live
/// view is `[snapshot.., the mid-compaction crash, whatever the
/// coordinator appended while adopting its orphans..]`; `None` when it is
/// not.
fn snapshot_donations(wal: &Path) -> Option<(Vec<FamilyId>, Vec<FamilyId>)> {
    let replay = RecoveryLog::scan(wal).unwrap();
    let view = replay.effective();
    let end = view.iter().position(
        |r| matches!(r, RecoveryRecord::CrashRecorded { point } if point == "mid-compaction"),
    )?;
    let mut away: HashMap<FamilyId, bool> = HashMap::new();
    let mut restated = Vec::new();
    for r in &view[..end] {
        match r {
            RecoveryRecord::FamilyMigrated {
                family, adopted, ..
            } => {
                away.insert(family.id, !adopted);
            }
            RecoveryRecord::StepCompleted { family, .. } => restated.push(*family),
            _ => {}
        }
    }
    let donated = away
        .into_iter()
        .filter_map(|(family, gone)| gone.then_some(family))
        .collect();
    Some((donated, restated))
}

#[test]
fn a_donated_familys_steps_leave_the_donors_snapshots_and_survive_a_kill_and_resume() {
    // The live hand-off again, with segments so small that both shards
    // compact after every wave. Shard 0 drains its prose, parks and pulls
    // tables off shard 1. The donor is killed inside its third compaction
    // — its live WAL view is then exactly that snapshot — and the
    // recipient at its third wave, the last of the stolen tables' plans:
    // nobody is left, the run strands, and a resume has to finish it from
    // two compacted logs. Whether shard 0 parks in time to steal before
    // the donor's last wave is a race, so a round that did not is run
    // again; every round is held to the documents.
    let (files, baseline) = two_shard_corpus(3000);
    let mut exercised = false;
    for round in 0..5 {
        let dir = tempdir(&format!("compacted-{round}"));
        let wals = [dir.join("shard-0"), dir.join("shard-1")];
        let (_, _, mut spec) = rig(files.clone(), 2);
        spec.shard = ShardPolicy::sharded(2);
        spec.shard.partitioner = PartitionerKind::Range;
        spec.recovery.segment_bytes = 512;
        spec.recovery.compact_segments = 2;
        spec.fault_plan = Some(FaultPlan {
            shard_crashes: vec![
                ShardCrash {
                    shard: 1,
                    point: CrashPoint::MidCompaction,
                    at_occurrence: 3,
                },
                ShardCrash {
                    shard: 0,
                    point: CrashPoint::MidWave,
                    at_occurrence: 3,
                },
            ],
            ..FaultPlan::new(9)
        });

        let (svc, token, _) = rig(files.clone(), 2);
        let mut outcome = svc.resume_job(token, &spec, &dir);
        if matches!(outcome, Err(XtractError::ShardDied { .. })) {
            // Stranded. What the donor's snapshot holds, before a resume
            // appends to it:
            if let Some((donated, restated)) = snapshot_donations(&wals[1]) {
                if !donated.is_empty() {
                    exercised = true;
                    assert!(
                        !restated.is_empty(),
                        "the snapshot restates the steps of the families the donor kept"
                    );
                    for family in &donated {
                        assert!(
                            !restated.contains(family),
                            "{family} was donated and its out-record carries its steps: \
                             the snapshot must not restate them"
                        );
                    }
                }
            }
            // A fresh service, sharing only the logs. Each shard's kill is
            // journaled, so nothing dies twice.
            let (svc, token, _) = rig(files.clone(), 2);
            outcome = svc.resume_job(token, &spec, &dir);
            assert_nothing_tracked(&svc);
        } else {
            // The steal came too late for both kills to land.
            exercised = false;
        }
        let report = outcome.unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_documents_are_journal_folds(&report, &wals);
        assert_eq!(sorted_documents(&report), baseline);
        let _ = std::fs::remove_dir_all(&dir);
        if exercised {
            break;
        }
    }
    assert!(
        exercised,
        "no round stranded with a donation inside the donor's snapshot"
    );
}

#[test]
fn a_log_in_the_older_snapshot_order_resumes_to_the_same_documents() {
    // Older builds restated a snapshot's steps in journal order —
    // interleaved across families, a donated family's steps included,
    // ahead of its out-record — where this one restates them family by
    // family and leaves a donated family's to the out-record. Both must
    // replay to the same state. The log is written by hand from a real
    // run's records: six tables two waves into their plans, one of them
    // given away, one arriving by in-record with its first step both
    // carried and restated.
    let files = tables(6, 24);
    let (svc, token, spec) = rig(files.clone(), 2);
    let baseline = svc.run_job(token, &spec).unwrap();
    assert_eq!(baseline.records.len(), 6);

    let run_dir = tempdir("older-order-run");
    let (svc, token, mut killed) = rig(files.clone(), 2);
    killed.fault_plan = Some(FaultPlan {
        orchestrator_crashes: vec![OrchestratorCrash {
            point: CrashPoint::MidWave,
            at_occurrence: 2,
        }],
        ..FaultPlan::new(3)
    });
    let err = svc
        .run_job_with_recovery(token, &killed, &run_dir)
        .unwrap_err();
    assert!(matches!(err, XtractError::OrchestratorKilled { .. }));
    let journal = RecoveryLog::scan(&run_dir).unwrap().records;
    let planned: Vec<&Family> = journal
        .iter()
        .filter_map(|r| match r {
            RecoveryRecord::FamilyPlanned { family } => Some(family),
            _ => None,
        })
        .collect();
    assert_eq!(planned.len(), 6);
    let journaled = |id: FamilyId| -> Vec<MigratedStep> {
        journal
            .iter()
            .filter_map(|r| match r {
                RecoveryRecord::StepCompleted {
                    family,
                    kind,
                    metadata,
                    discoveries,
                } if *family == id => Some(MigratedStep {
                    kind: *kind,
                    metadata: Arc::clone(metadata),
                    discoveries: discoveries.clone(),
                }),
                _ => None,
            })
            .collect()
    };
    let (donated, arriving) = (planned[1], planned[4]);
    assert_eq!(journaled(donated.id).len(), 2, "keyword and tabular ran");

    let mut log = vec![
        RecoveryRecord::JobStarted {
            fingerprint: spec_fingerprint(&spec),
        },
        RecoveryRecord::CrawlCompleted {
            crawled_files: 6,
            groups: 6,
            redundant_files: 0,
        },
    ];
    // The plan, without the family that arrives by in-record.
    log.extend(planned.iter().filter(|f| f.id != arriving.id).map(|f| {
        RecoveryRecord::FamilyPlanned {
            family: (*f).clone(),
        }
    }));
    // Every journaled step, in journal order: wave 1 of all six families,
    // then wave 2 of all six. The arriving family keeps only its first.
    log.extend(
        journal
            .iter()
            .filter(|r| match r {
                RecoveryRecord::StepCompleted { family, kind, .. } => {
                    *family != arriving.id || kind.name() == "keyword"
                }
                _ => false,
            })
            .cloned(),
    );
    log.push(RecoveryRecord::FamilyMigrated {
        family: donated.clone(),
        from: 0,
        to: 1,
        adopted: false,
        steps: journaled(donated.id),
        charges: 0,
    });
    log.push(RecoveryRecord::FamilyMigrated {
        family: arriving.clone(),
        from: 1,
        to: 0,
        adopted: true,
        steps: journaled(arriving.id)[..1].to_vec(),
        charges: 0,
    });
    let dir = tempdir("older-order");
    {
        let (wal, _) = RecoveryLog::open(&dir, spec.recovery).unwrap();
        wal.append_batch(&log).unwrap();
    }

    let (svc, token, _) = rig(files, 2);
    let report = svc.resume_job(token, &spec, &dir).unwrap();
    assert!(report.resumed);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.invocations.get("keyword"), None);
    assert_eq!(report.invocations["tabular"], 1, "the arriving family's");
    assert_eq!(report.invocations["null-value"], 5);
    let mut expected: Vec<_> = baseline
        .records
        .iter()
        .filter(|r| r.family != donated.id)
        .collect();
    expected.sort_by_key(|r| r.family);
    let mut got: Vec<_> = report.records.iter().collect();
    got.sort_by_key(|r| r.family);
    assert_eq!(got, expected);
    assert_documents_are_journal_folds(&report, std::slice::from_ref(&dir));
    assert_nothing_tracked(&svc);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first payload byte of every frame in the segments under `dir`.
fn frame_kinds(dir: &Path) -> Vec<u8> {
    let bytes = wal_bytes(dir);
    let (mut kinds, mut at) = (Vec::new(), 0);
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        kinds.push(bytes[at + 8]);
        at += 8 + len;
    }
    kinds
}

#[test]
fn a_log_of_json_frames_and_todays_log_resume_to_the_uninterrupted_runs_documents() {
    // A job killed two waves in leaves a log whose plan and steps are
    // binary frames. The same records framed the way every build before
    // the binary encoding framed them (JSON, `[len][crc][payload]`) are
    // the log an upgrade finds on disk. Both resume to the report an
    // uninterrupted run returns, float for float.
    let files = tables(6, 24);
    let (svc, token, spec) = rig(files.clone(), 2);
    let baseline = svc.run_job(token, &spec).unwrap();
    assert_eq!(baseline.records.len(), 6);

    let run_dir = tempdir("frames-binary");
    let (svc, token, mut killed) = rig(files.clone(), 2);
    killed.fault_plan = Some(FaultPlan {
        orchestrator_crashes: vec![OrchestratorCrash {
            point: CrashPoint::MidWave,
            at_occurrence: 2,
        }],
        ..FaultPlan::new(3)
    });
    let err = svc
        .run_job_with_recovery(token, &killed, &run_dir)
        .unwrap_err();
    assert!(matches!(err, XtractError::OrchestratorKilled { .. }));
    let journal = RecoveryLog::scan(&run_dir).unwrap().records;
    let hot = |r: &&RecoveryRecord| {
        matches!(
            r,
            RecoveryRecord::FamilyPlanned { .. } | RecoveryRecord::StepCompleted { .. }
        )
    };
    assert_eq!(journal.iter().filter(hot).count(), 6 + 12);
    let kinds = frame_kinds(&run_dir);
    assert_eq!(kinds.len(), journal.len());
    assert_eq!(kinds.iter().filter(|&&k| k != b'{').count(), 6 + 12);

    let json_dir = tempdir("frames-json");
    let mut segment = Vec::new();
    for record in &journal {
        let payload = serde_json::to_vec(record).unwrap();
        segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        segment.extend_from_slice(&xtract_core::recovery::crc32(&payload).to_le_bytes());
        segment.extend_from_slice(&payload);
    }
    std::fs::write(json_dir.join("wal-000000.log"), &segment).unwrap();
    assert!(frame_kinds(&json_dir).iter().all(|&k| k == b'{'));
    assert!(RecoveryLog::scan(&json_dir).unwrap().records == journal);

    let rendered = |report: &JobReport| -> Vec<(FamilyId, String)> {
        let mut docs: Vec<_> = report
            .records
            .iter()
            .map(|r| (r.family, serde_json::to_string(r).unwrap()))
            .collect();
        docs.sort();
        docs
    };
    for dir in [&run_dir, &json_dir] {
        let (svc, token, _) = rig(files.clone(), 2);
        let report = svc.resume_job(token, &killed, dir).unwrap();
        assert!(report.resumed);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.invocations.get("keyword"), None);
        assert_eq!(report.invocations.get("tabular"), None);
        assert_eq!(report.invocations["null-value"], 6);
        assert_eq!(rendered(&report), rendered(&baseline));
        assert_documents_are_journal_folds(&report, std::slice::from_ref(dir));
        assert_nothing_tracked(&svc);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every byte of every WAL segment under `dir`, in segment order.
fn wal_bytes(dir: &Path) -> Vec<u8> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file() && p.file_name().is_some_and(|n| n != "wal.lease"))
        .collect();
    segments.sort();
    assert!(!segments.is_empty());
    segments
        .iter()
        .flat_map(|p| std::fs::read(p).unwrap())
        .collect()
}

#[test]
fn settle_order_never_reaches_the_wal_or_the_report() {
    // Four workers race through one-family tasks, so tasks settle in a
    // different order every run; results are decoded as they settle but
    // applied in entry order, so two runs of one seeded job journal the
    // same bytes and report the same records, failures and ledgers.
    let run = |tag: &str| {
        let mut files = tables(10, 40);
        files.extend(notes(10));
        // One file no extractor can read: a dead letter in the mix.
        files.push(("/data/zz/broken.json".into(), "{\"unterminated\": ".into()));
        let (svc, token, mut spec) = rig(files, 4);
        spec.xtract_batch_size = 1;
        spec.funcx_batch_size = 4;
        let dir = tempdir(tag);
        let report = svc.run_job_with_recovery(token, &spec, &dir).unwrap();
        assert_nothing_tracked(&svc);
        let bytes = wal_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (report, bytes)
    };
    let (a, wal_a) = run("order-a");
    let (b, wal_b) = run("order-b");
    assert_eq!(a.records.len() + a.failures.len(), 21);
    assert_eq!(a.records, b.records);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.invocations, b.invocations);
    assert_eq!((a.waves, a.resubmitted), (b.waves, b.resubmitted));
    assert_eq!(wal_a.len(), wal_b.len());
    assert!(
        wal_a == wal_b,
        "two runs of one seeded job journaled different bytes"
    );
}
