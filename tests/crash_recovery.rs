//! Kill–resume chaos differential: the §5.8.1 restart experiment taken to
//! its production conclusion. A job journaling to a durable recovery log
//! is killed at every scheduled crash point — after the crawl, at a
//! wave-commit boundary, mid-flush (leaving a torn record the next open
//! must truncate), and mid-compaction (between snapshot and unlink) — and
//! resumed each time by a brand-new service sharing *nothing* with its
//! predecessor but the log directory. The final resumed report must be
//! equivalent to an uninterrupted baseline: same record set, same
//! dead-letter set, zero duplicate `(family, extractor)` invocations, and
//! `recovery.*` counters that exactly account for every record an
//! independent scan of the log sees.

use bytes::Bytes;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use xtract::prelude::*;
use xtract_core::{RecoveryLog, RecoveryRecord, Replay, XtractService};
use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope, StorageBackend, Token};
use xtract_types::config::{ContainerRuntime, RecoveryPolicy};
use xtract_types::{CrashPoint, FamilyId, MetadataRecord, OrchestratorCrash};

/// The fault-plan seed: `XTRACT_CHAOS_SEED` when set (the CI chaos matrix
/// sweeps several fixed seeds in `--release`), otherwise the test's
/// historical default. The crash *schedule* ignores the seed entirely —
/// scheduled kills are deterministic — so every assertion here is
/// seed-robust by construction.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("XTRACT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtract-crash-recovery-{tag}-{}-{:?}",
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

/// Four text files that parse as clean tables: keyword (wave 1) discovers
/// tabular content, which appends tabular + null-value (§5.8.2) — so
/// every compute-local family runs a three-wave plan, giving the
/// MidWave/MidFlush/MidCompaction kill-points distinct waves to land on.
const CSV_TEXTS: [&str; 4] = [
    "voltage,current\n1.2,0.4\n1.5,0.5\n1.9,0.7\n",
    "sample,yield\nperovskite,0.82\nanatase,0.61\n",
    "temp,pressure\n270,1.1\n280,1.4\n290,1.9\n",
    "run,energy\nalpha,12.5\nbeta,13.1\ngamma,\n",
];

/// A fresh service over a fresh two-endpoint fabric with an identical
/// corpus every call: ep0 has compute but no staging store, ep1 holds two
/// data-only directories. Every ep1 family must stage to ep0, finds no
/// store there, and dead-letters deterministically (`PrefetchFailed`) —
/// in the baseline and in every crash segment alike.
fn rig(seed: u64) -> (XtractService, Token, JobSpec) {
    let fabric = Arc::new(DataFabric::new());
    let exec_ep = EndpointId::new(0);
    let data_ep = EndpointId::new(1);
    let exec_fs = Arc::new(MemFs::new(exec_ep));
    let data_fs = Arc::new(MemFs::new(data_ep));
    for (i, text) in CSV_TEXTS.iter().enumerate() {
        exec_fs
            .write(&format!("/data/d{i}/notes.txt"), Bytes::from(*text))
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
    // Tiny segments + an eager compaction threshold so rotation and
    // compaction both happen inside this small job.
    spec.recovery = RecoveryPolicy {
        segment_bytes: 1024,
        sync_each_commit: true,
        compact_segments: 2,
    };
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    (svc, token, spec)
}

/// Content key for a record: family ids are allocator-dependent (two
/// crawl threads race), so records compare by their documents — which
/// carry the file inventory, extractor provenance, and extracted output,
/// and no ids.
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

/// Every `StepCompleted` in the log's effective view, keyed by the
/// family's (sorted) file paths + the extractor — and asserted unique:
/// a duplicate means some crash segment re-invoked an extractor whose
/// output was already journaled.
fn journaled_steps(replay: &Replay) -> Vec<(Vec<String>, &'static str)> {
    let mut fam_files: HashMap<FamilyId, Vec<String>> = HashMap::new();
    for r in replay.effective() {
        if let RecoveryRecord::FamilyPlanned { family } = r {
            let mut files: Vec<String> = family.files.iter().map(|f| f.path.clone()).collect();
            files.sort();
            fam_files.insert(family.id, files);
        }
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for r in replay.effective() {
        if let RecoveryRecord::StepCompleted { family, kind, .. } = r {
            assert!(
                seen.insert((*family, *kind)),
                "duplicate (family, extractor) journaled: {family} {kind}"
            );
            out.push((fam_files[family].clone(), kind.name()));
        }
    }
    out.sort();
    out
}

#[test]
fn kill_resume_chaos_differential_matches_uninterrupted_baseline() {
    let seed = chaos_seed(17);

    // --- The uninterrupted baseline, journaling to its own log. --------
    let base_dir = tempdir("baseline");
    let (svc, token, spec) = rig(seed);
    let baseline = svc.run_job_with_recovery(token, &spec, &base_dir).unwrap();
    let baseline_flushes = svc.obs().hub.counter_value("steps.completed", None);
    assert!(
        baseline.waves >= 3,
        "need >= 3 waves for the kill schedule, got {}",
        baseline.waves
    );
    assert_eq!(baseline.records.len(), 4);
    assert_eq!(baseline.failures.len(), 2, "{:?}", baseline.failures);
    assert_eq!(
        baseline.records.len() + baseline.failures.len(),
        baseline.families as usize
    );

    // --- The chaos run: same spec plus an ordered kill schedule hitting
    // all four crash points, resumed by a fresh service each time. ------
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
            OrchestratorCrash {
                point: CrashPoint::MidCompaction,
                at_occurrence: 1,
            },
        ],
        ..FaultPlan::new(seed)
    });

    let mut kill_points: Vec<String> = Vec::new();
    let mut chaos_flushes = 0u64;
    let mut saw_truncation = false;
    let mut final_report = None;
    for _attempt in 0..10 {
        // What an independent, read-only scan sees right now is exactly
        // what the resuming service must account for in its counters.
        let expect = RecoveryLog::scan(&chaos_dir).unwrap();
        let (svc, token, _) = rig(seed);
        let outcome = svc.resume_job(token, &chaos_spec, &chaos_dir);
        let snap = svc.obs().hub.snapshot();
        assert_eq!(
            snap.counter("recovery.replayed"),
            expect.records.len() as u64,
            "replayed counter disagrees with an independent scan"
        );
        assert_eq!(
            snap.counter("recovery.truncated"),
            expect.truncated_records,
            "truncated counter disagrees with an independent scan"
        );
        saw_truncation |= expect.truncated_records > 0;
        chaos_flushes += svc.obs().hub.counter_value("steps.completed", None);
        match outcome {
            Ok(report) => {
                final_report = Some(report);
                break;
            }
            Err(XtractError::OrchestratorKilled { point }) => kill_points.push(point),
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    let final_report = final_report.expect("job never converged after the kill schedule");

    // The schedule fired in order, once per segment, all four points.
    assert_eq!(
        kill_points,
        vec!["after-crawl", "mid-wave", "mid-flush", "mid-compaction"]
    );
    // The mid-flush kill left a torn record some later open truncated.
    assert!(saw_truncation, "mid-flush never produced a torn tail");
    assert!(final_report.resumed);
    assert!(final_report.replayed_records > 0);

    // --- The differential: the resumed job converged to the baseline. --
    assert_eq!(doc_keys(&baseline.records), doc_keys(&final_report.records));
    assert_eq!(
        letter_keys(&baseline.failures),
        letter_keys(&final_report.failures)
    );
    // Every step across all crash segments completed exactly once: a
    // resumed family takes its journaled steps over without counting
    // them again, so the cumulative count equals the uninterrupted run's.
    assert_eq!(chaos_flushes, baseline_flushes);

    // --- Zero duplicate invocations, proven from the log itself: each
    // (family, extractor) step is journaled exactly once, and the chaos
    // log's step set equals the baseline's. -----------------------------
    let base_log = RecoveryLog::scan(&base_dir).unwrap();
    let chaos_log = RecoveryLog::scan(&chaos_dir).unwrap();
    assert!(base_log.completed() && chaos_log.completed());
    assert_eq!(chaos_log.crash_count(), 4);
    assert_eq!(journaled_steps(&base_log), journaled_steps(&chaos_log));

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

#[test]
fn resume_of_a_finished_job_reruns_nothing() {
    let seed = chaos_seed(1009);
    let dir = tempdir("finished");
    let (svc, token, spec) = rig(seed);
    let first = svc.run_job_with_recovery(token, &spec, &dir).unwrap();
    assert!(!first.invocations.is_empty());

    let (svc2, token2, _) = rig(seed);
    let resumed = svc2.resume_job(token2, &spec, &dir).unwrap();
    assert!(resumed.resumed);
    assert!(
        resumed.invocations.is_empty(),
        "a finished job re-invoked extractors: {:?}",
        resumed.invocations
    );
    assert_eq!(resumed.waves, 0);
    assert_eq!(doc_keys(&first.records), doc_keys(&resumed.records));
    assert_eq!(letter_keys(&first.failures), letter_keys(&resumed.failures));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_kills_at_the_same_point_advance_through_the_schedule() {
    // Two MidWave kills at successive occurrences: the first fires at the
    // first wave boundary, the second entry arms on resume and fires at
    // the *next* boundary reached — the schedule is a cursor, not a trap
    // that re-fires forever.
    let seed = chaos_seed(86243);
    let dir = tempdir("repeat");
    let (_svc, _token, spec) = rig(seed);
    let mut chaos_spec = spec.clone();
    chaos_spec.fault_plan = Some(FaultPlan {
        orchestrator_crashes: vec![
            OrchestratorCrash {
                point: CrashPoint::MidWave,
                at_occurrence: 1,
            },
            OrchestratorCrash {
                point: CrashPoint::MidWave,
                at_occurrence: 2,
            },
        ],
        ..FaultPlan::new(seed)
    });
    let mut kills = 0;
    let mut report = None;
    for _ in 0..6 {
        let (svc, token, _) = rig(seed);
        match svc.resume_job(token, &chaos_spec, &dir) {
            Ok(r) => {
                report = Some(r);
                break;
            }
            Err(XtractError::OrchestratorKilled { point }) => {
                assert_eq!(point, "mid-wave");
                kills += 1;
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    let report = report.expect("never converged");
    assert_eq!(kills, 2);
    assert_eq!(report.records.len(), 4);
    assert_eq!(report.failures.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
