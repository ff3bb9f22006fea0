//! Adaptive two-level batching, end to end through the live service:
//!
//! * `AdaptiveBatching::disabled()` (the `JobSpec` default) must leave a
//!   job's behavior identical to a spec that never mentions the policy —
//!   same records, and no `BatchTuned` journal entries or controller
//!   counters.
//! * An adaptive-enabled job must extract exactly the same record set as
//!   its static twin while journaling the limits each wave ran with.
//! * A tenant invocation quota must keep capping the controller's funcX
//!   appetite without costing the job any records.
//! * An adaptive job killed mid-run must resume from its recovery log and
//!   converge to the uninterrupted record set, with the controller warm-
//!   started from the replayed wave count rather than reset to the floor.

use bytes::Bytes;
use std::path::PathBuf;
use std::sync::Arc;
use xtract::prelude::*;
use xtract_core::adaptive::{FUNCX_CEILING, FUNCX_FLOOR, XTRACT_CEILING, XTRACT_FLOOR};
use xtract_core::{TenantRegistry, XtractService};
use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope, StorageBackend, Token};
use xtract_obs::Event;
use xtract_types::config::ContainerRuntime;
use xtract_types::{CrashPoint, MetadataRecord, OrchestratorCrash, TenantQuota, TenantSpec};

fn full_token(auth: &AuthService) -> Token {
    auth.login(
        "adaptive",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    )
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtract-adaptive-batching-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fresh service over one compute endpoint holding `n` single-file
/// tabular families. Each family runs a two-step plan (`tabular` then
/// `null-values`), so every run has at least two extraction waves for the
/// controller to observe.
fn rig(n: usize, seed: u64) -> (XtractService, Token, JobSpec) {
    let fabric = Arc::new(DataFabric::new());
    let ep = EndpointId::new(0);
    let fs = Arc::new(MemFs::new(ep));
    for i in 0..n {
        fs.write(
            &format!("/data/run{i:02}.csv"),
            Bytes::from(format!(
                "sensor,reading,flag\nalpha-{i},1.{i},ok\nbeta-{i},2.{i},\n"
            )),
        )
        .unwrap();
    }
    fabric.register(ep, "midway", fs);
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let svc = XtractService::new(fabric, auth, seed);
    let spec = JobSpec::single_endpoint(
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
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    (svc, token, spec)
}

/// Content keys: family ids are allocator-dependent, so records compare
/// by their documents, which carry the file inventory and extracted
/// output but no ids.
fn doc_keys(records: &[MetadataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .map(|r| format!("{:?}", r.document))
        .collect();
    keys.sort();
    keys
}

fn tuned_events(svc: &XtractService) -> Vec<(u64, u64)> {
    svc.obs()
        .journal
        .events()
        .iter()
        .filter_map(|r| match r.event {
            Event::BatchTuned { xtract, funcx, .. } => Some((xtract, funcx)),
            _ => None,
        })
        .collect()
}

#[test]
fn disabled_policy_matches_an_untouched_spec_exactly() {
    let (svc_a, tok_a, spec_a) = rig(6, 11);
    let base = svc_a.run_job(tok_a, &spec_a).unwrap();

    let (svc_b, tok_b, mut spec_b) = rig(6, 11);
    spec_b.adaptive = AdaptiveBatching::disabled();
    let explicit = svc_b.run_job(tok_b, &spec_b).unwrap();

    assert_eq!(doc_keys(&base.records), doc_keys(&explicit.records));
    assert_eq!(base.waves, explicit.waves);
    assert_eq!(base.invocations, explicit.invocations);
    for svc in [&svc_a, &svc_b] {
        assert!(
            tuned_events(svc).is_empty(),
            "static jobs must not journal BatchTuned"
        );
        assert_eq!(svc.obs().hub.counter_value("adaptive.grow", None), 0);
        assert_eq!(svc.obs().hub.counter_value("adaptive.backoff", None), 0);
    }
}

#[test]
fn adaptive_job_extracts_the_same_records_and_journals_its_limits() {
    let (svc_s, tok_s, spec_s) = rig(10, 12);
    let static_report = svc_s.run_job(tok_s, &spec_s).unwrap();

    let (svc_a, tok_a, mut spec_a) = rig(10, 12);
    spec_a.adaptive = AdaptiveBatching::enabled();
    let adaptive_report = svc_a.run_job(tok_a, &spec_a).unwrap();

    assert_eq!(
        doc_keys(&static_report.records),
        doc_keys(&adaptive_report.records),
        "tuning batch limits must never change what gets extracted"
    );
    assert!(adaptive_report.failures.is_empty());

    let tuned = tuned_events(&svc_a);
    assert!(
        !tuned.is_empty(),
        "the first adaptive wave always journals the limits it ran with"
    );
    for (x, f) in tuned {
        assert!((XTRACT_FLOOR as u64..=XTRACT_CEILING as u64).contains(&x));
        assert!((FUNCX_FLOOR as u64..=FUNCX_CEILING as u64).contains(&f));
    }
}

#[test]
fn tenant_invocation_quota_caps_the_controller_without_losing_records() {
    let (svc_s, tok_s, spec_s) = rig(8, 13);
    let static_report = svc_s.run_job(tok_s, &spec_s).unwrap();

    let (svc_a, tok_a, mut spec_a) = rig(8, 13);
    spec_a.adaptive = AdaptiveBatching::enabled();
    let registry = TenantRegistry::new(svc_a.obs().clone());
    // Enough invocations for the job (two steps per family plus crawl-time
    // sniffing), but tight enough that the funcX cap stays engaged.
    let id = registry
        .register(TenantSpec {
            name: "capped".into(),
            weight: 1,
            quota: TenantQuota {
                max_invocations: Some(64),
                ..TenantQuota::unlimited()
            },
        })
        .unwrap();
    let tctx = registry.get(id).unwrap();
    let report = svc_a.run_job_as(tok_a, &spec_a, Some(&tctx)).unwrap();

    assert_eq!(doc_keys(&static_report.records), doc_keys(&report.records));
    assert!(report.failures.is_empty());
    for (_, f) in tuned_events(&svc_a) {
        assert!(
            f <= FUNCX_CEILING as u64,
            "quota-capped funcX limit escaped the ceiling: {f}"
        );
    }
}

#[test]
fn adaptive_job_resumes_from_its_recovery_log_to_the_same_records() {
    let (svc_b, tok_b, mut spec_b) = rig(8, 14);
    spec_b.adaptive = AdaptiveBatching::enabled();
    let base_dir = tempdir("baseline");
    let baseline = svc_b
        .run_job_with_recovery(tok_b, &spec_b, &base_dir)
        .unwrap();

    let (svc_c, tok_c, mut spec_c) = rig(8, 14);
    spec_c.adaptive = AdaptiveBatching::enabled();
    spec_c.fault_plan = Some(FaultPlan {
        orchestrator_crashes: vec![OrchestratorCrash {
            point: CrashPoint::MidWave,
            at_occurrence: 1,
        }],
        ..FaultPlan::new(14)
    });
    let dir = tempdir("crash");
    let err = svc_c.run_job_with_recovery(tok_c, &spec_c, &dir);
    assert!(
        err.is_err(),
        "the injected MidWave crash must abort the run"
    );

    let (svc_r, tok_r, mut spec_r) = rig(8, 14);
    spec_r.adaptive = AdaptiveBatching::enabled();
    let resumed = svc_r.resume_job(tok_r, &spec_r, &dir).unwrap();

    assert_eq!(doc_keys(&baseline.records), doc_keys(&resumed.records));
    assert!(resumed.failures.is_empty());
    assert!(
        resumed.resumed,
        "the resumed run must report replayed progress"
    );
}
