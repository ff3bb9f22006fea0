//! Multi-tenant job service: chaos isolation, fair-share ratios, graceful
//! overload shedding, shed-then-resubmit recovery, and exact quota
//! accounting.
//!
//! The chaos-differential scenarios honour `XTRACT_CHAOS_SEED` (the CI
//! matrix sweeps several fixed seeds in `--release`); every assertion is
//! seed-robust — chaos is confined to one tenant's endpoints, and the
//! victims' assertions are convergence properties that hold for any roll.

use std::sync::Arc;
use std::time::Duration;
use xtract::prelude::*;
use xtract_core::{JobService, JobStatus, XtractService};
use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope, Token};
use xtract_obs::Event;
use xtract_sim::RngStreams;
use xtract_types::config::ContainerRuntime;
use xtract_types::MetadataRecord;

fn full_token(auth: &AuthService) -> Token {
    auth.login(
        "tenant-user",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    )
}

fn chaos_seed(default: u64) -> u64 {
    std::env::var("XTRACT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn compute_spec(ep: EndpointId, workers: usize) -> EndpointSpec {
    EndpointSpec {
        endpoint: ep,
        read_path: "/data".into(),
        store_path: Some("/stage".into()),
        available_bytes: 1 << 32,
        workers: Some(workers),
        runtime: ContainerRuntime::Docker,
    }
}

fn storage_spec(ep: EndpointId) -> EndpointSpec {
    EndpointSpec {
        endpoint: ep,
        read_path: "/data".into(),
        store_path: None,
        available_bytes: 0,
        workers: None,
        runtime: ContainerRuntime::Docker,
    }
}

/// Content key for a record: family ids are allocator-dependent (and
/// shared across tenants in the mixed service), so records compare by
/// their documents — file inventory, provenance, extracted output, no ids.
fn doc_keys(records: &[MetadataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(&r.document).unwrap())
        .collect();
    keys.sort();
    keys
}

/// Registers a single-endpoint repository (`files` files from `seed`) on
/// `fabric` and returns the job spec that extracts it.
fn tenant_repo(fabric: &Arc<DataFabric>, ep: EndpointId, files: u64, seed: u64) -> JobSpec {
    let fs = Arc::new(MemFs::new(ep));
    xtract_workloads::materialize::sample_repo(fs.as_ref(), "/data", files, &RngStreams::new(seed));
    fabric.register(ep, "site", fs);
    JobSpec::single_endpoint(compute_spec(ep, 2), "/data")
}

/// Solo no-chaos baseline: the same repo (same endpoint id, file count,
/// and content seed) extracted alone on a fresh service with the same
/// constructor seed the shared service uses.
fn solo_baseline(ep: EndpointId, files: u64, seed: u64) -> Vec<String> {
    let fabric = Arc::new(DataFabric::new());
    let spec = tenant_repo(&fabric, ep, files, seed);
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let svc = XtractService::new(fabric, auth, 42);
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    doc_keys(&svc.run_job(token, &spec).unwrap().records)
}

/// Polls until `id` is running; the queue-pressure tests rely on a known
/// job occupying the pool before they start stacking the pending queue.
fn wait_running(svc: &JobService, id: xtract_types::JobId) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !matches!(svc.status(id), Some(JobStatus::Running)) {
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never dispatched"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// 30% chaos on one tenant's endpoints must not perturb the other
/// tenants: their record sets stay byte-identical to solo no-chaos
/// baselines, and the noisy tenant itself still converges.
#[test]
fn chaos_on_one_tenant_never_leaks_into_neighbors() {
    let steady_ep = EndpointId::new(0);
    let light_ep = EndpointId::new(1);
    let noisy_src = EndpointId::new(2);
    let noisy_exec = EndpointId::new(3);

    let steady_baseline = solo_baseline(steady_ep, 24, 300);
    let light_baseline = solo_baseline(light_ep, 18, 301);

    // The shared service: every tenant's data on its own endpoints.
    let fabric = Arc::new(DataFabric::new());
    let steady_spec = tenant_repo(&fabric, steady_ep, 24, 300);
    let light_spec = tenant_repo(&fabric, light_ep, 18, 301);
    let noisy_fs = Arc::new(MemFs::new(noisy_src));
    xtract_workloads::materialize::sample_repo(
        noisy_fs.as_ref(),
        "/data",
        24,
        &RngStreams::new(302),
    );
    fabric.register(noisy_src, "noisy-src", noisy_fs);
    fabric.register(noisy_exec, "noisy-exec", Arc::new(MemFs::new(noisy_exec)));

    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let service = Arc::new(XtractService::new(fabric, auth, 42));

    // The noisy tenant stages across endpoints under a 30% transfer fault
    // rate; its retries, breaker trips, and hedges are charged to *its*
    // tenant-scoped state, never its neighbors'.
    let mut noisy_spec = JobSpec::single_endpoint(compute_spec(noisy_exec, 2), "/data");
    noisy_spec.roots = vec![(noisy_src, "/data".to_string())];
    noisy_spec.endpoints.push(storage_spec(noisy_src));
    noisy_spec.fault_plan = Some(FaultPlan {
        transfer_fault_rate: 0.3,
        ..FaultPlan::new(chaos_seed(17))
    });

    for spec in [&steady_spec, &light_spec, &noisy_spec] {
        service.connect_endpoint(&spec.endpoints[0]).unwrap();
    }

    let svc = JobService::new(service, ServicePolicy::default()).unwrap();
    let steady = svc.register_tenant(TenantSpec::new("steady", 2)).unwrap();
    let light = svc.register_tenant(TenantSpec::new("light", 1)).unwrap();
    let noisy = svc.register_tenant(TenantSpec::new("noisy", 2)).unwrap();

    // Mixed load, interleaved submissions.
    let mut jobs = Vec::new();
    for _ in 0..2 {
        jobs.push((
            "steady",
            svc.submit(steady, 0, token, steady_spec.clone()).unwrap(),
        ));
        jobs.push((
            "noisy",
            svc.submit(noisy, 0, token, noisy_spec.clone()).unwrap(),
        ));
        jobs.push((
            "light",
            svc.submit(light, 0, token, light_spec.clone()).unwrap(),
        ));
    }

    for (owner, id) in &jobs {
        let status = svc.wait(*id, Duration::from_secs(120)).unwrap();
        match status {
            JobStatus::Complete { .. } => {}
            other => panic!("{owner} job {id} ended {other:?}"),
        }
        let report = svc.take_report(*id).unwrap().unwrap();
        assert_eq!(
            report.records.len() as u64 + report.failures.len() as u64,
            report.families,
            "{owner} job did not converge"
        );
        match *owner {
            // Clean tenants: byte-identical to their solo baselines, with
            // zero failures — the noisy neighbor's chaos never reached
            // their endpoints, breakers, or retry budgets.
            "steady" => {
                assert!(report.failures.is_empty(), "{:?}", report.failures);
                assert_eq!(doc_keys(&report.records), steady_baseline);
            }
            "light" => {
                assert!(report.failures.is_empty(), "{:?}", report.failures);
                assert_eq!(doc_keys(&report.records), light_baseline);
            }
            // The noisy tenant converges for any seed: every family lands
            // in exactly one bucket, and whatever dead-letters carries a
            // typed prefetch reason.
            _ => {
                for letter in &report.failures {
                    assert!(matches!(
                        letter.reason,
                        FailureReason::PrefetchFailed { .. }
                    ));
                }
            }
        }
    }
}

/// With one worker and both tenants backlogged, dispatch slots divide
/// 3:1 by weight — read back from the journal's dispatch sequence.
#[test]
fn dispatch_ratio_tracks_tenant_weights() {
    let fabric = Arc::new(DataFabric::new());
    let heavy_spec = tenant_repo(&fabric, EndpointId::new(0), 10, 400);
    let light_spec = tenant_repo(&fabric, EndpointId::new(1), 10, 401);
    let blocker_spec = tenant_repo(&fabric, EndpointId::new(2), 160, 402);
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let service = Arc::new(XtractService::new(fabric, auth, 42));
    for spec in [&heavy_spec, &light_spec, &blocker_spec] {
        service.connect_endpoint(&spec.endpoints[0]).unwrap();
    }

    let svc = JobService::new(
        service,
        ServicePolicy {
            workers: 1,
            queue_capacity: 64,
            retry_after_ms: 250,
        },
    )
    .unwrap();
    let heavy = svc.register_tenant(TenantSpec::new("heavy", 3)).unwrap();
    let light = svc.register_tenant(TenantSpec::new("light", 1)).unwrap();
    let blocker_t = svc.register_tenant(TenantSpec::new("blocker", 1)).unwrap();

    // Occupy the lone worker so every fair-share job is queued before the
    // scheduler starts draining — the dispatch order is then pure stride
    // arithmetic, not submission timing.
    let blocker = svc.submit(blocker_t, 0, token, blocker_spec).unwrap();
    wait_running(&svc, blocker);
    let mut ids = Vec::new();
    for _ in 0..8 {
        ids.push(svc.submit(heavy, 0, token, heavy_spec.clone()).unwrap());
        ids.push(svc.submit(light, 0, token, light_spec.clone()).unwrap());
    }
    for id in &ids {
        assert!(matches!(
            svc.wait(*id, Duration::from_secs(240)).unwrap(),
            JobStatus::Complete { .. }
        ));
    }

    // The journal records the dispatch sequence; while both tenants were
    // backlogged (the first 8 non-blocker dispatches), the weight-3
    // tenant must hold three slots for every one of the weight-1 tenant's
    // (±1 for pass-offset boundary effects — well inside the 15% band).
    let dispatched: Vec<_> = svc
        .obs()
        .journal
        .events()
        .into_iter()
        .filter_map(|r| match r.event {
            Event::JobDispatched { tenant, .. } if tenant != blocker_t => Some(tenant),
            _ => None,
        })
        .collect();
    assert_eq!(dispatched.len(), 16, "every fair-share job dispatched once");
    let heavy_share = dispatched[..8].iter().filter(|t| **t == heavy).count();
    assert!(
        (5..=7).contains(&heavy_share),
        "weight-3 tenant took {heavy_share} of the first 8 slots: {dispatched:?}"
    );
    // No tenant starves: the tail still contains both.
    assert!(dispatched[8..].contains(&light));
}

/// Overload: the lowest-priority *pending* job is shed (typed status,
/// journaled, counted), running jobs are untouched, and the service.*
/// counters reconcile exactly with the submission history.
#[test]
fn overload_shedding_is_graceful_and_exactly_accounted() {
    let fabric = Arc::new(DataFabric::new());
    let blocker_spec = tenant_repo(&fabric, EndpointId::new(0), 160, 500);
    let small_spec = tenant_repo(&fabric, EndpointId::new(1), 8, 501);
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let service = Arc::new(XtractService::new(fabric, auth, 42));
    for spec in [&blocker_spec, &small_spec] {
        service.connect_endpoint(&spec.endpoints[0]).unwrap();
    }

    let svc = JobService::new(
        service,
        ServicePolicy {
            workers: 1,
            queue_capacity: 2,
            retry_after_ms: 99,
        },
    )
    .unwrap();
    let a = svc.register_tenant(TenantSpec::new("a", 1)).unwrap();
    let b = svc.register_tenant(TenantSpec::new("b", 1)).unwrap();

    let blocker = svc.submit(a, 5, token, blocker_spec).unwrap();
    wait_running(&svc, blocker);
    let low = svc.submit(b, 1, token, small_spec.clone()).unwrap();
    let mid = svc.submit(a, 2, token, small_spec.clone()).unwrap();
    // Full queue, no pending entry strictly below priority 1: rejected.
    let err = svc.submit(b, 1, token, small_spec.clone()).unwrap_err();
    match err {
        XtractError::AdmissionRejected { retry_after_ms, .. } => {
            assert_eq!(retry_after_ms, 99)
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    // Higher priority: tenant b's priority-1 job is the global low and
    // is shed — tenant a's running blocker is never a candidate.
    let high = svc.submit(b, 7, token, small_spec.clone()).unwrap();
    match svc.status(low).unwrap() {
        JobStatus::Shed { retry_after_ms, .. } => assert_eq!(retry_after_ms, 99),
        other => panic!("victim status {other:?}"),
    }
    for id in [blocker, mid, high] {
        assert!(matches!(
            svc.wait(id, Duration::from_secs(120)).unwrap(),
            JobStatus::Complete { .. }
        ));
    }

    // Exact reconciliation, per tenant: a submitted 2 (both admitted,
    // both completed); b submitted 3 with 2 admitted, 1 rejected, and 1
    // of the admitted shed before dispatch.
    let snap = svc.obs().hub.snapshot();
    assert_eq!(snap.counter_with("service.admitted", Some("a")), 2);
    assert_eq!(snap.counter_with("service.completed", Some("a")), 2);
    assert_eq!(snap.counter_with("service.rejected", Some("a")), 0);
    assert_eq!(snap.counter_with("service.admitted", Some("b")), 2);
    assert_eq!(snap.counter_with("service.rejected", Some("b")), 1);
    assert_eq!(snap.counter_with("service.shed", Some("b")), 1);
    assert_eq!(snap.counter_with("service.completed", Some("b")), 1);
    // The journal carries the same story as typed events.
    let events = svc.obs().journal.events();
    let shed: Vec<_> = events
        .iter()
        .filter_map(|r| match &r.event {
            Event::JobShed { tenant, job, .. } => Some((*tenant, *job)),
            _ => None,
        })
        .collect();
    assert_eq!(shed, vec![(b, low)]);
    assert_eq!(
        events
            .iter()
            .filter(|r| matches!(r.event, Event::JobRejected { .. }))
            .count(),
        1
    );
}

/// A shed job resubmitted with its recovery log converges to the result
/// an uninterrupted run produces — and a *completed* durable job replays
/// rather than re-executing on a second resubmission.
#[test]
fn shed_job_resubmitted_with_recovery_converges() {
    let dir = std::env::temp_dir().join(format!(
        "xtract-mt-shed-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Uninterrupted baseline on a fresh, identical rig.
    let baseline = solo_baseline(EndpointId::new(1), 12, 601);

    let fabric = Arc::new(DataFabric::new());
    let blocker_spec = tenant_repo(&fabric, EndpointId::new(0), 160, 600);
    let victim_spec = tenant_repo(&fabric, EndpointId::new(1), 12, 601);
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let service = Arc::new(XtractService::new(fabric, auth, 42));
    for spec in [&blocker_spec, &victim_spec] {
        service.connect_endpoint(&spec.endpoints[0]).unwrap();
    }

    let svc = JobService::new(
        service,
        ServicePolicy {
            workers: 1,
            queue_capacity: 1,
            retry_after_ms: 50,
        },
    )
    .unwrap();
    let t = svc.register_tenant(TenantSpec::new("t", 1)).unwrap();

    let blocker = svc.submit(t, 5, token, blocker_spec).unwrap();
    wait_running(&svc, blocker);
    let victim = svc
        .submit_with_recovery(t, 1, token, victim_spec.clone(), &dir)
        .unwrap();
    // Overload: a higher-priority submission evicts the durable job while
    // it is still pending. Shedding drops its payload, which releases the
    // WAL lease — the resubmission below must not hit RecoveryLogBusy.
    let high = svc.submit(t, 9, token, victim_spec.clone()).unwrap();
    assert!(matches!(
        svc.status(victim).unwrap(),
        JobStatus::Shed { .. }
    ));
    for id in [blocker, high] {
        assert!(svc
            .wait(id, Duration::from_secs(120))
            .unwrap()
            .is_terminal());
    }

    // Resubmit against the same log directory: the job runs (nothing was
    // journaled before the shed) and matches the uninterrupted baseline.
    let retry = svc
        .submit_with_recovery(t, 0, token, victim_spec.clone(), &dir)
        .unwrap();
    assert!(matches!(
        svc.wait(retry, Duration::from_secs(120)).unwrap(),
        JobStatus::Complete { .. }
    ));
    let report = svc.take_report(retry).unwrap().unwrap();
    assert!(!report.resumed, "nothing ran before the shed");
    assert_eq!(doc_keys(&report.records), baseline);

    // And the WAL path end-to-end: a second resubmission replays the
    // finished job without re-invoking a single extractor.
    let replay = svc
        .submit_with_recovery(t, 0, token, victim_spec, &dir)
        .unwrap();
    assert!(matches!(
        svc.wait(replay, Duration::from_secs(120)).unwrap(),
        JobStatus::Complete { .. }
    ));
    let replayed = svc.take_report(replay).unwrap().unwrap();
    assert!(replayed.resumed);
    assert!(
        replayed.invocations.is_empty(),
        "{:?}",
        replayed.invocations
    );
    assert_eq!(doc_keys(&replayed.records), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quota charging is exact under concurrent waves: for every tenant and
/// resource, the ledger's spent total equals the sum of the journal's
/// accepted charges and the labeled counter — and never exceeds the
/// limit. Tasks are lost along the way, and each job has one compute
/// endpoint: no hedge can launch, so none may be charged — a tenant's spent
/// invocations are exactly the invocations its reports count.
#[test]
fn quota_accounting_reconciles_with_journal_scan() {
    let fabric = Arc::new(DataFabric::new());
    // Both tenants stage across endpoints so TransferBytes is charged too.
    let a_src = EndpointId::new(0);
    let a_exec = EndpointId::new(1);
    let b_src = EndpointId::new(2);
    let b_exec = EndpointId::new(3);
    let mut specs = Vec::new();
    for (src, exec, seed) in [(a_src, a_exec, 700), (b_src, b_exec, 701)] {
        let fs = Arc::new(MemFs::new(src));
        xtract_workloads::materialize::sample_repo(
            fs.as_ref(),
            "/data",
            16,
            &RngStreams::new(seed),
        );
        fabric.register(src, "src", fs);
        fabric.register(exec, "exec", Arc::new(MemFs::new(exec)));
        let mut spec = JobSpec::single_endpoint(compute_spec(exec, 2), "/data");
        spec.roots = vec![(src, "/data".to_string())];
        spec.endpoints.push(storage_spec(src));
        specs.push(spec);
    }
    // Armed service-wide while an alpha job runs: either tenant's results
    // may go missing, and a lost task is the clearest hedge trigger.
    specs[0].fault_plan = Some(FaultPlan {
        heartbeat_loss_rate: 0.5,
        ..FaultPlan::new(chaos_seed(702))
    });
    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let service = Arc::new(XtractService::new(fabric, auth, 42));
    for spec in &specs {
        service.connect_endpoint(&spec.endpoints[0]).unwrap();
    }

    let svc = JobService::new(service, ServicePolicy::default()).unwrap();
    let quota = TenantQuota {
        max_invocations: Some(100_000),
        max_transfer_bytes: Some(1 << 40),
        max_retry_attempts: Some(100_000),
        max_concurrent_jobs: Some(2),
    };
    let ta = svc
        .register_tenant(TenantSpec::new("alpha", 2).with_quota(quota))
        .unwrap();
    let tb = svc
        .register_tenant(TenantSpec::new("beta", 1).with_quota(quota))
        .unwrap();

    // Concurrent waves: both tenants' jobs in flight at once on the
    // default 4-worker pool.
    let mut ids = Vec::new();
    for _ in 0..2 {
        ids.push((ta, svc.submit(ta, 0, token, specs[0].clone()).unwrap()));
        ids.push((tb, svc.submit(tb, 0, token, specs[1].clone()).unwrap()));
    }
    // Per tenant: the invocations its jobs' reports count.
    let mut invoked = std::collections::HashMap::new();
    let mut resubmitted = 0;
    for (tid, id) in &ids {
        assert!(matches!(
            svc.wait(*id, Duration::from_secs(120)).unwrap(),
            JobStatus::Complete { .. }
        ));
        let report = svc.take_report(*id).unwrap().unwrap();
        *invoked.entry(*tid).or_insert(0) += report.invocations.values().sum::<u64>();
        resubmitted += report.resubmitted;
    }
    assert!(resubmitted > 0, "the fault plan lost no task");

    let obs = svc.obs();
    assert_eq!(obs.hub.counter_value("hedge.launched", None), 0);
    assert_eq!(
        obs.journal.dropped(),
        0,
        "journal overflowed; the scan below would be unsound"
    );
    let events = obs.journal.events();
    for (tid, name) in [(ta, "alpha"), (tb, "beta")] {
        let ctx = svc.tenant(tid).unwrap();
        assert_eq!(
            ctx.ledger().spent(QuotaResource::Invocations),
            invoked[&tid],
            "{name} was charged for something other than its submitted invocations"
        );
        assert!(invoked[&tid] > 0, "{name} invoked nothing");
        assert!(
            ctx.ledger().spent(QuotaResource::TransferBytes) > 0,
            "{name} charged no transfer bytes — staging went unmetered"
        );
        for resource in [
            QuotaResource::Invocations,
            QuotaResource::TransferBytes,
            QuotaResource::RetryBudget,
        ] {
            let spent = ctx.ledger().spent(resource);
            let journaled: u64 = events
                .iter()
                .filter_map(|r| match &r.event {
                    Event::QuotaCharged {
                        tenant,
                        resource: res,
                        amount,
                    } if *tenant == tid && res.as_str() == resource.name() => Some(*amount),
                    _ => None,
                })
                .sum();
            assert_eq!(
                journaled, spent,
                "{name}/{resource}: journal scan {journaled} != ledger {spent}"
            );
            let counted = obs.hub.counter_value(
                &format!("quota.{}", resource.name()),
                Some(&tid.to_string()),
            );
            assert_eq!(
                counted, spent,
                "{name}/{resource}: counter {counted} != ledger {spent}"
            );
            if let Some(limit) = ctx.ledger().limits().limit(resource) {
                assert!(
                    spent <= limit,
                    "{name}/{resource}: overspent {spent} of {limit}"
                );
            }
        }
    }
}
