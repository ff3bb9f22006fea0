//! The asynchronous job interface (§3 "Xtract User Interface").
//!
//! "Xtract offers an asynchronous interface via which users can ...
//! execute extraction and validation jobs; monitor the status of
//! extraction jobs; and retrieve or deposit the extracted metadata" —
//! Listing 2's `xmc.submit(...)`, `get_crawl_status`, `get_extract_status`
//! flow.
//!
//! [`JobService`] is that interface over the synchronous
//! [`XtractService`] — Listing 2's `xmc.submit` is [`JobService::submit`]:
//! it returns a [`JobId`] immediately and the report becomes available
//! when the job completes. It is the multi-tenant shell the paper's
//! shared service deployment implies (a single user is one registered
//! tenant): a bounded worker pool drains a weighted fair-share
//! [`JobQueue`], admission control rejects (with a retry-after hint) when
//! a tenant's quota is already exhausted, overload sheds only
//! lower-priority *pending* jobs, and every admission decision lands in
//! the journal and the `service.*` counters.
//!
//! Jobs that journal to a recovery log hold a [`LogDirLease`] from
//! submit until they reach a terminal status, so two live jobs can never
//! interleave frames in one WAL directory — and because the lease drops
//! *before* the terminal status is published, wait-then-resubmit against
//! the same directory always succeeds.

use crate::queue::{Admission, JobQueue};
use crate::recovery::LogDirLease;
use crate::service::{JobReport, XtractService};
use crate::tenancy::{TenantCtx, TenantRegistry};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xtract_datafabric::Token;
use xtract_obs::Event;
use xtract_types::id::IdAllocator;
use xtract_types::{JobId, JobSpec, Result, ServicePolicy, TenantId, TenantSpec, XtractError};

/// Why a job failed, as a matchable kind alongside the human-readable
/// reason. Callers that react differently to "the service turned you
/// away" vs. "your quota ran dry mid-run" vs. "the orchestrator itself
/// errored" branch on this instead of parsing strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFailureKind {
    /// Admission control refused the job before it ran.
    Admission,
    /// A tenant quota was exhausted (at admission or mid-run).
    Quota,
    /// The job's recovery-log directory was leased to another live job.
    RecoveryLogBusy,
    /// Any other orchestrator error (auth, transfer, fabric, a shard
    /// worker dying with no live sibling to adopt its families, ...).
    /// Orchestrator failures of sharded jobs are retryable with
    /// `resume_job`: every shard's WAL survives the crash.
    Orchestrator,
}

impl JobFailureKind {
    /// Maps an error to its failure kind.
    pub fn classify(err: &XtractError) -> Self {
        match err {
            XtractError::AdmissionRejected { .. } => JobFailureKind::Admission,
            XtractError::QuotaExhausted { .. } => JobFailureKind::Quota,
            XtractError::RecoveryLogBusy { .. } => JobFailureKind::RecoveryLogBusy,
            _ => JobFailureKind::Orchestrator,
        }
    }
}

/// Observable lifecycle of a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Queued, not yet started.
    Pending,
    /// Crawling and extracting (the two overlap: "file groups are
    /// returned asynchronously", §5.8.1).
    Running,
    /// Finished; the report is available.
    Complete {
        /// Validated record count.
        records: u64,
        /// Permanent failures.
        failures: u64,
    },
    /// The job failed before producing a report.
    Failed {
        /// The failure's matchable kind.
        kind: JobFailureKind,
        /// The error's description.
        reason: String,
    },
    /// Evicted from the pending queue by overload shedding before it
    /// ever ran. Resubmit after the hint; a job with a recovery log
    /// resumes from wherever its log left off.
    Shed {
        /// Why it was shed.
        reason: String,
        /// Suggested resubmission delay.
        retry_after_ms: u64,
    },
}

impl JobStatus {
    /// True for Complete/Failed/Shed.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Complete { .. } | JobStatus::Failed { .. } | JobStatus::Shed { .. }
        )
    }
}

#[derive(Default)]
struct JobSlot {
    status: Option<JobStatus>,
    report: Option<std::result::Result<JobReport, String>>,
}

struct Shared {
    slots: Mutex<HashMap<JobId, JobSlot>>,
    cv: Condvar,
}

impl Shared {
    fn status(&self, id: JobId) -> Option<JobStatus> {
        self.slots.lock().get(&id).and_then(|s| s.status.clone())
    }

    fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slots = self.slots.lock();
        loop {
            match slots.get(&id).and_then(|s| s.status.clone()) {
                Some(status) if status.is_terminal() => return Some(status),
                None => return None,
                _ => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return slots.get(&id).and_then(|s| s.status.clone());
            }
            self.cv.wait_for(&mut slots, deadline - now);
        }
    }

    fn take_report(&self, id: JobId) -> Option<std::result::Result<JobReport, String>> {
        self.slots.lock().get_mut(&id).and_then(|s| s.report.take())
    }

    fn jobs(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self.slots.lock().keys().copied().collect();
        ids.sort();
        ids
    }

    fn finish(&self, id: JobId, outcome: std::result::Result<JobReport, XtractError>) {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get_mut(&id) {
            match outcome {
                Ok(report) => {
                    slot.status = Some(JobStatus::Complete {
                        records: report.records.len() as u64,
                        failures: report.failures.len() as u64,
                    });
                    slot.report = Some(Ok(report));
                }
                Err(e) => {
                    slot.status = Some(JobStatus::Failed {
                        kind: JobFailureKind::classify(&e),
                        reason: e.to_string(),
                    });
                    slot.report = Some(Err(e.to_string()));
                }
            }
        }
        drop(slots);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The multi-tenant job service
// ---------------------------------------------------------------------------

/// What a queued job needs to run, carried through the queue. Dropping
/// the payload (shed, shutdown) releases its WAL lease.
struct QueuedPayload {
    token: Token,
    spec: JobSpec,
    log_dir: Option<PathBuf>,
    lease: Option<LogDirLease>,
    tenant: Arc<TenantCtx>,
}

struct ServiceState {
    queue: JobQueue<QueuedPayload>,
}

struct ServiceInner {
    state: Mutex<ServiceState>,
    shared: Shared,
    shutdown: AtomicBool,
}

/// The long-lived multi-tenant job service: the asynchronous job
/// interface, shared fairly between registered tenants.
///
/// * **Admission control** — a submission from a tenant whose quota is
///   already exhausted is rejected immediately with
///   [`XtractError::AdmissionRejected`] carrying the policy's
///   retry-after hint; nothing is queued.
/// * **Fair share** — a bounded worker pool (sized by
///   [`ServicePolicy::workers`]) drains a stride-scheduled [`JobQueue`]:
///   dispatch slots divide proportionally to tenant weights, and no
///   nonzero-weight tenant starves.
/// * **Quotas** — invocations, transfer bytes, and retry attempts are
///   charged against the owning tenant's ledger *before* consumption
///   (see [`TenantCtx::charge`]); per-tenant concurrent-job caps hold
///   jobs in the queue rather than dispatching them.
/// * **Graceful shedding** — when the pending queue is full, a new
///   submission may evict the lowest-priority *pending* job (never a
///   running one), and only if it strictly outranks it; the victim
///   surfaces as [`JobStatus::Shed`] and, if it had a recovery log, its
///   resubmission resumes from the WAL.
///
/// Every decision is journaled ([`Event::JobAdmitted`] /
/// [`Event::JobRejected`] / [`Event::JobShed`] / [`Event::JobDispatched`]
/// / [`Event::JobFinished`]) and counted under `service.*`, labeled by
/// tenant name.
pub struct JobService {
    service: Arc<XtractService>,
    registry: TenantRegistry,
    policy: ServicePolicy,
    inner: Arc<ServiceInner>,
    ids: IdAllocator,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobService {
    /// Spins up the worker pool over `service` under `policy`.
    pub fn new(service: Arc<XtractService>, policy: ServicePolicy) -> Result<Self> {
        policy.validate()?;
        let inner = Arc::new(ServiceInner {
            state: Mutex::new(ServiceState {
                queue: JobQueue::new(policy.queue_capacity),
            }),
            shared: Shared {
                slots: Mutex::new(HashMap::new()),
                cv: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
        });
        let registry = TenantRegistry::new(service.obs().clone());
        let mut workers = Vec::with_capacity(policy.workers);
        for _ in 0..policy.workers {
            let service = service.clone();
            let inner = inner.clone();
            workers.push(std::thread::spawn(move || worker_loop(service, inner)));
        }
        Ok(Self {
            service,
            registry,
            policy,
            inner,
            ids: IdAllocator::new(),
            workers: Mutex::new(workers),
        })
    }

    /// Registers a tenant; returns its id. The tenant's weight drives
    /// fair-share dispatch and its quota's concurrent-job cap bounds how
    /// many of its jobs run at once.
    pub fn register_tenant(&self, spec: TenantSpec) -> Result<TenantId> {
        let weight = spec.weight;
        let max_concurrent = spec.quota.max_concurrent_jobs;
        let id = self.registry.register(spec)?;
        self.inner
            .state
            .lock()
            .queue
            .register_tenant(id, weight, max_concurrent);
        Ok(id)
    }

    /// The live context (ledger, spec, shared health) for a registered
    /// tenant.
    pub fn tenant(&self, id: TenantId) -> Option<Arc<TenantCtx>> {
        self.registry.get(id)
    }

    /// Submits a job on behalf of `tenant` at `priority` (higher
    /// dispatches first within the tenant, and outranks others' pending
    /// jobs under overload shedding); returns immediately with its id
    /// (Listing 2's `task_id = xmc.submit(...)`). Validation errors
    /// surface here, not in the background.
    pub fn submit(
        &self,
        tenant: TenantId,
        priority: u8,
        token: Token,
        spec: JobSpec,
    ) -> Result<JobId> {
        self.submit_inner(tenant, priority, token, spec, None)
    }

    /// As [`Self::submit`], journaling to a durable recovery log at
    /// `log_dir`. If the directory already holds a prior run's log, the job
    /// resumes from it — completed steps are replayed, not re-executed —
    /// and the retrieved report carries `resumed` / `replayed_records`: the
    /// same call serves "start durably", "pick up where the killed
    /// orchestrator left off" and a shed job's resubmission.
    ///
    /// The directory is leased for the job's lifetime: submitting a
    /// second job against a directory whose job is still live fails
    /// *here*, synchronously, with [`XtractError::RecoveryLogBusy`] —
    /// two jobs interleaving frames in one WAL would poison its replay.
    pub fn submit_with_recovery(
        &self,
        tenant: TenantId,
        priority: u8,
        token: Token,
        spec: JobSpec,
        log_dir: impl Into<PathBuf>,
    ) -> Result<JobId> {
        self.submit_inner(tenant, priority, token, spec, Some(log_dir.into()))
    }

    fn submit_inner(
        &self,
        tenant: TenantId,
        priority: u8,
        token: Token,
        spec: JobSpec,
        log_dir: Option<PathBuf>,
    ) -> Result<JobId> {
        spec.validate()
            .map_err(|reason| XtractError::InvalidJob { reason })?;
        let obs = self.service.obs();
        let Some(tctx) = self.registry.get(tenant) else {
            return Err(XtractError::AdmissionRejected {
                tenant,
                reason: "unknown tenant".to_string(),
                retry_after_ms: 0,
            });
        };
        let label = tctx.spec().name.clone();
        // Admission gate: a tenant that has already spent a consumable
        // quota to its limit cannot make progress — turn the job away
        // now with a hint instead of queueing guaranteed failure.
        if tctx.any_exhausted() {
            let reason = "tenant quota exhausted".to_string();
            obs.journal.record(Event::JobRejected {
                tenant,
                reason: reason.clone(),
                retry_after_ms: self.policy.retry_after_ms,
            });
            obs.hub
                .counter_with("service.rejected", Some(&label))
                .incr();
            return Err(XtractError::AdmissionRejected {
                tenant,
                reason,
                retry_after_ms: self.policy.retry_after_ms,
            });
        }
        // The lease is taken synchronously so a conflicting submit fails
        // deterministically at the call site, never in the background.
        let lease = match &log_dir {
            Some(dir) => Some(LogDirLease::acquire(dir)?),
            None => None,
        };
        let id = JobId::new(self.ids.next());
        let payload = QueuedPayload {
            token,
            spec,
            log_dir,
            lease,
            tenant: tctx,
        };
        let mut state = self.inner.state.lock();
        match state.queue.push(tenant, id, priority, payload) {
            Admission::Admitted { victims } => {
                let mut slots = self.inner.shared.slots.lock();
                for v in victims {
                    // The victim's payload (and its WAL lease) drops
                    // here; its slot records why it never ran.
                    let vlabel = v.payload.tenant.spec().name.clone();
                    let reason = format!(
                        "shed by {label} priority {priority} (victim priority {})",
                        v.priority
                    );
                    if let Some(slot) = slots.get_mut(&v.job) {
                        slot.status = Some(JobStatus::Shed {
                            reason: reason.clone(),
                            retry_after_ms: self.policy.retry_after_ms,
                        });
                    }
                    obs.journal.record(Event::JobShed {
                        tenant: v.tenant,
                        job: v.job,
                        reason,
                    });
                    obs.hub.counter_with("service.shed", Some(&vlabel)).incr();
                }
                slots.insert(
                    id,
                    JobSlot {
                        status: Some(JobStatus::Pending),
                        report: None,
                    },
                );
                drop(slots);
                drop(state);
                obs.journal.record(Event::JobAdmitted { tenant, job: id });
                obs.hub
                    .counter_with("service.admitted", Some(&label))
                    .incr();
                self.inner.shared.cv.notify_all();
                Ok(id)
            }
            Admission::Rejected { reason } => {
                drop(state);
                obs.journal.record(Event::JobRejected {
                    tenant,
                    reason: reason.clone(),
                    retry_after_ms: self.policy.retry_after_ms,
                });
                obs.hub
                    .counter_with("service.rejected", Some(&label))
                    .incr();
                Err(XtractError::AdmissionRejected {
                    tenant,
                    reason,
                    retry_after_ms: self.policy.retry_after_ms,
                })
            }
        }
    }

    /// Current status of a job (Listing 2's `get_crawl_status` /
    /// `get_extract_status` rolled into one view).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.shared.status(id)
    }

    /// Blocks until the job is terminal or `timeout` passes.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        self.inner.shared.wait(id, timeout)
    }

    /// Takes the finished report; `None` until terminal. Consumes it.
    pub fn take_report(&self, id: JobId) -> Option<std::result::Result<JobReport, String>> {
        self.inner.shared.take_report(id)
    }

    /// Ids of all known jobs, sorted.
    pub fn jobs(&self) -> Vec<JobId> {
        self.inner.shared.jobs()
    }

    /// The service policy in force.
    pub fn policy(&self) -> &ServicePolicy {
        &self.policy
    }

    /// The underlying service's observability bundle.
    pub fn obs(&self) -> &xtract_obs::Obs {
        self.service.obs()
    }

    /// The live serving index, once any tenant's job has opted into
    /// index ingest (`spec.index.enabled`). The index is shared across
    /// tenants — it is the downstream search service every job feeds.
    pub fn index(&self) -> Option<Arc<xtract_index::SearchIndex>> {
        self.service.index()
    }
}

fn worker_loop(service: Arc<XtractService>, inner: Arc<ServiceInner>) {
    let obs = service.obs().clone();
    loop {
        let (tenant_id, job, payload) = {
            let mut state = inner.state.lock();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(next) = state.queue.pop_next() {
                    break next;
                }
                inner.shared.cv.wait(&mut state);
            }
        };
        let label = payload.tenant.spec().name.clone();
        {
            let mut slots = inner.shared.slots.lock();
            if let Some(slot) = slots.get_mut(&job) {
                slot.status = Some(JobStatus::Running);
            }
        }
        obs.journal.record(Event::JobDispatched {
            tenant: tenant_id,
            job,
        });
        obs.hub
            .counter_with("service.dispatched", Some(&label))
            .incr();
        let outcome = match &payload.log_dir {
            Some(dir) => service.run_job_with_recovery_as(
                payload.token,
                &payload.spec,
                dir,
                Some(&payload.tenant),
            ),
            None => service.run_job_as(payload.token, &payload.spec, Some(&payload.tenant)),
        };
        let ok = outcome.is_ok();
        // Journal and count before the status publishes: a waiter that
        // sees the job terminal reads counters that already include it.
        obs.journal.record(Event::JobFinished {
            tenant: tenant_id,
            job,
            ok,
        });
        obs.hub
            .counter_with(
                if ok {
                    "service.completed"
                } else {
                    "service.failed"
                },
                Some(&label),
            )
            .incr();
        // Lease before status, status before slot free: a waiter that
        // sees the terminal status may immediately resubmit against the
        // same WAL directory.
        drop(payload.lease);
        inner.shared.finish(job, outcome);
        inner.state.lock().queue.note_done(tenant_id);
        // A concurrency slot freed: wake workers blocked on an
        // at-cap tenant's pending work.
        inner.shared.cv.notify_all();
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.shared.cv.notify_all();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope};
    use xtract_sim::RngStreams;
    use xtract_types::config::ContainerRuntime;
    use xtract_types::{EndpointId, EndpointSpec, QuotaResource, TenantQuota};

    /// The single-user shape: a service with one registered tenant.
    fn rig(files: u64) -> (JobService, TenantId, Token, JobSpec) {
        let (service, token, spec) = service_rig(files);
        let svc = JobService::new(service, ServicePolicy::default()).unwrap();
        let user = svc.register_tenant(TenantSpec::new("user", 1)).unwrap();
        (svc, user, token, spec)
    }

    fn service_rig(files: u64) -> (Arc<XtractService>, Token, JobSpec) {
        let fabric = Arc::new(DataFabric::new());
        let ep = EndpointId::new(0);
        let fs = Arc::new(MemFs::new(ep));
        xtract_workloads::materialize::sample_repo(
            fs.as_ref(),
            "/data",
            files,
            &RngStreams::new(60),
        );
        fabric.register(ep, "midway", fs);
        let auth = Arc::new(AuthService::new());
        let token = auth.login(
            "async-user",
            &[
                Scope::Crawl,
                Scope::Extract,
                Scope::Transfer,
                Scope::Validate,
            ],
        );
        let service = Arc::new(XtractService::new(fabric, auth, 9));
        let spec = JobSpec::single_endpoint(
            EndpointSpec {
                endpoint: ep,
                read_path: "/data".into(),
                store_path: Some("/stage".into()),
                available_bytes: 1 << 30,
                workers: Some(4),
                runtime: ContainerRuntime::Docker,
            },
            "/data",
        );
        service.connect_endpoint(&spec.endpoints[0]).unwrap();
        (service, token, spec)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xtract-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_wait_take_report() {
        let (svc, user, token, spec) = rig(20);
        let id = svc.submit(user, 0, token, spec).unwrap();
        let status = svc.wait(id, Duration::from_secs(30)).unwrap();
        match status {
            JobStatus::Complete { records, failures } => {
                assert!(records > 0);
                assert_eq!(failures, 0);
            }
            other => panic!("unexpected status {other:?}"),
        }
        let report = svc.take_report(id).unwrap().unwrap();
        assert!(!report.records.is_empty());
        // Reports are consumed once.
        assert!(svc.take_report(id).is_none());
        // The shared observability bundle saw the job happen.
        let snap = svc.obs().hub.snapshot();
        // crawl.* is labeled per endpoint; the aggregate is the label sum.
        assert!(snap.counter_sum("crawl.files") >= 20);
        assert!(!svc.obs().journal.is_empty());
    }

    #[test]
    fn async_reports_carry_consistent_phase_timings() {
        let (svc, user, token, spec) = rig(16);
        let started = std::time::Instant::now();
        let id = svc.submit(user, 0, token, spec).unwrap();
        svc.wait(id, Duration::from_secs(30)).unwrap();
        let wall = started.elapsed().as_secs_f64();
        let report = svc.take_report(id).unwrap().unwrap();
        let total = report.phases.total();
        assert!(total > 0.0, "no phase time recorded");
        // Stage is the union of the staging pool's concurrent spans, so
        // even through the async interface no phase accounting can exceed
        // the wall clock (slop covers submit/notify scheduling).
        assert!(
            total <= wall + 0.25,
            "phase total {total}s exceeds wall clock {wall}s"
        );
    }

    #[test]
    fn invalid_jobs_fail_at_submit_not_in_background() {
        let (svc, user, token, mut spec) = rig(2);
        spec.max_family_size = 0;
        assert!(matches!(
            svc.submit(user, 0, token, spec),
            Err(XtractError::InvalidJob { .. })
        ));
        assert!(svc.jobs().is_empty());
    }

    #[test]
    fn concurrent_jobs_are_isolated() {
        let (svc, user, token, spec) = rig(24);
        let a = svc.submit(user, 0, token, spec.clone()).unwrap();
        let b = svc.submit(user, 0, token, spec).unwrap();
        assert_ne!(a, b);
        assert_eq!(svc.jobs().len(), 2);
        let sa = svc.wait(a, Duration::from_secs(30)).unwrap();
        let sb = svc.wait(b, Duration::from_secs(30)).unwrap();
        assert!(sa.is_terminal() && sb.is_terminal());
        let ra = svc.take_report(a).unwrap().unwrap();
        let rb = svc.take_report(b).unwrap().unwrap();
        assert_eq!(ra.records.len(), rb.records.len());
    }

    #[test]
    fn recovery_jobs_resume_through_the_async_interface() {
        let (svc, user, token, spec) = rig(12);
        let dir = temp_dir("recovery");

        let a = svc
            .submit_with_recovery(user, 0, token, spec.clone(), &dir)
            .unwrap();
        assert!(svc.wait(a, Duration::from_secs(30)).unwrap().is_terminal());
        let first = svc.take_report(a).unwrap().unwrap();
        assert!(!first.resumed);
        assert!(!first.records.is_empty());

        // Resubmitting against the same log replays the finished job:
        // nothing re-executes, the same records come back.
        let b = svc
            .submit_with_recovery(user, 0, token, spec, &dir)
            .unwrap();
        assert!(svc.wait(b, Duration::from_secs(30)).unwrap().is_terminal());
        let second = svc.take_report(b).unwrap().unwrap();
        assert!(second.resumed);
        assert!(second.replayed_records > 0);
        assert!(
            second.invocations.is_empty(),
            "resume of a finished job re-invoked extractors: {:?}",
            second.invocations
        );
        assert_eq!(first.records.len(), second.records.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_submits_to_one_log_dir_are_refused() {
        let (svc, user, token, spec) = rig(6);
        let dir = temp_dir("lease");
        // Deterministic conflict: while the directory is leased (here by
        // a directly-held lease standing in for a live job), a second
        // submission fails synchronously with the typed busy error — it
        // never reaches the background where it could corrupt the WAL.
        let held = LogDirLease::acquire(&dir).unwrap();
        let err = svc
            .submit_with_recovery(user, 0, token, spec.clone(), &dir)
            .unwrap_err();
        assert!(matches!(err, XtractError::RecoveryLogBusy { .. }));
        assert!(
            svc.jobs().is_empty(),
            "refused submit must not leave a slot"
        );
        drop(held);
        // With the lease free the submit goes through; and because a
        // finishing job releases its lease *before* its terminal status
        // publishes, wait-then-resubmit always succeeds.
        let a = svc
            .submit_with_recovery(user, 0, token, spec.clone(), &dir)
            .unwrap();
        assert!(svc.wait(a, Duration::from_secs(30)).unwrap().is_terminal());
        let b = svc
            .submit_with_recovery(user, 0, token, spec, &dir)
            .unwrap();
        assert!(svc.wait(b, Duration::from_secs(30)).unwrap().is_terminal());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_death_classifies_as_orchestrator_failure() {
        // A stranded shard death is an orchestrator-side fault: the
        // async interface reports it as retryable (resume replays the
        // shard WALs), not as admission/quota back-pressure.
        let err = XtractError::ShardDied {
            shard: 2,
            point: "wave-3".into(),
        };
        assert_eq!(JobFailureKind::classify(&err), JobFailureKind::Orchestrator);
    }

    #[test]
    fn unknown_job_has_no_status() {
        let (svc, _user, _token, _spec) = rig(2);
        assert!(svc.status(JobId::new(99)).is_none());
        assert!(svc
            .wait(JobId::new(99), Duration::from_millis(10))
            .is_none());
    }

    #[test]
    fn bad_token_surfaces_as_failed_job() {
        let (svc, user, _token, spec) = rig(4);
        let foreign = AuthService::new().login("other", &[Scope::Crawl]);
        let id = svc.submit(user, 0, foreign, spec).unwrap();
        match svc.wait(id, Duration::from_secs(30)).unwrap() {
            JobStatus::Failed { kind, reason } => {
                assert_eq!(kind, JobFailureKind::Orchestrator);
                assert!(reason.contains("authorization"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(svc.take_report(id).unwrap().is_err());
    }

    // -- JobService ---------------------------------------------------------

    #[test]
    fn tenant_jobs_run_through_the_shared_pool() {
        let (service, token, spec) = service_rig(16);
        let svc = JobService::new(service, ServicePolicy::default()).unwrap();
        let acme = svc.register_tenant(TenantSpec::new("acme", 2)).unwrap();
        let id = svc.submit(acme, 0, token, spec).unwrap();
        match svc.wait(id, Duration::from_secs(30)).unwrap() {
            JobStatus::Complete { records, .. } => assert!(records > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(svc.take_report(id).unwrap().is_ok());
        let snap = svc.obs().hub.snapshot();
        assert_eq!(snap.counter_with("service.admitted", Some("acme")), 1);
        assert_eq!(snap.counter_with("service.dispatched", Some("acme")), 1);
        assert_eq!(snap.counter_with("service.completed", Some("acme")), 1);
    }

    #[test]
    fn unknown_tenants_are_rejected_at_admission() {
        let (service, token, spec) = service_rig(2);
        let svc = JobService::new(service, ServicePolicy::default()).unwrap();
        assert!(matches!(
            svc.submit(TenantId::new(7), 0, token, spec),
            Err(XtractError::AdmissionRejected { .. })
        ));
    }

    #[test]
    fn exhausted_tenants_are_turned_away_with_retry_after() {
        let (service, token, spec) = service_rig(2);
        let svc = JobService::new(service, ServicePolicy::default()).unwrap();
        let broke = svc
            .register_tenant(TenantSpec::new("broke", 1).with_quota(TenantQuota {
                max_invocations: Some(1),
                ..TenantQuota::unlimited()
            }))
            .unwrap();
        // Drain the allowance, then submit: admission refuses up front.
        let ctx = svc.tenant(broke).unwrap();
        ctx.charge(QuotaResource::Invocations, 1).unwrap();
        match svc.submit(broke, 0, token, spec) {
            Err(XtractError::AdmissionRejected { retry_after_ms, .. }) => {
                assert_eq!(retry_after_ms, ServicePolicy::default().retry_after_ms);
            }
            other => panic!("unexpected {other:?}"),
        }
        let snap = svc.obs().hub.snapshot();
        assert_eq!(snap.counter_with("service.rejected", Some("broke")), 1);
        assert_eq!(snap.counter_with("service.admitted", Some("broke")), 0);
    }

    #[test]
    fn quota_exhaustion_mid_run_fails_with_the_typed_kind() {
        let (service, token, spec) = service_rig(12);
        let svc = JobService::new(service, ServicePolicy::default()).unwrap();
        // Enough invocation quota to pass admission but never enough to
        // run the extraction plan: the failure surfaces mid-run as the
        // typed Quota kind, not a stringly-typed Internal error.
        let pinched = svc
            .register_tenant(TenantSpec::new("pinched", 1).with_quota(TenantQuota {
                max_invocations: Some(1),
                ..TenantQuota::unlimited()
            }))
            .unwrap();
        let id = svc.submit(pinched, 0, token, spec).unwrap();
        match svc.wait(id, Duration::from_secs(30)).unwrap() {
            JobStatus::Failed { kind, .. } => assert_eq!(kind, JobFailureKind::Quota),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overload_sheds_pending_low_priority_with_typed_status() {
        let (service, token, spec) = service_rig(160);
        // One worker, room for two pending jobs: the worker occupies
        // itself with the first job while the queue fills behind it.
        let svc = JobService::new(
            service,
            ServicePolicy {
                workers: 1,
                queue_capacity: 2,
                retry_after_ms: 77,
            },
        )
        .unwrap();
        let t = svc.register_tenant(TenantSpec::new("t", 1)).unwrap();
        let running = svc.submit(t, 5, token, spec.clone()).unwrap();
        // The queue-pressure dance below assumes the first job holds the
        // worker: wait until it has left the pending queue. Its 160-file
        // extraction keeps the worker busy far longer than the
        // microseconds of submission calls that follow.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !matches!(svc.status(running), Some(JobStatus::Running)) {
            assert!(
                std::time::Instant::now() < deadline,
                "first job never dispatched"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let low = svc.submit(t, 1, token, spec.clone()).unwrap();
        let mid = svc.submit(t, 2, token, spec.clone()).unwrap();
        // Queue full (low, mid pending). Equal priority: rejected.
        assert!(matches!(
            svc.submit(t, 1, token, spec.clone()),
            Err(XtractError::AdmissionRejected { .. })
        ));
        // Higher priority: the lowest-priority pending job is shed.
        let high = svc.submit(t, 9, token, spec.clone()).unwrap();
        match svc.status(low).unwrap() {
            JobStatus::Shed { retry_after_ms, .. } => assert_eq!(retry_after_ms, 77),
            other => panic!("victim status {other:?}"),
        }
        for id in [running, mid, high] {
            assert!(matches!(
                svc.wait(id, Duration::from_secs(60)).unwrap(),
                JobStatus::Complete { .. }
            ));
        }
        // Counters reconcile exactly with what happened: 4 admitted
        // (running, low, mid, high), 1 rejected, 1 shed, 3 completed.
        let snap = svc.obs().hub.snapshot();
        assert_eq!(snap.counter_with("service.admitted", Some("t")), 4);
        assert_eq!(snap.counter_with("service.rejected", Some("t")), 1);
        assert_eq!(snap.counter_with("service.shed", Some("t")), 1);
        assert_eq!(snap.counter_with("service.completed", Some("t")), 3);
        assert_eq!(snap.counter_with("service.dispatched", Some("t")), 3);
    }
}
