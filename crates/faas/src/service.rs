//! The FaaS web service: batch submission, batch polling, heartbeats.
//!
//! §4.3.2: "we exploit funcX batching to reduce the number of funcX web
//! service requests. ... funcX expands the batch into a set of individual
//! function invocations. We also use funcX's batch polling functionality."
//!
//! Every [`FaasService::batch_submit`] and [`FaasService::batch_poll`]
//! call counts as **one web-service request** regardless of batch size —
//! the accounting the Fig. 5 batching sweep and `micro_batching` ablation
//! rely on. Heartbeats surface allocation expiry: after
//! [`FaasService::expire_endpoint`], polls report in-flight tasks as
//! [`TaskStatus::Lost`], and the orchestrator resubmits (§5.8.1).
//!
//! # Row lifetime
//!
//! The status table holds one row per submitted task, created by
//! [`FaasService::batch_submit`] and updated in place by the workers. A
//! `Done` row owns the task's result behind an `Arc`, so polling hands out
//! handles, not copies. The service never drops a row on its own: the
//! owner of a task calls [`FaasService::forget`] once it has what it needs
//! (funcX likewise purges a result from its store when the client has
//! retrieved it), and a service whose owners do so holds rows only for
//! tasks in flight. `faas.tasks_tracked` gauges the table;
//! [`FaasService::tracked_tasks`] lists it.
//!
//! # Lock order
//!
//! `task_endpoint` before `statuses`, and only
//! `note_allocation_expired` holds both (it walks the owners to flip their
//! rows). Everything else — submit, poll, cancel, `forget`, the workers —
//! takes one of the two at a time, so a job forgetting settled tasks cannot
//! deadlock against the watchdog or a sibling job expiring an endpoint.

use crate::endpoint::{ComputeEndpoint, EndpointConfig, SharedFaultPlan, WorkItem};
use crate::registry::FunctionRegistry;
use crate::task::{PolledTask, TaskSpec, TaskStatus};
use crate::watchdog::LeaseWatchdog;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xtract_obs::{Counter, Event, Gauge, MetricsHub, Obs};
use xtract_types::id::IdAllocator;
use xtract_types::{EndpointId, FaultPlan, FaultScope, Result, TaskId, XtractError};

/// Aggregate service statistics. Counters are [`xtract_obs::Counter`]
/// handles: a service built with [`FaasService::with_obs`] interns them in
/// the shared hub (as `faas.*`); a plain service gets private ones.
#[derive(Debug, Default, Clone)]
pub struct ServiceStats {
    /// Web-service round trips (submits + polls).
    pub ws_requests: Counter,
    /// Individual tasks submitted.
    pub tasks_submitted: Counter,
    /// Batch submissions.
    pub batches_submitted: Counter,
    /// Allocations auto-renewed by the lease watchdog.
    pub watchdog_renewals: Counter,
    /// Rows in the status table: tasks submitted and not yet forgotten.
    pub tasks_tracked: Gauge,
    /// Rows dropped by [`FaasService::forget`].
    pub tasks_forgotten: Counter,
}

impl ServiceStats {
    /// Counters interned in `hub` under the `faas.*` names (the watchdog
    /// renewal counter interns as `watchdog.renewals`).
    pub fn in_hub(hub: &MetricsHub) -> Self {
        Self {
            ws_requests: hub.counter("faas.ws_requests"),
            tasks_submitted: hub.counter("faas.tasks_submitted"),
            batches_submitted: hub.counter("faas.batches_submitted"),
            watchdog_renewals: hub.counter("watchdog.renewals"),
            tasks_tracked: hub.gauge("faas.tasks_tracked"),
            tasks_forgotten: hub.counter("faas.tasks_forgotten"),
        }
    }
}

/// The federated FaaS service.
pub struct FaasService {
    registry: Arc<FunctionRegistry>,
    endpoints: RwLock<HashMap<EndpointId, Arc<ComputeEndpoint>>>,
    statuses: Arc<RwLock<HashMap<TaskId, TaskStatus>>>,
    task_endpoint: RwLock<HashMap<TaskId, EndpointId>>,
    ids: IdAllocator,
    stats: ServiceStats,
    fault: SharedFaultPlan,
    obs: Option<Obs>,
    /// Monotonic batch-submit counter — the operation index FaaS blackout
    /// windows are expressed in.
    submit_ops: AtomicU64,
    /// Endpoints whose current expiry episode has already been journaled
    /// and had its in-flight tasks flipped; cleared on renewal, so each
    /// expire→renew cycle journals exactly one `AllocationExpired`.
    expiry_noted: RwLock<HashSet<EndpointId>>,
}

impl FaasService {
    /// A service over the given registry, with private counters.
    pub fn new(registry: Arc<FunctionRegistry>) -> Self {
        Self {
            registry,
            endpoints: RwLock::new(HashMap::new()),
            statuses: Arc::new(RwLock::new(HashMap::new())),
            task_endpoint: RwLock::new(HashMap::new()),
            ids: IdAllocator::new(),
            stats: ServiceStats::default(),
            fault: Arc::new(RwLock::new(None)),
            obs: None,
            submit_ops: AtomicU64::new(0),
            expiry_noted: RwLock::new(HashSet::new()),
        }
    }

    /// A service reporting into `obs`: stats intern in the hub (`faas.*`),
    /// and submits/polls/cold-starts journal typed events.
    pub fn with_obs(registry: Arc<FunctionRegistry>, obs: Obs) -> Self {
        Self {
            registry,
            endpoints: RwLock::new(HashMap::new()),
            statuses: Arc::new(RwLock::new(HashMap::new())),
            task_endpoint: RwLock::new(HashMap::new()),
            ids: IdAllocator::new(),
            stats: ServiceStats::in_hub(&obs.hub),
            fault: Arc::new(RwLock::new(None)),
            obs: Some(obs),
            submit_ops: AtomicU64::new(0),
            expiry_noted: RwLock::new(HashSet::new()),
        }
    }

    /// The registry this service resolves functions from.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Arms a structured fault plan. Endpoint blackouts apply at submit
    /// time; worker-crash and heartbeat-loss rates reach every connected
    /// endpoint's workers through a shared slot, so arming after
    /// connection still takes effect.
    pub fn arm_fault_plan(&self, plan: FaultPlan) {
        *self.fault.write() = Some(plan);
    }

    /// Disables fault injection.
    pub fn clear_faults(&self) {
        *self.fault.write() = None;
    }

    /// Connects an endpoint's compute layer (spawns its worker pool). The
    /// endpoint inherits the service's observability sinks, if any.
    pub fn connect_endpoint(&self, config: EndpointConfig) -> Arc<ComputeEndpoint> {
        let ep = Arc::new(ComputeEndpoint::start_with_obs(
            config,
            self.statuses.clone(),
            self.fault.clone(),
            self.obs.clone(),
        ));
        self.endpoints.write().insert(ep.id(), ep.clone());
        ep
    }

    /// Looks up a connected endpoint.
    pub fn endpoint(&self, id: EndpointId) -> Option<Arc<ComputeEndpoint>> {
        self.endpoints.read().get(&id).cloned()
    }

    /// Submits a batch of tasks in one web-service request. Tasks are
    /// expanded into individual invocations, resolved against the
    /// registry, and routed to their endpoints' queues. Per-task failures
    /// (unknown function, incompatible or disconnected endpoint) surface
    /// as immediately-`Failed` tasks rather than failing the batch, so one
    /// bad spec cannot sink its batch-mates. This is the copying wrapper
    /// over [`Self::batch_submit_owned`], for a caller that keeps its specs.
    pub fn batch_submit(&self, specs: &[TaskSpec]) -> Vec<TaskId> {
        self.batch_submit_owned(specs.to_vec())
    }

    /// [`Self::batch_submit`] over specs the caller gives up: each payload
    /// is *moved* into its endpoint's queue, so a task's input tree is
    /// built once and never copied on the submitting thread.
    pub fn batch_submit_owned(&self, specs: Vec<TaskSpec>) -> Vec<TaskId> {
        // An empty batch is not a web-service request: nothing is sent, so
        // nothing may be counted (the old accounting skewed the Fig. 5 /
        // `micro_batching` request numbers).
        if specs.is_empty() {
            return Vec::new();
        }
        self.stats.ws_requests.incr();
        self.stats.batches_submitted.incr();
        self.stats.tasks_submitted.add(specs.len() as u64);
        // Every spec below gets exactly one row, whatever becomes of it.
        self.stats.tasks_tracked.add(specs.len() as i64);
        if let Some(obs) = &self.obs {
            obs.journal.record(Event::BatchSubmitted {
                tasks: specs.len() as u64,
            });
        }
        let op = self.submit_ops.fetch_add(1, Ordering::Relaxed);
        // Read in place for the whole request (nothing below takes this
        // lock again): an armed plan is not copied per submit.
        let plan = self.fault.read();
        // Scheduled allocation expiries fire immediately before the batch
        // routes, so chaos tests can land a lease lapse deterministically
        // mid-wave (the campaign counterpart of a wall-clock expiry).
        if let Some(p) = plan.as_ref() {
            if !p.allocation_expiries.is_empty() {
                let eps: Vec<EndpointId> = self.endpoints.read().keys().copied().collect();
                for ep in eps {
                    if p.allocation_expires_at(ep, op) {
                        self.expire_endpoint(ep);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            let id = TaskId::new(self.ids.next());
            out.push(id);
            self.task_endpoint.write().insert(id, spec.endpoint);
            // A blacked-out endpoint swallows its submissions: the tasks
            // are never acknowledged and the next heartbeat reports them
            // lost, exactly like an allocation expiry (§5.8.1).
            if plan.as_ref().is_some_and(|p| {
                p.blackout_at(spec.endpoint, op, FaultScope::Compute)
                    .is_some()
            }) {
                self.statuses.write().insert(id, TaskStatus::Lost);
                continue;
            }
            match self.route(id, spec) {
                Ok(()) => {}
                Err(e) => {
                    // Lost is recorded by the endpoint itself; everything
                    // else becomes Failed here.
                    if !matches!(e, XtractError::TaskLost { .. }) {
                        self.statuses.write().insert(id, TaskStatus::Failed(e));
                    }
                }
            }
        }
        out
    }

    fn route(&self, id: TaskId, spec: TaskSpec) -> Result<()> {
        let function = self.registry.resolve(spec.function, spec.endpoint)?;
        let ep = self
            .endpoint(spec.endpoint)
            .ok_or(XtractError::NoComputeLayer {
                endpoint: spec.endpoint,
            })?;
        ep.enqueue(WorkItem {
            task: id,
            container: function.container,
            body: function.body,
            payload: spec.payload,
        })
    }

    /// Polls a batch of tasks in one web-service request. Ids the service
    /// has never seen — or has been told to [`forget`](Self::forget) — come
    /// back as [`TaskStatus::Unknown`] (terminal): reporting them
    /// `Pending`, as this used to, made pollers holding a mistyped or
    /// never-submitted id spin forever. A `Done` status shares the row's
    /// result (an `Arc` handle), it does not copy it.
    pub fn batch_poll(&self, ids: &[TaskId]) -> Vec<PolledTask> {
        self.stats.ws_requests.incr();
        let polled: Vec<PolledTask> = {
            let statuses = self.statuses.read();
            ids.iter()
                .map(|&id| PolledTask {
                    id,
                    status: statuses.get(&id).cloned().unwrap_or(TaskStatus::Unknown),
                })
                .collect()
        };
        if let Some(obs) = &self.obs {
            for p in &polled {
                if p.status == TaskStatus::Unknown {
                    obs.journal.record(Event::UnknownTask { task: p.id });
                }
            }
            obs.journal.record(Event::BatchPolled {
                tasks: polled.len() as u64,
                terminal: polled.iter().filter(|p| p.status.is_terminal()).count() as u64,
            });
        }
        polled
    }

    /// Blocks until every listed task is terminal or `timeout` elapses
    /// (ids the service has never seen count as terminal, mirroring
    /// [`Self::batch_poll`]'s `Unknown`). Returns true when all finished.
    /// Test/benchmark convenience; the orchestrator uses
    /// [`Self::batch_poll`] loops.
    ///
    /// Waiting backs off exponentially (50 µs doubling to a 5 ms cap)
    /// instead of hammering the status table at a fixed 200 µs, which
    /// pegged a core in every bench that used it.
    pub fn wait_all(&self, ids: &[TaskId], timeout: Duration) -> bool {
        const MAX_BACKOFF: Duration = Duration::from_millis(5);
        let deadline = std::time::Instant::now() + timeout;
        let mut backoff = Duration::from_micros(50);
        loop {
            {
                let statuses = self.statuses.read();
                if ids
                    .iter()
                    .all(|id| statuses.get(id).is_none_or(TaskStatus::is_terminal))
                {
                    return true;
                }
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            std::thread::sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
    }

    /// Drops the rows of `ids` from the status table (and their endpoint
    /// routing): the owner has retrieved what it needs, and whatever result
    /// a row held is freed with the last handle to it. Ids without a row
    /// are skipped. From here on a forgotten id polls as
    /// [`TaskStatus::Unknown`], cannot be cancelled, and stays forgotten:
    /// a worker still running the task — cancel it *before* forgetting it —
    /// finds no row to write its late `Cancelled` (or result) into.
    pub fn forget(&self, ids: &[TaskId]) {
        // One lock at a time (see "Lock order" in the module docs): the
        // rows go first, so an expiry sweep running in between finds an
        // owner without a row and skips it.
        let dropped = {
            let mut statuses = self.statuses.write();
            ids.iter()
                .filter(|&id| statuses.remove(id).is_some())
                .count()
        };
        {
            let mut owners = self.task_endpoint.write();
            for id in ids {
                owners.remove(id);
            }
        }
        self.stats.tasks_tracked.add(-(dropped as i64));
        self.stats.tasks_forgotten.add(dropped as u64);
    }

    /// The ids with a row in the status table, ascending: every task
    /// submitted and not yet forgotten, whatever its state.
    pub fn tracked_tasks(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.statuses.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Simulates an allocation expiry at `endpoint` (§5.8.1): queued and
    /// running tasks there are lost; subsequent polls report them as such.
    pub fn expire_endpoint(&self, endpoint: EndpointId) {
        if let Some(ep) = self.endpoint(endpoint) {
            ep.expire_allocation();
        }
        self.note_allocation_expired(endpoint);
    }

    /// Flips the endpoint's in-flight tasks to `Lost` and journals one
    /// `AllocationExpired` per expiry episode. Idempotent until the next
    /// renewal, so the lease watchdog and an explicit
    /// [`Self::expire_endpoint`] call never double-journal one lapse.
    pub(crate) fn note_allocation_expired(&self, endpoint: EndpointId) {
        if !self.expiry_noted.write().insert(endpoint) {
            return;
        }
        // Tasks already queued inside the channel get marked Lost by the
        // workers; tasks that are Pending in the table but racing the flag
        // are handled identically. Mark Pending/Running now for
        // deterministic heartbeat visibility.
        let mut tasks_lost = 0u64;
        {
            let owners = self.task_endpoint.read();
            let mut statuses = self.statuses.write();
            for (task, ep) in owners.iter() {
                if *ep == endpoint {
                    if let Some(s) = statuses.get_mut(task) {
                        if !s.is_terminal() {
                            *s = TaskStatus::Lost;
                            tasks_lost += 1;
                        }
                    }
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.journal.record(Event::AllocationExpired {
                endpoint,
                tasks_lost,
            });
        }
    }

    /// Renews an endpoint's allocation after expiry, journaling
    /// `AllocationRenewed` when the lease was actually lapsed.
    pub fn renew_endpoint(&self, endpoint: EndpointId) {
        if let Some(ep) = self.endpoint(endpoint) {
            ep.renew_allocation();
        }
        let was_expired = self.expiry_noted.write().remove(&endpoint);
        if was_expired {
            if let Some(obs) = &self.obs {
                obs.journal.record(Event::AllocationRenewed { endpoint });
            }
        }
    }

    /// Cancels a task (the losing side of a hedge race). Returns `true`
    /// when the cancel took effect: a queued task is dropped before it
    /// runs, a running task has its result discarded when the worker
    /// checks the flag at completion (best-effort). Terminal tasks — and
    /// ids the service has never seen — are a no-op returning `false`.
    pub fn cancel(&self, task: TaskId) -> bool {
        {
            let statuses = self.statuses.read();
            match statuses.get(&task) {
                None => return false,
                Some(s) if s.is_terminal() => return false,
                Some(_) => {}
            }
        }
        if let Some(ep) = self
            .task_endpoint
            .read()
            .get(&task)
            .copied()
            .and_then(|e| self.endpoint(e))
        {
            ep.cancel(task);
        }
        // Pending tasks become terminal immediately so pollers stop
        // waiting; the worker consumes the flag when it dequeues the item.
        // Running tasks stay Running until the worker applies the flag —
        // or wins the race and lands its result anyway.
        let mut statuses = self.statuses.write();
        match statuses.get(&task) {
            Some(TaskStatus::Pending) => {
                statuses.insert(task, TaskStatus::Cancelled);
                true
            }
            Some(TaskStatus::Running) => true,
            _ => false,
        }
    }

    /// Starts the allocation lease watchdog: a background thread that
    /// scans for lapsed allocations, eagerly flips their in-flight tasks
    /// to `Lost` (journaling `AllocationExpired`), and auto-renews each
    /// lease once it has been lapsed for `renew_cooldown` (journaling
    /// `AllocationRenewed` and counting `watchdog.renewals`). The
    /// watchdog stops when the returned handle is dropped; it holds only
    /// a weak reference, so it never keeps the service alive.
    pub fn start_lease_watchdog(self: &Arc<Self>, renew_cooldown: Duration) -> LeaseWatchdog {
        LeaseWatchdog::start(Arc::downgrade(self), renew_cooldown)
    }

    /// Endpoint ids with a currently-lapsed allocation.
    pub(crate) fn expired_endpoints(&self) -> Vec<EndpointId> {
        self.endpoints
            .read()
            .iter()
            .filter(|(_, ep)| ep.is_expired())
            .map(|(id, _)| *id)
            .collect()
    }

    /// Bumps the watchdog renewal counter (watchdog thread only).
    pub(crate) fn count_watchdog_renewal(&self) {
        self.stats.watchdog_renewals.incr();
    }

    /// Heartbeat view: ids among `ids` currently reported lost.
    pub fn lost_tasks(&self, ids: &[TaskId]) -> Vec<TaskId> {
        let statuses = self.statuses.read();
        ids.iter()
            .copied()
            .filter(|id| matches!(statuses.get(id), Some(TaskStatus::Lost)))
            .collect()
    }

    /// Service statistics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::FunctionBody;
    use serde_json::json;
    use xtract_types::config::ContainerRuntime;
    use xtract_types::FunctionId;

    struct Rig {
        svc: FaasService,
        ep: EndpointId,
        f: FunctionId,
    }

    fn rig(workers: usize) -> Rig {
        let registry = Arc::new(FunctionRegistry::new());
        let ep = EndpointId::new(0);
        registry.declare_endpoint(ep, ContainerRuntime::Docker);
        let c = registry.register_container("kw:1", ContainerRuntime::Docker, 0);
        let body: FunctionBody = Arc::new(|v| Ok(json!({"out": v})));
        let f = registry.register_function("kw", c, &[ep], body).unwrap();
        let svc = FaasService::new(registry);
        svc.connect_endpoint(EndpointConfig::instant(ep, workers));
        Rig { svc, ep, f }
    }

    fn specs(r: &Rig, n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec {
                function: r.f,
                endpoint: r.ep,
                payload: json!(i),
            })
            .collect()
    }

    #[test]
    fn batch_submit_and_poll() {
        let r = rig(4);
        let ids = r.svc.batch_submit(&specs(&r, 10));
        assert_eq!(ids.len(), 10);
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        let polled = r.svc.batch_poll(&ids);
        for (i, p) in polled.iter().enumerate() {
            match &p.status {
                TaskStatus::Done(out) => assert_eq!(*out.value, json!({"out": i})),
                other => panic!("unexpected {other:?}"),
            }
        }
        // 1 submit + N polls; at least 2 requests total.
        assert!(r.svc.stats().ws_requests.get() >= 2);
        assert_eq!(r.svc.stats().tasks_submitted.get(), 10);
        assert_eq!(r.svc.stats().batches_submitted.get(), 1);
    }

    #[test]
    fn an_owned_submit_hands_the_function_the_callers_allocation() {
        // The body reports where the string inside its input lives: the
        // owned form moves the payload to the worker, the borrowing form
        // can only give it a copy.
        let registry = Arc::new(FunctionRegistry::new());
        let ep = EndpointId::new(0);
        registry.declare_endpoint(ep, ContainerRuntime::Docker);
        let c = registry.register_container("addr:1", ContainerRuntime::Docker, 0);
        let body: FunctionBody =
            Arc::new(|v| Ok(json!(v["text"].as_str().unwrap().as_ptr() as usize)));
        let f = registry.register_function("addr", c, &[ep], body).unwrap();
        let svc = FaasService::new(registry);
        svc.connect_endpoint(EndpointConfig::instant(ep, 1));
        let seen = |ids: &[TaskId]| -> usize {
            assert!(svc.wait_all(ids, Duration::from_secs(5)));
            match &svc.batch_poll(ids)[0].status {
                TaskStatus::Done(out) => out.value.as_u64().unwrap() as usize,
                other => panic!("unexpected {other:?}"),
            }
        };
        let spec = || TaskSpec {
            function: f,
            endpoint: ep,
            payload: json!({"text": "a family tree, built once"}),
        };
        let owned = spec();
        let allocated = owned.payload["text"].as_str().unwrap().as_ptr() as usize;
        assert_eq!(seen(&svc.batch_submit_owned(vec![owned])), allocated);
        let kept = [spec()];
        let allocated = kept[0].payload["text"].as_str().unwrap().as_ptr() as usize;
        assert_ne!(seen(&svc.batch_submit(&kept)), allocated);
    }

    #[test]
    fn one_request_per_batch_regardless_of_size() {
        let r = rig(2);
        let before = r.svc.stats().ws_requests.get();
        let ids = r.svc.batch_submit(&specs(&r, 64));
        assert_eq!(r.svc.stats().ws_requests.get(), before + 1);
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
    }

    #[test]
    fn empty_batch_is_not_a_web_request() {
        // Regression: an empty spec slice used to count as a submit,
        // inflating ws_requests/batches_submitted in the Fig. 5 sweep.
        let r = rig(1);
        let before_ws = r.svc.stats().ws_requests.get();
        let before_batches = r.svc.stats().batches_submitted.get();
        let ids = r.svc.batch_submit(&[]);
        assert!(ids.is_empty());
        assert_eq!(r.svc.stats().ws_requests.get(), before_ws);
        assert_eq!(r.svc.stats().batches_submitted.get(), before_batches);
        assert_eq!(r.svc.stats().tasks_submitted.get(), 0);
    }

    #[test]
    fn unknown_function_fails_only_its_task() {
        let r = rig(1);
        let mut batch = specs(&r, 2);
        batch.push(TaskSpec {
            function: FunctionId::new(999),
            endpoint: r.ep,
            payload: json!(null),
        });
        let ids = r.svc.batch_submit(&batch);
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        let polled = r.svc.batch_poll(&ids);
        assert!(matches!(polled[0].status, TaskStatus::Done(_)));
        assert!(matches!(polled[1].status, TaskStatus::Done(_)));
        assert!(matches!(polled[2].status, TaskStatus::Failed(_)));
    }

    #[test]
    fn disconnected_endpoint_fails_task() {
        let r = rig(1);
        let ids = r.svc.batch_submit(&[TaskSpec {
            function: r.f,
            endpoint: EndpointId::new(42),
            payload: json!(null),
        }]);
        let polled = r.svc.batch_poll(&ids);
        assert!(matches!(
            polled[0].status,
            TaskStatus::Failed(XtractError::NoCompatibleEndpoint { .. })
                | TaskStatus::Failed(XtractError::NoComputeLayer { .. })
        ));
    }

    #[test]
    fn expiry_marks_lost_and_resubmit_recovers() {
        let r = rig(1);
        // A slow task keeps the worker busy while the rest queue up.
        let registry = r.svc.registry();
        let c = registry.register_container("slow:1", ContainerRuntime::Docker, 0);
        let slow_body: FunctionBody = Arc::new(|v| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(v)
        });
        let slow = registry
            .register_function("slow", c, &[r.ep], slow_body)
            .unwrap();
        let mut batch = vec![TaskSpec {
            function: slow,
            endpoint: r.ep,
            payload: json!(0),
        }];
        batch.extend(specs(&r, 5));
        let ids = r.svc.batch_submit(&batch);
        r.svc.expire_endpoint(r.ep);
        r.svc.wait_all(&ids, Duration::from_secs(5));
        let lost = r.svc.lost_tasks(&ids);
        assert!(!lost.is_empty(), "expiry should lose in-flight tasks");
        // Renew and resubmit the lost ones.
        r.svc.renew_endpoint(r.ep);
        let resubmit: Vec<TaskSpec> = lost.iter().map(|_| specs(&r, 1).remove(0)).collect();
        let ids2 = r.svc.batch_submit(&resubmit);
        assert!(r.svc.wait_all(&ids2, Duration::from_secs(5)));
        assert!(r
            .svc
            .batch_poll(&ids2)
            .iter()
            .all(|p| matches!(p.status, TaskStatus::Done(_))));
    }

    #[test]
    fn cancel_covers_queued_running_and_terminal_states() {
        let r = rig(1);
        let registry = r.svc.registry();
        let c = registry.register_container("slow:1", ContainerRuntime::Docker, 0);
        let slow_body: FunctionBody = Arc::new(|v| {
            std::thread::sleep(Duration::from_millis(80));
            Ok(v)
        });
        let slow = registry
            .register_function("slow", c, &[r.ep], slow_body)
            .unwrap();
        let ids = r.svc.batch_submit(&[
            TaskSpec {
                function: slow,
                endpoint: r.ep,
                payload: json!(0),
            },
            TaskSpec {
                function: r.f,
                endpoint: r.ep,
                payload: json!(1),
            },
        ]);
        // Queued → dropped: the second task sits behind the slow one on
        // the single worker.
        assert!(r.svc.cancel(ids[1]));
        // Running (or still pending) → best-effort flag, applied by the
        // worker at completion.
        assert!(r.svc.cancel(ids[0]));
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        let polled = r.svc.batch_poll(&ids);
        assert_eq!(polled[0].status, TaskStatus::Cancelled);
        assert_eq!(polled[1].status, TaskStatus::Cancelled);
        // Terminal → no-op; unknown ids too.
        assert!(!r.svc.cancel(ids[0]));
        assert!(!r.svc.cancel(TaskId::new(99_999)));
    }

    #[test]
    fn cancel_after_completion_keeps_the_result() {
        let r = rig(2);
        let ids = r.svc.batch_submit(&specs(&r, 1));
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        assert!(!r.svc.cancel(ids[0]), "terminal task must not cancel");
        assert!(matches!(
            r.svc.batch_poll(&ids)[0].status,
            TaskStatus::Done(_)
        ));
    }

    #[test]
    fn forgotten_rows_are_dropped_and_poll_as_unknown() {
        let r = rig(2);
        let ids = r.svc.batch_submit(&specs(&r, 4));
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        assert_eq!(r.svc.tracked_tasks(), ids);
        assert_eq!(r.svc.stats().tasks_tracked.get(), 4);

        r.svc.forget(&ids[..2]);
        assert_eq!(r.svc.tracked_tasks(), &ids[2..]);
        let polled = r.svc.batch_poll(&ids);
        assert_eq!(polled[0].status, TaskStatus::Unknown);
        assert_eq!(polled[1].status, TaskStatus::Unknown);
        assert!(matches!(polled[2].status, TaskStatus::Done(_)));
        assert!(
            !r.svc.cancel(ids[0]),
            "a forgotten task cannot be cancelled"
        );

        // Forgetting twice, or an id never seen, drops nothing more.
        r.svc.forget(&[ids[0], TaskId::new(99_999)]);
        assert_eq!(r.svc.stats().tasks_tracked.get(), 2);
        assert_eq!(r.svc.stats().tasks_forgotten.get(), 2);
        r.svc.forget(&ids);
        assert!(r.svc.tracked_tasks().is_empty());
        assert_eq!(r.svc.stats().tasks_tracked.get(), 0);
    }

    #[test]
    fn polls_share_the_result_instead_of_copying_it() {
        let r = rig(1);
        let ids = r.svc.batch_submit(&specs(&r, 1));
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        let value = |polled: Vec<PolledTask>| match polled.into_iter().next().unwrap().status {
            TaskStatus::Done(out) => out.value,
            other => panic!("unexpected {other:?}"),
        };
        let first = value(r.svc.batch_poll(&ids));
        let second = value(r.svc.batch_poll(&ids));
        assert!(Arc::ptr_eq(&first, &second));
        // Table row + the two handles; forgetting leaves only the handles.
        assert_eq!(Arc::strong_count(&first), 3);
        r.svc.forget(&ids);
        assert_eq!(Arc::strong_count(&first), 2);
    }

    #[test]
    fn late_write_for_a_forgotten_task_lands_nowhere() {
        let r = rig(1);
        let registry = r.svc.registry();
        let c = registry.register_container("gated:1", ContainerRuntime::Docker, 0);
        let (started_tx, started_rx) = crossbeam_channel::unbounded::<()>();
        let (release_tx, release_rx) = crossbeam_channel::unbounded::<()>();
        let gated: FunctionBody = Arc::new(move |v| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            Ok(v)
        });
        let f = registry
            .register_function("gated", c, &[r.ep], gated)
            .unwrap();
        let straggler = r.svc.batch_submit(&[TaskSpec {
            function: f,
            endpoint: r.ep,
            payload: json!("big result"),
        }]);
        // The body is running: cancel takes the best-effort path, and the
        // owner walks away from the task.
        started_rx.recv().unwrap();
        assert!(r.svc.cancel(straggler[0]));
        r.svc.forget(&straggler);
        release_tx.send(()).unwrap();
        // The single worker finishes the straggler before it runs this one.
        let next = r.svc.batch_submit(&specs(&r, 1));
        assert!(r.svc.wait_all(&next, Duration::from_secs(5)));
        assert_eq!(r.svc.tracked_tasks(), next);
        assert_eq!(r.svc.batch_poll(&straggler)[0].status, TaskStatus::Unknown);
        assert_eq!(r.svc.stats().tasks_tracked.get(), 1);
    }

    #[test]
    fn forgetting_never_deadlocks_against_expiry_sweeps() {
        // A job forgets settled tasks one entry at a time while the
        // watchdog (or a sibling job) expires and renews the endpoint:
        // the sweep holds `task_endpoint` and wants `statuses`, so
        // `forget` must never hold `statuses` and want `task_endpoint`.
        let r = Arc::new(rig(2));
        let ids = r.svc.batch_submit(&specs(&r, 4_000));
        assert!(r.svc.wait_all(&ids, Duration::from_secs(10)));
        let (done_tx, done_rx) = crossbeam_channel::unbounded::<()>();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Detached, not scoped: a deadlock must fail the test, not hang
        // the join.
        {
            let (r, stop) = (r.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    r.svc.expire_endpoint(r.ep);
                    r.svc.renew_endpoint(r.ep);
                }
            });
        }
        {
            let (r, ids) = (r.clone(), ids.clone());
            std::thread::spawn(move || {
                for pair in ids.chunks(2) {
                    r.svc.forget(pair);
                }
                let _ = done_tx.send(());
            });
        }
        let finished = done_rx.recv_timeout(Duration::from_secs(20));
        stop.store(true, Ordering::Relaxed);
        assert!(finished.is_ok(), "forget deadlocked against expire/renew");
        assert!(r.svc.tracked_tasks().is_empty());
        assert_eq!(r.svc.stats().tasks_forgotten.get(), 4_000);
    }

    #[test]
    fn blackout_window_loses_submissions_then_recovers() {
        let r = rig(2);
        let mut plan = FaultPlan::new(8);
        plan.blackouts.push(xtract_types::Blackout::new(r.ep, 0, 1));
        r.svc.arm_fault_plan(plan);
        // Batch op 0: inside the window — every task is lost.
        let ids = r.svc.batch_submit(&specs(&r, 3));
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        assert_eq!(r.svc.lost_tasks(&ids).len(), 3);
        // Batch op 1: past the window — the endpoint is back.
        let ids2 = r.svc.batch_submit(&specs(&r, 3));
        assert!(r.svc.wait_all(&ids2, Duration::from_secs(5)));
        assert!(r
            .svc
            .batch_poll(&ids2)
            .iter()
            .all(|p| matches!(p.status, TaskStatus::Done(_))));
    }

    #[test]
    fn armed_crash_plan_reaches_connected_workers() {
        let r = rig(1);
        let mut plan = FaultPlan::new(5);
        plan.worker_crash_rate = 1.0;
        // Armed after connect_endpoint: the shared slot still applies.
        r.svc.arm_fault_plan(plan);
        let ids = r.svc.batch_submit(&specs(&r, 2));
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        for p in r.svc.batch_poll(&ids) {
            assert!(
                matches!(
                    p.status,
                    TaskStatus::Failed(XtractError::WorkerCrashed { .. })
                ),
                "got {:?}",
                p.status
            );
        }
        // Clearing the plan restores the fabric.
        r.svc.clear_faults();
        let ids2 = r.svc.batch_submit(&specs(&r, 2));
        assert!(r.svc.wait_all(&ids2, Duration::from_secs(5)));
        assert!(r
            .svc
            .batch_poll(&ids2)
            .iter()
            .all(|p| matches!(p.status, TaskStatus::Done(_))));
    }

    #[test]
    fn polling_unknown_ids_reports_unknown() {
        // Regression: unknown ids were reported `Pending`, so a poller
        // holding a never-submitted id could spin forever.
        let r = rig(1);
        let polled = r.svc.batch_poll(&[TaskId::new(12345)]);
        assert_eq!(polled[0].status, TaskStatus::Unknown);
        assert!(polled[0].status.is_terminal());
    }

    #[test]
    fn waiting_on_unknown_ids_returns_promptly() {
        // A wait over ids the service has never seen must not burn its
        // whole timeout: unknown is terminal.
        let r = rig(1);
        let mut ids = r.svc.batch_submit(&specs(&r, 2));
        ids.push(TaskId::new(99_999));
        let started = std::time::Instant::now();
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "wait_all spun on an unknown id"
        );
    }

    #[test]
    fn wait_all_still_times_out_on_stuck_tasks() {
        // Backoff waiting must preserve wait_all's timeout semantics: a
        // task that never terminates still forces a `false` return close
        // to the deadline.
        let r = rig(1);
        let registry = r.svc.registry();
        let c = registry.register_container("stall:1", ContainerRuntime::Docker, 0);
        let stall: FunctionBody = Arc::new(|v| {
            std::thread::sleep(Duration::from_millis(300));
            Ok(v)
        });
        let f = registry
            .register_function("stall", c, &[r.ep], stall)
            .unwrap();
        let ids = r.svc.batch_submit(&[TaskSpec {
            function: f,
            endpoint: r.ep,
            payload: json!(null),
        }]);
        let started = std::time::Instant::now();
        assert!(!r.svc.wait_all(&ids, Duration::from_millis(50)));
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(50));
        assert!(waited < Duration::from_millis(250), "overslept: {waited:?}");
        // And once the task lands, the same ids wait to completion.
        assert!(r.svc.wait_all(&ids, Duration::from_secs(5)));
    }

    #[test]
    fn obs_backed_service_journals_batches_and_cold_starts() {
        let registry = Arc::new(FunctionRegistry::new());
        let ep = EndpointId::new(3);
        registry.declare_endpoint(ep, ContainerRuntime::Docker);
        let c = registry.register_container("kw:1", ContainerRuntime::Docker, 0);
        let body: FunctionBody = Arc::new(Ok);
        let f = registry.register_function("kw", c, &[ep], body).unwrap();
        let obs = xtract_obs::Obs::new();
        let svc = FaasService::with_obs(registry, obs.clone());
        svc.connect_endpoint(EndpointConfig::instant(ep, 2));
        let ids = svc.batch_submit(&[TaskSpec {
            function: f,
            endpoint: ep,
            payload: json!(1),
        }]);
        assert!(svc.wait_all(&ids, Duration::from_secs(5)));
        svc.batch_poll(&ids);
        // Stats intern in the shared hub...
        assert_eq!(obs.hub.counter_value("faas.tasks_submitted", None), 1);
        assert!(obs.hub.counter_value("faas.ws_requests", None) >= 2);
        assert_eq!(obs.hub.gauge_value("faas.tasks_tracked", None), 1);
        svc.forget(&ids);
        assert_eq!(obs.hub.gauge_value("faas.tasks_tracked", None), 0);
        assert_eq!(obs.hub.counter_value("faas.tasks_forgotten", None), 1);
        let ep_label = ep.to_string();
        assert_eq!(
            obs.hub.counter_value("endpoint.executed", Some(&ep_label)),
            1
        );
        // ...and the journal saw the submit, the cold start, and the poll.
        let events = obs.journal.events();
        let has = |pred: &dyn Fn(&xtract_obs::Event) -> bool| events.iter().any(|r| pred(&r.event));
        assert!(has(&|e| matches!(
            e,
            xtract_obs::Event::BatchSubmitted { tasks: 1 }
        )));
        assert!(has(
            &|e| matches!(e, xtract_obs::Event::ColdStart { endpoint, .. } if *endpoint == ep)
        ));
        assert!(has(&|e| matches!(
            e,
            xtract_obs::Event::BatchPolled {
                tasks: 1,
                terminal: 1
            }
        )));
    }

    #[test]
    fn obs_backed_poll_journals_unknown_task() {
        let registry = Arc::new(FunctionRegistry::new());
        let obs = xtract_obs::Obs::new();
        let svc = FaasService::with_obs(registry, obs.clone());
        let ghost = TaskId::new(777);
        let polled = svc.batch_poll(&[ghost]);
        assert_eq!(polled[0].status, TaskStatus::Unknown);
        assert!(obs
            .journal
            .events()
            .iter()
            .any(|r| matches!(r.event, xtract_obs::Event::UnknownTask { task } if task == ghost)));
    }
}
