//! A compute endpoint: real worker threads, warm-container caches, and
//! allocation expiry.
//!
//! §3: "The compute layer is tasked with allocating compute resources
//! (e.g., local cores, HPC nodes, or cloud instances), invoking the
//! metadata extractors on the files, and sending results back to the
//! Xtract service."
//!
//! Each worker thread keeps **one warm container**: executing a task whose
//! function needs a different container pays the cold-start cost
//! ([`EndpointConfig::cold_start`]; §5.8.2 measured ≈70 s in production —
//! tests scale it down to microseconds, the *accounting* is what matters).
//! When the endpoint's allocation expires (§5.8.1), queued and running
//! tasks are marked [`TaskStatus::Lost`] for the orchestrator's heartbeat
//! logic to resubmit.

use crate::task::{TaskOutput, TaskStatus};
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract_obs::{Counter, Event, MetricsHub, Obs};
use xtract_types::{ContainerId, EndpointId, FaultPlan, TaskId, XtractError};

/// A fault plan shared between the service and every worker thread; `None`
/// injects nothing.
pub(crate) type SharedFaultPlan = Arc<RwLock<Option<FaultPlan>>>;

use crate::task::FunctionBody;

/// Endpoint configuration.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// The endpoint this compute layer belongs to.
    pub endpoint: EndpointId,
    /// Worker (container slot) count.
    pub workers: usize,
    /// Wall-clock cost of starting a container that is not warm on the
    /// worker. Production: ~70 s (§5.8.2). Tests: microseconds.
    pub cold_start: Duration,
    /// Per-task dispatch overhead at the endpoint (unpacking, routing).
    pub dispatch_delay: Duration,
}

impl EndpointConfig {
    /// A test-friendly config: `workers` workers, zero simulated latency.
    pub fn instant(endpoint: EndpointId, workers: usize) -> Self {
        Self {
            endpoint,
            workers,
            cold_start: Duration::ZERO,
            dispatch_delay: Duration::ZERO,
        }
    }
}

/// One unit of work routed to a worker.
pub(crate) struct WorkItem {
    pub task: TaskId,
    pub container: ContainerId,
    pub body: FunctionBody,
    pub payload: serde_json::Value,
}

/// Counters shared between workers and observers. With a hub they intern
/// as `endpoint.*` labeled by endpoint id, so one snapshot covers the
/// whole federation.
#[derive(Debug, Default, Clone)]
pub struct EndpointCounters {
    /// Tasks that found their container warm.
    pub warm_hits: Counter,
    /// Tasks that paid a cold start.
    pub cold_starts: Counter,
    /// Tasks fully executed (any terminal state except Lost).
    pub executed: Counter,
    /// Wall time spent inside function bodies, microseconds, whatever the
    /// task's terminal state: a worker's busy share is this over its
    /// uptime, the rest is waiting for work.
    pub busy_us: Counter,
    /// Tasks marked lost due to allocation expiry.
    pub lost: Counter,
    /// Tasks whose worker crashed mid-execution (fault injection).
    pub crashed: Counter,
    /// Tasks dropped or discarded by cancellation (hedge losers).
    pub cancelled: Counter,
}

impl EndpointCounters {
    /// Counters interned in `hub` under `endpoint.*`, labeled by
    /// `endpoint`'s display form.
    pub fn in_hub(hub: &MetricsHub, endpoint: EndpointId) -> Self {
        let label = Some(endpoint.to_string());
        let label = label.as_deref();
        Self {
            warm_hits: hub.counter_with("endpoint.warm_hits", label),
            cold_starts: hub.counter_with("endpoint.cold_starts", label),
            executed: hub.counter_with("endpoint.executed", label),
            busy_us: hub.counter_with("endpoint.busy_us", label),
            lost: hub.counter_with("endpoint.lost", label),
            crashed: hub.counter_with("endpoint.crashed", label),
            cancelled: hub.counter_with("endpoint.cancelled", label),
        }
    }
}

/// The live compute layer of one endpoint.
pub struct ComputeEndpoint {
    config: EndpointConfig,
    tx: Option<Sender<WorkItem>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    expired: Arc<AtomicBool>,
    counters: Arc<EndpointCounters>,
    statuses: Arc<RwLock<HashMap<TaskId, TaskStatus>>>,
    cancelled: Arc<RwLock<HashSet<TaskId>>>,
}

impl ComputeEndpoint {
    /// Starts the worker pool. `statuses` is the service-owned task table
    /// that workers write terminal states into.
    pub fn start(
        config: EndpointConfig,
        statuses: Arc<RwLock<HashMap<TaskId, TaskStatus>>>,
    ) -> Self {
        Self::start_with_obs(config, statuses, Arc::new(RwLock::new(None)), None)
    }

    /// [`Self::start`] with a shared fault plan the workers consult —
    /// worker crashes mid-task and heartbeat loss after execution.
    pub(crate) fn start_with_faults(
        config: EndpointConfig,
        statuses: Arc<RwLock<HashMap<TaskId, TaskStatus>>>,
        faults: SharedFaultPlan,
    ) -> Self {
        Self::start_with_obs(config, statuses, faults, None)
    }

    /// [`Self::start_with_faults`] plus observability: counters intern in
    /// the hub (labeled by endpoint) and workers journal cold starts.
    pub(crate) fn start_with_obs(
        config: EndpointConfig,
        statuses: Arc<RwLock<HashMap<TaskId, TaskStatus>>>,
        faults: SharedFaultPlan,
        obs: Option<Obs>,
    ) -> Self {
        assert!(config.workers > 0, "endpoint needs at least one worker");
        let (tx, rx) = unbounded::<WorkItem>();
        let expired = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(match &obs {
            Some(obs) => EndpointCounters::in_hub(&obs.hub, config.endpoint),
            None => EndpointCounters::default(),
        });
        let cancelled = Arc::new(RwLock::new(HashSet::new()));
        let handles = (0..config.workers)
            .map(|_| {
                let rx: Receiver<WorkItem> = rx.clone();
                let ctx = WorkerCtx {
                    statuses: statuses.clone(),
                    expired: expired.clone(),
                    counters: counters.clone(),
                    cfg: config.clone(),
                    faults: faults.clone(),
                    obs: obs.clone(),
                    cancelled: cancelled.clone(),
                };
                std::thread::spawn(move || worker_loop(&rx, &ctx))
            })
            .collect();
        Self {
            config,
            tx: Some(tx),
            handles,
            expired,
            counters,
            statuses,
            cancelled,
        }
    }

    /// The endpoint id.
    pub fn id(&self) -> EndpointId {
        self.config.endpoint
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Enqueues a task, creating its `Pending` row in the status table —
    /// the only row a task ever gets: workers update it in place (see
    /// [`set_status`]). Returns an error immediately if the allocation has
    /// expired (the task would only be marked lost anyway).
    pub(crate) fn enqueue(&self, item: WorkItem) -> Result<(), XtractError> {
        if self.expired.load(Ordering::Acquire) {
            self.statuses.write().insert(item.task, TaskStatus::Lost);
            self.counters.lost.incr();
            return Err(XtractError::TaskLost { task: item.task });
        }
        self.statuses.write().insert(item.task, TaskStatus::Pending);
        self.tx
            .as_ref()
            .expect("endpoint running")
            .send(item)
            .map_err(|e| XtractError::TaskLost {
                task: e.into_inner().task,
            })
    }

    /// Expires the allocation: queued and in-flight tasks become
    /// [`TaskStatus::Lost`] (§5.8.1). Worker threads stay alive so the
    /// allocation can be renewed.
    pub fn expire_allocation(&self) {
        self.expired.store(true, Ordering::Release);
    }

    /// Grants a fresh allocation after an expiry.
    pub fn renew_allocation(&self) {
        self.expired.store(false, Ordering::Release);
    }

    /// Flags a task for cancellation. A task still queued is dropped at
    /// dequeue; a task already running has its result discarded when the
    /// worker checks the flag at completion (best-effort — a result that
    /// lands first stays). Either way the flag is consumed, so ids never
    /// accumulate for tasks the workers will still see.
    pub fn cancel(&self, task: TaskId) {
        self.cancelled.write().insert(task);
    }

    /// True while the allocation is expired.
    pub fn is_expired(&self) -> bool {
        self.expired.load(Ordering::Acquire)
    }

    /// Shared counters.
    pub fn counters(&self) -> &EndpointCounters {
        &self.counters
    }
}

impl Drop for ComputeEndpoint {
    fn drop(&mut self) {
        // Closing the channel lets workers drain and exit.
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Everything a worker thread shares with its endpoint.
struct WorkerCtx {
    statuses: Arc<RwLock<HashMap<TaskId, TaskStatus>>>,
    expired: Arc<AtomicBool>,
    counters: Arc<EndpointCounters>,
    cfg: EndpointConfig,
    faults: SharedFaultPlan,
    obs: Option<Obs>,
    cancelled: Arc<RwLock<HashSet<TaskId>>>,
}

impl WorkerCtx {
    /// Consumes the task's cancel flag, if set.
    fn take_cancel(&self, task: TaskId) -> bool {
        self.cancelled.write().remove(&task)
    }
}

/// Moves a task's row to `status` — if the row still exists. A row the
/// owner has dropped ([`crate::FaasService::forget`]) stays dropped: the
/// late write of a worker still running a forgotten task (a cancelled hedge
/// loser, a straggler abandoned at poll-window expiry) lands nowhere, so a
/// forgotten id polls as `Unknown` from then on and its result is freed
/// here instead of parked in the table.
fn set_status(statuses: &RwLock<HashMap<TaskId, TaskStatus>>, task: TaskId, status: TaskStatus) {
    if let Some(row) = statuses.write().get_mut(&task) {
        *row = status;
    }
}

fn worker_loop(rx: &Receiver<WorkItem>, ctx: &WorkerCtx) {
    let WorkerCtx {
        statuses,
        expired,
        counters,
        cfg,
        faults,
        obs,
        ..
    } = ctx;
    // The container this worker currently has warm.
    let mut warm: Option<ContainerId> = None;
    while let Ok(item) = rx.recv() {
        let WorkItem {
            task,
            container,
            body,
            payload,
        } = item;
        if expired.load(Ordering::Acquire) {
            set_status(statuses, task, TaskStatus::Lost);
            counters.lost.incr();
            continue;
        }
        // A task cancelled while queued is dropped without running.
        if ctx.take_cancel(task) {
            set_status(statuses, task, TaskStatus::Cancelled);
            counters.cancelled.incr();
            continue;
        }
        set_status(statuses, task, TaskStatus::Running);
        if !cfg.dispatch_delay.is_zero() {
            std::thread::sleep(cfg.dispatch_delay);
        }
        let was_warm = warm == Some(container);
        if was_warm {
            counters.warm_hits.incr();
        } else {
            counters.cold_starts.incr();
            if let Some(obs) = obs {
                obs.journal.record(Event::ColdStart {
                    endpoint: cfg.endpoint,
                    container: container.raw(),
                });
            }
            if !cfg.cold_start.is_zero() {
                std::thread::sleep(cfg.cold_start);
            }
            warm = Some(container);
        }
        // Decisions key on the task id: a resubmitted task gets a fresh id
        // and therefore a fresh roll, so injected crashes stay transient.
        let plan = faults.read().clone();
        if plan.as_ref().is_some_and(|p| p.worker_crashes(task.raw())) {
            // The container died mid-task: the next task pays a cold start.
            warm = None;
            counters.crashed.incr();
            set_status(
                statuses,
                task,
                TaskStatus::Failed(XtractError::WorkerCrashed { task }),
            );
            continue;
        }
        // A degraded link between this worker and its storage stalls the
        // read: the task still completes, just late — exactly the
        // straggler the hedging layer defends against. Reuses the
        // transfer substrate's `slow_link_rate` knob, rolled
        // independently per task id (a hedge resubmission gets a fresh
        // id and therefore a fresh roll).
        if let Some(p) = plan.as_ref() {
            if p.slow_link_delay_ms > 0
                && p.link_degraded(&format!("/worker-read/{}", task.raw()), 0)
            {
                std::thread::sleep(Duration::from_millis(p.slow_link_delay_ms));
            }
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(move || body(payload)));
        counters.busy_us.add(started.elapsed().as_micros() as u64);
        // If the allocation expired while we were running, the result never
        // makes it back (§5.8.1) — the family must be resubmitted. An
        // injected heartbeat loss drops the result the same way.
        let heartbeat_lost = plan.as_ref().is_some_and(|p| p.heartbeat_lost(task.raw()));
        let status = if expired.load(Ordering::Acquire) || heartbeat_lost {
            counters.lost.incr();
            TaskStatus::Lost
        } else if ctx.take_cancel(task) {
            // Cancelled mid-run: the body's result is discarded (the hedge
            // race was decided the other way). Unlike Lost, the owner must
            // not resubmit.
            counters.cancelled.incr();
            TaskStatus::Cancelled
        } else {
            counters.executed.incr();
            match outcome {
                Ok(Ok(value)) => TaskStatus::Done(TaskOutput {
                    value: Arc::new(value),
                    container,
                    warm_start: was_warm,
                }),
                Ok(Err(e)) => TaskStatus::Failed(e),
                Err(_) => TaskStatus::Failed(XtractError::ExtractorFailed {
                    extractor: "<panicked>".to_string(),
                    path: String::new(),
                    reason: "function body panicked".to_string(),
                }),
            }
        };
        set_status(statuses, task, status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn statuses() -> Arc<RwLock<HashMap<TaskId, TaskStatus>>> {
        Arc::new(RwLock::new(HashMap::new()))
    }

    fn body_ok() -> FunctionBody {
        Arc::new(|v| Ok(json!({"echo": v})))
    }

    fn wait_terminal(statuses: &RwLock<HashMap<TaskId, TaskStatus>>, id: TaskId) -> TaskStatus {
        for _ in 0..2000 {
            if let Some(s) = statuses.read().get(&id) {
                if s.is_terminal() {
                    return s.clone();
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("task {id} never reached a terminal state");
    }

    #[test]
    fn executes_tasks_on_workers() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 4),
            table.clone(),
        );
        for i in 0..16 {
            ep.enqueue(WorkItem {
                task: TaskId::new(i),
                container: ContainerId::new(0),
                body: body_ok(),
                payload: json!(i),
            })
            .unwrap();
        }
        for i in 0..16 {
            match wait_terminal(&table, TaskId::new(i)) {
                TaskStatus::Done(out) => assert_eq!(*out.value, json!({"echo": i})),
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert_eq!(ep.counters().executed.get(), 16);
    }

    #[test]
    fn body_wall_time_is_counted_as_busy() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 4),
            table.clone(),
        );
        for i in 0..16 {
            ep.enqueue(WorkItem {
                task: TaskId::new(i),
                container: ContainerId::new(0),
                body: Arc::new(|v| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(v)
                }),
                payload: json!(i),
            })
            .unwrap();
        }
        for i in 0..16 {
            assert!(matches!(
                wait_terminal(&table, TaskId::new(i)),
                TaskStatus::Done(_)
            ));
        }
        assert_eq!(ep.counters().executed.get(), 16);
        assert!(ep.counters().busy_us.get() >= 32_000);
    }

    #[test]
    fn cold_and_warm_starts_are_counted() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
        );
        // Same container three times: 1 cold, 2 warm.
        for i in 0..3 {
            ep.enqueue(WorkItem {
                task: TaskId::new(i),
                container: ContainerId::new(7),
                body: body_ok(),
                payload: json!(null),
            })
            .unwrap();
        }
        // Different container: another cold start.
        ep.enqueue(WorkItem {
            task: TaskId::new(3),
            container: ContainerId::new(8),
            body: body_ok(),
            payload: json!(null),
        })
        .unwrap();
        for i in 0..4 {
            wait_terminal(&table, TaskId::new(i));
        }
        assert_eq!(ep.counters().cold_starts.get(), 2);
        assert_eq!(ep.counters().warm_hits.get(), 2);
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
        );
        let failing: FunctionBody = Arc::new(|_| {
            Err(XtractError::ExtractorFailed {
                extractor: "tabular".into(),
                path: "/bad.csv".into(),
                reason: "ragged rows".into(),
            })
        });
        ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: failing,
            payload: json!(null),
        })
        .unwrap();
        assert!(matches!(
            wait_terminal(&table, TaskId::new(0)),
            TaskStatus::Failed(XtractError::ExtractorFailed { .. })
        ));
        // The worker survives and runs the next task.
        ep.enqueue(WorkItem {
            task: TaskId::new(1),
            container: ContainerId::new(0),
            body: body_ok(),
            payload: json!(1),
        })
        .unwrap();
        assert!(matches!(
            wait_terminal(&table, TaskId::new(1)),
            TaskStatus::Done(_)
        ));
    }

    #[test]
    fn panicking_body_becomes_failed() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
        );
        let bomb: FunctionBody = Arc::new(|_| panic!("kaboom"));
        ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: bomb,
            payload: json!(null),
        })
        .unwrap();
        assert!(matches!(
            wait_terminal(&table, TaskId::new(0)),
            TaskStatus::Failed(XtractError::ExtractorFailed { .. })
        ));
    }

    #[test]
    fn expiry_loses_queued_tasks_and_renewal_recovers() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
        );
        ep.expire_allocation();
        assert!(ep.is_expired());
        let err = ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: body_ok(),
            payload: json!(null),
        });
        assert!(matches!(err, Err(XtractError::TaskLost { .. })));
        assert_eq!(table.read().get(&TaskId::new(0)), Some(&TaskStatus::Lost));
        ep.renew_allocation();
        ep.enqueue(WorkItem {
            task: TaskId::new(1),
            container: ContainerId::new(0),
            body: body_ok(),
            payload: json!(2),
        })
        .unwrap();
        assert!(matches!(
            wait_terminal(&table, TaskId::new(1)),
            TaskStatus::Done(_)
        ));
        assert_eq!(ep.counters().lost.get(), 1);
    }

    #[test]
    fn cancel_drops_queued_task_without_running_it() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
        );
        // Occupy the single worker so the second task sits queued.
        let slow: FunctionBody = Arc::new(|v| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(v)
        });
        ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: slow,
            payload: json!(null),
        })
        .unwrap();
        let bomb: FunctionBody = Arc::new(|_| panic!("cancelled task must never run"));
        ep.enqueue(WorkItem {
            task: TaskId::new(1),
            container: ContainerId::new(0),
            body: bomb,
            payload: json!(null),
        })
        .unwrap();
        ep.cancel(TaskId::new(1));
        assert_eq!(wait_terminal(&table, TaskId::new(1)), TaskStatus::Cancelled);
        assert!(matches!(
            wait_terminal(&table, TaskId::new(0)),
            TaskStatus::Done(_)
        ));
        assert_eq!(ep.counters().cancelled.get(), 1);
    }

    #[test]
    fn cancel_mid_run_discards_the_result() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
        );
        let slow: FunctionBody = Arc::new(|v| {
            std::thread::sleep(Duration::from_millis(100));
            Ok(v)
        });
        ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: slow,
            payload: json!(7),
        })
        .unwrap();
        // Wait for the worker to pick the task up, then cancel while the
        // body is still sleeping.
        for _ in 0..2000 {
            if table.read().get(&TaskId::new(0)) == Some(&TaskStatus::Running) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        ep.cancel(TaskId::new(0));
        assert_eq!(wait_terminal(&table, TaskId::new(0)), TaskStatus::Cancelled);
        assert_eq!(ep.counters().cancelled.get(), 1);
        assert_eq!(ep.counters().executed.get(), 0);
    }

    #[test]
    fn injected_worker_crash_fails_task_retryably() {
        let table = statuses();
        let mut plan = FaultPlan::new(3);
        plan.worker_crash_rate = 1.0;
        let faults: SharedFaultPlan = Arc::new(RwLock::new(Some(plan)));
        let ep = ComputeEndpoint::start_with_faults(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
            faults.clone(),
        );
        ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: body_ok(),
            payload: json!(null),
        })
        .unwrap();
        let status = wait_terminal(&table, TaskId::new(0));
        assert!(
            matches!(
                status,
                TaskStatus::Failed(XtractError::WorkerCrashed { .. })
            ),
            "got {status:?}"
        );
        assert_eq!(ep.counters().crashed.get(), 1);
        // Disarm the plan: the worker thread itself survived the "crash".
        *faults.write() = None;
        ep.enqueue(WorkItem {
            task: TaskId::new(1),
            container: ContainerId::new(0),
            body: body_ok(),
            payload: json!(1),
        })
        .unwrap();
        assert!(matches!(
            wait_terminal(&table, TaskId::new(1)),
            TaskStatus::Done(_)
        ));
    }

    #[test]
    fn injected_heartbeat_loss_reports_lost_after_execution() {
        let table = statuses();
        let mut plan = FaultPlan::new(4);
        plan.heartbeat_loss_rate = 1.0;
        let faults: SharedFaultPlan = Arc::new(RwLock::new(Some(plan)));
        let ep = ComputeEndpoint::start_with_faults(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
            faults,
        );
        ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: body_ok(),
            payload: json!(null),
        })
        .unwrap();
        assert_eq!(wait_terminal(&table, TaskId::new(0)), TaskStatus::Lost);
        // The body ran (the result was computed, then dropped in flight).
        assert_eq!(ep.counters().lost.get(), 1);
    }

    #[test]
    fn injected_slow_link_stalls_execution_but_completes() {
        let table = statuses();
        let mut plan = FaultPlan::new(5);
        plan.slow_link_rate = 1.0;
        plan.slow_link_delay_ms = 50;
        let faults: SharedFaultPlan = Arc::new(RwLock::new(Some(plan)));
        let ep = ComputeEndpoint::start_with_faults(
            EndpointConfig::instant(EndpointId::new(0), 1),
            table.clone(),
            faults,
        );
        let started = std::time::Instant::now();
        ep.enqueue(WorkItem {
            task: TaskId::new(0),
            container: ContainerId::new(0),
            body: body_ok(),
            payload: json!(1),
        })
        .unwrap();
        // Slow is not broken: the task still finishes — late.
        let status = wait_terminal(&table, TaskId::new(0));
        assert!(matches!(status, TaskStatus::Done(_)), "got {status:?}");
        assert!(started.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn drop_joins_cleanly_with_pending_work() {
        let table = statuses();
        let ep = ComputeEndpoint::start(
            EndpointConfig::instant(EndpointId::new(0), 2),
            table.clone(),
        );
        for i in 0..64 {
            ep.enqueue(WorkItem {
                task: TaskId::new(i),
                container: ContainerId::new(0),
                body: body_ok(),
                payload: json!(i),
            })
            .unwrap();
        }
        drop(ep); // joins workers; all queued work drains first
        let table = table.read();
        assert!(table.values().all(TaskStatus::is_terminal));
        assert_eq!(table.len(), 64);
    }
}
