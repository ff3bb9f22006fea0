//! The wave engine: stages 4-7 of a job as one state struct and a fixed
//! sequence of named stages (§3's flow after the crawl; §4.3.2 batching,
//! §5.6 overlap, §5.8.1 restart).
//!
//! [`XtractService::run_job_inner`] builds a [`WaveEngine`], spawns the
//! staging pool inside its `thread::scope`, admits the plan, and calls the
//! stages in this order until [`WaveEngine::await_work`] says the job is
//! drained:
//!
//! `absorb_staged` → `shard_boundary` → `reroute` → `batch` →
//! (`await_work`) → `dispatch` → `poll` → `fold` → `tune` → `commit` →
//! `ingest`; then `finish`.
//!
//! Everything a stage reads or writes between waves is a field of the
//! engine; what lives for one wave travels in a [`Wave`]. Each stage's doc
//! names the WAL records and journal events it emits; DESIGN.md "Wave
//! engine" has the same table in one place.
#![warn(clippy::too_many_lines)]

use crate::adaptive::{AdaptiveTuner, BatchLimits, TuneDecision, WaveEvidence};
use crate::batcher::{Batcher, FuncxBatch, XtractBatch};
use crate::offload::{Offloader, Placement};
use crate::payload::{decode_owned, encode_batch, FamilyResult};
use crate::planner::ExtractionPlan;
use crate::recovery::{MigratedStep, RecoveryLog, RecoveryRecord};
use crate::resilience::{BreakerState, HealthTracker, RetryLedger};
use crate::service::{JobReport, RecoveryCtx, Replayed, XtractService};
use crate::shard::{IdleVerdict, Migrant, ShardLink};
use crate::staging::{stage_salt_base, StageOutcome, StageRequest};
use crate::tenancy::TenantCtx;
use crate::validator::validate_and_encode;
use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract_datafabric::{Scope, Token};
use xtract_faas::{LeaseWatchdog, TaskSpec, TaskStatus};
use xtract_index::SearchIndex;
use xtract_obs::{Counter, Event, Histogram, Phase, SpanUnion};
use xtract_types::{
    CrashPoint, DeadLetter, EndpointId, EndpointSpec, ExtractorKind, FailureEvent, FailureReason,
    Family, FamilyId, FileRecord, HedgePolicy, JobSpec, Metadata, MetadataRecord,
    OrchestratorCrash, QuotaResource, Result, RetryPolicy, TaskId, XtractError,
};

/// Everything `run_job_inner` borrows from its caller: who runs the job,
/// for whom, against which log and shard. `Copy`, so a stage lifts a
/// reference out of it without borrowing the engine.
#[derive(Clone, Copy)]
pub(crate) struct JobLink<'a> {
    pub(crate) service: &'a XtractService,
    pub(crate) token: Token,
    pub(crate) spec: &'a JobSpec,
    pub(crate) rec: Option<&'a RecoveryCtx>,
    pub(crate) tenant: Option<&'a Arc<TenantCtx>>,
    pub(crate) shard: Option<&'a dyn ShardLink>,
}

impl JobLink<'_> {
    /// A connected compute endpoint other than `current` whose breaker
    /// admits work, if any (the graceful-degradation and hedge target).
    /// Endpoints whose decaying straggler score sits in quarantine are
    /// deprioritized: the first non-quarantined candidate wins, and a
    /// quarantined one is offered only when nothing cleaner exists
    /// (`min_by_key` keeps the first of equals).
    fn healthy_alternative(
        &self,
        current: EndpointId,
        health: &HealthTracker,
    ) -> Option<EndpointId> {
        self.spec
            .endpoints
            .iter()
            .filter(|e| e.has_compute() && e.endpoint != current)
            .map(|e| e.endpoint)
            .filter(|&ep| health.available(ep) && self.service.faas.endpoint(ep).is_some())
            .min_by_key(|&ep| health.quarantined(ep))
    }
}

struct ActiveFamily {
    family: Family,
    plan: ExtractionPlan,
    /// Every completed step, in completion order — the only in-memory
    /// record of a finished step: replayed and carried steps land here by
    /// value, snapshots restate it, a donation moves it out with the
    /// family, and the family's document is the fold of its metadata
    /// ([`fold_steps`]), built where it is consumed.
    steps: Vec<MigratedStep>,
    exec: EndpointId,
    attempts: HashMap<ExtractorKind, u32>,
    failed: Option<FailureReason>,
    timeline: Vec<FailureEvent>,
    /// The family's file records before any staging rewrite, kept so a
    /// reroute can re-stage the bytes from their true home.
    origin_files: Vec<FileRecord>,
    /// Where those records live.
    origin_source: EndpointId,
    /// True while a staging request for this family is in flight on the
    /// pool; the wave loop skips the family until its outcome lands.
    staging: bool,
    /// Every `(endpoint, base_path)` the family was ever staged under —
    /// not just the current one, so cleanup after a reroute also removes
    /// the copies abandoned on the endpoint that went dark.
    staged_sites: Vec<(EndpointId, String)>,
    /// 0 for the initial staging pass, bumped per breaker-reroute
    /// restage; also decorrelates fault salts across generations.
    stage_generation: u32,
    /// Extractor steps that consumed their one free deadline extension:
    /// a merely-slow (not provably lost) straggler at poll-window expiry
    /// is resubmitted once without charging the retry budget; the second
    /// overrun charges like any other loss.
    extended: HashSet<ExtractorKind>,
    /// The family was donated to another shard: its out-record is
    /// durable and the recipient owns it. The wave loop treats it as
    /// terminal-here — never dispatched, dead-lettered, or shipped.
    migrated: bool,
}

impl ActiveFamily {
    /// Still owed work by this run: not dead-lettered, not donated, plan
    /// not done. What a heartbeat counts and what keeps the loop alive.
    fn is_pending(&self) -> bool {
        self.failed.is_none() && !self.migrated && !self.plan.is_done()
    }

    /// Pending with its bytes in place: may be batched, rerouted or
    /// donated this wave. A family with a staging pass in flight sits the
    /// wave out; its outcome folds in at the top of a later one.
    fn is_dispatchable(&self) -> bool {
        self.is_pending() && !self.staging
    }

    /// The family now runs at `exec`; the move joins its history.
    fn move_to(&mut self, exec: EndpointId, wave: u64) {
        let old = std::mem::replace(&mut self.exec, exec);
        self.note(wave, exec, format!("rerouted from {old} to {exec}"));
    }

    /// Appends one event to the history the family's dead letter ships.
    fn note(&mut self, wave: u64, endpoint: EndpointId, note: String) {
        self.timeline.push(FailureEvent {
            wave,
            endpoint,
            note,
        });
    }
}

/// The folded document of a family: its steps' metadata deep-merged in
/// completion order (objects merge recursively, any other value of a later
/// step wins). The first step is taken over rather than copied when this is
/// the last handle to it, so a single-step family's decoded result *is*
/// its document.
fn fold_steps(steps: impl IntoIterator<Item = Arc<Metadata>>) -> Metadata {
    let mut steps = steps.into_iter();
    let Some(first) = steps.next() else {
        return Metadata::new();
    };
    let mut document = Arc::unwrap_or_clone(first);
    for step in steps {
        document.merge(&step);
    }
    document
}

/// The provenance list of a family: the extractors behind its steps, in
/// completion order.
fn extractors_of(steps: &[MigratedStep]) -> Vec<String> {
    steps.iter().map(|s| s.kind.name().to_string()).collect()
}

/// A family's merged-so-far document as the serving index holds it between
/// waves, under schema `"live"` (validation replaces it with the final
/// record).
fn live_record(family: FamilyId, steps: &[MigratedStep]) -> MetadataRecord {
    MetadataRecord {
        family,
        schema: "live".to_string(),
        document: fold_steps(steps.iter().map(|s| Arc::clone(&s.metadata))),
        extractors: extractors_of(steps),
    }
}

/// What the wave loop keeps of a settled task: the decoded results of a
/// `Done` — never the output itself — or why there are none.
enum Resolution {
    /// The function returned; its result list, decoded when it settled.
    Done(Result<Vec<FamilyResult>>),
    Failed(XtractError),
    Lost,
    Cancelled,
    Unknown,
    /// Still `Pending`/`Running` when the poll window closed.
    Slow,
}

impl Resolution {
    /// Takes a polled status apart. A `Done` output is decoded by value:
    /// the caller has made the fabric forget the task, so this is the last
    /// handle and the worker's allocation moves into the results.
    fn of(status: TaskStatus) -> Self {
        match status {
            TaskStatus::Done(out) => Self::Done(decode_owned(Arc::unwrap_or_clone(out.value))),
            TaskStatus::Failed(e) => Self::Failed(e),
            TaskStatus::Lost => Self::Lost,
            TaskStatus::Cancelled => Self::Cancelled,
            TaskStatus::Unknown => Self::Unknown,
            TaskStatus::Pending | TaskStatus::Running => Self::Slow,
        }
    }
}

/// One submitted funcX task in the current wave, plus its speculative
/// hedge (if any) and its resolution. The first *productive* terminal
/// status (`Done`/`Failed`) between primary and hedge wins; the loser is
/// cancelled, so only the winner's output is ever decoded — metadata,
/// completed steps, and invocation counts can never double-count a
/// `(family, extractor)` pair.
struct WaveEntry {
    id: TaskId,
    fams: Vec<FamilyId>,
    /// The original Xtract batch (extractor, home endpoint, families),
    /// kept so a hedge can re-encode the same payload for a different
    /// endpoint.
    batch: XtractBatch,
    /// The speculative duplicate: `(task, endpoint)`.
    hedge: Option<(TaskId, EndpointId)>,
    /// How the entry settled and the endpoint that settled it.
    resolved: Option<(Resolution, EndpointId)>,
    /// The deadline breach already scored this entry's endpoint (breach
    /// accounting and hedge launch are one-shot per entry).
    breached: bool,
}

/// One wave's scratch, handed from stage to stage and dropped when the
/// wave ends.
pub(crate) struct Wave {
    /// When the phase the wave is in began: Dispatch from `batch` until
    /// `dispatch` has submitted, Extract from there until `ingest`.
    started: Instant,
    /// The wave's funcX requests, from `batch` until `dispatch` submits
    /// them.
    batches: Vec<FuncxBatch>,
    /// Adaptive mode: the largest tuned poll chunk among the endpoints
    /// batched this wave. `None` polls everything in one request.
    poll_chunk: Option<usize>,
    /// Where each batched family sits in the `active` table.
    index: HashMap<FamilyId, usize>,
    entries: Vec<WaveEntry>,
    /// Steps completed during this wave; journaled in one group commit at
    /// the wave boundary.
    flushes: Vec<RecoveryRecord>,
    /// Families whose merged document grew this wave; ingested into the
    /// serving index after the commit.
    touched: HashSet<FamilyId>,
    /// Per-endpoint completion latencies this wave — the adaptive
    /// controller's evidence. Untouched (and empty) when the policy is
    /// disabled.
    lat: BTreeMap<EndpointId, Vec<f64>>,
}

/// The run's armed scheduled-crash entry, if any: entry `k` of
/// [`xtract_types::FaultPlan::orchestrator_crashes`] arms once `k` crashes
/// are already in the log, and fires at its `at_occurrence`-th pass of its
/// point (occurrences counted from the start of this run segment).
#[derive(Default)]
struct CrashSchedule {
    armed: Option<OrchestratorCrash>,
    seen: u64,
}

impl CrashSchedule {
    /// Reports a pass of `point`; true when the armed kill fires here.
    fn hit(&mut self, point: CrashPoint) -> bool {
        match self.armed {
            Some(c) if c.point == point => {
                self.seen += 1;
                self.seen >= c.at_occurrence
            }
            _ => false,
        }
    }
}

/// WAL bookkeeping (all idle when the job runs without a log). What the
/// log replayed seeds it, by move: this run is its only reader. Finished
/// steps have no table here: each family's own `steps` is the record
/// snapshots restate and hand-offs carry.
#[derive(Default)]
struct WalBook {
    /// Charges already journaled per family (wave commits journal the
    /// delta).
    charges: HashMap<FamilyId, u32>,
    /// Dead letters journaled per family (latest wins).
    dead: HashMap<FamilyId, DeadLetter>,
    /// The crash points already recorded, restated by snapshots.
    crashes: Vec<String>,
    /// The armed kill, if the fault plan schedules one for this run
    /// segment.
    crash: CrashSchedule,
    /// Migration records journaled *this run segment* (sharded runs
    /// only). Snapshots restate them after the families' steps, so
    /// compaction preserves mid-run ownership changes: an adopted family
    /// survives pruning, a donated one stays gone and its out-record keeps
    /// its steps. Replayed migrations need no restating — the replayed
    /// plan and step lists already reflect them.
    migrations: Vec<RecoveryRecord>,
    /// The plan, retained for snapshot restatement during log compaction.
    planned_families: Vec<Family>,
}

/// Bucket bounds (seconds) for the completion-latency histogram the
/// adaptive deadline derives from.
const LATENCY_BOUNDS_S: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
];

/// The metric handles the wave loop updates, interned once per job.
struct Counters {
    index_ingested: Counter,
    index_replayed: Counter,
    index_waves: Counter,
    /// A result folded into a family by this run — never a replayed or
    /// carried step, which the run that journaled it already counted.
    steps_completed: Counter,
    /// Straggler-defense instrumentation: the completion-latency
    /// histogram the adaptive deadline derives from, and the hedge
    /// lifecycle counters (`launched == won + wasted` at job end).
    latency: Histogram,
    hedge_launched: Counter,
    hedge_won: Counter,
    hedge_wasted: Counter,
    tune_grow: Counter,
    tune_backoff: Counter,
    /// `task.latency_s{endpoint}`, interned the first wave an endpoint
    /// gives the tuner evidence.
    endpoint_latency: HashMap<EndpointId, Histogram>,
}

/// The engine's side of the staging pool: a bounded set of workers
/// prefetching families via the `Arc`-shared transfer service, streaming
/// outcomes back into the wave loop. Restages after breaker reroutes ride
/// the same channel.
struct StagingPool {
    req_tx: Sender<StageRequest>,
    out_rx: Receiver<StageOutcome>,
    /// The workers' ends, held until [`WaveEngine::spawn_pool`] hands
    /// them over.
    worker_ends: Option<(Receiver<StageRequest>, Sender<StageOutcome>)>,
    /// Staging requests in flight on the pool; the wave loop may not end
    /// while any remain.
    inflight: usize,
    /// Overlap-aware Stage accounting: every staging pass contributes its
    /// [start, finish] span; the union (never the sum) of the pool's
    /// concurrent spans is the phase's wall-clock coverage.
    spans: SpanUnion,
}

/// Latency quantile the adaptive deadline derives from (p95).
const DEADLINE_QUANTILE: f64 = 0.95;
/// Deadline = quantile latency × this multiplier.
const DEADLINE_MULTIPLIER: f64 = 3.0;

/// The wave's adaptive per-task deadline: the observed completion-latency
/// quantile times the multiplier, clamped to the policy floor and
/// ceiling (and never past the hard poll window). Falls back to the
/// ceiling until enough samples accumulate, and to the flat poll window
/// when the straggler defense is disabled.
fn adaptive_deadline(latency: &Histogram, hedge: &HedgePolicy, retry: &RetryPolicy) -> Duration {
    if !hedge.enabled {
        return Duration::from_millis(retry.poll_window_ms);
    }
    let ceiling = hedge.deadline_ceiling_ms.min(retry.poll_window_ms).max(1);
    if latency.count() >= hedge.min_latency_samples {
        if let Some(q) = latency.quantile(DEADLINE_QUANTILE) {
            let ms = (q * 1000.0 * DEADLINE_MULTIPLIER).ceil() as u64;
            return Duration::from_millis(ms.max(hedge.deadline_floor_ms).min(ceiling));
        }
    }
    Duration::from_millis(ceiling)
}

/// A job's state between waves, and the stages that advance it.
pub(crate) struct WaveEngine<'a> {
    job: JobLink<'a>,
    started: Instant,
    // Stage 4's inputs.
    primary: EndpointId,
    offloader: Offloader,
    by_endpoint: HashMap<EndpointId, &'a EndpointSpec>,
    active: Vec<ActiveFamily>,
    report: JobReport,
    /// A tenant-owned job shares its tenant's health tracker, so breaker
    /// and quarantine evidence accumulates across all of the tenant's
    /// jobs; a bare job gets a private one.
    health: Arc<Mutex<HealthTracker>>,
    /// Staging-pool workers and the wave loop share the ledger.
    ledger: &'a Mutex<RetryLedger>,
    /// Adaptive two-level batching: a per-endpoint AIMD controller
    /// retunes (xtract, funcx, poll_chunk) from each wave's latency
    /// evidence. On resume it warm-starts from the count of replayed
    /// committed waves — its state is recomputed from the journal, never
    /// persisted.
    tuner: AdaptiveTuner,
    /// Limits last journaled per endpoint, so `BatchTuned` is recorded
    /// only when a wave actually runs under different limits.
    last_tuned: HashMap<EndpointId, BatchLimits>,
    book: WalBook,
    /// Live serving-index ingest (opt-in): touched families flow into the
    /// sharded index as each wave commits, and validation replaces their
    /// live records with the final ones.
    serving: Option<Arc<SearchIndex>>,
    counters: Counters,
    pool: StagingPool,
    /// The allocation lease watchdog: notices lapsed leases in the
    /// background (flipping in-flight tasks to Lost immediately rather
    /// than after a poll window) and renews them after the policy
    /// cooldown. Held for the job's duration; dropping it stops the
    /// thread.
    _watchdog: Option<LeaseWatchdog>,
}

impl<'a> WaveEngine<'a> {
    /// The engine of one job, over what its log replayed: the book takes
    /// the replayed charges, dead letters and crash points; the plan and
    /// the steps stay with the caller for [`Self::plan`] and
    /// [`Self::admit_plan`]. A resumed job with a serving index
    /// re-converges it here (journal: `IndexReplayed`).
    pub(crate) fn new(
        job: JobLink<'a>,
        ledger: &'a Mutex<RetryLedger>,
        replayed: &mut Replayed,
    ) -> Result<Self> {
        let started = Instant::now();
        let (service, spec) = (job.service, job.spec);
        let journal = &service.obs.journal;
        let health = match job.tenant {
            Some(t) => t.health(&spec.retry, &spec.hedge),
            None => Arc::new(Mutex::new(
                HealthTracker::with_journal(&spec.retry, journal.clone())
                    .with_quarantine(&spec.hedge),
            )),
        };
        let serving = spec
            .index
            .enabled
            .then(|| service.serving_index(spec.index.shards));
        let hub = &service.obs.hub;
        let counters = Counters {
            index_ingested: hub.counter("index.ingested"),
            index_replayed: hub.counter("index.replayed"),
            index_waves: hub.counter("index.waves"),
            steps_completed: hub.counter("steps.completed"),
            latency: hub.histogram("task.latency_s", LATENCY_BOUNDS_S),
            hedge_launched: hub.counter("hedge.launched"),
            hedge_won: hub.counter("hedge.won"),
            hedge_wasted: hub.counter("hedge.wasted"),
            tune_grow: hub.counter("adaptive.grow"),
            tune_backoff: hub.counter("adaptive.backoff"),
            endpoint_latency: HashMap::new(),
        };
        let mut report = JobReport::default();
        let mut book = WalBook::default();
        if let Some(ctx) = job.rec {
            report.resumed = ctx.resumed;
            report.replayed_records = ctx.replayed;
            report.truncated_records = ctx.truncated;
            book.charges = std::mem::take(&mut replayed.charges);
            book.dead = std::mem::take(&mut replayed.dead);
            book.crashes = std::mem::take(&mut replayed.crash_points);
            let crashed = book.crashes.len() as u64;
            let plan = spec.fault_plan.as_ref();
            book.crash.armed = plan.and_then(|p| p.scheduled_crash(crashed)).copied();
            // Re-converge the serving index: fold each family's journaled
            // steps, in journal order — the same order the live run folded
            // (and ingested) them — so a resumed job's index ends up
            // identical to an uninterrupted run's.
            let families = replayed.steps.len() as u64;
            if let (Some(serving), true) = (&serving, families > 0) {
                serving.ingest_all(
                    replayed
                        .steps
                        .iter()
                        .map(|(family, steps)| live_record(*family, steps)),
                );
                counters.index_replayed.add(families);
                journal.record(Event::IndexReplayed { families });
            }
        }
        let tuner = AdaptiveTuner::new(spec.xtract_batch_size, spec.funcx_batch_size)
            .with_replayed_waves(replayed.waves);
        let watchdog = spec.hedge.enabled.then(|| {
            service
                .faas
                .start_lease_watchdog(Duration::from_millis(spec.hedge.watchdog_renew_cooldown_ms))
        });
        let mut compute = spec.endpoints.iter().filter(|e| e.has_compute());
        let primary = compute
            .next()
            .ok_or(XtractError::InvalidJob {
                reason: "no compute endpoint in job".to_string(),
            })?
            .endpoint;
        let secondary = compute.next().map(|e| e.endpoint);
        let (req_tx, req_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        Ok(Self {
            job,
            started,
            primary,
            offloader: Offloader::new(
                spec.offload,
                primary,
                secondary,
                service.streams.seed() ^ 0x0ff1,
            ),
            by_endpoint: spec.endpoints.iter().map(|e| (e.endpoint, e)).collect(),
            active: Vec::new(),
            report,
            health,
            ledger,
            tuner,
            last_tuned: HashMap::new(),
            book,
            serving,
            counters,
            pool: StagingPool {
                req_tx,
                out_rx,
                worker_ends: Some((req_rx, out_tx)),
                inflight: 0,
                spans: SpanUnion::new(),
            },
            _watchdog: watchdog,
        })
    }

    /// Stages 2+3: the journaled plan, or a crawl that journals one
    /// (`CrawlCompleted` + one `FamilyPlanned` per family, one group
    /// commit), then the `AfterCrawl` kill point (`CrashRecorded`).
    pub(crate) fn plan(
        &mut self,
        planned: Vec<Family>,
        crawl: Option<(u64, u64, u64)>,
    ) -> Result<Vec<Family>> {
        let job = self.job;
        let families = job.service.replay_or_crawl_plan(
            job.spec,
            job.rec,
            planned,
            crawl,
            job.shard.is_some(),
            self.started,
            &mut self.report,
        )?;
        self.die_at(CrashPoint::AfterCrawl, &mut Vec::new())?;
        if job.rec.is_some() {
            self.book.planned_families = families.clone();
        }
        Ok(families)
    }

    /// Starts the staging workers on `scope`. The pool is the concurrency
    /// budget; each transfer link is bounded to the same width so one
    /// saturated link cannot be oversubscribed. The workers retire when
    /// the engine — the request channel's only sender — is dropped or
    /// finished (journal, per request: `StagingStarted`).
    pub(crate) fn spawn_pool<'scope>(&mut self, scope: &'scope std::thread::Scope<'scope, 'a>) {
        let job = self.job;
        let (service, spec) = (job.service, job.spec);
        let workers = spec.staging_workers.max(1);
        service.transfer.set_link_limit(Some(workers));
        let (req_rx, out_tx) = self
            .pool
            .worker_ends
            .take()
            .expect("the staging pool is spawned once");
        let gauge = service.obs.hub.gauge("staging.in_flight");
        let (ledger, started) = (self.ledger, self.started);
        for _ in 0..workers {
            let req_rx = req_rx.clone();
            let out_tx = out_tx.clone();
            let gauge = gauge.clone();
            let journal = service.obs.journal.clone();
            scope.spawn(move || {
                while let Ok(req) = req_rx.recv() {
                    gauge.inc();
                    journal.record(Event::StagingStarted {
                        family: req.family.id,
                        destination: req.exec,
                    });
                    let outcome = service.execute_stage_request(
                        job.token,
                        req,
                        &spec.retry,
                        ledger,
                        job.tenant,
                        started,
                    );
                    gauge.dec();
                    if out_tx.send(outcome).is_err() {
                        break;
                    }
                }
            });
        }
    }

    /// Stage 4 for the whole plan: admits every planned family with the
    /// steps the log replayed for it. Placement is pure now that staging
    /// rides the pool, so the Plan phase is this decision pass alone.
    pub(crate) fn admit_plan(
        &mut self,
        families: Vec<Family>,
        mut steps: HashMap<FamilyId, Vec<MigratedStep>>,
    ) {
        let plan_started = Instant::now();
        self.active.reserve(families.len());
        for family in families {
            // A family a prior run segment already dead-lettered never
            // activates again: its journaled letter ships straight to
            // the report, and no extractor is re-invoked for it — the
            // zero-duplicate-invocation invariant for poisoned files.
            if let Some(letter) = self.book.dead.get(&family.id) {
                self.report.failures.push(letter.clone());
                continue;
            }
            let done = steps.remove(&family.id).unwrap_or_default();
            let charges = self.book.charges.get(&family.id).copied().unwrap_or(0);
            self.admit(family, done, charges);
        }
        self.phase(Phase::Plan, plan_started);
    }

    /// Admits one family to the wave loop — a planned one at stage 4 or a
    /// migrant at a wave boundary — with the steps it already completed,
    /// taken by value: places it, fast-forwards its plan through those
    /// steps (including extractors they *discovered*, which a crawl-seeded
    /// plan would never schedule), pre-charges the attempts it already
    /// spent, and submits its prefetch.
    fn admit(&mut self, family: Family, steps: Vec<MigratedStep>, charges: u32) {
        if charges > 0 {
            // The family's journaled total so far; wave commits journal
            // only the delta above this mark.
            let cur = self.book.charges.entry(family.id).or_insert(0);
            *cur = (*cur).max(charges);
            self.ledger.lock().precharge(family.id, charges);
        }
        let local_ok = self
            .by_endpoint
            .get(&family.source)
            .is_some_and(|e| e.has_compute());
        // Default: source locality — a family already sitting on a
        // compute endpoint runs there, otherwise the primary.
        let default_exec = if local_ok {
            family.source
        } else {
            self.primary
        };
        // Honour the offloader's *typed* decision: `Offload` is an active
        // instruction to move the family to the secondary (§4.3.3 RAND
        // applies a percentage of all files), while `Home` means the
        // policy expressed no preference and source locality stands — the
        // primary is never a forced destination (see
        // `Offloader::place_decision`).
        let (placed, decision) = self.offloader.place_decision(&family);
        let exec = if decision == Placement::Offload {
            placed
        } else {
            default_exec
        };
        let mut plan = ExtractionPlan::for_family(&family);
        for s in &steps {
            plan.complete(s.kind, &s.discoveries);
        }
        // Stage 5: prefetch if bytes are elsewhere — submitted to the
        // pool, not awaited, so wave 1 of already-local families
        // dispatches while remote ones are in flight. A family of a logged
        // job whose carried plan is already done has nothing left to run
        // and skips the transfer.
        let prefetch = exec != family.source && !(self.job.rec.is_some() && plan.is_done());
        self.active.push(ActiveFamily {
            plan,
            origin_files: family.files.clone(),
            origin_source: family.source,
            family,
            steps,
            exec,
            attempts: HashMap::new(),
            failed: None,
            timeline: Vec::new(),
            staging: false,
            staged_sites: Vec::new(),
            stage_generation: 0,
            extended: HashSet::new(),
            migrated: false,
        });
        if prefetch {
            self.submit_stage(self.active.len() - 1, exec, 0);
        }
    }

    /// Hands family `i`'s prefetch to the pool, headed for `exec`:
    /// generation 0 at admission, one more per breaker reroute. An `exec`
    /// without a staging store cannot take it; the family still flows
    /// through the wave loop and stage 7 so it lands in exactly one place,
    /// the dead-letter list — with a timeline event, so the letter ships a
    /// complete history.
    fn submit_stage(&mut self, i: usize, exec: EndpointId, generation: u32) {
        let af = &mut self.active[i];
        let Some(store) = self
            .by_endpoint
            .get(&exec)
            .and_then(|d| d.store_path.clone())
        else {
            let reason = FailureReason::PrefetchFailed {
                endpoint: exec,
                error: XtractError::NoComputeLayer { endpoint: exec },
            };
            let mut health = self.health.lock();
            health.record_failure(exec);
            // An admission is stamped with the wave it joins; a restage,
            // like every later failure, with the breaker clock.
            let (wave, note) = if generation == 0 {
                (u64::from(self.report.waves), reason.to_string())
            } else {
                (health.now(), format!("restage at {exec} failed: {reason}"))
            };
            af.note(wave, exec, note);
            af.failed = Some(reason);
            return;
        };
        af.stage_generation = generation;
        af.staging = true;
        self.pool.inflight += 1;
        let _ = self.pool.req_tx.send(StageRequest {
            index: i,
            family: af.family.clone(),
            origin_files: af.origin_files.clone(),
            origin_source: af.origin_source,
            exec,
            store,
            // The salt base derives from the family id (and the reroute
            // generation), so injected transfer faults roll independently
            // per family instead of in lockstep.
            salt_base: stage_salt_base(af.family.id, generation),
            generation,
        });
    }

    /// Folds one staging-pool outcome back into the job's state: the
    /// staged family replaces the origin view (success) or the family
    /// dead-letters with a timeline event (failure — restages included, so
    /// no dead letter ships with a silent reroute). Every outcome's span
    /// joins the overlap-aware `Stage` accounting. Journal:
    /// `StagingFinished`.
    fn apply_stage_outcome(&mut self, outcome: StageOutcome) {
        self.pool.spans.add(outcome.started_s, outcome.finished_s);
        let mut health = self.health.lock();
        let af = &mut self.active[outcome.index];
        af.staging = false;
        // Even a failed pass may have landed some files before the fault hit;
        // remember the site regardless so cleanup sweeps it (the fix for the
        // staged-copy leak: *every* site, not just the final exec home).
        af.staged_sites.push((outcome.exec, outcome.base));
        self.job.service.obs.journal.record(Event::StagingFinished {
            family: af.family.id,
            destination: outcome.exec,
            ok: outcome.result.is_ok(),
        });
        match outcome.result {
            Ok(staged) => {
                af.family = staged.family;
                self.report.bytes_prefetched += staged.bytes;
                health.record_success(outcome.exec);
                if outcome.generation > 0 {
                    af.move_to(outcome.exec, health.now());
                    self.report.rerouted += 1;
                }
            }
            Err(reason) => {
                health.record_failure(outcome.exec);
                let note = if outcome.generation > 0 {
                    format!("restage at {} failed: {reason}", outcome.exec)
                } else {
                    reason.to_string()
                };
                af.note(health.now(), outcome.exec, note);
                af.failed = Some(reason);
            }
        }
    }

    /// Applies `next` (the outcome an idle wait blocked for, if any) and
    /// every outcome already queued behind it.
    fn land(&mut self, mut next: Option<StageOutcome>) {
        while let Some(outcome) = next.take().or_else(|| self.pool.out_rx.try_recv().ok()) {
            self.pool.inflight -= 1;
            self.apply_stage_outcome(outcome);
        }
    }

    /// Stage `absorb_staged`: folds in every family the pool finished
    /// since the last wave — newly staged families join this wave's batch
    /// — and ages the breakers by one tick. Journal: `StagingFinished`,
    /// breaker transitions.
    pub(crate) fn absorb_staged(&mut self) {
        self.land(None);
        self.health.lock().tick();
    }

    /// Stage `shard_boundary` (sharded runs only). Waves are synchronous:
    /// nothing is in flight here except staging, so this is the one safe
    /// point to move families between shards. Order matters — adopt
    /// (journal the in-record, then acknowledge custody), donate (journal
    /// the out-record *before* handing over), then heartbeat. WAL:
    /// `FamilyMigrated{adopted:true}` per migrant, `FamilyMigrated
    /// {adopted:false}` per donation, each set one group commit.
    pub(crate) fn shard_boundary(&mut self) -> Result<()> {
        let Some(ctl) = self.job.shard else {
            return Ok(());
        };
        let log = &self
            .job
            .rec
            .expect("sharded runners always carry a recovery log")
            .log;
        self.adopt(ctl, log)?;
        self.donate(ctl, log)?;
        let pending = self.active.iter().filter(|af| af.is_pending()).count() as u64;
        ctl.heartbeat(u64::from(self.report.waves), pending)
    }

    /// Takes in the migrants the coordinator delivered: their in-records go
    /// durable, then custody is acknowledged, then they are admitted.
    fn adopt(&mut self, ctl: &dyn ShardLink, log: &RecoveryLog) -> Result<()> {
        let migrants = ctl.drain()?;
        if migrants.is_empty() {
            return Ok(());
        }
        let in_records: Vec<RecoveryRecord> = migrants
            .iter()
            .map(|m| RecoveryRecord::FamilyMigrated {
                family: m.family.clone(),
                from: m.from,
                to: ctl.shard() as u64,
                adopted: true,
                steps: m.steps.clone(),
                charges: m.charges,
            })
            .collect();
        log.append_batch(&in_records)?;
        let ids: Vec<FamilyId> = migrants.iter().map(|m| m.family.id).collect();
        ctl.ack(&ids)?;
        self.book.migrations.extend(in_records);
        for m in migrants {
            self.admit(m.family, m.steps, m.charges);
        }
        Ok(())
    }

    /// Answers a steal directive: any dispatchable family can move with
    /// its completed steps. Out-records go durable before delivery.
    fn donate(&mut self, ctl: &dyn ShardLink, log: &RecoveryLog) -> Result<()> {
        let Some(req) = ctl.take_steal()? else {
            return Ok(());
        };
        let mut eligible: Vec<usize> = (0..self.active.len())
            .filter(|&i| self.active[i].is_dispatchable())
            .collect();
        let take = eligible.len().min(req.max);
        let chosen = eligible.split_off(eligible.len() - take);
        if chosen.is_empty() {
            return Ok(());
        }
        let mut outs = Vec::with_capacity(chosen.len());
        let mut handoff = Vec::with_capacity(chosen.len());
        for &i in &chosen {
            let af = &mut self.active[i];
            // The recipient re-stages from the origin view, exactly like a
            // breaker reroute.
            let mut family = af.family.clone();
            family.files = af.origin_files.clone();
            family.source = af.origin_source;
            family.base_path = None;
            // The steps leave with the family: it is terminal here once
            // its out-record lands.
            let steps = std::mem::take(&mut af.steps);
            let charges = self
                .ledger
                .lock()
                .attempts(af.family.id)
                .max(self.book.charges.get(&af.family.id).copied().unwrap_or(0));
            outs.push(RecoveryRecord::FamilyMigrated {
                family: family.clone(),
                from: ctl.shard() as u64,
                to: req.to as u64,
                adopted: false,
                steps: steps.clone(),
                charges,
            });
            handoff.push(Migrant {
                family,
                steps,
                charges,
                from: ctl.shard() as u64,
            });
        }
        log.append_batch(&outs)?;
        self.book.migrations.extend(outs);
        for (&i, m) in chosen.iter().zip(handoff) {
            self.active[i].migrated = true;
            ctl.deliver(req.to, m)?;
        }
        Ok(())
    }

    /// Stage `reroute`, graceful degradation: a family whose endpoint's
    /// breaker is open moves to a healthy endpoint, its bytes re-staged
    /// from the origin — through the pool, so the wave loop keeps
    /// dispatching healthy families meanwhile. With no healthy alternative
    /// it stays parked and rides the half-open probe cycle instead. Emits
    /// no record or event of its own; the move shows in the family's
    /// timeline and in the restage's `StagingStarted`/`StagingFinished`.
    pub(crate) fn reroute(&mut self) {
        let job = self.job;
        for i in 0..self.active.len() {
            let af = &mut self.active[i];
            if !af.is_dispatchable() || self.health.lock().state(af.exec) != BreakerState::Open {
                continue;
            }
            let Some(new_exec) = job.healthy_alternative(af.exec, &self.health.lock()) else {
                if job.service.faas.endpoint(af.exec).is_none() {
                    // Not just tripped — the endpoint does not exist.
                    af.failed = Some(FailureReason::NoHealthyEndpoint { endpoint: af.exec });
                }
                continue;
            };
            if !self.ledger.lock().charge(af.family.id) {
                af.failed = Some(FailureReason::RetryBudgetExhausted {
                    extractor: af.plan.next().unwrap_or(ExtractorKind::Keyword),
                    error: XtractError::EndpointDown { endpoint: af.exec },
                });
                continue;
            }
            // Reset to the origin view, then stage at the new home.
            af.family.files = af.origin_files.clone();
            af.family.source = af.origin_source;
            af.family.base_path = None;
            if new_exec == af.origin_source {
                // The bytes already live at the new home: a purely
                // logical move, no transfer needed.
                af.move_to(new_exec, self.health.lock().now());
                self.report.rerouted += 1;
                continue;
            }
            let generation = af.stage_generation + 1;
            self.submit_stage(i, new_exec, generation);
        }
    }

    /// Stage `batch`: every dispatchable family's next pending extractor,
    /// batched two-level (§4.3.2). Static mode: one batcher spans
    /// endpoints, so a funcX request may mix endpoints' tasks. Adaptive
    /// mode: one batcher per endpoint at the tuner's current limits
    /// (`BTreeMap` keeps flush order deterministic), since limits are
    /// per-endpoint state. Journal: `BatchTuned` when an endpoint's limits
    /// changed.
    pub(crate) fn batch(&mut self) -> Option<Wave> {
        let job = self.job;
        let spec = job.spec;
        let started = Instant::now();
        let mut batcher = Batcher::new(spec.xtract_batch_size, spec.funcx_batch_size);
        let mut ep_batchers: BTreeMap<EndpointId, Batcher> = BTreeMap::new();
        let mut poll_chunk: Option<usize> = None;
        let mut batches = Vec::new();
        let mut index: HashMap<FamilyId, usize> = HashMap::new();
        for (i, af) in self.active.iter_mut().enumerate() {
            // A donated family is terminal here: its new shard dispatches
            // it. An open breaker parks the family until a reroute or the
            // cooldown's half-open probe readmits it.
            if !af.is_dispatchable() || self.health.lock().state(af.exec) == BreakerState::Open {
                continue;
            }
            // The plan cursor only ever advances together with the step
            // that completes it, so what is next here has never flushed: a
            // loss resubmits exactly the unfinished step (§5.8.1: "the
            // metadata are re-loaded").
            let Some(kind) = af.plan.next() else { continue };
            index.insert(af.family.id, i);
            let b = if spec.adaptive.enabled {
                ep_batchers.entry(af.exec).or_insert_with(|| {
                    let mut lim = self.tuner.limits(af.exec);
                    // A tenant's remaining invocation budget caps funcX
                    // growth: requests shrink to fit the budget instead of
                    // bouncing off the ledger.
                    if let Some(t) = job.tenant {
                        lim =
                            lim.cap_to_invocations(t.ledger().headroom(QuotaResource::Invocations));
                    }
                    poll_chunk = Some(poll_chunk.unwrap_or(0).max(lim.poll_chunk));
                    if self.last_tuned.insert(af.exec, lim) != Some(lim) {
                        job.service.obs.journal.record(Event::BatchTuned {
                            endpoint: af.exec,
                            xtract: lim.xtract as u64,
                            funcx: lim.funcx as u64,
                            poll_chunk: lim.poll_chunk as u64,
                        });
                    }
                    Batcher::new(lim.xtract, lim.funcx)
                })
            } else {
                &mut batcher
            };
            batches.extend(b.push(af.family.clone(), kind, af.exec));
        }
        batches.extend(batcher.flush());
        for b in ep_batchers.values_mut() {
            batches.extend(b.flush());
        }
        if batches.is_empty() {
            return None;
        }
        Some(Wave {
            started,
            batches,
            poll_chunk,
            index,
            entries: Vec::new(),
            flushes: Vec::new(),
            touched: HashSet::new(),
            lat: BTreeMap::new(),
        })
    }

    /// Stage `await_work`, taken when `batch` found nothing to dispatch:
    /// blocks for the next staging outcome while prefetches are in flight,
    /// loops again while any family is still pending (parked families wait
    /// out a breaker cooldown, which `absorb_staged`'s tick ages), and
    /// otherwise ends the loop — the loop's only exit. A drained shard
    /// parks with the coordinator instead of finishing: siblings may still
    /// donate it work (idle-pull), and the run only concludes once every
    /// shard is drained together. Returns false when the job is done here.
    pub(crate) fn await_work(&mut self) -> Result<bool> {
        if self.pool.inflight > 0 {
            match self.pool.out_rx.recv() {
                Ok(outcome) => self.land(Some(outcome)),
                Err(_) => {
                    // The pool died (a worker panicked): fail the stranded
                    // families with a typed reason rather than spin — the
                    // partition invariant outlives even this.
                    self.pool.inflight = 0;
                    for af in self.active.iter_mut().filter(|af| af.staging) {
                        af.staging = false;
                        af.failed = Some(FailureReason::Internal {
                            reason: "staging pool terminated mid-flight".to_string(),
                        });
                    }
                }
            }
            return Ok(true);
        }
        if self.active.iter().any(ActiveFamily::is_pending) {
            return Ok(true);
        }
        match self.job.shard {
            Some(ctl) => Ok(ctl.idle_wait()? == IdleVerdict::Adopt),
            None => Ok(false),
        }
    }

    /// Stage `dispatch`: one `batch_submit` per funcX batch (§4.3.2), the
    /// tenant charged for its invocations before the batch reaches the
    /// fabric, so a refused charge means nothing was submitted and nothing
    /// needs unwinding. Closes the wave's Dispatch phase. Journal:
    /// `QuotaCharged`/`QuotaExhausted`, the fabric's submit events.
    pub(crate) fn dispatch(&mut self, wave: &mut Wave) -> Result<()> {
        let service = self.job.service;
        self.report.waves += 1;
        for funcx_batch in std::mem::take(&mut wave.batches) {
            let mut specs = Vec::with_capacity(funcx_batch.tasks.len());
            let mut members: Vec<(Vec<FamilyId>, XtractBatch)> = Vec::new();
            for task in funcx_batch.tasks {
                let function = service.function_for(task.extractor, task.endpoint)?;
                // Staged copies are cleaned after the *whole plan*
                // finishes (a family may still need them for later
                // extractors), so the per-batch flag stays off.
                specs.push(TaskSpec {
                    function,
                    endpoint: task.endpoint,
                    payload: encode_batch(&task, false),
                });
                members.push((task.families.iter().map(|f| f.id).collect(), task));
            }
            if let Some(t) = self.job.tenant {
                let invocations: u64 = members.iter().map(|(fams, _)| fams.len() as u64).sum();
                t.charge(QuotaResource::Invocations, invocations)?;
            }
            let ids = service.faas.batch_submit_owned(specs);
            for (id, (fams, batch)) in ids.into_iter().zip(members) {
                *self
                    .report
                    .invocations
                    .entry(batch.extractor.name().to_string())
                    .or_insert(0) += fams.len() as u64;
                wave.entries.push(WaveEntry {
                    id,
                    fams,
                    batch,
                    hedge: None,
                    resolved: None,
                    breached: false,
                });
            }
        }
        self.phase(Phase::Dispatch, wave.started);
        wave.started = Instant::now();
        Ok(())
    }

    /// Stage `poll`: polls until every entry settled or the window closed
    /// (batched polling, §4.3.2), under the straggler defense. Every task
    /// gets an adaptive deadline derived from the observed
    /// completion-latency quantile (policy ceiling until enough samples
    /// accumulate). A breach scores the endpoint as a straggler and — when
    /// an alternative healthy endpoint exists — hedges the task there; the
    /// first productive result wins and the loser is cancelled. The flat
    /// poll window from the retry policy stays the hard cap; what is still
    /// non-terminal when it closes is split into provably-lost vs
    /// merely-slow. Journal: `TaskHedged`, `HedgeWon`, `HedgeLost`,
    /// `PollWindowExpired`, `QuotaCharged` per hedge.
    pub(crate) fn poll(&mut self, wave: &mut Wave) {
        let (service, spec) = (self.job.service, self.job.spec);
        let deadline = adaptive_deadline(&self.counters.latency, &spec.hedge, &spec.retry);
        let window = Duration::from_millis(spec.retry.poll_window_ms);
        let wave_started = Instant::now();
        let productive = |s: &TaskStatus| matches!(s, TaskStatus::Done(_) | TaskStatus::Failed(_));
        // Entries still unsettled, in entry order: a poll asks only about
        // these, and reads the answers back in the same order.
        let mut open: Vec<usize> = (0..wave.entries.len()).collect();
        loop {
            let outstanding: Vec<TaskId> = open
                .iter()
                .map(|&i| &wave.entries[i])
                .flat_map(|e| std::iter::once(e.id).chain(e.hedge.map(|(h, _)| h)))
                .collect();
            if outstanding.is_empty() {
                break;
            }
            // Adaptive mode bounds each poll request to the tuned chunk,
            // so poll fan-out tracks dispatch fan-out; static mode polls
            // everything in one request.
            let polled = match wave.poll_chunk {
                Some(chunk) if chunk < outstanding.len() => outstanding
                    .chunks(chunk.max(1))
                    .flat_map(|ids| service.faas.batch_poll(ids))
                    .collect(),
                _ => service.faas.batch_poll(&outstanding),
            };
            let mut polled = polled.into_iter().map(|p| p.status);
            let closing = wave_started.elapsed() >= window;
            let may_hedge = spec.hedge.enabled && !closing;
            for &i in &open {
                let e = &mut wave.entries[i];
                // Each status is moved out of this iteration's poll
                // result: the entry that settles on it owns it.
                let home = e.batch.endpoint;
                let primary = polled.next().unwrap_or(TaskStatus::Unknown);
                let hedged = e
                    .hedge
                    .map(|(_, ep)| (polled.next().unwrap_or(TaskStatus::Unknown), ep));
                let (status, endpoint) = match hedged {
                    // The original got there first: a hedge still in
                    // flight lost the race.
                    _ if productive(&primary) => {
                        self.lose_hedge(e);
                        (primary, home)
                    }
                    // The hedge won: cancel the original so its eventual
                    // result (if any) is discarded — only the winner's
                    // output is ever decoded.
                    Some((hs, hep)) if productive(&hs) => {
                        service.faas.cancel(e.id);
                        self.counters.hedge_won.incr();
                        for fid in &e.fams {
                            service.obs.journal.record(Event::HedgeWon {
                                family: *fid,
                                winner: hep,
                            });
                        }
                        (hs, hep)
                    }
                    // Lost (or unknown): no result is coming from the
                    // original. A live hedge may still produce one; once
                    // both runners are dead (or the window closed) the
                    // hedge never produced a result.
                    Some((hs, _)) if primary.is_terminal() => {
                        if hs.is_terminal() || closing {
                            self.lose_hedge(e);
                            self.settle(e, primary, home);
                        }
                        continue;
                    }
                    // No hedge yet, and a provably-dead primary is the
                    // clearest hedge trigger of all.
                    None if primary.is_terminal() => {
                        let lost = matches!(primary, TaskStatus::Lost);
                        if lost && may_hedge && !e.breached {
                            e.breached = true;
                            if self.try_hedge(e) {
                                continue;
                            }
                        }
                        self.settle(e, primary, home);
                        continue;
                    }
                    // Still running. Past the adaptive deadline the
                    // endpoint takes a fractional straggler score (soft
                    // evidence — the breaker is untouched) and the task
                    // hedges to the best alternative, if any.
                    _ => {
                        if !e.breached && wave_started.elapsed() >= deadline {
                            e.breached = true;
                            self.health.lock().record_breach(home);
                            if may_hedge {
                                self.try_hedge(e);
                            }
                        }
                        continue;
                    }
                };
                let latency = wave_started.elapsed().as_secs_f64();
                self.counters.latency.observe(latency);
                if spec.adaptive.enabled {
                    wave.lat.entry(home).or_default().push(latency);
                }
                self.settle(e, status, endpoint);
            }
            open.retain(|&i| wave.entries[i].resolved.is_none());
            if closing || open.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.expire_window(wave);
    }

    /// The *window* gave up, not the tasks: splits the leftovers into
    /// provably-lost (their endpoint's lease lapsed or is gone) and
    /// merely-slow, journals the disposition, and abandons the stale task
    /// ids (the next wave resubmits under fresh ones).
    fn expire_window(&mut self, wave: &mut Wave) {
        let service = self.job.service;
        let (mut lost, mut slow) = (0u64, 0u64);
        for e in wave.entries.iter_mut().filter(|e| e.resolved.is_none()) {
            self.lose_hedge(e);
            service.faas.cancel(e.id);
            let ep = e.batch.endpoint;
            if service.faas.endpoint(ep).is_some_and(|c| !c.is_expired()) {
                slow += 1;
                self.settle(e, TaskStatus::Running, ep);
            } else {
                lost += 1;
                self.settle(e, TaskStatus::Lost, ep);
            }
        }
        if lost + slow > 0 {
            service.obs.journal.record(Event::PollWindowExpired {
                tasks: lost + slow,
                window_ms: self.job.spec.retry.poll_window_ms,
                lost,
                slow,
            });
        }
    }

    /// Launches `e`'s speculative duplicate (same payload, re-encoded for
    /// the alternative endpoint's registered function) when a healthy
    /// alternative exists and the tenant can pay for it. A hedge is one
    /// speculative invocation: alternative first, then the charge, then
    /// the submit, so a hedge that cannot launch costs nothing, and a
    /// tenant out of invocation quota forgoes it and rides the primary
    /// alone. Journal: `QuotaCharged`/`QuotaExhausted`, `TaskHedged`.
    fn try_hedge(&mut self, e: &mut WaveEntry) -> bool {
        let (service, tenant) = (self.job.service, self.job.tenant);
        let home = e.batch.endpoint;
        let Some(alt) = self.job.healthy_alternative(home, &self.health.lock()) else {
            return false;
        };
        let Ok(function) = service.function_for(e.batch.extractor, alt) else {
            return false;
        };
        if tenant.is_some_and(|t| t.charge(QuotaResource::Invocations, 1).is_err()) {
            return false;
        }
        let ids = service.faas.batch_submit_owned(vec![TaskSpec {
            function,
            endpoint: alt,
            payload: encode_batch(&e.batch, false),
        }]);
        self.counters.hedge_launched.incr();
        for fid in &e.fams {
            service.obs.journal.record(Event::TaskHedged {
                family: *fid,
                original: home,
                hedge: alt,
            });
        }
        e.hedge = Some((ids[0], alt));
        true
    }

    /// `e`'s hedge, if it has one, lost the race or never produced a
    /// result: it is cancelled so its (discarded) result never
    /// double-counts. Journal: one `HedgeLost` per family.
    fn lose_hedge(&self, e: &WaveEntry) {
        let service = self.job.service;
        let Some((hedge, loser)) = e.hedge else {
            return;
        };
        service.faas.cancel(hedge);
        self.counters.hedge_wasted.incr();
        for fid in &e.fams {
            service.obs.journal.record(Event::HedgeLost {
                family: *fid,
                loser,
            });
        }
    }

    /// Settles `entry` with the status that decided it. The fabric forgets
    /// the entry's task ids first — nothing polls them again, and with the
    /// table's row gone the status holds the last handle to a `Done`
    /// output — then only the [`Resolution`] is parked on the entry.
    fn settle(&self, entry: &mut WaveEntry, status: TaskStatus, winner: EndpointId) {
        let faas = &self.job.service.faas;
        match entry.hedge {
            Some((hedge, _)) => faas.forget(&[entry.id, hedge]),
            None => faas.forget(&[entry.id]),
        }
        entry.resolved = Some((Resolution::of(status), winner));
    }

    /// Stage `fold`: entries apply in entry order whatever order they
    /// settled in, so WAL record order, breaker evidence and retry
    /// charging do not depend on poll timing. Collects one `StepCompleted`
    /// per finished step for `commit`. Journal: `Retry` per charged loss,
    /// breaker transitions, `AllocationRenewed`.
    pub(crate) fn fold(&mut self, wave: &mut Wave) {
        let index = &wave.index;
        for e in wave.entries.iter_mut() {
            let Some((resolution, winner_ep)) = &mut e.resolved else {
                continue; // unreachable: `poll` resolves every entry
            };
            let (id, kind, fams) = (e.id, e.batch.extractor, &e.fams);
            match resolution {
                Resolution::Done(Ok(results)) => {
                    for r in results.drain(..) {
                        let Some(&i) = index.get(&r.family) else {
                            continue;
                        };
                        let af = &mut self.active[i];
                        if let Some(err) = r.error {
                            // A poisoned family: terminal — §2.3's junk
                            // files must not wedge the job; retrying
                            // cannot help.
                            af.failed = Some(FailureReason::ExtractionFailed {
                                extractor: kind,
                                error: err,
                            });
                            continue;
                        }
                        // One allocation owns the result's metadata; the
                        // family's step and the wave's commit batch share
                        // it.
                        let metadata = Arc::new(r.metadata);
                        if self.job.rec.is_some() {
                            wave.flushes.push(RecoveryRecord::StepCompleted {
                                family: r.family,
                                kind,
                                metadata: Arc::clone(&metadata),
                                discoveries: r.discoveries.clone(),
                            });
                        }
                        af.plan.complete(kind, &r.discoveries);
                        af.steps.push(MigratedStep {
                            kind,
                            metadata,
                            discoveries: r.discoveries,
                        });
                        self.counters.steps_completed.incr();
                        wave.touched.insert(r.family);
                    }
                    // Credit whichever endpoint actually produced the
                    // result — the hedge winner's, not necessarily the
                    // family's home.
                    self.health.lock().record_success(*winner_ep);
                }
                Resolution::Done(Err(e)) => {
                    let reason = format!("undecodable result: {e}");
                    self.fail_all(index, fams, &FailureReason::Internal { reason });
                }
                Resolution::Failed(e) if e.is_retryable() => {
                    // Transient executor failure (crashed worker, downed
                    // endpoint): the step stays pending and the next wave
                    // resubmits under a fresh id.
                    let note = format!("{} step failed: {e}", kind.name());
                    self.charge_step_loss(index, fams, kind, e, &note);
                }
                Resolution::Failed(e) => {
                    let reason = FailureReason::ExtractionFailed {
                        extractor: kind,
                        error: e.to_string(),
                    };
                    self.fail_all(index, fams, &reason);
                    self.health.lock().record_failure(*winner_ep);
                }
                Resolution::Lost => {
                    // Allocation expired, heartbeat vanished, or the
                    // submission fell into a blackout: renew the endpoint
                    // ("resubmit remaining tasks on a second allocation",
                    // §5.8.1) and leave the step pending so the next wave
                    // resubmits.
                    let note = format!("{} task lost", kind.name());
                    let error = XtractError::TaskLost { task: id };
                    self.charge_step_loss(index, fams, kind, &error, &note);
                    self.job.service.faas.renew_endpoint(*winner_ep);
                }
                Resolution::Cancelled => {
                    // Only ever set by this orchestrator when a hedge race
                    // was decided the other way; a resolution can't carry
                    // it, and a cancelled task must never be resubmitted —
                    // the family already has its result.
                }
                Resolution::Unknown => {
                    // The fabric has no record of a task we believe we
                    // submitted — state is corrupt for these families;
                    // retrying cannot reconcile it, so they dead-letter
                    // rather than spin.
                    let reason = format!("task {id} unknown to the FaaS fabric");
                    self.fail_all(index, fams, &FailureReason::Internal { reason });
                }
                Resolution::Slow => {
                    // Merely slow, not lost: each family's step gets one
                    // free deadline extension — it stays pending for the
                    // next wave without touching the retry budget — and
                    // only a repeat overrun charges like a loss.
                    let mut repeat: Vec<FamilyId> = Vec::new();
                    for fid in fams {
                        let Some(&i) = index.get(fid) else { continue };
                        let af = &mut self.active[i];
                        if af.extended.insert(kind) {
                            let note =
                                format!("{} deadline extended (slow, not lost)", kind.name());
                            af.note(self.health.lock().now(), af.exec, note);
                        } else {
                            repeat.push(*fid);
                        }
                    }
                    if !repeat.is_empty() {
                        let note = format!("{} non-terminal after extended wait", kind.name());
                        let error = XtractError::TaskLost { task: id };
                        self.charge_step_loss(index, &repeat, kind, &error, &note);
                    }
                }
            }
        }
    }

    /// Dead-letters every family of one funcX task with `reason`.
    fn fail_all(
        &mut self,
        index: &HashMap<FamilyId, usize>,
        fams: &[FamilyId],
        reason: &FailureReason,
    ) {
        for fid in fams {
            let Some(&i) = index.get(fid) else { continue };
            self.active[i].failed = Some(reason.clone());
        }
    }

    /// Charges one lost/crashed step against every family in a funcX task:
    /// the step stays pending (the next wave resubmits with a fresh task
    /// id) until the per-step or per-family budget runs out, at which point
    /// the family dead-letters with
    /// [`FailureReason::RetryBudgetExhausted`].
    fn charge_step_loss(
        &mut self,
        index: &HashMap<FamilyId, usize>,
        fams: &[FamilyId],
        kind: ExtractorKind,
        error: &XtractError,
        note: &str,
    ) {
        let mut ledger = self.ledger.lock();
        let mut health = self.health.lock();
        let mut endpoint = None;
        for fid in fams {
            let Some(&i) = index.get(fid) else { continue };
            let af = &mut self.active[i];
            endpoint = Some(af.exec);
            self.report.resubmitted += 1;
            let n = af.attempts.entry(kind).or_insert(0);
            *n += 1;
            let n = *n;
            af.note(health.now(), af.exec, format!("{note} (attempt {n})"));
            self.job.service.obs.journal.record(Event::Retry {
                family: af.family.id,
                attempt: n,
                note: note.to_string(),
            });
            let within_budget = ledger.charge(af.family.id);
            if n >= self.job.spec.retry.task_attempts || !within_budget {
                af.failed = Some(FailureReason::RetryBudgetExhausted {
                    extractor: kind,
                    error: error.clone(),
                });
            }
        }
        if let Some(ep) = endpoint {
            health.record_failure(ep);
        }
    }

    /// Stage `tune`, adaptive feedback: folds this wave's observed
    /// latency, breach count, and breaker state into per-endpoint evidence
    /// and lets the tuner adjust the next wave's batch limits. The
    /// wave-exact sample median is primary; the labeled histogram (fed
    /// here too, so it survives across waves) is the fallback when a wave
    /// resolved no productive samples.
    pub(crate) fn tune(&mut self, wave: &mut Wave) {
        if !self.job.spec.adaptive.enabled {
            return;
        }
        let hub = &self.job.service.obs.hub;
        let mut by_ep: BTreeMap<EndpointId, (u64, u64)> = BTreeMap::new();
        for e in &wave.entries {
            let agg = by_ep.entry(e.batch.endpoint).or_default();
            agg.0 += e.fams.len() as u64;
            agg.1 += u64::from(e.breached);
        }
        for (ep, (families, breaches)) in by_ep {
            let ep_hist = self.counters.endpoint_latency.entry(ep).or_insert_with(|| {
                hub.histogram_with("task.latency_s", Some(&ep.to_string()), LATENCY_BOUNDS_S)
            });
            let mut samples = wave.lat.remove(&ep).unwrap_or_default();
            for &s in &samples {
                ep_hist.observe(s);
            }
            samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let p50 = if samples.is_empty() {
                ep_hist.quantile(0.5)
            } else {
                Some(samples[(samples.len() - 1) / 2])
            };
            let evidence = WaveEvidence {
                p50_latency_s: p50,
                samples: samples.len() as u64,
                families,
                breaches,
                breaker_open: self.health.lock().state(ep) == BreakerState::Open,
            };
            match self.tuner.observe_wave(ep, &evidence) {
                TuneDecision::Grew => self.counters.tune_grow.incr(),
                TuneDecision::BackedOff => self.counters.tune_backoff.incr(),
                TuneDecision::Held => {}
            }
        }
    }

    /// Stage `commit` (logged jobs only): one group commit journals
    /// everything this wave decided — `StepCompleted` in fold order,
    /// `RetryCharged` deltas, `HedgeResolved`, newly `DeadLettered`
    /// families — then `WaveCommitted`. The scheduled kill points sit
    /// exactly at this boundary, so a crashed run never leaves a
    /// half-journaled wave: either all of a wave's records are durable or
    /// none are. Then compacts the log when it spread over enough
    /// segments. WAL on a kill: `CrashRecorded`.
    pub(crate) fn commit(&mut self, wave: &mut Wave) -> Result<()> {
        let Some(ctx) = self.job.rec else {
            return Ok(());
        };
        let wave_no = u64::from(self.report.waves);
        let mut batch = std::mem::take(&mut wave.flushes);
        {
            // Charges vs. what the log already holds: the delta also
            // captures charges the staging pool spent on this family
            // between waves.
            let l = self.ledger.lock();
            for af in self.active.iter().filter(|af| !af.migrated) {
                let id = af.family.id;
                let total = l.attempts(id);
                let prior = self.book.charges.get(&id).copied().unwrap_or(0);
                if total > prior {
                    batch.push(RecoveryRecord::RetryCharged {
                        family: id,
                        amount: total - prior,
                    });
                    self.book.charges.insert(id, total);
                }
            }
        }
        for e in &wave.entries {
            if let (Some((_, hep)), Some((_, wep))) = (e.hedge, &e.resolved) {
                for fid in &e.fams {
                    batch.push(RecoveryRecord::HedgeResolved {
                        family: *fid,
                        endpoint: hep,
                        won: *wep == hep,
                    });
                }
            }
        }
        {
            let l = self.ledger.lock();
            for af in self.active.iter().filter(|af| !af.migrated) {
                let Some(reason) = &af.failed else { continue };
                if let Entry::Vacant(slot) = self.book.dead.entry(af.family.id) {
                    let mut letter =
                        DeadLetter::new(af.family.id, reason.clone(), l.attempts(af.family.id));
                    letter.timeline = af.timeline.clone();
                    slot.insert(letter.clone());
                    batch.push(RecoveryRecord::DeadLettered { letter });
                }
            }
        }
        batch.push(RecoveryRecord::WaveCommitted { wave: wave_no });
        self.die_at(CrashPoint::MidWave, &mut batch)?;
        self.die_at(CrashPoint::MidFlush, &mut batch)?;
        ctx.log.append_batch(&batch)?;
        if ctx.log.segment_count()? >= ctx.log.policy().compact_segments as u64 {
            self.compact(ctx)?;
        }
        Ok(())
    }

    /// A pass of kill point `point`. When the armed crash fires here,
    /// `batch` — what this point was about to commit, possibly nothing —
    /// lands with a `CrashRecorded` behind it and the run "dies" with the
    /// typed error: a clean kill, everything before it durable. `MidFlush`
    /// is the dirty one: the process dies halfway through writing one more
    /// frame, and the next open truncates the torn tail without losing the
    /// committed prefix.
    fn die_at(&mut self, point: CrashPoint, batch: &mut Vec<RecoveryRecord>) -> Result<()> {
        let Some(ctx) = self.job.rec else {
            return Ok(());
        };
        if !self.book.crash.hit(point) {
            return Ok(());
        }
        let point_name = point.name().to_string();
        batch.push(RecoveryRecord::CrashRecorded {
            point: point_name.clone(),
        });
        ctx.log.append_batch(batch)?;
        if point == CrashPoint::MidFlush {
            ctx.log.append_torn(&RecoveryRecord::WaveCommitted {
                wave: u64::from(self.report.waves),
            })?;
        }
        Err(XtractError::OrchestratorKilled { point: point_name })
    }

    /// Compaction: restates live state as a snapshot in a fresh segment
    /// and drops the history it supersedes. WAL: the snapshot
    /// (`JobStarted`, `CrashRecorded`s, `CrawlCompleted`, the plan, every
    /// live family's steps, charge totals, this segment's migrations, dead
    /// letters), `CrashRecorded` on a `MidCompaction` kill. Journal:
    /// `SnapshotCompacted`.
    fn compact(&mut self, ctx: &RecoveryCtx) -> Result<()> {
        let mut snapshot = vec![RecoveryRecord::JobStarted {
            fingerprint: ctx.fingerprint,
        }];
        snapshot.extend(
            self.book
                .crashes
                .iter()
                .map(|p| RecoveryRecord::CrashRecorded { point: p.clone() }),
        );
        snapshot.push(RecoveryRecord::CrawlCompleted {
            crawled_files: self.report.crawled_files,
            groups: self.report.groups,
            redundant_files: self.report.redundant_files,
        });
        snapshot.extend(
            self.book
                .planned_families
                .iter()
                .map(|f| RecoveryRecord::FamilyPlanned { family: f.clone() }),
        );
        // Each family's finished steps, from its own list. A donated
        // family's are restated by its out-record below, which carries
        // them.
        for af in self.active.iter().filter(|af| !af.migrated) {
            snapshot.extend(af.steps.iter().map(|s| RecoveryRecord::StepCompleted {
                family: af.family.id,
                kind: s.kind,
                metadata: Arc::clone(&s.metadata),
                discoveries: s.discoveries.clone(),
            }));
        }
        let mut charges: Vec<(FamilyId, u32)> = self
            .book
            .charges
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(f, n)| (*f, *n))
            .collect();
        charges.sort_unstable_by_key(|(f, _)| *f);
        snapshot.extend(
            charges
                .into_iter()
                .map(|(family, amount)| RecoveryRecord::RetryCharged { family, amount }),
        );
        // Migrations journaled this run segment, in order, *after* the
        // restated totals: an in-record takes the max of its carried count
        // and the restated total (≥ carried by construction), so replaying
        // the snapshot never double-charges. Adopted families join the
        // restated plan here; donated ones leave it.
        snapshot.extend(self.book.migrations.iter().cloned());
        let mut dead: Vec<&DeadLetter> = self.book.dead.values().collect();
        dead.sort_unstable_by_key(|l| l.family);
        snapshot.extend(dead.into_iter().map(|letter| RecoveryRecord::DeadLettered {
            letter: letter.clone(),
        }));
        let keep = ctx.log.begin_compaction(&snapshot)?;
        // Killed between writing the snapshot and unlinking the old
        // segments: the next open finds both and finishes the unlink
        // itself.
        self.die_at(CrashPoint::MidCompaction, &mut Vec::new())?;
        let removed = ctx.log.finish_compaction(keep)?;
        let journal = &self.job.service.obs.journal;
        journal.record(Event::SnapshotCompacted {
            records: snapshot.len() as u64 + 1,
            segments_removed: removed,
        });
        Ok(())
    }

    /// Stage `ingest`, live ingest at the commit boundary: each touched
    /// family's merged-so-far document lands in the serving index under
    /// schema "live" (validation replaces it with the final record).
    /// Running *after* the group commit keeps the index trailing the log,
    /// so a crash here is re-converged by replay on resume. Closes the
    /// wave's Extract phase. Journal: `IndexWaveIngested`.
    pub(crate) fn ingest(&mut self, wave: &Wave) {
        if let (Some(serving), false) = (&self.serving, wave.touched.is_empty()) {
            let recs: Vec<MetadataRecord> = self
                .active
                .iter()
                .filter(|af| !af.migrated && wave.touched.contains(&af.family.id))
                .map(|af| live_record(af.family.id, &af.steps))
                .collect();
            let n = recs.len() as u64;
            serving.ingest_all(recs);
            self.counters.index_ingested.add(n);
            self.counters.index_waves.incr();
            let journal = &self.job.service.obs.journal;
            journal.record(Event::IndexWaveIngested {
                wave: u64::from(self.report.waves),
                records: n,
            });
        }
        self.phase(Phase::Extract, wave.started);
    }

    /// Books the time since `started` to `phase`, as a total and as a
    /// job-relative span.
    fn phase(&mut self, phase: Phase, started: Instant) {
        let spent = started.elapsed().as_secs_f64();
        let now = self.started.elapsed().as_secs_f64();
        self.report.phases.add(phase, spent);
        self.report.phase_spans.push((phase, now - spent, now));
    }

    /// After the loop: books the Stage phase, cleans staged copies, runs
    /// stage 7, and journals the tail — dead letters minted after the wave
    /// loop (validation rejections, shipping failures) that the log does
    /// not hold yet, then `JobCompleted`, so resuming a finished job
    /// replays to a no-op. Journal: `IndexValidated`, one `DeadLettered`
    /// per failure.
    pub(crate) fn finish(mut self) -> Result<JobReport> {
        // This segment's migration records go first, so stage 7 finds each
        // family's `steps` holding the last handles to its metadata.
        self.book.migrations = Vec::new();
        self.report
            .phases
            .add(Phase::Stage, self.pool.spans.covered());
        let stage_spans = self.pool.spans.intervals().iter();
        self.report
            .phase_spans
            .extend(stage_spans.map(|&(s, e)| (Phase::Stage, s, e)));
        let index_started = Instant::now();
        self.validate_and_ship()?;
        let journal = &self.job.service.obs.journal;
        for letter in &self.report.failures {
            journal.record(Event::DeadLettered {
                family: letter.family,
                reason: letter.reason.to_string(),
            });
        }
        self.phase(Phase::Index, index_started);
        if let Some(ctx) = self.job.rec {
            let mut tail: Vec<RecoveryRecord> = Vec::new();
            for letter in &self.report.failures {
                if self.book.dead.get(&letter.family) != Some(letter) {
                    tail.push(RecoveryRecord::DeadLettered {
                        letter: letter.clone(),
                    });
                }
            }
            tail.push(RecoveryRecord::JobCompleted);
            ctx.log.append_batch(&tail)?;
        }
        Ok(self.report)
    }

    /// Stage 6.5 and stage 7: cleans staged copies once plans are done —
    /// every site the family ever staged at, not just the final one, so a
    /// reroute leaves nothing behind on the endpoint that went dark — then
    /// validates each family's folded document and ships the record to the
    /// user's chosen endpoint (§3). Every family terminates here, in
    /// exactly one of `records` or `failures`.
    fn validate_and_ship(&mut self) -> Result<()> {
        let (service, spec) = (self.job.service, self.job.spec);
        if spec.delete_after_extraction {
            for (site, base) in self.active.iter().flat_map(|af| &af.staged_sites) {
                if let Ok(ep) = service.fabric.get(*site) {
                    let _ = ep.backend.remove(base);
                }
            }
        }
        service.auth.check(self.job.token, Scope::Validate)?;
        let dest = service
            .fabric
            .get(spec.results_endpoint.unwrap_or(self.primary))?;
        let ledger = self.ledger.lock();
        // A donated family terminates on the shard that adopted it; this
        // shard's out-record is its whole story here.
        for af in self.active.iter_mut().filter(|af| !af.migrated) {
            // The family's record or dead letter is minted in this
            // iteration; its steps are released with it rather than held
            // until the job returns.
            let steps = std::mem::take(&mut af.steps);
            let attempts = ledger.attempts(af.family.id);
            if let Some(reason) = af.failed.take() {
                let mut letter = DeadLetter::new(af.family.id, reason, attempts);
                letter.timeline = std::mem::take(&mut af.timeline);
                self.report.failures.push(letter);
                continue;
            }
            // The document is folded here, once, and moved into the record.
            let extractors = extractors_of(&steps);
            let outcome = validate_and_encode(
                &af.family,
                fold_steps(steps.into_iter().map(|s| s.metadata)),
                extractors,
                &spec.validation,
            );
            let reason = match outcome {
                Ok((record, bytes)) => {
                    let path = format!("/metadata/fam-{}.json", af.family.id.raw());
                    match dest.backend.write(&path, Bytes::from(bytes)) {
                        Ok(()) => {
                            self.report.records.push(record);
                            continue;
                        }
                        Err(e) => FailureReason::Internal {
                            reason: format!("shipping record failed: {e}"),
                        },
                    }
                }
                Err(XtractError::ValidationFailed { schema, reason }) => {
                    FailureReason::ValidationRejected { schema, reason }
                }
                Err(e) => FailureReason::Internal {
                    reason: e.to_string(),
                },
            };
            self.report
                .failures
                .push(DeadLetter::new(af.family.id, reason, attempts));
        }
        // `report.records` is exactly what validated *and* shipped. Those
        // records replace the families' live wave-loop versions in the
        // serving index as one batch, so each index shard publishes once.
        if let (Some(serving), false) = (&self.serving, self.report.records.is_empty()) {
            let records = self.report.records.len() as u64;
            serving.ingest_all(self.report.records.iter().cloned());
            self.counters.index_ingested.add(records);
            let journal = &service.obs.journal;
            journal.record(Event::IndexValidated { records });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtract_datafabric::{AuthService, DataFabric, MemFs};
    use xtract_faas::FunctionBody;
    use xtract_types::config::ContainerRuntime;
    use xtract_types::FileType;

    const HOME: EndpointId = EndpointId::new(0);
    const ALT: EndpointId = EndpointId::new(1);

    /// A service over two connected compute endpoints, `HOME` with a
    /// staging store and `ALT` with `alt_store`, and a job spec over both.
    fn rig(alt_store: Option<&str>) -> (XtractService, Token, JobSpec) {
        let fabric = Arc::new(DataFabric::new());
        let auth = Arc::new(AuthService::new());
        let token = auth.login(
            "engine-test",
            &[
                Scope::Crawl,
                Scope::Extract,
                Scope::Transfer,
                Scope::Validate,
            ],
        );
        let endpoint = |ep, store: Option<&str>| EndpointSpec {
            endpoint: ep,
            read_path: "/data".into(),
            store_path: store.map(str::to_string),
            available_bytes: 1 << 30,
            workers: Some(1),
            runtime: ContainerRuntime::Docker,
        };
        let mut spec = JobSpec::single_endpoint(endpoint(HOME, Some("/stage")), "/data");
        spec.endpoints.push(endpoint(ALT, alt_store));
        let service = XtractService::new(fabric.clone(), auth, 9);
        for e in &spec.endpoints {
            fabric.register(e.endpoint, "site", Arc::new(MemFs::new(e.endpoint)));
            service.connect_endpoint(e).unwrap();
        }
        (service, token, spec)
    }

    /// A one-file free-text family living on `HOME`: its plan is one
    /// keyword step, and it needs no prefetch.
    fn text_family(id: u64) -> Family {
        let file = FileRecord::new(format!("/data/{id}.txt"), 1, HOME, FileType::FreeText);
        Family::new(FamilyId::new(id), vec![file], Vec::new(), HOME)
    }

    fn engine<'a>(
        service: &'a XtractService,
        token: Token,
        spec: &'a JobSpec,
        ledger: &'a Mutex<RetryLedger>,
    ) -> WaveEngine<'a> {
        let job = JobLink {
            service,
            token,
            spec,
            rec: None,
            tenant: None,
            shard: None,
        };
        WaveEngine::new(job, ledger, &mut Replayed::default()).unwrap()
    }

    /// `reroute`'s storeless-alternative arm: the home breaker is open and
    /// the only healthy alternative has compute but no staging store, so
    /// the restage cannot even be submitted — the family dead-letters with
    /// the typed reason and a "restage" timeline event.
    #[test]
    fn reroute_to_a_storeless_alternative_dead_letters_with_a_restage_event() {
        let (service, token, spec) = rig(None);
        let ledger = Mutex::new(RetryLedger::new(&spec.retry));
        let mut engine = engine(&service, token, &spec, &ledger);
        engine.admit(text_family(1), Vec::new(), 0);
        assert_eq!(engine.active[0].exec, HOME);
        while engine.health.lock().state(HOME) != BreakerState::Open {
            engine.health.lock().record_failure(HOME);
        }

        engine.reroute();

        let af = &engine.active[0];
        assert!(
            matches!(
                &af.failed,
                Some(FailureReason::PrefetchFailed {
                    endpoint: ALT,
                    error: XtractError::NoComputeLayer { endpoint: ALT },
                })
            ),
            "unexpected terminal reason: {:?}",
            af.failed
        );
        let last = af
            .timeline
            .last()
            .expect("a failed restage leaves an event");
        assert_eq!(last.endpoint, ALT);
        assert!(last.note.contains("restage"), "note: {}", last.note);
        assert_eq!(engine.pool.inflight, 0, "nothing was handed to the pool");
    }

    /// What a rebound extractor function does with a task before it
    /// returns an empty result list.
    type Script = Arc<dyn Fn() + Send + Sync>;

    /// Replaces the keyword function at `endpoint` with `script`.
    fn rebind(service: &XtractService, endpoint: EndpointId, script: Script) {
        let registry = service.faas.registry();
        let container =
            registry.register_container("engine-test", ContainerRuntime::Docker, 1 << 20);
        let body: FunctionBody = Arc::new(move |_| {
            script();
            Ok(serde_json::Value::Array(Vec::new()))
        });
        let function = registry
            .register_function("keyword", container, &[endpoint], body)
            .unwrap();
        service
            .functions
            .write()
            .insert((ExtractorKind::Keyword, endpoint), function);
    }

    /// One wave of two families through `batch` → `dispatch` → `poll` over
    /// scripted function bodies; returns the journal's `HedgeWon` and
    /// `HedgeLost` family lists after checking the hedge ledger balances.
    fn hedge_race(
        home: impl Fn(&XtractService) -> Script,
        alt: impl Fn(&XtractService) -> Script,
        poll_window_ms: u64,
        release: Sender<()>,
    ) -> (Vec<FamilyId>, Vec<FamilyId>) {
        let (service, token, mut spec) = rig(Some("/stage"));
        // Every task breaches at once, and a lapsed lease stays lapsed.
        spec.hedge.deadline_ceiling_ms = 1;
        spec.hedge.deadline_floor_ms = 1;
        spec.hedge.watchdog_renew_cooldown_ms = 600_000;
        spec.retry.poll_window_ms = poll_window_ms;
        rebind(&service, HOME, home(&service));
        rebind(&service, ALT, alt(&service));
        let ledger = Mutex::new(RetryLedger::new(&spec.retry));
        let mut engine = engine(&service, token, &spec, &ledger);
        engine.admit(text_family(1), Vec::new(), 0);
        engine.admit(text_family(2), Vec::new(), 0);

        let mut wave = engine.batch().expect("two dispatchable families");
        engine.dispatch(&mut wave).unwrap();
        engine.poll(&mut wave);
        drop(release);

        assert!(wave.entries.iter().all(|e| e.resolved.is_some()));
        let c = &engine.counters;
        assert_eq!(c.hedge_launched.get(), wave.entries.len() as u64);
        assert_eq!(
            c.hedge_launched.get(),
            c.hedge_won.get() + c.hedge_wasted.get()
        );
        let (mut won, mut lost) = (Vec::new(), Vec::new());
        for record in service.obs.journal.events() {
            match record.event {
                Event::HedgeWon { family, winner } => {
                    assert_eq!(winner, ALT);
                    won.push(family);
                }
                Event::HedgeLost { family, loser } => {
                    assert_eq!(loser, ALT);
                    lost.push(family);
                }
                _ => {}
            }
        }
        won.sort();
        lost.sort();
        (won, lost)
    }

    /// `poll`'s four ways out of a hedge race each write the hedge off or
    /// credit it exactly once: one `HedgeWon` or `HedgeLost` per family,
    /// `launched == won + wasted`.
    #[test]
    fn every_hedge_race_ends_in_one_event_per_family() {
        let both = vec![FamilyId::new(1), FamilyId::new(2)];
        // A body parked on `held` runs until the race is over.
        let hold = |held: &Receiver<()>| -> Script {
            let held = held.clone();
            Arc::new(move || {
                let _ = held.recv();
            })
        };
        let lapse = |service: &XtractService, endpoint| -> Script {
            let faas = Arc::clone(&service.faas);
            Arc::new(move || faas.expire_endpoint(endpoint))
        };

        // Original wins: it returns only once its hedge is running.
        let (release, held) = unbounded();
        let (hedge_up, hedge_seen) = unbounded::<()>();
        let alt_hold = hold(&held);
        let raced = hedge_race(
            |_| {
                let hedge_seen = hedge_seen.clone();
                Arc::new(move || {
                    // Bounded, so a hedge that never launches fails the
                    // assertions below instead of hanging the test.
                    let _ = hedge_seen.recv_timeout(Duration::from_secs(10));
                })
            },
            |_| {
                let (hedge_up, alt_hold) = (hedge_up.clone(), alt_hold.clone());
                Arc::new(move || {
                    let _ = hedge_up.send(());
                    alt_hold();
                })
            },
            60_000,
            release,
        );
        assert_eq!(raced, (Vec::new(), both.clone()), "original wins");

        // Hedge wins: the original never returns while the race is on.
        let (release, held) = unbounded();
        let raced = hedge_race(|_| hold(&held), |_| Arc::new(|| {}), 60_000, release);
        assert_eq!(raced, (both.clone(), Vec::new()), "hedge wins");

        // Both dead: each runner's lease lapses under it.
        let (release, _) = unbounded();
        let raced = hedge_race(|s| lapse(s, HOME), |s| lapse(s, ALT), 60_000, release);
        assert_eq!(raced, (Vec::new(), both.clone()), "both dead");

        // Window closed: neither runner returns before the poll window.
        let (release, held) = unbounded();
        let raced = hedge_race(|_| hold(&held), |_| hold(&held), 30, release);
        assert_eq!(raced, (Vec::new(), both), "window closed");
    }
}
