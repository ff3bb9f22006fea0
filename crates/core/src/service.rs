//! The live Xtract service: the end-to-end orchestrator of §3/§4.1,
//! running against real threads, real bytes, and real extractors.
//!
//! Pipeline per job (§3's numbered flow):
//!
//! 1. validate the job and the caller's scopes (Globus-Auth-style);
//! 2. **crawl** every root with the parallel crawler, grouping at crawl
//!    time;
//! 3. pack groups into **min-transfers families** (§4.3.1);
//! 4. **place** each family (source-local if it has compute, otherwise
//!    the primary compute endpoint; the offloader may redirect, §4.3.3);
//! 5. **prefetch** families whose bytes are not at their execution site
//!    (batch transfer + path rewrite, §4.1 "The prefetcher") on a bounded
//!    pool of `staging_workers` that overlaps prefetch with the
//!    extraction waves (§5.6, Fig. 8): already-local families dispatch
//!    while remote ones are still in flight, and transient link faults
//!    retry under the job's [`RetryPolicy`] with deterministic
//!    exponential backoff;
//! 6. run the **extraction waves**: each wave batches every family's next
//!    pending extractor two-level (§4.3.2), submits through the FaaS
//!    fabric, polls, settles each task as it finishes (the fabric forgets
//!    it and its output is decoded by value — one live copy of a result,
//!    see DESIGN.md "Result path"), applies the results in entry order,
//!    extends plans with discoveries, and resubmits lost tasks (heartbeat
//!    semantics, §5.8.1). A family's own step list is the checkpoint: its
//!    plan cursor advances with the step that completes it, so a
//!    resubmitted family never repeats work that already flushed. A
//!    [`HealthTracker`] watches every endpoint: enough consecutive
//!    failures open its circuit breaker, families parked on a dark
//!    endpoint reroute to a healthy one (bytes re-staged from the
//!    origin), and a [`RetryLedger`] bounds each family's total attempts;
//! 7. fold each family's document from its steps, **validate** it into
//!    a record and ship that to the destination endpoint's `/metadata/`
//!    prefix (§3 "Validation").
//!
//! Failure semantics: the orchestrator never panics on a faulted
//! substrate. Every family a job ingests terminates in exactly one of
//! the report's `records` (success) or `failures` (a typed
//! [`DeadLetter`]) — the chaos tests assert this partition at every
//! injected fault rate.

use crate::adaptive::{AdaptiveTuner, BatchLimits, TuneDecision, WaveEvidence};
use crate::batcher::{Batcher, XtractBatch};
use crate::families::build_families;
use crate::offload::{Offloader, Placement};
use crate::payload::{decode_owned, encode_batch, make_function_body, FamilyResult};
use crate::planner::ExtractionPlan;
use crate::recovery::{spec_fingerprint, MigratedStep, RecoveryLog, RecoveryRecord};
use crate::resilience::{BreakerState, HealthTracker, RetryLedger};
use crate::shard::{Migrant, ShardLink};
use crate::staging::{stage_salt_base, StageOutcome, StageRequest, StagedFamily};
use crate::tenancy::TenantCtx;
use crate::validator::validate_and_encode;
use bytes::Bytes;
use crossbeam_channel::unbounded;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract_crawler::{Crawler, CrawlerConfig};
use xtract_datafabric::{AuthService, DataFabric, Scope, Token, TransferRequest, TransferService};
use xtract_extractors::{library, Extractor};
use xtract_faas::{EndpointConfig, FaasService, FunctionRegistry, TaskSpec, TaskStatus};
use xtract_index::SearchIndex;
use xtract_obs::{Event, EventJournal, Histogram, Obs, Phase, PhaseTimings, SpanUnion};
use xtract_sim::RngStreams;
use xtract_types::id::IdAllocator;
use xtract_types::{
    ContainerId, CrashPoint, DeadLetter, EndpointId, EndpointSpec, ExtractorKind, FailureEvent,
    FailureReason, Family, FamilyId, FaultPlan, FileRecord, FunctionId, HedgePolicy, JobSpec,
    Metadata, MetadataRecord, OrchestratorCrash, QuotaResource, Result, RetryPolicy, TaskId,
    XtractError,
};

/// Outcome of one job. Serde: a cross-process shard worker returns its
/// report to the coordinator over the wire, and the CLI's coordinator
/// entrypoint persists the merged report as JSON.
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct JobReport {
    /// Files discovered by the crawl.
    pub crawled_files: u64,
    /// Groups emitted by grouping functions.
    pub groups: u64,
    /// Families after min-transfers.
    pub families: u64,
    /// Validated metadata records, by family.
    pub records: Vec<MetadataRecord>,
    /// Terminal failures: one dead letter per abandoned family.
    pub failures: Vec<DeadLetter>,
    /// Extractor invocations by name (Table 3's "Total Invocations").
    pub invocations: HashMap<String, u64>,
    /// Bytes the prefetcher moved.
    pub bytes_prefetched: u64,
    /// Redundant transfers min-transfers could not avoid.
    pub redundant_files: u64,
    /// Extraction waves executed.
    pub waves: u32,
    /// Family-steps that were lost (expiry, crash, blackout) at least once
    /// and resubmitted.
    pub resubmitted: u64,
    /// Families moved to another endpoint after their home's circuit
    /// breaker opened.
    pub rerouted: u64,
    /// Wall-clock seconds per pipeline phase (crawl → plan → stage →
    /// dispatch → extract → index).
    pub phases: PhaseTimings,
    /// True when this report came from replaying a recovery log with
    /// prior progress (a [`XtractService::resume_job`] that found work).
    pub resumed: bool,
    /// Valid records replayed from the recovery log at open (0 for jobs
    /// run without a log).
    pub replayed_records: u64,
    /// Torn trailing records truncated from the recovery log at open.
    pub truncated_records: u64,
    /// Job-relative `[start, end]` intervals (seconds) behind the phase
    /// buckets. Sharded runs merge their shards' spans through a
    /// [`SpanUnion`] per phase, so `phases` stays wall-clock-honest
    /// while concurrent shard work overlaps.
    pub phase_spans: Vec<(Phase, f64, f64)>,
    /// Shard wave loops the job ran (0 for unsharded runs).
    pub shards: u64,
    /// Families migrated between shards (work stealing plus orphan
    /// adoption).
    pub stolen_families: u64,
    /// Shard wave loops that died mid-run and had their work adopted.
    pub shard_deaths: u64,
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
    kind: ExtractorKind,
    fams: Vec<FamilyId>,
    /// The original Xtract batch, kept so a hedge can re-encode the same
    /// payload for a different endpoint.
    batch: XtractBatch,
    /// The speculative duplicate: `(task, endpoint)`.
    hedge: Option<(TaskId, EndpointId)>,
    /// How the entry settled and the endpoint that settled it.
    resolved: Option<(Resolution, EndpointId)>,
    /// The deadline breach already scored this entry's endpoint (breach
    /// accounting and hedge launch are one-shot per entry).
    breached: bool,
}

/// The recovery log a run borrows, plus what opening it found. Built once
/// per job by [`XtractService::open_recovery`], which hands the state the
/// log's records *describe* back beside it as a [`Replayed`]; `resumed` is
/// false when the log held no prior progress.
pub(crate) struct RecoveryCtx {
    pub(crate) log: RecoveryLog,
    /// [`spec_fingerprint`] of the owning spec, re-stated by snapshots.
    pub(crate) fingerprint: u64,
    pub(crate) resumed: bool,
    pub(crate) replayed: u64,
    pub(crate) truncated: u64,
}

/// The state a log replays into, built by the one replay fold
/// ([`Replayed::fold`]) that a resuming run and the shard coordinator's
/// ownership resolution and orphan adoption all read. Each piece has
/// exactly one reader per fold, so it travels by value: the wave loop takes
/// a family's replayed steps over as that family's own step list instead of
/// copying them. Empty for a job without a log or with a fresh one.
#[derive(Default)]
pub(crate) struct Replayed {
    /// The families the log currently plans, in placement order —
    /// replaying them skips the crawl and pins family identity across the
    /// resume. A migration out-record vacates its family's place, an
    /// in-record appends one.
    pub(crate) planned: Vec<Family>,
    /// Each family's completed steps, in journal order: its
    /// `StepCompleted` records and the steps its migration in-records
    /// carried, one per extractor kind (a carried step the log already
    /// holds is not taken twice).
    pub(crate) steps: HashMap<FamilyId, Vec<MigratedStep>>,
    /// Total retry attempts charged per family across prior runs.
    pub(crate) charges: HashMap<FamilyId, u32>,
    /// Dead letters from prior runs (latest per family wins).
    pub(crate) dead: HashMap<FamilyId, DeadLetter>,
    /// Families this log handed away and never took back: the last
    /// out-record's payload (family, steps, charges), so an aborted
    /// hand-over can be audited and re-routed from the donor's side alone.
    pub(crate) departed: HashMap<FamilyId, (Family, Vec<MigratedStep>, u32)>,
    /// Crash points already recorded, in order — their count is the
    /// cursor into the fault plan's ordered crash schedule.
    pub(crate) crash_points: Vec<String>,
    /// Crawl totals from a replayed `CrawlCompleted` record.
    pub(crate) crawl: Option<(u64, u64, u64)>,
    /// Committed waves replayed from the log — the adaptive batching
    /// controller warm-starts from this count (its state is recomputed
    /// from replayed evidence, never persisted).
    pub(crate) waves: u64,
    /// Root-WAL only: the coordinator's last brokered placement per
    /// family (`CustodyMoved` records) — the chain-walk hint for
    /// hand-overs that crashed between out-record and in-record.
    pub(crate) custody: HashMap<FamilyId, u64>,
}

impl Replayed {
    /// Folds a log's live records — everything after its last snapshot
    /// boundary, by value — into the state they describe. Per family the
    /// outcome depends only on that family's records in their journal
    /// order, so a snapshot may restate families in any order.
    pub(crate) fn fold(records: Vec<RecoveryRecord>) -> Self {
        fn push_step(have: &mut Vec<MigratedStep>, step: MigratedStep) {
            if !have.iter().any(|h| h.kind == step.kind) {
                have.push(step);
            }
        }
        let mut st = Self::default();
        // The plan while it replays: a migration vacates its family's slot
        // (found through `slot_of`, not by scanning the plan) and an
        // adoption appends a new one; the survivors, in slot order, are
        // the placement order.
        let mut planned: Vec<Option<Family>> = Vec::new();
        let mut slot_of: HashMap<FamilyId, usize> = HashMap::new();
        for r in records {
            match r {
                RecoveryRecord::CrawlCompleted {
                    crawled_files,
                    groups,
                    redundant_files,
                } => {
                    st.crawl = Some((crawled_files, groups, redundant_files));
                    // A fresh crawl supersedes any earlier plan.
                    planned.clear();
                    slot_of.clear();
                }
                RecoveryRecord::FamilyPlanned { family } => {
                    slot_of.insert(family.id, planned.len());
                    planned.push(Some(family));
                }
                RecoveryRecord::StepCompleted {
                    family,
                    kind,
                    metadata,
                    discoveries,
                } => push_step(
                    st.steps.entry(family).or_default(),
                    MigratedStep {
                        kind,
                        metadata,
                        discoveries,
                    },
                ),
                RecoveryRecord::RetryCharged { family, amount } => {
                    *st.charges.entry(family).or_insert(0) += amount;
                }
                RecoveryRecord::DeadLettered { letter } => {
                    st.dead.insert(letter.family, letter);
                }
                RecoveryRecord::CrashRecorded { point } => st.crash_points.push(point),
                RecoveryRecord::WaveCommitted { .. } => st.waves += 1,
                RecoveryRecord::FamilyMigrated {
                    family,
                    adopted,
                    steps,
                    charges,
                    ..
                } => {
                    if adopted {
                        // The family moved here: (re)plan it and carry
                        // its cross-shard progress like local history.
                        if let Some(old) = slot_of.insert(family.id, planned.len()) {
                            planned[old] = None;
                        }
                        st.departed.remove(&family.id);
                        let have = st.steps.entry(family.id).or_default();
                        for s in steps {
                            push_step(have, s);
                        }
                        // The carried count is the family's total at
                        // hand-over; local `RetryCharged` deltas appended
                        // after this record add on top.
                        let cur = st.charges.entry(family.id).or_insert(0);
                        *cur = (*cur).max(charges);
                        planned.push(Some(family));
                    } else {
                        if let Some(old) = slot_of.remove(&family.id) {
                            planned[old] = None;
                        }
                        st.departed.insert(family.id, (family, steps, charges));
                    }
                }
                RecoveryRecord::CustodyMoved { family, to, .. } => {
                    st.custody.insert(family, to);
                }
                _ => {}
            }
        }
        st.planned = planned.into_iter().flatten().collect();
        st
    }
}

/// The run's armed scheduled-crash entry, if any: entry `k` of
/// [`FaultPlan::orchestrator_crashes`] arms once `k` crashes are already
/// in the log, and fires at its `at_occurrence`-th pass of its point
/// (occurrences counted from the start of this run segment).
#[derive(Default)]
struct CrashSchedule {
    armed: Option<OrchestratorCrash>,
    seen: u64,
}

impl CrashSchedule {
    fn arm(plan: Option<&FaultPlan>, crashes_done: u64) -> Self {
        Self {
            armed: plan.and_then(|p| p.scheduled_crash(crashes_done)).copied(),
            seen: 0,
        }
    }

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

/// The error a scheduled kill surfaces as.
fn killed(point: CrashPoint) -> XtractError {
    XtractError::OrchestratorKilled {
        point: point.name().to_string(),
    }
}

/// A `CrashRecorded` record for `point`.
fn crash_record(point: CrashPoint) -> RecoveryRecord {
    RecoveryRecord::CrashRecorded {
        point: point.name().to_string(),
    }
}

/// Bucket bounds (seconds) for the completion-latency histogram the
/// adaptive deadline derives from.
const LATENCY_BOUNDS_S: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
];

/// The wave's adaptive per-task deadline: the observed completion-latency
/// quantile times the policy multiplier, clamped to the policy floor and
/// ceiling (and never past the hard poll window). Falls back to the
/// ceiling until enough samples accumulate, and to the flat poll window
/// when the straggler defense is disabled.
fn adaptive_deadline(latency: &Histogram, hedge: &HedgePolicy, retry: &RetryPolicy) -> Duration {
    if !hedge.enabled {
        return Duration::from_millis(retry.poll_window_ms);
    }
    let ceiling = hedge.deadline_ceiling_ms.min(retry.poll_window_ms).max(1);
    if latency.count() >= hedge.min_latency_samples {
        if let Some(q) = latency.quantile(hedge.latency_quantile) {
            let ms = (q * 1000.0 * hedge.deadline_multiplier).ceil() as u64;
            return Duration::from_millis(ms.max(hedge.deadline_floor_ms).min(ceiling));
        }
    }
    Duration::from_millis(ceiling)
}

/// Charges one lost/crashed step against every family in a funcX task:
/// the step stays pending (the next wave resubmits with a fresh task id)
/// until the per-step or per-family budget runs out, at which point the
/// family dead-letters with [`FailureReason::RetryBudgetExhausted`].
#[allow(clippy::too_many_arguments)]
fn charge_step_loss(
    active: &mut [ActiveFamily],
    index: &HashMap<FamilyId, usize>,
    fams: &[FamilyId],
    kind: ExtractorKind,
    error: &XtractError,
    note: &str,
    retry: &RetryPolicy,
    ledger: &mut RetryLedger,
    health: &mut HealthTracker,
    report: &mut JobReport,
    journal: &EventJournal,
) {
    let mut endpoint = None;
    for fid in fams {
        let Some(&i) = index.get(fid) else { continue };
        let af = &mut active[i];
        endpoint = Some(af.exec);
        report.resubmitted += 1;
        let n = af.attempts.entry(kind).or_insert(0);
        *n += 1;
        af.timeline.push(FailureEvent {
            wave: health.now(),
            endpoint: af.exec,
            note: format!("{note} (attempt {n})"),
        });
        journal.record(Event::Retry {
            family: af.family.id,
            attempt: *n,
            note: note.to_string(),
        });
        let within_budget = ledger.charge(af.family.id);
        if *n >= retry.task_attempts || !within_budget {
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

/// Folds one staging-pool outcome back into the wave loop's state: the
/// staged family replaces the origin view (success) or the family
/// dead-letters with a timeline event (failure — restages included, so no
/// dead letter ships with a silent reroute). Every outcome's span joins
/// the overlap-aware `Stage` accounting.
fn apply_stage_outcome(
    outcome: StageOutcome,
    active: &mut [ActiveFamily],
    report: &mut JobReport,
    health: &mut HealthTracker,
    stage_spans: &mut SpanUnion,
    journal: &EventJournal,
) {
    stage_spans.add(outcome.started_s, outcome.finished_s);
    let af = &mut active[outcome.index];
    af.staging = false;
    // Even a failed pass may have landed some files before the fault hit;
    // remember the site regardless so cleanup sweeps it (the fix for the
    // staged-copy leak: *every* site, not just the final exec home).
    af.staged_sites.push((outcome.exec, outcome.base));
    journal.record(Event::StagingFinished {
        family: af.family.id,
        destination: outcome.exec,
        ok: outcome.result.is_ok(),
    });
    match outcome.result {
        Ok(staged) => {
            af.family = staged.family;
            report.bytes_prefetched += staged.bytes;
            health.record_success(outcome.exec);
            if outcome.generation > 0 {
                let old = af.exec;
                af.exec = outcome.exec;
                report.rerouted += 1;
                af.timeline.push(FailureEvent {
                    wave: health.now(),
                    endpoint: outcome.exec,
                    note: format!("rerouted from {old} to {}", outcome.exec),
                });
            }
        }
        Err(reason) => {
            health.record_failure(outcome.exec);
            let note = if outcome.generation > 0 {
                format!("restage at {} failed: {reason}", outcome.exec)
            } else {
                reason.to_string()
            };
            af.timeline.push(FailureEvent {
                wave: health.now(),
                endpoint: outcome.exec,
                note,
            });
            af.failed = Some(reason);
        }
    }
}

/// The live Xtract service.
pub struct XtractService {
    fabric: Arc<DataFabric>,
    auth: Arc<AuthService>,
    transfer: Arc<TransferService>,
    faas: Arc<FaasService>,
    pub(crate) obs: Obs,
    library: HashMap<ExtractorKind, Arc<dyn Extractor>>,
    functions: parking_lot::RwLock<HashMap<(ExtractorKind, EndpointId), FunctionId>>,
    containers: parking_lot::RwLock<HashMap<ExtractorKind, Vec<ContainerId>>>,
    family_ids: IdAllocator,
    streams: RngStreams,
    /// The live serving index, created on the first job that opts into
    /// [`xtract_types::IndexPolicy`] ingest (that job's shard count
    /// wins) and shared by every job thereafter.
    serving: parking_lot::RwLock<Option<Arc<SearchIndex>>>,
}

impl XtractService {
    /// A service over a data fabric and auth provider. Every substrate —
    /// FaaS fabric, transfer service, crawler, breakers — reports into one
    /// shared [`Obs`] bundle, readable via [`Self::obs`].
    pub fn new(fabric: Arc<DataFabric>, auth: Arc<AuthService>, seed: u64) -> Self {
        let obs = Obs::new();
        let registry = Arc::new(FunctionRegistry::new());
        let faas = Arc::new(FaasService::with_obs(registry, obs.clone()));
        Self {
            transfer: Arc::new(TransferService::with_obs(
                fabric.clone(),
                auth.clone(),
                obs.clone(),
            )),
            fabric,
            auth,
            faas,
            obs,
            library: library(),
            functions: parking_lot::RwLock::new(HashMap::new()),
            containers: parking_lot::RwLock::new(HashMap::new()),
            family_ids: IdAllocator::new(),
            streams: RngStreams::new(seed),
            serving: parking_lot::RwLock::new(None),
        }
    }

    /// The live serving index, if any job has opted into index ingest
    /// yet. Readers query it lock-free against per-shard snapshots while
    /// jobs continue to ingest.
    pub fn index(&self) -> Option<Arc<SearchIndex>> {
        self.serving.read().clone()
    }

    /// Gets or creates the serving index; the first opting job's shard
    /// count wins.
    fn serving_index(&self, shards: usize) -> Arc<SearchIndex> {
        let mut slot = self.serving.write();
        match &*slot {
            Some(idx) => Arc::clone(idx),
            None => {
                let idx = Arc::new(SearchIndex::with_shards(shards));
                *slot = Some(Arc::clone(&idx));
                idx
            }
        }
    }

    /// The underlying transfer service (byte accounting for experiments).
    pub fn transfer_service(&self) -> &Arc<TransferService> {
        &self.transfer
    }

    /// The underlying FaaS fabric (statistics, fault injection).
    pub fn faas(&self) -> &Arc<FaasService> {
        &self.faas
    }

    /// The service's observability bundle: the metrics hub every substrate
    /// reports into and the journal of typed events.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Connects an endpoint's compute layer and registers every extractor
    /// for it (the §4.1 `function:container:endpoints` tuples).
    pub fn connect_endpoint(&self, spec: &EndpointSpec) -> Result<()> {
        let Some(workers) = spec.workers.filter(|&w| w > 0) else {
            return Ok(()); // storage-only endpoint: nothing to connect
        };
        self.faas
            .registry()
            .declare_endpoint(spec.endpoint, spec.runtime);
        self.faas
            .connect_endpoint(EndpointConfig::instant(spec.endpoint, workers));
        for (&kind, extractor) in &self.library {
            let container = self.faas.registry().register_container(
                format!("xtract-{}:{:?}", kind.name(), spec.runtime),
                spec.runtime,
                256 << 20,
            );
            self.containers
                .write()
                .entry(kind)
                .or_default()
                .push(container);
            let body = make_function_body(extractor.clone(), self.fabric.clone());
            let function = self.faas.registry().register_function(
                kind.name(),
                container,
                &[spec.endpoint],
                body,
            )?;
            self.functions
                .write()
                .insert((kind, spec.endpoint), function);
        }
        Ok(())
    }

    fn function_for(&self, kind: ExtractorKind, endpoint: EndpointId) -> Result<FunctionId> {
        self.functions.read().get(&(kind, endpoint)).copied().ok_or(
            XtractError::NoCompatibleEndpoint {
                container: format!("{} @ {endpoint}", kind.name()),
            },
        )
    }

    /// A connected compute endpoint other than `current` whose breaker
    /// admits work, if any (the graceful-degradation and hedge target).
    /// Endpoints whose decaying straggler score sits in quarantine are
    /// deprioritized: any non-quarantined candidate wins first, and a
    /// quarantined one is offered only when nothing cleaner exists.
    fn healthy_alternative(
        &self,
        current: EndpointId,
        spec: &JobSpec,
        health: &HealthTracker,
    ) -> Option<EndpointId> {
        let mut fallback = None;
        for ep in spec
            .endpoints
            .iter()
            .filter(|e| e.has_compute() && e.endpoint != current)
            .map(|e| e.endpoint)
            .filter(|&ep| health.available(ep) && self.faas.endpoint(ep).is_some())
        {
            if !health.quarantined(ep) {
                return Some(ep);
            }
            fallback.get_or_insert(ep);
        }
        fallback
    }

    /// Submits a speculative duplicate of `batch` at `alt` (same payload,
    /// re-encoded for the alternative endpoint's registered function).
    fn submit_hedge(&self, batch: &XtractBatch, alt: EndpointId) -> Result<TaskId> {
        let function = self.function_for(batch.extractor, alt)?;
        let ids = self.faas.batch_submit_owned(vec![TaskSpec {
            function,
            endpoint: alt,
            payload: encode_batch(batch, false),
        }]);
        Ok(ids[0])
    }

    /// Settles `entry` with the status that decided it. The fabric forgets
    /// the entry's task ids first — nothing polls them again, and with the
    /// table's row gone the status holds the last handle to a `Done`
    /// output — then only the [`Resolution`] is parked on the entry.
    fn settle(&self, entry: &mut WaveEntry, status: TaskStatus, winner: EndpointId) {
        match entry.hedge {
            Some((hedge, _)) => self.faas.forget(&[entry.id, hedge]),
            None => self.faas.forget(&[entry.id]),
        }
        entry.resolved = Some((Resolution::of(status), winner));
    }

    /// Stages `origin_files` (living at `origin_source`) under `exec`'s
    /// store, retrying transient faults under the retry policy: each
    /// attempt re-submits only the files that failed, under a fresh fault
    /// salt, after a deterministic exponential-backoff delay. On success
    /// the family's records are rewritten to the staged copies. Runs on
    /// staging-pool workers, so the ledger arrives behind a mutex.
    #[allow(clippy::too_many_arguments)]
    fn stage_family(
        &self,
        token: Token,
        family: &mut Family,
        origin_source: EndpointId,
        origin_files: &[FileRecord],
        exec: EndpointId,
        store: &str,
        retry: &RetryPolicy,
        ledger: &Mutex<RetryLedger>,
        tenant: Option<&Arc<TenantCtx>>,
        salt_base: u64,
    ) -> std::result::Result<u64, FailureReason> {
        let base = format!("{store}/fam-{}", family.id.raw());
        let sizes: HashMap<&str, u64> = origin_files
            .iter()
            .map(|f| (f.path.as_str(), f.size))
            .collect();
        let mut pending: Vec<(String, String)> = origin_files
            .iter()
            .map(|f| (f.path.clone(), format!("{base}{}", f.path)))
            .collect();
        let mut moved = 0u64;
        let mut last_err = XtractError::Internal {
            reason: "no transfer attempted".to_string(),
        };
        for attempt in 0..retry.transfer_attempts {
            if attempt > 0 {
                ledger.lock().charge(family.id);
                std::thread::sleep(Duration::from_millis(
                    retry.delay_ms(attempt, family.id.raw()),
                ));
            }
            // Tenant quota: every attempt's bytes are charged before the
            // transfer is requested (re-attempts resubmit only the failed
            // remainder, so they charge only that remainder). A refusal
            // fails the stage with the typed quota error in the reason.
            if let Some(t) = tenant {
                let attempt_bytes: u64 = pending
                    .iter()
                    .map(|(src, _)| sizes.get(src.as_str()).copied().unwrap_or(0))
                    .sum();
                if let Err(e) = t.charge(QuotaResource::TransferBytes, attempt_bytes) {
                    return Err(FailureReason::PrefetchFailed {
                        endpoint: exec,
                        error: e,
                    });
                }
            }
            let request = TransferRequest {
                source: origin_source,
                destination: exec,
                files: pending.clone(),
            };
            match self
                .transfer
                .submit_with_salt(token, &request, salt_base + attempt as u64)
            {
                Ok(id) => {
                    let Some(receipt) = self.transfer.status(id) else {
                        last_err = XtractError::Internal {
                            reason: "transfer receipt missing".to_string(),
                        };
                        continue;
                    };
                    moved += receipt.bytes_moved;
                    if receipt.is_complete() {
                        family.files = origin_files
                            .iter()
                            .map(|f| {
                                let mut staged = f.clone();
                                staged.path = format!("{base}{}", f.path);
                                staged.endpoint = exec;
                                staged
                            })
                            .collect();
                        family.base_path = Some(base);
                        family.source = exec;
                        return Ok(moved);
                    }
                    last_err = XtractError::TransferFailed {
                        transfer: id,
                        reason: receipt
                            .failed
                            .first()
                            .map(|(_, why)| why.to_string())
                            .unwrap_or_else(|| "transfer incomplete".to_string()),
                    };
                    pending = receipt
                        .failed
                        .iter()
                        .map(|(p, _)| (p.clone(), format!("{base}{p}")))
                        .collect();
                }
                Err(e) => last_err = e,
            }
        }
        Err(FailureReason::PrefetchFailed {
            endpoint: exec,
            error: last_err,
        })
    }

    /// One staging-pool work item: stage the request's family and stamp
    /// the outcome with its concurrent span (offsets from `job_started`).
    fn execute_stage_request(
        &self,
        token: Token,
        req: StageRequest,
        retry: &RetryPolicy,
        ledger: &Mutex<RetryLedger>,
        tenant: Option<&Arc<TenantCtx>>,
        job_started: Instant,
    ) -> StageOutcome {
        let started_s = job_started.elapsed().as_secs_f64();
        let base = format!("{}/fam-{}", req.store, req.family.id.raw());
        let mut family = req.family;
        let result = self
            .stage_family(
                token,
                &mut family,
                req.origin_source,
                &req.origin_files,
                req.exec,
                &req.store,
                retry,
                ledger,
                tenant,
                req.salt_base,
            )
            .map(|bytes| StagedFamily { family, bytes });
        StageOutcome {
            index: req.index,
            generation: req.generation,
            exec: req.exec,
            base,
            result,
            started_s,
            finished_s: job_started.elapsed().as_secs_f64(),
        }
    }

    /// Stages 2+3, overlapped: crawl on background threads while the
    /// service packages min-transfers families from directories as they
    /// stream in ("the crawler asynchronously enqueues it for processing
    /// by the Xtract service", §4.3.1; §5.8.1: extraction state is ready
    /// "within 3 seconds of the crawler being initiated"). Fills the
    /// report's crawl totals and `families` with the job's plan.
    fn crawl_and_plan(
        &self,
        spec: &JobSpec,
        report: &mut JobReport,
        families: &mut Vec<Family>,
    ) -> Result<()> {
        let (tx, rx) = unbounded();
        let mut crawl_threads = Vec::with_capacity(spec.roots.len());
        for (ep, root) in &spec.roots {
            let backend = self.fabric.get(*ep)?.backend;
            let tx = tx.clone();
            let ep = *ep;
            let root = root.clone();
            let workers = spec.crawl_workers;
            let grouping = spec.grouping;
            let obs = self.obs.clone();
            crawl_threads.push(std::thread::spawn(move || {
                // Label the crawl.* counters with this endpoint so the hub
                // keeps per-endpoint crawl rates apart (Fig. 4, §5.8.1)
                // and CrawlProgress events report the endpoint they name;
                // counter_sum("crawl.files") recovers the aggregate.
                let label = ep.to_string();
                let crawler = Crawler::with_obs_labeled(
                    CrawlerConfig { workers, grouping },
                    obs,
                    Some(&label),
                );
                crawler.crawl(ep, &backend, &[root], tx)
            }));
        }
        drop(tx);

        for (dir_i, dir) in rx.into_iter().enumerate() {
            report.crawled_files += dir.files.len() as u64;
            report.groups += dir.groups.len() as u64;
            if dir.groups.is_empty() {
                continue;
            }
            let file_map: HashMap<String, xtract_types::FileRecord> = dir
                .files
                .iter()
                .map(|f| (f.path.clone(), f.clone()))
                .collect();
            let mut rng = self.streams.substream("min-transfers", dir_i as u64);
            let set = build_families(
                &file_map,
                dir.groups,
                dir.endpoint,
                spec.max_family_size,
                &self.family_ids,
                &mut rng,
            );
            report.redundant_files += set.redundant_files;
            families.extend(set.families);
        }
        for handle in crawl_threads {
            handle.join().map_err(|_| XtractError::Internal {
                reason: "crawl thread panicked".to_string(),
            })??;
        }
        Ok(())
    }

    /// Stages 2+3 for any run, logged or not: the journaled plan when the
    /// log holds one, else a crawl whose totals and plan one group commit
    /// makes durable before any extraction work depends on them. Fills the
    /// report's crawl totals, family count and crawl phase on `started`'s
    /// clock.
    ///
    /// A resumed job with a journaled plan skips the crawl entirely:
    /// replaying `FamilyPlanned` records both saves the re-crawl and pins
    /// family identity — ids match the original run even though the
    /// allocator has moved on. A shard runner (`replay_only`) never crawls:
    /// the root did, and its plan is whatever its WAL holds — nothing, when
    /// every family it was seeded with has since moved on (a crawl of its
    /// own would run the whole corpus again under fresh ids).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_or_crawl_plan(
        &self,
        spec: &JobSpec,
        rec: Option<&RecoveryCtx>,
        planned: Vec<Family>,
        replayed_crawl: Option<(u64, u64, u64)>,
        replay_only: bool,
        started: Instant,
        report: &mut JobReport,
    ) -> Result<Vec<Family>> {
        let t0 = started.elapsed().as_secs_f64();
        let replay = replay_only || (rec.is_some_and(|c| c.resumed) && !planned.is_empty());
        let mut families = planned;
        if replay {
            let (crawled, groups, redundant) = replayed_crawl.unwrap_or((0, 0, 0));
            report.crawled_files = crawled;
            report.groups = groups;
            report.redundant_files = redundant;
        } else {
            self.crawl_and_plan(spec, report, &mut families)?;
        }
        report.families = families.len() as u64;
        let t1 = started.elapsed().as_secs_f64();
        report.phases.add(Phase::Crawl, t1 - t0);
        report.phase_spans.push((Phase::Crawl, t0, t1));
        if let (Some(ctx), false) = (rec, replay) {
            let crawl = RecoveryRecord::CrawlCompleted {
                crawled_files: report.crawled_files,
                groups: report.groups,
                redundant_files: report.redundant_files,
            };
            ctx.log.append_plan(&crawl, &families)?;
        }
        Ok(families)
    }

    /// Runs a bulk extraction job to completion.
    pub fn run_job(&self, token: Token, spec: &JobSpec) -> Result<JobReport> {
        self.run_job_at(token, spec, None, None)
    }

    /// As [`Self::run_job`], with the job charged to a tenant: FaaS
    /// invocations, staged transfer bytes, and retry attempts draw down
    /// the tenant's quota ledger *before* they are consumed, and the
    /// tenant's shared [`HealthTracker`] carries breaker and quarantine
    /// state across all of its jobs. A `None` tenant behaves exactly
    /// like [`Self::run_job`].
    pub fn run_job_as(
        &self,
        token: Token,
        spec: &JobSpec,
        tenant: Option<&Arc<TenantCtx>>,
    ) -> Result<JobReport> {
        self.run_job_at(token, spec, None, tenant)
    }

    /// Runs a job with a durable recovery log rooted at `dir`: every
    /// commit-worthy transition (crawl done, family planned, step
    /// flushed, retry charged, hedge resolved, family dead-lettered) is
    /// journaled before the job advances past it, so a crash at any
    /// point leaves a log [`Self::resume_job`] can replay. A log with
    /// prior progress is resumed rather than restarted.
    pub fn run_job_with_recovery(
        &self,
        token: Token,
        spec: &JobSpec,
        dir: &Path,
    ) -> Result<JobReport> {
        self.run_job_at(token, spec, Some(dir), None)
    }

    /// As [`Self::run_job_with_recovery`], charged to a tenant (see
    /// [`Self::run_job_as`]).
    pub fn run_job_with_recovery_as(
        &self,
        token: Token,
        spec: &JobSpec,
        dir: &Path,
        tenant: Option<&Arc<TenantCtx>>,
    ) -> Result<JobReport> {
        self.run_job_at(token, spec, Some(dir), tenant)
    }

    /// Resumes a previously-interrupted job from the recovery log at
    /// `dir`: verifies the spec fingerprint (a log never replays into a
    /// different job — [`XtractError::SpecFingerprintMismatch`]),
    /// truncates any torn tail, finishes an interrupted compaction,
    /// rehydrates each family's step list / retry ledger / dead letters,
    /// skips the crawl and every journaled step, and runs whatever
    /// remains — converging to a report equivalent to an uninterrupted
    /// run's. A log with no prior records degrades to a fresh run.
    pub fn resume_job(&self, token: Token, spec: &JobSpec, dir: &Path) -> Result<JobReport> {
        self.run_job_at(token, spec, Some(dir), None)
    }

    fn run_job_at(
        &self,
        token: Token,
        spec: &JobSpec,
        dir: Option<&Path>,
        tenant: Option<&Arc<TenantCtx>>,
    ) -> Result<JobReport> {
        spec.validate()
            .map_err(|reason| XtractError::InvalidJob { reason })?;
        self.auth.check(token, Scope::Crawl)?;
        self.auth.check(token, Scope::Extract)?;
        // A sharded run fans the plan out over N wave loops, each with
        // its own WAL subdirectory under the job's log dir.
        let sharded = spec.shard.enabled && spec.shard.shards > 1;
        if sharded && dir.is_none() {
            return Err(XtractError::InvalidJob {
                reason: "sharded runs need a recovery log dir (shard WALs live under it)"
                    .to_string(),
            });
        }
        // Arm the job's structured fault plan on both substrates for the
        // duration of the run (and disarm afterwards, pass or fail).
        if let Some(plan) = &spec.fault_plan {
            self.arm_faults(plan);
        }
        let result = match dir {
            Some(dir) if sharded => crate::shard::run_sharded(self, token, spec, dir, tenant),
            _ => dir
                .map(|dir| self.open_recovery(spec, dir, None))
                .transpose()
                .and_then(|opened| {
                    let (rec, replayed) = opened.unzip();
                    let replayed = replayed.unwrap_or_default();
                    self.run_job_inner(token, spec, rec.as_ref(), replayed, tenant, None)
                }),
        };
        if spec.fault_plan.is_some() {
            self.clear_faults();
        }
        result
    }

    /// Arms a structured fault plan on both substrates. Shard-worker
    /// processes call this directly (via [`crate::transport::run_worker`]):
    /// they enter the wave loop through [`Self::run_job_inner`], below
    /// the [`Self::run_job_at`] dispatch that normally arms faults.
    pub(crate) fn arm_faults(&self, plan: &FaultPlan) {
        self.transfer.arm_fault_plan(plan.clone());
        self.faas.arm_fault_plan(plan.clone());
    }

    /// Disarms any armed fault plan on both substrates.
    pub(crate) fn clear_faults(&self) {
        self.transfer.clear_faults();
        self.faas.clear_faults();
    }

    /// Opens the recovery log at `dir` and replays it into a
    /// [`RecoveryCtx`] and the [`Replayed`] state beside it (the replayed
    /// records move into that state; nothing is copied out of them),
    /// emitting the recovery observability surface:
    /// `recovery.replayed` / `recovery.truncated` counters account for
    /// every record the log held (valid and torn respectively), and the
    /// journal records the open, any truncation, any finished
    /// compaction, and the resume itself.
    pub(crate) fn open_recovery(
        &self,
        spec: &JobSpec,
        dir: &Path,
        label: Option<&str>,
    ) -> Result<(RecoveryCtx, Replayed)> {
        let fingerprint = spec_fingerprint(spec);
        let (log, replay) = RecoveryLog::open(dir, spec.recovery)?;
        // Sharded runs label the recovery counters per shard WAL;
        // `counter_sum` still recovers the aggregate, and the unsharded
        // path stays on the unlabeled cells.
        self.obs
            .hub
            .counter_with("recovery.replayed", label)
            .add(replay.records.len() as u64);
        self.obs
            .hub
            .counter_with("recovery.truncated", label)
            .add(replay.truncated_records);
        self.obs.journal.record(Event::RecoveryLogOpened {
            segments: replay.segments,
            records: replay.records.len() as u64,
        });
        if let Some(segment) = replay.truncated_segment {
            self.obs.journal.record(Event::RecordTruncated {
                segment,
                bytes: replay.truncated_bytes,
            });
        }
        let mut ctx = RecoveryCtx {
            log,
            fingerprint,
            resumed: false,
            replayed: replay.records.len() as u64,
            truncated: replay.truncated_records,
        };
        let found = replay.fingerprint();
        let boundary_segment = replay.boundary_segment;
        let effective = replay.into_effective();
        if effective.is_empty() {
            // A fresh log: stamp the job identity before anything else.
            ctx.log
                .append(&RecoveryRecord::JobStarted { fingerprint })?;
            return Ok((ctx, Replayed::default()));
        }
        if let Some(found) = found {
            if found != fingerprint {
                return Err(XtractError::SpecFingerprintMismatch {
                    expected: fingerprint,
                    found,
                });
            }
        }
        // Finish a compaction a crash interrupted: the snapshot segment
        // is already durable, the stale history just never got unlinked.
        if let Some(boundary) = boundary_segment {
            let removed = ctx.log.finish_compaction(boundary)?;
            if removed > 0 {
                self.obs.journal.record(Event::SnapshotCompacted {
                    records: effective.len() as u64,
                    segments_removed: removed,
                });
            }
        }
        ctx.resumed = true;
        let state = Replayed::fold(effective);
        self.obs.journal.record(Event::JobResumed {
            replayed: ctx.replayed,
            truncated: ctx.truncated,
        });
        Ok((ctx, state))
    }

    pub(crate) fn run_job_inner(
        &self,
        token: Token,
        spec: &JobSpec,
        rec: Option<&RecoveryCtx>,
        replayed: Replayed,
        tenant: Option<&Arc<TenantCtx>>,
        shard: Option<&dyn ShardLink>,
    ) -> Result<JobReport> {
        let job_started = Instant::now();
        let mut report = JobReport::default();
        let retry = &spec.retry;
        // A tenant-owned job shares its tenant's health tracker, so
        // breaker and quarantine evidence accumulates across all of the
        // tenant's jobs; a bare job gets a private one.
        let health = match tenant {
            Some(t) => t.health(retry, &spec.hedge),
            None => Arc::new(Mutex::new(
                HealthTracker::with_journal(retry, self.obs.journal.clone())
                    .with_quarantine(&spec.hedge),
            )),
        };
        // Staging-pool workers and the wave loop share the ledger.
        let ledger = Mutex::new(match tenant {
            Some(t) => RetryLedger::with_tenant(retry, Arc::clone(t)),
            None => RetryLedger::new(retry),
        });
        let journal = self.obs.journal.clone();
        // WAL bookkeeping (all idle when the job runs without a log):
        // charges already journaled per family (wave commits journal the
        // delta), dead letters journaled per family (latest wins), and
        // the crash points already recorded — plus the armed kill, if the
        // fault plan schedules one for this run segment. What the log
        // replayed seeds them, by move: this run is its only reader.
        // Finished steps have no table here: each family's own `steps` is
        // the record snapshots restate and hand-offs carry.
        let Replayed {
            planned,
            steps: mut replayed_steps,
            charges: mut wal_charges,
            dead: mut wal_dead,
            crash_points: wal_crashes,
            crawl: replayed_crawl,
            waves: replayed_waves,
            ..
        } = replayed;
        let mut crash = CrashSchedule::default();
        // Live serving-index ingest (opt-in): touched families flow into
        // the sharded index as each wave commits, and validation replaces
        // their live records with the final ones.
        let serving: Option<Arc<SearchIndex>> = spec
            .index
            .enabled
            .then(|| self.serving_index(spec.index.shards));
        let index_ingested = self.obs.hub.counter("index.ingested");
        let index_replayed = self.obs.hub.counter("index.replayed");
        let index_waves = self.obs.hub.counter("index.waves");
        // A result folded into a family by this run — never a replayed or
        // carried step, which the run that journaled it already counted.
        let steps_completed = self.obs.hub.counter("steps.completed");
        if let Some(ctx) = rec {
            report.resumed = ctx.resumed;
            report.replayed_records = ctx.replayed;
            report.truncated_records = ctx.truncated;
            crash = CrashSchedule::arm(spec.fault_plan.as_ref(), wal_crashes.len() as u64);
            // Re-converge the serving index: fold each family's journaled
            // steps, in journal order — the same order the live run folded
            // (and ingested) them — so a resumed job's index ends up
            // identical to an uninterrupted run's.
            if let Some(serving) = &serving {
                let families = replayed_steps.len() as u64;
                if families > 0 {
                    serving.ingest_all(
                        replayed_steps
                            .iter()
                            .map(|(family, steps)| live_record(*family, steps)),
                    );
                    index_replayed.add(families);
                    journal.record(Event::IndexReplayed { families });
                }
            }
        }
        // Straggler-defense instrumentation: the completion-latency
        // histogram the adaptive deadline derives from, and the hedge
        // lifecycle counters (`launched == won + wasted` at job end).
        let latency_hist = self.obs.hub.histogram("task.latency_s", LATENCY_BOUNDS_S);
        let hedge_launched = self.obs.hub.counter("hedge.launched");
        let hedge_won = self.obs.hub.counter("hedge.won");
        let hedge_wasted = self.obs.hub.counter("hedge.wasted");
        // Adaptive two-level batching: a per-endpoint AIMD controller
        // retunes (xtract, funcx, poll_chunk) from each wave's latency
        // evidence. With the policy disabled, the single static batcher
        // below is used unchanged. On resume the controller warm-starts
        // from the count of replayed committed waves — its state is
        // recomputed from the journal, never persisted.
        let adaptive_on = spec.adaptive.enabled;
        let mut tuner =
            AdaptiveTuner::new(spec.adaptive, spec.xtract_batch_size, spec.funcx_batch_size)
                .with_replayed_waves(replayed_waves);
        let tune_grow = self.obs.hub.counter("adaptive.grow");
        let tune_backoff = self.obs.hub.counter("adaptive.backoff");
        // Limits last journaled per endpoint, so `BatchTuned` is recorded
        // only when a wave actually runs under different limits.
        let mut last_tuned: HashMap<EndpointId, BatchLimits> = HashMap::new();
        // The allocation lease watchdog: notices lapsed leases in the
        // background (flipping in-flight tasks to Lost immediately rather
        // than after a poll window) and renews them after the policy
        // cooldown. Held for the job's duration; dropping it stops the
        // thread.
        let _watchdog = spec.hedge.enabled.then(|| {
            self.faas
                .start_lease_watchdog(Duration::from_millis(spec.hedge.watchdog_renew_cooldown_ms))
        });

        // --- Stages 2+3: the journaled plan, or crawl and journal one. ------
        let families = self.replay_or_crawl_plan(
            spec,
            rec,
            planned,
            replayed_crawl,
            shard.is_some(),
            job_started,
            &mut report,
        )?;
        if let Some(ctx) = rec {
            if crash.hit(CrashPoint::AfterCrawl) {
                ctx.log.append(&crash_record(CrashPoint::AfterCrawl))?;
                return Err(killed(CrashPoint::AfterCrawl));
            }
        }
        // Retained for snapshot restatement during log compaction; the
        // placement loop below consumes `families`.
        let planned_families: Vec<Family> = if rec.is_some() {
            families.clone()
        } else {
            Vec::new()
        };

        // --- Stage 4: placement. -------------------------------------------
        let plan_started = Instant::now();
        let primary =
            spec.endpoints
                .iter()
                .find(|e| e.has_compute())
                .ok_or(XtractError::InvalidJob {
                    reason: "no compute endpoint in job".to_string(),
                })?;
        let secondary = spec
            .endpoints
            .iter()
            .filter(|e| e.has_compute())
            .nth(1)
            .map(|e| e.endpoint);
        let mut offloader = Offloader::new(
            spec.offload,
            primary.endpoint,
            secondary,
            self.streams.seed() ^ 0x0ff1,
        );
        let by_endpoint: HashMap<EndpointId, &EndpointSpec> =
            spec.endpoints.iter().map(|e| (e.endpoint, e)).collect();

        let mut active: Vec<ActiveFamily> = Vec::with_capacity(families.len());
        // Overlap-aware Stage accounting: every staging pass contributes
        // its [start, finish] span; the union (never the sum) of the
        // pool's concurrent spans is the phase's wall-clock coverage.
        let mut stage_spans = SpanUnion::new();
        let staging_workers = spec.staging_workers.max(1);
        // The pool is the concurrency budget; bound each transfer link to
        // the same width so one saturated link cannot be oversubscribed.
        self.transfer.set_link_limit(Some(staging_workers));

        std::thread::scope(|scope| -> Result<()> {
            // --- The staging pool: a bounded set of workers prefetching
            // families via the Arc-shared transfer service, streaming
            // outcomes back into the wave loop. Restages after breaker
            // reroutes ride the same channel. -------------------------------
            let (req_tx, req_rx) = unbounded::<StageRequest>();
            let (out_tx, out_rx) = unbounded::<StageOutcome>();
            let pool_gauge = self.obs.hub.gauge("staging.in_flight");
            for _ in 0..staging_workers {
                let req_rx = req_rx.clone();
                let out_tx = out_tx.clone();
                let gauge = pool_gauge.clone();
                let journal = journal.clone();
                let ledger = &ledger;
                scope.spawn(move || {
                    while let Ok(req) = req_rx.recv() {
                        gauge.inc();
                        journal.record(Event::StagingStarted {
                            family: req.family.id,
                            destination: req.exec,
                        });
                        let outcome = self.execute_stage_request(
                            token,
                            req,
                            retry,
                            ledger,
                            tenant,
                            job_started,
                        );
                        gauge.dec();
                        if out_tx.send(outcome).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(req_rx);
            drop(out_tx);
            // Staging requests in flight on the pool; the wave loop may
            // not end while any remain.
            let mut inflight = 0usize;
            // Migration records journaled *this run segment* (sharded runs
            // only). Snapshots restate them after the families' steps, so
            // compaction preserves mid-run ownership changes: an adopted
            // family survives pruning, a donated one stays gone and its
            // out-record keeps its steps. Replayed migrations need no
            // restating — the replayed plan and step lists already reflect
            // them. Dropped with the wave loop, so stage 7 finds each
            // family's `steps` holding the last handles to its metadata.
            let mut wal_migrations: Vec<RecoveryRecord> = Vec::new();

            // Admits one family to the wave loop — a planned one at stage 4
            // or a migrant at a wave boundary — with the steps it already
            // completed, taken by value: places it, fast-forwards its plan
            // through those steps (including extractors they *discovered*,
            // which a crawl-seeded plan would never schedule), pre-charges
            // the attempts it already spent, and submits its prefetch.
            let mut admit = |active: &mut Vec<ActiveFamily>,
                             inflight: &mut usize,
                             wal_charges: &mut HashMap<FamilyId, u32>,
                             wave: u64,
                             family: Family,
                             steps: Vec<MigratedStep>,
                             charges: u32| {
                if charges > 0 {
                    // The family's journaled total so far; wave commits
                    // journal only the delta above this mark.
                    let cur = wal_charges.entry(family.id).or_insert(0);
                    *cur = (*cur).max(charges);
                    ledger.lock().precharge(family.id, charges);
                }
                let origin_files = family.files.clone();
                let origin_source = family.source;
                let local_ok = by_endpoint
                    .get(&family.source)
                    .is_some_and(|e| e.has_compute());
                // Default: source locality — a family already sitting on
                // a compute endpoint runs there, otherwise the primary.
                let default_exec = if local_ok {
                    family.source
                } else {
                    primary.endpoint
                };
                // Honour the offloader's *typed* decision: `Offload` is an
                // active instruction to move the family to the secondary
                // (§4.3.3 RAND applies a percentage of all files), while
                // `Home` means the policy expressed no preference and
                // source locality stands — the primary is never a forced
                // destination (see `Offloader::place_decision`).
                let (placed, decision) = offloader.place_decision(&family);
                let exec = if decision == Placement::Offload {
                    placed
                } else {
                    default_exec
                };
                let mut plan = ExtractionPlan::for_family(&family);
                for s in &steps {
                    plan.complete(s.kind, &s.discoveries);
                }
                let mut af = ActiveFamily {
                    plan,
                    family,
                    steps,
                    exec,
                    attempts: HashMap::new(),
                    failed: None,
                    timeline: Vec::new(),
                    origin_files,
                    origin_source,
                    staging: false,
                    staged_sites: Vec::new(),
                    stage_generation: 0,
                    extended: HashSet::new(),
                    migrated: false,
                };
                // --- Stage 5: prefetch if bytes are elsewhere — submitted
                // to the pool, not awaited, so wave 1 of already-local
                // families dispatches while remote ones are in flight. A
                // family of a logged job whose carried plan is already
                // done has nothing left to run and skips the transfer. ------
                if exec != af.family.source && !(rec.is_some() && af.plan.is_done()) {
                    let store = by_endpoint
                        .get(&exec)
                        .copied()
                        .and_then(|d| d.store_path.clone());
                    match store {
                        Some(store) => {
                            af.staging = true;
                            *inflight += 1;
                            let _ = req_tx.send(StageRequest {
                                index: active.len(),
                                family: af.family.clone(),
                                origin_files: af.origin_files.clone(),
                                origin_source,
                                exec,
                                store,
                                // The salt base derives from the family
                                // id, so injected transfer faults roll
                                // independently per family instead of in
                                // lockstep.
                                salt_base: stage_salt_base(af.family.id, 0),
                                generation: 0,
                            });
                        }
                        None => {
                            // The family still flows through the wave loop
                            // and stage 7 so it lands in exactly one place:
                            // the dead-letter list.
                            let reason = FailureReason::PrefetchFailed {
                                endpoint: exec,
                                error: XtractError::NoComputeLayer { endpoint: exec },
                            };
                            health.lock().record_failure(exec);
                            af.timeline.push(FailureEvent {
                                wave,
                                endpoint: exec,
                                note: reason.to_string(),
                            });
                            af.failed = Some(reason);
                        }
                    }
                }
                active.push(af);
            };

            for family in families {
                // A family a prior run segment already dead-lettered never
                // activates again: its journaled letter ships straight to
                // the report, and no extractor is re-invoked for it — the
                // zero-duplicate-invocation invariant for poisoned files.
                if let Some(letter) = wal_dead.get(&family.id) {
                    report.failures.push(letter.clone());
                    continue;
                }
                let steps = replayed_steps.remove(&family.id).unwrap_or_default();
                let charges = wal_charges.get(&family.id).copied().unwrap_or(0);
                admit(
                    &mut active,
                    &mut inflight,
                    &mut wal_charges,
                    0,
                    family,
                    steps,
                    charges,
                );
            }

            // Placement is pure now that staging rides the pool: Plan is
            // the decision pass alone; Stage lands after the loop as the
            // union of the pool's concurrent spans.
            let plan_s = plan_started.elapsed().as_secs_f64();
            let now_s = job_started.elapsed().as_secs_f64();
            report.phases.add(Phase::Plan, plan_s);
            report
                .phase_spans
                .push((Phase::Plan, now_s - plan_s, now_s));

            // --- Stage 6: extraction waves, overlapped with staging. -------
            loop {
                // Fold in every family the pool finished since the last
                // wave; newly staged families join this wave's batch.
                while let Ok(outcome) = out_rx.try_recv() {
                    inflight -= 1;
                    apply_stage_outcome(
                        outcome,
                        &mut active,
                        &mut report,
                        &mut health.lock(),
                        &mut stage_spans,
                        &journal,
                    );
                }
                health.lock().tick();

                // --- Shard coordination at the wave boundary. Waves are
                // synchronous: nothing is in flight here except staging,
                // so this is the one safe point to move families between
                // shards. Order matters — adopt (journal the in-record,
                // then acknowledge custody), donate (journal the
                // out-record *before* handing over), then heartbeat. ----
                if let Some(ctl) = shard {
                    let ctx = rec.expect("sharded runners always carry a recovery log");
                    let migrants = ctl.drain()?;
                    if !migrants.is_empty() {
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
                        ctx.log.append_batch(&in_records)?;
                        let ids: Vec<FamilyId> = migrants.iter().map(|m| m.family.id).collect();
                        ctl.ack(&ids)?;
                        wal_migrations.extend(in_records);
                        for m in migrants {
                            admit(
                                &mut active,
                                &mut inflight,
                                &mut wal_charges,
                                u64::from(report.waves),
                                m.family,
                                m.steps,
                                m.charges,
                            );
                        }
                    }
                    // Donation: at the wave boundary any pending,
                    // non-staging family can move with its completed
                    // steps. Out-records go durable before delivery.
                    if let Some(req) = ctl.take_steal()? {
                        let mut eligible: Vec<usize> = active
                            .iter()
                            .enumerate()
                            .filter(|(_, af)| {
                                af.failed.is_none()
                                    && !af.staging
                                    && !af.migrated
                                    && !af.plan.is_done()
                            })
                            .map(|(i, _)| i)
                            .collect();
                        let take = eligible.len().min(req.max);
                        let chosen = eligible.split_off(eligible.len() - take);
                        if !chosen.is_empty() {
                            let mut outs = Vec::with_capacity(chosen.len());
                            let mut handoff = Vec::with_capacity(chosen.len());
                            for &i in &chosen {
                                let af = &mut active[i];
                                // The recipient re-stages from the origin
                                // view, exactly like a breaker reroute.
                                let mut family = af.family.clone();
                                family.files = af.origin_files.clone();
                                family.source = af.origin_source;
                                family.base_path = None;
                                // The steps leave with the family: it is
                                // terminal here once its out-record lands.
                                let steps = std::mem::take(&mut af.steps);
                                let charges = ledger
                                    .lock()
                                    .attempts(af.family.id)
                                    .max(wal_charges.get(&af.family.id).copied().unwrap_or(0));
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
                            ctx.log.append_batch(&outs)?;
                            wal_migrations.extend(outs);
                            for (&i, m) in chosen.iter().zip(handoff) {
                                active[i].migrated = true;
                                ctl.deliver(req.to, m)?;
                            }
                        }
                    }
                    let pending = active
                        .iter()
                        .filter(|af| af.failed.is_none() && !af.migrated && !af.plan.is_done())
                        .count() as u64;
                    ctl.heartbeat(u64::from(report.waves), pending)?;
                }

                // Graceful degradation: a family whose endpoint's breaker
                // is open moves to a healthy endpoint, its bytes re-staged
                // from the origin — through the pool, so the wave loop
                // keeps dispatching healthy families meanwhile. With no
                // healthy alternative it stays parked and rides the
                // half-open probe cycle instead.
                for (i, af) in active.iter_mut().enumerate() {
                    if af.failed.is_some() || af.staging || af.migrated || af.plan.is_done() {
                        continue;
                    }
                    if health.lock().state(af.exec) != BreakerState::Open {
                        continue;
                    }
                    let Some(new_exec) = self.healthy_alternative(af.exec, spec, &health.lock())
                    else {
                        if self.faas.endpoint(af.exec).is_none() {
                            // Not just tripped — the endpoint does not
                            // exist.
                            af.failed =
                                Some(FailureReason::NoHealthyEndpoint { endpoint: af.exec });
                        }
                        continue;
                    };
                    if !ledger.lock().charge(af.family.id) {
                        af.failed = Some(FailureReason::RetryBudgetExhausted {
                            extractor: af.plan.next().unwrap_or(ExtractorKind::Keyword),
                            error: XtractError::EndpointDown { endpoint: af.exec },
                        });
                        continue;
                    }
                    let old = af.exec;
                    // Reset to the origin view, then stage at the new home.
                    af.family.files = af.origin_files.clone();
                    af.family.source = af.origin_source;
                    af.family.base_path = None;
                    if new_exec == af.origin_source {
                        // The bytes already live at the new home: a purely
                        // logical move, no transfer needed.
                        af.exec = new_exec;
                        report.rerouted += 1;
                        af.timeline.push(FailureEvent {
                            wave: health.lock().now(),
                            endpoint: new_exec,
                            note: format!("rerouted from {old} to {new_exec}"),
                        });
                        continue;
                    }
                    let store = by_endpoint
                        .get(&new_exec)
                        .copied()
                        .and_then(|d| d.store_path.clone());
                    match store {
                        Some(store) => {
                            af.stage_generation += 1;
                            af.staging = true;
                            inflight += 1;
                            let _ = req_tx.send(StageRequest {
                                index: i,
                                family: af.family.clone(),
                                origin_files: af.origin_files.clone(),
                                origin_source: af.origin_source,
                                exec: new_exec,
                                store,
                                salt_base: stage_salt_base(af.family.id, af.stage_generation),
                                generation: af.stage_generation,
                            });
                        }
                        None => {
                            // Satellite fix: a failed restage records a
                            // timeline event like every other failure path,
                            // so the dead letter ships a complete history.
                            let reason = FailureReason::PrefetchFailed {
                                endpoint: new_exec,
                                error: XtractError::NoComputeLayer { endpoint: new_exec },
                            };
                            health.lock().record_failure(new_exec);
                            af.timeline.push(FailureEvent {
                                wave: health.lock().now(),
                                endpoint: new_exec,
                                note: format!("restage at {new_exec} failed: {reason}"),
                            });
                            af.failed = Some(reason);
                        }
                    }
                }

                let dispatch_started = Instant::now();
                // Static mode: one batcher spans endpoints, so a funcX
                // request may mix endpoints' tasks — today's behavior,
                // untouched. Adaptive mode: one batcher per endpoint at
                // the tuner's current limits (BTreeMap keeps flush order
                // deterministic), since limits are per-endpoint state.
                let mut batcher = Batcher::new(spec.xtract_batch_size, spec.funcx_batch_size);
                let mut ep_batchers: BTreeMap<EndpointId, Batcher> = BTreeMap::new();
                let mut wave_poll_chunk: Option<usize> = None;
                let mut wave = Vec::new();
                let mut index: HashMap<FamilyId, usize> = HashMap::new();
                for (i, af) in active.iter_mut().enumerate() {
                    // A family with a staging pass in flight sits this wave
                    // out; its outcome folds in at the top of a later one.
                    // A donated family is terminal here: its new shard
                    // dispatches it.
                    if af.failed.is_some() || af.staging || af.migrated {
                        continue;
                    }
                    // An open breaker parks the family until a reroute or
                    // the cooldown's half-open probe readmits it.
                    if health.lock().state(af.exec) == BreakerState::Open {
                        continue;
                    }
                    // The plan cursor only ever advances together with
                    // the step that completes it, so what is next here has
                    // never flushed: a loss resubmits exactly the unfinished
                    // step (§5.8.1: "the metadata are re-loaded").
                    let Some(kind) = af.plan.next() else { continue };
                    index.insert(af.family.id, i);
                    let b = if adaptive_on {
                        ep_batchers.entry(af.exec).or_insert_with(|| {
                            let mut lim = tuner.limits(af.exec);
                            // A tenant's remaining invocation budget caps
                            // funcX growth: requests shrink to fit the
                            // budget instead of bouncing off the ledger.
                            if let Some(t) = tenant {
                                lim = lim.cap_to_invocations(
                                    t.ledger().headroom(QuotaResource::Invocations),
                                    spec.adaptive.funcx_floor,
                                );
                            }
                            wave_poll_chunk =
                                Some(wave_poll_chunk.unwrap_or(0).max(lim.poll_chunk));
                            if last_tuned.insert(af.exec, lim) != Some(lim) {
                                journal.record(Event::BatchTuned {
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
                    wave.extend(b.push(af.family.clone(), kind, af.exec));
                }
                wave.extend(batcher.flush());
                for b in ep_batchers.values_mut() {
                    wave.extend(b.flush());
                }
                if wave.is_empty() {
                    if inflight > 0 {
                        // Nothing dispatchable yet but prefetches are in
                        // flight: block for the next outcome instead of
                        // spinning on an empty wave.
                        match out_rx.recv() {
                            Ok(outcome) => {
                                inflight -= 1;
                                apply_stage_outcome(
                                    outcome,
                                    &mut active,
                                    &mut report,
                                    &mut health.lock(),
                                    &mut stage_spans,
                                    &journal,
                                );
                            }
                            Err(_) => {
                                // The pool died (a worker panicked): fail
                                // the stranded families with a typed
                                // reason rather than spin — the partition
                                // invariant outlives even this.
                                inflight = 0;
                                for af in active.iter_mut().filter(|af| af.staging) {
                                    af.staging = false;
                                    af.failed = Some(FailureReason::Internal {
                                        reason: "staging pool terminated mid-flight".to_string(),
                                    });
                                }
                            }
                        }
                        continue;
                    }
                    // Checkpoint short-circuits may have advanced plans,
                    // and parked families wait out a breaker cooldown (the
                    // tick at the top of the loop is what ages it); loop
                    // again if anything is still pending.
                    if active
                        .iter()
                        .all(|af| af.failed.is_some() || af.migrated || af.plan.is_done())
                    {
                        // A drained shard parks with the coordinator
                        // instead of finishing: siblings may still donate
                        // it work (idle-pull), and the run only concludes
                        // once every shard is drained together.
                        match shard {
                            Some(ctl) => match ctl.idle_wait()? {
                                crate::shard::IdleVerdict::Adopt => continue,
                                crate::shard::IdleVerdict::Finished => break,
                            },
                            None => break,
                        }
                    }
                    continue;
                }
                report.waves += 1;
                // Steps completed during this wave; journaled in one group
                // commit at the wave boundary below.
                let mut wave_flushes: Vec<RecoveryRecord> = Vec::new();
                // Families whose merged document grew this wave; ingested
                // into the serving index at the commit boundary below.
                let mut wave_touched: HashSet<FamilyId> = HashSet::new();

                // Submit: one batch_submit per funcX batch (§4.3.2).
                let mut entries: Vec<WaveEntry> = Vec::new();
                for funcx_batch in wave {
                    let mut specs = Vec::with_capacity(funcx_batch.tasks.len());
                    let mut members: Vec<(ExtractorKind, Vec<FamilyId>, XtractBatch)> = Vec::new();
                    for task in funcx_batch.tasks {
                        let function = self.function_for(task.extractor, task.endpoint)?;
                        // Staged copies are cleaned after the *whole plan*
                        // finishes (a family may still need them for later
                        // extractors), so the per-batch flag stays off.
                        specs.push(TaskSpec {
                            function,
                            endpoint: task.endpoint,
                            payload: encode_batch(&task, false),
                        });
                        members.push((
                            task.extractor,
                            task.families.iter().map(|f| f.id).collect(),
                            task,
                        ));
                    }
                    // Tenant quota: invocations are charged before the
                    // batch reaches the fabric, so a refused charge means
                    // nothing was submitted and nothing needs unwinding.
                    if let Some(t) = tenant {
                        let invocations: u64 =
                            members.iter().map(|(_, fams, _)| fams.len() as u64).sum();
                        t.charge(QuotaResource::Invocations, invocations)?;
                    }
                    let ids = self.faas.batch_submit_owned(specs);
                    for (id, (kind, fams, batch)) in ids.into_iter().zip(members) {
                        *report
                            .invocations
                            .entry(kind.name().to_string())
                            .or_insert(0) += fams.len() as u64;
                        entries.push(WaveEntry {
                            id,
                            kind,
                            fams,
                            batch,
                            hedge: None,
                            resolved: None,
                            breached: false,
                        });
                    }
                }
                let dispatch_s = dispatch_started.elapsed().as_secs_f64();
                let now_s = job_started.elapsed().as_secs_f64();
                report.phases.add(Phase::Dispatch, dispatch_s);
                report
                    .phase_spans
                    .push((Phase::Dispatch, now_s - dispatch_s, now_s));

                // Poll until terminal (batched polling, §4.3.2), under the
                // straggler defense: every task in the wave gets an
                // adaptive deadline derived from the observed
                // completion-latency quantile (policy ceiling until enough
                // samples accumulate). A breach scores the endpoint as a
                // straggler and — when an alternative healthy endpoint
                // exists — hedges the task there; the first productive
                // result wins and the loser is cancelled. The flat poll
                // window from the retry policy stays the hard cap, and a
                // task still non-terminal when it closes is split into
                // provably-lost vs merely-slow below.
                let extract_started = Instant::now();
                let deadline = adaptive_deadline(&latency_hist, &spec.hedge, retry);
                let window = Duration::from_millis(retry.poll_window_ms);
                let wave_started = Instant::now();
                // Per-endpoint completion latencies this wave — the
                // adaptive controller's evidence. Untouched (and empty)
                // when the policy is disabled.
                let mut wave_lat: BTreeMap<EndpointId, Vec<f64>> = BTreeMap::new();
                let productive =
                    |s: &TaskStatus| matches!(s, TaskStatus::Done(_) | TaskStatus::Failed(_));
                // Entries still unsettled, in entry order: a poll asks only
                // about these, and reads the answers back in the same order.
                let mut open: Vec<usize> = (0..entries.len()).collect();
                loop {
                    let outstanding: Vec<TaskId> = open
                        .iter()
                        .map(|&i| &entries[i])
                        .flat_map(|e| std::iter::once(e.id).chain(e.hedge.map(|(h, _)| h)))
                        .collect();
                    if outstanding.is_empty() {
                        break;
                    }
                    // Adaptive mode bounds each poll request to the
                    // tuned chunk, so poll fan-out tracks dispatch
                    // fan-out; static mode polls everything in one
                    // request, exactly as before.
                    let polled = match wave_poll_chunk {
                        Some(chunk) if chunk < outstanding.len() => outstanding
                            .chunks(chunk.max(1))
                            .flat_map(|ids| self.faas.batch_poll(ids))
                            .collect(),
                        _ => self.faas.batch_poll(&outstanding),
                    };
                    let mut polled = polled.into_iter().map(|p| p.status);
                    let closing = wave_started.elapsed() >= window;
                    for &i in &open {
                        let e = &mut entries[i];
                        // Each status is moved out of this iteration's poll
                        // result: the entry that settles on it owns it.
                        let home = e.batch.endpoint;
                        let primary = polled.next().unwrap_or(TaskStatus::Unknown);
                        let hedge_status = e
                            .hedge
                            .map(|(_, ep)| (polled.next().unwrap_or(TaskStatus::Unknown), ep));
                        if productive(&primary) {
                            // The original got there first: a hedge still
                            // in flight lost the race and is cancelled so
                            // its (discarded) result never double-counts.
                            if let Some((_, hep)) = &hedge_status {
                                let (hid, _) = e.hedge.expect("hedge status implies a hedge");
                                self.faas.cancel(hid);
                                hedge_wasted.incr();
                                for fid in &e.fams {
                                    journal.record(Event::HedgeLost {
                                        family: *fid,
                                        loser: *hep,
                                    });
                                }
                            }
                            let latency = wave_started.elapsed().as_secs_f64();
                            latency_hist.observe(latency);
                            if adaptive_on {
                                wave_lat.entry(home).or_default().push(latency);
                            }
                            self.settle(e, primary, home);
                            continue;
                        }
                        let hedge_status = match hedge_status {
                            Some((hs, hep)) if productive(&hs) => {
                                // The hedge won: cancel the original so its
                                // eventual result (if any) is discarded —
                                // only the winner's output is ever decoded.
                                self.faas.cancel(e.id);
                                hedge_won.incr();
                                for fid in &e.fams {
                                    journal.record(Event::HedgeWon {
                                        family: *fid,
                                        winner: hep,
                                    });
                                }
                                let latency = wave_started.elapsed().as_secs_f64();
                                latency_hist.observe(latency);
                                if adaptive_on {
                                    wave_lat.entry(home).or_default().push(latency);
                                }
                                self.settle(e, hs, hep);
                                continue;
                            }
                            unproductive => unproductive,
                        };
                        if primary.is_terminal() {
                            // Lost (or unknown): no result is coming from
                            // the original. A live hedge may still produce
                            // one; failing that, a provably-dead primary is
                            // the clearest hedge trigger of all.
                            if let Some((hs, hep)) = &hedge_status {
                                if !hs.is_terminal() && !closing {
                                    continue;
                                }
                                // Both runners dead (or the window closed):
                                // the hedge never produced a result.
                                let (hid, _) = e.hedge.expect("hedge status implies a hedge");
                                self.faas.cancel(hid);
                                hedge_wasted.incr();
                                for fid in &e.fams {
                                    journal.record(Event::HedgeLost {
                                        family: *fid,
                                        loser: *hep,
                                    });
                                }
                                self.settle(e, primary, home);
                                continue;
                            }
                            if matches!(primary, TaskStatus::Lost)
                                && spec.hedge.enabled
                                && !closing
                                && !e.breached
                            {
                                e.breached = true;
                                // A hedge is one speculative invocation; a
                                // tenant out of invocation quota forgoes it
                                // and rides the primary alone.
                                let hedge_allowed = tenant.is_none_or(|t| {
                                    t.charge(QuotaResource::Invocations, 1).is_ok()
                                });
                                if let Some(alt) = hedge_allowed
                                    .then(|| self.healthy_alternative(home, spec, &health.lock()))
                                    .flatten()
                                {
                                    if let Ok(hid) = self.submit_hedge(&e.batch, alt) {
                                        hedge_launched.incr();
                                        for fid in &e.fams {
                                            journal.record(Event::TaskHedged {
                                                family: *fid,
                                                original: home,
                                                hedge: alt,
                                            });
                                        }
                                        e.hedge = Some((hid, alt));
                                        continue;
                                    }
                                }
                            }
                            self.settle(e, primary, home);
                            continue;
                        }
                        // Still running. Past the adaptive deadline the
                        // endpoint takes a fractional straggler score (soft
                        // evidence — the breaker is untouched) and the task
                        // hedges to the best alternative, if any.
                        if !e.breached && wave_started.elapsed() >= deadline {
                            e.breached = true;
                            health.lock().record_breach(home);
                            if spec.hedge.enabled
                                && !closing
                                && tenant
                                    .is_none_or(|t| t.charge(QuotaResource::Invocations, 1).is_ok())
                            {
                                if let Some(alt) =
                                    self.healthy_alternative(home, spec, &health.lock())
                                {
                                    if let Ok(hid) = self.submit_hedge(&e.batch, alt) {
                                        hedge_launched.incr();
                                        for fid in &e.fams {
                                            journal.record(Event::TaskHedged {
                                                family: *fid,
                                                original: home,
                                                hedge: alt,
                                            });
                                        }
                                        e.hedge = Some((hid, alt));
                                    }
                                }
                            }
                        }
                    }
                    open.retain(|&i| entries[i].resolved.is_none());
                    if closing || open.is_empty() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }

                // The *window* gave up, not the tasks: split the leftovers
                // into provably-lost (their endpoint's lease lapsed or is
                // gone) and merely-slow, journal the disposition, and
                // abandon the stale task ids (the next wave resubmits
                // under fresh ones).
                let mut lost_stragglers = 0u64;
                let mut slow_stragglers = 0u64;
                for e in entries.iter_mut().filter(|e| e.resolved.is_none()) {
                    if let Some((hid, hep)) = e.hedge {
                        self.faas.cancel(hid);
                        hedge_wasted.incr();
                        for fid in &e.fams {
                            journal.record(Event::HedgeLost {
                                family: *fid,
                                loser: hep,
                            });
                        }
                    }
                    self.faas.cancel(e.id);
                    let ep = e.batch.endpoint;
                    let alive = self.faas.endpoint(ep).is_some_and(|c| !c.is_expired());
                    if alive {
                        slow_stragglers += 1;
                        self.settle(e, TaskStatus::Running, ep);
                    } else {
                        lost_stragglers += 1;
                        self.settle(e, TaskStatus::Lost, ep);
                    }
                }
                if lost_stragglers + slow_stragglers > 0 {
                    journal.record(Event::PollWindowExpired {
                        tasks: lost_stragglers + slow_stragglers,
                        window_ms: retry.poll_window_ms,
                        lost: lost_stragglers,
                        slow: slow_stragglers,
                    });
                }

                // The fold: entries apply in entry order whatever order
                // they settled in, so WAL record order, breaker evidence
                // and retry charging do not depend on poll timing.
                for e in entries.iter_mut() {
                    let Some((resolution, winner_ep)) = &mut e.resolved else {
                        continue; // unreachable: every entry resolved above
                    };
                    let (id, kind, fams) = (e.id, e.kind, &e.fams);
                    match resolution {
                        Resolution::Done(decoded) => match decoded {
                            Ok(results) => {
                                for r in results.drain(..) {
                                    let Some(&i) = index.get(&r.family) else {
                                        continue;
                                    };
                                    let af = &mut active[i];
                                    if let Some(err) = r.error {
                                        // A poisoned family: terminal —
                                        // §2.3's junk files must not wedge
                                        // the job; retrying cannot help.
                                        af.failed = Some(FailureReason::ExtractionFailed {
                                            extractor: kind,
                                            error: err,
                                        });
                                        continue;
                                    }
                                    // One allocation owns the result's
                                    // metadata; the family's step and the
                                    // wave's commit batch share it.
                                    let metadata = Arc::new(r.metadata);
                                    if rec.is_some() {
                                        wave_flushes.push(RecoveryRecord::StepCompleted {
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
                                    steps_completed.incr();
                                    wave_touched.insert(r.family);
                                }
                                // Credit whichever endpoint actually
                                // produced the result — the hedge winner's,
                                // not necessarily the family's home.
                                health.lock().record_success(*winner_ep);
                            }
                            Err(e) => {
                                for fid in fams {
                                    let Some(&i) = index.get(fid) else { continue };
                                    active[i].failed = Some(FailureReason::Internal {
                                        reason: format!("undecodable result: {e}"),
                                    });
                                }
                            }
                        },
                        Resolution::Failed(e) if e.is_retryable() => {
                            // Transient executor failure (crashed worker,
                            // downed endpoint): the step stays pending and
                            // the next wave resubmits under a fresh id.
                            charge_step_loss(
                                &mut active,
                                &index,
                                fams,
                                kind,
                                e,
                                &format!("{} step failed: {e}", kind.name()),
                                retry,
                                &mut ledger.lock(),
                                &mut health.lock(),
                                &mut report,
                                &journal,
                            );
                        }
                        Resolution::Failed(e) => {
                            for fid in fams {
                                let Some(&i) = index.get(fid) else { continue };
                                active[i].failed = Some(FailureReason::ExtractionFailed {
                                    extractor: kind,
                                    error: e.to_string(),
                                });
                            }
                            health.lock().record_failure(*winner_ep);
                        }
                        Resolution::Lost => {
                            // Allocation expired, heartbeat vanished, or
                            // the submission fell into a blackout: renew
                            // the endpoint ("resubmit remaining tasks on a
                            // second allocation", §5.8.1) and leave the
                            // step pending so the next wave resubmits.
                            charge_step_loss(
                                &mut active,
                                &index,
                                fams,
                                kind,
                                &XtractError::TaskLost { task: id },
                                &format!("{} task lost", kind.name()),
                                retry,
                                &mut ledger.lock(),
                                &mut health.lock(),
                                &mut report,
                                &journal,
                            );
                            self.faas.renew_endpoint(*winner_ep);
                        }
                        Resolution::Cancelled => {
                            // Only ever set by this orchestrator when a
                            // hedge race was decided the other way; a
                            // resolution can't carry it, and a cancelled
                            // task must never be resubmitted — the family
                            // already has its result.
                        }
                        Resolution::Unknown => {
                            // The fabric has no record of a task we believe
                            // we submitted — state is corrupt for these
                            // families; retrying cannot reconcile it, so
                            // they dead-letter rather than spin.
                            for fid in fams {
                                let Some(&i) = index.get(fid) else { continue };
                                active[i].failed = Some(FailureReason::Internal {
                                    reason: format!("task {id} unknown to the FaaS fabric"),
                                });
                            }
                        }
                        Resolution::Slow => {
                            // Merely slow, not lost: each family's step
                            // gets one free deadline extension — it stays
                            // pending for the next wave without touching
                            // the retry budget — and only a repeat overrun
                            // charges like a loss.
                            let mut repeat: Vec<FamilyId> = Vec::new();
                            for fid in fams {
                                let Some(&i) = index.get(fid) else { continue };
                                let af = &mut active[i];
                                if af.extended.insert(kind) {
                                    af.timeline.push(FailureEvent {
                                        wave: health.lock().now(),
                                        endpoint: af.exec,
                                        note: format!(
                                            "{} deadline extended (slow, not lost)",
                                            kind.name()
                                        ),
                                    });
                                } else {
                                    repeat.push(*fid);
                                }
                            }
                            if !repeat.is_empty() {
                                charge_step_loss(
                                    &mut active,
                                    &index,
                                    &repeat,
                                    kind,
                                    &XtractError::TaskLost { task: id },
                                    &format!("{} non-terminal after extended wait", kind.name()),
                                    retry,
                                    &mut ledger.lock(),
                                    &mut health.lock(),
                                    &mut report,
                                    &journal,
                                );
                            }
                        }
                    }
                }
                // --- Adaptive feedback: fold this wave's observed latency,
                // breach count, and breaker state into per-endpoint evidence
                // and let the tuner adjust the next wave's batch limits. The
                // wave-exact sample median is primary; the labeled histogram
                // (fed here too, so it survives across waves) is the fallback
                // when a wave resolved no productive samples. ---------------
                if adaptive_on {
                    let mut by_ep: BTreeMap<EndpointId, (u64, u64)> = BTreeMap::new();
                    for e in &entries {
                        let agg = by_ep.entry(e.batch.endpoint).or_default();
                        agg.0 += e.fams.len() as u64;
                        agg.1 += u64::from(e.breached);
                    }
                    for (ep, (fams, breaches)) in by_ep {
                        let label = ep.to_string();
                        let ep_hist = self.obs.hub.histogram_with(
                            "task.latency_s",
                            Some(&label),
                            LATENCY_BOUNDS_S,
                        );
                        let mut samples = wave_lat.remove(&ep).unwrap_or_default();
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
                            families: fams,
                            breaches,
                            breaker_open: health.lock().state(ep) == BreakerState::Open,
                        };
                        match tuner.observe_wave(ep, &evidence) {
                            TuneDecision::Grew => tune_grow.incr(),
                            TuneDecision::BackedOff => tune_backoff.incr(),
                            TuneDecision::Held => {}
                        }
                    }
                }
                // --- Wave commit: one group commit journals everything
                // this wave decided — completed steps, retry-budget deltas,
                // hedge outcomes, newly dead families — then the wave
                // marker. The scheduled kill-points sit exactly at this
                // boundary, so a crashed run never leaves a half-journaled
                // wave: either all of a wave's records are durable or none
                // are. ----------------------------------------------------
                if let Some(ctx) = rec {
                    let wave_no = u64::from(report.waves);
                    let mut batch = std::mem::take(&mut wave_flushes);
                    {
                        // Charges vs. what the log already holds: the delta
                        // also captures charges the staging pool spent on
                        // this family between waves.
                        let l = ledger.lock();
                        for af in active.iter().filter(|af| !af.migrated) {
                            let id = af.family.id;
                            let total = l.attempts(id);
                            let prior = wal_charges.get(&id).copied().unwrap_or(0);
                            if total > prior {
                                batch.push(RecoveryRecord::RetryCharged {
                                    family: id,
                                    amount: total - prior,
                                });
                                wal_charges.insert(id, total);
                            }
                        }
                    }
                    for e in &entries {
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
                        let l = ledger.lock();
                        for af in active.iter().filter(|af| !af.migrated) {
                            if let Some(reason) = &af.failed {
                                if let std::collections::hash_map::Entry::Vacant(slot) =
                                    wal_dead.entry(af.family.id)
                                {
                                    let mut letter = DeadLetter::new(
                                        af.family.id,
                                        reason.clone(),
                                        l.attempts(af.family.id),
                                    );
                                    letter.timeline = af.timeline.clone();
                                    slot.insert(letter.clone());
                                    batch.push(RecoveryRecord::DeadLettered { letter });
                                }
                            }
                        }
                    }
                    batch.push(RecoveryRecord::WaveCommitted { wave: wave_no });
                    if crash.hit(CrashPoint::MidWave) {
                        // Clean kill at the commit boundary: the wave's
                        // records land, then the process "dies".
                        batch.push(crash_record(CrashPoint::MidWave));
                        ctx.log.append_batch(&batch)?;
                        return Err(killed(CrashPoint::MidWave));
                    }
                    if crash.hit(CrashPoint::MidFlush) {
                        // Dirty kill: the wave commits, then the process
                        // dies halfway through writing one more frame. The
                        // next open truncates the torn tail without losing
                        // the committed prefix.
                        batch.push(crash_record(CrashPoint::MidFlush));
                        ctx.log.append_batch(&batch)?;
                        ctx.log
                            .append_torn(&RecoveryRecord::WaveCommitted { wave: wave_no })?;
                        return Err(killed(CrashPoint::MidFlush));
                    }
                    ctx.log.append_batch(&batch)?;

                    // Compaction: once the log spreads over enough
                    // segments, restate live state as a snapshot in a fresh
                    // segment and drop the history it supersedes.
                    if ctx.log.segment_count()? >= ctx.log.policy().compact_segments as u64 {
                        let mut snapshot = vec![RecoveryRecord::JobStarted {
                            fingerprint: ctx.fingerprint,
                        }];
                        snapshot.extend(
                            wal_crashes
                                .iter()
                                .map(|p| RecoveryRecord::CrashRecorded { point: p.clone() }),
                        );
                        snapshot.push(RecoveryRecord::CrawlCompleted {
                            crawled_files: report.crawled_files,
                            groups: report.groups,
                            redundant_files: report.redundant_files,
                        });
                        snapshot.extend(
                            planned_families
                                .iter()
                                .map(|f| RecoveryRecord::FamilyPlanned { family: f.clone() }),
                        );
                        // Each family's finished steps, from its own
                        // list. A donated family's are restated by its
                        // out-record below, which carries them.
                        for af in active.iter().filter(|af| !af.migrated) {
                            snapshot.extend(af.steps.iter().map(|s| {
                                RecoveryRecord::StepCompleted {
                                    family: af.family.id,
                                    kind: s.kind,
                                    metadata: Arc::clone(&s.metadata),
                                    discoveries: s.discoveries.clone(),
                                }
                            }));
                        }
                        let mut charges: Vec<(FamilyId, u32)> = wal_charges
                            .iter()
                            .filter(|(_, n)| **n > 0)
                            .map(|(f, n)| (*f, *n))
                            .collect();
                        charges.sort_unstable_by_key(|(f, _)| *f);
                        snapshot.extend(charges.into_iter().map(|(family, amount)| {
                            RecoveryRecord::RetryCharged { family, amount }
                        }));
                        // Migrations journaled this run segment, in order,
                        // *after* the restated totals: an in-record takes
                        // the max of its carried count and the restated
                        // total (≥ carried by construction), so replaying
                        // the snapshot never double-charges. Adopted
                        // families join the restated plan here; donated
                        // ones leave it.
                        snapshot.extend(wal_migrations.iter().cloned());
                        let mut dead: Vec<&DeadLetter> = wal_dead.values().collect();
                        dead.sort_unstable_by_key(|l| l.family);
                        snapshot.extend(dead.into_iter().map(|letter| {
                            RecoveryRecord::DeadLettered {
                                letter: letter.clone(),
                            }
                        }));
                        let keep = ctx.log.begin_compaction(&snapshot)?;
                        if crash.hit(CrashPoint::MidCompaction) {
                            // Killed between writing the snapshot and
                            // unlinking the old segments: the next open
                            // finds both and finishes the unlink itself.
                            ctx.log.append(&crash_record(CrashPoint::MidCompaction))?;
                            return Err(killed(CrashPoint::MidCompaction));
                        }
                        let removed = ctx.log.finish_compaction(keep)?;
                        journal.record(Event::SnapshotCompacted {
                            records: snapshot.len() as u64 + 1,
                            segments_removed: removed,
                        });
                    }
                }
                // Live ingest at the commit boundary: each touched
                // family's merged-so-far document lands in the serving
                // index under schema "live" (validation replaces it with
                // the final record). Running *after* the group commit
                // keeps the index trailing the log, so a crash here is
                // re-converged by replay on resume.
                if let Some(serving) = &serving {
                    if !wave_touched.is_empty() {
                        let recs: Vec<MetadataRecord> = active
                            .iter()
                            .filter(|af| !af.migrated && wave_touched.contains(&af.family.id))
                            .map(|af| live_record(af.family.id, &af.steps))
                            .collect();
                        let n = recs.len() as u64;
                        serving.ingest_all(recs);
                        index_ingested.add(n);
                        index_waves.incr();
                        journal.record(Event::IndexWaveIngested {
                            wave: u64::from(report.waves),
                            records: n,
                        });
                    }
                }
                let extract_s = extract_started.elapsed().as_secs_f64();
                let now_s = job_started.elapsed().as_secs_f64();
                report.phases.add(Phase::Extract, extract_s);
                report
                    .phase_spans
                    .push((Phase::Extract, now_s - extract_s, now_s));
            }
            // Closing the request channel retires the pool; the scope
            // joins the workers on exit.
            drop(req_tx);
            Ok(())
        })?;
        report.phases.add(Phase::Stage, stage_spans.covered());
        report.phase_spans.extend(
            stage_spans
                .intervals()
                .iter()
                .map(|&(s, e)| (Phase::Stage, s, e)),
        );
        let ledger = ledger.into_inner();
        // --- Stage 6.5: clean staged copies once plans are done — every
        // site the family ever staged at, not just the final one, so a
        // reroute leaves nothing behind on the endpoint that went dark. ------
        let index_started = Instant::now();
        if spec.delete_after_extraction {
            for af in &active {
                for (site, base) in &af.staged_sites {
                    if let Ok(ep) = self.fabric.get(*site) {
                        let _ = ep.backend.remove(base);
                    }
                }
            }
        }

        // --- Stage 7: validate and ship records to the user's chosen
        // endpoint (§3). Every family terminates here, in exactly one of
        // `records` or `failures`. -------------------------------------------
        self.auth.check(token, Scope::Validate)?;
        let dest = self
            .fabric
            .get(spec.results_endpoint.unwrap_or(primary.endpoint))?;
        for af in &mut active {
            // A donated family terminates on the shard that adopted it;
            // this shard's out-record is its whole story here.
            if af.migrated {
                continue;
            }
            // The family's record or dead letter is minted in this
            // iteration; its steps are released with it rather than held
            // until the job returns.
            let steps = std::mem::take(&mut af.steps);
            let attempts = ledger.attempts(af.family.id);
            if let Some(reason) = af.failed.take() {
                let mut letter = DeadLetter::new(af.family.id, reason, attempts);
                letter.timeline = std::mem::take(&mut af.timeline);
                report.failures.push(letter);
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
            match outcome {
                Ok((record, bytes)) => {
                    let path = format!("/metadata/fam-{}.json", af.family.id.raw());
                    match dest.backend.write(&path, Bytes::from(bytes)) {
                        Ok(()) => report.records.push(record),
                        Err(e) => report.failures.push(DeadLetter::new(
                            af.family.id,
                            FailureReason::Internal {
                                reason: format!("shipping record failed: {e}"),
                            },
                            attempts,
                        )),
                    }
                }
                Err(XtractError::ValidationFailed { schema, reason }) => {
                    report.failures.push(DeadLetter::new(
                        af.family.id,
                        FailureReason::ValidationRejected { schema, reason },
                        attempts,
                    ))
                }
                Err(e) => report.failures.push(DeadLetter::new(
                    af.family.id,
                    FailureReason::Internal {
                        reason: e.to_string(),
                    },
                    attempts,
                )),
            }
        }
        // `report.records` is exactly what validated *and* shipped. Those
        // records replace the families' live wave-loop versions in the
        // serving index as one batch, so each index shard publishes once.
        if let Some(serving) = &serving {
            if !report.records.is_empty() {
                let records = report.records.len() as u64;
                serving.ingest_all(report.records.iter().cloned());
                index_ingested.add(records);
                journal.record(Event::IndexValidated { records });
            }
        }
        for letter in &report.failures {
            journal.record(Event::DeadLettered {
                family: letter.family,
                reason: letter.reason.to_string(),
            });
        }
        let index_s = index_started.elapsed().as_secs_f64();
        let now_s = job_started.elapsed().as_secs_f64();
        report.phases.add(Phase::Index, index_s);
        report
            .phase_spans
            .push((Phase::Index, now_s - index_s, now_s));
        // Terminal journal entries: dead letters minted after the wave
        // loop (validation rejections, shipping failures) that the log
        // does not hold yet, then the completion marker — resuming a
        // finished job replays to a no-op.
        if let Some(ctx) = rec {
            let mut tail: Vec<RecoveryRecord> = Vec::new();
            for letter in &report.failures {
                if wal_dead.get(&letter.family) != Some(letter) {
                    wal_dead.insert(letter.family, letter.clone());
                    tail.push(RecoveryRecord::DeadLettered {
                        letter: letter.clone(),
                    });
                }
            }
            tail.push(RecoveryRecord::JobCompleted);
            ctx.log.append_batch(&tail)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtract_datafabric::{MemFs, StorageBackend};
    use xtract_types::config::ContainerRuntime;
    use xtract_types::FaultPlan;

    fn rig(files: u64) -> (XtractService, Token, JobSpec, Arc<DataFabric>) {
        let fabric = Arc::new(DataFabric::new());
        let ep = EndpointId::new(0);
        let fs = Arc::new(MemFs::new(ep));
        xtract_workloads::materialize::sample_repo(
            fs.as_ref(),
            "/data",
            files,
            &RngStreams::new(5),
        );
        fabric.register(ep, "midway", fs);
        let auth = Arc::new(AuthService::new());
        let token = auth.login(
            "grad-student",
            &[
                Scope::Crawl,
                Scope::Extract,
                Scope::Transfer,
                Scope::Validate,
            ],
        );
        let svc = XtractService::new(fabric.clone(), auth, 1);
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
        svc.connect_endpoint(&spec.endpoints[0]).unwrap();
        (svc, token, spec, fabric)
    }

    #[test]
    fn end_to_end_extraction_over_real_bytes() {
        let (svc, token, spec, fabric) = rig(30);
        let report = svc.run_job(token, &spec).unwrap();
        assert!(report.crawled_files >= 30);
        assert_eq!(report.failures, vec![]);
        assert_eq!(report.records.len() as u64, report.families);
        assert!(report.waves >= 1);
        // Metadata landed on the destination endpoint.
        let dest = fabric.get(EndpointId::new(0)).unwrap();
        let listed = dest.backend.list("/metadata").unwrap();
        assert_eq!(listed.len(), report.records.len());
        // Keyword extraction actually ran over prose.
        assert!(report.invocations.get("keyword").copied().unwrap_or(0) > 0);
        let has_keywords = report.records.iter().any(|r| {
            r.document
                .get("keyword")
                .and_then(|k| k.get("files"))
                .is_some()
        });
        assert!(has_keywords, "no keyword output in records");
    }

    #[test]
    fn discoveries_trigger_second_wave() {
        // A .txt file with CSV content: keyword discovers tabular, the
        // planner appends tabular + null-value (§5.8.2).
        let fabric = Arc::new(DataFabric::new());
        let ep = EndpointId::new(0);
        let fs = Arc::new(MemFs::new(ep));
        fs.write(
            "/data/disguised.txt",
            Bytes::from_static(b"a,b\n1,2\n3,4\n"),
        )
        .unwrap();
        fabric.register(ep, "midway", fs);
        let auth = Arc::new(AuthService::new());
        let token = auth.login(
            "u",
            &[
                Scope::Crawl,
                Scope::Extract,
                Scope::Transfer,
                Scope::Validate,
            ],
        );
        let svc = XtractService::new(fabric, auth, 2);
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
        let report = svc.run_job(token, &spec).unwrap();
        assert!(report.waves >= 2, "discovery needs a second wave");
        let rec = &report.records[0];
        assert!(rec.document.contains("keyword"));
        assert!(rec.document.contains("tabular"));
        assert!(rec.document.contains("null-value"));
        assert_eq!(report.invocations["tabular"], 1);
    }

    #[test]
    fn missing_scope_is_denied() {
        let (svc, _token, spec, _fabric) = rig(5);
        let auth = AuthService::new();
        let weak = auth.login("u", &[Scope::Crawl]);
        // Token from a different AuthService entirely — denied either way.
        assert!(matches!(
            svc.run_job(weak, &spec),
            Err(XtractError::AuthDenied { .. })
        ));
    }

    #[test]
    fn invalid_job_is_rejected_before_any_work() {
        let (svc, token, mut spec, _fabric) = rig(5);
        spec.max_family_size = 0;
        assert!(matches!(
            svc.run_job(token, &spec),
            Err(XtractError::InvalidJob { .. })
        ));
    }

    #[test]
    fn job_report_carries_phase_timings_within_wall_clock() {
        let (svc, token, spec, _fabric) = rig(20);
        let started = Instant::now();
        let report = svc.run_job(token, &spec).unwrap();
        let wall = started.elapsed().as_secs_f64();
        let total = report.phases.total();
        assert!(total > 0.0, "no phase time recorded");
        // Stage is accounted as the *union* of the pool's concurrent
        // staging spans (never the sum), and the other phases run
        // sequentially, so the phase total must still fit inside the
        // job's wall clock (plus measurement slop).
        assert!(
            total <= wall + 0.25,
            "phase sum {total}s exceeds wall clock {wall}s"
        );
        assert!(report.phases.get(Phase::Extract) > 0.0);
        // The shared hub saw every substrate of the same job.
        let snap = svc.obs().hub.snapshot();
        // crawl.* is labeled per endpoint; the aggregate is the label sum.
        assert!(snap.counter_sum("crawl.files") >= 20);
        assert!(snap.counter("faas.ws_requests") >= 2);
        assert!(!svc.obs().journal.is_empty(), "journal recorded nothing");
    }

    #[test]
    fn injected_crashes_are_retried_to_completion() {
        // Every task has a 40% chance of its worker crashing mid-execution;
        // resubmission under a fresh task id re-rolls, so every family
        // still completes within its budget.
        let (svc, token, mut spec, _fabric) = rig(16);
        spec.fault_plan = Some(FaultPlan {
            worker_crash_rate: 0.4,
            ..FaultPlan::new(11)
        });
        let report = svc.run_job(token, &spec).unwrap();
        assert_eq!(
            report.records.len() as u64 + report.failures.len() as u64,
            report.families
        );
        assert!(
            report.resubmitted > 0,
            "a 40% crash rate over many tasks should lose at least one"
        );
        // The plan disarms with the job: a clean follow-up run sees none.
        let (svc2, token2, spec2, _f2) = rig(8);
        let clean = svc2.run_job(token2, &spec2).unwrap();
        assert!(clean.failures.is_empty());
    }

    fn recovery_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xtract-service-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recovery_logged_job_completes_and_resume_is_a_noop() {
        let (svc, token, spec, _fabric) = rig(20);
        let dir = recovery_dir("noop");
        let report = svc.run_job_with_recovery(token, &spec, &dir).unwrap();
        assert!(!report.resumed);
        assert!(report.failures.is_empty());
        assert_eq!(report.records.len() as u64, report.families);

        // Resuming a finished job replays everything and re-runs nothing:
        // same records, zero extractor invocations.
        let (svc2, token2, ..) = rig(20);
        let resumed = svc2.resume_job(token2, &spec, &dir).unwrap();
        assert!(resumed.resumed);
        assert!(resumed.replayed_records > 0);
        assert!(resumed.invocations.is_empty(), "resume re-invoked work");
        assert_eq!(resumed.records.len(), report.records.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_after_crawl_resumes_to_the_full_record_set() {
        let (svc, token, mut spec, _fabric) = rig(18);
        spec.fault_plan = Some(FaultPlan {
            orchestrator_crashes: vec![xtract_types::OrchestratorCrash {
                point: CrashPoint::AfterCrawl,
                at_occurrence: 1,
            }],
            ..FaultPlan::new(7)
        });
        let dir = recovery_dir("after-crawl");
        let err = svc.run_job_with_recovery(token, &spec, &dir).unwrap_err();
        assert!(matches!(err, XtractError::OrchestratorKilled { .. }));

        // A fresh service (nothing shared but the log) finishes the job.
        let (svc2, token2, ..) = rig(18);
        let resumed = svc2.resume_job(token2, &spec, &dir).unwrap();
        assert!(resumed.resumed);
        assert!(resumed.failures.is_empty());
        assert_eq!(resumed.records.len() as u64, resumed.families);
        assert!(!resumed.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_different_spec() {
        let (svc, token, spec, _fabric) = rig(8);
        let dir = recovery_dir("fingerprint");
        svc.run_job_with_recovery(token, &spec, &dir).unwrap();
        let mut other = spec.clone();
        other.max_family_size += 1;
        assert!(matches!(
            svc.resume_job(token, &other, &dir),
            Err(XtractError::SpecFingerprintMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
