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
//!    [`crate::resilience::HealthTracker`] watches every endpoint: enough
//!    consecutive failures open its circuit breaker, families parked on a
//!    dark endpoint reroute to a healthy one (bytes re-staged from the
//!    origin), and a [`RetryLedger`] bounds each family's total attempts;
//! 7. fold each family's document from its steps, **validate** it into
//!    a record and ship that to the destination endpoint's `/metadata/`
//!    prefix (§3 "Validation").
//!
//! Stages 4-7 run on the wave engine (`engine.rs`): this file holds the
//! service, the job entry points, the crawl, the recovery-log open and the
//! prefetcher a staging worker runs.
//!
//! Failure semantics: the orchestrator never panics on a faulted
//! substrate. Every family a job ingests terminates in exactly one of
//! the report's `records` (success) or `failures` (a typed
//! [`DeadLetter`]) — the chaos tests assert this partition at every
//! injected fault rate.
#![warn(clippy::too_many_lines)]

use crate::engine::{JobLink, WaveEngine};
use crate::families::build_families;
use crate::payload::make_function_body;
use crate::recovery::{spec_fingerprint, MigratedStep, RecoveryLog, RecoveryRecord};
use crate::resilience::RetryLedger;
use crate::shard::ShardLink;
use crate::staging::{StageOutcome, StageRequest, StagedFamily};
use crate::tenancy::TenantCtx;
use crossbeam_channel::unbounded;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract_crawler::{Crawler, CrawlerConfig};
use xtract_datafabric::{AuthService, DataFabric, Scope, Token, TransferRequest, TransferService};
use xtract_extractors::{library, Extractor};
use xtract_faas::{EndpointConfig, FaasService, FunctionRegistry};
use xtract_index::SearchIndex;
use xtract_obs::{Event, Obs, Phase, PhaseTimings};
use xtract_sim::RngStreams;
use xtract_types::id::IdAllocator;
use xtract_types::{
    ContainerId, DeadLetter, EndpointId, EndpointSpec, ExtractorKind, FailureReason, Family,
    FamilyId, FaultPlan, FileRecord, FunctionId, JobSpec, MetadataRecord, QuotaResource, Result,
    RetryPolicy, XtractError,
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

/// The live Xtract service.
pub struct XtractService {
    pub(crate) fabric: Arc<DataFabric>,
    pub(crate) auth: Arc<AuthService>,
    pub(crate) transfer: Arc<TransferService>,
    pub(crate) faas: Arc<FaasService>,
    pub(crate) obs: Obs,
    library: HashMap<ExtractorKind, Arc<dyn Extractor>>,
    pub(crate) functions: parking_lot::RwLock<HashMap<(ExtractorKind, EndpointId), FunctionId>>,
    containers: parking_lot::RwLock<HashMap<ExtractorKind, Vec<ContainerId>>>,
    family_ids: IdAllocator,
    pub(crate) streams: RngStreams,
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
    pub(crate) fn serving_index(&self, shards: usize) -> Arc<SearchIndex> {
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

    pub(crate) fn function_for(
        &self,
        kind: ExtractorKind,
        endpoint: EndpointId,
    ) -> Result<FunctionId> {
        self.functions.read().get(&(kind, endpoint)).copied().ok_or(
            XtractError::NoCompatibleEndpoint {
                container: format!("{} @ {endpoint}", kind.name()),
            },
        )
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
    pub(crate) fn execute_stage_request(
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
    /// tenant's shared [`crate::resilience::HealthTracker`] carries breaker
    /// and quarantine state across all of its jobs. A `None` tenant
    /// behaves exactly like [`Self::run_job`].
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
    /// they enter the wave engine through [`Self::run_job_inner`], below
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

    /// Stages 2-7 of one job (or of one shard's slice of one) on a
    /// [`WaveEngine`]: the plan, then the staging pool and the wave loop
    /// inside one `thread::scope`, then validate-and-ship. The stage order
    /// below is the engine's contract (DESIGN.md "Wave engine"); each
    /// stage's doc names the WAL records and journal events it emits.
    /// Dropping the engine, on any exit, closes the pool's request channel,
    /// so the scope always joins its workers.
    pub(crate) fn run_job_inner(
        &self,
        token: Token,
        spec: &JobSpec,
        rec: Option<&RecoveryCtx>,
        mut replayed: Replayed,
        tenant: Option<&Arc<TenantCtx>>,
        shard: Option<&dyn ShardLink>,
    ) -> Result<JobReport> {
        let ledger = Mutex::new(match tenant {
            Some(t) => RetryLedger::with_tenant(&spec.retry, Arc::clone(t)),
            None => RetryLedger::new(&spec.retry),
        });
        let job = JobLink {
            service: self,
            token,
            spec,
            rec,
            tenant,
            shard,
        };
        let mut engine = WaveEngine::new(job, &ledger, &mut replayed)?;
        let families = engine.plan(replayed.planned, replayed.crawl)?;
        std::thread::scope(move |scope| {
            engine.spawn_pool(scope);
            engine.admit_plan(families, replayed.steps);
            loop {
                engine.absorb_staged();
                engine.shard_boundary()?;
                engine.reroute();
                let Some(mut wave) = engine.batch() else {
                    if engine.await_work()? {
                        continue;
                    }
                    break;
                };
                engine.dispatch(&mut wave)?;
                engine.poll(&mut wave);
                engine.fold(&mut wave);
                engine.tune(&mut wave);
                engine.commit(&mut wave)?;
                engine.ingest(&wave);
            }
            engine.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use xtract_datafabric::{MemFs, StorageBackend};
    use xtract_types::config::ContainerRuntime;
    use xtract_types::CrashPoint;

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
