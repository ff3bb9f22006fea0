//! The campaign simulator: paper-scale experiments on a virtual clock.
//!
//! Runs the same pipeline as the live service — crawl hand-off, optional
//! prefetch, two-level batching, FaaS dispatch, worker execution,
//! allocation expiry + checkpointed restart — against
//! [`xtract_workloads::FamilyProfile`] streams and the calibrated cost
//! models in `xtract_sim::calibration`. A 2.5 M-group MDF campaign
//! (Fig. 8) simulates in seconds of wall-clock.
//!
//! Model structure (each stage feeds the next stage's ready time):
//!
//! 1. **Crawl** — family *i* becomes visible at
//!    [`CrawlModel::family_ready_time`] (families stream out
//!    asynchronously, §5.8.1).
//! 2. **Prefetch** (optional) — families chunk into Globus-style transfer
//!    jobs over a fair-share link with a concurrent-job cap (Fig. 6's "10
//!    concurrent Globus transfer jobs").
//! 3. **Batching** — families fuse into Xtract batches per extractor
//!    class, then into funcX requests (§4.3.2); the dispatcher is a
//!    serial resource costing `WS_REQUEST_S` + per-family serialization.
//! 4. **Execution** — an [`xtract_sim::ServerPool`] of worker containers;
//!    an Xtract batch runs serially on one worker (that is what makes
//!    oversized batches straggle in Fig. 5).
//! 5. **Allocation windows** — with a scheduler limit (Theta's 6 h),
//!    work in flight at expiry is lost and resubmitted; the checkpoint
//!    flag preserves finished families inside lost tasks (§5.8.1).

use crate::adaptive::{AdaptiveTuner, WaveEvidence};
use crate::crawlmodel::CrawlModel;
use rand::rngs::SmallRng;
use xtract_obs::{Phase, PhaseTimings};

use xtract_sim::calibration::{extractor_cost, faas};
use xtract_sim::dist::lognormal;
use xtract_sim::net::{simulate_transfers, TransferJob, TransferSlots};
use xtract_sim::sites::{LinkSpec, Site};
use xtract_sim::{RngStreams, ServerPool, SimTime};
use xtract_types::fault::fault_roll;
use xtract_types::{
    AdaptiveBatching, DeadLetter, EndpointId, ExtractorKind, FailureReason, FamilyId, FaultPlan,
    HedgePolicy, TaskId, XtractError,
};
use xtract_workloads::FamilyProfile;

/// Optional prefetch stage: move family bytes across a link before
/// extraction (Fig. 6, Table 2, Fig. 7 use this).
#[derive(Debug, Clone, Copy)]
pub struct PrefetchPlan {
    /// The wide-area path.
    pub link: LinkSpec,
    /// Concurrent transfer jobs (Globus setting; Fig. 6 uses 10).
    pub slots: usize,
    /// Families bundled per transfer job.
    pub families_per_job: usize,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Facility the workers live at.
    pub site: Site,
    /// Worker containers in use (≤ site capacity).
    pub workers: usize,
    /// Families per Xtract batch (§4.3.2).
    pub xtract_batch: usize,
    /// Xtract batches per funcX request (§4.3.2).
    pub funcx_batch: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// Crawl model for staged family arrival (`None` = all ready at 0).
    pub crawl: Option<(CrawlModel, usize)>,
    /// Prefetch stage (`None` = data already local).
    pub prefetch: Option<PrefetchPlan>,
    /// Scheduler allocation limit override (defaults to the site's).
    pub allocation_limit_s: Option<f64>,
    /// Checkpoint flag (§5.8.1).
    pub checkpoint: bool,
    /// Delay between an allocation expiring and the next one starting.
    pub restart_overhead_s: f64,
    /// Cold-start cost paid by every worker before its first task
    /// (§5.8.2's ≈70 s; 0 when containers are pre-warmed).
    pub cold_start_s: f64,
    /// Give up on a family after this many lost attempts (it is possible
    /// for a non-checkpointed family's service time to exceed the
    /// allocation window, in which case it can never finish).
    pub max_attempts: u32,
    /// Structured fault injection (`None` = no injected faults): worker
    /// crashes and heartbeat losses strike executing tasks, degraded links
    /// and transfer faults delay prefetch jobs — the same [`FaultPlan`]
    /// the live service consumes, consulted deterministically from the
    /// plan's own seed.
    pub fault_plan: Option<FaultPlan>,
    /// Straggler defense (`None` = no hedging): a crashed or
    /// heartbeat-lost task is noticed at its adaptive deadline — the
    /// class-mean estimate times the policy multiplier, clamped to the
    /// policy floor/ceiling — and speculatively resubmitted then, instead
    /// of waiting out the full (never-arriving) completion. Models the
    /// live orchestrator's hedged re-execution on the virtual clock, for
    /// Fig. 8-style rework-cost vs makespan comparisons.
    pub hedge: Option<HedgePolicy>,
    /// Adaptive two-level batching (`None` = the static
    /// `xtract_batch`/`funcx_batch` grid point). When set (and enabled),
    /// the campaign runs *synchronous waves*: each wave batches with the
    /// [`AdaptiveTuner`]'s current limits, executes to a barrier, and
    /// feeds the observed per-family latency median back into the
    /// controller — the simulated analogue of the live orchestrator's
    /// latency-feedback loop. `xtract_batch`/`funcx_batch` become the
    /// controller's starting point rather than fixed sizes. Adaptive
    /// campaigns model fault-free sweeps: `fault_plan`, `hedge`, and
    /// allocation limits must be unset.
    pub adaptive: Option<AdaptiveBatching>,
}

impl CampaignConfig {
    /// A minimal config for `site` with pre-warmed containers and no
    /// allocation limit.
    pub fn new(site: Site, workers: usize, seed: u64) -> Self {
        assert!(workers > 0);
        Self {
            site,
            workers,
            xtract_batch: 8,
            funcx_batch: 16,
            seed,
            crawl: None,
            prefetch: None,
            allocation_limit_s: None,
            checkpoint: false,
            restart_overhead_s: 120.0,
            cold_start_s: 0.0,
            max_attempts: 10,
            fault_plan: None,
            hedge: None,
            adaptive: None,
        }
    }
}

/// One family's simulated outcome.
#[derive(Debug, Clone, Copy)]
pub struct FamilyOutcome {
    /// Extractor class.
    pub class: &'static str,
    /// When the family became available (crawl + prefetch done).
    pub ready: f64,
    /// When its (final, successful) task started on a worker.
    pub start: f64,
    /// When its extraction finished.
    pub finish: f64,
    /// Execution attempts (>1 means it was lost to an expiry).
    pub attempts: u32,
    /// Sampled service seconds (final attempt's remaining work).
    pub service: f64,
}

/// Aggregate results.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-family outcomes, in completion order.
    pub outcomes: Vec<FamilyOutcome>,
    /// Last finish instant.
    pub makespan: f64,
    /// Aggregate worker-busy seconds ("core hours" × 3600).
    pub busy_core_seconds: f64,
    /// funcX web-service requests issued.
    pub ws_requests: u64,
    /// Allocation restarts taken.
    pub restarts: u32,
    /// Families lost at least once.
    pub lost_families: u64,
    /// Families abandoned after `max_attempts` losses.
    pub failed_families: u64,
    /// Hedged (deadline-triggered) speculative resubmissions launched.
    pub hedges_launched: u64,
    /// Hedged resubmissions whose task completed (or fully checkpointed
    /// out). Always `hedges_launched == hedges_won + hedges_wasted`.
    pub hedges_won: u64,
    /// Hedged resubmissions lost again or abandoned.
    pub hedges_wasted: u64,
    /// One typed record per abandoned family (same shape as the live
    /// report's dead letters).
    pub dead_letters: Vec<DeadLetter>,
    /// When the crawl finished feeding families.
    pub crawl_finish: f64,
    /// When the last prefetch job finished (0 when no prefetch).
    pub transfer_finish: f64,
    /// Total bytes moved by prefetch.
    pub bytes_transferred: u64,
    /// Per-wave `(xtract, funcx)` limits the adaptive controller used, in
    /// wave order — the tuning trajectory. Empty for static campaigns.
    pub batch_trajectory: Vec<(usize, usize)>,
    /// Per-phase virtual-time marks, in the same shape the live
    /// [`crate::JobReport`] uses. Campaign phases *overlap* (families
    /// extract while the crawl still streams), so these are stage spans on
    /// the virtual clock — crawl/stage are finish marks, dispatch is the
    /// serial dispatcher's busy time, extract is mean per-worker busy
    /// time — and their sum is not the makespan.
    pub phases: PhaseTimings,
}

impl CampaignReport {
    /// Overall completed-families-per-second.
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            self.outcomes.len() as f64 / self.makespan
        }
    }

    /// Completions per `bucket_s`-second bucket: the Fig. 8 throughput
    /// curve.
    pub fn completion_timeline(&self, bucket_s: f64) -> Vec<(f64, u64)> {
        assert!(bucket_s > 0.0);
        let buckets = (self.makespan / bucket_s).ceil() as usize + 1;
        let mut counts = vec![0u64; buckets];
        for o in &self.outcomes {
            counts[(o.finish / bucket_s) as usize] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (i as f64 * bucket_s, c))
            .collect()
    }

    /// Core hours consumed (§5.8.1 reports 26 200 for full MDF).
    pub fn core_hours(&self) -> f64 {
        self.busy_core_seconds / 3600.0
    }

    /// Virtual seconds of extraction that ran *while transfers were still
    /// in flight* — the Fig. 8 overlap: each family contributes the part
    /// of its `[start, finish]` execution span that precedes the last
    /// prefetch finishing. Zero when nothing was prefetched; approaches
    /// the summed execution time when extraction fully hides inside the
    /// transfer window ("processes the repository in roughly half the
    /// time it would take to merely move the bytes", §5.6).
    pub fn stage_overlap_s(&self) -> f64 {
        if self.transfer_finish <= 0.0 {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| (self.transfer_finish.min(o.finish) - o.start).max(0.0))
            .sum()
    }
}

struct SimTask {
    family_idx: Vec<usize>,
    services: Vec<f64>,
    ready: SimTime,
}

/// Expected reference-core service seconds for a class (the lognormal
/// mean `e^{mu + sigma^2/2}`).
fn mean_ref_service(class: &str) -> f64 {
    let (mu, sigma) = extractor_cost::lognormal_params(class);
    (mu + sigma * sigma / 2.0).exp()
}

/// Best-effort mapping from a workload class string to the extractor
/// family it exercises, for typed dead letters.
fn class_kind(class: &str) -> ExtractorKind {
    match class {
        "csv" | "tabular" => ExtractorKind::Tabular,
        "json" | "xml" | "yaml" => ExtractorKind::SemiStructured,
        "images" | "imagesort" => ExtractorKind::Images,
        "netcdf" | "hdf" | "ase" | "matio" => ExtractorKind::Hierarchical,
        "bert" => ExtractorKind::Bert,
        "python" => ExtractorKind::PythonCode,
        "c-code" => ExtractorKind::CCode,
        _ => ExtractorKind::Keyword,
    }
}

/// The simulator.
pub struct Campaign {
    config: CampaignConfig,
    profiles: Vec<FamilyProfile>,
}

impl Campaign {
    /// A campaign over `profiles` under `config`.
    pub fn new(config: CampaignConfig, profiles: Vec<FamilyProfile>) -> Self {
        assert!(
            config.workers <= config.site.max_workers().max(config.workers),
            "worker count exceeds site capacity"
        );
        Self { config, profiles }
    }

    /// Samples one family's service time on this site's cores.
    ///
    /// The lognormal tail is capped at 8 250 reference-core-seconds
    /// (≈15 000 s on Theta's 0.55-speed cores — the longest per-family
    /// duration visible in Fig. 8's scatter): no real family exceeded a
    /// single six-hour allocation, and an uncapped tail would make some
    /// families physically unfinishable under §5.8.1's restart model.
    fn sample_service(&self, class: &str, rng: &mut SmallRng) -> f64 {
        const REF_SERVICE_CAP_S: f64 = 8_250.0;
        let (mu, sigma) = extractor_cost::lognormal_params(class);
        lognormal(rng, mu, sigma).min(REF_SERVICE_CAP_S) / self.config.site.core_speed
    }

    /// Runs the campaign: the adaptive synchronous-wave path when
    /// [`CampaignConfig::adaptive`] is set and enabled, the fully
    /// pipelined static path otherwise.
    pub fn run(&self) -> CampaignReport {
        match self.config.adaptive {
            Some(policy) if policy.enabled => self.run_adaptive(policy),
            _ => self.run_static(),
        }
    }

    /// Stages 1–2 (crawl arrival + optional prefetch), shared by both
    /// execution paths: per-family visibility instants, the crawl and
    /// transfer finish marks, and bytes moved.
    fn arrivals(&self) -> (Vec<SimTime>, SimTime, SimTime, u64) {
        let cfg = &self.config;
        let n = self.profiles.len();

        // Stage 1: crawl arrival times.
        let mut ready: Vec<SimTime> = match &cfg.crawl {
            Some((model, crawl_workers)) => (0..n as u64)
                .map(|i| model.family_ready_time(*crawl_workers, i))
                .collect(),
            None => vec![SimTime::ZERO; n],
        };
        let crawl_finish = ready.iter().copied().max().unwrap_or(SimTime::ZERO);

        // Stage 2: prefetch.
        let mut transfer_finish = SimTime::ZERO;
        let mut bytes_transferred = 0u64;
        if let Some(plan) = &cfg.prefetch {
            let mut jobs: Vec<TransferJob> = Vec::new();
            let mut job_members: Vec<Vec<usize>> = Vec::new();
            let mut cur = Vec::new();
            let mut cur_bytes = 0u64;
            let mut cur_ready = SimTime::ZERO;
            for (i, r) in ready.iter().enumerate().take(n) {
                cur.push(i);
                cur_bytes += self.profiles[i].bytes;
                cur_ready = cur_ready.max(*r);
                if cur.len() >= plan.families_per_job || i + 1 == n {
                    jobs.push(TransferJob {
                        ready: cur_ready + SimTime::from_secs(plan.link.startup_s),
                        bytes: cur_bytes,
                    });
                    job_members.push(std::mem::take(&mut cur));
                    cur_bytes = 0;
                    cur_ready = SimTime::ZERO;
                }
            }
            let outcomes = simulate_transfers(
                plan.link.bandwidth_bps,
                plan.link.per_stream_bps,
                TransferSlots::new(plan.slots),
                &jobs,
            );
            for (j, (job, members)) in outcomes.iter().zip(&job_members).enumerate() {
                // Injected link faults delay the job: a transient fault
                // costs one retried submission (another startup), a
                // degraded link adds the plan's configured stall.
                let mut extra_s = 0.0;
                if let Some(fp) = &cfg.fault_plan {
                    let path = format!("/sim/xfer-{j}");
                    if fp.transfer_file_faults(&path, 0) {
                        extra_s += plan.link.startup_s;
                    }
                    if fp.link_degraded(&path, 0) {
                        extra_s += fp.slow_link_delay_ms as f64 / 1000.0;
                    }
                }
                let finish = job.finish + SimTime::from_secs(extra_s);
                transfer_finish = transfer_finish.max(finish);
                for &i in members {
                    ready[i] = finish;
                }
            }
            bytes_transferred = jobs.iter().map(|j| j.bytes).sum();
        }
        (ready, crawl_finish, transfer_finish, bytes_transferred)
    }

    /// The static pipeline: one batching pass over the whole campaign at
    /// the configured grid point, fully pipelined through dispatcher and
    /// workers.
    fn run_static(&self) -> CampaignReport {
        let cfg = &self.config;
        let streams = RngStreams::new(cfg.seed);
        let mut service_rng = streams.stream("campaign-service");
        let n = self.profiles.len();
        let (ready, crawl_finish, transfer_finish, bytes_transferred) = self.arrivals();

        // Stage 3: batching + dispatch. Families in ready order fuse into
        // per-class Xtract batches; full batches fuse into funcX requests
        // through a serial dispatcher.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| ready[a].cmp(&ready[b]).then(a.cmp(&b)));

        let mut open: std::collections::HashMap<&'static str, (Vec<usize>, Vec<f64>, SimTime)> =
            Default::default();
        let mut tasks: Vec<SimTask> = Vec::new();
        let mut close_order: Vec<usize> = Vec::new(); // indices into tasks
        for &i in &order {
            let p = &self.profiles[i];
            let svc = self.sample_service(p.class, &mut service_rng);
            // Xtract batching amortizes per-task overhead for *short*
            // tasks; serializing several multi-hour extractor invocations
            // behind one worker would manufacture exactly the stragglers
            // §4.3.1 warns about (and Fig. 8's per-family durations show
            // heavy MDF families executing as their own tasks). Classes
            // whose expected service dwarfs the dispatch overhead
            // therefore ship one family per task.
            let batch_cap = if mean_ref_service(p.class) > 60.0 {
                1
            } else {
                cfg.xtract_batch
            };
            let entry = open
                .entry(p.class)
                .or_insert_with(|| (Vec::new(), Vec::new(), SimTime::ZERO));
            entry.0.push(i);
            entry.1.push(svc);
            entry.2 = entry.2.max(ready[i]);
            if entry.0.len() >= batch_cap {
                let (family_idx, services, batch_ready) = open.remove(p.class).expect("open");
                close_order.push(tasks.len());
                tasks.push(SimTask {
                    family_idx,
                    services,
                    ready: batch_ready,
                });
            }
        }
        // Flush stragglers deterministically.
        let mut leftovers: Vec<&'static str> = open.keys().copied().collect();
        leftovers.sort_unstable();
        for class in leftovers {
            let (family_idx, services, batch_ready) = open.remove(class).expect("open");
            close_order.push(tasks.len());
            tasks.push(SimTask {
                family_idx,
                services,
                ready: batch_ready,
            });
        }

        // funcX requests over the serial dispatcher. Heavy-class tasks
        // are prioritized in the submission queue — the paper's MDF run
        // visibly submitted its long-duration tasks first ("many
        // long-duration tasks saturate multiple funcX workers" in the
        // first hour, §5.8.1), which is what keeps the multi-hour ASE
        // tail from starting late and overhanging the makespan.
        let mut dispatch_order = close_order.clone();
        dispatch_order.sort_by(|&a, &b| {
            let heavy = |t: &SimTask| {
                t.family_idx
                    .iter()
                    .any(|&fi| mean_ref_service(self.profiles[fi].class) > 60.0)
            };
            heavy(&tasks[b]).cmp(&heavy(&tasks[a])).then(a.cmp(&b))
        });
        let mut ws_requests = 0u64;
        let mut dispatcher_busy_s = 0.0f64;
        let mut dispatcher_free = SimTime::ZERO;
        let mut task_worker_ready: Vec<SimTime> = vec![SimTime::ZERO; tasks.len()];
        for chunk in dispatch_order.chunks(cfg.funcx_batch) {
            let members_ready = chunk
                .iter()
                .map(|&t| tasks[t].ready)
                .max()
                .unwrap_or(SimTime::ZERO);
            let families: usize = chunk.iter().map(|&t| tasks[t].family_idx.len()).sum();
            // Superlinear payload cost (see calibration::faas): huge
            // requests serialize worse than linearly.
            let payload_factor = 1.0 + families as f64 / faas::PAYLOAD_KNEE_FAMILIES;
            let duration = SimTime::from_secs(
                faas::WS_REQUEST_S
                    + families as f64 * faas::SERIALIZE_PER_FAMILY_S * payload_factor,
            );
            let start = dispatcher_free.max(members_ready);
            dispatcher_free = start + duration;
            dispatcher_busy_s += duration.as_secs();
            ws_requests += 1;
            for &t in chunk {
                task_worker_ready[t] = dispatcher_free;
            }
        }

        // Stage 4/5: execution in allocation windows.
        let alloc_limit = cfg
            .allocation_limit_s
            .or(cfg.site.allocation_limit_s)
            .unwrap_or(f64::INFINITY);
        // Execution queue: (task, remaining services per family, attempt).
        struct Pending {
            task: usize,
            remaining: Vec<(usize, f64)>, // (family idx, remaining service)
            ready: SimTime,
            attempt: u32,
            /// This attempt is a hedged (early, deadline-triggered)
            /// resubmission; its fate decides hedges_won vs hedges_wasted.
            hedged: bool,
        }
        let mut queue: std::collections::VecDeque<Pending> = dispatch_order
            .iter()
            .map(|&t| Pending {
                task: t,
                remaining: tasks[t]
                    .family_idx
                    .iter()
                    .copied()
                    .zip(tasks[t].services.iter().copied())
                    .collect(),
                ready: task_worker_ready[t],
                attempt: 1,
                hedged: false,
            })
            .collect();
        // Heavy-class tasks run longest-processing-time-first: "The
        // higher throughput in the first hour is due to the order of task
        // submission, as many long-duration tasks saturate multiple funcX
        // workers" (§5.8.1) — Fig. 8's multi-hour families all start
        // early, and LPT is what keeps a lone four-hour family from
        // straddling the allocation boundary. Light tasks stay in
        // dispatch (FIFO) order so the millions of small families flow
        // continuously — the paper's early throughput peak.
        let heavy_pending = |p: &Pending, profiles: &[FamilyProfile]| {
            p.remaining
                .iter()
                .any(|&(fi, _)| mean_ref_service(profiles[fi].class) > 60.0)
        };
        queue.make_contiguous().sort_by(|a, b| {
            let (ha, hb) = (
                heavy_pending(a, &self.profiles),
                heavy_pending(b, &self.profiles),
            );
            hb.cmp(&ha)
                .then_with(|| {
                    if ha && hb {
                        let sa: f64 = a.remaining.iter().map(|(_, s)| s).sum();
                        let sb: f64 = b.remaining.iter().map(|(_, s)| s).sum();
                        sb.total_cmp(&sa)
                    } else {
                        a.ready.cmp(&b.ready)
                    }
                })
                .then(a.task.cmp(&b.task))
        });

        let mut outcomes: Vec<FamilyOutcome> = Vec::with_capacity(n);
        let mut busy = 0.0f64;
        let mut restarts = 0u32;
        let mut lost_once: std::collections::HashSet<usize> = Default::default();
        let mut failed_families = 0u64;
        let mut hedges_launched = 0u64;
        let mut hedges_won = 0u64;
        let mut hedges_wasted = 0u64;
        let mut dead_letters: Vec<DeadLetter> = Vec::new();
        let mut window_start = SimTime::ZERO;
        let mut safety = 0u32;
        while !queue.is_empty() {
            safety += 1;
            assert!(safety < 100_000, "campaign failed to converge");
            // An allocation is requested when there is runnable work: if
            // everything in the queue only becomes ready later (transfers
            // in flight), the window starts then.
            let min_ready = queue.iter().map(|p| p.ready).min().unwrap_or(window_start);
            window_start = window_start.max(min_ready);
            // `alloc_limit` may be infinite; keep the boundary as raw f64.
            let window_end_s = window_start.as_secs() + alloc_limit;
            // Workers split between heavy-class and light-class work in
            // proportion to their shares of remaining service: heavy
            // families (the multi-hour ASE grind) would otherwise starve
            // the millions of light families until the end, inverting
            // Fig. 8's high-early-throughput curve. In the pull-based
            // real system light tasks flow through whatever workers the
            // heavy tasks leave free, continuously.
            let is_heavy = |p: &Pending| {
                p.remaining
                    .iter()
                    .any(|&(fi, _)| mean_ref_service(self.profiles[fi].class) > 60.0)
            };
            let heavy_work: f64 = queue
                .iter()
                .filter(|p| is_heavy(p))
                .flat_map(|p| p.remaining.iter().map(|(_, s)| s))
                .sum();
            let light_work: f64 = queue
                .iter()
                .filter(|p| !is_heavy(p))
                .flat_map(|p| p.remaining.iter().map(|(_, s)| s))
                .sum();
            let total_work = heavy_work + light_work;
            let heavy_workers = if heavy_work == 0.0 || light_work == 0.0 {
                if heavy_work > 0.0 {
                    cfg.workers
                } else {
                    0
                }
            } else {
                ((cfg.workers as f64 * heavy_work / total_work).round() as usize)
                    .clamp(1, cfg.workers - 1)
            };
            let pool_start = window_start + SimTime::from_secs(cfg.cold_start_s);
            let mut pool_heavy = if heavy_workers > 0 {
                Some(ServerPool::free_from(heavy_workers, pool_start))
            } else {
                None
            };
            let mut pool_light = if cfg.workers - heavy_workers > 0 {
                Some(ServerPool::free_from(
                    cfg.workers - heavy_workers,
                    pool_start,
                ))
            } else {
                None
            };
            let mut next_queue: std::collections::VecDeque<Pending> = Default::default();
            while let Some(p) = queue.pop_front() {
                let pool: &mut ServerPool = if is_heavy(&p) {
                    pool_heavy
                        .as_mut()
                        .expect("heavy pool exists for heavy work")
                } else {
                    pool_light
                        .as_mut()
                        .expect("light pool exists for light work")
                };
                let service: f64 =
                    faas::ENDPOINT_DISPATCH_S + p.remaining.iter().map(|(_, s)| s).sum::<f64>();
                // Boundary backfill: the service tracks expected per-class
                // durations, and does not *start* a task whose estimate
                // cannot finish before the allocation expires — it is
                // resubmitted on the next allocation instead. (Estimates
                // are class means, not the true sampled duration, so
                // heavy-tailed tasks can still genuinely straddle and be
                // lost, as in §5.8.1.)
                let estimate: f64 = p
                    .remaining
                    .iter()
                    .map(|&(fi, _)| mean_ref_service(self.profiles[fi].class))
                    .sum::<f64>()
                    / cfg.site.core_speed;
                let would_start = p.ready.max(window_start).max(pool.earliest_free());
                let defer = would_start.as_secs() >= window_end_s
                    || (would_start.as_secs() + estimate > window_end_s && estimate < alloc_limit);
                if defer {
                    next_queue.push_back(Pending {
                        ready: SimTime::from_secs(
                            (window_end_s + cfg.restart_overhead_s).min(f64::MAX / 4.0),
                        )
                        .max(p.ready),
                        ..p
                    });
                    continue;
                }
                let a = pool.assign(p.ready.max(window_start), SimTime::from_secs(service));
                // Injected worker crashes / heartbeat losses strike the
                // task deterministically, keyed on (task, attempt) — a
                // resubmission re-rolls, exactly like the live fabric's
                // fresh-task-id semantics.
                let crash_key = (p.task as u64) << 10 | u64::from(p.attempt);
                let crashed = cfg
                    .fault_plan
                    .as_ref()
                    .is_some_and(|fp| fp.worker_crashes(crash_key) || fp.heartbeat_lost(crash_key));
                if a.finish.as_secs() <= window_end_s && !crashed {
                    // Whole task fits: all member families complete.
                    if p.hedged {
                        hedges_won += 1;
                    }
                    let mut t = a.start.as_secs() + faas::ENDPOINT_DISPATCH_S;
                    busy += service;
                    for &(fi, svc) in &p.remaining {
                        t += svc;
                        outcomes.push(FamilyOutcome {
                            class: self.profiles[fi].class,
                            ready: ready[fi].as_secs(),
                            start: a.start.as_secs(),
                            finish: t,
                            attempts: p.attempt,
                            service: svc,
                        });
                    }
                } else {
                    // Task straddles the expiry (§5.8.1) or its worker
                    // crashed partway through: in-flight work is lost.
                    // With the checkpoint flag, member families whose
                    // metadata already flushed survive.
                    let straddled = a.finish.as_secs() > window_end_s;
                    let ran = if straddled {
                        (window_end_s - a.start.as_secs() - faas::ENDPOINT_DISPATCH_S).max(0.0)
                    } else {
                        // The crash lands a deterministic fraction of the
                        // way through the task's execution.
                        let fp = cfg.fault_plan.as_ref().expect("crashed implies a plan");
                        service * fault_roll(fp.seed, "crash-point", crash_key)
                    };
                    busy += ran.min(service);
                    let mut elapsed = 0.0;
                    let mut survivors: Vec<(usize, f64)> = Vec::new();
                    for &(fi, svc) in &p.remaining {
                        let done_at = elapsed + svc;
                        if cfg.checkpoint && done_at <= ran {
                            // Flushed before the expiry: completed.
                            outcomes.push(FamilyOutcome {
                                class: self.profiles[fi].class,
                                ready: ready[fi].as_secs(),
                                start: a.start.as_secs(),
                                finish: a.start.as_secs() + faas::ENDPOINT_DISPATCH_S + done_at,
                                attempts: p.attempt,
                                service: svc,
                            });
                        } else {
                            lost_once.insert(fi);
                            survivors.push((fi, svc));
                        }
                        elapsed = done_at;
                    }
                    if p.hedged {
                        // A hedged attempt's fate lands exactly once: all
                        // member families checkpointed out means the hedge
                        // still paid off; any survivor means it was wasted
                        // work (a further hedge may launch below).
                        if survivors.is_empty() {
                            hedges_won += 1;
                        } else {
                            hedges_wasted += 1;
                        }
                    }
                    if !survivors.is_empty() {
                        if p.attempt >= cfg.max_attempts {
                            failed_families += survivors.len() as u64;
                            for &(fi, _) in &survivors {
                                dead_letters.push(DeadLetter::new(
                                    FamilyId::new(fi as u64),
                                    FailureReason::RetryBudgetExhausted {
                                        extractor: class_kind(self.profiles[fi].class),
                                        error: XtractError::TaskLost {
                                            task: TaskId::new(p.task as u64),
                                        },
                                    },
                                    p.attempt,
                                ));
                            }
                        } else {
                            // Crash resubmissions are ready as soon as the
                            // loss is noticed; expiry losses wait for the
                            // next allocation window. With the straggler
                            // defense armed, a crashed task is noticed at
                            // its adaptive deadline (estimate × multiplier,
                            // clamped to the policy bounds) and hedged
                            // then, instead of waiting out a completion
                            // that never comes.
                            let hedging =
                                !straddled && cfg.hedge.as_ref().is_some_and(|h| h.enabled);
                            let retry_ready = if straddled {
                                SimTime::from_secs(window_end_s + cfg.restart_overhead_s)
                            } else if hedging {
                                let hp = cfg.hedge.as_ref().expect("hedging implies a policy");
                                let deadline_s = (estimate * hp.deadline_multiplier)
                                    .max(hp.deadline_floor_ms as f64 / 1000.0)
                                    .min(hp.deadline_ceiling_ms as f64 / 1000.0);
                                hedges_launched += 1;
                                a.finish
                                    .min(SimTime::from_secs(a.start.as_secs() + deadline_s))
                            } else {
                                a.finish
                            };
                            next_queue.push_back(Pending {
                                task: p.task,
                                remaining: survivors,
                                ready: retry_ready,
                                attempt: p.attempt + 1,
                                hedged: hedging,
                            });
                        }
                    }
                }
            }
            if next_queue.is_empty() {
                break;
            }
            if window_end_s.is_finite() {
                restarts += 1;
                window_start = SimTime::from_secs(window_end_s + cfg.restart_overhead_s);
            }
            ws_requests += next_queue.len().div_ceil(cfg.funcx_batch) as u64;
            queue = next_queue;
        }

        outcomes.sort_by(|a, b| a.finish.total_cmp(&b.finish));
        let makespan = outcomes.last().map_or(0.0, |o| o.finish);
        let mut phases = PhaseTimings::new();
        phases.add(Phase::Crawl, crawl_finish.as_secs());
        phases.add(Phase::Stage, transfer_finish.as_secs());
        phases.add(Phase::Dispatch, dispatcher_busy_s);
        phases.add(Phase::Extract, busy / cfg.workers as f64);
        CampaignReport {
            outcomes,
            makespan,
            busy_core_seconds: busy,
            ws_requests,
            restarts,
            lost_families: lost_once.len() as u64,
            failed_families,
            hedges_launched,
            hedges_won,
            hedges_wasted,
            dead_letters,
            crawl_finish: crawl_finish.as_secs(),
            transfer_finish: transfer_finish.as_secs(),
            bytes_transferred,
            batch_trajectory: Vec::new(),
            phases,
        }
    }

    /// The adaptive path: the same pipelined dispatcher + worker pool as
    /// the static path, re-tuned every *control block*. Each block:
    ///
    /// 1. asks the [`AdaptiveTuner`] for the current `(xtract, funcx)`
    ///    limits,
    /// 2. takes the next `workers × xtract × 2` families in ready order
    ///    (about two batches per worker — enough samples to trust the
    ///    block, short enough to re-tune frequently),
    /// 3. fuses them per class (heavy classes still cap at one family per
    ///    task, exactly like the static path), pushes the funcX chunks
    ///    through the serial dispatcher with the same superlinear payload
    ///    cost, and queues them on the shared worker pool — *no barrier*:
    ///    workers drain block N+1 the moment they finish their share of
    ///    block N,
    /// 4. feeds the per-family latency median (seconds from the block's
    ///    dispatch anchor) back into the controller.
    ///
    /// Because blocks pipeline, queueing backlog is part of the signal:
    /// undersized limits drown the serial dispatcher in requests and the
    /// backlog stretches block latency; oversized limits pay superlinear
    /// payload serialization and long serial batches. Either way pace
    /// degrades against the controller's best-pace anchor and it walks
    /// back toward the knee where dispatch and execution balance.
    fn run_adaptive(&self, policy: AdaptiveBatching) -> CampaignReport {
        let cfg = &self.config;
        assert!(
            cfg.fault_plan.is_none() && cfg.hedge.is_none(),
            "adaptive campaigns model fault-free sweeps; unset fault_plan/hedge"
        );
        assert!(
            cfg.allocation_limit_s
                .or(cfg.site.allocation_limit_s)
                .is_none(),
            "adaptive campaigns do not model allocation windows"
        );
        let streams = RngStreams::new(cfg.seed);
        let mut service_rng = streams.stream("campaign-service");
        let n = self.profiles.len();
        let (ready, crawl_finish, transfer_finish, bytes_transferred) = self.arrivals();

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| ready[a].cmp(&ready[b]).then(a.cmp(&b)));

        // The campaign models one facility = one endpoint.
        let ep = EndpointId::new(0);
        let mut tuner = AdaptiveTuner::new(policy, cfg.xtract_batch, cfg.funcx_batch);

        let mut outcomes: Vec<FamilyOutcome> = Vec::with_capacity(n);
        let mut trajectory: Vec<(usize, usize)> = Vec::new();
        let mut busy = 0.0f64;
        let mut ws_requests = 0u64;
        let mut dispatcher_busy_s = 0.0f64;
        let mut dispatcher_free = SimTime::ZERO;
        let mut pool = ServerPool::free_from(cfg.workers, SimTime::from_secs(cfg.cold_start_s));
        let mut next = 0usize;
        while next < n {
            let lim = tuner.limits(ep);
            trajectory.push((lim.xtract, lim.funcx));
            let target = (cfg.workers * lim.xtract * 2).max(1);
            let end = (next + target).min(n);
            let wave = &order[next..end];
            next = end;

            // The block's latency origin: when its last member is
            // visible and the dispatcher turns to it.
            let wave_ready = wave
                .iter()
                .map(|&i| ready[i])
                .max()
                .expect("blocks are non-empty");
            let wave_start = dispatcher_free.max(wave_ready);

            // Per-class Xtract batching at the tuner's limit; heavy
            // classes still ship one family per task (§4.3.1).
            let mut open: std::collections::HashMap<&'static str, (Vec<usize>, Vec<f64>)> =
                Default::default();
            let mut wtasks: Vec<(Vec<usize>, Vec<f64>)> = Vec::new();
            for &i in wave {
                let p = &self.profiles[i];
                let svc = self.sample_service(p.class, &mut service_rng);
                let cap = if mean_ref_service(p.class) > 60.0 {
                    1
                } else {
                    lim.xtract
                };
                let entry = open.entry(p.class).or_default();
                entry.0.push(i);
                entry.1.push(svc);
                if entry.0.len() >= cap {
                    wtasks.push(open.remove(p.class).expect("open"));
                }
            }
            let mut leftovers: Vec<&'static str> = open.keys().copied().collect();
            leftovers.sort_unstable();
            for class in leftovers {
                wtasks.push(open.remove(class).expect("open"));
            }
            // Longest-expected-first within the wave keeps a heavy task
            // from landing last and overhanging the barrier.
            let mut exec_order: Vec<usize> = (0..wtasks.len()).collect();
            exec_order.sort_by(|&a, &b| {
                let est = |t: usize| -> f64 {
                    wtasks[t]
                        .0
                        .iter()
                        .map(|&fi| mean_ref_service(self.profiles[fi].class))
                        .sum()
                };
                est(b).total_cmp(&est(a)).then(a.cmp(&b))
            });

            // funcX chunks through the serial dispatcher (same payload
            // physics as the static path).
            let mut task_ready: Vec<SimTime> = vec![SimTime::ZERO; wtasks.len()];
            for chunk in exec_order.chunks(lim.funcx.max(1)) {
                let families: usize = chunk.iter().map(|&t| wtasks[t].0.len()).sum();
                let payload_factor = 1.0 + families as f64 / faas::PAYLOAD_KNEE_FAMILIES;
                let duration = SimTime::from_secs(
                    faas::WS_REQUEST_S
                        + families as f64 * faas::SERIALIZE_PER_FAMILY_S * payload_factor,
                );
                let start = dispatcher_free.max(wave_start);
                dispatcher_free = start + duration;
                dispatcher_busy_s += duration.as_secs();
                ws_requests += 1;
                for &t in chunk {
                    task_ready[t] = dispatcher_free;
                }
            }

            // Queue on the shared pool (no barrier; workers carry their
            // own free times across blocks).
            let mut lats: Vec<f64> = Vec::with_capacity(wave.len());
            for &t in &exec_order {
                let (fams, svcs) = &wtasks[t];
                let service: f64 = faas::ENDPOINT_DISPATCH_S + svcs.iter().sum::<f64>();
                let a = pool.assign(task_ready[t], SimTime::from_secs(service));
                busy += service;
                let mut tcur = a.start.as_secs() + faas::ENDPOINT_DISPATCH_S;
                for (&fi, &svc) in fams.iter().zip(svcs.iter()) {
                    tcur += svc;
                    outcomes.push(FamilyOutcome {
                        class: self.profiles[fi].class,
                        ready: ready[fi].as_secs(),
                        start: a.start.as_secs(),
                        finish: tcur,
                        attempts: 1,
                        service: svc,
                    });
                    lats.push(tcur - wave_start.as_secs());
                }
            }

            // Evidence → controller: the block-exact latency median.
            lats.sort_by(f64::total_cmp);
            let p50 = if lats.is_empty() {
                None
            } else {
                Some(lats[(lats.len() - 1) / 2])
            };
            tuner.observe_wave(
                ep,
                &WaveEvidence {
                    p50_latency_s: p50,
                    samples: lats.len() as u64,
                    families: wave.len() as u64,
                    breaches: 0,
                    breaker_open: false,
                },
            );
        }

        outcomes.sort_by(|a, b| a.finish.total_cmp(&b.finish));
        let makespan = outcomes.last().map_or(0.0, |o| o.finish);
        let mut phases = PhaseTimings::new();
        phases.add(Phase::Crawl, crawl_finish.as_secs());
        phases.add(Phase::Stage, transfer_finish.as_secs());
        phases.add(Phase::Dispatch, dispatcher_busy_s);
        phases.add(Phase::Extract, busy / cfg.workers as f64);
        CampaignReport {
            outcomes,
            makespan,
            busy_core_seconds: busy,
            ws_requests,
            restarts: 0,
            lost_families: 0,
            failed_families: 0,
            hedges_launched: 0,
            hedges_won: 0,
            hedges_wasted: 0,
            dead_letters: Vec::new(),
            crawl_finish: crawl_finish.as_secs(),
            transfer_finish: transfer_finish.as_secs(),
            bytes_transferred,
            batch_trajectory: trajectory,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtract_sim::sites;

    fn profiles(n: usize, class: &'static str) -> Vec<FamilyProfile> {
        (0..n)
            .map(|_| FamilyProfile {
                class,
                files: 1,
                bytes: 100_000,
            })
            .collect()
    }

    #[test]
    fn more_workers_shorter_makespan() {
        let run = |workers| {
            let cfg = CampaignConfig::new(sites::midway(), workers, 1);
            Campaign::new(cfg, profiles(2000, "csv")).run().makespan
        };
        let m56 = run(56);
        let m224 = run(224);
        assert!(m224 < m56, "224 workers {m224} !< 56 workers {m56}");
    }

    #[test]
    fn all_families_complete_exactly_once() {
        let cfg = CampaignConfig::new(sites::midway(), 28, 2);
        let report = Campaign::new(cfg, profiles(500, "json")).run();
        assert_eq!(report.outcomes.len(), 500);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.lost_families, 0);
        assert!(report.makespan > 0.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn determinism_per_seed() {
        let run = || {
            let cfg = CampaignConfig::new(sites::midway(), 28, 7);
            let r = Campaign::new(cfg, profiles(300, "csv")).run();
            (r.makespan, r.busy_core_seconds, r.ws_requests)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn allocation_expiry_forces_restart_and_loses_work() {
        // ASE families (mean ≈4 000 s on Theta) against a 3 000 s window:
        // the duration estimate exceeds the window, so backfill cannot
        // defer them — they run, straddle the expiry, and are lost
        // (§5.8.1). Families whose true duration exceeds every window can
        // never finish and are abandoned after max_attempts.
        let mut cfg = CampaignConfig::new(sites::theta(), 4, 3);
        cfg.allocation_limit_s = Some(3000.0);
        cfg.checkpoint = false;
        cfg.max_attempts = 3;
        let report = Campaign::new(cfg, profiles(40, "ase")).run();
        assert_eq!(report.outcomes.len() as u64 + report.failed_families, 40);
        assert!(report.restarts > 0, "no restart happened");
        assert!(report.lost_families > 0);
        assert!(
            report.failed_families > 0,
            "some ASE families cannot fit 3000 s"
        );
    }

    #[test]
    fn checkpointing_reduces_rework() {
        // bert tasks of 8 families estimate ≈87 s against a 120 s window:
        // the estimate admits them, the heavy-tailed truth straddles, and
        // the checkpoint flag preserves the families that flushed before
        // the expiry (§5.8.1) — less re-execution, never a longer
        // campaign.
        let run = |checkpoint| {
            let mut cfg = CampaignConfig::new(sites::theta(), 4, 3);
            cfg.allocation_limit_s = Some(120.0);
            cfg.restart_overhead_s = 5.0;
            cfg.checkpoint = checkpoint;
            Campaign::new(cfg, profiles(200, "bert")).run()
        };
        let base = run(false);
        let ckpt = run(true);
        assert!(base.restarts > 0 && ckpt.restarts > 0);
        assert!(base.lost_families > 0);
        assert!(
            ckpt.busy_core_seconds < base.busy_core_seconds,
            "checkpointing did not reduce busy time: {} vs {}",
            ckpt.busy_core_seconds,
            base.busy_core_seconds
        );
        // Checkpointing never makes the campaign slower.
        assert!(ckpt.makespan <= base.makespan + 1.0);
    }

    #[test]
    fn prefetch_delays_execution_until_bytes_arrive() {
        let mut cfg = CampaignConfig::new(sites::midway(), 28, 4);
        cfg.prefetch = Some(PrefetchPlan {
            link: sites::link("petrel", "midway"),
            slots: 10,
            families_per_job: 50,
        });
        let report = Campaign::new(cfg, profiles(500, "csv")).run();
        assert!(report.transfer_finish > 0.0);
        assert!(report.bytes_transferred == 500 * 100_000);
        // No family starts before any bytes could arrive.
        let earliest = report
            .outcomes
            .iter()
            .map(|o| o.start)
            .fold(f64::MAX, f64::min);
        assert!(earliest > 0.0);
    }

    #[test]
    fn crawl_staggers_readiness() {
        let mut cfg = CampaignConfig::new(sites::midway(), 28, 5);
        let model = CrawlModel::from_stats(100, 5_000, 500);
        cfg.crawl = Some((model, 4));
        let report = Campaign::new(cfg, profiles(500, "yaml")).run();
        assert!(report.crawl_finish > 0.0);
        let first = report
            .outcomes
            .iter()
            .map(|o| o.ready)
            .fold(f64::MAX, f64::min);
        let last = report.outcomes.iter().map(|o| o.ready).fold(0.0, f64::max);
        assert!(last > first, "readiness should be staggered");
    }

    #[test]
    fn batch_size_one_costs_more_requests() {
        let run = |xb, fb| {
            let mut cfg = CampaignConfig::new(sites::midway(), 28, 6);
            cfg.xtract_batch = xb;
            cfg.funcx_batch = fb;
            Campaign::new(cfg, profiles(256, "csv")).run().ws_requests
        };
        assert!(run(1, 1) > run(8, 16));
        assert_eq!(run(1, 1), 256);
    }

    #[test]
    fn cold_start_shifts_first_completion() {
        let warm = CampaignConfig::new(sites::river(), 30, 8);
        let mut cold = CampaignConfig::new(sites::river(), 30, 8);
        cold.cold_start_s = 70.0;
        let w = Campaign::new(warm, profiles(64, "keyword")).run();
        let c = Campaign::new(cold, profiles(64, "keyword")).run();
        let wf = w.outcomes.iter().map(|o| o.start).fold(f64::MAX, f64::min);
        let cf = c.outcomes.iter().map(|o| o.start).fold(f64::MAX, f64::min);
        assert!(cf >= wf + 69.0, "cold start not applied: {cf} vs {wf}");
    }

    #[test]
    fn injected_crashes_retry_and_dead_letter_deterministically() {
        let run = || {
            let mut cfg = CampaignConfig::new(sites::midway(), 8, 12);
            cfg.max_attempts = 3;
            cfg.fault_plan = Some(FaultPlan {
                worker_crash_rate: 0.5,
                ..FaultPlan::new(99)
            });
            Campaign::new(cfg, profiles(100, "csv")).run()
        };
        let a = run();
        let b = run();
        // Every family terminates exactly once: completed or abandoned.
        assert_eq!(a.outcomes.len() as u64 + a.failed_families, 100);
        assert!(a.lost_families > 0, "a 50% crash rate should lose tasks");
        assert_eq!(a.failed_families as usize, a.dead_letters.len());
        for letter in &a.dead_letters {
            assert!(matches!(
                letter.reason,
                FailureReason::RetryBudgetExhausted { .. }
            ));
        }
        // Same plan + seed → identical dead-letter sets.
        let keys = |r: &CampaignReport| r.dead_letters.iter().map(|d| d.key()).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn hedging_recovers_crashed_tasks_sooner() {
        // A crashed task's unhedged retry waits until the (never-arriving)
        // completion instant before it is noticed; the straggler defense
        // notices it at the adaptive deadline instead. With an aggressive
        // ceiling the hedged campaign finishes strictly sooner, and every
        // launched hedge is accounted exactly once.
        let run = |hedge: Option<HedgePolicy>| {
            let mut cfg = CampaignConfig::new(sites::midway(), 8, 12);
            cfg.fault_plan = Some(FaultPlan {
                worker_crash_rate: 0.5,
                ..FaultPlan::new(99)
            });
            cfg.hedge = hedge;
            Campaign::new(cfg, profiles(100, "bert")).run()
        };
        let base = run(None);
        let aggressive = HedgePolicy {
            deadline_ceiling_ms: 1_000,
            ..HedgePolicy::default()
        };
        let hedged = run(Some(aggressive));
        assert!(base.lost_families > 0, "a 50% crash rate should lose tasks");
        assert_eq!(base.hedges_launched, 0);
        assert_eq!(
            hedged.outcomes.len() as u64 + hedged.failed_families,
            100,
            "hedging must preserve the exactly-once partition"
        );
        assert!(hedged.hedges_launched > 0);
        assert_eq!(
            hedged.hedges_launched,
            hedged.hedges_won + hedged.hedges_wasted,
            "every hedge resolves exactly once"
        );
        assert!(
            hedged.makespan < base.makespan,
            "hedged {} !< unhedged {}",
            hedged.makespan,
            base.makespan
        );
        // Same seed + policy → identical counters and clock.
        let again = run(Some(aggressive));
        assert_eq!(hedged.makespan, again.makespan);
        assert_eq!(hedged.hedges_launched, again.hedges_launched);
        assert_eq!(hedged.hedges_won, again.hedges_won);
    }

    #[test]
    fn degraded_links_delay_prefetch() {
        let run = |fault: Option<FaultPlan>| {
            let mut cfg = CampaignConfig::new(sites::midway(), 28, 4);
            cfg.prefetch = Some(PrefetchPlan {
                link: sites::link("petrel", "midway"),
                slots: 10,
                families_per_job: 50,
            });
            cfg.fault_plan = fault;
            Campaign::new(cfg, profiles(500, "csv")).run()
        };
        let clean = run(None);
        let slow = run(Some(FaultPlan {
            slow_link_rate: 1.0,
            slow_link_delay_ms: 30_000,
            ..FaultPlan::new(7)
        }));
        assert!(
            slow.transfer_finish >= clean.transfer_finish + 29.0,
            "universal slow links must delay transfers: {} vs {}",
            slow.transfer_finish,
            clean.transfer_finish
        );
    }

    #[test]
    fn phase_marks_mirror_the_virtual_clock() {
        let mut cfg = CampaignConfig::new(sites::midway(), 28, 5);
        let model = CrawlModel::from_stats(100, 5_000, 500);
        cfg.crawl = Some((model, 4));
        cfg.prefetch = Some(PrefetchPlan {
            link: sites::link("petrel", "midway"),
            slots: 10,
            families_per_job: 50,
        });
        let report = Campaign::new(cfg, profiles(500, "csv")).run();
        assert_eq!(report.phases.get(Phase::Crawl), report.crawl_finish);
        assert_eq!(report.phases.get(Phase::Stage), report.transfer_finish);
        assert!(report.phases.get(Phase::Dispatch) > 0.0);
        assert!(report.phases.get(Phase::Extract) > 0.0);
        // Stage marks are virtual-clock spans; none can exceed the
        // campaign's own makespan-scale envelope.
        assert!(report.phases.get(Phase::Extract) <= report.makespan);
        assert_eq!(report.phases.get(Phase::Plan), 0.0);
        assert_eq!(report.phases.get(Phase::Index), 0.0);
    }

    #[test]
    fn stage_overlap_measures_extraction_hidden_inside_transfers() {
        let mut cfg = CampaignConfig::new(sites::midway(), 28, 4);
        cfg.prefetch = Some(PrefetchPlan {
            link: sites::link("petrel", "midway"),
            slots: 10,
            families_per_job: 50,
        });
        let report = Campaign::new(cfg, profiles(500, "csv")).run();
        let overlap = report.stage_overlap_s();
        // 500 families drip out of a 10-slot prefetch queue, so early
        // families must extract while later transfers are still moving.
        assert!(overlap > 0.0, "no overlap despite staggered prefetch");
        // The overlap is bounded by the summed execution spans.
        let total_exec: f64 = report.outcomes.iter().map(|o| o.finish - o.start).sum();
        assert!(overlap <= total_exec + 1e-9);
        // Without prefetch there is no transfer window to hide inside.
        let no_prefetch = Campaign::new(
            CampaignConfig::new(sites::midway(), 28, 4),
            profiles(100, "csv"),
        )
        .run();
        assert_eq!(no_prefetch.stage_overlap_s(), 0.0);
    }

    #[test]
    fn adaptive_campaign_is_deterministic_and_exactly_once() {
        let run = || {
            let mut cfg = CampaignConfig::new(sites::midway(), 28, 21);
            cfg.xtract_batch = 2;
            cfg.funcx_batch = 2;
            cfg.adaptive = Some(AdaptiveBatching::enabled());
            Campaign::new(cfg, profiles(3000, "csv")).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes.len(), 3000);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.ws_requests, b.ws_requests);
        assert_eq!(a.batch_trajectory, b.batch_trajectory);
        assert!(!a.batch_trajectory.is_empty());
    }

    #[test]
    fn adaptive_trajectory_moves_and_stays_within_policy_bounds() {
        let mut cfg = CampaignConfig::new(sites::midway(), 56, 22);
        cfg.xtract_batch = 2;
        cfg.funcx_batch = 2;
        let policy = AdaptiveBatching::enabled();
        cfg.adaptive = Some(policy);
        let report = Campaign::new(cfg, profiles(20_000, "csv")).run();
        assert_eq!(report.outcomes.len(), 20_000);
        for &(x, f) in &report.batch_trajectory {
            assert!((policy.xtract_floor..=policy.xtract_ceiling).contains(&x));
            assert!((policy.funcx_floor..=policy.funcx_ceiling).contains(&f));
        }
        // The controller actually tuned: the trajectory left its start.
        assert!(
            report
                .batch_trajectory
                .iter()
                .any(|&(x, f)| (x, f) != (2, 2)),
            "trajectory never moved: {:?}",
            report.batch_trajectory
        );
    }

    #[test]
    fn adaptive_beats_the_static_extremes() {
        // The acceptance sweep at smoke scale: from a deliberately bad
        // starting point the controller must land a makespan below both
        // degenerate grid corners — (1,1) drowns the serial dispatcher in
        // requests, (32,32) pays superlinear payload serialization and a
        // long straggler tail.
        let static_run = |xb, fb| {
            let mut cfg = CampaignConfig::new(sites::midway(), 56, 23);
            cfg.xtract_batch = xb;
            cfg.funcx_batch = fb;
            Campaign::new(cfg, profiles(20_000, "csv")).run().makespan
        };
        let mut cfg = CampaignConfig::new(sites::midway(), 56, 23);
        cfg.xtract_batch = 2;
        cfg.funcx_batch = 2;
        cfg.adaptive = Some(AdaptiveBatching::enabled());
        let adaptive = Campaign::new(cfg, profiles(20_000, "csv")).run().makespan;
        let tiny = static_run(1, 1);
        let huge = static_run(32, 32);
        assert!(adaptive < tiny, "adaptive {adaptive} !< static(1,1) {tiny}");
        assert!(
            adaptive < huge,
            "adaptive {adaptive} !< static(32,32) {huge}"
        );
    }

    #[test]
    fn disabled_adaptive_policy_takes_the_static_path() {
        let mut with_disabled = CampaignConfig::new(sites::midway(), 28, 9);
        with_disabled.adaptive = Some(AdaptiveBatching::disabled());
        let a = Campaign::new(with_disabled, profiles(300, "xml")).run();
        let b = Campaign::new(
            CampaignConfig::new(sites::midway(), 28, 9),
            profiles(300, "xml"),
        )
        .run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.ws_requests, b.ws_requests);
        assert!(a.batch_trajectory.is_empty());
    }

    #[test]
    fn timeline_buckets_sum_to_total() {
        let cfg = CampaignConfig::new(sites::midway(), 28, 9);
        let report = Campaign::new(cfg, profiles(300, "xml")).run();
        let total: u64 = report
            .completion_timeline(10.0)
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(total, 300);
    }
}
