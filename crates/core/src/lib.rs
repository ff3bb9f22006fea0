//! # xtract-core
//!
//! The Xtract orchestrator — the paper's primary contribution (§3, §4).
//!
//! Pure policy modules (shared by both execution modes):
//!
//! * [`families`] — the **min-transfers** algorithm (§4.3.1, Alg. 1):
//!   Karger randomized min-cut over the group-overlap multigraph, plus the
//!   naive per-group baseline it is evaluated against in Fig. 7;
//! * [`planner`] — dynamic extraction plans: `next(E, g)` seeded at crawl
//!   time and extended as extractors report discoveries (§3);
//! * [`batcher`] — two-level batching: Xtract batches fused into funcX
//!   batches (§4.3.2, swept in Fig. 5);
//! * [`adaptive`] — the per-endpoint AIMD feedback controller that
//!   retunes both batch knobs and the batch-poll fan-out online from
//!   observed wave latencies (Fig. 5 made self-tuning);
//! * [`offload`] — the ONB and RAND offloading policies (§4.3.3,
//!   Table 2);
//! * [`validator`] — schema validation/transformation of finished records
//!   (§3 "Validation");
//! * [`recovery`] — the durable write-ahead recovery log (segmented,
//!   CRC-framed) that makes orchestrator crashes survivable: every
//!   commit-worthy transition is journaled, and `resume_job` replays the
//!   log into the state an uninterrupted run would hold. Each family's
//!   step list over this log is the §5.8.1 checkpoint flag: a resubmitted
//!   family re-loads what it already flushed;
//! * [`resilience`] — per-endpoint circuit breakers and per-family retry
//!   budgets driving the recovery policy (see `DESIGN.md`, "Fault
//!   tolerance & failure semantics");
//! * [`shard`] — the sharded orchestrator scale-out: family-space
//!   partitioning across shard workers, heartbeat-driven work stealing,
//!   and shard-death recovery with orphan adoption (see `DESIGN.md`,
//!   "Sharded orchestrator");
//! * [`transport`] — cross-process shard workers: the CRC-framed Unix
//!   socket wire protocol, lease-fenced shard-WAL ownership, heartbeat
//!   death detection, and restartable-coordinator custody journaling
//!   (see `DESIGN.md`, "Cross-process sharding");
//! * [`jobs`] — the asynchronous submit/monitor/retrieve interface of §3
//!   (Listing 2's `XtractClient` flow), and the multi-tenant `JobService`
//!   built on it;
//! * [`tenancy`] — per-tenant quota ledgers, shared breaker scope, and
//!   the tenant registry;
//! * [`queue`] — the weighted fair-share (stride-scheduled) admission
//!   queue with graceful overload shedding;
//! * [`staging`] — the wire types of the concurrent staging pipeline
//!   that overlaps family prefetch with extraction waves (§5.6);
//! * [`dedup`] — exact + MinHash near-duplicate detection (§7 future
//!   work);
//! * [`utility`] — metadata utility scoring for utility-cost tradeoffs
//!   (§2.2, §7 future work).
//!
//! Execution shells:
//!
//! * [`service`] — the **live** `XtractService`: real crawler threads,
//!   real FaaS workers parsing real bytes, real transfers between
//!   in-memory endpoints; `engine` (private) is its wave engine — one
//!   job-state struct and the fixed stage sequence `run_job_inner` calls
//!   (see `DESIGN.md`, "Wave engine");
//! * [`campaign`] — the **simulated** campaign runner: the paper's cost
//!   model (two-level batching, prefetch, allocation windows) on
//!   `xtract-sim`'s calibrated clock for paper-scale experiments (8 192
//!   workers, 2.5 M groups) — see `DESIGN.md`, "Two execution modes share
//!   one policy core";
//! * [`crawlmodel`] — the calibrated analytic crawl-time model behind
//!   Fig. 4.

#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod adaptive;
pub mod batcher;
pub mod campaign;
pub mod crawlmodel;
pub mod dedup;
mod engine;
pub mod families;
pub mod jobs;
pub mod offload;
pub mod payload;
pub mod planner;
pub mod queue;
pub mod recovery;
pub mod resilience;
pub mod service;
pub mod shard;
pub mod staging;
pub mod tenancy;
pub mod transport;
pub mod utility;
pub mod validator;

pub use adaptive::{AdaptiveTuner, BatchLimits, TuneDecision, WaveEvidence};
pub use batcher::{Batcher, FuncxBatch, XtractBatch};
pub use campaign::{Campaign, CampaignConfig, CampaignReport};
pub use families::{build_families, naive_families, FamilySet};
pub use jobs::{JobFailureKind, JobService, JobStatus};
pub use planner::ExtractionPlan;
pub use queue::{Admission, JobQueue, Victim};
pub use recovery::{spec_fingerprint, LogDirLease, RecoveryLog, RecoveryRecord, Replay};
pub use resilience::{BreakerState, HealthTracker, RetryLedger};
pub use service::{JobReport, XtractService};
pub use shard::{build_partitioner, shard_of, HashPartitioner, Partitioner, RangePartitioner};
pub use tenancy::{QuotaLedger, TenantCtx, TenantRegistry};
pub use transport::{build_world_service, run_proc_sharded, run_worker, WorkerCmd, WorldSpec};
