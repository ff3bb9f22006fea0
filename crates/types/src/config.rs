//! Job and endpoint configuration.
//!
//! These types carry what the paper's Listing 2 expresses through the
//! `XtractClient`: which repositories to crawl, which endpoints have data
//! and/or compute layers, how to group files, the two batch sizes, the
//! offloading rule, and the validation schema.

use crate::fault::{fault_roll, FaultPlan};
use crate::id::EndpointId;
use serde::{Deserialize, Serialize};

/// How the crawler's grouping function assigns files to groups (§3
/// "Crawling": "as granular as placing each individual file into its own
/// group, and as broad as placing entire directories ... into a single
/// group").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupingStrategy {
    /// Every file is its own group ("single file group").
    SingleFile,
    /// All files in a directory form one group.
    Directory,
    /// Files in a directory sharing an extension form one group (the
    /// `grouper='extension'` of Listing 2).
    Extension,
    /// Materials-aware grouping: VASP-style run files in a directory are
    /// grouped per calculation, and descriptive files (READMEs, spreadsheets)
    /// join every data group in their directory — this is what creates
    /// overlapping groups and makes min-transfers matter (§4.3.1).
    MaterialsAware,
}

impl GroupingStrategy {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            GroupingStrategy::SingleFile => "single-file",
            GroupingStrategy::Directory => "directory",
            GroupingStrategy::Extension => "extension",
            GroupingStrategy::MaterialsAware => "materials-aware",
        }
    }
}

/// Task-offloading policy (§4.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OffloadMode {
    /// Never offload: everything runs at (or is transferred to) the primary
    /// compute endpoint.
    None,
    /// "Offload n bytes", max variant: when the home endpoint is saturated,
    /// files **larger** than the limit move to the secondary endpoint.
    OnbMax {
        /// Size threshold in bytes.
        limit_bytes: u64,
    },
    /// "Offload n bytes", min variant: files **smaller** than the limit
    /// move.
    OnbMin {
        /// Size threshold in bytes.
        limit_bytes: u64,
    },
    /// A fixed percentage of files, chosen at random, moves to the
    /// secondary endpoint (the RAND policy of Table 2).
    Rand {
        /// Percentage in `[0, 100]`.
        percent: f64,
    },
}

/// Validation / transformation schema applied by the validator service
/// (§3 "Validation (and Transformation)").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationSchema {
    /// The 'passthrough' validator: ensure the dictionary is valid JSON.
    Passthrough,
    /// One of the 12 MDF schemas, by name.
    Mdf(String),
    /// A user-registered schema, by name.
    Custom(String),
}

impl ValidationSchema {
    /// The schema's display name.
    pub fn name(&self) -> &str {
        match self {
            ValidationSchema::Passthrough => "passthrough",
            ValidationSchema::Mdf(n) | ValidationSchema::Custom(n) => n,
        }
    }
}

/// Container runtimes an endpoint supports (§4.1: Docker-only containers
/// cannot run on Singularity-only systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContainerRuntime {
    /// Docker (clouds, Kubernetes).
    Docker,
    /// Singularity (HPC systems).
    Singularity,
}

/// One endpoint entry in a job (Listing 2's `globus_ep` / `fx_ep` dicts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointSpec {
    /// The endpoint.
    pub endpoint: EndpointId,
    /// Root path of the data of interest on this endpoint.
    pub read_path: String,
    /// Staging directory for files transferred *to* this endpoint; `None`
    /// means the endpoint cannot receive data for extraction (Listing 2:
    /// `store_path=None` ⇒ "Xtract will then automatically move the files
    /// to another endpoint").
    pub store_path: Option<String>,
    /// Free storage for staging, bytes.
    pub available_bytes: u64,
    /// Number of FaaS workers, or `None` when the endpoint has no compute
    /// layer (pure storage, like Petrel).
    pub workers: Option<usize>,
    /// Container runtime available at the compute layer.
    pub runtime: ContainerRuntime,
}

impl EndpointSpec {
    /// True when extraction can run here.
    pub fn has_compute(&self) -> bool {
        self.workers.is_some_and(|w| w > 0)
    }

    /// True when files can be staged here.
    pub fn can_receive(&self) -> bool {
        self.store_path.is_some()
    }
}

/// Retry, backoff, and circuit-breaker configuration.
///
/// Replaces the seed's hardcoded retry-once (transfers) and bare
/// max-attempts (tasks) with one tunable policy. Backoff is exponential
/// with **deterministic** jitter: the jitter fraction for attempt `a` is a
/// hash of `(seed, a)`, so two runs of the same job wait the same delays —
/// required for the deterministic-chaos acceptance test. Delays are
/// provably monotonically non-decreasing and bounded by
/// [`RetryPolicy::max_delay_ms`] (the proptests in `tests/resilience.rs`
/// pin both properties).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RetryPolicy {
    /// Attempts per transfer operation (staging a family's bytes).
    pub transfer_attempts: u32,
    /// Attempts per extraction step (one extractor on one family).
    pub task_attempts: u32,
    /// Total attempts a single family may charge across all of its steps
    /// before it is dead-lettered, whatever the per-step counters say.
    pub family_budget: u32,
    /// First backoff delay, milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_delay_ms: u64,
    /// Jitter fraction in `[0, 1]`: attempt `a` waits
    /// `base · 2^(a−1) · (1 + jitter·roll(a))`, clamped to the ceiling.
    pub jitter: f64,
    /// Consecutive failures at one endpoint that open its breaker.
    pub breaker_threshold: u32,
    /// Logical ticks (extraction waves) an open breaker waits before
    /// admitting a half-open probe.
    pub breaker_cooldown: u64,
    /// How long one extraction wave waits for its batch to reach a
    /// terminal status before treating the stragglers as lost,
    /// milliseconds. Tasks themselves are unaffected — a step abandoned by
    /// the window is resubmitted in the next wave under a fresh id.
    pub poll_window_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            transfer_attempts: 4,
            task_attempts: 12,
            family_budget: 48,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
            jitter: 0.5,
            breaker_threshold: 3,
            breaker_cooldown: 2,
            poll_window_ms: 120_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry number `attempt` (1-based), in
    /// milliseconds. Attempt 0 (the first try) waits nothing.
    pub fn delay_ms(&self, attempt: u32, seed: u64) -> u64 {
        if attempt == 0 || self.base_delay_ms == 0 {
            return 0;
        }
        let raw = self.base_delay_ms as f64 * 2f64.powi(attempt.saturating_sub(1).min(1024) as i32);
        let jit = 1.0 + self.jitter * fault_roll(seed, "backoff", attempt as u64);
        (raw * jit).min(self.max_delay_ms as f64) as u64
    }

    /// Checks the policy is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.transfer_attempts == 0 || self.task_attempts == 0 || self.family_budget == 0 {
            return Err("retry attempt counts must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!("jitter {} outside [0, 1]", self.jitter));
        }
        if self.base_delay_ms > self.max_delay_ms {
            return Err(format!(
                "base delay {}ms exceeds ceiling {}ms",
                self.base_delay_ms, self.max_delay_ms
            ));
        }
        if self.breaker_threshold == 0 {
            return Err("breaker_threshold must be > 0".into());
        }
        if self.poll_window_ms == 0 {
            return Err("poll_window_ms must be > 0".into());
        }
        Ok(())
    }
}

/// Straggler-defense policy: adaptive per-task deadlines, hedged
/// speculative re-execution, and the allocation lease watchdog.
///
/// The paper's §5.8.1 recovery is purely reactive — a slow task stalls its
/// wave until the flat poll window expires. This policy makes the wave
/// loop proactive: deadlines derive from the observed completion-latency
/// histogram (p95 × 3, clamped to the floor/ceiling), a breached task is
/// hedged to the best alternative
/// healthy endpoint, and a background watchdog renews lapsed allocations
/// after `watchdog_renew_cooldown_ms`. Deadline breaches also feed the
/// [`HealthTracker`] straggler score fractionally (`breach_weight`,
/// decayed by `straggler_decay` per wave) so chronically slow endpoints
/// are deprioritized before their breaker trips.
///
/// [`HealthTracker`]: https://docs.rs/xtract-core
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct HedgePolicy {
    /// Master switch; `false` restores the flat poll-window behavior.
    pub enabled: bool,
    /// Deadline floor, milliseconds — never hedge faster than this.
    pub deadline_floor_ms: u64,
    /// Deadline ceiling, milliseconds — never wait longer than this even
    /// when the histogram is cold or heavy-tailed.
    pub deadline_ceiling_ms: u64,
    /// Completed-task samples required before the histogram is trusted;
    /// below this the deadline stays at the ceiling.
    pub min_latency_samples: u64,
    /// Fractional failure a deadline breach charges against the endpoint's
    /// straggler score (hard failures charge 1.0).
    pub breach_weight: f64,
    /// Multiplicative decay applied to every straggler score per wave
    /// tick, in `[0, 1)`: old breaches fade instead of accumulating
    /// forever.
    pub straggler_decay: f64,
    /// Straggler score at or above which an endpoint is quarantined
    /// (deprioritized when choosing hedge/reroute targets).
    pub quarantine_threshold: f64,
    /// How long the allocation lease watchdog waits after an expiry
    /// before auto-renewing, milliseconds.
    pub watchdog_renew_cooldown_ms: u64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            deadline_floor_ms: 250,
            deadline_ceiling_ms: 120_000,
            min_latency_samples: 8,
            breach_weight: 0.5,
            straggler_decay: 0.5,
            quarantine_threshold: 2.0,
            watchdog_renew_cooldown_ms: 25,
        }
    }
}

impl HedgePolicy {
    /// A disabled policy (flat poll-window behavior everywhere).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Checks the policy is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.deadline_ceiling_ms == 0 {
            return Err("deadline_ceiling_ms must be > 0".into());
        }
        if self.deadline_floor_ms > self.deadline_ceiling_ms {
            return Err(format!(
                "deadline floor {}ms exceeds ceiling {}ms",
                self.deadline_floor_ms, self.deadline_ceiling_ms
            ));
        }
        if !(0.0..=1.0).contains(&self.breach_weight) {
            return Err(format!(
                "breach_weight {} outside [0, 1]",
                self.breach_weight
            ));
        }
        if !(0.0..1.0).contains(&self.straggler_decay) {
            return Err(format!(
                "straggler_decay {} outside [0, 1)",
                self.straggler_decay
            ));
        }
        if self.quarantine_threshold <= 0.0 {
            return Err("quarantine_threshold must be > 0".into());
        }
        Ok(())
    }
}

/// Adaptive two-level batching (§4.3.2 made self-tuning).
///
/// The paper's Fig. 5 shows throughput varying ~an order of magnitude
/// across the `(xtract_batch_size, funcx_batch_size)` grid, with the
/// optimum depending on workload and endpoint. Enabled, the wave loop
/// *searches* for that optimum instead of freezing the seed defaults: an
/// AIMD law grows both batch knobs additively while the observed
/// per-family p50 completion pace holds or improves, and backs off
/// multiplicatively when the pace degrades, a task breaches its adaptive
/// deadline, or the endpoint's breaker opens. The controller's clamps and
/// gains are constants of `xtract_core::adaptive`. Decisions are a pure
/// function of the observed evidence sequence — no clocks, no randomness
/// — so a resumed job re-derives controller state from its journal
/// instead of persisting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct AdaptiveBatching {
    /// Master switch; `false` keeps the spec's static batch sizes,
    /// byte-identical to the pre-controller wave loop.
    pub enabled: bool,
}

impl AdaptiveBatching {
    /// A disabled policy: the spec's static batch sizes apply unchanged.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled policy.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

/// Durable-recovery (write-ahead log) configuration.
///
/// Governs the segmented recovery log a durable job journals its progress
/// into: when segments rotate, whether each group commit is fsynced, and
/// how many segments accumulate before resume compacts them into a
/// snapshot. The policy shapes *performance*, never correctness — every
/// setting yields a log that replays to the same state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct RecoveryPolicy {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes. Small segments bound the blast radius of a torn tail and
    /// keep compaction unlink batches cheap.
    pub segment_bytes: u64,
    /// `fsync` after every group commit. Disabling trades the durability
    /// of the most recent wave for throughput (the OS still flushes
    /// eventually); torn-tail truncation makes the weaker mode safe, just
    /// lossier after power failure.
    pub sync_each_commit: bool,
    /// Number of live segments at or above which `resume_job` compacts
    /// the log into a snapshot segment before continuing.
    pub compact_segments: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            segment_bytes: 256 << 10,
            sync_each_commit: true,
            compact_segments: 4,
        }
    }
}

impl RecoveryPolicy {
    /// Checks the policy is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_bytes == 0 {
            return Err("recovery segment_bytes must be > 0".into());
        }
        if self.compact_segments < 2 {
            return Err("recovery compact_segments must be >= 2".into());
        }
        Ok(())
    }
}

/// Live serving-index configuration.
///
/// When enabled, the orchestrator feeds the sharded serving index as the
/// job runs: each committed wave ingests the touched families' merged
/// metadata (schema `"live"`), and validation replaces those live
/// records with the final validated ones. A job resumed from its
/// recovery log replays journaled steps into the index first, so the
/// resumed job's index converges to exactly what an uninterrupted run
/// would hold. Disabled by default — the index is then never touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct IndexPolicy {
    /// Master switch for live wave-loop ingest.
    pub enabled: bool,
    /// Shard count for the serving index (families are hash-partitioned
    /// across shards; readers see per-shard immutable snapshots). Only
    /// consulted when this job is the first to initialize the service's
    /// index.
    pub shards: usize,
}

impl Default for IndexPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            shards: 8,
        }
    }
}

impl IndexPolicy {
    /// A disabled policy: the serving index is never touched.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled policy with the default shard count.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Checks the policy is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("index shards must be > 0".into());
        }
        if self.shards > 4096 {
            return Err(format!("index shards {} exceeds 4096", self.shards));
        }
        Ok(())
    }
}

/// How a sharded job's family plan is split across shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum PartitionerKind {
    /// SplitMix64 finalizer over the raw `FamilyId`, modulo the shard
    /// count — the same hash the serving index shards by, so a family's
    /// shard is a pure function of its identity.
    #[default]
    Hash,
    /// Families sorted by id and cut into contiguous equal-rank blocks;
    /// load differs by at most one family between any two shards.
    Range,
}

/// Sharded orchestrator scale-out: partition the family plan across N
/// shard workers, each running its own wave loop against its own WAL
/// subdirectory (`<log_dir>/shard-{k}/`) under its own per-shard
/// log-directory lease.
///
/// A coordinator tracks per-shard heartbeats, steals work from lagging
/// or dead shards onto the least-loaded healthy one (journaled
/// `FamilyMigrated` in both WALs, so replay of either side never
/// double-dispatches), merges shard reports, and resumes every shard's
/// log on `resume_job`. Disabled by default — the job then runs exactly
/// as before, one wave loop, one WAL. Sharding requires a recovery-log
/// directory; `run_job` without one rejects an enabled policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ShardPolicy {
    /// Master switch for the sharded coordinator.
    pub enabled: bool,
    /// Number of shard workers the plan is partitioned across.
    pub shards: usize,
    /// How families map to shards.
    pub partitioner: PartitionerKind,
    /// Wave-duration quantile the lag threshold derives from: a shard
    /// whose current wave has run longer than
    /// `quantile(lag_quantile) * lag_multiplier` is flagged lagging and
    /// marked for stealing.
    pub lag_quantile: f64,
    /// Multiplier over the observed quantile.
    pub lag_multiplier: f64,
    /// Wave-duration samples required (across all shards) before the
    /// quantile threshold is trusted; below this, only idle-pull and
    /// lease-lapse stealing fire.
    pub min_lag_samples: u64,
    /// A donor must hold at least this many eligible (pending,
    /// non-staging) families before a steal takes any; the steal moves
    /// half of what is eligible.
    pub steal_min_pending: u64,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            shards: 4,
            partitioner: PartitionerKind::Hash,
            lag_quantile: 0.95,
            lag_multiplier: 3.0,
            min_lag_samples: 8,
            steal_min_pending: 2,
        }
    }
}

impl ShardPolicy {
    /// A disabled policy: one wave loop, one WAL, exactly as before.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled policy partitioning across `shards` workers.
    pub fn sharded(shards: usize) -> Self {
        Self {
            enabled: true,
            shards,
            ..Self::default()
        }
    }

    /// Checks the policy is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shard count must be > 0".into());
        }
        if self.shards > 256 {
            return Err(format!("shard count {} exceeds 256", self.shards));
        }
        if !(self.lag_quantile > 0.0 && self.lag_quantile < 1.0) {
            return Err(format!("lag_quantile {} outside (0, 1)", self.lag_quantile));
        }
        if !(self.lag_multiplier >= 1.0 && self.lag_multiplier.is_finite()) {
            return Err(format!(
                "lag_multiplier {} must be >= 1",
                self.lag_multiplier
            ));
        }
        if self.steal_min_pending == 0 {
            return Err("steal_min_pending must be > 0".into());
        }
        Ok(())
    }
}

fn default_staging_workers() -> usize {
    4
}

/// A bulk metadata extraction job (§3 "Xtract User Interface": "a list of
/// target repositories ..., paths specifying the root directories to be
/// processed, a list of compute endpoints to be used, and a file grouping
/// function").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Endpoints participating in the job. The first entry with compute is
    /// the primary extraction site unless offloading redirects work.
    pub endpoints: Vec<EndpointSpec>,
    /// Root directories to crawl, as `(endpoint, path)` pairs.
    pub roots: Vec<(EndpointId, String)>,
    /// Grouping function applied at crawl time.
    pub grouping: GroupingStrategy,
    /// Maximum family size `s > 0` for min-transfers (§4.3.1).
    pub max_family_size: usize,
    /// Families per Xtract batch (§4.3.2, swept in Fig. 5).
    pub xtract_batch_size: usize,
    /// Xtract batches per funcX web request (§4.3.2, swept in Fig. 5).
    pub funcx_batch_size: usize,
    /// Offloading policy.
    pub offload: OffloadMode,
    /// Validation schema for finished records.
    pub validation: ValidationSchema,
    /// Endpoint whose data layer receives the validated JSON records
    /// (§3: metadata are transferred "to an endpoint of the user's
    /// choosing for post-processing"). `None` = the primary compute
    /// endpoint.
    pub results_endpoint: Option<EndpointId>,
    /// Delete staged copies after extraction (Listing 1's `delete_files`).
    pub delete_after_extraction: bool,
    /// Number of crawler worker threads (swept in Fig. 4).
    pub crawl_workers: usize,
    /// Staging worker threads: how many families the prefetcher moves
    /// concurrently. With more than one worker, already-local families
    /// start extracting while remote families are still in flight — the
    /// paper's core overlap claim ("processes the data nearly as quickly
    /// as it arrives", Fig. 6). `1` restores fully serial staging.
    #[serde(default = "default_staging_workers")]
    pub staging_workers: usize,
    /// Retry, backoff, and circuit-breaker policy.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Straggler defense: adaptive deadlines, hedged re-execution, and
    /// the allocation lease watchdog.
    #[serde(default)]
    pub hedge: HedgePolicy,
    /// Adaptive two-level batching: lets a per-endpoint feedback
    /// controller retune `(xtract_batch_size, funcx_batch_size)` and the
    /// batch-poll request size from observed wave latencies. Disabled by
    /// default — the static sizes above then apply unchanged.
    #[serde(default)]
    pub adaptive: AdaptiveBatching,
    /// Durable-recovery (write-ahead log) tuning; only consulted when the
    /// job runs with a recovery log attached.
    #[serde(default)]
    pub recovery: RecoveryPolicy,
    /// Live serving-index ingest: records flow into the sharded search
    /// index as waves commit (and replay into it on resume). Disabled by
    /// default.
    #[serde(default)]
    pub index: IndexPolicy,
    /// Sharded orchestrator scale-out: partition the plan across N shard
    /// workers with work stealing and per-shard WALs. Disabled by
    /// default.
    #[serde(default)]
    pub shard: ShardPolicy,
    /// Structured fault plan for chaos testing; `None` injects nothing.
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
}

impl JobSpec {
    /// A minimal, valid job over one endpoint — the starting point for
    /// tests and the quickstart example.
    pub fn single_endpoint(endpoint: EndpointSpec, root: impl Into<String>) -> Self {
        let ep = endpoint.endpoint;
        Self {
            endpoints: vec![endpoint],
            roots: vec![(ep, root.into())],
            grouping: GroupingStrategy::SingleFile,
            max_family_size: 16,
            xtract_batch_size: 8,
            funcx_batch_size: 16,
            offload: OffloadMode::None,
            validation: ValidationSchema::Passthrough,
            results_endpoint: None,
            delete_after_extraction: false,
            crawl_workers: 4,
            staging_workers: default_staging_workers(),
            retry: RetryPolicy::default(),
            hedge: HedgePolicy::default(),
            adaptive: AdaptiveBatching::default(),
            recovery: RecoveryPolicy::default(),
            index: IndexPolicy::default(),
            shard: ShardPolicy::default(),
            fault_plan: None,
        }
    }

    /// Validates internal consistency; returns a human-readable complaint
    /// for the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.endpoints.is_empty() {
            return Err("job has no endpoints".into());
        }
        if self.roots.is_empty() {
            return Err("job has no root paths".into());
        }
        if self.max_family_size == 0 {
            return Err("max_family_size must be > 0 (§4.3.1 requires s > 0)".into());
        }
        if self.xtract_batch_size == 0 || self.funcx_batch_size == 0 {
            return Err("batch sizes must be > 0".into());
        }
        if self.crawl_workers == 0 {
            return Err("crawl_workers must be > 0".into());
        }
        if self.staging_workers == 0 {
            return Err("staging_workers must be > 0".into());
        }
        if !self.endpoints.iter().any(EndpointSpec::has_compute) {
            return Err("no endpoint has a compute layer".into());
        }
        for (ep, _) in &self.roots {
            if !self.endpoints.iter().any(|e| e.endpoint == *ep) {
                return Err(format!("root references unknown endpoint {ep}"));
            }
        }
        if let OffloadMode::Rand { percent } = self.offload {
            if !(0.0..=100.0).contains(&percent) {
                return Err(format!("RAND percent {percent} outside [0, 100]"));
            }
        }
        if let Some(ep) = self.results_endpoint {
            if !self.endpoints.iter().any(|e| e.endpoint == ep) {
                return Err(format!("results endpoint {ep} is not part of the job"));
            }
        }
        self.retry.validate()?;
        self.hedge.validate()?;
        self.recovery.validate()?;
        self.index.validate()?;
        self.shard.validate()?;
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
            // Scheduled shard kills must name shards the policy creates.
            if self.shard.enabled {
                for c in &plan.shard_crashes {
                    if c.shard >= self.shard.shards {
                        return Err(format!(
                            "shard crash names shard {} but the job has {}",
                            c.shard, self.shard.shards
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(id: u64, workers: Option<usize>) -> EndpointSpec {
        EndpointSpec {
            endpoint: EndpointId::new(id),
            read_path: "/data".into(),
            store_path: Some("/tmp/xtract".into()),
            available_bytes: 32 << 30,
            workers,
            runtime: ContainerRuntime::Docker,
        }
    }

    #[test]
    fn single_endpoint_job_is_valid() {
        let job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        assert!(job.validate().is_ok());
    }

    #[test]
    fn job_without_compute_is_rejected() {
        let job = JobSpec::single_endpoint(ep(0, None), "/data");
        assert!(job.validate().unwrap_err().contains("compute"));
        let job2 = JobSpec::single_endpoint(ep(0, Some(0)), "/data");
        assert!(job2.validate().is_err());
    }

    #[test]
    fn zero_family_size_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.max_family_size = 0;
        assert!(job.validate().unwrap_err().contains("max_family_size"));
    }

    #[test]
    fn unknown_root_endpoint_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.roots.push((EndpointId::new(99), "/other".into()));
        assert!(job.validate().unwrap_err().contains("unknown endpoint"));
    }

    #[test]
    fn rand_percent_bounds() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.offload = OffloadMode::Rand { percent: 120.0 };
        assert!(job.validate().is_err());
        job.offload = OffloadMode::Rand { percent: 10.0 };
        assert!(job.validate().is_ok());
    }

    #[test]
    fn retry_policy_defaults_are_valid_and_deserialize_sparse() {
        let policy = RetryPolicy::default();
        assert!(policy.validate().is_ok());
        let sparse: RetryPolicy = serde_json::from_str(r#"{"task_attempts": 3}"#).unwrap();
        assert_eq!(sparse.task_attempts, 3);
        assert_eq!(sparse.family_budget, RetryPolicy::default().family_budget);
        // Poll-window defaults match the old hardcoded 120 s and survive
        // sparse deserialization.
        assert_eq!(sparse.poll_window_ms, 120_000);
    }

    #[test]
    fn zero_poll_window_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.retry.poll_window_ms = 0;
        assert!(job.validate().unwrap_err().contains("poll_window_ms"));
    }

    #[test]
    fn staging_workers_default_and_validation() {
        let job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        assert!(job.staging_workers > 1, "staging must overlap by default");
        let mut bad = job.clone();
        bad.staging_workers = 0;
        assert!(bad.validate().unwrap_err().contains("staging_workers"));
        // Specs serialized before the knob existed still deserialize.
        let mut json: serde_json::Value = serde_json::to_value(&job).unwrap();
        json.as_object_mut().unwrap().remove("staging_workers");
        let back: JobSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back.staging_workers, job.staging_workers);
    }

    #[test]
    fn backoff_is_monotone_and_bounded() {
        let policy = RetryPolicy::default();
        let mut prev = 0;
        for attempt in 0..40 {
            let d = policy.delay_ms(attempt, 17);
            assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            assert!(d <= policy.max_delay_ms);
            prev = d;
        }
        // Deterministic across calls.
        assert_eq!(policy.delay_ms(3, 17), policy.delay_ms(3, 17));
    }

    #[test]
    fn bad_retry_policy_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.retry.jitter = 2.0;
        assert!(job.validate().unwrap_err().contains("jitter"));
        job.retry.jitter = 0.5;
        job.retry.base_delay_ms = 5_000;
        assert!(job.validate().is_err());
    }

    #[test]
    fn fault_plan_is_validated_with_the_job() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        let mut plan = crate::fault::FaultPlan::new(1);
        plan.worker_crash_rate = 7.0;
        job.fault_plan = Some(plan);
        assert!(job.validate().is_err());
    }

    #[test]
    fn hedge_policy_defaults_are_valid_and_deserialize_sparse() {
        let policy = HedgePolicy::default();
        assert!(policy.validate().is_ok());
        assert!(policy.enabled, "hedging defends tails by default");
        // Specs serialized before the knob existed still deserialize.
        let job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        let mut json: serde_json::Value = serde_json::to_value(&job).unwrap();
        json.as_object_mut().unwrap().remove("hedge");
        let back: JobSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back.hedge, HedgePolicy::default());
        // Sparse hedge config keeps unset fields at defaults.
        let sparse: HedgePolicy = serde_json::from_str(r#"{"enabled": false}"#).unwrap();
        assert!(!sparse.enabled);
        assert_eq!(sparse.deadline_floor_ms, 250);
    }

    #[test]
    fn bad_hedge_policy_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.hedge.deadline_floor_ms = 10_000;
        job.hedge.deadline_ceiling_ms = 100;
        assert!(job.validate().unwrap_err().contains("ceiling"));
        job.hedge = HedgePolicy::default();
        job.hedge.straggler_decay = 1.0;
        assert!(job.validate().unwrap_err().contains("straggler_decay"));
        job.hedge = HedgePolicy::disabled();
        assert!(job.validate().is_ok());
        assert!(!job.hedge.enabled);
    }

    #[test]
    fn adaptive_batching_defaults_are_valid_and_deserialize_sparse() {
        let policy = AdaptiveBatching::default();
        assert!(!policy.enabled, "adaptive batching is opt-in");
        assert_eq!(policy, AdaptiveBatching::disabled());
        assert!(AdaptiveBatching::enabled().enabled);
        // Specs serialized before the knob existed still deserialize.
        let job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        let mut json: serde_json::Value = serde_json::to_value(&job).unwrap();
        json.as_object_mut().unwrap().remove("adaptive");
        let back: JobSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back.adaptive, AdaptiveBatching::default());
        // Sparse adaptive config keeps unset fields at defaults.
        let sparse: AdaptiveBatching = serde_json::from_str(r#"{"enabled": true}"#).unwrap();
        assert_eq!(sparse, AdaptiveBatching::enabled());
    }

    #[test]
    fn index_policy_defaults_are_valid_and_deserialize_sparse() {
        let policy = IndexPolicy::default();
        assert!(policy.validate().is_ok());
        assert!(!policy.enabled, "live index ingest is opt-in");
        assert_eq!(policy, IndexPolicy::disabled());
        assert!(IndexPolicy::enabled().enabled);
        // Specs serialized before the knob existed still deserialize.
        let job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        let mut json: serde_json::Value = serde_json::to_value(&job).unwrap();
        json.as_object_mut().unwrap().remove("index");
        let back: JobSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back.index, IndexPolicy::default());
        // Sparse index config keeps unset fields at defaults.
        let sparse: IndexPolicy = serde_json::from_str(r#"{"enabled": true}"#).unwrap();
        assert!(sparse.enabled);
        assert_eq!(sparse.shards, IndexPolicy::default().shards);
    }

    #[test]
    fn shard_policy_defaults_are_valid_and_deserialize_sparse() {
        let policy = ShardPolicy::default();
        assert!(policy.validate().is_ok());
        assert!(!policy.enabled, "sharded scale-out is opt-in");
        assert_eq!(policy, ShardPolicy::disabled());
        assert!(ShardPolicy::sharded(3).enabled);
        assert_eq!(ShardPolicy::sharded(3).shards, 3);
        // Specs serialized before the knob existed still deserialize.
        let job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        let mut json: serde_json::Value = serde_json::to_value(&job).unwrap();
        json.as_object_mut().unwrap().remove("shard");
        let back: JobSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back.shard, ShardPolicy::default());
        // Sparse shard config keeps unset fields at defaults.
        let sparse: ShardPolicy =
            serde_json::from_str(r#"{"enabled": true, "shards": 2}"#).unwrap();
        assert!(sparse.enabled);
        assert_eq!(sparse.shards, 2);
        assert_eq!(sparse.partitioner, PartitionerKind::Hash);
        assert_eq!(sparse.lag_quantile, ShardPolicy::default().lag_quantile);
    }

    #[test]
    fn bad_shard_policy_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.shard.shards = 0;
        assert!(job.validate().unwrap_err().contains("shard count"));
        job.shard.shards = 300;
        assert!(job.validate().unwrap_err().contains("256"));
        job.shard = ShardPolicy::sharded(2);
        job.shard.lag_quantile = 1.5;
        assert!(job.validate().unwrap_err().contains("lag_quantile"));
        job.shard = ShardPolicy::sharded(2);
        job.shard.lag_multiplier = 0.5;
        assert!(job.validate().unwrap_err().contains("lag_multiplier"));
        job.shard = ShardPolicy::sharded(2);
        assert!(job.validate().is_ok());
        // A shard-kill schedule must name shards the policy creates.
        let mut plan = FaultPlan::new(1);
        plan.shard_crashes.push(crate::fault::ShardCrash {
            shard: 2,
            point: crate::fault::CrashPoint::MidWave,
            at_occurrence: 1,
        });
        job.fault_plan = Some(plan);
        assert!(job.validate().unwrap_err().contains("names shard 2"));
        job.shard = ShardPolicy::sharded(3);
        assert!(job.validate().is_ok());
    }

    #[test]
    fn bad_index_policy_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.index.shards = 0;
        assert!(job.validate().unwrap_err().contains("index shards"));
        job.index.shards = 5000;
        assert!(job.validate().unwrap_err().contains("4096"));
        job.index = IndexPolicy::enabled();
        assert!(job.validate().is_ok());
    }

    #[test]
    fn recovery_policy_defaults_are_valid_and_deserialize_sparse() {
        let policy = RecoveryPolicy::default();
        assert!(policy.validate().is_ok());
        assert!(policy.sync_each_commit, "commits are durable by default");
        // Specs serialized before the knob existed still deserialize.
        let job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        let mut json: serde_json::Value = serde_json::to_value(&job).unwrap();
        json.as_object_mut().unwrap().remove("recovery");
        let back: JobSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back.recovery, RecoveryPolicy::default());
        // Sparse recovery config keeps unset fields at defaults.
        let sparse: RecoveryPolicy = serde_json::from_str(r#"{"segment_bytes": 64}"#).unwrap();
        assert_eq!(sparse.segment_bytes, 64);
        assert_eq!(
            sparse.compact_segments,
            RecoveryPolicy::default().compact_segments
        );
    }

    #[test]
    fn bad_recovery_policy_is_rejected() {
        let mut job = JobSpec::single_endpoint(ep(0, Some(4)), "/data");
        job.recovery.segment_bytes = 0;
        assert!(job.validate().unwrap_err().contains("segment_bytes"));
        job.recovery = RecoveryPolicy::default();
        job.recovery.compact_segments = 1;
        assert!(job.validate().unwrap_err().contains("compact_segments"));
    }

    #[test]
    fn endpoint_capabilities() {
        assert!(ep(0, Some(2)).has_compute());
        assert!(!ep(0, None).has_compute());
        let mut storage_only = ep(1, None);
        storage_only.store_path = None;
        assert!(!storage_only.can_receive());
    }
}
