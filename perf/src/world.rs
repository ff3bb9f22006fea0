//! The world each repetition runs in, built fresh every time.
//!
//! Five workloads run in the CLI's standard world ([`WorldSpec::standard`]
//! built by [`build_world_service`]: a `LocalFs` over the corpus directory,
//! compute on the same endpoint), which is also the only world a
//! cross-process shard worker can rebuild. `heavy` needs families to be
//! *staged*: its corpus sits on a storage-only `MemFs` endpoint and a second
//! endpoint, an empty `MemFs` in every repetition, computes.
//! `build_world_service` registers one directory and keeps its fabric to
//! itself, so that one world is assembled here from the same public parts,
//! in the same order. The compute endpoint is not a directory: this box's
//! ext4 charged 0.3 to 0.75 s of kernel time, a different amount every
//! repetition, for the 768 inodes a repetition's staged families need, and
//! the checkout has no tmpfs.
//!
//! The thread budget is this box's 2 cores and does not scale with the
//! host: PR 11 ran more runnable threads than cores and measured the
//! scheduler (10.6 % A/A gap on `shards/makespan_s`).

use std::path::Path;
use std::sync::Arc;
use xtract_core::{build_world_service, WorldSpec, XtractService};
use xtract_datafabric::{AuthService, DataFabric, LocalFs, MemFs, Scope, StorageBackend, Token};
use xtract_types::config::{ContainerRuntime, IndexPolicy};
use xtract_types::{
    CrashPoint, EndpointId, EndpointSpec, FaultPlan, GroupingStrategy, JobSpec, OrchestratorCrash,
    ValidationSchema,
};

/// FaaS workers on the compute endpoint (`heavy`, `procs` and `serve`: 1,
/// see below).
pub const WORKERS: usize = 2;
/// Shards of `shards` and worker processes of `procs`.
pub const SHARDS: usize = 2;
pub const CRAWL_WORKERS: usize = 1;
/// Only `heavy` stages anything.
pub const STAGING_WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Flood,
    Heavy,
    Shards,
    Procs,
    Serve,
    Resume,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Flood,
        Workload::Heavy,
        Workload::Shards,
        Workload::Procs,
        Workload::Serve,
        Workload::Resume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Heavy => "heavy",
            Workload::Shards => "shards",
            Workload::Procs => "procs",
            Workload::Serve => "serve",
            Workload::Resume => "resume",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Flood => "18000 tiny mixed files (10.2k families), unsharded, 2 workers: per-family orchestration (crawl, plan, batch, payload, submit/poll, WAL append, validate) dominates; baseline for shards and procs; R=7",
            Workload::Heavy => "384 large CSV/prose/XIMG families (48 MB) on a storage-only endpoint, staged to a 1-worker compute endpoint: extractors are the job, orchestration negligible; must not move with flood; R=9",
            Workload::Shards => "flood's corpus and job under ShardPolicy::sharded(2), hash partitioner, in-process: adds partitioning, coordinator, stealing and per-shard WALs; shards vs flood is the scale-out; R=7",
            Workload::Procs => "shards' job through run_proc_sharded with 2 one-worker processes: adds the CRC-framed socket RPC, lease fencing, spawn and world bootstrap; procs vs shards is the price of process isolation; R=7",
            Workload::Serve => "JobService, 1 tenant, live index, 6000 files: a preload job fills the index, then the timed job ingests the corpus again (N to 2N) beside 1 closed-loop reader; index, jobs/queue, tenancy at work; R=6",
            Workload::Resume => "flood's job killed at its first mid-wave boundary (untimed), then resumed from a copy of its WAL by a fresh service (timed): recovery opens, truncates, replays, compacts and fast-forwards; R=11",
        }
    }

    /// Timed repetitions of a full-size run (`R`): as many as make the timed
    /// repetitions add up to 8 s or more on the reference box, never fewer
    /// than 5; frozen with the corpus sizes.
    pub fn reps(self) -> usize {
        match self {
            Workload::Flood | Workload::Shards | Workload::Procs => 7,
            Workload::Serve => 6,
            Workload::Heavy => 9,
            Workload::Resume => 11,
        }
    }
}

/// How to build one workload's service.
#[derive(Clone)]
pub struct World {
    /// `data_dir` is the directory of the compute endpoint
    /// (`spec.endpoints[0]`), which is the corpus; unused on `heavy`.
    pub spec: WorldSpec,
    /// `heavy` only: the corpus, on the storage-only endpoint.
    storage: Option<Arc<MemFs>>,
}

const STORAGE: EndpointId = EndpointId::new(0);
const COMPUTE: EndpointId = EndpointId::new(1);

/// The policies every workload shares; all others are the defaults of
/// `WorldSpec::standard` / `JobSpec`.
fn budget(mut spec: JobSpec) -> JobSpec {
    spec.crawl_workers = CRAWL_WORKERS;
    spec.staging_workers = STAGING_WORKERS;
    // As `bench_shards` runs: what fsync costs is a per-layer probe
    // (`recovery.append_sync_us_per_commit`), not part of a makespan.
    spec.recovery.sync_each_commit = false;
    spec
}

impl World {
    /// The standard world over the corpus in `data_dir`.
    fn standard(data_dir: &Path, workers: usize, shards: usize) -> Self {
        let mut spec = WorldSpec::standard(data_dir, workers, shards);
        spec.spec = budget(spec.spec);
        World {
            spec,
            storage: None,
        }
    }

    /// `flood`'s world: what every `mixed` workload's reference job runs in.
    pub fn flood(data_dir: &Path) -> Self {
        Self::standard(data_dir, WORKERS, 0)
    }

    pub fn of(workload: Workload, data_dir: &Path, seed: u64) -> Self {
        match workload {
            Workload::Flood => Self::flood(data_dir),
            Workload::Shards => Self::standard(data_dir, WORKERS, SHARDS),
            // Each worker process brings its own endpoint: one worker each
            // keeps the job at two extracting threads.
            Workload::Procs => Self::standard(data_dir, 1, SHARDS),
            // One worker and one reader: two runnable threads.
            Workload::Serve => {
                let mut w = Self::standard(data_dir, 1, 0);
                w.spec.spec.index = IndexPolicy::enabled();
                w
            }
            Workload::Resume => {
                let mut w = Self::flood(data_dir);
                w.spec.spec.fault_plan = Some(FaultPlan {
                    orchestrator_crashes: vec![OrchestratorCrash {
                        point: CrashPoint::MidWave,
                        at_occurrence: 1,
                    }],
                    ..FaultPlan::new(seed)
                });
                w
            }
            Workload::Heavy => panic!("heavy's world needs its corpus: World::heavy"),
        }
    }

    /// The corpus on storage-only endpoint 0; compute, and the store that
    /// families are staged to, on endpoint 1.
    pub fn heavy(corpus: Arc<MemFs>) -> Self {
        // One worker: `heavy` is the extractors' workload, and one busy core
        // leaves the other to the orchestrator and to whatever else the box
        // runs. With two workers on twice the corpus ten runs spread a
        // quarter to a half wider in the same hour (README, "Corpora").
        let standard = WorldSpec::standard("", 1, 0);
        let mut spec = JobSpec::single_endpoint(
            EndpointSpec {
                endpoint: COMPUTE,
                ..standard.spec.endpoints[0].clone()
            },
            "/",
        );
        spec.endpoints.push(EndpointSpec {
            endpoint: STORAGE,
            read_path: "/".into(),
            store_path: None,
            available_bytes: 0,
            workers: None,
            runtime: ContainerRuntime::Docker,
        });
        spec.roots = vec![(STORAGE, "/".to_string())];
        spec.validation = ValidationSchema::Mdf("mdf-generic".into());
        spec.grouping = GroupingStrategy::MaterialsAware;
        World {
            spec: WorldSpec {
                spec: budget(spec),
                ..standard
            },
            storage: Some(corpus),
        }
    }

    pub fn job(&self) -> &JobSpec {
        &self.spec.spec
    }

    /// The endpoint the job crawls.
    pub fn corpus_endpoint(&self) -> EndpointId {
        self.job().roots[0].0
    }

    /// The corpus as the job's crawl endpoint sees it.
    pub fn corpus(&self) -> Result<Arc<dyn StorageBackend>, String> {
        Ok(match &self.storage {
            Some(mem) => mem.clone(),
            None => Arc::new(
                LocalFs::new(self.corpus_endpoint(), &self.spec.data_dir)
                    .map_err(|e| format!("open corpus: {e}"))?,
            ),
        })
    }

    /// Builds the data fabric, auth and service and connects the compute
    /// endpoint: what stands between a corpus and the first job.
    pub fn build(&self) -> Result<(XtractService, Token), String> {
        let Some(corpus) = &self.storage else {
            return build_world_service(&self.spec).map_err(|e| format!("build world: {e}"));
        };
        let fabric = Arc::new(DataFabric::new());
        // Every repetition stages into an empty store.
        fabric.register(COMPUTE, "compute", Arc::new(MemFs::new(COMPUTE)));
        fabric.register(STORAGE, "storage", corpus.clone());
        let auth = Arc::new(AuthService::new());
        let token = auth.login(
            "perf",
            &[
                Scope::Crawl,
                Scope::Extract,
                Scope::Transfer,
                Scope::Validate,
            ],
        );
        let service = XtractService::new(fabric, auth, self.spec.seed);
        service
            .connect_endpoint(&self.job().endpoints[0])
            .map_err(|e| format!("connect compute endpoint: {e}"))?;
        Ok((service, token))
    }
}
