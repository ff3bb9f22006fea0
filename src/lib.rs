//! # Xtract-RS
//!
//! A Rust reproduction of *"A Serverless Framework for Distributed Bulk
//! Metadata Extraction"* (Skluzacek et al., HPDC '21): a system that crawls
//! large distributed research data repositories, groups related files,
//! plans per-group extractor pipelines, and dispatches extraction through a
//! federated FaaS fabric — moving bytes only when it pays off.
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! * [`types`] — files, groups, families, metadata, configuration.
//! * [`sim`] — deterministic discrete-event engine + facility calibration.
//! * [`datafabric`] — storage backends and the authenticated transfer
//!   service (the Globus/Drive substitute).
//! * [`faas`] — the federated FaaS fabric (the funcX substitute).
//! * [`extractors`] — the twelve-extractor library over scientific formats.
//! * [`workloads`] — MDF / CDIAC / Google-Drive / COCO repository
//!   generators.
//! * [`crawler`] — the elastic parallel crawler.
//! * [`core`] — the orchestrator: planner, min-transfers families,
//!   batching, prefetching, offloading, validation, the recovery log, the
//!   live service and the campaign simulator.
//! * [`index`] — the downstream search index validated records feed.
//! * [`tika`] — the Apache-Tika-like baseline used in Table 2.
//! * [`obs`] — campaign observability: the metrics hub, the event
//!   journal, and per-phase span timings.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the full system inventory.

#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub use xtract_core as core;
pub use xtract_crawler as crawler;
pub use xtract_datafabric as datafabric;
pub use xtract_extractors as extractors;
pub use xtract_faas as faas;
pub use xtract_index as index;
pub use xtract_obs as obs;
pub use xtract_sim as sim;
pub use xtract_tika as tika;
pub use xtract_types as types;
pub use xtract_workloads as workloads;

/// Commonly-used items, one `use` away.
pub mod prelude {
    pub use xtract_types::{
        AdaptiveBatching, AllocationExpiry, Blackout, DeadLetter, EndpointId, EndpointSpec,
        ExtractorKind, FailureReason, Family, FamilyBatch, FaultPlan, FaultScope, FileRecord,
        FileType, GroupingStrategy, HedgePolicy, JobSpec, Metadata, OffloadMode, QuotaResource,
        RetryPolicy, ServicePolicy, TenantId, TenantQuota, TenantSpec, ValidationSchema,
        XtractError,
    };
}
