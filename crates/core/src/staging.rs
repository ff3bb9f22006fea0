//! The concurrent staging pipeline's wire types.
//!
//! The paper's headline result (§5.6, Fig. 8) is that extraction time is
//! *hidden inside* transfer time: Xtract processes a 61 TB repository in
//! roughly half the time it would take to merely move the bytes, because
//! families extract while other families are still in flight. The live
//! orchestrator realizes that overlap with a bounded pool of staging
//! workers: the wave engine submits [`StageRequest`]s over a channel, the
//! pool prefetches each family via the `Arc`-shared `TransferService`,
//! and [`StageOutcome`]s stream back into the wave loop — so wave 1 of
//! already-local families dispatches while remote families are still
//! moving. Restaging after a circuit-breaker reroute rides the same
//! channel instead of blocking the wave loop.
//!
//! The types live in their own module so the worker-pool plumbing in
//! `engine.rs` stays about control flow, not payload shape.

use xtract_types::{EndpointId, FailureReason, Family, FileRecord};

/// One family prefetch for the staging pool, either the initial staging
/// pass (`generation == 0`) or a post-reroute restage (`generation > 0`).
#[derive(Debug)]
pub struct StageRequest {
    /// Index of the family in the job's `active` table.
    pub index: usize,
    /// The family to stage, with paths as currently known.
    pub family: Family,
    /// The family's original crawl-time file records — restages always
    /// re-pull from the origin, never from a possibly-dark prior site.
    pub origin_files: Vec<FileRecord>,
    /// The endpoint the origin files live on.
    pub origin_source: EndpointId,
    /// The compute endpoint the bytes are headed to.
    pub exec: EndpointId,
    /// The destination endpoint's staging store root.
    pub store: String,
    /// Base fault salt for this (family, generation); the per-attempt
    /// retry loop adds the attempt number on top.
    pub salt_base: u64,
    /// 0 for initial staging, incremented per breaker reroute.
    pub generation: u32,
}

/// What a staging worker sends back for one [`StageRequest`].
#[derive(Debug)]
pub struct StageOutcome {
    /// Index of the family in the job's `active` table.
    pub index: usize,
    /// Echo of the request's generation.
    pub generation: u32,
    /// Echo of the request's destination endpoint.
    pub exec: EndpointId,
    /// The base path the pass staged (or tried to stage) under. Recorded
    /// even on failure: a partial transfer may have landed files there,
    /// and cleanup must sweep every site a family ever touched.
    pub base: String,
    /// The staged family (with rewritten paths) or the terminal reason.
    pub result: Result<StagedFamily, FailureReason>,
    /// Seconds from job start when the worker picked the request up.
    pub started_s: f64,
    /// Seconds from job start when the worker finished.
    pub finished_s: f64,
}

/// A successfully staged family.
#[derive(Debug)]
pub struct StagedFamily {
    /// The family with paths rewritten to the staging store.
    pub family: Family,
    /// Bytes moved for this staging pass.
    pub bytes: u64,
}

/// The fault salt base for one (family, generation) staging pass.
///
/// Initial staging used to pass `salt_base = 0` for *every* family, so
/// `submit_with_salt(…, 0 + attempt)` gave all families identical
/// fault-sampling salts and injected transfer faults fired in lockstep
/// across the whole job. Deriving the base from the family id (and the
/// reroute generation) decorrelates them: each family, each generation,
/// each attempt rolls its own dice. The multipliers keep the three
/// components in disjoint ranges for any plausible attempt count.
pub fn stage_salt_base(family: xtract_types::FamilyId, generation: u32) -> u64 {
    family
        .raw()
        .wrapping_mul(1_000_000)
        .wrapping_add(generation as u64 * 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtract_types::FamilyId;

    #[test]
    fn salt_bases_are_distinct_per_family_generation_and_attempt() {
        let mut seen = std::collections::HashSet::new();
        for fam in 0..50u64 {
            for generation in 0..8u32 {
                for attempt in 0..32u64 {
                    let salt = stage_salt_base(FamilyId::new(fam), generation) + attempt;
                    assert!(
                        seen.insert(salt),
                        "salt collision at family {fam}, gen {generation}, attempt {attempt}"
                    );
                }
            }
        }
    }
}
