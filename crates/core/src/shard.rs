//! Sharded orchestrator scale-out: one job, N wave loops.
//!
//! A sharded run partitions the job's family plan across `N` shard
//! workers (§5.8's scale-out direction: the single orchestrator wave
//! loop is the bottleneck once crawling and extraction parallelize).
//! Each shard runs the *unmodified* wave loop over its own subset,
//! against its own WAL segment subdirectory (`wal/shard-{k}/`, guarded
//! by a per-shard [`LogDirLease`]), while a [`ShardCoordinator`] tracks
//! heartbeats and drives two recovery paths:
//!
//! * **work stealing** — a shard that lags past a quantile-derived
//!   threshold (or simply goes idle while a sibling still holds a
//!   backlog) triggers a migration: the donor journals a
//!   [`RecoveryRecord::FamilyMigrated`] out-record *before* handing the
//!   family over, and the recipient journals the symmetric in-record
//!   when it takes the family in — replaying either log never
//!   double-dispatches a `(family, extractor)` step;
//! * **shard death** — a shard that dies mid-run (its scheduled
//!   [`xtract_types::ShardCrash`] fired, or a real fault surfaced) is
//!   adopted by the survivors: the supervisor fences the dead shard's
//!   WAL past the lapsed lease, replays it, and migrates every
//!   non-terminal family to the least-loaded healthy shard. Only when
//!   *no* survivor remains does the job surface
//!   [`XtractError::ShardDied`]; `resume_job` then replays every
//!   shard's log and re-adopts the orphans.
//!
//! The root WAL (at the job's log dir itself) journals the crawl and
//! the full plan before any shard fans out, so family identity is
//! pinned across resumes exactly as in the single-loop path.
//!
//! **One supervisor, two launchers.** What happens when a shard's runner
//! ends is decided in one place, [`ShardedJob::supervise`], over the
//! shared [`ShardCoordinator`]. [`run_sharded`] (scoped threads, each
//! with a [`ShardCtl`] into the coordinator's memory) and
//! [`crate::transport::run_proc_sharded`] (worker processes speaking
//! [`ShardLink`] over a socket) differ only in how a runner starts and
//! how its end becomes a [`ShardExit`]; both runners share one body,
//! [`run_shard`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use xtract_datafabric::Token;
use xtract_obs::{Counter, Event, Phase, SpanUnion};
use xtract_types::{DeadLetter, Family, FamilyId, JobSpec, PartitionerKind, Result, XtractError};

use crate::recovery::{spec_fingerprint, LogDirLease, MigratedStep, RecoveryLog, RecoveryRecord};
use crate::service::{JobReport, Replayed, XtractService};
use crate::tenancy::TenantCtx;

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// Disperses a family id onto a shard — the same splitmix64 finalizer
/// the search index uses for document dispersal, so sequential ids
/// (the allocator hands them out in crawl order) spread evenly.
pub fn shard_of(family: FamilyId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut z = family.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

/// Maps every family of a plan onto a shard. Implementations must be
/// *deterministic*: a resumed job recomputes the base assignment from
/// the replayed plan and applies journaled migrations on top, so the
/// same ids must land on the same shards across runs.
pub trait Partitioner: Send + Sync {
    /// One shard index (`< shards`) per id, in order.
    fn assign(&self, ids: &[FamilyId], shards: usize) -> Vec<usize>;
    /// Stable name for reports and logs.
    fn name(&self) -> &'static str;
}

/// Stateless hash partitioning via [`shard_of`].
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn assign(&self, ids: &[FamilyId], shards: usize) -> Vec<usize> {
        ids.iter().map(|&id| shard_of(id, shards)).collect()
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Contiguous range partitioning: ids are rank-sorted and cut into
/// `shards` blocks whose sizes differ by at most one. Keeps
/// crawl-adjacent families together (better staging locality) at the
/// cost of hash's statistical balance under skewed file sizes.
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    fn assign(&self, ids: &[FamilyId], shards: usize) -> Vec<usize> {
        let n = ids.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (ids[i].raw(), i));
        let base = n / shards.max(1);
        let extra = n % shards.max(1);
        let mut out = vec![0usize; n];
        let mut rank = 0usize;
        for shard in 0..shards {
            let len = base + usize::from(shard < extra);
            for _ in 0..len {
                out[order[rank]] = shard;
                rank += 1;
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "range"
    }
}

/// The partitioner a [`PartitionerKind`] configures.
pub fn build_partitioner(kind: PartitionerKind) -> Box<dyn Partitioner> {
    match kind {
        PartitionerKind::Hash => Box::new(HashPartitioner),
        PartitionerKind::Range => Box::new(RangePartitioner),
    }
}

// ---------------------------------------------------------------------------
// Coordinator state
// ---------------------------------------------------------------------------

/// A family in flight between shards: the donor's planned view plus
/// everything the recipient needs for exactly-once adoption. Serde so
/// the cross-process transport ([`crate::transport`]) can carry it over
/// the coordinator socket unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Migrant {
    /// The family, as the donor had it planned (origin view).
    pub family: Family,
    /// Steps the family completed before migrating.
    pub steps: Vec<MigratedStep>,
    /// Retry attempts already charged against the family.
    pub charges: u32,
    /// Donor shard.
    pub from: u64,
}

/// A pending steal directive against a donor shard: at its next wave
/// boundary it donates up to `max` eligible families to shard `to`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct StealRequest {
    pub to: usize,
    pub max: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotStatus {
    /// The shard's wave loop is live.
    Running,
    /// The shard drained its subset and is parked in
    /// [`ShardCoordinator::idle_wait`], available for adoptions.
    Idle,
    /// The shard's runner returned its report.
    Done,
    /// The shard died and its orphans were processed.
    Dead,
}

struct Slot {
    status: SlotStatus,
    /// Non-terminal families, from the last heartbeat.
    pending: u64,
    /// Wave number from the last heartbeat.
    wave: u64,
    last_beat: Instant,
    steal: Option<StealRequest>,
    /// Delivered migrants the shard has not drained yet.
    inbox: Vec<Migrant>,
    /// Drained migrants whose in-record is not yet durable; the parent
    /// redistributes these if the shard dies before acknowledging.
    unacked: Vec<Migrant>,
    /// Families whose adoption this shard acknowledged (its in-record
    /// is durable). Never cleared: a dead donor's WAL can then be
    /// audited for hand-overs that left no trace anywhere.
    adopted: HashSet<FamilyId>,
}

impl Slot {
    fn is_live(&self) -> bool {
        matches!(self.status, SlotStatus::Running | SlotStatus::Idle)
    }

    fn custody_empty(&self) -> bool {
        self.inbox.is_empty() && self.unacked.is_empty()
    }
}

struct Inner {
    slots: Vec<Slot>,
    /// Observed wave durations (seconds) across all shards; the lag
    /// threshold derives from their quantile.
    wave_samples: Vec<f64>,
    stolen: u64,
    deaths: u64,
}

/// Shared coordination state for one sharded run: per-shard heartbeat
/// and progress slots, the steal scheduler, and the migration mailbox.
pub(crate) struct ShardCoordinator {
    inner: Mutex<Inner>,
    cv: Condvar,
    policy: xtract_types::ShardPolicy,
    obs: xtract_obs::Obs,
    // Taken from the hub once: `deliver` runs per migrant and `heartbeat`
    // per wave, and a lookup by name costs ~15x a handle.
    stolen: Counter,
    lagging: Counter,
    /// `shard.heartbeats`, labelled `shard-{k}`, one per slot.
    heartbeats: Vec<Counter>,
}

/// What an idle shard should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdleVerdict {
    /// Migrants landed in the inbox: drain them and keep looping.
    Adopt,
    /// Every shard is drained and no migration is in flight: break out
    /// of the wave loop and finish.
    Finished,
}

impl ShardCoordinator {
    pub fn new(policy: xtract_types::ShardPolicy, obs: xtract_obs::Obs, shards: usize) -> Self {
        let now = Instant::now();
        Self {
            inner: Mutex::new(Inner {
                slots: (0..shards)
                    .map(|_| Slot {
                        status: SlotStatus::Running,
                        pending: 0,
                        wave: 0,
                        last_beat: now,
                        steal: None,
                        inbox: Vec::new(),
                        unacked: Vec::new(),
                        adopted: HashSet::new(),
                    })
                    .collect(),
                wave_samples: Vec::new(),
                stolen: 0,
                deaths: 0,
            }),
            cv: Condvar::new(),
            policy,
            stolen: obs.hub.counter("shard.stolen"),
            lagging: obs.hub.counter("shard.lagging"),
            heartbeats: (0..shards)
                .map(|k| {
                    obs.hub
                        .counter_with("shard.heartbeats", Some(&format!("shard-{k}")))
                })
                .collect(),
            obs,
        }
    }

    /// Records a shard's wave-top heartbeat and runs a steal scan.
    pub fn heartbeat(&self, shard: usize, wave: u64, pending: u64) {
        let mut inner = self.inner.lock();
        // Terminal slots stay terminal: a cross-process zombie's ping
        // can race its own death handling (a heartbeat-timeout false
        // positive fences a still-live worker), and must not resurrect
        // a slot the coordinator already adopted.
        if matches!(
            inner.slots[shard].status,
            SlotStatus::Done | SlotStatus::Dead
        ) {
            return;
        }
        let now = Instant::now();
        let sample = {
            let slot = &inner.slots[shard];
            // One completed wave between consecutive heartbeats.
            (wave > slot.wave && slot.wave > 0)
                .then(|| now.duration_since(slot.last_beat).as_secs_f64())
        };
        if let Some(sample) = sample {
            if inner.wave_samples.len() < 4096 {
                inner.wave_samples.push(sample);
            }
        }
        let slot = &mut inner.slots[shard];
        slot.status = SlotStatus::Running;
        slot.wave = wave.max(slot.wave);
        slot.pending = pending;
        slot.last_beat = now;
        self.obs.journal.record(Event::ShardHeartbeat {
            shard: shard as u64,
            wave,
            pending,
        });
        self.heartbeats[shard].add(1);
        self.scan_locked(&mut inner, now);
        self.cv.notify_all();
    }

    /// Takes and clears the shard's pending steal directive.
    pub fn take_steal(&self, shard: usize) -> Option<StealRequest> {
        self.inner.lock().slots[shard].steal.take()
    }

    /// Drains the shard's inbox. Drained migrants stay in custody until
    /// [`Self::ack`] confirms their in-records are durable.
    pub fn drain(&self, shard: usize) -> Vec<Migrant> {
        let mut inner = self.inner.lock();
        let slot = &mut inner.slots[shard];
        let items = std::mem::take(&mut slot.inbox);
        slot.unacked.extend(items.iter().cloned());
        items
    }

    /// Confirms the shard journaled in-records for these families.
    pub fn ack(&self, shard: usize, families: &[FamilyId]) {
        let mut inner = self.inner.lock();
        let slot = &mut inner.slots[shard];
        slot.unacked.retain(|m| !families.contains(&m.family.id));
        slot.adopted.extend(families.iter().copied());
        self.cv.notify_all();
    }

    /// True when any slot holds the family — delivered, in unacked
    /// custody, or acknowledged. Used when auditing a dead donor's
    /// out-records for hand-overs that vanished in flight.
    pub fn knows_any(&self, family: FamilyId) -> bool {
        let inner = self.inner.lock();
        inner.slots.iter().any(|s| {
            s.adopted.contains(&family)
                || s.inbox.iter().any(|m| m.family.id == family)
                || s.unacked.iter().any(|m| m.family.id == family)
        })
    }

    /// Hands a migrant to `to`'s inbox and journals the migration.
    ///
    /// If `to` stopped being live since the directive was issued (its
    /// death raced the donor's hand-over), the delivery redirects to
    /// the least-loaded live slot — falling back to the donor itself,
    /// which is live by definition while donating. Resume resolution is
    /// presence-first (the recipient's durable in-record decides
    /// ownership), so the out-record's stale `to` is harmless.
    pub fn deliver(&self, to: usize, migrant: Migrant) {
        let mut inner = self.inner.lock();
        let to = if inner.slots[to].is_live() {
            to
        } else {
            inner
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_live())
                .min_by_key(|(j, s)| (s.pending, *j))
                .map(|(j, _)| j)
                .unwrap_or(migrant.from as usize)
        };
        self.obs.journal.record(Event::FamilyMigrated {
            family: migrant.family.id,
            from: migrant.from,
            to: to as u64,
        });
        self.stolen.add(1);
        inner.stolen += 1;
        inner.slots[to].inbox.push(migrant);
        self.cv.notify_all();
    }

    /// The live (running or idle) shard with the smallest pending load
    /// other than `not`, the shard whose families are being re-homed: its
    /// slot may still read live (a dying shard stays `Running` until its
    /// orphans are placed) and must never adopt its own orphans.
    pub fn least_loaded_live(&self, not: usize) -> Option<usize> {
        let inner = self.inner.lock();
        inner
            .slots
            .iter()
            .enumerate()
            .filter(|(k, s)| s.is_live() && *k != not)
            .min_by_key(|(k, s)| (s.pending, *k))
            .map(|(k, _)| k)
    }

    pub fn mark_done(&self, shard: usize) {
        let mut inner = self.inner.lock();
        let slot = &mut inner.slots[shard];
        slot.status = SlotStatus::Done;
        slot.steal = None;
        slot.pending = 0;
        self.cv.notify_all();
    }

    pub fn mark_dead(&self, shard: usize) {
        let mut inner = self.inner.lock();
        let slot = &mut inner.slots[shard];
        slot.status = SlotStatus::Dead;
        slot.steal = None;
        slot.pending = 0;
        inner.deaths += 1;
        self.cv.notify_all();
    }

    /// Everything delivered to the shard that it never acknowledged —
    /// redistributed by the parent when the shard dies (or finishes
    /// with a stale delivery it will never drain).
    pub fn take_custody(&self, shard: usize) -> Vec<Migrant> {
        let mut inner = self.inner.lock();
        let slot = &mut inner.slots[shard];
        let mut items = std::mem::take(&mut slot.inbox);
        items.extend(std::mem::take(&mut slot.unacked));
        items
    }

    pub fn stolen(&self) -> u64 {
        self.inner.lock().stolen
    }

    pub fn deaths(&self) -> u64 {
        self.inner.lock().deaths
    }

    /// Parks an idle shard until either migrants arrive or the whole
    /// run is drained. Runs a steal scan on every wake-up so idle-pull
    /// stealing fires even while every runner is blocked here or deep
    /// in a slow wave.
    pub fn idle_wait(&self, shard: usize) -> IdleVerdict {
        let mut inner = self.inner.lock();
        {
            let slot = &mut inner.slots[shard];
            slot.status = SlotStatus::Idle;
            slot.steal = None;
            slot.pending = 0;
            slot.last_beat = Instant::now();
        }
        self.cv.notify_all();
        loop {
            if !inner.slots[shard].inbox.is_empty() {
                // Re-arm the heartbeat deadline on the idle → running
                // transition: the shard was exempt from the timeout
                // while parked, and the next beat is a full wave away.
                inner.slots[shard].status = SlotStatus::Running;
                inner.slots[shard].last_beat = Instant::now();
                return IdleVerdict::Adopt;
            }
            if self.finished_locked(&inner) {
                return IdleVerdict::Finished;
            }
            let now = Instant::now();
            self.scan_locked(&mut inner, now);
            self.cv.wait_for(&mut inner, Duration::from_millis(20));
        }
    }

    /// True when no shard can produce further work: every slot is
    /// idle, done, or dead, and no migrant is awaiting adoption.
    fn finished_locked(&self, inner: &Inner) -> bool {
        inner
            .slots
            .iter()
            .all(|s| s.status != SlotStatus::Running && s.custody_empty())
    }

    /// The steal scheduler. Two triggers, both one-directive-per-donor:
    ///
    /// * *quantile lag* — a running shard whose current wave has aged
    ///   past `quantile(lag_quantile) * lag_multiplier` of the observed
    ///   wave durations donates half its pending families to the least
    ///   loaded live sibling;
    /// * *idle pull* — an idle shard pulls half the backlog of the most
    ///   loaded running shard holding at least `steal_min_pending`.
    fn scan_locked(&self, inner: &mut Inner, now: Instant) {
        let threshold_s = if inner.wave_samples.len() as u64 >= self.policy.min_lag_samples {
            let mut sorted = inner.wave_samples.clone();
            sorted.sort_by(f64::total_cmp);
            let idx = ((self.policy.lag_quantile * (sorted.len() - 1) as f64).round() as usize)
                .min(sorted.len() - 1);
            Some(sorted[idx] * self.policy.lag_multiplier)
        } else {
            None
        };
        // Quantile lag.
        if let Some(threshold) = threshold_s {
            for k in 0..inner.slots.len() {
                let slot = &inner.slots[k];
                if slot.status != SlotStatus::Running || slot.steal.is_some() || slot.pending < 2 {
                    continue;
                }
                let age = now.duration_since(slot.last_beat).as_secs_f64();
                if age <= threshold {
                    continue;
                }
                let to = inner
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(j, s)| *j != k && s.is_live())
                    .min_by_key(|(j, s)| (s.pending, *j))
                    .map(|(j, _)| j);
                if let Some(to) = to {
                    let max = (inner.slots[k].pending / 2).max(1) as usize;
                    self.obs.journal.record(Event::ShardLagging {
                        shard: k as u64,
                        lag_ms: (age * 1000.0) as u64,
                        threshold_ms: (threshold * 1000.0) as u64,
                    });
                    self.lagging.add(1);
                    inner.slots[k].steal = Some(StealRequest { to, max });
                }
            }
        }
        // Idle pull.
        let idle = inner
            .slots
            .iter()
            .position(|s| s.status == SlotStatus::Idle && s.custody_empty());
        if let Some(to) = idle {
            let victim = inner
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.status == SlotStatus::Running
                        && s.steal.is_none()
                        && s.pending >= self.policy.steal_min_pending
                })
                .max_by_key(|(j, s)| (s.pending, usize::MAX - *j))
                .map(|(j, _)| j);
            if let Some(k) = victim {
                let max = (inner.slots[k].pending / 2).max(1) as usize;
                inner.slots[k].steal = Some(StealRequest { to, max });
            }
        }
    }

    /// Blocks until a *running* shard's heartbeat goes silent for longer
    /// than `budget`, returning the expired slots — or returns empty
    /// once every slot is terminal (done or dead). Slots listed in
    /// `muted` are skipped: the caller has already been told about them
    /// and is mid-recovery (they stay `Running` until their orphans are
    /// placed, so idle siblings cannot conclude the run finished under
    /// them).
    ///
    /// Condvar-driven, not a polling grid: a beat re-arms the deadline
    /// and wakes the wait, a status change re-evaluates immediately, and
    /// the sleep never overshoots the nearest live deadline — so a
    /// silent death is detected within one heartbeat budget of the last
    /// beat (plus scheduler noise). Idle slots are exempt: a parked
    /// shard's handler is blocked in [`Self::idle_wait`] and cannot
    /// beat; a dead idle *process* surfaces as its connection's EOF
    /// instead.
    pub fn await_timeout(&self, budget: Duration, muted: &[usize]) -> Vec<usize> {
        let mut inner = self.inner.lock();
        loop {
            if inner.slots.iter().all(|s| !s.is_live()) {
                return Vec::new();
            }
            let now = Instant::now();
            let expired: Vec<usize> = inner
                .slots
                .iter()
                .enumerate()
                .filter(|(k, s)| {
                    s.status == SlotStatus::Running
                        && !muted.contains(k)
                        && now.duration_since(s.last_beat) > budget
                })
                .map(|(k, _)| k)
                .collect();
            if !expired.is_empty() {
                return expired;
            }
            let nearest = inner
                .slots
                .iter()
                .enumerate()
                .filter(|(k, s)| s.status == SlotStatus::Running && !muted.contains(k))
                .map(|(_, s)| (s.last_beat + budget).saturating_duration_since(now))
                .min()
                .unwrap_or(budget);
            self.cv
                .wait_for(&mut inner, nearest.max(Duration::from_millis(1)));
        }
    }

    #[cfg(test)]
    fn steal_of(&self, shard: usize) -> Option<StealRequest> {
        self.inner.lock().slots[shard].steal
    }
}

/// One in-process shard's handle into the coordinator it shares memory
/// with, threaded through the wave loop (the engine's `shard_boundary`
/// stage consults it at every wave boundary).
pub(crate) struct ShardCtl {
    pub coord: Arc<ShardCoordinator>,
    pub shard: usize,
}

/// The wave loop's view of its shard coordinator, abstracted over
/// locality. [`ShardCtl`] calls straight into the shared in-process
/// [`ShardCoordinator`] and never fails; a
/// [`crate::transport::ShardClient`] speaks the same seven verbs over
/// the coordinator's Unix socket, where a severed connection or a
/// fencing refusal surfaces as an error — the wave loop propagates it
/// and the worker exits, leaving its WAL for adoption.
pub(crate) trait ShardLink: Sync {
    /// This link's shard index.
    fn shard(&self) -> usize;
    /// Wave-top heartbeat: wave number and non-terminal family count.
    fn heartbeat(&self, wave: u64, pending: u64) -> Result<()>;
    /// Drains delivered migrants (they stay in coordinator custody
    /// until [`Self::ack`]).
    fn drain(&self) -> Result<Vec<Migrant>>;
    /// Confirms in-records for these adopted families are durable.
    fn ack(&self, families: &[FamilyId]) -> Result<()>;
    /// Takes this shard's pending steal directive, if any.
    fn take_steal(&self) -> Result<Option<StealRequest>>;
    /// Hands a migrant to shard `to` (out-record already durable).
    fn deliver(&self, to: usize, migrant: Migrant) -> Result<()>;
    /// Parks until migrants arrive or the whole run is drained.
    fn idle_wait(&self) -> Result<IdleVerdict>;
}

impl ShardLink for ShardCtl {
    fn shard(&self) -> usize {
        self.shard
    }

    fn heartbeat(&self, wave: u64, pending: u64) -> Result<()> {
        self.coord.heartbeat(self.shard, wave, pending);
        Ok(())
    }

    fn drain(&self) -> Result<Vec<Migrant>> {
        Ok(self.coord.drain(self.shard))
    }

    fn ack(&self, families: &[FamilyId]) -> Result<()> {
        self.coord.ack(self.shard, families);
        Ok(())
    }

    fn take_steal(&self) -> Result<Option<StealRequest>> {
        Ok(self.coord.take_steal(self.shard))
    }

    fn deliver(&self, to: usize, migrant: Migrant) -> Result<()> {
        self.coord.deliver(to, migrant);
        Ok(())
    }

    fn idle_wait(&self) -> Result<IdleVerdict> {
        Ok(self.coord.idle_wait(self.shard))
    }
}

// ---------------------------------------------------------------------------
// The sharded run
// ---------------------------------------------------------------------------

/// Everything the root WAL pins before any shard fans out: the open
/// root log, a report seeded with crawl totals and the crawl phase
/// span, and the full family plan (journaled, so family identity
/// survives resumes).
pub(crate) struct RootPlan {
    pub root: crate::service::RecoveryCtx,
    pub report: JobReport,
    pub plan: Vec<Family>,
    /// The supervisor's last brokered placement per family, replayed
    /// from the root WAL's `CustodyMoved` records.
    pub custody: HashMap<FamilyId, u64>,
}

/// Opens (or replays) the root WAL and produces the family plan: a
/// fresh run crawls and journals `CrawlCompleted` plus the plan before
/// returning; a resumed run replays the journaled plan and skips the
/// crawl. Of the root WAL's replayed state only the plan, the crawl
/// totals and the custody hints have a reader: the root journals no
/// steps, charges or dead letters of its own.
pub(crate) fn prepare_root(
    service: &XtractService,
    spec: &JobSpec,
    dir: &Path,
    started: Instant,
) -> Result<RootPlan> {
    let mut report = JobReport::default();
    let (root, replayed) = service.open_recovery(spec, dir, Some("root"))?;
    let plan = service.replay_or_crawl_plan(
        spec,
        Some(&root),
        replayed.planned,
        replayed.crawl,
        false,
        started,
        &mut report,
    )?;
    report.resumed = root.resumed;
    report.replayed_records = root.replayed;
    report.truncated_records = root.truncated;
    Ok(RootPlan {
        root,
        report,
        plan,
        custody: replayed.custody,
    })
}

/// A shard's copy of the job spec: the shared fault plan sliced to the
/// shard's own kill schedule (its scheduled [`xtract_types::ShardCrash`]
/// entries become that runner's orchestrator crashes; sibling schedules
/// are dropped). The fingerprint is unaffected — fault plans are
/// excluded from [`spec_fingerprint`] — so a sub-spec replays cleanly
/// against a WAL the coordinator seeded from the parent spec.
pub(crate) fn sub_spec_for(spec: &JobSpec, k: usize) -> JobSpec {
    let mut sub = spec.clone();
    if let Some(plan) = &spec.fault_plan {
        let mut p = plan.clone();
        p.orchestrator_crashes = plan.crashes_for_shard(k);
        p.shard_crashes = Vec::new();
        sub.fault_plan = Some(p);
    }
    sub
}

/// Per-shard WAL layout for one sharded run: the WAL subdirectories
/// (`dir/shard-{k}`) and each shard's owned subset of the plan after
/// ownership resolution.
pub(crate) struct ShardLayout {
    pub shard_dirs: Vec<PathBuf>,
    pub subsets: Vec<Vec<Family>>,
}

/// One shard runner's body, whichever way it was launched: opens the
/// shard's WAL under `lease`, pins every commit to the lease's epoch, and
/// runs the wave loop over whatever the WAL plans. The WAL is closed when
/// this returns; the caller drops the lease next and only then reports,
/// because the supervisor may take the WAL over the moment it hears.
pub(crate) fn run_shard(
    service: &XtractService,
    token: Token,
    sub_spec: &JobSpec,
    sd: &Path,
    lease: &LogDirLease,
    tenant: Option<&Arc<TenantCtx>>,
    link: &dyn ShardLink,
) -> Result<JobReport> {
    let label = format!("shard-{}", link.shard());
    let (ctx, replayed) = service.open_recovery(sub_spec, sd, Some(&label))?;
    ctx.log.set_fence(lease);
    service.run_job_inner(token, sub_spec, Some(&ctx), replayed, tenant, Some(link))
}

/// How a shard's runner ended. A launcher owes the supervisor one per
/// shard; a heartbeat-timeout verdict is a death like any other, and
/// whichever exit of a shard arrives first is the one that counts.
pub(crate) struct ShardExit {
    pub shard: usize,
    /// The runner's start on the supervisor's clock (a report's phase
    /// spans are relative to it).
    pub offset: f64,
    /// Finished, with the drained wave loop's report — or died, with the
    /// crash point of a scheduled kill or else the reason: a terminal
    /// error, a severed connection, a silent heartbeat. Gone or to be
    /// treated as gone.
    pub outcome: std::result::Result<JobReport, String>,
}

impl ShardExit {
    /// A runner's result as its exit.
    pub fn of(shard: usize, offset: f64, result: Result<JobReport>) -> Self {
        let outcome = result.map_err(|e| match e {
            XtractError::OrchestratorKilled { point } => point,
            other => other.to_string(),
        });
        Self {
            shard,
            offset,
            outcome,
        }
    }
}

/// A sharded job as its supervisor sees it, after the root WAL pinned
/// the plan and every shard WAL was seeded. The two launchers
/// ([`run_sharded`]: scoped threads over a [`ShardCtl`];
/// [`crate::transport::run_proc_sharded`]: worker processes over the
/// coordinator socket) build one, start a runner per shard, and hand
/// [`Self::supervise`] the runners' exits.
pub(crate) struct ShardedJob<'a> {
    pub service: &'a XtractService,
    pub spec: &'a JobSpec,
    /// The root WAL: fencing floors, brokered moves and the job's
    /// completion are journaled here.
    pub root: &'a RecoveryLog,
    pub layout: &'a ShardLayout,
    pub coordinator: Arc<ShardCoordinator>,
}

impl<'a> ShardedJob<'a> {
    /// The job over a fresh coordinator; journals that each shard's
    /// runner is about to start.
    pub fn new(
        service: &'a XtractService,
        spec: &'a JobSpec,
        root: &'a RecoveryLog,
        layout: &'a ShardLayout,
    ) -> Self {
        for (k, subset) in layout.subsets.iter().enumerate() {
            service.obs.journal.record(Event::ShardStarted {
                shard: k as u64,
                families: subset.len() as u64,
            });
            service.obs.hub.counter("shard.started").add(1);
        }
        let shards = layout.subsets.len();
        Self {
            service,
            spec,
            root,
            layout,
            coordinator: Arc::new(ShardCoordinator::new(
                spec.shard,
                service.obs.clone(),
                shards,
            )),
        }
    }

    /// The decision loop of a sharded job, and the only place a shard's
    /// exit is decided. Consumes one [`ShardExit`] per shard from
    /// `next_exit` (called on this thread, so a launcher that decodes a
    /// report there decodes one at a time), then either strands
    /// ([`XtractError::ShardDied`] with the first death; every WAL
    /// survives for a resume) or merges the shard reports into `report`
    /// and journals `JobCompleted`.
    ///
    /// A runner that is gone leaves a WAL nobody writes and possibly
    /// families nobody will run; both exits move those on the same way.
    /// The WAL is fenced first — [`LogDirLease::preempt`] bumps its epoch
    /// past whatever the runner held: a finished runner and a dead thread
    /// released theirs, a zombie process finds its next commit refused —
    /// and `fenced(shard, epoch, death)` tells the launcher, which may
    /// guard a door with that floor. Every move is then an out-record in
    /// the gone shard's WAL under the new epoch, and the floor plus one
    /// [`RecoveryRecord::CustodyMoved`] per move go to the root WAL, so a
    /// restarted supervisor resolves ownership from the same view. A run
    /// in which every shard finishes with an empty inbox fences nothing
    /// and journals nothing here but `JobCompleted`.
    pub fn supervise(
        &self,
        report: &mut JobReport,
        mut next_exit: impl FnMut() -> Result<ShardExit>,
        fenced: impl Fn(usize, u64, Option<&str>),
    ) -> Result<()> {
        let shards = self.layout.shard_dirs.len();
        let obs = &self.service.obs;
        let mut reports: Vec<Option<(JobReport, f64)>> = (0..shards).map(|_| None).collect();
        let mut orphan_letters: Vec<DeadLetter> = Vec::new();
        let mut first_death: Option<(usize, String)> = None;
        let mut stranded = false;
        let fence = |k: usize, death: Option<&str>| -> Result<(LogDirLease, Vec<RecoveryRecord>)> {
            let lease = LogDirLease::preempt(&self.layout.shard_dirs[k])?;
            fenced(k, lease.epoch(), death);
            obs.journal.record(Event::ShardFenced {
                shard: k as u64,
                epoch: lease.epoch(),
            });
            let floor = RecoveryRecord::ShardEpoch {
                shard: k as u64,
                epoch: lease.epoch(),
            };
            Ok((lease, vec![floor]))
        };
        let mut decide = || -> Result<()> {
            let mut terminal = vec![false; shards];
            while terminal.contains(&false) {
                let ShardExit {
                    shard: k,
                    offset,
                    outcome,
                } = next_exit()?;
                if std::mem::replace(&mut terminal[k], true) {
                    continue;
                }
                match outcome {
                    Ok(report) => {
                        self.coordinator.mark_done(k);
                        // A delivery can race a shard's finish: the wave
                        // loop exited and will never drain it.
                        let leftovers = self.coordinator.take_custody(k);
                        if !leftovers.is_empty() {
                            let (lease, mut moves) = fence(k, None)?;
                            stranded |= self.redistribute(k, leftovers, &lease, &mut moves)?;
                            self.root.append_batch(&moves)?;
                        }
                        reports[k] = Some((report, offset));
                    }
                    Err(point) => {
                        obs.journal.record(Event::ShardDied {
                            shard: k as u64,
                            point: point.clone(),
                        });
                        obs.hub.counter("shard.deaths").add(1);
                        // The slot stays `Running` until the orphans are
                        // placed, so idle siblings cannot conclude
                        // `Finished` while adoptions are still in flight.
                        let (lease, mut moves) = fence(k, Some(&point))?;
                        stranded |=
                            self.adopt_orphans(k, &lease, &mut orphan_letters, &mut moves)?;
                        self.root.append_batch(&moves)?;
                        first_death.get_or_insert((k, point));
                        self.coordinator.mark_dead(k);
                    }
                }
            }
            Ok(())
        };
        if let Err(e) = decide() {
            // Runners still parked in `idle_wait` would hold the
            // launcher's scope open forever: let them conclude.
            for k in 0..shards {
                let _ = self.coordinator.take_custody(k);
                self.coordinator.mark_dead(k);
            }
            return Err(e);
        }
        if stranded {
            // No survivor was live to adopt the orphans.
            let (shard, point) = first_death.unwrap_or((0, "unknown".to_string()));
            return Err(XtractError::ShardDied { shard, point });
        }
        merge_reports(report, reports, orphan_letters, &self.coordinator, shards);
        self.root.append(&RecoveryRecord::JobCompleted)
    }

    /// Replays dead shard `from`'s WAL and moves every non-terminal
    /// family to a surviving shard; terminal dead letters are collected
    /// into the merged report directly (the dead runner never returned
    /// one). Returns true when orphans were stranded because no survivor
    /// was live.
    fn adopt_orphans(
        &self,
        from: usize,
        fence: &LogDirLease,
        orphan_letters: &mut Vec<DeadLetter>,
        root_moves: &mut Vec<RecoveryRecord>,
    ) -> Result<bool> {
        let (log, replay) = RecoveryLog::open(&self.layout.shard_dirs[from], self.spec.recovery)?;
        log.set_fence(fence);
        let Replayed {
            planned,
            mut steps,
            charges,
            dead,
            departed,
            ..
        } = Replayed::fold(replay.into_effective());
        let planned_ids: HashSet<FamilyId> = planned.iter().map(|f| f.id).collect();
        let mut orphans = Vec::new();
        for f in planned {
            if let Some(letter) = dead.get(&f.id) {
                orphan_letters.push(letter.clone());
                continue;
            }
            let carried = steps.remove(&f.id).unwrap_or_default();
            let spent = charges.get(&f.id).copied().unwrap_or(0);
            orphans.push((f, carried, spent));
        }
        // Migrants delivered to the dead shard that it never journaled in
        // (those it did are planned, and handled above).
        for m in self.coordinator.take_custody(from) {
            if !planned_ids.contains(&m.family.id) {
                orphans.push((m.family, m.steps, m.charges));
            }
        }
        // A hand-over whose out-record is durable but whose migrant never
        // reached the coordinator (the donor died between journaling and
        // delivering — a mid-batch I/O error surfacing as the death) would
        // silently lose the family for this run. Re-route any departure of
        // a family this shard owned at fan-out that no slot has a trace of.
        let start_owned: HashSet<FamilyId> =
            self.layout.subsets[from].iter().map(|f| f.id).collect();
        for (id, orphan) in departed {
            if start_owned.contains(&id) && !self.coordinator.knows_any(id) {
                orphans.push(orphan);
            }
        }
        self.rehome(from, &log, orphans, root_moves)
    }

    /// Re-routes custody leftovers of finished shard `from`, which can no
    /// longer drain them.
    fn redistribute(
        &self,
        from: usize,
        items: Vec<Migrant>,
        fence: &LogDirLease,
        root_moves: &mut Vec<RecoveryRecord>,
    ) -> Result<bool> {
        let (log, _) = RecoveryLog::open(&self.layout.shard_dirs[from], self.spec.recovery)?;
        log.set_fence(fence);
        let items = items
            .into_iter()
            .map(|m| (m.family, m.steps, m.charges))
            .collect();
        self.rehome(from, &log, items, root_moves)
    }

    /// One hop out of gone shard `from` for each family, to the least
    /// loaded live sibling: the out-record goes to `from`'s WAL (`log`,
    /// already fenced) before the migrant is delivered, so it extends the
    /// chain a later resume walks, and the matching
    /// [`RecoveryRecord::CustodyMoved`] is pushed for the root WAL.
    /// Returns true when no sibling was live to take them.
    fn rehome(
        &self,
        from: usize,
        log: &RecoveryLog,
        items: Vec<(Family, Vec<MigratedStep>, u32)>,
        root_moves: &mut Vec<RecoveryRecord>,
    ) -> Result<bool> {
        let mut stranded = false;
        let mut out_records = Vec::new();
        let mut migrants: Vec<(usize, Migrant)> = Vec::new();
        let mut adopted_per_shard: HashMap<usize, u64> = HashMap::new();
        for (family, steps, charges) in items {
            let Some(to) = self.coordinator.least_loaded_live(from) else {
                stranded = true;
                continue;
            };
            root_moves.push(RecoveryRecord::CustodyMoved {
                family: family.id,
                from: from as u64,
                to: to as u64,
            });
            out_records.push(RecoveryRecord::FamilyMigrated {
                family: family.clone(),
                from: from as u64,
                to: to as u64,
                adopted: false,
                steps: steps.clone(),
                charges,
            });
            migrants.push((
                to,
                Migrant {
                    family,
                    steps,
                    charges,
                    from: from as u64,
                },
            ));
            *adopted_per_shard.entry(to).or_insert(0) += 1;
        }
        if !out_records.is_empty() {
            log.append_batch(&out_records)?;
        }
        for (to, m) in migrants {
            self.coordinator.deliver(to, m);
        }
        for (shard, families) in adopted_per_shard {
            self.service.obs.journal.record(Event::ShardAdopted {
                shard: shard as u64,
                families,
            });
            self.service.obs.hub.counter("shard.adopted").add(families);
        }
        Ok(stranded)
    }
}

/// Runs `spec` across `spec.shard.shards` wave loops on scoped threads.
/// See the module docs for the protocol; the entry point is
/// [`XtractService::run_job`] with a [`xtract_types::ShardPolicy`]
/// enabled and a recovery-log dir supplied.
pub(crate) fn run_sharded(
    service: &XtractService,
    token: Token,
    spec: &JobSpec,
    dir: &Path,
    tenant: Option<&Arc<TenantCtx>>,
) -> Result<JobReport> {
    let started = Instant::now();
    // Root WAL: crawl + plan, durable before any shard fans out.
    let RootPlan {
        root,
        mut report,
        plan,
        custody,
    } = prepare_root(service, spec, dir, started)?;
    let layout = resolve_and_seed(service, spec, dir, plan, &custody)?;
    let job = ShardedJob::new(service, spec, &root.log, &layout);

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<ShardExit>();
        for (k, sd) in layout.shard_dirs.iter().enumerate() {
            let tx = tx.clone();
            let link = ShardCtl {
                coord: Arc::clone(&job.coordinator),
                shard: k,
            };
            scope.spawn(move || {
                let offset = started.elapsed().as_secs_f64();
                // Its shard's slice of the kill schedule.
                let sub_spec = sub_spec_for(spec, k);
                // The lease drops with this closure's argument: before
                // the exit is sent.
                let result = LogDirLease::acquire(sd).and_then(|lease| {
                    run_shard(service, token, &sub_spec, sd, &lease, tenant, &link)
                });
                let _ = tx.send(ShardExit::of(k, offset, result));
            });
        }
        drop(tx);
        job.supervise(
            &mut report,
            || {
                rx.recv().map_err(|_| XtractError::Internal {
                    reason: "shard runner exited without reporting".to_string(),
                })
            },
            |_, _, _| {},
        )
    })?;
    Ok(report)
}

/// Resolves family ownership across the shard WALs and seeds or repairs
/// each shard's WAL so every family of `plan` is planned in exactly
/// one. `custody` is the supervisor's replayed view of the moves it
/// brokered (root-WAL `CustodyMoved` records; empty on a fresh run). The
/// plan arrives by value: each family moves into its shard's subset.
pub(crate) fn resolve_and_seed(
    service: &XtractService,
    spec: &JobSpec,
    dir: &Path,
    plan: Vec<Family>,
    custody: &HashMap<FamilyId, u64>,
) -> Result<ShardLayout> {
    let shards = spec.shard.shards;
    let fingerprint = spec_fingerprint(spec);
    // Ownership resolution, presence first: the shard whose replayed
    // WAL currently holds the family (its seed `FamilyPlanned` or a
    // durable migration in-record, minus later out-records) owns it.
    // Only a family *no* replay holds — a hand-over crashed between
    // the donor's out-record and the recipient's in-record — is found by
    // walking the out-record chain, from the custody hint when it has
    // one. The walk is consumption-ordered (each out-record moves the
    // family once), so even A→B→A round trips resolve. A hinted shard
    // that holds no out-record of the family died before it journaled
    // anything about it: the steps the family carries are in an
    // out-record further up, so the walk starts over from the base
    // assignment, and only when that consumes no hop either is the
    // hinted shard seeded with a bare plan.
    let ids: Vec<FamilyId> = plan.iter().map(|f| f.id).collect();
    let partitioner = build_partitioner(spec.shard.partitioner);
    let mut owner = partitioner.assign(&ids, shards);
    let shard_dirs: Vec<PathBuf> = (0..shards)
        .map(|k| dir.join(format!("shard-{k}")))
        .collect();
    // Per shard WAL: whether one exists yet, the families its replay
    // currently plans, and its out-records per family in journal order.
    let mut fresh = vec![true; shards];
    let mut present: Vec<HashSet<FamilyId>> = vec![HashSet::new(); shards];
    let mut outs: Vec<HashMap<FamilyId, VecDeque<RecoveryRecord>>> = vec![HashMap::new(); shards];
    for (k, sd) in shard_dirs.iter().enumerate() {
        if !sd.is_dir() {
            continue;
        }
        fresh[k] = false;
        let (_log, replay) = RecoveryLog::open(sd, spec.recovery)?;
        let records = replay.into_effective();
        for rec in &records {
            if let RecoveryRecord::FamilyMigrated {
                family,
                adopted: false,
                ..
            } = rec
            {
                outs[k].entry(family.id).or_default().push_back(rec.clone());
            }
        }
        present[k] = Replayed::fold(records)
            .planned
            .iter()
            .map(|f| f.id)
            .collect();
    }
    let mut present_at: HashMap<FamilyId, usize> = HashMap::new();
    for (k, ids) in present.iter().enumerate() {
        for id in ids {
            present_at.entry(*id).or_insert(k);
        }
    }
    let mut last_hop: HashMap<FamilyId, RecoveryRecord> = HashMap::new();
    for (i, id) in ids.iter().enumerate() {
        if let Some(&k) = present_at.get(id) {
            owner[i] = k;
            continue;
        }
        // Where the chain from `start` ends, and its last out-record.
        let mut walk = |start: usize| {
            let (mut cur, mut hop) = (start, None);
            while let Some(rec) = outs[cur].get_mut(id).and_then(|q| q.pop_front()) {
                if let RecoveryRecord::FamilyMigrated { to, .. } = &rec {
                    cur = (*to as usize).min(shards - 1);
                }
                hop = Some(rec);
            }
            (cur, hop)
        };
        let hinted = custody.get(id).map(|&s| (s as usize).min(shards - 1));
        let (mut end, mut hop) = walk(hinted.unwrap_or(owner[i]));
        if hop.is_none() && hinted.is_some() {
            let from_base = walk(owner[i]);
            if from_base.1.is_some() {
                (end, hop) = from_base;
            }
        }
        owner[i] = end;
        if let Some(hop) = hop {
            last_hop.insert(*id, hop);
        }
    }

    // Prepare each shard's WAL: seed a fresh one with the job identity
    // and its subset of the plan; repair a crashed hand-over's missing
    // in-record from the donor's out-record ([`RecoveryRecord::flip_side`]).
    let mut subsets: Vec<Vec<Family>> = vec![Vec::new(); shards];
    for (family, &k) in plan.into_iter().zip(&owner) {
        subsets[k].push(family);
    }
    for (k, sd) in shard_dirs.iter().enumerate() {
        let mut batch = Vec::new();
        if fresh[k] {
            batch.push(RecoveryRecord::JobStarted { fingerprint });
        }
        let mut repaired = 0u64;
        for f in &subsets[k] {
            if present[k].contains(&f.id) {
                continue;
            }
            match last_hop.get(&f.id) {
                Some(out) => {
                    batch.push(out.clone().flip_side());
                    repaired += 1;
                }
                None => batch.push(RecoveryRecord::FamilyPlanned { family: f.clone() }),
            }
        }
        if !batch.is_empty() {
            let (log, _) = RecoveryLog::open(sd, spec.recovery)?;
            log.append_batch(&batch)?;
        }
        if repaired > 0 {
            service.obs.journal.record(Event::ShardAdopted {
                shard: k as u64,
                families: repaired,
            });
            service.obs.hub.counter("shard.adopted").add(repaired);
        }
    }
    Ok(ShardLayout {
        shard_dirs,
        subsets,
    })
}

/// Merges the shard reports into the root report: concatenated
/// record/letter sets (exactly-once by construction: a family lives in
/// exactly one shard's plan at any instant), summed scalar tallies, and
/// phase spans unioned on the coordinator's clock so concurrent shard
/// work is not double-counted against the wall.
fn merge_reports(
    report: &mut JobReport,
    shard_reports: Vec<Option<(JobReport, f64)>>,
    orphan_letters: Vec<DeadLetter>,
    coordinator: &ShardCoordinator,
    shards: usize,
) {
    let mut spans: Vec<(Phase, f64, f64)> = report.phase_spans.clone();
    for (rep, offset) in shard_reports.into_iter().flatten() {
        report.records.extend(rep.records);
        report.failures.extend(rep.failures);
        for (name, n) in rep.invocations {
            *report.invocations.entry(name).or_insert(0) += n;
        }
        report.bytes_prefetched += rep.bytes_prefetched;
        report.waves += rep.waves;
        report.resubmitted += rep.resubmitted;
        report.rerouted += rep.rerouted;
        report.replayed_records += rep.replayed_records;
        report.truncated_records += rep.truncated_records;
        for (phase, s, e) in rep.phase_spans {
            spans.push((phase, s + offset, e + offset));
        }
    }
    report.failures.extend(orphan_letters);
    let mut phases = xtract_obs::PhaseTimings::new();
    for phase in Phase::ALL {
        let mut union = SpanUnion::new();
        for &(_, s, e) in spans.iter().filter(|(p, _, _)| *p == phase) {
            union.add(s, e);
        }
        phases.add(phase, union.covered());
    }
    report.phases = phases;
    report.phase_spans = spans;
    report.shards = shards as u64;
    report.stolen_families = coordinator.stolen();
    report.shard_deaths = coordinator.deaths();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fam(id: u64) -> FamilyId {
        FamilyId::new(id)
    }

    #[test]
    fn hash_assignment_matches_shard_of_and_is_total() {
        let ids: Vec<FamilyId> = (0..100).map(fam).collect();
        for shards in 1..=16 {
            let got = HashPartitioner.assign(&ids, shards);
            assert_eq!(got.len(), ids.len());
            for (i, &s) in got.iter().enumerate() {
                assert!(s < shards);
                assert_eq!(s, shard_of(ids[i], shards));
            }
        }
        // One shard degenerates to the identity.
        assert!(HashPartitioner.assign(&ids, 1).iter().all(|&s| s == 0));
    }

    #[test]
    fn range_assignment_is_contiguous_by_rank_and_balanced() {
        // Shuffled-ish ids: ranks must decide the blocks, not positions.
        let ids: Vec<FamilyId> = [7u64, 3, 11, 1, 9, 5, 2, 10, 4, 8, 0, 6]
            .iter()
            .map(|&i| fam(i))
            .collect();
        let got = RangePartitioner.assign(&ids, 4);
        // 12 ids over 4 shards: ranks 0..2 → 0, 3..5 → 1, etc.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(got[i], (id.raw() / 3) as usize, "id {}", id.raw());
        }
        let mut load = [0usize; 4];
        for &s in &got {
            load[s] += 1;
        }
        assert!(load.iter().max().unwrap() - load.iter().min().unwrap() <= 1);
    }

    #[test]
    fn build_partitioner_honors_kind() {
        assert_eq!(build_partitioner(PartitionerKind::Hash).name(), "hash");
        assert_eq!(build_partitioner(PartitionerKind::Range).name(), "range");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite invariant: every family lands on exactly one shard,
        /// the assignment is deterministic across replays, and the load
        /// ratio stays bounded for ≥ 64 families per shard.
        #[test]
        fn partitioners_are_total_deterministic_and_balanced(
            start in any::<u64>(),
            extra in 0usize..64,
            shards in 1usize..=16,
        ) {
            // Sequential ids, as the allocator hands them out.
            let n = 64 * shards + extra;
            let ids: Vec<FamilyId> =
                (0..n as u64).map(|i| fam(start.wrapping_add(i))).collect();
            for kind in [PartitionerKind::Hash, PartitionerKind::Range] {
                let p = build_partitioner(kind);
                let got = p.assign(&ids, shards);
                // Total: one shard per family, all in range.
                prop_assert_eq!(got.len(), n);
                prop_assert!(got.iter().all(|&s| s < shards));
                // Deterministic across replays.
                prop_assert_eq!(&got, &p.assign(&ids, shards));
                // Balanced: mean load is ≥ 64, so max/min stays tight
                // (range is exact; hash concentrates around the mean).
                let mut load = vec![0usize; shards];
                for &s in &got {
                    load[s] += 1;
                }
                let max = *load.iter().max().unwrap() as f64;
                let min = *load.iter().min().unwrap() as f64;
                let mean = n as f64 / shards as f64;
                prop_assert!(max <= 2.0 * mean, "max {max} mean {mean} ({})", p.name());
                prop_assert!(min >= mean / 4.0, "min {min} mean {mean} ({})", p.name());
                prop_assert!(
                    max / min.max(1.0) <= 8.0,
                    "ratio {} ({})", max / min.max(1.0), p.name()
                );
            }
        }
    }

    fn test_coordinator(shards: usize, policy: xtract_types::ShardPolicy) -> Arc<ShardCoordinator> {
        Arc::new(ShardCoordinator::new(
            policy,
            xtract_obs::Obs::new(),
            shards,
        ))
    }

    fn migrant(id: u64, from: u64) -> Migrant {
        Migrant {
            family: Family::new(
                fam(id),
                Vec::new(),
                vec![xtract_types::Group::new(
                    xtract_types::GroupId::new(id),
                    Vec::new(),
                )],
                xtract_types::EndpointId::new(0),
            ),
            steps: Vec::new(),
            charges: 0,
            from,
        }
    }

    #[test]
    fn custody_tracks_deliveries_until_acked() {
        let c = test_coordinator(2, xtract_types::ShardPolicy::sharded(2));
        c.deliver(1, migrant(7, 0));
        c.deliver(1, migrant(8, 0));
        assert_eq!(c.stolen(), 2);
        let drained = c.drain(1);
        assert_eq!(drained.len(), 2);
        // Drained but unacked: still in custody.
        c.ack(1, &[fam(7)]);
        let leftovers = c.take_custody(1);
        assert_eq!(leftovers.len(), 1);
        assert_eq!(leftovers[0].family.id, fam(8));
        assert!(c.take_custody(1).is_empty());
    }

    #[test]
    fn idle_pull_targets_the_most_loaded_running_shard() {
        let mut policy = xtract_types::ShardPolicy::sharded(3);
        policy.steal_min_pending = 2;
        let c = test_coordinator(3, policy);
        c.heartbeat(0, 1, 3);
        c.heartbeat(1, 1, 9);
        // Shard 2 drains and parks; its idle_wait scan should set a
        // steal directive on shard 1 (the heavier donor).
        let c2 = Arc::clone(&c);
        let parked = std::thread::spawn(move || {
            ShardCtl {
                coord: c2,
                shard: 2,
            }
            .idle_wait()
            .unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let steal = loop {
            if let Some(s) = c.steal_of(1) {
                break s;
            }
            assert!(Instant::now() < deadline, "no steal directive appeared");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(steal.to, 2);
        assert_eq!(steal.max, 4); // half of 9, rounded down
        assert!(c.steal_of(0).is_none(), "light shard must not be a victim");
        // Consuming the directive and delivering wakes the idler.
        assert!(c.take_steal(1).is_some());
        c.deliver(2, migrant(3, 1));
        assert_eq!(parked.join().unwrap(), IdleVerdict::Adopt);
    }

    #[test]
    fn quantile_lag_flags_a_stuck_shard() {
        let mut policy = xtract_types::ShardPolicy::sharded(2);
        policy.min_lag_samples = 4;
        policy.lag_quantile = 0.5;
        policy.lag_multiplier = 2.0;
        let c = test_coordinator(2, policy);
        // Shard 0 turns several fast waves: its beats build the sample
        // set (sub-millisecond wave durations).
        for wave in 1..=6 {
            c.heartbeat(0, wave, 4);
        }
        // Shard 1 started a wave long ago and never beat again.
        c.heartbeat(1, 1, 6);
        std::thread::sleep(Duration::from_millis(60));
        // Any heartbeat triggers a scan on the fresh clock.
        c.heartbeat(0, 7, 4);
        let steal = c.steal_of(1).expect("lagging shard must be marked");
        assert_eq!(steal.to, 0);
        assert_eq!(steal.max, 3);
    }

    #[test]
    fn all_idle_shards_conclude_finished() {
        let c = test_coordinator(2, xtract_types::ShardPolicy::sharded(2));
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || ShardCtl { coord: c, shard: k }.idle_wait().unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), IdleVerdict::Finished);
        }
    }

    /// Satellite regression: death detection is condvar-driven, not a
    /// fixed-interval poll — a shard that stops beating is reported
    /// within one heartbeat budget (plus scheduler slack), and the
    /// monitor returns immediately once every slot is terminal.
    #[test]
    fn heartbeat_timeout_detects_a_silent_shard_within_one_budget() {
        let c = test_coordinator(2, xtract_types::ShardPolicy::sharded(2));
        c.heartbeat(0, 1, 3);
        c.mark_done(1);
        let budget = Duration::from_millis(100);
        let t0 = Instant::now();
        let expired = c.await_timeout(budget, &[]);
        let waited = t0.elapsed();
        assert_eq!(expired, vec![0]);
        // One budget from the last beat, with generous CI slack — the
        // old 20ms polling grid would still pass this, but a regression
        // to sleep-per-interval scanning (or a lost wakeup) would not.
        assert!(
            waited >= Duration::from_millis(50),
            "woke early: {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(1500),
            "detection took {waited:?}, bound is one ~100ms budget + slack"
        );
        // A muted (already-reported) slot is not re-reported; marking
        // it dead ends the watch immediately.
        let c2 = Arc::clone(&c);
        let monitor = std::thread::spawn(move || c2.await_timeout(budget, &[0]));
        std::thread::sleep(Duration::from_millis(20));
        c.mark_dead(0);
        assert!(monitor.join().unwrap().is_empty());
    }

    /// A fresh beat re-arms the deadline: a shard beating faster than
    /// the budget is never reported expired.
    #[test]
    fn steady_heartbeats_hold_off_the_timeout() {
        let c = test_coordinator(1, xtract_types::ShardPolicy::sharded(2));
        let beater = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for wave in 1..=20u64 {
                    c.heartbeat(0, wave, 1);
                    std::thread::sleep(Duration::from_millis(10));
                }
                c.mark_done(0);
            })
        };
        let expired = c.await_timeout(Duration::from_millis(500), &[]);
        beater.join().unwrap();
        assert!(expired.is_empty(), "live shard reported dead: {expired:?}");
    }

    /// Shard 3 is the one whose families are being re-homed.
    #[test]
    fn dead_and_done_shards_are_not_adoption_targets() {
        let c = test_coordinator(4, xtract_types::ShardPolicy::sharded(4));
        c.heartbeat(0, 1, 5);
        c.heartbeat(1, 1, 2);
        c.heartbeat(2, 1, 0);
        assert_eq!(c.least_loaded_live(3), Some(2));
        c.mark_done(2);
        assert_eq!(c.least_loaded_live(3), Some(1));
        c.mark_dead(1);
        assert_eq!(c.least_loaded_live(3), Some(0));
        assert_eq!(c.least_loaded_live(0), Some(3));
        c.mark_dead(3);
        assert_eq!(c.least_loaded_live(0), None);
        assert_eq!(c.deaths(), 2);
    }

    /// A scratch WAL root, a service and a two-shard spec to supervise:
    /// nothing here runs a wave loop.
    fn scratch_job(tag: &str) -> (PathBuf, XtractService, JobSpec) {
        let dir = std::env::temp_dir().join(format!(
            "xtract-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = Arc::new(xtract_datafabric::DataFabric::new());
        let auth = Arc::new(xtract_datafabric::AuthService::new());
        let service = XtractService::new(fabric, auth, 1);
        let mut spec = JobSpec::single_endpoint(
            xtract_types::EndpointSpec {
                endpoint: xtract_types::EndpointId::new(0),
                read_path: "/data".into(),
                store_path: None,
                available_bytes: 1 << 30,
                workers: Some(1),
                runtime: xtract_types::config::ContainerRuntime::Docker,
            },
            "/data",
        );
        spec.shard = xtract_types::ShardPolicy::sharded(2);
        spec.shard.partitioner = PartitionerKind::Range;
        (dir, service, spec)
    }

    /// Regression: a dying shard's slot stays `Running` until its orphans
    /// are placed, so it used to be its own least-loaded live target — the
    /// last shard to die adopted its own orphans into an inbox nobody
    /// drains, and the run returned `Ok` without them.
    #[test]
    fn the_last_live_shard_strands_its_orphans_instead_of_adopting_them() {
        let (dir, service, spec) = scratch_job("strand");
        let (root, _) = RecoveryLog::open(&dir, spec.recovery).unwrap();
        let plan = vec![migrant(1, 0).family];
        let layout = resolve_and_seed(&service, &spec, &dir, plan, &HashMap::new()).unwrap();
        assert_eq!(layout.subsets[0].len(), 1);
        // Shard 1 already died; shard 0 — still `Running` — is dying now
        // and holds one undelivered migrant besides its plan.
        let job = ShardedJob::new(&service, &spec, &root, &layout);
        let c = &job.coordinator;
        c.mark_dead(1);
        c.deliver(0, migrant(2, 1));
        let fence = LogDirLease::preempt(&layout.shard_dirs[0]).unwrap();
        let mut moves = Vec::new();
        let stranded = job
            .adopt_orphans(0, &fence, &mut Vec::new(), &mut moves)
            .unwrap();
        assert!(stranded, "no survivor is live: the orphans are stranded");
        assert!(
            c.take_custody(0).is_empty(),
            "nothing may be delivered to the dying shard"
        );
        // Neither its WAL nor the root's gained a hop to itself.
        let replay = RecoveryLog::scan(&layout.shard_dirs[0]).unwrap();
        assert_eq!(replay.records.len(), 2, "JobStarted and the seeded plan");
        assert!(moves.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The decision loop on hand-fed exits, no runner behind them: shard
    /// 0 dies, shard 1 takes its families in and finishes.
    #[test]
    fn supervise_fences_a_dead_shard_and_journals_every_move_to_the_root() {
        let (dir, service, spec) = scratch_job("supervise");
        let (root, _) = RecoveryLog::open(&dir, spec.recovery).unwrap();
        let plan: Vec<Family> = (1..=6).map(|i| migrant(i, 0).family).collect();
        let layout = resolve_and_seed(&service, &spec, &dir, plan, &HashMap::new()).unwrap();
        let orphans: Vec<FamilyId> = layout.subsets[0].iter().map(|f| f.id).collect();
        assert_eq!(orphans.len(), 3);
        // Shard 0's runner held its WAL at epoch 1 and is gone.
        drop(LogDirLease::acquire(&layout.shard_dirs[0]).unwrap());
        let job = ShardedJob::new(&service, &spec, &root, &layout);
        let c = &job.coordinator;
        let mut exits = vec![
            ShardExit {
                shard: 0,
                offset: 0.0,
                outcome: Err("pulled the plug".into()),
            },
            ShardExit::of(1, 0.0, Ok(JobReport::default())),
        ]
        .into_iter();
        let mut inbox = Vec::new();
        let fences = Mutex::new(Vec::new());
        let mut report = JobReport::default();
        job.supervise(
            &mut report,
            || {
                let exit = exits.next().expect("one exit per shard is all it asks for");
                if exit.outcome.is_ok() {
                    // What shard 1's wave loop did before it finished:
                    // drained the migrants and journaled them in.
                    inbox = c.drain(1).iter().map(|m| m.family.id).collect();
                    c.ack(1, &inbox);
                }
                Ok(exit)
            },
            |k, epoch, death| fences.lock().push((k, epoch, death.map(str::to_string))),
        )
        .unwrap();

        assert_eq!(inbox, orphans, "shard 1's inbox held every orphan");
        assert_eq!(
            *fences.lock(),
            vec![(0, 2, Some("pulled the plug".to_string()))],
            "one fence, past the dead runner's epoch"
        );
        assert_eq!((report.shards, report.shard_deaths), (2, 1));
        let outs: Vec<FamilyId> = RecoveryLog::scan(&layout.shard_dirs[0])
            .unwrap()
            .records
            .iter()
            .filter_map(|r| match r {
                RecoveryRecord::FamilyMigrated {
                    family,
                    from: 0,
                    to: 1,
                    adopted: false,
                    ..
                } => Some(family.id),
                _ => None,
            })
            .collect();
        assert_eq!(outs, orphans, "one out-record per orphan in the dead WAL");
        let mut expect_root = vec![RecoveryRecord::ShardEpoch { shard: 0, epoch: 2 }];
        expect_root.extend(orphans.iter().map(|&family| RecoveryRecord::CustodyMoved {
            family,
            from: 0,
            to: 1,
        }));
        expect_root.push(RecoveryRecord::JobCompleted);
        assert_eq!(RecoveryLog::scan(&dir).unwrap().records, expect_root);
        assert_eq!(service.obs.hub.counter_value("shard.deaths", None), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_fold_applies_migrations_and_carried_state() {
        let fam_a = migrant(1, 0).family;
        let fam_b = migrant(2, 0).family;
        let step = MigratedStep {
            kind: xtract_types::ExtractorKind::Keyword,
            metadata: Arc::new(xtract_types::Metadata::default()),
            discoveries: Vec::new(),
        };
        let records = vec![
            RecoveryRecord::FamilyPlanned {
                family: fam_a.clone(),
            },
            RecoveryRecord::RetryCharged {
                family: fam_a.id,
                amount: 2,
            },
            // A left for shard 1...
            RecoveryRecord::FamilyMigrated {
                family: fam_a.clone(),
                from: 0,
                to: 1,
                adopted: false,
                steps: Vec::new(),
                charges: 2,
            },
            // ...and B arrived carrying one completed step and a
            // cross-shard total of 3 charges.
            RecoveryRecord::FamilyMigrated {
                family: fam_b.clone(),
                from: 2,
                to: 0,
                adopted: true,
                steps: vec![step.clone()],
                charges: 3,
            },
            RecoveryRecord::RetryCharged {
                family: fam_b.id,
                amount: 1,
            },
            // A snapshot restating B's carried step beside its in-record
            // must not hand the step over twice.
            RecoveryRecord::StepCompleted {
                family: fam_b.id,
                kind: step.kind,
                metadata: Arc::clone(&step.metadata),
                discoveries: Vec::new(),
            },
        ];
        let st = Replayed::fold(records);
        assert_eq!(st.planned.len(), 1);
        assert_eq!(st.planned[0].id, fam_b.id);
        assert_eq!(st.steps[&fam_b.id], vec![step]); // carried and restated: once
        assert_eq!(st.charges[&fam_b.id], 4); // carried 3 + local 1
        assert_eq!(st.charges[&fam_a.id], 2); // history kept, harmless
        assert_eq!(st.departed[&fam_a.id].2, 2); // the out-record's payload
        assert!(!st.departed.contains_key(&fam_b.id));
    }
}
