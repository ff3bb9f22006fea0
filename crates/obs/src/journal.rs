//! The event journal: a bounded ring of typed events with JSON-lines
//! export.
//!
//! Substrates record what *happened* (a batch went out, a container went
//! cold, a breaker opened) instead of printing it; consumers — the CLI's
//! `events` command, tests, post-mortem scripts — read a structured,
//! bounded, append-ordered log. When the ring is full the oldest events
//! drop and a counter remembers how many were shed, so the journal can
//! never grow without bound under a runaway campaign.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use xtract_types::{EndpointId, FamilyId, JobId, TaskId, TenantId, TransferId};

/// Default ring capacity: generous for a job, bounded for a campaign.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A typed observability event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Event {
    /// A crawl worker crossed a progress stride (every Nth directory,
    /// the first always included). Counts are those of the crawler that
    /// journaled the event — per endpoint when the orchestrator runs one
    /// labeled crawler per endpoint, never a federation-wide total.
    CrawlProgress {
        /// Endpoint being crawled.
        endpoint: EndpointId,
        /// Directories listed so far.
        directories: u64,
        /// Files discovered so far.
        files: u64,
    },
    /// One FaaS batch submission (one web-service request).
    BatchSubmitted {
        /// Tasks in the batch.
        tasks: u64,
    },
    /// One FaaS batch poll (one web-service request).
    BatchPolled {
        /// Tasks polled.
        tasks: u64,
        /// How many were terminal at poll time.
        terminal: u64,
    },
    /// A worker paid a cold start for a container.
    ColdStart {
        /// The endpoint whose worker went cold.
        endpoint: EndpointId,
        /// Raw container id.
        container: u64,
    },
    /// A batch transfer was submitted.
    TransferStarted {
        /// Transfer job id.
        transfer: TransferId,
        /// Source endpoint.
        source: EndpointId,
        /// Destination endpoint.
        destination: EndpointId,
        /// Files requested.
        files: u64,
    },
    /// A batch transfer ran to completion (possibly with failures).
    TransferFinished {
        /// Transfer job id.
        transfer: TransferId,
        /// Files that arrived.
        files_moved: u64,
        /// Bytes that arrived.
        bytes_moved: u64,
        /// Per-file failures.
        failed: u64,
    },
    /// A family-step loss was charged and the step resubmitted.
    Retry {
        /// The family.
        family: FamilyId,
        /// Attempts so far for this step.
        attempt: u32,
        /// Human-readable cause.
        note: String,
    },
    /// An endpoint's circuit breaker opened.
    BreakerOpened {
        /// The endpoint.
        endpoint: EndpointId,
    },
    /// An endpoint's breaker reached its half-open probe window.
    BreakerHalfOpen {
        /// The endpoint.
        endpoint: EndpointId,
    },
    /// An endpoint's breaker closed after a successful probe.
    BreakerClosed {
        /// The endpoint.
        endpoint: EndpointId,
    },
    /// A family was terminally abandoned.
    DeadLettered {
        /// The family.
        family: FamilyId,
        /// The terminal reason, rendered.
        reason: String,
    },
    /// The fabric was polled for a task it has never seen.
    UnknownTask {
        /// The unknown id.
        task: TaskId,
    },
    /// A staging worker picked up a family prefetch.
    StagingStarted {
        /// The family being staged.
        family: FamilyId,
        /// The compute endpoint the bytes are headed to.
        destination: EndpointId,
    },
    /// A staging worker finished a family prefetch (either way).
    StagingFinished {
        /// The family.
        family: FamilyId,
        /// The compute endpoint the bytes were headed to.
        destination: EndpointId,
        /// Whether the family is now staged and dispatchable.
        ok: bool,
    },
    /// A wave's poll window elapsed with tasks still non-terminal; the
    /// *window* gave up, not the tasks — stragglers are charged as lost
    /// and resubmitted under fresh ids.
    PollWindowExpired {
        /// Tasks still non-terminal when the window closed.
        tasks: u64,
        /// The configured window, milliseconds.
        window_ms: u64,
        /// Stragglers the fabric proved lost (endpoint reported `Lost`
        /// or the allocation expired).
        #[serde(default)]
        lost: u64,
        /// Stragglers that were merely slow (still pending/running) —
        /// these earn one deadline-extension retry before dead-lettering.
        #[serde(default)]
        slow: u64,
    },
    /// A task breached its adaptive deadline and a speculative duplicate
    /// was launched at an alternative healthy endpoint.
    TaskHedged {
        /// The family being hedged.
        family: FamilyId,
        /// Endpoint running the original (slow) attempt.
        original: EndpointId,
        /// Endpoint the hedge was submitted to.
        hedge: EndpointId,
    },
    /// A hedged duplicate reached a terminal result first; the original
    /// attempt was cancelled.
    HedgeWon {
        /// The family.
        family: FamilyId,
        /// The endpoint whose speculative attempt won.
        winner: EndpointId,
    },
    /// The original attempt finished before its hedge; the speculative
    /// duplicate was cancelled and its work written off as rework cost.
    HedgeLost {
        /// The family.
        family: FamilyId,
        /// The endpoint whose speculative attempt was cancelled.
        loser: EndpointId,
    },
    /// The adaptive batching controller changed an endpoint's limits
    /// (recorded when the new wave's batches are built, so the journal
    /// shows the limits each wave actually ran with).
    BatchTuned {
        /// The endpoint whose limits changed.
        endpoint: EndpointId,
        /// Families per Xtract batch now in force.
        xtract: u64,
        /// Xtract batches per funcX request now in force.
        funcx: u64,
        /// Task ids per batch-poll request now in force.
        poll_chunk: u64,
    },
    /// A compute-allocation lease lapsed; in-flight tasks at the endpoint
    /// were eagerly flipped to `Lost`.
    AllocationExpired {
        /// The endpoint whose lease lapsed.
        endpoint: EndpointId,
        /// In-flight tasks flipped to `Lost` by the expiry.
        tasks_lost: u64,
    },
    /// A lapsed allocation lease was renewed (by the watchdog after its
    /// cooldown, or eagerly by the orchestrator).
    AllocationRenewed {
        /// The endpoint whose lease was renewed.
        endpoint: EndpointId,
    },
    /// A durable recovery log was opened (fresh or existing).
    RecoveryLogOpened {
        /// Live segments found on open.
        segments: u64,
        /// Valid records replayable across those segments.
        records: u64,
    },
    /// A torn tail was truncated from a recovery-log segment on open:
    /// bytes past the last whole, checksum-valid record were discarded.
    RecordTruncated {
        /// Sequence number of the segment that carried the torn tail.
        segment: u64,
        /// Bytes discarded.
        bytes: u64,
    },
    /// The recovery log was compacted: live state was rewritten into a
    /// snapshot segment and the superseded segments unlinked.
    SnapshotCompacted {
        /// Records in the snapshot segment.
        records: u64,
        /// Old segments removed.
        segments_removed: u64,
    },
    /// A job was resumed from its recovery log.
    JobResumed {
        /// Records replayed into orchestrator state.
        replayed: u64,
        /// Torn-tail records truncated during replay.
        truncated: u64,
    },
    /// A tenant job passed admission control and joined the queue.
    JobAdmitted {
        /// The owning tenant.
        tenant: TenantId,
        /// The admitted job.
        job: JobId,
    },
    /// A tenant submission was refused at admission (quota pressure or a
    /// saturated queue with nothing shed-worthy).
    JobRejected {
        /// The submitting tenant.
        tenant: TenantId,
        /// Why admission refused it.
        reason: String,
        /// How long the tenant should back off before retrying.
        retry_after_ms: u64,
    },
    /// A *queued* (never a running) job was shed to admit higher-priority
    /// work under overload.
    JobShed {
        /// The tenant whose job was shed.
        tenant: TenantId,
        /// The shed job.
        job: JobId,
        /// What displaced it.
        reason: String,
    },
    /// The fair-share scheduler dispatched a queued job onto a worker.
    JobDispatched {
        /// The owning tenant.
        tenant: TenantId,
        /// The dispatched job.
        job: JobId,
    },
    /// A dispatched tenant job reached a terminal status.
    JobFinished {
        /// The owning tenant.
        tenant: TenantId,
        /// The finished job.
        job: JobId,
        /// True when it completed with a report, false when it failed.
        ok: bool,
    },
    /// A quota charge was accepted against a tenant's ledger. Summing
    /// these per tenant/resource reproduces the ledger's spent totals —
    /// the accounting cross-check the chaos tests scan for.
    QuotaCharged {
        /// The charged tenant.
        tenant: TenantId,
        /// Stable resource name (see `QuotaResource::name`).
        resource: String,
        /// Units charged (jobs, invocations, or bytes).
        amount: u64,
    },
    /// A quota charge was refused: the ledger had insufficient headroom.
    /// The charge is refused *before* the resource is consumed, so a
    /// tenant can never overspend.
    QuotaExhausted {
        /// The refused tenant.
        tenant: TenantId,
        /// Stable resource name.
        resource: String,
    },
    /// A committed wave's touched families were ingested into the live
    /// serving index.
    IndexWaveIngested {
        /// The wave just committed.
        wave: u64,
        /// Records ingested (one per family touched this wave).
        records: u64,
    },
    /// Stage 7 handed the job's validated, shipped records to the serving
    /// index as one batch: from here on the index serves each family's
    /// final record in place of its live wave-loop version.
    IndexValidated {
        /// Records in the batch (one per shipped family).
        records: u64,
    },
    /// A resumed job replayed its journaled progress into the serving
    /// index, re-converging it with the uninterrupted run.
    IndexReplayed {
        /// Families whose merged metadata was re-ingested.
        families: u64,
    },
    /// A shard runner of a sharded job started its wave loop.
    ShardStarted {
        /// The shard index (0-based).
        shard: u64,
        /// Families assigned to the shard by the partitioner (before any
        /// migration).
        families: u64,
    },
    /// A shard reported progress to the coordinator at a wave boundary.
    ShardHeartbeat {
        /// The reporting shard.
        shard: u64,
        /// The wave the shard just committed.
        wave: u64,
        /// Families on the shard still short of a terminal state.
        pending: u64,
    },
    /// A shard's current wave has outlived the quantile-derived lag
    /// threshold; the coordinator marked it a steal victim.
    ShardLagging {
        /// The lagging shard.
        shard: u64,
        /// Age of the shard's in-progress wave, milliseconds.
        lag_ms: u64,
        /// The threshold it breached (quantile × multiplier), ms.
        threshold_ms: u64,
    },
    /// A family migrated between shards (work stealing or orphan
    /// adoption). Journaled once per migration, by the coordinator.
    FamilyMigrated {
        /// The migrated family.
        family: FamilyId,
        /// The donor shard.
        from: u64,
        /// The receiving shard.
        to: u64,
    },
    /// A shard runner died (scheduled chaos kill or unrecoverable error).
    /// Its orphaned families are stolen by survivors, or re-adopted on
    /// resume when no survivor was left.
    ShardDied {
        /// The dead shard.
        shard: u64,
        /// The crash point (or error summary) that killed it.
        point: String,
    },
    /// A dead shard's orphaned families were adopted — by a survivor
    /// in-run, or by the shard's own replacement runner on resume.
    ShardAdopted {
        /// The shard whose orphans were adopted.
        shard: u64,
        /// Orphaned families handed to new owners.
        families: u64,
    },
    /// A cross-process shard worker completed its Hello handshake and
    /// was admitted under a fencing epoch.
    WorkerAdmitted {
        /// The shard the worker serves.
        shard: u64,
        /// The worker's OS process id.
        pid: u64,
        /// The lease epoch its WAL writes are fenced to.
        epoch: u64,
    },
    /// A cross-process shard worker was declared lost — its socket hit
    /// EOF, or its heartbeat aged past the timeout while running.
    WorkerLost {
        /// The lost shard.
        shard: u64,
        /// Why the coordinator gave up on it.
        reason: String,
    },
    /// A shard WAL's lease epoch was forcibly bumped (zombie fencing):
    /// any writer still holding the old epoch is rejected on its next
    /// group commit.
    ShardFenced {
        /// The fenced shard.
        shard: u64,
        /// The new lease epoch.
        epoch: u64,
    },
}

/// One journal entry: a monotonic sequence number plus the event. The
/// sequence survives ring overflow, so gaps reveal shed history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<EventRecord>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded journal. All methods are `&self`; recording takes one
/// short mutex hold.
#[derive(Debug)]
pub struct EventJournal {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EventJournal {
    /// A journal bounded at `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Self {
            capacity,
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, shedding the oldest entry when full.
    pub fn record(&self, event: Event) {
        let mut ring = self.ring.lock();
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.buf.push_back(EventRecord { seq, event });
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().buf.is_empty()
    }

    /// Events shed to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.ring.lock().buf.iter().cloned().collect()
    }

    /// Serializes the retained events as JSON lines, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.events() {
            // EventRecord contains no map with non-string keys, so
            // serialization cannot fail.
            out.push_str(&serde_json::to_string(&rec).expect("event serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSON-lines dump back into records (blank lines skipped).
    pub fn parse_jsonl(input: &str) -> Result<Vec<EventRecord>, serde_json::Error> {
        input
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(serde_json::from_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold(n: u64) -> Event {
        Event::ColdStart {
            endpoint: EndpointId::new(0),
            container: n,
        }
    }

    #[test]
    fn records_in_order() {
        let j = EventJournal::with_capacity(8);
        assert!(j.is_empty());
        j.record(cold(1));
        j.record(Event::BatchSubmitted { tasks: 4 });
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].event, Event::BatchSubmitted { tasks: 4 });
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn overflow_sheds_oldest_and_counts() {
        let j = EventJournal::with_capacity(3);
        for i in 0..10 {
            j.record(cold(i));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        let seqs: Vec<u64> = j.events().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let j = EventJournal::with_capacity(64);
        j.record(Event::CrawlProgress {
            endpoint: EndpointId::new(1),
            directories: 10,
            files: 200,
        });
        j.record(Event::BatchSubmitted { tasks: 16 });
        j.record(Event::BatchPolled {
            tasks: 16,
            terminal: 12,
        });
        j.record(cold(7));
        j.record(Event::TransferStarted {
            transfer: TransferId::new(3),
            source: EndpointId::new(0),
            destination: EndpointId::new(1),
            files: 5,
        });
        j.record(Event::TransferFinished {
            transfer: TransferId::new(3),
            files_moved: 4,
            bytes_moved: 4096,
            failed: 1,
        });
        j.record(Event::Retry {
            family: FamilyId::new(9),
            attempt: 2,
            note: "keyword task lost".into(),
        });
        j.record(Event::BreakerOpened {
            endpoint: EndpointId::new(2),
        });
        j.record(Event::BreakerHalfOpen {
            endpoint: EndpointId::new(2),
        });
        j.record(Event::BreakerClosed {
            endpoint: EndpointId::new(2),
        });
        j.record(Event::DeadLettered {
            family: FamilyId::new(9),
            reason: "retry budget exhausted".into(),
        });
        j.record(Event::UnknownTask {
            task: TaskId::new(12345),
        });
        j.record(Event::StagingStarted {
            family: FamilyId::new(4),
            destination: EndpointId::new(1),
        });
        j.record(Event::StagingFinished {
            family: FamilyId::new(4),
            destination: EndpointId::new(1),
            ok: true,
        });
        j.record(Event::PollWindowExpired {
            tasks: 3,
            window_ms: 120_000,
            lost: 2,
            slow: 1,
        });
        j.record(Event::TaskHedged {
            family: FamilyId::new(4),
            original: EndpointId::new(0),
            hedge: EndpointId::new(1),
        });
        j.record(Event::HedgeWon {
            family: FamilyId::new(4),
            winner: EndpointId::new(1),
        });
        j.record(Event::HedgeLost {
            family: FamilyId::new(5),
            loser: EndpointId::new(1),
        });
        j.record(Event::AllocationExpired {
            endpoint: EndpointId::new(0),
            tasks_lost: 6,
        });
        j.record(Event::AllocationRenewed {
            endpoint: EndpointId::new(0),
        });
        j.record(Event::RecoveryLogOpened {
            segments: 2,
            records: 37,
        });
        j.record(Event::RecordTruncated {
            segment: 2,
            bytes: 13,
        });
        j.record(Event::SnapshotCompacted {
            records: 30,
            segments_removed: 2,
        });
        j.record(Event::JobResumed {
            replayed: 37,
            truncated: 1,
        });
        j.record(Event::JobAdmitted {
            tenant: TenantId::new(1),
            job: JobId::new(5),
        });
        j.record(Event::JobRejected {
            tenant: TenantId::new(2),
            reason: "queue saturated".into(),
            retry_after_ms: 250,
        });
        j.record(Event::JobShed {
            tenant: TenantId::new(2),
            job: JobId::new(6),
            reason: "displaced by priority 9".into(),
        });
        j.record(Event::JobDispatched {
            tenant: TenantId::new(1),
            job: JobId::new(5),
        });
        j.record(Event::JobFinished {
            tenant: TenantId::new(1),
            job: JobId::new(5),
            ok: true,
        });
        j.record(Event::QuotaCharged {
            tenant: TenantId::new(1),
            resource: "invocations".into(),
            amount: 12,
        });
        j.record(Event::QuotaExhausted {
            tenant: TenantId::new(2),
            resource: "transfer_bytes".into(),
        });
        j.record(Event::IndexWaveIngested {
            wave: 3,
            records: 12,
        });
        j.record(Event::IndexValidated { records: 12 });
        j.record(Event::IndexReplayed { families: 7 });
        j.record(Event::ShardStarted {
            shard: 0,
            families: 24,
        });
        j.record(Event::ShardHeartbeat {
            shard: 0,
            wave: 2,
            pending: 9,
        });
        j.record(Event::ShardLagging {
            shard: 1,
            lag_ms: 900,
            threshold_ms: 300,
        });
        j.record(Event::FamilyMigrated {
            family: FamilyId::new(17),
            from: 1,
            to: 0,
        });
        j.record(Event::ShardDied {
            shard: 1,
            point: "mid-wave".into(),
        });
        j.record(Event::ShardAdopted {
            shard: 1,
            families: 8,
        });
        j.record(Event::WorkerAdmitted {
            shard: 2,
            pid: 4242,
            epoch: 3,
        });
        j.record(Event::WorkerLost {
            shard: 2,
            reason: "heartbeat timeout".into(),
        });
        j.record(Event::ShardFenced { shard: 2, epoch: 4 });
        let dump = j.to_jsonl();
        assert_eq!(dump.lines().count(), 43);
        let parsed = EventJournal::parse_jsonl(&dump).unwrap();
        assert_eq!(parsed, j.events());
        // The tag is snake_case and self-describing.
        assert!(dump.contains("\"type\":\"breaker_half_open\""));
        assert!(dump.contains("\"type\":\"staging_finished\""));
        assert!(dump.contains("\"type\":\"poll_window_expired\""));
        assert!(dump.contains("\"type\":\"task_hedged\""));
        assert!(dump.contains("\"type\":\"allocation_expired\""));
        assert!(dump.contains("\"type\":\"recovery_log_opened\""));
        assert!(dump.contains("\"type\":\"record_truncated\""));
        assert!(dump.contains("\"type\":\"snapshot_compacted\""));
        assert!(dump.contains("\"type\":\"job_resumed\""));
        assert!(dump.contains("\"type\":\"job_admitted\""));
        assert!(dump.contains("\"type\":\"job_rejected\""));
        assert!(dump.contains("\"type\":\"job_shed\""));
        assert!(dump.contains("\"type\":\"job_dispatched\""));
        assert!(dump.contains("\"type\":\"job_finished\""));
        assert!(dump.contains("\"type\":\"quota_charged\""));
        assert!(dump.contains("\"type\":\"quota_exhausted\""));
        assert!(dump.contains("\"type\":\"index_wave_ingested\""));
        assert!(dump.contains("\"type\":\"index_validated\""));
        assert!(dump.contains("\"type\":\"index_replayed\""));
        assert!(dump.contains("\"type\":\"shard_started\""));
        assert!(dump.contains("\"type\":\"shard_heartbeat\""));
        assert!(dump.contains("\"type\":\"shard_lagging\""));
        assert!(dump.contains("\"type\":\"family_migrated\""));
        assert!(dump.contains("\"type\":\"shard_died\""));
        assert!(dump.contains("\"type\":\"shard_adopted\""));
        assert!(dump.contains("\"type\":\"worker_admitted\""));
        assert!(dump.contains("\"type\":\"worker_lost\""));
        assert!(dump.contains("\"type\":\"shard_fenced\""));
    }

    #[test]
    fn poll_window_expired_disposition_defaults_for_legacy_lines() {
        // Lines journaled before the lost/slow split still parse.
        let legacy =
            r#"{"seq":0,"event":{"type":"poll_window_expired","tasks":3,"window_ms":1000}}"#;
        let parsed = EventJournal::parse_jsonl(legacy).unwrap();
        assert_eq!(
            parsed[0].event,
            Event::PollWindowExpired {
                tasks: 3,
                window_ms: 1000,
                lost: 0,
                slow: 0,
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(EventJournal::parse_jsonl("{nope}").is_err());
        assert!(EventJournal::parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn concurrent_recording_is_bounded_and_ordered() {
        let j = std::sync::Arc::new(EventJournal::with_capacity(64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let j = j.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        j.record(cold(i));
                    }
                });
            }
        });
        assert_eq!(j.len(), 64);
        assert_eq!(j.dropped(), 4 * 1000 - 64);
        let seqs: Vec<u64> = j.events().iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }
}
