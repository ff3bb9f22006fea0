//! Durable crash recovery: a segmented, CRC32-framed write-ahead log.
//!
//! The paper's §5.8.1 checkpoint flag only protects against *endpoint*
//! loss — the orchestrator itself held every wave's progress in process
//! memory, so a client crash lost a whole campaign. funcX survives client
//! death because task state lives in a durable service, and λFS-style
//! serverless metadata pipelines lean on a persistent log to make
//! function crashes invisible. This module gives the orchestrator the
//! same property: every commit-worthy transition (crawl done, family
//! planned, step flushed, retry charged, hedge resolved, family
//! dead-lettered) is journaled to disk before the job advances past it,
//! and [`XtractService::resume_job`] replays the log to rebuild exactly
//! the state an uninterrupted run would hold.
//!
//! # Log format
//!
//! A log is a directory of segments `wal-<seq>.log`. Each record is one
//! frame:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: `len` bytes]
//! ```
//!
//! where the CRC (IEEE 802.3 polynomial, hand-rolled — no new deps)
//! covers the payload only. The payload's first byte says how it reads:
//! `{` is a JSON object, anything else the kind byte of a hand-written
//! binary layout for the records that are most of a log's bytes (a planned
//! family, a finished step, a migration; see `recovery/codec.rs`), so those
//! are journaled and replayed without a JSON round trip while every log
//! ever written still opens. A crash mid-write leaves a *torn tail*: a
//! partial frame at the end of the active segment. [`RecoveryLog::open`]
//! truncates the segment back to its last whole, checksum-valid record
//! and reports the tear; torn bytes anywhere other than the tail of the
//! final segment are real corruption and surface as
//! [`XtractError::CheckpointCorrupt`].
//!
//! # Group commit
//!
//! [`RecoveryLog::append_batch`] frames every record into one buffer and
//! pays one mutex acquisition, one `write(2)`, and (per
//! [`RecoveryPolicy::sync_each_commit`]) one `fdatasync` for the whole
//! batch — the wave-loop hot path journals a wave's flushes at the cost
//! of a single commit.
//!
//! # Replay
//!
//! [`RecoveryLog::open`] reads a segment in two passes: the length
//! headers serially, then the CRC check and decode of contiguous runs of
//! frames on every core, joined in log order. The tear is the first frame
//! *in log order* that fails its bounds, CRC or decode, so every input
//! replays exactly as a frame-at-a-time reader would replay it.
//!
//! # Compaction
//!
//! Segments rotate at [`RecoveryPolicy::segment_bytes`]. When enough
//! accumulate, the log is compacted: live state is rewritten into a
//! fresh segment that *begins* with [`RecoveryRecord::SnapshotBoundary`],
//! the segment is synced, and only then are the superseded segments
//! unlinked ([`RecoveryLog::begin_compaction`] /
//! [`RecoveryLog::finish_compaction`]). Replay resets state at the last
//! boundary it sees, so a crash between sync and unlink is harmless —
//! the stale segments replay into state the boundary then discards, and
//! the next resume finishes the unlink.
//!
//! [`XtractService::resume_job`]: crate::service::XtractService::resume_job
//! [`XtractError::CheckpointCorrupt`]: xtract_types::XtractError::CheckpointCorrupt

mod codec;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xtract_types::{
    DeadLetter, EndpointId, ExtractorKind, Family, FamilyId, FileType, JobSpec, Metadata,
    RecoveryPolicy, Result, XtractError,
};

/// Sanity cap on a single frame's payload: a length prefix above this is
/// treated as a torn/corrupt header, not an allocation request.
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Frame header size: `len` + `crc`, both little-endian `u32`s.
const HEADER_BYTES: usize = 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), slicing-by-8, hand-rolled — the workspace has no
// checksum crate and must not grow one.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; `[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight lookups advance
/// the register over eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32 (IEEE) of `bytes`. Public so tests and external tools can
/// validate frames independently of this module's reader.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// FNV-1a over bytes (same algorithm the fault plan uses for path keys).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A stable fingerprint of a job spec, journaled at log creation and
/// verified at resume so a log can never replay into a different job.
///
/// The fault plan is excluded: it is test instrumentation (where to crash
/// next), not job identity — a chaos harness *changes* the schedule
/// between resumes of the same job.
pub fn spec_fingerprint(spec: &JobSpec) -> u64 {
    let mut identity = spec.clone();
    identity.fault_plan = None;
    let bytes = serde_json::to_vec(&identity).expect("job specs serialize");
    fnv1a(&bytes)
}

// ---------------------------------------------------------------------------
// Log-directory lease
// ---------------------------------------------------------------------------

/// Directories with a live lease, keyed by canonical path. `Vec` because
/// `parking_lot::Mutex::new` is const while `HashSet::new` is not; the
/// set is at most a handful of entries (one per in-flight recovery job).
static ACTIVE_LOG_DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// True when a process with this id is currently alive. Linux: the
/// kernel exposes every live pid under `/proc`. On other platforms the
/// check degrades to "assume alive" — the conservative direction: a
/// stale lease then still refuses acquisition rather than risking two
/// writers.
pub fn pid_alive(pid: u32) -> bool {
    if pid == 0 {
        return false;
    }
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// The on-disk state of a lease file: the directory's epoch high-water
/// mark plus the current holder (pid 0 = released cleanly).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct LeaseFile {
    epoch: u64,
    pid: u32,
}

fn read_lease_file(path: &Path) -> LeaseFile {
    // Unreadable or missing ⇒ epoch floor 0, no holder. Torn contents
    // cannot occur under the atomic rename below; a hand-corrupted file
    // degrades to "never leased", which the caller then re-fences.
    std::fs::read(path)
        .ok()
        .and_then(|b| serde_json::from_slice(&b).ok())
        .unwrap_or(LeaseFile { epoch: 0, pid: 0 })
}

fn write_lease_file(path: &Path, state: LeaseFile) -> Result<()> {
    let bytes = serde_json::to_vec(&state).expect("lease state serializes");
    let tmp = path.with_extension("lease.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| io_err("write lease", e))?;
    // rename(2) is atomic on POSIX: readers see the old epoch or the
    // new one, never a torn frame.
    std::fs::rename(&tmp, path).map_err(|e| io_err("publish lease", e))?;
    Ok(())
}

/// Exclusive claim on a recovery-log directory, fenced by an epoch.
///
/// Two jobs appending to one WAL directory interleave frames from
/// unrelated specs and poison each other's replay, so the job interface
/// takes a lease *synchronously at submit time* and holds it until the
/// job reaches a terminal status. A second submission against a held
/// directory fails immediately with [`XtractError::RecoveryLogBusy`]
/// rather than corrupting the log.
///
/// The lease is two-layered:
///
/// * an **in-process registry** (canonical-path keyed) catches two
///   threads of one process, synchronously and infallibly;
/// * an **on-disk lease file** (`wal.lease`, holder pid + epoch) extends
///   the claim across processes. A holder that died without releasing
///   is detected by pid liveness and *fenced* — the epoch bumps and the
///   directory is taken over — instead of blocking restart forever.
///
/// Every successful claim bumps the epoch; the file is never deleted
/// (release rewrites it with pid 0), so the epoch is monotonic across
/// the directory's whole life. [`RecoveryLog::set_fence`] checks the
/// holder's epoch against the file on every group commit — a zombie
/// writer whose lease was preempted gets [`XtractError::LeaseFenced`]
/// and not a byte lands.
#[derive(Debug)]
pub struct LogDirLease {
    key: PathBuf,
    file: PathBuf,
    epoch: u64,
}

impl LogDirLease {
    /// Claims `dir`, or fails with [`XtractError::RecoveryLogBusy`] if
    /// another live job already holds it — in this process (registry
    /// hit) or in another live process (lease file names a live pid).
    /// A lease left by a *dead* process is fenced: the epoch bumps and
    /// the claim succeeds. Paths are compared by canonical form when
    /// the directory exists, so `a/../b` and `b` conflict as they
    /// should.
    pub fn acquire(dir: &Path) -> Result<Self> {
        Self::claim(dir, false)
    }

    /// Forcibly fences `dir` even if the on-disk holder is still alive —
    /// the coordinator's takeover path for a worker it has declared
    /// dead (heartbeat timeout) but whose process may linger as a
    /// zombie. A claim held by *this* process is still refused: that is
    /// a programming error, not a zombie.
    pub fn preempt(dir: &Path) -> Result<Self> {
        Self::claim(dir, true)
    }

    fn claim(dir: &Path, force: bool) -> Result<Self> {
        let key = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
        let mut active = ACTIVE_LOG_DIRS.lock();
        if active.contains(&key) {
            return Err(XtractError::RecoveryLogBusy {
                dir: dir.display().to_string(),
            });
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        let file = dir.join("wal.lease");
        let prior = read_lease_file(&file);
        let me = std::process::id();
        if !force && prior.pid != 0 && prior.pid != me && pid_alive(prior.pid) {
            return Err(XtractError::RecoveryLogBusy {
                dir: dir.display().to_string(),
            });
        }
        let epoch = prior.epoch + 1;
        write_lease_file(&file, LeaseFile { epoch, pid: me })?;
        active.push(key.clone());
        Ok(Self { key, file, epoch })
    }

    /// The fencing token this claim holds. Monotonic per directory:
    /// strictly greater than every epoch any earlier claim ever held.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The lease file carrying the directory's current epoch.
    pub fn lease_path(&self) -> &Path {
        &self.file
    }
}

impl Drop for LogDirLease {
    fn drop(&mut self) {
        ACTIVE_LOG_DIRS.lock().retain(|k| k != &self.key);
        // Mark the on-disk lease released — but only if it still names
        // this claim. A successor that fenced us owns the file now; a
        // release must not resurrect our stale epoch over theirs.
        let cur = read_lease_file(&self.file);
        if cur.epoch == self.epoch && cur.pid == std::process::id() {
            let _ = write_lease_file(
                &self.file,
                LeaseFile {
                    epoch: self.epoch,
                    pid: 0,
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One journaled transition. Everything a resumed orchestrator needs to
/// avoid repeating work lives here; everything else is recomputed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum RecoveryRecord {
    /// The job began under this spec fingerprint (always the first
    /// record of a fresh log, re-stated by every snapshot).
    JobStarted {
        /// [`spec_fingerprint`] of the owning spec.
        fingerprint: u64,
    },
    /// The crawl finished and its totals are final.
    CrawlCompleted {
        /// Files discovered.
        crawled_files: u64,
        /// Groups formed.
        groups: u64,
        /// Redundant file appearances across overlapping groups.
        redundant_files: u64,
    },
    /// One family of the plan, journaled in placement order. Replaying
    /// these skips the crawl *and* pins family identity: resumed ids
    /// match the original run even though the id allocator has moved on.
    FamilyPlanned {
        /// The planned family, in full.
        family: Family,
    },
    /// One `(family, extractor)` step completed and flushed.
    StepCompleted {
        /// The family.
        family: FamilyId,
        /// The extractor that ran.
        kind: ExtractorKind,
        /// The step's metadata output. Shared (`Arc`) with the owning
        /// family's step list, so journaling a result costs a pointer
        /// bump, not a deep clone. The `Arc` is transparent to the JSON
        /// reader: a JSON frame written before the field was shared still
        /// decodes (new frames of this variant are binary).
        metadata: Arc<Metadata>,
        /// Type discoveries the step reported — journaled so a resumed
        /// plan still extends with the extractors they imply (a replay
        /// that dropped these would never run a discovered extractor).
        #[serde(default)]
        discoveries: Vec<(String, FileType)>,
    },
    /// Retry-ledger charges against a family (batched: `amount` ≥ 1).
    RetryCharged {
        /// The family charged.
        family: FamilyId,
        /// Attempts charged.
        amount: u32,
    },
    /// A hedge race resolved.
    HedgeResolved {
        /// The hedged family.
        family: FamilyId,
        /// The endpoint whose attempt the resolution concerns.
        endpoint: EndpointId,
        /// `true` when the speculative duplicate won the race.
        won: bool,
    },
    /// A family was terminally abandoned.
    DeadLettered {
        /// The full dead letter, timeline included.
        letter: DeadLetter,
    },
    /// A whole wave's batch was committed (trailing marker; carries no
    /// state — the step/charge/hedge records before it do).
    WaveCommitted {
        /// Wave number within its run.
        wave: u64,
    },
    /// A family changed shards (work stealing or orphan adoption). The
    /// record is *symmetric*: the donor journals it with `adopted:
    /// false` before the family is handed over, the recipient journals
    /// it with `adopted: true` when it takes the family in. Replaying
    /// the donor's log drops the family from its plan; replaying the
    /// recipient's log adds it — so neither crash side ever
    /// double-dispatches. The record is self-contained (full family,
    /// completed steps, retry charges) so an adoption can be replayed
    /// from the recipient's log alone.
    FamilyMigrated {
        /// The migrated family, in full (the donor's planned view).
        family: Family,
        /// Donor shard index.
        from: u64,
        /// Recipient shard index.
        to: u64,
        /// False in the donor's log, true in the recipient's.
        adopted: bool,
        /// Steps the family had already completed on the donor; the
        /// recipient fast-forwards past them instead of re-running.
        steps: Vec<MigratedStep>,
        /// Retry-ledger attempts already charged for the family.
        charges: u32,
    },
    /// Coordinator-side custody journal (root WAL only): shard `shard`'s
    /// WAL lease reached `epoch`. Appended when a worker is admitted and
    /// when a dead worker's WAL is fenced for adoption, so a restarted
    /// coordinator can reconstruct the epoch floor each shard must
    /// exceed before it re-admits a worker there.
    ShardEpoch {
        /// The shard whose lease moved.
        shard: u64,
        /// The lease epoch now in force.
        epoch: u64,
    },
    /// Coordinator-side custody journal (root WAL only): the coordinator
    /// brokered custody of `family` from shard `from` to shard `to` — a
    /// work-stealing delivery or an orphan adoption. Lightweight (no
    /// payload: the shard WALs carry the full symmetric
    /// [`RecoveryRecord::FamilyMigrated`] pair); a restarted coordinator
    /// replays these as placement *hints* for families whose hand-over
    /// crashed between the donor's out-record and the recipient's
    /// in-record.
    CustodyMoved {
        /// The family whose custody moved.
        family: FamilyId,
        /// Donor shard index.
        from: u64,
        /// Recipient shard index.
        to: u64,
    },
    /// A scheduled chaos kill fired here. The count of these records is
    /// the cursor into [`FaultPlan::orchestrator_crashes`].
    ///
    /// [`FaultPlan::orchestrator_crashes`]: xtract_types::FaultPlan
    CrashRecorded {
        /// The crash point's stable name.
        point: String,
    },
    /// Compaction marker: replay discards everything before the *last*
    /// boundary — the records after it re-state all live state.
    SnapshotBoundary,
    /// The job ran to completion; a resume of this log is a no-op.
    JobCompleted,
}

impl RecoveryRecord {
    /// For a [`RecoveryRecord::FamilyMigrated`] record: the same
    /// migration as seen from the other side (`adopted` toggled). The
    /// coordinator uses this to repair a recipient's missing in-record
    /// from the donor's out-record when a crash interrupted the
    /// hand-over. Any other variant is returned unchanged.
    pub fn flip_side(self) -> Self {
        match self {
            RecoveryRecord::FamilyMigrated {
                family,
                from,
                to,
                adopted,
                steps,
                charges,
            } => RecoveryRecord::FamilyMigrated {
                family,
                from,
                to,
                adopted: !adopted,
                steps,
                charges,
            },
            other => other,
        }
    }
}

/// One completed `(extractor, metadata)` step — the same payload a
/// [`RecoveryRecord::StepCompleted`] holds, minus the family id: what a
/// family's in-memory step list is made of, what a
/// [`RecoveryRecord::FamilyMigrated`] record carries (the enclosing
/// migration names the family once), and what a log replays into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigratedStep {
    /// The extractor that ran.
    pub kind: ExtractorKind,
    /// The step's metadata output (shared with whichever records
    /// journal it).
    pub metadata: Arc<Metadata>,
    /// Type discoveries the step reported.
    #[serde(default)]
    pub discoveries: Vec<(String, FileType)>,
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What a scan of the log found: every valid record plus tear accounting.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// All valid records across all live segments, in append order.
    pub records: Vec<RecoveryRecord>,
    /// Live segments found.
    pub segments: u64,
    /// Torn frames discarded from the final segment's tail (0 or 1: a
    /// tear is one partially-written frame).
    pub truncated_records: u64,
    /// Bytes the tear spanned.
    pub truncated_bytes: u64,
    /// Sequence number of the segment that carried the tear, if any.
    pub truncated_segment: Option<u64>,
    /// Index into `records` of the last [`RecoveryRecord::SnapshotBoundary`].
    pub boundary: Option<usize>,
    /// Sequence number of the segment holding that boundary.
    pub boundary_segment: Option<u64>,
}

impl Replay {
    /// The records that constitute live state: everything after the last
    /// snapshot boundary (or the whole log when none exists).
    pub fn effective(&self) -> &[RecoveryRecord] {
        let start = self.boundary.map(|i| i + 1).unwrap_or(0);
        &self.records[start..]
    }

    /// [`Replay::effective`] by value, for a reader that takes the records
    /// over instead of copying out of them.
    pub fn into_effective(mut self) -> Vec<RecoveryRecord> {
        match self.boundary {
            Some(i) => self.records.split_off(i + 1),
            None => self.records,
        }
    }

    /// Crashes recorded in the live view — the cursor into the fault
    /// plan's ordered crash schedule.
    pub fn crash_count(&self) -> u64 {
        self.effective()
            .iter()
            .filter(|r| matches!(r, RecoveryRecord::CrashRecorded { .. }))
            .count() as u64
    }

    /// True when the live view says the job already ran to completion.
    pub fn completed(&self) -> bool {
        self.effective()
            .iter()
            .any(|r| matches!(r, RecoveryRecord::JobCompleted))
    }

    /// The fingerprint the live view's `JobStarted` record carries.
    pub fn fingerprint(&self) -> Option<u64> {
        self.effective().iter().find_map(|r| match r {
            RecoveryRecord::JobStarted { fingerprint } => Some(*fingerprint),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

struct Writer {
    seq: u64,
    file: File,
    bytes: u64,
    /// When set, every write first re-reads the lease file and verifies
    /// it still carries this epoch: `(lease_path, held_epoch)`.
    fence: Option<(PathBuf, u64)>,
}

/// A segmented write-ahead log rooted at one directory.
///
/// All appends go through a single mutex; [`RecoveryLog::append_batch`]
/// is the group-commit path the wave loop uses.
pub struct RecoveryLog {
    dir: PathBuf,
    policy: RecoveryPolicy,
    inner: Mutex<Writer>,
}

impl std::fmt::Debug for RecoveryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryLog")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

fn io_err(context: &str, err: std::io::Error) -> XtractError {
    XtractError::Internal {
        reason: format!("recovery log {context}: {err}"),
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}

/// Live segment sequence numbers under `dir`, sorted ascending.
fn list_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("list", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(seq) = stem.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Frames one payload into `buf` as `[len][crc][payload]`: the header is
/// reserved, `write` appends the payload behind it, and length and CRC are
/// patched in, so a record never has a buffer of its own. A failed frame
/// leaves `buf` as it found it.
fn frame_with(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
    let at = buf.len();
    buf.extend_from_slice(&[0; HEADER_BYTES]);
    let written = write(buf).and_then(|()| {
        let len = buf.len() - at - HEADER_BYTES;
        match u32::try_from(len) {
            Ok(len) if len <= MAX_FRAME_BYTES => Ok(len),
            _ => Err(XtractError::Internal {
                reason: format!("recovery record of {len} bytes exceeds frame cap"),
            }),
        }
    });
    let Ok(len) = written else {
        buf.truncate(at);
        return written.map(drop);
    };
    let crc = crc32(&buf[at + HEADER_BYTES..]);
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    buf[at + 4..at + HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Frames `record` into `buf`.
fn frame_into(buf: &mut Vec<u8>, record: &RecoveryRecord) -> Result<()> {
    frame_with(buf, |out| codec::encode(out, record))
}

/// Outcome of decoding one segment's bytes.
struct SegmentScan {
    records: Vec<RecoveryRecord>,
    /// Offset of the first invalid byte (== `buf.len()` when clean).
    valid_len: usize,
    torn: bool,
}

/// Fewest frames worth a thread of their own in [`scan_segment`]'s second
/// pass: below this a spawn costs more than the checks it would take over.
const MIN_FRAMES_PER_THREAD: usize = 1024;

/// One frame located by its header: where the payload sits in the segment
/// and the checksum the header promises for it.
struct FrameRef {
    /// Offset of the frame's header.
    at: usize,
    len: usize,
    crc: u32,
}

/// Decodes one segment in two passes. Pass 1 walks the length headers and
/// collects frame ranges up to the first header that does not fit the
/// bytes left; pass 2 CRC-checks and decodes contiguous runs of those
/// frames, one run per core, and joins the runs in log order. The tear is
/// the first frame in log order to fail its bounds, its CRC or its decode,
/// and nothing after it is kept — a frame pass 1 located *behind* a bad
/// one may sit at a garbage offset, which is why only log order decides.
fn scan_segment(buf: &[u8]) -> SegmentScan {
    let mut frames: Vec<FrameRef> = Vec::new();
    let mut off = 0usize;
    while off < buf.len() {
        let rest = buf.len() - off;
        if rest < HEADER_BYTES {
            break;
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("4 bytes"));
        if len as u64 > MAX_FRAME_BYTES as u64 || rest - HEADER_BYTES < len {
            break;
        }
        frames.push(FrameRef { at: off, len, crc });
        off += HEADER_BYTES + len;
    }
    // `off` is where the headers stopped making sense, or the clean end.
    let headers_end = off;

    // A run's records, and the index (within the run) of its first bad
    // frame if it has one.
    let check = |run: &[FrameRef]| -> (Vec<RecoveryRecord>, Option<usize>) {
        let mut records = Vec::with_capacity(run.len());
        for (i, f) in run.iter().enumerate() {
            let payload = &buf[f.at + HEADER_BYTES..f.at + HEADER_BYTES + f.len];
            if crc32(payload) != f.crc {
                return (records, Some(i));
            }
            match codec::decode(payload) {
                Some(record) => records.push(record),
                None => return (records, Some(i)),
            }
        }
        (records, None)
    };
    // One run per core, the first on this thread; a segment too small to
    // be worth a spawn is one run.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(frames.len() / MIN_FRAMES_PER_THREAD).max(1);
    let per_run = frames.len().div_ceil(threads).max(1);
    let runs: Vec<(Vec<RecoveryRecord>, Option<usize>)> = std::thread::scope(|scope| {
        let mut runs = frames.chunks(per_run);
        let mine = runs.next().unwrap_or_default();
        let check = &check;
        let helpers: Vec<_> = runs.map(|run| scope.spawn(move || check(run))).collect();
        let mut out = vec![check(mine)];
        out.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("segment scan thread panicked")),
        );
        out
    });

    let mut records = Vec::with_capacity(frames.len());
    for (k, (run, bad)) in runs.into_iter().enumerate() {
        records.extend(run);
        if let Some(i) = bad {
            return SegmentScan {
                records,
                valid_len: frames[k * per_run + i].at,
                torn: true,
            };
        }
    }
    SegmentScan {
        records,
        valid_len: headers_end,
        torn: headers_end < buf.len(),
    }
}

/// Read-only replay of the segments under `dir`, plus their sequence
/// numbers in replay order: tolerates (and reports, but does not repair)
/// a torn tail on the final segment. Torn bytes in any earlier segment
/// are corruption.
fn scan_dir(dir: &Path) -> Result<(Replay, Vec<u64>)> {
    let seqs = list_segments(dir)?;
    let mut replay = Replay {
        segments: seqs.len() as u64,
        ..Replay::default()
    };
    let last = seqs.last().copied();
    for seq in &seqs {
        let path = segment_path(dir, *seq);
        let buf = std::fs::read(&path).map_err(|e| io_err("read segment", e))?;
        let mut scan = scan_segment(&buf);
        if scan.torn {
            if Some(*seq) != last {
                return Err(XtractError::CheckpointCorrupt {
                    reason: format!(
                        "recovery segment {seq} has invalid bytes at offset {} but is not \
                         the final segment",
                        scan.valid_len
                    ),
                });
            }
            replay.truncated_records = 1;
            replay.truncated_bytes = (buf.len() - scan.valid_len) as u64;
            replay.truncated_segment = Some(*seq);
        }
        let boundary = |r: &RecoveryRecord| matches!(r, RecoveryRecord::SnapshotBoundary);
        if let Some(i) = scan.records.iter().rposition(boundary) {
            replay.boundary = Some(replay.records.len() + i);
            replay.boundary_segment = Some(*seq);
        }
        // One reservation and one copy per segment, not a push per record.
        replay.records.append(&mut scan.records);
    }
    Ok((replay, seqs))
}

impl RecoveryLog {
    /// Opens (or creates) the log at `dir`, replaying whatever is there.
    ///
    /// A torn tail on the final segment is truncated on disk — repeated
    /// opens are idempotent — and reported in the returned [`Replay`].
    pub fn open(dir: impl Into<PathBuf>, policy: RecoveryPolicy) -> Result<(Self, Replay)> {
        policy
            .validate()
            .map_err(|reason| XtractError::InvalidJob { reason })?;
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create dir", e))?;
        // The writer appends to the last segment the scan replayed: one
        // listing serves both.
        let (replay, seqs) = scan_dir(&dir)?;
        let (seq, file, bytes) = match seqs.last() {
            None => {
                let path = segment_path(&dir, 0);
                let file = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err("create segment", e))?;
                (0, file, 0)
            }
            Some(&seq) => {
                let path = segment_path(&dir, seq);
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("open segment", e))?;
                let len = file
                    .metadata()
                    .map_err(|e| io_err("stat segment", e))?
                    .len();
                let valid = len
                    - if replay.truncated_segment == Some(seq) {
                        replay.truncated_bytes
                    } else {
                        0
                    };
                if valid < len {
                    file.set_len(valid)
                        .map_err(|e| io_err("truncate tear", e))?;
                    file.sync_data().map_err(|e| io_err("sync truncation", e))?;
                }
                use std::io::Seek;
                let mut file = file;
                file.seek(std::io::SeekFrom::End(0))
                    .map_err(|e| io_err("seek", e))?;
                (seq, file, valid)
            }
        };
        Ok((
            Self {
                dir,
                policy,
                inner: Mutex::new(Writer {
                    seq,
                    file,
                    bytes,
                    fence: None,
                }),
            },
            replay,
        ))
    }

    /// Fences every future write to this log against `lease`: each group
    /// commit re-reads the lease file under the writer lock and fails
    /// with [`XtractError::LeaseFenced`] — before a single byte lands —
    /// if the directory's epoch has moved past the lease's. This is the
    /// zombie-writer guard for cross-process shard workers: a worker
    /// whose WAL was preempted and adopted by a sibling cannot corrupt
    /// the adopted log.
    pub fn set_fence(&self, lease: &LogDirLease) {
        self.inner.lock().fence = Some((lease.lease_path().to_path_buf(), lease.epoch()));
    }

    fn check_fence(&self, w: &Writer) -> Result<()> {
        if let Some((path, held)) = &w.fence {
            let current = read_lease_file(path).epoch;
            if current != *held {
                return Err(XtractError::LeaseFenced {
                    dir: self.dir.display().to_string(),
                    held: *held,
                    current,
                });
            }
        }
        Ok(())
    }

    /// Read-only scan of a log directory: replays every valid record and
    /// reports (without repairing) a torn tail. Tests use this to account
    /// for `recovery.replayed` / `recovery.truncated` independently of
    /// the orchestrator.
    pub fn scan(dir: impl AsRef<Path>) -> Result<Replay> {
        scan_dir(dir.as_ref()).map(|(replay, _)| replay)
    }

    /// The log's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The policy this log runs under.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Live segments on disk right now.
    pub fn segment_count(&self) -> Result<u64> {
        Ok(list_segments(&self.dir)?.len() as u64)
    }

    /// Appends one record (a group commit of one).
    pub fn append(&self, record: &RecoveryRecord) -> Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Group commit: frames every record into one buffer and pays one
    /// lock, one write, and at most one sync for the whole batch. Empty
    /// batches are free.
    pub fn append_batch(&self, records: &[RecoveryRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(records.len() * 64);
        for record in records {
            frame_into(&mut buf, record)?;
        }
        self.commit(&buf)
    }

    /// Group commit of a fresh plan: `crawl`, then one
    /// [`RecoveryRecord::FamilyPlanned`] frame per family, framed from the
    /// borrowed families — the plan is journaled without being cloned into
    /// records first.
    pub fn append_plan(&self, crawl: &RecoveryRecord, families: &[Family]) -> Result<()> {
        let mut buf = Vec::with_capacity(families.len() * 256 + 64);
        frame_into(&mut buf, crawl)?;
        for family in families {
            frame_with(&mut buf, |out| codec::encode_planned(out, family))?;
        }
        self.commit(&buf)
    }

    /// One lock, one write and at most one sync for `frames`.
    fn commit(&self, frames: &[u8]) -> Result<()> {
        let mut w = self.inner.lock();
        self.check_fence(&w)?;
        if w.bytes >= self.policy.segment_bytes {
            self.rotate(&mut w)?;
        }
        w.file.write_all(frames).map_err(|e| io_err("append", e))?;
        w.bytes += frames.len() as u64;
        if self.policy.sync_each_commit {
            w.file.sync_data().map_err(|e| io_err("sync", e))?;
        }
        Ok(())
    }

    /// Chaos hook: writes a deliberately torn frame — a valid header
    /// followed by a truncated payload — and syncs it, simulating a crash
    /// mid-`write(2)`. The next [`RecoveryLog::open`] must truncate
    /// exactly this frame. The caller is expected to abandon this log
    /// object immediately (the kill it simulates ends the run).
    pub fn append_torn(&self, record: &RecoveryRecord) -> Result<()> {
        let mut buf = Vec::new();
        frame_into(&mut buf, record)?;
        // Keep the header and half the payload: enough bytes that the
        // reader sees a frame, few enough that the CRC cannot match.
        let keep = HEADER_BYTES + (buf.len() - HEADER_BYTES) / 2;
        let mut w = self.inner.lock();
        self.check_fence(&w)?;
        w.file
            .write_all(&buf[..keep])
            .map_err(|e| io_err("append torn", e))?;
        w.bytes += keep as u64;
        w.file.sync_data().map_err(|e| io_err("sync torn", e))?;
        Ok(())
    }

    fn rotate(&self, w: &mut Writer) -> Result<()> {
        w.file
            .sync_data()
            .map_err(|e| io_err("sync on rotate", e))?;
        let seq = w.seq + 1;
        let path = segment_path(&self.dir, seq);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("rotate", e))?;
        self.sync_dir()?;
        w.seq = seq;
        w.file = file;
        w.bytes = 0;
        Ok(())
    }

    fn sync_dir(&self) -> Result<()> {
        // Make segment creation/removal durable before depending on it.
        let dir = File::open(&self.dir).map_err(|e| io_err("open dir", e))?;
        dir.sync_all().map_err(|e| io_err("sync dir", e))?;
        Ok(())
    }

    /// Phase one of compaction: writes `snapshot` (prefixed with
    /// [`RecoveryRecord::SnapshotBoundary`]) into a fresh segment, syncs
    /// it durably, and moves the writer there. The superseded segments
    /// are *still on disk* — a crash here loses nothing, because replay
    /// resets at the boundary. Returns the snapshot segment's sequence
    /// number to pass to [`RecoveryLog::finish_compaction`].
    pub fn begin_compaction(&self, snapshot: &[RecoveryRecord]) -> Result<u64> {
        let mut buf = Vec::with_capacity(snapshot.len() * 64 + 64);
        frame_into(&mut buf, &RecoveryRecord::SnapshotBoundary)?;
        for record in snapshot {
            frame_into(&mut buf, record)?;
        }
        let mut w = self.inner.lock();
        self.check_fence(&w)?;
        let seq = w.seq + 1;
        let path = segment_path(&self.dir, seq);
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("create snapshot segment", e))?;
        file.write_all(&buf)
            .map_err(|e| io_err("write snapshot", e))?;
        // The snapshot is the new root of truth: always sync it (and the
        // directory entry) regardless of the per-commit sync policy.
        file.sync_data().map_err(|e| io_err("sync snapshot", e))?;
        self.sync_dir()?;
        w.seq = seq;
        w.file = file;
        w.bytes = buf.len() as u64;
        Ok(seq)
    }

    /// Phase two of compaction: unlinks every segment older than
    /// `keep_seq`. Safe to call on a later resume to finish a compaction
    /// a crash interrupted. Returns how many segments were removed.
    pub fn finish_compaction(&self, keep_seq: u64) -> Result<u64> {
        let mut removed = 0;
        for seq in list_segments(&self.dir)? {
            if seq < keep_seq {
                std::fs::remove_file(segment_path(&self.dir, seq))
                    .map_err(|e| io_err("unlink segment", e))?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.sync_dir()?;
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use xtract_types::FailureReason;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xtract-recovery-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn md(k: &str) -> Metadata {
        let mut m = Metadata::new();
        m.insert(k, 1);
        m
    }

    fn step(f: u64, e: &str) -> RecoveryRecord {
        RecoveryRecord::StepCompleted {
            family: FamilyId::new(f),
            kind: ExtractorKind::Keyword,
            metadata: Arc::new(md(e)),
            discoveries: Vec::new(),
        }
    }

    /// The pre-`Arc` shape of `StepCompleted`, kept as a shadow type so
    /// this test proves the `Arc<Metadata>` de-churn changed nothing on
    /// disk: same JSON bytes out, and legacy bytes replay into the same
    /// record.
    #[test]
    fn arc_metadata_keeps_the_wal_frame_and_replay_unchanged() {
        #[derive(Serialize)]
        #[serde(tag = "type", rename_all = "snake_case")]
        #[allow(dead_code)] // fields exist only to be serialized
        enum LegacyRecord {
            StepCompleted {
                family: FamilyId,
                kind: ExtractorKind,
                metadata: Metadata,
                discoveries: Vec<(String, FileType)>,
            },
        }
        let discoveries = vec![("/f/a.csv".to_string(), FileType::Tabular)];
        let record = RecoveryRecord::StepCompleted {
            family: FamilyId::new(3),
            kind: ExtractorKind::Keyword,
            metadata: Arc::new(md("kw")),
            discoveries: discoveries.clone(),
        };
        let legacy = LegacyRecord::StepCompleted {
            family: FamilyId::new(3),
            kind: ExtractorKind::Keyword,
            metadata: md("kw"),
            discoveries,
        };
        let now = serde_json::to_vec(&record).unwrap();
        let before = serde_json::to_vec(&legacy).unwrap();
        assert_eq!(now, before, "Arc must serialize transparently");
        // Bytes written by a pre-Arc orchestrator replay bit-identically.
        let replayed: RecoveryRecord = serde_json::from_slice(&before).unwrap();
        assert_eq!(replayed, record);
        // And a log round trip through the real framing agrees too.
        let dir = tempdir("arc-frame");
        let policy = RecoveryPolicy::default();
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        log.append_batch(std::slice::from_ref(&record)).unwrap();
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.records, vec![record]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC32 the slicing-by-8 one replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_sliced_equals_bytewise_at_every_length_and_alignment() {
        let mut rng = SmallRng::seed_from_u64(0x9e37_79b9);
        let buf: Vec<u8> = (0..4096 + 64).map(|_| rng.gen()).collect();
        // Every length through the 8-byte stride and its remainders, at
        // every starting alignment.
        for len in 0..=64 {
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
            }
        }
        for _ in 0..256 {
            let start = rng.gen_range(0..64);
            let len = rng.gen_range(0..4096);
            let bytes = &buf[start..start + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
        }
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tempdir("roundtrip");
        let policy = RecoveryPolicy::default();
        let (log, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert!(replay.records.is_empty());
        let records = vec![
            RecoveryRecord::JobStarted { fingerprint: 7 },
            RecoveryRecord::CrawlCompleted {
                crawled_files: 10,
                groups: 5,
                redundant_files: 1,
            },
            step(1, "keyword"),
            RecoveryRecord::WaveCommitted { wave: 0 },
        ];
        for r in &records {
            log.append(r).unwrap();
        }
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.truncated_records, 0);
        assert_eq!(replay.fingerprint(), Some(7));
        assert!(!replay.completed());
    }

    #[test]
    fn group_commit_batches_replay_identically_to_singles() {
        let dir = tempdir("batch");
        let policy = RecoveryPolicy::default();
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        let batch = vec![
            step(1, "keyword"),
            step(1, "tabular"),
            RecoveryRecord::RetryCharged {
                family: FamilyId::new(1),
                amount: 2,
            },
            RecoveryRecord::WaveCommitted { wave: 3 },
        ];
        log.append_batch(&batch).unwrap();
        log.append_batch(&[]).unwrap(); // free no-op
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.records, batch);
    }

    #[test]
    fn small_segments_rotate_and_replay_across_files() {
        let dir = tempdir("rotate");
        let policy = RecoveryPolicy {
            segment_bytes: 96,
            ..RecoveryPolicy::default()
        };
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        let records: Vec<RecoveryRecord> = (0..20).map(|i| step(i, "keyword")).collect();
        for r in &records {
            log.append(r).unwrap();
        }
        assert!(log.segment_count().unwrap() > 1, "rotation never happened");
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.records, records);
        assert!(replay.segments > 1);
    }

    #[test]
    fn torn_tail_is_truncated_once_and_opens_are_idempotent() {
        let dir = tempdir("torn");
        let policy = RecoveryPolicy::default();
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        log.append(&step(1, "keyword")).unwrap();
        log.append(&step(2, "keyword")).unwrap();
        log.append_torn(&RecoveryRecord::WaveCommitted { wave: 1 })
            .unwrap();
        drop(log);
        // Scan sees the tear without repairing it.
        let scanned = RecoveryLog::scan(&dir).unwrap();
        assert_eq!(scanned.truncated_records, 1);
        assert_eq!(scanned.records.len(), 2);
        // Open truncates the tear on disk.
        let (log, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.truncated_records, 1);
        assert!(replay.truncated_bytes > 0);
        assert_eq!(replay.records, vec![step(1, "keyword"), step(2, "keyword")]);
        // Appends continue cleanly after the repair...
        log.append(&step(3, "keyword")).unwrap();
        drop(log);
        // ...and the next open sees no tear at all.
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.truncated_records, 0);
        assert_eq!(
            replay.records,
            vec![step(1, "keyword"), step(2, "keyword"), step(3, "keyword")]
        );
    }

    #[test]
    fn torn_bytes_in_a_non_final_segment_are_corruption() {
        let dir = tempdir("corrupt");
        let policy = RecoveryPolicy {
            segment_bytes: 64,
            ..RecoveryPolicy::default()
        };
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        for i in 0..8 {
            log.append(&step(i, "keyword")).unwrap();
        }
        assert!(log.segment_count().unwrap() > 1);
        drop(log);
        // Flip a payload byte in the FIRST segment.
        let first = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&first).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xff;
        std::fs::write(&first, bytes).unwrap();
        let err = RecoveryLog::open(&dir, policy).unwrap_err();
        assert!(
            matches!(err, XtractError::CheckpointCorrupt { .. }),
            "{err}"
        );
    }

    // -- the two-pass scan against the serial reader it replaced -------

    /// The one-pass reader [`scan_segment`] replaced, over the bytewise
    /// CRC: a frame at a time, stop at the first that fails. The oracle.
    fn scan_segment_serial(buf: &[u8]) -> SegmentScan {
        let mut records = Vec::new();
        let mut off = 0usize;
        let mut torn = false;
        while off < buf.len() {
            let rest = buf.len() - off;
            torn = true;
            if rest < HEADER_BYTES {
                break;
            }
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
            if len as u64 > MAX_FRAME_BYTES as u64 || rest - HEADER_BYTES < len {
                break;
            }
            let payload = &buf[off + HEADER_BYTES..off + HEADER_BYTES + len];
            if crc32_bytewise(payload) != crc {
                break;
            }
            let Some(record) = codec::decode(payload) else {
                break;
            };
            records.push(record);
            off += HEADER_BYTES + len;
            torn = false;
        }
        SegmentScan {
            records,
            valid_len: off,
            torn,
        }
    }

    /// The frame every log written before the binary encoding holds, for
    /// every variant: the JSON `frame_into` this module had then. The
    /// oracle for "an old log still opens".
    fn frame_json_into(buf: &mut Vec<u8>, record: &RecoveryRecord) {
        let payload = serde_json::to_vec(record).unwrap();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
    }

    /// Which writer frames a test segment: today's, the JSON one, or the
    /// two taking turns (a log begun by an old build and finished by this).
    #[derive(Clone, Copy)]
    enum Framing {
        Current,
        Json,
        Mixed,
    }

    fn planned(i: u64) -> RecoveryRecord {
        use xtract_types::{FileRecord, Group, GroupId};
        let ep = EndpointId::new(i % 3);
        let path = format!("/data/d{i}/t\u{e9}st \"{i}\".csv");
        let file = FileRecord::new(path.clone(), i * 97, ep, FileType::Tabular);
        let group = Group::new(GroupId::new(i), vec![path]);
        RecoveryRecord::FamilyPlanned {
            family: Family::new(FamilyId::new(i), vec![file], vec![group], ep),
        }
    }

    /// One segment's bytes holding enough frames that pass 2 of
    /// [`scan_segment`] fans out wherever there is a second core, plus the
    /// offset each frame starts at.
    fn build_segment(framing: Framing) -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut starts = Vec::new();
        let mut frame = |r: &RecoveryRecord| {
            let json = match framing {
                Framing::Current => false,
                Framing::Json => true,
                Framing::Mixed => starts.len() % 3 != 1,
            };
            starts.push(buf.len());
            if json {
                frame_json_into(&mut buf, r);
            } else {
                frame_into(&mut buf, r).unwrap();
            }
        };
        frame(&RecoveryRecord::JobStarted { fingerprint: 11 });
        for i in 0..2 * MIN_FRAMES_PER_THREAD as u64 + 300 {
            match i % 8 {
                0 | 4 => frame(&step(i, "keyword")),
                1 => frame(&RecoveryRecord::RetryCharged {
                    family: FamilyId::new(i),
                    amount: 1 + (i % 3) as u32,
                }),
                5 => frame(&planned(i)),
                2 | 6 => frame(&step(i, &"tabular".repeat(1 + (i % 5) as usize))),
                _ => frame(&RecoveryRecord::WaveCommitted { wave: i }),
            }
        }
        (buf, starts)
    }

    /// [`build_segment`] as this build writes it: binary frames for the
    /// steps and the planned families, JSON for the rest.
    fn big_segment() -> &'static (Vec<u8>, Vec<usize>) {
        static SEGMENT: std::sync::OnceLock<(Vec<u8>, Vec<usize>)> = std::sync::OnceLock::new();
        SEGMENT.get_or_init(|| build_segment(Framing::Current))
    }

    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// The segment ends before this offset.
        Cut(usize),
        /// This bit of this byte is inverted.
        Flip(usize, u8),
        /// [`Damage::Flip`], and the frame's CRC recomputed over the
        /// damaged payload: the checksum passes and the payload decoder
        /// itself meets the garbage.
        Resealed(usize, u8),
    }

    fn damaged((buf, starts): &(Vec<u8>, Vec<usize>), damage: Damage) -> Vec<u8> {
        let (at, bit) = match damage {
            Damage::Cut(at) => return buf[..at].to_vec(),
            Damage::Flip(at, bit) | Damage::Resealed(at, bit) => (at, bit),
        };
        let mut out = buf.to_vec();
        out[at] ^= 1 << bit;
        if matches!(damage, Damage::Resealed(..)) {
            let frame = starts.partition_point(|&s| s <= at) - 1;
            let payload = starts[frame] + HEADER_BYTES;
            let end = starts.get(frame + 1).copied().unwrap_or(buf.len());
            // A flip in the header stays a plain flip.
            if at >= payload {
                let crc = crc32(&out[payload..end]);
                out[payload - 4..payload].copy_from_slice(&crc.to_le_bytes());
            }
        }
        out
    }

    /// The two-pass scan and the serial reader agree on `segment` after
    /// `damage`: same record prefix, same tear offset, same verdict.
    fn assert_scans_agree(segment: &(Vec<u8>, Vec<usize>), damage: Damage) {
        let bytes = damaged(segment, damage);
        let got = scan_segment(&bytes);
        let want = scan_segment_serial(&bytes);
        assert_eq!(got.torn, want.torn, "{damage:?}");
        assert_eq!(got.valid_len, want.valid_len, "{damage:?}");
        assert!(got.records == want.records, "{damage:?}: records differ");
    }

    #[test]
    fn damaged_segment_scans_exactly_like_the_serial_reader() {
        let segment = big_segment();
        let (buf, starts) = segment;
        assert!(starts.len() >= 2048);
        let clean = scan_segment(buf);
        assert!(!clean.torn);
        assert_eq!(clean.valid_len, buf.len());
        assert_eq!(clean.records.len(), starts.len());
        assert!(clean.records == scan_segment_serial(buf).records);

        // Every byte of a frame at the head (JSON), of the two frames either
        // side of where pass 2 splits its runs on two cores (a binary
        // family and a binary step), and of the last frame: cut there, flip
        // one bit there, and flip one under a CRC that then still passes.
        let split = starts.len().div_ceil(2);
        let mut rng = SmallRng::seed_from_u64(0x5eed_0001);
        for frame in [0, split - 1, split, starts.len() - 1] {
            let end = starts.get(frame + 1).copied().unwrap_or(buf.len());
            for at in starts[frame]..end {
                assert_scans_agree(segment, Damage::Cut(at));
                assert_scans_agree(segment, Damage::Flip(at, rng.gen_range(0..8)));
                assert_scans_agree(segment, Damage::Resealed(at, rng.gen_range(0..8)));
            }
        }
        // And anywhere.
        for _ in 0..48 {
            let at = rng.gen_range(0..buf.len());
            assert_scans_agree(segment, Damage::Cut(at));
            assert_scans_agree(segment, Damage::Flip(at, rng.gen_range(0..8)));
            assert_scans_agree(segment, Damage::Resealed(at, rng.gen_range(0..8)));
        }
    }

    #[test]
    fn a_resealed_flip_is_a_tear_or_a_record_never_a_panic() {
        // The CRC vouches for the damaged payload, so what stands between
        // the garbage and the replay is the payload decoder alone: the
        // frame either decodes (to a different record) or is the tear, and
        // every frame before it is untouched.
        let segment = big_segment();
        let (buf, starts) = segment;
        let clean = scan_segment(buf).records;
        let mut rng = SmallRng::seed_from_u64(0x5eed_0003);
        let (mut tears, mut survivors) = (0, 0);
        for _ in 0..160 {
            let frame = rng.gen_range(0..starts.len());
            let end = starts.get(frame + 1).copied().unwrap_or(buf.len());
            let at = rng.gen_range(starts[frame] + HEADER_BYTES..end);
            let scan = scan_segment(&damaged(segment, Damage::Resealed(at, rng.gen_range(0..8))));
            assert!(scan.records[..frame] == clean[..frame]);
            if scan.torn {
                tears += 1;
                assert_eq!((scan.valid_len, scan.records.len()), (starts[frame], frame));
            } else {
                survivors += 1;
                assert_eq!(scan.records.len(), clean.len());
                assert!(scan.records[frame] != clean[frame]);
            }
        }
        assert!(
            tears > 0 && survivors > 0,
            "{tears} tears, {survivors} survivors"
        );
    }

    #[test]
    fn json_binary_and_mixed_segments_replay_alike() {
        let (current, starts) = big_segment();
        let want = scan_segment(current).records;
        // The first step really is a binary frame, and the segment is the
        // smaller for it.
        assert_ne!(current[starts[1] + HEADER_BYTES], b'{');
        let dir = tempdir("framings");
        for framing in [Framing::Json, Framing::Mixed] {
            let (buf, _) = build_segment(framing);
            assert!(buf.len() > current.len());
            let scan = scan_segment(&buf);
            assert!(!scan.torn);
            assert!(scan.records == want);
            // Through the directory reader, with the current writer's
            // segment after it: one log, begun by an older build.
            std::fs::write(segment_path(&dir, 0), &buf).unwrap();
            std::fs::write(segment_path(&dir, 1), current).unwrap();
            let replay = RecoveryLog::scan(&dir).unwrap();
            assert_eq!((replay.segments, replay.truncated_records), (2, 0));
            assert!(replay.records[..want.len()] == want[..]);
            assert!(replay.records[want.len()..] == want[..]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_reaches_replay_as_a_tear_only_in_the_final_segment() {
        let segment = big_segment();
        let (buf, starts) = segment;
        let dir = tempdir("two-pass-dir");
        let mut head = Vec::new();
        frame_into(&mut head, &step(1, "keyword")).unwrap();
        let mut rng = SmallRng::seed_from_u64(0x5eed_0002);
        for _ in 0..6 {
            let at = rng.gen_range(0..buf.len());
            for damage in [Damage::Cut(at), Damage::Flip(at, rng.gen_range(0..8))] {
                let bytes = damaged(segment, damage);
                let want = scan_segment_serial(&bytes);
                // Final segment: a tear, reported and survivable.
                std::fs::write(segment_path(&dir, 0), &head).unwrap();
                std::fs::write(segment_path(&dir, 1), &bytes).unwrap();
                let replay = RecoveryLog::scan(&dir).unwrap();
                assert_eq!(replay.records.len(), 1 + want.records.len(), "{damage:?}");
                assert!(replay.records[1..] == want.records[..], "{damage:?}");
                assert_eq!(replay.truncated_records, u64::from(want.torn), "{damage:?}");
                assert_eq!(
                    replay.truncated_bytes,
                    (bytes.len() - want.valid_len) as u64,
                    "{damage:?}"
                );
                assert_eq!(
                    replay.truncated_segment,
                    want.torn.then_some(1),
                    "{damage:?}"
                );
                // The same bytes with a segment after them: corruption.
                if want.torn {
                    std::fs::write(segment_path(&dir, 0), &bytes).unwrap();
                    std::fs::write(segment_path(&dir, 1), &head).unwrap();
                    let err = RecoveryLog::scan(&dir).unwrap_err();
                    assert!(
                        matches!(err, XtractError::CheckpointCorrupt { .. }),
                        "{damage:?}: {err}"
                    );
                }
            }
        }
        assert!(starts.len() >= 2048);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_resets_replay_at_the_boundary() {
        let dir = tempdir("compact");
        let policy = RecoveryPolicy {
            segment_bytes: 96,
            ..RecoveryPolicy::default()
        };
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        for i in 0..20 {
            log.append(&step(i, "keyword")).unwrap();
        }
        let before = log.segment_count().unwrap();
        assert!(before > 1);
        let snapshot = vec![
            RecoveryRecord::JobStarted { fingerprint: 9 },
            step(100, "tabular"),
        ];
        let keep = log.begin_compaction(&snapshot).unwrap();
        let removed = log.finish_compaction(keep).unwrap();
        assert_eq!(removed, before);
        assert_eq!(log.segment_count().unwrap(), 1);
        // Post-compaction appends land after the snapshot.
        log.append(&step(101, "keyword")).unwrap();
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(
            replay.effective(),
            &[
                RecoveryRecord::JobStarted { fingerprint: 9 },
                step(100, "tabular"),
                step(101, "keyword"),
            ]
        );
        assert_eq!(replay.fingerprint(), Some(9));
    }

    #[test]
    fn crash_between_snapshot_and_unlink_loses_nothing() {
        let dir = tempdir("midcompact");
        let policy = RecoveryPolicy {
            segment_bytes: 96,
            ..RecoveryPolicy::default()
        };
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        for i in 0..20 {
            log.append(&step(i, "keyword")).unwrap();
        }
        let stale = log.segment_count().unwrap();
        let snapshot = vec![RecoveryRecord::JobStarted { fingerprint: 3 }, step(7, "kw")];
        let keep = log.begin_compaction(&snapshot).unwrap();
        // Simulated crash: the log object dies before finish_compaction.
        drop(log);
        let (log, replay) = RecoveryLog::open(&dir, policy).unwrap();
        // Stale segments are still there, but the boundary hides them.
        assert_eq!(replay.segments, stale + 1);
        assert_eq!(replay.boundary_segment, Some(keep));
        assert_eq!(
            replay.effective(),
            &[RecoveryRecord::JobStarted { fingerprint: 3 }, step(7, "kw")]
        );
        // A later resume finishes the interrupted unlink.
        let removed = log
            .finish_compaction(replay.boundary_segment.unwrap())
            .unwrap();
        assert_eq!(removed, stale);
        assert_eq!(log.segment_count().unwrap(), 1);
    }

    #[test]
    fn crash_count_is_the_schedule_cursor_and_survives_compaction() {
        let dir = tempdir("crashcount");
        let policy = RecoveryPolicy::default();
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        log.append(&RecoveryRecord::CrashRecorded {
            point: "after-crawl".into(),
        })
        .unwrap();
        let keep = log
            .begin_compaction(&[RecoveryRecord::CrashRecorded {
                point: "after-crawl".into(),
            }])
            .unwrap();
        log.finish_compaction(keep).unwrap();
        log.append(&RecoveryRecord::CrashRecorded {
            point: "mid-wave".into(),
        })
        .unwrap();
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.crash_count(), 2);
    }

    #[test]
    fn log_dir_lease_is_exclusive_until_dropped() {
        let dir = tempdir("lease-excl");
        let lease = LogDirLease::acquire(&dir).unwrap();
        // A second claim on the same directory — even spelled through a
        // relative hop — is refused with the typed busy error.
        let aliased = dir.join("sub").join("..");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let err = LogDirLease::acquire(&aliased).unwrap_err();
        assert!(matches!(err, XtractError::RecoveryLogBusy { .. }));
        // Distinct directories do not conflict.
        let other = tempdir("lease-other");
        let _unrelated = LogDirLease::acquire(&other).unwrap();
        drop(lease);
        let _reclaimed = LogDirLease::acquire(&dir).unwrap();
    }

    #[test]
    fn shard_subdir_leases_nest_under_the_root_lease() {
        // A sharded job holds the root lease (taken at submit) while each
        // shard runner leases its own `shard-{k}/` subdirectory. The
        // canonical-path keying must treat those as distinct claims: the
        // shards never collide with the root or with each other, but a
        // duplicate claim on one shard's subdir is still refused typed.
        let dir = tempdir("lease-nested");
        let root = LogDirLease::acquire(&dir).unwrap();
        let s0 = dir.join("shard-0");
        let s1 = dir.join("shard-1");
        std::fs::create_dir_all(&s0).unwrap();
        std::fs::create_dir_all(&s1).unwrap();
        let lease0 = LogDirLease::acquire(&s0).unwrap();
        let _lease1 = LogDirLease::acquire(&s1).unwrap();
        // A second writer on shard-0 — even via a relative hop — is the
        // exact collision the lease exists to prevent.
        let aliased = s1.join("..").join("shard-0");
        let err = LogDirLease::acquire(&aliased).unwrap_err();
        assert!(matches!(err, XtractError::RecoveryLogBusy { .. }), "{err}");
        // Releasing the shard lease frees the subdir while the root
        // lease stays held.
        drop(lease0);
        let _reclaimed = LogDirLease::acquire(&s0).unwrap();
        drop(root);
    }

    #[test]
    fn stale_lease_from_a_dead_process_is_fenced_not_busy() {
        // Regression: a lease file left by a SIGKILLed process used to
        // block restart forever with RecoveryLogBusy. A dead holder must
        // be *fenced* — epoch bumped, directory taken — instead.
        let dir = tempdir("lease-stale");
        // Fabricated corpse: no Linux kernel hands out pids this large
        // (pid_max caps at 2^22).
        std::fs::write(dir.join("wal.lease"), r#"{"epoch":7,"pid":999999999}"#).unwrap();
        let lease =
            LogDirLease::acquire(&dir).expect("dead holder must be fenced, not refused busy");
        assert_eq!(lease.epoch(), 8, "fencing bumps past the corpse's epoch");
        drop(lease);
        // Release keeps the epoch high-water mark on disk…
        let again = LogDirLease::acquire(&dir).unwrap();
        assert_eq!(again.epoch(), 9, "epochs are monotonic across releases");
    }

    #[test]
    fn lease_held_by_a_live_foreign_process_is_busy_until_preempted() {
        let dir = tempdir("lease-live");
        // pid 1 (init) is alive on any Linux host this test runs on.
        std::fs::write(dir.join("wal.lease"), r#"{"epoch":3,"pid":1}"#).unwrap();
        let err = LogDirLease::acquire(&dir).unwrap_err();
        assert!(matches!(err, XtractError::RecoveryLogBusy { .. }), "{err}");
        // The coordinator's takeover path fences even a live holder.
        let lease = LogDirLease::preempt(&dir).unwrap();
        assert_eq!(lease.epoch(), 4);
    }

    #[test]
    fn zombie_writer_is_fenced_before_a_byte_lands() {
        let dir = tempdir("lease-zombie");
        let policy = RecoveryPolicy::default();
        let zombie_lease = LogDirLease::acquire(&dir).unwrap();
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        log.set_fence(&zombie_lease);
        // Epoch current: writes land normally.
        log.append(&step(1, "keyword")).unwrap();
        let seg_len = std::fs::metadata(segment_path(&dir, 0)).unwrap().len();
        // A sibling process fences the directory (the coordinator
        // declared this writer dead and adopted its WAL). Simulated by
        // advancing the lease file the way a foreign preempt would.
        let usurped = zombie_lease.epoch() + 1;
        std::fs::write(
            dir.join("wal.lease"),
            format!(r#"{{"epoch":{usurped},"pid":1}}"#),
        )
        .unwrap();
        // Every write path is now rejected typed, with nothing written.
        let err = log.append(&step(2, "keyword")).unwrap_err();
        assert!(
            matches!(err, XtractError::LeaseFenced { held, current, .. }
                if held == zombie_lease.epoch() && current == usurped),
            "{err}"
        );
        let err = log.append_torn(&step(3, "keyword")).unwrap_err();
        assert!(matches!(err, XtractError::LeaseFenced { .. }), "{err}");
        let err = log.begin_compaction(&[step(4, "keyword")]).unwrap_err();
        assert!(matches!(err, XtractError::LeaseFenced { .. }), "{err}");
        assert_eq!(
            std::fs::metadata(segment_path(&dir, 0)).unwrap().len(),
            seg_len,
            "a fenced write must not land a single byte"
        );
        // The zombie's release must not clobber the successor's fence.
        drop(zombie_lease);
        let after = std::fs::read_to_string(dir.join("wal.lease")).unwrap();
        assert!(after.contains(&format!("\"epoch\":{usurped}")), "{after}");
        // And the adopted log replays only what landed before the fence.
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.records, vec![step(1, "keyword")]);
    }

    #[test]
    fn family_migrated_round_trips_and_is_side_symmetric() {
        use xtract_types::Group;
        let dir = tempdir("migrate");
        let policy = RecoveryPolicy::default();
        let family = Family::new(
            FamilyId::new(5),
            Vec::new(),
            vec![Group::new(xtract_types::GroupId::new(1), Vec::new())],
            EndpointId::new(0),
        );
        let out = RecoveryRecord::FamilyMigrated {
            family: family.clone(),
            from: 1,
            to: 0,
            adopted: false,
            steps: vec![MigratedStep {
                kind: ExtractorKind::Keyword,
                metadata: Arc::new(md("kw")),
                discoveries: vec![("/data/a.csv".into(), FileType::Tabular)],
            }],
            charges: 2,
        };
        let RecoveryRecord::FamilyMigrated {
            family: f2,
            adopted,
            ..
        } = out.clone()
        else {
            unreachable!()
        };
        let inr = RecoveryRecord::FamilyMigrated {
            family: f2,
            from: 1,
            to: 0,
            adopted: !adopted,
            steps: vec![MigratedStep {
                kind: ExtractorKind::Keyword,
                metadata: Arc::new(md("kw")),
                discoveries: vec![("/data/a.csv".into(), FileType::Tabular)],
            }],
            charges: 2,
        };
        let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
        log.append_batch(&[out.clone(), inr.clone()]).unwrap();
        drop(log);
        let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
        assert_eq!(replay.records, vec![out, inr]);
        assert_eq!(replay.records[0], replay.records[1].clone().flip_side());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn one_endpoint_spec() -> JobSpec {
        use xtract_types::{ContainerRuntime, EndpointSpec};
        let ep = EndpointSpec {
            endpoint: EndpointId::new(0),
            read_path: "/data".into(),
            store_path: Some("/tmp/x".into()),
            available_bytes: 1 << 30,
            workers: Some(2),
            runtime: ContainerRuntime::Docker,
        };
        JobSpec::single_endpoint(ep, "/data")
    }

    #[test]
    fn spec_fingerprint_ignores_the_fault_plan() {
        use xtract_types::FaultPlan;
        let spec = one_endpoint_spec();
        let base = spec_fingerprint(&spec);
        let mut chaotic = spec.clone();
        chaotic.fault_plan = Some(FaultPlan::new(17));
        // The crash schedule is instrumentation, not identity.
        assert_eq!(spec_fingerprint(&chaotic), base);
        let mut other = spec.clone();
        other.max_family_size = spec.max_family_size + 1;
        assert_ne!(spec_fingerprint(&other), base);
    }

    #[test]
    fn a_spec_that_still_carries_retired_knobs_is_the_same_job() {
        let spec = one_endpoint_spec();
        // Written while these were settable fields; they are constants of
        // `engine`, `adaptive` and `transport` now and the keys are ignored.
        let mut json = serde_json::to_value(&spec).unwrap();
        for (block, key, value) in [
            ("hedge", "latency_quantile", 0.5),
            ("hedge", "deadline_multiplier", 9.0),
            ("adaptive", "xtract_ceiling", 4.0),
            ("adaptive", "backoff", 0.9),
            ("shard", "heartbeat_ms", 7.0),
            ("shard", "heartbeat_timeout_ms", 70.0),
        ] {
            json[block]
                .as_object_mut()
                .unwrap()
                .insert(key.into(), value.into());
        }
        let back: JobSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(spec_fingerprint(&back), spec_fingerprint(&spec));
    }

    // -- proptest: records through JSON and through the log -------------

    fn arb_metadata() -> impl Strategy<Value = Metadata> {
        proptest::collection::vec(("[a-z]{1,8}", -1000i64..1000), 0..4).prop_map(|pairs| {
            let mut m = Metadata::new();
            for (k, v) in pairs {
                m.insert(k, v);
            }
            m
        })
    }

    fn arb_reason() -> impl Strategy<Value = FailureReason> {
        prop_oneof![
            "[a-z ]{0,12}".prop_map(|reason| FailureReason::Internal { reason }),
            (0u64..8).prop_map(|e| FailureReason::NoHealthyEndpoint {
                endpoint: EndpointId::new(e)
            }),
            ("[a-z]{1,6}", "[a-z ]{0,12}").prop_map(|(schema, reason)| {
                FailureReason::ValidationRejected { schema, reason }
            }),
        ]
    }

    fn arb_dead_letter() -> impl Strategy<Value = DeadLetter> {
        (
            0u64..64,
            arb_reason(),
            0u32..50,
            proptest::collection::vec((0u64..9, 0u64..4, "[a-z ]{0,10}"), 0..3),
        )
            .prop_map(|(family, reason, attempts, events)| {
                let mut letter = DeadLetter::new(FamilyId::new(family), reason, attempts);
                letter.timeline = events
                    .into_iter()
                    .map(|(wave, ep, note)| xtract_types::FailureEvent {
                        wave,
                        endpoint: EndpointId::new(ep),
                        note,
                    })
                    .collect();
                letter
            })
    }

    /// Steps and dead letters, the two payload-carrying records: extractor
    /// kinds from the real taxonomy, families and letters repeating freely
    /// (the log is a journal, not a table).
    fn arb_records() -> impl Strategy<Value = Vec<RecoveryRecord>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..64, 0usize..ExtractorKind::ALL.len(), arb_metadata()).prop_map(
                    |(family, kind, metadata)| RecoveryRecord::StepCompleted {
                        family: FamilyId::new(family),
                        kind: ExtractorKind::ALL[kind],
                        metadata: Arc::new(metadata),
                        discoveries: Vec::new(),
                    }
                ),
                arb_dead_letter().prop_map(|letter| RecoveryRecord::DeadLettered { letter }),
            ],
            0..16,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn records_roundtrip_through_json(records in arb_records()) {
            let json = serde_json::to_vec(&records).unwrap();
            let back: Vec<RecoveryRecord> = serde_json::from_slice(&json).unwrap();
            prop_assert_eq!(back, records);
        }

        #[test]
        fn records_roundtrip_through_the_log(records in arb_records(), seg in 64u64..4096) {
            let dir = tempdir("prop-log");
            let policy = RecoveryPolicy { segment_bytes: seg, ..RecoveryPolicy::default() };
            {
                let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
                log.append_batch(&records).unwrap();
            }
            let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
            prop_assert_eq!(replay.truncated_records, 0);
            prop_assert_eq!(replay.records, records);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn any_damage_scans_exactly_like_the_serial_reader(
            at in 0usize..1_000_000,
            bit in 0u8..8,
            cut in any::<bool>(),
        ) {
            let segment = big_segment();
            let at = at % segment.0.len();
            assert_scans_agree(segment, if cut { Damage::Cut(at) } else { Damage::Flip(at, bit) });
        }

        #[test]
        fn torn_tail_recovers_every_record_before_the_tear(
            records in arb_records(),
            torn_family in 0u64..64,
        ) {
            let dir = tempdir("prop-torn");
            let policy = RecoveryPolicy::default();
            {
                let (log, _) = RecoveryLog::open(&dir, policy).unwrap();
                log.append_batch(&records).unwrap();
                log.append_torn(&step(torn_family, "torn")).unwrap();
            }
            let (_, replay) = RecoveryLog::open(&dir, policy).unwrap();
            prop_assert_eq!(replay.truncated_records, 1);
            prop_assert_eq!(replay.records, records);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
