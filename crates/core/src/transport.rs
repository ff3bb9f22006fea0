//! Cross-process shard workers: the coordinator wire protocol.
//!
//! [`crate::shard`] scales one job across N wave loops and supervises
//! them; its own launcher runs them *in one process*. This module is the
//! other launcher: it moves each wave loop into its own OS process and
//! hands the same supervisor ([`ShardedJob::supervise`]) the workers'
//! exits. The coordinator (the process that ran the crawl and owns the root
//! WAL) listens on a Unix domain socket inside the WAL directory
//! (`wal/coord.sock`); each worker process runs `run_worker`, claims
//! its shard's WAL under a fencing lease, and speaks the seven
//! [`ShardLink`] verbs over length-prefixed CRC32-framed JSON — the
//! same framing discipline the WAL itself uses, so a torn or corrupt
//! frame is detected, never trusted.
//!
//! **Reports.** A worker that finishes sends `Finished` and then its
//! [`JobReport`] in a frame of its own. The coordinator's connection
//! handler checks that frame's CRC and hands the bytes, undecoded, to the
//! supervisor's thread, which decodes the reports one at a time — it is
//! the thread that merges and returns them. The coordinator's peak memory is then
//! the reports it holds plus one decode's transient, whether the workers
//! finish together or apart; a report that is whole on the wire and does
//! not decode is handled as a worker that never reported.
//!
//! **Lease-fenced ownership.** In-process custody dies with the thread
//! that holds it; a killed *process* can leave a zombie child or a
//! half-written WAL behind. Every shard WAL is therefore owned through
//! an epoch-numbered lease file ([`LogDirLease`]): the worker pins its
//! open log to its lease epoch, and every group commit re-reads the
//! lease and refuses to write a single byte under a superseded epoch.
//! When the coordinator declares a worker dead it *preempts* the lease
//! (bumping the epoch) before adopting the WAL, so the dead worker's
//! straggling writes — if the process is in fact still alive — are
//! rejected at the commit boundary, not discovered later as
//! interleaved corruption.
//!
//! **Death detection.** A running worker heartbeats on a background
//! pinger every [`HEARTBEAT`]; the coordinator's monitor
//! parks in [`ShardCoordinator::await_timeout`] and declares any
//! *running* slot dead once its last beat ages past
//! [`HEARTBEAT_TIMEOUT`]. Idle workers are exempt — they park inside
//! a blocking `IdleWait` RPC — and their death surfaces as the
//! connection's EOF instead. Either way the supervisor hears a
//! [`ShardExit::Died`] and does what it does for a dead thread: fences
//! the WAL, replays it, and migrates every non-terminal family to a
//! survivor.
//!
//! **Coordinator crash recovery.** The coordinator's custody view is in
//! the root WAL: a [`RecoveryRecord::ShardEpoch`] per admission (here)
//! and fencing (the supervisor; the floor the next worker's lease must
//! exceed) and a [`RecoveryRecord::CustodyMoved`] per brokered
//! hand-over (the `Deliver` handler here, adoptions in the supervisor) (the chain-walk hint for migrations that crashed between
//! the donor's out-record and the recipient's in-record). A restarted
//! coordinator replays both, fences every shard WAL above any epoch a
//! zombie might still hold, repairs half-finished hand-overs, and
//! re-admits fresh workers — while orphaned workers of the previous
//! incarnation exit on their next RPC (socket EOF) or group commit
//! (lease fenced), whichever fires first.

use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use xtract_datafabric::{AuthService, DataFabric, LocalFs, MemFs, Scope, Token};
use xtract_obs::{Counter, Event, Obs};
use xtract_types::config::ContainerRuntime;
use xtract_types::{
    EndpointId, EndpointSpec, FamilyId, GroupingStrategy, JobSpec, Result, XtractError,
};

use crate::recovery::{crc32, LogDirLease, RecoveryRecord};
use crate::service::{JobReport, XtractService};
use crate::shard::{
    prepare_root, resolve_and_seed, run_shard, sub_spec_for, IdleVerdict, Migrant, RootPlan,
    ShardCoordinator, ShardExit, ShardLink, ShardedJob, StealRequest,
};

/// The coordinator's listening socket, rooted in the WAL directory so
/// one job's workers can never dial another job's coordinator.
pub const COORD_SOCK: &str = "coord.sock";

/// The serialized [`WorldSpec`] workers bootstrap their service from.
pub const PROC_JOB_FILE: &str = "proc-job.json";

/// Frames larger than this are rejected as corrupt rather than
/// allocated: a garbage length prefix must not OOM the peer.
const MAX_FRAME: usize = 64 << 20;

/// Interval between a shard worker's background heartbeat pings to the
/// coordinator. In-process runs heartbeat at wave boundaries instead.
const HEARTBEAT: Duration = Duration::from_millis(25);
/// A *running* worker whose last heartbeat is older than this is declared
/// dead and its WAL is fenced and adopted. Idle workers are exempt (they
/// park in a blocking `IdleWait` RPC and their death is caught by socket
/// EOF instead).
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(2_000);

fn tfail(reason: impl Into<String>) -> XtractError {
    XtractError::TransportFailed {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Framing: [len u32 LE][crc32 u32 LE][payload], the WAL's own discipline.
// ---------------------------------------------------------------------

fn write_frame(stream: &mut UnixStream, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(tfail(format!(
            "frame of {} bytes exceeds cap",
            payload.len()
        )));
    }
    let mut buf = Vec::with_capacity(payload.len() + 8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    stream
        .write_all(&buf)
        .map_err(|e| tfail(format!("socket write: {e}")))
}

fn read_frame(stream: &mut UnixStream) -> Result<Vec<u8>> {
    let mut head = [0u8; 8];
    stream
        .read_exact(&mut head)
        .map_err(|e| tfail(format!("socket read: {e}")))?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > MAX_FRAME {
        return Err(tfail(format!("frame length {len} exceeds cap")));
    }
    let mut payload = vec![0u8; len];
    stream
        .read_exact(&mut payload)
        .map_err(|e| tfail(format!("socket read: {e}")))?;
    if crc32(&payload) != crc {
        return Err(tfail("frame crc mismatch"));
    }
    Ok(payload)
}

fn decode<T: serde::de::DeserializeOwned>(payload: &[u8]) -> Result<T> {
    serde_json::from_slice(payload).map_err(|e| tfail(format!("decode: {e}")))
}

/// One framed, counted connection end. Every send/recv bumps the
/// `transport.*` counters so a run's chattiness is observable; the two
/// cells are interned once per connection, not once per frame.
struct Framed {
    stream: UnixStream,
    frames_sent: Counter,
    frames_recv: Counter,
}

impl Framed {
    fn new(stream: UnixStream, obs: &Obs) -> Self {
        Self {
            stream,
            frames_sent: obs.hub.counter("transport.frames_sent"),
            frames_recv: obs.hub.counter("transport.frames_recv"),
        }
    }

    fn send<T: Serialize>(&mut self, msg: &T) -> Result<()> {
        let payload = serde_json::to_vec(msg).map_err(|e| tfail(format!("encode: {e}")))?;
        write_frame(&mut self.stream, &payload)?;
        self.frames_sent.add(1);
        Ok(())
    }

    fn recv<T: serde::de::DeserializeOwned>(&mut self) -> Result<T> {
        decode(&self.recv_raw()?)
    }

    /// One CRC-checked frame, left undecoded for whoever should pay for
    /// decoding it.
    fn recv_raw(&mut self) -> Result<Vec<u8>> {
        let payload = read_frame(&mut self.stream)?;
        self.frames_recv.add(1);
        Ok(payload)
    }
}

// ---------------------------------------------------------------------
// Wire messages.
// ---------------------------------------------------------------------

/// Worker → coordinator. The shard index is implicit after `Hello`
/// binds the connection.
#[derive(Debug, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum WorkerMsg {
    /// Handshake: the worker claims `shard` under lease `epoch`.
    /// Admission requires the epoch to exceed every epoch the
    /// coordinator has seen for the shard — a zombie re-presenting a
    /// fenced epoch is refused before it can touch coordinator state.
    Hello { shard: usize, pid: u32, epoch: u64 },
    /// Liveness + load: wave number and non-terminal family count.
    Heartbeat { wave: u64, pending: u64 },
    /// Drain delivered migrants (stay in custody until `Ack`).
    Drain,
    /// In-records for these adopted families are durable.
    Ack { families: Vec<FamilyId> },
    /// Take the shard's pending steal directive, if any.
    TakeSteal,
    /// Hand a migrant to shard `to` (out-record already durable).
    Deliver { to: usize, migrant: Migrant },
    /// Park until migrants arrive or the whole run is drained.
    IdleWait,
    /// The wave loop completed; the WAL lease is already released. The
    /// worker's [`JobReport`] follows in a frame of its own, which the
    /// connection handler passes on undecoded (see [`Ev::Finished`]).
    Finished,
    /// The wave loop failed terminally (not a scheduled kill).
    Failed { error: XtractError },
}

/// Coordinator → worker replies.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) enum CoordMsg {
    /// Admission granted under the worker's lease epoch.
    Welcome { epoch: u64 },
    /// Bare acknowledgement.
    Ok,
    /// Reply to `Drain`.
    Migrants { migrants: Vec<Migrant> },
    /// Reply to `TakeSteal`.
    Steal { steal: Option<StealRequest> },
    /// Reply to `IdleWait`: adopt (false) or break out (true).
    Idle { finished: bool },
    /// The worker's epoch is stale: it was fenced and must exit. Sent
    /// in place of any other reply once the coordinator has moved on.
    Fenced { epoch: u64 },
}

// ---------------------------------------------------------------------
// Worker side: ShardClient (the socket-backed ShardLink) + run_worker.
// ---------------------------------------------------------------------

struct PingState {
    wave: u64,
    pending: u64,
    stop: bool,
}

/// The worker's connection to its coordinator: a mutex-serialized RPC
/// channel plus a background pinger that re-sends the last wave-top
/// heartbeat every [`HEARTBEAT`], so a worker deep inside a long wave
/// still reads as alive. Implements [`ShardLink`], so the wave loop is
/// byte-for-byte the in-process one.
pub(crate) struct ShardClient {
    shard: usize,
    epoch: u64,
    conn: Arc<Mutex<Framed>>,
    ping: Arc<(Mutex<PingState>, Condvar)>,
    pinger: Option<std::thread::JoinHandle<()>>,
}

impl ShardClient {
    fn start(shard: usize, epoch: u64, conn: Arc<Mutex<Framed>>) -> Self {
        let ping = Arc::new((
            Mutex::new(PingState {
                wave: 0,
                pending: 0,
                stop: false,
            }),
            Condvar::new(),
        ));
        let pinger = {
            let conn = Arc::clone(&conn);
            let ping = Arc::clone(&ping);
            std::thread::spawn(move || loop {
                let (wave, pending) = {
                    let (lock, cv) = &*ping;
                    let mut st = lock.lock();
                    if st.stop {
                        return;
                    }
                    cv.wait_for(&mut st, HEARTBEAT);
                    if st.stop {
                        return;
                    }
                    (st.wave, st.pending)
                };
                // While the main thread is parked in a blocking
                // `IdleWait` RPC it holds the connection, and the slot
                // is timeout-exempt anyway; we just queue behind it.
                let mut framed = conn.lock();
                if framed
                    .send(&WorkerMsg::Heartbeat { wave, pending })
                    .is_err()
                {
                    return;
                }
                if framed.recv::<CoordMsg>().is_err() {
                    return;
                }
            })
        };
        Self {
            shard,
            epoch,
            conn,
            ping,
            pinger: Some(pinger),
        }
    }

    fn rpc(&self, msg: &WorkerMsg) -> Result<CoordMsg> {
        let mut framed = self.conn.lock();
        framed.send(msg)?;
        let reply: CoordMsg = framed.recv()?;
        if let CoordMsg::Fenced { epoch } = reply {
            return Err(XtractError::LeaseFenced {
                dir: format!("shard-{}", self.shard),
                held: self.epoch,
                current: epoch,
            });
        }
        Ok(reply)
    }

    /// Stops the pinger. Must run before `Finished`/`Failed` goes out:
    /// a straggling ping after the terminal message would re-mark the
    /// slot running on the coordinator.
    fn shutdown(&mut self) {
        {
            let (lock, cv) = &*self.ping;
            lock.lock().stop = true;
            cv.notify_all();
        }
        if let Some(h) = self.pinger.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ShardClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ShardLink for ShardClient {
    fn shard(&self) -> usize {
        self.shard
    }

    fn heartbeat(&self, wave: u64, pending: u64) -> Result<()> {
        {
            let (lock, _) = &*self.ping;
            let mut st = lock.lock();
            st.wave = wave;
            st.pending = pending;
        }
        match self.rpc(&WorkerMsg::Heartbeat { wave, pending })? {
            CoordMsg::Ok => Ok(()),
            other => Err(tfail(format!("unexpected reply to heartbeat: {other:?}"))),
        }
    }

    fn drain(&self) -> Result<Vec<Migrant>> {
        match self.rpc(&WorkerMsg::Drain)? {
            CoordMsg::Migrants { migrants } => Ok(migrants),
            other => Err(tfail(format!("unexpected reply to drain: {other:?}"))),
        }
    }

    fn ack(&self, families: &[FamilyId]) -> Result<()> {
        match self.rpc(&WorkerMsg::Ack {
            families: families.to_vec(),
        })? {
            CoordMsg::Ok => Ok(()),
            other => Err(tfail(format!("unexpected reply to ack: {other:?}"))),
        }
    }

    fn take_steal(&self) -> Result<Option<StealRequest>> {
        match self.rpc(&WorkerMsg::TakeSteal)? {
            CoordMsg::Steal { steal } => Ok(steal),
            other => Err(tfail(format!("unexpected reply to take_steal: {other:?}"))),
        }
    }

    fn deliver(&self, to: usize, migrant: Migrant) -> Result<()> {
        match self.rpc(&WorkerMsg::Deliver { to, migrant })? {
            CoordMsg::Ok => Ok(()),
            other => Err(tfail(format!("unexpected reply to deliver: {other:?}"))),
        }
    }

    fn idle_wait(&self) -> Result<IdleVerdict> {
        match self.rpc(&WorkerMsg::IdleWait)? {
            CoordMsg::Idle { finished: false } => Ok(IdleVerdict::Adopt),
            CoordMsg::Idle { finished: true } => Ok(IdleVerdict::Finished),
            other => Err(tfail(format!("unexpected reply to idle_wait: {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------
// World bootstrap: the spec a worker process rebuilds its service from.
// ---------------------------------------------------------------------

/// Everything a worker process needs to reconstruct the coordinator's
/// world: the on-disk corpus root, the service seed, and the full job
/// spec (fault plan included — each worker slices out its own kill
/// schedule). Serialized to `wal/proc-job.json` by the coordinator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldSpec {
    /// Directory the `LocalFs` endpoint serves.
    pub data_dir: PathBuf,
    /// Service RNG seed — identical across coordinator and workers so
    /// simulation-mode substrates roll the same dice.
    pub seed: u64,
    /// The job, shard policy and all.
    pub spec: JobSpec,
}

impl WorldSpec {
    /// The CLI's standard extraction world over a real directory:
    /// `LocalFs` corpus on endpoint 0, in-memory results endpoint 1,
    /// MDF validation, materials-aware grouping. `shards == 0` leaves
    /// the shard policy disabled (the unsharded baseline shape).
    pub fn standard(data_dir: impl Into<PathBuf>, workers: usize, shards: usize) -> Self {
        let ep = EndpointId::new(0);
        let results_ep = EndpointId::new(1);
        let mut spec = JobSpec::single_endpoint(
            EndpointSpec {
                endpoint: ep,
                read_path: "/".into(),
                store_path: Some("/.xtract-stage".into()),
                available_bytes: u64::MAX / 4,
                workers: Some(workers),
                runtime: ContainerRuntime::Docker,
            },
            "/",
        );
        spec.endpoints.push(EndpointSpec {
            endpoint: results_ep,
            read_path: "/".into(),
            store_path: Some("/".into()),
            available_bytes: u64::MAX / 4,
            workers: None,
            runtime: ContainerRuntime::Docker,
        });
        spec.results_endpoint = Some(results_ep);
        spec.validation = xtract_types::ValidationSchema::Mdf("mdf-generic".into());
        spec.grouping = GroupingStrategy::MaterialsAware;
        if shards > 0 {
            spec.shard = xtract_types::ShardPolicy::sharded(shards);
        }
        Self {
            data_dir: data_dir.into(),
            seed: 0xC11,
            spec,
        }
    }

    /// Reads a serialized world from `path`.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes =
            std::fs::read(path).map_err(|e| tfail(format!("read {}: {e}", path.display())))?;
        serde_json::from_slice(&bytes).map_err(|e| tfail(format!("parse {}: {e}", path.display())))
    }

    /// Writes the world to `path` for workers to bootstrap from.
    pub fn store(&self, path: &Path) -> Result<()> {
        let json =
            serde_json::to_vec_pretty(self).map_err(|e| tfail(format!("encode world: {e}")))?;
        std::fs::write(path, json).map_err(|e| tfail(format!("write {}: {e}", path.display())))
    }
}

/// Builds the service + token for a [`WorldSpec`]: each process — the
/// coordinator and every worker — constructs its own identical copy.
pub fn build_world_service(world: &WorldSpec) -> Result<(XtractService, Token)> {
    let fabric = Arc::new(DataFabric::new());
    let ep = world.spec.endpoints[0].endpoint;
    fabric.register(ep, "local", Arc::new(LocalFs::new(ep, &world.data_dir)?));
    if let Some(results_ep) = world.spec.results_endpoint {
        fabric.register(results_ep, "results", Arc::new(MemFs::new(results_ep)));
    }
    let auth = Arc::new(AuthService::new());
    let token = auth.login(
        "proc-shard",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    );
    let service = XtractService::new(fabric, auth, world.seed);
    service.connect_endpoint(&world.spec.endpoints[0])?;
    Ok((service, token))
}

// ---------------------------------------------------------------------
// Worker entry point.
// ---------------------------------------------------------------------

/// Dies the way a SIGKILL would: no unwinding, no destructors — the
/// lease file is left claiming this pid. Used when a scheduled chaos
/// kill fires, so cross-process kill tests exercise the exact zombie
/// path a real `kill -9` produces.
fn die_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    // If kill(1) is unavailable, abort still skips destructors.
    std::process::abort();
}

/// One cross-process shard worker: claims `root/shard-{k}` under a
/// fencing lease, dials `root/coord.sock`, and runs the shard's wave
/// loop against its own WAL until the coordinator says the run is
/// drained. The CLI's `shard-worker` subcommand is a thin wrapper.
pub fn run_worker(root: &Path, shard: usize) -> Result<()> {
    let world = WorldSpec::load(&root.join(PROC_JOB_FILE))?;
    let (service, token) = build_world_service(&world)?;
    let sd = root.join(format!("shard-{shard}"));
    let lease = LogDirLease::acquire(&sd)?;
    let stream = UnixStream::connect(root.join(COORD_SOCK))
        .map_err(|e| tfail(format!("connect coordinator: {e}")))?;
    let conn = Arc::new(Mutex::new(Framed::new(stream, &service.obs)));

    // Hello/Welcome before the WAL is touched: a refused worker must
    // leave no trace.
    let reply: CoordMsg = {
        let mut framed = conn.lock();
        framed.send(&WorkerMsg::Hello {
            shard,
            pid: std::process::id(),
            epoch: lease.epoch(),
        })?;
        framed.recv()?
    };
    match reply {
        CoordMsg::Welcome { epoch } if epoch == lease.epoch() => {}
        CoordMsg::Welcome { epoch } => {
            return Err(tfail(format!(
                "coordinator admitted epoch {epoch}, lease holds {}",
                lease.epoch()
            )))
        }
        CoordMsg::Fenced { epoch } => {
            return Err(XtractError::LeaseFenced {
                dir: sd.display().to_string(),
                held: lease.epoch(),
                current: epoch,
            })
        }
        other => return Err(tfail(format!("expected Welcome, got {other:?}"))),
    }

    let sub_spec = sub_spec_for(&world.spec, shard);
    if let Some(plan) = &sub_spec.fault_plan {
        service.arm_faults(plan);
    }
    let mut client = ShardClient::start(shard, lease.epoch(), Arc::clone(&conn));
    let result = run_shard(&service, token, &sub_spec, &sd, &lease, None, &client);
    client.shutdown();
    // A scheduled chaos kill: the in-process launcher turns this error
    // into the shard's exit; a real worker process dies for real, its
    // lease still claiming this pid.
    if let Err(XtractError::OrchestratorKilled { .. }) = result {
        die_hard();
    }
    // Release the lease before announcing anything: the coordinator may
    // immediately take the WAL over to redistribute custody leftovers the
    // wave loop will never drain.
    drop(lease);
    let mut framed = conn.lock();
    match result {
        Ok(report) => {
            framed.send(&WorkerMsg::Finished)?;
            framed.send(&report)?;
            let _ = framed.recv::<CoordMsg>();
            Ok(())
        }
        Err(e) => {
            let _ = framed.send(&WorkerMsg::Failed { error: e.clone() });
            let _ = framed.recv::<CoordMsg>();
            Err(e)
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------

/// How the coordinator launches a worker process: `program args...
/// --root DIR --shard K`. The CLI re-invokes itself as `shard-worker`.
#[derive(Debug, Clone)]
pub struct WorkerCmd {
    /// The worker executable.
    pub program: PathBuf,
    /// Leading arguments (e.g. the `shard-worker` subcommand).
    pub args: Vec<String>,
}

impl WorkerCmd {
    /// The current executable re-invoked with `args` — the CLI's own
    /// spawn shape, also what integration tests use via
    /// `CARGO_BIN_EXE_*`.
    pub fn current_exe(args: Vec<String>) -> Result<Self> {
        let program = std::env::current_exe().map_err(|e| tfail(format!("current_exe: {e}")))?;
        Ok(Self { program, args })
    }
}

/// What the connection handlers and the heartbeat monitor funnel to the
/// supervisor's thread, which turns each into a [`ShardExit`] there: a
/// shard, its worker's admission time on the coordinator's clock, and the
/// worker's report frame or why none will come. The frame is still
/// encoded. The supervisor's thread decodes it: one report at a time
/// however many workers finish together, and on the thread that will
/// merge and return the records, so a report's allocations do not land in
/// whichever allocator arena a short-lived handler thread happened to be
/// given (DESIGN.md, "Wire protocol").
type Ev = (usize, f64, Result<Vec<u8>>);

/// Serves one worker connection: admission (epoch check against the
/// fencing floor), then the RPC loop dispatching into the shared
/// [`ShardCoordinator`]. Every message re-checks the shard's admitted
/// epoch, so a worker fenced mid-run gets `Fenced` on its next verb
/// instead of silently mutating coordinator state.
fn serve_connection(
    stream: UnixStream,
    job: &ShardedJob,
    admissions: &Mutex<Vec<u64>>,
    started: Instant,
    tx: &mpsc::Sender<Ev>,
) {
    let (coordinator, root_log, obs) = (&job.coordinator, job.root, &job.service.obs);
    let mut framed = Framed::new(stream, obs);
    let Ok(first) = framed.recv::<WorkerMsg>() else {
        return;
    };
    let WorkerMsg::Hello { shard, pid, epoch } = first else {
        let _ = framed.send(&CoordMsg::Fenced { epoch: 0 });
        return;
    };
    if shard >= job.layout.shard_dirs.len() {
        let _ = framed.send(&CoordMsg::Fenced { epoch: 0 });
        return;
    }
    let my_epoch = {
        let mut adm = admissions.lock();
        if epoch <= adm[shard] {
            // A zombie of a fenced incarnation (or a replayed epoch):
            // refused at the door.
            let cur = adm[shard];
            drop(adm);
            obs.hub.counter("transport.fenced").add(1);
            let _ = framed.send(&CoordMsg::Fenced { epoch: cur });
            return;
        }
        adm[shard] = epoch;
        epoch
    };
    let offset = started.elapsed().as_secs_f64();
    // Journal the admitted epoch before welcoming: a coordinator that
    // dies right after this line still fences the next incarnation's
    // workers above this worker's epoch.
    let _ = root_log.append(&RecoveryRecord::ShardEpoch {
        shard: shard as u64,
        epoch: my_epoch,
    });
    obs.journal.record(Event::WorkerAdmitted {
        shard: shard as u64,
        pid: u64::from(pid),
        epoch: my_epoch,
    });
    if framed.send(&CoordMsg::Welcome { epoch: my_epoch }).is_err() {
        let _ = tx.send((
            shard,
            offset,
            Err(tfail("connection severed during admission")),
        ));
        return;
    }
    let mut clean = false;
    while let Ok(msg) = framed.recv::<WorkerMsg>() {
        {
            let adm = admissions.lock();
            if adm[shard] != my_epoch {
                let cur = adm[shard];
                drop(adm);
                obs.hub.counter("transport.fenced").add(1);
                let _ = framed.send(&CoordMsg::Fenced { epoch: cur });
                // No Lost event for a fenced zombie: whoever fenced it
                // already owns the shard's story.
                clean = true;
                break;
            }
        }
        let reply = match msg {
            WorkerMsg::Heartbeat { wave, pending } => {
                coordinator.heartbeat(shard, wave, pending);
                CoordMsg::Ok
            }
            WorkerMsg::Drain => CoordMsg::Migrants {
                migrants: coordinator.drain(shard),
            },
            WorkerMsg::Ack { families } => {
                coordinator.ack(shard, &families);
                CoordMsg::Ok
            }
            WorkerMsg::TakeSteal => CoordMsg::Steal {
                steal: coordinator.take_steal(shard),
            },
            WorkerMsg::Deliver { to, migrant } => {
                // Journal the brokered placement before the hand-over:
                // a restarted coordinator replays these as chain-walk
                // hints for migrations with no surviving in-record.
                let _ = root_log.append(&RecoveryRecord::CustodyMoved {
                    family: migrant.family.id,
                    from: migrant.from,
                    to: to as u64,
                });
                coordinator.deliver(to, migrant);
                CoordMsg::Ok
            }
            WorkerMsg::IdleWait => match coordinator.idle_wait(shard) {
                IdleVerdict::Adopt => CoordMsg::Idle { finished: false },
                IdleVerdict::Finished => CoordMsg::Idle { finished: true },
            },
            WorkerMsg::Finished => {
                // A report that never arrives whole is a severed worker.
                if let Ok(report) = framed.recv_raw() {
                    let _ = framed.send(&CoordMsg::Ok);
                    let _ = tx.send((shard, offset, Ok(report)));
                    clean = true;
                }
                break;
            }
            WorkerMsg::Failed { error } => {
                let _ = framed.send(&CoordMsg::Ok);
                let _ = tx.send((shard, offset, Err(error)));
                clean = true;
                break;
            }
            WorkerMsg::Hello { .. } => CoordMsg::Fenced { epoch: my_epoch },
        };
        if framed.send(&reply).is_err() {
            break;
        }
    }
    if !clean {
        let _ = tx.send((shard, offset, Err(tfail("connection severed"))));
    }
}

/// Runs `world.spec` across `shards` worker *processes*, each spawned
/// via `worker` and owning `dir/shard-{k}` under a fencing lease. The
/// coordinator process runs the crawl, seeds the shard WALs, brokers
/// stealing and migration over `dir/coord.sock`, turns worker death
/// (heartbeat timeout or socket EOF) and worker reports into the exits
/// [`ShardedJob::supervise`] decides on, and journals admissions +
/// hand-overs to the root WAL so a killed coordinator can itself be
/// restarted against the same `dir`.
pub fn run_proc_sharded(
    service: &XtractService,
    // The coordinator never runs a wave loop itself; workers mint their
    // own tokens in their own processes. Kept for call-shape symmetry
    // with the in-process entry points.
    _token: Token,
    world: &WorldSpec,
    dir: &Path,
    worker: &WorkerCmd,
) -> Result<JobReport> {
    let spec = &world.spec;
    spec.validate()
        .map_err(|reason| XtractError::InvalidJob { reason })?;
    if !spec.shard.enabled {
        return Err(XtractError::InvalidJob {
            reason: "run_proc_sharded needs an enabled shard policy".into(),
        });
    }
    let shards = spec.shard.shards;
    let started = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| tfail(format!("create {}: {e}", dir.display())))?;

    let root_lease = LogDirLease::acquire(dir)?;
    let RootPlan {
        root,
        mut report,
        plan,
        custody,
    } = prepare_root(service, spec, dir, started)?;
    root.log.set_fence(&root_lease);

    // Fence first, ask questions later: bump every shard WAL's lease
    // epoch past any prior incarnation — a zombie worker orphaned by a
    // killed coordinator may still be extracting into it — journal the
    // new floor to the root WAL, then release (epoch preserved) so the
    // fresh worker can claim the next epoch. Admissions the previous
    // incarnation recorded are covered too: `preempt` bumps past
    // whatever is on disk.
    let mut floors: Vec<u64> = Vec::with_capacity(shards);
    let mut fence_batch: Vec<RecoveryRecord> = Vec::with_capacity(shards);
    for k in 0..shards {
        let sd = dir.join(format!("shard-{k}"));
        let l = LogDirLease::preempt(&sd)?;
        if l.epoch() > 1 {
            service.obs.journal.record(Event::ShardFenced {
                shard: k as u64,
                epoch: l.epoch(),
            });
            service.obs.hub.counter("transport.fenced").add(1);
        }
        fence_batch.push(RecoveryRecord::ShardEpoch {
            shard: k as u64,
            epoch: l.epoch(),
        });
        floors.push(l.epoch());
    }
    root.log.append_batch(&fence_batch)?;

    let layout = resolve_and_seed(service, spec, dir, plan, &custody)?;

    world.store(&dir.join(PROC_JOB_FILE))?;
    let sock_path = dir.join(COORD_SOCK);
    let _ = std::fs::remove_file(&sock_path);
    let listener = UnixListener::bind(&sock_path)
        .map_err(|e| tfail(format!("bind {}: {e}", sock_path.display())))?;

    let job = ShardedJob::new(service, spec, &root.log, &layout);
    let admissions: Mutex<Vec<u64>> = Mutex::new(floors);
    let stop = AtomicBool::new(false);

    let mut children: Vec<Child> = Vec::new();
    for k in 0..shards {
        let child = Command::new(&worker.program)
            .args(&worker.args)
            .arg("--root")
            .arg(dir)
            .arg("--shard")
            .arg(k.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| tfail(format!("spawn worker {k}: {e}")))?;
        let _ = std::fs::write(dir.join(format!("worker-{k}.pid")), child.id().to_string());
        children.push(child);
    }

    let scope_result = std::thread::scope(|scope| -> Result<()> {
        let (tx, rx) = mpsc::channel::<Ev>();

        // Accept loop: one handler thread per connection.
        {
            let tx = tx.clone();
            let (listener, stop, job, admissions) = (&listener, &stop, &job, &admissions);
            scope.spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let tx = tx.clone();
                    scope.spawn(move || serve_connection(stream, job, admissions, started, &tx));
                }
            });
        }

        // Heartbeat monitor: running slots whose last beat aged past
        // the budget are reported lost. Already-reported slots are muted
        // until the supervisor marks them dead, so the monitor cannot
        // busy-loop on a death still being processed.
        {
            let tx = tx.clone();
            let coordinator = &job.coordinator;
            scope.spawn(move || {
                let mut reported: Vec<usize> = Vec::new();
                loop {
                    let expired = coordinator.await_timeout(HEARTBEAT_TIMEOUT, &reported);
                    if expired.is_empty() {
                        return;
                    }
                    for k in expired {
                        reported.push(k);
                        let reason = format!(
                            "no heartbeat for {}ms while running",
                            HEARTBEAT_TIMEOUT.as_millis()
                        );
                        if tx.send((k, 0.0, Err(tfail(reason)))).is_err() {
                            return;
                        }
                    }
                }
            });
        }
        drop(tx);

        let outcome = job.supervise(
            &mut report,
            || {
                let (k, offset, frame) = rx.recv().map_err(|_| XtractError::Internal {
                    reason: "coordinator event channel closed".into(),
                })?;
                // A frame that is whole on the wire and still not a report
                // was sent by no worker of this build: the shard is adopted
                // like any other that did not report.
                Ok(ShardExit::of(k, offset, frame.and_then(|f| decode(&f))))
            },
            // The supervisor fenced shard `k`'s WAL: the door's floor
            // follows, so the fenced incarnation gets `Fenced` on its next
            // verb and a zombie re-presenting its epoch is refused.
            |k, epoch, death| {
                admissions.lock()[k] = epoch;
                service.obs.hub.counter("transport.fenced").add(1);
                if let Some(reason) = death {
                    service.obs.journal.record(Event::WorkerLost {
                        shard: k as u64,
                        reason: reason.to_string(),
                    });
                    service.obs.hub.counter("transport.worker_deaths").add(1);
                }
            },
        );

        // Shut the door: wake the accept loop, then kill any worker
        // still attached so its handler sees EOF. On the success path
        // every worker has already finished (and released its lease)
        // or been fenced; the kill is a no-op for exited processes.
        stop.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&sock_path);
        for c in &mut children {
            let _ = c.kill();
        }
        outcome
    });

    for c in &mut children {
        let _ = c.wait();
    }
    let _ = std::fs::remove_file(&sock_path);
    scope_result?;
    Ok(report)
}

// ---------------------------------------------------------------------
// Bench probes (public so the root package's bench target can reach
// them without exposing the wire internals).
// ---------------------------------------------------------------------

/// Measures `n` request/reply round-trips over a real Unix socket pair
/// using the wire framing (a `TakeSteal` / empty-`Steal` exchange), and
/// returns the total elapsed time. The echo peer runs in a thread.
#[doc(hidden)]
pub fn measure_wire_roundtrip(n: usize) -> Result<Duration> {
    let (a, b) = UnixStream::pair().map_err(|e| tfail(format!("socketpair: {e}")))?;
    let obs = Obs::new();
    let mut peer = Framed::new(b, &obs);
    let echo = std::thread::spawn(move || {
        for _ in 0..n {
            if peer.recv::<WorkerMsg>().is_err() {
                return;
            }
            if peer.send(&CoordMsg::Steal { steal: None }).is_err() {
                return;
            }
        }
    });
    let mut framed = Framed::new(a, &obs);
    let t0 = Instant::now();
    for _ in 0..n {
        framed.send(&WorkerMsg::TakeSteal)?;
        let _: CoordMsg = framed.recv()?;
    }
    let elapsed = t0.elapsed();
    let _ = echo.join();
    Ok(elapsed)
}

/// Measures `n` in-process steal round-trips (a `take_steal` call on
/// the shared coordinator) for comparison against the wire path.
#[doc(hidden)]
pub fn measure_local_roundtrip(n: usize) -> Duration {
    let coordinator = ShardCoordinator::new(xtract_types::ShardPolicy::sharded(2), Obs::new(), 2);
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(coordinator.take_steal(0));
    }
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        write_frame(&mut a, b"hello frames").unwrap();
        assert_eq!(read_frame(&mut b).unwrap(), b"hello frames");

        // A corrupted payload byte must fail the CRC, not be returned.
        let payload = b"zombie payload".to_vec();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        let mut bad = payload.clone();
        bad[3] ^= 0xFF;
        buf.extend_from_slice(&bad);
        a.write_all(&buf).unwrap();
        let err = read_frame(&mut b).unwrap_err();
        assert!(
            matches!(err, XtractError::TransportFailed { ref reason } if reason.contains("crc")),
            "got {err:?}"
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let mut head = Vec::new();
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        a.write_all(&head).unwrap();
        let err = read_frame(&mut b).unwrap_err();
        assert!(
            matches!(err, XtractError::TransportFailed { ref reason } if reason.contains("cap")),
            "got {err:?}"
        );
    }

    #[test]
    fn worker_messages_survive_the_wire() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let obs = Obs::new();
        let mut left = Framed::new(a.try_clone().unwrap(), &obs);
        let mut right = Framed::new(b.try_clone().unwrap(), &obs);
        left.send(&WorkerMsg::Hello {
            shard: 3,
            pid: 4242,
            epoch: 7,
        })
        .unwrap();
        match right.recv::<WorkerMsg>().unwrap() {
            WorkerMsg::Hello { shard, pid, epoch } => {
                assert_eq!((shard, pid, epoch), (3, 4242, 7));
            }
            other => panic!("decoded {other:?}"),
        }
        right.send(&CoordMsg::Welcome { epoch: 7 }).unwrap();
        match left.recv::<CoordMsg>().unwrap() {
            CoordMsg::Welcome { epoch } => assert_eq!(epoch, 7),
            other => panic!("decoded {other:?}"),
        }
        assert_eq!(obs.hub.counter_value("transport.frames_sent", None), 2);
        assert_eq!(obs.hub.counter_value("transport.frames_recv", None), 2);
        drop((a, b));
    }

    #[test]
    fn a_report_follows_finished_in_a_frame_of_its_own() {
        let (a, b) = UnixStream::pair().unwrap();
        let obs = Obs::new();
        let mut worker = Framed::new(a, &obs);
        let mut handler = Framed::new(b, &obs);
        let report = JobReport {
            families: 11,
            waves: 3,
            ..JobReport::default()
        };
        worker.send(&WorkerMsg::Finished).unwrap();
        worker.send(&report).unwrap();
        assert!(matches!(
            handler.recv::<WorkerMsg>().unwrap(),
            WorkerMsg::Finished
        ));
        // The handler's half: the bytes, counted, not decoded.
        let frame = handler.recv_raw().unwrap();
        assert_eq!(obs.hub.counter_value("transport.frames_recv", None), 2);
        // The decision loop's half.
        let decoded: JobReport = decode(&frame).unwrap();
        assert_eq!((decoded.families, decoded.waves), (11, 3));
        assert!(decode::<JobReport>(b"{\"families\":").is_err());
    }
}
