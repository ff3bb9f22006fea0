//! The transfer service: batch file movement between endpoints plus
//! single-file HTTPS/Drive fetches.
//!
//! Mirrors the prefetcher-facing surface of Globus Transfer (§4.1): the
//! caller authenticates against both sides, submits a *batch* of files,
//! and polls the task until completion. Live mode copies bytes (or stubs)
//! between in-memory backends immediately; what matters to the
//! orchestrator is the receipt — files moved, bytes moved, per-file
//! failures — and the byte accounting the Fig. 7 experiment audits.
//!
//! Fault injection: the service consults an armed [`FaultPlan`] — per-file
//! transient faults, endpoint blackout windows, degraded links, poisoned
//! payloads — exercising the retry path ("The prefetcher polls each
//! transfer task until it is completed"). Decisions are stateless hashes
//! of `(seed, path, salt)`, so a retry (different salt) re-rolls while a
//! replay of the same job faults the same files.

use crate::auth::{AuthService, Scope, Token};
use crate::fabric::DataFabric;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xtract_types::id::IdAllocator;
use xtract_types::{EndpointId, FaultPlan, FaultScope, Result, TransferId, XtractError};

/// How a single-file fetch reaches the data (§5.3: `t_gh` vs `t_gd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchKind {
    /// Globus HTTPS download from a Globus endpoint.
    GlobusHttps,
    /// Google Drive API download.
    DriveApi,
}

/// A batch transfer job.
#[derive(Debug, Clone)]
pub struct TransferRequest {
    /// Source endpoint.
    pub source: EndpointId,
    /// Destination endpoint.
    pub destination: EndpointId,
    /// `(source_path, destination_path)` pairs.
    pub files: Vec<(String, String)>,
}

/// Outcome of a batch transfer.
#[derive(Debug, Clone)]
pub struct TransferReceipt {
    /// Job id.
    pub id: TransferId,
    /// Files copied successfully.
    pub files_moved: usize,
    /// Bytes copied successfully.
    pub bytes_moved: u64,
    /// Per-file failures `(source_path, error)`.
    pub failed: Vec<(String, XtractError)>,
    /// Files that arrived but over a degraded link (fault-plan slow-link
    /// injection); each paid the plan's extra per-file delay.
    pub throttled_files: usize,
}

impl TransferReceipt {
    /// True when every file arrived.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Aggregate counters per (source, destination) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Files moved on this path.
    pub files: u64,
    /// Bytes moved on this path.
    pub bytes: u64,
}

/// Bit-rot in flight: same length, scrambled contents. Extractors see
/// garbage instead of the expected format, exactly like §2.3's junk files.
fn corrupt(bytes: &Bytes) -> Bytes {
    Bytes::from(bytes.iter().map(|b| b ^ 0xA5).collect::<Vec<u8>>())
}

/// One directed link: (source, destination).
type Link = (EndpointId, EndpointId);

#[derive(Debug, Default)]
struct LinkState {
    /// Max concurrent submissions per link; `None` is unbounded.
    limit: Option<usize>,
    /// Current in-flight submissions per link (absent = 0).
    in_flight: HashMap<Link, usize>,
}

/// A per-link concurrency gate: concurrent staging workers all funnel
/// through the transfer service, and a real WAN link saturates — the gate
/// bounds how many batch submissions can be in flight on one
/// (source, destination) pair at once, blocking excess callers until a
/// slot frees.
#[derive(Debug, Default)]
struct LinkGate {
    state: Mutex<LinkState>,
    freed: Condvar,
}

impl LinkGate {
    /// Blocks until the link has a free slot, then claims it.
    fn acquire(&self, link: Link) {
        let mut st = self.state.lock();
        loop {
            let current = st.in_flight.get(&link).copied().unwrap_or(0);
            match st.limit {
                Some(limit) if current >= limit => self.freed.wait(&mut st),
                _ => break,
            }
        }
        *st.in_flight.entry(link).or_insert(0) += 1;
    }

    /// Releases a slot claimed by [`Self::acquire`].
    fn release(&self, link: Link) {
        let mut st = self.state.lock();
        if let Some(n) = st.in_flight.get_mut(&link) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                st.in_flight.remove(&link);
            }
        }
        drop(st);
        self.freed.notify_all();
    }

    /// Total in-flight submissions across every link.
    fn total_in_flight(&self) -> usize {
        self.state.lock().in_flight.values().sum()
    }
}

/// RAII slot on a link: released (and the in-flight gauge decremented)
/// on every exit path out of `submit_with_salt`, including errors.
struct LinkPermit<'a> {
    gate: &'a LinkGate,
    link: Link,
    gauge: Option<&'a xtract_obs::Gauge>,
}

impl Drop for LinkPermit<'_> {
    fn drop(&mut self) {
        self.gate.release(self.link);
        if let Some(g) = self.gauge {
            g.dec();
        }
    }
}

/// The `transfer.*` metrics a submit updates, interned once so that a
/// submit adds through handles instead of looking five names up.
struct TransferCounters {
    submits: xtract_obs::Counter,
    files_moved: xtract_obs::Counter,
    bytes_moved: xtract_obs::Counter,
    file_failures: xtract_obs::Counter,
    /// `transfer.in_flight`, interned by the first submit: a service that
    /// never moves a byte lists no gauge.
    in_flight: std::sync::OnceLock<xtract_obs::Gauge>,
}

/// The transfer service.
pub struct TransferService {
    fabric: Arc<DataFabric>,
    auth: Arc<AuthService>,
    ids: IdAllocator,
    receipts: RwLock<HashMap<TransferId, TransferReceipt>>,
    pair_stats: RwLock<HashMap<(EndpointId, EndpointId), PairStats>>,
    fetches: RwLock<HashMap<FetchKind, u64>>,
    fault: RwLock<Option<FaultPlan>>,
    obs: Option<(xtract_obs::Obs, TransferCounters)>,
    /// Monotonic submit counter — the operation index blackout windows
    /// are expressed in.
    submit_ops: AtomicU64,
    /// Per-link concurrency gate for concurrent staging callers.
    gate: LinkGate,
}

impl TransferService {
    /// A service over the given fabric and auth provider.
    pub fn new(fabric: Arc<DataFabric>, auth: Arc<AuthService>) -> Self {
        Self {
            fabric,
            auth,
            ids: IdAllocator::new(),
            receipts: RwLock::new(HashMap::new()),
            pair_stats: RwLock::new(HashMap::new()),
            fetches: RwLock::new(HashMap::new()),
            fault: RwLock::new(None),
            obs: None,
            submit_ops: AtomicU64::new(0),
            gate: LinkGate::default(),
        }
    }

    /// A service reporting into `obs`: moved files/bytes intern in the hub
    /// (`transfer.*`) and each submit journals a started/finished event
    /// pair.
    pub fn with_obs(fabric: Arc<DataFabric>, auth: Arc<AuthService>, obs: xtract_obs::Obs) -> Self {
        let mut svc = Self::new(fabric, auth);
        let counters = TransferCounters {
            submits: obs.hub.counter("transfer.submits"),
            files_moved: obs.hub.counter("transfer.files_moved"),
            bytes_moved: obs.hub.counter("transfer.bytes_moved"),
            file_failures: obs.hub.counter("transfer.file_failures"),
            in_flight: std::sync::OnceLock::new(),
        };
        svc.obs = Some((obs, counters));
        svc
    }

    /// Arms a structured fault plan; every subsequent submit consults it.
    pub fn arm_fault_plan(&self, plan: FaultPlan) {
        *self.fault.write() = Some(plan);
    }

    /// Enables per-file fault injection with the given probability — the
    /// legacy single-knob entry point, now a [`FaultPlan`] shorthand.
    pub fn inject_faults(&self, probability: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&probability));
        self.arm_fault_plan(FaultPlan::transfer_faults(seed, probability));
    }

    /// Disables fault injection.
    pub fn clear_faults(&self) {
        *self.fault.write() = None;
    }

    /// Bounds concurrent batch submissions per (source, destination)
    /// link; `None` (the default) is unbounded. Callers past the bound
    /// block inside [`Self::submit_with_salt`] until a slot frees.
    pub fn set_link_limit(&self, limit: Option<usize>) {
        self.gate.state.lock().limit = limit.filter(|&l| l > 0);
        self.gate.freed.notify_all();
    }

    /// Batch submissions currently in flight across every link.
    pub fn in_flight(&self) -> usize {
        self.gate.total_in_flight()
    }

    /// Submits a batch transfer and runs it to completion, returning the
    /// job id. The receipt is retrievable via [`Self::status`] — the
    /// submit/poll split mirrors the real service even though live-mode
    /// execution is synchronous.
    pub fn submit(&self, token: Token, request: &TransferRequest) -> Result<TransferId> {
        self.submit_with_salt(token, request, 0)
    }

    /// [`Self::submit`] with a caller-chosen fault salt. Retrying callers
    /// pass their attempt number so injected per-file faults re-roll
    /// instead of repeating forever; salt 0 matches plain `submit`.
    pub fn submit_with_salt(
        &self,
        token: Token,
        request: &TransferRequest,
        salt: u64,
    ) -> Result<TransferId> {
        // "the prefetcher first authenticates with the data layer on both
        // the source and destination endpoints" (§4.1).
        self.auth.check(token, Scope::Transfer)?;
        let src = self.fabric.get(request.source)?;
        let dst = self.fabric.get(request.destination)?;

        // Claim a slot on the link before doing any work; the permit's
        // Drop releases it on every path out, error or success.
        let link = (request.source, request.destination);
        self.gate.acquire(link);
        let gauge = self.obs.as_ref().map(|(obs, counters)| {
            let g = counters
                .in_flight
                .get_or_init(|| obs.hub.gauge("transfer.in_flight"));
            g.inc();
            g
        });
        let _permit = LinkPermit {
            gate: &self.gate,
            link,
            gauge,
        };

        let plan = self.fault.read().clone();
        let op = self.submit_ops.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = &plan {
            // A blackout takes the whole endpoint dark: the submission is
            // rejected outright rather than failing file-by-file.
            for ep in [request.destination, request.source] {
                if plan.blackout_at(ep, op, FaultScope::Transfer).is_some() {
                    return Err(XtractError::EndpointDown { endpoint: ep });
                }
            }
        }

        let id = TransferId::new(self.ids.next());
        if let Some((obs, _)) = &self.obs {
            obs.journal.record(xtract_obs::Event::TransferStarted {
                transfer: id,
                source: request.source,
                destination: request.destination,
                files: request.files.len() as u64,
            });
        }
        let mut receipt = TransferReceipt {
            id,
            files_moved: 0,
            bytes_moved: 0,
            failed: Vec::new(),
            throttled_files: 0,
        };

        for (from, to) in &request.files {
            if plan
                .as_ref()
                .is_some_and(|p| p.transfer_file_faults(from, salt))
            {
                receipt.failed.push((
                    from.clone(),
                    XtractError::TransferFailed {
                        transfer: id,
                        reason: "injected link fault".to_string(),
                    },
                ));
                continue;
            }
            if let Some(p) = plan.as_ref() {
                if p.link_degraded(from, salt) {
                    receipt.throttled_files += 1;
                    // Pay the degraded link's latency for real: concurrent
                    // staging overlaps these sleeps across workers, which
                    // is exactly the overlap the pipeline exists to buy.
                    if p.slow_link_delay_ms > 0 {
                        std::thread::sleep(Duration::from_millis(p.slow_link_delay_ms));
                    }
                }
            }
            let poisoned = plan.as_ref().is_some_and(|p| p.poisoned(from));
            let outcome = match src.backend.read(from) {
                Ok(bytes) => {
                    let n = bytes.len() as u64;
                    let payload = if poisoned { corrupt(&bytes) } else { bytes };
                    dst.backend.write(to, payload).map(|()| n)
                }
                // Stubs move as stubs: simulation-scale repositories are
                // never materialized, but their byte sizes still count.
                Err(XtractError::ContentsNotMaterialized { .. }) => src
                    .backend
                    .stat(from)
                    .and_then(|size| dst.backend.write_stub(to, size).map(|()| size)),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(n) => {
                    receipt.files_moved += 1;
                    receipt.bytes_moved += n;
                }
                Err(e) => receipt.failed.push((from.clone(), e)),
            }
        }

        let mut stats = self.pair_stats.write();
        let entry = stats
            .entry((request.source, request.destination))
            .or_default();
        entry.files += receipt.files_moved as u64;
        entry.bytes += receipt.bytes_moved;
        drop(stats);

        if let Some((obs, counters)) = &self.obs {
            counters.submits.incr();
            counters.files_moved.add(receipt.files_moved as u64);
            counters.bytes_moved.add(receipt.bytes_moved);
            counters.file_failures.add(receipt.failed.len() as u64);
            obs.journal.record(xtract_obs::Event::TransferFinished {
                transfer: id,
                files_moved: receipt.files_moved as u64,
                bytes_moved: receipt.bytes_moved,
                failed: receipt.failed.len() as u64,
            });
        }

        self.receipts.write().insert(id, receipt);
        Ok(id)
    }

    /// Polls a transfer job (always `Some` once submitted; the prefetcher
    /// loop treats `None` as still-unknown).
    pub fn status(&self, id: TransferId) -> Option<TransferReceipt> {
        self.receipts.read().get(&id).cloned()
    }

    /// Single-file fetch over HTTPS or the Drive API — the path Fig. 3's
    /// `t_gh`/`t_gd` components measure, used by endpoints without a
    /// shared filesystem (§5.8.2).
    pub fn fetch(
        &self,
        token: Token,
        endpoint: EndpointId,
        path: &str,
        kind: FetchKind,
    ) -> Result<Bytes> {
        self.auth.check(token, Scope::Transfer)?;
        let ep = self.fabric.get(endpoint)?;
        let bytes = ep.backend.read(path)?;
        *self.fetches.write().entry(kind).or_insert(0) += 1;
        Ok(bytes)
    }

    /// Cumulative stats for a (source, destination) pair.
    pub fn pair_stats(&self, source: EndpointId, destination: EndpointId) -> PairStats {
        self.pair_stats
            .read()
            .get(&(source, destination))
            .copied()
            .unwrap_or_default()
    }

    /// Total bytes moved across all pairs.
    pub fn total_bytes_moved(&self) -> u64 {
        self.pair_stats.read().values().map(|s| s.bytes).sum()
    }

    /// Number of single-file fetches of the given kind.
    pub fn fetch_count(&self, kind: FetchKind) -> u64 {
        self.fetches.read().get(&kind).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemFs;

    struct Rig {
        fabric: Arc<DataFabric>,
        auth: Arc<AuthService>,
        svc: TransferService,
        token: Token,
        a: EndpointId,
        b: EndpointId,
    }

    fn rig() -> Rig {
        let fabric = Arc::new(DataFabric::new());
        let a = EndpointId::new(0);
        let b = EndpointId::new(1);
        fabric.register(a, "petrel", Arc::new(MemFs::new(a)));
        fabric.register(b, "midway", Arc::new(MemFs::new(b)));
        let auth = Arc::new(AuthService::new());
        let token = auth.login("user", &[Scope::Transfer]);
        let svc = TransferService::new(fabric.clone(), auth.clone());
        Rig {
            fabric,
            auth,
            svc,
            token,
            a,
            b,
        }
    }

    #[test]
    fn batch_transfer_moves_bytes() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        src.backend
            .write("/d/x.txt", Bytes::from_static(b"12345"))
            .unwrap();
        src.backend
            .write("/d/y.txt", Bytes::from_static(b"678"))
            .unwrap();
        let id = r
            .svc
            .submit(
                r.token,
                &TransferRequest {
                    source: r.a,
                    destination: r.b,
                    files: vec![
                        ("/d/x.txt".into(), "/stage/x.txt".into()),
                        ("/d/y.txt".into(), "/stage/y.txt".into()),
                    ],
                },
            )
            .unwrap();
        let receipt = r.svc.status(id).unwrap();
        assert!(receipt.is_complete());
        assert_eq!(receipt.files_moved, 2);
        assert_eq!(receipt.bytes_moved, 8);
        let dst = r.fabric.get(r.b).unwrap();
        assert_eq!(
            dst.backend.read("/stage/x.txt").unwrap(),
            Bytes::from_static(b"12345")
        );
        assert_eq!(r.svc.pair_stats(r.a, r.b).bytes, 8);
        assert_eq!(r.svc.total_bytes_moved(), 8);
    }

    #[test]
    fn missing_scope_is_denied() {
        let r = rig();
        let bad = r.auth.login("user2", &[Scope::Crawl]);
        let err = r
            .svc
            .submit(
                bad,
                &TransferRequest {
                    source: r.a,
                    destination: r.b,
                    files: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, XtractError::AuthDenied { .. }));
    }

    #[test]
    fn missing_files_fail_individually() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        src.backend
            .write("/ok.txt", Bytes::from_static(b"ok"))
            .unwrap();
        let id = r
            .svc
            .submit(
                r.token,
                &TransferRequest {
                    source: r.a,
                    destination: r.b,
                    files: vec![
                        ("/ok.txt".into(), "/ok.txt".into()),
                        ("/missing.txt".into(), "/missing.txt".into()),
                    ],
                },
            )
            .unwrap();
        let receipt = r.svc.status(id).unwrap();
        assert_eq!(receipt.files_moved, 1);
        assert_eq!(receipt.failed.len(), 1);
        assert!(!receipt.is_complete());
    }

    #[test]
    fn stubs_move_as_stubs_and_count_bytes() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        src.backend.write_stub("/sim/big.dat", 1_000_000).unwrap();
        let id = r
            .svc
            .submit(
                r.token,
                &TransferRequest {
                    source: r.a,
                    destination: r.b,
                    files: vec![("/sim/big.dat".into(), "/stage/big.dat".into())],
                },
            )
            .unwrap();
        let receipt = r.svc.status(id).unwrap();
        assert_eq!(receipt.bytes_moved, 1_000_000);
        let dst = r.fabric.get(r.b).unwrap();
        assert_eq!(dst.backend.stat("/stage/big.dat").unwrap(), 1_000_000);
        assert!(matches!(
            dst.backend.read("/stage/big.dat"),
            Err(XtractError::ContentsNotMaterialized { .. })
        ));
    }

    #[test]
    fn fault_injection_fails_some_files_retryably() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        let files: Vec<(String, String)> = (0..200)
            .map(|i| {
                let p = format!("/f{i}");
                src.backend.write(&p, Bytes::from_static(b"x")).unwrap();
                (p.clone(), p)
            })
            .collect();
        r.svc.inject_faults(0.3, 42);
        let id = r
            .svc
            .submit(
                r.token,
                &TransferRequest {
                    source: r.a,
                    destination: r.b,
                    files,
                },
            )
            .unwrap();
        let receipt = r.svc.status(id).unwrap();
        assert!(!receipt.failed.is_empty());
        assert!(receipt.files_moved > 0);
        assert!(receipt.failed.iter().all(|(_, e)| e.is_retryable()));
        // Retry just the failures with faults off: everything arrives.
        r.svc.clear_faults();
        let retry: Vec<(String, String)> = receipt
            .failed
            .iter()
            .map(|(p, _)| (p.clone(), p.clone()))
            .collect();
        let id2 = r
            .svc
            .submit(
                r.token,
                &TransferRequest {
                    source: r.a,
                    destination: r.b,
                    files: retry,
                },
            )
            .unwrap();
        assert!(r.svc.status(id2).unwrap().is_complete());
        let dst = r.fabric.get(r.b).unwrap();
        assert_eq!(dst.backend.file_count(), 200);
    }

    #[test]
    fn faulted_files_reroll_under_a_new_salt() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        let files: Vec<(String, String)> = (0..100)
            .map(|i| {
                let p = format!("/f{i}");
                src.backend.write(&p, Bytes::from_static(b"x")).unwrap();
                (p.clone(), p)
            })
            .collect();
        r.svc.inject_faults(0.5, 7);
        let req = TransferRequest {
            source: r.a,
            destination: r.b,
            files,
        };
        let first = r.svc.status(r.svc.submit(r.token, &req).unwrap()).unwrap();
        assert!(!first.failed.is_empty());
        // Same salt ⇒ the identical file set faults again.
        let again = r.svc.status(r.svc.submit(r.token, &req).unwrap()).unwrap();
        let names =
            |rc: &TransferReceipt| rc.failed.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>();
        assert_eq!(names(&first), names(&again));
        // A retry salt re-rolls: a different subset faults.
        let retried = r
            .svc
            .status(r.svc.submit_with_salt(r.token, &req, 1).unwrap())
            .unwrap();
        assert_ne!(names(&first), names(&retried));
    }

    #[test]
    fn blackout_rejects_the_whole_submission() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        src.backend
            .write("/x.txt", Bytes::from_static(b"abc"))
            .unwrap();
        let mut plan = FaultPlan::new(5);
        plan.blackouts.push(xtract_types::Blackout::new(r.b, 0, 1));
        r.svc.arm_fault_plan(plan);
        let req = TransferRequest {
            source: r.a,
            destination: r.b,
            files: vec![("/x.txt".into(), "/stage/x.txt".into())],
        };
        // Op 0 falls inside the window: the endpoint is dark.
        let err = r.svc.submit(r.token, &req).unwrap_err();
        assert_eq!(err, XtractError::EndpointDown { endpoint: r.b });
        // Op 1 is past the window: service restored.
        let id = r.svc.submit(r.token, &req).unwrap();
        assert!(r.svc.status(id).unwrap().is_complete());
    }

    #[test]
    fn degraded_links_are_counted() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        let files: Vec<(String, String)> = (0..100)
            .map(|i| {
                let p = format!("/f{i}");
                src.backend.write(&p, Bytes::from_static(b"x")).unwrap();
                (p.clone(), p)
            })
            .collect();
        let mut plan = FaultPlan::new(11);
        plan.slow_link_rate = 0.5;
        plan.slow_link_delay_ms = 2;
        r.svc.arm_fault_plan(plan);
        let started = std::time::Instant::now();
        let receipt = r
            .svc
            .status(
                r.svc
                    .submit(
                        r.token,
                        &TransferRequest {
                            source: r.a,
                            destination: r.b,
                            files,
                        },
                    )
                    .unwrap(),
            )
            .unwrap();
        assert!(receipt.is_complete());
        assert_eq!(receipt.files_moved, 100);
        assert!(receipt.throttled_files > 10 && receipt.throttled_files < 90);
        // Each throttled file pays the plan's delay for real — a serial
        // submit is at least the sum of its throttles.
        assert!(started.elapsed() >= Duration::from_millis(2 * receipt.throttled_files as u64));
    }

    #[test]
    fn link_limit_serializes_concurrent_submits() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        for i in 0..4 {
            src.backend
                .write(&format!("/f{i}"), Bytes::from_static(b"x"))
                .unwrap();
        }
        // Every file throttled 20 ms, so each submit takes >= 20 ms of
        // wall clock while it holds its link slot.
        let mut plan = FaultPlan::new(3);
        plan.slow_link_rate = 1.0;
        plan.slow_link_delay_ms = 20;
        r.svc.arm_fault_plan(plan);
        r.svc.set_link_limit(Some(1));
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            for i in 0..4 {
                let svc = &r.svc;
                let (token, a, b) = (r.token, r.a, r.b);
                s.spawn(move || {
                    let p = format!("/f{i}");
                    svc.submit(
                        token,
                        &TransferRequest {
                            source: a,
                            destination: b,
                            files: vec![(p.clone(), p)],
                        },
                    )
                    .unwrap();
                });
            }
        });
        // With one slot on the link the four submits cannot overlap:
        // total wall clock is at least the sum of their delays.
        assert!(started.elapsed() >= Duration::from_millis(4 * 20));
        assert_eq!(r.svc.in_flight(), 0);
    }

    #[test]
    fn lifting_the_link_limit_wakes_blocked_submitters() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        for i in 0..8 {
            src.backend
                .write(&format!("/f{i}"), Bytes::from_static(b"x"))
                .unwrap();
        }
        let mut plan = FaultPlan::new(3);
        plan.slow_link_rate = 1.0;
        plan.slow_link_delay_ms = 5;
        r.svc.arm_fault_plan(plan);
        r.svc.set_link_limit(Some(2));
        std::thread::scope(|s| {
            for i in 0..8 {
                let svc = &r.svc;
                let (token, a, b) = (r.token, r.a, r.b);
                s.spawn(move || {
                    let p = format!("/f{i}");
                    svc.submit(
                        token,
                        &TransferRequest {
                            source: a,
                            destination: b,
                            files: vec![(p.clone(), p)],
                        },
                    )
                    .unwrap();
                });
            }
            // Un-bound the link mid-flight; waiters must wake and drain.
            std::thread::sleep(Duration::from_millis(2));
            r.svc.set_link_limit(None);
        });
        assert_eq!(r.svc.in_flight(), 0);
        assert_eq!(r.fabric.get(r.b).unwrap().backend.file_count(), 8);
    }

    #[test]
    fn poisoned_files_arrive_corrupted_but_complete() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        src.backend
            .write("/bad/x.csv", Bytes::from_static(b"a,b,c"))
            .unwrap();
        src.backend
            .write("/good/y.csv", Bytes::from_static(b"d,e,f"))
            .unwrap();
        let mut plan = FaultPlan::new(0);
        plan.poison_path_substrings.push("/bad/".into());
        r.svc.arm_fault_plan(plan);
        let receipt = r
            .svc
            .status(
                r.svc
                    .submit(
                        r.token,
                        &TransferRequest {
                            source: r.a,
                            destination: r.b,
                            files: vec![
                                ("/bad/x.csv".into(), "/s/x.csv".into()),
                                ("/good/y.csv".into(), "/s/y.csv".into()),
                            ],
                        },
                    )
                    .unwrap(),
            )
            .unwrap();
        assert!(receipt.is_complete());
        let dst = r.fabric.get(r.b).unwrap();
        assert_ne!(
            dst.backend.read("/s/x.csv").unwrap(),
            Bytes::from_static(b"a,b,c")
        );
        assert_eq!(
            dst.backend.read("/s/y.csv").unwrap(),
            Bytes::from_static(b"d,e,f")
        );
    }

    #[test]
    fn fetch_reads_and_counts() {
        let r = rig();
        let src = r.fabric.get(r.a).unwrap();
        src.backend
            .write("/doc.txt", Bytes::from_static(b"words"))
            .unwrap();
        let bytes = r
            .svc
            .fetch(r.token, r.a, "/doc.txt", FetchKind::GlobusHttps)
            .unwrap();
        assert_eq!(bytes, Bytes::from_static(b"words"));
        assert_eq!(r.svc.fetch_count(FetchKind::GlobusHttps), 1);
        assert_eq!(r.svc.fetch_count(FetchKind::DriveApi), 0);
    }

    #[test]
    fn obs_backed_transfers_report_counters_and_events() {
        let r = rig();
        let obs = xtract_obs::Obs::new();
        let svc = TransferService::with_obs(r.fabric.clone(), r.auth.clone(), obs.clone());
        let src = r.fabric.get(r.a).unwrap();
        src.backend
            .write("/m/a.txt", Bytes::from_static(b"1234"))
            .unwrap();
        let id = svc
            .submit(
                r.token,
                &TransferRequest {
                    source: r.a,
                    destination: r.b,
                    files: vec![
                        ("/m/a.txt".into(), "/s/a.txt".into()),
                        ("/m/missing.txt".into(), "/s/missing.txt".into()),
                    ],
                },
            )
            .unwrap();
        assert_eq!(obs.hub.counter_value("transfer.files_moved", None), 1);
        assert_eq!(obs.hub.counter_value("transfer.bytes_moved", None), 4);
        assert_eq!(obs.hub.counter_value("transfer.file_failures", None), 1);
        // The in-flight gauge was interned by the submit and is back to
        // zero now that the permit has dropped.
        assert_eq!(obs.hub.gauge_value("transfer.in_flight", None), 0);
        assert!(obs
            .hub
            .snapshot()
            .gauges
            .iter()
            .any(|g| g.name == "transfer.in_flight"));
        let events = obs.journal.events();
        assert!(events.iter().any(|rec| matches!(
            rec.event,
            xtract_obs::Event::TransferStarted { transfer, files: 2, .. } if transfer == id
        )));
        assert!(events.iter().any(|rec| matches!(
            rec.event,
            xtract_obs::Event::TransferFinished {
                transfer,
                files_moved: 1,
                bytes_moved: 4,
                failed: 1,
            } if transfer == id
        )));
    }

    #[test]
    fn unknown_endpoint_is_an_error() {
        let r = rig();
        let err = r
            .svc
            .submit(
                r.token,
                &TransferRequest {
                    source: EndpointId::new(99),
                    destination: r.b,
                    files: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, XtractError::NotFound { .. }));
    }
}
