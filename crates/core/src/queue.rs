//! Weighted fair-share admission queue for the multi-tenant job service.
//!
//! Scheduling is *stride scheduling*: each tenant carries a `pass` value
//! that advances by `STRIDE / weight` every time one of its jobs is
//! dispatched, and the dispatcher always picks the eligible tenant with
//! the smallest pass. A weight-3 tenant's pass advances a third as fast
//! as a weight-1 tenant's, so it is selected three times as often when
//! both are backlogged — and because every pass advances monotonically,
//! no tenant with a nonzero weight can be starved: its pass eventually
//! becomes the minimum. A tenant that goes idle and returns has its pass
//! caught up to the global virtual time so it cannot monopolize the pool
//! with banked credit.
//!
//! Within a tenant, entries dispatch highest-priority first, FIFO among
//! equals. Overload is handled at the *pending* boundary only: when the
//! queue is full, a new submission may shed the globally lowest-priority
//! pending entry — never a running job — and only when it strictly
//! outranks that victim; otherwise the submission is rejected so the
//! caller can retry after a hint.

use std::collections::{HashMap, VecDeque};
use xtract_types::{JobId, TenantId};

/// Pass increment for a weight-1 tenant. Large enough that integer
/// division by any practical weight keeps distinct strides.
const STRIDE: u64 = 1 << 20;

/// Outcome of offering a job to the queue.
#[derive(Debug)]
pub enum Admission<T> {
    /// The job was enqueued (possibly after shedding).
    Admitted {
        /// Pending entries evicted to make room — lowest-priority first.
        /// Empty in the common non-overload case.
        victims: Vec<Victim<T>>,
    },
    /// The queue is full and the job does not outrank any pending entry.
    Rejected {
        /// Human-readable reason for the journal and the typed error.
        reason: String,
    },
}

/// A pending entry evicted by overload shedding.
#[derive(Debug)]
pub struct Victim<T> {
    /// Owner of the shed job.
    pub tenant: TenantId,
    /// The shed job.
    pub job: JobId,
    /// Priority it was queued at.
    pub priority: u8,
    /// The caller's payload, returned so leases and state can be released.
    pub payload: T,
}

#[derive(Debug)]
struct Entry<T> {
    job: JobId,
    priority: u8,
    seq: u64,
    payload: T,
}

#[derive(Debug)]
struct TenantSched<T> {
    weight: u32,
    pass: u64,
    running: usize,
    max_concurrent: Option<u64>,
    pending: VecDeque<Entry<T>>,
}

impl<T> TenantSched<T> {
    fn stride(&self) -> u64 {
        (STRIDE / u64::from(self.weight)).max(1)
    }

    fn eligible(&self) -> bool {
        !self.pending.is_empty()
            && self
                .max_concurrent
                .is_none_or(|cap| (self.running as u64) < cap)
    }

    /// Index of the next entry to dispatch: highest priority, FIFO among
    /// equals (smallest seq).
    fn next_index(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (std::cmp::Reverse(e.priority), e.seq))
            .map(|(i, _)| i)
    }
}

/// The shared admission queue: one scheduler state per registered tenant.
///
/// Not internally synchronized — the job service wraps it in its state
/// mutex alongside the slot table.
#[derive(Debug)]
pub struct JobQueue<T> {
    capacity: usize,
    tenants: HashMap<TenantId, TenantSched<T>>,
    /// Global virtual time: the pass of the most recently dispatched
    /// tenant, after that dispatch. Reactivating tenants catch up to this.
    vtime: u64,
    pending_total: usize,
    seq: u64,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` pending entries across tenants.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tenants: HashMap::new(),
            vtime: 0,
            pending_total: 0,
            seq: 0,
        }
    }

    /// Registers a tenant with its fair-share weight and optional
    /// concurrent-job cap. Re-registering updates both.
    pub fn register_tenant(&mut self, id: TenantId, weight: u32, max_concurrent: Option<u64>) {
        let vtime = self.vtime;
        self.tenants
            .entry(id)
            .and_modify(|t| {
                t.weight = weight.max(1);
                t.max_concurrent = max_concurrent;
            })
            .or_insert_with(|| TenantSched {
                weight: weight.max(1),
                pass: vtime,
                running: 0,
                max_concurrent,
                pending: VecDeque::new(),
            });
    }

    /// Offers a job. On overload the globally lowest-priority pending
    /// entry is shed *only if* the new job strictly outranks it;
    /// otherwise the offer is rejected. Running jobs are never touched.
    pub fn push(&mut self, tenant: TenantId, job: JobId, priority: u8, payload: T) -> Admission<T> {
        if !self.tenants.contains_key(&tenant) {
            return Admission::Rejected {
                reason: format!("unknown tenant {tenant}"),
            };
        }
        let mut victims = Vec::new();
        if self.pending_total >= self.capacity {
            match self.shed_one_below(priority) {
                Some(v) => victims.push(v),
                None => {
                    return Admission::Rejected {
                        reason: format!(
                            "queue full ({} pending) and no pending job has priority below {}",
                            self.pending_total, priority
                        ),
                    }
                }
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let vtime = self.vtime;
        let sched = self.tenants.get_mut(&tenant).expect("checked above");
        if sched.pending.is_empty() {
            // Reactivation: forfeit credit banked while idle.
            sched.pass = sched.pass.max(vtime);
        }
        sched.pending.push_back(Entry {
            job,
            priority,
            seq,
            payload,
        });
        self.pending_total += 1;
        Admission::Admitted { victims }
    }

    /// Sheds the globally lowest-priority pending entry, provided its
    /// priority is strictly below `than`. Ties break toward the youngest
    /// entry so the longest-waiting work keeps its place.
    fn shed_one_below(&mut self, than: u8) -> Option<Victim<T>> {
        let (tid, idx) = self
            .tenants
            .iter()
            .flat_map(|(tid, t)| {
                t.pending
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (*tid, i, e.priority, e.seq))
            })
            .min_by_key(|&(_, _, prio, seq)| (prio, std::cmp::Reverse(seq)))
            .filter(|&(_, _, prio, _)| prio < than)
            .map(|(tid, i, _, _)| (tid, i))?;
        let sched = self.tenants.get_mut(&tid)?;
        let entry = sched.pending.remove(idx)?;
        self.pending_total -= 1;
        Some(Victim {
            tenant: tid,
            job: entry.job,
            priority: entry.priority,
            payload: entry.payload,
        })
    }

    /// Dispatches the next job: the eligible tenant with the smallest
    /// pass (ties break on tenant id), its highest-priority entry first.
    /// Advances the tenant's pass by its stride and marks it running.
    pub fn pop_next(&mut self) -> Option<(TenantId, JobId, T)> {
        let tid = self
            .tenants
            .iter()
            .filter(|(_, t)| t.eligible())
            .min_by_key(|(tid, t)| (t.pass, **tid))
            .map(|(tid, _)| *tid)?;
        let sched = self.tenants.get_mut(&tid)?;
        let idx = sched.next_index()?;
        let entry = sched.pending.remove(idx)?;
        // Advance first, then record: a tenant that reactivates now starts
        // level with the incumbent, not one stride behind it.
        sched.pass += sched.stride();
        self.vtime = sched.pass;
        sched.running += 1;
        self.pending_total -= 1;
        Some((tid, entry.job, entry.payload))
    }

    /// Marks one of `tenant`'s running jobs finished, freeing a
    /// concurrency slot.
    pub fn note_done(&mut self, tenant: TenantId) {
        if let Some(t) = self.tenants.get_mut(&tenant) {
            t.running = t.running.saturating_sub(1);
        }
    }

    /// Pending entries across all tenants.
    pub fn pending_len(&self) -> usize {
        self.pending_total
    }

    /// Running jobs owned by `tenant`.
    pub fn running(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |t| t.running)
    }

    /// Pending entries owned by `tenant`.
    pub fn pending_for(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |t| t.pending.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TenantId {
        TenantId::new(n)
    }
    fn j(n: u64) -> JobId {
        JobId::new(n)
    }

    fn drain_order(q: &mut JobQueue<()>) -> Vec<TenantId> {
        let mut order = Vec::new();
        while let Some((tid, _, ())) = q.pop_next() {
            q.note_done(tid);
            order.push(tid);
        }
        order
    }

    #[test]
    fn dispatch_ratio_tracks_weights() {
        let mut q = JobQueue::new(64);
        q.register_tenant(t(0), 2, None);
        q.register_tenant(t(1), 1, None);
        for i in 0..30 {
            assert!(matches!(
                q.push(t(i % 2), j(i), 0, ()),
                Admission::Admitted { .. }
            ));
        }
        let order = drain_order(&mut q);
        // While both are backlogged (first ~22 pops: tenant 1's 15 jobs
        // drain at 1/3 share), tenant 0 gets twice the slots of tenant 1.
        let prefix = &order[..12];
        let heavy = prefix.iter().filter(|id| **id == t(0)).count();
        let light = prefix.iter().filter(|id| **id == t(1)).count();
        assert_eq!(heavy, 8, "weight-2 tenant share in {prefix:?}");
        assert_eq!(light, 4, "weight-1 tenant share in {prefix:?}");
        assert_eq!(order.len(), 30);
    }

    #[test]
    fn within_a_tenant_priority_beats_fifo() {
        let mut q = JobQueue::new(8);
        q.register_tenant(t(0), 1, None);
        q.push(t(0), j(1), 0, ());
        q.push(t(0), j(2), 5, ());
        q.push(t(0), j(3), 5, ());
        let (_, first, ()) = q.pop_next().unwrap();
        let (_, second, ()) = q.pop_next().unwrap();
        let (_, third, ()) = q.pop_next().unwrap();
        assert_eq!(first, j(2), "highest priority first");
        assert_eq!(second, j(3), "FIFO among equal priority");
        assert_eq!(third, j(1));
    }

    #[test]
    fn concurrency_cap_defers_a_tenant_without_blocking_others() {
        let mut q = JobQueue::new(8);
        q.register_tenant(t(0), 4, Some(1));
        q.register_tenant(t(1), 1, None);
        q.push(t(0), j(0), 0, ());
        q.push(t(0), j(1), 0, ());
        q.push(t(1), j(2), 0, ());
        let (first, ..) = q.pop_next().unwrap();
        assert_eq!(first, t(0), "higher weight dispatches first");
        // Tenant 0 is at its cap; the next dispatch must come from 1.
        let (second, ..) = q.pop_next().unwrap();
        assert_eq!(second, t(1));
        assert!(q.pop_next().is_none(), "t0 capped, t1 empty");
        q.note_done(t(0));
        let (third, ..) = q.pop_next().unwrap();
        assert_eq!(third, t(0));
    }

    #[test]
    fn overload_sheds_only_strictly_lower_priority_pending() {
        let mut q = JobQueue::new(2);
        q.register_tenant(t(0), 1, None);
        q.push(t(0), j(0), 3, ());
        q.push(t(0), j(1), 1, ());
        // Equal priority to the lowest pending: rejected, nothing shed.
        assert!(matches!(
            q.push(t(0), j(2), 1, ()),
            Admission::Rejected { .. }
        ));
        assert_eq!(q.pending_len(), 2);
        // Strictly higher: the priority-1 entry is evicted.
        match q.push(t(0), j(3), 2, ()) {
            Admission::Admitted { victims } => {
                assert_eq!(victims.len(), 1);
                assert_eq!(victims[0].job, j(1));
                assert_eq!(victims[0].priority, 1);
            }
            other => panic!("expected shed admission, got {other:?}"),
        }
        assert_eq!(q.pending_len(), 2);
        // Running jobs are never candidates: dispatch everything, fill the
        // queue again, and observe rejections rather than eviction.
        let (tid, ..) = q.pop_next().unwrap();
        let (tid2, ..) = q.pop_next().unwrap();
        assert_eq!((tid, tid2), (t(0), t(0)));
        q.push(t(0), j(4), 0, ());
        q.push(t(0), j(5), 0, ());
        assert!(matches!(
            q.push(t(0), j(6), 9, ()),
            Admission::Admitted { victims } if victims.len() == 1
        ));
        assert_eq!(q.running(t(0)), 2, "running jobs untouched by shedding");
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let mut q: JobQueue<()> = JobQueue::new(4);
        assert!(matches!(
            q.push(t(9), j(0), 0, ()),
            Admission::Rejected { .. }
        ));
    }

    #[test]
    fn reactivated_tenant_forfeits_banked_credit() {
        let mut q = JobQueue::new(64);
        q.register_tenant(t(0), 1, None);
        q.register_tenant(t(1), 1, None);
        // Tenant 1 runs alone for a while, advancing its pass far ahead.
        for i in 0..10 {
            q.push(t(1), j(i), 0, ());
        }
        for _ in 0..10 {
            let (tid, ..) = q.pop_next().unwrap();
            q.note_done(tid);
        }
        // Tenant 0 wakes up. Without vtime catch-up it would now win the
        // next 10 dispatches on banked credit; with it, service alternates.
        for i in 10..16 {
            q.push(t(i % 2), j(i), 0, ());
        }
        let order = drain_order(&mut q);
        let t0_in_first_four = order[..4].iter().filter(|id| **id == t(0)).count();
        assert_eq!(t0_in_first_four, 2, "alternating service in {order:?}");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Fair-share invariant: while every tenant is backlogged,
            /// each receives at least its weight-proportional share of
            /// dispatches (minus a one-round constant) — which implies no
            /// nonzero-weight tenant is ever starved.
            #[test]
            fn backlogged_tenants_get_weight_proportional_service(
                weights in proptest::collection::vec(1u32..=9, 2..=6),
                jobs_per in 8usize..=24,
            ) {
                let mut q = JobQueue::new(weights.len() * jobs_per);
                for (i, w) in weights.iter().enumerate() {
                    q.register_tenant(t(i as u64), *w, None);
                }
                let mut id = 0u64;
                for (i, _) in weights.iter().enumerate() {
                    for _ in 0..jobs_per {
                        prop_assert!(matches!(
                            q.push(t(i as u64), j(id), 0, ()),
                            Admission::Admitted { .. }
                        ));
                        id += 1;
                    }
                }
                let order = drain_order(&mut q);
                prop_assert_eq!(order.len(), weights.len() * jobs_per);

                // Measure the prefix during which every tenant still had
                // pending work (up to the first exhaustion).
                let mut remaining: Vec<usize> = vec![jobs_per; weights.len()];
                let mut prefix = Vec::new();
                for tid in &order {
                    prefix.push(*tid);
                    let slot = &mut remaining[tid.index()];
                    *slot -= 1;
                    if *slot == 0 {
                        break;
                    }
                }
                let total_w: u64 = weights.iter().map(|w| u64::from(*w)).sum();
                let len = prefix.len() as u64;
                for (i, w) in weights.iter().enumerate() {
                    let got = prefix.iter().filter(|id| **id == t(i as u64)).count() as u64;
                    let fair = len * u64::from(*w) / total_w;
                    let slack = weights.len() as u64;
                    prop_assert!(
                        got + slack >= fair,
                        "tenant {} weight {} got {} of {} pops, fair share {}",
                        i, w, got, len, fair
                    );
                }
            }

            /// Conservation: every admitted entry is either dispatched or
            /// shed exactly once; nothing is lost or duplicated.
            #[test]
            fn entries_are_conserved_under_overload(
                ops in proptest::collection::vec((0u64..4, 0u8..4), 1..=120),
            ) {
                let mut q = JobQueue::new(8);
                for i in 0..4u64 {
                    q.register_tenant(t(i), (i as u32) + 1, None);
                }
                let mut admitted = std::collections::HashSet::new();
                let mut out = std::collections::HashSet::new();
                for (n, (tenant, priority)) in ops.iter().enumerate() {
                    let job = j(n as u64);
                    match q.push(t(*tenant), job, *priority, ()) {
                        Admission::Admitted { victims } => {
                            admitted.insert(job);
                            for v in victims {
                                prop_assert!(v.priority < *priority);
                                prop_assert!(out.insert(v.job), "double-shed {:?}", v.job);
                            }
                        }
                        Admission::Rejected { .. } => {}
                    }
                }
                while let Some((tid, job, ())) = q.pop_next() {
                    q.note_done(tid);
                    prop_assert!(out.insert(job), "double-dispatch {:?}", job);
                }
                prop_assert_eq!(&out, &admitted);
                prop_assert_eq!(q.pending_len(), 0);
            }
        }
    }
}
