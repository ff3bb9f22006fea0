//! Multi-tenant state: per-tenant quota ledgers, shared breaker scope,
//! and the registry the [`crate::jobs::JobService`] schedules from.
//!
//! One tenant owns every job it submits. The quota ledger is charged
//! *before* the resource is consumed — a refused charge means the FaaS
//! batch is never submitted, the transfer never leaves — so a tenant can
//! never overspend its [`TenantQuota`] no matter how many of its jobs
//! run concurrently. Every accepted charge is journaled as
//! [`Event::QuotaCharged`], so an independent journal scan reproduces the
//! ledger's totals (the chaos tests assert exactly that).
//!
//! Breaker state is tenant-scoped: all of one tenant's jobs share one
//! [`HealthTracker`], so one tenant's chaos opens *its* breakers without
//! poisoning the health view of anyone else's jobs.

use crate::resilience::HealthTracker;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use xtract_obs::{Counter, Event, Obs};
use xtract_types::id::IdAllocator;
use xtract_types::{
    HedgePolicy, QuotaResource, Result, RetryPolicy, TenantId, TenantQuota, TenantSpec, XtractError,
};

/// Lock-free spent-so-far accounting for one tenant. Charges commit via
/// compare-and-swap against the limit, so concurrent waves from several
/// of the tenant's jobs can never jointly exceed it.
#[derive(Debug, Default)]
pub struct QuotaLedger {
    limits: TenantQuota,
    invocations: AtomicU64,
    transfer_bytes: AtomicU64,
    retries: AtomicU64,
}

impl QuotaLedger {
    /// A ledger enforcing `limits`.
    pub fn new(limits: TenantQuota) -> Self {
        Self {
            limits,
            invocations: AtomicU64::new(0),
            transfer_bytes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    fn cell(&self, resource: QuotaResource) -> &AtomicU64 {
        match resource {
            QuotaResource::Invocations => &self.invocations,
            QuotaResource::TransferBytes => &self.transfer_bytes,
            QuotaResource::RetryBudget => &self.retries,
            // Concurrency is a gauge the scheduler owns (running counts in
            // the queue), not a consumable; nothing accumulates here.
            QuotaResource::ConcurrentJobs => &self.invocations,
        }
    }

    /// Charges `amount` units of `resource`, committing only when the
    /// result stays within the limit. Returns `true` when the charge
    /// landed. Unlimited resources always accept.
    pub fn try_charge(&self, resource: QuotaResource, amount: u64) -> bool {
        let Some(limit) = self.limits.limit(resource) else {
            self.cell(resource).fetch_add(amount, Ordering::Relaxed);
            return true;
        };
        let cell = self.cell(resource);
        let mut spent = cell.load(Ordering::Relaxed);
        loop {
            let Some(next) = spent.checked_add(amount) else {
                return false;
            };
            if next > limit {
                return false;
            }
            match cell.compare_exchange_weak(spent, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(actual) => spent = actual,
            }
        }
    }

    /// Units of `resource` charged so far.
    pub fn spent(&self, resource: QuotaResource) -> u64 {
        self.cell(resource).load(Ordering::Relaxed)
    }

    /// Units of `resource` still chargeable, or `None` for an unlimited
    /// resource. The adaptive batching controller reads this to cap
    /// effective funcX batch growth: a nearly-spent invocation budget
    /// shrinks the request size so the final charges fit instead of
    /// bouncing a whole oversized batch off the limit.
    pub fn headroom(&self, resource: QuotaResource) -> Option<u64> {
        self.limits
            .limit(resource)
            .map(|limit| limit.saturating_sub(self.spent(resource)))
    }

    /// True when `resource` has no headroom left for even one more unit.
    pub fn exhausted(&self, resource: QuotaResource) -> bool {
        self.limits
            .limit(resource)
            .is_some_and(|limit| self.spent(resource) >= limit)
    }

    /// The configured limits.
    pub fn limits(&self) -> &TenantQuota {
        &self.limits
    }
}

/// A tenant's `quota.*` counters, labeled by its id. Each is interned by
/// the first charge that needs it, so a snapshot lists a resource only once
/// the tenant was charged for it; every later charge adds through the
/// handle instead of formatting and looking up two strings.
#[derive(Default)]
struct QuotaCounters {
    /// `quota.<resource>`, indexed by `QuotaResource as usize`.
    charged: [OnceLock<Counter>; 4],
    exhausted: OnceLock<Counter>,
}

/// One registered tenant's live state: its spec, its quota ledger, and
/// its (lazily created) shared health tracker.
pub struct TenantCtx {
    id: TenantId,
    spec: TenantSpec,
    ledger: QuotaLedger,
    health: Mutex<Option<Arc<Mutex<HealthTracker>>>>,
    obs: Obs,
    counters: QuotaCounters,
}

impl TenantCtx {
    fn new(id: TenantId, spec: TenantSpec, obs: Obs) -> Self {
        let ledger = QuotaLedger::new(spec.quota);
        Self {
            id,
            spec,
            ledger,
            health: Mutex::new(None),
            obs,
            counters: QuotaCounters::default(),
        }
    }

    /// The tenant's id.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's registered spec (name, weight, quota).
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The tenant's quota ledger.
    pub fn ledger(&self) -> &QuotaLedger {
        &self.ledger
    }

    /// Charges `amount` units of `resource` against the tenant, before
    /// the resource is consumed. An accepted charge is journaled and
    /// counted (`quota.<resource>` labeled by tenant); a refused one
    /// journals [`Event::QuotaExhausted`] and surfaces as the typed
    /// [`XtractError::QuotaExhausted`] the caller propagates.
    pub fn charge(&self, resource: QuotaResource, amount: u64) -> Result<()> {
        if self.ledger.try_charge(resource, amount) {
            self.obs.journal.record(Event::QuotaCharged {
                tenant: self.id,
                resource: resource.name().to_string(),
                amount,
            });
            self.counters.charged[resource as usize]
                .get_or_init(|| {
                    self.obs.hub.counter_with(
                        &format!("quota.{}", resource.name()),
                        Some(&self.id.to_string()),
                    )
                })
                .add(amount);
            Ok(())
        } else {
            self.obs.journal.record(Event::QuotaExhausted {
                tenant: self.id,
                resource: resource.name().to_string(),
            });
            self.counters
                .exhausted
                .get_or_init(|| {
                    self.obs
                        .hub
                        .counter_with("quota.exhausted", Some(&self.id.to_string()))
                })
                .incr();
            Err(XtractError::QuotaExhausted {
                tenant: self.id,
                resource: resource.name().to_string(),
            })
        }
    }

    /// True when any consumable quota is already spent to its limit —
    /// the admission-control gate: submitting more work is pointless
    /// until the operator raises the limit.
    pub fn any_exhausted(&self) -> bool {
        [QuotaResource::Invocations, QuotaResource::TransferBytes]
            .into_iter()
            .any(|r| self.ledger.exhausted(r))
    }

    /// The tenant's shared health tracker, created from the first job's
    /// policies and reused by every later job: breaker and quarantine
    /// state accumulates per *tenant*, not per job.
    pub fn health(&self, retry: &RetryPolicy, hedge: &HedgePolicy) -> Arc<Mutex<HealthTracker>> {
        let mut slot = self.health.lock();
        slot.get_or_insert_with(|| {
            Arc::new(Mutex::new(
                HealthTracker::with_journal(retry, self.obs.journal.clone()).with_quarantine(hedge),
            ))
        })
        .clone()
    }
}

impl std::fmt::Debug for TenantCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantCtx")
            .field("id", &self.id)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// The tenant registry: id allocation plus lookup for the scheduler.
pub struct TenantRegistry {
    tenants: Mutex<HashMap<TenantId, Arc<TenantCtx>>>,
    ids: IdAllocator,
    obs: Obs,
}

impl TenantRegistry {
    /// A registry reporting into `obs`.
    pub fn new(obs: Obs) -> Self {
        Self {
            tenants: Mutex::new(HashMap::new()),
            ids: IdAllocator::new(),
            obs,
        }
    }

    /// Registers a tenant; its spec must validate.
    pub fn register(&self, spec: TenantSpec) -> Result<TenantId> {
        spec.validate()?;
        let id = TenantId::new(self.ids.next());
        let ctx = Arc::new(TenantCtx::new(id, spec, self.obs.clone()));
        self.tenants.lock().insert(id, ctx);
        Ok(id)
    }

    /// Looks a tenant up.
    pub fn get(&self, id: TenantId) -> Option<Arc<TenantCtx>> {
        self.tenants.lock().get(&id).cloned()
    }

    /// All registered tenant ids, sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.tenants.lock().keys().copied().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(invocations: u64, bytes: u64) -> TenantQuota {
        TenantQuota {
            max_invocations: Some(invocations),
            max_transfer_bytes: Some(bytes),
            ..TenantQuota::unlimited()
        }
    }

    #[test]
    fn charges_commit_only_within_the_limit() {
        let l = QuotaLedger::new(quota(10, 100));
        assert!(l.try_charge(QuotaResource::Invocations, 6));
        assert!(l.try_charge(QuotaResource::Invocations, 4));
        assert!(!l.try_charge(QuotaResource::Invocations, 1));
        assert_eq!(l.spent(QuotaResource::Invocations), 10);
        assert!(l.exhausted(QuotaResource::Invocations));
        // A refused charge leaves the ledger untouched.
        assert!(!l.try_charge(QuotaResource::TransferBytes, 101));
        assert_eq!(l.spent(QuotaResource::TransferBytes), 0);
        assert!(!l.exhausted(QuotaResource::TransferBytes));
    }

    #[test]
    fn unlimited_resources_always_accept_but_still_account() {
        let l = QuotaLedger::new(TenantQuota::unlimited());
        assert!(l.try_charge(QuotaResource::TransferBytes, u64::MAX / 2));
        assert!(l.try_charge(QuotaResource::RetryBudget, 3));
        assert_eq!(l.spent(QuotaResource::RetryBudget), 3);
        assert!(!l.exhausted(QuotaResource::RetryBudget));
    }

    #[test]
    fn concurrent_charges_never_jointly_overspend() {
        let l = Arc::new(QuotaLedger::new(quota(1000, u64::MAX)));
        let accepted = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = l.clone();
                let accepted = accepted.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        if l.try_charge(QuotaResource::Invocations, 1) {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(accepted.load(Ordering::Relaxed), 1000);
        assert_eq!(l.spent(QuotaResource::Invocations), 1000);
    }

    #[test]
    fn tenant_charge_journals_and_counts_exactly() {
        let obs = Obs::new();
        let registry = TenantRegistry::new(obs.clone());
        let id = registry
            .register(TenantSpec::new("acme", 2).with_quota(quota(5, 1000)))
            .unwrap();
        let ctx = registry.get(id).unwrap();
        assert!(ctx.charge(QuotaResource::Invocations, 3).is_ok());
        assert!(ctx.charge(QuotaResource::Invocations, 2).is_ok());
        let err = ctx.charge(QuotaResource::Invocations, 1).unwrap_err();
        assert!(matches!(err, XtractError::QuotaExhausted { .. }));
        assert!(ctx.any_exhausted());

        // The journal's accepted charges sum to the ledger's spent total.
        let journaled: u64 = obs
            .journal
            .events()
            .iter()
            .filter_map(|r| match &r.event {
                Event::QuotaCharged {
                    tenant,
                    resource,
                    amount,
                } if *tenant == id && resource == "invocations" => Some(*amount),
                _ => None,
            })
            .sum();
        assert_eq!(journaled, ctx.ledger().spent(QuotaResource::Invocations));
        let label = id.to_string();
        assert_eq!(obs.hub.counter_value("quota.invocations", Some(&label)), 5);
        assert_eq!(obs.hub.counter_value("quota.exhausted", Some(&label)), 1);
    }

    #[test]
    fn registry_rejects_invalid_specs_and_allocates_distinct_ids() {
        let registry = TenantRegistry::new(Obs::new());
        assert!(registry.register(TenantSpec::new("", 1)).is_err());
        assert!(registry.register(TenantSpec::new("zero", 0)).is_err());
        let a = registry.register(TenantSpec::new("a", 1)).unwrap();
        let b = registry.register(TenantSpec::new("b", 3)).unwrap();
        assert_ne!(a, b);
        assert_eq!(registry.tenants(), vec![a, b]);
        assert_eq!(registry.get(b).unwrap().spec().weight, 3);
    }

    #[test]
    fn health_tracker_is_shared_across_a_tenants_jobs() {
        let registry = TenantRegistry::new(Obs::new());
        let id = registry.register(TenantSpec::new("t", 1)).unwrap();
        let ctx = registry.get(id).unwrap();
        let retry = RetryPolicy::default();
        let hedge = HedgePolicy::default();
        let h1 = ctx.health(&retry, &hedge);
        let h2 = ctx.health(&retry, &hedge);
        assert!(Arc::ptr_eq(&h1, &h2));
        h1.lock().record_failure(xtract_types::EndpointId::new(7));
        assert_eq!(h2.lock().failures(xtract_types::EndpointId::new(7)), 1);
    }
}
