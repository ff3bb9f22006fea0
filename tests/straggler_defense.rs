//! Straggler defense (§5.8): adaptive deadlines, hedged speculative
//! re-execution, and allocation-lease recovery under injected chaos.
//!
//! * A chaos campaign with a degraded link and a scheduled allocation
//!   expiry must finish *strictly faster* and with *fewer dead letters*
//!   when hedging is on than when it is off.
//! * Every launched hedge resolves exactly once:
//!   `hedge.won + hedge.wasted == hedge.launched`.
//! * First-productive-wins must never double-count: no record carries a
//!   duplicate `(family, extractor)` contribution, and a cancelled hedge
//!   loser never completes a step a second time.

use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract::prelude::*;
use xtract_core::{JobReport, XtractService};
use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope, StorageBackend, Token};
use xtract_faas::EndpointConfig;
use xtract_obs::Event;
use xtract_types::config::ContainerRuntime;

fn full_token(auth: &AuthService) -> Token {
    auth.login(
        "straggler",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    )
}

/// The fault-plan seed: `XTRACT_CHAOS_SEED` when set (the CI chaos
/// matrix sweeps several fixed seeds in `--release`), otherwise the
/// historical default. The hedged-vs-unhedged differentials below are
/// seed-robust: within one seed both runs roll identical staging-link
/// delays, and the scheduled allocation expiries ignore the seed.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("XTRACT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn compute_spec(endpoint: EndpointId, workers: usize) -> EndpointSpec {
    EndpointSpec {
        endpoint,
        read_path: "/data".into(),
        store_path: Some("/stage".into()),
        available_bytes: 1 << 32,
        workers: Some(workers),
        runtime: ContainerRuntime::Docker,
    }
}

fn storage_spec(endpoint: EndpointId) -> EndpointSpec {
    EndpointSpec {
        endpoint,
        read_path: "/data".into(),
        store_path: None,
        available_bytes: 0,
        workers: None,
        runtime: ContainerRuntime::Docker,
    }
}

/// Hedge counters from the service's metrics hub.
fn hedge_counters(svc: &XtractService) -> (u64, u64, u64) {
    let hub = &svc.obs().hub;
    (
        hub.counter_value("hedge.launched", None),
        hub.counter_value("hedge.won", None),
        hub.counter_value("hedge.wasted", None),
    )
}

/// One chaos campaign: eight single-file tabular families (two-step
/// plans: `tabular` then `null-values`) on a storage-only source, a
/// chronically slow primary compute endpoint (2.5 s dispatch delay), a
/// fast secondary, a 10% degraded link, and a scheduled allocation
/// expiry that strikes the primary at the second extraction wave.
///
/// Hedged runs notice the slow primary at the adaptive deadline and
/// speculate to the fast secondary; unhedged runs wait out the dispatch
/// delay and lose every family to the lease expiry.
fn run_chaos(hedge: HedgePolicy) -> (f64, JobReport, (u64, u64, u64), Arc<XtractService>) {
    let fabric = Arc::new(DataFabric::new());
    let src = EndpointId::new(0);
    let prim = EndpointId::new(1);
    let alt = EndpointId::new(2);
    let src_fs = Arc::new(MemFs::new(src));
    for i in 0..8 {
        src_fs
            .write(
                &format!("/data/run{i:02}.csv"),
                Bytes::from(format!(
                    "instrument,temperature,pressure\nprobe-{i},21.{i},101.{i}\nprobe-{i}b,22.{i},102.{i}\n"
                )),
            )
            .unwrap();
    }
    fabric.register(src, "petrel", src_fs);
    fabric.register(prim, "theta", Arc::new(MemFs::new(prim)));
    fabric.register(alt, "river", Arc::new(MemFs::new(alt)));

    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let svc = Arc::new(XtractService::new(fabric, auth, 90));

    let mut spec = JobSpec::single_endpoint(compute_spec(prim, 2), "/data");
    spec.endpoints.push(compute_spec(alt, 2));
    spec.endpoints.push(storage_spec(src));
    spec.roots = vec![(src, "/data".to_string())];
    spec.max_family_size = 1;
    spec.xtract_batch_size = 4;
    // One strike and you're out: a task lost to the expired allocation
    // dead-letters immediately unless a hedge already saved the family.
    spec.retry.task_attempts = 1;
    spec.hedge = hedge;
    // Wave 1 is op 0; the expiry window covers wave 2's submit in both
    // runs (op 1 unhedged; later ops in the hedged run, whose wave-1
    // hedge submits advance the op counter first).
    spec.fault_plan = Some(FaultPlan {
        slow_link_rate: 0.1,
        slow_link_delay_ms: 200,
        allocation_expiries: (1..=4)
            .map(|at_op| AllocationExpiry {
                endpoint: prim,
                at_op,
            })
            .collect(),
        ..FaultPlan::new(chaos_seed(90))
    });
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    svc.connect_endpoint(&spec.endpoints[1]).unwrap();
    // Re-connect the primary's compute layer with a dispatch delay far
    // beyond the hedge deadline: every primary task is a straggler.
    svc.faas().connect_endpoint(EndpointConfig {
        endpoint: prim,
        workers: 2,
        cold_start: Duration::ZERO,
        dispatch_delay: Duration::from_millis(2500),
    });

    let started = Instant::now();
    let report = svc.run_job(token, &spec).unwrap();
    let wall = started.elapsed().as_secs_f64();
    let counters = hedge_counters(&svc);
    (wall, report, counters, svc)
}

/// An aggressive policy for the chaos run: the adaptive deadline pins to
/// the 150 ms ceiling (the sample floor is unreachable, so the quantile
/// path never engages), far below the primary's 2.5 s dispatch delay.
fn aggressive_hedge() -> HedgePolicy {
    HedgePolicy {
        deadline_floor_ms: 100,
        deadline_ceiling_ms: 150,
        min_latency_samples: u64::MAX,
        ..HedgePolicy::default()
    }
}

#[test]
fn hedging_beats_stragglers_and_allocation_expiry() {
    let (base_wall, base, (base_launched, _, _), base_svc) = run_chaos(HedgePolicy::disabled());
    let (hedged_wall, hedged, (launched, won, wasted), svc) = run_chaos(aggressive_hedge());

    // The unhedged run pays the full dispatch delay in wave 1 and then
    // loses wave 2 to the scheduled allocation expiry: with a single
    // task attempt, every family dead-letters.
    assert_eq!(base_launched, 0, "hedging disabled must launch no hedges");
    assert!(
        !base.failures.is_empty(),
        "the allocation expiry must cost the unhedged run families"
    );
    assert_eq!(
        base.records.len() + base.failures.len(),
        base.families as usize,
        "unhedged partition must stay exact"
    );

    // Hedged: every straggler and every lost task is saved by a hedge to
    // the healthy secondary — strictly fewer dead letters, strictly
    // lower makespan.
    assert!(
        hedged.failures.len() < base.failures.len(),
        "hedging must reduce dead letters: {} vs {}",
        hedged.failures.len(),
        base.failures.len()
    );
    assert!(
        hedged_wall < base_wall,
        "hedging must beat the straggler makespan: {hedged_wall}s vs {base_wall}s"
    );
    assert_eq!(
        hedged.records.len() + hedged.failures.len(),
        hedged.families as usize,
        "hedged partition must stay exact"
    );

    // Winner or loser, lost or cancelled: every task either run submitted
    // was forgotten when its entry settled.
    assert_eq!(base_svc.faas().tracked_tasks(), vec![]);
    assert_eq!(svc.faas().tracked_tasks(), vec![]);

    // Exactly-once hedge accounting.
    assert!(launched > 0, "the chaos run must actually hedge");
    assert_eq!(
        won + wasted,
        launched,
        "every hedge resolves exactly once: {won} won + {wasted} wasted != {launched} launched"
    );

    // First-productive-wins must never double-count an extractor step.
    for r in &hedged.records {
        let mut seen = r.extractors.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(
            seen.len(),
            r.extractors.len(),
            "family {:?} recorded a duplicate extractor contribution: {:?}",
            r.family,
            r.extractors
        );
    }

    // The journal tells the story: hedges launched and won, the lease
    // expiry observed — and, with the watchdog on, the lease renewed.
    let events = svc.obs().journal.events();
    assert!(
        events
            .iter()
            .any(|r| matches!(r.event, Event::TaskHedged { .. })),
        "no TaskHedged event journaled"
    );
    assert!(
        events
            .iter()
            .any(|r| matches!(r.event, Event::HedgeWon { .. })),
        "no HedgeWon event journaled"
    );
    assert!(
        events
            .iter()
            .any(|r| matches!(r.event, Event::AllocationExpired { .. })),
        "no AllocationExpired event journaled"
    );
    assert!(
        events
            .iter()
            .any(|r| matches!(r.event, Event::AllocationRenewed { .. })),
        "the lease watchdog never renewed the expired allocation"
    );
    let base_events = base_svc.obs().journal.events();
    assert!(
        base_events
            .iter()
            .any(|r| matches!(r.event, Event::AllocationExpired { .. })),
        "the unhedged run must observe the same scheduled expiry"
    );
}

/// Regression: when the *primary* wins, the cancelled hedge loser counts
/// as `hedge.wasted` but must never fold its result into the family —
/// one completed step per `(family, extractor)`, no matter how many
/// speculative copies were in flight.
#[test]
fn cancelled_hedge_loser_never_double_flushes_checkpoint() {
    let fabric = Arc::new(DataFabric::new());
    let src = EndpointId::new(0);
    let prim = EndpointId::new(1);
    let alt = EndpointId::new(2);
    let src_fs = Arc::new(MemFs::new(src));
    for i in 0..2 {
        src_fs
            .write(
                &format!("/data/notes{i}.txt"),
                Bytes::from(format!(
                    "field notes {i}: spectroscopy calibration and sample storage observations"
                )),
            )
            .unwrap();
    }
    fabric.register(src, "petrel", src_fs);
    fabric.register(prim, "theta", Arc::new(MemFs::new(prim)));
    fabric.register(alt, "river", Arc::new(MemFs::new(alt)));

    let auth = Arc::new(AuthService::new());
    let token = full_token(&auth);
    let svc = XtractService::new(fabric, auth, 91);

    let mut spec = JobSpec::single_endpoint(compute_spec(prim, 2), "/data");
    spec.endpoints.push(compute_spec(alt, 2));
    spec.endpoints.push(storage_spec(src));
    spec.roots = vec![(src, "/data".to_string())];
    spec.max_family_size = 1;
    spec.xtract_batch_size = 1;
    spec.hedge = HedgePolicy {
        deadline_floor_ms: 50,
        deadline_ceiling_ms: 100,
        min_latency_samples: u64::MAX,
        ..HedgePolicy::default()
    };
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    svc.connect_endpoint(&spec.endpoints[1]).unwrap();
    // The primary is slow enough to breach the 100 ms deadline but still
    // finishes long before the hedge: the secondary's dispatch delay
    // guarantees every hedge loses the race and is cancelled.
    svc.faas().connect_endpoint(EndpointConfig {
        endpoint: prim,
        workers: 2,
        cold_start: Duration::ZERO,
        dispatch_delay: Duration::from_millis(300),
    });
    svc.faas().connect_endpoint(EndpointConfig {
        endpoint: alt,
        workers: 2,
        cold_start: Duration::ZERO,
        dispatch_delay: Duration::from_millis(5000),
    });

    let report = svc.run_job(token, &spec).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.records.len(), 2, "both families must complete");

    let hub = &svc.obs().hub;
    let launched = hub.counter_value("hedge.launched", None);
    let won = hub.counter_value("hedge.won", None);
    let wasted = hub.counter_value("hedge.wasted", None);
    assert!(launched > 0, "the slow primary must trigger hedges");
    assert_eq!(won, 0, "the primary always wins this race");
    assert_eq!(wasted, launched, "every hedge loser is accounted wasted");
    // The losers are still waiting out the secondary's dispatch delay, and
    // the fabric has already forgotten them along with the winners: their
    // late `Cancelled` has no row to land in.
    assert_eq!(svc.faas().tracked_tasks(), vec![]);

    // Free-text families run a single `keyword` step: exactly one
    // completed step per family, even though a speculative copy of
    // each task was cancelled mid-flight.
    let completed = hub.counter_value("steps.completed", None);
    assert_eq!(
        completed,
        report.records.len() as u64,
        "a cancelled hedge loser must not complete its step a second time"
    );
    for r in &report.records {
        assert_eq!(
            r.extractors.len(),
            1,
            "family {:?} must carry exactly one extractor contribution: {:?}",
            r.family,
            r.extractors
        );
    }

    // The journal recorded each hedge's launch and loss.
    let events = svc.obs().journal.events();
    let launched_events = events
        .iter()
        .filter(|r| matches!(r.event, Event::TaskHedged { .. }))
        .count();
    let lost_events = events
        .iter()
        .filter(|r| matches!(r.event, Event::HedgeLost { .. }))
        .count();
    assert_eq!(launched_events as u64, launched);
    assert_eq!(lost_events as u64, wasted);
}
