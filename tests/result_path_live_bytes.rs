//! Peak live heap of one job, against what the job hands back: the guard
//! on "one live copy of a result from worker to record". A result that is
//! alive in the FaaS table, in the poll loop, in a step table and in a
//! merged document at once shows up here as a peak several times the
//! size of the report; a single-owner result path peaks close to it.
//!
//! Its own test binary, and its tests take turns behind a lock: the
//! allocator counts the whole process, so nothing else may run while a job
//! is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xtract::prelude::*;
use xtract_core::{JobReport, XtractService};
use xtract_datafabric::{AuthService, DataFabric, MemFs, Scope, Token};
use xtract_sim::RngStreams;
use xtract_types::config::ContainerRuntime;
use xtract_types::{CrashPoint, FaultPlan, OrchestratorCrash};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the two counters are statistics and publish
// nothing.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Held by whichever test is measuring.
static MEASURING: Mutex<()> = Mutex::new(());

/// A fresh service over the same 2,000-file repository, and its job.
fn rig() -> (XtractService, Token, JobSpec) {
    let ep = EndpointId::new(0);
    let fabric = Arc::new(DataFabric::new());
    let fs = Arc::new(MemFs::new(ep));
    xtract_workloads::materialize::sample_repo(fs.as_ref(), "/data", 2_000, &RngStreams::new(41));
    fabric.register(ep, "midway", fs);
    let auth = Arc::new(AuthService::new());
    let token = auth.login(
        "live-bytes",
        &[
            Scope::Crawl,
            Scope::Extract,
            Scope::Transfer,
            Scope::Validate,
        ],
    );
    let svc = XtractService::new(fabric, auth, 7);
    let spec = JobSpec::single_endpoint(
        EndpointSpec {
            endpoint: ep,
            read_path: "/data".into(),
            store_path: Some("/stage".into()),
            available_bytes: 1 << 32,
            workers: Some(2),
            runtime: ContainerRuntime::Docker,
        },
        "/data",
    );
    svc.connect_endpoint(&spec.endpoints[0]).unwrap();
    (svc, token, spec)
}

fn log_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtract-live-bytes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `job` and returns its report with the peak live heap during the
/// call and the live heap at its return, both over what was live before.
fn measured(job: impl FnOnce() -> JobReport) -> (JobReport, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = job();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let returned = LIVE.load(Ordering::Relaxed) - before;
    println!(
        "{} families: peak live {:.1} MiB, live at return {:.1} MiB ({:.2}x)",
        report.families,
        peak as f64 / (1 << 20) as f64,
        returned as f64 / (1 << 20) as f64,
        peak as f64 / returned as f64
    );
    assert!(report.families >= 2_000, "{} families", report.families);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    (report, peak, returned)
}

#[test]
fn a_jobs_peak_live_heap_stays_close_to_what_it_returns() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (svc, token, spec) = rig();
    let dir = log_dir("fresh");
    let (_report, peak, returned) =
        measured(|| svc.run_job_with_recovery(token, &spec, &dir).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(svc.faas().tracked_tasks(), vec![]);
    // What is live at return is the report (every validated record), the
    // shipped copy of each record on the results endpoint, and the
    // service's own journal and metrics. Measured with the offline
    // stand-ins: 15.7 MiB peak over 12.7 MiB at return (1.24x). With every
    // result alive four times over the wave loop, and the FaaS table
    // keeping all of them past the return, it was 45.4 MiB over 23.5 MiB
    // (1.93x).
    assert!(
        peak * 5 < returned * 8,
        "peak live heap {peak} B is more than 1.6x the {returned} B alive at return"
    );
}

#[test]
fn a_resumed_jobs_peak_live_heap_stays_close_to_what_it_returns() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (svc, token, mut spec) = rig();
    let dir = log_dir("resumed");
    spec.fault_plan = Some(FaultPlan {
        orchestrator_crashes: vec![OrchestratorCrash {
            point: CrashPoint::MidWave,
            at_occurrence: 1,
        }],
        ..FaultPlan::new(3)
    });
    let err = svc.run_job_with_recovery(token, &spec, &dir).unwrap_err();
    assert!(matches!(err, XtractError::OrchestratorKilled { .. }));
    drop(svc);

    // A new service, sharing only the log: it opens the log, replays it,
    // fast-forwards the journaled steps, runs the rest and validates.
    let (svc, token, _) = rig();
    let (report, peak, returned) = measured(|| svc.resume_job(token, &spec, &dir).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.resumed);
    assert!(
        report.replayed_records > 2_000,
        "{}",
        report.replayed_records
    );
    assert_eq!(svc.faas().tracked_tasks(), vec![]);
    // The resumed job returns what the fresh one does; on the way it holds
    // the log's bytes and the records decoded from them, once each.
    // Measured with the offline stand-ins: 16.1 MiB peak over 12.9 MiB at
    // return (1.25x). While the replayed context kept a second handle to
    // every journaled step, so that stage 7 copied each document out
    // instead of taking it over, it was 25.2 MiB over 12.6 MiB (2.00x).
    assert!(
        peak * 5 < returned * 8,
        "peak live heap {peak} B is more than 1.6x the {returned} B alive at return"
    );
}
