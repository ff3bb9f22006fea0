//! **BENCH_batching** — the tracked perf trajectory for adaptive
//! two-level batching.
//!
//! Reruns the Fig. 5 sweep (100 000 MaterialsIO tasks, 224 Midway
//! workers) over the full static `(xtract, funcx)` grid, then lets the
//! adaptive controller start from a deliberately bad grid point (2, 2)
//! and tune online. Writes the comparison — plus microbenchmarks of the
//! controller's hot path — to `BENCH_batching.json` at the repo root so
//! every PR has a measured trajectory.
//!
//! Acceptance encoded in the `criteria` object: the adaptive makespan
//! must be ≤ the best static grid point × 1.1 and strictly beat both
//! static extremes (1, 1) and (32, 32).

use std::fmt::Write as _;
use std::time::Instant;
use xtract_bench::matio_lite_profiles;
use xtract_core::adaptive::{AdaptiveTuner, WaveEvidence};
use xtract_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use xtract_sim::sites;
use xtract_types::{AdaptiveBatching, EndpointId};

const SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];
const TASKS: u64 = 100_000;
const WORKERS: usize = 224;
const SEED: u64 = 55;
const PROFILE_SEED: u64 = 5;
/// The adaptive run's deliberately bad starting grid point.
const START: (usize, usize) = (2, 2);

fn config(xb: usize, fb: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(sites::midway(), WORKERS, SEED);
    cfg.xtract_batch = xb;
    cfg.funcx_batch = fb;
    cfg
}

fn static_run(xb: usize, fb: usize) -> CampaignReport {
    Campaign::new(config(xb, fb), matio_lite_profiles(TASKS, PROFILE_SEED)).run()
}

fn adaptive_run() -> CampaignReport {
    let mut cfg = config(START.0, START.1);
    cfg.adaptive = Some(AdaptiveBatching::enabled());
    Campaign::new(cfg, matio_lite_profiles(TASKS, PROFILE_SEED)).run()
}

/// ns/call for `Histogram::quantile` on a populated multi-bucket
/// histogram — the controller queries it per endpoint per wave, which is
/// why the satellite made it allocation-free.
fn bench_quantile_ns() -> f64 {
    let bounds: Vec<f64> = (1..=40).map(|i| i as f64 * 0.25).collect();
    let h = xtract_obs::Histogram::new(&bounds);
    for i in 0..100_000u64 {
        h.observe((i % 997) as f64 * 0.01);
    }
    let iters = 100_000u32;
    let t0 = Instant::now();
    let mut acc = 0.0;
    for i in 0..iters {
        acc += h.quantile(f64::from(i % 100) / 100.0).unwrap_or_default();
    }
    let ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
    assert!(acc.is_finite());
    ns
}

/// ns/call for one controller observe+limits round trip.
fn bench_tuner_ns() -> f64 {
    let mut t = AdaptiveTuner::new(2, 2);
    let ep = EndpointId::new(0);
    let iters = 100_000u32;
    let t0 = Instant::now();
    let mut acc = 0usize;
    for i in 0..iters {
        let ev = WaveEvidence {
            p50_latency_s: Some(1.0 + f64::from(i % 7) * 0.1),
            samples: 100,
            families: 100,
            breaches: u64::from(i % 19 == 0),
            breaker_open: false,
        };
        t.observe_wave(ep, &ev);
        acc += t.limits(ep).xtract;
    }
    let ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
    assert!(acc > 0);
    ns
}

fn main() {
    xtract_bench::banner(
        "BENCH_batching: static grid vs adaptive controller, 100k MaterialsIO tasks, 224 Midway workers",
        "adaptive makespan <= best static x 1.1, strictly beating (1,1) and (32,32)",
    );

    let mut grid_json = String::new();
    let mut best = (0usize, 0usize, f64::INFINITY);
    let mut extremes = (0.0f64, 0.0f64); // makespans at (1,1) and (32,32)
    println!("\n  static makespan (s); rows = Xtract batch, cols = funcX batch");
    print!("  xb\\fb ");
    for fb in SIZES {
        print!("  {fb:>8}");
    }
    println!();
    for xb in SIZES {
        print!("  {xb:>5} ");
        for fb in SIZES {
            let r = static_run(xb, fb);
            let m = r.makespan;
            if m < best.2 {
                best = (xb, fb, m);
            }
            if (xb, fb) == (1, 1) {
                extremes.0 = m;
            }
            if (xb, fb) == (32, 32) {
                extremes.1 = m;
            }
            if !grid_json.is_empty() {
                grid_json.push(',');
            }
            let _ = write!(
                grid_json,
                "\n    {{\"xtract\": {xb}, \"funcx\": {fb}, \"makespan_s\": {m:.3}, \"tasks_per_s\": {:.3}}}",
                r.throughput()
            );
            print!("  {m:>8.1}");
        }
        println!();
    }

    let adaptive = adaptive_run();
    let am = adaptive.makespan;
    let final_limits = adaptive.batch_trajectory.last().copied().unwrap_or(START);
    let mut traj_json = String::new();
    for &(x, f) in &adaptive.batch_trajectory {
        if !traj_json.is_empty() {
            traj_json.push_str(", ");
        }
        let _ = write!(traj_json, "[{x}, {f}]");
    }

    let ratio = am / best.2;
    let beats_1_1 = am < extremes.0;
    let beats_32_32 = am < extremes.1;
    let within = ratio <= 1.1;

    println!(
        "\n  best static: ({}, {}) -> {:.1} s",
        best.0, best.1, best.2
    );
    println!(
        "  adaptive from {:?}: {:.1} s over {} control blocks, final limits ({}, {})",
        START,
        am,
        adaptive.batch_trajectory.len(),
        final_limits.0,
        final_limits.1
    );
    println!(
        "  adaptive/best-static = {:.3} (need <= 1.1); beats (1,1): {} [{:.1} s]; beats (32,32): {} [{:.1} s]",
        ratio, beats_1_1, extremes.0, beats_32_32, extremes.1
    );

    let quantile_ns = bench_quantile_ns();
    let tuner_ns = bench_tuner_ns();
    println!("  micro: Histogram::quantile {quantile_ns:.0} ns/call, tuner round trip {tuner_ns:.0} ns/call");

    // serde_json is deliberately not used here: the JSON is flat and the
    // manual rendering keeps the bench runnable in the offline stub
    // environment as well as CI.
    let json = format!(
        "{{\n  \"bench\": \"batching\",\n  \"generated_by\": \"cargo bench --bench bench_batching\",\n  \"workload\": {{\"tasks\": {TASKS}, \"workers\": {WORKERS}, \"site\": \"midway\", \"seed\": {SEED}, \"profile_seed\": {PROFILE_SEED}}},\n  \"static_grid\": [{grid_json}\n  ],\n  \"best_static\": {{\"xtract\": {}, \"funcx\": {}, \"makespan_s\": {:.3}}},\n  \"static_extremes\": {{\"makespan_1_1_s\": {:.3}, \"makespan_32_32_s\": {:.3}}},\n  \"adaptive\": {{\n    \"start\": [{}, {}],\n    \"makespan_s\": {am:.3},\n    \"tasks_per_s\": {:.3},\n    \"control_blocks\": {},\n    \"final_limits\": [{}, {}],\n    \"trajectory\": [{traj_json}]\n  }},\n  \"criteria\": {{\n    \"adaptive_vs_best_static\": {ratio:.4},\n    \"within_1_1x_of_best_static\": {within},\n    \"beats_1_1\": {beats_1_1},\n    \"beats_32_32\": {beats_32_32}\n  }},\n  \"micro\": {{\"histogram_quantile_ns\": {quantile_ns:.1}, \"tuner_round_trip_ns\": {tuner_ns:.1}}}\n}}\n",
        best.0,
        best.1,
        best.2,
        extremes.0,
        extremes.1,
        START.0,
        START.1,
        adaptive.throughput(),
        adaptive.batch_trajectory.len(),
        final_limits.0,
        final_limits.1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batching.json");
    std::fs::write(path, &json).expect("write BENCH_batching.json");
    println!("  wrote {path}");

    assert!(
        within && beats_1_1 && beats_32_32,
        "acceptance criteria failed: ratio {ratio:.3}, beats_1_1 {beats_1_1}, beats_32_32 {beats_32_32}"
    );
}
