//! The metric tables: every name the benchmark reports, with its unit and
//! direction, and for the end-to-end ones the bound by which a median may
//! worsen before a change counts as a regression. `BENCHMARK.json` is
//! generated from these tables (`--manifest`) and `tests/smoke.rs` holds
//! the committed file to them.

use crate::stats::Summary;
use crate::workloads::{Outcome, Report, RUN_SECONDS};
use crate::world::Workload;
use serde_json::{json, Value};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median a median may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system would feel: the ISSUE's eight. A bound has to
/// hold three things when the benchmark itself is accepted, on ten runs a
/// side: the gap between the two medians, and the quartile spread of either
/// side, on every workload at once. This box's speed changes by the minute
/// (the same `heavy` job read 1.54 s, then 2.34 s ten minutes later, with
/// no steal time reported), and in such an hour ten runs of any workload
/// spread 0.12 to 0.15 wide: every bound is the widest the contract allows.
/// `perf/AA.json` backs them and the README ("A/A") says why they are not
/// the ISSUE's.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("makespan_s", "s", "lower", 0.25),
    e2e("families_per_s", "1/s", "higher", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    // Absolute: any failure fails the run.
    e2e("fail_share", "ratio", "lower", 0.0),
    e2e("query_p50_us", "us", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
];

/// Whether `BENCHMARK.json` may list an end-to-end metric as one: its
/// contract wants each of them from every run of every workload and none
/// that reads 0. `fail_share` is 0 on a correct run and the two query
/// metrics exist on `serve` alone, so the file lists those three under
/// `per_layer`; `--aa` holds them to their bounds all the same.
pub fn every_run(m: &Metric) -> bool {
    !matches!(m.name, "fail_share" | "query_p50_us" | "queries_per_s")
}

/// Whether `workload` measures the end-to-end metric `m` (the others read
/// 0, as a layer that a workload does not exercise does).
pub fn measured_by(m: &Metric, workload: Workload) -> bool {
    every_run(m) || m.name == "fail_share" || workload == Workload::Serve
}

/// One layer each, named after its module. A workload that does not
/// exercise a layer reports its metrics as 0 (README, "Per-layer metrics").
pub const PER_LAYER: &[Metric] = &[
    layer("trace.overhead_share", "ratio", "lower"),
    layer("service.world_build_s", "s", "lower"),
    layer("service.crawl_s", "s", "lower"),
    layer("service.plan_s", "s", "lower"),
    layer("service.stage_s", "s", "lower"),
    layer("service.dispatch_s", "s", "lower"),
    layer("service.extract_s", "s", "lower"),
    layer("service.index_s", "s", "lower"),
    layer("service.unattributed_s", "s", "lower"),
    layer("service.waves", "count", "lower"),
    layer("crawler.crawl_s", "s", "lower"),
    layer("crawler.files", "count", "higher"),
    layer("crawler.dirs", "count", "higher"),
    layer("families.build_s", "s", "lower"),
    layer("families.count", "count", "higher"),
    layer("families.redundant_files", "count", "lower"),
    layer("planner.plan_us_per_family", "us", "lower"),
    layer("transfer.stage_s", "s", "lower"),
    layer("transfer.bytes", "B", "lower"),
    layer("transfer.mb_per_s", "MB/s", "higher"),
    layer("batcher.push_flush_us_per_family", "us", "lower"),
    layer("batcher.tasks", "count", "lower"),
    layer("payload.encode_us_per_family", "us", "lower"),
    layer("payload.decode_us_per_family", "us", "lower"),
    layer("payload.bytes", "B", "lower"),
    layer("faas.submit_poll_us_per_task", "us", "lower"),
    layer("faas.tasks", "count", "lower"),
    layer("faas.cold_starts", "count", "lower"),
    layer("faas.warm_hits", "count", "higher"),
    layer("datafabric.read_s", "s", "lower"),
    layer("extractors.busy_s", "s", "lower"),
    layer("extractors.invocations", "count", "lower"),
    layer("extractors.mb_per_s", "MB/s", "higher"),
    layer("recovery.append_us_per_record", "us", "lower"),
    layer("recovery.append_sync_us_per_commit", "us", "lower"),
    layer("recovery.bytes", "B", "lower"),
    layer("recovery.segments", "count", "lower"),
    layer("recovery.replay_s", "s", "lower"),
    layer("recovery.replay_records", "count", "lower"),
    layer("recovery.truncated", "count", "lower"),
    layer("validator.validate_us_per_record", "us", "lower"),
    layer("index.ingest_us_per_record", "us", "lower"),
    layer("index.replace_us_per_record", "us", "lower"),
    layer("index.query_idle_p50_us", "us", "lower"),
    layer("index.query_p99_us", "us", "lower"),
    layer("index.query_samples", "count", "higher"),
    layer("index.publishes", "count", "lower"),
    layer("index.compactions", "count", "lower"),
    layer("jobs.submit_to_dispatch_us", "us", "lower"),
    layer("tenancy.charges", "count", "lower"),
    layer("shard.partition_us_per_family", "us", "lower"),
    layer("shard.stolen_families", "count", "lower"),
    layer("shard.wal_records", "count", "lower"),
    layer("shard.inproc_makespan_s", "s", "lower"),
    layer("transport.wire_roundtrip_us", "us", "lower"),
    layer("transport.local_roundtrip_us", "us", "lower"),
    layer("transport.frames_sent", "count", "lower"),
    layer("transport.frames_recv", "count", "lower"),
    layer("obs.counter_by_name_ns", "ns", "lower"),
    layer("obs.counter_handle_ns", "ns", "lower"),
    layer("obs.journal_record_ns", "ns", "lower"),
    layer("obs.journal_events", "count", "lower"),
    layer("obs.journal_dropped", "count", "lower"),
];

/// The metrics the last line of a report carries, in `BENCHMARK.json`'s
/// two groups.
pub fn tables(report: Report) -> Vec<&'static Metric> {
    let e2e = END_TO_END
        .iter()
        .filter(|m| every_run(m) && report != Report::PerLayer);
    let layers = END_TO_END
        .iter()
        .filter(|m| !every_run(m))
        .chain(PER_LAYER)
        .filter(|_| report != Report::EndToEnd);
    e2e.chain(layers).collect()
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Value {
    let describe = |m: &Metric, bounded: bool| {
        let mut v = json!({"name": m.name, "unit": m.unit, "better": m.better});
        if bounded {
            v["bound"] = json!(m.bound);
        }
        v
    };
    json!({
        "command": ["bash", "perf/run.sh"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": Workload::ALL
            .iter()
            .map(|w| json!({"name": w.name(), "why": w.why()}))
            .collect::<Vec<_>>(),
        "end_to_end": tables(Report::EndToEnd).into_iter().map(|m| describe(m, true)).collect::<Vec<_>>(),
        "per_layer": tables(Report::PerLayer).into_iter().map(|m| describe(m, false)).collect::<Vec<_>>(),
    })
}

/// What was measured for a table's metric in `outcome`, or 0 for a layer
/// the workload does not exercise.
fn summary_of(outcome: &Outcome, metric: &Metric) -> Summary {
    outcome
        .metrics
        .get(metric.name)
        .copied()
        .unwrap_or(Summary::single(0.0))
}

/// The value a run reports for `metric`. An end-to-end metric is the better
/// quartile of its samples (the first where lower is better, else the
/// third), a per-layer one their median. On a shared host a neighbour can
/// only make a repetition worse: the better quartile sets the slower three
/// quarters of a run aside, and unlike the single best repetition it does
/// not jump when one repetition in a busy spell happens to run undisturbed
/// (README, "How a run is measured").
fn value_of(outcome: &Outcome, metric: &Metric) -> f64 {
    let s = summary_of(outcome, metric);
    if END_TO_END.contains(metric) {
        s.better_quartile(metric.better == "lower")
    } else {
        s.median
    }
}

/// One `workload/metric value unit` line per metric of `report` (and with
/// the end-to-end ones all eight of them), with the spread of the
/// repetitions beside it.
pub fn lines(outcome: &Outcome, report: Report) -> Vec<String> {
    let w = outcome.workload.name();
    let mut metrics = tables(report);
    if report == Report::EndToEnd {
        // Beside the five of the last line, the rest of the eight: `--aa`
        // reads them here.
        metrics.extend(END_TO_END.iter().filter(|m| !every_run(m)));
    }
    metrics
        .into_iter()
        .map(|m| {
            let s = summary_of(outcome, m);
            let spread = if s.n > 1 {
                format!(
                    "  (min {} q1 {} median {} q3 {} max {} R={})",
                    s.min, s.q1, s.median, s.q3, s.max, s.n
                )
            } else {
                String::new()
            };
            format!("{w}/{} {} {}{spread}", m.name, value_of(outcome, m), m.unit)
        })
        .collect()
}

/// The last line of a run's output: the contract's JSON object.
pub fn result_line(outcome: &Outcome, report: Report) -> Value {
    let metrics: serde_json::Map<String, Value> = tables(report)
        .into_iter()
        .map(|m| {
            let v = json!({"value": value_of(outcome, m), "unit": m.unit});
            (m.name.to_string(), v)
        })
        .collect();
    json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn allowed(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(allowed(m.name, "_.-", 64), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(allowed(m.unit, "_/%.-", 16), "unit {}", m.unit);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        let (e2e, layers) = (tables(Report::EndToEnd), tables(Report::PerLayer));
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        assert_eq!(e2e.len() + layers.len(), END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }
}
