//! `--smoke` end to end: every workload at a fiftieth of its size, one
//! repetition, through the real binary, held to `BENCHMARK.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 6] = ["flood", "heavy", "shards", "procs", "serve", "resume"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ has a parent")
        .to_path_buf()
}

/// Runs the benchmark binary from the repository root with its scratch (and
/// corpus cache) in a directory of this test's own; returns its stdout.
fn xtract_perf(args: &[&str], scratch: &str) -> String {
    let scratch = format!("perf/target/smoke-{scratch}-{}", std::process::id());
    let out = Command::new(env!("CARGO_BIN_EXE_xtract-perf"))
        .args(args)
        .current_dir(repo_root())
        .env("XTRACT_PERF_SCRATCH", &scratch)
        .output()
        .expect("the benchmark binary starts");
    let _ = std::fs::remove_dir_all(repo_root().join(&scratch));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "xtract-perf {args:?} failed:\n{stderr}"
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// What one `--smoke` run of every workload printed.
struct Smoke {
    /// `(workload, metric)` to `(value, unit)`, and how often each was seen.
    metrics: BTreeMap<(String, String), (f64, String, usize)>,
    /// Per workload: `(corpus_hash, digest)`.
    hashes: BTreeMap<String, (String, String)>,
}

fn smoke(seed: &str) -> Smoke {
    let stdout = xtract_perf(&["--smoke", "--seed", seed], seed);
    let mut run = Smoke {
        metrics: BTreeMap::new(),
        hashes: BTreeMap::new(),
    };
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            let (name, fields) = rest.split_once(": ").unwrap_or((rest, ""));
            if WORKLOADS.contains(&name) {
                let field = |key: &str| {
                    fields
                        .split_whitespace()
                        .find_map(|f| f.strip_prefix(key))
                        .unwrap_or_else(|| panic!("no {key} in {line}"))
                        .to_string()
                };
                run.hashes
                    .insert(name.into(), (field("corpus_hash="), field("digest=")));
            }
            continue;
        }
        if line.starts_with('{') {
            continue; // a workload's result object
        }
        let mut words = line.split_whitespace();
        let Some((workload, metric)) = words.next().and_then(|w| w.split_once('/')) else {
            continue;
        };
        let value: f64 = words.next().and_then(|v| v.parse().ok()).expect("a value");
        let unit = words.next().expect("a unit").to_string();
        let seen = run
            .metrics
            .entry((workload.into(), metric.into()))
            .or_insert((value, unit, 0));
        seen.2 += 1;
    }
    run
}

#[test]
fn smoke_run_prints_every_declared_metric_once_and_seeds_change_only_the_bytes() {
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json is JSON");
    let generated: serde_json::Value =
        serde_json::from_str(&xtract_perf(&["--manifest"], "manifest"))
            .expect("--manifest is JSON");
    assert_eq!(
        manifest, generated,
        "BENCHMARK.json is not what `--manifest` prints"
    );
    let declared_workloads: Vec<&str> = manifest["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("a name"))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    let started = std::time::Instant::now();
    let (a, b) = (smoke("12"), smoke("13"));
    assert!(
        started.elapsed().as_secs() < 30,
        "two smoke runs took {:?}",
        started.elapsed()
    );

    for table in ["end_to_end", "per_layer"] {
        for m in manifest[table].as_array().expect("a metric table") {
            let (name, unit) = (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            for w in WORKLOADS {
                let (value, printed_unit, times) = a
                    .metrics
                    .get(&(w.to_string(), name.to_string()))
                    .unwrap_or_else(|| panic!("{w}/{name} was not printed"));
                assert_eq!(*times, 1, "{w}/{name} printed {times} times");
                assert_eq!(printed_unit, unit, "{w}/{name}");
                assert!(value.is_finite(), "{w}/{name} = {value}");
                if table == "end_to_end" {
                    assert!(*value > 0.0, "{w}/{name} = {value}");
                }
            }
        }
    }
    let declared = manifest["end_to_end"].as_array().unwrap().len()
        + manifest["per_layer"].as_array().unwrap().len();
    assert_eq!(
        a.metrics.len(),
        declared * WORKLOADS.len(),
        "an undeclared metric was printed"
    );
    for w in WORKLOADS {
        assert_eq!(
            a.metrics[&(w.to_string(), "fail_share".to_string())].0,
            0.0,
            "{w}"
        );
        // The layers the workloads exist to tell apart.
        let count = |metric: &str| a.metrics[&(w.to_string(), metric.to_string())].0;
        assert_eq!(
            count("transfer.bytes") > 0.0,
            w == "heavy",
            "{w} transfer.bytes"
        );
        assert_eq!(
            count("transport.frames_sent") > 0.0,
            w == "procs",
            "{w} frames_sent"
        );
        assert_eq!(
            count("index.publishes") > 0.0,
            w == "serve",
            "{w} index.publishes"
        );
        assert_eq!(
            count("recovery.replay_records") > 0.0,
            w == "resume",
            "{w} replay_records"
        );
    }

    // Another seed: other bytes, other digests, the same names.
    let names = |s: &Smoke| s.metrics.keys().cloned().collect::<BTreeSet<_>>();
    assert_eq!(names(&a), names(&b));
    for w in WORKLOADS {
        let ((hash_a, digest_a), (hash_b, digest_b)) = (&a.hashes[w], &b.hashes[w]);
        assert_ne!(hash_a, hash_b, "{w}: both seeds wrote the same bytes");
        assert_ne!(
            digest_a, digest_b,
            "{w}: both seeds extracted the same records"
        );
    }
    // Every `mixed` workload but `serve` (a corpus size of its own) extracted
    // exactly what `flood` did.
    for w in ["shards", "procs", "resume"] {
        assert_eq!(a.hashes[w], a.hashes["flood"], "{w} against flood");
    }
}
