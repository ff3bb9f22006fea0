//! # xtract-perf
//!
//! The live-mode benchmark of the Xtract-RS pipeline: six workloads run
//! through the public API (`build_world_service`, `run_job_with_recovery`,
//! `resume_job`, `run_proc_sharded`, `JobService`, `SearchIndex`), every
//! output checked against a reference digest, end-to-end numbers measured
//! untraced as the best of a run's repetitions, and per-layer numbers read from
//! what the program publishes plus probes fed the traced repetition's own
//! inputs. See `README.md` for the tables and the reasoning.
//!
//! ```text
//! xtract-perf [--seed S] [--workload W] [--smoke] [--seconds N] [--trace 0|1]
//! xtract-perf --aa K [--seed S]
//! xtract-perf --manifest
//! xtract-perf shard-worker --root DIR --shard K
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of its
//! own, so that `peak_rss_mb` and `cpu_s` belong to that workload alone.

mod check;
mod corpus;
mod host;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;
mod world;

use corpus::Sizes;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Config, Plan, Report, RUN_SECONDS};
use world::Workload;
use xtract_core::WorkerCmd;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 12;
/// Where results, traces and (by default) scratch go, from the repository
/// root. Relative on purpose: `procs` binds a Unix socket below the scratch
/// root, and a socket path holds 108 bytes.
const OUT_DIR: &str = "perf/target";

struct Args {
    seed: u64,
    workload: Option<Workload>,
    smoke: bool,
    seconds: f64,
    report: Report,
    aa: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: DEFAULT_SEED,
        workload: None,
        smoke: false,
        seconds: RUN_SECONDS as f64,
        report: Report::Both,
        aa: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--aa" => out.aa = Some(value()?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("no workload named {name}"))?);
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.report = match value()?.as_str() {
                    "0" => Report::EndToEnd,
                    "1" => Report::PerLayer,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn scratch_parent() -> PathBuf {
    std::env::var_os("XTRACT_PERF_SCRATCH").map_or(PathBuf::from(OUT_DIR), PathBuf::from)
}

/// Runs one workload in this process. Prints its metric lines and, last,
/// the result object; returns that object.
fn run_workload(args: &Args, workload: Workload) -> Result<Value, String> {
    let cfg = Config {
        workload,
        seed: args.seed,
        report: args.report,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        plan: if args.smoke {
            Plan::SMOKE
        } else {
            Plan::full(workload, args.seconds, args.report)
        },
        worker: WorkerCmd::current_exe(vec!["shard-worker".into()]).map_err(|e| e.to_string())?,
        scratch_parent: scratch_parent(),
    };
    let outcome = workloads::run(&cfg)?;
    for line in metrics::lines(&outcome, cfg.report) {
        println!("{line}");
    }
    println!(
        "# {}: seed={} corpus_files={} corpus_hash={:016x} digest={:016x} R={} setups={}{}",
        workload.name(),
        outcome.seed,
        outcome.corpus_files,
        outcome.corpus_hash,
        outcome.digest,
        cfg.plan.reps,
        cfg.plan.setups,
        outcome
            .largest_probe
            .as_ref()
            .map_or(String::new(), |p| format!(" largest_probe={p}")),
    );
    for e in &outcome.errors {
        eprintln!("FAILED {}: {e}", workload.name());
    }
    let result = metrics::result_line(&outcome, cfg.report);
    println!("{result}");
    if outcome.correct {
        Ok(result)
    } else {
        Err(format!(
            "{}: {} of {} checks failed",
            workload.name(),
            outcome.failed,
            outcome.attempted
        ))
    }
}

/// What a child process printed: the result object of its last line, and
/// the value of every `workload/metric value unit` line by metric.
struct ChildOutput {
    result: Value,
    printed: BTreeMap<String, f64>,
}

/// Runs `workload` in a child process with this run's arguments, passing
/// its output through.
fn run_child(args: &Args, workload: Workload, quiet: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
    ])
    .args(["--seconds", &args.seconds.to_string()])
    .env("XTRACT_PERF_CHILD", "1")
    .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    match args.report {
        Report::EndToEnd => drop(cmd.args(["--trace", "0"])),
        Report::PerLayer => drop(cmd.args(["--trace", "1"])),
        Report::Both => {}
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    let mut printed = BTreeMap::new();
    let prefix = format!("{}/", workload.name());
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read {}: {e}", workload.name()))?;
        if !quiet {
            println!("{line}");
        }
        let mut words = line.strip_prefix(&prefix).unwrap_or("").split_whitespace();
        if let (Some(metric), Some(Ok(value))) = (words.next(), words.next().map(str::parse)) {
            printed.insert(metric.to_string(), value);
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("wait {}: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", workload.name()));
    }
    let result = serde_json::from_str(&last)
        .map_err(|e| format!("{}: last line is not JSON: {e}", workload.name()))?;
    Ok(ChildOutput { result, printed })
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// The full command: every workload, one child process each.
fn run_all(args: &Args) -> Result<(), String> {
    let mut results = BTreeMap::new();
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        match run_child(args, workload, false) {
            Ok(child) => drop(results.insert(workload.name(), child.result)),
            Err(e) => failures.push(e),
        }
    }
    let path = Path::new(OUT_DIR).join("results.json");
    write_json(
        &path,
        &json!({"seed": args.seed, "smoke": args.smoke, "deps": host::DEPS, "workloads": results}),
    )?;
    println!("# results: {}", path.display());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// A/A: the end-to-end metrics of `2 x k` full runs of the same code, sets
/// A and B alternating, run `i` of each set on seed `seed + i`. Prints and
/// writes, per `workload/metric`, both medians, their gap and each set's
/// quartile spread as shares of the median, and the bound. Fails when a gap
/// is over its bound (the ISSUE's rule, all eight metrics), or when a
/// spread is, on the metrics `BENCHMARK.json` lists as end-to-end other
/// than `setup_s` (the rule the benchmark itself is accepted by).
fn run_aa(args: &Args, k: usize) -> Result<(), String> {
    let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
    for i in 0..k {
        for (s, set) in sets.iter_mut().enumerate() {
            let run = Args {
                seed: args.seed + i as u64,
                report: Report::EndToEnd,
                aa: None,
                ..*args
            };
            for workload in Workload::ALL {
                let child = run_child(&run, workload, true)?;
                for m in metrics::END_TO_END {
                    if !metrics::measured_by(m, workload) {
                        continue;
                    }
                    let v = child.printed.get(m.name).ok_or(format!(
                        "{}: no {}",
                        workload.name(),
                        m.name
                    ))?;
                    set.entry(format!("{}/{}", workload.name(), m.name))
                        .or_default()
                        .push(*v);
                }
            }
            eprintln!("# aa: pair {} of {k}, set {} done", i + 1, ["A", "B"][s]);
        }
    }
    let mut rows = Vec::new();
    let mut over = Vec::new();
    for (name, a) in &sets[0] {
        let metric = name.split('/').nth(1).expect("workload/metric");
        let m = metrics::END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .expect("a table name");
        let b = &sets[1][name];
        let (median_a, median_b) = (stats::median(a), stats::median(b));
        // `fail_share` is 0 on both sides and held to 0: absolute.
        let scale = if median_a == 0.0 { 1.0 } else { median_a };
        let gap = (median_b - median_a).abs() / scale;
        let (spread_a, spread_b) = (stats::quartile_spread(a), stats::quartile_spread(b));
        println!(
            "{name} A {median_a} B {median_b} {} gap {gap:.4} spread A {spread_a:.4} B {spread_b:.4} bound {}",
            m.unit, m.bound
        );
        let worst = if metric == "setup_s" || !metrics::every_run(m) {
            gap
        } else {
            gap.max(spread_a).max(spread_b)
        };
        if worst > m.bound {
            over.push(name.clone());
        }
        rows.push(json!({
            "name": name, "unit": m.unit, "bound": m.bound,
            "median_a": median_a, "median_b": median_b, "gap": gap,
            "spread_a": spread_a, "spread_b": spread_b,
            "runs_a": a, "runs_b": b,
        }));
    }
    let path = Path::new("perf/AA.json");
    write_json(
        path,
        &json!({"k": k, "first_seed": args.seed, "deps": host::DEPS, "rows": rows}),
    )?;
    println!("# aa: {}", path.display());
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("over their bounds: {}", over.join(", ")))
    }
}

fn shard_worker(args: &[String]) -> Result<(), String> {
    let (mut root, mut shard) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--root", Some(v)) => root = Some(PathBuf::from(v)),
            ("--shard", Some(v)) => shard = Some(v.parse::<usize>().map_err(|e| e.to_string())?),
            _ => return Err(format!("shard-worker: bad argument {flag}")),
        }
    }
    let (root, shard) = root
        .zip(shard)
        .ok_or("shard-worker needs --root DIR --shard K")?;
    xtract_core::run_worker(&root, shard).map_err(|e| format!("shard {shard}: {e}"))
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("shard-worker") => return shard_worker(&argv[1..]),
        Some("--manifest") => {
            let text =
                serde_json::to_string_pretty(&metrics::manifest()).map_err(|e| e.to_string())?;
            println!("{text}");
            return Ok(());
        }
        _ => {}
    }
    let args = parse(&argv)?;
    if !Path::new("perf/Cargo.toml").is_file() {
        return Err("run from the repository root (perf/Cargo.toml not found here)".into());
    }
    let parent = scratch_parent();
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::create_dir_all(&parent))
        .map_err(|e| format!("create {OUT_DIR} and {}: {e}", parent.display()))?;
    if std::env::var_os("XTRACT_PERF_CHILD").is_none() {
        for line in host::header(&parent) {
            println!("{line}");
        }
        println!(
            "# constants: run_seconds={RUN_SECONDS} setups={} sizes={:?} reps={:?} workers={} shards={} crawl_workers={} staging_workers={}",
            workloads::SETUPS,
            Sizes::FULL,
            Workload::ALL.map(|w| (w.name(), w.reps())),
            world::WORKERS,
            world::SHARDS,
            world::CRAWL_WORKERS,
            world::STAGING_WORKERS,
        );
    }
    match (args.aa, args.workload) {
        (Some(k), _) if k > 0 => run_aa(&args, k),
        (Some(_), _) => Err("--aa needs at least 1".into()),
        (None, Some(workload)) => run_workload(&args, workload).map(drop),
        (None, None) => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtract-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
