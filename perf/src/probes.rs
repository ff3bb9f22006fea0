//! Per-layer numbers.
//!
//! Two sources, both outside the program under test. *Read* (`R`,
//! [`published`]): fields the program already publishes (the `JobReport`,
//! the metrics hub, the index's ingest counters), taken from every timed
//! repetition at no extra cost and reported as medians. *Probe* (`P`,
//! [`after_rep`]): the traced repetition's own inputs (its crawl root, the
//! families and commits its log journaled, the records it produced) fed to
//! one layer's public functions in isolation, on one thread, inside a span.
//! A probe times a layer with nothing else contending, so it bounds what a
//! faster layer could save; it does not say how much of that sat on the
//! job's blocking path.

use crate::workloads::{issue, query_mix, Rep, Run};
use crate::world::{Workload, World, SHARDS, WORKERS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract_core::batcher::XtractBatch;
use xtract_core::payload::{decode_results, encode_batch, make_function_body, FabricSource};
use xtract_core::transport::{measure_local_roundtrip, measure_wire_roundtrip};
use xtract_core::{
    build_families, build_partitioner, validator, Batcher, ExtractionPlan, RecoveryLog,
    RecoveryRecord,
};
use xtract_crawler::{CrawledDirectory, Crawler, CrawlerConfig};
use xtract_datafabric::{
    AuthService, DataFabric, MemFs, Scope, TransferRequest, TransferService,
};
use xtract_extractors::{FileSource, MapSource};
use xtract_faas::{EndpointConfig, FaasService, FunctionBody, FunctionRegistry, TaskSpec};
use xtract_index::SearchIndex;
use xtract_obs::{Event, Obs};
use xtract_sim::RngStreams;
use xtract_types::config::ContainerRuntime;
use xtract_types::id::IdAllocator;
use xtract_types::{
    EndpointId, ExtractorKind, Family, FamilyId, FileRecord, JobSpec, Metadata, MetadataRecord,
};

/// The `R` metrics of one repetition: what its report, hub and index say.
pub fn published(rep: &Rep) -> Vec<(&'static str, f64)> {
    let (r, hub) = (&rep.report, &rep.hub);
    let mut out = vec![
        ("service.crawl_s", r.phases.crawl_s),
        ("service.plan_s", r.phases.plan_s),
        ("service.stage_s", r.phases.stage_s),
        ("service.dispatch_s", r.phases.dispatch_s),
        ("service.extract_s", r.phases.extract_s),
        ("service.index_s", r.phases.index_s),
        // WAL commits, shard RPCs and whatever else `PhaseTimings` has no
        // bucket for; negative where phases overlap (staging under waves).
        (
            "service.unattributed_s",
            rep.job_wall_s() - r.phases.total(),
        ),
        ("service.waves", f64::from(r.waves)),
        ("service.world_build_s", rep.world_build_s),
        ("transfer.bytes", r.bytes_prefetched as f64),
        ("faas.tasks", hub.counter_sum("faas.tasks_submitted") as f64),
        (
            "faas.cold_starts",
            hub.counter_sum("endpoint.cold_starts") as f64,
        ),
        (
            "faas.warm_hits",
            hub.counter_sum("endpoint.warm_hits") as f64,
        ),
        (
            "extractors.invocations",
            r.invocations.values().sum::<u64>() as f64,
        ),
        // What a resume replayed and truncated. A fresh sharded run also
        // "replays": each shard opens a log seeded with its share of the
        // plan; those records are counted in `shard.wal_records`.
        (
            "recovery.replay_records",
            if r.resumed {
                r.replayed_records as f64
            } else {
                0.0
            },
        ),
        (
            "recovery.truncated",
            if r.resumed {
                r.truncated_records as f64
            } else {
                0.0
            },
        ),
        ("shard.stolen_families", r.stolen_families as f64),
        (
            "transport.frames_sent",
            hub.counter_sum("transport.frames_sent") as f64,
        ),
        (
            "transport.frames_recv",
            hub.counter_sum("transport.frames_recv") as f64,
        ),
        ("obs.journal_events", rep.journal_events as f64),
        ("obs.journal_dropped", rep.journal_dropped as f64),
    ];
    if let Some(serve) = &rep.serve {
        let ingest = serve.index.ingest_metrics();
        out.extend([
            ("index.publishes", ingest.publishes as f64),
            ("index.compactions", ingest.compactions as f64),
            ("jobs.submit_to_dispatch_us", serve.submit_to_dispatch_us),
            ("tenancy.charges", serve.charges as f64),
        ]);
    }
    out
}

/// The log directories of one job: its root, then any `shard-<k>` below.
fn wal_dirs(wal: &Path) -> Result<Vec<PathBuf>, String> {
    let mut shards = Vec::new();
    for entry in std::fs::read_dir(wal).map_err(|e| format!("read {}: {e}", wal.display()))? {
        let path = entry
            .map_err(|e| format!("read {}: {e}", wal.display()))?
            .path();
        let is_shard = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("shard-"));
        if is_shard && path.is_dir() {
            shards.push(path);
        }
    }
    shards.sort();
    Ok(std::iter::once(wal.to_path_buf()).chain(shards).collect())
}

/// What a job journaled: the inputs the probes replay.
#[derive(Default)]
struct Journaled {
    families: HashMap<FamilyId, Family>,
    /// Per log directory: the records, split where the job committed.
    commits: Vec<Vec<Vec<RecoveryRecord>>>,
    records: usize,
    shard_records: usize,
    segments: u64,
    scan_s: f64,
}

/// Scans every log in `dirs`, inside `probe.recovery.replay` spans:
/// reading every segment, checking every CRC and decoding every frame is
/// what a resume pays before it can fast-forward.
fn read_journal(run: &mut Run, dirs: &[PathBuf]) -> Result<Journaled, String> {
    let mut j = Journaled::default();
    for (k, dir) in dirs.iter().enumerate() {
        let (replay, secs) = run.tracer.timed("probe.recovery.replay", |t| {
            let replay = RecoveryLog::scan(dir);
            if let Ok(r) = &replay {
                t.count("records", r.records.len() as f64);
            }
            replay
        });
        let replay = replay.map_err(|e| format!("scan {}: {e}", dir.display()))?;
        j.scan_s += secs;
        j.records += replay.records.len();
        j.shard_records += if k > 0 { replay.records.len() } else { 0 };
        j.segments += replay.segments;
        let mut groups = vec![Vec::new()];
        for record in replay.records {
            if let RecoveryRecord::FamilyPlanned { family }
            | RecoveryRecord::FamilyMigrated { family, .. } = &record
            {
                j.families.insert(family.id, family.clone());
            }
            let closes = matches!(record, RecoveryRecord::WaveCommitted { .. });
            groups.last_mut().expect("never empty").push(record);
            if closes {
                groups.push(Vec::new());
            }
        }
        groups.retain(|g| !g.is_empty());
        j.commits.push(groups);
    }
    Ok(j)
}

/// `resume` only: the log as the killed run left it is what the timed
/// resume replays; after the resume it has been compacted.
pub fn scan_before_resume(run: &mut Run, wal: &Path) -> Result<(), String> {
    let journal = read_journal(run, &wal_dirs(wal)?)?;
    run.set("recovery.replay_s", journal.scan_s);
    Ok(())
}

fn wal_bytes(dirs: &[PathBuf]) -> u64 {
    dirs.iter()
        .filter_map(|d| std::fs::read_dir(d).ok())
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn per(total_s: f64, n: usize, unit_per_s: f64) -> f64 {
    total_s * unit_per_s / n.max(1) as f64
}

/// Crawl, min-transfers and planning over the workload's own corpus.
fn crawl_and_plan(run: &mut Run, world: &World) -> Result<(), String> {
    let (spec, seed) = (world.job(), world.spec.seed);
    let (source, root) = spec.roots[0].clone();
    let backend = world.corpus()?;
    let crawler = Crawler::with_obs(
        CrawlerConfig {
            workers: spec.crawl_workers,
            grouping: spec.grouping,
        },
        Obs::new(),
    );
    let (crawled, crawl_s) = run.tracer.timed("probe.crawler", |t| {
        let (tx, rx) = crossbeam_channel::unbounded();
        let result = crawler.crawl(source, &backend, &[root], tx);
        let dirs: Vec<CrawledDirectory> = rx.into_iter().collect();
        t.count("dirs", dirs.len() as f64);
        result.map(|()| dirs)
    });
    let dirs = crawled.map_err(|e| format!("crawl probe: {e}"))?;
    run.set("crawler.crawl_s", crawl_s);
    run.set(
        "crawler.files",
        dirs.iter().map(|d| d.files.len()).sum::<usize>() as f64,
    );
    run.set("crawler.dirs", dirs.len() as f64);

    // Min-transfers over each directory, as the service does it while the
    // crawl streams in.
    let ids = IdAllocator::new();
    let streams = RngStreams::new(seed);
    let ((families, redundant), build_s) = run.tracer.timed("probe.families", |t| {
        let (mut families, mut redundant) = (Vec::<Family>::new(), 0);
        for (i, dir) in dirs.into_iter().enumerate() {
            if dir.groups.is_empty() {
                continue;
            }
            let file_map: HashMap<String, FileRecord> = dir
                .files
                .iter()
                .map(|f| (f.path.clone(), f.clone()))
                .collect();
            let mut rng = streams.substream("min-transfers", i as u64);
            let set = build_families(
                &file_map,
                dir.groups,
                dir.endpoint,
                spec.max_family_size,
                &ids,
                &mut rng,
            );
            redundant += set.redundant_files;
            families.extend(set.families);
        }
        t.count("families", families.len() as f64);
        (families, redundant)
    });
    run.set("families.build_s", build_s);
    run.set("families.count", families.len() as f64);
    run.set("families.redundant_files", redundant as f64);

    let (steps, plan_s) = run.tracer.timed("probe.planner", |_| {
        families
            .iter()
            .map(|f| ExtractionPlan::for_family(f).len())
            .sum::<usize>()
    });
    std::hint::black_box(steps);
    run.set(
        "planner.plan_us_per_family",
        per(plan_s, families.len(), 1e6),
    );
    Ok(())
}

/// One `TransferService::submit` per family from the storage endpoint to an
/// empty store standing in for the compute endpoint's, on one thread.
fn transfer(run: &mut Run, journal: &Journaled, world: &World) -> Result<(), String> {
    let storage = world.corpus_endpoint();
    let compute = EndpointId::new(storage.raw() + 1);
    let fabric = Arc::new(DataFabric::new());
    fabric.register(storage, "storage", world.corpus()?);
    fabric.register(compute, "compute", Arc::new(MemFs::new(compute)));
    let auth = Arc::new(AuthService::new());
    let token = auth.login("perf-probe", &[Scope::Transfer]);
    let service = TransferService::new(fabric, auth);
    let requests: Vec<TransferRequest> = journal
        .families
        .values()
        .map(|f| TransferRequest {
            source: storage,
            destination: compute,
            files: f
                .files
                .iter()
                .map(|file| {
                    (
                        file.path.clone(),
                        format!("/stage/fam-{}{}", f.id.raw(), file.path),
                    )
                })
                .collect(),
        })
        .collect();
    let (moved, stage_s) = run
        .tracer
        .timed("probe.transfer", |t| -> Result<u64, String> {
            let mut bytes = 0;
            for request in &requests {
                let id = service.submit(token, request).map_err(|e| e.to_string())?;
                let receipt = service.status(id).ok_or("transfer receipt missing")?;
                if !receipt.is_complete() {
                    return Err(format!("transfer probe: {:?}", receipt.failed));
                }
                bytes += receipt.bytes_moved;
            }
            t.count("bytes", bytes as f64);
            Ok(bytes)
        });
    run.set("transfer.stage_s", stage_s);
    run.set("transfer.mb_per_s", moved? as f64 / 1e6 / stage_s);
    Ok(())
}

/// Every `(family, extractor)` step the job's records name.
fn steps_of(records: &[MetadataRecord]) -> Vec<(FamilyId, ExtractorKind)> {
    let kinds: HashMap<&str, ExtractorKind> = xtract_extractors::library()
        .keys()
        .map(|k| (k.name(), *k))
        .collect();
    records
        .iter()
        .flat_map(|r| {
            r.extractors
                .iter()
                .map(|name| (r.family, kinds.get(name.as_str()).copied()))
        })
        .filter_map(|(family, kind)| Some((family, kind?)))
        .collect()
}

/// Pushes every step through a fresh `Batcher`, encodes every task it
/// emitted, runs the first tasks' function bodies to get real results, and
/// decodes those.
fn batch_and_encode(
    run: &mut Run,
    world: &World,
    journal: &Journaled,
    steps: &[(FamilyId, ExtractorKind)],
) -> Result<usize, String> {
    let spec = world.job();
    let exec = spec.endpoints[0].endpoint;
    let (batches, push_s) = run.tracer.timed("probe.batcher", |_| {
        let mut batcher = Batcher::new(spec.xtract_batch_size, spec.funcx_batch_size);
        let mut out = Vec::new();
        for (family, kind) in steps {
            if let Some(f) = journal.families.get(family) {
                out.extend(batcher.push(f.clone(), *kind, exec));
            }
        }
        out.extend(batcher.flush());
        out
    });
    let tasks: Vec<&XtractBatch> = batches.iter().flat_map(|b| &b.tasks).collect();
    run.set(
        "batcher.push_flush_us_per_family",
        per(push_s, steps.len(), 1e6),
    );
    run.set("batcher.tasks", tasks.len() as f64);

    let (payloads, encode_s) = run.tracer.timed("probe.payload.encode", |_| {
        tasks
            .iter()
            .map(|t| encode_batch(t, spec.delete_after_extraction))
            .collect::<Vec<_>>()
    });
    let bytes: usize = payloads.iter().map(|p| p.to_string().len()).sum();
    run.set(
        "payload.encode_us_per_family",
        per(encode_s, steps.len(), 1e6),
    );
    run.set("payload.bytes", bytes as f64);

    // Results to decode have to come from somewhere: the function bodies
    // the endpoint would run, over the first tasks, for at most a second.
    let fabric = Arc::new(DataFabric::new());
    fabric.register(world.corpus_endpoint(), "corpus", world.corpus()?);
    let library = xtract_extractors::library();
    let started = Instant::now();
    let mut results = Vec::new();
    for (task, payload) in tasks.iter().zip(&payloads).take(64) {
        if started.elapsed() > Duration::from_secs(1) {
            break;
        }
        let body = make_function_body(library[&task.extractor].clone(), fabric.clone());
        results.push((
            body(payload.clone()).map_err(|e| e.to_string())?,
            task.families.len(),
        ));
    }
    let (decoded, decode_s) = run.tracer.timed("probe.payload.decode", |_| {
        results
            .iter()
            .map(|(value, _)| decode_results(value).map(|r| r.len()))
            .sum::<Result<usize, _>>()
    });
    let decoded = decoded.map_err(|e| format!("decode probe: {e}"))?;
    run.set("payload.decode_us_per_family", per(decode_s, decoded, 1e6));
    Ok(tasks.len())
}

/// The FaaS fabric with extraction removed: `tasks` echo functions through
/// `batch_submit` and `wait_all` in spec-sized batches.
fn faas_echo(run: &mut Run, spec: &JobSpec, tasks: usize) -> Result<(), String> {
    let tasks = tasks.clamp(1, 5_000);
    let endpoint = EndpointId::new(0);
    let service = FaasService::new(Arc::new(FunctionRegistry::new()));
    service
        .registry()
        .declare_endpoint(endpoint, ContainerRuntime::Docker);
    service.connect_endpoint(EndpointConfig::instant(endpoint, WORKERS));
    let container =
        service
            .registry()
            .register_container("echo", ContainerRuntime::Docker, 1 << 20);
    let body: FunctionBody = Arc::new(Ok);
    let function = service
        .registry()
        .register_function("echo", container, &[endpoint], body)
        .map_err(|e| e.to_string())?;
    let specs: Vec<TaskSpec> = (0..tasks)
        .map(|_| TaskSpec {
            function,
            endpoint,
            payload: serde_json::Value::Null,
        })
        .collect();
    let (done, secs) = run.tracer.timed("probe.faas", |t| {
        t.count("tasks", tasks as f64);
        specs.chunks(spec.funcx_batch_size).all(|chunk| {
            let ids = service.batch_submit(chunk);
            service.wait_all(&ids, Duration::from_secs(30))
        })
    });
    if !done {
        return Err("faas probe: echo tasks did not finish in 30 s".into());
    }
    run.set("faas.submit_poll_us_per_task", per(secs, tasks, 1e6));
    Ok(())
}

/// Every step the job ran, run directly on this thread, in two parts: the
/// reads its extractor makes through the data fabric (12 000 small `LocalFs`
/// reads on `mixed`, reference-count bumps on `bulky`'s `MemFs`), then the
/// extraction itself over the bytes now in memory. Together they are the
/// CPU the FaaS workers spent inside function bodies.
fn read_and_extract(
    run: &mut Run,
    world: &World,
    journal: &Journaled,
    steps: &[(FamilyId, ExtractorKind)],
) -> Result<(), String> {
    let fabric = Arc::new(DataFabric::new());
    fabric.register(world.corpus_endpoint(), "corpus", world.corpus()?);
    let source = FabricSource::new(fabric);
    let planned = |family: &FamilyId| {
        journal
            .families
            .get(family)
            .ok_or_else(|| format!("step for unplanned family {family}"))
    };
    let (loaded, read_s) = run.tracer.timed("probe.datafabric.read", |t| {
        let (mut in_memory, mut bytes) = (MapSource::default(), 0);
        for (family, _) in steps {
            for file in &planned(family)?.files {
                let body = source
                    .read(file)
                    .map_err(|e| format!("read {}: {e}", file.path))?;
                bytes += body.len();
                in_memory.0.insert(file.path.clone(), body);
            }
        }
        t.count("bytes", bytes as f64);
        Ok::<_, String>((in_memory, bytes))
    });
    let (in_memory, bytes) = loaded?;
    run.set("datafabric.read_s", read_s);

    let library = xtract_extractors::library();
    let (done, busy_s) = run.tracer.timed("probe.extractors", |t| {
        for (family, kind) in steps {
            let family = planned(family)?;
            let out = library[kind]
                .extract(family, &in_memory)
                .map_err(|e| format!("extractor probe: {kind} on {}: {e}", family.id))?;
            std::hint::black_box(out);
        }
        t.count("invocations", steps.len() as f64);
        Ok::<_, String>(())
    });
    done?;
    run.set("extractors.busy_s", busy_s);
    run.set("extractors.mb_per_s", bytes as f64 / 1e6 / busy_s);
    Ok(())
}

/// Re-appends the journaled records to a fresh log, one `append_batch` per
/// commit the job made (at most `limit` commits). Returns seconds, commits
/// and records appended.
fn reappend(
    run: &mut Run,
    span: &str,
    spec: &JobSpec,
    journal: &Journaled,
    sync: bool,
    limit: usize,
) -> Result<(f64, usize, usize), String> {
    let mut policy = spec.recovery;
    policy.sync_each_commit = sync;
    let (mut secs, mut commits, mut records) = (0.0, 0, 0);
    for groups in &journal.commits {
        let dir = run.scratch.dir("p")?;
        let (log, _) = RecoveryLog::open(&dir, policy).map_err(|e| e.to_string())?;
        let take = groups.len().min(limit - commits);
        let (result, took) = run.tracer.timed(span, |_| {
            groups[..take]
                .iter()
                .try_for_each(|group| log.append_batch(group))
        });
        result.map_err(|e| format!("append probe: {e}"))?;
        secs += took;
        commits += take;
        records += groups[..take].iter().map(Vec::len).sum::<usize>();
        drop(log);
        run.scratch.discard(&dir);
    }
    Ok((secs, commits, records))
}

/// `validator::validate` over every record the job produced, fed the merged
/// metadata the record itself carries.
fn validate(run: &mut Run, spec: &JobSpec, journal: &Journaled, rep: &Rep) -> Result<(), String> {
    let inputs: Vec<(&Family, Metadata, &[String])> = rep
        .report
        .records
        .iter()
        .filter_map(|r| {
            let family = journal.families.get(&r.family)?;
            // The MDF schema wraps the merged metadata under `extracted`;
            // every other schema ships it as the document.
            let merged = match r.document.get("extracted") {
                Some(serde_json::Value::Object(m)) => Metadata(m.clone()),
                _ => r.document.clone(),
            };
            Some((family, merged, r.extractors.as_slice()))
        })
        .collect();
    let (result, secs) = run.tracer.timed("probe.validator", |_| {
        inputs.iter().try_for_each(|(family, merged, extractors)| {
            validator::validate(family, merged, extractors, &spec.validation)
                .map(|record| drop(std::hint::black_box(record)))
        })
    });
    result.map_err(|e| format!("validate probe: {e}"))?;
    run.set(
        "validator.validate_us_per_record",
        per(secs, inputs.len(), 1e6),
    );
    Ok(())
}

/// What one counter bump and one journal event cost.
fn obs(run: &mut Run) {
    const N: usize = 200_000;
    let obs = Obs::new();
    // Looked up by name on every call, as `Framed::send` does.
    let (_, secs) = run.tracer.timed("probe.obs.counter_by_name", |_| {
        for _ in 0..N {
            obs.hub.counter("transport.frames_sent").add(1);
        }
    });
    run.set("obs.counter_by_name_ns", per(secs, N, 1e9));
    let handle = std::hint::black_box(obs.hub.counter("transport.frames_recv"));
    let (_, secs) = run.tracer.timed("probe.obs.counter_handle", |_| {
        for _ in 0..N {
            handle.add(1);
        }
    });
    run.set("obs.counter_handle_ns", per(secs, N, 1e9));
    let (_, secs) = run.tracer.timed("probe.obs.journal", |_| {
        for i in 0..N as u64 {
            obs.journal.record(Event::ShardFenced {
                shard: i & 1,
                epoch: i,
            });
        }
    });
    run.set("obs.journal_record_ns", per(secs, N, 1e9));
}

/// The serving index in isolation: ingest the job's records in wave-sized
/// batches, ingest them again (the tombstone path), then the query mix
/// with nothing ingesting.
fn index(run: &mut Run, rep: &Rep) {
    const BATCH: usize = 256;
    const IDLE_QUERIES: usize = 4_000;
    let Some(serve) = &rep.serve else { return };
    let index = SearchIndex::with_shards(serve.index.shard_count());
    let records = &rep.report.records;
    for (span, metric) in [
        ("probe.index.ingest", "index.ingest_us_per_record"),
        ("probe.index.replace", "index.replace_us_per_record"),
    ] {
        let (_, secs) = run.tracer.timed(span, |_| {
            for batch in records.chunks(BATCH) {
                index.ingest_all(batch.iter().cloned());
            }
        });
        run.set(metric, per(secs, records.len(), 1e6));
    }
    let families: Vec<FamilyId> = records.iter().map(|r| r.family).collect();
    let mix = query_mix(run.cfg.seed, &families);
    let (latencies_us, _) = run.tracer.timed("probe.index.idle_queries", |_| {
        mix.iter()
            .cycle()
            .take(IDLE_QUERIES)
            .map(|op| {
                let t0 = Instant::now();
                issue(&index, op);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    run.set(
        "index.query_idle_p50_us",
        crate::stats::median(&latencies_us),
    );
}

/// Partitioning, and what one protocol message costs over the socket and
/// in-process.
fn shard_and_transport(run: &mut Run, world: &World, journal: &Journaled) -> Result<(), String> {
    const ROUND_TRIPS: usize = 2_000;
    let ids: Vec<FamilyId> = journal.families.keys().copied().collect();
    let partitioner = build_partitioner(world.job().shard.partitioner);
    let (assigned, secs) = run.tracer.timed("probe.shard.partition", |_| {
        partitioner.assign(&ids, SHARDS)
    });
    std::hint::black_box(assigned);
    run.set("shard.partition_us_per_family", per(secs, ids.len(), 1e6));
    run.set("shard.wal_records", journal.shard_records as f64);
    if run.cfg.workload != Workload::Procs {
        return Ok(());
    }
    let (wire, _) = run.tracer.timed("probe.transport.wire", |_| {
        measure_wire_roundtrip(ROUND_TRIPS)
    });
    let wire = wire.map_err(|e| format!("wire probe: {e}"))?;
    run.set(
        "transport.wire_roundtrip_us",
        per(wire.as_secs_f64(), ROUND_TRIPS, 1e6),
    );
    let (local, _) = run.tracer.timed("probe.transport.local", |_| {
        measure_local_roundtrip(ROUND_TRIPS)
    });
    run.set(
        "transport.local_roundtrip_us",
        per(local.as_secs_f64(), ROUND_TRIPS, 1e6),
    );
    Ok(())
}

/// Everything probed after the traced repetition of any workload.
pub fn after_rep(run: &mut Run, world: &World, rep: &Rep) -> Result<(), String> {
    let spec = world.job();
    let dirs = wal_dirs(&rep.wal)?;
    let journal = read_journal(run, &dirs)?;
    if run.cfg.workload != Workload::Resume {
        // `resume` replays its plan: it never crawls, and what it replays
        // was scanned before the resume compacted it.
        run.set("recovery.replay_s", journal.scan_s);
        crawl_and_plan(run, world)?;
    }
    run.set("recovery.bytes", wal_bytes(&dirs) as f64);
    run.set("recovery.segments", journal.segments as f64);
    if rep.report.bytes_prefetched > 0 {
        transfer(run, &journal, world)?;
    }
    let steps = steps_of(&rep.report.records);
    let tasks = batch_and_encode(run, world, &journal, &steps)?;
    faas_echo(run, spec, tasks)?;
    read_and_extract(run, world, &journal, &steps)?;
    let (secs, _, records) = reappend(
        run,
        "probe.recovery.append",
        spec,
        &journal,
        false,
        usize::MAX,
    )?;
    run.set("recovery.append_us_per_record", per(secs, records, 1e6));
    let (secs, commits, _) = reappend(run, "probe.recovery.append_sync", spec, &journal, true, 32)?;
    run.set(
        "recovery.append_sync_us_per_commit",
        per(secs, commits, 1e6),
    );
    validate(run, spec, &journal, rep)?;
    obs(run);
    index(run, rep);
    if spec.shard.enabled {
        shard_and_transport(run, world, &journal)?;
    }
    if run.cfg.workload == Workload::Procs {
        // The same job with both shards in this process.
        let inproc = World::of(Workload::Shards, &world.spec.data_dir, run.cfg.seed);
        let same = run.plain_rep("probe.shard.inproc", &inproc, false)?;
        run.set("shard.inproc_makespan_s", same.makespan_s);
        run.scratch.discard(&same.wal);
    }
    Ok(())
}
