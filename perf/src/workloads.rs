//! What one run of one workload does, repetition by repetition.
//!
//! A run is [`Plan::setups`] rounds. Each round sets the workload up
//! (materialise the corpus, then the workload's own warm-up repetition, world
//! build included) and then runs its share of the `R` timed repetitions, each
//! on a fresh service and a fresh log directory that is deleted outside the
//! timed region, each checked against the reference digest. After the first
//! set-up `flood`'s job runs once more, untimed, where the reference job is
//! not the workload's own. An end-to-end number is the better quartile of
//! its samples (`R` repetitions; the set-ups for `setup_s`). A traced run
//! then adds one more repetition inside spans and feeds its inputs to the
//! layer probes. Closed loop, one job client; the only other load is
//! `serve`'s one closed-loop reader.

use crate::check;
use crate::corpus::{self, Corpus, Sizes};
use crate::host;
use crate::probes;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::world::{Workload, World};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtract_core::{run_proc_sharded, JobReport, JobService, JobStatus, WorkerCmd, XtractService};
use xtract_datafabric::{MemFs, Token};
use xtract_index::{Filter, Query, SearchIndex};
use xtract_obs::metrics::MetricsSnapshot;
use xtract_types::tenancy::{ServicePolicy, TenantSpec};
use xtract_types::{EndpointId, FamilyId, QuotaResource, XtractError};

/// `run_seconds` of `BENCHMARK.json`: the timed repetitions of a run at the
/// frozen `R` add up to at least this long on the reference box (README,
/// "Frozen constants", has the measured totals).
pub const RUN_SECONDS: u64 = 8;
/// Set-ups (and rounds) per full-size run.
pub const SETUPS: usize = 3;
/// Queries in `serve`'s fixed mix, cycled by the reader.
pub const QUERY_MIX: usize = 64;
/// A job that has not finished after this long has hung.
const JOB_TIMEOUT: Duration = Duration::from_secs(150);

/// Which metrics the last line of output carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    EndToEnd,
    PerLayer,
    Both,
}

impl Report {
    pub fn traced(self) -> bool {
        self != Report::EndToEnd
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub report: Report,
    pub sizes: Sizes,
    /// Timed repetitions and set-ups of this run.
    pub plan: Plan,
    /// How to start a cross-process shard worker: this program again.
    pub worker: WorkerCmd,
    /// The directory the run's scratch root is created in.
    pub scratch_parent: PathBuf,
}

impl Config {
    /// Files in this run's `mixed` corpus. `serve` runs two jobs in every
    /// repetition, one of them beside a reader on one worker: a smaller
    /// corpus keeps its run under the 30 s a workload may take.
    pub fn mixed_files(&self) -> u64 {
        match self.workload {
            Workload::Serve => self.sizes.serve_files,
            _ => self.sizes.mixed_files,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub reps: usize,
    pub setups: usize,
}

impl Plan {
    /// The frozen plan scaled to `seconds` of timed repetitions. A run
    /// that reports per-layer metrics alone has no `setup_s` to report and
    /// sets up once.
    pub fn full(workload: Workload, seconds: f64, report: Report) -> Self {
        let reps = workload.reps() as f64 * seconds / RUN_SECONDS as f64;
        Plan {
            reps: (reps.round() as usize).max(1),
            setups: if report == Report::PerLayer {
                1
            } else {
                SETUPS
            },
        }
    }

    pub const SMOKE: Plan = Plan { reps: 1, setups: 1 };
}

/// Everything a run writes lives under one directory, removed when the
/// guard drops, on success and on failure alike.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Creates `<parent>/xtract-perf-<pid>`. A directory of that name left
    /// by an earlier process is not ours to delete: refuse to run.
    pub fn new(parent: &Path) -> Result<Self, String> {
        let root = parent.join(format!("xtract-perf-{}", std::process::id()));
        if root.exists() {
            return Err(format!(
                "scratch root {} already exists (left by a killed run?); remove it and run again",
                root.display()
            ));
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty directory named `<tag><n>` (short: a Unix socket path
    /// below it must fit in 108 bytes).
    pub fn dir(&self, tag: &str) -> Result<PathBuf, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn discard(&self, dir: &Path) {
        assert!(dir.starts_with(&self.root), "not a scratch directory");
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One finished repetition as the sampler and the probes see it.
pub struct Rep {
    pub report: JobReport,
    /// The timed region: world build plus job call (see `README.md` for
    /// `serve` and `resume`).
    pub makespan_s: f64,
    pub world_build_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` after the timed region, the heap trimmed and the mark reset
    /// before it (`procs`: the coordinator's side).
    pub peak_rss_mb: f64,
    /// The job's log directory, still on disk.
    pub wal: PathBuf,
    /// The service's metrics hub right after the job returned.
    pub hub: MetricsSnapshot,
    pub journal_events: u64,
    pub journal_dropped: u64,
    pub serve: Option<ServeRep>,
}

impl Rep {
    pub fn job_wall_s(&self) -> f64 {
        self.makespan_s - self.world_build_s
    }
}

/// What `serve` adds to a repetition.
pub struct ServeRep {
    pub index: Arc<SearchIndex>,
    /// Latency of every query the reader finished during the timed job.
    pub latencies_us: Vec<f64>,
    pub submit_to_dispatch_us: f64,
    pub charges: u64,
}

/// The state of one run: scratch space, samples so far, failures so far.
pub struct Run<'a> {
    pub cfg: &'a Config,
    pub scratch: Scratch,
    pub tracer: Tracer,
    /// One sample per timed repetition, by metric.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Single readings (probes, the traced repetition), by metric.
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    pub errors: Vec<String>,
    /// `resume`: the log directory of the job killed in the latest set-up.
    crashed: Option<PathBuf>,
}

impl Run<'_> {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|s| stats::median(s))
    }

    /// Counts one checked thing, and why it failed if it did.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {why}"));
        }
    }

    /// Counts a finished job: its families, the ones it lost, and whether
    /// its records are the reference's (`None`: it is the reference).
    /// Returns its digest.
    fn account(&mut self, what: &str, report: &JobReport, reference: Option<u64>) -> u64 {
        self.attempted += report.families;
        self.failed += check::lost_families(report);
        let digest = check::digest(report);
        self.check(
            what,
            check::verify(report, digest, reference.unwrap_or(digest)),
        );
        digest
    }

    /// Every file of the corpus was crawled, and where the corpus sits on a
    /// storage-only endpoint (`heavy`) every byte crossed the link once.
    fn check_whole(&mut self, report: &JobReport, corpus: &Corpus) {
        let (crawled, moved) = (report.crawled_files, report.bytes_prefetched);
        let staged = self.cfg.workload == Workload::Heavy;
        let whole = crawled == corpus.files && (!staged || moved == corpus.bytes);
        self.check(
            "reference",
            whole.then_some(()).ok_or(format!(
                "{crawled} files crawled, {moved} B staged for a corpus of {} files, {} B",
                corpus.files, corpus.bytes
            )),
        );
    }
}

/// The query mix of `serve`: terms the generators plant, a numeric range, a
/// facet and point gets, in fixed proportions.
pub enum QueryOp {
    Search(Query),
    Facet(Query, &'static str),
    Get(FamilyId),
}

const QUERY_TERMS: &[&str] = &[
    "perovskite",
    "bandgap",
    "photoluminescence",
    "annealing",
    "diffraction",
    "microscopy",
    "emissions",
    "stratosphere",
    "isotope",
    "sequestration",
    "lattice",
    "phonon",
    "temperature",
    "pressure",
    "experiment",
];

/// A seeded, fixed list of [`QUERY_MIX`] queries: half one- or two-term
/// searches, a quarter range-filtered, an eighth facets, an eighth gets.
pub fn query_mix(seed: u64, families: &[FamilyId]) -> Vec<QueryOp> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e);
    let term = |rng: &mut SmallRng| QUERY_TERMS[rng.gen_range(0..QUERY_TERMS.len())];
    (0..QUERY_MIX)
        .map(|i| match i % 8 {
            0..=2 => QueryOp::Search(Query::terms(&[term(&mut rng)])),
            3 => QueryOp::Search(Query::terms(&[term(&mut rng), term(&mut rng)])),
            4 | 5 => {
                let mut q = Query::terms(&[term(&mut rng)]);
                q.filters.push(Filter::gt("mdf.files", 0.0));
                QueryOp::Search(q)
            }
            6 => QueryOp::Facet(Query::terms(&[term(&mut rng)]), "mdf.resource_type"),
            _ => QueryOp::Get(families[rng.gen_range(0..families.len())]),
        })
        .collect()
}

/// Issues one query; returns how many results it had.
pub fn issue(index: &SearchIndex, op: &QueryOp) -> usize {
    match op {
        QueryOp::Search(q) => std::hint::black_box(index.search(q)).len(),
        QueryOp::Facet(q, field) => std::hint::black_box(index.facet(q, field)).len(),
        QueryOp::Get(f) => usize::from(std::hint::black_box(index.get_arc(*f)).is_some()),
    }
}

/// Snapshots what a service's observability bundle holds after a job.
fn observe(svc: &XtractService) -> (MetricsSnapshot, u64, u64) {
    let obs = svc.obs();
    let dropped = obs.journal.dropped();
    (
        obs.hub.snapshot(),
        obs.journal.len() as u64 + dropped,
        dropped,
    )
}

impl Run<'_> {
    /// The timed region of every workload but `serve`: from a fresh heap,
    /// build the world, then make the one job call.
    fn timed_rep(
        &mut self,
        span: &str,
        world: &World,
        wal: &Path,
        job: impl FnOnce(&XtractService, Token) -> xtract_types::Result<JobReport>,
    ) -> Result<Rep, String> {
        host::fresh_heap();
        let cpu0 = host::cpu_s();
        let ((built, result), makespan_s) = self.tracer.timed(span, |t| {
            let (built, _) = t.timed("world.build", |_| world.build());
            let result = built
                .as_ref()
                .ok()
                .map(|(svc, token)| t.timed("job", |_| job(svc, *token)));
            (built, result)
        });
        let cpu_s = host::cpu_s() - cpu0;
        let peak_rss_mb = host::peak_rss_mb()?;
        let (svc, _) = built?;
        let (result, job_wall_s) = result.expect("the world was built");
        let report = result.map_err(|e| format!("{span}: job failed: {e}"))?;
        let (hub, journal_events, journal_dropped) = observe(&svc);
        Ok(Rep {
            report,
            makespan_s,
            world_build_s: makespan_s - job_wall_s,
            cpu_s,
            peak_rss_mb,
            wal: wal.to_path_buf(),
            hub,
            journal_events,
            journal_dropped,
            serve: None,
        })
    }

    /// One repetition of a job that is a single call on a fresh service:
    /// `flood`, `heavy`, `shards`, `procs`, and every reference job.
    pub fn plain_rep(&mut self, span: &str, world: &World, procs: bool) -> Result<Rep, String> {
        let wal = self.scratch.dir("w")?;
        let worker = self.cfg.worker.clone();
        let rep = self.timed_rep(span, world, &wal, |svc, token| {
            if procs {
                run_proc_sharded(svc, token, &world.spec, &wal, &worker)
            } else {
                svc.run_job_with_recovery(token, world.job(), &wal)
            }
        })?;
        Ok(rep)
    }

    /// `resume`'s untimed half: `flood`'s job run to its scheduled kill at
    /// the first mid-wave boundary. Returns the log directory it left.
    fn crash(&mut self, world: &World) -> Result<PathBuf, String> {
        let wal = self.scratch.dir("k")?;
        let (svc, token) = world.build()?;
        let (killed, _) = self.tracer.timed("untimed.killed_run", |_| {
            svc.run_job_with_recovery(token, world.job(), &wal)
        });
        match killed {
            Err(XtractError::OrchestratorKilled { .. }) => Ok(wal),
            Ok(_) => Err("resume: the scheduled kill never fired".into()),
            Err(e) => Err(format!("resume: job failed before the kill: {e}")),
        }
    }

    /// `resume`: a fresh service resuming the killed job from its log. The
    /// kill is deterministic (every killed run journals the same records),
    /// so the job is killed once per set-up and every repetition resumes a
    /// byte-for-byte copy of that log, made outside the timed region.
    fn resume_rep(&mut self, world: &World) -> Result<Rep, String> {
        let crashed = self
            .crashed
            .clone()
            .ok_or("resume: no killed job to resume")?;
        let wal = self.scratch.dir("w")?;
        copy_dir(&crashed, &wal)?;
        if self.tracer.is_enabled() {
            probes::scan_before_resume(self, &wal)?;
        }
        let rep = self.timed_rep("rep", world, &wal, |svc, token| {
            svc.resume_job(token, world.job(), &wal)
        })?;
        let (resumed, replayed) = (rep.report.resumed, rep.report.replayed_records);
        self.check(
            "resume",
            (resumed && replayed > 0).then_some(()).ok_or(format!(
                "resumed = {resumed}, replayed_records = {replayed}"
            )),
        );
        Ok(rep)
    }

    /// `serve`: a preload job fills the index (untimed), then the timed job
    /// ingests the corpus again while one closed-loop reader queries.
    fn serve_rep(&mut self, world: &World, reference: Option<u64>) -> Result<Rep, String> {
        let (svc, token) = world.build()?;
        let svc = Arc::new(svc);
        let policy = ServicePolicy {
            workers: 1,
            ..ServicePolicy::default()
        };
        let jobs = JobService::new(svc.clone(), policy).map_err(|e| format!("job service: {e}"))?;
        let tenant = jobs
            .register_tenant(TenantSpec::new("perf", 1))
            .map_err(|e| format!("register tenant: {e}"))?;
        let finish = |id, what: &str| -> Result<JobReport, String> {
            match jobs.wait(id, JOB_TIMEOUT) {
                Some(JobStatus::Complete { .. }) => {}
                other => return Err(format!("{what}: job ended as {other:?}")),
            }
            jobs.take_report(id)
                .ok_or(format!("{what}: no report"))?
                .map_err(|e| format!("{what}: job failed: {e}"))
        };
        let submit = |wal: &Path| {
            jobs.submit_with_recovery(tenant, 0, token, world.job().clone(), wal)
                .map_err(|e| format!("submit: {e}"))
        };

        let preload_wal = self.scratch.dir("w")?;
        let (preload, _) = self.tracer.timed("untimed.preload", |_| {
            submit(&preload_wal).and_then(|id| finish(id, "preload"))
        });
        let preload = preload?;
        self.account("preload", &preload, reference);
        self.scratch.discard(&preload_wal);
        let index = jobs.index().ok_or("the preload job fed no serving index")?;
        let preloaded: Vec<FamilyId> = preload.records.iter().map(|r| r.family).collect();
        let mix = query_mix(self.cfg.seed, &preloaded);
        // What the preloaded index answers; ingest only adds documents, so
        // a query with results now has results throughout the timed job.
        let answered: Vec<bool> = mix.iter().map(|op| issue(&index, op) > 0).collect();

        let wal = self.scratch.dir("w")?;
        let done = AtomicBool::new(false);
        host::fresh_heap();
        let cpu0 = host::cpu_s();
        let tracer = &mut self.tracer;
        let (timed, reader) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut latencies_us, mut wrong) = (Vec::with_capacity(1 << 16), 0u64);
                for (op, had_results) in mix.iter().zip(&answered).cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let t0 = Instant::now();
                    let results = issue(&index, op);
                    latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    wrong += u64::from(*had_results && results == 0);
                }
                (latencies_us, wrong)
            });
            let timed = tracer.timed("rep", |t| {
                t.timed("job", |_| -> Result<(JobReport, f64), String> {
                    let t0 = Instant::now();
                    let id = submit(&wal)?;
                    while jobs.status(id) == Some(JobStatus::Pending) {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    let dispatched_us = t0.elapsed().as_secs_f64() * 1e6;
                    Ok((finish(id, "serve")?, dispatched_us))
                })
                .0
            });
            // Release pairs with the reader's Acquire: it stops issuing.
            done.store(true, Ordering::Release);
            (timed, reader.join().expect("the reader does not panic"))
        });
        let cpu_s = host::cpu_s() - cpu0;
        let peak_rss_mb = host::peak_rss_mb()?;
        let (result, makespan_s) = timed;
        let (report, submit_to_dispatch_us) = result?;
        let (latencies_us, wrong_queries) = reader;
        self.attempted += latencies_us.len() as u64;
        self.failed += wrong_queries;
        if wrong_queries > 0 {
            self.errors.push(format!(
                "serve: {wrong_queries} queries lost their results during ingest"
            ));
        }
        let charges = jobs
            .tenant(tenant)
            .map_or(0, |t| t.ledger().spent(QuotaResource::Invocations));
        let (hub, journal_events, journal_dropped) = observe(&svc);
        Ok(Rep {
            report,
            makespan_s,
            world_build_s: 0.0,
            cpu_s,
            peak_rss_mb,
            wal,
            hub,
            journal_events,
            journal_dropped,
            serve: Some(ServeRep {
                index,
                latencies_us,
                submit_to_dispatch_us,
                charges,
            }),
        })
    }

    /// One repetition of the run's workload, checked against `reference`
    /// (`None`: against itself, before a reference exists). Returns it with
    /// its digest.
    fn rep(&mut self, world: &World, reference: Option<u64>) -> Result<(Rep, u64), String> {
        let rep = match self.cfg.workload {
            Workload::Serve => self.serve_rep(world, reference)?,
            Workload::Resume => self.resume_rep(world)?,
            w => self.plain_rep("rep", world, w == Workload::Procs)?,
        };
        let digest = self.account(self.cfg.workload.name(), &rep.report, reference);
        Ok((rep, digest))
    }

    /// Records what every timed repetition contributes.
    fn sample_rep(&mut self, rep: &Rep) {
        let r = &rep.report;
        self.sample("makespan_s", rep.makespan_s);
        self.sample("families_per_s", r.families as f64 / rep.makespan_s);
        self.sample("cpu_s", rep.cpu_s);
        self.sample("peak_rss_mb", rep.peak_rss_mb);
        for (name, value) in probes::published(rep) {
            self.sample(name, value);
        }
    }
}

/// Copies the files of `from` (and of its sub-directories) into `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("copy {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(fail)?;
    for entry in std::fs::read_dir(from).map_err(fail)? {
        let entry = entry.map_err(fail)?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(fail)?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(fail)?;
        }
    }
    Ok(())
}

/// What one set-up leaves for the timed repetitions.
struct SetUp {
    world: World,
    corpus: Corpus,
    /// The record digest of the warm-up repetition.
    digest: u64,
}

/// Where the `mixed` corpus of this run's size lives on disk, for the job
/// to crawl and read through a `LocalFs`. Kept from run to run and
/// overwritten in place by every set-up (the tree's paths depend on its
/// size, not on the seed), never deleted: ext4 skips recently deleted
/// inodes one by one when it allocates, so a set-up that created 12 000
/// files within minutes of another run deleting 12 000 paid 4-6 s of
/// kernel time for it.
fn mixed_dir(cfg: &Config) -> PathBuf {
    cfg.scratch_parent
        .join(format!("corpus-mixed-{}", cfg.mixed_files()))
}

/// One set-up, as the ISSUE defines it: materialise the corpus, then the
/// workload's warm-up repetition, which builds its world for the first time
/// and runs its job (`serve`: preload and ingest; `resume`: kill and
/// resume). Returns it with how long that took. Hashing the corpus for the
/// same-seed check is not part of it.
fn set_up_once(run: &mut Run) -> Result<(SetUp, f64), String> {
    let (seed, sizes, workload) = (run.cfg.seed, run.cfg.sizes, run.cfg.workload);
    let data_dir = mixed_dir(run.cfg);
    let t0 = Instant::now();
    let generated = Arc::new(MemFs::new(EndpointId::new(0)));
    let world = if workload == Workload::Heavy {
        corpus::write_bulky(generated.as_ref(), seed, &sizes);
        World::heavy(generated.clone())
    } else {
        corpus::write_mixed(generated.as_ref(), seed, run.cfg.mixed_files());
        corpus::export(generated.as_ref(), &data_dir)?;
        World::of(workload, &data_dir, seed)
    };
    if workload == Workload::Resume {
        if let Some(old) = run.crashed.take() {
            run.scratch.discard(&old);
        }
        run.crashed = Some(run.crash(&world)?);
    }
    let (warm_up, digest) = run.rep(&world, None)?;
    let setup_s = t0.elapsed().as_secs_f64();
    run.scratch.discard(&warm_up.wal);
    let corpus = corpus::measure(generated.as_ref());
    if matches!(workload, Workload::Flood | Workload::Heavy) {
        run.check_whole(&warm_up.report, &corpus);
    }
    Ok((
        SetUp {
            world,
            corpus,
            digest,
        },
        setup_s,
    ))
}

/// One more set-up, after `previous` (if any) has been let go: two corpora
/// never exist at once. Samples its `setup_s`, and checks that it gave what
/// the previous one gave.
fn next_set_up(run: &mut Run, previous: Option<SetUp>) -> Result<SetUp, String> {
    let previous = previous.map(|p| (p.corpus, p.digest));
    let (next, setup_s) = set_up_once(run)?;
    run.sample("setup_s", setup_s);
    if previous.is_some_and(|p| p != (next.corpus, next.digest)) {
        run.check(
            "setup",
            Err("the same seed gave a different corpus or digest".into()),
        );
    }
    Ok(next)
}

/// The reference digest every timed job must reproduce: the first warm-up's
/// own on `flood` and `heavy`, and on the other `mixed` workloads that of
/// `flood`'s job over the same corpus, run once, untimed.
fn reference_digest(run: &mut Run, first: &SetUp) -> Result<u64, String> {
    if matches!(run.cfg.workload, Workload::Flood | Workload::Heavy) {
        return Ok(first.digest);
    }
    let flood = World::flood(&mixed_dir(run.cfg));
    let rep = run.plain_rep("untimed.reference", &flood, false)?;
    let reference = run.account("reference", &rep.report, None);
    run.check_whole(&rep.report, &first.corpus);
    run.scratch.discard(&rep.wal);
    let same = first.digest == reference;
    run.check(
        "warm-up",
        same.then_some(()).ok_or(format!(
            "record digest {:016x} differs from flood's {reference:016x}",
            first.digest
        )),
    );
    Ok(reference)
}

/// What one run measured.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<&'static str, Summary>,
    /// The reference digest and the corpus hash, for the seed checks.
    pub digest: u64,
    pub corpus_hash: u64,
    pub corpus_files: u64,
    /// The probe span with the largest self time, when traced.
    pub largest_probe: Option<String>,
}

/// Runs one workload once and reports everything it measured.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let _one_at_a_time = host::lock_scratch(&cfg.scratch_parent)?;
    let mut run = Run {
        cfg,
        scratch: Scratch::new(&cfg.scratch_parent)?,
        tracer: Tracer::new(cfg.workload.name()),
        samples: BTreeMap::new(),
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        crashed: None,
    };
    // A run is `plan.setups` rounds, each a set-up followed by its share of
    // the timed repetitions: the repetitions (and the set-ups) are spread
    // over the whole run, so a busy spell of the host shorter than the run
    // touches some of them, not all.
    let rounds = cfg.plan.setups;
    let mut kept: Option<SetUp> = None;
    let mut reference = 0;
    let mut latencies_us = Vec::new();
    let mut reps_done = 0;
    for round in 0..rounds {
        let set_up = next_set_up(&mut run, kept.take())?;
        if round == 0 {
            reference = reference_digest(&mut run, &set_up)?;
        }
        let reps_due = cfg.plan.reps * (round + 1) / rounds;
        while reps_done < reps_due && run.errors.is_empty() {
            let (mut rep, _) = run.rep(&set_up.world, Some(reference))?;
            run.sample_rep(&rep);
            if let Some(serve) = &mut rep.serve {
                run.sample("query_p50_us", stats::median(&serve.latencies_us));
                run.sample(
                    "queries_per_s",
                    serve.latencies_us.len() as f64 / rep.makespan_s,
                );
                latencies_us.append(&mut serve.latencies_us);
            }
            run.scratch.discard(&rep.wal);
            reps_done += 1;
        }
        kept = Some(set_up);
    }
    let SetUp { world, corpus, .. } = kept.ok_or("a run needs at least one set-up")?;
    if !latencies_us.is_empty() {
        latencies_us.sort_by(f64::total_cmp);
        run.set("index.query_samples", latencies_us.len() as f64);
        // Pooled over the timed repetitions: a p99 needs its thousand.
        if let (true, Some(p99)) = (
            latencies_us.len() >= 1000,
            stats::quantile(&latencies_us, 0.99),
        ) {
            run.set("index.query_p99_us", p99);
        }
    }

    let mut largest_probe = None;
    if cfg.report.traced() && run.errors.is_empty() {
        run.tracer.enable(cfg.plan.reps as u32 + 1);
        let (rep, _) = run.rep(&world, Some(reference))?;
        if let Some(untraced) = run.median("makespan_s") {
            run.set(
                "trace.overhead_share",
                (rep.makespan_s - untraced) / untraced,
            );
        }
        probes::after_rep(&mut run, &world, &rep)?;
        run.scratch.discard(&rep.wal);
        largest_probe = run
            .tracer
            .largest_self("probe.")
            .map(|(name, own_us)| format!("{name} ({:.3} s)", own_us / 1e6));
        let path = Path::new("perf/target").join(format!("trace-{}.jsonl", cfg.workload.name()));
        run.tracer.write_jsonl(&path)?;
    }

    let mut metrics: BTreeMap<&'static str, Summary> = run
        .values
        .iter()
        .map(|(name, value)| (*name, Summary::single(*value)))
        .collect();
    for (name, samples) in &run.samples {
        if let Some(summary) = Summary::of(samples) {
            metrics.insert(name, summary);
        }
    }
    let fail_share = run.failed as f64 / run.attempted.max(1) as f64;
    metrics.insert("fail_share", Summary::single(fail_share));
    Ok(Outcome {
        workload: cfg.workload,
        seed: cfg.seed,
        correct: run.errors.is_empty() && run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        errors: std::mem::take(&mut run.errors),
        metrics,
        digest: reference,
        corpus_hash: corpus.hash,
        corpus_files: corpus.files,
        largest_probe,
    })
}
