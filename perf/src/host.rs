//! What the benchmark reads from the machine it runs on: CPU time, peak
//! resident memory, and the facts the header prints so that two result
//! files can be told apart (cores, scratch filesystem, compiler, commit).

use std::path::Path;
use std::process::Command;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux C library fills in, and `who` is one of its two constants.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn rusage_s(who: i32) -> f64 {
    let usage = rusage(who);
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime)
}

/// User + system CPU seconds of this process (all threads, live or ended)
/// and of every child it has reaped. The kernel derives both from the
/// scheduler's nanosecond run times, so the sum is not quantised to clock
/// ticks the way `/proc/self/stat` is; the unit of the call is 1 µs.
pub fn cpu_s() -> f64 {
    rusage_s(RUSAGE_SELF) + rusage_s(RUSAGE_CHILDREN)
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: returns free heap pages to the kernel, from every arena.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a repetition from the memory a fresh process would have: pages
/// the allocator kept from earlier repetitions are returned to the kernel,
/// then `VmHWM` is reset to what is resident now, so that the next
/// [`peak_rss_mb`] is this repetition's peak and not the run's. Without it
/// the mark climbs from one repetition to the next with whatever the
/// allocator's arenas happened to retain (295 to 355 MiB on `flood`), and a
/// repetition's page faults depend on its predecessors. Where the kernel
/// refuses the reset, the mark stays the run's.
pub fn fresh_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds no live allocation in; glibc allows it from any
    // thread at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB: the most memory it has had resident
/// since the last [`fresh_heap`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

extern "C" {
    fn syncfs(fd: i32) -> i32;
    fn flock(fd: i32, operation: i32) -> i32;
}

const LOCK_EX: i32 = 2;
const LOCK_NB: i32 = 4;

/// Takes the one-run-at-a-time lock of a scratch parent: an exclusive
/// `flock` on `<dir>/xtract-perf.lock`, held until the returned file is
/// dropped or the process dies. Two runs at once share the on-disk corpus
/// and the two cores; both would measure the other.
pub fn lock_scratch(dir: &Path) -> Result<std::fs::File, String> {
    use std::os::fd::AsRawFd;
    let path = dir.join("xtract-perf.lock");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    // SAFETY: `file` is an open descriptor for the length of the call.
    match unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } {
        0 => Ok(file),
        _ => Err(format!(
            "another run holds {}; one run at a time per scratch directory",
            path.display()
        )),
    }
}

/// Waits until the filesystem holding `dir` has written back everything
/// dirty: what a corpus export leaves would otherwise be written back under
/// the repetitions that follow.
pub fn sync_fs(dir: &Path) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    let handle = std::fs::File::open(dir)?;
    // SAFETY: `handle` is an open descriptor for the length of the call.
    match unsafe { syncfs(handle.as_raw_fd()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// The filesystem type `dir` is mounted from, by the longest mount point in
/// `/proc/self/mounts` that is a prefix of its absolute path.
pub fn fs_kind(dir: &Path) -> String {
    let Ok(abs) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".into(), |(_, kind)| kind.to_string())
}

/// What the crates.io dependencies of the repository's crates are in this
/// build: `perf/Cargo.toml` patches every one of them to its stand-in under
/// `perf/offline/`, always. Results and A/A files carry it, so that numbers
/// from a build against the published crates, should the manifest ever
/// allow one, cannot be mistaken for these.
pub const DEPS: &str = "stand-in";

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The lines printed before any workload runs.
pub fn header(scratch_parent: &Path) -> Vec<String> {
    let rustc = first_line(Command::new("rustc").arg("--version")).unwrap_or("unknown".into());
    let commit = first_line(Command::new("git").args(["rev-parse", "--short", "HEAD"]))
        .unwrap_or("none (not a git checkout)".into());
    let kind = fs_kind(scratch_parent);
    let mut lines = vec![
        format!(
            "# xtract-perf: nproc={} rustc=\"{rustc}\" commit={commit}",
            nproc()
        ),
        format!(
            "# scratch={} fs={kind} deps={DEPS} cpu_clock=getrusage(1us) wall_clock=Instant(1ns)",
            scratch_parent.display(),
        ),
    ];
    if nproc() < 2 {
        lines.push("# WARNING: fewer than 2 cores; the thread budget assumes 2".into());
    }
    if kind != "tmpfs" {
        lines.push(format!(
            "# WARNING: scratch is on {kind}, not tmpfs; set XTRACT_PERF_SCRATCH=/dev/shm for quieter runs"
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() > before);
        assert!(peak_rss_mb().unwrap() > 1.0);
        assert_ne!(fs_kind(Path::new(".")), "unknown");
    }
}
