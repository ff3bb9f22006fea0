//! The two corpora, pure functions of the run's `--seed`.
//!
//! Sizes are frozen constants, calibrated once on the 2-core reference box
//! (README, "Frozen constants") and never adjusted at run time: a slower machine
//! takes longer, it does not do less. Nothing random decides *how much*
//! work a corpus holds (`mixed`'s family count and `bulky`'s row, word and
//! pixel counts are fixed); the seed only decides the bytes. That keeps ten
//! runs on ten seeds comparable with one another.

use crate::host;
use bytes::Bytes;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use xtract_datafabric::StorageBackend;
use xtract_extractors::formats::image::{self, ImageClass};
use xtract_sim::RngStreams;
use xtract_workloads::materialize;

/// Root directory of every corpus inside its backend.
pub const ROOT: &str = "/repo";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `mixed`: files in the `sample_repo` tree (12 per directory, one
    /// 3-file VASP group in nine).
    pub mixed_files: u64,
    /// `mixed` as `serve` ingests it, twice in every repetition.
    pub serve_files: u64,
    /// `bulky`: single-file families, cycling CSV, prose, XIMG.
    pub bulky_families: usize,
    pub bulky_csv_rows: usize,
    pub bulky_prose_words: usize,
    /// Side of the square XIMG images, pixels.
    pub bulky_image_side: u32,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        mixed_files: 18_000,
        serve_files: 6_000,
        bulky_families: 384,
        bulky_csv_rows: 3_200,
        bulky_prose_words: 29_000,
        bulky_image_side: 164,
    };

    /// `--smoke`: every workload at about a fiftieth of the size.
    pub const SMOKE: Sizes = Sizes {
        mixed_files: 360,
        serve_files: 120,
        bulky_families: 6,
        bulky_csv_rows: 1_000,
        bulky_prose_words: 2_000,
        bulky_image_side: 48,
    };
}

/// What a generator wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corpus {
    pub files: u64,
    pub bytes: u64,
    /// FNV-1a over every `(path, bytes)` in sorted path order: two corpora
    /// with the same hash hold the same files with the same contents.
    pub hash: u64,
}

/// Calls `visit` with every file `backend` holds under `dir` and its bytes,
/// in sorted path order.
fn walk(backend: &dyn StorageBackend, dir: &str, visit: &mut dyn FnMut(&str, &Bytes)) {
    let mut entries = backend
        .list(dir)
        .unwrap_or_else(|e| panic!("list {dir}: {e}"));
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for entry in entries {
        let path = format!("{dir}/{}", entry.name);
        if entry.is_dir {
            walk(backend, &path, visit);
        } else {
            let body = backend
                .read(&path)
                .unwrap_or_else(|e| panic!("read {path}: {e}"));
            visit(&path, &body);
        }
    }
}

/// Counts and hashes everything `backend` holds under [`ROOT`].
pub fn measure(backend: &dyn StorageBackend) -> Corpus {
    let mut corpus = Corpus {
        files: 0,
        bytes: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    };
    walk(backend, ROOT, &mut |path, body| {
        corpus.files += 1;
        corpus.bytes += body.len() as u64;
        for &b in path.as_bytes().iter().chain(&[0]).chain(body.iter()) {
            corpus.hash = (corpus.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    });
    corpus
}

/// Writes every file `corpus` holds under [`ROOT`] to the same path below
/// `dir`, over whatever is there, and waits until the disk has it, so that
/// no write-back runs under the repetitions that follow. A file is opened
/// without `O_TRUNC` and cut to length after the write: ext4 flushes a file
/// that was truncated to nothing and rewritten when it is closed
/// (`auto_da_alloc`), which made overwriting 16 000 files take 2.5 s
/// instead of 0.11 s.
pub fn export(corpus: &dyn StorageBackend, dir: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("export corpus to {}: {e}", dir.display());
    let mut result = Ok(());
    let mut made = PathBuf::new();
    walk(corpus, ROOT, &mut |path, body| {
        if result.is_err() {
            return;
        }
        let host = dir.join(path.trim_start_matches('/'));
        let parent = host.parent().expect("a file below dir");
        result = (|| {
            if parent != made {
                std::fs::create_dir_all(parent)?;
                made = parent.to_path_buf();
            }
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&host)?;
            file.write_all(body)?;
            file.set_len(body.len() as u64)
        })();
    });
    result.map_err(fail)?;
    host::sync_fs(dir).map_err(fail)
}

/// Thousands of tiny parseable files of nine kinds: extraction is
/// microseconds per family, so per-family orchestration is the job.
pub fn write_mixed(backend: &dyn StorageBackend, seed: u64, files: u64) {
    materialize::sample_repo(backend, ROOT, files, &RngStreams::new(seed));
}

/// Few large single-file families, one per directory so that each is a
/// family of its own: tens of milliseconds of extraction each.
pub fn write_bulky(backend: &dyn StorageBackend, seed: u64, sizes: &Sizes) {
    let streams = RngStreams::new(seed);
    for i in 0..sizes.bulky_families {
        let mut rng = streams.substream("bulky", i as u64);
        let (name, body): (_, Bytes) = match i % 3 {
            0 => (
                "obs.csv",
                materialize::csv(&mut rng, sizes.bulky_csv_rows).into(),
            ),
            1 => (
                "notes.txt",
                materialize::prose(&mut rng, sizes.bulky_prose_words).into(),
            ),
            _ => {
                let side = sizes.bulky_image_side;
                let class = [ImageClass::GeographicMap, ImageClass::Plot][i / 3 % 2];
                (
                    "fig.ximg",
                    image::generate(class, side, side, &mut rng).encode(),
                )
            }
        };
        let path = format!("{ROOT}/f{i:03}/{name}");
        backend
            .write(&path, body)
            .unwrap_or_else(|e| panic!("write {path} into a fresh corpus: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtract_datafabric::{LocalFs, MemFs};
    use xtract_types::EndpointId;

    #[test]
    fn export_overwrites_in_place_and_cuts_longer_files_to_length() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/tmp/export-{}", std::process::id()));
        let on_disk = |seed| {
            let mem = MemFs::new(EndpointId::new(0));
            write_mixed(&mem, seed, Sizes::SMOKE.serve_files);
            export(&mem, &dir).unwrap();
            let fs = LocalFs::new(EndpointId::new(0), &dir).unwrap();
            (measure(&mem), measure(&fs))
        };
        let (first, first_on_disk) = on_disk(11);
        assert_eq!(first, first_on_disk);
        // Another seed: the same paths, other bytes, other lengths.
        let (second, second_on_disk) = on_disk(12);
        assert_eq!(second, second_on_disk);
        assert_ne!((first.bytes, first.hash), (second.bytes, second.hash));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        type Generator = fn(&dyn StorageBackend, u64, &Sizes);
        let mixed: Generator = |b, seed, sizes| write_mixed(b, seed, sizes.mixed_files);
        for (name, write) in [("mixed", mixed), ("bulky", write_bulky)] {
            let generate = |seed| {
                let fs = MemFs::new(EndpointId::new(0));
                write(&fs, seed, &Sizes::SMOKE);
                let corpus = measure(&fs);
                assert_eq!(corpus.files as usize, fs.file_count(), "{name}");
                assert_eq!(corpus.bytes, fs.total_bytes(), "{name}");
                corpus
            };
            let (a, b, c) = (generate(11), generate(11), generate(12));
            assert_eq!(a, b, "{name}: same seed, different corpus");
            assert_ne!(a.hash, c.hash, "{name}: different seeds, same bytes");
            assert_eq!(
                a.files, c.files,
                "{name}: the seed changed how much work there is"
            );
        }
    }
}
