//! Allocation budget of the extractors `heavy` runs: a count that repeats
//! exactly, so it guards "allocation follows distinct words and files, not
//! tokens, cells and pixels" without a clock. Its own test binary with one
//! test: nothing else allocates while a count is being taken.

use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xtract_extractors::formats::image::{self, ImageClass};
use xtract_extractors::impls::{
    ImagesExtractor, KeywordExtractor, NullValueExtractor, TabularExtractor,
};
use xtract_extractors::{Extractor, MapSource};
use xtract_types::{EndpointId, Family, FamilyId, FileRecord, FileType, Group, GroupId};
use xtract_workloads::materialize;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) one `extract` over a one-file family
/// makes, and the bytes they asked for; reading the file from a
/// `MapSource` clones a `Bytes`, no copy.
fn allocations(extractor: &dyn Extractor, path: &str, body: &[u8], hint: FileType) -> (u64, u64) {
    let mut src = MapSource::new();
    src.insert(path, body.to_vec());
    let file = FileRecord::new(path, body.len() as u64, EndpointId::new(0), hint);
    let group = Group::new(GroupId::new(0), vec![file.path.clone()]);
    let family = Family::new(
        FamilyId::new(0),
        vec![file],
        vec![group],
        EndpointId::new(0),
    );
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = extractor.extract(&family, &src).unwrap();
    let after = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    assert_eq!(out.per_file.len(), 1);
    assert!(!out.per_file[0].1.contains("error"));
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn extractors_allocate_per_file_not_per_token_cell_or_pixel() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let prose = materialize::prose(&mut rng, 20_000);
    let (keyword, _) = allocations(
        &KeywordExtractor::default(),
        "/doc.txt",
        prose.as_bytes(),
        FileType::FreeText,
    );
    // The parent's count: its map copied every distinct word, this one
    // borrows those the text already spells in lowercase.
    assert!(keyword <= 153, "keyword made {keyword} allocations");

    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let csv = materialize::csv(&mut rng, 5_000);
    let (tabular, tabular_bytes) = allocations(
        &TabularExtractor,
        "/t.csv",
        csv.as_bytes(),
        FileType::Tabular,
    );
    assert!(tabular <= 117, "tabular made {tabular} allocations");
    let (nulls, null_bytes) = allocations(
        &NullValueExtractor,
        "/t.csv",
        csv.as_bytes(),
        FileType::Tabular,
    );
    assert!(nulls <= 45, "null-value made {nulls} allocations");
    // No cell vector: what either asks for is a few column records, far
    // below the file's own size (the parent's cells were six times it).
    for bytes in [tabular_bytes, null_bytes] {
        assert!(
            bytes < csv.len() as u64 / 8,
            "{bytes} B for {} B",
            csv.len()
        );
    }

    // A decoded image lends the file's bytes: nothing an image extractor
    // allocates grows with the pixel count.
    let mut images = Vec::new();
    for side in [64, 256] {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let file = image::generate(ImageClass::GeographicMap, side, side, &mut rng).encode();
        let (count, bytes) = allocations(&ImagesExtractor, "/m.ximg", &file, FileType::Image);
        assert!(bytes < 4_096, "{bytes} B allocated for a {side} px map");
        images.push(count);
    }
    assert_eq!(images[0], images[1], "allocations follow the pixel count");
    println!(
        "allocations: keyword {keyword}, tabular {tabular} ({tabular_bytes} B), \
         null-value {nulls} ({null_bytes} B), images {}",
        images[0]
    );
}
