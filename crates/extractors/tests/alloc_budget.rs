//! Allocation budget of the text-shaped extractors: a count that repeats
//! exactly, so it guards "allocation follows distinct words and files, not
//! tokens and cells" without a clock. Its own test binary with one test:
//! nothing else allocates while a count is being taken.

use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xtract_extractors::impls::{KeywordExtractor, NullValueExtractor, TabularExtractor};
use xtract_extractors::{Extractor, MapSource};
use xtract_types::{EndpointId, Family, FamilyId, FileRecord, FileType, Group, GroupId};
use xtract_workloads::materialize;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) one `extract` over a one-file family
/// makes; reading the file from a `MapSource` clones a `Bytes`, no copy.
fn allocations(extractor: &dyn Extractor, path: &str, text: &str, hint: FileType) -> u64 {
    let mut src = MapSource::new();
    src.insert(path, text.as_bytes().to_vec());
    let file = FileRecord::new(path, text.len() as u64, EndpointId::new(0), hint);
    let group = Group::new(GroupId::new(0), vec![file.path.clone()]);
    let family = Family::new(
        FamilyId::new(0),
        vec![file],
        vec![group],
        EndpointId::new(0),
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = extractor.extract(&family, &src).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(out.per_file.len(), 1);
    assert!(!out.per_file[0].1.contains("error"));
    after - before
}

#[test]
fn text_extractors_allocate_per_file_not_per_token_or_cell() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let prose = materialize::prose(&mut rng, 20_000);
    let keyword = allocations(
        &KeywordExtractor::default(),
        "/doc.txt",
        &prose,
        FileType::FreeText,
    );
    assert!(keyword < 2_000, "keyword made {keyword} allocations");

    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let csv = materialize::csv(&mut rng, 5_000);
    let tabular = allocations(&TabularExtractor, "/t.csv", &csv, FileType::Tabular);
    assert!(tabular < 500, "tabular made {tabular} allocations");
    let nulls = allocations(&NullValueExtractor, "/t.csv", &csv, FileType::Tabular);
    assert!(nulls < 500, "null-value made {nulls} allocations");
    println!("allocations: keyword {keyword}, tabular {tabular}, null-value {nulls}");
}
