//! `micro_extractors` — real extractor throughput over synthetic bytes:
//! the native-Rust counterpart of the paper's per-extractor timings
//! (Table 3). Each benchmark parses genuinely structured input and
//! declares its input's size, so criterion reports MB/s — the unit of the
//! perf ledger's `extractors.mb_per_s`.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::SeedableRng;
use std::hint::black_box;
use xtract_extractors::formats::image::{self, ImageClass};
use xtract_extractors::formats::table;
use xtract_extractors::{library, MapSource};
use xtract_types::{
    EndpointId, ExtractorKind, Family, FamilyId, FileRecord, FileType, Group, GroupId,
};

fn rng() -> rand::rngs::SmallRng {
    rand::rngs::SmallRng::seed_from_u64(9)
}

/// A one-file family, its source, and the `Throughput` of one pass.
fn one_file_family(path: &str, bytes: Vec<u8>, hint: FileType) -> (Family, MapSource, Throughput) {
    let size = Throughput::Bytes(bytes.len() as u64);
    let mut src = MapSource::new();
    src.insert(path.to_string(), Bytes::from(bytes));
    let f = FileRecord::new(path, 0, EndpointId::new(0), hint);
    let g = Group::new(GroupId::new(0), vec![f.path.clone()]);
    (
        Family::new(FamilyId::new(0), vec![f], vec![g], EndpointId::new(0)),
        src,
        size,
    )
}

fn bench_extractors(c: &mut Criterion) {
    let lib = library();
    let mut r = rng();
    let mut group = c.benchmark_group("extractors");
    group.sample_size(20);

    let prose = xtract_workloads::materialize::prose(&mut r, 20_000);
    let (fam, src, size) =
        one_file_family("/doc.txt", prose.as_bytes().to_vec(), FileType::FreeText);
    group.throughput(size);
    group.bench_function("keyword_20k_words", |b| {
        b.iter(|| black_box(lib[&ExtractorKind::Keyword].extract(&fam, &src).unwrap()))
    });
    // Only the keyword extractor's "is this prose really a table?" probe.
    group.bench_function("keyword_probe_prose_20k", |b| {
        b.iter(|| black_box(table::summarize(black_box(&prose)).is_err()))
    });

    let csv = xtract_workloads::materialize::csv(&mut r, 5_000);
    let (fam, src, size) = one_file_family("/t.csv", csv.into_bytes(), FileType::Tabular);
    group.throughput(size);
    group.bench_function("tabular_5k_rows", |b| {
        b.iter(|| black_box(lib[&ExtractorKind::Tabular].extract(&fam, &src).unwrap()))
    });
    group.bench_function("null_value_5k_rows", |b| {
        b.iter(|| black_box(lib[&ExtractorKind::NullValue].extract(&fam, &src).unwrap()))
    });

    let img = image::generate(ImageClass::Photograph, 256, 256, &mut r);
    let (fam, src, size) = one_file_family("/p.ximg", img.encode().to_vec(), FileType::Image);
    group.throughput(size);
    group.bench_function("images_256px", |b| {
        b.iter(|| black_box(lib[&ExtractorKind::Images].extract(&fam, &src).unwrap()))
    });
    group.bench_function("image_sort_256px", |b| {
        b.iter(|| black_box(lib[&ExtractorKind::ImageSort].extract(&fam, &src).unwrap()))
    });

    let json = xtract_workloads::materialize::json_doc(&mut r);
    let (fam, src, size) = one_file_family("/m.json", json.into_bytes(), FileType::Json);
    group.throughput(size);
    group.bench_function("semistructured_json", |b| {
        b.iter(|| {
            black_box(
                lib[&ExtractorKind::SemiStructured]
                    .extract(&fam, &src)
                    .unwrap(),
            )
        })
    });

    let hdf = xtract_workloads::materialize::xhdf_doc(&mut r);
    let (fam, src, size) = one_file_family("/g.xhdf", hdf.into_bytes(), FileType::Hierarchical);
    group.throughput(size);
    group.bench_function("hierarchical", |b| {
        b.iter(|| {
            black_box(
                lib[&ExtractorKind::Hierarchical]
                    .extract(&fam, &src)
                    .unwrap(),
            )
        })
    });

    // A full VASP group through MaterialsIO.
    let run = xtract_workloads::materialize::vasp_run(&mut r);
    let mut src = MapSource::new();
    let mut paths = Vec::new();
    group.throughput(Throughput::Bytes(
        run.iter().map(|(_, body)| body.len() as u64).sum(),
    ));
    for (name, body) in run {
        let p = format!("/run/{name}");
        src.insert(p.clone(), Bytes::from(body.into_bytes()));
        paths.push(p);
    }
    let files: Vec<FileRecord> = paths
        .iter()
        .map(|p| {
            FileRecord::new(
                p.clone(),
                0,
                EndpointId::new(0),
                xtract_types::sniff_path(p),
            )
        })
        .collect();
    let g = Group::new(GroupId::new(0), paths);
    let fam = Family::new(FamilyId::new(0), files, vec![g], EndpointId::new(0));
    group.bench_function("materials_io_vasp_group", |b| {
        b.iter(|| {
            black_box(
                lib[&ExtractorKind::MaterialsIo]
                    .extract(&fam, &src)
                    .unwrap(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_extractors);
criterion_main!(benches);
