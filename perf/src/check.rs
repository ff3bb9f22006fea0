//! The output check every workload shares.
//!
//! Records are compared by content, never by id: family ids depend on the
//! order the crawl happened to finish in, and staged copies live under
//! `<store>/fam-<id>/...`, so both are normalised away first (the `doc_key`
//! of `tests/staging_pipeline.rs`), then the documents are sorted and
//! hashed into one digest per job.

use xtract_core::JobReport;
use xtract_types::MetadataRecord;

/// A record's document with every `/fam-<digits>` path component removed.
pub fn doc_key(record: &MetadataRecord) -> String {
    let text = serde_json::to_string(&record.document).expect("a document serializes");
    let marker = "/fam-";
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(i) = rest.find(marker) {
        let tail = &rest[i + marker.len()..];
        let digits = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        if digits == 0 {
            // "/fam-" followed by no number is ordinary content.
            out.push_str(&rest[..i + marker.len()]);
            rest = tail;
        } else {
            out.push_str(&rest[..i]);
            rest = &tail[digits..];
        }
    }
    out.push_str(rest);
    out
}

/// FNV-1a over the sorted normalised documents of a report, each followed
/// by a NUL: equal digests mean equal multisets of documents.
pub fn digest(report: &JobReport) -> u64 {
    let mut keys: Vec<String> = report.records.iter().map(doc_key).collect();
    keys.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in keys.iter().flat_map(|k| k.bytes().chain([0])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Families of a finished job that did not end in exactly one validated
/// record: dead letters plus planned families with no record at all.
pub fn lost_families(report: &JobReport) -> u64 {
    (report.families as usize).saturating_sub(report.records.len()) as u64
        + report.failures.len() as u64
}

/// Checks one finished job, whose [`digest`] is `got`, against the reference
/// digest. `Err` says what differs; the caller counts it in `fail_share`.
pub fn verify(report: &JobReport, got: u64, reference: u64) -> Result<(), String> {
    if report.families == 0 {
        return Err("the job planned no families".into());
    }
    if let Some(letter) = report.failures.first() {
        return Err(format!(
            "{} dead letters, first: {letter:?}",
            report.failures.len()
        ));
    }
    if report.records.len() as u64 != report.families {
        return Err(format!(
            "{} records for {} families",
            report.records.len(),
            report.families
        ));
    }
    if got != reference {
        return Err(format!(
            "record digest {got:016x} differs from the reference {reference:016x}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtract_types::{FamilyId, Metadata};

    fn record(family: u64, path: &str) -> MetadataRecord {
        let mut document = Metadata::new();
        document.insert("path", path);
        MetadataRecord {
            family: FamilyId::new(family),
            schema: "s".into(),
            document,
            extractors: vec![],
        }
    }

    fn report(records: Vec<MetadataRecord>) -> JobReport {
        JobReport {
            families: records.len() as u64,
            records,
            ..JobReport::default()
        }
    }

    #[test]
    fn digest_ignores_ids_order_and_staging_prefixes_only() {
        let a = report(vec![
            record(1, "/s/fam-42/repo/a.txt"),
            record(2, "/repo/b"),
        ]);
        let b = report(vec![record(9, "/repo/b"), record(7, "/s/fam-7/repo/a.txt")]);
        let c = report(vec![
            record(1, "/s/fam-42/repo/a.txt"),
            record(2, "/repo/c"),
        ]);
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert!(doc_key(&record(1, "/x/fam-/y")).contains("/fam-/y"));
        assert!(verify(&a, digest(&a), digest(&b)).is_ok());
        assert!(verify(&c, digest(&c), digest(&a))
            .unwrap_err()
            .contains("differs"));
        assert_eq!(
            lost_families(&JobReport {
                families: 3,
                ..report(vec![])
            }),
            3
        );
    }
}
