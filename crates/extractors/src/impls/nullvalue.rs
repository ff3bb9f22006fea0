//! The null-value extractor (§4.2): "null-value to determine null-values
//! in tabular data" — empty cells, NA/NaN markers, and sentinel codes
//! (-999 and friends are ubiquitous in climate archives like CDIAC).

use crate::extractor::{ExtractOutput, Extractor, FileSource};
use crate::formats::table;
use serde_json::json;
use xtract_types::{ExtractorKind, Family, FileType, Metadata, Result};

/// Null-value census over tabular data.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullValueExtractor;

impl Extractor for NullValueExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::NullValue
    }

    fn accepts(&self, t: FileType) -> bool {
        t == FileType::Tabular
    }

    fn extract(&self, family: &Family, source: &dyn FileSource) -> Result<ExtractOutput> {
        let mut out = ExtractOutput::default();
        let mut family_nulls = 0u64;
        let mut family_cells = 0u64;
        for file in family.files.iter().filter(|f| self.accepts(f.hint)) {
            let bytes = source.read(file)?;
            let mut md = Metadata::new();
            let parsed = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|t| table::summarize(t).ok());
            let Some(t) = parsed else {
                md.insert("error", "not parseable as a table");
                out.per_file.push((file.path.clone(), md));
                continue;
            };
            let stats = &t.columns;
            let nulls: u64 = stats.iter().map(|s| s.null_count as u64).sum();
            let cells = (t.rows * stats.len()) as u64;
            family_nulls += nulls;
            family_cells += cells;
            md.insert("null_cells", nulls);
            md.insert("total_cells", cells);
            md.insert(
                "null_fraction",
                if cells > 0 {
                    nulls as f64 / cells as f64
                } else {
                    0.0
                },
            );
            md.insert(
                "columns_with_nulls",
                json!(stats
                    .iter()
                    .filter(|s| s.null_count > 0)
                    .map(|s| json!({"name": s.name, "nulls": s.null_count}))
                    .collect::<Vec<_>>()),
            );
            out.per_file.push((file.path.clone(), md));
        }
        let mut fam = Metadata::new();
        fam.insert("null_cells", family_nulls);
        fam.insert("total_cells", family_cells);
        out.family_metadata = fam;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::MapSource;
    use xtract_types::{EndpointId, FamilyId, FileRecord, Group, GroupId};

    fn family(paths: &[(&str, FileType)]) -> Family {
        let files: Vec<FileRecord> = paths
            .iter()
            .map(|(p, t)| FileRecord::new(*p, 0, EndpointId::new(0), *t))
            .collect();
        let g = Group::new(
            GroupId::new(0),
            files.iter().map(|f| f.path.clone()).collect(),
        );
        Family::new(FamilyId::new(0), files, vec![g], EndpointId::new(0))
    }

    #[test]
    fn counts_nulls_and_sentinels() {
        let mut src = MapSource::new();
        src.insert(
            "/obs.csv",
            b"station,temp\nmlo,14.2\nbrw,\nspo,-999\n".to_vec(),
        );
        let fam = family(&[("/obs.csv", FileType::Tabular)]);
        let out = NullValueExtractor.extract(&fam, &src).unwrap();
        let md = &out.per_file[0].1;
        assert_eq!(md.get("null_cells").unwrap(), 2);
        assert_eq!(md.get("total_cells").unwrap(), 6);
        let frac = md.get("null_fraction").unwrap().as_f64().unwrap();
        assert!((frac - 2.0 / 6.0).abs() < 1e-12);
        let cols = md.get("columns_with_nulls").unwrap().as_array().unwrap();
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0]["name"], "temp");
    }

    #[test]
    fn clean_table_reports_zero() {
        let mut src = MapSource::new();
        src.insert("/clean.csv", b"a,b\n1,2\n3,4\n".to_vec());
        let fam = family(&[("/clean.csv", FileType::Tabular)]);
        let out = NullValueExtractor.extract(&fam, &src).unwrap();
        assert_eq!(out.per_file[0].1.get("null_cells").unwrap(), 0);
        assert_eq!(out.family_metadata.get("null_cells").unwrap(), 0);
    }

    #[test]
    fn unparseable_records_error() {
        let mut src = MapSource::new();
        src.insert("/junk.csv", b"free prose here\nno structure\n".to_vec());
        let fam = family(&[("/junk.csv", FileType::Tabular)]);
        let out = NullValueExtractor.extract(&fam, &src).unwrap();
        assert!(out.per_file[0].1.contains("error"));
    }
}
