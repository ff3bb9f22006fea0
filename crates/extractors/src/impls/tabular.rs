//! The tabular extractor (§4.2): header, dimensions, and per-column
//! aggregates ("Aggregate column-level metadata (e.g., mean and maximum)
//! often provide useful insights").

use crate::extractor::{ExtractOutput, Extractor, FileSource};
use crate::formats::table;
use serde_json::json;
use xtract_types::{ExtractorKind, Family, FileType, Metadata, Result};

/// Column statistics over row/column data.
#[derive(Debug, Clone, Copy, Default)]
pub struct TabularExtractor;

impl Extractor for TabularExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::Tabular
    }

    fn accepts(&self, t: FileType) -> bool {
        t == FileType::Tabular
    }

    fn extract(&self, family: &Family, source: &dyn FileSource) -> Result<ExtractOutput> {
        let mut out = ExtractOutput::default();
        let mut tables = 0usize;
        let mut total_rows = 0u64;
        for file in family.files.iter().filter(|f| self.accepts(f.hint)) {
            let bytes = source.read(file)?;
            let mut md = Metadata::new();
            let text = match std::str::from_utf8(&bytes) {
                Ok(t) => t,
                Err(_) => {
                    md.insert("error", "not UTF-8 text");
                    out.per_file.push((file.path.clone(), md));
                    continue;
                }
            };
            match table::summarize(text) {
                Ok(t) => {
                    tables += 1;
                    total_rows += t.rows as u64;
                    md.insert("rows", t.rows);
                    md.insert("columns", t.columns.len());
                    md.insert("has_header", t.has_header);
                    md.insert("delimiter", t.delimiter.to_string());
                    md.insert(
                        "header",
                        json!(t.columns.iter().map(|s| &s.name).collect::<Vec<_>>()),
                    );
                    md.insert(
                        "column_stats",
                        json!(t
                            .columns
                            .iter()
                            .map(|s| json!({
                                "name": s.name,
                                "numeric": s.numeric_count,
                                "text": s.text_count,
                                "nulls": s.null_count,
                                "mean": s.mean,
                                "min": s.min,
                                "max": s.max,
                            }))
                            .collect::<Vec<_>>()),
                    );
                }
                Err(e) => {
                    // A tabular-hinted file that fails to parse as a table
                    // is likely free text: feed the planner.
                    md.insert("error", e.to_string());
                    out.discovered.push((file.path.clone(), FileType::FreeText));
                }
            }
            out.per_file.push((file.path.clone(), md));
        }
        let mut fam = Metadata::new();
        fam.insert("tables", tables);
        fam.insert("total_rows", total_rows);
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
    fn extracts_dimensions_and_stats() {
        let mut src = MapSource::new();
        src.insert(
            "/t.csv",
            b"year,temp\n2000,14.3\n2001,14.5\n2002,14.9\n".to_vec(),
        );
        let fam = family(&[("/t.csv", FileType::Tabular)]);
        let out = TabularExtractor.extract(&fam, &src).unwrap();
        let md = &out.per_file[0].1;
        assert_eq!(md.get("rows").unwrap(), 3);
        assert_eq!(md.get("columns").unwrap(), 2);
        assert_eq!(md.get("has_header").unwrap(), true);
        let stats = md.get("column_stats").unwrap().as_array().unwrap();
        assert_eq!(stats[1]["name"], "temp");
        let mean = stats[1]["mean"].as_f64().unwrap();
        assert!((mean - (14.3 + 14.5 + 14.9) / 3.0).abs() < 1e-9);
        assert_eq!(out.family_metadata.get("total_rows").unwrap(), 3);
    }

    #[test]
    fn unparseable_table_discovers_free_text() {
        let mut src = MapSource::new();
        src.insert(
            "/notes.csv",
            b"this file is actually prose\nnot a table at all\n".to_vec(),
        );
        let fam = family(&[("/notes.csv", FileType::Tabular)]);
        let out = TabularExtractor.extract(&fam, &src).unwrap();
        assert!(out.per_file[0].1.contains("error"));
        assert_eq!(
            out.discovered,
            vec![("/notes.csv".to_string(), FileType::FreeText)]
        );
    }

    #[test]
    fn only_tabular_files_are_touched() {
        let mut src = MapSource::new();
        src.insert("/t.csv", b"a,b\n1,2\n".to_vec());
        let fam = family(&[
            ("/t.csv", FileType::Tabular),
            ("/x.txt", FileType::FreeText),
        ]);
        let out = TabularExtractor.extract(&fam, &src).unwrap();
        assert_eq!(out.per_file.len(), 1);
        assert_eq!(out.family_metadata.get("tables").unwrap(), 1);
    }
}
