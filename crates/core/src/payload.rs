//! FaaS payload wiring: serializing Xtract batches into function inputs
//! and building the [`FunctionBody`] closures that execute extractors at
//! endpoints (the Rust analogue of the paper's Listing 1).
//!
//! The payload round-trips through JSON deliberately — serialization cost
//! is part of what batching amortizes (§4.3.2), and the live batching
//! micro-bench measures exactly this path.

use crate::batcher::XtractBatch;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xtract_datafabric::DataFabric;
use xtract_extractors::{Extractor, FileSource};
use xtract_faas::FunctionBody;
use xtract_types::{Family, FamilyId, FileType, Metadata, Result, XtractError};

/// The wire form of one Xtract batch (Listing 1's `event`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchPayload {
    /// Extractor name (for provenance; the function already embeds its
    /// extractor).
    pub extractor: String,
    /// Families to process serially.
    pub families: Vec<Family>,
    /// Remove staged copies after extraction (Listing 1's
    /// `delete_files`).
    pub delete_files: bool,
}

/// The wire form of one family's result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyResult {
    /// Which family.
    pub family: FamilyId,
    /// Extractor output, namespaced under the extractor name, with
    /// per-file entries under `"files"`.
    pub metadata: Metadata,
    /// Type discoveries for the planner.
    pub discoveries: Vec<(String, FileType)>,
    /// Per-family hard error, if the invocation failed.
    pub error: Option<String>,
}

impl FamilyResult {
    /// The wire form by value. `to_value(&result)` serializes by reference,
    /// which deep-copies the metadata tree; here the map the function body
    /// has just built moves into the object as it is.
    fn into_value(self) -> serde_json::Value {
        let mut object = serde_json::Map::new();
        object.insert("family".to_string(), serde_json::json!(self.family));
        object.insert(
            "metadata".to_string(),
            serde_json::Value::Object(self.metadata.0),
        );
        object.insert(
            "discoveries".to_string(),
            serde_json::json!(self.discoveries),
        );
        object.insert("error".to_string(), serde_json::json!(self.error));
        serde_json::Value::Object(object)
    }
}

/// Encodes a batch for submission: [`BatchPayload`]'s wire form, serialized
/// from a borrowed view of the batch — the family list is read in place,
/// not copied into a `BatchPayload` first.
pub fn encode_batch(batch: &XtractBatch, delete_files: bool) -> serde_json::Value {
    serde_json::json!({
        "extractor": batch.extractor.name(),
        "families": batch.families,
        "delete_files": delete_files,
    })
}

/// Decodes a function's result list from a borrowed value. This is the
/// copying wrapper over [`decode_owned`], for callers that keep the value;
/// the wave loop owns its results and decodes them in place.
pub fn decode_results(value: &serde_json::Value) -> Result<Vec<FamilyResult>> {
    decode_owned(value.clone())
}

/// Decodes a function's result list by value: every string and every
/// metadata map of the output moves into the [`FamilyResult`]s, so the
/// worker's allocation becomes the decoded metadata instead of a second
/// copy of it.
pub fn decode_owned(value: serde_json::Value) -> Result<Vec<FamilyResult>> {
    serde_json::from_value(value).map_err(|e| XtractError::ValidationFailed {
        schema: "family-result".to_string(),
        reason: e.to_string(),
    })
}

/// A [`FileSource`] reading through the data fabric — what an endpoint
/// worker sees after the prefetcher staged (or confirmed local) all of a
/// family's files.
pub struct FabricSource {
    fabric: Arc<DataFabric>,
}

impl FabricSource {
    /// A source over the fabric.
    pub fn new(fabric: Arc<DataFabric>) -> Self {
        Self { fabric }
    }
}

impl FileSource for FabricSource {
    fn read(&self, file: &xtract_types::FileRecord) -> Result<bytes::Bytes> {
        self.fabric.get(file.endpoint)?.backend.read(&file.path)
    }
}

/// Builds the FaaS function body for one extractor: decode the batch, run
/// the extractor over each family, package results (Listing 1's loop),
/// and honour `delete_files`.
pub fn make_function_body(extractor: Arc<dyn Extractor>, fabric: Arc<DataFabric>) -> FunctionBody {
    Arc::new(move |input: serde_json::Value| {
        let payload: BatchPayload =
            serde_json::from_value(input).map_err(|e| XtractError::ValidationFailed {
                schema: "batch-payload".to_string(),
                reason: e.to_string(),
            })?;
        let source = FabricSource::new(fabric.clone());
        let mut results = Vec::with_capacity(payload.families.len());
        for family in &payload.families {
            let result = match extractor.extract(family, &source) {
                Ok(out) => {
                    let mut metadata = Metadata::new();
                    let mut ns = out.family_metadata;
                    if !out.per_file.is_empty() {
                        let files: serde_json::Map<String, serde_json::Value> = out
                            .per_file
                            .into_iter()
                            .map(|(p, m)| (p, serde_json::Value::Object(m.0)))
                            .collect();
                        ns.insert("files", serde_json::Value::Object(files));
                    }
                    metadata.merge_namespaced(extractor.kind().name(), ns);
                    FamilyResult {
                        family: family.id,
                        metadata,
                        discoveries: out.discovered,
                        error: None,
                    }
                }
                Err(e) => FamilyResult {
                    family: family.id,
                    metadata: Metadata::new(),
                    discoveries: Vec::new(),
                    error: Some(e.to_string()),
                },
            };
            results.push(result.into_value());
            if payload.delete_files {
                if let Some(base) = &family.base_path {
                    if let Ok(ep) = fabric.get(family.source) {
                        let _ = ep.backend.remove(base);
                    }
                }
            }
        }
        Ok(serde_json::Value::Array(results))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use xtract_datafabric::{MemFs, StorageBackend};
    use xtract_extractors::library;
    use xtract_types::{EndpointId, ExtractorKind, FileRecord, Group, GroupId};

    fn fabric_with_file(path: &str, contents: &[u8]) -> Arc<DataFabric> {
        let fabric = Arc::new(DataFabric::new());
        let ep = EndpointId::new(0);
        let fs = Arc::new(MemFs::new(ep));
        fs.write(path, Bytes::copy_from_slice(contents)).unwrap();
        fabric.register(ep, "test", fs);
        fabric
    }

    fn one_family_batch(path: &str, hint: FileType, kind: ExtractorKind) -> XtractBatch {
        let f = FileRecord::new(path, 0, EndpointId::new(0), hint);
        let g = Group::new(GroupId::new(0), vec![f.path.clone()]);
        let fam = Family::new(FamilyId::new(9), vec![f], vec![g], EndpointId::new(0));
        XtractBatch {
            endpoint: EndpointId::new(0),
            extractor: kind,
            families: vec![fam],
        }
    }

    #[test]
    fn body_runs_extractor_end_to_end() {
        let fabric = fabric_with_file("/d/t.csv", b"a,b\n1,2\n3,4\n");
        let lib = library();
        let body = make_function_body(lib[&ExtractorKind::Tabular].clone(), fabric);
        let batch = one_family_batch("/d/t.csv", FileType::Tabular, ExtractorKind::Tabular);
        let out = body(encode_batch(&batch, false)).unwrap();
        let results = decode_results(&out).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.family, FamilyId::new(9));
        assert!(r.error.is_none());
        let tab = r.metadata.get("tabular").unwrap();
        assert_eq!(tab["files"]["/d/t.csv"]["rows"], 2);
        assert_eq!(tab["tables"], 1);
    }

    #[test]
    fn borrowed_encoding_is_the_payload_structs_wire_form() {
        let batch = one_family_batch("/d/t.csv", FileType::Tabular, ExtractorKind::Tabular);
        for delete_files in [false, true] {
            let owned = serde_json::to_value(BatchPayload {
                extractor: batch.extractor.name().to_string(),
                families: batch.families.clone(),
                delete_files,
            })
            .unwrap();
            assert_eq!(encode_batch(&batch, delete_files), owned);
        }
    }

    #[test]
    fn moved_result_is_the_result_structs_wire_form() {
        let mut metadata = Metadata::new();
        metadata.insert(
            "tabular",
            serde_json::json!({"tables": 1, "files": {"/d/t.csv": {"rows": 2, "mean": 0.5, "header": ["a", "b"]}}}),
        );
        let results = vec![
            FamilyResult {
                family: FamilyId::new(9),
                metadata,
                discoveries: vec![
                    ("/d/x.txt".to_string(), FileType::Tabular),
                    ("/d/y.csv".to_string(), FileType::FreeText),
                ],
                error: None,
            },
            FamilyResult {
                family: FamilyId::new(u64::MAX),
                metadata: Metadata::new(),
                discoveries: Vec::new(),
                error: Some("no such path: /gone.txt".to_string()),
            },
        ];
        let by_reference = serde_json::to_value(&results).unwrap();
        let moved: Vec<_> = results.into_iter().map(FamilyResult::into_value).collect();
        assert_eq!(serde_json::Value::Array(moved), by_reference);
        assert_eq!(decode_results(&by_reference).unwrap().len(), 2);
    }

    #[test]
    fn discoveries_travel_back() {
        let fabric = fabric_with_file("/d/x.txt", b"h1,h2\n1,2\n3,4\n");
        let lib = library();
        let body = make_function_body(lib[&ExtractorKind::Keyword].clone(), fabric);
        let batch = one_family_batch("/d/x.txt", FileType::FreeText, ExtractorKind::Keyword);
        let out = body(encode_batch(&batch, false)).unwrap();
        let results = decode_results(&out).unwrap();
        assert_eq!(
            results[0].discoveries,
            vec![("/d/x.txt".to_string(), FileType::Tabular)]
        );
    }

    #[test]
    fn missing_file_is_a_family_error_not_a_crash() {
        let fabric = fabric_with_file("/other.txt", b"x");
        let lib = library();
        let body = make_function_body(lib[&ExtractorKind::Keyword].clone(), fabric);
        let batch = one_family_batch("/gone.txt", FileType::FreeText, ExtractorKind::Keyword);
        let out = body(encode_batch(&batch, false)).unwrap();
        let results = decode_results(&out).unwrap();
        assert!(results[0]
            .error
            .as_deref()
            .unwrap()
            .contains("no such path"));
    }

    #[test]
    fn delete_files_removes_staged_copies() {
        let fabric = fabric_with_file("/stage/fam-9/d/t.csv", b"a,b\n1,2\n");
        let lib = library();
        let body = make_function_body(lib[&ExtractorKind::Tabular].clone(), fabric.clone());
        let mut batch = one_family_batch(
            "/stage/fam-9/d/t.csv",
            FileType::Tabular,
            ExtractorKind::Tabular,
        );
        batch.families[0].base_path = Some("/stage/fam-9".to_string());
        let out = body(encode_batch(&batch, true)).unwrap();
        assert!(decode_results(&out).unwrap()[0].error.is_none());
        let backend = &fabric.get(EndpointId::new(0)).unwrap().backend;
        assert!(backend.read("/stage/fam-9/d/t.csv").is_err());
    }

    #[test]
    fn garbage_payload_is_rejected() {
        let fabric = fabric_with_file("/x", b"");
        let lib = library();
        let body = make_function_body(lib[&ExtractorKind::Keyword].clone(), fabric);
        assert!(body(serde_json::json!({"not": "a batch"})).is_err());
    }
}
