//! The validation service (§3 "Validation (and Transformation)", §4.1).
//!
//! "The validation step ensures that resulting metadata have all required
//! attributes; it can also, optionally, transform the metadata into a
//! schema more amenable for subsequent use. ... e.g., the 'passthrough'
//! validator that converts a metadata dictionary into valid JSON, and the
//! MDF validator that adapts extracted metadata to one of 12 schemas."
//!
//! Validated records are shipped to a user-chosen endpoint as JSON
//! documents (here: written under `/metadata/` on the destination's data
//! layer).

use serde_json::json;
use xtract_types::{Family, Metadata, MetadataRecord, Result, ValidationSchema, XtractError};

/// The twelve MDF schema names (§4.1 mentions 12; names synthesized from
/// MDF's public material classes).
pub const MDF_SCHEMAS: [&str; 12] = [
    "mdf-base",
    "mdf-dft",
    "mdf-md",
    "mdf-image",
    "mdf-spectroscopy",
    "mdf-crystal",
    "mdf-em",
    "mdf-tabular",
    "mdf-text",
    "mdf-synthesis",
    "mdf-characterization",
    "mdf-generic",
];

/// Validates (and optionally transforms) a family's merged metadata,
/// leaving the caller's document and provenance list untouched. This is
/// the copying wrapper over [`validate_owned`].
pub fn validate(
    family: &Family,
    merged: &Metadata,
    extractors: &[String],
    schema: &ValidationSchema,
) -> Result<MetadataRecord> {
    validate_owned(family, merged.clone(), extractors.to_vec(), schema)
}

/// [`validate`] over a document the caller gives up: on success the
/// document and the provenance list are *moved* into the record (the MDF
/// transformation wraps the document, it does not rebuild it), so a
/// record costs no copy of what was extracted.
pub fn validate_owned(
    family: &Family,
    merged: Metadata,
    extractors: Vec<String>,
    schema: &ValidationSchema,
) -> Result<MetadataRecord> {
    let record = transform(family, merged, extractors, schema)?;
    if matches!(schema, ValidationSchema::Passthrough) {
        // Passthrough: the dictionary must serialize to valid JSON —
        // true by construction, but verify it to honour the contract.
        // Only success matters, so the bytes stream into a sink.
        serde_json::to_writer(std::io::sink(), &record.document)
            .map_err(|e| unserializable(&record, e))?;
    }
    Ok(record)
}

/// [`validate_owned`] plus [`encode_record`] in one serialization, for
/// stage 7: the bytes that ship are the proof that the record serializes,
/// so a document is rendered once, not once to check and once to send.
pub fn validate_and_encode(
    family: &Family,
    merged: Metadata,
    extractors: Vec<String>,
    schema: &ValidationSchema,
) -> Result<(MetadataRecord, Vec<u8>)> {
    let record = transform(family, merged, extractors, schema)?;
    let bytes = serde_json::to_vec_pretty(&record).map_err(|e| unserializable(&record, e))?;
    Ok((record, bytes))
}

fn unserializable(record: &MetadataRecord, e: serde_json::Error) -> XtractError {
    XtractError::ValidationFailed {
        schema: record.schema.clone(),
        reason: e.to_string(),
    }
}

/// The schema's checks and transformation, short of proving that the
/// result serializes.
fn transform(
    family: &Family,
    merged: Metadata,
    extractors: Vec<String>,
    schema: &ValidationSchema,
) -> Result<MetadataRecord> {
    match schema {
        ValidationSchema::Passthrough => Ok(MetadataRecord {
            family: family.id,
            schema: "passthrough".to_string(),
            document: merged,
            extractors,
        }),
        ValidationSchema::Mdf(name) => {
            if !MDF_SCHEMAS.contains(&name.as_str()) {
                return Err(XtractError::ValidationFailed {
                    schema: name.clone(),
                    reason: "unknown MDF schema".to_string(),
                });
            }
            if merged.is_empty() {
                return Err(XtractError::ValidationFailed {
                    schema: name.clone(),
                    reason: "empty metadata document".to_string(),
                });
            }
            // MDF transformation: wrap extractor outputs under `mdf` with
            // provenance and file inventory — the "schema more amenable
            // for subsequent use".
            let mut doc = Metadata::new();
            doc.insert(
                "mdf",
                json!({
                    "schema": name,
                    "source": family.source.to_string(),
                    "files": family
                        .files
                        .iter()
                        .map(|f| json!({"path": f.path, "size": f.size, "type": f.hint.label()}))
                        .collect::<Vec<_>>(),
                    "extractors": extractors,
                }),
            );
            doc.insert("extracted", serde_json::Value::Object(merged.0));
            Ok(MetadataRecord {
                family: family.id,
                schema: name.clone(),
                document: doc,
                extractors,
            })
        }
        ValidationSchema::Custom(name) => {
            // Custom schemas must at least declare required provenance.
            if extractors.is_empty() {
                return Err(XtractError::ValidationFailed {
                    schema: name.clone(),
                    reason: "no extractor provenance".to_string(),
                });
            }
            Ok(MetadataRecord {
                family: family.id,
                schema: name.clone(),
                document: merged,
                extractors,
            })
        }
    }
}

/// Serializes a record for shipment to the user's endpoint (§3: "sends a
/// valid JSON document to a user's Globus endpoint").
pub fn encode_record(record: &MetadataRecord) -> Vec<u8> {
    serde_json::to_vec_pretty(record).expect("record serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtract_types::{EndpointId, FamilyId, FileRecord, FileType, Group, GroupId};

    fn family() -> Family {
        let f = FileRecord::new("/d/a.csv", 9, EndpointId::new(3), FileType::Tabular);
        let g = Group::new(GroupId::new(0), vec![f.path.clone()]);
        Family::new(FamilyId::new(5), vec![f], vec![g], EndpointId::new(3))
    }

    fn merged() -> Metadata {
        let mut m = Metadata::new();
        m.insert("tabular", json!({"rows": 3}));
        m
    }

    #[test]
    fn passthrough_preserves_document() {
        let rec = validate(
            &family(),
            &merged(),
            &["tabular".into()],
            &ValidationSchema::Passthrough,
        )
        .unwrap();
        assert_eq!(rec.schema, "passthrough");
        assert_eq!(rec.document, merged());
        assert_eq!(rec.family, FamilyId::new(5));
    }

    #[test]
    fn mdf_transforms_with_provenance() {
        let rec = validate(
            &family(),
            &merged(),
            &["tabular".into()],
            &ValidationSchema::Mdf("mdf-tabular".into()),
        )
        .unwrap();
        let mdf = rec.document.get("mdf").unwrap();
        assert_eq!(mdf["schema"], "mdf-tabular");
        assert_eq!(mdf["files"][0]["path"], "/d/a.csv");
        assert_eq!(mdf["extractors"][0], "tabular");
        assert!(rec.document.contains("extracted"));
    }

    #[test]
    fn unknown_mdf_schema_rejected() {
        let err = validate(
            &family(),
            &merged(),
            &[],
            &ValidationSchema::Mdf("mdf-nope".into()),
        )
        .unwrap_err();
        assert!(matches!(err, XtractError::ValidationFailed { .. }));
    }

    #[test]
    fn mdf_rejects_empty_documents() {
        let err = validate(
            &family(),
            &Metadata::new(),
            &["x".into()],
            &ValidationSchema::Mdf("mdf-base".into()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn custom_requires_provenance() {
        assert!(validate(
            &family(),
            &merged(),
            &[],
            &ValidationSchema::Custom("lab".into())
        )
        .is_err());
        assert!(validate(
            &family(),
            &merged(),
            &["kw".into()],
            &ValidationSchema::Custom("lab".into())
        )
        .is_ok());
    }

    #[test]
    fn encoded_record_is_valid_json() {
        let rec = validate(
            &family(),
            &merged(),
            &["tabular".into()],
            &ValidationSchema::Passthrough,
        )
        .unwrap();
        let bytes = encode_record(&rec);
        let back: serde_json::Value = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back["schema"], "passthrough");
    }

    #[test]
    fn twelve_schemas_exist() {
        assert_eq!(MDF_SCHEMAS.len(), 12);
        let unique: std::collections::HashSet<_> = MDF_SCHEMAS.iter().collect();
        assert_eq!(unique.len(), 12);
    }
}
