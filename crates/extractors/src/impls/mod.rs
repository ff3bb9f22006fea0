//! The thirteen extractor implementations (§4.2).
//!
//! Shared conventions:
//!
//! * An extractor processes the family files whose type hint (or path
//!   sniff) it [`Extractor::accepts`]; other files are skipped silently —
//!   a family routinely carries files for several extractors.
//! * **Parse** failures on owned files are recorded per-file under an
//!   `"error"` key and do not sink the family ("poisoned" files are a fact
//!   of life in uncurated repositories — CDIAC's debug logs, §2.3).
//!   **Read** failures (the data layer could not produce bytes) abort the
//!   invocation: that is an infrastructure fault the orchestrator must see.
//! * Family-level output is namespaced by extractor name when merged, so
//!   extractors compose (§5.8.2: files processed by up to five extractors).

mod bert;
mod ccode;
mod compressed;
mod hierarchical;
mod images;
mod keyword;
mod materialsio;
mod nullvalue;
mod python;
mod semistructured;
mod tabular;
pub mod text_util;

pub use bert::BertExtractor;
pub use ccode::CCodeExtractor;
pub use compressed::CompressedExtractor;
pub use hierarchical::HierarchicalExtractor;
pub use images::{ImageSortExtractor, ImagenetExtractor, ImagesExtractor};
pub use keyword::KeywordExtractor;
pub use materialsio::MaterialsIoExtractor;
pub use nullvalue::NullValueExtractor;
pub use python::PythonCodeExtractor;
pub use semistructured::SemiStructuredExtractor;
pub use tabular::TabularExtractor;

use crate::extractor::Extractor;
use std::collections::HashMap;
use std::sync::Arc;
use xtract_types::ExtractorKind;

/// Builds the full extractor library, keyed by kind.
pub fn library() -> HashMap<ExtractorKind, Arc<dyn Extractor>> {
    let all: Vec<Arc<dyn Extractor>> = vec![
        Arc::new(KeywordExtractor::default()),
        Arc::new(TabularExtractor),
        Arc::new(NullValueExtractor),
        Arc::new(ImagesExtractor),
        Arc::new(ImageSortExtractor),
        Arc::new(ImagenetExtractor),
        Arc::new(HierarchicalExtractor),
        Arc::new(SemiStructuredExtractor),
        Arc::new(PythonCodeExtractor),
        Arc::new(CCodeExtractor),
        Arc::new(BertExtractor::default()),
        Arc::new(MaterialsIoExtractor),
        Arc::new(CompressedExtractor),
    ];
    all.into_iter().map(|e| (e.kind(), e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_covers_every_kind() {
        let lib = library();
        for kind in ExtractorKind::ALL {
            assert!(lib.contains_key(&kind), "missing extractor for {kind}");
            assert_eq!(lib[&kind].kind(), kind);
        }
        assert_eq!(lib.len(), ExtractorKind::ALL.len());
    }
}
