//! The image extractors (§4.2).
//!
//! * [`ImageSortExtractor`] — the stand-alone five-way classifier used in
//!   the §5.2 scaling study.
//! * [`ImagenetExtractor`] — object labels for photographs (our
//!   dominant-color/texture labeler standing in for a CNN).
//! * [`ImagesExtractor`] — the full dynamic workflow: classify first, then
//!   route photographs to the ImageNet stage and geographic maps to a
//!   location tagger ("If the figure is a map, we apply OCR ... to
//!   determine its geographic coordinates, and return location tags").
//!   OCR substitution: land-blob centroids map to compass-quadrant
//!   location tags with synthetic lat/lon — same metadata shape.

use crate::extractor::{ExtractOutput, Extractor, FileSource};
use crate::formats::image::{self, Image, ImageClass, ImageFeatures};
use serde_json::json;
use xtract_types::{ExtractorKind, Family, FileType, Metadata, Result};

fn decode_file(bytes: &[u8]) -> std::result::Result<Image<'_>, String> {
    Image::decode(bytes).map_err(|e| e.to_string())
}

/// The five-way classifier alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImageSortExtractor;

impl Extractor for ImageSortExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::ImageSort
    }

    fn accepts(&self, t: FileType) -> bool {
        t == FileType::Image
    }

    fn extract(&self, family: &Family, source: &dyn FileSource) -> Result<ExtractOutput> {
        let mut out = ExtractOutput::default();
        let mut counts = std::collections::BTreeMap::<&str, u64>::new();
        for file in family.files.iter().filter(|f| self.accepts(f.hint)) {
            let bytes = source.read(file)?;
            let mut md = Metadata::new();
            match decode_file(&bytes) {
                Ok(img) => {
                    let class = image::classify(&img);
                    *counts.entry(class.label()).or_insert(0) += 1;
                    md.insert("class", class.label());
                    md.insert("width", img.width);
                    md.insert("height", img.height);
                }
                Err(e) => {
                    md.insert("error", e);
                }
            }
            out.per_file.push((file.path.clone(), md));
        }
        let mut fam = Metadata::new();
        fam.insert("class_counts", json!(counts));
        out.family_metadata = fam;
        Ok(out)
    }
}

/// Object recognition for photographs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImagenetExtractor;

impl Extractor for ImagenetExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::ImageNet
    }

    fn accepts(&self, t: FileType) -> bool {
        t == FileType::Image
    }

    fn extract(&self, family: &Family, source: &dyn FileSource) -> Result<ExtractOutput> {
        let mut out = ExtractOutput::default();
        for file in family.files.iter().filter(|f| self.accepts(f.hint)) {
            let bytes = source.read(file)?;
            let mut md = Metadata::new();
            match decode_file(&bytes) {
                Ok(img) => md.insert("objects", json!(image::dominant_labels(&img))),
                Err(e) => md.insert("error", e),
            }
            out.per_file.push((file.path.clone(), md));
        }
        Ok(out)
    }
}

/// Compass-quadrant location tags from the land-blob centroid — the OCR
/// substitution for geographic maps.
fn location_tags(f: &ImageFeatures, img: &Image<'_>) -> Vec<serde_json::Value> {
    let Some((x, y)) = f.land_centroid else {
        return vec![];
    };
    let cx = x / img.width as f64;
    let cy = y / img.height as f64;
    let ns = if cy < 0.5 { "north" } else { "south" };
    let ew = if cx < 0.5 { "west" } else { "east" };
    // Pixel space → a synthetic lat/lon graticule.
    let lat = 90.0 - cy * 180.0;
    let lon = cx * 360.0 - 180.0;
    vec![json!({
        "tag": format!("{ns}{ew}-region"),
        "lat": (lat * 100.0).round() / 100.0,
        "lon": (lon * 100.0).round() / 100.0,
    })]
}

/// The full image workflow: classify, then route per class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImagesExtractor;

impl Extractor for ImagesExtractor {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::Images
    }

    fn accepts(&self, t: FileType) -> bool {
        t == FileType::Image
    }

    fn extract(&self, family: &Family, source: &dyn FileSource) -> Result<ExtractOutput> {
        let mut out = ExtractOutput::default();
        for file in family.files.iter().filter(|f| self.accepts(f.hint)) {
            let bytes = source.read(file)?;
            let mut md = Metadata::new();
            match decode_file(&bytes) {
                Ok(img) => {
                    // One walk over the pixels; class, labels and tags are
                    // all read off its result.
                    let f = image::features(&img);
                    let class = f.class();
                    md.insert("class", class.label());
                    md.insert("width", img.width);
                    md.insert("height", img.height);
                    md.insert(
                        "features",
                        json!({
                            "white_frac": f.white_frac,
                            "saturation": f.saturation,
                            "color_entropy": f.color_entropy,
                            "edge_density": f.edge_density,
                        }),
                    );
                    match class {
                        ImageClass::Photograph => {
                            md.insert("objects", json!(f.dominant_labels()));
                        }
                        ImageClass::GeographicMap => {
                            md.insert("locations", json!(location_tags(&f, &img)));
                        }
                        _ => {}
                    }
                }
                Err(e) => {
                    md.insert("error", e);
                }
            }
            out.per_file.push((file.path.clone(), md));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::MapSource;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use xtract_types::{EndpointId, FamilyId, FileRecord, Group, GroupId};

    fn family(paths: &[&str]) -> Family {
        let files: Vec<FileRecord> = paths
            .iter()
            .map(|p| FileRecord::new(*p, 0, EndpointId::new(0), FileType::Image))
            .collect();
        let g = Group::new(
            GroupId::new(0),
            files.iter().map(|f| f.path.clone()).collect(),
        );
        Family::new(FamilyId::new(0), files, vec![g], EndpointId::new(0))
    }

    fn encoded(class: ImageClass, seed: u64) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        image::generate(class, 64, 64, &mut rng).encode().to_vec()
    }

    #[test]
    fn imagesort_classifies_and_counts() {
        let mut src = MapSource::new();
        src.insert("/a.ximg", encoded(ImageClass::Plot, 1));
        src.insert("/b.ximg", encoded(ImageClass::Plot, 2));
        src.insert("/c.ximg", encoded(ImageClass::Diagram, 3));
        let fam = family(&["/a.ximg", "/b.ximg", "/c.ximg"]);
        let out = ImageSortExtractor.extract(&fam, &src).unwrap();
        assert_eq!(out.per_file[0].1.get("class").unwrap(), "plot");
        let counts = out.family_metadata.get("class_counts").unwrap();
        assert_eq!(counts["plot"], 2);
        assert_eq!(counts["diagram"], 1);
    }

    #[test]
    fn photographs_get_objects() {
        let mut src = MapSource::new();
        src.insert("/photo.ximg", encoded(ImageClass::Photograph, 9));
        let fam = family(&["/photo.ximg"]);
        let out = ImagesExtractor.extract(&fam, &src).unwrap();
        let md = &out.per_file[0].1;
        assert_eq!(md.get("class").unwrap(), "photograph");
        assert!(md.contains("objects"));
        assert!(!md.contains("locations"));
    }

    #[test]
    fn maps_get_location_tags() {
        let mut src = MapSource::new();
        src.insert("/map.ximg", encoded(ImageClass::GeographicMap, 4));
        let fam = family(&["/map.ximg"]);
        let out = ImagesExtractor.extract(&fam, &src).unwrap();
        let md = &out.per_file[0].1;
        assert_eq!(md.get("class").unwrap(), "geographic-map");
        let locs = md.get("locations").unwrap().as_array().unwrap();
        assert_eq!(locs.len(), 1);
        let tag = locs[0]["tag"].as_str().unwrap();
        assert!(tag.ends_with("-region"), "tag {tag}");
        let lat = locs[0]["lat"].as_f64().unwrap();
        assert!((-90.0..=90.0).contains(&lat));
    }

    #[test]
    fn corrupt_image_is_recorded() {
        let mut src = MapSource::new();
        src.insert("/broken.ximg", b"XIMGxx".to_vec());
        let fam = family(&["/broken.ximg"]);
        for out in [
            ImagesExtractor.extract(&fam, &src).unwrap(),
            ImageSortExtractor.extract(&fam, &src).unwrap(),
            ImagenetExtractor.extract(&fam, &src).unwrap(),
        ] {
            assert!(out.per_file[0].1.contains("error"));
        }
    }

    #[test]
    fn imagenet_labels_photographs() {
        let mut src = MapSource::new();
        src.insert("/p.ximg", encoded(ImageClass::Photograph, 11));
        let fam = family(&["/p.ximg"]);
        let out = ImagenetExtractor.extract(&fam, &src).unwrap();
        let objects = out.per_file[0]
            .1
            .get("objects")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(!objects.is_empty());
    }
}
