//! The image kernels as the parent wrote them: `features` walks the
//! pixels three times through `get(x, y)`, `classify` and
//! `dominant_labels` each compute the features again, and `location_tags`
//! is a fourth walk.

use serde_json::json;
use xtract_extractors::formats::image::{Image, ImageClass};

/// The parent's `ImageFeatures`: no `land_centroid`, which `location_tags`
/// below computes for itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageFeatures {
    pub white_frac: f64,
    pub saturation: f64,
    pub geo_frac: f64,
    pub edge_density: f64,
    pub color_entropy: f64,
    pub axis_score: f64,
}

fn luminance(p: [u8; 3]) -> f64 {
    0.299 * p[0] as f64 + 0.587 * p[1] as f64 + 0.114 * p[2] as f64
}

/// Computes classifier features for an image.
pub fn features(img: &Image<'_>) -> ImageFeatures {
    let n = (img.width * img.height) as f64;
    let mut white = 0u64;
    let mut sat_sum = 0.0f64;
    let mut geo = 0u64;
    let mut hist = [0u32; 4096]; // 4 bits per channel
    for y in 0..img.height {
        for x in 0..img.width {
            let p = img.get(x, y);
            let (max, min) = (
                p.iter().copied().max().expect("rgb") as f64,
                p.iter().copied().min().expect("rgb") as f64,
            );
            if min > 225.0 {
                white += 1;
            }
            sat_sum += max - min;
            let (r, g, b) = (p[0] as i32, p[1] as i32, p[2] as i32);
            if (g > r + 15 && g > 70) || (b > r + 15 && b > 70 && b >= g) {
                geo += 1;
            }
            let key =
                ((p[0] as usize >> 4) << 8) | ((p[1] as usize >> 4) << 4) | (p[2] as usize >> 4);
            hist[key] += 1;
        }
    }
    let mut edges = 0u64;
    let mut pairs = 0u64;
    for y in 0..img.height {
        for x in 1..img.width {
            pairs += 1;
            if (luminance(img.get(x, y)) - luminance(img.get(x - 1, y))).abs() > 40.0 {
                edges += 1;
            }
        }
    }
    let entropy = hist
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum::<f64>();
    // Axis signature: dark pixels concentrated in the left column band and
    // the bottom row band.
    let band = (img.width.min(img.height) / 16).max(1);
    let mut left_dark = 0u64;
    let mut left_tot = 0u64;
    for y in 0..img.height {
        for x in 0..band.min(img.width) {
            left_tot += 1;
            if luminance(img.get(x, y)) < 96.0 {
                left_dark += 1;
            }
        }
    }
    let mut bottom_dark = 0u64;
    let mut bottom_tot = 0u64;
    for y in img.height.saturating_sub(band)..img.height {
        for x in 0..img.width {
            bottom_tot += 1;
            if luminance(img.get(x, y)) < 96.0 {
                bottom_dark += 1;
            }
        }
    }
    let axis_score = (left_dark as f64 / left_tot.max(1) as f64)
        .min(bottom_dark as f64 / bottom_tot.max(1) as f64);

    ImageFeatures {
        white_frac: white as f64 / n,
        saturation: sat_sum / n,
        geo_frac: geo as f64 / n,
        edge_density: edges as f64 / pairs.max(1) as f64,
        color_entropy: entropy,
        axis_score,
    }
}

/// The fixed decision function standing in for the paper's trained SVM.
pub fn classify(img: &Image<'_>) -> ImageClass {
    let f = features(img);
    if f.axis_score > 0.35 && f.white_frac > 0.4 {
        ImageClass::Plot
    } else if f.geo_frac > 0.9 && f.color_entropy < 5.0 {
        // Maps use a flat land/water palette; photographs of vegetation
        // share the hues but not the low histogram entropy.
        ImageClass::GeographicMap
    } else if f.white_frac > 0.55 {
        ImageClass::Diagram
    } else if f.color_entropy > 4.0 && f.saturation > 25.0 {
        ImageClass::Photograph
    } else {
        ImageClass::Other
    }
}

/// Dominant-color object labels for the ImageNet stand-in extractor.
pub fn dominant_labels(img: &Image<'_>) -> Vec<&'static str> {
    let f = features(img);
    let mut labels = Vec::new();
    if f.geo_frac > 0.3 {
        labels.push("vegetation");
        labels.push("water");
    }
    if f.saturation > 60.0 {
        labels.push("colorful-object");
    }
    if f.color_entropy > 7.0 {
        labels.push("textured-scene");
    } else if f.white_frac < 0.2 {
        labels.push("uniform-field");
    }
    if labels.is_empty() {
        labels.push("unidentified");
    }
    labels
}

/// Compass-quadrant location tags from land-blob centroids — the OCR
/// substitution for geographic maps.
pub fn location_tags(img: &Image<'_>) -> Vec<serde_json::Value> {
    // Centroid of "land" pixels (green-dominant).
    let mut sx = 0.0f64;
    let mut sy = 0.0f64;
    let mut n = 0u64;
    for y in 0..img.height {
        for x in 0..img.width {
            let [r, g, b] = img.get(x, y);
            if g > r && g > b {
                sx += x as f64;
                sy += y as f64;
                n += 1;
            }
        }
    }
    if n == 0 {
        return vec![];
    }
    let cx = sx / n as f64 / img.width as f64;
    let cy = sy / n as f64 / img.height as f64;
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
