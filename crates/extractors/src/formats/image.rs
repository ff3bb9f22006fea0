//! `XIMG`: a raw RGB raster format, plus the five-class image synthesis
//! and the pixel features the ImageSort classifier uses.
//!
//! Layout: `b"XIMG"` · `u32le width` · `u32le height` · `width*height*3`
//! RGB bytes.
//!
//! §4.2: "The image extractor dynamically builds a workflow for each image
//! by first determining its class (e.g., plots, photographs, diagrams, and
//! geographic maps). ... we first extract a number of features from the
//! image, including color histograms, and predict its class using a
//! pretrained support-vector machine (SVM) model." Our substitution: the
//! same feature extraction, with a fixed decision function standing in for
//! the trained SVM (the generators below are its "training set").

use bytes::{BufMut, Bytes, BytesMut};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use xtract_types::XtractError;

/// An RGB image: owned when synthesized, borrowed from the file's bytes
/// when decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image<'a> {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Row-major RGB triplets, `width * height * 3` bytes.
    pub pixels: Cow<'a, [u8]>,
}

/// The five ImageSort classes (§5.2: "classifies images as one of five
/// types (photograph, diagram, plot, geographic map, and other)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ImageClass {
    /// Natural photographs (high-entropy, saturated).
    Photograph,
    /// Line diagrams on white backgrounds.
    Diagram,
    /// Scientific plots: axes plus data series.
    Plot,
    /// Geographic maps: land/water palettes.
    GeographicMap,
    /// Anything else (flat fields, gradients, noise floors).
    Other,
}

impl ImageClass {
    /// All classes.
    pub const ALL: [ImageClass; 5] = [
        ImageClass::Photograph,
        ImageClass::Diagram,
        ImageClass::Plot,
        ImageClass::GeographicMap,
        ImageClass::Other,
    ];

    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            ImageClass::Photograph => "photograph",
            ImageClass::Diagram => "diagram",
            ImageClass::Plot => "plot",
            ImageClass::GeographicMap => "geographic-map",
            ImageClass::Other => "other",
        }
    }
}

impl<'a> Image<'a> {
    /// A solid-color image.
    pub fn filled(width: u32, height: u32, rgb: [u8; 3]) -> Self {
        let mut pixels = Vec::with_capacity((width * height * 3) as usize);
        for _ in 0..width * height {
            pixels.extend_from_slice(&rgb);
        }
        Self {
            width,
            height,
            pixels: Cow::Owned(pixels),
        }
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> [u8; 3] {
        let i = ((y * self.width + x) * 3) as usize;
        [self.pixels[i], self.pixels[i + 1], self.pixels[i + 2]]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, rgb: [u8; 3]) {
        let i = ((y * self.width + x) * 3) as usize;
        self.pixels.to_mut()[i..i + 3].copy_from_slice(&rgb);
    }

    /// Encodes to the XIMG wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(12 + self.pixels.len());
        buf.put_slice(b"XIMG");
        buf.put_u32_le(self.width);
        buf.put_u32_le(self.height);
        buf.put_slice(&self.pixels);
        buf.freeze()
    }

    /// Decodes from the XIMG wire format: checks the header against the
    /// length and lends the pixel bytes, copying nothing.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, XtractError> {
        let fail = |reason: &str| XtractError::ExtractorFailed {
            extractor: "ximg-codec".to_string(),
            path: String::new(),
            reason: reason.to_string(),
        };
        if bytes.len() < 12 || &bytes[..4] != b"XIMG" {
            return Err(fail("missing XIMG magic"));
        }
        let width = u32::from_le_bytes(bytes[4..8].try_into().expect("sliced"));
        let height = u32::from_le_bytes(bytes[8..12].try_into().expect("sliced"));
        let need = (width as usize)
            .checked_mul(height as usize)
            .and_then(|n| n.checked_mul(3))
            .ok_or_else(|| fail("dimension overflow"))?;
        let body = &bytes[12..];
        if body.len() != need {
            return Err(fail("truncated pixel data"));
        }
        Ok(Self {
            width,
            height,
            pixels: Cow::Borrowed(body),
        })
    }
}

/// Pixel features feeding the classifier — "color histograms" and friends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageFeatures {
    /// Fraction of near-white pixels.
    pub white_frac: f64,
    /// Mean per-pixel saturation (max−min channel).
    pub saturation: f64,
    /// Fraction of land/water-palette pixels (green or blue dominant).
    pub geo_frac: f64,
    /// Fraction of strong horizontal luminance edges.
    pub edge_density: f64,
    /// Entropy (bits) of the 4-bit-per-channel color histogram.
    pub color_entropy: f64,
    /// Darkness coverage along the left column and bottom row bands —
    /// the axis signature of a plot.
    pub axis_score: f64,
    /// Mean `(x, y)` of the green-dominant ("land") pixels, in pixels;
    /// `None` when there are none. The map stage's location tags.
    pub land_centroid: Option<(f64, f64)>,
}

/// Computes every feature in one row-wise walk over the pixels: each
/// pixel's luminance is computed once and serves the edge to its left and
/// both axis bands. Counts and integer sums are kept in `u64`, which holds
/// them exactly as the `f64` accumulators they replace did (below 2^53 for
/// any image that fits in memory), so every ratio is the same bit pattern.
pub fn features(img: &Image<'_>) -> ImageFeatures {
    let (w, h) = (img.width as usize, img.height as usize);
    let n = (img.width * img.height) as f64;
    // Axis bands: the `band` leftmost columns and the `band` bottom rows.
    let band = (w.min(h) / 16).max(1);
    let (left, bottom) = (band.min(w), h.saturating_sub(band));
    let (mut white, mut sat, mut geo, mut edges) = (0u64, 0u64, 0u64, 0u64);
    let (mut left_dark, mut bottom_dark) = (0u64, 0u64);
    let (mut land, mut land_x, mut land_y) = (0u64, 0u64, 0u64);
    let mut hist = [0u32; 4096]; // 4 bits per channel
    for (y, row) in img.pixels.chunks_exact((w * 3).max(1)).enumerate() {
        let (mut row_dark, mut row_land) = (0u64, 0u64);
        let mut prev = 0.0f64;
        for (x, p) in row.chunks_exact(3).enumerate() {
            let (r, g, b) = (p[0], p[1], p[2]);
            let (max, min) = (r.max(g).max(b), r.min(g).min(b));
            white += u64::from(min > 225);
            sat += u64::from(max - min);
            let (ri, gi, bi) = (r as i32, g as i32, b as i32);
            geo += u64::from((gi > ri + 15 && g > 70) || (bi > ri + 15 && b > 70 && b >= g));
            hist[((r as usize >> 4) << 8) | ((g as usize >> 4) << 4) | (b as usize >> 4)] += 1;
            let lum = 0.299 * r as f64 + 0.587 * g as f64 + 0.114 * b as f64;
            edges += u64::from(x > 0 && (lum - prev).abs() > 40.0);
            prev = lum;
            let dark = u64::from(lum < 96.0);
            row_dark += dark;
            if x < left {
                left_dark += dark;
            }
            if g > r && g > b {
                row_land += 1;
                land_x += x as u64;
            }
        }
        if y >= bottom {
            bottom_dark += row_dark;
        }
        land += row_land;
        land_y += row_land * y as u64;
    }
    let entropy = hist
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum::<f64>();
    let pairs = (h * w.saturating_sub(1)) as u64;
    let (left_tot, bottom_tot) = ((h * left) as u64, ((h - bottom) * w) as u64);
    let axis_score = (left_dark as f64 / left_tot.max(1) as f64)
        .min(bottom_dark as f64 / bottom_tot.max(1) as f64);

    ImageFeatures {
        white_frac: white as f64 / n,
        saturation: sat as f64 / n,
        geo_frac: geo as f64 / n,
        edge_density: edges as f64 / pairs.max(1) as f64,
        color_entropy: entropy,
        axis_score,
        land_centroid: (land > 0)
            .then(|| (land_x as f64 / land as f64, land_y as f64 / land as f64)),
    }
}

impl ImageFeatures {
    /// The fixed decision function standing in for the paper's trained SVM.
    pub fn class(&self) -> ImageClass {
        if self.axis_score > 0.35 && self.white_frac > 0.4 {
            ImageClass::Plot
        } else if self.geo_frac > 0.9 && self.color_entropy < 5.0 {
            // Maps use a flat land/water palette; photographs of vegetation
            // share the hues but not the low histogram entropy.
            ImageClass::GeographicMap
        } else if self.white_frac > 0.55 {
            ImageClass::Diagram
        } else if self.color_entropy > 4.0 && self.saturation > 25.0 {
            ImageClass::Photograph
        } else {
            ImageClass::Other
        }
    }

    /// Dominant-color object labels for the ImageNet stand-in extractor.
    pub fn dominant_labels(&self) -> Vec<&'static str> {
        let mut labels = Vec::new();
        if self.geo_frac > 0.3 {
            labels.push("vegetation");
            labels.push("water");
        }
        if self.saturation > 60.0 {
            labels.push("colorful-object");
        }
        if self.color_entropy > 7.0 {
            labels.push("textured-scene");
        } else if self.white_frac < 0.2 {
            labels.push("uniform-field");
        }
        if labels.is_empty() {
            labels.push("unidentified");
        }
        labels
    }
}

/// The class of an image: [`ImageFeatures::class`] of its features.
pub fn classify(img: &Image<'_>) -> ImageClass {
    features(img).class()
}

/// The labels of an image: [`ImageFeatures::dominant_labels`] of its
/// features.
pub fn dominant_labels(img: &Image<'_>) -> Vec<&'static str> {
    features(img).dominant_labels()
}

// ---------------------------------------------------------------------------
// Generators — one per class; the classifier's implicit training set.
// ---------------------------------------------------------------------------

/// Synthesizes an image of the requested class.
pub fn generate<R: Rng + ?Sized>(
    class: ImageClass,
    width: u32,
    height: u32,
    rng: &mut R,
) -> Image<'static> {
    match class {
        ImageClass::Photograph => gen_photograph(width, height, rng),
        ImageClass::Diagram => gen_diagram(width, height, rng),
        ImageClass::Plot => gen_plot(width, height, rng),
        ImageClass::GeographicMap => gen_map(width, height, rng),
        ImageClass::Other => gen_other(width, height, rng),
    }
}

fn gen_photograph<R: Rng + ?Sized>(w: u32, h: u32, rng: &mut R) -> Image<'static> {
    // Colored low-frequency blobs plus per-pixel noise: high entropy and
    // saturation, no white background.
    let mut img = Image::filled(w, h, [0, 0, 0]);
    let cx: f64 = rng.gen_range(0.2..0.8);
    let cy: f64 = rng.gen_range(0.2..0.8);
    let base = [
        rng.gen_range(40..200u16),
        rng.gen_range(40..200),
        rng.gen_range(40..200),
    ];
    for y in 0..h {
        for x in 0..w {
            let dx = x as f64 / w as f64 - cx;
            let dy = y as f64 / h as f64 - cy;
            let r = (dx * dx + dy * dy).sqrt();
            let swirl = (8.0 * r + 3.0 * dx.atan2(dy)).sin() * 50.0;
            // Independent per-channel noise: real sensor grain. Keeps the
            // color histogram entropy high and avoids a systematic
            // green/blue cast that would mimic the map palette.
            let n: [i16; 3] = [
                rng.gen_range(-40..40),
                rng.gen_range(-40..40),
                rng.gen_range(-40..40),
            ];
            let px = [
                (base[0] as f64 + swirl + n[0] as f64 + 60.0 * (1.0 - r)).clamp(0.0, 235.0) as u8,
                (base[1] as f64 - swirl * 0.7 + n[1] as f64).clamp(0.0, 235.0) as u8,
                (base[2] as f64 + swirl * 0.4 + n[2] as f64 + 30.0).clamp(0.0, 235.0) as u8,
            ];
            img.set(x, y, px);
        }
    }
    img
}

fn gen_diagram<R: Rng + ?Sized>(w: u32, h: u32, rng: &mut R) -> Image<'static> {
    // White canvas, a handful of black boxes and connector lines.
    let mut img = Image::filled(w, h, [250, 250, 250]);
    let boxes = rng.gen_range(3..7);
    for _ in 0..boxes {
        let bw = rng.gen_range(w / 8..w / 3);
        let bh = rng.gen_range(h / 10..h / 4);
        let x0 = rng.gen_range(0..w.saturating_sub(bw).max(1));
        let y0 = rng.gen_range(0..h.saturating_sub(bh).max(1));
        for x in x0..(x0 + bw).min(w) {
            img.set(x, y0, [20, 20, 20]);
            img.set(x, (y0 + bh - 1).min(h - 1), [20, 20, 20]);
        }
        for y in y0..(y0 + bh).min(h) {
            img.set(x0, y, [20, 20, 20]);
            img.set((x0 + bw - 1).min(w - 1), y, [20, 20, 20]);
        }
    }
    // Connectors.
    for _ in 0..boxes {
        let y = rng.gen_range(0..h);
        let x0 = rng.gen_range(0..w / 2);
        let x1 = rng.gen_range(w / 2..w);
        for x in x0..x1 {
            img.set(x, y, [30, 30, 30]);
        }
    }
    img
}

fn gen_plot<R: Rng + ?Sized>(w: u32, h: u32, rng: &mut R) -> Image<'static> {
    // White canvas with solid left/bottom axes and a couple of colored
    // series.
    let mut img = Image::filled(w, h, [252, 252, 252]);
    let band = (w.min(h) / 16).max(1);
    for y in 0..h {
        for x in 0..band {
            img.set(x, y, [10, 10, 10]);
        }
    }
    for y in h - band..h {
        for x in 0..w {
            img.set(x, y, [10, 10, 10]);
        }
    }
    for series in 0..rng.gen_range(1..4u32) {
        let color = match series % 3 {
            0 => [200, 40, 40],
            1 => [40, 90, 200],
            _ => [30, 150, 60],
        };
        let mut y = rng.gen_range(h / 4..3 * h / 4) as i64;
        for x in band..w {
            y += rng.gen_range(-2..=2);
            y = y.clamp(1, (h - band - 2) as i64);
            img.set(x, y as u32, color);
            img.set(x, (y - 1).max(0) as u32, color);
        }
    }
    img
}

fn gen_map<R: Rng + ?Sized>(w: u32, h: u32, rng: &mut R) -> Image<'static> {
    // Water base with green landmass blobs.
    let mut img = Image::filled(w, h, [60, 110, 190]);
    let blobs = rng.gen_range(3..6);
    for _ in 0..blobs {
        let cx = rng.gen_range(0..w) as f64;
        let cy = rng.gen_range(0..h) as f64;
        let rx = rng.gen_range(w / 6..w / 2) as f64;
        let ry = rng.gen_range(h / 6..h / 2) as f64;
        for y in 0..h {
            for x in 0..w {
                let dx = (x as f64 - cx) / rx;
                let dy = (y as f64 - cy) / ry;
                if dx * dx + dy * dy < 1.0 {
                    let g = 120 + ((dx * dx + dy * dy) * 60.0) as u8;
                    img.set(x, y, [70, g, 60]);
                }
            }
        }
    }
    img
}

fn gen_other<R: Rng + ?Sized>(w: u32, h: u32, rng: &mut R) -> Image<'static> {
    // A flat gray gradient: low entropy, low saturation, no white field.
    let g0: u8 = rng.gen_range(60..120);
    let mut img = Image::filled(w, h, [g0, g0, g0]);
    for y in 0..h {
        let g = g0.saturating_add((y * 60 / h.max(1)) as u8);
        for x in 0..w {
            img.set(x, y, [g, g, g]);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn codec_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let img = gen_photograph(32, 24, &mut rng);
        let bytes = img.encode();
        assert_eq!(&bytes[..4], b"XIMG");
        let back = Image::decode(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Image::decode(b"nope").is_err());
        assert!(Image::decode(b"XIMG\x01\x00\x00\x00\x01\x00\x00\x00").is_err()); // truncated
                                                                                  // Oversized dims must not overflow.
        let mut evil = Vec::from(&b"XIMG"[..]);
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Image::decode(&evil).is_err());
    }

    #[test]
    fn classifier_recovers_generated_classes() {
        let mut rng = SmallRng::seed_from_u64(42);
        for class in ImageClass::ALL {
            let mut hits = 0;
            let trials = 20;
            for _ in 0..trials {
                let img = generate(class, 96, 96, &mut rng);
                if classify(&img) == class {
                    hits += 1;
                }
            }
            assert!(
                hits >= trials * 9 / 10,
                "class {class:?}: only {hits}/{trials} correct"
            );
        }
    }

    #[test]
    fn features_are_sane_per_class() {
        let mut rng = SmallRng::seed_from_u64(7);
        let photo = features(&gen_photograph(64, 64, &mut rng));
        assert!(photo.color_entropy > 6.0, "photo entropy {photo:?}");
        let plot = features(&gen_plot(64, 64, &mut rng));
        assert!(plot.axis_score > 0.5, "plot axes {plot:?}");
        let map = features(&gen_map(64, 64, &mut rng));
        assert!(map.geo_frac > 0.5, "map geo {map:?}");
        let diagram = features(&gen_diagram(64, 64, &mut rng));
        assert!(diagram.white_frac > 0.6, "diagram white {diagram:?}");
    }

    #[test]
    fn labels_nonempty_for_all_classes() {
        let mut rng = SmallRng::seed_from_u64(3);
        for class in ImageClass::ALL {
            let img = generate(class, 48, 48, &mut rng);
            assert!(!dominant_labels(&img).is_empty());
        }
    }

    #[test]
    #[ignore = "diagnostic dump"]
    fn dump_features() {
        let mut rng = SmallRng::seed_from_u64(42);
        for class in ImageClass::ALL {
            for i in 0..4 {
                let img = generate(class, 96, 96, &mut rng);
                let f = features(&img);
                eprintln!("{class:?}[{i}] -> {f:?} => {:?}", classify(&img));
            }
        }
    }

    #[test]
    fn class_labels_unique() {
        let mut labels: Vec<_> = ImageClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
