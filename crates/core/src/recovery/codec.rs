//! Payload encoding of one WAL frame.
//!
//! Byte 0 of a payload says how the rest reads. `{` is a JSON object: every
//! frame written before this encoding existed, and every record variant
//! that is not one of the three below. A kind byte is a binary frame; a
//! layout change takes a new kind byte, so the byte is version and kind in
//! one and an old log stays readable for as long as its reader is here.
//!
//! ```text
//! 0x01 FamilyPlanned   family
//! 0x02 StepCompleted   family-id:uint step
//! 0x03 FamilyMigrated  family from:uint to:uint adopted:u8 n:uint step*n charges:uint
//!
//! family  id:uint  n:uint file*n  n:uint group*n  source:uint  base_path:(0 | 1 str)  map
//! file    path:str size:uint endpoint:uint hint:u8 created_at:uint
//! group   id:uint  n:uint str*n  map
//! step    kind:u8  map  n:uint (path:str type:u8)*n
//! map     n:uint (key:str value)*n
//! value   0 null | 1 false | 2 true | 3 uint | 4 zigzag-uint | 5 f64 (8 bytes LE)
//!         | 6 str | 7 n:uint value*n | 8 map
//! uint    LEB128 u64          str  len:uint utf-8
//! ```
//!
//! `kind` and `hint`/`type` are the variant's position in
//! [`ExtractorKind::ALL`] / [`FileType::ALL`]; a golden test pins both.
//!
//! The decoder is total: any byte string is a record or `None`, never a
//! panic. Every length and count is checked against the bytes left in the
//! frame before anything is allocated for it, no single allocation is
//! larger than those bytes, and nesting stops at [`MAX_DEPTH`] on both sides.

use super::{MigratedStep, RecoveryRecord};
use serde_json::{Map, Number, Value};
use std::sync::Arc;
use xtract_types::{
    EndpointId, ExtractorKind, Family, FamilyId, FileRecord, FileType, Group, GroupId, Metadata,
    Result, XtractError,
};

const PLANNED: u8 = 0x01;
const STEP: u8 = 0x02;
const MIGRATED: u8 = 0x03;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const U64: u8 = 3;
const I64: u8 = 4;
const F64: u8 = 5;
const STRING: u8 = 6;
const ARRAY: u8 = 7;
const OBJECT: u8 = 8;

/// Deepest array/object nesting a metadata tree may have in a frame
/// (`serde_json`'s own recursion limit): the encoder refuses a deeper tree
/// rather than write a frame the recursive decoder could not safely read.
const MAX_DEPTH: usize = 128;

/// Appends `record`'s payload to `out`.
pub(super) fn encode(out: &mut Vec<u8>, record: &RecoveryRecord) -> Result<()> {
    match record {
        RecoveryRecord::FamilyPlanned { family } => encode_planned(out, family),
        RecoveryRecord::StepCompleted {
            family,
            kind,
            metadata,
            discoveries,
        } => {
            out.push(STEP);
            put_uint(out, family.raw());
            put_step(out, *kind, metadata, discoveries)
        }
        RecoveryRecord::FamilyMigrated {
            family,
            from,
            to,
            adopted,
            steps,
            charges,
        } => {
            out.push(MIGRATED);
            put_family(out, family)?;
            put_uint(out, *from);
            put_uint(out, *to);
            out.push(u8::from(*adopted));
            put_uint(out, steps.len() as u64);
            for s in steps {
                put_step(out, s.kind, &s.metadata, &s.discoveries)?;
            }
            put_uint(out, u64::from(*charges));
            Ok(())
        }
        other => serde_json::to_writer(out, other).map_err(|e| XtractError::Internal {
            reason: format!("recovery record serialization: {e}"),
        }),
    }
}

/// Appends the payload of a `FamilyPlanned` record over a borrowed family.
pub(super) fn encode_planned(out: &mut Vec<u8>, family: &Family) -> Result<()> {
    out.push(PLANNED);
    put_family(out, family)
}

fn put_uint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_family(out: &mut Vec<u8>, f: &Family) -> Result<()> {
    put_uint(out, f.id.raw());
    put_uint(out, f.files.len() as u64);
    for file in &f.files {
        put_str(out, &file.path);
        put_uint(out, file.size);
        put_uint(out, file.endpoint.raw());
        out.push(file.hint as u8);
        put_uint(out, file.created_at);
    }
    put_uint(out, f.groups.len() as u64);
    for g in &f.groups {
        put_uint(out, g.id.raw());
        put_uint(out, g.files.len() as u64);
        g.files.iter().for_each(|path| put_str(out, path));
        put_map(out, &g.metadata.0, 0)?;
    }
    put_uint(out, f.source.raw());
    match &f.base_path {
        None => out.push(0),
        Some(base) => {
            out.push(1);
            put_str(out, base);
        }
    }
    put_map(out, &f.metadata.0, 0)
}

fn put_step(
    out: &mut Vec<u8>,
    kind: ExtractorKind,
    metadata: &Metadata,
    discoveries: &[(String, FileType)],
) -> Result<()> {
    out.push(kind as u8);
    put_map(out, &metadata.0, 0)?;
    put_uint(out, discoveries.len() as u64);
    for (path, ty) in discoveries {
        put_str(out, path);
        out.push(*ty as u8);
    }
    Ok(())
}

/// `depth` is how many arrays and objects enclose this map's values.
fn put_map(out: &mut Vec<u8>, map: &Map<String, Value>, depth: usize) -> Result<()> {
    put_uint(out, map.len() as u64);
    for (key, value) in map {
        put_str(out, key);
        put_value(out, value, depth)?;
    }
    Ok(())
}

fn put_value(out: &mut Vec<u8>, value: &Value, depth: usize) -> Result<()> {
    match value {
        Value::Null => out.push(NULL),
        Value::Bool(b) => out.push(if *b { TRUE } else { FALSE }),
        Value::Number(n) => {
            if let Some(u) = n.as_u64() {
                out.push(U64);
                put_uint(out, u);
            } else if let Some(i) = n.as_i64() {
                out.push(I64);
                put_uint(out, ((i << 1) ^ (i >> 63)) as u64);
            } else {
                out.push(F64);
                let f = n
                    .as_f64()
                    .expect("a JSON number is a u64, an i64 or an f64");
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
        Value::String(s) => {
            out.push(STRING);
            put_str(out, s);
        }
        Value::Array(_) | Value::Object(_) if depth == MAX_DEPTH => {
            return Err(XtractError::Internal {
                reason: format!("recovery record metadata nests deeper than {MAX_DEPTH}"),
            });
        }
        Value::Array(items) => {
            out.push(ARRAY);
            put_uint(out, items.len() as u64);
            for item in items {
                put_value(out, item, depth + 1)?;
            }
        }
        Value::Object(map) => {
            out.push(OBJECT);
            put_map(out, map, depth + 1)?;
        }
    }
    Ok(())
}

/// The record `payload` holds, or `None` when it holds none.
pub(super) fn decode(payload: &[u8]) -> Option<RecoveryRecord> {
    let (&kind, rest) = payload.split_first()?;
    if kind == b'{' {
        return serde_json::from_slice(payload).ok();
    }
    let mut r = Reader { rest };
    let record = match kind {
        PLANNED => RecoveryRecord::FamilyPlanned {
            family: r.family()?,
        },
        STEP => {
            let family = FamilyId::new(r.uint()?);
            let step = r.step()?;
            RecoveryRecord::StepCompleted {
                family,
                kind: step.kind,
                metadata: step.metadata,
                discoveries: step.discoveries,
            }
        }
        MIGRATED => RecoveryRecord::FamilyMigrated {
            family: r.family()?,
            from: r.uint()?,
            to: r.uint()?,
            adopted: r.flag()?,
            steps: r.vec(3, Reader::step)?,
            charges: u32::try_from(r.uint()?).ok()?,
        },
        _ => return None,
    };
    r.rest.is_empty().then_some(record)
}

/// The undecoded rest of one frame's payload.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn flag(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn uint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return None;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// A count of items that each take at least `min` bytes of the frame:
    /// refused when the bytes left could not hold that many.
    fn count(&mut self, min: usize) -> Option<usize> {
        let n = usize::try_from(self.uint()?).ok()?;
        (n.checked_mul(min)? <= self.rest.len()).then_some(n)
    }

    fn string(&mut self) -> Option<String> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).ok().map(str::to_owned)
    }

    /// A counted sequence. The up-front allocation is capped by the bytes
    /// left, not by the count: a short frame cannot ask for a long vector.
    fn vec<T>(&mut self, min: usize, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.count(min)?;
        let mut out = Vec::with_capacity(n.min(self.rest.len() / size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    fn file_type(&mut self) -> Option<FileType> {
        FileType::ALL.get(usize::from(self.byte()?)).copied()
    }

    fn family(&mut self) -> Option<Family> {
        Some(Family {
            id: FamilyId::new(self.uint()?),
            files: self.vec(5, |r| {
                Some(FileRecord {
                    path: r.string()?,
                    size: r.uint()?,
                    endpoint: EndpointId::new(r.uint()?),
                    hint: r.file_type()?,
                    created_at: r.uint()?,
                })
            })?,
            groups: self.vec(3, |r| {
                Some(Group {
                    id: GroupId::new(r.uint()?),
                    files: r.vec(1, Reader::string)?,
                    metadata: Metadata(r.map(0)?),
                })
            })?,
            source: EndpointId::new(self.uint()?),
            base_path: match self.flag()? {
                false => None,
                true => Some(self.string()?),
            },
            metadata: Metadata(self.map(0)?),
        })
    }

    fn step(&mut self) -> Option<MigratedStep> {
        Some(MigratedStep {
            kind: *ExtractorKind::ALL.get(usize::from(self.byte()?))?,
            metadata: Arc::new(Metadata(self.map(0)?)),
            discoveries: self.vec(2, |r| Some((r.string()?, r.file_type()?)))?,
        })
    }

    fn map(&mut self, depth: usize) -> Option<Map<String, Value>> {
        let n = self.count(2)?;
        let mut map = Map::new();
        for _ in 0..n {
            let key = self.string()?;
            map.insert(key, self.value(depth)?);
        }
        Some(map)
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        Some(match self.byte()? {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            U64 => Value::Number(Number::from(self.uint()?)),
            I64 => {
                let z = self.uint()?;
                Value::Number(Number::from((z >> 1) as i64 ^ -((z & 1) as i64)))
            }
            F64 => {
                let bytes = self.take(8)?.try_into().expect("took 8 bytes");
                Value::Number(Number::from_f64(f64::from_le_bytes(bytes))?)
            }
            STRING => Value::String(self.string()?),
            ARRAY if depth < MAX_DEPTH => Value::Array(self.vec(1, |r| r.value(depth + 1))?),
            OBJECT if depth < MAX_DEPTH => Value::Object(self.map(depth + 1)?),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// SplitMix64: the seeded source of every loop below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    /// Keys and strings a JSON writer has to escape, and text outside ASCII.
    const TEXTS: [&str; 8] = [
        "",
        "rows",
        "quote\" back\\slash /solidus",
        "tab\tline\nfeed\r\u{1}\u{1f}",
        "na\u{ef}ve \u{2713} \u{65e5}\u{672c}\u{8a9e} \u{1f980}",
        "/data/a b/\u{e9}t\u{e9}.csv",
        "\u{7f}\u{80}\u{2028}",
        "{\"type\":\"step_completed\"}",
    ];

    /// Floats whose shortest decimal form any JSON reader parses back
    /// exactly: the sign of zero, both ends of the exponent range and two
    /// subnormals among them. (Every other bit pattern is covered by
    /// `every_finite_f64_survives_bit_for_bit`, which JSON is not part of.)
    const FLOATS: [f64; 9] = [-0.0, 0.0, 0.5, -1.25, 0.1, 1e300, -2.5e-300, 5e-324, 1e-320];

    fn text(rng: &mut Rng) -> String {
        let mut s = rng.pick(&TEXTS).to_string();
        if rng.below(2) == 0 {
            s.push_str(&rng.below(1000).to_string());
        }
        s
    }

    fn value(rng: &mut Rng, depth: usize) -> Value {
        match rng.below(if depth < 4 { 13 } else { 10 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => json!(u64::MAX),
            3 => json!(i64::MIN),
            4 => json!(rng.next()),
            5 => json!(-((rng.next() >> 1) as i64) - 1),
            6 => json!(rng.pick(&FLOATS)),
            7 => json!((rng.next() >> 40) as f64 / 8.0),
            8 => Value::String(text(rng)),
            9 if rng.below(2) == 0 => json!([]),
            9 => json!({}),
            10 => Value::Array((0..rng.below(4)).map(|_| value(rng, depth + 1)).collect()),
            _ => Value::Object(map(rng, depth + 1)),
        }
    }

    fn map(rng: &mut Rng, depth: usize) -> Map<String, Value> {
        (0..rng.below(5))
            .map(|_| (text(rng), value(rng, depth)))
            .collect()
    }

    fn family(rng: &mut Rng) -> Family {
        let files: Vec<FileRecord> = (0..rng.below(4))
            .map(|_| FileRecord {
                path: text(rng),
                size: rng.next() >> rng.below(64),
                endpoint: EndpointId::new(rng.below(5)),
                hint: rng.pick(&FileType::ALL),
                created_at: rng.next() >> rng.below(64),
            })
            .collect();
        let groups = (0..rng.below(3))
            .map(|_| Group {
                id: GroupId::new(rng.next()),
                files: (0..rng.below(3)).map(|_| text(rng)).collect(),
                metadata: Metadata(map(rng, 0)),
            })
            .collect();
        Family {
            id: FamilyId::new(rng.next() >> rng.below(64)),
            files,
            groups,
            source: EndpointId::new(rng.below(5)),
            base_path: (rng.below(2) == 0).then(|| text(rng)),
            metadata: Metadata(map(rng, 0)),
        }
    }

    fn step(rng: &mut Rng) -> MigratedStep {
        MigratedStep {
            kind: rng.pick(&ExtractorKind::ALL),
            metadata: Arc::new(Metadata(map(rng, 0))),
            discoveries: (0..rng.below(3))
                .map(|_| (text(rng), rng.pick(&FileType::ALL)))
                .collect(),
        }
    }

    fn record(rng: &mut Rng) -> RecoveryRecord {
        match rng.below(5) {
            0 | 1 => RecoveryRecord::FamilyPlanned {
                family: family(rng),
            },
            2 | 3 => {
                let s = step(rng);
                RecoveryRecord::StepCompleted {
                    family: FamilyId::new(rng.next() >> rng.below(64)),
                    kind: s.kind,
                    metadata: s.metadata,
                    discoveries: s.discoveries,
                }
            }
            _ => RecoveryRecord::FamilyMigrated {
                family: family(rng),
                from: rng.below(8),
                to: rng.below(8),
                adopted: rng.below(2) == 0,
                steps: (0..rng.below(4)).map(|_| step(rng)).collect(),
                charges: rng.next() as u32,
            },
        }
    }

    fn encoded(record: &RecoveryRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode(&mut out, record).unwrap();
        out
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn random_records_round_trip_and_read_as_the_json_reader_reads_them() {
        let mut rng = Rng(0x5eed_0022);
        let mut kinds = [0usize; 4];
        for i in 0..1500 {
            let record = record(&mut rng);
            let bytes = encoded(&record);
            kinds[usize::from(bytes[0])] += 1;
            let back = decode(&bytes).unwrap_or_else(|| panic!("record {i} does not decode"));
            assert_eq!(back, record, "record {i}");
            // `-0.0 == 0.0`: equality of the re-encoded bytes is what
            // holds every float to its bits.
            assert_eq!(encoded(&back), bytes, "record {i}");
            // The same record as a JSON frame, through the same reader.
            let json = serde_json::to_vec(&record).unwrap();
            assert_eq!(json[0], b'{');
            assert_eq!(decode(&json).as_ref(), Some(&back), "record {i}");
        }
        assert!(kinds[1..].iter().all(|&n| n > 100), "{kinds:?}");
    }

    #[test]
    fn every_finite_f64_survives_bit_for_bit() {
        let mut rng = Rng(0x5eed_0023);
        let mut bits: Vec<u64> = (0..20_000).map(|_| rng.next()).collect();
        // Subnormals, which random exponents almost never draw.
        bits.extend((0..2_000).map(|_| rng.next() & 0x800f_ffff_ffff_ffff));
        bits.retain(|&b| f64::from_bits(b).is_finite());
        let floats: Vec<Value> = bits.iter().map(|&b| json!(f64::from_bits(b))).collect();
        let mut metadata = Metadata::new();
        metadata.insert("floats", floats);
        let record = RecoveryRecord::StepCompleted {
            family: FamilyId::new(1),
            kind: ExtractorKind::Tabular,
            metadata: Arc::new(metadata),
            discoveries: Vec::new(),
        };
        let Some(RecoveryRecord::StepCompleted { metadata, .. }) = decode(&encoded(&record)) else {
            panic!("does not decode to a step");
        };
        let back: Vec<u64> = metadata
            .get("floats")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        assert!(back == bits);
    }

    fn golden_family() -> Family {
        let mut family = Family::new(
            FamilyId::new(300),
            vec![FileRecord {
                path: "/d/a.csv".into(),
                size: 1 << 20,
                endpoint: EndpointId::new(2),
                hint: FileType::Tabular,
                created_at: 7,
            }],
            vec![Group::new(GroupId::new(9), vec!["/d/a.csv".into()])],
            EndpointId::new(2),
        );
        family.base_path = Some("/d".into());
        family.metadata.insert("n", -1);
        family
    }

    fn golden_step() -> RecoveryRecord {
        let mut metadata = Metadata::new();
        metadata.insert("cols", json!(["t", null, true, 1.5, {"\u{e9}": u64::MAX}]));
        RecoveryRecord::StepCompleted {
            family: FamilyId::new(300),
            kind: ExtractorKind::NullValue,
            metadata: Arc::new(metadata),
            discoveries: vec![("/d/a.csv".into(), FileType::Json)],
        }
    }

    /// The bytes a log holds today. A change to either string is a change
    /// of format: it takes a new kind byte, and these stay readable.
    const GOLDEN_PLANNED: &str =
        "01ac0201082f642f612e637376808040020107010901082f642f612e637376000201022f6401016e0401";
    const GOLDEN_STEP: &str = "02ac02020104636f6c730705060174000205000000000000f83f080102c3a903\
        ffffffffffffffffff0101082f642f612e63737603";

    #[test]
    fn golden_frames_pin_the_layout() {
        let planned = RecoveryRecord::FamilyPlanned {
            family: golden_family(),
        };
        assert_eq!(hex(&encoded(&planned)), GOLDEN_PLANNED);
        assert_eq!(hex(&encoded(&golden_step())), GOLDEN_STEP);
        let unhex = |s: &str| -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        };
        assert_eq!(decode(&unhex(GOLDEN_PLANNED)), Some(planned));
        assert_eq!(decode(&unhex(GOLDEN_STEP)), Some(golden_step()));
    }

    #[test]
    fn enum_bytes_are_pinned() {
        let kinds: Vec<(u8, &str)> = ExtractorKind::ALL
            .iter()
            .map(|k| (*k as u8, k.name()))
            .collect();
        assert_eq!(
            kinds,
            [
                (0, "keyword"),
                (1, "tabular"),
                (2, "null-value"),
                (3, "images"),
                (4, "image-sort"),
                (5, "imagenet"),
                (6, "hierarchical"),
                (7, "semi-structured"),
                (8, "python"),
                (9, "c"),
                (10, "bert"),
                (11, "matio"),
                (12, "compressed"),
            ]
        );
        let types: Vec<(u8, &str)> = FileType::ALL
            .iter()
            .map(|t| (*t as u8, t.label()))
            .collect();
        assert_eq!(
            types,
            [
                (0, "text"),
                (1, "csv"),
                (2, "image"),
                (3, "json"),
                (4, "xml"),
                (5, "yaml"),
                (6, "hdf"),
                (7, "py"),
                (8, "c"),
                (9, "zip"),
                (10, "slides"),
                (11, "ase"),
                (12, "dft"),
                (13, "cif"),
                (14, "em"),
                (15, "unknown"),
            ]
        );
    }

    #[test]
    fn damaged_payloads_decode_or_fail_and_never_panic() {
        let mut rng = Rng(0x5eed_0024);
        let mut survivors = 0;
        for _ in 0..300 {
            let bytes = encoded(&record(&mut rng));
            // A strict prefix of a frame is never a frame.
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]),
                    None,
                    "cut at {cut} of {}",
                    hex(&bytes)
                );
            }
            // One byte overwritten, the CRC (not in play here) as good as
            // recomputed: whatever still decodes is a record like any other.
            for _ in 0..64 {
                let mut bad = bytes.clone();
                let at = rng.below(bad.len() as u64) as usize;
                bad[at] = rng.next() as u8;
                if let Some(record) = decode(&bad) {
                    survivors += 1;
                    assert_eq!(decode(&encoded(&record)), Some(record));
                }
            }
        }
        assert!(survivors > 0, "no damage ever got past the decoder");
        // Noise behind each kind byte.
        for _ in 0..20_000 {
            let len = rng.below(64) as usize;
            let mut noise: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            noise.insert(0, rng.pick(&[PLANNED, STEP, MIGRATED]));
            let _ = decode(&noise);
        }
    }

    #[test]
    fn lengths_are_checked_against_the_frame_before_anything_is_allocated() {
        // uint 2^56: as a count it would be an allocation of petabytes.
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let step_with = |metadata: &[u8]| [&[STEP, 1, 0][..], metadata, &[0]].concat();
        // One empty-keyed entry per value tag that carries a length.
        for tag in [STRING, ARRAY, OBJECT] {
            let entry = [&[1, 0, tag][..], &huge].concat();
            assert_eq!(decode(&step_with(&entry)), None, "tag {tag}");
        }
        assert_eq!(decode(&step_with(&huge)), None, "map entries");
        assert_eq!(
            decode(&[&[STEP, 1, 0, 0][..], &huge].concat()),
            None,
            "discoveries"
        );
        assert_eq!(decode(&[&[PLANNED, 1][..], &huge].concat()), None, "files");
        assert_eq!(
            decode(&[&[PLANNED, 1, 0][..], &huge].concat()),
            None,
            "groups"
        );
        // The well-formed neighbours of those frames do decode.
        assert!(decode(&step_with(&[0])).is_some());
        assert!(decode(&step_with(&[1, 0, ARRAY, 0])).is_some());
    }

    #[test]
    fn malformed_fields_are_refused() {
        let step_with = |entry: &[u8]| [&[STEP, 1, 0, 1, 0][..], entry, &[0]].concat();
        assert!(decode(&step_with(&[NULL])).is_some());
        assert_eq!(decode(&[]), None, "empty payload");
        assert_eq!(decode(&[0x04]), None, "unknown kind");
        assert_eq!(
            decode(b" {\"type\":\"job_completed\"}"),
            None,
            "not an object"
        );
        assert_eq!(
            decode(&[&step_with(&[NULL])[..], &[0]].concat()),
            None,
            "trailing byte"
        );
        assert_eq!(decode(&step_with(&[9])), None, "unknown value tag");
        assert_eq!(
            decode(&step_with(&[STRING, 2, 0xc3, 0x28])),
            None,
            "not utf-8"
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let entry = [&[F64][..], &bad.to_le_bytes()].concat();
            assert_eq!(decode(&step_with(&entry)), None, "{bad}");
        }
        // Eleven-byte and 65-bit uints.
        assert_eq!(
            decode(&step_with(&[&[U64][..], &[0x80; 10], &[0]].concat())),
            None
        );
        assert_eq!(
            decode(&step_with(&[&[U64][..], &[0xff; 9], &[0x02]].concat())),
            None
        );
        assert!(decode(&step_with(&[&[U64][..], &[0xff; 9], &[0x01]].concat())).is_some());
        assert_eq!(decode(&[STEP, 1, 13, 0, 0]), None, "no such extractor");
        assert_eq!(
            decode(&[STEP, 1, 0, 0, 1, 0, 16]),
            None,
            "no such file type"
        );
        assert_eq!(decode(&[PLANNED, 1, 0, 0, 0, 2, 0]), None, "base_path flag");
    }

    #[test]
    fn nesting_stops_at_the_same_depth_on_both_sides() {
        let nested = |depth: usize| {
            let mut v = json!(1);
            for _ in 0..depth {
                v = json!([v]);
            }
            let mut metadata = Metadata::new();
            metadata.insert("deep", v);
            RecoveryRecord::StepCompleted {
                family: FamilyId::new(1),
                kind: ExtractorKind::Keyword,
                metadata: Arc::new(metadata),
                discoveries: Vec::new(),
            }
        };
        let deepest = nested(MAX_DEPTH);
        assert_eq!(decode(&encoded(&deepest)), Some(deepest));
        let mut out = Vec::new();
        assert!(encode(&mut out, &nested(MAX_DEPTH + 1)).is_err());
        // The frame the encoder refused to write, written by hand.
        let mut frame = vec![STEP, 1, 0, 1, 4];
        frame.extend_from_slice(b"deep");
        frame.extend([ARRAY, 1].repeat(MAX_DEPTH + 1));
        frame.extend([U64, 1, 0]);
        assert_eq!(decode(&frame), None);
        // And the longest chain of open arrays a frame cap allows is an
        // error, not a stack overflow.
        let mut bomb = vec![STEP, 1, 0, 1, 0];
        bomb.extend([ARRAY, 1].repeat(1 << 20));
        assert_eq!(decode(&bomb), None);
    }
}
