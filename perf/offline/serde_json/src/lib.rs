//! Offline stand-in for the parts of `serde_json` this workspace uses: the
//! `to_*` / `from_*` functions, `Value` / `Map` / `Number`, and `json!`.
//! The work is done by the `serde` stand-in; this crate is its front door.

pub use serde::{Error, Map, Number, Value};

pub type Result<T> = std::result::Result<T, Error>;

pub mod value {
    pub use serde::{Index, Map, Number, Value};
}

pub mod map {
    pub use serde::Map;
    pub use std::collections::btree_map::{Entry, OccupiedEntry, VacantEntry};
}

pub mod error {
    pub use crate::Result;
    pub use serde::Error;
}

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    to_string(value).map(|compact| serde::json::prettify(&compact))
}

pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn to_vec_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

pub fn to_writer<W: std::io::Write, T: serde::Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(Error::custom)
}

pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.to_value())
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(s: &'a str) -> Result<T> {
    T::from_value(serde::json::parse(s)?)
}

pub fn from_slice<'a, T: serde::Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    from_str(std::str::from_utf8(bytes).map_err(Error::custom)?)
}

pub fn from_reader<R: std::io::Read, T: serde::de::DeserializeOwned>(mut reader: R) -> Result<T> {
    let mut text = String::new();
    reader.read_to_string(&mut text).map_err(Error::custom)?;
    T::from_value(serde::json::parse(&text)?)
}

pub fn from_value<T: serde::de::DeserializeOwned>(value: Value) -> Result<T> {
    T::from_value(value)
}

/// Builds a [`Value`] from JSON-like syntax. Keys are one token each (a
/// literal, an identifier or a parenthesised expression); values are
/// `null`, nested `[..]` / `{..}`, or any expression that is `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::Null
    };
    ([ $($tt:tt)* ]) => {
        $crate::Value::Array($crate::__json_array!([] $($tt)*))
    };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::new();
        $crate::__json_object!(object $($tt)*);
        $crate::Value::Object(object)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).expect("the stand-in's to_value cannot fail")
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __json_array {
    ([$($acc:expr,)*]) => {
        ::std::vec![$($acc,)*]
    };
    ([$($acc:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::__json_array!([$($acc,)* $crate::Value::Null,] $($($rest)*)?)
    };
    ([$($acc:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_array!([$($acc,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    ([$($acc:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_array!([$($acc,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    ([$($acc:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::__json_array!([$($acc,)* $crate::json!($next),] $($($rest)*)?)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __json_object {
    ($object:ident) => {};
    ($object:ident $key:tt : null $(, $($rest:tt)*)?) => {
        $object.insert(($key).into(), $crate::Value::Null);
        $crate::__json_object!($object $($($rest)*)?)
    };
    ($object:ident $key:tt : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $object.insert(($key).into(), $crate::json!([$($inner)*]));
        $crate::__json_object!($object $($($rest)*)?)
    };
    ($object:ident $key:tt : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $object.insert(($key).into(), $crate::json!({$($inner)*}));
        $crate::__json_object!($object $($($rest)*)?)
    };
    ($object:ident $key:tt : $value:expr $(, $($rest:tt)*)?) => {
        $object.insert(($key).into(), $crate::json!($value));
        $crate::__json_object!($object $($($rest)*)?)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};
    use std::time::Duration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
    #[serde(transparent)]
    struct Id(pub u64);

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    #[serde(rename_all = "snake_case")]
    enum Kind {
        PlainText,
        Csv,
    }

    fn three() -> u32 {
        3
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Doc {
        id: Id,
        name: String,
        kind: Kind,
        score: f64,
        tags: Vec<String>,
        by_id: HashMap<Id, u32>,
        maybe: Option<i32>,
        #[serde(default)]
        extra: BTreeMap<String, Value>,
        #[serde(default = "three")]
        workers: u32,
        took: Duration,
        pair: (u8, String),
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(tag = "type", rename_all = "snake_case")]
    enum Record {
        JobStarted { spec: String, seq: u64 },
        Committed,
        Planned { doc: Box<Doc> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Plain {
        Unit,
        One(u32),
        Two(u32, String),
        Named { x: f32 },
    }

    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    #[serde(default)]
    struct Policy {
        enabled: bool,
        limit: u32,
    }

    fn doc() -> Doc {
        Doc {
            id: Id(7),
            name: "a \"quoted\"\n\tname \u{1F600} \u{01}".into(),
            kind: Kind::PlainText,
            score: 0.1 + 0.2,
            tags: vec!["x".into(), "y".into()],
            by_id: [(Id(1), 10), (Id(u64::MAX), 20)].into_iter().collect(),
            maybe: None,
            extra: BTreeMap::new(),
            workers: 9,
            took: Duration::new(3, 17),
            pair: (255, "p".into()),
        }
    }

    #[test]
    fn struct_roundtrips_bit_exactly_through_text_and_value() {
        let d = doc();
        let text = to_string(&d).unwrap();
        let back: Doc = from_str(&text).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.score.to_bits(), d.score.to_bits());
        let via_value: Doc = from_value(to_value(&d).unwrap()).unwrap();
        assert_eq!(via_value, d);
        // The text path and the tree path describe the same document.
        assert_eq!(from_str::<Value>(&text).unwrap(), to_value(&d).unwrap());
        let pretty = to_string_pretty(&d).unwrap();
        assert_eq!(from_str::<Doc>(&pretty).unwrap(), d);
        assert_eq!(
            to_string_pretty(&json!({"a": [1, {"b": "x,y:{z}\\\""}], "c": {}, "d": []})).unwrap(),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x,y:{z}\\\\\\\"\"\n    }\n  ],\n  \"c\": {},\n  \"d\": []\n}"
        );
    }

    #[test]
    fn wire_shapes_follow_serde_json_conventions() {
        assert_eq!(to_string(&Id(5)).unwrap(), "5");
        assert_eq!(to_string(&Kind::PlainText).unwrap(), "\"plain_text\"");
        assert_eq!(to_string(&Plain::Unit).unwrap(), "\"Unit\"");
        assert_eq!(to_string(&Plain::One(1)).unwrap(), "{\"One\":1}");
        assert_eq!(
            to_string(&Plain::Two(1, "b".into())).unwrap(),
            "{\"Two\":[1,\"b\"]}"
        );
        assert_eq!(
            to_string(&Plain::Named { x: 1.5 }).unwrap(),
            "{\"Named\":{\"x\":1.5}}"
        );
        assert_eq!(
            to_string(&Record::JobStarted {
                spec: "s".into(),
                seq: 2
            })
            .unwrap(),
            "{\"type\":\"job_started\",\"spec\":\"s\",\"seq\":2}"
        );
        assert_eq!(
            to_string(&Record::Committed).unwrap(),
            "{\"type\":\"committed\"}"
        );
        assert_eq!(
            to_string(&Duration::new(1, 2)).unwrap(),
            "{\"secs\":1,\"nanos\":2}"
        );
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&Some(3u8)).unwrap(), "3");
        assert_eq!(to_string(&None::<u8>).unwrap(), "null");
        let mut m = HashMap::new();
        m.insert(Id(3), "v");
        assert_eq!(to_string(&m).unwrap(), "{\"3\":\"v\"}");
    }

    #[test]
    fn enums_roundtrip() {
        for p in [
            Plain::Unit,
            Plain::One(4),
            Plain::Two(5, "s".into()),
            Plain::Named { x: -0.25 },
        ] {
            assert_eq!(from_str::<Plain>(&to_string(&p).unwrap()).unwrap(), p);
            assert_eq!(from_value::<Plain>(to_value(&p).unwrap()).unwrap(), p);
        }
        for r in [
            Record::JobStarted {
                spec: "x".into(),
                seq: 1,
            },
            Record::Committed,
            Record::Planned {
                doc: Box::new(doc()),
            },
        ] {
            assert_eq!(from_str::<Record>(&to_string(&r).unwrap()).unwrap(), r);
            assert_eq!(from_value::<Record>(to_value(&r).unwrap()).unwrap(), r);
        }
        assert!(from_str::<Plain>("\"Nope\"").is_err());
        assert!(from_str::<Record>("{\"type\":\"nope\"}").is_err());
        assert!(from_str::<Record>("{\"spec\":\"s\"}").is_err());
    }

    #[test]
    fn defaults_and_missing_fields() {
        let p: Policy = from_str("{\"limit\":4}").unwrap();
        assert_eq!(
            p,
            Policy {
                enabled: false,
                limit: 4
            }
        );
        let text = to_string(&doc()).unwrap();
        let mut v: Value = from_str(&text).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("extra");
        obj.remove("workers");
        obj.remove("maybe");
        let d: Doc = from_value(v.clone()).unwrap();
        assert_eq!(d.workers, 3);
        assert_eq!(d.maybe, None);
        v.as_object_mut().unwrap().remove("name");
        let err = from_value::<Doc>(v).unwrap_err().to_string();
        assert!(err.contains("missing field `name`"), "{err}");
        assert!(from_str::<Doc>("{\"id\":-1}").is_err());
    }

    #[test]
    fn parser_accepts_json_and_rejects_what_is_not() {
        let v: Value = from_str(
            " {\"a\": [1, -2, 3.5e2, true, false, null, \"\\u00e9\\ud83d\\ude00\\n\"], \"b\": {}} ",
        )
        .unwrap();
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][2], 350.0);
        assert_eq!(v["a"][6], "\u{e9}\u{1F600}\n");
        assert!(v["b"].as_object().unwrap().is_empty());
        assert!(v["missing"]["deeper"].is_null());
        assert_eq!(
            from_str::<Value>("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            from_str::<Value>("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
        assert!(from_str::<Value>("18446744073709551616").unwrap().is_f64());
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "-",
            "\"\\x\"",
            "\"\t\"",
            "nul",
            "1 2",
            "{a:1}",
            "\"\\ud800\"",
            "[1 2]",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str::<Value>(&deep).is_err());
        assert!(from_slice::<Value>(&[b'"', 0xff, b'"']).is_err());
    }

    #[test]
    fn json_macro_builds_nested_documents() {
        let n = 3;
        let name = String::from("k");
        let v = json!({
            "a": 1,
            "b": [1, "two", null, {"c": [n, n + 1]}],
            "d": {"e": {"f": true}},
            (name.clone()): name.len(),
            "g": Some(2.5),
            "h": null,
        });
        assert_eq!(
            v.to_string(),
            "{\"a\":1,\"b\":[1,\"two\",null,{\"c\":[3,4]}],\"d\":{\"e\":{\"f\":true}},\"g\":2.5,\"h\":null,\"k\":1}"
        );
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!([]), Value::Array(vec![]));
        assert_eq!(json!({}), Value::Object(Map::new()));
        assert_eq!(json!(n), 3);
        assert_eq!(v.pointer("/b/3/c/1"), Some(&json!(4)));
        let mut w = json!({"x": 1});
        w["y"] = json!("z");
        assert_eq!(w, json!({"x": 1, "y": "z"}));
        assert_eq!(w["y"].take(), "z");
        assert!(w["y"].is_null());
    }
}
