//! `Serialize` / `Deserialize` for the std types the workspace stores.

use crate::json::write_str;
use crate::value::{Map, Number, Value};
use crate::{Deserialize, Error, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Write;
use std::hash::{BuildHasher, Hash};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

fn mismatch(want: &str, got: &Value) -> Error {
    Error::custom(format_args!("expected {want}, found {}", got.kind()))
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(n) => n.write(out),
            Value::String(s) => write_str(s, out),
            Value::Array(a) => a.write_json(out),
            Value::Object(m) => m.write_json(out),
        }
    }
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

impl Serialize for Number {
    fn write_json(&self, out: &mut String) {
        self.write(out)
    }
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(v: Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| mismatch("a boolean", &v))
    }
}

macro_rules! integer {
    ($($ty:ty: $as:ident),*) => {$(
        impl Serialize for $ty {
            fn write_json(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self))
            }
            fn to_key(&self) -> String {
                self.to_string()
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn from_value(v: Value) -> Result<Self, Error> {
                let wide = v.$as().ok_or_else(|| mismatch(stringify!($ty), &v))?;
                <$ty>::try_from(wide)
                    .map_err(|_| Error::custom(format_args!("{wide} does not fit {}", stringify!($ty))))
            }
            fn from_key(key: String) -> Result<Self, Error> {
                key.parse().map_err(|_| {
                    Error::custom(format_args!("key {key:?} is not {}", stringify!($ty)))
                })
            }
        }
    )*};
}
integer!(
    u8: as_u64, u16: as_u64, u32: as_u64, u64: as_u64, usize: as_u64,
    i8: as_i64, i16: as_i64, i32: as_i64, i64: as_i64, isize: as_i64
);

macro_rules! float {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    // `{:?}` is the shortest text that reads back to the
                    // same bits and always carries a `.` or an exponent.
                    write!(out, "{self:?}").expect("writing to a String cannot fail");
                } else {
                    out.push_str("null");
                }
            }
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn from_value(v: Value) -> Result<Self, Error> {
                v.as_f64().map(|f| f as $ty).ok_or_else(|| mismatch("a number", &v))
            }
        }
    )*};
}
float!(f32, f64);

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out)
    }
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
    fn to_key(&self) -> String {
        self.to_string()
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out)
    }
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
    fn to_key(&self) -> String {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s),
            other => Err(mismatch("a string", &other)),
        }
    }
}

/// The real crate borrows `&'de str` from its input; this one parses into an
/// owned tree first, so the only way to hand out a `&'static str` is to
/// leak it. The workspace derives this on a few catalogue structs with
/// `&'static str` names and never reads them back on a hot path.
impl<'de> Deserialize<'de> for &'static str {
    fn from_value(v: Value) -> Result<Self, Error> {
        String::from_value(v).map(|s| &*Box::leak(s.into_boxed_str()))
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        write_str(self.encode_utf8(&mut [0; 4]), out)
    }
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_value(v: Value) -> Result<Self, Error> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected a single character")),
        }
    }
}

impl Serialize for Path {
    fn write_json(&self, out: &mut String) {
        write_str(&self.to_string_lossy(), out)
    }
    fn to_value(&self) -> Value {
        Value::String(self.to_string_lossy().into_owned())
    }
}

impl Serialize for PathBuf {
    fn write_json(&self, out: &mut String) {
        self.as_path().write_json(out)
    }
    fn to_value(&self) -> Value {
        self.as_path().to_value()
    }
}

impl<'de> Deserialize<'de> for PathBuf {
    fn from_value(v: Value) -> Result<Self, Error> {
        String::from_value(v).map(PathBuf::from)
    }
}

impl Serialize for () {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<'de> Deserialize<'de> for () {
    fn from_value(v: Value) -> Result<Self, Error> {
        v.as_null().ok_or_else(|| mismatch("null", &v))
    }
}

impl Serialize for Duration {
    fn write_json(&self, out: &mut String) {
        write!(
            out,
            "{{\"secs\":{},\"nanos\":{}}}",
            self.as_secs(),
            self.subsec_nanos()
        )
        .expect("writing to a String cannot fail");
    }
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("secs".to_string(), self.as_secs().to_value());
        m.insert("nanos".to_string(), self.subsec_nanos().to_value());
        Value::Object(m)
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn from_value(v: Value) -> Result<Self, Error> {
        let mut m = crate::__private::object(v, "Duration")?;
        let secs: u64 = crate::__private::field(&mut m, "secs")?;
        let nanos: u32 = crate::__private::field(&mut m, "nanos")?;
        Ok(Duration::new(secs, nanos))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn to_key(&self) -> String {
        (**self).to_key()
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn to_key(&self) -> String {
        (**self).to_key()
    }
}

macro_rules! pointer {
    ($($ptr:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn write_json(&self, out: &mut String) {
                (**self).write_json(out)
            }
            fn to_value(&self) -> Value {
                (**self).to_value()
            }
            fn to_key(&self) -> String {
                (**self).to_key()
            }
        }

        impl<'de, T: Deserialize<'de>> Deserialize<'de> for $ptr<T> {
            fn from_value(v: Value) -> Result<Self, Error> {
                T::from_value(v).map($ptr::new)
            }
            fn from_key(key: String) -> Result<Self, Error> {
                T::from_key(key).map($ptr::new)
            }
            fn missing_field(field: &'static str) -> Result<Self, Error> {
                T::missing_field(field).map($ptr::new)
            }
        }
    )*};
}
pointer!(Box, Rc, Arc);

macro_rules! unsized_str {
    ($($ptr:ident),*) => {$(
        impl<'de> Deserialize<'de> for $ptr<str> {
            fn from_value(v: Value) -> Result<Self, Error> {
                String::from_value(v).map($ptr::from)
            }
        }
    )*};
}
unsized_str!(Box, Rc, Arc);

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
    fn missing_field(_: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn write_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

fn seq_value<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>) -> Value {
    Value::Array(items.into_iter().map(Serialize::to_value).collect())
}

fn read_seq<'de, T: Deserialize<'de>, C: FromIterator<T>>(v: Value) -> Result<C, Error> {
    match v {
        Value::Array(a) => a
            .into_iter()
            .enumerate()
            .map(|(i, item)| T::from_value(item).map_err(|e| e.at(format_args!("[{i}]"))))
            .collect(),
        other => Err(mismatch("an array", &other)),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out)
    }
    fn to_value(&self) -> Value {
        seq_value(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out)
    }
    fn to_value(&self) -> Value {
        seq_value(self)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(v: Value) -> Result<Self, Error> {
        let items: Vec<T> = read_seq(v)?;
        let len = items.len();
        items.try_into().map_err(|_| {
            Error::custom(format_args!("expected an array of {N}, found one of {len}"))
        })
    }
}

macro_rules! sequence {
    ($($ty:ident<T $(: $b1:ident $(+ $b2:ident)*)? $(, $s:ident: $sb:ident)?>),*) => {$(
        impl<T: Serialize $(, $s)?> Serialize for $ty<T $(, $s)?> {
            fn write_json(&self, out: &mut String) {
                write_seq(self, out)
            }
            fn to_value(&self) -> Value {
                seq_value(self)
            }
        }

        impl<'de, T: Deserialize<'de> $(+ $b1 $(+ $b2)*)? $(, $s: $sb + Default)?> Deserialize<'de>
            for $ty<T $(, $s)?>
        {
            fn from_value(v: Value) -> Result<Self, Error> {
                read_seq(v)
            }
        }
    )*};
}
sequence!(Vec<T>, VecDeque<T>, BTreeSet<T: Ord>, HashSet<T: Eq + Hash, S: BuildHasher>);

fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&k.to_key(), out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

fn map_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect(),
    )
}

fn read_map<'de, K: Deserialize<'de>, V: Deserialize<'de>, C: FromIterator<(K, V)>>(
    v: Value,
) -> Result<C, Error> {
    match v {
        Value::Object(m) => m
            .into_iter()
            .map(|(k, item)| {
                let value = V::from_value(item).map_err(|e| e.at(&k))?;
                Ok((K::from_key(k)?, value))
            })
            .collect(),
        other => Err(mismatch("an object", &other)),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_map(self, out)
    }
    fn to_value(&self) -> Value {
        map_value(self)
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn from_value(v: Value) -> Result<Self, Error> {
        read_map(v)
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn write_json(&self, out: &mut String) {
        write_map(self, out)
    }
    fn to_value(&self) -> Value {
        map_value(self)
    }
}

impl<'de, K: Deserialize<'de> + Eq + Hash, V: Deserialize<'de>, S: BuildHasher + Default>
    Deserialize<'de> for HashMap<K, V, S>
{
    fn from_value(v: Value) -> Result<Self, Error> {
        read_map(v)
    }
}

macro_rules! tuple {
    ($(($($name:ident . $idx:tt),+) of $len:expr),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(v: Value) -> Result<Self, Error> {
                let mut it = crate::__private::array(v, "tuple", $len)?;
                Ok(($(crate::__private::next::<$name>(&mut it)?,)+))
            }
        }
    )*};
}
tuple!(
    (A.0) of 1,
    (A.0, B.1) of 2,
    (A.0, B.1, C.2) of 3,
    (A.0, B.1, C.2, D.3) of 4,
    (A.0, B.1, C.2, D.3, E.4) of 5,
    (A.0, B.1, C.2, D.3, E.4, F.5) of 6
);
