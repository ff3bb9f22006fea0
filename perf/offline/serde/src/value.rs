//! The JSON document tree: `Value`, `Number`, `Map`.

use std::collections::BTreeMap;
use std::fmt;

/// Objects keep their keys sorted, as `serde_json` does without its
/// `preserve_order` feature.
pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Clone, Copy, Debug)]
enum N {
    PosInt(u64),
    /// Always negative.
    NegInt(i64),
    /// Always finite.
    Float(f64),
}

#[derive(Clone, Copy)]
pub struct Number(N);

impl Number {
    pub fn is_u64(&self) -> bool {
        matches!(self.0, N::PosInt(_))
    }

    pub fn is_i64(&self) -> bool {
        match self.0 {
            N::PosInt(v) => v <= i64::MAX as u64,
            N::NegInt(_) => true,
            N::Float(_) => false,
        }
    }

    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(v) => i64::try_from(v).ok(),
            N::NegInt(v) => Some(v),
            N::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(v) => v as f64,
            N::NegInt(v) => v as f64,
            N::Float(v) => v,
        })
    }

    /// `None` for NaN and the infinities, which JSON cannot hold.
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number(N::Float(v)))
    }

    pub(crate) fn write(&self, out: &mut String) {
        use fmt::Write;
        match self.0 {
            N::PosInt(v) => write!(out, "{v}"),
            N::NegInt(v) => write!(out, "{v}"),
            N::Float(v) => write!(out, "{v:?}"),
        }
        .expect("writing to a String cannot fail")
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (N::PosInt(a), N::PosInt(b)) => a == b,
            (N::NegInt(a), N::NegInt(b)) => a == b,
            (N::Float(a), N::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl fmt::Debug for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Number({self})")
    }
}

macro_rules! number_from_unsigned {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Number {
            fn from(v: $ty) -> Self {
                Number(N::PosInt(v as u64))
            }
        }
    )*};
}
number_from_unsigned!(u8, u16, u32, u64, usize);

macro_rules! number_from_signed {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Number {
            fn from(v: $ty) -> Self {
                if v < 0 {
                    Number(N::NegInt(v as i64))
                } else {
                    Number(N::PosInt(v as u64))
                }
            }
        }
    )*};
}
number_from_signed!(i8, i16, i32, i64, isize);

#[derive(Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    pub fn get_mut<I: Index>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
    pub fn is_boolean(&self) -> bool {
        matches!(self, Value::Bool(_))
    }
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }
    pub fn is_u64(&self) -> bool {
        matches!(self, Value::Number(n) if n.is_u64())
    }
    pub fn is_i64(&self) -> bool {
        matches!(self, Value::Number(n) if n.is_i64())
    }
    pub fn is_f64(&self) -> bool {
        matches!(self, Value::Number(n) if n.is_f64())
    }

    pub fn as_null(&self) -> Option<()> {
        self.is_null().then_some(())
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Leaves `Null` behind.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }

    /// RFC 6901 lookup: `""` is the whole document, `"/a/0"` descends.
    pub fn pointer(&self, pointer: &str) -> Option<&Value> {
        if pointer.is_empty() {
            return Some(self);
        }
        let mut cur = self;
        for token in pointer.strip_prefix('/')?.split('/') {
            let token = token.replace("~1", "/").replace("~0", "~");
            cur = match cur {
                Value::Object(m) => m.get(&token)?,
                Value::Array(a) => a.get(token.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }
}

/// Compact JSON; `{:#}` pretty-prints with two-space indents.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        crate::Serialize::write_json(self, &mut s);
        if f.alternate() {
            s = crate::json::prettify(&s);
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("Null"),
            Value::Bool(b) => write!(f, "Bool({b})"),
            Value::Number(n) => write!(f, "{n:?}"),
            Value::String(s) => write!(f, "String({s:?})"),
            Value::Array(a) => {
                f.write_str("Array ")?;
                f.debug_list().entries(a).finish()
            }
            Value::Object(m) => {
                f.write_str("Object ")?;
                f.debug_map().entries(m).finish()
            }
        }
    }
}

impl std::str::FromStr for Value {
    type Err = crate::Error;
    fn from_str(s: &str) -> Result<Value, crate::Error> {
        crate::json::parse(s)
    }
}

/// What can index a `Value`: `&str` / `String` into objects, `usize` into
/// arrays.
pub trait Index {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
    /// The slot `v[index] = ..` assigns to, created when absent.
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value;
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array()?.get(*self)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut()?.get_mut(*self)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        match v {
            Value::Array(a) => {
                let len = a.len();
                a.get_mut(*self)
                    .unwrap_or_else(|| panic!("index {self} out of an array of {len}"))
            }
            other => panic!("cannot index {} with a number", other.kind()),
        }
    }
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object()?.get(self)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut()?.get_mut(self)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        if v.is_null() {
            *v = Value::Object(Map::new());
        }
        match v {
            Value::Object(m) => m.entry(self.to_string()).or_insert(Value::Null),
            other => panic!("cannot index {} with a string", other.kind()),
        }
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(v)
    }
}

/// A missing key or a wrong kind reads as `Null`, as in `serde_json`.
impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: Index> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

macro_rules! value_from_number {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Self {
                Value::Number(Number::from(v))
            }
        }
    )*};
}
value_from_number!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::from(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::String(v.clone())
    }
}
impl From<Number> for Value {
    fn from(v: Number) -> Self {
        Value::Number(v)
    }
}
impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Self {
        Value::Object(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}
impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Null
    }
}
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

macro_rules! value_eq {
    ($($ty:ty => |$v:ident, $o:ident| $cmp:expr),* $(,)?) => {$(
        impl PartialEq<$ty> for Value {
            fn eq(&self, $o: &$ty) -> bool {
                let $v = self;
                $cmp
            }
        }
        impl PartialEq<Value> for $ty {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
value_eq!(
    str => |v, o| v.as_str() == Some(o),
    &str => |v, o| v.as_str() == Some(*o),
    String => |v, o| v.as_str() == Some(o.as_str()),
    bool => |v, o| v.as_bool() == Some(*o),
    u8 => |v, o| v.as_u64() == Some(*o as u64),
    u16 => |v, o| v.as_u64() == Some(*o as u64),
    u32 => |v, o| v.as_u64() == Some(*o as u64),
    u64 => |v, o| v.as_u64() == Some(*o),
    usize => |v, o| v.as_u64() == Some(*o as u64),
    i8 => |v, o| v.as_i64() == Some(*o as i64),
    i16 => |v, o| v.as_i64() == Some(*o as i64),
    i32 => |v, o| v.as_i64() == Some(*o as i64),
    i64 => |v, o| v.as_i64() == Some(*o),
    isize => |v, o| v.as_i64() == Some(*o as i64),
    f32 => |v, o| matches!(v, Value::Number(_)) && v.as_f64() == Some(*o as f64),
    f64 => |v, o| matches!(v, Value::Number(_)) && v.as_f64() == Some(*o),
);
