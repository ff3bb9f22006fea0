//! Offline stand-in for the parts of `serde` this workspace uses.
//!
//! The workspace only ever derives `Serialize` / `Deserialize` and only ever
//! drives them through `serde_json`, so the stand-in drops serde's generic
//! data model: [`Serialize`] writes compact JSON text (or builds a
//! [`Value`]) and [`Deserialize`] reads from a parsed [`Value`]. The JSON
//! that comes out follows serde_json's conventions (externally tagged enums
//! unless `#[serde(tag = ..)]`, newtypes as their inner value, integer map
//! keys as strings, non-finite floats as `null`, `Duration` as
//! `{secs, nanos}`), so text written by either implementation is read by
//! the other.

mod impls;
pub mod json;
mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Index, Map, Number, Value};

use std::fmt;

/// What went wrong while parsing or converting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }

    /// Prefixes the message with the place it happened at.
    pub fn at(self, place: impl fmt::Display) -> Self {
        Error {
            msg: format!("{place}: {}", self.msg),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

pub trait Serialize {
    /// Appends this value as compact JSON.
    fn write_json(&self, out: &mut String);

    fn to_value(&self) -> Value;

    /// This value as an object key: strings as they are, numbers and
    /// anything else by their JSON text.
    fn to_key(&self) -> String {
        match self.to_value() {
            Value::String(s) => s,
            other => other.to_string(),
        }
    }
}

pub trait Deserialize<'de>: Sized {
    fn from_value(v: Value) -> Result<Self, Error>;

    /// Reads an object key; integers override this to parse the string.
    fn from_key(key: String) -> Result<Self, Error> {
        Self::from_value(Value::String(key))
    }

    /// What an absent struct field becomes; only `Option` has an answer.
    fn missing_field(field: &'static str) -> Result<Self, Error> {
        Err(Error::custom(format_args!("missing field `{field}`")))
    }
}

pub mod ser {
    pub use crate::{Error, Serialize};
}

pub mod de {
    pub use crate::{Deserialize, Error};

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}

/// Helpers the derive macros expand to. Not an API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Map, Value};

    pub use crate::json::write_str;

    pub fn object(v: Value, ty: &'static str) -> Result<Map<String, Value>, Error> {
        match v {
            Value::Object(m) => Ok(m),
            other => Err(Error::custom(format_args!(
                "{ty}: expected an object, found {}",
                other.kind()
            ))),
        }
    }

    pub fn array(
        v: Value,
        ty: &'static str,
        len: usize,
    ) -> Result<std::vec::IntoIter<Value>, Error> {
        match v {
            Value::Array(a) if a.len() == len => Ok(a.into_iter()),
            Value::Array(a) => Err(Error::custom(format_args!(
                "{ty}: expected an array of {len}, found one of {}",
                a.len()
            ))),
            other => Err(Error::custom(format_args!(
                "{ty}: expected an array, found {}",
                other.kind()
            ))),
        }
    }

    pub fn field<'de, T: Deserialize<'de>>(
        m: &mut Map<String, Value>,
        name: &'static str,
    ) -> Result<T, Error> {
        match m.remove(name) {
            Some(v) => T::from_value(v).map_err(|e| e.at(name)),
            None => T::missing_field(name),
        }
    }

    pub fn field_or<'de, T: Deserialize<'de>>(
        m: &mut Map<String, Value>,
        name: &'static str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match m.remove(name) {
            Some(v) => T::from_value(v).map_err(|e| e.at(name)),
            None => Ok(default()),
        }
    }

    pub fn next<'de, T: Deserialize<'de>>(it: &mut std::vec::IntoIter<Value>) -> Result<T, Error> {
        T::from_value(it.next().expect("length checked by `array`"))
    }

    /// Splits an externally tagged enum value into `(variant, content)`.
    pub fn variant(v: Value, ty: &'static str) -> Result<(String, Option<Value>), Error> {
        match v {
            Value::String(s) => Ok((s, None)),
            Value::Object(m) if m.len() == 1 => {
                let (k, v) = m.into_iter().next().expect("one entry");
                Ok((k, Some(v)))
            }
            other => Err(Error::custom(format_args!(
                "{ty}: expected a variant name or a single-key object, found {}",
                other.kind()
            ))),
        }
    }

    pub fn tag(
        m: &mut Map<String, Value>,
        tag: &'static str,
        ty: &'static str,
    ) -> Result<String, Error> {
        match m.remove(tag) {
            Some(Value::String(s)) => Ok(s),
            Some(other) => Err(Error::custom(format_args!(
                "{ty}: tag `{tag}` must be a string, found {}",
                other.kind()
            ))),
            None => Err(Error::custom(format_args!("{ty}: missing tag `{tag}`"))),
        }
    }

    pub fn unknown_variant(ty: &'static str, name: &str) -> Error {
        Error::custom(format_args!("{ty}: unknown variant `{name}`"))
    }

    pub fn content(c: Option<Value>, ty: &'static str, variant: &str) -> Result<Value, Error> {
        c.ok_or_else(|| Error::custom(format_args!("{ty}::{variant}: expected content")))
    }

    pub fn no_content(c: Option<Value>, ty: &'static str, variant: &str) -> Result<(), Error> {
        match c {
            None | Some(Value::Null) => Ok(()),
            Some(_) => Err(Error::custom(format_args!(
                "{ty}::{variant}: unit variant takes no content"
            ))),
        }
    }

    /// Writes `value` with `tag: name` merged in (internally tagged newtype
    /// variant). `value` must serialize as an object.
    pub fn tagged_value(tag: &'static str, name: &'static str, value: Value) -> Value {
        let mut m = match value {
            Value::Object(m) => m,
            other => panic!(
                "internally tagged newtype variant `{name}` must hold a struct or map, found {}",
                other.kind()
            ),
        };
        m.insert(tag.to_string(), Value::String(name.to_string()));
        Value::Object(m)
    }
}
