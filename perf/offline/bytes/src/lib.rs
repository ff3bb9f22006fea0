//! Offline stand-in for the parts of `bytes` this workspace uses: a
//! cheaply clonable immutable [`Bytes`], a growable [`BytesMut`], and the
//! little-endian accessors of [`Buf`] / [`BufMut`].

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// Immutable byte buffer; `clone` and `slice` share the allocation.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Self::from_static(b"")
    }

    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound::*;
        let lo = match range.start_bound() {
            Included(&n) => n,
            Excluded(&n) => n + 1,
            Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Included(&n) => n + 1,
            Excluded(&n) => n,
            Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            repr: self.repr.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        };
        &whole[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Self::from(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.as_slice().to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        Vec::from(self).into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// Growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s)
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

macro_rules! buf_get {
    ($($name:ident, $name_be:ident -> $ty:ty),*) => {$(
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        }
        fn $name_be(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_be_bytes(raw)
        }
    )*};
}

/// Read cursor over a byte source. Accessors panic when too few bytes remain,
/// as the real crate's do.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get!(
        get_u16_le, get_u16 -> u16,
        get_u32_le, get_u32 -> u32,
        get_u64_le, get_u64 -> u64,
        get_i32_le, get_i32 -> i32,
        get_i64_le, get_i64 -> i64,
        get_f32_le, get_f32 -> f32,
        get_f64_le, get_f64 -> f64
    );
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

macro_rules! buf_put {
    ($($name:ident, $name_be:ident <- $ty:ty),*) => {$(
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }
        fn $name_be(&mut self, v: $ty) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// Append-only byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put!(
        put_u16_le, put_u16 <- u16,
        put_u32_le, put_u32 <- u32,
        put_u64_le, put_u64 <- u64,
        put_i32_le, put_i32 <- i32,
        put_i64_le, put_i64 <- i64,
        put_f32_le, put_f32 <- f32,
        put_f64_le, put_f64 <- f64
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_and_compare_by_content() {
        let b = Bytes::from(b"hello world".to_vec());
        let s = b.slice(6..);
        assert_eq!(&s[..], b"world");
        assert_eq!(s, Bytes::from_static(b"world"));
        assert_eq!(b.len(), 11);
    }

    #[test]
    fn buf_roundtrip_le() {
        let mut m = BytesMut::new();
        m.put_slice(b"AB");
        m.put_u16_le(0x1234);
        m.put_u32_le(7);
        m.put_u64_le(u64::MAX - 1);
        let frozen = m.freeze();
        let mut cur: &[u8] = &frozen;
        cur.advance(2);
        assert_eq!(cur.get_u16_le(), 0x1234);
        assert_eq!(cur.get_u32_le(), 7);
        assert_eq!(cur.get_u64_le(), u64::MAX - 1);
        assert!(cur.is_empty());
    }
}
