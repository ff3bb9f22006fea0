//! Offline stand-in for the parts of `rand` 0.8 this workspace uses.
//!
//! `SmallRng` is xoshiro256++ seeded through SplitMix64, the same
//! construction the real crate uses on 64-bit targets, but the derived
//! sampling (`gen_range`, `gen_bool`, float conversion) is this file's own:
//! streams are deterministic per seed, not bit-identical to crates.io rand.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let raw = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&raw[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let raw = z.to_le_bytes();
            chunk.copy_from_slice(&raw[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    /// The stand-in has one generator; `StdRng` is the same one.
    pub type StdRng = SmallRng;

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point of xoshiro.
                return Self::seed_from_u64(0);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod distributions {
    use super::Rng;
    use std::marker::PhantomData;

    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;

        fn sample_iter<R: Rng>(self, rng: R) -> DistIter<Self, R, T>
        where
            Self: Sized,
        {
            DistIter {
                dist: self,
                rng,
                _item: PhantomData,
            }
        }
    }

    impl<T, D: Distribution<T>> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (*self).sample(rng)
        }
    }

    pub struct DistIter<D, R, T> {
        dist: D,
        rng: R,
        _item: PhantomData<T>,
    }

    impl<D: Distribution<T>, R: Rng, T> Iterator for DistIter<D, R, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            Some(self.dist.sample(&mut self.rng))
        }
    }

    /// Full-range integers, `[0, 1)` floats, fair booleans.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($ty:ty),*) => {$(
            impl Distribution<$ty> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<u128> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 random mantissa bits: uniform on [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Distribution<char> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> char {
            loop {
                if let Some(c) = char::from_u32(rng.next_u32() % 0x11_0000) {
                    return c;
                }
            }
        }
    }

    macro_rules! standard_array {
        ($($n:expr),*) => {$(
            impl<T> Distribution<[T; $n]> for Standard
            where
                Standard: Distribution<T>,
            {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> [T; $n] {
                    std::array::from_fn(|_| self.sample(rng))
                }
            }
        )*};
    }
    standard_array!(1, 2, 3, 4, 8, 16, 32);

    macro_rules! standard_tuple {
        ($($name:ident),+) => {
            impl<$($name),+> Distribution<($($name,)+)> for Standard
            where
                $(Standard: Distribution<$name>),+
            {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ($($name,)+) {
                    ($(<Standard as Distribution<$name>>::sample(self, rng),)+)
                }
            }
        };
    }
    standard_tuple!(A);
    standard_tuple!(A, B);
    standard_tuple!(A, B, C);

    pub mod uniform {
        pub use crate::{SampleRange, SampleUniform};
    }
}

/// Types `gen_range` can draw.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform on `[lo, hi)`; `lo < hi` is the caller's to check.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform on `[lo, hi]`; `lo <= hi` is the caller's to check.
    fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Uniform on `[0, span)` by widening multiply with rejection (Lemire).
fn below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = (rng.next_u64() as u128) * (span as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($ty:ty => $wide:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                (lo as $wide).wrapping_add(below(span, rng) as $wide) as $ty
            }
            fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $ty;
                }
                (lo as $wide).wrapping_add(below(span, rng) as $wide) as $ty
            }
        }
    )*};
}
uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

macro_rules! uniform_float {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                loop {
                    let unit: $ty = distributions::Distribution::sample(&distributions::Standard, rng);
                    let v = lo + (hi - lo) * unit;
                    // Rounding can land on `hi`; draw again.
                    if v < hi {
                        return v;
                    }
                }
            }
            fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let unit: $ty = distributions::Distribution::sample(&distributions::Standard, rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Range arguments of `gen_range`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    fn is_empty(&self) -> bool;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
    // A range with a NaN bound is empty, as in the real crate.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn is_empty(&self) -> bool {
        !(self.start < self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_closed(lo, hi, rng)
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn is_empty(&self) -> bool {
        !(self.start() <= self.end())
    }
}

pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p} is outside range [0.0, 1.0]"
        );
        let unit: f64 = self.gen();
        unit < p
    }

    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        below(denominator as u64, self) < numerator as u64
    }

    fn sample<T, D: distributions::Distribution<T>>(&mut self, dist: D) -> T {
        dist.sample(self)
    }

    fn sample_iter<T, D: distributions::Distribution<T>>(
        self,
        dist: D,
    ) -> distributions::DistIter<D, Self, T>
    where
        Self: Sized,
    {
        dist.sample_iter(self)
    }

    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::Rng;

    pub trait SliceRandom {
        type Item;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..10_000 {
            let v = a.gen_range(-40..40);
            assert!((-40..40).contains(&v));
            let w: usize = a.gen_range(0..=3);
            assert!(w <= 3);
            let f = a.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(f > 0.0 && f < 1.0);
            let u: f64 = a.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_covers_every_value_about_evenly() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut counts = [0u32; 6];
        for _ in 0..60_000 {
            counts[r.gen_range(0..6usize)] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }
}
