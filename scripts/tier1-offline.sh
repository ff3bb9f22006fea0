#!/usr/bin/env bash
# Tier-1 where there is no registry: runs the root workspace's own tests
# against the stand-ins under `perf/offline/` and prints one sorted
#
#   <file>::<test> ok|FAILED|ignored
#
# line per test, so "no worse than the parent" is a diff of two outputs
# (the committed one is `TIER1_OFFLINE.txt`):
#
#   bash scripts/tier1-offline.sh > TIER1_OFFLINE.txt
#
# It patches every crates.io dependency from the command line (the root
# `Cargo.toml` stays as it is) to a scratch copy of `perf/offline/` — the
# tracked tree is read, never written; the copy's `Value` also compares by
# reference with numbers and `bool`, as serde_json's does and unit tests
# here write (`counts["plot"] == 2`) — plus two crates that have no
# stand-in: an empty `criterion` and a type-checking shell of `proptest`
# whose `proptest!` expands to nothing, so property tests compile away and
# only appear in CI's list. The scratch crates live under the target
# directory and are replaced only when their content changes, so a second
# run rebuilds nothing. Leaves `/target` and `/Cargo.lock`, both ignored.
# Progress goes to stderr; the exit status is cargo's worst.
set -uo pipefail
cd "$(dirname "$0")/.."

PACKAGES=(xtract-core xtract-extractors xtract-faas xtract-index xtract-obs xtract-tika xtract)
STANDINS=(serde serde_json bytes rand parking_lot crossbeam crossbeam-channel rayon)

LOGS=$(mktemp -d)
trap 'rm -rf "$LOGS"' EXIT
KEEP="${CARGO_TARGET_DIR:-target}/tier1-offline"
case "$KEEP" in /*) ;; *) KEEP="$PWD/$KEEP" ;; esac
S="$KEEP.new"
rm -rf "$S"
mkdir -p "$S"
cp -rp perf/offline "$S/offline"
rm -rf "$S/offline/target" "$S/offline/Cargo.lock"
cat >> "$S/offline/serde/src/value.rs" <<'RS'

macro_rules! ref_value_eq {
    ($($ty:ty)*) => {$(
        impl PartialEq<$ty> for &Value {
            fn eq(&self, other: &$ty) -> bool {
                **self == *other
            }
        }
    )*};
}
ref_value_eq!(bool u8 u16 u32 u64 usize i8 i16 i32 i64 isize f32 f64);
RS

mkdir -p "$S/criterion/src" "$S/proptest/src"
printf '[package]\nname = "criterion"\nversion = "0.5.99"\nedition = "2021"\n' > "$S/criterion/Cargo.toml"
: > "$S/criterion/src/lib.rs"
printf '[package]\nname = "proptest"\nversion = "1.99.0"\nedition = "2021"\n' > "$S/proptest/Cargo.toml"
cat > "$S/proptest/src/lib.rs" <<'RS'
//! The part of proptest's surface this workspace names *outside*
//! `proptest!` blocks, as types that check and never run.
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod strategy {
    use super::*;
    pub trait Strategy: Sized {
        type Value;
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
            Map(self, f)
        }
    }
    pub struct Map<S, F>(pub S, pub F);
    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
    }
    pub struct Just<T>(pub T);
    impl<T> Strategy for Just<T> {
        type Value = T;
    }
    pub struct Any<T>(pub PhantomData<T>);
    impl<T> Strategy for Any<T> {
        type Value = T;
    }
    impl Strategy for &str {
        type Value = String;
    }
    macro_rules! ranges {
        ($($t:ty)*) => {$(
            impl Strategy for Range<$t> { type Value = $t; }
            impl Strategy for RangeInclusive<$t> { type Value = $t; }
        )*};
    }
    ranges!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize f32 f64);
    macro_rules! tuples {
        ($(($($s:ident)+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) { type Value = ($($s::Value,)+); }
        )*};
    }
    tuples!((A) (A B) (A B C) (A B C D) (A B C D E) (A B C D E F) (A B C D E F G));
}

pub mod arbitrary {
    pub fn any<T>() -> crate::strategy::Any<T> {
        crate::strategy::Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use super::*;
    pub struct SizeRange;
    impl From<usize> for SizeRange { fn from(_: usize) -> Self { SizeRange } }
    impl From<Range<usize>> for SizeRange { fn from(_: Range<usize>) -> Self { SizeRange } }
    impl From<RangeInclusive<usize>> for SizeRange { fn from(_: RangeInclusive<usize>) -> Self { SizeRange } }
    pub struct VecStrategy<S>(pub S);
    impl<S: strategy::Strategy> strategy::Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
    }
    pub fn vec<S: strategy::Strategy>(element: S, _size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy(element)
    }
}

pub mod option {
    pub struct OptionStrategy<S>(pub S);
    impl<S: crate::strategy::Strategy> crate::strategy::Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
    }
    pub fn of<S: crate::strategy::Strategy>(s: S) -> OptionStrategy<S> {
        OptionStrategy(s)
    }
}

pub mod test_runner {
    #[derive(Default)]
    pub struct Config {
        pub cases: u32,
    }
    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[macro_export]
macro_rules! proptest { ($($body:tt)*) => {}; }
#[macro_export]
macro_rules! prop_oneof {
    ($first:expr $(, $rest:expr)* $(,)?) => {{ $( let _ = $rest; )* $first }};
}
#[macro_export]
macro_rules! prop_assert { ($($t:tt)*) => { assert!($($t)*) }; }
#[macro_export]
macro_rules! prop_assert_eq { ($($t:tt)*) => { assert_eq!($($t)*) }; }
#[macro_export]
macro_rules! prop_assume { ($($t:tt)*) => {}; }
RS
if diff -rq "$S" "$KEEP" > /dev/null 2>&1; then
    rm -rf "$S"
else
    rm -rf "$KEEP"
    mv "$S" "$KEEP"
fi
S="$KEEP"

PATCH=()
for d in "${STANDINS[@]}"; do
    PATCH+=(--config "patch.crates-io.$d.path='$S/offline/$d'")
done
PATCH+=(--config "patch.crates-io.proptest.path='$S/proptest'")
PATCH+=(--config "patch.crates-io.criterion.path='$S/criterion'")

# Where a package's files live, for the `<file>` half of each line.
dir_of() {
    case "$1" in
        xtract) echo "" ;;
        *) echo "crates/${1#xtract-}/" ;;
    esac
}

status=0
for pkg in "${PACKAGES[@]}"; do
    echo "tier1-offline: $pkg" >&2
    out="$LOGS/$pkg.log"
    cargo test --release --offline --no-fail-fast -p "$pkg" "${PATCH[@]}" > "$out" 2>&1
    rc=$?
    [ "$rc" -gt "$status" ] && status=$rc
    awk -v dir="$(dir_of "$pkg")" '
        $1 == "Running" {
            file = ($2 == "unittests") ? $3 : $2
            next
        }
        $1 == "Doc-tests" { file = "doc"; next }
        $1 == "test" && $(NF - 1) == "..." && ($NF == "ok" || $NF == "FAILED" || $NF == "ignored") {
            name = $2
            for (i = 3; i < NF - 1; i++) name = name " " $i
            print dir file "::" name " " $NF
        }
    ' "$out" > "$LOGS/$pkg.lines"
    if [ "$rc" -ne 0 ] && ! grep -q ' FAILED$' "$LOGS/$pkg.lines"; then
        # Cargo failed and no test did: show why instead of an empty list.
        tail -n 40 "$out" >&2
        echo "$(dir_of "$pkg")(build)::compile FAILED" >> "$LOGS/$pkg.lines"
    fi
done
sort -u "$LOGS"/*.lines
exit "$status"
