//! Offline stand-in for `proptest`.
//!
//! Supports the subset of the proptest API this workspace uses: the
//! [`proptest!`] macro (with an optional `#![proptest_config(..)]` header),
//! `prop_assert*` / `prop_assume!`, range and tuple strategies, `Just`,
//! `prop_map` / `prop_flat_map`, and `collection::vec`. Cases are generated
//! from a deterministic per-test RNG; there is no shrinking — a failing
//! case reports its case index and assertion message instead.

#![forbid(unsafe_code)]

/// Test-runner configuration.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// How many cases each property runs, and a placeholder for future
    /// options.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    /// Cases per property when `PROPTEST_CASES` is unset or unparsable.
    const DEFAULT_CASES: u32 = 64;

    impl Default for Config {
        /// Runs `PROPTEST_CASES` cases when that variable holds a number,
        /// as real proptest does, and 64 otherwise. An explicit
        /// [`Config::with_cases`] ignores the variable.
        fn default() -> Self {
            Self {
                cases: cases_from(std::env::var("PROPTEST_CASES").ok().as_deref()),
            }
        }
    }

    /// The case count a `PROPTEST_CASES` value asks for.
    pub(crate) fn cases_from(var: Option<&str>) -> u32 {
        var.and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_CASES)
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// The RNG handed to strategies.
    #[derive(Debug)]
    pub struct TestRng(pub StdRng);

    impl TestRng {
        /// Deterministic per-test, per-case RNG.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for byte in test_name.bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self(StdRng::seed_from_u64(
                hash ^ ((case as u64) << 32 | case as u64),
            ))
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through a function.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, map }
        }

        /// Generates a value, then generates from the strategy the function
        /// returns for it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, flat: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, flat }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        map: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.map)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        flat: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.flat)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.start..self.end)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.0.gen_range(self.start..self.end)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A: 0, B: 1);
        (A: 0, B: 1, C: 2);
        (A: 0, B: 1, C: 2, D: 3);
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self {
                lo: exact,
                hi_inclusive: exact,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "empty size range");
            Self {
                lo: range.start,
                hi_inclusive: range.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(range: RangeInclusive<usize>) -> Self {
            let (lo, hi) = range.into_inner();
            assert!(lo <= hi, "empty size range");
            Self {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// Generates `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.0.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The glob import every property-test module uses.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests. Each function runs `Config::cases` times with
/// deterministically generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$meta:meta])+
        fn $name:ident($($arg:pat_param in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            for case in 0..config.cases {
                let mut __proptest_rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case);
                $(
                    let $arg = $crate::strategy::Strategy::generate(
                        &$strategy,
                        &mut __proptest_rng,
                    );
                )+
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(message) = outcome {
                    panic!("property {} failed at case {}: {}", stringify!($name), case, message);
                }
            }
        }
    )*};
}

/// Asserts a condition inside a property, failing the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: `{:?}` == `{:?}`", l, r),
            );
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` == `{:?}`: {}", l, r, ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l != r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                l,
                r
            ));
        }
    }};
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0.0f64..10.0, k in 1usize..5) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((1..5).contains(&k));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in crate::collection::vec(0u64..100, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn map_and_flat_map_compose(
            pair in (1usize..4).prop_flat_map(|n| crate::collection::vec(0.0f64..1.0, n).prop_map(move |v| (n, v)))
        ) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
        }
    }

    proptest! {
        #![proptest_config(crate::test_runner::Config::with_cases(7))]
        #[test]
        fn config_header_is_accepted(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn proptest_cases_sets_the_default_and_with_cases_wins() {
        use crate::test_runner::{cases_from, Config};
        assert_eq!(cases_from(Some("1024")), 1024);
        assert_eq!(cases_from(Some(" 8 ")), 8);
        assert_eq!(cases_from(Some("many")), 64);
        assert_eq!(cases_from(None), 64);
        assert_eq!(Config::with_cases(7).cases, 7);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_index() {
        proptest! {
            #[allow(unused)]
            fn inner(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner();
    }
}
