//! A minimal, dependency-free, offline drop-in for the subset of the
//! [proptest](https://crates.io/crates/proptest) API this workspace uses.
//!
//! The build environment has no network access and no vendored registry, so
//! the real crate cannot be fetched. This shim implements the same surface —
//! [`Strategy`](strategy::Strategy) with `prop_map`, range/tuple/`Just`/`vec`/`select`
//! strategies, the [`proptest!`] macro, and `prop_assert*` — with a
//! deterministic splitmix/xorshift RNG seeded from the test name, so runs
//! are reproducible. It does **not** implement shrinking: a failing case
//! reports the case number and message only.

/// Test-runner types: configuration, RNG, and failure reporting.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// A property failure raised by `prop_assert!` and friends.
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Create a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic RNG (splitmix64 seeding, xorshift64* stream).
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Seed deterministically from a test name.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            // splitmix64 finalizer so nearby names diverge.
            h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            TestRng((h ^ (h >> 31)) | 1)
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in [0, 1).
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinator/primitive strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random values for property tests.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = (rng.next_u64() as u128) % span;
                    (self.start as i128 + draw as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let draw = (rng.next_u64() as u128) % span;
                    (lo as i128 + draw as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            self.start + rng.next_f64() as f32 * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A length specification: a fixed size or a range of sizes.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for vectors of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo).max(1) as u64;
            let n = self.size.lo + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `vec(strategy, len)` — vectors with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Sampling strategies (`prop::sample::select`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy that picks one element of a fixed list.
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(!self.0.is_empty(), "select from empty list");
            self.0[(rng.next_u64() % self.0.len() as u64) as usize].clone()
        }
    }

    /// Uniformly select one of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select(options)
    }
}

/// Module alias so `prop::collection::vec` / `prop::sample::select` resolve
/// after `use proptest::prelude::*`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Assert a condition inside a `proptest!` body; failure aborts the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: {:?} != {:?} ({} vs {})",
            lhs,
            rhs,
            stringify!($a),
            stringify!($b)
        );
    }};
}

/// Assert two expressions are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: both sides equal {:?} ({} vs {})",
            lhs,
            stringify!($a),
            stringify!($b)
        );
    }};
}

/// Declare property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that samples its strategies for `config.cases`
/// deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for case in 0..config.cases {
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> = {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })()
                };
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest '{}' failed at case {}/{}: {}",
                        stringify!($name), case + 1, config.cases, e
                    );
                }
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = Strategy::sample(&(-20i32..20), &mut rng);
            assert!((-20..20).contains(&v));
            let u = Strategy::sample(&(1usize..16), &mut rng);
            assert!((1..16).contains(&u));
            let f = Strategy::sample(&(-3.0f64..3.0), &mut rng);
            assert!((-3.0..3.0).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_tuples_and_vecs(
            (a, b) in (0i32..10, 0i32..10),
            v in prop::collection::vec(0u64..5, 1..4),
            s in prop::sample::select(vec![2i32, 4, 8]),
        ) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(s == 2 || s == 4 || s == 8);
            prop_assert_eq!(a + b, b + a);
        }
    }
}
