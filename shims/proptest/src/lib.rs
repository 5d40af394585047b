//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the
//! [`proptest!`] macro over functions whose arguments are drawn from range
//! strategies, [`any`], tuples, and [`collection::vec`]; plus
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!`.
//!
//! Unlike real proptest there is no shrinking: inputs are sampled from a
//! deterministic per-test generator (seeded from the test name), so every
//! run of a given binary exercises the same cases and failures reproduce.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 test-input generator.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Generator seeded from a test name (FNV-1a of the bytes).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::new(h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run configuration (`with_cases` mirrors proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of sampled cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` samples per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A source of sampled values.
pub trait Strategy {
    /// The sampled type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps sampled values through `f` (proptest's combinator of the same
    /// name).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy always yielding a clone of one value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy mapping another strategy's values (see [`Strategy::prop_map`]).
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

/// One boxed sampling arm of a [`Union`] (built by [`prop_oneof!`]).
pub type OneofArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Strategy choosing uniformly among boxed arms (built by [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<OneofArm<V>>,
}

impl<V> Union<V> {
    /// Union over the given sampling arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<OneofArm<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let idx = (rng.next_u64() % self.arms.len() as u64) as usize;
        (self.arms[idx])(rng)
    }
}

/// Boxes one [`prop_oneof!`] arm (implementation detail of the macro).
#[doc(hidden)]
pub fn __oneof_arm<S>(s: S) -> OneofArm<S::Value>
where
    S: Strategy + 'static,
{
    Box::new(move |rng| s.sample(rng))
}

/// Uniform choice among strategies of a common value type (unweighted subset
/// of proptest's macro).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::__oneof_arm($arm)),+])
    };
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let x = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + x) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let x = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + x) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

/// Strategy for "any value of `T`" (see [`any`]).
pub struct Any<T>(PhantomData<T>);

/// Builds the [`Any`] strategy for `T`.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

/// Types [`any`] can generate.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Bounded arbitrary floats: plenty for the models under test.
        (rng.next_f64() - 0.5) * 2e12
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: a fixed size or a range.
    pub trait IntoLenRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            Strategy::sample(self, rng)
        }
    }

    impl IntoLenRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            Strategy::sample(self, rng)
        }
    }

    /// Strategy producing `Vec`s of `element` samples.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `Vec` strategy with the given element strategy and length spec.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Any,
        Arbitrary, Just, ProptestConfig, Strategy, TestRng,
    };
}

/// Defines deterministic sampled property tests (see crate docs). As in
/// proptest, the macro adds no `#[test]` of its own: each function carries
/// the caller's attributes, so a property is registered once, by the
/// `#[test]` written on it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current sampled case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Ranges stay in bounds.
        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in -4i64..=4, f in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        /// Vec strategies honor their length spec.
        #[test]
        fn vec_lengths(xs in collection::vec(0u8..4, 1..6), ys in collection::vec(any::<bool>(), 3usize)) {
            prop_assert!((1..6).contains(&xs.len()));
            prop_assert_eq!(ys.len(), 3);
            prop_assume!(!xs.is_empty());
            prop_assert!(xs.iter().all(|&x| x < 4));
        }

        /// Tuple strategies sample both sides.
        #[test]
        fn tuples(pairs in collection::vec((0u64..256, any::<bool>()), 0..8)) {
            for (v, _b) in &pairs {
                prop_assert!(*v < 256);
            }
        }

        /// `prop_oneof` draws from every arm; `prop_map`/`Just` compose.
        #[test]
        fn oneof_and_map(xs in collection::vec(
            prop_oneof![
                Just(0u64),
                (10u64..20).prop_map(|v| v * 2),
            ],
            32,
        )) {
            for &x in &xs {
                prop_assert!(x == 0 || (20..40).contains(&x));
            }
            prop_assert!(xs.contains(&0));
            prop_assert!(xs.iter().any(|&x| x != 0));
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
