//! A deterministic, dependency-free property-testing shim.
//!
//! Mirrors the fragment of the `proptest` crate API used by this
//! workspace. A [`Strategy`] is anything that can generate a value from
//! a [`TestRng`]; the [`proptest!`](crate::proptest!) macro expands each
//! property into a plain `#[test]` that runs `cases` seeded generations
//! and reports the failing seed and inputs on the first counterexample.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Run-time configuration for a `proptest!` block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Accepted for source compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// Deterministic generator (SplitMix64). Seeded per test case so any
/// failure is reproducible from the reported seed alone.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform value in `0..bound` for spans wider than `u64`.
    pub fn below_u128(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        wide % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator. The `Value` associated type matches the real
/// proptest API so `impl Strategy<Value = T>` return types port over.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a full-domain uniform generator, for [`any`].
pub trait Arbitrary {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over the full domain of `T`.
pub struct Any<T>(PhantomData<T>);

/// Generates any value of `T` uniformly.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.below_u128(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                (lo + rng.below_u128((hi - lo + 1) as u128) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// One boxed alternative of a [`Union`].
type UnionArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Uniform choice between boxed alternative strategies; built by
/// [`prop_oneof!`](crate::prop_oneof).
pub struct Union<V> {
    arms: Vec<UnionArm<V>>,
}

impl<V> Union<V> {
    /// Creates an empty union (the macro adds arms).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Union { arms: Vec::new() }
    }

    /// Adds one alternative.
    pub fn arm<S>(mut self, strategy: S) -> Self
    where
        S: Strategy<Value = V> + 'static,
    {
        self.arms.push(Box::new(move |rng| strategy.generate(rng)));
        self
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(!self.arms.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rng.below(self.arms.len() as u64) as usize;
        (self.arms[idx])(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` strategy over `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Executes `cases` seeded runs of one property, panicking with a
/// reproducible seed + input report on the first failure. Used by the
/// expansion of [`proptest!`](crate::proptest!); not called directly.
pub fn run_cases<F>(cfg: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), String>,
{
    let cases = std::env::var("SWALLOW_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cfg.cases);
    let base_seed = std::env::var("SWALLOW_PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fnv1a(name.as_bytes()));
    for i in 0..cases {
        let seed = base_seed.wrapping_add((i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut rng = TestRng::seed_from(seed);
        if let Err(msg) = case(&mut rng) {
            panic!("property `{name}` failed at case {i}/{cases} (seed {seed:#018x}):\n    {msg}");
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Glob-import surface matching `proptest::prelude::*`.
pub mod prelude {
    pub use super::{any, Arbitrary, Just, ProptestConfig, Strategy, TestRng};
    // Re-export the module itself so `proptest::collection::vec(..)`
    // paths keep working after the one-line import change, plus the
    // macros (both namespaces of the name `proptest` resolve here).
    pub use crate::proptest;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof};
}

/// Asserts a condition inside a `proptest!` body, failing the case (with
/// its inputs) rather than panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)*));
        }
    };
}

/// Equality assertion for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                left, right
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`\n  {}",
                left, right, ::std::format!($($fmt)*)
            ));
        }
    }};
}

/// Inequality assertion for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `left != right`\n  both: `{:?}`",
                left
            ));
        }
    }};
}

/// Skips the current case when an assumption does not hold. (The real
/// proptest regenerates; the shim counts the case as vacuously passing,
/// which is adequate at our assumption densities.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::proptest::Union::new()$(.arm($arm))+
    };
}

/// Declares property tests. Supports the `proptest` crate's surface
/// syntax: an optional `#![proptest_config(..)]` header followed by
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = ($crate::proptest::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::proptest::ProptestConfig = $cfg;
            $crate::proptest::run_cases(__cfg, stringify!($name), |__rng| {
                $(let $arg = $crate::proptest::Strategy::generate(&($strat), __rng);)+
                let mut __inputs = ::std::string::String::new();
                $(__inputs.push_str(&::std::format!(
                    "{} = {:?}; ", stringify!($arg), &$arg
                ));)+
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        || -> ::std::result::Result<(), ::std::string::String> {
                            $body
                            ::std::result::Result::Ok(())
                        },
                    ),
                );
                match __outcome {
                    ::std::result::Result::Ok(res) => {
                        res.map_err(|e| ::std::format!("{e}\n    inputs: {__inputs}"))
                    }
                    ::std::result::Result::Err(payload) => {
                        ::std::eprintln!("proptest case panicked; inputs: {__inputs}");
                        ::std::panic::resume_unwind(payload);
                    }
                }
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from(7);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(-5i16..=5), &mut rng);
            assert!((-5..=5).contains(&w));
            let f = Strategy::generate(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn full_width_inclusive_ranges_work() {
        let mut rng = TestRng::seed_from(11);
        let mut any_negative = false;
        for _ in 0..64 {
            let v = Strategy::generate(&((i16::MIN as i32)..=(i16::MAX as i32)), &mut rng);
            assert!(v >= i16::MIN as i32 && v <= i16::MAX as i32);
            any_negative |= v < 0;
        }
        assert!(any_negative, "full-width range never went negative");
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = TestRng::seed_from(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[Strategy::generate(&s, &mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = super::collection::vec((any::<u32>(), 0u64..9), 1..20);
        let a: Vec<_> = {
            let mut rng = TestRng::seed_from(42);
            Strategy::generate(&strat, &mut rng)
        };
        let b: Vec<_> = {
            let mut rng = TestRng::seed_from(42);
            Strategy::generate(&strat, &mut rng)
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The macro itself: args bind, assume skips, asserts pass.
        #[test]
        fn macro_roundtrip(x in 0u32..100, pair in (1usize..4, any::<bool>())) {
            prop_assume!(x != 99);
            prop_assert!(x < 99);
            prop_assert_eq!(pair.0, pair.0);
            prop_assert_ne!(pair.0, 0usize);
        }
    }
}
