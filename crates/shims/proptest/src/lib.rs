//! Offline shim for the `proptest` crate.
//!
//! Implements the property-testing surface this workspace uses — the
//! [`proptest!`] macro, range/collection/`Just`/`prop_map`/
//! `prop_flat_map` strategies, `prop_assert*`/`prop_assume!` and
//! [`ProptestConfig`] — on a deterministic RNG. Differences from the
//! real crate, accepted for an offline build:
//!
//! * **no shrinking** — a failing case reports its inputs via `Debug`
//!   formatting of the assertion message but is not minimized;
//! * **no persistence** — there is no failure regression file; runs are
//!   deterministic per test name instead, so a failure always
//!   reproduces;
//! * `btree_set` reaches its minimum size by redrawing duplicates a
//!   bounded number of times rather than by rejection sampling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration (the `cases` knob only).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is redrawn.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Outcome of one test-case execution.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic source strategies draw from.
pub struct TestRng(StdRng);

impl TestRng {
    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.gen()
    }

    /// Uniform draw from a half-open `usize` range.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.0.gen_range(range)
    }

    /// The underlying generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// A generator of test-case inputs.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a second strategy from each generated value and draws from
    /// it (dependent generation).
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (API compatibility; rarely needed here).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A boxed, dynamically dispatched strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

trait DynStrategy {
    type Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
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

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f64, usize, u8, u16, u32, u64, i32, i64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (`prop::collection` in the real crate).
pub mod collection {
    use super::*;

    /// An inclusive size window for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            Self { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty collection size range");
            Self { lo, hi }
        }
    }

    impl SizeRange {
        fn draw(&self, rng: &mut TestRng) -> usize {
            if self.lo == self.hi {
                self.lo
            } else {
                rng.usize_in(self.lo..self.hi + 1)
            }
        }
    }

    /// Generates `Vec`s of values from `elem` with a length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    /// Generates `BTreeSet`s from `elem` with a target size in `size`.
    pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { elem, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.draw(rng);
            let mut set = BTreeSet::new();
            // Duplicates do not grow the set; bound the redraws so a
            // narrow element domain cannot loop forever.
            let mut attempts = 0;
            while set.len() < n && attempts < 10 * n + 20 {
                set.insert(self.elem.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Everything a test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };

    /// The `prop` path alias (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Runs `cases` accepted cases of `test` on inputs drawn from
/// `strategy`, panicking on the first failure.
///
/// The RNG seed derives from the test name, so a given property runs
/// the same inputs on every invocation (failures always reproduce).
pub fn run<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: S,
    mut test: impl FnMut(S::Value) -> TestCaseResult,
) {
    let mut rng = TestRng(StdRng::seed_from_u64(fnv1a(name.as_bytes())));
    let mut accepted: u32 = 0;
    let mut rejected: u64 = 0;
    let max_rejects = 20 * config.cases as u64 + 1000;
    while accepted < config.cases {
        let value = strategy.generate(&mut rng);
        match test(value) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "property `{name}`: prop_assume! rejected {rejected} inputs \
                         (accepted only {accepted}/{} cases)",
                        config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("property `{name}` failed at case {accepted}: {msg}");
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Declares property tests. Mirrors `proptest::proptest!`:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let strategy = ($($strat,)+);
                $crate::run(&config, stringify!($name), strategy, |($($arg,)+)| {
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts inside a property; failure fails the case with its inputs'
/// context rather than unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} ({})", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($a), stringify!($b), left, right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}): {}",
                stringify!($a), stringify!($b), left, right, format!($($fmt)+)
            )));
        }
    }};
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left != right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($a),
                stringify!($b),
                left
            )));
        }
    }};
}

/// Rejects the current inputs; the runner redraws without counting the
/// case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(0.0f64..1.0, 2..=5)) {
            prop_assert!((2..=5).contains(&v.len()));
            for x in &v {
                prop_assert!((0.0..1.0).contains(x));
            }
        }

        #[test]
        fn flat_map_links_values(pair in (1usize..6).prop_flat_map(|n| (Just(n), prop::collection::vec(0u8..4, n)))) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn assume_rejects_cleanly(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }

        #[test]
        fn btree_set_reaches_min_size(s in prop::collection::btree_set(0u32..1000, 3..6)) {
            prop_assert!(s.len() >= 3 && s.len() <= 5);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        crate::run(&ProptestConfig::with_cases(8), "always_fails", 0u32..10, |_| {
            Err(crate::TestCaseError::Fail("nope".into()))
        });
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = Vec::new();
        crate::run(&ProptestConfig::with_cases(16), "det", 0u32..1000, |v| {
            a.push(v);
            Ok(())
        });
        let mut b = Vec::new();
        crate::run(&ProptestConfig::with_cases(16), "det", 0u32..1000, |v| {
            b.push(v);
            Ok(())
        });
        assert_eq!(a, b);
    }
}
