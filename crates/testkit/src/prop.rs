//! Minimal property-testing harness: generators, combinators, a
//! [`props!`](crate::props) test macro, bounded case counts, greedy
//! shrinking and failure-seed reporting.
//!
//! The design is deliberately small (quickcheck-shaped, not
//! proptest-shaped): a [`Gen`] produces values from a [`TestRng`] and
//! can propose structurally smaller variants of a failing value. Every
//! case runs from its own derived seed; a failure report prints that
//! seed and `XUPD_PROP_SEED=<seed>` replays exactly the failing case
//! first.

use crate::rng::{RangeInt, TestRng};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------- generators ------------------------------------------------

/// A value generator with optional shrinking.
pub trait Gen {
    /// Generated value type.
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate smaller values for `value`, most aggressive first. The
    /// harness greedily walks these while the property keeps failing.
    /// Default: no shrinking (combinators that lose the pre-image, like
    /// [`map`], cannot shrink).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Uniform integer in a half-open range.
pub struct Ints<T> {
    range: Range<T>,
}

/// Uniform integer in `range` (e.g. `ints(0usize..400)`).
pub fn ints<T: RangeInt + PartialOrd + Debug>(range: Range<T>) -> Ints<T> {
    assert!(range.start < range.end, "ints requires a non-empty range");
    Ints { range }
}

impl<T: RangeInt + Clone + Debug + PartialEq> Gen for Ints<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let lo = self.range.start.to_u64();
        let v = value.to_u64();
        let mut out = Vec::new();
        if v > lo {
            out.push(T::from_u64(lo)); // minimum first: most aggressive
            let half = lo + (v - lo) / 2;
            if half != lo && half != v {
                out.push(T::from_u64(half));
            }
            out.push(T::from_u64(v - 1));
        }
        out
    }
}

/// Uniform `u64` over the full domain.
pub struct AnyU64;

/// Any `u64` (the `any::<u64>()` replacement).
pub fn any_u64() -> AnyU64 {
    AnyU64
}

impl Gen for AnyU64 {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        let v = *value;
        let mut out = Vec::new();
        if v > 0 {
            out.push(0);
            if v > 1 {
                out.push(v / 2);
            }
            out.push(v - 1);
        }
        out
    }
}

/// Uniform `u64` in `min..=u64::MAX` (the `1u64..` replacement).
pub struct U64sFrom {
    min: u64,
}

/// Any `u64 >= min`.
pub fn u64s_from(min: u64) -> U64sFrom {
    U64sFrom { min }
}

impl Gen for U64sFrom {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        // rejection: for the small `min`s tests use, this virtually
        // never loops
        loop {
            let v = rng.next_u64();
            if v >= self.min {
                return v;
            }
        }
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        let v = *value;
        let mut out = Vec::new();
        if v > self.min {
            out.push(self.min);
            let half = self.min + (v - self.min) / 2;
            if half != self.min && half != v {
                out.push(half);
            }
            out.push(v - 1);
        }
        out
    }
}

/// Uniform booleans.
pub struct Bools;

/// `true` or `false`, evenly.
pub fn bools() -> Bools {
    Bools
}

impl Gen for Bools {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Uniform pick from a fixed slice (the `prop_oneof![Just(..)]`
/// replacement for enumerable choices).
pub struct FromSlice<T: 'static> {
    choices: &'static [T],
}

/// One of `choices`, uniformly.
pub fn from_slice<T: Clone + Debug>(choices: &'static [T]) -> FromSlice<T> {
    assert!(!choices.is_empty());
    FromSlice { choices }
}

impl<T: Clone + Debug + PartialEq> Gen for FromSlice<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.choose(self.choices).expect("non-empty").clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        // earlier choices are "smaller"
        self.choices
            .iter()
            .take_while(|c| *c != value)
            .cloned()
            .collect()
    }
}

/// Vectors of `elem` with length in `min..=max`.
pub struct Vecs<G> {
    elem: G,
    min: usize,
    max: usize,
}

/// `Vec<elem>` with length drawn uniformly from `min..=max`.
pub fn vecs<G: Gen>(elem: G, min: usize, max: usize) -> Vecs<G> {
    assert!(min <= max);
    Vecs { elem, min, max }
}

impl<G: Gen> Gen for Vecs<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<G::Value> {
        let len = if self.min == self.max {
            self.min
        } else {
            rng.gen_range(self.min..self.max + 1)
        };
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        // structurally smaller first: drop half, drop one element
        if n > self.min {
            let keep = self.min.max(n / 2);
            if keep < n {
                out.push(value[..keep].to_vec());
            }
            for i in (0..n).rev() {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
                if out.len() > 24 {
                    break;
                }
            }
        }
        // then shrink individual elements (first few positions)
        for i in 0..n.min(8) {
            for cand in self.elem.shrink(&value[i]) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

/// Strings over an explicit character set.
pub struct Strings {
    charset: Vec<char>,
    min: usize,
    max: usize,
}

/// String of length `min..=max` over `charset`'s characters — the
/// `"[abc]{0,n}"` regex-strategy replacement.
pub fn strings(charset: &str, min: usize, max: usize) -> Strings {
    let charset: Vec<char> = charset.chars().collect();
    assert!(!charset.is_empty() && min <= max);
    Strings { charset, min, max }
}

/// Printable-ASCII strings (the `"[ -~]{min,max}"` replacement).
pub fn ascii_strings(min: usize, max: usize) -> Strings {
    let charset: String = (' '..='~').collect();
    strings(&charset, min, max)
}

impl Gen for Strings {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let len = if self.min == self.max {
            self.min
        } else {
            rng.gen_range(self.min..self.max + 1)
        };
        (0..len)
            .map(|_| *rng.choose(&self.charset).expect("non-empty"))
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let chars: Vec<char> = value.chars().collect();
        let n = chars.len();
        let mut out = Vec::new();
        if n > self.min {
            let keep = self.min.max(n / 2);
            if keep < n {
                out.push(chars[..keep].iter().collect());
            }
            for i in (0..n).rev() {
                let mut c = chars.clone();
                c.remove(i);
                out.push(c.into_iter().collect());
                if out.len() > 24 {
                    break;
                }
            }
        }
        out
    }
}

/// Arbitrary unicode-bearing strings (the `".{0,n}"` replacement):
/// mostly printable ASCII, salted with markup metacharacters, control
/// bytes and multi-byte scalars — the mix parser fuzzing wants.
pub struct AnyStrings {
    min: usize,
    max: usize,
}

/// Adversarial free-form strings of length `min..=max` characters.
pub fn any_strings(min: usize, max: usize) -> AnyStrings {
    assert!(min <= max);
    AnyStrings { min, max }
}

impl Gen for AnyStrings {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const SPECIALS: &[char] = &[
            '<', '>', '&', '"', '\'', '/', '=', ';', '!', '?', '[', ']', '-', '\t', '\r', '\u{0}',
            '\u{7f}', 'é', 'λ', '中', '\u{1f600}',
        ];
        let len = if self.min == self.max {
            self.min
        } else {
            rng.gen_range(self.min..self.max + 1)
        };
        (0..len)
            .map(|_| match rng.gen_range(0u8..10) {
                0..=6 => char::from(rng.gen_range(0x20u8..0x7f)),
                7..=8 => *rng.choose(SPECIALS).expect("non-empty"),
                _ => {
                    // any valid scalar value
                    loop {
                        if let Some(c) = char::from_u32(rng.gen_range(0u32..0x11_0000)) {
                            break c;
                        }
                    }
                }
            })
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        Strings {
            charset: vec!['a'],
            min: self.min,
            max: self.max,
        }
        .shrink(value)
    }
}

/// Balanced-ish open/close move sequences for building label trees:
/// `true` opens a child, `false` closes the current one. Consumers feed
/// the moves to their tree builder (testkit stays DOM-agnostic).
pub struct TreeShapes {
    moves: Vecs<Bools>,
}

/// `min..=max` tree-building moves — the label-tree combinator.
pub fn tree_shapes(min: usize, max: usize) -> TreeShapes {
    TreeShapes {
        moves: vecs(bools(), min, max),
    }
}

impl Gen for TreeShapes {
    type Value = Vec<bool>;

    fn generate(&self, rng: &mut TestRng) -> Vec<bool> {
        self.moves.generate(rng)
    }

    fn shrink(&self, value: &Vec<bool>) -> Vec<Vec<bool>> {
        self.moves.shrink(value)
    }
}

/// Mapped generator (no shrinking: the pre-image is lost).
pub struct Map<G, F> {
    inner: G,
    f: F,
}

/// Transform `inner`'s values through `f` (the `prop_map` replacement).
pub fn map<G: Gen, T: Clone + Debug, F: Fn(G::Value) -> T>(inner: G, f: F) -> Map<G, F> {
    Map { inner, f }
}

impl<G: Gen, T: Clone + Debug, F: Fn(G::Value) -> T> Gen for Map<G, F> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! tuple_gen {
    ($(($($g:ident / $v:ident / $idx:tt),+))+) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )+};
}

tuple_gen! {
    (A / a / 0)
    (A / a / 0, B / b / 1)
    (A / a / 0, B / b / 1, C / c / 2)
    (A / a / 0, B / b / 1, C / c / 2, D / d / 3)
}

// ---------- hostile bytes ---------------------------------------------

/// Apply one encoded edit to a byte buffer: overwrite, insert or delete
/// one byte at a position derived from `edit`. Start from a valid
/// input and apply a generated `vecs(any_u64(), ..)` of edits to get
/// near-valid hostile bytes that reach deep into a decoder; shrinking
/// the edit list then isolates the bytes that matter.
pub fn mutate_bytes(bytes: &mut Vec<u8>, edit: u64) {
    if bytes.is_empty() {
        bytes.push((edit % 256) as u8);
        return;
    }
    let pos = (edit as usize / 4) % bytes.len();
    let byte = ((edit >> 16) % 256) as u8;
    match edit % 3 {
        0 => bytes[pos] = byte,
        1 => bytes.insert(pos, byte),
        _ => {
            bytes.remove(pos);
        }
    }
}

// ---------- the runner ------------------------------------------------

/// One property evaluation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The property held.
    Pass,
    /// Preconditions not met (`prop_assume!`) — the case doesn't count.
    Discard,
    /// The property failed with this message.
    Fail(String),
}

/// Harness configuration: bounded case count, shrink budget, base seed.
#[derive(Debug, Clone)]
pub struct Config {
    /// Accepted (non-discarded) cases to run.
    pub cases: u32,
    /// Maximum greedy shrink steps after a failure.
    pub max_shrink_steps: u32,
    /// Base seed; each case derives its own seed from it. Overridden by
    /// `XUPD_PROP_SEED` for failure replay.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: 256,
            max_shrink_steps: 256,
            seed: 0x5eed_1e57,
        }
    }
}

impl Config {
    /// Default config with an explicit case count (the
    /// `ProptestConfig::with_cases` replacement).
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// FNV-1a over the property name: decorrelates sibling properties that
/// share a config seed.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn run_one<V: Clone, P: Fn(V) -> Outcome>(prop: &P, value: V) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            Outcome::Fail(format!("panicked: {msg}"))
        }
    }
}

/// Run `prop` against `cfg.cases` generated values. Panics with a full
/// report — reproducing seed, original and shrunk counterexample — on
/// the first failure. Set `XUPD_PROP_SEED` to a failure's reported case
/// seed to replay it as case 0.
pub fn check<G: Gen, P: Fn(G::Value) -> Outcome>(name: &str, cfg: &Config, gen: &G, prop: P) {
    let replay: Option<u64> = std::env::var("XUPD_PROP_SEED")
        .ok()
        .and_then(|s| parse_seed(&s));
    let base = cfg.seed ^ fnv1a(name);
    let max_discards = u64::from(cfg.cases) * 16 + 100;
    let mut accepted = 0u32;
    let mut discarded = 0u64;
    let mut attempt = 0u64;

    while accepted < cfg.cases {
        let case_seed = match replay {
            Some(s) if attempt == 0 => s,
            _ => TestRng::seed_from_u64(base.wrapping_add(attempt)).next_u64(),
        };
        attempt += 1;
        let mut rng = TestRng::seed_from_u64(case_seed);
        let value = gen.generate(&mut rng);
        match run_one(&prop, value.clone()) {
            Outcome::Pass => accepted += 1,
            Outcome::Discard => {
                discarded += 1;
                if discarded > max_discards {
                    panic!(
                        "property '{name}': too many discards \
                         ({discarded} rejects for {accepted} accepted cases) — \
                         loosen the generator or the prop_assume! conditions"
                    );
                }
            }
            Outcome::Fail(first_msg) => {
                let (shrunk, shrunk_msg, steps) =
                    shrink_failure(gen, &prop, value.clone(), first_msg.clone(), cfg);
                panic!(
                    "property '{name}' failed (case {accepted}, seed {case_seed:#018x})\n\
                     replay: XUPD_PROP_SEED={case_seed:#x} cargo test {name}\n\
                     original: {first_msg}\n\
                     original input: {value:?}\n\
                     shrunk ({steps} steps): {shrunk_msg}\n\
                     shrunk input: {shrunk:?}"
                );
            }
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn shrink_failure<G: Gen, P: Fn(G::Value) -> Outcome>(
    gen: &G,
    prop: &P,
    mut cur: G::Value,
    mut cur_msg: String,
    cfg: &Config,
) -> (G::Value, String, u32) {
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in gen.shrink(&cur) {
            if let Outcome::Fail(msg) = run_one(prop, cand.clone()) {
                cur = cand;
                cur_msg = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (cur, cur_msg, steps)
}

// ---------- assertion macros ------------------------------------------

/// Property-scoped assertion: records a failure (with the failing
/// expression and optional formatted message) instead of panicking, so
/// the harness can shrink and report the seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::prop::Outcome::Fail(
                format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::prop::Outcome::Fail(
                format!("assertion failed: {} — {}", stringify!($cond), format!($($fmt)+)));
        }
    };
}

/// Property-scoped equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return $crate::prop::Outcome::Fail(format!(
                        "assertion failed: {} == {} ({:?} != {:?})",
                        stringify!($left), stringify!($right), l, r));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return $crate::prop::Outcome::Fail(format!(
                        "assertion failed: {} == {} ({:?} != {:?}) — {}",
                        stringify!($left), stringify!($right), l, r, format!($($fmt)+)));
                }
            }
        }
    };
}

/// Precondition: discard the case (without counting it) when `cond`
/// doesn't hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::prop::Outcome::Discard;
        }
    };
}

/// Declare property tests. Each `fn name(pat in gen, ...) { body }`
/// becomes a `#[test]` running `body` against generated bindings under
/// the block's [`Config`] (`config = expr;`, defaulting to
/// [`Config::default`]).
///
/// ```ignore
/// props! {
///     config = Config::with_cases(64);
///
///     fn addition_commutes(a in any_u64(), b in any_u64()) {
///         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
#[macro_export]
macro_rules! props {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:ident in $gen:expr),+ $(,)?) { $($body:tt)* }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __cfg: $crate::prop::Config = $cfg;
            let __gen = ($($gen,)+);
            $crate::prop::check(stringify!($name), &__cfg, &__gen, |__value| {
                let ($($pat,)+) = __value;
                $($body)*
                #[allow(unreachable_code)]
                $crate::prop::Outcome::Pass
            });
        }
        $crate::props!(@cfg ($cfg) $($rest)*);
    };
    (config = $cfg:expr; $($rest:tt)*) => {
        $crate::props!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::props!(@cfg ($crate::prop::Config::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config::with_cases(50);
        let seen = std::cell::Cell::new(0u32);
        check("always_true", &cfg, &ints(0usize..100), |_v| {
            seen.set(seen.get() + 1);
            Outcome::Pass
        });
        assert_eq!(seen.get(), 50);
    }

    #[test]
    fn failing_property_panics_with_seed_report() {
        let cfg = Config::with_cases(200);
        let res = catch_unwind(AssertUnwindSafe(|| {
            check("fails_over_10", &cfg, &ints(0u64..1000), |v| {
                if v > 10 {
                    Outcome::Fail(format!("{v} > 10"))
                } else {
                    Outcome::Pass
                }
            });
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("XUPD_PROP_SEED="), "{msg}");
        assert!(msg.contains("shrunk"), "{msg}");
        // greedy shrink on an int range lands on the boundary
        assert!(msg.contains("shrunk input: 11"), "{msg}");
    }

    #[test]
    fn shrinking_minimises_vectors() {
        let cfg = Config::default();
        let gen = vecs(ints(0u32..100), 0, 30);
        let res = catch_unwind(AssertUnwindSafe(|| {
            check("vec_len_under_5", &cfg, &gen, |v| {
                if v.len() >= 5 {
                    Outcome::Fail("too long".into())
                } else {
                    Outcome::Pass
                }
            });
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        // minimal failing vector has exactly 5 elements, all shrunk to 0
        assert!(
            msg.contains("shrunk input: [0, 0, 0, 0, 0]"),
            "{msg}"
        );
    }

    #[test]
    fn panics_are_reported_not_propagated_raw() {
        let cfg = Config::with_cases(20);
        let res = catch_unwind(AssertUnwindSafe(|| {
            check("always_panics", &cfg, &bools(), |_| -> Outcome {
                panic!("boom");
            });
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("panicked: boom"), "{msg}");
    }

    #[test]
    fn discards_are_bounded() {
        let cfg = Config::with_cases(10);
        let res = catch_unwind(AssertUnwindSafe(|| {
            check("discards_everything", &cfg, &bools(), |_| Outcome::Discard);
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("too many discards"), "{msg}");
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let gen = (
            vecs(ints(0u8..10), 0, 12),
            ascii_strings(0, 20),
            any_strings(0, 20),
        );
        let mut a = TestRng::seed_from_u64(5);
        let mut b = TestRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(gen.generate(&mut a), gen.generate(&mut b));
        }
    }

    #[test]
    fn strings_respect_charset_and_bounds() {
        let gen = strings("abc", 2, 6);
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = gen.generate(&mut rng);
            assert!((2..=6).contains(&s.chars().count()));
            assert!(s.chars().all(|c| "abc".contains(c)));
        }
    }

    #[test]
    fn tree_shapes_generate_bounded_moves() {
        let gen = tree_shapes(1, 40);
        let mut rng = TestRng::seed_from_u64(2);
        for _ in 0..100 {
            let moves = gen.generate(&mut rng);
            assert!((1..=40).contains(&moves.len()));
        }
    }

    props! {
        config = Config::with_cases(64);

        fn macro_declared_props_work(a in any_u64(), b in any_u64()) {
            prop_assume!(a != b);
            prop_assert!(a.wrapping_add(b) == b.wrapping_add(a));
            prop_assert_eq!(a.max(b), b.max(a), "max commutes");
        }

        fn single_binding_works(v in vecs(bools(), 0, 10)) {
            prop_assert!(v.len() <= 10);
        }
    }
}
