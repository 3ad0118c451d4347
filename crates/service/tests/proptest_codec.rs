//! Fuzzing the two decoders a service reads untrusted bytes with: the
//! `serde::bin` codec behind snapshots and journal frames, and the
//! `serde_json` shim behind HTTP request bodies. Whatever the input,
//! each returns `Ok` or `Err`; neither panics. What they encode, they
//! decode back to the same bytes.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use serde::{bin, Json};
use serde_json::MAX_PARSE_DEPTH;

/// Random `Json` trees of every variant, nested up to `depth`. With
/// `finite`, numbers are finite (the text form writes non-finite ones
/// as `null`); otherwise they are arbitrary bit patterns.
struct Trees {
    depth: usize,
    finite: bool,
}

impl Strategy for Trees {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        tree(rng, self.depth, self.finite)
    }
}

fn tree(rng: &mut TestRng, depth: usize, finite: bool) -> Json {
    let kinds = if depth == 0 { 5 } else { 8 };
    let width = |rng: &mut TestRng| rng.usize_in(0..5);
    match rng.usize_in(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.usize_in(0..2) == 1),
        2 => Json::Num(number(rng, finite)),
        3 => Json::UInt(rng.rng().next_u64()),
        4 => Json::Str(text(rng)),
        // All-number arrays take the codec's packed form.
        5 => Json::Arr((0..width(rng) + 1).map(|_| Json::Num(number(rng, finite))).collect()),
        6 => Json::Arr((0..width(rng)).map(|_| tree(rng, depth - 1, finite)).collect()),
        _ => {
            Json::Obj((0..width(rng)).map(|_| (text(rng), tree(rng, depth - 1, finite))).collect())
        }
    }
}

fn number(rng: &mut TestRng, finite: bool) -> f64 {
    loop {
        let x = match rng.usize_in(0..3) {
            0 => f64::from_bits(rng.rng().next_u64()),
            1 => (rng.unit_f64() - 0.5) * 1e6,
            _ => rng.usize_in(0..2_000) as f64 - 1_000.0,
        };
        if !finite || x.is_finite() {
            return x;
        }
    }
}

/// Short strings over quotes, escapes, control characters and every
/// plane of Unicode.
fn text(rng: &mut TestRng) -> String {
    (0..rng.usize_in(0..8))
        .map(|_| match rng.usize_in(0..4) {
            0 => {
                ['"', '\\', '/', '\n', '\u{0}', '\u{1f}', '\u{7f}', '\u{2028}'][rng.usize_in(0..8)]
            }
            1 => char::from(rng.usize_in(0x20..0x7f) as u8),
            _ => char::from_u32(rng.usize_in(0..0x11_0000) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// Random text built from JSON's own tokens (so the parser gets past
/// its first byte) mixed with arbitrary characters.
fn json_like(rng: &mut TestRng) -> String {
    const TOKENS: [&str; 24] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud83d", "\\udd1e", "0", "7", "-", ".",
        "e+", "1e999", "true", "fals", "null", " ", "\"k\":", "é", "\u{0}",
    ];
    (0..rng.usize_in(0..40))
        .map(|_| match rng.usize_in(0..5) {
            0 => text(rng),
            _ => TOKENS[rng.usize_in(0..TOKENS.len())].to_string(),
        })
        .collect()
}

/// Strings drawn by a plain generator function.
struct Texts(fn(&mut TestRng) -> String);

impl Strategy for Texts {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        (self.0)(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bin_decode_of_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..64),
        tag in 0u8..=9,
    ) {
        // A leading tag byte steers half the inputs past the first
        // dispatch into each value shape.
        let _ = bin::decode(&bytes);
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&bytes);
        let _ = bin::decode(&tagged);
    }

    #[test]
    fn bin_round_trip_is_byte_exact(v in Trees { depth: 4, finite: false }) {
        let bytes = bin::encode(&v);
        let back = bin::decode(&bytes).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(bin::encode(&back), bytes);
    }

    #[test]
    fn bin_one_byte_mutations_never_panic(
        v in Trees { depth: 4, finite: false },
        at in 0usize..1 << 16,
        byte in 0u8..=255,
    ) {
        let mut bytes = bin::encode(&v);
        let at = at % bytes.len();
        bytes[at] = byte;
        if let Ok(back) = bin::decode(&bytes) {
            // Whatever decodes must encode to a value that decodes.
            prop_assert!(bin::decode(&bin::encode(&back)).is_ok());
        }
    }

    #[test]
    fn json_parse_of_arbitrary_text_never_panics(s in Texts(json_like), t in Texts(text)) {
        let _ = serde_json::from_str(&s);
        let _ = serde_json::from_str(&t);
    }

    #[test]
    fn json_nesting_past_the_cap_is_an_error(
        depth in 0usize..=2 * MAX_PARSE_DEPTH,
        objects in 0u8..2,
    ) {
        let (open, close) = if objects == 1 { ("{\"k\":", "}") } else { ("[", "]") };
        let body = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        let parsed = serde_json::from_str(&body);
        prop_assert_eq!(parsed.is_ok(), depth <= MAX_PARSE_DEPTH, "depth {}", depth);
    }

    #[test]
    fn json_round_trip_of_finite_trees(v in Trees { depth: 4, finite: true }) {
        // The text form keeps a number's value but not always its
        // variant (an integral `Num` reads back as `UInt`), so the
        // rendered text is what must survive a parse exactly.
        let text = serde_json::to_string(&v).expect("render");
        let back = serde_json::from_str(&text).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(serde_json::to_string(&back).expect("render"), text);
    }
}
