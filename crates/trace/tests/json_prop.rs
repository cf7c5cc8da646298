//! Property tests for [`msc_trace::Json::parse`]: the parser
//! sits behind every tool that re-reads our own emitted files (bench
//! trajectories, sampler streams, flight recordings, the service
//! protocol), where a torn write or a bad disk can hand it *anything*.
//! The contract is `Err`, never a panic or abort, on arbitrary input.

use msc_trace::json::escape;
use msc_trace::Json;
use proptest::prelude::*;
use std::time::Instant;

/// Valid documents covering every construct the emitter produces:
/// scalars, escapes, unicode, nesting, empty containers.
fn corpus() -> Vec<String> {
    vec![
        "null".to_string(),
        "[1, -2.5e3, true, \"a\\n\\\"b\\u00e9\", {}, []]".to_string(),
        r#"{"schema":"msc-metrics-v1","seq":3,"counters":{"steps":42,"halo_bytes":1.5e9},"ranks":[{"rank":0,"steps":42}],"alerts":[{"kind":"stall","message":"rank 0 est arrêté"}]}"#
            .to_string(),
        Json::obj(vec![
            ("name", Json::s("x\"y\n\t\\z")),
            ("vals", Json::Arr(vec![Json::n(1.0), Json::Null, Json::Bool(false)])),
            ("nested", Json::obj(vec![("deep", Json::Arr(vec![Json::obj(vec![])]))])),
        ])
        .to_string(),
        "3.141592653589793".to_string(),
        "\"\"".to_string(),
    ]
}

/// Pieces a generated string is built from: multi-byte UTF-8 of every
/// length, control characters, text that spells a `\uXXXX` escape, and
/// quotes and backslashes next to each other and to multi-byte chars.
const PIECES: [&str; 16] = [
    "a",
    "é",
    "€",
    "😀",
    "\"",
    "\\",
    "\u{1}",
    "\n\t\r",
    "\u{1f}\u{7f}",
    "\\u0041",
    "\\u00e9",
    "\"é\\",
    "\\😀\"",
    "\\\"",
    "\u{0}",
    "plain text ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutate valid documents with byte flips and truncation; the
    /// parser must return (Ok or Err), never panic. Whatever it does
    /// accept must survive an emit/re-parse round trip.
    #[test]
    fn parse_survives_mutated_valid_documents(
        doc_idx in 0usize..=5,
        flips in prop::collection::vec((0usize..=4095, 0u8..=255), 0..=8),
        cut in 0usize..=4095,
    ) {
        let mut bytes = corpus()[doc_idx].clone().into_bytes();
        for (p, v) in flips {
            let i = p % bytes.len();
            bytes[i] = v;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = Json::parse(&text) {
            let reparsed = Json::parse(&v.to_string());
            prop_assert!(reparsed.is_ok(), "emit/re-parse failed on {text:?}");
        }
    }

    /// Pure garbage: arbitrary byte soup (lossily decoded — the parser
    /// takes `&str`) must never panic the parser.
    #[test]
    fn parse_survives_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..=96),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }

    /// Hostile structural nesting at arbitrary depths: shallow parses,
    /// deep errors, nothing overflows the stack.
    #[test]
    fn parse_survives_any_nesting_depth(
        depth in 0usize..=2048,
        open in 0usize..=1,
    ) {
        let (o, c) = [("[", "]"), ("{\"k\":", "}")][open];
        let doc = format!("{}1{}", o.repeat(depth), c.repeat(depth));
        let parsed = Json::parse(&doc);
        // 512 is the documented cap; stay clear of the boundary on both
        // sides rather than encoding its exact off-by-one here.
        if depth <= 256 {
            prop_assert!(parsed.is_ok(), "depth {depth} rejected: {parsed:?}");
        } else if depth >= 1024 {
            prop_assert!(parsed.is_err(), "depth {depth} accepted");
        }
    }

    /// `escape` then `parse` gives back exactly the string escaped, for
    /// strings of the pieces above and of arbitrary scalar values.
    #[test]
    fn escape_then_parse_returns_the_input_string(
        parts in prop::collection::vec((0usize..=16, 0u32..=0x10ffff), 0..=48),
    ) {
        let mut s = String::new();
        for (piece, code) in parts {
            match PIECES.get(piece) {
                Some(p) => s.push_str(p),
                None => s.extend(char::from_u32(code)),
            }
        }
        let mut doc = String::new();
        escape(&s, &mut doc);
        prop_assert_eq!(Json::parse(&doc), Ok(Json::Str(s.clone())), "via {}", doc);
    }
}

#[test]
fn corpus_is_actually_valid() {
    for doc in corpus() {
        Json::parse(&doc).unwrap_or_else(|e| panic!("corpus doc rejected ({e}): {doc}"));
    }
}

/// Best of five parses of a document holding one string of `len` bytes.
fn best_parse_secs(len: usize) -> f64 {
    let line = "stencil é { \"q\" }\t";
    let text = line.repeat(len / line.len());
    let mut doc = String::from("{\"source\":");
    escape(&text, &mut doc);
    doc.push('}');
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let parsed = Json::parse(&doc).unwrap();
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(parsed.get("source").and_then(Json::as_str), Some(&*text));
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// A string is read in time linear in its length, whatever the machine's
/// speed: 16x the bytes may cost at most 64x the time. A scan that
/// re-reads the rest of the document per character costs about 256x.
#[test]
fn a_string_parses_in_time_linear_in_its_length() {
    let (small, large) = (best_parse_secs(64 << 10), best_parse_secs(1 << 20));
    assert!(
        large <= 64.0 * small,
        "1 MiB took {large:.4} s, 64 KiB {small:.6} s: {:.0}x",
        large / small
    );
}
