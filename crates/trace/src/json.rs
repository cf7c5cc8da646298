//! The workspace's one JSON: a minimal value type, emitter (pretty and
//! single-line) and depth-capped parser, dependency-free. The bench
//! trajectory, the sampler stream readers (`mscc top`), the `mscd`
//! line protocol and the chrome-trace validator all read and write
//! through it; [`escape`] is the one string escaper every hand-rolled
//! emitter in the workspace shares, and [`number`] the one number
//! renderer. Parsing reads each byte once: a string's plain bytes are
//! copied a run at a time, so a document costs time linear in its length
//! (DESIGN.md §15.1).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn s(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    pub fn n(v: f64) -> Json {
        Json::Num(v)
    }

    /// Parse a JSON document. Strict enough for round-tripping our own
    /// emitter and the schema-checked bench trajectory files; rejects
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Field lookup on an object (None on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Single-line rendering (the `Display` impl pretty-prints across
    /// lines) — for line-delimited protocols and JSONL files.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

/// Nesting cap for the recursive-descent parser. The parser recurses
/// once per `[`/`{` level, so hostile input like `"[".repeat(1 << 20)`
/// would otherwise overflow the stack (an abort, not an `Err`). Our own
/// emitters nest a handful of levels; 512 is far beyond any legitimate
/// document.
const MAX_DEPTH: usize = 512;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // One run of plain bytes up to the next quote or backslash, copied
        // at once. Both are ASCII and the input is a &str, so the run ends
        // on a char boundary and each byte is checked once.
        let start = *pos;
        *pos += b[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
        if b[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match b.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = b
                    .get(*pos + 1..*pos + 5)
                    .ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(
                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                    16,
                )
                .map_err(|_| "bad \\u escape")?;
                // Surrogate pairs are not produced by our emitter;
                // map lone surrogates to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {pos}")),
        }
        *pos += 1;
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// Append `s` as a quoted JSON string (control characters, quote and
/// backslash escaped). Runs of bytes that need no escape are copied at
/// once: every byte that does is ASCII, so a run ends on a char boundary.
pub fn escape(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, c) in s.bytes().enumerate() {
        if c >= 0x20 && c != b'"' && c != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        let _ = match c {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\t' => out.write_str("\\t"),
            b'\r' => out.write_str("\\r"),
            c => write!(out, "\\u{c:04x}"),
        };
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append `v` as [`Json::Num`] renders it: an integer below 1e15 without
/// a fraction, any other finite value as Rust prints it, and `null` for
/// NaN and the infinities (JSON has none).
pub fn number(v: f64, out: &mut String) {
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

/// [`escape`] into a fresh `String`, for `format!`-style emitters.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape(s, &mut out);
    out
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        self.write(&mut buf, 0);
        f.write_str(&buf)
    }
}

impl Json {
    fn write(&self, out: &mut String, indent: usize) {
        let pad = |n: usize| "  ".repeat(n);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => number(*v, out),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad(indent + 1));
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad(indent + 1));
                    escape(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad(indent));
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::n(3.0).to_string(), "3");
        assert_eq!(Json::n(3.5).to_string(), "3.5");
        assert_eq!(Json::n(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::s("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(quoted("\u{1}\t\r"), r#""\u0001\t\r""#);
    }

    #[test]
    fn nested_structure_renders() {
        let j = Json::obj(vec![
            ("name", Json::s("x")),
            ("vals", Json::Arr(vec![Json::n(1.0), Json::n(2.0)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = j.to_string();
        assert!(s.contains("\"name\": \"x\""));
        assert!(s.contains("\"empty\": []"));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn parser_roundtrips_emitter_output() {
        let j = Json::obj(vec![
            ("name", Json::s("x\"y\n")),
            ("vals", Json::Arr(vec![Json::n(1.0), Json::n(-2.5), Json::Null])),
            ("ok", Json::Bool(true)),
            ("empty", Json::Obj(vec![])),
        ]);
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.get("name").and_then(Json::as_str), Some("x\"y\n"));
        assert_eq!(
            back.get("vals").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "{} trailing", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let j = Json::obj(vec![
            ("name", Json::s("x\ny")),
            ("vals", Json::Arr(vec![Json::n(1.0), Json::Null, Json::Bool(true)])),
            ("empty", Json::Obj(vec![])),
        ]);
        let s = j.to_compact();
        assert!(!s.contains('\n'), "not single-line: {s}");
        assert_eq!(Json::parse(&s).unwrap(), j);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // Pre-fix, each of these recursed once per byte and aborted the
        // process with a stack overflow instead of returning Err.
        for doc in ["[".repeat(100_000), "{\"k\":".repeat(100_000)] {
            let err = Json::parse(&doc).unwrap_err();
            assert!(err.contains("nesting"), "unexpected error: {err}");
        }
        // Deep-but-sane documents still parse.
        let depth = 64;
        let ok = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&ok).is_ok());
    }
}
