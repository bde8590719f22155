//! Hand-rolled JSON: a value tree, a deterministic emitter and a
//! validating parser.
//!
//! The workspace bans serde, but every figure binary and `ppsim suite`
//! must emit machine-readable artifacts for trajectory tracking, so this
//! module implements the subset of JSON we need from scratch. Object keys
//! keep insertion order, making emission byte-deterministic — a property
//! the runner's reproducibility tests rely on. The parser exists chiefly
//! so tests can round-trip emitted artifacts and assert well-formedness
//! without external tooling.

use std::fmt::{self, Write as _};

/// A JSON value. Numbers are split into `Int` (emitted exactly) and
/// `Num` (floating point) so counters survive round trips bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, emitted without a fractional part.
    Int(i64),
    /// A floating-point number. Non-finite values emit as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object (builder entry point).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (builder style). Panics on non-objects.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a dotted path through nested objects and arrays:
    /// `"data.stats.commits"` descends object fields; a numeric segment
    /// like `"rows.0"` indexes into an array. Returns `None` as soon as
    /// any segment fails to resolve.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = match cur {
                Json::Obj(_) => cur.get(seg)?,
                Json::Arr(items) => items.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// The value as f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as i64 if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a string slice if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("formatting into a String"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{:?}` is the shortest round-trippable rendering
                    // and always keeps a fractional part (or exponent),
                    // so whole-number floats stay floats on re-parse.
                    write!(out, "{n:?}").expect("formatting into a String");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (object, array or scalar at top level).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        // Counters beyond i64 range cannot occur in our simulations; keep
        // the conversion total anyway.
        Json::Int(i64::try_from(u).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::Int(i64::try_from(u).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied in one call each; every escaped byte is ASCII, so
/// the run boundaries always fall on `char` boundaries.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect("formatting into a String"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at offset {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at offset {start}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad integer `{text}` at offset {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_deterministic_objects() {
        let j = Json::obj()
            .field("name", "fig5")
            .field("rate", 0.0423)
            .field("jobs", 44u64)
            .field("ok", true)
            .field("note", Json::Null)
            .field("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)]));
        assert_eq!(
            j.to_string(),
            r#"{"name":"fig5","rate":0.0423,"jobs":44,"ok":true,"note":null,"rows":[1,2]}"#
        );
    }

    #[test]
    fn round_trips_structures() {
        let j = Json::obj()
            .field("title", "Figure 5 — misprediction \"rates\"\n")
            .field("neg", -17i64)
            .field("pi", 3.140625)
            .field(
                "rows",
                Json::Arr(vec![
                    Json::obj().field("b", "gzip").field("r", 0.051),
                    Json::obj().field("b", "twolf").field("r", 0.124),
                ]),
            );
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\\u0041\" : [ 1 , 2.5 , \"x\\ty\" ] } ").unwrap();
        assert_eq!(v.get("aA").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("aA").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ty")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escapes_and_numbers_render_byte_for_byte() {
        let j = Json::Arr(vec![
            Json::from("plain"),
            Json::from("q\"b\\n\nr\rt\tc\u{1}\u{1f}é—end"),
            Json::from(""),
            Json::Int(-42),
            Json::Num(1.0),
            Json::Num(0.1 + 0.2),
            Json::Num(1e-7),
            Json::Num(-0.0),
        ]);
        assert_eq!(
            j.to_string(),
            r#"["plain","q\"b\\n\nr\rt\tc\u0001\u001fé—end","",-42,1.0,0.30000000000000004,1e-7,-0.0]"#
        );
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big = i64::MAX - 7;
        let text = Json::Int(big).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_i64(), Some(big));
    }

    #[test]
    fn get_path_descends_objects_and_arrays() {
        let doc = Json::parse(r#"{"data":{"rows":[{"ipc":1.5},{"ipc":2.0}],"n":2}}"#).unwrap();
        assert_eq!(doc.get_path("data.n").and_then(Json::as_i64), Some(2));
        assert_eq!(
            doc.get_path("data.rows.1.ipc").and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(doc.get_path("data.rows.2.ipc").is_none());
        assert!(doc.get_path("data.rows.x").is_none());
        assert!(doc.get_path("missing").is_none());
        assert!(doc.get_path("data.n.deeper").is_none());
    }
}
