//! The workspace's one JSON codec. The workspace builds without serde,
//! so every JSON artifact — fault plans, saved trees, trace exports,
//! chaos reports, kernel snapshots — is written by hand with
//! [`escape`] and [`float`] and read back with [`parse`].
//!
//! The reader is a small recursive-descent parser over the full value
//! grammar (objects, arrays, strings with `\u` escapes and multi-byte
//! UTF-8, numbers, `true`/`false`/`null`). Integers stay apart from
//! floats ([`Value::Int`] vs [`Value::Float`]) so `u64` seeds and node
//! keys read back exactly. Schema checks belong to the callers.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits `i128`.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys are kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Looks up `key` in an object (the first entry, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Renders `s` as a JSON string literal, quotes included. `"`, `\` and
/// every control character below U+0020 are escaped; everything else
/// passes through.
pub fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite `v` as a JSON number: Rust's shortest round-trip
/// digits, with `.0` forced onto integral values so the token reads
/// back as a [`Value::Float`].
pub fn float(v: f64) -> String {
    let mut s = v.to_string();
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
}

/// Parses one JSON document; whitespace may surround it, anything else
/// after it is an error. Takes bytes so invalid UTF-8 inside a string
/// is reported rather than assumed away.
pub fn parse(text: impl AsRef<[u8]>) -> Result<Value, String> {
    let bytes = text.as_ref();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut obj = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(obj));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(format!("object key must be a string at byte {}", *pos));
                }
                *pos += 1;
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {}", *pos));
                }
                *pos += 1;
                obj.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(obj));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            parse_string(b, pos).map(Value::Str)
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while b
                .get(*pos)
                .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                *pos += 1;
            }
            // Only ASCII was consumed. A token with a fraction, an
            // exponent or more digits than `i128` holds is a float.
            let text = std::str::from_utf8(&b[start..*pos]).unwrap_or_default();
            if text.is_empty() {
                return Err(format!("unexpected character at byte {start}"));
            }
            text.parse::<i128>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

/// The body of a string literal whose opening quote is already consumed.
fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let code = hex.iter().fold(0, |acc, &h| {
                            acc * 16 + char::from(h).to_digit(16).unwrap_or(0)
                        });
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {:?}", other.map(|&c| c as char))),
                }
                *pos += 1;
            }
            Some(_) => {
                // A run of plain bytes up to the next quote or escape;
                // std validates its UTF-8 (multi-byte sequences pass).
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
                s.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, "x\n\"y\"", true, null], "b": {"c": 3}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3], Value::Bool(true));
        assert_eq!(arr[4], Value::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_u64(), Some(3));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let cases: [&[u8]; 8] = [
            b"\"unterminated",
            b"\"bad \\x escape\"",
            b"\"\\u12\"",
            b"\"\\u12",
            b"\"\xE2\x82\"",
            b"-",
            b"[1, 2,]",
            b"{\"a\" 1}",
        ];
        for case in cases {
            assert!(
                parse(case).is_err(),
                "{:?} must not parse",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn integers_and_floats_stay_apart() {
        assert_eq!(
            parse("18446744073709551612").unwrap().as_u64(),
            Some(u64::MAX - 3)
        );
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.0").unwrap(), Value::Float(1.0));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"\\u00e9\u{e9}\"").unwrap().as_str(), Some("éé"));
    }

    #[test]
    fn escape_round_trips_every_control_character() {
        let mut all: String = (0u8..0x20).map(char::from).collect();
        all.push_str("\"\\ plain é");
        for c in all.chars() {
            let one = c.to_string();
            assert_eq!(parse(escape(&one)).unwrap().as_str(), Some(&*one), "{c:?}");
        }
        let lit = escape(&all);
        assert!(
            !lit.bytes().any(|b| b < 0x20),
            "raw control byte in {lit:?}"
        );
        assert_eq!(parse(&lit).unwrap().as_str(), Some(&*all));
    }

    #[test]
    fn float_keeps_a_fraction_marker_and_round_trips() {
        assert_eq!(float(1.0), "1.0");
        assert_eq!(float(-0.0), "-0.0");
        assert_eq!(float(0.125), "0.125");
        assert_eq!(float(1e20), "100000000000000000000.0");
        for v in [0.1, 1.0 / 3.0, 4.0, 1e-300, f64::MAX] {
            assert_eq!(parse(float(v)).unwrap(), Value::Float(v));
        }
    }
}
