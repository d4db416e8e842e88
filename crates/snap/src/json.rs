//! The workspace's one JSON module: the value type and parser every
//! reader uses, and the string escaper and number renderings every
//! hand-rolled writer uses (the build environment has no serde).
//!
//! Writers render their documents with `format!`, take every string
//! through [`escape`], and render floats with one of three renderings:
//!
//! * [`fixed`] — a fixed number of decimals (the experiment tables);
//! * [`float`] — shortest round-trip, always float-shaped (`1.0`, not
//!   `1`; metrics and telemetry);
//! * [`shortest`] — shortest round-trip, bare when integral (job
//!   outputs on the wire and in the journal).
//!
//! Each renders a non-finite value as `null`: `NaN` is not JSON.
//! [`row_array`] lays out the one-row-per-line arrays of the artefacts.
//!
//! Readers call [`parse`]. It accepts what the writers emit: objects,
//! arrays, strings (with the escapes [`escape`] produces, plus any
//! BMP `\uXXXX`), numbers, and `true`/`false`/`null`. It is not a
//! validating general-purpose parser, but it never panics or overflows
//! its stack: nesting deeper than [`MAX_DEPTH`] is an error.

use std::fmt::{self, Write as _};

/// The deepest nesting [`parse`] accepts. The deepest artefact (a
/// histogram bucket inside an experiment's metrics block) nests six
/// levels; the cap only stops a hostile line from exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
    /// An array.
    Array(Vec<Value>),
    /// A string.
    String(String),
    /// A number that parses as an unsigned integer.
    Number(u64),
    /// Any other number.
    Float(f64),
    /// `true`/`false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The object's fields, if this is an object.
    pub fn as_object(&self) -> Option<ObjectView<'_>> {
        match self {
            Value::Object(fields) => Some(ObjectView(fields)),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a float (integers widen losslessly for
    /// the magnitudes this workspace's artefacts record).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Renders the value on one line the way the writers do: `", "` between
/// elements, `": "` after keys, floats through [`float`]. A value parsed
/// from a single-line `Registry` rendering re-renders to the same bytes.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Object(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
                    .collect();
                write!(f, "{{{}}}", fields.join(", "))
            }
            Value::Array(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Value::String(s) => write!(f, "\"{}\"", escape(s)),
            Value::Number(n) => write!(f, "{n}"),
            Value::Float(x) => f.write_str(&float(*x)),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => f.write_str("null"),
        }
    }
}

/// Key-lookup view over an object's fields.
pub struct ObjectView<'a>(&'a [(String, Value)]);

impl<'a> ObjectView<'a> {
    /// First value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Escapes a string for embedding in a JSON string literal: `\"`, `\\`,
/// `\n`, `\r`, `\t`, and `\u00XX` for the other control characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders a float with `decimals` fixed decimals; non-finite is `null`.
pub fn fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// Renders a float as the shortest string that parses back to the same
/// bits, with a `.0` marker on integral values so the field reads as a
/// float; non-finite is `null`.
pub fn float(v: f64) -> String {
    let s = shortest(v);
    if !v.is_finite() || s.contains(['.', 'e', 'E']) {
        s
    } else {
        s + ".0"
    }
}

/// Renders a float as the shortest string that parses back to the same
/// bits (integral values stay bare: `1`); non-finite is `null`.
pub fn shortest(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Lays rendered rows out as a multi-line array: `[`, one row per line
/// indented four spaces, `]` indented two — the shape of every
/// artefact's top-level row list.
pub fn row_array(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
    if rows.is_empty() {
        "[\n  ]".to_string()
    } else {
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Describes the first problem and its byte offset: malformed syntax,
/// trailing content, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", ch as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            _ => Err(format!("unexpected content at byte {}", self.pos)),
        }
    }

    /// Parses an object or array one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// A string literal. Runs without escapes are copied as `&str`
    /// slices (they end at an ASCII `"` or `\`, so always on a character
    /// boundary), which keeps multi-byte UTF-8 intact.
    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.escape_into(&mut out)?,
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Decodes the escape sequence at `pos` (a `\`) onto `out`.
    fn escape_into(&mut self, out: &mut String) -> Result<(), String> {
        let bytes = self.text.as_bytes();
        let esc = *bytes
            .get(self.pos + 1)
            .ok_or_else(|| "unterminated escape".to_string())?;
        out.push(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = bytes
                    .get(self.pos + 2..self.pos + 6)
                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                let hex =
                    std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape".to_string())?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                self.pos += 4;
                char::from_u32(code).ok_or_else(|| format!("invalid \\u code point {code:#x}"))?
            }
            other => return Err(format!("unsupported escape \\{}", other as char)),
        });
        self.pos += 2;
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || b".eE+-".contains(&c)) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Number(n));
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_capped_without_exhausting_the_stack() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().contains("nesting deeper"));
        // Far past any stack: a 100 KB hostile line is a plain error.
        let hostile = "[".repeat(100_000);
        assert!(parse(&hostile).unwrap_err().contains("nesting deeper"));
        let objects = "{\"a\": ".repeat(100_000);
        assert!(parse(&objects).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn strings_decode_as_utf8_and_round_trip_through_escape() {
        let text = "café → résumé \"q\" \\ \n\t\r \u{1} end";
        let line = format!("{{\"s\": \"{}\"}}", escape(text));
        assert!(line.contains("\\u0001"));
        let v = parse(&line).unwrap();
        assert_eq!(
            v.as_object().unwrap().get("s").unwrap().as_str(),
            Some(text)
        );
        assert_eq!(v.to_string(), line);
        assert_eq!(parse("\"caf\\u00e9\"").unwrap().as_str(), Some("café"));
    }

    #[test]
    fn number_renderings() {
        assert_eq!(fixed(1.23456, 4), "1.2346");
        assert_eq!(fixed(f64::NAN, 4), "null");
        assert_eq!(float(0.0), "0.0");
        assert_eq!(float(2.5), "2.5");
        assert_eq!(float(1e21), "1000000000000000000000.0");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(shortest(1.0), "1");
        assert_eq!(shortest(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(shortest(f64::NAN), "null");
    }

    #[test]
    fn display_re_renders_single_line_documents() {
        for line in [
            "{\"a\": 1, \"b\": 0.0, \"c\": [], \"d\": {}, \"e\": [true, false, null], \
             \"f\": {\"le\": \"+Inf\", \"n\": 3}, \"g\": 0.30000000000000004}",
            "[]",
            "\"x\"",
        ] {
            assert_eq!(parse(line).unwrap().to_string(), line);
        }
    }

    #[test]
    fn row_arrays_put_one_row_per_line() {
        assert_eq!(row_array(Vec::new()), "[\n  ]");
        assert_eq!(
            row_array(["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()]),
            "[\n    {\"a\": 1},\n    {\"a\": 2}\n  ]"
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "\"open",
            "\"bad \\q\"",
            "\"\\u12\"",
            "tru",
            "-",
            "{\"c\": 1, \"k\": [}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
