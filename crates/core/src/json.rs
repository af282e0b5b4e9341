//! The workspace's one JSON module: the writer helpers every artifact,
//! ledger line, and history record is rendered with, and the reader that
//! parses them back.
//!
//! The container has no serde and every schema is flat, so both halves
//! are hand-written:
//!
//! * [`json_str`] escapes a string literal and [`json_f64`] formats a
//!   float with four decimals (`null` for NaN/infinity, which JSON
//!   lacks). Emitters build their documents with `write!` around these.
//! * [`parse`] is a recursive-descent reader producing a [`Json`] value.
//!   Its input is often outside data — an artifact from another run, a
//!   ledger line being tailed, an uploaded history record — so it is
//!   bounded: nesting deeper than [`MAX_DEPTH`] arrays/objects is a
//!   [`ParseError`], not a stack overflow, and malformed input of any
//!   kind is an error, never a panic.

use std::fmt::{self, Write as _};

/// Escapes a string for a JSON literal, quotes included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as JSON: finite values with 4 decimals, else `null`
/// (JSON has no NaN/Infinity).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

/// Deepest array/object nesting [`parse`] accepts. Every schema in the
/// workspace nests fewer than ten levels; the bound only exists so a
/// hostile document cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value (just enough for the repo's flat artifacts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; artifact values fit easily).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the document.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { message: message.into(), offset: self.pos })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    /// Opens one array/object level, refusing to go past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                Some(_) => {
                    // `pos` only ever advances by whole characters, so it
                    // sits on a char boundary of the (valid UTF-8) input.
                    let c = self.text[self.pos..].chars().next().expect("non-empty rest");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::Num(v)),
            Err(_) => self.err(format!("bad number '{text}'")),
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input,
/// trailing garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_escapes_and_bounds() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("t\tr\r\u{1}"), "\"t\\tr\\r\\u0001\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5000");
    }

    #[test]
    fn parser_reads_every_value_kind() {
        let v = parse(r#"{"s": "xA\n", "n": -1.5e2, "b": [true, false, null], "o": {}}"#)
            .unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("xA\n"));
        assert_eq!(v.get("n"), Some(&Json::Num(-150.0)));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]))
        );
        assert_eq!(v.get("o"), Some(&Json::Obj(Vec::new())));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(v.get("s").and_then(Json::as_f64), None);
        let items = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(items[0].as_bool(), Some(true));
        assert_eq!(items[2].as_bool(), None);
        assert_eq!(v.get("o").and_then(Json::as_arr), None);
        assert!(parse("{\"a\": 1,}").is_err(), "trailing comma rejected");
        assert!(parse("[1, 2] garbage").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"\\").is_err());
        assert!(parse("\"\\u12").is_err());
    }

    #[test]
    fn written_strings_read_back() {
        for s in ["plain", "quote\" back\\ nl\n tab\t cr\r", "\u{1}\u{1f}", "ünï 🦀", ""] {
            assert_eq!(parse(&json_str(s)).unwrap(), Json::Str(s.into()), "{s:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "exactly MAX_DEPTH levels parse");
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\": ".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn hundred_thousand_open_brackets_are_an_error_not_an_abort() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":[".repeat(100_000)).is_err());
    }

    /// Characters that steer the parser into every branch.
    const ALPHABET: &[u8] = b"{}[]\",:0123456789.-+eE tfnrual\\/\nx";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn random_json_alphabet_never_panics(
            picks in proptest::collection::vec(0..ALPHABET.len(), 0..96)
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
            let _ = parse(&text);
        }
    }
}
