//! A minimal JSON value parser (no external dependencies — the build
//! environment has no registry access), sufficient to re-parse and
//! validate the Chrome `trace_event` files this crate renders.

use std::collections::BTreeMap;
use std::fmt;
use std::str::Chars;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order is not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value of object key `k`, if this is an object that has it.
    pub fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(k),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level and its callers read untrusted input on
/// 2 MiB thread stacks; the documents this workspace renders nest fewer
/// than 10.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    chars: Chars<'a>,
    /// One-character lookahead.
    peeked: Option<char>,
    /// Characters consumed (for error positions).
    pos: usize,
    /// Refuse integer literals beyond ±2⁵³ instead of rounding them
    /// ([`parse_exact`]).
    exact_ints: bool,
    /// Arrays and objects open around the value being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str, exact_ints: bool) -> Parser<'a> {
        Parser {
            chars: s.chars(),
            peeked: None,
            pos: 0,
            exact_ints,
            depth: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("JSON parse error at char {}: {what}", self.pos)
    }

    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.chars.next();
        }
        self.peeked
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        self.peeked = None;
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.next();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.next() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(self.err(&format!("expected `{c}`, got `{got}`"))),
            None => Err(self.err(&format!("expected `{c}`, got end of input"))),
        }
    }

    fn literal(&mut self, rest: &str, v: Json) -> Result<Json, String> {
        for c in rest.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        // Opening quote already consumed by the caller.
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs are not produced by our
                        // renderer; map unpaired surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) if (c as u32) < 0x20 => return Err(self.err("unescaped control character")),
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self, first: char) -> Result<Json, String> {
        let mut text = String::new();
        text.push(first);
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                text.push(c);
                self.next();
            } else {
                break;
            }
        }
        let n = text
            .parse::<f64>()
            .map_err(|_| self.err(&format!("bad number `{text}`")))?;
        if self.exact_ints && !text.contains(['.', 'e', 'E']) {
            let exact = text
                .parse::<i128>()
                .is_ok_and(|i| i.unsigned_abs() <= 1 << 53);
            if !exact {
                return Err(self.err(&format!(
                    "integer `{text}` is beyond +-2^53, the range a JSON number carries \
                     exactly; send it as a decimal string (\"{text}\")"
                )));
            }
        }
        Ok(Json::Num(n))
    }

    /// The rest of an array whose `[` is consumed.
    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.next();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// The rest of an object whose `{` is consumed.
    fn object(&mut self) -> Result<Json, String> {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.next();
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            self.expect('"')?;
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(map)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.next() {
            None => Err(self.err("expected a value, got end of input")),
            Some('n') => self.literal("ull", Json::Null),
            Some('t') => self.literal("rue", Json::Bool(true)),
            Some('f') => self.literal("alse", Json::Bool(false)),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some(open @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == '[' {
                    self.array()?
                } else {
                    self.object()?
                };
                self.depth -= 1;
                Ok(v)
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(c),
            Some(c) => Err(self.err(&format!("unexpected `{c}`"))),
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected, arrays and objects nested at most 128 deep).
pub fn parse(s: &str) -> Result<Json, String> {
    parse_with(s, false)
}

/// [`parse`] for documents whose integers must arrive as written: an
/// integer literal beyond ±2⁵³ — where the `f64` behind [`Json::Num`]
/// starts rounding to a neighbour — is an error naming the literal, not
/// a silently different number. Fractions and exponent forms parse as in
/// [`parse`].
pub fn parse_exact(s: &str) -> Result<Json, String> {
    parse_with(s, true)
}

fn parse_with(s: &str, exact_ints: bool) -> Result<Json, String> {
    let mut p = Parser::new(s, exact_ints);
    let v = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(v),
        Some(c) => Err(p.err(&format!("trailing `{c}` after document"))),
    }
}

/// Escapes a string for embedding in JSON output (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s).expect("writing to a String cannot fail");
    out
}

/// [`escape`], appended to a writer instead of returned.
///
/// # Errors
///
/// Whatever the writer returns.
pub fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    // Runs that need no escaping are written whole.
    let mut rest = s;
    while let Some(at) = rest.find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20) {
        out.write_str(&rest[..at])?;
        match rest.as_bytes()[at] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{c:04x}")?,
        }
        rest = &rest[at + 1..];
    }
    out.write_str(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[1].as_num(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(v.get("b"), Some(&Json::Obj(Default::default())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"\\x\""] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// `parse_exact` differs from `parse` only on integer literals the
    /// `f64` reader would round.
    #[test]
    fn exact_parse_refuses_integers_f64_would_round() {
        for ok in ["9007199254740992", "-9007199254740992", "[1, 2.5, 1e300]"] {
            assert_eq!(parse_exact(ok), parse(ok), "{ok}");
        }
        for bad in [
            "9007199254740993",
            "-9007199254740993",
            "[18446744073709551615]",
        ] {
            assert!(parse(bad).is_ok());
            let e = parse_exact(bad).unwrap_err();
            assert!(e.contains("decimal string"), "{bad}: {e}");
        }
        assert!(parse_exact("1-2").unwrap_err().contains("bad number"));
    }

    /// The limit itself parses on the smallest stack a caller runs on
    /// (a spawned thread's 2 MiB), one level more is the ordinary error,
    /// and a megabyte of openers is that error, not a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
                    for parse in [parse, parse_exact] {
                        assert!(parse(&nested(open, close, MAX_DEPTH)).is_ok());
                        let e = parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
                        assert_eq!(
                            e,
                            format!(
                                "JSON parse error at char {}: nesting deeper than 128",
                                open.len() * MAX_DEPTH + 1
                            )
                        );
                        let flood = open.repeat((1 << 20) / open.len());
                        assert!(parse(&flood).unwrap_err().contains("nesting deeper"));
                    }
                }
                // Siblings do not accumulate: depth is what is open now.
                let wide = format!("[{}[]]", "[[]],".repeat(1000));
                assert!(parse(&wide).is_ok());
            })
            .expect("spawn")
            .join()
            .expect("no panic, no overflow");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "a\"b\\c\nd\te\u{1}";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
    }
}
