//! The TPAL assembly lexer: a byte cursor handing out one token at a
//! time, identifiers as slices of the source.

use std::fmt;

use crate::asm::parser::ParseError;
use crate::isa::BinOp;

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Token<'a> {
    /// An identifier (register, label, or keyword). Interior hyphens are
    /// part of the identifier when immediately followed by an identifier
    /// character: `if-jump`, `sp-top`.
    Ident(&'a str),
    /// The magnitude of an integer literal, at most 2⁶³ (negation is
    /// handled by the parser).
    Int(u64),
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `.` (the empty annotation)
    Dot,
    /// `:=`
    Assign,
    /// `->` (register-map arrow)
    Arrow,
    /// A binary operator symbol.
    Op(BinOp),
    /// End of line (statement separator).
    Newline,
    /// The end of the source, on the line of the last token.
    End,
    /// No token starts here: [`Lexer::failed`] says why, and everything
    /// after is `Bad` too.
    Bad,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Int(n) => write!(f, "`{n}`"),
            Token::Colon => f.write_str("`:`"),
            Token::Semi => f.write_str("`;`"),
            Token::Comma => f.write_str("`,`"),
            Token::LBracket => f.write_str("`[`"),
            Token::RBracket => f.write_str("`]`"),
            Token::LBrace => f.write_str("`{`"),
            Token::RBrace => f.write_str("`}`"),
            Token::Dot => f.write_str("`.`"),
            Token::Assign => f.write_str("`:=`"),
            Token::Arrow => f.write_str("`->`"),
            Token::Op(op) => write!(f, "`{op}`"),
            Token::Newline => f.write_str("end of line"),
            Token::End | Token::Bad => f.write_str("end of input"),
        }
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

/// Whether a byte continues an identifier it is inside of: letters,
/// digits, `_`, and `%` (which opens one only before a letter).
const CONTINUES: [bool; 256] = {
    let mut table = [false; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = (c as u8).is_ascii_alphanumeric() || c as u8 == b'_' || c as u8 == b'%';
        c += 1;
    }
    table
};

/// The cursor. Lines are 1-based.
pub(super) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    /// Line of the last token handed out (0 before the first).
    last_line: u32,
    /// The error behind [`Token::Bad`].
    pub(super) failed: Option<ParseError>,
}

impl<'a> Lexer<'a> {
    pub(super) fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            last_line: 0,
            failed: None,
        }
    }

    /// The byte `ahead` positions past the cursor (0 past the end: no
    /// token contains a NUL).
    fn byte(&self, ahead: usize) -> u8 {
        *self.src.as_bytes().get(self.pos + ahead).unwrap_or(&0)
    }

    /// One token ending `len` bytes past the cursor.
    fn take(&mut self, len: usize, token: Token<'a>) -> Token<'a> {
        self.pos += len;
        token
    }

    /// Stops the lexer: this and every later token is [`Token::Bad`].
    fn fail(&mut self, msg: String) -> Token<'a> {
        self.failed.get_or_insert(ParseError {
            line: self.line,
            msg,
        });
        self.pos = self.src.len();
        Token::Bad
    }

    /// An identifier starting at the cursor. `%` opens one
    /// (compiler-generated scratch names such as `%abort`) only when
    /// immediately followed by an identifier character — the caller
    /// checked; inside one it always continues it. An interior hyphen
    /// or dot is part of the identifier only when the next character
    /// keeps the identifier going (`sp-top`, `main.acc`, `main.%t0`);
    /// with surrounding spaces they lex as operators/punctuation.
    fn ident(&mut self) -> Token<'a> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut end = start + 1;
        loop {
            while bytes.get(end).is_some_and(|&c| CONTINUES[usize::from(c)]) {
                end += 1;
            }
            match bytes.get(end..end + 2) {
                Some([b'-' | b'.', next]) if CONTINUES[usize::from(*next)] => end += 2,
                _ => break,
            }
        }
        self.pos = end;
        Token::Ident(&self.src[start..end])
    }

    /// An integer literal's magnitude. Beyond 2⁶³ no `i64` has it.
    fn int(&mut self) -> Token<'a> {
        let mut n: Option<u64> = Some(0);
        while self.byte(0).is_ascii_digit() {
            let d = u64::from(self.byte(0) - b'0');
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(d));
            self.pos += 1;
        }
        match n {
            Some(n) if n <= 1 << 63 => Token::Int(n),
            _ => self.fail(OUT_OF_RANGE.to_owned()),
        }
    }

    /// The next token and its line. A character that starts no token,
    /// or an integer literal no `i64` holds, ends the stream in
    /// [`Token::Bad`].
    pub(super) fn next(&mut self) -> (Token<'a>, u32) {
        // Blanks, and comments up to their newline (which is a token).
        loop {
            match self.byte(0) {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.byte(1) == b'/' => {
                    let rest = &self.src.as_bytes()[self.pos..];
                    self.pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                }
                _ => break,
            }
        }
        let line = self.line;
        let token = match self.byte(0) {
            0 if self.pos >= self.src.len() => {
                return (
                    if self.failed.is_some() {
                        Token::Bad
                    } else {
                        Token::End
                    },
                    self.last_line,
                )
            }
            b'\n' => {
                self.line += 1;
                self.take(1, Token::Newline)
            }
            b'/' => self.take(1, Token::Op(BinOp::Div)),
            c if is_ident_start(c) => self.ident(),
            b'%' if is_ident_start(self.byte(1)) => self.ident(),
            b'0'..=b'9' => self.int(),
            b':' if self.byte(1) == b'=' => self.take(2, Token::Assign),
            b':' => self.take(1, Token::Colon),
            b';' => self.take(1, Token::Semi),
            b',' => self.take(1, Token::Comma),
            b'[' => self.take(1, Token::LBracket),
            b']' => self.take(1, Token::RBracket),
            b'{' => self.take(1, Token::LBrace),
            b'}' => self.take(1, Token::RBrace),
            b'.' => self.take(1, Token::Dot),
            // The paper's `·` (U+00B7), two bytes in UTF-8.
            0xC2 if self.byte(1) == 0xB7 => self.take(2, Token::Dot),
            b'+' => self.take(1, Token::Op(BinOp::Add)),
            b'-' if self.byte(1) == b'>' => self.take(2, Token::Arrow),
            b'-' => self.take(1, Token::Op(BinOp::Sub)),
            b'*' => self.take(1, Token::Op(BinOp::Mul)),
            b'%' => self.take(1, Token::Op(BinOp::Mod)),
            b'&' => self.take(1, Token::Op(BinOp::And)),
            b'|' => self.take(1, Token::Op(BinOp::Or)),
            b'^' => self.take(1, Token::Op(BinOp::Xor)),
            b'<' if self.byte(1) == b'<' => self.take(2, Token::Op(BinOp::Shl)),
            b'<' if self.byte(1) == b'=' => self.take(2, Token::Op(BinOp::Le)),
            b'<' => self.take(1, Token::Op(BinOp::Lt)),
            b'>' if self.byte(1) == b'>' => self.take(2, Token::Op(BinOp::Shr)),
            b'>' if self.byte(1) == b'=' => self.take(2, Token::Op(BinOp::Ge)),
            b'>' => self.take(1, Token::Op(BinOp::Gt)),
            b'=' if self.byte(1) == b'=' => self.take(2, Token::Op(BinOp::EqOp)),
            b'!' if self.byte(1) == b'=' => self.take(2, Token::Op(BinOp::Ne)),
            _ => {
                let ch = self.src[self.pos..].chars().next().unwrap_or('\0');
                self.fail(format!("unexpected character `{ch}`"))
            }
        };
        self.last_line = line;
        (token, line)
    }
}

/// What is wrong with an integer literal outside its field's range.
pub(super) const OUT_OF_RANGE: &str = "integer literal out of range";

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Result<Vec<(Token<'_>, u32)>, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            match lexer.next() {
                (Token::End, _) => return Ok(out),
                (Token::Bad, _) => return Err(lexer.failed.take().expect("Bad has a reason")),
                t => out.push(t),
            }
        }
    }

    fn kinds(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.0).collect()
    }

    #[test]
    fn hyphenated_identifiers() {
        assert_eq!(
            kinds("if-jump sp-top assoc-comm"),
            vec![
                Token::Ident("if-jump"),
                Token::Ident("sp-top"),
                Token::Ident("assoc-comm"),
            ]
        );
    }

    #[test]
    fn spaced_minus_is_subtraction() {
        assert_eq!(
            kinds("a - 1"),
            vec![Token::Ident("a"), Token::Op(BinOp::Sub), Token::Int(1)]
        );
        // Digits continue identifiers, so `a-1` lexes as one identifier —
        // which is why the sources in this repository use underscores in
        // names.
        assert_eq!(kinds("a-1"), vec![Token::Ident("a-1")]);
    }

    #[test]
    fn assign_vs_colon() {
        assert_eq!(
            kinds("x := 1"),
            vec![Token::Ident("x"), Token::Assign, Token::Int(1)]
        );
        assert_eq!(kinds("lbl:"), vec![Token::Ident("lbl"), Token::Colon]);
    }

    #[test]
    fn arrow_and_comparison_operators() {
        assert_eq!(
            kinds("r -> r2"),
            vec![Token::Ident("r"), Token::Arrow, Token::Ident("r2")]
        );
        assert_eq!(kinds("<="), vec![Token::Op(BinOp::Le)]);
        assert_eq!(kinds("<<"), vec![Token::Op(BinOp::Shl)]);
        assert_eq!(kinds("=="), vec![Token::Op(BinOp::EqOp)]);
        assert_eq!(kinds("!="), vec![Token::Op(BinOp::Ne)]);
        assert_eq!(
            kinds("< > >= >>"),
            vec![
                Token::Op(BinOp::Lt),
                Token::Op(BinOp::Gt),
                Token::Op(BinOp::Ge),
                Token::Op(BinOp::Shr),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("x // comment text := 5\ny // to the end"),
            vec![Token::Ident("x"), Token::Newline, Token::Ident("y")]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\nc").unwrap();
        assert_eq!(toks[0].1, 1);
        assert_eq!(toks[2].1, 2);
        assert_eq!(toks[4].1, 3);
    }

    #[test]
    fn bad_character_reports_line() {
        for (src, ch) in [
            ("ok\n  $bad", '$'),
            ("ok\n = 1", '='),
            ("ok\n !x", '!'),
            ("\né", 'é'),
        ] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.line, 2);
            assert_eq!(err.msg, format!("unexpected character `{ch}`"));
        }
    }

    #[test]
    fn unicode_middle_dot_is_dot() {
        assert_eq!(kinds("[\u{00B7}]"), kinds("[.]"));
    }

    #[test]
    fn scoped_and_generated_names() {
        assert_eq!(
            kinds("main.acc %abort main.%t0 fib.%s2_jr"),
            vec![
                Token::Ident("main.acc"),
                Token::Ident("%abort"),
                Token::Ident("main.%t0"),
                Token::Ident("fib.%s2_jr"),
            ]
        );
        // Spaced `%` stays the operator; `[.]` stays the annotation.
        assert_eq!(
            kinds("a % 2"),
            vec![Token::Ident("a"), Token::Op(BinOp::Mod), Token::Int(2)]
        );
        assert_eq!(
            kinds("[.]"),
            vec![Token::LBracket, Token::Dot, Token::RBracket]
        );
        // Inside an identifier `%` always continues it; a trailing dot
        // or hyphen does not.
        assert_eq!(kinds("a%2"), vec![Token::Ident("a%2")]);
        assert_eq!(
            kinds("a. b-"),
            vec![
                Token::Ident("a"),
                Token::Dot,
                Token::Ident("b"),
                Token::Op(BinOp::Sub),
            ]
        );
    }

    #[test]
    fn literals_beyond_an_i64_are_rejected_with_their_line() {
        assert_eq!(
            kinds("9223372036854775807 9223372036854775808"),
            vec![Token::Int(i64::MAX as u64), Token::Int(1 << 63)]
        );
        for src in [
            "\n9223372036854775809",
            "\n99999999999999999999",
            "\n18446744073709551616",
        ] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.line, 2, "{src}");
            assert_eq!(err.msg, "integer literal out of range");
        }
    }
}
