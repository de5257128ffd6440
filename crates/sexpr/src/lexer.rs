//! Tokenizer for the mini-Lisp reader.
//!
//! Produces [`Token`]s with byte spans on demand: the reader asks for
//! the next one as it builds its lists. Comments (`;` to end of line)
//! and whitespace separate tokens and are skipped.

use crate::error::{ReadError, ReadErrorKind, Span};
use crate::Symbol;

/// The kinds of token the reader distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `(`
    Open,
    /// `)`
    Close,
    /// `'` — quote shorthand.
    Quote,
    /// `#'` — function shorthand.
    SharpQuote,
    /// `.` — dotted-pair marker (only when it stands alone).
    Dot,
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A string literal, unescaped.
    Str(String),
    /// A symbol (identifier, operator name, `nil`, `t`, ...), interned.
    Sym(Symbol),
}

/// A token plus its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was read.
    pub kind: TokenKind,
    /// Where it was read from.
    pub span: Span,
}

/// A hand-written lexer over a source string. The column of a position
/// is its byte distance from the start of its line, so only a newline
/// costs bookkeeping.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    /// Byte offset of the first byte of the current line.
    line_start: usize,
}

fn is_delimiter(b: u8) -> bool {
    b.is_ascii_whitespace() || matches!(b, b'(' | b')' | b'\'' | b'"' | b';')
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1, line_start: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    /// The 1-based column of the current position.
    fn col(&self) -> u32 {
        (self.pos - self.line_start + 1) as u32
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    let rest = &self.bytes[self.pos..];
                    self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                }
                _ => break,
            }
        }
    }

    fn span_from(&self, start: usize, line: u32, col: u32) -> Span {
        Span::new(start, self.pos, line, col)
    }

    /// Move past the atom that starts here (it holds no newline: a
    /// newline is a delimiter).
    fn skip_atom(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&b| is_delimiter(b)).unwrap_or(rest.len());
    }

    fn read_string(&mut self, start: usize, line: u32, col: u32) -> Result<Token, ReadError> {
        // Opening quote already consumed.
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that means something.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| matches!(b, b'"' | b'\\' | b'\n'));
            let run = run.unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.bump() {
                None => {
                    return Err(ReadError::new(
                        ReadErrorKind::UnterminatedString,
                        self.span_from(start, line, col),
                    ))
                }
                Some(b'"') => {
                    return Ok(Token {
                        kind: TokenKind::Str(out),
                        span: self.span_from(start, line, col),
                    })
                }
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(c) => {
                        return Err(ReadError::new(
                            ReadErrorKind::BadEscape(c as char),
                            self.span_from(start, line, col),
                        ))
                    }
                    None => {
                        return Err(ReadError::new(
                            ReadErrorKind::UnterminatedString,
                            self.span_from(start, line, col),
                        ))
                    }
                },
                // The run stopped at a newline.
                Some(b) => out.push(b as char),
            }
        }
    }

    fn read_atom(&mut self, start: usize, line: u32, col: u32) -> Result<Token, ReadError> {
        self.skip_atom();
        let text = &self.src[start..self.pos];
        let span = self.span_from(start, line, col);
        debug_assert!(!text.is_empty());
        if text == "." {
            return Ok(Token { kind: TokenKind::Dot, span });
        }
        // Numbers: a token with a digit may be an i64, then an f64
        // (Rust's float parser also takes `inf`, `nan` and `infinity`,
        // which are symbols here); anything else is a symbol. The
        // special non-finite spellings are accepted for round-tripping.
        match text {
            "+inf.0" => return Ok(Token { kind: TokenKind::Float(f64::INFINITY), span }),
            "-inf.0" => return Ok(Token { kind: TokenKind::Float(f64::NEG_INFINITY), span }),
            "+nan.0" => return Ok(Token { kind: TokenKind::Float(f64::NAN), span }),
            _ => {}
        }
        if text.bytes().any(|b| b.is_ascii_digit()) {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Token { kind: TokenKind::Int(i), span });
            }
            if let Ok(x) = text.parse::<f64>() {
                return Ok(Token { kind: TokenKind::Float(x), span });
            }
        }
        // Anything else — including Lisp classics like `1+` — is a symbol.
        Ok(Token { kind: TokenKind::Sym(Symbol::intern(text)), span })
    }

    /// Read the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> Result<Option<Token>, ReadError> {
        self.skip_trivia();
        let (start, line, col) = (self.pos, self.line, self.col());
        let Some(b) = self.peek() else { return Ok(None) };
        match b {
            b'(' => {
                self.bump();
                Ok(Some(Token { kind: TokenKind::Open, span: self.span_from(start, line, col) }))
            }
            b')' => {
                self.bump();
                Ok(Some(Token { kind: TokenKind::Close, span: self.span_from(start, line, col) }))
            }
            b'\'' => {
                self.bump();
                Ok(Some(Token { kind: TokenKind::Quote, span: self.span_from(start, line, col) }))
            }
            b'#' if self.bytes.get(self.pos + 1) == Some(&b'\'') => {
                self.bump();
                self.bump();
                Ok(Some(Token {
                    kind: TokenKind::SharpQuote,
                    span: self.span_from(start, line, col),
                }))
            }
            b'"' => {
                self.bump();
                self.read_string(start, line, col).map(Some)
            }
            _ => self.read_atom(start, line, col).map(Some),
        }
    }

    /// Tokenize the whole input.
    #[cfg(test)]
    pub(crate) fn tokenize(mut self) -> Result<Vec<Token>, ReadError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    /// The first error in the rest of the input, if any: what reading
    /// it to the end would stop at. Nothing is interned or parsed, only
    /// strings are checked.
    pub fn first_error(&mut self) -> Option<ReadError> {
        loop {
            self.skip_trivia();
            let (start, line, col) = (self.pos, self.line, self.col());
            match self.bump()? {
                b'"' => {
                    if let Err(e) = self.read_string(start, line, col) {
                        return Some(e);
                    }
                }
                b'(' | b')' | b'\'' => {}
                _ => self.skip_atom(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn sym(name: &str) -> TokenKind {
        TokenKind::Sym(Symbol::intern(name))
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("(f 1 2.5)"),
            vec![
                TokenKind::Open,
                sym("f"),
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Close
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("(a ; comment (ignored)\n b)"),
            vec![TokenKind::Open, sym("a"), sym("b"), TokenKind::Close]
        );
    }

    #[test]
    fn quote_token() {
        assert_eq!(kinds("'x"), vec![TokenKind::Quote, sym("x")]);
    }

    #[test]
    fn dot_token_only_when_alone() {
        assert_eq!(
            kinds("(a . b)"),
            vec![TokenKind::Open, sym("a"), TokenKind::Dot, sym("b"), TokenKind::Close]
        );
        // "a.b" is a symbol, not a dotted pair.
        assert_eq!(kinds("a.b"), vec![sym("a.b")]);
    }

    #[test]
    fn negative_numbers_and_symbols() {
        assert_eq!(kinds("-5"), vec![TokenKind::Int(-5)]);
        assert_eq!(kinds("-5.5"), vec![TokenKind::Float(-5.5)]);
        assert_eq!(kinds("-"), vec![sym("-")]);
        assert_eq!(kinds("+"), vec![sym("+")]);
        assert_eq!(kinds("1+"), vec![sym("1+")]);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""a\"b\nc""#), vec![TokenKind::Str("a\"b\nc".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        let err = Lexer::new("\"abc").tokenize().unwrap_err();
        assert_eq!(err.kind, ReadErrorKind::UnterminatedString);
    }

    #[test]
    fn bad_escape_errors() {
        let err = Lexer::new(r#""a\qb""#).tokenize().unwrap_err();
        assert_eq!(err.kind, ReadErrorKind::BadEscape('q'));
    }

    #[test]
    fn spans_track_lines() {
        let toks = Lexer::new("a\n  bb").tokenize().unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[0].span.col, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
        assert_eq!(toks[1].span.start, 4);
        assert_eq!(toks[1].span.end, 6);
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(kinds("\"λx\""), vec![TokenKind::Str("λx".into())]);
    }

    #[test]
    fn special_floats() {
        assert_eq!(kinds("+inf.0"), vec![TokenKind::Float(f64::INFINITY)]);
        match &kinds("+nan.0")[0] {
            TokenKind::Float(x) => assert!(x.is_nan()),
            k => panic!("expected float, got {k:?}"),
        }
    }

    /// Rust's `f64` parser takes `inf`, `NaN` and `infinity` in any
    /// case; only a token with a digit is a number here.
    #[test]
    fn float_words_are_symbols() {
        for word in ["inf", "NaN", "nan", "infinity", "-inf", "+Infinity"] {
            assert_eq!(kinds(word), vec![sym(word)], "{word}");
        }
        assert_eq!(kinds("1e5"), vec![TokenKind::Float(1e5)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Float(0.5)]);
        assert_eq!(kinds("1+"), vec![sym("1+")]);
        assert_eq!(kinds("+"), vec![sym("+")]);
        assert_eq!(kinds("-"), vec![sym("-")]);
        assert_eq!(kinds("-inf.0"), vec![TokenKind::Float(f64::NEG_INFINITY)]);
    }
}
