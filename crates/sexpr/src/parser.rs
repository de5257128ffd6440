//! Reader: turns source text into [`Sexpr`] data in one pass.
//!
//! The lexer hands each token to the list builder as it is read; no
//! token vector is built. A text that does not read fails with the
//! error reading it to the end would: a lexical error (an unterminated
//! string, a bad escape) anywhere in the text comes before a structural
//! one, and [`parse_one`] checks the text after its datum for one.

use crate::datum::Sexpr;
use crate::error::{ReadError, ReadErrorKind, Span};
use crate::lexer::{Lexer, Token, TokenKind};

/// How deep data may nest, counting lists and quote prefixes alike.
/// Every layer after the reader recurses over the tree it reads; at
/// this depth all of them (lowering, analysis, the transform, the
/// printer, the checker, the compiler and both engines) complete on a
/// 2 MiB thread, the stack of a test thread, in an unoptimised build.
/// Deeper text is a read error rather than a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A recursive-descent reader pulling tokens from a [`Lexer`].
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The span of the last token read: at the end of the input, where
    /// an unexpected end is reported.
    last: Span,
    /// Lists and quote prefixes open around the datum being read.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Prepare to read from `src`.
    pub fn new(src: &'a str) -> Self {
        Parser { lexer: Lexer::new(src), last: Span::default(), depth: 0 }
    }

    /// Read one datum. Returns `None` at end of input.
    pub fn read(&mut self) -> Result<Option<Sexpr>, ReadError> {
        let read = match self.next() {
            Ok(Some(tok)) => self.datum(tok).map(Some),
            other => return other.map(|_| None),
        };
        // A structural error gives way to a lexical one further on.
        read.map_err(|e| match e.kind {
            ReadErrorKind::UnterminatedString | ReadErrorKind::BadEscape(_) => e,
            _ => self.lexer.first_error().unwrap_or(e),
        })
    }

    /// The next token, remembering its span.
    fn next(&mut self) -> Result<Option<Token>, ReadError> {
        let tok = self.lexer.next_token()?;
        if let Some(t) = &tok {
            self.last = t.span;
        }
        Ok(tok)
    }

    /// The next token, which must exist: the end of input in the middle
    /// of a datum is reported at the last token.
    fn more(&mut self) -> Result<Token, ReadError> {
        self.next()?.ok_or(ReadError::new(ReadErrorKind::UnexpectedEof, self.last))
    }

    /// The datum that starts with `tok`.
    fn datum(&mut self, tok: Token) -> Result<Sexpr, ReadError> {
        let prefixed = |head: &str, this: &mut Self| match this.next()? {
            Some(next) => Ok(Sexpr::List(vec![Sexpr::sym(head), this.datum(next)?])),
            None => Err(ReadError::new(ReadErrorKind::UnexpectedEof, tok.span)),
        };
        let nested = match tok.kind {
            TokenKind::Int(i) => return Ok(Sexpr::Int(i)),
            TokenKind::Float(x) => return Ok(Sexpr::Float(x)),
            TokenKind::Str(s) => return Ok(Sexpr::Str(s)),
            TokenKind::Sym(s) => return Ok(Sexpr::Sym(s)),
            TokenKind::Close => {
                return Err(ReadError::new(ReadErrorKind::UnexpectedClose, tok.span))
            }
            TokenKind::Dot => return Err(ReadError::new(ReadErrorKind::MalformedDot, tok.span)),
            kind => kind,
        };
        if self.depth == MAX_DEPTH {
            return Err(ReadError::new(ReadErrorKind::TooDeep, tok.span));
        }
        self.depth += 1;
        let datum = match nested {
            TokenKind::Quote => prefixed("quote", self),
            TokenKind::SharpQuote => prefixed("function", self),
            _ => self.read_list(tok.span),
        };
        self.depth -= 1;
        datum
    }

    fn read_list(&mut self, open: Span) -> Result<Sexpr, ReadError> {
        let mut items = Vec::new();
        loop {
            let tok = self.more()?;
            match tok.kind {
                TokenKind::Close => return Ok(Sexpr::List(items)),
                TokenKind::Dot if items.is_empty() => {
                    return Err(ReadError::new(ReadErrorKind::MalformedDot, tok.span))
                }
                TokenKind::Dot => {
                    let first = self.more()?;
                    let tail = self.datum(first)?;
                    return match self.next()? {
                        // `(a . (b c))` normalizes to `(a b c)`.
                        Some(t) if t.kind == TokenKind::Close => Ok(match tail {
                            Sexpr::List(rest) => {
                                items.extend(rest);
                                Sexpr::List(items)
                            }
                            Sexpr::Dotted(rest, tail2) => {
                                items.extend(rest);
                                Sexpr::Dotted(items, tail2)
                            }
                            atom => Sexpr::Dotted(items, Box::new(atom)),
                        }),
                        Some(t) => Err(ReadError::new(ReadErrorKind::MalformedDot, t.span)),
                        None => {
                            Err(ReadError::new(ReadErrorKind::UnexpectedEof, open.merge(tok.span)))
                        }
                    };
                }
                _ => items.push(self.datum(tok)?),
            }
        }
    }

    /// Read every remaining datum.
    pub fn read_all(&mut self) -> Result<Vec<Sexpr>, ReadError> {
        let mut out = Vec::new();
        while let Some(d) = self.read()? {
            out.push(d);
        }
        Ok(out)
    }
}

/// Parse exactly one datum from `src` (trailing data is ignored as long
/// as it lexes; use [`parse_all`] to get all).
pub fn parse_one(src: &str) -> Result<Sexpr, ReadError> {
    let mut p = Parser::new(src);
    match p.read()? {
        Some(d) => p.lexer.first_error().map_or(Ok(d), Err),
        None => Err(ReadError::new(ReadErrorKind::UnexpectedEof, Span::default())),
    }
}

/// Parse every datum in `src`.
pub fn parse_all(src: &str) -> Result<Vec<Sexpr>, ReadError> {
    Parser::new(src).read_all()
}

/// The reader as it was before it read in one pass: the whole text
/// tokenized into a vector first, then read from it. The one-pass
/// reader must give what this gives — data, error kinds and spans.
#[cfg(test)]
pub(crate) mod two_pass {
    use std::iter::Peekable;

    use super::*;

    pub struct Parser {
        toks: Peekable<std::vec::IntoIter<Token>>,
        eof: Span,
    }

    impl Parser {
        pub fn new(src: &str) -> Result<Self, ReadError> {
            let toks = Lexer::new(src).tokenize()?;
            let eof = toks.last().map(|t| t.span).unwrap_or_default();
            Ok(Parser { toks: toks.into_iter().peekable(), eof })
        }

        pub fn read(&mut self) -> Result<Option<Sexpr>, ReadError> {
            let Some(tok) = self.toks.next() else { return Ok(None) };
            match tok.kind {
                TokenKind::Int(i) => Ok(Some(Sexpr::Int(i))),
                TokenKind::Float(x) => Ok(Some(Sexpr::Float(x))),
                TokenKind::Str(s) => Ok(Some(Sexpr::Str(s))),
                TokenKind::Sym(s) => Ok(Some(Sexpr::Sym(s))),
                TokenKind::Quote => {
                    let Some(quoted) = self.read()? else {
                        return Err(ReadError::new(ReadErrorKind::UnexpectedEof, tok.span));
                    };
                    Ok(Some(Sexpr::List(vec![Sexpr::sym("quote"), quoted])))
                }
                TokenKind::SharpQuote => {
                    let Some(named) = self.read()? else {
                        return Err(ReadError::new(ReadErrorKind::UnexpectedEof, tok.span));
                    };
                    Ok(Some(Sexpr::List(vec![Sexpr::sym("function"), named])))
                }
                TokenKind::Open => self.read_list(tok.span).map(Some),
                TokenKind::Close => Err(ReadError::new(ReadErrorKind::UnexpectedClose, tok.span)),
                TokenKind::Dot => Err(ReadError::new(ReadErrorKind::MalformedDot, tok.span)),
            }
        }

        fn read_list(&mut self, open: Span) -> Result<Sexpr, ReadError> {
            let mut items = Vec::new();
            loop {
                match self.toks.peek() {
                    None => return Err(ReadError::new(ReadErrorKind::UnexpectedEof, self.eof)),
                    Some(t) if t.kind == TokenKind::Close => {
                        self.toks.next();
                        return Ok(Sexpr::List(items));
                    }
                    Some(t) if t.kind == TokenKind::Dot => {
                        let dot_span = t.span;
                        self.toks.next();
                        if items.is_empty() {
                            return Err(ReadError::new(ReadErrorKind::MalformedDot, dot_span));
                        }
                        let Some(tail) = self.read()? else {
                            return Err(ReadError::new(ReadErrorKind::UnexpectedEof, self.eof));
                        };
                        match self.toks.next() {
                            Some(t) if t.kind == TokenKind::Close => {
                                return Ok(match tail {
                                    Sexpr::List(rest) => {
                                        items.extend(rest);
                                        Sexpr::List(items)
                                    }
                                    Sexpr::Dotted(rest, tail2) => {
                                        items.extend(rest);
                                        Sexpr::Dotted(items, tail2)
                                    }
                                    atom => Sexpr::Dotted(items, Box::new(atom)),
                                });
                            }
                            Some(t) => {
                                return Err(ReadError::new(ReadErrorKind::MalformedDot, t.span))
                            }
                            None => {
                                return Err(ReadError::new(
                                    ReadErrorKind::UnexpectedEof,
                                    open.merge(dot_span),
                                ))
                            }
                        }
                    }
                    Some(_) => {
                        let Some(item) = self.read()? else {
                            return Err(ReadError::new(ReadErrorKind::UnexpectedEof, self.eof));
                        };
                        items.push(item);
                    }
                }
            }
        }

        pub fn read_all(&mut self) -> Result<Vec<Sexpr>, ReadError> {
            let mut out = Vec::new();
            while let Some(d) = self.read()? {
                out.push(d);
            }
            Ok(out)
        }
    }

    pub fn parse_one(src: &str) -> Result<Sexpr, ReadError> {
        match Parser::new(src)?.read()? {
            Some(d) => Ok(d),
            None => Err(ReadError::new(ReadErrorKind::UnexpectedEof, Span::default())),
        }
    }

    pub fn parse_all(src: &str) -> Result<Vec<Sexpr>, ReadError> {
        Parser::new(src)?.read_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms() {
        assert_eq!(parse_one("42").unwrap(), Sexpr::Int(42));
        assert_eq!(parse_one("x").unwrap(), Sexpr::sym("x"));
        assert_eq!(parse_one("\"hi\"").unwrap(), Sexpr::Str("hi".into()));
    }

    #[test]
    fn nested_lists() {
        let e = parse_one("(a (b c) d)").unwrap();
        assert_eq!(e.to_string(), "(a (b c) d)");
    }

    #[test]
    fn empty_list_is_nil() {
        assert!(parse_one("()").unwrap().is_nil());
    }

    #[test]
    fn quote_expands() {
        assert_eq!(parse_one("'x").unwrap().to_string(), "'x");
        assert_eq!(parse_one("''x").unwrap().to_string(), "''x");
    }

    #[test]
    fn quoted_list() {
        assert_eq!(parse_one("'(a b)").unwrap().to_string(), "'(a b)");
    }

    #[test]
    fn sharp_quote_reads_as_function() {
        assert_eq!(parse_one("#'car").unwrap().to_string(), "(function car)");
        assert_eq!(parse_one("(mapcar #'car l)").unwrap().to_string(), "(mapcar (function car) l)");
        assert_eq!(parse_one("#'").unwrap_err().kind, ReadErrorKind::UnexpectedEof);
        // A bare # not followed by ' is still a symbol character.
        assert_eq!(parse_one("#foo").unwrap(), Sexpr::sym("#foo"));
    }

    #[test]
    fn dotted_pairs() {
        assert_eq!(parse_one("(a . b)").unwrap().to_string(), "(a . b)");
        // dotted list normalization
        assert_eq!(parse_one("(a . (b c))").unwrap().to_string(), "(a b c)");
        assert_eq!(parse_one("(a . (b . c))").unwrap().to_string(), "(a b . c)");
        assert_eq!(parse_one("(a . ())").unwrap().to_string(), "(a)");
    }

    #[test]
    fn dot_errors() {
        assert_eq!(parse_one("(. a)").unwrap_err().kind, ReadErrorKind::MalformedDot);
        assert_eq!(parse_one("(a . b c)").unwrap_err().kind, ReadErrorKind::MalformedDot);
        assert_eq!(parse_one(".").unwrap_err().kind, ReadErrorKind::MalformedDot);
    }

    #[test]
    fn close_and_eof_errors() {
        assert_eq!(parse_one(")").unwrap_err().kind, ReadErrorKind::UnexpectedClose);
        assert_eq!(parse_one("(a b").unwrap_err().kind, ReadErrorKind::UnexpectedEof);
        assert_eq!(parse_one("").unwrap_err().kind, ReadErrorKind::UnexpectedEof);
        assert_eq!(parse_one("'").unwrap_err().kind, ReadErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_all_reads_toplevel_sequence() {
        let v = parse_all("(a) (b) 3").unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], Sexpr::Int(3));
    }

    #[test]
    fn paper_figure_3_parses() {
        let src = "(defun f (l) (when l (print (car l)) (f (cdr l))))";
        let e = parse_one(src).unwrap();
        assert_eq!(e.to_string(), src);
    }

    /// Texts from the reader's whole vocabulary, about half of them
    /// malformed: unbalanced parentheses, stray and misplaced dots,
    /// dangling quotes, unterminated strings, bad escapes, comments and
    /// multi-line strings that move the line/column bookkeeping.
    fn generated_text(rng: &mut curare_testkit::Rng, malformed: bool) -> String {
        const PIECES: &[&str] = &[
            "(",
            "(",
            "(",
            ")",
            ")",
            ")",
            "'",
            "#'",
            ".",
            " . ",
            "a",
            "car",
            "x1",
            "1+",
            "-",
            "42",
            "-7",
            "2.5",
            "1e3",
            ".5",
            "+inf.0",
            "nan",
            "\"s\"",
            "\"a\\nb\"",
            "\"λ\"",
            "\"two\nlines\"",
            "\"bad\\q\"",
            "\"open",
            "; note\n",
            "\n",
            "  ",
            "\t",
            "#foo",
            "λx",
        ];
        const ATOMS: &[&str] = &[
            "a",
            "car",
            "x1",
            "1+",
            "-",
            "42",
            "-7",
            "2.5",
            "1e3",
            "+inf.0",
            "nan",
            "\"s\"",
            "\"a\\nb\"",
            "\"λ\"",
            "\"two\nlines\"",
            "#foo",
            "λx",
            "()",
        ];
        const GAPS: &[&str] = &[" ", " ", "\n", "\t ", " ; note\n"];
        let mut next = |n: usize| rng.below(n);
        let mut text = String::new();
        if malformed {
            for _ in 0..1 + next(24) {
                text.push_str(PIECES[next(PIECES.len())]);
                if next(3) == 0 {
                    text.push(' ');
                }
            }
            return text;
        }
        // Well-formed data: nested lists, quotes, dotted tails.
        fn datum(text: &mut String, depth: usize, next: &mut impl FnMut(usize) -> usize) {
            match next(if depth == 0 { 2 } else { 6 }) {
                0 | 1 => text.push_str(ATOMS[next(ATOMS.len())]),
                2 => {
                    text.push_str(["'", "#'"][next(2)]);
                    datum(text, depth - 1, next);
                }
                _ => {
                    text.push('(');
                    let n = next(4);
                    for i in 0..n {
                        if i > 0 {
                            text.push_str(GAPS[next(GAPS.len())]);
                        }
                        datum(text, depth - 1, next);
                    }
                    if n > 0 && next(4) == 0 {
                        text.push_str(" . ");
                        datum(text, depth - 1, next);
                    }
                    text.push(')');
                }
            }
        }
        for _ in 0..1 + next(3) {
            datum(&mut text, 4, &mut next);
            text.push_str(GAPS[next(GAPS.len())]);
        }
        text
    }

    /// The one-pass reader reads what the two-pass reader read: the
    /// same data, or the same error kind at the same span, from
    /// [`parse_all`], [`parse_one`] and datum by datum.
    #[test]
    fn one_pass_reads_what_two_passes_read() {
        let (mut malformed, mut read) = (0, 0);
        let mut rng = curare_testkit::Rng::new(0x5EED_0006_D1CE_F00D);
        for case in 0..6000 {
            let text = generated_text(&mut rng, case % 2 == 1);
            let all = parse_all(&text);
            assert_eq!(all, two_pass::parse_all(&text), "parse_all of {text:?}");
            assert_eq!(parse_one(&text), two_pass::parse_one(&text), "parse_one of {text:?}");
            if let Ok(mut two) = two_pass::Parser::new(&text) {
                let mut one = Parser::new(&text);
                loop {
                    let (a, b) = (one.read(), two.read());
                    assert_eq!(a, b, "datum by datum in {text:?}");
                    if !matches!(a, Ok(Some(_))) {
                        break;
                    }
                }
            }
            match all {
                Ok(_) => read += 1,
                Err(_) => malformed += 1,
            }
        }
        assert!(read > 2000 && malformed > 2000, "{read} read, {malformed} malformed");
    }

    /// Lists and quote prefixes nest to `MAX_DEPTH` and no deeper: the
    /// next level is a read error at the token that opens it.
    #[test]
    fn nesting_stops_at_max_depth() {
        let nested = |depth: usize| format!("{}x{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_one(&nested(MAX_DEPTH)).is_ok());
        let e = parse_all(&format!("(a\n {})", nested(MAX_DEPTH))).unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::TooDeep);
        assert_eq!((e.span.line, e.span.col), (2, 1 + MAX_DEPTH as u32), "{e}");
        assert!(parse_one(&format!("{}x", "'".repeat(MAX_DEPTH))).is_ok());
        let e = parse_one(&format!("{}x", "'".repeat(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!((e.kind, e.span.col), (ReadErrorKind::TooDeep, 1 + MAX_DEPTH as u32));
    }

    #[test]
    fn paper_figure_5_parses() {
        let src = "(defun f (l)
          (cond ((null l) nil)
                ((null (cdr l)) (f (cdr l)))
                (t (setf (cadr l) (+ (car l) (cadr l)))
                   (f (cdr l)))))";
        let e = parse_one(src).unwrap();
        assert!(e.is_call("defun"));
        assert_eq!(
            e.to_string(),
            "(defun f (l) (cond ((null l) nil) ((null (cdr l)) (f (cdr l))) \
             (t (setf (cadr l) (+ (car l) (cadr l))) (f (cdr l)))))"
        );
    }
}
