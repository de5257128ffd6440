//! Reader: turns tokens into [`Sexpr`] data.

use std::iter::Peekable;

use crate::datum::Sexpr;
use crate::error::{ReadError, ReadErrorKind, Span};
use crate::lexer::{Lexer, Token, TokenKind};

/// A recursive-descent reader over a token stream. Each token is moved
/// out of the stream as it is read, symbol and string text included.
pub struct Parser {
    toks: Peekable<std::vec::IntoIter<Token>>,
    /// The span of the last token: where an unexpected end is reported.
    eof: Span,
}

impl Parser {
    /// Tokenize `src` and prepare to read from it.
    pub fn new(src: &str) -> Result<Self, ReadError> {
        let toks = Lexer::new(src).tokenize()?;
        let eof = toks.last().map(|t| t.span).unwrap_or_default();
        Ok(Parser { toks: toks.into_iter().peekable(), eof })
    }

    /// Read one datum. Returns `None` at end of input.
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
                            // `(a . (b c))` normalizes to `(a b c)`.
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
                        Some(t) => return Err(ReadError::new(ReadErrorKind::MalformedDot, t.span)),
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

    /// Read every remaining datum.
    pub fn read_all(&mut self) -> Result<Vec<Sexpr>, ReadError> {
        let mut out = Vec::new();
        while let Some(d) = self.read()? {
            out.push(d);
        }
        Ok(out)
    }
}

/// Parse exactly one datum from `src` (trailing data is an error only
/// in the sense that it is ignored; use [`parse_all`] to get all).
pub fn parse_one(src: &str) -> Result<Sexpr, ReadError> {
    let mut p = Parser::new(src)?;
    match p.read()? {
        Some(d) => Ok(d),
        None => Err(ReadError::new(ReadErrorKind::UnexpectedEof, Span::default())),
    }
}

/// Parse every datum in `src`.
pub fn parse_all(src: &str) -> Result<Vec<Sexpr>, ReadError> {
    Parser::new(src)?.read_all()
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
