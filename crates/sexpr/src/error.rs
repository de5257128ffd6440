//! Reader errors with source positions.

use std::fmt;

/// A half-open byte range into the source text, with 1-based line and
/// column of its start for human-readable diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
    /// 1-based column number of `start`.
    pub col: u32,
}

impl Span {
    /// Construct a span covering `start..end` at the given line/column.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Span { start, end, line, col }
    }

    /// A span that covers both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
            col: if self.line <= other.line { self.col } else { other.col },
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// The ways reading an s-expression can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadErrorKind {
    /// An unterminated string literal.
    UnterminatedString,
    /// A `)` with no matching `(`.
    UnexpectedClose,
    /// Ran out of input inside an open list.
    UnexpectedEof,
    /// A malformed dotted pair such as `(a . b c)` or `(. x)`.
    MalformedDot,
    /// A token that is not a valid number, symbol, or string.
    BadToken(String),
    /// Invalid escape sequence inside a string literal.
    BadEscape(char),
    /// A list or quote nested deeper than [`crate::parser::MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ReadErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadErrorKind::UnterminatedString => write!(f, "unterminated string literal"),
            ReadErrorKind::UnexpectedClose => write!(f, "unexpected ')'"),
            ReadErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ReadErrorKind::MalformedDot => write!(f, "malformed dotted pair"),
            ReadErrorKind::BadToken(t) => write!(f, "bad token: {t:?}"),
            ReadErrorKind::BadEscape(c) => write!(f, "bad string escape: \\{c}"),
            ReadErrorKind::TooDeep => {
                write!(f, "nested deeper than {} levels", crate::parser::MAX_DEPTH)
            }
        }
    }
}

/// A reader error: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// The kind of failure.
    pub kind: ReadErrorKind,
    /// Where in the source it happened.
    pub span: Span,
}

impl ReadError {
    /// Construct an error of `kind` at `span`.
    pub fn new(kind: ReadErrorKind, span: Span) -> Self {
        ReadError { kind, span }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "read error at {}: {}", self.span, self.kind)
    }
}

impl std::error::Error for ReadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_takes_union() {
        let a = Span::new(3, 7, 1, 4);
        let b = Span::new(10, 15, 2, 1);
        let m = a.merge(b);
        assert_eq!(m.start, 3);
        assert_eq!(m.end, 15);
        assert_eq!(m.line, 1);
        assert_eq!(m.col, 4);
    }

    #[test]
    fn span_merge_is_commutative_on_range() {
        let a = Span::new(3, 7, 1, 4);
        let b = Span::new(10, 15, 2, 1);
        let m1 = a.merge(b);
        let m2 = b.merge(a);
        assert_eq!(m1.start, m2.start);
        assert_eq!(m1.end, m2.end);
    }

    #[test]
    fn display_formats_location() {
        let e = ReadError::new(ReadErrorKind::UnexpectedClose, Span::new(0, 1, 3, 9));
        let s = e.to_string();
        assert!(s.contains("3:9"), "{s}");
        assert!(s.contains("unexpected ')'"), "{s}");
    }

    #[test]
    fn display_bad_token_quotes_text() {
        let e = ReadError::new(ReadErrorKind::BadToken("#<junk>".into()), Span::default());
        assert!(e.to_string().contains("#<junk>"));
    }
}
