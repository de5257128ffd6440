//! The [`Sexpr`] datum type: what the reader produces and the
//! transformer's code generator consumes.

use std::fmt::{self, Write as _};

use crate::Symbol;

/// An s-expression datum.
///
/// Lists are represented as vectors; a *dotted* list carries its final
/// non-nil tail separately in [`Sexpr::Dotted`]. The special constants
/// `nil` and `t` read as ordinary symbols — the evaluator, not the
/// reader, gives them meaning — except that `()` reads as the empty
/// [`Sexpr::List`].
#[derive(Debug, Clone, PartialEq)]
pub enum Sexpr {
    /// A symbol such as `defun` or `car`, interned.
    Sym(Symbol),
    /// A signed integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// A string literal (contents, unescaped).
    Str(String),
    /// A proper list `(a b c)`; `()` is the empty list.
    List(Vec<Sexpr>),
    /// A dotted list `(a b . c)`: at least one leading element plus a
    /// non-list tail.
    Dotted(Vec<Sexpr>, Box<Sexpr>),
}

impl Sexpr {
    /// Build a symbol datum, interning `name`.
    pub fn sym(name: impl AsRef<str>) -> Sexpr {
        Sexpr::Sym(Symbol::intern(name.as_ref()))
    }

    /// Build a proper list datum.
    pub fn list(items: Vec<Sexpr>) -> Sexpr {
        Sexpr::List(items)
    }

    /// The empty list `()` (which the evaluator treats as `nil`).
    pub fn nil() -> Sexpr {
        Sexpr::List(Vec::new())
    }

    /// True if this datum is the symbol `name`.
    pub fn is_symbol(&self, name: &str) -> bool {
        matches!(self, Sexpr::Sym(s) if *s == name)
    }

    /// The symbol's name, if this is a symbol.
    pub fn as_symbol(&self) -> Option<&str> {
        self.symbol().map(Symbol::as_str)
    }

    /// The symbol itself, if this is one.
    pub fn symbol(&self) -> Option<Symbol> {
        match self {
            Sexpr::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Sexpr::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The elements, if this is a proper list.
    pub fn as_list(&self) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List(items) => Some(items),
            _ => None,
        }
    }

    /// Number of elements if this is a proper list.
    pub fn list_len(&self) -> Option<usize> {
        self.as_list().map(<[Sexpr]>::len)
    }

    /// The `i`th element of a proper list.
    pub fn nth(&self, i: usize) -> Option<&Sexpr> {
        self.as_list().and_then(|items| items.get(i))
    }

    /// True for `()` — the reader's representation of `nil`.
    pub fn is_nil(&self) -> bool {
        matches!(self, Sexpr::List(v) if v.is_empty())
    }

    /// True if this is a proper list whose head is the symbol `name`,
    /// e.g. `e.is_call("defun")` for `(defun f ...)`.
    pub fn is_call(&self, name: &str) -> bool {
        self.nth(0).is_some_and(|h| h.is_symbol(name))
    }

    /// If this is `(name arg...)`, the argument slice.
    pub fn call_args(&self, name: &str) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List(items) if !items.is_empty() && items[0].is_symbol(name) => {
                Some(&items[1..])
            }
            _ => None,
        }
    }

    /// Visit every sub-datum, outermost first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Sexpr)) {
        f(self);
        match self {
            Sexpr::List(items) => {
                for it in items {
                    it.walk(f);
                }
            }
            Sexpr::Dotted(items, tail) => {
                for it in items {
                    it.walk(f);
                }
                tail.walk(f);
            }
            _ => {}
        }
    }
}

/// The escape a string literal writes for `c`, if any.
fn escape(c: char) -> Option<&'static str> {
    match c {
        '"' => Some("\\\""),
        '\\' => Some("\\\\"),
        '\n' => Some("\\n"),
        '\t' => Some("\\t"),
        '\r' => Some("\\r"),
        _ => None,
    }
}

fn escape_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match escape(c) {
            Some(e) => out.push_str(e),
            None => out.push(c),
        }
    }
    out.push('"');
}

/// Render a float so that it reads back as a float (always contains
/// `.`, `e`, or a non-finite marker).
fn write_float(x: f64, out: &mut String) {
    if x.is_nan() {
        out.push_str("+nan.0");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "+inf.0" } else { "-inf.0" });
    } else {
        let s = format!("{x}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

impl Sexpr {
    /// Write the canonical single-line form into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Sexpr::Sym(s) => out.push_str(s),
            Sexpr::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Sexpr::Float(x) => write_float(*x, out),
            Sexpr::Str(s) => escape_str(s, out),
            Sexpr::List(items) => {
                // `(quote x)` prints with the reader shorthand `'x`.
                if items.len() == 2 && items[0].is_symbol("quote") {
                    out.push('\'');
                    items[1].write(out);
                    return;
                }
                out.push('(');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    it.write(out);
                }
                out.push(')');
            }
            Sexpr::Dotted(items, tail) => {
                out.push('(');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    it.write(out);
                }
                out.push_str(" . ");
                tail.write(out);
                out.push(')');
            }
        }
    }

    /// The byte length of what [`Sexpr::write`] writes, if it is at
    /// most `room`: a length walk that stops once the budget is spent,
    /// without rendering.
    pub(crate) fn flat_len_within(&self, room: usize) -> Option<usize> {
        let mut left = room;
        self.spend(&mut left).then(|| room - left)
    }

    /// Take this datum's written length out of `left`; false once it
    /// does not fit.
    fn spend(&self, left: &mut usize) -> bool {
        fn take(left: &mut usize, n: usize) -> bool {
            left.checked_sub(n).map(|rest| *left = rest).is_some()
        }
        match self {
            Sexpr::Sym(s) => take(left, s.len()),
            Sexpr::Int(i) => {
                let digits = i.unsigned_abs().checked_ilog10().map_or(1, |d| d as usize + 1);
                take(left, usize::from(*i < 0) + digits)
            }
            Sexpr::Float(x) => {
                let mut s = String::new();
                write_float(*x, &mut s);
                take(left, s.len())
            }
            Sexpr::Str(s) => {
                let body: usize = s.chars().map(|c| escape(c).map_or(c.len_utf8(), str::len)).sum();
                take(left, body + 2)
            }
            Sexpr::List(items) if items.len() == 2 && items[0].is_symbol("quote") => {
                take(left, 1) && items[1].spend(left)
            }
            Sexpr::List(items) => {
                take(left, items.len().saturating_sub(1) + 2)
                    && items.iter().all(|it| it.spend(left))
            }
            Sexpr::Dotted(items, tail) => {
                take(left, items.len().saturating_sub(1) + 5)
                    && items.iter().all(|it| it.spend(left))
                    && tail.spend(left)
            }
        }
    }
}

impl fmt::Display for Sexpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sx(s: &str) -> Sexpr {
        Sexpr::sym(s)
    }

    #[test]
    fn symbol_predicates() {
        let e = sx("car");
        assert!(e.is_symbol("car"));
        assert!(!e.is_symbol("cdr"));
        assert_eq!(e.as_symbol(), Some("car"));
        assert!(Sexpr::Int(3).as_symbol().is_none());
    }

    #[test]
    fn list_accessors() {
        let e = Sexpr::list(vec![sx("f"), Sexpr::Int(1), Sexpr::Int(2)]);
        assert_eq!(e.list_len(), Some(3));
        assert_eq!(e.nth(1), Some(&Sexpr::Int(1)));
        assert!(e.nth(3).is_none());
        assert!(e.is_call("f"));
        assert_eq!(e.call_args("f").unwrap().len(), 2);
        assert!(e.call_args("g").is_none());
    }

    #[test]
    fn nil_is_empty_list() {
        assert!(Sexpr::nil().is_nil());
        assert!(!Sexpr::list(vec![sx("x")]).is_nil());
        assert!(!sx("nil").is_nil(), "the symbol nil is distinct from ()");
    }

    #[test]
    fn nested_shape_displays() {
        let e =
            Sexpr::list(vec![sx("f"), Sexpr::list(vec![sx("g"), Sexpr::Int(1)]), Sexpr::Int(2)]);
        assert_eq!(e.to_string(), "(f (g 1) 2)");
        assert_eq!(sx("x").to_string(), "x");
    }

    #[test]
    fn display_round_trip_shapes() {
        let e =
            Sexpr::list(vec![sx("setf"), Sexpr::list(vec![sx("cadr"), sx("l")]), Sexpr::Int(42)]);
        assert_eq!(e.to_string(), "(setf (cadr l) 42)");
    }

    #[test]
    fn dotted_display() {
        let e = Sexpr::Dotted(vec![sx("a"), sx("b")], Box::new(sx("c")));
        assert_eq!(e.to_string(), "(a b . c)");
    }

    #[test]
    fn string_escapes() {
        let e = Sexpr::Str("a\"b\\c\nd".into());
        assert_eq!(e.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn float_display_reads_back_as_float() {
        assert_eq!(Sexpr::Float(1.0).to_string(), "1.0");
        assert_eq!(Sexpr::Float(1.5).to_string(), "1.5");
        assert_eq!(Sexpr::Float(f64::INFINITY).to_string(), "+inf.0");
        assert_eq!(Sexpr::Float(f64::NEG_INFINITY).to_string(), "-inf.0");
        assert_eq!(Sexpr::Float(f64::NAN).to_string(), "+nan.0");
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Sexpr::list(vec![sx("f"), Sexpr::list(vec![sx("g"), sx("h")])]);
        let mut names = Vec::new();
        e.walk(&mut |d| {
            if let Some(s) = d.as_symbol() {
                names.push(s.to_string());
            }
        });
        assert_eq!(names, ["f", "g", "h"]);
    }
}
