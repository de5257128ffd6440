//! S-expression reader and printer for the Curare reproduction.
//!
//! This crate implements the textual substrate of the mini-Lisp used
//! throughout the repository: a lexer ([`lexer`]), a reader producing
//! [`Sexpr`] data ([`parser`]), and a pretty printer ([`printer`]).
//! Symbols are interned as they are read: a [`Symbol`] is a `Copy`
//! handle to the one copy of its name.
//!
//! The dialect is the subset of Common Lisp / Scheme that the paper's
//! examples use: symbols, integers, floats, strings, `'quote`
//! shorthand, and proper or dotted lists.
//!
//! # Example
//!
//! ```
//! use curare_sexpr::{parse_one, Sexpr};
//!
//! let e = parse_one("(defun f (l) (when l (print (car l)) (f (cdr l))))").unwrap();
//! assert_eq!(e.list_len(), Some(4));
//! assert!(e.nth(0).unwrap().is_symbol("defun"));
//! assert_eq!(e.to_string(), "(defun f (l) (when l (print (car l)) (f (cdr l))))");
//! ```

pub mod datum;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
mod symbol;

pub use datum::Sexpr;
pub use error::{ReadError, ReadErrorKind, Span};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_all, parse_one, Parser, MAX_DEPTH};
pub use printer::{pretty, pretty_width};
pub use symbol::{AddressHasher, Symbol, SymbolMap};
