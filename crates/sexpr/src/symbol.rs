//! [`Symbol`]: a name interned once per process.
//!
//! The reader interns every symbol it reads, and everything downstream —
//! the transformer's forms, the lowered AST, the heap's symbol table —
//! carries the handle instead of a copy of the text. Cloning a form,
//! comparing two names and hashing one cost a pointer each.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

/// An interned symbol name: a `Copy` handle to the one process-wide copy
/// of its text. Two symbols are equal exactly when their names are, so
/// equality and hashing go by address; ordering goes by name.
///
/// Each distinct name is leaked once, the first time it is interned: the
/// table is bounded by the distinct names the process ever interns.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

/// FxHash's step over 8-byte words: the interner hashes short names, and
/// this is what the table spends per lookup.
#[derive(Default)]
struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Table = HashSet<&'static str, BuildHasherDefault<NameHasher>>;

impl Symbol {
    /// The symbol named `name`, interning it on first use.
    pub fn intern(name: &str) -> Symbol {
        static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
        // `insert` is the set's only mutation, so a panic elsewhere
        // cannot leave it half-updated.
        let mut table =
            TABLE.get_or_init(Default::default).lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&known) = table.get(name) {
            return Symbol(known);
        }
        let leaked: &'static str = Box::leak(name.into());
        table.insert(leaked);
        Symbol(leaked)
    }

    /// The name, for the life of the process.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.as_ptr() as usize);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}

impl Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<&String> for Symbol {
    fn from(name: &String) -> Symbol {
        Symbol::intern(name)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_address_per_name() {
        let a = Symbol::intern("car");
        let b = Symbol::intern(&String::from("car"));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(a, Symbol::intern("cdr"));
        assert_eq!(a, "car");
        assert_eq!(format!("{a} {a:?} {a:>5}"), "car \"car\"   car");
    }

    #[test]
    fn order_is_by_name() {
        let mut v = [Symbol::intern("b"), Symbol::intern("c"), Symbol::intern("a")];
        v.sort();
        assert_eq!(v.map(Symbol::as_str), ["a", "b", "c"]);
    }
}
