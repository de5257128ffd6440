//! [`Symbol`]: a name interned once per process.
//!
//! The reader interns every symbol it reads, and everything downstream —
//! the transformer's forms, the lowered AST, the heap's symbol table —
//! carries the handle instead of a copy of the text. Cloning a form,
//! comparing two names and hashing one cost a pointer each.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
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

/// A hasher for keys that hash as one address: a [`Symbol`], a pointer.
/// One multiply spreads the address over the high bits the table's
/// control bytes read, and the fold brings them down to the low bits
/// its buckets are chosen by (an address's own low bits are alignment).
#[derive(Default)]
pub struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by [`Symbol`], hashed by the symbol's address.
pub type SymbolMap<V> = HashMap<Symbol, V, BuildHasherDefault<AddressHasher>>;

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

thread_local! {
    /// The names this thread has interned, each the process table's own
    /// copy: a name found here costs no lock.
    static SEEN: RefCell<Table> = RefCell::default();
}

impl Symbol {
    /// The symbol named `name`, interning it on first use.
    pub fn intern(name: &str) -> Symbol {
        let cached = SEEN.try_with(|seen| {
            if let Some(&known) = seen.borrow().get(name) {
                return Symbol(known);
            }
            let shared = Symbol::intern_shared(name);
            seen.borrow_mut().insert(shared.0);
            shared
        });
        // A thread tearing its locals down still interns, unhurried.
        cached.unwrap_or_else(|_| Symbol::intern_shared(name))
    }

    /// `name` looked up in, or added to, the one process-wide table.
    fn intern_shared(name: &str) -> Symbol {
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

    /// The second intern of a name on a thread is answered by the
    /// thread's cache: it must be the name's own handle, the one another
    /// thread got from the process table.
    #[test]
    fn a_name_found_in_the_thread_cache_is_its_own() {
        let names: Vec<String> = (0..200).map(|i| format!("cached-{}", i * 7 % 13)).collect();
        let first: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        let elsewhere: Vec<Symbol> = std::thread::spawn(|| {
            (0..13).map(|i| Symbol::intern(&format!("cached-{i}"))).collect()
        })
        .join()
        .unwrap();
        for (name, &sym) in names.iter().zip(&first) {
            let again = Symbol::intern(name);
            assert_eq!(again.as_str(), name.as_str());
            assert!(std::ptr::eq(again.as_str(), sym.as_str()), "{name}");
            assert!(elsewhere.contains(&again), "{name}: another thread's handle differs");
        }
    }

    #[test]
    fn symbol_maps_find_every_key() {
        let syms: Vec<Symbol> = (0..500).map(|i| Symbol::intern(&format!("key{i}"))).collect();
        let map: SymbolMap<usize> = syms.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        assert_eq!(map.len(), syms.len());
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(map[s], i);
        }
        assert!(!map.contains_key(&Symbol::intern("no-such-key")));
    }

    #[test]
    fn order_is_by_name() {
        let mut v = [Symbol::intern("b"), Symbol::intern("c"), Symbol::intern("a")];
        v.sort();
        assert_eq!(v.map(Symbol::as_str), ["a", "b", "c"]);
    }
}
