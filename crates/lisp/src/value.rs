//! Tagged 64-bit Lisp values.
//!
//! Every Lisp value fits in one machine word so that heap cells can be
//! plain `AtomicU64`s and the whole heap can be shared across server
//! threads without wrapping each cell in a mutex (paper §1.2: "a
//! single shared Lisp address space").
//!
//! Encoding: low 4 bits are the tag, the upper 60 bits the payload.
//! Integers are therefore 60-bit signed; overflow out of that range is
//! reported as an evaluation error rather than silently wrapped.

use std::fmt;

/// Tag bits for [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    Special = 0, // payload 0 = nil, 1 = t, 2 = unbound marker
    Int = 1,
    Sym = 2,
    Cons = 3,
    Struct = 4,
    Str = 5,
    Float = 6,
    Func = 7,
    Hash = 8,
    Vector = 9,
    Future = 10,
}

const TAG_BITS: u32 = 4;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;

/// Maximum representable integer (60-bit signed payload).
pub const INT_MAX: i64 = (1 << 59) - 1;
/// Minimum representable integer.
pub const INT_MIN: i64 = -(1 << 59);

/// Index of a cons cell in the heap's cons arena.
pub type ConsId = u64;
/// Index of a struct instance header in the heap's struct arena.
pub type StructId = u64;
/// Interned symbol identifier.
pub type SymId = u32;
/// Index into the heap's string arena.
pub type StrId = u64;
/// Index into the heap's float arena.
pub type FloatId = u64;
/// Index into the interpreter's function table.
pub type FuncId = u32;
/// Index into the heap's hash-table arena.
pub type HashId = u64;
/// Index of a vector header in the heap's vector arena.
pub type VectorId = u64;
/// Index into the runtime's future table.
pub type FutureId = u64;

/// A Lisp value: one tagged machine word.
///
/// `Value` is deliberately `Copy` and exactly 8 bytes; identity
/// comparison (`eq`) is bit comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value(u64);

/// Decoded view of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// The empty list / false.
    Nil,
    /// The canonical true value.
    T,
    /// A 60-bit signed integer.
    Int(i64),
    /// An interned symbol.
    Sym(SymId),
    /// A cons cell reference.
    Cons(ConsId),
    /// A struct instance reference.
    Struct(StructId),
    /// An immutable string reference.
    Str(StrId),
    /// A boxed float reference.
    Float(FloatId),
    /// A function reference.
    Func(FuncId),
    /// A hash-table reference.
    Hash(HashId),
    /// A vector reference.
    Vector(VectorId),
    /// A future (promise) reference, used by the CRI runtime.
    Future(FutureId),
}

impl Value {
    const fn pack(tag: Tag, payload: u64) -> Value {
        Value((payload << TAG_BITS) | tag as u64)
    }

    /// `nil`.
    pub const NIL: Value = Value::pack(Tag::Special, 0);
    /// `t`.
    pub const T: Value = Value::pack(Tag::Special, 1);
    /// Internal marker for unbound variables; never visible to programs.
    pub const UNBOUND: Value = Value::pack(Tag::Special, 2);

    /// Encode an integer. Panics in debug builds if out of the 60-bit
    /// range; use [`Value::int_checked`] where overflow is reachable.
    pub fn int(i: i64) -> Value {
        debug_assert!((INT_MIN..=INT_MAX).contains(&i), "int out of range: {i}");
        Value::pack(Tag::Int, (i as u64) & (u64::MAX >> TAG_BITS))
    }

    /// Encode an integer, returning `None` on overflow of the payload.
    pub fn int_checked(i: i64) -> Option<Value> {
        (INT_MIN..=INT_MAX).contains(&i).then(|| Value::int(i))
    }

    /// Encode a symbol reference.
    pub fn sym(id: SymId) -> Value {
        Value::pack(Tag::Sym, id as u64)
    }

    /// Encode a cons reference.
    pub fn cons(id: ConsId) -> Value {
        Value::pack(Tag::Cons, id)
    }

    /// Encode a struct reference.
    pub fn strct(id: StructId) -> Value {
        Value::pack(Tag::Struct, id)
    }

    /// Encode a string reference.
    pub fn str_ref(id: StrId) -> Value {
        Value::pack(Tag::Str, id)
    }

    /// Encode a float reference.
    pub fn float_ref(id: FloatId) -> Value {
        Value::pack(Tag::Float, id)
    }

    /// Encode a function reference.
    pub fn func(id: FuncId) -> Value {
        Value::pack(Tag::Func, id as u64)
    }

    /// Encode a hash-table reference.
    pub fn hash(id: HashId) -> Value {
        Value::pack(Tag::Hash, id)
    }

    /// Encode a vector reference.
    pub fn vector(id: VectorId) -> Value {
        Value::pack(Tag::Vector, id)
    }

    /// Encode a future reference.
    pub fn future(id: FutureId) -> Value {
        Value::pack(Tag::Future, id)
    }

    /// Raw bits, for storing in atomics.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstruct from raw bits previously produced by [`Value::bits`].
    pub fn from_bits(bits: u64) -> Value {
        Value(bits)
    }

    fn tag(self) -> u64 {
        self.0 & TAG_MASK
    }

    fn payload(self) -> u64 {
        self.0 >> TAG_BITS
    }

    /// Decode into the [`Val`] view.
    pub fn decode(self) -> Val {
        let p = self.payload();
        match self.tag() {
            t if t == Tag::Special as u64 => match p {
                0 => Val::Nil,
                1 => Val::T,
                _ => panic!("decoded the unbound marker"),
            },
            t if t == Tag::Int as u64 => {
                // Sign-extend the 60-bit payload.
                Val::Int(((p << TAG_BITS) as i64) >> TAG_BITS)
            }
            t if t == Tag::Sym as u64 => Val::Sym(p as SymId),
            t if t == Tag::Cons as u64 => Val::Cons(p),
            t if t == Tag::Struct as u64 => Val::Struct(p),
            t if t == Tag::Str as u64 => Val::Str(p),
            t if t == Tag::Float as u64 => Val::Float(p),
            t if t == Tag::Func as u64 => Val::Func(p as FuncId),
            t if t == Tag::Hash as u64 => Val::Hash(p),
            t if t == Tag::Vector as u64 => Val::Vector(p),
            t if t == Tag::Future as u64 => Val::Future(p),
            t => panic!("corrupt value tag {t}"),
        }
    }

    /// True for anything except `nil` (Lisp truthiness).
    pub fn is_true(self) -> bool {
        self != Value::NIL
    }

    /// True for `nil`.
    pub fn is_nil(self) -> bool {
        self == Value::NIL
    }

    /// True for a cons reference.
    pub fn is_cons(self) -> bool {
        self.tag() == Tag::Cons as u64
    }

    /// The sign-extended integer payload, *without* checking the tag.
    ///
    /// For the VM's typed fast-path ops: when the compiler's type
    /// propagation has proven the operand is an integer, this skips
    /// the tag dispatch. Misuse on a non-integer yields a garbage
    /// integer (never UB) — the differential oracle would catch that
    /// as a wrong answer, not a crash.
    pub fn as_int_raw(self) -> i64 {
        // The payload occupies the top 60 bits, so one arithmetic
        // shift both drops the tag and sign-extends.
        (self.0 as i64) >> TAG_BITS
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(self) -> Option<i64> {
        match self.decode() {
            Val::Int(i) => Some(i),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Value::UNBOUND {
            return write!(f, "#<unbound>");
        }
        write!(f, "{:?}", self.decode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_and_t_are_distinct() {
        assert_ne!(Value::NIL, Value::T);
        assert!(Value::NIL.is_nil());
        assert!(!Value::NIL.is_true());
        assert!(Value::T.is_true());
    }

    #[test]
    fn int_round_trip() {
        for i in [0i64, 1, -1, 42, -42, INT_MAX, INT_MIN, 123_456_789_012] {
            assert_eq!(Value::int(i).decode(), Val::Int(i), "i = {i}");
            assert_eq!(Value::int(i).as_int(), Some(i));
        }
    }

    #[test]
    fn int_checked_rejects_overflow() {
        assert!(Value::int_checked(INT_MAX).is_some());
        assert!(Value::int_checked(INT_MAX + 1).is_none());
        assert!(Value::int_checked(INT_MIN).is_some());
        assert!(Value::int_checked(INT_MIN - 1).is_none());
    }

    #[test]
    fn reference_round_trips() {
        assert_eq!(Value::sym(7).decode(), Val::Sym(7));
        assert_eq!(Value::cons(123_456).decode(), Val::Cons(123_456));
        assert_eq!(Value::strct(9).decode(), Val::Struct(9));
        assert_eq!(Value::str_ref(3).decode(), Val::Str(3));
        assert_eq!(Value::float_ref(11).decode(), Val::Float(11));
        assert_eq!(Value::func(2).decode(), Val::Func(2));
        assert_eq!(Value::hash(5).decode(), Val::Hash(5));
        assert_eq!(Value::vector(8).decode(), Val::Vector(8));
        assert_eq!(Value::future(13).decode(), Val::Future(13));
    }

    #[test]
    fn eq_is_identity() {
        assert_eq!(Value::cons(5), Value::cons(5));
        assert_ne!(Value::cons(5), Value::cons(6));
        assert_ne!(Value::cons(5), Value::strct(5));
        assert_ne!(Value::int(0), Value::NIL);
    }

    #[test]
    fn bits_round_trip() {
        let v = Value::cons(99);
        assert_eq!(Value::from_bits(v.bits()), v);
    }

    #[test]
    fn value_is_one_word() {
        assert_eq!(std::mem::size_of::<Value>(), 8);
    }

    #[test]
    fn truthiness_of_zero_and_empty() {
        // In Lisp, 0 and "" are true; only nil is false.
        assert!(Value::int(0).is_true());
        assert!(Value::str_ref(0).is_true());
    }
}
