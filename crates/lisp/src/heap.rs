//! The shared Lisp heap: cons cells, structs, vectors, floats,
//! strings, symbols, and hash tables.
//!
//! One `Heap` is shared by every thread of a multiprocessor Lisp
//! system (paper §1.2, Figure 1). All storage lives in lock-free
//! [`AtomicArena`]s; mutable locations (cons fields, struct fields,
//! vector slots) are `AtomicU64`s holding [`Value`] bits, written with
//! release stores and read with acquire loads so that a value
//! published through the heap is fully visible to its reader.
//!
//! There is no garbage collector: the paper's transformations are
//! orthogonal to collection, and arena storage keeps the experiments
//! deterministic. Long-running hosts should create a fresh heap per
//! workload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::sync::RwLock;
use std::collections::{HashMap, HashSet};

use crate::arena::AtomicArena;
use crate::chash::LispHash;
use crate::error::{LispError, Result};
use crate::speclog;
use crate::value::{ConsId, StrId, StructId, SymId, Val, Value, VectorId};
use curare_sexpr::Sexpr;

/// One cons cell: two mutable value words.
#[derive(Default)]
pub struct ConsCell {
    car: AtomicU64,
    cdr: AtomicU64,
}

/// Header of a struct instance or vector: packed type/length metadata
/// plus the base index of its field run in the slot arena.
#[derive(Default)]
pub struct RunHeader {
    /// `(len << 32) | type_id` for structs; `len` for vectors.
    meta: AtomicU64,
    base: AtomicU64,
}

/// A `defstruct`-declared record type.
#[derive(Debug, Clone)]
pub struct StructType {
    /// Type name (e.g. `node`).
    pub name: String,
    /// Field names in declaration order.
    pub fields: Vec<String>,
}

/// The shared heap. See module docs.
pub struct Heap {
    conses: AtomicArena<ConsCell>,
    structs: AtomicArena<RunHeader>,
    vectors: AtomicArena<RunHeader>,
    slots: AtomicArena<AtomicU64>,
    floats: AtomicArena<AtomicU64>,
    strings: AtomicArena<OnceLock<String>>,
    hashes: AtomicArena<OnceLock<LispHash>>,
    symbols: RwLock<SymbolTable>,
    struct_types: RwLock<Vec<StructType>>,
}

#[derive(Default)]
struct SymbolTable {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, SymId>,
}

/// `name` with the lifetime of the process, which is what lets
/// [`Heap::sym_name`] hand out `&'static str`. The leak is deliberate
/// and bounded by the distinct identifiers the process ever loads: a
/// name is leaked once, however many heaps intern it (a heap per
/// restructuring and per interpreter used to leak its own copy each).
fn process_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    // A panic elsewhere cannot leave the set half-updated: `insert` is
    // its only mutation.
    let mut names = NAMES.get_or_init(Default::default).lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.into());
    names.insert(leaked);
    leaked
}

impl Heap {
    /// A fresh, empty heap.
    pub fn new() -> Self {
        Heap {
            conses: AtomicArena::new(),
            structs: AtomicArena::new(),
            vectors: AtomicArena::new(),
            slots: AtomicArena::new(),
            floats: AtomicArena::new(),
            strings: AtomicArena::new(),
            hashes: AtomicArena::new(),
            symbols: RwLock::new(SymbolTable::default()),
            struct_types: RwLock::new(Vec::new()),
        }
    }

    // ----- symbols ---------------------------------------------------

    /// Intern `name`, returning its stable id.
    pub fn intern(&self, name: &str) -> SymId {
        if let Some(&id) = self.symbols.read().ids.get(name) {
            return id;
        }
        let mut table = self.symbols.write();
        if let Some(&id) = table.ids.get(name) {
            return id;
        }
        let leaked = process_name(name);
        let id = table.names.len() as SymId;
        table.names.push(leaked);
        table.ids.insert(leaked, id);
        id
    }

    /// The printable name of symbol `id`.
    pub fn sym_name(&self, id: SymId) -> &'static str {
        self.symbols.read().names[id as usize]
    }

    /// Intern and wrap as a value.
    pub fn sym_value(&self, name: &str) -> Value {
        Value::sym(self.intern(name))
    }

    // ----- cons cells -------------------------------------------------

    /// Allocate `(cons car cdr)`. Slots come from the calling
    /// thread's allocation buffer, so concurrent servers don't bounce
    /// the arena counter's cache line on every cons.
    ///
    /// Initialization stores (here and in [`Heap::make_struct`]) are
    /// not journaled: a fresh cell is invisible to other invocations
    /// until its value is published through a journaled write.
    pub fn cons(&self, car: Value, cdr: Value) -> Value {
        let id = self.conses.alloc_tlab();
        let cell = self.conses.get(id);
        cell.car.store(car.bits(), Ordering::Release);
        cell.cdr.store(cdr.bits(), Ordering::Release);
        Value::cons(id)
    }

    /// The mutable word behind a packed journal location (cons car/cdr
    /// or struct slot — never a global or vector slot).
    pub(crate) fn spec_loc_cell(&self, loc: u64) -> &AtomicU64 {
        if loc & speclog::STRUCT_LOC_BIT != 0 {
            self.slots.get(speclog::struct_slot(loc))
        } else if loc & 1 != 0 {
            &self.conses.get(loc >> 1).cdr
        } else {
            &self.conses.get(loc >> 1).car
        }
    }

    /// Read the `car` of cons `id`.
    pub fn car_of(&self, id: ConsId) -> Value {
        Value::from_bits(speclog::load(&self.conses.get(id).car, id << 1))
    }

    /// Read the `cdr` of cons `id`.
    pub fn cdr_of(&self, id: ConsId) -> Value {
        Value::from_bits(speclog::load(&self.conses.get(id).cdr, id << 1 | 1))
    }

    /// `(car v)`: nil for nil, error for non-lists.
    pub fn car(&self, v: Value) -> Result<Value> {
        match v.decode() {
            Val::Nil => Ok(Value::NIL),
            Val::Cons(id) => Ok(self.car_of(id)),
            _ => Err(self.type_error("cons", v, "car")),
        }
    }

    /// `(cdr v)`: nil for nil, error for non-lists.
    pub fn cdr(&self, v: Value) -> Result<Value> {
        match v.decode() {
            Val::Nil => Ok(Value::NIL),
            Val::Cons(id) => Ok(self.cdr_of(id)),
            _ => Err(self.type_error("cons", v, "cdr")),
        }
    }

    /// `(rplaca v new)` — destructive car update.
    pub fn set_car(&self, v: Value, new: Value) -> Result<()> {
        match v.decode() {
            Val::Cons(id) => {
                speclog::store(&self.conses.get(id).car, id << 1, None, new.bits());
                Ok(())
            }
            _ => Err(self.type_error("cons", v, "rplaca")),
        }
    }

    /// `(rplacd v new)` — destructive cdr update.
    pub fn set_cdr(&self, v: Value, new: Value) -> Result<()> {
        match v.decode() {
            Val::Cons(id) => {
                speclog::store(&self.conses.get(id).cdr, id << 1 | 1, None, new.bits());
                Ok(())
            }
            _ => Err(self.type_error("cons", v, "rplacd")),
        }
    }

    /// Build a proper list from `items`.
    pub fn list(&self, items: &[Value]) -> Value {
        let mut tail = Value::NIL;
        for &v in items.iter().rev() {
            tail = self.cons(v, tail);
        }
        tail
    }

    /// Collect a proper list into a vector. Errors on dotted lists;
    /// guards against cycles with a length cap.
    pub fn list_to_vec(&self, mut v: Value) -> Result<Vec<Value>> {
        let mut out = Vec::new();
        let cap = self.conses.len() + 1;
        while !v.is_nil() {
            let Val::Cons(id) = v.decode() else {
                return Err(self.type_error("proper list", v, "list traversal"));
            };
            out.push(self.car_of(id));
            v = self.cdr_of(id);
            if out.len() as u64 > cap {
                return Err(LispError::User("cyclic list".into()));
            }
        }
        Ok(out)
    }

    /// Length of a proper list.
    pub fn list_len(&self, v: Value) -> Result<usize> {
        Ok(self.list_to_vec(v)?.len())
    }

    // ----- structs ----------------------------------------------------

    /// Register a struct type; returns its id.
    pub fn define_struct_type(&self, name: &str, fields: &[String]) -> u32 {
        let mut types = self.struct_types.write();
        let id = types.len() as u32;
        types.push(StructType { name: name.to_string(), fields: fields.to_vec() });
        id
    }

    /// Metadata for struct type `ty`.
    pub fn struct_type(&self, ty: u32) -> StructType {
        self.struct_types.read()[ty as usize].clone()
    }

    /// Number of registered struct types.
    pub fn struct_type_count(&self) -> usize {
        self.struct_types.read().len()
    }

    /// Look up a struct type id by name.
    pub fn find_struct_type(&self, name: &str) -> Option<u32> {
        self.struct_types.read().iter().position(|t| t.name == name).map(|i| i as u32)
    }

    /// Allocate an instance of struct type `ty` with the given fields.
    pub fn make_struct(&self, ty: u32, fields: &[Value]) -> Value {
        let base = self.slots.alloc_n(fields.len() as u64);
        for (i, &f) in fields.iter().enumerate() {
            self.slots.get(base + i as u64).store(f.bits(), Ordering::Release);
        }
        let id = self.structs.alloc();
        let hdr = self.structs.get(id);
        hdr.base.store(base, Ordering::Release);
        hdr.meta.store(((fields.len() as u64) << 32) | ty as u64, Ordering::Release);
        Value::strct(id)
    }

    fn struct_header(&self, id: StructId) -> (u32, u64, usize) {
        let hdr = self.structs.get(id);
        let meta = hdr.meta.load(Ordering::Acquire);
        let base = hdr.base.load(Ordering::Acquire);
        ((meta & 0xFFFF_FFFF) as u32, base, (meta >> 32) as usize)
    }

    /// The type id of struct value `v`.
    pub fn struct_type_of(&self, v: Value) -> Result<u32> {
        match v.decode() {
            Val::Struct(id) => Ok(self.struct_header(id).0),
            _ => Err(self.type_error("struct", v, "struct access")),
        }
    }

    /// Read field `idx` of struct `v`.
    pub fn struct_ref(&self, v: Value, idx: usize) -> Result<Value> {
        match v.decode() {
            Val::Struct(id) => {
                let (_, base, len) = self.struct_header(id);
                if idx >= len {
                    return Err(LispError::IndexOutOfRange { index: idx as i64, len });
                }
                let slot = base + idx as u64;
                let loc = speclog::struct_loc(slot, idx);
                Ok(Value::from_bits(speclog::load(self.slots.get(slot), loc)))
            }
            _ => Err(self.type_error("struct", v, "struct field read")),
        }
    }

    /// Write field `idx` of struct `v`.
    pub fn struct_set(&self, v: Value, idx: usize, new: Value) -> Result<()> {
        match v.decode() {
            Val::Struct(id) => {
                let (_, base, len) = self.struct_header(id);
                if idx >= len {
                    return Err(LispError::IndexOutOfRange { index: idx as i64, len });
                }
                let slot = base + idx as u64;
                let loc = speclog::struct_loc(slot, idx);
                speclog::store(self.slots.get(slot), loc, None, new.bits());
                Ok(())
            }
            _ => Err(self.type_error("struct", v, "struct field write")),
        }
    }

    /// Atomically add `delta` to the integer in `field` of `cell`
    /// (0 = car, 1 = cdr, 2+k = struct field k) with a CAS loop.
    /// The §3.2.3 reordering device for commutative structure-field
    /// updates; concurrent updates never lose increments.
    pub fn atomic_add_field(&self, cell: Value, field: u32, delta: i64) -> Result<Value> {
        let (slot, loc): (&AtomicU64, u64) = match (cell.decode(), field) {
            (Val::Cons(id), 0) => (&self.conses.get(id).car, id << 1),
            (Val::Cons(id), 1) => (&self.conses.get(id).cdr, id << 1 | 1),
            (Val::Struct(id), f) if f >= 2 => {
                let (_, base, len) = self.struct_header(id);
                let idx = (f - 2) as usize;
                if idx >= len {
                    return Err(LispError::IndexOutOfRange { index: idx as i64, len });
                }
                let s = base + idx as u64;
                (self.slots.get(s), speclog::struct_loc(s, idx))
            }
            _ => return Err(self.type_error("locatable cell", cell, "atomic-incf-cell")),
        };
        // Holding the location's stripe across the CAS keeps the
        // journal's bracket order equal to the location's update order
        // (undo recomputes values by replaying that order).
        let sec = speclog::write_section(loc, None);
        loop {
            let old_bits = slot.load(Ordering::Acquire);
            let old = Value::from_bits(old_bits);
            let Some(cur) = old.as_int() else {
                return Err(LispError::Type {
                    expected: "integer",
                    got: self.display(old),
                    op: "atomic-incf-cell",
                });
            };
            let Some(new) = cur.checked_add(delta).and_then(Value::int_checked) else {
                return Err(LispError::Overflow("atomic-incf-cell"));
            };
            if slot
                .compare_exchange(old_bits, new.bits(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if let Some(sec) = sec {
                    sec.add(delta);
                }
                return Ok(new);
            }
        }
    }

    // ----- vectors ----------------------------------------------------

    /// Allocate a vector of `len` slots, all `init`.
    pub fn make_vector(&self, len: usize, init: Value) -> Value {
        let base = self.slots.alloc_n(len as u64);
        for i in 0..len as u64 {
            self.slots.get(base + i).store(init.bits(), Ordering::Release);
        }
        let id = self.vectors.alloc();
        let hdr = self.vectors.get(id);
        hdr.base.store(base, Ordering::Release);
        hdr.meta.store(len as u64, Ordering::Release);
        Value::vector(id)
    }

    fn vector_header(&self, id: VectorId) -> (u64, usize) {
        let hdr = self.vectors.get(id);
        (hdr.base.load(Ordering::Acquire), hdr.meta.load(Ordering::Acquire) as usize)
    }

    /// Vector length.
    pub fn vector_len(&self, v: Value) -> Result<usize> {
        match v.decode() {
            Val::Vector(id) => Ok(self.vector_header(id).1),
            _ => Err(self.type_error("vector", v, "length")),
        }
    }

    /// Read vector slot `idx`.
    pub fn vector_ref(&self, v: Value, idx: i64) -> Result<Value> {
        match v.decode() {
            Val::Vector(id) => {
                let (base, len) = self.vector_header(id);
                if idx < 0 || idx as usize >= len {
                    return Err(LispError::IndexOutOfRange { index: idx, len });
                }
                Ok(Value::from_bits(self.slots.get(base + idx as u64).load(Ordering::Acquire)))
            }
            _ => Err(self.type_error("vector", v, "aref")),
        }
    }

    /// Write vector slot `idx`.
    pub fn vector_set(&self, v: Value, idx: i64, new: Value) -> Result<()> {
        match v.decode() {
            Val::Vector(id) => {
                let (base, len) = self.vector_header(id);
                if idx < 0 || idx as usize >= len {
                    return Err(LispError::IndexOutOfRange { index: idx, len });
                }
                self.slots.get(base + idx as u64).store(new.bits(), Ordering::Release);
                Ok(())
            }
            _ => Err(self.type_error("vector", v, "aset")),
        }
    }

    // ----- floats & strings --------------------------------------------

    /// Box a float.
    pub fn float(&self, x: f64) -> Value {
        let id = self.floats.alloc_tlab();
        self.floats.get(id).store(x.to_bits(), Ordering::Release);
        Value::float_ref(id)
    }

    /// The float behind value `v` (ints are promoted).
    pub fn float_val(&self, v: Value) -> Result<f64> {
        match v.decode() {
            Val::Float(id) => Ok(f64::from_bits(self.floats.get(id).load(Ordering::Acquire))),
            Val::Int(i) => Ok(i as f64),
            _ => Err(self.type_error("number", v, "float")),
        }
    }

    /// Allocate an immutable string.
    pub fn string(&self, s: impl Into<String>) -> Value {
        let id = self.strings.alloc();
        self.strings
            .get(id)
            .set(s.into())
            .unwrap_or_else(|_| unreachable!("string slot written twice"));
        Value::str_ref(id)
    }

    /// The text of string `id`.
    pub fn str_text(&self, id: StrId) -> &str {
        self.strings.get(id).get().map(String::as_str).unwrap_or("")
    }

    // ----- hash tables --------------------------------------------------

    /// Allocate a fresh hash table.
    pub fn make_hash(&self) -> Value {
        let id = self.hashes.alloc();
        self.hashes
            .get(id)
            .set(LispHash::new())
            .unwrap_or_else(|_| unreachable!("hash slot written twice"));
        Value::hash(id)
    }

    /// The table behind a hash value.
    pub fn hash_table(&self, v: Value) -> Result<&LispHash> {
        match v.decode() {
            Val::Hash(id) => Ok(self.hashes.get(id).get().expect("hash id published before init")),
            _ => Err(self.type_error("hash-table", v, "hash access")),
        }
    }

    // ----- equality -----------------------------------------------------

    /// `eql`: identity, except numbers compare by value within type.
    pub fn eql(&self, a: Value, b: Value) -> bool {
        if a == b {
            return true;
        }
        match (a.decode(), b.decode()) {
            (Val::Float(x), Val::Float(y)) => {
                f64::from_bits(self.floats.get(x).load(Ordering::Acquire))
                    == f64::from_bits(self.floats.get(y).load(Ordering::Acquire))
            }
            _ => false,
        }
    }

    /// `equal`: structural equality on lists, structs, vectors, and
    /// strings; `eql` on everything else.
    pub fn equal(&self, a: Value, b: Value) -> bool {
        // Iterate the cdr spine, recurse on cars, with a work cap to
        // survive cyclic structures.
        let mut budget = 4 * (self.conses.len() + self.slots.len() + 16);
        self.equal_inner(a, b, &mut budget)
    }

    fn equal_inner(&self, mut a: Value, mut b: Value, budget: &mut u64) -> bool {
        loop {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            if self.eql(a, b) {
                return true;
            }
            match (a.decode(), b.decode()) {
                (Val::Cons(x), Val::Cons(y)) => {
                    if !self.equal_inner(self.car_of(x), self.car_of(y), budget) {
                        return false;
                    }
                    a = self.cdr_of(x);
                    b = self.cdr_of(y);
                }
                (Val::Str(x), Val::Str(y)) => return self.str_text(x) == self.str_text(y),
                (Val::Struct(_), Val::Struct(_)) => {
                    let (ta, _, la) = match a.decode() {
                        Val::Struct(id) => self.struct_header(id),
                        _ => unreachable!(),
                    };
                    let (tb, _, lb) = match b.decode() {
                        Val::Struct(id) => self.struct_header(id),
                        _ => unreachable!(),
                    };
                    if ta != tb || la != lb {
                        return false;
                    }
                    for i in 0..la {
                        let fa = self.struct_ref(a, i).expect("checked len");
                        let fb = self.struct_ref(b, i).expect("checked len");
                        if !self.equal_inner(fa, fb, budget) {
                            return false;
                        }
                    }
                    return true;
                }
                (Val::Vector(_), Val::Vector(_)) => {
                    let la = self.vector_len(a).expect("vector");
                    let lb = self.vector_len(b).expect("vector");
                    if la != lb {
                        return false;
                    }
                    for i in 0..la as i64 {
                        let fa = self.vector_ref(a, i).expect("checked len");
                        let fb = self.vector_ref(b, i).expect("checked len");
                        if !self.equal_inner(fa, fb, budget) {
                            return false;
                        }
                    }
                    return true;
                }
                _ => return false,
            }
        }
    }

    // ----- printing and conversion ---------------------------------------

    /// Render `v` as it would print: lists in parens, symbols bare.
    pub fn display(&self, v: Value) -> String {
        match self.to_sexpr_limited(v, 100_000) {
            Some(d) => d.to_string(),
            None => "#<deep-or-cyclic>".to_string(),
        }
    }

    /// Convert a heap value to an s-expression, for tests and output.
    /// Returns `None` if the structure exceeds `limit` nodes (cycles).
    pub fn to_sexpr_limited(&self, v: Value, limit: usize) -> Option<Sexpr> {
        let mut budget = limit;
        self.to_sexpr_inner(v, &mut budget, 0)
    }

    fn to_sexpr_inner(&self, v: Value, budget: &mut usize, depth: usize) -> Option<Sexpr> {
        // The depth cap bounds native stack use on cyclic or very deep
        // nesting; the budget bounds total work.
        if *budget == 0 || depth > 128 {
            return None;
        }
        *budget -= 1;
        Some(match v.decode() {
            Val::Nil => Sexpr::nil(),
            Val::T => Sexpr::sym("t"),
            Val::Int(i) => Sexpr::Int(i),
            Val::Sym(id) => Sexpr::sym(self.sym_name(id)),
            Val::Float(_) => Sexpr::Float(self.float_val(v).ok()?),
            Val::Str(id) => Sexpr::Str(self.str_text(id).to_string()),
            Val::Cons(_) => {
                let mut items = Vec::new();
                let mut cur = v;
                loop {
                    match cur.decode() {
                        Val::Cons(id) => {
                            if *budget == 0 {
                                return None;
                            }
                            *budget -= 1;
                            items.push(self.to_sexpr_inner(self.car_of(id), budget, depth + 1)?);
                            cur = self.cdr_of(id);
                        }
                        Val::Nil => return Some(Sexpr::List(items)),
                        _ => {
                            let tail = self.to_sexpr_inner(cur, budget, depth + 1)?;
                            return Some(Sexpr::Dotted(items, Box::new(tail)));
                        }
                    }
                }
            }
            Val::Struct(id) => {
                let (ty, _, len) = self.struct_header(id);
                let tyname = self.struct_type(ty).name;
                let mut fields = vec![Sexpr::sym(tyname)];
                for i in 0..len {
                    fields.push(self.to_sexpr_inner(
                        self.struct_ref(v, i).ok()?,
                        budget,
                        depth + 1,
                    )?);
                }
                Sexpr::List(vec![Sexpr::sym("struct"), Sexpr::List(fields)])
            }
            Val::Vector(_) => {
                let len = self.vector_len(v).ok()?;
                let mut items = vec![Sexpr::sym("vector")];
                for i in 0..len as i64 {
                    items.push(self.to_sexpr_inner(
                        self.vector_ref(v, i).ok()?,
                        budget,
                        depth + 1,
                    )?);
                }
                Sexpr::List(items)
            }
            Val::Func(id) => Sexpr::sym(format!("#<function:{id}>")),
            Val::Hash(id) => Sexpr::sym(format!("#<hash-table:{id}>")),
            Val::Future(id) => Sexpr::sym(format!("#<future:{id}>")),
        })
    }

    /// Build a heap constant from a quoted datum.
    pub fn from_sexpr(&self, d: &Sexpr) -> Value {
        match d {
            Sexpr::Sym(s) if s == "nil" => Value::NIL,
            Sexpr::Sym(s) if s == "t" => Value::T,
            Sexpr::Sym(s) => self.sym_value(s),
            Sexpr::Int(i) => Value::int_checked(*i).unwrap_or_else(|| self.float(*i as f64)),
            Sexpr::Float(x) => self.float(*x),
            Sexpr::Str(s) => self.string(s.clone()),
            Sexpr::List(items) => {
                let vals: Vec<Value> = items.iter().map(|d| self.from_sexpr(d)).collect();
                self.list(&vals)
            }
            Sexpr::Dotted(items, tail) => {
                let mut out = self.from_sexpr(tail);
                for d in items.iter().rev() {
                    out = self.cons(self.from_sexpr(d), out);
                }
                out
            }
        }
    }

    /// Heap size counters (conses, struct slots, floats, strings), for
    /// tests and diagnostics. Cons and float counts are *reserved*
    /// slots: thread-local allocation buffers claim them 64 at a
    /// time, so the counts can exceed live allocations by up to one
    /// buffer per allocating thread.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            conses: self.conses.len(),
            slots: self.slots.len(),
            floats: self.floats.len(),
            strings: self.strings.len(),
        }
    }

    /// Thread-local allocation buffer refills across the cons and
    /// float arenas (each covered ~64 allocations with one shared
    /// counter update).
    pub fn tlab_refills(&self) -> u64 {
        self.conses.tlab_refills() + self.floats.tlab_refills()
    }

    fn type_error(&self, expected: &'static str, got: Value, op: &'static str) -> LispError {
        LispError::Type { expected, got: self.display(got), op }
    }
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

/// Allocation counters returned by [`Heap::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Cons cells allocated.
    pub conses: u64,
    /// Struct/vector field slots allocated.
    pub slots: u64,
    /// Floats boxed.
    pub floats: u64,
    /// Strings allocated.
    pub strings: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    #[test]
    fn cons_car_cdr() {
        let h = Heap::new();
        let c = h.cons(Value::int(1), Value::int(2));
        assert_eq!(h.car(c).unwrap(), Value::int(1));
        assert_eq!(h.cdr(c).unwrap(), Value::int(2));
    }

    #[test]
    fn car_of_nil_is_nil() {
        let h = Heap::new();
        assert_eq!(h.car(Value::NIL).unwrap(), Value::NIL);
        assert_eq!(h.cdr(Value::NIL).unwrap(), Value::NIL);
    }

    #[test]
    fn car_of_int_is_error() {
        let h = Heap::new();
        assert!(h.car(Value::int(5)).is_err());
    }

    #[test]
    fn rplaca_rplacd() {
        let h = Heap::new();
        let c = h.cons(Value::int(1), Value::NIL);
        h.set_car(c, Value::int(9)).unwrap();
        h.set_cdr(c, Value::T).unwrap();
        assert_eq!(h.car(c).unwrap(), Value::int(9));
        assert_eq!(h.cdr(c).unwrap(), Value::T);
    }

    #[test]
    fn list_round_trip() {
        let h = Heap::new();
        let l = h.list(&[Value::int(1), Value::int(2), Value::int(3)]);
        assert_eq!(h.list_to_vec(l).unwrap(), vec![Value::int(1), Value::int(2), Value::int(3)]);
        assert_eq!(h.list_len(l).unwrap(), 3);
        assert_eq!(h.display(l), "(1 2 3)");
    }

    #[test]
    fn cyclic_list_detected() {
        let h = Heap::new();
        let c = h.cons(Value::int(1), Value::NIL);
        h.set_cdr(c, c).unwrap();
        assert!(h.list_to_vec(c).is_err());
        assert_eq!(h.display(c), "#<deep-or-cyclic>");
    }

    #[test]
    fn symbols_intern_stably() {
        let h = Heap::new();
        let a = h.intern("foo");
        let b = h.intern("bar");
        let a2 = h.intern("foo");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(h.sym_name(a), "foo");
    }

    #[test]
    fn struct_lifecycle() {
        let h = Heap::new();
        let ty = h.define_struct_type("node", &["left".into(), "right".into(), "value".into()]);
        let s = h.make_struct(ty, &[Value::NIL, Value::NIL, Value::int(7)]);
        assert_eq!(h.struct_type_of(s).unwrap(), ty);
        assert_eq!(h.struct_ref(s, 2).unwrap(), Value::int(7));
        h.struct_set(s, 0, Value::T).unwrap();
        assert_eq!(h.struct_ref(s, 0).unwrap(), Value::T);
        assert!(h.struct_ref(s, 3).is_err());
        assert_eq!(h.find_struct_type("node"), Some(ty));
        assert_eq!(h.find_struct_type("missing"), None);
    }

    #[test]
    fn vector_lifecycle() {
        let h = Heap::new();
        let v = h.make_vector(4, Value::int(0));
        assert_eq!(h.vector_len(v).unwrap(), 4);
        h.vector_set(v, 2, Value::int(5)).unwrap();
        assert_eq!(h.vector_ref(v, 2).unwrap(), Value::int(5));
        assert_eq!(h.vector_ref(v, 0).unwrap(), Value::int(0));
        assert!(h.vector_ref(v, 4).is_err());
        assert!(h.vector_ref(v, -1).is_err());
    }

    #[test]
    fn floats_box_and_compare() {
        let h = Heap::new();
        let a = h.float(1.5);
        let b = h.float(1.5);
        assert_ne!(a, b, "distinct boxes are not eq");
        assert!(h.eql(a, b), "but they are eql");
        assert_eq!(h.float_val(a).unwrap(), 1.5);
        assert_eq!(h.float_val(Value::int(3)).unwrap(), 3.0);
    }

    #[test]
    fn strings_and_equal() {
        let h = Heap::new();
        let a = h.string("hello");
        let b = h.string("hello");
        assert_ne!(a, b);
        assert!(!h.eql(a, b));
        assert!(h.equal(a, b));
        assert_eq!(h.display(a), "\"hello\"");
    }

    #[test]
    fn equal_on_lists_and_structs() {
        let h = Heap::new();
        let l1 = h.list(&[Value::int(1), h.list(&[Value::int(2)]), Value::int(3)]);
        let l2 = h.list(&[Value::int(1), h.list(&[Value::int(2)]), Value::int(3)]);
        let l3 = h.list(&[Value::int(1), h.list(&[Value::int(9)]), Value::int(3)]);
        assert!(h.equal(l1, l2));
        assert!(!h.equal(l1, l3));

        let ty = h.define_struct_type("p", &["x".into(), "y".into()]);
        let s1 = h.make_struct(ty, &[Value::int(1), Value::int(2)]);
        let s2 = h.make_struct(ty, &[Value::int(1), Value::int(2)]);
        let s3 = h.make_struct(ty, &[Value::int(1), Value::int(3)]);
        assert!(h.equal(s1, s2));
        assert!(!h.equal(s1, s3));
    }

    #[test]
    fn equal_survives_cycles() {
        let h = Heap::new();
        let a = h.cons(Value::int(1), Value::NIL);
        h.set_cdr(a, a).unwrap();
        let b = h.cons(Value::int(1), Value::NIL);
        h.set_cdr(b, b).unwrap();
        // Cycles exhaust the budget and conservatively report unequal.
        let _ = h.equal(a, b);
    }

    #[test]
    fn from_sexpr_round_trip() {
        let h = Heap::new();
        for src in ["(1 2 (3 4) x \"s\")", "(a . b)", "nil", "t", "42", "(quote x)"] {
            let d = parse_one(src).unwrap();
            let v = h.from_sexpr(&d);
            let back = h.to_sexpr_limited(v, 10_000).unwrap();
            // `nil`/`t` normalize; compare via display of re-parse.
            let expect = match src {
                "nil" => "()".to_string(),
                other => parse_one(other).unwrap().to_string(),
            };
            assert_eq!(back.to_string(), expect, "src = {src}");
        }
    }

    #[test]
    fn dotted_from_sexpr() {
        let h = Heap::new();
        let d = parse_one("(1 2 . 3)").unwrap();
        let v = h.from_sexpr(&d);
        assert_eq!(h.display(v), "(1 2 . 3)");
        assert!(h.list_to_vec(v).is_err(), "dotted list is not proper");
    }

    #[test]
    fn hash_values() {
        let h = Heap::new();
        let t = h.make_hash();
        h.hash_table(t).unwrap().insert(Value::int(1), Value::int(2));
        assert_eq!(h.hash_table(t).unwrap().get(Value::int(1)), Some(Value::int(2)));
        assert!(h.hash_table(Value::int(3)).is_err());
    }

    #[test]
    fn concurrent_cons_allocation() {
        use std::sync::Arc;
        let h = Arc::new(Heap::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    let mut l = Value::NIL;
                    for i in 0..5000 {
                        l = h.cons(Value::int(t * 10_000 + i), l);
                    }
                    h.list_len(l).unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 5000);
        }
        // TLABs reserve in chunks of 64, so the reserved count covers
        // the 40 000 live cells plus at most one partial chunk per
        // allocating thread.
        let conses = h.stats().conses;
        assert!(
            (40_000..40_000 + 9 * 64).contains(&conses),
            "reserved {conses} for 40 000 live conses"
        );
        assert!(h.tlab_refills() >= 40_000 / 64);
    }

    #[test]
    fn display_of_atoms() {
        let h = Heap::new();
        assert_eq!(h.display(Value::NIL), "()");
        assert_eq!(h.display(Value::T), "t");
        assert_eq!(h.display(Value::int(-7)), "-7");
        assert_eq!(h.display(h.sym_value("abc")), "abc");
        assert_eq!(h.display(h.string("hi")), "\"hi\"");
    }
}
