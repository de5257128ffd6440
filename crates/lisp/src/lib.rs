//! A mini-Lisp substrate with a thread-shared heap, built for the
//! Curare reproduction.
//!
//! The paper (Larus, *Curare: Restructuring Lisp Programs for
//! Concurrent Execution*, 1987/88) assumes a multiprocessor Lisp
//! system: autonomous processors evaluating Lisp functions over a
//! single shared address space (§1.2). This crate is that substrate:
//!
//! - [`value`]: one-word tagged values, so every heap location is a
//!   single `AtomicU64`;
//! - [`arena`]: the lock-free chunked allocator behind the heap;
//! - [`heap`]: cons cells, `defstruct` records, vectors, strings,
//!   floats, symbols, and concurrent hash tables ([`chash`]);
//! - [`ast`] / [`lower`]: the program representation Curare analyses
//!   and rewrites;
//! - [`eval`] / [`builtins`] / [`interp`]: a reentrant, `Sync`
//!   interpreter with proper tail calls and pluggable
//!   [`interp::RuntimeHooks`] that let the CRI runtime intercept
//!   recursive calls, futures, and lock operations;
//! - [`compile`] / [`vm`]: a register bytecode compiler and dispatch
//!   loop — the default engine for function invocation, with the
//!   tree-walker retained as a differential oracle (select with
//!   [`Interp::set_engine`]).
//!
//! # Quick example
//!
//! ```
//! use curare_lisp::Interp;
//!
//! let interp = Interp::new();
//! let v = interp
//!     .load_str(
//!         "(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))
//!          (sum '(1 2 3 4))",
//!     )
//!     .unwrap();
//! assert_eq!(interp.heap().display(v), "10");
//! ```

pub mod arena;
pub mod ast;
pub mod builtins;
pub mod chash;
pub mod compile;
pub mod error;
pub mod eval;
pub mod heap;
pub mod hir;
pub mod interp;
pub mod lower;
pub mod speclog;
pub mod sync;
pub mod value;
pub mod vm;

pub use compile::{fusion_enabled, set_fusion_enabled};
pub use error::{LispError, Result};
pub use eval::{set_thread_stack_budget, Evaluator};
pub use heap::{Heap, HeapStats, StructType};
pub use interp::{Engine, Interp, RuntimeHooks, SequentialHooks};
pub use lower::{Lowerer, TopForm};
pub use value::{FuncId, SymId, Val, Value};
pub use vm::{
    op_profile_snapshot, op_profile_top, op_profiling_enabled, set_op_profiling, vm_stats,
    vm_stats_reset, OpProfileEntry, Vm, VmStats,
};
