//! **Curare** — restructuring Lisp programs for concurrent execution.
//!
//! A from-scratch Rust reproduction of the system described in
//! J. R. Larus, *Curare: Restructuring Lisp Programs for Concurrent
//! Execution* (UCB/CSD 87/344; superseded by the PPEALS/PPoPP 1988
//! paper of the same title).
//!
//! This facade re-exports the whole pipeline:
//!
//! | crate | role |
//! |---|---|
//! | [`sexpr`] | reader/printer for the mini-Lisp |
//! | [`lisp`] | the shared-heap Lisp substrate and interpreter |
//! | [`analysis`] | access paths, transfer functions, conflicts, head/tail |
//! | [`transform`] | the restructurer: reorder/delay/locks/DPS/rec2iter/CRI |
//! | [`runtime`] | the CRI server pool, lock table, queues, futures |
//! | [`sim`] | deterministic timing model of CRI execution |
//! | [`obs`] | event traces, metrics reports, concurrency timelines |
//! | [`check`] | `curare check` diagnostics and the heap-access sanitizer |
//!
//! # Quickstart
//!
//! ```
//! use curare::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A recursive Lisp function with a loop-carried side effect.
//! let program = "(defun f (l)
//!                  (cond ((null l) nil)
//!                        ((null (cdr l)) (f (cdr l)))
//!                        (t (setf (cadr l) (+ (car l) (cadr l)))
//!                           (f (cdr l)))))";
//!
//! // 2. Restructure it.
//! let out = Curare::new().transform_source(program).unwrap();
//! assert!(out.report("f").unwrap().converted);
//!
//! // 3. Execute the transformed program on a 4-server CRI pool.
//! let interp = Arc::new(Interp::new());
//! interp.load_str(&out.source()).unwrap();
//! let rt = CriRuntime::new(Arc::clone(&interp), 4);
//! let data = interp.load_str("(list 1 1 1 1 1)").unwrap();
//! rt.run("f", &[data]).unwrap();
//! assert_eq!(interp.heap().display(data), "(1 2 3 4 5)");
//! ```

pub use curare_analysis as analysis;
pub use curare_check as check;
pub use curare_lisp as lisp;
pub use curare_obs as obs;
pub use curare_runtime as runtime;
pub use curare_sexpr as sexpr;
pub use curare_sim as sim;
pub use curare_transform as transform;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use curare_analysis::{
        analyze_function, analyze_program, DeclDb, FunctionAnalysis, Verdict,
    };
    pub use curare_check::{check_source, Diagnostic, DiagnosticSet};
    pub use curare_lisp::{Heap, Interp, LispError, SequentialHooks, Value};
    pub use curare_obs::{Json, RunReport, Timeline, Tracer};
    pub use curare_runtime::{CriRuntime, PoolStats, SchedMode};
    pub use curare_sexpr::{parse_all, parse_one, pretty, Sexpr};
    pub use curare_sim::{simulate, FunctionModel, SimConfig};
    pub use curare_transform::{Curare, CurareOutput, Device, FunctionReport};
}
