//! The CRI runtime (paper §4): server pools, ordered task queues,
//! location locks, and futures over the shared-heap interpreter.
//!
//! - [`locktable`]: the dynamically allocated collection of location
//!   locks behind `cri-lock`/`cri-unlock` (§3.2.1);
//! - [`queue`]: the per-call-site-ordered task queues (§4.1);
//! - [`futures`]: Multilisp-style futures with blocking `touch` (§3.1);
//! - [`pool`]: the server pool — `S` threads repeatedly executing
//!   invocation bodies without context switches (§4);
//! - [`chaos`]: seeded fault injection at the pool's decision points
//!   (armed at run time by `chaos::install`).
//!
//! # Example
//!
//! ```
//! use curare_lisp::{Interp, Value};
//! use curare_runtime::CriRuntime;
//! use curare_transform::Curare;
//! use std::sync::Arc;
//!
//! // Transform a recursive walker and execute it on 4 servers.
//! let out = Curare::new()
//!     .transform_source(
//!         "(curare-declare (reorderable +))
//!          (defun walk (l)
//!            (when l (setq *sum* (+ *sum* (car l))) (walk (cdr l))))",
//!     )
//!     .unwrap();
//! let interp = Arc::new(Interp::new());
//! interp.load_str(&out.source()).unwrap();
//! interp.load_str("(defparameter *sum* 0)").unwrap();
//! let rt = CriRuntime::new(Arc::clone(&interp), 4);
//! let list = interp.load_str("(list 1 2 3 4 5)").unwrap();
//! rt.run("walk", &[list]).unwrap();
//! assert_eq!(
//!     interp.heap().display(interp.load_str("*sum*").unwrap()),
//!     "15"
//! );
//! ```

pub mod chaos;
pub mod futures;
pub mod locktable;
pub mod pool;
pub mod queue;
pub mod watchdog;

pub use futures::FutureTable;
pub use locktable::{Location, LockTable};
pub use pool::{CriHooks, CriRuntime, PoolStats, RuntimeConfig, SchedMode};
pub use queue::Task;
