//! Curare's restructuring transformations (paper §3.2, §5, and the
//! code-generator stage of §4).
//!
//! Every transformation is source-to-source: it consumes and produces
//! s-expressions, with analyses run on lowered copies, so the output
//! of each pass is a readable Lisp program the next pass (or a human)
//! can inspect — exactly the paper's feedback model (§6).
//!
//! - [`shape`]: the table of statement shapes — the one place a control
//!   keyword is spelt — and the walk that tells every device below where
//!   a form sits (value used or not, work after it, a spawn before it);
//! - [`reorder`]: §3.2.3 — declared-commutative updates become atomic;
//!   unordered-insert / any-result constraints are dismissed;
//! - [`delay`]: §3.2.2 — post-call statements move into the head;
//! - [`locks`]: §3.2.1 — statement-scoped lock brackets from a
//!   synthesized (coalesced, read–write) placement;
//! - [`rec2iter`]: §5 — tail recursion becomes a loop;
//! - [`dps`]: §5 — destination-passing style (Figures 12–13);
//! - [`fold`]: §5 — linear reductions become accumulating walkers;
//! - [`futuresync`]: §3.1 — unwind-order synchronization via futures;
//! - [`cri`]: §3.1/§4 — recursive calls become queue insertions;
//! - [`pipeline`]: the driver that picks devices per function.
//!
//! # Example
//!
//! ```
//! use curare_transform::Curare;
//!
//! let out = Curare::new()
//!     .transform_source("(defun f (l) (when l (print (car l)) (f (cdr l))))")
//!     .unwrap();
//! assert!(out.source().contains("cri-enqueue"));
//! assert!(out.report("f").unwrap().converted);
//! ```

pub mod cri;
pub mod delay;
pub mod dps;
pub mod fold;
pub mod futuresync;
pub mod locks;
pub mod pipeline;
pub mod rec2iter;
pub mod reorder;
pub mod shape;
pub mod sx;

pub use cri::{cri_convert, cri_convert_handoff, CriError, CriResult};
pub use delay::{delay_transform, has_tail_statements, DelayResult, Probes};
pub use dps::{dps_transform, DpsError, DpsResult};
pub use fold::{fold_to_walker, FoldError, FoldResult};
pub use futuresync::{future_sync, FutureSyncResult};
pub use locks::{
    analyze_defun, insert_placement, lock_rescue, placement_specs, LockResult, LockSpec,
    TransformError,
};
pub use pipeline::{
    Curare, CurareOutput, Device, FunctionReport, PipelineError, Publication, HANDOFF_THRESHOLD,
};
pub use rec2iter::{recursion_to_iteration, Rec2IterError};
pub use reorder::{reorder_transform, ReorderResult};
