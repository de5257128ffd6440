//! Curare's program analyses (paper §2, §3.1, §6).
//!
//! This crate implements the conflict-detection machinery that makes
//! the restructuring transformations of `curare-transform` sound:
//!
//! - [`path`]: access paths — strings over the accessor alphabet;
//! - [`regex`]: regular expressions over accessors, with the prefix
//!   test `A₁ ≤ L(τ·A₂)` at the heart of the conflict criterion;
//! - [`access`]: collecting structure accesses/modifications from a
//!   function body, following local aliases flow-insensitively;
//! - [`transfer`]: per-parameter transfer functions `τ_v` (`cdr⁺`,
//!   alternations, `A*`);
//! - [`conflict`]: conflicts between recursive invocations and their
//!   *distances*;
//! - [`cfg`](mod@cfg) / [`headtail`]: dominator-based head/tail partition and
//!   the CRI concurrency estimate `(|H|+|T|)/|H|`;
//! - [`canon`] / [`sapp`]: canonicalization of benign aliasing and the
//!   single-access-path-property checker;
//! - [`declare`]: the programmer-declaration database (§6);
//! - [`analyze`]: the combined per-function verdict with §6-style
//!   feedback;
//! - [`locksynth`]: synthesis of the minimal read-write lock
//!   placement from the conflict report (§3.2.1), with the coverage
//!   predicate the C007/C008 certifier re-checks.
//!
//! # Example: the paper's Figure 5
//!
//! ```
//! use curare_analysis::analyze::{analyze_function, Verdict};
//! use curare_analysis::declare::DeclDb;
//! use curare_lisp::{Heap, Lowerer};
//! use curare_sexpr::parse_all;
//!
//! let heap = Heap::new();
//! let mut lw = Lowerer::new(&heap);
//! let prog = lw
//!     .lower_program(
//!         &parse_all(
//!             "(defun f (l)
//!                (cond ((null l) nil)
//!                      ((null (cdr l)) (f (cdr l)))
//!                      (t (setf (cadr l) (+ (car l) (cadr l)))
//!                         (f (cdr l)))))",
//!         )
//!         .unwrap(),
//!     )
//!     .unwrap();
//! let analysis = analyze_function(&prog.funcs[0], &DeclDb::new());
//! assert_eq!(analysis.verdict, Verdict::NeedsSynchronization { min_distance: 1 });
//! ```

pub mod access;
pub mod analyze;
pub mod canon;
pub mod canon_conflict;
pub mod cfg;
pub mod conflict;
pub mod declare;
pub mod headtail;
pub mod locksynth;
pub mod path;
pub mod regex;
pub mod sapp;
pub mod transfer;

pub use access::{collect_accesses, AccessRecord, AccessSummary};
pub use analyze::{
    analyze_function, analyze_program, AnalysisStats, Analyzer, BlockReason, FunctionAnalysis,
    Verdict,
};
pub use canon::Canonicalizer;
pub use canon_conflict::conflicts_with_canon;
pub use cfg::Cfg;
pub use conflict::{analyze_conflicts, Conflict, ConflictReport, DependencyKind};
pub use declare::{DeclDb, DeclError, DeclaredLock};
pub use headtail::{head_tail, CallCosts, Cost, HeadTail};
pub use locksynth::{
    certify, covering_pair, declared_placement, naive as naive_placement, synthesize, CertIssue,
    LockMode, OrderingContext, PairInfo, PairOrder, Placement, SynthLock,
};
pub use path::{Accessor, Path};
pub use regex::PathRegex;
pub use sapp::{check_sapp, SappReport, SappViolation};
pub use transfer::{transfer_functions, Transfer, TransferSummary};
