//! `curare-check` — static diagnostics and the dynamic soundness
//! oracle for the Curare conflict analysis.
//!
//! Two halves, both readers of the one record a restructuring leaves
//! (`curare_transform::CurareOutput`) — neither lowers a program,
//! collects declarations, analyses a function or derives a lock
//! placement of its own:
//!
//! - [`collect::check_source`] runs the transformation pipeline and
//!   reports the conservative assumptions and silent degradations of
//!   the analyses it relied on as structured
//!   [`diag::Diagnostic`]s with stable codes (C001–C008), rendered as
//!   human text or `curare-diag/1` JSON. The `curare check`
//!   subcommand is a thin wrapper over this with the exit contract
//!   0 = clean, 1 = warnings, 2 = errors.
//!   [`lockcert::check_locks_source`] adds the §3.2.1 lock-placement
//!   certifier on top (C007 unsound / C008 non-minimal, plus
//!   machine-checkable `curare-locks/1` placement documents) — the
//!   `curare check --locks` surface.
//!
//! - [`sanitizer`] validates the analysis itself: under
//!   [`sanitized_run`], every heap-word access in a CRI run is recorded
//!   (per-invocation, per-server), the happens-before order is
//!   reconstructed from spawn/touch events, and every cross-invocation
//!   conflicting pair is diffed against the statically predicted
//!   conflict set. An observed-but-unpredicted unordered pair is a
//!   soundness failure; predicted-but-never-observed pairs are a
//!   precision loss only.

pub mod collect;
pub mod diag;
pub mod lockcert;
pub mod sanitizer;

pub use collect::{check_source, CheckError};
pub use diag::{Code, Diagnostic, DiagnosticSet, Severity};
pub use lockcert::{check_locks_source, LockCertReport};
pub use sanitizer::{
    cross_check, lock_coverage, predicted_pairs, sanitized_run, CrossCheck, PredictedPairs,
    UnpredictedPair,
};
