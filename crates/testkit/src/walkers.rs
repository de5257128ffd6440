//! The walker level: self-recursive list walkers, the programs the
//! restructurer converts, in the families the batteries sweep.

use std::sync::Arc;

use curare_bench::distance_k_writer;
use curare_lisp::Value;

use crate::{int_list, list_of, Oracle, Program, Rng};

/// `(cdr (cdr … l))`, `n` deep.
pub fn nth_cdr(n: usize) -> String {
    (0..n).fold("l".to_string(), |place, _| format!("(cdr {place})"))
}

/// What a walker's body may be wrapped in: every spelling of "if the
/// list is not empty" the restructurer reads, each a prefix and the
/// parentheses that close it.
pub const WRAPPERS: [(&str, &str); 7] = [
    ("(when l ", ")"),
    ("(unless (null l) ", ")"),
    ("(if l (progn ", "))"),
    ("(cond (l ", "))"),
    ("(let ((c l)) (when c ", "))"),
    ("(let* ((c l) (d c)) (when d ", "))"),
    ("(and l (progn ", "))"),
];

/// One walker of the family: `head_prints` head prints, an optional
/// guarded in-head write `write_offset` cells ahead, recursion by
/// `step` cells. With a `wrapper` that is the whole body; with none,
/// the write and the call sit in a `while` loop the entry invocation
/// goes round twice (its counter `k` is 2 at the root and 0 in every
/// spawned invocation), the write counting up in place so that the
/// second trip's spawn must see what the first one's did not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walker {
    pub wrapper: Option<(&'static str, &'static str)>,
    pub head_prints: usize,
    pub write_offset: Option<usize>,
    pub step: usize,
}

impl Walker {
    /// The family: every wrapper and the `while` form × 0–2 head
    /// prints × no write or a write 0, 1 or 2 cells ahead × step 1 or
    /// 2 — 192 walkers, each named `w`.
    pub fn family() -> Vec<Walker> {
        let mut family = Vec::new();
        for wrapper in WRAPPERS.into_iter().map(Some).chain([None]) {
            for head_prints in 0..3 {
                for write_offset in [None, Some(0), Some(1), Some(2)] {
                    for step in 1..3 {
                        family.push(Walker { wrapper, head_prints, write_offset, step });
                    }
                }
            }
        }
        family
    }

    /// The walker's text.
    pub fn source(&self) -> String {
        let mut body = "(princ (car l)) ".repeat(self.head_prints);
        let write = self.write_offset.map(nth_cdr).map(|place| match self.wrapper {
            Some(_) => format!("(when {place} (setf (car {place}) (+ 1 (car l)))) "),
            None => format!("(when {place} (setf (car {place}) (+ 1 (car {place})))) "),
        });
        let (write, next) = (write.unwrap_or_default(), nth_cdr(self.step));
        match self.wrapper {
            Some((open, close)) => format!("(defun w (l) {open}{body}{write}(w {next}){close})"),
            None => {
                body.push_str(&format!("(while (> k 0) (setq k (- k 1)) {write}(w {next} 0))"));
                format!("(defun w (l k) (when l {body}))")
            }
        }
    }

    /// The walker entered at `(len-1 … 1 0)` (and, in the `while`
    /// form, a counter of 2), judged against its text as written.
    pub fn program(&self, len: usize) -> Program {
        let counter = self.wrapper.is_none().then_some(Value::int(2));
        let values: Vec<i64> = (0..len as i64).rev().collect();
        Program {
            args: Arc::new(move |interp| {
                [list_of(interp, &values)].into_iter().chain(counter).collect()
            }),
            ..Program::entered(format!("{self:?} over {len} cells"), &self.source(), "w")
        }
    }
}

/// A small integer operator expression over `x`.
fn operator(rng: &mut Rng, x: &str) -> String {
    match rng.below(4) {
        0 => format!("(+ {x} {})", 1 + rng.below(5)),
        1 => format!("(- {x} {})", 1 + rng.below(5)),
        2 => format!("(* {x} 2)"),
        _ => format!("(+ {x} {x})"),
    }
}

/// The three shapes speculation is tried on, each `walk` over a list:
/// a provably independent own-cell writer (head or tail position), a
/// tail writer `k` ∈ 1..=3 cells ahead, and a ⊤ writer whose write
/// root passes through an identity helper the analysis cannot see
/// through (admitted only under speculation; per-cell disjoint at run
/// time, but not provably so). Returns the text and whether the
/// analysis can prove the invocations independent.
pub fn speculation_walker(rng: &mut Rng) -> (String, bool) {
    match rng.below(3) {
        0 => {
            let op = operator(rng, "(car l)");
            let body = if rng.below(2) == 0 {
                format!("(setf (car l) {op}) (walk (cdr l))")
            } else {
                format!("(walk (cdr l)) (setf (car l) {op})")
            };
            (format!("(defun walk (l) (when (consp l) {body}))"), true)
        }
        1 => {
            let place = nth_cdr(1 + rng.below(3));
            let op = operator(rng, "(car l)");
            let source = format!(
                "(defun walk (l)
                   (when (consp l)
                     (walk (cdr l))
                     (when {place} (setf (car {place}) {op}))))"
            );
            (source, false)
        }
        _ => {
            let op = operator(rng, "(car l)");
            let source = format!(
                "(defun veil (l) l)
                 (defun walk (l)
                   (when (consp l)
                     (walk (cdr l))
                     (setf (car (veil l)) {op})))"
            );
            (source, false)
        }
    }
}

/// `curare-bench`'s distance-`k` tail writer `fk` entered at `(n … 1)`:
/// its conflict distance is exactly `k`.
pub fn distance_writer(k: usize, n: i64) -> Program {
    Program {
        args: Arc::new(move |interp| vec![int_list(interp, n)]),
        oracle: Oracle::Restructured,
        ..Program::entered(format!("distance-{k} (n = {n})"), &distance_k_writer(k), "fk")
    }
}
