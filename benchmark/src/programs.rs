//! The program families the workloads draw from, as Lisp source text.
//!
//! Fixed programs live under `benchmark/programs/` with `@NAME@` where
//! the function name goes (the corpus needs 64 unique names in one
//! file); parametric ones are generated here. Nothing comes from
//! `crates/bench`, so editing a helper there cannot change a workload.

/// One program shape. The parameters are the knobs the paper's
/// formulas depend on: conflict distance `k`, grain (`pad` arithmetic
/// steps), and the number of lock brackets (`reads`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Figure 3: print walker, conflict-free.
    Figure3,
    /// Figure 4: head write one cell ahead.
    Figure4,
    /// Figure 5: running sums (head ordering).
    Figure5,
    /// Figure 12: `remq` (destination-passing style).
    Figure12,
    /// Declared-commutative global accumulation (reorder).
    SumWalk,
    /// Tail write overlapping the call argument (future sync).
    Rotate,
    /// Tail write `k` cells ahead (conflict distance `k`).
    DistanceK(usize),
    /// Read-window walker: doubles its own car, then `reads`
    /// statements of [`WINDOW_READ_TERMS`] loads over the cars `k` and
    /// `k+1` ahead (synthesised rw lock placement).
    Window { k: usize, reads: usize },
    /// `pad` unfused steps in the head, no heap effect.
    Padded(usize),
    /// ⊤-write: the write root hides behind an identity call; `pad`
    /// unfused steps of work per cell. Refused statically, admitted
    /// under speculation.
    Scrub(usize),
    /// Cross-parameter tail write `(mix a b)`.
    Mix,
    /// Doubly linked walker writing the previous node (inverse pair).
    DlBackward,
    /// Conflict-free tail of `pad` fused steps: `(|H|+|T|)/|H|` ≫ S.
    TailHeavy(usize),
    /// Hand-written CRI program: `sites` leaf call sites picked by the
    /// element's value, leaves of `pad` fused steps, `atomic-incf` sum.
    Spreader { sites: usize, pad: usize },
}

/// Loads per read statement of the window walker; makes each lock
/// bracket long enough for two invocations to meet inside it.
const WINDOW_READ_TERMS: usize = 16;

fn template(text: &str, name: &str) -> String {
    text.replace("@NAME@", name)
}

/// One arithmetic step of busywork, in two spellings so that both VM
/// paths are measured: `(+ x 1)` compiles to a fused superinstruction,
/// `(1+ x)` does not. The families that share the corpus file with
/// `(curare-declare (reorderable +))` must use the second: the reorder
/// device rewrites `(setq x (+ x 1))` on a *local* `x` to `atomic-incf`,
/// which then fails to load (found while building this benchmark; the
/// fix belongs to a later PR).
const FUSED_STEP: &str = "(setq x (+ x 1)) ";
const UNFUSED_STEP: &str = "(setq x (1+ x)) ";

fn cdrs(k: usize) -> String {
    let mut place = "l".to_string();
    for _ in 0..k {
        place = format!("(cdr {place})");
    }
    place
}

impl Family {
    /// The defun(s) of this family under `name`. Helpers are named
    /// `<name>-…` so every definition in a corpus file is unique.
    pub fn source(self, name: &str) -> String {
        match self {
            Family::Figure3 => template(include_str!("../programs/figure3.lisp"), name),
            Family::Figure4 => template(include_str!("../programs/figure4.lisp"), name),
            Family::Figure5 => template(include_str!("../programs/figure5.lisp"), name),
            Family::Figure12 => template(include_str!("../programs/figure12.lisp"), name),
            Family::SumWalk => template(include_str!("../programs/sum_walk.lisp"), name),
            Family::Rotate => template(include_str!("../programs/rotate.lisp"), name),
            Family::Mix => template(include_str!("../programs/mix.lisp"), name),
            Family::DlBackward => template(include_str!("../programs/dl_backward.lisp"), name),
            Family::DistanceK(k) => {
                let place = cdrs(k);
                format!(
                    "(defun {name} (l)
  (when l
    ({name} (cdr l))
    (when {place}
      (setf (car {place}) (car l)))))\n"
                )
            }
            Family::Window { k, reads } => {
                let near = cdrs(k);
                let far = cdrs(k + 1);
                let sum_of = |word: &str| {
                    format!("(+{}) ", format!(" (car {word})").repeat(WINDOW_READ_TERMS))
                };
                // Runs of two per side: adjacent invocations read the
                // same word (i's far word is i+1's near word), and
                // interleaving spreads both words over the whole body
                // so same-word brackets overlap in time.
                let mut body = String::new();
                for _ in 0..reads.div_ceil(2) {
                    for word in [&near, &near, &far, &far] {
                        body.push_str(&sum_of(word));
                    }
                }
                format!(
                    "(defun {name} (l)
  (when {far}
    ({name} (cdr l))
    (setf (car l) (* (car l) 2))
    {body}))\n"
                )
            }
            Family::Padded(pad) => format!(
                "(defun {name} (l)
  (when l
    (let ((x 0)) {} x)
    ({name} (cdr l))))\n",
                UNFUSED_STEP.repeat(pad)
            ),
            Family::Scrub(pad) => format!(
                "(defun {name}-veil (l) l)
(defun {name}-crunch (v)
  (let ((x v)) {} x))
(defun {name} (l)
  (when (consp l)
    ({name} (cdr l))
    (setf (car ({name}-veil l)) ({name}-crunch (car l)))))\n",
                UNFUSED_STEP.repeat(pad)
            ),
            Family::TailHeavy(pad) => format!(
                "(defun {name}-crunch (v)
  (let ((x v)) {} x))
(defun {name} (l)
  (when l
    ({name} (cdr l))
    (setf (car l) ({name}-crunch (car l)))))\n",
                FUSED_STEP.repeat(pad)
            ),
            Family::Spreader { sites, pad } => {
                // `cri-enqueue` takes a literal site index, hence the
                // cond ladder. Each spread step publishes two tasks (a
                // leaf and its own continuation), which cannot chain,
                // so every task goes through the site queues.
                let arms: String = (0..sites)
                    .map(|v| format!("((= v {v}) (cri-enqueue {} {name}-leaf v))\n", v + 1))
                    .collect();
                format!(
                    "(defparameter *{name}* 0)
(defun {name} (l)
  (when l
    (let ((v (car l)))
      (cond {arms} (t nil)))
    (cri-enqueue 0 {name} (cdr l))))
(defun {name}-leaf (v)
  (let ((x 0)) {} x)
  (atomic-incf *{name}* (+ v 1)))\n",
                    FUSED_STEP.repeat(pad)
                )
            }
        }
    }

    /// Top-level forms a file holding this family needs once.
    pub fn prelude(self) -> &'static [&'static str] {
        match self {
            Family::SumWalk => &["(curare-declare (reorderable +))"],
            Family::Window { .. } => &["(curare-declare (reorderable *))"],
            Family::DlBackward => {
                &["(defstruct dl succ pred value)", "(curare-declare (inverse succ pred))"]
            }
            _ => &[],
        }
    }
}

/// One source file: the preludes of every family present (each once,
/// in first-use order), then the definitions.
pub fn file(defs: &[(Family, String)]) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for (family, _) in defs {
        for form in family.prelude() {
            if !seen.contains(form) {
                seen.push(form);
                out.push_str(form);
                out.push('\n');
            }
        }
    }
    for (family, name) in defs {
        out.push_str(&family.source(name));
        out.push('\n');
    }
    out
}
