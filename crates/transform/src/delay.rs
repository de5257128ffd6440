//! Delays (paper §3.2.2): code motion into the head.
//!
//! In the CRI model "the only inherent ordering on statement execution
//! is that heads of functions execute sequentially". A statement that
//! conflicts with later invocations is therefore correctly ordered iff
//! it executes *before* the recursive call spawns them. This pass
//! moves statements that follow a self-recursive call to just before
//! the first self-call of their sequence — enlarging the head and
//! paying concurrency for synchronization-free correctness, "less
//! expensive than locking" when it applies.
//!
//! A statement may move only when doing so preserves the program's
//! semantics:
//! - it contains no self-call itself;
//! - its structure writes do not overlap the locations the crossed
//!   calls' argument expressions read (checked with the access-path
//!   machinery, not syntax);
//! - **its writes take part in no cross-invocation conflict**: moving
//!   an order-sensitive write across the spawn would replace the
//!   sequential *unwind* order with invocation order and change the
//!   result — such statements are left for future synchronization;
//! - nothing unmovable sits between it and the call (relative order
//!   with unmoved effectful statements is preserved by stopping at the
//!   first blocker).
//!
//! The net effect is the paper's trade: the head grows (less
//! concurrency) but the moved statements need no synchronization.

use std::collections::BTreeSet;
use std::rc::Rc;

use curare_analysis::{collect_accesses, AccessSummary, FunctionAnalysis, Path};
use curare_lisp::{Heap, Lowerer};
use curare_sexpr::Sexpr;

use crate::shape::{self, Device, Pos};
use crate::sx;

/// Output of the delay pass.
#[derive(Debug, Clone)]
pub struct DelayResult {
    /// The rewritten defun.
    pub form: Sexpr,
    /// Number of statements moved into the head.
    pub moved: usize,
}

/// Move post-call statements into the head where safe. `analysis` is
/// the analysis of `form` itself: the locations its conflicts name are
/// the ones whose writers must stay where they are.
pub fn delay_transform(
    form: &Sexpr,
    analysis: &FunctionAnalysis,
    probes: &mut Probes<'_>,
) -> Option<DelayResult> {
    let parts = sx::parse_defun(form)?;

    // Locations involved in cross-invocation conflicts: statements
    // writing them are order-sensitive and must not move.
    let conflicting: BTreeSet<(usize, Path)> = analysis
        .conflicts
        .conflicts
        .iter()
        .flat_map(|c| [(c.root, c.write_path.clone()), (c.root, c.other_path.clone())])
        .collect();

    let mut ctx = Ctx {
        fname: parts.name,
        conflicting: &conflicting,
        probes,
        moved: 0,
        call_args: Vec::new(),
    };
    let new_body = shape::walk_body(&mut ctx, &parts.body);
    if ctx.moved == 0 {
        return None;
    }
    Some(DelayResult {
        form: sx::make_defun(parts.name, &parts.params, &parts.declares, new_body),
        moved: ctx.moved,
    })
}

/// Shared context for the motion walk.
struct Ctx<'a, 'h> {
    fname: &'a str,
    conflicting: &'a BTreeSet<(usize, Path)>,
    probes: &'a mut Probes<'h>,
    moved: usize,
    /// The arguments of every self-call walked so far.
    call_args: Vec<Sexpr>,
}

/// Access summaries of statements of one defun, each obtained by
/// lowering a probe function with the defun's parameter list — once:
/// the devices ask about the same statements again and again (delay
/// about every candidate and the call arguments it would cross, the
/// order-insensitivity gate about every tail statement, the bracket
/// walk about every statement), and a summary depends on nothing but
/// the statement, the parameters and the heap's struct registry, so it
/// outlives every rewrite of the enclosing form.
pub struct Probes<'h> {
    pub(crate) heap: &'h Heap,
    params: Vec<String>,
    seen: Vec<(Vec<Sexpr>, Option<Rc<AccessSummary>>)>,
}

impl<'h> Probes<'h> {
    /// An empty cache for the statements of the defun `form`; `None`
    /// if it is not one.
    pub fn for_defun(heap: &'h Heap, form: &Sexpr) -> Option<Self> {
        let params = sx::parse_defun(form)?.params.iter().map(|p| p.to_string()).collect();
        Some(Probes { heap, params, seen: Vec::new() })
    }

    /// How many probe functions were lowered.
    pub fn lowerings(&self) -> usize {
        self.seen.len()
    }

    /// Access summary of `forms` evaluated in sequence; `None` if they
    /// do not lower.
    pub fn accesses(&mut self, forms: &[Sexpr]) -> Option<Rc<AccessSummary>> {
        if let Some((_, known)) = self.seen.iter().find(|(f, _)| f == forms) {
            return known.clone();
        }
        let mut items = vec![
            sx::sym("defun"),
            sx::sym("%curare-probe"),
            Sexpr::List(self.params.iter().map(sx::sym).collect()),
        ];
        items.extend(forms.iter().cloned());
        let lowered = Lowerer::new(self.heap).lower_program(&[Sexpr::List(items)]).ok();
        let summary = lowered.and_then(|p| Some(Rc::new(collect_accesses(p.funcs.first()?))));
        self.seen.push((forms.to_vec(), summary.clone()));
        summary
    }
}

/// Do any of `a`'s writes overlap `b`'s accesses (same parameter root,
/// one path a prefix of the other)?
fn writes_overlap(a: &AccessSummary, b: &AccessSummary) -> bool {
    let overlap = |p: &Path, q: &Path| p.is_prefix_of(q) || q.is_prefix_of(p);
    a.writes().any(|w| b.records.iter().any(|r| r.root == w.root && overlap(&w.path, &r.path)))
        || b.writes()
            .any(|w| a.records.iter().any(|r| r.root == w.root && overlap(&w.path, &r.path)))
}

/// Can `stmt` move before the self-calls whose argument expressions
/// are `call_args`?
fn movable(ctx: &mut Ctx, stmt: &Sexpr, call_args: &[Sexpr]) -> bool {
    // Atoms have no effects; leaving them in place is always right.
    if !matches!(stmt, Sexpr::List(items) if !items.is_empty()) {
        return false;
    }
    if sx::mentions_call(stmt, ctx.fname) {
        return false;
    }
    let Some(stmt_acc) = ctx.probes.accesses(std::slice::from_ref(stmt)) else {
        return false;
    };
    // Unanalyzable effects: refuse to move.
    if stmt_acc.unknown_writes > 0 || !stmt_acc.globals_written.is_empty() {
        return false;
    }
    // Order-sensitive writes (cross-invocation conflicts) must keep
    // their unwind-order position; future-sync will handle them.
    if stmt_acc.writes().any(|w| ctx.conflicting.contains(&(w.root, w.path.clone()))) {
        return false;
    }
    let Some(args_acc) = ctx.probes.accesses(call_args) else {
        return false;
    };
    !writes_overlap(&stmt_acc, &args_acc)
}

impl Device for Ctx<'_, '_> {
    fn fname(&self) -> &str {
        self.fname
    }

    /// Nested sequences first, then this one. In a body that repeats, a
    /// statement hoisted above the call would still follow the previous
    /// iteration's spawn: it is not head work, so nothing moves.
    fn sequence(&mut self, stmts: &[(&Sexpr, Pos)], repeats: bool) -> Vec<Sexpr> {
        let before = self.call_args.len();
        let stmts = shape::walk_each(self, stmts);
        if repeats {
            return stmts;
        }
        let call_args = self.call_args[before..].to_vec();
        self.hoist(stmts, &call_args)
    }

    fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
        self.call_args.extend(call.as_list().expect("a call")[1..].iter().cloned());
        shape::operands(self, call, pos)
    }
}

impl Ctx<'_, '_> {
    /// Move the movable statements that follow the first call-bearing
    /// statement of one sequence to just before it; `call_args` are the
    /// arguments of the self-calls they would cross.
    fn hoist(&mut self, stmts: Vec<Sexpr>, call_args: &[Sexpr]) -> Vec<Sexpr> {
        let Some(first_call) = stmts.iter().position(|s| sx::mentions_call(s, self.fname)) else {
            return stmts;
        };

        let mut head: Vec<Sexpr> = stmts[..first_call].to_vec();
        let mut hoisted: Vec<Sexpr> = Vec::new();
        let mut rest: Vec<Sexpr> = Vec::new();
        let mut blocked = false;
        let mut last_was_hoisted = false;
        for (i, s) in stmts[first_call..].iter().enumerate() {
            let is_last = first_call + i + 1 == stmts.len();
            if sx::mentions_call(s, self.fname) {
                rest.push(s.clone());
            } else if !blocked && movable(self, s, call_args) {
                hoisted.push(s.clone());
                self.moved += 1;
                last_was_hoisted = is_last;
            } else {
                blocked = true;
                rest.push(s.clone());
            }
        }
        if last_was_hoisted {
            // The hoisted statement was the sequence's value. Preserve it
            // by binding: (let ((%curare-delayed S)) rest... %curare-delayed).
            let value_stmt = hoisted.pop().expect("last_was_hoisted implies nonempty");
            let tmp = format!("%curare-delayed{}", self.moved);
            head.extend(hoisted);
            rest.push(sx::sym(tmp.clone()));
            head.push(shape::let_form(false, vec![(tmp, value_stmt)], rest));
        } else {
            head.extend(hoisted);
            head.extend(rest);
        }
        head
    }
}

/// Is there work after a self-call within one invocation of the body?
/// (Used by the pipeline to decide whether head ordering already
/// resolves all conflicts.) Atoms and quoted data are not work — a
/// trailing variable reference, such as the value binding the delay
/// transform introduces, touches no heap location — while a self-call
/// whose value is consumed always has the consumer after it, and one
/// in a loop body the next iteration.
pub fn has_tail_statements(form: &Sexpr, fname: &str) -> bool {
    struct Probe<'a> {
        fname: &'a str,
        found: bool,
    }
    impl Device for Probe<'_> {
        fn fname(&self) -> &str {
            self.fname
        }
        fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
            self.found |= pos.follows;
            shape::operands(self, call, pos)
        }
    }
    let Some(parts) = sx::parse_defun(form) else { return false };
    let mut probe = Probe { fname, found: false };
    shape::walk_body(&mut probe, &parts.body);
    probe.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_analysis::DeclDb;
    use curare_sexpr::parse_one;

    fn delay(src: &str) -> Option<DelayResult> {
        let heap = Heap::new();
        let form = parse_one(src).unwrap();
        let analysis = crate::locks::analyze_defun(&heap, &form, &DeclDb::new()).unwrap();
        delay_transform(&form, &analysis, &mut Probes::for_defun(&heap, &form).unwrap())
    }

    #[test]
    fn post_call_write_moves_into_head() {
        // Head-recursive: write after the call; the write (car l) does
        // not overlap the call's argument read (cdr l).
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (car l) 0)))",
        )
        .expect("should move");
        assert_eq!(r.moved, 1);
        let text = r.form.to_string();
        let write = text.find("(setf (car l) 0)").expect("write kept");
        let call = text.find("(f (cdr l))").expect("call kept");
        assert!(write < call, "write should precede the call: {text}");
    }

    #[test]
    fn overlapping_write_does_not_move() {
        // The write hits (cdr l), which the call argument reads:
        // moving it would change the spawned invocation's argument.
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cdr l) nil)))",
        );
        assert!(r.is_none(), "{r:?}");
    }

    #[test]
    fn no_tail_statements_no_motion() {
        assert!(delay("(defun f (l) (when l (print (car l)) (f (cdr l))))").is_none());
    }

    #[test]
    fn semantics_preserved_after_motion() {
        let src = "(defun f (l)
                     (when l
                       (f (cdr l))
                       (setf (car l) (* 2 (car l)))))";
        let r = delay(src).expect("moves");
        let orig = curare_lisp::Interp::new();
        orig.load_str(src).unwrap();
        let moved = curare_lisp::Interp::new();
        moved.load_str(&r.form.to_string()).unwrap();
        for init in ["(list 1 2 3)", "nil", "(list 5)"] {
            let run = format!("(let ((d {init})) (f d) d)");
            let a = orig.load_str(&run).unwrap();
            let b = moved.load_str(&run).unwrap();
            assert_eq!(orig.heap().display(a), moved.heap().display(b), "{run}");
        }
    }

    #[test]
    fn order_sensitive_conflicting_write_does_not_move() {
        // The accumulator cell is written by *every* invocation
        // (distance-1 persistent conflict). Sequentially the updates
        // happen in unwind order; hoisting would reverse them, so the
        // statement must stay put (future-sync will order it).
        let r = delay(
            "(defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (cons (car l) (car acc)))))",
        );
        assert!(r.is_none(), "{r:?}");
    }

    #[test]
    fn global_writer_does_not_move() {
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setq *count* (+ *count* 1))))",
        );
        assert!(r.is_none());
    }

    #[test]
    fn value_position_final_statement_is_let_bound() {
        // The final statement is the sequence's value: hoisting must
        // preserve it through a let binding.
        let src = "(defun f (l)
               (when l
                 (f (cdr l))
                 (car l)))";
        let r = delay(src).expect("should move with a binding");
        let text = r.form.to_string();
        assert!(text.contains("%curare-delayed"), "{text}");
        let orig = curare_lisp::Interp::new();
        orig.load_str(src).unwrap();
        let moved = curare_lisp::Interp::new();
        moved.load_str(&r.form.to_string()).unwrap();
        for call in ["(f (list 1 2 3))", "(f nil)"] {
            let a = orig.load_str(call).unwrap();
            let b = moved.load_str(call).unwrap();
            assert_eq!(orig.heap().display(a), moved.heap().display(b), "{call}\n{text}");
        }
    }

    #[test]
    fn multiple_post_call_writes_move_in_order() {
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cddr l))
                 (setf (car l) 1)
                 (setf (cadr l) 2)
                 nil))",
        )
        .expect("should move both writes");
        assert_eq!(r.moved, 2);
        let text = r.form.to_string();
        let w1 = text.find("(setf (car l) 1)").expect("w1");
        let w2 = text.find("(setf (cadr l) 2)").expect("w2");
        let call = text.find("(f (cddr l))").expect("call");
        assert!(w1 < w2 && w2 < call, "{text}");
    }

    #[test]
    fn has_tail_statements_detects_shapes() {
        let yes = parse_one("(defun f (l) (when l (f (cdr l)) (print l)))").unwrap();
        assert!(has_tail_statements(&yes, "f"));
        let no = parse_one("(defun f (l) (when l (print l) (f (cdr l))))").unwrap();
        assert!(!has_tail_statements(&no, "f"));
        let nested =
            parse_one("(defun f (l) (cond ((null l) nil) (t (f (cdr l)) (setf (car l) 1))))")
                .unwrap();
        assert!(has_tail_statements(&nested, "f"));
        let value_pos = parse_one("(defun f (l) (cons 1 (f (cdr l))))").unwrap();
        assert!(has_tail_statements(&value_pos, "f"));
    }

    #[test]
    fn a_loop_body_is_tail_work_and_nothing_in_it_is_head_work() {
        // The spawn of one trip round the loop is followed by the next
        // trip: the write *before* the call is tail work too.
        let looping = "(defun f (l k)
               (when l
                 (while (> k 0)
                   (setq k (- k 1))
                   (setf (car l) 0)
                   (f (cdr l) 0))))";
        assert!(has_tail_statements(&parse_one(looping).unwrap(), "f"));
        // A loop that spawns nothing is head work like any other.
        let before = "(defun f (l k) (when l (while (> k 0) (setq k (- k 1))) (f (cdr l) 0)))";
        assert!(!has_tail_statements(&parse_one(before).unwrap(), "f"));
        // Hoisting inside the loop would leave the statement after the
        // previous trip's spawn: delay moves nothing there.
        let after = "(defun f (l k)
               (when l
                 (while (> k 0)
                   (setq k (- k 1))
                   (f (cdr l) 0)
                   (setf (car l) 0))))";
        assert!(delay(after).is_none());
    }
}
