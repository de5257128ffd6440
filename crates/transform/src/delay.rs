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
//! - **none of its accesses takes part in a cross-invocation
//!   conflict**: moving an order-sensitive write across the spawn would
//!   replace the sequential *unwind* order with invocation order, and
//!   moving a read would read before the later invocations' writes it
//!   follows — either changes the result, so such statements are left
//!   for future synchronization;
//! - nothing unmovable sits between it and the call (relative order
//!   with unmoved effectful statements is preserved by stopping at the
//!   first blocker).
//!
//! The net effect is the paper's trade: the head grows (less
//! concurrency) but the moved statements need no synchronization.

use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use curare_analysis::{
    collect_accesses, statement_accesses, AccessSummary, FunctionAnalysis, Path,
};
use curare_lisp::ast::{Expr, Func};
use curare_lisp::{Heap, Lowerer};
use curare_sexpr::{AddressHasher, Sexpr};

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
/// the ones whose writers must stay where they are. `probes` answers
/// questions about `form`'s statements.
pub fn delay_transform(
    form: &Sexpr,
    analysis: &FunctionAnalysis,
    probes: &mut Probes<'_>,
) -> Option<DelayResult> {
    let parts = sx::parse_defun(form)?;

    // Locations involved in cross-invocation conflicts: statements
    // accessing them are order-sensitive and must not move.
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

/// Shared context for the motion walk over a body whose forms live
/// for `'f`.
struct Ctx<'a, 'p, 'f> {
    fname: &'a str,
    conflicting: &'a BTreeSet<(usize, Path)>,
    probes: &'a mut Probes<'p>,
    moved: usize,
    /// The arguments of every self-call walked so far, as written.
    call_args: Vec<&'f Sexpr>,
}

/// Access summaries of statements of one defun, read off its lowering.
///
/// The devices ask about the same statements again and again (delay
/// about every candidate and the call arguments it would cross, the
/// order-insensitivity gate about every tail statement, the bracket
/// walk about every statement). Every question names forms of the one
/// defun the cache was made for, by reference, and that defun comes
/// with its lowering — pass 1's, or the pipeline's lowering of a form a
/// device rewrote. A summary is of the forms' nodes in that lowering,
/// read as [`statement_accesses`] reads statements: as if they stood
/// alone as the body of a function of the defun's parameters, which is
/// what lowering them as a `%curare-probe` function gives. Only forms
/// the lowering kept no node of ([`shape::lowered_nodes`]) are lowered
/// that way still.
pub struct Probes<'a> {
    pub(crate) heap: &'a Heap,
    form: &'a Sexpr,
    func: &'a Func,
    /// Each form a walk can show a device, by address, with its node in
    /// `func`: paired at the first question.
    nodes: Option<HashMap<*const Sexpr, &'a Expr, BuildHasherDefault<AddressHasher>>>,
    /// The summaries given, by the addresses of the forms asked about.
    seen: Vec<(Vec<*const Sexpr>, Option<Rc<AccessSummary>>)>,
    lowerings: usize,
}

impl<'a> Probes<'a> {
    /// An empty cache for the statements of the defun `form`, answered
    /// from `func`, its lowering over `heap`.
    pub fn new(heap: &'a Heap, form: &'a Sexpr, func: &'a Func) -> Self {
        Probes { heap, form, func, nodes: None, seen: Vec::new(), lowerings: 0 }
    }

    /// How many questions were answered by lowering a probe function.
    pub fn lowerings(&self) -> usize {
        self.lowerings
    }

    /// The node `stmt`, a form of the defun, was lowered to, if the
    /// lowering kept one of its own.
    pub(crate) fn lowered(&mut self, stmt: &Sexpr) -> Option<&'a Expr> {
        let (form, func) = (self.form, self.func);
        let nodes = self.nodes.get_or_insert_with(|| {
            let mut nodes = HashMap::default();
            if let Some(parts) = sx::parse_defun(form) {
                shape::lowered_nodes(&parts.body, &func.body, &mut |s, e| {
                    nodes.insert(s as *const Sexpr, e);
                });
            }
            nodes
        });
        nodes.get(&(stmt as *const Sexpr)).copied()
    }

    /// Access summary of `forms`, forms of the defun, evaluated in
    /// sequence; `None` if they do not lower.
    pub fn accesses(&mut self, forms: &[&Sexpr]) -> Option<Rc<AccessSummary>> {
        let same = |seen: &[*const Sexpr]| {
            seen.len() == forms.len() && seen.iter().zip(forms).all(|(&a, &b)| std::ptr::eq(a, b))
        };
        if let Some((_, known)) = self.seen.iter().find(|(seen, _)| same(seen)) {
            return known.clone();
        }
        // A probe function takes its leading `(declare …)` forms as
        // declarations, not statements.
        let stmts = &forms[forms.iter().take_while(|f| f.is_call("declare")).count()..];
        let nodes: Option<Vec<&Expr>> = stmts.iter().map(|s| self.lowered(s)).collect();
        let summary = match nodes {
            Some(nodes) => Some(statement_accesses(self.func, &nodes)),
            None => {
                self.lowerings += 1;
                lowered_alone(self.heap, self.form, stmts)
            }
        };
        let summary = summary.map(Rc::new);
        self.seen.push((forms.iter().map(|&f| f as *const Sexpr).collect(), summary.clone()));
        summary
    }
}

/// The access summary of `stmts` lowered on their own, as the body of a
/// function `%curare-probe` with the parameter list of `defun`; `None`
/// if they do not lower.
pub(crate) fn lowered_alone(heap: &Heap, defun: &Sexpr, stmts: &[&Sexpr]) -> Option<AccessSummary> {
    let mut items = vec![sx::sym("defun"), sx::sym("%curare-probe"), defun.nth(2)?.clone()];
    items.extend(stmts.iter().map(|&s| s.clone()));
    let program = Lowerer::new(heap).lower_program(&[Sexpr::List(items)]).ok()?;
    Some(collect_accesses(program.funcs.first()?))
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
fn movable(ctx: &mut Ctx, stmt: &Sexpr, call_args: &[&Sexpr]) -> bool {
    // Atoms have no effects; leaving them in place is always right.
    if !matches!(stmt, Sexpr::List(items) if !items.is_empty()) {
        return false;
    }
    if sx::mentions_call(stmt, ctx.fname) {
        return false;
    }
    let Some(stmt_acc) = ctx.probes.accesses(&[stmt]) else {
        return false;
    };
    // Unanalyzable effects: refuse to move.
    if stmt_acc.unknown_writes > 0 || !stmt_acc.globals_written.is_empty() {
        return false;
    }
    // Order-sensitive accesses (cross-invocation conflicts) must keep
    // their unwind-order position; future-sync will handle them.
    if stmt_acc.records.iter().any(|r| ctx.conflicting.contains(&(r.root, r.path.clone()))) {
        return false;
    }
    let Some(args_acc) = ctx.probes.accesses(call_args) else {
        return false;
    };
    !writes_overlap(&stmt_acc, &args_acc)
}

impl<'f> Device<'f> for Ctx<'_, '_, 'f> {
    fn fname(&self) -> &str {
        self.fname
    }

    /// Nested sequences first, then this one. In a body that repeats, a
    /// statement hoisted above the call would still follow the previous
    /// iteration's spawn: it is not head work, so nothing moves.
    fn sequence(&mut self, stmts: &[(&'f Sexpr, Pos)], repeats: bool) -> Vec<Sexpr> {
        let before = self.call_args.len();
        let rebuilt = shape::walk_each(self, stmts);
        if repeats {
            return rebuilt;
        }
        let call_args = self.call_args[before..].to_vec();
        self.hoist(stmts, rebuilt, &call_args)
    }

    fn self_call(&mut self, call: &'f Sexpr, pos: Pos) -> Sexpr {
        self.call_args.extend(&call.as_list().expect("a call")[1..]);
        shape::operands(self, call, pos)
    }
}

impl Ctx<'_, '_, '_> {
    /// Move the movable statements that follow the first call-bearing
    /// statement of one sequence to just before it; `call_args` are the
    /// arguments of the self-calls they would cross. `rebuilt` are the
    /// statements `written` as the walk gave them back: a statement
    /// with no self-call in it comes back as written, and the probes
    /// are asked about it as written, where its lowering is.
    fn hoist(
        &mut self,
        written: &[(&Sexpr, Pos)],
        rebuilt: Vec<Sexpr>,
        call_args: &[&Sexpr],
    ) -> Vec<Sexpr> {
        let Some(first_call) = written.iter().position(|&(s, _)| sx::mentions_call(s, self.fname))
        else {
            return rebuilt;
        };

        let count = rebuilt.len();
        let mut head: Vec<Sexpr> = Vec::with_capacity(count + 1);
        let mut hoisted: Vec<Sexpr> = Vec::new();
        let mut rest: Vec<Sexpr> = Vec::new();
        let mut blocked = false;
        let mut last_was_hoisted = false;
        for (i, (s, &(as_written, _))) in rebuilt.into_iter().zip(written).enumerate() {
            if i < first_call {
                head.push(s);
            } else if sx::mentions_call(as_written, self.fname) {
                rest.push(s);
            } else if !blocked && movable(self, as_written, call_args) {
                hoisted.push(s);
                self.moved += 1;
                last_was_hoisted = i + 1 == count;
            } else {
                blocked = true;
                rest.push(s);
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
    impl Device<'_> for Probe<'_> {
        const REBUILDS: bool = false;

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
    use curare_sexpr::{parse_all, parse_one};

    /// Put every question the devices can ask about `src`'s defuns —
    /// each form the lowering pairs, and the argument list of each
    /// self-call — to the lowering pass 1 made, and to a probe function
    /// lowered for it alone: the summaries must be equal. Returns the
    /// questions put and how many of them needed a lowering of their
    /// own (a self-call inside a form the lowering does not pair).
    fn summaries_agree(src: &str) -> (usize, usize) {
        let heap = Heap::new();
        let forms = parse_all(src).unwrap();
        let program = Lowerer::new(&heap).lower_program(&forms).unwrap();
        let (mut asked, mut lowered) = (0, 0);
        for (form, func) in forms.iter().filter(|f| f.is_call("defun")).zip(&program.funcs) {
            let parts = sx::parse_defun(form).unwrap();
            let mut questions: Vec<Vec<&Sexpr>> = Vec::new();
            shape::lowered_nodes(&parts.body, &func.body, &mut |s, _| questions.push(vec![s]));
            form.walk(&mut |s| {
                if let Some(args) = s.call_args(parts.name).filter(|_| !shape::inert(s)) {
                    questions.push(args.iter().collect());
                }
            });
            let mut probes = Probes::new(&heap, form, func);
            for q in &questions {
                let alone = lowered_alone(&heap, form, q).map(Rc::new);
                assert_eq!(probes.accesses(q), alone, "{:?} in {form}", q);
            }
            asked += questions.len();
            lowered += probes.lowerings();
        }
        (asked, lowered)
    }

    /// The shipped programs and the golden window walkers.
    #[test]
    fn pass_1_answers_what_a_probe_answered_on_the_shipped_programs() {
        let mut asked = 0;
        for (path, text) in crate::shipped_programs() {
            let (n, lowered) = summaries_agree(&text);
            assert_eq!(lowered, 0, "{path}: a question was not paired");
            asked += n;
        }
        let cdrs = |n: usize| (0..n).fold("l".to_string(), |place, _| format!("(cdr {place})"));
        for k in [1, 2, 4] {
            for reads in [2, 4] {
                let (near, far) = (cdrs(k), cdrs(k + 1));
                let sum_of = |word: &str| format!("(+{}) ", format!(" (car {word})").repeat(16));
                let body: String = (0..reads / 2)
                    .flat_map(|_| [&near, &near, &far, &far])
                    .map(|w| sum_of(w))
                    .collect();
                let (n, lowered) = summaries_agree(&format!(
                    "(curare-declare (reorderable *))
                     (defun win (l) (when {far} (win (cdr l)) (setf (car l) (* (car l) 2)) {body}))"
                ));
                assert_eq!(lowered, 0, "window walker {k}/{reads}: a question was not paired");
                asked += n;
            }
        }
        assert!(asked > 300, "only {asked} questions");
    }

    /// Seeded statements over the scoping cases a lowering of a
    /// statement alone reads differently from the function: variables
    /// bound around the statement by `let`, `dolist` and `pop`, the
    /// same bound inside it, `setq` of an enclosing local, a `let`
    /// that shadows a parameter, struct accessors, `lambda`.
    struct StatementGen(curare_testkit::Rng);

    impl StatementGen {
        fn below(&mut self, n: u64) -> u64 {
            self.0.below(n as usize) as u64
        }

        fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
            of[self.0.below(of.len())]
        }

        /// A place or value over the variables in scope.
        fn expr(&mut self, vars: &[&str], depth: u32) -> String {
            let v = self.pick(vars);
            match self.below(if depth == 0 { 4 } else { 9 }) {
                0 => v.to_string(),
                1 => format!("(car {v})"),
                2 => format!("(cdr {v})"),
                3 => format!("(node-value {v})"),
                4 => format!("(node-next (node-next {v}))"),
                5 => format!("(cadr {v})"),
                6 => format!("(pop {v})"),
                7 => format!("(mapcar (lambda (z) (car {v})) {})", self.pick(vars)),
                _ => format!("(+ {} {})", self.expr(vars, depth - 1), self.expr(vars, depth - 1)),
            }
        }

        fn stmt(&mut self, vars: &[&str], depth: u32) -> String {
            let v = self.pick(vars);
            let e = self.expr(vars, 1);
            if depth == 0 {
                return match self.below(6) {
                    0 => format!("(setf (car {v}) {e})"),
                    1 => format!("(setf (node-value {v}) {e})"),
                    2 => format!("(setq {v} {e})"),
                    3 => format!("(print {e})"),
                    4 => format!("(f (cdr l) {e})"),
                    _ => e,
                };
            }
            let d = depth - 1;
            let with = |name: &'static str, this: &mut Self| {
                let mut inner = vars.to_vec();
                inner.push(name);
                (0..1 + this.below(3)).map(|_| this.stmt(&inner, d)).collect::<Vec<_>>().join(" ")
            };
            match self.below(8) {
                0 => format!("(let ((x {e})) {})", with("x", self)),
                1 => format!("(let* ((y {e}) (x y)) {})", with("x", self)),
                2 => format!("(dolist (d {v}) {})", with("d", self)),
                3 => format!("(let ((l (cdr l))) {})", with("l", self)),
                4 => format!("(when {e} {})", with("l", self)),
                5 => format!("(progn {})", with("m", self)),
                6 => format!("(cond ({e} {}) (t {}))", with("m", self), self.stmt(vars, d)),
                _ => format!("(if {e} {} {})", self.stmt(vars, d), self.stmt(vars, d)),
            }
        }
    }

    #[test]
    fn pass_1_answers_what_a_probe_answered_on_generated_statements() {
        let mut gen = StatementGen(curare_testkit::Rng::new(0x5EED_0028_D1CE_F00D));
        let (mut asked, mut lowered) = (0, 0);
        for _ in 0..150 {
            let body: Vec<String> = (0..3).map(|_| gen.stmt(&["l", "m"], 3)).collect();
            let src = format!(
                "(defstruct node next value)
                 (defun f (l m) (let ((p (car m))) (when l {} (setq p (cdr p)) (f (cdr l) p))))",
                body.join(" ")
            );
            let (n, by_lowering) = summaries_agree(&src);
            asked += n;
            lowered += by_lowering;
        }
        assert!(asked - lowered >= 500, "only {} questions answered by pass 1", asked - lowered);
    }

    fn delay(src: &str) -> Option<DelayResult> {
        let heap = Heap::new();
        let form = parse_one(src).unwrap();
        let program = Lowerer::new(&heap).lower_program(std::slice::from_ref(&form)).unwrap();
        let analysis = curare_analysis::analyze_function(&program.funcs[0], &DeclDb::new());
        let mut probes = Probes::new(&heap, &form, &program.funcs[0]);
        let delayed = delay_transform(&form, &analysis, &mut probes);
        assert_eq!(probes.lowerings(), 0, "every question is answered from the lowering");
        delayed
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
    fn a_read_of_a_conflicting_location_does_not_move() {
        // The next invocation doubles `(cadr l)`; sequentially the copy
        // reads it after that, hoisted above the call it would read it
        // before (`examples/lisp/fixtures/delay-read.lisp`).
        let r = delay(
            "(defun f (l m)
               (when (cdr l)
                 (f (cdr l) (cdr m))
                 (setf (car m) (cadr l))
                 (setf (car l) (* (car l) 2))))",
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
