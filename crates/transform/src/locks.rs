//! Lock insertion (paper §3.2.1).
//!
//! For every conflict the analysis found that nothing else orders, the
//! invocation must hold a lock on the conflicting location while it
//! touches it. Locks enter a program one way: [`insert_placement`]
//! (and [`lock_rescue`], the pipeline's gate in front of it) applies a
//! [`Placement`] from `curare_analysis::locksynth` as statement-scoped
//! brackets. A maximal run of consecutive leaf statements that the
//! placement covers with the same lock set is wrapped in one
//! acquire/run/release bracket, so independent invocations only
//! serialize for the duration of the conflicting accesses, and each
//! run costs one acquisition per lock — this is what the pipeline uses
//! to rescue order-insensitive tails that would otherwise fall back to
//! full future synchronization. Brackets acquire in one global (root,
//! path) order, so they cannot deadlock.
//!
//! The paper's refinements live in the synthesis, not here:
//! *coalescing* (a lock that still covers every pair absorbs a finer
//! one), *read–write locks* (locations only read by the conflicting
//! side take shared locks), and both sides of a conflict locking the
//! *same physical cell* (the writer its write destination, the
//! accessor the prefix `q` of its path with `A₁ = τ^d ∘ q`, the same
//! location seen d invocations later).

use std::collections::BTreeSet;

use curare_analysis::locksynth::{
    declared_placement, synthesize, LockMode, OrderingContext, PairOrder, Placement,
};
use curare_analysis::{lock_bracket_steps, DeclDb, FunctionAnalysis, Path};
use curare_sexpr::Sexpr;

use crate::delay::Probes;
use crate::shape::{self, Device, Pos, Shape};
use crate::sx;

/// One lock the transform inserted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockSpec {
    /// Parameter index the location is rooted at.
    pub root: usize,
    /// Parameter name.
    pub root_name: String,
    /// Path to the locked location (last letter = field).
    pub path: Path,
    /// Exclusive (write) or shared (read) lock.
    pub exclusive: bool,
}

/// Result of the locking transform on a defun whose forms live for
/// `'f`.
#[derive(Debug, Clone)]
pub struct LockResult<'f> {
    /// The rewritten `defun`.
    pub form: Sexpr,
    /// The locks inserted, in acquisition order.
    pub locks: Vec<LockSpec>,
    /// One entry per bracket written: the first statement it wraps, as
    /// it stands in the input defun, and the steps the bracket adds to
    /// the head/tail partition ([`lock_bracket_steps`]).
    pub brackets: Vec<(&'f Sexpr, usize)>,
}

/// Errors the transform can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The input was not a well-formed defun.
    NotADefun,
    /// The function is not transformable and locking cannot help
    /// (e.g. unanalyzable writes).
    CannotLock(String),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NotADefun => write!(f, "not a defun form"),
            TransformError::CannotLock(m) => write!(f, "cannot lock: {m}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Convert a synthesized placement's locks to the transform's
/// [`LockSpec`] form, in acquisition order (sorted by root then path,
/// which is the deadlock-freedom order: every bracket acquires its
/// subset of the placement in this global order).
pub fn placement_specs(placement: &Placement) -> Vec<LockSpec> {
    let mut out: Vec<LockSpec> = placement
        .locks
        .iter()
        .filter(|l| !l.path.is_empty())
        .map(|l| LockSpec {
            root: l.root,
            root_name: l.root_name.clone(),
            path: l.path.clone(),
            exclusive: matches!(l.mode, LockMode::Exclusive),
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// State for the statement-bracket walk over a defun whose forms live
/// for `'f`.
struct PlaceCtx<'a, 'p, 'f> {
    probes: &'a mut Probes<'p>,
    fname: &'a str,
    specs: &'a [LockSpec],
    /// Unique suffix for `%curare-plockN` temporaries.
    counter: usize,
    /// Accesses the brackets could not cover (statement probes that
    /// failed, or covered accesses inside call-bearing statements and
    /// guard positions, which the bracket walk never wraps).
    violations: Vec<String>,
    /// The brackets written, as [`LockResult::brackets`].
    brackets: Vec<(&'f Sexpr, usize)>,
}

impl<'f> PlaceCtx<'_, '_, 'f> {
    /// Locks covering any access of `form` (ε-free specs; a lock
    /// covers an access to `p` when its path is a prefix of `p`).
    fn covering(&mut self, form: &Sexpr) -> Option<Vec<LockSpec>> {
        let probe = self.probes.accesses(&[form])?;
        let mut out = Vec::new();
        for spec in self.specs {
            let hit = probe
                .records
                .iter()
                .any(|r| r.root == spec.root && spec.path.is_prefix_of(&r.path));
            if hit {
                out.push(spec.clone());
            }
        }
        Some(out)
    }

    /// Record a violation if `form` (a guard test, binding initializer
    /// or call-bearing statement — positions the walk cannot bracket)
    /// touches a covered location.
    fn audit_unbracketed(&mut self, form: &Sexpr, what: &str) {
        if shape::inert(form) {
            return;
        }
        match self.covering(form) {
            Some(covered) if covered.is_empty() => {}
            Some(covered) => self.violations.push(format!(
                "{what} `{form}` touches locked location(s) {} but cannot be bracketed",
                covered
                    .iter()
                    .map(|s| format!("{}:{}", s.root_name, s.path))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
            None => self.violations.push(format!("{what} `{form}` is not analyzable")),
        }
    }

    /// Wrap one statement in its covering locks:
    ///
    /// ```lisp
    /// (let* ((%curare-plock0 (cdr l)))
    ///   (cri-lock %curare-plock0 'car)
    ///   (let ((%curare-pval1 <stmt>))
    ///     (cri-unlock %curare-plock0 'car)
    ///     %curare-pval1))
    /// ```
    ///
    /// The bracket's value is the statement's where `keep` (its value
    /// is used: the function's own, or an operand's); a bracket whose
    /// value is discarded ends with its releases instead, and is nil.
    /// `first` is the first statement `stmt` holds, as written.
    fn wrap(&mut self, first: &'f Sexpr, stmt: Sexpr, covered: &[LockSpec], keep: bool) -> Sexpr {
        let steps = lock_bracket_steps(covered.iter().map(|s| &s.path), keep);
        self.brackets.push((first, steps));
        let mut bindings = Vec::new();
        let mut body = Vec::new();
        let mut unlock_forms = Vec::new();
        for spec in covered {
            let cell_path = spec.path.cell_prefix().expect("ε filtered out of placement");
            let field = spec.path.last().expect("nonempty");
            let tmp = format!("%curare-plock{}", self.counter);
            self.counter += 1;
            let cell = sx::path_to_expr(&spec.root_name, &cell_path, self.probes.heap);
            bindings.push((tmp.clone(), cell));
            let (lock_head, unlock_head) = if spec.exclusive {
                ("cri-lock", "cri-unlock")
            } else {
                ("cri-lock-read", "cri-unlock-read")
            };
            body.push(sx::call(lock_head, vec![sx::sym(tmp.clone()), sx::field_operand(field)]));
            unlock_forms.push(sx::call(unlock_head, vec![sx::sym(tmp), sx::field_operand(field)]));
        }
        unlock_forms.reverse();
        if keep {
            let val = format!("%curare-pval{}", self.counter);
            self.counter += 1;
            unlock_forms.push(sx::sym(val.clone()));
            body.push(shape::let_form(false, vec![(val, stmt)], unlock_forms));
        } else {
            body.push(stmt);
            body.extend(unlock_forms);
        }
        shape::let_form(true, bindings, body)
    }

    /// Is `form` a bracketable leaf statement, and which locks cover
    /// it? `None` for control shapes, call-bearing statements and
    /// unanalyzable or uncovered leaves — those take the ordinary
    /// [`shape::walk`] route (which audits them as needed).
    fn leaf_covering(&mut self, form: &Sexpr) -> Option<Vec<LockSpec>> {
        let call = matches!(shape::classify(form, self.fname), Shape::Call);
        if !call || sx::mentions_call(form, self.fname) {
            return None;
        }
        self.covering(form).filter(|c| !c.is_empty())
    }
}

impl<'f> Device<'f> for PlaceCtx<'_, '_, 'f> {
    fn fname(&self) -> &str {
        self.fname
    }

    /// Bracket the statements of one sequence: each maximal run of
    /// consecutive leaf statements covered by the *identical* lock set
    /// shares one acquire/release bracket — the critical section gets
    /// coarser (fewer acquisitions), never weaker, and no spawn can sit
    /// inside a bracket because call-bearing statements are never part
    /// of a run.
    fn sequence(&mut self, stmts: &[(&'f Sexpr, Pos)], _repeats: bool) -> Vec<Sexpr> {
        let mut out = Vec::new();
        let mut run: Vec<Sexpr> = Vec::new();
        let mut run_first: Option<&'f Sexpr> = None;
        let mut run_specs: Vec<LockSpec> = Vec::new();
        // The run's last statement's value is used.
        let mut run_keeps = false;
        macro_rules! flush {
            () => {
                if let Some(first) = run_first.take() {
                    let stmt = shape::progn(std::mem::take(&mut run));
                    let specs = std::mem::take(&mut run_specs);
                    out.push(self.wrap(first, stmt, &specs, run_keeps));
                }
            };
        }
        for &(s, pos) in stmts {
            match self.leaf_covering(s) {
                Some(covered) => {
                    if run_first.is_some() && run_specs != covered {
                        flush!();
                    }
                    run_specs = covered;
                    run_keeps = !pos.discarded;
                    run_first.get_or_insert(s);
                    run.push(s.clone());
                }
                None => {
                    flush!();
                    out.push(shape::walk(self, s, pos));
                }
            }
        }
        flush!();
        out
    }

    /// The test / binding initialisers cannot be bracketed; audit them.
    fn guard(&mut self, form: &'f Sexpr, _pos: Pos) -> Sexpr {
        self.audit_unbracketed(form, "guard expression");
        form.clone()
    }

    /// Self-call-bearing statements are the spawn points — never
    /// bracket them (the lock would be held across the enqueue);
    /// instead audit that they touch nothing the placement covers.
    fn self_call(&mut self, call: &'f Sexpr, _pos: Pos) -> Sexpr {
        self.audit_unbracketed(call, "recursive-call statement");
        call.clone()
    }

    /// A leaf effect statement outside a sequence (a branch of an
    /// `if`) gets its own bracket.
    fn leaf(&mut self, form: &'f Sexpr, pos: Pos) -> Sexpr {
        if shape::inert(form) {
            return form.clone();
        }
        if sx::mentions_call(form, self.fname) {
            return self.self_call(form, pos);
        }
        match self.covering(form) {
            Some(covered) if covered.is_empty() => form.clone(),
            Some(covered) => self.wrap(form, form.clone(), &covered, !pos.discarded),
            None => {
                self.violations.push(format!("statement `{form}` is not analyzable"));
                form.clone()
            }
        }
    }
}

/// Insert statement-scoped lock brackets into `form` (a defun),
/// driven by a synthesized or declared [`Placement`].
///
/// Every statement (head or tail — an unordered conflict can pair a
/// tail write of invocation *i* with a *head* read of invocation
/// *i+1*, which runs concurrently with it) that touches a location the
/// placement covers is wrapped in an acquire/release bracket;
/// consecutive statements covered by the identical lock set share one
/// bracket (the same locks are held across the run, so exclusion is
/// preserved and acquire/release traffic drops). Brackets acquire in
/// the global (root, path) order, so two brackets can never deadlock.
/// Fails with [`TransformError::CannotLock`] if some covered access
/// sits in a position a bracket cannot guard (a guard test, binding
/// initializer or recursive-call statement) — the pipeline then falls
/// back to future synchronization.
///
/// `probes` answers questions about `form`'s statements.
pub fn insert_placement<'f>(
    form: &'f Sexpr,
    placement: &Placement,
    probes: &mut Probes<'_>,
) -> Result<LockResult<'f>, TransformError> {
    let parts = sx::parse_defun(form).ok_or(TransformError::NotADefun)?;
    let specs = placement_specs(placement);
    if specs.is_empty() {
        return Ok(LockResult { form: form.clone(), locks: specs, brackets: Vec::new() });
    }
    let mut ctx = PlaceCtx {
        probes,
        fname: parts.name,
        specs: &specs,
        counter: 0,
        violations: Vec::new(),
        brackets: Vec::new(),
    };
    let body = shape::walk_body(&mut ctx, &parts.body);
    if !ctx.violations.is_empty() {
        return Err(TransformError::CannotLock(ctx.violations.join("; ")));
    }
    if ctx.counter == 0 {
        // No statement touched a covered location — the placement does
        // not correspond to this body (e.g. declared for other code).
        return Err(TransformError::CannotLock(
            "placement covers no statement of this body".to_string(),
        ));
    }
    let brackets = ctx.brackets;
    let form = sx::make_defun(parts.name, &parts.params, &parts.declares, body);
    Ok(LockResult { form, locks: specs, brackets })
}

/// Tail statements — those a self-call may precede within their
/// invocation — and the guard expressions that govern them, as they sit
/// in the body.
struct TailParts<'a> {
    fname: &'a str,
    stmts: Vec<&'a Sexpr>,
    guards: Vec<&'a Sexpr>,
    /// A recursive call appeared in a tail leaf (value-position call
    /// after a spawn) — not a shape locks can rescue.
    call_in_tail_leaf: bool,
}

impl<'a> Device<'a> for TailParts<'a> {
    const REBUILDS: bool = false;

    fn fname(&self) -> &str {
        self.fname
    }

    /// A spawn, not tail work.
    fn self_call(&mut self, _call: &'a Sexpr, _pos: Pos) -> Sexpr {
        Sexpr::nil()
    }

    fn guard(&mut self, form: &'a Sexpr, pos: Pos) -> Sexpr {
        if pos.spawned {
            self.guards.push(form);
        }
        Sexpr::nil()
    }

    fn leaf(&mut self, form: &'a Sexpr, pos: Pos) -> Sexpr {
        if pos.spawned && !shape::inert(form) {
            if sx::mentions_call(form, self.fname) {
                self.call_in_tail_leaf = true;
            } else {
                self.stmts.push(form);
            }
        }
        Sexpr::nil()
    }
}

/// Is `stmt` a guarded commutative read-modify-write
/// `(setf PLACE (op PLACE e))` (either operand order) with `op`
/// declared reorderable? Returns the independent operand `e` when so.
fn commutative_rmw<'a>(stmt: &'a Sexpr, decls: &DeclDb) -> Option<&'a Sexpr> {
    let items = stmt.as_list()?;
    if items.len() != 3 || !items[0].is_symbol("setf") {
        return None;
    }
    let place = &items[1];
    let rhs = items[2].as_list()?;
    if rhs.len() != 3 {
        return None;
    }
    let op = rhs[0].as_symbol()?;
    if !decls.is_reorderable(op) {
        return None;
    }
    if rhs[1] == *place {
        Some(&rhs[2])
    } else if rhs[2] == *place {
        Some(&rhs[1])
    } else {
        None
    }
}

/// The order-insensitivity gate for synthesized placements.
///
/// Locks establish *mutual exclusion*, not *order*: under CRI the
/// tails of different invocations interleave arbitrarily, whereas
/// sequentially they run in unwind order. A lock rescue is therefore
/// only sound when every tail statement's effect is order-insensitive:
///
/// - a write-free statement (a discarded read — the bracket makes the
///   read atomic, and no one observes in which order reads happen), or
/// - a commutative read-modify-write `(setf PLACE (op PLACE e))` with
///   `op` declared `reorderable` and `e` independent of every
///   conflicting location (so each invocation's contribution is the
///   same under any interleaving).
///
/// Guard expressions governing tail statements run *outside* the
/// brackets, so they must not touch any conflicting location at all.
fn tails_are_order_insensitive(
    probes: &mut Probes<'_>,
    body: &[&Sexpr],
    fname: &str,
    decls: &DeclDb,
    placement: &Placement,
) -> bool {
    let mut tails =
        TailParts { fname, stmts: Vec::new(), guards: Vec::new(), call_in_tail_leaf: false };
    shape::walk_body(&mut tails, body);
    if tails.call_in_tail_leaf {
        return false;
    }
    // Conflicting locations of unordered pairs (both sides).
    let conflicting: BTreeSet<(usize, Path)> = placement
        .pairs
        .iter()
        .filter(|p| p.order == PairOrder::Unordered)
        .flat_map(|p| {
            [
                (p.conflict.root, p.conflict.write_path.clone()),
                (p.conflict.root, p.conflict.other_path.clone()),
            ]
        })
        .collect();
    let overlaps_conflict = |probe: &curare_analysis::AccessSummary| {
        probe.records.iter().any(|r| {
            conflicting.iter().any(|(root, p)| {
                *root == r.root && (p.is_prefix_of(&r.path) || r.path.is_prefix_of(p))
            })
        })
    };
    // `form` writes nothing the analysis or the text can see — and, where
    // it runs outside a bracket or feeds one (`apart`), reads no
    // conflicting location either.
    let mut read_only = |form: &Sexpr, apart: bool| {
        shape::inert(form)
            || probes.accesses(&[form]).is_some_and(|probe| {
                probe.unknown_writes == 0
                    && probe.globals_written.is_empty()
                    && probe.writes().next().is_none()
                    && !sx::mentions_call(form, "setq")
                    && !(apart && overlaps_conflict(&probe))
            })
    };
    tails.guards.iter().all(|g| read_only(g, true))
        && tails.stmts.iter().all(|s| match commutative_rmw(s, decls) {
            Some(operand) => read_only(operand, true),
            // Not an RMW: must be a pure discarded read.
            None => read_only(s, false),
        })
}

/// Try to rescue a function whose post-call statements conflict, by
/// bracketing them with a synthesized (or declared) lock placement
/// instead of fully serializing the tails with future
/// synchronization. `analysis` is the analysis of `form` itself.
///
/// Returns `None` — fall back to future sync — unless:
/// - the conflict analysis is complete (no unanalyzable writes), and
/// - either the programmer declared a placement for this function
///   (`(curare-declare (locks f (exclusive v path)...))`; applied as
///   written — `curare check --locks` audits it with C007/C008), or
///   the synthesized CRI placement is certifier-clean *and* every tail
///   statement passes the order-insensitivity gate
///   (`tails_are_order_insensitive`), and
/// - every covered access sits in a bracketable statement position.
///
/// The placement the brackets were written from comes back with them:
/// it is the one in force, and what `curare check --locks` certifies.
pub fn lock_rescue<'f>(
    form: &'f Sexpr,
    analysis: &FunctionAnalysis,
    decls: &DeclDb,
    probes: &mut Probes<'_>,
) -> Option<(LockResult<'f>, Placement)> {
    let parts = sx::parse_defun(form)?;
    if analysis.conflicts.unknown_writes > 0 || analysis.conflicts.conflicts.is_empty() {
        return None;
    }
    let placement = match decls.lock_placement(parts.name) {
        Some(declared) => {
            declared_placement(analysis, &parts.params, declared, OrderingContext::cri())
        }
        None => {
            let p = synthesize(analysis, &parts.params, OrderingContext::cri());
            if !p.is_certified_clean()
                || !tails_are_order_insensitive(probes, &parts.body, parts.name, decls, &p)
            {
                return None;
            }
            p
        }
    };
    if placement.locks.is_empty() {
        return None;
    }
    let locked = insert_placement(form, &placement, probes).ok()?;
    Some((locked, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_analysis::analyze_function;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_one;

    /// The analysis of a standalone defun form.
    fn analyze_defun(heap: &Heap, form: &Sexpr, decls: &DeclDb) -> Option<FunctionAnalysis> {
        Some(analyze_function(&lowered(heap, form), decls))
    }

    /// `form`'s lowering over `heap`.
    fn lowered(heap: &Heap, form: &Sexpr) -> std::sync::Arc<curare_lisp::ast::Func> {
        let program = Lowerer::new(heap).lower_program(std::slice::from_ref(form)).unwrap();
        program.funcs[0].clone()
    }

    /// The standalone §3.2.1 device: the placement synthesized with
    /// no ordering assumed (every conflicting pair needs a lock),
    /// applied as statement brackets.
    fn locks_on<'f>(heap: &Heap, form: &'f Sexpr) -> LockResult<'f> {
        let parts = sx::parse_defun(form).unwrap();
        let analysis = analyze_defun(heap, form, &DeclDb::new()).unwrap();
        let placement = synthesize(&analysis, &parts.params, OrderingContext::none());
        let func = lowered(heap, form);
        insert_placement(form, &placement, &mut Probes::new(heap, form, &func)).unwrap()
    }

    /// `lock_rescue` as the pipeline calls it: on the analysis of the
    /// form itself.
    fn rescue<'f>(heap: &Heap, form: &'f Sexpr, decls: &DeclDb) -> Option<LockResult<'f>> {
        let analysis = analyze_defun(heap, form, decls)?;
        let func = lowered(heap, form);
        let rescued = lock_rescue(form, &analysis, decls, &mut Probes::new(heap, form, &func))?;
        assert_eq!(
            placement_specs(&rescued.1),
            rescued.0.locks,
            "the brackets are the placement's"
        );
        Some(rescued.0)
    }

    fn run_locks(src: &str) -> LockResult<'static> {
        let form = parse_one(src).unwrap();
        let r = locks_on(&Heap::new(), &form);
        LockResult { form: r.form, locks: r.locks, brackets: Vec::new() }
    }

    #[test]
    fn conflict_free_function_is_unchanged() {
        let src = "(defun f (l) (when l (print (car l)) (f (cdr l))))";
        let r = run_locks(src);
        assert!(r.locks.is_empty());
        assert_eq!(r.form.to_string(), parse_one(src).unwrap().to_string());
    }

    #[test]
    fn figure_5_gets_two_locks() {
        let r = run_locks(
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
        );
        // Write destination cdr.car and the coinciding read location
        // car (this invocation's l.car is the previous one's l.cdr.car).
        let paths: Vec<String> = r.locks.iter().map(|l| l.path.to_string()).collect();
        assert_eq!(paths, ["car", "cdr.car"]);
        let text = r.form.to_string();
        // One bracket, around the one statement that touches them.
        assert_eq!(text.matches("(cri-lock").count(), 2, "{text}");
        let lock_pos = text.find("cri-lock").expect("lock present");
        let body_pos = text.find("setf").expect("body present");
        let unlock_pos = text.find("cri-unlock").expect("unlock present");
        assert!(lock_pos < body_pos && body_pos < unlock_pos, "{text}");
    }

    #[test]
    fn locked_form_still_executes_correctly() {
        // Under sequential hooks the locked function must compute the
        // same result as the original (locks are no-ops).
        let heap_src = "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) nil)
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))";
        let locked = run_locks(heap_src).form.to_string();
        assert!(locked.contains("(cri-lock "), "{locked}");
        let it = curare_lisp::Interp::new();
        it.load_str(&locked).unwrap();
        let v = it.load_str("(let ((d (list 1 1 1 1))) (f d) d)").unwrap();
        assert_eq!(it.heap().display(v), "(1 2 3 4)");
    }

    #[test]
    fn read_side_gets_shared_lock_when_never_written() {
        // Write to cdr.car conflicts with read of car, which is the
        // write destination one invocation later. The location is
        // locked by both sides, and the side that only reads it takes
        // it shared: the lock table excludes a shared holder from an
        // exclusive one on the same cell, which is all the pair needs.
        let r = run_locks("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        let modes: Vec<(String, bool)> =
            r.locks.iter().map(|l| (l.path.to_string(), l.exclusive)).collect();
        assert_eq!(modes, [("car".to_string(), false), ("cdr.car".to_string(), true)]);
        assert!(r.form.to_string().contains("(cri-lock-read "), "{}", r.form);
    }

    #[test]
    fn unanalyzable_write_is_an_error() {
        // A write the analysis cannot root has no placement that
        // covers it: locking is refused, not attempted.
        let heap = Heap::new();
        let form = parse_one("(defun f (l) (setf (car *g*) 1) (f (cdr l)))").unwrap();
        assert!(rescue(&heap, &form, &DeclDb::new()).is_none());
    }

    #[test]
    fn locked_output_reparses_and_relowers() {
        let r = run_locks("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(&[parse_one(&r.form.to_string()).unwrap()])
            .expect("locked output must re-lower");
        assert_eq!(prog.funcs.len(), 1);
    }

    /// Build a DeclDb from declaration forms (the pipeline does the
    /// same via `DeclDb::from_program`).
    fn db_from(src: &str) -> DeclDb {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&curare_sexpr::parse_all(src).unwrap()).unwrap();
        DeclDb::from_program(&prog).unwrap()
    }

    /// Two commutative RMWs at different depths: invocation i's
    /// `(cadr l)` is invocation i+1's `(car l)`, so the writes collide
    /// across invocations — but multiplications commute, so
    /// statement-scoped locks preserve the sequential result.
    const TAIL_RMWS: &str = "(defun f (l)
           (when (cdr l)
             (f (cdr l))
             (setf (car l) (* (car l) 2))
             (setf (cadr l) (* (cadr l) 3))))";

    #[test]
    fn lock_rescue_brackets_order_insensitive_tail_rmws() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable *))");
        let form = parse_one(TAIL_RMWS).unwrap();
        let r = rescue(&heap, &form, &db).expect("commutative tail RMWs are rescuable");
        let paths: Vec<String> = r.locks.iter().map(|l| l.path.to_string()).collect();
        assert_eq!(paths, ["car", "cdr.car"], "{paths:?}");
        assert!(r.locks.iter().all(|l| l.exclusive), "both locations are written");
        let text = r.form.to_string();
        assert!(text.contains("%curare-plock"), "{text}");
        assert!(text.contains("(cri-lock "), "{text}");
        assert!(text.contains("(cri-unlock "), "{text}");
        // Each setf gets its own bracket, not one whole-body bracket.
        assert_eq!(text.matches("(cri-lock ").count(), 2, "{text}");

        // Sequential execution (locks are no-ops) must be unchanged:
        // cell i is doubled by invocation i and tripled by i-1.
        let it = curare_lisp::Interp::new();
        it.load_str(&text).unwrap();
        let v = it.load_str("(let ((d (list 1 1 1 1))) (f d) d)").unwrap();
        assert_eq!(it.heap().display(v), "(2 6 6 3)");
    }

    #[test]
    fn coalesced_rescue_merges_same_lockset_brackets() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable *))");
        // Two consecutive RMWs on the SAME location share a covering
        // lock set, so they share one bracket; the third statement's
        // lock set differs and gets its own.
        let form = parse_one(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (car l) (* (car l) 2))
                 (setf (car l) (* (car l) 3))
                 (setf (cadr l) (* (cadr l) 5))))",
        )
        .unwrap();
        let r = rescue(&heap, &form, &db).expect("rescuable");
        let paths: Vec<String> = r.locks.iter().map(|l| l.path.to_string()).collect();
        assert_eq!(paths, ["car", "cdr.car"]);
        let text = r.form.to_string();
        assert_eq!(text.matches("(cri-lock ").count(), 2, "{text}");
        assert!(text.contains("progn"), "{text}");

        // Sequential execution (locks are no-ops) is unchanged.
        let it = curare_lisp::Interp::new();
        it.load_str(&text).unwrap();
        let v = it.load_str("(let ((d (list 1 1 1))) (f d) d)").unwrap();
        assert_eq!(it.heap().display(v), "(6 30 5)", "{text}");
    }

    #[test]
    fn lock_rescue_gives_pure_readers_shared_locks() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable *))");
        // Tail RMW on (cadr l) plus a discarded tail read of (car l):
        // the read-side location coincides with the write one
        // invocation later, but is itself never written — shared mode.
        let form = parse_one(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (car l)
                 (setf (cadr l) (* (cadr l) 2))))",
        )
        .unwrap();
        let r = rescue(&heap, &form, &db).expect("read side is order-insensitive");
        let shared: Vec<&LockSpec> = r.locks.iter().filter(|l| !l.exclusive).collect();
        assert_eq!(shared.len(), 1, "{:?}", r.locks);
        assert_eq!(shared[0].path.to_string(), "car");
        assert!(r.form.to_string().contains("cri-lock-read"), "{}", r.form);
    }

    #[test]
    fn lock_rescue_refuses_order_sensitive_tail() {
        let heap = Heap::new();
        // The running-sum chain: (cadr l) ← (car l) + (cadr l). Without
        // a reorderable declaration this is not an RMW the gate
        // accepts; locks would change the result.
        let form = parse_one(
            "(defun g (l)
               (when (cdr l)
                 (g (cdr l))
                 (setf (cadr l) (+ (car l) (cadr l)))))",
        )
        .unwrap();
        assert!(rescue(&heap, &form, &DeclDb::new()).is_none());
    }

    #[test]
    fn lock_rescue_rejects_rmw_whose_operand_reads_a_conflicting_cell() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable +))");
        // (setf (cadr l) (+ (cadr l) (car l))) is shaped like an RMW,
        // but the independent operand reads (car l) — a location
        // another invocation writes. The value added depends on the
        // interleaving: mutual exclusion cannot make this
        // order-insensitive.
        let form = parse_one(
            "(defun g (l)
               (when (cdr l)
                 (g (cdr l))
                 (setf (cadr l) (+ (cadr l) (car l)))))",
        )
        .unwrap();
        assert!(rescue(&heap, &form, &db).is_none());
    }

    #[test]
    fn declared_placement_applies_without_the_gate() {
        let heap = Heap::new();
        // The programmer declares the placement for the
        // order-sensitive accumulator: applied as written (the static
        // certifier, not the transform, is where declared placements
        // are audited).
        let db = db_from("(curare-declare (locks g (exclusive l car) (exclusive l cdr.car)))");
        let form = parse_one(
            "(defun g (l)
               (when (cdr l)
                 (g (cdr l))
                 (setf (cadr l) (+ (car l) (cadr l)))))",
        )
        .unwrap();
        let r = rescue(&heap, &form, &db).expect("declared placement must apply");
        assert_eq!(r.locks.len(), 2, "{:?}", r.locks);
        assert!(r.locks.iter().all(|l| l.exclusive));
        assert!(r.form.to_string().contains("cri-lock"), "{}", r.form);
    }

    #[test]
    fn placement_audit_refuses_unbracketable_guard_reads() {
        let heap = Heap::new();
        // The declared placement covers (car l), but a tail *guard*
        // reads it — guards run outside any bracket, so the placement
        // cannot be implemented faithfully and the rescue refuses.
        let db = db_from("(curare-declare (locks f (shared l car) (exclusive l cdr.car)))");
        let form = parse_one(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (when (car l)
                   (setf (cadr l) (quote x)))))",
        )
        .unwrap();
        assert!(rescue(&heap, &form, &db).is_none());
    }

    #[test]
    fn struct_locks_use_field_indices() {
        let heap = Heap::new();
        // Register the struct type by lowering the defstruct first.
        let mut lw = Lowerer::new(&heap);
        lw.lower_program(&[parse_one("(defstruct node next value)").unwrap()]).unwrap();
        let form = parse_one(
            "(defun bump (n)
               (when n
                 (setf (node-value (node-next n)) (node-value n))
                 (bump (node-next n))))",
        )
        .unwrap();
        let r = locks_on(&heap, &form);
        assert!(!r.locks.is_empty());
        let text = r.form.to_string();
        assert!(text.contains("cri-lock"), "{text}");
        assert!(text.contains("node-"), "{text}");
    }
}
