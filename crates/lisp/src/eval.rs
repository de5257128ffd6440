//! The evaluator: a tree-walking interpreter with proper tail calls.
//!
//! Tail calls to named functions are trampolined in [`Evaluator::apply`],
//! so tail-recursive functions — in particular the iterative forms
//! produced by Curare's recursion-to-iteration transformation (paper
//! §5) — run in constant Rust stack.

use crate::ast::{BuiltinOp, Expr, StructOp, VarRef};
use crate::builtins::{apply_builtin, BuiltinCx};
use crate::error::{LispError, Result};
use crate::interp::{Engine, Interp};
use crate::value::{FuncId, Value};

/// Result of evaluating an expression in tail position.
enum Flow {
    /// A finished value.
    Val(Value),
    /// A pending tail call to a named function.
    Tail(FuncId, Vec<Value>),
}

/// One thread's evaluation state over a shared [`Interp`].
pub struct Evaluator<'i> {
    interp: &'i Interp,
    depth: usize,
    /// The function the innermost `apply_tree` is running, as the VM's
    /// `cur_fid`: a spawn of it may restart its frame in place.
    cur_fid: FuncId,
    /// Address of a stack local captured at construction; used to
    /// bound native stack growth independent of the depth limit.
    stack_base: usize,
}

thread_local! {
    /// Native stack the evaluator may consume before reporting a
    /// recursion-limit error. Debug-build frames are large, so the
    /// default is conservative; threads spawned with a bigger stack
    /// (e.g. the CRI server pool) raise it via
    /// [`set_thread_stack_budget`].
    static STACK_BUDGET: std::cell::Cell<usize> = const { std::cell::Cell::new(1 << 20) };
    /// Highest stack address this thread's first evaluator started
    /// from. Nested evaluators (helping `touch` executes tasks inside
    /// an evaluation) must measure against the *outermost* base, or
    /// the budget would reset at each nesting level.
    static STACK_BASE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Retired value buffers (call frames, spent argument vectors),
    /// recycled so `apply` does not hit the allocator on every
    /// invocation — the CRI pool calls it once per task.
    static VALUE_BUFS: std::cell::RefCell<Vec<Vec<Value>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

pub(crate) fn take_value_buf() -> Vec<Value> {
    VALUE_BUFS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

pub(crate) fn put_value_buf(mut v: Vec<Value>) {
    if v.capacity() > 0 {
        v.clear();
        VALUE_BUFS.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < 16 {
                p.push(v);
            }
        });
    }
}

/// Set this thread's evaluator stack budget in bytes. Threads that
/// need deep non-tail Lisp recursion should be spawned with a large
/// native stack and call this with a value comfortably below it.
pub fn set_thread_stack_budget(bytes: usize) {
    STACK_BUDGET.with(|b| b.set(bytes));
}

#[inline(never)]
fn approximate_stack_pointer() -> usize {
    let marker = 0u8;
    std::ptr::addr_of!(marker) as usize
}

/// Resolve the outermost stack base for this thread, registering the
/// current position as base if no evaluator (tree or VM) is active yet.
/// Both engines measure against the same base so the budget keeps
/// covering nested evaluation (helping `touch`) across engines.
pub(crate) fn resolve_stack_base() -> usize {
    STACK_BASE.with(|b| {
        let cur = b.get();
        if cur == 0 {
            let here = approximate_stack_pointer();
            b.set(here);
            here
        } else {
            cur
        }
    })
}

/// True when native stack use measured from `stack_base` exceeds the
/// thread's budget.
pub(crate) fn stack_exhausted(stack_base: usize) -> bool {
    stack_base.abs_diff(approximate_stack_pointer()) > STACK_BUDGET.with(std::cell::Cell::get)
}

/// What [`stack_exhausted`] means to the program. Not a
/// recursion-limit error: no evaluator's depth count says how deep the
/// stack is (nested evaluators each count from zero), and the limit
/// that was hit is the budget.
#[cold]
pub(crate) fn stack_exhausted_error() -> LispError {
    LispError::StackExhausted(STACK_BUDGET.with(std::cell::Cell::get))
}

impl<'i> Evaluator<'i> {
    /// A fresh evaluator at depth zero.
    pub fn new(interp: &'i Interp) -> Self {
        Evaluator::with_depth(interp, 0)
    }

    /// An evaluator continuing at `depth` — used when the bytecode VM
    /// hands a call chain to the tree oracle (or vice versa) so the
    /// recursion budget spans both engines.
    pub(crate) fn with_depth(interp: &'i Interp, depth: usize) -> Self {
        Evaluator { interp, depth, cur_fid: FuncId::MAX, stack_base: resolve_stack_base() }
    }

    /// Evaluate a top-level expression in an empty frame.
    pub fn eval_toplevel(&mut self, e: &Expr) -> Result<Value> {
        let mut frame = Vec::new();
        self.eval(e, &mut frame)
    }

    /// Apply function `id` to `args` on the interpreter's configured
    /// engine. Top-level forms are always tree-walked (their frames
    /// grow dynamically across a load), so under the default VM engine
    /// this is where evaluation crosses into bytecode.
    pub fn apply(&mut self, id: FuncId, args: Vec<Value>) -> Result<Value> {
        match self.interp.engine() {
            Engine::Vm => crate::vm::Vm::with_depth(self.interp, self.depth).apply(id, args),
            Engine::Tree => self.apply_tree(id, args),
        }
    }

    /// Apply function `id` to `args` on the tree-walker, trampolining
    /// tail calls.
    pub(crate) fn apply_tree(&mut self, mut id: FuncId, mut args: Vec<Value>) -> Result<Value> {
        self.depth += 1;
        if self.depth > self.interp.recursion_limit() {
            self.depth -= 1;
            return Err(LispError::RecursionLimit(self.interp.recursion_limit()));
        }
        if stack_exhausted(self.stack_base) {
            self.depth -= 1;
            return Err(stack_exhausted_error());
        }
        // One recycled frame serves every trampoline iteration; the
        // spent argument buffer is recycled too (it feeds the next
        // invocation's argument collection).
        let mut frame: Vec<Value> = take_value_buf();
        let interp = self.interp;
        let saved_fid = self.cur_fid;
        let result = loop {
            let entry = interp.func_entry(id);
            let func = &entry.func;
            if args.len() != func.params.len() {
                break Err(LispError::Arity {
                    name: func.name.clone(),
                    expected: func.params.len(),
                    got: args.len(),
                });
            }
            frame.clear();
            frame.reserve(func.nslots.max(entry.captured.len() + args.len()));
            frame.extend_from_slice(&entry.captured);
            frame.append(&mut args);
            frame.resize(func.nslots.max(frame.len()), Value::UNBOUND);
            put_value_buf(std::mem::take(&mut args));
            self.cur_fid = id;

            let (last, init) = match func.body.split_last() {
                Some(x) => x,
                None => break Ok(Value::NIL),
            };
            let mut err = None;
            for stmt in init {
                if let Err(e) = self.eval(stmt, &mut frame) {
                    err = Some(e);
                    break;
                }
            }
            if let Some(e) = err {
                break Err(e);
            }
            match self.eval_tail(last, &mut frame) {
                Ok(Flow::Val(v)) => break Ok(v),
                Ok(Flow::Tail(next, next_args)) => {
                    id = next;
                    args = next_args;
                }
                Err(e) => break Err(e),
            }
        };
        put_value_buf(frame);
        self.cur_fid = saved_fid;
        self.depth -= 1;
        result
    }

    /// Evaluate in non-tail position.
    pub fn eval(&mut self, e: &Expr, frame: &mut Vec<Value>) -> Result<Value> {
        match self.eval_flow(e, frame, false)? {
            Flow::Val(v) => Ok(v),
            Flow::Tail(..) => unreachable!("non-tail evaluation produced a tail call"),
        }
    }

    /// Evaluate in tail position; may yield a pending call.
    fn eval_tail(&mut self, e: &Expr, frame: &mut Vec<Value>) -> Result<Flow> {
        self.eval_flow(e, frame, true)
    }

    fn eval_flow(&mut self, e: &Expr, frame: &mut Vec<Value>, tail: bool) -> Result<Flow> {
        let interp = self.interp;
        let heap = interp.heap();
        Ok(Flow::Val(match e {
            Expr::Nil => Value::NIL,
            Expr::T => Value::T,
            Expr::Int(i) => Value::int_checked(*i).ok_or(LispError::Overflow("literal"))?,
            Expr::Float(x) => heap.float(*x),
            Expr::Str(s) => heap.string(s.clone()),
            Expr::Quote(d) => heap.from_sexpr(d),
            Expr::Var(vr, name) => match vr {
                VarRef::Local(slot) => {
                    let v = frame.get(*slot).copied().unwrap_or(Value::UNBOUND);
                    if v == Value::UNBOUND {
                        return Err(LispError::Unbound(name.to_string()));
                    }
                    v
                }
                VarRef::Global(sym) => interp.get_global(*sym)?,
            },
            Expr::Setq(vr, _, rhs) => {
                let v = self.eval(rhs, frame)?;
                match vr {
                    VarRef::Local(slot) => {
                        // Top-level frames grow on demand (slots are
                        // numbered across all forms of a load).
                        if *slot >= frame.len() {
                            frame.resize(*slot + 1, Value::UNBOUND);
                        }
                        frame[*slot] = v;
                    }
                    VarRef::Global(sym) => interp.set_global(*sym, v),
                }
                v
            }
            Expr::If(c, t, f) => {
                let cv = self.eval(c, frame)?;
                let branch = if cv.is_true() { t } else { f };
                return self.eval_flow(branch, frame, tail);
            }
            Expr::Progn(es) => match es.split_last() {
                None => Value::NIL,
                Some((last, init)) => {
                    for s in init {
                        self.eval(s, frame)?;
                    }
                    return self.eval_flow(last, frame, tail);
                }
            },
            Expr::And(es) => match es.split_last() {
                None => Value::T,
                Some((last, init)) => {
                    for s in init {
                        if !self.eval(s, frame)?.is_true() {
                            return Ok(Flow::Val(Value::NIL));
                        }
                    }
                    return self.eval_flow(last, frame, tail);
                }
            },
            Expr::Or(es) => match es.split_last() {
                None => Value::NIL,
                Some((last, init)) => {
                    for s in init {
                        let v = self.eval(s, frame)?;
                        if v.is_true() {
                            return Ok(Flow::Val(v));
                        }
                    }
                    return self.eval_flow(last, frame, tail);
                }
            },
            Expr::Let { bindings, body, sequential } => {
                if let Some(max_slot) = bindings.iter().map(|(s, _, _)| *s).max() {
                    if max_slot >= frame.len() {
                        frame.resize(max_slot + 1, Value::UNBOUND);
                    }
                }
                if *sequential {
                    for (slot, _, init) in bindings {
                        let v = self.eval(init, frame)?;
                        frame[*slot] = v;
                    }
                } else {
                    // Evaluate all inits before any binding is visible.
                    let mut vals = take_value_buf();
                    for (_, _, init) in bindings {
                        match self.eval(init, frame) {
                            Ok(v) => vals.push(v),
                            Err(e) => {
                                put_value_buf(vals);
                                return Err(e);
                            }
                        }
                    }
                    for ((slot, _, _), &v) in bindings.iter().zip(&vals) {
                        frame[*slot] = v;
                    }
                    put_value_buf(vals);
                }
                match body.split_last() {
                    None => Value::NIL,
                    Some((last, init)) => {
                        for s in init {
                            self.eval(s, frame)?;
                        }
                        return self.eval_flow(last, frame, tail);
                    }
                }
            }
            Expr::While(c, body) => {
                while self.eval(c, frame)?.is_true() {
                    for s in body {
                        self.eval(s, frame)?;
                    }
                }
                Value::NIL
            }
            Expr::Call { name, name_text, args } => {
                let mut vals = take_value_buf();
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                let id = interp
                    .lookup_func(*name)
                    .ok_or_else(|| LispError::UndefinedFunction(name_text.to_string()))?;
                if tail {
                    return Ok(Flow::Tail(id, vals));
                }
                self.apply(id, vals)?
            }
            Expr::Builtin(op, args) => {
                // atomic-incf needs the *place*, not the value, of its
                // first argument.
                if *op == BuiltinOp::AtomicIncfGlobal {
                    let Some(Expr::Var(VarRef::Global(sym), name)) = args.first() else {
                        return Err(LispError::Syntax(
                            "atomic-incf requires a global variable place".into(),
                        ));
                    };
                    let _ = name;
                    let delta = match args.get(1) {
                        Some(d) => self.eval(d, frame)?,
                        None => Value::int(1),
                    };
                    let Some(delta) = delta.as_int() else {
                        return Err(LispError::Type {
                            expected: "integer",
                            got: heap.display(delta),
                            op: "atomic-incf",
                        });
                    };
                    return Ok(Flow::Val(interp.atomic_incf_global(*sym, delta)?));
                }
                let mut vals = take_value_buf();
                for a in args {
                    match self.eval(a, frame) {
                        Ok(v) => vals.push(v),
                        Err(e) => {
                            put_value_buf(vals);
                            return Err(e);
                        }
                    }
                }
                let out = apply_builtin(self, *op, &mut vals);
                put_value_buf(vals);
                out?
            }
            Expr::Struct(op, args) => {
                let mut vals = take_value_buf();
                for a in args {
                    match self.eval(a, frame) {
                        Ok(v) => vals.push(v),
                        Err(e) => {
                            put_value_buf(vals);
                            return Err(e);
                        }
                    }
                }
                let out = apply_struct_op(interp, *op, &vals);
                put_value_buf(vals);
                out?
            }
            Expr::Lambda { func, captures } => {
                let captured: Vec<Value> = captures
                    .iter()
                    .map(|&s| frame.get(s).copied().unwrap_or(Value::UNBOUND))
                    .collect();
                let id = interp.define_closure(std::sync::Arc::clone(func), captured);
                Value::func(id)
            }
            Expr::FuncRef(sym, name_text) => {
                match interp.lookup_func(*sym) {
                    Some(id) => Value::func(id),
                    // Builtins have no table entry; their symbol is
                    // callable through funcall/apply/mapcar. Resolved
                    // through the pre-interned id table, not a string
                    // comparison chain.
                    None if interp.builtin_by_sym(*sym).is_some() => Value::sym(*sym),
                    None => return Err(LispError::UndefinedFunction(name_text.to_string())),
                }
            }
            Expr::Future { name, name_text, args } => {
                let mut vals = take_value_buf();
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                let Some(fid) = interp.lookup_func(*name) else {
                    return Err(LispError::UndefinedFunction(name_text.to_string()));
                };
                interp.hooks().future(interp, fid, vals)?
            }
            Expr::Enqueue { site, name, name_text, args, handoff } => {
                let mut vals = take_value_buf();
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                let Some(fid) = interp.lookup_func(*name) else {
                    return Err(LispError::UndefinedFunction(name_text.to_string()));
                };
                // The VM's in-place restart: a tail-position spawn of
                // the executing function from a root frame, chained by
                // the runtime, is its self-tail call again.
                let restartable = tail
                    && !*handoff
                    && self.depth == 1
                    && fid == self.cur_fid
                    && vals.len() == interp.func_entry(fid).func.params.len();
                if restartable && interp.hooks().chain_in_place(*site, fid) {
                    return Ok(Flow::Tail(fid, vals));
                }
                if *handoff {
                    interp.hooks().handoff(interp, *site, fid, vals)?;
                } else {
                    interp.hooks().enqueue(interp, *site, fid, vals)?;
                }
                Value::NIL
            }
            Expr::LockOp { lock, base, field, exclusive } => {
                let cell = self.eval(base, frame)?;
                let hooks = interp.hooks();
                if *lock {
                    hooks.lock(interp, cell, *field, *exclusive)?;
                } else {
                    hooks.unlock(interp, cell, *field, *exclusive)?;
                }
                Value::NIL
            }
        }))
    }

    /// The interpreter this evaluator runs against.
    pub fn interp(&self) -> &'i Interp {
        self.interp
    }
}

impl BuiltinCx for Evaluator<'_> {
    fn cx_interp(&self) -> &Interp {
        self.interp
    }

    fn call_func(&mut self, id: FuncId, args: Vec<Value>) -> Result<Value> {
        self.apply(id, args)
    }
}

/// Check that `v` is a struct of type `ty` (shared by both engines).
pub(crate) fn check_struct_type(interp: &Interp, v: Value, ty: u32) -> Result<()> {
    let actual = interp.heap().struct_type_of(v)?;
    if actual != ty {
        let want = interp.heap().struct_type(ty).name;
        return Err(LispError::Type {
            expected: "struct",
            got: format!("{} (wanted {want})", interp.heap().display(v)),
            op: "struct access",
        });
    }
    Ok(())
}

/// Apply a struct operation to evaluated arguments (shared by both
/// engines).
pub(crate) fn apply_struct_op(interp: &Interp, op: StructOp, vals: &[Value]) -> Result<Value> {
    let heap = interp.heap();
    Ok(match op {
        StructOp::Make { ty, nfields } => {
            debug_assert_eq!(vals.len(), nfields);
            heap.make_struct(ty, vals)
        }
        StructOp::Ref { ty, field } => {
            check_struct_type(interp, vals[0], ty)?;
            heap.struct_ref(vals[0], field)?
        }
        StructOp::Set { ty, field } => {
            check_struct_type(interp, vals[0], ty)?;
            heap.struct_set(vals[0], field, vals[1])?;
            vals[1]
        }
        StructOp::Pred { ty } => {
            let ok = heap.struct_type_of(vals[0]).map(|t| t == ty).unwrap_or(false);
            if ok {
                Value::T
            } else {
                Value::NIL
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> String {
        let it = Interp::new();
        let v = it.load_str(src).unwrap();
        it.heap().display(v)
    }

    fn run_err(src: &str) -> LispError {
        let it = Interp::new();
        it.load_str(src).unwrap_err()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("(+ 1 2 3)"), "6");
        assert_eq!(run("(- 10 3 2)"), "5");
        assert_eq!(run("(- 5)"), "-5");
        assert_eq!(run("(* 2 3 4)"), "24");
        assert_eq!(run("(/ 20 3)"), "6");
        assert_eq!(run("(mod 20 3)"), "2");
        assert_eq!(run("(+)"), "0");
        assert_eq!(run("(*)"), "1");
        assert_eq!(run("(1+ 5)"), "6");
        assert_eq!(run("(1- 5)"), "4");
        assert_eq!(run("(abs -3)"), "3");
        assert_eq!(run("(min 3 1 2)"), "1");
        assert_eq!(run("(max 3 1 2)"), "3");
    }

    #[test]
    fn float_promotion() {
        assert_eq!(run("(+ 1 2.5)"), "3.5");
        assert_eq!(run("(* 2.0 3)"), "6.0");
        assert_eq!(run("(/ 7.0 2)"), "3.5");
    }

    #[test]
    fn comparisons() {
        assert_eq!(run("(< 1 2 3)"), "t");
        assert_eq!(run("(< 1 3 2)"), "()");
        assert_eq!(run("(= 2 2 2)"), "t");
        assert_eq!(run("(>= 3 3 2)"), "t");
        assert_eq!(run("(/= 1 2)"), "t");
        assert_eq!(run("(< 1 2.5)"), "t");
    }

    #[test]
    fn lists() {
        assert_eq!(run("(cons 1 2)"), "(1 . 2)");
        assert_eq!(run("(list 1 2 3)"), "(1 2 3)");
        assert_eq!(run("(car '(1 2))"), "1");
        assert_eq!(run("(cdr '(1 2))"), "(2)");
        assert_eq!(run("(cadr '(1 2 3))"), "2");
        assert_eq!(run("(length '(a b c))"), "3");
        assert_eq!(run("(append '(1 2) '(3) nil '(4))"), "(1 2 3 4)");
        assert_eq!(run("(reverse '(1 2 3))"), "(3 2 1)");
        assert_eq!(run("(nth 1 '(a b c))"), "b");
        assert_eq!(run("(nthcdr 2 '(a b c))"), "(c)");
        assert_eq!(run("(last '(1 2 3))"), "(3)");
        assert_eq!(run("(member 2 '(1 2 3))"), "(2 3)");
        assert_eq!(run("(assoc 'b '((a 1) (b 2)))"), "(b 2)");
    }

    #[test]
    fn predicates() {
        assert_eq!(run("(null nil)"), "t");
        assert_eq!(run("(null '(1))"), "()");
        assert_eq!(run("(atom 5)"), "t");
        assert_eq!(run("(atom '(1))"), "()");
        assert_eq!(run("(consp '(1))"), "t");
        assert_eq!(run("(symbolp 'x)"), "t");
        assert_eq!(run("(numberp 3.5)"), "t");
        assert_eq!(run("(stringp \"s\")"), "t");
        assert_eq!(run("(eq 'a 'a)"), "t");
        assert_eq!(run("(eql 2 2)"), "t");
        assert_eq!(run("(equal '(1 (2)) '(1 (2)))"), "t");
        assert_eq!(run("(eq '(1) '(1))"), "()");
    }

    #[test]
    fn control_flow() {
        assert_eq!(run("(if t 1 2)"), "1");
        assert_eq!(run("(if nil 1 2)"), "2");
        assert_eq!(run("(if nil 1)"), "()");
        assert_eq!(run("(when t 1 2)"), "2");
        assert_eq!(run("(unless t 1)"), "()");
        assert_eq!(run("(cond (nil 1) (t 2))"), "2");
        assert_eq!(run("(and 1 2 3)"), "3");
        assert_eq!(run("(and 1 nil 3)"), "()");
        assert_eq!(run("(or nil 2 3)"), "2");
        assert_eq!(run("(or nil nil)"), "()");
        assert_eq!(run("(progn 1 2 3)"), "3");
        assert_eq!(run("(progn)"), "()");
    }

    #[test]
    fn variables_and_let() {
        assert_eq!(run("(let ((x 1) (y 2)) (+ x y))"), "3");
        assert_eq!(run("(let* ((x 1) (y (+ x 1))) y)"), "2");
        assert_eq!(run("(let ((x 1)) (setq x 5) x)"), "5");
        assert_eq!(run("(progn (defparameter *g* 10) *g*)"), "10");
        assert_eq!(run("(progn (defparameter *g* 10) (setq *g* 3) *g*)"), "3");
    }

    #[test]
    fn unbound_errors() {
        assert!(matches!(run_err("zzz"), LispError::Unbound(_)));
        assert!(matches!(run_err("(zzz 1)"), LispError::UndefinedFunction(_)));
    }

    #[test]
    fn while_loop() {
        assert_eq!(
            run("(let ((i 0) (acc nil)) (while (< i 3) (setq acc (cons i acc)) (setq i (1+ i))) acc)"),
            "(2 1 0)"
        );
    }

    #[test]
    fn dolist_dotimes() {
        assert_eq!(run("(let ((sum 0)) (dolist (x '(1 2 3)) (setq sum (+ sum x))) sum)"), "6");
        assert_eq!(run("(let ((sum 0)) (dotimes (i 5) (setq sum (+ sum i))) sum)"), "10");
    }

    #[test]
    fn defun_and_recursion() {
        assert_eq!(run("(defun fact (n) (if (= n 0) 1 (* n (fact (1- n))))) (fact 10)"), "3628800");
        assert_eq!(
            run("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 15)"),
            "610"
        );
    }

    #[test]
    fn tail_recursion_runs_deep() {
        // 100k iterations would blow the Rust stack without TCO.
        assert_eq!(
            run("(defun count-down (n) (if (= n 0) 'done (count-down (1- n))))
                 (count-down 100000)"),
            "done"
        );
    }

    #[test]
    fn mutual_tail_recursion() {
        assert_eq!(
            run("(defun even? (n) (if (= n 0) t (odd? (1- n))))
                 (defun odd? (n) (if (= n 0) nil (even? (1- n))))
                 (even? 50001)"),
            "()"
        );
    }

    #[test]
    fn recursion_limit_enforced() {
        let it = Interp::new();
        it.set_recursion_limit(100);
        let err = it.load_str("(defun boom (n) (+ 1 (boom (1+ n)))) (boom 0)").unwrap_err();
        assert!(matches!(err, LispError::RecursionLimit(_)), "{err:?}");
    }

    #[test]
    fn native_stack_exhaustion_names_the_budget_on_both_engines() {
        // The nested evaluator a converted function's inline run
        // starts counts its depth from zero, so the depth says nothing
        // here; the budget is what ran out.
        const BUDGET: usize = 256 << 10;
        let errors: Vec<LispError> = [Engine::Tree, Engine::Vm]
            .into_iter()
            .map(|engine| {
                std::thread::Builder::new()
                    .stack_size(8 << 20)
                    .spawn(move || {
                        set_thread_stack_budget(BUDGET);
                        let it = Interp::new();
                        it.set_engine(engine);
                        it.set_recursion_limit(usize::MAX);
                        it.load_str("(defun boom (n) (+ 1 (boom (1+ n)))) (boom 0)").unwrap_err()
                    })
                    .expect("spawn")
                    .join()
                    .expect("no panic")
            })
            .collect();
        assert_eq!(errors[0], LispError::StackExhausted(BUDGET));
        assert_eq!(errors[0], errors[1], "tree-walker and VM must raise the same error");
        assert!(errors[0].to_string().contains("262144 bytes"), "{}", errors[0]);
    }

    #[test]
    fn setf_mutation() {
        assert_eq!(run("(let ((l (list 1 2 3))) (setf (car l) 9) l)"), "(9 2 3)");
        assert_eq!(run("(let ((l (list 1 2 3))) (setf (cadr l) 9) l)"), "(1 9 3)");
        assert_eq!(run("(let ((l (list 1 2 3))) (setf (cdr l) nil) l)"), "(1)");
        assert_eq!(run("(let ((l (list 1 2 3))) (setf (nth 2 l) 9) l)"), "(1 2 9)");
        assert_eq!(run("(let ((l (list 1 2))) (rplaca l 0) l)"), "(0 2)");
    }

    #[test]
    fn paper_figure_5_function_works() {
        // Fig. 5: adds each car into the next cell's car.
        assert_eq!(
            run("(defun f (l)
                   (cond ((null l) nil)
                         ((null (cdr l)) nil)
                         (t (setf (cadr l) (+ (car l) (cadr l)))
                            (f (cdr l)))))
                 (let ((data (list 1 1 1 1)))
                   (f data)
                   data)"),
            "(1 2 3 4)"
        );
    }

    #[test]
    fn structs_work() {
        assert_eq!(
            run("(defstruct node next value)
                 (let ((n (make-node nil 5)))
                   (setf (node-next n) (make-node nil 6))
                   (+ (node-value n) (node-value (node-next n))))"),
            "11"
        );
        assert_eq!(
            run("(defstruct node next value)
                 (node-p (make-node nil 1))"),
            "t"
        );
        assert_eq!(
            run("(defstruct node next value) (defstruct leaf tag)
                 (node-p (make-leaf 3))"),
            "()"
        );
    }

    #[test]
    fn struct_type_mismatch_errors() {
        assert!(matches!(
            run_err(
                "(defstruct a x) (defstruct b y)
                 (a-x (make-b 1))"
            ),
            LispError::Type { .. }
        ));
    }

    #[test]
    fn hash_tables() {
        assert_eq!(
            run("(let ((h (make-hash-table)))
                   (puthash 'a 1 h)
                   (setf (gethash 'b h) 2)
                   (+ (gethash 'a h) (gethash 'b h)))"),
            "3"
        );
        assert_eq!(run("(let ((h (make-hash-table))) (gethash 'missing h))"), "()");
        assert_eq!(
            run("(let ((h (make-hash-table))) (puthash 1 2 h) (remhash 1 h) (hash-table-count h))"),
            "0"
        );
    }

    #[test]
    fn vectors() {
        assert_eq!(
            run("(let ((v (make-vector 3 0))) (aset v 1 9) (+ (aref v 0) (aref v 1)))"),
            "9"
        );
        assert_eq!(run("(vector-length (make-vector 5 nil))"), "5");
        assert_eq!(run("(let ((v (make-vector 2 0))) (setf (aref v 0) 7) (aref v 0))"), "7");
    }

    #[test]
    fn lambdas_and_funcall() {
        assert_eq!(run("(funcall (lambda (x) (* x x)) 5)"), "25");
        assert_eq!(
            run("(defun adder (n) (lambda (x) (+ x n)))
                 (funcall (adder 10) 5)"),
            "15"
        );
        assert_eq!(run("(defun sq (x) (* x x)) (funcall 'sq 4)"), "16");
        assert_eq!(run("(defun sq (x) (* x x)) (funcall (function sq) 4)"), "16");
        assert_eq!(run("(mapcar #'1+ '(1 2 3))"), "(2 3 4)");
        assert_eq!(run("(funcall #'car '(9 8))"), "9");
        assert_eq!(run("(mapcar (lambda (x) (* 2 x)) '(1 2 3))"), "(2 4 6)");
        assert_eq!(run("(defun sq (x) (* x x)) (mapcar 'sq '(1 2 3))"), "(1 4 9)");
        assert_eq!(run("(apply '+ 1 2 '(3 4))"), "10");
    }

    #[test]
    fn print_captures_output() {
        let it = Interp::new();
        it.load_str("(print (list 1 2)) (princ 'x) (terpri)").unwrap();
        let out = it.take_output();
        assert_eq!(out, vec!["(1 2)", "x", ""]);
    }

    #[test]
    fn error_builtin() {
        assert!(matches!(run_err("(error \"boom\")"), LispError::User(m) if m.contains("boom")));
    }

    #[test]
    fn division_by_zero() {
        assert!(matches!(run_err("(/ 1 0)"), LispError::DivideByZero));
        assert!(matches!(run_err("(mod 1 0)"), LispError::DivideByZero));
    }

    #[test]
    fn overflow_detected() {
        assert!(matches!(run_err("(* 576460752303423487 16)"), LispError::Overflow(_)));
    }

    #[test]
    fn futures_run_sequentially_by_default() {
        assert_eq!(
            run("(defun work (n) (* n 2))
                 (touch (future (work 21)))"),
            "42"
        );
    }

    #[test]
    fn cri_enqueue_sequential_fallback() {
        // Under SequentialHooks, cri-enqueue degenerates to a direct
        // call, preserving the original program's semantics.
        assert_eq!(
            run("(defparameter *acc* 0)
                 (defun walk (l)
                   (when l
                     (setq *acc* (+ *acc* (car l)))
                     (cri-enqueue 0 walk (cdr l))))
                 (walk '(1 2 3 4))
                 *acc*"),
            "10"
        );
    }

    #[test]
    fn cri_locks_are_noops_sequentially() {
        assert_eq!(
            run("(let ((l (list 1 2)))
                   (cri-lock l 'car)
                   (setf (car l) 9)
                   (cri-unlock l 'car)
                   l)"),
            "(9 2)"
        );
    }

    #[test]
    fn quoted_data_is_fresh_per_eval() {
        // Each evaluation of a quote builds a fresh structure, so
        // mutating it cannot corrupt other evaluations.
        assert_eq!(
            run("(defun f () '(1 2))
                 (let ((a (f)))
                   (setf (car a) 9)
                   (f))"),
            "(1 2)"
        );
    }

    #[test]
    fn remq_figure_12() {
        assert_eq!(
            run("(defun remq (obj lst)
                   (cond ((null lst) nil)
                         ((eq obj (car lst)) (remq obj (cdr lst)))
                         (t (cons (car lst) (remq obj (cdr lst))))))
                 (remq 'a '(a b a c a d))"),
            "(b c d)"
        );
    }

    #[test]
    fn remq_d_figure_13() {
        assert_eq!(
            run("(defun remq-d (dest obj lst)
                   (cond ((null lst) (setf (cdr dest) nil))
                         ((eq obj (car lst)) (remq-d dest obj (cdr lst)))
                         (t (let ((cell (cons (car lst) nil)))
                              (remq-d cell obj (cdr lst))
                              (setf (cdr dest) cell)))))
                 (let ((dest (cons nil nil)))
                   (remq-d dest 'a '(a b a c a d))
                   (cdr dest))"),
            "(b c d)"
        );
    }

    #[test]
    fn copy_list_is_shallow() {
        assert_eq!(
            run("(let* ((a (list 1 2 3)) (b (copy-list a)))
                   (setf (car a) 9)
                   b)"),
            "(1 2 3)"
        );
    }

    #[test]
    fn identity_and_gensym() {
        assert_eq!(run("(identity 5)"), "5");
        let it = Interp::new();
        let a = it.load_str("(gensym)").unwrap();
        let b = it.load_str("(gensym)").unwrap();
        assert_ne!(a, b);
    }
}
