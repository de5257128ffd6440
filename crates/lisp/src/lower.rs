//! Lowering: s-expressions to the [`crate::ast`] representation.
//!
//! The lowerer resolves lexical variables to frame slots, desugars
//! `cond`/`when`/`unless`/`dolist`/`dotimes`/`push`/`pop`/`incf` and
//! `c[ad]+r` compositions, expands `defstruct` into struct operations,
//! recognizes `setf` places, and collects `(declare ...)` /
//! `(curare-declare ...)` forms for the analysis crate.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{BuiltinOp, Expr, Func, LocalSlot, Program, StructOp, VarRef};
use crate::error::{LispError, Result};
use crate::heap::Heap;
use curare_sexpr::{Sexpr, Symbol, SymbolMap};

/// Per-function lowering context.
struct FnCtx {
    scopes: Vec<SymbolMap<LocalSlot>>,
    nslots: usize,
    /// parent slot -> local capture slot (lambdas only).
    capture_map: HashMap<LocalSlot, LocalSlot>,
    /// ordered parent slots captured.
    captures: Vec<LocalSlot>,
}

impl FnCtx {
    fn new() -> Self {
        FnCtx {
            scopes: vec![SymbolMap::default()],
            nslots: 0,
            capture_map: HashMap::new(),
            captures: Vec::new(),
        }
    }

    fn fresh_slot(&mut self) -> LocalSlot {
        let s = self.nslots;
        self.nslots += 1;
        s
    }

    fn bind(&mut self, name: Symbol) -> LocalSlot {
        let s = self.fresh_slot();
        self.scopes.last_mut().expect("scope stack never empty").insert(name, s);
        s
    }

    fn lookup(&self, name: Symbol) -> Option<LocalSlot> {
        self.scopes.iter().rev().find_map(|m| m.get(&name)).copied()
    }
}

/// The lowerer. Holds the heap for symbol interning and the
/// struct-accessor namespace built up by `defstruct` forms.
pub struct Lowerer<'h> {
    heap: &'h Heap,
    /// defstruct-generated name -> operation.
    struct_ops: SymbolMap<StructOpKind>,
    ctxs: Vec<FnCtx>,
    /// Collected lambdas pending id assignment are inline in Expr.
    gensym: usize,
}

#[derive(Debug, Clone, Copy)]
enum StructOpKind {
    Make(u32, usize),
    Ref(u32, usize),
    Pred(u32),
}

fn syntax(msg: impl Into<String>) -> LispError {
    LispError::Syntax(msg.into())
}

/// The lowered form of one top-level s-expression.
pub enum TopForm {
    /// A `defun`.
    Func(Arc<Func>),
    /// A `defstruct` (already registered; nothing to evaluate).
    StructDef,
    /// A `(curare-declare ...)` form.
    Declaration(Sexpr),
    /// An expression to evaluate at load time.
    Expr(Expr),
}

impl<'h> Lowerer<'h> {
    /// A lowerer over `heap`. Re-registers accessors for any struct
    /// types already defined in the heap (so multiple `load`s compose).
    pub fn new(heap: &'h Heap) -> Self {
        let mut lw =
            Lowerer { heap, struct_ops: SymbolMap::default(), ctxs: vec![FnCtx::new()], gensym: 0 };
        for ty in 0..heap.struct_type_count() as u32 {
            lw.register_struct_ops(ty);
        }
        lw
    }

    fn register_struct_ops(&mut self, ty: u32) {
        let st = self.heap.struct_type(ty);
        let mut define = |name: String, op| self.struct_ops.insert(Symbol::intern(&name), op);
        define(format!("make-{}", st.name), StructOpKind::Make(ty, st.fields.len()));
        define(format!("{}-p", st.name), StructOpKind::Pred(ty));
        for (i, f) in st.fields.iter().enumerate() {
            define(format!("{}-{}", st.name, f), StructOpKind::Ref(ty, i));
        }
    }

    /// Lower a whole program (sequence of top-level forms): every
    /// `defstruct` first, then the other forms in order, so a `defun`
    /// sees the accessors of a struct type defined below it. Nothing is
    /// evaluated while lowering, so no other order is observable.
    pub fn lower_program(&mut self, forms: &[Sexpr]) -> Result<Program> {
        let mut prog = Program::default();
        for args in forms.iter().filter_map(|f| f.call_args("defstruct")) {
            let ty = self.lower_defstruct(args)?;
            prog.structs.push((ty, self.heap.struct_type(ty)));
        }
        for form in forms.iter().filter(|f| !f.is_call("defstruct")) {
            match self.lower_toplevel(form)? {
                TopForm::Func(f) => prog.funcs.push(f),
                TopForm::StructDef => unreachable!("every defstruct was lowered above"),
                TopForm::Declaration(d) => prog.declarations.push(d),
                TopForm::Expr(e) => prog.toplevel.push(e),
            }
        }
        Ok(prog)
    }

    /// Lower one top-level form.
    pub fn lower_toplevel(&mut self, form: &Sexpr) -> Result<TopForm> {
        if let Some(args) = form.call_args("defun") {
            return Ok(TopForm::Func(self.lower_defun(args)?));
        }
        if let Some(args) = form.call_args("defstruct") {
            self.lower_defstruct(args)?;
            return Ok(TopForm::StructDef);
        }
        if form.is_call("curare-declare") {
            return Ok(TopForm::Declaration(form.clone()));
        }
        if let Some(args) = form.call_args("defparameter").or_else(|| form.call_args("defvar")) {
            let [name, init] = args else {
                return Err(syntax("defparameter expects (defparameter name init)"));
            };
            let Some(n) = name.symbol() else {
                return Err(syntax("defparameter name must be a symbol"));
            };
            let sym = self.heap.intern(n);
            let init = self.lower_expr(init)?;
            return Ok(TopForm::Expr(Expr::Setq(VarRef::Global(sym), n, Box::new(init))));
        }
        Ok(TopForm::Expr(self.lower_expr(form)?))
    }

    fn lower_defstruct(&mut self, args: &[Sexpr]) -> Result<u32> {
        let Some(name) = args.first().and_then(Sexpr::as_symbol) else {
            return Err(syntax("defstruct expects (defstruct name field...)"));
        };
        let mut fields = Vec::new();
        for f in &args[1..] {
            match f.as_symbol() {
                Some(s) => fields.push(s.to_string()),
                None => return Err(syntax("defstruct fields must be symbols")),
            }
        }
        let ty = self.heap.define_struct_type(name, &fields);
        self.register_struct_ops(ty);
        Ok(ty)
    }

    fn lower_defun(&mut self, args: &[Sexpr]) -> Result<Arc<Func>> {
        let (name, params, body) = match args {
            [name, params, body @ ..] => (name, params, body),
            _ => return Err(syntax("defun expects (defun name (params) body...)")),
        };
        let Some(name) = name.symbol() else {
            return Err(syntax("defun name must be a symbol"));
        };
        let Some(params) = params.as_list() else {
            return Err(syntax("defun parameter list must be a list"));
        };
        let pnames = param_names(params)?;

        self.ctxs.push(FnCtx::new());
        for &p in &pnames {
            self.ctxs.last_mut().expect("ctx pushed above").bind(p);
        }
        let result = self.lower_body_with_decls(body);
        let ctx = self.ctxs.pop().expect("ctx pushed above");
        let (body, declarations) = result?;
        if !ctx.captures.is_empty() {
            return Err(syntax("defun cannot capture enclosing variables"));
        }
        Ok(Arc::new(Func {
            name: name.to_string(),
            name_sym: self.heap.intern(name),
            params: pnames.iter().map(|p| p.to_string()).collect(),
            ncaptures: 0,
            nslots: ctx.nslots,
            body,
            declarations,
        }))
    }

    /// Split leading `(declare ...)` forms from a body, lower the rest.
    fn lower_body_with_decls(&mut self, body: &[Sexpr]) -> Result<(Vec<Expr>, Vec<Sexpr>)> {
        let mut decls = Vec::new();
        let mut i = 0;
        while i < body.len() && body[i].is_call("declare") {
            decls.push(body[i].clone());
            i += 1;
        }
        let exprs = body[i..].iter().map(|e| self.lower_expr(e)).collect::<Result<Vec<_>>>()?;
        Ok((exprs, decls))
    }

    fn ctx(&mut self) -> &mut FnCtx {
        self.ctxs.last_mut().expect("ctx stack never empty")
    }

    /// Resolve a variable: innermost function locals, then captures
    /// from enclosing functions (for lambdas), then global.
    fn resolve_var(&mut self, name: Symbol) -> VarRef {
        // Fast path: bound in the current function.
        if let Some(slot) = self.ctxs.last().expect("ctx stack never empty").lookup(name) {
            return VarRef::Local(slot);
        }
        // Search enclosing contexts; thread a capture through each
        // intermediate lambda level.
        let depth = self.ctxs.len();
        for level in (0..depth.saturating_sub(1)).rev() {
            if let Some(mut slot) = self.ctxs[level].lookup(name) {
                for l in level + 1..depth {
                    slot = self.add_capture(l, slot);
                }
                return VarRef::Local(slot);
            }
        }
        VarRef::Global(self.heap.intern(name))
    }

    fn add_capture(&mut self, level: usize, parent_slot: LocalSlot) -> LocalSlot {
        if let Some(&s) = self.ctxs[level].capture_map.get(&parent_slot) {
            return s;
        }
        let ctx = &mut self.ctxs[level];
        let s = ctx.fresh_slot();
        ctx.capture_map.insert(parent_slot, s);
        ctx.captures.push(parent_slot);
        s
    }

    /// Lower a single expression.
    pub fn lower_expr(&mut self, e: &Sexpr) -> Result<Expr> {
        match e {
            Sexpr::Int(i) => Ok(Expr::Int(*i)),
            Sexpr::Float(x) => Ok(Expr::Float(*x)),
            Sexpr::Str(s) => Ok(Expr::Str(s.clone())),
            Sexpr::Sym(s) => Ok(match s.as_str() {
                "nil" => Expr::Nil,
                "t" => Expr::T,
                _ => Expr::Var(self.resolve_var(*s), *s),
            }),
            Sexpr::Dotted(..) => Err(syntax("dotted list in expression position")),
            Sexpr::List(items) => {
                if items.is_empty() {
                    return Ok(Expr::Nil);
                }
                let head = items[0].symbol().ok_or_else(|| syntax("call head must be a symbol"))?;
                self.lower_form(head, &items[1..])
            }
        }
    }

    fn lower_all(&mut self, args: &[Sexpr]) -> Result<Vec<Expr>> {
        args.iter().map(|a| self.lower_expr(a)).collect()
    }

    fn expect_arity(head: &str, args: &[Sexpr], n: usize) -> Result<()> {
        if args.len() != n {
            return Err(LispError::Arity { name: head.into(), expected: n, got: args.len() });
        }
        Ok(())
    }

    fn lower_form(&mut self, head: Symbol, args: &[Sexpr]) -> Result<Expr> {
        match head.as_str() {
            "quote" => {
                Self::expect_arity(&head, args, 1)?;
                Ok(Expr::Quote(args[0].clone()))
            }
            "if" => match args {
                [c, t] => Ok(Expr::If(
                    Box::new(self.lower_expr(c)?),
                    Box::new(self.lower_expr(t)?),
                    Box::new(Expr::Nil),
                )),
                [c, t, e] => Ok(Expr::If(
                    Box::new(self.lower_expr(c)?),
                    Box::new(self.lower_expr(t)?),
                    Box::new(self.lower_expr(e)?),
                )),
                _ => Err(syntax("if expects 2 or 3 arguments")),
            },
            "when" => {
                let [c, body @ ..] = args else { return Err(syntax("when expects a test")) };
                let body = self.lower_all(body)?;
                Ok(Expr::If(
                    Box::new(self.lower_expr(c)?),
                    Box::new(Expr::Progn(body)),
                    Box::new(Expr::Nil),
                ))
            }
            "unless" => {
                let [c, body @ ..] = args else { return Err(syntax("unless expects a test")) };
                let body = self.lower_all(body)?;
                Ok(Expr::If(
                    Box::new(self.lower_expr(c)?),
                    Box::new(Expr::Nil),
                    Box::new(Expr::Progn(body)),
                ))
            }
            "cond" => self.lower_cond(args),
            "progn" => Ok(Expr::Progn(self.lower_all(args)?)),
            "and" => Ok(Expr::And(self.lower_all(args)?)),
            "or" => Ok(Expr::Or(self.lower_all(args)?)),
            "not" | "null" => {
                Self::expect_arity("null", args, 1)?;
                Ok(Expr::Builtin(BuiltinOp::Null, self.lower_all(args)?))
            }
            "let" | "let*" => self.lower_let(head == "let*", args),
            "while" => {
                let [c, body @ ..] = args else { return Err(syntax("while expects a test")) };
                Ok(Expr::While(Box::new(self.lower_expr(c)?), self.lower_all(body)?))
            }
            "dolist" => self.lower_dolist(args),
            "dotimes" => self.lower_dotimes(args),
            "defparameter" | "defvar" => {
                Self::expect_arity(&head, args, 2)?;
                let Some(name) = args[0].symbol() else {
                    return Err(syntax("defparameter name must be a symbol"));
                };
                let sym = self.heap.intern(name);
                Ok(Expr::Setq(VarRef::Global(sym), name, Box::new(self.lower_expr(&args[1])?)))
            }
            "setq" => {
                Self::expect_arity(&head, args, 2)?;
                let Some(name) = args[0].symbol() else {
                    return Err(syntax("setq target must be a symbol"));
                };
                let vr = self.resolve_var(name);
                Ok(Expr::Setq(vr, name, Box::new(self.lower_expr(&args[1])?)))
            }
            "setf" => {
                Self::expect_arity(&head, args, 2)?;
                self.lower_setf(&args[0], &args[1])
            }
            "incf" | "decf" => {
                let (place, delta) = match args {
                    [p] => (p, Sexpr::Int(1)),
                    [p, d] => (p, d.clone()),
                    _ => return Err(syntax("incf expects (incf place [delta])")),
                };
                let op = if head == "incf" { "+" } else { "-" };
                let new = Sexpr::List(vec![Sexpr::sym(op), place.clone(), delta]);
                self.lower_setf(place, &new)
            }
            "push" => {
                Self::expect_arity(&head, args, 2)?;
                let new = Sexpr::List(vec![Sexpr::sym("cons"), args[0].clone(), args[1].clone()]);
                self.lower_setf(&args[1], &new)
            }
            "pop" => {
                Self::expect_arity(&head, args, 1)?;
                let Some(name) = args[0].symbol() else {
                    return Err(syntax("pop target must be a symbol"));
                };
                // (let ((%pop (car v))) (setq v (cdr v)) %pop)
                let (tmp, var) = (Sexpr::sym(self.fresh_name("%pop")), Sexpr::Sym(name));
                self.lower_expr(&Sexpr::List(vec![
                    Sexpr::sym("let"),
                    Sexpr::List(vec![Sexpr::List(vec![
                        tmp.clone(),
                        Sexpr::List(vec![Sexpr::sym("car"), var.clone()]),
                    ])]),
                    Sexpr::List(vec![
                        Sexpr::sym("setq"),
                        var.clone(),
                        Sexpr::List(vec![Sexpr::sym("cdr"), var]),
                    ]),
                    tmp,
                ]))
            }
            "lambda" => self.lower_lambda(args),
            "function" => {
                Self::expect_arity(&head, args, 1)?;
                let Some(name) = args[0].symbol() else {
                    return Err(syntax("function expects a symbol"));
                };
                Ok(Expr::FuncRef(self.heap.intern(name), name))
            }
            "future" => {
                Self::expect_arity(&head, args, 1)?;
                let Some(call) = args[0].as_list() else {
                    return Err(syntax("future expects a function call"));
                };
                let Some(fname) = call.first().and_then(Sexpr::symbol) else {
                    return Err(syntax("future expects (future (f args...))"));
                };
                Ok(Expr::Future {
                    name: self.heap.intern(fname),
                    name_text: fname,
                    args: self.lower_all(&call[1..])?,
                })
            }
            "cri-enqueue" | "cri-handoff" => {
                let [site, fname, rest @ ..] = args else {
                    return Err(syntax(format!("{head} expects ({head} site fname args...)")));
                };
                let Some(site) = site.as_int() else {
                    return Err(syntax(format!("{head} site must be an integer")));
                };
                let Some(fname) = fname.symbol() else {
                    return Err(syntax(format!("{head} fname must be a symbol")));
                };
                Ok(Expr::Enqueue {
                    site: site as usize,
                    name: self.heap.intern(fname),
                    name_text: fname,
                    args: self.lower_all(rest)?,
                    handoff: head == "cri-handoff",
                })
            }
            "atomic-incf-cell" => {
                Self::expect_arity(&head, args, 3)?;
                let base = self.lower_expr(&args[0])?;
                let field = field_code(&args[1])?;
                let delta = self.lower_expr(&args[2])?;
                Ok(Expr::Builtin(
                    BuiltinOp::AtomicIncfCell,
                    vec![base, Expr::Int(field as i64), delta],
                ))
            }
            "cri-lock" | "cri-unlock" | "cri-lock-read" | "cri-unlock-read" => {
                Self::expect_arity(&head, args, 2)?;
                let base = self.lower_expr(&args[0])?;
                let field = field_code(&args[1])?;
                Ok(Expr::LockOp {
                    lock: head.starts_with("cri-lock"),
                    base: Box::new(base),
                    field,
                    exclusive: !head.ends_with("-read"),
                })
            }
            _ => self.lower_call_like(head, args),
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.gensym += 1;
        format!("{prefix}{}", self.gensym)
    }

    fn lower_cond(&mut self, clauses: &[Sexpr]) -> Result<Expr> {
        let Some((first, rest)) = clauses.split_first() else {
            return Ok(Expr::Nil);
        };
        let Some(clause) = first.as_list() else {
            return Err(syntax("cond clause must be a list"));
        };
        let Some((test, body)) = clause.split_first() else {
            return Err(syntax("cond clause must not be empty"));
        };
        let rest_expr = self.lower_cond(rest)?;
        if body.is_empty() {
            // (test) clause: value of test if true.
            let test = self.lower_expr(test)?;
            return Ok(Expr::Or(vec![test, rest_expr]));
        }
        let test = if test.is_symbol("t") { Expr::T } else { self.lower_expr(test)? };
        let body = self.lower_all(body)?;
        Ok(Expr::If(Box::new(test), Box::new(Expr::Progn(body)), Box::new(rest_expr)))
    }

    fn lower_let(&mut self, sequential: bool, args: &[Sexpr]) -> Result<Expr> {
        let [bindings, body @ ..] = args else {
            return Err(syntax("let expects a binding list"));
        };
        let Some(bindings) = bindings.as_list() else {
            return Err(syntax("let binding list must be a list"));
        };
        // Parse (name init) or bare name pairs.
        let nil = Sexpr::nil();
        let mut parsed = Vec::new();
        for b in bindings {
            match b {
                Sexpr::Sym(n) => parsed.push((*n, &nil)),
                Sexpr::List(pair) if pair.len() == 2 => {
                    let Some(n) = pair[0].symbol() else {
                        return Err(syntax("let binding name must be a symbol"));
                    };
                    parsed.push((n, &pair[1]));
                }
                _ => return Err(syntax("let binding must be (name init) or name")),
            }
        }
        self.ctx().scopes.push(SymbolMap::default());
        let result = (|| {
            let mut lowered = Vec::new();
            if sequential {
                for &(n, init) in &parsed {
                    let init = self.lower_expr(init)?; // sees earlier bindings
                    let slot = self.ctx().bind(n);
                    lowered.push((slot, n, init));
                }
            } else {
                // Plain let: inits see only the outer scope.
                let inits = parsed
                    .iter()
                    .map(|(_, init)| self.lower_expr(init))
                    .collect::<Result<Vec<_>>>()?;
                for (&(n, _), init) in parsed.iter().zip(inits) {
                    let slot = self.ctx().bind(n);
                    lowered.push((slot, n, init));
                }
            }
            let body = self.lower_all(body)?;
            Ok(Expr::Let { bindings: lowered, body, sequential })
        })();
        self.ctx().scopes.pop();
        result
    }

    fn lower_dolist(&mut self, args: &[Sexpr]) -> Result<Expr> {
        let [spec, body @ ..] = args else {
            return Err(syntax("dolist expects (dolist (var list) body...)"));
        };
        let Some([var, list]) = spec.as_list() else {
            return Err(syntax("dolist spec must be (var list)"));
        };
        if var.symbol().is_none() {
            return Err(syntax("dolist var must be a symbol"));
        }
        let tmp = Sexpr::sym(self.fresh_name("%dolist"));
        // (let ((tmp list) (var nil))
        //   (while (consp tmp) (setq var (car tmp)) body... (setq tmp (cdr tmp))))
        let mut while_body = vec![Sexpr::List(vec![
            Sexpr::sym("setq"),
            var.clone(),
            Sexpr::List(vec![Sexpr::sym("car"), tmp.clone()]),
        ])];
        while_body.extend(body.iter().cloned());
        while_body.push(Sexpr::List(vec![
            Sexpr::sym("setq"),
            tmp.clone(),
            Sexpr::List(vec![Sexpr::sym("cdr"), tmp.clone()]),
        ]));
        let mut whole =
            vec![Sexpr::sym("while"), Sexpr::List(vec![Sexpr::sym("consp"), tmp.clone()])];
        whole.extend(while_body);
        self.lower_expr(&Sexpr::List(vec![
            Sexpr::sym("let"),
            Sexpr::List(vec![
                Sexpr::List(vec![tmp, list.clone()]),
                Sexpr::List(vec![var.clone(), Sexpr::sym("nil")]),
            ]),
            Sexpr::List(whole),
        ]))
    }

    fn lower_dotimes(&mut self, args: &[Sexpr]) -> Result<Expr> {
        let [spec, body @ ..] = args else {
            return Err(syntax("dotimes expects (dotimes (var n) body...)"));
        };
        let Some([var, n]) = spec.as_list() else {
            return Err(syntax("dotimes spec must be (var n)"));
        };
        if var.symbol().is_none() {
            return Err(syntax("dotimes var must be a symbol"));
        }
        let limit = Sexpr::sym(self.fresh_name("%dotimes"));
        let mut while_form = vec![
            Sexpr::sym("while"),
            Sexpr::List(vec![Sexpr::sym("<"), var.clone(), limit.clone()]),
        ];
        while_form.extend(body.iter().cloned());
        while_form.push(Sexpr::List(vec![
            Sexpr::sym("setq"),
            var.clone(),
            Sexpr::List(vec![Sexpr::sym("1+"), var.clone()]),
        ]));
        self.lower_expr(&Sexpr::List(vec![
            Sexpr::sym("let"),
            Sexpr::List(vec![
                Sexpr::List(vec![limit, n.clone()]),
                Sexpr::List(vec![var.clone(), Sexpr::Int(0)]),
            ]),
            Sexpr::List(while_form),
        ]))
    }

    fn lower_lambda(&mut self, args: &[Sexpr]) -> Result<Expr> {
        let [params, body @ ..] = args else {
            return Err(syntax("lambda expects (lambda (params) body...)"));
        };
        let Some(params) = params.as_list() else {
            return Err(syntax("lambda parameter list must be a list"));
        };
        let pnames = param_names(params)?;
        self.ctxs.push(FnCtx::new());
        // Captures will claim slots lazily as free variables are seen;
        // we therefore bind parameters first and renumber captures
        // after lowering (captures must precede params in the frame).
        for &p in &pnames {
            self.ctxs.last_mut().expect("pushed above").bind(p);
        }
        let result = self.lower_body_with_decls(body);
        let ctx = self.ctxs.pop().expect("pushed above");
        let (mut lowered_body, declarations) = result?;
        // Frame layout before fix-up: params at 0.., captures and lets
        // interleaved after. Required layout: captures 0..k, params
        // k.., others following. Renumber.
        let k = ctx.captures.len();
        let np = pnames.len();
        let remap = |slot: LocalSlot| -> LocalSlot {
            if slot < np {
                // parameter
                slot + k
            } else if let Some(pos) = ctx.captures.iter().position(|&p| ctx.capture_map[&p] == slot)
            {
                pos
            } else {
                slot + k - count_captures_below(&ctx, slot)
            }
        };
        fn count_captures_below(ctx: &FnCtx, slot: LocalSlot) -> usize {
            ctx.capture_map.values().filter(|&&c| c < slot).count()
        }
        for e in &mut lowered_body {
            remap_slots(e, &remap);
        }
        let name = self.fresh_name("%lambda");
        Ok(Expr::Lambda {
            func: Arc::new(Func {
                name_sym: self.heap.intern(&name),
                name,
                params: pnames.iter().map(|p| p.to_string()).collect(),
                ncaptures: k,
                nslots: ctx.nslots,
                body: lowered_body,
                declarations,
            }),
            captures: ctx.captures,
        })
    }

    /// Calls to builtins, struct ops, `c[ad]+r`, or user functions.
    fn lower_call_like(&mut self, head: Symbol, args: &[Sexpr]) -> Result<Expr> {
        // defstruct-generated names first: they shadow nothing else.
        if let Some(&op) = self.struct_ops.get(&head) {
            let lowered = self.lower_all(args)?;
            return match op {
                StructOpKind::Make(ty, nfields) => {
                    if lowered.len() != nfields {
                        return Err(LispError::Arity {
                            name: head.to_string(),
                            expected: nfields,
                            got: lowered.len(),
                        });
                    }
                    Ok(Expr::Struct(StructOp::Make { ty, nfields }, lowered))
                }
                StructOpKind::Ref(ty, field) => {
                    if lowered.len() != 1 {
                        return Err(LispError::Arity {
                            name: head.to_string(),
                            expected: 1,
                            got: lowered.len(),
                        });
                    }
                    Ok(Expr::Struct(StructOp::Ref { ty, field }, lowered))
                }
                StructOpKind::Pred(ty) => {
                    if lowered.len() != 1 {
                        return Err(LispError::Arity {
                            name: head.to_string(),
                            expected: 1,
                            got: lowered.len(),
                        });
                    }
                    Ok(Expr::Struct(StructOp::Pred { ty }, lowered))
                }
            };
        }
        // c[ad]+r compositions: cadr, cddr, caddr, ...
        if let Some(expansion) = cxr_letters(&head) {
            Self::expect_arity(&head, args, 1)?;
            let mut e = self.lower_expr(&args[0])?;
            for letter in expansion.iter().rev() {
                let op = if *letter == b'a' { BuiltinOp::Car } else { BuiltinOp::Cdr };
                e = Expr::Builtin(op, vec![e]);
            }
            return Ok(e);
        }
        if let Some((op, min, max)) = builtin_signature(&head) {
            if args.len() < min || args.len() > max {
                let (name, got) = (head.to_string(), args.len());
                return Err(LispError::Arity { name, expected: min, got });
            }
            return Ok(Expr::Builtin(op, self.lower_all(args)?));
        }
        // Otherwise: a user function call by name.
        Ok(Expr::Call {
            name: self.heap.intern(head),
            name_text: head,
            args: self.lower_all(args)?,
        })
    }

    /// Lower `(setf place value)`.
    fn lower_setf(&mut self, place: &Sexpr, value: &Sexpr) -> Result<Expr> {
        match place {
            Sexpr::Sym(name) => {
                let vr = self.resolve_var(*name);
                Ok(Expr::Setq(vr, *name, Box::new(self.lower_expr(value)?)))
            }
            Sexpr::List(items) if !items.is_empty() => {
                let head =
                    items[0].symbol().ok_or_else(|| syntax("setf place head must be a symbol"))?;
                let pargs = &items[1..];
                // Struct field place.
                if let Some(&StructOpKind::Ref(ty, field)) = self.struct_ops.get(&head) {
                    Self::expect_arity(&head, pargs, 1)?;
                    let obj = self.lower_expr(&pargs[0])?;
                    let v = self.lower_expr(value)?;
                    return Ok(Expr::Struct(StructOp::Set { ty, field }, vec![obj, v]));
                }
                match head.as_str() {
                    "car" | "cdr" => {
                        Self::expect_arity(&head, pargs, 1)?;
                        let base = self.lower_expr(&pargs[0])?;
                        let v = self.lower_expr(value)?;
                        let op = if head == "car" { BuiltinOp::SetCar } else { BuiltinOp::SetCdr };
                        Ok(Expr::Builtin(op, vec![base, v]))
                    }
                    "nth" => {
                        Self::expect_arity(&head, pargs, 2)?;
                        let i = self.lower_expr(&pargs[0])?;
                        let l = self.lower_expr(&pargs[1])?;
                        let v = self.lower_expr(value)?;
                        Ok(Expr::Builtin(BuiltinOp::SetNth, vec![i, l, v]))
                    }
                    "gethash" => {
                        Self::expect_arity(&head, pargs, 2)?;
                        let k = self.lower_expr(&pargs[0])?;
                        let h = self.lower_expr(&pargs[1])?;
                        let v = self.lower_expr(value)?;
                        Ok(Expr::Builtin(BuiltinOp::Puthash, vec![k, v, h]))
                    }
                    "aref" => {
                        Self::expect_arity(&head, pargs, 2)?;
                        let vec = self.lower_expr(&pargs[0])?;
                        let i = self.lower_expr(&pargs[1])?;
                        let v = self.lower_expr(value)?;
                        Ok(Expr::Builtin(BuiltinOp::Aset, vec![vec, i, v]))
                    }
                    _ => {
                        // c[ad]+r composition place: peel the outermost
                        // accessor, e.g. (setf (cadr l) v) = (rplaca (cdr l) v).
                        if let Some(letters) = cxr_letters(&head) {
                            Self::expect_arity(&head, pargs, 1)?;
                            let mut base = self.lower_expr(&pargs[0])?;
                            for letter in letters[1..].iter().rev() {
                                let op =
                                    if *letter == b'a' { BuiltinOp::Car } else { BuiltinOp::Cdr };
                                base = Expr::Builtin(op, vec![base]);
                            }
                            let v = self.lower_expr(value)?;
                            let op = if letters[0] == b'a' {
                                BuiltinOp::SetCar
                            } else {
                                BuiltinOp::SetCdr
                            };
                            return Ok(Expr::Builtin(op, vec![base, v]));
                        }
                        Err(syntax(format!("unsupported setf place: ({head} ...)")))
                    }
                }
            }
            _ => Err(syntax("unsupported setf place")),
        }
    }
}

/// The names of a parameter list.
fn param_names(params: &[Sexpr]) -> Result<Vec<Symbol>> {
    params.iter().map(|p| p.symbol().ok_or_else(|| syntax("parameters must be symbols"))).collect()
}

/// Recursively renumber local slots in a lowered expression (used by
/// lambda capture layout fix-up).
fn remap_slots(e: &mut Expr, remap: &impl Fn(LocalSlot) -> LocalSlot) {
    match e {
        Expr::Var(VarRef::Local(s), _) => *s = remap(*s),
        Expr::Setq(VarRef::Local(s), _, _) => *s = remap(*s),
        Expr::Let { bindings, .. } => {
            for (s, _, _) in bindings.iter_mut() {
                *s = remap(*s);
            }
        }
        Expr::Lambda { captures, .. } => {
            for c in captures.iter_mut() {
                *c = remap(*c);
            }
        }
        _ => {}
    }
    e.for_children_mut(&mut |c| remap_slots(c, remap));
}

/// If `name` is a `c[ad]+r` composition, the `a`/`d` letters
/// outermost-first; e.g. `cadr` → `[a, d]`.
fn cxr_letters(name: &str) -> Option<Vec<u8>> {
    let bytes = name.as_bytes();
    if bytes.len() < 4 || bytes[0] != b'c' || bytes[bytes.len() - 1] != b'r' {
        return None;
    }
    let mid = &bytes[1..bytes.len() - 1];
    if mid.len() < 2 || !mid.iter().all(|&b| b == b'a' || b == b'd') {
        return None;
    }
    Some(mid.to_vec())
}

/// Every name `builtin_signature` recognizes. The interpreter interns
/// these once at construction so funcall-by-symbol and `#'name`
/// resolve builtins by pre-computed [`crate::value::SymId`] instead of
/// a per-call string comparison chain.
pub const BUILTIN_NAMES: &[&str] = &[
    "car",
    "cdr",
    "cons",
    "rplaca",
    "rplacd",
    "+",
    "-",
    "*",
    "/",
    "mod",
    "<",
    ">",
    "<=",
    ">=",
    "=",
    "/=",
    "min",
    "max",
    "abs",
    "1+",
    "1-",
    "eq",
    "eql",
    "equal",
    "atom",
    "consp",
    "symbolp",
    "numberp",
    "stringp",
    "functionp",
    "list",
    "append",
    "reverse",
    "length",
    "nth",
    "nthcdr",
    "assoc",
    "member",
    "last",
    "copy-list",
    "print",
    "princ",
    "terpri",
    "error",
    "make-hash-table",
    "gethash",
    "puthash",
    "remhash",
    "hash-table-count",
    "make-vector",
    "aref",
    "aset",
    "vector-length",
    "funcall",
    "apply",
    "mapcar",
    "identity",
    "gensym",
    "random",
    "atomic-incf",
    "touch",
];

/// Name, minimum arity, maximum arity for plain builtins.
pub fn builtin_signature(name: &str) -> Option<(BuiltinOp, usize, usize)> {
    use BuiltinOp::*;
    const MANY: usize = usize::MAX;
    Some(match name {
        "car" => (Car, 1, 1),
        "cdr" => (Cdr, 1, 1),
        "cons" => (Cons, 2, 2),
        "rplaca" => (SetCar, 2, 2),
        "rplacd" => (SetCdr, 2, 2),
        "+" => (Add, 0, MANY),
        "-" => (Sub, 1, MANY),
        "*" => (Mul, 0, MANY),
        "/" => (Div, 1, MANY),
        "mod" => (Mod, 2, 2),
        "<" => (Lt, 2, MANY),
        ">" => (Gt, 2, MANY),
        "<=" => (Le, 2, MANY),
        ">=" => (Ge, 2, MANY),
        "=" => (NumEq, 2, MANY),
        "/=" => (NumNe, 2, MANY),
        "min" => (Min, 1, MANY),
        "max" => (Max, 1, MANY),
        "abs" => (Abs, 1, 1),
        "1+" => (Add1, 1, 1),
        "1-" => (Sub1, 1, 1),
        "eq" => (Eq, 2, 2),
        "eql" => (Eql, 2, 2),
        "equal" => (Equal, 2, 2),
        "atom" => (Atom, 1, 1),
        "consp" => (Consp, 1, 1),
        "symbolp" => (Symbolp, 1, 1),
        "numberp" => (Numberp, 1, 1),
        "stringp" => (Stringp, 1, 1),
        "functionp" => (Functionp, 1, 1),
        "list" => (List, 0, MANY),
        "append" => (Append, 0, MANY),
        "reverse" => (Reverse, 1, 1),
        "length" => (Length, 1, 1),
        "nth" => (Nth, 2, 2),
        "nthcdr" => (Nthcdr, 2, 2),
        "assoc" => (Assoc, 2, 2),
        "member" => (Member, 2, 2),
        "last" => (Last, 1, 1),
        "copy-list" => (CopyList, 1, 1),
        "print" => (Print, 1, 1),
        "princ" => (Princ, 1, 1),
        "terpri" => (Terpri, 0, 0),
        "error" => (ErrorOp, 1, MANY),
        "make-hash-table" => (MakeHash, 0, 0),
        "gethash" => (Gethash, 2, 2),
        "puthash" => (Puthash, 3, 3),
        "remhash" => (Remhash, 2, 2),
        "hash-table-count" => (HashCount, 1, 1),
        "make-vector" => (MakeVector, 2, 2),
        "aref" => (Aref, 2, 2),
        "aset" => (Aset, 3, 3),
        "vector-length" => (VectorLength, 1, 1),
        "funcall" => (Funcall, 1, MANY),
        "apply" => (Apply, 2, MANY),
        "mapcar" => (Mapcar, 2, 2),
        "identity" => (Identity, 1, 1),
        "gensym" => (Gensym, 0, 0),
        "random" => (Random, 1, 1),
        "atomic-incf" => (AtomicIncfGlobal, 2, 2),
        "touch" => (Touch, 1, 1),
        _ => return None,
    })
}

/// True for builtins the compiler may evaluate at compile time, with
/// `builtins::apply_builtin`, over integer-literal arguments: pure (no heap allocation, no
/// I/O, no interpreter state) and closed over the integers. `/` and
/// `mod` are deliberately absent — their division-by-zero errors must
/// surface at run time — as is everything touching conses, strings,
/// hashes, vectors, randomness, or futures.
pub fn builtin_foldable(op: BuiltinOp) -> bool {
    use BuiltinOp::*;
    matches!(
        op,
        Add | Sub
            | Mul
            | Min
            | Max
            | Abs
            | Add1
            | Sub1
            | Lt
            | Gt
            | Le
            | Ge
            | NumEq
            | NumNe
            | Eq
            | Eql
            | Equal
            | Null
            | Atom
            | Consp
            | Symbolp
            | Numberp
            | Stringp
            | Functionp
    )
}

/// Parse the field operand of `cri-lock`: `'car`, `'cdr`, or a struct
/// field index `k` (encoding `2 + k`).
fn field_code(d: &Sexpr) -> Result<u32> {
    if let Some(i) = d.as_int() {
        if i < 0 {
            return Err(syntax("lock field index must be non-negative"));
        }
        return Ok(2 + i as u32);
    }
    let inner = match d.call_args("quote") {
        Some([q]) => q,
        _ => d,
    };
    match inner.as_symbol() {
        Some("car") => Ok(0),
        Some("cdr") => Ok(1),
        _ => Err(syntax("lock field must be 'car, 'cdr, or a field index")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::{parse_all, parse_one};

    fn lower1(src: &str) -> (Heap, Expr) {
        let heap = Heap::new();
        let e = {
            let mut lw = Lowerer::new(&heap);
            lw.lower_expr(&parse_one(src).unwrap()).unwrap()
        };
        (heap, e)
    }

    #[test]
    fn atoms_lower() {
        assert!(matches!(lower1("5").1, Expr::Int(5)));
        assert!(matches!(lower1("nil").1, Expr::Nil));
        assert!(matches!(lower1("t").1, Expr::T));
        assert!(matches!(lower1("\"s\"").1, Expr::Str(_)));
        assert!(matches!(lower1("foo").1, Expr::Var(VarRef::Global(_), _)));
    }

    #[test]
    fn builtins_lower_with_arity_checks() {
        assert!(matches!(lower1("(car x)").1, Expr::Builtin(BuiltinOp::Car, _)));
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let err = lw.lower_expr(&parse_one("(car x y)").unwrap()).unwrap_err();
        assert!(matches!(err, LispError::Arity { .. }));
    }

    #[test]
    fn cxr_expansion() {
        let (_, e) = lower1("(cadr x)");
        // (car (cdr x))
        let Expr::Builtin(BuiltinOp::Car, args) = e else { panic!("{e:?}") };
        assert!(matches!(&args[0], Expr::Builtin(BuiltinOp::Cdr, _)));
        // cddr, caddr
        let (_, e) = lower1("(cdddr x)");
        let mut depth = 0;
        let mut cur = &e;
        while let Expr::Builtin(BuiltinOp::Cdr, args) = cur {
            depth += 1;
            cur = &args[0];
        }
        assert_eq!(depth, 3);
    }

    #[test]
    fn cond_desugars_to_ifs() {
        let (_, e) = lower1("(cond ((null l) nil) (t (f l)))");
        let Expr::If(c, _, els) = e else { panic!("{e:?}") };
        assert!(matches!(*c, Expr::Builtin(BuiltinOp::Null, _)));
        let Expr::If(c2, _, _) = *els else { panic!() };
        assert!(matches!(*c2, Expr::T));
    }

    #[test]
    fn cond_single_element_clause_uses_or() {
        let (_, e) = lower1("(cond (x) (t 2))");
        assert!(matches!(e, Expr::Or(_)));
    }

    #[test]
    fn let_binds_slots() {
        let (_, e) = lower1("(let ((x 1) (y 2)) (+ x y))");
        let Expr::Let { bindings, body, sequential } = e else { panic!("{e:?}") };
        assert!(!sequential);
        assert_eq!(bindings.len(), 2);
        assert_eq!(bindings[0].0, 0);
        assert_eq!(bindings[1].0, 1);
        let Expr::Builtin(BuiltinOp::Add, args) = &body[0] else { panic!() };
        assert!(matches!(args[0], Expr::Var(VarRef::Local(0), _)));
        assert!(matches!(args[1], Expr::Var(VarRef::Local(1), _)));
    }

    #[test]
    fn let_inits_do_not_see_siblings_but_let_star_does() {
        // In plain let, x in y's init is the *global* x.
        let (_, e) = lower1("(let ((x 1) (y x)) y)");
        let Expr::Let { bindings, .. } = e else { panic!() };
        assert!(matches!(bindings[1].2, Expr::Var(VarRef::Global(_), _)));

        let (_, e) = lower1("(let* ((x 1) (y x)) y)");
        let Expr::Let { bindings, .. } = e else { panic!() };
        assert!(matches!(bindings[1].2, Expr::Var(VarRef::Local(0), _)));
    }

    #[test]
    fn setf_car_place() {
        let (_, e) = lower1("(setf (car x) 5)");
        assert!(matches!(e, Expr::Builtin(BuiltinOp::SetCar, _)));
        let (_, e) = lower1("(setf (cadr x) 5)");
        let Expr::Builtin(BuiltinOp::SetCar, args) = e else { panic!("{e:?}") };
        assert!(matches!(&args[0], Expr::Builtin(BuiltinOp::Cdr, _)));
    }

    #[test]
    fn setf_variable_is_setq() {
        let (_, e) = lower1("(setf x 5)");
        assert!(matches!(e, Expr::Setq(VarRef::Global(_), _, _)));
    }

    #[test]
    fn setf_gethash_becomes_puthash() {
        let (_, e) = lower1("(setf (gethash k h) v)");
        assert!(matches!(e, Expr::Builtin(BuiltinOp::Puthash, _)));
    }

    #[test]
    fn defun_lowers_params_to_slots() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all("(defun f (l) (when l (print (car l)) (f (cdr l))))").unwrap(),
            )
            .unwrap();
        assert_eq!(prog.funcs.len(), 1);
        let f = &prog.funcs[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params, ["l"]);
        assert_eq!(f.nslots, 1);
        assert!(f.body.iter().any(|e| e.calls(f.name_sym)));
    }

    #[test]
    fn defun_collects_declares() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all("(defun f (l) (declare (curare (no-alias l))) (car l))").unwrap(),
            )
            .unwrap();
        assert_eq!(prog.funcs[0].declarations.len(), 1);
    }

    #[test]
    fn defstruct_generates_ops() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all(
                    "(defstruct node left right value)
                     (defun mk () (make-node nil nil 3))
                     (defun get-v (n) (node-value n))
                     (defun set-v (n x) (setf (node-value n) x))
                     (defun is-node (n) (node-p n))",
                )
                .unwrap(),
            )
            .unwrap();
        let mk = &prog.funcs[0].body[0];
        assert!(matches!(mk, Expr::Struct(StructOp::Make { nfields: 3, .. }, _)));
        let get = &prog.funcs[1].body[0];
        assert!(matches!(get, Expr::Struct(StructOp::Ref { field: 2, .. }, _)));
        let set = &prog.funcs[2].body[0];
        assert!(matches!(set, Expr::Struct(StructOp::Set { field: 2, .. }, _)));
        let pred = &prog.funcs[3].body[0];
        assert!(matches!(pred, Expr::Struct(StructOp::Pred { .. }, _)));
    }

    #[test]
    fn dolist_desugars() {
        let (_, e) = lower1("(dolist (x l) (print x))");
        // It should be a Let wrapping a While.
        let Expr::Let { body, .. } = e else { panic!("{e:?}") };
        assert!(matches!(&body[0], Expr::While(..)));
    }

    #[test]
    fn dotimes_desugars() {
        let (_, e) = lower1("(dotimes (i 10) (print i))");
        let Expr::Let { body, .. } = e else { panic!("{e:?}") };
        assert!(matches!(&body[0], Expr::While(..)));
    }

    #[test]
    fn push_pop_incf() {
        let (_, e) = lower1("(push 1 stack)");
        assert!(matches!(e, Expr::Setq(..)));
        let (_, e) = lower1("(pop stack)");
        assert!(matches!(e, Expr::Let { .. }));
        let (_, e) = lower1("(incf x 2)");
        assert!(matches!(e, Expr::Setq(..)));
        let (_, e) = lower1("(incf (car c))");
        assert!(matches!(e, Expr::Builtin(BuiltinOp::SetCar, _)));
    }

    #[test]
    fn lambda_captures_enclosing_local() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(&parse_all("(defun adder (n) (lambda (x) (+ x n)))").unwrap())
            .unwrap();
        let Expr::Lambda { func, captures } = &prog.funcs[0].body[0] else {
            panic!("{:?}", prog.funcs[0].body[0]);
        };
        assert_eq!(captures, &vec![0usize], "captures slot of n");
        assert_eq!(func.ncaptures, 1);
        // In the lambda frame: capture n at slot 0, param x at slot 1.
        let Expr::Builtin(BuiltinOp::Add, args) = &func.body[0] else { panic!() };
        assert!(matches!(args[0], Expr::Var(VarRef::Local(1), _)), "{:?}", args[0]);
        assert!(matches!(args[1], Expr::Var(VarRef::Local(0), _)), "{:?}", args[1]);
    }

    #[test]
    fn cri_forms_lower() {
        let (_, e) = lower1("(cri-enqueue 0 f (cdr l))");
        assert!(matches!(e, Expr::Enqueue { site: 0, handoff: false, .. }));
        let (_, e) = lower1("(cri-handoff 1 f (cdr l))");
        assert!(matches!(e, Expr::Enqueue { site: 1, handoff: true, .. }));
        let (_, e) = lower1("(cri-lock (cdr l) 'car)");
        assert!(matches!(e, Expr::LockOp { lock: true, field: 0, exclusive: true, .. }));
        let (_, e) = lower1("(cri-unlock l 'cdr)");
        assert!(matches!(e, Expr::LockOp { lock: false, field: 1, .. }));
        let (_, e) = lower1("(cri-lock-read l 'car)");
        assert!(matches!(e, Expr::LockOp { lock: true, exclusive: false, .. }));
    }

    #[test]
    fn future_lowers() {
        let (_, e) = lower1("(future (f (cdr l)))");
        assert!(matches!(e, Expr::Future { .. }));
    }

    #[test]
    fn function_ref() {
        let (_, e) = lower1("(function f)");
        assert!(matches!(e, Expr::FuncRef(..)));
    }

    #[test]
    fn toplevel_defparameter() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all("(defparameter *sum* 0)").unwrap()).unwrap();
        assert_eq!(prog.toplevel.len(), 1);
        assert!(matches!(prog.toplevel[0], Expr::Setq(VarRef::Global(_), _, _)));
    }

    #[test]
    fn toplevel_curare_declare_collected() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog =
            lw.lower_program(&parse_all("(curare-declare (inverse succ pred))").unwrap()).unwrap();
        assert_eq!(prog.declarations.len(), 1);
    }

    #[test]
    fn errors_on_bad_shapes() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        for src in [
            "(defun)",
            "(defun f x)",
            "(let x 1)",
            "(setq 1 2)",
            "(setf (frobnicate x) 1)",
            "(1 2 3)",
            "(quote)",
            "(if)",
        ] {
            let forms = parse_all(src).unwrap();
            assert!(lw.lower_program(&forms).is_err(), "should fail: {src}");
        }
    }

    #[test]
    fn field_codes() {
        assert_eq!(field_code(&parse_one("'car").unwrap()).unwrap(), 0);
        assert_eq!(field_code(&parse_one("'cdr").unwrap()).unwrap(), 1);
        assert_eq!(field_code(&parse_one("2").unwrap()).unwrap(), 4);
        assert!(field_code(&parse_one("'bogus").unwrap()).is_err());
    }
}
