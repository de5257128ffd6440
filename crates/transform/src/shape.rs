//! Statement shapes: the one place this crate spells a control keyword.
//!
//! Every device asks the same question of a function body — where does
//! this form sit relative to the function's value and its self-calls —
//! and this module answers it once. It has four parts:
//!
//! - [`classify`] reads a form as *inert* (an atom, `()`, quoted data),
//!   a *self-call*, an ordinary *call*, or a [`View`]: clauses of
//!   **guards** (evaluated for their value) and a **body** (statements),
//!   by this table ([`operands`] views a call by its last row):
//!
//!   | keyword | class | guards | body | repeats | inherits |
//!   |---|---|---|---|---|---|
//!   | `progn` | sequence | — | every form | no | last statement |
//!   | `when` `unless` | sequence | the test | the rest | no | last statement |
//!   | `let` `let*` | sequence | binding initialisers | the rest | no | last statement |
//!   | `while` | sequence | the test | the rest | **yes** | nothing |
//!   | `cond` | cond | each clause's test | each clause's rest | no | each clause's last |
//!   | `if` | if | the test | each arm, alone | no | every arm |
//!   | `and` `or` | chain | all but the last | the last operand | no | the last operand |
//!   | anything else | call | every operand | — | no | nothing |
//!
//!   `dolist`, `dotimes`, `future` and `lambda` are ordinary calls, as
//!   every device has always treated them: admitting a loop form is one
//!   row here. A guard whose value can become the form's own — an `or`
//!   operand, the test of a `cond` clause with no body — is marked
//!   `yields`.
//! - The rebuilder is private to [`walk`]: a view is reassembled from
//!   its rewritten guards and bodies with the text it had — unless the
//!   device only looks ([`Device::REBUILDS`]), when nothing is.
//! - [`walk`] threads a [`Pos`] through a body once and calls a
//!   [`Device`] at self-calls, leaves, guards and statement sequences.
//!   In a repeating sequence that mentions a self-call, every statement
//!   and the guard both follow a spawn and have work after them.
//! - [`lowered_nodes`] reads a body beside its lowering and pairs every
//!   form a walk can show a device with the node the lowerer made of it,
//!   so a device's question about a statement is answered from the
//!   lowered program instead of by lowering the statement again.
//!
//! Named exceptions: `fold::recognize` is a two-arm pattern match on one
//! expression, not a traversal, and `reorder::Pass` scopes *binders*
//! (`defun`, `lambda`, `dolist` too), not control.

use curare_lisp::ast::{BuiltinOp, Expr, StructOp};
use curare_lisp::lower::builtin_signature;
use curare_sexpr::Sexpr;

use crate::sx;

/// Where a form sits in its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// The form's value is the function's. On a guard: its value *may*
    /// be (a `yields` guard under a tail form) — it is still consumed.
    pub tail: bool,
    /// The form's value is ignored.
    pub discarded: bool,
    /// Work executes after the form within this invocation (trailing
    /// inert statements are not work).
    pub follows: bool,
    /// A self-call may have executed before the form within this
    /// invocation.
    pub spawned: bool,
}

impl Pos {
    /// Where a function body ends.
    pub const BODY: Pos = Pos { tail: true, discarded: false, follows: false, spawned: false };

    /// The position of a form evaluated here for its value.
    pub fn value(self) -> Pos {
        Pos { tail: false, discarded: false, follows: true, spawned: self.spawned }
    }

    /// Is the form's value consumed (neither the function's nor ignored)?
    pub fn is_value(self) -> bool {
        !(self.tail || self.discarded)
    }
}

/// The classes of the table above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `progn`, `when`, `unless`, `let`, `let*`, `while`.
    Sequence,
    /// `cond`.
    Cond,
    /// `if`.
    If,
    /// `and`, `or`.
    Chain,
    /// An ordinary call, as [`operands`] views it.
    Call,
}

/// Guards, then a body.
#[derive(Debug)]
pub struct Clause<'a> {
    /// Where the guards are: the forms themselves, or (`binds`) the
    /// bindings whose initialisers they are.
    guarded: &'a [Sexpr],
    binds: bool,
    /// Statements; the last inherits the form's position unless the
    /// view repeats.
    pub body: &'a [Sexpr],
    /// A guard's value can be the value of the whole form.
    pub yields: bool,
}

impl<'a> Clause<'a> {
    /// Forms evaluated for their value before the body.
    pub fn guards(&self) -> impl Iterator<Item = &'a Sexpr> + '_ {
        self.guarded.iter().filter_map(|g| match g.as_list() {
            _ if !self.binds => Some(g),
            Some([_, init]) => Some(init),
            _ => None,
        })
    }
}

/// A borrowed reading of one control form or call.
#[derive(Debug)]
pub struct View<'a> {
    /// Which row of the table.
    pub class: Class,
    /// One clause, or one per `cond` clause / `if` arm.
    pub clauses: Vec<Clause<'a>>,
    /// The body runs again after its last statement.
    pub repeats: bool,
    items: &'a [Sexpr],
}

/// What [`classify`] makes of a form.
#[derive(Debug)]
pub enum Shape<'a> {
    /// An atom, `()`, dotted or quoted data: touches no heap location.
    Inert,
    /// A call of the function being restructured.
    SelfCall,
    /// An ordinary call: a statement a device may treat as one unit.
    Call,
    /// A control form.
    Form(View<'a>),
}

/// Atoms, empty lists and quoted data.
pub fn inert(form: &Sexpr) -> bool {
    match form {
        Sexpr::List(items) => items.first().is_none_or(|h| h.is_symbol("quote")),
        _ => true,
    }
}

fn clause<'a>(guarded: &'a [Sexpr], body: &'a [Sexpr]) -> Clause<'a> {
    Clause { guarded, binds: false, body, yields: false }
}

fn call_view(items: &[Sexpr]) -> View<'_> {
    View { class: Class::Call, clauses: vec![clause(&items[1..], &[])], repeats: false, items }
}

/// Read `form` by the table; `fname` is the function being restructured.
/// A malformed special form reads as an ordinary call.
pub fn classify<'a>(form: &'a Sexpr, fname: &str) -> Shape<'a> {
    let Some(items) = form.as_list().filter(|_| !inert(form)) else { return Shape::Inert };
    let (head, args) = (items[0].as_symbol().unwrap_or_default(), &items[1..]);
    if head == fname {
        return Shape::SelfCall;
    }
    let (class, clauses) = match (head, args) {
        ("progn", _) => (Class::Sequence, vec![clause(&[], args)]),
        ("when" | "unless" | "while", [_, body @ ..]) => {
            (Class::Sequence, vec![clause(&args[..1], body)])
        }
        ("let" | "let*", [Sexpr::List(bindings), body @ ..]) => {
            (Class::Sequence, vec![Clause { binds: true, ..clause(bindings, body) }])
        }
        ("cond", _) if args.iter().all(|c| c.as_list().is_some_and(|c| !c.is_empty())) => {
            let clauses = args.iter().filter_map(Sexpr::as_list);
            let clauses =
                clauses.map(|c| Clause { yields: c.len() == 1, ..clause(&c[..1], &c[1..]) });
            (Class::Cond, clauses.collect())
        }
        ("if", [_, arms @ ..]) => {
            // The test guards the first arm; every arm is a body alone.
            let first = clause(&args[..1], &arms[..arms.len().min(1)]);
            let rest = arms.iter().skip(1).map(|a| clause(&[], std::slice::from_ref(a)));
            (Class::If, std::iter::once(first).chain(rest).collect())
        }
        ("and" | "or", [guards @ .., _]) => {
            let last = &args[guards.len()..];
            (Class::Chain, vec![Clause { yields: head == "or", ..clause(guards, last) }])
        }
        _ => return Shape::Call,
    };
    Shape::Form(View { class, clauses, repeats: head == "while", items })
}

/// `(progn forms...)`, collapsing a single form to itself.
pub fn progn(mut forms: Vec<Sexpr>) -> Sexpr {
    if forms.len() == 1 {
        forms.pop().expect("len checked")
    } else {
        sx::call("progn", forms)
    }
}

/// `(let ((name init)...) body...)`; `let*` when `sequential`.
pub fn let_form(sequential: bool, bindings: Vec<(String, Sexpr)>, body: Vec<Sexpr>) -> Sexpr {
    let bindings = bindings.into_iter().map(|(n, init)| Sexpr::List(vec![sx::sym(n), init]));
    let mut items = vec![Sexpr::List(bindings.collect())];
    items.extend(body);
    sx::call(if sequential { "let*" } else { "let" }, items)
}

/// `(while test body...)`.
pub fn while_form(test: Sexpr, body: Vec<Sexpr>) -> Sexpr {
    let mut items = vec![test];
    items.extend(body);
    sx::call("while", items)
}

/// What a pass does at the nodes it cares about; [`walk`] owns the rest.
/// Every default descends and rebuilds the form unchanged — into a guard
/// only as far as it mentions the function: a position matters to a
/// default at a self-call and nowhere else. `'a` is the body's: a device
/// may keep the forms it is shown.
pub trait Device<'a>: Sized {
    /// False for a device that only looks: [`walk`] visits every node as
    /// usual but copies and reassembles nothing, and the forms it and the
    /// defaults return are placeholders (`()`).
    const REBUILDS: bool = true;

    /// The function being restructured.
    fn fname(&self) -> &str;

    /// A self-call at `pos`. Default: its arguments are guards.
    fn self_call(&mut self, call: &'a Sexpr, pos: Pos) -> Sexpr {
        operands(self, call, pos)
    }

    /// An inert form or ordinary call in statement position. Default:
    /// its operands are guards.
    fn leaf(&mut self, form: &'a Sexpr, pos: Pos) -> Sexpr {
        operands(self, form, pos)
    }

    /// A guard; `pos` is a value position (but see [`Pos::tail`]).
    fn guard(&mut self, form: &'a Sexpr, pos: Pos) -> Sexpr {
        if sx::mentions_call(form, self.fname()) {
            walk(self, form, Pos { tail: false, ..pos })
        } else {
            kept::<Self>(form)
        }
    }

    /// The statements of one body, each with its position; `repeats`
    /// as in the table. An `if` arm and a chain's last operand arrive
    /// alone and must come back as one form.
    fn sequence(&mut self, stmts: &[(&'a Sexpr, Pos)], _repeats: bool) -> Vec<Sexpr> {
        walk_each(self, stmts)
    }
}

/// `form` as a device that leaves it alone returns it.
fn kept<'a, D: Device<'a>>(form: &Sexpr) -> Sexpr {
    if D::REBUILDS {
        form.clone()
    } else {
        Sexpr::nil()
    }
}

/// Rewrite `form`, which sits at `pos`, through `d`.
pub fn walk<'a, D: Device<'a>>(d: &mut D, form: &'a Sexpr, pos: Pos) -> Sexpr {
    match classify(form, d.fname()) {
        Shape::SelfCall => d.self_call(form, pos),
        Shape::Form(view) => descend(d, &view, pos),
        Shape::Inert | Shape::Call => d.leaf(form, pos),
    }
}

/// [`walk`] over statements that already have their positions.
pub fn walk_each<'a, D: Device<'a>>(d: &mut D, stmts: &[(&'a Sexpr, Pos)]) -> Vec<Sexpr> {
    stmts.iter().map(|&(s, pos)| walk(d, s, pos)).collect()
}

/// Rewrite a function body: a sequence that ends at [`Pos::BODY`].
pub fn walk_body<'a, D: Device<'a>>(d: &mut D, body: &[&'a Sexpr]) -> Vec<Sexpr> {
    let stmts = positions(body.iter().copied(), Pos::BODY, d.fname());
    d.sequence(&stmts, false)
}

/// Rebuild a call (or self-call) with every operand visited as a guard;
/// anything inert comes back as it is.
pub fn operands<'a, D: Device<'a>>(d: &mut D, form: &'a Sexpr, pos: Pos) -> Sexpr {
    match form.as_list() {
        Some(items) if !inert(form) => descend(d, &call_view(items), pos),
        _ => kept::<D>(form),
    }
}

/// The position of each statement of a body whose last statement sits
/// at `end`.
fn positions<'a>(
    body: impl DoubleEndedIterator<Item = &'a Sexpr> + ExactSizeIterator + Clone,
    end: Pos,
    fname: &str,
) -> Vec<(&'a Sexpr, Pos)> {
    let (count, last_work) = (body.len(), body.clone().rposition(|s| !inert(s)));
    let mut spawned = end.spawned;
    let at = |(i, s): (usize, &'a Sexpr)| {
        let last = i + 1 == count;
        let follows = end.follows || last_work.is_some_and(|w| w > i);
        let pos =
            Pos { tail: last && end.tail, discarded: !last || end.discarded, follows, spawned };
        spawned = spawned || sx::mentions_call(s, fname);
        (s, pos)
    };
    body.enumerate().map(at).collect()
}

/// Visit the guards and bodies of `view` and reassemble it (into `()`
/// for a device that only looks).
fn descend<'a, D: Device<'a>>(d: &mut D, view: &View<'a>, pos: Pos) -> Sexpr {
    let looped = view.repeats && view.items.iter().any(|i| sx::mentions_call(i, d.fname()));
    let mut end = Pos { follows: pos.follows || looped, spawned: pos.spawned || looped, ..pos };
    if view.repeats {
        (end.tail, end.discarded) = (false, true);
    }
    let mut out = if D::REBUILDS { vec![view.items[0].clone()] } else { Vec::new() };
    for clause in &view.clauses {
        let at_guard = Pos { tail: clause.yields && end.tail, ..end.value() };
        let guards: Vec<Sexpr> = clause.guards().map(|g| d.guard(g, at_guard)).collect();
        let stmts = positions(clause.body.iter(), end, d.fname());
        let body = d.sequence(&stmts, view.repeats);
        if !D::REBUILDS {
            continue;
        }
        let mut part = if clause.binds { vec![rebind(clause.guarded, guards)] } else { guards };
        part.extend(body);
        if view.class == Class::Cond {
            out.push(Sexpr::List(part));
        } else {
            out.extend(part);
        }
    }
    Sexpr::List(out)
}

/// Pair each form of a defun's `body` (as [`sx::parse_defun`] splits
/// it) with its node in `lowered`, the body `Lowerer` made of it:
/// `visit(form, node)` for every statement, guard and call operand the
/// lowering kept as a node of its own, mirroring its desugaring —
/// `when` is an `if` over a `progn`, `cond` a chain of `if`s (a clause
/// with no body an `or`), `dolist` a `let` around a `while`, a `setf`
/// of a variable, `car`/`cdr` or struct field stores its value operand,
/// a call of a defun or builtin keeps its operands. The operands of any
/// other form are not paired: a question about one of them is answered
/// by lowering it.
pub fn lowered_nodes<'s, 'e>(
    body: &[&'s Sexpr],
    lowered: &'e [Expr],
    visit: &mut impl FnMut(&'s Sexpr, &'e Expr),
) {
    if body.len() == lowered.len() {
        body.iter().zip(lowered).for_each(|(&s, e)| pair(s, e, visit));
    }
}

/// [`pair`] the forms and nodes of two sequences of one length.
fn pairs<'s, 'e>(
    forms: &'s [Sexpr],
    nodes: &'e [Expr],
    visit: &mut impl FnMut(&'s Sexpr, &'e Expr),
) {
    if forms.len() == nodes.len() {
        forms.iter().zip(nodes).for_each(|(s, e)| pair(s, e, visit));
    }
}

/// `visit` `form` and `node`, then what the lowerer kept of its parts.
fn pair<'s, 'e>(form: &'s Sexpr, node: &'e Expr, visit: &mut impl FnMut(&'s Sexpr, &'e Expr)) {
    visit(form, node);
    let Some(items) = form.as_list().filter(|_| !inert(form)) else { return };
    let Some(head) = items[0].symbol() else { return };
    let args = &items[1..];
    match (head.as_str(), args, node) {
        ("progn", _, Expr::Progn(es)) | ("and", _, Expr::And(es)) | ("or", _, Expr::Or(es)) => {
            pairs(args, es, visit)
        }
        ("when", [test, body @ ..], Expr::If(t, then, otherwise)) => {
            if let (Expr::Progn(es), Expr::Nil) = (&**then, &**otherwise) {
                pair(test, t, visit);
                pairs(body, es, visit);
            }
        }
        ("unless", [test, body @ ..], Expr::If(t, then, otherwise)) => {
            if let (Expr::Nil, Expr::Progn(es)) = (&**then, &**otherwise) {
                pair(test, t, visit);
                pairs(body, es, visit);
            }
        }
        ("while", [test, body @ ..], Expr::While(t, es)) => {
            pair(test, t, visit);
            pairs(body, es, visit);
        }
        (
            "let" | "let*",
            [Sexpr::List(bindings), body @ ..],
            Expr::Let { bindings: lb, body: es, .. },
        ) if bindings.len() == lb.len() => {
            for (b, (_, _, init)) in bindings.iter().zip(lb) {
                if let Some([_, form]) = b.as_list() {
                    pair(form, init, visit);
                }
            }
            pairs(body, es, visit);
        }
        // A counting loop: `(let ((%tmp list-or-count) (var init)) (while
        // test [step-in] body... step))`.
        (
            loop_head @ ("dolist" | "dotimes"),
            [spec, body @ ..],
            Expr::Let { bindings, body: b, .. },
        ) => {
            let (Some([_, over]), [(_, _, over_node), _], [Expr::While(_, steps)]) =
                (spec.as_list(), &bindings[..], &b[..])
            else {
                return;
            };
            pair(over, over_node, visit);
            let from = usize::from(loop_head == "dolist");
            if steps.len() == body.len() + from + 1 {
                pairs(body, &steps[from..steps.len() - 1], visit);
            }
        }
        ("if", [test, then, rest @ ..], Expr::If(t, th, otherwise)) if rest.len() <= 1 => {
            pair(test, t, visit);
            pair(then, th, visit);
            if let [otherwise_form] = rest {
                pair(otherwise_form, otherwise, visit);
            }
        }
        ("cond", clauses, _) => cond_nodes(clauses, node, visit),
        ("setf", [place, value], _) => {
            let stored = match node {
                Expr::Setq(_, _, v) if place.symbol().is_some() => Some(&**v),
                Expr::Builtin(BuiltinOp::SetCar | BuiltinOp::SetCdr, a)
                | Expr::Struct(StructOp::Set { .. }, a) => a.get(1),
                _ => None,
            };
            if let Some(v) = stored {
                pair(value, v, visit);
            }
        }
        (_, _, Expr::Call { name_text, args: es, .. }) if *name_text == head => {
            pairs(args, es, visit)
        }
        (name, _, Expr::Builtin(op, es)) => {
            let direct = match name {
                "not" | "null" => *op == BuiltinOp::Null,
                _ => builtin_signature(name).is_some_and(|(sig, ..)| sig == *op),
            };
            if direct {
                pairs(args, es, visit);
            }
        }
        _ => {}
    }
}

/// The `cond` clauses `clauses`, lowered to `node`: each clause an `if`
/// of its test over a `progn` of its body, the rest its else arm — or,
/// with no body, an `or` of its test and the rest.
fn cond_nodes<'s, 'e>(
    clauses: &'s [Sexpr],
    node: &'e Expr,
    visit: &mut impl FnMut(&'s Sexpr, &'e Expr),
) {
    let Some((first, rest)) = clauses.split_first() else { return };
    let Some([test, body @ ..]) = first.as_list() else { return };
    match node {
        Expr::Or(es) if body.is_empty() => {
            if let [t, otherwise] = &es[..] {
                pair(test, t, visit);
                cond_nodes(rest, otherwise, visit);
            }
        }
        Expr::If(t, then, otherwise) if !body.is_empty() => {
            let Expr::Progn(es) = &**then else { return };
            pair(test, t, visit);
            pairs(body, es, visit);
            cond_nodes(rest, otherwise, visit);
        }
        _ => {}
    }
}

/// The binding list `bindings` with its initialisers replaced in order.
fn rebind(bindings: &[Sexpr], inits: Vec<Sexpr>) -> Sexpr {
    let mut inits = inits.into_iter();
    let rebound = bindings.iter().map(|b| match b.as_list() {
        Some([name, _]) => Sexpr::List(vec![name.clone(), inits.next().expect("one per pair")]),
        _ => b.clone(),
    });
    Sexpr::List(rebound.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    /// Records what the driver says of every guard and leaf.
    #[derive(Default)]
    struct Recorder {
        guards: Vec<(String, Pos)>,
        leaves: Vec<(String, Pos)>,
    }

    impl Device<'_> for Recorder {
        fn fname(&self) -> &str {
            "f"
        }
        fn guard(&mut self, form: &Sexpr, pos: Pos) -> Sexpr {
            self.guards.push((form.to_string(), pos));
            form.clone()
        }
        fn leaf(&mut self, form: &Sexpr, pos: Pos) -> Sexpr {
            self.leaves.push((form.to_string(), pos));
            form.clone()
        }
    }

    fn words(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    /// The table of the module doc, a row per keyword: source, class,
    /// guards, body, repeats, which statements inherit the form's
    /// position, which guards may yield its value.
    #[test]
    fn every_keyword_reads_by_the_table() {
        use Class::*;
        let rows: [(&str, Class, &str, &str, bool, &str, &str); 13] = [
            ("(progn a b c)", Sequence, "", "a b c", false, "c", ""),
            ("(when g a b)", Sequence, "g", "a b", false, "b", ""),
            ("(unless g a b)", Sequence, "g", "a b", false, "b", ""),
            ("(let ((x g1) (y g2) z) a b)", Sequence, "g1 g2", "a b", false, "b", ""),
            ("(let* ((x g1)) a b)", Sequence, "g1", "a b", false, "b", ""),
            ("(while g a b)", Sequence, "g", "a b", true, "", ""),
            ("(cond (g1 a b) (g2 c) (g3))", Cond, "g1 g2 g3", "a b c", false, "b c", "g3"),
            ("(if g a b)", If, "g", "a b", false, "a b", ""),
            ("(if g a)", If, "g", "a", false, "a", ""),
            ("(and g1 g2 a)", Chain, "g1 g2", "a", false, "a", ""),
            ("(or g1 g2 a)", Chain, "g1 g2", "a", false, "a", "g1 g2"),
            ("(list g1 g2)", Call, "g1 g2", "", false, "", ""),
            ("(dotimes g1 g2)", Call, "g1 g2", "", false, "", ""),
        ];
        for (src, class, guards, body, repeats, inherits, yields) in rows {
            let form = parse_one(src).unwrap();
            match classify(&form, "f") {
                Shape::Call => assert_eq!(class, Call, "{src}"),
                Shape::Form(view) => {
                    assert_eq!(view.class, class, "{src}");
                    assert_eq!(view.repeats, repeats, "{src}");
                    let seen: Vec<_> = view.clauses.iter().flat_map(|c| c.body).collect();
                    assert_eq!(seen.iter().map(|s| s.to_string()).collect::<Vec<_>>(), words(body));
                }
                other => panic!("{src}: {other:?}"),
            }

            let mut rec = Recorder::default();
            let rebuilt = if class == Call {
                operands(&mut rec, &form, Pos::BODY)
            } else {
                walk(&mut rec, &form, Pos::BODY)
            };
            assert_eq!(rebuilt.to_string(), src, "rebuilt as written");
            let tails = |seen: &[(String, Pos)]| {
                seen.iter().filter(|(_, p)| p.tail).map(|(t, _)| t.clone()).collect::<Vec<_>>()
            };
            let seen: Vec<_> = rec.guards.iter().map(|(g, _)| g.clone()).collect();
            assert_eq!(seen, words(guards), "{src}: guards");
            assert_eq!(tails(&rec.leaves), words(inherits), "{src}: inherits");
            assert_eq!(tails(&rec.guards), words(yields), "{src}: yields");
            assert!(rec.guards.iter().all(|(_, p)| !p.discarded && p.follows), "{src}");
            let discarded = rec.leaves.iter().filter(|(_, p)| p.discarded).count();
            let expected = words(body).len() - words(inherits).len();
            assert_eq!(discarded, expected, "{src}: every other statement is discarded");
        }
        for src in ["x", "()", "'(when a b)", "(quote x)", "(a . b)"] {
            assert!(matches!(classify(&parse_one(src).unwrap(), "f"), Shape::Inert), "{src}");
        }
        assert!(matches!(classify(&parse_one("(f (cdr l))").unwrap(), "f"), Shape::SelfCall));
        // Malformed special forms read as calls, never panic.
        for src in ["(when)", "(let)", "(let x y)", "(cond x)", "(cond ())", "(if)", "(and)"] {
            let form = parse_one(src).unwrap();
            assert!(matches!(classify(&form, "f"), Shape::Call), "{src}");
            assert_eq!(walk(&mut Recorder::default(), &form, Pos::BODY).to_string(), src);
        }
    }

    /// `follows` and `spawned` around a call, and in a body that repeats.
    #[test]
    fn work_after_a_call_and_calls_before_work() {
        struct Calls(Vec<Pos>, Vec<(String, Pos)>);
        impl Device<'_> for Calls {
            fn fname(&self) -> &str {
                "f"
            }
            fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
                self.0.push(pos);
                call.clone()
            }
            fn leaf(&mut self, form: &Sexpr, pos: Pos) -> Sexpr {
                self.1.push((form.to_string(), pos));
                form.clone()
            }
            fn guard(&mut self, form: &Sexpr, pos: Pos) -> Sexpr {
                self.leaf(form, pos)
            }
        }
        let probe = |src: &str| {
            let mut d = Calls(Vec::new(), Vec::new());
            walk(&mut d, &parse_one(src).unwrap(), Pos::BODY);
            d
        };
        let spawned = |d: &Calls| -> Vec<String> {
            d.1.iter().filter(|(_, p)| p.spawned).map(|(t, _)| t.clone()).collect()
        };
        let d = probe("(when l (a) (f (cdr l)) (b) nil)");
        assert!(d.0[0].follows && d.0[0].discarded);
        assert_eq!(spawned(&d), ["(b)", "nil"]);
        // A trailing atom is not work.
        let d = probe("(when l (a) (f (cdr l)) 'done)");
        assert!(!d.0[0].follows);
        // Nested: what follows the enclosing statement follows the call.
        let d = probe("(progn (if l (f (cdr l)) (a)) (b))");
        assert!(d.0[0].follows && d.0[0].discarded && !d.0[0].tail);
        assert_eq!(spawned(&d), ["(b)"]);
        // A body that repeats: the statement before the call follows
        // the previous iteration's, and the call has the next after it.
        let d = probe("(progn (h) (while (g) (a) (f (cdr l))))");
        assert!(d.0[0].follows && d.0[0].discarded);
        assert_eq!(spawned(&d), ["(g)", "(a)"]);
        // … but only if the loop spawns at all.
        let d = probe("(progn (while (g) (a)) (f (cdr l)))");
        assert!(!d.0[0].follows && d.0[0].tail);
        assert_eq!(spawned(&d), Vec::<String>::new());
    }

    /// Text positions agree with the lowerer's: a self-call in the slot
    /// that inherits (or is discarded) is no value-position call of the
    /// lowered function, one in a guard slot is.
    #[test]
    fn positions_agree_with_the_lowerer() {
        struct ValueCalls(usize);
        impl Device<'_> for ValueCalls {
            fn fname(&self) -> &str {
                "f"
            }
            fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
                self.0 += usize::from(pos.is_value());
                operands(self, call, pos)
            }
        }
        let rows = [
            ("(progn l (f (cdr l)))", true),
            ("(progn (f (cdr l)) l)", true),
            ("(when l (f (cdr l)))", true),
            ("(when (f (cdr l)) l)", false),
            ("(unless l (f (cdr l)))", true),
            ("(unless (f (cdr l)) l)", false),
            ("(let ((x l)) (f (cdr x)))", true),
            ("(let ((x (f (cdr l)))) x)", false),
            ("(let* ((x l)) (f (cdr x)))", true),
            ("(let* ((x (f (cdr l)))) x)", false),
            ("(while l (f (cdr l)) (setq l nil))", true),
            ("(while (f (cdr l)) (setq l nil))", false),
            ("(cond (l (f (cdr l))))", true),
            ("(cond ((f (cdr l)) l))", false),
            ("(cond ((f (cdr l))))", false),
            ("(if l (f (cdr l)) nil)", true),
            ("(if l nil (f (cdr l)))", true),
            ("(if (f (cdr l)) l nil)", false),
            ("(and l (f (cdr l)))", true),
            ("(and (f (cdr l)) l)", false),
            ("(or l (f (cdr l)))", true),
            ("(or (f (cdr l)) l)", false),
            ("(list (f (cdr l)))", false),
            ("(f (f (cdr l)))", false),
        ];
        for (body, convertible) in rows {
            let src = format!("(defun f (l) {body})");
            let form = parse_one(&src).unwrap();
            let mut text = ValueCalls(0);
            walk_body(&mut text, &sx::parse_defun(&form).unwrap().body);
            let heap = curare_lisp::Heap::new();
            let prog = curare_lisp::Lowerer::new(&heap).lower_program(&[form]).unwrap();
            let ast = curare_analysis::head_tail(&prog.funcs[0]).value_position_calls;
            assert_eq!(text.0 == 0, convertible, "{src}: text");
            assert_eq!(ast == 0, convertible, "{src}: lowered");
        }
    }

    #[test]
    fn progn_collapses_singleton() {
        assert_eq!(progn(vec![sx::sym("x")]).to_string(), "x");
        assert_eq!(progn(vec![sx::sym("x"), sx::sym("y")]).to_string(), "(progn x y)");
    }
}
