//! Reordering (paper §3.2.3).
//!
//! "Some conflicts between statements impose constraints that are
//! stronger than necessary for correct execution." Three classes of
//! operations shed their ordering constraints when the programmer
//! declares the necessary semantic facts (§6 — these properties
//! "cannot be deduced from an analysis of the program"):
//!
//! 1. **atomic + commutative + associative operations** — an
//!    accumulation `(setq g (+ g e))` into a *global* `g` under
//!    `(curare-declare (reorderable +))` becomes the atomic
//!    `(atomic-incf g e)` (a parameter or `let`-bound `g` is private
//!    to its invocation: nothing to reorder, and `atomic-incf` takes
//!    no local place);
//! 2. **unordered-structure inserts** — `(puthash k v h)` under
//!    `(unordered-insert puthash)` needs no ordering (the substrate's
//!    hash table is internally synchronized), so its conflicts are
//!    dismissed rather than locked;
//! 3. **any-result searches** — a function declared `(any-result f)`
//!    accepts any satisfying answer, so read-ordering constraints on
//!    its searches are dismissed.

use std::borrow::Cow;

use curare_analysis::DeclDb;
use curare_lisp::Heap;
use curare_sexpr::{Sexpr, Symbol};

use crate::sx;

/// Output of the reordering pass over a defun that lives for `'a`.
#[derive(Debug, Clone)]
pub struct ReorderResult<'a> {
    /// The rewritten defun: the input itself where nothing was
    /// rewritten.
    pub form: Cow<'a, Sexpr>,
    /// Number of accumulations rewritten to atomic updates (global
    /// variables and heap cells together).
    pub atomic_rewrites: usize,
    /// Ordering constraints dismissed by declaration (described).
    pub dismissed: Vec<String>,
}

/// Apply §3.2.3 reorderings to a defun under `decls`. The heap
/// provides the struct registry for field-accessor places.
pub fn reorder_transform<'a>(heap: &Heap, form: &'a Sexpr, decls: &DeclDb) -> ReorderResult<'a> {
    let mut pass =
        Pass { heap, decls, locals: Vec::new(), atomic_rewrites: 0, dismissed: Vec::new() };
    let form = pass.rewrite(form).map_or(Cow::Borrowed(form), Cow::Owned);
    ReorderResult { form, atomic_rewrites: pass.atomic_rewrites, dismissed: pass.dismissed }
}

/// One rewriting. Every rewrite returns `None` for a form it leaves as
/// it is, so only the spine above a rewritten accumulation is copied.
struct Pass<'a> {
    heap: &'a Heap,
    decls: &'a DeclDb,
    /// Names bound locally at the form being rewritten (parameters,
    /// `let`/`dolist`/`dotimes` variables), innermost last — the
    /// lowerer's resolution rule: any other symbol is a global.
    locals: Vec<Symbol>,
    atomic_rewrites: usize,
    dismissed: Vec<String>,
}

/// The symbols of a parameter or binding list (`x` and `(x init)`).
fn bound_names(list: &Sexpr) -> impl Iterator<Item = Symbol> + '_ {
    list.as_list()
        .into_iter()
        .flatten()
        .filter_map(|b| b.symbol().or_else(|| b.nth(0).and_then(Sexpr::symbol)))
}

impl Pass<'_> {
    /// Rewrite `items[from..]` with `names` bound around them.
    fn scoped(
        &mut self,
        items: &[Sexpr],
        from: usize,
        names: impl Iterator<Item = Symbol>,
    ) -> Option<Sexpr> {
        let outer = self.locals.len();
        self.locals.extend(names);
        let out = self.rewrite_items(items, from);
        self.locals.truncate(outer);
        out
    }

    /// The list `items` with `items[from..]` rewritten, if one was.
    fn rewrite_items(&mut self, items: &[Sexpr], from: usize) -> Option<Sexpr> {
        let mut out: Option<Vec<Sexpr>> = None;
        for (i, item) in items.iter().enumerate().skip(from) {
            if let Some(new) = self.rewrite(item) {
                out.get_or_insert_with(|| items[..i].to_vec()).push(new);
            } else if let Some(out) = &mut out {
                out.push(item.clone());
            }
        }
        out.map(Sexpr::List)
    }

    fn rewrite(&mut self, form: &Sexpr) -> Option<Sexpr> {
        let items = form.as_list()?;
        let head = items.first()?.as_symbol()?;
        let (heap, decls) = (self.heap, self.decls);
        match head {
            "quote" => return None,
            // Binding forms: their variables shadow globals in the
            // body (the binding list itself is left as it is).
            _ if items.len() < 3 => {}
            "defun" => return self.scoped(items, 3, bound_names(&items[2])),
            "lambda" => return self.scoped(items, 2, bound_names(&items[1])),
            "let" | "let*" => return self.scoped(items, 2, bound_names(&items[1])),
            "dolist" | "dotimes" => {
                let var = items[1].nth(0).and_then(Sexpr::symbol);
                return self.scoped(items, 2, var.into_iter());
            }
            _ => {}
        }

        // (setq g (+ g e)) / (setq g (+ e g)) with reorderable + →
        // (atomic-incf g e). Also the (incf g e) spelling.
        if let Some(replacement) = match_accumulation(items, decls, &self.locals) {
            self.atomic_rewrites += 1;
            return Some(replacement);
        }
        // (setf (car x) (+ (car x) e)) and friends → atomic cell update.
        if let Some(replacement) = match_cell_accumulation(heap, items, decls) {
            self.atomic_rewrites += 1;
            return Some(replacement);
        }

        // Unordered inserts: no rewrite needed (the substrate hash table
        // is concurrent); record the dismissal for the pipeline.
        if decls.is_unordered_insert(head) {
            self.dismissed.push(format!("unordered insert: {form}"));
        }
        if decls.is_any_result(head) {
            self.dismissed.push(format!("any-result search: {form}"));
        }

        self.rewrite_items(items, 0)
    }
}

/// If `name` is a single-letter place accessor, its `atomic-incf-cell`
/// field operand: `'car`, `'cdr`, or a struct-field index.
fn place_field_operand(heap: &Heap, name: &str) -> Option<Sexpr> {
    match name {
        "car" => Some(sx::quote(sx::sym("car"))),
        "cdr" => Some(sx::quote(sx::sym("cdr"))),
        _ => {
            for ty in 0..heap.struct_type_count() as u32 {
                let st = heap.struct_type(ty);
                for (i, f) in st.fields.iter().enumerate() {
                    if format!("{}-{}", st.name, f) == name {
                        return Some(Sexpr::Int(i as i64));
                    }
                }
            }
            None
        }
    }
}

/// Recognize `(setf (acc X) (+ (acc X) e))` / `(incf (acc X) e)` with
/// `+` declared reorderable and the two place expressions identical.
fn match_cell_accumulation(heap: &Heap, items: &[Sexpr], decls: &DeclDb) -> Option<Sexpr> {
    if !decls.is_reorderable("+") {
        return None;
    }
    let head = items.first()?.as_symbol()?;
    let (place, delta) = match head {
        "setf" => {
            let [_, place, update] = items else { return None };
            let call = update.as_list()?;
            if !call.first()?.is_symbol("+") || call.len() != 3 {
                return None;
            }
            let delta = if &call[1] == place {
                &call[2]
            } else if &call[2] == place {
                &call[1]
            } else {
                return None;
            };
            (place, delta.clone())
        }
        "incf" => {
            let place = items.get(1)?;
            if place.as_symbol().is_some() {
                return None; // variable places handled elsewhere
            }
            (place, items.get(2).cloned().unwrap_or(Sexpr::Int(1)))
        }
        _ => return None,
    };
    let place_items = place.as_list()?;
    let [acc, base] = place_items else { return None };
    let field = place_field_operand(heap, acc.as_symbol()?)?;
    // The delta must not reference the place (not a simple update).
    if delta == *place {
        return None;
    }
    Some(sx::call("atomic-incf-cell", vec![base.clone(), field, delta]))
}

/// Recognize commutative accumulations into a global variable
/// (`locals`: the names bound around the form).
fn match_accumulation(items: &[Sexpr], decls: &DeclDb, locals: &[Symbol]) -> Option<Sexpr> {
    let head = items.first()?.as_symbol()?;
    fn global(var: &Sexpr, locals: &[Symbol]) -> Option<Symbol> {
        var.symbol().filter(|v| !locals.contains(v))
    }
    let (var, update) = match head {
        "setq" | "setf" => {
            let [_, var, update] = items else { return None };
            (global(var, locals)?, update)
        }
        "incf" => {
            // (incf g e) is already an addition; require + declared.
            if !decls.is_reorderable("+") {
                return None;
            }
            let var = global(items.get(1)?, locals)?;
            let delta = items.get(2).cloned().unwrap_or(Sexpr::Int(1));
            return Some(sx::call("atomic-incf", vec![Sexpr::Sym(var), delta]));
        }
        _ => return None,
    };
    let call = update.as_list()?;
    let op = call.first()?.as_symbol()?;
    if op != "+" || !decls.is_reorderable("+") || call.len() != 3 {
        return None;
    }
    let delta = if call[1].is_symbol(&var) {
        &call[2]
    } else if call[2].is_symbol(&var) {
        &call[1]
    } else {
        return None;
    };
    // The delta must not itself mention the accumulator (that would
    // not be a simple commutative update).
    if sx::mentions_call(delta, &var) || delta.is_symbol(&var) {
        return None;
    }
    Some(sx::call("atomic-incf", vec![Sexpr::Sym(var), delta.clone()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    fn decls(src: &str) -> DeclDb {
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one(src).unwrap()).unwrap();
        db
    }

    #[test]
    fn accumulation_becomes_atomic() {
        let db = decls("(curare-declare (reorderable +))");
        let form = parse_one(
            "(defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))",
        )
        .unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.atomic_rewrites, 1);
        assert!(r.form.to_string().contains("(atomic-incf *sum* (car l))"), "{}", r.form);
        assert!(!r.form.to_string().contains("setq *sum*"), "{}", r.form);
    }

    #[test]
    fn reversed_operand_order_matches() {
        let db = decls("(curare-declare (reorderable +))");
        let form = parse_one("(defun f (x) (setq *s* (+ x *s*)) (f x))").unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.atomic_rewrites, 1);
        assert!(r.form.to_string().contains("(atomic-incf *s* x)"));
    }

    #[test]
    fn incf_spelling_matches() {
        let db = decls("(curare-declare (reorderable +))");
        let form = parse_one("(defun f (l) (incf *n*) (f (cdr l)))").unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.atomic_rewrites, 1);
        assert!(r.form.to_string().contains("(atomic-incf *n* 1)"));
    }

    #[test]
    fn without_declaration_nothing_changes() {
        let db = DeclDb::new();
        let src = "(defun walk (l) (when l (setq *sum* (+ *sum* (car l))) (walk (cdr l))))";
        let form = parse_one(src).unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.atomic_rewrites, 0);
        assert_eq!(r.form.to_string(), parse_one(src).unwrap().to_string());
    }

    #[test]
    fn non_commutative_shapes_are_left_alone() {
        let db = decls("(curare-declare (reorderable +))");
        for src in [
            // subtraction is not declared
            "(defun f (x) (setq *s* (- *s* x)) (f x))",
            // accumulator appears in the delta
            "(defun f (x) (setq *s* (+ *s* *s*)) (f x))",
            // three operands
            "(defun f (x) (setq *s* (+ *s* x 1)) (f x))",
            // target is not the operand
            "(defun f (x) (setq *s* (+ *t* x)) (f x))",
        ] {
            let form = parse_one(src).unwrap();
            let r = reorder_transform(&Heap::new(), &form, &db);
            assert_eq!(r.atomic_rewrites, 0, "{src}");
        }
    }

    #[test]
    fn unordered_insert_is_dismissed() {
        let db = decls("(curare-declare (unordered-insert puthash))");
        let form = parse_one("(defun f (l h) (puthash (car l) 1 h) (f (cdr l) h))").unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.dismissed.len(), 1);
        assert!(r.dismissed[0].contains("puthash"));
    }

    #[test]
    fn any_result_search_is_dismissed() {
        let db = decls("(curare-declare (any-result probe))");
        let form = parse_one("(defun f (l) (probe (car l)) (f (cdr l)))").unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert!(r.dismissed.iter().any(|d| d.contains("any-result")), "{:?}", r.dismissed);
    }

    #[test]
    fn rewritten_function_still_computes_the_sum() {
        let db = decls("(curare-declare (reorderable +))");
        let form = parse_one(
            "(defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))",
        )
        .unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        let it = curare_lisp::Interp::new();
        it.load_str("(defparameter *sum* 0)").unwrap();
        it.load_str(&r.form.to_string()).unwrap();
        it.load_str("(walk '(1 2 3 4 5))").unwrap();
        assert_eq!(it.heap().display(it.load_str("*sum*").unwrap()), "15");
    }

    #[test]
    fn local_accumulators_are_not_places_for_atomic_incf() {
        // `atomic-incf` takes a global place only; a parameter, a
        // `let` variable and a loop variable are private to their
        // invocation, so their updates stay as written — while the
        // global next to them is still rewritten.
        let db = decls("(curare-declare (reorderable +))");
        let src = "(defun f (l n)
                     (setq n (+ n 1))
                     (let ((x 0)) (setq x (+ x 1)) (incf x 2))
                     (dotimes (i 3) (setq i (+ i 1)))
                     (setq *g* (+ *g* n))
                     (f (cdr l) n))";
        let form = parse_one(src).unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.atomic_rewrites, 1, "{}", r.form);
        let text = r.form.to_string();
        assert!(text.contains("(atomic-incf *g* n)"), "{text}");
        assert!(text.contains("(setq x (+ x 1))") && text.contains("(incf x 2)"), "{text}");
        assert!(text.contains("(setq n (+ n 1))") && text.contains("(setq i (+ i 1))"), "{text}");
        // Outside the binding form the name is a global again.
        let shadow =
            "(defun g (l) (let ((*s* 0)) (setq *s* (+ *s* 1))) (setq *s* (+ *s* 1)) (g l))";
        let form = parse_one(shadow).unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.atomic_rewrites, 1, "{}", r.form);
    }

    #[test]
    fn quoted_forms_untouched() {
        let db = decls("(curare-declare (reorderable +))");
        let form = parse_one("(defun f () '(setq *s* (+ *s* 1)))").unwrap();
        let r = reorder_transform(&Heap::new(), &form, &db);
        assert_eq!(r.atomic_rewrites, 0);
    }
}
