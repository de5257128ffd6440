//! Reduction restructuring (paper §5).
//!
//! "Restricted classes of recursive functions can be transformed into
//! iterative functions by a set of well-known transformations. Some of
//! these transformations, particularly those described by Huet and
//! Lang, depend on subtle properties of a function's operations, such
//! as commutativity and associativity, and so require information like
//! that provided by CURARE's declarative model."
//!
//! This module implements the classic instance: a linear reduction
//!
//! ```lisp
//! (defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))
//! ```
//!
//! whose combining operator is declared `reorderable` (atomic,
//! commutative, associative) becomes an *accumulating walker* whose
//! update commutes — which the rest of the pipeline then runs
//! concurrently with an atomic cell update:
//!
//! ```lisp
//! (defun sum (l)
//!   (let ((%curare-acc (cons 0 nil)))
//!     (sum-acc %curare-acc l)
//!     (car %curare-acc)))
//! (defun sum-acc (%curare-acc l)
//!   (when l
//!     (setf (car %curare-acc) (+ (car %curare-acc) (car l)))
//!     (sum-acc %curare-acc (cdr l))))
//! ```

use curare_analysis::DeclDb;
use curare_sexpr::Sexpr;

use crate::shape::{self, Class, Shape, View};
use crate::sx;

/// Why the reduction transform did not apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldError {
    /// Not a defun.
    NotADefun,
    /// The body is not a recognizable linear reduction.
    NotAReduction(String),
    /// The combining operator is not declared reorderable.
    OperatorNotDeclared(String),
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::NotADefun => write!(f, "not a defun form"),
            FoldError::NotAReduction(m) => write!(f, "not a linear reduction: {m}"),
            FoldError::OperatorNotDeclared(op) => {
                write!(f, "operator {op} is not declared reorderable (§6)")
            }
        }
    }
}

impl std::error::Error for FoldError {}

/// Output of the reduction transform.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// The accumulating walker (`<f>-acc`), CRI-convertible.
    pub walker: Sexpr,
    /// A wrapper with the original name and signature.
    pub wrapper: Sexpr,
    /// The combining operator.
    pub operator: String,
}

const ACC: &str = "%curare-acc";

/// The recognized shape, extracted from the body.
struct Reduction {
    /// The base-case value expression.
    init: Sexpr,
    /// Combining operator name.
    op: String,
    /// Element expression (`(car l)`-like; must not self-call).
    element: Sexpr,
    /// Recursion argument.
    step: Sexpr,
    /// Name of the test (e.g. `(null l)` kept verbatim).
    test: Sexpr,
    /// Whether the recursive call was the operator's first operand.
    call_first: bool,
}

/// Recognize `(if TEST INIT (op ELEM (f STEP)))` (and the symmetric
/// operand order, and the equivalent 2-clause `cond`).
fn recognize(fname: &str, body: &[&Sexpr]) -> Result<Reduction, FoldError> {
    let [form] = body else {
        return Err(FoldError::NotAReduction("body must be a single expression".into()));
    };
    // Two clauses: TEST with INIT alone, then the combiner alone — under
    // no test of its own (`if`) or under `t` (`cond`).
    let not_a_reduction = || FoldError::NotAReduction(form.to_string());
    let Shape::Form(View { class: Class::If | Class::Cond, clauses, .. }) =
        shape::classify(form, fname)
    else {
        return Err(not_a_reduction());
    };
    let [base, step] = &clauses[..] else { return Err(not_a_reduction()) };
    let mut tests = base.guards();
    let (test, init, combine) = match (tests.next(), tests.next(), base.body, step.body) {
        (Some(test), None, [init], [combine]) if step.guards().all(|g| g.is_symbol("t")) => {
            (test.clone(), init.clone(), combine.clone())
        }
        _ => return Err(not_a_reduction()),
    };
    if sx::mentions_call(&test, fname) || sx::mentions_call(&init, fname) {
        return Err(FoldError::NotAReduction("self-call in test or base case".into()));
    }
    let comb = combine.as_list().ok_or_else(|| FoldError::NotAReduction(combine.to_string()))?;
    let [op, a, b] = comb else {
        return Err(FoldError::NotAReduction(format!("combiner must be binary: {combine}")));
    };
    let op =
        op.as_symbol().ok_or_else(|| FoldError::NotAReduction(combine.to_string()))?.to_string();
    // One operand is the self-call, the other the element.
    let (element, rec, call_first) = if a.is_call(fname) {
        (b.clone(), a, true)
    } else if b.is_call(fname) {
        (a.clone(), b, false)
    } else {
        return Err(FoldError::NotAReduction(format!("no self-call operand: {combine}")));
    };
    if sx::mentions_call(&element, fname) {
        return Err(FoldError::NotAReduction(format!("both operands recurse: {combine}")));
    }
    let rec_items = rec.as_list().expect("is_call checked");
    if rec_items.len() != 2 {
        return Err(FoldError::NotAReduction(format!(
            "reduction must recurse on a single argument: {rec}"
        )));
    }
    Ok(Reduction { init, op, element, step: rec_items[1].clone(), test, call_first })
}

/// Transform a declared-reorderable linear reduction into an
/// accumulating walker plus wrapper.
pub fn fold_to_walker(form: &Sexpr, decls: &DeclDb) -> Result<FoldResult, FoldError> {
    let parts = sx::parse_defun(form).ok_or(FoldError::NotADefun)?;
    if parts.params.len() != 1 {
        return Err(FoldError::NotAReduction("reduction must take exactly one parameter".into()));
    }
    let param = parts.params[0];
    let red = recognize(parts.name, &parts.body)?;
    if !decls.is_reorderable(&red.op) {
        return Err(FoldError::OperatorNotDeclared(red.op));
    }
    let _ = red.call_first; // commutativity makes operand order moot

    let walker_name = format!("{}-acc", parts.name);

    // (defun f-acc (%curare-acc l)
    //   (unless TEST
    //     (setf (car %curare-acc) (op (car %curare-acc) ELEM))
    //     (f-acc %curare-acc STEP)))
    let update = sx::call(
        "setf",
        vec![
            sx::call("car", vec![sx::sym(ACC)]),
            sx::call(&red.op, vec![sx::call("car", vec![sx::sym(ACC)]), red.element.clone()]),
        ],
    );
    let recurse = sx::call(&walker_name, vec![sx::sym(ACC), red.step.clone()]);
    let walker_body = sx::call("unless", vec![red.test.clone(), update, recurse]);
    let walker = sx::make_defun(&walker_name, &[ACC, param], &parts.declares, vec![walker_body]);

    // (defun f (l)
    //   (let ((%curare-acc (cons INIT nil)))
    //     (f-acc %curare-acc l)
    //     (car %curare-acc)))
    let wrapper_body = shape::let_form(
        false,
        vec![(ACC.to_string(), sx::call("cons", vec![red.init.clone(), sx::sym("nil")]))],
        vec![
            sx::call(&walker_name, vec![sx::sym(ACC), sx::sym(param)]),
            sx::call("car", vec![sx::sym(ACC)]),
        ],
    );
    let wrapper = sx::make_defun(parts.name, &[param], &[], vec![wrapper_body]);

    Ok(FoldResult { walker, wrapper, operator: red.op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::Interp;
    use curare_sexpr::parse_one;

    const SUM: &str = "(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))";

    fn decls_plus() -> DeclDb {
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one("(curare-declare (reorderable + *))").unwrap()).unwrap();
        db
    }

    #[test]
    fn sum_becomes_accumulating_walker() {
        let r = fold_to_walker(&parse_one(SUM).unwrap(), &decls_plus()).unwrap();
        assert_eq!(r.operator, "+");
        let w = r.walker.to_string();
        assert!(w.starts_with("(defun sum-acc (%curare-acc l)"), "{w}");
        assert!(w.contains("(setf (car %curare-acc)"), "{w}");
        let wr = r.wrapper.to_string();
        assert!(wr.contains("(cons 0 nil)"), "{wr}");
        assert!(wr.contains("(car %curare-acc)"), "{wr}");
    }

    #[test]
    fn transformed_sum_is_equivalent() {
        let r = fold_to_walker(&parse_one(SUM).unwrap(), &decls_plus()).unwrap();
        let orig = Interp::new();
        orig.load_str(SUM).unwrap();
        let xf = Interp::new();
        xf.load_str(&r.walker.to_string()).unwrap();
        xf.load_str(&r.wrapper.to_string()).unwrap();
        for call in ["(sum '(1 2 3 4 5))", "(sum nil)", "(sum '(42))", "(sum '(-1 1 -2 2))"] {
            let a = orig.load_str(call).unwrap();
            let b = xf.load_str(call).unwrap();
            assert_eq!(orig.heap().display(a), xf.heap().display(b), "{call}");
        }
    }

    #[test]
    fn product_and_reversed_operands_work() {
        let src = "(defun prod (l) (if (null l) 1 (* (prod (cdr l)) (car l))))";
        let r = fold_to_walker(&parse_one(src).unwrap(), &decls_plus()).unwrap();
        assert_eq!(r.operator, "*");
        let orig = Interp::new();
        orig.load_str(src).unwrap();
        let xf = Interp::new();
        xf.load_str(&r.walker.to_string()).unwrap();
        xf.load_str(&r.wrapper.to_string()).unwrap();
        let a = orig.load_str("(prod '(2 3 4))").unwrap();
        let b = xf.load_str("(prod '(2 3 4))").unwrap();
        assert_eq!(orig.heap().display(a), xf.heap().display(b));
    }

    #[test]
    fn cond_spelling_recognized() {
        let src = "(defun sum (l) (cond ((null l) 0) (t (+ (car l) (sum (cdr l))))))";
        assert!(fold_to_walker(&parse_one(src).unwrap(), &decls_plus()).is_ok());
    }

    #[test]
    fn undeclared_operator_is_refused() {
        let src = "(defun sub (l) (if (null l) 0 (- (car l) (sub (cdr l)))))";
        let err = fold_to_walker(&parse_one(src).unwrap(), &decls_plus()).unwrap_err();
        assert_eq!(err, FoldError::OperatorNotDeclared("-".into()));
    }

    #[test]
    fn non_reduction_shapes_are_refused() {
        for src in [
            // two recursive operands (tree fold — out of the linear class)
            "(defun f (l) (if (null l) 0 (+ (f (car l)) (f (cdr l)))))",
            // extra statement in the body
            "(defun f (l) (print l) (if (null l) 0 (+ (car l) (f (cdr l)))))",
            // non-binary combiner
            "(defun f (l) (if (null l) 0 (+ 1 (car l) (f (cdr l)))))",
            // two parameters
            "(defun f (a b) (if (null a) 0 (+ (car a) (f (cdr a) b))))",
        ] {
            assert!(
                fold_to_walker(&parse_one(src).unwrap(), &decls_plus()).is_err(),
                "should refuse: {src}"
            );
        }
    }

    #[test]
    fn walker_is_cri_convertible_after_reorder() {
        // The produced walker's update is exactly the cell-accumulation
        // pattern the reorder pass rewrites to a CAS; after that the
        // function is tail-recursive and conflict-free.
        let r = fold_to_walker(&parse_one(SUM).unwrap(), &decls_plus()).unwrap();
        let heap = curare_lisp::Heap::new();
        let reordered = crate::reorder::reorder_transform(&heap, &r.walker, &decls_plus());
        assert_eq!(reordered.atomic_rewrites, 1, "{}", reordered.form);
        assert!(reordered.form.to_string().contains("atomic-incf-cell"));
        let cri = crate::cri::cri_convert(&reordered.form).unwrap();
        assert_eq!(cri.sites, 1);
    }
}
