//! Seeded property battery for the mini-Lisp substrate: evaluation
//! determinism, the compiler's rewrites against the tree-walker, numeric and
//! list algebra, and a lowerer that is total on arbitrary input.
//!
//! Engine agreement on random programs is `engine_differential.rs`'s
//! `random_programs_agree`, over a richer grammar than this one.

use curare_lisp::{Heap, Interp, Lowerer, Value};
use curare_sexpr::parse_all;
use curare_testkit::{agree, arith, list_of, malformed, sugar, Config, Engine, Program, Rng};

/// Evaluate on the VM in a fresh interpreter to a display string;
/// `None` on error.
fn eval_display(src: &str) -> Option<String> {
    let it = Interp::new();
    it.load_str(src).ok().map(|v| it.heap().display(v))
}

/// Evaluation is a function of the program, not of interpreter state.
#[test]
fn evaluation_is_deterministic() {
    let mut rng = Rng::new(0x5EED_0001_1157_C0DE);
    for case in 0..200 {
        let src = arith(&mut rng, false, 4);
        assert_eq!(eval_display(&src), eval_display(&src), "case {case}: {src}");
    }
}

/// The compiler's rewrites (sugar chains plus constant folding) keep
/// the meaning the tree-walker gives the program: the VM runs the code
/// `compile` emits from the lowered tree, applying the rewrites as it
/// emits, the tree-walker runs the lowered tree as it is, and the two
/// must print the same.
#[test]
fn compiled_rewrites_preserve_tree_semantics() {
    let mut rng = Rng::new(0x5EED_0002_1157_C0DE);
    for case in 0..300 {
        let program = format!("(defun g () {}) (g)", sugar(&mut rng, 0, 4));
        agree(
            &Program::text(format!("rewrite case {case}"), &program),
            &[Config::sequential(Engine::Vm)],
        );
    }
}

/// Integer arithmetic agrees with Rust's on flat sums and minima.
#[test]
fn flat_arithmetic_matches_rust() {
    let mut rng = Rng::new(0x5EED_0003_1157_C0DE);
    for _ in 0..100 {
        let xs = rng.ints(10_000, 1..8);
        let operands = xs.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
        let sum: i64 = xs.iter().sum();
        assert_eq!(eval_display(&format!("(+ {operands})")), Some(sum.to_string()));
        let min = xs.iter().min().expect("nonempty");
        assert_eq!(eval_display(&format!("(min {operands})")), Some(min.to_string()));
    }
}

/// `(reverse (reverse l))` is `equal` to `l`; `append` adds lengths
/// and shares its last argument; `equal` is reflexive and
/// copy-invariant while `copy-list` is never `eq`; a quoted display
/// reads back `equal`.
#[test]
fn list_algebra() {
    let mut rng = Rng::new(0x5EED_0004_1157_C0DE);
    for _ in 0..100 {
        let (xs, ys) = (rng.ints(100, 0..12), rng.ints(100, 0..12));
        let it = Interp::new();
        let (lx, ly) = (list_of(&it, &xs), list_of(&it, &ys));
        it.set_global(it.heap().intern("*x*"), lx);
        it.set_global(it.heap().intern("*y*"), ly);
        let rr = it.load_str("(reverse (reverse *x*))").unwrap();
        assert!(it.heap().equal(rr, lx));
        let appended = it.load_str("(length (append *x* *y*))").unwrap();
        assert_eq!(appended, Value::int((xs.len() + ys.len()) as i64));
        // append shares its last argument (CL semantics).
        let mut tail = it.load_str("(append *x* *y*)").unwrap();
        for _ in 0..xs.len() {
            tail = it.heap().cdr(tail).unwrap();
        }
        assert_eq!(tail, ly);

        assert!(it.heap().equal(lx, lx));
        let copy = it.load_str("(copy-list *x*)").unwrap();
        assert!(it.heap().equal(lx, copy));
        assert!(xs.is_empty() || lx != copy, "copy is not eq");
        let back = it.load_str(&format!("'{}", it.heap().display(lx))).unwrap();
        assert!(it.heap().equal(lx, back), "display is faithful");
    }
}

/// Loading a program twice into one interpreter redefines functions
/// without corrupting earlier results.
#[test]
fn reloading_is_safe() {
    let it = Interp::new();
    for n in 1..50 {
        it.load_str("(defun f (k) (* k 2))").unwrap();
        assert_eq!(it.call("f", &[Value::int(n)]).unwrap(), Value::int(n * 2));
        it.load_str("(defun f (k) (* k 3))").unwrap();
        assert_eq!(it.call("f", &[Value::int(n)]).unwrap(), Value::int(n * 3));
    }
}

/// Whatever the reader accepts, lowering accepts or rejects with an
/// error — never a panic. Inputs are printable noise, program-shaped
/// noise, and well-formed programs with one byte struck out or
/// doubled (which keeps most of the structure a lowerer branches on).
#[test]
fn lowering_never_panics() {
    let mut rng = Rng::new(0x5EED_0005_1157_C0DE);
    for case in 0..3000 {
        let s = malformed(&mut rng, case);
        if let Ok(forms) = parse_all(&s) {
            let heap = Heap::new();
            let _ = Lowerer::new(&heap).lower_program(&forms);
        }
    }
}
