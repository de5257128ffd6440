//! Differential tests: the bytecode VM must agree with the
//! tree-walker — same values, same errors, same global side effects —
//! on a hand-written battery covering every expression form and on a
//! deterministic stream of randomly generated programs.
//!
//! Each engine runs each program in a fresh interpreter, and
//! `curare_testkit::agree` holds it to the tree-walker on the
//! displayed result (or error message), the output and the global
//! bindings afterwards.

use curare_lisp::{vm_stats, Interp};
use curare_testkit::{agree, program, Config, Engine, Program, Rng};

/// Assert the tree-walker, the fused VM and the unfused VM agree on
/// `src`.
fn assert_engines_agree(src: &str) {
    agree(
        &Program::text(src, src),
        &[Config::sequential(Engine::Vm), Config::sequential(Engine::Unfused)],
    );
}

#[test]
fn vm_actually_executes_bytecode() {
    let src = "(defun count (n acc) (if (= n 0) acc (count (- n 1) (+ acc 1)))) (count 100 0)";
    assert_engines_agree(src);
    let before = vm_stats().dispatched_ops;
    assert_eq!(Interp::new().load_str(src).unwrap(), curare_lisp::Value::int(100));
    assert!(
        vm_stats().dispatched_ops > before,
        "the VM engine dispatched no bytecode; it silently fell back to the tree"
    );
}

#[test]
fn literals_and_variables() {
    for src in [
        "42",
        "-17",
        "3.5",
        "\"hello world\"",
        "'sym",
        "'(1 2 (3 . 4) five)",
        "nil",
        "t",
        "(defparameter *g* 10) *g*",
        "(defparameter *g* 1) (setq *g* (+ *g* 5)) *g*",
        "(defun f (x) x) (f 9)",
        "(defun f (x y) (setq x (+ x y)) x) (f 3 4)",
    ] {
        assert_engines_agree(src);
    }
}

#[test]
fn control_flow_forms() {
    for src in [
        "(if t 1 2)",
        "(if nil 1 2)",
        "(if 0 'zero-is-true 'zero-is-false)",
        "(progn 1 2 3)",
        "(progn)",
        "(and)",
        "(and 1 2 3)",
        "(and 1 nil 3)",
        "(or)",
        "(or nil nil 7)",
        "(or nil)",
        "(defun f (n) (and (> n 0) (f (- n 1)))) (f 5)",
        "(defun f (n) (or (= n 0) (f (- n 1)))) (f 5)",
        "(let ((x 1) (y 2)) (+ x y))",
        "(let* ((x 1) (y (+ x 1))) (+ x y))",
        "(let ((x 5)) (let ((x 1) (y x)) (list x y)))",
        "(let ())",
        "(defun f () (let ((i 0) (acc nil)) (while (< i 5) (setq acc (cons i acc)) (setq i (+ i 1))) acc)) (f)",
        "(cond ((= 1 2) 'a) ((= 1 1) 'b) (t 'c))",
        "(when (> 2 1) 'yes)",
        "(unless (> 2 1) 'no)",
    ] {
        assert_engines_agree(src);
    }
}

#[test]
fn calls_closures_and_function_values() {
    for src in [
        "(defun add (a b) (+ a b)) (add 2 3)",
        "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 15)",
        // Proper tail calls: far deeper than any plausible Rust stack.
        "(defun loop (n) (if (= n 0) 'done (loop (- n 1)))) (loop 200000)",
        "(funcall #'+ 1 2 3)",
        "(funcall 'car '(9 8))",
        "(apply #'+ 1 '(2 3))",
        "(apply 'list '(a b c))",
        "(mapcar #'1+ '(1 2 3))",
        "(mapcar (lambda (x) (* x x)) '(1 2 3 4))",
        "(let ((n 10)) (funcall (lambda (x) (+ x n)) 5))",
        "(defun make-adder (n) (lambda (x) (+ x n)))
         (let ((a (make-adder 3)) (b (make-adder 40))) (+ (funcall a 0) (funcall b 0)))",
        // A parallel let closes over a not-yet-bound sibling: calling
        // the closure must report the unbound variable identically.
        "(let ((f (lambda () x)) (x 1)) (funcall f))",
        "(defun f () 'first) (defun g () (f)) (defun f () 'second) (g)",
        "#'car",
        "(functionp #'list)",
    ] {
        assert_engines_agree(src);
    }
}

#[test]
fn heap_structures() {
    for src in [
        "(cons 1 2)",
        "(car (cons 1 2))",
        "(cdr (cons 1 2))",
        "(let ((c (cons 1 2))) (rplaca c 9) c)",
        "(let ((c (cons 1 2))) (rplacd c 9) c)",
        "(list 1 2 3)",
        "(append '(1 2) '(3) nil '(4))",
        "(reverse '(1 2 3))",
        "(length '(a b c d))",
        "(nth 2 '(a b c d))",
        "(nthcdr 2 '(a b c d))",
        "(assoc 'b '((a . 1) (b . 2)))",
        "(member 3 '(1 2 3 4))",
        "(last '(1 2 3))",
        "(copy-list '(1 2 3))",
        "(defstruct point x y)
         (let ((p (make-point 3 4))) (list (point-x p) (point-y p) (point-p p)))",
        "(defstruct point x y)
         (let ((p (make-point 0 0))) (setf (point-x p) 7) (point-x p))",
        "(defstruct point x y) (point-x 5)",
        "(let ((h (make-hash-table)))
           (puthash 'a 1 h) (puthash 'b 2 h)
           (list (gethash 'a h) (gethash 'missing h) (hash-table-count h)))",
        "(let ((v (make-vector 3 0))) (aset v 1 'mid) (list (aref v 0) (aref v 1) (length v)))",
        "(eq 'a 'a)",
        "(eql 1.5 1.5)",
        "(equal '(1 (2 3)) '(1 (2 3)))",
        // `cxr` chains that run off a short list, inside compiled
        // bodies (plain, fused with a null test, fused with `+`).
        "(defun f (l) (car (cdr (cdr (cdr l))))) (f '(1 2))",
        "(defun f (l) (cdr (cdr (cdr (cdr l))))) (f '(1))",
        "(defun f (l) (null (cdr (cdr l)))) (list (f '(1)) (f '(1 2 3)))",
        "(defun f (l) (+ (car (cdr (cdr l))) 1)) (f '(1 2))",
        "(defun f (l) (car (car (cdr l)))) (f '(1 2))",
        "(defun f (l) (rplacd (cdr (cdr l)) 9)) (f '(1 2))",
        "(defun f (l) (n (cdr l))) (defun n (l) (if (null l) 0 (+ 1 (n (cdr l))))) (f '(1 2 3))",
    ] {
        assert_engines_agree(src);
    }
    // `car`/`cdr`/`rplaca`/`rplacd` of every kind of value that is no
    // cons, in compiled bodies — alone and in the fused shapes — and at
    // top level: the same value for nil, the same type error for the
    // rest.
    let ops = [
        "(car x)",
        "(cdr x)",
        "(rplaca x 1)",
        "(rplacd x 1)",
        "(null (cdr x))",
        "(+ (car x) 1)",
        "(rplacd x (cons 1 2))",
    ];
    let args = ["nil", "5", "2.5", "\"s\"", "t", "(make-point 1 2)"];
    for op in ops {
        for arg in args {
            assert_engines_agree(&format!("(defstruct point x y) (defun f (x) {op}) (f {arg})"));
            assert_engines_agree(&format!("(defstruct point x y) (let ((x {arg})) {op})"));
        }
    }
}

/// A `setq` in statement position compiles into its slot: a counter
/// in a `let`, in a `while`, a parameter of a self-tail-recursive
/// function, a closure's own — each with a right-hand side that reads
/// the variable twice.
#[test]
fn statement_setq() {
    for src in [
        "(defun f () (let ((n 1)) (setq n (+ n n 1)) (setq n (* n n)) n)) (f)",
        "(defun f (k) (let ((i 0) (s 0)) (while (< i k) (setq s (+ s i i)) (setq i (+ i 1))) s)) (f 10)",
        "(defun f (n acc) (setq acc (+ acc n n)) (if (= n 0) acc (f (- n 1) acc))) (f 100 0)",
        "(defun f (n acc) (setq n (- n 1)) (setq acc (cons n acc)) (if (< n 1) acc (f n acc))) (f 5 nil)",
        "(defun f (k) (let ((g (lambda (x) (setq x (* x x)) (setq x (+ x x)) x))) (funcall g k))) (f 3)",
        "(defun f () (let ((c 1)) (let ((g (lambda () (setq c (+ c c)) c))) (list (funcall g) (funcall g) c)))) (f)",
        "(defun f (x) (setq x (+ x x)) x) (f 'a)",
        "(defun f (x) (setq x (+ x x)) x) (f 576460752303423487)",
        "(defun f (x) (list (setq x (+ x x)) x)) (f 2)",
        "(defun f (x) (let ((y x)) (setq y (car y)) (setq y (+ y y)) y)) (f '(4))",
        "(defun f (x) (when x (setq x (cdr x)) (setq x (cdr x))) x) (f '(1 2 3))",
    ] {
        assert_engines_agree(src);
    }
}

#[test]
fn arithmetic_and_predicates() {
    for src in [
        "(+ 1 2 3.5)",
        "(- 10)",
        "(- 10 3 2)",
        "(* 2 3 4)",
        "(/ 12 4)",
        "(/ 1 0)",
        "(mod 7 3)",
        "(mod -7 3)",
        "(< 1 2 3)",
        "(< 1 3 2)",
        "(> 3 2.5)",
        "(<= 2 2)",
        "(>= 2 3)",
        "(= 2 2.0)",
        "(/= 1 2)",
        "(min 3 1 2)",
        "(max 3 1 2)",
        "(abs -4)",
        "(1+ 41)",
        "(1- 43)",
        "(1+ 2.5)",
        "(null nil)",
        "(null 0)",
        "(not '(1))",
        "(atom 'a)",
        "(atom '(1))",
        "(consp '(1))",
        "(symbolp 'a)",
        "(numberp 3.2)",
        "(stringp \"s\")",
        "(identity 'same)",
        // Overflow at the 60-bit payload boundary.
        "(+ 576460752303423487 1)",
        "(* 576460752303423487 2)",
        "(1+ 576460752303423487)",
        "(- -576460752303423488 1)",
        // The fixnum edge inside compiled bodies, in the shapes an
        // integer-only opcode would be chosen for: let-bound counters,
        // `setq` inside `while`, literal operands, and both operands of
        // a fused compare-and-branch.
        "(defun f () (let ((x 576460752303423486)) (setq x (+ x 1)) (+ x 1))) (f)",
        "(defun f () (let ((x 576460752303423486)) (list (1+ x) (- x -1) (* x 1)))) (f)",
        "(defun f () (let ((x -576460752303423487)) (setq x (1- x)) (1- x))) (f)",
        "(defun f () (let ((x -576460752303423488)) (- 0 x))) (f)",
        "(defun f () (let ((i 0) (x 576460752303423480))
           (while (< i 10) (setq x (1+ x)) (setq i (1+ i))) x)) (f)",
        "(defun f () (let ((x -576460752303423480)) (while t (setq x (- x 1))))) (f)",
        "(defun f () (let ((x 3)) (while t (setq x (* x 2))))) (f)",
        "(defun f () (let ((x -3) (n 0)) (while (< n 100) (setq x (* 2 x)) (setq n (1+ n))) x)) (f)",
        "(defun f () (+ 576460752303423487 1)) (f)",
        "(defun f () (* 576460752303423487 2)) (f)",
        "(defun f () (- -576460752303423488 1)) (f)",
        "(defun f () (1+ 576460752303423487)) (f)",
        "(defun f () (1- -576460752303423488)) (f)",
        "(defun f () (* -1 -576460752303423488)) (f)",
        "(defun f (n) (if (< n 576460752303423487) (f (1+ n)) n)) (f 576460752303423480)",
        "(defun f () (let ((a 576460752303423487) (b -576460752303423488))
           (list (if (< b a) 1 2) (if (> b a) 1 2) (if (= a b) 1 2)
                 (if (<= a a) 1 2) (if (>= b a) 1 2) (if (eq a a) 1 2)))) (f)",
        "(defun f () (let ((i 576460752303423486)) (while (< i (+ i 1)) (setq i (1+ i))) i)) (f)",
        "(defun f () (let ((i -576460752303423487)) (while (> (- i 1) i) (setq i (1- i))) i)) (f)",
        "(defun f () (let ((i 0) (s 0))
           (while (< i 10) (setq s (+ s (* i 2))) (setq i (1+ i)))
           (dotimes (j 4) (setq s (- s j)))
           (+ s (max 3 (min i 4))))) (f)",
        // Mixed integer/float operands of the same opcodes.
        "(defun f () (let ((x 1) (y 1.5))
           (list (< x y) (> x y) (<= y 1) (>= 2 y) (= 1 1.0) (= x y)
                 (if (< x y) 'lt 'ge) (if (= x 1.0) 'eq 'ne) (if (> y x) 'gt 'le)
                 (+ x y) (- y x) (* x y) (1+ y) (1- y)))) (f)",
        "(defun f () (let ((x 576460752303423487) (y 576460752303423487.0))
           (list (= x y) (< x y) (> y x) (if (<= x y) 1 2) (+ x 0.5)))) (f)",
        "(defun f () (let ((x 2.5) (i 0)) (while (< i 3) (setq x (* x 2)) (setq i (1+ i))) x)) (f)",
        "(defun f (n) (if (< n 'a) 1 2)) (f 1)",
        "(defun f () (let ((x nil)) (1+ x))) (f)",
        "(+ 1 'a)",
        "(< 1 'b)",
        "(car 5)",
        "(cdr \"s\")",
    ] {
        assert_engines_agree(src);
    }
}

#[test]
fn errors_agree() {
    for src in [
        "undefined-variable",
        "(no-such-function 1 2)",
        "(defun f (x) x) (f 1 2)",
        "(defun f (x) x) (f)",
        "(car '(1) '(2))",
        "(funcall 'no-such-builtin 1)",
        "(funcall 3 1)",
        "(defun f () (future (g))) (f)",
        "(defun g () unbound-inside) (defun f () (g)) (f)",
        "(atomic-incf 5)",
        "(defparameter *n* 0) (atomic-incf *n* 'x)",
        "1152921504606846976",
    ] {
        assert_engines_agree(src);
    }
}

#[test]
fn concurrency_surface_forms() {
    // Under the default sequential hooks these run inline, but they
    // exercise the Future/Enqueue/Lock/Touch opcodes end to end.
    for src in [
        "(defun work (n) (* n n)) (touch (future (work 12)))",
        "(defun work (n) (* n n)) (let ((f (future (work 5)))) (+ (touch f) 1))",
        "(touch 42)",
        "(defparameter *acc* 0)
         (defun bump (n) (atomic-incf *acc* n))
         (cri-enqueue 0 bump 5) (cri-enqueue 0 bump 7) *acc*",
        "(defparameter *acc* 0)
         (defun walk (l) (when l (cri-handoff 0 walk (cdr l)) (atomic-incf *acc* (car l))))
         (walk (list 1 2 3)) (cri-handoff 1 walk (list 10)) *acc*",
        "(let ((c (cons 1 2))) (cri-lock c car) (rplaca c 9) (cri-unlock c car) c)",
        "(let ((c (cons 1 2))) (cri-lock-read c cdr) (cri-unlock-read c cdr) (cdr c))",
        "(defparameter *n* 10) (atomic-incf *n*) (atomic-incf *n* 5) *n*",
    ] {
        assert_engines_agree(src);
    }
}

/// The expression level's programs at one seed: the tree-walker is
/// the oracle of the fused VM (and, with `unfused`, of the unfused one
/// too — superinstruction fusion is a code-gen choice fixed when an
/// interpreter is built, so it must change no outcome).
fn random_programs(engines: &[Engine]) {
    let mut rng = Rng::new(0x9E3779B97F4A7C15);
    let configs: Vec<Config> = engines.iter().map(|&e| Config::sequential(e)).collect();
    for case in 0..300 {
        let src = program(&mut rng);
        agree(&Program::text(format!("engine_differential case {case}"), &src), &configs);
    }
}

#[test]
fn random_programs_agree() {
    random_programs(&[Engine::Vm]);
}

#[test]
fn random_programs_agree_without_fusion() {
    random_programs(&[Engine::Vm, Engine::Unfused]);
}

/// End-to-end check of the block-boundary rule: `(and a b)` makes the
/// merge point of the `if` a jump target, so the compiled code keeps a
/// dispatch slot there, and the fused function still agrees with the
/// tree-walker on every input combination.
#[test]
fn fusion_respects_branch_targets_end_to_end() {
    for (a, b) in [("1", "2"), ("1", "nil"), ("nil", "2"), ("nil", "nil")] {
        assert_engines_agree(&format!("(defun f (a b) (if (and a b) (+ 10 1) 2)) (f {a} {b})"));
    }
}

/// Fusion belongs to the interpreter: building an unfused one leaves
/// a default interpreter built beside it, or after it, fusing.
#[test]
fn a_default_interpreter_fuses_beside_an_unfused_one() {
    let fused_ops = |interp: &Interp| {
        interp.load_str("(defun s (l acc) (if l (s (cdr l) (+ acc (car l))) acc))").unwrap();
        let code = interp.func_entry(interp.lookup_func_by_name("s").unwrap()).code.clone();
        code.expect("s compiles").ops.iter().filter(|op| op.is_fused()).count()
    };
    let unfused = Interp::unfused();
    let beside = Interp::new();
    assert_eq!(fused_ops(&unfused), 0);
    assert!(fused_ops(&beside) > 0, "an interpreter built beside an unfused one fuses");
    assert!(fused_ops(&Interp::new()) > 0, "an interpreter built after an unfused one fuses");
}
