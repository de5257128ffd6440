//! Differential tests: the bytecode VM must agree with the
//! tree-walker — same values, same errors, same global side effects —
//! on a hand-written battery covering every expression form and on a
//! deterministic stream of randomly generated programs.
//!
//! Both engines run each program in a fresh interpreter; we compare
//! the displayed result (or error message) and a rendered snapshot of
//! the global bindings afterwards.

use curare_lisp::{vm_stats, Engine, Interp};

/// Run `src` in a fresh interpreter pinned to `engine`, rendering the
/// outcome and the post-run globals to comparable strings.
fn run_engine(src: &str, engine: Engine) -> (String, String) {
    let interp = Interp::new();
    interp.set_engine(engine);
    let outcome = match interp.load_str(src) {
        Ok(v) => format!("ok: {}", interp.heap().display(v)),
        Err(e) => format!("err: {e}"),
    };
    let mut globals: Vec<String> = interp
        .globals_snapshot()
        .into_iter()
        .map(|(sym, v)| format!("{}={}", interp.heap().sym_name(sym), interp.heap().display(v)))
        .collect();
    globals.sort();
    (outcome, globals.join(" "))
}

/// Assert tree and VM agree on `src`; returns the shared outcome.
fn assert_engines_agree(src: &str) -> String {
    let tree = run_engine(src, Engine::Tree);
    let vm = run_engine(src, Engine::Vm);
    assert_eq!(tree, vm, "engine divergence on program:\n{src}");
    tree.0
}

#[test]
fn vm_actually_executes_bytecode() {
    let before = vm_stats().dispatched_ops;
    let out = assert_engines_agree(
        "(defun count (n acc) (if (= n 0) acc (count (- n 1) (+ acc 1))))
         (count 100 0)",
    );
    assert_eq!(out, "ok: 100");
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

// ---------------------------------------------------------------------
// Randomized differential testing with a deterministic PRNG (no
// external crates; reproducible by construction).
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish pick in `0..n`.
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Generate a random expression over the variables in `scope`. The
/// grammar may produce programs that error (overflow, type errors,
/// car of an atom): both engines must then report the same error.
fn gen_expr(rng: &mut XorShift, scope: &mut Vec<String>, depth: usize) -> String {
    if depth == 0 || rng.pick(6) == 0 {
        return match rng.pick(4) {
            0 => format!("{}", rng.next() as i64 % 1000),
            1 if !scope.is_empty() => scope[rng.pick(scope.len())].clone(),
            2 => "nil".to_string(),
            _ => format!("'s{}", rng.pick(4)),
        };
    }
    match rng.pick(12) {
        0 => {
            let op = ["+", "-", "*", "min", "max"][rng.pick(5)];
            format!(
                "({op} {} {})",
                gen_expr(rng, scope, depth - 1),
                gen_expr(rng, scope, depth - 1)
            )
        }
        1 => {
            let op = ["<", ">", "<=", ">=", "=", "eq", "equal"][rng.pick(7)];
            format!(
                "({op} {} {})",
                gen_expr(rng, scope, depth - 1),
                gen_expr(rng, scope, depth - 1)
            )
        }
        2 => format!(
            "(if {} {} {})",
            gen_expr(rng, scope, depth - 1),
            gen_expr(rng, scope, depth - 1),
            gen_expr(rng, scope, depth - 1)
        ),
        3 => {
            let var = format!("v{}", scope.len());
            let init = gen_expr(rng, scope, depth - 1);
            scope.push(var.clone());
            let body = gen_expr(rng, scope, depth - 1);
            scope.pop();
            format!("(let (({var} {init})) {body})")
        }
        4 => format!(
            "(cons {} {})",
            gen_expr(rng, scope, depth - 1),
            gen_expr(rng, scope, depth - 1)
        ),
        5 => {
            let op = ["car", "cdr", "null", "consp", "atom", "1+", "1-", "identity"][rng.pick(8)];
            format!("({op} {})", gen_expr(rng, scope, depth - 1))
        }
        6 => format!(
            "(list {} {} {})",
            gen_expr(rng, scope, depth - 1),
            gen_expr(rng, scope, depth - 1),
            gen_expr(rng, scope, depth - 1)
        ),
        7 => {
            let n = 1 + rng.pick(3);
            let stmts: Vec<String> = (0..n).map(|_| gen_expr(rng, scope, depth - 1)).collect();
            format!("(progn {})", stmts.join(" "))
        }
        8 => {
            let op = ["and", "or"][rng.pick(2)];
            format!(
                "({op} {} {})",
                gen_expr(rng, scope, depth - 1),
                gen_expr(rng, scope, depth - 1)
            )
        }
        9 if !scope.is_empty() => {
            let var = scope[rng.pick(scope.len())].clone();
            format!("(setq {var} {})", gen_expr(rng, scope, depth - 1))
        }
        10 => {
            // A sequential let with two bindings, the second reading
            // the first.
            let a = format!("v{}", scope.len());
            let init = gen_expr(rng, scope, depth - 1);
            scope.push(a.clone());
            let b = format!("v{}", scope.len());
            let init2 = gen_expr(rng, scope, depth - 1);
            scope.push(b.clone());
            let body = gen_expr(rng, scope, depth - 1);
            scope.pop();
            scope.pop();
            format!("(let* (({a} {init}) ({b} {init2})) {body})")
        }
        _ => format!(
            "(append (list {}) (list {}))",
            gen_expr(rng, scope, depth - 1),
            gen_expr(rng, scope, depth - 1)
        ),
    }
}

/// A random program: a few helper functions (each may call the ones
/// defined before it — no recursion, so termination is structural),
/// then a toplevel expression invoking the last helper.
fn gen_program(rng: &mut XorShift) -> String {
    let mut out = String::new();
    let nfuncs = 1 + rng.pick(3);
    for i in 0..nfuncs {
        let mut scope = vec!["a".to_string(), "b".to_string()];
        let mut body = gen_expr(rng, &mut scope, 3);
        if i > 0 && rng.pick(2) == 0 {
            let callee = rng.pick(i);
            body = format!("(f{callee} {body} {})", gen_expr(rng, &mut scope, 2));
        }
        out.push_str(&format!("(defun f{i} (a b) {body})\n"));
    }
    let mut scope = Vec::new();
    out.push_str(&format!(
        "(f{} {} {})",
        nfuncs - 1,
        gen_expr(rng, &mut scope, 2),
        gen_expr(rng, &mut scope, 2)
    ));
    out
}

#[test]
fn random_programs_agree() {
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for case in 0..300 {
        let src = gen_program(&mut rng);
        let tree = run_engine(&src, Engine::Tree);
        let vm = run_engine(&src, Engine::Vm);
        assert_eq!(tree, vm, "engine divergence on random case {case}:\n{src}");
    }
}

// ---------------------------------------------------------------------
// Fusion differential: superinstruction fusion is a load-time
// code-gen choice, so with it disabled (`--no-fuse`) the VM must
// produce byte-identical outcomes on the same battery.
// The flag is process-global and read at compile time; tests that
// toggle it serialize on a mutex and restore the previous value.
// ---------------------------------------------------------------------

static FUSION_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run_vm_with_fusion(src: &str, fuse: bool) -> (String, String) {
    let prev = curare_lisp::fusion_enabled();
    curare_lisp::set_fusion_enabled(fuse);
    let r = run_engine(src, Engine::Vm);
    curare_lisp::set_fusion_enabled(prev);
    r
}

#[test]
fn random_programs_agree_without_fusion() {
    let _guard = FUSION_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for case in 0..300 {
        let src = gen_program(&mut rng);
        let fused = run_vm_with_fusion(&src, true);
        let unfused = run_vm_with_fusion(&src, false);
        assert_eq!(fused, unfused, "fused/unfused VM divergence on random case {case}:\n{src}");
        let tree = run_engine(&src, Engine::Tree);
        assert_eq!(tree, unfused, "tree/--no-fuse divergence on random case {case}:\n{src}");
    }
}

/// End-to-end check of the block-boundary rule: `(and a b)` makes the
/// merge point of the `if` a jump target, so the compiled code keeps a
/// dispatch slot there, and the fused function still agrees with the
/// tree-walker on every input combination.
#[test]
fn fusion_respects_branch_targets_end_to_end() {
    let _guard = FUSION_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let prev = curare_lisp::fusion_enabled();
    curare_lisp::set_fusion_enabled(true);
    for (a, b) in [("1", "2"), ("1", "nil"), ("nil", "2"), ("nil", "nil")] {
        let src = format!("(defun f (a b) (if (and a b) (+ 10 1) 2)) (f {a} {b})");
        let tree = run_engine(&src, Engine::Tree);
        let vm = run_engine(&src, Engine::Vm);
        assert_eq!(tree, vm, "divergence on f({a}, {b})");
    }
    curare_lisp::set_fusion_enabled(prev);
}
