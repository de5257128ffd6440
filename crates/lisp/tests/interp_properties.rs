//! Seeded property battery for the mini-Lisp substrate: evaluation
//! determinism, HIR desugaring against the tree-walker, numeric and
//! list algebra, and a lowerer that is total on arbitrary input.
//!
//! Engine agreement on random programs is `engine_differential.rs`'s
//! `random_programs_agree`, over a richer grammar than this one.

use curare_lisp::{Engine, Heap, Interp, Lowerer, Value};
use curare_sexpr::parse_all;

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

    /// An integer in `-bound..bound`.
    fn int(&mut self, bound: i64) -> i64 {
        (self.next() % (2 * bound as u64)) as i64 - bound
    }

    fn ints(&mut self, bound: i64, min_len: usize, max_len: usize) -> Vec<i64> {
        (0..min_len + self.pick(max_len - min_len)).map(|_| self.int(bound)).collect()
    }
}

/// `(op e e …)` over `n` generated operands.
fn call(op: &str, n: usize, mut operand: impl FnMut() -> String) -> String {
    let operands: Vec<String> = (0..n).map(|_| operand()).collect();
    format!("({op} {})", operands.join(" "))
}

/// A small, always-well-formed arithmetic and list expression; `x` is
/// used only where a `let` binds it. The only possible error is
/// overflow in a `*` chain.
fn gen_arith(rng: &mut XorShift, x_bound: bool, depth: usize) -> String {
    if depth == 0 || rng.pick(4) == 0 {
        return if x_bound && rng.pick(2) == 0 { "x".into() } else { rng.int(1000).to_string() };
    }
    let sub = |rng: &mut XorShift| gen_arith(rng, x_bound, depth - 1);
    match rng.pick(9) {
        0 => call("+", 1 + rng.pick(3), || sub(rng)),
        1 => call("-", 2, || sub(rng)),
        2 => call("*", 1 + rng.pick(2), || sub(rng)),
        3 => call("min", 1 + rng.pick(3), || sub(rng)),
        4 => call("max", 1 + rng.pick(3), || sub(rng)),
        5 => format!("(if (> {} 0) {} {})", sub(rng), sub(rng), sub(rng)),
        6 => format!("(length {})", call("list", rng.pick(3), || sub(rng))),
        7 => format!("(car (cons {} {}))", sub(rng), sub(rng)),
        _ => format!("(let ((x {})) {})", sub(rng), gen_arith(rng, true, depth - 1)),
    }
}

/// Sugar-heavy expressions (`let*`/`cond`/`and`/`or`/`when`/`unless`)
/// with `vars` sequentially bound variables x0..x(vars-1) in scope.
fn gen_sugar(rng: &mut XorShift, vars: usize, depth: usize) -> String {
    if depth == 0 || rng.pick(4) == 0 {
        return if vars > 0 && rng.pick(2) == 0 {
            format!("x{}", rng.pick(vars))
        } else {
            rng.int(1000).to_string()
        };
    }
    let sub = |rng: &mut XorShift| gen_sugar(rng, vars, depth - 1);
    match rng.pick(10) {
        0 => call("+", 2, || sub(rng)),
        1 => call("-", 2, || sub(rng)),
        2 => call("<", 2, || sub(rng)),
        3 => call("and", rng.pick(4), || sub(rng)),
        4 => call("or", rng.pick(4), || sub(rng)),
        5 => {
            let mut clauses: Vec<String> =
                (0..rng.pick(3)).map(|_| format!("({} {})", sub(rng), sub(rng))).collect();
            clauses.push(format!("(t {})", sub(rng)));
            format!("(cond {})", clauses.join(" "))
        }
        6 => {
            let n = 1 + rng.pick(3);
            let binds: Vec<String> = (0..n)
                .map(|i| format!("(x{} {})", vars + i, gen_sugar(rng, vars + i, depth - 1)))
                .collect();
            format!("(let* ({}) {})", binds.join(" "), gen_sugar(rng, vars + n, depth - 1))
        }
        7 => call("when", 2, || sub(rng)),
        8 => call("unless", 2, || sub(rng)),
        _ => call("progn", 1 + rng.pick(3), || sub(rng)),
    }
}

/// Evaluate in a fresh interpreter to a display string; `None` on
/// error (errors compare as `None`: a rewritten program may raise the
/// same overflow under a different operator's name).
fn eval_display(src: &str, engine: Engine) -> Option<String> {
    let it = Interp::new();
    it.set_engine(engine);
    it.load_str(src).ok().map(|v| it.heap().display(v))
}

fn int_list(it: &Interp, xs: &[i64]) -> Value {
    it.heap().list(&xs.iter().map(|&i| Value::int(i)).collect::<Vec<_>>())
}

/// Evaluation is a function of the program, not of interpreter state.
#[test]
fn evaluation_is_deterministic() {
    let mut rng = XorShift(0x5EED_0001_1157_C0DE);
    for case in 0..200 {
        let src = gen_arith(&mut rng, false, 4);
        let value = eval_display(&src, Engine::Vm);
        assert_eq!(value, eval_display(&src, Engine::Vm), "case {case}: {src}");
    }
}

/// Desugaring (sugar chains plus constant folding) keeps the meaning
/// the tree-walker gives the program: a function body reaches the VM
/// only through lower → `hir::desugar` → compile, the tree-walker runs
/// the lowered tree as it is, and the two must print the same.
#[test]
fn desugar_preserves_tree_semantics() {
    let mut rng = XorShift(0x5EED_0002_1157_C0DE);
    for case in 0..300 {
        let src = gen_sugar(&mut rng, 0, 4);
        let program = format!("(defun g () {src}) (g)");
        assert_eq!(
            eval_display(&program, Engine::Tree),
            eval_display(&program, Engine::Vm),
            "case {case}: desugar changed semantics: {src}"
        );
    }
}

/// Integer arithmetic agrees with Rust's on flat sums and minima.
#[test]
fn flat_arithmetic_matches_rust() {
    let mut rng = XorShift(0x5EED_0003_1157_C0DE);
    for _ in 0..100 {
        let xs = rng.ints(10_000, 1, 8);
        let operands = xs.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
        let sum: i64 = xs.iter().sum();
        assert_eq!(eval_display(&format!("(+ {operands})"), Engine::Vm), Some(sum.to_string()));
        let min = xs.iter().min().expect("nonempty");
        assert_eq!(eval_display(&format!("(min {operands})"), Engine::Vm), Some(min.to_string()));
    }
}

/// `(reverse (reverse l))` is `equal` to `l`; `append` adds lengths
/// and shares its last argument; `equal` is reflexive and
/// copy-invariant while `copy-list` is never `eq`; a quoted display
/// reads back `equal`.
#[test]
fn list_algebra() {
    let mut rng = XorShift(0x5EED_0004_1157_C0DE);
    for _ in 0..100 {
        let (xs, ys) = (rng.ints(100, 0, 12), rng.ints(100, 0, 12));
        let it = Interp::new();
        let (lx, ly) = (int_list(&it, &xs), int_list(&it, &ys));
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
    let mut rng = XorShift(0x5EED_0005_1157_C0DE);
    let printable: Vec<u8> = (b' '..=b'~').chain([b'\n']).collect();
    let shaped = b" abcxyz0123456789()'+*-";
    let heads = ["defun", "let", "let*", "cond", "setf", "setq", "lambda", "if", "defstruct"];
    for case in 0..3000 {
        let s: String = match case % 3 {
            0 => (0..rng.pick(81)).map(|_| printable[rng.pick(printable.len())] as char).collect(),
            1 => {
                let noise: String =
                    (0..rng.pick(81)).map(|_| shaped[rng.pick(shaped.len())] as char).collect();
                format!("({} {noise}", heads[rng.pick(heads.len())])
            }
            _ => {
                let mut bytes = format!(
                    "(defun f (a b) {}) (f {} {})",
                    gen_sugar(&mut rng, 0, 3),
                    gen_arith(&mut rng, false, 2),
                    gen_arith(&mut rng, false, 2)
                )
                .into_bytes();
                let at = rng.pick(bytes.len());
                if rng.pick(2) == 0 {
                    bytes.remove(at);
                } else {
                    bytes.insert(at, bytes[at]);
                }
                String::from_utf8(bytes).expect("generated programs are ASCII")
            }
        };
        if let Ok(forms) = parse_all(&s) {
            let heap = Heap::new();
            let _ = Lowerer::new(&heap).lower_program(&forms);
        }
    }
}
