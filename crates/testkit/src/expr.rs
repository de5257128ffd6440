//! The expression level: small programs over the evaluator's core
//! forms, for the differential between the tree-walker and the VM
//! (and the compiler's rewrites and fusion) and the front end's
//! totality.

use crate::Rng;

/// `(op e e …)` over `n` generated operands.
fn call(rng: &mut Rng, op: &str, n: usize, mut operand: impl FnMut(&mut Rng) -> String) -> String {
    let operands: Vec<String> = (0..n).map(|_| operand(rng)).collect();
    format!("({op} {})", operands.join(" "))
}

/// `(op a b)` where, one time in four, `b` is `a` again: an operand
/// against itself is the boundary of every order test (`(< a a)` is
/// false, `(<= a a)` true), which two literals drawn from ±1000 almost
/// never are.
fn comparison(rng: &mut Rng, op: &str, mut operand: impl FnMut(&mut Rng) -> String) -> String {
    let a = operand(rng);
    let b = if rng.below(4) == 0 { a.clone() } else { operand(rng) };
    format!("({op} {a} {b})")
}

/// A random expression over the variables in `scope`. The grammar may
/// produce programs that error (overflow, type errors, car of an
/// atom): every engine must then report the same error.
fn expr(rng: &mut Rng, scope: &mut Vec<String>, depth: usize) -> String {
    if depth == 0 || rng.below(6) == 0 {
        return match rng.below(4) {
            0 => format!("{}", rng.next() as i64 % 1000),
            1 if !scope.is_empty() => rng.pick(scope).clone(),
            2 => "nil".to_string(),
            _ => format!("'s{}", rng.below(4)),
        };
    }
    let bound = !scope.is_empty();
    let mut sub = |rng: &mut Rng| expr(rng, scope, depth - 1);
    match rng.below(12) {
        0 => {
            let op = rng.pick(&["+", "-", "*", "min", "max"]).to_string();
            call(rng, &op, 2, sub)
        }
        1 => {
            let op = rng.pick(&["<", ">", "<=", ">=", "=", "eq", "equal"]).to_string();
            comparison(rng, &op, sub)
        }
        2 => call(rng, "if", 3, sub),
        3 => {
            let var = format!("v{}", scope.len());
            let init = expr(rng, scope, depth - 1);
            scope.push(var.clone());
            let body = expr(rng, scope, depth - 1);
            scope.pop();
            format!("(let (({var} {init})) {body})")
        }
        4 => call(rng, "cons", 2, sub),
        5 => {
            let op = rng.pick(&["car", "cdr", "null", "consp", "atom", "1+", "1-", "identity"]);
            call(rng, op, 1, sub)
        }
        6 => call(rng, "list", 3, sub),
        7 => {
            let n = 1 + rng.below(3);
            call(rng, "progn", n, sub)
        }
        8 => {
            let op = rng.pick(&["and", "or"]).to_string();
            call(rng, &op, 2, sub)
        }
        9 if bound => {
            let var = rng.pick(scope).clone();
            format!("(setq {var} {})", expr(rng, scope, depth - 1))
        }
        10 => {
            // A sequential let with two bindings, the second reading
            // the first.
            let a = format!("v{}", scope.len());
            let init = expr(rng, scope, depth - 1);
            scope.push(a.clone());
            let b = format!("v{}", scope.len());
            let init2 = expr(rng, scope, depth - 1);
            scope.push(b.clone());
            let body = expr(rng, scope, depth - 1);
            scope.pop();
            scope.pop();
            format!("(let* (({a} {init}) ({b} {init2})) {body})")
        }
        _ => format!("(append (list {}) (list {}))", sub(rng), sub(rng)),
    }
}

/// A random program: a few helper functions (each may call the ones
/// defined before it — no recursion, so termination is structural),
/// then a toplevel expression invoking the last helper, whose value is
/// the program's.
pub fn program(rng: &mut Rng) -> String {
    let mut out = String::new();
    let nfuncs = 1 + rng.below(3);
    for i in 0..nfuncs {
        let mut scope = vec!["a".to_string(), "b".to_string()];
        let mut body = expr(rng, &mut scope, 3);
        if i > 0 && rng.below(2) == 0 {
            let callee = rng.below(i);
            body = format!("(f{callee} {body} {})", expr(rng, &mut scope, 2));
        }
        out.push_str(&format!("(defun f{i} (a b) {body})\n"));
    }
    let mut scope = Vec::new();
    out.push_str(&format!(
        "(f{} {} {})",
        nfuncs - 1,
        expr(rng, &mut scope, 2),
        expr(rng, &mut scope, 2)
    ));
    out
}

/// A small, always-well-formed arithmetic and list expression; `x` is
/// used only where a `let` binds it. The only possible error is
/// overflow in a `*` chain.
pub fn arith(rng: &mut Rng, x_bound: bool, depth: usize) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return if x_bound && rng.below(2) == 0 { "x".into() } else { rng.int(1000).to_string() };
    }
    let sub = |rng: &mut Rng| arith(rng, x_bound, depth - 1);
    match rng.below(9) {
        0 => {
            let n = 1 + rng.below(3);
            call(rng, "+", n, sub)
        }
        1 => call(rng, "-", 2, sub),
        2 => {
            let n = 1 + rng.below(2);
            call(rng, "*", n, sub)
        }
        3 => {
            let n = 1 + rng.below(3);
            call(rng, "min", n, sub)
        }
        4 => {
            let n = 1 + rng.below(3);
            call(rng, "max", n, sub)
        }
        5 => format!("(if (> {} 0) {} {})", sub(rng), sub(rng), sub(rng)),
        6 => {
            let n = rng.below(3);
            format!("(length {})", call(rng, "list", n, sub))
        }
        7 => format!("(car (cons {} {}))", sub(rng), sub(rng)),
        _ => format!("(let ((x {})) {})", sub(rng), arith(rng, true, depth - 1)),
    }
}

/// Sugar-heavy expressions (`let*`/`cond`/`and`/`or`/`when`/`unless`)
/// with `vars` sequentially bound variables x0..x(vars-1) in scope.
pub fn sugar(rng: &mut Rng, vars: usize, depth: usize) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return if vars > 0 && rng.below(2) == 0 {
            format!("x{}", rng.below(vars))
        } else {
            rng.int(1000).to_string()
        };
    }
    let sub = |rng: &mut Rng| sugar(rng, vars, depth - 1);
    match rng.below(10) {
        0 => call(rng, "+", 2, sub),
        1 => call(rng, "-", 2, sub),
        2 => comparison(rng, "<", sub),
        3 => {
            let n = rng.below(4);
            call(rng, "and", n, sub)
        }
        4 => {
            let n = rng.below(4);
            call(rng, "or", n, sub)
        }
        5 => {
            let mut clauses: Vec<String> =
                (0..rng.below(3)).map(|_| format!("({} {})", sub(rng), sub(rng))).collect();
            clauses.push(format!("(t {})", sub(rng)));
            format!("(cond {})", clauses.join(" "))
        }
        6 => {
            let n = 1 + rng.below(3);
            let binds: Vec<String> = (0..n)
                .map(|i| format!("(x{} {})", vars + i, sugar(rng, vars + i, depth - 1)))
                .collect();
            format!("(let* ({}) {})", binds.join(" "), sugar(rng, vars + n, depth - 1))
        }
        7 => call(rng, "when", 2, sub),
        8 => call(rng, "unless", 2, sub),
        _ => {
            let n = 1 + rng.below(3);
            call(rng, "progn", n, sub)
        }
    }
}
