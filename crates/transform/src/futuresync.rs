//! Future synchronization for post-call statements (paper §3.1).
//!
//! A statement that executes *after* a recursive call is, in the
//! sequential execution, ordered after **every** deeper invocation
//! (the recursion unwinds innermost-first). Neither head ordering nor
//! head-start locking can reproduce that order — but a Multilisp
//! future can: the call becomes `(touch (future (f args…)))`, so the
//! spawning invocation continues only after its whole subtree
//! finishes, exactly like the sequential unwind, while the enqueue
//! still routes every invocation through the server pool.
//!
//! This is the correctness backstop for conflicts the cheaper devices
//! (reorder §3.2.3, head ordering, delay §3.2.2) cannot dissolve; its
//! price is that tail statements serialize in unwind order, which
//! matches the simulator's prediction that reverse-ordered distance-1
//! conflicts admit essentially no concurrency.

use curare_sexpr::Sexpr;

use crate::shape::{self, Device, Pos};
use crate::sx;

/// Result of the future-sync transform.
#[derive(Debug, Clone)]
pub struct FutureSyncResult {
    /// The rewritten defun.
    pub form: Sexpr,
    /// Number of call sites wrapped in `(touch (future …))`.
    pub wrapped: usize,
}

/// Wrap every self-call that has work after it in its invocation.
pub fn future_sync(form: &Sexpr) -> Option<FutureSyncResult> {
    let parts = sx::parse_defun(form)?;
    let mut sync = Sync { fname: parts.name, wrapped: 0 };
    let body = shape::walk_body(&mut sync, &parts.body);
    if sync.wrapped == 0 {
        return None;
    }
    Some(FutureSyncResult {
        form: sx::make_defun(parts.name, &parts.params, &parts.declares, body),
        wrapped: sync.wrapped,
    })
}

struct Sync<'a> {
    fname: &'a str,
    wrapped: usize,
}

impl Device for Sync<'_> {
    fn fname(&self) -> &str {
        self.fname
    }

    /// A call whose value is consumed stays as it is: CRI conversion
    /// refuses it, and a future would not make its value meaningful.
    fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
        if !pos.follows || pos.is_value() {
            return call.clone();
        }
        self.wrapped += 1;
        sx::call("touch", vec![sx::call("future", vec![call.clone()])])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    #[test]
    fn post_call_statement_forces_touch() {
        let r = future_sync(
            &parse_one("(defun f (l) (when l (f (cdr l)) (setf (cdr l) (car l))))").unwrap(),
        )
        .expect("wraps");
        assert_eq!(r.wrapped, 1);
        assert_eq!(
            r.form.to_string(),
            "(defun f (l) (when l (touch (future (f (cdr l)))) (setf (cdr l) (car l))))"
        );
    }

    #[test]
    fn trailing_call_is_untouched() {
        assert!(future_sync(
            &parse_one("(defun f (l) (when l (print (car l)) (f (cdr l))))").unwrap()
        )
        .is_none());
    }

    #[test]
    fn cond_branches_handled() {
        let r = future_sync(
            &parse_one(
                "(defun f (l)
                   (cond ((null l) nil)
                         (t (f (cdr l)) (setf (car l) 1))))",
            )
            .unwrap(),
        )
        .expect("wraps");
        assert_eq!(r.wrapped, 1);
        assert!(r.form.to_string().contains("(touch (future (f (cdr l))))"));
    }

    #[test]
    fn calls_in_loops_always_sync() {
        let r = future_sync(
            &parse_one("(defun f (l) (while (consp l) (f (car l)) (setq l (cdr l))))").unwrap(),
        )
        .expect("wraps");
        assert_eq!(r.wrapped, 1);
    }

    #[test]
    fn sequential_semantics_preserved() {
        let src = "(defun f (l)
                     (when l
                       (f (cdr l))
                       (setf (cdr l) (car l))))";
        let r = future_sync(&parse_one(src).unwrap()).unwrap();
        let orig = curare_lisp::Interp::new();
        orig.load_str(src).unwrap();
        let synced = curare_lisp::Interp::new();
        synced.load_str(&r.form.to_string()).unwrap();
        for init in ["(list 1 2 3 4)", "nil", "(list 9)"] {
            let run = format!("(let ((d {init})) (f d) d)");
            let a = orig.load_str(&run).unwrap();
            let b = synced.load_str(&run).unwrap();
            assert_eq!(orig.heap().display(a), synced.heap().display(b), "{run}");
        }
    }

    #[test]
    fn cri_conversion_accepts_synced_output() {
        let r = future_sync(
            &parse_one("(defun f (l) (when l (f (cdr l)) (setf (cdr l) (car l))))").unwrap(),
        )
        .unwrap();
        // No direct calls remain to convert, but conversion must not
        // reject the future form.
        let cri = crate::cri::cri_convert(&r.form).unwrap();
        assert_eq!(cri.sites, 0);
        assert!(cri.form.to_string().contains("future"));
    }
}
