//! Property batteries across the whole pipeline: sequentializability
//! of generated walkers, conflict distances against a closed form,
//! transformed output that reparses, and simulator bounds. The input
//! spaces of the first three are small enough to enumerate; the
//! simulator's is sampled from a fixed seed.
//!
//! (`display` reading back `equal` moved to the lisp crate's
//! `interp_properties::list_algebra`, next to the other list laws.)

use std::sync::Arc;

use curare::prelude::*;

/// `(cdr (cdr … l))`, `n` deep.
fn nth_cdr(n: usize) -> String {
    (0..n).fold("l".to_string(), |place, _| format!("(cdr {place})"))
}

/// What a walker's body may be wrapped in: every spelling of "if the
/// list is not empty" the restructurer reads, each a prefix and the
/// parentheses that close it.
const WRAPPERS: [(&str, &str); 7] = [
    ("(when l ", ")"),
    ("(unless (null l) ", ")"),
    ("(if l (progn ", "))"),
    ("(cond (l ", "))"),
    ("(let ((c l)) (when c ", "))"),
    ("(let* ((c l) (d c)) (when d ", "))"),
    ("(and l (progn ", "))"),
];

/// A well-formed walker: `head_prints` head prints, an optional
/// guarded in-head write `write_offset` cells ahead, recursion by
/// `step` cells. With a `wrapper` that is the whole body; with none,
/// the write and the call sit in a `while` loop the entry invocation
/// goes round twice (its counter `k` is 2 at the root and 0 in every
/// spawned invocation), the write counting up in place so that the
/// second trip's spawn must see what the first one's did not.
fn walker_source(
    wrapper: Option<(&str, &str)>,
    head_prints: usize,
    write_offset: Option<usize>,
    step: usize,
) -> String {
    let mut body = "(princ (car l)) ".repeat(head_prints);
    let write = write_offset.map(nth_cdr).map(|place| match wrapper {
        Some(_) => format!("(when {place} (setf (car {place}) (+ 1 (car l)))) "),
        None => format!("(when {place} (setf (car {place}) (+ 1 (car {place})))) "),
    });
    let (write, next) = (write.unwrap_or_default(), nth_cdr(step));
    match wrapper {
        Some((open, close)) => format!("(defun w (l) {open}{body}{write}(w {next}){close})"),
        None => {
            body.push_str(&format!("(while (> k 0) (setq k (- k 1)) {write}(w {next} 0))"));
            format!("(defun w (l k) (when l {body}))")
        }
    }
}

fn descending(interp: &Interp, len: usize) -> Value {
    (0..len).fold(Value::NIL, |l, i| interp.heap().cons(Value::int(i as i64), l))
}

/// Every walker of the family, once transformed, leaves the same heap
/// concurrently as the original does sequentially, and prints the same
/// multiset of atoms (lines may interleave across servers).
#[test]
fn generated_walkers_are_sequentializable() {
    let mut family = Vec::new();
    for wrapper in WRAPPERS.into_iter().map(Some).chain([None]) {
        for head_prints in 0..3 {
            for write_offset in [None, Some(0), Some(1), Some(2)] {
                for step in 1..3 {
                    family.push((wrapper, head_prints, write_offset, step));
                }
            }
        }
    }
    for (wrapper, head_prints, write_offset, step) in family {
        let src = walker_source(wrapper, head_prints, write_offset, step);
        let out = Curare::new().transform_source(&src).unwrap();
        let report = out.report("w").unwrap();
        assert!(report.converted, "{src}: {}", report.feedback);
        let counter = wrapper.is_none().then_some(Value::int(2));
        for len in [1, 2, 7, 59] {
            let seq = Interp::new();
            seq.load_str(&src).unwrap();
            let seq_l = descending(&seq, len);
            seq.call("w", &[seq_l].into_iter().chain(counter).collect::<Vec<_>>()).unwrap();
            let mut expect_out = seq.take_output();

            let interp = Arc::new(Interp::new());
            interp.load_str(&out.source()).unwrap();
            let rt = CriRuntime::new(Arc::clone(&interp), 3);
            let l = descending(&interp, len);
            rt.run("w", &[l].into_iter().chain(counter).collect::<Vec<_>>()).unwrap();
            assert_eq!(interp.heap().display(l), seq.heap().display(seq_l), "len {len}: {src}");
            let mut got_out = interp.take_output();
            got_out.sort();
            expect_out.sort();
            assert_eq!(got_out, expect_out, "len {len}: printed output diverged for {src}");
        }
    }
}

/// A writer `k` cells ahead recursing by `step`: the regex machinery's
/// minimum conflict distance is `k/step` when `step` divides `k`, and
/// there is no conflict otherwise.
#[test]
fn conflict_distance_matches_the_closed_form() {
    for k in 1..5 {
        for step in 1..3 {
            let src = format!(
                "(defun w (l) (when l (setf (car {}) (car l)) (w {})))",
                nth_cdr(k),
                nth_cdr(step)
            );
            let heap = Heap::new();
            let mut lw = curare::lisp::Lowerer::new(&heap);
            let prog = lw.lower_program(&parse_all(&src).unwrap()).unwrap();
            let a = analyze_function(&prog.funcs[0], &DeclDb::new());
            let expected = (k % step == 0).then_some(k / step);
            assert_eq!(a.conflicts.min_distance, expected, "k={k} step={step}");
        }
    }
}

/// The transformer's output reparses, and transforming it again does
/// not fail.
#[test]
fn transformed_output_always_reparses() {
    for pad in 0..4 {
        for body in ["(setf (cadr l) (car l)) ", "(princ (car l)) "] {
            let head = "(princ 0) ".repeat(pad);
            let src = format!("(defun w (l) (when l {head}{body}(w (cdr l))))");
            let out = Curare::new().transform_source(&src).unwrap();
            assert!(parse_all(&out.source()).is_ok(), "output failed to reparse: {}", out.source());
            assert!(Curare::new().transform_source(&out.source()).is_ok(), "{}", out.source());
        }
    }
}

/// The simulator's achieved concurrency never exceeds the §3.1 bound,
/// the conflict-distance bound, or the server count, and a run is
/// never faster than its sequential work divided by its servers.
#[test]
fn simulator_respects_bounds() {
    let mut state: u64 = 0x5EED_0001_51B0_0B5E;
    let mut below = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for _ in 0..500 {
        let (h, t, servers, depth) = (1 + below(7), below(32), 1 + below(31), 1 + below(1999));
        let dc = (below(2) == 0).then(|| 1 + below(7));
        let mut cfg = SimConfig::new(depth, servers, h, t);
        if let Some(d) = dc {
            cfg = cfg.with_conflict_distance(d);
        }
        let r = simulate(&cfg);
        let case = format!("h={h} t={t} servers={servers} depth={depth} dc={dc:?}");
        assert!(r.achieved_concurrency <= (h + t) as f64 / h as f64 + 1e-9, "{case}");
        assert!(r.achieved_concurrency <= dc.unwrap_or(u64::MAX) as f64 + 1e-9, "{case}");
        assert!(r.achieved_concurrency <= servers as f64 + 1e-9, "{case}");
        assert!(r.total_time >= (depth * (h + t)).div_ceil(servers), "{case}");
    }
}
