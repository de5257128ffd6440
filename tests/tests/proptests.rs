//! Property batteries across the whole pipeline: sequentializability
//! of generated walkers, conflict distances against a closed form,
//! transformed output that reparses, and simulator bounds. The input
//! spaces of the first three are small enough to enumerate; the
//! simulator's is sampled from a fixed seed.
//!
//! (`display` reading back `equal` moved to the lisp crate's
//! `interp_properties::list_algebra`, next to the other list laws.)

use curare::prelude::*;
use curare_testkit::{agree, nth_cdr, Config, Output, Program, Rng, Walker};

/// Every walker of the kit's family, once transformed, leaves the same
/// heap and root value concurrently as the original does sequentially,
/// and prints the same multiset of atoms (lines may interleave across
/// servers).
#[test]
fn generated_walkers_are_sequentializable() {
    for walker in Walker::family() {
        let out = Curare::new().transform_source(&walker.source()).unwrap();
        let report = out.report("w").unwrap();
        assert!(report.converted, "{walker:?}: {}", report.feedback());
        for len in [1, 2, 7, 59] {
            let program = Program { output: Output::Multiset, ..walker.program(len) };
            agree(&program, &[Config::pool(3, SchedMode::Sharded)]);
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
    let mut rng = Rng::new(0x5EED_0001_51B0_0B5E);
    let mut below = |n: u64| rng.below(n as usize) as u64;
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
