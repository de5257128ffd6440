//! The single access path property checker (paper §2.1).
//!
//! "An instance of a structure I has the single access path property
//! (SAPP) if there exists only one canonical path to any instance in
//! accessible(I). In effect, this property requires that instances
//! form a tree rather than a general graph. We are measuring how often
//! this occurs in Lisp programs."
//!
//! The checker walks a live heap graph from a root and reports every
//! node reachable by two distinct canonical paths (sharing) or by a
//! path revisiting the node (cycle).

use std::collections::HashMap;

use curare_lisp::{Heap, Val, Value};

use crate::canon::Canonicalizer;
use crate::path::{Accessor, Path};

/// One SAPP violation: a node reachable via two canonical paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SappViolation {
    /// Printed form of the shared node (truncated).
    pub node: String,
    /// First canonical path that reached it.
    pub first: Path,
    /// Second canonical path that reached it.
    pub second: Path,
    /// True when the second path extends the first (a cycle).
    pub cycle: bool,
}

/// The checker's verdict for one root.
#[derive(Debug, Clone)]
pub struct SappReport {
    /// True when the reachable graph is a tree under canonicalization.
    pub holds: bool,
    /// Violations found (capped).
    pub violations: Vec<SappViolation>,
    /// Number of nodes visited.
    pub visited: usize,
}

const MAX_VIOLATIONS: usize = 16;

/// Check the SAPP for the graph reachable from `root`.
pub fn check_sapp(heap: &Heap, root: Value, canon: &Canonicalizer) -> SappReport {
    let mut seen: HashMap<u64, Path> = HashMap::new();
    let mut violations = Vec::new();
    let mut work: Vec<(Value, Path)> = vec![(root, Path::empty())];
    let mut visited = 0usize;

    while let Some((v, path)) = work.pop() {
        let key = v.bits();
        let node_id = match v.decode() {
            Val::Cons(_) | Val::Struct(_) => key,
            // Atoms have no fields; sharing of atoms is not aliasing.
            _ => continue,
        };
        let cpath = canon.canonicalize(&path);
        if let Some(first) = seen.get(&node_id) {
            if *first != cpath && violations.len() < MAX_VIOLATIONS {
                violations.push(SappViolation {
                    node: truncate(&heap.display(v)),
                    first: first.clone(),
                    cycle: first.is_prefix_of(&cpath),
                    second: cpath,
                });
            }
            continue;
        }
        seen.insert(node_id, cpath);
        visited += 1;
        match v.decode() {
            Val::Cons(id) => {
                let mut p_car = path.clone();
                p_car.push(Accessor::Car);
                work.push((heap.car_of(id), p_car));
                let mut p_cdr = path.clone();
                p_cdr.push(Accessor::Cdr);
                work.push((heap.cdr_of(id), p_cdr));
            }
            Val::Struct(_) => {
                let ty = heap.struct_type_of(v).expect("struct decode");
                let nfields = heap.struct_type(ty).fields.len();
                for i in 0..nfields {
                    let mut p = path.clone();
                    p.push(Accessor::Field { ty, field: i as u32 });
                    work.push((heap.struct_ref(v, i).expect("field in range"), p));
                }
            }
            _ => unreachable!("filtered above"),
        }
    }

    SappReport { holds: violations.is_empty(), violations, visited }
}

fn truncate(s: &str) -> String {
    if s.len() > 60 {
        format!("{}…", &s[..60])
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_list_satisfies_sapp() {
        let h = Heap::new();
        let l = h.list(&[Value::int(1), Value::int(2), Value::int(3)]);
        let r = check_sapp(&h, l, &Canonicalizer::identity());
        assert!(r.holds, "{r:?}");
        assert_eq!(r.visited, 3);
    }

    #[test]
    fn shared_substructure_violates() {
        let h = Heap::new();
        let shared = h.list(&[Value::int(9)]);
        let a = h.cons(shared, shared);
        let r = check_sapp(&h, a, &Canonicalizer::identity());
        assert!(!r.holds);
        assert_eq!(r.violations.len(), 1);
        assert!(!r.violations[0].cycle);
    }

    #[test]
    fn cycle_violates_and_is_flagged() {
        let h = Heap::new();
        let c = h.cons(Value::int(1), Value::NIL);
        h.set_cdr(c, c).unwrap();
        let r = check_sapp(&h, c, &Canonicalizer::identity());
        assert!(!r.holds);
        assert!(r.violations[0].cycle, "{r:?}");
    }

    #[test]
    fn atoms_do_not_count_as_sharing() {
        let h = Heap::new();
        let x = Value::int(5);
        let l = h.list(&[x, x, x]);
        assert!(check_sapp(&h, l, &Canonicalizer::identity()).holds);
        // Shared symbols are fine too.
        let s = h.sym_value("a");
        let l2 = h.list(&[s, s]);
        assert!(check_sapp(&h, l2, &Canonicalizer::identity()).holds);
    }

    #[test]
    fn tree_of_structs_satisfies() {
        let h = Heap::new();
        let ty = h.define_struct_type("node", &["l".into(), "r".into(), "v".into()]);
        let leaf1 = h.make_struct(ty, &[Value::NIL, Value::NIL, Value::int(1)]);
        let leaf2 = h.make_struct(ty, &[Value::NIL, Value::NIL, Value::int(2)]);
        let root = h.make_struct(ty, &[leaf1, leaf2, Value::int(0)]);
        assert!(check_sapp(&h, root, &Canonicalizer::identity()).holds);

        // DAG: both children point at leaf1.
        let dag = h.make_struct(ty, &[leaf1, leaf1, Value::int(0)]);
        assert!(!check_sapp(&h, dag, &Canonicalizer::identity()).holds);
    }

    #[test]
    fn doubly_linked_list_passes_with_canonicalization() {
        // Two nodes linked succ/pred both ways: a graph, but the
        // declared inverse makes the back-path canonical-equal.
        let h = Heap::new();
        let ty = h.define_struct_type("dl", &["succ".into(), "pred".into()]);
        let a = h.make_struct(ty, &[Value::NIL, Value::NIL]);
        let b = h.make_struct(ty, &[Value::NIL, Value::NIL]);
        h.struct_set(a, 0, b).unwrap();
        h.struct_set(b, 1, a).unwrap();

        // Without the declaration: violation (a reachable as ε and as
        // succ.pred).
        let r_plain = check_sapp(&h, a, &Canonicalizer::identity());
        assert!(!r_plain.holds);

        // With (inverse succ pred): holds.
        let mut canon = Canonicalizer::identity();
        canon.add_pair(Accessor::Field { ty, field: 0 }, Accessor::Field { ty, field: 1 });
        let r = check_sapp(&h, a, &canon);
        assert!(r.holds, "{r:?}");
    }

    #[test]
    fn nil_root_is_trivially_fine() {
        let h = Heap::new();
        let r = check_sapp(&h, Value::NIL, &Canonicalizer::identity());
        assert!(r.holds);
        assert_eq!(r.visited, 0);
    }
}
