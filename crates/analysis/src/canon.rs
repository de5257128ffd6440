//! Path canonicalization (paper §2.1).
//!
//! Benign aliasing — e.g. a doubly-linked structure whose `succ` and
//! `pred` fields invert each other — creates infinitely many paths to
//! each node. The canonicalization function `C` rewrites a path to a
//! unique representative by deleting adjacent inverse pairs:
//!
//! ```text
//! C(... (Ix succ Iy) (Iy pred Ix) ...) ⇒ C(... ...)
//! ```
//!
//! Inverse pairs come from `(curare-declare (inverse succ pred))`
//! declarations resolved against the struct types the program's
//! `defstruct`s defined (`Program::structs`).

use crate::declare::DeclDb;
use crate::path::{Accessor, Path};
use curare_lisp::StructType;

/// A resolved canonicalizer: the set of unordered inverse accessor
/// pairs, as alphabet letters.
#[derive(Debug, Clone, Default)]
pub struct Canonicalizer {
    pairs: Vec<(Accessor, Accessor)>,
}

impl Canonicalizer {
    /// A canonicalizer with no inverse pairs (lists need none, §2.2).
    pub fn identity() -> Self {
        Self::default()
    }

    /// Add an inverse pair.
    pub fn add_pair(&mut self, a: Accessor, b: Accessor) {
        self.pairs.push((a, b));
    }

    /// Resolve declared inverse field names against a program's struct
    /// types. A name matches field `f` of type `T` when it equals the
    /// accessor name `T-f` or the bare field name `f`.
    pub fn from_decls(db: &DeclDb, structs: &[(u32, StructType)]) -> Self {
        let mut canon = Canonicalizer::default();
        for (a, b) in db.inverse_pairs() {
            for (la, lb) in resolve_letters(structs, a).into_iter().zip(resolve_letters(structs, b))
            {
                canon.add_pair(la, lb);
            }
        }
        canon
    }

    fn are_inverse(&self, a: Accessor, b: Accessor) -> bool {
        self.pairs.iter().any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Canonicalize `path`: repeatedly delete adjacent inverse pairs.
    /// One stack pass suffices (deleting a pair can only expose a new
    /// adjacent pair across the deletion point, which the stack top
    /// tracks).
    pub fn canonicalize(&self, path: &Path) -> Path {
        let mut stack: Vec<Accessor> = Vec::with_capacity(path.len());
        for &a in path.accessors() {
            match stack.last() {
                Some(&top) if self.are_inverse(top, a) => {
                    stack.pop();
                }
                _ => stack.push(a),
            }
        }
        Path::from(stack)
    }
}

/// All letters a declared accessor name could denote. Public so
/// `curare check` can flag declarations that resolve to nothing
/// (C003): `from_decls` skips such pairs silently, which silently
/// disables canonicalization for the structure they meant to cover.
pub fn resolve_letters(structs: &[(u32, StructType)], name: &str) -> Vec<Accessor> {
    let mut out = Vec::new();
    match name {
        "car" => out.push(Accessor::Car),
        "cdr" => out.push(Accessor::Cdr),
        _ => {
            for &(ty, ref st) in structs {
                for (i, f) in st.fields.iter().enumerate() {
                    if f == name || format!("{}-{}", st.name, f) == name {
                        out.push(Accessor::Field { ty, field: i as u32 });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    /// A program's struct registry holding the one type `dl`.
    fn dl(fields: &[&str]) -> [(u32, StructType); 1] {
        let fields = fields.iter().map(|f| f.to_string()).collect();
        [(0, StructType { name: "dl".into(), fields })]
    }

    fn letters() -> (Accessor, Accessor) {
        (Accessor::Field { ty: 0, field: 0 }, Accessor::Field { ty: 0, field: 1 })
    }

    #[test]
    fn identity_changes_nothing() {
        let c = Canonicalizer::identity();
        let p = Path::from([Accessor::Car, Accessor::Cdr]);
        assert_eq!(c.canonicalize(&p), p);
    }

    #[test]
    fn adjacent_pairs_cancel() {
        let (succ, pred) = letters();
        let mut c = Canonicalizer::identity();
        c.add_pair(succ, pred);
        // succ.pred ⇒ ε
        assert_eq!(c.canonicalize(&Path::from([succ, pred])), Path::empty());
        // pred.succ ⇒ ε (inverse is symmetric)
        assert_eq!(c.canonicalize(&Path::from([pred, succ])), Path::empty());
        // succ.succ.pred ⇒ succ
        assert_eq!(c.canonicalize(&Path::from([succ, succ, pred])), Path::from([succ]));
    }

    #[test]
    fn cancellation_cascades() {
        let (succ, pred) = letters();
        let mut c = Canonicalizer::identity();
        c.add_pair(succ, pred);
        // succ succ pred pred ⇒ ε (inner pair exposes outer pair).
        assert_eq!(c.canonicalize(&Path::from([succ, succ, pred, pred])), Path::empty());
    }

    #[test]
    fn non_inverse_neighbors_stay() {
        let (succ, pred) = letters();
        let mut c = Canonicalizer::identity();
        c.add_pair(succ, pred);
        let p = Path::from([succ, succ]);
        assert_eq!(c.canonicalize(&p), p);
    }

    #[test]
    fn same_location_after_detour() {
        let (succ, pred) = letters();
        let mut c = Canonicalizer::identity();
        c.add_pair(succ, pred);
        // x.succ and x.succ.succ.pred name the same node.
        assert_eq!(c.canonicalize(&Path::from([succ, succ, pred])), Path::from([succ]));
        assert_ne!(c.canonicalize(&Path::from([pred])), Path::from([succ]));
    }

    #[test]
    fn from_declarations_and_heap() {
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one("(curare-declare (inverse succ pred))").unwrap()).unwrap();
        let c = Canonicalizer::from_decls(&db, &dl(&["succ", "pred", "value"]));
        let succ = Accessor::Field { ty: 0, field: 0 };
        let pred = Accessor::Field { ty: 0, field: 1 };
        assert_eq!(c.canonicalize(&Path::from([succ, pred])), Path::empty());
    }

    #[test]
    fn qualified_names_resolve() {
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one("(curare-declare (inverse dl-succ dl-pred))").unwrap()).unwrap();
        let c = Canonicalizer::from_decls(&db, &dl(&["succ", "pred"]));
        let succ = Accessor::Field { ty: 0, field: 0 };
        let pred = Accessor::Field { ty: 0, field: 1 };
        assert_eq!(c.canonicalize(&Path::from([succ, pred])), Path::empty());
    }
}
