//! The declaration database (paper §6).
//!
//! Curare "relies upon a programmer for a wide variety of information
//! that it cannot collect by analyzing a program". Declarations appear
//! in two places:
//!
//! - top-level `(curare-declare clause...)` forms, and
//! - `(declare (curare clause...))` forms at the head of a `defun`.
//!
//! Supported clauses:
//!
//! | clause | meaning | paper |
//! |---|---|---|
//! | `(no-alias v...)` | the listed parameters are unaliased SAPP roots (checked for shape only: the analysis takes it as its premise for every parameter) | §2.1 |
//! | `(sapp v...)` | synonym of `no-alias` | §2.1 |
//! | `(inverse f g)` | accessors `f` and `g` are inverses (canonicalization) | §2.1 |
//! | `(reorderable op...)` | op is atomic+commutative+associative | §3.2.3 |
//! | `(unordered-insert op...)` | op inserts into an unordered structure | §3.2.3 |
//! | `(any-result f...)` | any result satisfying the search is acceptable | §3.2.3 |
//! | `(transform f...)` | restructure these functions | §6 |
//! | `(dont-transform f...)` | leave these functions alone | §6 |
//! | `(structural ty field...)` | fields point to instances of the same structure (checked for shape only: no analysis consults it) | §2.1 |
//! | `(locks f (exclusive v path)...)` | use this lock placement instead of synthesizing one | §3.2.1 |
//!
//! A `locks` clause asserts a read-write lock placement: each spec is
//! `(exclusive v path)` or `(shared v path)` where `v` is a parameter
//! of `f` and `path` a dotted list path such as `cdr.car`. Inside a
//! defun the function name is omitted. Declared placements are
//! *audited*, not trusted: `curare check --locks` certifies them
//! (C007 when a conflicting unordered pair is uncovered, C008 when a
//! lock covers no live conflict).

use std::collections::{HashMap, HashSet};

use curare_sexpr::Sexpr;

use crate::path::{parse_list_path, Path};

/// One lock of a declared placement: `(exclusive, root param name,
/// path)` — the tuple shape `locksynth::declared_placement` consumes.
pub type DeclaredLock = (bool, String, Path);

/// Errors from malformed declaration forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeclError(pub String);

impl std::fmt::Display for DeclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "declaration error: {}", self.0)
    }
}

impl std::error::Error for DeclError {}

/// Accumulated declarations, queried by the analyses and transforms.
#[derive(Debug, Clone, Default)]
pub struct DeclDb {
    /// Unordered pairs of inverse accessor names.
    inverses: Vec<(String, String)>,
    reorderable: HashSet<String>,
    unordered_insert: HashSet<String>,
    any_result: HashSet<String>,
    transform: HashSet<String>,
    dont_transform: HashSet<String>,
    /// Function name -> declared lock placement (§3.2.1).
    lock_placements: HashMap<String, Vec<DeclaredLock>>,
}

impl DeclDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest a top-level `(curare-declare clause...)` form.
    pub fn add_toplevel(&mut self, form: &Sexpr) -> Result<(), DeclError> {
        let Some(clauses) = form.call_args("curare-declare") else {
            return Err(DeclError(format!("not a curare-declare form: {form}")));
        };
        for clause in clauses {
            self.add_clause(clause, None)?;
        }
        Ok(())
    }

    /// Ingest a `(declare ...)` form attached to function `fname`.
    /// Only `(curare clause...)` sub-forms are interpreted; standard
    /// CL declarations (`type`, `optimize`, ...) are ignored.
    pub fn add_function_decl(&mut self, fname: &str, form: &Sexpr) -> Result<(), DeclError> {
        let Some(specs) = form.call_args("declare") else {
            return Err(DeclError(format!("not a declare form: {form}")));
        };
        for spec in specs {
            if let Some(clauses) = spec.call_args("curare") {
                for clause in clauses {
                    self.add_clause(clause, Some(fname))?;
                }
            }
        }
        Ok(())
    }

    fn add_clause(&mut self, clause: &Sexpr, fname: Option<&str>) -> Result<(), DeclError> {
        let Some(items) = clause.as_list() else {
            return Err(DeclError(format!("clause must be a list: {clause}")));
        };
        let Some(head) = items.first().and_then(Sexpr::as_symbol) else {
            return Err(DeclError(format!("clause head must be a symbol: {clause}")));
        };
        let syms = |items: &[Sexpr]| -> Result<Vec<String>, DeclError> {
            items
                .iter()
                .map(|s| {
                    s.as_symbol()
                        .map(str::to_string)
                        .ok_or_else(|| DeclError(format!("expected symbol in {clause}")))
                })
                .collect()
        };
        match head {
            "no-alias" | "sapp" => {
                if fname.is_none() {
                    return Err(DeclError(format!("{head} is only valid inside a defun")));
                }
                syms(&items[1..])?;
            }
            "inverse" => {
                let names = syms(&items[1..])?;
                let [a, b] = names.as_slice() else {
                    return Err(DeclError(format!(
                        "(inverse f g) expects two accessors: {clause}"
                    )));
                };
                self.inverses.push((a.clone(), b.clone()));
            }
            "reorderable" | "commutative" => self.reorderable.extend(syms(&items[1..])?),
            "unordered-insert" => self.unordered_insert.extend(syms(&items[1..])?),
            "any-result" => self.any_result.extend(syms(&items[1..])?),
            "transform" => self.transform.extend(syms(&items[1..])?),
            "dont-transform" => self.dont_transform.extend(syms(&items[1..])?),
            "structural" => {
                let names = syms(&items[1..])?;
                if names.is_empty() {
                    return Err(DeclError(format!("(structural ty field...) malformed: {clause}")));
                }
            }
            "locks" => {
                let rest = &items[1..];
                let (f, specs): (String, &[Sexpr]) = match fname {
                    Some(f) => (f.to_string(), rest),
                    None => {
                        let Some(f) = rest.first().and_then(Sexpr::as_symbol) else {
                            return Err(DeclError(format!(
                                "(locks f spec...) needs a function name at top level: {clause}"
                            )));
                        };
                        (f.to_string(), &rest[1..])
                    }
                };
                let mut placement = Vec::new();
                for spec in specs {
                    let Some(si) = spec.as_list() else {
                        return Err(DeclError(format!("lock spec must be a list: {spec}")));
                    };
                    let mode = si.first().and_then(Sexpr::as_symbol);
                    let exclusive = match mode {
                        Some("exclusive") => true,
                        Some("shared") => false,
                        _ => {
                            return Err(DeclError(format!(
                                "lock spec must start with exclusive or shared: {spec}"
                            )))
                        }
                    };
                    let (Some(root), Some(path_sym)) = (
                        si.get(1).and_then(Sexpr::as_symbol),
                        si.get(2).and_then(Sexpr::as_symbol),
                    ) else {
                        return Err(DeclError(format!(
                            "lock spec is (mode param path), e.g. (exclusive l cdr.car): {spec}"
                        )));
                    };
                    let Some(path) = parse_list_path(path_sym) else {
                        return Err(DeclError(format!(
                            "lock path must be dotted list accessors (car/cdr): {path_sym}"
                        )));
                    };
                    if path.is_empty() {
                        return Err(DeclError(format!(
                            "lock path ε names the root value, not a lockable location: {spec}"
                        )));
                    }
                    placement.push((exclusive, root.to_string(), path));
                }
                self.lock_placements.entry(f).or_default().extend(placement);
            }
            other => return Err(DeclError(format!("unknown declaration clause: {other}"))),
        }
        Ok(())
    }

    /// All inverse accessor pairs.
    pub fn inverse_pairs(&self) -> &[(String, String)] {
        &self.inverses
    }

    /// Is `op` declared atomic-commutative-associative?
    pub fn is_reorderable(&self, op: &str) -> bool {
        self.reorderable.contains(op)
    }

    /// Every op declared reorderable, sorted for stable output. A
    /// declaration naming an op that no function ever calls is inert —
    /// `add_clause` accepts it silently — so `curare check` walks this
    /// list against the program to flag stale declarations (C004).
    pub fn reorderable_ops(&self) -> Vec<&str> {
        let mut ops: Vec<&str> = self.reorderable.iter().map(String::as_str).collect();
        ops.sort_unstable();
        ops
    }

    /// Is `op` an unordered-structure insert?
    pub fn is_unordered_insert(&self, op: &str) -> bool {
        self.unordered_insert.contains(op)
    }

    /// Is `f` an any-result search?
    pub fn is_any_result(&self, f: &str) -> bool {
        self.any_result.contains(f)
    }

    /// Should `f` be transformed? `None` = no explicit declaration.
    pub fn transform_requested(&self, f: &str) -> Option<bool> {
        if self.dont_transform.contains(f) {
            Some(false)
        } else if self.transform.contains(f) {
            Some(true)
        } else {
            None
        }
    }

    /// The declared lock placement for `f`, if any.
    pub fn lock_placement(&self, f: &str) -> Option<&[DeclaredLock]> {
        self.lock_placements.get(f).map(Vec::as_slice)
    }

    /// Build a database from a lowered program's collected forms.
    pub fn from_program(prog: &curare_lisp::ast::Program) -> Result<Self, DeclError> {
        let mut db = DeclDb::new();
        for d in &prog.declarations {
            db.add_toplevel(d)?;
        }
        for f in &prog.funcs {
            for d in &f.declarations {
                db.add_function_decl(&f.name, d)?;
            }
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    #[test]
    fn toplevel_clauses() {
        let mut db = DeclDb::new();
        db.add_toplevel(
            &parse_one("(curare-declare (inverse succ pred) (reorderable +) (any-result find))")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(db.inverse_pairs(), [("succ".to_string(), "pred".to_string())]);
        assert!(db.is_reorderable("+"));
        assert!(!db.is_reorderable("-"));
        assert!(db.is_any_result("find"));
    }

    #[test]
    fn function_scoped_no_alias() {
        let mut db = DeclDb::new();
        db.add_function_decl("f", &parse_one("(declare (curare (no-alias l r)))").unwrap())
            .unwrap();
        let toplevel = parse_one("(curare-declare (no-alias l))").unwrap();
        assert!(db.add_toplevel(&toplevel).unwrap_err().0.contains("only valid inside a defun"));
    }

    #[test]
    fn standard_declarations_are_ignored() {
        let mut db = DeclDb::new();
        db.add_function_decl("f", &parse_one("(declare (type list l) (optimize speed))").unwrap())
            .unwrap();
        assert!(db.reorderable_ops().is_empty());
    }

    #[test]
    fn transform_flags() {
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one("(curare-declare (transform f) (dont-transform g))").unwrap())
            .unwrap();
        assert_eq!(db.transform_requested("f"), Some(true));
        assert_eq!(db.transform_requested("g"), Some(false));
        assert_eq!(db.transform_requested("h"), None);
    }

    #[test]
    fn structural_fields() {
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one("(curare-declare (structural node left right))").unwrap())
            .unwrap();
        let bare = parse_one("(curare-declare (structural))").unwrap();
        assert!(db.add_toplevel(&bare).unwrap_err().0.contains("malformed"));
    }

    #[test]
    fn unordered_insert() {
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one("(curare-declare (unordered-insert puthash))").unwrap())
            .unwrap();
        assert!(db.is_unordered_insert("puthash"));
    }

    #[test]
    fn errors_on_unknown_or_malformed() {
        let mut db = DeclDb::new();
        assert!(db.add_toplevel(&parse_one("(curare-declare (frobnicate x))").unwrap()).is_err());
        assert!(db
            .add_toplevel(&parse_one("(curare-declare (inverse just-one))").unwrap())
            .is_err());
        assert!(db.add_toplevel(&parse_one("(curare-declare (reorderable 42))").unwrap()).is_err());
        assert!(db.add_toplevel(&parse_one("(other-form)").unwrap()).is_err());
        // no-alias at top level is rejected (needs a function scope).
        assert!(db.add_toplevel(&parse_one("(curare-declare (no-alias l))").unwrap()).is_err());
    }

    #[test]
    fn stale_reorderable_declaration_is_accepted_but_visible() {
        // The database itself cannot know whether `frob` is ever
        // defined or called — add_clause accepts it without complaint
        // (this is the gap `curare check` C004 closes). What it must
        // provide is an enumerable, stable view of what was declared.
        let mut db = DeclDb::new();
        db.add_toplevel(&parse_one("(curare-declare (reorderable frob +))").unwrap()).unwrap();
        assert!(db.is_reorderable("frob"), "never-used op accepted silently");
        assert_eq!(db.reorderable_ops(), vec!["+", "frob"]);
        assert!(DeclDb::new().reorderable_ops().is_empty());
    }

    #[test]
    fn locks_clause_toplevel_and_function_scoped() {
        use crate::path::parse_list_path;
        let mut db = DeclDb::new();
        db.add_toplevel(
            &parse_one("(curare-declare (locks f (exclusive l cdr.car) (shared l car)))").unwrap(),
        )
        .unwrap();
        let p = db.lock_placement("f").expect("placement stored");
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], (true, "l".to_string(), parse_list_path("cdr.car").unwrap()));
        assert_eq!(p[1], (false, "l".to_string(), parse_list_path("car").unwrap()));
        assert!(db.lock_placement("g").is_none());

        let mut db = DeclDb::new();
        db.add_function_decl(
            "g",
            &parse_one("(declare (curare (locks (exclusive l car))))").unwrap(),
        )
        .unwrap();
        assert_eq!(db.lock_placement("g").unwrap().len(), 1);
    }

    #[test]
    fn malformed_locks_clauses_error() {
        let mut db = DeclDb::new();
        // Missing function name at top level.
        assert!(db
            .add_toplevel(&parse_one("(curare-declare (locks (exclusive l car)))").unwrap())
            .is_err());
        // Bad mode.
        assert!(db
            .add_toplevel(&parse_one("(curare-declare (locks f (upgradeable l car)))").unwrap())
            .is_err());
        // Non-list path.
        assert!(db
            .add_toplevel(&parse_one("(curare-declare (locks f (exclusive l next)))").unwrap())
            .is_err());
        // ε path.
        assert!(db
            .add_toplevel(&parse_one("(curare-declare (locks f (exclusive l ε)))").unwrap())
            .is_err());
    }

    #[test]
    fn from_program_collects_both_scopes() {
        use curare_lisp::{Heap, Lowerer};
        use curare_sexpr::parse_all;
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all(
                    "(curare-declare (reorderable +))
                     (defun f (l) (declare (curare (no-alias l))) (car l))",
                )
                .unwrap(),
            )
            .unwrap();
        let db = DeclDb::from_program(&prog).unwrap();
        assert!(db.is_reorderable("+"));
    }
}
