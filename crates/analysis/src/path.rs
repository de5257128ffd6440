//! Access paths: strings over the accessor alphabet (paper §2.1).
//!
//! A structure access is an *accessor* — an ordered sequence of field
//! selections — applied to a root. For lists the alphabet is
//! `{car, cdr}` (§2.2); `defstruct` types add one letter per field.
//! Paths print innermost-first with dots, matching the paper's
//! examples: the access `(car (cdr l))` has path `cdr.car`, because
//! `cdr` is applied first.

use std::fmt;

/// One letter of the accessor alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Accessor {
    /// The `car` field of a cons cell.
    Car,
    /// The `cdr` field of a cons cell.
    Cdr,
    /// Field `field` of struct type `ty`.
    Field {
        /// Struct type id (from the heap's registry).
        ty: u32,
        /// Field index within the struct.
        field: u32,
    },
}

impl Accessor {
    /// The lock-field code used by `cri-lock` forms: 0 = car, 1 = cdr,
    /// 2+k = struct field k.
    pub fn field_code(self) -> u32 {
        match self {
            Accessor::Car => 0,
            Accessor::Cdr => 1,
            Accessor::Field { field, .. } => 2 + field,
        }
    }
}

impl fmt::Display for Accessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Accessor::Car => write!(f, "car"),
            Accessor::Cdr => write!(f, "cdr"),
            Accessor::Field { ty, field } => write!(f, "f{ty}.{field}"),
        }
    }
}

/// An access path: a finite accessor string, applied first-to-last.
///
/// `Path::from([Cdr, Car])` is the path of `(car (cdr x))`, written
/// `cdr.car`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Path(Vec<Accessor>);

impl Path {
    /// The empty path ε (the root itself).
    pub fn empty() -> Self {
        Path(Vec::new())
    }

    /// A single-letter path.
    pub fn single(a: Accessor) -> Self {
        Path(vec![a])
    }

    /// The letters, first-applied first.
    pub fn accessors(&self) -> &[Accessor] {
        &self.0
    }

    /// Number of letters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for ε.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `self` followed by `a`.
    pub fn push(&mut self, a: Accessor) {
        self.0.push(a);
    }

    /// `self` followed by `other` (path composition `other ∘ self` in
    /// application order: `self` is applied first).
    pub fn concat(&self, other: &Path) -> Path {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        Path(v)
    }

    /// `self` followed by `letters`.
    pub fn followed_by(&self, letters: &[Accessor]) -> Path {
        let mut v = Vec::with_capacity(self.0.len() + letters.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(letters);
        Path(v)
    }

    /// True if `self` is a (non-strict) prefix of `other` — the `≤`
    /// operator of §2.1.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// The final letter, if any: the *field* of the location this path
    /// names (a path `p.f` names field `f` of the cell reached by `p`).
    pub fn last(&self) -> Option<Accessor> {
        self.0.last().copied()
    }

    /// Everything but the final letter: the path to the cell whose
    /// field is named. `None` for ε.
    pub fn cell_prefix(&self) -> Option<Path> {
        if self.0.is_empty() {
            None
        } else {
            Some(Path(self.0[..self.0.len() - 1].to_vec()))
        }
    }
}

impl From<Vec<Accessor>> for Path {
    fn from(v: Vec<Accessor>) -> Self {
        Path(v)
    }
}

impl<const N: usize> From<[Accessor; N]> for Path {
    fn from(v: [Accessor; N]) -> Self {
        Path(v.to_vec())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Parse a dotted path such as `cdr.car` (list accessors only; used in
/// tests and declaration forms).
pub fn parse_list_path(s: &str) -> Option<Path> {
    if s == "ε" || s.is_empty() {
        return Some(Path::empty());
    }
    let mut out = Vec::new();
    for part in s.split('.') {
        match part {
            "car" => out.push(Accessor::Car),
            "cdr" => out.push(Accessor::Cdr),
            _ => return None,
        }
    }
    Some(Path(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Accessor::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Path::from([Cdr, Car]).to_string(), "cdr.car");
        assert_eq!(Path::empty().to_string(), "ε");
        assert_eq!(Path::single(Car).to_string(), "car");
    }

    #[test]
    fn concat_applies_left_first() {
        let a = Path::from([Cdr]);
        let b = Path::from([Car]);
        assert_eq!(a.concat(&b), Path::from([Cdr, Car]));
    }

    #[test]
    fn prefix_operator() {
        let a = Path::from([Cdr]);
        let b = Path::from([Cdr, Car]);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(Path::empty().is_prefix_of(&a));
        assert!(!Path::from([Car]).is_prefix_of(&b));
    }

    #[test]
    fn cell_prefix_and_last() {
        let p = Path::from([Cdr, Cdr, Car]);
        assert_eq!(p.last(), Some(Car));
        assert_eq!(p.cell_prefix().unwrap(), Path::from([Cdr, Cdr]));
        assert!(Path::empty().cell_prefix().is_none());
        assert!(Path::empty().last().is_none());
    }

    #[test]
    fn parse_round_trip() {
        for s in ["car", "cdr.car", "cdr.cdr.car", "ε"] {
            assert_eq!(parse_list_path(s).unwrap().to_string(), s);
        }
        assert!(parse_list_path("bogus").is_none());
    }

    #[test]
    fn field_codes() {
        assert_eq!(Car.field_code(), 0);
        assert_eq!(Cdr.field_code(), 1);
        assert_eq!(Field { ty: 3, field: 2 }.field_code(), 4);
    }
}
