//! Regular expressions over the accessor alphabet (paper §2.1–2.2).
//!
//! Transfer functions are regular expressions: `cdr⁺` for a function
//! recursing down a list, alternations for multiple call sites, and
//! `A*` (any accessor string) when nothing is known. The conflict test
//! needs one operation: is a given access path a *prefix* of some
//! string in the language (the paper's `≤` against `τ.A₂`)?
//!
//! Implementation: Thompson construction to an ε-NFA, subset
//! simulation over a bit-set state vector, and prefix matching via a
//! reached state that can still reach the accept state (which states
//! can is computed once, when the automaton is built). [`PowerChain`]
//! holds every power of one regex in a single automaton, so the
//! conflict test's question about `τᵈ` costs one simulation per path
//! for all `d` together.

use crate::path::{Accessor, Path};
use std::fmt;

/// A regular expression over [`Accessor`] letters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathRegex {
    /// ε — the empty string only.
    Empty,
    /// A single letter.
    Atom(Accessor),
    /// Any single letter (the paper's alphabet wildcard `A`).
    Any,
    /// Concatenation, in application order.
    Concat(Vec<PathRegex>),
    /// Alternation (`|`).
    Alt(Vec<PathRegex>),
    /// Kleene star.
    Star(Box<PathRegex>),
    /// One or more (`a⁺ = a a*`).
    Plus(Box<PathRegex>),
}

impl PathRegex {
    /// The regex matching exactly one literal path.
    pub fn literal(p: &Path) -> PathRegex {
        match p.accessors() {
            [] => PathRegex::Empty,
            [a] => PathRegex::Atom(*a),
            many => PathRegex::Concat(many.iter().map(|&a| PathRegex::Atom(a)).collect()),
        }
    }

    /// `A*`: any accessor string — the unknown transfer function.
    pub fn any_star() -> PathRegex {
        PathRegex::Star(Box::new(PathRegex::Any))
    }

    /// Concatenate two regexes (self applied first).
    pub fn then(self, other: PathRegex) -> PathRegex {
        match (self, other) {
            (PathRegex::Empty, r) => r,
            (l, PathRegex::Empty) => l,
            (PathRegex::Concat(mut a), PathRegex::Concat(b)) => {
                a.extend(b);
                PathRegex::Concat(a)
            }
            (PathRegex::Concat(mut a), r) => {
                a.push(r);
                PathRegex::Concat(a)
            }
            (l, PathRegex::Concat(mut b)) => {
                b.insert(0, l);
                PathRegex::Concat(b)
            }
            (l, r) => PathRegex::Concat(vec![l, r]),
        }
    }

    /// Alternate two regexes.
    pub fn or(self, other: PathRegex) -> PathRegex {
        match (self, other) {
            (PathRegex::Alt(mut a), PathRegex::Alt(b)) => {
                a.extend(b);
                PathRegex::Alt(a)
            }
            (PathRegex::Alt(mut a), r) => {
                if !a.contains(&r) {
                    a.push(r);
                }
                PathRegex::Alt(a)
            }
            (l, r) => {
                if l == r {
                    l
                } else {
                    PathRegex::Alt(vec![l, r])
                }
            }
        }
    }

    /// The n-fold composition `self^n` (ε when `n == 0`).
    pub fn power(&self, n: usize) -> PathRegex {
        let mut out = PathRegex::Empty;
        for _ in 0..n {
            out = out.then(self.clone());
        }
        out
    }

    /// Compile to an ε-NFA.
    pub fn compile(&self) -> Nfa {
        let mut nfa = Nfa::unit();
        nfa.accept = nfa.new_state();
        nfa.build(self, nfa.start, nfa.accept);
        nfa.seal();
        nfa
    }

    /// Does the regex match `path` exactly?
    pub fn matches(&self, path: &Path) -> bool {
        self.compile().matches(path)
    }

    /// Is `path` a prefix of some string in the language? This is the
    /// paper's conflict test `path ≤ L(self)`.
    pub fn has_prefix(&self, path: &Path) -> bool {
        self.compile().accepts_prefix(path)
    }
}

impl fmt::Display for PathRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathRegex::Empty => write!(f, "ε"),
            PathRegex::Atom(a) => write!(f, "{a}"),
            PathRegex::Any => write!(f, "A"),
            PathRegex::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ".")?;
                    }
                    if matches!(p, PathRegex::Alt(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            PathRegex::Alt(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            PathRegex::Star(inner) => write!(f, "({inner})*"),
            PathRegex::Plus(inner) => write!(f, "({inner})+"),
        }
    }
}

/// A transition label: ε, a specific letter, or any letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Eps,
    Letter(Accessor),
    AnyLetter,
}

/// A fixed-width bit set over state (or junction) indices.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(width: usize) -> Bits {
        Bits(vec![0; width.div_ceil(64)])
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len() * 64).filter(|&i| self.get(i))
    }
}

/// A Thompson ε-NFA over the accessor alphabet.
pub struct Nfa {
    states: Vec<Vec<(Label, usize)>>,
    start: usize,
    accept: usize,
    /// The states `accept` is reachable from, computed when the
    /// automaton is built.
    live: Bits,
}

impl Nfa {
    /// One state, both start and accept, to build on; [`Nfa::seal`]
    /// finishes the automaton.
    fn unit() -> Nfa {
        Nfa { states: vec![Vec::new()], start: 0, accept: 0, live: Bits::new(0) }
    }

    fn new_state(&mut self) -> usize {
        self.states.push(Vec::new());
        self.states.len() - 1
    }

    fn edge(&mut self, from: usize, label: Label, to: usize) {
        self.states[from].push((label, to));
    }

    fn build(&mut self, re: &PathRegex, from: usize, to: usize) {
        match re {
            PathRegex::Empty => self.edge(from, Label::Eps, to),
            PathRegex::Atom(a) => self.edge(from, Label::Letter(*a), to),
            PathRegex::Any => self.edge(from, Label::AnyLetter, to),
            PathRegex::Concat(parts) => {
                let mut cur = from;
                for (i, p) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() { to } else { self.new_state() };
                    self.build(p, cur, next);
                    cur = next;
                }
                if parts.is_empty() {
                    self.edge(from, Label::Eps, to);
                }
            }
            PathRegex::Alt(parts) => {
                if parts.is_empty() {
                    // Empty alternation matches nothing; no edges.
                    return;
                }
                for p in parts {
                    let s = self.new_state();
                    let e = self.new_state();
                    self.edge(from, Label::Eps, s);
                    self.build(p, s, e);
                    self.edge(e, Label::Eps, to);
                }
            }
            PathRegex::Star(inner) => {
                let s = self.new_state();
                let e = self.new_state();
                self.edge(from, Label::Eps, s);
                self.edge(from, Label::Eps, to);
                self.build(inner, s, e);
                self.edge(e, Label::Eps, s);
                self.edge(e, Label::Eps, to);
            }
            PathRegex::Plus(inner) => {
                let s = self.new_state();
                let e = self.new_state();
                self.edge(from, Label::Eps, s);
                self.build(inner, s, e);
                self.edge(e, Label::Eps, s);
                self.edge(e, Label::Eps, to);
            }
        }
    }

    /// Finish construction: record which states can reach `accept`
    /// (reverse reachability over all edge kinds). Prefix acceptance
    /// needs it — a non-empty state set witnesses an extension only
    /// through a state that can still reach the accept state. Every
    /// Thompson state can, but the test does not rely on that.
    fn seal(&mut self) {
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.states.len()];
        for (s, edges) in self.states.iter().enumerate() {
            for &(_, to) in edges {
                rev[to].push(s);
            }
        }
        let mut live = Bits::new(self.states.len());
        live.set(self.accept);
        let mut work = vec![self.accept];
        while let Some(s) = work.pop() {
            for &p in &rev[s] {
                if !live.get(p) {
                    live.set(p);
                    work.push(p);
                }
            }
        }
        self.live = live;
    }

    /// Close `set` under ε-edges; `work` holds the states just added.
    fn eps_closure(&self, set: &mut Bits, work: &mut Vec<usize>) {
        while let Some(s) = work.pop() {
            for &(label, to) in &self.states[s] {
                if label == Label::Eps && !set.get(to) {
                    set.set(to);
                    work.push(to);
                }
            }
        }
    }

    /// Overwrite `next` with the states reached from `cur` on `letter`.
    fn step(&self, cur: &Bits, letter: Accessor, next: &mut Bits, work: &mut Vec<usize>) {
        next.clear();
        for s in cur.iter() {
            for &(label, to) in &self.states[s] {
                let hit = match label {
                    Label::Eps => false,
                    Label::AnyLetter => true,
                    Label::Letter(a) => a == letter,
                };
                if hit && !next.get(to) {
                    next.set(to);
                    work.push(to);
                }
            }
        }
        self.eps_closure(next, work);
    }

    /// The state set after `path`, calling `visit` on the set before
    /// the first letter and after each one.
    fn run(&self, path: &Path, mut visit: impl FnMut(&Bits)) -> Bits {
        let mut work = vec![self.start];
        let mut cur = Bits::new(self.states.len());
        let mut next = cur.clone();
        cur.set(self.start);
        self.eps_closure(&mut cur, &mut work);
        visit(&cur);
        for &a in path.accessors() {
            self.step(&cur, a, &mut next, &mut work);
            std::mem::swap(&mut cur, &mut next);
            visit(&cur);
        }
        cur
    }

    /// Exact acceptance.
    pub fn matches(&self, path: &Path) -> bool {
        self.run(path, |_| ()).get(self.accept)
    }

    /// True if `path` can be extended to an accepted string: some
    /// state reached by it can still reach the accept state.
    pub fn accepts_prefix(&self, path: &Path) -> bool {
        self.run(path, |_| ()).iter().any(|s| self.live.get(s))
    }
}

/// The powers `r⁰, r¹, …, rᴰ` of one regex as a single automaton:
/// copies of `r` chained through *junction* states, junction `k`
/// reached by exactly the strings of `rᵏ`. The conflict test asks the
/// same questions of `τᵈ` for every distance `d` up to a bound; here
/// `τᵈ` is `τᵈ⁻¹` with one more copy appended, and one simulation of a
/// path ([`PowerChain::trace`]) answers them for every `d` at once.
pub struct PowerChain {
    /// Start = junction 0, accept = the last junction.
    nfa: Nfa,
    junctions: Vec<usize>,
    /// Per state, the index of the first junction at or after it: a
    /// live state of level `c` reaches junction `k` iff `c ≤ k`.
    level: Vec<usize>,
}

impl PowerChain {
    /// The chain of `step` up to `step^depth`.
    pub fn new(step: &PathRegex, depth: usize) -> PowerChain {
        let mut nfa = Nfa::unit();
        let (mut junctions, mut level) = (vec![0], vec![0]);
        for k in 1..=depth {
            let to = nfa.new_state();
            nfa.build(step, nfa.accept, to);
            nfa.accept = to;
            junctions.push(to);
            level.resize(nfa.states.len(), k);
        }
        nfa.seal();
        PowerChain { nfa, junctions, level }
    }

    /// Simulate `path` once through the chain.
    pub fn trace(&self, path: &Path) -> PowerTrace {
        let mut splits = Vec::with_capacity(path.len() + 1);
        let at_junctions = |set: &Bits| self.junctions.iter().map(|&j| set.get(j)).collect();
        let end = self.nfa.run(path, |set| splits.push(at_junctions(set)));
        let prefix_from = end.iter().filter(|&s| self.nfa.live.get(s)).map(|s| self.level[s]).min();
        PowerTrace { splits, prefix_from }
    }
}

/// What one simulation of a path through a [`PowerChain`] of `r`
/// learned, for every power `k` up to the chain's depth.
pub struct PowerTrace {
    /// `splits[i][k]`: is `path[..i]` a string of `rᵏ`?
    splits: Vec<Vec<bool>>,
    /// The smallest `k` such that the whole path is a prefix of some
    /// string of `rᵏ` — then it is one for every larger `k` too, since
    /// a string of `rᵏ` extends to one of `rᵏ⁺¹`.
    prefix_from: Option<usize>,
}

impl PowerTrace {
    /// Is `path[..i]` a string of `rᵏ`?
    pub fn splits_at(&self, i: usize, k: usize) -> bool {
        self.splits[i][k]
    }

    /// Is the whole path a prefix of some string of `rᵏ`?
    pub fn is_prefix_in(&self, k: usize) -> bool {
        self.prefix_from.is_some_and(|from| from <= k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_list_path;
    use Accessor::*;

    fn p(s: &str) -> Path {
        parse_list_path(s).unwrap()
    }

    fn cdr_plus() -> PathRegex {
        PathRegex::Plus(Box::new(PathRegex::Atom(Cdr)))
    }

    #[test]
    fn literal_match() {
        let re = PathRegex::literal(&p("cdr.car"));
        assert!(re.matches(&p("cdr.car")));
        assert!(!re.matches(&p("cdr")));
        assert!(!re.matches(&p("cdr.car.car")));
        assert!(!re.matches(&p("car.cdr")));
    }

    #[test]
    fn empty_regex_matches_only_epsilon() {
        assert!(PathRegex::Empty.matches(&Path::empty()));
        assert!(!PathRegex::Empty.matches(&p("car")));
    }

    #[test]
    fn plus_matches_one_or_more() {
        let re = cdr_plus();
        assert!(!re.matches(&Path::empty()));
        assert!(re.matches(&p("cdr")));
        assert!(re.matches(&p("cdr.cdr.cdr")));
        assert!(!re.matches(&p("cdr.car")));
    }

    #[test]
    fn star_matches_zero_or_more() {
        let re = PathRegex::Star(Box::new(PathRegex::Atom(Cdr)));
        assert!(re.matches(&Path::empty()));
        assert!(re.matches(&p("cdr.cdr")));
        assert!(!re.matches(&p("car")));
    }

    #[test]
    fn alternation() {
        let re = PathRegex::Atom(Car).or(PathRegex::Atom(Cdr));
        assert!(re.matches(&p("car")));
        assert!(re.matches(&p("cdr")));
        assert!(!re.matches(&p("car.car")));
    }

    #[test]
    fn empty_alternation_matches_nothing() {
        let re = PathRegex::Alt(vec![]);
        assert!(!re.matches(&Path::empty()));
        assert!(!re.has_prefix(&Path::empty()));
    }

    #[test]
    fn any_and_any_star() {
        assert!(PathRegex::Any.matches(&p("car")));
        assert!(!PathRegex::Any.matches(&Path::empty()));
        let re = PathRegex::any_star();
        assert!(re.matches(&Path::empty()));
        assert!(re.matches(&p("car.cdr.car")));
        assert!(re.has_prefix(&p("cdr.cdr")));
    }

    #[test]
    fn paper_section_2_2_example() {
        // §2.2: A1=cdr, A2=cdr.car (modify), A3=car; τ = cdr.
        // "A2 does not conflict with A1 since cdr⁺.car can never be a
        // prefix of cdr" — i.e. A2 is never a prefix of τ⁺.A1? The
        // text: cdr.car vs τ composed with A1. Check both directions
        // as the implementation exposes them.
        let tau = PathRegex::Atom(Cdr);
        let a1 = p("cdr");
        let a2 = p("cdr.car");
        let a3 = p("car");

        // d = 1: τ¹ ∘ A3 = cdr.car; A2 ≤ that → conflict at distance 1.
        let lang_d1 = tau.power(1).then(PathRegex::literal(&a3));
        assert!(lang_d1.has_prefix(&a2), "A2 ⊙₁ A3");

        // A2 vs A1 at any distance: τ^d ∘ A1 = cdr^{d+1}; cdr.car is
        // never a prefix of all-cdr strings.
        for d in 1..=8 {
            let lang = tau.power(d).then(PathRegex::literal(&a1));
            assert!(!lang.has_prefix(&a2), "no conflict at distance {d}");
        }
    }

    #[test]
    fn prefix_vs_exact() {
        let re = PathRegex::literal(&p("cdr.car.car"));
        assert!(re.has_prefix(&p("cdr")));
        assert!(re.has_prefix(&p("cdr.car")));
        assert!(re.has_prefix(&p("cdr.car.car")));
        assert!(!re.has_prefix(&p("cdr.car.car.car")));
        assert!(!re.has_prefix(&p("car")));
    }

    #[test]
    fn power_composition() {
        let tau = PathRegex::Atom(Cdr);
        assert!(tau.power(0).matches(&Path::empty()));
        assert!(tau.power(3).matches(&p("cdr.cdr.cdr")));
        assert!(!tau.power(3).matches(&p("cdr.cdr")));
    }

    #[test]
    fn plus_power_interaction() {
        // (cdr⁺)² = cdr^{≥2}
        let re = cdr_plus().power(2);
        assert!(!re.matches(&p("cdr")));
        assert!(re.matches(&p("cdr.cdr")));
        assert!(re.matches(&p("cdr.cdr.cdr.cdr")));
    }

    #[test]
    fn display_forms() {
        assert_eq!(cdr_plus().to_string(), "(cdr)+");
        assert_eq!(PathRegex::Atom(Car).or(PathRegex::Atom(Cdr)).to_string(), "car|cdr");
        assert_eq!(PathRegex::any_star().to_string(), "(A)*");
        assert_eq!(PathRegex::literal(&p("cdr.car")).to_string(), "cdr.car");
    }

    #[test]
    fn struct_field_letters() {
        let succ = Accessor::Field { ty: 0, field: 0 };
        let pred = Accessor::Field { ty: 0, field: 1 };
        let re = PathRegex::Plus(Box::new(PathRegex::Atom(succ)));
        assert!(re.matches(&Path::from([succ, succ])));
        assert!(!re.matches(&Path::from([succ, pred])));
    }

    #[test]
    fn prefix_of_alternation_language() {
        // τ = car|cdr; A2 = car. L(τ.A2) = {car.car, cdr.car}.
        let tau = PathRegex::Atom(Car).or(PathRegex::Atom(Cdr));
        let lang = tau.then(PathRegex::literal(&p("car")));
        assert!(lang.has_prefix(&p("car")));
        assert!(lang.has_prefix(&p("cdr")));
        assert!(lang.has_prefix(&p("cdr.car")));
        assert!(!lang.has_prefix(&p("cdr.cdr")));
    }
}
