//! Seeded property battery for the accessor-regex engine: the
//! NFA-based matcher is cross-checked against an independent
//! brute-force backtracking matcher on randomized regexes and paths.

use curare_analysis::{Accessor, Path, PathRegex};
use curare_testkit::Rng;

// ---------------------------------------------------------------
// An independent reference implementation: backtracking match of a
// regex against a slice of accessors.
// ---------------------------------------------------------------

/// Does `re` match some prefix split of `input`? Returns every suffix
/// index reachable after consuming a match of `re`.
fn match_positions(re: &PathRegex, input: &[Accessor], from: usize) -> Vec<usize> {
    let mut out = match re {
        PathRegex::Empty => vec![from],
        PathRegex::Atom(a) => {
            if input.get(from) == Some(a) {
                vec![from + 1]
            } else {
                vec![]
            }
        }
        PathRegex::Any => {
            if from < input.len() {
                vec![from + 1]
            } else {
                vec![]
            }
        }
        PathRegex::Concat(parts) => {
            let mut fronts = vec![from];
            for p in parts {
                let mut next = Vec::new();
                for &f in &fronts {
                    next.extend(match_positions(p, input, f));
                }
                next.sort_unstable();
                next.dedup();
                fronts = next;
                if fronts.is_empty() {
                    break;
                }
            }
            fronts
        }
        PathRegex::Alt(parts) => {
            let mut all = Vec::new();
            for p in parts {
                all.extend(match_positions(p, input, from));
            }
            all
        }
        PathRegex::Star(inner) => {
            let mut seen = vec![from];
            let mut work = vec![from];
            while let Some(f) = work.pop() {
                for n in match_positions(inner, input, f) {
                    if !seen.contains(&n) {
                        seen.push(n);
                        work.push(n);
                    }
                }
            }
            seen
        }
        PathRegex::Plus(inner) => {
            let star = PathRegex::Star(inner.clone());
            let mut all = Vec::new();
            for n in match_positions(inner, input, from) {
                all.extend(match_positions(&star, input, n));
            }
            all
        }
    };
    out.sort_unstable();
    out.dedup();
    out
}

fn brute_matches(re: &PathRegex, path: &Path) -> bool {
    match_positions(re, path.accessors(), 0).contains(&path.len())
}

/// Prefix acceptance: can `path` be extended to a full match? True iff
/// some string with `path` as a prefix is in the language — checked by
/// trying every extension up to a bounded length over the alphabet
/// that appears in the regex (plus both list letters).
fn brute_prefix(re: &PathRegex, path: &Path, extra: usize) -> bool {
    fn letters(re: &PathRegex, out: &mut Vec<Accessor>) {
        match re {
            PathRegex::Atom(a) if !out.contains(a) => out.push(*a),
            PathRegex::Concat(ps) | PathRegex::Alt(ps) => {
                for p in ps {
                    letters(p, out);
                }
            }
            PathRegex::Star(p) | PathRegex::Plus(p) => letters(p, out),
            _ => {}
        }
    }
    let mut alphabet = vec![Accessor::Car, Accessor::Cdr];
    letters(re, &mut alphabet);

    fn extend(
        re: &PathRegex,
        base: &mut Vec<Accessor>,
        alphabet: &[Accessor],
        depth: usize,
    ) -> bool {
        if brute_matches(re, &Path::from(base.clone())) {
            return true;
        }
        if depth == 0 {
            return false;
        }
        for &a in alphabet {
            base.push(a);
            if extend(re, base, alphabet, depth - 1) {
                base.pop();
                return true;
            }
            base.pop();
        }
        false
    }
    let mut base = path.accessors().to_vec();
    extend(re, &mut base, &alphabet, extra)
}

// ---------------------------------------------------------------
// Generators
// ---------------------------------------------------------------

fn gen_accessor(rng: &mut Rng) -> Accessor {
    *rng.pick(&[Accessor::Car, Accessor::Cdr, Accessor::Field { ty: 0, field: 0 }])
}

fn gen_regex(rng: &mut Rng, depth: usize) -> PathRegex {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(3) {
            0 => PathRegex::Empty,
            1 => PathRegex::Atom(gen_accessor(rng)),
            _ => PathRegex::Any,
        };
    }
    let parts = |rng: &mut Rng| -> Vec<PathRegex> {
        (0..1 + rng.below(2)).map(|_| gen_regex(rng, depth - 1)).collect()
    };
    match rng.below(4) {
        0 => PathRegex::Concat(parts(rng)),
        1 => PathRegex::Alt(parts(rng)),
        2 => PathRegex::Star(Box::new(gen_regex(rng, depth - 1))),
        _ => PathRegex::Plus(Box::new(gen_regex(rng, depth - 1))),
    }
}

fn gen_path(rng: &mut Rng) -> Path {
    Path::from((0..rng.below(6)).map(|_| gen_accessor(rng)).collect::<Vec<_>>())
}

/// Run `check` on `cases` random (regex, regex, path, path) draws.
fn for_cases(seed: u64, cases: usize, check: impl Fn(&PathRegex, &PathRegex, &Path, &Path)) {
    let mut rng = Rng::new(seed);
    for _ in 0..cases {
        let (a, b) = (gen_regex(&mut rng, 3), gen_regex(&mut rng, 3));
        check(&a, &b, &gen_path(&mut rng), &gen_path(&mut rng));
    }
}

// ---------------------------------------------------------------
// Properties
// ---------------------------------------------------------------

/// NFA matching agrees with the backtracking reference, and exact
/// matches are always prefix matches.
#[test]
fn nfa_agrees_with_brute_force() {
    for_cases(0x5EED_0001_ACCE_5505, 2000, |re, _, p, _| {
        assert_eq!(re.matches(p), brute_matches(re, p), "regex {re} path {p}");
        if re.matches(p) {
            assert!(re.has_prefix(p), "regex {re} path {p}");
        }
    });
}

/// Prefix acceptance agrees with bounded brute-force extension, in the
/// one direction a bounded search can show: if the brute force finds
/// an extension, the NFA must accept the prefix.
#[test]
fn prefix_agrees_with_bounded_extension() {
    for_cases(0x5EED_0002_ACCE_5505, 300, |re, _, p, _| {
        if brute_prefix(re, p, 3) {
            assert!(re.has_prefix(p), "brute found an extension the NFA missed: {re} / {p}");
        }
    });
}

/// The combinators are the language operations: `then` concatenates,
/// `or` unites, `power(n)` matches the n-fold repetition.
#[test]
fn combinators_are_language_operations() {
    for_cases(0x5EED_0003_ACCE_5505, 1000, |a, b, p, q| {
        if a.matches(p) && b.matches(q) {
            let combined = a.clone().then(b.clone());
            assert!(combined.matches(&p.concat(q)), "({a}).({b}) on {p}.{q}");
        }
        let union = a.clone().or(b.clone());
        assert_eq!(union.matches(p), a.matches(p) || b.matches(p), "({a})|({b}) on {p}");
        if a.matches(p) {
            let mut repeated = Path::empty();
            for n in 0..4 {
                assert!(a.power(n).matches(&repeated), "{a}^{n} on {repeated}");
                repeated = repeated.concat(p);
            }
        }
    });
}

/// The paper's τ-composition identity: prefix conflict at distance
/// d+1 through τ equals prefix conflict at distance d through
/// τ·(τ^d ∘ A) — i.e., power composes associatively.
#[test]
fn tau_powers_compose() {
    let tau = PathRegex::Atom(Accessor::Cdr);
    for_cases(0x5EED_0004_ACCE_5505, 200, |_, _, p, _| {
        for d in 0..4 {
            let left = tau.power(d + 1);
            let right = tau.clone().then(tau.power(d));
            assert_eq!(left.matches(p), right.matches(p));
            assert_eq!(left.has_prefix(p), right.has_prefix(p));
        }
    });
}
