//! Seeded properties of the symbol interner: every thread that interns
//! a name gets the one address, and a symbol's equality and hash agree
//! with its name's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::thread;

use curare_sexpr::Symbol;
use curare_testkit::Rng;

/// A name of 1–12 characters from a small alphabet, so that generated
/// pairs often coincide or share a prefix.
fn name(rng: &mut Rng) -> String {
    let len = 1 + rng.below(12);
    rng.string(b"abcd-*12", len)
}

fn hash_of(s: Symbol) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[test]
fn threads_interning_the_same_names_get_the_same_addresses() {
    let mut rng = Rng::new(0x5EED_0004_D1CE_F00D);
    let names: Vec<String> = (0..1000).map(|i| format!("{}#{i}", name(&mut rng))).collect();
    let addresses: Vec<Vec<usize>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|t| {
                let names = &names;
                scope.spawn(move || {
                    // Each thread walks the names from its own offset, so
                    // first interns race on different names.
                    let mut seen = vec![0; names.len()];
                    for k in 0..names.len() {
                        let i = (k + t * 125) % names.len();
                        seen[i] = Symbol::intern(&names[i]).as_str().as_ptr() as usize;
                    }
                    seen
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("an interning thread panicked")).collect()
    });
    for (t, seen) in addresses.iter().enumerate() {
        assert_eq!(seen, &addresses[0], "thread {t} saw other addresses than thread 0");
    }
    for (name, &at) in names.iter().zip(&addresses[0]) {
        let sym = Symbol::intern(name);
        assert_eq!(sym.as_str().as_ptr() as usize, at, "{name}");
        assert_eq!(sym, name.as_str());
    }
    let mut distinct = addresses[0].clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), names.len(), "two names share an address");
}

#[test]
fn equality_and_hash_agree_with_the_name() {
    let mut rng = Rng::new(0x5EED_0005_D1CE_F00D);
    let mut equal_pairs = 0;
    for case in 0..5000 {
        let a = name(&mut rng);
        let b = if rng.next().is_multiple_of(4) { a.clone() } else { name(&mut rng) };
        let (sa, sb) = (Symbol::intern(&a), Symbol::intern(&b));
        assert_eq!(sa == sb, a == b, "case {case}: {a:?} vs {b:?}");
        assert_eq!(sa.cmp(&sb), a.cmp(&b), "case {case}: order of {a:?} and {b:?}");
        if a == b {
            equal_pairs += 1;
            assert_eq!(hash_of(sa), hash_of(sb), "case {case}: {a:?}");
        } else {
            assert_ne!(hash_of(sa), hash_of(sb), "case {case}: {a:?} vs {b:?}");
        }
        assert_eq!(&*sa, a, "case {case}");
        assert_eq!(format!("{sa} {sa:?}"), format!("{a} {a:?}"), "case {case}");
    }
    assert!(equal_pairs > 1000, "the generator produced only {equal_pairs} equal pairs");
}
