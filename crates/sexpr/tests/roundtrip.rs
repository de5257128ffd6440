//! Seeded property battery: printing then re-reading any datum yields
//! the same datum, for both the flat printer and the pretty printer,
//! and the reader is total on arbitrary printable input.

use curare_sexpr::{parse_all, parse_one, pretty_width, Sexpr};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish pick in `0..n`.
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `len` characters drawn from `alphabet`.
    fn string(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len).map(|_| alphabet[self.pick(alphabet.len())] as char).collect()
    }
}

/// Printable ASCII plus newline: everything a source file holds.
fn printable() -> Vec<u8> {
    (b' '..=b'~').chain([b'\n']).collect()
}

/// A symbol from a Lisp-ish alphabet that reads as neither a number
/// nor the dot.
fn gen_symbol(rng: &mut XorShift) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz*+!?<>=-";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789*+!?<>=-";
    loop {
        let len = rng.pick(9);
        let s = rng.string(FIRST, 1) + &rng.string(REST, len);
        if s != "." && s.parse::<f64>().is_err() {
            return s;
        }
    }
}

fn gen_atom(rng: &mut XorShift) -> Sexpr {
    match rng.pick(4) {
        0 => Sexpr::Sym(gen_symbol(rng)),
        1 => Sexpr::Int(rng.next() as i64),
        // Finite floats only: NaN breaks PartialEq-based comparison.
        2 => Sexpr::Float(f64::from(rng.next() as i32) / 8.0),
        _ => {
            let len = rng.pick(13);
            Sexpr::Str(rng.string(&printable(), len))
        }
    }
}

fn gen_sexpr(rng: &mut XorShift, depth: usize) -> Sexpr {
    if depth == 0 || rng.pick(3) == 0 {
        return gen_atom(rng);
    }
    let n = rng.pick(6);
    let mut items: Vec<Sexpr> = (0..n).map(|_| gen_sexpr(rng, depth - 1)).collect();
    if items.is_empty() || rng.pick(4) != 0 {
        return Sexpr::List(items);
    }
    items.truncate(3);
    // A dotted list with a list tail is not canonical (the reader
    // folds it into a proper list), so the tail is always an atom.
    Sexpr::Dotted(items, Box::new(gen_atom(rng)))
}

#[test]
fn print_and_pretty_print_round_trip() {
    let mut rng = XorShift(0x5EED_0001_D1CE_F00D);
    for case in 0..400 {
        let e = gen_sexpr(&mut rng, 4);
        let text = e.to_string();
        assert_eq!(parse_one(&text).unwrap(), e, "case {case}: {text}");
        let width = 8 + rng.pick(92);
        let text = pretty_width(&e, width);
        assert_eq!(parse_one(&text).unwrap(), e, "case {case} at width {width}:\n{text}");
    }
}

#[test]
fn toplevel_sequences_round_trip() {
    let mut rng = XorShift(0x5EED_0002_D1CE_F00D);
    for case in 0..200 {
        let forms: Vec<Sexpr> = (0..rng.pick(5)).map(|_| gen_sexpr(&mut rng, 3)).collect();
        let text: String = forms.iter().map(|e| format!("{e}\n")).collect();
        assert_eq!(parse_all(&text).unwrap(), forms, "case {case}:\n{text}");
    }
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    let mut rng = XorShift(0x5EED_0003_D1CE_F00D);
    let alphabet = printable();
    // Half the inputs lean on the characters the lexer branches on.
    let syntax = b"()'\".;#|\\ \n-+0123456789e";
    for _ in 0..4000 {
        let len = rng.pick(65);
        let s = if rng.pick(2) == 0 { rng.string(&alphabet, len) } else { rng.string(syntax, len) };
        let _ = parse_all(&s);
    }
}
