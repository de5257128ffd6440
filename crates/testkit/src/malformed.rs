//! The malformed-text level: what a reader and a lowerer must survive.

use crate::{arith, sugar, Rng};

/// Text of one of three kinds, by `kind % 3`: printable noise (ASCII
/// and newlines), program-shaped noise (a special form's head and
/// then symbols, digits, parentheses and operators in any order), and
/// a well-formed program with one byte struck out or doubled, which
/// keeps most of the structure a lowerer branches on.
pub fn malformed(rng: &mut Rng, kind: usize) -> String {
    const SHAPED: &[u8] = b" abcxyz0123456789()'+*-";
    const HEADS: [&str; 9] =
        ["defun", "let", "let*", "cond", "setf", "setq", "lambda", "if", "defstruct"];
    match kind % 3 {
        0 => {
            let printable: Vec<u8> = (b' '..=b'~').chain([b'\n']).collect();
            let len = rng.below(81);
            rng.string(&printable, len)
        }
        1 => {
            let len = rng.below(81);
            let noise = rng.string(SHAPED, len);
            format!("({} {noise}", rng.pick(&HEADS))
        }
        _ => {
            let mut bytes = format!(
                "(defun f (a b) {}) (f {} {})",
                sugar(rng, 0, 3),
                arith(rng, false, 2),
                arith(rng, false, 2)
            )
            .into_bytes();
            let at = rng.below(bytes.len());
            if rng.below(2) == 0 {
                bytes.remove(at);
            } else {
                bytes.insert(at, bytes[at]);
            }
            String::from_utf8(bytes).expect("generated programs are ASCII")
        }
    }
}
