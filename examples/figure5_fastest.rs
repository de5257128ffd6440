//! One process's fastest sequential run of the restructured Figure 5
//! walker: 300 calls over a fresh 20 000-cell list each, under the
//! sequential hooks (spawns run in place), printing the fastest call in
//! milliseconds. Start it in many fresh processes to see how much the
//! timing moves with the process rather than the code:
//!
//! ```text
//! cargo build --release -p curare --example figure5_fastest
//! for i in $(seq 20); do target/release/examples/figure5_fastest; done
//! ```

use curare::prelude::*;
use std::time::Instant;

const FIGURE_5: &str = "(defun f (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f (cdr l)))))";

fn main() {
    let text = Curare::new().transform_source(FIGURE_5).expect("Figure 5 transforms").source();
    let mut fastest = f64::MAX;
    for _ in 0..300 {
        let interp = Interp::new();
        interp.load_str(&text).expect("the restructured text loads");
        let list = interp
            .load_str("(let ((l nil)) (dotimes (i 20000) (setq l (cons 1 l))) l)")
            .expect("the input builds");
        let start = Instant::now();
        interp.call("f", &[list]).expect("the walker runs");
        fastest = fastest.min(start.elapsed().as_secs_f64() * 1e3);
    }
    println!("{fastest:.3}");
}
