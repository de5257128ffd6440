//! A symbolic-computation workload: summing the values of a binary
//! tree of `defstruct` nodes, the kind of pointer-structure traversal
//! the paper's introduction motivates.
//!
//! The walker has two recursive call sites (left and right child), a
//! declared-reorderable accumulation, and is transformed end-to-end:
//! the accumulation becomes an atomic update (§3.2.3) and each call
//! site gets its own ordered queue (§4.1).
//!
//! ```text
//! cargo run --release -p curare --example parallel_sum_tree
//! ```

use curare::prelude::*;
use std::sync::Arc;

const PROGRAM: &str = "
(curare-declare (reorderable +))
(defstruct node left right value)
(defun sum-tree (n)
  (when n
    (setq *total* (+ *total* (node-value n)))
    (sum-tree (node-left n))
    (sum-tree (node-right n))))";

/// Build a complete binary tree of the given depth directly in the
/// heap; returns the root and the sum of all values.
fn build_tree(interp: &Interp, depth: u32, next: &mut i64) -> (Value, i64) {
    if depth == 0 {
        return (Value::NIL, 0);
    }
    let (l, sl) = build_tree(interp, depth - 1, next);
    let (r, sr) = build_tree(interp, depth - 1, next);
    let v = *next;
    *next += 1;
    let ty = interp.heap().find_struct_type("node").expect("node defined");
    let node = interp.heap().make_struct(ty, &[l, r, Value::int(v)]);
    (node, sl + sr + v)
}

fn main() {
    let out = Curare::new().transform_source(PROGRAM).expect("transforms");
    println!("=== transformed ===\n{}", out.source());
    let report = out.report("sum-tree").expect("processed");
    println!("devices: {:?}", report.devices);
    assert!(report.converted, "{}", report.feedback());

    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).expect("loads");
    interp.load_str("(defparameter *total* 0)").expect("init");

    let mut next = 1;
    let depth = 16; // 65_535 nodes
    let (root, expected) = build_tree(&interp, depth, &mut next);
    println!("tree depth {depth}: {} nodes, expected sum {expected}", next - 1);

    // Sequential baseline through plain recursion.
    let seq_interp = Interp::new();
    seq_interp.load_str(PROGRAM).expect("loads sequentially");
    seq_interp.load_str("(defparameter *total* 0)").expect("init");
    let mut n2 = 1;
    let (root2, _) = build_tree(&seq_interp, depth, &mut n2);
    seq_interp.set_recursion_limit(1_000_000);
    let t0 = std::time::Instant::now();
    seq_interp.call("sum-tree", &[root2]).expect("sequential run");
    let seq_time = t0.elapsed();
    let seq_value =
        seq_interp.get_global_value("*total*").unwrap_or_else(|| panic!("global missing"));
    println!("sequential: {:?} (sum {})", seq_time, seq_interp.heap().display(seq_value));

    // Parallel runs across server counts.
    for servers in [1usize, 2, 4, 8] {
        interp.load_str("(setq *total* 0)").expect("reset");
        let rt = CriRuntime::new(Arc::clone(&interp), servers);
        let t0 = std::time::Instant::now();
        rt.run("sum-tree", &[root]).expect("parallel run");
        let elapsed = t0.elapsed();
        let total = interp.load_str("*total*").expect("read total");
        println!(
            "S = {servers}: {elapsed:?}, sum = {} ({} tasks)",
            interp.heap().display(total),
            rt.stats().tasks
        );
        assert_eq!(total, Value::int(expected));
    }
    println!("OK");
}

/// Small extension trait used by the example to read a global.
trait GlobalRead {
    fn get_global_value(&self, name: &str) -> Option<Value>;
}

impl GlobalRead for Interp {
    fn get_global_value(&self, name: &str) -> Option<Value> {
        let sym = self.heap().intern(name);
        self.get_global(sym).ok()
    }
}
