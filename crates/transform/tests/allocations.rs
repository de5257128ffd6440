//! A guard on what restructuring allocates: symbols are interned once
//! by the reader and carried as `Copy` handles by the devices, the
//! lowerer and the heap, and the devices read each statement's access
//! summary and the lock device's tail cost off the program as pass 1
//! lowered it. A change that copies names per reference again, rebuilds
//! forms a device only looks at, or lowers statements a second time
//! shows here as a count above the ceiling, long before it shows as a
//! slower benchmark.
//!
//! One test in its own binary: the counting allocator sees every
//! allocation of the process, and no other test runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use curare_transform::Curare;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's read-window walker at `k`, named `name`: doubles its
/// own car after the call, then `reads` statements of sixteen loads over
/// the cars `k` and `k + 1` ahead.
fn window_walker(name: &str, k: usize, reads: usize) -> String {
    let cdrs = |n: usize| (0..n).fold("l".to_string(), |place, _| format!("(cdr {place})"));
    let (near, far) = (cdrs(k), cdrs(k + 1));
    let sum_of = |word: &str| format!("(+{}) ", format!(" (car {word})").repeat(16));
    let mut body = String::new();
    for _ in 0..reads.div_ceil(2) {
        for word in [&near, &near, &far, &far] {
            body.push_str(&sum_of(word));
        }
    }
    format!(
        "(defun {name} (l)
  (when {far}
    ({name} (cdr l))
    (setf (car l) (* (car l) 2))
    {body}))\n"
    )
}

/// Allocator calls (allocations and reallocations) of one
/// `transform_source` of `src`, after a first run has interned its names.
fn allocations_of(src: &str) -> usize {
    let curare = Curare::new();
    curare.transform_source(src).expect("restructures");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = curare.transform_source(src).expect("restructures");
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    counted
}

/// The six window walkers of the golden file, `k` ∈ {1, 2, 4} ×
/// `reads` ∈ {2, 4}: a program whose defuns, the largest aside, cross the
/// restructurer's threshold for running them on several threads.
fn window_walkers() -> String {
    let mut src = String::from("(curare-declare (reorderable *))\n");
    for k in [1, 2, 4] {
        for reads in [2, 4] {
            src.push_str(&window_walker(&format!("win-{k}-{reads}"), k, reads));
        }
    }
    src
}

/// The counts when each statement a device asked about was lowered
/// again as a probe function and the lock device's output relowered
/// for its tail cost, and with both read off pass 1's lowering; the
/// ceiling sits halfway between.
const CASES: [(&str, usize, usize); 2] =
    [("window walker k = 4", 11_059, 6_532), ("figure5", 297, 266)];

/// The six walkers' count with their defuns restructured one after
/// another on one thread. Restructuring them on several threads may add
/// only the helper's cold interner cache and the per-job slots: 5 % at
/// most.
const WALKERS_ON_ONE_THREAD: usize = 24_356;

#[test]
fn restructuring_allocates_no_copy_per_name() {
    let figure5 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lisp/figure5.lisp");
    let figure5 = std::fs::read_to_string(&figure5).expect("figure5.lisp");
    let walker = format!("(curare-declare (reorderable *))\n{}", window_walker("win", 4, 4));
    let counts = [allocations_of(&walker), allocations_of(&figure5)];
    for ((what, before, recorded), now) in CASES.into_iter().zip(counts) {
        let ceiling = (before + recorded) / 2;
        eprintln!("{what}: {now} allocations (before {before}, recorded {recorded})");
        assert!(
            now <= ceiling,
            "{what}: transform_source made {now} allocations, above the ceiling {ceiling} \
             (halfway between {before} with statements lowered again and {recorded} without)"
        );
    }
    // In the same test: the counter sees every thread of the process.
    let now = allocations_of(&window_walkers());
    let ceiling = WALKERS_ON_ONE_THREAD * 105 / 100;
    eprintln!("six window walkers: {now} allocations (on one thread {WALKERS_ON_ONE_THREAD})");
    assert!(
        now <= ceiling,
        "six window walkers: transform_source made {now} allocations, above the ceiling \
         {ceiling} (5 % over {WALKERS_ON_ONE_THREAD} on one thread)"
    );
}
