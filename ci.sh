#!/usr/bin/env bash
# Offline CI gate: everything here runs with zero external crates, from
# one build — the workspace has no cargo features, and the fault
# policy, chaos points, sanitizer and profilers are armed at run time.
set -euo pipefail
cd "$(dirname "$0")"
REPO_DIR="$(pwd)"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

# check "ARGS [&& experiments ARGS]..." FILE:KEY,KEY... — run
# `experiments ARGS` in a scratch directory (each subcommand gates
# itself: a failed oracle, invariant or ratio is a nonzero exit), then
# require each FILE left behind to be JSON with those top-level keys.
experiments() { "$REPO_DIR/target/release/experiments" "$@"; }
check() {
  local dir spec cmd="$1"; shift
  dir="$(mktemp -d)"
  (cd "$dir" && eval "experiments $cmd" > /dev/null)
  for spec in "$@"; do
    # shellcheck disable=SC2046
    experiments validate "$dir/${spec%%:*}" $(echo "${spec#*:}" | tr ',' ' ')
  done
  rm -rf "$dir"
}

echo "== observability smoke: experiments sched --trace/--metrics"
check "sched --trace smoke_trace.json --metrics smoke_metrics.json" \
  smoke_trace.json:traceEvents,displayTimeUnit,otherData \
  smoke_metrics.json:schema,label,pool,heap,locks,vm,wall,timeline \
  BENCH_sched.json:schema,bench,host_threads,runs

echo "== scheduler comparison: experiments e8 e12 (central ≡ sharded, central publishes eagerly)"
# e8 fails unless both modes run the same tasks and leave the same
# list and central neither chains nor batches; e12 asserts its sums.
experiments e8 e12 > /dev/null

echo "== engine differential: tree ≡ fused VM ≡ unfused VM, as written and as restructured"
# Each file runs as written and again through the restructurer (so the
# emitted forms — cri-enqueue, cri-handoff for tail_heavy.lisp, lock
# brackets, atomic-incf — go through all three engines), and the
# restructured program must leave the same output and globals; the
# local-accumulator fixture is the reorder defect the benchmark found.
target/release/experiments differential examples/lisp/*.lisp examples/lisp/fixtures/*.lisp

echo "== engine sweep: experiments interp writes a valid BENCH_interp.json"
# Regression gate: the VM must stay >= 2x the tree-walker (geomean).
check "interp --min-speedup 2" BENCH_interp.json:schema,bench,host_threads,runs

echo "== fusion ablation: experiments hir (fused vs --no-fuse op counts)"
target/release/experiments hir > /dev/null

echo "== diagnostics smoke: curare check exit contract"
# Shipped examples are clean (exit 0)…
target/release/curare check examples/lisp/*.lisp > /dev/null
# …and the seeded shared-root fixture is a C002 error (exit 2).
rc=0; target/release/curare check examples/lisp/fixtures/shared-root.lisp > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 on the shared-root fixture, got $rc" >&2; exit 1
fi

echo "== lock synthesis: certifier exit contract and the rw/coalesced sweep"
# Shipped examples certify clean under the synthesized placement…
target/release/curare check --locks examples/lisp/*.lisp > /dev/null
# …the undercovered fixture is a C007 error (exit 2)…
rc=0; target/release/curare check --locks \
  examples/lisp/fixtures/undercovered-locks.lisp > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 on the undercovered-locks fixture, got $rc" >&2; exit 1
fi
# …and the redundant all-pairs fixture is C008 warnings only (exit 1).
rc=0; target/release/curare check --locks \
  examples/lisp/fixtures/redundant-locks.lisp > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 on the redundant-locks fixture, got $rc" >&2; exit 1
fi
check "locksynth --json" BENCH_locks.json:schema,bench,host_threads,servers,runs

echo "== sanitizer: cross-check oracle over the experiment programs, plain and under chaos"
check "sanitize && experiments sanitize --chaos-seed 7" \
  BENCH_sanitize.json:schema,file,diagnostics,precision

echo "== chaos harness: differential smoke"
check "chaos --seeds 4 --json" \
  BENCH_chaos.json:schema,bench,host_threads,seeds,profile,runs,degrade_demo

echo "== speculation: example contract, sweep gate"
# The ⊤-write fixture is refused by the static transformer…
# (plain grep, not -q: early grep exit would SIGPIPE curare under pipefail)
target/release/curare run examples/lisp/fixtures/scrub.lisp --servers 4 \
  --call "(scrub *data*)" 2>&1 | grep "scrub: converted = false" > /dev/null
# …but admitted under --speculate, committing without escalation.
target/release/curare run examples/lisp/fixtures/scrub.lisp --servers 4 \
  --speculate --call "(scrub *data*)" 2>&1 | grep "escalated: false" > /dev/null
# Sweep: sequential-oracle match under both schedulers, the ⊤-write
# demo must commit clean in parallel, and the chaos shuffle+speculate
# seeds must all match. Running sanitize first in the same directory
# exercises the BENCH_sanitize.json linkage.
check "sanitize --json && experiments speculate --seeds 4 --json" \
  BENCH_sanitize.json:schema,file,diagnostics,precision \
  BENCH_spec.json:schema,bench,host_threads,programs,timing,chaos,sanitizer

echo "== causal profiler: work/span smoke gate (span <= work, parallelism >= 1)"
check "profile --json" BENCH_profile.json:schema,bench,host_threads,servers,runs

echo "== work stealing: skew-sweep smoke gate (model ratios + threaded oracles)"
# Fails on any oracle mismatch, a <1.5x model speedup on either skewed
# distribution, or a >5% uniform-load regression.
check "steal --n 800 --sites 8 --json" BENCH_steal.json:schema,bench,host_threads,servers,runs

echo "== benchmark: the stand-alone package still builds against the facade and passes"
# benchmark/ is its own workspace, so nothing above compiles it: an API
# change in the facade would break it silently. --quick runs every
# workload for correctness (no timing claims), self-test checks the
# checks (manifest drift, reference cases, a corrupted cell must fail).
bash benchmark/run.sh --quick > /dev/null
# (self-test prints the failed pass it provokes; show it only on failure)
out="$(bash benchmark/run.sh self-test 2>&1)" || { echo "$out" >&2; exit 1; }

echo "CI OK"
