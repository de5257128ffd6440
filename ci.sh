#!/usr/bin/env bash
# Offline CI gate: everything here runs with zero external crates, from
# one build — the workspace has no cargo features, and the fault
# policy, chaos points, sanitizer and profilers are armed at run time.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny broken intra-doc links)"
# The docs name what the code names: a deleted or moved item that a
# doc comment still links to fails here.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace --quiet

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
# Beside every suite, the table's own checks (crates/bench, `experiments`
# unit tests): each command line and schema a document quotes exists,
# each `pub mod` of a product crate is named by product code outside
# its own file, `crates/transform` spells a control keyword in
# `shape.rs` alone (`control_keywords_live_in_one_transform_file`), and
# a program is prepared for analysis in `analyze.rs` alone
# (`a_program_is_prepared_in_one_place`).
cargo test -q

echo "== experiments: every row of the table at its CI size"
# One driver, one exit code: a failed oracle, invariant or ratio in any
# row (`experiments list` names them) is recorded as a gate, named on
# stderr, and fails this line. A misspelt row or flag exits 2.
target/release/experiments --quick > /dev/null

echo "== diagnostics smoke: curare check exit contract"
# Shipped examples are clean (exit 0)…
target/release/curare check examples/lisp/*.lisp > /dev/null
# …and the seeded shared-root fixture is a C002 error (exit 2).
rc=0; target/release/curare check examples/lisp/fixtures/shared-root.lisp > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 on the shared-root fixture, got $rc" >&2; exit 1
fi

echo "== lock synthesis: certifier exit contract"
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

echo "== speculation: example contract"
# The ⊤-write fixture is refused by the static transformer…
# (plain grep, not -q: early grep exit would SIGPIPE curare under pipefail)
target/release/curare run examples/lisp/fixtures/scrub.lisp --servers 4 \
  --call "(scrub *data*)" 2>&1 | grep "scrub: converted = false" > /dev/null
# …but admitted under --speculate, committing without escalation, and
# reported as published the way a speculating pool publishes.
out="$(target/release/curare run examples/lisp/fixtures/scrub.lisp --servers 4 \
  --speculate --call "(scrub *data*)" 2>&1)"
for want in "escalated: false" "publication = eager (speculating pool)"; do
  echo "$out" | grep -F "$want" > /dev/null \
    || { echo "scrub --speculate: no '$want' in the report" >&2; exit 1; }
done

echo "== loops: a spawn in a loop body is never head-ordered"
# The write precedes the call in the text and follows the previous
# trip's spawn at run time: read as a straight sequence the fixture was
# head-ordered and printed a deterministic 0 2 2 at two servers.
# (--sequential also prints the call's value, (); compare the cells.)
loop_head() {
  target/release/curare run examples/lisp/fixtures/loop-head.lisp "$@" \
    --call "(w *d* 2)" 2> /dev/null | grep -E '^[0-9]+$' | tr '\n' ' '
}
want="$(loop_head --sequential)"
for _ in 1 2 3; do
  got="$(loop_head --servers 2)"
  if [ "$got" != "$want" ] || [ "$got" != "0 1 2 " ]; then
    echo "loop-head fixture: printed '$got', sequentially '$want'" >&2; exit 1
  fi
done

echo "== front doors agree: analyze, check, transform and both runs read one program"
# The §6 tool names the conflict the restructurer synchronises `back`
# for (it used to analyse without the canonicalizer the pipeline
# resolves and print "no conflicts detected")…
target/release/curare analyze examples/lisp/fixtures/inverse-tail.lisp \
  | grep -F "conflict: write f0.1.f0.2 ⊙ f0.2 at distance 1" > /dev/null
# …and a walker written above its defstruct is one program to all five
# commands (only the restructurer used to lower struct types first: it
# converted the walker and emitted text the other four refused).
late=examples/lisp/fixtures/late-struct.lisp
for cmd in analyze check "check --locks" transform; do
  target/release/curare $cmd "$late" > /dev/null 2>&1 \
    || { echo "late-struct fixture: curare $cmd failed" >&2; exit 1; }
done
# (--sequential also prints the call's value; sed, not head: an early
# exit would SIGPIPE curare under pipefail)
late_struct() {
  target/release/curare run "$late" "$@" --call "(bump *chain*)" 2> /dev/null | sed -n 1p
}
want="$(late_struct --sequential)"
got="$(late_struct --servers 2)"
if [ "$got" != "$want" ] || [ "$got" != "(2 4 6)" ]; then
  echo "late-struct fixture: printed '$got', sequentially '$want'" >&2; exit 1
fi

echo "== benchmark: the stand-alone package still builds against the facade and passes"
# benchmark/ is its own workspace, so nothing above compiles it: an API
# change in the facade would break it silently. --quick runs every
# workload for correctness (no timing claims), self-test checks the
# checks (manifest drift, reference cases, a corrupted cell must fail).
bash benchmark/run.sh --quick > /dev/null
# One traced 2 s run of a workload, whose result line must carry every
# given count (and be correct).
check_counts() {
  local workload="$1" line; shift
  line="$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 1)"
  for want in "$@" '"correct":true'; do
    echo "$line" | grep -F "$want" > /dev/null \
      || { echo "$workload workload: no $want in the result line" >&2; exit 1; }
  done
}
# Speculation's speed may not be bought by giving up on it: the
# benchmark exempts an escalated run from its commit-count check, so a
# validator that always rolled back and reran sequentially would pass
# everything above. Every invocation of the clean scrubber and of the
# aliased mixer must commit, in every pass.
check_counts speculative '"runtime.spec_commits":{"value":6002,' \
  '"runtime.spec_escalated_share":{"value":0,'
# Nor may a spawn or a lock get cheaper by not being counted: every
# link of tiny_grain's chain is still a task (most restart their frame
# in place), every bracket of locked_window still an acquisition.
check_counts tiny_grain '"runtime.tasks":{"value":20001,'
check_counts locked_window '"runtime.tasks":{"value":1996,' \
  '"runtime.lock_acquisitions":{"value":17955,'
# Nor a hand-over by not being made: every leaf of skewed_sites is a
# task published in a batch of its own, behind a walker link that
# restarted in place.
check_counts skewed_sites '"runtime.tasks":{"value":8001,' \
  '"runtime.batched_submits":{"value":4000,'
# (self-test prints the failed pass it provokes; show it only on failure)
out="$(bash benchmark/run.sh self-test 2>&1)" || { echo "$out" >&2; exit 1; }

echo "CI OK"
