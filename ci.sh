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
# unit tests): each command line, `curare run` flag and schema a
# document quotes exists, each `pub mod` of a product crate is named by
# product code outside its own file, `crates/transform` spells a control
# keyword in `shape.rs` alone (`control_keywords_live_in_one_transform_file`),
# a program is prepared for analysis in `analyze.rs` alone
# (`a_program_is_prepared_in_one_place`), a schema is spelt in
# `obs/src/report.rs` alone (`the_document_format_lives_in_one_module`),
# and the tests draw from `curare-testkit`'s one RNG, which no product
# crate depends on (`the_tests_draw_from_one_rng`).
cargo test -q

echo "== golden text on one CPU: the restructurer's one-thread path"
# With one CPU in the affinity mask the defun jobs run one after another
# on the calling thread; above, the golden walkers ran on the host's
# threads. The one golden file must hold on both paths.
if command -v taskset > /dev/null; then
  taskset -c 0 cargo test -q -p curare-transform --test golden
else
  echo "taskset not found: skipping the one-CPU golden run"
fi

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
# A form nested 100 000 deep is a read error (exit 2), not a stack
# overflow (exit 134): the reader stops at its depth limit.
deep="$(mktemp -d)"
{ head -c 100000 /dev/zero | tr '\0' '('; head -c 100000 /dev/zero | tr '\0' ')'; } \
  > "$deep/deep.lisp"
rc=0; target/release/curare check "$deep/deep.lisp" > /dev/null 2>&1 || rc=$?
rm -r "$deep"
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 on a 100 000-deep form, got $rc" >&2; exit 1
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
# The lock device asks about every statement of the undercovered
# fixture's walker; pass 1's lowering answers them all (each was lowered
# again as a probe function, 4 of them, before).
target/release/curare transform examples/lisp/fixtures/undercovered-locks.lisp 2>&1 > /dev/null \
  | grep -E "^;; analysis: .*, 0 probe lowerings$" > /dev/null \
  || { echo "undercovered-locks fixture: a statement was lowered again" >&2; exit 1; }

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
# The aliased mixer is converted, and its arguments alias at run time,
# so a speculative run aborts and replays: it must commit without
# escalating, and print the sequential run's cells in the sequential
# order, then the sequential run's value (both runs print it last).
mix() {
  target/release/curare run examples/lisp/fixtures/aliased-mix.lisp "$@" \
    --call "(mix *l* (cdr *l*))"
}
out="$(mix --servers 2 --speculate 2>&1)"
echo "$out" | grep -F "escalated: false" > /dev/null \
  || { echo "aliased-mix --speculate escalated: $out" >&2; exit 1; }
[ "$(echo "$out" | grep -v '^;;')" = "$(mix --sequential 2> /dev/null)" ] \
  || { echo "aliased-mix --speculate: not the sequential cells and value" >&2; exit 1; }

echo "== loops: a spawn in a loop body is never head-ordered"
# The write precedes the call in the text and follows the previous
# trip's spawn at run time: read as a straight sequence the fixture was
# head-ordered and printed a deterministic 0 2 2 at two servers.
# (Both runs also print the call's value, (); compare the cells.)
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

echo "== chaos: an armed plan perturbs the schedule, not the path"
# A plan only delays, shuffles and stalls, so figure5's walker restarts
# 6 of its 7 tasks in place armed, as it does unarmed (0 while an armed
# pool kept a retry copy of every task).
out="$(target/release/curare run examples/lisp/figure5.lisp --servers 2 --chaos-seed 3 \
  --chaos-profile reorder --call "(f *data*)" 2>&1)"
echo "$out" | grep -F "6 of them in place" > /dev/null \
  || { echo "figure5 under reorder: no '6 of them in place' in the report" >&2; exit 1; }

echo "== an armed run: every link is a task the observers see"
# An in-place link that nothing observes is only counted; --report arms
# the tracer and the profiler's ids, so each of figure5's 6 in-place
# links must still be an invocation of its own in the report.
obs_dir="$(mktemp -d)"
target/release/curare run examples/lisp/figure5.lisp --servers 2 --report "$obs_dir/report.json" \
  --call "(f *data*)" > /dev/null 2>&1
for want in '"tasks":7,' '"in_place_tasks":6,' '"invocations":7,'; do
  grep -F "$want" "$obs_dir/report.json" > /dev/null \
    || { echo "figure5 --report: no $want in the run's report" >&2; exit 1; }
done
rm -r "$obs_dir"

echo "== delay: a read of a conflicting location stays after the call"
# The copy of (cadr l) reads what the next invocation doubles: hoisted
# above the call, the restructured program printed (1 1 1 1 0).
delay_read() {
  target/release/curare run examples/lisp/fixtures/delay-read.lisp "$@" --call "(go)" 2> /dev/null
}
for got in "$(delay_read --sequential)" "$(delay_read)"; do
  if [ "$got" != "(2 2 2 1 0)" ]; then
    echo "delay-read fixture: printed '$got', want (2 2 2 1 0)" >&2; exit 1
  fi
done

echo "== trace: a future-synchronised run names its vocabulary"
# The delay-read walker touches a future per cell, so its toucher's
# task encloses the tasks it helps run. The Chrome document names the
# event vocabulary it was read with; the run's report carries every run
# section, the causal profile included.
obs_dir="$(mktemp -d)"
target/release/curare run examples/lisp/fixtures/delay-read.lisp --servers 2 --call "(go)" \
  --trace "$obs_dir/trace.json" --report "$obs_dir/report.json" > /dev/null 2>&1
grep -F '"otherData":{"schema":"curare-trace/2"' "$obs_dir/trace.json" > /dev/null \
  || { echo "traced delay-read run: the trace does not name curare-trace/2" >&2; exit 1; }
for key in '"schema":"curare-report/2"' '"label":' '"pool":{' '"heap":{' '"locks":{' \
  '"vm":{' '"wall":{' '"timeline":{' '"trace":{' '"profile":{'; do
  grep -F "$key" "$obs_dir/report.json" > /dev/null \
    || { echo "traced delay-read run: no $key in the run's report" >&2; exit 1; }
done
rm -r "$obs_dir"

echo "== reader: inf and nan are names, not floats"
# Rust's float parser takes `inf` and `nan`; the reader used to, so
# this walker named `inf`, which binds `nan`, did not load at all.
# (Both runs also print the call's value; compare the first line.)
float_names() {
  target/release/curare run examples/lisp/fixtures/float-names.lisp "$@" \
    --call "(inf *data*)" 2> /dev/null | sed -n 1p
}
want="$(float_names --sequential)"
got="$(float_names --servers 2)"
if [ "$got" != "$want" ] || [ "$got" != "(2 4 6 8)" ]; then
  echo "float-names fixture: printed '$got', sequentially '$want'" >&2; exit 1
fi

echo "== no pool: a converted tail recursion is its sequential self"
# Run without a pool, a tail-position spawn of the executing function
# restarts its frame, as the self-tail call it replaced: value-tail
# printed () for the sequential 6, and load-nest's 20000 links each
# nested a call until the native stack budget ran out.
for fixture in value-tail load-nest; do
  file="examples/lisp/fixtures/$fixture.lisp"
  want="$(target/release/curare run "$file" --sequential 2> /dev/null)"
  got="$(target/release/curare run "$file" 2> /dev/null)" \
    || { echo "$fixture fixture: curare run failed" >&2; exit 1; }
  if [ "$got" != "$want" ]; then
    echo "$fixture fixture: printed '$got', sequentially '$want'" >&2; exit 1
  fi
done

echo "== the pool's crate builds without the restructurer"
# curare-runtime runs restructured programs; only its tests restructure.
if cargo tree -p curare-runtime -e normal --offline | grep -F curare-transform > /dev/null; then
  echo "curare-runtime depends on curare-transform outside its tests" >&2; exit 1
fi

echo "== front doors agree: analyze, check, transform and both runs read one program"
# The §6 tool names the conflict the restructurer synchronises `back`
# for (it used to analyse without the canonicalizer the pipeline
# resolves and print "no conflicts detected")…
target/release/curare analyze examples/lisp/fixtures/inverse-tail.lisp \
  | grep -F "conflict: write f0.1.f0.2 ⊙ f0.2 at distance 1" > /dev/null
# …and the canonical test that finds it still runs there: it is skipped
# only for parameters no inverse pair can rewrite, and a skip that
# reached `back` would read "(0 alias tests)".
target/release/curare transform examples/lisp/fixtures/inverse-tail.lisp 2>&1 > /dev/null \
  | grep -E "^;; analysis: .* pair tests \([1-9][0-9]* alias tests\)" > /dev/null \
  || { echo "inverse-tail fixture: no pair went to the canonical alias test" >&2; exit 1; }
# …and a walker written above its defstruct is one program to all five
# commands (only the restructurer used to lower struct types first: it
# converted the walker and emitted text the other four refused).
late=examples/lisp/fixtures/late-struct.lisp
for cmd in analyze check "check --locks" transform; do
  target/release/curare $cmd "$late" > /dev/null 2>&1 \
    || { echo "late-struct fixture: curare $cmd failed" >&2; exit 1; }
done
# (Both runs also print the call's value; sed, not head: an early exit
# would SIGPIPE curare under pipefail)
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
  '"runtime.lock_acquisitions":{"value":9975,'
# Nor a hand-over by not being made: every leaf of skewed_sites is a
# task published in a batch of its own, behind a walker link that
# restarted in place.
check_counts skewed_sites '"runtime.tasks":{"value":8001,' \
  '"runtime.batched_submits":{"value":4000,'
# (self-test prints the failed pass it provokes; show it only on failure)
out="$(bash benchmark/run.sh self-test 2>&1)" || { echo "$out" >&2; exit 1; }

echo "CI OK"
