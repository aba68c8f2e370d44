#!/usr/bin/env bash
# Sanitizer CI sweep: builds and tests the project under ASan+UBSan, then
# re-runs the threading-sensitive tests under TSan. Warnings are promoted
# to errors in both configurations.
#
# Usage: tools/ci/sanitize.sh [build-dir-prefix]
#   Build trees are created at <prefix>-asan and <prefix>-tsan
#   (default prefix: build-sanitize).

set -euo pipefail

if [[ "${1:-}" == -* ]]; then
  sed -n '2,8p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

cd "$(dirname "$0")/../.."
PREFIX="${1:-build-sanitize}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Chaos smoke: run the Table-1 suite under a starvation deadline and the
# CLI under injected synthesizer/runtime faults. Graceful exits only —
# 0 (solved inside the budget), 1 (structured synthesis failure), or
# 3 (structured timeout); crashes, sanitizer aborts, and any other code
# fail the sweep. A deadline forced to expire inside a parallel join
# search (the `deadline.expire` fault fires on every poll after the
# given one) must unwind to a structured timeout: exit 3 exactly. The
# polls are counted, not timed, so the expiry falls at the same place in
# every build: after=1100 inside atoi's weight-8 sketch sweep of 774630
# assignments, after=300 inside line-sight's size-6 enumeration level
# (the free grammar's, 19574 combinations) and after=7000 inside the
# weight-8 sweep of line-sight's lifted aux0 additive-correction sketch,
# whose prefix checks skip most assignments and poll in their place, all
# run by pool workers; and after=600 inside the calling thread's scan of
# line-sight's size-7 level (the free grammar's last, 146631
# combinations), which leaves the level unbuilt. A wall-clock budget
# cannot pin that: an optimized build can finish a search inside any
# short one.
chaos_smoke() {
  local bin="$1" rc b spec
  for b in $("${bin}" --list | awk '{print $1}'); do
    rc=0
    "${bin}" --benchmark "${b}" --join-timeout 1ms >/dev/null 2>&1 || rc=$?
    case "${rc}" in
      0|1|3) ;;
      *) echo "chaos smoke: '${b}' exited ${rc} under --join-timeout 1ms" >&2
         return 1 ;;
    esac
  done
  for spec in 'atoi:1100' 'line-sight:300' 'line-sight:600' \
              'line-sight:7000'; do
    b="${spec%:*}"
    rc=0
    PARSYNT_FAULT="deadline.expire:after=${spec##*:}" \
      "${bin}" --benchmark "${b}" >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" != 3 ]]; then
      echo "chaos smoke: '${b}' exited ${rc} under a forced deadline" \
           "expiry, want 3" >&2
      return 1
    fi
  done
  # Forced candidate rejections: the search must recover and still solve.
  PARSYNT_FAULT='synth.reject:limit=2' \
    "${bin}" --benchmark sum >/dev/null
  # Runtime faults under the parallel selftest: forced steal failures and
  # spurious wakeups must not change any result.
  PARSYNT_FAULT='pool.steal:every=7:limit=500,pool.wakeup:every=3' \
    "${bin}" --benchmark mps --selftest >/dev/null
}

# Trace smoke: a Table-1 benchmark with tracing on must still solve, and
# the exported file must be a loadable Chrome trace with spans in it.
trace_smoke() {
  local bin="$1" out
  out="$(mktemp)"
  "${bin}" --benchmark mts --trace "${out}" --phase-report >/dev/null
  python3 - "${out}" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "trace smoke: no spans recorded"
assert any(e["name"] == "synthesizeJoin" for e in events), \
    "trace smoke: no synthesis span"
EOF
  rm -f "${out}"
}

echo "== ASan + UBSan =="
cmake -B "${PREFIX}-asan" -S . \
  -DPARSYNT_SANITIZE=address \
  -DPARSYNT_WERROR=ON
cmake --build "${PREFIX}-asan" -j "${JOBS}"
# abort_on_error: make ASan failures fail the ctest run loudly.
ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}"
# Scheduler smoke under ASan: the full Figure-8 harness on a small input.
PARSYNT_FIG8_ELEMS=200000 ASAN_OPTIONS=abort_on_error=1 \
  UBSAN_OPTIONS=halt_on_error=1 "${PREFIX}-asan/bench/fig8" --stats \
  > /dev/null
echo "== chaos smoke (ASan) =="
ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
  chaos_smoke "${PREFIX}-asan/tools/parsynt"
echo "== trace smoke (ASan) =="
ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
  trace_smoke "${PREFIX}-asan/tools/parsynt"

echo "== TSan (runtime / task-pool tests) =="
cmake -B "${PREFIX}-tsan" -S . \
  -DPARSYNT_SANITIZE=thread \
  -DPARSYNT_WERROR=ON \
  -DPARSYNT_TEST_TIMEOUT=3600
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
# Threads come from the work-stealing runtime: the pools the runtime
# tests build, and the process-wide pool the join synthesizer runs its
# enumeration levels and sketch sweeps on. Limit the TSan pass to the tests
# that exercise them (a full synthesis sweep under TSan is prohibitively
# slow). ParallelEnumerator grows the pools of mts, mts-p and line-sight,
# and ParallelJoinSynth runs the parallel join search on atoi and
# line-sight, under three pool schedules, and both compare the result with
# the sequential figures; SketchSweep runs random lane sweeps, some large
# enough for the pool, under the same schedules (each task checks its
# blocks in lane files of its own slot, which a shared one would race on);
# EnumeratorStorage reads, on the
# calling thread, the survivor columns pool workers wrote, and checks that
# pool columns stay put while later levels grow and that a pool grown in
# steps equals one grown at once. Two PipelineSweep cases run the
# whole pipeline (join search, lift, join search on the lifted loop, proof)
# on the shared pool: mts, and line-sight, whose lift normalizes with the
# Figure-6 rewriter; the trailing space or end anchor keeps mts from also
# selecting mts_p. The EmitCpp tests (and the EmittedPrograms build that
# their fixture pulls in) emit from golden joins and synthesize nothing.
# runtime_test carries the work-stealing pool's dedicated races: grain-1
# recursion at 2-64 threads, oversubscribed nested waits, concurrent
# external callers, and the park/wake handshake.
# AllKernels/KernelSweep.ParallelMatchesSequential runs every Figure-8
# kernel's lane leaf on pool workers; under TSan that is the leaf's
# baseline code, since GCC's target-clone resolver crashes a TSan process
# at load (PARSYNT_LANE_CLONES is empty there, DESIGN.md §5i).
# InterpReduce.CompiledRunMatchesReferenceOnSharedPrograms runs compiled
# loop and join programs shared by four workers: the race check for the
# runtime's one-compile-per-call evaluator.
# The observe suites join them: per-thread trace buffers are drained while
# pool workers publish spans, and the metrics counters are hammered from
# eight threads at once.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  --no-tests=error \
  -R '^(TaskPool|ParallelReduce|SequentialReduce|InterpReduce|EmitCpp|AllKernels/KernelSweep\.ParallelMatchesSequential|Table1/PipelineSweep\.MatchesPaperExpectations/(mts|line_sight)( |$)|Tracer|TracerOff|TraceExport|Metrics|PoolMetrics|Report|Schedules/ParallelEnumerator|Schedules/ParallelJoinSynth|Schedules/SketchSweep|EnumeratorStorage)'
# Scheduler smoke under TSan as well (all 22 kernels through the pool).
PARSYNT_FIG8_ELEMS=200000 TSAN_OPTIONS=halt_on_error=1 \
  "${PREFIX}-tsan/bench/fig8" --stats > /dev/null
echo "== chaos smoke (TSan) =="
TSAN_OPTIONS=halt_on_error=1 chaos_smoke "${PREFIX}-tsan/tools/parsynt"
echo "== trace smoke (TSan) =="
TSAN_OPTIONS=halt_on_error=1 trace_smoke "${PREFIX}-tsan/tools/parsynt"

echo "sanitize.sh: all clean"
