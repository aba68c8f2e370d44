#!/usr/bin/env bash
# Benchmark report CI: builds Release, runs both bench harnesses in
# `--report json` mode, validates the documents against the
# parsynt-run-report schema, and archives them at the repository root as
# BENCH_table1.json and BENCH_fig8.json. Then builds the standalone
# perfbench project in Release and requires a short quick-loops run of
# the repository benchmark to report a correct result.
#
# Usage: tools/ci/bench_report.sh [build-dir] [baseline]
#   (default build dir: build-bench). baseline: the perfbench output of
#   the same quick-loops run at the parent commit; tools/ci/bench_diff.py
#   then prints every metric of the two runs side by side.
#
# Environment: PARSYNT_FIG8_ELEMS / PARSYNT_FIG8_THREADS pass through to
# the Figure-8 harness; CI boxes with few cores should set a reduced
# element count to keep the sweep short.

set -euo pipefail

if [[ "${1:-}" == -* ]]; then
  sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

cd "$(dirname "$0")/../.."
BUILD="${1:-build-bench}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Warnings are errors: the Release build stays warning-clean.
cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release -DPARSYNT_WERROR=ON
cmake --build "${BUILD}" -j "${JOBS}" --target table1 fig8

# The JSON document owns stdout in report mode; the human tables go to
# stderr and stay visible in the CI log.
"${BUILD}/bench/table1" --report json > BENCH_table1.json
"${BUILD}/bench/fig8" --report json > BENCH_fig8.json

# Schema gate: a malformed or incomplete document fails the job. The
# checks mirror the envelope documented in DESIGN.md §5e — consumers key
# on schema/version, per-benchmark outcome, and the totals block.
validate() {
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
path, tool, min_benchmarks = sys.argv[1], sys.argv[2], int(sys.argv[3])
doc = json.load(open(path))
assert doc["schema"] == "parsynt-run-report", f"{path}: bad schema tag"
assert doc["version"] == 2, f"{path}: unknown schema version"
assert doc["tool"] == tool, f"{path}: tool is {doc['tool']!r}, want {tool!r}"
benches = doc["benchmarks"]
assert len(benches) >= min_benchmarks, \
    f"{path}: only {len(benches)} benchmarks, want >= {min_benchmarks}"
for b in benches:
    assert b["outcome"] in ("success", "failure"), \
        f"{path}: {b['name']}: bad outcome {b['outcome']!r}"
    assert "phase_seconds" in b and "metrics" in b, \
        f"{path}: {b['name']}: missing phase_seconds/metrics"
    if b["outcome"] == "failure":
        assert "failure" in b, f"{path}: {b['name']}: failure without cause"
totals = doc["totals"]
assert totals["benchmarks"] == len(benches), f"{path}: totals mismatch"
assert totals["successes"] + totals["failures"] == len(benches), \
    f"{path}: totals do not add up"
print(f"{path}: ok ({len(benches)} benchmarks, "
      f"{totals['successes']} successes)")
EOF
}

validate BENCH_table1.json table1 22
validate BENCH_fig8.json fig8 22

# perfbench is a standalone CMake project over the same sources, and the
# tier-1 build never compiles it: build it here so that a change to an API
# it calls fails CI. run.py reuses this build tree (it builds into
# $CARGO_TARGET_DIR/perfbench-<type>), checks every output against
# perfbench/golden.json, and prints its result as the last line.
PERFBENCH_BUILD="${BUILD}/perfbench-Release"
cmake -S perfbench -B "${PERFBENCH_BUILD}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${PERFBENCH_BUILD}" -j "${JOBS}"
CARGO_TARGET_DIR="$(cd "${BUILD}" && pwd)" python3 perfbench/run.py \
  --build-type Release --workload quick-loops --seconds 1 --trace 1 \
  > "${BUILD}/perfbench-quick-loops.txt"
python3 - "${BUILD}/perfbench-quick-loops.txt" <<'EOF'
import json, sys
path = sys.argv[1]
result = json.loads(open(path).read().strip().splitlines()[-1])
assert result["correct"] is True, f"{path}: perfbench quick-loops is not correct"
print(f"{path}: perfbench quick-loops correct "
      f"({result['attempted']} operations)")
EOF

if [[ -n "${2:-}" ]]; then
  python3 tools/ci/bench_diff.py "$2" "${BUILD}/perfbench-quick-loops.txt"
fi

echo "bench_report.sh: reports archived"
