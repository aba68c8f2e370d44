#!/usr/bin/env bash
# Rewrites the Figure-8 kernels under src/suite/generated/ from the
# emitter's output: one `parsynt --benchmark <name> --emit-kernel <file>`
# per Table-1 benchmark. Run it after a change to the pipeline's joins or
# to codegen/EmitCpp; the pipeline sweep (tests/pipeline_test.cpp) fails
# until the checked-in files match.
#
# Usage: tools/ci/regen_kernels.sh [build-dir]
#   (default build dir: build)

set -euo pipefail

if [[ "${1:-}" == -* ]]; then
  sed -n '2,9p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

cd "$(dirname "$0")/../.."
BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target parsynt
BIN="${BUILD}/tools/parsynt"

# The file stem is codegen/EmitCpp's kernelIdentifier():
# count-1's -> count_1s, 0*1* -> 0star1star, balanced-() -> balanced_parens.
identifier() {
  sed -e "s/'//g" -e 's/()/parens/g' -e 's/\*/star/g' \
      -e 's/[^A-Za-z0-9_]/_/g' <<<"$1"
}

"${BIN}" --list | awk '{print $1}' | while read -r b; do
  out="src/suite/generated/$(identifier "${b}").inc"
  # A failed synthesis exits 1; the file is written all the same when the
  # benchmark has a hand lifting (max-block-1).
  log="$("${BIN}" --benchmark "${b}" --emit-kernel "${out}" 2>&1)" || true
  if ! grep -q '^wrote native kernel' <<<"${log}"; then
    echo "regen_kernels.sh: no kernel written for '${b}':" >&2
    echo "${log}" >&2
    exit 1
  fi
  echo "${out}"
done
