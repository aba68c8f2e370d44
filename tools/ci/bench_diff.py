#!/usr/bin/env python3
"""Compares perfbench results of a parent and a change, metric by metric.

    python3 tools/ci/bench_diff.py PARENT CHANGE

PARENT and CHANGE each hold the results of one or more runs of
`perfbench/run.py` with the same workload and settings: the files may be
whole run.py outputs or just their last lines, since every line that
parses as a result object ({"correct": ..., "metrics": {...}}) counts as
one run. For a before/after claim, run the two sides alternately and
append each side's output to its own file.

For every metric the two sides report, the table shows the median of each
side, the change's median over the parent's, and a verdict:

  - A count whose parent runs all agree (a deterministic counter, e.g.
    synth.sketch_assignments) is compared exactly: `same` or `CHANGED`.
  - Every other metric is a measurement. The noise threshold is the
    larger of 5 % (NOISE) and the parent's quartile distance over its median;
    a change of the median beyond it reads `better` or `WORSE` in the
    metric's direction (BENCHMARK.json's "better"), anything within it
    `~`. An end-to-end metric worse by more than its BENCHMARK.json bound
    also reads `BEYOND BOUND`.

The exit status is 1 when a run on either side is not correct (wrong
output or failed operations) or the files hold no result, else 0: the
verdicts are a report, since a single short run cannot tell timing noise
from a regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# The least relative change of a median that counts as a change.
NOISE = 0.05


def load_runs(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "metrics" in doc and "correct" in doc:
            runs.append(doc)
    return runs


def load_spec():
    """metric -> (better, bound or None) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out.setdefault(m["name"], (m["better"], None))
    return out


def spread(values):
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(name, unit, parent, change, spec):
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if unit == "count" and len(set(parent)) == 1:
        return "same" if set(change) == {parent[0]} else "CHANGED"
    better, bound = spec.get(name, ("lower", None))
    if p_med == 0:
        return "~" if c_med == 0 else "new"
    rel = c_med / p_med - 1.0
    if better == "higher":
        rel = -rel  # positive = worse
    threshold = max(NOISE, spread(parent))
    text = "~"
    if rel > threshold:
        text = "WORSE"
    elif rel < -threshold:
        text = "better"
    if bound is not None and rel > bound:
        text += ", BEYOND BOUND"
    return f"{text} (noise {100 * threshold:.1f}%)"


def fmt(value):
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return f"{value:.4g}"
    return f"{value:.3e}"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="parent-side perfbench output(s)")
    ap.add_argument("change", help="change-side perfbench output(s)")
    args = ap.parse_args()

    sides = {"parent": load_runs(args.parent), "change": load_runs(args.change)}
    status = 0
    for side, runs in sides.items():
        if not runs:
            print(f"bench_diff: no perfbench result in {getattr(args, side)}",
                  file=sys.stderr)
            return 1
        bad = [r for r in runs if not r["correct"] or r.get("failed", 0)]
        print(f"{side}: {len(runs)} runs, "
              f"{sum(r.get('attempted', 0) for r in runs)} operations, "
              f"{sum(r.get('failed', 0) for r in runs)} failed, "
              f"{len(bad)} not correct")
        if bad:
            status = 1

    spec = load_spec()
    parent, change = sides["parent"], sides["change"]
    names = [n for n in parent[0]["metrics"]
             if all(n in r["metrics"] for r in parent + change)]
    width = max([len(n) for n in names] + [6])
    print(f"{'metric':<{width}}  {'unit':<7} {'parent':>11} {'change':>11} "
          f"{'ratio':>7}  verdict")
    for name in names:
        unit = parent[0]["metrics"][name]["unit"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        ratio = f"{c_med / p_med:.3f}" if p_med else "-"
        print(f"{name:<{width}}  {unit:<7} {fmt(p_med):>11} {fmt(c_med):>11} "
              f"{ratio:>7}  {verdict(name, unit, p, c, spec)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
