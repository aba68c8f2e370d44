#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, report.

    python3 perfbench/run.py --build-type Release \\
        --workload <quick-loops|search-loops|run-kernels> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script configures and builds the
`perfbench` binary from source in .bench_build/ (or $CARGO_TARGET_DIR),
refuses to report from a build type other than --build-type, runs the
workload in one process, checks every output, and prints a human summary
followed by one JSON line:

    {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics. `--record-golden` rewrites golden.json
(the joins and exact counters every later run is compared with).
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("quick-loops", "search-loops", "run-kernels")
SYNTH_WORKLOADS = ("quick-loops", "search-loops")
BINARY_TIMEOUT_S = 170

# The 21 Figure-8 kernels the run-kernels workload runs, in Table-1 order.
KERNELS = ("sum", "min", "max", "average", "hamming", "2nd-min", "mps",
           "mts", "mss", "mts-p", "mps-p", "poly", "is-sorted", "atoi",
           "dropwhile", "balanced-()", "0*1*", "count-1's", "line-sight",
           "0after1", "max-block-1")
CATEGORIES = ("frontend", "analysis", "synth", "oracle", "lift", "normalize",
              "proof", "codegen", "pipeline", "runtime")
# Registry counter -> reported per-layer metric.
COUNTERS = {
    "synth.sketch.assignments": "synth.sketch_assignments",
    "synth.candidates.enumerated": "synth.candidates",
    "synth.cegis.rounds": "synth.cegis_rounds",
    "synth.calls": "synth.calls",
    "synth.seeds.accepted": "synth.seeds_accepted",
    "synth.restriction.retries": "synth.restriction_retries",
    "oracle.counterexamples": "oracle.counterexamples",
    "lift.calls": "lift.calls",
    "lift.aux_discovered": "lift.aux_discovered",
    "normalize.expanded": "normalize.expanded",
    "normalize.rule_hits": "normalize.rule_hits",
    "proof.base_checks": "proof.base_checks",
    "proof.step_checks": "proof.step_checks",
}
POOL_FIELDS = ("spawns", "steals", "steal_fails", "parks", "inlined")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def metric_name(benchmark):
    """Benchmark name -> metric-name segment: count-1's -> count_1s."""
    out = benchmark.replace("'", "").replace("()", "parens").replace("*", "star")
    return "".join(c if c.isalnum() or c in "_." else "_" for c in out)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def quartiles(samples):
    """'[q1, q3]' of the samples, as the report prints it."""
    if len(samples) < 2:
        return "[-]"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"[{q1:.4f}, {q3:.4f}]"


def src_digest():
    """Digest of the program sources: the exact counters must repeat
    whenever this is unchanged."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def build(build_type):
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    build_dir = base / f"perfbench-{build_type}"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              f"-DCMAKE_BUILD_TYPE={build_type}"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    if (build_dir / "CMakeCache.txt").exists():
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {BINARY_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"perfbench exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_of(reps, index):
    return statistics.median(r[index] for r in reps)


def program_stats(raw):
    """Per program: medians of the back-to-back repetitions."""
    out = []
    for p in raw["programs"]:
        reps = p["reps"]
        if not reps:
            continue
        out.append({
            "name": p["name"],
            "elements": p["elements"],
            "bytes": p["bytes"],
            "seq": median_of(reps, 0),
            "par1": median_of(reps, 1),
            "parN": median_of(reps, 2),
            "cpu": median_of(reps, 3),
            "speedup": statistics.median(r[0] / r[2] for r in reps),
            "per_ref": (statistics.median(r[2] / f for r, f in
                                          zip(reps, p["refs"]))
                        if p["refs"] else 0.0),
            "overhead": statistics.median(r[1] / r[0] for r in reps),
            "pool": [statistics.median(s[i] for s in p["pool"])
                     for i in range(len(POOL_FIELDS))],
        })
    return out


def wall_samples(raw):
    """One synth_wall_s sample per untraced pass; on run-kernels, where
    nothing is synthesized, one per parallel sweep over the kernels."""
    if raw["workload"] in SYNTH_WORKLOADS:
        return [p["wall_s"] for p in raw["passes"] if not p["traced"]]
    sweeps = min(len(p["reps"]) for p in raw["programs"])
    return [sum(p["reps"][r][2] for p in raw["programs"])
            for r in range(sweeps)]


def pass_wall(passes, unit=lambda p: 1.0):
    """Wall time of one pass: the sum over loops of each loop's median
    time across the passes, each time first divided by unit(its pass). A
    burst of contention from other tenants then spoils one sample of one
    loop, not a whole pass."""
    return sum(statistics.median(p["loop_wall_s"][n] / unit(p)
                                 for p in passes)
               for n in passes[0]["loop_wall_s"])


def wall_s(raw, programs):
    if raw["workload"] in SYNTH_WORKLOADS:
        return pass_wall([p for p in raw["passes"] if not p["traced"]])
    return sum(p["parN"] for p in programs)


def wall_per_ref(raw, programs):
    """wall_s in units of the reference work (reference.cpp) timed beside
    it: each pass's loop times over the mean reference time of that pass,
    or each kernel repetition's parallel time over the reference time just
    before it, then the same medians and sums as wall_s. The host's speed
    drifts by up to 1.6x over minutes and moves both alike; a slower
    program moves only the numerator."""
    if raw["workload"] not in SYNTH_WORKLOADS:
        return sum(p["per_ref"] for p in programs)
    return pass_wall([p for p in raw["passes"] if not p["traced"]],
                     lambda p: statistics.mean(p["refs"]))


def ref_s(raw):
    """Median time of one reference run (nproc threads on run-kernels)."""
    if raw["workload"] in SYNTH_WORKLOADS:
        return statistics.median(r for p in raw["passes"] if not p["traced"]
                                 for r in p["refs"])
    return statistics.median(r for p in raw["programs"] for r in p["refs"])


def end_to_end(raw, programs):
    return {
        "wall_per_ref": wall_per_ref(raw, programs),
        "overhead_1t": geomean([p["overhead"] for p in programs]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "setup_s": statistics.median(raw["setup_s"]),
    }


def per_layer(raw, programs, golden_check):
    synth = raw["workload"] in SYNTH_WORKLOADS
    untraced = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]

    def layer(name):
        if not untraced:
            return 0.0
        return statistics.median(p["layers"].get(name, 0.0) for p in untraced)

    m = {"synth_wall_s": wall_s(raw, programs), "ref_s": ref_s(raw)}
    for name in ("frontend.parse_s", "analysis.dependence_s",
                 "analysis.verify_s", "codegen.emit_s", "codegen.bytes",
                 "proof.check_s", "pipeline.parallelize_s",
                 "pipeline.join_s", "pipeline.lift_s"):
        m[name] = layer(name)
    m["pipeline.overhead_s"] = (statistics.median(
        p["layers"]["pipeline.parallelize_s"] - p["layers"]["pipeline.join_s"]
        - p["layers"]["pipeline.lift_s"] for p in untraced)
        if untraced else 0.0)
    for counter, metric in COUNTERS.items():
        m[metric] = sum(l["counters"][counter] for l in raw["loops"])
    join_s = m["pipeline.join_s"]
    m["synth.assignments_per_s"] = (m["synth.sketch_assignments"] / join_s
                                    if join_s > 0 else 0.0)
    m["synth.joins_changed"] = golden_check["joins_changed"]
    m["synth.counters_changed"] = golden_check["counters_changed"]

    elements = sum(p["elements"] for p in programs)
    m["interp.seq_melems_s"] = (
        elements / sum(p["seq"] for p in programs) / 1e6 if synth else 0.0)
    m["runtime.interp_par_melems_s"] = (
        elements / sum(p["parN"] for p in programs) / 1e6 if synth else 0.0)
    m["cpu_s"] = (statistics.median(p["cpu_s"] for p in untraced) if synth
                  else sum(p["cpu"] for p in programs))
    samples = wall_samples(raw)
    pct, value = tail(samples)
    m["synth_wall.samples"] = len(samples)
    m["synth_wall.tail_pct"] = pct
    m["synth_wall.tail_s"] = value

    m["kernels_par_s"] = sum(p["parN"] for p in programs)
    m["speedup_geomean"] = geomean([p["speedup"] for p in programs])
    m["kernels.seq_s"] = sum(p["seq"] for p in programs)
    m["kernels.par1_s"] = sum(p["par1"] for p in programs)
    m["kernels.parN_s"] = sum(p["parN"] for p in programs)
    by_name = {p["name"]: p for p in programs}
    for k in KERNELS:
        p = by_name.get(k)
        m[f"kernel.{metric_name(k)}.speedup"] = p["speedup"] if p else 0.0
        m[f"kernel.{metric_name(k)}.computed_gbs"] = (
            p["bytes"] / p["parN"] / 1e9 if p else 0.0)

    probes = raw["probes"]

    def probe(key):
        return statistics.median(p[key] for p in probes) if probes else 0.0

    m["mem.read_gbs_1t"] = probe("read_gbs_1t")
    m["mem.read_gbs_nt"] = probe("read_gbs_nt")
    m["host.cpu_scale"] = probe("cpu_scale")
    computed = (sum(p["bytes"] for p in programs) / m["kernels.parN_s"] / 1e9)
    m["kernels.pct_of_read_ceiling"] = (
        100.0 * computed / m["mem.read_gbs_nt"] if probes else 0.0)

    for i, field in enumerate(POOL_FIELDS):
        m[f"pool.{field}"] = sum(p["pool"][i] for p in programs)
    t = raw["traced"]
    m["pool.leaf_s"] = t["pool_leaf_s"]
    m["pool.join_s"] = t["pool_join_s"]
    # Per traced pass (per traced sweep on run-kernels).
    for c in CATEGORIES:
        m[f"self_s.{c}"] = t["self_s"].get(c, 0.0) / max(1, len(traced))
    if synth:
        m["trace.overhead"] = pass_wall(traced) / wall_s(raw, programs)
    else:
        m["trace.overhead"] = t["sweep_s"] / wall_s(raw, programs)
    ops = raw["ops"]
    m["error_rate"] = ops["failed"] / ops["attempted"]
    return m


def check_golden(raw, golden):
    """Compares joins and exact counters with golden.json. Counters may
    only differ when the program sources differ from the recorded ones."""
    result = {"joins_changed": 0, "counters_changed": 0, "problems": []}
    if raw["workload"] not in SYNTH_WORKLOADS:
        return result
    same_code = golden.get("src_sha256") == src_digest()
    for loop in raw["loops"]:
        want = golden["loops"].get(loop["name"])
        if not loop["stable"]:
            result["problems"].append(
                f"{loop['name']}: join or counters differ between passes")
        if want is None:
            result["problems"].append(f"{loop['name']}: no golden entry")
            continue
        if loop["join"] != want["join"]:
            result["joins_changed"] += 1
            if same_code:
                result["problems"].append(
                    f"{loop['name']}: join differs from golden on the same code")
        if loop["counters"] != want["counters"]:
            result["counters_changed"] += 1
            if same_code:
                result["problems"].append(
                    f"{loop['name']}: counters differ from golden on the same "
                    "code")
    return result


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def record_golden(build_type):
    binary = build(build_type)
    loops = {}
    for workload in SYNTH_WORKLOADS:
        raw = run_binary(binary, workload, 1, 0, 0)
        for loop in raw["loops"]:
            loops[loop["name"]] = {"join": loop["join"],
                                   "counters": loop["counters"]}
    GOLDEN.write_text(json.dumps({"src_sha256": src_digest(), "loops": loops},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)} ({len(loops)} loops)")


def summary(raw, programs, e2e, golden_check):
    host = raw["host"]
    print(f"workload {raw['workload']} seed {raw['seed']} trace "
          f"{raw['trace']}: nproc {host['nproc']}, {host['compiler']}, "
          f"{host['build_type']}, LLC {host['llc_bytes']} B, "
          f"array {host['array_bytes']} B")
    samples = wall_samples(raw)
    pct, value = tail(samples)
    print(f"  wall_per_ref {e2e['wall_per_ref']:.4f}, synth_wall_s "
          f"{wall_s(raw, programs):.4f} s, ref_s {ref_s(raw) * 1e3:.4f} ms; "
          f"passes "
          f"median {statistics.median(samples):.4f} s {quartiles(samples)}, "
          f"p{pct:.0f} {value:.4f} s, n={len(samples)}")
    print(f"  {'program':<12} {'seq s':>22} {'par1 s':>22} "
          f"{'par' + str(host['nproc']) + ' s':>22}  speedup  reps")
    for p in raw["programs"]:
        if not p["reps"]:
            continue
        cols = [[r[i] for r in p["reps"]] for i in range(3)]
        speedup = statistics.median(r[0] / r[2] for r in p["reps"])
        print(f"  {p['name']:<12} " +
              " ".join(f"{statistics.median(c):.4f} {quartiles(c):>15}"
                       for c in cols) +
              f"  {speedup:6.2f}x  {len(p['reps']):4}")
    ops, self_test = raw["ops"], raw["selftest"]
    print(f"  operations {ops['attempted']}, failed {ops['failed']}; "
          f"wrong-join self-test failed {self_test['failed']}/"
          f"{self_test['attempted']}; joins changed "
          f"{golden_check['joins_changed']}")
    for reason in ops["failures"] + golden_check["problems"]:
        print(f"  FAIL {reason}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-type", required=True)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    if args.record_golden:
        record_golden(args.build_type)
        return
    if args.workload is None:
        ap.error("--workload is required")
    declared = declared_metrics(args.trace)
    golden = json.loads(GOLDEN.read_text())

    binary = build(args.build_type)
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    if raw["host"]["build_type"] != args.build_type:
        fail(f"binary was built as {raw['host']['build_type']}, "
             f"BENCHMARK.json fixes {args.build_type}")

    programs = program_stats(raw)
    golden_check = check_golden(raw, golden)
    e2e = end_to_end(raw, programs)
    values = per_layer(raw, programs, golden_check) if args.trace else e2e
    if set(values) != set(declared):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(values) ^ set(declared))}")

    ops, self_test = raw["ops"], raw["selftest"]
    self_test_ok = (args.workload not in SYNTH_WORKLOADS or
                    (self_test["attempted"] >= 1 and
                     self_test["failed"] == self_test["attempted"]))
    correct = (ops["attempted"] > 0 and ops["failed"] == 0 and self_test_ok
               and len(programs) == len(raw["programs"])
               and not golden_check["problems"])
    summary(raw, programs, e2e, golden_check)
    if not self_test_ok:
        print("  FAIL the wrong join passed the checks")
    print(json.dumps({
        "correct": correct,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in sorted(declared)},
    }))


if __name__ == "__main__":
    main()
