#!/usr/bin/env python3
"""Per-workload metric deltas between two benchmark results.

    python3 perfbench/diff.py BASE NEW

BASE and NEW are result files written by perfbench/run.py (under
.bench_build/results/) or directories of them.  A directory's files are
grouped by (workload, trace) and each metric is the median over the group's
seeds.  Prints, per workload, every metric of BASE and NEW, the relative
change and whether it is better or worse by the direction BENCHMARK.json
gives; a change worse than an end-to-end metric's bound is flagged.  For a
seed present on both sides it also reports whether the simulated
trajectories (interactions per run, soak fingerprints) agree on the runs
both completed.

Refuses (exit 2) to compare results from different hosts: the hardware
threads, CPU model, compiler and build type of every file must agree.  The
commit and source digest may differ; that is what a diff compares.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("hardware_threads", "cpu_model", "compiler", "build_type")


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = [json.loads(f.read_text()) for f in files]
    if not results:
        sys.exit(f"diff: no result files in {path}")
    return results


def host(result):
    return tuple(result["fingerprint"].get(k) for k in HOST_KEYS)


def group(results):
    groups = {}
    for r in results:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def medians(results):
    names = results[0]["metrics"].keys()
    return {n: statistics.median(r["metrics"][n]["value"] for r in results)
            for n in names}


def trajectories_agree(base, new):
    """Compares runs of seeds present on both sides, up to the shorter."""
    by_seed = {r["seed"]: r for r in base}
    compared = 0
    for r in new:
        other = by_seed.get(r["seed"])
        if other is None:
            continue
        for a, b in zip(other["runs"], r["runs"]):
            compared += 1
            if (a["seed"], a["interactions"], a["cycles"], a["fingerprint"]) != (
                    b["seed"], b["interactions"], b["cycles"], b["fingerprint"]):
                return compared, False
    return compared, True


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {host(r) for r in base + new}
    if len(hosts) != 1:
        print("diff: refusing to compare results from different hosts:",
              file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)),
                  file=sys.stderr)
        sys.exit(2)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    base_groups, new_groups = group(base), group(new)
    regressions = 0
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        b, n = base_groups[key], new_groups[key]
        mb, mn = medians(b), medians(n)
        print(f"== {workload} (trace {trace}; {len(b)} vs {len(n)} result(s))")
        for name in mb:
            old, cur = mb[name], mn.get(name)
            if cur is None:
                continue
            rel = (cur - old) / old if old else 0.0
            worse = rel < 0 if better.get(name) == "higher" else rel > 0
            verdict = "" if rel == 0 else ("worse" if worse else "better")
            flag = ""
            if name in bound and worse and abs(rel) > bound[name]:
                flag = f"  REGRESSION (bound {bound[name]:.0%})"
                regressions += 1
            print(f"  {name:40s} {old:14.6g} {cur:14.6g} {rel:+8.2%} "
                  f"{verdict}{flag}")
        compared, same = trajectories_agree(b, n)
        if compared:
            print(f"  trajectories: {compared} common run(s) "
                  f"{'identical' if same else 'DIFFER'}")
    for key in sorted(set(base_groups) ^ set(new_groups)):
        print(f"== {key[0]} (trace {key[1]}): only on one side")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
