#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about 20 s after the build).

    python3 perfbench/selftest.py

Checks that
  * every workload runs untraced and traced, exits 0, reports correct, and
    prints exactly the metrics BENCHMARK.json names (the traced run also
    reproduces the untraced one, or the runner fails it);
  * a run forced to a 1-interaction budget counts every run as failed,
    reports correct = false and exits nonzero;
  * the command fails, without printing a result, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
WORKLOADS = ("verify_recover", "rank_clean", "epidemic_leap", "soak_churn")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc, last


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the four workloads")

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, out = run(["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--toy"])
            what = f"{workload} trace {trace}"
            if out is None:
                check(False, f"{what}: no result (exit {proc.returncode})\n"
                      + proc.stderr[-2000:])
                continue
            check(proc.returncode == 0 and out["correct"]
                  and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{what}: correct, exit 0")
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            check(set(out["metrics"]) == names[trace],
                  f"{what}: prints every metric BENCHMARK.json names")
            check(all(isinstance(m["value"], (int, float)) and m["unit"]
                      for m in out["metrics"].values()),
                  f"{what}: every metric has a value and a unit")

    for workload in WORKLOADS:
        proc, out = run(["--workload", workload, "--seed", "7", "--seconds",
                         "1", "--trace", "0", "--toy", "--budget", "1"])
        check(proc.returncode != 0 and out is not None
              and not out["correct"] and out["attempted"] >= 1
              and out["failed"] == out["attempted"]
              and out["metrics"]["success_frac"]["value"] == 0,
              f"{workload}: a 1-interaction budget counts as failed")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, out = run(["--workload", "rank_clean", "--seed", "1", "--seconds",
                     "1", "--trace", "0"], cwd=bare,
                    script=bare / BENCH_DIR.name / RUN.name)
    check(proc.returncode != 0 and (out is None or "correct" not in out),
          "fails without a result where the library sources are missing")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
