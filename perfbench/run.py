#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_runner from this checkout's sources (CMake, Release, into
.bench_build/perfbench), measures set-up time, runs it, writes the
result with its host fingerprint to .bench_build/results/, and prints the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md).  Exits 1 when an output check fails, 2 on a usage or
build error.  --toy (small sizes) and --budget B (interaction budget per
run) exist for perfbench/selftest.py.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
WORK_DIR = ROOT / ".bench_build" / "work"
RUNNER = BUILD_DIR / "perfbench_runner"
WORKLOADS = ("verify_recover", "rank_clean", "epidemic_leap", "soak_churn")
SETUP_SPAWNS = 31
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build():
    """Configures once and builds incrementally; all output to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def runner_args(args):
    out = ["--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(WORK_DIR)]
    if args.toy:
        out.append("--toy")
    if args.budget:
        out += ["--budget", str(args.budget)]
    return out


def measure_setup(args):
    """Median wall time, over SETUP_SPAWNS processes, from process start to
    the point where the first timed run would begin."""
    cmd = [str(RUNNER)] + runner_args(args) + ["--setup-only"]
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            fail("runner set-up failed")
    return statistics.median(times)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources, so that a checkout
    without git history still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(runner_host):
    return {
        "hardware_threads": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": runner_host.get("compiler", "unknown"),
        "build_type": runner_host.get("build_type", "unknown"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--toy", action="store_true")
    p.add_argument("--budget", type=int, default=0)
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0 or args.budget < 0:
        fail("--seed and --budget must be >= 0 and --seconds > 0")

    build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    setup_s = measure_setup(args) if args.trace == 0 else None

    cmd = [str(RUNNER)] + runner_args(args) + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"runner exited {proc.returncode} without a result", 1)

    metrics = out["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    expected = expected_metrics(args.trace)
    if sorted(metrics) != sorted(expected):
        fail(f"metric names {sorted(metrics)} differ from BENCHMARK.json", 1)
    metrics = {name: metrics[name] for name in expected}
    correct = bool(out["correct"]) and proc.returncode == 0

    result = {
        "fingerprint": fingerprint(out.get("host", {})),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
        "runs": out.get("runs", []),
        "calibration_ms": out.get("calibration_ms", []),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-toy" if args.toy else ""
    path = RESULTS_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"{suffix}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"fingerprint": result["fingerprint"],
                      "result_file": str(path.relative_to(ROOT))}))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
