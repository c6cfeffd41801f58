#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py compare RESULT_A.json RESULT_B.json

A run builds the benchmark from source into .bench_build/ (configure once,
then an incremental build), runs the workload in its own processes, checks
every output, writes the full result (host fingerprint included) to
.bench_out/, prints every metric with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  A wrong
answer exits 1; a build or harness error exits 1 without a result line.

`compare` prints two results side by side and refuses (exit 2) when their
host fingerprints or workloads differ: numbers from different hosts, builds
or journal filesystems are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "scratch"
OUT = ROOT / ".bench_out"

# Extra set-up-only processes per --trace 0 run, half before the measuring
# process and half after it, so a slow stretch of the host weighs on only a
# few samples; setup_s is the median of their set-up times and the
# measuring process's own.
SETUP_RUNS = 14
# Every process is killed and reaped if it outlives this (seconds).
PROCESS_TIMEOUT = 170
BUILD_TIMEOUT = 840


class HarnessError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets`; returns the build directory."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as f:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                      *targets])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT).returncode
            if rc != 0:
                if cmd[1] == "-S":
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                raise HarnessError("build failed:\n" + "\n".join(tail))
    return BUILD


def spawn(exe, args):
    """Run one benchmark process; returns (exit code, parsed last line)."""
    cmd = [str(exe), *args, "--scratch", str(SCRATCH), "--out", str(OUT)]
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as std::chrono::steady_clock
    try:
        p = subprocess.run(cmd + ["--t0-ns", str(t0)], capture_output=True,
                           text=True, timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{' '.join(cmd)} timed out") from e
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise HarnessError(f"{' '.join(cmd)} exited {p.returncode} "
                           "without a result")
    return p.returncode, json.loads(lines[-1])


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select_metrics(wanted, measured):
    """The metrics BENCHMARK.json names, with the units it names."""
    out = {}
    for d in wanted:
        m = measured.get(d["name"])
        if m is None:
            raise HarnessError(f"metric {d['name']} was not measured")
        if m["unit"] != d["unit"]:
            raise HarnessError(f"metric {d['name']}: unit {m['unit']} "
                               f"but BENCHMARK.json says {d['unit']}")
        out[d["name"]] = {"value": m["value"], "unit": d["unit"]}
    return out


def run_workload(a):
    bench = load_benchmark()
    exe = build(["perfbench"]) / "perfbench"
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    attempted = failed = 0
    wrong = False
    setup = []

    def setup_only(n):
        nonlocal attempted, failed, wrong
        for _ in range(n):
            rc, r = spawn(exe, base + ["--setup-only"])
            setup.append(r["setup_s"])
            attempted += r["attempted"]
            failed += r["failed"]
            wrong |= rc != 0

    extra = SETUP_RUNS if a.trace == 0 else 0
    setup_only(extra // 2)
    rc, r = spawn(exe, base)
    wrong |= rc != 0
    attempted += r["attempted"]
    failed += r["failed"]
    setup.append(r["setup_s"])
    setup_only(extra - extra // 2)
    measured = dict(r["metrics"])
    measured["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    wanted = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    metrics = select_metrics(wanted, measured)

    result = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "seconds": a.seconds, "fingerprint": r["fingerprint"],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "latency_samples": r["latency_samples"],
        "samples_beyond_p99": r["samples_beyond_p99"],
        "window_jobs_per_s": r["window_jobs_per_s"],
        "window_p50_ms": r["window_p50_ms"],
        "window_p99_ms": r["window_p99_ms"],
        "setup_samples_s": setup,
        "self_us_per_job": r["self_us_per_job"], "failures": r["failures"],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")

    fp = r["fingerprint"]
    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace} "
          f"seconds={a.seconds}")
    print("fingerprint: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    if fp.get("journal_fs") == "tmpfs":
        print("WARNING: the journal directory is on tmpfs, where fsync is "
              "free; journal numbers are not comparable with a disk")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {result['failed_frac']:>14.6g} "
          f"({failed} of {attempted})")
    print(f"  latency samples {r['latency_samples']}, "
          f"{r['samples_beyond_p99']} beyond p99")
    if r["self_us_per_job"]:
        print("  self time per job (us): " + ", ".join(
            f"{k}={v:.4g}" for k, v in r["self_us_per_job"].items()))
    for note in r["failures"]:
        log(f"FAILED: {note}")
    print(f"  full result: {path.relative_to(ROOT)}")

    correct = not wrong and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def fingerprint_mismatch(a, b):
    """Reasons two results must not be compared (empty: comparable)."""
    reasons = []
    if a.get("workload") != b.get("workload"):
        reasons.append(f"workload: {a.get('workload')} vs {b.get('workload')}")
    fa, fb = a.get("fingerprint", {}), b.get("fingerprint", {})
    for k in sorted(set(fa) | set(fb)):
        if fa.get(k) != fb.get(k):
            reasons.append(f"{k}: {fa.get(k)} vs {fb.get(k)}")
    return reasons


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    reasons = fingerprint_mismatch(a, b)
    if reasons:
        print("refusing to compare: " + "; ".join(reasons))
        return 2
    print(f"{a['workload']}: {path_a} -> {path_b}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:40s} {ma['value']:>14.6g} {mb['value']:>14.6g} "
              f"{ma['unit']:8s} x{ratio:.4f}")
    return 0


def selftest():
    exe = build(["perfbench_selftest"]) / "perfbench_selftest"
    rc = subprocess.run([str(exe)], timeout=PROCESS_TIMEOUT).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "-v",
                         "test_run"], cwd=HERE,
                        timeout=PROCESS_TIMEOUT).returncode
    return 0 if rc == 0 and py == 0 else 1


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare RESULT_A.json RESULT_B.json")
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    try:
        if a.selftest:
            return selftest()
        if not a.workload:
            p.error("--workload is required")
        if a.seed < 0 or not 1 <= a.seconds <= 120:
            p.error("--seed must be >= 0 and --seconds in 1..120")
        return run_workload(a)
    except (HarnessError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
