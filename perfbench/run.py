#!/usr/bin/env python3
"""The repository benchmark's entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload host_bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-golden

Run from the repository root. It builds the library, the satd daemon and the
measuring program from source into $CARGO_TARGET_DIR (default .bench_build),
runs one workload under a hard deadline, checks that the result names exactly
the metrics BENCHMARK.json declares, and prints the result object as the last
line of stdout. Exit status: 0 ok, 1 wrong output, 2 set-up error, 3 timeout
or malformed result.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("host_bulk", "query_mixed", "paper_table3")
RUN_DEADLINE_S = 165  # the measuring program's share of a 180 s run


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(code, msg):
    log(msg)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(base, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build(targets):
    """Configures once, then builds `targets` (a no-op when up to date)."""
    for need in ("CMakeLists.txt", "src/core/api.hpp", "tools/satd/satd.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(2, f"no satlib sources next to the benchmark (missing {need})")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cfg = subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                fail(2, "cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        b = subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                            *targets], stdout=sys.stderr, stderr=sys.stderr)
        if b.returncode != 0:
            fail(2, "build failed")
    return out


def run_bounded(cmd, deadline_s):
    """Runs cmd in its own process group; kills the group at the deadline.
    Returns (returncode, stdout) or exits 3 on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(3, f"watchdog: no result within {deadline_s} s; killed")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray daemons, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parses the result line; a traced run gets the per-layer metrics of
    layers its workload does not exercise added as 0. Any other difference
    from BENCHMARK.json is an error."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail(3, "last line is not a JSON result")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(3, f"result keys {sorted(res)}")
    want = declared_metrics(trace)
    if trace:
        for name, unit in want.items():
            res["metrics"].setdefault(name, {"value": 0, "unit": unit})
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(3, f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, unit mismatch {units}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own statistics tests")
    ap.add_argument("--write-golden", action="store_true",
                    help="regenerate golden/table3.txt from this checkout")
    args = ap.parse_args()

    if args.self_test:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)

    if not args.workload and not args.write_golden:
        ap.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build(["perfbench", "satd"])
    work = os.path.join(build_dir(), "runs")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", "paper_table3" if args.write_golden else args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--satd", os.path.join(out, "satlib", "tools", "satd", "satd"),
           "--work-dir", work, "--bench-dir", BENCH_DIR,
           "--rev", source_revision()]
    if args.write_golden:
        cmd += ["--write-golden", "1"]

    started = time.monotonic()
    code, stdout = run_bounded(cmd, RUN_DEADLINE_S)
    log(f"measuring program exited {code} after "
        f"{time.monotonic() - started:.1f} s")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if args.write_golden:
        sys.exit(code)
    if code not in (0, 1) or not lines:
        fail(2 if code == 2 else 3, "no result")
    res = check_result(lines[-1], args.trace == 1)
    for l in lines[:-1]:
        print(l)
    print(json.dumps(res))
    sys.stdout.flush()
    sys.exit(0 if code == 0 and res["correct"] and res["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
