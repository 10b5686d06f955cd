#!/usr/bin/env python3
"""ledger_diff — compare headline rows across two satlib bench ledgers.

Reads two `satlib-bench-v2` JSON ledgers (the BENCH_*.json files written by
tools/run_benches and tests/test_bench_json's writer) and reports, per
benchmark row present in both, the relative change of each headline metric:

    melem_per_s   higher is better
    wall_ms       lower is better
    ns_per_elem   lower is better

A row regresses when a metric moves in its *bad* direction by more than
`--threshold-pct`. Improvements and sub-threshold noise are reported but
never fail the run. Rows present in only one ledger are listed as warnings
(bench sets drift — e.g. the committed ledger covers n=1024/4096 while the
CI smoke covers n=256/1024; only the intersection is compared).

Absolute numbers only compare between runs of the same machine. To compare
across machines (committed ledger from a pinned dev box vs a CI runner),
pass `--normalize-to ROW`: every metric is first divided by the same metric
of the reference row *within its own ledger*, so a uniformly faster or
slower machine cancels out and only relative engine-vs-engine movement
remains. The reference row must be present in both ledgers; it is excluded
from the comparison (its ratio is 1.0 by construction).

Each ledger's header names its machine (`"machine": {"nproc", "cpu_model",
"simd_backend"}`). Both descriptors are printed before the rows, with a
note when they differ; the note never changes the exit code.

CI runs the raw cross-machine diff `--warn-only` (informational), and the
normalized diff on a few named headline rows as an enforcing gate — a >10%
relative slip of an engine against the scalar baseline is a real
regression, not runner noise (see docs/benchmarks.md on ledger
discipline).

Usage
-----
    tools/ledger_diff.py BASE.json NEW.json [--rows GLOB[,GLOB...]]
                         [--threshold-pct N] [--warn-only]
                         [--normalize-to ROW]
    tools/ledger_diff.py --self-test

Exit code: 0 no regressions (or --warn-only), 1 regressions found,
2 internal/usage error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

# metric -> True when larger values are better
HEADLINE_METRICS = {
    "melem_per_s": True,
    "wall_ms": False,
    "ns_per_elem": False,
}


def load_rows(path: Path) -> dict[str, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    schema = doc.get("schema", "")
    if not schema.startswith("satlib-bench-"):
        raise ValueError(f"{path}: unrecognized schema {schema!r}")
    rows = {}
    for row in doc.get("results", []):
        name = row.get("name")
        if isinstance(name, str):
            rows[name] = row
    if not rows:
        raise ValueError(f"{path}: ledger has no named result rows")
    return rows


MACHINE_FIELDS = ("nproc", "cpu_model", "simd_backend")


def load_machine(path: Path) -> dict | None:
    """The ledger's "machine" descriptor, or None when it has none."""
    machine = json.loads(path.read_text(encoding="utf-8")).get("machine")
    return machine if isinstance(machine, dict) else None


def describe_machine(machine: dict | None) -> str:
    if machine is None:
        return "(no machine descriptor)"
    return ", ".join(f"{k}={machine.get(k)!r}" for k in MACHINE_FIELDS)


def machine_lines(base: dict | None, new: dict | None) -> list[str]:
    """Both descriptors, plus a note when they differ (or one is missing)."""
    lines = [f"ledger_diff: BASE machine: {describe_machine(base)}",
             f"ledger_diff: NEW  machine: {describe_machine(new)}"]
    same = base is not None and new is not None and \
        all(base.get(k) == new.get(k) for k in MACHINE_FIELDS)
    if not same:
        lines.append("ledger_diff: note: the ledgers do not name the same "
                     "machine, so raw figures do not compare; prefer "
                     "--normalize-to")
    return lines


def normalize_rows(rows: dict[str, dict], ref_name: str) -> dict[str, dict]:
    """Divides every headline metric by the reference row's same metric.

    The returned rows carry dimensionless ratios (reference row omitted);
    metrics the reference row lacks are dropped rather than compared raw.
    """
    ref = rows.get(ref_name)
    if ref is None:
        raise ValueError(f"--normalize-to row {ref_name!r} not in ledger")
    out: dict[str, dict] = {}
    for name, row in rows.items():
        if name == ref_name:
            continue
        nrow = dict(row)
        for metric in HEADLINE_METRICS:
            v, rv = row.get(metric), ref.get(metric)
            if isinstance(v, (int, float)) and \
                    isinstance(rv, (int, float)) and rv > 0:
                nrow[metric] = v / rv
            else:
                nrow.pop(metric, None)
        out[name] = nrow
    return out


def diff_rows(base: dict[str, dict], new: dict[str, dict],
              patterns: list[str], threshold_pct: float):
    """Returns (lines, regressions, missing) for the row intersection."""

    def selected(name: str) -> bool:
        return not patterns or any(fnmatch.fnmatch(name, p) for p in patterns)

    lines: list[str] = []
    regressions: list[str] = []
    missing: list[str] = []
    for name in sorted(set(base) | set(new)):
        if not selected(name):
            continue
        if name not in base or name not in new:
            missing.append(f"{name} only in "
                           f"{'NEW' if name in new else 'BASE'}")
            continue
        for metric, higher_better in HEADLINE_METRICS.items():
            b, n = base[name].get(metric), new[name].get(metric)
            if not isinstance(b, (int, float)) or \
                    not isinstance(n, (int, float)) or b <= 0:
                continue
            pct = (n - b) / b * 100.0
            bad = pct < -threshold_pct if higher_better \
                else pct > threshold_pct
            tag = "REGRESSION" if bad else (
                "improved" if (pct > 0) == higher_better and
                abs(pct) > threshold_pct else "ok")
            line = (f"{name:44s} {metric:12s} {b:>12.4f} -> {n:>12.4f} "
                    f"{pct:+7.2f}%  {tag}")
            lines.append(line)
            if bad:
                regressions.append(line)
    return lines, regressions, missing


def self_test() -> int:
    base = {"a/1024": {"name": "a/1024", "melem_per_s": 1000.0,
                       "wall_ms": 1.0, "ns_per_elem": 1.0},
            "b/1024": {"name": "b/1024", "melem_per_s": 500.0,
                       "wall_ms": 2.0, "ns_per_elem": 2.0},
            "gone/1": {"name": "gone/1", "melem_per_s": 1.0}}
    new = {"a/1024": {"name": "a/1024", "melem_per_s": 700.0,  # -30%: bad
                      "wall_ms": 1.4, "ns_per_elem": 1.4},     # +40%: bad
           "b/1024": {"name": "b/1024", "melem_per_s": 505.0,  # noise
                      "wall_ms": 1.0, "ns_per_elem": 1.0},     # improved
           "fresh/1": {"name": "fresh/1", "melem_per_s": 1.0}}
    failures = 0

    lines, regs, missing = diff_rows(base, new, [], 15.0)
    if len(regs) != 3:  # a: all three metrics regressed
        failures += 1
        print(f"self-test FAIL: expected 3 regressions, got {len(regs)}")
    if len(missing) != 2:
        failures += 1
        print(f"self-test FAIL: expected 2 missing rows, got {len(missing)}")
    if sum("improved" in ln for ln in lines) != 2:
        failures += 1
        print("self-test FAIL: b/1024 wall_ms+ns_per_elem should improve")

    _, regs, _ = diff_rows(base, new, ["b/*"], 15.0)
    if regs:
        failures += 1
        print("self-test FAIL: --rows b/* must filter out a/1024")

    _, regs, _ = diff_rows(base, new, [], 50.0)
    if regs:
        failures += 1
        print("self-test FAIL: a 50% threshold must swallow a 40% move")

    # Normalization: NEW is from a machine uniformly 2x slower, plus one
    # genuine relative regression (slow/1024 lost another 2x on top). Raw
    # comparison flags everything; normalized to the shared baseline row,
    # only the real slip remains.
    nbase = {"ref/1024": {"name": "ref/1024", "wall_ms": 1.0,
                          "melem_per_s": 1000.0, "ns_per_elem": 1.0},
             "fast/1024": {"name": "fast/1024", "wall_ms": 2.0,
                           "melem_per_s": 500.0, "ns_per_elem": 2.0},
             "slow/1024": {"name": "slow/1024", "wall_ms": 4.0,
                           "melem_per_s": 250.0, "ns_per_elem": 4.0}}
    nnew = {"ref/1024": {"name": "ref/1024", "wall_ms": 2.0,
                         "melem_per_s": 500.0, "ns_per_elem": 2.0},
            "fast/1024": {"name": "fast/1024", "wall_ms": 4.0,
                          "melem_per_s": 250.0, "ns_per_elem": 4.0},
            "slow/1024": {"name": "slow/1024", "wall_ms": 16.0,
                          "melem_per_s": 62.5, "ns_per_elem": 16.0}}
    _, regs, _ = diff_rows(nbase, nnew, [], 15.0)
    if len(regs) != 9:  # raw: every row doubled at least
        failures += 1
        print(f"self-test FAIL: raw cross-machine diff should flag all 9 "
              f"metrics, got {len(regs)}")
    lines, regs, _ = diff_rows(normalize_rows(nbase, "ref/1024"),
                               normalize_rows(nnew, "ref/1024"), [], 15.0)
    if len(regs) != 3 or any("slow/1024" not in ln for ln in regs):
        failures += 1
        print(f"self-test FAIL: normalized diff must flag exactly "
              f"slow/1024's 3 metrics, got {len(regs)}")
    if any("ref/1024" in ln for ln in lines):
        failures += 1
        print("self-test FAIL: the reference row must not compare itself")
    try:
        normalize_rows(nbase, "absent/1")
        failures += 1
        print("self-test FAIL: missing --normalize-to row must raise")
    except ValueError:
        pass

    box = {"nproc": 4, "cpu_model": "Xeon", "simd_backend": "avx2"}
    if any("note:" in ln for ln in machine_lines(box, dict(box))):
        failures += 1
        print("self-test FAIL: identical machines must not get a note")
    for other in ({**box, "nproc": 1}, {**box, "cpu_model": "EPYC"}, None):
        lines = machine_lines(box, other)
        if len(lines) != 3 or "note:" not in lines[2]:
            failures += 1
            print(f"self-test FAIL: {other!r} vs {box!r} must get a note")
    if "(no machine descriptor)" not in machine_lines(None, box)[0]:
        failures += 1
        print("self-test FAIL: a missing descriptor must be named")

    print(f"ledger_diff --self-test: {failures} failures")
    return 0 if failures == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(prog="ledger_diff", description=__doc__)
    ap.add_argument("base", nargs="?", help="baseline BENCH_*.json")
    ap.add_argument("new", nargs="?", help="candidate BENCH_*.json")
    ap.add_argument("--rows", default="",
                    help="comma-separated fnmatch globs of row names "
                         "(default: all rows)")
    ap.add_argument("--threshold-pct", type=float, default=10.0,
                    help="relative move counted as a regression "
                         "(default: 10)")
    ap.add_argument("--warn-only", action="store_true",
                    help="always exit 0 (CI mode: report, never block)")
    ap.add_argument("--normalize-to", default="", metavar="ROW",
                    help="divide each metric by this row's same metric "
                         "within each ledger before comparing (cancels "
                         "machine speed; the row must exist in both)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        ap.error("BASE and NEW ledgers are required (or --self-test)")

    try:
        base = load_rows(Path(args.base))
        new = load_rows(Path(args.new))
        for ln in machine_lines(load_machine(Path(args.base)),
                                load_machine(Path(args.new))):
            print(ln)
        if args.normalize_to:
            base = normalize_rows(base, args.normalize_to)
            new = normalize_rows(new, args.normalize_to)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"ledger_diff: {e}", file=sys.stderr)
        return 2

    patterns = [p.strip() for p in args.rows.split(",") if p.strip()]
    lines, regressions, missing = diff_rows(base, new, patterns,
                                            args.threshold_pct)
    for ln in lines:
        print(ln)
    for m in missing:
        print(f"ledger_diff: warning: {m}")
    if not lines:
        print("ledger_diff: warning: no rows in common between the two "
              "ledgers (check --rows / bench sets)")
    print(f"ledger_diff: {len(lines)} metric comparisons, "
          f"{len(regressions)} regressions "
          f"(threshold {args.threshold_pct:g}%)")
    if regressions and args.warn_only:
        print("ledger_diff: --warn-only: reporting regressions without "
              "failing")
    return 1 if regressions and not args.warn_only else 0


if __name__ == "__main__":
    sys.exit(main())
