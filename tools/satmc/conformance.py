#!/usr/bin/env python3
"""Code↔model conformance extractor for satmc (stdlib only).

The satmc model checker (tools/satmc/) verifies an *independent* encoding of
the 1R1W-SKSS-LB look-back protocol.  That independence is only worth
anything if the encoding and the real headers cannot silently drift apart —
this tool closes the loop.  It parses the production headers with satlint's
sanitizing tokenizer and asserts that every protocol fact the code states is
exactly the fact the model declares (`satmc --dump-model`):

  * the hflag lattices in src/host/lookback.hpp (values of LRS/GRS/GLS/GS
    and LCS/GCS), and their device mirrors rflag/cflag in
    src/sat/aux_arrays.hpp;
  * the transition tables + terminal states registered with the protocol
    checker (src/sat/protocol_specs.hpp, kSkssLbTransitions{R,C});
  * the publish sequence of src/host/sat_skss_lb.hpp — fast path then slow
    path, in source order;
  * the three look-back walks' (axis, LOCAL, GLOBAL) threshold pairs;
  * the fast-path guard's peek thresholds;
  * the memory orders: publish = store-release, observe = load-acquire.
    Relaxed accesses covered by a satlint allow directive (with rationale)
    are exempt, exactly as satlint itself treats them;
  * the tile claim: the engine's only fetch_add is the model's counter,
    `work_counter.fetch_add(1, std::memory_order_relaxed)` — one serial per
    claim, as in the paper.

It also checks that sat_skss_lb.hpp is the protocol's only host
implementation: no other file under src/host/ may contain a flag publish, a
look-back walk or a claim on the work counter, so every output the engine
produces runs the code that the facts above (and the explorer, TSan and
satlint) check.

Usage:
    conformance.py --root DIR --satmc PATH/TO/satmc [--lookback FILE]
                   [--expect-drift]

`--lookback` substitutes the flag-header source (used by the ctest entry
that feeds the deliberately drifted fixture in).  `--expect-drift` inverts
the exit code: 0 iff at least one conformance error was found — proving the
extractor actually detects drift.  Exit: 0 ok, 1 conformance errors (or,
with --expect-drift, no errors), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "satlint"))
import satlint  # noqa: E402  (satlint's tokenizer is the extraction engine)

# hflag / rflag / cflag constant declarations inside a namespace block.
NAMESPACE = re.compile(r"namespace\s+(\w+)\s*\{")
FLAG_CONST = re.compile(
    r"inline\s+constexpr\s+std::uint8_t\s+k(\w+)\s*=\s*(\d+)\s*;")
# iaux.r_status.publish(self, hflag::kGs);  (`iaux` is the per-image aux of
# the batch engine; the \w* prefix tolerates renames that keep the aux stem)
PUBLISH_CALL = re.compile(
    r"\w*aux\s*\.\s*([rc])_status\s*\.\s*publish\s*\(\s*self\s*,\s*"
    r"hflag::k(\w+)\s*\)")
# lookback_accumulate(iaux.r_status, ..., hflag::kLrs, hflag::kGrs, ...)
WALK_CALL = re.compile(
    r"lookback_accumulate\s*\(\s*\w*aux\s*\.\s*([rc])_status\s*,.*?"
    r"hflag::k(\w+)\s*,\s*hflag::k(\w+)", re.DOTALL)
# iaux.r_status.peek(left) >= hflag::kGrs
GUARD_PEEK = re.compile(
    r"\w*aux\s*\.\s*([rc])_status\s*\.\s*peek\s*\(\s*\w+\s*\)\s*>=\s*"
    r"hflag::k(\w+)")
# work_counter.fetch_add(1, std::memory_order_relaxed) — the engine's
# per-tile claim (the paper's atomicAdd work counter).
CLAIM_CALL = re.compile(
    r"(\w+)\s*\.\s*fetch_add\s*\(\s*(\w+)\s*,\s*"
    r"std::memory_order(?:::|_)(\w+)\s*\)")
# {0, rflag::kLrs},  /  {rflag::kGls, rflag::kGs},
TRANSITION_ROW = re.compile(
    r"\{\s*(0|[rc]flag::k\w+)\s*,\s*([rc]flag::k\w+)\s*\}")
TERMINAL_DECL = re.compile(
    r"kSkssLbTerminal([RC])\s*=\s*([rc]flag::k(\w+))\s*;")
TRANSITION_TABLE = re.compile(
    r"kSkssLbTransitions([RC])\s*\[\]\s*=\s*\{(.*?)\};", re.DOTALL)

R_NAMES = ("LRS", "GRS", "GLS", "GS")
C_NAMES = ("LCS", "GCS")


class Conformance:
    def __init__(self) -> None:
        self.errors: list[str] = []
        self.checked = 0

    def expect(self, what: str, got, want) -> None:
        self.checked += 1
        if got == want:
            print(f"  ok: {what}: {got}")
        else:
            self.errors.append(f"{what}: code says {got!r}, model says {want!r}")
            print(f"  MISMATCH: {what}: code={got!r} model={want!r}")


def load_source(path: Path, root: Path) -> satlint.SourceFile:
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return satlint.SourceFile(path, rel, path.read_text(encoding="utf-8"))


def parse_flag_namespaces(src: satlint.SourceFile,
                          wanted: set[str]) -> dict[str, dict[str, int]]:
    """{namespace: {NAME: value}} for the requested flag namespaces."""
    out: dict[str, dict[str, int]] = {}
    current: str | None = None
    for line in src.code:
        m = NAMESPACE.search(line)
        if m and m.group(1) in wanted:
            current = m.group(1)
            out.setdefault(current, {})
        if current is None:
            continue
        for c in FLAG_CONST.finditer(line):
            out[current][c.group(1).upper()] = int(c.group(2))
        if "}" in line and NAMESPACE.search(line) is None \
                and FLAG_CONST.search(line) is None and current in out \
                and out[current]:
            current = None
    return out


def atomic_order_facts(src: satlint.SourceFile) -> dict[str, set[str]]:
    """Memory orders of flag-object atomic ops, minus allow-covered ones.

    Returns {"store": {orders...}, "load": {orders...}} for every atomic
    access whose object looks like a protocol flag (satlint's naming
    discipline) and that is not excused by a satlint allow directive.
    """
    facts: dict[str, set[str]] = {"store": set(), "load": set()}
    for lineno, line in enumerate(src.code, start=1):
        if not line.strip():
            continue
        window = src.window(lineno)
        for m in satlint.ATOMIC_OP.finditer(window):
            if m.start() >= len(line):
                continue
            obj = m.group("obj").lower()
            if not any(tok in obj for tok in satlint.FLAG_NAME_TOKENS):
                continue
            op = m.group("op")
            rule = ("flag-load-ordering" if op == "load"
                    else "flag-store-ordering")
            if src.allowed(lineno, rule):
                continue  # audited exception, rationale included
            orders = satlint.MEMORY_ORDER.findall(
                satlint._call_args(window, m.end() - 1))
            kind = "load" if op == "load" else "store"
            for o in orders:
                facts[kind].add(o)
    return facts


def resolve(sym: str, rflags: dict[str, int], cflags: dict[str, int]) -> int:
    if sym == "0":
        return 0
    name = sym.split("::k")[-1].upper()
    table = rflags if sym.startswith("rflag") else cflags
    if name not in table:
        raise KeyError(f"cannot resolve {sym}")
    return table[name]


def main() -> int:
    ap = argparse.ArgumentParser(prog="conformance", description=__doc__)
    ap.add_argument("--root", default=".", help="repo root")
    ap.add_argument("--satmc", required=True, help="path to the satmc binary")
    ap.add_argument("--lookback", help="override src/host/lookback.hpp "
                                       "(drift-fixture injection)")
    ap.add_argument("--expect-drift", action="store_true",
                    help="succeed iff conformance errors are found")
    args = ap.parse_args()
    root = Path(args.root).resolve()

    try:
        dump = json.loads(subprocess.run(
            [args.satmc, "--dump-model"], check=True, capture_output=True,
            text=True).stdout)
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError) as e:
        print(f"conformance: cannot obtain model dump: {e}", file=sys.stderr)
        return 2

    lookback_path = Path(args.lookback) if args.lookback \
        else root / "src" / "host" / "lookback.hpp"
    skss_path = root / "src" / "host" / "sat_skss_lb.hpp"
    specs_path = root / "src" / "sat" / "protocol_specs.hpp"
    aux_path = root / "src" / "sat" / "aux_arrays.hpp"
    for p in (lookback_path, skss_path, specs_path, aux_path):
        if not p.is_file():
            print(f"conformance: missing source {p}", file=sys.stderr)
            return 2

    conf = Conformance()
    model_r = dump["flags"]["R"]
    model_c = dump["flags"]["C"]

    # 1. Host flag lattice (hflag) vs the model's declaration.
    print(f"[lookback] {lookback_path}")
    lookback = load_source(lookback_path, root)
    hflags = parse_flag_namespaces(lookback, {"hflag"}).get("hflag", {})
    conf.expect("hflag R lattice",
                {n: hflags.get(n) for n in R_NAMES}, model_r)
    conf.expect("hflag C lattice",
                {n: hflags.get(n) for n in C_NAMES}, model_c)

    # 2. Memory orders in the flag primitive (allow-covered ops exempt).
    orders = atomic_order_facts(lookback)
    conf.expect("flag publish store order", sorted(orders["store"]),
                [dump["orders"]["publish"]])
    conf.expect("flag observe load order", sorted(orders["load"]),
                [dump["orders"]["observe"]])

    # 3. Device mirrors (rflag/cflag) vs the model.
    print(f"[aux_arrays] {aux_path}")
    aux = load_source(aux_path, root)
    device = parse_flag_namespaces(aux, {"rflag", "cflag"})
    rflags = {n.upper(): v for n, v in device.get("rflag", {}).items()}
    cflags = {n.upper(): v for n, v in device.get("cflag", {}).items()}
    conf.expect("rflag lattice (device mirror)",
                {n: rflags.get(n) for n in R_NAMES}, model_r)
    conf.expect("cflag lattice (device mirror)",
                {n: cflags.get(n) for n in C_NAMES}, model_c)

    # 4. Registered transition tables + terminals (protocol_specs.hpp).
    print(f"[protocol_specs] {specs_path}")
    specs_text = "\n".join(load_source(specs_path, root).code)
    tables: dict[str, list[list[int]]] = {}
    for m in TRANSITION_TABLE.finditer(specs_text):
        rows = [[resolve(a, rflags, cflags), resolve(b, rflags, cflags)]
                for a, b in TRANSITION_ROW.findall(m.group(2))]
        tables[m.group(1)] = rows
    conf.expect("R transition table", tables.get("R"),
                dump["transitions"]["R"])
    conf.expect("C transition table", tables.get("C"),
                dump["transitions"]["C"])
    terminals = {m.group(1): resolve(m.group(2), rflags, cflags)
                 for m in TERMINAL_DECL.finditer(specs_text)}
    conf.expect("terminal states", terminals, dump["terminal"])

    # 5. The engine's publish sequence, walks, fast guard.
    print(f"[engine] {skss_path}")
    engine = load_source(skss_path, root)
    engine_text = "\n".join(engine.code)
    publishes = [[axis.upper(), name.upper()]
                 for axis, name in PUBLISH_CALL.findall(engine_text)]
    model_seq = dump["publish_sequence"]["fast"] + \
        dump["publish_sequence"]["slow"]
    conf.expect("publish sequence (fast, then slow; source order)",
                publishes, model_seq)
    walks = [{"axis": axis.upper(), "local": lo.upper(), "global": hi.upper()}
             for axis, lo, hi in WALK_CALL.findall(engine_text)]
    conf.expect("look-back walks (axis, LOCAL, GLOBAL)", walks,
                dump["walks"])
    guard = [[axis.upper(), name.upper()]
             for axis, name in GUARD_PEEK.findall(engine_text)]
    conf.expect("fast-path guard thresholds", guard, dump["fast_guard"])

    # 6. The claim: every fetch_add in the engine is the model's counter,
    # stepping one serial per claim with the model's order.
    claims = [{"counter": name, "step": int(step) if step.isdigit() else step,
               "order": order}
              for name, step, order in CLAIM_CALL.findall(engine_text)]
    conf.expect("tile claims (counter, step, order)", claims,
                [{"counter": dump["claim"]["counter"],
                  "step": dump["claim"]["step"],
                  "order": dump["orders"]["claim"]}])

    # 7. One implementation: every other host source (the flag header as
    # given by --lookback) is free of flag publishes, look-back walks and
    # claims on the work counter, so no output runs an unchecked copy and
    # no second claim scheme hands out serials.
    print(f"[one implementation] {skss_path.parent}")
    real_lookback = root / "src" / "host" / "lookback.hpp"
    copies: dict[str, dict[str, int]] = {}
    for path in sorted(skss_path.parent.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or path == skss_path:
            continue
        if path == real_lookback:
            path = lookback_path
        src = load_source(path, root)
        text = "\n".join(src.code)
        found = {"publishes": len(PUBLISH_CALL.findall(text)),
                 "walks": len(WALK_CALL.findall(text)),
                 "claims": sum(name == dump["claim"]["counter"]
                               for name, _, _ in CLAIM_CALL.findall(text))}
        if any(found.values()):
            copies[src.relpath] = found
    conf.expect("other src/host/ files with flag publishes, walks or claims",
                copies, {})

    print(f"conformance: {conf.checked} facts checked, "
          f"{len(conf.errors)} mismatches")
    for e in conf.errors:
        print(f"conformance error: {e}", file=sys.stderr)

    if args.expect_drift:
        if conf.errors:
            print("conformance: drift detected, as expected")
            return 0
        print("conformance: expected drift but everything conformed",
              file=sys.stderr)
        return 1
    return 1 if conf.errors else 0


if __name__ == "__main__":
    sys.exit(main())
