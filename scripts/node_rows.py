#!/usr/bin/env python3
"""Preferred enumeration on a fixed set of rows, in-process, with the
search nodes each row takes.  Every row runs under its own node budget,
so a row that runs out is reported as "out" instead of hanging the run.

Prints one JSON object: the machine, the Python version, the budget, and
per row its nodes, wall time in ms, extension count (or "out") and a
digest of the extensions, so two runs can be compared set for set.  Exits
1 when a row that finishes has another extension count than expected, or,
with --expect, another digest than the file's row or more nodes than it.

Usage:
    PYTHONPATH=src python3 scripts/node_rows.py [--budget N] [--exclude TEXT ...]
        [--expect BENCH_N.json]
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time

from afsolve import semantics
from afsolve.bench import generate, parse_generator_spec

PRF = semantics.SemanticsKind.PRF


# (generator spec, preferred extension count; None where unknown)
ROWS = [
    ("er:n=100,p=0.05,seed=12345", 1),
    ("chain:n=1500", 1),
    ("cycle:n=200", 2),
    ("cycle:n=400", 2),
    ("er:n=120,p=0.04,seed=2", 5),
    ("scc:k=6,scc_size=10,p_intra=0.3,p_inter=0.1,seed=1", 12),
    ("er:n=3000,p=0.001,seed=1", 1),
    ("er:n=3000,p=0.001,seed=2", None),
    ("grid:w=5,h=5", 358),
    ("grid:w=6,h=5", None),
]


def run_row(fw, budget):
    b = semantics._Budget(budget)
    start = time.perf_counter()
    try:
        exts = sorted(set(semantics._extensions(fw, PRF, semantics._search_space(fw, PRF), b)))
    except semantics.BudgetExceeded:
        exts = None
    ms = (time.perf_counter() - start) * 1000
    nodes = budget - b.left
    if exts is None:
        return nodes, ms, "out", None
    digest = hashlib.sha256(",".join(map(hex, exts)).encode()).hexdigest()[:16]
    return nodes, ms, len(exts), digest


def expected_rows(path):
    """Row name to row, from a report of this script or from a BENCH_*.json
    file that holds one under "node_rows"."""
    with open(path) as handle:
        report = json.load(handle)
    report = report.get("node_rows", report)
    return {row["row"]: row for row in report["rows"]}


def against(row, old):
    """Why a finishing row fails the expectation `old`, or None: the digest
    must match where `old` finished too, and the nodes may not exceed
    `old`'s."""
    if old is None or row["extensions"] == "out":
        return None
    if old["extensions"] != "out" and row["digest"] != old["digest"]:
        return f"digest {row['digest']}, expected {old['digest']}"
    if row["nodes"] > old["nodes"]:
        return f"{row['nodes']} nodes, expected at most {old['nodes']}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=int, default=2 * 10**6,
                        help="search nodes per row (default 2000000)")
    parser.add_argument("--exclude", action="append", default=[], metavar="TEXT",
                        help="skip the rows whose name contains TEXT")
    parser.add_argument("--expect", metavar="PATH",
                        help="fail a finishing row whose digest differs from, or "
                             "whose nodes exceed, this report's row")
    args = parser.parse_args(argv)
    expected_by_row = expected_rows(args.expect) if args.expect else {}
    rows, ok = [], True
    for name, expected in ROWS:
        if any(text in name for text in args.exclude):
            continue
        nodes, ms, count, digest = run_row(generate(parse_generator_spec(name)), args.budget)
        row = {"row": name, "semantics": "prf", "nodes": nodes, "ms": round(ms, 1),
               "extensions": count, "expected": expected, "digest": digest}
        if count != "out" and expected is not None and count != expected:
            wrong = f"expected {expected} extensions"
        else:
            wrong = against(row, expected_by_row.get(name))
        row["ok"] = wrong is None
        ok &= row["ok"]
        rows.append(row)
        found = "out of budget" if count == "out" else f"{count} extensions"
        note = "" if wrong is None else f", {wrong}"
        print(f"{name}: {found}, {nodes} nodes, {ms:.1f} ms{note}", file=sys.stderr)
    report = {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "processor": platform.processor(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "budget": args.budget,
        "rows": rows,
    }
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
