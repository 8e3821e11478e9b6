#!/usr/bin/env python3
"""Extension enumeration on a fixed set of rows, in-process, with the
search nodes each row takes.  A row is a generator spec and a semantics;
the same spec may appear under several.  Every row runs under its own node
budget, so a row that runs out is reported as "out" instead of hanging the
run.

Prints one JSON object: the machine, the Python version, the budget, and
per row its nodes, wall time in ms, extension count (or "out") and a
digest of the extensions, so two runs can be compared set for set.  Exits
1 when a row that finishes has another extension count than expected, or,
with --expect, another digest than the file's row for the same spec and
semantics, or more nodes than it.  --exclude TEXT skips the rows whose
"spec semantics" text contains TEXT, so "w=6,h=5 prf" skips one row and
"grid" every grid row.

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


# (generator spec, semantics, extension count; None where unknown)
ROWS = [
    ("er:n=100,p=0.05,seed=12345", "prf", 1),
    ("chain:n=1500", "prf", 1),
    ("cycle:n=200", "prf", 2),
    ("cycle:n=400", "prf", 2),
    ("er:n=120,p=0.04,seed=2", "prf", 5),
    ("scc:k=6,scc_size=10,p_intra=0.3,p_inter=0.1,seed=1", "prf", 12),
    ("er:n=3000,p=0.001,seed=1", "prf", 1),
    ("er:n=3000,p=0.001,seed=2", "prf", None),
    ("grid:w=5,h=5", "prf", 358),
    ("grid:w=6,h=5", "prf", None),
    ("grid:w=6,h=5", "sem", 1132),
    ("grid:w=6,h=5", "stg", 1132),
    # no stable extension: the range filter over every admissible resp.
    # naive set
    ("er:n=40,p=0.1,seed=1", "sem", 1),
    ("er:n=40,p=0.1,seed=1", "stg", 25),
    ("er:n=50,p=0.08,seed=2", "stg", 4),
    # nine disjoint 3-cycles: 3^9 naive sets, each a stage extension
    ("scc:k=9,scc_size=3,p_intra=0,p_inter=0", "stg", 19683),
    ("scc:k=6,scc_size=10,p_intra=0.3,p_inter=0.1,seed=1", "sem", 8),
    ("scc:k=6,scc_size=10,p_intra=0.3,p_inter=0.1,seed=1", "stg", 8),
    # |G| = 982: the stable space starts at the grounded closure
    ("er:n=3000,p=0.001,seed=1", "stb", 0),
]


def run_row(fw, kind, budget):
    """(nodes, ms, extension count, digest); a row that runs out spent one
    node past its budget, and has "out" and no digest."""
    start = time.perf_counter()
    try:
        exts = semantics.enumerate_extensions(fw, kind, budget)
    except semantics.BudgetExceeded:
        return budget + 1, (time.perf_counter() - start) * 1000, "out", None
    ms = (time.perf_counter() - start) * 1000
    digest = hashlib.sha256(",".join(map(hex, exts.extensions)).encode()).hexdigest()[:16]
    return exts.nodes, ms, len(exts), digest


def expected_rows(path):
    """(spec, semantics) to row, from a report of this script or from a
    BENCH_*.json file that holds one under "node_rows"."""
    with open(path) as handle:
        report = json.load(handle)
    report = report.get("node_rows", report)
    return {(row["row"], row["semantics"]): row for row in report["rows"]}


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
                        help="skip the rows whose \"spec semantics\" text contains TEXT")
    parser.add_argument("--expect", metavar="PATH",
                        help="fail a finishing row whose digest differs from, or "
                             "whose nodes exceed, this report's row")
    args = parser.parse_args(argv)
    expected_by_row = expected_rows(args.expect) if args.expect else {}
    rows, ok = [], True
    for name, sem, expected in ROWS:
        if any(text in f"{name} {sem}" for text in args.exclude):
            continue
        kind = semantics.SemanticsKind(sem)
        nodes, ms, count, digest = run_row(generate(parse_generator_spec(name)), kind, args.budget)
        row = {"row": name, "semantics": sem, "nodes": nodes, "ms": round(ms, 1),
               "extensions": count, "expected": expected, "digest": digest}
        if count != "out" and expected is not None and count != expected:
            wrong = f"expected {expected} extensions"
        else:
            wrong = against(row, expected_by_row.get((name, sem)))
        row["ok"] = wrong is None
        ok &= row["ok"]
        rows.append(row)
        found = "out of budget" if count == "out" else f"{count} extensions"
        note = "" if wrong is None else f", {wrong}"
        print(f"{name} {sem}: {found}, {nodes} nodes, {ms:.1f} ms{note}", file=sys.stderr)
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
