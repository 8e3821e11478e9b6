#!/usr/bin/env python3
"""Command-line wall time, one fresh interpreter per operation, against a
parent commit.

The north star measures the solver as a per-instance runner calls it: a
new ``python -m afsolve.cli`` process per operation, from the input file
to stdout, import and argv included.  This script writes seeded instance
files with ``bench.generate`` (apx and tgf), extracts the parent commit's
``src/`` with ``git archive`` into a temporary directory (so no worktree
is registered), and runs every operation once in each of ``ROUNDS``
rounds on each side: the bare interpreter (``python -c pass``), the
parent and the working tree, in an order that rotates from round to
round.  Every process runs
with ``PYTHONDONTWRITEBYTECODE=1``, so each side compiles its sources on
every call and leaves no ``__pycache__`` behind.

Prints one JSON object: the machine, the Python version, per operation
the median and quartiles of each side's wall times in ms, and over all
operations the median of the per-operation medians and the change's
ratio to the parent, and that median again per argv route: the plain
solve and query argvs, and the queries with ``--budget``, which only
argparse reads.  Exits 1 when the two commits' stdout or exit code
differ on any operation.  Stdlib only; nothing leaves the machine.

Usage:
    PYTHONPATH=src python3 scripts/cli_wall.py --parent COMMIT
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

from afsolve.bench import generate, parse_generator_spec
from afsolve.cli import _plain_argv
from afsolve.encodings import emit_apx_facts

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 15

# (generator spec, semantics, argument queried): a perfbench-sized
# preferred chain, a range-mix-sized graph without a stable extension and
# an io-bulk-sized sparse graph
SPECS = [
    ("chain:n=70", "prf", "a35"),
    ("er:n=40,p=0.1,seed=1", "stg", "a20"),
    ("er:n=1000,p=0.001,seed=1", "stb", "a500"),
]


def write_instances(workdir: Path):
    """The operations, as (label, argv after ``afsolve.cli``)."""
    ops = []
    for i, (spec, sem, arg) in enumerate(SPECS):
        fw = generate(parse_generator_spec(spec))
        tgf = "".join(a + "\n" for a in fw.args) + "#\n"
        tgf += "".join(f"{fw.args[s]} {fw.args[t]}\n" for s, t in sorted(fw.attacks))
        for fmt, text in (("apx", emit_apx_facts(fw)), ("tgf", tgf)):
            path = workdir / f"{i}.{fmt}"
            path.write_text(text)
            base = [str(path), "--format", fmt, "--sem", sem]
            for cmd, *flags in (
                ["solve"],
                ["query", "--cred", arg],
                ["query", "--skep", arg],
                ["query", "--cred", arg, "--budget", "100000000"],  # argparse's route
            ):
                ops.append((f"{spec} {sem} {fmt} {' '.join([cmd, *flags])}", [cmd, *base, *flags]))
    return ops


def extract_src(commit: str, into: Path) -> Path:
    """The commit's ``src/`` directory, unpacked under ``into``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit, "src"],
        capture_output=True,
        check=True,
    ).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    return into / "src"


def timed(cmd, env):
    """(wall seconds, stdout, exit code) of one process."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    return time.perf_counter() - start, proc.stdout, proc.returncode


def spread(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(median * 1e3, 2), "q1": round(q1 * 1e3, 2), "q3": round(q3 * 1e3, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="COMMIT")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        sources = {"parent": extract_src(args.parent, tmp / "parent"), "change": ROOT / "src"}
        ops = write_instances(tmp)
        base_env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        envs = {side: dict(base_env, PYTHONPATH=str(src)) for side, src in sources.items()}
        sides = ["bare", "parent", "change"]
        times = {label: {side: [] for side in sides} for label, _ in ops}
        outputs = {}
        for r in range(ROUNDS):
            order = sides[r % 3:] + sides[: r % 3]
            for label, op in ops:
                for side in order:
                    if side == "bare":
                        cmd, env = [sys.executable, "-c", "pass"], base_env
                    else:
                        cmd, env = [sys.executable, "-m", "afsolve.cli", *op], envs[side]
                    dt, out, code = timed(cmd, env)
                    times[label][side].append(dt)
                    if side != "bare":
                        outputs.setdefault((label, side), (out, code))

    differ = [label for label, _ in ops if outputs[label, "parent"] != outputs[label, "change"]]
    per_op = {label: {side: spread(t) for side, t in sides_t.items()} for label, sides_t in times.items()}

    def op_medians(labels):
        return {
            side: round(statistics.median(per_op[label][side]["median"] for label in labels), 2)
            for side in sides
        }

    overall = op_medians(per_op)
    routes = {"plain": [], "argparse": []}
    for label, op in ops:
        routes["plain" if _plain_argv(op) else "argparse"].append(label)
    print(json.dumps({
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "parent": args.parent,
        "rounds": ROUNDS,
        "unit": "ms",
        "per_op": per_op,
        "median_of_op_medians": overall,
        "median_of_op_medians_by_route": {route: op_medians(labels) for route, labels in routes.items()},
        "change_vs_parent": round(overall["change"] / overall["parent"] - 1, 4),
        "above_bare": {side: round(overall[side] - overall["bare"], 2) for side in ("parent", "change")},
        "outputs_differ": differ,
    }, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
