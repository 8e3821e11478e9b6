#!/usr/bin/env python3
"""Closed-loop benchmark of the afsolve command line.

One client, one process, one thread, one operation at a time.  Each
operation is one in-process call of ``afsolve.cli.main`` (``solve`` or
``query`` on an instance file, stdout captured), so it covers the path from
the input file to stdout.  Every output is checked after the timed loop by
checkers that do not use the program.

    python3 perfbench/run.py --workload prf-mix --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Run it from the repository root; it
reads the program from ``src/`` and writes only under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
LAYER_REPEATS = 3


def import_program():
    """Import ``afsolve.cli`` afresh from ``src/`` (dropping any earlier
    import, so every set-up pays the import)."""
    for name in [m for m in sys.modules if m == "afsolve" or m.startswith("afsolve.")]:
        del sys.modules[name]
    cli = importlib.import_module("afsolve.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"afsolve imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(name: str, seed: int, workdir: Path):
    """Import, input generation and writing of the instance files."""
    t0 = perf_counter()
    cli = import_program()
    t1 = perf_counter()
    wl = workloads.WORKLOADS[name](seed)
    t2 = perf_counter()
    paths = {}
    for i, fw in enumerate(wl.frameworks):
        for fmt in wl.formats:
            path = workdir / f"{i}.{fmt}"
            path.write_text(fw.to_apx() if fmt == "apx" else fw.to_tgf())
            paths[i, fmt] = str(path)
    t3 = perf_counter()
    return cli, wl, paths, (t3 - t0, t2 - t1, t3 - t2)


def run_op(cli, argv):
    """One CLI call; returns (outcome, stdout, seconds).  The outcome is 0
    on success, else the exit code or the name of the exception."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = cli.main(argv)
    except SystemExit as exc:
        outcome = f"exit {exc.code}"
    except Exception as exc:  # an operation may crash; the run goes on
        outcome = type(exc).__name__
    return outcome, out.getvalue(), perf_counter() - start


class Measurement:
    def __init__(self, n_ops: int):
        self.first: list = [None] * n_ops  # (outcome, stdout) of round 1
        self.latency = {"solve": [], "query": []}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.unsteady: set[int] = set()  # ops whose output changed between rounds
        self.rounds = 0
        self.wall = 0.0
        self.round1_spans = 0


def measure(cli, wl, paths, seconds: float, tracer=None) -> Measurement:
    """Whole rounds of the workload's operations for about ``seconds``: a
    new round starts only if a round of the mean length so far would end
    within ``seconds``.  There is always at least one round."""
    m = Measurement(len(wl.ops))
    argvs = [op.argv(paths[op.inst, op.fmt]) for op in wl.ops]
    # Every operation starts on a collected heap, as a fresh CLI process
    # would, and no collection inside the program walks the benchmark's
    # own objects (they are frozen after each collection).  Otherwise
    # garbage the program leaves in reference cycles (its recursive
    # closures) is freed whenever a later operation happens to trigger a
    # collection, and memory and latency depend on the order of
    # operations.  The collections between operations are not counted in
    # the wall time.
    gc.collect()
    gc.freeze()
    collect_s = 0.0
    start = perf_counter()
    while m.rounds == 0 or (perf_counter() - start) * (m.rounds + 1) / m.rounds <= seconds:
        for idx, op in enumerate(wl.ops):
            if tracer is None:
                outcome, stdout, dt = run_op(cli, argvs[idx])
            else:
                with tracer.span("cli.main", idx):
                    outcome, stdout, dt = run_op(cli, argvs[idx])
            m.attempted += 1
            if outcome == 0:
                m.latency["solve" if op.mode is None else "query"].append(dt)
            else:
                m.failed += 1
                key = f"{wl.frameworks[op.inst].label}: {outcome}"
                m.failures[key] = m.failures.get(key, 0) + 1
            if m.rounds == 0:
                m.first[idx] = (outcome, stdout)
            elif (outcome, stdout) != m.first[idx]:
                m.unsteady.add(idx)
            t0 = perf_counter()
            gc.collect()
            gc.freeze()
            collect_s += perf_counter() - t0
        m.rounds += 1
        if m.rounds == 1 and tracer is not None:
            m.round1_spans = len(tracer.spans)
    m.wall = perf_counter() - start - collect_s
    gc.unfreeze()
    return m


def check_outputs(wl, m: Measurement) -> list[str]:
    """Check every distinct output of round 1 (later rounds must repeat it
    byte for byte).  Returns the problems found."""
    problems = [f"output of {wl.ops[i]} changed between rounds" for i in sorted(m.unsteady)]
    by_inst: dict[int, list[int]] = {}
    for idx, op in enumerate(wl.ops):
        by_inst.setdefault(op.inst, []).append(idx)
    for inst, idxs in by_inst.items():
        fw = wl.frameworks[inst]
        if all(m.first[i][0] != 0 for i in idxs):
            continue
        af = check.AF(fw)
        facts = check.Facts(af, {wl.ops[i].kind for i in idxs})
        exts = {}
        try:
            for i in idxs:
                op, (outcome, stdout) = wl.ops[i], m.first[i]
                if op.mode is None and outcome == 0:
                    exts[op.fmt, op.kind] = check.parse_extensions(af, stdout)
                    check.check_extensions(af, op.kind, exts[op.fmt, op.kind], facts)
            for i in idxs:
                op, (outcome, stdout) = wl.ops[i], m.first[i]
                if op.mode is None or outcome != 0:
                    continue
                known = exts.get((op.fmt, op.kind))
                if known is None and facts.brute is not None:
                    known = facts.brute[op.kind]
                if known is None and facts.closed is not None:
                    known = {facts.closed}
                if known is not None:
                    check.check_query(af, op.kind, op.mode, op.arg, stdout.strip(), known, facts)
            # the .apx and .tgf inputs of one framework give identical stdout
            outputs: dict[tuple, set] = {}
            for i in idxs:
                op = wl.ops[i]
                outputs.setdefault((op.kind, op.mode, op.arg), set()).add(m.first[i])
            for key, seen in outputs.items():
                if len(seen) > 1:
                    raise check.CheckError(f"{key}: formats give different stdout")
        except check.CheckError as exc:
            problems.append(f"{fw.label}: {exc}")
    return problems


def end_to_end(m: Measurement, setup_s: float) -> dict:
    return {
        "solve_ms.p50": (statistics.median(m.latency["solve"]) * 1000, "ms"),
        "query_ms.p50": (statistics.median(m.latency["query"]) * 1000, "ms"),
        "ops_per_s": ((m.attempted - m.failed) / m.wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def install_tracer(cli) -> tracing.Tracer:
    formats, semantics = cli.formats, cli.semantics
    t = tracing.Tracer()
    t.wrap(formats, "parse_apx", "formats.parse_apx")
    t.wrap(formats, "parse_tgf", "formats.parse_tgf")
    # parse_apx/parse_tgf call build_framework by this name: the core layer
    t.wrap(formats, "build_framework", "core.build_framework")
    t.wrap(formats, "format_extensions", "formats.format_extensions",
           lambda a, r: len(r.encode()))
    t.wrap(semantics, "enumerate_extensions", "semantics.enumerate_extensions",
           lambda a, r: (a[1].value, len(r)))
    t.wrap(semantics, "credulous", "semantics.credulous", lambda a, r: a[2].value)
    t.wrap(semantics, "skeptical", "semantics.skeptical", lambda a, r: a[2].value)
    for attr in ("admissible_candidates", "exists_cover_with_property",
                 "is_range_supreme_by_cover"):
        if hasattr(semantics, attr):  # a later version may drop one: it counts 0
            t.wrap(semantics, attr, f"semantics.{attr}")
    return t


def layer_pass(cli, wl) -> dict:
    """Direct calls of the formats and core layers on the workload's inputs."""
    formats, core = cli.formats, sys.modules["afsolve.core"]
    texts = [(fw.to_apx(), fw.to_tgf()) for fw in wl.frameworks]
    lists = [(fw.names, [(fw.names[i], fw.names[j]) for i, j in fw.attacks])
             for fw in wl.frameworks]
    apx_s = tgf_s = build_s = 0.0
    parsed_bytes = 0
    for _ in range(LAYER_REPEATS):
        for apx, tgf in texts:
            t0 = perf_counter()
            formats.parse_apx(apx)
            t1 = perf_counter()
            formats.parse_tgf(tgf)
            t2 = perf_counter()
            apx_s += t1 - t0
            tgf_s += t2 - t1
            parsed_bytes += len(apx) + len(tgf)
        for names, pairs in lists:
            t0 = perf_counter()
            core.build_framework(names, pairs)
            build_s += perf_counter() - t0
    calls = LAYER_REPEATS * len(texts)
    return {
        "formats.parse_apx_ms": (apx_s / calls * 1000, "ms"),
        "formats.parse_tgf_ms": (tgf_s / calls * 1000, "ms"),
        "formats.parse_mb_per_s": (parsed_bytes / (apx_s + tgf_s) / 1e6, "MB/s"),
        "core.build_ms": (build_s / calls * 1000, "ms"),
    }


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def per_layer(t: tracing.Tracer, wl, m: Measurement, setup_parts) -> dict:
    S = tracing
    own = t.self_times()
    dur = [s[S.END] - s[S.START] for s in t.spans]
    # spans of failed operations are left out, like their latencies
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(t.spans):
        if m.first[t.spans[s[S.ROOT]][S.INFO]][0] == 0:
            by_name.setdefault(s[S.NAME], []).append(k)

    def named(name, first_round=False):
        ks = by_name.get(name, [])
        return [k for k in ks if k < m.round1_spans] if first_round else ks

    def op_of(k):
        return wl.ops[t.spans[t.spans[k][S.ROOT]][S.INFO]]

    enum = named("semantics.enumerate_extensions")
    metrics = {
        "cli.overhead_ms": (_mean([own[k] for k in named("cli.main")]) * 1000, "ms"),
        "formats.format_ms": (_mean([own[k] for k in named("formats.format_extensions")]) * 1000, "ms"),
        "formats.output_bytes": (_mean([t.spans[k][S.INFO] for k in named("formats.format_extensions")]), "bytes"),
    }
    for kind in ("prf", "sem", "stg", "stb"):
        ks = [k for k in enum if t.spans[k][S.INFO][0] == kind]
        metrics[f"semantics.enumerate_ms.{kind}"] = (_mean([dur[k] for k in ks]) * 1000, "ms")
    for cls, flag in (("stable", True), ("unstable", False)):
        ks = [k for k in enum if wl.frameworks[op_of(k).inst].stable is flag]
        metrics[f"semantics.enumerate_ms.{cls}"] = (_mean([dur[k] for k in ks]) * 1000, "ms")
    metrics["semantics.credulous_ms"] = (_mean([dur[k] for k in named("semantics.credulous")]) * 1000, "ms")
    metrics["semantics.skeptical_ms"] = (_mean([dur[k] for k in named("semantics.skeptical")]) * 1000, "ms")
    # query over enumeration time on the same instance and semantics
    enum_t: dict[tuple, list[float]] = {}
    query_t: dict[tuple, list[float]] = {}
    for name, table in (("semantics.enumerate_extensions", enum_t),
                        ("semantics.credulous", query_t), ("semantics.skeptical", query_t)):
        for k in named(name):
            op = op_of(k)
            table.setdefault((op.inst, op.kind), []).append(dur[k])
    ratios = [_mean(query_t[key]) / _mean(enum_t[key]) for key in enum_t if key in query_t]
    metrics["semantics.query_to_enum_ratio"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    # work counts are for one round (they repeat exactly); times per round
    pool = "semantics.admissible_candidates"
    cover = "semantics.exists_cover_with_property"
    verify = "semantics.is_range_supreme_by_cover"
    metrics["semantics.pool_calls"] = (len(named(pool, True)), "count")
    metrics["semantics.pool_ms"] = (sum(own[k] for k in named(pool)) / m.rounds * 1000, "ms")
    metrics["semantics.cover_calls"] = (len(named(cover, True)), "count")
    metrics["semantics.cover_ms"] = (sum(own[k] for k in named(cover)) / m.rounds * 1000, "ms")
    verify_in_enum = [k for k in named(verify, True)
                      if t.spans[t.spans[k][S.PARENT]][S.NAME] == "semantics.enumerate_extensions"]
    range_exts = sum(t.spans[k][S.INFO][1] for k in named("semantics.enumerate_extensions", True)
                     if t.spans[k][S.INFO][0] in ("sem", "stg"))
    metrics["semantics.range_verify_calls"] = (len(named(verify, True)), "count")
    metrics["semantics.range_verify_yield"] = (
        range_exts / len(verify_in_enum) if verify_in_enum else 0.0, "ratio")
    metrics["semantics.extensions"] = (
        sum(t.spans[k][S.INFO][1] for k in named("semantics.enumerate_extensions", True)), "count")
    metrics["setup.generate_s"] = (statistics.median(p[1] for p in setup_parts), "s")
    metrics["setup.write_s"] = (statistics.median(p[2] for p in setup_parts), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "afsolve" / "cli.py").is_file():
        print(f"error: the program's sources are missing: {SRC / 'afsolve'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "work" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            cli, wl, paths, parts = setup(args.workload, args.seed, workdir)
            setups.append(parts)
        tracer = install_tracer(cli) if args.trace else None
        m = measure(cli, wl, paths, args.seconds, tracer)
        if tracer is not None:
            tracer.restore()
        problems = check_outputs(wl, m)
        if args.trace:
            metrics = per_layer(tracer, wl, m, setups)
            metrics.update(layer_pass(cli, wl))
        else:
            metrics = end_to_end(m, statistics.median(p[0] for p in setups))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    results.mkdir(exist_ok=True)
    details = dict(result, rounds=m.rounds, wall_s=m.wall, failures=m.failures,
                   ops_per_round=len(wl.ops), problems=problems,
                   loop_ops_per_s=(m.attempted - m.failed) / m.wall)
    (results / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{tag}.spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
