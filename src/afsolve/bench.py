"""Seeded instance generators and a timeout-controlled measurement harness.

Enumeration tasks run in child processes so a wall-clock timeout can be
enforced from outside the solver call; results land in a CSV with one row
per (instance, semantics) and a summary of solved counts and medians, with
timed-out runs counted at the timeout value.  A run that exhausts its node
budget is UNKNOWN; one that raises any other error, or whose child dies, is
CRASH.
"""

from __future__ import annotations

import csv
import multiprocessing as mp
import random
import statistics
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from enum import Enum

from .core import ArgumentationFramework, build_framework
from .semantics import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    SemanticsKind,
    enumerate_extensions,
)

# the parameters each generator model takes, besides the optional seed
MODELS = {
    "er": ("n", "p"),
    "chain": ("n",),
    "cycle": ("n",),
    "grid": ("w", "h"),
    "scc": ("k", "scc_size", "p_intra", "p_inter"),
}


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    """One reproducible instance: same spec and seed, same framework."""

    model: str
    params: tuple[tuple[str, float], ...]
    seed: int = 0

    def param(self, key: str) -> float:
        for k, v in self.params:
            if k == key:
                return v
        raise GeneratorError(f"model {self.model!r} needs parameter {key!r}")

    def label(self) -> str:
        """Comma-free identifier, safe for unquoted CSV fields."""
        inner = "-".join(f"{k}{v:g}" for k, v in self.params)
        return f"{self.model}-{inner}-seed{self.seed}"


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse CLI strings like "er:n=50,p=0.05,seed=7"."""
    model, _, rest = text.partition(":")
    if model not in MODELS:
        raise GeneratorError(f"unknown generator model {model!r}")
    params = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise GeneratorError(f"malformed parameter {item!r}")
        if key != "seed" and key not in MODELS[model]:
            raise GeneratorError(f"model {model!r} takes no parameter {key!r}")
        if key in params:
            raise GeneratorError(f"parameter {key!r} given twice")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise GeneratorError(f"non-numeric value in {item!r}") from exc
    seed = params.pop("seed", 0.0)
    if not seed.is_integer():
        raise GeneratorError(f"seed must be an integer, got {seed:g}")
    return GeneratorSpec(model=model, params=tuple(params.items()), seed=int(seed))


def _int_param(spec: GeneratorSpec, key: str, minimum: int = 0) -> int:
    value = spec.param(key)
    if not value.is_integer() or value < minimum:
        raise GeneratorError(f"{key} must be an integer >= {minimum}")
    return int(value)


def _prob_param(spec: GeneratorSpec, key: str) -> float:
    value = spec.param(key)
    if not 0.0 <= value <= 1.0:
        raise GeneratorError(f"{key} must be in [0,1]")
    return value


def generate(spec: GeneratorSpec) -> ArgumentationFramework:
    rng = random.Random(spec.seed)
    if spec.model == "er":
        n = _int_param(spec, "n")
        p = _prob_param(spec, "p")
        names = [f"a{i}" for i in range(n)]
        attacks = [
            (names[i], names[j])
            for i in range(n)
            for j in range(n)
            if rng.random() < p
        ]
        return build_framework(names, attacks)
    if spec.model in ("chain", "cycle"):
        n = _int_param(spec, "n")
        names = [f"a{i}" for i in range(n)]
        attacks = [(names[i], names[i + 1]) for i in range(n - 1)]
        if spec.model == "cycle" and n:
            attacks.append((names[-1], names[0]))
        return build_framework(names, attacks)
    if spec.model == "grid":
        w = _int_param(spec, "w", minimum=1)
        h = _int_param(spec, "h", minimum=1)
        names = [f"g{x}_{y}" for y in range(h) for x in range(w)]

        def at(x, y):
            return names[y * w + x]

        attacks = []
        for y in range(h):
            for x in range(w):
                if x + 1 < w:
                    attacks += [(at(x, y), at(x + 1, y)), (at(x + 1, y), at(x, y))]
                if y + 1 < h:
                    attacks += [(at(x, y), at(x, y + 1)), (at(x, y + 1), at(x, y))]
        return build_framework(names, attacks)
    if spec.model == "scc":
        k = _int_param(spec, "k", minimum=1)
        size = _int_param(spec, "scc_size", minimum=1)
        p_intra = _prob_param(spec, "p_intra")
        p_inter = _prob_param(spec, "p_inter")
        names = [f"b{b}_n{i}" for b in range(k) for i in range(size)]

        def node(b, i):
            return names[b * size + i]

        attacks = []
        for b in range(k):
            # a directed cycle keeps each block strongly connected
            if size > 1:
                for i in range(size):
                    attacks.append((node(b, i), node(b, (i + 1) % size)))
            for i in range(size):
                for j in range(size):
                    if i != j and rng.random() < p_intra:
                        attacks.append((node(b, i), node(b, j)))
            if b + 1 < k:
                for i in range(size):
                    for j in range(size):
                        if rng.random() < p_inter:
                            attacks.append((node(b, i), node(b + 1, j)))
        return build_framework(names, attacks)
    raise GeneratorError(f"unknown generator model {spec.model!r}")


class BenchStatus(Enum):
    SOLVED = "SOLVED"
    TIMEOUT = "TIMEOUT"
    UNKNOWN = "UNKNOWN"
    CRASH = "CRASH"


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    kind: SemanticsKind
    status: BenchStatus
    time_ms: float
    ext_count: int | None
    n_args: int
    n_attacks: int


CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))


@dataclass
class BenchSummary:
    records: list[BenchRecord]
    timeout_ms: float
    solved: dict[SemanticsKind, int] = field(default_factory=dict)
    median_ms: dict[SemanticsKind, float] = field(default_factory=dict)

    def __post_init__(self):
        by_kind: dict[SemanticsKind, list[float]] = {}
        for rec in self.records:
            times = by_kind.setdefault(rec.kind, [])
            if rec.status is BenchStatus.TIMEOUT:
                times.append(self.timeout_ms)
            else:
                times.append(rec.time_ms)
            if rec.status is BenchStatus.SOLVED:
                self.solved[rec.kind] = self.solved.get(rec.kind, 0) + 1
        for kind, times in by_kind.items():
            self.solved.setdefault(kind, 0)
            self.median_ms[kind] = statistics.median(times)


def _child_enumerate(conn, fw, kind_value, budget):
    start = time.perf_counter()
    count = None
    try:
        exts = enumerate_extensions(fw, SemanticsKind(kind_value), budget=budget)
        status, count = "SOLVED", len(exts)
    except BudgetExceeded:
        status = "UNKNOWN"
    except Exception:
        status = "CRASH"
        traceback.print_exc()
    conn.send((status, (time.perf_counter() - start) * 1000.0, count))
    conn.close()


def _run_task(instance_id, fw, kind, timeout_ms, budget) -> BenchRecord:
    """Run one enumeration in a child process; TIMEOUT, counted at the
    timeout, when it has not reported within timeout_ms."""
    status, time_ms, count = "TIMEOUT", timeout_ms, None
    if timeout_ms > 0:
        parent, child = mp.Pipe(duplex=False)
        proc = mp.Process(target=_child_enumerate, args=(child, fw, kind.value, budget))
        start = time.perf_counter()
        proc.start()
        child.close()
        proc.join(timeout=timeout_ms / 1000.0)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        else:
            try:
                status, time_ms, count = parent.recv()
            except EOFError:
                # the child died before it could report
                status, time_ms = "CRASH", (time.perf_counter() - start) * 1000.0
        parent.close()
    n_attacks = sum(out.bit_count() for out in fw.attacked_by)
    return BenchRecord(
        instance_id, kind, BenchStatus(status), time_ms, count, fw.n, n_attacks
    )


def run_suite(
    instances,
    kinds,
    timeout_ms: float,
    out_csv_path,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> BenchSummary:
    """instances: iterable of (instance_id, framework).  Writes one CSV
    row per (instance, kind), sorted by (instance id, kind)."""
    tasks = [
        (instance_id, fw, kind)
        for instance_id, fw in instances
        for kind in kinds
    ]
    # each task already runs in its own child process; threads here only
    # overlap the waiting
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = [
            pool.submit(_run_task, tid, fw, kind, timeout_ms, budget)
            for tid, fw, kind in tasks
        ]
        records = [f.result() for f in futures]
    records.sort(key=lambda r: (r.instance_id, r.kind.value))

    with open(out_csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow(
                [
                    rec.instance_id,
                    rec.kind.value,
                    rec.status.value,
                    f"{rec.time_ms:.3f}",
                    "" if rec.ext_count is None else rec.ext_count,
                    rec.n_args,
                    rec.n_attacks,
                ]
            )
    return BenchSummary(records=records, timeout_ms=timeout_ms)
