import csv
import multiprocessing as mp
import os
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsolve import SemanticsKind, bench, emit_apx_facts
from afsolve.bench import (
    BenchRecord,
    BenchStatus,
    BenchSummary,
    GeneratorError,
    generate,
    parse_generator_spec,
    run_suite,
)


def spec(text):
    return parse_generator_spec(text)


def test_parse_spec():
    s = spec("er:n=50,p=0.05,seed=7")
    assert s.model == "er"
    assert s.param("n") == 50
    assert s.param("p") == 0.05
    assert s.seed == 7


def test_parse_spec_errors():
    with pytest.raises(GeneratorError):
        spec("bogus:n=3")
    with pytest.raises(GeneratorError):
        spec("er:n")
    with pytest.raises(GeneratorError):
        spec("er:n=x")
    with pytest.raises(GeneratorError):
        generate(spec("er:n=5,p=1.5"))
    with pytest.raises(GeneratorError):
        generate(spec("er:p=0.1"))  # n missing
    with pytest.raises(GeneratorError):
        spec("chain:n=4,p=3")  # chain takes no p
    with pytest.raises(GeneratorError):
        spec("er:n=3,p=0.5,n=9")
    with pytest.raises(GeneratorError):
        spec("er:n=3,p=0.5,seed=1,seed=2")
    with pytest.raises(GeneratorError):
        spec("er:n=3,p=0.5,seed=1.7")
    with pytest.raises(GeneratorError):
        spec("er:n=3,p=0.5,seed=nan")
    with pytest.raises(GeneratorError):
        generate(spec("er:n=inf,p=0.5"))


def test_chain():
    fw = generate(spec("chain:n=3"))
    assert fw.n == 3
    assert fw.attacks == frozenset({(0, 1), (1, 2)})


def test_cycle():
    assert generate(spec("cycle:n=3")).attacks == frozenset({(0, 1), (1, 2), (2, 0)})
    assert generate(spec("cycle:n=1")).attacks == frozenset({(0, 0)})
    assert generate(spec("cycle:n=0")).n == 0


def test_er_p_zero():
    fw = generate(spec("er:n=5,p=0,seed=3"))
    assert fw.n == 5
    assert not fw.attacks


def test_grid():
    fw = generate(spec("grid:w=2,h=2"))
    assert fw.n == 4
    # mutual attacks on each of the 4 grid edges
    assert len(fw.attacks) == 8


def _scc_count(fw):
    # Tarjan, iterative
    n = fw.n
    adj = [[t for (s, t) in fw.attacks if s == i] for i in range(n)]
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    count = 0
    counter = [0]

    def strongconnect(v0):
        nonlocal count
        work = [(v0, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] is None:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                count += 1
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    if w == v:
                        break
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    for v in range(n):
        if index[v] is None:
            strongconnect(v)
    return count


def test_scc_ladder_condensation():
    fw = generate(spec("scc:k=3,scc_size=4,p_intra=0.5,p_inter=0.2,seed=11"))
    assert fw.n == 12
    assert _scc_count(fw) == 3


def test_generation_deterministic():
    s = spec("er:n=20,p=0.2,seed=99")
    assert emit_apx_facts(generate(s)) == emit_apx_facts(generate(s))


def test_generation_seed_sensitivity():
    a = generate(spec("er:n=20,p=0.2,seed=1"))
    b = generate(spec("er:n=20,p=0.2,seed=2"))
    assert a.attacks != b.attacks


def test_run_suite_chains(tmp_path):
    out = tmp_path / "bench.csv"
    instances = [(f"chain{i}", generate(spec(f"chain:n={i + 2}"))) for i in range(10)]
    summary = run_suite(
        instances, [SemanticsKind.PRF], timeout_ms=60000, out_csv_path=out
    )
    assert summary.solved[SemanticsKind.PRF] == 10
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    assert all(r["status"] == "SOLVED" for r in rows)
    assert all(r["ext_count"] == "1" for r in rows)
    assert {r["kind"] for r in rows} == {"prf"}


def test_run_suite_timeout_zero(tmp_path):
    out = tmp_path / "bench.csv"
    instances = [("c", generate(spec("chain:n=3")))]
    summary = run_suite(
        instances, [SemanticsKind.STB], timeout_ms=0, out_csv_path=out
    )
    rec = summary.records[0]
    assert rec.status is BenchStatus.TIMEOUT
    assert rec.ext_count is None
    assert summary.solved[SemanticsKind.STB] == 0


def test_run_suite_unknown_on_budget(tmp_path):
    out = tmp_path / "bench.csv"
    instances = [("e1", generate(spec("er:n=10,p=0.2,seed=5")))]
    summary = run_suite(
        instances,
        [SemanticsKind.PRF],
        timeout_ms=60000,
        out_csv_path=out,
        budget=2,
    )
    assert summary.records[0].status is BenchStatus.UNKNOWN


def _crashing_enumeration(fw, kind, budget):
    raise ZeroDivisionError("solver bug")


def _dying_enumeration(fw, kind, budget):
    os._exit(9)


@pytest.mark.parametrize("enumerate_in_child", [_crashing_enumeration, _dying_enumeration])
def test_run_suite_crash_is_not_unknown(tmp_path, monkeypatch, enumerate_in_child):
    # the forked child inherits the patched module attribute
    monkeypatch.setattr(bench, "enumerate_extensions", enumerate_in_child)
    out = tmp_path / "bench.csv"
    instances = [("c", generate(spec("chain:n=3")))]
    summary = run_suite(
        instances, [SemanticsKind.STB], timeout_ms=60000, out_csv_path=out
    )
    rec = summary.records[0]
    assert rec.status is BenchStatus.CRASH
    assert rec.ext_count is None
    assert summary.solved[SemanticsKind.STB] == 0
    assert [r["status"] for r in csv.DictReader(out.open())] == ["CRASH"]


def _sleeping_enumeration(fw, kind, budget):
    time.sleep(60)


def test_run_suite_kills_a_child_past_its_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "enumerate_extensions", _sleeping_enumeration)
    out = tmp_path / "bench.csv"
    instances = [("c", generate(spec("chain:n=3")))]
    start = time.perf_counter()
    summary = run_suite(
        instances, [SemanticsKind.STB], timeout_ms=200, out_csv_path=out
    )
    assert time.perf_counter() - start < 30
    rec = summary.records[0]
    assert rec.status is BenchStatus.TIMEOUT
    assert rec.time_ms == 200
    assert rec.ext_count is None
    assert mp.active_children() == []
    assert [r["ext_count"] for r in csv.DictReader(out.open())] == [""]


def test_run_suite_rerun_identical_except_times(tmp_path):
    instances = [(f"i{i}", generate(spec(f"er:n=8,p=0.2,seed={i}"))) for i in range(4)]
    kinds = [SemanticsKind.PRF, SemanticsKind.STG]
    rows = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        run_suite(instances, kinds, timeout_ms=60000, out_csv_path=out)
        rows.append(
            [
                {k: v for k, v in r.items() if k != "time_ms"}
                for r in csv.DictReader(out.open())
            ]
        )
    assert rows[0] == rows[1]


def test_run_suite_workers(tmp_path):
    out = tmp_path / "bench.csv"
    instances = [(f"c{i}", generate(spec(f"chain:n={i + 2}"))) for i in range(6)]
    summary = run_suite(
        instances, [SemanticsKind.STB], timeout_ms=60000, out_csv_path=out, workers=3
    )
    assert summary.solved[SemanticsKind.STB] == 6
    ids = [r.instance_id for r in summary.records]
    assert ids == sorted(ids)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([BenchStatus.SOLVED, BenchStatus.TIMEOUT, BenchStatus.UNKNOWN]),
            st.floats(min_value=0, max_value=1000),
        ),
        min_size=1,
        max_size=30,
    ),
    st.floats(min_value=1, max_value=5000),
)
@settings(max_examples=100, deadline=None)
def test_summary_median_matches_naive(entries, timeout_ms):
    records = [
        BenchRecord(f"i{i}", SemanticsKind.PRF, status, time_ms, 1 if status is BenchStatus.SOLVED else None, 3, 2)
        for i, (status, time_ms) in enumerate(entries)
    ]
    summary = BenchSummary(records=records, timeout_ms=timeout_ms)
    naive = [
        timeout_ms if status is BenchStatus.TIMEOUT else time_ms
        for status, time_ms in entries
    ]
    expected = statistics.median(sorted(naive))
    assert summary.median_ms[SemanticsKind.PRF] == pytest.approx(expected)
    assert summary.solved[SemanticsKind.PRF] == sum(
        1 for s, _ in entries if s is BenchStatus.SOLVED
    )
