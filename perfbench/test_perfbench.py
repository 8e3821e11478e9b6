"""Self-tests of the benchmark: generators, checkers and one short run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

import check
import gen
import run
import workloads


def frameworks_of(wl):
    return [(fw.label, fw.names, fw.attacks, fw.stable) for fw in wl.frameworks]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(1), make(1), make(2)
    assert frameworks_of(first) == frameworks_of(again)
    assert first.ops == again.ops
    assert [fw.to_apx() for fw in first.frameworks] == [fw.to_apx() for fw in again.frameworks]
    assert [fw.to_tgf() for fw in first.frameworks] == [fw.to_tgf() for fw in again.frameworks]
    assert frameworks_of(first) != frameworks_of(other)


def random_small(seed):
    rng = random.Random(seed)
    return gen.er(rng, rng.randrange(1, 13), rng.choice((0.1, 0.2, 0.3)), f"small{seed}")


def naive_grounded(af):
    g = 0
    while True:
        hit = af.attacked(g)
        nxt = sum(1 << i for i in range(af.n) if af.att_of[i] & ~hit == 0)
        if nxt == g:
            return g
        g = nxt


def test_own_semantics_agree_with_brute_force():
    for seed in range(200):
        af = check.AF(random_small(seed))
        brute = af.brute_force()
        assert set(af.stable_extensions()) == brute["stb"]
        assert af.grounded() == naive_grounded(af)
        assert all(af.is_adm(e) for e in brute["prf"])


def test_sparse_blocks_have_the_stable_count_the_generator_promises():
    for seed in range(5):
        assert len(check.AF(gen.sparse_blocks(gen.rng_for(seed), 300, False, "s")).stable_extensions()) == 2
        assert check.AF(gen.sparse_blocks(gen.rng_for(seed), 300, True, "o")).stable_extensions() == []


def two_preferred():
    """a <-> b, both attack c, and a 20-argument chain hanging off c, so
    brute force is out of reach and the property checks must do the work."""
    names = ["a", "b", "c"] + [f"d{i}" for i in range(20)]
    attacks = [(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)] + [(i, i + 1) for i in range(3, 22)]
    return gen.Framework("two", names, attacks)


def masks(af, *sets):
    return {sum(1 << af.index[x] for x in s) for s in sets}


def test_checker_accepts_right_answers():
    af = check.AF(two_preferred())
    facts = check.Facts(af, {"prf"})
    tail = [f"d{i}" for i in range(0, 20, 2)]
    right = masks(af, ["a", *tail], ["b", *tail])
    check.check_extensions(af, "prf", right, facts)
    check.check_query(af, "prf", "cred", "a", "YES", right, facts)
    check.check_query(af, "prf", "skep", "a", "NO", right, facts)


def test_checker_rejects_a_non_admissible_set():
    af = check.AF(two_preferred())
    facts = check.Facts(af, {"prf"})
    tail = [f"d{i}" for i in range(0, 20, 2)]
    wrong = masks(af, ["a", *tail], ["b", "d1"])  # nothing defends d1 against d0
    with pytest.raises(check.CheckError):
        check.check_extensions(af, "prf", wrong, facts)


def test_checker_rejects_a_missing_preferred_extension():
    # small: brute force catches it
    af = check.AF(gen.Framework("ab", ["a", "b"], [(0, 1), (1, 0)]))
    with pytest.raises(check.CheckError):
        check.check_extensions(af, "prf", masks(af, ["a"]), check.Facts(af, {"prf"}))
    # a chain: the closed form catches an empty answer
    af = check.AF(gen.chain(40, "c"))
    with pytest.raises(check.CheckError):
        check.check_extensions(af, "prf", set(), check.Facts(af, {"prf"}))


def test_checker_rejects_a_preferred_set_that_can_grow():
    af = check.AF(two_preferred())
    facts = check.Facts(af, {"prf"})
    tail = [f"d{i}" for i in range(0, 20, 2)]
    with pytest.raises(check.CheckError):  # d2.. can be added to {a, d0}
        check.check_extensions(af, "prf", masks(af, ["a", "d0"], ["b", *tail]), facts)


def test_checker_rejects_wrong_yes_no_answers():
    af = check.AF(two_preferred())
    facts = check.Facts(af, {"prf"})
    tail = [f"d{i}" for i in range(0, 20, 2)]
    right = masks(af, ["a", *tail], ["b", *tail])
    for mode, arg, wrong in (("cred", "a", "NO"), ("skep", "a", "YES"),
                             ("cred", "c", "YES"), ("skep", "d0", "NO"), ("cred", "d1", "YES")):
        with pytest.raises(check.CheckError):
            check.check_query(af, "prf", mode, arg, wrong, right, facts)


def test_checker_requires_sem_stg_stb_to_agree_when_stable_exists():
    af = check.AF(gen.grid(5, 4, "g"))  # 20 arguments: no brute force
    facts = check.Facts(af, {"sem", "stg"})
    assert facts.brute is None and facts.stable
    check.check_extensions(af, "stg", facts.stable, facts)
    with pytest.raises(check.CheckError):
        check.check_extensions(af, "sem", set(list(facts.stable)[1:]), facts)


def test_parse_extensions_rejects_garbage():
    af = check.AF(gen.chain(3, "c"))
    assert check.parse_extensions(af, "[a0,a2]\n[]\n") == {0b101, 0}
    for bad in ("[a0,zz]\n", "a0\n", "[a0]\n[a0]\n"):
        with pytest.raises(check.CheckError):
            check.parse_extensions(af, bad)


def test_short_traced_run_counts_only_the_known_failures():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "io-bulk", "--seed", "1", "--seconds", "0.1", "--trace", "1"])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is True
    # two frameworks x two formats x (solve, cred, skep) fail in each round
    # of 16 frameworks x 6 operations
    assert result["failed"] * 96 == result["attempted"] * 12
    assert result["metrics"]["semantics.pool_calls"]["value"] == 0
