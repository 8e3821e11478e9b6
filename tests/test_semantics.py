import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsolve import (
    BudgetExceeded,
    PreconditionError,
    SemanticsKind,
    brute_force,
    build_framework,
    credulous,
    enumerate_extensions,
    exists_cover_with_property,
    is_admissible,
    is_conflict_free,
    is_preferred_by_maximality,
    is_preferred_by_witness,
    is_range_supreme_by_cover,
    is_range_supreme_by_superset,
    is_stable,
    range_of,
    skeptical,
)
from afsolve import semantics
from afsolve.core import iter_bits

from conftest import (
    EXAMPLE1_ADMISSIBLE,
    EXAMPLE1_PREFERRED,
    EXAMPLE1_STABLE,
    frameworks,
    name_sets,
    random_framework,
)

CF = SemanticsKind.CF
ADM = SemanticsKind.ADM
STB = SemanticsKind.STB
PRF = SemanticsKind.PRF
SEM = SemanticsKind.SEM
STG = SemanticsKind.STG


# --- golden enumeration -----------------------------------------------------

def test_example1_preferred(example1):
    exts = enumerate_extensions(example1, PRF)
    assert name_sets(example1, exts) == [{"a", "c", "f"}, {"a", "d", "f"}]


@pytest.mark.parametrize("kind", [STB, SEM, STG])
def test_example1_stable_family(example1, kind):
    exts = enumerate_extensions(example1, kind)
    assert sorted(name_sets(example1, exts), key=sorted) == sorted(
        EXAMPLE1_STABLE, key=sorted
    )


def test_example1_admissible(example1):
    exts = enumerate_extensions(example1, ADM)
    got = name_sets(example1, exts)
    assert len(got) == 8
    for s in EXAMPLE1_ADMISSIBLE:
        assert s in got


def test_three_cycle(three_cycle):
    assert len(enumerate_extensions(three_cycle, STB)) == 0
    assert name_sets(three_cycle, enumerate_extensions(three_cycle, STG)) == [
        {"a"},
        {"b"},
        {"c"},
    ]
    assert name_sets(three_cycle, enumerate_extensions(three_cycle, SEM)) == [set()]


def test_empty_framework_all_semantics():
    fw = build_framework([], [])
    for kind in SemanticsKind:
        exts = enumerate_extensions(fw, kind)
        assert exts.extensions == (0,)


def test_enumeration_order_is_ascending_masks(example1):
    exts = enumerate_extensions(example1, PRF)
    assert list(exts.extensions) == sorted(exts.extensions)
    # {a,c,f} has the smaller bitmask, so it comes first
    assert example1.names_of(exts.extensions[0]) == ("a", "c", "f")


# --- verifiers ---------------------------------------------------------------

def test_is_admissible_examples(example1):
    assert is_admissible(example1, example1.set_of("cf"))
    assert not is_admissible(example1, example1.set_of("b"))
    assert is_admissible(example1, 0)


def test_is_stable_examples(example1):
    assert is_stable(example1, example1.set_of("adf"))
    assert is_stable(example1, example1.set_of("acf"))
    assert not is_stable(example1, 0)


# --- preferred: two routes ---------------------------------------------------

def test_preferred_by_maximality_examples(example1):
    assert not is_preferred_by_maximality(example1, example1.set_of("ac"))
    assert is_preferred_by_maximality(example1, example1.set_of("adf"))


def test_preferred_by_maximality_no_attacks():
    fw = build_framework("ab", [])
    assert is_preferred_by_maximality(fw, fw.all_mask)


def test_preferred_by_witness_examples(example1):
    assert is_preferred_by_witness(example1, example1.set_of("acf"))
    # witness E={c}: admissible, not within {a}, and {a,c} conflict-free
    assert not is_preferred_by_witness(example1, example1.set_of("a"))


def test_preferred_by_witness_no_attacks():
    fw = build_framework("ab", [])
    assert is_preferred_by_witness(fw, fw.all_mask)


def test_preferred_by_witness_requires_admissible(example1):
    with pytest.raises(PreconditionError):
        is_preferred_by_witness(example1, example1.set_of("b"))


# --- range supremacy: two routes ----------------------------------------------

def test_range_supreme_superset_examples(example1, three_cycle):
    assert is_range_supreme_by_superset(example1, example1.set_of("acf"), ADM)
    assert not is_range_supreme_by_superset(example1, 0, CF)
    assert is_range_supreme_by_superset(three_cycle, three_cycle.set_of("a"), CF)


def test_range_supreme_cover_examples(example1, three_cycle):
    # stable candidate takes the early exit
    assert is_range_supreme_by_cover(example1, example1.set_of("adf"), ADM)
    assert is_range_supreme_by_cover(three_cycle, 0, ADM)


def test_range_supreme_cover_precondition(three_cycle):
    with pytest.raises(PreconditionError):
        is_range_supreme_by_cover(three_cycle, three_cycle.set_of("a"), ADM)
    with pytest.raises(PreconditionError):
        is_range_supreme_by_cover(three_cycle, 0, STB)


def test_exists_cover_examples(example1):
    assert exists_cover_with_property(example1, example1.all_mask, CF)
    assert exists_cover_with_property(example1, 0, CF)
    assert exists_cover_with_property(example1, 0, ADM)


def test_exists_cover_self_attack():
    fw = build_framework(["a"], [("a", "a")])
    assert not exists_cover_with_property(fw, fw.set_of("a"), CF)


# --- queries -------------------------------------------------------------------

def test_credulous_examples(example1):
    assert credulous(example1, example1.index["c"], PRF)
    assert not credulous(example1, example1.index["b"], PRF)
    assert credulous(example1, example1.index["a"], STB)


def test_skeptical_examples(example1, three_cycle):
    assert skeptical(example1, example1.index["a"], PRF)
    assert not skeptical(example1, example1.index["c"], PRF)
    assert skeptical(three_cycle, three_cycle.index["a"], STB)  # vacuous


def test_query_index_validation(example1):
    with pytest.raises(PreconditionError):
        credulous(example1, 99, PRF)
    with pytest.raises(PreconditionError):
        skeptical(example1, -1, PRF)


# --- preferred: candidate pool -------------------------------------------------

def round_based_pool(fw):
    """Reference fixpoint: drop, round by round, every pool argument with
    an attacker that has no attacker left in the pool."""
    pool = sum(1 << a for a in range(fw.n) if (a, a) not in fw.attacks)
    while True:
        nxt = 0
        for a in iter_bits(pool):
            attackers = iter_bits(fw.attackers_of[a])
            if all(fw.attackers_of[b] & pool for b in attackers):
                nxt |= 1 << a
        if nxt == pool:
            return pool
        pool = nxt


@st.composite
def frameworks_with_self_attacks(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    loops = draw(st.lists(index, min_size=1, max_size=n))
    names = [f"a{i}" for i in range(n)]
    attacks = [(names[i], names[j]) for i, j in pairs + [(k, k) for k in loops]]
    return build_framework(names, attacks)


@given(frameworks_with_self_attacks())
@settings(max_examples=150, deadline=None)
def test_pool_equals_round_based_fixpoint(fw):
    assert semantics.admissible_candidates(fw) == round_based_pool(fw)


def test_preferred_computes_the_pool_once(monkeypatch, example1):
    calls = []
    real = semantics.admissible_candidates

    def counted(fw):
        calls.append(fw)
        return real(fw)

    monkeypatch.setattr(semantics, "admissible_candidates", counted)
    rng = random.Random(5)
    for fw in [example1] + [random_framework(rng, max_args=12) for _ in range(40)]:
        calls.clear()
        enumerate_extensions(fw, PRF)
        assert calls == [fw]


def test_long_chain_preferred_within_small_budget():
    n = 1500
    names = [f"a{i}" for i in range(n)]
    fw = build_framework(names, list(zip(names, names[1:])))
    exts = enumerate_extensions(fw, PRF, budget=10**4)
    assert exts.extensions == (sum(1 << i for i in range(0, n, 2)),)



def test_chain_admissible_within_small_budget():
    # the admissible sets are the 101 prefixes of the even positions; a
    # set that skips one can never defend itself again, and the search
    # must prune it at once rather than try its 2^k extensions
    n = 200
    names = [f"a{i}" for i in range(n)]
    fw = build_framework(names, list(zip(names, names[1:])))
    exts = enumerate_extensions(fw, ADM, budget=10**4)
    assert exts.extensions == tuple(
        sum(1 << i for i in range(0, 2 * k, 2)) for k in range(n // 2 + 1)
    )

@given(frameworks(max_args=10))
@settings(max_examples=80, deadline=None)
def test_preferred_queries_agree_with_enumeration_and_oracle(fw):
    exts = enumerate_extensions(fw, PRF).extensions
    assert exts == brute_force(fw, PRF).extensions
    for a in range(fw.n):
        bit = 1 << a
        assert credulous(fw, a, PRF) == any(s & bit for s in exts)
        assert skeptical(fw, a, PRF) == all(s & bit for s in exts)


# --- budget ----------------------------------------------------------------------

def test_budget_exceeded_signals_unknown(example1):
    with pytest.raises(BudgetExceeded):
        enumerate_extensions(example1, PRF, budget=3)


# --- properties on random frameworks ----------------------------------------------

@given(frameworks())
@settings(max_examples=80, deadline=None)
def test_witness_agrees_with_maximality(fw):
    for s in range(1 << fw.n):
        if is_admissible(fw, s):
            assert is_preferred_by_witness(fw, s) == is_preferred_by_maximality(
                fw, s
            )


@given(frameworks(max_args=7))
@settings(max_examples=60, deadline=None)
def test_range_supremacy_triple_equivalence(fw):
    stage = brute_force(fw, STG).as_set()
    semi = brute_force(fw, SEM).as_set()
    for s in range(1 << fw.n):
        if is_conflict_free(fw, s):
            by_cover = is_range_supreme_by_cover(fw, s, CF)
            by_superset = is_range_supreme_by_superset(fw, s, CF)
            assert by_cover == by_superset == (s in stage)
        if is_admissible(fw, s):
            by_cover = is_range_supreme_by_cover(fw, s, ADM)
            by_superset = is_range_supreme_by_superset(fw, s, ADM)
            assert by_cover == by_superset == (s in semi)


@given(frameworks())
@settings(max_examples=80, deadline=None)
def test_structural_properties(fw):
    exts = {kind: enumerate_extensions(fw, kind).as_set() for kind in SemanticsKind}
    assert exts[PRF] and exts[SEM] and exts[STG]
    if exts[STB]:
        assert exts[STB] == exts[STG] == exts[SEM]
    assert exts[STB] <= exts[PRF] & exts[SEM] & exts[STG]
    assert exts[PRF] <= exts[ADM] <= exts[CF]
    assert exts[STG] <= exts[CF]


@given(frameworks())
@settings(max_examples=60, deadline=None)
def test_extensions_pass_their_verifiers(fw):
    for s in enumerate_extensions(fw, ADM).extensions:
        assert is_admissible(fw, s)
    for s in enumerate_extensions(fw, STB).extensions:
        assert is_stable(fw, s)
    for s in enumerate_extensions(fw, PRF).extensions:
        assert is_preferred_by_maximality(fw, s)
    for s in enumerate_extensions(fw, SEM).extensions:
        assert is_range_supreme_by_superset(fw, s, ADM)
    for s in enumerate_extensions(fw, STG).extensions:
        assert is_range_supreme_by_superset(fw, s, CF)


@given(frameworks(max_args=6), st.sampled_from(list(SemanticsKind)))
@settings(max_examples=80, deadline=None)
def test_queries_agree_with_enumeration(fw, kind):
    exts = enumerate_extensions(fw, kind).extensions
    for a in range(fw.n):
        bit = 1 << a
        assert credulous(fw, a, kind) == any(s & bit for s in exts)
        assert skeptical(fw, a, kind) == all(s & bit for s in exts)


@given(frameworks(max_args=6))
@settings(max_examples=60, deadline=None)
def test_non_extensions_rejected_by_oracle(fw):
    for kind in (PRF, SEM, STG, STB):
        got = enumerate_extensions(fw, kind).as_set()
        expected = brute_force(fw, kind).as_set()
        for s in range(1 << fw.n):
            assert (s in got) == (s in expected)


def test_range_of_reexport(example1):
    # range_of is part of the public surface used throughout
    assert range_of(example1, example1.set_of("a")) == example1.set_of("ab")


def test_iter_bits_ascending():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
