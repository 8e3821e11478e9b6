import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afsolve
from afsolve import (
    FrameworkError,
    build_framework,
    defends,
    is_conflict_free,
    range_of,
)
from afsolve.core import attacked_mask, attackers_mask, iter_bits

from conftest import EXAMPLE1_ARGS, EXAMPLE1_ATTACKS, frameworks


def _shuffled_with_duplicates(pairs, seed):
    """The same attack pairs, reordered, every other one given twice."""
    rng = random.Random(seed)
    out = list(pairs) + list(pairs)[::2]
    rng.shuffle(out)
    return out


def test_build_simple():
    fw = build_framework(["a", "b"], [("a", "b")])
    assert fw.args == ("a", "b")
    assert fw.attackers_of[fw.index["b"]] == 1 << fw.index["a"]
    assert fw.attacked_by[fw.index["a"]] == 1 << fw.index["b"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from afsolve import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(afsolve.__all__)


def test_build_empty():
    fw = build_framework([], [])
    assert fw.n == 0
    assert fw.all_mask == 0


def test_build_example1(example1):
    assert example1.n == 6
    assert len(example1.attacks) == 8


def test_duplicate_name_rejected():
    with pytest.raises(FrameworkError):
        build_framework(["a", "a"], [])


def test_undeclared_endpoint_strict():
    with pytest.raises(FrameworkError):
        build_framework(["a"], [("a", "b")])


def test_build_framework_undeclared_endpoint_message():
    with pytest.raises(FrameworkError) as err:
        build_framework(["a"], [("a", "b")])
    assert str(err.value) == "attack endpoint 'b' is not a declared argument"
    # the first undeclared endpoint in pair order, source before target
    with pytest.raises(FrameworkError, match="'c'"):
        build_framework(["a"], [("a", "a"), ("c", "b")])


def test_build_framework_takes_one_shot_iterables():
    fw = build_framework(iter(["a", "b"]), ((s, d) for s, d in [("a", "b")]))
    assert fw.args == ("a", "b")
    assert fw.attacks == {(0, 1)}
    assert fw.attacked_by == (0b10, 0)


def test_duplicate_attacks_deduplicated(example1):
    fw = build_framework(["a", "b"], [("a", "b"), ("a", "b")])
    assert len(fw.attacks) == 1
    index_pairs = {(example1.index[s], example1.index[t]) for s, t in EXAMPLE1_ATTACKS}
    for seed in range(5):
        again = build_framework(
            EXAMPLE1_ARGS, _shuffled_with_duplicates(EXAMPLE1_ATTACKS, seed)
        )
        assert again == example1 and hash(again) == hash(example1)
        assert isinstance(again.attacks, frozenset)
        assert again.attacks == index_pairs


def test_conflict_free_example1(example1):
    assert is_conflict_free(example1, example1.set_of("acf"))
    assert not is_conflict_free(example1, example1.set_of("cd"))


def test_conflict_free_empty_set(example1):
    assert is_conflict_free(example1, 0)


def test_conflict_free_self_attack():
    fw = build_framework(["a"], [("a", "a")])
    assert not is_conflict_free(fw, fw.set_of("a"))


def test_defends_unattacked(example1):
    assert defends(example1, example1.set_of("a"), example1.index["a"])


def test_defends_needs_counterattack(example1):
    assert not defends(example1, 0, example1.index["d"])
    assert not defends(example1, example1.set_of("a"), example1.index["d"])
    assert defends(example1, example1.set_of("ad"), example1.index["d"])


def test_defends_no_attacks_vacuous():
    fw = build_framework(["a", "b"], [])
    assert defends(fw, 0, 0)
    assert defends(fw, fw.set_of("b"), 0)


def test_range_example1(example1):
    assert range_of(example1, example1.set_of("adf")) == example1.all_mask


def test_range_empty(example1):
    assert range_of(example1, 0) == 0


def test_range_self_attack():
    fw = build_framework(["a"], [("a", "a")])
    assert range_of(fw, fw.set_of("a")) == fw.set_of("a")


def test_adjacency_round_trip(example1):
    orders = [EXAMPLE1_ATTACKS] + [
        _shuffled_with_duplicates(EXAMPLE1_ATTACKS, seed) for seed in range(3)
    ]
    for pairs in orders:
        fw = build_framework(EXAMPLE1_ARGS, pairs)
        assert fw == example1 and hash(fw) == hash(example1)
        from_attackers = {
            (s, t)
            for t in range(fw.n)
            for s in iter_bits(fw.attackers_of[t])
        }
        assert from_attackers == set(fw.attacks)
        from_targets = {
            (s, t)
            for s in range(fw.n)
            for t in iter_bits(fw.attacked_by[s])
        }
        assert from_targets == set(fw.attacks)
        named = {(fw.args[s], fw.args[t]) for s, t in fw.attacks}
        assert named == set(EXAMPLE1_ATTACKS)


@given(frameworks(), st.integers(min_value=0))
@settings(max_examples=150)
def test_range_contains_set(fw, bits):
    s = bits & fw.all_mask
    assert s & ~range_of(fw, s) == 0


@given(frameworks(), st.integers(min_value=0), st.integers(min_value=0))
@settings(max_examples=150)
def test_range_monotone(fw, bits_a, bits_b):
    s = bits_a & fw.all_mask
    t = s | (bits_b & fw.all_mask)
    assert range_of(fw, s) & ~range_of(fw, t) == 0


@given(frameworks(), st.integers(min_value=0), st.data())
@settings(max_examples=150)
def test_defends_matches_double_loop(fw, bits, data):
    if fw.n == 0:
        return
    s = bits & fw.all_mask
    a = data.draw(st.integers(min_value=0, max_value=fw.n - 1))
    expected = all(
        any((c, b) in fw.attacks for c in iter_bits(s))
        for b in range(fw.n)
        if (b, a) in fw.attacks
    )
    assert defends(fw, s, a) == expected


@given(frameworks(), st.integers(min_value=0))
@settings(max_examples=100)
def test_attacked_mask_matches_attacks(fw, bits):
    s = bits & fw.all_mask
    expected = attackers = 0
    for src, dst in fw.attacks:
        if s & (1 << src):
            expected |= 1 << dst
        if s & (1 << dst):
            attackers |= 1 << src
    assert attacked_mask(fw, s) == expected
    assert attackers_mask(fw, s) == attackers
