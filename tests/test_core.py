import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsolve import (
    FrameworkError,
    build_framework,
    defends,
    is_conflict_free,
    is_cover,
    range_of,
)
from afsolve.core import attacked_mask, iter_bits

from conftest import frameworks


def test_build_simple():
    fw = build_framework(["a", "b"], [("a", "b")])
    assert fw.args == ("a", "b")
    assert fw.attackers_of[fw.index["b"]] == 1 << fw.index["a"]
    assert fw.attacked_by[fw.index["a"]] == 1 << fw.index["b"]


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


def test_undeclared_endpoint_lenient():
    fw = build_framework(["a"], [("a", "b")], lenient=True)
    assert fw.args == ("a", "b")


def test_duplicate_attacks_deduplicated():
    fw = build_framework(["a", "b"], [("a", "b"), ("a", "b")])
    assert len(fw.attacks) == 1


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


def test_cover_example1(example1):
    assert is_cover(example1, example1.set_of("acf"), example1.all_mask)


def test_cover_trivial(example1):
    assert is_cover(example1, 0, 0)
    assert not is_cover(example1, 0, example1.set_of("a"))


def test_adjacency_round_trip(example1):
    pairs = {
        (s, t)
        for t in range(example1.n)
        for s in iter_bits(example1.attackers_of[t])
    }
    assert pairs == set(example1.attacks)
    pairs = {
        (s, t)
        for s in range(example1.n)
        for t in iter_bits(example1.attacked_by[s])
    }
    assert pairs == set(example1.attacks)


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


@given(frameworks(), st.integers(min_value=0), st.integers(min_value=0))
@settings(max_examples=150)
def test_cover_unfolds_to_definition(fw, bits_e, bits_t):
    e = bits_e & fw.all_mask
    target = bits_t & fw.all_mask
    assert is_cover(fw, e, target) == (target & ~range_of(fw, e) == 0)


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
    expected = 0
    for src, dst in fw.attacks:
        if s & (1 << src):
            expected |= 1 << dst
    assert attacked_mask(fw, s) == expected
