"""Metamorphic properties on frameworks past the oracle's 20-argument cap.

No brute force reaches these sizes, so the checks relate the solver's
answers on two frameworks whose extensions are known to correspond."""

import random

import pytest
from hypothesis import given, settings

from afsolve import (
    SemanticsKind,
    build_framework,
    enumerate_extensions,
    is_admissible,
    is_preferred_by_maximality,
    is_preferred_by_witness,
)

from afsolve.core import iter_bits

from conftest import frameworks

CF = SemanticsKind.CF
ADM = SemanticsKind.ADM
STB = SemanticsKind.STB
PRF = SemanticsKind.PRF
SEM = SemanticsKind.SEM
STG = SemanticsKind.STG
# stage enumerates every conflict-free set, which grows too fast on sparse
# frameworks past this size for a quick test
STG_MAX_ARGS = 30


def sparse(seed, lo=25, hi=40, degree=4.0):
    """Seeded random framework of lo..hi arguments with about `degree`
    attacks per argument, as (names, attack pairs)."""
    rng = random.Random(seed)
    n = rng.randint(lo, hi)
    names = [f"a{i}" for i in range(n)]
    attacks = [(x, y) for x in names for y in names if rng.random() < degree / n]
    return names, attacks


def name_sets(names, attacks, kind):
    fw = build_framework(names, attacks)
    return {frozenset(e) for e in enumerate_extensions(fw, kind).to_name_sets(fw)}


def kinds_for(names):
    return [STB, PRF, SEM] + ([STG] if len(names) <= STG_MAX_ARGS else [])


@pytest.mark.parametrize("seed", range(8))
def test_invariant_under_renaming_and_permutation(seed):
    names, attacks = sparse(seed)
    rng = random.Random(1000 + seed)
    rename = {a: f"r{rng.randrange(10**6)}_{a[::-1]}" for a in names}
    shuffled = [rename[a] for a in names]
    rng.shuffle(shuffled)
    moved = [(rename[x], rename[y]) for x, y in attacks]
    rng.shuffle(moved)
    for kind in kinds_for(names):
        renamed_back = {
            frozenset(rename[a] for a in e) for e in name_sets(names, attacks, kind)
        }
        assert name_sets(shuffled, moved, kind) == renamed_back, kind


@pytest.mark.parametrize("seed", range(8))
def test_isolated_argument_joins_every_extension(seed):
    names, attacks = sparse(100 + seed)
    at = random.Random(seed).randint(0, len(names))
    with_iso = names[:at] + ["iso"] + names[at:]
    for kind in kinds_for(names):
        before = name_sets(names, attacks, kind)
        after = name_sets(with_iso, attacks, kind)
        assert all("iso" in e for e in after), kind
        assert after == {e | {"iso"} for e in before}, kind


@given(frameworks(max_args=12))
@settings(max_examples=40, deadline=None)
def test_isolated_argument_doubles_cf_and_adm(fw):
    names = list(fw.args)
    attacks = [(fw.args[x], fw.args[y]) for x, y in fw.attacks]
    for kind in (CF, ADM):
        before = name_sets(names, attacks, kind)
        after = name_sets(names + ["iso"], attacks, kind)
        assert len(after) == 2 * len(before)
        assert after == before | {e | {"iso"} for e in before}


@pytest.mark.parametrize("seed", range(6))
def test_preferredness_routes_agree_on_larger_frameworks(seed):
    names, attacks = sparse(200 + seed, lo=40, hi=100, degree=2.0)
    fw = build_framework(names, attacks)
    for e in enumerate_extensions(fw, PRF).extensions:
        assert is_preferred_by_witness(fw, e)
        assert is_preferred_by_maximality(fw, e)
        # admissible sets one argument short of an extension are not
        # preferred, and both routes must find the way back up
        for a in iter_bits(e):
            s = e & ~(1 << a)
            if is_admissible(fw, s):
                assert not is_preferred_by_witness(fw, s)
                assert not is_preferred_by_maximality(fw, s)
