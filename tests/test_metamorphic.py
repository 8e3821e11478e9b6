"""Metamorphic properties on frameworks past the oracle's 20-argument cap.

No brute force reaches these sizes, so the checks relate the solver's
answers on two frameworks whose extensions are known to correspond."""

import random

import pytest
from hypothesis import given, settings

from afsolve import (
    SemanticsKind,
    build_framework,
    credulous,
    enumerate_extensions,
    is_admissible,
    is_preferred_by_maximality,
    is_preferred_by_witness,
    skeptical,
)

from afsolve.core import iter_bits
from afsolve.oracle import brute_force

from conftest import frameworks

CF = SemanticsKind.CF
ADM = SemanticsKind.ADM
STB = SemanticsKind.STB
PRF = SemanticsKind.PRF
SEM = SemanticsKind.SEM
STG = SemanticsKind.STG


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


KINDS = [STB, PRF, SEM, STG]


@pytest.mark.parametrize("seed", range(8))
def test_invariant_under_renaming_and_permutation(seed):
    names, attacks = sparse(seed)
    rng = random.Random(1000 + seed)
    rename = {a: f"r{rng.randrange(10**6)}_{a[::-1]}" for a in names}
    shuffled = [rename[a] for a in names]
    rng.shuffle(shuffled)
    moved = [(rename[x], rename[y]) for x, y in attacks]
    rng.shuffle(moved)
    for kind in KINDS:
        renamed_back = {
            frozenset(rename[a] for a in e) for e in name_sets(names, attacks, kind)
        }
        assert name_sets(shuffled, moved, kind) == renamed_back, kind


@pytest.mark.parametrize("seed", range(8))
def test_isolated_argument_joins_every_extension(seed):
    names, attacks = sparse(100 + seed)
    at = random.Random(seed).randint(0, len(names))
    with_iso = names[:at] + ["iso"] + names[at:]
    for kind in KINDS:
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


def disjoint_union(left, right):
    """Two frameworks side by side, their names prefixed l_ and r_."""
    (l_names, l_attacks), (r_names, r_attacks) = left, right
    names = [f"l_{a}" for a in l_names] + [f"r_{a}" for a in r_names]
    attacks = [(f"l_{x}", f"l_{y}") for x, y in l_attacks]
    attacks += [(f"r_{x}", f"r_{y}") for x, y in r_attacks]
    return names, attacks


def mirrored(seed, lo, hi, degree=1.5, back=0.5):
    """`sparse` with about a share `back` of its attacks also turned
    around: the even cycles give the parts many extensions."""
    names, attacks = sparse(seed, lo, hi, degree)
    rng = random.Random(-seed)
    return names, attacks + [(y, x) for x, y in attacks if rng.random() < back]


def prefixed(prefix, sets):
    return {frozenset(prefix + a for a in e) for e in sets}


# (semantics, smallest and largest part): the cf and adm sets of a product
# are the product itself, and stage search blows up on products (ROADMAP
# item 9), so those parts stay small
PRODUCT_PARTS = [
    (STB, 12, 30), (PRF, 12, 30), (SEM, 12, 30), (CF, 3, 8), (ADM, 3, 8), (STG, 3, 8),
]


@pytest.mark.parametrize("kind, lo, hi", PRODUCT_PARTS, ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("seed", range(6))
def test_product_law(kind, lo, hi, seed):
    """ext(F1 + F2) = {E1 | E2 : E1 in ext(F1), E2 in ext(F2)} for disjoint
    F1 and F2.  So a query on the product about an argument of F1 answers
    as F1's extensions say, unless F2 has no extension (only under stb):
    then no credulous query holds and every skeptical one does."""
    left = mirrored(300 + seed, lo, hi, degree=2.0, back=0.3)
    right = mirrored(400 + seed, lo, hi, degree=2.0, back=0.3)
    names, attacks = disjoint_union(left, right)
    l_exts, r_exts = prefixed("l_", name_sets(*left, kind)), prefixed("r_", name_sets(*right, kind))
    assert name_sets(names, attacks, kind) == {a | b for a in l_exts for b in r_exts}
    product = build_framework(names, attacks)
    for a in names[: len(left[0])]:
        i = product.index[a]
        assert credulous(product, i, kind) == (bool(r_exts) and any(a in e for e in l_exts)), a
        assert skeptical(product, i, kind) == (not r_exts or all(a in e for e in l_exts)), a


def test_preferred_product_within_small_budget():
    """A product's preferred extensions are the products of its parts', so
    they multiply; here all 600 are stable.  One resumed goal search takes
    6 597 nodes; escape searches that each start again from G take
    402 584."""
    fw = build_framework(*disjoint_union(mirrored(301, 12, 30), mirrored(401, 12, 30)))
    prf = enumerate_extensions(fw, PRF, budget=10**4)
    assert len(prf) == 600
    assert prf == enumerate_extensions(fw, STB)


def grounded(names, attacks):
    """The grounded extension, as the least fixpoint of "defended by"."""
    attackers = {a: set() for a in names}
    for x, y in attacks:
        attackers[y].add(x)
    g = set()
    while True:
        hit = {y for x, y in attacks if x in g}
        defended = {a for a in names if attackers[a] <= hit}
        if defended == g:
            return g
        g = defended


def reduct(names, attacks, s):
    """F^S: F without S and without what S attacks."""
    gone = s | {y for x, y in attacks if x in s}
    kept = [(x, y) for x, y in attacks if gone.isdisjoint((x, y))]
    return [a for a in names if a not in gone], kept


def reduct_law_holds(names, attacks, kind):
    """ext(F) = {G | E : E in ext(F^G)}, with G the grounded extension."""
    g = grounded(names, attacks)
    rest = name_sets(*reduct(names, attacks, g), kind)
    return name_sets(names, attacks, kind) == {e | g for e in rest}


@pytest.mark.parametrize("kind", [STB, PRF, SEM], ids=lambda k: k.value)
def test_reduct_law(kind):
    """The law holds for stb, prf and sem (Baumann, Brewka & Ulbricht
    2020), here on frameworks whose grounded extensions are not empty."""
    frames = [mirrored(seed, 21, 30) for seed in range(500, 512)]
    assert all(grounded(*f) for f in frames)
    for names, attacks in frames:
        assert reduct_law_holds(names, attacks, kind)


def test_stage_breaks_the_reduct_law():
    """A negative control: stage does not satisfy the law, and the check
    above finds that on some seeded framework."""
    frames = [mirrored(seed, 10, 16) for seed in range(500, 540)]
    assert not all(reduct_law_holds(names, attacks, STG) for names, attacks in frames)


def directional(seed, lo, hi, layers=3):
    """A seeded framework and an unattacked set U in it, as (names, attack
    pairs, U).  The framework is `mirrored`, with each argument in one of
    `layers` layers and no attack from a higher layer to a lower one.  U is
    one to three arguments and everything with an attack path into them,
    so nothing outside U attacks into U, and U is seldom everything."""
    names, attacks = mirrored(seed, lo, hi)
    rng = random.Random(seed)
    layer = {a: rng.randrange(layers) for a in names}
    attacks = [(x, y) for x, y in attacks if layer[x] <= layer[y]]
    attackers = {a: [] for a in names}
    for x, y in attacks:
        attackers[y].append(x)
    u, todo = set(), rng.sample(names, rng.randint(1, 3))
    while todo:
        a = todo.pop()
        if a not in u:
            u.add(a)
            todo.extend(attackers[a])
    return names, attacks, u


def restriction(names, attacks, u):
    """F restricted to an unattacked U: every attack into U starts in U."""
    return [a for a in names if a in u], [(x, y) for x, y in attacks if y in u]


def directionality_holds(names, attacks, u, kind, sets=name_sets):
    """{E & U : E in ext(F)} = ext(F restricted to U), the right side by
    `sets`."""
    cut = {e & u for e in name_sets(names, attacks, kind)}
    return cut == sets(*restriction(names, attacks, u), kind)


def oracle_sets(names, attacks, kind):
    fw = build_framework(names, attacks)
    return {frozenset(e) for e in brute_force(fw, kind).to_name_sets(fw)}


SMALL_DIRECTIONAL = range(700, 1036)


def test_directionality_law():
    """prf satisfies directionality (Baroni & Giacomin 2007): on 24–40
    arguments with native enumeration on both sides, on 4–12 with the
    oracle's on the restriction.  So a query on F about an argument of U
    answers as the restriction's extensions say."""
    for seed in range(600, 660):
        names, attacks, u = directional(seed, 24, 40)
        assert directionality_holds(names, attacks, u, PRF)
        inside = name_sets(*restriction(names, attacks, u), PRF)
        fw = build_framework(names, attacks)
        for a in u:
            assert credulous(fw, fw.index[a], PRF) == any(a in e for e in inside), a
            assert skeptical(fw, fw.index[a], PRF) == all(a in e for e in inside), a
    for seed in SMALL_DIRECTIONAL:
        assert directionality_holds(*directional(seed, 4, 12), PRF, oracle_sets)


@pytest.mark.parametrize("kind", [STB, SEM, STG], ids=lambda k: k.value)
def test_other_semantics_break_directionality(kind):
    """A negative control: stb, sem and stg do not satisfy the law, and
    the check above finds that on some seeded framework."""
    frames = [directional(seed, 4, 12) for seed in SMALL_DIRECTIONAL]
    assert not all(directionality_holds(*frame, kind) for frame in frames)
