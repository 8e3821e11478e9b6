import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afsolve import (
    BudgetExceeded,
    PreconditionError,
    SemanticsKind,
    brute_force,
    build_framework,
    credulous,
    enumerate_extensions,
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
from afsolve.bench import generate, parse_generator_spec
from afsolve.core import attacked_mask, attackers_mask, defends, iter_bits

from conftest import (
    EXAMPLE1_ADMISSIBLE,
    EXAMPLE1_PREFERRED,
    EXAMPLE1_STABLE,
    frameworks,
    name_sets,
    random_framework,
)
from test_metamorphic import disjoint_union, mirrored

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
def frameworks_with_self_attacks(draw, max_args=12):
    n = draw(st.integers(min_value=1, max_value=max_args))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    loops = draw(st.lists(index, min_size=1, max_size=n))
    names = [f"a{i}" for i in range(n)]
    attacks = [(names[i], names[j]) for i, j in pairs + [(k, k) for k in loops]]
    return build_framework(names, attacks)


@given(frameworks_with_self_attacks())
@settings(max_examples=150, deadline=None)
def test_pool_equals_round_based_fixpoint(fw):
    # narrowed on from what the reference grounded extension leaves
    left = fw.all_mask & ~attacked_mask(fw, iterated_closure(fw, 0, fw.all_mask))
    assert semantics.admissible_candidates(fw, left) == round_based_pool(fw)


def test_preferred_computes_the_pool_once(monkeypatch, example1):
    calls = []
    real = semantics.admissible_candidates

    def counted(fw, *args):
        calls.append(fw)
        return real(fw, *args)

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


# --- goal search -------------------------------------------------------------------

def _meets_goal(fw, e, seed, allowed, must_hits, defend):
    return (
        e & seed == seed
        and e & ~(seed | allowed) == 0
        and is_conflict_free(fw, e)
        and all(e & m for m in must_hits)
        and attackers_mask(fw, e) & defend & ~attacked_mask(fw, e) == 0
    )


@st.composite
def goal_searches(draw):
    """A framework, an `allowed` mask of non-self-attackers, a `defend`
    mask, and several (seed, must-hits) calls that share them."""
    fw = draw(frameworks(max_args=10))
    usable = semantics._non_self_attacking(fw)
    subset_of = lambda mask: st.integers(0, fw.all_mask).map(lambda x: x & mask)
    allowed = draw(subset_of(usable))
    defend = draw(st.sampled_from([0, fw.all_mask]))
    seeds = subset_of(usable).filter(lambda s: is_conflict_free(fw, s))
    masks = st.lists(st.integers(0, fw.all_mask), max_size=3)
    calls = draw(st.lists(st.tuples(seeds, masks), min_size=1, max_size=4))
    return fw, allowed, defend, calls


# c attacks b, b attacks a: under the must-hit {a, c}, the branch for a
# needs c to defend a, so it must not exclude c, a later sibling; the
# second call, from {a}, must still find {a, c}
_DEFENDED_BY_A_LATER_SIBLING = (
    build_framework(["a", "b", "c"], [("b", "a"), ("c", "b")]),
    0b111,
    0b111,
    [(0, [0b101]), (0b001, [])],
)

# d is a's only defender against x, and d lies on the 3-cycle d -> z -> y
# -> d, so no admissible set holds d, though the root pool keeps it.  Under
# the must-hit {d, a} the branch for d fails, and excluding d leaves x
# without an attacker in the pool, which drops a, the last choice: the
# propagated failure must be exact
_EXCLUDED_SIBLING_WAS_THE_LAST_DEFENDER = (
    build_framework(
        ["d", "a", "x", "y", "z"],
        [("x", "a"), ("d", "x"), ("y", "d"), ("z", "y"), ("d", "z")],
    ),
    0b11111,
    0b11111,
    [(0, [0b00011]), (0, [0b00010])],
)


@given(goal_searches())
@example(_DEFENDED_BY_A_LATER_SIBLING)
@example(_EXCLUDED_SIBLING_WAS_THE_LAST_DEFENDER)
@settings(max_examples=300, deadline=None)
def test_goal_search_agrees_with_brute_force(case):
    # the search takes an admissible seed with what it attacks; any other
    # seed is passed in its equivalent form: seed 0 over allowed | seed,
    # with one must-hit per seed argument, which has the same solutions
    fw, allowed, defend, calls = case
    for seed, must_hits in calls:
        if is_admissible(fw, seed):
            space = seed, allowed, defend, attacked_mask(fw, seed)
            hits = must_hits
        else:
            space = 0, allowed | seed, defend, 0
            hits = must_hits + [1 << x for x in iter_bits(seed)]
        found = next(semantics._admissible_goals(fw, space, hits, semantics._Budget(10**6)), None)
        exists = any(
            _meets_goal(fw, e, seed, allowed, must_hits, defend)
            for e in range(fw.all_mask + 1)
        )
        assert (found is not None) == exists
        if found is not None:
            assert _meets_goal(fw, found, seed, allowed, must_hits, defend)


@given(goal_searches())
@example(_DEFENDED_BY_A_LATER_SIBLING)
@example(_EXCLUDED_SIBLING_WAS_THE_LAST_DEFENDER)
@settings(max_examples=200, deadline=None)
def test_resumed_goal_search_covers_every_solution(case):
    # resumed after each set S with the mask of everything outside S, which
    # S misses, the search must yield only solutions, none inside an
    # earlier one, and end only when every solution lies inside one
    fw, allowed, defend, calls = case
    for seed, must_hits in calls:
        if not is_admissible(fw, seed):
            continue
        space = seed, allowed, defend, attacked_mask(fw, seed)
        hits = list(must_hits)
        found = []
        for e in semantics._admissible_goals(fw, space, hits, semantics._Budget(10**6)):
            assert _meets_goal(fw, e, seed, allowed, must_hits, defend)
            assert not any(e & f == e for f in found)
            found.append(e)
            hits.append(fw.all_mask & ~e)
        for e in range(fw.all_mask + 1):
            if _meets_goal(fw, e, seed, allowed, must_hits, defend):
                assert any(e & f == e for f in found)


def _root_pool(fw, seed, allowed, defend):
    """The pool the goal search narrows at its root: the seed plus the
    allowed arguments outside the seed's conflicts."""
    attacked, need = attacked_mask(fw, seed), attackers_mask(fw, seed)
    pool = seed | allowed & ~(attacked | need)
    hit = need | attackers_mask(fw, pool & ~seed)
    return semantics._narrow(fw, defend, pool, 0, hit, seed, attacked)


@given(goal_searches())
@example(_EXCLUDED_SIBLING_WAS_THE_LAST_DEFENDER)
@settings(max_examples=300, deadline=None)
def test_narrow_keeps_every_solution(case):
    """The pool holds every set that meets the goal with no must-hit, and
    the seed leaves it only when there is none.  A pool the seed stays in
    is a fixpoint, and narrowing it after a drop (a tried sibling) gives
    the pool of a fresh start without the dropped arguments."""
    fw, allowed, defend, calls = case
    for seed, masks in calls:
        pool = _root_pool(fw, seed, allowed, defend)
        solutions = [
            e
            for e in range(fw.all_mask + 1)
            if _meets_goal(fw, e, seed, allowed, [], defend)
        ]
        if seed & ~pool:
            assert solutions == []
            continue
        assert all(e & ~pool == 0 for e in solutions)
        for t in iter_bits(attackers_mask(fw, pool) & defend):
            assert fw.attackers_of[t] & pool
        attacked = attacked_mask(fw, seed)
        for m in masks:
            d = m & pool & ~seed
            after = semantics._narrow(fw, defend, pool ^ d, d, 0, seed, attacked)
            fresh = _root_pool(fw, seed, allowed & ~d, defend)
            assert bool(seed & ~after) == bool(seed & ~fresh)
            if not seed & ~fresh:
                assert after == fresh


def test_even_cycle_preferred_within_small_budget():
    # the last uncovered-set search must prove that no admissible set
    # escapes both halves; without sibling exclusion it revisits the same
    # sets in every order and needs millions of nodes
    n = 400
    fw = generate(parse_generator_spec(f"cycle:n={n}"))
    exts = enumerate_extensions(fw, PRF, budget=10**5)
    halves = [sum(1 << i for i in range(r, n, 2)) for r in (0, 1)]
    assert exts.extensions == tuple(halves)


def test_sparse_random_preferred_within_small_budget():
    fw = generate(parse_generator_spec("er:n=120,p=0.04,seed=2"))
    exts = enumerate_extensions(fw, PRF, budget=2 * 10**5)
    assert len(exts) == 5
    for s in exts.extensions:
        assert is_preferred_by_maximality(fw, s)


def _load_node_rows():
    path = Path(__file__).resolve().parents[1] / "scripts" / "node_rows.py"
    spec = importlib.util.spec_from_file_location("node_rows", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_node_rows_script_matches_enumeration(capsys):
    # the script runs enumerate_extensions and reads its nodes; its digests
    # must stay those of the route the CLI runs.  The grids and n=3000 rows
    # take too long to generate here
    node_rows = _load_node_rows()
    excluded = ("grid", "n=3000")
    argv = ["--budget", "100000"] + [a for text in excluded for a in ("--exclude", text)]
    assert node_rows.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["row"], r["semantics"]) for r in rows] == [
        (name, sem) for name, sem, _ in node_rows.ROWS if not any(t in name for t in excluded)
    ]
    assert {r["semantics"] for r in rows} == {"prf", "sem", "stg", "stb"}
    for row in rows:
        assert row["ok"] and row["extensions"] != "out", row
        fw = generate(parse_generator_spec(row["row"]))
        exts = enumerate_extensions(fw, SemanticsKind(row["semantics"])).extensions
        digest = hashlib.sha256(",".join(map(hex, exts)).encode()).hexdigest()[:16]
        assert (row["extensions"], row["digest"]) == (len(exts), digest), row["row"]


# only rows that take a few milliseconds
_FAST_ROWS = ["--exclude", "er:", "--exclude", "scc", "--exclude", "grid", "--exclude", "n=400",
              "--exclude", "stb"]


@pytest.mark.parametrize(
    "doctor, passes",
    [
        (lambda row: None, True),
        (lambda row: row.update(digest="0" * 16), False),
        (lambda row: row.update(nodes=row["nodes"] - 1), False),
        (lambda row: row.update(nodes=row["nodes"] + 1), True),
        (lambda row: row.update(extensions="out", digest=None, nodes=10**6), True),
    ],
    ids=["as-measured", "other-digest", "fewer-nodes", "more-nodes", "ran-out"],
)
def test_node_rows_expectation_is_a_gate(doctor, passes, tmp_path, capsys):
    node_rows = _load_node_rows()
    assert node_rows.main(["--budget", "10000", *_FAST_ROWS]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["row"] for r in report["rows"]] == ["chain:n=1500", "cycle:n=200"]
    doctor(report["rows"][1])
    expect = tmp_path / "BENCH_X.json"
    expect.write_text(json.dumps({"node_rows": report}))
    argv = ["--budget", "10000", *_FAST_ROWS, "--expect", str(expect)]
    assert node_rows.main(argv) == (0 if passes else 1)
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["ok"] for r in rows] == [True, passes]


def test_node_rows_repeat_keeps_the_nodes(capsys):
    node_rows = _load_node_rows()
    reports = []
    for repeat in ("1", "3"):
        assert node_rows.main(["--budget", "10000", *_FAST_ROWS, "--repeat", repeat]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[1]["repeat"] == 3
    strip = [{k: v for k, v in row.items() if k != "ms"} for row in reports[0]["rows"]]
    assert [{k: v for k, v in row.items() if k != "ms"} for row in reports[1]["rows"]] == strip


def test_node_rows_match_the_committed_expectation(capsys):
    node_rows = _load_node_rows()
    bench = Path(__file__).resolve().parents[1] / "BENCH_22.json"
    assert node_rows.main(["--budget", "10000", *_FAST_ROWS, "--expect", str(bench)]) == 0
    capsys.readouterr()


def test_sparse_grounded_preferred_within_small_budget():
    # |G| = 982 and G attacks 1893 of the 3000 arguments; from the empty set
    # the goal search runs out of millions of nodes, from G it takes 9
    fw = generate(parse_generator_spec("er:n=3000,p=0.001,seed=1"))
    exts = enumerate_extensions(fw, PRF, budget=10**3)
    assert len(exts) == 1
    (e,) = exts.extensions
    assert is_admissible(fw, e)
    grounded = semantics._search_space(fw, PRF)[0]
    assert grounded.bit_count() == 982 and e & grounded == grounded


# with the pool narrowed at every node the goal search proves these rows
# exhausted in 405, 122, 260 and 654 nodes (405, 241, 291 and 2 764 before
# it branched fail-first over the extensions' attackers); without
# propagation it took 40 401, 2 452, 11 051 and 64 149
@pytest.mark.parametrize(
    "spec, count, budget",
    [
        ("cycle:n=400", 2, 10**3),
        ("er:n=100,p=0.05,seed=12345", 1, 10**3),
        ("scc:k=6,scc_size=10,p_intra=0.3,p_inter=0.1,seed=1", 12, 10**3),
        ("er:n=120,p=0.04,seed=2", 5, 10**4),
    ],
)
def test_propagating_preferred_within_tight_budget(spec, count, budget):
    fw = generate(parse_generator_spec(spec))
    assert len(enumerate_extensions(fw, PRF, budget=budget)) == count


# branching fail-first on every open constraint, with the attackers of each
# extension found as its escape mask: 122, 654 and 18 820 nodes, against
# 241, 2 764 and 47 348 on the first unmet complement of an extension
@pytest.mark.parametrize(
    "spec, count, budget",
    [
        ("er:n=100,p=0.05,seed=12345", 1, 150),
        ("er:n=120,p=0.04,seed=2", 5, 10**3),
        ("grid:w=5,h=4", 108, 25_000),
    ],
)
def test_fail_first_preferred_within_tighter_budget(spec, count, budget):
    fw = generate(parse_generator_spec(spec))
    assert len(enumerate_extensions(fw, PRF, budget=budget)) == count


# one goal search, resumed after each extension, walks no subtree twice:
# 4 103 and 2 343 nodes; an escape search that starts again from G after
# each extension takes 281 919 and 82 303
@pytest.mark.parametrize(
    "spec, count, budget",
    [
        ("grid:w=5,h=5", 358, 5_000),
        ("scc:k=8,scc_size=2,p_intra=0,p_inter=0", 256, 3_000),
    ],
)
def test_resumed_preferred_within_budget(spec, count, budget):
    fw = generate(parse_generator_spec(spec))
    assert len(enumerate_extensions(fw, PRF, budget=budget)) == count


def _maximal_admissible(fw):
    """The subset-maximal admissible sets, from the labelling DFS over the
    adm space: the preferred extensions by definition."""
    walk = semantics._labellings(fw, semantics._search_space(fw, ADM), 0, semantics._Budget(10**7))
    maximal = []
    for s in sorted((s for s, _ in walk), key=int.bit_count, reverse=True):
        if not any(s & m == s for m in maximal):
            maximal.append(s)
    return sorted(maximal)


# every generator family at 16-60 arguments; the disjoint 2-cycles and
# the grids have hundreds of preferred extensions
@pytest.mark.parametrize(
    "spec",
    [
        "er:n=24,p=0.1,seed=4",
        "er:n=40,p=0.05,seed=7",
        "er:n=60,p=0.06,seed=2",
        "chain:n=41",
        "cycle:n=40",
        "cycle:n=45",
        "grid:w=4,h=5",
        "scc:k=4,scc_size=8,p_intra=0.2,p_inter=0.1,seed=4",
        "scc:k=6,scc_size=5,p_intra=0.3,p_inter=0.2,seed=5",
        "scc:k=8,scc_size=2,p_intra=0,p_inter=0",
        "scc:k=10,scc_size=2,p_intra=0,p_inter=0.2,seed=1",
    ],
)
def test_preferred_are_the_maximal_admissible_dfs_sets(spec):
    fw = generate(parse_generator_spec(spec))
    assert list(enumerate_extensions(fw, PRF).extensions) == _maximal_admissible(fw)


def _named(spec):
    fw = generate(parse_generator_spec(spec))
    return list(fw.args), sorted((fw.args[x], fw.args[y]) for x, y in fw.attacks)


# frameworks without a stable extension, as (names, attacks); the mirrored
# ones have preferred extensions of smaller range, and the grid's 108
# stable extensions lose stability to the 3-cycle beside it
_UNSTABLE = {
    spec: _named(spec)
    for spec in (
        "er:n=40,p=0.1,seed=1",
        "er:n=40,p=0.05,seed=7",
        "cycle:n=45",
        "scc:k=6,scc_size=4,p_intra=0.3,p_inter=0.15,seed=4",
    )
}
_UNSTABLE["grid:w=5,h=4 + 3-cycle"] = disjoint_union(
    _named("grid:w=5,h=4"), (["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
)
for _seed in (509, 521, 526, 533):
    _UNSTABLE[f"mirrored:{_seed}"] = mirrored(_seed, 20, 40, degree=2.0, back=0.4)


@pytest.mark.parametrize("case", list(_UNSTABLE))
def test_unstable_semi_stable_are_the_range_maximal_admissible_dfs_sets(case):
    # the reference: the range-maximal admissible supersets of G, which
    # the labelling DFS walks
    fw = build_framework(*_UNSTABLE[case])
    assert len(enumerate_extensions(fw, STB)) == 0
    space = semantics._search_space(fw, SEM)
    ranged = semantics._labellings(fw, space, 0, semantics._Budget(10**7))
    expected = sorted(set(semantics._range_maximal(list(ranged))))
    assert list(enumerate_extensions(fw, SEM).extensions) == expected


def test_unstable_semi_stable_within_node_row_budget():
    # the row the admissible-set route ran out of 3*10^6 nodes on: the
    # failed stable probe takes nearly all of the 281 599 nodes, preferred
    # 21.  Its one preferred extension is the semi-stable one
    fw = generate(parse_generator_spec("er:n=80,p=0.06,seed=1"))
    sem = enumerate_extensions(fw, SEM, budget=3 * 10**5)
    assert sem == enumerate_extensions(fw, PRF) and len(sem) == 1
    assert is_range_supreme_by_cover(fw, sem.extensions[0], ADM)


# past the oracle's 20-argument cap: the goal search (credulous adm and prf,
# skeptical prf, the witness route) against the admissible sets the
# labelling DFS walks
@pytest.mark.parametrize(
    "spec",
    [
        "er:n=20,p=0.15,seed=8",
        "er:n=30,p=0.1,seed=6",
        "er:n=40,p=0.08,seed=5",
        "er:n=60,p=0.06,seed=6",
        "scc:k=3,scc_size=8,p_intra=0.3,p_inter=0.1,seed=2",
        "scc:k=5,scc_size=8,p_intra=0.3,p_inter=0.1,seed=3",
        "scc:k=6,scc_size=10,p_intra=0.3,p_inter=0.1,seed=1",
        "grid:w=2,h=10",
        "cycle:n=20",
        "cycle:n=31",
        "cycle:n=60",
    ],
)
def test_goal_search_agrees_with_labelling_dfs_past_the_oracle(spec):
    fw = generate(parse_generator_spec(spec))
    _, grounded_attacks = semantics._defended_closure(fw, 0, 0, fw.all_mask)
    pool = semantics.admissible_candidates(fw, fw.all_mask & ~grounded_attacks)
    walk = semantics._labellings(fw, (0, pool, fw.all_mask, 0), 0, semantics._Budget(10**6))
    admissible = [s for s, _ in walk]
    accepted = 0
    for s in admissible:
        accepted |= s
    for a in range(fw.n):
        assert credulous(fw, a, ADM) == credulous(fw, a, PRF) == bool(accepted >> a & 1)
    # the preferred extensions are admissible, pairwise incomparable, and
    # cover every admissible set: the maximal admissible sets
    preferred = enumerate_extensions(fw, PRF).extensions
    assert set(preferred) <= set(admissible)
    assert not any(s != e and s & e == s for s in preferred for e in preferred)
    assert all(any(s & e == s for e in preferred) for s in admissible)
    for a in range(fw.n):
        assert skeptical(fw, a, PRF) == all(s >> a & 1 for s in preferred)
    for e in preferred:
        below = max(
            (s for s in admissible if s != e and s & e == s), key=int.bit_count, default=None
        )
        for s in (e,) if below is None else (e, below):
            assert is_preferred_by_witness(fw, s) == is_preferred_by_maximality(fw, s) == (s == e)


def test_skeptical_preferred_refuted_by_one_credulous_search():
    # criterion 9's graph has one preferred extension, the empty set, so
    # every skeptical query is refuted by the credulous goal search, which
    # finds no admissible set that holds the argument.  Computing the
    # extension first took 12 100 nodes in all and left no query within 20;
    # the refutations take 1 983, and 66 fit
    fw = generate(parse_generator_spec("er:n=100,p=0.05,seed=12345"))
    answered = 0
    for a in range(fw.n):
        try:
            assert not skeptical(fw, a, PRF, budget=20)
        except BudgetExceeded:
            continue
        answered += 1
    assert answered >= 66
    assert not any(skeptical(fw, a, PRF) for a in range(fw.n))


# Dung's Fundamental Lemma, the reason preferred enumeration may escape an
# extension E through E's attackers: an admissible set lies outside E iff
# it attacks E
@given(frameworks_with_self_attacks(max_args=10))
@settings(max_examples=150, deadline=None)
def test_admissible_set_escapes_a_preferred_extension_iff_it_attacks_it(fw):
    admissible = brute_force(fw, ADM).extensions
    for e in brute_force(fw, PRF).extensions:
        attackers = attackers_mask(fw, e)
        for s in admissible:
            assert bool(s & ~e) == bool(s & attackers), (s, e)


# --- grounded extension and defended closure ---------------------------------------

def iterated_closure(fw, s, pool):
    """Reference least fixpoint: from s, add every pool argument the set
    defends (the characteristic function) until nothing changes."""
    while True:
        nxt = s | sum(1 << a for a in iter_bits(pool) if defends(fw, s, a))
        if nxt == s:
            return s
        s = nxt


@given(frameworks_with_self_attacks(max_args=10))
@settings(max_examples=150, deadline=None)
def test_defended_closure_against_brute_force(fw):
    grounded = iterated_closure(fw, 0, fw.all_mask)
    closed = semantics._defended_closure(fw, 0, 0, fw.all_mask)
    assert closed == (grounded, attacked_mask(fw, grounded))
    assert semantics._defended_closure(fw, 0, 0, semantics._non_self_attacking(fw)) == closed
    pool = semantics.admissible_candidates(fw, fw.all_mask & ~closed[1])
    assert semantics._defended_closure(fw, 0, 0, pool) == closed
    for s in brute_force(fw, ADM).extensions:
        closed, attacked = semantics._defended_closure(fw, s, attacked_mask(fw, s), pool)
        assert closed == iterated_closure(fw, s, pool)
        assert attacked == attacked_mask(fw, closed)
        assert is_admissible(fw, closed)
        assert closed & s == s
        assert not any(defends(fw, closed, a) for a in iter_bits(pool & ~closed))


def closure_by_rounds(fw):
    """Reference grounded extension for wide frameworks: the rounds of
    `iterated_closure` from the empty set over every argument, with what
    the set attacks read bit by bit once per round, not once per argument:
    a chain of 3000 arguments takes 1500 rounds."""
    s = 0
    while True:
        attacked = 0
        for a in iter_bits(s):
            attacked |= fw.attacked_by[a]
        nxt = s | sum(1 << a for a in range(fw.n) if not fw.attackers_of[a] & ~attacked)
        if nxt == s:
            return s
        s = nxt


def _self_attacking_sparse_er(n, seed):
    """Two random attacks per argument on average, and 5 % self-attackers."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(n)]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    pairs += [(i, i) for i in rng.sample(range(n), n // 20)]
    return build_framework(names, [(names[i], names[j]) for i, j in pairs])


@pytest.mark.parametrize("row", ["chain:n=3000", "cycle:n=2000", "self-attacking er:n=1500"])
def test_grounded_closure_at_real_widths(row):
    if row.startswith("self-attacking"):
        fw = _self_attacking_sparse_er(1500, seed=7)
        assert fw.self_attackers
    else:
        fw = generate(parse_generator_spec(row))
    grounded = closure_by_rounds(fw)
    if row != "chain:n=3000":  # there 1500 rounds of n tests each
        assert iterated_closure(fw, 0, fw.all_mask) == grounded
    attacked = 0
    for a in iter_bits(grounded):
        attacked |= fw.attacked_by[a]
    assert semantics._defended_closure(fw, 0, 0, fw.all_mask) == (grounded, attacked)


@st.composite
def sparse_frameworks(draw, max_args=10):
    """At most one attack per argument on average, self-attacks allowed, so
    the grounded extension is mostly non-empty and attacks something."""
    n = draw(st.integers(min_value=1, max_value=max_args))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=n))
    names = [f"a{i}" for i in range(n)]
    return build_framework(names, [(names[i], names[j]) for i, j in pairs])


# a is unattacked and attacks nothing, b attacks itself, b and c attack each
# other: G = {a} attacks nothing, so G leaves every argument
_GROUNDED_ATTACKS_NOTHING = build_framework(
    ["a", "b", "c"], [("b", "b"), ("b", "c"), ("c", "b")]
)


@given(st.one_of(frameworks_with_self_attacks(), sparse_frameworks(max_args=12)))
@example(_GROUNDED_ATTACKS_NOTHING)
@settings(max_examples=200, deadline=None)
def test_search_space_against_reference_fixpoints(fw):
    """Every kind's space against the reference fixpoints: the pool the
    space computes (once) is the round-based pool, the seed the grounded
    extension or empty, the carried mask what the seed attacks, holding its
    attackers, and the rest the pool compatible with the seed."""
    nsa = semantics._non_self_attacking(fw)
    pool = round_based_pool(fw)
    grounded = iterated_closure(fw, 0, fw.all_mask)
    pools = []
    real = semantics.admissible_candidates

    def recorded(*args):
        pools.append(real(*args))
        return pools[-1]

    for kind in SemanticsKind:
        pools.clear()
        with mock.patch.object(semantics, "admissible_candidates", recorded):
            seed, rest, defend, attacked = semantics._search_space(fw, kind)
        admissible_based = kind in (ADM, PRF, SEM)
        # the adm space narrows its pool itself
        assert pools == ([pool] if kind in (PRF, SEM) else [])
        assert defend == (fw.all_mask if admissible_based else 0)
        assert seed == (0 if kind in (CF, ADM, STG) else grounded)
        assert attacked == attacked_mask(fw, seed)
        assert attackers_mask(fw, seed) & ~attacked == 0
        base = pool if admissible_based else nsa
        assert rest == semantics._compatible_outside(fw, seed, base)


@pytest.mark.parametrize("kind", [PRF, SEM])
def test_pool_narrows_on_from_the_grounded_fixpoint(kind):
    # what G leaves is a fixpoint even when it is every argument, so the
    # pool narrows on from it testing only what the self-attackers attack
    fw = _GROUNDED_ATTACKS_NOTHING
    hits = []
    real = semantics._narrow

    def recorded(fw, defend, pool, dropped, hit, e, guarded):
        if sys._getframe(1).f_code.co_name == "admissible_candidates":
            hits.append(hit)
        return real(fw, defend, pool, dropped, hit, e, guarded)

    with mock.patch.object(semantics, "_narrow", recorded):
        seed, rest, _, attacked = semantics._search_space(fw, kind)
    assert (seed, attacked) == (fw.set_of(["a"]), 0)
    assert rest == fw.set_of(["c"])
    assert hits == [0]


# a0 attacks itself, a1 -> a2 -> a0: G = {a1}, no stable extension, and
# {a2} is a stage extension, so stage must not start at G
_STAGE_ESCAPES_GROUNDED = build_framework(
    ["a0", "a1", "a2"], [("a0", "a0"), ("a1", "a2"), ("a2", "a0")]
)


@given(st.one_of(sparse_frameworks(), frameworks(max_args=10)))
@example(_STAGE_ESCAPES_GROUNDED)
@example(build_framework([f"a{i}" for i in range(6)], [(f"a{i}", f"a{i + 1}") for i in range(5)]))
@settings(max_examples=120, deadline=None)
def test_grounded_queries_agree_with_oracle(fw):
    for kind in SemanticsKind:
        exts = brute_force(fw, kind).extensions
        assert enumerate_extensions(fw, kind).extensions == exts
        seed, rest, defend, _ = semantics._search_space(fw, kind)
        for e in exts:
            assert e & seed == seed and e & ~(seed | rest) == 0
            assert attackers_mask(fw, e) & defend & ~attacked_mask(fw, e) == 0
        for a in range(fw.n):
            bit = 1 << a
            assert credulous(fw, a, kind) == any(s & bit for s in exts)
            assert skeptical(fw, a, kind) == all(s & bit for s in exts)


def test_stage_does_not_start_at_grounded():
    fw = _STAGE_ESCAPES_GROUNDED
    assert name_sets(fw, enumerate_extensions(fw, STG)) == [{"a1"}, {"a2"}]
    assert not skeptical(fw, fw.index["a1"], STG)
    assert credulous(fw, fw.index["a2"], STG)


@pytest.mark.parametrize("kind", [PRF, SEM, STB])
def test_grounded_decides_queries_without_search(kind):
    # the chain a0 -> a1 -> ... -> a5 has G = {a0, a2, a4}
    names = [f"a{i}" for i in range(6)]
    fw = build_framework(names, list(zip(names, names[1:])))
    for a in (0, 2, 4):
        assert skeptical(fw, a, kind, budget=0)
    for a in (1, 3, 5):
        assert not credulous(fw, a, kind, budget=0)
        # preferred extensions exist, so none holds a
        assert kind is not PRF or not skeptical(fw, a, kind, budget=0)
    with pytest.raises(BudgetExceeded):
        enumerate_extensions(fw, kind, budget=0)


def test_self_attacker_rejected_without_search():
    fw = build_framework(["a", "b"], [("a", "a"), ("a", "b")])
    for kind in SemanticsKind:
        assert not credulous(fw, 0, kind, budget=0)
    assert not skeptical(fw, 0, PRF, budget=0)


@pytest.mark.parametrize("kind", [CF, ADM])
def test_credulous_base_is_one_goal_search(kind):
    # x0 and a attack each other around 40 unattacked arguments: in index
    # order the labelling DFS walks the 2^40 sets with x0 before one with a,
    # the goal search takes a at once
    names = ["x0"] + [f"u{i}" for i in range(40)] + ["a"]
    fw = build_framework(names, [("a", "x0"), ("x0", "a")])
    assert credulous(fw, fw.index["a"], kind, budget=100)


# --- semi-stable and stage -------------------------------------------------------

# a framework with a stable extension has sem = stg = stb, so these cost the
# stable DFS (5 157 nodes on the grid, 16 on the chain), not a walk over
# every admissible resp. conflict-free set (454 385 and 2 178 309 nodes)
@pytest.mark.parametrize(
    "spec, kind, count, budget",
    [
        ("grid:w=6,h=5", SEM, 1132, 10**4),
        ("grid:w=6,h=5", STG, 1132, 10**4),
        ("chain:n=30", STG, 1, 100),
    ],
)
def test_stable_first_within_small_budget(spec, kind, count, budget):
    fw = generate(parse_generator_spec(spec))
    exts = enumerate_extensions(fw, kind, budget=budget).extensions
    assert len(exts) == count
    assert exts == enumerate_extensions(fw, STB).extensions
    for a in range(fw.n):
        bit = 1 << a
        assert credulous(fw, a, kind, budget=budget) == any(s & bit for s in exts)
        assert skeptical(fw, a, kind, budget=budget) == all(s & bit for s in exts)


def _disjoint_three_cycles(k):
    names = [f"c{i}_{j}" for i in range(k) for j in range(3)]
    return build_framework(
        names, [(f"c{i}_{j}", f"c{i}_{(j + 1) % 3}") for i in range(k) for j in range(3)]
    )


# without a stable extension stage is collected in full, but each branch of
# the naive-set enumeration adds an argument that the set neither holds nor
# conflicts with, or one of its attackers or targets (14 081 and 29 527
# nodes, stable probe included, against 386 263 and 262 147 for a walk over
# every conflict-free set), and the 3^9 equal-size ranges of the cycles are
# never compared with each other
@pytest.mark.parametrize(
    "fw, count",
    [
        (generate(parse_generator_spec("er:n=40,p=0.1,seed=1")), 25),
        (_disjoint_three_cycles(9), 3**9),
    ],
    ids=["er:n=40,p=0.1,seed=1", "9 disjoint 3-cycles"],
)
def test_unstable_stage_within_small_budget(fw, count):
    budget = 10**5
    exts = enumerate_extensions(fw, STG, budget=budget).extensions
    assert len(exts) == count
    assert not enumerate_extensions(fw, STB).extensions
    for a in range(fw.n):
        bit = 1 << a
        assert credulous(fw, a, STG, budget=budget) == any(s & bit for s in exts)
        assert skeptical(fw, a, STG, budget=budget) == all(s & bit for s in exts)


def test_unstable_stage_within_pivot_budget():
    # 2 042 nodes of stable probe and 12 039 of naive sets; the argument-order
    # walk that cut dead subtrees took 44 430 in all
    fw = generate(parse_generator_spec("er:n=40,p=0.1,seed=1"))
    assert len(enumerate_extensions(fw, STG, budget=2 * 10**4)) == 25
    with pytest.raises(BudgetExceeded):
        list(semantics._naive_sets(fw, semantics._non_self_attacking(fw), semantics._Budget(10)))


@st.composite
def ranged_pairs(draw):
    """(set, range) pairs drawn from a few ranges, so that ranges repeat and
    distinct sets share one."""
    ranges = draw(st.lists(st.integers(0, 63), min_size=1, max_size=8))
    return draw(
        st.lists(st.tuples(st.integers(0, 255), st.sampled_from(ranges)), max_size=20)
    )


@given(ranged_pairs())
@example([(1, 0b011), (2, 0b011), (1, 0b011), (4, 0b001), (8, 0b110), (16, 0b100)])
@settings(max_examples=300, deadline=None)
def test_range_maximal_against_brute_force(ranged):
    expected = [
        s for s, r in ranged if not any(r & ~k == 0 and k != r for _, k in ranged)
    ]
    assert semantics._range_maximal(ranged) == expected


def _is_naive(fw, s):
    return is_conflict_free(fw, s) and not any(
        is_conflict_free(fw, s | 1 << a) for a in range(fw.n) if not s >> a & 1
    )


@given(frameworks_with_self_attacks(max_args=10))
@settings(max_examples=150, deadline=None)
def test_naive_sets_against_brute_force(fw):
    got = list(
        semantics._naive_sets(fw, semantics._non_self_attacking(fw), semantics._Budget(10**6))
    )
    naive = [s for s in range(fw.all_mask + 1) if _is_naive(fw, s)]
    assert sorted(s for s, _ in got) == naive
    assert len({s for s, _ in got}) == len(got)
    for s, rng in got:
        assert rng == range_of(fw, s)


# past the oracle's 20-argument cap: the naive sets against the
# subset-maximal sets of the conflict-free walk, ranges included
@pytest.mark.parametrize(
    "spec",
    [
        "er:n=20,p=0.15,seed=8",
        "er:n=30,p=0.1,seed=6",
        "er:n=30,p=0.15,seed=4",
        "scc:k=3,scc_size=8,p_intra=0.3,p_inter=0.1,seed=2",
        "scc:k=3,scc_size=10,p_intra=0.3,p_inter=0.1,seed=3",
        "grid:w=4,h=5",
        "grid:w=2,h=10",
        "cycle:n=20",
        "cycle:n=21",
        # eight disjoint 3-cycles
        "scc:k=8,scc_size=3,p_intra=0,p_inter=0",
    ],
)
def test_naive_sets_are_the_maximal_conflict_free_sets_past_the_oracle(spec):
    fw = generate(parse_generator_spec(spec))
    nsa = semantics._non_self_attacking(fw)
    cf = dict(semantics._labellings(fw, (0, nsa, 0, 0), 0, semantics._Budget(10**7)))
    maximal = {
        s: r for s, r in cf.items()
        if not any(s | 1 << a in cf for a in range(fw.n) if not s >> a & 1)
    }
    got = list(semantics._naive_sets(fw, nsa, semantics._Budget(10**6)))
    assert len(got) == len(maximal)
    assert dict(got) == maximal


# --- budget ----------------------------------------------------------------------

def test_budget_exceeded_signals_unknown(example1):
    with pytest.raises(BudgetExceeded):
        enumerate_extensions(example1, PRF, budget=3)


@pytest.mark.parametrize("spec", [
    None,
    "chain:n=12",
    "cycle:n=10",
    "grid:w=4,h=3",
    "er:n=14,p=0.2,seed=1",
    "scc:k=3,scc_size=4,p_intra=0.3,p_inter=0.1,seed=1",
], ids=lambda spec: spec or "example1")
@pytest.mark.parametrize("kind", list(SemanticsKind), ids=lambda kind: kind.value)
def test_nodes_is_the_smallest_budget_that_finishes(spec, kind, example1):
    fw = example1 if spec is None else generate(parse_generator_spec(spec))
    e = enumerate_extensions(fw, kind)
    assert enumerate_extensions(fw, kind, budget=e.nodes) == e
    if e.nodes > 0:
        with pytest.raises(BudgetExceeded):
            enumerate_extensions(fw, kind, budget=e.nodes - 1)
    # the count is a measurement, not part of the value
    other = semantics.ExtensionSet(e.extensions, e.nodes + 1)
    assert other == e and hash(other) == hash(e) and repr(other) == repr(e)
    assert brute_force(fw, kind).nodes == 0


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
@example(build_framework(["a"], [("a", "a")]))
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
