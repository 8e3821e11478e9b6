"""Frameworks far deeper than the interpreter's recursion limit.

Every search runs on an explicit stack, so depth is bounded by memory, not
by the call stack: these instances put thousands of arguments on one
search path."""

import pytest

from afsolve import (
    SemanticsKind,
    build_framework,
    credulous,
    enumerate_extensions,
    is_preferred_by_maximality,
    is_preferred_by_witness,
    is_range_supreme_by_cover,
    is_range_supreme_by_superset,
    skeptical,
)
from afsolve import cli
from afsolve.bench import generate, parse_generator_spec

N = 5000
STB = SemanticsKind.STB
ADM = SemanticsKind.ADM
CF = SemanticsKind.CF
EVENS = sum(1 << i for i in range(0, N, 2))


@pytest.fixture(scope="module")
def chain():
    return generate(parse_generator_spec(f"chain:n={N}"))


@pytest.fixture(scope="module")
def unattacked():
    return build_framework([f"x{i}" for i in range(N)], [])


@pytest.fixture(scope="module")
def even_cycle():
    return generate(parse_generator_spec(f"cycle:n={N}"))


def test_stable_on_long_chain(chain):
    assert enumerate_extensions(chain, STB).extensions == (EVENS,)
    assert credulous(chain, N - 2, STB)
    assert not credulous(chain, N - 1, STB)
    assert skeptical(chain, N - 2, STB)
    assert not skeptical(chain, 1, STB)


def test_stable_on_unattacked_arguments(unattacked):
    assert enumerate_extensions(unattacked, STB).extensions == (unattacked.all_mask,)
    assert credulous(unattacked, N - 1, STB)
    assert skeptical(unattacked, N - 1, STB)


def test_stable_on_long_even_cycle(even_cycle):
    assert enumerate_extensions(even_cycle, STB).extensions == (EVENS, EVENS << 1)


def test_cli_solve_stable_on_long_chain(chain, tmp_path, capsys):
    path = tmp_path / "chain.apx"
    lines = [f"arg({name})." for name in chain.args]
    lines += [f"att(a{i},a{i + 1})." for i in range(N - 1)]
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["solve", str(path), "--sem", "stb"]) == 0
    out = capsys.readouterr().out
    assert out.split() == [f"[{','.join(chain.args[0::2])}]"]


def test_verifiers_on_long_frameworks(chain, even_cycle):
    # the chain's extension is stable and has nothing compatible outside,
    # so these return without a deep search
    assert is_preferred_by_maximality(chain, EVENS)
    assert is_preferred_by_witness(chain, EVENS)
    for base in (ADM, CF):
        assert is_range_supreme_by_superset(chain, EVENS, base)
        assert is_range_supreme_by_cover(chain, EVENS, base)
    # on the even cycle the only admissible proper supersets of the empty
    # set are the two halves, so both preferredness routes search N/2 deep
    assert not is_preferred_by_maximality(even_cycle, 0)
    assert not is_preferred_by_witness(even_cycle, 0)
    assert not is_range_supreme_by_cover(even_cycle, 0, ADM)
    # a set one step below the empty one already has a larger range; the
    # superset route must get there without collecting every set first
    for base in (ADM, CF):
        assert not is_range_supreme_by_superset(chain, 0, base)
    assert not is_range_supreme_by_superset(even_cycle, 0, ADM)
