"""Seeded framework generators for the benchmark.

Independent of the program under test: a framework here is a list of
argument names and a list of attacks as index pairs, and the program only
ever sees the ``.apx``/``.tgf`` text written from it.  Each generator takes
its own ``random.Random`` so that one seed always yields the same
frameworks, whatever Python process runs it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Framework:
    """One generated instance.

    ``stable`` is True/False when it is known whether a stable extension
    exists, None when it is not.  For families with a closed form,
    ``closed`` lists the argument indices of the one extension that stb,
    prf, sem and stg all have.
    """

    label: str
    names: list[str]
    attacks: list[tuple[int, int]]
    stable: bool | None = None
    closed: list[int] | None = None

    def __post_init__(self):
        # generators may draw one attack twice; keep first occurrences
        self.attacks = list(dict.fromkeys(self.attacks))

    @property
    def n(self) -> int:
        return len(self.names)

    def to_apx(self) -> str:
        names = self.names
        lines = [f"arg({a})." for a in names]
        lines += [f"att({names[i]},{names[j]})." for i, j in self.attacks]
        return "\n".join(lines) + "\n"

    def to_tgf(self) -> str:
        names = self.names
        lines = list(names) + ["#"]
        lines += [f"{names[i]} {names[j]}" for i, j in self.attacks]
        return "\n".join(lines) + "\n"


def rng_for(*parts) -> random.Random:
    """A generator seeded from a tuple of integers, the same in every
    process."""
    seed = 0
    for p in parts:
        seed = seed * 1_000_003 + int(p)
    return random.Random(seed)


def er(rng: random.Random, n: int, p: float, label: str) -> Framework:
    """Erdos-Renyi: every ordered pair, self-attacks included, with
    probability p."""
    names = [f"a{i}" for i in range(n)]
    attacks = [(i, j) for i in range(n) for j in range(n) if rng.random() < p]
    return Framework(label, names, attacks)


def chain(n: int, label: str) -> Framework:
    """a0 -> a1 -> ... -> a(n-1), declared in chain order."""
    names = [f"a{i}" for i in range(n)]
    attacks = [(i, i + 1) for i in range(n - 1)]
    return Framework(label, names, attacks, stable=True, closed=list(range(0, n, 2)))


def grid(w: int, h: int, label: str) -> Framework:
    """w x h grid with mutual attacks between horizontal and vertical
    neighbours.  Symmetric and free of self-attacks, so its stable
    extensions are exactly its maximal independent sets and never empty."""
    names = [f"g{x}_{y}" for y in range(h) for x in range(w)]
    attacks = []
    for y in range(h):
        for x in range(w):
            i = y * w + x
            if x + 1 < w:
                attacks += [(i, i + 1), (i + 1, i)]
            if y + 1 < h:
                attacks += [(i, i + w), (i + w, i)]
    return Framework(label, names, attacks, stable=True)


def scc_blocks(
    rng: random.Random, k: int, size: int, p_intra: float, p_inter: float, label: str
) -> Framework:
    """k blocks, each a directed cycle (so strongly connected) with extra
    random attacks inside, and random attacks from each block into the
    next one only."""
    names = [f"b{b}_n{i}" for b in range(k) for i in range(size)]
    attacks = []
    for b in range(k):
        base = b * size
        if size > 1:
            attacks += [(base + i, base + (i + 1) % size) for i in range(size)]
        attacks += [
            (base + i, base + j)
            for i in range(size)
            for j in range(size)
            if i != j and rng.random() < p_intra
        ]
        if b + 1 < k:
            nxt = base + size
            attacks += [
                (base + i, nxt + j)
                for i in range(size)
                for j in range(size)
                if rng.random() < p_inter
            ]
    return Framework(label, names, attacks)


def sparse_blocks(
    rng: random.Random, n: int, odd_source: bool, label: str
) -> Framework:
    """Large sparse block framework with a known number of stable
    extensions.

    Blocks are directed even cycles of length 2, 4 or 6.  Every member of
    block b-1, and a few random members of earlier blocks, attack one chosen
    target in block b.  Any stable labelling of an even cycle with at most
    one attacked member puts a member IN, so from block 1 on each target is
    always attacked and the labelling of its block is forced: the framework
    has exactly two stable extensions, chosen by block 0.  With
    ``odd_source`` an unattacked directed 3-cycle comes first, and there is
    no stable extension at all.
    """
    names: list[str] = []
    attacks: list[tuple[int, int]] = []
    if odd_source:
        names += ["o0", "o1", "o2"]
        attacks += [(0, 1), (1, 2), (2, 0)]
    blocks: list[range] = []
    while len(names) < n:
        size = rng.choice((2, 4, 6))
        start = len(names)
        b = len(blocks)
        names += [f"c{b}_{i}" for i in range(size)]
        attacks += [(start + i, start + (i + 1) % size) for i in range(size)]
        if blocks:
            target = start + rng.randrange(size)
            attacks += [(i, target) for i in blocks[-1]]
            for _ in range(rng.randrange(3)):
                attacks.append((rng.choice(blocks[rng.randrange(len(blocks))]), target))
        blocks.append(range(start, start + size))
    return Framework(label, names, attacks, stable=not odd_source)


def unattacked(n: int, label: str) -> Framework:
    """n arguments and no attacks."""
    names = [f"a{i}" for i in range(n)]
    return Framework(label, names, [], stable=True, closed=list(range(n)))
