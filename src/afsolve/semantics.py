"""Extension enumeration and verification engines.

Two search engines do all the work, both iterative with an explicit stack,
so no framework is too deep for them:

- the labelling DFS (`_labellings`) grows an IN set in argument-index order
  and yields every conflict-free set, with its range, that defends itself
  against a chosen set of attackers and covers a chosen set of arguments.
  Conflict-free, admissible and stable enumeration are three settings of
  it; semi-stable and stage keep the sets of maximal range among the
  admissible resp. conflict-free sets, read from the ranges the DFS yields.
- the goal search (`_find_admissible_goal`) finds one admissible (or, for
  the conflict-free cover, conflict-free) set that hits every mask of a
  list, adding only arguments that hit an unmet mask or counter-attack a
  pending attacker, with failed sets memoized.

The admissible candidate pool that bounds both engines is one linear
worklist pass.  Preferred enumeration is output-sensitive: it computes the
pool once, then alternates goal searches for an admissible set not yet
covered with witness-driven maximization, so its cost scales with the
number of preferred extensions rather than the number of admissible sets.
It yields extensions as it finds them, so a skeptical preferred query stops
at the first extension that lacks the argument; a credulous preferred query
is a single goal search.

The verifiers come in pairs that run on different engines, so the test
suite can cross-check them: witness (goal search) against maximality
(labelling DFS) for preferred, and cover (goal search) against superset
(labelling DFS) for maximal range.  Work is metered by a node budget;
exhausting it raises BudgetExceeded ("unknown"), never a wrong answer.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from .core import (
    ArgumentSet,
    ArgumentationFramework,
    attacked_mask,
    is_conflict_free,
    iter_bits,
    range_of,
)

DEFAULT_BUDGET = 10**8


class SemanticsKind(enum.Enum):
    CF = "cf"
    ADM = "adm"
    STB = "stb"
    PRF = "prf"
    SEM = "sem"
    STG = "stg"


class BudgetExceeded(RuntimeError):
    """Search node budget exhausted; the answer is unknown."""


class PreconditionError(ValueError):
    """Caller violated a documented precondition."""


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("search node budget exhausted")


@dataclass(frozen=True)
class ExtensionSet:
    """Extensions of one framework, sorted ascending by bitmask."""

    extensions: tuple[ArgumentSet, ...]

    def __len__(self):
        return len(self.extensions)

    def __contains__(self, s: ArgumentSet) -> bool:
        i = bisect_left(self.extensions, s)
        return i < len(self.extensions) and self.extensions[i] == s

    def as_set(self) -> frozenset[ArgumentSet]:
        return frozenset(self.extensions)

    def to_name_sets(self, fw: ArgumentationFramework) -> list[tuple[str, ...]]:
        return [fw.names_of(s) for s in self.extensions]


# ---------------------------------------------------------------------------
# verifiers

def is_admissible(fw: ArgumentationFramework, s: ArgumentSet) -> bool:
    if not is_conflict_free(fw, s):
        return False
    attacked = attacked_mask(fw, s)
    for a in iter_bits(s):
        if fw.attackers_of[a] & ~attacked:
            return False
    return True


def is_stable(fw: ArgumentationFramework, s: ArgumentSet) -> bool:
    return is_conflict_free(fw, s) and range_of(fw, s) == fw.all_mask


def _check_base(fw, s, base: SemanticsKind):
    if base is SemanticsKind.CF:
        ok = is_conflict_free(fw, s)
    elif base is SemanticsKind.ADM:
        ok = is_admissible(fw, s)
    else:
        raise PreconditionError(f"base must be CF or ADM, got {base}")
    if not ok:
        raise PreconditionError(
            f"candidate set does not satisfy base property {base.value}"
        )


# ---------------------------------------------------------------------------
# candidate pools

def _non_self_attacking(fw: ArgumentationFramework) -> ArgumentSet:
    mask = 0
    for i in range(fw.n):
        if (i, i) not in fw.attacks:
            mask |= 1 << i
    return mask


def admissible_candidates(fw: ArgumentationFramework) -> ArgumentSet:
    """Monotone over-approximation of the arguments that can belong to
    some admissible set: the greatest set of non-self-attackers each of
    whose attackers keeps a potential counter-attacker inside the set.

    One worklist pass in O(n+m) set operations: live[b] counts the
    attackers of b still in the pool; once it drops to 0, b can never be
    counter-attacked, so everything b attacks leaves the pool."""
    attackers_of = fw.attackers_of
    attacked_by = fw.attacked_by
    pool = _non_self_attacking(fw)
    live = [(attackers_of[b] & pool).bit_count() for b in range(fw.n)]
    undefended = [b for b in range(fw.n) if not live[b]]
    while undefended:
        b = undefended.pop()
        for a in iter_bits(attacked_by[b] & pool):
            pool &= ~(1 << a)
            for c in iter_bits(attacked_by[a]):
                live[c] -= 1
                if not live[c]:
                    undefended.append(c)
    return pool


def _base_search(fw, base: SemanticsKind) -> tuple[ArgumentSet, ArgumentSet]:
    """(pool, defend) of the sets with the base property: the arguments
    such a set may contain, and the attackers it must counter-attack."""
    if base is SemanticsKind.ADM:
        return admissible_candidates(fw), fw.all_mask
    return _non_self_attacking(fw), 0


def _attackers_of_set(fw, s: ArgumentSet) -> ArgumentSet:
    need = 0
    for a in iter_bits(s):
        need |= fw.attackers_of[a]
    return need


def _compatible_outside(fw, s: ArgumentSet, pool: ArgumentSet) -> ArgumentSet:
    """Arguments of the candidate pool outside s that neither attack nor
    are attacked by s."""
    blocked = s
    for a in iter_bits(s):
        blocked |= fw.attackers_of[a] | fw.attacked_by[a]
    return pool & ~blocked


# ---------------------------------------------------------------------------
# the labelling DFS

def _labellings(fw, pool_mask, seed, defend, cover, budget):
    """Yield (E, range of E), in depth-first preorder, for every
    conflict-free E = seed | X with X <= pool_mask such that every attacker
    of E inside `defend` is counter-attacked and `cover` lies in the range
    of E.  The seed must be conflict-free and the pool free of
    self-attackers.

    Each node adds one pool argument past the last one added; OUT is
    implicit (the skipped arguments).  A position j can only extend the
    node while the pool from j on can still counter-attack every pending
    attacker and cover every uncovered argument of `cover`; those suffix
    masks only shrink, so the first position that cannot ends the node.
    The stack holds one frame per level: the parent's state and the next
    position it tries."""
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    pool = list(iter_bits(pool_mask & ~seed))
    n = len(pool)
    conflict = [attackers_of[a] | attacked_by[a] for a in pool]
    # future_attacked[j] / future_range[j]: what positions >= j can still
    # attack / cover
    future_attacked = [0] * (n + 1)
    future_range = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        a = pool[j]
        future_attacked[j] = future_attacked[j + 1] | attacked_by[a]
        future_range[j] = future_range[j + 1] | future_attacked[j] | (1 << a)
    frames = []
    j, in_mask = 0, seed
    attacked, need = attacked_mask(fw, seed), _attackers_of_set(fw, seed)
    while True:
        budget.tick()
        rng = in_mask | attacked
        pending = need & defend & ~attacked if defend else 0
        uncovered = cover & ~rng if cover else 0
        if not pending and not uncovered:
            yield in_mask, rng
        # the next child: of this node, else of the nearest open ancestor
        while True:
            while j < n and not (
                pending and pending & ~future_attacked[j]
                or uncovered and uncovered & ~future_range[j]
            ):
                if not conflict[j] & in_mask:
                    break
                j += 1
            else:
                if not frames:
                    return
                j, in_mask, attacked, need, pending, uncovered = frames.pop()
                continue
            frames.append((j + 1, in_mask, attacked, need, pending, uncovered))
            a = pool[j]
            j += 1
            in_mask |= 1 << a
            attacked |= attacked_by[a]
            need |= attackers_of[a]
            break


# ---------------------------------------------------------------------------
# the goal search (the saturation-style second guess, natively)

def _find_admissible_goal(fw, seed, allowed, must_hits, defend, budget, dead=None):
    """Goal-directed search: first conflict-free E with
    seed <= E <= seed|allowed, E & m != 0 for every mask in must_hits, and
    every attacker of E inside `defend` counter-attacked (admissible when
    defend is every argument); None when no such set exists.  Elements are
    added only to hit the first unmet mask or to counter-attack a pending
    attacker, so branching stays narrow; failed sets are memoized.  The
    seed must be conflict-free and compatible with every allowed argument.

    `dead` collects sets proven to have no such superset within `allowed`
    at all (failures with every must-hit already satisfied); such entries
    stay valid across calls with different must_hits, so callers running
    several searches over the same `allowed` and `defend` may share one
    set."""
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    if dead is None:
        dead = set()
    failed: set[int] = set()
    frames = []
    e_mask = seed
    attacked, need = attacked_mask(fw, seed), _attackers_of_set(fw, seed)
    while True:
        budget.tick()
        if e_mask in dead or e_mask in failed:
            choices, defending = 0, False  # a known failure
        else:
            choices = None
            for m in must_hits:
                if not e_mask & m:
                    choices = m & allowed & ~e_mask
                    break
            defending = choices is None
            if defending:
                pend = need & defend & ~attacked
                if not pend:
                    return e_mask
                # fail-first: defend the pending attacker with the fewest
                # compatible counter-attackers
                best = -1
                for b in iter_bits(pend):
                    options = attackers_of[b] & allowed & ~e_mask
                    cnt = options.bit_count()
                    if best < 0 or cnt < best:
                        best, choices = cnt, options
                        if cnt <= 1:
                            break
        # the next child: of this set, else of the nearest open ancestor; a
        # set whose choices are used up has failed
        while True:
            while choices:
                low = choices & -choices
                choices ^= low
                c = low.bit_length() - 1
                if not (attackers_of[c] | attacked_by[c]) & e_mask:
                    break
            else:
                (dead if defending else failed).add(e_mask)
                if not frames:
                    return None
                e_mask, attacked, need, choices, defending = frames.pop()
                continue
            frames.append((e_mask, attacked, need, choices, defending))
            e_mask |= low
            attacked |= attacked_by[c]
            need |= attackers_of[c]
            break


def _exists_cover(fw, target, pool, defend, budget) -> bool:
    """Is there a set with the base property (pool, defend) whose range
    covers target?  An argument is covered by itself or by one of its
    attackers, so each target argument is one must-hit mask."""
    must_hits = [(1 << t) | fw.attackers_of[t] for t in iter_bits(target)]
    return _find_admissible_goal(fw, 0, pool, must_hits, defend, budget) is not None


# ---------------------------------------------------------------------------
# paired verifiers

def is_preferred_by_witness(
    fw: ArgumentationFramework, s: ArgumentSet, budget: int = DEFAULT_BUDGET
) -> bool:
    """s is preferred iff no admissible witness E exists with E not
    contained in s and E union s conflict-free."""
    if not is_admissible(fw, s):
        raise PreconditionError("is_preferred_by_witness requires an admissible set")
    outside = _compatible_outside(fw, s, admissible_candidates(fw))
    if not outside:
        return True
    witness = _find_admissible_goal(
        fw, 0, s | outside, [outside], fw.all_mask, _Budget(budget)
    )
    return witness is None


def is_preferred_by_maximality(
    fw: ArgumentationFramework, s: ArgumentSet, budget: int = DEFAULT_BUDGET
) -> bool:
    """Textbook route: admissible with no admissible proper superset."""
    if not is_admissible(fw, s):
        return False
    pool = s | _compatible_outside(fw, s, admissible_candidates(fw))
    supersets = _labellings(fw, pool, s, fw.all_mask, 0, _Budget(budget))
    return not any(t != s for t, _ in supersets)


def exists_cover_with_property(
    fw: ArgumentationFramework,
    target: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Is there a conflict-free (resp. admissible) E whose range covers
    target?  E is assembled per uncovered target element from the element
    itself or one of its attackers, then (admissible base) completed with
    counter-attackers of undefeated attackers."""
    if base not in (SemanticsKind.CF, SemanticsKind.ADM):
        raise PreconditionError(f"base must be CF or ADM, got {base}")
    pool, defend = _base_search(fw, base)
    return _exists_cover(fw, target, pool, defend, _Budget(budget))


def is_range_supreme_by_cover(
    fw: ArgumentationFramework,
    s: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Cover route: no base-satisfying set covers the range of s plus one
    extra argument.  Trivially true when s is already stable."""
    _check_base(fw, s, base)
    b = _Budget(budget)
    rng = range_of(fw, s)
    if rng == fw.all_mask:
        return True
    pool, defend = _base_search(fw, base)
    for a in iter_bits(fw.all_mask & ~rng):
        if _exists_cover(fw, rng | (1 << a), pool, defend, b):
            return False
    return True


def is_range_supreme_by_superset(
    fw: ArgumentationFramework,
    s: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Direct route: no base-satisfying set has a strictly larger range."""
    _check_base(fw, s, base)
    rng = range_of(fw, s)
    if rng == fw.all_mask:
        return True
    pool, defend = _base_search(fw, base)
    ranged = _labellings(fw, pool, 0, defend, 0, _Budget(budget))
    return not any(rng & ~t_rng == 0 and t_rng != rng for _, t_rng in ranged)


# ---------------------------------------------------------------------------
# preferred enumeration

def _find_admissible_uncovered(fw, covers, candidates, budget, dead):
    """First admissible set not contained in any mask in `covers`, or None
    when every admissible set is covered."""
    complements = [fw.all_mask & ~p for p in covers]
    return _find_admissible_goal(
        fw, 0, candidates, complements, fw.all_mask, budget, dead
    )


def _maximize_admissible(fw, s, candidates, budget, dead):
    """Grow an admissible set to a maximal admissible (preferred) set by
    repeatedly adding an admissible superset that hits the compatible
    outside."""
    while True:
        outside = _compatible_outside(fw, s, candidates)
        if not outside:
            return s
        bigger = _find_admissible_goal(
            fw, s, candidates, [outside], fw.all_mask, budget, dead
        )
        if bigger is None:
            return s
        s = bigger


def _collect_preferred(fw, budget):
    """Output-sensitive preferred enumeration: find an admissible set not
    covered by the preferred extensions found so far, grow it to a maximal
    admissible set, repeat until everything is covered.  Extensions are
    yielded as they are found, so a caller may stop early."""
    candidates = admissible_candidates(fw)
    dead: set[int] = set()
    found: list[ArgumentSet] = []
    while True:
        e = _find_admissible_uncovered(fw, found, candidates, budget, dead)
        if e is None:
            return
        found.append(_maximize_admissible(fw, e, candidates, budget, dead))
        yield found[-1]


# ---------------------------------------------------------------------------
# enumeration

def _range_maximal(ranged):
    """The sets of the (set, range) pairs whose range is not properly
    contained in another's; distinct sets with equal ranges all survive."""
    ranges = sorted({r for _, r in ranged}, key=lambda m: -m.bit_count())
    maximal_ranges = []
    for r in ranges:
        if not any(r & ~k == 0 for k in maximal_ranges):
            maximal_ranges.append(r)
    maximal = set(maximal_ranges)
    return [s for s, r in ranged if r in maximal]


def _extensions(fw, kind: SemanticsKind, b: _Budget):
    """The extensions as an iterable, unsorted.  Only semi-stable and stage
    are collected in full; the others are produced lazily, so a query can
    stop at the first decisive extension."""
    if kind is SemanticsKind.PRF:
        return _collect_preferred(fw, b)
    if kind is SemanticsKind.STB:
        pool, defend, cover = _non_self_attacking(fw), 0, fw.all_mask
    else:
        adm = kind in (SemanticsKind.ADM, SemanticsKind.SEM)
        pool, defend = _base_search(fw, SemanticsKind.ADM if adm else SemanticsKind.CF)
        cover = 0
    ranged = _labellings(fw, pool, 0, defend, cover, b)
    if kind in (SemanticsKind.SEM, SemanticsKind.STG):
        # every cf/adm set is in the running, so the ones of maximal range
        # are exactly the extensions
        return _range_maximal(list(ranged))
    return (s for s, _ in ranged)


def enumerate_extensions(
    fw: ArgumentationFramework,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> ExtensionSet:
    b = _Budget(budget)
    return ExtensionSet(tuple(sorted(set(_extensions(fw, kind, b)))))


def credulous(
    fw: ArgumentationFramework,
    a: int,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Some extension under kind contains argument index a."""
    if not 0 <= a < fw.n:
        raise PreconditionError(f"argument index {a} out of range")
    b = _Budget(budget)
    bit = 1 << a
    if kind is SemanticsKind.PRF:
        # every admissible set lies inside a preferred one, so credulous
        # preferred is credulous admissible: one goal search decides it
        pool = admissible_candidates(fw)
        return _find_admissible_goal(fw, 0, pool, [bit], fw.all_mask, b) is not None
    return any(s & bit for s in _extensions(fw, kind, b))


def skeptical(
    fw: ArgumentationFramework,
    a: int,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Every extension under kind contains a (vacuously true when none)."""
    if not 0 <= a < fw.n:
        raise PreconditionError(f"argument index {a} out of range")
    b = _Budget(budget)
    bit = 1 << a
    return all(s & bit for s in _extensions(fw, kind, b))
