"""Extension enumeration and verification engines.

Three search engines do all the work, all iterative with an explicit stack,
so no framework is too deep for them:

- the labelling DFS (`_labellings`) grows an IN set in argument-index order
  and yields every conflict-free set, with its range, that defends itself
  against a chosen set of attackers and covers a chosen set of arguments.
  Conflict-free, admissible and stable enumeration are three settings of
  it.  Semi-stable and stage run the stable setting first: when there are
  stable extensions, they are exactly the semi-stable and stage ones, and
  are produced lazily.  Otherwise semi-stable and stage are collected in
  full, keeping the sets of maximal range among the admissible sets the
  DFS yields resp. the naive (maximal conflict-free) sets, since every
  stage extension is naive.  The range filter tests each distinct range
  only against the maximal ranges of strictly larger size.
- the naive-set enumeration (`_naive_sets`) is Bron-Kerbosch with a pivot
  over the conflict graph's complement: every branch adds a member of the
  closed neighbourhood of one argument the set neither holds nor conflicts
  with, one of which every naive set above the set holds.
- the goal search (`_find_admissible_goal`) finds one admissible (or, for
  the conflict-free cover, conflict-free) set that hits every mask of a
  list, adding only arguments that hit an unmet mask or counter-attack a
  pending attacker.  It branches fail-first on whichever open constraint,
  unmet mask or pending attacker, has the fewest options left, and each
  branch excludes the choices its earlier siblings took, so no set is
  visited twice in one search.  When it searches for admissible sets it
  propagates: each node keeps a pool of the arguments still open to it,
  and an attacker with no attacker left in the pool takes everything it
  attacks out of the pool, to a fixpoint (`_narrow`).  No admissible set
  of the node's region can hold an argument it drops, so a node whose own
  set leaves its pool fails, and choices come only from it.

Every semantics has one search space (`_search_space`): a seed every
extension contains, with the arguments it attacks, the rest of the pool it
may add, and the attackers it must counter-attack.  Stable, preferred and
semi-stable extensions are complete, so they contain the grounded
extension G and nothing that attacks or is attacked by G: their seed is G
over the compatible rest of the pool.  G is the defended closure of the
empty set (`_defended_closure`), the least fixpoint of the characteristic
function: one run of the fixpoint from every argument, the grounded
labelling.  It gives G, what G attacks (its range, so no set is rebuilt
bit by bit), and, narrowed on from there without the self-attackers, the
admissible candidate pool that bounds the DFS and the goal search.
Conflict-free, admissible and stage extensions need not contain G, so they
start from the empty set, and the admissible space narrows its pool
itself, testing every argument; the stable-first probe of stage reads the
stable space.  A query on an argument of the seed, or outside the space, is
answered without a search.

The DFS and the goal search take the space as one value, (seed, rest,
defend, attacked), and start from its admissible seed with what it
attacks, which also holds its attackers: the empty set, G, or an
admissible set being maximized; every admissible set the search grows
carries its mask the same way.  The defended closure is the fixpoint run
again, from every argument the set does not attack, as a goal-search node
with the set as its own: it grows an admissible set by every argument it
defends, and what the fixpoint leaves gives the range of the closure.

Preferred enumeration is output-sensitive: it computes the pool once, then
alternates goal searches for an admissible set not yet covered with
witness-driven maximization, so its cost scales with the number of
preferred extensions rather than the number of admissible sets.  By Dung's
Fundamental Lemma an admissible set lies outside a preferred extension E
iff it attacks E, so the search must hit the attackers of every extension
found.  Maximization takes the defended closure before each goal search,
so a goal search only adds what defence alone cannot.  Under cf, adm and
prf every set of the base property lies inside an extension, so a
credulous query there is a single goal search.  Preferred extensions
always exist, so a skeptical preferred query is refuted by that search
when it finds nothing; otherwise it stops at the first extension, yielded
as found, that lacks the argument.

The verifiers come in pairs that run on different engines, so the test
suite can cross-check them: witness (goal search) against maximality
(labelling DFS) for preferred, and cover (goal search) against superset
(labelling DFS) for maximal range.  Work is metered by a node budget;
exhausting it raises BudgetExceeded ("unknown"), never a wrong answer.
"""

from __future__ import annotations

import enum
from itertools import chain

from .core import (
    ArgumentSet,
    ArgumentationFramework,
    FrozenRecord,
    attacked_mask,
    attackers_mask,
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


class ExtensionSet(FrozenRecord):
    """Extensions of one framework, sorted ascending by bitmask, with the
    search nodes `enumerate_extensions` spent on them (0 from elsewhere).
    ``==``, ``hash`` and ``repr`` read the extensions only."""

    __slots__ = ("extensions", "nodes")
    _compared = ("extensions",)

    def __init__(self, extensions: tuple[ArgumentSet, ...], nodes: int = 0):
        object.__setattr__(self, "extensions", extensions)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self):
        return len(self.extensions)

    def as_set(self) -> frozenset[ArgumentSet]:
        return frozenset(self.extensions)

    def to_name_sets(self, fw: ArgumentationFramework) -> list[tuple[str, ...]]:
        return [fw.names_of(s) for s in self.extensions]


# ---------------------------------------------------------------------------
# verifiers

def is_admissible(fw: ArgumentationFramework, s: ArgumentSet) -> bool:
    return is_conflict_free(fw, s) and not attackers_mask(fw, s) & ~attacked_mask(fw, s)


def is_stable(fw: ArgumentationFramework, s: ArgumentSet) -> bool:
    return is_conflict_free(fw, s) and range_of(fw, s) == fw.all_mask


def _check_base(fw, s, base: SemanticsKind):
    """`_search_space(fw, base)`, once s has the base property."""
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
    return _search_space(fw, base)


# ---------------------------------------------------------------------------
# candidate pools

def _non_self_attacking(fw: ArgumentationFramework) -> ArgumentSet:
    return fw.all_mask & ~fw.self_attackers


def _narrow(fw, defend, pool, dropped, hit, e, guarded):
    """The admissible-core fixpoint, which the grounded labelling, the
    candidate pool, the defended closure and every goal-search node run:
    an attacker t inside `defend` with no attacker left in the pool can
    never be counter-attacked from within it, so everything t attacks
    leaves the pool, until no such t is left.  A set within the pool that
    counter-attacks its attackers inside `defend` stays within it, by
    induction over the drops.  Read as a labelling, this is the grounded
    labelling restricted to `defend` (Modgil & Caminada 2009): t is IN,
    what it attacks is OUT, and the pool is what is not OUT.

    The pool comes after the arguments `dropped` left it; only what they
    attack, and the attackers in `hit`, are tested.  Returns early once an
    argument of the set e leaves the pool; until then e's targets,
    `guarded`, keep an attacker in it and are not tested."""
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    test = defend & ~guarded
    if not test:
        return pool
    while True:
        while dropped:
            d = dropped.bit_length() - 1
            dropped ^= 1 << d
            hit |= attacked_by[d]
        hit &= test
        if not hit:
            return pool
        while hit:
            t = hit.bit_length() - 1
            hit ^= 1 << t
            if not attackers_of[t] & pool:
                out = attacked_by[t] & pool
                pool ^= out
                if out & e:
                    return pool
                dropped |= out


def admissible_candidates(fw: ArgumentationFramework, left: ArgumentSet) -> ArgumentSet:
    """Monotone over-approximation of the arguments that can belong to
    some admissible set: the greatest set of non-self-attackers each of
    whose attackers keeps a potential counter-attacker inside the set, that
    is, `_narrow` from the non-self-attackers, testing every argument.

    `left` is every argument the grounded extension G does not attack, what
    `_narrow` leaves when it starts from every argument; the pool narrows on
    from there.  `_narrow` is monotone, so the pool lies inside left, and
    left is a fixpoint, so only what its self-attackers attack needs a test
    once they leave."""
    nsa = _non_self_attacking(fw)
    return _narrow(fw, fw.all_mask, left & nsa, left & ~nsa, 0, 0, 0)


def _defended_closure(
    fw: ArgumentationFramework, s: ArgumentSet, attacked: ArgumentSet, pool: ArgumentSet
) -> tuple[ArgumentSet, ArgumentSet]:
    """(closure, what it attacks): grow the admissible set s, which attacks
    `attacked`, by every pool argument it defends, until it defends none
    outside itself.  Each step stays admissible by Dung's Fundamental Lemma:
    an admissible set stays admissible when it takes an argument it
    defends, and it defends no self-attacker.  From s = 0 over every
    argument this is the least fixpoint of the characteristic function, the
    grounded extension G (Dung 1995), and the run is the grounded
    labelling: what stays is IN or UNDEC, and what G attacks is OUT.

    One `_narrow` run, not a search, so it spends no budget.  Like a
    goal-search node it starts from every argument s does not attack, with
    s as its set: a tested argument (of the pool, outside s and its targets)
    with no attacker left is IN, and what it attacks goes OUT.  The closure
    is s and the IN arguments, and what left the pool is exactly what the
    closure attacks: every drop is by an IN argument, and every target of
    one is dropped.  Arguments outside pool | s, self-attackers among them,
    are never IN, but they stay until something IN attacks them, so their
    targets stay out."""
    hit = pool & ~(s | attacked)
    left = _narrow(fw, pool | s, fw.all_mask & ~attacked, 0, hit, s, attacked)
    stayed = hit & left
    attackers_of = fw.attackers_of
    closure = s | sum(1 << a for a in iter_bits(stayed) if not attackers_of[a] & left)
    return closure, fw.all_mask & ~left


def _compatible_outside(fw, s: ArgumentSet, pool: ArgumentSet) -> ArgumentSet:
    """Arguments of the candidate pool outside s that neither attack nor
    are attacked by s."""
    return pool & ~(range_of(fw, s) | attackers_mask(fw, s))


# ---------------------------------------------------------------------------
# the labelling DFS

def _labellings(fw, space, cover, budget):
    """Yield (E, range of E), in depth-first preorder, for every
    conflict-free E = seed | X with X <= rest such that every attacker of E
    inside `defend` is counter-attacked and `cover` lies in the range of E,
    in a space (seed, rest, defend, attacked) as `_search_space` gives it.
    The seed must be admissible and rest free of self-attackers; `attacked`
    is what the seed attacks, so it holds the seed's attackers.

    Each node adds one pool argument past the last one added; OUT is
    implicit (the skipped arguments).  A position j can only extend the
    node while the pool from j on can still counter-attack every pending
    attacker and cover every uncovered argument of `cover`; those suffix
    masks only shrink, so the first position that cannot ends the node.
    The stack holds one frame per level: the parent's state and the next
    position it tries."""
    seed, rest, defend, attacked = space
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    pool = list(iter_bits(rest & ~seed))
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
    j, in_mask, need = 0, seed, 0
    while True:
        budget.tick()
        rng = in_mask | attacked
        pending = need & defend & ~attacked if defend else 0
        uncovered = cover & ~rng if cover else 0
        if not (pending or uncovered):
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


def _naive_sets(fw, pool, budget):
    """Yield (E, range of E) for every naive set E, a maximal conflict-free
    subset of the pool, which must be free of self-attackers: Bron &
    Kerbosch (1973) over the conflict graph's complement, with a pivot.

    A frame is E, what E attacks, P (the pool arguments outside E's conflict
    neighbourhood not yet excluded) and X (the excluded arguments still
    outside it).  E is naive iff P and X are both empty.  Otherwise take u,
    the lowest argument of P | X: every naive set above E holds u or
    conflicts with it, so holds a member of P & N[u], where N[u] is u with
    its attackers and targets.  Each branch adds one of them and moves its
    earlier siblings into X (Tomita, Tanaka & Takahashi 2006), so no set is
    visited twice, and a frame whose pivot has no option left fails."""
    attacked_by = fw.attacked_by
    closed = [(1 << a) | fw.attackers_of[a] | attacked_by[a] for a in range(fw.n)]
    frames = []
    e = attacked = x = 0
    while True:
        budget.tick()
        undominated = pool | x
        if undominated:
            choices = pool & closed[(undominated & -undominated).bit_length() - 1]
        else:
            yield e, e | attacked
            choices = 0
        # the next child: of this frame, else of the nearest open ancestor
        while not choices:
            if not frames:
                return
            e, attacked, pool, x, choices = frames.pop()
        low = choices & -choices
        choices ^= low
        if choices:
            frames.append((e, attacked, pool ^ low, x | low, choices))
        c = low.bit_length() - 1
        e |= low
        attacked |= attacked_by[c]
        pool &= ~closed[c]
        x &= ~closed[c]


# ---------------------------------------------------------------------------
# the goal search (the saturation-style second guess, natively)

def _find_admissible_goal(fw, space, must_hits, budget):
    """Goal-directed search: first conflict-free E with
    seed <= E <= seed|allowed, E & m != 0 for every mask in must_hits, and
    every attacker of E inside `defend` counter-attacked (admissible when
    defend is every argument); None when no such set exists.  `space` is
    (seed, allowed, defend, attacked), as in `_labellings`: the seed must be
    admissible and `allowed` free of self-attackers, and `attacked` is what
    the seed attacks, so it holds the seed's attackers.  A set that must
    hold some x is seeded at 0 with the must-hit 1 << x.

    A set S that is not a solution branches on a choice set C, fail-first
    over every open constraint: of the unmet masks and the pending
    attackers, the one with the fewest options left in P (its allowed
    arguments, resp. its counter-attackers), scanning masks first and
    stopping at one with at most one option.  Every solution above S
    contains some c in C, so the branch for the i-th choice excludes
    choices 1..i-1, and a constraint with no option left fails S at once.
    Under S's own exclusion X the branches' regions
    {E >= S|{c_i}, E & (X|{c_1..c_(i-1)}) == 0} partition S's region, so no
    set is visited twice in one call.

    Each node carries a pool P: S plus the allowed arguments outside S's
    conflict neighbourhood and outside its exclusion, narrowed by `_narrow`.
    Adding c drops c's attackers and the arguments c attacks; excluding a
    tried sibling drops it from the parent's P, which the later siblings
    inherit.  Every solution in the node's region lies inside P, so the
    node fails when S leaves P, and its choices come only from P.  P is one
    int per frame: backtracking restores it for free."""
    seed, allowed, defend, attacked = space
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    need = 0  # the seed's attackers lie in `attacked`

    # at the root, test every attacker of P
    pool = seed | allowed & ~attacked
    pool = _narrow(fw, defend, pool, 0, attackers_mask(fw, pool & ~seed), seed, attacked)
    if seed & ~pool:
        return None
    frames = []
    e_mask = seed
    while True:
        budget.tick()
        # fail-first over every open constraint: the unmet mask or the
        # pending attacker with the fewest options left in P; one with at
        # most one option is taken at once
        best = -1
        for m in must_hits:
            if not e_mask & m:
                options = m & pool
                cnt = options.bit_count()
                if best < 0 or cnt < best:
                    best, choices = cnt, options
                    if cnt <= 1:
                        break
        if best < 0 or best > 1:
            pend = need & defend & ~attacked
            while pend:
                low = pend & -pend
                pend ^= low
                options = attackers_of[low.bit_length() - 1] & pool
                cnt = options.bit_count()
                if best < 0 or cnt < best:
                    best, choices = cnt, options
                    if cnt <= 1:
                        break
            if best < 0:
                return e_mask
        # the next child: of this set, else of the nearest open ancestor.  A
        # child whose set leaves its P is never entered; a failed choice
        # leaves the P of its set, so the later siblings inherit the drop; a
        # set whose choices are used up, or that leaves its P, has failed.
        while True:
            if choices:
                low = choices & -choices
                choices ^= low
                c = low.bit_length() - 1
                dropped = pool & (attackers_of[c] | attacked_by[c])
                child = _narrow(
                    fw, defend, pool ^ dropped, dropped, 0,
                    e_mask | low, attacked | attacked_by[c],
                )
                if not (e_mask | low) & ~child:
                    break
            elif frames:
                e_mask, attacked, need, choices, pool, low = frames.pop()
            else:
                return None
            if choices:
                pool = _narrow(fw, defend, pool ^ low, low, 0, e_mask, attacked)
                choices = 0 if e_mask & ~pool else choices & pool
        if choices:
            frames.append((e_mask, attacked, need, choices, pool, low))
        pool = child
        e_mask |= low
        attacked |= attacked_by[c]
        need |= attackers_of[c]


def _admissible_superset(fw, s, attacked, candidates, budget):
    """An admissible proper superset of the admissible set s within
    s | candidates, or None when s is maximal there.  Such a superset adds
    only arguments compatible with s, so it is one goal search from s that
    must hit the compatible outside.  s is admissible, so its attackers lie
    in what it attacks, `attacked`, and the compatible outside is what s
    neither holds nor attacks."""
    outside = candidates & ~(s | attacked)
    if not outside:
        return None
    return _find_admissible_goal(fw, (s, candidates, fw.all_mask, attacked), [outside], budget)


# ---------------------------------------------------------------------------
# paired verifiers

def is_preferred_by_witness(
    fw: ArgumentationFramework, s: ArgumentSet, budget: int = DEFAULT_BUDGET
) -> bool:
    """s is preferred iff the goal search finds no admissible proper
    superset of it: the step that preferred enumeration runs."""
    _, pool, _, _ = _check_base(fw, s, SemanticsKind.ADM)
    superset = _admissible_superset(fw, s, attacked_mask(fw, s), pool, _Budget(budget))
    return superset is None


def is_preferred_by_maximality(
    fw: ArgumentationFramework, s: ArgumentSet, budget: int = DEFAULT_BUDGET
) -> bool:
    """Textbook route: admissible with no admissible proper superset."""
    if not is_admissible(fw, s):
        return False
    rest = _compatible_outside(fw, s, _search_space(fw, SemanticsKind.ADM)[1])
    space = s, rest, fw.all_mask, attacked_mask(fw, s)
    supersets = _labellings(fw, space, 0, _Budget(budget))
    return not any(t != s for t, _ in supersets)


def is_range_supreme_by_cover(
    fw: ArgumentationFramework,
    s: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Cover route: no base-satisfying set covers the range of s plus one
    extra argument.  Trivially true when s is already stable.  An argument
    is covered by itself or by one of its attackers, so each argument to
    cover is one must-hit mask of a goal search."""
    space = _check_base(fw, s, base)
    rng = range_of(fw, s)
    if rng == fw.all_mask:
        return True
    b = _Budget(budget)
    hits = [(1 << t) | fw.attackers_of[t] for t in iter_bits(rng)]
    for a in iter_bits(fw.all_mask & ~rng):
        must_hits = [(1 << a) | fw.attackers_of[a], *hits]
        if _find_admissible_goal(fw, space, must_hits, b) is not None:
            return False
    return True


def is_range_supreme_by_superset(
    fw: ArgumentationFramework,
    s: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Direct route: no base-satisfying set has a strictly larger range."""
    space = _check_base(fw, s, base)
    rng = range_of(fw, s)
    if rng == fw.all_mask:
        return True
    ranged = _labellings(fw, space, 0, _Budget(budget))
    return not any(rng & ~t_rng == 0 and t_rng != rng for _, t_rng in ranged)


# ---------------------------------------------------------------------------
# preferred enumeration

def _maximize_admissible(fw, s, attacked, candidates, budget):
    """Grow the admissible set s, which attacks `attacked`, to a maximal
    admissible (preferred) set.  Closure first: s takes every candidate it
    defends (`_defended_closure`), which needs no compatibility test, since
    an admissible set that defends a non-self-attacking argument stays
    admissible when it takes it (Dung's Fundamental Lemma).  Only then does
    `_admissible_superset` look for an admissible superset that hits the
    compatible outside; repeat until there is none.  Each set carries what
    it attacks: the closure returns its own, and a superset adds what its
    new arguments attack."""
    while True:
        e, attacked = _defended_closure(fw, s, attacked, candidates)
        s = _admissible_superset(fw, e, attacked, candidates, budget)
        if s is None:
            return e
        attacked |= attacked_mask(fw, s & ~e)


def _collect_preferred(fw, space, budget):
    """Output-sensitive preferred enumeration: find an admissible set not
    covered by the preferred extensions found so far, grow it to a maximal
    admissible set, repeat until everything is covered.  Every search runs
    in the preferred `space`: it starts at the grounded extension, the
    seed, and adds only the candidates `allowed` compatible with it: every
    preferred extension contains G, and an admissible set joined with G
    stays admissible, so a set escapes the extensions found iff it does
    with G.  An admissible set S escapes an extension E iff S attacks E: if
    S attacked nothing of E, S | E would be admissible (conflict-free, and
    each side defends itself) and larger than E (Dung's Fundamental Lemma);
    and no attacker of E lies in the conflict-free E.  So each extension
    found adds its attackers as a must-hit mask, which leaves every search
    exactly its solutions and narrows the options; when E is G, nothing
    compatible attacks it and the next search fails at its root.
    Extensions are yielded as they are found, so a caller may stop early."""
    seed, allowed, _, attacked = space
    escapes: list[ArgumentSet] = []  # the attackers of the extensions found
    while True:
        e = _find_admissible_goal(fw, space, escapes, budget)
        if e is None:
            return
        e_attacked = attacked | attacked_mask(fw, e & ~seed)
        e = _maximize_admissible(fw, e, e_attacked, allowed, budget)
        escapes.append(attackers_mask(fw, e))
        yield e


# ---------------------------------------------------------------------------
# enumeration

def _range_maximal(ranged):
    """The sets of the (set, range) pairs whose range is not properly
    contained in another's; distinct sets with equal ranges all survive.
    The ranges are deduplicated and taken largest first; two distinct
    ranges of one size cannot contain each other, so each is tested only
    against the maximal ranges of strictly larger size, a prefix of the
    list."""
    ranges = sorted({r for _, r in ranged}, key=int.bit_count, reverse=True)
    maximal_ranges = []
    size = larger = 0
    for r in ranges:
        if r.bit_count() != size:
            size, larger = r.bit_count(), len(maximal_ranges)
        if not any(r & ~k == 0 for k in maximal_ranges[:larger]):
            maximal_ranges.append(r)
    maximal = set(maximal_ranges)
    return [s for s, r in ranged if r in maximal]


def _search_space(fw, kind: SemanticsKind):
    """(seed, rest, defend, attacked), one value that the DFS and the goal
    search take whole: every extension E under kind has seed <= E <= seed |
    rest and counter-attacks every attacker of E inside `defend`, and the
    admissible seed attacks `attacked`.  Admissible-based kinds (adm, prf,
    sem) choose from the admissible candidate pool and defend against every
    attacker; the others choose from the non-self-attackers and defend
    against none.  Conflict-free, admissible and stage extensions need not
    contain the grounded extension G: the empty seed over the pool.

    Stable, preferred and semi-stable extensions are complete, so each
    contains G and nothing that attacks or is attacked by G: their seed is
    G over the rest of the pool compatible with it.  G is the defended
    closure of the empty set over every argument, and the closure carries
    what G attacks, which holds G's attackers, since G is admissible.  The
    pool narrows on from what G leaves unattacked, and the compatible rest
    is that pool outside G.  The adm space has no fixpoint to start from:
    it narrows the non-self-attackers itself, testing every argument, which
    reaches the same pool without paying for G."""
    if kind in (SemanticsKind.CF, SemanticsKind.STG):
        return 0, _non_self_attacking(fw), 0, 0
    if kind is SemanticsKind.ADM:
        pool = _narrow(fw, fw.all_mask, _non_self_attacking(fw), 0, fw.all_mask, 0, 0)
        return 0, pool, fw.all_mask, 0
    seed, attacked = _defended_closure(fw, 0, 0, fw.all_mask)
    left = fw.all_mask & ~attacked
    if kind is SemanticsKind.STB:
        return seed, _non_self_attacking(fw) & left & ~seed, 0, attacked
    return seed, admissible_candidates(fw, left) & ~seed, fw.all_mask, attacked


def _extensions(fw, kind: SemanticsKind, space, b: _Budget):
    """The extensions as an iterable, unsorted, produced lazily so that a
    query can stop at the first decisive extension; `space` is
    `_search_space(fw, kind)`.

    Semi-stable and stage first look for stable extensions: when there are
    any, they are exactly the extensions, and lazy too.  Semi-stable probes
    its own space (an admissible set that covers every argument is stable),
    stage the stable one.  Otherwise both keep the sets of maximal range
    from their own space: semi-stable the admissible supersets of G (an
    admissible set joined with G stays admissible, and its range does not
    shrink), stage the naive sets (`_naive_sets`), since every stage
    extension is naive."""
    if kind is SemanticsKind.PRF:
        return _collect_preferred(fw, space, b)
    # stb, and sem/stg first: if stb != {} then sem = stg = stb, and this DFS
    # is the base DFS pruned further, so the probe never costs more
    probe = _search_space(fw, SemanticsKind.STB) if kind is SemanticsKind.STG else space
    cover = 0 if kind in (SemanticsKind.CF, SemanticsKind.ADM) else fw.all_mask
    ranged = _labellings(fw, probe, cover, b)
    if kind in (SemanticsKind.SEM, SemanticsKind.STG):
        first = next(ranged, None)
        if first is None:
            if kind is SemanticsKind.STG:
                ranged = _naive_sets(fw, space[1], b)
            else:
                ranged = _labellings(fw, space, 0, b)
            return _range_maximal(list(ranged))
        ranged = chain([first], ranged)
    return (s for s, _ in ranged)


def enumerate_extensions(
    fw: ArgumentationFramework,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> ExtensionSet:
    """The extensions under kind, with the search nodes spent: the
    smallest budget that finishes the enumeration."""
    b = _Budget(budget)
    exts = tuple(sorted(set(_extensions(fw, kind, _search_space(fw, kind), b))))
    return ExtensionSet(exts, budget - b.left)


def credulous(
    fw: ArgumentationFramework,
    a: int,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Some extension under kind contains argument index a.  An argument
    outside the search space (a self-attacker; under stb, prf and sem also
    one that G attacks or that attacks G) is rejected without a search.
    Under cf, adm and prf every set of the base property within the space
    lies inside an extension, so one goal search decides the query."""
    if not 0 <= a < fw.n:
        raise PreconditionError(f"argument index {a} out of range")
    b = _Budget(budget)
    bit = 1 << a
    space = seed, rest, _, _ = _search_space(fw, kind)
    if not (seed | rest) & bit:
        return False
    if kind in (SemanticsKind.CF, SemanticsKind.ADM, SemanticsKind.PRF):
        return _find_admissible_goal(fw, space, [bit], b) is not None
    return any(s & bit for s in _extensions(fw, kind, space, b))


def skeptical(
    fw: ArgumentationFramework,
    a: int,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Every extension under kind contains a (vacuously true when none).
    An argument of the seed (under stb, prf and sem, of G) is accepted
    without a search.  Preferred extensions always exist, so under prf an
    argument outside the space is rejected without a search, and one that
    no admissible set holds by credulous's goal search; only an argument
    that passes both is checked against the extensions."""
    if not 0 <= a < fw.n:
        raise PreconditionError(f"argument index {a} out of range")
    b = _Budget(budget)
    bit = 1 << a
    space = seed, rest, _, _ = _search_space(fw, kind)
    if seed & bit:
        return True
    if kind is SemanticsKind.PRF and not (
        (seed | rest) & bit and _find_admissible_goal(fw, space, [bit], b) is not None
    ):
        return False
    return all(s & bit for s in _extensions(fw, kind, space, b))
