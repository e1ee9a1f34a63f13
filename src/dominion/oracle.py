"""Brute-force ground truth by size-ascending exhaustive search.

The subsets of size k are searched for k = 1, 2, ... until some size
admits a dominating set, and all dominating subsets of that size are then
counted (or listed). It shares no code with the dynamic program and uses
nothing particular to trees; its only virtue is obvious correctness, which
is exactly what the fast paths are validated against.

Each size is searched by the textbook branching rule for dominating set
(Fomin, Grandoni & Kratsch, J. ACM 56, 2009): every dominating set holds a
member of N[u] for each vertex u, so the search takes a vertex u that is
not yet dominated and branches on which member of N[u] it adds. u is one
with the fewest closed-neighbourhood members, a leaf while one is left, so
most branch points have two ways. Against the combination walk it
replaced (index tuples i1 < i2 < ..., cut once the later neighbourhoods
could no longer cover), counting is about 14x faster on random 22-24
vertex trees (0.7-0.9 ms against 10-13 ms, median of 30), about 10x on
comb:n=11, and 12x over 353 trees of up to 24 vertices (CPU time, best
of 5, two runs on a 2-vCPU VM).

Every listed set is checked again before it is handed out, against one
table of closed neighbourhoods per call read from the tree's own
adjacency, never from the search's masks, so a fault in the search cannot
vouch for itself. The table is built once, not per witness member, which
takes enumerating comb:n=10 from about 11 ms to 4 ms, the search 2 ms of
it (CPU time, best of 30, 2-vCPU VM). A search under a raised cap is
refused before its masks are built when gamma >= ceil(n / (1 + the
largest degree)) already reaches the first size over the subset budget:
`path:n=40000` under a cap of 100000 is refused in 0.15 s at 24 MB
instead of 0.5 s at 241 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import TooLargeError, UnknownVertexError
from .tree import DominationSummary, Label, Tree

DEFAULT_CAP = 24
# Most subsets one search may test: every subset of a DEFAULT_CAP-vertex
# tree, so no tree the default cap accepts is ever refused.
SUBSET_BUDGET = 2**DEFAULT_CAP


def _closed_neighborhood(tree: Tree, v: Label) -> frozenset[Label]:
    """v and its neighbours; raises UnknownVertexError for a bad label."""
    return frozenset((v, *tree.neighbors(v)))


def is_dominating(tree: Tree, subset) -> bool:
    """True iff the closed neighborhoods of `subset` cover every vertex."""
    covered: set[Label] = set()
    for v in subset:
        covered |= _closed_neighborhood(tree, v)
    return len(covered) == tree.vertex_count


def _check_cap(n: int, cap: int) -> None:
    """Refuse a tree of `n` vertices above the oracle's vertex `cap`."""
    if n > cap:
        raise TooLargeError(f"{n} vertices exceeds the oracle cap of {cap}")


def _minimum_sets(tree: Tree, cap: int) -> tuple[list[Label], list[tuple[int, ...]]]:
    """The labels in sorted order, and every minimum dominating set as a
    tuple of indices into them, the tuples in lexicographic order.

    Bit i of each mask stands for the i-th sorted label. Refuses a tree above
    `cap` before building the masks, and size k before any of its subsets is
    tested if sizes 1..k together hold more than SUBSET_BUDGET subsets; if
    gamma is sure to reach that size, the refusal comes before the masks.
    """
    n = tree.vertex_count
    _check_cap(n, cap)
    refused, tested = n + 1, 0  # the first size over budget, if any
    for k in range(1, n + 1):
        tested += comb(n, k)
        if tested > SUBSET_BUDGET:
            refused = k
            break
    # A member dominates at most 1 + the largest degree vertices.
    if refused > n or -(-n // (1 + max(map(tree.degree, tree.labels)))) < refused:
        order = sorted(tree.labels)
        position = {v: i for i, v in enumerate(order)}
        masks = []
        for i, v in enumerate(order):
            mask = 1 << i
            for nb in tree.neighbors(v):
                mask |= 1 << position[nb]
            masks.append(mask)
        full = (1 << n) - 1
        for k in range(1, refused):
            found = list(_covers(masks, k, full))
            if found:
                return order, found
        if refused > n:
            raise AssertionError("unreachable: the full vertex set dominates")
    raise TooLargeError(
        f"{n} vertices: searching sizes up to {refused} tests more than "
        f"2**{DEFAULT_CAP} subsets"
    )


def _covers(masks: list[int], k: int, full: int) -> list[tuple[int, ...]]:
    """Every index tuple i1 < ... < ik whose masks, each a subset of `full`,
    OR to `full`, in lexicographic order.

    The bits are renumbered by how many masks hold them, most first, so the
    highest bit still uncovered is one with the fewest holders."""
    holders: list[list[int]] = [[] for _ in range(full.bit_length())]
    for i, mask in enumerate(masks):  # one step per set bit
        while mask:
            top = mask.bit_length() - 1
            holders[top].append(i)
            mask ^= 1 << top
    ranked = sorted((held for held in holders if held), key=len, reverse=True)
    if len(ranked) < full.bit_count():
        return []  # some bit of `full` is in no mask
    renumbered = [0] * len(masks)
    for rank, held in enumerate(ranked):
        bit = 1 << rank
        for i in held:
            renumbered[i] |= bit
    found: list[tuple[int, ...]] = []
    _branch(renumbered, ranked, (1 << len(ranked)) - 1, 0, k, [], bytearray(len(masks)), found)
    found.sort()
    return found


def _branch(masks, holders, full, covered, left, chosen, banned, found) -> None:
    """Append to `found`, each sorted, the extensions of `chosen` by `left`
    (at least 1) more indices, none of them banned, whose masks OR with
    `covered` to `full`.

    Every such extension holds some holder of u, the highest bit not yet
    covered. Branching on u's holders in ascending order, each one banned
    from the branches after its own, reaches every extension exactly once."""
    uncovered = full ^ covered
    if not uncovered:  # any picks complete it; never so in a minimum-size search
        free = [i for i in range(len(masks)) if not banned[i] and i not in chosen]
        found += (tuple(sorted((*chosen, *more))) for more in combinations(free, left))
        return
    tried = []
    for i in holders[uncovered.bit_length() - 1]:
        if banned[i]:
            continue
        if left == 1:  # the last pick: no branch below it to ban i from
            if covered | masks[i] == full:
                found.append(tuple(sorted((*chosen, i))))
            continue
        chosen.append(i)
        _branch(masks, holders, full, covered | masks[i], left - 1, chosen, banned, found)
        chosen.pop()
        banned[i] = 1
        tried.append(i)
    for i in tried:
        banned[i] = 0


def oracle_count(tree: Tree, cap: int = DEFAULT_CAP) -> DominationSummary:
    """Exact (gamma, zeta) by exhaustive search; refuses trees above `cap`
    and searches that would test more than SUBSET_BUDGET subsets."""
    _, found = _minimum_sets(tree, cap)
    return DominationSummary(len(found[0]), len(found))


@dataclass(frozen=True)
class WitnessSets:
    """All minimum dominating sets, canonically ordered: each set sorted by
    label, sets sorted lexicographically."""

    gamma: int
    sets: tuple[tuple[Label, ...], ...]

    @property
    def zeta(self) -> int:
        return len(self.sets)


def enumerate_min_sets(tree: Tree, cap: int = DEFAULT_CAP) -> WitnessSets:
    """List every minimum dominating set explicitly (same limits as counting)."""
    order, found = _minimum_sets(tree, cap)
    sets = tuple(tuple(map(order.__getitem__, indices)) for indices in found)
    # Re-verify before handing sets out, against a table read from the tree
    # itself rather than from the search's masks.
    closed = {v: _closed_neighborhood(tree, v) for v in tree.labels}.__getitem__
    for witness in sets:
        if len(set().union(*map(closed, witness))) != tree.vertex_count:
            raise AssertionError(f"oracle produced a non-dominating set {witness!r}")
    return WitnessSets(len(sets[0]), sets)
