"""Brute-force ground truth by size-ascending subset search.

Deliberately unclever: the subsets of size k are searched for k = 1, 2, ...
until some size admits a dominating set, and all dominating subsets of
that size are then counted (or listed). Its only virtue is obvious
correctness, which is exactly what the fast paths are validated against.

The search runs depth-first over index combinations i1 < i2 < ..., carrying
the OR of the chosen closed-neighborhood masks, and makes one cut: it drops
index i and every later one as soon as the prefix OR together with
``rest[i]``, the OR of masks i..n-1, misses a vertex. Every extension of
the prefix by indices >= i covers at most that union, so none of the
subsets cut can dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import TooLargeError, UnknownVertexError
from .tree import DominationSummary, Label, Tree

DEFAULT_CAP = 24
# Most subsets one search may test: every subset of a DEFAULT_CAP-vertex
# tree, so no tree the default cap accepts is ever refused.
SUBSET_BUDGET = 2**DEFAULT_CAP


def is_dominating(tree: Tree, subset) -> bool:
    """True iff the closed neighborhoods of `subset` cover every vertex."""
    covered: set[Label] = set()
    for v in subset:
        covered.add(v)
        covered.update(tree.neighbors(v))  # raises UnknownVertexError for bad labels
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
    tested if sizes 1..k together hold more than SUBSET_BUDGET subsets.
    """
    n = tree.vertex_count
    _check_cap(n, cap)
    order = sorted(tree.labels)
    position = {v: i for i, v in enumerate(order)}
    masks = []
    for i, v in enumerate(order):
        mask = 1 << i
        for nb in tree.neighbors(v):
            mask |= 1 << position[nb]
        masks.append(mask)
    full = (1 << n) - 1
    tested = 0
    for k in range(1, n + 1):
        tested += comb(n, k)
        if tested > SUBSET_BUDGET:
            raise TooLargeError(
                f"{n} vertices: searching sizes up to {k} tests more than "
                f"2**{DEFAULT_CAP} subsets"
            )
        found = list(_covers(masks, k, full))
        if found:
            return order, found
    raise AssertionError("unreachable: the full vertex set dominates")


def _covers(masks: list[int], k: int, full: int):
    """Yield, in lexicographic order, the index tuples i1 < ... < ik whose
    masks OR to `full`, cutting every prefix that can no longer cover."""
    n = len(masks)
    rest = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest[i] = masks[i] | rest[i + 1]
    chosen: list[int] = []

    def extend(start: int, covered: int, left: int):
        for i in range(start, n - left + 1):
            if covered | rest[i] != full:
                return
            if left == 1:
                if covered | masks[i] == full:
                    yield (*chosen, i)
            else:
                chosen.append(i)
                yield from extend(i + 1, covered | masks[i], left - 1)
                chosen.pop()

    return extend(0, 0, k)


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
    sets = tuple(tuple(order[i] for i in indices) for indices in found)
    for witness in sets:  # re-verify before handing sets out
        if not is_dominating(tree, witness):
            raise AssertionError(f"oracle produced a non-dominating set {witness!r}")
    return WitnessSets(len(sets[0]), sets)
