"""Brute-force ground truth by size-ascending subset search.

Deliberately unclever: every subset of size k is tested for k = 1, 2, ...
until some size admits a dominating set, and all dominating subsets of
that size are then counted (or listed). Its only virtue is obvious
correctness, which is exactly what the fast paths are validated against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import or_

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


def _searches(tree: Tree, cap: int):
    """Yield (k, order, masks) for the subset sizes k = 1, 2, ..., n in turn.

    Bit i of each mask stands for the i-th label of `order`, the labels in
    sorted order. Refuses a tree above `cap` before building the masks, and
    size k before any of its subsets is tested if sizes 1..k together hold
    more than SUBSET_BUDGET subsets.
    """
    n = tree.vertex_count
    if n > cap:
        raise TooLargeError(f"{n} vertices exceeds the oracle cap of {cap}")
    order = sorted(tree.labels)
    position = {v: i for i, v in enumerate(order)}
    masks = []
    for i, v in enumerate(order):
        mask = 1 << i
        for nb in tree.neighbors(v):
            mask |= 1 << position[nb]
        masks.append(mask)
    tested = 0
    for k in range(1, n + 1):
        tested += comb(n, k)
        if tested > SUBSET_BUDGET:
            raise TooLargeError(
                f"{n} vertices: searching sizes up to {k} tests more than "
                f"2**{DEFAULT_CAP} subsets"
            )
        yield k, order, masks


def oracle_count(tree: Tree, cap: int = DEFAULT_CAP) -> DominationSummary:
    """Exact (gamma, zeta) by exhaustive search; refuses trees above `cap`
    and searches that would test more than SUBSET_BUDGET subsets."""
    full = (1 << tree.vertex_count) - 1
    for k, _, masks in _searches(tree, cap):
        count = 0
        for combo in itertools.combinations(masks, k):
            if reduce(or_, combo) == full:
                count += 1
        if count:
            return DominationSummary(k, count)
    raise AssertionError("unreachable: the full vertex set dominates")


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
    n = tree.vertex_count
    full = (1 << n) - 1
    for k, order, masks in _searches(tree, cap):
        found = []
        for indices in itertools.combinations(range(n), k):
            mask = 0
            for i in indices:
                mask |= masks[i]
            if mask == full:
                found.append(tuple(order[i] for i in indices))
        if found:
            for witness in found:  # re-verify before handing sets out
                if not is_dominating(tree, witness):
                    raise AssertionError(f"oracle produced a non-dominating set {witness!r}")
            return WitnessSets(k, tuple(found))
    raise AssertionError("unreachable: the full vertex set dominates")
