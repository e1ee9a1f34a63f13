"""Leaf-deletion stability reports for complete binary trees.

For a set X of bottom-level leaves, the report compares (gamma, zeta)
before and after deletion against the envelope 2^(m1) * zeta_before, where
m1 counts the level-(h-1) parents losing exactly one child. The
after-values always come from the dynamic program, never from a formula:
the envelope is a claimed inequality, not an equality, and `bound_holds`
records honestly whether it was satisfied.

No tree is built. Every untouched vertex on one level of the complete binary
tree has the same dynamic-programming state, so a report combines h states
for the intact levels and recombines only the ancestors of X: O(|X| * h)
combines instead of a fold over all 2^(h+1) - 1 vertices.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import families
from .closed_form import binary_summary
from .dp import _deletion_state, root_summary
from .errors import InvalidParameterError, TooLargeError
from .rng import SplitMix64

# The most leaves one `perturb` run lists (--all-single-leaves) or draws
# (--random-size): the 2^16 single-leaf reports at h = 16 take ~3 s and
# ~70 MB, and every further height doubles both.
_MAX_LEAVES = 1 << 16


@dataclass(frozen=True)
class LeafDeletionReport:
    """Outcome of deleting the leaf set X from the height-h complete binary
    tree. `envelope` is 2^m1 * zeta_before; `bound_holds` is the recorded
    comparison zeta_after <= envelope."""

    h: int
    deleted: frozenset[str]
    m1: int
    gamma_before: int
    gamma_after: int
    zeta_before: int
    zeta_after: int
    envelope: int
    bound_holds: bool


def m1_of(h: int, deleted) -> int:
    """Number of level-(h-1) parents with exactly one child in `deleted`."""
    if h < 1:
        raise InvalidParameterError("height must be >= 1")
    return list(families._hits(h, set(deleted)).values()).count(1)


def analyze_deletion(h: int, deleted) -> LeafDeletionReport:
    """Full before/after report for deleting `deleted` (a proper subset of
    the bottom level, possibly empty) from the height-h tree. Its labels are
    checked as a spec's ``delete=`` is, then the height, then the subset."""
    if h < 2:
        raise InvalidParameterError("leaf-deletion analysis needs h >= 2")
    deleted = frozenset(deleted)
    hits = families._hits(h, deleted)
    families._check_height(h)
    if len(deleted) == 1 << h:
        raise InvalidParameterError("cannot delete the entire bottom level")
    m1 = list(hits.values()).count(1)
    before = binary_summary(h)
    after = root_summary(_deletion_state(h, hits))
    envelope = (1 << m1) * before.zeta
    return LeafDeletionReport(
        h=h,
        deleted=deleted,
        m1=m1,
        gamma_before=before.gamma,
        gamma_after=after.gamma,
        zeta_before=before.zeta,
        zeta_after=after.zeta,
        envelope=envelope,
        bound_holds=after.zeta <= envelope,
    )


def _single_leaves(h: int) -> list[str]:
    """The bottom-level leaves, each deleted alone by `perturb --all-single-leaves`
    and `single_leaf_doubling_check`; the height and count are checked first."""
    families._check_height(h)
    if h >= _MAX_LEAVES.bit_length():  # 2^h leaves, compared without building 2^h
        raise TooLargeError(f"--all-single-leaves at height {h} lists 2^{h} leaves, "
                            f"more than the limit of {_MAX_LEAVES}")
    return families.level_labels(h, h)


def single_leaf_doubling_check(h: int) -> bool:
    """True iff deleting any single bottom-level leaf preserves gamma and
    exactly doubles zeta; the leaves are those `perturb --all-single-leaves`
    lists, under its height and leaf limits."""
    if h < 2:
        raise InvalidParameterError("doubling check needs h >= 2")
    before = binary_summary(h)
    for leaf in _single_leaves(h):
        report = analyze_deletion(h, {leaf})
        if report.gamma_after != before.gamma or report.zeta_after != 2 * before.zeta:
            return False
    return True


def random_leaf_subset(h: int, size: int, seed: int) -> frozenset[str]:
    """Seeded uniformly random proper subset of the bottom level, of at most
    `_MAX_LEAVES` leaves, drawn with the same generator as `random_tree` for
    reproducible manifests."""
    if h < 1:
        raise InvalidParameterError("height must be >= 1")
    families._check_height(h)
    if not 0 <= size < 1 << h:
        raise InvalidParameterError(f"subset size must be in [0, {(1 << h) - 1}] for height {h}")
    if size > _MAX_LEAVES:
        raise TooLargeError(f"a random leaf set of {size} leaves is more than the limit of {_MAX_LEAVES}")
    # The largest label, 2^(h+1) - 1, passes str()'s digit limit (0: none) iff
    # 2^(h+1) > 10^limit, which needs h >= 3 * limit: 10^limit is formed only then.
    limit = sys.get_int_max_str_digits()
    if size and limit and h >= 3 * limit and 2 << h > 10**limit:
        raise TooLargeError(f"level-{h} leaf labels have more than {limit} digits, the int-to-str limit")
    rng = SplitMix64(seed)
    return frozenset(f"b{k}" for k in rng.sample(range(1 << h, 2 << h), size))
