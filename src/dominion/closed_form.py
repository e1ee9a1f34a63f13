"""Closed-form evaluators for the domination number and dominion of each
generated family, in exact integer arithmetic.

Counts routinely exceed 64 bits (the full comb on n hosts has 2^n minimum
dominating sets), so everything here stays in Python ints. No tree is
built: a gamma-only closed form takes zeta from the kind's fold.
"""

from __future__ import annotations

from .dp import _check_count_bits, root_summary
from .errors import InvalidParameterError, NoClosedFormError
from .families import FAMILIES, FamilySpec, _check_height
from .tree import DominationSummary


def _check_count(bits: int) -> None:
    """Refuse a count of at least `bits` bits if the spine fold would refuse it
    too. A fold's count is a sum of at most six products within
    `dp._MAX_COUNT_BITS` (three in a matrix row, two at the root), so it has
    at most 3 bits more."""
    _check_count_bits(bits - 3)


def fibonacci(t: int) -> int:
    """F_t with F_1 = F_2 = 1, by fast doubling in O(log t) products:
    F(2k) = F(k)(2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2."""
    if t < 1:
        raise InvalidParameterError("Fibonacci index must be >= 1")
    _check_count(6942 * (t - 2) // 10000 + 1)  # F_t >= phi^(t-2), and log2(phi) > 0.6942
    a, b = 0, 1  # F(k), F(k+1), for k the leading bits of t read so far
    for bit in f"{t:b}":
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def uniform_pendant_summary(n: int, r: int) -> DominationSummary:
    """Paths with r pendants per host: gamma = n; a single pendant leaves a
    free two-way choice per host (zeta = 2^n), two or more force the hosts
    themselves (zeta = 1)."""
    if n < 1 or r < 1:
        raise InvalidParameterError("uniform pendant tree needs n >= 1 and r >= 1")
    _check_count(n + 1 if r == 1 else 1)
    return DominationSummary(n, 2**n if r == 1 else 1)


def star_summary(m: int) -> DominationSummary:
    """Stars: gamma = 1; only the two-vertex star has two optima."""
    if m < 1:
        raise InvalidParameterError("star needs m >= 1")
    return DominationSummary(1, 2 if m == 1 else 1)


def interior_pendant_summary(n: int) -> DominationSummary:
    """Interior pendants: gamma = max(1, n - 2); the two boundary hosts are
    forced, leaving 2^(gamma - 2) choices for n >= 4."""
    if n < 2:
        raise InvalidParameterError("interior pendant tree needs n >= 2")
    gamma = max(1, n - 2)
    if n == 2:
        zeta = 2
    elif n == 3:
        zeta = 1
    else:
        _check_count(gamma - 1)
        zeta = 2 ** (gamma - 2)
    return DominationSummary(gamma, zeta)


def alternating_summary(n: int, parity: str) -> DominationSummary:
    """Alternating combs: coupled per-cluster choices make the count a
    Fibonacci number whose index depends on n's parity and the attachment
    side."""
    if n < 2:
        raise InvalidParameterError("alternating comb needs n >= 2")
    if parity not in ("even", "odd"):
        raise InvalidParameterError(f"parity must be 'even' or 'odd', got {parity!r}")
    k = n // 2
    if parity == "even":
        gamma = k
        zeta = fibonacci(k + 1) if n % 2 == 0 else fibonacci(k)
    else:
        gamma = (n + 1) // 2
        zeta = fibonacci(k + 1) if n % 2 == 0 else fibonacci(k + 3)
    return DominationSummary(gamma, zeta)


def binary_summary(h: int) -> DominationSummary:
    """Complete binary trees: gamma = floor((2^(h+2) + 3) / 7) in exact
    arithmetic; zeta is periodic in h with period 3 (3 when h is a positive
    multiple of 3 at least 3, otherwise 1)."""
    if h < 1:
        raise InvalidParameterError("complete binary tree needs h >= 1")
    _check_height(h)
    gamma = (2 ** (h + 2) + 3) // 7
    zeta = 3 if h >= 3 and h % 3 == 0 else 1
    return DominationSummary(gamma, zeta)


# Closed forms by family kind. A kind missing from both tables has no closed
# form; bare paths have one for gamma = ceil(n/3) only.
FORMULAS = {
    "uniform": lambda s: uniform_pendant_summary(s.n, s.r),
    "comb": lambda s: uniform_pendant_summary(s.n, 1),
    "interior": lambda s: interior_pendant_summary(s.n),
    "alt-even": lambda s: alternating_summary(s.n, "even"),
    "alt-odd": lambda s: alternating_summary(s.n, "odd"),
    "star": lambda s: star_summary(s.m),
    "binary": lambda s: binary_summary(s.h),
}
GAMMA_FORMULAS = {"path": lambda s: (s.n + 2) // 3}


def summary_for(spec: FamilySpec) -> DominationSummary:
    """The closed form matching `spec`.

    A kind whose closed form gives gamma only (bare paths) takes its count
    from its `FAMILIES` fold, with no tree built. Random trees and binary
    trees with deleted leaves have no closed form at all.
    """
    if spec.deleted_leaves:
        raise NoClosedFormError("perturbed binary trees have no closed form")
    if spec.kind in FORMULAS:
        return FORMULAS[spec.kind](spec)
    if spec.kind in GAMMA_FORMULAS:
        zeta = root_summary(FAMILIES[spec.kind].fold(spec)).zeta
        return DominationSummary(GAMMA_FORMULAS[spec.kind](spec), zeta)
    raise NoClosedFormError(f"{spec.kind} trees have no closed form")
