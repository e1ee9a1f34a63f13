"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
Criterion 6 asserts an envelope inequality that is not actually true for
every leaf set (deleting both children of one parent can raise the count
past the claimed bound; see test_perturbation.py for a 5-vertex
counterexample verified by exhaustive search). It is implemented exactly
as stated and is expected to fail.
"""

import gc
import time
from decimal import Decimal, getcontext
from statistics import median

import pytest

from dominion import (
    alternating_summary,
    analyze_deletion,
    binary_summary,
    dp_count,
    fibonacci,
    interior_pendant_summary,
    make_alternating,
    make_complete_binary,
    make_interior_pendant,
    make_uniform_pendant,
    oracle_count,
    random_leaf_subset,
    random_tree,
    root_at,
    uniform_pendant_summary,
)

# (gamma, zeta) for the alternating combs, n = 2..10; 36 cells in all.
TABLE1 = {
    ("even", 2): (1, 1), ("even", 3): (1, 1), ("even", 4): (2, 2),
    ("even", 5): (2, 1), ("even", 6): (3, 3), ("even", 7): (3, 2),
    ("even", 8): (4, 5), ("even", 9): (4, 3), ("even", 10): (5, 8),
    ("odd", 2): (1, 1), ("odd", 3): (2, 3), ("odd", 4): (2, 2),
    ("odd", 5): (3, 5), ("odd", 6): (3, 3), ("odd", 7): (4, 8),
    ("odd", 8): (4, 5), ("odd", 9): (5, 13), ("odd", 10): (5, 8),
}


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


def test_c01_golden_table_three_way():
    start = time.perf_counter()
    bad = []
    for (parity, n), expected in TABLE1.items():
        tree = make_alternating(n, parity)
        results = {
            "closed_form": alternating_summary(n, parity),
            "dp": dp_count(tree),
            "oracle": oracle_count(tree),
        }
        for method, summary in results.items():
            if (summary.gamma, summary.zeta) != expected:
                bad.append((parity, n, method, summary))
    elapsed = time.perf_counter() - start
    report(
        1,
        "golden table, 36 cells, 3 methods",
        not bad and elapsed < 10.0,
        f"{len(bad)} bad cells, {elapsed:.2f}s",
    )


def test_c02_forcing_dichotomy():
    bad = []
    for n in range(1, 13):
        for r in (1, 2, 3):
            expected = (n, 2**n if r == 1 else 1)
            tree = make_uniform_pendant(n, r)
            got = dp_count(tree)
            if (got.gamma, got.zeta) != expected:
                bad.append((n, r, "dp", got))
            if uniform_pendant_summary(n, r) != got:
                bad.append((n, r, "closed_form", got))
            if n * (r + 1) <= 24:
                confirmed = oracle_count(tree)
                if confirmed != got:
                    bad.append((n, r, "oracle", confirmed))
    report(2, "pendant forcing dichotomy", not bad, f"{len(bad)} mismatches")


def test_c03_interior_pendants():
    bad = []
    for n in range(2, 15):
        gamma = max(1, n - 2)
        zeta = 2 if n == 2 else (1 if n == 3 else 2 ** (gamma - 2))
        tree = make_interior_pendant(n)
        got = dp_count(tree)
        if (got.gamma, got.zeta) != (gamma, zeta):
            bad.append((n, "dp", got))
        if interior_pendant_summary(n) != got:
            bad.append((n, "closed_form", got))
        if 2 * n - 2 <= 24:
            confirmed = oracle_count(tree)
            if confirmed != got:
                bad.append((n, "oracle", confirmed))
    report(3, "interior pendant case split", not bad, f"{len(bad)} mismatches")


def test_c04_binary_tree_law():
    bad = []
    t14 = None
    for h in range(1, 15):
        gamma = (2 ** (h + 2) + 3) // 7
        zeta = 3 if h >= 3 and h % 3 == 0 else 1
        rooted = root_at(make_complete_binary(h), "b1")
        start = time.perf_counter()
        got = dp_count(rooted)
        elapsed = time.perf_counter() - start
        if h == 14:
            t14 = elapsed
        if (got.gamma, got.zeta) != (gamma, zeta):
            bad.append((h, got))
    report(
        4,
        "binary gamma formula and period-3 law, h=1..14",
        not bad and t14 < 1.0,
        f"{len(bad)} mismatches, T_14 dp {t14:.3f}s",
    )


def test_c05_single_leaf_doubling():
    bad = []
    for h in range(2, 9):
        before = binary_summary(h)
        for k in range(1 << h, 1 << (h + 1)):
            rep = analyze_deletion(h, {f"b{k}"})
            if rep.gamma_after != before.gamma or rep.zeta_after != 2 * before.zeta:
                bad.append((h, k, rep))
    report(5, "single-leaf deletion doubles the count, h=2..8", not bad,
           f"{len(bad)} violations over 508 leaves")


def test_c06_envelope_bound_random_deletions():
    violations = []
    total = 0
    for h in range(2, 9):
        sizes = sorted({s for s in (1, 2, 4, 2 ** (h - 1)) if s < 1 << h})
        for trial in range(100):
            size = sizes[trial % len(sizes)]
            deleted = random_leaf_subset(h, size, seed=h * 1000 + trial)
            rep = analyze_deletion(h, deleted)
            total += 1
            if not rep.bound_holds:
                violations.append((h, sorted(deleted), rep.zeta_after, rep.envelope))
    sample = "; ".join(
        f"h={h} X={'+'.join(x)} zeta_after={za} envelope={env}"
        for h, x, za, env in violations[:3]
    )
    report(
        6,
        "2^m1 envelope over seeded random deletions",
        not violations,
        f"{len(violations)}/{total} violations, e.g. {sample}" if violations else f"{total} cases",
    )


def test_c07_oracle_equivalence_corpus():
    start = time.perf_counter()
    bad = 0
    for n in range(1, 19):
        for seed in range(200):
            tree = random_tree(n, seed)
            if dp_count(tree) != oracle_count(tree):
                bad += 1
    elapsed = time.perf_counter() - start
    report(
        7,
        "dp equals oracle on 3600 random trees",
        bad == 0 and elapsed < 300.0,
        f"{bad} mismatches, {elapsed:.1f}s",
    )


def test_c08_linear_time_scaling():
    # The sizes are timed back to back, five rounds of h = 18, 19, 20, and
    # the ratios are taken within each round, where the machine's speed is
    # the same for every size; the gate is on the median round.
    trees = {h: make_complete_binary(h) for h in (18, 19, 20)}
    runs = {h: [] for h in trees}
    for _ in range(5):
        for h, tree in trees.items():
            runs[h].append(_timed_dp(tree))
    del trees
    gc.collect()
    timings = {h: min(times) for h, times in runs.items()}
    r19 = median(b / a for a, b in zip(runs[18], runs[19]))
    r20 = median(b / a for a, b in zip(runs[19], runs[20]))
    ok = timings[20] <= 5.0 and r19 <= 2.5 and r20 <= 2.5
    report(
        8,
        "dp scales linearly up to 2.1M vertices",
        ok,
        f"t18={timings[18]:.2f}s t19={timings[19]:.2f}s t20={timings[20]:.2f}s "
        f"ratios {r19:.2f},{r20:.2f}",
    )


def _timed_dp(tree):
    start = time.perf_counter()
    dp_count(tree)
    return time.perf_counter() - start


def test_c09_golden_ratio_asymptotics():
    getcontext().prec = 60  # ~200-bit mantissa, far beyond the 64 bits required
    phi = (1 + Decimal(5).sqrt()) / 2
    tolerance = Decimal("1e-10")
    bad = []
    for k in range(30, 91):
        ratio = Decimal(fibonacci(k + 1)) / Decimal(fibonacci(k))
        if abs(ratio - phi) > tolerance:
            bad.append(("fib", k, ratio))
        zeta_ratio = Decimal(alternating_summary(2 * k, "even").zeta) / Decimal(
            alternating_summary(2 * k - 2, "even").zeta
        )
        if abs(zeta_ratio - phi) > tolerance:
            bad.append(("zeta", k, zeta_ratio))
    report(9, "count ratios converge to the golden ratio", not bad,
           f"{len(bad)} out-of-tolerance ratios")


def test_c10_big_count_exactness():
    summary = dp_count(make_uniform_pendant(70, 1))
    independent = str(1 << 70)  # shift, not the dp path
    ok = str(summary.zeta) == independent and summary.gamma == 70
    report(10, "71-bit count is exact through the dp", ok,
           f"zeta={summary.zeta}")
