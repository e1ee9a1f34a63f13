import time

import pytest

from dominion import (
    DominationSummary,
    InvalidParameterError,
    NoClosedFormError,
    TooLargeError,
    alternating_summary,
    binary_summary,
    dp_count,
    fibonacci,
    interior_pendant_summary,
    make_alternating,
    make_complete_binary,
    make_interior_pendant,
    make_path,
    make_uniform_pendant,
    parse_family_spec,
    root_summary,
    star_summary,
    summary_for,
    uniform_pendant_summary,
)
from dominion.families import FAMILIES

# Golden values for the alternating combs, n = 2..10: (gamma, zeta) per n.
EVEN_GOLDEN = {
    2: (1, 1), 3: (1, 1), 4: (2, 2), 5: (2, 1), 6: (3, 3),
    7: (3, 2), 8: (4, 5), 9: (4, 3), 10: (5, 8),
}
ODD_GOLDEN = {
    2: (1, 1), 3: (2, 3), 4: (2, 2), 5: (3, 5), 6: (3, 3),
    7: (4, 8), 8: (4, 5), 9: (5, 13), 10: (5, 8),
}


class TestFibonacci:
    def test_base_and_small(self):
        assert [fibonacci(t) for t in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_spec_values(self):
        assert fibonacci(4) == 3
        assert fibonacci(7) == 13
        assert fibonacci(2) == 1

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            fibonacci(0)

    def test_cassini_identity(self):
        # independent algebraic check of the recurrence implementation
        for t in range(2, 61):
            assert fibonacci(t + 1) * fibonacci(t - 1) - fibonacci(t) ** 2 == (-1) ** t

    def test_large_index_exact(self):
        assert fibonacci(300) == (
            222232244629420445529739893461909967206666939096499764990979600
        )

    @staticmethod
    def _by_recurrence(stop):
        a, b = 1, 1
        for _ in range(1, stop):
            yield a
            a, b = b, a + b

    def test_fast_doubling_matches_the_recurrence(self):
        assert [fibonacci(t) for t in range(1, 2000)] == list(self._by_recurrence(2000))

    def test_fast_doubling_at_a_large_index(self):
        *_, last = self._by_recurrence(150_002)
        assert fibonacci(150_001) == last


class TestUniformPendant:
    def test_comb(self):
        assert uniform_pendant_summary(4, 1) == DominationSummary(4, 16)

    def test_double(self):
        assert uniform_pendant_summary(4, 2) == DominationSummary(4, 1)

    def test_big_count(self):
        assert uniform_pendant_summary(70, 1) == DominationSummary(70, 2**70)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            uniform_pendant_summary(0, 1)


class TestStar:
    @pytest.mark.parametrize("m,expected", [(1, (1, 2)), (2, (1, 1)), (9, (1, 1))])
    def test_values(self, m, expected):
        assert star_summary(m) == DominationSummary(*expected)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            star_summary(0)


class TestInteriorPendant:
    @pytest.mark.parametrize("n,expected", [(2, (1, 2)), (3, (1, 1)), (6, (4, 4))])
    def test_values(self, n, expected):
        assert interior_pendant_summary(n) == DominationSummary(*expected)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            interior_pendant_summary(1)


class TestAlternating:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_even_golden(self, n):
        assert alternating_summary(n, "even") == DominationSummary(*EVEN_GOLDEN[n])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_odd_golden(self, n):
        assert alternating_summary(n, "odd") == DominationSummary(*ODD_GOLDEN[n])

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            alternating_summary(1, "even")
        with pytest.raises(InvalidParameterError):
            alternating_summary(5, "sideways")


class TestBinary:
    @pytest.mark.parametrize("h,expected", [(1, (1, 1)), (2, (2, 1)), (3, (5, 3)), (6, (37, 3))])
    def test_values(self, h, expected):
        assert binary_summary(h) == DominationSummary(*expected)

    def test_period_three(self):
        assert [binary_summary(h).zeta for h in range(1, 13)] == [
            1, 1, 3, 1, 1, 3, 1, 1, 3, 1, 1, 3,
        ]

    def test_gamma_never_overflows(self):
        # 2^(h+2) far beyond machine words must stay exact
        assert binary_summary(200).gamma == (2**202 + 3) // 7

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            binary_summary(0)


class TestSummaryFor:
    def test_dispatch(self):
        assert summary_for(parse_family_spec("uniform:n=4,r=1")) == DominationSummary(4, 16)
        assert summary_for(parse_family_spec("comb:n=4")) == DominationSummary(4, 16)
        assert summary_for(parse_family_spec("star:m=1")) == DominationSummary(1, 2)
        assert summary_for(parse_family_spec("interior:n=6")) == DominationSummary(4, 4)
        assert summary_for(parse_family_spec("alt-even:n=6")) == DominationSummary(3, 3)
        assert summary_for(parse_family_spec("alt-odd:n=9")) == DominationSummary(5, 13)
        assert summary_for(parse_family_spec("binary:h=3")) == DominationSummary(5, 3)

    def test_path_uses_dp_for_zeta(self):
        # counts computed exhaustively before freezing
        assert summary_for(parse_family_spec("path:n=5")) == DominationSummary(2, 3)
        assert summary_for(parse_family_spec("path:n=7")) == DominationSummary(3, 8)

    def test_no_closed_form(self):
        with pytest.raises(NoClosedFormError):
            summary_for(parse_family_spec("binary:h=3,delete=b8"))
        with pytest.raises(NoClosedFormError):
            summary_for(parse_family_spec("random:n=12,seed=42"))


class TestBudgets:
    """The closed forms refuse, before forming it, a count that the spine fold
    would refuse, and a binary height past the height limit."""

    @pytest.mark.parametrize("call,message", [
        (lambda: summary_for(parse_family_spec("comb:n=100000000000")), "4194304 bits"),
        (lambda: summary_for(parse_family_spec("uniform:n=100000000000,r=1")), "4194304 bits"),
        (lambda: summary_for(parse_family_spec("interior:n=100000000000")), "4194304 bits"),
        (lambda: summary_for(parse_family_spec("alt-even:n=100000000000")), "4194304 bits"),
        (lambda: summary_for(parse_family_spec("alt-odd:n=100000000000")), "4194304 bits"),
        (lambda: summary_for(parse_family_spec("binary:h=300000")), "height 300000 is more than the limit of 262144"),
        (lambda: uniform_pendant_summary(10**11, 1), "4194304 bits"),
        (lambda: interior_pendant_summary(10**11), "4194304 bits"),
        (lambda: alternating_summary(10**11, "odd"), "4194304 bits"),
        (lambda: fibonacci(10**11), "4194304 bits"),
        (lambda: binary_summary(10**11), "height 100000000000 is more than the limit of 262144"),
    ])
    def test_refused_at_once(self, call, message):
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match=message):
            call()
        assert time.perf_counter() - start < 1.0

    def test_small_counts_of_huge_trees_answer(self):
        assert uniform_pendant_summary(10**11, 2) == DominationSummary(10**11, 1)
        assert star_summary(10**12) == DominationSummary(1, 1)

    @pytest.mark.parametrize("kind", ["comb", "uniform", "interior", "alt-even", "alt-odd"])
    def test_every_spec_the_fold_answers_has_its_closed_form(self, monkeypatch, kind):
        # Near a budget of 64 bits, n = 2..239 crosses the fold's last answer
        # for every kind; the closed form may refuse only what the fold refuses.
        from dominion import dp

        monkeypatch.setattr(dp, "_MAX_COUNT_BITS", 64)
        verdicts = set()
        for n in range(2, 240):
            spec = parse_family_spec(f"{kind}:n={n}" + (",r=1" if kind == "uniform" else ""))
            try:
                folded = root_summary(FAMILIES[kind].fold(spec))
            except TooLargeError:
                folded = None
            try:
                closed = summary_for(spec)
            except TooLargeError:
                closed = None
            assert folded is None or closed == folded, spec
            verdicts.add((folded is not None, closed is not None))
        assert verdicts >= {(True, True), (False, False)}


class TestFormulasAgainstDp:
    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_uniform(self, n, r):
        assert uniform_pendant_summary(n, r) == dp_count(make_uniform_pendant(n, r))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_interior(self, n):
        assert interior_pendant_summary(n) == dp_count(make_interior_pendant(n))

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_alternating(self, n, parity):
        assert alternating_summary(n, parity) == dp_count(make_alternating(n, parity))

    @pytest.mark.parametrize("h", range(1, 11))
    def test_binary(self, h):
        assert binary_summary(h) == dp_count(make_complete_binary(h))

    @pytest.mark.parametrize("n", range(1, 31))
    def test_path_gamma_formula(self, n):
        assert dp_count(make_path(n)).gamma == (n + 2) // 3
