import itertools
import re
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominion import (
    DominationSummary,
    TooLargeError,
    UnknownVertexError,
    build_tree,
    enumerate_min_sets,
    is_dominating,
    leaves,
    level_labels,
    make_alternating,
    make_complete_binary,
    make_path,
    make_star,
    make_uniform_pendant,
    oracle_count,
    parse_edge_list,
    parse_family_spec,
    random_tree,
)
from dominion import oracle
from dominion.families import KINDS
from dominion.oracle import DEFAULT_CAP


class TestIsDominating:
    def test_p3_middle(self):
        tree = parse_edge_list("a b\nb c\n")
        assert is_dominating(tree, {"b"})

    def test_p3_endpoint(self):
        tree = parse_edge_list("a b\nb c\n")
        assert not is_dominating(tree, {"a"})

    def test_t3_root_plus_level2(self):
        tree = make_complete_binary(3)
        assert is_dominating(tree, {"b1"} | set(level_labels(3, 2)))

    def test_unknown_member(self):
        with pytest.raises(UnknownVertexError):
            is_dominating(parse_edge_list("a b\n"), {"zz"})

    def test_empty_set(self):
        assert not is_dominating(parse_edge_list("a b\n"), set())


class TestOracleCount:
    def test_p2(self):
        assert oracle_count(parse_edge_list("a b\n")) == DominationSummary(1, 2)

    def test_double_pendant(self):
        assert oracle_count(make_uniform_pendant(4, 2)) == DominationSummary(4, 1)

    def test_o3(self):
        assert oracle_count(make_alternating(3, "odd")) == DominationSummary(2, 3)

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            oracle_count(make_path(5), cap=4)
        assert oracle_count(make_path(5), cap=5) == DominationSummary(2, 3)

    def test_subset_budget_stops_before_an_oversized_size(self, monkeypatch):
        tried = []
        covers = oracle._covers

        def spy(masks, k, full):
            tried.append(k)
            return covers(masks, k, full)

        monkeypatch.setattr(oracle, "_covers", spy)
        with pytest.raises(TooLargeError, match="2\\*\\*24 subsets"):
            oracle_count(make_path(1000), cap=1000)
        with pytest.raises(TooLargeError):
            enumerate_min_sets(make_path(1000), cap=1000)
        # gamma >= ceil(1000 / 3) passes the refused size 3, so no size is searched.
        assert tried == []

    def test_subset_budget_stops_mid_search_when_the_degree_bound_is_low(self, monkeypatch):
        # A center with 994 leaves and a spur to two pendant paths: the degree
        # bound is 2, below the refused size 3, while gamma is 3.
        text = "".join(f"c l{i}\n" for i in range(994)) + "c y\ny p1\np1 q1\ny p2\np2 q2\n"
        tree = parse_edge_list(text)
        assert tree.vertex_count == 1000
        tried = []
        covers = oracle._covers

        def spy(masks, k, full):
            tried.append(k)
            return covers(masks, k, full)

        monkeypatch.setattr(oracle, "_covers", spy)
        with pytest.raises(TooLargeError, match="1000 vertices: searching sizes up to 3 tests"):
            oracle_count(tree, cap=2000)
        assert tried == [1, 2]

    def test_subset_budget_allows_an_early_size(self):
        # 59 vertices: C(59, 1) subsets are far inside the budget.
        assert oracle_count(make_star(59), cap=60) == DominationSummary(1, 1)
        assert enumerate_min_sets(make_star(59), cap=60).sets == (("c",),)

    def test_subset_budget_allows_every_size_within_the_default_cap(self, monkeypatch):
        tried = []
        covers = oracle._covers

        def spy(masks, k, full):  # finds nothing below k = n, so every size is searched
            tried.append(k)
            return covers(masks, k, full) if k == len(masks) else iter(())

        monkeypatch.setattr(oracle, "_covers", spy)
        assert oracle_count(make_path(DEFAULT_CAP)) == DominationSummary(DEFAULT_CAP, 1)
        assert tried == list(range(1, DEFAULT_CAP + 1))


class TestEnumerate:
    def test_p2(self):
        witnesses = enumerate_min_sets(parse_edge_list("a b\n"))
        assert witnesses.gamma == 1
        assert witnesses.sets == (("a",), ("b",))
        assert witnesses.zeta == 2

    def test_double_pendant_unique(self):
        witnesses = enumerate_min_sets(make_uniform_pendant(4, 2))
        assert witnesses.sets == (("v1", "v2", "v3", "v4"),)

    def test_e6_three_sets(self):
        witnesses = enumerate_min_sets(make_alternating(6, "even"))
        assert witnesses.gamma == 3
        assert witnesses.sets == (
            ("l4", "v2", "v6"),
            ("l6", "v2", "v4"),
            ("v2", "v4", "v6"),
        )

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            enumerate_min_sets(make_path(6), cap=5)

    def test_canonical_order(self):
        witnesses = enumerate_min_sets(make_path(5))
        assert list(witnesses.sets) == sorted(witnesses.sets)
        for members in witnesses.sets:
            assert list(members) == sorted(members)

    def test_counts_match_enumeration(self):
        for seed in range(20):
            tree = random_tree(9, seed)
            summary = oracle_count(tree)
            witnesses = enumerate_min_sets(tree)
            assert witnesses.gamma == summary.gamma
            assert witnesses.zeta == summary.zeta

    def test_every_witness_dominates_at_minimum_size(self):
        tree = make_alternating(7, "odd")
        witnesses = enumerate_min_sets(tree)
        for members in witnesses.sets:
            assert len(members) == witnesses.gamma
            assert is_dominating(tree, members)

    def test_no_smaller_dominating_set(self):
        # independent of the size-ascending search: scan gamma-1 directly
        for tree in (make_path(7), make_complete_binary(2), random_tree(8, 3)):
            gamma = oracle_count(tree).gamma
            if gamma == 1:
                continue
            smaller = itertools.combinations(sorted(tree.labels), gamma - 1)
            assert not any(is_dominating(tree, s) for s in smaller)


class TestLeafParentSwap:
    # a leaf's closed neighborhood sits inside its parent's, so swapping a
    # leaf out of a witness set for the parent must preserve domination
    @staticmethod
    def check_tree(tree):
        witnesses = enumerate_min_sets(tree)
        leaf_set = leaves(tree)
        for members in witnesses.sets:
            for leaf in members:
                if leaf not in leaf_set or tree.degree(leaf) == 0:
                    continue
                parent = tree.neighbors(leaf)[0]
                swapped = (set(members) - {leaf}) | {parent}
                assert len(swapped) == len(members)
                assert is_dominating(tree, swapped)

    def test_on_random_corpus(self):
        for n in range(2, 12):
            for seed in range(12):
                self.check_tree(random_tree(n, seed))

    def test_on_families(self):
        for tree in (
            make_uniform_pendant(5, 1),
            make_alternating(6, "even"),
            make_complete_binary(2),
            make_star(4),
        ):
            self.check_tree(tree)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**50))
@settings(max_examples=60, deadline=None)
def test_witness_sets_obey_invariants(n, seed):
    tree = random_tree(n, seed)
    witnesses = enumerate_min_sets(tree)
    assert len(set(witnesses.sets)) == witnesses.zeta
    for members in witnesses.sets:
        assert len(members) == witnesses.gamma
        assert is_dominating(tree, members)


def _reference(tree):
    """The unpruned search: OR every k-subset of closed neighborhoods, sizes
    ascending, and keep the first size that dominates."""
    order = sorted(tree.labels)
    closed = {v: {v, *tree.neighbors(v)} for v in order}
    for k in range(1, len(order) + 1):
        found = [
            combo
            for combo in itertools.combinations(order, k)
            if len(set().union(*(closed[v] for v in combo))) == len(order)
        ]
        if found:
            return k, found
    raise AssertionError("the full vertex set dominates")


def _assert_matches_reference(tree):
    gamma, sets = _reference(tree)
    assert oracle_count(tree) == DominationSummary(gamma, len(sets))
    witnesses = enumerate_min_sets(tree)
    assert witnesses.gamma == gamma
    assert list(witnesses.sets) == sets


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=2**50))
@settings(max_examples=150, deadline=None)
def test_pruned_search_matches_the_unpruned_reference(n, seed):
    _assert_matches_reference(random_tree(n, seed))


_SMALL_SPECS = ["uniform:n=3,r=2", "comb:n=6", "interior:n=7", "alt-even:n=9", "alt-odd:n=10",
                "star:m=6", "binary:h=2", "binary:h=3,delete=b8+b9+b12", "path:n=13",
                "random:n=14,seed=5"]


@pytest.mark.parametrize("spec", _SMALL_SPECS)
def test_pruned_search_matches_the_unpruned_reference_every_kind(spec):
    assert {s.partition(":")[0] for s in _SMALL_SPECS} == set(KINDS)
    _assert_matches_reference(build_tree(parse_family_spec(spec)))


def _spider(legs, length):
    """Edge list of `legs` paths of `length` edges joined at a center c."""
    return "".join(f"{f'x{a}_{j - 1}' if j else 'c'} x{a}_{j}\n" for a in range(legs) for j in range(length))


# Spiders, a double star and a binary tree less some of its leaves: the
# shapes on which the choice of branch vertex matters most.
_WEAK_SHAPES = [
    _spider(6, 2),
    _spider(4, 3),
    _spider(3, 4),
    "a b\n" + "".join(f"a p{i}\nb q{i}\n" for i in range(5)),
    "".join(f"b{k // 2} b{k}\n" for k in range(2, 16) if k not in (8, 10, 11, 14)),
]


@pytest.mark.parametrize("text", _WEAK_SHAPES)
def test_pruned_search_matches_the_unpruned_reference_weak_shapes(text):
    _assert_matches_reference(parse_edge_list(text))


def test_raised_cap_star():
    # Each mask's bits are read once, not once per vertex: the center's
    # 20001 would otherwise make this quadratic in Python steps.
    assert oracle_count(make_star(20000), cap=20001) == DominationSummary(1, 1)


@given(st.lists(st.integers(min_value=0, max_value=2**8 - 1), max_size=10),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_covers_is_the_filtered_combination_list(masks, k):
    # Any masks, not only closed neighborhoods: the cut must never drop a cover.
    full = 2**8 - 1
    want = [c for c in itertools.combinations(range(len(masks)), k)
            if reduce(or_, (masks[i] for i in c)) == full]
    assert list(oracle._covers(masks, k, full)) == want


def test_recheck_refuses_a_planted_non_dominating_set(monkeypatch):
    covers = oracle._covers

    def planted(masks, k, full):  # (0, 1) is {v1, v2} on P5, which misses v4 and v5
        found = covers(masks, k, full)
        return found + [(0, 1)] if found else found

    monkeypatch.setattr(oracle, "_covers", planted)
    with pytest.raises(AssertionError, match=re.escape("non-dominating set ('v1', 'v2')")):
        enumerate_min_sets(make_path(5))


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**50))
@settings(max_examples=25, deadline=None)
def test_recheck_agrees_with_is_dominating_on_every_subset(n, seed):
    tree = random_tree(n, seed)
    order = sorted(tree.labels)
    for k in range(n + 1):
        for indices in itertools.combinations(range(n), k):
            members = tuple(order[i] for i in indices)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_minimum_sets", lambda tree, cap: (order, [indices]))
                if is_dominating(tree, members):
                    assert enumerate_min_sets(tree).sets == (members,)
                else:
                    with pytest.raises(AssertionError, match="non-dominating"):
                        enumerate_min_sets(tree)
