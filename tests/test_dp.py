from itertools import permutations, product
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominion import (
    DominationSummary,
    build_tree,
    dp_count,
    make_alternating,
    make_complete_binary,
    make_path,
    make_star,
    make_uniform_pendant,
    oracle_count,
    parse_edge_list,
    parse_family_spec,
    random_tree,
    root_at,
    root_summary,
)
from dominion.families import FAMILIES, KINDS


class TestKnownValues:
    def test_single_vertex(self):
        assert dp_count(parse_edge_list("vertices: a\n")) == DominationSummary(1, 1)

    def test_p2(self):
        assert dp_count(parse_edge_list("a b\n")) == DominationSummary(1, 2)

    def test_comb_g4(self):
        assert dp_count(make_uniform_pendant(4, 1)) == DominationSummary(4, 16)

    def test_t3(self):
        assert dp_count(make_complete_binary(3)) == DominationSummary(5, 3)

    def test_e6(self):
        assert dp_count(make_alternating(6, "even")) == DominationSummary(3, 3)

    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1)), (2, (1, 2)), (3, (1, 1)), (4, (2, 4)), (5, (2, 3)), (6, (2, 1)),
         (7, (3, 8)), (10, (4, 13))],
    )
    def test_paths(self, n, expected):
        # expected counts computed exhaustively before freezing
        assert dp_count(make_path(n)) == DominationSummary(*expected)

    def test_star_center_vs_leaf_root(self):
        star = make_star(4)
        assert dp_count(root_at(star, "c")) == DominationSummary(1, 1)
        assert dp_count(root_at(star, "u3")) == DominationSummary(1, 1)


class TestRootSummary:
    def test_single_vertex_state(self):
        state = (1, 1, inf, 0, 0, 1)
        assert root_summary(state) == DominationSummary(1, 1)

    def test_leaf_state_values(self):
        from dominion.dp import _root_state

        state = _root_state(root_at(parse_edge_list("vertices: a\n"), "a"))
        assert state == (1, 1, inf, 0, 0, 1)

    def test_p2_state_ties(self):
        state = (1, 1, 1, 1, inf, 0)
        assert root_summary(state) == DominationSummary(1, 2)

    def test_k12_center_state(self):
        state = (1, 1, 2, 1, inf, 0)
        assert root_summary(state) == DominationSummary(1, 1)

    def test_needy_is_excluded(self):
        state = (3, 4, 3, 2, 1, 9)
        assert root_summary(state) == DominationSummary(3, 6)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_random_corpus(self, n):
        for seed in range(30):
            tree = random_tree(n, seed)
            assert dp_count(tree) == oracle_count(tree), f"n={n} seed={seed}"

    def test_families(self):
        tree_cases = [
            make_uniform_pendant(3, 2),
            make_uniform_pendant(6, 1),
            make_alternating(7, "odd"),
            make_alternating(8, "even"),
            make_star(7),
            make_complete_binary(3),
            make_path(12),
        ]
        for tree in tree_cases:
            assert dp_count(tree) == oracle_count(tree)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=80, deadline=None)
    def test_random_property(self, n, seed):
        tree = random_tree(n, seed)
        assert dp_count(tree) == oracle_count(tree)


class TestRootInvariance:
    def test_fifty_random_trees_every_root(self):
        done = 0
        seed = 0
        while done < 50:
            n = 1 + (seed * 7919) % 15  # sizes 1..15, deterministic spread
            tree = random_tree(n, seed)
            results = {dp_count(root_at(tree, root)) for root in tree.labels}
            assert len(results) == 1, f"root choice changed the answer: n={n} seed={seed}"
            done += 1
            seed += 1


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32),
       st.data())
@settings(max_examples=80, deadline=None)
def test_validation_fold_matches_any_rooting_random(n, seed, data):
    # dp_count(Tree) folds the leaf peel that validation recorded, which ends
    # at the first label; rooting anywhere else and folding that must agree.
    tree = random_tree(n, seed)
    root = data.draw(st.sampled_from(tree.labels))
    assert dp_count(tree) == dp_count(root_at(tree, root))


_PARAM_RANGES = {"n": (0, 12), "r": (1, 3), "m": (1, 8), "h": (1, 5), "seed": (0, 2**32)}


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_validation_fold_matches_any_rooting_every_kind(kind, data):
    params = []
    for p in FAMILIES[kind].params:
        low, high = _PARAM_RANGES[p]
        if p == "n":
            low, high = FAMILIES[kind].min_n, FAMILIES[kind].min_n + high
        params.append(f"{p}={data.draw(st.integers(low, high))}")
    tree = build_tree(parse_family_spec(f"{kind}:{','.join(params)}"))
    root = data.draw(st.sampled_from(tree.labels))
    assert dp_count(tree) == dp_count(root_at(tree, root))


def _brute_force_states(tree, root):
    """(size, count) of the three root classes over every vertex subset D:
    selected (root in D, all dominated), dominated (root not in D, some
    child in D, all dominated), needy (root and its children not in D,
    every vertex but the root dominated)."""
    index = {v: i for i, v in enumerate(tree.labels)}
    n = len(index)
    closed = [1 << i for i in range(n)]
    for u, v in tree.edges:
        closed[index[u]] |= 1 << index[v]
        closed[index[v]] |= 1 << index[u]
    full = (1 << n) - 1
    r = 1 << index[root]
    children = sum(1 << index[c] for c in tree.neighbors(root))
    best = {"selected": (inf, 0), "dominated": (inf, 0), "needy": (inf, 0)}
    covered = [0] * (1 << n)  # covered[D] = union of closed neighbourhoods
    for subset in range(1, 1 << n):
        low = subset & -subset
        covered[subset] = covered[subset ^ low] | closed[low.bit_length() - 1]
    for subset in range(1 << n):
        if subset & r:
            state, target = "selected", full
        elif subset & children:
            state, target = "dominated", full
        else:
            state, target = "needy", full & ~r
        if covered[subset] == target:
            size, count = best[state]
            k = subset.bit_count()
            if k < size:
                best[state] = (k, 1)
            elif k == size:
                best[state] = (k, count + 1)
    return (*best["selected"], *best["dominated"], *best["needy"])


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_every_state_matches_brute_force_at_every_root(n, seed):
    from dominion.dp import _root_state

    tree = random_tree(n, seed)
    for root in tree.labels:
        assert _root_state(root_at(tree, root)) == _brute_force_states(tree, root), root


def _vertex_states(tree):
    """Every vertex's state, the root's last, from one `combine` call per
    vertex on all of its children, taken along the leaf peel."""
    from dominion.dp import combine

    below = [[] for _ in range(tree.vertex_count)]  # each vertex's children's states
    states = []
    for c, p in zip(*tree._order):  # c comes after all of its own children
        states.append(combine(below[c]))
        below[p].append(states[-1])
    states.append(combine(below[0]))
    return states


def _fold_with_combine(tree):
    """The root state from one `combine` call per vertex on all of its children."""
    return _vertex_states(tree)[-1]


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_combine_matches_the_inline_fold(n, seed):
    from dominion.dp import _root_state

    tree = random_tree(n, seed)
    assert _fold_with_combine(tree) == _root_state(tree)


_SPECS = ["uniform:n=4,r=2", "comb:n=7", "interior:n=6", "alt-even:n=9", "alt-odd:n=8", "star:m=5",
          "binary:h=4", "binary:h=4,delete=b16+b17+b20+b31", "path:n=11", "random:n=30,seed=5"]


@pytest.mark.parametrize("spec", _SPECS)
def test_combine_matches_the_inline_fold_every_kind(spec):
    from dominion.dp import _root_state

    assert {s.partition(":")[0] for s in _SPECS} == set(KINDS)
    tree = build_tree(parse_family_spec(spec))
    assert _fold_with_combine(tree) == _root_state(tree)


def test_every_kind_folds_from_its_spec():
    assert all(callable(FAMILIES[kind].fold) and callable(FAMILIES[kind].size) for kind in KINDS)


def _assert_fold_matches_the_built_tree(text):
    from dominion.dp import _root_state

    spec = parse_family_spec(text)
    tree = build_tree(spec)
    if spec.kind == "random":  # folded at n{N}, where the Prüfer decoding ends
        tree = root_at(tree, f"n{spec.n}")
    family = FAMILIES[spec.kind]
    assert (family.size(spec), family.fold(spec)) == (tree.vertex_count, _root_state(tree)), text


@pytest.mark.parametrize("kind", KINDS)
def test_the_spec_fold_matches_the_built_tree_fold_small(kind):
    # Every small parameter: 6-tuples and vertex counts equal exactly.
    ranges = {"n": range(FAMILIES[kind].min_n, 41 if kind == "random" else 16), "r": range(1, 4),
              "m": range(1, 11), "h": range(1, 8), "seed": range(6)}
    params = FAMILIES[kind].params
    for values in product(*(ranges[p] for p in params)):
        _assert_fold_matches_the_built_tree(f"{kind}:" + ",".join(f"{p}={v}" for p, v in zip(params, values)))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_the_spec_fold_matches_the_built_tree_fold(kind, data):
    ranges = {"n": (FAMILIES[kind].min_n, 300), "r": (1, 5), "m": (1, 300), "h": (1, 8), "seed": (0, 2**64 - 1)}
    text = f"{kind}:" + ",".join(f"{p}={data.draw(st.integers(*ranges[p]))}" for p in FAMILIES[kind].params)
    if kind == "binary":  # any set of bottom-level leaves, the whole level included
        h = parse_family_spec(text).h
        deleted = data.draw(st.sets(st.integers(1 << h, (2 << h) - 1)))
        if deleted:
            text += ",delete=" + "+".join(f"b{k}" for k in deleted)
    _assert_fold_matches_the_built_tree(text)


def _assert_one_combine_per_edge(monkeypatch, tree):
    # The edge fold hands each parent its children one call at a time, so a
    # parent gets one call per child, and a leaf none.
    from dominion import dp

    arities = []
    combine = dp.combine

    def spy(children, state):
        arities.append(len(children))
        return combine(children, state)

    expected = dp._root_state(tree)
    monkeypatch.setattr(dp, "combine", spy)
    assert dp._root_state(tree) == expected
    assert arities == [1] * (tree.vertex_count - 1)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_the_fold_calls_combine_once_per_parent(n, seed):
    # Once per (parent, child) edge: the name is kept from the stack fold,
    # which made one call per parent.
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_one_combine_per_edge(monkeypatch, random_tree(n, seed))


@pytest.mark.parametrize("spec", _SPECS)
def test_the_fold_calls_combine_once_per_parent_every_kind(monkeypatch, spec):
    _assert_one_combine_per_edge(monkeypatch, build_tree(parse_family_spec(spec)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_combine_is_symmetric_in_its_children(data):
    from dominion.dp import combine

    n = data.draw(st.integers(min_value=1, max_value=40))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    spec = data.draw(st.sampled_from(_SPECS))
    pool = _vertex_states(random_tree(n, seed)) + _vertex_states(build_tree(parse_family_spec(spec)))
    children = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    assert {combine(list(order)) for order in permutations(children)} == {combine(children)}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_combine_continues_from_a_running_state(data):
    # combine's running state after A is itself a state: combine(A + B) == combine(B, combine(A)).
    from dominion.dp import combine

    n = data.draw(st.integers(min_value=1, max_value=40))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    spec = data.draw(st.sampled_from(_SPECS))
    pool = _vertex_states(random_tree(n, seed)) + _vertex_states(build_tree(parse_family_spec(spec)))
    a = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    b = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    assert combine(a + b) == combine(b, combine(a))


def test_combine_of_no_children_is_the_leaf_state():
    from dominion.dp import combine

    assert combine(()) == (1, 1, inf, 0, 0, 1)


class TestScaling:
    def test_big_count_through_dp(self):
        assert dp_count(make_uniform_pendant(70, 1)).zeta == 2**70

    def test_deep_path_no_recursion_limit(self):
        # path-like input much deeper than the interpreter recursion limit
        assert dp_count(make_path(30000)).gamma == 10000


def _spine_one_vertex_at_a_time(n, hosts, pendants):
    """The spine fold as one `combine` per path vertex, from vn up to v1:
    the reference for `dp._spine_state`'s matrix powers."""
    from dominion.dp import _LEAF_STATE, combine

    leaves = (_LEAF_STATE,) * pendants
    state = combine(leaves if n - 1 in hosts else ())
    for i in range(n - 2, -1, -1):
        state = combine((*leaves, state) if i in hosts else (state,))
    return state


def _exact(state):
    # 5 == 5.0, so a float size would pass a plain tuple comparison
    return state, [type(x) for x in state]


class TestSpineFold:
    """`dp._spine_state` takes the spine as semiring matrix powers."""

    @given(n=st.integers(1, 300), start=st.integers(0, 2), step=st.integers(1, 2), pendants=st.integers(0, 4),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_matrix_powers_match_the_one_vertex_fold(self, n, start, step, pendants, data):
        from dominion.dp import _spine_state

        hosts = range(start, data.draw(st.integers(min(start, n), n)), step)
        assert _exact(_spine_state(n, hosts, pendants)) == _exact(_spine_one_vertex_at_a_time(n, hosts, pendants))

    @given(st.integers(1, 300))
    @settings(max_examples=50, deadline=None)
    def test_stars_match_the_one_vertex_fold(self, m):
        from dominion.dp import _spine_state

        assert _exact(_spine_state(1, range(1), m)) == _exact(_spine_one_vertex_at_a_time(1, range(1), m))

    @pytest.mark.parametrize("kind", ["path", "comb"])
    def test_combine_calls_do_not_grow_with_n(self, monkeypatch, kind):
        # The matrices come from a fixed set of probes: three unit states
        # for each of three maps, whatever the length of the spine.
        from dominion import cli, dp

        calls = []
        real = dp.combine

        def spy(children, state=dp._LEAF_STATE):
            calls.append(len(children))
            return real(children, state)

        monkeypatch.setattr(dp, "combine", spy)
        counts = []
        for n in (10, 1_000_000):
            calls.clear()
            cli.compute_row(f"{kind}:n={n}")
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 9

    @pytest.mark.parametrize("n", [10**400, 2**1100 + 1, 3 * 2**1100 + 1], ids=["10^400", "2^1100+1", "3*2^1100+1"])
    def test_paths_past_float_range(self, n):
        # Sizes past 2^1024 cannot meet inf in a sum, so the semiring branches
        # on count 0 instead; the powers of 2^1100 + 1 meet unreachable pairs.
        from dominion import cli

        def expected(n):  # a path's (gamma, zeta), by n mod 3
            k, rest = divmod(n, 3)
            return DominationSummary(k + (rest > 0), (1, (k * k + 5 * k + 2) // 2, k + 2)[rest])

        assert all(dp_count(make_path(m)) == expected(m) for m in range(1, 40))
        row = cli.compute_row(f"path:n={n}")
        assert (row.n_vertices, row.gamma, row.zeta) == (n, expected(n).gamma, cli._digits(expected(n).zeta))

    def test_counts_past_the_bit_budget_are_refused(self, monkeypatch):
        from dominion import dp
        from dominion.errors import TooLargeError

        monkeypatch.setattr(dp, "_MAX_COUNT_BITS", 256)
        assert root_summary(dp._spine_state(200, range(200), 1)).zeta == 2**200
        for n in (300, 10**11):
            with pytest.raises(TooLargeError, match="would pass the limit of 256 bits"):
                dp._spine_state(n, range(n), 1)
        # a long path's count is small, whatever its length
        assert root_summary(dp._spine_state(10**11, range(0), 1)).gamma == (10**11 + 2) // 3
