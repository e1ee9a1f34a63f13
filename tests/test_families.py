import pytest

from dominion import (
    FamilySpec,
    InvalidParameterError,
    NotALeafError,
    NotALevelLeafError,
    ParseError,
    SplitMix64,
    UnknownVertexError,
    WouldBeEmptyError,
    build_tree,
    delete_leaves,
    leaves,
    level_labels,
    make_alternating,
    make_complete_binary,
    make_interior_pendant,
    make_path,
    make_star,
    make_uniform_pendant,
    parse_family_spec,
    random_tree,
)
from dominion.families import FAMILIES


def edge_set(tree):
    return {frozenset(e) for e in tree.edges}


class TestUniformPendant:
    def test_full_comb_g4(self):
        tree = make_uniform_pendant(4, 1)
        assert tree.vertex_count == 8
        assert set(tree.labels) == {"v1", "v2", "v3", "v4", "l1_1", "l2_1", "l3_1", "l4_1"}
        assert frozenset(("v1", "l1_1")) in edge_set(tree)
        assert frozenset(("v2", "v3")) in edge_set(tree)

    def test_double_pendant(self):
        tree = make_uniform_pendant(4, 2)
        assert tree.vertex_count == 12
        assert tree.degree("v2") == 4  # two path neighbors + two pendants

    def test_degenerate(self):
        tree = make_uniform_pendant(1, 1)
        assert set(tree.labels) == {"v1", "l1_1"}

    @pytest.mark.parametrize("n,r", [(0, 1), (1, 0), (-2, 3)])
    def test_invalid(self, n, r):
        with pytest.raises(InvalidParameterError):
            make_uniform_pendant(n, r)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_vertex_count(self, n, r):
        assert make_uniform_pendant(n, r).vertex_count == n * (r + 1)


class TestInteriorPendant:
    def test_n2_is_p2(self):
        tree = make_interior_pendant(2)
        assert set(tree.labels) == {"v1", "v2"}

    def test_n3_is_star_shape(self):
        tree = make_interior_pendant(3)
        assert set(tree.neighbors("v2")) == {"v1", "v3", "l2"}

    def test_n6(self):
        tree = make_interior_pendant(6)
        assert tree.vertex_count == 10
        assert {v for v in tree.labels if str(v).startswith("l")} == {"l2", "l3", "l4", "l5"}

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            make_interior_pendant(1)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_vertex_count(self, n):
        assert make_interior_pendant(n).vertex_count == 2 * n - 2


class TestAlternating:
    def test_e6(self):
        tree = make_alternating(6, "even")
        assert tree.vertex_count == 9
        assert {v for v in tree.labels if str(v).startswith("l")} == {"l2", "l4", "l6"}

    def test_o3(self):
        tree = make_alternating(3, "odd")
        assert tree.vertex_count == 5
        assert {v for v in tree.labels if str(v).startswith("l")} == {"l1", "l3"}

    def test_e2(self):
        tree = make_alternating(2, "even")
        assert set(tree.labels) == {"v1", "v2", "l2"}

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            make_alternating(1, "even")
        with pytest.raises(InvalidParameterError):
            make_alternating(4, "both")

    @pytest.mark.parametrize("n", range(2, 12))
    def test_vertex_counts(self, n):
        assert make_alternating(n, "even").vertex_count == n + n // 2
        assert make_alternating(n, "odd").vertex_count == n + (n + 1) // 2


class TestStar:
    def test_m1_is_p2(self):
        assert make_star(1).vertex_count == 2

    def test_m2_is_p3_shape(self):
        tree = make_star(2)
        assert tree.vertex_count == 3
        assert tree.degree("c") == 2

    def test_m5(self):
        tree = make_star(5)
        assert tree.vertex_count == 6
        assert tree.degree("c") == 5

    def test_invalid(self):
        with pytest.raises(InvalidParameterError, match="^star needs m >= 1$"):
            make_star(0)


class TestCompleteBinary:
    @pytest.mark.parametrize("h,size", [(1, 3), (3, 15), (10, 2047)])
    def test_vertex_count(self, h, size):
        assert make_complete_binary(h).vertex_count == size

    def test_heap_children(self):
        tree = make_complete_binary(3)
        for k in range(1, 8):
            kids = {f"b{2 * k}", f"b{2 * k + 1}"}
            assert kids <= set(tree.neighbors(f"b{k}"))

    def test_level_sizes(self):
        for level in range(6):
            assert len(level_labels(5, level)) == 2**level

    def test_level_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            level_labels(3, 4)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            make_complete_binary(0)


class TestDeleteLeaves:
    def test_one_leaf_of_t2(self):
        pruned = delete_leaves(make_complete_binary(2), {"b4"})
        assert pruned.vertex_count == 6

    def test_both_children_of_b4(self):
        pruned = delete_leaves(make_complete_binary(3), {"b8", "b9"})
        assert pruned.vertex_count == 13
        assert pruned.degree("b4") == 1  # b4 is a leaf now

    def test_internal_vertex_rejected(self):
        with pytest.raises(NotALeafError):
            delete_leaves(make_complete_binary(2), {"b2"})

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            delete_leaves(make_complete_binary(2), {"zz"})

    def test_whole_tree_rejected(self):
        with pytest.raises(WouldBeEmptyError):
            delete_leaves(make_path(1), {"v1"})

    def test_empty_deletion_is_identity(self):
        tree = make_complete_binary(2)
        same = delete_leaves(tree, set())
        assert set(same.labels) == set(tree.labels)
        assert edge_set(same) == edge_set(tree)

    def test_result_revalidates(self):
        tree = make_complete_binary(4)
        bottom = level_labels(4, 4)
        pruned = delete_leaves(tree, bottom[:7])
        assert pruned.vertex_count == tree.vertex_count - 7


class TestRandomTree:
    def test_single_vertex(self):
        assert random_tree(1, 99).vertex_count == 1

    def test_two_vertices(self):
        tree = random_tree(2, 5)
        assert edge_set(tree) == {frozenset(("n1", "n2"))}

    def test_deterministic(self):
        assert edge_set(random_tree(8, 42)) == edge_set(random_tree(8, 42))

    def test_seeds_differ(self):
        trees = {frozenset(edge_set(random_tree(8, seed))) for seed in range(10)}
        assert len(trees) > 1

    def test_pruefer_reaches_every_labeled_tree(self):
        # there are 4^2 = 16 labeled trees on 4 vertices
        seen = set()
        for seed in range(3000):
            seen.add(frozenset(edge_set(random_tree(4, seed))))
        assert len(seen) == 16

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            random_tree(0, 1)


class TestSplitMix64:
    def test_reference_stream(self):
        # published reference outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_below_range(self):
        rng = SplitMix64(123)
        draws = [rng.below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_below_needs_a_positive_bound(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            SplitMix64(1).below(0)

    def test_sample_is_subset(self):
        rng = SplitMix64(5)
        picked = rng.sample(range(100), 10)
        assert len(picked) == 10
        assert len(set(picked)) == 10

    @pytest.mark.parametrize("items", [range(1), range(2), range(5, 37), "abcdefghij", tuple("xyz" * 4),
                                       range(7, 3)])
    def test_sample_is_a_shuffle_prefix(self, items):
        # Same draws and same order as a Fisher-Yates shuffle of the listed items.
        for seed in range(6):
            for k in range(len(items) + 1):
                pool, rng = list(items), SplitMix64(seed)
                for i in range(k):
                    j = i + rng.below(len(pool) - i)
                    pool[i], pool[j] = pool[j], pool[i]
                assert SplitMix64(seed).sample(items, k) == pool[:k]

    def test_below_past_one_word_joins_draws_first_word_high(self):
        words = SplitMix64(9)
        a, b, c = words.next_u64(), words.next_u64(), words.next_u64()
        assert SplitMix64(9).below(1 << 128) == a << 64 | b
        assert SplitMix64(9).below(1 << 64) == a
        assert SplitMix64(9).below((1 << 64) + 1) == (a << 64 | b) % ((1 << 64) + 1)
        assert SplitMix64(9).below(1 << 130) == (a << 128 | b << 64 | c) % (1 << 130)

    @pytest.mark.parametrize("n", [1, 7, 250_000, (1 << 63) + 1, 1 << 64, (1 << 64) + 1, 3 << 70])
    def test_batched_draws_follow_the_documented_procedure(self, n):
        # A transcription of the procedure in SplitMix64's docstring; n = 2^63 + 1
        # rejects about half of its one-word values.
        def reference(seed, count):
            mask, state, draws = (1 << 64) - 1, seed, []

            def word():
                nonlocal state
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                return z ^ (z >> 31)

            w = max(1, ((n - 1).bit_length() + 63) // 64)
            while len(draws) < count:
                x = 0
                for _ in range(w):
                    x = x << 64 | word()
                if x < ((1 << 64 * w) // n) * n:
                    draws.append(x % n)
            return draws

        for seed in (0, 9, 2**40 + 3):
            rng = SplitMix64(seed)
            assert rng._below_each(n, 30) + [rng.below(n) for _ in range(10)] == reference(seed, 40)

    def test_sample_of_a_range_past_sys_maxsize(self):
        picked = SplitMix64(1).sample(range(1 << 63, 1 << 64), 5)
        assert len(set(picked)) == 5 and all(1 << 63 <= x < 1 << 64 for x in picked)
        assert picked[0] == (1 << 63) + SplitMix64(1).below(1 << 63)

    def test_sample_never_lists_the_sequence(self):
        picked = SplitMix64(1).sample(range(1 << 60), 3)
        assert len(set(picked)) == 3 and all(0 <= x < 1 << 60 for x in picked)
        with pytest.raises(ValueError):
            SplitMix64(1).sample(range(3), 4)


class TestFamilySpecGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "uniform:n=4,r=2",
            "comb:n=4",
            "alt-even:n=6",
            "alt-odd:n=3",
            "binary:h=3",
            "binary:h=3,delete=b8+b11",
            "star:m=5",
            "interior:n=6",
            "path:n=7",
            "random:n=12,seed=42",
        ]
        # one spec per entry of the family table, so a new kind is covered too
        + [f"{kind}:" + ",".join(f"{p}=9" for p in family.params) for kind, family in FAMILIES.items()],
    )
    def test_round_trip(self, text):
        spec = parse_family_spec(text)
        assert spec.spec_string() == text
        assert parse_family_spec(spec.spec_string()) == spec

    def test_delete_canonical_order_is_numeric(self):
        spec = parse_family_spec("binary:h=3,delete=b11+b8")
        assert spec.spec_string() == "binary:h=3,delete=b8+b11"

    @pytest.mark.parametrize(
        "text",
        ["nonsense:n=3", "uniform", "uniform:n", "uniform:n=x", "uniform:n=3,n=4",
         "path:m=3", "path:n=7,delete=b8"],
    )
    def test_bad_grammar(self, text):
        with pytest.raises(ParseError):
            parse_family_spec(text)

    @pytest.mark.parametrize(
        "text",
        ["uniform:n=4", "uniform:n=0,r=1", "alt-even:n=1", "binary:h=0",
         "random:n=5", "interior:n=6,r=2", "star:n=5", "star:n=5,m=2"],
    )
    def test_bad_parameters(self, text):
        with pytest.raises(InvalidParameterError):
            parse_family_spec(text)

    def test_delete_must_be_bottom_level(self):
        with pytest.raises(NotALevelLeafError):
            parse_family_spec("binary:h=3,delete=b4")
        with pytest.raises(NotALevelLeafError):
            parse_family_spec("binary:h=3,delete=x9")

    def test_build_tree_matches_generators(self):
        # Every kind's public builder gives the tree its spec builds.
        builds = {
            "path:n=7": make_path(7), "uniform:n=4,r=2": make_uniform_pendant(4, 2),
            "comb:n=4": make_uniform_pendant(4, 1), "interior:n=6": make_interior_pendant(6),
            "alt-even:n=6": make_alternating(6, "even"), "alt-odd:n=7": make_alternating(7, "odd"),
            "star:m=5": make_star(5), "binary:h=3": make_complete_binary(3),
            "random:n=12,seed=42": random_tree(12, 42),
        }
        assert {text.partition(":")[0] for text in builds} == set(FAMILIES)
        for text, tree in builds.items():
            spec_tree = build_tree(parse_family_spec(text))
            assert (tree.labels, tree.edges) == (spec_tree.labels, spec_tree.edges), text
        assert build_tree(parse_family_spec("binary:h=3,delete=b8+b11")).vertex_count == 13
        assert build_tree(parse_family_spec("random:n=12,seed=42")).vertex_count == 12
        assert build_tree(parse_family_spec("star:m=5")).vertex_count == 6
        assert build_tree(parse_family_spec("path:n=7")).vertex_count == 7

    def test_direct_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            FamilySpec(kind="uniform", n=4)
        with pytest.raises(InvalidParameterError):
            FamilySpec(kind="star", m=3, deleted_leaves=frozenset({"b8"}))
        with pytest.raises(InvalidParameterError, match="^unknown family kind 'nope'$"):
            FamilySpec("nope")

    @pytest.mark.parametrize("build,err", [
        (lambda: make_path(2.5), "parameter 'n' must be an integer, got 2.5"),
        (lambda: make_star("3"), "parameter 'm' must be an integer, got '3'"),
        (lambda: random_tree(5, 1.5), "parameter 'seed' must be an integer, got 1.5"),
        (lambda: make_path(True), "parameter 'n' must be an integer, got True"),
        (lambda: FamilySpec("binary", h=3.0), "parameter 'h' must be an integer, got 3.0"),
        # a tuple could repeat a label, which the fold would count twice
        (lambda: FamilySpec("binary", h=3, deleted_leaves=("b8", "b8")),
         r"deleted_leaves must be a frozenset, got \('b8', 'b8'\)"),
    ])
    def test_parameters_must_have_their_types(self, build, err):
        # The written name is reported, m for a star; an int subclass passes.
        with pytest.raises(InvalidParameterError, match=f"^{err}$"):
            build()
        assert FamilySpec("path", n=type("Count", (int,), {})(3)).n == 3


@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_uniform_pendant(5, 2),
        lambda: make_interior_pendant(7),
        lambda: make_alternating(9, "even"),
        lambda: make_alternating(8, "odd"),
        lambda: make_star(6),
        lambda: make_complete_binary(4),
        lambda: make_path(11),
        lambda: random_tree(30, 8),
    ],
)
def test_every_generated_tree_validates(factory):
    tree = factory()  # Tree.__init__ would raise if the generator were wrong
    assert len(tree.edges) == tree.vertex_count - 1
    assert leaves(tree)
