import random
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dominion import (
    DominationSummary,
    InvalidParameterError,
    NotALevelLeafError,
    SplitMix64,
    TooLargeError,
    UnknownVertexError,
    analyze_deletion,
    binary_summary,
    delete_leaves,
    dp_count,
    m1_of,
    make_complete_binary,
    oracle_count,
    random_leaf_subset,
    single_leaf_doubling_check,
)
from dominion.dp import _root_state
from dominion.families import _hits
from dominion.perturbation import _deletion_state


class TestM1:
    def test_single_leaf(self):
        assert m1_of(3, {"b8"}) == 1

    def test_sibling_pair_cancels(self):
        assert m1_of(3, {"b8", "b9"}) == 0

    def test_two_parents(self):
        assert m1_of(3, {"b8", "b10"}) == 2

    def test_height_zero(self):
        with pytest.raises(InvalidParameterError, match="height must be >= 1"):
            m1_of(0, ())

    def test_empty(self):
        assert m1_of(3, set()) == 0

    def test_rejects_non_bottom_labels(self):
        with pytest.raises(NotALevelLeafError):
            m1_of(3, {"b4"})
        with pytest.raises(NotALevelLeafError):
            m1_of(3, {"x1"})
        with pytest.raises(NotALevelLeafError):
            m1_of(3, {"b16"})
        with pytest.raises(UnknownVertexError):  # int() reads it as b8, but no vertex is spelt so
            m1_of(3, {"b08"})


class TestAnalyzeDeletion:
    def test_single_leaf_h3(self):
        report = analyze_deletion(3, {"b8"})
        assert (report.gamma_before, report.gamma_after) == (5, 5)
        assert (report.zeta_before, report.zeta_after) == (3, 6)
        assert report.m1 == 1
        assert report.envelope == 6
        assert report.bound_holds

    def test_empty_deletion_h2(self):
        report = analyze_deletion(2, frozenset())
        assert (report.gamma_before, report.gamma_after) == (2, 2)
        assert (report.zeta_before, report.zeta_after) == (1, 1)
        assert report.envelope == 1
        assert report.bound_holds

    def test_sibling_pair_h2_bound_fails(self):
        # Deleting both children of one parent frees that parent; the
        # recorded envelope comparison must report the failure honestly.
        # After-values verified exhaustively on the 5-vertex result.
        report = analyze_deletion(2, {"b4", "b5"})
        assert report.m1 == 0
        assert report.envelope == 1
        assert (report.gamma_after, report.zeta_after) == (2, 2)
        assert not report.bound_holds
        pruned = delete_leaves(make_complete_binary(2), {"b4", "b5"})
        assert oracle_count(pruned).zeta == 2

    def test_sibling_pair_h4_bound_fails(self):
        report = analyze_deletion(4, {"b16", "b17"})
        assert report.m1 == 0
        assert (report.gamma_before, report.gamma_after) == (9, 9)
        assert (report.zeta_before, report.zeta_after) == (1, 3)
        assert not report.bound_holds

    def test_height_too_small(self):
        with pytest.raises(InvalidParameterError):
            analyze_deletion(1, set())

    def test_whole_bottom_level_rejected(self):
        with pytest.raises(InvalidParameterError):
            analyze_deletion(2, {"b4", "b5", "b6", "b7"})

    def test_non_bottom_label_rejected(self):
        with pytest.raises(NotALevelLeafError):
            analyze_deletion(3, {"b2"})

    def test_after_values_match_direct_dp(self):
        report = analyze_deletion(3, {"b8", "b11", "b14"})
        pruned = delete_leaves(make_complete_binary(3), {"b8", "b11", "b14"})
        direct = dp_count(pruned)
        assert (report.gamma_after, report.zeta_after) == (direct.gamma, direct.zeta)


def _leaf_set(h, shape, size, seed):
    """Bottom-level heap indices: `size` random leaves, `size` whole sibling
    pairs, or every leaf but one, by `shape`."""
    first = 1 << h
    rng = random.Random(seed)
    if shape == "random":
        return set(rng.sample(range(first, 2 * first), min(size, first - 1)))
    if shape == "siblings":
        parents = rng.sample(range(first // 2, first), min(size, first // 2 - 1))
        return {k for p in parents for k in (2 * p, 2 * p + 1)}
    return set(range(first, 2 * first)) - {first + rng.randrange(first)}


class TestIncrementalDeletion:
    @given(
        st.integers(min_value=2, max_value=10),
        st.sampled_from(["random", "siblings", "all-but-one"]),
        st.integers(min_value=0, max_value=1023),
        st.integers(min_value=0, max_value=2**32),
    )
    @example(2, "random", 0, 0)
    @example(10, "random", 0, 0)
    @example(10, "siblings", 1, 0)
    @example(10, "all-but-one", 0, 0)
    @settings(max_examples=150, deadline=None)
    def test_matches_rebuild(self, h, shape, size, seed):
        lost = _leaf_set(h, shape, size, seed)
        rebuilt = delete_leaves(make_complete_binary(h), {f"b{k}" for k in lost})
        assert _deletion_state(h, Counter(k >> 1 for k in lost)) == _root_state(rebuilt)

    def test_builds_no_tree(self, monkeypatch):
        from dominion import dp, families, perturbation, tree

        deleted = {"b64", "b65", "b70", "b127"}
        expected = dp_count(delete_leaves(make_complete_binary(6), deleted))

        def boom(*_):
            raise AssertionError("a report built or folded a tree")

        for module, name in [(perturbation, "make_complete_binary"), (perturbation, "delete_leaves"),
                             (perturbation, "dp_count"), (families, "make_complete_binary"),
                             (families, "delete_leaves"), (dp, "dp_count"), (dp, "_root_state")]:
            monkeypatch.setattr(module, name, boom, raising=False)
        monkeypatch.setattr(tree.Tree, "__init__", boom)
        report = analyze_deletion(6, deleted)
        assert (report.gamma_after, report.zeta_after) == (expected.gamma, expected.zeta)

    @pytest.mark.parametrize("h", [1100, 2000])
    def test_doubling_far_past_a_buildable_tree(self, h):
        # Sizes pass 2^1024 here, where inf + size would overflow.
        report = analyze_deletion(h, {f"b{(1 << h) + 5}"})
        before = binary_summary(h)
        assert (report.gamma_before, report.zeta_before) == (before.gamma, before.zeta)
        assert report.gamma_after == before.gamma
        assert report.zeta_after == 2 * before.zeta

    def test_period_three_law_to_h_1100(self):
        # Level compression checks the closed form far past any tree that
        # could be built and folded vertex by vertex.
        for h in range(2, 1101):
            report = analyze_deletion(h, frozenset())
            assert binary_summary(h) == DominationSummary(report.gamma_after, report.zeta_after), h


class TestLabelErrorParity:
    # Non-canonical spellings of a level-h index name no vertex of the tree;
    # the errors keep their order: not a level leaf, no vertex, whole level.
    @pytest.mark.parametrize("deleted", [{"b08"}, {"b8", "b08"}, {"b\u0668"}, {"b8", "b\u0668"}])
    def test_non_canonical_label_names_no_vertex(self, deleted):
        odd = next(label for label in deleted if label != "b8")
        with pytest.raises(UnknownVertexError, match=f"no vertex '{odd}'"):
            analyze_deletion(3, deleted)

    def test_not_a_level_leaf_comes_first(self):
        with pytest.raises(NotALevelLeafError, match="'b4'"):
            analyze_deletion(3, {"b08", "b4"})

    def test_no_vertex_comes_before_whole_level(self):
        # b7 stays, so this set is not the whole level.
        with pytest.raises(UnknownVertexError, match="^no vertex 'b07'$"):
            analyze_deletion(2, {"b4", "b5", "b6", "b07"})
        with pytest.raises(InvalidParameterError, match="entire bottom level"):
            analyze_deletion(2, {"b4", "b5", "b6", "b7"})

    def test_label_past_the_int_digit_limit(self):
        h = 14285  # every level-h label has 4301 digits
        label = "b" + str(Decimal(1 << h))
        assert len(label) == 4302
        with pytest.raises(NotALevelLeafError):
            _hits(h, {label})
        with pytest.raises(NotALevelLeafError):
            analyze_deletion(h, {label})


class TestDoubling:
    @pytest.mark.parametrize("h", range(2, 13))
    def test_holds(self, h):
        assert single_leaf_doubling_check(h)

    def test_height_too_small(self):
        with pytest.raises(InvalidParameterError):
            single_leaf_doubling_check(1)

    @pytest.mark.parametrize("h", [17, 40])
    def test_past_the_leaf_limit_lists_nothing(self, monkeypatch, h):
        from dominion import families

        def refuse(*_):
            raise AssertionError("the level was listed")

        monkeypatch.setattr(families, "level_labels", refuse)
        with pytest.raises(TooLargeError, match=rf"lists 2\^{h} leaves, more than the limit of 65536"):
            single_leaf_doubling_check(h)

    def test_past_the_height_limit(self):
        with pytest.raises(TooLargeError, match="height 300000 is more than the limit of 262144"):
            single_leaf_doubling_check(300000)

    @pytest.mark.parametrize("field", ["gamma_after", "zeta_after"])
    def test_one_failing_leaf_fails_the_check(self, monkeypatch, field):
        from dataclasses import replace

        from dominion import perturbation

        real = perturbation.analyze_deletion

        def off_at_b15(h, deleted):
            report = real(h, deleted)
            return replace(report, **{field: getattr(report, field) + 1}) if deleted == {"b15"} else report

        monkeypatch.setattr(perturbation, "analyze_deletion", off_at_b15)
        assert single_leaf_doubling_check(3) is False
        assert single_leaf_doubling_check(4) is True


class TestSymmetry:
    def test_every_single_leaf_report_is_identical(self):
        reports = [analyze_deletion(3, {f"b{k}"}) for k in range(8, 16)]
        outcomes = {(r.gamma_after, r.zeta_after, r.m1, r.envelope) for r in reports}
        assert len(outcomes) == 1


class TestRandomLeafSubset:
    def test_deterministic(self):
        assert random_leaf_subset(5, 7, 123) == random_leaf_subset(5, 7, 123)

    def test_is_bottom_subset_of_right_size(self):
        picked = random_leaf_subset(4, 6, 9)
        assert len(picked) == 6
        assert all(16 <= int(label[1:]) < 32 for label in picked)

    def test_size_bounds(self):
        with pytest.raises(InvalidParameterError):
            random_leaf_subset(3, 8, 0)  # would delete the whole level
        with pytest.raises(InvalidParameterError):
            random_leaf_subset(3, -1, 0)
        assert random_leaf_subset(3, 0, 0) == frozenset()
        with pytest.raises(InvalidParameterError, match="height must be >= 1"):
            random_leaf_subset(0, 1, 0)

    def test_labels_past_the_int_digit_limit(self):
        # Level-14283 labels have at most 4300 digits; 2^14285 - 1, the
        # largest level-14284 label, has 4301, so that level is refused
        # before a draw, except for the empty set, which forms no label.
        (label,) = random_leaf_subset(14283, 1, 5)
        assert sum(_hits(14283, {label}).values()) == 1
        with pytest.raises(TooLargeError, match="^level-14284 leaf labels have more than 4300 digits"):
            random_leaf_subset(14284, 1, 5)
        assert random_leaf_subset(14284, 0, 5) == frozenset()

    @pytest.mark.parametrize("h", range(1, 11))
    def test_draws_match_a_shuffled_level_list(self, h):
        # The level is never listed; the draws are those of a Fisher-Yates
        # shuffle of the listed labels, as the reproducibility contract says.
        for seed in (0, 1, 7, 2**40 + 3):
            for size in {0, 1, (1 << h) // 3, (1 << h) - 1}:
                pool = [f"b{k}" for k in range(1 << h, 2 << h)]
                rng = SplitMix64(seed)
                for i in range(size):
                    j = i + rng.below(len(pool) - i)
                    pool[i], pool[j] = pool[j], pool[i]
                assert random_leaf_subset(h, size, seed) == frozenset(pool[:size])


def sibling_free_subset(h, size, seed):
    """Random bottom-level set with at most one deleted child per parent."""
    rng = SplitMix64(seed)
    parents = rng.sample(range(1 << (h - 1), 1 << h), size)
    return frozenset(f"b{2 * p + rng.below(2)}" for p in parents)


class TestEnvelope:
    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_holds_for_sibling_free_deletions(self, h):
        # When no parent loses both children, leaf-for-parent swaps give a
        # well-defined projection onto the unpruned optima and the 2^m1
        # envelope is sound; spot-check it across seeded draws.
        for trial in range(25):
            size = trial % (1 << (h - 1))
            report = analyze_deletion(h, sibling_free_subset(h, size, h * 100 + trial))
            assert report.bound_holds

    def test_m1_never_exceeds_deleted_or_parent_count(self):
        for h in (2, 3, 4):
            for trial in range(20):
                size = trial % (1 << h)
                deleted = random_leaf_subset(h, size, trial)
                m1 = m1_of(h, deleted)
                assert m1 <= len(deleted)
                assert m1 <= 1 << (h - 1)
