import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominion import (
    EmptyTreeError,
    NotATreeError,
    ParseError,
    Tree,
    UnknownVertexError,
    leaves,
    parse_edge_list,
    random_tree,
    root_at,
    to_edge_list,
)


def test_parse_single_vertex():
    tree = parse_edge_list("vertices: a\n")
    assert tree.vertex_count == 1
    assert tree.labels == ("a",)
    assert tree.edges == ()


def test_repr_counts_the_vertices():
    assert repr(parse_edge_list("a b\nb c\n")) == "Tree(3 vertices)"


def test_parse_p2():
    tree = parse_edge_list("a b\n")
    assert set(tree.labels) == {"a", "b"}
    assert tree.edges == (("a", "b"),)


def test_parse_triangle_rejected():
    with pytest.raises(NotATreeError):
        parse_edge_list("a b\nb c\nc a\n")


def test_parse_comments_and_blanks():
    tree = parse_edge_list("# a comment\n\nvertices: x\n# another\nx y\n")
    assert set(tree.labels) == {"x", "y"}


def test_parse_header_must_come_first():
    with pytest.raises(ParseError):
        parse_edge_list("a b\nvertices: c\n")


def test_parse_duplicate_header_label():
    with pytest.raises(ParseError):
        parse_edge_list("vertices: a a\n")


def test_parse_malformed_line():
    with pytest.raises(ParseError):
        parse_edge_list("a b c\n")
    with pytest.raises(ParseError):
        parse_edge_list("a\n")


def test_parse_empty_input():
    with pytest.raises(EmptyTreeError):
        parse_edge_list("")
    with pytest.raises(EmptyTreeError):
        parse_edge_list("# only a comment\n")
    with pytest.raises(EmptyTreeError):
        parse_edge_list("vertices:\n")


def test_parse_duplicate_edge():
    with pytest.raises(NotATreeError):
        parse_edge_list("a b\nb a\n")


def test_parse_self_loop():
    with pytest.raises(NotATreeError):
        parse_edge_list("a a\n")


def test_parse_disconnected():
    with pytest.raises(NotATreeError):
        parse_edge_list("vertices: a b c\na b\n")


def test_constructor_rejects_duplicate_labels():
    with pytest.raises(NotATreeError):
        Tree(["a", "a"], [("a", "a")])


def test_constructor_rejects_unknown_endpoint():
    with pytest.raises(NotATreeError):
        Tree(["a", "b"], [("a", "z")])


def test_constructor_rejects_unorderable_labels():
    with pytest.raises(NotATreeError, match="mutually orderable"):
        Tree([1, "a"], [(1, "a")])


def test_constructor_rejects_unhashable_endpoint():
    with pytest.raises(NotATreeError, match=r"unhashable endpoint \['a'\]"):
        Tree(["a", "b"], [(["a"], "b")])
    with pytest.raises(NotATreeError, match=r"unhashable endpoint \['b'\]"):
        Tree(["a", "b"], [("a", ["b"])])


def test_constructor_rejects_unhashable_label():
    with pytest.raises(NotATreeError, match="hashable"):
        Tree([["a"], "b"], [])


# One tree defect per entry: labels and label edges, the same graph as
# edge-list text, and the error `Tree` raises for it.
REJECTIONS = {
    "empty": ([], [], "# nothing\n", EmptyTreeError),
    "edge count": (["a", "b", "c"], [("a", "b")], "vertices: a b c\na b\n", NotATreeError),
    "self-loop": (["a", "b", "c"], [("a", "b"), ("c", "c")], "vertices: a b c\na b\nc c\n",
                  NotATreeError),
    "duplicate edge": (["a", "b", "c"], [("a", "b"), ("b", "a")], "vertices: a b c\na b\nb a\n",
                       NotATreeError),
    "cycle": (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a")],
              "vertices: a b c d\na b\nb c\nc a\n", NotATreeError),
    "first defect wins": (["a", "b", "c", "d"], [("a", "b"), ("d", "d"), ("b", "a")],
                          "vertices: a b c d\na b\nd d\nb a\n", NotATreeError),
    "root self-loop beside an edge": (["a", "b", "c"], [("a", "a"), ("b", "c")],
                                      "vertices: a b c\na a\nb c\n", NotATreeError),
}


@pytest.mark.parametrize("defect", REJECTIONS)
def test_rejection_is_the_same_on_every_path(defect):
    # Label edges, parsed text and id edges (the generators' form) all reach
    # one validation and fail it with the same error.
    labels, edges, text, error = REJECTIONS[defect]
    with pytest.raises(error) as by_label:
        Tree(labels, edges)
    with pytest.raises(error) as by_text:
        parse_edge_list(text)
    with pytest.raises(error) as by_id:
        Tree(labels, _id_edges(labels, edges))
    assert str(by_label.value) == str(by_id.value)
    if labels:
        assert str(by_label.value) == str(by_text.value)


def test_the_peel_does_not_attach_a_cut_off_edge_to_the_root():
    # Peeling leaf b empties c, whose neighbour XOR then reads 0, the root's
    # id: unguarded, c would be peeled onto the root and the graph accepted.
    labels, edges, text, _ = REJECTIONS["root self-loop beside an edge"]
    for build in (lambda: Tree(labels, edges), lambda: parse_edge_list(text),
                  lambda: Tree(labels, _id_edges(labels, edges))):
        with pytest.raises(NotATreeError, match="^self-loop at 'a'$"):
            build()


def _id_edges(labels, edges):
    from dominion.tree import _IdEdges

    ids = {v: i for i, v in enumerate(labels)}
    return _IdEdges([ids[u] for u, _ in edges], [ids[v] for _, v in edges])


def _verdict(labels, edges):
    """What validation must say about n - 1 label edges, from a union-find:
    None for a tree, else the first self-loop or repeated edge in input
    order, else that the graph is disconnected."""
    root = {v: v for v in labels}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    seen = set()
    for u, v in edges:
        if u == v:
            return f"self-loop at {u!r}"
        if frozenset((u, v)) in seen:
            return f"duplicate edge ({u!r}, {v!r})"
        seen.add(frozenset((u, v)))
        root[find(u)] = find(v)
    return None if len({find(v) for v in labels}) == 1 else "graph is disconnected"


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=n - 1, max_size=n - 1)
    .map(lambda ends: (n, ends))))
@settings(max_examples=400, deadline=None)
def test_accepts_exactly_the_trees(case):
    # n - 1 random edges, loops and repeats allowed, on every path into `Tree`.
    n, ends = case
    labels = [f"x{i}" for i in range(n)]
    edges = [(labels[u], labels[v]) for u, v in ends]
    text = "vertices: " + " ".join(labels) + "\n" + "".join(f"{u} {v}\n" for u, v in edges)
    expected = _verdict(labels, edges)
    for build in (lambda: Tree(labels, edges), lambda: parse_edge_list(text),
                  lambda: Tree(labels, _id_edges(labels, edges))):
        if expected is None:
            assert build().vertex_count == n
        else:
            with pytest.raises(NotATreeError) as error:
                build()
            assert str(error.value) == expected


def test_id_edges_outside_the_labels_are_rejected():
    from dominion.tree import _IdEdges

    for us, vs in (([0], [2]), ([-1], [0])):
        with pytest.raises(NotATreeError, match="undeclared"):
            Tree(["a", "b"], _IdEdges(us, vs))


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32),
       st.data())
@settings(max_examples=60, deadline=None)
def test_delete_leaves_matches_label_construction(n, seed, data):
    from dominion import delete_leaves

    tree = random_tree(n, seed)
    candidates = sorted(leaves(tree))
    victims = set(data.draw(st.lists(st.sampled_from(candidates), max_size=len(candidates) - 1)))
    pruned = delete_leaves(tree, victims)
    keep = [v for v in tree.labels if v not in victims]
    expected = Tree(keep, [(u, v) for u, v in tree.edges if u not in victims and v not in victims])
    assert (pruned.labels, pruned.edges) == (expected.labels, expected.edges)
    assert [pruned.neighbors(v) for v in keep] == [expected.neighbors(v) for v in keep]


def test_constructor_rejects_empty():
    with pytest.raises(EmptyTreeError):
        Tree([], [])


def test_root_at_p3_children_sorted():
    tree = parse_edge_list("a b\nb c\n")
    rooted = root_at(tree, "b")
    # "b" and the first label trade ids; the peel removes the two leaves, in
    # id order, from the root, which it keeps.
    assert rooted.labels == ("b", "a", "c")
    assert [list(ids) for ids in rooted._order] == [[1, 2], [0, 0]]
    assert rooted.neighbors("b") == ("a", "c")


def test_root_at_p2():
    tree = parse_edge_list("a b\n")
    assert root_at(tree, "a") is tree  # already vertex 0
    rooted = root_at(tree, "b")
    assert rooted.labels == ("b", "a")
    assert [list(ids) for ids in rooted._order] == [[1], [0]]
    assert rooted.edges == tree.edges


def test_root_at_unknown_vertex():
    tree = parse_edge_list("a b\n")
    with pytest.raises(UnknownVertexError):
        root_at(tree, "zz")


def test_leaves_p3():
    assert leaves(parse_edge_list("a b\nb c\n")) == {"a", "c"}


def test_leaves_star():
    tree = parse_edge_list("c u1\nc u2\nc u3\n")
    assert leaves(tree) == {"u1", "u2", "u3"}
    assert tree.degree("c") == 3


def test_leaves_single_vertex():
    assert leaves(parse_edge_list("vertices: a\n")) == {"a"}


def test_neighbors_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        parse_edge_list("a b\n").neighbors("q")


@pytest.mark.parametrize("text", ["a b\n", "a b\nb c\nb d\n"])
def test_round_trip_small(text):
    tree = parse_edge_list(text)
    again = parse_edge_list(to_edge_list(tree))
    assert set(again.labels) == set(tree.labels)
    assert {frozenset(e) for e in again.edges} == {frozenset(e) for e in tree.edges}


def test_round_trip_t3():
    from dominion import make_complete_binary

    tree = make_complete_binary(3)
    again = parse_edge_list(to_edge_list(tree))
    assert set(again.labels) == set(tree.labels)
    assert {frozenset(e) for e in again.edges} == {frozenset(e) for e in tree.edges}


def test_round_trip_large_random():
    tree = random_tree(1000, 7)
    again = parse_edge_list(to_edge_list(tree))
    assert set(again.labels) == set(tree.labels)
    assert {frozenset(e) for e in again.edges} == {frozenset(e) for e in tree.edges}


def test_serialization_deterministic():
    tree = random_tree(50, 3)
    assert to_edge_list(tree) == to_edge_list(tree)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_random_graph_with_n_edges_rejected(n, seed):
    # n vertices with n edges always contain a self-loop, duplicate, or cycle
    from dominion import SplitMix64

    rng = SplitMix64(seed)
    labels = [f"x{i}" for i in range(n)]
    edges = [(labels[rng.below(n)], labels[rng.below(n)]) for _ in range(n)]
    with pytest.raises(NotATreeError):
        Tree(labels, edges)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_postorder_children_precede_parents(n, seed):
    tree = random_tree(n, seed)
    root = sorted(tree.labels)[seed % n]
    rooted = root_at(tree, root)  # the same tree, with `root` at vertex 0
    assert rooted.labels[0] == root
    # The peel removes every vertex but the root once, along one of the
    # tree's edges, and only after all of its own children: no vertex is a
    # parent once it has been a child. The last parent is the root.
    children, parents = rooted._order
    assert sorted(children) == list(range(1, n))
    assert {frozenset(e) for e in zip(children, parents)} == {frozenset(e) for e in zip(rooted._us, rooted._vs)}
    removed = set()
    for c, p in zip(children, parents):
        assert p not in removed
        removed.add(c)
    assert list(parents[-1:]) == ([0] if n > 1 else [])
    assert list(parents).count(0) == tree.degree(root)
    # First in, first out: the initial leaves go first, in id order.
    initial = [i for i in range(1, n) if rooted.degree(rooted.labels[i]) == 1]
    assert list(children[:len(initial)]) == initial


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_rooted_structure_matches_base_edges(n, seed):
    tree = random_tree(n, seed)
    root = tree.labels[seed % n]
    rooted = root_at(tree, root)
    assert len(rooted.labels) == n
    assert set(rooted.labels) == set(tree.labels)
    assert rooted.edges == tree.edges
    assert all(rooted.neighbors(v) == tree.neighbors(v) for v in tree.labels)
