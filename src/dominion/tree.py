"""Canonical tree data model: validated undirected trees and edge-list text
I/O.

Trees work on integer vertex ids, the positions in `labels`, and touch labels
only at input and output. Validation peels leaves, never vertex 0, and keeps
the peel as the order the dynamic program folds, so vertex 0 is the root;
`root_at` moves another vertex to id 0. Neighbour lists are built only on
first use, for `neighbors` and `degree`. Labels are opaque identifiers
(strings from the parser and the generators; integers are accepted
programmatically). All labels of one tree must be mutually orderable, since
serialization sorts by label.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Hashable, Iterable, NamedTuple, Sequence, TextIO

from .errors import EmptyTreeError, NotATreeError, ParseError, UnknownVertexError

Label = Hashable


@dataclass(frozen=True)
class DominationSummary:
    """Domination number `gamma` and the exact number `zeta` of dominating
    sets of that minimum size. `zeta` is a plain Python int and therefore
    unbounded; serialize it as a decimal string."""

    gamma: int
    zeta: int


class _IdEdges(NamedTuple):
    """Edge i joins vertex ids us[i] and vs[i]: the generators' and the parser's edges."""

    us: Sequence[int]
    vs: Sequence[int]


class Tree:
    """Undirected tree, validated at construction.

    Rejects anything that is not a tree: zero vertices, duplicate or
    unhashable labels, self-loops, duplicate edges, undeclared or unhashable
    endpoints, wrong edge count, cycles, disconnection, and labels that
    cannot be ordered against each other. Immutable after construction and
    safe to share across threads.
    """

    __slots__ = ("labels", "_us", "_vs", "_order", "_csr", "_ids")

    def __init__(self, labels: Iterable[Label], edges: Iterable[tuple[Label, Label]]):
        labels = tuple(labels)
        n = len(labels)
        if not n:
            raise EmptyTreeError("a tree needs at least one vertex")
        try:
            distinct = len(set(labels)) == n
        except TypeError:
            raise NotATreeError("vertex labels must be hashable") from None
        if not distinct:
            raise NotATreeError("vertex labels are not distinct")
        by_id = isinstance(edges, _IdEdges)
        if not by_id:
            edges = tuple((u, v) for u, v in edges)
        m = len(edges.us if by_id else edges)
        if m != n - 1:
            raise NotATreeError(f"{n} vertices need {n - 1} edges, got {m}")
        us, vs = edges if by_id else _edge_ids(labels, edges)
        kinds = set(map(type, labels))
        if kinds != {str} and kinds != {int}:
            try:
                sorted(labels)
            except TypeError:
                raise NotATreeError("vertex labels must be mutually orderable") from None
        order = _peel(n, us, vs)
        if len(order[1]) != n - 1:
            # n - 1 edges connect n vertices only if none is a self-loop or a
            # repeat, so id edges are checked for those only now, to name one.
            _edge_ids(labels, zip(map(labels.__getitem__, us), map(labels.__getitem__, vs)))
            raise NotATreeError("graph is disconnected")
        self.labels, self._us, self._vs, self._order = labels, us, vs, order
        self._csr = self._ids = None

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edges(self) -> tuple[tuple[Label, Label], ...]:
        """The edges as given, as label pairs."""
        name = self.labels.__getitem__
        return tuple(zip(map(name, self._us), map(name, self._vs)))

    def _id(self, v: Label) -> int:
        if self._ids is None:  # built on first use; `compute` never needs it
            self._ids = dict(zip(self.labels, range(len(self.labels))))
        try:
            return self._ids[v]
        except (KeyError, TypeError):
            raise UnknownVertexError(f"no vertex {v!r}") from None

    def _neighbor_ids(self, i: int) -> array:
        if self._csr is None:  # built on first use, like `_ids`
            self._csr = _csr(len(self.labels), self._us, self._vs)
        offsets, nbrs = self._csr
        return nbrs[offsets[i]:offsets[i + 1]]

    def neighbors(self, v: Label) -> tuple[Label, ...]:
        return tuple(map(self.labels.__getitem__, self._neighbor_ids(self._id(v))))

    def degree(self, v: Label) -> int:
        return len(self._neighbor_ids(self._id(v)))

    def __repr__(self) -> str:
        return f"Tree({self.vertex_count} vertices)"


def _edge_ids(labels: tuple, edges: Iterable[tuple[Label, Label]]) -> tuple[list, list]:
    """Label edges as id edges, rejecting the first self-loop, unhashable or
    undeclared endpoint, or repeated edge, in input order."""
    n = len(labels)
    ids = dict(zip(labels, range(n)))
    ends: list[int] = []
    seen: set[int] = set()
    for u, v in edges:
        if u == v:
            raise NotATreeError(f"self-loop at {u!r}")
        try:  # `end` names the endpoint being looked up when one is unhashable
            a, b = ids.get(end := u), ids.get(end := v)
        except TypeError:
            raise NotATreeError(f"edge ({u!r}, {v!r}) has unhashable endpoint {end!r}") from None
        if a is None or b is None:
            raise NotATreeError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
        key = a * n + b if a < b else b * n + a
        if key in seen:
            raise NotATreeError(f"duplicate edge ({u!r}, {v!r})")
        seen.add(key)
        ends += a, b
    return ends[0::2], ends[1::2]


def _peel(n: int, us: Sequence[int], vs: Sequence[int]) -> tuple[array, array]:
    """Peel leaves, never vertex 0, first in first out from the initial leaves
    in id order: the removed vertices and the neighbours they left, as
    (children, parents) ids, each vertex after all of its own children, the
    order `_edge_state` folds. It comes out short of n - 1 pairs unless the
    n - 1 edges form a tree."""
    if us and not 0 <= min(chain(us, vs)) <= max(chain(us, vs)) < n:
        raise NotATreeError("an edge uses an undeclared vertex id")
    degree = [0] * n
    link = array("q", [0]) * n  # the XOR of each vertex's remaining neighbours' ids
    for u, v in zip(us, vs):
        degree[u] += 1
        degree[v] += 1
        link[u] ^= v
        link[v] ^= u
    children = array("q", [v for v in range(1, n) if degree[v] == 1])
    parents = array("q")
    push, record = children.append, parents.append
    for c in children:  # grows while it is read
        p = link[c]  # a leaf's one remaining neighbour
        link[p] ^= c
        d = degree[p] - 1
        degree[p] = d
        if p and d < 2:
            if not d:
                # p's last edge led to a leaf: the two are cut off from vertex
                # 0, and p's link now reads 0, which must not attach p to it.
                break
            push(p)
        record(p)
    return children, parents


def _csr(n: int, us: Sequence[int], vs: Sequence[int]) -> tuple[array, array]:
    """CSR adjacency: vertex i's neighbours, in edge order, are
    ``nbrs[offsets[i]:offsets[i + 1]]``."""
    degree = [0] * n
    for u in chain(us, vs):
        degree[u] += 1
    offsets = array("q", accumulate(degree, initial=0))
    free = array("q", offsets)
    nbrs = array("q", [0]) * offsets[-1]
    for u, v in zip(us, vs):
        nbrs[free[u]] = v
        free[u] += 1
        nbrs[free[v]] = u
        free[v] += 1
    return offsets, nbrs


def root_at(tree: Tree, root: Label) -> Tree:
    """`tree` with `root` as vertex 0, the vertex that validation's leaf peel
    keeps for last, so the dynamic program's fold ends there: the ids of
    `root` and of the first label trade places, and nothing else moves."""
    r = tree._id(root)
    if not r:
        return tree  # trees are immutable
    swap = list(range(tree.vertex_count))  # self-inverse: old id <-> new id
    swap[0], swap[r] = r, 0
    move = swap.__getitem__
    edges = _IdEdges(list(map(move, tree._us)), list(map(move, tree._vs)))
    return Tree(map(tree.labels.__getitem__, swap), edges)


def leaves(tree: Tree) -> set[Label]:
    """All vertices of degree at most one (the whole set for a single vertex)."""
    return {v for v in tree.labels if tree.degree(v) <= 1}


def parse_edge_list(text: str) -> Tree:
    """Parse edge-list text into a validated Tree.

    Format: an optional first significant line ``vertices: <labels...>``
    declaring labels (required for the 1-vertex tree), then one edge per
    line as two whitespace-separated labels. ``#`` starts a comment line.
    Labels are preserved verbatim as strings.
    """
    ids: dict[str, int] = {}  # label -> id, in order of first appearance
    ends: list[int] = []  # edge endpoints, two per edge
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "vertices:":
            if not header_allowed:
                raise ParseError(
                    f"line {lineno}: 'vertices:' header must be the first significant line"
                )
            for tok in tokens[1:]:
                if tok in ids:
                    raise ParseError(f"line {lineno}: duplicate vertex {tok!r} in header")
                ids[tok] = len(ids)
        elif len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {raw.strip()!r}")
        else:
            ends.append(ids.setdefault(tokens[0], len(ids)))
            ends.append(ids.setdefault(tokens[1], len(ids)))
        header_allowed = False
    if not ids:
        raise EmptyTreeError("no vertices declared")
    return Tree(ids, _IdEdges(ends[0::2], ends[1::2]))


def to_edge_list(tree: Tree) -> str:
    """Serialize deterministically: header with sorted labels, then edges
    sorted with each edge's endpoints sorted. Round-trips through
    :func:`parse_edge_list` with identical label and edge sets (labels are
    written as strings; the text format is string-typed)."""
    text = io.StringIO()
    write_edge_list(tree, text)
    return text.getvalue()


_LINES_PER_WRITE = 1 << 14


def write_edge_list(tree: Tree, handle: TextIO) -> None:
    """Write :func:`to_edge_list`'s text to `handle`, the edges in blocks of
    `_LINES_PER_WRITE` lines, so the whole text is never held at once."""
    labels = tree.labels
    n = len(labels)
    order = sorted(range(n), key=labels.__getitem__)
    rank = [0] * n  # the inverse permutation of order
    for r, i in enumerate(order):
        rank[i] = r
    names = [str(labels[i]) for i in order]
    # An edge sorts as the label ranks of its endpoints, packed low * n + high.
    ranked = zip(map(rank.__getitem__, tree._us), map(rank.__getitem__, tree._vs))
    keys = sorted(a * n + b if a < b else b * n + a for a, b in ranked)
    handle.write("vertices: " + " ".join(names) + "\n")
    for start in range(0, len(keys), _LINES_PER_WRITE):
        handle.write("".join([f"{names[k // n]} {names[k % n]}\n" for k in keys[start:start + _LINES_PER_WRITE]]))
