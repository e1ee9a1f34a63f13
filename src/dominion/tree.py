"""Canonical tree data model: validated undirected trees, rooted views, and
edge-list text I/O.

Labels are opaque identifiers (strings from the parser and the generators;
integers are accepted programmatically). All labels of one tree must be
mutually orderable, since child ordering and serialization sort by label.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable

from .errors import EmptyTreeError, NotATreeError, ParseError, UnknownVertexError

Label = Hashable


@dataclass(frozen=True)
class DominationSummary:
    """Domination number `gamma` and the exact number `zeta` of dominating
    sets of that minimum size. `zeta` is a plain Python int and therefore
    unbounded; serialize it as a decimal string."""

    gamma: int
    zeta: int


class Tree:
    """Undirected tree, validated at construction.

    Rejects anything that is not a tree: zero vertices, duplicate labels,
    self-loops, duplicate edges, undeclared endpoints, wrong edge count,
    cycles, disconnection, and labels that cannot be ordered against each
    other. Immutable after construction and safe to share
    across threads.
    """

    __slots__ = ("labels", "edges", "_adj")

    def __init__(self, labels: Iterable[Label], edges: Iterable[tuple[Label, Label]]):
        labels = tuple(labels)
        edges = tuple((u, v) for u, v in edges)
        if not labels:
            raise EmptyTreeError("a tree needs at least one vertex")
        if len(set(labels)) != len(labels):
            raise NotATreeError("vertex labels are not distinct")
        if len(edges) != len(labels) - 1:
            raise NotATreeError(
                f"{len(labels)} vertices need {len(labels) - 1} edges, got {len(edges)}"
            )
        adj: dict[Label, list[Label]] = {v: [] for v in labels}
        seen: set[tuple[Label, Label]] = set()
        seen_add = seen.add
        try:
            for u, v in edges:
                if u == v:
                    raise NotATreeError(f"self-loop at {u!r}")
                if u not in adj or v not in adj:
                    raise NotATreeError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
                key = (u, v) if u <= v else (v, u)
                if key in seen:
                    raise NotATreeError(f"duplicate edge ({u!r}, {v!r})")
                seen_add(key)
                adj[u].append(v)
                adj[v].append(u)
        except TypeError:  # from `u <= v` on labels of unorderable types
            raise NotATreeError("vertex labels must be mutually orderable") from None
        del seen
        # Edge count matches, so connectivity alone rules out cycles.
        visited = {labels[0]}
        visited_add = visited.add
        stack = [labels[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in visited:
                    visited_add(nb)
                    stack.append(nb)
        if len(visited) != len(labels):
            raise NotATreeError("graph is disconnected")
        self.labels = labels
        self.edges = edges
        self._adj = {v: tuple(nbs) for v, nbs in adj.items()}

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def neighbors(self, v: Label) -> tuple[Label, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"no vertex {v!r}") from None

    def degree(self, v: Label) -> int:
        return len(self.neighbors(v))

    def __repr__(self) -> str:
        return f"Tree({self.vertex_count} vertices)"


class RootedTree:
    """A tree plus a designated root, with parent/children maps and a
    postorder that lists every child before its parent.

    Children are ordered by sorted label, which makes every downstream count
    and enumeration deterministic. Build instances with :func:`root_at`.
    """

    __slots__ = ("base", "root", "parent", "children", "postorder", "_postorder_child_counts")

    def __init__(
        self,
        base: Tree,
        root: Label,
        parent: dict[Label, Label],
        children: dict[Label, tuple[Label, ...]],
        postorder: tuple[Label, ...],
        _postorder_child_counts: tuple[int, ...] | None = None,
    ):
        self.base = base
        self.root = root
        self.parent = parent
        self.children = children
        self.postorder = postorder
        # Derived traversal metadata (child count per postorder position),
        # precomputed by root_at so consumers need not re-walk `children`.
        self._postorder_child_counts = _postorder_child_counts

    def __repr__(self) -> str:
        return f"RootedTree({self.base.vertex_count} vertices, root={self.root!r})"


def root_at(tree: Tree, root: Label) -> RootedTree:
    """Root `tree` at `root`, ordering each vertex's children by sorted label."""
    adj = tree._adj
    if root not in adj:
        raise UnknownVertexError(f"no vertex {root!r}")
    parent: dict[Label, Label] = {}
    parent_get = parent.get
    children: dict[Label, tuple[Label, ...]] = {}
    queue = deque((root,))
    while queue:
        v = queue.popleft()
        p = parent_get(v)
        kids = [nb for nb in adj[v] if nb != p]
        if len(kids) > 1:
            kids.sort()
        kids = tuple(kids)
        children[v] = kids
        for c in kids:
            parent[c] = v
        queue.extend(kids)
    # Reversing a right-to-left preorder yields the left-to-right postorder.
    stack = [root]
    post: list[Label] = []
    counts: list[int] = []
    while stack:
        v = stack.pop()
        kids = children[v]
        post.append(v)
        counts.append(len(kids))
        stack.extend(kids)
    post.reverse()
    counts.reverse()
    return RootedTree(tree, root, parent, children, tuple(post), tuple(counts))


def leaves(tree: Tree) -> set[Label]:
    """All vertices of degree at most one (the whole set for a single vertex)."""
    return {v for v in tree.labels if len(tree._adj[v]) <= 1}


def parse_edge_list(text: str) -> Tree:
    """Parse edge-list text into a validated Tree.

    Format: an optional first significant line ``vertices: <labels...>``
    declaring labels (required for the 1-vertex tree), then one edge per
    line as two whitespace-separated labels. ``#`` starts a comment line.
    Labels are preserved verbatim as strings.
    """
    labels: list[str] = []
    known: set[str] = set()
    edges: list[tuple[str, str]] = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertices:":
            if not header_allowed:
                raise ParseError(
                    f"line {lineno}: 'vertices:' header must be the first significant line"
                )
            for tok in tokens[1:]:
                if tok in known:
                    raise ParseError(f"line {lineno}: duplicate vertex {tok!r} in header")
                known.add(tok)
                labels.append(tok)
            header_allowed = False
            continue
        header_allowed = False
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {line!r}")
        u, v = tokens
        for tok in (u, v):
            if tok not in known:
                known.add(tok)
                labels.append(tok)
        edges.append((u, v))
    if not labels:
        raise EmptyTreeError("no vertices declared")
    return Tree(labels, edges)


def to_edge_list(tree: Tree) -> str:
    """Serialize deterministically: header with sorted labels, then edges
    sorted with each edge's endpoints sorted. Round-trips through
    :func:`parse_edge_list` with identical label and edge sets (labels are
    written as strings; the text format is string-typed)."""
    lines = ["vertices: " + " ".join(str(v) for v in sorted(tree.labels))]
    normalized = sorted((u, v) if u <= v else (v, u) for u, v in tree.edges)
    lines.extend(f"{u} {v}" for u, v in normalized)
    return "\n".join(lines) + "\n"
