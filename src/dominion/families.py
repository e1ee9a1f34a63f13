"""Deterministic generators for the analyzed tree families, plus uniformly
random labeled trees for cross-validation corpora.

Label schemes (fixed so that witness sets are readable by eye):

* paths: ``v1 .. vn``
* pendants: ``l<i>_<j>`` for the j-th pendant of ``v<i>`` (multi-pendant
  families) or ``l<i>`` when each host carries a single pendant
* stars: center ``c`` with leaves ``u1 .. um``
* complete binary trees: heap labels ``b1 .. b(2^(h+1)-1)`` where ``bk``
  has children ``b(2k)`` and ``b(2k+1)``; level of ``bk`` is floor(log2 k)
* random trees: ``n1 .. nN``

`FAMILIES` is the one table of kinds. Each kind builds its tree, gives its
vertex count from a formula, and folds the dynamic program's root state
straight from the spec, with no tree built: the path kinds and stars along
their spine, binary trees level by level, and random trees along the
Prüfer decoding that also builds them. `FamilySpec` checks every kind's
parameters and `build_tree` is the one way to build one; the public builders
are shortcuts into both. Every command meets the checks in one order: the
grammar; each parameter's type and range, then the ``delete=`` labels
(`FamilySpec`, the labels by `_hits`); a binary height past `_MAX_HEIGHT`
(`size`, `fold`); then `_MAX_VERTICES`, before anything is allocated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple

from .dp import _deletion_state, _edge_state, _spine_state
from .errors import (
    InvalidParameterError,
    NotALeafError,
    NotALevelLeafError,
    ParseError,
    TooLargeError,
    UnknownVertexError,
    WouldBeEmptyError,
)
from .rng import SplitMix64
from .tree import Tree, _IdEdges

# The most vertices a spec may build, or fold through its Prüfer decoding.
# `generate`, which costs the most per vertex, peaks at 190-210 bytes per
# vertex (binary:h=20: 398 MB; random:n=2097152: 441 MB), so a spec at the
# limit costs about 0.9 GB; binary:h=20, 2^21 - 1 vertices, fits twice over.
_MAX_VERTICES = 1 << 22

# The greatest height a binary spec or a leaf-deletion report may have. The
# level fold adds h-bit sizes over h levels, so its time grows as h^2:
# `compute binary:h=100000` took 3.0 s, h=200000 8.9 s, and h=262144, the
# limit, 15 s at 17 MB; 2^20 would take about 4 minutes. Without it, 2^h
# itself runs out of memory from h ~ 10^10 on.
_MAX_HEIGHT = 1 << 18


class _Pendants(NamedTuple):
    """The pendant leaves of a path kind: `per_host` leaves on each path
    vertex whose id is in `hosts` (v(i+1) has id i), labelled ``l<i>_<j>``
    when `numbered`, else ``l<i>``; `dp._spine_state` takes its first two fields."""

    hosts: range
    per_host: int = 1
    numbered: bool = False

    @property
    def total(self) -> int:
        hosts = self.hosts  # counted, not len(): that overflows past 2^63 - 1
        return ((hosts[-1] - hosts[0]) // hosts.step + 1) * self.per_host if hosts else 0


def _path_with_pendants(n: int, pendants: _Pendants) -> Tree:
    """Path v1..vn plus the pendant leaves that `pendants` describes."""
    hosts, r = pendants.hosts, pendants.per_host
    if pendants.numbered:
        names = [f"l{i + 1}_{j}" for i in hosts for j in range(1, r + 1)]
    else:
        names = [f"l{i + 1}" for i in hosts]
    labels = [f"v{i}" for i in range(1, n + 1)] + names
    us = [*range(n - 1), *(i for i in hosts for _ in range(r))]
    return Tree(labels, _IdEdges(us, range(1, len(labels))))


def _star(spec: FamilySpec) -> Tree:
    """Star with center c and leaves u1..um."""
    return Tree(["c"] + [f"u{i}" for i in range(1, spec.m + 1)], _IdEdges([0] * spec.m, range(1, spec.m + 1)))


def _binary_tree(spec: FamilySpec) -> Tree:
    """Complete binary tree of height h with heap labels b1..b(2^(h+1)-1),
    less the spec's deleted leaves."""
    size = (2 << spec.h) - 1
    parents = range(size // 2)  # heap id k - 1 has children 2k - 1 and 2k
    us = list(chain.from_iterable(zip(parents, parents)))
    tree = Tree([f"b{k}" for k in range(1, size + 1)], _IdEdges(us, range(1, size)))
    return delete_leaves(tree, spec.deleted_leaves)


def level_labels(h: int, level: int) -> list[str]:
    """Heap labels at the given level of the height-h complete binary tree."""
    if not 0 <= level <= h:
        raise InvalidParameterError(f"level {level} out of range for height {h}")
    return [f"b{k}" for k in range(1 << level, 1 << (level + 1))]


def _hits(h: int, deleted) -> Counter:
    """Level-(h-1) parent index -> how many of its children are in the label
    set `deleted`. This is the one leaf-label check: each label must be
    ``b<k>``, k a level-h heap index spelt as str(k). Otherwise a label that
    is not a level-h leaf even as int() reads it is named before a misspelt
    one (``b08``, non-ASCII digits), the least in str order; only this
    failure path sorts."""
    try:
        indices = [int(label[1:]) for label in deleted]
    except (TypeError, ValueError):  # not a number, or past int()'s 4300-digit limit (leaves from h = 14284 on)
        indices = []
    if (len(indices) == len(deleted) and all(k >> h == 1 for k in indices)  # 2^h <= k < 2^(h+1), without 2^h
            and all(label == f"b{k}" for label, k in zip(deleted, indices))):
        return Counter(k >> 1 for k in indices)

    def reads_as_leaf(label) -> bool:
        try:
            return label[:1] == "b" and label[1:].isdigit() and int(label[1:]) >> h == 1
        except (TypeError, ValueError):
            return False

    labels = sorted(deleted, key=str)
    for label in labels:
        if not reads_as_leaf(label):
            raise NotALevelLeafError(f"{label!r} is not a level-{h} leaf of the height-{h} tree")
    raise UnknownVertexError(f"no vertex {next(label for label in labels if label != f'b{int(label[1:])}')!r}")


def _check_height(h: int) -> None:
    """Refuse a height past `_MAX_HEIGHT`, before 2^h is formed."""
    if h > _MAX_HEIGHT:
        raise TooLargeError(f"height {h} is more than the limit of {_MAX_HEIGHT}")


def _binary_size(spec: FamilySpec) -> int:
    """Vertex count of a binary spec, its height checked first."""
    _check_height(spec.h)
    return (2 << spec.h) - 1 - len(spec.deleted_leaves)


def _binary_fold(spec: FamilySpec) -> tuple:
    """Root state of a binary spec, from the level fold."""
    _check_height(spec.h)
    return _deletion_state(spec.h, _hits(spec.h, spec.deleted_leaves))


def delete_leaves(tree: Tree, victims) -> Tree:
    """Induced subtree on the remaining vertices after deleting the given
    leaves of `tree`. The victims must all be leaves of the original tree
    and must not be the whole vertex set."""
    victims = set(victims)
    if not victims:
        return tree  # trees are immutable
    for x in victims:
        if tree.degree(x) > 1:
            raise NotALeafError(f"{x!r} has degree {tree.degree(x)}")
    if len(victims) == tree.vertex_count:
        raise WouldBeEmptyError("deleting every vertex leaves no tree")
    gone = set(map(tree._id, victims))
    kept = [i for i in range(tree.vertex_count) if i not in gone]
    new_id = dict(zip(kept, range(len(kept))))
    pairs = [e for e in zip(tree._us, tree._vs) if gone.isdisjoint(e)]
    edges = _IdEdges([new_id[u] for u, _ in pairs], [new_id[v] for _, v in pairs])
    return Tree(map(tree.labels.__getitem__, kept), edges)


def _pruefer_edges(n: int, seed: int) -> _IdEdges:
    """The edges of `random_tree(n, seed)` as (child, parent) ids, rooted at
    n - 1, in the order the Prüfer decoding removes the children: the parent
    of the leaf removed at step i is seq[i], and every vertex is removed
    after all of its own children. No edges when n is 1."""
    if n == 1:
        return _IdEdges([], [])
    seq = SplitMix64(seed)._below_each(n, n - 2)
    degree = [1] * n
    for a in seq:
        degree[a] += 1
    # Linear-time decoding: `leaf` is the smallest leaf; new ones past `first` are scanned for.
    first = leaf = degree.index(1)
    us: list[int] = []
    for a in seq:
        us.append(leaf)
        degree[a] -= 1
        if degree[a] == 1 and a < first:
            leaf = a
        else:
            first = leaf = degree.index(1, first + 1)
    us.append(leaf)
    seq.append(n - 1)
    return _IdEdges(us, seq)


def _random_fold(spec: FamilySpec) -> tuple:
    """Root state of a random spec, at n{N}, folded along its Prüfer decoding."""
    _check_size(spec)
    return _edge_state(spec.n, *_pruefer_edges(spec.n, spec.seed))


class Family(NamedTuple):
    """One family kind: its spec parameters as written, in canonical order;
    its generator; `size(spec)`, the generated tree's vertex count from a
    formula; `fold(spec)`, the DP's root state without building the tree, at
    any root of the built tree; and the least `n` it accepts."""

    params: tuple[str, ...]
    build: Callable[[FamilySpec], Tree]
    size: Callable[[FamilySpec], int]
    fold: Callable[[FamilySpec], tuple]
    min_n: int = 1


def _path_kind(params: tuple[str, ...], pendants, min_n: int = 1) -> Family:
    """A path kind whose pendant leaves `pendants(spec)` describes, once for
    the build, the size and the fold."""
    return Family(params, lambda s: _path_with_pendants(s.n, pendants(s)),
                  lambda s: s.n + pendants(s).total, lambda s: _spine_state(s.n, *pendants(s)[:2]), min_n)


# The one table of family kinds. Adding a kind means one entry here and,
# if it has a closed form, one entry in `closed_form.FORMULAS`.
FAMILIES = {
    "uniform": _path_kind(("n", "r"), lambda s: _Pendants(range(s.n), s.r, numbered=True)),
    "comb": _path_kind(("n",), lambda s: _Pendants(range(s.n), 1, numbered=True)),
    "interior": _path_kind(("n",), lambda s: _Pendants(range(1, s.n - 1)), min_n=2),
    "alt-even": _path_kind(("n",), lambda s: _Pendants(range(1, s.n, 2)), min_n=2),
    "alt-odd": _path_kind(("n",), lambda s: _Pendants(range(0, s.n, 2)), min_n=2),
    # a star's fold is that of a one-vertex spine with m pendants
    "star": Family(("m",), _star, lambda s: s.m + 1, lambda s: _spine_state(1, range(1), s.m)),
    "binary": Family(("h",), _binary_tree, _binary_size, _binary_fold),
    "path": _path_kind(("n",), lambda s: _Pendants(range(0))),
    "random": Family(("n", "seed"),
                     lambda s: Tree([f"n{i}" for i in range(1, s.n + 1)], _pruefer_edges(s.n, s.seed)),
                     lambda s: s.n, _random_fold),
}
KINDS = tuple(FAMILIES)
_FIELDS = ("n", "m", "r", "h", "seed")  # FamilySpec's parameters, in the order they are checked


def format_leaf_set(labels) -> str:
    """Checked heap labels in heap order (shorter first), joined as in ``delete=b8+b11``."""
    return "+".join(sorted(labels, key=lambda s: (len(s), s)))


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a generatable tree family.

    Canonical string form (also the CLI grammar): ``uniform:n=4,r=2``,
    ``comb:n=4``, ``interior:n=6``, ``alt-even:n=6``, ``alt-odd:n=3``,
    ``star:m=5``, ``binary:h=3``, ``binary:h=3,delete=b8+b11``,
    ``path:n=7``, ``random:n=12,seed=42``; each parameter is its own field.
    """

    kind: str
    n: int | None = None
    m: int | None = None
    r: int | None = None
    h: int | None = None
    seed: int | None = None
    deleted_leaves: frozenset[str] = frozenset()

    def __post_init__(self):
        family = FAMILIES.get(self.kind)
        if family is None:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        for name in _FIELDS:
            value = getattr(self, name)
            if name not in family.params:
                if value is not None:
                    raise InvalidParameterError(f"{self.kind} does not take parameter {name}")
            elif value is None:
                raise InvalidParameterError(f"{self.kind} requires parameter {name}")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParameterError(f"parameter {name!r} must be an integer, got {value!r}")
        if not isinstance(self.deleted_leaves, frozenset):  # a repeated label would count twice
            raise InvalidParameterError(f"deleted_leaves must be a frozenset, got {self.deleted_leaves!r}")
        if self.deleted_leaves and self.kind != "binary":
            raise InvalidParameterError(f"{self.kind} does not take deleted leaves")
        if self.n is not None and self.n < family.min_n:
            raise InvalidParameterError(f"{self.kind} needs n >= {family.min_n}")
        if self.m is not None and self.m < 1:
            raise InvalidParameterError("star needs m >= 1")
        if self.r is not None and self.r < 1:
            raise InvalidParameterError("r must be >= 1")
        if self.h is not None and self.h < 1:
            raise InvalidParameterError("h must be >= 1")
        if self.deleted_leaves:
            _hits(self.h, self.deleted_leaves)

    def spec_string(self) -> str:
        """Canonical string form; `parse_family_spec` is its inverse."""
        body = ",".join(f"{p}={getattr(self, p)}" for p in FAMILIES[self.kind].params)
        if self.deleted_leaves:
            body += ",delete=" + format_leaf_set(self.deleted_leaves)
        return f"{self.kind}:{body}"


def _leaf_set(text: str) -> frozenset[str]:
    """The labels of a leaf list such as ``b8+b11``, as ``delete=`` and
    ``perturb --delete`` write it; a label written twice is a ParseError,
    as a repeated parameter is."""
    labels: set[str] = set()
    for label in text.split("+"):
        if label in labels:
            raise ParseError(f"leaf {label!r} is named more than once")
        labels.add(label)
    return frozenset(labels)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical family grammar into a validated FamilySpec."""
    kind, colon, rest = text.partition(":")
    kind = kind.strip()
    if not colon or kind not in FAMILIES:
        raise ParseError(f"not a family spec: {text!r}")
    params: dict[str, str] = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key or not value:
                raise ParseError(f"malformed parameter {item!r} in {text!r}")
            if key in params:
                raise ParseError(f"duplicate parameter {key!r} in {text!r}")
            params[key] = value
    fields: dict[str, object] = {}
    for key, value in params.items():
        if key == "delete":
            fields["deleted_leaves"] = _leaf_set(value)
            continue
        if key not in _FIELDS or key == "m" and kind != "star":  # m is star's alone
            raise ParseError(f"unknown parameter {key!r} for {kind!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise ParseError(f"parameter {key!r} must be an integer, got {value!r}") from None
    if "deleted_leaves" in fields and kind != "binary":
        raise ParseError(f"delete= is only valid for binary, not {kind!r}")
    return FamilySpec(kind=kind, **fields)


def _check_size(spec: FamilySpec) -> None:
    """Refuse a spec with more than `_MAX_VERTICES` vertices before anything
    is allocated; a binary spec's `size` refuses its height first."""
    if FAMILIES[spec.kind].size(spec) > _MAX_VERTICES:
        raise TooLargeError(f"{spec.spec_string()} has more vertices than the limit of {_MAX_VERTICES}")


def build_tree(spec: FamilySpec) -> Tree:
    """Generate the tree described by `spec`; TooLargeError if it has more
    than `_MAX_VERTICES` vertices."""
    _check_size(spec)
    return FAMILIES[spec.kind].build(spec)


def make_path(n: int) -> Tree:
    """Path v1 - v2 - ... - vn."""
    return build_tree(FamilySpec("path", n=n))


def make_uniform_pendant(n: int, r: int) -> Tree:
    """Path v1..vn with r pendant leaves l<i>_1 .. l<i>_r on every vi."""
    return build_tree(FamilySpec("uniform", n=n, r=r))


def make_interior_pendant(n: int) -> Tree:
    """Path v1..vn with one pendant l<i> on each interior vertex v2..v(n-1)."""
    return build_tree(FamilySpec("interior", n=n))


def make_alternating(n: int, parity: str) -> Tree:
    """Path v1..vn with one pendant l<i> on each even-indexed (parity
    ``"even"``) or odd-indexed (parity ``"odd"``) vertex."""
    if parity not in ("even", "odd"):
        raise InvalidParameterError(f"parity must be 'even' or 'odd', got {parity!r}")
    return build_tree(FamilySpec(f"alt-{parity}", n=n))


def make_star(m: int) -> Tree:
    """Star with center c and leaves u1..um."""
    return build_tree(FamilySpec("star", m=m))


def make_complete_binary(h: int) -> Tree:
    """Complete binary tree of height h with heap labels b1..b(2^(h+1)-1)."""
    return build_tree(FamilySpec("binary", h=h))


def random_tree(n: int, seed: int) -> Tree:
    """Uniformly random labeled tree on n1..nN, decoded from a random
    Prüfer sequence drawn with :class:`SplitMix64`. Same (n, seed) always
    yields the same tree."""
    return build_tree(FamilySpec("random", n=n, seed=seed))
