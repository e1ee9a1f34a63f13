"""Linear-time three-state dynamic program computing the domination number
of a tree together with the exact count of its minimum dominating sets.

Each vertex v, processed after all of its children, carries a state: the
6-tuple ``(s_size, s_count, d_size, d_count, y_size, y_count)`` of three
(size, count) pairs describing the cheapest ways to handle the subtree
below v:

* ``selected``:  v is in the set; the subtree is fully dominated.
* ``dominated``: v is not in the set but some selected child dominates it;
  the subtree is fully dominated.
* ``needy``:     v is not in the set and nothing below dominates it; the
  rest of the subtree is dominated, and v's parent must be selected.

Unreachable states carry size ``inf`` and count 0. `combine` is the one
place the per-vertex rule lives; the fold along a tree's edges
(`_edge_state`, for `dp_count` and random specs) and the folds straight
from a family's shape (`_spine_state` for paths with pendants,
`_deletion_state` for complete binary trees with deleted leaves) all call
it. The rule:

* selected(v): each child may be in any of its three states; take each
  child's minimum, summing sizes and multiplying tie-summed counts.
* needy(v): every child must be ``dominated`` (a selected child would
  dominate v; a needy child could never be dominated afterwards).
* dominated(v): children are ``selected`` or ``dominated`` with at least
  one selected. Folded child by child from (inf, 0): either an earlier
  child is already selected, and this child takes the cheaper of its
  ``selected`` and ``dominated`` states, or every earlier child is
  ``dominated`` (the running needy(v) pair) and this child is
  ``selected``. The cheaper option wins; on a size tie the counts add.

The running state after some of v's children is itself such a 6-tuple, so
`combine` can continue from it: `_edge_state` adds one child at a time, in
any order that reaches each vertex after all of its children.

The pairs form the (min, +, count) semiring: ⊕ keeps the smaller size and
adds the counts on a tie, ⊗ adds the sizes and multiplies the counts, and
``(inf, 0)`` is the zero. Over it, adding a child is linear twice: in the
child's state for a fixed running state, and in the running state for a
fixed child. So each such map is a 3×3 matrix, and `_matrix` reads it off
by probing `combine` with the three unit states, which keeps `combine` the
one copy of the rule. `_spine_state` takes a periodic spine as matrix
powers by squaring, in O(log n) products instead of n combines, and
refuses a product whose count could pass `_MAX_COUNT_BITS`.

Counts are exact unbounded integers. Every fold over a tree is
`_edge_state`: a built tree folds along the leaf peel that its validation
records, a random spec along its Prüfer decoding, which is a leaf peel too.
Neither recurses, so input size is not limited by the interpreter recursion
limit.
"""

from __future__ import annotations

from math import inf

from .tree import DominationSummary, Tree


def root_summary(state: tuple) -> DominationSummary:
    """Fold a root state, one of `combine`'s 6-tuples, into (gamma, zeta).
    The needy pair is excluded: nothing above the root could dominate it."""
    sel_size, sel_count, dom_size, dom_count = state[:4]
    best = sel_size if sel_size <= dom_size else dom_size
    count = 0
    if sel_size == best:
        count += sel_count
    if dom_size == best:
        count += dom_count
    return DominationSummary(int(best), count)


_LEAF_STATE = (1, 1, inf, 0, 0, 1)  # selected alone; never dominated; needy, nothing below


def combine(children, state: tuple = _LEAF_STATE) -> tuple:
    """A vertex's state from its children's states, each a 6-tuple
    ``(s_size, s_count, d_size, d_count, y_size, y_count)`` of its selected,
    dominated and needy pairs; ``combine(())`` is the leaf state.

    The fold over `children` continues from `state`, a vertex's running state
    after its earlier children, which is itself such a 6-tuple: so
    ``combine(A + B) == combine(B, combine(A))``.

    No size is ever added to ``inf``: an unreachable pair (count 0) stays
    ``(inf, 0)`` by branching. Sizes past 2^1024 would make ``inf + size``
    raise OverflowError, and level-compressed complete binary trees reach
    them from h ~ 1026 on. The result does not depend on the order of
    `children`.
    """
    # selected: each child in its cheapest state; dominated: some child so
    # far selected; needy: every child so far dominated
    s_size, s_count, d_size, d_count, y_size, y_count = state
    for ss, sc, ds, dc, ys, yc in children:
        # m: the child's cheaper of selected and dominated
        if ss < ds:
            m_size = ss
            m_count = sc
        elif ds < ss:
            m_size = ds
            m_count = dc
        else:
            m_size = ss
            m_count = sc + dc

        if ys < m_size:
            s_size += ys
            s_count *= yc
        elif ys == m_size:
            s_size += ys
            s_count *= m_count + yc
        else:
            s_size += m_size
            s_count *= m_count

        # Either an earlier child is already selected (d x m), or every
        # earlier child is dominated and this one is selected (y x ss).
        if d_count:
            d_size += m_size
            d_count *= m_count
        if y_count:
            up = y_size + ss
            if up < d_size:
                d_size = up
                d_count = y_count * sc
            elif up == d_size:
                d_count += y_count * sc
            if dc:
                y_size += ds
                y_count *= dc
            else:
                y_size = inf
                y_count = 0

    return (s_size, s_count, d_size, d_count, y_size, y_count)


def dp_count(tree: Tree) -> DominationSummary:
    """Exact (gamma, zeta) of a tree in time linear in the vertex count.

    The fold runs along the leaf peel that validation recorded, which ends
    at vertex 0; :func:`~dominion.tree.root_at` moves another vertex there.
    The result is independent of the root.
    """
    return root_summary(_root_state(tree))


def _root_state(tree: Tree) -> tuple:
    """Vertex 0's state, folded along the leaf peel that validation recorded."""
    return _edge_state(tree.vertex_count, *tree._order)


# The most bits a count in a spine fold may have: a product that could pass
# it is refused before it is formed. Time, not memory, sets it. The costliest
# kinds per count bit are the alternating combs, whose block matrix is dense:
# `compute alt-odd:n=12000000` (a 4.17M-bit count) took 6.0 s at 24 MB, and
# alt-odd:n=24000000 (8.3M bits) 18.6 s at 31 MB; `compute comb:n=4194300`
# took 0.44 s at 23 MB, and comb:n=2^26 7.8 s at 121 MB (2-vCPU VM). Time
# grows as bits^1.6, the cost of Karatsuba products.
_MAX_COUNT_BITS = 1 << 22

_ZERO = (inf, 0)  # the unreachable pair: ⊕'s identity, ⊗'s absorbing element
# the selected, dominated and needy pair at size 0 in one way, the others unreachable
_UNITS = ((0, 1, inf, 0, inf, 0), (inf, 0, 0, 1, inf, 0), (inf, 0, inf, 0, 0, 1))


def _check_count_bits(bits: int) -> None:
    """Refuse a count that may have `bits` bits, past `_MAX_COUNT_BITS`, before
    it is formed; the spine fold and the closed forms share it."""
    if bits > _MAX_COUNT_BITS:
        from .errors import TooLargeError

        raise TooLargeError(f"the count of minimum dominating sets would pass the limit of {_MAX_COUNT_BITS} bits")


def _plus(a: tuple, b: tuple) -> tuple:
    """⊕ of two (size, count) pairs: the smaller size; on a tie the counts add."""
    if not b[1] or a[1] and a[0] < b[0]:
        return a
    if not a[1] or b[0] < a[0]:
        return b
    return (a[0], a[1] + b[1])


def _times(a: tuple, b: tuple) -> tuple:
    """⊗ of two (size, count) pairs: the sizes add and the counts multiply.
    An unreachable factor gives ``(inf, 0)`` by branching, so no size is
    added to ``inf`` (see `combine`)."""
    if not (a[1] and b[1]):
        return _ZERO
    _check_count_bits(a[1].bit_length() + b[1].bit_length())
    return (a[0] + b[0], a[1] * b[1])


def _apply(m: tuple, v: tuple) -> tuple:
    """m v for a matrix m, a tuple of rows, and a vector v, each of 3 pairs."""
    out = []
    for row in m:
        total = _ZERO
        for a, b in zip(row, v):
            total = _plus(total, _times(a, b))
        out.append(total)
    return tuple(out)


def _product(x: tuple, y: tuple) -> tuple:
    """The matrix product x y, as the columns of y mapped by x."""
    return tuple(zip(*(_apply(x, column) for column in zip(*y))))


def _power_apply(m: tuple, k: int, v: tuple) -> tuple:
    """m^k v, by squaring: O(log k) products."""
    while k:
        if k & 1:
            v = _apply(m, v)
        k >>= 1
        if k:
            m = _product(m, m)
    return v


def _pairs(state: tuple) -> tuple:
    """A 6-tuple state as its (selected, dominated, needy) pairs."""
    return state[0:2], state[2:4], state[4:6]


def _matrix(step) -> tuple:
    """The matrix of `step`, a map between states that is linear over the
    semiring: its column j is `step` of the j-th unit state."""
    return tuple(zip(*(_pairs(step(unit)) for unit in _UNITS)))


def _spine_state(n: int, hosts: range, pendants: int) -> tuple:
    """Root state of the path v1..vn rooted at v1, with `pendants` leaves on
    each vertex whose id (v(i+1) has id i) is in `hosts`.

    The spine is a product of matrices from v1 down, applied to a child
    that changes nothing (dominated at size 0): each path vertex maps its
    spine child's state by the host's or the plain vertex's spine-child
    map. The hosts split the product into a plain prefix, one repeated
    block (a host and step - 1 plain vertices) and a plain suffix, each a
    power. A host's own state is the leaf state with the leaf-child map
    applied `pendants` times."""
    add_leaf = _matrix(lambda state: combine((_LEAF_STATE,), state))
    host_state = sum(_power_apply(add_leaf, pendants, _pairs(_LEAF_STATE)), ())
    host = _matrix(lambda child: combine((child,), host_state))
    plain = _matrix(lambda child: combine((child,), _LEAF_STATE))
    state, prefix = _pairs(_UNITS[1]), n
    if hosts:
        block = host
        for _ in range(hosts.step - 1):
            block = _product(block, plain)
        state = _apply(host, _power_apply(plain, n - 1 - hosts[-1], state))
        state, prefix = _power_apply(block, len(hosts) - 1, state), hosts[0]
    return sum(_power_apply(plain, prefix, state), ())


def _edge_state(n: int, us, vs) -> tuple:
    """Root state of the n-vertex tree whose edge i joins the child us[i] to
    its parent vs[i], listed so that each vertex is a child only after all of
    its own children are: the root is vs[-1], or vertex 0 if n is 1."""
    # A child's state is dropped once its parent has taken it. Kept, the
    # states of random:n=250000 peaked at 58-61 MB instead of 37 MB, and the
    # fold took 0.28-0.40 s instead of 0.21-0.35 s (2-vCPU VM).
    state = [_LEAF_STATE] * n
    for c, p in zip(us, vs):
        state[p] = combine((state[c],), state[p])
        state[c] = None
    return state[vs[-1] if vs else 0]


def _deletion_state(h: int, hits) -> tuple:
    """Root state of the height-h complete binary tree after deleting, below
    each level-(h-1) parent index p, hits[p] (1 or 2) of its leaves."""
    by_loss = {1: combine((_LEAF_STATE,)), 2: _LEAF_STATE}  # a bottom parent losing 1 or 2 children
    touched = {p: by_loss[c] for p, c in hits.items()}
    rest = combine((_LEAF_STATE, _LEAF_STATE))  # every untouched vertex on touched's level
    for _ in range(h - 1):
        touched = {
            p: combine((touched.get(2 * p, rest), touched.get(2 * p + 1, rest)))
            for p in {k >> 1 for k in touched}
        }
        rest = combine((rest, rest))
    return touched.get(1, rest)
