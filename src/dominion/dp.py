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


def _spine_state(n: int, hosts: range, pendants: int) -> tuple:
    """Root state of the path v1..vn rooted at v1, with `pendants` leaves on
    each vertex whose id (v(i+1) has id i) is in `hosts`."""
    # The spine child goes last: with it first, the big-int products come in
    # another order, and comb:n=100000 folded in 2.3 s instead of 1.0 s
    # (2-vCPU VM).
    leaves = (_LEAF_STATE,) * pendants
    state = combine(leaves if n - 1 in hosts else ())
    for i in range(n - 2, -1, -1):
        state = combine((*leaves, state) if i in hosts else (state,))
    return state


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
