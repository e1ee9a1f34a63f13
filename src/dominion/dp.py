"""Linear-time three-state dynamic program computing the domination number
of a tree together with the exact count of its minimum dominating sets.

Each vertex v, processed in postorder, carries three (size, count) pairs
describing the cheapest ways to handle the subtree below v:

* ``selected``:  v is in the set; the subtree is fully dominated.
* ``dominated``: v is not in the set but some selected child dominates it;
  the subtree is fully dominated.
* ``needy``:     v is not in the set and nothing below dominates it; the
  rest of the subtree is dominated, and v's parent must be selected.

Unreachable states carry size ``inf`` and count 0. Combination rules:

* selected(v): each child may be in any of its three states; take each
  child's minimum, summing sizes and multiplying tie-summed counts.
* needy(v): every child must be ``dominated`` (a selected child would
  dominate v; a needy child could never be dominated afterwards).
* dominated(v): children are ``selected`` or ``dominated`` with at least
  one selected. Computed complementarily: take each child's cheaper of the
  two options; if the all-dominated assignment ties that optimum, subtract
  its count, and if nothing remains, pay the cheapest single upgrade of
  one child to ``selected`` (counts summed over the children attaining
  that cheapest upgrade).

Counts are exact unbounded integers. The traversal is iterative, so input
size is not limited by the interpreter recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .tree import DominationSummary, RootedTree, Tree

StatePair = tuple  # (size: int | inf, count: int), count == 0 iff size == inf


@dataclass(frozen=True)
class DpState:
    """The three (size, count) pairs of one vertex."""

    selected: StatePair
    dominated: StatePair
    needy: StatePair


def root_summary(state: DpState) -> DominationSummary:
    """Fold a root state into (gamma, zeta). The needy state is excluded:
    nothing above the root could dominate it."""
    sel_size, sel_count = state.selected
    dom_size, dom_count = state.dominated
    best = sel_size if sel_size <= dom_size else dom_size
    count = 0
    if sel_size == best:
        count += sel_count
    if dom_size == best:
        count += dom_count
    return DominationSummary(int(best), count)


def dp_count(tree: Tree | RootedTree) -> DominationSummary:
    """Exact (gamma, zeta) of a tree in time linear in the vertex count.

    Accepts a RootedTree, or a Tree, which is folded along the depth-first
    traversal from its first label that validation recorded; the result is
    independent of the root.
    """
    return root_summary(_root_state(tree))


def _root_state(rooted: Tree | RootedTree) -> DpState:
    # Postorder lists each parent's children, in order, directly before any
    # later sibling subtree, so a parent's child states are exactly the top
    # k entries of a running stack. Every combination rule below is
    # symmetric in the children, so consuming them in reversed (pop) order
    # is safe. The hot loop therefore needs only the child counts along the
    # postorder, keeping its working set cache-resident even for trees with
    # millions of vertices.
    counts = rooted._postorder_child_counts
    if counts is None:  # hand-built RootedTree without traversal metadata
        counts = list(map(len, map(rooted.children.__getitem__, rooted.postorder)))
    stack: list = []
    push = stack.append
    pop = stack.pop
    leaf_state = (1, 1, inf, 0, 0, 1)

    for k in counts:
        if not k:
            push(leaf_state)
            continue

        s_size = 1
        s_count = 1
        y_size = 0
        y_count = 1
        a_size = 0  # per-child min(selected, dominated), ignoring >=1-selected
        a_count = 1
        all_dom_size = 0
        all_dom_count = 1
        # Cheapest single upgrade of one child to selected, maintained
        # incrementally: delta_count carries, for each child attaining
        # delta, its selected count times the dominated counts of the
        # other children seen so far; later children scale it by their
        # dominated counts.
        delta = inf
        delta_count = 0
        for _ in range(k):
            ss, sc, ds, dc, ys, yc = pop()

            best = ss
            cnt = sc
            if ds < best:
                best = ds
                cnt = dc
            elif ds == best:
                cnt += dc
            if ys < best:
                best = ys
                cnt = yc
            elif ys == best:
                cnt += yc
            s_size += best
            s_count *= cnt

            y_size += ds
            y_count *= dc

            if ss < ds:
                a_size += ss
                a_count *= sc
            elif ds < ss:
                a_size += ds
                a_count *= dc
            else:
                a_size += ss
                a_count *= sc + dc

            if dc:  # dead weight otherwise: an unreachable child state kills
                delta_count *= dc  # the all-dominated assignment entirely
                step = ss - ds
                if step < delta:
                    delta = step
                    delta_count = sc * all_dom_count
                elif step == delta:
                    delta_count += sc * all_dom_count
            all_dom_size += ds
            all_dom_count *= dc

        if all_dom_count and all_dom_size == a_size:
            remaining = a_count - all_dom_count
            if remaining:
                d_size, d_count = a_size, remaining
            else:
                # Every child is strictly cheaper dominated than selected;
                # pay the cheapest single upgrade to get a selected child.
                d_size, d_count = a_size + delta, delta_count
        else:
            d_size, d_count = a_size, a_count

        if not y_count:
            y_size = inf
        push((s_size, s_count, d_size, d_count, y_size, y_count))

    ss, sc, ds, dc, ys, yc = stack[-1]
    return DpState((ss, sc), (ds, dc), (ys, yc))
