"""Exact domination numbers and minimum-dominating-set counts for trees.

The library computes gamma (the minimum size of a dominating set) and zeta
(the exact number of dominating sets of that size) for arbitrary trees via
a linear-time dynamic program, for the generated families via closed
forms, and for small trees via an exhaustive oracle. A perturbation engine
reports how zeta of a complete binary tree reacts to bottom-leaf
deletions.
"""

from .closed_form import (
    alternating_summary,
    binary_summary,
    fibonacci,
    interior_pendant_summary,
    star_summary,
    summary_for,
    uniform_pendant_summary,
)
from .dp import dp_count, root_summary
from .errors import (
    DominionError,
    EmptyTreeError,
    InvalidParameterError,
    MismatchError,
    NoClosedFormError,
    NotALeafError,
    NotALevelLeafError,
    NotATreeError,
    ParseError,
    TooLargeError,
    UnknownVertexError,
    WouldBeEmptyError,
)
from .families import (
    FamilySpec,
    build_tree,
    delete_leaves,
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
from .oracle import WitnessSets, enumerate_min_sets, is_dominating, oracle_count
from .perturbation import (
    LeafDeletionReport,
    analyze_deletion,
    m1_of,
    random_leaf_subset,
    single_leaf_doubling_check,
)
from .rng import SplitMix64
from .tree import (
    DominationSummary,
    Tree,
    leaves,
    parse_edge_list,
    root_at,
    to_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "DominationSummary",
    "DominionError",
    "EmptyTreeError",
    "FamilySpec",
    "InvalidParameterError",
    "LeafDeletionReport",
    "MismatchError",
    "NoClosedFormError",
    "NotALeafError",
    "NotALevelLeafError",
    "NotATreeError",
    "ParseError",
    "SplitMix64",
    "TooLargeError",
    "Tree",
    "UnknownVertexError",
    "WitnessSets",
    "WouldBeEmptyError",
    "alternating_summary",
    "analyze_deletion",
    "binary_summary",
    "build_tree",
    "delete_leaves",
    "dp_count",
    "enumerate_min_sets",
    "fibonacci",
    "interior_pendant_summary",
    "is_dominating",
    "leaves",
    "level_labels",
    "m1_of",
    "make_alternating",
    "make_complete_binary",
    "make_interior_pendant",
    "make_path",
    "make_star",
    "make_uniform_pendant",
    "oracle_count",
    "parse_edge_list",
    "parse_family_spec",
    "random_leaf_subset",
    "random_tree",
    "root_at",
    "root_summary",
    "single_leaf_doubling_check",
    "star_summary",
    "summary_for",
    "to_edge_list",
    "uniform_pendant_summary",
]
