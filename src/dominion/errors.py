"""Exception hierarchy shared by every module in the package."""


class DominionError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DominionError):
    """Malformed edge-list text or family-spec string."""


class EmptyTreeError(DominionError):
    """Zero vertices were declared; trees must have at least one vertex."""


class NotATreeError(DominionError):
    """The input is a graph but not a tree (cycle, disconnection, duplicate
    edge, self-loop, duplicate label, or undeclared edge endpoint), or its
    vertex labels are not mutually orderable."""


class UnknownVertexError(DominionError):
    """A vertex label does not occur in the tree."""


class InvalidParameterError(DominionError):
    """A family parameter is out of range or inconsistent with its kind."""


class NotALeafError(DominionError):
    """A vertex slated for deletion has degree greater than one."""


class WouldBeEmptyError(DominionError):
    """A deletion would remove every vertex."""


class NoClosedFormError(DominionError):
    """The requested family has no closed-form evaluation."""


class TooLargeError(DominionError):
    """The tree exceeds the exhaustive-search size cap, its search would
    test more subsets than the oracle's budget, a leaf selection would
    list or draw more leaves than `perturb` admits, a spine fold's count
    would pass its bit budget, or a closed form (`summary_for`, `fibonacci`,
    `uniform_pendant_summary`, `interior_pendant_summary`,
    `alternating_summary`, `binary_summary`) would pass that budget or the
    binary height limit."""


class NotALevelLeafError(DominionError):
    """A label is not a bottom-level leaf of the complete binary tree."""


class MismatchError(DominionError):
    """Two independent computation paths disagree; signals an implementation bug."""
