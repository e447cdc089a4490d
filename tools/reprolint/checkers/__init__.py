"""The concrete reprolint checkers.

``ALL_CHECKERS`` is the registry the CLI runs; each entry is a
:class:`~tools.reprolint.framework.Checker` subclass instance.  Order is the
order findings are attributed in (findings themselves are sorted by location
before reporting, so registry order is cosmetic).
"""

from .determinism import DeterminismChecker
from .process_boundary import ProcessBoundaryChecker
from .sql_identifiers import SqlIdentifierChecker

ALL_CHECKERS = (
    DeterminismChecker(),
    ProcessBoundaryChecker(),
    SqlIdentifierChecker(),
)

__all__ = [
    "ALL_CHECKERS",
    "DeterminismChecker",
    "ProcessBoundaryChecker",
    "SqlIdentifierChecker",
]
