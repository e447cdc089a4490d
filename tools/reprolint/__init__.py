"""``reprolint``: repo-specific static analysis for the chase engine's invariants.

The test suite proves the engines *currently* agree — byte-identical
``ChaseResult``s across strategies, backends, and worker counts — but each of
those guarantees rests on coding disciplines that dynamic tests only catch
when a violation happens to fire (an unsorted set iteration only reorders a
result when the hash seed cooperates).  This package checks the disciplines
themselves, statically, so a violation fails the lint on every run:

``determinism``
    No unordered ``set`` iteration and no wall-clock / randomness / address
    dependence on the code paths that produce chase results.
``process-boundary``
    Nothing unpicklable (lambdas, generators, live stores, connections,
    locks) is handed to a worker pipe, a pool submission, or a ``Process``.
``sql-identifier``
    SQL built by string interpolation in ``storage/sqlbackend/`` routes
    identifiers through the case-escaping helpers (``_quote`` /
    ``table_name`` / ``read_source``) and nothing else.

Run it from the repository root::

    python -m tools.reprolint src/repro
    python -m tools.reprolint src/repro --format json
    python -m tools.reprolint --plan-shape          # EXPLAIN-based plan audit
    python -m tools.reprolint src/repro --list-waivers

Waivers are inline comments with a mandatory justification::

    something_flagged()  # reprolint: disable=<rule> -- why this is safe

A waiver without justification text is itself a lint error.  See
``docs/invariants.md`` for the catalogue of enforced invariants.
"""

from .framework import (  # noqa: F401 (re-exported API)
    Checker,
    Finding,
    LintReport,
    ModuleSource,
    run_lint,
)

__version__ = "1.0"
