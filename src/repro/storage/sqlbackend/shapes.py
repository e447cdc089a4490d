"""SQL-native ``FindShapes``: the queries :mod:`repro.storage.queries` only renders.

The in-database ``FindShapes`` of the paper sends one Boolean existence
query per candidate shape to PostgreSQL; the in-process backend evaluates
those queries by scanning rows in Python and :func:`shape_query_sql` merely
*renders* the SQL a production implementation would run.  Here the rendered
query is finally executed: :class:`SqliteShapeFinder` inherits the
general-to-specific enumeration and Apriori pruning of
:class:`~repro.storage.shape_finder.InDatabaseShapeFinder` wholesale and
overrides only the data-touching existence check with an ``EXISTS`` query
inside SQLite, so no tuple is ever decoded into Python
(``stats.rows_scanned`` stays 0 by construction).
"""

from __future__ import annotations

from typing import List

from ...core.predicates import Predicate
from ...simplification.shapes import Shape
from ..queries import disequality_condition_pairs, equality_condition_pairs
from ..shape_finder import InDatabaseShapeFinder
from .store import SqliteAtomStore, _quote, table_name


def shape_query_sqlite(shape: Shape, relaxed: bool = False) -> str:
    """Render the executable SQLite form of the (relaxed) shape query.

    Identical in structure to :func:`repro.storage.queries.shape_query_sql`
    (the paper's Section 5.4 query) but over the physical schema: table
    ``rel_<case-escaped name>`` and 0-based columns ``c0..c{n-1}``.
    """
    conditions: List[str] = []
    for i, j in equality_condition_pairs(shape):
        conditions.append(f"c{i - 1} = c{j - 1}")
    if not relaxed:
        for i, j in disequality_condition_pairs(shape):
            conditions.append(f"c{i - 1} != c{j - 1}")
    where = " AND ".join(conditions) if conditions else "1"
    table = _quote(table_name(shape.predicate_name))
    return f"SELECT EXISTS (SELECT 1 FROM {table} WHERE {where})"


class _CatalogRelation:
    """A catalog-only stand-in for :class:`~repro.storage.relation.Relation`.

    The shared finder skeleton needs nothing but the predicate — rows are
    never materialised on this path.
    """

    __slots__ = ("predicate",)

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate


class SqliteShapeFinder(InDatabaseShapeFinder):
    """``FindShapes`` over a :class:`SqliteAtomStore`, fully pushed down.

    Shares the candidate enumeration, relaxed-query pruning, and statistics
    accounting of :class:`InDatabaseShapeFinder`; every existence check runs
    as a single ``SELECT EXISTS`` inside the database.  Hand an instance
    directly to :func:`repro.termination.linear.is_chase_finite_l` (it
    exposes the standard ``find_shapes()`` surface).
    """

    def __init__(self, store: SqliteAtomStore) -> None:
        if not isinstance(store, SqliteAtomStore):
            raise TypeError(
                f"SqliteShapeFinder requires a SqliteAtomStore, got {type(store).__name__}"
            )
        super().__init__(store)

    def _relations(self) -> List[_CatalogRelation]:
        return [
            _CatalogRelation(predicate)
            for predicate in self._store.catalog_predicates()
        ]

    def _shape_exists(self, relation: object, shape: Shape, relaxed: bool) -> bool:
        sql = shape_query_sqlite(shape, relaxed=relaxed)
        (exists,) = self._store.query(sql, family="shape-probe")[0]
        return bool(exists)
