"""Dynamic simplification (Section 4.2, Algorithm 2).

Static simplification blows up exponentially with the arity, so the paper
refines it: given the database ``D``, only the simplified TGDs whose body
shape is *derivable* from the shapes of ``D`` (via the immediate-consequence
operator ``Γ_Σ``) can ever fire during the chase of ``simple(D)`` with
``simple(Σ)``; all the others are superfluous.  ``simple_D(Σ)`` keeps exactly
the derivable ones and, crucially, checking its weak acyclicity no longer
needs the database-support check (Lemma 4.5).

The implementation mirrors Algorithm 2 and the engineering described in
Section 5.4:

* the database shapes are obtained through a pluggable ``shape_source`` —
  either directly from a :class:`~repro.core.instances.Database`, or from the
  storage substrate's in-memory / in-database ``FindShapes`` implementations;
* an index from body ``(predicate name, arity)`` to TGDs provides fast access
  to the rules that can consume a newly derived shape;
* at each iteration only the *new* shapes (``ΔS``) are processed — because the
  TGDs are linear, a TGD applicable on an old shape was already applied in a
  previous iteration.

``Applicable(Ŝ, Σ)`` runs on identifier tuples.  Whether a rule applies to
a shape, and how its body variables collapse, depends only on the body
atom's ``id(x̄)`` and the shape's identifiers
(:func:`~repro.simplification.specialization.specialization_pattern`).  Many
rules share a body atom, so one fixpoint run memoizes that answer per pair
of identifier tuples; most pairs are rejected, and a repeated rejection
costs one dictionary lookup.  The run also builds each shape predicate and
its :class:`Shape` once, and reads the head shapes of a new rule from that
table instead of parsing predicate names.  All of this state lives for one
call of :func:`applicable`, :func:`dynamic_simplification` or
:func:`resume_dynamic_simplification`: the index belongs to that call's
rules, and a cache that outlived it would keep every shape predicate of
every rule set ever checked alive in a long sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.predicates import Predicate
from ..core.tgds import TGD, TGDSet
from .shapes import Shape, identifier_tuple, resolve_shapes
from .specialization import pattern_images, specialization_pattern
from .static import ShapePredicates, simplify_tgd_with


@dataclass
class DynamicSimplificationResult:
    """Output of :func:`dynamic_simplification` with bookkeeping for experiments.

    Attributes
    ----------
    tgds:
        The set ``simple_D(Σ)`` of simple-linear TGDs.
    derived_shapes:
        ``Σ(shape(D))`` — every shape derived during the fixpoint.
    initial_shapes:
        ``shape(D)`` — the shapes contributed by the database.
    iterations:
        Number of fixpoint iterations executed (Algorithm 2's while loop).
    """

    tgds: TGDSet
    derived_shapes: Set[Shape]
    initial_shapes: Set[Shape]
    iterations: int


#: An identifier tuple, or a position pattern over one.
Ids = Tuple[int, ...]

#: Marks a pattern not yet computed (``None`` is a computed "not applicable").
_UNSEEN = object()


class _Applicable:
    """``Applicable(Ŝ, Σ)`` with the state one call of Algorithm 2 keeps.

    Built once per :func:`applicable` call or fixpoint run, it holds:

    * the rules indexed by body ``(predicate name, arity)``, each with its
      body identifier tuple ``id(x̄)``;
    * the ``h``-specialization pattern per ``(id(x̄), shape identifiers)``
      pair — many rules share a body atom, and a pattern depends on the two
      identifier tuples only;
    * the :class:`ShapePredicates` the simplified rules are built from,
      whose ``shapes`` give the head shapes of a new rule.

    Nothing here outlives the call (see the module docstring).
    """

    __slots__ = ("_rules", "_patterns", "shape_predicates")

    def __init__(self, tgds: TGDSet):
        self._rules: Dict[Tuple[str, int], List[Tuple[TGD, Ids]]] = {}
        for tgd in tgds:
            body_atom = tgd.body_atom()
            key = (body_atom.predicate.name, body_atom.arity)
            self._rules.setdefault(key, []).append((tgd, identifier_tuple(body_atom.terms)))
        self._patterns: Dict[Tuple[Ids, Ids], Optional[Ids]] = {}
        self.shape_predicates = ShapePredicates()

    def __call__(self, shapes: Iterable[Shape]) -> Iterator[TGD]:
        """Yield the simplified TGDs whose body shape is one of *shapes*."""
        patterns = self._patterns
        for shape in shapes:
            shape_ids = shape.identifiers
            for tgd, body_ids in self._rules.get((shape.predicate_name, len(shape_ids)), ()):
                key = (body_ids, shape_ids)
                pattern = patterns.get(key, _UNSEEN)
                if pattern is _UNSEEN:
                    pattern = patterns[key] = specialization_pattern(body_ids, shape_ids)
                if pattern is None:
                    continue
                images = pattern_images(tgd.body[0].terms, pattern)
                yield simplify_tgd_with(tgd, images, self.shape_predicates)


def applicable(shapes: Iterable[Shape], tgds: TGDSet) -> TGDSet:
    """``Applicable(Ŝ, Σ)``: simplified TGDs whose body shape belongs to *shapes*.

    For every linear TGD ``σ`` with body predicate ``R`` and every shape of
    ``R`` in *shapes*, there is at most one homomorphism from the body atom
    to the canonical shape atom; when it exists, its ``h``-specialization
    induces one simplification of ``σ``.
    """
    tgds.require_linear()
    return TGDSet(_Applicable(tgds)(shapes))


def head_shapes(tgds: Iterable[TGD]) -> Set[Shape]:
    """Return the shapes occurring (as predicates) in the heads of simplified TGDs.

    Simplified TGDs use shape predicates of the form ``R__1_2_1``; each head
    predicate is parsed back into its :class:`Shape` by
    :func:`shape_from_simplified_predicate`.
    """
    result: Set[Shape] = set()
    for tgd in tgds:
        for atom in tgd.head:
            result.add(shape_from_simplified_predicate(atom.predicate))
    return result


def shape_from_simplified_predicate(predicate: Predicate) -> Shape:
    """Invert :meth:`Shape.as_predicate`: recover the shape from ``R__1_2_1``.

    The simplified predicate of a nullary shape is ``R__`` (empty suffix,
    empty identifier tuple).  Raises ``ValueError`` unless *predicate* is
    exactly ``shape.as_predicate()`` for the returned shape: the arity must
    be the number of distinct identifiers, and every identifier must be
    written as ``as_predicate`` writes it (no sign, padding or blank).
    """
    name, separator, suffix = predicate.name.rpartition("__")
    if not separator or not name:
        raise ValueError(f"{predicate.name!r} is not a simplified (shape) predicate name")
    try:
        identifiers = tuple(int(token) for token in suffix.split("_")) if suffix else ()
        shape = Shape(name, identifiers)
    except ValueError:
        shape = None
    if shape is None or shape.as_predicate() != predicate:
        raise ValueError(f"{predicate} is not the predicate of a shape")
    return shape


def dynamic_simplification(
    database_or_shapes,
    tgds: TGDSet,
) -> DynamicSimplificationResult:
    """``DynSimplification(D, Σ)``: compute ``simple_D(Σ)`` (Algorithm 2).

    Parameters
    ----------
    database_or_shapes:
        Either a :class:`~repro.core.instances.Database` (its shapes are
        computed directly), a set of :class:`Shape` (already computed, e.g.
        by one of the storage substrate's ``FindShapes`` implementations), or
        any object with a ``find_shapes()`` method.
    tgds:
        The set of linear TGDs ``Σ``.
    """
    tgds.require_linear()
    initial_shapes = resolve_shapes(database_or_shapes)

    known_shapes: Set[Shape] = set(initial_shapes)
    simplified = TGDSet()
    iterations = _fixpoint(set(initial_shapes), known_shapes, simplified, tgds)

    return DynamicSimplificationResult(
        tgds=simplified,
        derived_shapes=known_shapes,
        initial_shapes=set(initial_shapes),
        iterations=iterations,
    )


def resume_dynamic_simplification(
    previous: DynamicSimplificationResult,
    database_or_shapes,
    tgds: TGDSet,
) -> DynamicSimplificationResult:
    """Continue Algorithm 2's fixpoint from *previous* with more database shapes.

    The prefix views of Section 8.1 grow monotonically, so the shape set of
    view ``i+1`` is a superset of view ``i``'s.  Because ``Γ_Σ`` is monotone,
    the ``simple_D(Σ)`` fixpoint for the larger view can be obtained by
    seeding Algorithm 2's frontier with only the shapes *not already known*
    at the previous view and continuing from the previous fixpoint — the
    result is identical to a from-scratch run on the larger view.

    The returned result's :attr:`~DynamicSimplificationResult.tgds` preserves
    the insertion order of *previous* followed by the newly derived rules, so
    callers can extend incremental structures (e.g. the dependency graph)
    from the tail ``result.tgds.tgds[len(previous.tgds):]``.

    ``iterations`` counts only the iterations of this resumption.
    """
    tgds.require_linear()
    new_shapes = resolve_shapes(database_or_shapes)

    known_shapes: Set[Shape] = set(previous.derived_shapes)
    simplified = TGDSet(previous.tgds)
    delta = new_shapes - known_shapes
    known_shapes |= delta
    iterations = _fixpoint(delta, known_shapes, simplified, tgds)

    return DynamicSimplificationResult(
        tgds=simplified,
        derived_shapes=known_shapes,
        initial_shapes=set(previous.initial_shapes) | new_shapes,
        iterations=iterations,
    )


def _fixpoint(
    delta: Set[Shape],
    known_shapes: Set[Shape],
    simplified: TGDSet,
    tgds: TGDSet,
) -> int:
    """Run Algorithm 2's while loop in place; return the iteration count.

    *known_shapes* and *simplified* are mutated; *delta* is the seed frontier
    (shapes not yet processed by ``Applicable``).
    """
    step = _Applicable(tgds)
    shape_of = step.shape_predicates.shapes
    iterations = 0
    while delta:
        iterations += 1
        produced: Set[Shape] = set()
        for rule in step(delta):
            if simplified.add(rule):
                produced.update(shape_of[atom.predicate] for atom in rule.head)
        delta = produced - known_shapes
        known_shapes |= delta
    return iterations
