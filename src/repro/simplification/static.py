"""Static simplification of linear TGDs (Definition 3.5).

The simplification of a linear TGD ``σ : R(x̄) → ∃z̄ ψ(ȳ, z̄)`` induced by a
specialization ``f`` of ``x̄`` is the simple-linear TGD

    ``simple(R(f(x̄))) → ∃z̄ simple(ψ(f(ȳ), z̄))``.

``simple(Σ)`` collects the simplifications of every TGD of ``Σ`` under every
specialization of its body variables.  Its size is exponential in the
maximum arity (Bell numbers), which is exactly why the paper introduces
*dynamic* simplification; the static version is still implemented in full
because (a) it defines the semantics the dynamic version must preserve and
(b) the ablation experiments compare the two.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

from ..core.atoms import Atom
from ..core.predicates import Predicate
from ..core.terms import Term, Variable
from ..core.tgds import TGD, TGDSet
from .shapes import Shape
from .specialization import Specialization, enumerate_specializations

#: A specialization, or the dict of its images (absent variables stay put).
Images = Union[Specialization, Dict[Variable, Variable]]


class ShapePredicates:
    """The shape predicates ``R__1_2_1`` one simplification run builds, each once.

    :meth:`predicate` maps ``(R, id)`` to the predicate of the shape
    ``R_{id}``; :attr:`shapes` maps every predicate built so far back to its
    :class:`Shape`, so the shape of a simplified atom is read back without
    parsing its predicate name.  An instance belongs to one call (one static
    simplification, one run of Algorithm 2's fixpoint) and dies with it.
    """

    __slots__ = ("_predicates", "shapes")

    def __init__(self):
        self._predicates: Dict[Tuple[str, Tuple[int, ...]], Predicate] = {}
        self.shapes: Dict[Predicate, Shape] = {}

    def predicate(self, name: str, identifiers: Tuple[int, ...]) -> Predicate:
        """Return the predicate of the shape ``name_{identifiers}``."""
        key = (name, identifiers)
        predicate = self._predicates.get(key)
        if predicate is None:
            shape = Shape(name, identifiers)
            predicate = self._predicates[key] = shape.as_predicate()
            self.shapes[predicate] = shape
        return predicate


def simplify_tgd_with(
    tgd: TGD,
    specialization: Images,
    shape_predicates: Optional[ShapePredicates] = None,
) -> TGD:
    """Return the simplification of a linear TGD induced by *specialization*.

    *specialization* is a :class:`Specialization` ``f`` of the body
    variables, or the plain dict of its images (variables it leaves out map
    to themselves).  Each atom ``α`` becomes ``simple(f(α))`` in one pass
    over its terms; the specialized atom ``f(α)`` itself is never built.
    Pass the caller's *shape_predicates* when simplifying many TGDs, so each
    shape predicate is built once.
    """
    if shape_predicates is None:
        shape_predicates = ShapePredicates()
    body = _simplified_image(tgd.body_atom(), specialization, shape_predicates)
    head = tuple(_simplified_image(atom, specialization, shape_predicates) for atom in tgd.head)
    return TGD((body,), head, label=tgd.label)


def _simplified_image(
    atom: Atom, specialization: Images, shape_predicates: ShapePredicates
) -> Atom:
    """Return ``simple(f(α)) = R_{id(f(t̄))}(unique(f(t̄)))``."""
    first_index: Dict[Term, int] = {}
    ids = []
    image_of = specialization.get
    for term in atom.terms:
        image = image_of(term, term)
        ids.append(first_index.setdefault(image, len(first_index) + 1))
    predicate = shape_predicates.predicate(atom.predicate.name, tuple(ids))
    return Atom(predicate, tuple(first_index))


def simplifications_of_tgd(
    tgd: TGD, shape_predicates: Optional[ShapePredicates] = None
) -> Iterator[TGD]:
    """Enumerate ``simple(σ)``: one simplification per specialization of the body tuple.

    *shape_predicates* is shared with the caller, as in :func:`simplify_tgd_with`.
    """
    if shape_predicates is None:
        shape_predicates = ShapePredicates()
    for specialization in enumerate_specializations(tgd.body_atom().terms):
        yield simplify_tgd_with(tgd, specialization, shape_predicates)


def static_simplification(tgds: TGDSet) -> TGDSet:
    """Return ``simple(Σ)`` for a set of linear TGDs.

    Warning: the result is exponential in the maximum arity; use
    :func:`repro.simplification.dynamic.dynamic_simplification` for anything
    beyond small schemas, as the paper does.
    """
    tgds.require_linear()
    shape_predicates = ShapePredicates()
    result = TGDSet()
    for tgd in tgds:
        result.update(simplifications_of_tgd(tgd, shape_predicates))
    return result


def static_simplification_size(tgds: TGDSet) -> int:
    """Return ``|simple(Σ)|`` exactly (constructs the set; intended for ablations)."""
    return len(static_simplification(tgds))
