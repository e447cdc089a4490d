"""Specializations of variable tuples (Definition 3.5).

A *specialization* of a tuple of variables ``x̄ = (x1, ..., xn)`` is a
function ``f`` from ``x̄`` to ``x̄`` with ``f(x1) = x1`` and
``f(xi) ∈ {f(x1), ..., f(x_{i-1}), xi}`` for every ``i >= 2``.  Intuitively a
specialization decides, going left to right, whether each variable stays
itself or collapses onto an earlier variable's image; specializations of a
tuple of ``n`` distinct variables are in bijection with the set partitions
of ``[n]`` (Bell(n) many).

The *h-specialization* (Section 4.2) is the unique specialization induced by
a homomorphism ``h`` from the body atom to a canonical shape atom: two
variables collapse exactly when ``h`` sends them to the same value.  It is
computed on identifier tuples (:func:`specialization_pattern`): the body
atom's ``id(x̄)`` and the shape's identifiers decide it, the variables' names
do not.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.terms import Variable
from .shapes import Shape, identifier_tuple


class Specialization:
    """A specialization ``f`` of a variable tuple, applied as a substitution."""

    __slots__ = ("_mapping", "_variables")

    def __init__(self, variables: Sequence[Variable], mapping: Dict[Variable, Variable]):
        self._variables = tuple(variables)
        self._mapping = dict(mapping)
        self._validate()

    def _validate(self) -> None:
        ordered = list(dict.fromkeys(self._variables))  # distinct, in first-occurrence order
        if not ordered:
            # The empty tuple (a nullary body atom) has exactly one
            # specialization: the empty function.
            if self._mapping:
                raise ValueError("the empty specialization cannot map any variable")
            return
        first = ordered[0]
        if self._mapping.get(first, first) != first:
            raise ValueError("a specialization must map the first variable to itself")
        allowed_images = {first}
        for variable in ordered[1:]:
            image = self._mapping.get(variable, variable)
            if image != variable and image not in allowed_images:
                raise ValueError(
                    f"invalid specialization: {variable} may only map to an earlier image "
                    f"or to itself, got {image}"
                )
            allowed_images.add(image)

    def __call__(self, variable: Variable) -> Variable:
        return self._mapping.get(variable, variable)

    def get(self, variable: Variable, default=None):
        """Dict-style lookup: ``f(variable)``, or *default* outside the mapping.

        It lets a specialization stand wherever a plain ``{variable: image}``
        dict is accepted (:func:`~repro.simplification.static.simplify_tgd_with`).
        """
        return self._mapping.get(variable, default)

    def __eq__(self, other):
        if not isinstance(other, Specialization):
            return NotImplemented
        return self._variables == other._variables and self.images() == other.images()

    def __hash__(self):
        return hash((self._variables, self.images()))

    def __repr__(self):
        pairs = ", ".join(f"{v}->{self(v)}" for v in dict.fromkeys(self._variables))
        return f"Specialization({pairs})"

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """The original variable tuple ``x̄`` (with possible repetitions)."""
        return self._variables

    def images(self) -> Tuple[Variable, ...]:
        """Return ``f(x̄)``: the image tuple, position by position."""
        return tuple(self(v) for v in self._variables)

    def is_identity(self) -> bool:
        """Return ``True`` when every variable maps to itself."""
        return all(self(v) == v for v in self._variables)

    def apply_to_atom(self, atom: Atom) -> Atom:
        """Apply the specialization to an atom (non-tuple variables stay put)."""
        return Atom(atom.predicate, tuple(self(t) if isinstance(t, Variable) else t for t in atom.terms))


def identity_specialization(variables: Sequence[Variable]) -> Specialization:
    """Return the identity specialization of *variables*."""
    return Specialization(variables, {})


def enumerate_specializations(variables: Sequence[Variable]) -> Iterator[Specialization]:
    """Enumerate every specialization of a variable tuple.

    The enumeration walks the distinct variables in first-occurrence order;
    for each variable it either keeps it (a new block) or collapses it onto
    one of the earlier images.  For ``n`` distinct variables this yields
    Bell(``n``) specializations.
    """
    distinct = list(dict.fromkeys(variables))
    if not distinct:
        # Bell(0) = 1: the empty tuple has exactly one (empty) specialization.
        yield Specialization(variables, {})
        return

    def _extend(index: int, mapping: Dict[Variable, Variable], images: List[Variable]):
        if index == len(distinct):
            yield Specialization(variables, dict(mapping))
            return
        variable = distinct[index]
        # Option 1: keep the variable (opens a new block).
        mapping[variable] = variable
        images.append(variable)
        yield from _extend(index + 1, mapping, images)
        images.pop()
        # Option 2: collapse onto one of the earlier images.
        for image in list(dict.fromkeys(images)):
            mapping[variable] = image
            yield from _extend(index + 1, mapping, images)
        del mapping[variable]

    yield from _extend(0, {}, [])


def specialization_pattern(
    body_ids: Tuple[int, ...], shape_ids: Tuple[int, ...]
) -> Optional[Tuple[int, ...]]:
    """Return the ``h``-specialization of a body atom as a position pattern.

    *body_ids* is ``id(x̄)`` of the body atom and *shape_ids* the identifier
    tuple of a shape of the same arity.  The homomorphism ``h`` sends the
    variable at position ``i`` to the shape's ``i``-th identifier; it exists
    exactly when positions holding the same variable carry the same
    identifier.  The result gives, for every position ``i``, the first
    (0-based) position whose identifier equals the ``i``-th one: the variable
    there is ``f(x_i)``.  Returns ``None`` when ``h`` does not exist.

    The answer depends on the two identifier tuples only, so callers that
    meet the same pair again (many rules share a body atom) can memoize it.
    """
    image_of_body_id: Dict[int, int] = {}
    first_position: Dict[int, int] = {}
    pattern = []
    for position, (body_id, shape_id) in enumerate(zip(body_ids, shape_ids)):
        if image_of_body_id.setdefault(body_id, shape_id) != shape_id:
            return None
        pattern.append(first_position.setdefault(shape_id, position))
    return tuple(pattern)


def pattern_images(
    variables: Sequence[Variable], pattern: Tuple[int, ...]
) -> Dict[Variable, Variable]:
    """Return the images ``{variables[i]: variables[pattern[i]]}`` a pattern prescribes."""
    return {variable: variables[image] for variable, image in zip(variables, pattern)}


def h_specialization(body_atom: Atom, shape: Shape) -> Optional[Specialization]:
    """Return the ``h``-specialization of the body variables w.r.t. *shape*.

    ``h`` is the homomorphism from ``{R(x̄)}`` to ``{R(id(t̄))} ⊆ DB[{shape}]``,
    when it exists; the induced specialization maps ``xi`` and ``xj`` to the
    same (earliest) variable exactly when ``h(xi) = h(xj)``.  Returns ``None``
    when no homomorphism exists (the body atom repeats a variable across
    positions the shape declares distinct).  The body atom must mention
    variables only, as TGD bodies do.
    """
    if shape.predicate_name != body_atom.predicate.name or shape.arity != body_atom.arity:
        return None
    terms = body_atom.terms
    if not all(isinstance(term, Variable) for term in terms):
        raise ValueError(f"h-specialization needs a variable-only body atom, got {body_atom}")
    pattern = specialization_pattern(identifier_tuple(terms), shape.identifiers)
    if pattern is None:
        return None
    return Specialization(terms, pattern_images(terms, pattern))
