"""The calculus of integer-valued functions constant on open simplices.

Operations: pointwise arithmetic, Euler integration, pullback, proper
pushforward, combinatorial duality, and the restriction and extension
operators derived from them.  Every computation is exact integer
arithmetic; there are no tolerances anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, compress, filterfalse
from typing import Mapping, Sequence

from ._frozen import Frozen, cached
from .complexes import (
    Involution,
    OpenSubset,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    quotient_by_involution,
)
from .errors import MissingSimplexError, ModelError


def _clean_items(
    ambient: SimplicialComplex, values: Mapping
) -> tuple[tuple[Simplex, int], ...]:
    cleaned: dict[Simplex, int] = {}
    for key, raw in values.items():
        s = Simplex(key)
        if s not in ambient.simplices:
            raise MissingSimplexError(f"{s} is not a simplex of the ambient complex")
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ModelError(f"value at {s} must be an integer, got {raw!r}")
        v = int(raw)
        if v:
            cleaned[s] = v
    return tuple(sorted(cleaned.items()))


def _nonzero_items(order, acc: Sequence[int]) -> tuple[tuple[Simplex, int], ...]:
    """The (simplex, value) pairs of a dense vector over a canonical order.

    Item tuples are always built from lists in this module.  A tuple built
    from an iterator of unknown length is allocated at a guessed size and
    resized, so it bypasses CPython's per-size tuple free lists when it is
    made but lands on them when it is freed; over many small functions
    those lists fill up and pin memory.
    """
    return tuple(list(zip(compress(order, acc), filter(None, acc))))


class ConstructibleFunction(Frozen):
    """An integer value per open simplex of a fixed ambient complex.

    Only nonzero values are stored.  The support is an arbitrary subset of
    the simplices; duals and shrieks routinely produce supports that are
    not face-closed.
    """

    _fields = ("ambient", "items")

    def __init__(self, ambient: SimplicialComplex, values: Mapping) -> None:
        super().__init__(ambient, _clean_items(ambient, values))

    # defined here, not inherited, like every method perfbench/spans.py wraps
    def __eq__(self, other):
        if other.__class__ is not ConstructibleFunction:
            return NotImplemented
        return self.ambient == other.ambient and self.items == other.items

    def __hash__(self) -> int:
        return hash((self.ambient, self.items))

    @classmethod
    def _of(cls, ambient: SimplicialComplex, items: tuple) -> "ConstructibleFunction":
        """The internal constructor, for items computed by the calculus.

        The items must be nonzero values at simplices of the ambient, in
        canonical order; nothing is checked.
        """
        phi = object.__new__(cls)
        object.__setattr__(phi, "ambient", ambient)
        object.__setattr__(phi, "items", items)
        return phi

    @cached
    def _lookup(self) -> dict[Simplex, int]:
        return dict(self.items)

    def value(self, simplex_like) -> int:
        s = Simplex(simplex_like)
        if s not in self.ambient.simplices:
            raise MissingSimplexError(f"{s} is not a simplex of the ambient complex")
        return self._lookup().get(s, 0)

    @property
    def support(self) -> frozenset[Simplex]:
        return frozenset(s for s, _ in self.items)

    def _same_ambient(self, other: "ConstructibleFunction") -> None:
        if self.ambient != other.ambient:
            raise ModelError("functions live on different ambient complexes")

    def __add__(self, other):
        if not isinstance(other, ConstructibleFunction):
            return NotImplemented
        self._same_ambient(other)
        return _weighted_sum(self.ambient, [(1, self.items), (1, other.items)])

    def __sub__(self, other):
        if not isinstance(other, ConstructibleFunction):
            return NotImplemented
        self._same_ambient(other)
        return _weighted_sum(self.ambient, [(1, self.items), (-1, other.items)])

    def __neg__(self):
        return ConstructibleFunction._of(self.ambient, tuple([(s, -v) for s, v in self.items]))

    def __mul__(self, other):
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            items = tuple([(s, other * v) for s, v in self.items]) if other else ()
            return ConstructibleFunction._of(self.ambient, items)
        if isinstance(other, ConstructibleFunction):
            self._same_ambient(other)
            table = other._lookup()
            return ConstructibleFunction._of(
                self.ambient,
                tuple([(s, v * table[s]) for s, v in self.items if s in table]),
            )
        return NotImplemented

    __rmul__ = __mul__


def _weighted_sum(space: SimplicialComplex, terms) -> ConstructibleFunction:
    """The sum of weight times values over (weight, items) terms, added up
    on the terms' own supports, so nothing is built over the rest of space."""
    acc: dict[Simplex, int] = {}
    for weight, items in terms:
        for s, v in items:
            acc[s] = acc.get(s, 0) + weight * v
    return ConstructibleFunction._of(
        space, tuple([item for item in sorted(acc.items()) if item[1]])
    )


def zero_function(ambient: SimplicialComplex) -> ConstructibleFunction:
    return ConstructibleFunction(ambient, {})


def indicator(region) -> ConstructibleFunction:
    """Value 1 on every simplex of a subcomplex, open subset, or whole complex."""
    if isinstance(region, SimplicialComplex):
        ambient = region
    elif isinstance(region, (Subcomplex, OpenSubset)):
        ambient = region.parent
    else:
        raise ModelError(f"cannot take the indicator of {type(region).__name__}")
    return ConstructibleFunction._of(
        ambient, tuple([(s, 1) for s in sorted(region.simplices)])
    )


def euler_integral(phi: ConstructibleFunction) -> int:
    """Sum of (-1)^dim times the value, over all open simplices.

    This is the compactly supported Euler characteristic weighted by the
    function; on indicators of subcomplexes it is the Euler characteristic.
    """
    return sum(-v if s.dim % 2 else v for s, v in phi.items)


def pullback(f: SimplicialMap, psi: ConstructibleFunction) -> ConstructibleFunction:
    """Composition with the map: value at a simplex is the value at its image."""
    if psi.ambient != f.target:
        raise ModelError("function does not live on the target of the map")
    table = psi._lookup()
    image = f.image_vertices
    items = []
    for s in f.source.ordered():
        v = table.get(image(s))
        if v:
            items.append((s, v))
    return ConstructibleFunction._of(f.source, tuple(items))


def pushforward(f: SimplicialMap, phi: ConstructibleFunction) -> ConstructibleFunction:
    """Proper pushforward: fiberwise sum weighted by (-1) to the dimension drop.

    Composing with the map to a point recovers euler_integral.
    """
    if phi.ambient != f.source:
        raise ModelError("function does not live on the source of the map")
    order, position = f.target.ordered(), f.target.position()
    image = f.image_vertices
    acc = [0] * len(order)
    for s, v in phi.items:
        t = image(s)
        acc[position[t]] += -v if (len(s) - len(t)) % 2 else v
    return ConstructibleFunction._of(f.target, _nonzero_items(order, acc))


def dual(phi: ConstructibleFunction) -> ConstructibleFunction:
    """Combinatorial duality: the signed star sum.

    The dual at a simplex sums (-1)^dim(t) * phi(t) over all cofaces t.
    Applying it twice is the identity, and it sends the indicator of a
    closed d-manifold subcomplex to (-1)^d times itself.  Implemented by
    scattering each support simplex onto its faces, which is the same sum
    grouped the other way: the faces are listed as vertex combinations
    and looked up in the ambient's canonical order.
    """
    order, position = phi.ambient.ordered(), phi.ambient.position()
    acc = [0] * len(order)
    for t, v in phi.items:
        if not len(t) % 2:
            v = -v
        for n in range(1, len(t) + 1):
            for face in combinations(t, n):
                acc[position[face]] += v
    return ConstructibleFunction._of(phi.ambient, _nonzero_items(order, acc))


def restrict(phi: ConstructibleFunction, closed: Subcomplex) -> ConstructibleFunction:
    """Plain restriction of values to a subcomplex, viewed as its own complex."""
    if phi.ambient != closed.parent:
        raise ModelError("function does not live on the parent of the subcomplex")
    keep = closed.simplices
    return ConstructibleFunction._of(
        closed.as_complex(), tuple([item for item in phi.items if item[0] in keep])
    )


def shriek_restrict(closed: Subcomplex, phi: ConstructibleFunction) -> ConstructibleFunction:
    """Restriction conjugated by duality on both sides, D_M(restrict(D(phi))).

    This is the costalk-weighted restriction: the first term of
    triangle_decompose, which gathers phi over the open star of the
    subcomplex M by star position and needs no canonical order of the
    parent.
    """
    return triangle_decompose(closed, phi)[0]


def restrict_open(phi: ConstructibleFunction, opensub: OpenSubset) -> ConstructibleFunction:
    """Zero out all values outside an open subset.

    Functions on an open subset are carried on the ambient complex with
    support inside the subset; that is a faithful encoding because open
    subsets are not face-closed and have no standalone complex.
    """
    if phi.ambient != opensub.parent:
        raise ModelError("function does not live on the parent of the open subset")
    keep = opensub.simplices
    return ConstructibleFunction._of(
        phi.ambient, tuple([item for item in phi.items if item[0] in keep])
    )


def _require_supported_in(phi: ConstructibleFunction, opensub: OpenSubset) -> None:
    if phi.ambient != opensub.parent:
        raise ModelError("function does not live on the parent of the open subset")
    keep = opensub.simplices
    for s, _ in phi.items:
        if s not in keep:
            raise ModelError(f"function is not supported in the open subset: {s}")


def open_extend(opensub: OpenSubset, psi: ConstructibleFunction) -> ConstructibleFunction:
    """Extension by zero from an open subset to the whole complex.

    With supports already carried on the ambient complex this only checks
    the support condition; the returned function is unchanged.
    """
    _require_supported_in(psi, opensub)
    return psi

def open_pushforward(opensub: OpenSubset, psi: ConstructibleFunction) -> ConstructibleFunction:
    """Pushforward along the open inclusion, via duality on both sides.

    Dualize inside the open subset (cofaces of its simplices never leave
    it, so the star sums need no clipping), extend by zero, dualize on the
    whole complex.
    """
    _require_supported_in(psi, opensub)
    # restrict_open leaves the support inside the open subset, so the
    # extension by zero is the function itself
    return dual(restrict_open(dual(psi), opensub))


def triangle_decompose(
    closed: Subcomplex, phi: ConstructibleFunction
) -> tuple[ConstructibleFunction, ConstructibleFunction]:
    """Split the restriction to a subcomplex into costalk and boundary terms.

    Returns (shriek_restrict(closed, phi), restriction of the open
    pushforward of phi from the complement).  Their sum is the plain
    restriction, exactly, on every subcomplex and every function.  Both
    depend only on phi on the open star of the subcomplex, so phi is
    written there as a vector by star position for _split_star.
    """
    if phi.ambient != closed.parent:
        raise ModelError("function does not live on the parent of the subcomplex")
    position = _open_star(closed)[1]
    x = [0] * len(position)
    for s, v in phi.items:
        if s in position:
            x[position[s]] = v
    return _split_star(closed, x)


@cached
def _open_star(closed: Subcomplex) -> tuple:
    """The open star of a subcomplex M in its parent, built on first use
    from the parent's simplex set and kept on M.

    Returns the parent simplices u with a vertex in M, in canonical order;
    each one's position in that order; and, per trace w (u's vertices in
    M) of the u outside M, the star positions of those u of even and of
    odd dimension and the positions in M's order of w's faces in M.  The
    parent needs no canonical order.
    """
    space = closed.as_complex()
    lookup, in_m = space.position().get, space.vertices.__contains__
    order = tuple(sorted(filterfalse(space.vertices.isdisjoint, closed.parent.simplices)))
    groups = defaultdict(lambda: ([], []))
    for i, u in enumerate(order):
        if u not in space.simplices:
            groups[tuple(filter(in_m, u))][len(u) % 2 == 0].append(i)
    return order, {u: i for i, u in enumerate(order)}, [
        (even, odd, [
            j for n in range(1, len(w) + 1) for j in map(lookup, combinations(w, n))
            if j is not None
        ])
        for w, (even, odd) in groups.items()
    ]


def _split_star(
    closed: Subcomplex, x: Sequence[int]
) -> tuple[ConstructibleFunction, ConstructibleFunction]:
    """triangle_decompose of the values x over the open star of the
    subcomplex M, in _open_star's order; the parent's order is never built.

    g gathers (-1)^dim u x(u) of the star simplices u outside M onto the
    faces in M of their trace, once per trace.  The boundary is -D_M(g):
    for s in M and w outside M the signs (-1)^dim u over the interval
    s <= u <= w sum to zero.  The costalk, D_M of D(phi) on M, is D_M of
    g + D_M(x on M); D_M is an involution, so it is x on M + D_M(g),
    added up in one list over M's order.
    """
    space = closed.as_complex()
    order, at = space.ordered(), x.__getitem__
    _, position, groups = _open_star(closed)
    g = [0] * len(order)
    for even, odd, faces in groups:
        v = sum(map(at, even)) - sum(map(at, odd))
        if v:
            for j in faces:
                g[j] += v
    h = dual(ConstructibleFunction._of(space, _nonzero_items(order, g)))
    costalk, spot = [x[position[s]] for s in order], space.position()
    for s, v in h.items:
        costalk[spot[s]] += v
    return ConstructibleFunction._of(space, _nonzero_items(order, costalk)), -h


def mod2_reduce(phi: ConstructibleFunction) -> ConstructibleFunction:
    """The parity of phi: 1 where its value is odd, 0 elsewhere."""
    return ConstructibleFunction._of(phi.ambient, tuple([(s, 1) for s, v in phi.items if v % 2]))


def orbit_pushforward(tau: Involution, alpha: ConstructibleFunction) -> ConstructibleFunction:
    """Sum over orbits of a strongly free involution, on the quotient complex.

    The value at an orbit is alpha(s) + alpha(tau(s)); the quotient complex
    is available as the ambient of the result.
    """
    if alpha.ambient != tau.space:
        raise ModelError("function does not live on the involution's complex")
    _, projection = quotient_by_involution(tau)
    return pushforward(projection, alpha)
