"""The calculus of integer-valued functions constant on open simplices.

Operations: pointwise arithmetic, Euler integration, pullback, proper
pushforward, combinatorial duality, and the restriction and extension
operators derived from them.  Every computation is exact integer
arithmetic; there are no tolerances anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Mapping

from .complexes import (
    Involution,
    OpenSubset,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    canonical_sorted,
    complement_open,
    quotient_by_involution,
)
from .errors import MissingSimplexError, ModelError


def _clean_items(
    ambient: SimplicialComplex, values: Mapping
) -> tuple[tuple[Simplex, int], ...]:
    cleaned: dict[Simplex, int] = {}
    for key, raw in values.items():
        s = key if type(key) is Simplex else Simplex(key)
        if s not in ambient.simplices:
            raise MissingSimplexError(f"{s} is not a simplex of the ambient complex")
        if not isinstance(raw, int):
            raise ModelError(f"value at {s} must be an integer, got {raw!r}")
        v = int(raw)
        if v:
            cleaned[s] = v
    return tuple([(s, cleaned[s]) for s in canonical_sorted(cleaned)])


def _nonzero_items(order, acc: list[int]) -> tuple[tuple[Simplex, int], ...]:
    """The (simplex, value) pairs of a dense vector over a canonical order.

    Item tuples are always built from lists in this module.  A tuple built
    from an iterator of unknown length is allocated at a guessed size and
    resized, so it bypasses CPython's per-size tuple free lists when it is
    made but lands on them when it is freed; over many small functions
    those lists fill up and pin memory.
    """
    return tuple(list(zip(compress(order, acc), filter(None, acc))))


@dataclass(frozen=True, init=False)
class ConstructibleFunction:
    """An integer value per open simplex of a fixed ambient complex.

    Only nonzero values are stored.  The support is an arbitrary subset of
    the simplices; duals and shrieks routinely produce supports that are
    not face-closed.
    """

    ambient: SimplicialComplex
    items: tuple[tuple[Simplex, int], ...]

    def __init__(self, ambient: SimplicialComplex, values: Mapping) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "items", _clean_items(ambient, values))

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

    def _lookup(self) -> dict[Simplex, int]:
        table = getattr(self, "_table", None)
        if table is None:
            table = dict(self.items)
            object.__setattr__(self, "_table", table)
        return table

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
        index = self.ambient.index()
        position = index.position
        acc = [0] * len(index.order)
        for s, v in self.items:
            acc[position[s.vertices]] = v
        for s, v in other.items:
            acc[position[s.vertices]] += v
        return ConstructibleFunction._of(self.ambient, _nonzero_items(index.order, acc))

    def __sub__(self, other):
        if not isinstance(other, ConstructibleFunction):
            return NotImplemented
        return self + (-other)

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


def constructible_function(ambient: SimplicialComplex, values: Mapping | None = None):
    return ConstructibleFunction(ambient, values or {})


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
        ambient, tuple([(s, 1) for s in canonical_sorted(region.simplices)])
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
    table = {t.vertices: v for t, v in psi.items}
    image = f.image_vertices
    items = []
    for s in f.source.index().order:
        v = table.get(image(s.vertices))
        if v:
            items.append((s, v))
    return ConstructibleFunction._of(f.source, tuple(items))


def pushforward(f: SimplicialMap, phi: ConstructibleFunction) -> ConstructibleFunction:
    """Proper pushforward: fiberwise sum weighted by (-1) to the dimension drop.

    Composing with the map to a point recovers euler_integral.
    """
    if phi.ambient != f.source:
        raise ModelError("function does not live on the source of the map")
    index = f.target.index()
    position = index.position
    image = f.image_vertices
    acc = [0] * len(index.order)
    for s, v in phi.items:
        t = image(s.vertices)
        acc[position[t]] += -v if (len(s.vertices) - len(t)) % 2 else v
    return ConstructibleFunction._of(f.target, _nonzero_items(index.order, acc))


def dual(phi: ConstructibleFunction) -> ConstructibleFunction:
    """Combinatorial duality: the signed star sum.

    The dual at a simplex sums (-1)^dim(t) * phi(t) over all cofaces t.
    Applying it twice is the identity, and it sends the indicator of a
    closed d-manifold subcomplex to (-1)^d times itself.  Implemented by
    scattering each support simplex onto its faces, which is the same sum
    grouped the other way, through the face table of the ambient's index.
    """
    index = phi.ambient.index()
    position, starts, faces, odd = index.position, index.starts, index.faces, index.odd
    acc = [0] * len(index.order)
    for t, v in phi.items:
        i = position[t.vertices]
        if odd[i]:
            v = -v
        for j in faces[starts[i]:starts[i + 1]]:
            acc[j] += v
    return ConstructibleFunction._of(phi.ambient, _nonzero_items(index.order, acc))


def restrict(phi: ConstructibleFunction, closed: Subcomplex) -> ConstructibleFunction:
    """Plain restriction of values to a subcomplex, viewed as its own complex."""
    if phi.ambient != closed.parent:
        raise ModelError("function does not live on the parent of the subcomplex")
    space = closed.as_complex()
    keep = space.index().position
    return ConstructibleFunction._of(
        space, tuple([item for item in phi.items if item[0].vertices in keep])
    )


def shriek_restrict(closed: Subcomplex, phi: ConstructibleFunction) -> ConstructibleFunction:
    """Restriction conjugated by duality on both sides.

    This is the costalk-weighted restriction: dualize on the ambient
    complex, restrict, dualize on the subcomplex.
    """
    return dual(restrict(dual(phi), closed))


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
    restriction, exactly, on every subcomplex and every function.
    """
    opensub = complement_open(closed.parent, closed)
    costalk = shriek_restrict(closed, phi)
    boundary = restrict(open_pushforward(opensub, restrict_open(phi, opensub)), closed)
    return costalk, boundary


def _clean_mod2(ambient: SimplicialComplex, values: Mapping):
    cleaned = {}
    for key, raw in values.items():
        s = Simplex(key)
        if s not in ambient.simplices:
            raise MissingSimplexError(f"{s} is not a simplex of the ambient complex")
        if not isinstance(raw, int) or raw not in (0, 1):
            raise ModelError(f"mod-2 value at {s} must be 0 or 1, got {raw!r}")
        if raw:
            cleaned[s] = 1
    return tuple([(s, 1) for s in canonical_sorted(cleaned)])


@dataclass(frozen=True, init=False)
class Mod2Function:
    """A value in {0, 1} per open simplex; addition is pointwise xor."""

    ambient: SimplicialComplex
    items: tuple[tuple[Simplex, int], ...]

    def __init__(self, ambient: SimplicialComplex, values: Mapping) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "items", _clean_mod2(ambient, values))

    _lookup = ConstructibleFunction._lookup

    def value(self, simplex_like) -> int:
        s = Simplex(simplex_like)
        if s not in self.ambient.simplices:
            raise MissingSimplexError(f"{s} is not a simplex of the ambient complex")
        return self._lookup().get(s, 0)

    @property
    def support(self) -> frozenset[Simplex]:
        return frozenset(s for s, _ in self.items)

    def __add__(self, other):
        if not isinstance(other, Mod2Function):
            return NotImplemented
        if self.ambient != other.ambient:
            raise ModelError("functions live on different ambient complexes")
        return Mod2Function(
            self.ambient, {s: 1 for s in self.support ^ other.support}
        )


def mod2_function(ambient: SimplicialComplex, values: Mapping | None = None) -> Mod2Function:
    return Mod2Function(ambient, values or {})


def mod2_reduce(phi: ConstructibleFunction) -> Mod2Function:
    return Mod2Function(phi.ambient, {s: v % 2 for s, v in phi.items})


def mod2_euler_integral(alpha: Mod2Function) -> int:
    # signs are invisible mod 2, so this is just the support count
    return len(alpha.items) % 2


def mod2_pushforward(f: SimplicialMap, alpha: Mod2Function) -> Mod2Function:
    if alpha.ambient != f.source:
        raise ModelError("function does not live on the source of the map")
    acc: dict[Simplex, int] = defaultdict(int)
    for s, _ in alpha.items:
        acc[f.image(s)] ^= 1
    return Mod2Function(f.target, acc)


def orbit_pushforward(tau: Involution, alpha: ConstructibleFunction) -> ConstructibleFunction:
    """Sum over orbits of a strongly free involution, on the quotient complex.

    The value at an orbit is alpha(s) + alpha(tau(s)); the quotient complex
    is available as the ambient of the result.
    """
    if alpha.ambient != tau.space:
        raise ModelError("function does not live on the involution's complex")
    _, projection = quotient_by_involution(tau)
    return pushforward(projection, alpha)
