"""The calculus of integer-valued functions constant on open simplices.

Operations: pointwise arithmetic, Euler integration, pullback, proper
pushforward, combinatorial duality, and the restriction and extension
operators derived from them.  Every computation is exact integer
arithmetic; there are no tolerances anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

from ._frozen import Frozen, cached
from .complexes import (
    Involution,
    OpenSubset,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    _find,
    _images,
    _text,
    quotient_by_involution,
)
from .errors import MissingSimplexError, ModelError


def _clean_items(ambient: SimplicialComplex, values: Mapping) -> tuple[tuple[tuple, int], ...]:
    simplices, cleaned = ambient.simplices, {}
    for key, raw in values.items():
        s = _find(simplices, key)
        if s not in simplices:
            raise MissingSimplexError(f"{_text(s)} is not a simplex of the ambient complex")
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ModelError(f"value at {_text(s)} must be an integer, got {raw!r}")
        v = int(raw)
        if v:
            cleaned[s] = v
    return tuple(sorted(cleaned.items()))


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
    def _lookup(self) -> dict[tuple, int]:
        return dict(self.items)

    def value(self, simplex_like) -> int:
        s = _find(self.ambient.simplices, simplex_like)
        if s not in self.ambient.simplices:
            raise MissingSimplexError(f"{_text(s)} is not a simplex of the ambient complex")
        return self._lookup().get(s, 0)

    @property
    def support(self) -> frozenset[tuple]:
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
    acc: dict[tuple, int] = {}
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
    return sum(v if len(s) % 2 else -v for s, v in phi.items)


def pullback(f: SimplicialMap, psi: ConstructibleFunction) -> ConstructibleFunction:
    """Composition with the map: value at a simplex is the value at its image."""
    if psi.ambient != f.target:
        raise ModelError("function does not live on the target of the map")
    order = f.source.ordered()
    values = map(psi._lookup().get, _images(f._vertex_table(), order))
    return ConstructibleFunction._of(f.source, tuple([(s, v) for s, v in zip(order, values) if v]))


def pushforward(f: SimplicialMap, phi: ConstructibleFunction) -> ConstructibleFunction:
    """Proper pushforward: fiberwise sum weighted by (-1) to the dimension drop.

    Composing with the map to a point recovers euler_integral.  The terms
    are added up on the images of phi's support alone, so nothing is built
    over the rest of the target.
    """
    if phi.ambient != f.source:
        raise ModelError("function does not live on the source of the map")
    images = _images(f._vertex_table(), [s for s, _ in phi.items])
    terms = [(t, -v if (len(s) - len(t)) % 2 else v) for (s, v), t in zip(phi.items, images)]
    return _weighted_sum(f.target, [(1, terms)])


def dual(phi: ConstructibleFunction) -> ConstructibleFunction:
    """Combinatorial duality: the signed star sum.

    The dual at a simplex sums (-1)^dim(t) * phi(t) over all cofaces t.
    Applying it twice is the identity, and it sends the indicator of a
    closed d-manifold subcomplex to (-1)^d times itself.  It vanishes off
    the faces of phi's support, so it is summed over their down-closure
    alone, whatever the complex around it: a superset sum one vertex at a
    time (Yates), where the pass for v adds the value at each simplex
    holding v into its face without v, and a face joins the sum the first
    time a pass reaches it.  The work is the closure's vertex incidences.
    """
    acc = {t: v if len(t) % 2 else -v for t, v in phi.items}
    holding = defaultdict(list)  # per vertex not yet passed, the simplices in acc holding it
    for t in acc:
        for v in t:
            holding[v].append(t)
    for v in list(holding):
        for t in holding.pop(v):
            k = t.index(v)
            face = t[:k] + t[k + 1:]
            x = acc.get(face)
            if x is None:  # first reached: each vertex of it still to pass holds it
                for u in filter(holding.__contains__, face):
                    holding[u].append(face)
                x = 0
            acc[face] = x + acc[t]
    # the passes also reach the empty face (), which is no simplex
    items = [(s, acc[s]) for s in sorted(filter(acc.get, acc)) if s]
    return ConstructibleFunction._of(phi.ambient, tuple(items))


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
    triangle_decompose, which reads phi on the subcomplex M and one signed
    sum per trace of the open star of M, and needs no canonical order of
    the parent.
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
            raise ModelError(f"function is not supported in the open subset: {_text(s)}")


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
    depend only on what _split_star reads, gathered in one pass over phi's
    support: phi on the subcomplex M, as items, and for each trace w (the
    vertices in M of a simplex u outside M) the sum of (-1)^dim u phi(u)
    over its u.  The traces are read against the support's vertices in M,
    a vertex x being in M when the 0-simplex (x,) is, so nothing is built
    over M or the parent.
    """
    if phi.ambient != closed.parent:
        raise ModelError("function does not live on the parent of the subcomplex")
    in_m = closed.simplices
    near = {x for x in set(chain.from_iterable(map(itemgetter(0), phi.items))) if (x,) in in_m}
    of_m, apart = near.__contains__, near.isdisjoint
    on_m, sums = [], defaultdict(int)
    for u, v in phi.items:
        if u in in_m:
            on_m.append((u, v))
        elif not apart(u):
            sums[tuple(filter(of_m, u))] += v if len(u) % 2 else -v
    return _split_star(closed, on_m, sorted(sums.items()))


def _split_star(
    closed: Subcomplex, on_m: Sequence[tuple[tuple, int]], sums: Sequence[tuple[tuple, int]]
) -> tuple[ConstructibleFunction, ConstructibleFunction]:
    """triangle_decompose from phi's nonzero values on the subcomplex M,
    on_m as (simplex, value) items in canonical order, and the pairs
    (w, v(w)) in canonical trace order, v(w) the sum of (-1)^dim u phi(u)
    over the simplices u outside M whose vertices in M are w.

    Each trace w gets h0(w) = (-1)^dim w v(w), so for s in M D(h0)(s) sums
    v over the traces containing s.  With h = D_M(D(h0) on M), the boundary
    is -h, as the signs (-1)^dim u over s <= u <= w cancel for s in M and w
    outside M, and the costalk, D_M of D(phi) on M, is phi on M + h, added
    up on the two supports alone.  A dual depends only on its function's
    support, so when every trace with a nonzero sum is a simplex of M,
    D(h0) on M is D_M(h0) and h is h0 (D_M is an involution); otherwise h0
    is dualized on the parent.
    """
    space = closed.as_complex()
    h = tuple([(w, v if len(w) % 2 else -v) for w, v in sums if v])
    if not space.simplices.issuperset([w for w, _ in h]):  # a trace outside M
        h = dual(restrict(dual(ConstructibleFunction._of(closed.parent, h)), closed)).items
    # h first: in verify's draws it holds most of the costalk's simplices,
    # in order, so the sort of the sum meets them as one run
    return _weighted_sum(space, [(1, h), (1, on_m)]), -ConstructibleFunction._of(space, h)


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
