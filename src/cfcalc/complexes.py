"""Finite simplicial complexes, subspaces, maps, involutions, products.

Everything in this module is an immutable value and every operation is a
pure function.  A "point" of a space is an open simplex: all functions
built on top of these complexes are constant on open simplices, which is
what keeps the whole calculus exact and finite.

Vertex identifiers are opaque strings; any other value, such as an
integer, is named by its str().  A simplex is the plain tuple of its
sorted vertex names, and the canonical order on simplices is the
lexicographic order of those tuples.  Every simplex the package computes
is such a tuple; the tuple subclass Simplex is kept only for the points a
user names (simplex(...), probes, expected values and the CLI's --at),
and one helper, _text, writes a simplex's text at every output edge.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from itertools import chain, combinations, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from ._frozen import Frozen, cached
from .errors import MissingSimplexError, ModelError

PRODUCT_SEPARATOR = "."

# Most simplices a face closure may produce, bounded before any face is
# listed: one n-vertex simplex alone has 2^n - 1 faces.
MAX_SIMPLICES = 10**6


def _canonical_vertices(vertices: Iterable) -> tuple[str, ...]:
    """The simplex named by vertices, as its sorted tuple of names: a bare
    string is one vertex name."""
    names = [vertices] if isinstance(vertices, str) else list(map(str, vertices))
    if not names:
        raise ModelError("a simplex needs at least one vertex")
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate vertices in simplex {names!r}")
    return tuple(sorted(names))


# a simplex's text, at every output edge: its vertex names, space-joined
_text = " ".join


class Simplex(tuple):
    """A point a user names, read by _canonical_vertices: equal to the
    plain tuple, which it reprs as, with the simplex's text as its str.
    Every simplex the package computes is the plain tuple."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable) -> "Simplex":
        if isinstance(vertices, Simplex):
            return vertices
        return tuple.__new__(cls, _canonical_vertices(vertices))

    def __str__(self) -> str:
        return _text(self)


def simplex(*vertices) -> Simplex:
    """Convenience constructor: simplex("a", "b") == Simplex(["a", "b"])."""
    return Simplex(vertices)


def _find(simplices: frozenset, simplex_like) -> tuple[str, ...]:
    """simplex_like as a simplex: a tuple in simplices as it is, anything
    else read by _canonical_vertices, which may not be in simplices."""
    try:
        if simplex_like in simplices:
            return tuple(simplex_like)
    except TypeError:  # unhashable, such as a list
        pass
    return _canonical_vertices(simplex_like)


def _simplex_set(simplices: Iterable, parent: SimplicialComplex | None = None) -> frozenset:
    """The given simplices as a set, each read by _canonical_vertices; given
    a parent, one outside it is refused."""
    sset = frozenset(map(_canonical_vertices, simplices))
    if parent is not None:
        stray = sset - parent.simplices
        if stray:
            raise MissingSimplexError(f"{_text(min(stray))} is not a simplex of the parent complex")
    return sset


def _require_face_closed(sset: frozenset, what: str) -> None:
    """Raise ModelError(what), filled with {face} and {simplex}, at the least
    facet missing from the set of its least member missing one; every facet
    of each member gives every face, by induction on dimension."""
    missing = [(s, f) for s in sset for f in combinations(s, len(s) - 1) if f and f not in sset]
    if missing:
        s, facet = min(missing)
        raise ModelError(what.format(face=_text(facet), simplex=_text(s)))


def _closure_bound(gens: set) -> int:
    """The most simplices the face closure of distinct generators can hold."""
    return sum((1 << len(s)) - 1 for s in gens)


def _within_budget(bound: int, what: str) -> None:
    """Refuse work that may make more than MAX_SIMPLICES simplices."""
    if bound > MAX_SIMPLICES:
        raise ModelError(
            f"{what} may hold up to {bound} simplices, more than the limit of {MAX_SIMPLICES}"
        )


def _face_closure(gens: set) -> frozenset:
    """Every face of the distinct generators once, listed one size at a time
    in C and kept as listed, whose closure the caller has bounded by
    _closure_bound and _within_budget."""
    sizes = range(1, max(map(len, gens), default=0) + 1)
    per_size = (map(combinations, gens, repeat(n)) for n in sizes)
    return frozenset(chain.from_iterable(chain.from_iterable(per_size)))


def _close(gens: set) -> "SimplicialComplex":
    """The complex closed from distinct generators whose closure the caller
    has bounded."""
    return SimplicialComplex._closed(_face_closure(gens), gens)


class SimplicialComplex(Frozen):
    """A finite set of simplices closed under taking faces (possibly empty)."""

    _fields = ("simplices",)

    def __init__(self, simplices: Iterable) -> None:
        sset = _simplex_set(simplices)
        _require_face_closed(sset, "not face-closed: missing {face} (a face of {simplex})")
        super().__init__(sset)

    @classmethod
    def _closed(cls, simplices: Iterable, generators=None) -> "SimplicialComplex":
        # for sets the package closed under faces itself: nothing is checked;
        # generators, if given, are the distinct simplices they close
        space = object.__new__(cls)
        object.__setattr__(space, "simplices", frozenset(simplices))
        if generators is not None:
            object.__setattr__(space, "_generators", generators)
        return space

    def __eq__(self, other):
        if self is other:  # the common case: every operator checks its ambient
            return True
        if other.__class__ is not SimplicialComplex:
            return NotImplemented
        return self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)

    @property
    def dim(self) -> int:
        return max(map(len, self.simplices), default=0) - 1

    @property
    @cached
    def vertices(self) -> frozenset[str]:
        """The vertex names."""
        return frozenset(chain.from_iterable(self.simplices))

    def has(self, simplex_like) -> bool:
        return _find(self.simplices, simplex_like) in self.simplices

    @cached
    def ordered(self) -> tuple[tuple, ...]:
        """The simplices in canonical order."""
        return tuple(sorted(self.simplices))

    @cached
    def maximal_simplices(self) -> tuple[tuple, ...]:
        """The simplices that are no member's proper face, in canonical
        order: the generators, when the package closed distinct simplices
        of one size itself, else by one facet scan."""
        gens = self.__dict__.get("_generators")
        if gens and len(set(map(len, gens))) == 1:
            return tuple(sorted(gens))
        # in a face-closed set, a proper face of a member is a facet of one
        facets = {f for s in self.simplices for f in combinations(s, len(s) - 1)}
        return tuple(sorted(s for s in self.simplices if s not in facets))

    def __len__(self) -> int:
        return len(self.simplices)


def build_complex(maximal_simplices: Iterable) -> SimplicialComplex:
    """Face closure of the given simplices.  An empty list gives the empty complex."""
    gens = set(map(_canonical_vertices, maximal_simplices))
    _within_budget(_closure_bound(gens), "face closure")
    return _close(gens)


def point_complex(name: str = "pt") -> SimplicialComplex:
    return build_complex([[name]])


class Subcomplex(Frozen):
    """A face-closed subset of a fixed parent complex."""

    _fields = ("parent", "simplices")

    def __init__(self, parent: SimplicialComplex, simplices: Iterable) -> None:
        sset = _simplex_set(simplices, parent)
        _require_face_closed(
            sset, "subcomplex is not face-closed: missing {face} (a face of {simplex})"
        )
        super().__init__(parent, sset)
        object.__setattr__(self, "_space", SimplicialComplex._closed(sset))

    @classmethod
    def _of(cls, parent: SimplicialComplex, space: SimplicialComplex) -> "Subcomplex":
        # for a complex the package built from parent simplices: nothing is
        # checked, and space is the subcomplex's own complex
        sub = object.__new__(cls)
        Frozen.__init__(sub, parent, space.simplices)
        object.__setattr__(sub, "_space", space)
        return sub

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    @property
    def dim(self) -> int:
        return self._space.dim

    @property
    def vertices(self) -> frozenset[str]:
        return self._space.vertices

    has = SimplicialComplex.has

    def as_complex(self) -> SimplicialComplex:
        """The subcomplex as a complex of its own, made with it."""
        return self._space

    def intersection(self, other: "Subcomplex") -> "Subcomplex":
        if self.parent != other.parent:
            raise ModelError("cannot intersect subcomplexes of different parents")
        space = SimplicialComplex._closed(self.simplices & other.simplices)
        return Subcomplex._of(self.parent, space)

    def maximal_simplices(self) -> tuple[tuple, ...]:
        return self._space.maximal_simplices()


def subcomplex(space: SimplicialComplex, generators: Iterable) -> Subcomplex:
    """Face closure, inside the parent, of the given generating simplices."""
    gens = [_find(space.simplices, g) for g in generators]
    for s in gens:
        if s not in space.simplices:
            raise MissingSimplexError(
                f"generator {_text(s)} is not a simplex of the parent complex"
            )
    tops = set(gens)
    _within_budget(_closure_bound(tops), "face closure")
    faces = _face_closure(tops)
    if len(faces) == len(space.simplices):  # faces of the parent, so all of them
        return Subcomplex._of(space, space)
    return Subcomplex._of(space, SimplicialComplex._closed(faces, tops))


class OpenSubset(Frozen):
    """A coface-closed subset of a parent complex, i.e. the complement of a subcomplex."""

    _fields = ("parent", "simplices")

    def __init__(self, parent: SimplicialComplex, simplices: Iterable) -> None:
        sset = _simplex_set(simplices, parent)
        # coface-closed is the same as: the complement is face-closed
        _require_face_closed(
            parent.simplices - sset,
            "subset is not coface-closed: contains {face} but not its coface {simplex}",
        )
        super().__init__(parent, sset)

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    has = SimplicialComplex.has


def complement_open(space: SimplicialComplex, closed: Subcomplex) -> OpenSubset:
    """The open complement of a subcomplex."""
    if closed.parent != space:
        raise ModelError("subcomplex does not live in the given complex")
    # the complement of a face-closed set is coface-closed, so the
    # OpenSubset check is skipped
    opensub = object.__new__(OpenSubset)
    Frozen.__init__(opensub, space, space.simplices - closed.simplices)
    return opensub


def _staircase(left_tops, right_tops, left_order, right_order) -> list[list[str]]:
    """The top chains of the staircase triangulation of each product of a
    left and a right top simplex (vertex-name lists or simplices), as
    "a.b" name lists.

    A top chain climbs one row or one column of the grid per step, so a
    pair of sizes p + 1 and q + 1 has C(p + q, p) of them, one per choice
    of the steps that climb a row.  Refused before any chain is listed
    when their face closure could exceed MAX_SIMPLICES.
    """
    lpos = {v: i for i, v in enumerate(left_order)}
    rpos = {v: i for i, v in enumerate(right_order)}
    lefts = [sorted(t, key=lpos.__getitem__) for t in left_tops]
    rights = [sorted(t, key=rpos.__getitem__) for t in right_tops]
    bound = sum(
        m * n * math.comb(a + b - 2, a - 1) * ((1 << (a + b - 1)) - 1)
        for a, m in Counter(map(len, lefts)).items()
        for b, n in Counter(map(len, rights)).items()
    )
    _within_budget(bound, "product")
    chains = []
    for lv in lefts:
        for rv in rights:
            steps = len(lv) + len(rv) - 2
            for rows in combinations(range(steps), len(lv) - 1):
                i, top = 0, []  # i counts the row steps among the first t
                for t in range(steps + 1):
                    top.append(f"{lv[i]}{PRODUCT_SEPARATOR}{rv[t - i]}")
                    i += t in rows
                chains.append(top)
    return chains


def _validate_order(space: SimplicialComplex, order, label: str) -> list[str]:
    if order is None:
        return sorted(space.vertices)
    order = list(map(str, order))
    if len(set(order)) != len(order) or set(order) != set(space.vertices):
        raise ModelError(f"{label} is not a total order on the factor's vertices")
    return order


def product(
    left: SimplicialComplex,
    right: SimplicialComplex,
    left_order: Sequence | None = None,
    right_order: Sequence | None = None,
) -> tuple[SimplicialComplex, "SimplicialMap", "SimplicialMap"]:
    """Staircase triangulation of the product, with its two projections.

    Simplices are the strictly increasing chains of vertex pairs, in the
    coordinatewise partial order induced by total orders on the factor
    vertices (sorted order unless supplied), whose projections are
    simplices of the factors: the face closure of the top chains of each
    pair of maximal simplices, under the MAX_SIMPLICES budget.  Product
    vertices are named "a.b", so factor vertex names must not contain a dot.
    """
    lorder = _validate_order(left, left_order, "left_order")
    rorder = _validate_order(right, right_order, "right_order")
    for v in chain(lorder, rorder):
        if PRODUCT_SEPARATOR in v:
            raise ModelError(
                f"vertex {v!r} contains {PRODUCT_SEPARATOR!r}, which is reserved for product names"
            )
    space = build_complex(
        _staircase(left.maximal_simplices(), right.maximal_simplices(), lorder, rorder)
    )

    split = {
        v: tuple(v.split(PRODUCT_SEPARATOR, 1)) for v in space.vertices
    }
    proj_left = SimplicialMap(space, left, {v: a for v, (a, _) in split.items()})
    proj_right = SimplicialMap(space, right, {v: b for v, (_, b) in split.items()})
    return space, proj_left, proj_right


def _images(table: Mapping[str, str], simplices: Iterable[tuple]) -> Iterator[tuple[str, ...]]:
    """The sorted vertex tuple of the image of each simplex under a vertex
    table, in one generator that makes no Python call per simplex and
    keeps no image past its use."""
    get = table.__getitem__
    return (tuple(sorted(set(map(get, s)))) for s in simplices)


class SimplicialMap(Frozen):
    """A vertex map under which the image of every simplex spans a target simplex."""

    _fields = ("source", "target", "vertex_pairs")

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Mapping,
    ) -> None:
        vm = {str(k): str(v) for k, v in vertex_map.items()}
        vertices = source.vertices
        if vm.keys() != vertices:
            extra = sorted(vm.keys() - vertices)
            missing = sorted(vertices - vm.keys())
            raise ModelError(
                "vertex map must be total on the source vertices"
                + (f"; unmapped: {missing}" if missing else "")
                + (f"; unknown: {extra}" if extra else "")
            )
        bad_values = sorted(set(vm.values()) - target.vertices)
        if bad_values:
            raise ModelError(f"vertex map hits non-vertices of the target: {bad_values}")
        super().__init__(source, target, tuple(sorted(vm.items())))
        # the image of a face is a face of its simplex's image, and the target
        # is face closed, so the simplices a complex was closed from stand for it
        tops = source.__dict__.get("_generators", source.simplices)
        if not target.simplices.issuperset(_images(vm, tops)):
            # the least stray simplex is named, whatever the set's hash order
            stray = zip(source.simplices, _images(vm, source.simplices))
            s, t = min((s, t) for s, t in stray if t not in target.simplices)
            raise ModelError(f"image {_text(t)} of {_text(s)} is not a simplex of the target")

    @property
    def vertex_map(self) -> dict[str, str]:
        return dict(self.vertex_pairs)

    @cached
    def _vertex_table(self) -> dict[str, str]:
        return dict(self.vertex_pairs)

    def vertex(self, v: str) -> str:
        try:
            return self._vertex_table()[v]
        except KeyError:
            raise MissingSimplexError(f"{v!r} is not a vertex of the source") from None

    def image(self, s: tuple) -> tuple:
        try:
            return next(_images(self._vertex_table(), (s,)))
        except KeyError as err:
            raise MissingSimplexError(f"{err.args[0]!r} is not a vertex of the source") from None


def simplicial_map(source, target, vertex_map) -> SimplicialMap:
    return SimplicialMap(source, target, vertex_map)


def inclusion_map(sub: Subcomplex) -> SimplicialMap:
    """The inclusion of a subcomplex, viewed as a complex, into its parent."""
    return SimplicialMap(
        sub.as_complex(), sub.parent, {v: v for v in sub.vertices}
    )


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    """The composite simplicial map, outer after inner."""
    if inner.target != outer.source:
        raise ModelError("maps are not composable: target and source differ")
    table = outer._vertex_table()
    return SimplicialMap(inner.source, outer.target, {v: table[w] for v, w in inner.vertex_pairs})


class Involution(Frozen):
    """A self-inverse simplicial automorphism.

    Regularity is required: a simplex mapped onto itself as a set must have
    all of its vertices fixed.  This keeps fixed point sets honest
    subcomplexes.
    """

    _fields = ("underlying",)

    def __init__(self, underlying: SimplicialMap) -> None:
        if underlying.source != underlying.target:
            raise ModelError("an involution needs source equal to target")
        vm = underlying._vertex_table()
        bad = sorted(v for v in vm if vm[vm[v]] != v)
        if bad:
            raise ModelError(f"map is not self-inverse at vertices {bad}")
        # the least irregular simplex is named, whatever the set's hash order
        simplices = underlying.source.simplices
        invariant = [s for s, t in zip(simplices, _images(vm, simplices)) if s == t]
        s = min((s for s in invariant if any(vm[v] != v for v in s)), default=None)
        if s is not None:
            raise ModelError(
                f"involution is not regular: {_text(s)} maps onto itself without fixing its vertices"
            )
        super().__init__(underlying)

    @property
    def space(self) -> SimplicialComplex:
        return self.underlying.source

    def vertex(self, v: str) -> str:
        return self.underlying.vertex(v)

    def image(self, s: tuple) -> tuple:
        return self.underlying.image(s)


def involution(space: SimplicialComplex, vertex_map: Mapping) -> Involution:
    """Build an involution from a sparse vertex map; unmentioned vertices are fixed."""
    vm = {str(k): str(v) for k, v in vertex_map.items()}
    unknown = sorted(set(vm) - set(space.vertices))
    if unknown:
        raise ModelError(f"vertex map mentions non-vertices {unknown}")
    total = {v: vm.get(v, v) for v in space.vertices}
    return Involution(SimplicialMap(space, space, total))


def fixed_point_set(tau: Involution) -> Subcomplex:
    """The subcomplex of simplices all of whose vertices are fixed."""
    vm = tau.underlying._vertex_table()
    fixed = frozenset(
        s for s in tau.space.simplices if all(vm[v] == v for v in s)
    )
    return Subcomplex._of(tau.space, SimplicialComplex._closed(fixed))


def is_strongly_free(tau: Involution) -> bool:
    """True when every simplex is vertex-disjoint from its image."""
    # An involution is regular, so a simplex s meets tau(s) only if s holds
    # a fixed vertex: a vertex y of s in tau(s) is tau(x) for an x in s, and
    # x != y would make the edge {x, y}, a face of s, a simplex that tau maps
    # onto itself without fixing its vertices.  A fixed vertex meets its own
    # image, so tau is strongly free exactly when it fixes no vertex.
    return all(v != w for v, w in tau.underlying.vertex_pairs)


def quotient_by_involution(
    tau: Involution,
) -> tuple[SimplicialComplex, SimplicialMap]:
    """Quotient complex of a strongly free involution, with its projection.

    Vertices of the quotient are orbit representatives (the smaller name of
    each orbit).  Fails if distinct orbits of simplices would collapse to
    the same vertex set, since the quotient would then not be a simplicial
    complex; refining the model (e.g. subdividing) resolves that.
    """
    if not is_strongly_free(tau):
        raise ModelError(
            "involution is not strongly free: some simplex meets its image"
        )
    orbit = {v: min(v, w) for v, w in tau.underlying.vertex_pairs}
    groups: dict[tuple, set] = defaultdict(set)
    simplices = tau.space.simplices
    for s, t in zip(simplices, _images(orbit, simplices)):
        groups[t].add(s)
    # the group of s holds tau(s), which is not s, so it is the orbit of s
    # exactly when it holds two simplices
    crowded = [img for img, grp in groups.items() if len(grp) != 2]
    if crowded:
        img = min(crowded)
        raise ModelError(
            f"orbit map does not give a simplicial quotient at {_text(img)}: "
            f"{len(groups[img])} simplices share one image; refine the model (e.g. subdivide)"
        )
    quotient = SimplicialComplex._closed(groups.keys())
    projection = SimplicialMap(tau.space, quotient, orbit)
    return quotient, projection


def is_connected(simplices: Iterable) -> bool:
    """Vertex connectivity of a family of simplices.  Empty families are not connected."""
    sims = list(map(_canonical_vertices, simplices))
    if not sims:
        return False
    adjacency: dict[str, set[str]] = defaultdict(set)
    for s in sims:
        for a in s:
            adjacency[a].update(s)
    verts = set(adjacency)
    seen = {next(iter(sorted(verts)))}
    frontier = list(seen)
    while frontier:
        seen_next = adjacency[frontier.pop()] - seen
        seen.update(seen_next)
        frontier.extend(seen_next)
    return seen == verts
