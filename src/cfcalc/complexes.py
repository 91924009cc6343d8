"""Finite simplicial complexes, subspaces, maps, involutions, products.

Everything in this module is an immutable value and every operation is a
pure function.  A "point" of a space is an open simplex: all functions
built on top of these complexes are constant on open simplices, which is
what keeps the whole calculus exact and finite.

Vertex identifiers are opaque strings (integers are accepted and
stringified).  The canonical order on simplices is lexicographic on the
sorted vertex tuple.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MissingSimplexError, ModelError

PRODUCT_SEPARATOR = "."


def _canonical_vertices(vertices: Iterable) -> tuple[str, ...]:
    names = [v if isinstance(v, str) else str(v) for v in vertices]
    if not names:
        raise ModelError("a simplex needs at least one vertex")
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate vertices in simplex {names!r}")
    return tuple(sorted(names))


@dataclass(frozen=True, order=True, init=False)
class Simplex:
    """A nonempty set of vertex ids, stored sorted; dim is one less than size."""

    vertices: tuple[str, ...]

    def __init__(self, vertices: Iterable) -> None:
        if isinstance(vertices, Simplex):
            object.__setattr__(self, "vertices", vertices.vertices)
        else:
            if isinstance(vertices, str):
                vertices = [vertices]  # a bare string is one vertex name
            object.__setattr__(self, "vertices", _canonical_vertices(vertices))

    @classmethod
    def _raw(cls, sorted_vertices: tuple[str, ...]) -> "Simplex":
        # fast path for internal callers that already hold a canonical tuple
        s = object.__new__(cls)
        object.__setattr__(s, "vertices", sorted_vertices)
        return s

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def subsimplices(self) -> Iterator["Simplex"]:
        """All nonempty faces, the simplex itself included."""
        for size in range(1, len(self.vertices) + 1):
            for combo in itertools.combinations(self.vertices, size):
                yield Simplex._raw(combo)

    def contains(self, other: "Simplex") -> bool:
        return set(other.vertices) <= set(self.vertices)

    def __iter__(self) -> Iterator[str]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __str__(self) -> str:
        return " ".join(self.vertices)


def simplex(*vertices) -> Simplex:
    """Convenience constructor: simplex("a", "b") == Simplex(["a", "b"])."""
    return Simplex(vertices)


_VERTICES = attrgetter("vertices")


def canonical_sorted(simplices: Iterable[Simplex]) -> list[Simplex]:
    """Simplices in the canonical order, compared as vertex tuples.

    The same order as sorted(simplices), without a Python-level
    comparison per pair.
    """
    return sorted(simplices, key=_VERTICES)


class ComplexIndex:
    """The canonical order of a complex and its face-incidence table.

    order[i] is the i-th simplex in canonical order and position maps its
    vertex tuple back to i.  The faces of simplex i, itself included, are
    the indices faces[starts[i]:starts[i + 1]], and odd[i] tells whether
    its dimension is odd.  Built by SimplicialComplex.index() on first
    use and kept for the life of the complex.
    """

    __slots__ = ("order", "position", "starts", "faces", "odd")

    def __init__(self, simplices: frozenset[Simplex]) -> None:
        order = tuple(canonical_sorted(simplices))
        position = {s.vertices: i for i, s in enumerate(order)}
        starts = [0]
        faces: list[int] = []
        lookup = position.__getitem__
        for s in order:
            vs = s.vertices
            for size in range(1, len(vs) + 1):
                faces.extend(map(lookup, itertools.combinations(vs, size)))
            starts.append(len(faces))
        self.order = order
        self.position = position
        self.starts = starts
        self.faces = faces
        self.odd = [len(s.vertices) % 2 == 0 for s in order]


@dataclass(frozen=True, init=False)
class SimplicialComplex:
    """A finite set of simplices closed under taking faces (possibly empty)."""

    simplices: frozenset[Simplex]

    def __init__(self, simplices: Iterable) -> None:
        sset = frozenset(Simplex(s) for s in simplices)
        for s in sset:
            for f in s.subsimplices():
                if f not in sset:
                    raise ModelError(
                        f"not face-closed: missing {f} (a face of {s})"
                    )
        object.__setattr__(self, "simplices", sset)

    def index(self) -> ComplexIndex:
        """The canonical order and face table, built on first use."""
        index = self.__dict__.get("_index")
        if index is None:
            index = ComplexIndex(self.simplices)
            object.__setattr__(self, "_index", index)
        return index

    @property
    def dim(self) -> int:
        return max((s.dim for s in self.simplices), default=-1)

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(v for s in self.simplices for v in s.vertices)

    def has(self, simplex_like) -> bool:
        return Simplex(simplex_like) in self.simplices

    def ordered(self) -> tuple[Simplex, ...]:
        return self.index().order

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        proper_faces: set[Simplex] = set()
        for s in self.simplices:
            for f in s.subsimplices():
                if f != s:
                    proper_faces.add(f)
        return tuple(canonical_sorted(self.simplices - proper_faces))

    def euler_characteristic(self) -> int:
        return sum(-1 if s.dim % 2 else 1 for s in self.simplices)

    def __len__(self) -> int:
        return len(self.simplices)


def build_complex(maximal_simplices: Iterable) -> SimplicialComplex:
    """Face closure of the given simplices.  An empty list gives the empty complex."""
    closure: set[Simplex] = set()
    for vs in maximal_simplices:
        closure.update(Simplex(vs).subsimplices())
    return SimplicialComplex(closure)


def point_complex(name: str = "pt") -> SimplicialComplex:
    return build_complex([[name]])


def star(space: SimplicialComplex, simplex_like) -> frozenset[Simplex]:
    """All simplices of the complex having the given simplex as a face."""
    s = Simplex(simplex_like)
    if s not in space.simplices:
        raise MissingSimplexError(f"{s} is not a simplex of the complex")
    return frozenset(t for t in space.simplices if t.contains(s))


@dataclass(frozen=True, init=False)
class Subcomplex:
    """A face-closed subset of a fixed parent complex."""

    parent: SimplicialComplex
    simplices: frozenset[Simplex]

    def __init__(self, parent: SimplicialComplex, simplices: Iterable) -> None:
        sset = frozenset(Simplex(s) for s in simplices)
        for s in sset:
            if s not in parent.simplices:
                raise MissingSimplexError(
                    f"{s} is not a simplex of the parent complex"
                )
            for f in s.subsimplices():
                if f not in sset:
                    raise ModelError(
                        f"subcomplex is not face-closed: missing {f} (a face of {s})"
                    )
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "simplices", sset)

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    @property
    def dim(self) -> int:
        return max((s.dim for s in self.simplices), default=-1)

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(v for s in self.simplices for v in s.vertices)

    def has(self, simplex_like) -> bool:
        return Simplex(simplex_like) in self.simplices

    def as_complex(self) -> SimplicialComplex:
        """The subcomplex as a complex of its own, built once and cached.

        The constructor already checked face closure, so it is not checked
        again; every call returns the same complex object.
        """
        space = self.__dict__.get("_complex")
        if space is None:
            space = object.__new__(SimplicialComplex)
            object.__setattr__(space, "simplices", self.simplices)
            object.__setattr__(self, "_complex", space)
        return space

    def intersection(self, other: "Subcomplex") -> "Subcomplex":
        if self.parent != other.parent:
            raise ModelError("cannot intersect subcomplexes of different parents")
        return Subcomplex(self.parent, self.simplices & other.simplices)

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        return self.as_complex().maximal_simplices()


def subcomplex(space: SimplicialComplex, generators: Iterable) -> Subcomplex:
    """Face closure, inside the parent, of the given generating simplices."""
    closure: set[Simplex] = set()
    for g in generators:
        s = Simplex(g)
        if s not in space.simplices:
            raise MissingSimplexError(
                f"generator {s} is not a simplex of the parent complex"
            )
        closure.update(s.subsimplices())
    return Subcomplex(space, closure)


def full_subcomplex(space: SimplicialComplex) -> Subcomplex:
    return Subcomplex(space, space.simplices)


@dataclass(frozen=True, init=False)
class OpenSubset:
    """A coface-closed subset of a parent complex, i.e. the complement of a subcomplex."""

    parent: SimplicialComplex
    simplices: frozenset[Simplex]

    def __init__(self, parent: SimplicialComplex, simplices: Iterable) -> None:
        sset = frozenset(Simplex(s) for s in simplices)
        for s in sset:
            if s not in parent.simplices:
                raise MissingSimplexError(
                    f"{s} is not a simplex of the parent complex"
                )
        # coface-closed is the same as: the complement is face-closed
        complement = parent.simplices - sset
        for s in complement:
            for f in s.subsimplices():
                if f not in complement:
                    raise ModelError(
                        f"subset is not coface-closed: contains {f} but not its coface {s}"
                    )
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "simplices", sset)

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    def has(self, simplex_like) -> bool:
        return Simplex(simplex_like) in self.simplices


def complement_open(space: SimplicialComplex, closed: Subcomplex) -> OpenSubset:
    """The open complement of a subcomplex, built once and cached on it.

    The complement of a face-closed set is coface-closed, so the
    OpenSubset check is skipped.
    """
    if closed.parent != space:
        raise ModelError("subcomplex does not live in the given complex")
    opensub = closed.__dict__.get("_open")
    if opensub is None:
        opensub = object.__new__(OpenSubset)
        object.__setattr__(opensub, "parent", closed.parent)
        object.__setattr__(opensub, "simplices", closed.parent.simplices - closed.simplices)
        object.__setattr__(closed, "_open", opensub)
    return opensub


def cone(base: SimplicialComplex, apex) -> SimplicialComplex:
    """Join with a fresh apex vertex.  The cone over the empty complex is a point."""
    a = apex if isinstance(apex, str) else str(apex)
    if a in base.vertices:
        raise ModelError(f"apex {a!r} is already a vertex of the base complex")
    sims: set[Simplex] = set(base.simplices)
    sims.add(Simplex([a]))
    sims.update(Simplex(s.vertices + (a,)) for s in base.simplices)
    return SimplicialComplex(sims)


@lru_cache(maxsize=None)
def _staircase_patterns(p: int, q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Strictly increasing chains in the (p+1) x (q+1) grid poset that use
    every row and every column.  Instantiating these per simplex pair
    enumerates each product simplex exactly once."""
    cells = [(i, j) for i in range(p + 1) for j in range(q + 1)]
    cells.sort()
    out: list[tuple[tuple[int, int], ...]] = []

    def spans(chain: tuple[tuple[int, int], ...]) -> bool:
        return (
            len({i for i, _ in chain}) == p + 1
            and len({j for _, j in chain}) == q + 1
        )

    def extend(chain: tuple[tuple[int, int], ...]) -> None:
        if spans(chain):
            out.append(chain)
        li, lj = chain[-1]
        for i, j in cells:
            if (i, j) != (li, lj) and i >= li and j >= lj:
                extend(chain + ((i, j),))

    for c in cells:
        extend((c,))
    return tuple(out)


def _validate_order(space: SimplicialComplex, order, label: str) -> list[str]:
    if order is None:
        return sorted(space.vertices)
    order = [v if isinstance(v, str) else str(v) for v in order]
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
    vertices (sorted order unless supplied).  Product vertices are named
    "a.b", so factor vertex names must not contain a dot.
    """
    lorder = _validate_order(left, left_order, "left_order")
    rorder = _validate_order(right, right_order, "right_order")
    for v in itertools.chain(lorder, rorder):
        if PRODUCT_SEPARATOR in v:
            raise ModelError(
                f"vertex {v!r} contains {PRODUCT_SEPARATOR!r}, which is reserved for product names"
            )
    lpos = {v: i for i, v in enumerate(lorder)}
    rpos = {v: i for i, v in enumerate(rorder)}

    sims: list[Simplex] = []
    for ls in left.simplices:
        lv = sorted(ls.vertices, key=lpos.__getitem__)
        for rs in right.simplices:
            rv = sorted(rs.vertices, key=rpos.__getitem__)
            for pattern in _staircase_patterns(ls.dim, rs.dim):
                sims.append(
                    Simplex(
                        f"{lv[i]}{PRODUCT_SEPARATOR}{rv[j]}" for i, j in pattern
                    )
                )
    space = SimplicialComplex(sims)

    split = {
        v: tuple(v.split(PRODUCT_SEPARATOR, 1)) for v in space.vertices
    }
    proj_left = SimplicialMap(space, left, {v: a for v, (a, _) in split.items()})
    proj_right = SimplicialMap(space, right, {v: b for v, (_, b) in split.items()})
    return space, proj_left, proj_right


@dataclass(frozen=True, init=False)
class SimplicialMap:
    """A vertex map under which the image of every simplex spans a target simplex."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_pairs: tuple[tuple[str, str], ...]

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Mapping,
    ) -> None:
        vm = {
            (k if isinstance(k, str) else str(k)): (v if isinstance(v, str) else str(v))
            for k, v in vertex_map.items()
        }
        if set(vm) != set(source.vertices):
            extra = sorted(set(vm) - set(source.vertices))
            missing = sorted(set(source.vertices) - set(vm))
            raise ModelError(
                "vertex map must be total on the source vertices"
                + (f"; unmapped: {missing}" if missing else "")
                + (f"; unknown: {extra}" if extra else "")
            )
        bad_values = sorted(set(vm.values()) - set(target.vertices))
        if bad_values:
            raise ModelError(f"vertex map hits non-vertices of the target: {bad_values}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "vertex_pairs", tuple(sorted(vm.items())))
        for s in source.simplices:
            img = self.image(s)
            if img not in target.simplices:
                raise ModelError(
                    f"image {img} of {s} is not a simplex of the target"
                )

    @property
    def vertex_map(self) -> dict[str, str]:
        return dict(self.vertex_pairs)

    def _vertex_table(self) -> dict[str, str]:
        table = self.__dict__.get("_table")
        if table is None:
            table = dict(self.vertex_pairs)
            object.__setattr__(self, "_table", table)
        return table

    def vertex(self, v: str) -> str:
        try:
            return self._vertex_table()[v]
        except KeyError:
            raise MissingSimplexError(f"{v!r} is not a vertex of the source") from None

    def image(self, s: Simplex) -> Simplex:
        try:
            return Simplex._raw(self.image_vertices(s.vertices))
        except KeyError as err:
            raise MissingSimplexError(f"{err.args[0]!r} is not a vertex of the source") from None

    def image_vertices(self, vertices: tuple[str, ...]) -> tuple[str, ...]:
        """The sorted vertex tuple of the image of a source simplex."""
        table = self._vertex_table()
        return tuple(sorted({table[v] for v in vertices}))


def simplicial_map(source, target, vertex_map) -> SimplicialMap:
    return SimplicialMap(source, target, vertex_map)


def identity_map(space: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(space, space, {v: v for v in space.vertices})


def inclusion_map(sub: Subcomplex) -> SimplicialMap:
    """The inclusion of a subcomplex, viewed as a complex, into its parent."""
    return SimplicialMap(
        sub.as_complex(), sub.parent, {v: v for v in sub.vertices}
    )


def constant_map(source: SimplicialComplex, target: SimplicialComplex, at) -> SimplicialMap:
    a = at if isinstance(at, str) else str(at)
    if not target.has([a]):
        raise MissingSimplexError(f"{a!r} is not a vertex of the target")
    return SimplicialMap(source, target, {v: a for v in source.vertices})


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    """The composite simplicial map, outer after inner."""
    if inner.target != outer.source:
        raise ModelError("maps are not composable: target and source differ")
    return SimplicialMap(
        inner.source,
        outer.target,
        {v: outer.vertex(inner.vertex(v)) for v in inner.source.vertices},
    )


@dataclass(frozen=True, init=False)
class Involution:
    """A self-inverse simplicial automorphism.

    Regularity is required: a simplex mapped onto itself as a set must have
    all of its vertices fixed.  This keeps fixed point sets honest
    subcomplexes.
    """

    underlying: SimplicialMap

    def __init__(self, underlying: SimplicialMap) -> None:
        if underlying.source != underlying.target:
            raise ModelError("an involution needs source equal to target")
        vm = underlying.vertex_map
        bad = sorted(v for v in vm if vm[vm[v]] != v)
        if bad:
            raise ModelError(f"map is not self-inverse at vertices {bad}")
        for s in underlying.source.simplices:
            if underlying.image(s) == s and any(vm[v] != v for v in s.vertices):
                raise ModelError(
                    f"involution is not regular: {s} maps onto itself without fixing its vertices"
                )
        object.__setattr__(self, "underlying", underlying)

    @property
    def space(self) -> SimplicialComplex:
        return self.underlying.source

    def vertex(self, v: str) -> str:
        return self.underlying.vertex(v)

    def image(self, s: Simplex) -> Simplex:
        return self.underlying.image(s)


def involution(space: SimplicialComplex, vertex_map: Mapping) -> Involution:
    """Build an involution from a sparse vertex map; unmentioned vertices are fixed."""
    vm = {
        (k if isinstance(k, str) else str(k)): (v if isinstance(v, str) else str(v))
        for k, v in vertex_map.items()
    }
    unknown = sorted(set(vm) - set(space.vertices))
    if unknown:
        raise ModelError(f"vertex map mentions non-vertices {unknown}")
    total = {v: vm.get(v, v) for v in space.vertices}
    return Involution(SimplicialMap(space, space, total))


def fixed_point_set(tau: Involution) -> Subcomplex:
    """The subcomplex of simplices all of whose vertices are fixed."""
    vm = tau.underlying.vertex_map
    fixed = frozenset(
        s for s in tau.space.simplices if all(vm[v] == v for v in s.vertices)
    )
    return Subcomplex(tau.space, fixed)


def is_strongly_free(tau: Involution) -> bool:
    """True when every simplex is vertex-disjoint from its image."""
    return all(
        not set(tau.image(s).vertices) & set(s.vertices)
        for s in tau.space.simplices
    )


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
    orbit = {v: min(v, tau.vertex(v)) for v in tau.space.vertices}
    groups: dict[Simplex, set[Simplex]] = defaultdict(set)
    for s in tau.space.simplices:
        groups[Simplex(orbit[v] for v in s.vertices)].add(s)
    for img, grp in sorted(groups.items()):
        rep = next(iter(grp))
        if grp != {rep, tau.image(rep)}:
            raise ModelError(
                f"orbit map does not give a simplicial quotient at {img}: "
                f"{len(grp)} simplices share one image; refine the model (e.g. subdivide)"
            )
    quotient = SimplicialComplex(groups.keys())
    projection = SimplicialMap(tau.space, quotient, orbit)
    return quotient, projection


def is_connected(simplices: Iterable[Simplex]) -> bool:
    """Vertex connectivity of a family of simplices.  Empty families are not connected."""
    sims = [Simplex(s) for s in simplices]
    if not sims:
        return False
    adjacency: dict[str, set[str]] = defaultdict(set)
    for s in sims:
        for a in s.vertices:
            adjacency[a].update(s.vertices)
    verts = set(adjacency)
    seen = {next(iter(sorted(verts)))}
    frontier = list(seen)
    while frontier:
        seen_next = adjacency[frontier.pop()] - seen
        seen.update(seen_next)
        frontier.extend(seen_next)
    return seen == verts
