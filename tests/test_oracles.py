"""The kernel against reference implementations of its definitions.

The oracles below are written straight from the definitions, with no
index, face table or shortcut: the dual as the signed sum over the star,
the pushforward as the signed sum over each fibre, face closure and
maximality by listing every face.  Values include +-2^70, so any
arithmetic that wrapped at 64 bits would show.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cfcalc import (
    ConstructibleFunction,
    ModelError,
    OpenSubset,
    SimplicialComplex,
    Subcomplex,
    build_complex,
    dual,
    pushforward,
    simplicial_map,
    star,
)

BIG = 2**70


@st.composite
def complex_with_cf(draw, max_vertices=8, max_dim=3):
    nv = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    sims = draw(
        st.lists(
            st.sets(st.sampled_from(vertices), min_size=1, max_size=min(max_dim + 1, nv)),
            min_size=1,
            max_size=2 * nv,
        )
    )
    space = build_complex(sims)
    value = st.one_of(
        st.just(0),
        st.integers(min_value=-5, max_value=5),
        st.sampled_from([BIG, -BIG, BIG + 1, -BIG - 3]),
    )
    values = {s: draw(value) for s in sorted(space.simplices)}
    return space, ConstructibleFunction(space, values)


@st.composite
def simplicial_maps(draw, source):
    """A random vertex map onto fresh names, with target its image complex
    plus a few extra simplices on the same vertices."""
    names = [f"t{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    vmap = {v: draw(st.sampled_from(names)) for v in sorted(source.vertices)}
    images = [{vmap[v] for v in s.vertices} for s in source.simplices]
    hit = sorted(set(vmap.values()))
    extra = draw(st.lists(st.sets(st.sampled_from(hit), min_size=1), max_size=3))
    return simplicial_map(source, build_complex(images + extra), vmap)


def _sign(dim: int) -> int:
    return -1 if dim % 2 else 1


def reference_dual(phi: ConstructibleFunction) -> dict:
    """D(phi)(s) = sum over t in star(s) of (-1)^dim(t) phi(t)."""
    space = phi.ambient
    return {
        s: sum(_sign(t.dim) * phi.value(t) for t in star(space, s))
        for s in space.simplices
    }


def reference_pushforward(f, phi: ConstructibleFunction) -> dict:
    """f_*(phi)(t) = sum over s with f(s) = t of (-1)^(dim s - dim t) phi(s)."""
    return {
        t: sum(
            _sign(s.dim - t.dim) * phi.value(s)
            for s in f.source.simplices
            if f.image(s) == t
        )
        for t in f.target.simplices
    }


def values(phi: ConstructibleFunction) -> dict:
    return {s: phi.value(s) for s in phi.ambient.simplices}


@settings(max_examples=150, deadline=None)
@given(complex_with_cf())
def test_dual_is_the_signed_star_sum(pair):
    _, phi = pair
    d = dual(phi)
    assert values(d) == reference_dual(phi)
    assert dual(d) == phi


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pushforward_is_the_signed_fibre_sum(data):
    _, phi = data.draw(complex_with_cf())
    f = data.draw(simplicial_maps(phi.ambient))
    assert values(pushforward(f, phi)) == reference_pushforward(f, phi)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pushforward_commutes_with_duality(data):
    _, phi = data.draw(complex_with_cf())
    f = data.draw(simplicial_maps(phi.ambient))
    assert dual(pushforward(f, phi)) == pushforward(f, dual(phi))


def all_faces(vertices) -> set[frozenset]:
    """Every nonempty subset of a vertex set."""
    return {frozenset(c) for n in range(1, len(vertices) + 1) for c in itertools.combinations(vertices, n)}


def reference_face_closed(sets: set[frozenset]) -> bool:
    """Every face of every member is a member."""
    return all(f in sets for s in sets for f in all_faces(s))


def reference_coface_closed(sets: set[frozenset], parent: set[frozenset]) -> bool:
    """Every simplex of the parent having a member as a face is a member."""
    return all(t in sets for s in sets for t in parent if s <= t)


def reference_maximal(sets: set[frozenset]) -> set[frozenset]:
    """The members that are a proper face of no member."""
    return {s for s in sets if not any(s < t for t in sets)}


def ordered(sets: set[frozenset]) -> list[frozenset]:
    return sorted(sets, key=sorted)


@st.composite
def closed_sets(draw, max_vertices=7, max_dim=3):
    """The faces of a few random simplices, closed by listing every face."""
    nv = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    gens = draw(
        st.lists(
            st.sets(st.sampled_from(vertices), min_size=1, max_size=min(max_dim + 1, nv)),
            min_size=1,
            max_size=2 * nv,
        )
    )
    return {f for g in gens for f in all_faces(g)}


def maybe_drop_one(data, sets: set[frozenset]) -> set[frozenset]:
    if not sets or not data.draw(st.booleans()):
        return set(sets)
    return sets - {data.draw(st.sampled_from(ordered(sets)))}


def accepts(construct, *args) -> bool:
    try:
        construct(*args)
    except ModelError:
        return False
    return True


def vertex_sets(simplices) -> set[frozenset]:
    return {frozenset(s.vertices) for s in simplices}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_complex_accepts_exactly_the_face_closed_sets(data):
    candidate = maybe_drop_one(data, data.draw(closed_sets()))
    assert accepts(SimplicialComplex, candidate) == reference_face_closed(candidate)
    if reference_face_closed(candidate):
        maximal = SimplicialComplex(candidate).maximal_simplices()
        assert vertex_sets(maximal) == reference_maximal(candidate)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subcomplex_and_open_subset_match_the_definitions(data):
    parent_sets = data.draw(closed_sets())
    parent = SimplicialComplex(parent_sets)
    gens = data.draw(st.lists(st.sampled_from(ordered(parent_sets)), max_size=4))
    closed = {f for g in gens for f in all_faces(g)}

    candidate = maybe_drop_one(data, closed)
    assert accepts(Subcomplex, parent, candidate) == reference_face_closed(candidate)
    if reference_face_closed(candidate):
        maximal = Subcomplex(parent, candidate).maximal_simplices()
        assert vertex_sets(maximal) == reference_maximal(candidate)

    opened = maybe_drop_one(data, parent_sets - closed)
    assert accepts(OpenSubset, parent, opened) == reference_coface_closed(opened, parent_sets)


def test_subcomplex_rejects_a_missing_face():
    parent = build_complex([["a", "b", "c"]])
    with pytest.raises(ModelError, match=r"subcomplex is not face-closed: missing b \(a face of a b\)"):
        Subcomplex(parent, [["a", "b"], ["a"]])


def test_one_sixteen_vertex_simplex():
    vertices = [f"v{i:02d}" for i in range(16)]
    space = build_complex([vertices])
    assert len(space) == 2**16 - 1
    assert [s.vertices for s in space.maximal_simplices()] == [tuple(vertices)]
