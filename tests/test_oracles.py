"""The calculus kernel against reference implementations of its definitions.

The oracles below are written straight from the definitions, with no
index, face table or shortcut: the dual as the signed sum over the star,
the pushforward as the signed sum over each fibre.  Values include
+-2^70, so any arithmetic that wrapped at 64 bits would show.
"""

from hypothesis import given, settings, strategies as st

from cfcalc import (
    ConstructibleFunction,
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
