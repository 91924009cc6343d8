"""The kernel against reference implementations of its definitions.

The oracles below are written straight from the definitions, with no
index, face table or shortcut: the dual as the signed sum over the star,
the pushforward as the signed sum over each fibre, face closure and
maximality by listing every face, the product by listing every chain.
Values include +-2^70, so any arithmetic that wrapped at 64 bits would
show.
"""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import cfcalc.calculus
from cfcalc import (
    ConstructibleFunction,
    ModelError,
    OpenSubset,
    SimplicialComplex,
    Subcomplex,
    build_complex,
    build_model,
    complement_open,
    dual,
    list_models,
    open_pushforward,
    product,
    pushforward,
    restrict,
    restrict_open,
    shriek_restrict,
    simplicial_map,
    solution_index,
    star,
    subcomplex,
    triangle_decompose,
)
from cfcalc.cli import main
from cfcalc.indices import _random_items

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


def reference_triangle(closed: Subcomplex, phi: ConstructibleFunction):
    """The costalk and boundary terms as their definitions compose them on
    the whole ambient: shriek restriction, and the restriction of the open
    pushforward from the complement U of the subcomplex."""
    u = complement_open(closed.parent, closed)
    boundary = restrict(open_pushforward(u, restrict_open(phi, u)), closed)
    return shriek_restrict(closed, phi), boundary


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_decompose_is_the_definitional_composition(data):
    space, phi = data.draw(complex_with_cf())
    kind = data.draw(st.sampled_from(("empty", "whole", "generated")))
    if kind == "whole":
        closed = Subcomplex(space, space.simplices)
    else:
        gens = [] if kind == "empty" else data.draw(
            st.lists(st.sampled_from(space.ordered()), min_size=1, max_size=4)
        )
        closed = subcomplex(space, gens)
    # the second call reads the star table the first one cached
    for psi in (phi, dual(phi)):
        assert triangle_decompose(closed, psi) == reference_triangle(closed, psi)


def draws(ambient, seed: int) -> list[ConstructibleFunction]:
    """The three random functions of verify's triangle rows, drawn as the
    definition reads."""
    rng = random.Random(seed)
    sims = ambient.ordered()
    return [
        ConstructibleFunction(ambient, {s: rng.randint(-3, 3) for s in sims if rng.random() < 0.4})
        for _ in range(3)
    ]


@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_triangle_decompose_matches_the_definition_on_the_models(name):
    scene = build_model(name, k=3)
    closed = scene.pair.real_form
    functions = [solution_index(scene.cycle, scene.ambient)] + draws(scene.ambient, 7)
    for phi in functions:
        assert triangle_decompose(closed, phi) == reference_triangle(closed, phi)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_verify_draws_its_random_functions_as_defined(seed):
    ambient = build_model("node_curve", k=3).ambient
    rng = random.Random(seed)
    built = [
        ConstructibleFunction._of(ambient, _random_items(rng, ambient.ordered())) for _ in range(3)
    ]
    assert built == draws(ambient, seed)


# ambient duals per verify at k = 3: one for the shriek_indicator row and one
# for the base_change row of each stratum; antipodal_cover declares no
# probes, so its shriek_indicator row makes none
AMBIENT_DUALS = {
    "antipodal_cover": 1, "kashiwara_point": 4, "node_curve": 2, "pair_C_R": 2,
    "smooth_line_in_C2": 2,
}


@pytest.mark.parametrize("name", sorted(AMBIENT_DUALS))
def test_verify_dualizes_the_ambient_only_for_the_stratum_rows(name, monkeypatch):
    scene = build_model(name, k=3)
    original, ambient_duals = cfcalc.calculus.dual, []

    def counting(phi):
        if phi.ambient is scene.ambient:
            ambient_duals.append(phi)
        return original(phi)

    monkeypatch.setattr(cfcalc.calculus, "dual", counting)
    assert scene.verify().passed
    assert len(ambient_duals) == AMBIENT_DUALS[name]
    assert AMBIENT_DUALS[name] == len(scene.cycle) * (2 if scene.pair.probes else 1)


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


def reference_product(left_sets, right_sets, lorder, rorder) -> set[frozenset]:
    """Every chain of vertex pairs that strictly increases in the product of
    the two orders and whose projections are simplices of the factors."""
    lpos = {v: i for i, v in enumerate(lorder)}
    rpos = {v: i for i, v in enumerate(rorder)}
    # lexicographic, so a later pair at least as high in both orders is higher
    pairs = [(a, b) for a in lorder for b in rorder]
    chains = set()

    def extend(chain, rest):
        if frozenset(a for a, _ in chain) in left_sets and frozenset(b for _, b in chain) in right_sets:
            chains.add(frozenset(f"{a}.{b}" for a, b in chain))
        la, lb = chain[-1]
        for n, (a, b) in enumerate(rest):
            if lpos[a] >= lpos[la] and rpos[b] >= rpos[lb]:
                extend(chain + [(a, b)], rest[n + 1:])

    for n, pair in enumerate(pairs):
        extend([pair], pairs[n + 1:])
    return chains


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_is_the_set_of_increasing_chains(data):
    left_sets = data.draw(closed_sets(max_vertices=5, max_dim=4))
    right_sets = data.draw(closed_sets(max_vertices=5, max_dim=4))
    left, right = SimplicialComplex(left_sets), SimplicialComplex(right_sets)
    lorder = data.draw(st.permutations(sorted(left.vertices)))
    rorder = data.draw(st.permutations(sorted(right.vertices)))
    space, proj_left, proj_right = product(left, right, lorder, rorder)
    assert vertex_sets(space.simplices) == reference_product(left_sets, right_sets, lorder, rorder)
    assert (proj_left.source, proj_left.target) == (space, left)
    assert (proj_right.source, proj_right.target) == (space, right)
    assert proj_left.vertex_map == {v: v.split(".")[0] for v in space.vertices}
    assert proj_right.vertex_map == {v: v.split(".")[1] for v in space.vertices}


# sha256 of `cfcalc models emit NAME k=12` as the product over every pair of
# factor simplices produced it, before the plane models were listed as chains
EMIT_K12_SHA256 = {
    "node_curve": "e896ee89888fabe10b5257fdfa25a99bf64f51b643725830be7f56b57b3cdcc1",
    "smooth_line_in_C2": "65c5faab559b5b68f8289419f73ed7f19465c44f538a030befeaae1e9e0a2dd0",
}


@pytest.mark.parametrize("name", sorted(EMIT_K12_SHA256))
def test_plane_model_emission_at_k12_is_pinned(name, capsys):
    assert main(["models", "emit", name, "k=12"]) == 0
    emitted = capsys.readouterr().out.encode()
    assert hashlib.sha256(emitted).hexdigest() == EMIT_K12_SHA256[name]


def test_product_of_two_ten_vertex_simplices_is_refused_quickly():
    left = build_complex([[f"a{i}" for i in range(10)]])
    right = build_complex([[f"b{i}" for i in range(10)]])
    start = time.perf_counter()
    with pytest.raises(ModelError, match="product may hold up to 25490833940 simplices"):
        product(left, right)
    assert time.perf_counter() - start < 1.0
