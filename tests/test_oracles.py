"""The kernel against reference implementations of its definitions.

The oracles below are written straight from the definitions, with no
index, star table or shortcut: the dual as the signed sum over the star,
the costalk restriction as duality conjugating the restriction, the
pushforward as the signed sum over each fibre, the solution index and
the hyperfunction dimension as sums of whole functions, face closure and
maximality by listing every face, the product by listing every chain,
and the canonical text as json.dumps writes it.
Values include +-2^70, so any arithmetic that wrapped at 64 bits would
show.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import cfcalc.calculus
import cfcalc.indices
from cfcalc import (
    CharacteristicCycle,
    ConstructibleFunction,
    ModelError,
    OpenSubset,
    RealComplexPair,
    SimplicialComplex,
    Stratum,
    Subcomplex,
    build_complex,
    build_model,
    complement_open,
    dual,
    hyperfunction_dimension,
    hyperfunction_index,
    inclusion_map,
    indicator,
    list_models,
    open_pushforward,
    parse_scene,
    product,
    pushforward,
    restrict,
    restrict_open,
    shriek_restrict,
    simplicial_map,
    solution_index,
    subcomplex,
    triangle_decompose,
)
from cfcalc.cli import main
from cfcalc.indices import _DRAW_TABLE
from cfcalc.scenes import _quote_ascii, _write
from conftest import complexes, order_built

BIG = 2**70


@st.composite
def complex_with_cf(draw, max_vertices=8, max_dim=3):
    space = draw(complexes(max_vertices, max_dim))
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
    """D(phi)(s) = sum over the t having s as a face of (-1)^dim(t) phi(t)."""
    space = phi.ambient
    return {
        s: sum(
            _sign(t.dim) * phi.value(t)
            for t in space.simplices
            if set(s.vertices) <= set(t.vertices)
        )
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
    the whole ambient: duality conjugating the restriction, and the
    restriction of the open pushforward from the complement U of the
    subcomplex."""
    u = complement_open(closed.parent, closed)
    boundary = restrict(open_pushforward(u, restrict_open(phi, u)), closed)
    return dual(restrict(dual(phi), closed)), boundary


@st.composite
def closed_in(draw, space):
    """The empty subcomplex, the whole complex, or one generated by a few
    of its simplices."""
    kind = draw(st.sampled_from(("empty", "whole", "generated")))
    if kind == "whole":
        return Subcomplex(space, space.simplices)
    gens = [] if kind == "empty" else draw(
        st.lists(st.sampled_from(space.ordered()), min_size=1, max_size=4)
    )
    return subcomplex(space, gens)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shriek_restrict_is_restriction_conjugated_by_duality(data):
    space, phi = data.draw(complex_with_cf())
    closed = data.draw(closed_in(space))
    for psi in (phi, dual(phi)):
        assert shriek_restrict(closed, psi) == dual(restrict(dual(psi), closed))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_decompose_is_the_definitional_composition(data):
    space, phi = data.draw(complex_with_cf())
    closed = data.draw(closed_in(space))
    # the second call reads the star table the first one cached
    for psi in (phi, dual(phi)):
        assert triangle_decompose(closed, psi) == reference_triangle(closed, psi)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_split_star_is_the_definitional_triangle_on_star_vectors(data):
    """The kernel on values x over the open star of M, against the
    definition and against triangle_decompose on the function x gives,
    with M empty, a vertex, generated by a few simplices or everything,
    and x sparse or dense."""
    space, _ = data.draw(complex_with_cf())
    if data.draw(st.booleans()):
        closed = subcomplex(space, [[data.draw(st.sampled_from(sorted(space.vertices)))]])
    else:
        closed = data.draw(closed_in(space))
    star = cfcalc.calculus._open_star(closed)[0]
    value = st.one_of(st.integers(min_value=-5, max_value=5), st.sampled_from([BIG, -BIG]))
    if data.draw(st.booleans()):  # dense: a value at every star simplex
        x = data.draw(st.lists(value, min_size=len(star), max_size=len(star)))
    else:  # sparse: a few values, zero elsewhere
        x = [0] * len(star)
        if star:
            for i in data.draw(st.lists(st.integers(0, len(star) - 1), max_size=3)):
                x[i] = data.draw(value)
    phi = ConstructibleFunction(space, dict(zip(star, x)))
    split = cfcalc.calculus._split_star(closed, x)
    assert split == reference_triangle(closed, phi)
    assert split == triangle_decompose(closed, phi)


def open_star(pair) -> list:
    """Every ambient simplex with a vertex in the real form M, in canonical
    order."""
    m_vertices = {v for s in pair.real_form.simplices for v in s.vertices}
    return sorted(s for s in pair.ambient.simplices if not m_vertices.isdisjoint(s.vertices))


def signed(byte: int) -> int:
    return byte - 256 if byte >= 128 else byte


def draws(pair, seed: int) -> list[ConstructibleFunction]:
    """The three random functions of verify's triangle rows, drawn as the
    definition reads: per function, one seeded random byte for each simplex
    of the open star of the real form, in canonical order, mapped through
    the draw table and read as a signed byte."""
    rng = random.Random(seed)
    star = open_star(pair)
    return [
        ConstructibleFunction(
            pair.ambient,
            dict(zip(star, [signed(_DRAW_TABLE[b]) for b in rng.randbytes(len(star))])),
        )
        for _ in range(3)
    ]


def test_draw_table_gives_0_with_probability_5_8_and_each_other_value_1_16():
    """Each of the 256 byte values is equally likely: 160 of them give 0 and
    16 each give -3, -2, -1, 1, 2 and 3."""
    assert len(_DRAW_TABLE) == 256
    assert Counter(map(signed, _DRAW_TABLE)) == {
        0: 160, -3: 16, -2: 16, -1: 16, 1: 16, 2: 16, 3: 16
    }


@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_star_table_order_is_the_open_star_in_canonical_order(name):
    # a freshly parsed scene, so no earlier test has built the ambient's order
    scene = parse_scene(build_model(name, k=3).canonical_text)
    star, position, _ = cfcalc.calculus._open_star(scene.pair.real_form)
    assert star == tuple(open_star(scene.pair))
    assert position == {u: i for i, u in enumerate(star)}
    assert not order_built(scene.ambient)


@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_triangle_decompose_matches_the_definition_on_the_models(name):
    scene = build_model(name, k=3)
    closed = scene.pair.real_form
    rng, sims = random.Random(7), scene.ambient.ordered()
    functions = [solution_index(scene.cycle, scene.ambient)] + [
        ConstructibleFunction(scene.ambient, dict(zip(sims, rng.choices(range(-3, 4), k=len(sims)))))
        for _ in range(3)
    ]
    for phi in functions:
        assert triangle_decompose(closed, phi) == reference_triangle(closed, phi)


# prints a digest of the random functions verify draws on node_curve(k=3),
# each a vector over the real form's star that verify splits
VERIFY_DRAWS = """
import hashlib, sys
import cfcalc.indices
from cfcalc import ConstructibleFunction, build_model

seen, split = [], cfcalc.indices._split_star
cfcalc.indices._split_star = lambda closed, x: seen.append(x) or split(closed, x)
scene = build_model("node_curve", k=3)
scene.verify(seed=int(sys.argv[1]))
star = cfcalc.calculus._open_star(scene.pair.real_form)[0]
drawn = [ConstructibleFunction(scene.ambient, dict(zip(star, x))) for x in seen]
print(hashlib.sha256(repr([phi.items for phi in drawn]).encode()).hexdigest())
"""


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_verify_draws_its_random_functions_as_defined(seed, monkeypatch):
    scene = build_model("node_curve", k=3)
    seen, split = [], cfcalc.indices._split_star
    monkeypatch.setattr(
        cfcalc.indices, "_split_star", lambda closed, x: seen.append(x) or split(closed, x)
    )
    decomposed, decompose = [], cfcalc.indices.triangle_decompose
    monkeypatch.setattr(
        cfcalc.indices, "triangle_decompose",
        lambda closed, phi: decomposed.append(phi) or decompose(closed, phi),
    )
    assert scene.verify(seed=seed).passed
    assert decomposed == [solution_index(scene.cycle, scene.ambient)]
    star = cfcalc.calculus._open_star(scene.pair.real_form)[0]
    assert all(len(x) == len(star) for x in seen)
    drawn = [ConstructibleFunction(scene.ambient, dict(zip(star, x))) for x in seen]
    assert drawn == draws(scene.pair, seed)


def test_verify_draws_the_same_functions_under_any_hash_seed():
    drawn = draws(build_model("node_curve", k=3).pair, 7)
    expected = hashlib.sha256(repr([phi.items for phi in drawn]).encode()).hexdigest()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_DRAWS, "7"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_verify_and_hyperfunction_index_take_no_ambient_dual(name, monkeypatch):
    scene = build_model(name, k=3)
    original, ambient_duals = cfcalc.calculus.dual, []

    def counting(phi):
        if phi.ambient is scene.ambient:
            ambient_duals.append(phi)
        return original(phi)

    monkeypatch.setattr(cfcalc.calculus, "dual", counting)
    assert scene.verify().passed
    hyperfunction_index(scene.pair, scene.cycle)
    assert ambient_duals == []


def reference_solution_index(cycle, ambient) -> ConstructibleFunction:
    """The sum over strata of (-1)^codim times multiplicity times eu, added
    up with the function arithmetic."""
    total = ConstructibleFunction(ambient, {})
    for stratum in cycle:
        total = total + _sign(stratum.codim) * stratum.multiplicity * stratum.eu
    return total


def reference_dimension(pair, cycle) -> ConstructibleFunction:
    """The sum over strata of multiplicity times the indicator of the
    stratum's trace on the real form, as a subcomplex of M."""
    mc = pair.real_complex()
    total = ConstructibleFunction(mc, {})
    for stratum in cycle:
        trace = stratum.support.intersection(pair.real_form)
        total = total + stratum.multiplicity * indicator(Subcomplex(mc, trace.simplices))
    return total


def check_indices_against_references(pair, cycle) -> None:
    sol = solution_index(cycle, pair.ambient)
    assert sol == reference_solution_index(cycle, pair.ambient)
    assert hyperfunction_index(pair, cycle) == _sign(pair.complex_dim) * dual(
        restrict(dual(sol), pair.real_form)
    )
    try:
        dimension = hyperfunction_dimension(pair, cycle)
    except ModelError:
        # refused exactly when a stratum is singular or misses M unannounced
        assert any(
            not st.smooth
            or (st.support.intersection(pair.real_form).is_empty and not st.allow_empty_trace)
            for st in cycle
        )
    else:
        assert dimension == reference_dimension(pair, cycle)
    # the extension by zero of eu from its support is eu, which lets the
    # base_change row take eu itself as its left side
    for stratum in cycle:
        psi = restrict(stratum.eu, stratum.support)
        assert pushforward(inclusion_map(stratum.support), psi) == stratum.eu


@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_indices_match_their_definitions_on_the_models(name):
    scene = build_model(name, k=3)
    check_indices_against_references(scene.pair, scene.cycle)


@st.composite
def pairs_with_cycles(draw):
    """A random complex with a real form M and no conjugation, and one to
    three strata on distinct connected supports (each the closure of one
    simplex, so strata overlap on shared faces), with random codimension
    and multiplicity and, for a singular stratum, random eu values."""
    space, _ = draw(complex_with_cf(max_vertices=6))
    real_form = draw(closed_in(space))
    complex_dim = draw(st.integers(min_value=1, max_value=2))
    tops = draw(st.lists(st.sampled_from(space.ordered()), min_size=1, max_size=3, unique=True))
    strata = []
    for i, top in enumerate(tops):
        support = subcomplex(space, [top])
        codim = draw(st.integers(min_value=0, max_value=complex_dim))
        multiplicity = draw(st.integers(min_value=1, max_value=3))
        if draw(st.booleans()):
            eu, smooth = indicator(support), True
        else:
            value = st.integers(min_value=-3, max_value=3) | st.just(BIG)
            eu = ConstructibleFunction(space, {s: draw(value) for s in sorted(support.simplices)})
            smooth = False
        strata.append(
            Stratum(f"s{i}", support, codim, multiplicity, eu, smooth, draw(st.booleans()))
        )
    return RealComplexPair(space, real_form, complex_dim), CharacteristicCycle(strata)


@settings(max_examples=150, deadline=None)
@given(pairs_with_cycles())
def test_indices_match_their_definitions_on_random_cycles(drawn):
    check_indices_against_references(*drawn)


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


@st.composite
def generator_lists(draw, max_vertices=7, max_dim=3):
    """Generator lists as a caller may write them: names in any order,
    repeated generators, and faces of codimension one or more of other
    generators."""
    nv = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    gens = draw(
        st.lists(
            st.lists(st.sampled_from(vertices), min_size=1, max_size=min(max_dim + 1, nv), unique=True),
            min_size=1,
            max_size=2 * nv,
        )
    )
    faces = [
        draw(st.permutations(g))[: draw(st.integers(min_value=1, max_value=len(g) - 1))]
        for g in gens
        if len(g) > 1 and draw(st.booleans())
    ]
    repeats = draw(st.lists(st.sampled_from(gens), max_size=3))
    return draw(st.permutations(gens + faces + repeats))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_maximal_simplices_match_the_definition(data):
    """Whichever way a complex is made, its maximal simplices are the
    members of its closure that are no member's proper face, in canonical
    order."""
    gens = data.draw(generator_lists())
    closure = {f for g in gens for f in all_faces(g)}
    space = build_complex(gens)
    assert vertex_sets(space.simplices) == closure
    for made in (space, SimplicialComplex(closure)):
        maximal = made.maximal_simplices()
        assert vertex_sets(maximal) == reference_maximal(closure)
        assert list(maximal) == sorted(maximal)

    # the whole parent in any order, or a few of its members, either with
    # faces and repeats mixed in and names in any order
    members = ordered(closure)
    sub_gens = data.draw(
        st.permutations(ordered(reference_maximal(closure)))
        | st.lists(st.sampled_from(members), max_size=5)
    )
    sub_gens += data.draw(st.lists(st.sampled_from(members), max_size=3))
    sub_gens = [data.draw(st.permutations(sorted(g))) for g in sub_gens]
    sub_closure = {f for g in sub_gens for f in all_faces(g)}
    closed = subcomplex(space, sub_gens)
    assert vertex_sets(closed.simplices) == sub_closure
    assert vertex_sets(closed.maximal_simplices()) == reference_maximal(sub_closure)
    assert list(closed.maximal_simplices()) == sorted(closed.maximal_simplices())
    assert (closed.as_complex() is space) == (sub_closure == closure)


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


# Strings a scene may carry: non-ASCII, control characters, quotes,
# backslashes, and a character JSON writes as an escaped surrogate pair.
TEXT = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", json.loads('"\\ud83d\\ude00"')]),
    max_size=8,
)
INTEGER = st.integers() | st.sampled_from([2**62, -(2**62), 2**62 + 1, 2**64, -(2**70)])
DOCUMENT = st.recursive(
    st.none() | st.booleans() | INTEGER | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(DOCUMENT)
@example({}).via("empty object")
@example([[], {}, {"": []}]).via("empty containers")
def test_canonical_writer_writes_the_bytes_of_json_dumps(doc):
    expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    assert _write(doc).encode() == expected.encode()
    assert _write(doc, _quote_ascii) == json.dumps(doc, indent=2, sort_keys=True)


# the ids are those the rows had when the writer still refused None as well
@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(1.0, id="1.0"),
        pytest.param([1, 0.5], id="doc2"),
        pytest.param({"a": [True, float("inf")]}, id="doc4"),
    ],
)
def test_canonical_writer_refuses_a_float_or_null(doc):
    with pytest.raises(TypeError):
        _write(doc)


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
