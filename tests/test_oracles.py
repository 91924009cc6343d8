"""The kernel against reference implementations of its definitions.

The oracles below are written straight from the definitions, with no
index, star table or shortcut: the dual as the signed sum over the star,
the costalk restriction as duality conjugating the restriction, the
costalk and boundary terms as signed sums of the dual over the cofaces
inside and outside the subcomplex, with dicts, the pushforward as the
signed sum over each fibre, the solution index and the hyperfunction
dimension as sums of whole functions, face closure and maximality by
listing every face, the product by listing every chain, and the
canonical text as json.dumps writes it.
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
import cfcalc.complexes
import cfcalc.indices
from cfcalc import (
    CharacteristicCycle,
    ConstructibleFunction,
    ModelError,
    OpenSubset,
    RealComplexPair,
    Simplex,
    SimplicialComplex,
    Stratum,
    Subcomplex,
    build_complex,
    build_model,
    dual,
    hyperfunction_dimension,
    hyperfunction_index,
    inclusion_map,
    indicator,
    list_models,
    parse_scene,
    product,
    pushforward,
    restrict,
    shriek_restrict,
    simplicial_map,
    solution_index,
    subcomplex,
    triangle_decompose,
)
from cfcalc.cli import main
from cfcalc.indices import _DRAW_OFFSET, _DRAW_TABLE, _OFFSET_TABLE
from cfcalc.scenes import _quote, _quote_ascii, _write
from conftest import complexes, order_built, span

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
    images = [{vmap[v] for v in s} for s in source.simplices]
    hit = sorted(set(vmap.values()))
    extra = draw(st.lists(st.sets(st.sampled_from(hit), min_size=1), max_size=3))
    return simplicial_map(source, build_complex(images + extra), vmap)


def _sign(dim: int) -> int:
    return -1 if dim % 2 else 1


def reference_dual(phi: ConstructibleFunction) -> dict:
    """D(phi)(s) = sum over the t having s as a face of (-1)^dim(t) phi(t),
    at every simplex s of the ambient; a t off phi's support adds 0, so
    only the support's terms are summed."""
    terms = [(set(t), _sign(len(t) - 1) * v) for t, v in phi.items]
    return {s: sum(v for t, v in terms if t.issuperset(s)) for s in phi.ambient.simplices}


def reference_pushforward(f, phi: ConstructibleFunction) -> dict:
    """f_*(phi)(t) = sum over s with f(s) = t of (-1)^(dim s - dim t) phi(s)."""
    return {
        t: sum(
            _sign(len(s) - len(t)) * phi.value(s)
            for s in f.source.simplices
            if f.image(s) == t
        )
        for t in f.target.simplices
    }


def values(phi: ConstructibleFunction) -> dict:
    return {s: phi.value(s) for s in phi.ambient.simplices}


def sparse_on_node_curve():
    """node_curve(k=3), a complex of dimension 4, with values at eight
    simplices of dimension 2 to 4 and none at their faces, so the dual
    reaches faces outside the support."""
    space = build_model("node_curve", k=3).ambient
    rng = random.Random(3)
    support = rng.sample([s for s in space.ordered() if len(s) >= 3], 8)
    return space, ConstructibleFunction(space, {s: rng.choice([-2, 1, 3, BIG]) for s in support})


@settings(max_examples=150, deadline=None)
@given(complex_with_cf())
@example(sparse_on_node_curve())
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


def cofaces(space) -> dict:
    """Each simplex and the simplices having it as a face, itself
    included, found by listing every face of every simplex."""
    up = {s: [] for s in space.simplices}
    for u in space.simplices:
        for n in range(1, len(u) + 1):
            for t in itertools.combinations(u, n):
                up[t].append(u)
    return up


def reference_triangle(closed: Subcomplex, phi: ConstructibleFunction):
    """The costalk and boundary terms of phi at each simplex s of M, from
    the definitions with dicts.  With D(phi)(t) the sum over the cofaces u
    of t of (-1)^dim(u) phi(u), the costalk is the sum of
    (-1)^dim(t) D(phi)(t) over the cofaces t of s in M, duality conjugating
    the restriction, and the boundary is the same sum over the cofaces
    outside M: the open pushforward from U = K - M, since every coface of
    a simplex outside M is outside M.  Together they are DD(phi)(s) = phi(s)."""
    up, value = cofaces(phi.ambient), dict(phi.items)
    d = {t: sum(_sign(len(u) - 1) * value.get(u, 0) for u in us) for t, us in up.items()}
    costalk, boundary = {}, {}
    for s in closed.simplices:
        terms = [(t in closed.simplices, _sign(len(t) - 1) * d[t]) for t in up[s]]
        costalk[s] = sum(v for inside, v in terms if inside)
        boundary[s] = sum(v for inside, v in terms if not inside)
        assert costalk[s] + boundary[s] == value.get(s, 0)
    space = closed.as_complex()
    return ConstructibleFunction(space, costalk), ConstructibleFunction(space, boundary)


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


def star_traces(closed) -> dict:
    """Each trace w, the vertices in M = closed of a parent simplex outside
    M with a vertex in M, in canonical order, and the simplices outside M
    with that trace, in canonical order."""
    m_vertices = {v for s in closed.simplices for v in s}
    runs = {}
    for u in sorted(closed.parent.simplices):
        w = tuple(v for v in u if v in m_vertices)
        if w and u not in closed.simplices:
            runs.setdefault(w, []).append(u)
    return dict(sorted(runs.items()))


def split_input(closed, phi) -> tuple[list, list]:
    """What the star split reads of phi, from the definitions: phi's
    nonzero values on M as (simplex, value) items in M's canonical order,
    and per trace w in canonical order the pair of w and the sum of
    (-1)^dim u phi(u) over the simplices u outside M with that trace."""
    value = dict(phi.items)
    return [(s, value[s]) for s in sorted(closed.simplices) if value.get(s, 0)], [
        (w, sum(_sign(len(u) - 1) * value.get(u, 0) for u in us))
        for w, us in star_traces(closed).items()
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_split_star_is_the_definitional_triangle_on_its_input(data):
    """The kernel on values on M and one sum per trace, against the
    definition and against triangle_decompose on the function they stand
    for: the values on M, and (-1)^dim u v(w) at the first simplex u with
    trace w, so that its signed sum is v(w); with M empty, a vertex,
    generated by a few simplices or everything, and the values sparse or
    dense."""
    space, _ = data.draw(complex_with_cf())
    if data.draw(st.booleans()):
        closed = subcomplex(space, [[data.draw(st.sampled_from(sorted(space.vertices)))]])
    else:
        closed = data.draw(closed_in(space))
    order, traces = sorted(closed.simplices), star_traces(closed)
    size = len(order) + len(traces)
    value = st.one_of(st.integers(min_value=-5, max_value=5), st.sampled_from([BIG, -BIG]))
    if data.draw(st.booleans()):  # dense: a value at every place
        x = data.draw(st.lists(value, min_size=size, max_size=size))
    else:  # sparse: a few values, zero elsewhere
        x = [0] * size
        if size:
            for i in data.draw(st.lists(st.integers(0, size - 1), max_size=3)):
                x[i] = data.draw(value)
    on_m = [(s, v) for s, v in zip(order, x) if v]
    sums = list(zip(traces, x[len(order):]))
    firsts = [us[0] for us in traces.values()]
    phi = ConstructibleFunction(space, {
        **dict(on_m),
        **{u: _sign(len(u) - 1) * v for u, (_, v) in zip(firsts, sums)},
    })
    assert split_input(closed, phi) == (on_m, sums)
    split = cfcalc.calculus._split_star(closed, on_m, sums)
    assert split == reference_triangle(closed, phi)
    assert split == triangle_decompose(closed, phi)


def open_star(pair) -> list:
    """Every ambient simplex with a vertex in the real form M: the simplices
    of M in canonical order, then the others by their trace (their vertices
    in M) and canonical order."""
    closed = pair.real_form
    return sorted(closed.simplices) + [u for us in star_traces(closed).values() for u in us]


def signed(byte: int) -> int:
    return byte - 256 if byte >= 128 else byte


def draws(pair, seed: int) -> list[ConstructibleFunction]:
    """The three random functions of verify's triangle rows, drawn as the
    definition reads: per function, one seeded random byte for each simplex
    u of the open star of the real form M, in open_star's order, mapped
    through the draw table and read as a signed byte, times (-1)^dim u
    outside M."""
    rng, m = random.Random(seed), pair.real_form.simplices
    star = open_star(pair)
    return [
        ConstructibleFunction(pair.ambient, {
            u: signed(_DRAW_TABLE[b]) * (1 if u in m or len(u) % 2 else -1)
            for u, b in zip(star, rng.randbytes(len(star)))
        })
        for _ in range(3)
    ]


def test_draw_table_gives_0_with_probability_5_8_and_each_other_value_1_16():
    """Each of the 256 byte values is equally likely: 160 of them give 0 and
    16 each give -3, -2, -1, 1, 2 and 3."""
    assert len(_DRAW_TABLE) == 256
    assert Counter(map(signed, _DRAW_TABLE)) == {
        0: 160, -3: 16, -2: 16, -1: 16, 1: 16, 2: 16, 3: 16
    }


def test_offset_table_is_the_draw_table_plus_3():
    """verify sums a trace's run as bytes holding each value plus 3, 0..6."""
    assert _DRAW_OFFSET == 3
    assert list(_OFFSET_TABLE) == [signed(v) + 3 for v in _DRAW_TABLE]


def verify_split_inputs(scene, seed: int) -> list:
    """The (on_m, sums) that scene.verify(seed=seed) hands the star split,
    one pair per drawn function."""
    seen, split = [], cfcalc.indices._split_star
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            cfcalc.indices, "_split_star",
            lambda closed, on_m, sums: seen.append((list(on_m), sums)) or split(closed, on_m, sums),
        )
        assert scene.verify(seed=seed).passed
    return seen


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_verify_run_sums_are_the_signed_sums_of_its_draw(name, seed):
    """verify reads each trace's run of a draw as bytes holding value plus
    3 and takes 3 off per byte, so the sums it hands the split are the sums
    of the signed values the draw table gives those bytes, and its values
    on M are the prefix's nonzero values, as items."""
    scene = build_model(name, k=3)
    closed = scene.pair.real_form
    runs, n = cfcalc.indices._star_runs(closed), len(closed.simplices)
    size, rng, expected = n + sum(run.stop - run.start for run, _ in runs), random.Random(seed), []
    for _ in range(3):
        x = [signed(_DRAW_TABLE[b]) for b in rng.randbytes(size)]
        on_m = [(s, v) for s, v in zip(sorted(closed.simplices), x) if v]
        expected.append((on_m, [(w, sum(x[run])) for run, w in runs]))
    assert verify_split_inputs(scene, seed) == expected


@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_verify_runs_follow_the_open_star_trace_by_trace(name):
    # a freshly parsed scene, so no earlier test has built the ambient's order
    scene = parse_scene(build_model(name, k=3).canonical_text)
    closed = scene.pair.real_form
    runs, traces = cfcalc.indices._star_runs(closed), star_traces(closed)
    # after M, one run per trace in open_star's order, as long as its part
    stops = list(itertools.accumulate(map(len, traces.values()), initial=len(closed.simplices)))
    assert runs == [(slice(a, b), w) for a, b, w in zip(stops, stops[1:], traces)]
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


# prints a digest of what verify hands the star split on node_curve(k=3):
# per drawn function, its nonzero values on the real form, as items, and
# one sum per trace
VERIFY_DRAWS = """
import hashlib, sys
import cfcalc.indices
from cfcalc import build_model

seen, split = [], cfcalc.indices._split_star
cfcalc.indices._split_star = lambda closed, on_m, sums: (
    seen.append((list(on_m), sums)) or split(closed, on_m, sums)
)
build_model("node_curve", k=3).verify(seed=int(sys.argv[1]))
print(hashlib.sha256(repr(seen).encode()).hexdigest())
"""


def assert_verify_splits_the_draws(name: str, seed: int) -> None:
    """verify hands the star split, per drawn function, the draws oracle's
    function as the split reads it: its values on M and one sum per trace."""
    scene = build_model(name, k=3)
    expected = [split_input(scene.pair.real_form, phi) for phi in draws(scene.pair, seed)]
    assert verify_split_inputs(scene, seed) == expected


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_verify_draws_its_random_functions_as_defined(seed, monkeypatch):
    decomposed, decompose = [], cfcalc.indices.triangle_decompose
    monkeypatch.setattr(
        cfcalc.indices, "triangle_decompose",
        lambda closed, phi: decomposed.append(phi) or decompose(closed, phi),
    )
    assert_verify_splits_the_draws("node_curve", seed)
    scene = build_model("node_curve", k=3)
    assert decomposed == [solution_index(scene.cycle, scene.ambient)]


def test_verify_draws_the_same_functions_under_any_hash_seed():
    pair = build_model("node_curve", k=3).pair
    inputs = [split_input(pair.real_form, phi) for phi in draws(pair, 7)]
    expected = hashlib.sha256(repr(inputs).encode()).hexdigest()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_DRAWS, "7"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


def counted_duals(monkeypatch) -> list:
    """The arguments of every later call of calculus.dual, in call order."""
    original, calls = cfcalc.calculus.dual, []
    monkeypatch.setattr(cfcalc.calculus, "dual", lambda phi: calls.append(phi) or original(phi))
    return calls


@pytest.mark.parametrize("name", [info.name for info in list_models()])
def test_verify_and_hyperfunction_index_take_no_ambient_dual(name, monkeypatch, capsys):
    # no dual is taken on the ambient, and every built-in real form is a
    # full subcomplex, so each split reads one signed value per trace and
    # takes no dual on M either
    scene = build_model(name, k=3)
    calls = counted_duals(monkeypatch)
    assert scene.verify().passed
    hyperfunction_index(scene.pair, scene.cycle)
    assert main(["hyperdim", f"{name}(k=3)"]) == 0
    assert calls == []


def test_dual_of_the_solution_index_builds_nothing_on_the_ambient():
    # node_curve(k=6): the solution index's dual sums over the faces of its
    # support, so the ambient's 7,585 simplices get no order, no position
    # map and no per-vertex table
    scene = build_model("node_curve", k=6)
    phi = solution_index(scene.cycle, scene.ambient)
    kept = dict(vars(scene.ambient))
    d = dual(phi)
    assert vars(scene.ambient) == kept and not order_built(scene.ambient)
    assert values(d) == reference_dual(phi)
    assert all(type(s) is tuple for s, _ in d.items)


def bent_line_scene():
    """pair_C_R(k=3) without its conjugation, with the chord b0 b3 added to
    the ambient, so the real line b0 - c - b3 is no longer full, and the
    stratum on the disk alone."""
    doc = json.loads(build_model("pair_C_R", k=3).canonical_text)
    disk = doc["complex"]["maximal_simplices"]
    doc["complex"]["maximal_simplices"] = disk + [["b0", "b3"]]
    doc["subcomplexes"]["ambient"] = disk
    del doc["real_form"]["conjugation"]
    doc["expect"]["checks"] = [
        check for check in doc["expect"]["checks"]
        if check not in ("boundary_parity", "conjugation_invariance")
    ]
    return parse_scene(json.dumps(doc))


def test_a_real_form_that_is_not_full_splits_through_dual(monkeypatch):
    scene = bent_line_scene()
    closed = scene.pair.real_form
    assert span(closed) == closed.simplices | {("b0", "b3")}
    calls = counted_duals(monkeypatch)
    report = scene.verify(seed=7)
    assert report.passed and calls
    plain = build_model("pair_C_R", k=3)
    assert hyperfunction_index(scene.pair, scene.cycle).items == (
        hyperfunction_index(plain.pair, plain.cycle).items
    )
    for phi in [solution_index(scene.cycle, scene.ambient)] + draws(scene.pair, 7):
        assert triangle_decompose(closed, phi) == reference_triangle(closed, phi)


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
    return {frozenset(s) for s in simplices}


@st.composite
def generator_lists(draw, max_vertices=7):
    """Generators of mixed sizes as name lists in any order, with some
    drawn again and some faces of drawn ones added."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    names = st.lists(st.sampled_from(vertices), min_size=1, unique=True)
    gens = draw(st.lists(names, min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(gens), max_size=3))
    faces = [
        draw(st.lists(st.sampled_from(g), min_size=1, unique=True))
        for g in draw(st.lists(st.sampled_from(gens), max_size=3))
    ]
    return draw(st.permutations(gens + repeats + faces))


@settings(max_examples=150, deadline=None)
@given(generator_lists())
def test_face_closure_is_every_nonempty_subset_of_every_generator(gens):
    closure = cfcalc.complexes._face_closure({tuple(sorted(g)) for g in gens})
    assert vertex_sets(closure) == {f for g in gens for f in all_faces(g)}
    assert all(type(s) is tuple and list(s) == sorted(s) for s in closure)
    assert build_complex(gens).simplices == closure


def test_closure_budget_counts_each_distinct_generator_once():
    top = [f"v{i}" for i in range(20)]
    # the 20-vertex simplex given twice and in reverse counts once, its
    # face on three vertices 7 more: 2^20 - 1 + 7 faces
    with pytest.raises(ModelError) as err:
        build_complex([top, top[::-1], top[:3]])
    assert str(err.value) == (
        "face closure may hold up to 1048582 simplices, more than the limit of 1000000"
    )
    assert len(build_complex([top[:10], top[9::-1], top[:3]])) == 1023


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
    assert list(space.maximal_simplices()) == [tuple(vertices)]


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


def planted(lists, stray):
    """A list drawn from lists with one item drawn from stray put in at a
    random place."""
    return st.tuples(lists, stray, st.integers(0, 5)).map(
        lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2]:]
    )


# Name lists and simplex lists, as the writer joins them, some with one item
# that is not a string, in a name list or among them, at a random place, so
# every way out of the writer's per-list join is taken; a name list, or a
# list of them, may be a tuple, as a simplex is, which json.dumps writes as
# a list.
NAMES = st.lists(TEXT, min_size=1, max_size=5)
NOT_A_NAME = (
    st.integers() | st.booleans() | st.none() | st.lists(TEXT, max_size=2)
    | st.dictionaries(TEXT, st.integers(), max_size=2) | st.just([]) | st.just([[]])
    | st.just(()) | st.tuples(TEXT, st.integers())
)
SOME_NAMES = NAMES | planted(NAMES, NOT_A_NAME)
SOME_NAMES = SOME_NAMES | SOME_NAMES.map(tuple)
NAME_LISTS = (
    SOME_NAMES | st.lists(SOME_NAMES, min_size=1, max_size=5)
    | st.lists(SOME_NAMES, min_size=1, max_size=5).map(tuple)
    | planted(st.lists(SOME_NAMES, max_size=4), NOT_A_NAME)
)
FLOAT = st.floats(allow_nan=False)
FLOAT_LISTS = (
    planted(NAMES, FLOAT) | planted(NAMES, FLOAT).map(tuple)
    | st.lists(planted(NAMES, FLOAT), min_size=1, max_size=3)
    | planted(st.lists(NAMES, max_size=4), FLOAT)
)


@settings(max_examples=200, deadline=None)
@given(NAME_LISTS)
@example(Simplex(["b", "a"])).via("one simplex")
@example([Simplex(["a", "b"]), Simplex(["c"])]).via("sorted simplices")
@example((Simplex(["a"]), ["b", "c"], ("d", 1))).via("tuple of mixed name lists")
def test_writer_joins_name_lists_as_json_dumps_writes_them(value):
    for doc in (value, {"at": value, "value": [value]}):
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
        assert _write(doc) == expected
        assert _write(doc, _quote_ascii) == json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(FLOAT_LISTS)
def test_writer_refuses_a_float_among_names(value):
    for quote in (_quote, _quote_ascii):
        with pytest.raises(TypeError):
            _write(value, quote)


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
