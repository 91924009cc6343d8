"""The calculus on every complex on at most four vertices.

dual, restrict, triangle_decompose, pushforward and pullback are linear in
the function, so checking one complex K on the indicator of each of its
simplices proves dual on every integer function on K, checking a pair
(K, M) so proves restrict and triangle_decompose there, and checking a
map f so proves pushforward along f and, on the indicators of the
target's simplices, pullback; pushforward is also checked on the
constant 1, where a fibre sum that is not additive shows.  The complexes
are every nonempty face-closed family of subsets of the vertices a, b, c,
d, and M every nonempty subcomplex of each.  A relabelling of a-d carries
each operator's input and output alike, so one pair per orbit of the 24
relabellings is checked; the maps go from each such complex to the
closed triangle on x, y, z, one per orbit of the triangle's 6
relabellings; along each map the image of every simplex is its vertex
set's image, and the map composed with a fold of the triangle onto an
edge is the composite vertex map and pushes forward as the two maps in
turn.  Every vertex map into the path x - y - z is refused exactly when
an image is not a path simplex, whether the complex was closed from
generators or not.  Every vertex involution of every labelled complex is
checked against the definitions of regularity, strong freeness and the
quotient.
On each pair verify's run table is as tests/test_complexes.py states,
and the split of each unit input, a 1 at one simplex of M or one trace's
sum, is the triangle of the function it stands for, at every simplex of
the open star outside M with that trace,
so that the split reads only phi on M and one sum per trace holds for
every integer function.  The references are those of tests/test_oracles.py,
written straight from the definitions, and the operators are called
through cfcalc.calculus, where tests/test_faults.py plants its faults.
"""

from collections import defaultdict
from itertools import combinations, permutations, product

import pytest

import cfcalc.calculus
from cfcalc import (
    ConstructibleFunction,
    ModelError,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    build_complex,
    compose,
    indicator,
    involution,
    is_strongly_free,
    quotient_by_involution,
    simplicial_map,
)
from conftest import span
from test_complexes import assert_runs
from test_oracles import (
    reference_dual, reference_pushforward, reference_triangle, star_traces, values,
)

VERTICES = "abcd"
SETS = [s for n in range(1, 5) for s in combinations(VERTICES, n)]
RELABELLINGS = [dict(zip(VERTICES, p)) for p in permutations(VERTICES)]
TRIANGLE = "xyz"
TRIANGLE_RELABELLINGS = [dict(zip(TRIANGLE, p)) for p in permutations(TRIANGLE)]


def down_sets(sets):
    """Every face-closed family of the given vertex tuples, which are listed
    by size, as a sorted tuple."""
    def grow(i, chosen):
        if i == len(sets):
            yield tuple(sorted(chosen))
            return
        s = sets[i]
        yield from grow(i + 1, chosen)
        if len(s) == 1 or all(f in chosen for f in combinations(s, len(s) - 1)):
            yield from grow(i + 1, chosen | {s})
    return list(grow(0, frozenset()))


def relabel(family, p):
    return tuple(sorted(tuple(sorted(p[v] for v in s)) for s in family))


def orbit_pairs():
    """One (K, M) per orbit of the relabellings, and the numbers of labelled
    complexes and pairs: each complex is taken in its least relabelling,
    and its subcomplexes up to the relabellings fixing it."""
    pairs, labelled_complexes, labelled_pairs = [], 0, 0
    for space in down_sets(SETS):
        if not space:
            continue
        labelled_complexes += 1
        subs = [m for m in down_sets(sorted(space, key=len)) if m]
        labelled_pairs += len(subs)
        if space != min(relabel(space, p) for p in RELABELLINGS):
            continue
        fixing = [p for p in RELABELLINGS if relabel(space, p) == space]
        for m in {min(relabel(m, p) for p in fixing) for m in subs}:
            pairs.append((space, m))
    return sorted(pairs), labelled_complexes, labelled_pairs


PAIRS, LABELLED_COMPLEXES, LABELLED_PAIRS = orbit_pairs()


def indicators(space):
    return [ConstructibleFunction(space, {s: 1}) for s in space.ordered()]


def test_the_enumeration_counts_every_complex_and_pair():
    # 166 nonempty complexes on at most four labelled vertices (the
    # Dedekind number 168 less the empty family and the empty complex)
    assert (LABELLED_COMPLEXES, LABELLED_PAIRS) == (166, 7246)
    # and 28 complexes and 561 pairs up to relabelling, as a scan of all
    # 2^15 families of nonempty vertex sets and 24 relabellings counts them
    assert len({k for k, _ in PAIRS}) == 28
    assert len(PAIRS) == len(set(PAIRS)) == 561


def test_dual_on_every_complex():
    for space in sorted({k for k, _ in PAIRS}):
        complex_ = SimplicialComplex(space)
        for phi in indicators(complex_):
            assert values(cfcalc.calculus.dual(phi)) == reference_dual(phi)
            assert cfcalc.calculus.dual(cfcalc.calculus.dual(phi)) == phi


def test_triangle_decompose_on_every_pair():
    full = 0
    for space, m in PAIRS:
        complex_ = SimplicialComplex(space)
        closed = Subcomplex(complex_, m)
        full += span(closed) == closed.simplices
        for phi in indicators(complex_):
            split = cfcalc.calculus.triangle_decompose(closed, phi)
            assert split == reference_triangle(closed, phi)
    # both ways of the split: h the signed trace sums on M, and h from the
    # duals of the traces outside M
    assert 0 < full < len(PAIRS)


def test_star_table_and_split_star_on_every_pair():
    units = 0
    for space, m in PAIRS:
        complex_ = SimplicialComplex(space)
        closed = Subcomplex(complex_, m)
        assert_runs(closed)
        traces = star_traces(closed)
        no_sums = [(w, 0) for w in traces]
        for s in sorted(closed.simplices):
            expected = reference_triangle(closed, ConstructibleFunction(complex_, {s: 1}))
            assert cfcalc.calculus._split_star(closed, [(s, 1)], no_sums) == expected
            units += 1
        for w, us in traces.items():
            split = cfcalc.calculus._split_star(closed, [], [(t, int(t == w)) for t in traces])
            # a unit sum at w stands for (-1)^dim u 1_u at each u with trace w
            for u in us:
                unit = ConstructibleFunction(complex_, {u: 1 if len(u) % 2 else -1})
                assert split == reference_triangle(closed, unit)
                units += 1
    assert units == 4867  # the open stars of the 561 pairs


def test_restrict_on_every_pair():
    checks = 0
    for space, m in PAIRS:
        complex_ = SimplicialComplex(space)
        closed = Subcomplex(complex_, m)
        for phi in indicators(complex_):
            ((s, _),) = phi.items
            got = cfcalc.calculus.restrict(phi, closed)
            assert got.ambient is closed.as_complex()
            assert got.items == (((s, 1),) if s in closed.simplices else ())
            assert all(type(t) is tuple for t, _ in got.items)
            checks += 1
    assert checks == 5463


def vertex_maps(vertices):
    """One map of the vertices into x, y, z per orbit of the 6 relabellings
    of x, y, z, as the least relabelling of each image tuple."""
    images = {
        min(tuple(p[t] for t in image) for p in TRIANGLE_RELABELLINGS)
        for image in product(TRIANGLE, repeat=len(vertices))
    }
    return [dict(zip(vertices, image)) for image in sorted(images)]


def test_pushforward_and_pullback_along_every_map_to_the_triangle():
    triangle = build_complex([list(TRIANGLE)])
    # g folds the triangle onto an edge, so g after f collapses more than f
    g = simplicial_map(triangle, build_complex([["p", "q"]]), {"x": "p", "y": "p", "z": "q"})
    maps = checks = 0
    for space in sorted({k for k, _ in PAIRS}):
        complex_ = SimplicialComplex(space)
        for vmap in vertex_maps(sorted(complex_.vertices)):
            f = simplicial_map(complex_, triangle, vmap)
            maps += 1
            for s in complex_.ordered():
                image = f.image(s)
                assert type(image) is tuple and image == tuple(sorted({vmap[v] for v in s}))
                checks += 1
            gf = compose(g, f)
            assert gf == SimplicialMap(complex_, g.target, {v: g.vertex(vmap[v]) for v in vmap})
            checks += 1
            # and the constant 1, whose fibre sums add several terms
            for phi in indicators(complex_) + [indicator(complex_)]:
                assert values(cfcalc.calculus.pushforward(f, phi)) == reference_pushforward(f, phi)
                checks += 1
            for phi in indicators(complex_):
                pushed = cfcalc.calculus.pushforward(g, cfcalc.calculus.pushforward(f, phi))
                assert cfcalc.calculus.pushforward(gf, phi) == pushed
                checks += 1
            for psi in indicators(triangle):
                ((t, _),) = psi.items
                expected = {s: int(tuple(sorted({vmap[v] for v in s})) == t) for s in space}
                assert values(cfcalc.calculus.pullback(f, psi)) == expected
                checks += 1
    assert (maps, checks) == (310, 10758)


def test_every_vertex_map_to_a_path_is_checked():
    """Each complex, made from all its simplices and closed from its
    maximal ones, and each vertex map into the path x - y - z: the map is
    refused exactly when some simplex's image is not a simplex of the
    path, and the refusal names the least such simplex."""
    path = build_complex([["x", "y"], ["y", "z"]])
    outcomes = defaultdict(int)
    for space in sorted({k for k, _ in PAIRS}):
        tops = [s for s in space if not any(set(s) < set(u) for u in space)]
        vertices = sorted({v for s in space for v in s})
        for complex_ in (SimplicialComplex(space), build_complex(tops)):
            for image in product(TRIANGLE, repeat=len(vertices)):
                vmap = dict(zip(vertices, image))
                stray = [
                    (s, t) for s in space
                    if (t := Simplex({vmap[v] for v in s})) not in path.simplices
                ]
                if stray:
                    s, t = min(stray)
                    message = f"^image {t} of {Simplex(s)} is not a simplex of the target$"
                    with pytest.raises(ModelError, match=message):
                        simplicial_map(complex_, path, vmap)
                    outcomes["refused"] += 1
                else:
                    assert simplicial_map(complex_, path, vmap).vertex_map == vmap
                    outcomes["accepted"] += 1
    # 1,776 maps of 28 complexes, each made both ways
    assert outcomes == {"accepted": 1852, "refused": 1700}


VERTEX_INVOLUTIONS = [p for p in RELABELLINGS if all(p[p[v]] == v for v in VERTICES)]


def test_involutions_of_every_complex():
    """Every vertex involution of every complex on at most four vertices
    under which each simplex's image is a simplex: involution accepts it
    exactly when it is regular, is_strongly_free agrees with the
    per-simplex definition, and quotient_by_involution returns the orbit
    images exactly when each of them is the image of one orbit, and names
    the least one that is not otherwise."""
    kinds = defaultdict(int)
    for space in down_sets(SETS):
        if not space:
            continue
        complex_ = SimplicialComplex(space)
        vertices = sorted(complex_.vertices)
        maps = {tuple((v, p[v]) for v in vertices) for p in VERTEX_INVOLUTIONS}
        for pairs in sorted(maps):
            vmap = dict(pairs)
            image = {s: tuple(sorted(vmap[v] for v in s)) for s in space}
            if not set(image.values()) <= set(space):
                kinds["not simplicial"] += 1
                continue
            if any(image[s] == s and any(vmap[v] != v for v in s) for s in space):
                with pytest.raises(ModelError, match="not regular"):
                    involution(complex_, vmap)
                kinds["irregular"] += 1
                continue
            tau = involution(complex_, vmap)
            free = all(set(image[s]).isdisjoint(s) for s in space)
            assert is_strongly_free(tau) == free
            if not free:
                with pytest.raises(ModelError, match="not strongly free"):
                    quotient_by_involution(tau)
                kinds["fixed points"] += 1
                continue
            orbit = {s: tuple(sorted({min(v, vmap[v]) for v in s})) for s in space}
            groups = defaultdict(set)
            for s in space:
                groups[orbit[s]].add(s)
            shared = sorted(t for t in groups if groups[t] != {min(groups[t]), image[min(groups[t])]})
            if shared:
                t = shared[0]
                message = f"at {Simplex(t)}: {len(groups[t])} simplices share one image"
                with pytest.raises(ModelError, match=message):
                    quotient_by_involution(tau)
                kinds["no quotient"] += 1
                continue
            quotient, projection = quotient_by_involution(tau)
            assert quotient.simplices == set(groups)
            assert all(projection.image(s) == orbit[s] for s in space)
            kinds["quotient"] += 1
    # 262 regular involutions, 18 of them strongly free
    assert kinds == {
        "not simplicial": 1116, "irregular": 234, "fixed points": 244,
        "no quotient": 3, "quotient": 15,
    }
