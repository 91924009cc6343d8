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
relabellings.  On each pair the star table has the layout
tests/test_complexes.py states, and the split of each unit vector over
the open star is the triangle of the function it stands for, so that
convention, which verify's random vectors rely on, holds for every
integer vector.  The references are those of tests/test_oracles.py,
written straight from the definitions, and the operators are called
through cfcalc.calculus, where tests/test_faults.py plants its faults.
"""

from itertools import combinations, permutations, product

import cfcalc.calculus
from cfcalc import (
    ConstructibleFunction,
    Simplex,
    SimplicialComplex,
    Subcomplex,
    build_complex,
    indicator,
    simplicial_map,
)
from test_complexes import assert_star_table
from test_oracles import reference_dual, reference_pushforward, reference_triangle, values

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
        full += cfcalc.calculus._open_star(closed)[2] is closed.as_complex()
        for phi in indicators(complex_):
            split = cfcalc.calculus.triangle_decompose(closed, phi)
            assert split == reference_triangle(closed, phi)
    # both ways of the split, one value per trace and dual on the span
    assert 0 < full < len(PAIRS)


def test_star_table_and_split_star_on_every_pair():
    units = 0
    for space, m in PAIRS:
        complex_ = SimplicialComplex(space)
        closed = Subcomplex(complex_, m)
        assert_star_table(closed)
        position = cfcalc.calculus._open_star(closed)[0]
        for u, i in position.items():
            x = [0] * len(position)
            x[i] = 1
            # a unit outside M stands for (-1)^dim u 1_u, one in M for 1_u
            sign = 1 if u in closed.simplices or u.dim % 2 == 0 else -1
            expected = reference_triangle(closed, ConstructibleFunction(complex_, {u: sign}))
            assert cfcalc.calculus._split_star(closed, x) == expected
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
            assert all(type(t) is Simplex for t, _ in got.items)
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
    maps = checks = 0
    for space in sorted({k for k, _ in PAIRS}):
        complex_ = SimplicialComplex(space)
        for vmap in vertex_maps(sorted(complex_.vertices)):
            f = simplicial_map(complex_, triangle, vmap)
            maps += 1
            # and the constant 1, whose fibre sums add several terms
            for phi in indicators(complex_) + [indicator(complex_)]:
                assert values(cfcalc.calculus.pushforward(f, phi)) == reference_pushforward(f, phi)
                checks += 1
            for psi in indicators(triangle):
                ((t, _),) = psi.items
                expected = {s: int(tuple(sorted({vmap[v] for v in s})) == t) for s in space}
                assert values(cfcalc.calculus.pullback(f, psi)) == expected
                checks += 1
    assert (maps, checks) == (310, 5136)
