import copy
import itertools
import pickle
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import cfcalc.complexes
import cfcalc.indices
from cfcalc import (
    MissingSimplexError,
    ModelError,
    OpenSubset,
    Simplex,
    SimplicialMap,
    Subcomplex,
    build_complex,
    build_model,
    complement_open,
    compose,
    emit_scene,
    euler_integral,
    fixed_point_set,
    inclusion_map,
    indicator,
    involution,
    is_connected,
    is_strongly_free,
    parse_scene,
    point_complex,
    product,
    quotient_by_involution,
    simplex,
    simplicial_map,
    subcomplex,
)
from conftest import antipodal, complexes, diameter, disk, polygon, reflection, span
from test_oracles import star_traces


def face_closure_size(maximal) -> int:
    # independent oracle: brute-force closure via itertools
    faces = set()
    for m in maximal:
        vs = tuple(sorted(m))
        for r in range(1, len(vs) + 1):
            faces.update(itertools.combinations(vs, r))
    return len(faces)


class TestSimplex:
    def test_vertices_sorted_and_deduplication_rejected(self):
        assert simplex("b", "a") == ("a", "b")
        with pytest.raises(ModelError):
            simplex("a", "a")
        with pytest.raises(ModelError):
            Simplex([])

    def test_str_and_order(self):
        assert str(simplex("b", "a")) == "a b"
        assert simplex("a") < simplex("a", "b") < simplex("b")

    @given(
        st.sets(st.sampled_from("abcde"), min_size=1, max_size=4),
        st.sets(st.sampled_from("abcde"), min_size=1, max_size=4),
    )
    def test_compares_and_hashes_as_vertex_tuples(self, a, b):
        s, t = Simplex(a), Simplex(b)
        u, v = tuple(sorted(a)), tuple(sorted(b))
        assert (s == t, s != t) == (u == v, u != v)
        assert (s < t, s <= t, s > t, s >= t) == (u < v, u <= v, u > v, u >= v)
        assert hash(s) == hash(u)

    def test_is_its_vertex_tuple(self):
        s = Simplex(["a"])
        assert s == ("a",) and ("a",) == s and hash(s) == hash(("a",))
        assert Simplex(s) is s
        table = {simplex("a", "b"): 1, simplex("c"): 2}
        assert table[("a", "b")] == 1 and table[("c",)] == 2
        assert Simplex.__hash__ is tuple.__hash__
        assert Simplex.__eq__ is tuple.__eq__

    def test_slotted_and_frozen(self):
        s = simplex("a", "b")
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            s.label = "x"
        assert repr(s) == "('a', 'b')" and str(s) == "a b"

    def test_pickle_and_copy_round_trip(self):
        s = simplex("a", "b")
        for again in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert again == s and type(again) is Simplex


class TestComplexConstruction:
    def test_solid_triangle_has_seven_simplices(self):
        t = build_complex([["a", "b", "c"]])
        assert len(t) == 7
        assert t.dim == 2
        assert euler_integral(indicator(t)) == 1

    def test_circle_counts(self):
        c = polygon(3)
        assert len(c) == 6
        assert c.dim == 1
        assert euler_integral(indicator(c)) == 0

    def test_empty_complex(self):
        e = build_complex([])
        assert len(e) == 0 and e.dim == -1

    def test_face_closure_validated(self):
        from cfcalc import SimplicialComplex

        with pytest.raises(ModelError):
            SimplicialComplex([simplex("a", "b")])  # missing the vertices

    @settings(max_examples=60, deadline=None)
    @given(complexes())
    def test_maximal_simplices_regenerate(self, space):
        assert build_complex(space.maximal_simplices()) == space
        assert len(space) == face_closure_size(
            space.maximal_simplices()
        )


class TestComplexIndex:
    @settings(max_examples=60, deadline=None)
    @given(complexes())
    def test_order(self, space):
        assert space.ordered() == tuple(sorted(space.simplices))

    def test_built_once(self):
        d = disk(3)
        assert d.ordered() is d.ordered()


class TestStarAndSubcomplex:
    # verify's run table, kept on the subcomplex, and the span of M's
    # vertices, which tells whether the split duals its traces
    def test_star_of_disk_center(self):
        d = disk(3)
        closed = subcomplex(d, [["c"]])
        # M is the one vertex c, at place 0 of the draw: the 6 spokes and 6
        # triangles are outside it, all with the trace c, in one run of 12;
        # a vertex is a full subcomplex
        ((run, trace),) = cfcalc.indices._star_runs(closed)
        assert run == slice(1, 13)
        assert trace == ("c",) and type(trace) is tuple
        assert span(closed) == closed.simplices

    def test_star_of_the_whole_parent_holds_no_run(self):
        d = disk(3)
        closed = subcomplex(d, d.maximal_simplices())
        assert cfcalc.indices._star_runs(closed) == []
        assert span(closed) == closed.simplices

    def test_star_of_a_rim_path_spans_the_triangle_it_bends_round(self):
        # the rim path b0 b1 c is not full: its vertices span the triangle
        # b0 b1 c and the edge b0 c, which are traces outside M
        d = disk(3)
        closed = subcomplex(d, [["b0", "b1"], ["b1", "c"]])
        assert span(closed) == closed.simplices | {("b0", "c"), ("b0", "b1", "c")}
        traces = {trace for _, trace in cfcalc.indices._star_runs(closed)}
        assert traces >= {("b0", "c"), ("b0", "b1", "c")}

    def test_subcomplex_closure_and_membership(self):
        d = disk(3)
        axis = diameter(d)
        assert len(axis.simplices) == 5
        assert axis.dim == 1
        with pytest.raises(MissingSimplexError):
            subcomplex(d, [["b0", "b3"]])  # not an edge of the disk

    def test_intersection(self):
        d = disk(3)
        left = subcomplex(d, [["b0", "c"]])
        right = subcomplex(d, [[f"b{i}", "c"] for i in (0, 3)])
        assert left.intersection(right).simplices == left.simplices

    def test_as_complex_is_cached(self):
        axis = diameter(disk(3))
        space = axis.as_complex()
        assert space is axis.as_complex()
        assert space == build_complex([["b0", "c"], ["b3", "c"]])
        # every route makes the subcomplex with its complex, over one set
        d = axis.parent
        whole = subcomplex(d, d.maximal_simplices())
        assert whole.as_complex() is d
        for sub in (
            axis, whole, Subcomplex(d, axis.simplices), axis.intersection(whole),
            fixed_point_set(reflection(d)),
        ):
            assert sub.as_complex().simplices is sub.simplices


    def test_package_built_closures_are_not_checked_again(self, monkeypatch):
        def refuse(sset, what):
            raise AssertionError("a closure the package built was checked again")

        d = disk(3)
        monkeypatch.setattr(cfcalc.complexes, "_require_face_closed", refuse)
        axis = subcomplex(d, [["b0", "c"], ["b3", "c"]])
        assert axis.intersection(axis).as_complex() == build_complex([["b0", "c"], ["b3", "c"]])
        assert fixed_point_set(reflection(d)).simplices == axis.simplices
        with pytest.raises(AssertionError):
            Subcomplex(d, axis.simplices)  # outside input is still checked


class TestOpenSubset:
    def test_complement_is_coface_closed(self):
        d = disk(3)
        u = complement_open(d, diameter(d))
        assert not u.is_empty
        assert u.has(["c", "b1"]) and not u.has(["c", "b0"])
        assert u == OpenSubset(d, d.simplices - diameter(d).simplices)

    def test_rejects_non_coface_closed(self):
        interval = build_complex([["p", "q"]])
        with pytest.raises(ModelError):
            OpenSubset(interval, {simplex("p")})  # misses the coface pq


class TestProduct:
    def test_square(self):
        interval = build_complex([["p", "q"]])
        square, _, _ = product(interval, interval)
        by_dim = {k: sum(1 for s in square.simplices if len(s) - 1 == k) for k in range(3)}
        assert by_dim == {0: 4, 1: 5, 2: 2}
        assert euler_integral(indicator(square)) == 1

    def test_product_with_point_is_isomorphic(self):
        d = disk(3)
        space, proj, _ = product(d, point_complex("pt"))
        assert len(space) == len(d)
        assert {proj.image(s) for s in space.simplices} == set(d.simplices)

    def test_separator_in_vertex_name_rejected(self):
        bad = build_complex([["a.b"]])
        with pytest.raises(ModelError):
            product(bad, point_complex("pt"))

    def test_bad_order_rejected(self):
        interval = build_complex([["p", "q"]])
        with pytest.raises(ModelError):
            product(interval, interval, left_order=["p"])

    @settings(max_examples=40, deadline=None)
    @given(
        complexes(max_vertices=5, max_dim=2),
        complexes(max_vertices=5, max_dim=2),
        st.randoms(use_true_random=False),
    )
    def test_euler_characteristic_multiplies(self, left, right, rng):
        """chi is multiplicative for any choice of factor vertex orders."""
        lorder = sorted(left.vertices)
        rorder = sorted(right.vertices)
        rng.shuffle(lorder)
        rng.shuffle(rorder)
        space, _, _ = product(left, right, lorder, rorder)
        assert (
            euler_integral(indicator(space))
            == euler_integral(indicator(left)) * euler_integral(indicator(right))
        )

    def test_projections_are_simplicial(self):
        d = disk(3)
        space, pl, pr = product(d, polygon(4, prefix="r"))
        for s in space.simplices:
            assert pl.target.has(pl.image(s))
            assert pr.target.has(pr.image(s))


# Every value derived on first use and kept: (a fresh owner, its key in the
# owner's instance dict, the accessor).  A map checks its images through the
# vertex map it is given, so a fresh map, here one from the empty complex,
# has not built its vertex table yet.
CACHED = {
    "SimplicialComplex.ordered": (lambda: disk(3), "_ordered", lambda x: x.ordered()),
    "SimplicialComplex.vertices": (lambda: disk(3), "_vertices", lambda x: x.vertices),
    "SimplicialComplex.maximal_simplices": (
        lambda: disk(3), "_maximal_simplices", lambda x: x.maximal_simplices()
    ),
    "indices._star_runs": (
        lambda: diameter(disk(3)), "__star_runs", lambda x: cfcalc.indices._star_runs(x)
    ),
    "SimplicialMap._vertex_table": (
        lambda: SimplicialMap(build_complex([]), disk(3), {}),
        "__vertex_table",
        lambda x: x._vertex_table(),
    ),
    "ConstructibleFunction._lookup": (lambda: indicator(disk(3)), "__lookup", lambda x: x._lookup()),
    "Scene.canonical_text": (
        lambda: parse_scene(emit_scene(build_model("pair_C_R"))),
        "_canonical_text",
        lambda x: x.canonical_text,
    ),
    "Scene._rows": (
        lambda: parse_scene(emit_scene(build_model("pair_C_R"))), "__rows", lambda x: x._rows()
    ),
}


@pytest.mark.parametrize("accessor", sorted(CACHED))
def test_derived_values_are_built_on_first_use_and_kept(accessor):
    make, key, get = CACHED[accessor]
    owner = make()
    assert key not in vars(owner)
    first = get(owner)
    assert vars(owner)[key] is first
    assert get(owner) is first


def assert_runs(closed):
    """verify's run table on M = closed, against the definition: after M's
    simplices, one run per trace w (the vertices in M of a parent simplex
    outside M with a vertex in M), contiguous to the end, in canonical
    trace order, each as long as the number of simplices outside M with
    that trace and carrying w as a plain tuple."""
    runs, traces = cfcalc.indices._star_runs(closed), star_traces(closed)
    stops = list(itertools.accumulate(map(len, traces.values()), initial=len(closed.simplices)))
    assert runs == [(slice(a, b), w) for a, b, w in zip(stops, stops[1:], traces)]
    assert all(type(w) is tuple for _, w in runs)


def test_runs_of_a_diameter():
    assert_runs(diameter(disk(3)))


class TestMaps:
    def test_totality_validated(self):
        interval = build_complex([["p", "q"]])
        with pytest.raises(ModelError):
            simplicial_map(interval, interval, {"p": "p"})

    def test_image_must_be_simplex(self):
        source = polygon(4, prefix="r")
        target = polygon(4, prefix="q")
        # collapsing onto two opposite corners sends edges to the missing diagonal
        with pytest.raises(ModelError):
            simplicial_map(
                source, target,
                {"r0": "q0", "r1": "q0", "r2": "q2", "r3": "q2"},
            )

    def test_compose_and_identity(self):
        d = disk(3)
        ident = SimplicialMap(d, d, {v: v for v in d.vertices})
        assert compose(ident, ident).vertex_map == ident.vertex_map
        axis = diameter(d)
        incl = inclusion_map(axis)
        assert incl.image(simplex("b0", "c")) == simplex("b0", "c")

    def test_compose_mismatch(self):
        with pytest.raises(ModelError):
            triangle, square = polygon(3), polygon(4, prefix="r")
            compose(
                SimplicialMap(triangle, triangle, {v: v for v in triangle.vertices}),
                SimplicialMap(square, square, {v: v for v in square.vertices}),
            )


class TestInvolutions:
    def test_regularity_rejects_edge_swap(self):
        interval = build_complex([["p", "q"]])
        with pytest.raises(ModelError):
            involution(interval, {"p": "q", "q": "p"})

    def test_not_self_inverse_rejected(self):
        c = polygon(3)
        with pytest.raises(ModelError):
            involution(c, {"b0": "b1", "b1": "b2", "b2": "b0"})

    def test_reflection_fixed_points(self):
        d = disk(3)
        tau = reflection(d)
        assert fixed_point_set(tau).simplices == diameter(d).simplices
        assert not is_strongly_free(tau)

    def test_antipodal_is_strongly_free(self):
        c = polygon(6)
        assert is_strongly_free(antipodal(c, 3))

    def test_square_antipodal_quotient_rejected(self):
        """Strong freeness alone is not enough for a simplicial quotient."""
        tau = antipodal(polygon(4), 2)
        assert is_strongly_free(tau)
        with pytest.raises(ModelError, match="share one image"):
            quotient_by_involution(tau)

    def test_hexagon_quotient_is_triangle(self):
        quotient, projection = quotient_by_involution(antipodal(polygon(6), 3))
        assert quotient == polygon(3)
        # degree two: every quotient simplex has exactly two preimages
        fibers = {q: 0 for q in quotient.simplices}
        for s in projection.source.simplices:
            fibers[projection.image(s)] += 1
        assert set(fibers.values()) == {2}

    def test_quotient_needs_strong_freeness(self):
        with pytest.raises(ModelError):
            quotient_by_involution(reflection(disk(3)))

    def test_accepting_and_fixing_image_only_the_generators(self, monkeypatch):
        """involution and fixed_point_set decide on vertices: on 50 disjoint
        4-simplices (1,550 simplices), swapped in pairs or fixed, only the
        map's own check images simplices, the 50 it was closed from."""
        space = build_complex([[f"{c}{i}_{j}" for j in range(5)] for i in range(25) for c in "uw"])
        swap = {
            f"{c}{i}_{j}": f"{d}{i}_{j}" for i in range(25) for j in range(5) for c, d in ("uw", "wu")
        }
        images, imaged = cfcalc.complexes._images, []

        def counted(table, simplices):
            simplices = list(simplices)
            imaged.extend(simplices)
            return images(table, simplices)

        monkeypatch.setattr(cfcalc.complexes, "_images", counted)
        for vertex_map, fixed in ((swap, 0), ({}, 1550)):
            imaged.clear()
            assert len(fixed_point_set(involution(space, vertex_map)).simplices) == fixed
            assert len(imaged) <= 50

    def test_random_quotients_are_the_preimage_groups(self):
        """Strongly free involutions on 6 or 8 vertices, each swapping u<i>
        and w<i> on the closure of random simplices and their images: the
        quotient is accepted exactly when the simplices with each orbit
        image are one orbit, its simplices are those images, and a refusal
        names the least other image with the number of its preimages."""
        rng, kinds = random.Random(49), defaultdict(int)
        for _ in range(300):
            n = rng.choice((3, 4))
            swap = {f"{c}{i}": f"{d}{i}" for i in range(n) for c, d in ("uw", "wu")}
            tops = [[v] for v in swap]
            for _ in range(rng.randint(1, 2 * n)):
                top = [rng.choice("uw") + str(i) for i in rng.sample(range(n), rng.randint(1, n))]
                tops += [top, [swap[v] for v in top]]
            space = build_complex(tops)
            tau = involution(space, swap)
            assert is_strongly_free(tau)
            groups = defaultdict(set)
            for s in space.simplices:
                groups[tuple(sorted({min(v, swap[v]) for v in s}))].add(s)
            shared = sorted(
                t for t, group in groups.items()
                if group != {min(group), tuple(sorted(swap[v] for v in min(group)))}
            )
            if shared:
                t = shared[0]
                with pytest.raises(ModelError) as refused:
                    quotient_by_involution(tau)
                assert str(refused.value) == (
                    f"orbit map does not give a simplicial quotient at {Simplex(t)}: "
                    f"{len(groups[t])} simplices share one image; refine the model (e.g. subdivide)"
                )
                kinds["refused"] += 1
                continue
            quotient, projection = quotient_by_involution(tau)
            assert quotient.simplices == groups.keys()
            assert all(projection.image(s) == t for t, group in groups.items() for s in group)
            kinds["quotient"] += 1
        assert kinds == {"refused": 179, "quotient": 121}


class TestConnectivity:
    def test_empty_is_not_connected(self):
        assert not is_connected([])

    def test_disjoint_union(self):
        two = build_complex([["a", "b"], ["x", "y"]])
        assert not is_connected(two.simplices)
        assert is_connected(polygon(5).simplices)
