import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cfcalc import (
    MissingSimplexError,
    ModelError,
    OpenSubset,
    Simplex,
    build_complex,
    complement_open,
    compose,
    cone,
    fixed_point_set,
    full_subcomplex,
    identity_map,
    inclusion_map,
    involution,
    is_connected,
    is_strongly_free,
    point_complex,
    product,
    quotient_by_involution,
    simplex,
    simplicial_map,
    star,
    subcomplex,
)
from conftest import antipodal, diameter, disk, polygon, reflection


def face_closure_size(maximal) -> int:
    # independent oracle: brute-force closure via itertools
    faces = set()
    for m in maximal:
        vs = tuple(sorted(m))
        for r in range(1, len(vs) + 1):
            faces.update(itertools.combinations(vs, r))
    return len(faces)


@st.composite
def complexes(draw, max_vertices=8, max_dim=3):
    nv = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    sims = draw(
        st.lists(
            st.sets(
                st.sampled_from(vertices),
                min_size=1,
                max_size=min(max_dim + 1, nv),
            ),
            min_size=1,
            max_size=2 * nv,
        )
    )
    return build_complex(sims)


class TestSimplex:
    def test_vertices_sorted_and_deduplication_rejected(self):
        assert simplex("b", "a").vertices == ("a", "b")
        with pytest.raises(ModelError):
            simplex("a", "a")
        with pytest.raises(ModelError):
            Simplex([])

    def test_str_and_order(self):
        assert str(simplex("b", "a")) == "a b"
        assert simplex("a") < simplex("a", "b") < simplex("b")

    def test_subsimplices_count(self):
        s = simplex("x", "y", "z")
        faces = list(s.subsimplices())
        assert len(faces) == 7  # 2^3 - 1
        assert s in faces
        assert all(s.contains(f) for f in faces)


class TestComplexConstruction:
    def test_solid_triangle_has_seven_simplices(self):
        t = build_complex([["a", "b", "c"]])
        assert len(t) == 7
        assert t.dim == 2
        assert t.euler_characteristic() == 1

    def test_circle_counts(self):
        c = polygon(3)
        assert len(c) == 6
        assert c.dim == 1
        assert c.euler_characteristic() == 0

    def test_cone_over_hexagon(self):
        """Coning a 6-gon gives 7 vertices, 12 edges, 6 triangles."""
        base = polygon(6)
        d = cone(base, "c")
        by_dim = {k: sum(1 for s in d.simplices if s.dim == k) for k in range(3)}
        assert by_dim == {0: 7, 1: 12, 2: 6}
        assert len(d) == 25
        assert len(d) == face_closure_size(s.vertices for s in d.maximal_simplices())
        assert d.euler_characteristic() == 1

    def test_cone_apex_collision(self):
        with pytest.raises(ModelError):
            cone(polygon(3), "b0")

    def test_cone_over_empty_is_point(self):
        assert cone(build_complex([]), "pt") == point_complex("pt")

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
        assert build_complex(s.vertices for s in space.maximal_simplices()) == space
        assert len(space) == face_closure_size(
            s.vertices for s in space.maximal_simplices()
        )


class TestComplexIndex:
    @settings(max_examples=60, deadline=None)
    @given(complexes())
    def test_order_faces_and_parity(self, space):
        index = space.index()
        assert index.order == tuple(sorted(space.simplices))
        assert space.ordered() is index.order
        assert len(index.starts) == len(space) + 1
        for i, s in enumerate(index.order):
            assert index.position[s.vertices] == i
            faces = [index.order[j] for j in index.faces[index.starts[i]:index.starts[i + 1]]]
            assert len(faces) == len(set(faces))
            assert set(faces) == set(s.subsimplices())
            assert index.odd[i] == (s.dim % 2 == 1)

    def test_built_once(self):
        d = disk(3)
        assert d.index() is d.index()


class TestStarAndSubcomplex:
    def test_star_of_disk_center(self):
        d = disk(3)
        assert len(star(d, "c")) == 13  # vertex + 6 spokes + 6 triangles

    def test_star_missing(self):
        with pytest.raises(MissingSimplexError):
            star(disk(3), "nowhere")

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

    def test_full_subcomplex_roundtrip(self):
        d = disk(3)
        assert full_subcomplex(d).as_complex() == d

    def test_as_complex_is_cached(self):
        axis = diameter(disk(3))
        space = axis.as_complex()
        assert space is axis.as_complex()
        assert space == build_complex([["b0", "c"], ["b3", "c"]])


class TestOpenSubset:
    def test_complement_is_coface_closed(self):
        d = disk(3)
        u = complement_open(d, diameter(d))
        assert not u.is_empty
        assert u.has(["c", "b1"]) and not u.has(["c", "b0"])

    def test_complement_is_cached(self):
        d = disk(3)
        axis = diameter(d)
        u = complement_open(d, axis)
        assert u is complement_open(d, axis)
        assert u == OpenSubset(d, d.simplices - axis.simplices)

    def test_rejects_non_coface_closed(self):
        interval = build_complex([["p", "q"]])
        with pytest.raises(ModelError):
            OpenSubset(interval, {simplex("p")})  # misses the coface pq


class TestProduct:
    def test_square(self):
        interval = build_complex([["p", "q"]])
        square, _, _ = product(interval, interval)
        by_dim = {k: sum(1 for s in square.simplices if s.dim == k) for k in range(3)}
        assert by_dim == {0: 4, 1: 5, 2: 2}
        assert square.euler_characteristic() == 1

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
            space.euler_characteristic()
            == left.euler_characteristic() * right.euler_characteristic()
        )

    def test_projections_are_simplicial(self):
        d = disk(3)
        space, pl, pr = product(d, polygon(4, prefix="r"))
        for s in space.simplices:
            assert pl.target.has(pl.image(s))
            assert pr.target.has(pr.image(s))


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
        ident = identity_map(d)
        assert compose(ident, ident).vertex_map == ident.vertex_map
        axis = diameter(d)
        incl = inclusion_map(axis)
        assert incl.image(simplex("b0", "c")) == simplex("b0", "c")

    def test_compose_mismatch(self):
        with pytest.raises(ModelError):
            compose(identity_map(polygon(3)), identity_map(polygon(4, prefix="r")))


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


class TestConnectivity:
    def test_empty_is_not_connected(self):
        assert not is_connected([])

    def test_disjoint_union(self):
        two = build_complex([["a", "b"], ["x", "y"]])
        assert not is_connected(two.simplices)
        assert is_connected(polygon(5).simplices)
