import random

import pytest
from hypothesis import given, settings, strategies as st

from cfcalc import (
    ConstructibleFunction,
    MissingSimplexError,
    ModelError,
    build_complex,
    complement_open,
    compose,
    constant_map,
    dual,
    euler_integral,
    full_subcomplex,
    indicator,
    inclusion_map,
    mod2_euler_integral,
    mod2_pushforward,
    mod2_reduce,
    open_extend,
    open_pushforward,
    orbit_pushforward,
    point_complex,
    pullback,
    pushforward,
    restrict,
    restrict_open,
    shriek_restrict,
    simplex,
    simplicial_map,
    subcomplex,
    triangle_decompose,
    zero_function,
)
from conftest import (
    diameter,
    disk,
    polygon,
    random_cf,
    random_complex,
    random_free_involution,
    random_subcomplex,
)


@st.composite
def complex_with_cf(draw, max_vertices=8, max_dim=3, bound=5):
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
    space = build_complex(sims)
    values = {}
    for s in space.ordered():
        if draw(st.booleans()):
            values[s] = draw(st.integers(min_value=-bound, max_value=bound))
    return space, ConstructibleFunction(space, values)


class TestFunctionBasics:
    def test_zero_values_dropped(self):
        c = polygon(3)
        phi = ConstructibleFunction(c, {simplex("b0"): 0, simplex("b1"): 2})
        assert phi.support == {simplex("b1")}
        assert phi.value("b0") == 0

    def test_value_outside_ambient(self):
        phi = zero_function(polygon(3))
        with pytest.raises(MissingSimplexError):
            phi.value("zz")

    def test_ambient_mismatch(self):
        with pytest.raises(ModelError):
            indicator(full_subcomplex(polygon(3))) + indicator(
                full_subcomplex(polygon(4, prefix="r"))
            )

    def test_arithmetic(self):
        c = polygon(3)
        one = indicator(full_subcomplex(c))
        assert 2 * one - one == one
        assert (one - one) == zero_function(c)
        assert (3 * one) * one == 3 * one  # pointwise product

    def test_integral_of_indicators(self):
        assert euler_integral(indicator(full_subcomplex(polygon(7)))) == 0
        tetra = build_complex(
            [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
        )
        assert euler_integral(indicator(full_subcomplex(tetra))) == 2


class TestDuality:
    def test_interval(self):
        interval = build_complex([["p", "q"]])
        d = dual(indicator(full_subcomplex(interval)))
        assert d.value("p") == 0 and d.value("q") == 0
        assert d.value(["p", "q"]) == -1

    def test_closed_one_manifold(self):
        one = indicator(full_subcomplex(polygon(6)))
        assert dual(one) == -1 * one

    def test_closed_two_manifold(self):
        tetra = build_complex(
            [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
        )
        one = indicator(full_subcomplex(tetra))
        assert dual(one) == one

    def test_point_mass(self):
        d = disk(3)
        delta = ConstructibleFunction(d, {simplex("c"): 1})
        assert dual(delta) == delta

    def test_linearity(self):
        rng = random.Random(5)
        space = random_complex(rng)
        phi, psi = random_cf(rng, space), random_cf(rng, space)
        assert dual(phi + psi) == dual(phi) + dual(psi)
        assert dual(-3 * phi) == -3 * dual(phi)

    @settings(max_examples=80, deadline=None)
    @given(complex_with_cf())
    def test_involution(self, pair):
        """Applying the dual twice gives back the original function."""
        _, phi = pair
        assert dual(dual(phi)) == phi

    def test_integral_invariance(self):
        # integrating against the dual changes nothing: chi_c of a point is 1
        rng = random.Random(11)
        for _ in range(20):
            space = random_complex(rng)
            phi = random_cf(rng, space)
            assert euler_integral(dual(phi)) == euler_integral(phi)


class TestPullbackPushforward:
    def test_pushforward_to_point_is_integral(self):
        rng = random.Random(2)
        for _ in range(20):
            space = random_complex(rng)
            target = point_complex()
            f = constant_map(space, target, "pt")
            phi = random_cf(rng, space)
            assert pushforward(f, phi).value("pt") == euler_integral(phi)

    def test_pullback_of_indicator(self):
        d = disk(3)
        axis = diameter(d)
        incl = inclusion_map(axis)
        one = indicator(axis)
        assert pullback(incl, one) == indicator(full_subcomplex(axis.as_complex()))

    def test_domain_checks(self):
        d = disk(3)
        f = constant_map(d, point_complex(), "pt")
        with pytest.raises(ModelError):
            pushforward(f, zero_function(point_complex()))
        with pytest.raises(ModelError):
            pullback(f, zero_function(d))

    @settings(max_examples=60, deadline=None)
    @given(complex_with_cf(max_vertices=6), st.data())
    def test_pushforward_functoriality(self, pair, data):
        space, phi = pair
        mid = build_complex([[f"m{i}" for i in range(data.draw(st.integers(1, 4)))]])
        last = build_complex([[f"t{i}" for i in range(data.draw(st.integers(1, 4)))]])
        f = simplicial_map(
            space, mid,
            {v: data.draw(st.sampled_from(sorted(mid.vertices))) for v in sorted(space.vertices)},
        )
        g = simplicial_map(
            mid, last,
            {v: data.draw(st.sampled_from(sorted(last.vertices))) for v in sorted(mid.vertices)},
        )
        assert pushforward(g, pushforward(f, phi)) == pushforward(compose(g, f), phi)
        psi = random_cf(random.Random(0), last)
        assert pullback(f, pullback(g, psi)) == pullback(compose(g, f), psi)

    def test_pushforward_preserves_integral(self):
        rng = random.Random(3)
        for _ in range(20):
            space = random_complex(rng, max_vertices=6)
            target = build_complex([[f"t{i}" for i in range(rng.randint(1, 4))]])
            f = simplicial_map(
                space, target,
                {v: rng.choice(sorted(target.vertices)) for v in space.vertices},
            )
            phi = random_cf(rng, space)
            assert euler_integral(pushforward(f, phi)) == euler_integral(phi)

    def test_circle_double_cover_pushforward(self):
        hexagon = polygon(6)
        triangle = polygon(3)
        f = simplicial_map(
            hexagon, triangle, {f"b{i}": f"b{i % 3}" for i in range(6)}
        )
        folded = pushforward(f, indicator(full_subcomplex(hexagon)))
        assert folded == 2 * indicator(full_subcomplex(triangle))


class TestShriekRestrict:
    def test_disk_table(self):
        """Costalk of the constant 1 on the disk: -1 on the whole diameter."""
        d = disk(3)
        axis = diameter(d)
        shr = shriek_restrict(axis, indicator(full_subcomplex(d)))
        assert shr.ambient == axis.as_complex()
        for s in shr.ambient.simplices:
            assert shr.value(s) == -1

    def test_center_point_mass(self):
        d = disk(3)
        axis = diameter(d)
        delta = ConstructibleFunction(d, {simplex("c"): 1})
        shr = shriek_restrict(axis, delta)
        assert shr == ConstructibleFunction(axis.as_complex(), {simplex("c"): 1})

    def test_whole_space_is_identity(self):
        rng = random.Random(7)
        for _ in range(10):
            space = random_complex(rng)
            phi = random_cf(rng, space)
            shr = shriek_restrict(full_subcomplex(space), phi)
            assert shr.items == phi.items


class TestOpenOperators:
    def test_open_pushforward_interval(self):
        # extending the open edge back over its endpoints gives the constant 1
        interval = build_complex([["p", "q"]])
        u = complement_open(interval, subcomplex(interval, [["p"], ["q"]]))
        psi = ConstructibleFunction(interval, {simplex("p", "q"): 1})
        assert open_pushforward(u, psi) == indicator(full_subcomplex(interval))

    def test_support_validation(self):
        interval = build_complex([["p", "q"]])
        u = complement_open(interval, subcomplex(interval, [["p"], ["q"]]))
        leaking = indicator(full_subcomplex(interval))
        with pytest.raises(ModelError):
            open_extend(u, leaking)
        with pytest.raises(ModelError):
            open_pushforward(u, leaking)

    def test_restrict_open_zeroes_closure(self):
        d = disk(3)
        u = complement_open(d, diameter(d))
        chopped = restrict_open(indicator(full_subcomplex(d)), u)
        assert chopped.value("c") == 0
        assert chopped.value(["b1", "c"]) == 1


class TestTriangle:
    def test_interval_at_endpoint(self):
        interval = build_complex([["p", "q"]])
        endpoint = subcomplex(interval, [["p"]])
        phi = indicator(full_subcomplex(interval))
        costalk, boundary = triangle_decompose(endpoint, phi)
        assert costalk.value("p") == 0
        assert boundary.value("p") == 1

    def test_disk_solution(self):
        d = disk(3)
        axis = diameter(d)
        phi = indicator(full_subcomplex(d))
        costalk, boundary = triangle_decompose(axis, phi)
        assert restrict(phi, axis) == costalk + boundary

    @settings(max_examples=80, deadline=None)
    @given(complex_with_cf(), st.data())
    def test_identity_random(self, pair, data):
        """Restriction = costalk + boundary, exactly, on any closed subcomplex."""
        space, phi = pair
        gens = [s for s in space.ordered() if data.draw(st.booleans())]
        closed = subcomplex(space, gens)
        costalk, boundary = triangle_decompose(closed, phi)
        assert restrict(phi, closed) == costalk + boundary


class TestBaseChange:
    def test_random_instances(self):
        """Extension by zero from a closed piece commutes with the costalk."""
        rng = random.Random(13)
        done = 0
        while done < 30:
            space = random_complex(rng)
            y = random_subcomplex(rng, space)
            m = random_subcomplex(rng, space)
            if y.is_empty:
                continue
            psi = random_cf(rng, y.as_complex())
            left = shriek_restrict(m, pushforward(inclusion_map(y), psi))
            trace = y.intersection(m)
            trace_in_y = subcomplex(y.as_complex(), [s.vertices for s in trace.simplices])
            trace_in_m = subcomplex(m.as_complex(), [s.vertices for s in trace.simplices])
            right = pushforward(inclusion_map(trace_in_m), shriek_restrict(trace_in_y, psi))
            assert left == right
            done += 1


class TestMod2:
    def test_reduce_commutes_with_pushforward(self):
        rng = random.Random(17)
        for _ in range(20):
            space = random_complex(rng, max_vertices=6)
            target = build_complex([[f"t{i}" for i in range(rng.randint(1, 4))]])
            f = simplicial_map(
                space, target,
                {v: rng.choice(sorted(target.vertices)) for v in space.vertices},
            )
            phi = random_cf(rng, space)
            assert mod2_pushforward(f, mod2_reduce(phi)) == mod2_reduce(pushforward(f, phi))

    def test_integral_mod_two(self):
        rng = random.Random(19)
        for _ in range(20):
            space = random_complex(rng)
            phi = random_cf(rng, space)
            assert mod2_euler_integral(mod2_reduce(phi)) == euler_integral(phi) % 2

    def test_addition_is_xor(self):
        c = polygon(3)
        a = mod2_reduce(indicator(full_subcomplex(c)))
        assert (a + a).support == frozenset()

    def test_value(self):
        c = polygon(3)
        a = mod2_reduce(3 * indicator(subcomplex(c, [["b0", "b1"]])))
        assert [a.value(s) for s in c.ordered()] == [1, 1, 0, 1, 0, 0]  # b0, b0 b1, b1
        with pytest.raises(MissingSimplexError):
            a.value("nowhere")


class TestFreeInvolutions:
    def test_invariant_integral_is_even(self):
        rng = random.Random(23)
        for _ in range(40):
            _, alpha = random_free_involution(rng)
            assert euler_integral(alpha) % 2 == 0

    def test_orbit_pushforward_doubles(self):
        from conftest import antipodal

        hexagon = polygon(6)
        tau = antipodal(hexagon, 3)
        one = indicator(full_subcomplex(hexagon))
        folded = orbit_pushforward(tau, one)
        assert folded == 2 * indicator(full_subcomplex(polygon(3)))

    def test_orbit_pushforward_needs_matching_space(self):
        from conftest import antipodal

        tau = antipodal(polygon(6), 3)
        with pytest.raises(ModelError):
            orbit_pushforward(tau, zero_function(polygon(3)))
