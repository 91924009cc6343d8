import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import cfcalc.calculus
import cfcalc.indices
from cfcalc import (
    ConstructibleFunction,
    MissingSimplexError,
    ModelError,
    Simplex,
    SimplicialMap,
    Subcomplex,
    build_complex,
    build_model,
    complement_open,
    compose,
    dual,
    emit_scene,
    euler_integral,
    indicator,
    inclusion_map,
    mod2_reduce,
    open_extend,
    open_pushforward,
    orbit_pushforward,
    parse_scene,
    point_complex,
    product,
    pullback,
    pushforward,
    restrict,
    restrict_open,
    shriek_restrict,
    simplex,
    simplicial_map,
    solution_index,
    subcomplex,
    triangle_decompose,
    zero_function,
)
from conftest import (
    complexes,
    diameter,
    disk,
    order_built,
    polygon,
    random_cf,
    random_complex,
    random_free_involution,
    random_subcomplex,
)


@st.composite
def complex_with_cf(draw, max_vertices=8, max_dim=3, bound=5):
    space = draw(complexes(max_vertices, max_dim))
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

    def test_bool_values_refused(self):
        with pytest.raises(ModelError, match="value at b0 must be an integer, got True"):
            ConstructibleFunction(polygon(3), {simplex("b0"): True})

    def test_value_outside_ambient(self):
        phi = zero_function(polygon(3))
        with pytest.raises(MissingSimplexError):
            phi.value("zz")

    def test_ambient_mismatch(self):
        with pytest.raises(ModelError):
            indicator(polygon(3)) + indicator(polygon(4, prefix="r"))

    def test_arithmetic(self):
        c = polygon(3)
        one = indicator(c)
        assert 2 * one - one == one
        assert (one - one) == zero_function(c)
        assert (3 * one) * one == 3 * one  # pointwise product

    def test_integral_of_indicators(self):
        assert euler_integral(indicator(polygon(7))) == 0
        tetra = build_complex(
            [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
        )
        assert euler_integral(indicator(tetra)) == 2


def outcome(fn, arg):
    """fn(arg), a function as its items, or the type and message it raised."""
    try:
        got = fn(arg)
    except (ModelError, TypeError) as err:
        return type(err).__name__, str(err)
    return got.items if isinstance(got, ConstructibleFunction) else got


class TestLookup:
    """has, value and the checked constructor find a tuple of the complex as
    it is and read anything else as a named simplex: unsorted, a list, a
    bare string as one name, integers by their str(), each refusal worded
    as before simplices became plain tuples."""

    SPACE = build_complex([["a", "b", "c"], ["1", "2"]])
    EDGE = subcomplex(SPACE, [["a", "b"]])
    PHI = ConstructibleFunction(SPACE, {("a", "b"): 5, ("1",): 7})
    DUPLICATE = ("ModelError", "duplicate vertices in simplex ['a', 'a']")
    EMPTY = ("ModelError", "a simplex needs at least one vertex")
    NOT_ITERABLE = ("TypeError", "'int' object is not iterable")

    # argument: (SPACE.has, EDGE.has, PHI.value)
    CASES = [
        (("b", "a"), (True, True, 5)),
        (["b", "a"], (True, True, 5)),
        (simplex("b", "a"), (True, True, 5)),
        ("a", (True, True, 0)),
        ("ab", (
            False, False, ("MissingSimplexError", "ab is not a simplex of the ambient complex")
        )),
        (("a", "a"), (DUPLICATE,) * 3),
        ((), (EMPTY,) * 3),
        ([], (EMPTY,) * 3),
        ((1, 2), (True, False, 0)),
        ([2, 1], (True, False, 0)),
        (1, (NOT_ITERABLE,) * 3),
        (("z",), (
            False, False, ("MissingSimplexError", "z is not a simplex of the ambient complex")
        )),
        (("a", "b", "c"), (True, False, 0)),
        ({"c"}, (True, False, 0)),
        # A set's repr follows the hash seed, so this case keeps one fixed id.
        pytest.param(
            frozenset({"a", "b"}), (True, True, 5), id="frozenset({'b', 'a'})-(True, True, 5)"
        ),
    ]

    @pytest.mark.parametrize("arg,expected", CASES, ids=repr)
    def test_has_and_value(self, arg, expected):
        got = tuple(outcome(fn, arg) for fn in (self.SPACE.has, self.EDGE.has, self.PHI.value))
        assert got == expected

    @pytest.mark.parametrize("values,expected", [
        ({("b", "a"): 2, "c": 1, (2, 1): 3}, ((("1", "2"), 3), (("a", "b"), 2), (("c",), 1))),
        ({("b", "a"): 1, ("a", "b"): 2}, ((("a", "b"), 2),)),
        ({simplex("a"): 1, ("a",): 0}, ()),
        ({("a", "a"): 1}, DUPLICATE),
        ({(): 1}, EMPTY),
        ({1: 1}, NOT_ITERABLE),
        ({("z",): 1}, ("MissingSimplexError", "z is not a simplex of the ambient complex")),
        ({"ab": 1}, ("MissingSimplexError", "ab is not a simplex of the ambient complex")),
        ({("a",): 1.5}, ("ModelError", "value at a must be an integer, got 1.5")),
        ({("a",): True}, ("ModelError", "value at a must be an integer, got True")),
    ], ids=repr)
    def test_constructor(self, values, expected):
        assert outcome(lambda v: ConstructibleFunction(self.SPACE, v), values) == expected

    def test_every_key_is_kept_as_a_plain_tuple(self):
        phi = ConstructibleFunction(self.SPACE, {simplex("b", "a"): 1, (2, 1): 2, "c": 3})
        assert [type(s) for s, _ in phi.items] == [tuple] * 3


class TestAddition:
    @settings(max_examples=150, deadline=None)
    @given(complex_with_cf(max_vertices=6), st.data())
    def test_sum_and_difference_match_their_pointwise_definitions(self, pair, data):
        space, _ = pair
        values = st.dictionaries(
            st.sampled_from(space.ordered()), st.integers(min_value=-2**70, max_value=2**70)
        )
        a_values, b_values = data.draw(values), data.draw(values)
        for s, v in a_values.items():  # make a + b or a - b cancel to zero here
            tie = data.draw(st.sampled_from([None, 1, -1]))
            if tie is not None:
                b_values[s] = tie * v
        a, b = ConstructibleFunction(space, a_values), ConstructibleFunction(space, b_values)
        for got, sign in ((a + b, 1), (a - b, -1)):
            pointwise = [(s, a.value(s) + sign * b.value(s)) for s in space.ordered()]
            assert got.ambient is space
            assert got.items == tuple([(s, v) for s, v in pointwise if v])
        elsewhere = zero_function(point_complex("elsewhere"))
        with pytest.raises(ModelError, match="different ambient"):
            a + elsewhere
        with pytest.raises(ModelError, match="different ambient"):
            a - elsewhere

    def test_sum_and_difference_build_no_index(self):
        scene = parse_scene(emit_scene(build_model("node_curve", k=3)))
        a = indicator(scene.ambient)
        b = solution_index(scene.cycle, scene.ambient)
        assert (a + b) - b == a
        assert (a - b) + b == a
        assert not order_built(scene.ambient)


class TestDuality:
    @pytest.mark.parametrize("n", [1, 2, 5, 14])
    def test_closed_simplex(self, n):
        # (-1)^(n-1) at the top simplex, 0 below: at n = 2 the interval's
        # endpoints get 0 and the edge -1.  At n = 14 dual adds along the
        # 114,674 vertices of the 16,383 simplices that have more than one;
        # summing each face of each simplex, 3^14 - 2^14 terms, misses the bound
        top = Simplex([f"v{i}" for i in range(n)])
        phi = indicator(build_complex([top]))
        start = time.process_time()
        d = dual(phi)
        assert time.process_time() - start < 0.3
        assert d.items == ((top, (-1) ** (n - 1)),)

    def test_closed_one_manifold(self):
        one = indicator(polygon(6))
        assert dual(one) == -1 * one

    def test_closed_two_manifold(self):
        tetra = build_complex(
            [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
        )
        one = indicator(tetra)
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
            f = SimplicialMap(space, target, {v: "pt" for v in space.vertices})
            phi = random_cf(rng, space)
            assert pushforward(f, phi).value("pt") == euler_integral(phi)

    def test_pullback_of_indicator(self):
        d = disk(3)
        axis = diameter(d)
        incl = inclusion_map(axis)
        one = indicator(axis)
        assert pullback(incl, one) == indicator(axis.as_complex())

    def test_domain_checks(self):
        d = disk(3)
        f = SimplicialMap(d, point_complex(), {v: "pt" for v in d.vertices})
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
        folded = pushforward(f, indicator(hexagon))
        assert folded == 2 * indicator(triangle)


class TestShriekRestrict:
    def test_disk_table(self):
        """Costalk of the constant 1 on the disk: -1 on the whole diameter."""
        d = disk(3)
        axis = diameter(d)
        shr = shriek_restrict(axis, indicator(d))
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
            shr = shriek_restrict(Subcomplex(space, space.simplices), phi)
            assert shr.items == phi.items


class TestOpenOperators:
    def test_open_pushforward_interval(self):
        # extending the open edge back over its endpoints gives the constant 1
        interval = build_complex([["p", "q"]])
        u = complement_open(interval, subcomplex(interval, [["p"], ["q"]]))
        psi = ConstructibleFunction(interval, {simplex("p", "q"): 1})
        assert open_pushforward(u, psi) == indicator(interval)

    def test_support_validation(self):
        interval = build_complex([["p", "q"]])
        u = complement_open(interval, subcomplex(interval, [["p"], ["q"]]))
        leaking = indicator(interval)
        with pytest.raises(ModelError):
            open_extend(u, leaking)
        with pytest.raises(ModelError):
            open_pushforward(u, leaking)

    def test_restrict_open_zeroes_closure(self):
        d = disk(3)
        u = complement_open(d, diameter(d))
        chopped = restrict_open(indicator(d), u)
        assert chopped.value("c") == 0
        assert chopped.value(["b1", "c"]) == 1


class TestTriangle:
    def test_interval_at_endpoint(self):
        interval = build_complex([["p", "q"]])
        endpoint = subcomplex(interval, [["p"]])
        phi = indicator(interval)
        costalk, boundary = triangle_decompose(endpoint, phi)
        assert costalk.value("p") == 0
        assert boundary.value("p") == 1

    def test_disk_solution(self):
        d = disk(3)
        axis = diameter(d)
        phi = indicator(d)
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
            trace_in_y = subcomplex(y.as_complex(), list(trace.simplices))
            trace_in_m = subcomplex(m.as_complex(), list(trace.simplices))
            right = pushforward(inclusion_map(trace_in_m), shriek_restrict(trace_in_y, psi))
            assert left == right
            done += 1


def boxed(to_left, to_right, phi, psi):
    """The external product of phi and psi: the product of their pullbacks
    along the two projections."""
    return pullback(to_left, phi) * pullback(to_right, psi)


class TestExternalProduct:
    """The external product commutes with duality and with costalk
    restriction to a product of subcomplexes (Kashiwara-Schapira ch. IX),
    on any complexes: no manifold condition is needed."""

    @settings(max_examples=200, deadline=None)
    @given(
        complex_with_cf(max_vertices=4, max_dim=2),
        complex_with_cf(max_vertices=4, max_dim=2),
        st.data(),
    )
    def test_dual_and_costalk_restriction_of_a_product(self, left_pair, right_pair, data):
        (left, phi), (right, psi) = left_pair, right_pair
        space, pl, pr = product(left, right)
        assert dual(boxed(pl, pr, phi, psi)) == boxed(pl, pr, dual(phi), dual(psi))

        a = subcomplex(left, [s for s in left.ordered() if data.draw(st.booleans())])
        b = subcomplex(right, [s for s in right.ordered() if data.draw(st.booleans())])
        # A x B: the product simplices whose two projections lie in A and B
        ab = Subcomplex(space, [
            s for s in space.ordered() if a.has(pl.image(s)) and b.has(pr.image(s))
        ])
        piece = ab.as_complex()
        ql = simplicial_map(piece, a.as_complex(), {v: pl.vertex(v) for v in piece.vertices})
        qr = simplicial_map(piece, b.as_complex(), {v: pr.vertex(v) for v in piece.vertices})
        assert shriek_restrict(ab, boxed(pl, pr, phi, psi)) == boxed(
            ql, qr, shriek_restrict(a, phi), shriek_restrict(b, psi)
        )


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
            assert mod2_reduce(pushforward(f, mod2_reduce(phi))) == mod2_reduce(pushforward(f, phi))

    def test_integral_mod_two(self):
        rng = random.Random(19)
        for _ in range(20):
            space = random_complex(rng)
            phi = random_cf(rng, space)
            assert euler_integral(mod2_reduce(phi)) % 2 == euler_integral(phi) % 2

    def test_addition_is_xor(self):
        c = polygon(3)
        a = mod2_reduce(indicator(c))
        assert mod2_reduce(a + a).support == frozenset()

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
        one = indicator(hexagon)
        folded = orbit_pushforward(tau, one)
        assert folded == 2 * indicator(polygon(3))

    def test_orbit_pushforward_needs_matching_space(self):
        from conftest import antipodal

        tau = antipodal(polygon(6), 3)
        with pytest.raises(ModelError):
            orbit_pushforward(tau, zero_function(polygon(3)))
