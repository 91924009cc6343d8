"""Planted kernel faults, each caught by a named tier-1 check.

Every entry of FAULTS swaps one kernel piece for a wrong version and names
the check that must notice it: a failing verify row on a built-in model,
an oracle of tests/test_oracles.py or tests/test_calculus.py, or a golden
output of tests/test_golden.py.  A fault on a function is planted in every
cfcalc module that imported the name, so callers inside the package see it
too.  Each catcher is also run on the healthy kernel, where it must stay
quiet, so a catcher that fires on everything proves nothing.
"""

import pytest

import cfcalc
import cfcalc.calculus
import cfcalc.cli
from cfcalc import (
    ConstructibleFunction,
    build_complex,
    build_model,
    complement_open,
    indicator,
    parse_scene,
    simplicial_map,
    subcomplex,
)
from test_calculus import non_simplex_keys
from test_golden import CASES, GOLDEN, _run
from test_oracles import reference_pushforward, values

MODULES = (
    cfcalc, cfcalc.calculus, cfcalc.complexes, cfcalc.indices, cfcalc.scenes, cfcalc.cli
)


def twist(phi):
    """phi times (-1)^dim, simplex by simplex."""
    return ConstructibleFunction(phi.ambient, {s: -v if s.dim % 2 else v for s, v in phi.items})


def keep(phi, wanted):
    """phi with the values at simplices failing `wanted` set to zero."""
    return ConstructibleFunction(phi.ambient, {s: v for s, v in phi.items if wanted(s)})


def function_fault(name, make):
    """Replace the cfcalc function <name>, from calculus or complexes, by
    make(original) wherever it was imported."""
    def plant(monkeypatch):
        original = getattr(cfcalc, name)
        fake = make(original)
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, fake)
    return plant


def restrict_drops_top(restrict):
    def faulty(phi, closed):
        plain = restrict(phi, closed)
        return keep(plain, lambda s: s.dim < plain.ambient.dim)
    return faulty


def restrict_keeps_parent(restrict):
    """A restrict that keeps the right values but leaves them on the parent."""
    def faulty(phi, closed):
        return ConstructibleFunction(phi.ambient, dict(restrict(phi, closed).items))
    return faulty


def restrict_leaks_tuples(restrict):
    """A restrict with the right values, keyed by plain vertex tuples: they
    equal the simplices, so every equality-based check passes."""
    def faulty(phi, closed):
        plain = restrict(phi, closed)
        items = tuple([(tuple(s), v) for s, v in plain.items])
        return ConstructibleFunction._of(plain.ambient, items)
    return faulty


def pushforward_overwrites(_):
    """A pushforward that stores each fibre term instead of adding it."""
    def faulty(f, phi):
        order, position = f.target.ordered(), f.target.position()
        acc = [0] * len(order)
        for s, v in phi.items:
            t = f.image_vertices(s.vertices)
            acc[position[t]] = -v if (len(s.vertices) - len(t)) % 2 else v
        return ConstructibleFunction(f.target, dict(zip(order, acc)))
    return faulty


def triangle_moves_one(decompose):
    """The terms with the constant 1 moved from the costalk to the boundary:
    their sum, and so the triangle identity, is unchanged."""
    def faulty(closed, phi):
        costalk, boundary = decompose(closed, phi)
        one = indicator(costalk.ambient)
        return costalk - one, boundary + one
    return faulty


def star_fault(change):
    """The calculus's star table, wherever it was imported, has each group
    (even, odd, faces) of the simplices outside M replaced by
    change(group, own), own being the position in M's order of the group's
    trace, None when the trace is not a simplex of M."""
    def plant(monkeypatch):
        build = cfcalc.calculus._open_star

        def faulty(closed):
            order, position, groups = build(closed)
            own, in_m = closed.as_complex().position().get, closed.vertices.__contains__
            traces = [tuple(filter(in_m, order[(even + odd)[0]])) for even, odd, _ in groups]
            return order, position, [change(g, own(w)) for g, w in zip(groups, traces)]

        for module in MODULES:
            if getattr(module, "_open_star", None) is build:
                monkeypatch.setattr(module, "_open_star", faulty)
    return plant


# --- catchers: each takes a `plant` callback and reports whether it fired ---


def verify_row(model, check):
    def catch(plant):
        # a freshly parsed scene keeps no table that an earlier test built
        scene = parse_scene(build_model(model).canonical_text)
        plant()
        report = scene.verify()
        return any(
            e.status == "fail" and e.check.split("[")[0] == check for e in report.entries
        )
    return catch


def pushforward_oracle(plant):
    """test_pushforward_is_the_signed_fibre_sum, on a map that collapses edges."""
    space = build_complex([["a", "b", "c"], ["c", "d"]])
    f = simplicial_map(
        space, build_complex([["p", "q"]]), {"a": "p", "b": "p", "c": "q", "d": "q"}
    )
    phi = ConstructibleFunction(space, {s: 1 for s in space.simplices})
    plant()
    return values(cfcalc.calculus.pushforward(f, phi)) != reference_pushforward(f, phi)


def open_pushforward_oracle(plant):
    """test_open_pushforward_interval: the open edge of an interval, pushed
    forward over its endpoints, is the constant 1."""
    interval = build_complex([["p", "q"]])
    u = complement_open(interval, subcomplex(interval, [["p"], ["q"]]))
    psi = ConstructibleFunction(interval, {("p", "q"): 1})
    plant()
    return cfcalc.calculus.open_pushforward(u, psi) != indicator(interval)


def simplex_keys(plant):
    """test_operators_key_by_simplex_only, on a triangle with a tail, an
    edge and a vertex of it, and a map onto an edge."""
    space = build_complex([["a", "b", "c"], ["c", "d"]])
    closed = subcomplex(space, [["a", "b"], ["d"]])
    f = simplicial_map(
        space, build_complex([["p", "q"]]), {"a": "p", "b": "p", "c": "q", "d": "q"}
    )
    phi = ConstructibleFunction(space, {s: 1 for s in space.simplices})
    psi = indicator(f.target)
    plant()
    return non_simplex_keys(space, phi, closed, f, psi) != []


def golden(name):
    argv = dict(CASES)[name]

    def catch(plant):
        plant()
        return _run(argv)[1] != (GOLDEN / f"{name}.txt").read_bytes()
    return catch


# fault -> (plant, catcher); the pushforward sign is invisible to verify,
# which pushes only along maps that drop no dimension, a fibre sum that
# overwrites shows only where two simplices share an image (the quotient
# map of antipodal_cover), verify never calls restrict_open, a plain
# vertex tuple equals its Simplex, so keys of the wrong type pass every
# check that compares values, and the costalk is built as the restriction
# minus the boundary, so triangle_identity sees no fault of dual or the star
FAULTS = {
    "dual_drops_own_term": (
        function_fault("dual", lambda dual: lambda phi: dual(phi) - twist(phi)),
        golden("pair_C_R_k3.dual"),
    ),
    "dual_drops_sign": (
        function_fault("dual", lambda dual: lambda phi: dual(twist(phi))),
        verify_row("pair_C_R", "shriek_indicator"),
    ),
    "pushforward_drops_sign": (
        function_fault(
            "pushforward", lambda push: lambda f, phi: twist(push(f, twist(phi)))
        ),
        pushforward_oracle,
    ),
    "pushforward_overwrites_fibre_sums": (
        function_fault("pushforward", pushforward_overwrites),
        verify_row("antipodal_cover", "covering_parity"),
    ),
    "is_strongly_free_never": (
        function_fault("is_strongly_free", lambda _: lambda tau: False),
        verify_row("antipodal_cover", "declared_checks"),
    ),
    "triangle_moves_one_to_boundary": (
        function_fault("triangle_decompose", triangle_moves_one),
        verify_row("pair_C_R", "boundary_parity"),
    ),
    "pullback_drops_edges": (
        function_fault(
            "pullback", lambda pull: lambda f, psi: keep(pull(f, psi), lambda s: s.dim != 1)
        ),
        verify_row("pair_C_R", "conjugation_invariance"),
    ),
    "restrict_drops_top_simplices": (
        function_fault("restrict", restrict_drops_top),
        verify_row("node_curve", "triangle_identity"),
    ),
    "restrict_keeps_parent": (
        function_fault("restrict", restrict_keeps_parent),
        verify_row("pair_C_R", "triangle_identity"),
    ),
    "restrict_leaks_tuples": (
        function_fault("restrict", restrict_leaks_tuples),
        simplex_keys,
    ),
    "restrict_open_keeps_everything": (
        function_fault("restrict_open", lambda _: lambda phi, opensub: phi),
        open_pushforward_oracle,
    ),
    "star_table_drops_outside": (
        star_fault(lambda group, _: ([], [], group[2])),
        verify_row("pair_C_R", "dimension_formula"),
    ),
    "star_table_swaps_parity": (
        star_fault(lambda group, _: (group[1], group[0], group[2])),
        verify_row("smooth_line_in_C2", "shriek_indicator"),
    ),
    "indicator_drops_vertices": (
        function_fault(
            "indicator", lambda indicator: lambda region: keep(
                indicator(region), lambda s: s.dim > 0
            )
        ),
        verify_row("smooth_line_in_C2", "shriek_indicator"),
    ),
    "star_table_without_self": (
        star_fault(lambda group, own: (group[0], group[1], [j for j in group[2] if j != own])),
        verify_row("kashiwara_point", "value"),
    ),
    "mod2_reduce_unreduced": (
        function_fault("mod2_reduce", lambda _: lambda phi: phi),
        golden("node_curve_k3.parity_all_json"),
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_fault_is_caught(fault, monkeypatch):
    plant, catch = FAULTS[fault]
    assert catch(lambda: plant(monkeypatch))


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_catcher_is_quiet_on_the_healthy_kernel(fault):
    _, catch = FAULTS[fault]
    assert not catch(lambda: None)
