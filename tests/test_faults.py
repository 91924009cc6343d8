"""Planted kernel faults, each caught by a named tier-1 check.

Every entry of FAULTS swaps one kernel piece for a wrong version and names
the check that must notice it: a failing verify row on a built-in model,
an oracle of tests/test_oracles.py or tests/test_calculus.py, a test of
tests/test_exhaustive.py, tests/test_scenes.py, tests/test_cli.py,
tests/test_indices.py or tests/test_locality.py, or a golden output of
tests/test_golden.py.  A fault on a function is planted in every cfcalc
module that imported the name, so callers inside the package see it too.
Each catcher is also run on the healthy kernel, where it must stay quiet,
so a catcher that fires on everything proves nothing.
"""

import json
from functools import partial

import pytest

import cfcalc
import cfcalc.calculus
import cfcalc.cli
import cfcalc.indices
from cfcalc import (
    ConstructibleFunction,
    ModelError,
    build_complex,
    build_model,
    complement_open,
    indicator,
    parse_scene,
    simplicial_map,
    subcomplex,
)
import test_cli
import test_exhaustive
import test_indices
import test_locality
import test_oracles
import test_scenes
from test_golden import CASES, GOLDEN, _run
from test_oracles import reference_pushforward, values

MODULES = (
    cfcalc, cfcalc.calculus, cfcalc.complexes, cfcalc.indices, cfcalc.scenes, cfcalc.cli
)


def twist(phi):
    """phi times (-1)^dim, simplex by simplex."""
    return ConstructibleFunction(phi.ambient, {s: v if len(s) % 2 else -v for s, v in phi.items})


def keep(phi, wanted):
    """phi with the values at simplices failing `wanted` set to zero."""
    return ConstructibleFunction(phi.ambient, {s: v for s, v in phi.items if wanted(s)})


def function_fault(name, make, home=cfcalc):
    """Replace the cfcalc function <name>, from calculus or complexes (or a
    private one from its home module), by make(original) wherever it was
    imported."""
    def plant(monkeypatch):
        original = getattr(home, name)
        fake = make(original)
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, fake)
    return plant


def restrict_drops_top(restrict):
    def faulty(phi, closed):
        plain = restrict(phi, closed)
        return keep(plain, lambda s: len(s) - 1 < plain.ambient.dim)
    return faulty


def restrict_keeps_parent(restrict):
    """A restrict that keeps the right values but leaves them on the parent."""
    def faulty(phi, closed):
        return ConstructibleFunction(phi.ambient, dict(restrict(phi, closed).items))
    return faulty


def pushforward_overwrites(_):
    """A pushforward that stores each fibre term instead of adding it."""
    def faulty(f, phi):
        images = cfcalc.complexes._images(f._vertex_table(), [s for s, _ in phi.items])
        acc = {}
        for (s, v), t in zip(phi.items, images):
            acc[t] = -v if (len(s) - len(t)) % 2 else v
        return ConstructibleFunction(f.target, acc)
    return faulty


def dual_over_ambient_set(dual):
    """A dual that first builds one set over its ambient's simplices, as the
    deleted drop table did."""
    def faulty(phi):
        set(phi.ambient.simplices)
        return dual(phi)
    return faulty


def pushforward_dense(_):
    """The dense pushforward: an accumulator over the target's canonical
    order, found through a map from each simplex to its place."""
    def faulty(f, phi):
        order = f.target.ordered()
        position = {s: i for i, s in enumerate(order)}
        images = cfcalc.complexes._images(f._vertex_table(), [s for s, _ in phi.items])
        acc = [0] * len(order)
        for (s, v), t in zip(phi.items, images):
            acc[position[t]] += -v if (len(s) - len(t)) % 2 else v
        return ConstructibleFunction(f.target, dict(zip(order, acc)))
    return faulty


def images_keep_repeats(_):
    """The image helper without the set: a simplex the map collapses keeps
    its repeated vertices."""
    return lambda table, simplices: [tuple(sorted(map(table.__getitem__, s))) for s in simplices]


def triangle_moves_one(decompose):
    """The terms with the constant 1 moved from the costalk to the boundary:
    their sum, and so the triangle identity, is unchanged."""
    def faulty(closed, phi):
        costalk, boundary = decompose(closed, phi)
        one = indicator(costalk.ambient)
        return costalk - one, boundary + one
    return faulty


def runs_fault(change):
    """verify's run table with each run (run, trace), the slice of a draw
    holding the star simplices outside M with that trace and the trace,
    replaced by change(run, trace)."""
    def plant(monkeypatch):
        build = cfcalc.indices._star_runs
        monkeypatch.setattr(
            cfcalc.indices, "_star_runs", lambda closed: [change(*run) for run in build(closed)]
        )
    return plant


def split_sums_fault(change):
    """The star split, wherever it was imported, with each pair (w, v) of a
    trace and its sum replaced by change(w, v)."""
    def plant(monkeypatch):
        split = cfcalc.calculus._split_star

        def faulty(closed, on_m, sums):
            return split(closed, on_m, [change(w, v) for w, v in sums])

        for module in MODULES:
            if getattr(module, "_split_star", None) is split:
                monkeypatch.setattr(module, "_split_star", faulty)
    return plant


def draw_sums_keep_offset(monkeypatch):
    """verify's draw with its offset taken as 0 where the runs are summed:
    each trace's sum keeps 3 per byte of its run."""
    monkeypatch.setattr(cfcalc.indices, "_DRAW_OFFSET", 0)


def bulk_reader_skips_order(monkeypatch):
    """The bulk simplex reader without its order check: no pair of names
    counts as out of order, so a name list is taken as given."""
    monkeypatch.setattr(cfcalc.scenes, "ge", lambda a, b: False)


def write_without_fallback(write):
    """The writer's per-list join with no fallback: a list whose items are
    not all strings raises the TypeError that quote raises."""
    def faulty(value, quote=cfcalc.scenes._quote, newline="\n"):
        if value.__class__ is list and value:
            inner = newline + "  "
            return "[" + inner + ("," + inner).join(map(quote, value)) + newline + "]"
        return write(value, quote, newline)
    return faulty


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


def text_as_str(module):
    """The module's simplex text helper replaced by str(), which writes a
    computed simplex, a plain tuple, as its repr."""
    return lambda monkeypatch: monkeypatch.setattr(module, "_text", str)


def writer_oracle(plant):
    """test_writer_joins_name_lists_as_json_dumps_writes_them, on a name
    list holding an integer."""
    doc = {"at": ["a", 7]}
    plant()
    try:
        return cfcalc.scenes._write(doc) != json.dumps(doc, indent=2, sort_keys=True)
    except TypeError:
        return True


def failing(test):
    """A test function, run on the planted kernel: it fires when the test
    fails an assertion or the kernel refuses an input the test gives it."""
    def catch(plant):
        plant()
        try:
            test()
        except (AssertionError, ModelError):
            return True
        return False
    return catch


def first_mismatch_named(plant):
    """TestFirstMismatch's test that the first difference is named as the
    text "b0 c"."""
    case = test_indices.TestFirstMismatch()
    case.setup_method()
    return failing(case.test_the_first_difference_in_canonical_order_is_reported)(plant)


def golden(name):
    argv = dict(CASES)[name]

    def catch(plant):
        plant()
        return _run(argv)[1] != (GOLDEN / f"{name}.txt").read_bytes()
    return catch


# fault -> (plant, catcher); the pushforward sign is invisible to verify,
# which pushes only along maps that drop no dimension, a fibre sum that
# overwrites shows only where two simplices share an image (the quotient
# map of antipodal_cover), verify never calls restrict_open, a simplex
# written by str() prints only where a computed simplex is printed, in
# the CLI's tables and refusals or in a failed row's message, the costalk is built as the restriction
# minus the boundary, so triangle_identity sees no fault of dual or the
# split, verify reaches dual only where a trace with a nonzero sum is no
# simplex of the real form, which no built-in model has, a dual kept on
# its input's support shows only where that support is not face-closed,
# as on the indicator of one simplex, and an image that keeps
# repeated vertices makes a map that collapses a simplex refuse itself, as
# the fold of the triangle in the exhaustive map test does; verify's
# random rows see no fault of a trace's sum, as costalk + boundary is phi
# on M + h - h whatever h is, and only they read the run table and the
# offset, so the draw oracles catch those plants; a table sized by the
# ambient or the target gives every value right, so only the peak
# allocation of tests/test_locality.py sees it
FAULTS = {
    "dual_drops_own_term": (
        function_fault("dual", lambda dual: lambda phi: dual(phi) - twist(phi)),
        golden("pair_C_R_k3.dual"),
    ),
    "dual_drops_sign": (
        function_fault("dual", lambda dual: lambda phi: dual(twist(phi))),
        golden("pair_C_R_k3.dual_all"),
    ),
    "dual_sums_over_support_only": (
        # the faces that the passes add to the support get no value
        function_fault(
            "dual", lambda dual: lambda phi: keep(dual(phi), phi._lookup().__contains__)
        ),
        failing(test_exhaustive.test_dual_on_every_complex),
    ),
    "dual_builds_ambient_set": (
        function_fault("dual", dual_over_ambient_set),
        failing(partial(test_locality.test_peak_allocation_does_not_grow_with_the_far_part, "dual")),
    ),
    "pushforward_dense_over_target": (
        function_fault("pushforward", pushforward_dense),
        failing(partial(
            test_locality.test_peak_allocation_does_not_grow_with_the_far_part, "pushforward"
        )),
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
    "image_keeps_repeats": (
        function_fault("_images", images_keep_repeats, cfcalc.complexes),
        failing(test_exhaustive.test_pushforward_and_pullback_along_every_map_to_the_triangle),
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
            "pullback", lambda pull: lambda f, psi: keep(pull(f, psi), lambda s: len(s) != 2)
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
    "restrict_open_keeps_everything": (
        function_fault("restrict_open", lambda _: lambda phi, opensub: phi),
        open_pushforward_oracle,
    ),
    "star_table_drops_outside": (
        # each trace's run of the draw is empty, so its sum is 0
        runs_fault(lambda run, w: (slice(run.stop, run.stop), w)),
        failing(partial(test_oracles.assert_verify_splits_the_draws, "node_curve", 0)),
    ),
    "star_values_unsigned": (
        # each trace's sum comes out negated
        split_sums_fault(lambda w, v: (w, -v)),
        verify_row("smooth_line_in_C2", "shriek_indicator"),
    ),
    "star_sums_ignore_offset": (
        draw_sums_keep_offset,
        failing(partial(test_oracles.test_verify_run_sums_are_the_signed_sums_of_its_draw,
                        "node_curve", 0)),
    ),
    "indicator_drops_vertices": (
        function_fault(
            "indicator", lambda indicator: lambda region: keep(
                indicator(region), lambda s: len(s) > 1
            )
        ),
        verify_row("smooth_line_in_C2", "shriek_indicator"),
    ),
    "star_table_without_self": (
        # each trace's sum lands on the trace's first vertex, not on itself
        runs_fault(lambda run, w: (run, w[:1])),
        failing(partial(test_oracles.assert_verify_splits_the_draws, "node_curve", 0)),
    ),
    "bulk_reader_skips_order": (
        bulk_reader_skips_order,
        failing(partial(test_scenes.test_simplex_lists_read_in_bulk_as_one_by_one, "duplicate", 2)),
    ),
    "writer_without_fallback": (
        function_fault("_write", write_without_fallback, cfcalc.scenes),
        writer_oracle,
    ),
    "table_text_as_str": (
        text_as_str(cfcalc.cli),
        failing(test_cli.test_no_simplex_is_printed_as_a_tuple),
    ),
    "mismatch_text_as_str": (
        text_as_str(cfcalc.indices),
        first_mismatch_named,
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
