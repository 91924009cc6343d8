import itertools
import types
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import cfcalc
import cfcalc.calculus
import cfcalc.indices
from cfcalc import (
    CharacteristicCycle,
    CheckResult,
    ConstructibleFunction,
    Expectations,
    ModelError,
    ModelParam,
    RealComplexPair,
    Scene,
    Stratum,
    Subcomplex,
    VerificationReport,
    build_complex,
    build_model,
    complement_open,
    euler_integral,
    list_models,
    hyperfunction_dimension,
    hyperfunction_index,
    indicator,
    involution,
    parity_index,
    parse_scene,
    pullback,
    simplex,
    smooth_stratum,
    solution_index,
    subcomplex,
    verify_scene,
)
from cfcalc._frozen import Frozen
from cfcalc.indices import _first_mismatch
from cfcalc.scenes import ModelInfo
from conftest import antipodal, diameter, disk, polygon, reflection


def count_components(sims) -> int:
    adjacency = defaultdict(set)
    vertices = set()
    for s in sims:
        vertices.update(s)
        for a in s:
            adjacency[a].update(v for v in s if v != a)
    seen: set = set()
    components = 0
    for v in sorted(vertices):
        if v in seen:
            continue
        components += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(adjacency[u] - seen)
    return components


def link_within(support, center):
    """Simplices of the support avoiding center but spanning a coface with it."""
    out = []
    for s in support.simplices:
        if set(center) & set(s):
            continue
        joined = tuple(sorted(set(s) | set(center)))
        if support.has(joined):
            out.append(s)
    return out


def one_variable_pair():
    d = disk(3)
    return RealComplexPair(
        ambient=d,
        real_form=diameter(d),
        complex_dim=1,
        conjugation=reflection(d),
        probes=(simplex("c"), simplex("b0", "c"), simplex("b3", "c")),
    )


class TestStratumValidation:
    def test_multiplicity_must_be_positive(self):
        d = disk(3)
        with pytest.raises(ModelError, match="multiplicity"):
            smooth_stratum("flat", Subcomplex(d, d.simplices), 0, 0)

    def test_disconnected_support_rejected(self):
        d = disk(3)
        two_points = subcomplex(d, [["b0"], ["b3"]])
        with pytest.raises(ModelError, match="disconnected"):
            smooth_stratum("pts", two_points, 1, 1)

    def test_eu_must_live_on_support(self):
        d = disk(3)
        origin = subcomplex(d, [["c"]])
        stray = indicator(d)
        with pytest.raises(ModelError, match="not supported"):
            Stratum("origin", origin, 1, 1, stray, smooth=False)

    def test_stray_eu_names_its_first_stray_simplex(self):
        hexagon = polygon(6)
        with pytest.raises(ModelError) as err:
            Stratum("o", subcomplex(hexagon, [["b0"]]), 1, 1, indicator(hexagon), smooth=False)
        assert str(err.value) == (
            "stratum 'o': eu is not supported on the support (value at b0 b1)"
        )

    def test_smooth_forces_unit_eu(self):
        d = disk(3)
        origin = subcomplex(d, [["c"]])
        doubled = ConstructibleFunction(d, {simplex("c"): 2})
        with pytest.raises(ModelError, match="smooth"):
            Stratum("origin", origin, 1, 1, doubled, smooth=True)

    def test_empty_support_rejected(self):
        d = disk(3)
        with pytest.raises(ModelError, match="empty"):
            smooth_stratum("nothing", subcomplex(d, []), 1, 1)


class TestCycleAndPair:
    def test_duplicate_names_rejected(self):
        d = disk(3)
        st1 = smooth_stratum("flat", Subcomplex(d, d.simplices), 0, 1)
        st2 = smooth_stratum("flat", subcomplex(d, [["c"]]), 1, 1)
        with pytest.raises(ModelError, match="names"):
            CharacteristicCycle([st1, st2])

    def test_duplicate_supports_rejected(self):
        d = disk(3)
        st1 = smooth_stratum("one", Subcomplex(d, d.simplices), 0, 1)
        st2 = smooth_stratum("two", Subcomplex(d, d.simplices), 0, 2)
        with pytest.raises(ModelError, match="supports"):
            CharacteristicCycle([st1, st2])

    def test_strata_on_two_complexes_rejected(self):
        left, right = disk(3), polygon(4, prefix="p")
        st1 = smooth_stratum("disk", Subcomplex(left, left.simplices), 0, 1)
        st2 = smooth_stratum("circle", Subcomplex(right, right.simplices), 0, 1)
        with pytest.raises(ModelError, match="different ambient complexes"):
            CharacteristicCycle([st1, st2])

    def test_conjugation_fixed_set_must_match(self):
        d = disk(3)
        wrong = subcomplex(d, [["c"]])
        with pytest.raises(ModelError, match="fixed point set"):
            RealComplexPair(d, wrong, 1, reflection(d))

    def test_probe_must_lie_in_real_form(self):
        d = disk(3)
        with pytest.raises(ModelError, match="probe"):
            RealComplexPair(d, diameter(d), 1, None, (simplex("b1"),))


class TestIndexFormulas:
    def test_solution_index_one_variable(self):
        pair = one_variable_pair()
        origin = smooth_stratum("origin", subcomplex(pair.ambient, [["c"]]), 1, 2)
        flat = smooth_stratum("flat", Subcomplex(pair.ambient, pair.ambient.simplices), 0, 3)
        cycle = CharacteristicCycle([origin, flat])
        sol = solution_index(cycle, pair.ambient)
        assert sol.value("c") == 3 - 2  # codim signs: +flat, -origin
        assert sol.value(["b1", "c"]) == 3

    def test_cancelling_strata_store_no_zero(self):
        pair = one_variable_pair()
        origin = smooth_stratum("origin", subcomplex(pair.ambient, [["c"]]), 1, 3)
        flat = smooth_stratum("flat", Subcomplex(pair.ambient, pair.ambient.simplices), 0, 3)
        sol = solution_index(CharacteristicCycle([origin, flat]), pair.ambient)
        assert sol.value("c") == 0 and simplex("c") not in sol.support
        assert sol == 3 * indicator(pair.ambient) - 3 * indicator(origin.support)

    def test_hyperfunction_index_one_variable(self):
        pair = one_variable_pair()
        origin = smooth_stratum("origin", subcomplex(pair.ambient, [["c"]]), 1, 2)
        flat = smooth_stratum("flat", Subcomplex(pair.ambient, pair.ambient.simplices), 0, 3)
        hyper = hyperfunction_index(pair, CharacteristicCycle([origin, flat]))
        assert hyper.value("c") == 5
        assert hyper.value(["b0", "c"]) == 3
        assert hyper.value(["b3", "c"]) == 3

    def test_dimension_matches_index_when_smooth(self):
        pair = one_variable_pair()
        origin = smooth_stratum("origin", subcomplex(pair.ambient, [["c"]]), 1, 2)
        flat = smooth_stratum("flat", Subcomplex(pair.ambient, pair.ambient.simplices), 0, 3)
        cycle = CharacteristicCycle([origin, flat])
        dim = hyperfunction_dimension(pair, cycle)
        hyper = hyperfunction_index(pair, cycle)
        for p in pair.probes:
            assert dim.value(p) == hyper.value(p)
        assert all(v >= 0 for _, v in dim.items)

    def test_dimension_refuses_singular_strata(self):
        scene = build_model("node_curve")
        with pytest.raises(ModelError, match="node"):
            hyperfunction_dimension(scene.pair, scene.cycle)

    def test_parity_index_node(self):
        scene = build_model("node_curve")
        parity = parity_index(scene.pair, scene.cycle)
        assert parity.value(["c.c"]) == 0  # eu = 2 at the crossing
        assert parity.value(["b0.c", "c.c"]) == 1

    def test_node_center_doubles(self):
        scene = build_model("node_curve", m=2)
        hyper = hyperfunction_index(scene.pair, scene.cycle)
        assert hyper.value(["c.c"]) == 4
        assert hyper.value(["b0.c", "c.c"]) == 2
        assert hyper.value(["b0.b0", "b0.c", "c.c"]) == 0

    def test_linearity_in_cycles(self):
        pair = one_variable_pair()
        origin = smooth_stratum("origin", subcomplex(pair.ambient, [["c"]]), 1, 2)
        flat = smooth_stratum("flat", Subcomplex(pair.ambient, pair.ambient.simplices), 0, 3)
        both = CharacteristicCycle([origin, flat])
        only_origin = CharacteristicCycle([origin])
        only_flat = CharacteristicCycle([flat])
        for op in (
            lambda cc: solution_index(cc, pair.ambient),
            lambda cc: hyperfunction_index(pair, cc),
            lambda cc: hyperfunction_dimension(pair, cc),
        ):
            assert op(both) == op(only_origin) + op(only_flat)
        scaled = CharacteristicCycle(
            [smooth_stratum("origin", subcomplex(pair.ambient, [["c"]]), 1, 6)]
        )
        assert solution_index(scaled, pair.ambient) == 3 * solution_index(
            only_origin, pair.ambient
        )


class TestBranchCountOracle:
    def test_node_link_has_two_circles(self):
        """The eu override at the crossing is the branch count of the link."""
        scene = build_model("node_curve")
        support = scene.subcomplex("node")
        link = link_within(support, simplex("c.c"))
        assert count_components(link) == 2
        (stratum,) = scene.cycle
        assert stratum.eu.value(["c.c"]) == 2

    def test_smooth_line_link_is_one_circle(self):
        scene = build_model("smooth_line_in_C2")
        support = scene.subcomplex("complex_line")
        link = link_within(support, simplex("c.c"))
        assert count_components(link) == 1


class TestVerifyScene:
    def test_every_model_passes(self):
        for name in (
            "kashiwara_point", "pair_C_R", "smooth_line_in_C2",
            "node_curve", "antipodal_cover",
        ):
            report = build_model(name).verify()
            assert report.passed, report.to_text()

    def test_node_dimension_reported_not_applicable(self):
        report = build_model("node_curve").verify()
        entries = [e for e in report.entries if e.check == "dimension_formula"]
        assert entries and all(e.status == "not_applicable" for e in entries)
        assert "singular" in entries[0].note

    def test_failing_expectation_shows_values(self):
        scene = build_model("kashiwara_point")
        wrong = Expectations(hyperfunction_index=((simplex("c"), 99),))
        report = verify_scene(scene.pair, scene.cycle, wrong, name="tampered")
        assert not report.passed
        (entry,) = [e for e in report.entries if e.status == "fail"]
        assert entry.check == "value[hyperfunction_index]"
        assert entry.expected == "99" and entry.computed == "5"

    def test_expected_values_are_keyed_by_simplex(self):
        # an unsorted vertex tuple names the same simplex, in the check, the
        # row and the message
        scene = build_model("pair_C_R")
        edge = simplex("b0", "c")
        functions = (
            hyperfunction_index(scene.pair, scene.cycle),
            hyperfunction_dimension(scene.pair, scene.cycle),
            parity_index(scene.pair, scene.cycle),
        )
        declared = Expectations(*[((("c", "b0"), phi.value(edge)),) for phi in functions])
        report = verify_scene(scene.pair, scene.cycle, declared)
        rows = [e for e in report.entries if e.check.startswith("value[")]
        assert [(e.subject, e.status) for e in rows] == [("b0 c", "pass")] * 3
        off = Expectations(parity_index=((("c", "b1"), 0),))
        with pytest.raises(ModelError, match="^parity_index is declared at b1 c, which is not"):
            verify_scene(scene.pair, scene.cycle, off)

    def test_declaring_inapplicable_check_fails(self):
        scene = build_model("kashiwara_point")
        bold = Expectations(checks=("covering_parity",))
        report = verify_scene(scene.pair, scene.cycle, bold)
        declared = [e for e in report.entries if e.check == "declared_checks"]
        assert len(declared) == 1 and declared[0].status == "fail"

    def test_seed_changes_random_subjects_not_verdict(self):
        scene = build_model("pair_C_R")
        for seed in (0, 1, 99):
            assert scene.verify(seed=seed).passed

    def test_a_second_verify_runs_only_the_seeded_rows(self, monkeypatch):
        # the scene keeps its seed-independent rows, so a second verify
        # splits the three drawn functions and computes nothing else
        scene = build_model("node_curve", k=3)
        scene.verify(seed=0)
        calls = defaultdict(int)

        def spy(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        for module in (cfcalc.calculus, cfcalc.indices):
            for name in (
                "_split_star", "triangle_decompose", "shriek_restrict", "solution_index",
                "pushforward",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        assert scene.verify(seed=1).passed
        assert calls == {"_split_star": 3}

    def test_the_real_form_keeps_one_run_per_trace_and_no_star(self, monkeypatch):
        # node_curve(k=6): M has 33 simplices and its open star 4,401; after
        # a verify M keeps its own complex and, for the draws, one run per
        # trace, and nothing with a place per star simplex
        scene = build_model("node_curve", k=6)
        assert scene.verify().passed
        m = scene.pair.real_form
        kept = {key: v for key, v in vars(m).items() if key not in ("parent", "simplices")}
        assert set(kept) == {"_space", "__star_runs"}
        assert len(kept["_space"]) == 33
        runs = kept["__star_runs"]
        assert len(runs) == 33 and runs[-1][0].stop == 4401
        # the calculus on a fresh scene never builds the run table
        fresh = parse_scene(scene.canonical_text)
        calls, build = [], cfcalc.indices._star_runs
        for module in (cfcalc.calculus, cfcalc.indices):
            monkeypatch.setattr(
                module, "_star_runs", lambda closed: calls.append(closed) or build(closed),
                raising=False,
            )
        cfcalc.calculus.triangle_decompose(
            fresh.pair.real_form, solution_index(fresh.cycle, fresh.ambient)
        )
        hyperfunction_index(fresh.pair, fresh.cycle)
        assert calls == [] and "__star_runs" not in vars(fresh.pair.real_form)

    @pytest.mark.parametrize("name", [info.name for info in list_models()])
    def test_verify_and_the_dimension_formula_leave_strata_as_made(self, name):
        # each real trace is computed where it is read, and none is kept
        scene = build_model(name, k=3)
        scene.verify()
        try:
            hyperfunction_dimension(scene.pair, scene.cycle)
        except ModelError:  # a singular stratum
            pass
        for st in scene.cycle:
            assert set(vars(st)) == set(Stratum._fields), st.name

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    @pytest.mark.parametrize("name", [info.name for info in list_models()])
    def test_a_scene_verified_twice_reports_as_verify_scene(self, name, seed):
        scene = build_model(name, k=3)
        scene.verify(seed=seed + 1)
        twice = scene.verify(seed=seed)
        fresh = parse_scene(scene.canonical_text)
        once = verify_scene(fresh.pair, fresh.cycle, fresh.expect, seed=seed, name=fresh.name)
        assert twice.to_text() == once.to_text()
        assert twice.to_json_obj() == once.to_json_obj()

    def test_covering_parity_reduces_a_nonzero_euler_integral(self):
        # the octahedron's boundary is a sphere, so its Euler integral is 2;
        # the antipodal map is strongly free, and its orbits of triangles
        # collapse to one vertex set, so the orbit row is not applicable
        axes = (("x", "X"), ("y", "Y"), ("z", "Z"))
        sphere = build_complex(itertools.product(*axes))
        antipode = involution(sphere, {a: b for pair in axes for a, b in (pair, pair[::-1])})
        pair = RealComplexPair(sphere, Subcomplex(sphere, []), 1, antipode)
        whole = Subcomplex(sphere, sphere.simplices)
        cycle = CharacteristicCycle([smooth_stratum("sphere", whole, 0, 1)])
        assert euler_integral(solution_index(cycle, sphere)) == 2
        rows = {
            e.subject: e for e in verify_scene(pair, cycle).entries if e.check == "covering_parity"
        }
        euler = rows["euler_integral"]
        assert (euler.expected, euler.computed, euler.status) == ("0 (mod 2)", "0 (mod 2)", "pass")
        assert rows["orbit_pushforward"].status == "not_applicable"

    def test_orbit_row_names_the_first_odd_orbit(self):
        # the half-turn of the hexagon folds the edge b0 b1 onto b3 b4, so
        # the orbits of b0, b1 and b0 b1 each carry the odd value 1
        hexagon = polygon(6)
        pair = RealComplexPair(hexagon, Subcomplex(hexagon, []), 1, antipodal(hexagon, 3))
        edge = smooth_stratum("edge", subcomplex(hexagon, [["b0", "b1"]]), 0, 1)
        (row,) = [
            e for e in verify_scene(pair, CharacteristicCycle([edge])).entries
            if e.subject == "orbit_pushforward"
        ]
        assert (row.check, row.computed, row.status) == (
            "covering_parity", "odd value at b0", "fail"
        )

    def test_report_renders(self):
        report = build_model("pair_C_R").verify()
        text = report.to_text()
        assert text.splitlines()[0] == "scene: pair_C_R(k=3, m=1)"
        assert "result: PASS" in text
        blob = report.to_json_obj()
        assert blob["passed"] is True
        assert blob["counts"]["fail"] == 0
        assert {e["check"] for e in blob["entries"]} >= {
            "triangle_identity", "parity_formula",
        }


# strata on disk(3) whose solution index the reflection does not keep
NOT_INVARIANT = {
    # one triangle, which the reflection moves onto another
    "support": lambda d: smooth_stratum("piece", subcomplex(d, [["b0", "b1", "c"]]), 0, 1),
    # the whole disk, an invariant support, with eu 2 at b1 but 1 at b5
    "eu": lambda d: Stratum(
        "disk", Subcomplex(d, d.simplices), 0, 1,
        indicator(d) + ConstructibleFunction(d, {("b1",): 1}), smooth=False,
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_INVARIANT))
def test_a_solution_index_the_conjugation_moves_is_not_invariant(case):
    pair = one_variable_pair()
    cycle = CharacteristicCycle([NOT_INVARIANT[case](pair.ambient)])
    sol = solution_index(cycle, pair.ambient)
    assert pullback(pair.conjugation.underlying, sol) != sol
    (row,) = [e for e in verify_scene(pair, cycle).entries if e.check == "conjugation_invariance"]
    assert (row.subject, row.expected, row.computed, row.status) == (
        "solution_index", "invariant", "not invariant", "fail"
    )


class TestFirstMismatch:
    """The comparison behind every triangle_identity and base_change row."""

    def setup_method(self):
        scene = build_model("pair_C_R")
        self.ambient, self.real_form = scene.ambient, scene.pair.real_form
        self.mc = scene.pair.real_complex()

    def test_equal_functions_are_exact(self):
        phi = ConstructibleFunction(self.mc, {("c",): 3, ("b0", "c"): -1})
        assert _first_mismatch(phi, ConstructibleFunction(self.mc, dict(phi.items))) == "exact"

    def test_the_first_difference_in_canonical_order_is_reported(self):
        left = ConstructibleFunction(self.mc, {("c",): 3, ("b3",): 4, ("b0", "c"): 1})
        right = ConstructibleFunction(self.mc, {("c",): 2, ("b3",): 4})
        assert _first_mismatch(left, right) == "mismatch at b0 c (1 vs 0)"
        assert _first_mismatch(right, left) == "mismatch at b0 c (0 vs 1)"

    def test_a_function_left_on_the_parent_fails(self):
        on_m = indicator(self.mc)
        on_parent = ConstructibleFunction(self.ambient, dict(on_m.items))
        assert _first_mismatch(on_parent, on_m) == (
            f"on different complexes ({len(self.ambient)} vs 5 simplices)"
        )

    def test_a_function_on_a_smaller_complex_fails(self):
        smaller = subcomplex(self.mc, [["b0", "c"]]).as_complex()
        assert _first_mismatch(indicator(smaller), indicator(self.mc)) == (
            "on different complexes (3 vs 5 simplices)"
        )


def value_objects():
    """One instance of each immutable value class, with a field to assign."""
    scene = build_model("pair_C_R")
    pair, stratum = scene.pair, scene.cycle.strata[0]
    report = scene.verify()
    info = list_models()[0]
    return [
        (scene, "name"),
        (scene.ambient, "simplices"),
        (pair.real_form, "parent"),
        (complement_open(scene.ambient, pair.real_form), "simplices"),
        (pair.conjugation, "underlying"),
        (pair.conjugation.underlying, "vertex_pairs"),
        (stratum.eu, "items"),
        (stratum, "multiplicity"),
        (scene.cycle, "strata"),
        (pair, "probes"),
        (scene.expect, "checks"),
        (report.entries[0], "status"),
        (report, "entries"),
        (info, "params"),
        (info.params[0], "maximum"),
    ]


class TestValueClasses:
    def test_every_value_class_is_frozen(self):
        objects = value_objects()
        assert len({type(obj) for obj, _ in objects}) == 15
        for obj, field in objects:
            before = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            with pytest.raises(AttributeError):
                obj.extra = 1
            assert getattr(obj, field) is before

    def test_equal_fields_give_equal_values(self):
        d = disk(3)
        origin = subcomplex(d, [["c"]])
        pairs = [
            (smooth_stratum("o", origin, 1, 2), smooth_stratum("o", origin, 1, 2)),
            (Expectations(checks=("parity_formula",)), Expectations(checks=("parity_formula",))),
            (CheckResult("c", "s", "1", "1", "pass"), CheckResult("c", "s", "1", "1", "pass")),
            (ModelParam("k", 3, 3, "size", 9), ModelParam("k", 3, 3, "size", 9)),
        ]
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
            assert a.__eq__(object()) is NotImplemented
        assert smooth_stratum("o", origin, 1, 2) != smooth_stratum("o", origin, 1, 3)
        assert Expectations() != Expectations(checks=("parity_formula",))
        assert CheckResult("c", "s", "1", "1", "pass") != CheckResult("c", "s", "1", "2", "fail")
        assert ModelParam("k", 3, 3, "size", 9) != ModelParam("k", 3, 3, "size", 10)

    def test_keyword_constructors_and_defaults(self):
        d = disk(3)
        origin = subcomplex(d, [["c"]])
        st = Stratum(name="o", support=origin, codim=1, multiplicity=2, eu=indicator(origin))
        assert (st.smooth, st.allow_empty_trace) == (True, False)
        pair = RealComplexPair(ambient=d, real_form=diameter(d), complex_dim=1)
        assert (pair.conjugation, pair.probes) == (None, ())
        param = ModelParam(name="k", default=3, minimum=3, meaning="size", maximum=9)
        row = CheckResult(check="c", subject="s", expected="", computed="", status="pass")
        assert repr(row) == (
            "CheckResult(check='c', subject='s', expected='', computed='', status='pass', note='')"
        )
        # each plain value class, values for its fields, and the fields it
        # may leave out, whose values here are their defaults
        cases = [
            (Scene, build_model("pair_C_R")._values(), ()),
            (ModelParam, param._values(), ()),
            (ModelInfo, ("m", "a model", (param,)), ()),
            (Expectations, ((), (), (), ()), Expectations._fields),
            (CheckResult, row._values(), ("note",)),
            (VerificationReport, ("s", (row,)), ()),
        ]
        for cls, values, optional in cases:
            assert "__init__" not in vars(cls) and cls.__init__ is Frozen.__init__
            fields = dict(zip(cls._fields, values, strict=True))
            made = cls(*values)
            assert made._values() == values
            required = {f: v for f, v in fields.items() if f not in optional}
            for again in (
                cls(**fields),
                cls(values[0], **dict(list(fields.items())[1:])),
                cls(**required),
            ):
                assert again == made and hash(again) == hash(made)
            name, first = cls.__name__, cls._fields[0]
            with pytest.raises(TypeError, match=f"^{name} has no field 'bogus'$"):
                cls(*values, bogus=1)
            with pytest.raises(TypeError, match=f"^{name} got field '{first}' twice$"):
                cls(*values, **{first: values[0]})
            with pytest.raises(TypeError, match=f"^{name} takes {len(values)} fields"):
                cls(*values, None)
            for field in required:
                with pytest.raises(TypeError, match=f"^{name} is missing field '{field}'$"):
                    cls(**{f: v for f, v in required.items() if f != field})


PARITY_MODELS = sorted(info.name for info in list_models())


@pytest.mark.parametrize("model", PARITY_MODELS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_parity_index_matches_the_unsigned_stratum_sum(model, data):
    """Parity from the definition: the unsigned sum of multiplicity times eu
    over the strata, on the real form, each value taken mod 2."""
    info = next(info for info in list_models() if info.name == model)
    params = {
        p.name: data.draw(st.integers(min_value=1, max_value=6), label=p.name)
        for p in info.params
        if p.name != "k"
    }
    scene = build_model(model, k=3, **params)
    parity = parity_index(scene.pair, scene.cycle)
    for s in scene.pair.real_form.simplices:
        expected = sum(stratum.multiplicity * stratum.eu.value(s) for stratum in scene.cycle) % 2
        assert parity.value(s) == expected


def test_all_names_every_public_attribute():
    public = {
        name for name, value in vars(cfcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(cfcalc.__all__)) == len(cfcalc.__all__)
    assert set(cfcalc.__all__) == public
