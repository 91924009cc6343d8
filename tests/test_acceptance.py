"""Acceptance suite.

One test per shipped guarantee, each printing a single
``ACCEPTANCE <n> <label>: PASS`` line (visible under ``pytest -s``) and
required to finish in under five seconds.  Every comparison is exact
integer equality.
"""

import time
from contextlib import contextmanager
from random import Random

import pytest

from cfcalc import (
    build_complex,
    build_model,
    complement_open,
    compose,
    dual,
    emit_scene,
    euler_integral,
    hyperfunction_dimension,
    hyperfunction_index,
    indicator,
    open_extend,
    parity_index,
    product,
    pushforward,
    restrict,
    restrict_open,
    shriek_restrict,
    simplex,
    simplicial_map,
    solution_index,
    subcomplex,
    triangle_decompose,
)
from cfcalc.cli import main as cli_main
from conftest import (
    polygon,
    random_cf,
    random_complex,
    random_free_involution,
    random_subcomplex,
)

SMOOTH_MODELS = ("kashiwara_point", "pair_C_R", "smooth_line_in_C2")


@contextmanager
def criterion(number: int, label: str):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_1_center_value():
    with criterion(1, "point module center value"):
        scene = build_model("kashiwara_point", d0=2, d1=3)
        center = simplex("c")
        hyper = hyperfunction_index(scene.pair, scene.cycle)
        dim = hyperfunction_dimension(scene.pair, scene.cycle)
        assert hyper.value(center) == 5
        assert dim.value(center) == 5
        for d0, d1 in ((1, 1), (0, 4), (7, 5)):
            s = build_model("kashiwara_point", d0=d0, d1=d1)
            assert hyperfunction_index(s.pair, s.cycle).value(center) == d0 + d1
            assert hyperfunction_dimension(s.pair, s.cycle).value(center) == d0 + d1


def test_2_dimension_formula():
    with criterion(2, "dimension formula on smooth scenes"):
        for name in SMOOTH_MODELS:
            scene = build_model(name)
            hyper = hyperfunction_index(scene.pair, scene.cycle)
            dim = hyperfunction_dimension(scene.pair, scene.cycle)
            assert scene.pair.probes
            for probe in scene.pair.probes:
                assert hyper.value(probe) == dim.value(probe), (name, probe)


def test_3_costalk_signs():
    with criterion(3, "costalk sign table"):
        # complex dim 1, codim 0: the whole one-fold
        scene = build_model("pair_C_R")
        table = shriek_restrict(scene.pair.real_form, indicator(scene.subcomplex("ambient")))
        for probe in scene.pair.probes:
            assert table.value(probe) == -1

        # complex dim 1, codim 1: a point in the one-fold
        scene = build_model("kashiwara_point")
        table = shriek_restrict(scene.pair.real_form, indicator(scene.subcomplex("origin")))
        assert table.value("c") == 1
        assert table.value(["b0", "c"]) == 0
        assert table.value(["b3", "c"]) == 0

        # complex dim 2, codim 1: a line in the staircase product four-fold
        scene = build_model("smooth_line_in_C2")
        line = scene.subcomplex("complex_line")
        table = shriek_restrict(scene.pair.real_form, indicator(line))
        axis = line.intersection(scene.pair.real_form)
        on_axis = [p for p in scene.pair.probes if axis.has(p)]
        off_axis = [p for p in scene.pair.probes if not axis.has(p)]
        assert len(on_axis) == 3 and len(off_axis) == 3
        assert all(table.value(p) == -1 for p in on_axis)
        assert all(table.value(p) == 0 for p in off_axis)

        # complex dim 2, codim 2: a point in the same four-fold
        origin = subcomplex(scene.ambient, [["c.c"]])
        table = shriek_restrict(scene.pair.real_form, indicator(origin))
        crossing = simplex("c.c")
        assert table.value(crossing) == 1
        assert all(table.value(p) == 0 for p in scene.pair.probes if p != crossing)


def test_4_node_parity():
    with criterion(4, "node curve parity"):
        crossing = simplex("c.c")
        for m in (1, 3):
            scene = build_model("node_curve", m=m)
            hyper = hyperfunction_index(scene.pair, scene.cycle)
            parity = parity_index(scene.pair, scene.cycle)
            for probe in scene.pair.probes:
                assert hyper.value(probe) % 2 == parity.value(probe), (m, probe)
            assert hyper.value(crossing) == 2 * m
            assert hyper.value(crossing) % 2 == 0
            assert parity.value(crossing) == 0


def test_5_duality_involution():
    with criterion(5, "duality is an involution"):
        rng = Random(20260816)
        for _ in range(220):
            space = random_complex(rng, max_vertices=8, max_dim=3)
            phi = random_cf(rng, space)
            assert dual(dual(phi)) == phi


def test_6_triangle_identity():
    with criterion(6, "stalk costalk boundary triangle"):
        rng = Random(64)
        for _ in range(120):
            space = random_complex(rng)
            closed = random_subcomplex(rng, space)
            phi = random_cf(rng, space)
            costalk, boundary = triangle_decompose(closed, phi)
            assert costalk + boundary == restrict(phi, closed)
        for name in SMOOTH_MODELS + ("node_curve", "antipodal_cover"):
            scene = build_model(name)
            phi = solution_index(scene.cycle, scene.ambient)
            for closed in (scene.pair.real_form, *(st.support for st in scene.cycle)):
                costalk, boundary = triangle_decompose(closed, phi)
                assert costalk + boundary == restrict(phi, closed), name


def test_7_covering_parity():
    with criterion(7, "double cover parity"):
        rng = Random(7)
        for _ in range(110):
            tau, invariant = random_free_involution(rng)
            total = euler_integral(invariant)
            assert total % 2 == 0, total
        for name in ("kashiwara_point", "pair_C_R"):
            scene = build_model(name)
            assert scene.pair.conjugation is not None
            phi = solution_index(scene.cycle, scene.ambient)
            _, boundary = triangle_decompose(scene.pair.real_form, phi)
            for probe in scene.pair.probes:
                assert boundary.value(probe) % 2 == 0, (name, probe)


def test_8_calculus_sanity():
    with criterion(8, "integral and pushforward sanity"):
        tetra = build_complex([["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]])
        assert euler_integral(indicator(tetra)) == 2
        assert euler_integral(indicator(polygon(5))) == 0

        interval = build_complex([["a", "b"]])
        ends = subcomplex(interval, [["a"], ["b"]])
        inside = complement_open(interval, ends)
        one_on_edge = open_extend(inside, restrict_open(indicator(interval), inside))
        assert euler_integral(one_on_edge) == -1

        rng = Random(8)
        for _ in range(55):
            left = random_complex(rng, max_vertices=5, max_dim=2)
            right = random_complex(rng, max_vertices=5, max_dim=2)
            lorder = sorted(left.vertices)
            rorder = sorted(right.vertices)
            rng.shuffle(lorder)
            rng.shuffle(rorder)
            space, _, _ = product(left, right, left_order=lorder, right_order=rorder)
            assert euler_integral(indicator(space)) == (
                euler_integral(indicator(left)) * euler_integral(indicator(right))
            )

        edge = build_complex([["u", "w"]])
        for _ in range(110):
            base = random_complex(rng)
            coned = build_complex([s + ("apex",) for s in base.maximal_simplices()])
            f = simplicial_map(base, coned, {v: v for v in base.vertices})
            g = simplicial_map(coned, edge, {v: ("w" if v == "apex" else "u") for v in coned.vertices})
            phi = random_cf(rng, base)
            assert pushforward(compose(g, f), phi) == pushforward(g, pushforward(f, phi))


def test_9_cli_contract(capsys, tmp_path, corrupted_eu_path):
    with criterion(9, "cli exit codes and determinism"):
        good = tmp_path / "good.json"
        good.write_text(emit_scene(build_model("pair_C_R")), encoding="utf-8")
        assert cli_main(["verify", str(good)]) == 0
        first = capsys.readouterr().out
        assert "result: PASS" in first

        assert cli_main(["verify", str(good)]) == 0
        assert capsys.readouterr().out == first

        assert cli_main(["verify", str(corrupted_eu_path)]) == 1
        out = capsys.readouterr().out
        assert "result: FAIL" in out

        bad = tmp_path / "broken.json"
        bad.write_text("{", encoding="utf-8")
        assert cli_main(["verify", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
