"""Scene documents: JSON descriptions of a verification scenario.

A scene bundles an ambient complex, named subcomplexes, a real form with
optional conjugation, characteristic-cycle strata, probe simplices and
declared expectations.  Scenes round-trip through a canonical emission,
and a small registry of built-in models generates standard scenes
parametrically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NoReturn

from .calculus import ConstructibleFunction
from .complexes import (
    Simplex,
    SimplicialComplex,
    Subcomplex,
    build_complex,
    canonical_sorted,
    involution,
    point_complex,
    product,
    subcomplex,
)
from .errors import ModelError, SceneSemanticError, SceneSyntaxError
from .indices import (
    KNOWN_CHECKS,
    CharacteristicCycle,
    Expectations,
    RealComplexPair,
    Stratum,
    VerificationReport,
    verify_scene,
)


@dataclass(frozen=True, eq=False)
class Scene:
    """A parsed, validated scenario.  Equality is by canonical emission."""

    name: str
    comment: str
    ambient: SimplicialComplex
    subcomplexes: tuple[tuple[str, Subcomplex], ...]
    real_form_name: str
    pair: RealComplexPair
    cycle: CharacteristicCycle
    expect: Expectations
    canonical_text: str

    def subcomplex(self, name: str) -> Subcomplex:
        for nm, sub in self.subcomplexes:
            if nm == name:
                return sub
        known = ", ".join(nm for nm, _ in self.subcomplexes)
        raise ModelError(f"no subcomplex named {name!r}; scene has: {known}")

    def verify(self, seed: int = 0) -> VerificationReport:
        return verify_scene(self.pair, self.cycle, self.expect, seed=seed, name=self.name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scene):
            return NotImplemented
        return self.canonical_text == other.canonical_text

    def __hash__(self) -> int:
        return hash(self.canonical_text)


def _fail(path: str, message: str) -> NoReturn:
    raise SceneSemanticError(f"{path}: {message}")


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a nonempty string")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, "expected true or false")
    return value


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    for key in required:
        if key not in obj:
            _fail(path, f"missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(path, f"unknown key {key!r}")


def _as_simplex(value, path: str) -> Simplex:
    verts = [
        _as_str(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))
    ]
    try:
        return Simplex(verts)
    except ModelError as err:
        _fail(path, str(err))


def parse_scene(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SceneSyntaxError(
            f"invalid scene JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError:
        raise SceneSyntaxError("invalid scene JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SceneSemanticError("top level: expected an object")
    return _scene_from_doc(doc)


def emit_scene(scene: Scene) -> str:
    return scene.canonical_text


_TOP_REQUIRED = ("complex", "expect", "name", "probes", "real_form", "strata", "subcomplexes")

_EXPECT_VALUE_KEYS = ("hyperfunction_index", "hyperfunction_dimension", "parity_index")


def _scene_from_doc(doc: dict) -> Scene:
    _check_keys(doc, "scene", _TOP_REQUIRED, ("comment",))
    name = _as_str(doc["name"], "name")
    comment = doc.get("comment", "")
    if not isinstance(comment, str):
        _fail("comment", "expected a string")

    complex_doc = _as_object(doc["complex"], "complex")
    _check_keys(complex_doc, "complex", ("maximal_simplices",), ())
    maximal = _as_list(complex_doc["maximal_simplices"], "complex.maximal_simplices")
    if not maximal:
        _fail("complex.maximal_simplices", "needs at least one simplex")
    ambient = build_complex(
        _as_simplex(entry, f"complex.maximal_simplices[{i}]")
        for i, entry in enumerate(maximal)
    )

    subs: dict[str, Subcomplex] = {}
    for sub_name, gens_doc in _as_object(doc["subcomplexes"], "subcomplexes").items():
        path = f"subcomplexes.{sub_name}"
        gens = [
            _as_simplex(g, f"{path}[{i}]")
            for i, g in enumerate(_as_list(gens_doc, path))
        ]
        try:
            subs[sub_name] = subcomplex(ambient, gens)
        except ModelError as err:
            _fail(path, str(err))

    rf_doc = _as_object(doc["real_form"], "real_form")
    _check_keys(rf_doc, "real_form", ("M", "complex_dim"), ("conjugation",))
    rf_name = _as_str(rf_doc["M"], "real_form.M")
    if rf_name not in subs:
        _fail("real_form.M", f"unresolved name {rf_name!r}")
    real_form = subs[rf_name]
    n = _as_int(rf_doc["complex_dim"], "real_form.complex_dim")
    if n < 1:
        _fail("real_form.complex_dim", "must be a positive integer")

    conj = None
    if "conjugation" in rf_doc:
        cmap_doc = _as_object(rf_doc["conjugation"], "real_form.conjugation")
        cmap = {}
        for v, w in cmap_doc.items():
            w = _as_str(w, f"real_form.conjugation.{v}")
            for u in (v, w):
                if u not in ambient.vertices:
                    _fail("real_form.conjugation", f"unknown vertex {u!r}")
            cmap[v] = w
        try:
            conj = involution(ambient, cmap)
        except ModelError as err:
            _fail("real_form.conjugation", str(err))

    strata: list[Stratum] = []
    support_names: dict[str, str] = {}
    for i, entry in enumerate(_as_list(doc["strata"], "strata")):
        path = f"strata[{i}]"
        st_doc = _as_object(entry, path)
        _check_keys(
            st_doc, path,
            ("codim", "multiplicity", "name", "support"),
            ("allow_empty_trace", "eu", "smooth"),
        )
        st_name = _as_str(st_doc["name"], f"{path}.name")
        sup_name = _as_str(st_doc["support"], f"{path}.support")
        if sup_name not in subs:
            _fail(f"{path}.support", f"unresolved name {sup_name!r}")
        support = subs[sup_name]
        codim = _as_int(st_doc["codim"], f"{path}.codim")
        if not 0 <= codim <= n:
            _fail(f"{path}.codim", f"must be between 0 and complex_dim = {n}")
        mult = _as_int(st_doc["multiplicity"], f"{path}.multiplicity")
        smooth = _as_bool(st_doc["smooth"], f"{path}.smooth") if "smooth" in st_doc else True
        allow_empty = (
            _as_bool(st_doc["allow_empty_trace"], f"{path}.allow_empty_trace")
            if "allow_empty_trace" in st_doc
            else False
        )

        eu_values = {s: 1 for s in support.simplices}
        if "eu" in st_doc:
            eu_doc = _as_object(st_doc["eu"], f"{path}.eu")
            _check_keys(eu_doc, f"{path}.eu", ("default",), ("overrides",))
            if _as_int(eu_doc["default"], f"{path}.eu.default") != 1:
                _fail(
                    f"{path}.eu.default",
                    "must be 1; eu is normalized to 1 at generic points and "
                    "overridden where the local geometry differs",
                )
            overrides = _as_list(eu_doc.get("overrides", []), f"{path}.eu.overrides")
            for j, ov in enumerate(overrides):
                ov_path = f"{path}.eu.overrides[{j}]"
                ov_doc = _as_object(ov, ov_path)
                _check_keys(ov_doc, ov_path, ("at", "value"), ())
                at = _as_simplex(ov_doc["at"], f"{ov_path}.at")
                if at not in support.simplices:
                    _fail(f"{ov_path}.at", f"{at} is not a simplex of the support {sup_name!r}")
                value = _as_int(ov_doc["value"], f"{ov_path}.value")
                if smooth and value != 1:
                    _fail(
                        f"{ov_path}.value",
                        "a smooth stratum has eu identically 1; drop the override "
                        "or flag the stratum as singular",
                    )
                eu_values[at] = value
        eu = ConstructibleFunction(ambient, eu_values)

        if support.is_empty:
            _fail(f"{path}.support", f"subcomplex {sup_name!r} is empty")
        if not real_form.is_empty:
            expected_dim = 2 * (n - codim)
            if support.dim != expected_dim:
                _fail(
                    f"{path}.support",
                    f"has dimension {support.dim}, but a codimension-{codim} piece "
                    f"of a complex {n}-fold should have dimension {expected_dim}",
                )
        if conj is not None:
            for s in canonical_sorted(support.simplices):
                img = conj.image(s)
                if not support.has(img):
                    _fail(f"{path}.support", f"conjugation moves {s} outside the support")
                if eu.value(img) != eu.value(s):
                    _fail(f"{path}.eu", f"eu is not conjugation invariant at {s}")

        try:
            strata.append(
                Stratum(st_name, support, codim, mult, eu,
                        smooth=smooth, allow_empty_trace=allow_empty)
            )
        except ModelError as err:
            _fail(path, str(err))
        support_names[st_name] = sup_name

    try:
        cycle = CharacteristicCycle(strata)
    except ModelError as err:
        _fail("strata", str(err))

    probes: list[Simplex] = []
    for i, entry in enumerate(_as_list(doc["probes"], "probes")):
        p = _as_simplex(entry, f"probes[{i}]")
        if p not in real_form.simplices:
            _fail(f"probes[{i}]", f"{p} is not a simplex of the real form")
        if p in probes:
            _fail(f"probes[{i}]", f"duplicate probe {p}")
        probes.append(p)

    try:
        pair = RealComplexPair(ambient, real_form, n, conj, tuple(probes))
    except ModelError as err:
        _fail("real_form", str(err))

    exp_doc = _as_object(doc["expect"], "expect")
    _check_keys(exp_doc, "expect", (), _EXPECT_VALUE_KEYS + ("checks",))
    probe_set = set(probes)

    def read_values(key: str) -> tuple[tuple[Simplex, int], ...]:
        out: list[tuple[Simplex, int]] = []
        seen: set[Simplex] = set()
        for i, entry in enumerate(_as_list(exp_doc.get(key, []), f"expect.{key}")):
            path = f"expect.{key}[{i}]"
            e_doc = _as_object(entry, path)
            _check_keys(e_doc, path, ("at", "value"), ())
            at = _as_simplex(e_doc["at"], f"{path}.at")
            if at not in probe_set:
                _fail(f"{path}.at", f"{at} is not a declared probe")
            if at in seen:
                _fail(f"{path}.at", f"duplicate entry for {at}")
            seen.add(at)
            out.append((at, _as_int(e_doc["value"], f"{path}.value")))
        return tuple(sorted(out))

    checks: list[str] = []
    for i, entry in enumerate(_as_list(exp_doc.get("checks", []), "expect.checks")):
        c = _as_str(entry, f"expect.checks[{i}]")
        if c not in KNOWN_CHECKS:
            _fail(
                f"expect.checks[{i}]",
                f"unknown check {c!r}; known checks: {', '.join(sorted(KNOWN_CHECKS))}",
            )
        if c in checks:
            _fail(f"expect.checks[{i}]", f"duplicate check {c!r}")
        checks.append(c)
    expect = Expectations(
        hyperfunction_index=read_values("hyperfunction_index"),
        hyperfunction_dimension=read_values("hyperfunction_dimension"),
        parity_index=read_values("parity_index"),
        checks=tuple(sorted(checks)),
    )

    canonical = _canonical_doc(
        name, comment, ambient, subs, rf_name, n, conj, strata, support_names, pair, expect
    )
    text = json.dumps(canonical, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    return Scene(
        name=name,
        comment=comment,
        ambient=ambient,
        subcomplexes=tuple(sorted(subs.items())),
        real_form_name=rf_name,
        pair=pair,
        cycle=cycle,
        expect=expect,
        canonical_text=text,
    )


def _simplex_list(sims) -> list[list[str]]:
    return [list(s.vertices) for s in canonical_sorted(sims)]


def _canonical_doc(
    name, comment, ambient, subs, rf_name, n, conj, strata, support_names, pair, expect
) -> dict:
    rf: dict = {"M": rf_name, "complex_dim": n}
    if conj is not None:
        rf["conjugation"] = {
            v: conj.vertex(v) for v in sorted(ambient.vertices) if conj.vertex(v) != v
        }

    strata_doc = []
    for st in sorted(strata, key=lambda s: s.name):
        entry: dict = {
            "codim": st.codim,
            "multiplicity": st.multiplicity,
            "name": st.name,
            "smooth": st.smooth,
            "support": support_names[st.name],
        }
        overrides = [
            {"at": list(s.vertices), "value": st.eu.value(s)}
            for s in canonical_sorted(st.support.simplices)
            if st.eu.value(s) != 1
        ]
        if overrides:
            entry["eu"] = {"default": 1, "overrides": overrides}
        if st.allow_empty_trace:
            entry["allow_empty_trace"] = True
        strata_doc.append(entry)

    exp_doc: dict = {}
    for key, values in (
        ("hyperfunction_index", expect.hyperfunction_index),
        ("hyperfunction_dimension", expect.hyperfunction_dimension),
        ("parity_index", expect.parity_index),
    ):
        if values:
            exp_doc[key] = [{"at": list(s.vertices), "value": v} for s, v in values]
    if expect.checks:
        exp_doc["checks"] = list(expect.checks)

    doc = {
        "complex": {"maximal_simplices": _simplex_list(ambient.maximal_simplices())},
        "expect": exp_doc,
        "name": name,
        "probes": _simplex_list(pair.probes),
        "real_form": rf,
        "strata": strata_doc,
        "subcomplexes": {
            nm: _simplex_list(sub.maximal_simplices()) for nm, sub in subs.items()
        },
    }
    if comment:
        doc["comment"] = comment
    return doc


# --- built-in models ---


@dataclass(frozen=True)
class ModelParam:
    name: str
    default: int
    minimum: int
    meaning: str


@dataclass(frozen=True)
class ModelInfo:
    name: str
    summary: str
    params: tuple[ModelParam, ...]


def _disk_doc(k: int) -> list[list[str]]:
    rim = 2 * k
    return [["c", f"b{i}", f"b{(i + 1) % rim}"] for i in range(rim)]


def _axis_doc(k: int) -> list[list[str]]:
    return [["b0", "c"], [f"b{k}", "c"]]


def _reflection(k: int) -> dict[str, str]:
    rim = 2 * k
    return {f"b{i}": f"b{(rim - i) % rim}" for i in range(1, rim) if i != k}


def _value_entries(probes: list[list[str]], values: list[int]) -> list[dict]:
    return [{"at": at, "value": v} for at, v in zip(probes, values)]


def _disk_scene_doc(name, comment, k, strata, probes, expect) -> dict:
    return {
        "name": name,
        "comment": comment,
        "complex": {"maximal_simplices": _disk_doc(k)},
        "subcomplexes": {
            "ambient": _disk_doc(k),
            "origin": [["c"]],
            "real_line": _axis_doc(k),
        },
        "real_form": {
            "M": "real_line",
            "complex_dim": 1,
            "conjugation": _reflection(k),
        },
        "strata": strata,
        "probes": probes,
        "expect": expect,
    }


def _kashiwara_point_doc(p: dict) -> dict:
    d0, d1, k = p["d0"], p["d1"], p["k"]
    strata = []
    if d0:
        strata.append({"name": "origin", "support": "origin", "codim": 1, "multiplicity": d0})
    if d1:
        strata.append({"name": "ambient", "support": "ambient", "codim": 0, "multiplicity": d1})
    probes = [["c"], ["b0", "c"], [f"b{k}", "c"]]
    hyper = [d0 + d1, d1, d1]
    checks = [
        "boundary_parity", "conjugation_invariance", "dimension_formula",
        "parity_formula", "triangle_identity",
    ]
    if strata:
        checks += ["base_change", "shriek_indicator"]
    expect = {
        "hyperfunction_index": _value_entries(probes, hyper),
        "hyperfunction_dimension": _value_entries(probes, hyper),
        "parity_index": _value_entries(probes, [v % 2 for v in hyper]),
        "checks": sorted(checks),
    }
    comment = (
        "One complex variable: a point module of multiplicity d0 at the "
        "origin on top of a flat piece of multiplicity d1.  The local count "
        "at the center is d0 + d1 and it drops to d1 on the punctured axis."
    )
    return _disk_scene_doc("kashiwara_point", comment, k, strata, probes, expect)


def _pair_C_R_doc(p: dict) -> dict:
    m, k = p["m"], p["k"]
    strata = [{"name": "ambient", "support": "ambient", "codim": 0, "multiplicity": m}]
    probes = [["c"], ["b0", "c"], [f"b{k}", "c"]]
    checks = [
        "base_change", "boundary_parity", "conjugation_invariance",
        "dimension_formula", "parity_formula", "shriek_indicator",
        "triangle_identity",
    ]
    expect = {
        "hyperfunction_index": _value_entries(probes, [m, m, m]),
        "hyperfunction_dimension": _value_entries(probes, [m, m, m]),
        "parity_index": _value_entries(probes, [m % 2] * 3),
        "checks": checks,
    }
    comment = (
        "The flat complexification pair in one variable; every local count "
        "equals the multiplicity of the single full-dimensional stratum."
    )
    return _disk_scene_doc("pair_C_R", comment, k, strata, probes, expect)


def _plane_pair_doc(name, comment, k, extra_subs, strata, probes, expect) -> dict:
    disk = build_complex(Simplex(t) for t in _disk_doc(k))
    diam = build_complex(Simplex(e) for e in _axis_doc(k))
    pt = point_complex("c")
    ambient, _, _ = product(disk, disk)
    plane, _, _ = product(diam, diam)
    line, _, _ = product(disk, pt)
    column, _, _ = product(pt, disk)
    subs = {
        "ambient": _simplex_list(ambient.maximal_simplices()),
        "real_plane": _simplex_list(plane.maximal_simplices()),
        "complex_line": _simplex_list(line.maximal_simplices()),
    }
    if "column" in extra_subs:
        subs["node"] = _simplex_list(
            line.maximal_simplices() + column.maximal_simplices()
        )
    return {
        "name": name,
        "comment": comment,
        "complex": {"maximal_simplices": _simplex_list(ambient.maximal_simplices())},
        "subcomplexes": subs,
        "real_form": {"M": "real_plane", "complex_dim": 2},
        "strata": strata,
        "probes": probes,
        "expect": expect,
    }


def _plane_probes(k: int) -> list[list[str]]:
    return [
        ["c.c"],
        ["b0.c", "c.c"],
        [f"b{k}.c", "c.c"],
        ["c.b0", "c.c"],
        [f"c.b{k}", "c.c"],
        ["b0.b0", "b0.c", "c.c"],
    ]


def _smooth_line_doc(p: dict) -> dict:
    m, k = p["m"], p["k"]
    probes = _plane_probes(k)
    hyper = [m, m, m, 0, 0, 0]
    expect = {
        "hyperfunction_index": _value_entries(probes, hyper),
        "hyperfunction_dimension": _value_entries(probes, hyper),
        "parity_index": _value_entries(probes, [v % 2 for v in hyper]),
        "checks": [
            "base_change", "dimension_formula", "parity_formula",
            "shriek_indicator", "triangle_identity",
        ],
    }
    strata = [{
        "name": "complex_line", "support": "complex_line",
        "codim": 1, "multiplicity": m,
    }]
    comment = (
        "Two complex variables with a smooth hypersurface, the first "
        "coordinate line.  Local counts equal the multiplicity along the "
        "real trace of the line and vanish away from it."
    )
    return _plane_pair_doc("smooth_line_in_C2", comment, k, (), strata, probes, expect)


def _node_curve_doc(p: dict) -> dict:
    m, k = p["m"], p["k"]
    probes = _plane_probes(k)
    hyper = [2 * m, m, m, m, m, 0]
    expect = {
        "hyperfunction_index": _value_entries(probes, hyper),
        "parity_index": _value_entries(probes, [0, m % 2, m % 2, m % 2, m % 2, 0]),
        "checks": [
            "base_change", "parity_formula", "shriek_indicator", "triangle_identity",
        ],
    }
    strata = [{
        "name": "node", "support": "node", "codim": 1, "multiplicity": m,
        "smooth": False,
        "eu": {"default": 1, "overrides": [{"at": ["c.c"], "value": 2}]},
    }]
    comment = (
        "Two complex variables with the union of the two coordinate lines, "
        "singular at the center where the two branches cross.  The link of "
        "the center inside the curve falls into two circles, one per "
        "branch, which is why eu is 2 there.  The local count doubles at "
        "the crossing; no dimension values are declared because the "
        "dimension count needs smooth strata."
    )
    return _plane_pair_doc("node_curve", comment, k, ("column",), strata, probes, expect)


def _antipodal_cover_doc(p: dict) -> dict:
    m, k = p["m"], p["k"]
    rim = 2 * k
    edges = [[f"b{i}", f"b{(i + 1) % rim}"] for i in range(rim)]
    comment = (
        "A circle with the antipodal conjugation and no real points.  "
        "Nothing can be probed, but the free action forces every Euler "
        "count to be even, and the quotient circle sees doubled values."
    )
    return {
        "name": "antipodal_cover",
        "comment": comment,
        "complex": {"maximal_simplices": edges},
        "subcomplexes": {"ambient": edges, "fixed_locus": []},
        "real_form": {
            "M": "fixed_locus",
            "complex_dim": 1,
            "conjugation": {f"b{i}": f"b{(i + k) % rim}" for i in range(rim)},
        },
        "strata": [{
            "name": "ambient", "support": "ambient", "codim": 0,
            "multiplicity": m, "allow_empty_trace": True,
        }],
        "probes": [],
        "expect": {
            "checks": [
                "base_change", "conjugation_invariance",
                "covering_parity", "triangle_identity",
            ],
        },
    }


_K = ModelParam("k", 3, 3, "half the number of rim vertices in each disk factor")

_MODELS: dict[str, tuple[ModelInfo, Callable[[dict], dict]]] = {
    "kashiwara_point": (
        ModelInfo(
            "kashiwara_point",
            "point module plus flat piece at the origin of one complex variable",
            (
                ModelParam("d0", 2, 0, "multiplicity of the origin stratum (0 omits it)"),
                ModelParam("d1", 3, 0, "multiplicity of the flat stratum (0 omits it)"),
                _K,
            ),
        ),
        _kashiwara_point_doc,
    ),
    "pair_C_R": (
        ModelInfo(
            "pair_C_R",
            "flat complexification pair in one variable",
            (ModelParam("m", 1, 1, "multiplicity of the flat stratum"), _K),
        ),
        _pair_C_R_doc,
    ),
    "smooth_line_in_C2": (
        ModelInfo(
            "smooth_line_in_C2",
            "smooth coordinate line inside two complex variables",
            (ModelParam("m", 4, 1, "multiplicity along the line"), _K),
        ),
        _smooth_line_doc,
    ),
    "node_curve": (
        ModelInfo(
            "node_curve",
            "two crossing coordinate lines, singular at the center",
            (ModelParam("m", 1, 1, "multiplicity along the curve"), _K),
        ),
        _node_curve_doc,
    ),
    "antipodal_cover": (
        ModelInfo(
            "antipodal_cover",
            "circle with the free antipodal conjugation and empty real form",
            (ModelParam("m", 1, 1, "multiplicity of the full stratum"), _K),
        ),
        _antipodal_cover_doc,
    ),
}


def list_models() -> tuple[ModelInfo, ...]:
    return tuple(info for info, _ in (_MODELS[nm] for nm in sorted(_MODELS)))


def build_model(name: str, **params: int) -> Scene:
    """Build one of the registered scenes; unknown names and parameters raise."""
    if name not in _MODELS:
        raise ModelError(
            f"unknown model {name!r}; available: {', '.join(sorted(_MODELS))}"
        )
    info, _ = _MODELS[name]
    known = {p.name: p for p in info.params}
    values = {p.name: p.default for p in info.params}
    for key, val in params.items():
        if key not in known:
            raise ModelError(
                f"model {name!r} has no parameter {key!r}; "
                f"parameters: {', '.join(sorted(known))}"
            )
        if isinstance(val, bool) or not isinstance(val, int):
            raise ModelError(f"parameter {key!r} must be an integer")
        if val < known[key].minimum:
            raise ModelError(f"parameter {key!r} must be at least {known[key].minimum}")
        values[key] = val
    return _build_cached(name, tuple(sorted(values.items())))


@lru_cache(maxsize=None)
def _build_cached(name: str, items: tuple[tuple[str, int], ...]) -> Scene:
    _, builder = _MODELS[name]
    doc = builder(dict(items))
    doc["name"] = f"{name}({', '.join(f'{k}={v}' for k, v in items)})"
    return _scene_from_doc(doc)
