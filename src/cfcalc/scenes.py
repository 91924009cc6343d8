"""Scene documents: JSON descriptions of a verification scenario.

A scene bundles an ambient complex, named subcomplexes, a real form with
optional conjugation, characteristic-cycle strata, probe simplices and
declared expectations.  Scenes round-trip through a canonical emission,
and a small registry of built-in models generates standard scenes
parametrically.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from operator import ge, itemgetter
from json.encoder import encode_basestring as _quote, encode_basestring_ascii as _quote_ascii
from typing import Callable, NoReturn

from ._frozen import Frozen, cached
from .calculus import ConstructibleFunction
from .complexes import (
    MAX_SIMPLICES,
    Simplex,
    Subcomplex,
    _canonical_vertices,
    _close,
    _closure_bound,
    _images,
    _staircase,
    _text,
    _within_budget,
    involution,
    subcomplex,
)
from .errors import ModelError, SceneSemanticError, SceneSyntaxError
from .indices import (
    _EXPECT_VALUE_KEYS,
    KNOWN_CHECKS,
    CharacteristicCycle,
    Expectations,
    RealComplexPair,
    Stratum,
    VerificationReport,
    _scene_rows,
    _with_seeded_rows,
)

# Largest magnitude of an integer a scene carries; every value the calculus
# makes of such integers within MAX_SIMPLICES stays printable.
MAX_VALUE = 2**62

# Most characters a scene file may hold, refused before it is parsed: three times
# the largest built-in emission, 6,449,992 characters, rounded up; the densest
# ASCII text admitted ({"":0} to the bracket bound, then "ab") peaks near 490 MB.
# A text that is not ASCII is weighed as Python holds it, at 1, 2 or 4 bytes a
# character by its widest one, so one character past the Basic Multilingual
# Plane makes every character count four times.
MAX_SCENE_CHARS = 3 * 6_450_000

# Most "[" and "{" a scene text may hold, counted before it is parsed: the
# JSON reader builds every container before the scene's first key is read,
# at 70 to 200 bytes each, so the 10^7 empty objects a text of
# MAX_SCENE_CHARS can hold would take about 770 MB.  This leaves room for
# the 10^6 one-vertex generators the closure budget admits and as many
# probes, each a list, and is 32 times the 62,482 of the largest built-in
# emission.  Brackets inside strings count too, so this bounds the
# containers from above.
MAX_SCENE_BRACKETS = 2 * MAX_SIMPLICES

# JSON can escape a UTF-16 surrogate without its pair, which no output encodes
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")

# what the CLI's --at splits vertex names on, so no vertex name may hold it
_SEPARATOR = re.compile(r"[,\s]")


class Scene(Frozen):
    """A parsed, validated scenario.  Equality is by canonical emission,
    built on first use, as are verify's rows that do not depend on the
    seed; support_names maps stratum to support names."""

    _fields = (
        "name", "comment", "ambient", "subcomplexes", "real_form_name", "pair", "cycle",
        "expect", "support_names",
    )

    @property
    @cached
    def canonical_text(self) -> str:
        return _write(_canonical_doc(self)) + "\n"

    def subcomplex(self, name: str) -> Subcomplex:
        for nm, sub in self.subcomplexes:
            if nm == name:
                return sub
        known = ", ".join(nm for nm, _ in self.subcomplexes)
        raise ModelError(f"no subcomplex named {name!r}; scene has: {known}")

    @cached
    def _rows(self) -> tuple:
        return _scene_rows(self.pair, self.cycle, self.expect)

    def verify(self, seed: int = 0) -> VerificationReport:
        return _with_seeded_rows(self.name, self.pair, self._rows(), seed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scene):
            return NotImplemented
        return self.canonical_text == other.canonical_text

    def __hash__(self) -> int:
        return hash(self.canonical_text)


def _fail(path: str, message: str) -> NoReturn:
    raise SceneSemanticError(f"{path}: {message}")


def _under(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a library refusal worded as a scene error at path."""
    try:
        return fn(*args, **kwargs)
    except ModelError as err:
        _fail(path, str(err))


def _as_object(value, path: str, required: tuple = (), optional: tuple | None = None) -> dict:
    """value as an object holding every required key; given optional, it
    holds no key outside the two, and otherwise any key."""
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    for key in required:
        if key not in value:
            _fail(path, f"missing key {key!r}")
    if optional is not None:
        for key in value:
            if key not in required and key not in optional:
                _fail(path, f"unknown key {key!r}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return value


def _as_text(value: str, path: str) -> str:
    if not value.isascii() and _LONE_SURROGATE.search(value):
        _fail(path, "holds a lone surrogate escape, which is not text")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a nonempty string")
    return _as_text(value, path)


def _as_vertex(value, path: str) -> str:
    name = _as_str(value, path)
    if _SEPARATOR.search(name):
        _fail(path, f"vertex name {name!r} holds whitespace or a comma")
    return name


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if abs(value) > MAX_VALUE:
        _fail(path, f"must be at most 2^62 = {MAX_VALUE} in absolute value")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, "expected true or false")
    return value


def _as_simplex(value, path: str) -> tuple[str, ...]:
    verts = [
        _as_vertex(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))
    ]
    return _under(path, _canonical_vertices, verts)


def _simplices(value: list) -> list[tuple] | None:
    """The items of value as simplices when each is a nonempty list of
    names in strictly increasing order, as emitted, each a nonempty exact
    str that no vertex check refuses: a few passes over all the names at
    once.  Else None, and _as_simplex reads each item and words its error."""
    if {*map(type, value)} != {list} or not all(value):
        return None
    names = [*chain.from_iterable(value)]
    if {*map(type, names)} != {str} or not all(names):
        return None
    # each list increases exactly when every pair of neighbouring names that
    # does not is a seam, where one list ends and the next begins
    seams = map(ge, map(itemgetter(-1), value), map(itemgetter(0), value[1:]))
    if sum(map(ge, names, names[1:])) != sum(seams):
        return None
    joined = "".join(names)
    if _SEPARATOR.search(joined) or not joined.isascii() and _LONE_SURROGATE.search(joined):
        return None
    return [*map(tuple, value)]


def _as_simplices(value, path: str) -> list[tuple]:
    value = _as_list(value, path)
    return _simplices(value) or [_as_simplex(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_entries(value, path: str, within, what: str) -> dict[tuple, int]:
    """An {at, value} list as a dict in list order: each at a simplex of
    within, what names that set, and no at twice."""
    entries = _as_list(value, path)
    ats = _simplices([e.get("at") if e.__class__ is dict else None for e in entries])
    out: dict[tuple, int] = {}
    for i, entry in enumerate(entries):
        e_path = f"{path}[{i}]"
        _as_object(entry, e_path, ("at", "value"), ())
        at = ats[i] if ats else _as_simplex(entry["at"], f"{e_path}.at")
        if at not in within:
            _fail(f"{e_path}.at", f"{_text(at)} is not {what}")
        if at in out:
            _fail(f"{e_path}.at", f"duplicate entry for {_text(at)}")
        out[at] = _as_int(entry["value"], f"{e_path}.value")
    return out


def parse_scene(text: str) -> Scene:
    brackets = text.count("[") + text.count("{")
    if brackets > MAX_SCENE_BRACKETS:
        raise SceneSyntaxError(
            f"scene text holds {brackets} '[' and '{{', "
            f"more than the limit of {MAX_SCENE_BRACKETS}"
        )
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SceneSyntaxError(
            f"invalid scene JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError:
        raise SceneSyntaxError("invalid scene JSON: nested too deeply") from None
    except ValueError:  # Python's limit on the digits of an integer literal
        raise SceneSyntaxError("invalid scene JSON: an integer literal is too long") from None
    if not isinstance(doc, dict):
        raise SceneSemanticError("top level: expected an object")
    return _scene_from_doc(doc)


def emit_scene(scene: Scene) -> str:
    return scene.canonical_text


_TOP_REQUIRED = ("complex", "expect", "name", "probes", "real_form", "strata", "subcomplexes")


def _scene_from_doc(doc: dict) -> Scene:
    _as_object(doc, "scene", _TOP_REQUIRED, ("comment",))
    name = _as_str(doc["name"], "name")
    comment = doc.get("comment", "")
    if not isinstance(comment, str):
        _fail("comment", "expected a string")
    _as_text(comment, "comment")

    complex_doc = _as_object(doc["complex"], "complex", ("maximal_simplices",), ())
    maximal = _as_list(complex_doc["maximal_simplices"], "complex.maximal_simplices")
    if not maximal:
        _fail("complex.maximal_simplices", "needs at least one simplex")
    tops = set(_as_simplices(maximal, "complex.maximal_simplices"))
    budget = _closure_bound(tops)
    _under("complex.maximal_simplices", _within_budget, budget, "face closure")

    # every simplex list is parsed, and all their closures bounded together,
    # before any is closed
    sub_gens: dict[str, list[tuple] | None] = {}
    for sub_name, gens_doc in _as_object(doc["subcomplexes"], "subcomplexes").items():
        _as_text(sub_name, f"subcomplexes key {sub_name!r}")
        if gens_doc == maximal:  # already parsed: it closes to the whole complex
            sub_gens[sub_name] = None
            continue
        gens = _as_simplices(gens_doc, f"subcomplexes.{sub_name}")
        sub_gens[sub_name] = gens
        budget += _closure_bound(set(gens))
    _under("subcomplexes", _within_budget, budget, "the complex and its subcomplexes together")

    ambient = _close(tops)
    subs: dict[str, Subcomplex] = {
        sub_name: Subcomplex._of(ambient, ambient) if gens is None
        else _under(f"subcomplexes.{sub_name}", subcomplex, ambient, gens)
        for sub_name, gens in sub_gens.items()
    }

    rf_doc = _as_object(doc["real_form"], "real_form", ("M", "complex_dim"), ("conjugation",))
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
        cmap = {
            _as_text(v, f"real_form.conjugation key {v!r}"):
                _as_str(w, f"real_form.conjugation.{v}")
            for v, w in cmap_doc.items()
        }
        conj = _under("real_form.conjugation", involution, ambient, cmap)

    strata: list[Stratum] = []
    support_names: dict[str, str] = {}
    taken: dict[frozenset, str] = {}  # support simplices -> stratum name
    for i, entry in enumerate(_as_list(doc["strata"], "strata")):
        path = f"strata[{i}]"
        st_doc = _as_object(
            entry, path,
            ("codim", "multiplicity", "name", "support"),
            ("allow_empty_trace", "eu", "smooth"),
        )
        st_name = _as_str(st_doc["name"], f"{path}.name")
        sup_name = _as_str(st_doc["support"], f"{path}.support")
        if sup_name not in subs:
            _fail(f"{path}.support", f"unresolved name {sup_name!r}")
        support = subs[sup_name]
        # refused before any work on it, so strata cost no more than their
        # subcomplexes: a free entry repeating the complex's list may back one
        if support.simplices in taken:
            _fail(f"{path}.support", f"stratum {taken[support.simplices]!r} has the same support")
        taken[support.simplices] = st_name
        codim = _as_int(st_doc["codim"], f"{path}.codim")
        if not 0 <= codim <= n:
            _fail(f"{path}.codim", f"must be between 0 and complex_dim = {n}")
        mult = _as_int(st_doc["multiplicity"], f"{path}.multiplicity")
        smooth = _as_bool(st_doc.get("smooth", True), f"{path}.smooth")
        allow_empty = _as_bool(st_doc.get("allow_empty_trace", False), f"{path}.allow_empty_trace")

        overrides: dict[tuple, int] = {}
        if "eu" in st_doc:
            eu_doc = _as_object(st_doc["eu"], f"{path}.eu", ("default",), ("overrides",))
            if _as_int(eu_doc["default"], f"{path}.eu.default") != 1:
                _fail(
                    f"{path}.eu.default",
                    "must be 1; eu is normalized to 1 at generic points and "
                    "overridden where the local geometry differs",
                )
            overrides = _as_entries(
                eu_doc.get("overrides", []), f"{path}.eu.overrides",
                support.simplices, f"a simplex of the support {sup_name!r}",
            )
        # each override is an int at a simplex of the support, as read above;
        # Stratum refuses one other than 1 on a smooth stratum
        eu = ConstructibleFunction._of(ambient, tuple([
            (s, v) for s in sorted(support.simplices) if (v := overrides.get(s, 1))
        ]))

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
            order, at = sorted(support.simplices), eu._lookup().get
            for s, img in zip(order, _images(conj.underlying._vertex_table(), order)):
                if img not in support.simplices:
                    _fail(f"{path}.support", f"conjugation moves {_text(s)} outside the support")
                if at(img) != at(s):
                    _fail(f"{path}.eu", f"eu is not conjugation invariant at {_text(s)}")

        strata.append(_under(
            path, Stratum, st_name, support, codim, mult, eu,
            smooth=smooth, allow_empty_trace=allow_empty,
        ))
        support_names[st_name] = sup_name

    cycle = _under("strata", CharacteristicCycle, strata)

    probes: set[tuple] = set()
    for i, p in enumerate(_as_simplices(doc["probes"], "probes")):
        if p not in real_form.simplices:
            _fail(f"probes[{i}]", f"{_text(p)} is not a simplex of the real form")
        if p in probes:
            _fail(f"probes[{i}]", f"duplicate probe {_text(p)}")
        probes.add(p)

    pair = _under("real_form", RealComplexPair, ambient, real_form, n, conj, tuple(probes))

    exp_doc = _as_object(doc["expect"], "expect", (), Expectations._fields)

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
        checks=tuple(sorted(checks)),
        **{
            key: tuple([(Simplex(p), v) for p, v in sorted(_as_entries(
                exp_doc.get(key, []), f"expect.{key}", probes, "a declared probe"
            ).items())])
            for key in _EXPECT_VALUE_KEYS
        },
    )

    return Scene(
        name=name,
        comment=comment,
        ambient=ambient,
        subcomplexes=tuple(sorted(subs.items())),
        real_form_name=rf_name,
        pair=pair,
        cycle=cycle,
        expect=expect,
        support_names=tuple(sorted(support_names.items())),
    )


def _write(value, quote=_quote, newline: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, with
    ensure_ascii=False under quote _quote and True under _quote_ascii;
    newline is the line break plus the indent of value's level.  Only dict,
    list, tuple (a simplex too, as a list), str, int, bool and None are
    written: a float raises TypeError."""
    if isinstance(value, str):
        return quote(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a list of names, or of name lists, takes one join per list; quote
        # raises TypeError at the first item that is not a string, and the
        # list is then written item by item
        try:
            if isinstance(value[0], (list, tuple)):
                deeper = inner + "  "
                start, sep, end = "[" + deeper, "," + deeper, inner + "]"
                items = [
                    start + sep.join(map(quote, v)) + end if isinstance(v, (list, tuple)) and v
                    else _write(v, quote, inner)
                    for v in value
                ]
            else:
                items = map(quote, value)
            text = ("," + inner).join(items)
        except TypeError:
            text = ("," + inner).join([_write(v, quote, inner) for v in value])
        return "[" + inner + text + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [quote(k) + ": " + _write(v, quote, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:  # after the containers: the scene text holds no null
        return "null"
    raise TypeError(f"cfcalc writes no {type(value).__name__} as JSON")


def _entry_list(items) -> list[dict]:
    """(simplex, value) pairs as an {at, value} list, in their order."""
    return [{"at": s, "value": v} for s, v in items]


def _canonical_doc(scene: Scene) -> dict:
    ambient, pair, expect = scene.ambient, scene.pair, scene.expect
    conj = pair.conjugation
    support_names = dict(scene.support_names)
    rf: dict = {"M": scene.real_form_name, "complex_dim": pair.complex_dim}
    if conj is not None:
        rf["conjugation"] = {v: w for v, w in conj.underlying.vertex_pairs if v != w}

    strata_doc = []
    for st in sorted(scene.cycle, key=lambda s: s.name):
        entry: dict = {
            "codim": st.codim,
            "multiplicity": st.multiplicity,
            "name": st.name,
            "smooth": st.smooth,
            "support": support_names[st.name],
        }
        eu = st.eu._lookup().get
        overrides = _entry_list(
            (s, v) for s in sorted(st.support.simplices) if (v := eu(s, 0)) != 1
        )
        if overrides:
            entry["eu"] = {"default": 1, "overrides": overrides}
        if st.allow_empty_trace:
            entry["allow_empty_trace"] = True
        strata_doc.append(entry)

    exp_doc: dict = {}
    for key in _EXPECT_VALUE_KEYS:
        values = getattr(expect, key)
        if values:
            exp_doc[key] = _entry_list(values)
    if expect.checks:
        exp_doc["checks"] = expect.checks

    doc = {
        "complex": {"maximal_simplices": sorted(ambient.maximal_simplices())},
        "expect": exp_doc,
        "name": scene.name,
        "probes": pair.probes,
        "real_form": rf,
        "strata": strata_doc,
        "subcomplexes": {
            nm: sorted(sub.maximal_simplices()) for nm, sub in scene.subcomplexes
        },
    }
    if scene.comment:
        doc["comment"] = scene.comment
    return doc


# --- built-in models ---


class ModelParam(Frozen):
    """An integer parameter of a model, from minimum to maximum."""

    _fields = ("name", "default", "minimum", "meaning", "maximum")


class ModelInfo(Frozen):
    _fields = ("name", "summary", "params")  # params is a tuple of ModelParam


def _disk_doc(k: int) -> list[list[str]]:
    rim = 2 * k
    return [["c", f"b{i}", f"b{(i + 1) % rim}"] for i in range(rim)]


def _axis_doc(k: int) -> list[list[str]]:
    return [["b0", "c"], [f"b{k}", "c"]]


def _expect(
    probes: list[list[str]], hyper: list[int], checks: list[str], dimension: bool = True
) -> dict:
    """A model's expect block: hyper[i] is the hyperfunction index at
    probes[i], and its dimension too unless dimension is False; the parity
    is hyper mod 2."""
    values = {"hyperfunction_index": hyper, "parity_index": [v % 2 for v in hyper]}
    if dimension:
        values["hyperfunction_dimension"] = hyper
    expect: dict = {key: _entry_list(zip(probes, vals)) for key, vals in values.items()}
    expect["checks"] = sorted(checks)
    return expect


def _disk_scene_doc(comment: str, k: int, d0: int, d1: int) -> dict:
    """One complex variable on a disk of 2k rim vertices, with a point
    stratum of multiplicity d0 at the center and a flat one of multiplicity
    d1, each omitted at 0."""
    strata = []
    if d0:
        strata.append({"name": "origin", "support": "origin", "codim": 1, "multiplicity": d0})
    if d1:
        strata.append({"name": "ambient", "support": "ambient", "codim": 0, "multiplicity": d1})
    probes = [["c"], ["b0", "c"], [f"b{k}", "c"]]
    checks = [
        "boundary_parity", "conjugation_invariance", "dimension_formula",
        "parity_formula", "triangle_identity",
    ]
    if strata:
        checks += ["base_change", "shriek_indicator"]
    rim = 2 * k
    return {
        "comment": comment,
        "complex": {"maximal_simplices": _disk_doc(k)},
        "subcomplexes": {"ambient": _disk_doc(k), "origin": [["c"]], "real_line": _axis_doc(k)},
        "real_form": {
            "M": "real_line",
            "complex_dim": 1,
            "conjugation": {f"b{i}": f"b{(rim - i) % rim}" for i in range(1, rim) if i != k},
        },
        "strata": strata,
        "probes": probes,
        "expect": _expect(probes, [d0 + d1, d1, d1], checks),
    }


def _kashiwara_point_doc(p: dict) -> dict:
    comment = (
        "One complex variable: a point module of multiplicity d0 at the "
        "origin on top of a flat piece of multiplicity d1.  The local count "
        "at the center is d0 + d1 and it drops to d1 on the punctured axis."
    )
    return _disk_scene_doc(comment, p["k"], p["d0"], p["d1"])


def _pair_C_R_doc(p: dict) -> dict:
    comment = (
        "The flat complexification pair in one variable; every local count "
        "equals the multiplicity of the single full-dimensional stratum."
    )
    return _disk_scene_doc(comment, p["k"], 0, p["m"])


def _plane_pair_doc(
    comment: str, k: int, stratum: dict, hyper: list[int], checks: list[str]
) -> dict:
    """Two complex variables on the product of two disks, with one codim-1
    stratum, on the first coordinate line or on the node, the union of both
    lines; hyper[i] is the hyperfunction index at the i-th probe, declared
    as its dimension too when the stratum is smooth."""
    disk, axis, pt = _disk_doc(k), _axis_doc(k), [["c"]]
    order = sorted({v for t in disk for v in t})  # the order product uses
    ambient = _staircase(disk, disk, order, order)
    subs = {
        "ambient": ambient,
        "real_plane": _staircase(axis, axis, order, order),
        "complex_line": _staircase(disk, pt, order, order),
    }
    if stratum["support"] == "node":
        subs["node"] = subs["complex_line"] + _staircase(pt, disk, order, order)
    probes = [
        ["c.c"],
        ["b0.c", "c.c"],
        [f"b{k}.c", "c.c"],
        ["c.b0", "c.c"],
        [f"c.b{k}", "c.c"],
        ["b0.b0", "b0.c", "c.c"],
    ]
    return {
        "comment": comment,
        "complex": {"maximal_simplices": ambient},
        "subcomplexes": subs,
        "real_form": {"M": "real_plane", "complex_dim": 2},
        "strata": [stratum],
        "probes": probes,
        "expect": _expect(probes, hyper, checks, dimension=stratum.get("smooth", True)),
    }


def _smooth_line_doc(p: dict) -> dict:
    m = p["m"]
    comment = (
        "Two complex variables with a smooth hypersurface, the first "
        "coordinate line.  Local counts equal the multiplicity along the "
        "real trace of the line and vanish away from it."
    )
    stratum = {"name": "complex_line", "support": "complex_line", "codim": 1, "multiplicity": m}
    return _plane_pair_doc(comment, p["k"], stratum, [m, m, m, 0, 0, 0], [
        "base_change", "dimension_formula", "parity_formula",
        "shriek_indicator", "triangle_identity",
    ])


def _node_curve_doc(p: dict) -> dict:
    m = p["m"]
    comment = (
        "Two complex variables with the union of the two coordinate lines, "
        "singular at the center where the two branches cross.  The link of "
        "the center inside the curve falls into two circles, one per "
        "branch, which is why eu is 2 there.  The local count doubles at "
        "the crossing; no dimension values are declared because the "
        "dimension count needs smooth strata."
    )
    stratum = {
        "name": "node", "support": "node", "codim": 1, "multiplicity": m,
        "smooth": False,
        "eu": {"default": 1, "overrides": [{"at": ["c.c"], "value": 2}]},
    }
    return _plane_pair_doc(comment, p["k"], stratum, [2 * m, m, m, m, m, 0], [
        "base_change", "parity_formula", "shriek_indicator", "triangle_identity",
    ])


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


# The plane models close 24k^2 maximal 4-simplices, counted as 744k^2 faces
# against the closure budget, so k is bounded before anything is built.
# Each multiplicity is bounded so that every value its builder writes, a
# sum of two multiplicities or twice one included, stays within MAX_VALUE.
_K = ModelParam(
    "k", 3, 3, "half the number of rim vertices in each disk factor",
    maximum=math.isqrt(MAX_SIMPLICES // 744),
)

_MODELS: dict[str, tuple[ModelInfo, Callable[[dict], dict]]] = {
    info.name: (info, builder) for info, builder in (
        (ModelInfo(
            "kashiwara_point",
            "point module plus flat piece at the origin of one complex variable",
            (
                ModelParam(
                    "d0", 2, 0, "multiplicity of the origin stratum (0 omits it)",
                    maximum=MAX_VALUE // 2,
                ),
                ModelParam(
                    "d1", 3, 0, "multiplicity of the flat stratum (0 omits it)",
                    maximum=MAX_VALUE // 2,
                ),
                _K,
            ),
        ), _kashiwara_point_doc),
        (ModelInfo(
            "pair_C_R",
            "flat complexification pair in one variable",
            (ModelParam("m", 1, 1, "multiplicity of the flat stratum", maximum=MAX_VALUE), _K),
        ), _pair_C_R_doc),
        (ModelInfo(
            "smooth_line_in_C2",
            "smooth coordinate line inside two complex variables",
            (ModelParam("m", 4, 1, "multiplicity along the line", maximum=MAX_VALUE), _K),
        ), _smooth_line_doc),
        (ModelInfo(
            "node_curve",
            "two crossing coordinate lines, singular at the center",
            (ModelParam("m", 1, 1, "multiplicity along the curve", maximum=MAX_VALUE // 2), _K),
        ), _node_curve_doc),
        (ModelInfo(
            "antipodal_cover",
            "circle with the free antipodal conjugation and empty real form",
            (ModelParam("m", 1, 1, "multiplicity of the full stratum", maximum=MAX_VALUE), _K),
        ), _antipodal_cover_doc),
    )
}


def list_models() -> tuple[ModelInfo, ...]:
    return tuple(info for info, _ in (_MODELS[nm] for nm in sorted(_MODELS)))


def build_model(name: str, **params: int) -> Scene:
    """Build one of the registered scenes; unknown names and parameters raise."""
    if name not in _MODELS:
        raise ModelError(
            f"unknown model {name!r}; available: {', '.join(sorted(_MODELS))}"
        )
    info, builder = _MODELS[name]
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
        if val > known[key].maximum:
            raise ModelError(f"parameter {key!r} must be at most {known[key].maximum}")
        values[key] = val
    try:
        doc = builder(values)  # a builder writes every key but the name
        doc["name"] = f"{name}({', '.join(f'{k}={v}' for k, v in sorted(values.items()))})"
        return _scene_from_doc(doc)
    except ModelError as err:  # SceneError included
        # valid parameters always build a valid scene, so this is the program's fault
        raise RuntimeError(f"built-in model {name!r} did not build: {err}") from err
