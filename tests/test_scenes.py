import contextlib
import gc
import io
import json
import re
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfcalc.complexes
import cfcalc.scenes
from cfcalc import (
    ModelError,
    SceneError,
    SceneSemanticError,
    SceneSyntaxError,
    build_model,
    emit_scene,
    list_models,
    parse_scene,
)
from cfcalc.cli import main
from cfcalc.indices import hyperfunction_index, parity_index
from conftest import order_built

ALL_MODELS = (
    "antipodal_cover",
    "kashiwara_point",
    "node_curve",
    "pair_C_R",
    "smooth_line_in_C2",
)


def node_doc() -> dict:
    return json.loads(emit_scene(build_model("node_curve")))


class TestModels:
    def test_listing_is_sorted_and_documented(self):
        infos = list_models()
        assert tuple(i.name for i in infos) == ALL_MODELS
        for info in infos:
            assert info.summary
            for param in info.params:
                assert param.meaning
                assert param.default >= param.minimum

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_builtin_verifies(self, name):
        report = build_model(name).verify()
        assert report.passed, report.to_text()

    def test_unknown_model(self):
        with pytest.raises(ModelError, match="available"):
            build_model("sphere_eversion")

    def test_unknown_parameter(self):
        with pytest.raises(ModelError, match="no parameter"):
            build_model("node_curve", twist=1)

    def test_bool_parameter_rejected(self):
        with pytest.raises(ModelError, match="integer"):
            build_model("node_curve", m=True)

    def test_parameter_below_minimum(self):
        with pytest.raises(ModelError, match="at least"):
            build_model("node_curve", k=2)
        with pytest.raises(ModelError, match="at least"):
            build_model("node_curve", m=0)

    def test_parameter_above_maximum(self):
        with pytest.raises(ModelError, match="at most 36"):
            build_model("node_curve", k=37)
        with pytest.raises(ModelError, match="at most 36"):
            build_model("pair_C_R", k=99999999999999999999)

    def test_parameters_change_name(self):
        scene = build_model("kashiwara_point", d0=1, d1=4)
        assert scene.name == "kashiwara_point(d0=1, d1=4, k=3)"

    def test_each_call_builds_a_scene_only_its_caller_keeps(self):
        first, second = build_model("pair_C_R", m=5), build_model("pair_C_R", m=5)
        assert first == second and first is not second
        dropped = weakref.ref(first)
        del first
        gc.collect()
        assert dropped() is None

    def test_plane_models_never_call_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_model called product")

        monkeypatch.setattr(cfcalc.complexes, "product", refuse)
        assert not hasattr(cfcalc.scenes, "product")
        for name in ("node_curve", "smooth_line_in_C2"):
            build_model(name)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_each_model_fits_the_scene_budget_at_its_maximum_k(self, name, monkeypatch):
        # Every parameter at its maximum.  The budget is checked for the
        # complex, then for the whole scene, before anything is closed; the
        # build stops at the complex's closure, since a plane model at k = 36
        # takes about a second to build.  The document the model writes holds
        # the lists and objects of its emission, so its brackets are the
        # emission's.
        class Admitted(Exception):
            pass

        figures, docs = [], []
        within, read = cfcalc.scenes._within_budget, cfcalc.scenes._scene_from_doc

        def spy(bound, what):
            within(bound, what)
            figures.append(bound)

        def stop(gens):
            raise Admitted

        def capture(doc):
            docs.append(doc)
            return read(doc)

        (info,) = [info for info in list_models() if info.name == name]
        params = {p.name: p.maximum for p in info.params}
        monkeypatch.setattr(cfcalc.scenes, "_within_budget", spy)
        monkeypatch.setattr(cfcalc.scenes, "_close", stop)
        monkeypatch.setattr(cfcalc.scenes, "_scene_from_doc", capture)
        with pytest.raises(Admitted):
            build_model(name, **params)
        assert params["k"] == 36 and len(figures) == 2
        assert figures[1] <= cfcalc.complexes.MAX_SIMPLICES
        text = json.dumps(docs[0])
        brackets = text.count("[") + text.count("{")
        assert brackets <= cfcalc.scenes.MAX_SCENE_BRACKETS
        if name == "node_curve":  # the largest: 744 k^2 faces
            assert figures == [964_224, 965_792] and brackets == 62_482

    @pytest.mark.parametrize("m, k", [(1, 3), (6, 4), (2**61, 36)])
    def test_pair_C_R_is_the_kashiwara_point_scene_without_the_point(self, m, k):
        pair = json.loads(emit_scene(build_model("pair_C_R", m=m, k=k)))
        point = json.loads(emit_scene(build_model("kashiwara_point", d0=0, d1=m, k=k)))
        assert pair.pop("name") == f"pair_C_R(k={k}, m={m})"
        assert point.pop("name") == f"kashiwara_point(d0=0, d1={m}, k={k})"
        assert pair.pop("comment") != point.pop("comment")
        assert pair == point

    def test_zero_multiplicity_drops_stratum(self):
        scene = build_model("kashiwara_point", d0=0)
        assert [s.name for s in scene.cycle] == ["ambient"]
        empty = build_model("kashiwara_point", d0=0, d1=0)
        assert len(empty.cycle) == 0
        assert empty.verify().passed


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_emit_parse_fixed_point(self, name):
        for k in (3, 4):
            scene = build_model(name, k=k)
            text = emit_scene(scene)
            again = parse_scene(text)
            assert again == scene
            assert emit_scene(again) == text

    @settings(max_examples=20, deadline=None)
    @given(
        d0=st.integers(min_value=0, max_value=5),
        d1=st.integers(min_value=0, max_value=5),
        k=st.integers(min_value=3, max_value=5),
    )
    def test_kashiwara_family_round_trips(self, d0, d1, k):
        scene = build_model("kashiwara_point", d0=d0, d1=d1, k=k)
        assert parse_scene(emit_scene(scene)) == scene

    def test_equality_tracks_canonical_text(self):
        a = build_model("pair_C_R")
        b = parse_scene(emit_scene(a))
        c = build_model("pair_C_R", m=2)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_emitted_text_is_canonical_json(self):
        text = emit_scene(build_model("node_curve"))
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    def test_building_and_parsing_build_no_index(self):
        # The per-complex order waits for the first calculus call that
        # reads it.
        scene = parse_scene(emit_scene(build_model("node_curve", m=5)))
        spaces = [scene.ambient] + [sub.as_complex() for _, sub in scene.subcomplexes]
        assert not any(map(order_built, spaces))
        # verify reads only the open star of M, so the ambient's order is
        # built by the first call that asks for it, not before
        scene.verify()
        assert not order_built(scene.ambient)
        scene.ambient.ordered()
        assert order_built(scene.ambient)

    @pytest.mark.parametrize("model", ["antipodal_cover", "kashiwara_point", "pair_C_R"])
    def test_verify_with_a_conjugation_sorts_no_ambient(self, model):
        # the invariance row reads the solution index at its support's images
        scene = parse_scene(emit_scene(build_model(model)))
        assert scene.verify().passed
        assert not order_built(scene.ambient)

    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize("model", ["node_curve", "smooth_line_in_C2"])
    def test_verify_and_the_indices_build_nothing_over_the_ambient(self, model, k):
        # Without a conjugation every row reads the solution index on the
        # open star of M or on the strata supports alone.
        scene = parse_scene(emit_scene(build_model(model, k=k)))
        scene.verify()
        hyperfunction_index(scene.pair, scene.cycle)
        parity_index(scene.pair, scene.cycle)
        assert not order_built(scene.ambient)
        assert "_vertices" not in scene.ambient.__dict__

    def test_each_simplex_list_is_closed_once(self, monkeypatch):
        # The plane models' ambient subcomplex repeats the complex's list,
        # so it is the complex itself and is not closed again.
        closed = []
        close = cfcalc.complexes._face_closure

        def counted(gens):
            closed.append(len(gens))
            return close(gens)

        monkeypatch.setattr(cfcalc.complexes, "_face_closure", counted)
        built = build_model("node_curve", k=3)
        assert len(closed) == 4
        parsed = parse_scene(emit_scene(built))
        assert len(closed) == 8 and parsed == built
        for scene in (built, parsed):
            assert scene.subcomplex("ambient").as_complex() is scene.ambient

    def test_canonical_text_is_built_on_first_use(self, monkeypatch):
        text = emit_scene(build_model("pair_C_R"))
        built = []

        def counted(scene):
            built.append(scene.name)
            return canonical_doc(scene)

        canonical_doc = cfcalc.scenes._canonical_doc
        monkeypatch.setattr(cfcalc.scenes, "_canonical_doc", counted)
        parsed = parse_scene(text)
        fresh = build_model("pair_C_R")
        parsed.verify()
        assert built == []
        assert parsed.canonical_text is parsed.canonical_text
        assert parsed.canonical_text == text and built == [parsed.name]
        emit_scene(fresh)
        assert built == [parsed.name, fresh.name]


def reparse(doc: dict):
    return parse_scene(json.dumps(doc))


class TestParseErrors:
    def test_syntax_error_reports_position(self):
        with pytest.raises(SceneSyntaxError, match=r"line 1, column 6"):
            parse_scene('{"a" "b"}')

    def test_top_level_must_be_object(self):
        with pytest.raises(SceneSemanticError, match="top level"):
            parse_scene("[1, 2]")

    def test_missing_key(self):
        doc = node_doc()
        del doc["probes"]
        with pytest.raises(SceneSemanticError, match="missing key 'probes'"):
            reparse(doc)

    def test_unknown_key(self):
        doc = node_doc()
        doc["extra"] = 1
        with pytest.raises(SceneSemanticError, match="unknown key 'extra'"):
            reparse(doc)

    def test_unresolved_real_form(self):
        doc = node_doc()
        doc["real_form"]["M"] = "ghost"
        with pytest.raises(SceneSemanticError, match=r"real_form\.M.*'ghost'"):
            reparse(doc)

    def test_unresolved_stratum_support(self):
        doc = node_doc()
        doc["strata"][0]["support"] = "ghost"
        with pytest.raises(SceneSemanticError, match=r"strata\[0\]\.support"):
            reparse(doc)

    def test_eu_default_is_pinned(self):
        doc = node_doc()
        doc["strata"][0]["eu"]["default"] = 2
        with pytest.raises(SceneSemanticError, match="normalized to 1"):
            reparse(doc)

    def test_smooth_stratum_rejects_override(self):
        doc = node_doc()
        doc["strata"][0]["smooth"] = True
        with pytest.raises(SceneSemanticError, match="identically 1"):
            reparse(doc)

    def test_codim_bounded_by_complex_dim(self):
        doc = node_doc()
        doc["strata"][0]["codim"] = 3
        with pytest.raises(SceneSemanticError, match="codim"):
            reparse(doc)

    def test_support_dimension_checked(self):
        doc = node_doc()
        doc["strata"][0]["codim"] = 2
        with pytest.raises(SceneSemanticError, match="codimension-2"):
            reparse(doc)

    def test_duplicate_probe(self):
        doc = node_doc()
        doc["probes"].append(doc["probes"][0])
        with pytest.raises(SceneSemanticError, match="duplicate probe"):
            reparse(doc)

    def test_probe_outside_real_form(self):
        doc = node_doc()
        doc["probes"].append(["b1.b1"])
        with pytest.raises(SceneSemanticError, match=r"probes\[6\]"):
            reparse(doc)

    def test_expectation_at_undeclared_probe(self):
        doc = node_doc()
        doc["expect"]["hyperfunction_index"].append(
            {"at": ["b1.c", "c.c"], "value": 1}
        )
        with pytest.raises(SceneSemanticError, match="not a declared probe"):
            reparse(doc)

    def test_unknown_check_name(self):
        doc = node_doc()
        doc["expect"]["checks"].append("spectral_flow")
        with pytest.raises(SceneSemanticError, match="known checks"):
            reparse(doc)

    @pytest.mark.parametrize(
        "path",
        [
            ("strata", 0, "multiplicity"),
            ("strata", 0, "codim"),
            ("strata", 0, "eu", "overrides", 0, "value"),
            ("expect", "hyperfunction_index", 0, "value"),
            ("real_form", "complex_dim"),
        ],
        ids=lambda p: ".".join(map(str, p)),
    )
    def test_int_fields_are_bounded(self, path):
        doc = node_doc()
        *parents, key = path
        at(doc, parents)[key] = -(2**62) - 1
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
        with pytest.raises(SceneSemanticError, match=rf"^{re.escape(where)}: must be at most 2\^62"):
            reparse(doc)
        at(doc, parents)[key] = 2**62  # at the bound: refused, if at all, for another reason
        try:
            reparse(doc)
        except SceneSemanticError as err:
            assert "2^62" not in str(err)

    def test_int_fields_reject_bool(self):
        doc = node_doc()
        doc["strata"][0]["multiplicity"] = True
        with pytest.raises(SceneSemanticError, match="integer"):
            reparse(doc)

    # Each malformed simplex, at the complex and in a subcomplex, with the
    # message the per-element checks have always given.
    @pytest.mark.parametrize("where", ["complex.maximal_simplices", "subcomplexes.real_line"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (["b0", 7], "[1][1]: expected a nonempty string"),
            (["", "c"], "[1][0]: expected a nonempty string"),
            (["c", "c"], "[1]: duplicate vertices in simplex ['c', 'c']"),
            (["c", "b0", "c"], "[1]: duplicate vertices in simplex ['c', 'b0', 'c']"),
            (["b\udc00", "c"], "[1][0]: holds a lone surrogate escape, which is not text"),
            ([], "[1]: a simplex needs at least one vertex"),
            ("c", "[1]: expected a list"),
        ],
        ids=["not_a_string", "empty_name", "duplicate", "unsorted_duplicate",
             "lone_surrogate", "empty", "not_a_list"],
    )
    def test_malformed_simplex(self, where, bad, message):
        doc = json.loads(emit_scene(build_model("pair_C_R")))
        at(doc, where.split("."))[1] = bad
        with pytest.raises(SceneSemanticError) as err:
            reparse(doc)
        assert str(err.value) == where + message

    # Library refusals a scene reaches, each under the path of its entry: an
    # edit of pair_C_R's emission sets each (path, value) it lists.
    @pytest.mark.parametrize(
        "edits, message",
        [
            (
                {("subcomplexes", "origin"): [["zz"]]},
                "subcomplexes.origin: generator zz is not a simplex of the parent complex",
            ),
            (
                {("strata", 0, "multiplicity"): 0},
                "strata[0]: stratum 'ambient' needs multiplicity at least 1",
            ),
            (
                {
                    ("subcomplexes", "ends"): [["b0"], ["b3"]],
                    ("strata",): [
                        {"codim": 0, "multiplicity": 1, "name": "ambient", "support": "ambient"},
                        {"codim": 1, "multiplicity": 1, "name": "two", "support": "ends"},
                    ],
                },
                "strata[1]: stratum 'two' has disconnected support",
            ),
        ],
        ids=["stray_generator", "zero_multiplicity", "disconnected_support"],
    )
    def test_library_refusal_under_its_path(self, edits, message):
        doc = json.loads(emit_scene(build_model("pair_C_R")))
        for (*parents, key), value in edits.items():
            at(doc, parents)[key] = value
        with pytest.raises(SceneSemanticError) as err:
            reparse(doc)
        assert str(err.value) == message

    def test_bad_simplex_in_subcomplex(self):
        doc = node_doc()
        doc["subcomplexes"]["node"].append(["c.c", "c.c"])
        with pytest.raises(SceneSemanticError, match="duplicate vertices"):
            reparse(doc)

    def test_conjugation_must_preserve_supports(self):
        doc = json.loads(emit_scene(build_model("pair_C_R")))
        conj = doc["real_form"]["conjugation"]
        assert conj, "model should declare a reflection"
        doc["subcomplexes"]["half"] = [
            ["b0", "b1", "c"], ["b1", "b2", "c"], ["b2", "b3", "c"],
        ]
        doc["strata"] = [
            {
                "codim": 0,
                "multiplicity": 1,
                "name": "half",
                "support": "half",
            }
        ]
        doc["expect"] = {}
        with pytest.raises(SceneSemanticError, match="conjugation"):
            reparse(doc)


# --- simplex lists are read in bulk exactly as one simplex at a time ---


def read(fn, *args):
    """fn(*args), or the text of the SceneSemanticError it raises."""
    try:
        return fn(*args)
    except SceneSemanticError as err:
        return f"refused: {err}"


def one_by_one(value: list, path: str) -> list:
    """The simplices of value read one at a time, the reader every refusal
    takes."""
    return [cfcalc.scenes._as_simplex(v, f"{path}[{i}]") for i, v in enumerate(value)]


class Anywhere:
    """The simplices an entry list may name: all of them."""

    def __contains__(self, simplex) -> bool:
        return True


VALID = [["a", "b"], ["b", "c"], ["c"], ["a", "b", "c"]]
# one item of each kind the bulk checks doubt; only the unsorted one is read
STRAYS = {
    "empty_simplex": [],
    "empty_name": ["", "c"],
    "unsorted": ["c", "a"],
    "duplicate": ["c", "c"],
    "unsorted_duplicate": ["c", "a", "c"],
    "comma": ["a", "c,d"],
    "whitespace": ["a\tb"],
    "lone_surrogate": ["a", "b\udc00"],
    "not_a_string": ["a", 7],
    "null_name": [None],
    "not_a_list": "c",
}


@pytest.mark.parametrize("place", [0, 2, 4])
@pytest.mark.parametrize("kind", sorted(STRAYS))
def test_simplex_lists_read_in_bulk_as_one_by_one(kind, place):
    value = VALID[:place] + [STRAYS[kind]] + VALID[place:]
    bulk = read(cfcalc.scenes._as_simplices, value, "p")
    assert bulk == read(one_by_one, value, "p")
    assert isinstance(bulk, str) == (kind != "unsorted")
    # the at lists of an entry list: the same simplices, or the same refusal
    # under the entry's at
    doc = [{"at": v, "value": i} for i, v in enumerate(value)]
    expected = (
        bulk.replace(f"p[{place}]", f"p[{place}].at", 1) if isinstance(bulk, str)
        else dict(zip(bulk, range(len(value))))
    )
    assert read(cfcalc.scenes._as_entries, doc, "p", Anywhere(), "x") == expected


@pytest.mark.parametrize("name", ALL_MODELS)
def test_emitted_simplex_lists_are_read_in_bulk(name):
    doc = json.loads(emit_scene(build_model(name)))
    lists = [doc["complex"]["maximal_simplices"], doc["probes"], *doc["subcomplexes"].values()]
    lists += [[e["at"] for e in entries] for key, entries in doc["expect"].items()
              if key != "checks"]
    for value in filter(None, lists):
        simplices = cfcalc.scenes._simplices(value)
        assert simplices == one_by_one(value, "p")
        assert {type(s) for s in simplices} == {tuple}


NAME = st.sampled_from(["a", "b", "c", "d", "", "a b", "c,d", "e\udc00", 7, None, True, ["a"]])
ITEM = (
    st.lists(NAME, max_size=4)
    | st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True).map(sorted)
    | st.sampled_from(["a", 1, None, {"a": 1}])
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ITEM, max_size=6))
def test_random_simplex_lists_read_in_bulk_as_one_by_one(value):
    bulk = read(cfcalc.scenes._as_simplices, value, "p")
    assert bulk == read(one_by_one, value, "p")
    if not isinstance(bulk, str):
        assert all(type(s) is tuple for s in bulk)


class TestSceneAccessors:
    def test_subcomplex_lookup(self):
        scene = build_model("node_curve")
        assert not scene.subcomplex("node").is_empty
        with pytest.raises(ModelError, match="no subcomplex named 'blob'"):
            scene.subcomplex("blob")

    def test_scene_records_real_form_name(self):
        scene = build_model("smooth_line_in_C2")
        assert scene.real_form_name == "real_plane"
        assert scene.pair.real_form == scene.subcomplex("real_plane")


# --- fuzzing: any input parses to a Scene or raises a SceneError ---

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

SCENE_SHAPED = st.fixed_dictionaries(
    {key: JSON for key in ("complex", "expect", "name", "probes", "real_form", "strata", "subcomplexes")}
)


def parse_or_refuse(text: str) -> None:
    """Parse; an accepted scene must re-emit to the same canonical text."""
    try:
        scene = parse_scene(text)
    except SceneError:
        return
    assert emit_scene(parse_scene(emit_scene(scene))) == emit_scene(scene)


@lru_cache(maxsize=None)
def emitted(name: str) -> str:
    return emit_scene(build_model(name))


def paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def renamed(node, old: str, new: str):
    if isinstance(node, dict):
        return {renamed(k, old, new): renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [renamed(v, old, new) for v in node]
    return new if node == old else node


@st.composite
def mutated_emissions(draw):
    """A built-in model's emission with one key or entry dropped, one value
    replaced, or one vertex renamed everywhere or at one place."""
    doc = json.loads(emitted(draw(st.sampled_from(ALL_MODELS))))
    kind = draw(st.sampled_from(("drop", "replace", "rename", "rename_once")))
    if kind in ("rename", "rename_once"):
        names = sorted({v for s in doc["complex"]["maximal_simplices"] for v in s})
        old = draw(st.sampled_from(names))
        value = draw(st.sampled_from(names) | st.text(max_size=4))
        if kind == "rename":
            return renamed(doc, old, value)
        spots = [p for p in paths(doc) if p and at(doc, p) == old]
    else:
        value = draw(JSON)
        spots = [p for p in paths(doc) if p]
    path = draw(st.sampled_from(spots))
    parent = at(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(JSON.map(json.dumps), SCENE_SHAPED.map(json.dumps), st.text(max_size=40)))
    def test_arbitrary_input(self, text):
        parse_or_refuse(text)

    @settings(max_examples=100, deadline=None)
    @given(mutated_emissions())
    def test_mutated_emissions(self, doc):
        parse_or_refuse(json.dumps(doc))


@st.composite
def scene_documents(draw):
    """A scene document with no conjugation: a complex on at most 8
    vertices, a random real form M, and one to three strata, each with a
    connected support of dimension 2(n - codim) for complex_dim n, as the
    parser requires, and a random eu where it is flagged singular."""
    names = [f"v{i}" for i in range(draw(st.sampled_from(range(1, 9))))]

    def simplex_on(size, among=names):
        return sorted(draw(st.permutations(among))[:size])

    def face_of(simplex):
        return simplex_on(draw(st.integers(1, len(simplex))), simplex)

    n = draw(st.integers(1, 3))
    subcomplexes, strata, maximal, seen = {}, [], [], set()
    for i in range(draw(st.integers(1, 3))):
        codim = draw(st.integers(max(0, n - (len(names) - 1) // 2), n))
        size = 2 * (n - codim) + 1
        gens = [simplex_on(size)]
        for _ in range(draw(st.integers(0, 2)) if size > 1 else 0):
            # the next generator shares a vertex with the support so far
            pivot = draw(st.sampled_from(sorted({v for g in gens for v in g})))
            rest = simplex_on(size - 1, [v for v in names if v != pivot])
            gens.append(sorted([pivot, *rest]))
        key = frozenset(map(tuple, gens))
        if key in seen:  # the parser refuses two strata on one support
            continue
        seen.add(key)
        maximal += gens
        subcomplexes[f"S{i}"] = gens
        stratum = {
            "name": f"s{i}", "support": f"S{i}", "codim": codim,
            "multiplicity": draw(st.integers(1, 3)),
            "allow_empty_trace": draw(st.booleans()),
        }
        if not draw(st.booleans()):
            stratum["smooth"] = False
            eu = {}  # keyed by simplex: the parser refuses a second entry at one
            for _ in range(draw(st.integers(0, 3))):
                eu[tuple(face_of(draw(st.sampled_from(gens))))] = draw(st.integers(-3, 3))
            stratum["eu"] = {
                "default": 1,
                "overrides": [{"at": list(at), "value": v} for at, v in eu.items()],
            }
        strata.append(stratum)
    for _ in range(draw(st.integers(0, 2))):
        maximal.append(simplex_on(draw(st.integers(1, min(4, len(names))))))
    m_gens = [face_of(draw(st.sampled_from(maximal))) for _ in range(draw(st.integers(0, 3)))]
    probes = sorted({tuple(face_of(g)) for g in m_gens if draw(st.booleans())})
    return {
        "name": "random", "complex": {"maximal_simplices": maximal},
        "subcomplexes": {"M": m_gens, **subcomplexes},
        "real_form": {"M": "M", "complex_dim": n},
        "strata": strata, "probes": [list(p) for p in probes], "expect": {},
    }


@settings(max_examples=200, deadline=None)
@given(scene_documents())
def test_random_scene_documents_verify_and_round_trip(doc):
    scene = parse_scene(json.dumps(doc))
    report = scene.verify()
    identities = [
        e for e in report.entries if e.check.split("[")[0] in ("triangle_identity", "base_change")
    ]
    assert len(identities) == 4 + len(scene.cycle)
    assert all(e.status == "pass" for e in identities), report.to_text()
    text = emit_scene(scene)
    again = parse_scene(text)
    assert again == scene and emit_scene(again) == text
    assert again.verify() == report


@st.composite
def scene_doubles(draw):
    """A scene document that doubles a random complex X along a full
    subcomplex M: X glued to its mirror copy (vertex vi renamed wi) along
    M.  The conjugation swaps the two copies and fixes exactly M, each
    stratum is a connected support in X that meets M together with its
    mirror image, eu is symmetric, and one to three probes lie in M."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    fixed = set(draw(st.permutations(names))[: draw(st.integers(1, len(names) - 1))])

    def simplex_on(size, among=names):
        return sorted(draw(st.permutations(among))[:size])

    def face_of(simplex):
        return simplex_on(draw(st.integers(1, len(simplex))), simplex)

    def twin(v):
        return v if v in fixed else "w" + v[1:]

    def mirror(simplex):
        return sorted(map(twin, simplex))

    n = draw(st.integers(1, 3))
    subcomplexes, strata, maximal, seen = {}, [], [[v] for v in sorted(fixed)], set()
    for i in range(draw(st.integers(1, 3))):
        codim = draw(st.integers(max(0, n - (len(names) - 1) // 2), n))
        size = 2 * (n - codim) + 1
        # the support meets M, so it and its mirror image are one piece
        pivot = draw(st.sampled_from(sorted(fixed)))
        gens = [sorted([pivot, *simplex_on(size - 1, [v for v in names if v != pivot])])]
        for _ in range(draw(st.integers(0, 2)) if size > 1 else 0):
            pivot = draw(st.sampled_from(sorted({v for g in gens for v in g})))
            rest = simplex_on(size - 1, [v for v in names if v != pivot])
            gens.append(sorted([pivot, *rest]))
        doubled = gens + [mirror(g) for g in gens]
        key = frozenset(map(tuple, doubled))
        if key in seen:  # the parser refuses two strata on one support
            continue
        seen.add(key)
        maximal += gens
        subcomplexes[f"S{i}"] = doubled
        stratum = {
            "name": f"s{i}", "support": f"S{i}", "codim": codim,
            "multiplicity": draw(st.integers(1, 3)),
        }
        if not draw(st.booleans()):
            eu = {}
            for _ in range(draw(st.integers(0, 3))):
                at = face_of(draw(st.sampled_from(gens)))
                eu[tuple(at)] = eu[tuple(mirror(at))] = draw(st.integers(-3, 3))
            stratum["smooth"] = False
            stratum["eu"] = {
                "default": 1,
                "overrides": [{"at": list(at), "value": v} for at, v in sorted(eu.items())],
            }
        strata.append(stratum)
    for _ in range(draw(st.integers(0, 2))):
        maximal.append(simplex_on(draw(st.integers(1, min(4, len(names))))))
    # M is full in X: every simplex of X on the fixed vertices
    m_gens = sorted({tuple(v for v in g if v in fixed) for g in maximal} - {()})
    probes = {tuple(face_of(list(draw(st.sampled_from(m_gens))))) for _ in range(3)}
    swap = {v: twin(v) for g in maximal for v in g if v not in fixed}
    return {
        "name": "double", "complex": {"maximal_simplices": maximal + [mirror(g) for g in maximal]},
        "subcomplexes": {"M": [list(g) for g in m_gens], **subcomplexes},
        "real_form": {
            "M": "M", "complex_dim": n, "conjugation": {**swap, **{w: v for v, w in swap.items()}},
        },
        "strata": strata, "probes": [list(p) for p in sorted(probes)], "expect": {},
    }


DOUBLE_ROWS = (
    "base_change", "boundary_parity", "conjugation_invariance", "parity_formula",
    "triangle_identity",
)


@settings(max_examples=200, deadline=None)
@given(scene_doubles())
def test_random_doubles_pass_the_conjugation_rows(doc):
    scene = parse_scene(json.dumps(doc))
    report = scene.verify()
    rows = [e for e in report.entries if e.check.split("[")[0] in DOUBLE_ROWS]
    # four triangles, a base change per stratum, one invariance row, and a
    # boundary and a parity row per probe
    probes = len(scene.pair.probes)
    assert probes >= 1 and len(rows) == 4 + len(scene.cycle) + 1 + 2 * probes
    assert all(e.status == "pass" for e in rows), report.to_text()


@st.composite
def scene_free_doubles(draw):
    """A scene document on a connected double with a strongly free
    conjugation and an empty real form: the circle on 2k vertices, k >= 3,
    under its half-turn, with a random complex Y hung at b0 and its mirror
    image (vertex yi renamed zi) hung at bk.  Y takes one new vertex per
    generator and touches the circle only at b0, so no simplex meets its
    image and distinct orbits of simplices have distinct vertex sets.
    Each stratum's support is the circle with the first j generators of Y
    and their mirror images, a connected invariant piece, and eu is
    symmetric."""
    k = draw(st.integers(3, 5))
    rim = 2 * k

    def twin(v):
        if v[0] == "b":
            return f"b{(int(v[1:]) + k) % rim}"
        return ("z" if v[0] == "y" else "y") + v[1:]

    def mirror(simplex):
        return sorted(map(twin, simplex))

    def face_of(simplex):
        return sorted(draw(st.permutations(simplex))[: draw(st.integers(1, len(simplex)))])

    circle = [sorted([f"b{i}", f"b{(i + 1) % rim}"]) for i in range(rim)]
    hung, reached = [], ["b0"]
    for j in range(draw(st.integers(1, 4))):
        # the new vertex yj and one to three vertices Y already reaches
        old = draw(st.permutations(reached))[: draw(st.integers(1, min(3, len(reached))))]
        hung.append(sorted([f"y{j}", *old]))
        reached.append(f"y{j}")

    n = draw(st.integers(1, 3))
    subcomplexes, strata = {"M": []}, []
    for j in sorted(draw(st.sets(st.integers(0, len(hung)), min_size=1, max_size=3))):
        gens = circle + hung[:j] + [mirror(g) for g in hung[:j]]
        subcomplexes[f"S{j}"] = gens
        stratum = {
            "name": f"s{j}", "support": f"S{j}", "codim": draw(st.integers(0, n)),
            "multiplicity": draw(st.integers(1, 3)),
            "allow_empty_trace": draw(st.booleans()),
        }
        if not draw(st.booleans()):
            eu = {}
            for _ in range(draw(st.integers(0, 3))):
                at = face_of(draw(st.sampled_from(gens)))
                eu[tuple(at)] = eu[tuple(mirror(at))] = draw(st.integers(-3, 3))
            stratum["smooth"] = False
            stratum["eu"] = {
                "default": 1,
                "overrides": [{"at": list(at), "value": v} for at, v in sorted(eu.items())],
            }
        strata.append(stratum)
    swap = {v: twin(v) for g in circle + hung for v in g}
    return {
        "name": "free_double",
        "complex": {"maximal_simplices": circle + hung + [mirror(g) for g in hung]},
        "subcomplexes": subcomplexes,
        "real_form": {
            "M": "M", "complex_dim": n, "conjugation": {**swap, **{w: v for v, w in swap.items()}},
        },
        "strata": strata, "probes": [], "expect": {},
    }


# the rows every free double declares: no probe, so the parity, boundary,
# dimension and shriek rows are not applicable
FREE_ROWS = ("base_change", "conjugation_invariance", "covering_parity", "triangle_identity")


@settings(max_examples=200, deadline=None)
@given(scene_free_doubles())
def test_random_free_doubles_pass_the_covering_rows(doc):
    scene = parse_scene(json.dumps(doc))
    report = scene.verify()
    rows = [e for e in report.entries if e.check.split("[")[0] in FREE_ROWS]
    # four triangles, a base change per stratum, one invariance row and the
    # covering rows of the Euler integral and of the orbit sums
    assert len(rows) == 4 + len(scene.cycle) + 1 + 2
    covering = [e.subject for e in rows if e.check == "covering_parity"]
    assert covering == ["euler_integral", "orbit_pushforward"]
    assert all(e.status == "pass" for e in rows), report.to_text()


@settings(max_examples=5, deadline=None)
@given(scene_free_doubles())
def test_cfcalc_verify_passes_written_free_doubles(tmp_path_factory, doc):
    doc["expect"] = {"checks": list(FREE_ROWS)}
    path = tmp_path_factory.mktemp("free_double") / "scene.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path)])
    assert code == 0, out.getvalue()
