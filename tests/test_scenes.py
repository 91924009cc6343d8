import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcalc import (
    ModelError,
    SceneSemanticError,
    SceneSyntaxError,
    build_model,
    emit_scene,
    list_models,
    parse_scene,
)

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

    def test_parameters_change_name(self):
        scene = build_model("kashiwara_point", d0=1, d1=4)
        assert scene.name == "kashiwara_point(d0=1, d1=4, k=3)"

    def test_zero_multiplicity_drops_stratum(self):
        scene = build_model("kashiwara_point", d0=0)
        assert [s.name for s in scene.cycle] == ["ambient"]
        empty = build_model("kashiwara_point", d0=0, d1=0)
        assert len(empty.cycle) == 0
        assert empty.verify().passed


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_emit_parse_fixed_point(self, name):
        scene = build_model(name)
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
        # Scenes stay cached for the life of the process, so the per-complex
        # index must wait for the first calculus call.
        scene = parse_scene(emit_scene(build_model("node_curve", m=5)))
        spaces = [scene.ambient] + [
            sub.__dict__["_complex"] for _, sub in scene.subcomplexes if "_complex" in sub.__dict__
        ]
        assert all("_index" not in space.__dict__ for space in spaces)
        scene.verify()
        assert "_index" in scene.ambient.__dict__


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

    def test_int_fields_reject_bool(self):
        doc = node_doc()
        doc["strata"][0]["multiplicity"] = True
        with pytest.raises(SceneSemanticError, match="integer"):
            reparse(doc)

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
