"""The library refuses inputs that mix complexes or break a value class's
rules, each with its exact message (a stray simplex raises
MissingSimplexError, a ModelError); a declared dimension value with a
singular stratum gets a not-applicable row."""

import pytest

from cfcalc import (
    CharacteristicCycle,
    ConstructibleFunction,
    Expectations,
    Involution,
    ModelError,
    OpenSubset,
    RealComplexPair,
    Stratum,
    Subcomplex,
    build_complex,
    complement_open,
    indicator,
    involution,
    open_extend,
    open_pushforward,
    restrict,
    restrict_open,
    simplex,
    simplicial_map,
    smooth_stratum,
    solution_index,
    subcomplex,
    triangle_decompose,
    verify_scene,
)

EDGE = build_complex([["a", "b"]])
OTHER = build_complex([["x", "y"]])
WHOLE = subcomplex(EDGE, [["a", "b"]])
POINT = subcomplex(EDGE, [["a"]])
ELSEWHERE = subcomplex(OTHER, [["x"]])
ACROSS = simplicial_map(EDGE, OTHER, {"a": "x", "b": "y"})
OPEN_ELSEWHERE = complement_open(OTHER, ELSEWHERE)


def refusal(fn, *args) -> str:
    """The message of the ModelError that fn(*args) raises."""
    with pytest.raises(ModelError) as err:
        fn(*args)
    return str(err.value)


def dimension_row() -> str:
    """The row for a declared dimension value when a stratum is singular."""
    singular = Stratum("s", WHOLE, 0, 1, 2 * indicator(WHOLE), smooth=False)
    report = verify_scene(
        RealComplexPair(EDGE, POINT, 1, probes=(simplex("a"),)),
        CharacteristicCycle([singular]),
        Expectations(hyperfunction_dimension=((simplex("a"), 1),)),
    )
    (row,) = [e for e in report.entries if e.check == "value[hyperfunction_dimension]"]
    return f"{row.subject}: {row.status}, {row.note}"


REFUSALS = {
    "stratum_without_a_name": (
        lambda: refusal(Stratum, "", WHOLE, 0, 1, indicator(WHOLE)),
        "a stratum needs a nonempty name",
    ),
    "stratum_of_negative_codimension": (
        lambda: refusal(Stratum, "s", WHOLE, -1, 1, indicator(WHOLE)),
        "stratum 's' has negative codimension",
    ),
    "stratum_with_eu_elsewhere": (
        lambda: refusal(Stratum, "s", WHOLE, 0, 1, indicator(OTHER)),
        "stratum 's': eu lives on a different complex than the support",
    ),
    "pair_with_real_form_elsewhere": (
        lambda: refusal(RealComplexPair, EDGE, ELSEWHERE, 1),
        "real form does not live in the ambient complex",
    ),
    "pair_of_complex_dim_zero": (
        lambda: refusal(RealComplexPair, EDGE, POINT, 0),
        "complex_dim must be a positive integer",
    ),
    "pair_with_conjugation_elsewhere": (
        lambda: refusal(RealComplexPair, EDGE, WHOLE, 1, involution(OTHER, {})),
        "conjugation does not act on the ambient complex",
    ),
    "pair_with_a_repeated_probe": (
        lambda: refusal(RealComplexPair, EDGE, WHOLE, 1, None, (simplex("a"), simplex("a"))),
        "duplicate probe a",
    ),
    "expectation_off_the_real_form": (
        lambda: refusal(
            verify_scene,
            RealComplexPair(EDGE, POINT, 1),
            CharacteristicCycle([]),
            Expectations(parity_index=((simplex("a", "b"), 1),)),
        ),
        "parity_index is declared at a b, which is not a simplex of the real form",
    ),
    "solution_index_of_a_stratum_elsewhere": (
        lambda: refusal(
            solution_index,
            CharacteristicCycle([smooth_stratum("s", subcomplex(OTHER, [["x", "y"]]), 0, 1)]),
            EDGE,
        ),
        "stratum 's' lives on a different complex",
    ),
    "dimension_value_with_a_singular_stratum": (
        dimension_row, "a: not_applicable, dimension formula not applicable",
    ),
    "intersection_across_parents": (
        lambda: refusal(POINT.intersection, ELSEWHERE),
        "cannot intersect subcomplexes of different parents",
    ),
    "map_vertex_off_the_source": (
        lambda: refusal(ACROSS.vertex, "z"), "'z' is not a vertex of the source",
    ),
    "map_image_off_the_source": (
        lambda: refusal(ACROSS.image, simplex("a", "z")), "'z' is not a vertex of the source",
    ),
    "involution_between_two_complexes": (
        lambda: refusal(Involution, ACROSS), "an involution needs source equal to target",
    ),
    "function_at_a_non_simplex": (
        lambda: refusal(ConstructibleFunction, EDGE, {("a", "z"): 1}),
        "a z is not a simplex of the ambient complex",
    ),
    "indicator_of_an_integer": (
        lambda: refusal(indicator, 3), "cannot take the indicator of int",
    ),
    "restrict_across_parents": (
        lambda: refusal(restrict, indicator(EDGE), ELSEWHERE),
        "function does not live on the parent of the subcomplex",
    ),
    "triangle_decompose_across_parents": (
        lambda: refusal(triangle_decompose, ELSEWHERE, indicator(EDGE)),
        "function does not live on the parent of the subcomplex",
    ),
    "subcomplex_with_a_stray_simplex": (
        lambda: refusal(Subcomplex, EDGE, [["a"], ["x"]]),
        "x is not a simplex of the parent complex",
    ),
    "open_subset_with_a_stray_simplex": (
        lambda: refusal(OpenSubset, EDGE, [["a", "b"], ["x", "y"]]),
        "x y is not a simplex of the parent complex",
    ),
    "complement_in_another_complex": (
        lambda: refusal(complement_open, EDGE, ELSEWHERE),
        "subcomplex does not live in the given complex",
    ),
    "restrict_open_across_parents": (
        lambda: refusal(restrict_open, indicator(EDGE), OPEN_ELSEWHERE),
        "function does not live on the parent of the open subset",
    ),
    "open_extend_across_parents": (
        lambda: refusal(open_extend, OPEN_ELSEWHERE, indicator(EDGE)),
        "function does not live on the parent of the open subset",
    ),
    "open_pushforward_across_parents": (
        lambda: refusal(open_pushforward, OPEN_ELSEWHERE, indicator(EDGE)),
        "function does not live on the parent of the open subset",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_its_fault(case):
    produce, message = REFUSALS[case]
    assert produce() == message
