"""Locality: an operator given a function does the same work however much
of the complex lies far from the function's support.

The costalk at a point depends only on a neighbourhood of the point
(Kashiwara-Schapira, Sheaves on Manifolds, ch. IX), and each operator
below reads its function's support, the down-closure of it or its traces
on the subcomplex M.  So the peak allocation that tracemalloc reports for
a call may not grow, beyond SLACK, when disjoint 4-simplices far from the
support are added to the ambient and to M.  No timing is taken.  Every
call starts on freshly built complexes, so a table kept on a complex and
sized by it (an order, a position map, a vertex set) counts against the
call that builds it.

Exempt, as they are sized by their input by definition: pullback, which
has a value at every source simplex whose image is in the support, and
indicator, which is 1 at every simplex of its region.  The command-line
checks run `index --at` and `hyperdim --at` in process on a scene that was
parsed first: what they allocate beyond the parse, which reads the whole
text, stays within one fixed bound with the far part or without it.
"""

import contextlib
import gc
import io
import json
import operator
import tracemalloc
from functools import partial

import pytest

import cfcalc.calculus
import cfcalc.cli
from cfcalc import (
    ConstructibleFunction,
    SimplicialComplex,
    Subcomplex,
    build_complex,
    build_model,
    parse_scene,
    simplicial_map,
    solution_index,
)

FAR = (0, 2_000, 8_000)
# CPython serves some small objects from free lists that tracemalloc does
# not see, so a call's peak moves by a few KB with what ran before it;
# SLACK is far above that and far below one pointer per far simplex
# (31 simplices per 4-simplex, so 62,000 at 2,000)
SLACK = 64 * 1024  # bytes
# what one command may allocate beyond the parse, most of it argparse's:
# its first run in a process takes about 130 KB, later ones about 60 KB
CLI_BOUND = 256 * 1024  # bytes

BASE = build_model("node_curve", k=3)
BASE_SOLUTION = solution_index(BASE.cycle, BASE.ambient)
FAR_TOPS = [tuple(f"far{i}_{j}" for j in range(5)) for i in range(FAR[-1])]
FAR_FACES = {n: build_complex(FAR_TOPS[:n]).simplices for n in FAR}


def fresh(n: int):
    """node_curve(k=3)'s solution index and its real form M, on a new
    ambient and a new M that both also hold n far disjoint 4-simplices."""
    far = FAR_FACES[n]
    tops = BASE.ambient.maximal_simplices() + tuple(FAR_TOPS[:n])
    ambient = SimplicialComplex._closed(BASE.ambient.simplices | far, tops)
    real_form = SimplicialComplex._closed(BASE.pair.real_form.simplices | far)
    return (
        ConstructibleFunction(ambient, dict(BASE_SOLUTION.items)),
        Subcomplex._of(ambient, real_form),
    )


def identity_pushforward(phi, closed):
    """pushforward along the identity of phi's ambient; the map's vertex
    table is sized by the map by definition, so it is built first."""
    space = phi.ambient
    f = simplicial_map(space, space, {v: v for v in space.vertices})
    f._vertex_table()
    return partial(cfcalc.calculus.pushforward, f, phi)


# each operator by name: from phi and M, the call whose peak is taken; the
# kernel is read through its module, where a planted fault replaces it
OPERATORS = {
    "dual": lambda phi, closed: partial(cfcalc.calculus.dual, phi),
    "restrict": lambda phi, closed: partial(cfcalc.calculus.restrict, phi, closed),
    "mod2_reduce": lambda phi, closed: partial(cfcalc.calculus.mod2_reduce, phi),
    "euler_integral": lambda phi, closed: partial(cfcalc.calculus.euler_integral, phi),
    "add": lambda phi, closed: partial(operator.add, phi, phi),
    "sub": lambda phi, closed: partial(operator.sub, phi, 2 * phi),
    "shriek_restrict": lambda phi, closed: partial(cfcalc.calculus.shriek_restrict, closed, phi),
    "triangle_decompose": lambda phi, closed: partial(
        cfcalc.calculus.triangle_decompose, closed, phi
    ),
    "pushforward": identity_pushforward,
}


def traced_peak(call) -> int:
    """The peak bytes tracemalloc sees while call runs, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_peak_allocation_does_not_grow_with_the_far_part(name):
    peaks = [traced_peak(OPERATORS[name](*fresh(n))) for n in FAR]
    assert max(peaks) <= peaks[0] + SLACK, dict(zip(FAR, peaks))


def scene_text(n: int) -> str:
    """node_curve(k=3)'s scene with n far disjoint 4-simplices added to the
    ambient and to the real form."""
    doc = json.loads(BASE.canonical_text)
    far = [list(s) for s in FAR_TOPS[:n]]
    doc["complex"]["maximal_simplices"] += far
    doc["subcomplexes"][doc["real_form"]["M"]] += far
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["index", "hyperdim"])
def test_value_at_a_point_allocates_a_fixed_amount_beyond_the_parse(command, monkeypatch):
    at = ",".join(BASE.pair.probes[0])
    peaks, outputs = [], set()
    for n in (FAR[0], FAR[-1]):
        scene = parse_scene(scene_text(n))
        monkeypatch.setattr(cfcalc.cli, "load_scene", lambda spec: scene)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            peaks.append(traced_peak(partial(cfcalc.cli.main, [command, "far", "--at", at])))
        outputs.add(out.getvalue())
    assert len(outputs) == 1
    assert max(peaks) <= CLI_BOUND, peaks
