"""Shared geometry builders and randomized generators for the test suite."""

import json
import os
import random
import sys

import pytest
from hypothesis import strategies as st

# Neither the suite nor any child it starts writes bytecode, so no cache is
# left under src/ for a later cold start to read.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from cfcalc import (  # noqa: E402
    ConstructibleFunction,
    build_complex,
    build_model,
    emit_scene,
    involution,
    subcomplex,
)


def polygon(k: int, prefix: str = "b"):
    """Boundary of a k-gon: a triangulated circle."""
    return build_complex(
        [[f"{prefix}{i}", f"{prefix}{(i + 1) % k}"] for i in range(k)]
    )


def disk(k: int = 3):
    """Cone over the 2k-gon: center vertex c, rim b0..b(2k-1)."""
    rim = 2 * k
    return build_complex(
        [["c", f"b{i}", f"b{(i + 1) % rim}"] for i in range(rim)]
    )


def diameter(space, k: int = 3):
    """The closed axis b0 - c - bk inside disk(k)."""
    return subcomplex(space, [["b0", "c"], [f"b{k}", "c"]])


def reflection(space, k: int = 3):
    """Reflection of disk(k) across the diameter."""
    rim = 2 * k
    return involution(
        space,
        {f"b{i}": f"b{(rim - i) % rim}" for i in range(1, rim) if i != k},
    )


def antipodal(space, k: int):
    """The free half-turn of polygon(2k)."""
    return involution(space, {f"b{i}": f"b{(i + k) % (2 * k)}" for i in range(2 * k)})


def span(closed) -> frozenset:
    """The parent's simplices whose vertices all lie in the subcomplex M,
    listed from the definition; M is full exactly when this is M."""
    vertices = {v for s in closed.simplices for v in s}
    return frozenset(u for u in closed.parent.simplices if vertices.issuperset(u))


def order_built(space) -> bool:
    """Whether the complex's canonical order has been built: the key
    `_frozen.cached` keeps it under, which the CACHED table of
    tests/test_complexes.py pins."""
    return "_ordered" in vars(space)


@st.composite
def complexes(draw, max_vertices: int = 8, max_dim: int = 3):
    """A random complex on v0, v1, ...: the face closure of one to twice
    as many random simplices as vertices, each of at most max_dim + 1 vertices."""
    nv = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    sims = draw(
        st.lists(
            st.sets(st.sampled_from(vertices), min_size=1, max_size=min(max_dim + 1, nv)),
            min_size=1,
            max_size=2 * nv,
        )
    )
    return build_complex(sims)


def random_complex(rng: random.Random, max_vertices: int = 8, max_dim: int = 3):
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    sims = []
    for _ in range(rng.randint(1, 2 * nv)):
        size = rng.randint(1, min(max_dim + 1, nv))
        sims.append(rng.sample(vertices, size))
    return build_complex(sims)


def random_cf(rng: random.Random, space, bound: int = 5, density: float = 0.5):
    values = {
        s: rng.randint(-bound, bound)
        for s in space.ordered()
        if rng.random() < density
    }
    return ConstructibleFunction(space, values)


def random_subcomplex(rng: random.Random, space, density: float = 0.4):
    return subcomplex(
        space, [s for s in space.ordered() if rng.random() < density]
    )


def random_free_involution(rng: random.Random):
    """A strongly free involution with an invariant random function.

    Flips a coin between the antipodal turn of an even polygon and the
    swap of two disjoint copies of a random complex.
    """
    if rng.random() < 0.5:
        k = rng.randint(2, 6)
        space = polygon(2 * k)
        tau = antipodal(space, k)
    else:
        base = random_complex(rng, max_vertices=5, max_dim=2)
        sims = list(base.simplices)
        doubled = build_complex(
            [[f"u{v[1:]}" for v in s] for s in sims]
            + [[f"w{v[1:]}" for v in s] for s in sims]
        )
        swap = {}
        for v in base.vertices:
            swap[f"u{v[1:]}"] = f"w{v[1:]}"
            swap[f"w{v[1:]}"] = f"u{v[1:]}"
        space, tau = doubled, involution(doubled, swap)

    values = {}
    for s in space.ordered():
        if s in values:
            continue
        v = rng.randint(-4, 4)
        values[s] = v
        values[tau.image(s)] = v
    return tau, ConstructibleFunction(space, values)


@pytest.fixture(scope="session")
def corrupted_eu_path(tmp_path_factory):
    """node_curve scene file with eu forced to 3 at the crossing.

    The stored expectations still describe the honest node, so verifying
    this file must fail on the declared parity and index values.
    """
    doc = json.loads(emit_scene(build_model("node_curve")))
    override = doc["strata"][0]["eu"]["overrides"][0]
    assert override["at"] == ["c.c"] and override["value"] == 2
    override["value"] = 3
    path = tmp_path_factory.mktemp("fixtures") / "node_curve_corrupted_eu.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path
