#!/usr/bin/env python3
"""Randomized stress run of the structural identities.

Hammers the duality involution, the costalk restriction against its
two-dual definition, the maximal simplices read from the generators
against the facet rule, the restriction triangle, pushforward
functoriality and product multiplicativity with many random instances,
far past what the test suite runs by default.

    python3 scripts/stress_identities.py --rounds 1000 --seed 3
"""

import argparse
import random
import sys

from cfcalc import (
    ConstructibleFunction,
    SimplicialComplex,
    build_complex,
    compose,
    dual,
    euler_integral,
    indicator,
    product,
    pushforward,
    restrict,
    shriek_restrict,
    simplicial_map,
    subcomplex,
    triangle_decompose,
)


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


def stress_duality(rng, rounds) -> None:
    for _ in range(rounds):
        space = random_complex(rng)
        phi = random_cf(rng, space)
        assert dual(dual(phi)) == phi


def random_closed(rng: random.Random, space):
    return subcomplex(space, [s for s in space.ordered() if rng.random() < 0.4])


def stress_shriek(rng, rounds) -> None:
    for _ in range(rounds):
        space = random_complex(rng)
        closed = random_closed(rng, space)
        phi = random_cf(rng, space)
        assert shriek_restrict(closed, phi) == dual(restrict(dual(phi), closed))


def stress_maximal(rng, rounds) -> None:
    for _ in range(rounds):
        space = random_complex(rng)
        closed = random_closed(rng, space)
        for made in (space, closed.as_complex()):
            # SimplicialComplex(...) knows no generators and scans for facets
            assert made.maximal_simplices() == SimplicialComplex(made.simplices).maximal_simplices()


def stress_triangle(rng, rounds) -> None:
    for _ in range(rounds):
        space = random_complex(rng)
        closed = random_closed(rng, space)
        phi = random_cf(rng, space)
        costalk, boundary = triangle_decompose(closed, phi)
        assert restrict(phi, closed) == costalk + boundary


def stress_functoriality(rng, rounds) -> None:
    for _ in range(rounds):
        source = random_complex(rng, max_vertices=6)
        mid = build_complex([[f"m{i}" for i in range(rng.randint(1, 4))]])
        last = build_complex([[f"t{i}" for i in range(rng.randint(1, 4))]])
        f = simplicial_map(
            source, mid,
            {v: rng.choice(sorted(mid.vertices)) for v in source.vertices},
        )
        g = simplicial_map(
            mid, last,
            {v: rng.choice(sorted(last.vertices)) for v in mid.vertices},
        )
        phi = random_cf(rng, source)
        assert pushforward(g, pushforward(f, phi)) == pushforward(compose(g, f), phi)


def stress_products(rng, rounds) -> None:
    for _ in range(rounds):
        left = random_complex(rng, max_vertices=5, max_dim=2)
        right = random_complex(rng, max_vertices=5, max_dim=2)
        lorder = sorted(left.vertices)
        rorder = sorted(right.vertices)
        rng.shuffle(lorder)
        rng.shuffle(rorder)
        space, _, _ = product(left, right, lorder, rorder)
        assert euler_integral(indicator(space)) == (
            euler_integral(indicator(left)) * euler_integral(indicator(right))
        )


def nonnegative(text: str) -> int:
    """A --rounds value: a whole number, zero or more."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=nonnegative, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    for name, fn, rounds in [
        ("duality involution", stress_duality, args.rounds),
        ("costalk restriction", stress_shriek, args.rounds),
        ("maximal simplices", stress_maximal, args.rounds),
        ("restriction triangle", stress_triangle, args.rounds),
        ("pushforward functoriality", stress_functoriality, args.rounds),
        ("product multiplicativity", stress_products, max(50, args.rounds // 10)),
    ]:
        fn(rng, rounds)
        print(f"{name}: {rounds} rounds ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
