#!/usr/bin/env python3
"""Time the two-variable models on the size ladder and write BENCH_ladder_<label>.json.

    python3 scripts/ladder.py --label base
    python3 scripts/ladder.py --label smoke --ks 3 --repeats 1 --out-dir /tmp

For node_curve and smooth_line_in_C2 (MODEL below) at each k it records,
as medians over --repeats runs, CPU time in milliseconds at the nominal
speed of perfbench's gauge: each measurement is rescaled by NOMINAL_S over
the mean of the gauge readings taken just before and just after it, as
gauge.rescaled does, so a change of the machine's speed between repeats or
between two files cancels.  Neighbouring measurements share a reading: the
one after a measurement is the one before the next, and untimed work, such
as building a fresh scene or writing a file, is followed by a fresh one.
  - build_ms: build_model(MODEL, k=k), which builds a new scene;
  - first_verify_ms: the first Scene.verify on that fresh scene, which
    builds every per-complex table it needs;
  - warm_verify_ms: Scene.verify again, at another seed, on the same
    scene, which keeps the rows that do not depend on the seed, so this
    times only the three seeded triangle rows;
  - cold_verify_ms: `python -m cfcalc verify "MODEL(k=K)"` as a child
    process, its user plus system time;
  - cold_hyperdim_ms: `python -m cfcalc hyperdim "MODEL(k=K)" --at c.c`
    as a child process, timed the same way;
  - cold_check_ms: `python -m cfcalc check "MODEL(k=K)"`, timed the same way;
  - star_ms: the one table kept on the real form M that walks the open
    star, built on another fresh scene: verify's run table
    (indices._star_runs, one run per trace, which only the seeded rows
    read; triangle_decompose builds no table and lists no star);
  - dual_ms: the first dual on a fresh scene, which sums over the faces of
    its function's support and keeps nothing on the ambient, of the
    solution index (solution_index, a sparse support) and of the
    ambient's indicator (indicator, every simplex, so it also sorts the
    whole ambient), each on a scene of its own; triangle_decompose takes
    no dual of the ambient, so first_verify_ms holds none of this;
  - parse_ms: parse_scene of a fresh scene's canonical text;
  - emit_ms: the canonical text of another fresh scene, which each scene
    writes on first use;
  - speed_before, speed_after: the machine's speed at the rung's first
    and last readings, NOMINAL_S over the gauge's reading(3) (2.0: the
    gauge's kernel runs twice as fast as on the box its nominal time was
    taken on); the times above are already rescaled.
Apart from the ladder it records cold_check_simplex_ms: `python -m cfcalc
check` on a scene file whose complex and real form are one simplex on n
vertices, for n in ONE_SIMPLEX (the n = 14 complex has 16,383 simplices),
timed as the other child processes and keyed by n; and
cold_verify_simplex_ms: `python -m cfcalc verify` on the same files for n
in VERIFY_SIMPLEX.  The real form there is the whole simplex, so no star
simplex lies outside it and the split has no trace to sum.
cold_verify_facet_ms is `python -m cfcalc verify`, for n in VERIFY_SIMPLEX,
on the n-vertex simplex whose real form is its facet on the first n - 1
vertices: each of the 2^(n-1) - 1 simplices of the facet is the trace of
the one star simplex that adds the last vertex to it, so the split sums
one value per trace, and a facet is a full subcomplex, so it takes no
dual.  cold_dual_facet_ms is `python -m cfcalc dual --function
indicator:M` on the same files, which sums over cofaces one vertex at a
time inside the facet's 2^(n-1) - 1 faces.  These times follow the
vertex incidences of those simplices.  star_facet_ms is the in-process
run table, as star_ms builds it, of that facet, for n in VERIFY_SIMPLEX,
each on a freshly built complex: every trace holds one star simplex, so
the run table holds one run per star simplex, its worst case.
cold_verify_disjoint_ms is `python -m cfcalc verify` on a scene file of
DISJOINT disjoint 4-simplices (124,000 simplices) whose real form is the
whole complex, with one codim-0 stratum on one of them: every
star simplex lies in M, so this time follows the size of M.
cold_verify_conj_ms is `python -m cfcalc verify` on a scene file of CONJ
disjoint 4-simplices (24,800 simplices) that the conjugation swaps in
pairs, with an empty real form and no strata: the involution decides
regularity on its vertex pairs, the fixed-point set takes one subset
test per simplex, the quotient images every simplex once, and the
conjugation rows read only the solution index's support, so this time
follows the quotient's pass.
Beside each field, <field>_spread is the distance between the quartiles
of its repeats as a share of their median, as perfbench's run.py spread
takes it (Infinity from one repeat), so a before/after pair shows
whether a difference lies inside the noise; dual_ms_spread holds one
per function.
The in-process measurements run with the cycle collector on, as a library
caller has it (recorded as gc_in_process); the cold children run the CLI,
which turns it off while it runs.
The file also records the Python version, the commit of the checkout the
package was imported from and whether its sources differ from it.
Neither the script nor its children write bytecode, so no cache is left
under src/ and every cold child compiles the package from source.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import process_time

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(ROOT / "perfbench"))

from cfcalc import (  # noqa: E402
    build_complex, build_model, dual, emit_scene, indicator, parse_scene, solution_index,
    subcomplex,
)
from cfcalc.indices import _star_runs  # noqa: E402
from gauge import NOMINAL_S, reading  # noqa: E402
from run import spread  # noqa: E402


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Readings:
    """The gauge's readings; the last one is where the next measurement starts."""

    def __init__(self) -> None:
        self.fresh()

    def fresh(self) -> None:
        """Take a new reading, as after untimed work."""
        self.last = reading(3)

    def timed(self, fn, clock=process_time):
        """fn's CPU time by clock (this process's, or children_cpu_s for
        child processes) in milliseconds at the gauge's nominal speed, and
        fn's result: rescaled by the mean of the last reading and a fresh one."""
        start = clock()
        result = fn()
        spent = clock() - start
        before = self.last
        self.fresh()
        return spent * NOMINAL_S / ((before + self.last) / 2.0) * 1e3, result


def cold_ms(gauge: Readings, *args: str) -> float:
    """The CPU time of `python -m cfcalc ARGS` as a child process, in
    milliseconds at the gauge's nominal speed."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    ms, proc = gauge.timed(lambda: subprocess.run(
        [sys.executable, "-m", "cfcalc", *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    ), children_cpu_s)
    if proc.returncode != 0:
        raise RuntimeError(f"cfcalc {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return ms


MODELS = ("node_curve", "smooth_line_in_C2")
FIELDS = (
    "build_ms", "first_verify_ms", "warm_verify_ms",
    "cold_verify_ms", "cold_hyperdim_ms", "cold_check_ms", "star_ms",
    "parse_ms", "emit_ms",
)
DUALS = ("solution_index", "indicator")
ONE_SIMPLEX = (10, 12, 14)
VERIFY_SIMPLEX = (10, 12)
DISJOINT = 4000
CONJ = 800  # even: simplex 2i and simplex 2i + 1 are swapped


def median(ms) -> float:
    return round(statistics.median(ms), 2)


def spread_of(ms) -> float:
    return round(spread(ms), 3)


def speed(gauge_reading: float) -> float:
    """The machine's speed at a gauge reading, relative to the gauge's nominal."""
    return round(NOMINAL_S / gauge_reading, 3)


def rung(gauge: Readings, model: str, k: int, repeats: int) -> dict:
    spec = f"{model}(k={k})"
    before = gauge.last
    runs = []  # one tuple of FIELDS per repeat
    for r in range(repeats):
        build, scene = gauge.timed(lambda: build_model(model, k=k))
        first = gauge.timed(lambda: scene.verify(seed=0))[0]
        warm = gauge.timed(lambda: scene.verify(seed=r + 1))[0]
        fresh = build_model(model, k=k)
        text = emit_scene(build_model(model, k=k))
        unwritten = build_model(model, k=k)
        sparse, dense = build_model(model, k=k), build_model(model, k=k)
        index, ones = solution_index(sparse.cycle, sparse.ambient), indicator(dense.ambient)
        gauge.fresh()
        runs.append((
            build, first, warm,
            cold_ms(gauge, "verify", spec),
            cold_ms(gauge, "hyperdim", spec, "--at", "c.c"),
            cold_ms(gauge, "check", spec),
            gauge.timed(lambda: _star_runs(fresh.pair.real_form))[0],
            gauge.timed(lambda: parse_scene(text))[0],
            gauge.timed(lambda: emit_scene(unwritten))[0],
            gauge.timed(lambda: dual(index))[0],
            gauge.timed(lambda: dual(ones))[0],
        ))
    columns = dict(zip(FIELDS + DUALS, zip(*runs)))
    return {
        "k": k,
        "simplices": len(scene.ambient),
        **{key: median(columns[key]) for key in FIELDS},
        "dual_ms": {key: median(columns[key]) for key in DUALS},
        **{f"{key}_spread": spread_of(columns[key]) for key in FIELDS},
        "dual_ms_spread": {key: spread_of(columns[key]) for key in DUALS},
        "speed_before": speed(before),
        "speed_after": speed(gauge.last),
    }


def simplex_file(tmp: str, n: int, m: int) -> str:
    """A scene file whose complex is one simplex on n vertices and whose
    real form is its face on the first m of them."""
    vertices = [f"v{i}" for i in range(n)]
    doc = {
        "name": f"simplex{n}", "complex": {"maximal_simplices": [vertices]},
        "subcomplexes": {"M": [vertices[:m]]}, "real_form": {"M": "M", "complex_dim": 1},
        "strata": [], "probes": [], "expect": {},
    }
    path = Path(tmp) / f"simplex{n}_{m}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def one_simplex_children(gauge: Readings, repeats: int) -> tuple[dict, dict, dict, dict]:
    """Cold `cfcalc check` and `cfcalc verify` CPU times on one n-vertex
    simplex as its own real form, and cold `cfcalc verify` and `cfcalc dual`
    over its facet, a list of repeats each, keyed by n."""
    checks, verifies, facets, duals = {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in ONE_SIMPLEX:
            whole = simplex_file(tmp, n, n)
            gauge.fresh()
            checks[str(n)] = [cold_ms(gauge, "check", whole) for _ in range(repeats)]
            if n in VERIFY_SIMPLEX:
                verifies[str(n)] = [cold_ms(gauge, "verify", whole) for _ in range(repeats)]
                facet = simplex_file(tmp, n, n - 1)
                gauge.fresh()
                facets[str(n)] = [cold_ms(gauge, "verify", facet) for _ in range(repeats)]
                duals[str(n)] = [
                    cold_ms(gauge, "dual", facet, "--function", "indicator:M")
                    for _ in range(repeats)
                ]
    return checks, verifies, facets, duals


def star_facets(gauge: Readings, repeats: int) -> dict:
    """In-process run tables of the n-vertex simplex's facet on its first
    n - 1 vertices, each on a fresh complex, a list of repeats keyed by n."""
    facets = {}
    for n in VERIFY_SIMPLEX:
        vertices = [f"v{i}" for i in range(n)]
        facets[str(n)] = [
            subcomplex(build_complex([vertices]), [vertices[:-1]]) for _ in range(repeats)
        ]
    gauge.fresh()
    return {n: [gauge.timed(lambda: _star_runs(m))[0] for m in ms] for n, ms in facets.items()}


def disjoint_simplices(count: int) -> list[list[str]]:
    return [[f"v{i}_{j}" for j in range(5)] for i in range(count)]


def disjoint_doc() -> dict:
    """DISJOINT disjoint 4-simplices, the real form the whole complex."""
    simplices = disjoint_simplices(DISJOINT)
    return {
        "name": f"disjoint{DISJOINT}", "complex": {"maximal_simplices": simplices},
        "subcomplexes": {"all": simplices, "one": simplices[:1]},
        "real_form": {"M": "all", "complex_dim": 2},
        "strata": [{"name": "one", "support": "one", "codim": 0, "multiplicity": 1}],
        "probes": [], "expect": {},
    }


def conj_doc() -> dict:
    """CONJ disjoint 4-simplices swapped in pairs, the real form empty."""
    conjugation = {f"v{i}_{j}": f"v{i ^ 1}_{j}" for i in range(CONJ) for j in range(5)}
    return {
        "name": f"conj{CONJ}", "complex": {"maximal_simplices": disjoint_simplices(CONJ)},
        "subcomplexes": {"M": []},
        "real_form": {"M": "M", "complex_dim": 2, "conjugation": conjugation},
        "strata": [], "probes": [], "expect": {},
    }


def verify_children(gauge: Readings, repeats: int, doc: dict) -> list[float]:
    """Cold `cfcalc verify` CPU times on the scene doc, one per repeat."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        gauge.fresh()
        return [cold_ms(gauge, "verify", str(path)) for _ in range(repeats)]


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--ks", type=int, nargs="+", default=[3, 6, 12])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    record = {
        "label": args.label,
        "python": platform.python_version(),
        "commit": git("rev-parse", "HEAD") or "unknown",
        "sources_differ": bool(git("status", "--porcelain", "--", "src")),
        "repeats": args.repeats,
        "gc_in_process": gc.isenabled(),
        "unit": "ms of CPU time at the gauge's nominal speed, median",
    }
    gauge = Readings()
    for model in MODELS:
        record[model] = [rung(gauge, model, k, args.repeats) for k in args.ks]
    checks, verifies, facets, duals = one_simplex_children(gauge, args.repeats)
    for field, runs in (
        ("cold_check_simplex_ms", checks), ("cold_verify_simplex_ms", verifies),
        ("cold_verify_facet_ms", facets), ("cold_dual_facet_ms", duals),
    ):
        record[field] = {n: median(ms) for n, ms in runs.items()}
        record[f"{field}_spread"] = {n: spread_of(ms) for n, ms in runs.items()}
    facets = star_facets(gauge, args.repeats)
    record["star_facet_ms"] = {n: median(ms) for n, ms in facets.items()}
    record["star_facet_ms_spread"] = {n: spread_of(ms) for n, ms in facets.items()}
    for field, doc in (("cold_verify_disjoint_ms", disjoint_doc()),
                       ("cold_verify_conj_ms", conj_doc())):
        ms = verify_children(gauge, args.repeats, doc)
        record[field] = median(ms)
        record[f"{field}_spread"] = spread_of(ms)
    out = args.out_dir / f"BENCH_ladder_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
