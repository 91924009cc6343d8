#!/usr/bin/env python3
"""Time the two-variable models on the size ladder and write BENCH_ladder_<label>.json.

    python3 scripts/ladder.py --label base
    python3 scripts/ladder.py --label smoke --ks 3 --repeats 1 --out-dir /tmp

For node_curve and smooth_line_in_C2 (MODEL below) at each k it records,
as medians over --repeats runs, CPU time in milliseconds at the nominal
speed of perfbench's gauge: each measurement is rescaled by NOMINAL_S over
the mean of two gauge readings taken just before and just after it, as
gauge.rescaled does, so a change of the machine's speed between repeats or
between two files cancels.
  - build_ms: build_model(MODEL, k=k), which builds a new scene;
  - first_verify_ms: the first Scene.verify on that fresh scene, which
    builds every per-complex table it needs;
  - warm_verify_ms: Scene.verify again on the same scene;
  - cold_verify_ms: `python -m cfcalc verify "MODEL(k=K)"` as a child
    process, its user plus system time;
  - cold_hyperdim_ms: `python -m cfcalc hyperdim "MODEL(k=K)" --at c.c`
    as a child process, timed the same way;
  - cold_check_ms: `python -m cfcalc check "MODEL(k=K)"`, timed the same way;
  - star_ms: the calculus's star table of the real form (_open_star, which
    triangle_decompose builds on first use) on another fresh scene;
  - parse_ms: parse_scene of a fresh scene's canonical text;
  - emit_ms: the canonical text of another fresh scene, which each scene
    writes on first use;
  - speed_before, speed_after: the machine's speed just before and just
    after the rung, NOMINAL_S over the gauge's reading(3) (2.0: the
    gauge's kernel runs twice as fast as on the box its nominal time was
    taken on); the times above are already rescaled.
Apart from the ladder it records cold_check_simplex_ms: `python -m cfcalc
check` on a scene file whose complex and real form are one simplex on n
vertices, for n in ONE_SIMPLEX (the n = 14 complex has 16,383 simplices),
timed as the other child processes and keyed by n; and
cold_verify_simplex_ms: `python -m cfcalc verify` on the same files for n
in VERIFY_SIMPLEX.  The real form there is the whole simplex, so no star
simplex lies outside it, the split gathers nothing and its one dual is of
zero: these times follow the 2^n - 1 simplices, not the 3^n - 2^n (face,
simplex) pairs.
The file also records the Python version, the commit of the checkout the
package was imported from and whether its sources differ from it.
Neither the script nor its children write bytecode, so no cache is left
under src/ and every cold child compiles the package from source.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(ROOT / "perfbench"))

from cfcalc import build_model, emit_scene, parse_scene  # noqa: E402
from cfcalc.calculus import _open_star  # noqa: E402
from gauge import NOMINAL_S, reading, rescaled  # noqa: E402


def timed(fn):
    """fn's CPU time in milliseconds at the gauge's nominal speed, and its result."""
    result, seconds = rescaled(fn)
    return seconds * 1e3, result


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_ms(*args: str) -> float:
    """The CPU time of `python -m cfcalc ARGS` as a child process, in
    milliseconds at the gauge's nominal speed.

    gauge.rescaled counts only this process's CPU time, so the child's is
    taken here between two readings and rescaled by the same formula.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    gauge_before = reading(3)
    before = children_cpu_s()
    proc = subprocess.run(
        [sys.executable, "-m", "cfcalc", *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    spent = children_cpu_s() - before
    gauge_after = reading(3)
    if proc.returncode != 0:
        raise RuntimeError(f"cfcalc {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return spent * NOMINAL_S / ((gauge_before + gauge_after) / 2.0) * 1e3


MODELS = ("node_curve", "smooth_line_in_C2")
FIELDS = (
    "build_ms", "first_verify_ms", "warm_verify_ms",
    "cold_verify_ms", "cold_hyperdim_ms", "cold_check_ms", "star_ms",
    "parse_ms", "emit_ms",
)
ONE_SIMPLEX = (10, 12, 14)
VERIFY_SIMPLEX = (10, 12)


def speed() -> float:
    """The machine's speed relative to the gauge's nominal."""
    return round(NOMINAL_S / reading(3), 3)


def rung(model: str, k: int, repeats: int) -> dict:
    spec = f"{model}(k={k})"
    before = speed()
    runs = []  # one tuple of FIELDS per repeat
    for r in range(repeats):
        build, scene = timed(lambda: build_model(model, k=k))
        first = timed(lambda: scene.verify(seed=0))[0]
        warm = timed(lambda: scene.verify(seed=r + 1))[0]
        fresh = build_model(model, k=k)
        text = emit_scene(build_model(model, k=k))
        unwritten = build_model(model, k=k)
        runs.append((
            build, first, warm,
            cold_ms("verify", spec),
            cold_ms("hyperdim", spec, "--at", "c.c"),
            cold_ms("check", spec),
            timed(lambda: _open_star(fresh.pair.real_form))[0],
            timed(lambda: parse_scene(text))[0],
            timed(lambda: emit_scene(unwritten))[0],
        ))
    return {
        "k": k,
        "simplices": len(scene.ambient),
        **{key: round(statistics.median(ms), 2) for key, ms in zip(FIELDS, zip(*runs))},
        "speed_before": before,
        "speed_after": speed(),
    }


def one_simplex_children(repeats: int) -> tuple[dict, dict]:
    """Median cold `cfcalc check` and `cfcalc verify` CPU times on one
    n-vertex simplex, each keyed by n."""
    checks, verifies = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in ONE_SIMPLEX:
            vertices = [f"v{i}" for i in range(n)]
            doc = {
                "name": f"simplex{n}", "complex": {"maximal_simplices": [vertices]},
                "subcomplexes": {"M": [vertices]}, "real_form": {"M": "M", "complex_dim": 1},
                "strata": [], "probes": [], "expect": {},
            }
            path = Path(tmp) / f"simplex{n}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            checks[str(n)] = round(statistics.median(
                [cold_ms("check", str(path)) for _ in range(repeats)]
            ), 2)
            if n in VERIFY_SIMPLEX:
                verifies[str(n)] = round(statistics.median(
                    [cold_ms("verify", str(path)) for _ in range(repeats)]
                ), 2)
    return checks, verifies


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
        "unit": "ms of CPU time at the gauge's nominal speed, median",
        **{model: [rung(model, k, args.repeats) for k in args.ks] for model in MODELS},
    }
    record["cold_check_simplex_ms"], record["cold_verify_simplex_ms"] = (
        one_simplex_children(args.repeats)
    )
    out = args.out_dir / f"BENCH_ladder_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
