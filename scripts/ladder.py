#!/usr/bin/env python3
"""Time node_curve on the size ladder and write BENCH_ladder_<label>.json.

    python3 scripts/ladder.py --label base
    python3 scripts/ladder.py --label smoke --ks 3 --repeats 1 --out-dir /tmp

For each k it records, as medians over --repeats runs of CPU time in
milliseconds:
  - build_ms: build_model("node_curve", k=k) with the model cache empty;
  - first_verify_ms: the first Scene.verify on that fresh scene, which
    builds every per-complex table it needs;
  - warm_verify_ms: Scene.verify again on the same scene;
  - cold_verify_ms: `python -m cfcalc verify "node_curve(k=K)"` as a
    child process, its user plus system time;
  - cold_hyperdim_ms: `python -m cfcalc hyperdim "node_curve(k=K)" --at c.c`
    as a child process, timed the same way.
The file also records the Python version, the commit of the checkout the
package was imported from and whether its sources differ from it.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cfcalc.scenes  # noqa: E402
from cfcalc import build_model  # noqa: E402


def timed(fn):
    """fn's CPU time in milliseconds, and its result."""
    start = time.process_time()
    result = fn()
    return (time.process_time() - start) * 1e3, result


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_ms(*args: str) -> float:
    """The CPU time of `python -m cfcalc ARGS` as a child process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    before = children_cpu_s()
    proc = subprocess.run(
        [sys.executable, "-m", "cfcalc", *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    spent = children_cpu_s() - before
    if proc.returncode != 0:
        raise RuntimeError(f"cfcalc {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return spent * 1e3


def rung(k: int, repeats: int) -> dict:
    build, first, warm, cold, hyperdim = [], [], [], [], []
    for r in range(repeats):
        cfcalc.scenes._build_cached.cache_clear()
        ms, scene = timed(lambda: build_model("node_curve", k=k))
        build.append(ms)
        first.append(timed(lambda: scene.verify(seed=0))[0])
        warm.append(timed(lambda: scene.verify(seed=r + 1))[0])
        cold.append(cold_ms("verify", f"node_curve(k={k})"))
        hyperdim.append(cold_ms("hyperdim", f"node_curve(k={k})", "--at", "c.c"))
    return {
        "k": k,
        "simplices": len(scene.ambient),
        "build_ms": round(statistics.median(build), 2),
        "first_verify_ms": round(statistics.median(first), 2),
        "warm_verify_ms": round(statistics.median(warm), 2),
        "cold_verify_ms": round(statistics.median(cold), 2),
        "cold_hyperdim_ms": round(statistics.median(hyperdim), 2),
    }


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
        "unit": "ms of CPU time, median",
        "node_curve": [rung(k, args.repeats) for k in args.ks],
    }
    out = args.out_dir / f"BENCH_ladder_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
