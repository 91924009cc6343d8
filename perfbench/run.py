#!/usr/bin/env python3
"""Benchmark of cfcalc: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload verify_node --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --compare base.jsonl change.jsonl

A run builds the workload's inputs from `--seed`, times a fixed number of
ops and checks every op's output.  `--seconds` sets that number through
the workload's nominal op rate, so a run measures about that long at the
seed commit on a 2-core box, and two commits run the same ops.  Every
workload runs in its own process, because peak memory is a high-water
mark.

Op and set-up times are CPU seconds: of this process for in-process ops,
of the child for `cli_small`.  The ops are single-threaded and compute
bound, so on an idle machine this equals wall time; on a shared machine
it leaves out the time other processes hold the CPU.  They are reported
at the nominal speed of the machine-speed gauge (gauge.py), read between
ops, so that the speed of a shared host, which drifts by tens of percent
over minutes, cancels out.  The run record keeps the measured CPU
median, the wall-clock median and throughput and the run's speed next
to them.  The process and its children run pinned to one CPU, the one
the gauge reads.

With `--trace 0` the run reports the end-to-end metrics with tracing off.
With `--trace 1` it traces every workload for a few ops each and reports
the per-layer metrics, each measured on the workload whose end-to-end
figures it explains (see PER_LAYER).  Spans are recorded around calls
into the public functions of each module (spans.py); the traced op must
give the same output as the untraced one.

The second-to-last line of output is the run record: metrics plus Python
version, platform, CPU count, git commit, seed, op count, the percentile
used for `op_tail_ms` and a sha256 digest of the outputs in op order.
`--out FILE` also appends it to FILE, and `--compare` reads two such
files.  The last line is the summary the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

from gauge import Gauge, rescaled
from spans import Tracer
from workloads import FAMILIES, ROOT, SRC, WORKLOADS, cli_env, run_main

BENCHMARK = ROOT / "BENCHMARK.json"

# per-layer metric -> (unit, workload it is measured on, kind, span or counter)
PER_LAYER: dict[str, tuple[str, str, str, str]] = {}


def _layer(name, unit, workload, kind, key):
    PER_LAYER[name] = (unit, workload, kind, key)


for _span in ("product", "maximal_simplices", "build_complex", "subcomplex"):
    _layer(f"complexes.{_span}.self_ms", "ms", "build_plane", "self", f"complexes.{_span}")
_layer("complexes.maximal_simplices.calls", "count", "build_plane", "calls", "complexes.maximal_simplices")
_layer("complexes.simplices_built", "count", "build_plane", "count", "complexes.simplices_built")
for _span in ("as_complex", "complement_open", "simplicial_map"):
    _layer(f"complexes.{_span}.self_ms", "ms", "verify_node", "self", f"complexes.{_span}")
_layer("complexes.one_simplex_n10_ms", "ms", "probe", "probe", "10")
_layer("complexes.one_simplex_n12_ms", "ms", "probe", "probe", "12")
_layer("calculus.dual.self_ms", "ms", "verify_node", "self", "calculus.dual")
_layer("calculus.dual.calls", "count", "verify_node", "calls", "calculus.dual")
_layer("calculus.dual.support_in", "count", "verify_node", "count", "calculus.dual.support_in")
for _span in ("restrict", "restrict_open", "function_new", "arith"):
    _layer(f"calculus.{_span}.self_ms", "ms", "verify_node", "self", f"calculus.{_span}")
for _span in ("pushforward", "pullback"):
    _layer(f"calculus.{_span}.self_ms", "ms", "identities_random", "self", f"calculus.{_span}")
for _span in ("solution_index", "hyperfunction_index", "parity_index"):
    _layer(f"indices.{_span}.self_ms", "ms", "verify_node", "self", f"indices.{_span}")
for _family in FAMILIES:
    _layer(f"indices.family.{_family}_ms", "ms", "verify_node", "total", f"indices.family.{_family}")
_layer("indices.rows", "count", "verify_node", "count", "indices.rows")
for _span in ("build_model", "parse_scene", "emit_scene"):
    _layer(f"scenes.{_span}.self_ms", "ms", "build_plane", "self", f"scenes.{_span}")
_layer("scenes.text_bytes", "bytes", "build_plane", "count", "scenes.text_bytes")
for _probe in ("interpreter_ms", "import_ms", "main_ms"):
    _layer(f"cli.{_probe}", "ms", "cli_small", "probe", _probe)
_layer("cli.stdout_bytes", "bytes", "cli_small", "probe", "stdout_bytes")
for _name in WORKLOADS:
    _layer(f"trace.coverage.{_name}", "ratio", _name, "probe", "coverage")
    _layer(f"trace.overhead.{_name}", "ratio", _name, "probe", "overhead")


def fresh_import():
    """Import cfcalc anew, so module-level caches start empty.

    Call it after gc has collected the previous import's objects.  The
    stdlib modules cfcalc imports stay loaded.
    """
    for name in [n for n in sys.modules if n == "cfcalc" or n.startswith("cfcalc.")]:
        del sys.modules[name]
    importlib.import_module("cfcalc.cli")
    return sys.modules["cfcalc"]


def _import_and_setup(wl, ops: int):
    cf = fresh_import()
    return cf, wl.setup(cf, ops)


def setup(wl, ops: int, repeats: int):
    """Import cfcalc and build the inputs `repeats` times; keep the last.

    Returns the CPU seconds of each repeat, at the gauge's nominal speed,
    with the last import and inputs.
    """
    times, state = [], None
    for _ in range(repeats):
        state = cf = None
        gc.collect()
        (cf, state), seconds = rescaled(_import_and_setup, wl, ops)
        times.append(seconds)
    return times, cf, state


def run_op(fn, *args, clock=process_time):
    """One op: (ok, output, wall seconds, `clock` seconds); an exception fails it."""
    wall, cpu = perf_counter(), clock()
    try:
        ok, output = fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok, output = False, b""
    return ok, output, perf_counter() - wall, clock() - cpu


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "commit": git_commit(),
    }


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, the one the gauge reads.

    Unpinned, the scheduler moves the process between CPUs whose speeds
    differ on a shared host, and a gauge reading would not describe the
    ops around it.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl, seconds: float) -> dict:
    n = wl.op_count(seconds)
    setup_times, cf, state = setup(wl, n + 1, wl.setup_repeats)
    run_op(wl.op, state, 0)  # untimed warm-up
    cpu_times, walls, records = [], [], []
    failed = 0
    digest = hashlib.sha256()
    gauge = Gauge()
    for i in range(1, n + 1):
        ok, output, wall, cpu = run_op(wl.op, state, i, clock=wl.cpu_clock)
        gauge.after_op(cpu)
        cpu_times.append(cpu)
        walls.append(wall)
        failed += not ok
        digest.update(wl.encode(output) + b"\n")
        if wl.checks_after:
            records.append((i, ok, output))
    gauge.close()
    failed += wl.finish(state, records)
    times = gauge.rescale(cpu_times)

    # the highest percentile with at least 10 ops beyond it
    rank = n - 10
    ordered = sorted(times)
    metrics = {
        "op_p50_ms": metric(statistics.median(times) * 1000.0, "ms"),
        "op_tail_ms": metric(ordered[rank - 1] * 1000.0, "ms"),
        "ops_per_s": metric(n / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(wl.peak_rss_mb(), "MB"),
    }
    return {
        "ops": n,
        "op_tail_percentile": 100.0 * rank / n,
        # as measured, before rescaling to the gauge's nominal speed
        "cpu_op_p50_ms": statistics.median(cpu_times) * 1000.0,
        "wall_op_p50_ms": statistics.median(walls) * 1000.0,
        "wall_ops_per_s": n / sum(walls),
        "machine_speed": gauge.speed(),
        "gauge_readings": len(gauge.readings),
        "setup_repeats": wl.setup_repeats,
        "attempted": n,
        "failed": failed,
        "error_rate": failed / n,
        "digest": digest.hexdigest(),
        "metrics": metrics,
    }


# --- traced run ---


def trace_workload(wl) -> dict:
    """Untraced ops, then the same ops with spans on; outputs must agree."""
    n = wl.trace_ops
    _, cf, state = setup(wl, n + 1, 1)
    run_op(wl.op, state, 0)
    plain, plain_times = [], []
    failed = 0
    for i in range(1, n + 1):
        ok, output, elapsed, _ = run_op(wl.op, state, i)
        failed += not ok
        plain.append(wl.encode(output))
        plain_times.append(elapsed)
    if wl.fresh_import_for_trace:
        _, cf, state = setup(wl, n + 1, 1)
    tracer = Tracer()
    tracer.install(cf)
    try:
        if wl.fresh_import_for_trace:
            run_op(wl.traced_op, state, 0, tracer)
        tracer.reset()
        traced_times = []
        for i in range(1, n + 1):
            ok, output, elapsed, _ = run_op(wl.traced_op, state, i, tracer)
            failed += not ok or wl.encode(output) != plain[i - 1]
            traced_times.append(elapsed)
    finally:
        tracer.uninstall()
    return {
        "tracer": tracer,
        "ops": n,
        "attempted": 2 * n,
        "failed": failed,
        "coverage": tracer.top / sum(traced_times),
        "overhead": statistics.median(traced_times) / statistics.median(plain_times) - 1.0,
    }


def subprocess_seconds(argv, env) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def trace_cli(wl) -> dict:
    """Subprocess ops against the interpreter floor, the import and main in process."""
    n = wl.trace_ops
    _, cf, state = setup(wl, n + 1, 1)
    env = cli_env()
    run_op(wl.op, state, 0)
    failed = 0
    records, op_times, interpreter_times, import_times = [], [], [], []
    for i in range(1, n + 1):
        # probes interleaved with the ops, so that all see the same machine
        interpreter_times.append(subprocess_seconds([sys.executable, "-c", "pass"], env))
        import_times.append(subprocess_seconds([sys.executable, "-c", "import cfcalc"], env))
        ok, output, elapsed, _ = run_op(wl.op, state, i)
        failed += not ok
        records.append((i, ok, output))
        op_times.append(elapsed)
    failed += wl.finish(state, records)

    run_op(run_main, cf, wl.argv(0))
    main_times = []
    for i, _, output in records:
        ok, replayed, elapsed, _ = run_op(run_main, cf, wl.argv(i))
        failed += not ok or replayed != output
        main_times.append(elapsed)
    tracer = Tracer()
    tracer.install(cf)
    try:
        traced_times = []
        for i, _, output in records:
            ok, replayed, elapsed, _ = run_op(wl.traced_op, cf, i, tracer)
            failed += not ok or replayed != output
            traced_times.append(elapsed)
    finally:
        tracer.uninstall()
    main_ms = statistics.median(main_times) * 1000.0
    import_ms = statistics.median(import_times) * 1000.0
    op_ms = statistics.median(op_times) * 1000.0
    return {
        "tracer": tracer,
        "ops": n,
        "attempted": 3 * n,
        "failed": failed,
        "interpreter_ms": statistics.median(interpreter_times) * 1000.0,
        "import_ms": import_ms,
        "main_ms": main_ms,
        "stdout_bytes": statistics.mean(len(out) for _, _, out in records),
        # the import probe and main in process, as a share of the subprocess op
        "coverage": (import_ms + main_ms) / op_ms,
        "overhead": statistics.median(traced_times) / statistics.median(main_times) - 1.0,
    }


def one_simplex_ms(cf, n: int, repeats: int) -> float:
    """build_complex plus maximal_simplices on one n-vertex simplex (3^n work)."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        cf.build_complex([[f"v{i}" for i in range(n)]]).maximal_simplices()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000.0


def run_traced(seed: int) -> dict:
    results = {}
    for name in WORKLOADS:
        wl = WORKLOADS[name](seed)
        try:
            results[name] = trace_cli(wl) if name == "cli_small" else trace_workload(wl)
        finally:
            wl.close()
    cf = fresh_import()
    probes = {"10": one_simplex_ms(cf, 10, 3), "12": one_simplex_ms(cf, 12, 1)}

    metrics = {}
    for name, (unit, workload, kind, key) in PER_LAYER.items():
        if workload == "probe":
            value = probes[key]
        else:
            res = results[workload]
            tracer, ops = res["tracer"], res["ops"]
            if kind == "self":
                value = tracer.self_ms(key, ops)
            elif kind == "total":
                value = tracer.total_ms(key, ops)
            elif kind == "calls":
                value = tracer.calls(key, ops)
            elif kind == "count":
                value = tracer.counts[key] / ops
            else:
                value = res[key]
        metrics[name] = metric(value, unit)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {
        "ops": {name: r["ops"] for name, r in results.items()},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
    }


# --- comparison of two result files ---


def load_records(path) -> dict:
    by_workload: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def spread(values) -> float:
    """Distance between the quartiles, as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base_path, change_path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    base, change = load_records(base_path), load_records(change_path)
    regressions = 0
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            b_med, c_med = statistics.median(bv), statistics.median(cv)
            ratio = c_med / b_med
            worse = ratio - 1.0 if lower else 1.0 - ratio
            wider = max(spread(bv), spread(cv))
            all_better = all((c < b) if lower else (c > b) for c in cv for b in bv)
            if wider > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > bound:
                verdict = "better beyond bound"
            else:
                verdict = "within bound"
            print(f"  {name:<12} change {c_med:<12.6g} base {b_med:<12.6g} {m['unit']:<4} "
                  f"ratio {ratio:6.3f}  spread {wider:6.3f}  bound {bound}  {verdict}")
        for label, runs in (("base", b_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"  error_rate {label}: {failed}/{attempted}")
        b_digest = {(r["seed"], r["ops"]): r["digest"] for r in b_runs}
        pairs = [(r["digest"], b_digest[(r["seed"], r["ops"])])
                 for r in c_runs if (r["seed"], r["ops"]) in b_digest]
        differ = sum(c != b for c, b in pairs)
        print(f"  outputs: {len(pairs)} seeds compared, {differ} differ")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two files of run records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "cfcalc" / "__init__.py").is_file():
        print(f"error: no cfcalc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sys.path.insert(0, str(SRC))
    pinned = pin_to_one_cpu()

    if args.trace:
        result = run_traced(args.seed)
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        wl = WORKLOADS[args.workload](args.seed)
        try:
            result = run_untraced(wl, args.seconds)
        finally:
            wl.close()
        expected = [m["name"] for m in spec["end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    correct = result["failed"] == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "pinned_cpu": pinned,
        **environment(), **result,
    }
    line = json.dumps(record, sort_keys=True)
    print(line)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
