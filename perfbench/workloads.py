"""The four benchmark workloads.

Each workload is one process, one caller, a closed loop: the next op starts
when the previous one has returned.  A workload draws all its inputs from
its seed.  `op(state, i)` runs op number i (0 is the untimed warm-up) and
returns ``(ok, output)``: ``ok`` is the op's correctness oracle and
``output`` the bytes that go into the run's digest.  `traced_op` runs the
same op with spans on; its output must equal the untraced one.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def cli_env() -> dict:
    # The console script may not be installed, so children run
    # `python -m cfcalc` from the checkout's sources.
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Workload:
    name = ""
    # Ops per second of this workload at the seed commit on a 2-core x86
    # box.  `--seconds` times this rate fixes the op count, so both sides
    # of a comparison run the same ops.
    rate = 1.0
    setup_repeats = 3
    # True when `finish` needs every op's output
    checks_after = False
    trace_ops = 3
    # build_model caches scenes by parameters, so a traced replay of the
    # same parameters needs a fresh import of cfcalc.
    fresh_import_for_trace = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def op_seed(self, i: int) -> int:
        """A seed for op i that differs from op to op."""
        return random.Random(f"{self.name}:{self.seed}:{i}").getrandbits(30)

    def op_count(self, seconds: float) -> int:
        # At least 11 ops, so that some percentile has 10 ops beyond it.
        return max(11, round(seconds * self.rate))

    def setup(self, cf, ops: int):
        """Build the inputs of `ops` ops (the warm-up included)."""
        return cf

    def op(self, state, i: int):
        raise NotImplementedError

    def traced_op(self, state, i: int, tracer):
        return self.op(state, i)

    def encode(self, output) -> bytes:
        return output

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @staticmethod
    def cpu_clock() -> float:
        """CPU seconds spent on the workload's ops so far."""
        return time.process_time()

    def finish(self, state, records) -> int:
        """Checks made after the timed loop; returns the number of failed ops."""
        return 0

    def close(self) -> None:
        pass


class VerifyNode(Workload):
    """`Scene.verify` on node_curve(k=6): the calculus does nearly all the work."""

    name = "verify_node"
    rate = 0.6
    trace_ops = 2
    COUNTS = {"pass": 32, "fail": 0, "not_applicable": 5}
    SIMPLICES = 7585

    def setup(self, cf, ops):
        scene = cf.build_model("node_curve", k=6)
        if len(scene.ambient) != self.SIMPLICES:
            raise RuntimeError(f"node_curve(k=6) has {len(scene.ambient)} simplices")
        return cf, scene

    def op(self, state, i):
        _, scene = state
        report = scene.verify(seed=self.op_seed(i))
        return report.passed and report.counts() == self.COUNTS, report.to_text().encode()

    def traced_op(self, state, i, tracer):
        cf, scene = state
        report = replay_verify(cf, scene, self.op_seed(i), tracer)
        return report.passed and report.counts() == self.COUNTS, report.to_text().encode()


class BuildPlane(Workload):
    """build_model("node_curve", k=3, m) with a fresh m, then emit and parse back."""

    name = "build_plane"
    rate = 1.6
    setup_repeats = 9  # a set-up is an import, about 50 ms
    fresh_import_for_trace = True
    SIMPLICES = 1921

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # distinct multiplicities, so no op hits the build_model cache
        self.m0 = 1 + self.rng.randrange(1 << 40)

    def op(self, cf, i):
        scene = cf.build_model("node_curve", k=3, m=self.m0 + i)
        text = cf.emit_scene(scene)
        parsed = cf.parse_scene(text)
        return parsed == scene and len(scene.ambient) == self.SIMPLICES, text.encode()


def _identity_inputs(rng: random.Random):
    nv = rng.randint(1, 8)
    names = [f"v{i}" for i in range(nv)]
    gens = [rng.sample(names, rng.randint(1, min(4, nv))) for _ in range(rng.randint(1, 2 * nv))]
    verts = sorted({v for g in gens for v in g})
    mid = [f"m{i}" for i in range(rng.randint(1, 4))]
    last = [f"t{i}" for i in range(rng.randint(1, 4))]
    return (
        gens,
        mid,
        last,
        {v: rng.choice(mid) for v in verts},
        {v: rng.choice(last) for v in mid},
        rng.randrange(1 << 16),  # offsets into the value and mask tables
        rng.randrange(1 << 16),
        rng.randrange(1 << 16),
    )


class IdentitiesRandom(Workload):
    """Four exact identities on one fresh random complex per op.

    The complexes come from the generator of scripts/stress_identities.py
    (at most 8 vertices, dimension at most 3).  Function values are read
    from seeded tables at random offsets, so the op spends no time drawing
    random numbers.
    """

    name = "identities_random"
    rate = 475.0
    trace_ops = 200
    TABLE = 4099

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        # zero with probability 1/2, else uniform in [-5, 5]
        self.values = [rng.randint(-5, 5) if rng.random() < 0.5 else 0 for _ in range(self.TABLE)]
        self.mask = [rng.random() < 0.4 for _ in range(self.TABLE)]

    def setup(self, cf, ops):
        rng = random.Random(f"{self.name}:{self.seed}:inputs")
        return cf, [_identity_inputs(rng) for _ in range(ops)]

    def op(self, state, i):
        cf, inputs = state
        gens, mid_v, last_v, fmap, gmap, a, b, c = inputs[i]
        vals, mask, n = self.values, self.mask, self.TABLE
        space = cf.build_complex(gens)
        sims = space.ordered()
        phi = cf.ConstructibleFunction(space, {s: vals[(a + j) % n] for j, s in enumerate(sims)})
        dd = cf.dual(cf.dual(phi))
        closed = cf.subcomplex(space, [s for j, s in enumerate(sims) if mask[(b + j) % n]])
        costalk, boundary = cf.triangle_decompose(closed, phi)
        triangle = cf.restrict(phi, closed) == costalk + boundary
        mid = cf.build_complex([mid_v])
        last = cf.build_complex([last_v])
        f = cf.simplicial_map(space, mid, fmap)
        g = cf.simplicial_map(mid, last, gmap)
        pushed = cf.pushforward(g, cf.pushforward(f, phi))
        functorial = pushed == cf.pushforward(cf.compose(g, f), phi)
        psi = cf.ConstructibleFunction(mid, {t: vals[(c + j) % n] for j, t in enumerate(mid.ordered())})
        projected = cf.pushforward(f, phi * cf.pullback(f, psi))
        projection = projected == cf.pushforward(f, phi) * psi
        ok = dd == phi and triangle and functorial and projection
        return ok, (costalk.items, boundary.items, pushed.items, projected.items)

    def encode(self, output) -> bytes:
        return "|".join(";".join(f"{s}:{v}" for s, v in items) for items in output).encode()


class CliSmall(Workload):
    """`python -m cfcalc verify FILE --seed s` on small emitted scene files."""

    name = "cli_small"
    rate = 6.3
    setup_repeats = 9  # a set-up writes ten small scenes, about 70 ms
    trace_ops = 6
    checks_after = True
    MODELS = ("kashiwara_point", "pair_C_R", "antipodal_cover")
    FILES = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        # Every seed gets the same model and k mix; only multiplicities vary,
        # which leaves the cost of an op unchanged.
        self.specs = []
        for j in range(self.FILES):
            model, k = self.MODELS[j % 3], 3 + (j // 3) % 3
            if model == "kashiwara_point":
                params = {"d0": rng.randint(0, 5), "d1": rng.randint(1, 5), "k": k}
            else:
                params = {"m": rng.randint(1, 6), "k": k}
            self.specs.append((model, params))
        self._tmp = tempfile.TemporaryDirectory(prefix=".scenes-", dir=HERE)
        self.paths = [os.path.join(self._tmp.name, f"scene{j}.json") for j in range(self.FILES)]
        self.env = cli_env()

    def setup(self, cf, ops):
        for path, (model, params) in zip(self.paths, self.specs):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cf.emit_scene(cf.build_model(model, **params)))
        return cf

    def argv(self, i):
        return ["verify", self.paths[i % self.FILES], "--seed", str(self.op_seed(i))]

    def op(self, cf, i):
        proc = subprocess.run(
            [sys.executable, "-m", "cfcalc", *self.argv(i)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=60,
        )
        return proc.returncode == 0, proc.stdout

    def traced_op(self, cf, i, tracer):
        return run_main(cf, self.argv(i))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    @staticmethod
    def cpu_clock():
        # the op's work runs in the child, whose CPU time counts once reaped
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + usage.ru_utime + usage.ru_stime

    def finish(self, cf, records):
        """Every op's stdout must be byte-identical to the in-process report."""
        scenes = {}
        failed = 0
        for i, ok, output in records:
            path = self.paths[i % self.FILES]
            if path not in scenes:
                with open(path, encoding="utf-8") as fh:
                    scenes[path] = cf.parse_scene(fh.read())
            expected = scenes[path].verify(seed=self.op_seed(i)).to_text() + "\n"
            if ok and output != expected.encode():
                failed += 1
        return failed

    def close(self):
        self._tmp.cleanup()


WORKLOADS = {w.name: w for w in (VerifyNode, BuildPlane, CliSmall, IdentitiesRandom)}


def run_main(cf, argv):
    """`cfcalc.cli.main(argv)` in process, with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cf.cli.main(argv)
    return code == 0, out.getvalue().encode()


# --- replay of Scene.verify as the public calls it makes ---

FAMILIES = (
    "value", "dimension_formula", "parity_formula", "shriek_indicator",
    "triangle_identity", "base_change", "conjugation_invariance",
    "boundary_parity", "covering_parity", "declared_checks",
)


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _first_mismatch(space, left, right) -> str:
    for s in sorted(space.simplices):
        lv, rv = left.value(s), right.value(s)
        if lv != rv:
            return f"mismatch at {s} ({lv} vs {rv})"
    return "exact"


def replay_verify(cf, scene, seed, tracer):
    """The check families of `verify_scene`, each under its own span.

    Mirrors cfcalc.indices.verify_scene call for call.  The traced run
    requires the report to equal the one `Scene.verify` returns for the
    same seed, so this replay cannot drift from the code it explains.
    """
    pair, cycle, exp = scene.pair, scene.cycle, scene.expect
    rows = []

    def compare(check, subject, expected, computed, note=""):
        status = "pass" if expected == computed else "fail"
        rows.append(cf.CheckResult(check, subject, str(expected), str(computed), status, note))

    def skip(check, subject, note):
        rows.append(cf.CheckResult(check, subject, "", "", "not_applicable", note))

    def family(name):
        return tracer.span(f"indices.family.{name}")

    ambient = pair.ambient
    mc = pair.real_complex()
    probes = pair.probes
    strata = sorted(cycle, key=lambda st: st.name)

    sol = cf.solution_index(cycle, ambient)
    hyper = cf.hyperfunction_index(pair, cycle)
    parity = cf.parity_index(pair, cycle)
    all_smooth = all(st.smooth for st in strata)
    singular = sorted(st.name for st in strata if not st.smooth)

    dimension = None
    if all_smooth:
        try:
            dimension = cf.hyperfunction_dimension(pair, cycle)
        except cf.ModelError as err:
            skip("dimension_formula", "", str(err))

    with family("value"):
        for p, v in exp.hyperfunction_index:
            compare("value[hyperfunction_index]", str(p), v, hyper.value(p))
        for p, v in exp.parity_index:
            compare("value[parity_index]", str(p), v, parity.value(p))
        for p, v in exp.hyperfunction_dimension:
            if dimension is None:
                skip("value[hyperfunction_dimension]", str(p), "dimension formula not applicable")
            else:
                compare("value[hyperfunction_dimension]", str(p), v, dimension.value(p))

    with family("dimension_formula"):
        if not all_smooth:
            skip("dimension_formula", "",
                 f"not applicable (singular stratum: {', '.join(singular)})")
        elif dimension is not None:
            if not probes:
                skip("dimension_formula", "", "no interior probes declared")
            for p in probes:
                compare("dimension_formula", str(p), dimension.value(p), hyper.value(p))

    with family("parity_formula"):
        if not probes:
            skip("parity_formula", "", "no interior probes declared")
        for p in probes:
            compare("parity_formula", str(p), parity.value(p), hyper.value(p) % 2)

    with family("shriek_indicator"):
        for st in strata:
            check = f"shriek_indicator[{st.name}]"
            if not probes:
                skip(check, "", "no interior probes declared")
                continue
            shr = cf.shriek_restrict(pair.real_form, cf.indicator(st.support))
            trace = st.support.intersection(pair.real_form)
            sign = _sign(pair.complex_dim - st.codim)
            for p in probes:
                if st.support.has(p) and st.eu.value(p) != 1:
                    skip(check, str(p), "probe at a non-generic point of the stratum")
                    continue
                compare(check, str(p), sign if trace.has(p) else 0, shr.value(p))

    with family("triangle_identity"):
        def triangle_entry(subject, phi, note=""):
            costalk, boundary = cf.triangle_decompose(pair.real_form, phi)
            compare("triangle_identity", subject, "exact",
                    _first_mismatch(mc, cf.restrict(phi, pair.real_form), costalk + boundary),
                    note)

        triangle_entry("solution_index", sol)
        rng = random.Random(seed)
        sims = sorted(ambient.simplices)
        for i in range(3):
            values = {s: rng.randint(-3, 3) for s in sims if rng.random() < 0.4}
            triangle_entry(f"random[{i}]", cf.ConstructibleFunction(ambient, values), f"seed={seed}")

    with family("base_change"):
        for st in strata:
            yc = st.support.as_complex()
            psi = cf.restrict(st.eu, st.support)
            left = cf.shriek_restrict(pair.real_form, cf.pushforward(cf.inclusion_map(st.support), psi))
            trace = st.support.intersection(pair.real_form)
            inner = cf.shriek_restrict(cf.Subcomplex(yc, trace.simplices), psi)
            right = cf.pushforward(cf.inclusion_map(cf.Subcomplex(mc, trace.simplices)), inner)
            compare(f"base_change[{st.name}]", "", "exact", _first_mismatch(mc, left, right))

    conj = pair.conjugation
    with family("conjugation_invariance"):
        if conj is None:
            skip("conjugation_invariance", "", "no conjugation declared")
        else:
            compare("conjugation_invariance", "solution_index", "invariant",
                    "invariant" if cf.pullback(conj.underlying, sol) == sol else "not invariant")

    with family("boundary_parity"):
        if conj is None:
            skip("boundary_parity", "", "no conjugation declared")
        elif not probes:
            skip("boundary_parity", "", "no interior probes declared")
        else:
            opensub = cf.complement_open(ambient, pair.real_form)
            boundary = cf.restrict(
                cf.open_pushforward(opensub, cf.restrict_open(sol, opensub)), pair.real_form
            )
            for p in probes:
                v = boundary.value(p)
                compare("boundary_parity", str(p), "even", "even" if v % 2 == 0 else f"odd ({v})")

    with family("covering_parity"):
        if conj is None:
            skip("covering_parity", "", "no conjugation declared")
        elif not cf.is_strongly_free(conj):
            skip("covering_parity", "", "conjugation has fixed points")
        else:
            total = cf.euler_integral(sol)
            compare("covering_parity", "euler_integral", "0 (mod 2)", f"{total % 2} (mod 2)")
            try:
                folded = cf.orbit_pushforward(conj, sol)
            except cf.ModelError as err:
                skip("covering_parity", "orbit_pushforward", str(err))
            else:
                odd = sorted(s for s, v in folded.items if v % 2)
                compare("covering_parity", "orbit_pushforward", "all values even",
                        "all values even" if not odd else f"odd value at {odd[0]}")

    with family("declared_checks"):
        for declared in exp.checks:
            applicable = any(
                r.check.split("[")[0] == declared and r.status != "not_applicable" for r in rows
            )
            compare("declared_checks", declared, "applicable",
                    "applicable" if applicable else "not applicable")

    entries = tuple(sorted(rows, key=lambda e: (e.check, e.subject)))
    tracer.counts["indices.rows"] += len(entries)
    return cf.VerificationReport(scene.name, entries)
