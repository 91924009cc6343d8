"""Local index bookkeeping for characteristic-cycle data on a complexification pair.

A stratum carries a closed support, a codimension, a multiplicity and a
validated local Euler obstruction function.  From a cycle of strata the
module computes the solution index on the ambient complex, the
hyperfunction index and dimension on the real form, and the mod-2 parity
function, and verifies a scene's declared expectations together with the
structural identities behind them.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import compress, filterfalse
from typing import Iterable, Iterator

from ._frozen import Frozen, cached
from .calculus import (
    ConstructibleFunction,
    _split_star,
    _weighted_sum,
    euler_integral,
    indicator,
    mod2_reduce,
    orbit_pushforward,
    pushforward,
    restrict,
    shriek_restrict,
    triangle_decompose,
)
from .complexes import (
    Involution,
    Simplex,
    SimplicialComplex,
    Subcomplex,
    _canonical_vertices,
    _images,
    _text,
    fixed_point_set,
    inclusion_map,
    is_connected,
    is_strongly_free,
)
from .errors import ModelError


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


class Stratum(Frozen):
    """One piece of a characteristic cycle.

    The support is a connected closed subcomplex of the ambient complex;
    eu is its local Euler obstruction as a validated input, supported on
    the support and equal to 1 wherever the piece is smooth.  A stratum
    flagged smooth must have eu identically 1 on its support.
    """

    _fields = (
        "name", "support", "codim", "multiplicity", "eu", "smooth", "allow_empty_trace"
    )

    def __init__(
        self,
        name: str,
        support: Subcomplex,
        codim: int,
        multiplicity: int,
        eu: ConstructibleFunction,
        smooth: bool = True,
        allow_empty_trace: bool = False,
    ) -> None:
        super().__init__(name, support, codim, multiplicity, eu, smooth, allow_empty_trace)
        if not self.name:
            raise ModelError("a stratum needs a nonempty name")
        if self.support.is_empty:
            raise ModelError(f"stratum {self.name!r} has empty support")
        # a complex is connected exactly when its maximal simplices are
        if not is_connected(self.support.maximal_simplices()):
            raise ModelError(f"stratum {self.name!r} has disconnected support")
        if self.codim < 0:
            raise ModelError(f"stratum {self.name!r} has negative codimension")
        if self.multiplicity < 1:
            raise ModelError(f"stratum {self.name!r} needs multiplicity at least 1")
        if self.eu.ambient != self.support.parent:
            raise ModelError(
                f"stratum {self.name!r}: eu lives on a different complex than the support"
            )
        simplices = self.support.simplices
        stray = [s for s, _ in self.eu.items if s not in simplices]  # sorted, as items are
        if stray:
            raise ModelError(
                f"stratum {self.name!r}: eu is not supported on the support "
                f"(value at {_text(stray[0])})"
            )
        # with no stray value, eu is 1 on the support when it holds one 1 per simplex
        if self.smooth and [v for _, v in self.eu.items] != [1] * len(simplices):
            raise ModelError(
                f"stratum {self.name!r} is flagged smooth, so eu must be identically 1 on it"
            )


def smooth_stratum(name: str, support: Subcomplex, codim: int, multiplicity: int) -> Stratum:
    return Stratum(name, support, codim, multiplicity, indicator(support), smooth=True)


class CharacteristicCycle(Frozen):
    """A finite list of strata with distinct names and distinct supports."""

    _fields = ("strata",)

    def __init__(self, strata: Iterable[Stratum]) -> None:
        st = tuple(strata)
        names = [s.name for s in st]
        if len(set(names)) != len(names):
            raise ModelError("stratum names must be distinct")
        supports = [s.support.simplices for s in st]
        if len(set(supports)) != len(supports):
            raise ModelError("stratum supports must be distinct")
        parents = {s.support.parent for s in st}
        if len(parents) > 1:
            raise ModelError("strata live on different ambient complexes")
        super().__init__(st)

    def __iter__(self) -> Iterator[Stratum]:
        return iter(self.strata)

    def __len__(self) -> int:
        return len(self.strata)


class RealComplexPair(Frozen):
    """A complexification model: ambient complex, real form, and optional conjugation.

    complex_dim is the complex dimension being modeled, so the ambient
    complex plays the role of a space of real dimension twice that.  When a
    conjugation is present its fixed point set must be exactly the real
    form.  Probes are the simplices of the real form at which scenes assert
    values; they should be chosen away from the model's artificial boundary.
    """

    _fields = ("ambient", "real_form", "complex_dim", "conjugation", "probes")

    def __init__(
        self,
        ambient: SimplicialComplex,
        real_form: Subcomplex,
        complex_dim: int,
        conjugation: Involution | None = None,
        probes: tuple[Simplex, ...] = (),
    ) -> None:
        super().__init__(ambient, real_form, complex_dim, conjugation, probes)
        if self.real_form.parent != self.ambient:
            raise ModelError("real form does not live in the ambient complex")
        if self.complex_dim < 1:
            raise ModelError("complex_dim must be a positive integer")
        if self.conjugation is not None:
            if self.conjugation.space != self.ambient:
                raise ModelError("conjugation does not act on the ambient complex")
            if fixed_point_set(self.conjugation).simplices != self.real_form.simplices:
                raise ModelError(
                    "fixed point set of the conjugation is not the real form"
                )
        probes = tuple(sorted(Simplex(p) for p in self.probes))
        for prev, p in zip((None,) + probes, probes):  # sorted: a repeat follows itself
            if p not in self.real_form.simplices:
                raise ModelError(f"probe {_text(p)} is not a simplex of the real form")
            if p == prev:
                raise ModelError(f"duplicate probe {_text(p)}")
        object.__setattr__(self, "probes", probes)

    def real_complex(self) -> SimplicialComplex:
        return self.real_form.as_complex()


def solution_index(cycle: CharacteristicCycle, ambient: SimplicialComplex) -> ConstructibleFunction:
    """Alternating sum over strata of multiplicity times eu, signed by codimension."""
    for st in cycle:
        if st.support.parent != ambient:
            raise ModelError(f"stratum {st.name!r} lives on a different complex")
    return _weighted_sum(
        ambient, [(_sign(st.codim) * st.multiplicity, st.eu.items) for st in cycle]
    )


def hyperfunction_index(pair: RealComplexPair, cycle: CharacteristicCycle) -> ConstructibleFunction:
    """Costalk restriction of the solution index to the real form, with the
    global sign given by the complex dimension."""
    sol = solution_index(cycle, pair.ambient)
    return _sign(pair.complex_dim) * shriek_restrict(pair.real_form, sol)


def hyperfunction_dimension(pair: RealComplexPair, cycle: CharacteristicCycle) -> ConstructibleFunction:
    """Sum of multiplicities over the real traces of the strata.

    Only valid when every stratum is smooth; a singular stratum raises.
    Real traces must be nonempty unless the stratum explicitly allows an
    empty trace.
    """
    terms = []
    for st in cycle:
        if not st.smooth:
            raise ModelError(
                f"dimension formula needs smooth strata, but {st.name!r} is singular"
            )
        trace = st.support.simplices & pair.real_form.simplices
        if not trace:
            if st.allow_empty_trace:
                continue
            raise ModelError(
                f"stratum {st.name!r} misses the real form; "
                "flag allow_empty_trace to accept that"
            )
        terms.append((st.multiplicity, [(s, 1) for s in trace]))
    return _weighted_sum(pair.real_complex(), terms)


def parity_index(pair: RealComplexPair, cycle: CharacteristicCycle) -> ConstructibleFunction:
    """The solution index on the real form, reduced mod 2 (its codimension
    signs vanish there), as a function with values 0 and 1."""
    return mod2_reduce(restrict(solution_index(cycle, pair.ambient), pair.real_form))


KNOWN_CHECKS: dict[str, str] = {
    "base_change": "costalk restriction commutes with extension by zero from each stratum",
    "boundary_parity": "the boundary term of the solution index is even at every probe",
    "conjugation_invariance": "the solution index is invariant under the conjugation",
    "covering_parity": "free conjugation makes the Euler integral and orbit sums even",
    "dimension_formula": "hyperfunction index equals the dimension count at every probe",
    "parity_formula": "hyperfunction index agrees with the parity function mod 2",
    "shriek_indicator": "costalk restriction of a stratum indicator is the signed trace indicator",
    "triangle_identity": "restriction splits exactly into costalk plus boundary terms",
}


class Expectations(Frozen):
    """Declared values at probes and the checks a scene claims are applicable."""

    _fields = ("hyperfunction_index", "hyperfunction_dimension", "parity_index", "checks")
    _defaults = dict.fromkeys(_fields, ())


# the fields of Expectations that hold (simplex, value) pairs
_EXPECT_VALUE_KEYS = Expectations._fields[:3]


class CheckResult(Frozen):
    """One report row; status is "pass", "fail" or "not_applicable"."""

    _fields = ("check", "subject", "expected", "computed", "status", "note")
    _defaults = {"note": ""}


class VerificationReport(Frozen):
    _fields = ("scene", "entries")  # the scene's name and its CheckResult rows

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "not_applicable": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def to_text(self) -> str:
        headers = CheckResult._fields
        rows = [
            (e.check, e.subject or "-", e.expected or "-", e.computed or "-", e.status, e.note)
            for e in self.entries
        ]
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        lines = [f"scene: {self.scene}"] + [
            "  ".join(map(str.ljust, r, widths)).rstrip() for r in [headers, *rows]
        ]
        c = self.counts()
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"result: {verdict} ({c['pass']} pass, {c['fail']} fail, "
            f"{c['not_applicable']} not applicable)"
        )
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "scene": self.scene,
            "passed": self.passed,
            "counts": self.counts(),
            "entries": [
                {field: getattr(e, field) for field in CheckResult._fields} for e in self.entries
            ],
        }


class _Rows:
    """The report rows, the probes they are read at, and the check families
    (the name before any "[") that some row passed or failed."""

    def __init__(self, probes: tuple[Simplex, ...]) -> None:
        self.rows: list[CheckResult] = []
        self.probes = probes
        self.applied: set[str] = set()

    def compare(self, check: str, subject: str, expected, computed, note: str = "") -> None:
        status = "pass" if expected == computed else "fail"
        self.applied.add(check.partition("[")[0])
        self.rows.append(
            CheckResult(check, subject, str(expected), str(computed), status, note)
        )

    def skip(self, check: str, subject: str, note: str) -> None:
        self.rows.append(CheckResult(check, subject, "", "", "not_applicable", note))

    def at_probes(self, check: str, row) -> None:
        """One row per probe: row(p) gives (expected, computed), or the
        reason the check does not apply at p; with no probes, one
        not-applicable row."""
        if not self.probes:
            self.skip(check, "", "no interior probes declared")
        for p in self.probes:
            got = row(p)
            if isinstance(got, str):
                self.skip(check, _text(p), got)
            else:
                self.compare(check, _text(p), *got)


def _first_mismatch(left: ConstructibleFunction, right: ConstructibleFunction) -> str:
    """'exact' when the two functions are equal, else where they first differ.

    Two functions on different complexes never match: a term computed on
    the wrong complex fails its row instead of being read on M.
    """
    if left == right:
        return "exact"
    if left.ambient != right.ambient:
        return f"on different complexes ({len(left.ambient)} vs {len(right.ambient)} simplices)"
    lv, rv = left._lookup(), right._lookup()
    s = min(s for s in lv.keys() | rv.keys() if lv.get(s, 0) != rv.get(s, 0))
    return f"mismatch at {_text(s)} ({lv.get(s, 0)} vs {rv.get(s, 0)})"


# the values of verify's random functions, one random byte per simplex mapped
# through _DRAW_TABLE and read as a signed byte: 0 with probability 160/256 =
# 5/8 and each of -3..-1, 1..3 with 16/256 = 1/16; _OFFSET_TABLE adds
# _DRAW_OFFSET = 3 (0..6), so one sum() over a run of its bytes is the run's
# values' sum plus 3 per byte
_DRAW_TABLE = bytes(v % 256 for v in (0,) * 160 + (-3, -2, -1, 1, 2, 3) * 16)
_DRAW_OFFSET = 3
_OFFSET_TABLE = bytes(v + _DRAW_OFFSET for v in memoryview(_DRAW_TABLE).cast("b"))


def _nonzero_items(order, acc: list[int]) -> tuple[tuple[tuple, int], ...]:
    """The (simplex, value) pairs of a dense vector over a canonical order.

    Item tuples are always built from lists in this package.  A tuple built
    from an iterator of unknown length is allocated at a guessed size and
    resized, so it bypasses CPython's per-size tuple free lists when it is
    made but lands on them when it is freed; over many small functions
    those lists fill up and pin memory.
    """
    return tuple(list(zip(compress(order, acc), filter(None, acc))))


@cached
def _star_runs(closed: Subcomplex) -> list[tuple[slice, tuple]]:
    """The layout of verify's draws over the open star of the subcomplex M
    (every parent simplex with a vertex in M): M's n simplices first, in
    M's canonical order, then one run per trace w, the vertices in M of a
    star simplex outside M, in canonical trace order, one place per star
    simplex with that trace.  Each run as a slice of the draw, with its w,
    counted in one pass over the parent's simplex set on first use and kept
    on M."""
    space = closed.as_complex()
    of_m = space.vertices.__contains__
    star = filterfalse(space.vertices.isdisjoint, closed.parent.simplices)
    traces = Counter(tuple(filter(of_m, u)) for u in filterfalse(space.simplices.__contains__, star))
    runs, start = [], len(space)
    for w in sorted(traces):
        runs.append((slice(start, start + traces[w]), w))
        start += traces[w]
    return runs


def verify_scene(
    pair: RealComplexPair,
    cycle: CharacteristicCycle,
    expectations: Expectations | None = None,
    seed: int = 0,
    name: str = "scene",
) -> VerificationReport:
    """Run every structural check against a pair and cycle.

    Failed checks become report entries; checks whose preconditions do
    not hold are reported as not applicable with the reason.  Invalid
    input raises ModelError, such as an expected value declared at a
    simplex off the real form.  Entries are sorted, stably, by check name
    and then subject, and the whole report is deterministic for a fixed
    seed.  Only the three random triangle rows depend on the seed, so a
    Scene keeps the rest, _scene_rows, and adds them in _with_seeded_rows.
    """
    return _with_seeded_rows(name, pair, _scene_rows(pair, cycle, expectations), seed)


def _scene_rows(pair: RealComplexPair, cycle: CharacteristicCycle, expectations) -> tuple:
    exp = expectations or Expectations()
    # each key read as a simplex once
    declared = [
        [(_canonical_vertices(p), v) for p, v in getattr(exp, key)] for key in _EXPECT_VALUE_KEYS
    ]
    for key, values in zip(_EXPECT_VALUE_KEYS, declared):
        for p, _ in values:
            if p not in pair.real_form.simplices:
                raise ModelError(
                    f"{key} is declared at {_text(p)}, which is not a simplex of the real form"
                )
    rows = _Rows(pair.probes)
    strata = sorted(cycle, key=lambda st: st.name)

    # the costalk and boundary of the solution index, computed once, give
    # the hyperfunction index, the parity and their triangle and boundary rows
    sol = solution_index(cycle, pair.ambient)
    restricted = restrict(sol, pair.real_form)
    costalk, boundary = triangle_decompose(pair.real_form, sol)
    hyper = _sign(pair.complex_dim) * costalk
    parity = mod2_reduce(restricted)

    # hyperfunction index equals the dimension count (smooth strata only)
    singular = [st.name for st in strata if not st.smooth]
    dimension: ConstructibleFunction | None = None
    if singular:
        rows.skip(
            "dimension_formula", "",
            f"not applicable (singular stratum: {', '.join(singular)})",
        )
    else:
        try:
            dimension = hyperfunction_dimension(pair, cycle)
        except ModelError as err:
            rows.skip("dimension_formula", "", str(err))
        else:
            rows.at_probes("dimension_formula", lambda p: (dimension.value(p), hyper.value(p)))

    # declared expected values at probes
    for key, values, function in zip(_EXPECT_VALUE_KEYS, declared, (hyper, dimension, parity)):
        for p, v in values:
            if function is None:
                rows.skip(f"value[{key}]", _text(p), "dimension formula not applicable")
            else:
                rows.compare(f"value[{key}]", _text(p), v, function.value(p))

    # hyperfunction index mod 2 equals the parity function
    rows.at_probes("parity_formula", lambda p: (parity.value(p), hyper.value(p) % 2))

    # per stratum, from its trace on the real form: the costalk of its
    # indicator against the signed trace, and extension by zero from it
    # commuting with costalk restriction
    for st in strata:
        meet = st.support.intersection(pair.real_form).as_complex()
        trace = Subcomplex._of(st.support.as_complex(), meet)
        into_m = inclusion_map(Subcomplex._of(pair.real_form.as_complex(), meet))
        if pair.probes:  # the costalk is read at probes only
            shr = shriek_restrict(pair.real_form, indicator(st.support))
        sign = _sign(pair.complex_dim - st.codim)

        def shriek_row(p):
            if st.support.has(p) and st.eu.value(p) != 1:
                return "probe at a non-generic point of the stratum"
            return (sign if trace.has(p) else 0), shr.value(p)

        rows.at_probes(f"shriek_indicator[{st.name}]", shriek_row)

        # eu is supported on the support, so its extension by zero from
        # there is eu itself
        psi = restrict(st.eu, st.support)
        left = shriek_restrict(pair.real_form, st.eu)
        right = pushforward(into_m, shriek_restrict(trace, psi))
        rows.compare(f"base_change[{st.name}]", "", "exact", _first_mismatch(left, right))

    # restriction = costalk + boundary, exactly; _with_seeded_rows adds random phi
    rows.compare("triangle_identity", "solution_index", "exact",
                 _first_mismatch(restricted, costalk + boundary))

    # conjugation-dependent checks
    conj = pair.conjugation
    if conj is None:
        for check in ("conjugation_invariance", "boundary_parity", "covering_parity"):
            rows.skip(check, "", "no conjugation declared")
    else:
        # sol takes its own value at the image of each simplex of its
        # support exactly when it equals its pullback along tau: tau then
        # maps the support onto itself, so it keeps the zeros too
        lookup = sol._lookup()
        at_images = map(lookup.get, _images(conj.underlying._vertex_table(), lookup))
        rows.compare(
            "conjugation_invariance", "solution_index", "invariant",
            "invariant" if list(at_images) == list(lookup.values()) else "not invariant",
        )

        def boundary_row(p):
            v = boundary.value(p)
            return "even", "even" if v % 2 == 0 else f"odd ({v})"

        rows.at_probes("boundary_parity", boundary_row)

        if not is_strongly_free(conj):
            rows.skip("covering_parity", "", "conjugation has fixed points")
        else:
            total = euler_integral(sol)
            rows.compare(
                "covering_parity", "euler_integral", "0 (mod 2)", f"{total % 2} (mod 2)"
            )
            try:
                folded = orbit_pushforward(conj, sol)
            except ModelError as err:
                rows.skip("covering_parity", "orbit_pushforward", str(err))
            else:
                odd = sorted(s for s, v in folded.items if v % 2)
                rows.compare(
                    "covering_parity", "orbit_pushforward", "all values even",
                    "all values even" if not odd else f"odd value at {_text(odd[0])}",
                )

    # every check the scene declares must actually have been applicable
    for check in exp.checks:
        rows.compare(
            "declared_checks", check, "applicable",
            "applicable" if check in rows.applied else "not applicable",
        )

    return tuple(rows.rows)


def _with_seeded_rows(name, pair: RealComplexPair, rows: tuple, seed: int) -> VerificationReport:
    """The report of the rows and the triangle rows of three random functions
    drawn from the seed, each in one call as bytes laid out by _star_runs.
    The prefix on M, read through _DRAW_TABLE, is the only list of ints
    made, and its nonzero values, as items, are phi on M, which the split
    reads; each run, read through _OFFSET_TABLE, gives its trace's sum
    as one sum() less _DRAW_OFFSET per byte.  So phi is the drawn value times
    (-1)^dim u at a star simplex u outside M, as _split_star reads it there;
    the draw table is symmetric, so phi's law is the same."""
    rng, drawn, mc = random.Random(seed), _Rows(pair.probes), pair.real_complex()
    runs, n = _star_runs(pair.real_form), len(mc)
    size = runs[-1][0].stop if runs else n
    for i in range(3):
        raw = rng.randbytes(size)
        prefix = memoryview(raw[:n].translate(_DRAW_TABLE)).cast("b").tolist()
        star = raw.translate(_OFFSET_TABLE)
        sums = [(w, sum(star[run]) - _DRAW_OFFSET * (run.stop - run.start)) for run, w in runs]
        phi = ConstructibleFunction._of(pair.ambient, _nonzero_items(mc.ordered(), prefix))
        costalk, boundary = _split_star(pair.real_form, phi.items, sums)
        mismatch = _first_mismatch(restrict(phi, pair.real_form), costalk + boundary)
        drawn.compare("triangle_identity", f"random[{i}]", "exact", mismatch, f"seed={seed}")
    entries = sorted(rows + tuple(drawn.rows), key=lambda e: (e.check, e.subject))
    return VerificationReport(name, tuple(entries))
