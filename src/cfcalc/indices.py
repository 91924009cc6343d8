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
from typing import Iterable, Iterator

from ._frozen import Frozen
from .calculus import (
    ConstructibleFunction,
    _nonzero_items,
    _open_star,
    _split_star,
    _weighted_sum,
    euler_integral,
    indicator,
    mod2_reduce,
    orbit_pushforward,
    pullback,
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
                f"(value at {stray[0]})"
            )
        # with no stray value, eu is 1 on the support when it holds one 1 per simplex
        if self.smooth and [v for _, v in self.eu.items] != [1] * len(simplices):
            raise ModelError(
                f"stratum {self.name!r} is flagged smooth, so eu must be identically 1 on it"
            )

    def _trace_on(self, real_form: Subcomplex) -> tuple:
        """The support's trace on a real form M, as a subcomplex of the
        support and by its inclusion into M, kept per M: verify reads both and
        the first one's star on every call, hyperfunction_dimension the first."""
        kept = self.__dict__.setdefault("_traces", {})
        if real_form not in kept:
            trace = self.support.intersection(real_form).as_complex()
            kept[real_form] = (
                Subcomplex._of(self.support.as_complex(), trace),
                inclusion_map(Subcomplex._of(real_form.as_complex(), trace)),
            )
        return kept[real_form]


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
                raise ModelError(f"probe {p} is not a simplex of the real form")
            if p == prev:
                raise ModelError(f"duplicate probe {p}")
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
        trace = st._trace_on(pair.real_form)[0]
        if trace.is_empty:
            if st.allow_empty_trace:
                continue
            raise ModelError(
                f"stratum {st.name!r} misses the real form; "
                "flag allow_empty_trace to accept that"
            )
        terms.append((st.multiplicity, [(s, 1) for s in trace.simplices]))
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
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
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
    def __init__(self) -> None:
        self.rows: list[CheckResult] = []

    def compare(self, check: str, subject: str, expected, computed, note: str = "") -> None:
        status = "pass" if expected == computed else "fail"
        self.rows.append(
            CheckResult(check, subject, str(expected), str(computed), status, note)
        )

    def skip(self, check: str, subject: str, note: str) -> None:
        self.rows.append(CheckResult(check, subject, "", "", "not_applicable", note))


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
    return f"mismatch at {s} ({lv.get(s, 0)} vs {rv.get(s, 0)})"


# the values of verify's random functions, one random byte per simplex
# mapped through this table and read as a signed byte: 0 with probability
# 160/256 = 5/8 and each of -3..-1, 1..3 with probability 16/256 = 1/16
_DRAW_TABLE = bytes(v % 256 for v in (0,) * 160 + (-3, -2, -1, 1, 2, 3) * 16)


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
    seed.
    """
    exp = expectations or Expectations()
    # each key read as a simplex once, as RealComplexPair reads probes
    hyper_at, dimension_at, parity_at = declared = [
        [(Simplex(p), v) for p, v in getattr(exp, key)] for key in _EXPECT_VALUE_KEYS
    ]
    for key, values in zip(_EXPECT_VALUE_KEYS, declared):
        for p, _ in values:
            if p not in pair.real_form.simplices:
                raise ModelError(
                    f"{key} is declared at {p}, which is not a simplex of the real form"
                )
    rows = _Rows()
    ambient = pair.ambient
    mc = pair.real_complex()
    probes = pair.probes
    strata = sorted(cycle, key=lambda st: st.name)

    # the costalk and boundary of the solution index, computed once, give
    # the hyperfunction index, the parity and their triangle and boundary rows
    sol = solution_index(cycle, ambient)
    restricted = restrict(sol, pair.real_form)
    costalk, boundary = triangle_decompose(pair.real_form, sol)
    hyper = _sign(pair.complex_dim) * costalk
    parity = mod2_reduce(restricted)
    singular = [st.name for st in strata if not st.smooth]
    all_smooth = not singular

    dimension: ConstructibleFunction | None = None
    if all_smooth:
        try:
            dimension = hyperfunction_dimension(pair, cycle)
        except ModelError as err:
            rows.skip("dimension_formula", "", str(err))

    # declared expected values at probes
    for p, v in hyper_at:
        rows.compare("value[hyperfunction_index]", str(p), v, hyper.value(p))
    for p, v in parity_at:
        rows.compare("value[parity_index]", str(p), v, parity.value(p))
    for p, v in dimension_at:
        if dimension is None:
            rows.skip(
                "value[hyperfunction_dimension]", str(p),
                "dimension formula not applicable",
            )
        else:
            rows.compare("value[hyperfunction_dimension]", str(p), v, dimension.value(p))

    # hyperfunction index equals the dimension count (smooth strata only)
    if not all_smooth:
        rows.skip(
            "dimension_formula", "",
            f"not applicable (singular stratum: {', '.join(singular)})",
        )
    elif dimension is not None:
        if not probes:
            rows.skip("dimension_formula", "", "no interior probes declared")
        for p in probes:
            rows.compare("dimension_formula", str(p), dimension.value(p), hyper.value(p))

    # hyperfunction index mod 2 equals the parity function
    if not probes:
        rows.skip("parity_formula", "", "no interior probes declared")
    for p in probes:
        rows.compare("parity_formula", str(p), parity.value(p), hyper.value(p) % 2)

    # per stratum, from its trace on the real form: the costalk of its
    # indicator against the signed trace, and extension by zero from it
    # commuting with costalk restriction
    for st in strata:
        trace, into_m = st._trace_on(pair.real_form)
        check = f"shriek_indicator[{st.name}]"
        if not probes:
            rows.skip(check, "", "no interior probes declared")
        else:
            shr = shriek_restrict(pair.real_form, indicator(st.support))
            sign = _sign(pair.complex_dim - st.codim)
            for p in probes:
                if st.support.has(p) and st.eu.value(p) != 1:
                    rows.skip(check, str(p), "probe at a non-generic point of the stratum")
                    continue
                expected = sign if trace.has(p) else 0
                rows.compare(check, str(p), expected, shr.value(p))

        # eu is supported on the support, so its extension by zero from
        # there is eu itself
        psi = restrict(st.eu, st.support)
        left = shriek_restrict(pair.real_form, st.eu)
        right = pushforward(into_m, shriek_restrict(trace, psi))
        rows.compare(f"base_change[{st.name}]", "", "exact", _first_mismatch(left, right))

    # restriction = costalk + boundary, exactly, for the solution index and
    # for three random functions; both sides read a function only on the
    # open star of M, so each is drawn there as a vector by star position,
    # in one call, and split as drawn; restrict reads it at M's positions
    rng = random.Random(seed)
    star, position, _ = _open_star(pair.real_form)
    in_m = [position[s] for s in mc.ordered()]
    triangles = [("solution_index", restricted, costalk + boundary, "")]
    for i in range(3):
        x = memoryview(rng.randbytes(len(star)).translate(_DRAW_TABLE)).cast("b").tolist()
        terms = _split_star(pair.real_form, x)
        on_m = [x[j] for j in in_m]
        phi = ConstructibleFunction._of(ambient, _nonzero_items(mc.ordered(), on_m))
        triangles.append(
            (f"random[{i}]", restrict(phi, pair.real_form), terms[0] + terms[1], f"seed={seed}")
        )
    for subject, plain, split, note in triangles:
        rows.compare("triangle_identity", subject, "exact", _first_mismatch(plain, split), note)

    # conjugation-dependent checks
    if pair.conjugation is None:
        rows.skip("conjugation_invariance", "", "no conjugation declared")
        rows.skip("boundary_parity", "", "no conjugation declared")
        rows.skip("covering_parity", "", "no conjugation declared")
    else:
        conj = pair.conjugation
        rows.compare(
            "conjugation_invariance", "solution_index", "invariant",
            "invariant" if pullback(conj.underlying, sol) == sol else "not invariant",
        )

        if not probes:
            rows.skip("boundary_parity", "", "no interior probes declared")
        else:
            for p in probes:
                v = boundary.value(p)
                rows.compare(
                    "boundary_parity", str(p), "even",
                    "even" if v % 2 == 0 else f"odd ({v})",
                )

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
                    "all values even" if not odd else f"odd value at {odd[0]}",
                )

    # every check the scene declares must actually have been applicable
    for declared in exp.checks:
        applicable = any(
            r.check.split("[")[0] == declared and r.status != "not_applicable"
            for r in rows.rows
        )
        rows.compare(
            "declared_checks", declared, "applicable",
            "applicable" if applicable else "not applicable",
        )

    entries = tuple(sorted(rows.rows, key=lambda e: (e.check, e.subject)))
    return VerificationReport(name, entries)
