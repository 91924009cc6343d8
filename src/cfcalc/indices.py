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
from dataclasses import dataclass
from typing import Iterable, Iterator

from .calculus import (
    ConstructibleFunction,
    Mod2Function,
    euler_integral,
    indicator,
    mod2_reduce,
    open_pushforward,
    orbit_pushforward,
    pullback,
    pushforward,
    restrict,
    restrict_open,
    shriek_restrict,
    triangle_decompose,
    zero_function,
)
from .complexes import (
    Involution,
    Simplex,
    SimplicialComplex,
    Subcomplex,
    complement_open,
    fixed_point_set,
    inclusion_map,
    is_connected,
    is_strongly_free,
)
from .errors import ModelError


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


@dataclass(frozen=True)
class Stratum:
    """One piece of a characteristic cycle.

    The support is a connected closed subcomplex of the ambient complex;
    eu is its local Euler obstruction as a validated input, supported on
    the support and equal to 1 wherever the piece is smooth.  A stratum
    flagged smooth must have eu identically 1 on its support.
    """

    name: str
    support: Subcomplex
    codim: int
    multiplicity: int
    eu: ConstructibleFunction
    smooth: bool = True
    allow_empty_trace: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("a stratum needs a nonempty name")
        if self.support.is_empty:
            raise ModelError(f"stratum {self.name!r} has empty support")
        if not is_connected(self.support.simplices):
            raise ModelError(f"stratum {self.name!r} has disconnected support")
        if self.codim < 0:
            raise ModelError(f"stratum {self.name!r} has negative codimension")
        if self.multiplicity < 1:
            raise ModelError(f"stratum {self.name!r} needs multiplicity at least 1")
        if self.eu.ambient != self.support.parent:
            raise ModelError(
                f"stratum {self.name!r}: eu lives on a different complex than the support"
            )
        stray = self.eu.support - self.support.simplices
        if stray:
            raise ModelError(
                f"stratum {self.name!r}: eu is not supported on the support "
                f"(value at {sorted(stray)[0]})"
            )
        if self.smooth and self.eu != indicator(self.support):
            raise ModelError(
                f"stratum {self.name!r} is flagged smooth, so eu must be identically 1 on it"
            )


def smooth_stratum(name: str, support: Subcomplex, codim: int, multiplicity: int) -> Stratum:
    return Stratum(name, support, codim, multiplicity, indicator(support), smooth=True)


@dataclass(frozen=True)
class CharacteristicCycle:
    """A finite list of strata with distinct names and distinct supports."""

    strata: tuple[Stratum, ...]

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
        object.__setattr__(self, "strata", st)

    def __iter__(self) -> Iterator[Stratum]:
        return iter(self.strata)

    def __len__(self) -> int:
        return len(self.strata)


@dataclass(frozen=True)
class RealComplexPair:
    """A complexification model: ambient complex, real form, and optional conjugation.

    complex_dim is the complex dimension being modeled, so the ambient
    complex plays the role of a space of real dimension twice that.  When a
    conjugation is present its fixed point set must be exactly the real
    form.  Probes are the simplices of the real form at which scenes assert
    values; they should be chosen away from the model's artificial boundary.
    """

    ambient: SimplicialComplex
    real_form: Subcomplex
    complex_dim: int
    conjugation: Involution | None = None
    probes: tuple[Simplex, ...] = ()

    def __post_init__(self) -> None:
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
        for p in probes:
            if p not in self.real_form.simplices:
                raise ModelError(f"probe {p} is not a simplex of the real form")
        object.__setattr__(self, "probes", probes)

    def real_complex(self) -> SimplicialComplex:
        return self.real_form.as_complex()


def solution_index(cycle: CharacteristicCycle, ambient: SimplicialComplex) -> ConstructibleFunction:
    """Alternating sum over strata of multiplicity times eu, signed by codimension."""
    total = zero_function(ambient)
    for st in cycle:
        if st.support.parent != ambient:
            raise ModelError(f"stratum {st.name!r} lives on a different complex")
        total = total + _sign(st.codim) * st.multiplicity * st.eu
    return total


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
    mc = pair.real_complex()
    total = zero_function(mc)
    for st in cycle:
        if not st.smooth:
            raise ModelError(
                f"dimension formula needs smooth strata, but {st.name!r} is singular"
            )
        trace = st.support.intersection(pair.real_form)
        if trace.is_empty:
            if st.allow_empty_trace:
                continue
            raise ModelError(
                f"stratum {st.name!r} misses the real form; "
                "flag allow_empty_trace to accept that"
            )
        total = total + st.multiplicity * indicator(Subcomplex(mc, trace.simplices))
    return total


def parity_index(pair: RealComplexPair, cycle: CharacteristicCycle) -> Mod2Function:
    """Mod-2 reduction on the real form of the multiplicity-weighted eu sum."""
    total = zero_function(pair.ambient)
    for st in cycle:
        if st.support.parent != pair.ambient:
            raise ModelError(f"stratum {st.name!r} lives on a different complex")
        total = total + st.multiplicity * st.eu
    return mod2_reduce(restrict(total, pair.real_form))


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


@dataclass(frozen=True)
class Expectations:
    """Declared values at probes and the checks a scene claims are applicable."""

    hyperfunction_index: tuple[tuple[Simplex, int], ...] = ()
    hyperfunction_dimension: tuple[tuple[Simplex, int], ...] = ()
    parity_index: tuple[tuple[Simplex, int], ...] = ()
    checks: tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    check: str
    subject: str
    expected: str
    computed: str
    status: str  # "pass" | "fail" | "not_applicable"
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    scene: str
    entries: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "not_applicable": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def to_text(self) -> str:
        headers = ("check", "subject", "expected", "computed", "status", "note")
        rows = [
            (e.check, e.subject or "-", e.expected or "-", e.computed or "-", e.status, e.note)
            for e in self.entries
        ]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [f"scene: {self.scene}"]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(6)).rstrip())
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
                {
                    "check": e.check,
                    "subject": e.subject,
                    "expected": e.expected,
                    "computed": e.computed,
                    "status": e.status,
                    "note": e.note,
                }
                for e in self.entries
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


def _first_mismatch(
    space: SimplicialComplex,
    left: ConstructibleFunction,
    right: ConstructibleFunction,
) -> str:
    for s in space.ordered():
        lv, rv = left.value(s), right.value(s)
        if lv != rv:
            return f"mismatch at {s} ({lv} vs {rv})"
    return "exact"


def verify_scene(
    pair: RealComplexPair,
    cycle: CharacteristicCycle,
    expectations: Expectations | None = None,
    seed: int = 0,
    name: str = "scene",
) -> VerificationReport:
    """Run every structural check against a pair and cycle.

    Failures become report entries, never exceptions; checks whose
    preconditions do not hold are reported as not applicable with the
    reason.  Entries are sorted by check name and then subject, and the
    whole report is deterministic for a fixed seed.
    """
    exp = expectations or Expectations()
    rows = _Rows()
    ambient = pair.ambient
    mc = pair.real_complex()
    probes = pair.probes
    strata = sorted(cycle, key=lambda st: st.name)

    sol = solution_index(cycle, ambient)
    hyper = hyperfunction_index(pair, cycle)
    parity = parity_index(pair, cycle)
    all_smooth = all(st.smooth for st in strata)
    singular = sorted(st.name for st in strata if not st.smooth)

    dimension: ConstructibleFunction | None = None
    if all_smooth:
        try:
            dimension = hyperfunction_dimension(pair, cycle)
        except ModelError as err:
            rows.skip("dimension_formula", "", str(err))

    # declared expected values at probes
    for p, v in exp.hyperfunction_index:
        rows.compare("value[hyperfunction_index]", str(p), v, hyper.value(p))
    for p, v in exp.parity_index:
        rows.compare("value[parity_index]", str(p), v, parity.value(p))
    for p, v in exp.hyperfunction_dimension:
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

    # costalk restriction of each stratum indicator, against the signed trace
    for st in strata:
        check = f"shriek_indicator[{st.name}]"
        if not probes:
            rows.skip(check, "", "no interior probes declared")
            continue
        shr = shriek_restrict(pair.real_form, indicator(st.support))
        trace = st.support.intersection(pair.real_form)
        sign = _sign(pair.complex_dim - st.codim)
        for p in probes:
            if st.support.has(p) and st.eu.value(p) != 1:
                rows.skip(check, str(p), "probe at a non-generic point of the stratum")
                continue
            expected = sign if trace.has(p) else 0
            rows.compare(check, str(p), expected, shr.value(p))

    # restriction = costalk + boundary, exactly over the whole real form
    def triangle_entry(subject: str, phi: ConstructibleFunction, note: str = "") -> None:
        costalk, boundary = triangle_decompose(pair.real_form, phi)
        rows.compare(
            "triangle_identity", subject, "exact",
            _first_mismatch(mc, restrict(phi, pair.real_form), costalk + boundary),
            note,
        )

    triangle_entry("solution_index", sol)
    rng = random.Random(seed)
    sims = ambient.ordered()
    for i in range(3):
        values = {s: rng.randint(-3, 3) for s in sims if rng.random() < 0.4}
        triangle_entry(f"random[{i}]", ConstructibleFunction(ambient, values), f"seed={seed}")

    # extension by zero from each stratum commutes with costalk restriction
    for st in strata:
        yc = st.support.as_complex()
        psi = restrict(st.eu, st.support)
        left = shriek_restrict(pair.real_form, pushforward(inclusion_map(st.support), psi))
        trace = st.support.intersection(pair.real_form)
        trace_in_y = Subcomplex(yc, trace.simplices)
        inner = shriek_restrict(trace_in_y, psi)
        trace_in_m = Subcomplex(mc, trace.simplices)
        right = pushforward(inclusion_map(trace_in_m), inner)
        rows.compare(
            f"base_change[{st.name}]", "", "exact", _first_mismatch(mc, left, right)
        )

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
            opensub = complement_open(ambient, pair.real_form)
            boundary = restrict(
                open_pushforward(opensub, restrict_open(sol, opensub)), pair.real_form
            )
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
