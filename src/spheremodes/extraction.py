"""Recovery of multipole coefficients from surface field samples by three
independent routes, and the numerical equivalence report that shows all
three determine the same coefficients.

Each route projects the field it reads onto two harmonic kinds and divides
each projection by that term's scale * f in multipole's expansion table
(x0 = k r0, D_l = d/dx [x h_l(x)] at x0). The Z terms carry the factor i k
that term-by-term inversion requires, as in a_E = x0 / (i Z0 D_l)
Int conj(Z_lm).E; a variant r0/D_l without it is dimensionally inconsistent
and misses the round trip by exactly i/k (the regression suite pins this).

Each route's bits do not depend on the sample components it is not entitled
to: the radial route uses no product of a tangential column, the tangential
routes none of the radial column. Modes whose divisor magnitude is far above
the best-conditioned degree amplify sample noise; they are reported (a
warning above CONDITION_THRESHOLD, a flagged degree above FLAG_THRESHOLD),
not fixed. Routes run together share work: each field is projected once,
and (h_l, D_l) is evaluated once for every route.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .harmonics import FieldSamples, _project
from .multipole import CoefficientSet, Medium, _expansion, coefficient_deviation
from .specfun import radial_factors

ROUTE_RADIAL = "radial"
ROUTE_TAN_E = "tangential-E"
ROUTE_TAN_H = "tangential-H"

CONDITION_THRESHOLD = 1e6  # amplification above which extraction warns
FLAG_THRESHOLD = 1e3  # amplification above which a report flags the degree

# The (field, projection kind) pairs each route inverts for (a_E, a_M); the
# expansion table gives each pair's family and divisor.
_ROUTE_TERMS = {
    ROUTE_RADIAL: (("E", "Yr"), ("H", "Yr")),
    ROUTE_TAN_E: (("E", "Z"), ("E", "X")),
    ROUTE_TAN_H: (("H", "X"), ("H", "Z")),
}


class ConditioningWarning(UserWarning):
    """Some requested modes are deeply evanescent on the sampling sphere and
    will amplify sample noise."""


@dataclass(eq=False)
class ExtractionReport:
    """One route's result plus its numerical health.

    condition_indicators maps degree l to the magnitude of that degree's
    largest divisor (|h_l| or |D_l| as the route uses them); amplification is
    the same quantity normalized to the best-conditioned degree;
    flagged_degrees are those whose amplification exceeds FLAG_THRESHOLD.
    """

    route: str
    coeffs: CoefficientSet
    condition_indicators: Dict[int, float]
    amplification: Dict[int, float]
    flagged_degrees: Tuple[int, ...]


@dataclass(eq=False)
class EquivalenceResult:
    """Three extraction routes run on the same physical surface data."""

    radial: ExtractionReport
    tangential_e: ExtractionReport
    tangential_h: ExtractionReport
    pairwise_deviation: Dict[Tuple[str, str], float]
    max_pairwise_deviation: float

    def reports(self) -> Tuple[ExtractionReport, ExtractionReport, ExtractionReport]:
        return (self.radial, self.tangential_e, self.tangential_h)


def _condition(route: str, h: np.ndarray, d: np.ndarray) -> Dict[int, float]:
    """Per-degree max over the route's terms of |D_l| (Z projection) or |h_l| (Yr, X)."""
    if route not in _ROUTE_TERMS:
        raise ValueError(f"unknown route {route!r}")
    mags = np.maximum.reduce([np.abs(d if kind == "Z" else h)
                              for _, kind in _ROUTE_TERMS[route]])
    return {l: float(mag) for l, mag in enumerate(mags, 1)}


def route_condition(route: str, medium: Medium, r0: float, l_max: int) -> Dict[int, float]:
    """Per-degree magnitude of the largest divisor the route uses."""
    return _condition(route, *radial_factors(l_max, medium.k * r0))


def _amplification(condition: Dict[int, float]) -> Dict[int, float]:
    best = min(condition.values())
    return {l: c / best for l, c in condition.items()}


def _extract(routes, e: Optional[FieldSamples], h: Optional[FieldSamples], l_max: int):
    """{route: (coefficients, condition indicators)} for the routes, from one
    projection call per field they read and one (h_l, D_l) evaluation shared
    by every route's indicators and by the expansion table's divisors."""
    samples = {field: {"E": e, "H": h}[field] for r in routes for field, _ in _ROUTE_TERMS[r]}
    for kind, fields in samples.items():
        if fields.field_kind != kind:
            raise ValueError(f"expected {kind} samples, got {fields.field_kind}")
        if fields.medium is None:
            raise ValueError("samples must carry their medium for extraction")
    first, *rest = samples.values()
    for other in rest:
        if not first.grid.same_geometry(other.grid):
            raise ValueError("E and H samples must share one grid")
        if first.medium != other.medium:
            raise ValueError("E and H samples must share one medium")
    med = first.medium
    x0 = med.k * first.grid.r0
    h_l, d_l = radial_factors(l_max, x0)
    conditions = {route: _condition(route, h_l, d_l) for route in routes}
    for route, condition in conditions.items():
        bad = sorted(l for l, a in _amplification(condition).items() if a > CONDITION_THRESHOLD)
        if bad:
            warnings.warn(
                f"{route} extraction: degrees {bad} are deeply evanescent on this "
                f"sphere (divisor amplification above {CONDITION_THRESHOLD:g}); recovered "
                f"coefficients there amplify sample noise",
                ConditioningWarning, stacklevel=3)
    projected = {field: _project(values, l_max) for field, values in samples.items()}
    table = _expansion(med, x0, h_l, d_l)

    def recovered(route):  # each projection over its divisor, as the family it determines
        terms = {}
        for field, kind in _ROUTE_TERMS[route]:
            family, scale, f = table[field, kind]
            terms[family] = projected[field][kind] / (scale * f)
        return CoefficientSet(l_max, med, **terms)

    return {route: (recovered(route), condition) for route, condition in conditions.items()}


def extract_radial(e: FieldSamples, h: FieldSamples, l_max: int) -> CoefficientSet:
    """Coefficients from the radial components of E and H alone."""
    return _extract((ROUTE_RADIAL,), e, h, l_max)[ROUTE_RADIAL][0]


def extract_tangential_e(e: FieldSamples, l_max: int) -> CoefficientSet:
    """Coefficients from the tangential components of E alone."""
    return _extract((ROUTE_TAN_E,), e, None, l_max)[ROUTE_TAN_E][0]


def extract_tangential_h(h: FieldSamples, l_max: int) -> CoefficientSet:
    """Coefficients from the tangential components of H alone."""
    return _extract((ROUTE_TAN_H,), None, h, l_max)[ROUTE_TAN_H][0]


def equivalence_report(e: FieldSamples, h: FieldSamples, l_max: int) -> EquivalenceResult:
    """Run all three routes on the same surface data and compare them pairwise.

    For exactly synthesized input the pairwise deviations sit at roundoff:
    radial-only data determines the same coefficients as tangential-E or
    tangential-H data. Per-route conditioning warnings propagate unchanged.
    """
    reports = []
    for route, (coeffs, condition) in _extract(tuple(_ROUTE_TERMS), e, h, l_max).items():
        amp = _amplification(condition)
        flagged = tuple(sorted(l for l, a in amp.items() if a > FLAG_THRESHOLD))
        reports.append(ExtractionReport(route, coeffs, condition, amp, flagged))
    pairwise = {(a.route, b.route): coefficient_deviation(a.coeffs, b.coeffs)
                for a, b in itertools.combinations(reports, 2)}
    return EquivalenceResult(*reports, pairwise, max(pairwise.values()))
