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
routes none of the radial column. The same divisors give each route's noise
law: per unit rms of complex noise on each sample component, the rms error of
a degree-l coefficient is sqrt(Sum w_i^2 / 4 pi) / |scale * f_l|, w_i the
quadrature weights, because Sum_m |Y_lm|^2 = Sum_m |X_lm|^2 = (2l + 1) / 4 pi.
Routes run together share work: each field is projected once, and the table
is built from one (h_l, D_l) evaluation for every route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .harmonics import FieldSamples, SphereGrid, _project, mode_slot
from .multipole import CoefficientSet, Medium, _expansion, coefficient_deviation
from .specfun import radial_factors

ROUTE_RADIAL = "radial"
ROUTE_TAN_E = "tangential-E"
ROUTE_TAN_H = "tangential-H"

# The (field, projection kind) pairs each route inverts for (a_E, a_M); the
# expansion table gives each pair's family and divisor.
_ROUTE_TERMS = {
    ROUTE_RADIAL: (("E", "Yr"), ("H", "Yr")),
    ROUTE_TAN_E: (("E", "Z"), ("E", "X")),
    ROUTE_TAN_H: (("H", "X"), ("H", "Z")),
}


@dataclass(eq=False)
class ExtractionReport:
    """One route's result plus its noise law.

    noise_gain maps each family ("a_e", "a_m") to an array of shape (l_max,):
    entry l - 1 is the rms error over the 2l + 1 modes of degree l of the
    recovered coefficient, per unit rms of complex noise on each sample
    component of the field the route reads for that family.
    """

    route: str
    coeffs: CoefficientSet
    noise_gain: Dict[str, np.ndarray]


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


def _noise_gains(routes, table, grid: SphereGrid, l_max: int):
    """{route: {family: sqrt(Sum w^2 / 4 pi) / |scale * f_l| for l = 1..l_max}},
    (family, scale, f) the table entry of each of the route's terms."""
    noise = np.sqrt(np.sum(grid.weights**2) / (4.0 * np.pi))
    degree_slots = mode_slot(np.arange(1, l_max + 1), 0)
    return {route: {family: noise / np.abs(scale * f[degree_slots])
                    for family, scale, f in (table[term] for term in _ROUTE_TERMS[route])}
            for route in routes}


def route_condition(route: str, medium: Medium, grid: SphereGrid,
                    l_max: int) -> Dict[str, np.ndarray]:
    """The route's noise_gain on this grid and medium, as its report carries it."""
    if route not in _ROUTE_TERMS:
        raise ValueError(f"unknown route {route!r}")
    x0 = medium.k * grid.r0
    table = _expansion(medium, x0, *radial_factors(l_max, x0))
    return _noise_gains((route,), table, grid, l_max)[route]


def _extract(routes, e: Optional[FieldSamples], h: Optional[FieldSamples], l_max: int):
    """{route: (coefficients, noise gain)} for the routes, from one projection
    call per field they read and one expansion table shared by every route."""
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
    table = _expansion(med, x0, *radial_factors(l_max, x0))
    projected = {field: _project(values, l_max) for field, values in samples.items()}
    gains = _noise_gains(routes, table, first.grid, l_max)

    def recovered(route):  # each projection over its divisor, as the family it determines
        terms = {}
        for field, kind in _ROUTE_TERMS[route]:
            family, scale, f = table[field, kind]
            terms[family] = projected[field][kind] / (scale * f)
        return CoefficientSet(l_max, med, **terms)

    return {route: (recovered(route), gains[route]) for route in routes}


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
    tangential-H data.
    """
    reports = [ExtractionReport(route, *result)
               for route, result in _extract(tuple(_ROUTE_TERMS), e, h, l_max).items()]
    pairwise = {(a.route, b.route): coefficient_deviation(a.coeffs, b.coeffs)
                for a, b in itertools.combinations(reports, 2)}
    return EquivalenceResult(*reports, pairwise, max(pairwise.values()))
