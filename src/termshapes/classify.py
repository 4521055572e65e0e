"""Shape classification of forward and yield curves.

A curve's shape is read off its derivative: the classifier builds the
derivative D-polynomial, extracts its reduced sign sequence on
[0, inf) with ``sseq_of_dpoly`` (Rolle's descent, with no grid), and
names the resulting hump/dip pattern.  The module also
exposes the theoretical admissibility sets per scale regime and
correlation sign, the per-instance sign-sequence bounds implied by
variation diminishing, and the closed-form state-space regions of the
one-factor model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from . import signseq
from .descartes import REFINE_TOL, DPolynomial, sseq_of_dpoly
from .signseq import (
    DH,
    DHD,
    DIPPED,
    FLAT,
    HD,
    HDH,
    HDHD,
    HUMPED,
    INVERSE,
    NORMAL,
    ShapeName,
    Sign,
    SignSeq,
)
from .vasicek import (
    ScaleRegime,
    VasicekModel,
    coefficient_parts,
    l_coefficients,
    m_coefficients,
    regime,
)

Curve = Literal["forward", "yield"]
RhoClass = Literal["nonnegative", "negative"]

#: Coefficient magnitudes below this fraction of the largest one are
#: flagged as boundary cases in the report diagnostics.
BOUNDARY_RTOL = 1e-12


@dataclass(frozen=True)
class Extremum:
    location: float
    kind: Literal["hump", "dip"]


@dataclass(frozen=True)
class ShapeReport:
    """Classification result for one curve of one (model, state) pair."""

    curve: Curve
    shape: ShapeName
    derivative_sseq: SignSeq
    extrema: tuple[Extremum, ...]
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "shape": str(self.shape),
            "derivative_sseq": str(self.derivative_sseq),
            "extrema": [
                {"location": e.location, "kind": e.kind} for e in self.extrema
            ],
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class AdmissibleSet:
    """Set of shapes the classification theorem allows."""

    shapes: frozenset[ShapeName]

    def __contains__(self, shape: ShapeName) -> bool:
        return shape in self.shapes

    def labels(self) -> list[str]:
        return sorted(str(s) for s in self.shapes)


_CORE = frozenset({FLAT, NORMAL, INVERSE, HUMPED, DIPPED, HD})
_SEVEN = AdmissibleSet(_CORE | {DH, HDH})
_FIVE = AdmissibleSet(_CORE)
_NINE = AdmissibleSet(_CORE | {DH, HDH, DHD, HDHD})


def admissible_shapes(reg: ScaleRegime, rho_class: RhoClass) -> AdmissibleSet:
    """Attainable shapes per regime and correlation sign (flat included
    as the degenerate case)."""
    if reg in (ScaleRegime.SEPARATED, ScaleRegime.CRITICAL):
        return _SEVEN
    if rho_class == "nonnegative":
        return _FIVE
    return _NINE


def rho_class_of(model: VasicekModel) -> RhoClass:
    return "nonnegative" if model.rho >= 0 else "negative"


def _classify(poly: DPolynomial, curve: Curve) -> ShapeReport:
    if poly.is_zero:
        return ShapeReport(
            curve=curve,
            shape=FLAT,
            derivative_sseq=signseq.EMPTY_PURE,
            extrema=(),
            diagnostics={"flat": True},
        )
    sseq, zeros = sseq_of_dpoly(poly)
    shape = signseq.shape_of(sseq)

    extrema = []
    for (s_prev, s_next), loc in zip(zip(sseq.signs, sseq.signs[1:]), zeros):
        kind = "hump" if (s_prev is Sign.PLUS and s_next is Sign.MINUS) else "dip"
        extrema.append(Extremum(location=loc, kind=kind))

    scale = max(abs(a) for a in poly.coefficients)
    boundary = [
        i
        for i, a in enumerate(poly.coefficients)
        if abs(a) < BOUNDARY_RTOL * scale
    ]
    diagnostics = {
        "refine_tol": REFINE_TOL,
        "boundary_coefficient_slots": boundary,
        "zero_residuals": [abs(poly(z)) for z in zeros],
    }
    return ShapeReport(
        curve=curve,
        shape=shape,
        derivative_sseq=sseq,
        extrema=tuple(extrema),
        diagnostics=diagnostics,
    )


def classify_forward(model: VasicekModel, z) -> ShapeReport:
    """Shape of the forward curve at state z."""
    return _classify(l_coefficients(model, z), "forward")


def classify_yield(model: VasicekModel, z) -> ShapeReport:
    """Shape of the yield curve at state z."""
    return _classify(m_coefficients(model, z), "yield")


def sign_bound(model: VasicekModel, z) -> SignSeq:
    """Reduced sign-sequence bound for the derivatives of both curves.

    Built from the correlation sign, the scale regime and the signs of
    the state-dependent coefficients.  The forward derivative's sign
    sequence is a subsequence of this bound, even a tail-subsequence (the
    bound ends in the terminal sign); the yield derivative's sequence
    heads the forward one, so the bound holds for it too.
    """
    if model.d != 2:
        raise ValueError("sign bounds apply to two-factor models only")
    u, _, w = coefficient_parts(model, z)
    reg = regime(model)
    plus, minus = Sign.PLUS, Sign.MINUS
    s_w1, s_w2 = Sign.of(w[0]), Sign.of(w[1])
    merged = Sign.of(w[1] + u[0])

    if model.rho >= 0:
        literal = {
            ScaleRegime.PROXIMAL: (plus, s_w2, s_w1),
            ScaleRegime.SEPARATED: (plus, s_w2, plus, s_w1),
            ScaleRegime.CRITICAL: (plus, merged, s_w1),
        }[reg]
    else:
        literal = {
            ScaleRegime.PROXIMAL: (plus, minus, plus, s_w2, s_w1),
            ScaleRegime.SEPARATED: (plus, minus, s_w2, plus, s_w1),
            ScaleRegime.CRITICAL: (plus, minus, merged, s_w1),
        }[reg]
    return signseq.reduce(SignSeq(literal))


def one_dim_regions(
    model: VasicekModel,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """State thresholds of the one-factor model.

    Returns ((forward slope boundary, theta), (yield slope boundary,
    theta)): below the first value of a pair the curve is normal, above
    theta it is inverse, humped in between.
    """
    if model.d != 1:
        raise ValueError("closed-form regions apply to one-factor models only")
    lam, kap, sig, theta = model.lam[0], model.kappa[0], model.sigma[0], model.theta[0]
    forward_lo = theta - sig * sig * kap / (lam * lam)
    yield_lo = theta - 0.75 * sig * sig * kap / (lam * lam)
    return (forward_lo, theta), (yield_lo, theta)
