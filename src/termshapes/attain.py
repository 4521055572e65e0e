"""Constructive attainability of curve shapes in two-factor models.

Given a target shape, pick a Descartes subsystem whose interpolation
polynomial (with zeros at the desired extrema) realises the shape's
sign sequence, pad its coefficients into the five decay slots
(2*lam2, lam1+lam2, lam2, 2*lam1, lam1), and solve the coefficient
matching system for the covariance parameters and the state:

    sigma_1^2 kappa_1^2 / lam_1                        = a[2*lam1]
    sigma_2^2 kappa_2^2 / lam_2                        = a[2*lam2]
    rho (lam1+lam2) sigma_1 sigma_2 kappa_1 kappa_2
        / (lam1 lam2)                                  = a[lam1+lam2]
    kappa_j lam_j (theta_j - z_j) - u_j
        - rho lam_j sigma_1 sigma_2 kappa_1 kappa_2
        / (lam1 lam2)                                  = a[lam_j]

The squared-decay slots fix the volatilities, the cross slot fixes the
correlation (feasible only when it lands in [-1, 1]), and the plain
slots are then solved linearly for the state.  Construction routes:

  (i)    k=0  single slowest exponential, sign +/-      normal, inverse
  (ii)   k=1  (lam2, lam1), both orientations           humped, dipped
  (iii)  k=2  (2*lam2, lam2, lam1), positive leading    HD (all regimes)
  (iv)   k=2  (lam2, 2*lam1, lam1), negated             DH (separated)
  (v)    k=3  (2*lam2, lam2, 2*lam1, lam1), positive    HDH (separated)
  (vi)   k=3  4-element system with the cross slot      HDH, DH
  (vii)  k=4  full 5-element system                     HDHD, DHD

Cases (vi) and (vii) need rho < 0.  In the scale-proximal regime both
squared-decay slots are pinned, so the prescribed zeros are shrunk
toward the origin until |a_cross| / sqrt(a[2*lam1] a[2*lam2]) < 2, which
makes |rho| < 1 by the geometric-arithmetic-mean bound.  In the
scale-critical regime the lam2 and 2*lam1 slots merge, freeing one
squared-decay slot; it is chosen outright so that |rho| = 1/2.  The
hump-first variants use interior zeros only; the dip-first variants
place the first prescribed zero at the boundary x = 0.

Cases (i)-(v) realise the shape with rho = 0 and support freely
prescribed extrema locations; for (vi) and (vii) prescribed extrema are
refused, since no construction with that control is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .classify import (
    ShapeReport,
    admissible_shapes,
    classify_forward,
    classify_yield,
)
from .descartes import (
    DPolynomial,
    ExpBasis,
    F_KIND,
    G_KIND,
    GridSpec,
    _floats,
    _stretch_probes,
    basis_values,
    coef_inequality_value,
    eval_dpoly,
    interpolate_prescribed_zeros,
)
from .signseq import ShapeName, shape_from_label
from .vasicek import (ScaleRegime, VasicekModel, coefficient_parts, regime, slot_decays,
                      slot_layout, with_covariance)

Curve = Literal["forward", "yield"]

MAX_HALVINGS = 60
_VERIFY_REL_TOL = 1e-10


class InadmissibleShapeError(ValueError):
    """Requested shape is outside the attainable set for the regime."""

    def __init__(self, shape: ShapeName, reg: ScaleRegime, admissible: list[str]):
        self.shape = shape
        self.regime = reg
        self.admissible = admissible
        super().__init__(
            f"shape {shape} is not attainable in the scale-{reg} regime; "
            f"attainable shapes: {', '.join(admissible)}"
        )


class RhoOutOfRangeError(ValueError):
    """Cross slot demands a correlation outside [-1, 1]."""

    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(f"required correlation {rho:g} lies outside [-1, 1]")


class NumericalInfeasibilityError(RuntimeError):
    """Shrink procedure failed to reach a solvable coefficient vector."""


@dataclass(frozen=True)
class TargetCoefficients:
    """Target coefficients indexed by decay slot."""

    a_2l2: float
    a_cross: float
    a_l2: float
    a_2l1: float
    a_l1: float

    def as_dict(self) -> dict:
        return {
            "2*lam2": self.a_2l2,
            "lam1+lam2": self.a_cross,
            "lam2": self.a_l2,
            "2*lam1": self.a_2l1,
            "lam1": self.a_l1,
        }

    @property
    def parts(self) -> tuple[tuple[float, float], float, tuple[float, float]]:
        """The targets as (u, c, w), the ``vasicek.coefficient_core`` form."""
        return (self.a_2l1, self.a_2l2), self.a_cross, (self.a_l1, self.a_l2)

    @property
    def scale(self) -> float:
        return max(abs(a) for a in self.as_dict().values())


@dataclass(frozen=True)
class ShapeTarget:
    """A shape to construct, optionally with prescribed extrema locations."""

    shape: ShapeName
    curve: Curve = "forward"
    extrema: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.shape.is_named or self.shape.label == "flat":
            raise ValueError("target shape must be one of the named non-flat shapes")
        if self.curve not in ("forward", "yield"):
            raise ValueError("curve must be 'forward' or 'yield'")
        if self.extrema is not None:
            ext = _floats(self.extrema, "prescribed extrema")
            object.__setattr__(self, "extrema", ext)
            if len(ext) != self.shape.changes:
                raise ValueError(
                    f"shape {self.shape} needs {self.shape.changes} extrema, "
                    f"got {len(ext)}"
                )
            if not all(math.isfinite(r) for r in ext):
                raise ValueError("prescribed extrema must be finite")
            if any(r <= 0 for r in ext):
                raise ValueError("prescribed extrema must be strictly positive")
            if any(b <= a for a, b in zip(ext, ext[1:])):
                raise ValueError("prescribed extrema must be strictly increasing")


@dataclass(frozen=True)
class AttainSolution:
    """Covariance parameters and state realising a target shape."""

    sigma1: float
    sigma2: float
    rho: float
    z1: float
    z2: float
    dpoly: DPolynomial
    proof_case: str
    coefficients: TargetCoefficients
    model: VasicekModel
    prescribed_zeros: tuple[float, ...]

    @property
    def state(self) -> tuple[float, float]:
        return (self.z1, self.z2)

    def to_dict(self) -> dict:
        out = self.model.to_dict()
        out["z"] = [self.z1, self.z2]
        out["proof_case"] = self.proof_case
        out["target_coefficients"] = self.coefficients.as_dict()
        out["prescribed_zeros"] = list(self.prescribed_zeros)
        return out


def solve_key_system(
    tc: TargetCoefficients, base: VasicekModel
) -> AttainSolution | None:
    """Solve the coefficient-matching system for (sigma1, sigma2, rho, z).

    Returns None when no solution exists (a negative squared-decay slot,
    or a nonzero cross slot with a vanishing volatility).  Raises
    RhoOutOfRangeError when the volatilities are pinned but the required
    correlation exceeds [-1, 1].  Base volatility and correlation values
    are ignored and replaced.
    """
    if base.d != 2:
        raise ValueError("the key system applies to two-factor models")
    if tc.a_2l1 < 0 or tc.a_2l2 < 0:
        return None
    l1, l2 = base.lam
    k1, k2 = base.kappa
    sigma1 = math.sqrt(l1 * tc.a_2l1) / k1
    sigma2 = math.sqrt(l2 * tc.a_2l2) / k2
    if tc.a_2l1 > 0 and tc.a_2l2 > 0:
        rho = (
            math.sqrt(l1 * l2)
            / (l1 + l2)
            * tc.a_cross
            / math.sqrt(tc.a_2l1 * tc.a_2l2)
        )
        if abs(rho) > 1:
            raise RhoOutOfRangeError(rho)
    else:
        if tc.a_cross != 0.0:
            return None
        rho = 0.0

    mixed = rho * sigma1 * sigma2 * k1 * k2 / (l1 * l2)
    z1 = base.theta[0] - (tc.a_l1 + tc.a_2l1 + l1 * mixed) / (k1 * l1)
    z2 = base.theta[1] - (tc.a_l2 + tc.a_2l2 + l2 * mixed) / (k2 * l2)
    model = with_covariance(base, sigma1, sigma2, rho)
    decays, coeffs = slot_layout(base.lam, tc.parts)
    return AttainSolution(
        sigma1=sigma1,
        sigma2=sigma2,
        rho=rho,
        z1=z1,
        z2=z2,
        dpoly=DPolynomial(ExpBasis(F_KIND, decays), coeffs),
        proof_case="",
        coefficients=tc,
        model=model,
        prescribed_zeros=(),
    )


@dataclass(frozen=True)
class _Route:
    case: str
    tags: tuple[str, ...]
    orientation: int = 1
    boundary_zero: bool = False
    shrink: bool = False
    # Pad the empty slowest slot with a tiny negative coefficient instead
    # of zero: a zero target must be encoded through the state, and its
    # float reconstruction is +-1 ulp noise whose sign would decide the
    # terminal sign of the curve.  The nudge direction matches the
    # sign-sequence-preserving perturbation of the neighbouring slot, and
    # its size stays below the stability radius of the sign sequence.
    epsilon_slowest: bool = False


def _route_for(shape: ShapeName, reg: ScaleRegime) -> _Route:
    label = shape.label
    if label == "normal":
        return _Route("i", ("l1",), orientation=1)
    if label == "inverse":
        return _Route("i", ("l1",), orientation=-1)
    if label == "humped":
        return _Route("ii", ("l2", "l1"), orientation=1)
    if label == "dipped":
        return _Route("ii", ("l2", "l1"), orientation=-1)
    if label == "HD":
        return _Route("iii", ("2l2", "l2", "l1"))
    if label == "DH":
        if reg is ScaleRegime.SEPARATED:
            return _Route("iv", ("l2", "2l1", "l1"), orientation=-1)
        if reg is ScaleRegime.CRITICAL:
            return _Route("vi", ("2l2", "cross", "merged", "l1"), boundary_zero=True)
        return _Route(
            "vi",
            ("2l2", "cross", "2l1", "l2"),
            boundary_zero=True,
            shrink=True,
            epsilon_slowest=True,
        )
    if label == "HDH":
        if reg is ScaleRegime.SEPARATED:
            return _Route("v", ("2l2", "l2", "2l1", "l1"))
        if reg is ScaleRegime.CRITICAL:
            return _Route("vi", ("2l2", "cross", "merged", "l1"))
        return _Route(
            "vi", ("2l2", "cross", "2l1", "l2"), shrink=True, epsilon_slowest=True
        )
    if label == "DHD":
        return _Route(
            "vii",
            ("2l2", "cross", "2l1", "l2", "l1"),
            boundary_zero=True,
            shrink=True,
        )
    if label == "HDHD":
        return _Route("vii", ("2l2", "cross", "2l1", "l2", "l1"), shrink=True)
    raise AssertionError(f"unhandled shape {shape}")


def _pad(
    tags: Sequence[str], coeffs: Sequence[float], l1: float, l2: float
) -> TargetCoefficients:
    slots = {"2l2": 0.0, "cross": 0.0, "l2": 0.0, "2l1": 0.0, "l1": 0.0}
    merged = None
    for tag, a in zip(tags, coeffs):
        if tag == "merged":
            merged = a
        else:
            slots["l1" if tag == "l1eps" else tag] = a
    if merged is not None:
        # The merged slot value w2 + u1 leaves the split into its parts
        # free; spend the freedom on u1 so the correlation lands at 1/2.
        a_cross, a_2l2 = slots["cross"], slots["2l2"]
        if a_cross != 0.0:
            if a_2l2 <= 0:
                raise NumericalInfeasibilityError(
                    "merged-slot split needs a positive 2*lam2 coefficient"
                )
            slots["2l1"] = (
                4.0 * l1 * l2 / (l1 + l2) ** 2 * a_cross * a_cross / a_2l2
            )
        slots["l2"] = merged - slots["2l1"]
    return TargetCoefficients(
        a_2l2=slots["2l2"],
        a_cross=slots["cross"],
        a_l2=slots["l2"],
        a_2l1=slots["2l1"],
        a_l1=slots["l1"],
    )


def _slowest_slot_epsilon(
    poly: DPolynomial, zeros: tuple[float, ...], lam1: float
) -> float:
    """Tiny magnitude for an extra slowest-decay coefficient that cannot
    disturb the realised sign sequence.

    One probe per sign stretch of the interpolant; any coefficient
    perturbation below min |p(probe)| / (sum of basis suprema + 1) keeps
    every probe on its side, so the stretch pattern survives.  The
    result is clamped far above float reconstruction noise; failure to
    fit between the two scales means the zeros are too collapsed to
    realise the shape stably.
    """
    probes = _stretch_probes(zeros, lam1)
    values = [abs(eval_dpoly(poly, r)) for r in probes]
    denom = 1.0 + float(
        np.sum(np.max(np.abs(basis_values(poly.basis, probes)), axis=1))
    )
    radius = min(values) / denom
    eps = min(1e-9 * max(abs(a) for a in poly.coefficients), 0.5 * radius)
    if eps < 1e-12:
        raise NumericalInfeasibilityError(
            "prescribed zeros too collapsed to pad the slowest slot safely"
        )
    return eps


def _state_encoding_scale(
    tags: Sequence[str], coeffs: Sequence[float], base: VasicekModel
) -> float:
    slot_factor = {"l1": 0, "l2": 1, "merged": 1}
    grow = 1.0
    for tag, a in zip(tags, coeffs):
        j = slot_factor.get(tag)
        if j is None or a == 0.0 or base.theta[j] == 0.0:
            continue
        grow = max(
            grow, base.kappa[j] * base.lam[j] * abs(base.theta[j]) / abs(a)
        )
    return grow


def construct(target: ShapeTarget, base: VasicekModel) -> AttainSolution:
    """Build parameters and state whose curve attains the target shape.

    The base model supplies lam, theta, kappa and kappa0; its covariance
    parameters are ignored.  Routes with a choice prefer rho = 0.
    Raises InadmissibleShapeError when the classification theorem rules
    the shape out for the base's regime, and refuses prescribed extrema
    on routes (vi)/(vii), where no location control is available.
    """
    if base.d != 2:
        raise ValueError("shape construction applies to two-factor models")
    reg = regime(base)
    attainable = (
        admissible_shapes(reg, "nonnegative").shapes
        | admissible_shapes(reg, "negative").shapes
    )
    if target.shape not in attainable:
        labels = sorted(str(s) for s in attainable if s.label != "flat")
        raise InadmissibleShapeError(target.shape, reg, labels)

    route = _route_for(target.shape, reg)
    if target.extrema and route.case in ("vi", "vii"):
        raise ValueError(
            f"prescribed extrema are not supported for shape {target.shape} in "
            f"the scale-{reg} regime (construction case ({route.case}) offers "
            "no control over their locations)"
        )

    l1, l2 = base.lam
    kind = F_KIND if target.curve == "forward" else G_KIND
    decay = slot_decays(l1, l2)
    basis = ExpBasis(kind, tuple(decay[t] for t in route.tags))
    n = len(basis)

    if n == 1:
        poly = DPolynomial(basis, (float(route.orientation),))
        zeros: tuple[float, ...] = ()
    else:
        if target.extrema:
            interior = target.extrema
        else:
            interior = tuple(
                float(k + 1) for k in range(n - 1 - int(route.boundary_zero))
            )
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            zeros = tuple(r * scale for r in interior)
            if route.boundary_zero:
                zeros = (0.0, *zeros)
            poly = interpolate_prescribed_zeros(basis, zeros)
            if not route.shrink:
                break
            if coef_inequality_value(poly, l1, l2) < 2.0:
                break
            scale *= 0.5
        else:
            raise NumericalInfeasibilityError(
                f"coefficient inequality not satisfied after {MAX_HALVINGS} "
                f"halvings (shape {target.shape}, lam={base.lam})"
            )
        if route.orientation < 0:
            poly = DPolynomial(basis, tuple(-a for a in poly.coefficients))

    tags = route.tags
    if route.epsilon_slowest:
        eps = _slowest_slot_epsilon(poly, zeros, l1)
        tags = (*tags, "l1eps")
        poly = DPolynomial(
            ExpBasis(kind, (*basis.decays, l1)), (*poly.coefficients, -eps)
        )

    # The overall scale of the realising polynomial is free (curve shapes
    # are scale-invariant), so pick it large enough that every
    # state-encoded slot stays comparable to kappa*lam*theta: otherwise
    # theta - z cancels catastrophically and the recovered coefficients,
    # hence the extrema locations, lose precision.
    grow = _state_encoding_scale(tags, poly.coefficients, base)
    if grow > 1.0:
        poly = DPolynomial(poly.basis, tuple(grow * a for a in poly.coefficients))

    tc = _pad(tags, poly.coefficients, l1, l2)
    solution = solve_key_system(tc, base)
    if solution is None:
        raise NumericalInfeasibilityError(
            f"key system unexpectedly unsolvable for shape {target.shape}"
        )
    return replace(solution, dpoly=poly, proof_case=route.case, prescribed_zeros=zeros)


@dataclass(frozen=True)
class AttainVerification:
    """Round-trip check of an attainability solution."""

    passed: bool
    shape_matched: bool
    classified_shape: ShapeName
    report: ShapeReport
    extrema_rel_errors: tuple[float, ...]
    max_residual: float
    messages: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "shape_matched": self.shape_matched,
            "classified_shape": str(self.classified_shape),
            "extrema_rel_errors": list(self.extrema_rel_errors),
            "max_residual": self.max_residual,
            "messages": list(self.messages),
        }


def _verification_grid(sol: AttainSolution) -> GridSpec:
    """The default grid, dense enough to resolve the prescribed zeros."""
    grid = GridSpec.for_basis(sol.dpoly.basis)
    positive = [z for z in sol.prescribed_zeros if z > 0]
    if not positive:
        return grid
    gaps = [positive[0]] + [b - a for a, b in zip(positive, positive[1:])]
    min_gap = min(gaps)
    spacings = 4.0 * grid.x_max / min_gap
    if spacings >= 2**21:
        raise NumericalInfeasibilityError(
            f"prescribed zeros too tightly clustered to verify (gap {min_gap:g})"
        )
    needed = int(spacings) + 1
    return grid if needed <= grid.n_samples else replace(grid, n_samples=needed)


def residuals(sol: AttainSolution) -> float:
    """Largest relative mismatch when the solution is substituted back
    into the coefficient-matching system, slot by slot of the layout."""
    lam = sol.model.lam
    _, got = slot_layout(lam, coefficient_parts(sol.model, sol.state))
    _, want = slot_layout(lam, sol.coefficients.parts)
    return max(abs(g - t) for g, t in zip(got, want)) / max(1.0, sol.coefficients.scale)


def verify_solution(sol: AttainSolution, target: ShapeTarget) -> AttainVerification:
    """Classify the constructed curve on ``_verification_grid`` and
    re-substitute the solution."""
    classify = classify_forward if target.curve == "forward" else classify_yield
    report = classify(sol.model, sol.state, _verification_grid(sol))

    messages = []
    shape_matched = report.shape == target.shape
    if not shape_matched:
        messages.append(
            f"classified shape {report.shape} differs from target {target.shape}"
        )

    extrema_errors: tuple[float, ...] = ()
    if target.extrema:
        found = tuple(e.location for e in report.extrema)
        if len(found) != len(target.extrema):
            messages.append(
                f"expected {len(target.extrema)} extrema, found {len(found)}"
            )
        else:
            extrema_errors = tuple(
                abs(f - r) / abs(r) for f, r in zip(found, target.extrema)
            )
            worst = max(extrema_errors)
            if worst > 1e-6:
                messages.append(f"extremum location error {worst:g} exceeds 1e-6")

    max_residual = residuals(sol)
    if max_residual > _VERIFY_REL_TOL:
        messages.append(f"key-system residual {max_residual:g} exceeds 1e-10")

    return AttainVerification(
        passed=not messages,
        shape_matched=shape_matched,
        classified_shape=report.shape,
        report=report,
        extrema_rel_errors=extrema_errors,
        max_residual=max_residual,
        messages=tuple(messages),
    )


def construct_target(
    shape: str | ShapeName,
    base: VasicekModel,
    curve: Curve = "forward",
    extrema: Sequence[float] | None = None,
) -> tuple[AttainSolution, AttainVerification]:
    """Convenience wrapper: build the target, construct, and verify."""
    name = shape if isinstance(shape, ShapeName) else shape_from_label(shape)
    target = ShapeTarget(shape=name, curve=curve, extrema=extrema)
    sol = construct(target, base)
    return sol, verify_solution(sol, target)
