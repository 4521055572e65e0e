"""One- and two-factor Vasicek short-rate models and their curves.

The factor process follows mean-reverting Ornstein-Uhlenbeck dynamics
under the pricing measure,

    dZ_i = -lam_i (Z_i - theta_i) dt + sigma_i dB_i,

with strictly increasing mean-reversion speeds ``0 < lam_1 < lam_2`` and
correlated drivers; the instantaneous covariance of ``(sigma_i B_i)`` is
``Cov[i, j] = rho_ij sigma_i sigma_j``.  The short rate is
``r = kappa_0 + kappa . Z`` with strictly positive loadings, and the
zero-coupon bond price is exponentially affine,
``P(x) = exp(A(x) + Z . B(x))`` with

    B_i(x) = (kappa_i / lam_i) (exp(-lam_i x) - 1).

Both the forward curve ``f(x) = -d/dx log P`` and the yield curve
``Y(x) = -(1/x) log P`` have closed forms that never require A: with
``F(b) = mu.b + b.Cov.b/2 - kappa_0`` (``mu_i = lam_i theta_i``) and
``R(b) = -diag(lam) b - kappa``,

    f(x) = -F(B(x)) - z . R(B(x)),
    Y(x) = (1/x) * integral_0^x f(y) dy.

The curve derivatives l = f' and m = Y' are exponential polynomials; m
is the hump-weighted average m(x) = x^-2 * integral_0^x y l(y) dy, hence
a D-polynomial in the integrated-kernel basis with the same
coefficients.  For two factors the five coefficients are

    u_j = sigma_j^2 kappa_j^2 / lam_j                       (decay 2 lam_j)
    c   = rho (lam_1+lam_2) sigma_1 sigma_2 kappa_1 kappa_2
          / (lam_1 lam_2)                                   (decay lam_1+lam_2)
    w_j = kappa_j lam_j (theta_j - z_j) - u_j
          - rho lam_j sigma_1 sigma_2 kappa_1 kappa_2
          / (lam_1 lam_2)                                   (decay lam_j)

and the Descartes ordering of the decays depends on the scale regime:
separated (2 lam_1 < lam_2), proximal (2 lam_1 > lam_2) or critical
(equal, where the 2 lam_1 and lam_2 slots merge into w_2 + u_1).

``coefficient_core`` holds these formulas, for floats and arrays alike,
and ``slot_layout`` is the one function that orders the slots, for the
curves here, the batch scans in ``verify`` and ``attain``'s construction.

Units: time in years, rates as decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from operator import itemgetter
from typing import Mapping

import numpy as np

from .descartes import DPolynomial, ExpBasis, F_KIND, G_KIND, MIN_DECAY, g_kernel_value

#: Relative tolerance for classifying a model as scale-critical.
CRITICAL_RTOL = 1e-12

State = tuple[float, ...]


class ScaleRegime(Enum):
    SEPARATED = "separated"
    PROXIMAL = "proximal"
    CRITICAL = "critical"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class VasicekModel:
    """Parameter set of a d-factor Vasicek model, d in {1, 2}.

    ``rho`` is the driver correlation and is only meaningful for d = 2.
    """

    lam: tuple[float, ...]
    theta: tuple[float, ...]
    kappa: tuple[float, ...]
    kappa0: float
    sigma: tuple[float, ...]
    rho: float = 0.0

    def __post_init__(self):
        for name in ("lam", "theta", "kappa", "sigma", "kappa0", "rho"):
            value, scalar = getattr(self, name), name in ("kappa0", "rho")
            try:
                if isinstance(value, str):
                    raise TypeError
                value = float(value) if scalar else tuple(float(v) for v in value)
            except (TypeError, ValueError):
                kind = "a number" if scalar else "a list of numbers"
                label = "lambda" if name == "lam" else name
                raise ValueError(f"{label} must be {kind}, got {value!r}") from None
            object.__setattr__(self, name, value)
        params = (*self.lam, *self.theta, *self.kappa, *self.sigma, self.kappa0, self.rho)
        if not all(math.isfinite(v) for v in params):
            raise ValueError("model parameters must be finite")
        d = len(self.lam)
        if d not in (1, 2):
            raise ValueError("model must have 1 or 2 factors")
        if any(len(v) != d for v in (self.theta, self.kappa, self.sigma)):
            raise ValueError("theta, kappa, sigma must match the factor count")
        if any(l <= 0 for l in self.lam):
            raise ValueError("mean-reversion speeds must be strictly positive")
        if d == 2 and not self.lam[0] < self.lam[1]:
            raise ValueError("mean-reversion speeds must be strictly increasing")
        if not math.isfinite(2.0 * self.lam[-1]):  # also bounds lam_1 + lam_2
            raise ValueError("mean-reversion speeds overflow: 2*lambda must be finite")
        if self.lam[0] < MIN_DECAY:
            raise ValueError(f"mean-reversion speeds must be at least {MIN_DECAY:g}")
        if any(k <= 0 for k in self.kappa):
            raise ValueError("loadings kappa must be strictly positive")
        if any(s < 0 for s in self.sigma):
            raise ValueError("volatilities must be non-negative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("correlation must lie in [-1, 1]")
        derived = (
            *(s * s * k * k / l for s, k, l in zip(self.sigma, self.kappa, self.lam)),  # u
            *(l * t * k for l, t, k in zip(self.lam, self.theta, self.kappa)),
            *(si * sj for si in self.sigma for sj in self.sigma),  # covariance over rho
        )
        if not all(math.isfinite(v) for v in derived):
            raise ValueError(
                "model parameters overflow: sigma^2 kappa^2 / lambda, lambda theta kappa, "
                "sigma_i sigma_j and the covariance must be finite"
            )

    @property
    def d(self) -> int:
        return len(self.lam)

    @property
    def mu(self) -> np.ndarray:
        return np.array([l * t for l, t in zip(self.lam, self.theta)])

    def covariance(self) -> np.ndarray:
        """Instantaneous covariance matrix of the volatility-scaled drivers."""
        s = self.sigma
        if self.d == 1:
            return np.array([[s[0] ** 2]])
        off = self.rho * s[0] * s[1]
        return np.array([[s[0] ** 2, off], [off, s[1] ** 2]])

    @classmethod
    def from_dict(cls, data: Mapping) -> "VasicekModel":
        """Build from the plain JSON schema.

        Keys: d, lambda, theta, kappa, kappa0, sigma, rho (rho optional
        for d = 1).  An optional key z (default state) is ignored here.
        """
        try:
            model = cls(
                lam=data["lambda"],
                theta=data["theta"],
                kappa=data["kappa"],
                kappa0=data["kappa0"],
                sigma=data["sigma"],
                rho=data.get("rho", 0.0) or 0.0,
            )
        except KeyError as exc:
            raise ValueError(f"model document missing key {exc.args[0]!r}") from None
        if "d" in data and data["d"] != model.d:
            raise ValueError("declared d does not match the lambda length")
        return model

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "lambda": list(self.lam),
            "theta": list(self.theta),
            "kappa": list(self.kappa),
            "kappa0": self.kappa0,
            "sigma": list(self.sigma),
        }
        if self.d == 2:
            out["rho"] = self.rho
        return out


def as_state(z, d: int) -> State:
    """Normalise a state vector and check its length and finiteness."""
    if np.ndim(z) == 0:
        z = (z,)
    try:
        state = tuple(float(v) for v in z)
    except (TypeError, ValueError):
        raise ValueError(f"state entries must be numbers, got {z!r}") from None
    if len(state) != d:
        raise ValueError(f"state vector must have {d} entries, got {len(state)}")
    if any(not math.isfinite(v) for v in state):
        raise ValueError("state entries must be finite")
    return state


def regime(model: VasicekModel) -> ScaleRegime:
    """Scale regime of a two-factor model (tolerant critical detection)."""
    if model.d != 2:
        raise ValueError("scale regime applies to two-factor models only")
    a, b = 2.0 * model.lam[0], model.lam[1]
    if abs(a - b) <= CRITICAL_RTOL * max(a, b):
        return ScaleRegime.CRITICAL
    return ScaleRegime.SEPARATED if a < b else ScaleRegime.PROXIMAL


def B(model: VasicekModel, x):
    """Bond-price factor loadings; shape (d,) or (d, len(x))."""
    xs = np.asarray(x, dtype=float)
    lam = np.array(model.lam)
    kap = np.array(model.kappa)
    if xs.ndim == 0:
        return kap / lam * np.expm1(-lam * float(xs))
    return kap[:, None] / lam[:, None] * np.expm1(-lam[:, None] * xs[None, :])


def forward_curve(model: VasicekModel, z, x):
    """Instantaneous forward rate f(x; z); accepts scalar or array x."""
    state = np.array(as_state(z, model.d))
    b = B(model, x)
    cov = model.covariance()
    lam = np.array(model.lam)
    kap = np.array(model.kappa)
    mu = model.mu
    if b.ndim == 1:
        f_val = mu @ b + 0.5 * b @ cov @ b - model.kappa0
        r_val = -lam * b - kap
        return float(-f_val - state @ r_val)
    f_val = mu @ b + 0.5 * np.einsum("it,ij,jt->t", b, cov, b) - model.kappa0
    r_val = -lam[:, None] * b - kap[:, None]
    return -f_val - state @ r_val


def short_rate(model: VasicekModel, z) -> float:
    """f(0; z) = kappa_0 + kappa . z."""
    state = as_state(z, model.d)
    return model.kappa0 + float(np.dot(model.kappa, state))


def coefficient_core(lam, theta, kappa, sigma, rho, z):
    """(u per factor, c, w per factor) from per-factor parameter sequences.

    Plain arithmetic, so entries may be floats or equal-shape arrays."""
    u = tuple(s * s * k * k / l for s, k, l in zip(sigma, kappa, lam))
    if len(lam) == 1:
        mixed = c = 0.0
    else:
        mixed = rho * sigma[0] * sigma[1] * kappa[0] * kappa[1] / (lam[0] * lam[1])
        c = (lam[0] + lam[1]) * mixed
    w = tuple(
        k * l * (t - zv) - uv - l * mixed
        for k, l, t, zv, uv in zip(kappa, lam, theta, z, u)
    )
    return u, c, w


def coefficient_parts(
    model: VasicekModel, z
) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    """Exponential-polynomial coefficients (u per factor, c, w per factor).

    Raises ValueError if the state makes a coefficient non-finite."""
    state = as_state(z, model.d)
    u, c, w = coefficient_core(model.lam, model.theta, model.kappa, model.sigma, model.rho,
                               state)
    if not all(math.isfinite(v) for v in (*u, c, *w)):
        raise ValueError(f"curve coefficients overflow at state {list(state)}")
    return u, c, w


#: Slot tags in Descartes order (fastest decay first) for each ordering of
#: 2 lam_1 against lam_2; at criticality the lam_2 and 2 lam_1 slots merge.
SLOT_TAGS = {
    ScaleRegime.SEPARATED: ("2l2", "cross", "l2", "2l1", "l1"),
    ScaleRegime.PROXIMAL: ("2l2", "cross", "2l1", "l2", "l1"),
    ScaleRegime.CRITICAL: ("2l2", "cross", "merged", "l1"),
}


def slot_decays(l1, l2) -> dict:
    """Decay of every slot tag of a two-factor model."""
    return {"2l2": 2 * l2, "cross": l1 + l2, "l2": l2, "2l1": 2 * l1, "l1": l1,
            "merged": l2}


def slot_layout(lam, parts, order: ScaleRegime | None = None) -> tuple[tuple, tuple]:
    """Decays (strictly decreasing) and matching coefficients of l and m.

    ``parts`` is (u, c, w) from ``coefficient_core``, floats or arrays.
    ``order`` fixes the two-factor slot order; by default the exact
    2 lam_1 vs lam_2 comparison picks it (merged slot only on equality).
    """
    u, c, w = parts
    if len(lam) == 1:
        return (2 * lam[0], lam[0]), (u[0], w[0])
    if order is None:
        a, b = 2 * lam[0], lam[1]
        order = ScaleRegime.SEPARATED if a < b else (
            ScaleRegime.PROXIMAL if a > b else ScaleRegime.CRITICAL)
    value = {"2l2": u[1], "cross": c, "l2": w[1], "2l1": u[0], "l1": w[0],
             "merged": w[1] + u[0]}
    pick = itemgetter(*SLOT_TAGS[order])
    return pick(slot_decays(*lam)), pick(value)


def l_coefficients(model: VasicekModel, z) -> DPolynomial:
    """Forward-curve derivative as a D-polynomial over plain exponentials.

    Slot ordering follows the exact decay comparison (the merged
    ``w_2 + u_1`` slot only on exact scale-criticality), independent of
    the tolerant regime label.
    """
    decays, coeffs = slot_layout(model.lam, coefficient_parts(model, z))
    return DPolynomial(ExpBasis(F_KIND, decays), coeffs)


def m_coefficients(model: VasicekModel, z) -> DPolynomial:
    """Yield-curve derivative: same coefficients, integrated-kernel basis."""
    decays, coeffs = slot_layout(model.lam, coefficient_parts(model, z))
    return DPolynomial(ExpBasis(G_KIND, decays), coeffs)


def l_eval_direct(model: VasicekModel, z, x):
    """Forward-curve derivative evaluated from the loadings directly.

    Independent of the D-polynomial path; used for cross-validation.
    """
    state = np.array(as_state(z, model.d))
    xs = np.asarray(x, dtype=float)
    lam = np.array(model.lam)
    kap = np.array(model.kappa)
    cov = model.covariance()
    mu = model.mu
    b = B(model, xs)
    if xs.ndim == 0:
        bp = -kap * np.exp(-lam * float(xs))
        return float(-mu @ bp - b @ cov @ bp + (state * lam) @ bp)
    bp = -kap[:, None] * np.exp(-lam[:, None] * xs[None, :])
    return -mu @ bp - np.einsum("it,ij,jt->t", b, cov, bp) + (state * lam) @ bp


def yield_curve(model: VasicekModel, z, x):
    """Zero-coupon yield Y(x; z), with Y(0) = f(0) by continuity.

    Closed form through the derivative polynomial:
    Y(x) = f(0) + x * sum_k a_k [h(g_k x) - g_{g_k}(x)] with
    h(u) = (1 - e^-u)/u, so no quadrature and no A(x) are needed.
    """
    decays, coeffs = slot_layout(model.lam, coefficient_parts(model, z))
    f0 = short_rate(model, z)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xv = np.atleast_1d(xs)
    total = np.zeros_like(xv)
    for a, g in zip(coeffs, decays):
        if a == 0.0:
            continue
        u = g * xv
        h = np.ones_like(u)
        nz = u > 0
        h[nz] = -np.expm1(-u[nz]) / u[nz]
        total += a * (h - g_kernel_value(u))
    out = f0 + xv * total
    return float(out[0]) if scalar else out


def transition_mean(model: VasicekModel, z, dt: float) -> np.ndarray:
    state = np.array(as_state(z, model.d))
    theta = np.array(model.theta)
    return theta + (state - theta) * np.exp(-np.array(model.lam) * dt)


def transition_cov(model: VasicekModel, dt: float) -> np.ndarray:
    """Exact covariance of the state increment over a step of length dt."""
    lam = np.array(model.lam)
    rates = lam[:, None] + lam[None, :]
    return model.covariance() * -np.expm1(-rates * dt) / rates


def _symmetric_sqrt(c: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(c)
    floor = -1e-14 * max(1.0, float(np.max(np.abs(vals))))
    if np.any(vals < floor):
        raise ValueError(f"transition covariance has negative eigenvalue {vals.min():g}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def ou_exact_step(model: VasicekModel, z, dt: float, noise) -> np.ndarray:
    """One exact transition of the factor process.

    ``noise`` holds standard normal draws of shape (d,) or (n, d); the
    result has the same shape.  Determinism is the caller's business:
    randomness enters only through this argument.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    mean = transition_mean(model, z, dt)
    root = _symmetric_sqrt(transition_cov(model, dt))
    eps = np.asarray(noise, dtype=float)
    if eps.ndim == 1:
        if eps.shape[0] != model.d:
            raise ValueError(f"noise must have {model.d} entries")
        return mean + root @ eps
    if eps.ndim != 2 or eps.shape[1] != model.d:
        raise ValueError(f"noise must have shape (n, {model.d})")
    return mean[None, :] + eps @ root.T


def with_covariance(
    model: VasicekModel, sigma1: float, sigma2: float, rho: float
) -> VasicekModel:
    """Copy of a two-factor model with the covariance parameters replaced."""
    if model.d != 2:
        raise ValueError("covariance replacement applies to two-factor models")
    return replace(model, sigma=(sigma1, sigma2), rho=rho)
