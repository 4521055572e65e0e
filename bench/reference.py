"""References the benchmark checks the program against.

Everything here is computed apart from the package under test: the
classification theorem's table of admissible shapes, sign-sequence
relations, the curve-derivative coefficients of the Vasicek model,
exponential sums evaluated in 50-digit arithmetic, and the closed-form
regions of the one-factor model.  Nothing in this module imports
``termshapes``.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 50

#: Shape label -> (first sign of the curve derivative, number of sign changes).
SHAPES = {
    "flat": (0, 0),
    "normal": (1, 0),
    "inverse": (-1, 0),
    "humped": (1, 1),
    "dipped": (-1, 1),
    "HD": (1, 2),
    "DH": (-1, 2),
    "HDH": (1, 3),
    "DHD": (-1, 3),
    "HDHD": (1, 4),
}

_CORE = frozenset({"flat", "normal", "inverse", "humped", "dipped", "HD"})
_SEVEN = _CORE | {"DH", "HDH"}
_NINE = _SEVEN | {"DHD", "HDHD"}


def regime_of(lam1: float, lam2: float) -> str:
    """Scale regime from the exact comparison of 2*lam1 with lam2."""
    if 2.0 * lam1 < lam2:
        return "separated"
    if 2.0 * lam1 > lam2:
        return "proximal"
    return "critical"


def admissible(regime: str, rho_negative: bool) -> frozenset[str]:
    """Shapes the classification theorem allows, flat included."""
    if regime != "proximal":
        return _SEVEN
    return _NINE if rho_negative else _CORE


def parse_signs(text: str) -> list[int]:
    return [{"+": 1, "-": -1, "0": 0}[c] for c in text]


def reduce_signs(signs) -> list[int]:
    """Drop zeros and collapse runs of equal signs."""
    out: list[int] = []
    for s in signs:
        if s and (not out or out[-1] != s):
            out.append(s)
    return out


def is_subsequence(a, b) -> bool:
    """reduce(a) is an order-preserving subsequence of reduce(b)."""
    it = iter(reduce_signs(b))
    return all(any(s == t for t in it) for s in reduce_signs(a))


def heads(a, b) -> bool:
    """reduce(a) is a subsequence of reduce(b) with the same first sign."""
    ra, rb = reduce_signs(a), reduce_signs(b)
    if not ra:
        return True
    return bool(rb) and ra[0] == rb[0] and is_subsequence(ra, rb)


def pure_signs(label: str) -> list[int]:
    first, changes = SHAPES[label]
    return [first * (-1) ** k for k in range(changes + 1)] if first else []


def derivative_terms(model: dict, z) -> tuple[tuple, tuple, float]:
    """Decays (strictly decreasing) and coefficients of the forward-curve
    derivative at state z, computed in 50-digit arithmetic from the float
    parameters, and the size of the largest part that enters a coefficient
    (the scale its float64 rounding error is measured against).

    ``model`` holds the plain parameters: lam, theta, kappa, sigma, rho.
    The yield-curve derivative has the same coefficients over the
    integrated-kernel basis.
    """
    with mp.workdps(DPS):
        lam = [mp.mpf(v) for v in model["lam"]]
        kap = [mp.mpf(v) for v in model["kappa"]]
        sig = [mp.mpf(v) for v in model["sigma"]]
        th = [mp.mpf(v) for v in model["theta"]]
        zs = [mp.mpf(v) for v in z]
        u = [s * s * k * k / l for s, k, l in zip(sig, kap, lam)]
        if len(lam) == 1:
            level = kap[0] * lam[0] * (th[0] - zs[0])
            scale = max(abs(level), abs(u[0]))
            return (2 * lam[0], lam[0]), (u[0], level - u[0]), float(scale)
        mixed = mp.mpf(model["rho"]) * sig[0] * sig[1] * kap[0] * kap[1] / (lam[0] * lam[1])
        c = (lam[0] + lam[1]) * mixed
        levels = [k * l * (t - zv) for k, l, t, zv in zip(kap, lam, th, zs)]
        w = [levels[j] - u[j] - lam[j] * mixed for j in range(2)]
        scale = max(abs(v) for v in (*levels, *u, c, lam[0] * mixed, lam[1] * mixed))
        l1, l2 = lam
        reg = regime_of(float(l1), float(l2))
        if reg == "separated":
            out = (2 * l2, l1 + l2, l2, 2 * l1, l1), (u[1], c, w[1], u[0], w[0])
        elif reg == "proximal":
            out = (2 * l2, l1 + l2, 2 * l1, l2, l1), (u[1], c, u[0], w[1], w[0])
        else:
            out = (2 * l2, l1 + l2, l2, l1), (u[1], c, w[1] + u[0], w[0])
        return (*out, float(scale))


def _g_kernel(u):
    """(1 - (1+u) e^-u) / u^2 with its value 1/2 at u = 0."""
    if u == 0:
        return mp.mpf(1) / 2
    if u < mp.mpf("1e-6"):
        # sum_k (-u)^k / ((k+2) k!); 12 terms are far below 50 digits here
        return mp.fsum((-u) ** k / ((k + 2) * mp.factorial(k)) for k in range(12))
    return (1 - (1 + u) * mp.exp(-u)) / (u * u)


def mp_value(kind: str, decays, coeffs, x) -> mp.mpf:
    """Exponential sum of kind 'F' (plain) or 'G' (integrated kernel) at x."""
    with mp.workdps(DPS):
        x = mp.mpf(x)
        terms = []
        for a, d in zip(coeffs, decays):
            u = mp.mpf(d) * x
            basis = mp.exp(-u) if kind == "F" else _g_kernel(u)
            terms.append(mp.mpf(a) * basis)
        return mp.fsum(terms)


def probe_points(zeros, slowest_decay: float) -> list[float]:
    """One point inside every stretch that the zeros cut [0, inf) into:
    halfway to the first zero, midway between neighbours, and past the
    last zero by its last gap or one e-folding of the slowest decay."""
    zeros = [z for z in zeros if z > 0]
    if not zeros:
        return [1.0 / slowest_decay]
    pts = [0.5 * zeros[0]]
    pts += [0.5 * (a + b) for a, b in zip(zeros, zeros[1:])]
    gap = zeros[-1] - zeros[-2] if len(zeros) > 1 else zeros[-1]
    pts.append(zeros[-1] + max(gap, 1.0 / slowest_decay))
    return pts


def sign_test(kind: str, decays, coeffs, zeros, signs) -> bool:
    """The exponential sum takes sign signs[k] between the k-th and
    (k+1)-th positive zero, so it changes sign across every zero in the
    stated direction.  Evaluated in 50-digit arithmetic."""
    positive = [z for z in zeros if z > 0]
    if len(signs) != len(positive) + 1:
        return False
    slowest = min(d for d in decays if d > 0)
    values = [mp_value(kind, decays, coeffs, x) for x in probe_points(positive, float(slowest))]
    return all(mp.sign(v) == s for v, s in zip(values, signs))


def within_rounding(total: float, parts_scale: float, rel: float = 1e-10) -> bool:
    return abs(total) <= rel * parts_scale


def initial_sign(coeffs) -> int | None:
    """Sign of the coefficient sum, None when it is within rounding of 0."""
    total = math.fsum(coeffs)
    if within_rounding(total, math.fsum(abs(a) for a in coeffs)):
        return None
    return (total > 0) - (total < 0)


def terminal_sign(kind: str, decays, coeffs) -> int | None:
    """Sign as x -> infinity: the slowest nonzero term for 'F', the sign of
    sum a/d^2 for 'G'; None when that quantity is within rounding of 0."""
    if kind == "F":
        for a in reversed(coeffs):
            if a != 0.0:
                return (a > 0) - (a < 0)
        return None
    weighted = [a / (d * d) for a, d in zip(coeffs, decays)]
    total = math.fsum(weighted)
    if within_rounding(total, math.fsum(abs(w) for w in weighted)):
        return None
    return (total > 0) - (total < 0)


def one_factor_thresholds(lam: float, kappa: float, sigma: float, theta: float):
    """((forward normal/humped boundary, theta), (yield boundary, theta)).

    The forward curve is normal below theta - sigma^2 kappa / lam^2, the
    yield curve below theta - 3/4 sigma^2 kappa / lam^2; both are humped
    up to theta and inverse above it.
    """
    width = sigma * sigma * kappa / (lam * lam)
    return (theta - width, theta), (theta - 0.75 * width, theta)


def one_factor_label(z: float, lower: float, theta: float, tol: float) -> str | None:
    """Closed-form shape of a one-factor curve, None within tol of a boundary."""
    if abs(z - lower) <= tol or abs(z - theta) <= tol:
        return None
    if z < lower:
        return "normal"
    return "humped" if z < theta else "inverse"
