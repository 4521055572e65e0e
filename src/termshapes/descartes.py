"""Exponential Descartes systems and D-polynomial machinery.

An ordered family of functions is a Descartes system when every ordered
minor determinant is strictly positive.  Two families matter here, both
indexed by a decay rate ``a >= 0``:

* the plain exponentials ``f_a(x) = exp(-a x)``, which form a Descartes
  system on [0, inf) whenever the decays are listed in strictly
  decreasing order, and
* their hump-weighted integrals
  ``g_a(x) = x^-2 * integral_0^x y exp(-a y) dy``, which inherit the
  property through a totally positive kernel.

Both are functions of ``u = a x`` alone: ``f = exp(-u)`` and
``g = (1 - (1+u) exp(-u)) / u^2`` with ``g(0) = 1/2``.

Linear combinations (D-polynomials) obey variation diminishing: the sign
sequence of the function is a subsequence of the coefficient sign
sequence.  Interpolation with prescribed zeroes, carried out through
minor determinants, produces the extremal D-polynomials used to realise
curve shapes; the coefficients then alternate in sign starting with
plus.  A perturbation bound gives the coefficient noise below which
the sign sequence cannot change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np

from .signseq import EMPTY_PURE, Sign, SignSeq, reduce as reduce_sseq

#: Switch point below which the integrated-kernel basis function is
#: evaluated by series instead of the closed form, whose rounding error
#: of about 3.4e-16 / u relative would otherwise exceed ``ZERO_EPS``.
_G_SERIES_CUTOFF = 4e-3

#: Precision (decimal digits) for interpolation minor determinants.  The
#: minors collapse like prod (r_j - r_i) as the prescribed zeros cluster,
#: so float64 elimination loses the leading digits exactly where the
#: small-zero limits are probed; 50 digits keeps the rounded-back floats
#: correct to full double precision.
_MINOR_DPS = 50

#: Sign scan: a sample is zero at or below ZERO_EPS times the local sum of
#: term magnitudes (the evaluation's cancellation noise scale), and each
#: zero is bisected to REFINE_TOL (absolute in the window, relative past it).
ZERO_EPS = 1e-12
REFINE_TOL = 1e-10

#: The sign scan's window: WINDOW_SAMPLES points over WINDOW_EFOLDINGS
#: e-foldings of the slowest decay (``ExpBasis.window_end``).
WINDOW_EFOLDINGS = 20.0
WINDOW_SAMPLES = 4096
MAX_BASIS_SIZE = 5
#: Smallest positive decay rate.  The G kind weighs each term by
#: 1/decay^2 at infinity, which overflows below about 7.5e-155.
MIN_DECAY = 1e-150

F_KIND = "F"
G_KIND = "G"


def _floats(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, or a ValueError naming them."""
    try:
        if isinstance(values, str):
            raise TypeError
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}") from None


class NumericalInconsistencyError(RuntimeError):
    """Scanned sign changes contradict the variation-diminishing bound.

    Raised when a scan reads more sign changes than the basis allows, a
    change without a located zero, or a probe without a strong sign: the
    window or the zero threshold does not fit the polynomial at hand.
    """


@dataclass(frozen=True)
class ExpBasis:
    """Ordered exponential basis: kind 'F' or 'G' plus decay rates.

    Decays must be strictly decreasing and non-negative; this is exactly
    the ordering that makes the family a Descartes system on [0, inf).
    """

    kind: str
    decays: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in (F_KIND, G_KIND):
            raise ValueError(f"basis kind must be 'F' or 'G', got {self.kind!r}")
        object.__setattr__(self, "decays", _floats(self.decays, "decay rates"))
        n = len(self.decays)
        if not 1 <= n <= MAX_BASIS_SIZE:
            raise ValueError(f"basis size must be 1..{MAX_BASIS_SIZE}, got {n}")
        if any(a < 0 for a in self.decays):
            raise ValueError("decay rates must be non-negative")
        if any(0 < a < MIN_DECAY for a in self.decays):
            raise ValueError(f"positive decay rates must be at least {MIN_DECAY:g}")
        if not all(math.isfinite(a) for a in self.decays):
            raise ValueError("decay rates must be finite")
        if any(a <= b for a, b in zip(self.decays, self.decays[1:])):
            raise ValueError("decay rates must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.decays)

    @property
    def min_positive_decay(self) -> float:
        positive = [a for a in self.decays if a > 0]
        return min(positive) if positive else 1.0

    @property
    def window_end(self) -> float:
        return WINDOW_EFOLDINGS / self.min_positive_decay


@dataclass(frozen=True)
class DPolynomial:
    """Linear combination of basis functions of an exponential basis."""

    basis: ExpBasis
    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _floats(self.coefficients, "coefficients"))
        if len(self.coefficients) != len(self.basis):
            raise ValueError("coefficient count must match basis size")
        if not all(math.isfinite(a) for a in self.coefficients):
            raise ValueError("coefficients must be finite")

    @property
    def is_zero(self) -> bool:
        return all(a == 0.0 for a in self.coefficients)

    def __call__(self, x):
        return eval_dpoly(self, x)


def _g_closed(u):
    """(1 - (1+u) e^-u) / u^2 for u bounded away from zero."""
    e = np.exp(-u)
    return (-np.expm1(-u) - u * e) / (u * u)


def _g_series(u):
    """Taylor evaluation sum_k (-u)^k / ((k+2) k!), for |u| < 4e-3.

    Terms fall below 2e-18 relative by k = 6 at the cutoff.
    """
    return 0.5 + u * (-1.0 / 3.0 + u * (0.125 + u * (-1.0 / 30.0 + u * (1.0 / 144.0 - u / 840.0))))


def g_kernel_value(u: np.ndarray) -> np.ndarray:
    """Integrated-kernel basis function as a function of u = alpha * x."""
    u = np.asarray(u, dtype=float)
    small = u < _G_SERIES_CUTOFF
    out = np.empty_like(u)
    out[small] = _g_series(u[small])
    # u * u may overflow to inf far out, where the value is 0 anyway.
    with np.errstate(invalid="ignore", over="ignore"):
        out[~small] = _g_closed(u[~small])
    return out


def _g_scalar(u: float) -> float:
    """g(u) for one float, in ``math``: the series below the cutoff, else
    the closed form."""
    if u < _G_SERIES_CUTOFF:
        return _g_series(u)
    return (-math.expm1(-u) - u * math.exp(-u)) / (u * u)


#: Each kind's basis function of one float u = alpha * x, in ``math``.
_SCALAR_BASIS = {F_KIND: lambda u: math.exp(-u), G_KIND: _g_scalar}


def eval_basis_fn(kind: str, alpha: float, x):
    """Evaluate one basis function at x (scalar or array), x >= 0.

    Kind 'F' is exp(-alpha x).  Kind 'G' is the integrated kernel
    x^-2 * integral_0^x y exp(-alpha y) dy, evaluated in closed form for
    alpha*x >= 4e-3 and by series below that; the value at u = 0 is 1/2.
    A scalar x is evaluated in ``math``, an array x in numpy.
    """
    if kind not in _SCALAR_BASIS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if not np.ndim(x):
        return _SCALAR_BASIS[kind](alpha * x)
    if kind == F_KIND:
        return np.exp(-alpha * np.asarray(x))
    return g_kernel_value(alpha * np.asarray(x, dtype=float))


def basis_values(basis: ExpBasis, x) -> np.ndarray:
    """Matrix of basis-function values, shape (len(basis), len(x))."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return np.stack([eval_basis_fn(basis.kind, a, xs) for a in basis.decays])


def eval_dpoly(p: DPolynomial, x):
    """Value of the D-polynomial at x: a scalar x in ``math``
    (``_scalar_dpoly``), an array x in numpy (``basis_values``)."""
    if np.ndim(x):
        return np.asarray(p.coefficients) @ basis_values(p.basis, x)
    return float(_scalar_dpoly(p)(x))


def _scalar_dpoly(p: DPolynomial):
    """p as a function of one float, in ``math`` over its nonzero terms,
    built once for callers that evaluate p many times."""
    basis_fn = _SCALAR_BASIS[p.basis.kind]
    terms = [(a, alpha) for a, alpha in zip(p.coefficients, p.basis.decays) if a != 0.0]

    def value(x: float) -> float:
        total = 0.0
        for a, alpha in terms:
            total += a * basis_fn(alpha * x)
        return total

    return value


def initial_sign(p: DPolynomial) -> Sign:
    """Sign of the polynomial at x = 0.

    Equals sign(sum of coefficients) for the F kind and half that for
    the G kind, so the two kinds always agree.
    """
    return Sign.of(math.fsum(p.coefficients))


def terminal_sign(p: DPolynomial) -> Sign:
    """Sign of the polynomial as x -> infinity.

    F kind: the slowest-decaying term with a nonzero coefficient wins.
    G kind: x^2 g_a(x) -> 1/a^2, so the sign is that of
    sum a_i / alpha_i^2; a zero-decay term has a divergent weight and
    dominates outright if present.
    """
    if p.is_zero:
        return Sign.ZERO
    if p.basis.kind == F_KIND:
        for a in reversed(p.coefficients):
            if a != 0.0:
                return Sign.of(a)
        return Sign.ZERO
    for a, alpha in zip(p.coefficients, p.basis.decays):
        if alpha == 0.0 and a != 0.0:
            return Sign.of(a)
    weighted = math.fsum(
        a / (alpha * alpha)
        for a, alpha in zip(p.coefficients, p.basis.decays)
        if alpha > 0.0
    )
    return Sign.of(weighted)


def _bisect_zero(p: DPolynomial, lo: float, hi: float, flo: float, tol: float) -> float:
    """Locate the sign change inside a bracket with opposite-sign ends, to
    ``tol`` or to adjacent floats, whichever is wider.  Midpoints are
    evaluated in ``math`` (``_scalar_dpoly``).  The ends are strong samples
    of the numpy array scan; their ``math`` values carry the same sign
    wherever the evaluation noise lies below ``ZERO_EPS``."""
    value = _scalar_dpoly(p)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = value(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _log_bisect(fn, lo: float, hi: float, flo: float, rtol: float) -> float:
    """Bracketed sign change located to relative tolerance in log space
    (or until the midpoint leaves the bracket by rounding or overflow)."""
    while hi > lo * (1.0 + rtol):
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return math.sqrt(lo * hi)


_TAIL_SAMPLES = 2048


def _strong_signs(xs: np.ndarray, vals: np.ndarray, mag: np.ndarray):
    """Compressed strong signs of sampled values, one (lo, hi, f(lo))
    bracket per sign change, and the abscissa of the last nonzero sample
    (None if every sample is zero).

    A sample counts as zero when its magnitude is at most ``ZERO_EPS``
    times ``mag``, the local sum of term magnitudes.
    """
    raw = np.where(np.abs(vals) <= ZERO_EPS * mag, 0, np.where(vals > 0, 1, -1))
    nz = np.flatnonzero(raw)
    if nz.size == 0:
        return [], [], None
    s = raw[nz]
    switches = np.flatnonzero(s[1:] != s[:-1])
    signs = [Sign(int(s[0]))] + [Sign(int(s[k + 1])) for k in switches]
    brackets = [
        (float(xs[nz[k]]), float(xs[nz[k + 1]]), float(vals[nz[k]])) for k in switches
    ]
    return signs, brackets, float(xs[nz[-1]])


def _scan_tail_fn(fn, x_start: float, bound: float, settled: Sign):
    """Compressed signs and zeros of a rescaled tail function on
    [x_start, bound], closed with the settled sign at infinity.

    ``fn`` returns (values, local magnitude scale); the zero threshold is
    local, as in the window scan.
    """
    if not math.isfinite(bound):
        raise NumericalInconsistencyError(
            f"tail scan past x = {x_start:g} has no finite bound where the slowest "
            "term settles the sign"
        )
    signs, zeros = [], []
    if bound > x_start:
        xs = np.geomspace(x_start, bound, _TAIL_SAMPLES)
        signs, brackets, _ = _strong_signs(xs, *fn(xs))
        scalar_fn = lambda x: float(fn(np.array([x]))[0][0])
        zeros = [_log_bisect(scalar_fn, lo, hi, flo, REFINE_TOL) for lo, hi, flo in brackets]
    if settled is not Sign.ZERO and (not signs or signs[-1] is not settled):
        signs.append(settled)
    return signs, zeros


def _tail_signs(p: DPolynomial, x_start: float) -> tuple[list[Sign], list[float]]:
    """Sign pattern and zeros of the polynomial on (x_start, infinity).

    The raw values decay below any relative threshold, so the tail is
    scanned through a rescaled function with the same signs: the
    polynomial times exp(+beta x) for the plain kind (beta the slowest
    decay carrying a nonzero coefficient), and x^2 times the polynomial
    for the integrated kind.  Beyond an explicit bound the slowest or
    constant term dominates the rest outright, so the sign is settled
    and the scan range is finite.  The integrated kind is evaluated in
    residual form, constant-at-infinity minus decaying corrections, so
    that the local magnitude scale reflects the actual cancellation
    level rather than the raw term sizes.
    """
    active = [
        (a, al) for a, al in zip(p.coefficients, p.basis.decays) if a != 0.0
    ]
    if not active:
        return [], []
    margin = 2.0 * len(active)

    if p.basis.kind == F_KIND:
        c0, beta = active[-1]
        rest = [(a, al - beta) for a, al in active[:-1]]
        if not rest:
            return [Sign.of(c0)], []
        bound = max(
            x_start,
            max(math.log(max(margin * abs(a) / abs(c0), 1.0)) / rho for a, rho in rest),
        )

        def tail_fn(xs):
            total = np.full_like(xs, c0, dtype=float)
            mag = np.full_like(xs, abs(c0), dtype=float)
            for a, rho in rest:
                term = a * np.exp(-rho * xs)
                total += term
                mag += np.abs(term)
            return total, mag

        return _scan_tail_fn(tail_fn, x_start, bound, Sign.of(c0))

    # Integrated kind: scan q(x) = x^2 * p(x) = a0 x^2/2 + s_inf - corrections.
    const = [a for a, al in active if al == 0.0]
    decaying = [(a, al) for a, al in active if al > 0.0]
    weights = [(a / (al * al), al) for a, al in decaying]
    s_inf = math.fsum(w for w, _ in weights)
    a0 = const[0] if const else 0.0
    if a0 != 0.0:
        s_rest = sum(abs(w) for w, _ in weights)
        bound = max(x_start, math.sqrt(2.0 * margin * (s_rest + abs(s_inf)) / abs(a0)))
        settled = Sign.of(a0)
    else:
        if s_inf == 0.0:
            return [], []
        bound = max(
            x_start,
            max(
                (2.0 / al) * math.log(max(margin * abs(w) / abs(s_inf), 1.0))
                for w, al in weights
            ),
        )
        settled = Sign.of(s_inf)

    def tail_fn(xs):
        growth = 0.5 * a0 * xs * xs
        total = growth + s_inf
        mag = np.abs(growth) + abs(s_inf)
        for w, al in weights:
            u = al * xs
            with np.errstate(under="ignore"):
                term = w * (1.0 + u) * np.exp(-u)
            total = total - term
            mag = mag + np.abs(term)
        return total, mag

    return _scan_tail_fn(tail_fn, x_start, bound, settled)


def _scan_window(
    p: DPolynomial, probes: Sequence[float]
) -> tuple[list[Sign], list[float], float | None]:
    """One window pass: compressed strong sample signs, refined zeros,
    and the abscissa of the last nonzero sample.  The probes join the
    evenly spaced samples, and each must have a strong sign."""
    xs = np.linspace(0.0, p.basis.window_end, WINDOW_SAMPLES)
    if len(probes):
        probes = np.sort(probes)
        at = np.searchsorted(xs, probes)
        xs = np.insert(xs, at, probes)
    phi = basis_values(p.basis, xs)
    coeffs = np.asarray(p.coefficients)
    # Zero threshold relative to the local sum of term magnitudes (the
    # basis functions are non-negative): exponential sums carry genuine
    # sign structure many orders below their global maximum, so a global
    # scale would erase it, while the local scale tracks the actual
    # cancellation noise floor of the evaluation.  The x = 0 sample
    # equals the initial-sign quantity (the coefficient sum, halved for
    # the G kind), so the threshold applies there too: a boundary zero
    # must not contribute a noise-level leading sign.
    vals, mag = coeffs @ phi, np.abs(coeffs) @ phi
    if len(probes):
        at += np.arange(at.size)
        weak = at[np.abs(vals[at]) <= ZERO_EPS * mag[at]]
        if weak.size:
            raise NumericalInconsistencyError(
                f"probe x = {float(xs[weak[0]])!r} has no strong sign"
            )
    signs, brackets, last_x = _strong_signs(xs, vals, mag)
    zeros = [_bisect_zero(p, lo, hi, flo, REFINE_TOL) for lo, hi, flo in brackets]
    return signs, zeros, last_x


def sseq_of_dpoly(
    p: DPolynomial, probes: Sequence[float] = ()
) -> tuple[SignSeq, list[float]]:
    """Reduced sign sequence of a D-polynomial on [0, inf), with zeros.

    One pass samples [0, ``p.basis.window_end``] at ``WINDOW_SAMPLES``
    evenly spaced points plus ``probes``, and bisects each bracketed
    strong sign change.  A second pass scans a rescaled form of the rest
    out to the bound where the slowest term provably dominates, so the
    analytic terminal sign closes the sequence.  By variation
    diminishing the polynomial has at most len(basis) - 1 sign changes,
    each at a zero.  So a caller that knows one point strictly inside
    each sign stretch passes those as probes, and they bracket every
    zero however close.  More changes than that bound, a change without
    a located zero, or a probe without a strong sign raises
    NumericalInconsistencyError; there is no retry.
    """
    if p.is_zero:
        return EMPTY_PURE, []

    compressed, zeros, last_x = _scan_window(p, probes)
    # Hand the tail scan over at the last super-threshold sample: the
    # raw values may sink below the window threshold before the window
    # end, and the rescaled tail form sees through that shadow.
    x_start = last_x if last_x else p.basis.window_end / (WINDOW_SAMPLES - 1)
    tail_signs, tail_zeros = _tail_signs(p, x_start)
    term = terminal_sign(p)
    signs = compressed + tail_signs
    if term is not Sign.ZERO and (not signs or signs[-1] is not term):
        signs.append(term)
    sseq = reduce_sseq(SignSeq(tuple(signs) or (term,)))
    zeros = sorted(zeros + tail_zeros)
    changes = max(0, len(sseq) - 1)
    if changes > len(p.basis) - 1 or changes != len(zeros):
        raise NumericalInconsistencyError(
            f"sign scan of {len(p.basis)}-term polynomial is inconsistent: "
            f"{changes} changes vs {len(zeros)} located zeros "
            f"(window {p.basis.window_end:g}, {WINDOW_SAMPLES} samples)"
        )
    return sseq, zeros


def _mp_basis_value(kind: str, u: mp.mpf) -> mp.mpf:
    if kind == F_KIND:
        return mp.exp(-u)
    if u == 0:
        return mp.mpf(1) / 2
    if u < mp.mpf("1e-8"):
        total, term, k = mp.mpf(0), mp.mpf(1) / 2, 0
        while abs(term) > mp.mpf("1e-60"):
            total += term
            k += 1
            term = (-u) ** k / ((k + 2) * mp.factorial(k))
        return total
    return (1 - (1 + u) * mp.exp(-u)) / (u * u)


def _signed_minors(basis: ExpBasis, r: Sequence[float]) -> list[float]:
    """(-1)^i times the collocation minor at r with basis function i
    removed, for every i, from one extended-precision elimination.

    The collocation rows at r are closed by the row w_i = (-1)^i into a
    square matrix B.  Expanding det B along that row shows that the
    solution of B y = e_last is y_i = (-1)^(n-1) (-1)^i M_i / det B, so
    the signed minors are (-1)^(n-1) det B * y, with det B the pivot
    product of the same elimination.  Computed at extended precision:
    for clustered r the minors shrink like the product of pairwise
    differences and float64 elimination cannot deliver the relative
    accuracy the coefficient ratios need.
    """
    n = len(basis)
    with mp.workdps(_MINOR_DPS):
        decays = [mp.mpf(a) for a in basis.decays]
        rows = [
            [_mp_basis_value(basis.kind, a * x) for a in decays] + [mp.mpf(0)]
            for x in map(mp.mpf, r)
        ]
        rows.append([mp.mpf((-1) ** i) for i in range(n)] + [mp.mpf(1)])
        det = mp.mpf((-1) ** (n - 1))
        for k in range(n):
            pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
            if rows[pivot][k] == 0:
                return [0.0] * n
            if pivot != k:
                rows[k], rows[pivot] = rows[pivot], rows[k]
                det = -det
            det *= rows[k][k]
            for i in range(k + 1, n):
                factor = rows[i][k] / rows[k][k]
                for j in range(k + 1, n + 1):
                    rows[i][j] -= factor * rows[k][j]
        y = [mp.mpf(0)] * n
        for k in reversed(range(n)):
            acc = rows[k][n] - mp.fsum(rows[k][j] * y[j] for j in range(k + 1, n))
            y[k] = acc / rows[k][k]
        return [float(det * v) for v in y]


def interpolate_prescribed_zeros(
    basis: ExpBasis, r: Sequence[float]
) -> DPolynomial:
    """Extremal D-polynomial vanishing exactly at the n-1 points r.

    Coefficient i is (-1)^(1+i) times the minor with basis function i
    removed, evaluated at r; the minors are strictly positive for a
    Descartes basis, so the coefficients alternate starting with plus.
    Coefficients are normalised to unit maximum magnitude.
    """
    n = len(basis)
    if n < 2:
        raise ValueError("interpolation needs a basis of at least 2 functions")
    r = _floats(r, "prescribed zeros")
    if len(r) != n - 1:
        raise ValueError(f"need exactly {n - 1} prescribed zeros, got {len(r)}")
    if not all(math.isfinite(x) for x in r):
        raise ValueError("prescribed zeros must be finite")
    if any(x < 0 for x in r):
        raise ValueError("prescribed zeros must be non-negative")
    if any(x2 <= x1 for x1, x2 in zip(r, r[1:])):
        raise ValueError("prescribed zeros must be strictly increasing")

    coeffs = _signed_minors(basis, r)
    scale = max(abs(c) for c in coeffs)
    if scale == 0:
        raise NumericalInconsistencyError("interpolation minors all vanished")
    return DPolynomial(basis, tuple(c / scale for c in coeffs))


def _coefficient_at_decay(p: DPolynomial, decay: float) -> float:
    for a, alpha in zip(p.coefficients, p.basis.decays):
        if math.isclose(alpha, decay, rel_tol=1e-9, abs_tol=1e-30):
            return a
    raise ValueError(f"basis has no decay rate {decay!r}")


def coef_inequality_value(p: DPolynomial, lam1: float, lam2: float) -> float:
    """|a_(l1+l2)| / sqrt(a_(2 l1) * a_(2 l2)) for the named decay slots.

    Solvability of the correlation equation needs this below 2.  For the
    scale-proximal basis (2 lam2, lam1+lam2, 2 lam1, lam2) interpolated
    at three zeros shrinking to the origin, the coefficients tend to the
    divided-difference weights 1 / prod_{j != i} (d_i - d_j), so the
    value tends to 2*sqrt(q*(2 - q)) with q = lam2/lam1.  That is below 2
    for every q in (1, 2).  The two squared-decay coefficients do not
    become equal in this limit: a_(2 l1) / a_(2 l2) tends to q/(2 - q).
    """
    a_cross = _coefficient_at_decay(p, lam1 + lam2)
    a11 = _coefficient_at_decay(p, 2.0 * lam1)
    a22 = _coefficient_at_decay(p, 2.0 * lam2)
    if a11 <= 0 or a22 <= 0:
        raise ValueError("both squared-decay coefficients must be positive")
    return abs(a_cross) / math.sqrt(a11 * a22)


def perturbation_directions(p: DPolynomial) -> tuple[int, ...]:
    """Unit perturbation directions that preserve the coefficient sign
    sequence for every eps >= 0.

    Nonzero coefficients keep their sign; a block of zeros leans positive
    iff it borders at least one positive coefficient.
    """
    a = p.coefficients
    n = len(a)
    b = [0] * n
    for k, v in enumerate(a):
        if v > 0:
            b[k] = 1
        elif v < 0:
            b[k] = -1
    k = 0
    while k < n:
        if a[k] == 0.0:
            end = k
            while end < n and a[end] == 0.0:
                end += 1
            left = a[k - 1] if k > 0 else 0.0
            right = a[end] if end < n else 0.0
            fill = 1 if (left > 0 or right > 0) else -1
            for t in range(k, end):
                b[t] = fill
            k = end
        else:
            k += 1
    return tuple(b)


def perturb_coefficients(p: DPolynomial, eps: float) -> DPolynomial:
    """Shift each coefficient by eps along its preserving direction."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    b = perturbation_directions(p)
    return DPolynomial(
        p.basis, tuple(a + eps * d for a, d in zip(p.coefficients, b))
    )


def perturbation_delta(p: DPolynomial) -> float:
    """Perturbation radius below which the sign sequence cannot change.

    Probes are the endpoints and midpoints between detected zeros, where
    the polynomial alternates in sign.  Shifting every coefficient by at
    most eps moves p(r) by at most eps * sum_j phi_j(r), so the radius is
    min_i |p(r_i)| / sum_j phi_j(r_i), never below the uniform bound
    min_i |p(r_i)| / sum_j max_i phi_j(r_i).  Requires an extremal
    polynomial with no zero at the boundary.
    """
    if p.is_zero:
        raise ValueError("polynomial must not vanish identically")
    _, zeros = sseq_of_dpoly(p)
    return _stability_radius(p, zeros)


def _stretch_probes(zeros: Sequence[float], tail_decay: float) -> list[float]:
    """One probe per sign stretch: x = 0 (unless 0 is a zero), the midpoints
    between sorted zeros, and a point past the last by max(last gap,
    1 / tail_decay)."""
    probes = [] if zeros and zeros[0] == 0.0 else [0.0]
    probes.extend(0.5 * (z1 + z2) for z1, z2 in zip(zeros, zeros[1:]))
    if zeros:
        gap = zeros[-1] - zeros[-2] if len(zeros) > 1 else zeros[-1]
        probes.append(zeros[-1] + max(gap, 1.0 / tail_decay))
    return probes


def _stability_radius(p: DPolynomial, zeros: Sequence[float]) -> float:
    """``perturbation_delta`` from zeros already located by ``sseq_of_dpoly``.

    Each probe's ratio is unchanged by a common factor, so the F kind
    takes its terms times exp(beta r), beta the slowest decay: the
    slowest term is then 1 and a probe far past the last zero does not
    underflow to a spurious zero.
    """
    probes = _stretch_probes(zeros, p.basis.min_positive_decay)
    decays = p.basis.decays
    if p.basis.kind == F_KIND:
        phi = [[math.exp(-(alpha - decays[-1]) * r) for alpha in decays] for r in probes]
    else:
        phi = [[eval_basis_fn(G_KIND, alpha, r) for alpha in decays] for r in probes]
    radius = math.inf
    for row in phi:
        value = sum(a * f for a, f in zip(p.coefficients, row) if a != 0.0)
        if value == 0.0:
            raise ValueError("probe point landed on a zero; polynomial not extremal?")
        radius = min(radius, abs(value) / sum(row))
    return radius
