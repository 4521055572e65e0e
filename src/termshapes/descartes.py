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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

from .signseq import EMPTY_PURE, Sign, SignSeq, reduce as reduce_sseq

#: Switch point below which the integrated-kernel basis function is
#: evaluated by series instead of the closed form, whose rounding error
#: of about 3.4e-16 / u relative would otherwise exceed ``ZERO_EPS``.
_G_SERIES_CUTOFF = 4e-3
#: Where M = x^2 p switches a term to its residual form: past u = 3 the
#: decaying part's rounding, about (1+u)^2 e^-u relative to a / d^2, is
#: below the closed form's, about 1.
_RESIDUAL_FROM = 3.0

#: Precision (decimal digits, 169 bits) of the basis values behind the
#: interpolation minors, which collapse like prod (r_j - r_i) as the zeros
#: cluster, where float64 values lose the leading digits.  Values are kept
#: to 2^_MINOR_FLOOR: a part below it moves a minor (4! products of 4 values
#: <= 1) by under 2^-169 of the smallest float.
_MINOR_DPS, _MINOR_FLOOR = 50, -1250
_NEAREST = (libmp.dps_to_prec(_MINOR_DPS), "n")
_SERIES_BELOW = libmp.from_str("1e-8", *_NEAREST)

#: The x = 0 rule: a coefficient sum within ZERO_EPS of the magnitude sum
#: is a zero at the boundary (the batch scan also defers a row whose value
#: lies within ZERO_EPS of its term magnitude sum).  Zeros are refined to
#: REFINE_TOL relative, in at most _MAX_NEWTON_STEPS steps.
ZERO_EPS = 1e-12
REFINE_TOL = 1e-10
_MAX_NEWTON_STEPS = 200
_UNIT_ROUNDOFF = 2.0**-53

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
    """The Rolle descent contradicts the variation-diminishing bound.

    Raised when it reads more sign changes than the basis allows or a
    change without a located zero, finds no finite bound where the
    slowest term settles the sign, or a zero does not converge.
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
    """Value of the D-polynomial at x: a scalar x in ``math`` over the
    nonzero terms, an array x in numpy (``basis_values``)."""
    if np.ndim(x):
        return np.asarray(p.coefficients) @ basis_values(p.basis, x)
    basis_fn, total = _SCALAR_BASIS[p.basis.kind], 0.0
    for a, alpha in zip(p.coefficients, p.basis.decays):
        if a != 0.0:
            total += a * basis_fn(alpha * x)
    return total


def _levels(decays, coeffs, order=None, stop=None):
    """Rolle levels of sum_j a_j exp(-d_j x), decays along the last axis (one row,
    or rows of a batch) in column ``order``, and settle bounds X.  Level 0 is
    exp(d_0 x) times the sum, level i sum_{j>=i} c_ij exp(-(d_j - d_i) x) with c_0j
    = a_j, c_ij = c_(i-1)j (d_j - d_(i-1)): a positive multiple of minus the
    derivative of level i-1, with one term fewer, to the two-term level k-2 or to
    stop-1.  Past X each level's slowest term outweighs twice the rest (X is inf
    where it is 0 or a ratio overflows).  In increasing decay order (no ``order``)
    that is each level's first, and one X column serves all.  Else a level may
    grow (d_j < d_i); its slowest term has the smallest exponent, and column i
    of X covers the levels from i up.
    """
    if order is not None:
        decays, coeffs = decays[..., order], coeffs[..., order]
    k = coeffs.shape[-1]
    levels, ends = [(decays - decays[..., :1], coeffs)], [0.0]
    for i in range(1, k - 1 if stop is None else stop):
        e, c = levels[-1]
        levels.append((decays[..., i:] - decays[..., i : i + 1], c[..., 1:] * e[..., 1:]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if order is None:
            x = [np.log(np.maximum(2 * k * np.abs(c[..., 1:] / c[..., :1]), 1.0)) / e[..., 1:]
                 for e, c in levels]
            return levels, np.fmax.reduce(np.concatenate(x, axis=-1), axis=-1, initial=0.0)[..., None]
        for e, c in levels[::-1]:
            em = np.min(e, axis=-1, keepdims=True, initial=np.inf)
            cm = np.sum(np.where(e == em, c, 0.0), axis=-1, keepdims=True)
            x = np.log(np.maximum(2 * k * np.abs(c / cm), 1.0)) / (e - em)
            ends.insert(0, np.fmax(np.fmax.reduce(np.where(e > em, x, 0.0), axis=-1), ends[0]))
    return levels, np.stack(ends[:-1], axis=-1)


def boundary_zero(coefficients: Sequence[float]) -> bool:
    """The x = 0 rule: a coefficient sum within ``ZERO_EPS`` of the
    magnitude sum is a zero at the boundary, which drops out of the sign
    sequence rather than contribute a noise-level leading sign."""
    return abs(math.fsum(coefficients)) <= ZERO_EPS * math.fsum(map(abs, coefficients))


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def _fixed(values, bits: int | None = None, floor: float = -math.inf) -> tuple[list[int], int]:
    """Raw mpf values as integers times one power of two: exactly (over the smallest
    exponent, or 2^floor if larger) for bits None, else to 2^-bits of the largest."""
    parts = [(-m if s else m, e) for s, m, e, _ in values]
    nonzero = [(m, e) for m, e in parts if m]
    e0 = (max(min((e for _, e in nonzero), default=0), floor) if bits is None
          else max(m.bit_length() + e for m, e in nonzero) - bits)
    return [m << (e - e0) if e >= e0 else m >> (e0 - e) for m, e in parts], e0


def _scaled(m: int, e: int) -> float:
    """m 2^e as a float, for an integer m of any size."""
    shift = max(m.bit_length() - 60, 0)
    return math.ldexp(m >> shift, e + shift)


def _quadratic_roots(v: float, s: float, c: float) -> list[float]:
    """The steps h that zero v + s h + c h^2 / 2."""
    disc = s * s - 2.0 * v * c
    if not c or disc < 0.0:
        return [-v / s] if s and not c else []
    return [(-s + math.sqrt(disc)) / c, (-s - math.sqrt(disc)) / c]


class _Descent:
    """Rolle's theorem on one D-polynomial (README, Numerical notes).

    The nonzero terms, slowest first, give the levels of ``_levels``.
    Level i is monotone between 0, the zeros of level i+1 and X, so from
    the two-term bottom level up, each bracket of those points whose end
    signs differ holds one zero.  Level 0 is l, the F kind itself.  The G
    kind's signs are those of M = x^2 p, and M' = x l with M(0) = 0, so M
    is monotone between the zeros of l.  Every value comes from
    ``_point``: float64 where it clears its rounding bound, else 50 digits.
    """

    def __init__(self, p: DPolynomial):
        terms = sorted((d, a) for a, d in zip(p.coefficients, p.basis.decays) if a != 0.0)
        self.basis, self.kind = p.basis, p.basis.kind
        self.d, self.a = [d for d, _ in terms], [a for _, a in terms]
        d, k = self.d, len(terms)  # _levels on one row, in floats, in its operation order
        self.levels = [([dj - d[0] for dj in d], self.a)]
        for i in range(1, k - 1):
            e, c = self.levels[-1]
            self.levels.append(([dj - d[i] for dj in d[i:]], [cj * ej for cj, ej in zip(c[1:], e[1:])]))
        ratios = [max(2 * k * abs(cj / c[0] if c[0] else cj * math.inf), 1.0)  # x / 0 as numpy's
                  for _, c in self.levels for cj in c[1:]]
        logs = zip(np.log(ratios).tolist(), (ej for e, _ in self.levels for ej in e[1:]))
        self.x_end = max((v / ej for v, ej in logs if v == v), default=0.0)  # NaN as np.fmax
        if not math.isfinite(self.x_end):
            raise NumericalInconsistencyError(
                "Rolle descent has no finite bound where the slowest term settles the sign"
            )
        self.boundary = boundary_zero(self.a)
        self._exact, self._center, self._models = None, (None, []), {}
        if self.kind == G_KIND:
            # M = tails[j] - sum_{m>=j} w_m (1 + u_m) exp(-u_m) + x^2 sum_{m<j} a_m g(u_m),
            # w = a / d^2, u = d x < _RESIDUAL_FROM for m < j, tails[j] = sum_{m>=j} w_m
            # exactly: the residual form keeps far-out values exact.
            self.w = [a / (d * d) if d else 0.0 for d, a in terms]
            if self.d[0] == 0.0:  # the constant term's a x^2 / 2 dominates M at infinity
                self.end = _sign(self.a[0])
            else:  # the sign of sum w, exact where two roundings per w may flip it
                total, size = math.fsum(self.w), math.fsum(map(abs, self.w))
                noise = abs(total) <= 4.0 * _UNIT_ROUNDOFF * size
                self.end = _sign(self.tails[0] if noise else total)

    @functools.cached_property
    def tails(self) -> list[float]:
        """sum_{m>=j} a_m / d_m^2 for each j, summed exactly over a common
        denominator and rounded once (int / int)."""
        tail, tails = Fraction(0), [0.0]
        for d, a in zip(reversed(self.d), reversed(self.a)):
            tail += Fraction(a) / Fraction(d) ** 2 if d else 0
            try:
                tails.insert(0, float(tail))
            except OverflowError:  # past 2^1024, infinite as a float of it
                tails.insert(0, math.inf if tail > 0 else -math.inf)
        return tails

    def _float(self, i: int | None, x: float) -> tuple[float, float, float, float]:
        """Value, slope, curvature and rounding bound of level i, or of M
        for i None, at x in float64.  A level's c_ij carries 2i roundings,
        exp(-e x) about 2 e x relative and the sum k - i more; M's terms
        at most about 13 + u, or 4 / u more in g's closed form.  Each bound
        is twice that first order."""
        k = len(self.d)
        value = slope = curve = mag = 0.0
        if i is not None:
            for e, c in zip(*self.levels[i]):
                t = c * math.exp(-e * x)
                value += t
                slope -= e * t
                curve += e * e * t
                mag += abs(t) * (1.0 + e * x)
            return value, slope, curve, 2.0 * (k + i + 2) * _UNIT_ROUNDOFF * mag
        j = next((j for j, d in enumerate(self.d) if d * x >= _RESIDUAL_FROM), k)
        value = self.tails[j] if j < k else 0.0
        mag = abs(value)
        for m, (d, a) in enumerate(zip(self.d, self.a)):
            u, decay = d * x, math.exp(-d * x)
            if m < j:  # the closed form's error is about 3.4e-16 / u relative
                t = a * x * x * _g_scalar(u)
                mag += abs(t) * (1.0 + 4.0 / u if u >= _G_SERIES_CUTOFF else 1.0)
            else:
                t = -self.w[m] * (1.0 + u) * decay
                mag += abs(t) * (1.0 + u)
            value += t
            slope += a * decay  # l and l'
            curve -= d * a * decay
        return value, x * slope, slope + x * curve, 2.0 * (k + 14) * _UNIT_ROUNDOFF * mag

    def _expand(self, i: int | None, x0: float):
        """Level i, or M for i None, as a Taylor polynomial about x0 whose
        coefficients come from its terms at 50 digits, summed exactly, and
        its evaluator: value, slope, curvature and a bound on rounding and
        remainder, over |x - x0| <= 1 / (largest rate) (None outside).  One
        model serves every point of a cluster of zeros, which is why points
        are not re-evaluated at 50 digits one by one (README, Numerical notes)."""
        order = len(self.d if i is None else self.levels[i][1]) + 4
        with mp.workdps(_MINOR_DPS):
            if self._exact is None:  # each level's exact coefficients and rates
                d, c = [mp.mpf(v) for v in self.d], [mp.mpf(v) for v in self.a]
                self._exact = {None: (c, d)}
                for i_ in range(len(self.levels)):
                    self._exact[i_] = (c, [dj - d[i_] for dj in d[i_:]])
                    c = [cj * (dj - d[i_]) for cj, dj in zip(c[1:], d[i_ + 1:])]
            c, r = self._exact[i]
            xm = mp.mpf(x0)
            if self._center[0] != x0:  # exp(-d_j x0), shared by every level's model
                self._center = (x0, [mp.exp(-dj * xm) for dj in self._exact[None][1]])
            scaled = self._center[1][0 if i is None else i:]  # level i is exp(d_i x) times ...
            t = [cj * ej for cj, ej in zip(c, scaled)]
            t = t if i is None else [tj / scaled[0] for tj in t]
            if i is None:
                m0 = float(mp.fsum((cj - (1 + rj * xm) * tj) / rj**2 if rj * xm > 1e-8 else
                                   cj * xm * xm * _mp_basis_value(G_KIND, rj * xm)
                                   for cj, rj, tj in zip(c, r, t)))
        # d^n/dx^n of sum_j c_j exp(-r_j x) at x0 is sum_j t_j (-r_j)^n, summed
        # in integers: t_j to 2^-200 of the largest, r_j exactly.
        (tm, te), (rm, re), lam = _fixed([v._mpf_ for v in t], 200), _fixed([v._mpf_ for v in r]), []
        for n in range(order + 1):
            lam.append(_scaled(sum(tm), te + n * re))
            tm = [-a * b for a, b in zip(rm, tm)]
        terms = [(v, abs(v)) for v in lam[:order]]
        if i is None:  # M' = x l: M^(n) = x l^(n-1) + (n-1) l^(n-2), rounded twice
            terms = [(m0, abs(m0))] + [(x0 * lam[n - 1] + (n - 1) * lam[n - 2],
                                        abs(x0 * lam[n - 1]) + (n - 1) * abs(lam[n - 2]))
                                       for n in range(1, order)]
        tau = [(v / math.factorial(n), s / math.factorial(n)) for n, (v, s) in enumerate(terms)]
        # The derivative of that order over the model's range: at most e
        # times its terms' magnitudes at x0, (a + b |x - x0|) order!.
        size, rate = [(abs(float(tj)), float(rj)) for tj, rj in zip(t, r)], float(max(r))
        mags = [sum(s * r**n for s, r in size) / math.factorial(order) for n in range(order - 2, order + 1)]
        rem = (x0 * mags[1] + (order - 1) * mags[0], mags[1]) if i is None else (mags[2], 0.0)

        def model(x):
            h = x - x0
            if (dist := abs(h)) * rate > 1.0:
                return None
            value = slope = half = scale = 0.0
            for t, size in reversed(tau):
                value, slope, half = value * h + t, slope * h + value, half * h + slope
                scale = scale * dist + size
            remainder = math.e * (rem[0] + rem[1] * dist) * dist**order
            return value, slope, 2.0 * half, 4.0 * (order + 1) * _UNIT_ROUNDOFF * scale + remainder

        return model

    def _models_at(self, i: int | None, x: float):
        """Level i's Taylor model, then new ones about the last center, if
        near (the other levels' models share its exponentials), and about x."""
        x0, model = self._models.get(i, (None, None))
        if model:
            yield model
        near = (c for c in (self._center[0], x) if c not in (None, x0) and abs(c - x) * self.d[-1] <= 1)
        for center in dict.fromkeys(near):
            self._models[i] = (center, self._expand(i, center))
            yield self._models[i][1]

    def _point(self, i: int | None, x: float, tol: float = 0.0) -> tuple[float, float, float]:
        """Value, slope and curvature of level i, or of M for i None, at x:
        in float64 outside its rounding bound, else from the first 50-digit
        Taylor model of ``_models_at`` that signs it (the one about x always
        does).  A value inside its bound is 0.0 instead when the slope puts
        the zero within tol * x."""
        got, models = self._float(i, x), None
        while not got or abs(got[0]) <= got[3]:
            if got and got[3] <= tol * x * abs(got[1]):
                return 0.0, got[1], got[2]
            models = models or self._models_at(i, x)
            if (model := next(models, None)) is None:
                break
            got = model(x)
        return got[:3]

    def _root(self, i: int | None, lo: float, hi: float, s_lo: int, x: float) -> float:
        """The zero of level i (M for i None) in (lo, hi), where it is
        monotone with sign s_lo next to lo: Newton from x, and a geometric
        bisection step whenever an iterate leaves the bracket, to
        ``REFINE_TOL`` relative."""
        for _ in range(_MAX_NEWTON_STEPS):
            if not lo < x < hi:
                x = math.sqrt(max(lo, 1e-6 * hi) * hi)
            value, slope, _ = self._point(i, x, REFINE_TOL)
            if value == 0.0:
                return x
            lo, hi = (x, hi) if _sign(value) == s_lo else (lo, x)
            if hi - lo <= REFINE_TOL * hi:
                return 0.5 * (lo + hi)
            step = value / slope if slope else x
            x -= step
            if abs(step) <= REFINE_TOL * abs(x) and lo <= x <= hi:
                return x
        raise NumericalInconsistencyError(f"zero in ({lo!r}, {hi!r}) not converged")

    def _zeros(self, i: int | None, kept: list[tuple[float, tuple]]) -> list[float]:
        """One zero in each bracket of kept (x, (value, slope, curvature))
        whose end signs differ.  The bottom level starts from its closed
        form, the rest from the quadratic model at the bracket end with
        the smaller value: an extremum of the function, for every end but
        0 and X, so the zero is often close by."""
        zeros = []
        for (lo, p), (hi, q) in zip(kept, kept[1:]):
            if _sign(p[0]) == _sign(q[0]):
                continue
            starts = [x + h for x, (v, s, c) in sorted(((lo, p), (hi, q)), key=lambda e: abs(e[1][0]))
                      for h in _quadratic_roots(v, s, c) if lo < x + h < hi]
            if i is not None and len(self.levels[i][1]) == 2:
                (_, e), (c0, c1) = self.levels[i]
                starts = [math.log(-c1 / c0) / e]
            zeros.append(self._root(i, lo, hi, _sign(p[0]), (starts or [lo])[0]))
        return zeros

    def signs_and_zeros(self) -> tuple[list[int], list[float]]:
        """The polynomial's signs at its Rolle points, and its zeros.  Each
        kept point carries (value, slope, curvature); where only the sign is
        known (X, and x = 0 for M) the value is that sign."""
        zeros: list[float] = []
        for i in range(len(self.levels) - 1, -1, -1):
            start = [] if i == 0 and self.boundary else [0.0]
            kept = [(x, pt) for x in start + [min(z, self.x_end) for z in zeros]
                    if (pt := self._point(i, x))[0]]
            kept.append((self.x_end, (_sign(self.levels[i][1][0]), 0.0, 0.0)))
            zeros = self._zeros(i, kept)
        if self.kind == G_KIND:
            kept = [] if self.boundary else [(0.0, (_sign(math.fsum(self.a)), 0.0, 0.0))]
            kept += [(z, pt) for z in zeros if (pt := self._point(None, z))[0]]
            if self.end:  # M is monotone past l's last zero: double out to its end sign
                hi, pt = math.inf, (self.end, 0.0, 0.0)
                if kept and _sign(kept[-1][1][0]) != self.end:
                    hi = 2.0 * kept[-1][0] or 1.0
                    while _sign((pt := self._point(None, hi))[0]) != self.end:
                        if (hi := 2.0 * hi) == math.inf:
                            raise NumericalInconsistencyError("M does not settle to its end sign")
                kept.append((hi, pt))
            zeros = self._zeros(None, kept)
        return [_sign(pt[0]) for _, pt in kept], zeros

    def weighted(self, x: float) -> tuple[float, float]:
        """p(x) and sum_j phi(d_j x) over every decay of the basis, times
        one positive factor: x^2 for G at x > 0, else exp(d x) with d the
        slowest decay, so that neither underflows far out."""
        decays = self.basis.decays
        if self.kind == G_KIND and x > 0.0:
            return self._point(None, x)[0], x * x * sum(_g_scalar(d * x) for d in decays)
        slowest = min(decays)
        value = self._point(0, x)[0] * math.exp((slowest - self.d[0]) * x)
        return value, sum(math.exp((slowest - d) * x) for d in decays)


def sseq_of_dpoly(p: DPolynomial) -> tuple[SignSeq, list[float]]:
    """Reduced sign sequence of a D-polynomial on [0, inf), with zeros.

    Rolle's descent (``_Descent``): no grid, no window and no hints.  By
    variation diminishing the polynomial has at most len(basis) - 1 sign
    changes, each at a zero; more changes than that, or a change without
    a located zero, raises NumericalInconsistencyError.
    """
    if p.is_zero:
        return EMPTY_PURE, []
    return _descend(p)[1:]


def _descend(p: DPolynomial) -> tuple[_Descent, SignSeq, list[float]]:
    """``sseq_of_dpoly`` of a nonzero p, with the descent that read it."""
    descent = _Descent(p)
    signs, zeros = descent.signs_and_zeros()
    sseq = reduce_sseq(SignSeq(tuple(Sign(s) for s in signs)))
    changes = max(0, len(sseq) - 1)
    if changes > len(p.basis) - 1 or changes != len(zeros):
        raise NumericalInconsistencyError(
            f"Rolle descent of {len(p.basis)}-term polynomial is inconsistent: "
            f"{changes} changes vs {len(zeros)} located zeros"
        )
    return descent, sseq, zeros


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


def _basis_entry(kind: str, a: tuple, x: tuple) -> tuple:
    """``_mp_basis_value(kind, a x)`` for raw mpf a and x, in ``mpmath.libmp``:
    the same operations, each rounded to nearest at 50 digits."""
    u = libmp.mpf_mul(a, x, *_NEAREST)
    decay = libmp.mpf_exp(libmp.mpf_neg(u), *_NEAREST)
    if kind == F_KIND:
        return decay
    if libmp.mpf_lt(u, _SERIES_BELOW):  # the series, through mpf objects
        with mp.workdps(_MINOR_DPS):
            return _mp_basis_value(kind, mp.mpf(u))._mpf_
    decay = libmp.mpf_mul(libmp.mpf_add(u, libmp.fone, *_NEAREST), decay, *_NEAREST)
    return libmp.mpf_div(libmp.mpf_sub(libmp.fone, decay, *_NEAREST),
                         libmp.mpf_mul(u, u, *_NEAREST), *_NEAREST)


def _signed_minors(basis: ExpBasis, r: Sequence[float]) -> list[float]:
    """(-1)^i times the collocation minor at r with basis function i
    removed, for every i, from one exact elimination.

    The collocation rows at r, closed by the row w_i = (-1)^i, make a square
    B, and B y = e_last is solved by y_i = (-1)^(n-1) (-1)^i M_i / det B
    (expand det B along w), so the signed minors are (-1)^(n-1) det B * y.
    Each row of 50-digit basis values is shifted to its smallest binary
    exponent, so B holds integers: fraction-free (Bareiss) elimination gives
    det B and det B * y exactly, and each is rounded to float64 once.
    """
    n, decays = len(basis), [libmp.from_float(a) for a in basis.decays]
    fixed = [_fixed([_basis_entry(basis.kind, a, x) for a in decays], floor=_MINOR_FLOOR)
             for x in map(libmp.from_float, r)]
    rows = [row + [0] for row, _ in fixed] + [[(-1) ** i for i in range(n)] + [1]]
    sign, det = (-1) ** (n - 1), 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return [0.0] * n
        if pivot != k:
            rows[k], rows[pivot], sign = rows[pivot], rows[k], -sign
        p, top = rows[k][k], rows[k][k + 1:]
        for row in rows[k + 1:]:  # each new entry is a minor of B: the division is exact
            row[k + 1:] = [(p * v - row[k] * t) // det for v, t in zip(row[k + 1:], top)]
        det = p
    z = [0] * n  # det B * y, integers by Cramer's rule
    for k in reversed(range(n)):
        z[k] = (det * rows[k][n] - sum(rows[k][j] * z[j] for j in range(k + 1, n))) // rows[k][k]
    return [libmp.to_float(libmp.from_man_exp(sign * v, sum(e for _, e in fixed)), rnd="n") for v in z]


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
    descent, _, zeros = _descend(p)
    return _stability_radius(descent, zeros)


def _stability_radius(descent: _Descent, zeros: Sequence[float]) -> float:
    """``perturbation_delta`` of the descent's polynomial, from its zeros.

    Each probe's ratio is unchanged by a common factor, so it is read
    from ``_Descent.weighted``, with p's value signed at 50 digits where
    float64 cannot sign it.
    """
    probes = [] if zeros and zeros[0] == 0.0 else [0.0]  # one per sign stretch
    probes += [0.5 * (z1 + z2) for z1, z2 in zip(zeros, zeros[1:])]
    if zeros:  # past the last zero by max(last gap, 1 / slowest decay)
        gap = zeros[-1] - (zeros[-2] if len(zeros) > 1 else 0.0)
        probes.append(zeros[-1] + max(gap, 1.0 / descent.basis.min_positive_decay))
    radius = math.inf
    for r in probes:
        value, weight = descent.weighted(r)
        if value == 0.0:
            raise ValueError("probe point landed on a zero; polynomial not extremal?")
        radius = min(radius, abs(value) / weight)
    return radius
