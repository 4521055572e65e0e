"""A 50-digit count oracle for exponential sums, independent of the package.

``count(kind, decays, coeffs)`` returns (first sign, sign changes on
(0, inf)) of p(x) = sum_j a_j phi(d_j x), with phi(u) = exp(-u) for the
kind 'F' and (1 - (1+u) exp(-u)) / u^2 for 'G'.  It runs Rolle's
recursion in mpmath: level 0 is sum_j a_j exp(-(d_j - d_0) x), decays
increasing, and level i has the coefficients c_ij = c_(i-1)j (d_j -
d_(i-1)), a positive multiple of minus the derivative of level i-1.  So
level i is monotone between 0, the zeros of level i+1 and a bound X past
which every level's slowest term outweighs twice the rest, and each of
its zeros is solved in one such bracket.  G's sign pattern is that of
M = x^2 p, with M(0) = 0 and M' = x l: sign sum a, M at each zero of l,
and sign sum a_j / d_j^2 at infinity.  The package's x = 0 rule is
written out: |sum a| <= 1e-12 sum |a| counts as a zero at the boundary.
Nothing here imports ``termshapes``.
"""

from __future__ import annotations

import mpmath as mp

DPS, ZERO_EPS = 50, 1e-12


def _root(fn, lo, hi):
    """Zero of fn -> (value, slope) in (lo, hi), where it is monotone:
    Newton steps inside the bracket, bisection otherwise."""
    s_lo, x = mp.sign(fn(lo)[0]), (lo + hi) / 2
    for _ in range(400):
        v, slope = fn(x)
        if v == 0:
            return x
        lo, hi = (x, hi) if mp.sign(v) == s_lo else (lo, x)
        step = x - v / slope if slope else lo
        nx = step if lo < step < hi else (lo + hi) / 2
        if abs(nx - x) <= mp.mpf(10) ** (8 - DPS) * nx:
            return nx
        x = nx
    return x


def _changes(points, fn):
    """Signs of fn at the points, zeros dropped, and its zeros between them."""
    kept = [(x, s) for x, s in ((x, mp.sign(fn(x)[0])) for x in points) if s]
    zeros = [_root(fn, x0, x1) for (x0, s0), (x1, s1) in zip(kept, kept[1:]) if s0 != s1]
    return [s for _, s in kept], zeros


def count(kind: str, decays, coeffs) -> tuple[int, int]:
    with mp.workdps(DPS):
        terms = sorted((mp.mpf(d), mp.mpf(a)) for d, a in zip(decays, coeffs) if a != 0)
        if not terms:
            return 0, 0
        d, a = [t[0] for t in terms], [t[1] for t in terms]
        levels, c = [(a, [dj - d[0] for dj in d])], a
        for i in range(1, len(d)):
            c = [cj * (dj - d[i - 1]) for cj, dj in zip(c[1:], d[i:])]
            levels.append((c, [dj - d[i] for dj in d[i:]]))
        x_end = max([mp.mpf(1)] + [mp.log(max(2 * len(d) * abs(cj / c[0]), 1)) / ej
                                   for c, e in levels for cj, ej in zip(c[1:], e[1:])])
        band = abs(mp.fsum(a)) <= ZERO_EPS * mp.fsum(map(abs, a))
        zeros = []
        for i in reversed(range(len(levels))):
            def level(x, c=levels[i][0], e=levels[i][1]):
                t = [cj * mp.exp(-ej * x) for cj, ej in zip(c, e)]
                return mp.fsum(t), -mp.fsum(ej * tj for ej, tj in zip(e, t))
            start = [] if i == 0 and band else [mp.mpf(0)]
            signs, zeros = _changes([*start, *zeros, x_end], level)
        if kind == "G":
            def big_m(x):
                return mp.fsum(aj * (-mp.expm1(-dj * x) - dj * x * mp.exp(-dj * x)) / dj**2
                               if dj else aj * x * x / 2 for dj, aj in terms)
            end = a[0] if d[0] == 0 else mp.fsum(aj / dj**2 for dj, aj in terms)
            signs = [] if band else [mp.sign(mp.fsum(a))]
            signs += [mp.sign(big_m(z)) for z in zeros] + [mp.sign(end)]
        signs = [s for s in signs if s]
        signs = [s for s, prev in zip(signs, [0, *signs]) if s != prev]
        return (int(signs[0]), len(signs) - 1) if signs else (0, 0)
