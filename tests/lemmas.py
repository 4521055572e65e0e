"""Oracles of the paper's lemmas that the package itself does not need.

Collocation determinants and the g-system Wronskian at zero (the
Descartes property), Vandermonde products and the small-zero limits of
interpolation coefficient ratios, the forward-curve derivative straight
from the bond loadings, and two sign-sequence helpers: the reduced
sequence of sampled values and the tail-preserving subsequence relation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from termshapes.descartes import ExpBasis, eval_basis_fn
from termshapes.signseq import Sign, SignSeq, reduce, subsequence
from termshapes.vasicek import B, VasicekModel, as_state


def det_system(basis: ExpBasis, xs: Sequence[float]) -> float:
    """Determinant of the collocation matrix at strictly increasing xs.

    Row i, column j holds the j-th basis function at ``xs[i]``; with
    m = len(xs) <= len(basis), the first m basis functions are used.
    Evaluated by pivoted elimination.  Strict positivity for every
    choice of increasing xs is the Descartes property.
    """
    xs = [float(x) for x in xs]
    m = len(xs)
    if m == 0 or m > len(basis):
        raise ValueError("need 1 <= len(xs) <= len(basis)")
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly increasing")
    mat = np.array(
        [[eval_basis_fn(basis.kind, a, x) for a in basis.decays[:m]] for x in xs]
    )
    if m == 1:
        return float(mat[0, 0])
    return float(np.linalg.det(mat))


def vandermonde(gammas: Sequence[float]) -> float:
    """prod_{i<j} (gamma_j - gamma_i); zero on repeated nodes."""
    g = [float(x) for x in gammas]
    out = 1.0
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            out *= g[j] - g[i]
    return out


def wronskian_g_at_zero(alphas: Sequence[float]) -> float:
    """Wronskian at zero of the integrated-kernel system, Descartes order.

    ``alphas`` are given strictly increasing; the system lists the
    largest decay first.  Row derivatives follow from the series:
    the j-th derivative of g_a at zero is (-a)^j / (j + 2).  Strict
    positivity certifies the Descartes ordering of the g-family.
    """
    a = [float(x) for x in alphas]
    if any(y <= x for x, y in zip(a, a[1:])):
        raise ValueError("alphas must be strictly increasing")
    k = len(a)
    rows = list(reversed(a))
    mat = np.array([[(-alpha) ** j / (j + 2) for j in range(k)] for alpha in rows])
    if k == 1:
        return float(mat[0, 0])
    return float(np.linalg.det(mat))


def coef_ratio_limit(basis: ExpBasis, i: int, j: int) -> float:
    """Limit of a_i / a_j for interpolation coefficients as the zeros
    shrink to the origin.

    ``i`` and ``j`` are 1-based positions in the basis (decays listed
    decreasing).  As the prescribed zeros cluster at the origin, each
    minor determinant approaches the Wronskian of its function subset at
    zero, which for these bases is a Vandermonde in the decays (up to
    column scalings that cancel in the ratio).  The ratio of the two
    punctured Vandermonde products is therefore the limit, for both
    basis kinds:

        (-1)^(i-j) * prod_{k != i,j} |d_k - d_j| / |d_k - d_i|.
    """
    n = len(basis)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices must lie in 1..len(basis)")
    if i == j:
        return 1.0
    d = basis.decays
    di, dj = d[i - 1], d[j - 1]
    ratio = 1.0
    for k in range(n):
        if k in (i - 1, j - 1):
            continue
        ratio *= abs(d[k] - dj) / abs(d[k] - di)
    return (-1.0) ** (i - j) * ratio


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


def sseq_of_samples(values: Sequence[float], eps: float) -> SignSeq:
    """Reduced sign sequence of sampled function values.

    Magnitudes <= eps are treated as zero, so only strong sign changes
    survive.  All-zero input yields the empty-pure marker.
    """
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return reduce(SignSeq(tuple(Sign.of(v, eps) for v in values)))


def tail_subsequence(a: SignSeq, b: SignSeq) -> bool:
    """Subsequence relation that also preserves the terminal sign."""
    ra, rb = reduce(a), reduce(b)
    if ra.is_empty:
        return True
    if rb.is_empty:
        return False
    return ra.signs[-1] is rb.signs[-1] and subsequence(ra, rb)
