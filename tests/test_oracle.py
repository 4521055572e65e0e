"""``sseq_of_dpoly`` against the 50-digit count oracle of ``tests/oracle.py``.

Each family is seeded.  The unconstrained interpolants have zeros with no
spacing rule, the clustered ones zeros 1e-4 to 1e-1 apart (those whose
coefficient sum falls inside the x = 0 band are left out: the x = 0 rule
reads them as boundary zeros), and the far-zero ones zeros 5 to 60
e-foldings of the slowest decay out, for the G kind.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from oracle import count
from termshapes.descartes import (
    DPolynomial,
    ExpBasis,
    boundary_zero,
    interpolate_prescribed_zeros,
    perturbation_delta,
    sseq_of_dpoly,
)


def _first_changes(p: DPolynomial) -> tuple[int, int]:
    seq, zeros = sseq_of_dpoly(p)
    assert len(zeros) == max(0, len(seq) - 1)
    return (int(seq.signs[0]), len(seq) - 1) if len(seq) else (0, 0)


def _decays(rng, n: int) -> tuple[float, ...]:
    return tuple(np.sort(rng.uniform(0.05, 4.0, n))[::-1])


def _unconstrained(kind: str, rng):
    return interpolate_prescribed_zeros(ExpBasis(kind, _decays(rng, 5)),
                                        np.sort(rng.uniform(0.1, 5.0, 4)))


def _clustered(kind: str, rng):
    basis = ExpBasis(kind, _decays(rng, int(rng.integers(3, 6))))
    start, step = rng.choice([1e-3, 0.5, 2.0]), 10.0 ** -rng.integers(1, 5)
    return interpolate_prescribed_zeros(basis, start + step * np.arange(len(basis) - 1))


def _far(kind: str, rng):
    basis = ExpBasis(kind, _decays(rng, int(rng.integers(2, 6))))
    return interpolate_prescribed_zeros(basis, np.sort(rng.uniform(5.0, 60.0, len(basis) - 1))
                                        / basis.decays[-1])


@pytest.mark.parametrize(
    "family,kinds,cases",
    [(_unconstrained, "FG", 100), (_clustered, "FG", 60), (_far, "G", 60)],
    ids=["unconstrained", "clustered", "far-zero"],
)
def test_descent_agrees_with_oracle(family, kinds, cases):
    rng = np.random.default_rng(21)
    polys = [family(kind, rng) for _ in range(cases) for kind in kinds]
    polys = [p for p in polys if not boundary_zero(p.coefficients)]
    assert len(polys) >= cases
    wrong = [(p.basis, p.coefficients) for p in polys
             if _first_changes(p) != count(p.basis.kind, p.basis.decays, p.coefficients)]
    assert not wrong, wrong[:3]


@pytest.mark.parametrize("kind", ["F", "G"])
def test_oracle_reproduces_prescribed_zeros(kind):
    # Separated prescribed zeros: the oracle counts all n - 1 changes, and
    # its first sign is the interpolant's sign before the first zero.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        zeros = np.cumsum(rng.uniform(0.3, 1.5, n - 1))
        p = interpolate_prescribed_zeros(ExpBasis(kind, _decays(rng, n)), zeros)
        with mp.workdps(50):
            x = mp.mpf(zeros[0]) / 2
            phi = (lambda u: mp.exp(-u)) if kind == "F" else (
                lambda u: (-mp.expm1(-u) - u * mp.exp(-u)) / u**2)
            first = int(mp.sign(mp.fsum(a * phi(d * x) for a, d in zip(p.coefficients,
                                                                        p.basis.decays))))
        assert count(kind, p.basis.decays, p.coefficients) == (first, n - 1)


def test_far_zero_g_interpolant_has_a_stability_radius():
    # Far-zero interpolant 389 of scripts/scan_digest.py: float64 gives 0.0
    # at the probe past its zero, which 50 digits sign (the oracle reads +-).
    p = DPolynomial(
        ExpBasis("G", (9.608668457530612, 5.90289887336135, 4.804334228765306,
                       2.197129289192088, 1.098564644596044)),
        (1.0, -0.377402062395065, 0.0, 0.0, 0.0),
    )
    assert count("G", p.basis.decays, p.coefficients) == (1, 1) == _first_changes(p)
    assert 0.0 < perturbation_delta(p) < 1e-15
