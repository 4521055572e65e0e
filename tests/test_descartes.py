from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from lemmas import coef_ratio_limit, det_system, sseq_of_samples, vandermonde, wronskian_g_at_zero
from termshapes import descartes as dc
from termshapes import signseq as ss
from termshapes.descartes import (
    DPolynomial,
    ExpBasis,
    coef_inequality_value,
    eval_basis_fn,
    eval_dpoly,
    interpolate_prescribed_zeros,
    perturb_coefficients,
    perturbation_delta,
    perturbation_directions,
    sseq_of_dpoly,
)
from termshapes.signseq import Sign, SignSeq


def family_bases(lam1: float, lam2: float, kind: str) -> ExpBasis:
    """Five-slot (or merged four-slot) basis for a decay-speed pair."""
    if 2 * lam1 < lam2:
        decays = (2 * lam2, lam1 + lam2, lam2, 2 * lam1, lam1)
    elif 2 * lam1 > lam2:
        decays = (2 * lam2, lam1 + lam2, 2 * lam1, lam2, lam1)
    else:
        decays = (2 * lam2, lam1 + lam2, lam2, lam1)
    return ExpBasis(kind, decays)


def random_lam_pair(rng) -> tuple[float, float]:
    lam1 = rng.uniform(0.05, 2.0)
    kind = rng.integers(3)
    if kind == 0:
        lam2 = 2 * lam1 * (1.0 + rng.uniform(0.05, 1.5))
    elif kind == 1:
        lam2 = 2 * lam1 * (1.0 - rng.uniform(0.05, 0.45))
    else:
        lam2 = 2 * lam1
    return lam1, lam2


class TestBasisFn:
    def test_plain_at_zero(self):
        for alpha in (0.0, 0.3, 5.0):
            assert eval_basis_fn("F", alpha, 0.0) == 1.0

    def test_integrated_at_zero(self):
        assert eval_basis_fn("G", 1.7, 0.0) == 0.5

    def test_integrated_zero_decay(self):
        for x in (0.5, 3.0, 50.0):
            assert eval_basis_fn("G", 0.0, x) == pytest.approx(0.5, abs=1e-15)

    def test_integrated_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = rng.uniform(0.05, 5.0)
            x = rng.uniform(0.01, 20.0)
            expected = quad(lambda y: y * math.exp(-alpha * y), 0.0, x)[0] / (x * x)
            got = eval_basis_fn("G", alpha, x)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_series_branch_matches_closed_form(self):
        # both branches evaluated at the same point, straddling the switch
        for u in (1e-3, 3.96e-3, 4.04e-3, 1e-2):
            series = dc._g_series(u)
            closed = float(dc._g_closed(np.array([u]))[0])
            assert series == pytest.approx(closed, rel=1e-11)

    def test_integrated_matches_40_digit_reference(self):
        # The closed form loses about 3.4e-16 / u relative to cancellation,
        # so the series must take over before that passes 1e-13.
        import mpmath as mp

        us = np.geomspace(1e-7, 1e-1, 2001)
        with mp.workdps(40):
            ref = [float((1 - (1 + mp.mpf(u)) * mp.exp(-mp.mpf(u))) / mp.mpf(u) ** 2) for u in us]
        arr = dc.g_kernel_value(us)
        for u, want, got in zip(us, ref, arr):
            assert abs(dc._g_scalar(float(u)) - want) <= 1e-13 * want
            assert abs(got - want) <= 1e-13 * want

    def test_array_matches_scalar(self):
        # u = alpha * x; the integrated kind switches from series to
        # closed form at u = 4e-3, and the points straddle it
        alpha = 0.8
        us = np.array([0.0, 8e-7, 2e-3, 3.96e-3, 4.04e-3, 8e-3, 0.08, 1.6, 32.0])
        xs = us / alpha
        for kind in ("F", "G"):
            arr = eval_basis_fn(kind, alpha, xs)
            for x, v in zip(xs, arr):
                assert v == pytest.approx(
                    eval_basis_fn(kind, alpha, float(x)), rel=1e-14
                )


class TestDetSystem:
    def test_one_by_one(self):
        basis = ExpBasis("F", (1.3,))
        assert det_system(basis, [0.7]) == pytest.approx(math.exp(-1.3 * 0.7))

    def test_two_by_two_expansion(self):
        basis = ExpBasis("F", (2.0, 1.0))
        expected = math.exp(-1.0) - math.exp(-2.0)
        assert det_system(basis, [0.0, 1.0]) == pytest.approx(expected, rel=1e-14)

    def test_rejects_unordered_points(self):
        with pytest.raises(ValueError):
            det_system(ExpBasis("F", (2.0, 1.0)), [1.0, 0.5])

    def test_positivity_across_families(self):
        # Determinants shrink with clustered decays or points, so the
        # relative-margin check draws decay pairs away from the critical
        # boundary and keeps the points moderately spread; positivity at
        # tighter spacings is exercised through the interpolation tests.
        rng = np.random.default_rng(11)
        for _ in range(250):
            lam1 = rng.uniform(0.1, 1.5)
            branch = rng.integers(3)
            if branch == 0:
                lam2 = 2 * lam1 * rng.uniform(1.25, 2.0)
            elif branch == 1:
                lam2 = 2 * lam1 * rng.uniform(0.6, 0.8)
            else:
                lam2 = 2 * lam1
            kind = "F" if rng.random() < 0.5 else "G"
            basis = family_bases(lam1, lam2, kind)
            m = int(rng.integers(1, len(basis) + 1))
            keep = sorted(rng.choice(len(basis), size=m, replace=False))
            sub = ExpBasis(kind, tuple(basis.decays[i] for i in keep))
            xs = 0.05 + np.cumsum(rng.uniform(0.3, 1.2, m)) / lam2
            mat = np.array(
                [[eval_basis_fn(kind, a, x) for a in sub.decays] for x in xs]
            )
            scale = np.prod(np.max(np.abs(mat), axis=0))
            det = det_system(sub, xs)
            assert det > 0
            assert det > 1e-12 * scale


class TestDPolyEval:
    def test_zero_everywhere(self):
        p = DPolynomial(ExpBasis("F", (2.0, 1.0)), (0.0, 0.0))
        assert p.is_zero
        assert eval_dpoly(p, 1.3) == 0.0

    def test_single_term_at_zero(self):
        p = DPolynomial(ExpBasis("F", (0.9,)), (2.5,))
        assert eval_dpoly(p, 0.0) == pytest.approx(2.5)

    def test_difference_vanishes_only_at_zero(self):
        p = DPolynomial(ExpBasis("F", (2.0, 1.0)), (1.0, -1.0))
        assert eval_dpoly(p, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert eval_dpoly(p, 0.5) != 0.0


def _ends(p: DPolynomial) -> tuple[Sign, Sign]:
    """The package's sign at x = 0 and at infinity: the first and last of
    ``sseq_of_dpoly``'s sign sequence."""
    signs = sseq_of_dpoly(p)[0].signs
    return signs[0], signs[-1]


class TestEndpointSigns:
    def test_initial_is_coefficient_sum(self):
        p = DPolynomial(ExpBasis("F", (3.0, 1.0)), (2.0, -0.5))
        assert _ends(p)[0] is Sign.PLUS
        g = DPolynomial(ExpBasis("G", (3.0, 1.0)), (2.0, -0.5))
        assert _ends(g)[0] is Sign.PLUS

    def test_kinds_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            decays = tuple(sorted(rng.uniform(0.1, 4.0, 3), reverse=True))
            coeffs = tuple(rng.standard_normal(3))
            pf = DPolynomial(ExpBasis("F", decays), coeffs)
            pg = DPolynomial(ExpBasis("G", decays), coeffs)
            assert _ends(pf)[0] is _ends(pg)[0] is Sign.of(math.fsum(coeffs))

    def test_terminal_slowest_coefficient_wins(self):
        p = DPolynomial(ExpBasis("F", (3.0, 2.0, 1.0)), (-5.0, -5.0, 0.25))
        assert _ends(p)[1] is Sign.PLUS

    def test_terminal_skips_zero_slot(self):
        p = DPolynomial(ExpBasis("F", (3.0, 2.0, 1.0)), (-5.0, 4.0, 0.0))
        assert _ends(p)[1] is Sign.PLUS

    def test_all_zero(self):
        # no sign at either end: the sequence is empty
        p = DPolynomial(ExpBasis("F", (2.0, 1.0)), (0.0, 0.0))
        assert sseq_of_dpoly(p)[0].signs == ()

    def test_integrated_terminal_weighting(self):
        # x^2-weighted tail: the sign of sum a_i/alpha_i^2 decides.
        p = DPolynomial(ExpBasis("G", (2.0, 1.0)), (-3.9, 1.0))
        assert _ends(p)[1] is Sign.PLUS  # -3.9/4 + 1/1 > 0
        q = DPolynomial(ExpBasis("G", (2.0, 1.0)), (-4.1, 1.0))
        assert _ends(q)[1] is Sign.MINUS

    def test_integrated_zero_decay_dominates(self):
        p = DPolynomial(ExpBasis("G", (2.0, 0.0)), (-100.0, 0.5))
        assert _ends(p)[1] is Sign.PLUS

    def test_one_factor_yield_threshold(self):
        # terminal sign of the yield derivative flips where the state
        # crosses theta - 3 sigma^2 kappa / (4 lambda^2)
        lam, kap, sig, theta = 1.0, 1.0, 0.5, 0.02
        boundary = theta - 0.75 * sig * sig * kap / (lam * lam)
        for z, expected in ((boundary - 1e-6, Sign.PLUS), (boundary + 1e-6, Sign.MINUS)):
            u = sig * sig * kap * kap / lam
            w = kap * lam * (theta - z) - u
            p = DPolynomial(ExpBasis("G", (2 * lam, lam)), (u, w))
            assert _ends(p)[1] is expected


class TestSseqOfDpoly:
    def test_pair_1e5_apart_resolved_without_probes(self):
        # The zeros of level 1 bracket the pair however close it lies.
        p = interpolate_prescribed_zeros(ExpBasis("F", (3.0, 2.0, 1.0)), [1.0, 1.00001])
        seq, zeros = sseq_of_dpoly(p)
        assert seq == SignSeq.parse("+-+")
        assert zeros == pytest.approx([1.0, 1.00001], abs=1e-9)

    def test_single_positive_term(self):
        p = DPolynomial(ExpBasis("F", (1.0,)), (1.0,))
        seq, zeros = sseq_of_dpoly(p)
        assert seq == SignSeq.parse("+")
        assert zeros == []

    def test_interpolant_against_dense_sampling_oracle(self):
        p = interpolate_prescribed_zeros(ExpBasis("F", (2.0, 1.0)), [1.0])
        seq, zeros = sseq_of_dpoly(p)
        xs = np.linspace(0.0, 20.0, 1_000_000)
        vals = eval_dpoly(p, xs)
        oracle = sseq_of_samples(vals, 1e-12 * float(np.max(np.abs(vals))))
        assert seq == oracle == SignSeq.parse("+-")
        assert zeros == pytest.approx([1.0], abs=1e-9)

    def test_extremal_three_term(self):
        p = interpolate_prescribed_zeros(ExpBasis("F", (3.0, 2.0, 1.0)), [0.5, 2.0])
        seq, zeros = sseq_of_dpoly(p)
        assert seq == SignSeq.parse("+-+")
        assert zeros == pytest.approx([0.5, 2.0], abs=1e-9)

    def test_far_zero_located(self):
        p = DPolynomial(ExpBasis("F", (2.0, 1.0)), (1.0, -1e-14))
        seq, zeros = sseq_of_dpoly(p)
        assert seq == SignSeq.parse("+-")
        assert zeros == pytest.approx([math.log(1e14)], rel=1e-9)

    def test_boundary_zero_dropped(self):
        p = interpolate_prescribed_zeros(ExpBasis("F", (3.0, 2.0, 1.0)), [0.0, 1.0])
        seq, zeros = sseq_of_dpoly(p)
        assert seq == SignSeq.parse("-+")
        assert zeros == pytest.approx([1.0], abs=1e-9)

    def test_flat(self):
        p = DPolynomial(ExpBasis("F", (2.0, 1.0)), (0.0, 0.0))
        seq, zeros = sseq_of_dpoly(p)
        assert seq.is_empty
        assert zeros == []

    @pytest.mark.parametrize(
        "signs,zeros,match",
        [([1, -1], [], "1 changes vs 0 located zeros"), ([1, -1, 1, -1], [1.0, 2.0, 3.0], "3 changes")],
    )
    def test_inconsistent_descent_raises(self, monkeypatch, signs, zeros, match):
        # A change without a located zero, or more changes than the basis
        # allows (here 2 for three terms), is reported, not patched.
        p = interpolate_prescribed_zeros(ExpBasis("F", (3.0, 2.0, 1.0)), [0.5, 2.0])
        monkeypatch.setattr(dc._Descent, "signs_and_zeros", lambda self: (signs, zeros))
        with pytest.raises(dc.NumericalInconsistencyError, match=match):
            sseq_of_dpoly(p)

    def test_slow_decays_refine_to_adjacent_floats(self):
        # Floats near the zero at x ~ 4.6e11 lie further apart than
        # REFINE_TOL; bisection once looped there forever.
        p = DPolynomial(ExpBasis("F", (3e-12, 2e-12, 1e-12)), (1.0, -3.0, 1.5))
        seq, zeros = sseq_of_dpoly(p)
        assert str(seq) == "-+" and len(zeros) == 1
        assert p(zeros[0] * (1 - 1e-9)) < 0 < p(zeros[0] * (1 + 1e-9))

    def test_tail_without_finite_bound_raises(self):
        # A subnormal slowest coefficient puts the point where it settles
        # the sign past the float range; the tail scan once looped forever.
        p = DPolynomial(ExpBasis("F", (4.0, 3.0, 2.0, 1.0)), (0.5, 0.0, -0.5, 2.2250738585e-313))
        with pytest.raises(dc.NumericalInconsistencyError, match="no finite bound"):
            sseq_of_dpoly(p)

    def test_single_row_levels_match_batch_levels(self):
        # _Descent builds one polynomial's levels and X in floats; they must
        # keep the bits of the batch _levels on the same terms.
        rng = np.random.default_rng(61)
        for i in range(6_000):
            k = int(rng.integers(2, 6))
            if i % 2:  # near-equal decays
                scale, gap = rng.uniform(0.05, 5.0), 10.0 ** -rng.integers(1, 9)
                decays = tuple(scale * (1.0 + gap * j) for j in range(k, 0, -1))
            else:
                decays = tuple(sorted(rng.uniform(0.0, 8.0, k), reverse=True))
            coeffs = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
            descent = dc._Descent(DPolynomial(ExpBasis("FG"[i % 4 // 2], decays), coeffs))
            d, a = zip(*sorted(zip(decays, coeffs)))
            levels, ends = dc._levels(np.array(d), np.array(a))
            assert descent.levels == [(e.tolist(), c.tolist()) for e, c in levels]
            assert descent.x_end == float(ends[0])

    def test_tails_are_exact_sums_rounded_once(self):
        from fractions import Fraction

        rng = np.random.default_rng(62)
        for _ in range(500):
            k = int(rng.integers(1, 6))
            decays = tuple(sorted(rng.uniform(0.0, 4.0, k), reverse=True))
            coeffs = rng.standard_normal(k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
            descent = dc._Descent(DPolynomial(ExpBasis("G", decays), coeffs))
            d, a = sorted(decays), [c for _, c in sorted(zip(decays, coeffs))]
            exact = [sum((Fraction(a[m]) / Fraction(d[m]) ** 2 for m in range(j, k) if d[m]),
                         Fraction(0)) for j in range(k)]
            assert descent.tails == [float(t) for t in exact] + [0.0]
        # a sum past the float range is infinite, as M's end sign needs
        descent = dc._Descent(DPolynomial(ExpBasis("G", (1.0, 1e-150)), (1.0, -1e10)))
        assert descent.tails[0] == -math.inf

    def test_variation_diminishing_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            lam1, lam2 = random_lam_pair(rng)
            kind = "F" if rng.random() < 0.5 else "G"
            basis = family_bases(lam1, lam2, kind)
            coeffs = tuple(rng.standard_normal(len(basis)))
            p = DPolynomial(basis, coeffs)
            seq, _ = sseq_of_dpoly(p)
            coef_seq = SignSeq(tuple(Sign.of(a) for a in coeffs))
            assert ss.subsequence(seq, coef_seq)


class TestInterpolation:
    def test_two_term_closed_form(self):
        lam2, lam1, r1 = 2.0, 1.0, 0.8
        p = interpolate_prescribed_zeros(ExpBasis("F", (lam2, lam1)), [r1])
        expected = (math.exp(-lam1 * r1), -math.exp(-lam2 * r1))
        scale = max(abs(v) for v in expected)
        assert p.coefficients[0] == pytest.approx(expected[0] / scale, rel=1e-12)
        assert p.coefficients[1] == pytest.approx(expected[1] / scale, rel=1e-12)
        assert eval_dpoly(p, r1) == pytest.approx(0.0, abs=1e-14)

    def test_coefficients_alternate_starting_plus(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lam1, lam2 = random_lam_pair(rng)
            kind = "F" if rng.random() < 0.5 else "G"
            basis = family_bases(lam1, lam2, kind)
            n = len(basis)
            zeros = np.sort(rng.uniform(0.1, 8.0, n - 1))
            while np.any(np.diff(zeros) < 0.05):
                zeros = np.sort(rng.uniform(0.1, 8.0, n - 1))
            p = interpolate_prescribed_zeros(basis, zeros)
            for k, a in enumerate(p.coefficients):
                assert (a > 0) if k % 2 == 0 else (a < 0)

    def test_vanishes_at_prescribed_zeros(self):
        basis = ExpBasis("F", (4.0, 3.0, 2.0, 1.0))
        p = interpolate_prescribed_zeros(basis, [1.0, 2.0, 3.0])
        for r in (1.0, 2.0, 3.0):
            assert abs(eval_dpoly(p, r)) < 1e-12

    def test_extremality(self):
        # interior prescribed zeros: function signs match coefficient signs
        rng = np.random.default_rng(29)
        for _ in range(30):
            lam1, lam2 = random_lam_pair(rng)
            basis = family_bases(lam1, lam2, "F")
            n = len(basis)
            zeros = np.sort(rng.uniform(0.2, 6.0, n - 1))
            while np.any(np.diff(zeros) < 0.1):
                zeros = np.sort(rng.uniform(0.2, 6.0, n - 1))
            p = interpolate_prescribed_zeros(basis, zeros)
            seq, found = sseq_of_dpoly(p)
            coef_seq = SignSeq(tuple(Sign.of(a) for a in p.coefficients))
            assert ss.equivalent(seq, coef_seq)
            assert found == pytest.approx(list(zeros), abs=1e-8)

    def test_matches_float_elimination_at_moderate_scale(self):
        # cross-check the extended-precision minors against plain float64
        basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        r = [0.5, 1.1, 2.3]
        p = interpolate_prescribed_zeros(basis, r)
        for i in range(4):
            cols = [a for k, a in enumerate(basis.decays) if k != i]
            mat = np.array([[math.exp(-a * x) for a in cols] for x in r])
            minor = float(np.linalg.det(mat))
            expected = (-1.0) ** i * minor
            ratio = p.coefficients[i] / expected
            assert ratio == pytest.approx(p.coefficients[0] / cofactor0(basis, r), rel=1e-9)

    def test_matches_separate_extended_precision_minors(self):
        # reference: each minor as its own 50-digit determinant, including
        # clustered zeros where float64 elimination fails and a zero at 0
        import mpmath as mp

        cases = [
            ((3.0, 2.5, 2.0, 1.5, 0.5), [1e-4, 2e-4, 3e-4, 4e-4]),
            ((3.0, 2.5, 2.0, 1.5, 0.5), [0.3, 1.1, 2.4, 5.0]),
            ((3.0, 2.0, 1.0, 0.0), [0.0, 1.0, 2.0]),
            ((4.0, 1.0), [0.7]),
        ]
        for kind in ("F", "G"):
            for decays, r in cases:
                basis = ExpBasis(kind, decays)
                with mp.workdps(50):
                    minors = []
                    for i in range(len(decays)):
                        cols = [a for k, a in enumerate(decays) if k != i]
                        mat = mp.matrix(
                            [
                                [dc._mp_basis_value(kind, mp.mpf(a) * x) for a in cols]
                                for x in r
                            ]
                        )
                        minors.append((-1.0) ** i * float(mp.det(mat)))
                scale = max(abs(m) for m in minors)
                p = interpolate_prescribed_zeros(basis, r)
                assert p.coefficients == pytest.approx(
                    [m / scale for m in minors], rel=1e-14, abs=0.0
                )

    def test_matches_50_digit_elimination_bit_for_bit(self):
        # The exact integer elimination rounds each minor once; on these
        # cases the 50-digit Gaussian elimination it replaced rounds to the
        # same floats.  Far zeros are counted in e-foldings of the slowest
        # decay for F but of the fastest for G: past u of about 116 the
        # G kind's e^-u parts fall below the 169-bit values' rounding, so
        # the minors are rounding noise that no two eliminations share.
        rng, cases = np.random.default_rng(63), []
        for kind in ("F", "G"):
            for i in range(160):
                n = 2 + i % 4
                decays = tuple(sorted(rng.uniform(0.05, 6.0, n), reverse=True))
                if i % 16 == 15:
                    decays = decays[:-1] + (0.0,)
                rate = min(decays[:-1] if decays[-1] == 0.0 else decays) if kind == "F" else decays[0]
                case = i // 4 % 4
                if case == 0:  # clustered, near 0 or at 0.5 to 4
                    step = (1e-5, 5e-4, 1e-3)[i % 3]
                    start = (step, 1e-7, 0.5, 1.0, 2.0, 4.0)[i // 16 % 6]
                    zeros = start + step * np.arange(n - 1)
                elif case == 1:  # 5 to 60 e-foldings out
                    zeros = np.sort(rng.uniform(5.0, 60.0, n - 1)) / rate
                else:  # random, with a zero at 0 in case 3
                    zeros = np.sort(rng.uniform(0.0, 8.0, n - 1))
                    zeros[0] *= case == 2
                cases.append((kind, decays, [float(z) for z in zeros]))
        # Past 2^-1250 a value is truncated: a zero at 1e9 stays quick
        cases += [("F", (1.0, 0.0), [1e9]), ("G", (2.0, 1.0, 0.0), [3.0, 1e9])]
        for kind, decays, zeros in cases:
            minors = _minors_by_50_digit_elimination(kind, decays, zeros)
            scale = max(abs(m) for m in minors)
            if not scale:  # every minor below the float range, in both
                with pytest.raises(dc.NumericalInconsistencyError, match="vanished"):
                    interpolate_prescribed_zeros(ExpBasis(kind, decays), zeros)
                continue
            p = interpolate_prescribed_zeros(ExpBasis(kind, decays), zeros)
            assert p.coefficients == tuple(m / scale for m in minors), (kind, decays, zeros)

    def test_rejects_bad_zero_lists(self):
        basis = ExpBasis("F", (3.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            interpolate_prescribed_zeros(basis, [2.0, 1.0])
        with pytest.raises(ValueError):
            interpolate_prescribed_zeros(basis, [1.0])
        with pytest.raises(ValueError):
            interpolate_prescribed_zeros(basis, [-1.0, 2.0])


def _minors_by_50_digit_elimination(kind: str, decays, r) -> list[float]:
    """Signed minors from Gaussian elimination with partial pivoting on
    50-digit mpf values: the collocation rows closed by the row (-1)^i,
    solved for e_last, times the determinant and (-1)^(n-1)."""
    import mpmath as mp

    n = len(decays)
    with mp.workdps(50):
        rows = [[dc._mp_basis_value(kind, mp.mpf(a) * x) for a in decays] + [mp.mpf(0)]
                for x in map(mp.mpf, r)]
        rows.append([mp.mpf((-1) ** i) for i in range(n)] + [mp.mpf(1)])
        det = mp.mpf((-1) ** (n - 1))
        for k in range(n):
            pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det *= rows[k][k] if pivot == k else -rows[k][k]
            for i in range(k + 1, n):
                factor = rows[i][k] / rows[k][k]
                for j in range(k + 1, n + 1):
                    rows[i][j] -= factor * rows[k][j]
        y = [mp.mpf(0)] * n
        for k in reversed(range(n)):
            y[k] = (rows[k][n] - mp.fsum(rows[k][j] * y[j] for j in range(k + 1, n))) / rows[k][k]
        return [float(det * v) for v in y]


def cofactor0(basis: ExpBasis, r) -> float:
    cols = basis.decays[1:]
    mat = np.array([[math.exp(-a * x) for a in cols] for x in r])
    return float(np.linalg.det(mat))


class TestVandermonde:
    def test_pair(self):
        assert vandermonde([0.0, 1.0]) == pytest.approx(1.0)

    def test_triple_against_direct_determinant(self):
        gammas = [1.0, 2.0, 4.0]
        mat = np.array([[g**j for j in range(3)] for g in gammas])
        assert vandermonde(gammas) == pytest.approx(float(np.linalg.det(mat)), rel=1e-12)
        assert vandermonde(gammas) == pytest.approx(6.0)

    def test_repeat_gives_zero(self):
        assert vandermonde([2.0, 2.0, 3.0]) == 0.0


class TestWronskian:
    def test_single(self):
        assert wronskian_g_at_zero([1.5]) == pytest.approx(0.5)

    def test_pair_value(self):
        # rows ordered largest decay first: det [[1/2, -2/3], [1/2, -1/3]]
        assert wronskian_g_at_zero([1.0, 2.0]) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_strict_positivity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            alphas = np.sort(rng.uniform(0.05, 5.0, k))
            while np.any(np.diff(alphas) < 1e-3):
                alphas = np.sort(rng.uniform(0.05, 5.0, k))
            assert wronskian_g_at_zero(alphas) > 0

    def test_vandermonde_consistency(self):
        # Wronskian equals the Vandermonde in the negated decays times the
        # column scalings 1/(j+2).
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            alphas = np.sort(rng.uniform(0.1, 4.0, k))
            while np.any(np.diff(alphas) < 0.01):
                alphas = np.sort(rng.uniform(0.1, 4.0, k))
            scaling = math.prod(1.0 / (j + 2) for j in range(k))
            expected = vandermonde([-a for a in reversed(alphas)]) * scaling
            assert wronskian_g_at_zero(alphas) == pytest.approx(expected, rel=1e-10)


class TestCoefRatioLimit:
    def test_identity(self):
        basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        assert coef_ratio_limit(basis, 2, 2) == 1.0

    def test_adjacent_cross_ratio(self):
        # lam1=1, lam2=1.5: |a_cross / a_(2 lam1)| -> 2(2 - lam2/lam1) = 1
        basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        assert coef_ratio_limit(basis, 2, 3) == pytest.approx(-1.0)

    def test_matches_small_zero_oracle(self):
        # freeze: ratios of interpolation coefficients at shrinking zeros
        basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        s = 1e-4
        p = interpolate_prescribed_zeros(basis, [s, 2 * s, 3 * s])
        for i in range(1, 5):
            for j in range(1, 5):
                limit = coef_ratio_limit(basis, i, j)
                actual = p.coefficients[i - 1] / p.coefficients[j - 1]
                assert actual == pytest.approx(limit, rel=1e-3)

    def test_same_limits_for_integrated_kind(self):
        f_basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        g_basis = ExpBasis("G", (3.0, 2.5, 2.0, 1.5))
        s = 1e-4
        p = interpolate_prescribed_zeros(g_basis, [s, 2 * s, 3 * s])
        for i, j in ((2, 3), (2, 1), (1, 4)):
            limit = coef_ratio_limit(f_basis, i, j)
            assert coef_ratio_limit(g_basis, i, j) == limit
            actual = p.coefficients[i - 1] / p.coefficients[j - 1]
            assert actual == pytest.approx(limit, rel=1e-3)


class TestCoefInequality:
    def test_zero_cross_coefficient(self):
        basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        p = DPolynomial(basis, (1.0, 0.0, 1.0, -2.0))
        assert coef_inequality_value(p, 1.0, 1.5) == 0.0

    def test_domain_error_on_nonpositive_slots(self):
        basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        p = DPolynomial(basis, (-1.0, 0.5, 1.0, -2.0))
        with pytest.raises(ValueError):
            coef_inequality_value(p, 1.0, 1.5)

    def test_small_zero_limit_from_oracle(self):
        # The small-zero limit, computed independently from the clustered
        # interpolation coefficients themselves, is 2*sqrt(q*(2-q)) with
        # q = lam2/lam1; for lam = (1, 1.5) that is sqrt(3).
        basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
        values = []
        for s in (1e-2, 1e-3, 1e-4):
            p = interpolate_prescribed_zeros(basis, [s, 2 * s, 3 * s])
            values.append(coef_inequality_value(p, 1.0, 1.5))
        q = 1.5
        limit = 2.0 * math.sqrt(q * (2.0 - q))
        assert limit == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert values[-1] == pytest.approx(limit, rel=1e-3)
        # convergence is monotone toward the limit here
        assert abs(values[2] - limit) < abs(values[0] - limit)

    def test_below_two_near_origin_across_proximal_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            lam1 = rng.uniform(0.1, 1.5)
            lam2 = 2 * lam1 * (1.0 - rng.uniform(0.05, 0.45))
            basis = ExpBasis(
                "F", (2 * lam2, lam1 + lam2, 2 * lam1, lam2)
            )
            s = 1e-3 / lam1
            p = interpolate_prescribed_zeros(basis, [s, 2 * s, 3 * s])
            assert coef_inequality_value(p, lam1, lam2) < 2.0


class TestPerturbation:
    @pytest.mark.parametrize("kind", ["F", "G"])
    def test_delta_reuses_the_descent(self, monkeypatch, kind):
        # The radius reads its probes through the descent that located
        # the zeros rather than building a second one.
        built = []
        init = dc._Descent.__init__
        monkeypatch.setattr(dc._Descent, "__init__", lambda self, p: built.append(p) or init(self, p))
        p = interpolate_prescribed_zeros(ExpBasis(kind, (3.0, 2.0, 1.0)), [0.5, 2.0])
        assert perturbation_delta(p) > 0.0
        assert built == [p]

    def test_zero_eps_identity(self):
        p = interpolate_prescribed_zeros(ExpBasis("F", (3.0, 2.0, 1.0)), [0.5, 2.0])
        assert perturb_coefficients(p, 0.0).coefficients == p.coefficients

    def test_direction_rule(self):
        p = DPolynomial(
            ExpBasis("F", (5.0, 4.0, 3.0, 2.0, 1.0)), (2.0, 0.0, 0.0, -1.0, 0.0)
        )
        # zero block bordering the positive leading coefficient leans +1;
        # the trailing zero borders only a negative coefficient
        assert perturbation_directions(p) == (1, 1, 1, -1, -1)

    def test_sign_pattern_stable_for_any_eps(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            coeffs = rng.standard_normal(n)
            coeffs[rng.random(n) < 0.3] = 0.0
            if not coeffs.any():
                continue  # the stability claim presumes a non-vanishing sum
            decays = np.sort(rng.uniform(0.1, 4.0, n))[::-1]
            if np.any(np.diff(decays[::-1]) <= 0):
                continue
            p = DPolynomial(ExpBasis("F", tuple(decays)), tuple(coeffs))
            base = SignSeq(tuple(Sign.of(a) for a in p.coefficients))
            for eps in (0.0, 1e-6, 0.1, 10.0):
                pert = perturb_coefficients(p, eps)
                pert_seq = SignSeq(tuple(Sign.of(a) for a in pert.coefficients))
                assert ss.equivalent(base, pert_seq) or base.is_empty

    def test_sseq_stable_below_delta(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            lam1, lam2 = random_lam_pair(rng)
            basis = family_bases(lam1, lam2, "F")
            n = len(basis)
            zeros = np.sort(rng.uniform(0.3, 6.0, n - 1))
            while np.any(np.diff(zeros) < 0.2):
                zeros = np.sort(rng.uniform(0.3, 6.0, n - 1))
            p = interpolate_prescribed_zeros(basis, zeros)
            base_seq, _ = sseq_of_dpoly(p)
            delta = perturbation_delta(p)
            assert delta > 0
            for eps in (0.5 * delta, 0.99 * delta):
                seq, _ = sseq_of_dpoly(perturb_coefficients(p, eps))
                assert ss.equivalent(base_seq, seq)

    def test_delta_past_an_underflowing_last_zero(self):
        # Near-equal decays put the only zero at x ~ 1442, where every
        # exp(-d x) is 0.0; the probe past it must not read as a zero.
        basis = ExpBasis("F", (2.7530005151890404, 2.7527252977027676, 2.7524500802164944))
        p = DPolynomial(basis, (-1.3608400442063895, 0.1798306528388374, 0.4943659501689602))
        base_seq, zeros = sseq_of_dpoly(p)
        assert zeros == [pytest.approx(1442.0778, rel=1e-6)]
        delta = perturbation_delta(p)
        assert 0 < delta < math.inf
        for eps in (0.5 * delta, 0.99 * delta):
            assert ss.equivalent(base_seq, sseq_of_dpoly(perturb_coefficients(p, eps))[0])

    def test_delta_rejects_boundary_zero(self):
        p = DPolynomial(ExpBasis("F", (2.0, 1.0)), (1.0, -1.0))
        with pytest.raises(ValueError, match="probe point landed on a zero"):
            perturbation_delta(p)


class TestBasisValidation:
    def test_rejects_increasing_decays(self):
        with pytest.raises(ValueError):
            ExpBasis("F", (1.0, 2.0))

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError):
            ExpBasis("F", (1.0, -0.5))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ExpBasis("H", (1.0,))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            ExpBasis("F", (6.0, 5.0, 4.0, 3.0, 2.0, 1.0))

    @pytest.mark.parametrize("decays", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan)])
    def test_rejects_non_finite_decay(self, decays):
        with pytest.raises(ValueError, match="finite"):
            ExpBasis("F", decays)

    @pytest.mark.parametrize("coeffs", [(math.nan, 1.0), (math.inf, -1.0), (1.0, -math.inf)])
    def test_rejects_non_finite_coefficient(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            DPolynomial(ExpBasis("F", (2.0, 1.0)), coeffs)

    def test_rejects_decay_below_min(self):
        with pytest.raises(ValueError, match="at least"):
            ExpBasis("G", (1.0, 1e-160))

    @pytest.mark.parametrize("decays", [(None,), ([1.0],), 5, "21"])
    def test_rejects_non_numeric_decays(self, decays):
        with pytest.raises(ValueError, match="decay rates must be a list of numbers"):
            ExpBasis("F", decays)

    def test_rejects_non_numeric_coefficient(self):
        with pytest.raises(ValueError, match="coefficients must be a list of numbers"):
            DPolynomial(ExpBasis("F", (2.0, 1.0)), (1.0, None))

    @pytest.mark.parametrize("zeros", [(math.nan,), (math.inf,), (-math.inf,)])
    def test_interpolation_rejects_non_finite_zeros(self, zeros):
        with pytest.raises(ValueError, match="prescribed zeros must be finite"):
            interpolate_prescribed_zeros(ExpBasis("F", (2.0, 1.0)), zeros)
