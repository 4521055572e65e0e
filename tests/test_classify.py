from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import draw_models
from lemmas import tail_subsequence
from termshapes import classify as cl
from termshapes import signseq as ss
from termshapes.signseq import SignSeq
from termshapes.vasicek import ScaleRegime, VasicekModel, coefficient_parts, regime


def one_factor(sigma=0.5, theta=0.02, lam=1.0, kappa=1.0) -> VasicekModel:
    return VasicekModel(lam=(lam,), theta=(theta,), kappa=(kappa,),
                        kappa0=0.01, sigma=(sigma,))


def with_w_targets(lam, sigma, rho, w1, w2, kappa=(1.0, 1.0)) -> tuple[VasicekModel, tuple]:
    """Model and state hitting prescribed state-dependent coefficients."""
    model = VasicekModel(lam=lam, theta=(0.0, 0.0), kappa=kappa, kappa0=0.0,
                         sigma=sigma, rho=rho)
    u, _, _ = coefficient_parts(model, (0.0, 0.0))
    mixed = rho * sigma[0] * sigma[1] * kappa[0] * kappa[1] / (lam[0] * lam[1])
    z = tuple(
        model.theta[j] - (w + u[j] + lam[j] * mixed) / (kappa[j] * lam[j])
        for j, w in enumerate((w1, w2))
    )
    got = coefficient_parts(model, z)[2]
    assert got == pytest.approx((w1, w2), abs=1e-12)
    return model, z


class TestOneDimRegions:
    def test_printed_thresholds(self):
        fwd, yld = cl.one_dim_regions(one_factor())
        assert fwd == pytest.approx((-0.23, 0.02))
        assert yld == pytest.approx((-0.1675, 0.02))

    def test_zero_volatility_collapses(self):
        fwd, yld = cl.one_dim_regions(one_factor(sigma=0.0))
        assert fwd == (0.02, 0.02)
        assert yld == (0.02, 0.02)

    def test_two_factor_rejected(self):
        m = VasicekModel(lam=(1.0, 2.0), theta=(0.0, 0.0), kappa=(1.0, 1.0),
                         kappa0=0.0, sigma=(0.1, 0.1), rho=0.0)
        with pytest.raises(ValueError):
            cl.one_dim_regions(m)

    def test_classifier_matches_regions_on_grid(self):
        model = one_factor()
        (f_lo, f_hi), (y_lo, y_hi) = cl.one_dim_regions(model)
        for z in np.linspace(-0.5, 0.3, 160):
            fwd = cl.classify_forward(model, (z,)).shape
            yld = cl.classify_yield(model, (z,)).shape
            margin = 1e-9
            if z < f_lo - margin:
                assert fwd == ss.NORMAL
            elif f_lo + margin < z < f_hi - margin:
                assert fwd == ss.HUMPED
            elif z > f_hi + margin:
                assert fwd == ss.INVERSE
            if z < y_lo - margin:
                assert yld == ss.NORMAL
            elif y_lo + margin < z < y_hi - margin:
                assert yld == ss.HUMPED
            elif z > y_hi + margin:
                assert yld == ss.INVERSE


class TestClassify:
    def test_one_factor_above_mean_is_inverse(self):
        model = one_factor()
        for z in (0.02, 0.05, 0.2):
            assert cl.classify_forward(model, (z,)).shape == ss.INVERSE

    def test_flat_short_circuit(self):
        model = one_factor(sigma=0.0)
        report = cl.classify_forward(model, (model.theta[0],))
        assert report.shape == ss.FLAT
        assert report.derivative_sseq.is_empty
        assert report.extrema == ()

    def test_extrema_kinds_alternate_and_match_transitions(self):
        for model, z in draw_models(150, seed=77):
            report = cl.classify_forward(model, z)
            assert len(report.extrema) == max(0, len(report.derivative_sseq) - 1)
            for e, (a, b) in zip(
                report.extrema,
                zip(report.derivative_sseq.signs, report.derivative_sseq.signs[1:]),
            ):
                expected = "hump" if (a is ss.Sign.PLUS) else "dip"
                assert e.kind == expected
            kinds = [e.kind for e in report.extrema]
            assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))

    def test_boundary_flagging(self):
        model, z = with_w_targets((1.0, 3.0), (0.3, 0.4), 0.0, w1=0.0, w2=-0.2)
        report = cl.classify_forward(model, z)
        # slot layout (u2, c, w2, u1, w1): the vanishing w1 sits last
        assert 4 in report.diagnostics["boundary_coefficient_slots"]

    def test_report_serializes(self):
        report = cl.classify_forward(one_factor(), (0.0,))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["shape"] == "humped"
        assert payload["curve"] == "forward"
        assert len(payload["extrema"]) == 1


class TestAdmissibleSets:
    def test_separated_and_critical_seven(self):
        for reg in (ScaleRegime.SEPARATED, ScaleRegime.CRITICAL):
            for rc in ("nonnegative", "negative"):
                got = cl.admissible_shapes(reg, rc)
                assert got.shapes == {
                    ss.FLAT, ss.NORMAL, ss.INVERSE, ss.HUMPED, ss.DIPPED,
                    ss.HD, ss.DH, ss.HDH,
                }

    def test_proximal_nonnegative_five(self):
        got = cl.admissible_shapes(ScaleRegime.PROXIMAL, "nonnegative")
        assert got.shapes == {
            ss.FLAT, ss.NORMAL, ss.INVERSE, ss.HUMPED, ss.DIPPED, ss.HD,
        }

    def test_proximal_negative_nine(self):
        got = cl.admissible_shapes(ScaleRegime.PROXIMAL, "negative")
        assert got.shapes == {
            ss.FLAT, ss.NORMAL, ss.INVERSE, ss.HUMPED, ss.DIPPED,
            ss.HD, ss.DH, ss.HDH, ss.DHD, ss.HDHD,
        }

    def test_membership_and_labels(self):
        got = cl.admissible_shapes(ScaleRegime.PROXIMAL, "nonnegative")
        assert ss.HD in got
        assert ss.HDHD not in got
        assert "humped" in got.labels()


class TestSignBound:
    def test_proximal_nonneg_mixed_signs(self):
        model, z = with_w_targets((1.0, 1.5), (0.3, 0.4), 0.2, w1=0.5, w2=-0.3)
        assert cl.sign_bound(model, z) == SignSeq.parse("+-+")

    def test_proximal_nonneg_both_negative(self):
        model, z = with_w_targets((1.0, 1.5), (0.3, 0.4), 0.2, w1=-0.5, w2=-0.3)
        assert cl.sign_bound(model, z) == SignSeq.parse("+-")

    def test_separated_negative_rho_both_positive(self):
        model, z = with_w_targets((1.0, 3.0), (0.3, 0.4), -0.4, w1=0.5, w2=0.3)
        assert cl.sign_bound(model, z) == SignSeq.parse("+-+")

    def test_one_factor_rejected(self):
        with pytest.raises(ValueError):
            cl.sign_bound(one_factor(), (0.0,))

    def test_bound_laws_on_random_instances(self):
        for model, z in draw_models(400, seed=101):
            fwd = cl.classify_forward(model, z)
            yld = cl.classify_yield(model, z)
            bound = cl.sign_bound(model, z)
            assert ss.subsequence(yld.derivative_sseq, bound)
            assert tail_subsequence(fwd.derivative_sseq, bound)


class TestTheoremLaws:
    def test_shapes_admissible_on_random_instances(self):
        for model, z in draw_models(400, seed=211):
            adm = cl.admissible_shapes(regime(model), cl.rho_class_of(model))
            assert cl.classify_forward(model, z).shape in adm
            assert cl.classify_yield(model, z).shape in adm

    def test_head_subsequence_law(self):
        for model, z in draw_models(400, seed=223):
            fwd = cl.classify_forward(model, z)
            yld = cl.classify_yield(model, z)
            assert ss.head_subsequence(yld.derivative_sseq, fwd.derivative_sseq)
