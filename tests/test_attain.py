from __future__ import annotations

import dataclasses
import math

import pytest

from termshapes import attain as at
from termshapes import classify as cl
from termshapes import signseq as ss
from termshapes.attain import (
    InadmissibleShapeError,
    RhoOutOfRangeError,
    ShapeTarget,
    TargetCoefficients,
    construct,
    construct_target,
    solve_key_system,
    verify_solution,
)
from termshapes.descartes import (DPolynomial, ExpBasis, perturb_coefficients,
                                  perturbation_delta)
from termshapes.signseq import shape_from_label
from termshapes.vasicek import ScaleRegime, VasicekModel

ALL_SHAPES = ("normal", "inverse", "humped", "dipped", "HD", "DH", "HDH", "DHD", "HDHD")
SEVEN = ("normal", "inverse", "humped", "dipped", "HD", "DH", "HDH")
#: Every admissible (regime, shape) pair's route, written out from the
#: proof cases: (proof case, first prescribed zero at 0, sign of the
#: fastest coefficient, tiny negative pad on the slowest slot lam1).
ROUTES = [
    ("separated", "normal", "i", False, 1, False),
    ("separated", "inverse", "i", False, -1, False),
    ("separated", "humped", "ii", False, 1, False),
    ("separated", "dipped", "ii", False, -1, False),
    ("separated", "HD", "iii", False, 1, False),
    ("separated", "DH", "iv", False, -1, False),
    ("separated", "HDH", "v", False, 1, False),
    ("critical", "normal", "i", False, 1, False),
    ("critical", "inverse", "i", False, -1, False),
    ("critical", "humped", "ii", False, 1, False),
    ("critical", "dipped", "ii", False, -1, False),
    ("critical", "HD", "iii", False, 1, False),
    ("critical", "DH", "vi", True, 1, False),
    ("critical", "HDH", "vi", False, 1, False),
    ("proximal", "normal", "i", False, 1, False),
    ("proximal", "inverse", "i", False, -1, False),
    ("proximal", "humped", "ii", False, 1, False),
    ("proximal", "dipped", "ii", False, -1, False),
    ("proximal", "HD", "iii", False, 1, False),
    ("proximal", "DH", "vi", True, 1, True),
    ("proximal", "HDH", "vi", False, 1, True),
    ("proximal", "DHD", "vii", True, 1, False),
    ("proximal", "HDHD", "vii", False, 1, False),
]


def coeffs(**kwargs) -> TargetCoefficients:
    base = dict(a_2l2=0.0, a_cross=0.0, a_l2=0.0, a_2l1=0.0, a_l1=0.0)
    base.update(kwargs)
    return TargetCoefficients(**base)


class TestSolveKeySystem:
    def test_single_slow_slot(self, separated_base):
        base = dataclasses.replace(
            separated_base, lam=(1.0, 3.0), kappa=(1.0, 1.0), theta=(0.0, 0.0)
        )
        sol = solve_key_system(coeffs(a_l1=1.0), base)
        assert sol is not None
        assert (sol.sigma1, sol.sigma2, sol.rho) == (0.0, 0.0, 0.0)
        assert sol.z2 == pytest.approx(0.0)
        assert sol.z1 == pytest.approx(-1.0)

    def test_negative_variance_slot_unsolvable(self, separated_base):
        assert solve_key_system(coeffs(a_2l1=-0.1, a_l1=1.0), separated_base) is None
        assert solve_key_system(coeffs(a_2l2=-0.3), separated_base) is None

    def test_zero_cross_with_both_variances(self, separated_base):
        base = dataclasses.replace(separated_base, kappa=(1.0, 1.0))
        sol = solve_key_system(coeffs(a_2l1=1.0, a_2l2=1.0), base)
        assert sol.rho == 0.0
        assert sol.sigma1 == pytest.approx(math.sqrt(base.lam[0]))
        assert sol.sigma2 == pytest.approx(math.sqrt(base.lam[1]))

    def test_cross_needs_both_volatilities(self, separated_base):
        assert solve_key_system(coeffs(a_2l2=1.0, a_cross=0.5), separated_base) is None

    def test_rho_out_of_range(self, separated_base):
        with pytest.raises(RhoOutOfRangeError) as err:
            solve_key_system(coeffs(a_2l1=0.01, a_2l2=0.01, a_cross=5.0), separated_base)
        assert abs(err.value.rho) > 1

    def test_resubstitution_residuals(self, separated_base):
        tc = coeffs(a_2l1=0.4, a_2l2=0.9, a_cross=-0.2, a_l1=0.3, a_l2=-0.7)
        sol = solve_key_system(tc, separated_base)
        probe = dataclasses.replace(sol, coefficients=tc)
        assert at.residuals(probe) < 1e-10


class TestShapeTarget:
    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            ShapeTarget(shape=ss.FLAT)

    def test_rejects_other(self):
        with pytest.raises(ValueError):
            ShapeTarget(shape=ss.ShapeName.other(5, ss.Sign.PLUS))

    def test_extrema_count_must_match(self):
        with pytest.raises(ValueError):
            ShapeTarget(shape=ss.HD, extrema=(1.0,))

    def test_extrema_must_increase(self):
        with pytest.raises(ValueError):
            ShapeTarget(shape=ss.HD, extrema=(2.0, 1.0))

    def test_extrema_must_be_positive(self):
        with pytest.raises(ValueError):
            ShapeTarget(shape=ss.HUMPED, extrema=(0.0,))


class TestConstruct:
    def test_normal_closed_form(self, separated_base):
        sol, ver = construct_target("normal", separated_base)
        assert sol.proof_case == "i"
        assert (sol.sigma1, sol.sigma2, sol.rho) == (0.0, 0.0, 0.0)
        expected_z1 = separated_base.theta[0] - 1.0 / (
            separated_base.kappa[0] * separated_base.lam[0]
        )
        assert sol.z1 == pytest.approx(expected_z1)
        assert ver.passed and ver.classified_shape == ss.NORMAL

    def test_inadmissible_shape_rejected(self, separated_base):
        with pytest.raises(InadmissibleShapeError) as err:
            construct(ShapeTarget(shape=ss.HDHD), separated_base)
        assert "HDH" in err.value.admissible
        assert "HDHD" not in err.value.admissible

    def test_one_factor_base_rejected(self):
        m = VasicekModel(lam=(1.0,), theta=(0.0,), kappa=(1.0,), kappa0=0.0, sigma=(0.1,))
        with pytest.raises(ValueError):
            construct(ShapeTarget(shape=ss.NORMAL), m)

    @pytest.mark.parametrize("label", SEVEN)
    @pytest.mark.parametrize("curve", ("forward", "yield"))
    def test_separated_round_trips(self, separated_base, label, curve):
        sol, ver = construct_target(label, separated_base, curve=curve)
        assert ver.passed, ver.messages
        assert sol.rho == 0.0

    @pytest.mark.parametrize("label", SEVEN)
    def test_critical_round_trips(self, critical_base, label):
        sol, ver = construct_target(label, critical_base)
        assert ver.passed, ver.messages
        if label in ("DH", "HDH"):
            assert sol.proof_case == "vi"
            assert sol.rho == pytest.approx(-0.5)
        else:
            assert sol.rho == 0.0

    @pytest.mark.parametrize("label", ALL_SHAPES)
    def test_proximal_round_trips(self, proximal_base, label):
        sol, ver = construct_target(label, proximal_base)
        assert ver.passed, ver.messages
        if label in ("DH", "HDH", "DHD", "HDHD"):
            assert -1.0 < sol.rho < 0.0
        else:
            assert sol.rho == 0.0

    @pytest.mark.parametrize("reg,label,case,at_zero,lead,pad", ROUTES)
    def test_route(self, request, reg, label, case, at_zero, lead, pad):
        base = request.getfixturevalue(f"{reg}_base")
        sol, ver = construct_target(label, base)
        assert ver.passed, ver.messages
        assert sol.proof_case == case
        assert (sol.prescribed_zeros[:1] == (0.0,)) == at_zero
        c = sol.dpoly.coefficients
        assert math.copysign(1.0, c[0]) == lead
        padded = (sol.dpoly.basis.decays[-1] == base.lam[0]
                  and -1e-9 * max(map(abs, c)) <= c[-1] < 0.0)
        assert padded == pad

    def test_rho_zero_route_preferred_for_hd(self, proximal_base):
        sol, _ = construct_target("HD", proximal_base)
        assert sol.proof_case == "iii"
        assert sol.rho == 0.0 and sol.sigma1 == 0.0

    def test_prescribed_extrema_recovered(self, separated_base):
        sol, ver = construct_target("HD", separated_base, extrema=(1.0, 2.0))
        assert ver.passed, ver.messages
        assert max(ver.extrema_rel_errors) < 1e-6

    def test_prescribed_extrema_yield_curve(self, separated_base):
        sol, ver = construct_target(
            "HDH", separated_base, curve="yield", extrema=(0.8, 2.2, 5.0)
        )
        assert ver.passed, ver.messages
        assert max(ver.extrema_rel_errors) < 1e-6

    def test_extrema_refused_without_location_control(self, proximal_base, critical_base):
        with pytest.raises(ValueError, match="extrema"):
            construct(ShapeTarget(shape=ss.HDH, extrema=(1.0, 2.0, 3.0)), proximal_base)
        with pytest.raises(ValueError, match="extrema"):
            construct(ShapeTarget(shape=ss.DH, extrema=(1.0, 2.0)), critical_base)

    def test_coefficient_inequality_enforced_on_negative_rho_routes(self, proximal_base):
        sol, _ = construct_target("HDHD", proximal_base)
        value = at.coef_inequality_value(
            sol.dpoly, proximal_base.lam[0], proximal_base.lam[1]
        )
        assert value < 2.0
        assert abs(sol.rho) < 1.0

    def test_slowest_slot_pad_refuses_a_probe_on_a_zero(self):
        # x = 0 is a probe of the stretch before the first zero, and this
        # padded difference vanishes there exactly
        p = DPolynomial(ExpBasis("F", (2.0, 1.5, 1.0)), (1.0, -1.0, 0.0))
        with pytest.raises(at.NumericalInfeasibilityError, match="too collapsed"):
            at._slowest_slot_epsilon(p, ())

    def test_solution_serializes(self, proximal_base):
        sol, ver = construct_target("DHD", proximal_base)
        doc = sol.to_dict()
        assert doc["proof_case"] == "vii"
        assert doc["rho"] == sol.rho
        rebuilt = VasicekModel.from_dict(doc)
        assert rebuilt == sol.model


class TestVerifySolution:
    def test_tampered_rho_detected(self, proximal_base):
        target = ShapeTarget(shape=shape_from_label("HDHD"))
        sol = construct(target, proximal_base)
        tampered = dataclasses.replace(
            sol, rho=-sol.rho, model=dataclasses.replace(sol.model, rho=-sol.rho)
        )
        ver = verify_solution(tampered, target)
        assert not ver.passed
        assert not ver.shape_matched or ver.max_residual > 1e-10

    @pytest.mark.parametrize("curve", ["forward", "yield"])
    def test_extrema_closer_than_the_window_spacing(self, separated_base, curve):
        # 1e-5 apart, far inside one spacing of any practical grid: the
        # Rolle descent brackets both zeros between the level-1 zeros.
        _, ver = construct_target("HD", separated_base, curve=curve, extrema=(1.0, 1.00001))
        assert ver.passed, ver.messages

    def test_residuals_small_for_genuine_solutions(self, separated_base, proximal_base):
        for base in (separated_base, proximal_base):
            for label in ("humped", "HD"):
                sol, ver = construct_target(label, base)
                assert ver.max_residual < 1e-10

    def test_perturbed_solution_keeps_shape(self, separated_base):
        # nudge the realising polynomial by less than its stability radius,
        # re-solve, and confirm the classifier still sees the same shape
        for label in ("humped", "HD", "HDH"):
            target = ShapeTarget(shape=shape_from_label(label))
            sol = construct(target, separated_base)
            delta = perturbation_delta(sol.dpoly)
            perturbed = perturb_coefficients(sol.dpoly, 0.5 * delta)
            case, tags = at._ROUTES.get((label, ScaleRegime.SEPARATED)) or at._ROUTES[label]
            assert case == sol.proof_case
            tc = at._pad(tags, perturbed.coefficients, *separated_base.lam)
            resolved = solve_key_system(tc, separated_base)
            assert resolved is not None
            report = cl.classify_forward(resolved.model, resolved.state)
            assert report.shape == shape_from_label(label)
