"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them), checks its numeric assertion at the stated tolerance, and
enforces its runtime budget.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import draw_models
from lemmas import det_system, l_eval_direct
from termshapes import classify as cl
from termshapes import signseq as ss
from termshapes import verify as vf
from termshapes.attain import ShapeTarget, construct, construct_target, verify_solution
from termshapes.descartes import (
    DPolynomial,
    ExpBasis,
    coef_inequality_value,
    eval_basis_fn,
    eval_dpoly,
    interpolate_prescribed_zeros,
    sseq_of_dpoly,
)
from termshapes.signseq import Sign, SignSeq, shape_from_label
from termshapes.vasicek import (
    ScaleRegime,
    VasicekModel,
    m_coefficients,
)


class Criterion:
    """Timer plus the one-line PASS/FAIL report."""

    def __init__(self, number: int, title: str, budget_seconds: float):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok: bool, detail: str) -> tuple[bool, float]:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number} ({self.title}): {status} — {detail} "
            f"[{elapsed:.2f}s of {self.budget:.0f}s budget]"
        )
        return ok, elapsed

    def conclude(self, ok: bool, detail: str) -> None:
        ok, elapsed = self.finish(ok, detail)
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, (
            f"criterion {self.number} overran its budget: {elapsed:.2f}s"
        )


def bisect_shape_transition(classify_fn, model, lo, hi, left_label, tol=1e-9):
    """Locate where the classified shape stops being ``left_label``."""
    assert str(classify_fn(model, (lo,)).shape) == left_label
    assert str(classify_fn(model, (hi,)).shape) != left_label
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if str(classify_fn(model, (mid,)).shape) == left_label:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_one_factor_regions():
    crit = Criterion(1, "one-factor region thresholds", 1.0)
    model = VasicekModel(
        lam=(1.0,), theta=(0.02,), kappa=(1.0,), kappa0=0.01, sigma=(0.5,)
    )
    found = {
        "fwd_lo": bisect_shape_transition(
            cl.classify_forward, model, -0.5, -0.1, "normal"
        ),
        "fwd_hi": bisect_shape_transition(
            cl.classify_forward, model, -0.1, 0.1, "humped"
        ),
        "yld_lo": bisect_shape_transition(
            cl.classify_yield, model, -0.5, -0.1, "normal"
        ),
        "yld_hi": bisect_shape_transition(
            cl.classify_yield, model, -0.1, 0.1, "humped"
        ),
    }
    expected = {"fwd_lo": -0.23, "fwd_hi": 0.02, "yld_lo": -0.1675, "yld_hi": 0.02}
    errors = {k: abs(found[k] - expected[k]) for k in expected}
    ok = all(e <= 1e-6 for e in errors.values())
    crit.conclude(
        ok,
        "transitions at "
        + ", ".join(f"{k}={found[k]:.7f} (err {errors[k]:.1e})" for k in sorted(found)),
    )


def test_criterion_2_yield_derivative_halves_at_origin():
    crit = Criterion(2, "m(0) = l(0)/2", 1.0)
    worst = 0.0
    for model, z in draw_models(1000, seed=2_002):
        poly = m_coefficients(model, z)
        m0 = eval_dpoly(poly, 0.0) if not poly.is_zero else 0.0
        l0 = l_eval_direct(model, z, 0.0)
        worst = max(worst, abs(m0 - 0.5 * l0) / max(1.0, abs(l0)))
    crit.conclude(worst <= 1e-10, f"worst mixed error {worst:.2e} over 1000 instances")


def test_criterion_3_head_subsequence_law():
    crit = Criterion(3, "yield heads forward", 30.0)
    failures = 0
    total = 0
    for k, (regime, rho_class) in enumerate(
        [
            (ScaleRegime.SEPARATED, "nonnegative"),
            (ScaleRegime.SEPARATED, "negative"),
            (ScaleRegime.PROXIMAL, "nonnegative"),
            (ScaleRegime.PROXIMAL, "negative"),
            (ScaleRegime.CRITICAL, "any"),
        ]
    ):
        cfg = vf.SweepConfig(
            regime=regime, rho_class=rho_class, n_samples=2000, seed=3_000 + k
        )
        inst = vf.sample_instances(cfg, np.random.default_rng(cfg.seed), 2000)
        decays, coeffs = vf._slot_arrays(inst, regime)
        scans = vf._scan_curves(decays, coeffs)
        f_first, f_changes = scans["forward"]
        y_first, y_changes = scans["yield"]
        for i in range(2000):
            total += 1
            l_seq = (
                SignSeq.pure(Sign(int(f_first[i])), int(f_changes[i]))
                if f_first[i]
                else ss.EMPTY_PURE
            )
            m_seq = (
                SignSeq.pure(Sign(int(y_first[i])), int(y_changes[i]))
                if y_first[i]
                else ss.EMPTY_PURE
            )
            if not ss.head_subsequence(m_seq, l_seq):
                model, z = vf.instance_model(inst, i)
                fwd = cl.classify_forward(model, z)
                yld = cl.classify_yield(model, z)
                if not ss.head_subsequence(
                    yld.derivative_sseq, fwd.derivative_sseq
                ):
                    failures += 1
    crit.conclude(failures == 0, f"{failures} failures over {total} instances")


def test_criterion_4_theorem_sweeps():
    crit = Criterion(4, "classification theorem sweeps", 180.0)
    sweeps = [
        (ScaleRegime.SEPARATED, "nonnegative", 41),
        (ScaleRegime.SEPARATED, "negative", 42),
        (ScaleRegime.PROXIMAL, "nonnegative", 43),
        (ScaleRegime.PROXIMAL, "negative", 44),
        (ScaleRegime.CRITICAL, "any", 45),
    ]
    details = []
    violations = 0
    for regime, rho_class, seed in sweeps:
        report = vf.sweep_theorem(
            vf.SweepConfig(
                regime=regime, rho_class=rho_class, n_samples=100_000, seed=seed
            )
        )
        violations += len(report.violations) + len(report.head_failures)
        details.append(
            f"{regime}/{rho_class}: {len(report.violations)}+{len(report.head_failures)}"
        )
    crit.conclude(
        violations == 0,
        f"violations per sweep (membership+head): {'; '.join(details)}",
    )


def test_criterion_5_constructive_round_trip(
    separated_base, proximal_base, critical_base
):
    crit = Criterion(5, "constructive round trips", 30.0)
    problems: list[str] = []

    catalog = [
        (separated_base, ("normal", "inverse", "humped", "dipped", "HD", "DH", "HDH")),
        (critical_base, ("normal", "inverse", "humped", "dipped", "HD", "DH", "HDH")),
        (
            proximal_base,
            ("normal", "inverse", "humped", "dipped", "HD", "DH", "HDH", "DHD", "HDHD"),
        ),
    ]
    for base, labels in catalog:
        for label in labels:
            for curve in ("forward", "yield"):
                sol, ver = construct_target(label, base, curve=curve)
                if not ver.shape_matched or ver.max_residual > 1e-10:
                    problems.append(f"{label}/{curve}: {ver.messages}")

    # 100 random extrema prescriptions across the location-controlled routes
    rng = np.random.default_rng(5_005)
    combos = [
        (base, label)
        for base in (separated_base, critical_base, proximal_base)
        for label in ("humped", "dipped", "HD")
    ] + [(separated_base, "DH"), (separated_base, "HDH")]
    worst_extremum = 0.0
    for trial in range(100):
        base, label = combos[trial % len(combos)]
        k = shape_from_label(label).changes
        r = np.sort(rng.uniform(0.3, 8.0, k))
        while np.any(np.diff(r) < 0.3):
            r = np.sort(rng.uniform(0.3, 8.0, k))
        curve = "forward" if trial % 2 == 0 else "yield"
        sol, ver = construct_target(label, base, curve=curve, extrema=tuple(r))
        if not ver.passed:
            problems.append(f"extrema {label}/{curve} at {r}: {ver.messages}")
        if ver.extrema_rel_errors:
            worst_extremum = max(worst_extremum, max(ver.extrema_rel_errors))
    ok = not problems and worst_extremum <= 1e-6
    crit.conclude(
        ok,
        f"{len(problems)} failures; worst extremum error {worst_extremum:.2e} "
        f"over 100 prescriptions" + (f"; first: {problems[0]}" if problems else ""),
    )


def test_criterion_6_coefficient_inequality_limit():
    """The inequality value at zero scale 1e-4 for lam = (1, 1.5) equals
    its small-zero limit 2*sqrt(q*(2-q)), q = lam2/lam1, within 1e-3.

    As the three prescribed zeros shrink to the origin the interpolant
    acquires a triple zero there: sum_i a_i d_i^k = 0 for k = 0, 1, 2.
    The coefficients therefore tend to multiples of the divided-difference
    weights w_i = 1 / prod_{j != i} (d_i - d_j).  With decays
    (2q, 1+q, 2, q) in units of lam1 this gives
    |w_(1+q)| / sqrt(w_(2q) * w_2) = 2*sqrt(q*(2-q)), sqrt(3) here.  The
    expected value is computed from the decays alone, both through those
    weights and through the closed form.
    """
    crit = Criterion(6, "coefficient inequality limit", 1.0)
    lam1, lam2 = 1.0, 1.5
    basis = ExpBasis("F", (3.0, 2.5, 2.0, 1.5))
    s = 1e-4
    poly = interpolate_prescribed_zeros(basis, [s, 2 * s, 3 * s])
    value = coef_inequality_value(poly, lam1, lam2)

    def weight(d):
        return 1.0 / math.prod(d - e for e in basis.decays if e != d)

    from_weights = abs(weight(lam1 + lam2)) / math.sqrt(
        weight(2 * lam1) * weight(2 * lam2)
    )
    q = lam2 / lam1
    limit = 2.0 * math.sqrt(q * (2.0 - q))
    ok = abs(from_weights - limit) <= 1e-12 and abs(value - limit) <= 1e-3
    crit.conclude(
        ok,
        f"measured {value:.7f}, limit 2*sqrt(q(2-q))={limit:.7f} "
        f"(divided-difference weights {from_weights:.7f})",
    )


def test_criterion_7_positivity_and_variation_diminishing():
    crit = Criterion(7, "Descartes positivity + variation diminishing", 30.0)
    rng = np.random.default_rng(7_007)

    def lam_pair():
        lam1 = rng.uniform(0.1, 1.5)
        branch = rng.integers(3)
        if branch == 0:
            return lam1, 2 * lam1 * rng.uniform(1.25, 2.0)
        if branch == 1:
            return lam1, 2 * lam1 * rng.uniform(0.6, 0.8)
        return lam1, 2 * lam1

    def family(lam1, lam2, kind):
        if 2 * lam1 < lam2:
            decays = (2 * lam2, lam1 + lam2, lam2, 2 * lam1, lam1)
        elif 2 * lam1 > lam2:
            decays = (2 * lam2, lam1 + lam2, 2 * lam1, lam2, lam1)
        else:
            decays = (2 * lam2, lam1 + lam2, lam2, lam1)
        return ExpBasis(kind, decays)

    det_failures = 0
    for _ in range(1000):
        lam1, lam2 = lam_pair()
        kind = "F" if rng.random() < 0.5 else "G"
        basis = family(lam1, lam2, kind)
        m = int(rng.integers(1, len(basis) + 1))
        keep = sorted(rng.choice(len(basis), size=m, replace=False))
        sub = ExpBasis(kind, tuple(basis.decays[i] for i in keep))
        xs = 0.05 + np.cumsum(rng.uniform(0.3, 1.2, m)) / lam2
        mat = np.array([[eval_basis_fn(kind, a, x) for a in sub.decays] for x in xs])
        scale = float(np.prod(np.max(np.abs(mat), axis=0)))
        det = det_system(sub, xs)
        if not (det > 0 and det > -1e-12 * scale):
            det_failures += 1

    vd_failures = 0
    for _ in range(10_000):
        lam1, lam2 = lam_pair()
        kind = "F" if rng.random() < 0.5 else "G"
        basis = family(lam1, lam2, kind)
        coeffs = tuple(rng.standard_normal(len(basis)))
        poly = DPolynomial(basis, coeffs)
        seq, _ = sseq_of_dpoly(poly)
        coef_seq = SignSeq(tuple(Sign.of(a) for a in coeffs))
        if not ss.subsequence(seq, coef_seq):
            vd_failures += 1

    crit.conclude(
        det_failures == 0 and vd_failures == 0,
        f"{det_failures}/1000 determinant failures, "
        f"{vd_failures}/10000 variation-diminishing failures",
    )


def test_criterion_8_perturbation_stability():
    crit = Criterion(8, "perturbation stability", 10.0)
    report = vf.perturbation_stability_check(n_cases=1000, seed=8_008)
    crit.conclude(
        report.passed and report.equivalent_at_099_delta == 1000,
        f"{report.equivalent_at_099_delta}/1000 stable at 0.99 delta "
        f"({report.equivalent_at_100x_delta} still stable at 100x delta)",
    )


def test_criterion_9_strict_attainability(separated_base):
    crit = Criterion(9, "strict attainability frequencies", 60.0)
    freqs = {}
    for label in ("normal", "inverse", "humped", "dipped", "HD", "DH", "HDH"):
        target = ShapeTarget(shape=shape_from_label(label))
        sol = construct(target, separated_base)
        freqs[label] = vf.strict_attainability_mc(
            sol.model,
            sol.state,
            t=0.01,
            n_paths=100_000,
            shape=target.shape,
            seed=9_009,
        )
    ok = all(f > 0 for f in freqs.values())
    crit.conclude(
        ok, "frequencies " + ", ".join(f"{k}={v:.4f}" for k, v in freqs.items())
    )
