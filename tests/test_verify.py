from __future__ import annotations

import json
import math

import numpy as np
import pytest

from termshapes import classify as cl
from termshapes import signseq as ss
from termshapes import vasicek as vk
from termshapes import verify as vf
from termshapes.attain import construct_target
from termshapes.descartes import F_KIND, G_KIND
from termshapes.signseq import NAMED_SHAPES, SignSeq
from termshapes.vasicek import ScaleRegime, VasicekModel
from termshapes.verify import (
    SweepConfig,
    decode_shape,
    shape_code,
    state_space_map,
    strict_attainability_mc,
    sweep_theorem,
)

REGIME_CLASSES = [
    (ScaleRegime.SEPARATED, "nonnegative"),
    (ScaleRegime.SEPARATED, "negative"),
    (ScaleRegime.PROXIMAL, "nonnegative"),
    (ScaleRegime.PROXIMAL, "negative"),
    (ScaleRegime.CRITICAL, "any"),
]


class TestShapeCodes:
    def test_roundtrip_named(self):
        for shape in NAMED_SHAPES:
            assert decode_shape(shape_code(shape)) == shape

    def test_roundtrip_other(self):
        for shape in (
            ss.ShapeName.other(4, ss.Sign.MINUS),
            ss.ShapeName.other(6, ss.Sign.PLUS),
        ):
            assert decode_shape(shape_code(shape)) == shape


class TestSweep:
    @pytest.mark.parametrize("regime,rho_class", REGIME_CLASSES)
    def test_no_violations(self, regime, rho_class):
        cfg = SweepConfig(regime=regime, rho_class=rho_class, n_samples=4000, seed=99)
        report = sweep_theorem(cfg)
        assert report.passed
        assert report.samples == 4000
        admissible = cl.admissible_shapes(
            regime, "negative" if rho_class == "negative" else "nonnegative"
        )
        allowed = {str(s) for s in admissible.shapes}
        assert set(report.forward_histogram) <= allowed
        assert set(report.yield_histogram) <= allowed
        assert sum(report.forward_histogram.values()) == 4000

    def test_deterministic_given_seed(self):
        cfg = SweepConfig(
            regime=ScaleRegime.PROXIMAL, rho_class="negative", n_samples=3000, seed=7
        )
        r1, r2 = sweep_theorem(cfg), sweep_theorem(cfg)
        assert r1.to_dict() == r2.to_dict()
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
        )

    def test_different_seeds_differ(self):
        base = dict(regime=ScaleRegime.SEPARATED, rho_class="any", n_samples=2000)
        r1 = sweep_theorem(SweepConfig(seed=1, **base))
        r2 = sweep_theorem(SweepConfig(seed=2, **base))
        assert r1.forward_histogram != r2.forward_histogram

    def test_any_correlation_rows_judged_by_their_own_sign(self):
        # Seed 3 draws an HDH row with rho = -0.998, which the proximal
        # negative-correlation set admits and the nonnegative one does not.
        cfg = SweepConfig(
            regime=ScaleRegime.PROXIMAL, rho_class="any", n_samples=10000, seed=3
        )
        report = sweep_theorem(cfg)
        assert report.passed
        assert report.forward_histogram.get("HDH", 0) > 0

    def test_runtime_excluded_from_serialization_by_default(self):
        cfg = SweepConfig(regime=ScaleRegime.CRITICAL, n_samples=100, seed=3)
        report = sweep_theorem(cfg)
        assert "runtime_seconds" not in report.to_dict()


class TestBatchAgainstCareful:
    def test_batch_matches_careful_classifier(self):
        # The float32 batch scan may only ever under-detect relative to
        # the careful float64 path: its sequence must be a subsequence,
        # and in practice nearly always identical.
        exact = checked = 0
        for k, (regime, rho_class) in enumerate(REGIME_CLASSES):
            cfg = SweepConfig(
                regime=regime, rho_class=rho_class, n_samples=250, seed=500 + k
            )
            inst = vf.sample_instances(cfg, np.random.default_rng(cfg.seed), 250)
            decays, coeffs = vf._slot_arrays(inst, regime)
            scans = vf._scan_curves(decays, coeffs)
            for i in range(250):
                model, z = vf.instance_model(inst, i)
                for curve, fn in (
                    ("forward", cl.classify_forward),
                    ("yield", cl.classify_yield),
                ):
                    first, changes = scans[curve]
                    code = vf._shape_codes(first[i : i + 1], changes[i : i + 1])[0]
                    batch_shape = decode_shape(int(code))
                    report = fn(model, z)
                    checked += 1
                    if batch_shape == report.shape:
                        exact += 1
                    else:
                        batch_seq = (
                            SignSeq.pure(batch_shape.first, batch_shape.changes)
                            if batch_shape.first
                            else ss.EMPTY_PURE
                        )
                        assert ss.subsequence(batch_seq, report.derivative_sseq)
        assert exact / checked > 0.98


def _forward_fill_first_changes(vals, mag):
    """Forward-fill change counter the run-based one replaced; an oracle."""
    m = vals.shape[1]
    eps = np.float32(1e-6) * mag
    signs = (vals > eps).astype(np.int8) - (vals < -eps).astype(np.int8)
    col_idx = np.where(signs != 0, np.arange(m, dtype=np.int32)[None, :], -1)
    filled_idx = np.maximum.accumulate(col_idx, axis=1)
    fill = np.take_along_axis(signs, np.maximum(filled_idx, 0).astype(np.intp), axis=1)
    fill[filled_idx < 0] = 0
    switch = (fill[:, 1:] != fill[:, :-1]) & (fill[:, :-1] != 0)
    first_idx = np.argmax(signs != 0, axis=1)
    first = np.take_along_axis(signs, first_idx[:, None].astype(np.intp), axis=1)[:, 0]
    return first, switch.sum(axis=1, dtype=np.int32), fill[:, -1]


def _two_accumulator_scan(decays, coeffs, m=vf.BATCH_SAMPLES, curves=("forward", "yield")):
    """The batch scan before the bound-first zero test; an oracle.

    Every row accumulates its values and its magnitude sums (the exact
    1e-6 floor) in float32, slot by slot, each slot's samples made from
    the row's own scaled decay.
    """
    n, k = coeffs.shape
    d = (decays * (20.0 / decays[..., :1])).astype(np.float32)
    t = np.linspace(0.0, 1.0, m)[1:].astype(np.float32)
    shared = [vf._basis_samples(d[j], t, curves) for j in range(k)] if d.ndim == 1 else None
    coef_sum = np.sum(coeffs, axis=1).astype(np.float32)
    abs_sum = np.sum(np.abs(coeffs), axis=1).astype(np.float32)
    out = {
        c: (np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int32), np.zeros(n, dtype=np.int8))
        for c in curves
    }
    for start in range(0, n, vf._CHUNK):
        sl = slice(start, min(start + vf._CHUNK, n))
        a = coeffs[sl].astype(np.float32)
        a_abs = np.abs(a)
        sums = {}
        for curve in curves:
            half = 1.0 if curve == "forward" else 0.5
            v, vm = np.zeros((2, a.shape[0], m), dtype=np.float32)
            v[:, 0], vm[:, 0] = half * coef_sum[sl], half * abs_sum[sl]
            sums[curve] = v, vm
        for j in range(k):
            basis = shared[j] if shared else vf._basis_samples(d[sl, j], t, curves)
            for curve, (v, vm) in sums.items():
                v[:, 1:] += a[:, j, None] * basis[curve]
                vm[:, 1:] += a_abs[:, j, None] * basis[curve]
        for curve, (v, vm) in sums.items():
            for arr, res in zip(out[curve], vf._first_changes_of_values(v, vm)):
                arr[sl] = res
    results = {}
    for curve in curves:
        first, changes, last = out[curve]
        term = vf._terminal_signs(decays, coeffs, F_KIND if curve == "forward" else G_KIND)
        changes = changes + ((last != 0) & (term != 0) & (term != last)).astype(np.int32)
        results[curve] = (np.where(first == 0, term, first), changes)
    return results


def _slot_rows(model, n, seed):
    states = np.random.default_rng(seed).uniform(-0.3, 0.3, (n, model.d))
    return vf._fixed_model_slots(model, states)


SHARED_MODELS = {
    "one-factor": VasicekModel(
        lam=(1.0,), theta=(0.02,), kappa=(1.0,), kappa0=0.01, sigma=(0.5,)
    ),
    "separated": VasicekModel(
        lam=(1.0, 3.0), theta=(0.01, 0.02), kappa=(1.0, 0.8),
        kappa0=0.005, sigma=(0.3, 0.5), rho=-0.2,
    ),
    "proximal": VasicekModel(
        lam=(1.0, 1.5), theta=(0.01, 0.02), kappa=(1.0, 0.8),
        kappa0=0.005, sigma=(0.3, 0.5), rho=0.4,
    ),
    "critical": VasicekModel(
        lam=(0.7, 1.4), theta=(0.01, 0.02), kappa=(1.0, 0.9),
        kappa0=0.0, sigma=(0.3, 0.5), rho=0.1,
    ),
    # Ratio lambda2 / (2 lambda1) within 1e-6 of 1 on either side.
    "near-separated": VasicekModel(
        lam=(0.7, 1.4 * (1 + 5e-7)), theta=(0.01, -0.02), kappa=(1.0, 0.9),
        kappa0=0.0, sigma=(0.8, 0.5), rho=-0.7,
    ),
    "near-proximal": VasicekModel(
        lam=(0.7, 1.4 * (1 - 5e-7)), theta=(0.01, -0.02), kappa=(1.0, 0.9),
        kappa0=0.0, sigma=(0.8, 0.5), rho=-0.7,
    ),
}


def _sweep_rows(n, lam2_ratio=None):
    """(n, k) slot rows of separated sweep draws, optionally with lambda2 =
    2 lambda1 * lam2_ratio."""
    inst = vf.sample_instances(SweepConfig(ScaleRegime.SEPARATED), np.random.default_rng(n), n)
    reg = ScaleRegime.SEPARATED
    if lam2_ratio is not None:
        inst["lam2"] = 2 * inst["lam1"] * lam2_ratio
        reg = ScaleRegime.SEPARATED if lam2_ratio > 1 else ScaleRegime.PROXIMAL
    return vf._slot_arrays(inst, reg)


# Per-row and shared decay rows, with lambda2 = 2 lambda1 (1 -/+ 5e-7)
# putting two slots within 1e-6 of each other near the G series switch.
BOUND_SOURCES = {
    "sweep": _sweep_rows,
    "sweep-critical-5e-7": lambda n: _sweep_rows(n, 1 - 5e-7),
    "sweep-critical+5e-7": lambda n: _sweep_rows(n, 1 + 5e-7),
    "fixed-critical-5e-7": lambda n: _slot_rows(SHARED_MODELS["near-proximal"], n, seed=n),
    "fixed-critical+5e-7": lambda n: _slot_rows(SHARED_MODELS["near-separated"], n, seed=n),
}


def _one_factor_models(n, seed):
    rng = np.random.default_rng(seed)
    return {
        f"one-factor-{i}": VasicekModel(
            lam=(rng.uniform(0.05, 2.0),), theta=(rng.uniform(-0.1, 0.15),),
            kappa=(rng.uniform(0.1, 3.0),), kappa0=0.0, sigma=(rng.uniform(0.0, 1.0),),
        )
        for i in range(n)
    }


# Ratios within 1e-12 of critical read as critical to the tolerant
# regime() label but keep five slots under the exact layout.
LAYOUT_MODELS = {
    **_one_factor_models(8, seed=11),
    **{name: SHARED_MODELS[name] for name in ("separated", "proximal", "critical")},
    **{
        f"critical{side:+.0e}": VasicekModel(
            lam=(0.7, 1.4 * (1 + side)), theta=(0.01, -0.02), kappa=(1.0, 0.9),
            kappa0=0.0, sigma=(0.8, 0.5), rho=-0.7,
        )
        for side in (-1e-13, 1e-13)
    },
}


class TestSlotLayout:
    """The batch slot rows are the scalar layout, reversed, bit for bit."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_MODELS))
    def test_fixed_model_rows_equal_scalar_layout(self, name):
        model = LAYOUT_MODELS[name]
        states = np.random.default_rng(5).uniform(-0.3, 0.3, (40, model.d))
        decays, coeffs = vf._fixed_model_slots(model, states)
        for z, row in zip(states, coeffs):
            poly = vk.l_coefficients(model, z)
            assert tuple(decays[::-1].tolist()) == poly.basis.decays
            assert tuple(row[::-1].tolist()) == poly.coefficients

    @pytest.mark.parametrize("regime,rho_class", REGIME_CLASSES)
    def test_sweep_rows_equal_scalar_layout(self, regime, rho_class):
        cfg = SweepConfig(regime=regime, rho_class=rho_class, n_samples=300, seed=77)
        inst = vf.sample_instances(cfg, np.random.default_rng(cfg.seed), 300)
        decays, coeffs = vf._slot_arrays(inst, regime)
        for i in range(300):
            poly = vk.l_coefficients(*vf.instance_model(inst, i))
            assert tuple(decays[i, ::-1].tolist()) == poly.basis.decays
            assert tuple(coeffs[i, ::-1].tolist()) == poly.coefficients


class TestScanInternals:
    @pytest.mark.parametrize("seed", range(4))
    def test_run_count_matches_forward_fill(self, seed):
        rng = np.random.default_rng(seed)
        rows, m = 600, 96
        x = np.linspace(0.0, 1.0, m)
        freq = rng.uniform(0.0, 12.0, (rows, 1))
        phase = rng.uniform(0.0, 2 * np.pi, (rows, 1))
        vals = np.sin(freq * x + phase) + 0.3 * rng.standard_normal((rows, m))
        mag = np.abs(vals) + rng.uniform(0.0, 2.0, (rows, m))
        # Sub-threshold samples at the start, the end, in the middle and
        # across whole rows; some exactly zero, some with zero magnitude.
        tiny = 1e-8 * mag * rng.choice([-1.0, 1.0], (rows, m))
        cut = rng.integers(1, m // 3, rows)
        cols = np.arange(m)[None, :]
        groups = rng.integers(0, 6, rows)[:, None]
        floor = (
            ((groups == 1) & (cols < cut[:, None]))
            | ((groups == 2) & (cols >= m - cut[:, None]))
            | ((groups == 3) & (np.abs(cols - m // 2) < cut[:, None]))
            | (groups == 4)
            | ((groups == 5) & (rng.random((rows, m)) < 0.3))
        )
        vals = np.where(floor, tiny, vals)
        vals[::7, 0] = 0.0
        mag[::11, -1] = vals[::11, -1] = 0.0
        vals, mag = vals.astype(np.float32), mag.astype(np.float32)
        got = vf._first_changes_of_values(vals, mag)
        want = _forward_fill_first_changes(vals, mag)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("name", sorted(SHARED_MODELS))
    @pytest.mark.parametrize("n", [0, 1, vf._CHUNK - 1, vf._CHUNK, vf._CHUNK + 1])
    def test_shared_decay_row_matches_per_row_decays(self, name, n):
        decays, coeffs = _slot_rows(SHARED_MODELS[name], n, seed=n)
        assert decays.ndim == 1 and coeffs.shape == (n, decays.size)
        shared = vf._scan_curves(decays, coeffs)
        per_row = vf._scan_curves(np.tile(decays, (n, 1)), coeffs)
        for curve in ("forward", "yield"):
            for a, b in zip(shared[curve], per_row[curve]):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("edit", ["tiny-slowest", "cancel-at-zero"])
    @pytest.mark.parametrize("source", sorted(BOUND_SOURCES))
    @pytest.mark.parametrize("n", [0, 1, vf._CHUNK - 1, vf._CHUNK, vf._CHUNK + 1])
    def test_bound_first_scan_matches_two_accumulator_oracle(
        self, monkeypatch, source, edit, n
    ):
        decays, coeffs = BOUND_SOURCES[source](n)
        coeffs = coeffs.copy()
        if edit == "tiny-slowest":
            coeffs[:, 0] *= 1e-9
        else:
            # x = 0 sums between 0.5e-6 and 3e-6 of the magnitude sum, of
            # either sign: around the exact floor and inside the bound.
            rest = coeffs[:, :-1]
            rel = np.linspace(1e-6, 3e-6, n) * np.where(np.arange(n) % 2, 1.0, -1.0)
            coeffs[:, -1] = rel * np.abs(rest).sum(axis=1) - rest.sum(axis=1)
        want = _two_accumulator_scan(decays, coeffs)
        undecided = []
        exact_floor = vf._first_changes_of_values

        def counted(vals, mag):
            undecided.append(vals.shape[0])
            return exact_floor(vals, mag)

        monkeypatch.setattr(vf, "_first_changes_of_values", counted)
        got = vf._scan_curves(decays, coeffs)
        for curve in ("forward", "yield"):
            for g, w in zip(got[curve], want[curve]):
                np.testing.assert_array_equal(g, w)
        assert (sum(undecided) > 0) == (n > 0)

    def test_leading_series_columns_match_full_width(self):
        # Near-critical instances put slots within 1e-6 of each other;
        # small scaled decays push the series region far into the grid.
        cfg = SweepConfig(ScaleRegime.SEPARATED, "any", n_samples=300, seed=3)
        inst = vf.sample_instances(cfg, np.random.default_rng(3), 300)
        inst["lam2"] = 2 * inst["lam1"] * (1 + np.linspace(-1e-6, 1e-6, 300))
        decays, _ = vf._slot_arrays(inst, ScaleRegime.SEPARATED)
        scaled = (decays * (20.0 / decays[:, :1])).astype(np.float32)
        t = np.linspace(0.0, 1.0, vf.BATCH_SAMPLES)[1:].astype(np.float32)
        small = np.float32([0.05, 0.5, 1.0, 7.0])
        for d in (*scaled.T, small, np.float32(0.5), np.float32(20.0)):
            u = d[..., None] * t
            e = np.exp(-u)
            closed = (1.0 - e * (1.0 + u)) / (u * u)
            want = np.where(u < 0.25, vf._g_series32(u), closed)
            got = vf._basis_samples(d, t, ("yield",))
            np.testing.assert_array_equal(got["yield"], want)
            np.testing.assert_array_equal(got["forward"], e)


class TestStrictAttainability:
    def test_constructed_shape_attained_with_positive_frequency(self, separated_base):
        sol, _ = construct_target("HDH", separated_base)
        freq = strict_attainability_mc(
            sol.model, sol.state, t=0.01, n_paths=20_000, shape=ss.HDH, seed=5
        )
        assert freq > 0

    def test_zero_volatility_is_all_or_nothing(self, separated_base):
        sol, _ = construct_target("humped", separated_base)
        assert (sol.sigma1, sol.sigma2) == (0.0, 0.0)
        freq = strict_attainability_mc(
            sol.model, sol.state, t=0.01, n_paths=500, shape=ss.HUMPED, seed=6
        )
        assert freq in (0.0, 1.0)
        assert freq == 1.0

    def test_seeds_agree_within_binomial_error(self, separated_base):
        sol, _ = construct_target("HD", separated_base)
        n = 40_000
        f1 = strict_attainability_mc(
            sol.model, sol.state, t=0.5, n_paths=n, shape=ss.HD, seed=21
        )
        f2 = strict_attainability_mc(
            sol.model, sol.state, t=0.5, n_paths=n, shape=ss.HD, seed=22
        )
        pooled = 0.5 * (f1 + f2)
        se = math.sqrt(max(pooled * (1 - pooled), 1e-12) / n)
        assert abs(f1 - f2) < 4 * math.sqrt(2) * se

    def test_validation(self, separated_base):
        with pytest.raises(ValueError):
            strict_attainability_mc(separated_base, (0, 0), 0.0, 10, ss.HD, 0)
        with pytest.raises(ValueError):
            strict_attainability_mc(separated_base, (0, 0), 0.1, 0, ss.HD, 0)


class TestStateSpaceMap:
    def test_single_point_matches_classifier(self):
        model = VasicekModel(
            lam=(0.6, 1.4), theta=(0.01, 0.02), kappa=(1.0, 0.9),
            kappa0=0.0, sigma=(0.3, 0.5), rho=-0.4,
        )
        rows = state_space_map(model, [0.015], [-0.02])
        assert len(rows) == 1
        z1, z2, fwd, yld = rows[0]
        assert (z1, z2) == (0.015, -0.02)
        assert fwd == str(cl.classify_forward(model, (z1, z2)).shape)
        assert yld == str(cl.classify_yield(model, (z1, z2)).shape)

    def test_grid_order_and_count(self):
        model = VasicekModel(
            lam=(0.6, 1.4), theta=(0.01, 0.02), kappa=(1.0, 0.9),
            kappa0=0.0, sigma=(0.3, 0.5), rho=0.2,
        )
        z1 = np.linspace(-0.05, 0.05, 5)
        z2 = np.linspace(-0.04, 0.04, 7)
        rows = state_space_map(model, z1, z2)
        assert len(rows) == 35
        assert rows[0][0] == pytest.approx(z1[0])
        assert rows[1][1] == pytest.approx(z2[1])  # inner axis varies fastest
        adm = cl.admissible_shapes(ScaleRegime.PROXIMAL, "nonnegative")
        labels = {str(s) for s in adm.shapes}
        assert {r[2] for r in rows} <= labels
        assert {r[3] for r in rows} <= labels

    def test_one_factor_bands(self):
        model = VasicekModel(
            lam=(1.0,), theta=(0.02,), kappa=(1.0,), kappa0=0.01, sigma=(0.5,)
        )
        (f_lo, f_hi), (y_lo, y_hi) = cl.one_dim_regions(model)
        zs = np.linspace(-0.5, 0.3, 81)
        rows = state_space_map(model, zs)
        assert len(rows) == 81
        for (z, fwd, yld) in rows:
            if z < f_lo - 1e-9:
                assert fwd == "normal"
            elif f_lo + 1e-9 < z < f_hi - 1e-9:
                assert fwd == "humped"
            elif z > f_hi + 1e-9:
                assert fwd == "inverse"
            if z < y_lo - 1e-9:
                assert yld == "normal"
            elif y_lo + 1e-9 < z < y_hi - 1e-9:
                assert yld == "humped"
            elif z > y_hi + 1e-9:
                assert yld == "inverse"

    def test_grid_argument_validation(self):
        model = VasicekModel(
            lam=(1.0,), theta=(0.0,), kappa=(1.0,), kappa0=0.0, sigma=(0.1,)
        )
        with pytest.raises(ValueError):
            state_space_map(model, [0.0], [0.0])
        two = VasicekModel(
            lam=(1.0, 2.0), theta=(0.0, 0.0), kappa=(1.0, 1.0),
            kappa0=0.0, sigma=(0.1, 0.1), rho=0.0,
        )
        with pytest.raises(ValueError):
            state_space_map(two, [0.0])


class TestPerturbationCheck:
    def test_all_equivalent_below_delta(self):
        report = vf.perturbation_stability_check(n_cases=60, seed=9)
        assert report.passed
        assert report.equivalent_at_zero == 60
        assert report.equivalent_at_half_delta == 60
        assert report.equivalent_at_099_delta == 60
        # far beyond the bound equivalence may fail; only counted
        assert 0 <= report.equivalent_at_100x_delta <= 60

    def test_deterministic(self):
        r1 = vf.perturbation_stability_check(n_cases=20, seed=31)
        r2 = vf.perturbation_stability_check(n_cases=20, seed=31)
        assert r1.to_dict() == r2.to_dict()
