from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import count

from termshapes import classify as cl
from termshapes import signseq as ss
from termshapes import vasicek as vk
from termshapes import verify as vf
from termshapes.attain import construct_target
from termshapes.descartes import F_KIND, G_KIND, DPolynomial, ExpBasis, sseq_of_dpoly
from termshapes.signseq import NAMED_SHAPES
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

    @pytest.mark.parametrize(
        "field,value",
        [("regime", "separated"), ("rho_class", "bogus"), ("n_samples", 2.5),
         ("n_samples", "10"), ("n_samples", True), ("seed", -1), ("seed", 1.5), ("seed", "3")],
    )
    def test_config_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**{"regime": ScaleRegime.SEPARATED, field: value})

    def test_runtime_excluded_from_serialization_by_default(self):
        cfg = SweepConfig(regime=ScaleRegime.CRITICAL, n_samples=100, seed=3)
        report = sweep_theorem(cfg)
        assert "runtime_seconds" not in report.to_dict()


class TestBatchAgainstCareful:
    def test_batch_matches_careful_classifier(self):
        # The certificate and the Rolle stage count exactly, and the rows
        # they cannot sign take the careful scan: every batch shape is
        # the careful classifier's.
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
                    assert decode_shape(int(code)) == fn(model, z).shape


def _careful_first_changes(kind, decays, coeffs):
    sseq, _ = sseq_of_dpoly(DPolynomial(ExpBasis(kind, tuple(decays[::-1])), tuple(coeffs[::-1])))
    return (int(sseq.signs[0]), len(sseq) - 1) if len(sseq) else (0, 0)


def _certificate(decays, coeffs):
    """``verify._certify`` for both curves, with the scan's terminal signs."""
    term = {c: vf._terminal_signs(decays, coeffs, kind) for c, kind in vf._KIND.items()}
    return vf._certify(coeffs, term, np.abs(coeffs).sum(axis=1))


@st.composite
def exp_sums(draw):
    """2 to 5 increasing decays at least 10% apart, and mixed-sign
    coefficients with exact zeros; half the sums have their coefficient
    sum cancelled to 1e-8 .. 1e-1 of the other terms' magnitude sum."""
    k = draw(st.integers(2, 5))
    steps = draw(st.lists(st.floats(1.1, 3.0), min_size=k - 1, max_size=k - 1))
    decays = draw(st.floats(0.05, 2.0)) * np.cumprod([1.0, *steps])
    magnitude = st.one_of(st.just(0.0), st.floats(-3.0, 0.0).map(lambda e: 10.0**e))
    signed = st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda sm: sm[0] * sm[1])
    coeffs = np.array(draw(st.lists(signed, min_size=k, max_size=k)))
    if draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        rest = np.delete(coeffs, j)
        rel = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-8.0, -1.0))
        coeffs[j] = rel * np.abs(rest).sum() - rest.sum()
    return decays, coeffs


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


def _sweep_rows(n, reg=ScaleRegime.SEPARATED, lam2_ratio=None):
    """(n, k) slot rows of sweep draws in a regime, optionally with lambda2 =
    2 lambda1 * lam2_ratio."""
    inst = vf.sample_instances(SweepConfig(reg), np.random.default_rng(n), n)
    if lam2_ratio is not None:
        inst["lam2"] = 2 * inst["lam1"] * lam2_ratio
        reg = ScaleRegime.SEPARATED if lam2_ratio > 1 else ScaleRegime.PROXIMAL
    return vf._slot_arrays(inst, reg)


# Per-row decay rows of sweeps in each regime and shared decay rows of
# fixed models; lambda2 = 2 lambda1 (1 -/+ 5e-7) puts two slots within
# 1e-6 of each other.
BOUND_SOURCES = {
    "sweep": _sweep_rows,
    "sweep-proximal": lambda n: _sweep_rows(n, ScaleRegime.PROXIMAL),
    "sweep-critical": lambda n: _sweep_rows(n, ScaleRegime.CRITICAL),
    "sweep-critical-5e-7": lambda n: _sweep_rows(n, lam2_ratio=1 - 5e-7),
    "sweep-critical+5e-7": lambda n: _sweep_rows(n, lam2_ratio=1 + 5e-7),
    "fixed-critical-5e-7": lambda n: _slot_rows(SHARED_MODELS["near-proximal"], n, seed=n),
    "fixed-critical+5e-7": lambda n: _slot_rows(SHARED_MODELS["near-separated"], n, seed=n),
}


def _edit(coeffs, edit):
    """A copy of ``coeffs`` with one of two near-zero edits."""
    coeffs, n = coeffs.copy(), coeffs.shape[0]
    if edit == "tiny-slowest":
        # A slowest coefficient 1e-9 of its size, and every 16th row's
        # coefficients summing to zero: l(0) = 0.
        coeffs[:, 0] *= 1e-9
        coeffs[::16, -1] = -coeffs[::16, :-1].sum(axis=1)
    else:
        # x = 0 sums between 0.5e-6 and 3e-6 of the magnitude sum, of
        # either sign: l(0) near zero but far above ``ZERO_EPS``.
        rest = coeffs[:, :-1]
        rel = np.linspace(1e-6, 3e-6, n) * np.where(np.arange(n) % 2, 1.0, -1.0)
        coeffs[:, -1] = rel * np.abs(rest).sum(axis=1) - rest.sum(axis=1)
    return coeffs


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


def _assert_matches_careful(got, decays, coeffs):
    """Every row's (first sign, change count) is the careful scan's."""
    row_decays = np.broadcast_to(decays, coeffs.shape)
    for curve, kind in vf._KIND.items():
        for i in range(coeffs.shape[0]):
            careful = _careful_first_changes(kind, row_decays[i], coeffs[i])
            assert (got[curve][0][i], got[curve][1][i]) == careful


class TestCertificate:
    """The coefficient certificate against the careful scan: no count
    above the bound B, and every decided row's (first sign, parity)."""

    @staticmethod
    def _assert_decided_rows_match(decays, coeffs):
        first, bound, decided = _certificate(decays, coeffs)
        row_decays = np.broadcast_to(decays, coeffs.shape)
        for curve, kind in vf._KIND.items():
            term = vf._terminal_signs(decays, coeffs, kind)
            for i in np.flatnonzero(decided[curve]):
                careful = _careful_first_changes(kind, row_decays[i], coeffs[i])
                assert careful == (first[i], int(first[i] != term[i]))
        return bound, decided

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(exp_sums())
    def test_random_sums(self, case):
        decays, coeffs = (a[None] for a in case)
        bound, _ = self._assert_decided_rows_match(decays, coeffs)
        for kind in (F_KIND, G_KIND):
            assert _careful_first_changes(kind, decays[0], coeffs[0])[1] <= bound[0]

    @pytest.mark.parametrize("k", range(len(REGIME_CLASSES)))
    def test_criterion_4_strata(self, k):
        regime, rho_class = REGIME_CLASSES[k]
        cfg = SweepConfig(regime, rho_class, n_samples=2000, seed=41 + k)
        inst = vf.sample_instances(cfg, np.random.default_rng(cfg.seed), cfg.n_samples)
        _, decided = self._assert_decided_rows_match(*vf._slot_arrays(inst, regime))
        assert decided["forward"].mean() > 0.5 and decided["yield"].mean() > 0.5

    def test_floor_rules(self):
        # Slowest first, V = 2 in every row.  Partial sums +1, -1, +0.5
        # give B = 2 with first = terminal = +: undecided.  +1, +0.5,
        # +0.75 give B = 0: no change.  A coefficient sum inside the floor
        # leaves first at 0, and a partial sum inside it makes B = V.
        decays = np.array([1.0, 2.0, 3.0])
        first, bound, decided = _certificate(decays, np.array([[1.0, -2.0, 1.5],
                                                               [1.0, -0.5, 0.25],
                                                               [1.0, -1.0, 1e-13],
                                                               [1.0, -1.0 + 1e-13, 0.5]]))
        assert bound.tolist() == [2, 0, 2, 2]
        assert first.tolist() == [1, 1, 0, 1]
        assert decided["forward"].tolist() == [False, True, False, False]


@st.composite
def stage_rows(draw, family, pool=1024, rows=24):
    """Up to ``rows`` rows the certificate leaves, from ``pool`` sweep draws
    of a family: plain sweep rows, lambda2 = 2 lambda1 (1 -/+ 5e-7), or
    sweep rows with one of the ``_edit`` edits."""
    regime, rho_class = draw(st.sampled_from(REGIME_CLASSES))
    seed = draw(st.integers(0, 2**32 - 1))
    inst = vf.sample_instances(SweepConfig(regime, rho_class), np.random.default_rng(seed), pool)
    if family == "near-critical":
        side = draw(st.sampled_from([-5e-7, 5e-7]))
        inst["lam2"] = 2 * inst["lam1"] * (1 + side)
        regime = ScaleRegime.SEPARATED if side > 0 else ScaleRegime.PROXIMAL
    decays, coeffs = vf._slot_arrays(inst, regime)
    if family in ("tiny-slowest", "cancel-at-zero"):
        coeffs = _edit(coeffs, family)
    left = np.flatnonzero(~np.logical_and(*_certificate(decays, coeffs)[2].values()))[:rows]
    return decays[left], coeffs[left]


class TestRolle:
    """The Rolle stage against the careful scan on both curves."""

    @pytest.mark.parametrize("family", ["sweep", "near-critical", "tiny-slowest", "cancel-at-zero"])
    def test_decided_rows_match_careful(self, family):
        seen = []

        @settings(derandomize=True, deadline=None, database=None, max_examples=15)
        @given(stage_rows(family))
        def check(case):
            decays, coeffs = case
            term = {c: vf._terminal_signs(decays, coeffs, kind) for c, kind in vf._KIND.items()}
            got, deferred = vf._rolle_scan(decays, coeffs, term)
            for curve, kind in vf._KIND.items():
                for i in np.flatnonzero(~deferred[curve]):
                    careful = _careful_first_changes(kind, decays[i], coeffs[i])
                    assert (got[curve][0][i], got[curve][1][i]) == careful
            seen.append(coeffs.shape[0])

        check()
        assert sum(seen) >= 200

    def test_row_6849_reads_dh(self):
        # The float32 grid read this forward curve as inverse; it has two
        # zeros, at 0.98251 and 0.98876.
        cfg = SweepConfig(ScaleRegime.SEPARATED, "nonnegative", n_samples=10_000, seed=41)
        inst = vf.sample_instances(cfg, np.random.default_rng(cfg.seed), cfg.n_samples)
        decays, coeffs = (a[6849:6850] for a in vf._slot_arrays(inst, cfg.regime))
        assert not _certificate(decays, coeffs)[2]["forward"][0]
        shape = decode_shape(int(vf._shape_codes(*vf._scan_curves(decays, coeffs)["forward"])[0]))
        assert str(shape) == "DH"
        assert shape == cl.classify_forward(*vf.instance_model(inst, 6849)).shape

    @pytest.mark.parametrize("source", ["fixed-critical-5e-7", "fixed-critical+5e-7"])
    def test_row_138_counts_both_zeros(self, source):
        # A float32 grid read this forward curve with 0 changes where it
        # has 2, so a yield count derived from that forward count would
        # read 0.  The shared decay row takes the Rolle stage.
        decays, coeffs = BOUND_SOURCES[source](256)
        coeffs = _edit(coeffs, "cancel-at-zero")[138:139]
        got = vf._scan_curves(decays, coeffs)
        for curve, kind in vf._KIND.items():
            careful = _careful_first_changes(kind, decays, coeffs[0])
            assert careful == (-1, 2)
            assert (got[curve][0][0], got[curve][1][0]) == careful


class TestScanInternals:
    @pytest.mark.parametrize("name", sorted(SHARED_MODELS))
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
    def test_shared_decay_row_matches_per_row_decays(self, name, n):
        # The scan takes the shared row; the careful scan each row's copy.
        decays, coeffs = _slot_rows(SHARED_MODELS[name], n, seed=n)
        assert decays.ndim == 1 and coeffs.shape == (n, decays.size)
        _assert_matches_careful(vf._scan_curves(decays, coeffs), np.tile(decays, (n, 1)), coeffs)

    @pytest.mark.parametrize("edit", ["tiny-slowest", "cancel-at-zero"])
    @pytest.mark.parametrize("source", sorted(BOUND_SOURCES))
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
    def test_bound_first_scan_matches_two_accumulator_oracle(self, source, edit, n):
        # Shared and per-row decay rows, with their sums near zero at x = 0
        # or their slowest slot tiny, against the careful scan on every row.
        decays, coeffs = BOUND_SOURCES[source](n)
        coeffs = _edit(coeffs, edit)
        _assert_matches_careful(vf._scan_curves(decays, coeffs), decays, coeffs)

    @pytest.mark.parametrize(
        "source",
        ["sweep", "sweep-proximal", "sweep-critical",
         "fixed-separated", "fixed-critical", "fixed-one-factor"],
    )
    def test_shared_slots_sampled_once_per_call(self, monkeypatch, source):
        # Fed only rows the certificate leaves, three blocks of them, so
        # every row reaches the Rolle stage.  One call takes them all: a
        # fixed model's shared decay row goes in once, as the (k,) row
        # itself and never tiled per row; sweep rows bring their own.
        # Splitting the rows into blocks leaves every answer as it was.
        blocks, block = 3, 256
        pool = 64 * blocks * block
        if source == "fixed-one-factor":
            # Two terms: only rows with l(0) = 0 are left, here at z = theta.
            model = SHARED_MODELS["one-factor"]
            decays, coeffs = vf._fixed_model_slots(model, np.full((pool, 1), model.theta[0]))
        elif source.startswith("fixed-"):
            decays, coeffs = _slot_rows(SHARED_MODELS[source[6:]], pool, seed=1)
        else:
            decays, coeffs = BOUND_SOURCES[source](pool)
        left = np.flatnonzero(~np.logical_and(*_certificate(decays, coeffs)[2].values()))
        rows = left[: blocks * block]
        assert rows.size == blocks * block and block * blocks <= vf._BLOCK
        decays, coeffs = (decays if decays.ndim == 1 else decays[rows]), coeffs[rows]
        whole = vf._scan_curves(decays, coeffs)
        calls = []
        real = vf._rolle_scan

        def counted(d, a, term):
            calls.append((d, a.shape))
            return real(d, a, term)

        monkeypatch.setattr(vf, "_rolle_scan", counted)
        monkeypatch.setattr(vf, "_BLOCK", block)
        got = vf._scan_curves(decays, coeffs)
        assert len(calls) == 1
        d, shape = calls[0]
        assert shape == coeffs.shape
        if source.startswith("sweep"):
            assert d.shape == coeffs.shape
        else:
            assert d is decays
        for curve in vf._KIND:
            for g, w in zip(got[curve], whole[curve]):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("block", [256, 2048])
    @pytest.mark.parametrize("name", ["separated", "proximal", "critical"])
    def test_shared_levels_solved_once_per_call(self, monkeypatch, name, block):
        # A fixed model's rows differ only in the w1 and w2 slots, which the
        # descent eliminates first: the levels after them, with k - 2 terms
        # or fewer, reach _level_zeros on one row, once per call, however
        # many blocks the rows fill.
        decays, coeffs = _slot_rows(SHARED_MODELS[name], 64 * 3 * 256, seed=1)
        left = np.flatnonzero(~np.logical_and(*_certificate(decays, coeffs)[2].values()))
        coeffs, k = coeffs[left[: 3 * 256]], decays.size
        assert coeffs.shape[0] == 3 * 256
        calls = []
        real = vf._level_zeros

        def counted(e, c, *args):
            calls.append(c.shape)
            return real(e, c, *args)

        monkeypatch.setattr(vf, "_level_zeros", counted)
        monkeypatch.setattr(vf, "_BLOCK", block)
        _assert_matches_careful(vf._scan_curves(decays, coeffs), decays, coeffs)
        shared = [rows for rows, terms in calls if terms <= k - 2]
        assert shared == [1] * (k - 3)
        assert len(calls) > len(shared)  # the state levels, once per block

    def test_certified_rows_skip_the_rolle_stage(self, monkeypatch):
        # One-factor rows have two terms, so V <= 1 and the certificate
        # decides every row whose coefficient sum and G weight clear the
        # floor: none reaches a scan.
        decays, coeffs = _slot_rows(SHARED_MODELS["one-factor"], 768, seed=4)
        decided = _certificate(decays, coeffs)[2]
        assert decided["forward"].all() and decided["yield"].all()
        calls = []
        monkeypatch.setattr(vf, "_rolle_scan", lambda *args: calls.append(args))
        monkeypatch.setattr(vf, "sseq_of_dpoly", lambda *args: calls.append(args))
        vf._scan_curves(decays, coeffs)
        assert calls == []

    @pytest.mark.parametrize(
        "decays,coeffs,match",
        [((1.0, 2.0), (1e38, 1e38), "coefficients"), ((1.0, 1e20), (1.0, 1.0), "decay rates")],
    )
    def test_certified_row_out_of_float32_range_raises(self, decays, coeffs, match):
        decays, coeffs = np.array([decays]), np.array([coeffs])
        assert all(_certificate(decays, coeffs)[2].values())
        with pytest.raises(ValueError, match=match):
            vf._scan_curves(decays, coeffs)

    @pytest.mark.parametrize("curve", ["forward", "yield"])
    def test_deferred_rows_scanned_once_each(self, monkeypatch, curve):
        # With zero volatility every path lands on one state with
        # w1 = -w2, so l(0) = 0: every row is deferred, and all are equal.
        model = VasicekModel(
            lam=(1.0, 3.0), theta=(0.01, 0.02), kappa=(1.0, 0.8), kappa0=0.005, sigma=(0.0, 0.0)
        )
        z0 = (0.0, 0.02 + 0.01 * math.exp(0.02) / 2.4)
        calls = []

        def counted(p, *args):
            calls.append(p)
            return sseq_of_dpoly(p, *args)

        monkeypatch.setattr(vf, "sseq_of_dpoly", counted)
        freq = strict_attainability_mc(model, z0, 0.01, 20_000, ss.NORMAL, seed=0, curve=curve)
        assert freq == 1.0
        assert len(calls) == 1

    @pytest.mark.parametrize("curve", ["forward", "yield"])
    def test_slots_zero_in_every_row_leave_the_rolle_stage(self, monkeypatch, separated_base,
                                                            curve):
        # The constructed HDH model's slot 3 is zero in every state.  Kept,
        # it would make the Rolle stage defer every row it gets to the
        # careful scan.
        sol, _ = construct_target("HDH", separated_base)
        decays, coeffs = vf._fixed_model_slots(sol.model, sol.state)
        assert coeffs[0, 3] == 0.0
        calls = []

        def counted(p, *args):
            calls.append(p)
            return sseq_of_dpoly(p, *args)

        monkeypatch.setattr(vf, "sseq_of_dpoly", counted)
        strict_attainability_mc(sol.model, sol.state, 0.01, 3 * vf._BLOCK, ss.HDH, seed=3,
                                curve=curve)
        assert len(calls) <= 5


def _boundary_states(model, states, z2):
    """Pairs of states on the line z2 = const, one grid step of 2^-50 of
    the states' z1 span apart, around each z1 where a batch code changes.
    Each bisection step scans 33 points of the bracket together with
    ``states``, so the line's rows take the shared path of a full call."""
    lo, hi = states[:, 0].min(), states[:, 0].max()
    out = []
    for curve in vf._KIND:
        line = np.linspace(lo, hi, 33)
        codes = vf._fixed_model_codes(model, np.vstack((np.column_stack((line, 0 * line + z2)), states)), curve)[:33]
        for i in np.flatnonzero(codes[1:] != codes[:-1]):
            a, b = line[i], line[i + 1]
            for _ in range(10):
                z1 = np.linspace(a, b, 33)
                rows = np.vstack((np.column_stack((z1, 0 * z1 + z2)), states))
                got = vf._fixed_model_codes(model, rows, curve)[:33]
                j = np.flatnonzero(got[1:] != got[:-1])[0]
                a, b = z1[j], z1[j + 1]
            out += [(a, z2), (b, z2)]
    return np.array(out)


class TestSharedDescent:
    """Fixed models through the shared-level descent against the careful
    scan on every row, and against the 50-digit oracle on both sides of
    each point where a batch count changes."""

    @staticmethod
    def _check(model, states, z2):
        edges = _boundary_states(model, states, z2)
        assert edges.size
        rows = np.vstack((states, edges))
        decays, coeffs = vf._fixed_model_slots(model, rows)
        got = vf._scan_curves(decays, coeffs)
        _assert_matches_careful(got, decays, coeffs)
        for curve, kind in vf._KIND.items():
            for i in range(states.shape[0], rows.shape[0]):
                want = count(kind, decays, coeffs[i])
                assert (got[curve][0][i], got[curve][1][i]) == want

    @pytest.mark.parametrize("base,curve", [("separated", "forward"), ("separated", "yield"),
                                            ("proximal", "forward")])
    def test_constructed_hdh_models(self, request, base, curve):
        # Separated HDH models have rho = 0, so the cross slot is 0 in every
        # state; the proximal one has rho < 0.  States are a small-time OU
        # step from the constructed state, as ``simulate`` draws them.
        sol, _ = construct_target("HDH", request.getfixturevalue(f"{base}_base"), curve)
        assert (sol.model.rho == 0) == (base == "separated") and sol.model.rho <= 0
        noise = np.random.default_rng(7).standard_normal((400, 2))
        states = vk.ou_exact_step(sol.model, sol.state, 0.01, noise)
        assert not np.any(vf._fixed_model_slots(sol.model, states)[1][:, 3]) == (base == "separated")
        self._check(sol.model, states, sol.state[1])

    @pytest.mark.parametrize("name", ["near-separated", "near-proximal"])
    def test_near_critical_models(self, name):
        # lambda2 = 2 lambda1 (1 +/- 5e-7): the level after the state slots
        # has exponents -7e-7 (or +7e-7), 0.7 and 1.4 relative to its pivot.
        model = SHARED_MODELS[name]
        states = np.random.default_rng(3).uniform(-0.3, 0.3, (400, 2))
        self._check(model, states, 0.0)


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

    @pytest.mark.parametrize("delta", [1e-9, 1e-8, 1.6e-7])
    def test_one_factor_states_just_below_theta_read_humped(self, delta):
        # The hump lies so near the origin that a grid would step over
        # it; the signs at 0 and at infinity still fix it.
        model = SHARED_MODELS["one-factor"]
        z = model.theta[0] - delta
        (fwd_lo, theta), (yld_lo, _) = cl.one_dim_regions(model)
        assert max(fwd_lo, yld_lo) < z < theta
        assert cl.classify_forward(model, (z,)).shape == ss.HUMPED
        assert cl.classify_yield(model, (z,)).shape == ss.HUMPED
        for curve in ("forward", "yield"):
            assert vf._fixed_model_codes(model, [[z]], curve).tolist() == [shape_code(ss.HUMPED)]
        assert state_space_map(model, [z]) == [(z, "humped", "humped")]

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
