"""Randomized and Monte Carlo verification harness.

Sweeps draw (model, state) pairs uniformly from declared parameter
boxes, classify forward and yield curves, and confirm that no shape
outside the theoretical admissible set ever appears and that the yield
curve's sign sequence is always a head-subsequence of the forward
curve's.  Strict attainability is probed by exact Ornstein-Uhlenbeck
transition sampling from a constructed state, and the perturbation
bound is exercised on random extremal interpolants.

Sweeps use a vectorised scan: both basis functions depend only on
u = decay * x, so rescaling x by the row's window maps every instance
onto one shared grid.  A fixed model (Monte Carlo draws, state maps)
passes one shared decay row, so its basis samples are made once per
slot, not once per row.  Each row yields the first sign and the strong
change count of its reduced sign sequence, which determine the pure
sequence, hence the shape.  Any apparent violation is re-checked with
the careful scalar classifier before it is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import signseq
from .classify import (
    admissible_shapes,
    classify_forward,
    classify_yield,
    rho_class_of,
)
from .descartes import (
    DPolynomial,
    ExpBasis,
    F_KIND,
    G_KIND,
    _stability_radius,
    interpolate_prescribed_zeros,
    perturb_coefficients,
    sseq_of_dpoly,
)
from .signseq import ShapeName, Sign, SignSeq, shape_of
from .vasicek import ScaleRegime, VasicekModel, coefficient_core, ou_exact_step, slot_layout

RhoClassOption = Literal["nonnegative", "negative", "any"]

#: Grid resolution of the batched scan; apparent violations are
#: re-validated with the careful float64 classifier, so the fast path
#: only needs sign-level fidelity.
BATCH_SAMPLES = 512
#: Rows per float32 pass: a (rows, 512) array is 512 KB at 256 rows.
_CHUNK = 256
#: Bound on a row's coefficient magnitude sum and on the square of its
#: largest scaled decay (G divides by u^2): the float32 sums and samples
#: then stay finite, with room for rounding.
_FLOAT32_SAFE = 0.5 * float(np.finfo(np.float32).max)


#: Sampling ranges of a theorem sweep (lambda_1, kappa, sigma from 0, theta
#: and z) and the share of rows drawn beside the scale-critical boundary.
LAM1_RANGE = (0.05, 2.0)
KAPPA_RANGE = (0.1, 3.0)
SIGMA_MAX = 1.0
LEVEL_RANGE = (-0.1, 0.15)
BOUNDARY_FRACTION = 0.2


@dataclass(frozen=True)
class SweepConfig:
    """Regime, correlation class, size and seed of one theorem sweep."""

    regime: ScaleRegime
    rho_class: RhoClassOption = "any"
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")

    def to_dict(self) -> dict:
        return {
            "regime": str(self.regime),
            "rho_class": self.rho_class,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "lam1_range": list(LAM1_RANGE),
            "kappa_range": list(KAPPA_RANGE),
            "sigma_max": SIGMA_MAX,
            "level_range": list(LEVEL_RANGE),
            "boundary_fraction": BOUNDARY_FRACTION,
        }


@dataclass
class SweepReport:
    """Outcome of one sweep; empty violation lists mean a pass."""

    config: SweepConfig
    samples: int
    forward_histogram: dict[str, int]
    yield_histogram: dict[str, int]
    violations: list[dict]
    head_failures: list[dict]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return not self.violations and not self.head_failures

    def to_dict(self) -> dict:
        """The deterministic fields; ``runtime_seconds`` is left out."""
        return {
            "config": self.config.to_dict(),
            "samples": self.samples,
            "forward_histogram": dict(sorted(self.forward_histogram.items())),
            "yield_histogram": dict(sorted(self.yield_histogram.items())),
            "violations": self.violations,
            "head_failures": self.head_failures,
            "passed": self.passed,
        }


def sample_instances(cfg: SweepConfig, rng: np.random.Generator, n: int) -> dict:
    """Draw n (model, state) instances as parallel arrays."""
    lam1 = rng.uniform(*LAM1_RANGE, n)
    ratio_main = {
        ScaleRegime.SEPARATED: lambda: 1.0 + rng.uniform(0.05, 1.5, n),
        ScaleRegime.PROXIMAL: lambda: 1.0 - rng.uniform(0.05, 0.45, n),
        ScaleRegime.CRITICAL: lambda: np.ones(n),
    }[cfg.regime]()
    if cfg.regime is not ScaleRegime.CRITICAL:
        # Stratum hugging the scale-critical boundary from the regime's side.
        near = rng.random(n) < BOUNDARY_FRACTION
        offset = rng.uniform(1e-6, 0.05, n)
        side = 1.0 if cfg.regime is ScaleRegime.SEPARATED else -1.0
        ratio_main = np.where(near, 1.0 + side * offset, ratio_main)
    lam2 = 2.0 * lam1 * ratio_main

    if cfg.rho_class == "nonnegative":
        rho = rng.uniform(0.0, 1.0, n)
    elif cfg.rho_class == "negative":
        rho = rng.uniform(-1.0, 0.0, n)
    else:
        rho = rng.uniform(-1.0, 1.0, n)

    lo, hi = LEVEL_RANGE
    return {
        "lam1": lam1,
        "lam2": lam2,
        "kappa1": rng.uniform(*KAPPA_RANGE, n),
        "kappa2": rng.uniform(*KAPPA_RANGE, n),
        "sigma1": rng.uniform(0.0, SIGMA_MAX, n),
        "sigma2": rng.uniform(0.0, SIGMA_MAX, n),
        "rho": rho,
        "theta1": rng.uniform(lo, hi, n),
        "theta2": rng.uniform(lo, hi, n),
        "z1": rng.uniform(lo, hi, n),
        "z2": rng.uniform(lo, hi, n),
    }


def instance_model(inst: dict, i: int) -> tuple[VasicekModel, tuple[float, float]]:
    """Materialise instance i of a sample batch."""
    model = VasicekModel(
        lam=(inst["lam1"][i], inst["lam2"][i]),
        theta=(inst["theta1"][i], inst["theta2"][i]),
        kappa=(inst["kappa1"][i], inst["kappa2"][i]),
        kappa0=0.0,
        sigma=(inst["sigma1"][i], inst["sigma2"][i]),
        rho=inst["rho"][i],
    )
    return model, (float(inst["z1"][i]), float(inst["z2"][i]))


def _slot_arrays(inst: dict, reg: ScaleRegime) -> tuple[np.ndarray, np.ndarray]:
    """Decay and coefficient columns in increasing-decay order.

    The reversed stack of ``vasicek.slot_layout`` for the caller's
    regime, with the coefficients from ``vasicek.coefficient_core``.
    Model parameters may be arrays (one model per row) or scalars (one
    model shared by every row, which gives decays of shape (k,)).
    Critical instances carry the merged w2 + u1 slot, keeping the column
    layout regime-static so terminal signs vectorise.
    """
    lam, theta, kappa, sigma, z = (
        tuple(inst[f"{name}{i}"] for i in (1, 2))
        for name in ("lam", "theta", "kappa", "sigma", "z")
    )
    return _columns(lam, coefficient_core(lam, theta, kappa, sigma, inst["rho"], z), reg)


def _columns(lam, parts, order: ScaleRegime | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``vasicek.slot_layout`` reversed and stacked: increasing-decay columns."""
    decays, coeffs = slot_layout(lam, parts, order)
    coeffs = np.broadcast_arrays(*coeffs[::-1])
    return np.stack(decays[::-1], axis=-1), np.stack(coeffs, axis=-1)


def _terminal_signs(decays: np.ndarray, coeffs: np.ndarray, kind: str) -> np.ndarray:
    """Analytic x -> infinity signs, one per row (int8)."""
    n = coeffs.shape[0]
    if kind == F_KIND:
        term = np.zeros(n, dtype=np.int8)
        for k in range(coeffs.shape[1]):  # increasing decay order
            col = coeffs[:, k]
            pick = (term == 0) & (col != 0.0)
            term[pick] = np.sign(col[pick]).astype(np.int8)
        return term
    weighted = np.sum(coeffs / (decays * decays), axis=1)
    return np.sign(weighted).astype(np.int8)


def _g_series32(u: np.ndarray) -> np.ndarray:
    # Series through u^4; next term u^5/840 stays below the float32 noise
    # floor for u < 0.25.
    return 0.5 + u * (
        np.float32(-1.0 / 3.0)
        + u * (np.float32(0.125) + u * (np.float32(-1.0 / 30.0) + u * np.float32(1.0 / 144.0)))
    )


def _sign_runs(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (first sign, change count, last sign) of rows without zero
    samples, from ``pos`` (sample > 0)."""
    changes = (pos[:, 1:] != pos[:, :-1]).sum(axis=1, dtype=np.int32)
    return 2 * pos[:, 0].astype(np.int8) - 1, changes, 2 * pos[:, -1].astype(np.int8) - 1


def _first_changes_of_values(
    vals: np.ndarray, mag: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (first sign, strong change count, last sign) of samples.

    ``mag`` holds the local sum of term magnitudes; samples below the
    float32-safe fraction of it count as zero, so structure beyond that
    depth is dropped rather than read from rounding noise (the careful
    float64 classifier re-checks anything that looks like a violation).
    A row without zero samples changes wherever adjacent signs differ;
    only rows with zeros need a run count over their nonzero samples.
    """
    eps = np.float32(1e-6) * mag
    pos = vals > eps
    nonzero = pos | (vals < -eps)
    first, changes, last = _sign_runs(pos)
    gappy = np.flatnonzero(~nonzero.all(axis=1))
    if gappy.size:
        row, col = np.nonzero(nonzero[gappy])  # row-major: each row's samples in order
        sign = pos[gappy][row, col]
        switch = (row[1:] == row[:-1]) & (sign[1:] != sign[:-1])
        changes[gappy] = np.bincount(row[1:][switch], minlength=gappy.size)
        ends = np.flatnonzero(np.diff(row, prepend=-1, append=gappy.size))
        first[gappy], last[gappy] = 0, 0
        first[gappy[row[ends[:-1]]]] = 2 * sign[ends[:-1]].astype(np.int8) - 1
        last[gappy[row[ends[1:] - 1]]] = 2 * sign[ends[1:] - 1].astype(np.int8) - 1
    return first, changes, last


def _basis_samples(d: np.ndarray, t: np.ndarray, curves: tuple[str, ...]) -> dict:
    """exp(-u) and G(u) at u = d * t, for d a scalar or one value per row."""
    u = d[..., None] * t
    e = np.exp(-u)
    out = {"forward": e}
    if "yield" in curves:
        g = (1.0 - e * (1.0 + u)) / (u * u)
        # u grows along t, so the series region u < 0.25 is a column prefix.
        lead = int(np.count_nonzero(np.min(d) * t < 0.25))
        head = u[..., :lead]
        g[..., :lead] = np.where(head < 0.25, _g_series32(head), g[..., :lead])
        out["yield"] = g
    return out


def _scan_curves(
    decays: np.ndarray,
    coeffs: np.ndarray,
    curves: tuple[str, ...] = ("forward", "yield"),
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(first sign, change count) per row for the requested curves.

    Both basis functions depend only on u = decay * x, so u is scanned on
    the row-normalised window x <= 20 / min decay and the single exp per
    slot feeds both curves.  Slot 0 is the slowest, and every row is
    scaled so that slot 0's float32 decay is exactly 20: its exp and G
    samples are made once per call and shared by all rows.  ``decays``
    is (n, k), or one shared row of shape (k,) for a fixed model, whose
    other slots are then made once per call too.  G's series branch
    (u < 0.25) only reaches the first few columns, since u >= 20 t.
    Rows go through in float32 chunks of ``_CHUNK``, small enough that
    the few live (chunk, ``BATCH_SAMPLES``) arrays stay near cache size.  The x = 0
    column is exact (coefficient sum, halved for the yield kind).  Tails
    close with the analytic terminal signs.

    A sample counts as zero when it lies within 1e-6 of its magnitude
    sum vm = sum_j |a_j| b_j.  Every basis sample is at most slot 0's,
    so vm <= abs_sum * b_0, and a sample with |v| > 2e-6 * abs_sum * b_0
    keeps the sign of v; the factor 2 covers float32 rounding, and at
    x = 0 the bound reads half * abs_sum.  Only rows with a sample
    inside that bound build vm, slot by slot as v is built, and go
    through ``_first_changes_of_values``.  No float32 sum is reordered,
    so every row's result is the one the exact floor gives.  A row whose
    magnitude sum, or squared largest scaled decay, is not below
    ``_FLOAT32_SAFE`` raises ValueError.
    """
    n, k = coeffs.shape
    m = BATCH_SAMPLES
    d = decays[..., 1:] * (20.0 / decays[..., :1])  # slots 1..k-1
    if not np.all(d < np.sqrt(_FLOAT32_SAFE)):
        raise ValueError("decay rates spread too widely for the float32 batch scan")
    d = d.astype(np.float32)
    t = np.linspace(0.0, 1.0, m)[1:].astype(np.float32)
    slow = _basis_samples(np.float32(20.0), t, curves)
    shared = [slow] + [_basis_samples(dj, t, curves) for dj in d] if d.ndim == 1 else None
    half = {"forward": 1.0, "yield": 0.5}
    # Per unit of abs_sum, the bound at x = 0 and along t.
    ceiling = {
        c: np.float32(2e-6) * np.concatenate((np.float32([half[c]]), slow[c])) for c in curves
    }
    abs_sum = np.sum(np.abs(coeffs), axis=1)
    if not np.all(abs_sum < _FLOAT32_SAFE):
        raise ValueError("curve coefficients exceed the float32 range of the batch scan")
    coef_sum = np.sum(coeffs, axis=1).astype(np.float32)
    abs_sum = abs_sum.astype(np.float32)
    out = {
        c: (np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int32), np.zeros(n, dtype=np.int8))
        for c in curves
    }

    def slot_samples(j, rows):
        if shared:
            return shared[j]
        return slow if j == 0 else _basis_samples(d[rows, j - 1], t, curves)

    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        a = coeffs[sl].astype(np.float32)
        # The x > 0 samples accumulate in contiguous arrays, slot by slot.
        acc = {c: a[:, :1] * slow[c] for c in curves}
        for j in range(1, k):
            samples = slot_samples(j, sl)
            for curve in curves:
                acc[curve] += a[:, j, None] * samples[curve]
        for curve in curves:
            v0, v = half[curve] * coef_sum[sl], acc.pop(curve)  # x = 0 and x > 0
            pos = np.empty((v.shape[0], m), dtype=bool)
            pos[:, 0] = v0 > 0
            np.greater(v, 0, out=pos[:, 1:])
            res = _sign_runs(pos)
            # Rows with a sample inside the bound (or NaN) take the exact floor.
            clear = np.abs(v0) > abs_sum[sl] * ceiling[curve][0]
            clear &= (np.abs(v) > abs_sum[sl, None] * ceiling[curve][1:]).all(axis=1)
            rows = np.flatnonzero(~clear)
            if rows.size:
                vm = np.zeros((rows.size, m), dtype=np.float32)
                vm[:, 0] = half[curve] * abs_sum[sl][rows]
                a_abs = np.abs(a[rows])
                for j in range(k):
                    vm[:, 1:] += a_abs[:, j, None] * slot_samples(j, start + rows)[curve]
                vals = np.concatenate((v0[rows, None], v[rows]), axis=1)
                for arr, exact in zip(res, _first_changes_of_values(vals, vm)):
                    arr[rows] = exact
            for arr, r in zip(out[curve], res):
                arr[sl] = r

    results: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for curve in curves:
        first, changes, last = out[curve]
        kind = F_KIND if curve == "forward" else G_KIND
        term = _terminal_signs(decays, coeffs, kind)
        changes = changes + ((last != 0) & (term != 0) & (term != last)).astype(np.int32)
        results[curve] = (np.where(first == 0, term, first), changes)
    return results


def _shape_codes(first: np.ndarray, changes: np.ndarray) -> np.ndarray:
    """Encode (first sign, change count) as 1 + 2*changes + (first < 0),
    and 0 for flat; ``decode_shape`` names them through ``shape_of``."""
    return np.where(first == 0, 0, 1 + 2 * changes + (first < 0)).astype(np.int64)


def shape_code(shape: ShapeName) -> int:
    """Code a shape the way the batch scan does."""
    if shape.first is None:
        return 0
    return 1 + 2 * shape.changes + (shape.first is Sign.MINUS)


def decode_shape(code: int) -> ShapeName:
    if code == 0:
        return signseq.FLAT
    changes, minus = divmod(code - 1, 2)
    return shape_of(SignSeq.pure(Sign.MINUS if minus else Sign.PLUS, changes))


def sweep_theorem(cfg: SweepConfig) -> SweepReport:
    """One randomized sweep of the shape-classification theorem.

    Deterministic given the seed.  Apparent violations from the batched
    scan are re-validated with the careful classifier before being
    reported; confirmed ones carry a full instance dump for replay.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    inst = sample_instances(cfg, rng, cfg.n_samples)
    decays, coeffs = _slot_arrays(inst, cfg.regime)

    scans = _scan_curves(decays, coeffs)
    fwd_first, fwd_changes = scans["forward"]
    yld_first, yld_changes = scans["yield"]
    fwd_codes = _shape_codes(fwd_first, fwd_changes)
    yld_codes = _shape_codes(yld_first, yld_changes)

    # Each row is held to its own correlation sign's admissible set.
    negative = inst["rho"] < 0
    member_ok = np.empty(cfg.n_samples, dtype=bool)
    for rows, rho_class in ((negative, "negative"), (~negative, "nonnegative")):
        allowed = [shape_code(s) for s in admissible_shapes(cfg.regime, rho_class).shapes]
        member_ok[rows] = np.isin(fwd_codes[rows], allowed) & np.isin(yld_codes[rows], allowed)
    head_ok = (yld_first == 0) | (
        (yld_first == fwd_first) & (yld_changes <= fwd_changes)
    )

    violations: list[dict] = []
    head_failures: list[dict] = []
    for i in np.flatnonzero(~member_ok | ~head_ok):
        entry = _recheck_instance(inst, int(i), cfg.regime)
        if entry is None:
            continue
        kind, dump = entry
        (violations if kind == "membership" else head_failures).append(dump)

    return SweepReport(
        config=cfg,
        samples=cfg.n_samples,
        forward_histogram=_histogram(fwd_codes),
        yield_histogram=_histogram(yld_codes),
        violations=violations,
        head_failures=head_failures,
        runtime_seconds=time.perf_counter() - t0,
    )


def _histogram(codes: np.ndarray) -> dict[str, int]:
    uniq, counts = np.unique(codes, return_counts=True)
    return {str(decode_shape(int(u))): int(c) for u, c in zip(uniq, counts)}


def _recheck_instance(inst: dict, i: int, reg: ScaleRegime) -> tuple[str, dict] | None:
    """Careful re-classification of a flagged instance.

    Membership is judged against the admissible set of the instance's
    own correlation sign.  Returns None when the careful path clears it
    (batch-resolution artifact), else ('membership' | 'head', dump).
    """
    model, state = instance_model(inst, i)
    admissible = admissible_shapes(reg, rho_class_of(model))
    fwd = classify_forward(model, state)
    yld = classify_yield(model, state)
    dump = {
        "index": i,
        "model": model.to_dict(),
        "z": list(state),
        "forward_shape": str(fwd.shape),
        "yield_shape": str(yld.shape),
        "forward_sseq": str(fwd.derivative_sseq),
        "yield_sseq": str(yld.derivative_sseq),
    }
    if fwd.shape not in admissible or yld.shape not in admissible:
        return "membership", dump
    if not signseq.head_subsequence(yld.derivative_sseq, fwd.derivative_sseq):
        return "head", dump
    return None


def strict_attainability_mc(
    model: VasicekModel,
    state0,
    t: float,
    n_paths: int,
    shape: ShapeName,
    seed: int,
    curve: Literal["forward", "yield"] = "forward",
) -> float:
    """Fraction of exact-transition draws from state0 that attain a shape.

    A strictly positive frequency witnesses strict attainability; with
    zero volatility the transition is deterministic and the frequency is
    0 or 1.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_paths, model.d))
    states = ou_exact_step(model, state0, t, noise)
    codes = _fixed_model_codes(model, states, curve)
    return float(np.mean(codes == shape_code(shape)))


def _fixed_model_slots(model: VasicekModel, states) -> tuple[np.ndarray, np.ndarray]:
    """One shared decay row (k,) and per-state coefficients (n, k)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    z = tuple(states[:, i] for i in range(model.d))
    parts = coefficient_core(model.lam, model.theta, model.kappa, model.sigma, model.rho, z)
    return _columns(model.lam, parts)


def _fixed_model_codes(
    model: VasicekModel, states: np.ndarray, curve: Literal["forward", "yield"]
) -> np.ndarray:
    """Batch shape codes across states of one fixed model."""
    decays, coeffs = _fixed_model_slots(model, states)
    first, changes = _scan_curves(decays, coeffs, curves=(curve,))[curve]
    return _shape_codes(first, changes)


def state_space_map(
    model: VasicekModel,
    z1_grid,
    z2_grid=None,
) -> list[tuple]:
    """Classify every grid state; rows in grid order.

    For two factors the rows are (z1, z2, forward shape, yield shape)
    with z2 varying fastest; a one-factor model takes a single grid and
    yields (z, forward shape, yield shape) rows.
    """
    z1_grid = np.asarray(z1_grid, dtype=float)
    if model.d == 1:
        if z2_grid is not None:
            raise ValueError("one-factor models take a single state grid")
        states = z1_grid[:, None]
    else:
        if z2_grid is None:
            raise ValueError("two-factor models need both state grids")
        z2_grid = np.asarray(z2_grid, dtype=float)
        a, b = np.meshgrid(z1_grid, z2_grid, indexing="ij")
        states = np.stack([a.ravel(), b.ravel()], axis=1)

    scans = _scan_curves(*_fixed_model_slots(model, states))
    fwd, yld = (_shape_codes(*scans[curve]) for curve in ("forward", "yield"))
    label = {int(c): str(decode_shape(int(c))) for c in np.union1d(fwd, yld)}
    return [
        (*z, label[f], label[y])
        for z, f, y in zip(states.tolist(), fwd.tolist(), yld.tolist())
    ]


@dataclass
class PerturbationReport:
    cases: int
    equivalent_at_zero: int
    equivalent_at_half_delta: int
    equivalent_at_099_delta: int
    equivalent_at_100x_delta: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "equivalent_at_zero": self.equivalent_at_zero,
            "equivalent_at_half_delta": self.equivalent_at_half_delta,
            "equivalent_at_099_delta": self.equivalent_at_099_delta,
            "equivalent_at_100x_delta": self.equivalent_at_100x_delta,
            "failures": self.failures,
            "passed": self.passed,
        }


def _random_extremal(rng: np.random.Generator) -> DPolynomial:
    """Random extremal interpolant without boundary zeros.

    Decays keep a relative separation and the zeros stay within a
    bounded number of e-foldings of the fastest decay, so the realised
    sign structure sits well above the float64 coefficient-rounding
    floor and the stability radius is meaningful.
    """
    n = int(rng.integers(2, 6))
    while True:
        decays = np.sort(rng.uniform(0.05, 4.0, n))[::-1]
        if np.all(decays[:-1] / decays[1:] > 1.1):
            break
    z_max = min(10.0, 15.0 / float(decays[0]))
    while True:
        zeros = np.sort(rng.uniform(0.05 * z_max, z_max, n - 1))
        if n == 2 or np.all(np.diff(zeros) > 0.05 * z_max):
            break
    kind = F_KIND if rng.random() < 0.5 else G_KIND
    basis = ExpBasis(kind, tuple(decays))
    return interpolate_prescribed_zeros(basis, tuple(zeros))


def perturbation_stability_check(n_cases: int, seed: int) -> PerturbationReport:
    """Random extremal interpolants keep their sign sequence for every
    perturbation radius below the bound; 100x the bound is exploratory
    and only counted."""
    rng = np.random.default_rng(seed)
    report = PerturbationReport(cases=n_cases, equivalent_at_zero=0,
                                equivalent_at_half_delta=0,
                                equivalent_at_099_delta=0,
                                equivalent_at_100x_delta=0)
    for case in range(n_cases):
        poly = _random_extremal(rng)
        base_sseq, zeros = sseq_of_dpoly(poly)
        delta = _stability_radius(poly, zeros)
        outcomes = {}
        for label, eps in (
            ("zero", 0.0),
            ("half", 0.5 * delta),
            ("near", 0.99 * delta),
            ("far", 100.0 * delta),
        ):
            perturbed = perturb_coefficients(poly, eps)
            # eps = 0 gives back poly itself; its scan is the base scan.
            perturbed_sseq = base_sseq if perturbed == poly else sseq_of_dpoly(perturbed)[0]
            outcomes[label] = signseq.equivalent(base_sseq, perturbed_sseq)
        report.equivalent_at_zero += outcomes["zero"]
        report.equivalent_at_half_delta += outcomes["half"]
        report.equivalent_at_099_delta += outcomes["near"]
        report.equivalent_at_100x_delta += outcomes["far"]
        for label in ("zero", "half", "near"):
            if not outcomes[label]:
                report.failures.append(
                    {
                        "case": case,
                        "epsilon": label,
                        "kind": poly.basis.kind,
                        "decays": list(poly.basis.decays),
                        "coefficients": list(poly.coefficients),
                        "delta": delta,
                    }
                )
    return report
