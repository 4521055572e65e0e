"""Randomized and Monte Carlo verification harness.

Sweeps draw (model, state) pairs uniformly from declared parameter
boxes, classify forward and yield curves, and confirm that no shape
outside the theoretical admissible set ever appears and that the yield
curve's sign sequence is always a head-subsequence of the forward
curve's.  Strict attainability is probed by exact Ornstein-Uhlenbeck
transition sampling from a constructed state, and the perturbation
bound is exercised on random extremal interpolants.

Each batch row yields the first sign and the strong change count of
its reduced sign sequence, which determine the pure sequence, hence the
shape.  Most rows are decided from their coefficients alone: the
kernels are Descartes systems, so Laguerre's rule bounds the zero count
by the sign changes of the coefficients and of their partial sums, and
the signs at 0 and at infinity fix its parity.  Rolle's theorem counts
the rest in float64, with no grid; a fixed model's state slots go first,
so the levels after them are solved once per call.  A row with a value
within ``_FLOOR`` of its term magnitude sum takes its sequence from
``sseq_of_dpoly``, the same descent on its own float64 polynomial with
each doubtful value signed at 50 digits.  Any apparent violation is
re-checked with the careful scalar classifier before it is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, get_args

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
    ZERO_EPS,
    _descend,
    _levels,
    _stability_radius,
    g_kernel_value,
    interpolate_prescribed_zeros,
    perturb_coefficients,
    sseq_of_dpoly,
)
from .signseq import ShapeName, Sign, SignSeq, shape_of
from .vasicek import ScaleRegime, VasicekModel, coefficient_core, ou_exact_step, slot_layout

RhoClassOption = Literal["nonnegative", "negative", "any"]

#: Rolle stage: rows per block, a zero's relative accuracy, its step limit.
_BLOCK, _RTOL, _MAX_STEPS = 2048, 1e-8, 100
_KIND = {"forward": F_KIND, "yield": G_KIND}  # each curve's kernel
#: The batch scan's documented input range (README, exit code 2): a row's
#: coefficient magnitude sum stays below _BATCH_RANGE, and its largest
#: decay below _DECAY_SPREAD times its slowest, sqrt(_BATCH_RANGE) / 20.
_BATCH_RANGE = 0.5 * float(np.finfo(np.float32).max)
_DECAY_SPREAD = np.sqrt(_BATCH_RANGE) / 20.0
#: Deferral floor: ZERO_EPS past a float64 sum's rounding (the x = 0 band's edge).
_FLOOR = ZERO_EPS + 8 * np.finfo(float).eps


#: Sampling ranges of a theorem sweep (lambda_1, kappa, sigma from 0, theta
#: and z) and the share of rows drawn beside the scale-critical boundary.
LAM1_RANGE = (0.05, 2.0)
KAPPA_RANGE = (0.1, 3.0)
SIGMA_MAX = 1.0
LEVEL_RANGE = (-0.1, 0.15)
BOUNDARY_FRACTION = 0.2


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """Regime, correlation class, size and seed of one theorem sweep."""

    regime: ScaleRegime
    rho_class: RhoClassOption = "any"
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.regime, ScaleRegime):
            raise ValueError(f"regime must be a ScaleRegime, got {self.regime!r}")
        if self.rho_class not in get_args(RhoClassOption):
            raise ValueError(f"rho_class must be one of {get_args(RhoClassOption)}, "
                             f"got {self.rho_class!r}")
        if not (_is_integer(self.n_samples) and self.n_samples >= 1):
            raise ValueError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

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
    """Analytic x -> infinity signs, one per row (int8): G's is 0 where its
    sum a_j / d_j^2 lies within _FLOOR of sum |a_j| / d_j^2."""
    if kind == F_KIND:  # the slowest nonzero term, columns in increasing decay order
        slowest = np.argmax(coeffs != 0.0, axis=1)
        return np.sign(coeffs[np.arange(coeffs.shape[0]), slowest]).astype(np.int8)
    w = coeffs / (decays * decays)
    end = np.sum(w, axis=1)
    return np.where(np.abs(end) > _FLOOR * np.abs(w).sum(axis=1), np.sign(end), 0).astype(np.int8)


def _careful_first_changes(kind: str, decays: np.ndarray, coeffs: np.ndarray) -> tuple[int, int]:
    """(first sign, change count) of one row by ``sseq_of_dpoly``, its
    slots reversed into Descartes order (decreasing decay)."""
    sseq, _ = sseq_of_dpoly(DPolynomial(ExpBasis(kind, decays[::-1]), coeffs[::-1]))
    return (int(sseq.signs[0]), len(sseq) - 1) if len(sseq) else (0, 0)


def _certify(coeffs: np.ndarray, term: dict, abs_sum: np.ndarray) -> tuple:
    """(first sign, bound B, decided rows per curve of ``term``, which maps
    curves to terminal signs, 0 where undecided).  B is V where a partial
    sum is within ``_FLOOR`` * ``abs_sum``; first is 0 unless sum a clears
    that floor."""
    n = coeffs.shape[0]
    v, p, last, prev = np.zeros((4, n), dtype=np.int8)
    partial = np.zeros(n)
    weak, floor = np.zeros(n, dtype=bool), _FLOOR * abs_sum
    for a in coeffs.T:
        s = np.sign(a).astype(np.int8)
        v += s * last < 0
        np.copyto(last, s, where=s != 0)
        partial += a
        weak |= np.abs(partial) <= floor
        s = np.sign(partial).astype(np.int8)
        p += s * prev < 0
        prev = s
    first = np.where(np.abs(partial) > floor, prev, 0).astype(np.int8)
    bound = np.where(weak, v, np.minimum(v, p))
    return first, bound, {c: (first != 0) & (t != 0) & (bound - (first != t) < 2)
                          for c, t in term.items()}


def _scan_curves(
    decays: np.ndarray,
    coeffs: np.ndarray,
    curves: tuple[str, ...] = ("forward", "yield"),
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(first sign, change count) per row for the requested curves.

    ``decays`` is (n, k), or a shared row (k,), in increasing-decay
    columns.  The kernels are Descartes systems: l has at most V zeros on
    (0, inf), V the coefficient sign changes, and by Laguerre's rule at
    most P, those of the partial sums a_0 + ... + a_j; m has no more than
    l, as M = x^2 m has M(0) = 0 and M' = x l (Rolle).  A count has the
    parity of [first != terminal sign], so ``_certify`` decides the rows
    whose B = min(V, P) is below that parity plus 2.  The rest go to
    ``_rolle_scan``, and the rows it defers to ``_careful_first_changes``,
    the Rolle descent of ``sseq_of_dpoly``.  A row outside the input range
    (``_BATCH_RANGE``, ``_DECAY_SPREAD``) raises ValueError, certified or
    not.
    """
    if not np.all(decays < _DECAY_SPREAD * decays[..., :1]):
        raise ValueError("decay rates spread too widely for the batch scan")
    abs_sum = np.sum(np.abs(coeffs), axis=1)
    if not np.all(abs_sum < _BATCH_RANGE):
        raise ValueError("curve coefficients exceed the range of the batch scan")
    term = {c: _terminal_signs(decays, coeffs, _KIND[c]) for c in curves}
    first, _, decided = _certify(coeffs, term, abs_sum)
    out = {c: (np.where(ok, first, 0).astype(np.int8), (ok & (first != term[c])).astype(np.int32))
           for c, ok in decided.items()}
    rows = np.flatnonzero(~np.logical_and.reduce(list(decided.values())))
    if rows.size:
        sub, a = (decays if decays.ndim == 1 else decays[rows]), coeffs[rows]
        got, deferred = _rolle_scan(sub, a, {c: term[c][rows] for c in curves})
        for c in curves:
            pick, careful = ~decided[c][rows], deferred[c] & ~decided[c][rows]
            if careful.any():  # one careful scan per distinct row
                both = np.concatenate((np.broadcast_to(sub, a.shape)[careful], a[careful]), 1)
                uniq, inverse = np.unique(both, axis=0, return_inverse=True)
                firsts = [_careful_first_changes(_KIND[c], *np.split(r, 2)) for r in uniq]
                got[c][0][careful], got[c][1][careful] = np.array(firsts)[inverse.reshape(-1)].T
            out[c][0][rows[pick]], out[c][1][rows[pick]] = got[c][0][pick], got[c][1][pick]
    return out


def _level_zeros(e: np.ndarray, c: np.ndarray, pts: np.ndarray, sign: np.ndarray,
                 pick: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """On the rows of ``pick``, the zero of sum_j c_j exp(-e_j x) between
    consecutive points of opposite sign, where it is monotone (inf
    elsewhere, NaN if not found): closed form for two terms, else safeguarded
    Newton from ``start`` (per bracket) if inside, else the first two-term zero."""
    r, j = np.nonzero((sign[:, :-1] != sign[:, 1:]) & pick[:, None])
    zeros = np.full((pts.shape[0], pts.shape[1] - 1), np.inf)
    if c.shape[1] == 2 or not r.size:
        zeros[r, j] = np.log(-c[r, 1] / c[r, 0]) / e[r, 1]
        return zeros
    e, c, lo, hi, pos, act = e[r], c[r], pts[r, j], pts[r, j + 1], sign[r, j] > 0, np.arange(r.size)
    mid = lambda lo, hi: np.sqrt(np.maximum(lo, 1e-6 * hi) * hi)  # noqa: E731
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        at = np.full(r.size, np.nan) if start is None else start[r, j]
        m = np.flatnonzero(~((at > lo) & (at < hi)))
        guess = np.log(-c[m, 1:] / c[m, :-1]) / (e[m, 1:] - e[m, :-1])
        inside = (guess > lo[m, None]) & (guess < hi[m, None])
        at[m] = np.where(inside.any(axis=1), guess[np.arange(m.size), inside.argmax(1)], mid(lo[m], hi[m]))
        ne, coef, x = -e, np.stack((c, c * e)), np.full(r.size, np.nan)
        for _ in range(_MAX_STEPS):
            g, slope = np.einsum("ij,kij->ki", np.exp(ne * at[:, None]), coef)
            step, up = g / slope, (g > 0) == pos  # step = -g / g'
            lo, hi = np.where(up, at, lo), np.where(up, hi, at)
            at = np.where(((nxt := at + step) >= lo) & (nxt <= hi), nxt, mid(lo, hi))
            done = np.minimum(np.abs(step), hi - lo) <= _RTOL * at
            if done.any():
                x[act[done]], keep = at[done], np.flatnonzero(~done)
                if done.all():
                    break
                act, ne, coef, pos, lo, hi, at = (
                    act[keep], ne[keep], coef[:, keep], pos[keep], lo[keep], hi[keep], at[keep])
    zeros[r, j] = x
    return zeros


def _climb(levels: list, x_end, zeros, bad, solve_last: bool, start=None) -> tuple:
    """Signs of ``levels`` (top first) at 0, the level above's sorted zeros and X
    (``x_end`` column i), and their zeros (the last level's if ``solve_last``; ``start``
    serves the top one): the last points, signs and zeros, and ``bad`` updated."""
    for i in range(len(levels) - 1, -1, -1):
        e, c, end = *levels[i], x_end[:, i : i + 1]
        pts = np.concatenate((np.zeros_like(end), np.fmin(zeros, end), end), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: deferred
            E = np.exp(-e[:, None] * pts[..., None])
        g = np.einsum("rpw,rw->rp", E, c)
        bad |= ~np.all(np.abs(g) > _FLOOR * np.einsum("rpw,rw->rp", E, np.abs(c)), axis=1)
        sign = np.sign(g)
        if i or solve_last:
            zeros = _level_zeros(e, c, pts, sign, ~bad, start if i == len(levels) - 1 else None)
            bad |= np.isnan(zeros).any(axis=1)
            zeros.sort(axis=1)
    return pts, sign, zeros, bad


def _shared_descent(decays: np.ndarray, coeffs: np.ndarray, keep: np.ndarray) -> tuple | None:
    """Levels a shared decay row (k,) leaves the same in every row once the nv
    ``keep`` columns that vary by row go first, solved on the first row (README,
    Numerical notes): None where there are none, () where one fails.  Else (order,
    nv, their X, level nv's zeros (1, m), and per bracket of 0, those zeros and 2 X,
    a table (s H, x, s) of H = W - level nv-1, W its per-row pivot term, s H rising)."""
    vary = np.ascontiguousarray(coeffs.T != coeffs[:1].T)[keep].any(axis=1)
    if decays.ndim != 1 or (nv := max(int(vary.sum()), 1)) >= vary.size - 1:
        return None
    order = np.argsort(~vary, kind="stable")  # the varying columns first, in decay order
    levels, ends = _levels(decays[None, keep], coeffs[:1, keep], order)
    _, _, zeros, bad = _climb(levels[nv:], ends[:, nv:], np.empty((1, 0)), np.zeros(1, bool), True)
    if bad[0]:
        return ()
    (e, c), z = (v[0, 1:] for v in levels[nv - 1]), np.fmin(zeros[0], 2.0 * ends[0, nv])
    x = np.linspace((0.0, *z), (*z, 2.0 * ends[0, nv]), 256, axis=1)
    h = -np.exp(-x[..., None] * e) @ c
    return order, nv, ends[0, nv], zeros, [(s * h, x, s) for h, x, s in
                                           zip(h, x, np.sign(h[:, -1] - h[:, 0]))]


def _rolle_scan(decays: np.ndarray, coeffs: np.ndarray, term: dict) -> tuple:
    """(first sign, change count) per row by Rolle's theorem (README,
    Numerical notes), and the rows deferred, for decays (n, k) or a shared
    row (k,) and the curves of ``term`` (curve -> terminal signs).  Level i
    of ``descartes._levels`` has one zero between consecutive points of (0,
    level i+1's zeros, X) of opposite sign, and none past X.  Slots zero in
    every row are left out; each zero-slot pattern takes its own call.  Past
    the levels ``_shared_descent`` solves once, Newton starts from H's inverse
    and each level has its own X; else level 0's X serves all, in decay
    order.  A row with c_ii = 0, a value within _FLOOR of its term magnitude
    sum, a zero not found or an end sum in its floor is deferred.
    """
    n, zero = coeffs.shape[0], np.ascontiguousarray(coeffs.T == 0.0)  # reduced fast by slot
    out = {c: (np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int32)) for c in term}
    deferred = {c: np.zeros(n, dtype=bool) for c in term}
    if np.any(zero.any(axis=1) & (keep := ~zero.all(axis=1))):
        group = np.unique(zero.T, axis=0, return_inverse=True)[1].reshape(-1)
        for rows in (group == p for p in range(group.max() + 1)):
            got, dfr = _rolle_scan(decays if decays.ndim == 1 else decays[rows], coeffs[rows],
                                   {c: t[rows] for c, t in term.items()})
            for c in term:
                out[c][0][rows], out[c][1][rows], deferred[c][rows] = *got[c], dfr[c]
        return out, deferred
    order, nv, x_shared, z_shared, tables = (n and _shared_descent(decays, coeffs, keep)) or (
        None, max(int(keep.sum()) - 1, 1), 0.0, np.empty((1, 0)), ())
    decays = np.broadcast_to(decays, coeffs.shape)
    for sl in (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)):
        d, a = decays[sl][:, keep], coeffs[sl][:, keep]
        levels, ends = _levels(d, a, order, nv)
        x_end = np.maximum(ends, x_shared) if tables else ends.repeat(nv, axis=1)
        bad = ~np.isfinite(x_end[:, 0])
        x_end[bad] = 1.0
        start = np.array([np.interp(s * levels[-1][1][:, 0], h, x, np.nan, np.nan)
                          for h, x, s in tables]).T if tables else None
        pts, sign, _, bad = _climb(levels, x_end, z_shared, bad, False, start)
        first, fwd = sign[:, 0], np.count_nonzero(np.diff(sign), axis=1)
        counts = {"forward": (fwd, bad)}
        if "yield" in term:
            end = term["yield"][sl]
            bad = bad | (end == 0)
            parity = (first != end).astype(np.int32)
            counts["yield"], rows = (parity, bad), ~bad & (fwd - parity >= 2)
            if rows.any():
                z = np.sort(_level_zeros(*levels[0], pts, sign, rows)[rows], axis=1)
                t = a[rows, None] * g_kernel_value(d[rows, None] * np.fmin(z, x_end[rows, :1])[..., None])
                m = t.sum(axis=2)
                bad[rows] |= np.any(np.isnan(z) | (np.abs(m) <= _FLOOR * np.abs(t).sum(axis=2)), 1)
                seq = np.concatenate((first[rows, None], np.sign(m), end[rows, None]), axis=1)
                parity[rows] = np.count_nonzero(np.diff(seq), axis=1)
        for c in term:
            out[c][0][sl], (out[c][1][sl], deferred[c][sl]) = first, counts[c]
    return out, deferred


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
    codes = [_shape_codes(*scans[curve]) for curve in ("forward", "yield")]
    label = [str(decode_shape(c)) for c in range(int(np.max(codes, initial=0)) + 1)]
    return list(zip(*states.T.tolist(), *(map(label.__getitem__, c.tolist()) for c in codes)))


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
        descent, base_sseq, zeros = _descend(poly)
        delta = _stability_radius(descent, zeros)
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
