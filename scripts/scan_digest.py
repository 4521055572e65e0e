#!/usr/bin/env python3
"""Print one sha256 per output array of the batch scan (the coefficient
certificate, then the Rolle stage), and one per output stream of the
careful scanner.

    python3 scripts/scan_digest.py > digest.txt

Run it in two checkouts and ``diff`` the outputs: an empty diff means
the batch scan returns bit-identical results on

- ``verify._scan_curves`` (first sign and change count, both curves) on
  the five strata of acceptance criterion 4, seeds 41 to 45, at 100,000
  rows each;
- ``verify._fixed_model_codes`` (both curves) on seven fixed models at
  50,000 seeded states each: one-factor, each scale regime, lambda2 =
  2 lambda1 (1 -/+ 5e-7) on either side of critical, and critical with
  rho = -0.8;

and that the careful path (``descartes.sseq_of_dpoly``) does on

- ``classify_forward`` and ``classify_yield`` reports (sign sequence,
  extrema, diagnostics) on 2,000 rows of each criterion-4 stratum, seeds
  41 to 45;
- ``sseq_of_dpoly`` (sign sequence and zeros) and ``perturbation_delta``
  on 4,000 seeded random sums, 4,000 near-equal-decay sums, and 2,000
  interpolants each with clustered and with far-out prescribed zeros.

An exception is digested as its type and message.  Each careful stream
also gets a ``classes`` line, a hash over its outcome classes only: the
sign sequence and zero count of each scan or report, or the exception
type.  A change confined to noise-level digits (zero locations,
residuals, radii) leaves those lines identical.  The two interpolant
families also get a ``coefficients`` line, a hash over the coefficients
(``repr``) of their interpolants, so a change in the elimination shows
there even where no scan outcome moves.  The package is
imported from this checkout's ``src/``.  It takes about a minute.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from termshapes import classify, descartes, verify  # noqa: E402
from termshapes.vasicek import ScaleRegime, VasicekModel  # noqa: E402

STRATA = (
    (ScaleRegime.SEPARATED, "nonnegative", 41),
    (ScaleRegime.SEPARATED, "negative", 42),
    (ScaleRegime.PROXIMAL, "nonnegative", 43),
    (ScaleRegime.PROXIMAL, "negative", 44),
    (ScaleRegime.CRITICAL, "any", 45),
)
SWEEP_ROWS = 100_000
STATES = 50_000
CAREFUL_ROWS = 2_000
SUMS = 4_000
#: The families built by ``interpolate_prescribed_zeros``.
INTERPOLANTS = ("clustered-zero", "far-zero")


def _two_factor(lam2: float, rho: float, lam1: float = 0.7) -> VasicekModel:
    return VasicekModel(lam=(lam1, lam2), theta=(0.01, -0.02), kappa=(1.0, 0.9),
                        kappa0=0.0, sigma=(0.8, 0.5), rho=rho)


MODELS = {
    "one-factor": VasicekModel(lam=(1.0,), theta=(0.02,), kappa=(1.0,), kappa0=0.01,
                               sigma=(0.5,)),
    "separated": _two_factor(3.0, -0.2, lam1=1.0),
    "proximal": _two_factor(1.5, 0.4, lam1=1.0),
    "critical": _two_factor(1.4, 0.1),
    "critical-5e-7": _two_factor(1.4 * (1 - 5e-7), -0.7),
    "critical+5e-7": _two_factor(1.4 * (1 + 5e-7), -0.7),
    "critical-rho-0.8": _two_factor(1.4, -0.8),
}


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes()).hexdigest()


def _outcome(fn, outcome_class) -> tuple[bytes, bytes]:
    """The full outcome of ``fn()`` and its class: ``outcome_class`` of
    the value, or the type of the exception raised."""
    try:
        value = fn()
    except (ValueError, RuntimeError) as exc:
        text, cls = f"{type(exc).__name__}: {exc}", type(exc).__name__
    else:
        text, cls = repr(value), repr(outcome_class(value))
    return (text + "\n").encode(), (cls + "\n").encode()


class _Stream:
    """Running sha256 of a stream's outcomes and of their classes."""

    def __init__(self, outcome_class):
        self.outcome_class = outcome_class
        self.full, self.classes = hashlib.sha256(), hashlib.sha256()

    def update(self, fn) -> None:
        text, cls = _outcome(fn, self.outcome_class)
        self.full.update(text)
        self.classes.update(cls)

    def print(self, label: str) -> None:
        print(f"{self.full.hexdigest()} {label}")
        print(f"{self.classes.hexdigest()} {label} classes")


def _report_class(report: dict) -> tuple[str, int]:
    return report["derivative_sseq"], len(report["extrema"])


def _scan(p: descartes.DPolynomial):
    seq, zeros = descartes.sseq_of_dpoly(p)
    return str(seq), zeros


def _scan_class(scan) -> tuple[str, int]:
    return scan[0], len(scan[1])


def _family_decays(rng: np.random.Generator) -> tuple[float, ...]:
    """Slot decays of a sampled two-factor model (a merged slot at criticality)."""
    l1 = rng.uniform(0.05, 2.0)
    l2 = 2.0 * l1 * (1.0 + rng.choice([rng.uniform(0.05, 1.5), -rng.uniform(0.05, 0.45), 0.0]))
    middle = (l2, 2 * l1) if l2 > 2 * l1 else (2 * l1, l2) if l2 < 2 * l1 else (l2,)
    return (2 * l2, l1 + l2, *middle, l1)


def _sum_families():
    """Seeded polynomial families for the careful scanner, by name."""
    rng = np.random.default_rng(51)
    random_sums = []
    for i in range(SUMS):
        decays = _family_decays(rng) if i % 2 else tuple(
            sorted(set(rng.uniform(0.05, 6.0, rng.integers(1, 6))), reverse=True))
        basis = descartes.ExpBasis("FG"[i % 4 // 2], decays)
        random_sums.append(descartes.DPolynomial(basis, rng.standard_normal(len(decays))))
    near_equal = []
    for i in range(SUMS):
        n = int(rng.integers(2, 6))
        scale, gap = rng.uniform(0.2, 3.0), 10.0 ** -rng.integers(2, 7)
        decays = tuple(scale * (1.0 + gap * k) for k in range(n, 0, -1))
        basis = descartes.ExpBasis("FG"[i % 2], decays)
        near_equal.append(descartes.DPolynomial(basis, rng.standard_normal(n)))
    clustered, far = [], []
    for i in range(SUMS // 2):
        basis = descartes.ExpBasis("FG"[i % 2], _family_decays(rng))
        n = len(basis)
        start = rng.choice([0.0, 1e-3, 0.5, 2.0])
        step = 10.0 ** -rng.integers(1, 5)
        zeros = start + step * np.arange(1 if start == 0.0 else 0, n - 1 + (start == 0.0))
        clustered.append(descartes.interpolate_prescribed_zeros(basis, zeros))
        zeros = np.sort(rng.uniform(5.0, 60.0, n - 1)) / basis.min_positive_decay
        far.append(descartes.interpolate_prescribed_zeros(basis, zeros))
    return {"random": random_sums, "near-equal-decay": near_equal,
            "clustered-zero": clustered, "far-zero": far}


def main() -> int:
    for regime, rho_class, seed in STRATA:
        cfg = verify.SweepConfig(regime, rho_class, n_samples=SWEEP_ROWS, seed=seed)
        inst = verify.sample_instances(cfg, np.random.default_rng(seed), SWEEP_ROWS)
        scans = verify._scan_curves(*verify._slot_arrays(inst, regime))
        for curve, (first, changes) in scans.items():
            label = f"sweep {regime}/{rho_class}/{seed} {curve}"
            print(f"{_digest(first)} {label} first")
            print(f"{_digest(changes)} {label} changes")
    for k, (name, model) in enumerate(MODELS.items()):
        states = np.random.default_rng(k).uniform(-0.3, 0.3, (STATES, model.d))
        for curve in ("forward", "yield"):
            codes = verify._fixed_model_codes(model, states, curve)
            print(f"{_digest(codes)} fixed {name} {curve} codes")
    for regime, rho_class, seed in STRATA:
        cfg = verify.SweepConfig(regime, rho_class, n_samples=CAREFUL_ROWS, seed=seed)
        inst = verify.sample_instances(cfg, np.random.default_rng(seed), CAREFUL_ROWS)
        rows = [verify.instance_model(inst, i) for i in range(CAREFUL_ROWS)]
        for curve, fn in (("forward", classify.classify_forward),
                          ("yield", classify.classify_yield)):
            reports = _Stream(_report_class)
            for model, z in rows:
                reports.update(lambda: fn(model, z).to_dict())
            reports.print(f"careful {regime}/{rho_class}/{seed} {curve} reports")
    for name, polys in _sum_families().items():
        # A radius has no class beyond being returned: its scan's classes
        # are on the sseq_of_dpoly line.
        scans, deltas = _Stream(_scan_class), _Stream(lambda delta: "returned")
        for p in polys:
            scans.update(lambda: _scan(p))
            deltas.update(lambda: descartes.perturbation_delta(p))
        scans.print(f"careful {name} sums sseq_of_dpoly")
        deltas.print(f"careful {name} sums perturbation_delta")
        if name in INTERPOLANTS:
            text = "".join(f"{p.coefficients!r}\n" for p in polys)
            print(f"{hashlib.sha256(text.encode()).hexdigest()} careful {name} sums coefficients")
    return 0


if __name__ == "__main__":
    sys.exit(main())
