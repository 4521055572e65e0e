#!/usr/bin/env python3
"""Print one sha256 per output array of the float32 batch scan.

    python3 scripts/scan_digest.py > digest.txt

Run it in two checkouts and ``diff`` the outputs: an empty diff means
the batch scan returns bit-identical results on

- ``verify._scan_curves`` (first sign and change count, both curves) on
  the five strata of acceptance criterion 4, seeds 41 to 45, at 100,000
  rows each;
- ``verify._fixed_model_codes`` (both curves) on seven fixed models at
  50,000 seeded states each: one-factor, each scale regime, lambda2 =
  2 lambda1 (1 -/+ 5e-7) on either side of critical, and critical with
  rho = -0.8.

The package is imported from this checkout's ``src/``.  It takes about
half a minute.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from termshapes import verify  # noqa: E402
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
