#!/usr/bin/env python3
"""Run the randomized shape-classification sweeps, one per regime and
correlation class, and print a compact summary table.

Each line also gives, per curve, the share of rows that the
coefficient certificate (``verify._certify``) decides, and of the rows
it leaves, how many the Rolle stage (``verify._rolle_scan``) decides and
how many it defers to the careful scan, on the sweep's rows regenerated
from its seed.  The same counts follow for the seven fixed models of
``scan_digest.py``, on its seeded states.  Any confirmed violation
dumps the offending model/state for replay.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from scan_digest import MODELS as FIXED_MODELS, STATES as FIXED_STATES
from termshapes import verify
from termshapes.vasicek import ScaleRegime
from termshapes.verify import SweepConfig, sweep_theorem

SWEEPS = [
    (ScaleRegime.SEPARATED, "nonnegative"),
    (ScaleRegime.SEPARATED, "negative"),
    (ScaleRegime.PROXIMAL, "nonnegative"),
    (ScaleRegime.PROXIMAL, "negative"),
    (ScaleRegime.CRITICAL, "any"),
]


def stage_counts(decays: np.ndarray, coeffs: np.ndarray) -> dict[str, tuple[float, int, int]]:
    """Per curve, the share of rows the certificate decides, and the rows
    it leaves that the Rolle stage decides and defers.  ``decays`` is
    (n, k), or one row (k,) shared by every row."""
    abs_sum = np.abs(coeffs).sum(axis=1)
    term = {c: verify._terminal_signs(decays, coeffs, k) for c, k in verify._KIND.items()}
    _, _, decided = verify._certify(decays, coeffs, term, abs_sum)
    rows = np.flatnonzero(~np.logical_and(*decided.values()))
    _, deferred = verify._rolle_scan(np.broadcast_to(decays, coeffs.shape)[rows], coeffs[rows],
                                     {c: signs[rows] for c, signs in term.items()})
    counts = {}
    for curve, done in decided.items():
        left = ~done[rows]
        counts[curve] = (float(done.mean()), int(np.sum(left & ~deferred[curve])),
                         int(np.sum(left & deferred[curve])))
    return counts


def _stages(counts: dict[str, tuple[float, int, int]]) -> str:
    return "  ".join(f"{curve} {share:.1%}, Rolle {rolle} deferred {deferred}"
                     for curve, (share, rolle, deferred) in counts.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--dump", help="write violation dumps to this JSON file")
    args = parser.parse_args()

    all_ok = True
    dumps = []
    for offset, (regime, rho_class) in enumerate(SWEEPS):
        cfg = SweepConfig(
            regime=regime,
            rho_class=rho_class,
            n_samples=args.samples,
            seed=args.seed + offset,
        )
        report = sweep_theorem(cfg)
        all_ok &= report.passed
        status = "ok" if report.passed else "VIOLATIONS"
        hist = ", ".join(
            f"{name}={count}"
            for name, count in sorted(
                report.forward_histogram.items(), key=lambda kv: -kv[1]
            )
        )
        inst = verify.sample_instances(cfg, np.random.default_rng(cfg.seed), cfg.n_samples)
        stages = _stages(stage_counts(*verify._slot_arrays(inst, cfg.regime)))
        print(
            f"{regime.value:9s} rho {rho_class:11s} {report.samples:7d} samples "
            f"{report.runtime_seconds:6.1f}s  {status}  certified {stages}  forward: {hist}"
        )
        if not report.passed:
            dumps.append(report.to_dict())
    for k, (name, model) in enumerate(FIXED_MODELS.items()):
        states = np.random.default_rng(k).uniform(-0.3, 0.3, (FIXED_STATES, model.d))
        stages = _stages(stage_counts(*verify._fixed_model_slots(model, states)))
        print(f"fixed {name:16s} {FIXED_STATES:7d} states  certified {stages}")

    if dumps and args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh, indent=2, sort_keys=True)
        print(f"violation dumps written to {args.dump}", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
