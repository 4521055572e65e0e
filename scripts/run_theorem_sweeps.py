#!/usr/bin/env python3
"""Run the randomized shape-classification sweeps, one per regime and
correlation class, and print a compact summary table.

Each line also gives, per curve, the share of rows that the
coefficient certificate (``verify._certify``) decides, and of the rows
it leaves, how many the Rolle stage (``verify._rolle_scan``) decides and
how many it defers to the careful scan, on the sweep's rows regenerated
from its seed.  The same counts follow for the seven fixed models of
``scan_digest.py``, on its seeded states, with three readings of the
shared-level descent (``verify._shared_descent``): the rows its calls
solve on shared levels, the calls that fell back to the default order,
and the mean Newton evaluations per bracket on the state-dependent
level, from H's inverse and, for comparison, from the two-term start.
Any confirmed violation dumps the offending model/state for replay.
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
    _, _, decided = verify._certify(coeffs, term, abs_sum)
    rows = np.flatnonzero(~np.logical_and(*decided.values()))
    _, deferred = verify._rolle_scan(decays if decays.ndim == 1 else decays[rows], coeffs[rows],
                                     {c: signs[rows] for c, signs in term.items()})
    counts = {}
    for curve, done in decided.items():
        left = ~done[rows]
        counts[curve] = (float(done.mean()), int(np.sum(left & ~deferred[curve])),
                         int(np.sum(left & deferred[curve])))
    return counts


def shared_readings(decays: np.ndarray, coeffs: np.ndarray) -> str:
    """The Rolle stage of ``stage_counts`` run again with the shared-level
    descent and the Newton solver recorded: rows solved on shared levels,
    calls that fell back, and Newton evaluations per bracket on the
    state-dependent level (the ``_level_zeros`` calls given a start)."""
    shared, fallback, started = [], [], []
    real_shared, real_zeros = verify._shared_descent, verify._level_zeros

    def record_shared(*args):
        out = real_shared(*args)
        if out is not None:
            (shared if out else fallback).append(args[1].shape[0])
        return out

    def record_zeros(*args):
        if len(args) > 5 and args[5] is not None and args[1].shape[1] > 2:
            started.append(args)
        return real_zeros(*args)

    verify._shared_descent, verify._level_zeros = record_shared, record_zeros
    try:
        stage_counts(decays, coeffs)
    finally:
        verify._shared_descent, verify._level_zeros = real_shared, real_zeros
    evals = [_newton_evals(started, start) for start in (True, False)]
    return (f"shared rows {sum(shared)}, fell back {len(fallback)} of "
            f"{len(shared) + len(fallback)} calls, Newton per bracket "
            f"{evals[0]:.2f} from H (two-term start {evals[1]:.2f})")


def _newton_evals(calls: list, start: bool) -> float:
    """Mean Newton evaluations per bracket of the recorded ``_level_zeros``
    calls, with their start or without: a bracket not converged within s
    steps reads NaN when ``verify._MAX_STEPS`` is s."""
    steps, total, brackets = verify._MAX_STEPS, 0, 0
    try:
        for args in calls:
            _, _, _, sign, pick = args[:5]
            r, j = np.nonzero((sign[:, :-1] != sign[:, 1:]) & pick[:, None])
            brackets += r.size
            for s in range(steps + 1):
                verify._MAX_STEPS = s
                left = int(np.isnan(verify._level_zeros(*args[: 6 if start else 5])[r, j]).sum())
                total += left
                if not left:
                    break
    finally:
        verify._MAX_STEPS = steps
    return total / brackets if brackets else float("nan")


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
        slots = verify._fixed_model_slots(model, states)
        print(f"fixed {name:16s} {FIXED_STATES:7d} states  certified "
              f"{_stages(stage_counts(*slots))}  {shared_readings(*slots)}")

    if dumps and args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh, indent=2, sort_keys=True)
        print(f"violation dumps written to {args.dump}", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
