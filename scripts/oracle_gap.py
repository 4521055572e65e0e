#!/usr/bin/env python3
"""Count where the sign engines disagree with the 50-digit oracle.

    python3 scripts/oracle_gap.py

For each family of exponential sums it prints one line per engine,
``descartes.sseq_of_dpoly`` and the batch scan ``verify._scan_curves``
(forward curve for the F kind, yield for G): the sums, those whose
coefficient sum lies inside the x = 0 band (|sum a| <= ZERO_EPS sum |a|,
read as a boundary zero), and the disagreements with
``tests/oracle.py``'s (first sign, change count) and the raises, each
split into outside / inside that band.  The first few disagreeing or
raising indices follow.  The families:

- ``scripts/scan_digest.py``'s four sum families (random, near-equal
  decays, clustered and far-out prescribed zeros);
- unconstrained interpolants: 5 terms, decays U(0.05, 4), zeros
  U(0.1, 5) with no spacing rule, 1,000 per kind, seed 0;
- the ``classify`` workload's 37 confirmed clustered-zero interpolants.

The package is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import scan_digest  # noqa: E402
import workloads  # noqa: E402
from termshapes import descartes, verify  # noqa: E402


def unconstrained(seed: int = 0, per_kind: int = 1000) -> list[descartes.DPolynomial]:
    rng = np.random.default_rng(seed)
    polys = []
    for kind in "FG":
        for _ in range(per_kind):
            decays = tuple(np.sort(rng.uniform(0.05, 4.0, 5))[::-1])
            zeros = np.sort(rng.uniform(0.1, 5.0, 4))
            polys.append(descartes.interpolate_prescribed_zeros(descartes.ExpBasis(kind, decays), zeros))
    return polys


def classify_clustered() -> list[descartes.DPolynomial]:
    polys = []
    for kind, decays, zeros in workloads._clustered_cases():
        p = descartes.interpolate_prescribed_zeros(descartes.ExpBasis(kind, decays), zeros)
        if workloads._confirmed(kind, decays, p.coefficients, zeros):
            polys.append(p)
    return polys


def _engine(p):
    seq, _ = descartes.sseq_of_dpoly(p)
    return (int(seq.signs[0]), len(seq) - 1) if len(seq) else (0, 0)


def _batch(polys):
    """``_scan_curves`` answers, one call per kind and size, or the error."""
    out = [None] * len(polys)
    groups = {}
    for i, p in enumerate(polys):
        groups.setdefault((p.basis.kind, len(p.basis)), []).append(i)
    for (kind, _), rows in groups.items():
        curve = "forward" if kind == "F" else "yield"
        decays = np.array([polys[i].basis.decays[::-1] for i in rows])
        coeffs = np.array([polys[i].coefficients[::-1] for i in rows])
        for chunk in np.array_split(np.arange(len(rows)), max(1, len(rows) // 256)):
            try:
                first, changes = verify._scan_curves(decays[chunk], coeffs[chunk], (curve,))[curve]
            except (ValueError, RuntimeError) as exc:
                for r in chunk:
                    out[rows[r]] = exc
                continue
            for r, f, c in zip(chunk, first.tolist(), changes.tolist()):
                out[rows[r]] = (f, c)
    return out


def report(name: str, polys) -> None:
    truth = [oracle.count(p.basis.kind, p.basis.decays, p.coefficients) for p in polys]
    band = [descartes.boundary_zero(p.coefficients) for p in polys]
    engines = {"sseq_of_dpoly": [], "_scan_curves": _batch(polys)}
    for p in polys:
        try:
            engines["sseq_of_dpoly"].append(_engine(p))
        except (ValueError, RuntimeError) as exc:
            engines["sseq_of_dpoly"].append(exc)
    for engine, got in engines.items():
        raised = [i for i, g in enumerate(got) if isinstance(g, Exception)]
        wrong = [i for i, (g, t) in enumerate(zip(got, truth))
                 if not isinstance(g, Exception) and g != t]
        split = lambda rows: (sum(not band[i] for i in rows), sum(band[i] for i in rows))  # noqa: E731
        print(f"{name:>18} {engine:>13}: {len(polys)} sums, {sum(band)} in band; "
              "disagree %d / %d, raise %d / %d (outside / inside the band)"
              % (*split(wrong), *split(raised)))
        if wrong or raised:
            print(f"{'':>34}disagree {wrong[:8]} raise {raised[:8]}")


def main() -> int:
    families = dict(scan_digest._sum_families())
    families["unconstrained"] = unconstrained()
    families["classify-clustered"] = classify_clustered()
    for name, polys in families.items():
        report(name, polys)
    return 0


if __name__ == "__main__":
    sys.exit(main())
