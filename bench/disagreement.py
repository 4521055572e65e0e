"""Count sweep rows on which the batch scan and the careful classifier
disagree.

    python3 bench/disagreement.py

The rows are those of ``SweepConfig(regime, rho_class, n_samples=10000,
seed=seed)`` for the five strata of acceptance criterion 4 (seeds 41 to
45).  Each row's forward and yield shapes are read once from the float32
batch scan that ``sweep_theorem`` uses and once from ``classify_forward``
and ``classify_yield``; the script prints the disagreements per stratum
and the first few rows where they occur.  It takes about two minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from termshapes import classify, verify  # noqa: E402
from termshapes.vasicek import ScaleRegime  # noqa: E402

SWEEPS = (
    (ScaleRegime.SEPARATED, "nonnegative", 41),
    (ScaleRegime.SEPARATED, "negative", 42),
    (ScaleRegime.PROXIMAL, "nonnegative", 43),
    (ScaleRegime.PROXIMAL, "negative", 44),
    (ScaleRegime.CRITICAL, "any", 45),
)


#: Rows per stratum.  The reference figure in README.md holds for these
#: rows only: ``sample_instances`` draws arrays of this length.
ROWS = 10_000


def main() -> int:
    total_rows = total_diff = 0
    for regime, rho_class, seed in SWEEPS:
        cfg = verify.SweepConfig(regime, rho_class, n_samples=ROWS, seed=seed)
        inst = verify.sample_instances(cfg, np.random.default_rng(seed), ROWS)
        scans = verify._scan_curves(*verify._slot_arrays(inst, regime))
        batch = {curve: verify._shape_codes(*scans[curve]) for curve in scans}
        diffs = []
        for i in range(ROWS):
            model, z = verify.instance_model(inst, i)
            careful = {
                "forward": classify.classify_forward(model, z).shape,
                "yield": classify.classify_yield(model, z).shape,
            }
            for curve, shape in careful.items():
                if verify.shape_code(shape) != batch[curve][i]:
                    got = verify.decode_shape(int(batch[curve][i]))
                    diffs.append(f"row {i} {curve}: batch {got}, careful {shape}")
        total_rows += ROWS
        total_diff += len(diffs)
        print(f"{regime}/{rho_class} seed {seed}: {len(diffs)} of {2 * ROWS} curves differ")
        for line in diffs[:5]:
            print(f"  {line}")
    print(f"total: {total_diff} of {2 * total_rows} curves ({total_rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
