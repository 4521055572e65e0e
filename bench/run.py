"""Run one workload of the termshapes benchmark and print its metrics.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in fresh single-
threaded processes (``worker.py``): with ``--trace 0``, four that only
set up, then one that sets up and measures; the end-to-end metrics are
printed and ``setup_s`` is the median of the five set-up times.  With
``--trace 1`` one traced process reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "classify", "construct", "fixed_model")
SETUP_ONLY_PROCESSES = 4
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
#: One thread per process: numpy's BLAS pool would otherwise start one
#: per core.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _worker(args, role: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    env = {**os.environ, **THREAD_ENV}
    t0 = time.monotonic()
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=args.seconds + 120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "termshapes" / "__init__.py").is_file():
        sys.stderr.write(f"no termshapes sources under {ROOT / 'src'}\n")
        return 2

    setups = []
    if not args.trace:
        setups = [_worker(args, "setup")["setup_s"] for _ in range(SETUP_ONLY_PROCESSES)]
    run = _worker(args, "measure")
    setups.append(run["setup_s"])

    diagnostics = {k: v for k, v in run.items() if k != "layers"}
    sys.stderr.write(json.dumps({**diagnostics, "setups_s": setups}) + "\n")

    if args.trace:
        from tracing import LAYER_METRICS

        metrics = {
            name: {"value": run["layers"][name], "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
    else:
        values = {**{k: run[k] for k in END_TO_END}, "setup_s": statistics.median(setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
