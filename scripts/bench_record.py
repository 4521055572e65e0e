#!/usr/bin/env python3
"""Record the benchmark and the acceptance-criterion times in one file.

    python3 scripts/bench_record.py --label 2ad70d1 --seeds 1 2 3

Runs every workload that ``BENCHMARK.json`` lists, once per seed,
through ``bench/run.py --trace 0`` at the file's run length, then the
acceptance criteria (``pytest tests/test_acceptance.py -s``), and writes
``BENCH_<label>.json`` at the root of this checkout.  The file holds the
machine (core count, Python, numpy, mpmath), each end-to-end metric's
median, interquartile range, run count and per-seed values, the share
of failed operations, and each criterion's time against its budget.

Runs go one after the other, so a run never shares the machine with
another.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION = re.compile(
    r"ACCEPTANCE (\d+) \((.*?)\): (PASS|FAIL) .*\[([\d.]+)s of (\d+)s budget\]"
)


def _spread(values: list[float]) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values),
            "values": values}


def _run_workload(name: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _criteria() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q",
           "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return {
        number: {"title": title, "status": status, "seconds": float(sec),
                 "budget_s": float(budget)}
        for number, title, status, sec, budget in CRITERION.findall(proc.stdout)
    }


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.+-]+", args.label):
        parser.error("label may hold letters, digits, '_', '.', '+' and '-' only")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for seed in args.seeds:
            runs.append(_run_workload(name, seed, seconds))
            sys.stderr.write(f"{name} seed {seed}: {json.dumps(runs[-1]['metrics'])}\n")
        workloads[name] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": {
                m["name"]: {"unit": m["unit"], "better": m["better"],
                            **_spread([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]
            },
        }
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    record = {
        "label": args.label,
        "source": commit or "unknown",
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": _version("numpy"),
                    "mpmath": _version("mpmath")},
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": workloads,
        "acceptance": _criteria(),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
