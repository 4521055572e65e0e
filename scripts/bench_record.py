#!/usr/bin/env python3
"""Record the benchmark and the acceptance-criterion times in one file.

    python3 scripts/bench_record.py --label 2ad70d1 --seeds 1 2 3

Runs every workload that ``BENCHMARK.json`` lists, once per seed,
through ``bench/run.py --trace 0`` at the file's run length, then the
acceptance criteria (``pytest tests/test_acceptance.py -s``) and the
tier-1 suite (``pytest -q --continue-on-collection-errors``), and writes
``BENCH_<label>.json`` at the root of this checkout.  The file holds the
machine (core count, Python, numpy, mpmath), each end-to-end metric's
median, interquartile range, run count and per-seed values, the share
of failed operations, each criterion's time against its budget, and the
tier-1 outcome counts and wall time.

Runs go one after the other, so a run never shares the machine with
another.  Standard library only.

    python3 scripts/bench_record.py --compare ../parent --seeds 1 2 3

compares this checkout with another (the parent commit, say) instead.
Each workload runs once per seed in both checkouts, and the order
alternates from seed to seed.  One line per workload and metric gives
both medians, their ratio, the parent's interquartile range and the
metric's ``BENCHMARK.json`` bound.  A metric reads ``unresolved`` when
the parent's IQR exceeds its bound times the parent's median, and
``worse`` when the median moved the wrong way by more than its bound.
The exit code is 1 if any metric is worse.  No file is written.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION = re.compile(
    r"ACCEPTANCE (\d+) \((.*?)\): (PASS|FAIL) .*\[([\d.]+)s of (\d+)s budget\]"
)
OUTCOME = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")


def _spread(values: list[float]) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values),
            "values": values}


def _run_workload(name: str, seed: int, seconds: int, root: Path = ROOT) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pytest(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def _criteria() -> dict:
    proc = _pytest("tests/test_acceptance.py", "-s")
    return {
        number: {"title": title, "status": status, "seconds": float(sec),
                 "budget_s": float(budget)}
        for number, title, status, sec, budget in CRITERION.findall(proc.stdout)
    }


def _tier1() -> dict:
    """Outcome counts of the tier-1 suite (from pytest's summary line) and
    its wall time."""
    start = time.perf_counter()
    proc = _pytest("--continue-on-collection-errors")
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in OUTCOME.findall(summary)}
    return {"counts": counts, "exit_code": proc.returncode, "wall_s": round(wall, 2)}


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _compare(parent: Path, seeds: list[int], spec: dict) -> int:
    """Alternated parent/change runs; prints one line per metric."""
    worse = False
    print("workload | metric | parent median | change median | ratio | parent IQR | bound"
          " | verdict")
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            sides = [("parent", parent), ("change", ROOT)]
            for side, root in sides[::-1] if k % 2 else sides:
                runs[side].append(_run_workload(name, seed, spec["run_seconds"], root))
        for metric in spec["end_to_end"]:
            before, after = (
                _spread([r["metrics"][metric["name"]]["value"] for r in runs[side]])
                for side in ("parent", "change")
            )
            ratio = after["median"] / before["median"] if before["median"] else math.inf
            change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            if before["iqr"] > metric["bound"] * abs(before["median"]):
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict, worse = "worse", True
            else:
                verdict = "within bound"
            print(f"{name} | {metric['name']} | {before['median']:.6g} | "
                  f"{after['median']:.6g} | {ratio:.3f} | {before['iqr']:.4g} | "
                  f"{metric['bound']:g} | {verdict}")
        shares = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for side, rs in runs.items()}
        correct = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
        print(f"{name} | failed share | {shares['parent']:.4%} | {shares['change']:.4%} | | | |"
              f" correct {correct['parent']} -> {correct['change']}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="names the output BENCH_<label>.json")
    mode.add_argument("--compare", type=Path, metavar="PARENT_DIR",
                      help="compare with the checkout at PARENT_DIR instead")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        if not (args.compare / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {args.compare}")
        return _compare(args.compare.resolve(), args.seeds, spec)
    if not re.fullmatch(r"[\w.+-]+", args.label):
        parser.error("label may hold letters, digits, '_', '.', '+' and '-' only")

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
        "tier1": _tier1(),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
