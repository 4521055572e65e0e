"""One benchmark process for one workload.

Imports the package from the checkout's ``src``, builds the workload's
inputs, runs one untimed warm-up operation and then, unless it only
measures set-up, whole rounds of operations for the requested time.
Afterwards it checks every output, feeds corrupted outputs to the
checks, and prints its figures as one JSON line.  ``run.py`` starts it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _run_rounds(ops, seconds: float) -> dict:
    """Repeat whole rounds until ``seconds`` have passed.

    Every operation is timed on its own.  An operation's view is kept
    from the first round and compared with the view of each later
    repetition.
    """
    latencies: list[float] = []
    rates: list[float] = []
    first: dict[int, object] = {}
    raised: dict[int, str] = {}
    changed = [0] * len(ops)
    round_items = sum(op.items for op in ops)
    rounds = 0
    deadline = time.monotonic() + seconds
    while rounds == 0 or time.monotonic() < deadline:
        busy = 0.0
        for i, op in enumerate(ops):
            t = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                out = exc
            dt = time.perf_counter() - t
            busy += dt
            latencies.append(dt)
            if isinstance(out, Exception):
                view = f"{type(out).__name__}: {out}"
                if rounds == 0:
                    raised[i] = view
            else:
                view = op.view(out)
            if rounds == 0:
                first[i] = view
            elif view != first[i]:
                changed[i] += 1
        rates.append(round_items / busy)
        rounds += 1
    return {
        "latencies": latencies,
        "rates": rates,
        "first": first,
        "raised": raised,
        "changed": changed,
        "rounds": rounds,
        "round_items": round_items,
    }


def _check(op, view, views) -> list[str]:
    try:
        return op.check(view, views)
    except Exception as exc:  # malformed output the check could not read
        return [f"check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import termshapes

    if Path(termshapes.__file__).resolve().parent != (src / "termshapes").resolve():
        sys.stderr.write(f"termshapes imported from {termshapes.__file__}, not {src}\n")
        return 2
    import workloads

    workdir = root / ".bench_out" / f"run-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.build()
        try:
            ops[0].call()  # warm-up, untimed
        except Exception:  # counted as failed in the timed rounds
            pass
        setup_s = time.monotonic() - args.t0
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        result = _run_rounds(ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first, changed, rounds = result["first"], result["changed"], result["rounds"]
    problems = {
        i: [result["raised"][i]] if i in result["raised"] else _check(op, first[i], first)
        for i, op in enumerate(ops)
    }
    failed = sum(rounds if problems[i] else changed[i] for i in range(len(ops)))
    unexpected = [
        f"{ops[i].label}: {'; '.join(problems[i])}"
        for i in range(len(ops))
        if problems[i] and not ops[i].known_fault
    ] + [f"{ops[i].label}: output changed between rounds" for i in range(len(ops)) if changed[i]]

    passing = {i: v for i, v in first.items() if not problems[i]}
    corruptions = workload.corruptions(ops, passing)
    missed = [name for name, i, bad in corruptions if not _check(ops[i], bad, passing)]

    lat = result["latencies"]
    report = {
        "setup_s": setup_s,
        "attempted": rounds * len(ops),
        "failed": failed,
        "correct": not unexpected and bool(corruptions) and not missed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "known_fault_ops": sum(op.known_fault for op in ops),
        "items": rounds * result["round_items"],
        "items_per_s": statistics.median(result["rates"]),
        "mean_items_per_s": rounds * result["round_items"] / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unexpected": unexpected[:10],
        "selftest_rejected": [name for name, _, _ in corruptions if name not in missed],
        "selftest_missed": missed,
    }
    if tracer:
        from tracing import layer_metrics

        tracer.save(root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.npz")
        rows = rounds * sum(op.rows for op in ops)
        report["layers"] = layer_metrics(tracer, report["items"], rows)
        report["spans"] = len(tracer.start)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
