"""Spans around the package's public functions, and the per-layer
metrics computed from them.

``Tracer.install`` wraps every public function of each layer module
wherever it is looked up: in its own module and in every module of the
package that imported it by name.  Each call records a span (name,
start, end, parent span).  Spans are kept in flat arrays while the run
lasts and written out when it ends.  A layer's self time is its span's
duration minus the time covered by the child spans named in the metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "verify", "attain", "classify", "descartes", "vasicek", "signseq")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "termshapes") -> None:
        """Wrap the public functions of every layer."""
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def save(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


#: Per-layer metric name -> unit, in the order they are reported.
LAYER_METRICS = {
    "verify.sweep_theorem.self_us_per_row": "us/row",
    "verify.recheck_rows": "per_1e5_rows",
    "verify.fixed_model.self_us_per_item": "us/item",
    "cli.main.self_ms_per_call": "ms/call",
    "signseq.shape_of.calls_per_item": "calls/item",
    "signseq.self_us_per_item": "us/item",
    "vasicek.ou_exact_step.ms_per_call": "ms/call",
    "vasicek.coefficients.us_per_call": "us/call",
    "classify.self_us_per_call": "us/call",
    "descartes.sseq_of_dpoly.ms_per_call": "ms/call",
    "descartes.sseq_of_dpoly.calls_per_item": "calls/item",
    "descartes.scan_attempts_per_call": "count",
    "descartes.eval_dpoly.calls_per_item": "calls/item",
    "descartes.interpolate_prescribed_zeros.ms_per_call": "ms/call",
    "attain.construct.self_ms_per_call": "ms/call",
    "attain.interpolations_per_construct": "count",
    "attain.verify_solution.ms_per_call": "ms/call",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, items: int, sweep_rows: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``items`` counts the workload's items over the traced run and
    ``sweep_rows`` the rows of its ``sweep_theorem`` calls.
    """
    import numpy as np

    names = tracer.names
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
        tracer.start, dtype=np.float64
    )
    layer_of = [name.split(".", 1)[0] for name in names]

    def ids(*wanted) -> set[int]:
        return {names.index(w) for w in wanted if w in names}

    def layer_ids(*layers) -> set[int]:
        return {k for k, layer in enumerate(layer_of) if layer in layers}

    def spans(idset) -> np.ndarray:
        return np.flatnonzero(np.isin(nid, sorted(idset)))

    def nearest(children, targets, stop_ids=frozenset(), direct=False):
        """For each child span, the target span that encloses it, or -1.

        The walk up the parents stops at a span whose name is in
        stop_ids (the child is nested in another counted span), and
        after one step with ``direct``."""
        target_set = set(targets.tolist())
        found = []
        for j in children.tolist():
            a = int(parent[j])
            hit = -1
            while a != -1:
                if a in target_set:
                    hit = a
                    break
                if direct or int(nid[a]) in stop_ids:
                    break
                a = int(parent[a])
            found.append(hit)
        return np.array(found, dtype=np.int64)

    def self_time(targets, child_ids, direct=False) -> float:
        """Summed durations of the targets minus the time covered by their
        outermost descendants (direct children with ``direct``) in child_ids."""
        children = spans(child_ids)
        owner = nearest(children, targets, child_ids, direct)
        covered = float(dur[children[owner >= 0]].sum()) if children.size else 0.0
        return float(dur[targets].sum()) - covered

    def count_inside(child_ids, ancestor_ids, direct=False) -> int:
        owner = nearest(spans(child_ids), spans(ancestor_ids), direct=direct)
        return int(np.count_nonzero(owner >= 0))

    def mean_ms(name) -> float:
        sp = spans(ids(name))
        return 1e3 * _ratio(float(dur[sp].sum()), sp.size)

    every = set(range(len(names)))
    out: dict[str, float] = {}
    classify_ids = ids("classify.classify_forward", "classify.classify_yield")

    sweeps = spans(ids("verify.sweep_theorem"))
    out["verify.sweep_theorem.self_us_per_row"] = 1e6 * _ratio(
        self_time(sweeps, classify_ids), sweep_rows
    )
    out["verify.recheck_rows"] = 1e5 * _ratio(
        count_inside(ids("classify.classify_forward"), ids("verify.sweep_theorem")),
        sweep_rows,
    )

    fixed = spans(ids("verify.strict_attainability_mc", "verify.state_space_map"))
    out["verify.fixed_model.self_us_per_item"] = 1e6 * _ratio(
        self_time(fixed, layer_ids("vasicek", "signseq")), items
    )

    mains = spans(ids("cli.main"))
    out["cli.main.self_ms_per_call"] = 1e3 * _ratio(
        self_time(mains, layer_ids("verify", "attain")), mains.size
    )

    out["signseq.shape_of.calls_per_item"] = _ratio(
        spans(ids("signseq.shape_of")).size, items
    )
    out["signseq.self_us_per_item"] = 1e6 * _ratio(
        self_time(spans(layer_ids("signseq")), every, direct=True), items
    )

    out["vasicek.ou_exact_step.ms_per_call"] = mean_ms("vasicek.ou_exact_step")
    coeff = spans(ids("vasicek.l_coefficients", "vasicek.m_coefficients"))
    out["vasicek.coefficients.us_per_call"] = 1e6 * _ratio(
        float(dur[coeff].sum()), coeff.size
    )

    classifies = spans(classify_ids)
    out["classify.self_us_per_call"] = 1e6 * _ratio(
        self_time(classifies, every, direct=True), classifies.size
    )

    scans = spans(ids("descartes.sseq_of_dpoly"))
    out["descartes.sseq_of_dpoly.ms_per_call"] = mean_ms("descartes.sseq_of_dpoly")
    out["descartes.sseq_of_dpoly.calls_per_item"] = _ratio(scans.size, items)
    out["descartes.scan_attempts_per_call"] = _ratio(
        count_inside(
            ids("descartes.basis_values"), ids("descartes.sseq_of_dpoly"), direct=True
        ),
        scans.size,
    )
    out["descartes.eval_dpoly.calls_per_item"] = _ratio(
        spans(ids("descartes.eval_dpoly")).size, items
    )
    out["descartes.interpolate_prescribed_zeros.ms_per_call"] = mean_ms(
        "descartes.interpolate_prescribed_zeros"
    )

    constructs = spans(ids("attain.construct"))
    out["attain.construct.self_ms_per_call"] = 1e3 * _ratio(
        self_time(constructs, layer_ids("descartes")), constructs.size
    )
    out["attain.interpolations_per_construct"] = _ratio(
        count_inside(
            ids("descartes.interpolate_prescribed_zeros"), ids("attain.construct")
        ),
        constructs.size,
    )
    out["attain.verify_solution.ms_per_call"] = mean_ms("attain.verify_solution")
    return out
