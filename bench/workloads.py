"""The four benchmark workloads: their inputs, operations and checks.

Each workload builds one *round*: a fixed list of operations, each one
call into the program.  A run repeats whole rounds, so every run
attempts the same operations in the same proportions.  An operation's
output is reduced to a plain *view* (shapes, sign sequences, zeros,
CLI text); the checks read only views and the references in
``reference.py``.  Each workload also lists corrupted views that its
checks must reject.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from termshapes import attain, classify, cli, descartes, signseq, vasicek, verify


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    view: Callable[[object], object]
    check: Callable[[object, dict], list[str]]
    items: int = 1
    rows: int = 0
    #: Fails today because of a documented fault; counted in ``failed``.
    known_fault: bool = False
    extra: dict = field(default_factory=dict)


STRATA = (
    ("separated", "nonnegative"),
    ("separated", "negative"),
    ("proximal", "nonnegative"),
    ("proximal", "negative"),
    ("critical", "any"),
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream])


def _sample_pairs(rng: np.random.Generator, regime: str, rho_class: str, n: int) -> list:
    """n (model, state) pairs drawn by the program's own sweep sampler."""
    cfg = verify.SweepConfig(vasicek.ScaleRegime(regime), rho_class, n_samples=n)
    inst = verify.sample_instances(cfg, rng, n)
    return [verify.instance_model(inst, i) for i in range(n)]


def _params_of(model: vasicek.VasicekModel) -> dict:
    return {
        "lam": model.lam,
        "theta": model.theta,
        "kappa": model.kappa,
        "sigma": model.sigma,
        "rho": model.rho,
    }


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build(self) -> list[Op]:
        raise NotImplementedError

    def corruptions(self, ops: list[Op], views: dict) -> list[tuple[str, int, object]]:
        """(name, op index, corrupted view) triples the checks must reject."""
        raise NotImplementedError


# --------------------------------------------------------------------- sweep

#: Rows per sweep call; each stratum is swept once at every size.
SWEEP_ROWS = (500, 1000, 2000, 3000)
#: One more call per round at the CLI's default ``sweep --samples``,
#: more rows than one ``verify._CHUNK`` (8,192), on criterion 4's first
#: stratum.
SWEEP_LARGE = (("separated", "nonnegative"), 10_000)


def _sweep_view(report) -> dict:
    return report.to_dict()


def _check_sweep(regime: str, rho_class: str, rows: int, view: dict, _views) -> list[str]:
    problems = []
    if not view["passed"]:
        problems.append("report did not pass")
    allowed = ref.admissible(regime, rho_class == "negative")
    changes = {}
    for curve in ("forward", "yield"):
        hist = view[f"{curve}_histogram"]
        if view["samples"] != rows or sum(hist.values()) != rows:
            problems.append(f"{curve} histogram totals {sum(hist.values())} != {rows} rows")
        bad = sorted(set(hist) - allowed)
        if bad:
            problems.append(f"{curve} histogram has inadmissible shapes {bad}")
        changes[curve] = sum(
            count * ref.SHAPES[label][1] for label, count in hist.items() if label in ref.SHAPES
        )
    if changes["yield"] > changes["forward"]:
        problems.append(
            f"yield change count {changes['yield']} exceeds forward {changes['forward']}"
        )
    return problems


class Sweep(Workload):
    """``verify.sweep_theorem`` over the five regime x correlation strata."""

    name = "sweep"

    def build(self) -> list[Op]:
        rng = _rng(self.seed, 1)
        ops = []
        jobs = [(stratum, rows) for rows in SWEEP_ROWS for stratum in STRATA] + [SWEEP_LARGE]
        for (regime, rho_class), rows in jobs:
            cfg = verify.SweepConfig(
                regime=vasicek.ScaleRegime(regime),
                rho_class=rho_class,
                n_samples=rows,
                seed=int(rng.integers(2**31)),
            )
            ops.append(
                Op(
                    label=f"sweep {regime}/{rho_class} {rows} rows seed {cfg.seed}",
                    call=lambda cfg=cfg: verify.sweep_theorem(cfg),
                    view=_sweep_view,
                    check=lambda v, vs, r=regime, c=rho_class, n=rows: _check_sweep(
                        r, c, n, v, vs
                    ),
                    items=rows,
                    rows=rows,
                )
            )
        return ops

    def corruptions(self, ops, views):
        out = []
        for i, view in list(views.items())[:1]:
            view = json.loads(json.dumps(view))
            hist = view["forward_histogram"]
            hist[max(hist, key=hist.get)] -= 1
            hist["other(k=5,first=+)"] = 1
            out.append(("histogram with an inadmissible shape", i, view))
        return out


# ------------------------------------------------------------------ classify

CLASSIFY_PAIRS_PER_STRATUM = 20
SEEDED_INTERPOLANTS = 60
ZERO_RTOL = 1e-6
#: Clustered-zero interpolants: bases, cluster starts and spacings.  The
#: default scan grid (4096 samples over 20 / slowest decay) is coarser
#: than the spacing, so the scanner steps over the zeros.
CLUSTER_BASES = ((3.0, 2.5, 2.0, 1.5), (4.0, 3.0, 2.5, 2.0, 1.5))
CLUSTER_STARTS = (0.0, 0.5, 1.0, 2.0, 4.0)
CLUSTER_SPACINGS = (5e-4, 1e-3)


def _report_view(report) -> dict:
    return {
        "curve": report.curve,
        "label": str(report.shape),
        "signs": ref.parse_signs(str(report.derivative_sseq)),
        "zeros": [e.location for e in report.extrema],
        "kinds": [e.kind for e in report.extrema],
    }


def _scan_view(result) -> dict:
    sseq, zeros = result
    return {"signs": ref.parse_signs(str(sseq)), "zeros": list(zeros)}


def _check_signs(kind, decays, coeffs, signs, zeros) -> list[str]:
    """Checks shared by every scanned exponential sum."""
    problems = []
    if signs != ref.reduce_signs(signs):
        problems.append(f"sign sequence {signs} is not reduced")
    if len(zeros) != max(0, len(signs) - 1):
        problems.append(f"{len(zeros)} zeros for {len(signs)} signs")
    if list(zeros) != sorted(zeros) or any(z <= 0 for z in zeros):
        problems.append("zeros are not positive and increasing")
    coef_signs = [(a > 0) - (a < 0) for a in coeffs]
    if not ref.is_subsequence(signs, coef_signs):
        problems.append(f"signs {signs} not a subsequence of coefficient signs {coef_signs}")
    first = ref.initial_sign(coeffs)
    if signs and first is not None and signs[0] != first:
        problems.append(f"first sign {signs[0]} != sign of the coefficient sum {first}")
    last = ref.terminal_sign(kind, decays, coeffs)
    if signs and last is not None and signs[-1] != last:
        problems.append(f"last sign {signs[-1]} != analytic terminal sign {last}")
    if signs and not problems and not ref.sign_test(kind, decays, coeffs, zeros, signs):
        problems.append("50-digit sign test failed at the reported zeros")
    return problems


def _check_report(op_extra: dict, view: dict, views: dict) -> list[str]:
    kind, decays, coeffs = op_extra["kind"], op_extra["decays"], op_extra["coeffs"]
    problems = []
    ref_decays, ref_coeffs, scale = ref.derivative_terms(op_extra["params"], op_extra["z"])
    if len(ref_decays) != len(decays) or any(
        abs(float(d) - e) > 1e-14 * float(d) for d, e in zip(ref_decays, decays)
    ):
        problems.append(f"program decays {decays} differ from {ref_decays}")
    elif any(abs(float(a) - b) > 1e-12 * scale for a, b in zip(ref_coeffs, coeffs)):
        problems.append("program coefficients differ from the reference")
    label = view["label"]
    allowed = ref.admissible(op_extra["regime"], op_extra["params"]["rho"] < 0)
    if label not in allowed:
        problems.append(f"shape {label} not admissible")
    signs = view["signs"]
    key = ref.SHAPES.get(label)
    if key is None or (key[0] != (signs[0] if signs else 0)) or key[1] != max(0, len(signs) - 1):
        problems.append(f"shape {label} does not match signs {signs}")
    kinds = ["hump" if a > 0 else "dip" for a in signs[:-1]]
    if view["kinds"] != kinds:
        problems.append(f"extremum kinds {view['kinds']} do not follow signs {signs}")
    if view["curve"] != op_extra["curve"]:
        problems.append(f"curve {view['curve']} != {op_extra['curve']}")
    if op_extra["curve"] == "yield":
        forward = views.get(op_extra["forward_index"])
        if forward is None or not ref.heads(signs, forward["signs"]):
            problems.append("yield signs do not head the forward signs")
    return problems + _check_signs(kind, decays, coeffs, signs, view["zeros"])


def _check_interpolant(op_extra: dict, view: dict, _views) -> list[str]:
    prescribed = op_extra["prescribed"]
    problems = []
    zeros = view["zeros"]
    if len(zeros) != len(prescribed):
        problems.append(f"{len(zeros)} zeros reported, {len(prescribed)} prescribed")
    elif any(abs(z - r) > ZERO_RTOL * max(1.0, r) for z, r in zip(zeros, prescribed)):
        problems.append(f"zeros {zeros} differ from prescribed {list(prescribed)}")
    return problems + _check_signs(
        op_extra["kind"], op_extra["decays"], op_extra["coeffs"], view["signs"], zeros
    )


def _draw_extremal(rng: np.random.Generator, n: int) -> tuple[tuple, tuple]:
    """Decays and zeros of an extremal interpolant with n terms.

    Decays keep a relative separation of 10% and the zeros lie within 15
    e-foldings of the fastest decay, at least 5% of that span apart.
    """
    while True:
        decays = np.sort(rng.uniform(0.05, 4.0, n))[::-1]
        if np.all(decays[:-1] / decays[1:] > 1.1):
            break
    z_max = min(10.0, 15.0 / float(decays[0]))
    while True:
        zeros = np.sort(rng.uniform(0.05 * z_max, z_max, n - 1))
        if n == 2 or np.all(np.diff(zeros) > 0.05 * z_max):
            break
    return tuple(float(d) for d in decays), tuple(float(z) for z in zeros)


def _clustered_cases() -> list[tuple[str, tuple, tuple]]:
    """Seed-independent interpolants with clustered zeros, kept only when
    50-digit evaluation of the float64 interpolant confirms all n-1 sign
    changes."""
    cases = []
    for decays in CLUSTER_BASES:
        n = len(decays)
        for kind in ("F", "G"):
            for start in CLUSTER_STARTS:
                for step in CLUSTER_SPACINGS:
                    zeros = tuple(
                        start + step * (k + (1 if start == 0.0 else 0)) for k in range(n - 1)
                    )
                    cases.append((kind, decays, zeros))
    return cases


def _confirmed(kind, decays, coeffs, zeros) -> bool:
    probes = ref.probe_points(zeros, min(decays))
    signs = [int(np.sign(float(ref.mp_value(kind, decays, coeffs, x)))) for x in probes]
    return all(s != 0 for s in signs) and all(a == -b for a, b in zip(signs, signs[1:]))


class Classify(Workload):
    """Careful classification of sampled curves and scans of extremal
    interpolants, clustered-zero cases included."""

    name = "classify"

    def build(self) -> list[Op]:
        rng = _rng(self.seed, 2)
        ops: list[Op] = []
        for regime, rho_class in STRATA:
            pairs = _sample_pairs(rng, regime, rho_class, CLASSIFY_PAIRS_PER_STRATUM)
            for pair, (model, z) in enumerate(pairs):
                params = _params_of(model)
                forward_index = len(ops)
                for curve in ("forward", "yield")[: 1 + pair % 2]:
                    poly = (vasicek.l_coefficients if curve == "forward" else vasicek.m_coefficients)(
                        model, z
                    )
                    fn = "classify_forward" if curve == "forward" else "classify_yield"
                    extra = {
                        "curve": curve,
                        "kind": poly.basis.kind,
                        "decays": poly.basis.decays,
                        "coeffs": poly.coefficients,
                        "params": params,
                        "z": z,
                        "regime": ref.regime_of(*params["lam"]),
                        "forward_index": forward_index,
                    }
                    ops.append(
                        Op(
                            label=f"{fn} {regime}/{rho_class}",
                            call=lambda fn=fn, model=model, z=z: getattr(classify, fn)(model, z),
                            view=_report_view,
                            check=lambda v, vs, e=extra: _check_report(e, v, vs),
                            extra=extra,
                        )
                    )
        rng = _rng(self.seed, 3)
        cases = [
            (("FG"[i % 2], *_draw_extremal(rng, 2 + (i // 2) % 4)), False)
            for i in range(SEEDED_INTERPOLANTS)
        ]
        cases += [(case, True) for case in _clustered_cases()]
        for (kind, decays, zeros), clustered in cases:
            poly = descartes.interpolate_prescribed_zeros(descartes.ExpBasis(kind, decays), zeros)
            if clustered and not _confirmed(kind, decays, poly.coefficients, zeros):
                continue
            extra = {"kind": kind, "decays": decays, "coeffs": poly.coefficients, "prescribed": zeros}
            ops.append(
                Op(
                    label=f"sseq_of_dpoly {kind}{len(decays)} zeros {zeros}",
                    call=lambda poly=poly: descartes.sseq_of_dpoly(poly),
                    view=_scan_view,
                    check=lambda v, vs, e=extra: _check_interpolant(e, v, vs),
                    known_fault=clustered,
                    extra=extra,
                )
            )
        return ops

    def corruptions(self, ops, views):
        out = []
        for i, view in views.items():
            op = ops[i]
            if op.extra.get("curve") == "forward" and view["zeros"] and not out:
                flipped = dict(view, signs=[-s for s in view["signs"]])
                flipped["label"] = _mirror(view["label"])
                flipped["kinds"] = ["hump" if a > 0 else "dip" for a in flipped["signs"][:-1]]
                out.append(("flipped shape", i, flipped))
                out.append(("shifted extremum", i, dict(view, zeros=_shift_last(view["zeros"], op))))
        for i, view in views.items():
            if "prescribed" in ops[i].extra and not ops[i].known_fault:
                # small enough that every probe stays in its stretch, so only
                # the zero-location check can reject it
                zeros = list(view["zeros"])
                zeros[-1] += 10.0 * ZERO_RTOL * max(1.0, zeros[-1])
                out.append(("zero moved by ten times its tolerance", i, dict(view, zeros=zeros)))
                break
        return out


def _mirror(label: str) -> str:
    """The shape with every derivative sign flipped (hump <-> dip)."""
    first, changes = ref.SHAPES[label]
    return next((k for k, v in ref.SHAPES.items() if v == (-first, changes)), "HDHDH")


def _shift_last(zeros, op: Op) -> list[float]:
    """Move the last zero far enough right that the probe before it lands
    past its true position."""
    zeros = list(zeros)
    gap = zeros[-1] - (zeros[-2] if len(zeros) > 1 else 0.0)
    zeros[-1] += 10.0 * max(gap, 1.0 / min(op.extra["decays"]))
    return zeros


# ----------------------------------------------------------------- construct

BASES = {
    "separated": (1.0, 3.0),
    "critical": (0.7, 1.4),
    "proximal": (1.0, 1.5),
}
SEVEN = ("normal", "inverse", "humped", "dipped", "HD", "DH", "HDH")
CATALOG = {"separated": SEVEN, "critical": SEVEN, "proximal": SEVEN + ("DHD", "HDHD")}
SEEDED_PRESCRIPTIONS = 54
#: Routes with control over the extrema locations.
LOCATED = [(b, s) for b in ("separated", "critical", "proximal") for s in ("humped", "dipped", "HD")] + [
    ("separated", "DH"),
    ("separated", "HDH"),
]


def _base(regime: str) -> vasicek.VasicekModel:
    return vasicek.VasicekModel(
        lam=BASES[regime], theta=(0.01, 0.02), kappa=(1.0, 0.8), kappa0=0.005, sigma=(0.0, 0.0)
    )


def _construct_view(result) -> dict:
    sol, ver = result
    return {
        "passed": ver.passed,
        "classified": str(ver.classified_shape),
        "rho": sol.rho,
        "sigma": list(sol.model.sigma),
        "params": _params_of(sol.model),
        "z": list(sol.state),
        "zeros": list(sol.prescribed_zeros),
    }


def _check_construct(label: str, curve: str, view: dict, _views) -> list[str]:
    problems = []
    if not view["passed"] or view["classified"] != label:
        problems.append(f"verification failed: classified {view['classified']}")
    if not abs(view["rho"]) <= 1.0 or any(not s >= 0.0 for s in view["sigma"]):
        problems.append(f"rho {view['rho']} or sigma {view['sigma']} out of range")
    decays, coeffs, _ = ref.derivative_terms(view["params"], view["z"])
    kind = "F" if curve == "forward" else "G"
    if not ref.sign_test(kind, decays, coeffs, view["zeros"], ref.pure_signs(label)):
        problems.append("50-digit sign test failed at the prescribed zeros")
    return problems


class Construct(Workload):
    """``attain.construct_target`` for every admissible shape of the three
    base regimes and both curves, then seeded extrema prescriptions."""

    name = "construct"

    def build(self) -> list[Op]:
        jobs = [
            (regime, label, curve, None)
            for regime, labels in CATALOG.items()
            for label in labels
            for curve in ("forward", "yield")
        ]
        rng = _rng(self.seed, 4)
        for trial in range(SEEDED_PRESCRIPTIONS):
            regime, label = LOCATED[trial % len(LOCATED)]
            k = ref.SHAPES[label][1]
            while True:
                r = np.sort(rng.uniform(0.3, 8.0, k))
                if not np.any(np.diff(r) < 0.3):
                    break
            curve = "forward" if trial % 2 == 0 else "yield"
            jobs.append((regime, label, curve, tuple(float(v) for v in r)))
        ops = []
        for regime, label, curve, extrema in jobs:
            base = _base(regime)
            ops.append(
                Op(
                    label=f"construct {label}/{curve} {regime}" + (f" at {extrema}" if extrema else ""),
                    call=lambda b=base, s=label, c=curve, e=extrema: attain.construct_target(
                        s, b, curve=c, extrema=e
                    ),
                    view=_construct_view,
                    check=lambda v, vs, s=label, c=curve: _check_construct(s, c, v, vs),
                    extra={"label": label, "curve": curve},
                )
            )
        return ops

    def corruptions(self, ops, views):
        out = []
        for i, view in views.items():
            positive = [z for z in view["zeros"] if z > 0]
            if len(positive) >= 2 and not out:
                slowest = min(view["params"]["lam"])
                zeros = list(view["zeros"])
                gap = zeros[-1] - zeros[-2]
                zeros[-1] += 10.0 * max(gap, 1.0 / slowest)
                out.append(("shifted extremum", i, dict(view, zeros=zeros)))
                out.append(("flipped shape", i, dict(view, classified=_mirror(view["classified"]))))
        return out


# --------------------------------------------------------------- fixed_model

SIM_T = "0.01"
SIM_PATHS = 2000
#: HDH runs on more paths than ``verify._CHUNK`` (8,192 rows), so the
#: batch scan works through several full chunks, as a call at the CLI's
#: default of 100,000 paths does.  On the yield curve HDH is attained by
#: about 0.07% of the draws at t = 0.01: about 15 expected hits.
SIM_PATHS_LARGE = {("HDH", "forward"): 3 * 8192, ("HDH", "yield"): 20480}
#: Two-factor map grids per correlation class; 96 x 96 states is more
#: than one chunk.
MAP_GRIDS_2F = {"nonnegative": (10, 20, 30, 96), "negative": (10, 20, 30)}
MAP_GRIDS_1F = (100, 200, 400, 800)
ONE_FACTOR_TOL = 1e-3


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_view(result) -> dict:
    code, text = result
    return {"code": code, "stdout": text}


def _check_simulate(label: str, curve: str, view: dict, _views) -> list[str]:
    if view["code"] != 0:
        return [f"exit code {view['code']}"]
    payload = json.loads(view["stdout"])
    problems = []
    if payload["shape"] != label or payload["curve"] != curve:
        problems.append(f"simulated {payload['shape']}/{payload['curve']}")
    if not 0.0 < payload["frequency"] <= 1.0:
        problems.append(f"frequency {payload['frequency']} outside (0, 1]")
    return problems


def _map_rows(view: dict, expect_header: list[str]) -> tuple[list[list[str]], list[str]]:
    if view["code"] != 0:
        return [], [f"exit code {view['code']}"]
    rows = list(csv.reader(io.StringIO(view["stdout"])))
    if not rows or rows[0] != expect_header:
        return [], [f"header {rows[:1]}"]
    return rows[1:], []


def _check_map_2f(params: dict, count: int, view: dict, _views) -> list[str]:
    rows, problems = _map_rows(view, ["z1", "z2", "forward_shape", "yield_shape"])
    if problems:
        return problems
    if len(rows) != count:
        return [f"{len(rows)} rows for {count} states"]
    allowed = ref.admissible(ref.regime_of(*params["lam"]), params["rho"] < 0)
    for row in rows:
        if len(row) != 4:
            return [f"malformed row {row}"]
        z1, z2, fwd, yld = row
        if fwd not in allowed or yld not in allowed:
            return [f"inadmissible shapes {fwd}/{yld} at ({z1}, {z2})"]
        if not ref.heads(ref.pure_signs(yld), ref.pure_signs(fwd)):
            return [f"yield {yld} does not head forward {fwd} at ({z1}, {z2})"]
    return []


def _check_map_1f(params: dict, count: int, view: dict, _views) -> list[str]:
    rows, problems = _map_rows(view, ["z", "forward_shape", "yield_shape"])
    if problems:
        return problems
    if len(rows) != count:
        return [f"{len(rows)} rows for {count} states"]
    (f_lo, theta), (y_lo, _) = ref.one_factor_thresholds(
        params["lam"][0], params["kappa"][0], params["sigma"][0], params["theta"][0]
    )
    tol = ONE_FACTOR_TOL * (theta - f_lo)
    for row in rows:
        if len(row) != 3:
            return [f"malformed row {row}"]
        z, fwd, yld = row
        for got, lower in ((fwd, f_lo), (yld, y_lo)):
            want = ref.one_factor_label(float(z), lower, theta, tol)
            if want is not None and got != want:
                return [f"state {z}: {got}, closed form gives {want}"]
    return []


class FixedModel(Workload):
    """The CLI's ``simulate`` and ``map`` subcommands, run in process."""

    name = "fixed_model"

    def build(self) -> list[Op]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.seed, 5)
        base = _base("separated")
        ops = []
        for label in SEVEN:
            for curve in ("forward", "yield"):
                target = attain.ShapeTarget(shape=signseq.shape_from_label(label), curve=curve)
                sol = attain.construct(target, base)
                path = self.workdir / f"sim-{label}-{curve}.json"
                path.write_text(json.dumps(sol.to_dict()), encoding="utf-8")
                paths = SIM_PATHS_LARGE.get((label, curve), SIM_PATHS)
                argv = [
                    "simulate", "--model", str(path), "--shape", label, "--curve", curve,
                    "--t", SIM_T, "--paths", str(paths), "--seed", str(int(rng.integers(2**31))),
                ]
                ops.append(
                    Op(
                        label=f"simulate {label}/{curve}",
                        call=lambda argv=argv: _run_cli(argv),
                        view=_cli_view,
                        check=lambda v, vs, s=label, c=curve: _check_simulate(s, c, v, vs),
                        items=paths,
                        extra={"kind": "simulate"},
                    )
                )
        for rho_class, grids in MAP_GRIDS_2F.items():
            regime = ("separated", "proximal")[int(rng.integers(2))]
            [(model, _)] = _sample_pairs(rng, regime, rho_class, 1)
            params = _params_of(model)
            path = self.workdir / f"map-{rho_class}.json"
            path.write_text(json.dumps(model.to_dict()), encoding="utf-8")
            for n in grids:
                argv = ["map", "--model", str(path), f"--grid=-0.1:0.15:{n},-0.1:0.15:{n}"]
                ops.append(
                    Op(
                        label=f"map {regime}/{rho_class} {n}x{n}",
                        call=lambda argv=argv: _run_cli(argv),
                        view=_cli_view,
                        check=lambda v, vs, p=params, c=n * n: _check_map_2f(p, c, v, vs),
                        items=2 * n * n,
                        extra={"kind": "map2"},
                    )
                )
        model = vasicek.VasicekModel(
            lam=(rng.uniform(0.2, 2.0),),
            kappa=(rng.uniform(0.5, 2.0),),
            sigma=(rng.uniform(0.05, 0.5),),
            theta=(rng.uniform(-0.02, 0.06),),
            kappa0=0.005,
        )
        params = _params_of(model)
        path = self.workdir / "map-one-factor.json"
        path.write_text(json.dumps(model.to_dict()), encoding="utf-8")
        (f_lo, theta), _ = ref.one_factor_thresholds(
            params["lam"][0], params["kappa"][0], params["sigma"][0], params["theta"][0]
        )
        width = theta - f_lo
        for n in MAP_GRIDS_1F:
            argv = ["map", "--model", str(path), f"--grid={f_lo - width!r}:{theta + width!r}:{n}"]
            ops.append(
                Op(
                    label=f"map one-factor {n}",
                    call=lambda argv=argv: _run_cli(argv),
                    view=_cli_view,
                    check=lambda v, vs, p=params, c=n: _check_map_1f(p, c, v, vs),
                    items=2 * n,
                    extra={"kind": "map1"},
                )
            )
        return ops

    def corruptions(self, ops, views):
        first = {}
        for i in views:
            first.setdefault(ops[i].extra["kind"], i)
        out = []
        if "simulate" in first:
            i = first["simulate"]
            payload = dict(json.loads(views[i]["stdout"]), frequency=0.0)
            out.append(("zero frequency", i, dict(views[i], stdout=json.dumps(payload))))
        if "map2" in first:
            i = first["map2"]
            bad = _set_first_row_cell(views[i]["stdout"], 2, "HDHDH")
            out.append(("inadmissible map row", i, dict(views[i], stdout=bad)))
        if "map1" in first:
            # the first state lies a full region width below the humped region
            i = first["map1"]
            bad = _set_first_row_cell(views[i]["stdout"], 1, "humped")
            out.append(("wrong one-factor region", i, dict(views[i], stdout=bad)))
        return out


def _set_first_row_cell(text: str, column: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[column] = value
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


WORKLOADS = {w.name: w for w in (Sweep, Classify, Construct, FixedModel)}

