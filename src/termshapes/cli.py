"""Command-line interface.

Subcommands: classify, attain, sweep, map, simulate, curves.  Models
load from a plain JSON document with keys {d, lambda, theta, kappa,
kappa0, sigma, rho} and an optional embedded default state "z"; the
state can also be passed as --z.  Outputs are JSON or CSV and are
byte-identical for identical inputs and seeds.

Exit codes: 0 success, 1 sweep violations, 2 argument or model parse
error, 3 numerical inconsistency, 4 inadmissible shape, 5 required
correlation out of range.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import attain, classify, verify
from .descartes import NumericalInconsistencyError
from .signseq import shape_from_label
from .vasicek import (
    ScaleRegime,
    VasicekModel,
    as_state,
    coefficient_parts,
    forward_curve,
    l_coefficients,
    m_coefficients,
    yield_curve,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_INADMISSIBLE = 4
EXIT_RHO = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


def _load_model_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(f"model file {path} must hold a JSON object")
    return doc


def _load_model(path: str) -> tuple[VasicekModel, list | None]:
    doc = _load_model_doc(path)
    try:
        model = VasicekModel.from_dict(doc)
    except ValueError as exc:
        raise _CliError(f"invalid model document {path}: {exc}") from exc
    return model, doc.get("z")


def _resolve_state(model: VasicekModel, z_arg: str | None, embedded) -> tuple:
    if z_arg is not None:
        try:
            values = [float(v) for v in z_arg.split(",")]
        except ValueError:
            raise _CliError(f"cannot parse state vector {z_arg!r}") from None
    elif embedded is not None:
        values = embedded
    else:
        raise _CliError("no state vector: pass --z or embed \"z\" in the model file")
    state = as_state(values, model.d)
    coefficient_parts(model, state)
    return state


def _check_horizon(model: VasicekModel, value: float | None, flag: str) -> None:
    """A curve length or a time step must be non-negative, and finite
    times the model's fastest rate 2*lambda."""
    if value is not None and not (value >= 0 and math.isfinite(2.0 * model.lam[-1] * value)):
        raise _CliError(f"{flag} must be non-negative, and finite times 2*lambda")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_classify(args) -> int:
    model, embedded = _load_model(args.model)
    state = _resolve_state(model, args.z, embedded)
    fn = classify.classify_forward if args.curve == "forward" else classify.classify_yield
    report = fn(model, state)
    _emit(_to_json(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_attain(args) -> int:
    model, _ = _load_model(args.model)
    extrema = None
    if args.extrema:
        try:
            extrema = tuple(float(v) for v in args.extrema.split(","))
        except ValueError:
            raise _CliError(f"cannot parse extrema {args.extrema!r}") from None
    shape = shape_from_label(args.shape)
    solution, verification = attain.construct_target(
        shape, model, curve=args.curve, extrema=extrema
    )
    payload = solution.to_dict()
    payload["verification"] = verification.to_dict()
    _emit(_to_json(payload), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = verify.SweepConfig(
        regime=ScaleRegime(args.regime),
        rho_class=args.rho_class,
        n_samples=args.samples,
        seed=args.seed,
    )
    report = verify.sweep_theorem(cfg)
    _emit(_to_json(report.to_dict()), args.out)
    if not report.passed:
        dump_path = args.out or "sweep-violations.json"
        if not args.out:
            Path(dump_path).write_text(
                _to_json(report.to_dict()), encoding="utf-8"
            )
        sys.stderr.write(
            f"sweep found {len(report.violations)} violations and "
            f"{len(report.head_failures)} head-law failures; dump: {dump_path}\n"
        )
        return EXIT_VIOLATIONS
    return EXIT_OK


def _parse_axis(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        ends = (float(lo), float(hi))
        if not all(map(math.isfinite, ends)):
            raise ValueError
        return np.linspace(*ends, int(count))
    except ValueError:
        raise _CliError(
            f"cannot parse grid axis {spec!r}; expected lo:hi:count with finite ends"
        ) from None


def _check_corners(model: VasicekModel, axes: list[np.ndarray]) -> None:
    """The curve coefficients are affine in the state, so a grid whose
    corner states have finite coefficients has them everywhere."""
    ends = [(axis[0], axis[-1]) for axis in axes if axis.size]
    if len(ends) == len(axes):
        for corner in itertools.product(*ends):
            _resolve_state(model, None, list(corner))


def _cmd_map(args) -> int:
    model, _ = _load_model(args.model)
    axes = args.grid.split(",")
    if model.d == 1:
        if len(axes) != 1:
            raise _CliError("one-factor models take a single grid axis")
        header = ["z", "forward_shape", "yield_shape"]
    elif len(axes) != 2:
        raise _CliError("two-factor models need two grid axes (comma separated)")
    else:
        header = ["z1", "z2", "forward_shape", "yield_shape"]
    grid = [_parse_axis(axis) for axis in axes]
    _check_corners(model, grid)
    rows = verify.state_space_map(model, *grid)
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(_to_json(payload), args.out)
    else:
        # Rows are in grid order, the last axis fastest: format each axis value
        # once, and each distinct shape label once through the csv writer.
        keys = map(",".join, itertools.product(*([str(v) for v in axis.tolist()] for axis in grid)))
        shapes = list(zip(*rows))[-2:]
        cell = {s: _csv_text([s], ())[:-1] for s in set().union(*shapes)}
        lines = map(",".join, zip(keys, *(map(cell.get, col) for col in shapes)))
        _emit(_csv_text(header, ()) + "\n".join(itertools.chain(lines, [""])), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model, embedded = _load_model(args.model)
    state = _resolve_state(model, args.z, embedded)
    _check_horizon(model, args.t, "--t")
    shape = shape_from_label(args.shape)
    freq = verify.strict_attainability_mc(
        model, state, args.t, args.paths, shape, args.seed, curve=args.curve
    )
    payload = {
        "shape": str(shape),
        "curve": args.curve,
        "t": args.t,
        "paths": args.paths,
        "seed": args.seed,
        "frequency": freq,
    }
    _emit(_to_json(payload), args.out)
    return EXIT_OK


def _cmd_curves(args) -> int:
    model, embedded = _load_model(args.model)
    state = _resolve_state(model, args.z, embedded)
    _check_horizon(model, args.x_max, "--x-max")
    xs = np.linspace(0.0, args.x_max, args.n)
    f_vals = forward_curve(model, state, xs)
    y_vals = yield_curve(model, state, xs)
    l_poly = l_coefficients(model, state)
    m_poly = m_coefficients(model, state)
    l_vals = l_poly(xs) if not l_poly.is_zero else np.zeros_like(xs)
    m_vals = m_poly(xs) if not m_poly.is_zero else np.zeros_like(xs)
    rows = [
        [repr(float(v)) for v in row]
        for row in zip(xs, f_vals, y_vals, l_vals, m_vals)
    ]
    _emit(_csv_text(["x", "f", "Y", "l", "m"], rows), args.out)
    return EXIT_OK


@functools.cache  # one per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termshapes",
        description="Classify, construct and verify Vasicek term-structure shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("classify", help="classify the curve shape at a state")
    add_common(p)
    p.add_argument("--z", help="state vector, comma separated")
    p.add_argument("--curve", choices=("forward", "yield"), default="forward")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("attain", help="construct parameters attaining a shape")
    add_common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--curve", choices=("forward", "yield"), default="forward")
    p.add_argument("--extrema", help="extrema locations, comma separated")
    p.set_defaults(func=_cmd_attain)

    p = sub.add_parser("sweep", help="randomized shape-theorem sweep")
    add_common(p, model=False)
    p.add_argument(
        "--regime", required=True, choices=("separated", "proximal", "critical")
    )
    p.add_argument(
        "--rho-class",
        choices=("nonnegative", "negative", "any"),
        default="any",
        dest="rho_class",
    )
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("map", help="shape map over a state grid")
    add_common(p)
    p.add_argument(
        "--grid",
        required=True,
        help="axis spec lo:hi:count (two comma-separated axes for d=2)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("simulate", help="strict-attainability Monte Carlo")
    add_common(p)
    p.add_argument("--z", help="starting state, comma separated")
    p.add_argument("--shape", required=True)
    p.add_argument("--curve", choices=("forward", "yield"), default="forward")
    p.add_argument("--t", type=float, default=0.01)
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("curves", help="export curve values as CSV")
    add_common(p)
    p.add_argument("--z", help="state vector, comma separated")
    p.add_argument("--x-max", type=float, default=10.0, dest="x_max")
    p.add_argument("--n", type=int, default=101)
    p.set_defaults(func=_cmd_curves)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches the parse-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except attain.InadmissibleShapeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INADMISSIBLE
    except attain.RhoOutOfRangeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RHO
    except (NumericalInconsistencyError, attain.NumericalInfeasibilityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except MemoryError:
        sys.stderr.write("error: requested size is too large to allocate\n")
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
