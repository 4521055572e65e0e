"""Property tests of the error taxonomy: bad input to the library raises
only ValueError or RuntimeError subclasses, and the CLI turns any input
into a documented exit code with an ``error:`` line, never a traceback.

Hypothesis runs derandomized, so the examples are the same on every run,
and warnings are errors: a NaN or an overflow must be caught at the
input, not surface as a numpy warning.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import traceback
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from termshapes import cli
from termshapes.attain import construct_target
from termshapes.descartes import DPolynomial, ExpBasis, interpolate_prescribed_zeros
from termshapes.signseq import NAMED_SHAPES
from termshapes.vasicek import VasicekModel

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHAPES = [s.label for s in NAMED_SHAPES]

#: Edge values first, then arbitrary floats: Hypothesis shrinks toward
#: the front of a ``one_of``.
numbers = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300, -1e308, math.nan, math.inf]),
    st.floats(-5.0, 5.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
)
junk = st.one_of(st.none(), st.text(max_size=3), st.booleans(),
                 st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))
values = st.one_of(numbers, st.lists(numbers, max_size=6),
                   st.lists(st.one_of(numbers, junk), max_size=3), junk)


def mostly(good, bad):
    """``good`` three draws in four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


#: Increasing extrema a quarter apart or more, so that verifying them
#: needs a small grid.
extrema_lists = st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True).map(
    lambda ks: [k / 4 for k in sorted(ks)])


def _only_documented(call) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except (ValueError, RuntimeError):
            pass


@st.composite
def decays(draw, min_size=1):
    n = draw(st.integers(min_size, 5))
    rates = draw(st.lists(st.floats(0.01, 20.0), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        rates.append(0.0)
    return tuple(sorted(rates, reverse=True)[:5])


@st.composite
def model_params(draw, d=2):
    """Plausible model parameters, one of them possibly replaced."""
    lam1 = draw(st.floats(0.05, 3.0))
    ratio = draw(st.one_of(st.sampled_from([2.0, 1.5, 3.0]), st.floats(1.01, 4.0)))

    def row(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=d, max_size=d))

    params = {
        "lam": [lam1, lam1 * ratio][:d],
        "theta": row(-0.1, 0.15),
        "kappa": row(0.1, 3.0),
        "kappa0": draw(st.floats(-0.01, 0.01)),
        "sigma": row(0.0, 1.0),
        "rho": draw(st.floats(-1.0, 1.0)),
    }
    if draw(st.integers(0, 3)) == 0:
        params[draw(st.sampled_from(sorted(params)))] = draw(values)
    return params


class TestLibraryInput:
    @PROPERTY
    @given(model_params())
    def test_vasicek_model(self, params):
        _only_documented(lambda: VasicekModel(**params))

    @PROPERTY
    @given(st.one_of(st.sampled_from(["F", "G"]), junk), values)
    def test_exp_basis(self, kind, rates):
        _only_documented(lambda: ExpBasis(kind, rates))

    @PROPERTY
    @given(st.sampled_from(["F", "G"]), decays(), values)
    def test_dpolynomial(self, kind, rates, coefficients):
        _only_documented(lambda: DPolynomial(ExpBasis(kind, rates), coefficients))

    @PROPERTY
    @given(st.sampled_from(["F", "G"]), decays(min_size=2), st.data())
    def test_interpolate_prescribed_zeros(self, kind, rates, data):
        basis = ExpBasis(kind, rates)
        count = len(basis) - 1
        zeros = data.draw(mostly(
            st.lists(mostly(st.floats(0.0, 50.0), numbers), min_size=count, max_size=count)
            .map(sorted), values))
        _only_documented(lambda: interpolate_prescribed_zeros(basis, zeros))

    @settings(PROPERTY, max_examples=150)
    @given(
        model_params(),
        st.one_of(st.sampled_from(SHAPES), st.text(max_size=3)),
        st.sampled_from(["forward", "yield", "spot"]),
        st.one_of(st.none(), mostly(extrema_lists, values)),
    )
    def test_construct_target(self, params, shape, curve, extrema):
        def call():
            construct_target(shape, VasicekModel(**params), curve=curve, extrema=extrema)

        _only_documented(call)


# ----------------------------------------------------------------------- CLI

def csv_of(good, max_size):
    """Comma-separated numbers: mostly ``good`` ones, any count up to
    ``max_size``."""
    return st.lists(mostly(good, numbers), min_size=1, max_size=max_size).map(
        lambda vs: ",".join(map(str, vs)))


@st.composite
def model_docs(draw, d):
    """Model documents: mostly plausible d-factor ones, with a key
    replaced, dropped or added; sometimes not a JSON object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(values)
    params = draw(model_params(d))
    doc = {"d": d, "lambda": params.pop("lam"), **params}
    if draw(st.integers(0, 3)):
        doc["z"] = draw(mostly(st.lists(st.floats(-0.3, 0.3), min_size=d, max_size=d), values))
    if draw(st.integers(0, 7)) == 0:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return doc


@st.composite
def argvs(draw, d):
    """argv for one of the six subcommands, reading a d-factor model.json."""
    command = draw(st.sampled_from(["classify", "attain", "sweep", "map", "simulate", "curves"]))
    argv = [command] if command == "sweep" else [command, "--model", "model.json"]

    def add(flag, strategy, optional=True):
        if not optional or draw(st.booleans()):
            argv.append(f"{flag}={draw(strategy)}")

    curve = mostly(st.sampled_from(["forward", "yield"]), st.text(max_size=3))
    shape = mostly(st.sampled_from(SHAPES), st.text(max_size=3))
    size = mostly(st.integers(1, 50), st.integers(-2, 0))
    if command in ("classify", "simulate", "curves"):
        state = st.lists(st.floats(-0.3, 0.3), min_size=d, max_size=d).map(
            lambda z: ",".join(map(str, z)))
        add("--z", mostly(state, csv_of(st.floats(-0.3, 0.3), 3)))
    if command == "classify":
        add("--curve", curve)
        add("--x-max", mostly(st.floats(0.5, 100.0), numbers))
        add("--grid-samples", mostly(st.integers(64, 300), size))
    elif command == "attain":
        add("--shape", shape, optional=False)
        add("--curve", curve)
        add("--extrema", mostly(extrema_lists.map(lambda r: ",".join(map(str, r))),
                                csv_of(st.floats(0.05, 10.0), 4)))
    elif command == "sweep":
        add("--regime", mostly(st.sampled_from(["separated", "proximal", "critical"]),
                               st.text(max_size=3)), optional=False)
        add("--rho-class", mostly(st.sampled_from(["nonnegative", "negative", "any"]),
                                  st.text(max_size=3)))
        add("--samples", size, optional=False)
        add("--seed", st.integers(-2, 2**40))
    elif command == "map":
        level = mostly(st.floats(-0.3, 0.3), numbers)
        axis = st.tuples(level, level, mostly(size, numbers)).map(lambda a: ":".join(map(str, a)))
        axes = mostly(st.lists(axis, min_size=d, max_size=d), st.lists(axis, min_size=1, max_size=3))
        add("--grid", mostly(axes.map(",".join), st.text(max_size=5)), optional=False)
        add("--format", mostly(st.sampled_from(["csv", "json"]), st.text(max_size=3)))
    elif command == "simulate":
        add("--shape", shape, optional=False)
        add("--curve", curve)
        add("--t", mostly(st.floats(1e-3, 2.0), numbers))
        add("--paths", size, optional=False)
        add("--seed", st.integers(-2, 2**40))
    else:
        add("--x-max", mostly(st.floats(0.5, 100.0), numbers))
        add("--n", size, optional=False)
    return argv


class TestCliInput:
    @settings(PROPERTY, max_examples=400)
    @given(st.sampled_from([1, 2, 2]).flatmap(lambda d: st.tuples(model_docs(d), argvs(d))))
    def test_exit_code_and_error_line(self, case):
        doc, argv = case
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                with open("model.json", "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    try:
                        code = cli.main(argv)
                    except Exception:  # reported by the assertion below
                        code, trace = None, traceback.format_exc()
            finally:
                os.chdir(cwd)
        stderr = err.getvalue()
        assert code is not None, f"{argv} {doc}: {trace}"
        assert code in (0, 1, 2, 3, 4, 5), (argv, doc, code)
        assert "Traceback" not in stderr, (argv, doc, stderr)
        if code not in (0, 1):
            lines = stderr.rstrip("\n").splitlines()
            assert lines and "error: " in lines[-1], (argv, doc, stderr)
