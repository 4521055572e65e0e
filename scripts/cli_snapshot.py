#!/usr/bin/env python3
"""Print a sha256 of the output of a fixed corpus of CLI calls.

Each line is ``<exit code> <sha256 of stdout and stderr> <argv>``, so the
outputs of two revisions compare with one ``diff``:

    PYTHONPATH=src python3 scripts/cli_snapshot.py > after.txt

The calls run in-process through ``termshapes.cli.main`` inside a
temporary directory, which also receives the model files and any sweep
violation dump.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from termshapes import cli
from termshapes.classify import admissible_shapes
from termshapes.signseq import shape_from_label
from termshapes.vasicek import ScaleRegime

README = {"d": 2, "lambda": [1.0, 3.0], "theta": [0.01, 0.02], "kappa": [1.0, 0.8],
          "kappa0": 0.005, "sigma": [0.3, 0.5], "rho": -0.2, "z": [0.02, -0.01]}
ONE_FACTOR = {"d": 1, "lambda": [1.0], "theta": [0.02], "kappa": [1.0],
              "kappa0": 0.01, "sigma": [0.5], "z": [0.01]}
BASES = {"separated": [1.0, 3.0], "proximal": [1.0, 1.5], "critical": [1.0, 2.0]}
EXTREMA = (0.7, 1.6, 2.9, 4.5)
STRATA = [("separated", "nonnegative"), ("separated", "negative"),
          ("proximal", "nonnegative"), ("proximal", "negative"), ("critical", "any"),
          ("separated", "any"), ("proximal", "any")]


def corpus() -> list[list[str]]:
    calls = []
    for curve in ("forward", "yield"):
        calls.append(["classify", "--model", "readme.json", "--curve", curve])
        calls.append(["classify", "--model", "one.json", "--curve", curve])
    for name in BASES:
        reg = ScaleRegime(name)
        shapes = admissible_shapes(reg, "nonnegative").shapes | admissible_shapes(
            reg, "negative").shapes
        for shape in sorted(str(s) for s in shapes if s.label != "flat"):
            for curve in ("forward", "yield"):
                call = ["attain", "--model", f"{name}.json", "--shape", shape, "--curve", curve]
                calls.append(call)
                changes = shape_from_label(shape).changes
                if changes:
                    calls.append(call + ["--extrema", ",".join(map(str, EXTREMA[:changes]))])
    # Extrema closer than any practical grid spacing: 1e-5 and 1e-7 apart
    # both verify; at 1e-7 the values between the two zeros are signed at
    # 50 digits.
    for extrema in ("1,1.00001", "1,1.0000001"):
        for curve in ("forward", "yield"):
            calls.append(["attain", "--model", "readme.json", "--shape", "HD",
                          "--curve", curve, "--extrema", extrema])
    calls.append(["map", "--model", "one.json", "--grid=-0.3:0.3:400"])
    calls.append(["map", "--model", "readme.json", "--grid=-0.05:0.05:40,-0.05:0.05:40"])
    calls.append(["map", "--model", "readme.json", "--grid=-0.05:0.05:15,-0.05:0.05:15",
                  "--format", "json"])
    for model, shapes in (("readme.json", ("HDH", "HD", "humped", "normal")),
                          ("one.json", ("humped", "inverse"))):
        for shape in shapes:
            for curve in ("forward", "yield"):
                calls.append(["simulate", "--model", model, "--shape", shape,
                              "--curve", curve, "--paths", "20000", "--seed", "2"])
    for reg, rho_class in STRATA:
        calls.append(["sweep", "--regime", reg, "--rho-class", rho_class,
                      "--samples", "10000", "--seed", "3"])
    calls.append(["curves", "--model", "readme.json", "--x-max", "10", "--n", "101"])
    calls.append(["curves", "--model", "one.json", "--x-max", "30", "--n", "61"])
    return calls


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        docs = {"readme.json": README, "one.json": ONE_FACTOR}
        for name, lam in BASES.items():
            docs[f"{name}.json"] = {**README, "lambda": lam}
        for name, doc in docs.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for argv in corpus():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            digest = hashlib.sha256((out.getvalue() + "\0" + err.getvalue()).encode())
            print(code, digest.hexdigest(), " ".join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
