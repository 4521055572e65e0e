from __future__ import annotations

import json

import pytest

from termshapes import attain, cli
from termshapes.attain import construct_target
from termshapes.descartes import NumericalInconsistencyError


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def one_factor_file(tmp_path):
    return write_model(
        tmp_path,
        {
            "d": 1,
            "lambda": [1.0],
            "theta": [0.02],
            "kappa": [1.0],
            "kappa0": 0.01,
            "sigma": [0.5],
        },
    )


@pytest.fixture
def separated_file(tmp_path):
    return write_model(
        tmp_path,
        {
            "d": 2,
            "lambda": [1.0, 3.0],
            "theta": [0.01, 0.02],
            "kappa": [1.0, 0.8],
            "kappa0": 0.005,
            "sigma": [0.0, 0.0],
            "rho": 0.0,
        },
        name="separated.json",
    )


class TestClassifyCommand:
    def test_inverse_above_long_run_mean(self, one_factor_file, capsys):
        assert cli.main(["classify", "--model", one_factor_file, "--z", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape"] == "inverse"

    def test_flat_degenerate(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {
                "d": 1,
                "lambda": [1.0],
                "theta": [0.02],
                "kappa": [1.0],
                "kappa0": 0.01,
                "sigma": [0.0],
                "z": [0.02],
            },
        )
        assert cli.main(["classify", "--model", path]) == 0
        assert json.loads(capsys.readouterr().out)["shape"] == "flat"

    def test_constructed_shape_round_trip(self, tmp_path, separated_file, capsys):
        with open(separated_file) as fh:
            base = json.load(fh)
        from termshapes.vasicek import VasicekModel

        sol, _ = construct_target("HDH", VasicekModel.from_dict(base))
        doc = sol.to_dict()
        path = write_model(tmp_path, doc, name="hdh.json")
        assert cli.main(["classify", "--model", path, "--curve", "forward"]) == 0
        assert json.loads(capsys.readouterr().out)["shape"] == "HDH"

    def test_yield_curve_option(self, one_factor_file, capsys):
        assert cli.main(
            ["classify", "--model", one_factor_file, "--z", "-0.05", "--curve", "yield"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["curve"] == "yield"

    def test_missing_state_is_parse_error(self, one_factor_file, capsys):
        assert cli.main(["classify", "--model", one_factor_file]) == 2

    def test_bad_model_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["classify", "--model", str(path), "--z", "0.0"]) == 2

    def test_invalid_model_values(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {"d": 1, "lambda": [-1.0], "theta": [0.0], "kappa": [1.0],
             "kappa0": 0.0, "sigma": [0.1]},
        )
        assert cli.main(["classify", "--model", path, "--z", "0.0"]) == 2

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"lambda": 5}, "lambda must be a list of numbers"),
            ({"kappa0": None}, "kappa0 must be a number"),
            ({"z": 5}, "state vector must have 2 entries"),
            ({"z": [None, 0.0]}, "state entries must be numbers"),
            ({"lambda": [1.0, 1e308]}, "2*lambda must be finite"),
        ],
    )
    def test_malformed_document_exits_2(self, tmp_path, capsys, change, message):
        doc = {"d": 2, "lambda": [1.0, 3.0], "theta": [0.01, 0.02], "kappa": [1.0, 0.8],
               "kappa0": 0.005, "sigma": [0.3, 0.5], "rho": -0.2, "z": [0.02, -0.01]}
        path = write_model(tmp_path, {**doc, **change})
        assert cli.main(["classify", "--model", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestAttainCommand:
    def test_normal_solution(self, separated_file, capsys):
        assert cli.main(["attain", "--model", separated_file, "--shape", "normal"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == [0.0, 0.0]
        assert payload["rho"] == 0.0
        assert payload["verification"]["passed"] is True

    def test_prescribed_extremum(self, separated_file, capsys):
        assert cli.main(
            ["attain", "--model", separated_file, "--shape", "humped", "--extrema", "2.5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["passed"] is True
        assert payload["prescribed_zeros"] == [2.5]

    def test_inadmissible_exits_4(self, separated_file, capsys):
        assert cli.main(["attain", "--model", separated_file, "--shape", "HDHD"]) == 4
        assert "attainable" in capsys.readouterr().err

    def test_unknown_shape_is_parse_error(self, separated_file):
        assert cli.main(["attain", "--model", separated_file, "--shape", "bumpy"]) == 2

    def test_rho_out_of_range_exits_5(self, separated_file, monkeypatch):
        def boom(*args, **kwargs):
            raise attain.RhoOutOfRangeError(1.7)

        monkeypatch.setattr(cli.attain, "construct_target", boom)
        assert cli.main(["attain", "--model", separated_file, "--shape", "HD"]) == 5

    def test_numerical_inconsistency_exits_3(self, separated_file, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalInconsistencyError("scan failed")

        monkeypatch.setattr(cli.attain, "construct_target", boom)
        assert cli.main(["attain", "--model", separated_file, "--shape", "HD"]) == 3

    def test_unverifiable_extrema_exit_3(self, separated_file, capsys):
        # Extrema 1e-7 apart are too close for the verification grid.
        argv = ["attain", "--model", separated_file, "--shape", "HD",
                "--extrema", "1,1.0000001"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSweepCommand:
    def test_clean_sweep_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["sweep", "--regime", "proximal", "--rho-class", "negative",
             "--samples", "2000", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["samples"] == 2000

    def test_byte_identical_outputs(self, tmp_path):
        args = ["sweep", "--regime", "separated", "--samples", "1500", "--seed", "4"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_regime_is_parse_error(self):
        assert cli.main(["sweep", "--regime", "sideways"]) == 2


class TestMapCommand:
    def test_grid_row_count(self, tmp_path, capsys):
        model = write_model(
            tmp_path,
            {"d": 2, "lambda": [0.6, 1.4], "theta": [0.01, 0.02],
             "kappa": [1.0, 0.9], "kappa0": 0.0, "sigma": [0.3, 0.5], "rho": 0.2},
        )
        out = tmp_path / "map.csv"
        code = cli.main(
            ["map", "--model", model,
             "--grid=-0.05:0.05:50,-0.05:0.05:50", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "z1,z2,forward_shape,yield_shape"
        assert len(lines) == 2501

    def test_one_factor_grid(self, one_factor_file, capsys):
        assert cli.main(["map", "--model", one_factor_file, "--grid=-0.3:0.1:9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "z,forward_shape,yield_shape"
        assert len(lines) == 10

    def test_json_format(self, one_factor_file, capsys):
        assert cli.main(
            ["map", "--model", one_factor_file, "--grid=-0.3:0.1:3",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        assert set(payload[0]) == {"z", "forward_shape", "yield_shape"}

    def test_bad_axis_spec(self, one_factor_file):
        assert cli.main(["map", "--model", one_factor_file, "--grid", "oops"]) == 2


class TestSimulateCommand:
    def test_frequency_output(self, tmp_path, capsys):
        from termshapes.vasicek import VasicekModel

        base = VasicekModel(
            lam=(1.0, 3.0), theta=(0.01, 0.02), kappa=(1.0, 0.8),
            kappa0=0.005, sigma=(0.0, 0.0),
        )
        sol, _ = construct_target("HD", base)
        path = write_model(tmp_path, sol.to_dict(), name="hd.json")
        code = cli.main(
            ["simulate", "--model", path, "--shape", "HD",
             "--t", "0.01", "--paths", "5000", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frequency"] > 0
        assert payload["paths"] == 5000

    def test_deterministic(self, tmp_path, capsys):
        from termshapes.vasicek import VasicekModel

        base = VasicekModel(
            lam=(1.0, 3.0), theta=(0.01, 0.02), kappa=(1.0, 0.8),
            kappa0=0.005, sigma=(0.0, 0.0),
        )
        sol, _ = construct_target("humped", base)
        path = write_model(tmp_path, sol.to_dict())
        args = ["simulate", "--model", path, "--shape", "humped",
                "--paths", "2000", "--seed", "8"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first


class TestCurvesCommand:
    def test_row_count_and_short_end(self, one_factor_file, capsys):
        code = cli.main(
            ["curves", "--model", one_factor_file, "--z", "0.0",
             "--x-max", "10", "--n", "101"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,f,Y,l,m"
        assert len(lines) == 102
        x0, f0, y0, l0, m0 = (float(v) for v in lines[1].split(","))
        assert x0 == 0.0
        assert y0 == f0
        assert m0 == pytest.approx(l0 / 2, rel=1e-12)

    def test_output_file(self, one_factor_file, tmp_path):
        out = tmp_path / "curves.csv"
        assert cli.main(
            ["curves", "--model", one_factor_file, "--z", "0.0", "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("x,f,Y,l,m\n")


class TestModelOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "change",
        [{"sigma": [1.0, 1e308]}, {"sigma": [1e200, 1e200]}, {"theta": [0.01, 1e308]},
         {"kappa": [1e308, 0.8]}, {"z": [-1e308, 1e308]}],
    )
    @pytest.mark.parametrize(
        "command", [["classify"], ["curves"], ["simulate", "--shape", "HD", "--paths", "10"]]
    )
    def test_overflowing_parameters_exit_2(self, tmp_path, capsys, change, command):
        # Each document's parameters are finite, but u = sigma^2 kappa^2 /
        # lambda, lambda theta kappa, the covariance or the state's curve
        # coefficients overflow.
        doc = {"d": 2, "lambda": [1.0, 3.0], "theta": [0.01, 0.02], "kappa": [1.0, 0.8],
               "kappa0": 0.005, "sigma": [0.3, 0.5], "rho": -0.2, "z": [0.02, -0.01]}
        path = write_model(tmp_path, {**doc, **change})
        assert cli.main([*command, "--model", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err and "Traceback" not in err


class TestOutOfRangeArguments:
    # Each argument once ended in numpy warnings (or a traceback) instead
    # of an error line.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["curves", "--x-max=-1e308"], 2),
            (["curves", "--x-max=inf"], 2),
            (["classify", "--x-max=nan"], 2),
            (["classify", "--x-max=1e308"], 2),
            (["simulate", "--shape=HD", "--paths=5", "--t=nan"], 2),
            (["simulate", "--shape=HD", "--paths=5", "--z=1e40,0"], 2),
            (["map", "--grid=nan:0.1:3,0:0.1:3"], 2),
            (["map", "--grid=0:1e300:3,0:0.1:3"], 2),
            (["attain", "--shape=HD", "--extrema=5e-324,2"], 3),
        ],
    )
    def test_exits_with_error_line(self, tmp_path, capsys, argv, code):
        doc = {"d": 2, "lambda": [1.0, 3.0], "theta": [0.01, 0.02], "kappa": [1.0, 0.8],
               "kappa0": 0.005, "sigma": [0.3, 0.5], "rho": -0.2, "z": [0.02, -0.01]}
        path = write_model(tmp_path, doc)
        assert cli.main([argv[0], "--model", path, *argv[1:]]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
