import json

import numpy as np
import pytest

from freeconv import bench
from freeconv.cli import main
from freeconv.errors import FixedPointDiverged
from freeconv.measures import bernoulli_measure, make_atomic, semicircle_measure


@pytest.fixture
def bernoulli_file(tmp_path):
    path = tmp_path / "bernoulli.json"
    bernoulli_measure().dump(path)
    return str(path)


@pytest.fixture
def semicircle_file(tmp_path):
    path = tmp_path / "semicircle.json"
    path.write_text(json.dumps({"family": {"name": "semicircle"}}))
    return str(path)


def arcsine_csv(path, points=2001):
    xs = np.linspace(-2.5, 2.5, points)
    vals = 0.5 + np.arcsin(np.clip(xs, -2, 2) / 2) / np.pi
    with open(path, "w") as fh:
        fh.write("x,cdf,cdf_left\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x:.12g},{v:.12g},{v:.12g}\n")
    return str(path)


class TestMoments:
    def test_bernoulli(self, bernoulli_file, capsys):
        assert main(["moments", bernoulli_file, "--max-k", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = [float(line.split("=")[1]) for line in lines]
        assert got == pytest.approx([0.0, 1.0, 0.0, 1.0], abs=1e-12)

    def test_missing_file(self, capsys):
        assert main(["moments", "no-such-file.json"]) == 1

    def test_nan_density_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"density": {"grid": [-1.0, 0.0, 1.0],
                                                "values": [0.0, float("nan"), 0.0]}}))
        assert main(["moments", str(path)]) == 1
        assert main(["idcheck", str(path)]) == 1
        assert capsys.readouterr().out == ""

    def test_misspelt_family_parameter_is_input_error(self, tmp_path, capsys):
        # it must not run the default variance-1 law
        path = tmp_path / "semicircle.json"
        path.write_text(json.dumps({"family": {"name": "semicircle",
                                               "params": {"varaince": 4.0}}}))
        assert main(["moments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "varaince" in captured.err


class TestCumulants:
    def test_semicircle(self, semicircle_file, capsys):
        assert main(["cumulants", semicircle_file, "--max-k", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = [float(line.split("=")[1]) for line in lines]
        assert got == pytest.approx([0, 1, 0, 0, 0, 0], abs=1e-3)


class TestPowerAndDistance:
    def test_bernoulli_square_vs_arcsine(self, bernoulli_file, tmp_path,
                                         capsys):
        out = tmp_path / "power.csv"
        code = main(["power", bernoulli_file, "--n", "2",
                     "--grid=-2.5:2.5:2001",
                     "--eta", "0.004,0.002,0.001", "--out", str(out)])
        assert code == 0
        ref = arcsine_csv(tmp_path / "arcsine.csv")
        assert main(["distance", str(out), ref]) == 0
        dist = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert dist < 5e-3

    def test_identical_csvs(self, tmp_path, capsys):
        ref = arcsine_csv(tmp_path / "a.csv")
        assert main(["distance", ref, ref]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_nan_table_is_input_error(self, tmp_path, capsys):
        good = arcsine_csv(tmp_path / "a.csv", points=11)
        bad = tmp_path / "b.csv"
        lines = (tmp_path / "a.csv").read_text().splitlines()
        lines[5] = "nan,nan,nan"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["distance", good, str(bad)]) == 1
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "x,cdf,cdf_left\n",
                                      "x,cdf,cdf_left\n0,0,0\n1,1\n"],
                             ids=["empty", "header_only", "two_field_row"])
    def test_malformed_table_is_input_error(self, tmp_path, text, capsys):
        good = arcsine_csv(tmp_path / "a.csv", points=11)
        bad = tmp_path / "b.csv"
        bad.write_text(text)
        assert main(["distance", good, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "x,cdf,cdf_left\n0,0,0\n1,1\n",
                                      "x,cdf,cdf_left\n0,0,0\n1,nan,1\n"],
                             ids=["header", "short_row", "refused_table"])
    def test_error_names_the_bad_file(self, tmp_path, text, capsys):
        good = arcsine_csv(tmp_path / "good.csv", points=11)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["distance", good, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: ")
        assert "good.csv" not in err

    def test_bad_grid_spec(self, bernoulli_file, tmp_path):
        assert main(["power", bernoulli_file, "--n", "2", "--grid", "junk",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_n(self, bernoulli_file, tmp_path):
        assert main(["power", bernoulli_file, "--n", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_numerical_failure_exit_code(self, bernoulli_file, tmp_path,
                                         monkeypatch):
        def boom(*args, **kwargs):
            raise FixedPointDiverged("forced")

        monkeypatch.setattr("freeconv.bench.solve_Zn_grid", boom)
        assert main(["power", bernoulli_file, "--n", "2",
                     "--grid=-2:2:101", "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_measure_file_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([[-1.0, 0.5], [1.0, 0.5]]))
        assert main(["power", str(path), "--n", "2", "--out", str(tmp_path / "o.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["input error: a measure must be a JSON object"]


class TestConvolve:
    def test_two_diracs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"atoms": [[0.5, 1.0]]}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"atoms": [[-0.5, 1.0]]}))
        out = tmp_path / "conv.csv"
        code = main(["convolve", str(a), str(b), "--grid=-2:2:201",
                     "--eta", "0.02,0.01", "--out", str(out)])
        assert code == 0
        from freeconv.inversion import load_cdf_csv
        t = load_cdf_csv(out)
        # dirac convolution shifts: all mass lands at 0.5 - 0.5 = 0
        assert t.value_at(0.2) - t.value_at(-0.2) == pytest.approx(1.0,
                                                                   abs=1e-2)

    def test_numerical_failure_exit_code(self, bernoulli_file, tmp_path,
                                         monkeypatch):
        def boom(*args, **kwargs):
            raise FixedPointDiverged("forced")

        monkeypatch.setattr("freeconv.bench.solve_pair_grid", boom)
        assert main(["convolve", bernoulli_file, bernoulli_file,
                     "--grid=-2:2:101", "--out",
                     str(tmp_path / "x.csv")]) == 2


class TestSamePipelineAsBench:
    """`power` and `convolve` write the tables of bench.power_cdf/pair_cdf."""

    def test_power(self, tmp_path):
        m = semicircle_measure(101)
        path = tmp_path / "m.json"
        m.dump(path)
        cli_out, api_out = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main(["power", str(path), "--n", "4", "--grid=-5:5:301",
                     "--eta", "0.04,0.02", "--out", str(cli_out)]) == 0
        bench.power_cdf(m, 4, np.linspace(-5, 5, 301),
                        (0.04, 0.02)).save_csv(api_out)
        assert cli_out.read_bytes() == api_out.read_bytes()

    def test_convolve(self, tmp_path):
        m1 = make_atomic([(0.0, 0.7), (1.0, 0.3)])
        m2 = make_atomic([(0.0, 0.6), (2.0, 0.4)])
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for m, path in zip((m1, m2), paths):
            m.dump(path)
        cli_out, api_out = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main(["convolve", *map(str, paths), "--grid=-2:5:351",
                     "--out", str(cli_out)]) == 0
        bench.pair_cdf(m1, m2, np.linspace(-2, 5, 351)).save_csv(api_out)
        assert cli_out.read_bytes() == api_out.read_bytes()


class TestIdcheck:
    def test_dirac_passes(self, tmp_path, capsys):
        path = tmp_path / "dirac.json"
        path.write_text(json.dumps({"atoms": [[0.5, 1.0]]}))
        assert main(["idcheck", str(path)]) == 0
        assert "PassesSampledCriterion" in capsys.readouterr().out

    def test_bernoulli_fails_verdict(self, bernoulli_file, capsys):
        assert main(["idcheck", bernoulli_file]) == 0    # verdict, not error
        out = capsys.readouterr().out
        assert "FailsAt" in out or "ContinuationBroken" in out

    @pytest.mark.parametrize("width", ["nan", "inf", "-1"])
    def test_bad_width_is_input_error(self, bernoulli_file, width, capsys):
        assert main(["idcheck", bernoulli_file, f"--width={width}"]) == 1
        assert "input error" in capsys.readouterr().err


class TestRates:
    def test_stdout_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
            "n_values": [4, 8, 16],
        }))
        assert main(["rates", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,a_n,distance\n")
        assert "# slope = " in out

    def test_output_path_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        blobs = []
        for out in (out1, out2):
            cfg = tmp_path / f"cfg_{out.stem}.json"
            cfg.write_text(json.dumps({
                "measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                "n_values": [4, 8],
                "output_path": str(out),
            }))
            assert main(["rates", str(cfg)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("eta", ["0.01", "inf,0.01", "0.02,nan"])
    def test_bad_eta_is_error(self, tmp_path, eta, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
            "n_values": [4, 8],
            "eta": [float(v) for v in eta.split(",")],
        }))
        assert main(["rates", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eta schedule" in captured.err


    @pytest.mark.parametrize("field, value", [("grid", [-4.0, float("nan"), 201]),
                                              ("n_values", [0, 4, 8]),
                                              ("n_values", [-2, 4, 8]),
                                              ("n_values", [2.5, 4]),
                                              ("grid", [-4.0, 4.0, 201.5])],
                             ids=["nan_bound", "zero_n", "negative_n", "fractional_n",
                                  "fractional_points"])
    def test_bad_config_is_input_error(self, tmp_path, field, value, capsys):
        cfg = {"measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
               "n_values": [4, 8]}
        cfg[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["rates", str(path)]) == 1
        assert capsys.readouterr().out == ""

    # an unknown key, such as `target` or a misspelt `grid`, must not
    # silently run another experiment
    @pytest.mark.parametrize("key, value", [("target", "meixner_auto"),
                                            ("grids", [-4.0, 4.0, 201])])
    def test_unknown_config_key_is_refused(self, tmp_path, key, value, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                                    "n_values": [4, 8], key: value}))
        assert main(["rates", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(key) in captured.err

    @pytest.mark.parametrize("field, value", [("n_values", 4), ("grid", 5), ("eta", 0.01),
                                              ("grid", [-4, 4, "a"]), ("output_path", 5)],
                             ids=["n_values_number", "grid_number", "eta_number",
                                  "grid_string", "output_path_number"])
    def test_config_of_wrong_type_is_refused(self, tmp_path, field, value, capsys):
        cfg = {"measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}, "n_values": [4, 8]}
        cfg[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["rates", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("usage error: ") and repr(field) in line

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(["measure", "n_values"]))
        assert main(["rates", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1
