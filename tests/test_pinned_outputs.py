"""The `rates` CSV of two small configs and the `power` and `convolve` CDF
tables of two small laws, pinned across commits.

A refactor keeps every number of these files.  A change that moves outputs
on purpose rewrites them, by running this module as a script with
``PYTHONPATH=src python tests/test_pinned_outputs.py``, and lists the moved
numbers in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from freeconv.cli import main
from freeconv.measures import semicircle_measure

DATA = Path(__file__).parent / "data"
# the CSV prints 12 significant digits, so a last-digit rounding flip on
# another CPU is allowed for; a_n of a symmetric law is rounding noise of
# about 1e-18, so numbers are equal to 1e-15 absolute as well
REL, ABS = 2e-11, 1e-15


def _configs():
    """CSV file name -> rates config."""
    return {
        "rates_bernoulli.csv": {"measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                                "n_values": [4, 16, 64, 256]},
        "rates_semicircle101.csv": {"measure": semicircle_measure(101).to_json_dict(),
                                    "n_values": [2, 4, 8], "grid": [-4.0, 4.0, 201]},
    }


def _tables():
    """CSV file name -> (command, measures, options) of a `power` or
    `convolve` run; the power has an atom at -2, the pair atoms at 0 and 2,
    and both make atom detection windows at 2 eta = 0.02, which is not a
    level."""
    two_point = {"atoms": [[-0.5, 0.8], [2.0, 0.2]]}
    b1 = {"atoms": [[0.0, 0.7], [1.0, 0.3]]}
    b2 = {"atoms": [[0.0, 0.6], [2.0, 0.4]]}
    return {
        "power_two_point.csv": ("power", [two_point],
                                ["--n", "4", "--grid=-4:8:301", "--eta", "0.03,0.01"]),
        "convolve_b1_b2.csv": ("convolve", [b1, b2],
                               ["--grid=-2:5:701", "--eta", "0.03,0.01"]),
    }


def _rates_csv(cfg, tmp_dir) -> str:
    path, out = Path(tmp_dir) / "cfg.json", Path(tmp_dir) / "rates.csv"
    path.write_text(json.dumps({**cfg, "output_path": str(out)}))
    assert main(["rates", str(path)]) == 0
    return out.read_text()


def _table_csv(run, tmp_dir) -> str:
    command, laws, options = run
    paths = []
    for k, law in enumerate(laws):
        path = Path(tmp_dir) / f"law{k}.json"
        path.write_text(json.dumps(law))
        paths.append(str(path))
    out = Path(tmp_dir) / "cdf.csv"
    assert main([command, *paths, *options, "--out", str(out)]) == 0
    return out.read_text()


def _numbers(text):
    """Every number of a rates CSV, in order, with the structure around it:
    (rows, comment names and values)."""
    lines = text.splitlines()
    assert lines[0] == "n,a_n,distance"
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("# "):
            name, value = line[2:].split(" = ")
            comments.append((name, float(value)))
        else:
            n, a_n, dist = line.split(",")
            rows.append((int(n), float(a_n), float(dist)))
    return rows, comments


@pytest.mark.parametrize("name", list(_configs()))
def test_rates_csv_is_pinned(name, tmp_path, capsys):
    got_rows, got_comments = _numbers(_rates_csv(_configs()[name], tmp_path))
    want_rows, want_comments = _numbers((DATA / name).read_text())
    assert [r[0] for r in got_rows] == [r[0] for r in want_rows]
    assert [c[0] for c in got_comments] == [c[0] for c in want_comments]
    got = [v for r in got_rows for v in r[1:]] + [c[1] for c in got_comments]
    want = [v for r in want_rows for v in r[1:]] + [c[1] for c in want_comments]
    assert got == pytest.approx(want, rel=REL, abs=ABS)


@pytest.mark.parametrize("name", list(_tables()))
def test_cdf_csv_is_pinned(name, tmp_path):
    got = _table_csv(_tables()[name], tmp_path).splitlines()
    want = (DATA / name).read_text().splitlines()
    assert got[0] == want[0] == "x,cdf,cdf_left"
    assert len(got) == len(want)
    got, want = ([float(v) for line in lines[1:] for v in line.split(",")]
                 for lines in (got, want))
    assert got == pytest.approx(want, rel=REL, abs=ABS)


if __name__ == "__main__":
    import tempfile

    runs = {**{name: (_rates_csv, cfg) for name, cfg in _configs().items()},
            **{name: (_table_csv, run) for name, run in _tables().items()}}
    for name, (make, arg) in runs.items():
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / name).write_text(make(arg, tmp))
        print(f"wrote {DATA / name}", file=sys.stderr)
