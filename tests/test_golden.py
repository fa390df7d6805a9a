"""Byte-exact CLI output for the README examples and the default figures.

Each case runs in its default format and with ``--format`` table, csv and
json, and its stdout must equal the file captured under ``tests/golden/``:
``<case>.txt`` for table, ``<case>.csv`` for csv and ``<case>.json`` for
json.  A default run is compared with the file of the format it resolves
to (csv for ``generate`` and ``figure``, table for everything else).  The
README examples that write with ``--out`` run without it here: ``--out``
writes the same text to the file instead of stdout.  ``fit`` reads the
captured ``generate`` dataset, which is what the README's ``data.csv``
holds.

The Model II cases (``fit`` and ``figure2``) print digits that depend on
the host's numpy kernels, so they are also checked to a tolerance: the same
text, with each number within 1e-9 relative of the captured one.

To capture again after an intended output change, run from the repo root:

    PYTHONPATH=src python tests/test_golden.py
"""

import re
import sys
from pathlib import Path

import pytest

from tsqueue.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "zeta": ["zeta", "4", "4"],
    "pmf": ["pmf", "--q", "0.75", "--beta", "1", "--i", "0"],
    "tail": ["tail", "--q", "0.75", "--beta", "1", "--x", "100"],
    "metrics": ["metrics", "--q", "0.75", "--beta", "1", "--tail", "0,10,100"],
    # q <= 2/3: the variance is undefined (empty csv cell, null in json)
    "metrics-no-variance": ["metrics", "--q", "0.6", "--beta", "1"],
    "solve-beta": ["solve-beta", "--q", "0.75", "--mean", "2"],
    "norros-mean": ["norros-mean", "--rho", "0.5", "--hurst", "0.75"],
    "norros-rho": ["norros-rho", "--mean", "2", "--hurst", "0.75"],
    "generate": ["generate", "--q", "0.6", "--mean-min", "0.1",
                 "--mean-max", "100", "--points", "50"],
    "fit": ["fit", "--model", "II", "--in", str(GOLDEN / "generate.csv")],
    "fit-model-i": ["fit", "--model", "I", "--in", str(GOLDEN / "generate.csv")],
    "figure5-q-list": ["figure", "--id", "5", "--q-list", "0.6,0.8"],
    **{f"figure{i}": ["figure", "--id", str(i)] for i in range(1, 6)},
}

FORMATS = (None, "table", "csv", "json")
_SUFFIX = {"table": ".txt", "csv": ".csv", "json": ".json"}


def golden_path(name, fmt):
    if fmt is None:
        fmt = "csv" if CASES[name][0] in ("generate", "figure") else "table"
    return GOLDEN / f"{name}{_SUFFIX[fmt]}"


def argv_for(name, fmt):
    return CASES[name] + (["--format", fmt] if fmt else [])


@pytest.mark.parametrize("fmt", FORMATS, ids=["default", "table", "csv", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_output_is_byte_identical(capsys, name, fmt):
    code = main(argv_for(name, fmt))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == golden_path(name, fmt).read_text(encoding="utf-8")


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


@pytest.mark.parametrize("fmt", FORMATS, ids=["default", "table", "csv", "json"])
@pytest.mark.parametrize("name", ["fit", "figure2"])
def test_model_ii_output_matches_to_tolerance(capsys, name, fmt):
    code = main(argv_for(name, fmt))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    got, want = captured.out, golden_path(name, fmt).read_text(encoding="utf-8")
    # table columns are padded to the widest number
    assert _NUMBER.sub("#", got).split() == _NUMBER.sub("#", want).split()
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert float(a) == pytest.approx(float(b), rel=1e-9, abs=0.0)


def _capture():
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    # generate comes first: fit reads its capture.
    for name in CASES:
        for fmt in FORMATS[1:]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv_for(name, fmt))
            if code != 0:
                sys.exit(f"{name} {fmt}: exit {code}")
            golden_path(name, fmt).write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    _capture()
