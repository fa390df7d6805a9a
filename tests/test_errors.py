"""The package's failure vocabulary: every error it raises is one that
``cli.main`` maps to an exit code, and no input ends in a traceback."""

import ast
import builtins
import contextlib
import io
from pathlib import Path

import pytest

import tsqueue
import tsqueue.cli as cli
from tsqueue import errors
from tsqueue.cli import main

EXIT_CODES = {
    "DomainError": 2,
    "MomentDoesNotExist": 2,
    "OverflowError": 2,
    "NoConvergence": 3,
    "SingularFit": 3,
    "InputFormatError": 4,
}


def test_errors_module_defines_five_classes():
    classes = [name for name, value in vars(errors).items() if isinstance(value, type)]
    assert classes == [
        "DomainError", "MomentDoesNotExist", "NoConvergence", "SingularFit", "InputFormatError"
    ]
    assert set(classes) | {"OverflowError"} == set(EXIT_CODES)


@pytest.mark.parametrize("name,code", EXIT_CODES.items())
def test_main_maps_each_error_to_its_exit_code(capsys, monkeypatch, name, code):
    error = getattr(errors, name, None) or getattr(builtins, name)

    def fail(s, a):
        raise error("no value")

    monkeypatch.setattr(cli, "hurwitz_zeta", fail)
    assert main(["zeta", "4", "4"]) == code
    assert capsys.readouterr() == ("", "error: no value\n")


def _raises(path):
    """(file:line, the name of the raised class) for each raise in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise):
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(raised, "id", None) or getattr(raised, "attr", None)
            yield f"{path.name}:{node.lineno}", name


def test_every_raise_names_a_mapped_error():
    package = Path(tsqueue.__file__).parent
    raises = [r for path in sorted(package.glob("*.py")) for r in _raises(path)]
    assert len(raises) > 50  # the walk sees the package's raises
    assert [(where, name) for where, name in raises if name not in EXIT_CODES] == []


def _imports(path):
    """(file:line, the name) for each name a module imports from a tsqueue module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tsqueue")):
            yield from ((f"{path.name}:{node.lineno}", alias.name) for alias in node.names)


def test_no_module_imports_another_modules_private_constant():
    # A default or limit shared by import is stated twice: it belongs in the
    # one signature or module that uses it.
    package = Path(tsqueue.__file__).parent
    imports = [i for path in sorted(package.glob("*.py")) for i in _imports(path)]
    assert "_validate_q" in {name for _, name in imports}  # the walk sees private imports
    assert [(where, name) for where, name in imports
            if name.startswith("_") and name.isupper()] == []


# Extreme values for every float argument, and integers for the integer ones.
EXTREMES = ["0", "-0", "5e-324", "1e-308", "0.5", "1", "1e154", "1e155", "1e200", "1e308",
            "inf", "nan", "-1"]
INTEGERS = ["0", "-0", "1", "-1", str(10**20), str(10**400)]
# q has no valid value among the extremes: add some from (1/2, 1).
Q_VALUES = EXTREMES + ["0.5000001", "0.75", "0.999999"]
# A --points above 1,000,000 or the number of doubles between the grid's ends
# is refused before the first solve.
POINTS = ["0", "-0", "1", "-1", "2", str(10**6 + 1), str(10**16), str(10**20)]
VALUES = {"--q": Q_VALUES, "--q-list": Q_VALUES, "--points": POINTS}

GRID = {"--mean-min": "0.1", "--mean-max": "100"}

# command: (its float arguments at a valid point, its integer arguments)
COMMANDS = {
    "pmf": ({"--q": "0.75", "--beta": "1"}, {"--i": "3"}),
    "tail": ({"--q": "0.75", "--beta": "1"}, {"--x": "10"}),
    "metrics": ({"--q": "0.75", "--beta": "1"}, {"--tail": "0,10"}),
    "solve-beta": ({"--q": "0.75", "--mean": "2", "--beta0": "1", "--tol": "1e-10"},
                   {"--max-iter": "100"}),
    "norros-mean": ({"--rho": "0.5", "--hurst": "0.75"}, {}),
    "norros-rho": ({"--mean": "2", "--hurst": "0.75"}, {}),
    "generate": ({"--q": "0.75", **GRID}, {"--points": "5"}),
    **{f"figure --id {k}": ({"--q-list": "0.75", **GRID}, {"--points": "5", "--thresholds": "10"})
       for k in range(1, 6)},
}


def _sweep(command):
    """Argument lists for one command: zeta's (s, a) over every pair of
    extremes; for the others, each argument over its values with the rest
    at the valid point, then every float argument at one extreme at once."""
    if command == "zeta":
        return [["zeta", s, a] for s in EXTREMES for a in EXTREMES]
    floats, integers = COMMANDS[command]

    def argv(given):
        return [*command.split(), *(word for pair in given.items() for word in pair)]

    valid = {**floats, **integers}
    calls = [argv({**valid, flag: value}) for flag in floats
             for value in VALUES.get(flag, EXTREMES)]
    calls += [argv({**valid, flag: value}) for flag in integers
              for value in VALUES.get(flag, INTEGERS)]
    calls += [argv({**dict.fromkeys(floats, value), **integers}) for value in EXTREMES]
    return calls


@pytest.mark.parametrize("command", ["zeta", *COMMANDS])
def test_extreme_arguments_exit_with_a_documented_code(command):
    leaks = []
    for argv in _sweep(command):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback, or argparse's own exit
            leaks.append((argv, repr(exc)))
            continue
        if code not in (0, 2, 3, 4) or (code != 0 and not err.getvalue().startswith("error: ")):
            leaks.append((argv, code, err.getvalue()))
    assert leaks == []


# fit --in files that the csv module or the UTF-8 codec refuses: (the file's
# bytes, the message after "error: ").  Each ended in a traceback and exit 1.
BAD_FILES = {
    "oversized-field": (b"mean,beta,rho,q\n1,0.5,0.4,0.6\n2," + b"1" * 131073 + b",0.3,0.6\n",
                        "line 3: field larger than field limit (131072)"),
    "oversized-quoted-field": (b'mean,beta,rho,q\n1,"' + b"1\n" * 70000 + b'",0.4,0.6\n',
                               "line 65538: field larger than field limit (131072)"),
    "latin-1-byte": (b"mean,beta,rho,q\n1,0.5,0.4,0.6\r\n2,0.6,0.3,0.6\r\n3,0.7,0.2,\xff\n",
                     "line 4: byte 0xff is not UTF-8 (invalid start byte)"),
    "header-byte": (b"mean,beta,rho,\xe9\n1,0.5,0.4,0.6\n",
                    "line 1: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    "cr-lines": (b"mean,beta,rho,q\r1,0.5,0.4,0.6\r\x80\r",
                 "line 3: byte 0x80 is not UTF-8 (invalid start byte)"),
    "truncated-sequence": (b"mean,beta,rho,q\n1,0.5,0.4,0.6\n\xe2\x82",
                           "line 3: byte 0xe2 is not UTF-8 (unexpected end of data)"),
}


@pytest.mark.parametrize("name", BAD_FILES)
def test_unreadable_fit_input_exits_four(tmp_path, capsys, name):
    data, message = BAD_FILES[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    assert main(["fit", "--model", "I", "--in", str(path)]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
