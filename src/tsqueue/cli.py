"""Command-line surface: every library operation plus figure datasets.

Exit codes: 0 success, 2 invalid arguments (incl. an unwritable --out
path) or domain errors, 3 solver/fit non-convergence (incl. singular
fits), 4 malformed input file (messages name the offending line).

Every command handler calls the library with the options given, so an
omitted one takes the library's own default, and returns data: a flat
record, or a header and rows for a dataset.  One renderer, ``_render``,
turns it into ``table`` (human readable), ``csv`` or ``json`` (loss-free
round trips, floats printed with 17 significant digits in CSV; strict
JSON, with non-finite floats as null).  ``generate`` and ``figure``
default to csv since their payload is a dataset; everything else
defaults to table.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .distribution import (
    QueueModel,
    _points,
    _validate_q,
    pmf,
    qos_report,
    tail,
    utilization,
    variance,
)
from .errors import DomainError, InputFormatError, NoConvergence, SingularFit
from .fitting import (
    CorrespondenceRecord,
    evaluate_fit,
    fit_model_i,
    fit_model_ii,
    generate_correspondence,
)
from .norros import norros_mean, norros_rho
from .record import Record
from .solver import solve_beta
from .zeta import hurwitz_zeta

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BAD_INPUT = 4

CSV_HEADER = list(CorrespondenceRecord._fields)


class _Figure(NamedTuple):
    """One figure: its default q-list, its columns (a ``{}`` column stands
    for one column per threshold), and its row for one correspondence
    record, from that record, the q's fits and the thresholds."""

    q_list: tuple
    columns: tuple
    row: Callable
    fitted: bool = False  # the row needs Model I and II fits of the q's records


_FIGURES = {
    1: _Figure((0.6, 0.7, 0.8, 0.9, 0.95), ("q", "beta", "rho"),
               lambda r, fits, xs: (r.q, r.beta, r.rho)),
    2: _Figure((0.6, 0.7, 0.8, 0.9), ("q", "beta", "rho", "rho_model_i", "rho_model_ii"),
               lambda r, fits, xs: (
                   r.q, r.beta, r.rho, *(evaluate_fit(fit, r.beta) for fit in fits)),
               fitted=True),
    3: _Figure((0.7, 0.75, 0.8, 0.9), ("q", "rho", "variance"),
               lambda r, fits, xs: (r.q, r.rho, variance(QueueModel(r.q, r.beta)))),
    4: _Figure((0.6, 0.7, 0.8, 0.9), ("q", "rho", "overflow_at_{}"),
               lambda r, fits, xs: (
                   r.q, r.rho, *map(functools.partial(tail, QueueModel(r.q, r.beta)), xs))),
    5: _Figure((0.6, 0.7, 0.8, 0.9), ("q", "rho", "utilization", "mm1_utilization"),
               lambda r, fits, xs: (r.q, r.rho, utilization(QueueModel(r.q, r.beta)), r.rho)),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _finite(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class _Record(Record):
    """One command's flat record.  ``json`` and ``table`` replace the default
    views of ``fields`` where the command shows more than those fields."""

    __slots__ = _fields = ("fields", "json", "table")

    def __init__(self, fields: dict, json: Optional[dict] = None,
                 table: Optional[list] = None):
        _set_fields(self, fields)
        _set_json(self, json)
        _set_table(self, table)


_set_fields, _set_json, _set_table = (slot.__set__ for slot in _Record._slots.values())


def _render(output, fmt) -> str:
    """Text of a handler's output, a ``_Record`` or a ``(header, rows)``
    dataset, in ``fmt``: table, csv or json (non-finite floats as null)."""
    record = isinstance(output, _Record)
    header, rows = (list(output.fields), [output.fields.values()]) if record else output
    if fmt == "json":
        if record:
            payload = output.fields if output.json is None else output.json
        else:
            payload = {"records": [dict(zip(header, row)) for row in rows]}
        return json.dumps(_finite(payload), allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        if record:
            writer.writerows(["" if v is None else _fmt(v) for v in row] for row in rows)
        else:  # a dataset's rows hold floats alone, printed as _fmt prints them
            template = ",".join(["%.17g"] * len(header)) + "\n"
            buf.writelines(template % tuple(row) for row in rows)
        return buf.getvalue()
    if record:
        lines = output.table or [f"{k} = {_fmt(v)}" for k, v in output.fields.items()]
    else:
        cells = [header] + [[_fmt(v) for v in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in cells]
    return "\n".join(lines) + "\n"


def _write_output(out, text):
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:  # an unusable --out path is a usage error
        raise DomainError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------- CSV I/O

def _correspondence(records):
    return CSV_HEADER, list(map(attrgetter(*CSV_HEADER), records))


def _correspondence_columns(text):
    """The columns of a correspondence CSV (mean, beta, rho, q), each a list
    of finite floats.  Each column is converted and checked in one pass;
    only when that fails are the rows walked, to name the first bad line."""
    rows = list(csv.reader(io.StringIO(text)))
    layout = ",".join(CSV_HEADER)
    if not rows:
        raise InputFormatError(f"line 1: empty file (expected header {layout})")
    if rows[0] != CSV_HEADER:
        raise InputFormatError(f"line 1: expected header {layout}, got {','.join(rows[0])}")
    body = rows[1:]
    if not body:
        raise InputFormatError("line 2: no data rows")
    width = len(CSV_HEADER)
    if set(map(len, body)) == {width}:
        try:
            columns = [list(map(float, column)) for column in zip(*body)]
        except ValueError:
            pass
        else:
            if all(all(map(math.isfinite, column)) for column in columns):
                return columns
    for lineno, row in enumerate(body, start=2):  # raises at the first bad line
        if len(row) != width:
            raise InputFormatError(f"line {lineno}: expected {width} fields, got {len(row)}")
        for field in row:
            try:
                value = float(field)
            except ValueError:
                raise InputFormatError(f"line {lineno}: invalid number {field!r}") from None
            if not math.isfinite(value):
                raise InputFormatError(f"line {lineno}: non-finite value {field!r}")


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"line 1: cannot read {path}: {exc}") from exc


# --------------------------------------------------------------- handlers

def _value(value, **inputs):
    """A one-value command's record; its table shows the value alone."""
    return _Record({**inputs, "value": value}, table=[_fmt(value)])


def _cmd_zeta(args):
    return _value(hurwitz_zeta(args.s, args.a), s=args.s, a=args.a)


def _cmd_pmf(args):
    value = pmf(QueueModel(args.q, args.beta), args.i)
    return _value(value, q=args.q, beta=args.beta, i=args.i)


def _cmd_tail(args):
    value = tail(QueueModel(args.q, args.beta), args.x)
    return _value(value, q=args.q, beta=args.beta, x=args.x)


_VARIANCE_NOTE = "variance undefined: requires q > 2/3 (second moment diverges)"


def _cmd_metrics(args):
    model = QueueModel(args.q, args.beta)
    report = qos_report(model, **_given(args, tail_points=int))
    fields = {"q": model.q, "beta": model.beta, **report._asdict()}
    samples = fields.pop("tail_samples")
    payload = dict(fields, tail_samples=[{"x": x, "probability": p} for x, p in samples])
    shown = fields
    if report.variance is None:
        payload["variance_note"] = _VARIANCE_NOTE
        shown = dict(fields, variance=f"n/a ({_VARIANCE_NOTE})")
    table = [f"{key:<16} = {_fmt(value)}" for key, value in shown.items()]
    table += [f"P(i > {x}) = {_fmt(p)}" for x, p in samples]
    fields.update((f"P_gt_{x}", p) for x, p in samples)
    return _Record(fields, payload, table)


def _cmd_solve_beta(args):
    result = solve_beta(args.q, args.mean, **_given(args, "beta0", "tol", "max_iter"))
    return _Record({"q": args.q, "mean": args.mean, **result._asdict()})


def _cmd_norros_mean(args):
    return _value(norros_mean(args.rho, args.hurst), rho=args.rho, hurst=args.hurst)


def _cmd_norros_rho(args):
    return _value(norros_rho(args.mean, args.hurst), mean=args.mean, hurst=args.hurst)


_GRID = ("mean_min", "mean_max", "points")  # the options of the mean grid


def _cmd_generate(args):
    return _correspondence(generate_correspondence(args.q, **_given(args, *_GRID)))


def _cmd_fit(args):
    _, beta, rho, _ = _correspondence_columns(_read_text(args.infile))
    report = (fit_model_i if args.model == "I" else fit_model_ii)(beta, rho)
    names = ("a", "b") if report.model_kind == "I" else ("c", "eta", "d", "mu")
    scores = report._asdict()  # rmse, r_squared, iterations, converged once popped
    kind = {"model": scores.pop("model_kind")}
    params = dict(zip(names, scores.pop("params")))
    return _Record({**kind, **params, **scores}, json={**kind, "params": params, **scores})


def figure_dataset(figure_id, q_list=None, thresholds=(10, 100, 1000), **grid):
    """Header and rows for one figure, over ``q_list`` (default: the
    figure's own) and the mean grid ``generate_correspondence`` takes
    as ``grid``; rows grouped by q, ascending mean."""
    if figure_id not in _FIGURES:
        raise DomainError(f"figure id must be one of {list(_FIGURES)}, got {figure_id}")
    figure = _FIGURES[figure_id]
    q_list = figure.q_list if q_list is None else q_list
    if not q_list:
        raise DomainError("q list must not be empty")
    for q in q_list:
        _validate_q(q)
    thresholds = _points(thresholds, "threshold")
    if not thresholds:
        raise DomainError("thresholds must not be empty")
    header = []
    for name in figure.columns:
        header += [name.format(x) for x in thresholds] if "{}" in name else [name]
    rows = []
    for q in q_list:
        records = generate_correspondence(q, **grid)
        fits = ()
        if figure.fitted:
            beta, rho = [r.beta for r in records], [r.rho for r in records]
            fits = (fit_model_i(beta, rho), fit_model_ii(beta, rho))
        rows += [figure.row(r, fits, thresholds) for r in records]
    return header, rows


def _cmd_figure(args):
    return figure_dataset(args.id, **_given(args, *_GRID, q_list=float, thresholds=int))


# ------------------------------------------------------------ arg parsing

def _parse_list(text, kind):
    """Comma-separated ``kind`` (float or int) values; empty pieces are skipped."""
    try:
        return [kind(piece) for piece in text.split(",") if piece != ""]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise DomainError(f"expected a comma-separated list of {noun}, got {text!r}") from None


def _given(args, *names, **lists):
    """The options among ``names`` and ``lists`` that the command line gave,
    each ``lists`` one parsed as a comma-separated list of its kind.  A flag
    not given is left out, so the library function's own default holds."""
    given = vars(args)
    options = {name: given[name] for name in names if name in given}
    options.update((name, _parse_list(given[name], kind))
                   for name, kind in lists.items() if name in given)
    return options


def build_parser() -> argparse.ArgumentParser:
    """The ``tsqueue`` parser.  Each command's parser sets its ``handler``
    and its ``default_format``, the format used when ``--format`` is not
    given.  An option not given stays unset.  ``--format`` and ``--out`` go
    before or after the command."""
    unset = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False, argument_default=unset)
    common.add_argument(
        "--format", choices=("table", "csv", "json"),
        help="output format (default: table; generate/figure default to csv)",
    )
    common.add_argument("--out", help="write output to this path instead of stdout")
    with_q = argparse.ArgumentParser(add_help=False)
    with_q.add_argument("--q", type=float, required=True)
    model = argparse.ArgumentParser(add_help=False, parents=[with_q])
    model.add_argument("--beta", type=float, required=True)
    grid = argparse.ArgumentParser(add_help=False, argument_default=unset)
    grid.add_argument("--mean-min", type=float)
    grid.add_argument("--mean-max", type=float)
    grid.add_argument("--points", type=int)

    parser = argparse.ArgumentParser(
        prog="tsqueue", parents=[common],
        description="Heavy-tailed maximum-entropy queue model: distribution, "
        "solver, storage-model bridge, fits and figure datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, parents=(), default_format="table"):
        p = sub.add_parser(name, parents=[common, *parents], help=help, argument_default=unset)
        p.set_defaults(handler=handler, default_format=default_format)
        return p

    p = command("zeta", _cmd_zeta, "evaluate the Hurwitz zeta function")
    p.add_argument("s", type=float)
    p.add_argument("a", type=float)

    p = command("pmf", _cmd_pmf, "P(i packets in system)", [model])
    p.add_argument("--i", type=int, required=True)

    p = command("tail", _cmd_tail, "overflow probability P(i > x)", [model])
    p.add_argument("--x", type=int, required=True)

    p = command("metrics", _cmd_metrics, "QoS report for one model", [model])
    p.add_argument("--tail", dest="tail_points", metavar="TAIL",
                   help="comma-separated overflow thresholds")

    p = command("solve-beta", _cmd_solve_beta, "recover beta from a target mean", [with_q])
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--beta0", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)

    p = command("norros-mean", _cmd_norros_mean, "storage-model mean for (rho, H)")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--hurst", type=float, required=True)

    p = command("norros-rho", _cmd_norros_rho, "invert the storage model for rho")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--hurst", type=float, required=True)

    command("generate", _cmd_generate, "correspondence records over a mean grid",
            [with_q, grid], default_format="csv")

    p = command("fit", _cmd_fit, "fit Model I or II to a correspondence CSV")
    p.add_argument("--model", choices=("I", "II"), required=True)
    p.add_argument("--in", dest="infile", required=True)

    p = command("figure", _cmd_figure, "plot-ready dataset for figures 1..5", [grid],
                default_format="csv")
    p.add_argument("--id", type=int, choices=tuple(_FIGURES), required=True)
    p.add_argument("--q-list")
    p.add_argument("--thresholds")

    return parser


@functools.cache
def _parser():
    """The parser, built once per process on first use: building it takes
    about a millisecond, more than many a command's own work."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        output = args.handler(args)
        given = vars(args)
        _write_output(given.get("out"), _render(output, given.get("format", args.default_format)))
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (NoConvergence, SingularFit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DomainError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK
