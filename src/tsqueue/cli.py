"""Command-line surface: every library operation plus figure datasets.

Exit codes: 0 success, 2 invalid arguments (incl. an unwritable --out
path) or domain errors, 3 solver/fit non-convergence (incl. singular
fits), 4 malformed input file (messages name the offending line).

Every command handler returns data: a flat record, or a header and rows
for a dataset.  One renderer, ``_render``, turns it into ``table`` (human
readable), ``csv`` or ``json`` (loss-free round trips, floats printed
with 17 significant digits in CSV; strict JSON, with non-finite floats
as null).  ``generate`` and ``figure`` default to csv since their
payload is a dataset; everything else defaults to table.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .distribution import (
    _TAIL_POINTS,
    QueueModel,
    _validate_q,
    pmf,
    qos_report,
    tail,
    utilization,
    variance,
)
from .errors import DomainError, InputFormatError, NoConvergence, SingularFit
from .fitting import (
    _MEAN_MAX,
    _MEAN_MIN,
    _POINTS,
    CorrespondenceRecord,
    evaluate_fit,
    fit_model_i,
    fit_model_ii,
    generate_correspondence,
)
from .norros import norros_mean, norros_rho
from .solver import _MAX_ITER, _TOL, solve_beta
from .zeta import hurwitz_zeta

__all__ = ["main", "build_parser", "FigureSpec"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BAD_INPUT = 4

CSV_HEADER = [field.name for field in fields(CorrespondenceRecord)]

_DEFAULT_THRESHOLDS = (10, 100, 1000)


class _Figure(NamedTuple):
    """One figure: its default q-list, its columns (a ``{}`` column stands
    for one column per threshold), and its row for one correspondence
    record, from that record's model, the q's fits and the thresholds."""

    q_list: tuple
    columns: tuple
    row: Callable
    fitted: bool = False  # the row needs Model I and II fits of the q's records


_FIGURES = {
    1: _Figure((0.6, 0.7, 0.8, 0.9, 0.95), ("q", "beta", "rho"),
               lambda r, model, fits, xs: (r.q, r.beta, r.rho)),
    2: _Figure((0.6, 0.7, 0.8, 0.9), ("q", "beta", "rho", "rho_model_i", "rho_model_ii"),
               lambda r, model, fits, xs: (
                   r.q, r.beta, r.rho, *(evaluate_fit(fit, r.beta) for fit in fits)),
               fitted=True),
    3: _Figure((0.7, 0.75, 0.8, 0.9), ("q", "rho", "variance"),
               lambda r, model, fits, xs: (r.q, r.rho, variance(model))),
    4: _Figure((0.6, 0.7, 0.8, 0.9), ("q", "rho", "overflow_at_{}"),
               lambda r, model, fits, xs: (r.q, r.rho, *(tail(model, x) for x in xs))),
    5: _Figure((0.6, 0.7, 0.8, 0.9), ("q", "rho", "utilization", "mm1_utilization"),
               lambda r, model, fits, xs: (r.q, r.rho, utilization(model), r.rho)),
}


@dataclass(frozen=True)
class FigureSpec:
    """Which figure dataset to emit and over which grids."""

    figure_id: int
    q_list: tuple
    mean_min: float = _MEAN_MIN
    mean_max: float = _MEAN_MAX
    points: int = _POINTS
    thresholds: tuple = _DEFAULT_THRESHOLDS

    def __post_init__(self):
        if self.figure_id not in _FIGURES:
            raise DomainError(
                f"figure id must be one of {list(_FIGURES)}, got {self.figure_id}"
            )
        if not self.q_list:
            raise DomainError("q list must not be empty")
        for q in self.q_list:
            _validate_q(q)
        if not self.thresholds:
            raise DomainError("thresholds must not be empty")
        if any(x < 0 for x in self.thresholds):
            raise DomainError(f"thresholds must be nonnegative, got {self.thresholds}")
        if self.figure_id == 3 and any(q <= 2.0 / 3.0 for q in self.q_list):
            raise DomainError("figure 3 plots the variance, which requires every q > 2/3")


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


@dataclass(frozen=True)
class _Record:
    """One command's flat record.  ``json`` and ``table`` replace the default
    views of ``fields`` where the command shows more than those fields."""

    fields: dict
    json: Optional[dict] = None
    table: Optional[list] = None


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
        writer.writerows(["" if v is None else _fmt(v) for v in row] for row in rows)
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
    return CSV_HEADER, [astuple(r) for r in records]


def format_correspondence_csv(records) -> str:
    return _render(_correspondence(records), "csv")


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


def parse_correspondence_csv(text):
    return list(map(CorrespondenceRecord, *_correspondence_columns(text)))


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
    report = qos_report(model, _parse_list(args.tail, int))
    fields = {"q": model.q, "beta": model.beta, **asdict(report)}
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
    result = solve_beta(args.q, args.mean, beta0=args.beta0, tol=args.tol,
                        max_iter=args.max_iter)
    return _Record({"q": args.q, "mean": args.mean, **asdict(result)})


def _cmd_norros_mean(args):
    return _value(norros_mean(args.rho, args.hurst), rho=args.rho, hurst=args.hurst)


def _cmd_norros_rho(args):
    return _value(norros_rho(args.mean, args.hurst), mean=args.mean, hurst=args.hurst)


def _cmd_generate(args):
    return _correspondence(
        generate_correspondence(args.q, args.mean_min, args.mean_max, args.points)
    )


def _cmd_fit(args):
    _, beta, rho, _ = _correspondence_columns(_read_text(args.infile))
    report = (fit_model_i if args.model == "I" else fit_model_ii)(beta, rho)
    names = ("a", "b") if report.model_kind == "I" else ("c", "eta", "d", "mu")
    scores = asdict(report)  # rmse, r_squared, iterations, converged once popped
    kind = {"model": scores.pop("model_kind")}
    params = dict(zip(names, scores.pop("params")))
    return _Record({**kind, **params, **scores}, json={**kind, "params": params, **scores})


def figure_dataset(spec: FigureSpec):
    """Header and rows for one figure; rows grouped by q, ascending mean."""
    figure = _FIGURES[spec.figure_id]
    header = []
    for name in figure.columns:
        header += [name.format(x) for x in spec.thresholds] if "{}" in name else [name]
    rows = []
    for q in spec.q_list:
        records = generate_correspondence(q, spec.mean_min, spec.mean_max, spec.points)
        fits = ()
        if figure.fitted:
            beta, rho = [r.beta for r in records], [r.rho for r in records]
            fits = (fit_model_i(beta, rho), fit_model_ii(beta, rho))
        rows += [figure.row(r, QueueModel(q, r.beta), fits, spec.thresholds)
                 for r in records]
    return header, rows


def _cmd_figure(args):
    q_list = (
        tuple(_parse_list(args.q_list, float))
        if args.q_list is not None
        else _FIGURES[args.id].q_list
    )
    spec = FigureSpec(
        figure_id=args.id,
        q_list=q_list,
        mean_min=args.mean_min,
        mean_max=args.mean_max,
        points=args.points,
        thresholds=tuple(_parse_list(args.thresholds, int)),
    )
    return figure_dataset(spec)


# ------------------------------------------------------------ arg parsing

def _parse_list(text, kind):
    """Comma-separated ``kind`` (float or int) values; empty pieces are skipped."""
    try:
        return [kind(piece) for piece in text.split(",") if piece != ""]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise DomainError(f"expected a comma-separated list of {noun}, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The ``tsqueue`` parser.  Each command's parser sets its ``handler``
    and its ``default_format``, the format used when ``--format`` is not
    given.  ``--format`` and ``--out`` go before or after the command, and
    stay unset when not given."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "csv", "json"), default=argparse.SUPPRESS,
        help="output format (default: table; generate/figure default to csv)",
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="write output to this path instead of stdout"
    )
    with_q = argparse.ArgumentParser(add_help=False)
    with_q.add_argument("--q", type=float, required=True)
    model = argparse.ArgumentParser(add_help=False, parents=[with_q])
    model.add_argument("--beta", type=float, required=True)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--mean-min", type=float, default=_MEAN_MIN)
    grid.add_argument("--mean-max", type=float, default=_MEAN_MAX)
    grid.add_argument("--points", type=int, default=_POINTS)

    parser = argparse.ArgumentParser(
        prog="tsqueue", parents=[common],
        description="Heavy-tailed maximum-entropy queue model: distribution, "
        "solver, storage-model bridge, fits and figure datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, parents=(), default_format="table"):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
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
    p.add_argument("--tail", default=",".join(map(str, _TAIL_POINTS)),
                   help="comma-separated overflow thresholds")

    p = command("solve-beta", _cmd_solve_beta, "recover beta from a target mean", [with_q])
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--beta0", type=float)
    p.add_argument("--tol", type=float, default=_TOL)
    p.add_argument("--max-iter", type=int, default=_MAX_ITER)

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
    p.add_argument("--q-list", default=None)
    p.add_argument("--thresholds", default=",".join(map(str, _DEFAULT_THRESHOLDS)))

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
