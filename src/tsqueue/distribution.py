"""Zipf-Mandelbrot queue-length law and the QoS metrics derived from it.

A model is the pair (q, beta): entropy index q in (1/2, 1) and Lagrange
multiplier beta > 0.  The stationary number-in-system law is

    p_i = (c + i)**(-s) / zeta(s, c),   s = 1/(1-q),  c = 1/(beta*(1-q)),

a discrete power law whose tail exponent is q/(1-q).  Probabilities are
assembled in the log domain from the scaled zeta sum S(s, a), so the
q -> 1 regime (s in the thousands) stays representable.

The moments come from one pass, zeta.excess_sums, over the terms k >= 1
of the law: with S = S(s, c) = 1 + E0, the mean is c E1/S, the second
moment c**2 E2/S, the utilization E0/S and the variance
c**2 (E2/S - (E1/S)**2).  None of them is a difference of sums near 1,
which lost every digit at large beta and near q -> 1 (the mean and
utilization of q = 0.9, beta = 700 read 0; the variance of
q = 0.999999999, beta = 1e-5 read -1.8e13).  pmf, tail and the asymptote
keep the single sum S(s, a): a probability is a ratio of sums, not a
difference, so it has nothing to cancel, and the single sum is cheaper
than the five-series pass.  A model computes ln S(s, c) on its first
read and keeps it, so a report or a figure-4 row that reads several tail
points sums S(s, c) once.  The pass is memoized by (s, c, q), so a figure
row that reads the variance or the utilization at a beta the solver has
just returned reads the solver's last pass.
"""

import math
import operator

from .errors import DomainError, MomentDoesNotExist
from .record import Record
from .zeta import _excess_pass, scaled_hurwitz_zeta

__all__ = [
    "QueueModel",
    "QosReport",
    "TailAsymptote",
    "pmf",
    "log_pmf",
    "tail",
    "tail_asymptote",
    "mean",
    "moment",
    "variance",
    "utilization",
    "qos_report",
]

_TWO_THIRDS = 2.0 / 3.0
_LOG_MAX = math.log(1.7976931348623157e308)


def _validate_q(q):
    """``q`` as a float; DomainError unless it lies strictly in (1/2, 1)."""
    q = float(q)
    if not 0.5 < q < 1.0:  # also rejects nan and inf
        raise DomainError(f"entropy index q must lie strictly in (1/2, 1), got q={q}")
    return q


class QueueModel(Record):
    """Entropy index and Lagrange multiplier defining one queue-length law.

    An immutable record with fields (q, beta, s, c): construction also fixes
    the power-law exponent s = 1/(1-q) > 2 and the zeta shift
    c = 1/(beta*(1-q)), finite and > 0.  Equality, hash and repr read
    (q, beta) only.
    """

    _fields = ("q", "beta", "s", "c")
    _compared = ("q", "beta")
    __slots__ = (*_fields, "_norm")

    def __init__(self, q: float, beta: float):
        q = _validate_q(q)
        beta = float(beta)
        if not math.isfinite(beta):
            raise DomainError(f"model parameters must be finite, got q={q}, beta={beta}")
        if beta <= 0.0:
            raise DomainError(f"beta must be positive, got beta={beta}")
        _set_q(self, q)
        _set_beta(self, beta)
        _set_s(self, 1.0 / (1.0 - q))
        _set_c(self, _zeta_shift(q, beta))
        _set_norm(self, None)

    @property
    def _log_norm(self):
        # ln S(s, c), the law's normalizer, summed on first read: the excess-pass
        # metrics never read it.  Not a field, so repr, eq and hash ignore it.
        norm = _get_norm(self)
        if norm is None:
            norm = _log_scaled(self.s, self.c)
            _set_norm(self, norm)
        return norm


_set_q, _set_beta, _set_s, _set_c, _set_norm = (
    slot.__set__ for slot in QueueModel._slots.values())
_get_norm = QueueModel._slots["_norm"].__get__


class TailAsymptote(Record):
    """The tail's power law C x**(-exponent) and its value at x: an immutable
    record."""

    __slots__ = _fields = ("coefficient", "exponent", "value")


class QosReport(Record):
    """Scalar QoS summary plus a table of overflow probabilities: an
    immutable record."""

    __slots__ = _fields = ("mean", "variance", "utilization", "p0", "tail_exponent",
                           "tail_coefficient", "tail_samples")


def _zeta_shift(q, beta):
    """c = 1/(beta*(1-q)); DomainError where beta is too small for it to be finite."""
    scale = beta * (1.0 - q)
    c = 1.0 / scale if scale != 0.0 else math.inf
    if not math.isfinite(c):
        raise DomainError(
            f"beta={beta} is too small for q={q}: "
            "the zeta shift 1/(beta*(1-q)) overflows a double"
        )
    return c


def _index(value, name="i"):
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    return value


def _points(values, name):
    """``values`` as ascending distinct nonnegative integers, each checked as a ``name``."""
    return sorted({_index(x, name) for x in values})


def _log_scaled(s, a):
    return math.log(scaled_hurwitz_zeta(s, a))


def log_pmf(model: QueueModel, i) -> float:
    """ln p_i, exact up to ~1e-13 even deep in the tail."""
    i = _index(i)
    return -model.s * math.log1p(i / model.c) - model._log_norm


def pmf(model: QueueModel, i) -> float:
    """P(exactly i packets in the system)."""
    return math.exp(log_pmf(model, i))


def tail(model: QueueModel, x) -> float:
    """Overflow probability P(i > x) = zeta(s, c + x + 1) / zeta(s, c)."""
    x = _index(x, "x")
    s, c = model.s, model.c
    return math.exp(
        -s * math.log1p((x + 1) / c) + _log_scaled(s, c + x + 1) - model._log_norm
    )


def tail_asymptote(model: QueueModel, x) -> TailAsymptote:
    """Power-law tail approximation B * x**(-q/(1-q)) for large x.

    The coefficient B = [(1-q)/q] / zeta(s, c) overflows a double once q
    is very close to 1; it is reported as inf there while the evaluated
    ``value`` stays finite whenever it is representable.
    """
    x = _index(x, "x")
    if x < 1:
        raise DomainError(f"asymptote threshold must be >= 1, got {x}")
    s, c = model.s, model.c
    exponent = s - 1.0  # q/(1-q)
    log_coef = s * math.log(c) - model._log_norm - math.log(s - 1.0)
    coefficient = math.exp(log_coef) if log_coef <= _LOG_MAX else math.inf
    log_value = log_coef - exponent * math.log(x)
    value = math.exp(log_value) if log_value <= _LOG_MAX else math.inf
    return TailAsymptote(coefficient, exponent, value)


def _excess(model):
    """The excess pass at model: (E0, E1, E2, G1, H2), in units of c**j,
    then K2 and its error bound (zeta._excess_pass)."""
    return _excess_pass(model.s, model.c, model.q)


def mean(model: QueueModel) -> float:
    """Mean number of packets, c E1/S."""
    e0, e1 = _excess(model)[:2]
    return model.c * (e1 / (1.0 + e0))


def moment(model: QueueModel, k) -> float:
    """E[i**k] for k = 1 or 2 from the excess pass: the mean, or c**2 E2/S,
    which is finite only for q > 2/3.  Any other k is a DomainError."""
    k = _index(k, "k")
    if k == 1:
        return mean(model)
    if k != 2:
        raise DomainError(f"moment order must be 1 or 2, got {k}")
    if model.q <= _TWO_THIRDS:
        raise MomentDoesNotExist(f"E[i^2] diverges: requires q > 2/3, got q={model.q}")
    e0, _, e2 = _excess(model)[:3]
    return model.c * (model.c * (e2 / (1.0 + e0)))


def variance(model: QueueModel) -> float:
    """Packet-count variance c**2 (E2/S - (E1/S)**2); requires q > 2/3 for
    the second moment."""
    if model.q <= _TWO_THIRDS:
        raise MomentDoesNotExist(
            f"variance diverges: requires q > 2/3, got q={model.q}"
        )
    e0, e1, e2 = _excess(model)[:3]
    total = 1.0 + e0
    m1 = e1 / total
    return model.c * (model.c * (e2 / total - m1 * m1))


def utilization(model: QueueModel) -> float:
    """P(system non-empty) = 1 - p_0 = E0/S."""
    e0 = _excess(model)[0]
    return e0 / (1.0 + e0)


def qos_report(model: QueueModel, tail_points=(0, 10, 100)) -> QosReport:
    """Bundle mean, variance (when finite), utilization and tail table:
    one excess pass plus the single sums of the probabilities."""
    points = _points(tail_points, "tail point")
    p0 = pmf(model, 0)
    var = variance(model) if model.q > _TWO_THIRDS else None
    asym = tail_asymptote(model, 1)
    samples = tuple((x, tail(model, x)) for x in points)
    return QosReport(
        mean=mean(model),
        variance=var,
        utilization=utilization(model),
        p0=p0,
        tail_exponent=asym.exponent,
        tail_coefficient=asym.coefficient,
        tail_samples=samples,
    )
