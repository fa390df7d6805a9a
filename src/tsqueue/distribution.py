"""Zipf-Mandelbrot queue-length law and the QoS metrics derived from it.

A model is the pair (q, beta): entropy index q in (1/2, 1) and Lagrange
multiplier beta > 0.  The stationary number-in-system law is

    p_i = (c + i)**(-s) / zeta(s, c),   s = 1/(1-q),  c = 1/(beta*(1-q)),

a discrete power law whose tail exponent is q/(1-q).  All probabilities
are assembled in the log domain from the scaled zeta sum S(s, a), so the
q -> 1 regime (s in the thousands) stays representable.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import DomainError, MomentDoesNotExist
from .zeta import scaled_hurwitz_zeta

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
_TAIL_POINTS = (0, 10, 100)


def _validate_q(q):
    """``q`` as a float; DomainError unless it lies strictly in (1/2, 1)."""
    q = float(q)
    if not 0.5 < q < 1.0:  # also rejects nan and inf
        raise DomainError(f"entropy index q must lie strictly in (1/2, 1), got q={q}")
    return q


@dataclass(frozen=True)
class QueueModel:
    """Entropy index and Lagrange multiplier defining one queue-length law.

    Construction also fixes the power-law exponent s = 1/(1-q) > 2 and the
    zeta shift c = 1/(beta*(1-q)), finite and > 0.  Equality, hash and repr
    read (q, beta) only.
    """

    q: float
    beta: float
    s: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = _validate_q(self.q)
        beta = float(self.beta)
        if not math.isfinite(beta):
            raise DomainError(f"model parameters must be finite, got q={q}, beta={beta}")
        if beta <= 0.0:
            raise DomainError(f"beta must be positive, got beta={beta}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "s", 1.0 / (1.0 - q))
        object.__setattr__(self, "c", _zeta_shift(q, beta))


class TailAsymptote(NamedTuple):
    coefficient: float
    exponent: float
    value: float


@dataclass(frozen=True)
class QosReport:
    """Scalar QoS summary plus a table of overflow probabilities."""

    mean: float
    variance: Optional[float]
    utilization: float
    p0: float
    tail_exponent: float
    tail_coefficient: float
    tail_samples: tuple


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


def _log_scaled(s, a):
    return math.log(scaled_hurwitz_zeta(s, a))


def log_pmf(model: QueueModel, i) -> float:
    """ln p_i, exact up to ~1e-13 even deep in the tail."""
    i = _index(i)
    s, c = model.s, model.c
    return -s * math.log1p(i / c) - _log_scaled(s, c)


def pmf(model: QueueModel, i) -> float:
    """P(exactly i packets in the system)."""
    return math.exp(log_pmf(model, i))


def tail(model: QueueModel, x) -> float:
    """Overflow probability P(i > x) = zeta(s, c + x + 1) / zeta(s, c)."""
    x = _index(x, "x")
    s, c = model.s, model.c
    return math.exp(
        -s * math.log1p((x + 1) / c) + _log_scaled(s, c + x + 1) - _log_scaled(s, c)
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
    log_coef = s * math.log(c) - _log_scaled(s, c) - math.log(s - 1.0)
    coefficient = math.exp(log_coef) if log_coef <= _LOG_MAX else math.inf
    log_value = log_coef - exponent * math.log(x)
    value = math.exp(log_value) if log_value <= _LOG_MAX else math.inf
    return TailAsymptote(coefficient, exponent, value)


def _mean_from_sums(c, s0, s1):
    """Mean from the scaled sums s0 = S(s, c) and s1 = S(s-1, c)."""
    return c * math.expm1(math.log(s1) - math.log(s0))


def mean(model: QueueModel) -> float:
    """Mean number of packets, zeta(s-1, c)/zeta(s, c) - c."""
    s, c = model.s, model.c
    return _mean_from_sums(c, scaled_hurwitz_zeta(s, c), scaled_hurwitz_zeta(s - 1.0, c))


def moment(model: QueueModel, k) -> float:
    """E[i**k], finite only for q > k/(k+1).

    Expands i**k = ((c+i) - c)**k binomially, turning the series into
    zeta(s-j, c) ratios that are exact to zeta precision.
    """
    k = _index(k, "k")
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    if model.q <= k / (k + 1.0):
        raise MomentDoesNotExist(
            f"E[i^{k}] diverges: requires q > {k}/{k + 1}, got q={model.q}"
        )
    if k == 1:
        return mean(model)
    s, c = model.s, model.c
    log_s0 = _log_scaled(s, c)
    terms = [
        math.comb(k, j) * (-1.0) ** (k - j) * math.exp(_log_scaled(s - j, c) - log_s0)
        for j in range(k + 1)
    ]
    return c**k * math.fsum(terms)


def variance(model: QueueModel) -> float:
    """Packet-count variance; requires q > 2/3 for the second moment."""
    if model.q <= _TWO_THIRDS:
        raise MomentDoesNotExist(
            f"variance diverges: requires q > 2/3, got q={model.q}"
        )
    s, c = model.s, model.c
    log_s0 = _log_scaled(s, c)
    r1 = math.exp(_log_scaled(s - 1.0, c) - log_s0)
    r2 = math.exp(_log_scaled(s - 2.0, c) - log_s0)
    return c * c * (r2 - r1 * r1)


def utilization(model: QueueModel) -> float:
    """P(system non-empty) = 1 - p_0 = 1 - 1/S(s, c)."""
    return 1.0 - 1.0 / scaled_hurwitz_zeta(model.s, model.c)


def qos_report(model: QueueModel, tail_points=_TAIL_POINTS) -> QosReport:
    """Bundle mean, variance (when finite), utilization and tail table."""
    points = sorted({_index(x, "tail point") for x in tail_points})
    p0 = pmf(model, 0)
    var = variance(model) if model.q > _TWO_THIRDS else None
    asym = tail_asymptote(model, 1)
    samples = tuple((x, tail(model, x)) for x in points)
    return QosReport(
        mean=mean(model),
        variance=var,
        utilization=1.0 - p0,
        p0=p0,
        tail_exponent=asym.exponent,
        tail_coefficient=asym.coefficient,
        tail_samples=samples,
    )
