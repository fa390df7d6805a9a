"""Norros fractional-Brownian storage model and the q <-> H bridge.

The storage model gives the mean buffer occupancy for self-similar input
with traffic intensity rho and Hurst parameter H:

    mean = rho**(1/(2(1-H))) / (1-rho)**(H/(1-H)),

which reduces to the M/M/1 mean rho/(1-rho) at H = 1/2.  Its inverse is
the root of the convex f(x) = b softplus(x) - a softplus(-x) - ln mean in
the logit x = ln(rho/(1-rho)), with a = 1/(2(1-H)), b = H/(1-H) and
f' = a(1-rho) + b rho in [a, b].  The entropy index is tied to
self-similarity by q = 1.5 - H.
"""

import math

from .errors import DomainError
from .zeta import _exp

__all__ = ["norros_mean", "norros_rho", "q_from_hurst", "hurst_from_q"]


def _validate_hurst(hurst):
    if not (math.isfinite(hurst) and 0.5 <= hurst < 1.0):
        raise DomainError(f"Hurst parameter must lie in [0.5, 1), got {hurst}")


def norros_mean(rho: float, hurst: float) -> float:
    """Mean buffer occupancy of the storage model; increasing in rho."""
    rho, hurst = float(rho), float(hurst)
    if not (math.isfinite(rho) and 0.0 < rho < 1.0):
        raise DomainError(f"traffic intensity must lie in (0, 1), got rho={rho}")
    _validate_hurst(hurst)
    one_minus_h = 1.0 - hurst
    log_mean = (
        math.log(rho) / (2.0 * one_minus_h)
        - (hurst / one_minus_h) * math.log1p(-rho)
    )
    try:
        return math.exp(log_mean)
    except OverflowError:
        raise OverflowError(
            f"storage-model mean for rho={rho}, hurst={hurst} exceeds the double range"
        ) from None


def norros_rho(mean: float, hurst: float) -> float:
    """The storage model's rho, to about 1e-16 (1 + |ln mean|) relative; 1.0
    where 1 - rho < 2**-54, as no double lies nearer.

    Newton on f from x0 = ln(mean)/a below mean = 1, ln(mean)/b above, where
    f(x0) >= 0: the corrections stay positive until one is below 4e-16
    max(1, |x|) or of the wrong sign (rounding noise).  Below rho = 1/2, rho
    is e/(1+e), e = exp(x); above, 1 - p, with p = 1 - rho polished by one
    Newton step on p**(2H) mean**(2(1-H)) + p - 1 = 0.
    """
    if not (math.isfinite(mean) and mean > 0.0):
        raise DomainError(f"mean must be positive, got {mean}")
    _validate_hurst(hurst)
    one_minus_h = 1.0 - hurst
    a, b = 0.5 / one_minus_h, hurst / one_minus_h
    spread, log1p = b - a, math.log1p
    log_mean = math.log(mean)
    x = log_mean / (a if mean < 1.0 else b)
    dx = math.inf
    # max(1, |x|) and -|x| as expressions: a loop of a few iterates per call
    # pays more for builtin calls than for its arithmetic.
    while dx > 4e-16 * (x if x > 1.0 else -x if x < -1.0 else 1.0):
        if x < 0.0:
            e = _exp(x)
            soft = log1p(e)  # softplus(-|x|)
            f, slope = b * soft - a * (soft - x), a + spread * (e / (1.0 + e))
        else:
            e = _exp(-x)
            soft = log1p(e)
            f, slope = b * (x + soft) - a * soft, b - spread * (e / (1.0 + e))
        dx = (f - log_mean) / slope
        x -= dx
    e = _exp(x if x < 0.0 else -x)
    if x < 0.0:
        return e / (1.0 + e)
    p, y, two_h = e / (1.0 + e), mean ** (2.0 * one_minus_h), 2.0 * hurst
    p -= (p**two_h * y + p - 1.0) / (two_h * p ** (two_h - 1.0) * y + 1.0)
    return 1.0 - p


def q_from_hurst(hurst: float) -> float:
    """Entropy index q = 1.5 - H; exact in floating point on [0.5, 1)."""
    _validate_hurst(hurst)
    return 1.5 - hurst


def hurst_from_q(q: float) -> float:
    """Hurst parameter H = 1.5 - q for q in (1/2, 1]."""
    if not (math.isfinite(q) and 0.5 < q <= 1.0):
        raise DomainError(f"entropy index must lie in (1/2, 1], got {q}")
    return 1.5 - q
