"""Norros fractional-Brownian storage model and the q <-> H bridge.

The storage model gives the mean buffer occupancy for self-similar input
with traffic intensity rho and Hurst parameter H:

    mean = rho**(1/(2(1-H))) / (1-rho)**(H/(1-H)),

which reduces to the M/M/1 mean rho/(1-rho) at H = 1/2.  Its inverse is
found from the substituted form g(p) = p**(2H) * Y + p - 1 with
p = 1 - rho and Y = mean**(2(1-H)); g is strictly increasing on (0, 1)
with a sign change, so the root is unique.  The entropy index is tied to
self-similarity by q = 1.5 - H.
"""

import math

from .errors import DomainError

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
    """Invert the storage model: the unique rho in (0, 1) for this mean.

    Bisection on the guaranteed bracket (0, 1) down to 1e-12, then two
    Newton polish steps; the residual of g ends up at machine level.
    """
    if not (math.isfinite(mean) and mean > 0.0):
        raise DomainError(f"mean must be positive, got {mean}")
    _validate_hurst(hurst)
    y = mean ** (2.0 * (1.0 - hurst))
    two_h = 2.0 * hurst

    def g(p):
        return p**two_h * y + p - 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    for _ in range(2):
        slope = two_h * p ** (two_h - 1.0) * y + 1.0
        p -= g(p) / slope
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
