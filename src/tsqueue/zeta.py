"""Hurwitz zeta evaluation tuned for the queue-model parameter range.

The queue-length law needs zeta(s, a) for real s > 1, a > 0, where s can
climb into the thousands as the entropy index approaches 1.  Summing
(a + k)**(-s) directly underflows long before convergence, so everything
here works with the scaled series

    S(s, a) = a**s * zeta(s, a) = sum_{k>=0} (a / (a + k))**s,

whose leading term is exactly 1 and whose value never exceeds
1 + a/(s - 1).  S is evaluated by Euler-Maclaurin summation: direct terms
up to an adaptive cutoff N, then the integral tail (a+N)**(1-s)/(s-1),
the half-term correction, and Bernoulli corrections through B12.  N is
chosen so the first omitted correction (the B14 term, a rigorous
remainder bound for this completely monotone summand) stays below 1e-15
of the accumulated sum, which keeps the total relative error near 1e-14
over the supported range.
"""

import math
import sys
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "hurwitz_zeta",
    "log_hurwitz_zeta",
    "scaled_hurwitz_zeta",
]

# B_{2j} / (2j)! for j = 1..6.
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
)
# |B14| / 14!, the first omitted correction, used only as an error bound.
_LOG_B14_COEF = math.log((7.0 / 6.0) / math.factorial(14))
_LOG_REL_TARGET = math.log(1e-15)
_TWO_PI = 2.0 * math.pi

_MIN_NORMAL = sys.float_info.min
_MAX_DOUBLE = sys.float_info.max


def _validate(s, a):
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError(f"zeta arguments must be finite, got s={s}, a={a}")
    if s <= 1.0:
        raise DomainError(f"zeta requires s > 1 (series diverges), got s={s}")
    if a <= 0.0:
        raise DomainError(f"zeta requires a > 0, got a={a}")


@lru_cache(maxsize=1 << 16)
def _scaled_sum(s, a):
    # ln prod_{i=0}^{12} (s + i), for the omitted-correction bound.
    rising13_log = 0.0
    for i in range(13):
        rising13_log += math.log(s + i)
    bound_base = _LOG_B14_COEF + rising13_log
    s14 = s + 14.0

    terms = []
    partial = 0.0
    n = 0
    t = 1.0  # (a / (a + n))**s at n = 0
    log_t = 0.0
    while True:
        an = a + n
        if t == 0.0:
            break  # boundary term underflowed; tail block is negligible
        # Corrections decrease geometrically only once s + 14 <= 2*pi*(a+N);
        # requiring that keeps the included B-terms free of cancellation.
        if s14 <= _TWO_PI * an:
            log_err = log_t + bound_base - 13.0 * math.log(an)
            floor = math.log(partial) if partial > 1.0 else 0.0
            if log_err <= _LOG_REL_TARGET + floor:
                break
        terms.append(t)
        partial += t
        n += 1
        if n > 10_000_000:
            raise RuntimeError("Euler-Maclaurin cutoff search did not terminate")
        log_t = -s * math.log1p(n / a)
        t = math.exp(log_t)

    if t > 0.0:
        an = a + n
        inv = 1.0 / an
        terms.append(t * an / (s - 1.0))  # integral tail
        terms.append(0.5 * t)             # half-term
        rising_over = s * inv             # prod (s+i) / an**(2j-1), built up
        for j, coef in enumerate(_EM_COEFFS, start=1):
            terms.append(t * coef * rising_over)
            rising_over *= (s + 2 * j - 1) * (s + 2 * j) * inv * inv

    total = math.fsum(terms)
    if not math.isfinite(total):
        raise OverflowError(f"scaled zeta sum overflows for s={s}, a={a}")
    return total


def scaled_hurwitz_zeta(s: float, a: float) -> float:
    """Return a**s * zeta(s, a), always >= 1 and representable.

    This is the numerically safe form: downstream probability formulas
    are ratios of zetas, and the a**(-s) prefactors cancel exactly.
    """
    s, a = float(s), float(a)
    _validate(s, a)
    return _scaled_sum(s, a)


def hurwitz_zeta(s: float, a: float) -> float:
    """Return zeta(s, a) = sum_{k>=0} (k + a)**(-s) for s > 1, a > 0.

    Raises OverflowError when the value leaves the normal double range
    (huge s with a < 1, or deep underflow); use log_hurwitz_zeta there.
    """
    s, a = float(s), float(a)
    _validate(s, a)
    ssum = _scaled_sum(s, a)
    if a == 1.0:
        return ssum
    try:
        prefactor = a ** (-s)
    except OverflowError:
        raise OverflowError(
            f"zeta({s}, {a}) exceeds the double range; use log_hurwitz_zeta"
        ) from None
    value = prefactor * ssum
    if not math.isfinite(value) or value > _MAX_DOUBLE:
        raise OverflowError(
            f"zeta({s}, {a}) exceeds the double range; use log_hurwitz_zeta"
        )
    if prefactor < _MIN_NORMAL or value < _MIN_NORMAL:
        raise OverflowError(
            f"zeta({s}, {a}) underflows the normal double range; "
            "use log_hurwitz_zeta"
        )
    return value


def log_hurwitz_zeta(s: float, a: float) -> float:
    """Return ln zeta(s, a), stable for arbitrarily large s.

    Computed as ln S(s, a) - s ln a with the dominant a**(-s) term
    factored out, so nothing underflows even at s in the millions.
    """
    s, a = float(s), float(a)
    _validate(s, a)
    return math.log(_scaled_sum(s, a)) - s * math.log(a)
