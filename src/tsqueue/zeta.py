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

The last 1,024 values of S are cached by (s, a): one qos_report reads its
few sums more than once, and a figure row reads again the last sums of
the solve behind its beta.  What an evaluation needs of s alone (the B14
bound's 13 logarithms, s + 14, s - 1 and the Bernoulli terms' rising
factors) is cached by s, as a solve or a figure evaluates one exponent at
many shifts a.  Both caches only skip repeated work: every value is
computed by the same floating-point operations, in the same order, as
without them.
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


@lru_cache(maxsize=1 << 10)
def _exponent_terms(s):
    """What one Euler-Maclaurin evaluation needs of s alone.

    Returns ln(|B14|/14! * prod_{i=0}^{12} (s + i)), the s-part of the
    omitted-correction bound; s + 14; s - 1; and the six factors
    (s+2j-1)(s+2j) that carry the Bernoulli corrections' rising product
    from one j to the next.
    """
    rising13_log = 0.0
    for i in range(13):
        rising13_log += math.log(s + i)
    rising_factors = tuple((s + 2 * j - 1) * (s + 2 * j) for j in range(1, 7))
    return _LOG_B14_COEF + rising13_log, s + 14.0, s - 1.0, rising_factors


@lru_cache(maxsize=1 << 10)
def _scaled_sum(s, a):
    # Every zeta function enters here.  A raise is not cached: each (s, a) is checked once.
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError(f"zeta arguments must be finite, got s={s}, a={a}")
    if s <= 1.0:
        raise DomainError(f"zeta requires s > 1 (series diverges), got s={s}")
    if a <= 0.0:
        raise DomainError(f"zeta requires a > 0, got a={a}")
    bound_base, s14, s_minus_1, rising_factors = _exponent_terms(s)
    log, log1p, exp = math.log, math.log1p, math.exp
    two_pi, log_rel_target = _TWO_PI, _LOG_REL_TARGET
    neg_s = -s

    terms = []
    append = terms.append
    partial = 0.0
    n = 0
    t = 1.0  # (a / (a + n))**s at n = 0
    log_t = 0.0
    while t != 0.0:  # a boundary term that underflowed leaves a negligible tail
        # Corrections decrease geometrically only once s + 14 <= 2*pi*(a+N);
        # requiring that keeps the included B-terms free of cancellation.
        an = a + n
        if s14 <= two_pi * an:
            log_err = log_t + bound_base - 13.0 * log(an)
            floor = log(partial) if partial > 1.0 else 0.0
            if log_err <= log_rel_target + floor:
                break
        append(t)
        partial += t
        n += 1
        if n > 10_000_000:
            raise RuntimeError("Euler-Maclaurin cutoff search did not terminate")
        log_t = neg_s * log1p(n / a)
        t = exp(log_t)

    if t > 0.0:
        an = a + n
        inv = 1.0 / an
        append(t * an / s_minus_1)  # integral tail
        append(0.5 * t)             # half-term
        rising_over = s * inv       # prod (s+i) / an**(2j-1), built up
        for coef, factor in zip(_EM_COEFFS, rising_factors):
            append(t * coef * rising_over)
            rising_over *= factor * inv * inv

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
    return _scaled_sum(s, a)


def hurwitz_zeta(s: float, a: float) -> float:
    """Return zeta(s, a) = sum_{k>=0} (k + a)**(-s) for s > 1, a > 0.

    Raises OverflowError when the value leaves the normal double range
    (huge s with a < 1, or deep underflow); use log_hurwitz_zeta there.
    """
    s, a = float(s), float(a)
    ssum = _scaled_sum(s, a)
    try:
        prefactor = a ** (-s)
    except OverflowError:
        prefactor = math.inf
    value = prefactor * ssum
    if not math.isfinite(value):
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
    return math.log(_scaled_sum(s, a)) - s * math.log(a)
