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

That cutoff test, log_err <= log(1e-15) + log(partial), first compares
log_err with log(1e-15) + (partial - 1) and takes log(partial) only where
that passes.  For every double p > 1, fl(log p) <= fl(p - 1): on (1, 2]
p - 1 is exact and a faithful log cannot round past it, and above 2 the
gap p - 1 - log p exceeds 0.3 (p - 1).  Rounding of + is monotone, so the
precheck fails only where the full test fails, and every cutoff N, and so
every value and error, is the one the full test alone gives.  It must be
grouped as log(1e-15) + (partial - 1), not (log(1e-15) + partial) - 1,
whose rounding the lemma does not cover.

The last 1,024 values of S are cached by (s, a): one qos_report reads its
few sums more than once, and a figure-4 row reads S(s, c) once per
threshold.  What an evaluation needs of s alone (the B14 bound's 13
logarithms, s + 14, s - 1 and the Bernoulli terms' rising factors) is
cached by s, as a solve or a figure evaluates one exponent at many
shifts a.  Both caches only skip repeated work: every value is
computed by the same floating-point operations, in the same order, as
without them.

Each Newton iterate of the beta solver needs S(s-1, c), S(s, c) and
S(s+1, c) at one shift c.  scaled_hurwitz_zeta_triple returns all three
from one loop over n: the three cutoff searches run side by side and share
log1p(n/a) and log(a+n), while each exponent keeps its own terms, exp,
B14 test, tail, corrections and fsum, so each value equals the single
sum's bit for bit.  The triple is not memoized, since no solve asks for
the same (s, c) twice.  It is a second loop beside the single sum's, not
one loop over a tuple of exponents: such a generic loop made single sums,
which the library's other queries make, up to 35% slower.  The two loops
share the tail and corrections (_total).
"""

import math
import sys
from functools import lru_cache

from .errors import DomainError, NoConvergence

__all__ = [
    "hurwitz_zeta",
    "log_hurwitz_zeta",
    "scaled_hurwitz_zeta",
    "scaled_hurwitz_zeta_triple",
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
_MAX_TERMS = 10_000_000  # direct terms before a cutoff search gives up


@lru_cache(maxsize=1 << 10)
def _exponent_terms(s):
    """What one Euler-Maclaurin evaluation needs of s alone.

    Returns ln(|B14|/14! * prod_{i=0}^{12} (s + i)), the s-part of the
    omitted-correction bound; s + 14; s - 1; and the five factors
    (s+2j-1)(s+2j), j = 1..5, that carry the Bernoulli corrections'
    rising product from one j to the next.
    """
    rising13_log = 0.0
    for i in range(13):
        rising13_log += math.log(s + i)
    rising_factors = tuple((s + 2 * j - 1) * (s + 2 * j) for j in range(1, 6))
    return _LOG_B14_COEF + rising13_log, s + 14.0, s - 1.0, rising_factors


def _check(s, a):
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError(f"zeta arguments must be finite, got s={s}, a={a}")
    if s <= 1.0:
        raise DomainError(f"zeta requires s > 1 (series diverges), got s={s}")
    if a <= 0.0:
        raise DomainError(f"zeta requires a > 0, got a={a}")


def _total(terms, s, a, n, t, s_minus_1, rising_factors):
    """S(s, a) from its direct terms up to the cutoff n and the boundary
    term t = (a / (a + n))**s: adds the integral tail, the half-term and
    the Bernoulli corrections, then sums exactly."""
    if t > 0.0:
        an = a + n
        inv = 1.0 / an
        r1, r2, r3, r4, r5 = rising_factors
        c1, c2, c3, c4, c5, c6 = _EM_COEFFS
        # g_j = prod_{i<2j-1} (s+i) / an**(2j-1), built up factor by factor.
        g1 = s * inv
        g2 = g1 * (r1 * inv * inv)
        g3 = g2 * (r2 * inv * inv)
        g4 = g3 * (r3 * inv * inv)
        g5 = g4 * (r4 * inv * inv)
        g6 = g5 * (r5 * inv * inv)
        terms += (
            t * an / s_minus_1,  # integral tail
            0.5 * t,             # half-term
            t * c1 * g1, t * c2 * g2, t * c3 * g3, t * c4 * g4, t * c5 * g5, t * c6 * g6,
        )
    try:
        total = math.fsum(terms)
    except ValueError:  # -inf + inf: (s+1)(s+2) overflows for s above about 1.34e154
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"scaled zeta sum overflows for s={s}, a={a}")
    return total


@lru_cache(maxsize=1 << 10)
def _scaled_sum(s, a):
    # Every single sum enters here.  A raise is not cached: each (s, a) is checked once.
    _check(s, a)
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
            # partial - 1 >= log(partial): log is taken only where the test can pass.
            if log_err <= log_rel_target + (partial - 1.0 if partial > 1.0 else 0.0) and (
                    partial <= 1.0 or log_err <= log_rel_target + log(partial)):
                break
        append(t)
        partial += t
        n += 1
        if n > _MAX_TERMS:
            raise NoConvergence("Euler-Maclaurin cutoff search did not terminate")
        log_t = neg_s * log1p(n / a)
        t = exp(log_t)
    return _total(terms, s, a, n, t, s_minus_1, rising_factors)


def scaled_hurwitz_zeta_triple(s: float, a: float) -> tuple:
    """Return (S(s-1, a), S(s, a), S(s+1, a)), each equal bit for bit to
    scaled_hurwitz_zeta at that exponent.

    One loop over n runs the three cutoff searches side by side, sharing
    log1p(n/a) and log(a+n); it stops when the last search has stopped.
    Raises what the first of scaled_hurwitz_zeta at s, s - 1 and s + 1
    would raise.
    """
    s, a = float(s), float(a)
    _check(s, a)
    lo, hi = s - 1.0, s + 1.0
    if lo <= 1.0:  # S(s-1) diverges; s + 1 > 1 is finite wherever s is
        _scaled_sum(s, a)  # raises first where S(s) alone would
        raise DomainError(f"zeta requires s > 1 (series diverges), got s={lo}")
    base_lo, s14_lo, *tail_lo = _exponent_terms(lo)
    base_mid, s14_mid, *tail_mid = _exponent_terms(s)
    base_hi, s14_hi, *tail_hi = _exponent_terms(hi)
    log, log1p, exp = math.log, math.log1p, math.exp
    two_pi, log_rel_target = _TWO_PI, _LOG_REL_TARGET
    neg_lo, neg_mid, neg_hi = -lo, -s, -hi

    # Per exponent: its terms, partial sum, current term and its log, and
    # its cutoff, None while its search runs.
    terms_lo, terms_mid, terms_hi = [], [], []
    append_lo, append_mid, append_hi = terms_lo.append, terms_mid.append, terms_hi.append
    partial_lo = partial_mid = partial_hi = 0.0
    t_lo = t_mid = t_hi = 1.0
    log_t_lo = log_t_mid = log_t_hi = 0.0
    n_lo = n_mid = n_hi = None
    n = 0
    while True:
        an = a + n
        span = two_pi * an
        # Each search's stop test, as in _scaled_sum; 13 log(a+n) is shared.
        log_an13 = 13.0 * log(an) if s14_lo <= span else 0.0  # s14_lo is the least
        if n_lo is None:
            if t_lo == 0.0 or (s14_lo <= span and (
                    err := log_t_lo + base_lo - log_an13) <= log_rel_target + (
                    partial_lo - 1.0 if partial_lo > 1.0 else 0.0) and (
                    partial_lo <= 1.0 or err <= log_rel_target + log(partial_lo))):
                n_lo = n
            else:
                append_lo(t_lo)
                partial_lo += t_lo
        if n_mid is None:
            if t_mid == 0.0 or (s14_mid <= span and (
                    err := log_t_mid + base_mid - log_an13) <= log_rel_target + (
                    partial_mid - 1.0 if partial_mid > 1.0 else 0.0) and (
                    partial_mid <= 1.0 or err <= log_rel_target + log(partial_mid))):
                n_mid = n
            else:
                append_mid(t_mid)
                partial_mid += t_mid
        if n_hi is None:
            if t_hi == 0.0 or (s14_hi <= span and (
                    err := log_t_hi + base_hi - log_an13) <= log_rel_target + (
                    partial_hi - 1.0 if partial_hi > 1.0 else 0.0) and (
                    partial_hi <= 1.0 or err <= log_rel_target + log(partial_hi))):
                n_hi = n
            else:
                append_hi(t_hi)
                partial_hi += t_hi
        if n_lo is not None and n_mid is not None and n_hi is not None:
            break
        n += 1
        if n > _MAX_TERMS:
            raise NoConvergence("Euler-Maclaurin cutoff search did not terminate")
        log1p_n = log1p(n / a)
        if n_lo is None:
            log_t_lo = neg_lo * log1p_n
            t_lo = exp(log_t_lo)
        if n_mid is None:
            log_t_mid = neg_mid * log1p_n
            t_mid = exp(log_t_mid)
        if n_hi is None:
            log_t_hi = neg_hi * log1p_n
            t_hi = exp(log_t_hi)
    total_mid = _total(terms_mid, s, a, n_mid, t_mid, *tail_mid)
    return (_total(terms_lo, lo, a, n_lo, t_lo, *tail_lo), total_mid,
            _total(terms_hi, hi, a, n_hi, t_hi, *tail_hi))


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
