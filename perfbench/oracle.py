"""Reference values for the benchmark's output checks, computed with mpmath.

Nothing here imports tsqueue.  Every quantity comes from its defining
series at ORACLE_DIGITS significant digits or more.  mpmath's own Hurwitz
zeta (mpmath 1.3) loses digits for non-integer s and large a (about 1e-10
relative at s = 22.3, a = 1001 with 30 working digits), so the scaled sum
S(s, a) = sum_k (a/(a+k))**s is evaluated here by direct terms plus
Euler-Maclaurin with as many Bernoulli corrections as the target needs.
Differences of nearly equal sums (mean, variance) are recomputed with
more working digits until the cancellation is covered.

The law at (q, beta) is p_i = (c + i)**(-s) / zeta(s, c) with
s = 1/(1-q) and c = 1/(beta*(1-q)); q and beta are taken as the exact
binary values of the doubles the program received.
"""

import json
import math
from pathlib import Path

import mpmath

ORACLE_DIGITS = 30
GUARD_DIGITS = 10
TOLERANCES = json.loads((Path(__file__).with_name("tolerances.json")).read_text())
_MAX_DOUBLE = 1.7976931348623157e308
_MAX_DIGITS = 4000
# Euler-Maclaurin starts once 2*pi*(a+N) >= _EM_REACH * (s + 2*terms), so
# successive corrections shrink at least _EM_REACH**2-fold and dps/2 + 2
# of them reach the working precision.
_EM_REACH = 10


def scaled_zeta(s, a):
    """S(s, a) = a**s * zeta(s, a) at the current working precision."""
    eps = mpmath.mpf(10) ** -(mpmath.mp.dps + 2)
    terms = mpmath.mp.dps // 2 + 2
    reach = _EM_REACH * (s + 2 * terms) / (2 * mpmath.pi)
    total, k = mpmath.mpf(0), 0
    while True:
        u = a + k
        t = (a / u) ** s
        # sum_{j>=k} f(j) <= f(k) + integral_k^inf f for this decreasing f
        if t * (1 + u / (s - 1)) < eps * total:
            return total
        if u >= reach:
            break
        total += t
        k += 1
    total += t * u / (s - 1) + t / 2
    rising, power = s, u  # (s)_{2j-1} and u**(2j-1)
    for j in range(1, terms + 1):
        term = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * t / power
        total += term
        if abs(term) < eps * total:
            return total
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power *= u * u
    raise ArithmeticError(f"Euler-Maclaurin did not converge at s={s}, a={a}")


def _with_cancellation(compute):
    """Evaluate compute() -> (value, scale) with digits to spare.

    ``scale`` is the size of the terms that cancel; the working precision
    grows until ORACLE_DIGITS survive the loss of log10(scale/|value|).
    """
    digits = ORACLE_DIGITS + GUARD_DIGITS
    while True:
        with mpmath.workdps(digits):
            value, scale = compute()
            lost = float(mpmath.log10(scale / abs(value))) if value else digits
            if ORACLE_DIGITS + lost + GUARD_DIGITS / 2 <= digits:
                return +value
        if digits > _MAX_DIGITS:
            raise ArithmeticError("cancellation exceeds the oracle's working precision")
        digits = max(2 * digits, int(ORACLE_DIGITS + lost + 2 * GUARD_DIGITS))


class Law:
    """The Zipf-Mandelbrot law at one (q, beta), evaluated in mpmath."""

    def __init__(self, q, beta):
        self.q, self.beta = mpmath.mpf(q), mpmath.mpf(beta)

    def _params(self):
        s = 1 / (1 - self.q)
        return s, 1 / (self.beta * (1 - self.q))

    def _exact(self, fn):
        with mpmath.workdps(ORACLE_DIGITS + GUARD_DIGITS):
            return +fn(*self._params())

    @property
    def s(self):
        return self._exact(lambda s, c: s)

    @property
    def c(self):
        return self._exact(lambda s, c: c)

    def mean(self):
        def compute():
            s, c = self._params()
            ratio = scaled_zeta(s - 1, c) / scaled_zeta(s, c)
            return c * (ratio - 1), c * ratio
        return _with_cancellation(compute)

    def variance(self):
        def compute():
            s, c = self._params()
            s0 = scaled_zeta(s, c)
            r1, r2 = scaled_zeta(s - 1, c) / s0, scaled_zeta(s - 2, c) / s0
            return c * c * (r2 - r1 * r1), c * c * r2
        return _with_cancellation(compute)

    def tail(self, x):
        """P(i > x) = (c/(c+x+1))**s * S(s, c+x+1) / S(s, c)."""
        def value(s, c):
            a = c + x + 1
            return (c / a) ** s * scaled_zeta(s, a) / scaled_zeta(s, c)
        return self._exact(value)

    def p0(self):
        return self._exact(lambda s, c: 1 / scaled_zeta(s, c))

    def utilization(self):
        """P(i > 0), summed from i = 1 so that it has no cancellation."""
        return self.tail(0)

    def tail_coefficient(self):
        """[(1-q)/q] / zeta(s, c) = c**s / ((s - 1) S(s, c))."""
        return self._exact(lambda s, c: c ** s / ((s - 1) * scaled_zeta(s, c)))


def log_hurwitz_zeta(s, a):
    with mpmath.workdps(ORACLE_DIGITS + GUARD_DIGITS):
        s, a = mpmath.mpf(s), mpmath.mpf(a)
        return +(mpmath.log(scaled_zeta(s, a)) - s * mpmath.log(a))


def norros_mean(rho, hurst):
    with mpmath.workdps(ORACLE_DIGITS + GUARD_DIGITS):
        rho, h = mpmath.mpf(rho), mpmath.mpf(hurst)
        return +(rho ** (1 / (2 * (1 - h))) / (1 - rho) ** (h / (1 - h)))


def solve_beta(q, target):
    """beta with mean(q, beta) = target, by bisection then secant on ln beta.

    Bisection is safe because the mean is strictly decreasing in beta.
    """
    def resid(log_beta):
        return Law(q, mpmath.exp(log_beta)).mean() - target

    lo, hi = math.log(1e-8), math.log(1e4)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    with mpmath.workdps(ORACLE_DIGITS):
        root = mpmath.findroot(resid, (mpmath.mpf(lo), mpmath.mpf(hi)),
                               solver="anderson", tol=mpmath.mpf(10) ** -20)
        return mpmath.exp(root)


def close(name, got, ref, slack=0.0):
    """True when got matches the reference within the named tolerance.

    ``slack`` widens the bound by an absolute amount the caller derived.
    A reference beyond the double range must be reported as inf (above)
    or may be reported as 0.0 or a subnormal (below).
    """
    tol = TOLERANCES[name]
    ref = mpmath.mpf(ref)
    if got is None or math.isnan(got):
        return False
    if abs(ref) > _MAX_DOUBLE:
        return math.isinf(got) and (got > 0) == (ref > 0)
    err = abs(mpmath.mpf(got) - ref)
    return err <= tol["rtol"] * abs(ref) + tol.get("atol", 0.0) + slack + 1e-300
