"""Hurwitz zeta evaluation tuned for the queue-model parameter range.

The queue-length law needs zeta(s, a) for real s > 1, a > 0, where s can
climb into the thousands as the entropy index approaches 1.  Summing
(a + k)**(-s) directly underflows long before convergence, so everything
here works with the scaled series

    S(s, a) = a**s * zeta(s, a) = sum_{k>=0} (a / (a + k))**s,

whose leading term is exactly 1 and whose value never exceeds
1 + a/(s - 1).  Both loops here sum by Euler-Maclaurin under one rule:
direct terms t_k = (1 + k/a)**(-s) up to a cutoff N, each one log1p and
one exp2, then the integral tail, the half-term and seven Bernoulli
corrections (B2..B14) from Y = a + N.  N is the first k with
2 pi Y >= s + 15, where the corrections decrease, at which Johansson's
rigorous bound on the remainder (arXiv:1309.2877, section 2: 4/(2 pi)**14
times the integral of |f^(14)| from N) stays below 1e-16 of the partial
sum plus the integral tail, tested in linear space.  At N = 0 the tails
start at the exact term t_0 = 1.  A term that underflows ends a loop, as
every tail is then below the smallest double.

The single sum S is _scaled_sum.  For f = (1 + x/a)**(-s) the integral of
|f^(14)| from N is (s)_13 t_N / Y**13, which its test takes as
P(s) (s/Y)**13 t_N with P(s) = (s)_13 / s**13: s/Y < 2 pi wherever the
test runs, so the bound is finite at every s, and so is each correction.
The last 1,024 values of S are cached by (s, a): one qos_report reads its
few sums more than once, and a figure-4 row reads S(s, c) once per
threshold.  P(s) and the corrections' factors are cached by s, as a solve
or a figure evaluates one exponent at many shifts a.  Both caches only
skip repeated work: every value is computed by the same floating-point
operations, in the same order, as without them.

The moments and the solver read excess_sums, the second loop, over the
terms k >= 1 of the law: its terms feed five series (E0, E1, E2, G1, H2;
see its docstring), from which the mean, the utilization, the variance
and the slope of the mean follow as ratios, with no difference of sums
near 1.  Its tails carry derivatives of x**j (1 + x/c)**(-sigma), bounded
term by term in Leibniz' sum, and the pass is memoized by (s, c, q), so a
figure row reading the variance at the beta a solve returned reads the
solve's last pass.

No loop here is free of the libm variant glibc picks by CPU: a log1p
whose last bit differs reaches a sum where the term is large enough.
Both loops take exp as exp2, which has one variant, so only log1p remains
to them.  Over 30,000 (s, c) drawn across the figure domain (q uniform in
[0.55, 0.97], beta log-uniform in [0.05, 50]), with glibc 2.36's AVX2 and
FMA variants masked against unmasked, 53 passes and 12 single sums
differed in some last bit.
"""

import math
import sys
from functools import lru_cache

from .errors import DomainError, NoConvergence

__all__ = [
    "hurwitz_zeta",
    "log_hurwitz_zeta",
    "scaled_hurwitz_zeta",
    "excess_sums",
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
_TWO_PI = 2.0 * math.pi
# Johansson's bound |B~_14(x)|/14! <= 4/(2*pi)**14 on the periodic
# Bernoulli function in the Euler-Maclaurin remainder, and B14/14!.
_REMAINDER_COEF = 4.0 / _TWO_PI**14
_B14_COEF = (7.0 / 6.0) / math.factorial(14)
_REL_TARGET = 1e-16
# log2(e), rounded to the nearest double.  The loops, the solver's step and
# Model II's rates take exp(y) as exp2(y log2 e): glibc picks one of two
# exp variants by CPU (with FMA or without), whose last bits differ for
# about 0.06% of arguments, while its exp2 gave the same bits in both over
# 300,000 arguments (glibc 2.36).
_LOG2_E = 1.4426950408889634

_MIN_NORMAL = sys.float_info.min
_MAX_TERMS = 10_000_000  # direct terms before a cutoff search gives up


def _check(s, a):
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError(f"zeta arguments must be finite, got s={s}, a={a}")
    if s <= 1.0:
        raise DomainError(f"zeta requires s > 1 (series diverges), got s={s}")
    if a <= 0.0:
        raise DomainError(f"zeta requires a > 0, got a={a}")


@lru_cache(maxsize=1 << 10)
def _single_terms(s):
    """What one single sum needs of s alone.

    Returns (s + 15)/(2 pi), s - 1 (exact for every double s in
    (1, 2**53]), the remainder bound's coefficient over the target,
    4/(2 pi)**14 P(s)/1e-16 with P(s) = (s)_13/s**13, and the six factors
    (1 + (2j-1)/s)(1 + 2j/s), j = 1..6, whose product is P(s) and which
    step R_(2j-1) = (s)_(2j-1)/Y**(2j-1) to R_(2j+1) with (s/Y)**2.  Each
    is at most 156, so nothing here overflows at any s.
    """
    factors = tuple((1.0 + (2 * j - 1) / s) * (1.0 + 2 * j / s) for j in range(1, 7))
    p = _REMAINDER_COEF / _REL_TARGET
    for f in factors:
        p *= f
    return (s + 15.0) / _TWO_PI, s - 1.0, p, factors


@lru_cache(maxsize=1 << 10)
def _scaled_sum(s, a):
    # Every single sum enters here.  A raise is not cached: each (s, a) is checked once.
    _check(s, a)
    span, s_minus_1, bound, factors = _single_terms(s)
    log1p, exp2, log2_e = math.log1p, math.exp2, _LOG2_E
    neg_s = -s
    partial = 0.0
    k = 0
    t = 1.0  # the exact t_0
    while True:
        y = a + k
        if y >= span:
            r1 = s / y  # below 2 pi here, so P(s) r1**13 t = (s)_13 t / Y**13 is finite
            integral = t * y / s_minus_1
            if bound * r1**13 * t <= partial + integral:
                break
        partial += t
        k += 1
        if k > _MAX_TERMS:
            raise NoConvergence("Euler-Maclaurin cutoff search did not terminate")
        # -s log2(e) overflows above s = 1.2e308, -s ln(1 + k/a) only where t underflows.
        t = exp2(neg_s * log1p(k / a) * log2_e)
        if t == 0.0:  # every tail is below the smallest double
            return partial
    # The corrections sum_m C_m R_(2m-1), with R_(2j+1) = R_(2j-1) (s/Y)**2 f_j.
    f1, f2, f3, f4, f5, f6 = factors
    c1, c2, c3, c4, c5, c6 = _EM_COEFFS
    rr = r1 * r1
    r3 = r1 * rr * f1
    r5 = r3 * rr * f2
    r7 = r5 * rr * f3
    r9 = r7 * rr * f4
    r11 = r9 * rr * f5
    r13 = r11 * rr * f6
    corrections = c1 * r1 + c2 * r3 + c3 * r5 + c4 * r7 + c5 * r9 + c6 * r11 + _B14_COEF * r13
    total = partial + integral + t * (0.5 + corrections)
    if not math.isfinite(total):
        raise OverflowError(f"scaled zeta sum overflows for s={s}, a={a}")
    return total


def _exp(y):
    """e**y as exp2(y log2 e), whose bits do not depend on the libm variant."""
    return math.exp2(y * _LOG2_E)


@lru_cache(maxsize=1 << 6)  # a solve or a figure row reads one q; an entry is about 1.3 kB
def _excess_terms(s, q):
    """What one excess pass needs of (s, q) alone.

    The exponent differences come from q, where 1 - q and 2q - 1 are
    exact: s - 1 = q/(1-q), s - 2 = (2q-1)/(1-q) and s - 3 =
    (q - 2(1-q))/(1-q), whose numerator is exact for q <= 0.8 (Sterbenz)
    and free of cancellation above.  Returns -s log2(e); (s + 15)/(2 pi), the
    least c + N where the corrections decrease; the integrals'
    coefficients 1/(s-1), 1/((s-1)(s-2)), 2/((s-1)(s-2)(s-3)) (0 where
    E2 diverges) and their s + 1 counterparts 1/s, 1/(s(s-1)),
    2/(s(s-1)(s-2)); the five remainder-bound coefficients over the
    target; and s + 1..s + 13, the rising factors of the corrections.
    """
    om = 1.0 - q
    sm1, sm2, sm3 = q / om, (2.0 * q - 1.0) / om, (q - 2.0 * om) / om
    rising = tuple(s + i for i in range(1, 15))
    poch = s  # (s)_14, then (s+1)_14
    for r in rising[:13]:
        poch *= r
    poch1 = poch * rising[13] / s
    k = _REMAINDER_COEF / _REL_TARGET
    # Leibniz' sum over f^(14) of x^j (1 + x/c)^(-sigma), bounded with x <= c + x:
    # (sigma)_14 (1 + 14j/(sigma+13) + 182[j=2]/((sigma+12)(sigma+13))), over sigma + 13 - j.
    s11, s12, s13, s14 = rising[10:]
    bounds = (
        k * poch / s13,
        k * poch * (1.0 + 14.0 / s13) / s12,
        k * poch * (1.0 + 28.0 / s13 + 182.0 / (s12 * s13)) / s11,
        k * poch1 * (1.0 + 14.0 / s14) / s13,
        k * poch1 * (1.0 + 28.0 / s14 + 182.0 / (s13 * s14)) / s12,
    )
    return (-s * _LOG2_E, (s + 15.0) / _TWO_PI,
            1.0 / sm1, 1.0 / (sm1 * sm2), 2.0 / (sm1 * sm2 * sm3) if sm3 > 0.0 else 0.0,
            1.0 / s, 1.0 / (s * sm1), 2.0 / (s * sm1 * sm2),
            bounds, rising[:13])


@lru_cache(maxsize=1 << 10)
def excess_sums(s: float, c: float, q: float) -> tuple:
    """Return (E0, E1, E2, G1, H2) of the law with s = 1/(1-q) and shift c.

    s must equal 1/(1-q) (DomainError otherwise): the exponent differences
    are formed from q, and s comes first so that tracers that bucket zeta
    calls by (s, a) read it.  With x_k = k/c, t_k = (1 + x_k)**(-s) and u_k = t_k/(1 + x_k), the
    sums over k >= 1 are E_j = sum x_k**j t_k (j = 0, 1, 2), G1 = sum x_k
    u_k and H2 = sum x_k**2 u_k: the excess sums in units of c**j, so
    that each stays finite wherever c is.  S(s, c) = 1 + E0, and the mean
    is c E1/S with no difference of sums near 1.  E2 is inf where it
    diverges (q <= 2/3).

    Direct terms k = 1..N-1 share one log1p and one exp2; Euler-Maclaurin
    covers k >= N for every series, with its integral, half-term and
    seven Bernoulli corrections (B2..B14), the derivatives of
    x**j (1 + x/c)**(-sigma) taken by Leibniz' rule (sigma = s for E_j,
    s + 1 for G1 and H2).  N is the first k >= 0 with 2 pi (c + k) >= s + 15
    at which, for each series, Johansson's remainder bound
    (arXiv:1309.2877, section 2: |R| <= 4/(2 pi)**14 times the integral
    of |f^(14)| from N) stays below 1e-16 of its partial sum plus its
    integral, tested in linear space; |f^(14)| is bounded term by term
    in Leibniz' sum, with x <= c + x.  At N = 0 the tails start at the
    exact term t_0 = 1, as the single sum's do, and E0 drops that term
    again; from N = 1 they would start at t_1, one exp2 and one log1p
    whose last bits every value would carry.  A boundary term that
    underflows ends the pass with the tails taken as 0.  The rounding of
    s ln(1 + k/c), about
    |ln t_k| * 2**-53 relative in t_k, dominates the error where the
    leading terms are tiny; over the mpmath box of the tests the error
    stayed below 6e-14 relative wherever the sums are normal doubles.
    """
    s, c, q = float(s), float(c), float(q)
    if not (math.isfinite(c) and 0.5 < q < 1.0 and s == 1.0 / (1.0 - q)):
        raise DomainError(f"excess sums need q in (1/2, 1) and s = 1/(1-q), got s={s}, q={q}")
    if c <= 0.0:
        raise DomainError(f"zeta requires a > 0, got a={c}")
    (neg_s2, span, i1, i12, i123, j0, j01, j012, (b0, b1, b2, bg, bh),
     rising) = _excess_terms(s, q)
    has_e2 = i123 > 0.0
    log1p, exp2 = math.log1p, math.exp2
    # Where N = 0 can pass, the tails start at the exact term t_0 = 1 and
    # E0's partial sum starts at -1 to take that term out again.
    k, e0 = (0, -1.0) if c >= span else (1, 0.0)
    e1 = e2 = g1 = h2 = 0.0
    while True:
        x = k / c
        t = exp2(neg_s2 * log1p(x))
        if t == 0.0:  # every tail is below the smallest double
            break
        y = c + k
        yc = 1.0 + x  # y/c
        w = x / yc  # k/(c + k), so that x u = t w: u = t/yc can underflow where x u does not
        if y >= span:
            yi = 1.0 / y
            gy = t * y
            bv = gy * yi**14  # g Y**-13
            # H2's test first: it binds most often, then E2's and G1's.
            if (bh * bv * yc <= h2 + gy * (w * (x * j0 + 2.0 * yc * j01) + yc * j012)
                    and (not has_e2 or b2 * bv * yc * yc
                         <= e2 + gy * (x * (x * i1 + 2.0 * yc * i12) + yc * yc * i123))
                    and bg * bv <= g1 + gy * (w * j0 + j01)
                    and b1 * bv * yc <= e1 + gy * (x * i1 + yc * i12)
                    and b0 * bv <= e0 + gy * i1):
                e0, e1, e2, g1, h2 = _excess_tails(
                    (e0, e1, e2, g1, h2), s, c, x, yc, w, t, gy, yi, rising,
                    (i1, i12, i123, j0, j01, j012))
                break
        e0 += t
        xt = x * t
        e1 += xt
        e2 += x * xt
        xu = t * w
        g1 += xu
        h2 += x * xu
        k += 1
        if k > _MAX_TERMS:
            raise NoConvergence("Euler-Maclaurin cutoff search did not terminate")
    return e0, e1, e2 if has_e2 else math.inf, g1, h2


def _excess_tails(partials, s, c, x, yc, w, t, gy, yi, rising, coefs):
    """The partial sums plus each series' Euler-Maclaurin tail from N:
    x = N/c, yc = Y/c for Y = c + N, w = N/Y, t = (1 + x)**(-s), gy = t Y.

    The s + 1 series' boundary term is u = t/yc; its products are formed
    from t and gy (u Y = t c, u N = t w), which do not underflow before
    the tails they carry."""
    e0, e1, e2, g1, h2 = partials
    i1, i12, i123, j0, j01, j012 = coefs
    r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13 = rising
    c1, c2, c3, c4, c5, c6 = _EM_COEFFS
    c7 = _B14_COEF
    # R_n = (s)_n / Y**n.
    q1 = s * yi
    q2 = q1 * r1 * yi
    q3 = q2 * r2 * yi
    q4 = q3 * r3 * yi
    q5 = q4 * r4 * yi
    q6 = q5 * r5 * yi
    q7 = q6 * r6 * yi
    q8 = q7 * r7 * yi
    q9 = q8 * r8 * yi
    q10 = q9 * r9 * yi
    q11 = q10 * r10 * yi
    q12 = q11 * r11 * yi
    q13 = q12 * r12 * yi
    q14 = q13 * r13 * yi
    # With C_m = B_2m/(2m)!, -sum_m C_m f^(2m-1)(N) is g W0 for f = (1 + x/c)**(-s),
    # g (N W0 + W1) for x f and g (N**2 W0 + 2 N W1 + W2) for x**2 f.
    w0 = c1 * q1 + c2 * q3 + c3 * q5 + c4 * q7 + c5 * q9 + c6 * q11 + c7 * q13
    w1 = -(c1 + 3.0 * c2 * q2 + 5.0 * c3 * q4 + 7.0 * c4 * q6 + 9.0 * c5 * q8
           + 11.0 * c6 * q10 + 13.0 * c7 * q12)
    w2 = (6.0 * c2 * q1 + 20.0 * c3 * q3 + 42.0 * c4 * q5 + 72.0 * c5 * q7
          + 110.0 * c6 * q9 + 156.0 * c7 * q11)
    # The same for sigma = s + 1, over Y/s: (s+1)_n / Y**n = (Y/s) R_(n+1).
    v0 = c1 * q2 + c2 * q4 + c3 * q6 + c4 * q8 + c5 * q10 + c6 * q12 + c7 * q14
    v1 = -(c1 * q1 + 3.0 * c2 * q3 + 5.0 * c3 * q5 + 7.0 * c4 * q7 + 9.0 * c5 * q9
           + 11.0 * c6 * q11 + 13.0 * c7 * q13)
    v2 = (6.0 * c2 * q2 + 20.0 * c3 * q4 + 42.0 * c4 * q6 + 72.0 * c5 * q8
          + 110.0 * c6 * q10 + 156.0 * c7 * q12)
    ic = 1.0 / c
    gx, tw, ts = t * x, t * w, t / s
    gnw = gy * w / s  # u Y N / (s c), the s + 1 series' correction scale times N/c
    half_w0 = 0.5 + w0
    e0 += gy * i1 + t * half_w0
    e1 += gy * (x * i1 + yc * i12) + gx * half_w0 + t * w1 * ic
    e2 += (gy * (x * (x * i1 + 2.0 * yc * i12) + yc * yc * i123)
           + gx * (x * half_w0 + 2.0 * w1 * ic) + t * w2 * ic * ic)
    g1 += gy * (w * j0 + j01) + 0.5 * tw + gnw * v0 + ts * v1
    h2 += (gy * (w * (x * j0 + 2.0 * yc * j01) + yc * j012) + 0.5 * tw * x
           + gnw * (x * v0 + 2.0 * v1 * ic) + ts * v2 * ic)
    if not (math.isfinite(e1) and math.isfinite(h2)):
        raise OverflowError(f"excess sums overflow for s={s}, a={c}")
    return e0, e1, e2, g1, h2


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
    Raises OverflowError where ln zeta itself leaves the double range.
    """
    s, a = float(s), float(a)
    value = math.log(_scaled_sum(s, a)) - s * math.log(a)
    if math.isinf(value):
        raise OverflowError(f"ln zeta({s}, {a}) exceeds the double range")
    return value
