"""Hurwitz zeta evaluation tuned for the queue-model parameter range.

The queue-length law needs zeta(s, a) for real s > 1, a > 0, where s can
climb into the thousands as the entropy index approaches 1.  Summing
(a + k)**(-s) directly underflows long before convergence, so everything
here works with the scaled series

    S(s, a) = a**s * zeta(s, a) = sum_{k>=0} (a / (a + k))**s,

whose leading term is exactly 1 and whose value never exceeds
1 + a/(s - 1).  Both loops here sum by Euler-Maclaurin under one rule:
direct terms t_k = (1 + k/a)**(-s) up to a cutoff N, each one log1p and
one exp2, then the integral tail, the half-term and eleven Bernoulli
corrections (B2..B22) from Y = a + N.  N is the first k with
2 pi Y >= s + 23, where the corrections decrease, at which Johansson's
rigorous bound on the remainder (arXiv:1309.2877, section 2: 4/(2 pi)**22
times the integral of |f^(22)| from N) stays below 1e-16 of the partial
sum plus the integral tail, tested in linear space.  The corrections cost
a few multiplications once per sum, where each direct term costs a log1p,
an exp2 and the bound's test, so the order is high: on the default figure
grids a pass takes 5.4 direct terms.  At N = 0 the tails start at the
exact term t_0 = 1.

Both loops have one exit besides the cutoff: they return their partial
sums as they stand once no later addition, of a direct term or of the
tails at any later cutoff, can change a bit of them.  Where t_k > 2**-110
the test is that one comparison.  Past it, each series' term at k, times
6 in the single sum and 32 in the pass, plus its integral from k, must lie
strictly below 2**-110 of its partial sum; in the pass only where
x_k = k/c >= 2/(s - 2), past the peak of every weight x**j (1 + x)**(-sigma)
of its six series (E2's is the last), and where t_k < 2**-98 E1 (for K2's
bound, below).  In the single sum the partial sum is at least 1 and the
integral from k is t_k (a + k)/(s - 1); the pass's integrals are the tails'
own.  t_k = 0, where the loops used to stop, passes the test: every term
and tail is then below the smallest double.

Why the exit keeps every bit.  Where p >= 2**e, p's neighbours lie at
least 2**(e-53) away, so adding any x with |x| < p 2**-55 rounds to p
(round to nearest; Higham, Accuracy and Stability of Numerical Algorithms,
2002, ch. 2).  The test's strict < never holds where 2**-110 p rounds to
0, so p > 2**-965 wherever it fires, 2**-110 p rounds to at most 2**-109 p,
and subnormal roundings (2**-1075 each) stay far below p 2**-55.  Past the
peaks no later term of a series exceeds its term at k, and the integral of
a positive function from N shrinks as N grows, so every later direct
addition is below 2**-111 p and rounds to a no-op.  A cutoff at any later
N then adds the integral from N, at most the one from k, and the half-term
and corrections.  There r = s/Y < 2 pi and (s + i)/Y < 2 pi for i <= 21,
so R_n = (s)_n / Y**n < r (2 pi)**(n-1), and |C_m| = 2 zeta(2m)/(2 pi)**2m;
with N >= 1 in the pass, the half-term and corrections come to at most
4.24 times the term at N in the single sum and E0, 10.5 in E1 and G1, 30
in E2 and H2 and 6.2 in K2 (in K2's, two factors of R_n are bounded, r and
(s + 1)/Y).  So each tail is below 2**-109 p as well, its computed value
off by a few ulps (each computed term within 2**-40 of its exact value,
as |ln t_k| < 746), and adding it rounds to a no-op.  Where the exit fires
the loop would have returned the same partial sums, all finite, by its
cutoff or by underflow: every sum and every value read from it keeps its
bits, and no OverflowError is lost.

K2's error bound (_excess_pass) is the one element that can differ.  Where
the exit ends a pass it is 0.0, as where the terms underflow: the rest of
K2 lies below its last bit.  A later cutoff would have returned
bk R_9 t_N, at most 51.6 t_k (bk is at most 81 * 4/(2 pi)**10, at s = 2,
and R_9 < (2 pi)**9).  The test gives t_k < 2**-114 S (E0's clause) and
t_k < 2**-97 E1 after rounding (E1's clause implies it where
x_k >= 2**-17, so in every pass with s <= 9.9e6).  So the term
s (1 + s) bound (1/S + 1/E1) that solver._solve adds to its certificate's
rounding term s (1 + s) 2**-36 was below s (1 + s) 2**-91, less than half
an ulp of that term (at least s (1 + s) 2**-90): the sum was the rounding
term itself, as it is with 0.0, and no certificate decision changes.

The single sum S is _scaled_sum.  For f = (1 + x/a)**(-s) the integral of
|f^(22)| from N is (s)_21 t_N / Y**21, which its test takes as
P(s) (s/Y)**21 t_N with P(s) = (s)_21 / s**21: s/Y < 2 pi wherever the
test runs, so the bound is finite at every s, and so is each correction.
S itself is not cached: the one value read more than once, a model's
normalizer S(s, c), is kept by the model as its logarithm
(distribution.QueueModel).  P(s) and the corrections' factors are cached
by s, as a solve or a figure evaluates one exponent at many shifts a.
Like the caches of the pass below, this one only skips repeated work:
every value is computed by the same floating-point operations, in the
same order, as without it.

The moments and the solver read excess_sums, the second loop, over the
terms k >= 1 of the law: its terms feed five series (E0, E1, E2, G1, H2;
see its docstring), from which the mean, the utilization, the variance
and the slope of the mean follow as ratios, with no difference of sums
near 1.  Its tails carry derivatives of x**j (1 + x/c)**(-sigma), bounded
term by term in Leibniz' sum and held as multiples of P(s) (s/Y)**21, as
the single sum's are, and the pass is memoized by (s, c, q), so a
figure row reading the variance at the beta a solve returned reads the
solve's last pass where the solve evaluated that beta.

The same pass (_excess_pass) also sums K2 = sum x**2 (1 + x)**(-(s+2)),
one more product per term, for the solver's curvature of ln mean; K3 =
sum x**3 (1 + x)**(-(s+2)) is H2 - K2, so it needs no series of its own.
K2 rides on the cutoff the other five set, which it does not move, and
its tails (sigma = s + 2, weight x**2) stop at B10: the curvature weighs
only a step's square, so K2 needs few of the digits the others keep, and
six fewer corrections save about a quarter of its cost.  The pass returns
K2's order-10 remainder bound (Johansson's, through Leibniz as above)
with K2 rather than hold it below 1e-16 of K2.  Over the passes of ten
default grids (q in [0.55, 0.97]) it came to 2e-10 of K2 at the median
and 1.2e-6 at most; with all eleven corrections the grids' solves took
no fewer passes.  Leibniz' x <= c + x makes it loose where the weight
sits at x << 1 (large s): at s = 9e8, c = 5e9 it reads 380 K2, where K2
is good to 1e-16.

No loop here is free of the libm variant glibc picks by CPU: a log1p
whose last bit differs reaches a sum where the term is large enough.
Both loops take exp as exp2, which has one variant, so only log1p remains
to them.  How often a pass, a single sum or a solve then differs in some
last bit is measured in README.md ("Install and test").  A ln(1 + x) from
float arithmetic and a table alone gave the same bits under both, but at
about 0.2 us more per term it spent most of what the order-22 rule saves
(ROADMAP.md, "Bits that do not depend on glibc's libm variant").
"""

import math
import sys
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "hurwitz_zeta",
    "log_hurwitz_zeta",
    "scaled_hurwitz_zeta",
    "excess_sums",
]

# C_m = B_2m/(2m)! for m = 1..11, each the nearest double to the exact ratio
# (Python's int/int division rounds correctly): the corrections B2..B22.  The
# rule's order, 22, is written out wherever it enters: the span s + 23, the
# bound's 4/(2 pi)**22 and (s/Y)**21, the factors of P(s) = (s)_21/s**21, the
# Leibniz constants of _excess_terms and the tails' R_1..R_22.
_EM_COEFFS = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
    43867 / 5109094217170944000,
    -174611 / 802857662698291200000,
    77683 / 14101100039391805440000,
)
# (2m-1) C_m and (2m-1)(2m-2) C_m (m >= 2): the corrections of x f and x**2 f.
_EM_SLOPES = tuple((2 * m - 1) * c for m, c in enumerate(_EM_COEFFS, 1))
_EM_CURVES = tuple((2 * m - 1) * (2 * m - 2) * c for m, c in enumerate(_EM_COEFFS, 1))[1:]
_TWO_PI = 2.0 * math.pi
# Johansson's bound |B~_22(x)|/22! <= 4/(2*pi)**22 on the periodic
# Bernoulli function in the Euler-Maclaurin remainder.
_REMAINDER_COEF = 4.0 / _TWO_PI**22
_REL_TARGET = 1e-16
_BOUND_COEF = _REMAINDER_COEF / _REL_TARGET
_K2_COEF = 4.0 / _TWO_PI**10  # the bound at order 10, where K2's corrections stop (B10)
# log2(e), rounded to the nearest double.  The loops, the solver's step and
# Model II's rates take exp(y) as exp2(y log2 e): glibc picks one of two
# exp variants by CPU (with FMA or without), whose last bits differ for
# about 0.06% of arguments, while its exp2 gave the same bits in both over
# 300,000 arguments (glibc 2.36).
_LOG2_E = 1.4426950408889634

_MIN_NORMAL = sys.float_info.min
# The exit's fraction of a partial sum (module docstring), and the gate it
# takes first, one comparison of t_k against it.
_TINY = 2.0**-110
# The pass's exit also asks t_k < 2**-98 E1, so that the K2 bound it drops
# (at most 51.6 t_k) could not have moved the solver's certificate.
_K2_DROP = 2.0**-98
# Neither loop needs a term budget.  With Y = a + N (c + N in the pass) and
# r = s/Y at a test:
# - Before the cutoff, a + k < (s + 23)/(2 pi) gives s ln(1 + k/a) >=
#   s k/(a + k) > 2 pi k - 23, so t_k < e**(23 - 2 pi k), 0 from k = 123.
#   In the single sum (partial >= 1, (a + k)/(s - 1) < (s + 23)/(2 pi (s - 1)))
#   the exit then fires by k = 17 where s >= 1.5 and by k = 22 at any s, and
#   the cutoff comes by k = ceil((s + 23)/(2 pi)), whichever is first.
# - Past it, the single sum's partial sum holds t_(N-m) for its m terms from
#   the cutoff, and t_(N-m)/t_N = (Y/(Y - m))**s >= e**(r m).  Its test
#   bound r**21 t <= partial + integral holds once e**(r m) >= bound r**21,
#   which at every r takes m >= 21 bound**(1/21)/e: 61 with P(s) <= 21!, and
#   8 where s >= 84.  A single sum takes at most 65 direct terms (4 + 61 as
#   s -> 1; 17 + 8 = 25 where s >= 84), against 184 without the exit.
# - In the pass, the weights (k/c)**j of E1, E2, G1 and H2 leave the partial
#   sums small where N << c, so its bound comes from the integrals.  From
#   N = 1, each test holds on its integral alone where r**22 is below a
#   function of s alone (E0's is s/((s - 1) b0)), and over s in (2, 2**53],
#   the s of 1 - q >= 2**-53, the least of them gives r = 0.0404 (H2's, at
#   s = 2**53).  While a test fails, then, r > 0.0404, and t_N <= e**(-N r)
#   (s ln(1 + N/c) >= N s/(c + N)), which is 0 from N = 18,500 on; the exit
#   can only end a pass sooner.  The deepest pass found, at s = 2**53 and
#   c = s/0.114, takes 202 terms: its terms stay above 2**-110 to the cutoff.


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

    Returns (s + 23)/(2 pi), s - 1 (exact for every double s in
    (1, 2**53]), the remainder bound's coefficient over the target,
    4/(2 pi)**22 P(s)/1e-16 with P(s) = (s)_21/s**21, and the ten factors
    (1 + (2j-1)/s)(1 + 2j/s), j = 1..10, whose product is P(s) and which
    step R_(2j-1) = (s)_(2j-1)/Y**(2j-1) to R_(2j+1) with (s/Y)**2.  Each
    is at most 420, so nothing here overflows at any s.
    """
    f1 = (1.0 + 1.0 / s) * (1.0 + 2.0 / s)
    f2 = (1.0 + 3.0 / s) * (1.0 + 4.0 / s)
    f3 = (1.0 + 5.0 / s) * (1.0 + 6.0 / s)
    f4 = (1.0 + 7.0 / s) * (1.0 + 8.0 / s)
    f5 = (1.0 + 9.0 / s) * (1.0 + 10.0 / s)
    f6 = (1.0 + 11.0 / s) * (1.0 + 12.0 / s)
    f7 = (1.0 + 13.0 / s) * (1.0 + 14.0 / s)
    f8 = (1.0 + 15.0 / s) * (1.0 + 16.0 / s)
    f9 = (1.0 + 17.0 / s) * (1.0 + 18.0 / s)
    f10 = (1.0 + 19.0 / s) * (1.0 + 20.0 / s)
    p = _BOUND_COEF * f1 * f2 * f3 * f4 * f5 * f6 * f7 * f8 * f9 * f10
    return (s + 23.0) / _TWO_PI, s - 1.0, p, (f1, f2, f3, f4, f5, f6, f7, f8, f9, f10)


def _scaled_sum(s, a):
    # Every single sum enters here.
    _check(s, a)
    span, s_minus_1, bound, factors = _single_terms(s)
    log1p, exp2, log2_e, tiny = math.log1p, math.exp2, _LOG2_E, _TINY
    neg_s = -s
    partial = 0.0
    k = 0
    t = 1.0  # the exact t_0
    while True:
        y = a + k
        if y >= span:
            r1 = s / y  # below 2 pi here, so P(s) r1**21 t = (s)_21 t / Y**21 is finite
            integral = t * y / s_minus_1
            if bound * r1**21 * t <= partial + integral:
                break
        partial += t
        k += 1
        # -s log2(e) overflows above s = 1.2e308, -s ln(1 + k/a) only where t underflows.
        t = exp2(neg_s * log1p(k / a) * log2_e)
        # The exit (module docstring): nothing later can move partial, at least 1.
        if t <= tiny and t * (6.0 + (a + k) / s_minus_1) < tiny * partial:
            return partial
    # The corrections sum_m C_m R_(2m-1), with R_(2j+1) = R_(2j-1) (s/Y)**2 f_j.
    f1, f2, f3, f4, f5, f6, f7, f8, f9, f10 = factors
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _EM_COEFFS
    rr = r1 * r1
    r3 = r1 * rr * f1
    r5 = r3 * rr * f2
    r7 = r5 * rr * f3
    r9 = r7 * rr * f4
    r11 = r9 * rr * f5
    r13 = r11 * rr * f6
    r15 = r13 * rr * f7
    r17 = r15 * rr * f8
    r19 = r17 * rr * f9
    r21 = r19 * rr * f10
    corrections = (c1 * r1 + c2 * r3 + c3 * r5 + c4 * r7 + c5 * r9 + c6 * r11 + c7 * r13
                   + c8 * r15 + c9 * r17 + c10 * r19 + c11 * r21)
    total = partial + integral + t * (0.5 + corrections)
    if not math.isfinite(total):
        raise OverflowError(f"scaled zeta sum overflows for s={s}, a={a}")
    return total


def _exp(y):
    """e**y as exp2(y log2 e), whose bits do not depend on the libm variant."""
    return math.exp2(y * _LOG2_E)


@lru_cache(maxsize=1 << 6)  # a solve or a figure row reads one q; an entry is about 1.4 kB
def _excess_terms(s, q):
    """What one excess pass needs of (s, q) beyond _single_terms(s).

    The exponent differences come from q, where 1 - q and 2q - 1 are
    exact: s - 1 = q/(1-q), s - 2 = (2q-1)/(1-q) and s - 3 =
    (q - 2(1-q))/(1-q), whose numerator is exact for q <= 0.8 (Sterbenz)
    and free of cancellation above.  Returns -s log2(e); the single sum's
    span (s + 23)/(2 pi); the integrals' coefficients 1/(s-1),
    1/((s-1)(s-2)), 2/((s-1)(s-2)(s-3)) (0 where E2 diverges), their
    s + 1 counterparts 1/s, 1/(s(s-1)), 2/(s(s-1)(s-2)) and K2's
    1/(s+1), 1/(s(s+1)), 2/((s-1)s(s+1)); the five remainder-bound
    coefficients, each a multiple of the single sum's, and K2's order-10
    one; 2/(s-2), the last peak of the six series' weights, from where the
    exit's test runs; and s + 1, ..., s + 21, which step the tails' R_n, so
    that a pass adds none.
    """
    span, _, kp, _ = _single_terms(s)
    om = 1.0 - q
    sm1, sm2, sm3 = q / om, (2.0 * q - 1.0) / om, (q - 2.0 * om) / om
    i = 1.0 / s
    # Leibniz' sum over f^(22) of x^j (1 + x/c)^(-sigma), bounded with x <= c + x,
    # integrates from N to (sigma)_22 (1 + 22j/(sigma+21) + 462[j=2]/((sigma+20)(sigma+21)))
    # g Y**(j-21)/((sigma + 21 - j) c**j).  With (s)_22 = s**21 P(s) (s+21) and
    # (s+1)_22 = s**20 P(s) (s+21)(s+22), that is the coefficient times (s/Y)**21 t (Y/c)**j
    # for E_j, and (s/Y)**21 t (Y/c)**(j-1) for G1 and H2, whose g is t c/Y.  K2's tails
    # stop at B10: Leibniz over f^(10) of x**2 (1 + x/c)**(-(s+2)), whose g is t (c/Y)**2,
    # integrates to 4/(2 pi)**10 ((s+10)(s+31) + 90)/(s (s+1)) times R_9 t, with
    # (s+2)_10 / Y**12 = R_12/(s (s+1)) and R_12 Y**3 = R_9 (s+9)(s+10)(s+11).
    s19, s20, s21 = s + 19.0, s + 20.0, s + 21.0
    ip = 1.0 / (s + 1.0)
    # s + 1, ..., s + 21, the factors of the tails' R_2..R_22.
    shifts = (s + 1.0, s + 2.0, s + 3.0, s + 4.0, s + 5.0, s + 6.0, s + 7.0, s + 8.0, s + 9.0,
              s + 10.0, s + 11.0, s + 12.0, s + 13.0, s + 14.0, s + 15.0, s + 16.0, s + 17.0,
              s + 18.0, s19, s20, s21)
    return (-s * _LOG2_E, span,
            1.0 / sm1, 1.0 / (sm1 * sm2), 2.0 / (sm1 * sm2 * sm3) if sm3 > 0.0 else 0.0,
            i, 1.0 / (s * sm1), 2.0 / (s * sm1 * sm2),
            ip, i * ip, 2.0 * i * ip / sm1,
            kp,
            kp * (s + 43.0) / s20,
            kp * (s + 65.0 + 462.0 / s20) / s19,
            kp * (1.0 + 44.0 * i),
            kp * (s21 * (s + 66.0) + 462.0) * i / s20,
            _K2_COEF * ((s + 10.0) * (s + 31.0) + 90.0) * i * ip,
            2.0 / sm2,
            shifts)


def excess_sums(s: float, c: float, q: float) -> tuple:
    """Return (E0, E1, E2, G1, H2) of the law with s = 1/(1-q) and shift c.

    s must equal 1/(1-q) (DomainError otherwise): the exponent differences
    are formed from q, and s comes first so that tracers that bucket zeta
    calls by (s, a) read it.  c is checked as the single sum's a is.  With
    x_k = k/c, t_k = (1 + x_k)**(-s) and u_k = t_k/(1 + x_k), the sums
    over k >= 1 are E_j = sum x_k**j t_k (j = 0, 1, 2), G1 = sum x_k u_k
    and H2 = sum x_k**2 u_k: the excess sums in units of c**j, so that
    each stays finite wherever c is.  S(s, c) = 1 + E0, and the mean is
    c E1/S with no difference of sums near 1.  E2 is inf where it
    diverges (q <= 2/3).

    The pass follows the module's Euler-Maclaurin rule with one cutoff N
    that holds the remainder bound for every series, sigma = s for E_j and
    s + 1 for G1 and H2.  At N = 0 E0 drops the exact t_0 = 1 again; from
    N = 1 the tails would start at t_1, one exp2 and one log1p whose last
    bits every value would carry.  It also ends, as the single sum does, at
    the first k past every weight's peak (k/c >= 2/(s-2)) from where no
    later term or tail can change a bit of any of its series: the module
    docstring's exit and its proof.  Where the terms fall fastest, near
    q -> 1, that is a few terms past the peak; no pass takes more than the
    termination argument's 18,500 terms, and none found more than 202.

    The rounding of s ln(1 + k/c), about |ln t_k| * 2**-53 relative in
    t_k, dominates the error where the leading terms are tiny; over the
    mpmath box of the tests the error stayed below 6e-14 relative wherever
    the terms are normal doubles.  Subnormal terms carry few bits, and E1,
    E2, G1 and H2, which scale them by (k/c)**j, can be normal and still
    that far off.  Raises OverflowError where E1 or H2 leaves the double
    range.

    The pass is memoized by (s, c, q); excess_sums.cache_info() and
    cache_clear() are its cache's, so their misses count fresh passes.
    """
    return _excess_pass(s, c, q)[:5]


@lru_cache(maxsize=1 << 10)
def _excess_pass(s, c, q):
    """excess_sums' pass: (E0, E1, E2, G1, H2, K2, K2's error bound).

    K2 = sum x_k**2 t_k/(1 + x_k)**2, the series of sigma = s + 2 that the
    solver's curvature reads (solver._log_curvature).  It rides on the
    cutoff of the other five, which it does not move, so their bits are
    those of a pass without it; its Euler-Maclaurin remainder bound at that
    cutoff, which is not held below 1e-16 of K2, is returned as an
    absolute error (0.0 where the exit ended the pass, as the rest of K2 is
    then below its last bit; the module docstring shows that the solver's
    certificate reads the same error either way).  K3 = sum
    x_k**3 t_k/(1 + x_k)**2 is H2 - K2, as x w**2 = x w - w**2 with
    w = x/(1 + x).
    """
    s, c, q = float(s), float(c), float(q)
    if not (0.5 < q < 1.0 and s == 1.0 / (1.0 - q)):
        raise DomainError(f"excess sums need q in (1/2, 1) and s = 1/(1-q), got s={s}, q={q}")
    _check(s, c)
    (neg_s2, span, i1, i12, i123, j0, j01, j012, h0, h01, h012,
     b0, b1, b2, bg, bh, bk, peak, shifts) = _excess_terms(s, q)
    log1p, exp2, tiny = math.log1p, math.exp2, _TINY
    # Where N = 0 can pass, the tails start at the exact term t_0 = 1 and
    # E0's partial sum starts at -1 to take that term out again.
    k, e0 = (0, -1.0) if c >= span else (1, 0.0)
    e1 = g1 = h2 = k2 = 0.0
    # A divergent E2 is inf, and so is its tail: its test is skipped.
    has_e2 = i123 > 0.0
    e2 = ie2 = 0.0 if has_e2 else math.inf
    while True:
        x = k / c
        t = exp2(neg_s2 * log1p(x))
        y = c + k
        yc = 1.0 + x  # y/c
        w = x / yc  # k/(c + k), so that x u = t w: u = t/yc can underflow where x u does not
        # The exit (module docstring): t = 0 (where x may be inf and w nan),
        # or, past the peaks, each series' 32 terms and integral from k below
        # 2**-110 of its partial sum.
        if t <= tiny and (t == 0.0 or x >= peak and t < _K2_DROP * e1
                          and 32.0 * t + (gy := t * y) * i1 < tiny * e0
                          and 32.0 * (w * (w * t)) + gy * (w * (w * h0 + 2.0 * h01) + h012) < tiny * k2
                          and 32.0 * (x * t) + gy * (x * i1 + yc * i12) < tiny * e1
                          and 32.0 * (t * w) + gy * (w * j0 + j01) < tiny * g1
                          and 32.0 * (x * (t * w)) + gy * (w * (x * j0 + 2.0 * yc * j01) + yc * j012)
                          < tiny * h2
                          and (not has_e2 or 32.0 * (x * (x * t))
                               + gy * (x * (x * i1 + 2.0 * yc * i12) + yc * yc * i123) < tiny * e2)):
            return e0, e1, e2, g1, h2, k2, 0.0
        if y >= span:
            yi = 1.0 / y
            gy = t * y
            bv = t * (s * yi)**21  # below (2 pi)**21 t: s/Y < 2 pi here
            # Each series' integral from N, kept for its tail.  H2's test
            # first: it binds most often, then E2's and G1's.
            if (bh * bv * yc <= h2 + (ih2 := gy * (w * (x * j0 + 2.0 * yc * j01) + yc * j012))
                    and (not has_e2 or b2 * bv * yc * yc
                         <= e2 + (ie2 := gy * (x * (x * i1 + 2.0 * yc * i12) + yc * yc * i123)))
                    and bg * bv <= g1 + (ig1 := gy * (w * j0 + j01))
                    and b1 * bv * yc <= e1 + (ie1 := gy * (x * i1 + yc * i12))
                    and b0 * bv <= e0 + (ie0 := gy * i1)):
                break
        e0 += t
        xt = x * t
        e1 += xt
        e2 += x * xt
        xu = t * w
        g1 += xu
        h2 += x * xu
        k2 += w * xu
        k += 1
    # The tails from N: x = N/c, yc = Y/c for Y = c + N, w = N/Y, gy = t Y.  The
    # s + 1 series' boundary term u = t/yc enters through t and gy (u Y = t c,
    # u N = t w), which do not underflow before the tails they carry.
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _EM_COEFFS
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11 = _EM_SLOPES
    a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = _EM_CURVES
    # R_n = (s)_n / Y**n, below (2 pi)**n: each (s + n - 1)/Y < 2 pi (s + 21)/(s + 23).
    # p_n = s + n comes from _excess_terms.
    (p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11,
     p12, p13, p14, p15, p16, p17, p18, p19, p20, p21) = shifts
    q1 = s * yi
    q2 = q1 * p1 * yi
    q3 = q2 * p2 * yi
    q4 = q3 * p3 * yi
    q5 = q4 * p4 * yi
    q6 = q5 * p5 * yi
    q7 = q6 * p6 * yi
    q8 = q7 * p7 * yi
    q9 = q8 * p8 * yi
    q10 = q9 * p9 * yi
    q11 = q10 * p10 * yi
    q12 = q11 * p11 * yi
    q13 = q12 * p12 * yi
    q14 = q13 * p13 * yi
    q15 = q14 * p14 * yi
    q16 = q15 * p15 * yi
    q17 = q16 * p16 * yi
    q18 = q17 * p17 * yi
    q19 = q18 * p18 * yi
    q20 = q19 * p19 * yi
    q21 = q20 * p20 * yi
    q22 = q21 * p21 * yi
    # With C_m = B_2m/(2m)!, -sum_m C_m f^(2m-1)(N) is g W0 for f = (1 + x/c)**(-s),
    # g (N W0 + W1) for x f and g (N**2 W0 + 2 N W1 + W2) for x**2 f.
    w0 = (c1 * q1 + c2 * q3 + c3 * q5 + c4 * q7 + c5 * q9 + c6 * q11 + c7 * q13
          + c8 * q15 + c9 * q17 + c10 * q19 + c11 * q21)
    w1 = -(d1 + d2 * q2 + d3 * q4 + d4 * q6 + d5 * q8 + d6 * q10 + d7 * q12
           + d8 * q14 + d9 * q16 + d10 * q18 + d11 * q20)
    w2 = (a2 * q1 + a3 * q3 + a4 * q5 + a5 * q7 + a6 * q9 + a7 * q11 + a8 * q13
          + a9 * q15 + a10 * q17 + a11 * q19)
    # The same for sigma = s + 1, over Y/s: (s+1)_n / Y**n = (Y/s) R_(n+1).
    v0 = (c1 * q2 + c2 * q4 + c3 * q6 + c4 * q8 + c5 * q10 + c6 * q12 + c7 * q14
          + c8 * q16 + c9 * q18 + c10 * q20 + c11 * q22)
    v1 = -(d1 * q1 + d2 * q3 + d3 * q5 + d4 * q7 + d5 * q9 + d6 * q11 + d7 * q13
           + d8 * q15 + d9 * q17 + d10 * q19 + d11 * q21)
    v2 = (a2 * q2 + a3 * q4 + a4 * q6 + a5 * q8 + a6 * q10 + a7 * q12 + a8 * q14
          + a9 * q16 + a10 * q18 + a11 * q20)
    # K2's to B10, for sigma = s + 2 over Y**2/(s (s+1)): (s+2)_n / Y**n = Y**2 R_(n+2) / (s (s+1)).
    z0 = c1 * q3 + c2 * q5 + c3 * q7 + c4 * q9 + c5 * q11
    z1 = -(d1 * q2 + d2 * q4 + d3 * q6 + d4 * q8 + d5 * q10)
    z2 = a2 * q3 + a3 * q5 + a4 * q7 + a5 * q9
    ic = 1.0 / c
    gx, tw, ts = t * x, t * w, t / s
    gnw = gy * w / s  # u Y N / (s c), the s + 1 series' correction scale times N/c
    half_w0 = 0.5 + w0
    e0 += ie0 + t * half_w0
    e1 += ie1 + gx * half_w0 + t * w1 * ic
    e2 += ie2 + gx * (x * half_w0 + 2.0 * w1 * ic) + t * w2 * ic * ic
    g1 += ig1 + 0.5 * tw + gnw * v0 + ts * v1
    h2 += ih2 + 0.5 * tw * x + gnw * (x * v0 + 2.0 * v1 * ic) + ts * v2 * ic
    # K2's boundary term t (c/Y)**2 enters as t over Y**2/(s (s+1)), and its
    # integral from N is t Y (w**2/(s+1) + 2 w/(s (s+1)) + 2/((s-1) s (s+1))).
    k2 += (gy * (w * (w * h0 + 2.0 * h01) + h012) + 0.5 * tw * w
           + t * h01 * (k * (k * z0 + 2.0 * z1) + z2))
    if not (math.isfinite(e1) and math.isfinite(h2)):
        raise OverflowError(f"excess sums overflow for s={s}, a={c}")
    return e0, e1, e2, g1, h2, k2, bk * q9 * t


excess_sums.cache_info, excess_sums.cache_clear = _excess_pass.cache_info, _excess_pass.cache_clear


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
    try:
        ssum = _scaled_sum(s, a)
    except OverflowError:  # S is not a double, but zeta, below e**37 there, can be
        prefactor, ssum = math.exp(log_hurwitz_zeta(s, a)), 1.0
    else:
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
    try:
        value = math.log(_scaled_sum(s, a)) - s * math.log(a)
    except OverflowError:
        # S overflows only for s < 2 with a/(s - 1) beyond the double range.  The
        # cutoff is N = 0 there, S = a/(s - 1) + 1/2 + O(s/a), and so
        # ln zeta = -(s - 1) ln a - ln(s - 1) to double precision.
        return -(s - 1.0) * math.log(a) - math.log(s - 1.0)
    if math.isinf(value):
        raise OverflowError(f"ln zeta({s}, {a}) exceeds the double range")
    return value
