"""Independent reference computations shared by the test modules.

Everything here avoids the package's Euler-Maclaurin zeta path: direct
truncated summation of the raw law with analytic integral tails, the
geometric (M/M/1) law for the q -> 1 limit, and central finite
differences.  Frozen constants below were produced by these same
routines (and cross-checked against analytic identities) and are
committed so unit tests do not depend on runtime recomputation.
constraint_objective is the exception: it runs the package's zeta, to
pin a formula, not a value.
law_moments is an mpmath oracle for the mean, variance and utilization
anywhere in the domain, corners included; norros_rho is one for the
storage model's inverse; model_ii_minimizer is one for the Model II least
squares fit near a given point.  reference_scaled_sum and
reference_excess_pass are the package's two zeta loops as they were before
their exit rule, which stop only at the cutoff or where a term underflows:
the exit must leave every sum's bits as these give them.
"""

import math

import mpmath
import numpy as np

PI2_OVER_6 = math.pi**2 / 6.0
PI2_OVER_2 = math.pi**2 / 2.0
PI4_OVER_90 = math.pi**4 / 90.0
APERY = 1.2020569031595943  # zeta(3)

# zeta(s, 4) anchors via the shift identity zeta(s,4) = zeta(s) - 1 - 2^-s - 3^-s
ZETA_4_4 = PI4_OVER_90 - 1.0 - 2.0**-4 - 3.0**-4
ZETA_3_4 = APERY - 1.0 - 2.0**-3 - 3.0**-3
ZETA_2_4 = PI2_OVER_6 - 1.0 - 2.0**-2 - 3.0**-2
# zeta(5, 4) by direct summation (frozen; terms decay like k^-5)
ZETA_5_4 = 0.0015625288059213667

# model (q=0.75, beta=1), i.e. s=4, c=4, via truncated direct summation
# of the raw law to 1e6 terms plus Euler-Maclaurin tails (brute_stats)
PMF0_075_1 = 0.5223967135447087
MEAN_075_1 = 1.3519991139643202
SECOND_MOMENT_075_1 = 11.14066099052272
VARIANCE_075_1 = 9.312759386362414


def brute_stats(q, beta, n_terms=10**6):
    """Normalizer, mean and second moment by direct truncated summation.

    Tails beyond the truncation use the analytic integrals of u**(-s),
    (u-c) u**(-s) and (u-c)**2 u**(-s) plus the half-term correction, so
    the result is good to ~1e-14 relative while never touching the
    package's zeta code.
    """
    s = 1.0 / (1.0 - q)
    c = 1.0 / (beta * (1.0 - q))
    i = np.arange(n_terms, dtype=float)
    w = (c + i) ** (-s)
    cut = c + n_terms
    norm = (
        float(np.sum(w))
        + cut ** (1.0 - s) / (s - 1.0)
        + 0.5 * cut**-s
        + (s / 12.0) * cut ** (-s - 1.0)
    )
    m1 = (
        float(np.sum(i * w))
        + cut ** (2.0 - s) / (s - 2.0)
        - c * cut ** (1.0 - s) / (s - 1.0)
        + 0.5 * n_terms * cut**-s
    )
    m2 = (
        float(np.sum(i * i * w))
        + cut ** (3.0 - s) / (s - 3.0)
        - 2.0 * c * cut ** (2.0 - s) / (s - 2.0)
        + c * c * cut ** (1.0 - s) / (s - 1.0)
        + 0.5 * n_terms**2 * cut**-s
    )
    return norm, m1 / norm, m2 / norm


def brute_log_tail(q, beta, xs, n_terms=10**5):
    """ln P(i > x) for each x in xs by direct summation of the raw law.

    The weights (1 + i/c)**(-s) are summed from the far end (suffix sums),
    so each tail is accumulated from its smallest terms upward.  The
    dropped remainder is bounded by the integral of (1 + u/c)**(-s) from
    n_terms - 1 to infinity, and asserted negligible against the smallest
    tail requested.
    """
    s = 1.0 / (1.0 - q)
    c = 1.0 / (beta * (1.0 - q))
    xs = np.asarray(xs, dtype=int)
    w = np.exp(-s * np.log1p(np.arange(n_terms, dtype=float) / c))
    suffix = np.cumsum(w[::-1])[::-1]  # suffix[k] = sum_{i >= k} w_i
    log_tail = np.log(suffix[xs + 1]) - math.log(suffix[0])
    log_dropped = math.log(c / (s - 1.0)) - (s - 1.0) * math.log1p(
        (n_terms - 1) / c
    )
    assert log_dropped - math.log(suffix[xs.max() + 1]) < math.log(1e-17), (
        f"truncation at {n_terms} terms is not negligible"
    )
    return log_tail


def geometric_pmf(rho, i):
    return (1.0 - rho) * rho**i


def geometric_mean(rho):
    return rho / (1.0 - rho)


def geometric_variance(rho):
    return rho / (1.0 - rho) ** 2


def central_difference(func, x, step):
    return (func(x + step) - func(x - step)) / (2.0 * step)


def constraint_objective(q, beta, target_mean):
    """The raw mean-constraint objective sum (i - A) (1 + beta(1-q) i)^(1/(q-1)).

    Written in the scaled zeta form c*S(s-1,c) - (c+A)*S(s,c); used as the
    function whose Newton step the closed form must reproduce.
    """
    from tsqueue.zeta import scaled_hurwitz_zeta

    s = 1.0 / (1.0 - q)
    c = 1.0 / (beta * (1.0 - q))
    return (
        c * scaled_hurwitz_zeta(s - 1.0, c)
        - (c + target_mean) * scaled_hurwitz_zeta(s, c)
    )


def constraint_objective_series(q, beta, target_mean, n_terms=10**6):
    """Same objective by direct truncated summation (fully independent)."""
    s = 1.0 / (1.0 - q)
    c = 1.0 / (beta * (1.0 - q))
    i = np.arange(n_terms, dtype=float)
    return float(np.sum((i - target_mean) * (1.0 + i / c) ** (-s)))


def _mp_scaled_sum(s, a):
    """S(s, a) = sum_{k>=0} (a/(a+k))**s at mpmath's working precision.

    Direct terms run until the rest, at most the next term plus its
    integral, is negligible, or until 2 pi (a + k) >= 10 (s + 2M), from
    where Euler-Maclaurin's first M Bernoulli corrections shrink at least
    100-fold each and reach the working precision.
    """
    eps = mpmath.mpf(10) ** -(mpmath.mp.dps + 2)
    corrections = mpmath.mp.dps // 2 + 2
    reach = 10 * (s + 2 * corrections) / (2 * mpmath.pi)
    total, u = mpmath.mpf(0), a
    while True:
        t = (a / u) ** s
        if t * (1 + u / (s - 1)) < eps * total:
            return total
        if u >= reach:
            break
        total += t
        u += 1
    total += t * u / (s - 1) + t / 2
    rising, power = s, u  # (s)_(2j-1) and u**(2j-1)
    for j in range(1, corrections + 1):
        term = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * t / power
        total += term
        if abs(term) < eps * total:
            return total
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power *= u * u
    raise ArithmeticError(f"Euler-Maclaurin did not converge at s={s}, a={a}")


def mp_excess_sum(s, c, j):
    """sum_{k>=1} k**j (c/(c+k))**s at mpmath's working precision, for any
    real exponent s > j + 1: the law's series take s, s + 1 (G1, H2) and
    s + 2 (the solver's K2 and K3).

    Expanded as sum_i C(j,i) (-c)**(j-i) (c/(c+1))**s (c+1)**i S(s-i, c+1).
    Its terms are at most sum_k (c+k)**j (c/(c+k))**s, which exceeds the
    sum by a factor of about max(1, s)**j at most: the working precision
    must cover that many digits besides those wanted.
    """
    a = c + 1
    head = (c / a) ** s
    return mpmath.fsum(mpmath.binomial(j, i) * (-c) ** (j - i) * head * a**i
                       * _mp_scaled_sum(s - i, a) for i in range(j + 1))


def law_moments(q, beta):
    """(mean, variance, utilization) of the law at the exact binary values
    of q and beta, as mpmath numbers; the variance is None for q <= 2/3.

    With S = 1 + E0 and E_j = sum_{k>=1} k**j p_k S, the mean is E1/S,
    the utilization E0/S and the variance E2/S - mean**2, at 45 + 2
    log10(s) digits, of which mp_excess_sum loses at most 2 log10(s).
    """
    q, beta = mpmath.mpf(q), mpmath.mpf(beta)
    digits = 45 + 2 * math.ceil(math.log10(float(1 / (1 - q))))
    with mpmath.workdps(digits):
        s, c = 1 / (1 - q), 1 / (beta * (1 - q))
        e0, e1 = mp_excess_sum(s, c, 0), mp_excess_sum(s, c, 1)
        total = 1 + e0
        mean = e1 / total
        variance = +(mp_excess_sum(s, c, 2) / total - mean**2) if 3 * q > 2 else None
        return +mean, variance, +(e0 / total)


def newton_step(q, beta, A):
    """The paper's raw-constraint Newton increment, beta (1-q) (S(s-1) -
    (1+r) S(s)) / (S(s-1) - (2+r) S(s) + (1+r) S(s+1)) with r = A/c, at the
    exact binary values of q, beta and A, as an mpmath number.

    Its sums cancel to near 1 where c is small, so it runs at 80 digits and
    doubles them until two runs agree to 1e-30 relative.
    """
    def step(digits):
        with mpmath.workdps(digits):
            qm, bm, am = mpmath.mpf(q), mpmath.mpf(beta), mpmath.mpf(A)
            s, c = 1 / (1 - qm), 1 / (bm * (1 - qm))
            s1, s0, s2 = (_mp_scaled_sum(s + d, c) for d in (-1, 0, 1))
            r = am / c
            return +(bm * (1 - qm) * (s1 - (1 + r) * s0) / (s1 - (2 + r) * s0 + (1 + r) * s2))

    digits, value = 80, step(80)
    while True:
        digits *= 2
        value, last = step(digits), value
        if abs(value - last) <= abs(value) * mpmath.mpf(10) ** -30:
            return value


def norros_rho(mean, hurst):
    """The storage model's rho at the exact binary values of mean and hurst,
    as an mpmath number: the root of b softplus(x) - a softplus(-x) = ln mean
    in the logit x = ln(rho/(1-rho)), a = 1/(2(1-H)), b = H/(1-H), by
    Newton at 60 digits (f is convex and increasing, and the start is at or
    right of the root).
    """
    with mpmath.workdps(60):
        h, log_mean = mpmath.mpf(hurst), mpmath.log(mpmath.mpf(mean))
        a, b = 1 / (2 * (1 - h)), h / (1 - h)
        x = log_mean / (a if log_mean < 0 else b)
        for _ in range(200):
            rho = 1 / (1 + mpmath.exp(-x))
            f = b * mpmath.log1p(mpmath.exp(x)) - a * mpmath.log1p(mpmath.exp(-x)) - log_mean
            dx = f / (a + (b - a) * rho)
            x -= dx
            if abs(dx) <= mpmath.mpf(10) ** -55 * max(1, abs(x)):
                return +(1 / (1 + mpmath.exp(-x)))
    raise ArithmeticError(f"no logit root for mean={mean}, hurst={hurst}")


def model_ii_minimizer(beta, rho, eta, mu):
    """(c, eta, d, mu) at the Model II least-squares minimizer nearest the
    rates (eta, mu), as mpmath numbers: (c, d) projected out at the exact
    binary data, and the projected SSE's gradient in (ln eta, ln mu) solved
    to zero by mpmath's findroot at 40 digits.
    """
    with mpmath.workdps(40):
        b = [mpmath.mpf(x) for x in beta]
        r = [mpmath.mpf(x) for x in rho]
        log_b = [mpmath.log(x) for x in b]

        def project(log_eta, log_mu):
            p = [mpmath.exp(-mpmath.exp(log_eta) * x) for x in log_b]
            e = [mpmath.exp(-mpmath.exp(log_mu) * x) for x in b]
            pp, pe, ee = (mpmath.fsum(u * v for u, v in zip(x, y)) for x, y in ((p, p), (p, e), (e, e)))
            pr, er = (mpmath.fsum(u * v for u, v in zip(x, r)) for x in (p, e))
            det = pp * ee - pe * pe
            c, d = (ee * pr - pe * er) / det, (pp * er - pe * pr) / det
            return c, d, mpmath.fsum((y - c * u - d * v) ** 2 for y, u, v in zip(r, p, e))

        def gradient(log_eta, log_mu):
            return [mpmath.diff(lambda x: project(x, log_mu)[2], log_eta),
                    mpmath.diff(lambda x: project(log_eta, x)[2], log_mu)]

        log_eta, log_mu = mpmath.findroot(gradient, (mpmath.log(eta), mpmath.log(mu)))
        c, d, _ = project(log_eta, log_mu)
        return c, mpmath.exp(log_eta), d, mpmath.exp(log_mu)


def reference_scaled_sum(s, a):
    """zeta._scaled_sum without its exit: it ends at the cutoff or where a
    term underflows."""
    from tsqueue import zeta

    zeta._check(s, a)
    span, s_minus_1, bound, factors = zeta._single_terms(s)
    log1p, exp2, log2_e = math.log1p, math.exp2, zeta._LOG2_E
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
        if t == 0.0:  # every tail is below the smallest double
            return partial
    # The corrections sum_m C_m R_(2m-1), with R_(2j+1) = R_(2j-1) (s/Y)**2 f_j.
    f1, f2, f3, f4, f5, f6, f7, f8, f9, f10 = factors
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = zeta._EM_COEFFS
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


def reference_excess_pass(s, c, q):
    """zeta._excess_pass, unmemoized, without its exit: it ends at the cutoff
    or where a term underflows."""
    from tsqueue import zeta

    s, c, q = float(s), float(c), float(q)
    if not (0.5 < q < 1.0 and s == 1.0 / (1.0 - q)):
        raise zeta.DomainError(f"excess sums need q in (1/2, 1) and s = 1/(1-q), got s={s}, q={q}")
    zeta._check(s, c)
    (neg_s2, span, i1, i12, i123, j0, j01, j012, h0, h01, h012,
     b0, b1, b2, bg, bh, bk, _, shifts) = zeta._excess_terms(s, q)
    log1p, exp2 = math.log1p, math.exp2
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
        if t == 0.0:  # every tail is below the smallest double
            return e0, e1, e2, g1, h2, k2, 0.0
        y = c + k
        yc = 1.0 + x  # y/c
        w = x / yc  # k/(c + k), so that x u = t w: u = t/yc can underflow where x u does not
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
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = zeta._EM_COEFFS
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11 = zeta._EM_SLOPES
    a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = zeta._EM_CURVES
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
