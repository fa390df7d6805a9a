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
squares fit near a given point.
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
