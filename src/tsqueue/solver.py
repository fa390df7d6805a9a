"""Recover the Lagrange multiplier beta from a target mean queue size.

solve_beta takes Halley steps on ln mean as a function of ln beta.  One
excess pass (zeta._excess_pass) at each iterate gives the mean, c E1/S,
its slope f' = d ln mean / d ln c = s (H2/E1 - G1/S), neither of which
cancels, and its curvature f'' (_log_curvature), which reads the pass's
K2.  With u = ln c (ln beta = -u - ln(1-q)), x_k = k/c and w_k =
x_k/(1 + x_k) in [0, 1), let E_S weigh k >= 0 by t_k/S and E_E by
x_k t_k/E1.  As dt_k/du = s t_k w_k and dw_k/du = -w_k (1 - w_k),

    f'/s   = E_E[w] - E_S[w],
    f''/s  = E_S[w (1-w)] - E_E[w (1-w)] + s (Var_E w - Var_S w),
    f'''/s = E_E[p] - E_S[p] + 3 s (Cov_S(w, w (1-w)) - Cov_E(w, w (1-w)))
             + s**2 (M_E - M_S),

with p = w (1-w) (1-2w) and M the third central moment of w.  In the
pass's terms E_S[w] = G1/S, E_S[w**2] = K2/S, E_E[w] = H2/E1 and
E_E[w (1-w)] = K2/E1 (x (1 - w) = w).  On [0, 1) w (1-w) and a variance
lie in [0, 1/4], so |f''| <= s (1 + s)/4.  p spans sqrt(3)/9; the
covariance of w with w (1-w), which spans 1/4, is at most (1/2)(1/8) =
1/16 in size; and |M| <= max(m, 1-m) Var w <= max(m, 1-m) m (1-m) <= 4/27
for w's mean m.  So |f'''| <= s (sqrt(3)/9 + 3 s/8 + 8 s**2/27).

From an evaluated beta the step in ln beta is Halley's, d = n/(1 - b)
with Newton's n = ln(mean/A)/f' and b = f'' n/(2 f'), where |b| <= 1/2
and K2 is a normal double (subnormal terms leave a curvature few bits);
Newton's otherwise, and where |n| is within the rounding floor below, as
such a step ends the solve.  Cold solve_beta calls over the queries
domain take fewer passes than Newton's steps alone; README.md ("CLI")
gives the counts.

The certificate.  Write F(u) = ln(mean/A) and D = -d, N = -n for the
steps in u.  Taylor's theorem gives |F(u + D) - F - f' D - f'' D**2/2|
<= |f'''|max |D|**3/6, and Halley's D leaves F + f' D + f'' D**2/2 =
f'' D (D - N)/2.  With e bounding the error of the computed f'' (K2's
remainder bound through df''/dK2 = -s (1+s) (1/S + 1/E1), plus rounding
of s (1+s) 2**-36 from pass values good to 6e-14), |F(u + D)| <= B =
|f''| |D| |D - N|/2 + e D**2/2 + |f'''|max |D|**3/6.  Within 2|D| of u,
F' >= g = f' - 2|D| s (1+s)/4.  If g > 0 and B/g <= |D|, F is increasing
on [u - 2|D|, u + 2|D|] and changes sign between u + D - B/g and
u + D + B/g: the root lies within B/g of the step's end.  A solve with
certify (the grid's, fitting.generate_correspondence) returns that end,
unevaluated, once B/g <= 2**-60 in ln beta: below 2**-52, so below |D|
where the evaluated stop below has not ended the solve, and 1/256 of the
rounding of ln beta near 1.  The pass's values are taken as those of
the function solved: their rounding, the floor that every stop shares,
is not counted.  The slope there, f' + f'' D to within |f'''|max D**2/2,
is what the grid's next Hermite start reads; figures 3 and 5 pay the
pass at that beta when they read its moments.

Every other solve stops at an evaluated beta that meets the target once
its next step is at most min(tol, 2**-52) in ln beta, or moves nothing:
such a step changes beta by rounding alone, so no pass is spent on it,
and the returned beta's pass is the solver's last (a cache hit for the
moments read there).  The mean is strictly decreasing in beta, so every
mean the solver evaluates also narrows a bracket on the root; a step
that leaves the bracket, or none at all, is replaced by a bisection
point of it, in the same loop and iteration budget.  No step halving is
needed: over 3,000 draws of the queries domain and 800 figure-grid
solves (ten default grids over q in [0.55, 0.97] and the six of the
default figures), no step left the bracket.

newton_step keeps the paper's closed-form step on the raw constraint,
read from the same pass.
"""

import math
import operator
import sys

from .distribution import QueueModel, _validate_q, _zeta_shift
from .errors import DomainError, NoConvergence
from .record import Record
from .zeta import _excess_pass, _exp, excess_sums

__all__ = ["SolverResult", "newton_step", "solve_beta"]

_TOL, _MAX_ITER = 1e-10, 100  # solve_beta's defaults, which the grid's solves take
_CERTIFIED = 2.0**-60  # a certified step's bound in ln beta, far below a pass's rounding
_ROUNDING = 2.0**-36  # the rounding of f'' over s (1 + s), from pass values good to 6e-14
_MIN_NORMAL = sys.float_info.min


class SolverResult(Record):
    """A solved beta, the iterations taken, the final residual and whether a
    bisection step replaced the solver's own step: an immutable record."""

    __slots__ = _fields = ("beta", "iterations", "residual", "fallback_used")


def _validate_positive(name, value):
    try:
        valid = math.isfinite(value) and value > 0.0
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not valid:
        raise DomainError(f"{name} must be positive, got {value}")


def _validate_target(q, A):
    _validate_q(q)
    if not (math.isfinite(A) and A > 0.0):
        raise DomainError(f"target mean must be positive, got {A}")


def _log_slope(s, e0, e1, g1, h2):
    """d ln mean / d ln c from one excess pass, s (H2/E1 - G1/S) with
    S = 1 + E0: positive, and free of cancellation."""
    return s * (h2 / e1 - g1 / (1.0 + e0))


def _log_curvature(s, total, e1, g1, h2, k2):
    """d**2 ln mean / d (ln c)**2 from one excess pass with S = 1 + E0:
    s [(G1 - K2)/S - (1 + s) K2/E1 - s K2/S + s (mu (1 - mu) + (G1/S)**2)]
    with mu = H2/E1 (see the module docstring)."""
    mu, nu = h2 / e1, g1 / total
    return s * ((g1 - k2) / total - (1.0 + s) * (k2 / e1) - s * (k2 / total)
                + s * (mu * (1.0 - mu) + nu * nu))


def _derivative_bounds(s):
    """The module docstring's bounds on |f''| and |f'''|, from w in [0, 1):
    s (1 + s)/4 and s (sqrt(3)/9 + 3 s/8 + 8 s**2/27)."""
    return 0.25 * s * (1.0 + s), s * (0.19245008972987526 + s * (0.375 + s * (8.0 / 27.0)))


def newton_step(q: float, beta: float, A: float) -> float:
    """Closed-form Newton increment for the mean constraint.

    The paper's step on the raw constraint, beta (1-q) (S(s-1) - (1+r) S)
    / (S(s-1) - (2+r) S + (1+r) S(s+1)) with r = A/c and the scaled sums
    S(sigma) = c**sigma zeta(sigma, c), read from one excess pass: there
    S(s-1) - S = E1, S - S(s+1) = G1 and E1 - G1 = H2, so neither the
    numerator E1 - r (1 + E0) nor the denominator H2 - r G1 is a
    difference of sums near 1.  It is inf where no finite step exists.
    """
    _validate_target(q, A)
    model = QueueModel(q, beta)
    c, r = model.c, A / model.c
    e0, e1, _, g1, h2 = excess_sums(model.s, c, model.q)
    denominator = h2 - r * g1
    if abs(denominator) < 1e-300:
        return math.inf
    return model.beta * (1.0 - model.q) * (e1 - r * (1.0 + e0)) / denominator


def solve_beta(q: float, A: float, *, beta0: float | None = None, tol: float = _TOL,
               max_iter: int = _MAX_ITER) -> SolverResult:
    """Find beta with |mean(q, beta) - A| <= tol * A.

    Halley iterates in (ln beta, ln mean) from beta0 (default
    ln((A+1)/A), the exact q -> 1 solution): each step is Newton's,
    ln(mean/A) / (d ln mean / d ln c), corrected by the curvature (see the
    module docstring), read with the mean from one excess pass, or from
    the first term, ln mean = -s ln(1 + 1/c), where every term
    underflows; a step is clamped to 700 in ln beta.  Every mean
    evaluated narrows a bracket on the root.  A step that leaves the
    bracket, or none where the pass gives no finite one, is replaced by
    the bracket's geometric midpoint, or twice / half its closed end
    while the other end is open, and fallback_used is set.
    The solve stops at an evaluated beta with |mean - A| <= tol * A once
    the step from there is at most min(tol, 2**-52) in ln beta or moves
    nothing, or the step to there was at most tol; the result's residual
    is |mean - A| at its beta.
    """
    if beta0 is not None:
        _validate_positive("beta0", beta0)
    _validate_positive("tol", tol)
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise DomainError(f"max_iter must be an integer, got {max_iter!r}") from None
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    _validate_target(q, A)
    q = float(q)
    setup = _setup(q, False, tol, max_iter)
    beta, iterations, residual, bisected, _ = _solve(q, float(A), beta0, setup)
    return SolverResult(beta, iterations, residual, bisected)


def _setup(q, certify=False, tol=_TOL, max_iter=_MAX_ITER):
    """What every solve at one float q shares, so that a grid builds it once
    for its 50: (s, certify, tol, the floor min(tol, 2**-52), max_iter), then
    with certify the certificate's s (1 + s), its rounding term and
    _derivative_bounds(s), and None for each of these four without."""
    s = 1.0 / (1.0 - q)
    shared = s, certify, tol, min(tol, 2.0**-52), max_iter
    if not certify:
        return (*shared, None, None, None, None)
    s_s1 = s * (1.0 + s)
    return (*shared, s_s1, s_s1 * _ROUNDING, *_derivative_bounds(s))


def _solve(q, A, beta0, setup):
    """solve_beta's loop, on float q and A, arguments it has checked and
    _setup(q, ...): (beta, iterations, residual, fallback_used, slope),
    where slope is d ln mean / d ln c at the returned beta.  With certify, a
    Halley step whose remainder is certified below 2**-60 in ln beta ends
    the solve unevaluated: its residual is nan, and its slope f' + f'' d
    (see the module docstring); otherwise the slope is _log_slope of the
    returned beta's pass."""
    s, certify, tol, floor, max_iter, s_s1, rounding, curve_bound, third_bound = setup
    target = tol * A
    lo, hi = 0.0, math.inf  # mean > A at lo, < A at hi
    if beta0 is not None:
        beta = beta0
    else:  # ln(1 + 1/A), which is -ln A to double precision where 1/A would overflow
        beta = math.log1p(1.0 / A) if A > 1e-300 else -math.log(A)
    bisected = False
    iterations = 0
    moved = math.inf  # no step led to the first beta
    while True:
        # The residual mean - A at beta, and the step in ln beta from there
        # (nan where the pass gives none): Halley's where its correction to
        # Newton's is at most half, Newton's otherwise and where Newton's is
        # within the floor.
        c = _zeta_shift(q, beta)
        newton = math.nan  # Newton's step, where the step is Halley's
        try:
            e0, e1, _, g1, h2, k2, k2_bound = _excess_pass(s, c, q)
        except OverflowError:  # E1 past the double range: the mean is above every double
            if beta > lo:
                lo = beta
            resid, step, slope = math.inf, math.nan, math.nan
        else:
            total = 1.0 + e0
            m = c * (e1 / total)
            if m > A:
                if beta > lo:
                    lo = beta
            elif m < A and beta < hi:
                hi = beta
            resid = m - A
            if e1 == 0.0:  # every term underflowed: step on the first, ln mean = -s ln(1 + 1/c)
                slope = math.nan
                step = (-s * math.log1p(1.0 / c) - math.log(A)) * (1.0 + c) / s
            else:
                slope = _log_slope(s, e0, e1, g1, h2)
                if not 0.0 < slope < math.inf:  # the slope underflowed or overflowed
                    step = math.nan
                else:
                    ratio = m / A
                    if 0.0 < ratio < math.inf:
                        log_ratio = math.log(ratio)
                    else:  # the mean or the ratio left the double range
                        log_ratio = math.log(c) + math.log(e1 / total) - math.log(A)
                    step = log_ratio / slope
                    if abs(step) > floor and k2 >= _MIN_NORMAL:  # no curvature for a stop
                        curve = _log_curvature(s, total, e1, g1, h2, k2)
                        bend = 0.5 * curve * step / slope
                        if abs(bend) <= 0.5:
                            newton, step = step, step / (1.0 - bend)
        residual = abs(resid)
        if moved <= tol and residual <= target:
            break
        if iterations == max_iter:
            raise NoConvergence(
                f"beta solve did not converge in {max_iter} iterations "
                f"(beta={beta}, residual={resid})",
                beta=beta, residual=residual, iterations=max_iter,
            )
        iterations += 1
        # A step is clamped to 700 in ln beta; a nan step stays nan.
        candidate = beta * _exp(700.0 if step > 700.0 else -700.0 if step < -700.0 else step)
        # A step below beta's resolution moves nothing, and one of at most
        # floor in ln beta moves it by rounding alone: either ends the solve
        # at the target, and the first goes to the bracket short of it.
        if residual <= target and (candidate == beta or abs(step) <= floor):
            break
        if certify and newton == newton and lo < candidate < hi:
            # The module docstring's certificate: the root lies within
            # bound/gap of the step's end.
            size = abs(step)
            gap = slope - 2.0 * curve_bound * size  # the least f' within 2 |d| of beta
            error = rounding + s_s1 * k2_bound * (1.0 / total + 1.0 / e1)
            bound = size * (0.5 * abs(curve) * abs(step - newton)
                            + size * (0.5 * error + third_bound * size / 6.0))
            if 0.0 < gap and bound <= _CERTIFIED * gap:
                return candidate, iterations, math.nan, bisected, slope - curve * step
        if not lo < candidate < hi or candidate == beta:
            if hi == math.inf:
                candidate = 2.0 * lo
            elif lo == 0.0:
                candidate = 0.5 * hi
            else:
                candidate = math.sqrt(lo) * math.sqrt(hi)
            if not lo < candidate < hi:  # crossed by rounding, or exhausted at float resolution
                raise NoConvergence(
                    f"bisection stalled at beta={beta} with residual {resid}",
                    beta=beta, residual=residual, iterations=iterations,
                )
            bisected = True
        moved = abs(math.log(candidate / beta))
        beta = candidate
    return beta, iterations, residual, bisected, slope
