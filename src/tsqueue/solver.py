"""Recover the Lagrange multiplier beta from a target mean queue size.

solve_beta takes Newton steps on ln mean as a function of ln beta.  One
excess pass (zeta.excess_sums) at each iterate gives the mean, c E1/S,
and its slope d ln mean / d ln c = s (H2/E1 - G1/S), neither of which
cancels.  The log-log step takes fewer iterations than Newton on the raw
constraint, and a solve from the Hermite starts of
fitting.generate_correspondence takes fewer fresh passes than one from
the default start; README.md ("CLI") gives the counts.  The grid runs the
solver's loop, _solve, itself, and takes each start's slope from what the
loop returns with the beta: the slope it read from its last pass.  A
solve stops at an evaluated beta that meets the target once its next step
is at most min(tol, 2**-52) in ln beta, or moves nothing: such a step
changes beta by rounding alone, so no pass is spent on it, and the
returned beta's pass is the solver's last (a cache hit for the moments
that figures 3 and 5 read there).  The mean is strictly decreasing in
beta, so every mean the solver evaluates also narrows a bracket on the
root; a step that leaves the bracket, or none at all, is replaced by a
bisection point of it, in the same loop and iteration budget.  No step
halving is needed: over 3,000 draws of the queries domain and the 500
figure-grid solves, no step left the bracket.

newton_step keeps the paper's closed-form step on the raw constraint,
read from the same pass.
"""

import math
import operator
from typing import Optional

from .distribution import QueueModel, _validate_q, _zeta_shift
from .errors import DomainError, NoConvergence
from .record import Record
from .zeta import _exp, excess_sums

__all__ = ["SolverResult", "newton_step", "solve_beta"]

_TOL, _MAX_ITER = 1e-10, 100  # solve_beta's defaults, which the grid's solves take


class SolverResult(Record):
    """A solved beta, the iterations taken, the final residual and whether a
    bisection step replaced a Newton step: an immutable record."""

    __slots__ = _fields = ("beta", "iterations", "residual", "fallback_used")

    def __init__(self, beta: float, iterations: int, residual: float, fallback_used: bool):
        _set_beta(self, beta)
        _set_iterations(self, iterations)
        _set_residual(self, residual)
        _set_fallback_used(self, fallback_used)


_set_beta, _set_iterations, _set_residual, _set_fallback_used = (
    slot.__set__ for slot in SolverResult._slots.values())


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


def solve_beta(q: float, A: float, *, beta0: Optional[float] = None, tol: float = _TOL,
               max_iter: int = _MAX_ITER) -> SolverResult:
    """Find beta with |mean(q, beta) - A| <= tol * A.

    Newton iterates in (ln beta, ln mean) from beta0 (default
    ln((A+1)/A), the exact q -> 1 solution): each step is
    ln(mean/A) / (d ln mean / d ln c), read with the mean from one excess
    pass, or from the first term, ln mean = -s ln(1 + 1/c), where every
    term underflows; a step is clamped to 700 in ln beta.  Every mean
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
    beta, iterations, residual, bisected, _ = _solve(float(q), float(A), beta0, tol, max_iter)
    return SolverResult(beta, iterations, residual, bisected)


def _solve(q, A, beta0, tol=_TOL, max_iter=_MAX_ITER):
    """solve_beta's loop, on float q and A and arguments it has checked:
    (beta, iterations, residual, fallback_used, slope), where slope is
    d ln mean / d ln c (_log_slope) at the returned beta, from its pass."""
    s = 1.0 / (1.0 - q)
    target = tol * A
    floor = min(tol, 2.0**-52)
    lo, hi = 0.0, math.inf  # mean > A at lo, < A at hi
    if beta0 is not None:
        beta = beta0
    else:  # ln(1 + 1/A), which is -ln A to double precision where 1/A would overflow
        beta = math.log1p(1.0 / A) if A > 1e-300 else -math.log(A)
    bisected = False
    iterations = 0
    moved = math.inf  # no step led to the first beta
    while True:
        # The residual mean - A at beta, and the Newton step in ln beta from
        # there (nan where the pass gives none).
        c = _zeta_shift(q, beta)
        try:
            e0, e1, _, g1, h2 = excess_sums(s, c, q)
        except OverflowError:  # E1 past the double range: the mean is above every double
            lo = max(lo, beta)
            resid, step, slope = math.inf, math.nan, math.nan
        else:
            total = 1.0 + e0
            m = c * (e1 / total)
            if m > A:
                lo = max(lo, beta)
            elif m < A:
                hi = min(hi, beta)
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
        candidate = beta * _exp(min(max(step, -700.0), 700.0))
        # A step below beta's resolution moves nothing, and one of at most
        # floor in ln beta moves it by rounding alone: either ends the solve
        # at the target, and the first goes to the bracket short of it.
        if residual <= target and (candidate == beta or abs(step) <= floor):
            break
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
