"""Recover the Lagrange multiplier beta from a target mean queue size.

The constraint "model mean equals A" is solved by Newton-Raphson with the
closed-form step assembled from three zeta ratios, safeguarded by step
halving.  The mean is strictly decreasing in beta, so every residual the
solver evaluates also narrows a bracket on the root; when halving cannot
improve on the current iterate, the next one is a bisection point of that
bracket.  Newton and bisection share one loop and one iteration budget.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .distribution import QueueModel, _mean_from_sums, _validate_q, _zeta_shift
from .errors import DegenerateStep, DomainError, NoConvergence
from .zeta import scaled_hurwitz_zeta

__all__ = ["SolverResult", "newton_step", "solve_beta"]

# solve_beta's default tol and max_iter, which suit the whole (q, A) range.
_TOL, _MAX_ITER = 1e-10, 100


@dataclass(frozen=True)
class SolverResult:
    beta: float
    iterations: int
    residual: float
    fallback_used: bool


def _validate_target(q, A):
    _validate_q(q)
    if not (math.isfinite(A) and A > 0.0):
        raise DomainError(f"target mean must be positive, got {A}")


def _newton_increment(q, beta, A, s, c, s0, s1):
    """Newton increment at beta from s0 = S(s, c), s1 = S(s-1, c) and S(s+1, c)."""
    s2 = scaled_hurwitz_zeta(s + 1.0, c)
    r = A / c
    denominator = s1 - (2.0 + r) * s0 + (1.0 + r) * s2
    if abs(denominator) < 1e-300:
        raise DegenerateStep(
            f"Newton denominator {denominator} is numerically zero "
            f"at q={q}, beta={beta}, A={A}"
        )
    numerator = s1 - (1.0 + r) * s0
    return beta * (1.0 - q) * numerator / denominator


def newton_step(q: float, beta: float, A: float) -> float:
    """Closed-form Newton increment for the mean constraint.

    Written in terms of the scaled sums S(sigma, c) = c**sigma *
    zeta(sigma, c); the common c**(1-s) prefactor of the raw zeta form
    cancels exactly, so the step is computable even where the individual
    zeta values underflow.
    """
    _validate_target(q, A)
    model = QueueModel(q, beta)
    s, c = model.s, model.c
    s0, s1 = scaled_hurwitz_zeta(s, c), scaled_hurwitz_zeta(s - 1.0, c)
    return _newton_increment(q, beta, A, s, c, s0, s1)


def solve_beta(q: float, A: float, *, beta0: Optional[float] = None, tol: float = _TOL,
               max_iter: int = _MAX_ITER) -> SolverResult:
    """Find beta with mean(q, beta) = A to within tol * max(1, A).

    Newton iterates from beta0 (default ln((A+1)/A), the exact q -> 1
    solution).  A candidate leaving (0, inf) or increasing the residual
    is halved, up to five times.  Every residual evaluated narrows a
    bracket on the root.  When the halvings give out, the solve stops if
    the residual meets the target and either the Newton step or the
    bracket is within tol * beta; otherwise the next iterate is the
    bracket's geometric midpoint, or twice / half its closed end while
    the other end is open, and fallback_used is set.
    """
    if beta0 is not None and not (math.isfinite(beta0) and beta0 > 0.0):
        raise DomainError(f"beta0 must be positive, got {beta0}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    _validate_target(q, A)
    q, A = float(q), float(A)
    s = 1.0 / (1.0 - q)
    target = tol * max(1.0, A)
    lo, hi = 0.0, math.inf  # residual > 0 at lo, < 0 at hi

    def residual(b):
        # The bracket only narrows.  Near the root, rounding noise in the
        # mean can flip signs and cross it (lo >= hi): its width then
        # reads <= 0 and no bisection point lies inside it.  The sums
        # returned with the residual are those the Newton step at b reuses.
        nonlocal lo, hi
        c = _zeta_shift(q, b)
        sums = (c, scaled_hurwitz_zeta(s, c), scaled_hurwitz_zeta(s - 1.0, c))
        r = _mean_from_sums(*sums) - A
        if r > 0.0:
            lo = max(lo, b)
        elif r < 0.0:
            hi = min(hi, b)
        return r, sums

    beta = beta0 if beta0 is not None else math.log1p(1.0 / A)
    resid, sums = residual(beta)
    bisected = False
    for iterations in range(1, max_iter + 1):
        try:
            step = _newton_increment(q, beta, A, s, *sums)
        except DegenerateStep:
            step = math.inf  # no Newton direction: go to the bracket
        newton = step
        candidate = beta + step
        for _ in range(6):  # the full step, then five halvings
            # A step below beta's resolution leaves nothing to evaluate.
            if candidate > 0.0 and math.isfinite(candidate) and candidate != beta:
                inside = lo < candidate < hi
                new_resid, new_sums = residual(candidate)
                # A tie outside the bracket is taken only at the noise
                # floor: from a far beta0 the residual is a flat -A there.
                if abs(new_resid) < abs(resid) or (
                    abs(new_resid) == abs(resid) and (inside or abs(resid) <= target)
                ):
                    break
            step *= 0.5
            candidate = beta + step
        else:
            if abs(resid) <= target and min(abs(newton), hi - lo) <= tol * beta:
                return SolverResult(beta, iterations, abs(resid), bisected)
            if hi == math.inf:
                midpoint = 2.0 * lo
            elif lo == 0.0:
                midpoint = 0.5 * hi
            else:
                midpoint = math.sqrt(lo) * math.sqrt(hi)
            if not lo < midpoint < hi:  # crossed, or exhausted at float resolution
                raise NoConvergence(
                    f"bisection stalled at beta={beta} with residual {resid}",
                    beta=beta, residual=abs(resid), iterations=iterations,
                )
            beta = midpoint
            resid, sums = residual(beta)
            bisected = True
            continue
        moved = abs(candidate - beta)
        beta, resid, sums = candidate, new_resid, new_sums
        if moved <= tol * beta and abs(resid) <= target:
            return SolverResult(beta, iterations, abs(resid), bisected)
    raise NoConvergence(
        f"beta solve did not converge in {max_iter} iterations "
        f"(beta={beta}, residual={resid})",
        beta=beta, residual=abs(resid), iterations=max_iter,
    )
