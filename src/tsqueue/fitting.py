"""Correspondence data generation and the two candidate rho(beta) laws.

``generate_correspondence`` walks a log-spaced grid of target means,
recovering beta from the entropy model and rho from the storage model at
the matching Hurst parameter, so each record carries both
parameterizations of the same operating point.

Two fit families are provided for rho as a function of beta:

    Model I   rho = a + b * exp(-beta)                (linear least squares)
    Model II  rho = c * beta**(-eta) + d * exp(-mu*beta)
              (variable projection: c, d by least squares at each (eta, mu),
               damped Gauss-Newton on log eta and log mu)
"""

import math
import sys
from dataclasses import dataclass

from .distribution import _validate_q
from .errors import DomainError, NoConvergence, SingularFit
from .norros import hurst_from_q, norros_rho
from .solver import solve_beta

__all__ = [
    "CorrespondenceRecord",
    "FitReport",
    "generate_correspondence",
    "fit_model_i",
    "fit_model_ii",
    "evaluate_fit",
]

# The default mean grid: _POINTS means log-spaced from _MEAN_MIN to _MEAN_MAX.
_MEAN_MIN, _MEAN_MAX, _POINTS = 0.1, 100.0, 50
_GRADIENT_TOL = 1e-10
_MAX_GN_ITER = 500


@dataclass(frozen=True)
class CorrespondenceRecord:
    """One (mean, beta, rho, q) row linking the two parameterizations."""

    mean: float
    beta: float
    rho: float
    q: float


@dataclass(frozen=True)
class FitReport:
    """Fitted model, parameters in natural form, and goodness of fit."""

    model_kind: str  # "I" or "II"
    params: tuple
    rmse: float
    r_squared: float
    iterations: int
    converged: bool


def generate_correspondence(q, mean_min=_MEAN_MIN, mean_max=_MEAN_MAX, points=_POINTS):
    """Records for a log-spaced mean grid, sorted by ascending mean."""
    _validate_q(q)
    for name, value in (("mean_min", mean_min), ("mean_max", mean_max)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not (0.0 < mean_min < mean_max):
        raise DomainError(
            f"need 0 < mean_min < mean_max, got {mean_min}, {mean_max}"
        )
    points = int(points)
    if points < 2:
        raise DomainError(f"need at least 2 grid points, got {points}")
    hurst = hurst_from_q(q)
    records = []
    for target in _mean_grid(mean_min, mean_max, points):
        try:
            beta = solve_beta(q, target).beta
        except NoConvergence as exc:
            raise NoConvergence(
                f"beta solve failed at mean={target}: {exc}",
                beta=exc.beta, residual=exc.residual, iterations=exc.iterations,
            ) from exc
        rho = norros_rho(target, hurst)
        records.append(CorrespondenceRecord(mean=target, beta=beta, rho=rho, q=q))
    return records


def _mean_grid(lo, hi, n):
    """``n`` means spaced evenly in log10 from ``lo`` to ``hi``, both exact."""
    la = math.log10(lo)
    step = (math.log10(hi) - la) / (n - 1)
    return [lo, *(math.pow(10.0, la + i * step) for i in range(1, n - 1)), hi]


def _columns(beta, rho, min_points):
    """beta and rho as equally long lists of finite floats, at least
    ``min_points`` of them."""
    beta, rho = list(map(float, beta)), list(map(float, rho))
    if len(beta) != len(rho):
        raise DomainError(
            f"beta and rho must be equally long, got {len(beta)} and {len(rho)}"
        )
    if len(beta) < min_points:
        raise DomainError(f"need at least {min_points} data points, got {len(beta)}")
    if not (all(map(math.isfinite, beta)) and all(map(math.isfinite, rho))):
        raise DomainError("data contains non-finite values")
    return beta, rho


def _line(x, y):
    """Least-squares ``(intercept, slope)`` of ``y`` on ``x``, or None when
    ``x`` is constant (or so nearly so that its spread underflows)."""
    if len(set(x)) < 2:
        return None
    n = len(x)
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    dx = [v - x_mean for v in x]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        return None
    slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) / sxx
    return y_mean - slope * x_mean, slope


def _goodness(rho, ss_res):
    """rmse and r_squared from the residual sum of squares ``ss_res``."""
    n = len(rho)
    rho_mean = math.fsum(rho) / n
    ss_tot = math.fsum((r - rho_mean) * (r - rho_mean) for r in rho)
    rmse = math.sqrt(ss_res / n)
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res == 0.0 else -math.inf
    return rmse, r_squared


def _model_i_regressor(beta):
    """exp(-beta), or an OverflowError that names beta."""
    try:
        return math.exp(-beta)
    except OverflowError:
        raise OverflowError(
            f"Model I regressor exp(-beta) exceeds the double range at beta={beta}"
        ) from None


def fit_model_i(beta, rho) -> FitReport:
    """Exact least-squares fit of rho = a + b exp(-beta) to the columns
    ``beta`` and ``rho``."""
    beta, rho = _columns(beta, rho, min_points=3)
    regressor = [_model_i_regressor(b) for b in beta]
    line = _line(regressor, rho)
    if line is None:
        raise SingularFit("all regressor values exp(-beta) are (nearly) identical")
    a, b = line
    residuals = [r - (a + b * x) for r, x in zip(rho, regressor)]
    rmse, r_squared = _goodness(rho, math.fsum(e * e for e in residuals))
    return FitReport("I", (a, b), rmse, r_squared, iterations=1, converged=True)


# log_eta and log_mu are kept inside +-50 so eta, mu never collapse to 0.0
# or inf in doubles; the bound is far outside any data-supported value.
_LOG_BOUND = 50.0


def _model_ii_starts(beta, rho):
    """Deterministic (log eta, log mu) start points; each rate comes from the
    regime where its term dominates, plus a near-constant power term so the
    optimizer can reach nearly-pure-exponential solutions."""
    b_sorted, r_sorted = zip(*sorted(zip(beta, rho)))
    half = max(len(b_sorted) // 2, 2)
    low = [(b, r) for b, r in zip(b_sorted[:half], r_sorted[:half]) if r > 0.0]
    high = [(b, r) for b, r in zip(b_sorted[-half:], r_sorted[-half:]) if r > 0.0]

    # decay rate from ln rho vs beta on the low-beta half
    mu0 = 1.0
    line = _line([b for b, _ in low], [math.log(r) for _, r in low])
    if line is not None and math.isfinite(line[1]) and line[1] < 0.0:
        mu0 = min(max(-line[1], 1e-2), 1e2)

    # power-law exponent from ln rho vs ln beta on the high-beta half
    eta0 = 1.0
    line = _line([math.log(b) for b, _ in high], [math.log(r) for _, r in high])
    if line is not None and math.isfinite(line[1]):
        eta0 = min(max(-line[1], 1e-2), 1e2)

    return [
        (math.log(eta0), 0.0),
        (math.log(eta0), math.log(mu0)),
        (math.log(1e-2), math.log(mu0)),
    ]


def _clamp(log_rate):
    return min(max(log_rate, -_LOG_BOUND), _LOG_BOUND)


def _variable_projection(start, beta, rho):
    """One damped Gauss-Newton run on (log eta, log mu) from ``start``, with
    (c, d) projected out (Golub & Pereyra 1973, Kaufman's Jacobian 1975);
    returns (converged, sse, (c, eta, d, mu), iters).  The package's only
    numpy code: numpy forms the per-point vectors and their sums, and the
    2x2 solves and stopping tests run in Python floats.  Every scale in the
    loop is relative to rho's, so a fit of k * rho stops where one of rho
    does."""
    import numpy as np

    with np.errstate(all="ignore"):  # overflow and nan reject a step, quietly
        rho = np.array(rho, dtype=float)
        log_beta_beta = np.array([np.log(beta), beta])
        # J^T J and the gradient scale as rho**2, and so do the damping floor
        # and the gradient bound; capped so that they stay finite
        rho_squared = min(float(rho @ rho) / len(rho), sys.float_info.max)
        floor, tolerance = 1e-12 * rho_squared, _GRADIENT_TOL * rho_squared
        # Rows: rho, p = beta**-eta, e = exp(-mu beta), the residuals, and the
        # model's derivatives in log eta and log mu.  One table holds the
        # current point, the other a trial.
        table, trial_table = np.empty((2, 6, len(rho)))
        table[0] = trial_table[0] = rho

        def evaluate(theta, rows):
            """SSE, (c, eta, d, mu) and (p.p, p.e, e.e, det) at ``theta``,
            with (c, d) from the normal equations of (p, e)."""
            eta, mu = math.exp(theta[0]), math.exp(theta[1])
            np.exp(np.array([[-eta], [-mu]]) * log_beta_beta, out=rows[1:3])
            (pr, pp, pe), (er, _, ee) = (rows[1:3] @ rows[:3].T).tolist()
            det = pp * ee - pe * pe
            try:
                c, d = (ee * pr - pe * er) / det, (pp * er - pe * pr) / det
            except ZeroDivisionError:  # p and e are parallel, or both vanish
                c = d = math.nan
            np.subtract(rho, c * rows[1] + d * rows[2], out=rows[3])
            return float(rows[3] @ rows[3]), (c, eta, d, mu), (pp, pe, ee, det)

        theta = (_clamp(start[0]), _clamp(start[1]))
        lam, moved = 1e-3, True
        sse, params, (pp, pe, ee, det) = evaluate(theta, table)
        if not math.isfinite(sse):
            return False, math.inf, params, 1
        # A step is taken only if it does not raise the SSE: theta is the best
        # point.  Each stopping test reads "every |x_i| <= bound", so a nan
        # never passes.
        for iteration in range(1, _MAX_GN_ITER + 1):
            if moved:  # Kaufman: the derivatives less their projections on (p, e)
                c, eta, d, mu = params
                slopes = np.array([[-c * eta], [-d * mu]]) * log_beta_beta
                np.multiply(slopes, table[1:3], out=table[4:])
                # each derivative's products with p, e, the residuals and both
                sums = (table[4:] @ table[1:].T).tolist()
                (p1, e1, g1, h11, h12), (p2, e2, g2, _, h22) = sums
                j11 = h11 - (ee * p1 * p1 - 2.0 * pe * p1 * e1 + pp * e1 * e1) / det
                j12 = h12 - (ee * p1 * p2 - pe * (p1 * e2 + e1 * p2) + pp * e1 * e2) / det
                j22 = h22 - (ee * p2 * p2 - 2.0 * pe * p2 * e2 + pp * e2 * e2) / det
            if abs(g1) <= tolerance and abs(g2) <= tolerance:
                return True, sse, params, iteration
            m11, m22 = j11 + lam * max(j11, floor), j22 + lam * max(j22, floor)
            # by elimination: a determinant would multiply four powers of rho
            try:
                ratio = j12 / m11
                step2 = (g2 - ratio * g1) / (m22 - ratio * j12)
                step1 = (g1 - j12 * step2) / m11
            except ZeroDivisionError:  # no step: rejected like a bad one
                trial_sse = math.inf
            else:
                trial = (_clamp(theta[0] + step1), _clamp(theta[1] + step2))
                trial_sse, trial_params, trial_gram = evaluate(trial, trial_table)
            moved = math.isfinite(trial_sse) and trial_sse <= sse
            if moved:
                bound = 1e-15 * (1.0 + max(map(abs, theta)))
                step_small = all(abs(s - t) <= bound for s, t in zip(trial, theta))
                theta, sse, params = trial, trial_sse, trial_params
                pp, pe, ee, det = trial_gram
                table, trial_table = trial_table, table
                lam = max(lam * 0.1, 1e-14)
                if step_small:
                    return True, sse, params, iteration
            else:
                lam *= 10.0
                if lam > 1e14:
                    return False, sse, params, iteration
        return False, sse, params, _MAX_GN_ITER


def fit_model_ii(beta, rho) -> FitReport:
    """Variable-projection fit of rho = c beta**(-eta) + d exp(-mu beta) to
    the columns ``beta`` and ``rho``.

    Runs from a small set of deterministic start points (the problem has
    genuine local minima, e.g. on nearly pure-exponential data), each to
    convergence, and returns the best converged solution.  The loop fits
    rho scaled by a power of two so that max|rho| lies in [0.5, 1), where
    its SSE cannot overflow; c, d and rmse are scaled back exactly.
    """
    beta, rho = _columns(beta, rho, min_points=5)
    if any(b <= 0.0 for b in beta):
        raise DomainError("Model II requires all beta > 0")
    if min(beta) == max(beta):
        raise SingularFit("all beta values are identical")

    e = math.frexp(max(map(abs, rho)))[1]
    scaled = [math.ldexp(r, -e) for r in rho]
    runs = [_variable_projection(s, beta, scaled) for s in _model_ii_starts(beta, rho)]
    converged, sse, (c, eta, d, mu), iterations = min(
        [run for run in runs if run[0]] or runs, key=lambda run: run[1]
    )
    rmse, r_squared = _goodness(scaled, sse)
    rmse, params = math.ldexp(rmse, e), (math.ldexp(c, e), eta, math.ldexp(d, e), mu)
    report = FitReport("II", params, rmse, r_squared, iterations, converged)
    if not converged:
        raise NoConvergence(
            f"Model II fit did not converge (best rmse={rmse})", report=report
        )
    return report


def evaluate_fit(report: FitReport, beta: float) -> float:
    """Predicted rho at one beta from a converged fit report."""
    if not report.converged:
        raise DomainError("cannot evaluate a fit that did not converge")
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    if report.model_kind == "I":
        a, b = report.params
        return a + b * _model_i_regressor(beta)
    if report.model_kind == "II":
        if beta <= 0.0:
            raise DomainError(f"Model II prediction requires beta > 0, got {beta}")
        c, eta, d, mu = report.params
        return c * beta ** (-eta) + d * math.exp(-mu * beta)
    raise DomainError(f"unknown model kind {report.model_kind!r}")
