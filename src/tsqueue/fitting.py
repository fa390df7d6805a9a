"""Correspondence data generation and the two candidate rho(beta) laws.

``generate_correspondence`` walks a log-spaced grid of target means,
recovering beta from the entropy model and rho from the storage model at
the matching Hurst parameter, so each record carries both
parameterizations of the same operating point.

Two fit families are provided for rho as a function of beta:

    Model I   rho = a + b * exp(-beta)                (linear least squares)
    Model II  rho = c * beta**(-eta) + d * exp(-mu*beta)
              (damped Gauss-Newton, analytic Jacobian, eta and mu kept
               positive through a log reparameterization)
"""

import math
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
_GRADIENT_TOL = 1e-8
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


def _columns(data, min_points):
    pairs = [(float(b), float(r)) for b, r in data]
    if len(pairs) < min_points:
        raise DomainError(f"need at least {min_points} data points, got {len(pairs)}")
    if not all(math.isfinite(b) and math.isfinite(r) for b, r in pairs):
        raise DomainError("data contains non-finite values")
    return [b for b, _ in pairs], [r for _, r in pairs]


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


def fit_model_i(data) -> FitReport:
    """Exact least-squares fit of rho = a + b exp(-beta)."""
    beta, rho = _columns(data, min_points=3)
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
    """Deterministic start points; each term's parameters come from the
    regime where that term dominates, plus a Model-I-like start so the
    optimizer can reach nearly-pure-exponential solutions."""
    b_sorted, r_sorted = zip(*sorted(zip(beta, rho)))
    half = max(len(b_sorted) // 2, 2)
    low = [(b, r) for b, r in zip(b_sorted[:half], r_sorted[:half]) if r > 0.0]
    high = [(b, r) for b, r in zip(b_sorted[-half:], r_sorted[-half:]) if r > 0.0]
    rho_scale = max(max(abs(r) for r in r_sorted), 1e-6)

    # decay rate and amplitude from ln rho vs beta on the low-beta half
    d0, mu0 = rho_scale, 1.0
    line = _line([b for b, _ in low], [math.log(r) for _, r in low])
    if line is not None:
        intercept, slope = line
        if math.isfinite(slope) and slope < 0.0:
            mu0 = min(max(-slope, 1e-2), 1e2)
        if math.isfinite(intercept):
            d0 = math.exp(min(max(intercept, -30.0), 30.0))

    # power-law amplitude and exponent from ln rho vs ln beta on the
    # high-beta half
    c0, eta0 = 1e-3 * rho_scale, 1.0
    line = _line([math.log(b) for b, _ in high], [math.log(r) for _, r in high])
    if line is not None:
        intercept, slope = line
        if math.isfinite(slope):
            eta0 = min(max(-slope, 1e-2), 1e2)
        if math.isfinite(intercept):
            c0 = math.exp(min(max(intercept, -30.0), 30.0))

    # Model-I-like start: constant-ish power term plus unit-rate decay
    line = _line([math.exp(-b) for b in b_sorted], r_sorted)
    a_full, b_full = (0.0, rho_scale) if line is None else line

    return [
        [c0, math.log(eta0), d0, 0.0],
        [c0, math.log(eta0), d0, math.log(mu0)],
        [a_full, math.log(1e-2), max(b_full, 1e-3 * rho_scale), math.log(mu0)],
    ]


def _clamp_theta(theta):
    theta[1] = min(max(theta[1], -_LOG_BOUND), _LOG_BOUND)
    theta[3] = min(max(theta[3], -_LOG_BOUND), _LOG_BOUND)
    return theta


def _gauss_newton(theta, beta, rho):
    """One damped Gauss-Newton run from ``theta`` = [c, log eta, d, log mu];
    returns (converged, sse, theta, iters).  The package's only numpy code:
    per point in Python, a fit's thousands of model evaluations take about
    four times as long.  Most of its calls act on 4-vectors and 4x4 matrices,
    where a numpy call's overhead outweighs its arithmetic, so theta and both
    stopping tests stay in Python floats and the Jacobian and damping arrays
    are allocated once."""
    import numpy as np

    with np.errstate(all="ignore"):  # overflow and nan reject a step, quietly
        beta, rho = np.array(beta, dtype=float), np.array(rho, dtype=float)
        log_beta = np.log(beta)
        n = len(beta)
        jac = np.empty((n, 4))  # C-ordered: the matmuls' last bits depend on it
        # Zero off the diagonal: jtj + lam * damping turns jtj's -0.0 entries
        # into +0.0, on which the solve's last bits can depend, so the
        # diagonal is not added into jtj in place.
        damping = np.zeros((4, 4))
        damping_diagonal = damping.reshape(-1)[::5]  # a writable view

        def evaluate(theta):
            c, log_eta, d, log_mu = theta
            eta, mu = math.exp(log_eta), math.exp(log_mu)
            power = beta ** (-eta)
            decay = np.exp(-mu * beta)
            residuals = rho - (c * power + d * decay)
            return residuals, float(residuals @ residuals), (power, decay, eta, mu)

        theta = _clamp_theta([float(t) for t in theta])
        lam = 1e-3
        residuals, sse, parts = evaluate(theta)
        if not math.isfinite(sse):
            return False, math.inf, theta, 1
        # A step is taken only if it does not raise the SSE: theta is the best
        # point.  Each stopping test reads "every |x_i| <= bound", so a nan
        # never passes.
        for iteration in range(1, _MAX_GN_ITER + 1):
            power, decay, eta, mu = parts
            jac[:, 0] = power
            jac[:, 1] = -theta[0] * eta * log_beta * power
            jac[:, 2] = decay
            jac[:, 3] = -theta[2] * mu * beta * decay
            gradient = jac.T @ residuals
            bound = _GRADIENT_TOL * (1.0 + math.sqrt(sse / n))
            if all(abs(g) <= bound for g in gradient.tolist()):
                return True, sse, theta, iteration
            jtj = jac.T @ jac
            np.maximum(jtj.diagonal(), 1e-12, out=damping_diagonal)
            try:
                delta = np.linalg.solve(jtj + lam * damping, gradient)
            except np.linalg.LinAlgError:  # no step: rejected like a bad one
                trial_sse = math.inf
            else:
                trial = _clamp_theta([t + s for t, s in zip(theta, delta.tolist())])
                trial_res, trial_sse, trial_parts = evaluate(trial)
            if math.isfinite(trial_sse) and trial_sse <= sse:
                bound = 1e-15 * (1.0 + max(map(abs, theta)))
                step_small = all(abs(a - b) <= bound for a, b in zip(trial, theta))
                theta, parts, residuals, sse = trial, trial_parts, trial_res, trial_sse
                lam = max(lam * 0.1, 1e-14)
                if step_small:
                    return True, sse, theta, iteration
            else:
                lam *= 10.0
                if lam > 1e14:
                    return False, sse, theta, iteration
        return False, sse, theta, _MAX_GN_ITER


def fit_model_ii(data) -> FitReport:
    """Damped Gauss-Newton fit of rho = c beta**(-eta) + d exp(-mu beta).

    Runs from a small set of deterministic start points (the problem has
    genuine local minima, e.g. on nearly pure-exponential data) and
    returns the best converged solution.
    """
    beta, rho = _columns(data, min_points=5)
    if any(b <= 0.0 for b in beta):
        raise DomainError("Model II requires all beta > 0")
    if min(beta) == max(beta):
        raise SingularFit("all beta values are identical")

    runs = [_gauss_newton(start, beta, rho) for start in _model_ii_starts(beta, rho)]
    converged, sse, theta, iterations = min(
        [run for run in runs if run[0]] or runs, key=lambda run: run[1]
    )
    c, log_eta, d, log_mu = theta
    rmse, r_squared = _goodness(rho, sse)
    params = (c, math.exp(log_eta), d, math.exp(log_mu))
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
