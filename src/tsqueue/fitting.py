"""Correspondence data generation and the two candidate rho(beta) laws.

``generate_correspondence`` walks a log-spaced grid of target means,
recovering beta from the entropy model and rho from the storage model at
the matching Hurst parameter, so each record carries both
parameterizations of the same operating point.  Each beta solve starts
from a Hermite extrapolation of the earlier ones (Allgower & Georg,
*Numerical Continuation Methods*, 1990), whose slopes the solver's loop
returns with each beta: read from its last excess pass, or extrapolated
from it where a certified Halley step ended the solve.

Two fit families are provided for rho as a function of beta:

    Model I   rho = a + b * exp(-beta)                (linear least squares)
    Model II  rho = c * beta**(-eta) + d * exp(-mu*beta)
              (variable projection: c, d by least squares at each (eta, mu),
               damped Gauss-Newton on log eta and log mu, then undamped
               steps to the rounding floor)
"""

import math
import operator
import struct
import sys

from .distribution import _validate_q
from .errors import DomainError, NoConvergence, SingularFit
from .norros import hurst_from_q, norros_rho
from .record import Record
from .solver import _solve
from .zeta import _exp

__all__ = [
    "CorrespondenceRecord",
    "FitReport",
    "generate_correspondence",
    "fit_model_i",
    "fit_model_ii",
    "evaluate_fit",
]

_GRADIENT_TOL = 1e-10
_MAX_GN_ITER = 500
_POLISH_STEP = 1e-10  # Model II's last step in ln eta and ln mu
_MAX_POINTS = 10**6  # about 20 s, at 18-21 us per point
_LN_10 = 2.302585092994046  # ln 10, the nearest double
_TANGENT_GAP = 2.0**-40  # a start this close to the tangent's, in ln beta, gains nothing


class CorrespondenceRecord(Record):
    """One (mean, beta, rho, q) row linking the two parameterizations: an
    immutable record."""

    __slots__ = _fields = ("mean", "beta", "rho", "q")

    def __init__(self, mean: float, beta: float, rho: float, q: float):
        _set_mean(self, mean)
        _set_beta(self, beta)
        _set_rho(self, rho)
        _set_q(self, q)


_set_mean, _set_beta, _set_rho, _set_q = (
    slot.__set__ for slot in CorrespondenceRecord._slots.values())


class FitReport(Record):
    """Fitted model ("I" or "II"), parameters in natural form, and goodness
    of fit: an immutable record."""

    __slots__ = _fields = ("model_kind", "params", "rmse", "r_squared", "iterations",
                           "converged")

    def __init__(self, model_kind: str, params: tuple, rmse: float, r_squared: float,
                 iterations: int, converged: bool):
        _set_model_kind(self, model_kind)
        _set_params(self, params)
        _set_rmse(self, rmse)
        _set_r_squared(self, r_squared)
        _set_iterations(self, iterations)
        _set_converged(self, converged)


_set_model_kind, _set_params, _set_rmse, _set_r_squared, _set_iterations, _set_converged = (
    slot.__set__ for slot in FitReport._slots.values())


def generate_correspondence(q, mean_min=0.1, mean_max=100.0, points=50):
    """Records for ``points`` (2 to 1,000,000) means log-spaced from
    ``mean_min`` to ``mean_max``, sorted by ascending mean.

    The first solve starts cold and the second from the first's beta.  Each
    later one starts from a Hermite extrapolation of ln beta over ln mean:
    the cubic through the last two solves, then the quintic through the last
    three, each matching ln beta and its slope d ln beta / d ln mean =
    -1 / (d ln mean / d ln c), which the solver's loop returns with the
    solved beta.  From such a start one Halley step, its remainder
    certified (solver module docstring), usually ends the solve with no
    pass at the beta it returns: about 1.1 fresh passes per solve, against
    2.4 with Newton steps and a confirming pass (README.md, "CLI").
    """
    fq = _validate_q(q)
    for name, value in (("mean_min", mean_min), ("mean_max", mean_max)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not (0.0 < mean_min < mean_max):
        raise DomainError(
            f"need 0 < mean_min < mean_max, got {mean_min}, {mean_max}"
        )
    try:
        points = operator.index(points)
    except TypeError:
        raise DomainError(f"points must be an integer, got {points!r}") from None
    if points < 2:
        raise DomainError(f"need at least 2 grid points, got {points}")
    span = _doubles_between(mean_min, mean_max)
    if points > span:
        raise DomainError(
            f"points={points} exceeds the {span} doubles from mean_min to mean_max: "
            "no grid of that many strictly increasing means exists"
        )
    if points > _MAX_POINTS:
        raise DomainError(f"points={points} exceeds the maximum of {_MAX_POINTS}")
    hurst = hurst_from_q(fq)
    h = _LN_10 * _grid_step(mean_min, mean_max, points)  # the grid's step in ln mean
    records, beta, known = [], None, []
    for target in _mean_grid(mean_min, mean_max, points):
        # known holds (ln beta, h d ln beta / d ln mean) of up to the last
        # three solves.  On nodes one grid step apart, the Hermite
        # interpolant's value a step on is a fixed sum of these; step is that
        # value less the last ln beta.
        beta0 = beta
        if len(known) >= 2:
            if len(known) == 2:
                (y0, d0), (y1, d1) = known
                step = 5.0 * (y0 - y1) + 2.0 * d0 + 4.0 * d1
            else:
                (y0, d0), (y1, d1), (y2, d2) = known
                step = 10.0 * (y0 - y2) + 9.0 * (y1 - y2) + 3.0 * d0 + 18.0 * d1 + 9.0 * d2
            # d ln mean / d ln c falls from s to 1 as c grows, so ln beta falls
            # by at least the tangent's step and at most h; a nan step is
            # dropped.  Where the step is the tangent's to within _TANGENT_GAP
            # (as where the slope is 1, at means above about 1e170), the start
            # stays at the previous beta: the solver's tangent step from that
            # cached pass reads the exact target.
            tangent = known[-1][1]
            step = max(-h, min(tangent, step))
            if abs(step - tangent) > _TANGENT_GAP:
                beta0 = beta * _exp(step)
        try:  # solve_beta's loop, on the floats its checks would pass it
            beta, _, _, _, slope = _solve(fq, float(target), beta0, True)
        except NoConvergence as exc:
            raise NoConvergence(
                f"beta solve failed at mean={target}: {exc}",
                beta=exc.beta, residual=exc.residual, iterations=exc.iterations,
            ) from exc
        known = [*known[-2:], (math.log(beta), -h / slope)]
        rho = norros_rho(target, hurst)
        records.append(CorrespondenceRecord(mean=target, beta=beta, rho=rho, q=fq))
    return records


def _doubles_between(lo, hi):
    """How many doubles lie in [lo, hi], for positive finite lo <= hi: the
    bit patterns of positive doubles are ordered as their values."""
    bits = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    return bits[1] - bits[0] + 1


def _grid_step(lo, hi, n):
    """The spacing in log10 of ``n`` means from ``lo`` to ``hi``."""
    return (math.log10(hi) - math.log10(lo)) / (n - 1)


def _mean_grid(lo, hi, n):
    """``n`` means spaced evenly in log10 from ``lo`` to ``hi``, both exact,
    yielded one at a time."""
    la, step = math.log10(lo), _grid_step(lo, hi, n)
    yield lo
    for i in range(1, n - 1):
        yield math.pow(10.0, la + i * step)
    yield hi


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
    ``x`` is constant.

    x is scaled by a power of two into max|x| in [0.5, 1), and the slope
    back, so that the spread of x cannot underflow; a power of two commutes
    with every rounding here, so where it did not underflow the line is
    bit for bit the unscaled one."""
    lo, hi = min(x), max(x)
    if lo == hi:
        return None
    e = math.frexp(max(-lo, hi))[1]
    if e:
        x = [math.ldexp(v, -e) for v in x]
    n = len(x)
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    slope = math.fsum(map(operator.mul, dx, dy)) / math.fsum(map(operator.mul, dx, dx))
    return y_mean - slope * x_mean, math.ldexp(slope, -e)


def _goodness(rho, ss_res):
    """rmse and r_squared from the residual sum of squares ``ss_res``."""
    n = len(rho)
    rho_mean = math.fsum(rho) / n
    deviations = [r - rho_mean for r in rho]
    ss_tot = math.fsum(map(operator.mul, deviations, deviations))
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
    try:
        line = _line(regressor, rho)
    except OverflowError:  # the slope, scaled back from subnormal regressors
        raise OverflowError("Model I slope b exceeds the double range") from None
    if line is None:
        raise SingularFit("all regressor values exp(-beta) are identical")
    a, b = line
    residuals = [r - (a + b * x) for r, x in zip(rho, regressor)]
    rmse, r_squared = _goodness(rho, math.fsum(map(operator.mul, residuals, residuals)))
    return FitReport("I", (a, b), rmse, r_squared, iterations=1, converged=True)


# log_eta and log_mu are kept inside +-50 so eta, mu never collapse to 0.0
# or inf in doubles; the bound is far outside any data-supported value.
_LOG_BOUND = 50.0


def _model_ii_starts(beta, rho):
    """Deterministic (log eta, log mu) start points; each rate comes from the
    regime where its term dominates, plus a near-constant power term so the
    optimizer can reach nearly-pure-exponential solutions."""
    pairs = sorted(zip(beta, rho))
    half = max(len(pairs) // 2, 2)
    low = [(b, math.log(r)) for b, r in pairs[:half] if r > 0.0]
    high = [(math.log(b), math.log(r)) for b, r in pairs[-half:] if r > 0.0]

    # decay rate from ln rho vs beta on the low-beta half
    mu0 = 1.0
    line = _line(*zip(*low)) if low else None
    if line is not None and math.isfinite(line[1]) and line[1] < 0.0:
        mu0 = min(max(-line[1], 1e-2), 1e2)

    # power-law exponent from ln rho vs ln beta on the high-beta half
    eta0 = 1.0
    line = _line(*zip(*high)) if high else None
    if line is not None and math.isfinite(line[1]):
        eta0 = min(max(-line[1], 1e-2), 1e2)

    return [
        (math.log(eta0), 0.0),
        (math.log(eta0), math.log(mu0)),
        (math.log(1e-2), math.log(mu0)),
    ]


def _clamp(log_rate):
    return min(max(log_rate, -_LOG_BOUND), _LOG_BOUND)


def _sse_rounding(sse, norm):
    """How far the rounding alone can move an SSE near ``sse``, with
    residuals good to about 2 ulps of rho each and ``norm`` = rho . rho."""
    return 2.0**-49 * math.sqrt(sse * norm)


def _variable_projection(starts, beta, rho):
    """One run from each of ``starts``, in order: damped Gauss-Newton on
    (log eta, log mu), then undamped steps to the rounding floor, with
    (c, d) projected out (Golub & Pereyra 1973, Kaufman's Jacobian 1975).
    Returns a list of (converged, sse, (c, eta, d, mu), iters), one per
    start.  The package's only numpy code: numpy forms the per-point
    vectors and their sums, and the 2x2 solves and stopping tests run in
    Python floats.  Every scale in the loop is relative to rho's, so a fit
    of k * rho stops where one of rho does.

    What the runs share is built once per call: rho, the rows
    [ln beta; beta], rho . rho / n, two tables of six rows (rho,
    p = beta**-eta, e = exp(-mu beta), the residuals, and the model's
    derivatives in log eta and log mu) with their row views, the rates,
    the slopes and one scratch row.  A run writes rows 1-5 of a table
    before it reads them, so nothing carries from one run to the next, and
    a step only writes into these buffers.  Each numpy call is one
    operation of the plain expressions exp([-eta; -mu] * [ln beta; beta]),
    rho - (c p + d e) and ([-c eta; -d mu] * [ln beta; beta]) * [p; e], on
    the same operands in the same order, and ``ndarray.dot`` reaches the
    same BLAS routine as ``@``: so the bits are those of the expressions
    evaluated with temporaries."""
    import numpy as np

    multiply, add, subtract, exp = np.multiply, np.add, np.subtract, np.exp
    with np.errstate(all="ignore"):  # overflow and nan reject a step, quietly
        rho = np.array(rho, dtype=float)
        n = len(rho)
        log_beta_beta = np.array([np.log(beta), beta])
        # J^T J and the gradient scale as rho**2, and so do the damping floor
        # and the gradient bound; capped so that they stay finite
        rho_squared = min(float(rho @ rho) / n, sys.float_info.max)
        floor, tolerance = 1e-12 * rho_squared, _GRADIENT_TOL * rho_squared
        norm = rho_squared * n
        rates, slopes, scratch = np.empty((2, 1)), np.empty((2, 1)), np.empty(n)
        # One table holds the current point, the other a trial; a run swaps
        # them, views and all.  Views: [p; e], [rho; p; e] transposed, p, e,
        # the residuals, the derivatives, and rows 1-5 transposed.
        tables = np.empty((2, 6, n))
        tables[:, 0] = rho
        views = [(t[1:3], t[:3].T, t[1], t[2], t[3], t[4:], t[1:].T) for t in tables]

        def evaluate(theta, table):
            """SSE, (c, eta, d, mu) and (p.p, p.e, e.e, det) at ``theta``,
            with (c, d) from the normal equations of (p, e)."""
            rows, basis, p, e, residuals, _, _ = table
            eta, mu = _exp(theta[0]), _exp(theta[1])
            rates[0, 0], rates[1, 0] = -eta, -mu
            multiply(rates, log_beta_beta, out=rows)
            exp(rows, out=rows)
            (pr, pp, pe), (er, _, ee) = rows.dot(basis).tolist()
            det = pp * ee - pe * pe
            try:
                c, d = (ee * pr - pe * er) / det, (pp * er - pe * pr) / det
            except ZeroDivisionError:  # p and e are parallel, or both vanish
                c = d = math.nan
            multiply(p, c, out=residuals)
            multiply(e, d, out=scratch)
            add(residuals, scratch, out=residuals)
            subtract(rho, residuals, out=residuals)
            return float(residuals.dot(residuals)), (c, eta, d, mu), (pp, pe, ee, det)

        def run(start):
            table, trial_table = views
            theta = (_clamp(start[0]), _clamp(start[1]))
            lam, moved, polish, step_small = 1e-3, True, False, False
            sse, params, (pp, pe, ee, det) = evaluate(theta, table)
            if not math.isfinite(sse):
                return False, math.inf, params, 1
            # Damped steps are taken only if they do not raise the SSE, so
            # theta is the best point, until the gradient test passes or a
            # step no longer moves theta.  The SSE's rounding cannot place
            # theta closer than about 1e-8 to the minimizer (up to 6e-8 on
            # the default grids), so a polish follows: undamped Gauss-Newton
            # steps, which read the gradient, taken while each is under half
            # the one before and the SSE stays within its rounding, up to and
            # including the first of at most _POLISH_STEP.  Each stopping
            # test reads "every |x_i| <= bound", so a nan never passes.
            for iteration in range(1, _MAX_GN_ITER + 1):
                if moved:  # Kaufman: the derivatives less their projections on (p, e)
                    c, eta, d, mu = params
                    rows, _, _, _, _, derivatives, products = table
                    slopes[0, 0], slopes[1, 0] = -c * eta, -d * mu
                    multiply(slopes, log_beta_beta, out=derivatives)
                    multiply(derivatives, rows, out=derivatives)
                    # each derivative's products with p, e, the residuals and both
                    sums = derivatives.dot(products).tolist()
                    (p1, e1, g1, h11, h12), (p2, e2, g2, _, h22) = sums
                    j11 = h11 - (ee * p1 * p1 - 2.0 * pe * p1 * e1 + pp * e1 * e1) / det
                    j12 = h12 - (ee * p1 * p2 - pe * (p1 * e2 + e1 * p2) + pp * e1 * e2) / det
                    j22 = h22 - (ee * p2 * p2 - 2.0 * pe * p2 * e2 + pp * e2 * e2) / det
                if not polish and (step_small or abs(g1) <= tolerance and abs(g2) <= tolerance):
                    polish, lam, last = True, 0.0, math.inf
                m11, m22 = j11 + lam * max(j11, floor), j22 + lam * max(j22, floor)
                # by elimination: a determinant would multiply four powers of rho
                try:
                    ratio = j12 / m11
                    step2 = (g2 - ratio * g1) / (m22 - ratio * j12)
                    step1 = (g1 - j12 * step2) / m11
                except ZeroDivisionError:  # no step: rejected like a bad one
                    trial_sse = math.inf
                else:
                    if polish:
                        size = max(abs(step1), abs(step2))
                        if not size < 0.5 * last:
                            return True, sse, params, iteration
                        last = size
                    trial = (_clamp(theta[0] + step1), _clamp(theta[1] + step2))
                    trial_sse, trial_params, trial_gram = evaluate(trial, trial_table)
                slack = _sse_rounding(sse, norm) if polish else 0.0
                moved = math.isfinite(trial_sse) and trial_sse <= sse + slack
                if moved:
                    bound = 1e-15 * (1.0 + max(abs(theta[0]), abs(theta[1])))
                    step_small = (abs(trial[0] - theta[0]) <= bound
                                  and abs(trial[1] - theta[1]) <= bound)
                    theta, sse, params = trial, trial_sse, trial_params
                    pp, pe, ee, det = trial_gram
                    table, trial_table = trial_table, table
                    if not polish:
                        lam = max(lam * 0.1, 1e-14)
                    elif last <= _POLISH_STEP:
                        return True, sse, params, iteration
                elif polish:
                    return True, sse, params, iteration
                else:
                    lam *= 10.0
                    if lam > 1e14:
                        return False, sse, params, iteration
            return polish, sse, params, _MAX_GN_ITER

        return [run(start) for start in starts]


def fit_model_ii(beta, rho) -> FitReport:
    """Variable-projection fit of rho = c beta**(-eta) + d exp(-mu beta) to
    the columns ``beta`` and ``rho``.

    Runs from a small set of deterministic start points (the problem has
    genuine local minima, e.g. on nearly pure-exponential data), each to
    convergence, and returns the best converged solution (the first in
    start order among those whose SSEs differ only by rounding).  The loop fits
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
    runs = _variable_projection(_model_ii_starts(beta, rho), beta, scaled)
    # The first run whose SSE is the least to within its rounding, so that
    # runs to one minimizer do not win by their SSEs' last bits
    runs = [run for run in runs if run[0]] or runs
    least = min(run[1] for run in runs)
    slack = _sse_rounding(least, math.fsum(map(operator.mul, scaled, scaled)))
    converged, sse, (c, eta, d, mu), iterations = next(
        run for run in runs if run[1] <= least + slack
    )
    rmse, r_squared = _goodness(scaled, sse)
    rmse = math.ldexp(rmse, e)
    params = (_scaled_back("c", c, e), eta, _scaled_back("d", d, e), mu)
    report = FitReport("II", params, rmse, r_squared, iterations, converged)
    if not converged:
        raise NoConvergence(
            f"Model II fit did not converge (best rmse={rmse})", report=report
        )
    return report


def _scaled_back(name, amplitude, e):
    """A Model II amplitude times 2**e, or an OverflowError that names it."""
    try:
        return math.ldexp(amplitude, e)
    except OverflowError:
        raise OverflowError(f"Model II amplitude {name} exceeds the double range") from None


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
        try:
            power = beta ** (-eta)
        except OverflowError:
            raise OverflowError(
                f"Model II term beta**(-eta) exceeds the double range at beta={beta}"
            ) from None
        try:
            decay = math.exp(-mu * beta)
        except OverflowError:
            raise OverflowError(
                f"Model II term exp(-mu*beta) exceeds the double range at beta={beta}"
            ) from None
        return c * power + d * decay
    raise DomainError(f"unknown model kind {report.model_kind!r}")
