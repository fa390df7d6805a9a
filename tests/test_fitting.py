import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from tsqueue import fitting, solver, zeta
from tsqueue.distribution import QueueModel, _zeta_shift, mean
from tsqueue.errors import DomainError, NoConvergence, SingularFit
from tsqueue.fitting import (
    FitReport,
    evaluate_fit,
    fit_model_i,
    fit_model_ii,
    generate_correspondence,
)
from tsqueue.norros import norros_mean
from tsqueue.solver import solve_beta
from tsqueue.zeta import _exp

import oracles

GENERATE_CSV = Path(__file__).parent / "golden" / "generate.csv"
# Model II's own law with 1% multiplicative noise, 36 points: file 143 of the
# benchmark's fits workload at seed 215.
NOISY_MODEL_II_CSV = Path(__file__).parent / "model_ii_noisy.csv"
FIGURE_Q = (0.6, 0.7, 0.75, 0.8, 0.9, 0.95)  # every q of the default figures


def columns(records):
    """The beta and rho columns of correspondence records."""
    return [r.beta for r in records], [r.rho for r in records]


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


def model_ii_rmse(params, beta, rho):
    c, eta, d, mu = params
    predicted = c * beta ** (-eta) + d * np.exp(-mu * beta)
    return math.sqrt(np.mean((rho - predicted) ** 2))


def projected_params(log_eta, log_mu, beta, rho):
    """(c, eta, d, mu) with (c, d) the least-squares amplitudes at the rates."""
    eta, mu = math.exp(log_eta), math.exp(log_mu)
    basis = np.column_stack([beta ** (-eta), np.exp(-mu * beta)])
    (c, d), *_ = np.linalg.lstsq(basis, rho, rcond=None)
    return c, eta, d, mu


class TestGenerateCorrespondence:
    def test_points_beyond_the_doubles_of_the_range_are_refused(self):
        top = 1.0 + 4 * 2.0**-52  # the fifth double from 1.0
        with pytest.raises(DomainError, match="exceeds the 5 doubles"):
            generate_correspondence(0.75, 1.0, top, 6)
        with pytest.raises(DomainError, match="exceeds the 44867111287678567 doubles"):
            generate_correspondence(0.75, 0.1, 100.0, 10**20)

    def test_points_above_the_maximum_are_refused(self):
        with pytest.raises(DomainError, match="points=1000001 exceeds the maximum of 1000000"):
            generate_correspondence(0.75, 0.1, 100.0, 10**6 + 1)

    @pytest.mark.parametrize("q", [0.6, 0.7, 0.8, 0.9, 0.95])
    def test_grid_solves_from_hermite_starts(self, q):
        # Started cold from ln(1 + 1/A), the 50 solves took 225-280 passes;
        # each from the previous beta, 176-184; from Hermite starts with
        # Newton steps and a confirming pass, 114-124; with a certified
        # Halley step from the start's pass, 53-55.
        zeta.excess_sums.cache_clear()
        records = generate_correspondence(q)
        assert zeta.excess_sums.cache_info().misses <= 60
        if q == 0.6:
            for r in records:
                assert abs(oracles.law_moments(q, r.beta)[0] - r.mean) <= 1e-10 * r.mean

    def test_every_grid_solve_ends_on_a_cached_pass(self, monkeypatch):
        # A solve that ends on an evaluated beta returns the beta of its last
        # pass, so the pass that figures 3 and 5 read there costs nothing.
        # One that ends on a certified Halley step (residual nan) has read no
        # pass at its beta: those figures pay one there.
        misses = {True: [], False: []}

        def solve_and_count(q, A, *knobs):
            found = solver._solve(q, A, *knobs)
            before = zeta.excess_sums.cache_info().misses
            zeta.excess_sums(1.0 / (1.0 - q), _zeta_shift(q, found[0]), q)
            misses[math.isnan(found[2])].append(zeta.excess_sums.cache_info().misses - before)
            return found

        monkeypatch.setattr(fitting, "_solve", solve_and_count)
        for q in FIGURE_Q:
            zeta.excess_sums.cache_clear()
            generate_correspondence(q)
        certified, evaluated = misses[True], misses[False]
        assert len(certified) + len(evaluated) == 50 * len(FIGURE_Q)
        assert evaluated == [0] * len(evaluated)
        assert certified == [1] * len(certified)
        assert len(certified) >= 280  # 289 of the 300

    def test_grid_slopes_are_those_of_the_returned_pass(self, monkeypatch):
        # The slope each Hermite start reads is the loop's own: _log_slope of
        # the pass at the returned beta where the solve ended on one, and
        # f' + f'' d from the step's pass where it ended on a certified step,
        # which differs from the pass's there by O(d**2).
        slopes = {True: [], False: []}

        def solve_and_keep(q, A, *knobs):
            found = solver._solve(q, A, *knobs)
            s = 1.0 / (1.0 - q)
            e0, e1, _, g1, h2 = zeta.excess_sums(s, _zeta_shift(q, found[0]), q)
            slopes[math.isnan(found[2])].append((found[4], solver._log_slope(s, e0, e1, g1, h2)))
            return found

        monkeypatch.setattr(fitting, "_solve", solve_and_keep)
        for q in FIGURE_Q:
            generate_correspondence(q)
        assert len(slopes[True]) + len(slopes[False]) == 50 * len(FIGURE_Q)
        assert all(repr(got) == repr(read) for got, read in slopes[False])
        assert all(abs(got - read) <= 1e-12 * read for got, read in slopes[True])

    def test_certified_betas_are_those_of_the_evaluated_loop(self, monkeypatch):
        # From the same start, the loop without certificates takes the same
        # Halley step, then confirms it with a pass and may step again on
        # that pass's rounding: both answers lie at the rounding floor, where
        # the mean's last bits move beta by a few ulps.  Of the 289 certified
        # betas, 243 agree to 1 ulp, 269 to 2 and all to 5.
        ulps = []

        def solve_both(q, A, beta0, certify):
            found = solver._solve(q, A, beta0, certify)
            if math.isnan(found[2]):
                evaluated = solver._solve(q, A, beta0)[0]
                ulps.append(abs(found[0] - evaluated) / math.ulp(evaluated))
            return found

        monkeypatch.setattr(fitting, "_solve", solve_both)
        for q in FIGURE_Q:
            generate_correspondence(q)
        assert len(ulps) >= 280
        assert max(ulps) <= 8
        assert sum(u <= 2 for u in ulps) >= 0.9 * len(ulps)

    @pytest.mark.parametrize("q", ["0.7", np.float64(0.7)], ids=["str", "numpy"])
    def test_q_is_taken_as_its_float(self, q):
        # solve_beta and QueueModel read q through float(), and so does the
        # grid's check; the Hurst parameter and the records read the raw q,
        # so "0.7" raised TypeError and np.float64(0.7) reached every record.
        records = generate_correspondence(q, points=3)
        assert records == generate_correspondence(0.7, points=3)
        assert all(type(r.q) is float for r in records)

    def test_no_solve_falls_back(self, monkeypatch):
        # Neither the default grids' solves nor 2,000 cold solves over the
        # queries domain of the benchmark (1 - q log-uniform in [1e-6, 0.45],
        # A in [1e-2, 1e4]) need the bracket.
        fallbacks = []

        def solve_and_keep(q, A, *knobs):
            found = solver._solve(q, A, *knobs)
            fallbacks.append(found[3])
            return found

        monkeypatch.setattr(fitting, "_solve", solve_and_keep)
        for q in FIGURE_Q:
            generate_correspondence(q)
        rng = random.Random(20261020)
        for _ in range(2000):
            q = 1.0 - math.exp(rng.uniform(math.log(1e-6), math.log(0.45)))
            A = math.exp(rng.uniform(math.log(1e-2), math.log(1e4)))
            fallbacks.append(solve_beta(q, A).fallback_used)
        assert len(fallbacks) == 50 * len(FIGURE_Q) + 2000
        assert not any(fallbacks)

    @pytest.mark.parametrize("q", [0.5000001, 0.51, 0.99, 0.999999])
    def test_coarse_and_extreme_grids(self, q):
        # Hermite starts over grids from 3 points in 14 decades to 5 points
        # in a ten-thousandth, and where d ln mean / d ln c is 1 (means above
        # about 1e170): every record meets the solver's target, and no grid
        # takes more fresh passes than starts from the previous beta.
        grids = [(1e-6, 1e8, 3), (1e-6, 1e8, 7), (1e-3, 1e6, 200), (1.0, 1.0001, 5),
                 (1e178, 1e187, 50)]
        for grid in grids:
            zeta.excess_sums.cache_clear()
            records = generate_correspondence(q, *grid)
            hermite = zeta.excess_sums.cache_info().misses
            for r in records:
                assert abs(mean(QueueModel(q, r.beta)) - r.mean) <= 1e-10 * r.mean
            zeta.excess_sums.cache_clear()
            beta = None
            for target in fitting._mean_grid(*grid):
                beta = solve_beta(q, target, beta0=beta).beta
            assert hermite <= zeta.excess_sums.cache_info().misses, grid

    @pytest.mark.parametrize("q,grid", [
        (0.75, (1e-200, 1e200, 5)), (0.9, (1e-100, 1e150, 4)), (0.5000001, (1e-295, 1e293, 7)),
    ])
    def test_starts_stay_between_the_tangent_and_the_grid_step(self, q, grid):
        # Over steps of 83 to 100 decades an unbounded extrapolation left
        # the double range (a beta0 of 0.0, or exp2 overflowing).
        records = generate_correspondence(q, *grid)
        assert all(x.beta > y.beta for x, y in zip(records, records[1:]))
        for r in records:
            assert abs(mean(QueueModel(q, r.beta)) - r.mean) <= 1e-10 * r.mean

    def test_mean_grid_is_lazy(self):
        grid = fitting._mean_grid(0.1, 100.0, 10**20)
        assert (next(grid), next(grid)) == (0.1, math.pow(10.0, -1.0 + 3.0 / (10**20 - 1)))

    def test_monotone_and_certified(self):
        records = generate_correspondence(0.75, 0.1, 50.0, 25)
        rhos = [r.rho for r in records]
        betas = [r.beta for r in records]
        means = [r.mean for r in records]
        assert means == sorted(means)
        assert all(x < y for x, y in zip(rhos, rhos[1:]))
        assert all(x > y for x, y in zip(betas, betas[1:]))
        for r in records:
            bound = 1e-8 * max(1.0, r.mean)
            assert abs(mean(QueueModel(r.q, r.beta)) - r.mean) <= bound
            assert abs(norros_mean(r.rho, 1.5 - r.q) - r.mean) <= bound

    def test_grid_containing_mean_two(self):
        records = generate_correspondence(0.75, 2.0, 8.0, 5)
        first = records[0]
        assert first.mean == 2.0
        assert first.rho == pytest.approx(0.5, abs=1e-10)
        assert first.beta == pytest.approx(solve_beta(0.75, 2.0).beta, rel=1e-12)

    def test_near_boundary_exponential_law(self):
        records = generate_correspondence(0.999, 0.1, 100.0, 20)
        for r in records:
            assert rel(r.rho, math.exp(-r.beta)) <= 0.02

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            generate_correspondence(0.4, 0.1, 100.0, 10)
        with pytest.raises(DomainError):
            generate_correspondence(0.75, 5.0, 1.0, 10)
        with pytest.raises(DomainError):
            generate_correspondence(0.75, 0.1, 100.0, 1)

    @pytest.mark.parametrize("points", [2.9, 3.0, "3", None])
    def test_non_integer_points_rejected(self, points):
        with pytest.raises(DomainError, match=f"points must be an integer, got {points!r}"):
            generate_correspondence(0.75, 0.1, 100.0, points)

    def test_solver_failure_names_the_mean(self):
        # The target tol * 1e-319 underflows to 0, and no double beta gives
        # a mean of exactly 1e-319.
        with pytest.raises(NoConvergence) as info:
            generate_correspondence(0.6, 1e-319, 1e-300, 2)
        cause = info.value.__cause__
        assert isinstance(cause, NoConvergence)
        assert str(cause) == ("bisection stalled at beta=1.461760534037145e+128 "
                              "with residual 7e-323")
        assert str(info.value) == f"beta solve failed at mean=1e-319: {cause}"
        assert (info.value.beta, info.value.residual, info.value.iterations) == (
            cause.beta, cause.residual, cause.iterations)
        assert cause.iterations == 46

    def test_integer_like_points_accepted(self):
        records = generate_correspondence(0.75, 0.1, 100.0, np.int64(3))
        assert [r.mean for r in records] == [
            r.mean for r in generate_correspondence(0.75, 0.1, 100.0, 3)]


class TestModelI:
    def test_exact_recovery(self):
        beta = np.linspace(0.1, 5.0, 25)
        rho = 0.2 + 0.5 * np.exp(-beta)
        report = fit_model_i(beta, rho)
        a, b = report.params
        assert abs(a - 0.2) <= 1e-12
        assert abs(b - 0.5) <= 1e-12
        assert report.rmse < 1e-12
        assert report.converged

    def test_two_point_system_with_duplicate(self):
        beta, rho = [0.0, math.log(2.0), math.log(2.0)], [1.0, 0.6, 0.6]
        report = fit_model_i(beta, rho)
        a, b = report.params
        assert a == pytest.approx(0.2, abs=1e-12)
        assert b == pytest.approx(0.8, abs=1e-12)

    def test_better_relative_fit_at_low_beta(self):
        # the modified exponential tracks the near-geometric low-beta
        # regime; in relative terms its residuals are smaller there
        records = generate_correspondence(0.9)
        report = fit_model_i(*columns(records))
        betas = np.array([r.beta for r in records])
        rhos = np.array([r.rho for r in records])
        predicted = np.array([evaluate_fit(report, b) for b in betas])
        relative = (rhos - predicted) / rhos
        low = betas <= np.median(betas)
        rmse_low = math.sqrt(np.mean(relative[low] ** 2))
        rmse_high = math.sqrt(np.mean(relative[~low] ** 2))
        assert rmse_low < rmse_high

    @pytest.mark.parametrize("b0", [360.0, 400.0])
    def test_regressor_whose_spread_underflows_unscaled(self, b0):
        # exp(-beta) near 1e-157 and 1e-174: the squared deviations of x
        # lose bits (b0 = 360) or underflow to 0 (b0 = 400) unless x is scaled.
        beta = [b0 + 0.5 * i for i in range(20)]
        rho = [0.2 + 0.3 * math.exp(b0 - b) for b in beta]
        a, b = fit_model_i(beta, rho).params
        assert a == pytest.approx(0.2, rel=1e-13)
        assert b == pytest.approx(0.3 * math.exp(b0), rel=1e-13)

    def test_slope_beyond_the_double_range(self):
        # Subnormal regressors exp(-beta) of rho = 0.2 + 0.3 exp(720 - beta):
        # b = 0.3 e**720 is no double.
        beta = [720.0 + 0.5 * i for i in range(20)]
        rho = [0.2 + 0.3 * math.exp(720.0 - b) for b in beta]
        with pytest.raises(OverflowError, match="slope b exceeds the double range"):
            fit_model_i(beta, rho)

    def test_singular_data(self):
        with pytest.raises(SingularFit):
            fit_model_i([1.0, 1.0, 1.0], [0.3, 0.4, 0.5])

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_model_i([0.1, 1.0], [0.9, 0.4])

    @pytest.mark.parametrize("source", ["synthetic", "generated"])
    def test_local_minimum(self, source):
        if source == "synthetic":
            beta = np.linspace(0.1, 5.0, 25)
            rho = 0.2 + 0.5 * np.exp(-beta) + 0.01 * np.sin(beta)
        else:
            records = generate_correspondence(0.7)
            beta = np.array([r.beta for r in records])
            rho = np.array([r.rho for r in records])
        report = fit_model_i(beta, rho)
        a, b = report.params

        def rmse_of(a_, b_):
            return math.sqrt(np.mean((rho - a_ - b_ * np.exp(-beta)) ** 2))

        base = rmse_of(a, b)
        for sign in (+1.0, -1.0):
            assert rmse_of(a * (1.0 + 0.01 * sign), b) > base
            assert rmse_of(a, b * (1.0 + 0.01 * sign)) > base


class TestModelII:
    def test_exact_recovery(self):
        beta = np.geomspace(0.05, 10.0, 50)
        rho = 0.1 * beta**-1.5 + 0.6 * np.exp(-2.0 * beta)
        report = fit_model_ii(beta, rho)
        assert report.converged
        for got, want in zip(report.params, (0.1, 1.5, 0.6, 2.0)):
            assert abs(got - want) <= 1e-6
        assert report.rmse < 1e-10

    def test_positivity_constraints(self):
        records = generate_correspondence(0.7)
        report = fit_model_ii(*columns(records))
        _, eta, _, mu = report.params
        assert eta > 0.0
        assert mu > 0.0

    @pytest.mark.parametrize("q", [0.6, 0.8])
    def test_beats_model_i_on_generated_data(self, q):
        records = generate_correspondence(q)
        beta, rho = columns(records)
        assert fit_model_ii(beta, rho).rmse <= fit_model_i(beta, rho).rmse

    def test_pure_exponential_truth(self):
        beta = np.geomspace(0.05, 10.0, 50)
        rho = 0.6 * np.exp(-2.0 * beta)
        report = fit_model_ii(beta, rho)
        c, eta, _, _ = report.params
        power_mass = float(np.sum(np.abs(c * beta**-eta)))
        assert power_mass < 0.01 * float(np.sum(rho))

    @pytest.mark.parametrize("q", [0.6, 0.9])
    def test_local_minimum_on_generated_data(self, q):
        records = generate_correspondence(q)
        beta = np.array([r.beta for r in records])
        rho = np.array([r.rho for r in records])
        report = fit_model_ii(beta, rho)
        base = model_ii_rmse(report.params, beta, rho)
        for index in range(4):
            for sign in (+1.0, -1.0):
                perturbed = list(report.params)
                perturbed[index] *= 1.0 + 0.01 * sign
                assert model_ii_rmse(perturbed, beta, rho) > base

    @pytest.mark.parametrize("q", [0.6, 0.9])
    def test_stops_at_the_minimizer(self, q):
        # The damped steps stopped up to 1.2e-8 (q = 0.6) and 2.9e-10 (q = 0.9)
        # from the minimizer, and by other amounts under other numpy kernels.
        records = generate_correspondence(q)
        report = fit_model_ii(*columns(records))
        _, eta, _, mu = report.params
        exact = oracles.model_ii_minimizer(*columns(records), eta, mu)
        for got, want in zip(report.params, exact):
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_local_minimum_on_synthetic_data(self):
        beta = np.geomspace(0.05, 10.0, 50)
        rho = 0.1 * beta**-1.5 + 0.6 * np.exp(-2.0 * beta)
        report = fit_model_ii(beta, rho)
        base = model_ii_rmse(report.params, beta, rho)
        for index in range(4):
            for sign in (+1.0, -1.0):
                perturbed = list(report.params)
                perturbed[index] *= 1.0 + 0.01 * sign
                assert model_ii_rmse(perturbed, beta, rho) > base

    def test_budget_exit_reports_the_last_accepted_step(self, monkeypatch):
        # One iteration, whose step is taken: the run must end at that step's
        # point and SSE, not at the start's.
        beta = 0.05 * 1.1 ** np.arange(60)
        rho = 0.1 * beta**-0.3 + 0.6 * np.exp(-1.5 * beta)
        start = fitting._model_ii_starts(list(beta), list(rho))[0]
        monkeypatch.setattr(fitting, "_MAX_GN_ITER", 1)
        [run] = fitting._variable_projection([start], beta, rho)
        converged, sse, params, iterations = run
        assert (converged, iterations) == (False, 1)
        rmse = model_ii_rmse(params, beta, rho)
        assert math.sqrt(sse / len(beta)) == pytest.approx(rmse, rel=1e-9)
        # (c, d) are the least-squares amplitudes at the step's rates
        _, eta, _, mu = params
        projected = projected_params(math.log(eta), math.log(mu), beta, rho)
        assert rmse == pytest.approx(model_ii_rmse(projected, beta, rho), rel=1e-9)
        assert rmse < model_ii_rmse(projected_params(*start, beta, rho), beta, rho)

    def test_budget_exhausted_raises_with_its_report(self, monkeypatch):
        rows = GENERATE_CSV.read_text().splitlines()[1:]  # mean,beta,rho,q
        beta, rho = zip(*(map(float, row.split(",")[1:3]) for row in rows))
        monkeypatch.setattr(fitting, "_MAX_GN_ITER", 1)
        with pytest.raises(NoConvergence, match=r"^Model II fit did not converge") as info:
            fit_model_ii(beta, rho)
        assert info.value.report.converged is False

    def test_non_finite_start_is_rejected_at_once(self):
        # beta**-eta = 0.5**-2000 overflows: the start's SSE is nan.
        start = (math.log(2000.0), 0.0)
        beta, rho = [0.5, 1.0, 2.0, 4.0, 8.0], [0.5, 0.4, 0.3, 0.2, 0.1]
        [run] = fitting._variable_projection([start], beta, rho)
        converged, sse, (_, eta, _, mu), iterations = run
        assert (converged, sse, iterations) == (False, math.inf, 1)
        assert (eta, mu) == (_exp(start[0]), 1.0)

    def test_runs_share_no_state(self):
        # The runs of one fit share their buffers: a run from each start, in
        # every order, is the run made alone.
        rows = GENERATE_CSV.read_text().splitlines()[1:]  # mean,beta,rho,q
        beta, rho = zip(*(map(float, row.split(",")[1:3]) for row in rows))
        starts = fitting._model_ii_starts(beta, rho)
        alone = {start: repr(fitting._variable_projection([start], beta, rho))
                 for start in starts}
        for order in itertools.permutations(starts):
            runs = fitting._variable_projection(order, beta, rho)
            assert [repr([run]) for run in runs] == [alone[start] for start in order]

    def test_a_rejected_start_leaves_the_next_run_alone(self):
        # The data of test_non_finite_start_is_rejected_at_once: its start
        # returns at once, with the tables part written.
        beta, rho = [0.5, 1.0, 2.0, 4.0, 8.0], [0.5, 0.4, 0.3, 0.2, 0.1]
        start = fitting._model_ii_starts(beta, rho)[0]
        rejected, after = fitting._variable_projection([(math.log(2000.0), 0.0), start],
                                                       beta, rho)
        assert rejected[1] == math.inf
        assert repr(after) == repr(fitting._variable_projection([start], beta, rho)[0])

    def test_fits_in_turn_do_not_meet(self):
        # Data A, then B of another length, then A again: the first report.
        a = columns(generate_correspondence(0.7))
        b = columns(generate_correspondence(0.9, points=31))
        first = repr(fit_model_ii(*a))
        fit_model_ii(*b)
        assert repr(fit_model_ii(*a)) == first

    def test_overflowing_jacobian_warns_nothing(self):
        # At rho ~ 1e160 the start's SSE is finite, but the Jacobian's sums
        # of squares overflow and its reduced form holds nan: every step is
        # rejected, and with warnings as errors nothing raises.
        start = (math.log(0.4), 0.0)
        beta = [1.5 + 0.1 * i for i in range(20)]
        rho = [1e160 * 0.3 * b**-0.4 for b in beta]
        [run] = fitting._variable_projection([start], beta, rho)
        converged, sse, (_, eta, _, mu), _ = run
        assert converged is False
        assert (eta, mu) == (_exp(start[0]), 1.0)
        assert math.isfinite(sse)  # its last bits depend on the host's numpy

    def test_noisy_own_law_converges(self):
        # The best fit of this noisy sample all but drops the power term
        # (c ~ 1e-12, eta ~ 7.8), at the end of a long, flat valley.
        rows = NOISY_MODEL_II_CSV.read_text().splitlines()[1:]  # beta,rho
        report = fit_model_ii(*zip(*(map(float, row.split(",")) for row in rows)))
        assert report.converged
        assert report.rmse < 0.004335

    def test_rescaled_rho_rescales_only_c_and_d(self):
        # The loop fits rho scaled into [0.5, 1) by a power of two, and its
        # stopping tests and damping floor are relative to the scale of rho,
        # so a fit of k * rho stops where a fit of rho does, even where the
        # SSE of k * rho itself would overflow or underflow.
        beta = np.geomspace(0.02, 2.0, 60)
        rho = 0.08 * beta**-0.2 + 0.6 * np.exp(-1.8 * beta)
        c, eta, d, mu = fit_model_ii(beta, rho).params
        for k in (1e-300, 1e-100, 1e-6, 1e6, 1e100, 1e160, 1e300):
            report = fit_model_ii(beta, k * rho)
            assert report.converged
            expected = (k * c, eta, k * d, mu)
            assert report.params == pytest.approx(expected, rel=1e-8)

    def test_amplitude_beyond_the_double_range_is_named(self):
        # The loop fits rho / 2**1024; c scaled back overflows.
        beta = [0.1, 0.2, 0.3, 0.4, 0.5]
        rho = [1.7e308, 1.6e308, 1.5e308, 1.4e308, 1.3e308]
        message = "Model II amplitude c exceeds the double range"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            fit_model_ii(beta, rho)

    def test_rejects_nonpositive_beta(self):
        beta = np.linspace(0.0, 4.0, 9)
        rho = np.exp(-beta)
        with pytest.raises(DomainError):
            fit_model_ii(beta, rho)

    def test_singular_data(self):
        with pytest.raises(SingularFit):
            fit_model_ii([2.0] * 6, [0.3] * 6)


class TestEvaluateFit:
    def test_model_i_at_zero(self):
        beta = np.linspace(0.0, 5.0, 20)
        rho = 0.2 + 0.5 * np.exp(-beta)
        report = fit_model_i(beta, rho)
        assert evaluate_fit(report, 0.0) == pytest.approx(0.7, abs=1e-10)

    def test_model_i_overflow_names_the_beta(self):
        report = fit_model_i([1, 2, 3], [0.4, 0.3, 0.25])
        message = "Model I regressor exp(-beta) exceeds the double range at beta=-800.0"
        with pytest.raises(OverflowError, match=re.escape(message)):
            evaluate_fit(report, -800)

    @pytest.mark.parametrize("params,beta,term", [
        ((0.1, 2.0, 0.5, 1.0), 1e-300, "beta**(-eta)"),
        ((0.1, 2.0, 0.5, -1.0), 800.0, "exp(-mu*beta)"),
    ])
    def test_model_ii_overflow_names_the_beta(self, params, beta, term):
        report = FitReport("II", params, 0.1, 0.9, 1, converged=True)
        message = f"Model II term {term} exceeds the double range at beta={beta!r}"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            evaluate_fit(report, beta)

    def test_model_ii_direct_arithmetic(self):
        beta = np.geomspace(0.05, 10.0, 50)
        rho = 0.1 * beta**-1.5 + 0.6 * np.exp(-2.0 * beta)
        report = fit_model_ii(beta, rho)
        expected = 0.1 + 0.6 * math.exp(-2.0)  # 0.18120...
        assert evaluate_fit(report, 1.0) == pytest.approx(expected, rel=1e-5)

    def test_rmse_self_consistency(self):
        records = generate_correspondence(0.8, points=30)
        beta, rho = columns(records)
        for report in (fit_model_i(beta, rho), fit_model_ii(beta, rho)):
            recomputed = math.sqrt(
                sum((r - evaluate_fit(report, b)) ** 2 for b, r in zip(beta, rho))
                / len(beta)
            )
            assert abs(recomputed - report.rmse) <= 1e-12

    def test_model_ii_rejects_nonpositive_beta(self):
        beta = np.geomspace(0.05, 10.0, 50)
        rho = 0.1 * beta**-1.5 + 0.6 * np.exp(-2.0 * beta)
        report = fit_model_ii(beta, rho)
        with pytest.raises(DomainError):
            evaluate_fit(report, 0.0)
        with pytest.raises(DomainError):
            evaluate_fit(report, -1.0)

    @pytest.mark.parametrize("report,beta,message", [
        (FitReport("I", (0.2, 0.5), 0.1, 0.9, 1, converged=False), 1.0,
         "cannot evaluate a fit that did not converge"),
        (FitReport("III", (0.2, 0.5), 0.1, 0.9, 1, converged=True), 1.0,
         "unknown model kind 'III'"),
        (FitReport("I", (0.2, 0.5), 0.1, 0.9, 1, converged=True), math.inf,
         "beta must be finite, got inf"),
        (FitReport("I", (0.2, 0.5), 0.1, 0.9, 1, converged=True), math.nan,
         "beta must be finite, got nan"),
    ])
    def test_rejects_what_it_cannot_evaluate(self, report, beta, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            evaluate_fit(report, beta)


@pytest.mark.parametrize("fit,min_points", [(fit_model_i, 3), (fit_model_ii, 5)],
                         ids=["I", "II"])
class TestColumns:
    BETA = [1, 2, 3, 4, 5, 6, 7, 8]
    RHO = [0.1 * b**-0.5 + 0.6 * math.exp(-1.5 * b) for b in BETA]

    def test_unequal_lengths_name_both(self, fit, min_points):
        message = "beta and rho must be equally long, got 8 and 7"
        with pytest.raises(DomainError, match=re.escape(message)):
            fit(self.BETA, self.RHO[:-1])

    def test_too_few_points(self, fit, min_points):
        message = f"need at least {min_points} data points, got {min_points - 1}"
        with pytest.raises(DomainError, match=re.escape(message)):
            fit(self.BETA[:min_points - 1], self.RHO[:min_points - 1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values(self, fit, min_points, bad):
        for beta, rho in ((self.BETA[:-1] + [bad], self.RHO),
                          (self.BETA, self.RHO[:-1] + [bad])):
            with pytest.raises(DomainError, match="^data contains non-finite values$"):
                fit(beta, rho)

    def test_numpy_arrays_and_ints_fit_as_floats(self, fit, min_points):
        expected = fit([float(b) for b in self.BETA], self.RHO)
        assert fit(self.BETA, self.RHO) == expected
        assert fit(np.array(self.BETA), np.array(self.RHO)) == expected


class TestModelOrderingAndShape:
    def test_near_boundary_exponential_shape(self):
        # at q = 0.95 the relationship is nearly exponential in beta;
        # at q = 0.6 the long power tail defeats the two-parameter form
        high_q = fit_model_i(*columns(generate_correspondence(0.95)))
        low_q = fit_model_i(*columns(generate_correspondence(0.6)))
        assert high_q.r_squared >= 0.99
        assert low_q.r_squared < high_q.r_squared
