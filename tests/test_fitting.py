import math
import re
from pathlib import Path

import numpy as np
import pytest

from tsqueue import fitting
from tsqueue.distribution import QueueModel, mean
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


GENERATE_CSV = Path(__file__).parent / "golden" / "generate.csv"
# Model II's own law with 1% multiplicative noise, 36 points: file 143 of the
# benchmark's fits workload at seed 215.
NOISY_MODEL_II_CSV = Path(__file__).parent / "model_ii_noisy.csv"


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
        run = fitting._variable_projection(start, beta, rho)
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
        run = fitting._variable_projection(start, beta, rho)
        converged, sse, (_, eta, _, mu), iterations = run
        assert (converged, sse, iterations) == (False, math.inf, 1)
        assert (eta, mu) == (math.exp(start[0]), 1.0)

    def test_overflowing_jacobian_warns_nothing(self):
        # At rho ~ 1e160 the start's SSE is finite, but the Jacobian's sums
        # of squares overflow and its reduced form holds nan: every step is
        # rejected, and with warnings as errors nothing raises.
        start = (math.log(0.4), 0.0)
        beta = [1.5 + 0.1 * i for i in range(20)]
        rho = [1e160 * 0.3 * b**-0.4 for b in beta]
        run = fitting._variable_projection(start, beta, rho)
        converged, sse, (_, eta, _, mu), _ = run
        assert converged is False
        assert (eta, mu) == (math.exp(start[0]), 1.0)
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
