import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsqueue.distribution import QueueModel, mean
from tsqueue.errors import DomainError, NoConvergence
from tsqueue.solver import newton_step, solve_beta

import oracles

Q_GRID = [0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95]
BETA_GRID = [0.1, 0.5, 1.0, 2.0, 5.0]


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


class TestNewtonStep:
    def test_vanishes_at_root(self):
        target = mean(QueueModel(0.75, 1.0))
        assert abs(newton_step(0.75, 1.0, target)) <= 1e-10

    # The closed-form step is the Newton increment of the raw constraint
    # objective (the unnormalized series form), so finite differences must
    # be taken on that same objective; see notes in oracles.constraint_objective.
    @pytest.mark.parametrize(
        "q,beta,A",
        [
            (0.75, 2.0, oracles.MEAN_075_1),
            (0.9, 0.5, 5.0),
            (0.6, 1.5, 2.0),
            (0.8, 0.3, 0.7),
        ],
    )
    def test_matches_finite_difference(self, q, beta, A):
        step = newton_step(q, beta, A)
        h = 1e-6 * beta
        derivative = oracles.central_difference(
            lambda b: oracles.constraint_objective(q, b, A), beta, h
        )
        expected = -oracles.constraint_objective(q, beta, A) / derivative
        assert rel(step, expected) <= 1e-6

    @pytest.mark.parametrize("q,beta,A", [(0.8, 2.0, 1.0), (0.9, 1.5, 0.5)])
    def test_matches_series_finite_difference(self, q, beta, A):
        # fully independent oracle: the truncated series itself (fast
        # convergence needs s >= 5, i.e. q >= 0.8)
        step = newton_step(q, beta, A)
        h = 1e-5 * beta
        derivative = oracles.central_difference(
            lambda b: oracles.constraint_objective_series(q, b, A), beta, h
        )
        expected = -oracles.constraint_objective_series(q, beta, A) / derivative
        assert rel(step, expected) <= 1e-5


class TestSolveBeta:
    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_round_trip(self, q, beta):
        target = mean(QueueModel(q, beta))
        result = solve_beta(q, target)
        assert rel(result.beta, beta) <= 1e-8
        assert result.residual <= 1e-10 * max(1.0, target)

    def test_near_boundary_geometric_guess(self):
        result = solve_beta(0.999, 1.0)
        assert rel(result.beta, math.log(2.0)) <= 0.02

    def test_deterministic(self):
        target = mean(QueueModel(0.75, 1.0))
        first = solve_beta(0.75, target)
        second = solve_beta(0.75, target)
        assert first == second

    def test_newton_answer_kept_when_halving_gives_out(self):
        # Newton meets the residual target here; halving then cannot improve
        # on it, which must end the solve rather than restart it.
        A = 86.85113737513525
        result = solve_beta(0.9, A)
        assert not result.fallback_used
        assert result.iterations <= 12
        assert result.residual <= 1e-10 * A

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.floats(min_value=math.log(1e-4), max_value=math.log(0.45)),
        st.floats(min_value=math.log(1e-2), max_value=math.log(1e4)),
    )
    def test_newton_alone_off_the_corner(self, log_one_minus_q, log_A):
        q, A = 1.0 - math.exp(log_one_minus_q), math.exp(log_A)
        result = solve_beta(q, A)
        assert result.residual <= 1e-10 * max(1.0, A)
        assert result.iterations <= 15
        assert not result.fallback_used

    def test_fallback_reaches_same_root(self):
        target = mean(QueueModel(0.75, 1.0))
        forced = solve_beta(0.75, target, beta0=1e6)
        assert forced.fallback_used
        assert rel(forced.beta, 1.0) <= 1e-8

    def test_no_convergence_reports_iterate(self):
        target = mean(QueueModel(0.75, 1.0))
        with pytest.raises(NoConvergence) as info:
            solve_beta(0.75, target, beta0=1.2, max_iter=1)
        assert info.value.beta is not None
        assert info.value.iterations == 1

    def test_subnormal_beta_is_a_domain_error(self):
        with pytest.raises(DomainError, match="zeta shift"):
            solve_beta(0.75, 2.0, beta0=5e-324)
        with pytest.raises(DomainError, match="zeta shift"):
            newton_step(0.75, 1e-308, 2.0)

    def test_rejects_bad_targets(self):
        for q, A in [(0.75, -1.0), (0.75, 0.0), (1.1, 1.0), (0.4, 1.0)]:
            with pytest.raises(DomainError):
                solve_beta(q, A)


class TestSolverConfig:
    def test_validation(self):
        # The knobs are checked before the target: q = 1.1 is never reached.
        with pytest.raises(DomainError, match="tol must be positive"):
            solve_beta(1.1, 1.0, tol=0.0)
        with pytest.raises(DomainError, match="max_iter must be >= 1"):
            solve_beta(1.1, 1.0, max_iter=0)
        with pytest.raises(DomainError, match="beta0 must be positive"):
            solve_beta(1.1, 1.0, beta0=-1.0)

    def test_defaults(self):
        knobs = inspect.signature(solve_beta).parameters
        assert all(knobs[name].kind is inspect.Parameter.KEYWORD_ONLY
                   for name in ("beta0", "tol", "max_iter"))
        assert knobs["tol"].default == 1e-10
        assert knobs["max_iter"].default == 100
        assert knobs["beta0"].default is None
