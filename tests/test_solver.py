import inspect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsqueue import solver, zeta
from tsqueue.distribution import QueueModel, mean
from tsqueue.errors import DomainError, NoConvergence
from tsqueue.solver import SolverResult, newton_step, solve_beta

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

    def test_no_finite_step_is_infinite(self):
        # At beta = 1e100 every term underflows: the denominator is 0.
        assert newton_step(0.75, 1e100, 2.0) == math.inf

    @pytest.mark.parametrize("q,beta,A", [
        (0.75, 1e6, 2.0),
        (0.9611160974344577, 73.93944405090407, 12.94402750144653),
        (0.9875848085721343, 35.16524445083622, 0.7622031773302462),
        (0.9758975933309318, 71.7856506320362, 1.4030073250196875),
    ])
    def test_matches_mpmath_where_the_sums_are_near_one(self, q, beta, A):
        # S(s-1), S(s) and S(s+1) are near 1 here: a step formed from those
        # sums cancels (to inf at the first and last point).
        assert rel(newton_step(q, beta, A), oracles.newton_step(q, beta, A)) <= 1e-14


class TestSolveBeta:
    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_round_trip(self, q, beta):
        target = mean(QueueModel(q, beta))
        result = solve_beta(q, target)
        assert rel(result.beta, beta) <= 1e-8
        assert result.residual <= 1e-10 * target

    def test_near_boundary_geometric_guess(self):
        result = solve_beta(0.999, 1.0)
        assert rel(result.beta, math.log(2.0)) <= 0.02

    def test_deterministic(self):
        target = mean(QueueModel(0.75, 1.0))
        first = solve_beta(0.75, target)
        second = solve_beta(0.75, target)
        assert first == second

    def test_newton_answer_kept_when_halving_gives_out(self):
        # Newton meets the residual target here, and its next step moves
        # nothing: that ends the solve, not the bracket.
        A = 86.85113737513525
        result = solve_beta(0.9, A)
        assert not result.fallback_used
        assert result.iterations <= 12
        assert result.residual <= 1e-10 * A

    def test_stops_where_the_next_step_is_rounding(self):
        # From the Hermite start of the default q = 0.75 grid's last mean, the
        # first Newton step lands at the root, and the next is at most 2**-52
        # in ln beta: beta moves by rounding alone, so the solve stops after
        # two passes.  Stopping only where a step moved nothing, it took a
        # third, to 0.019851484232531812.
        zeta.excess_sums.cache_clear()
        result = solve_beta(0.75, 100.0, beta0=0.01985148427312376)
        assert zeta.excess_sums.cache_info().misses == 2
        assert result == SolverResult(beta=0.01985148423253181, iterations=2,
                                      residual=1.4210854715202004e-14, fallback_used=False)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.floats(min_value=math.log(1e-4), max_value=math.log(0.45)),
        st.floats(min_value=math.log(1e-2), max_value=math.log(1e4)),
    )
    def test_newton_alone_off_the_corner(self, log_one_minus_q, log_A):
        q, A = 1.0 - math.exp(log_one_minus_q), math.exp(log_A)
        result = solve_beta(q, A)
        assert result.residual <= 1e-10 * A
        assert result.iterations <= 15
        assert not result.fallback_used

    def test_fallback_reaches_same_root(self):
        # At beta = 727 on the way from beta0 the sums are subnormal and the
        # pass gives no Newton step: the solve halves the bracket's closed end.
        q, A = 0.9999999809743807, 2.416879911419902e-156
        forced = solve_beta(q, A, beta0=4.8226660066928306e101)
        direct = solve_beta(q, A)
        assert forced.fallback_used and not direct.fallback_used
        assert rel(forced.beta, direct.beta) <= 1e-8

    def test_degenerate_first_step_goes_to_the_bracket(self):
        # Every term underflows from beta0 down to beta = 1573, so each step
        # there is taken on the first term; at beta = 727 the slope reads
        # negative in subnormal sums, and the solve takes hi/2 once.  (With
        # Newton steps alone: 17 iterations, to 358.32201848005184.)
        assert solve_beta(0.9999999809743807, 2.416879911419902e-156,
                          beta0=4.8226660066928306e101) == SolverResult(
            beta=358.32201848005195, iterations=16, residual=1.4853006254467583e-169,
            fallback_used=True)

    # From each start every term underflows, or (the last) the first step
    # passes 700 in ln beta.  Bisecting instead, the solve halves or doubles
    # the bracket's closed end once per iteration: 15 and 68 iterations for
    # the first two starts, more than 100 for the other three.  Newton steps
    # alone, without Halley's near the root, took 12, 7, 3, 9 and 3.
    @pytest.mark.parametrize("q,A,beta0,iterations", [
        (0.999, 2.0, 1e4, 9),
        (0.75, 2.0, 1e100, 5),
        (0.6, 1e-300, 1e300, 3),
        (0.99, 50.0, 1e200, 8),
        (0.5970733123689003, 8.605769467536962e-142, 7.137516591517388e-243, 3),  # clamped
    ])
    def test_newton_from_an_open_bracket_end(self, q, A, beta0, iterations):
        result = solve_beta(q, A, beta0=beta0)
        assert not result.fallback_used
        assert result.iterations == iterations
        assert result.residual <= 1e-10 * A
        assert rel(result.beta, solve_beta(q, A).beta) <= 1e-8

    def test_bisection_stall_is_reported(self):
        # No double beta meets a target below the mean's resolution: Newton
        # brackets the root between two adjacent doubles, its next step moves
        # nothing, and no bisection point lies strictly inside the bracket.
        message = ("bisection stalled at beta=0.5410770600109491 "
                   "with residual -4.440892098500626e-16")
        with pytest.raises(NoConvergence) as info:
            solve_beta(0.75, 3.0, tol=1e-20)
        assert str(info.value) == message
        assert (info.value.beta, info.value.residual, info.value.iterations) == (
            0.5410770600109491, 4.440892098500626e-16, 5)  # 6 with Newton's steps alone

    def test_pass_overflow_narrows_the_bracket(self):
        # Near q = 1/2 a Newton step overshoots to a beta where E1 leaves the
        # double range: the mean there is above every double, so the step
        # becomes the bracket's low end, not an OverflowError.
        A = 1.748981812557212e294
        result = solve_beta(0.5000000000000016, A)
        assert result.fallback_used
        assert result.residual <= 1e-10 * A

    def test_default_start_at_a_tiny_target(self):
        # ln(1 + 1/A) is inf below A = 5.6e-309, where 1/A overflows: the
        # default start is -ln A there, equal to it in doubles.
        result = solve_beta(0.75, 1e-310)
        assert result.residual <= 1e-10 * 1e-310

    def test_target_is_relative(self):
        # The old target, tol * max(1, A), let a mean 5% off pass at A = 1e-20.
        result = solve_beta(0.75, 1e-20)
        ref_mean = oracles.law_moments(0.75, result.beta)[0]
        assert abs(ref_mean - 1e-20) <= 1e-14 * 1e-20
        assert result.residual <= 1e-10 * 1e-20

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


class TestCurvature:
    """f' = d ln mean / d ln c (_log_slope) and its derivatives, which the
    Halley step and its certificate read."""

    @staticmethod
    def slope_and_curvature(q, u):
        s = 1.0 / (1.0 - q)
        e0, e1, _, g1, h2, k2, _ = zeta._excess_pass.__wrapped__(s, math.exp(u), q)
        return (solver._log_slope(s, e0, e1, g1, h2),
                solver._log_curvature(s, 1.0 + e0, e1, g1, h2, k2))

    def test_bounds_against_central_differences(self):
        # At seeded (q, c), q in (1/2, 0.999] and c/s in [1e-3, 1e4]: the
        # curvature formula matches the central difference of _log_slope,
        # and the differences stay inside the stated bounds |f''| <=
        # s (1 + s)/4 and |f'''| <= s (sqrt(3)/9 + 3 s/8 + 8 s**2/27).  Over
        # these draws they reach 24% and 5% of them.
        rng = random.Random(32)
        for _ in range(300):
            q = 0.5 + 0.499 * (1.0 - rng.random())
            s = 1.0 / (1.0 - q)
            u = math.log(s) + rng.uniform(math.log(1e-3), math.log(1e4))
            h = 1e-3 / s
            (f1, f2), (up, _), (down, _) = (self.slope_and_curvature(q, v) for v in (u, u + h, u - h))
            second, third = (up - down) / (2.0 * h), (up - 2.0 * f1 + down) / (h * h)
            curve_bound, third_bound = solver._derivative_bounds(s)
            assert abs(f2 - second) <= 1e-6 * curve_bound, (q, u)
            assert abs(second) <= curve_bound, (q, u)
            assert abs(third) <= third_bound, (q, u)

    def test_halley_takes_fewer_passes_than_newton(self, monkeypatch):
        # Cold solves over the queries domain of the benchmark (1 - q
        # log-uniform in [1e-6, 0.45], A in [1e-2, 1e4]).
        rng = random.Random(20261020)
        cases = [(1.0 - math.exp(rng.uniform(math.log(1e-6), math.log(0.45))),
                  math.exp(rng.uniform(math.log(1e-2), math.log(1e4)))) for _ in range(500)]

        def passes():
            count = 0
            for q, A in cases:
                zeta.excess_sums.cache_clear()
                solve_beta(q, A)
                count += zeta.excess_sums.cache_info().misses
            return count

        halley = passes()
        monkeypatch.setattr(solver, "_log_curvature", lambda *sums: math.nan)  # Newton's steps
        newton = passes()
        assert halley < 0.85 * newton, (halley, newton)


class TestSolverConfig:
    def test_validation(self):
        # The knobs are checked before the target: q = 1.1 is never reached.
        with pytest.raises(DomainError, match="tol must be positive"):
            solve_beta(1.1, 1.0, tol=0.0)
        with pytest.raises(DomainError, match="max_iter must be >= 1"):
            solve_beta(1.1, 1.0, max_iter=0)
        with pytest.raises(DomainError, match="beta0 must be positive"):
            solve_beta(1.1, 1.0, beta0=-1.0)
        with pytest.raises(DomainError, match="max_iter must be an integer, got 2.5"):
            solve_beta(1.1, 1.0, max_iter=2.5)
        with pytest.raises(DomainError, match="tol must be a real number, got '1e-8'"):
            solve_beta(1.1, 1.0, tol="1e-8")
        with pytest.raises(DomainError, match="beta0 must be a real number, got '1'"):
            solve_beta(1.1, 1.0, beta0="1")

    def test_defaults(self):
        knobs = inspect.signature(solve_beta).parameters
        assert all(knobs[name].kind is inspect.Parameter.KEYWORD_ONLY
                   for name in ("beta0", "tol", "max_iter"))
        assert knobs["tol"].default == 1e-10
        assert knobs["max_iter"].default == 100
        assert knobs["beta0"].default is None
