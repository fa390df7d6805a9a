import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsqueue import distribution
from tsqueue.distribution import (
    QueueModel,
    log_pmf,
    mean,
    moment,
    pmf,
    qos_report,
    tail,
    tail_asymptote,
    utilization,
    variance,
)
from tsqueue.errors import DomainError, MomentDoesNotExist
from tsqueue.solver import solve_beta

import oracles

Q_GRID = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
BETA_GRID = [0.1, 0.5, 1.0, 2.0, 5.0]

MODEL = QueueModel(0.75, 1.0)  # s = 4, c = 4 exactly


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


class TestQueueModel:
    def test_derived_quantities(self):
        assert MODEL.s == 4.0
        assert MODEL.c == 4.0

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.2, 0.0, -0.3])
    def test_rejects_q_outside_open_interval(self, q):
        with pytest.raises(DomainError):
            QueueModel(q, 1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(DomainError):
            QueueModel(0.75, beta)

    @pytest.mark.parametrize("beta", [5e-324, 1e-308])
    def test_zeta_shift_overflow_is_a_domain_error(self, beta):
        # beta*(1-q) underflows to 0 at 5e-324; 1/(beta*(1-q)) overflows at 1e-308.
        with pytest.raises(DomainError, match="zeta shift"):
            QueueModel(0.75, beta)

    def test_value_semantics(self):
        # s and c are derived from (q, beta): repr, equality and hash read those only.
        assert repr(MODEL) == "QueueModel(q=0.75, beta=1.0)"
        assert QueueModel._fields == ("q", "beta", "s", "c")
        assert QueueModel._compared == ("q", "beta")
        assert MODEL == QueueModel(0.75, 1) and hash(MODEL) == hash((0.75, 1.0))
        assert MODEL != QueueModel(0.75, 2.0)
        moved = QueueModel(MODEL.q, beta=2.0)
        assert (moved.q, moved.beta, moved.s, moved.c) == (0.75, 2.0, 4.0, 2.0)

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            pmf(MODEL, -1)
        with pytest.raises(DomainError):
            pmf(MODEL, 1.5)


class TestPmf:
    def test_frozen_value(self):
        assert rel(pmf(MODEL, 0), oracles.PMF0_075_1) <= 1e-10

    @pytest.mark.parametrize("q,beta", [(0.75, 1.0), (0.6, 0.5), (0.9, 2.0)])
    @pytest.mark.parametrize("i", [0, 1, 7, 100])
    def test_ratio_identity(self, q, beta, i):
        model = QueueModel(q, beta)
        expected = ((model.c + i + 1) / (model.c + i)) ** (-model.s)
        assert rel(pmf(model, i + 1) / pmf(model, i), expected) <= 1e-12

    def test_geometric_recovery(self):
        # sup deviation scales like (1-q): measured 3.1e-2 at q=0.9,
        # 3.1e-3 at q=0.99, 3.1e-4 at q=0.999 (beta = 0.5)
        model = QueueModel(0.999, 0.5)
        rho = math.exp(-0.5)
        sup = max(
            abs(pmf(model, i) - oracles.geometric_pmf(rho, i)) for i in range(101)
        )
        assert sup < 1e-2


class TestLogPmf:
    def test_matches_pmf(self):
        for i in (0, 3, 50, 10**6):
            assert rel(math.exp(log_pmf(MODEL, i)), pmf(MODEL, i)) <= 1e-12

    def test_closed_form_at_zero(self):
        from tsqueue.zeta import log_hurwitz_zeta

        expected = -MODEL.s * math.log(MODEL.c) - log_hurwitz_zeta(MODEL.s, MODEL.c)
        assert rel(log_pmf(MODEL, 0), expected) <= 1e-12

    def test_frozen_value(self):
        assert rel(log_pmf(MODEL, 0), math.log(oracles.PMF0_075_1)) <= 1e-9

    def test_power_law_slope(self):
        # dyadic difference quotient converges to -1/(1-q) like c/i
        i = 10**6
        slope = (log_pmf(MODEL, 2 * i) - log_pmf(MODEL, i)) / math.log(2.0)
        assert rel(slope, -1.0 / (1.0 - MODEL.q)) <= 1e-4


class TestTail:
    @pytest.mark.parametrize("q,beta", [(0.75, 1.0), (0.55, 0.1), (0.95, 5.0)])
    def test_complement_of_pmf0(self, q, beta):
        model = QueueModel(q, beta)
        assert abs(tail(model, 0) - (1.0 - pmf(model, 0))) <= 1e-12

    def test_frozen_value(self):
        assert rel(tail(MODEL, 0), 1.0 - oracles.PMF0_075_1) <= 1e-10

    def test_matches_asymptote_at_large_x(self):
        x = 10**6
        asym = tail_asymptote(MODEL, x)
        assert abs(tail(MODEL, x) / asym.value - 1.0) <= 0.02

    @pytest.mark.parametrize("q,beta", [(0.6, 1.0), (0.75, 0.5), (0.9, 2.0)])
    def test_cdf_consistency(self, q, beta):
        model = QueueModel(q, beta)
        for x in (0, 10, 1000):
            cumulative = math.fsum(pmf(model, i) for i in range(x + 1))
            assert abs(tail(model, x) - (1.0 - cumulative)) <= 1e-10

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        st.floats(min_value=0.55, max_value=0.95),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_normalization_property(self, q, beta):
        model = QueueModel(q, beta)
        total = math.fsum(pmf(model, i) for i in range(11)) + tail(model, 10)
        assert abs(total - 1.0) <= 1e-10


class TestTailAsymptote:
    def test_exponent(self):
        assert tail_asymptote(MODEL, 1).exponent == pytest.approx(3.0, abs=1e-14)

    def test_coefficient(self):
        expected = (1.0 / oracles.ZETA_4_4) / 3.0  # ~44.578
        assert rel(tail_asymptote(MODEL, 1).coefficient, expected) <= 1e-10

    def test_ratio_tends_to_one(self):
        ratios = [
            tail(MODEL, x) / tail_asymptote(MODEL, x).value
            for x in (10**3, 10**4, 10**6)
        ]
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] <= 0.02

    def test_rejects_x_below_one(self):
        with pytest.raises(DomainError):
            tail_asymptote(MODEL, 0)

    @pytest.mark.parametrize("q", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_dyadic_slope_grid(self, q, beta):
        model = QueueModel(q, beta)
        x = 10**6
        slope = math.log(tail(model, x) / tail(model, 2 * x)) / math.log(2.0)
        target = q / (1.0 - q)
        assert rel(slope, target) <= 0.01


class TestMean:
    def test_frozen_value(self):
        assert rel(mean(MODEL), oracles.MEAN_075_1) <= 1e-10

    def test_brute_force(self):
        _, brute_mean, _ = oracles.brute_stats(0.75, 1.0)
        assert rel(mean(MODEL), brute_mean) <= 1e-8

    def test_geometric_limit(self):
        model = QueueModel(0.999, 0.5)
        assert rel(mean(model), oracles.geometric_mean(math.exp(-0.5))) <= 0.01

    @pytest.mark.parametrize("q", [0.55, 0.75, 0.95])
    def test_decreasing_in_beta(self, q):
        values = [mean(QueueModel(q, b)) for b in BETA_GRID]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestMoment:
    def test_first_moment_is_mean(self):
        assert moment(MODEL, 1) == mean(MODEL)

    def test_second_moment_frozen(self):
        # the binomial zeta expansion: zeta(2,4)/zeta(4,4) - 8 zeta(3,4)/zeta(4,4) + 16
        assert rel(moment(MODEL, 2), oracles.SECOND_MOMENT_075_1) <= 1e-8

    def test_second_moment_brute_force(self):
        _, _, brute_m2 = oracles.brute_stats(0.75, 1.0)
        assert rel(moment(MODEL, 2), brute_m2) <= 1e-8

    @pytest.mark.parametrize(
        "q,k,exists",
        [
            (0.6, 2, False),
            (2.0 / 3.0, 2, False),
            (0.7, 2, True),
            (0.55, 1, True),
        ],
    )
    def test_existence_frontier(self, q, k, exists):
        model = QueueModel(q, 1.0)
        if exists:
            assert moment(model, k) > 0.0
        else:
            with pytest.raises(MomentDoesNotExist):
                moment(model, k)

    @pytest.mark.parametrize("q,beta", [(0.999999999, 1e-5), (0.9, 700.0)])
    def test_second_moment_against_oracle(self, q, beta):
        # The binomial single sums read -1.78e13 and 3.17e-19 (2.8% high) here.
        model = QueueModel(q, beta)
        ref_mean, ref_variance, _ = oracles.law_moments(q, beta)
        assert rel(moment(model, 2), ref_variance + ref_mean**2) <= 1e-14

    def test_rejects_zero_order(self):
        with pytest.raises(DomainError):
            moment(MODEL, 0)

    def test_rejects_orders_other_than_one_and_two(self):
        for k in (0, 3):
            with pytest.raises(DomainError, match="order must be 1 or 2"):
                moment(MODEL, k)


class TestVariance:
    def test_frozen_value(self):
        assert rel(variance(MODEL), oracles.VARIANCE_075_1) <= 1e-8

    def test_matches_moment_identity(self):
        expected = moment(MODEL, 2) - mean(MODEL) ** 2
        assert rel(variance(MODEL), expected) <= 1e-8

    def test_geometric_limit(self):
        model = QueueModel(0.999, 0.5)
        assert rel(variance(model), oracles.geometric_variance(math.exp(-0.5))) <= 0.01

    def test_boundary_raises(self):
        with pytest.raises(MomentDoesNotExist):
            variance(QueueModel(2.0 / 3.0, 1.0))
        with pytest.raises(MomentDoesNotExist):
            variance(QueueModel(0.6, 0.5))

    def test_burstier_than_matched_mm1(self):
        # same mean through the solver round trip; geometric var is A(1+A)
        target = mean(MODEL)
        recovered = solve_beta(0.75, target)
        model = QueueModel(0.75, recovered.beta)
        assert variance(model) > target * (1.0 + target)


class TestUtilization:
    @pytest.mark.parametrize("q,beta", [(0.55, 0.1), (0.75, 1.0), (0.95, 5.0)])
    def test_equals_tail_at_zero(self, q, beta):
        model = QueueModel(q, beta)
        assert abs(utilization(model) - tail(model, 0)) <= 1e-12

    def test_frozen_value(self):
        assert rel(utilization(MODEL), 1.0 - oracles.PMF0_075_1) <= 1e-10

    def test_vanishes_for_large_beta(self):
        values = [utilization(QueueModel(0.75, b)) for b in (10.0, 50.0)]
        assert values[0] > values[1]
        assert values[1] < 1e-3


class TestQosReport:
    def test_fields_and_invariants(self):
        report = qos_report(MODEL, (100, 0, 10))
        # The utilization is E0/S from the excess pass, p0 = 1/S from the single sum.
        assert report.utilization == utilization(MODEL)
        assert abs(report.utilization + report.p0 - 1.0) <= 1e-15
        assert [x for x, _ in report.tail_samples] == [0, 10, 100]
        probs = [p for _, p in report.tail_samples]
        assert all(x > y for x, y in zip(probs, probs[1:]))
        assert report.variance is not None
        assert rel(report.variance, oracles.VARIANCE_075_1) <= 1e-8
        assert report.tail_exponent == pytest.approx(3.0)

    def test_sums_the_normalizer_once(self, monkeypatch):
        # p0, the asymptote and four tail points share the model's ln S(s, c).
        calls, single_sum = [], distribution.scaled_hurwitz_zeta
        monkeypatch.setattr(distribution, "scaled_hurwitz_zeta",
                            lambda s, a: calls.append(a) or single_sum(s, a))
        qos_report(QueueModel(0.75, 1.0), (0, 10, 100, 1000))
        assert calls == [4.0, 5.0, 15.0, 105.0, 1005.0]

    def test_variance_absent_iff_q_at_most_two_thirds(self):
        assert qos_report(QueueModel(0.6, 1.0)).variance is None
        assert qos_report(QueueModel(2.0 / 3.0, 1.0)).variance is None
        assert qos_report(QueueModel(0.7, 1.0)).variance is not None


class TestMomentsAgainstOracle:
    """Mean, variance and utilization meet 1e-12 relative against mpmath,
    down to the smallest normal double, or the call raises."""

    @staticmethod
    def check(q, beta):
        model = QueueModel(q, beta)
        ref_mean, ref_variance, ref_utilization = oracles.law_moments(q, beta)
        floor = sys.float_info.min
        assert abs(mean(model) - ref_mean) <= 1e-12 * ref_mean + floor, (q, beta)
        assert abs(utilization(model) - ref_utilization) <= 1e-12 * ref_utilization + floor
        if ref_variance is not None:
            assert abs(variance(model) - ref_variance) <= 1e-12 * ref_variance + floor, (q, beta)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.booleans(),
        st.floats(min_value=math.log(1e-8), max_value=math.log(0.45)),
        st.floats(min_value=math.log(1e-8), max_value=math.log(1e4)),
    )
    def test_box(self, near_half, log_gap, log_beta):
        # 2q - 1 or 1 - q log-uniform down to 1e-8, beta log-uniform in [1e-8, 1e4].
        gap = math.exp(log_gap)
        q = 0.5 + 0.5 * gap if near_half else 1.0 - gap
        self.check(q, math.exp(log_beta))

    @pytest.mark.parametrize("q,beta", [
        (0.9, 700.0),          # the mean and utilization read 0: S - 1 cancelled
        (0.999999999, 1e-5),   # the variance read -1.8e13: c**2 (r2 - r1**2) cancelled
        (0.5000001, 1.0),      # s - 2 = 1/(1-q) - 2 lost 1.6e-10 relative
    ])
    def test_defect_points(self, q, beta):
        model = QueueModel(q, beta)
        ref_mean, ref_variance, ref_utilization = oracles.law_moments(q, beta)
        assert rel(mean(model), ref_mean) <= 1e-14
        assert rel(utilization(model), ref_utilization) <= 1e-14
        if ref_variance is not None:
            assert rel(variance(model), ref_variance) <= 1e-14
