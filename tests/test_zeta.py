import math
import random
import types
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsqueue.errors import DomainError
from tsqueue import zeta
from tsqueue.zeta import (
    _excess_pass,
    hurwitz_zeta,
    log_hurwitz_zeta,
    scaled_hurwitz_zeta,
)

import oracles
from test_errors import EXTREMES

S_GRID = [1.5, 2.0, 3.0, 5.0, 10.0, 50.0]
A_GRID = [0.1, 0.5, 1.0, 4.0, 100.0]


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


class TestKnownValues:
    def test_riemann_anchors(self):
        assert rel(hurwitz_zeta(2.0, 1.0), oracles.PI2_OVER_6) <= 1e-12
        assert rel(hurwitz_zeta(3.0, 1.0), oracles.APERY) <= 1e-12
        assert rel(hurwitz_zeta(4.0, 1.0), oracles.PI4_OVER_90) <= 1e-12

    def test_half_shift_identity(self):
        # zeta(2, 1/2) = pi^2/2
        assert rel(hurwitz_zeta(2.0, 0.5), oracles.PI2_OVER_2) <= 1e-12

    def test_zeta_4_4(self):
        assert rel(hurwitz_zeta(4.0, 4.0), oracles.ZETA_4_4) <= 1e-12

    def test_against_mpmath(self):
        # independent high-precision oracle (mpmath needs generous working
        # precision: its Hurwitz zeta loses digits at tight settings)
        for s, a in [(2.5, 0.3), (4.0, 4.0), (7.0, 12.0), (3.0, 0.7)]:
            with mp.workdps(60):
                ref = float(mp.zeta(mp.mpf(s), mp.mpf(a)))
            assert rel(hurwitz_zeta(s, a), ref) <= 1e-12


class TestShiftIdentity:
    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("a", A_GRID)
    def test_grid(self, s, a):
        lhs = hurwitz_zeta(s, a)
        rhs = a**-s + hurwitz_zeta(s, a + 1.0)
        assert rel(lhs, rhs) <= 1e-12

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.floats(min_value=1.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=1000.0),
    )
    def test_property(self, s, a):
        lhs = hurwitz_zeta(s, a)
        rhs = a**-s + hurwitz_zeta(s, a + 1.0)
        assert rel(lhs, rhs) <= 1e-11


class TestMonotonicity:
    @pytest.mark.parametrize("s", S_GRID)
    def test_decreasing_in_a(self, s):
        values = [hurwitz_zeta(s, a) for a in A_GRID]
        assert all(x > y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("a", [0.1, 0.5])
    def test_increasing_as_s_drops_toward_one(self, a):
        # pole-side behavior: the 1/(s-1) divergence dominates near s = 1
        # even though the a**(-s) term grows with s for a < 1
        values = [hurwitz_zeta(s, a) for s in (1.001, 1.01, 1.1)]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestLogVariant:
    def test_log_of_known_value(self):
        assert rel(log_hurwitz_zeta(2.0, 1.0), math.log(oracles.PI2_OVER_6)) <= 1e-12
        assert rel(log_hurwitz_zeta(4.0, 4.0), math.log(oracles.ZETA_4_4)) <= 1e-12

    def test_dominant_term_limit(self):
        # correction (2/3)^1000 is ~1e-176, far below double resolution
        assert rel(log_hurwitz_zeta(1000.0, 2.0), -1000.0 * math.log(2.0)) <= 1e-14

    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("a", A_GRID)
    def test_consistent_with_direct(self, s, a):
        assert rel(math.exp(log_hurwitz_zeta(s, a)), hurwitz_zeta(s, a)) <= 1e-12

    def test_huge_s_still_finite(self):
        value = log_hurwitz_zeta(1e6, 2e6)
        assert math.isfinite(value)
        # leading term is -s ln a; the scaled remainder is order 1/(1-e^-0.5)
        assert value < -1e7


class TestScaledSum:
    def test_always_at_least_one(self):
        for s in S_GRID:
            for a in A_GRID:
                assert scaled_hurwitz_zeta(s, a) >= 1.0

    def test_matches_direct_product(self):
        s, a = 4.0, 4.0
        assert rel(scaled_hurwitz_zeta(s, a), a**s * hurwitz_zeta(s, a)) <= 1e-12

    @pytest.mark.parametrize("s", [2.0, 3.5, 1e3])
    def test_unit_shift_is_unscaled(self, s):
        # a**s == 1 at a = 1, so both forms are the same double
        assert hurwitz_zeta(s, 1.0) == scaled_hurwitz_zeta(s, 1.0)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=12.0),
    st.floats(min_value=-6.0, max_value=13.0),
)
def test_scaled_sum_matches_mpmath(log10_excess, log10_a):
    # s - 1 log-uniform in [1e-4, 1e12], a log-uniform in [1e-6, 1e13]
    s, a = 1.0 + 10.0**log10_excess, 10.0**log10_a
    with mp.workdps(max(40, int(math.log10(s)) + 25)):
        ref = oracles._mp_scaled_sum(mp.mpf(s), mp.mpf(a))
        assert abs(scaled_hurwitz_zeta(s, a) - ref) <= 1e-13 * ref


def test_corrections_are_the_nearest_doubles_to_the_bernoulli_ratios():
    # B_2m/(2m)! for m = 1..11, from the exact recurrence
    # B_n = -sum_{k<n} C(n+1, k) B_k / (n+1): a wrong digit in a late entry
    # moves every value by far less than the tolerances above catch.
    b = [Fraction(1)]
    for n in range(1, 23):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    exact = [b[2 * m] / math.factorial(2 * m) for m in range(1, 12)]
    assert zeta._EM_COEFFS == tuple(float(r) for r in exact)


@pytest.fixture
def direct_terms(monkeypatch):
    """A one-item list counting the direct terms the zeta loops take from
    here on: each term takes one log1p."""
    count = [0]

    def log1p(x):
        count[0] += 1
        return math.log1p(x)

    monkeypatch.setattr(zeta, "math", types.SimpleNamespace(**{**vars(math), "log1p": log1p}))
    return count


class TestDomainAndRange:
    @pytest.mark.parametrize("s,a", [(1.0, 1.0), (0.5, 1.0), (-2.0, 1.0)])
    def test_rejects_bad_s(self, s, a):
        with pytest.raises(DomainError):
            hurwitz_zeta(s, a)
        with pytest.raises(DomainError):
            log_hurwitz_zeta(s, a)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_rejects_bad_a(self, a):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, a)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(math.inf, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, math.nan)

    def test_overflow_directs_to_log_variant(self):
        # 0.01**-200 is ~1e400: too large for a double
        with pytest.raises(OverflowError):
            hurwitz_zeta(200.0, 0.01)
        assert math.isfinite(log_hurwitz_zeta(200.0, 0.01))

    @pytest.mark.parametrize("s", [1e155, 1e200, 1e308])
    def test_equal_huge_arguments_give_the_geometric_limit(self, s):
        # S(s, s) = sum_k (1 + k/s)**-s tends to 1/(1 - 1/e), with a gap of O(1/s).
        with mp.workdps(30):
            limit = 1 / (1 - 1 / mp.e)
            assert abs(scaled_hurwitz_zeta(s, s) - limit) <= 1e-15 * limit

    def test_s_where_s_log2e_overflows(self):
        # The terms must not take -s log2(e), which is -inf above s = 1.2458e308.
        s, a = 1.5e308, 3e307
        with mp.workdps(30):
            limit = 1 / (1 - mp.exp(-mp.mpf(s) / mp.mpf(a)))
            assert abs(scaled_hurwitz_zeta(s, a) - limit) <= 1e-15 * limit

    def test_log_variant_at_huge_s_and_a(self):
        s, a = 1e155, 1e300
        with mp.workdps(200):  # above log10(s) + 25 digits
            ref = mp.log(oracles._mp_scaled_sum(mp.mpf(s), mp.mpf(a))) - s * mp.log(a)
            assert abs(log_hurwitz_zeta(s, a) - ref) <= 1e-14 * abs(ref)

    def test_extreme_arguments_need_few_terms(self, direct_terms):
        # A cutoff test that overflowed would never pass and run on.
        values = [float(x) for x in EXTREMES]
        pairs = [(s, a) for s in values if 1.0 < s < math.inf for a in values if 0.0 < a < math.inf]
        assert len(pairs) == 32
        for s, a in pairs:
            direct_terms[0] = 0
            assert math.isfinite(scaled_hurwitz_zeta(s, a)), (s, a)
            assert direct_terms[0] <= 100, (s, a)
            # ln zeta is -s ln a + ln S, beyond the double range where s ln a is.
            if math.isinf(s * math.log(a)):
                with pytest.raises(OverflowError, match="exceeds the double range"):
                    log_hurwitz_zeta(s, a)
            else:
                assert math.isfinite(log_hurwitz_zeta(s, a)), (s, a)

    def test_every_loop_ends_within_its_bound(self, direct_terms):
        # The module's termination argument: a single sum takes at most 65
        # direct terms at any (s, a); the pass's proof allows 18,500 at
        # s <= 2**53, where the deepest found, the first call here, takes
        # 202.  Seeded draws over the whole domain take fewer.  The pass is
        # called past its cache, so that each call sums.
        rng = random.Random(29)
        single_sum, excess_pass = scaled_hurwitz_zeta, _excess_pass.__wrapped__
        q = 1.0 - 2.0**-53
        calls = [(excess_pass, (1.0 / (1.0 - q), 2.0**53 / 0.114, q))]
        for _ in range(20_000):
            calls.append((single_sum,
                          (1.0 + 2.0 ** rng.uniform(-52, 1023), 2.0 ** rng.uniform(-1074, 1023))))
            q = 1.0 - 2.0 ** rng.uniform(-53, -1)
            s = 1.0 / (1.0 - q)
            c = s * 2.0 ** rng.uniform(-20, 20) if rng.random() < 0.5 else 2.0 ** rng.uniform(-1074, 1023)
            calls.append((excess_pass, (s, c, q)))
        deepest = {single_sum: 0, excess_pass: 0}
        for loop, args in calls:
            direct_terms[0] = 0
            try:
                loop(*args)
            except OverflowError:  # S, E1 or H2 beyond the double range
                pass
            deepest[loop] = max(deepest[loop], direct_terms[0])
        assert deepest[single_sum] <= 65, deepest
        assert 200 <= deepest[excess_pass] <= 250, deepest

    @pytest.mark.parametrize("s,a", [(1.0001, 1e305), (1.5, 1e308), (1.000001, 1e303)])
    def test_zeta_where_the_scaled_sum_overflows(self, s, a):
        # a/(s - 1) beyond the double range: S is not a double, but zeta is.
        with pytest.raises(OverflowError, match="scaled zeta sum overflows"):
            scaled_hurwitz_zeta(s, a)
        with mp.workdps(40):
            ref = mp.log(mp.zeta(s, a))
            assert abs(log_hurwitz_zeta(s, a) - ref) <= 1e-14 * abs(ref)
        assert rel(hurwitz_zeta(s, a), math.exp(log_hurwitz_zeta(s, a))) <= 1e-13

    def test_underflow_directs_to_log_variant(self):
        with pytest.raises(OverflowError):
            hurwitz_zeta(500.0, 100.0)
        assert math.isfinite(log_hurwitz_zeta(500.0, 100.0))


class TestExit:
    """Both loops return their partial sums once no later addition can move
    them (the module docstring's exit), and so give the bits of the same
    loops without the exit (tests/oracles.py)."""

    @staticmethod
    def _single_sum_draws(rng, n):
        for _ in range(n):
            yield 1.0 + 2.0 ** rng.uniform(-52, 1023), 2.0 ** rng.uniform(-1074, 1023)
            s = 1.0 + 10.0 ** rng.uniform(-3, 7)  # up to the q -> 1 corner's s
            yield s, s * 10.0 ** rng.uniform(-4, 1)

    @staticmethod
    def _pass_draws(rng, n):
        for _ in range(n):
            q = 1.0 - 2.0 ** rng.uniform(-53, -1.0001)  # the whole domain
            yield q, 2.0 ** rng.uniform(-1074, 1023)
            q = 1.0 - 10.0 ** rng.uniform(-7, -2)  # the q -> 1 corner
            yield q, 10.0 ** rng.uniform(-3, 1) / (1.0 - q)
            q = 1.0 - 10.0 ** rng.uniform(-6, math.log10(0.45))  # the queries domain
            yield q, 1.0 / (10.0 ** rng.uniform(-3, 2) * (1.0 - q))
            yield q, 2.0 ** rng.uniform(-1074, -1022)  # subnormal c
            yield q, (1.0 / (1.0 - q) + 23.0) / (2.0 * math.pi) * 2.0 ** rng.uniform(0, 8)  # N = 0

    @staticmethod
    def _outcome(loop, *args):
        try:
            return repr(loop(*args))
        except OverflowError as exc:
            return f"OverflowError: {exc}"

    def test_single_sums_keep_their_bits(self, direct_terms, monkeypatch):
        monkeypatch.setattr(oracles, "math", zeta.math)  # count the oracle's terms too
        rng = random.Random(34)
        shorter = 0
        for s, a in self._single_sum_draws(rng, 3000):
            direct_terms[0] = 0
            got = self._outcome(zeta._scaled_sum, s, a)
            terms = direct_terms[0]
            direct_terms[0] = 0
            assert got == self._outcome(oracles.reference_scaled_sum, s, a), (s, a)
            shorter += terms < direct_terms[0]
        assert shorter >= 500, shorter  # the exit ran, and ended loops early

    def test_passes_keep_their_bits_and_the_certificate(self):
        # K2's bound may drop to 0.0; where it does, the bound the loop
        # without the exit returns rounds away in solver._solve's error term.
        rng = random.Random(34)
        dropped = set()
        for q, c in self._pass_draws(rng, 1200):
            s = 1.0 / (1.0 - q)
            got = self._outcome(lambda *a: _excess_pass.__wrapped__(*a)[:6], s, c, q)
            assert got == self._outcome(lambda *a: oracles.reference_excess_pass(*a)[:6], s, c, q), (s, c, q)
            if got.startswith("OverflowError"):
                continue
            *sums, bound = _excess_pass.__wrapped__(s, c, q)
            old = oracles.reference_excess_pass(s, c, q)[6]
            if bound != old:
                assert bound == 0.0, (s, c, q)
                e0, e1 = sums[:2]
                rounding = s * (1.0 + s) * 2.0**-36  # solver._ROUNDING's term
                assert rounding + s * (1.0 + s) * old * (1.0 / (1.0 + e0) + 1.0 / e1) == rounding, (s, c, q)
                dropped.add(round(math.log10(1.0 - q)))
        assert len(dropped) >= 3, dropped  # the exit ran at q over several decades of 1 - q

    def test_deep_sums_take_a_handful_of_terms(self, direct_terms):
        # Near q -> 1 the terms fall below an ulp of the sum within a few k:
        # the loops without the exit took 8, 75 and 75 direct terms here, to
        # the first term that underflows.
        for a, most in ((1e3, 1), (1e4, 8)):
            direct_terms[0] = 0
            scaled_hurwitz_zeta(1e5, a)
            assert direct_terms[0] <= most, (a, direct_terms[0])
        q = 1.0 - 1e-5
        direct_terms[0] = 0
        _excess_pass.__wrapped__(1.0 / (1.0 - q), 1e4, q)
        assert direct_terms[0] <= 12, direct_terms[0]

