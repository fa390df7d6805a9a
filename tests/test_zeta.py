import math
import re

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsqueue.errors import DomainError, NoConvergence
from tsqueue import zeta
from tsqueue.zeta import (
    _scaled_sum,
    excess_sums,
    hurwitz_zeta,
    log_hurwitz_zeta,
    scaled_hurwitz_zeta,
)

import oracles

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


def _outcome(func, *args):
    """repr of what func returns, or the type and message of what it raises."""
    try:
        return repr(func(*args))
    except (DomainError, OverflowError, NoConvergence) as exc:
        return type(exc), str(exc)


def _lemma_holds(p):
    """fl(log p) <= fl(p - 1), and so L + log p <= L + (p - 1) at the
    cutoff's L: the precheck never stops a search that the full test
    would not stop."""
    target = math.log(1e-15)
    return math.log(p) <= p - 1.0 and target + math.log(p) <= target + (p - 1.0)


class TestCutoffPrecheck:
    def test_lemma_above_one(self):
        p = 1.0
        for _ in range(65536):
            p = math.nextafter(p, math.inf)
            assert _lemma_holds(p), p

    def test_lemma_at_powers_of_two(self):
        for k in range(1, 1024):
            p = 2.0**k
            for x in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)):
                assert _lemma_holds(x), x

    @settings(max_examples=2000, derandomize=True, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e308))
    def test_lemma_property(self, p):
        assert _lemma_holds(p)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.floats(min_value=-4.0, max_value=6.0),
        st.floats(min_value=-4.0, max_value=13.0),
    )
    def test_loops_equal_the_plain_cutoff_test(self, log10_excess, log10_a):
        # s - 2 log-uniform in [1e-4, 1e6], a log-uniform in [1e-4, 1e13]
        s, a = 2.0 + 10.0**log10_excess, 10.0**log10_a
        assert _outcome(_scaled_sum.__wrapped__, s, a) == _outcome(
            oracles.reference_scaled_sum, s, a)


# Each zeta loop, with arguments that need more than one direct term.
_BUDGET_CALLS = {scaled_hurwitz_zeta: (3.25, 0.125), excess_sums: (4.0, 0.125, 0.75)}


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
    def test_overflowing_corrections_raise_overflow(self, s):
        # (s+1)(s+2) overflows: the Bernoulli corrections are inf and -inf.
        message = f"scaled zeta sum overflows for s={s}, a={s}"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            scaled_hurwitz_zeta(s, s)

    @pytest.mark.parametrize("loop", list(_BUDGET_CALLS))
    def test_term_budget_raises_no_convergence(self, monkeypatch, loop):
        monkeypatch.setattr(zeta, "_MAX_TERMS", 1)
        _scaled_sum.cache_clear()
        excess_sums.cache_clear()
        with pytest.raises(NoConvergence, match="cutoff search did not terminate"):
            loop(*_BUDGET_CALLS[loop])

    def test_underflow_directs_to_log_variant(self):
        with pytest.raises(OverflowError):
            hurwitz_zeta(500.0, 100.0)
        assert math.isfinite(log_hurwitz_zeta(500.0, 100.0))
